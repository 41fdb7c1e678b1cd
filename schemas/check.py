#!/usr/bin/env python3
"""Validate a JSON document, or every record of a JSONL file, against a schema.

Usage:

    python3 schemas/check.py SCHEMA FILE [--jsonl]

Supports the subset of JSON Schema the pinned schemas use: `type` (a
name or a list of names), `enum`, `required`, `properties` and `items`.
Exits nonzero with the failing path on the first violation. Stock
python only, so CI needs no schema package.
"""

import json
import sys

TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
}


def check(sch, val, path):
    t = sch.get("type")
    types = t if isinstance(t, list) else [t] if t else []
    if types:
        assert any(TYPES[n](val) for n in types), f"{path}: {val!r} is not {t}"
    if val is None:
        return
    if "enum" in sch:
        assert val in sch["enum"], f"{path}: {val!r} not in {sch['enum']}"
    if isinstance(val, dict):
        for k in sch.get("required", []):
            assert k in val, f"{path}: missing required key {k}"
        for k, sub in sch.get("properties", {}).items():
            if k in val:
                check(sub, val[k], f"{path}.{k}")
    if isinstance(val, list) and "items" in sch:
        for i, item in enumerate(val):
            check(sch["items"], item, f"{path}[{i}]")


def main(argv):
    args = [a for a in argv if a != "--jsonl"]
    if len(args) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    schema_path, file_path = args
    with open(schema_path) as f:
        schema = json.load(f)
    with open(file_path) as f:
        if "--jsonl" in argv:
            docs = [(f"$[{i}]", json.loads(line)) for i, line in enumerate(f)]
            assert docs, f"{file_path} is empty"
        else:
            docs = [("$", json.load(f))]
    for path, doc in docs:
        check(schema, doc, path)
    print(f"{file_path}: {len(docs)} document(s) match {schema_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
