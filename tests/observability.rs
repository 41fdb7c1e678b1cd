//! The flight recorder's artifacts, end to end: a supervised run with
//! observability on must emit a `RUNINFO.json` and a `TIMELINE.jsonl`
//! that validate against the checked-in schemas, the timeline's deltas
//! must sum exactly to the manifest's finals, a deep run must export a
//! well-formed Chrome `trace_event` file, and — the determinism firewall
//! — capture bytes must be identical with the timeline on or off at any
//! worker width.
//!
//! The validator below implements the JSON-Schema keyword subset the
//! schemas use — `type`, `required`, `properties`, `items`, `enum` — over
//! the vendored `serde_json` value model, so the test needs no external
//! schema crate. `schemas/runinfo.schema.json` and
//! `schemas/timeline.schema.json` stay the single source of truth shared
//! with the CI obs smoke jobs.

use sonet_dc::core::supervised::{run_capture, RunStatus, SuperviseOptions};
use sonet_dc::core::CaptureConfig;
use sonet_dc::util::obs::{self, ObsMode};
use sonet_dc::util::SimDuration;
use std::path::PathBuf;

use serde::Content;
use serde_json::Value;

/// Validates `value` against the schema keyword subset, appending one
/// message per violation to `errors`. `path` locates the value in the
/// document (e.g. `$.metrics.entries[3]`).
fn validate(schema: &Value, value: &Value, path: &str, errors: &mut Vec<String>) {
    if let Some(ty) = schema.get("type") {
        let allowed: Vec<String> = match &ty.0 {
            Content::Str(s) => vec![s.clone()],
            Content::Seq(items) => items
                .iter()
                .filter_map(|c| c.as_str())
                .map(str::to_owned)
                .collect(),
            _ => Vec::new(),
        };
        if !allowed.iter().any(|t| type_matches(t, &value.0)) {
            errors.push(format!(
                "{path}: expected type {allowed:?}, got {}",
                type_name(&value.0)
            ));
            return;
        }
    }
    if let Some(en) = schema.get("enum") {
        if let Content::Seq(candidates) = &en.0 {
            let rendered = Value(value.0.clone()).to_string();
            if !candidates
                .iter()
                .any(|c| Value(c.clone()).to_string() == rendered)
            {
                errors.push(format!("{path}: {rendered} not in enum"));
            }
        }
    }
    // Object keywords apply only when the value is an object: a field
    // typed `["object", "null"]` with `required` inside is legal as null.
    if value.is_object() {
        if let Some(req) = schema.get("required") {
            if let Content::Seq(keys) = &req.0 {
                for key in keys.iter().filter_map(Content::as_str) {
                    if value.get(key).is_none() {
                        errors.push(format!("{path}: missing required field '{key}'"));
                    }
                }
            }
        }
        if let Some(props) = schema.get("properties") {
            if let Content::Map(entries) = &props.0 {
                for (k, sub) in entries {
                    if let Some(key) = k.as_str() {
                        if let Some(field) = value.get(key) {
                            validate(
                                &Value(sub.clone()),
                                &field,
                                &format!("{path}.{key}"),
                                errors,
                            );
                        }
                    }
                }
            }
        }
    }
    if let Content::Seq(items) = &value.0 {
        if let Some(item_schema) = schema.get("items") {
            for (i, item) in items.iter().enumerate() {
                validate(
                    &item_schema,
                    &Value(item.clone()),
                    &format!("{path}[{i}]"),
                    errors,
                );
            }
        }
    }
}

fn type_matches(name: &str, c: &Content) -> bool {
    match name {
        "object" => matches!(c, Content::Map(_)),
        "array" => matches!(c, Content::Seq(_)),
        "string" => matches!(c, Content::Str(_)),
        "integer" => matches!(c, Content::U64(_) | Content::I64(_)),
        "number" => matches!(c, Content::U64(_) | Content::I64(_) | Content::F64(_)),
        "boolean" => matches!(c, Content::Bool(_)),
        "null" => matches!(c, Content::Null),
        _ => false,
    }
}

fn type_name(c: &Content) -> &'static str {
    match c {
        Content::Null => "null",
        Content::Bool(_) => "boolean",
        Content::U64(_) | Content::I64(_) => "integer",
        Content::F64(_) => "number",
        Content::Str(_) => "string",
        Content::Seq(_) => "array",
        Content::Map(_) => "object",
    }
}

fn load_schema() -> Value {
    load_schema_file("schemas/runinfo.schema.json")
}

fn load_schema_file(rel: &str) -> Value {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(rel);
    let body = std::fs::read_to_string(&path).expect("schema file");
    serde_json::from_str(&body).expect("schema parses")
}

fn scratch_dir(label: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "sonet-observability-{label}-{}",
        std::process::id()
    ))
}

/// One deep supervised run; asserts on every flight-recorder artifact it
/// emits. A single test (rather than one per artifact) because the obs
/// mode is process-global and parallel test threads would race on it.
#[test]
fn deep_supervised_run_emits_valid_artifacts() {
    obs::set_mode(ObsMode::Deep);
    // Four window snapshots per simulated second, plus checkpoint/final.
    obs::timeline::set_interval_ns(250_000_000);
    let dir = scratch_dir("capture");
    let cfg = CaptureConfig {
        duration: SimDuration::from_secs(1),
        ..CaptureConfig::fast(19)
    };
    let opts = SuperviseOptions::new(&dir);
    let (status, cap) = run_capture(&cfg, &opts).expect("supervised run");
    obs::set_mode(ObsMode::Off);
    obs::timeline::set_interval_ns(0);
    assert!(matches!(status, RunStatus::Completed));
    assert!(cap.is_some());

    // The manifest exists, parses, and validates against the pinned schema.
    let body = std::fs::read_to_string(opts.runinfo_path()).expect("RUNINFO.json written");
    let doc: Value = serde_json::from_str(&body).expect("RUNINFO.json parses");
    let mut errors = Vec::new();
    validate(&load_schema(), &doc, "$", &mut errors);
    assert!(errors.is_empty(), "schema violations: {errors:#?}");
    assert_eq!(
        doc.get("status").expect("status").0.as_str(),
        Some("completed")
    );
    assert_eq!(
        doc.get("command").expect("command").0.as_str(),
        Some("capture")
    );

    // The engine actually recorded into the registry during the run.
    let metrics = doc.get("metrics").expect("metrics");
    let entries = match &metrics.get("entries").expect("entries").0 {
        Content::Seq(items) => items.clone(),
        other => panic!("entries must be an array, got {other:?}"),
    };
    let events = entries
        .iter()
        .find_map(|e| {
            let v = Value(e.clone());
            (v.get("name")?.0.as_str()? == "engine.events").then(|| v.get("value"))?
        })
        .expect("engine.events metric present");
    assert!(
        matches!(events.0, Content::U64(n) if n > 0),
        "engine.events must be a positive count, got {:?}",
        events.0
    );

    // The engine's barrier and drain counters land in the manifest, and
    // the effective-lookahead histogram gets one observation per
    // scheduled window.
    let find = |name: &str| {
        entries.iter().find_map(|e| {
            let v = Value(e.clone());
            (v.get("name")?.0.as_str()? == name).then_some(v)
        })
    };
    for name in ["engine.barriers", "engine.drain_ns"] {
        let m = find(name).unwrap_or_else(|| panic!("{name} metric missing from RUNINFO"));
        assert_eq!(
            m.get("kind").expect("kind").0.as_str(),
            Some("counter"),
            "{name} must be a counter"
        );
        assert!(
            matches!(m.get("value").expect("value").0, Content::U64(n) if n > 0),
            "{name} must count something on a real run"
        );
    }
    let look = find("engine.effective_lookahead_ns").expect("effective-lookahead histogram");
    assert_eq!(
        look.get("kind").expect("kind").0.as_str(),
        Some("histogram")
    );
    let hist = look.get("histogram").expect("histogram payload");
    assert!(
        matches!(hist.get("count").expect("count").0, Content::U64(n) if n > 0),
        "every scheduled window must observe its effective lookahead"
    );

    // ---- The streaming timeline artifact ----
    let tl_path = dir.join(obs::timeline::TIMELINE);
    let tl_body = std::fs::read_to_string(&tl_path).expect("TIMELINE.jsonl written");
    let tl_schema = load_schema_file("schemas/timeline.schema.json");
    let mut last_sim = None;
    for (i, line) in tl_body.lines().enumerate() {
        let row: Value = serde_json::from_str(line).expect("timeline record parses");
        let mut errors = Vec::new();
        validate(&tl_schema, &row, &format!("$[{i}]"), &mut errors);
        assert!(errors.is_empty(), "timeline record {i}: {errors:#?}");
        let sim = match row.get("sim_ns").expect("sim_ns").0 {
            Content::U64(n) => n,
            other => panic!("sim_ns must be u64, got {other:?}"),
        };
        assert!(
            last_sim.is_none_or(|p| sim > p),
            "sim_ns must be strictly increasing: record {i} has {sim} after {last_sim:?}"
        );
        last_sim = Some(sim);
    }
    let (rows, _) = obs::timeline::read_rows(&tl_path, 0).expect("timeline reads back");
    assert_eq!(rows.len(), tl_body.lines().count());
    assert!(
        rows.iter().any(|r| r.trigger == "window"),
        "a 1-sim-second run at a 250 ms interval takes window snapshots"
    );
    assert!(
        rows.iter().any(|r| r.trigger == "checkpoint"),
        "every supervisor boundary takes a checkpoint snapshot"
    );
    assert_eq!(rows.last().expect("records").trigger, "final");

    // Delta semantics: for every counter in the manifest, the timeline's
    // deltas sum exactly to the RUNINFO final.
    let mut delta_sums: std::collections::BTreeMap<String, u64> = Default::default();
    for r in &rows {
        for (name, kind, delta, _) in &r.metrics {
            if kind == "counter" {
                *delta_sums.entry(name.clone()).or_default() += delta;
            }
        }
    }
    for e in &entries {
        let v = Value(e.clone());
        if v.get("kind").and_then(|k| k.0.as_str().map(str::to_owned)) != Some("counter".into()) {
            continue;
        }
        let name = v.get("name").and_then(|n| n.0.as_str().map(str::to_owned));
        let name = name.expect("entry name");
        let final_value = match v.get("value").expect("value").0 {
            Content::U64(n) => n,
            other => panic!("{name}: counter value must be u64, got {other:?}"),
        };
        assert_eq!(
            delta_sums.get(&name).copied().unwrap_or(0),
            final_value,
            "{name}: timeline deltas must sum to the RUNINFO final"
        );
    }

    // The deep run's span buffer exports as a well-formed Chrome trace.
    let trace_path = dir.join("trace.json");
    let n = obs::trace::export_chrome(&trace_path).expect("trace export");
    assert!(n > 0, "a deep run records spans");
    let trace: Value =
        serde_json::from_str(&std::fs::read_to_string(&trace_path).expect("trace file"))
            .expect("trace parses");
    let events = match &trace.get("traceEvents").expect("traceEvents").0 {
        Content::Seq(items) => items.clone(),
        other => panic!("traceEvents must be an array, got {other:?}"),
    };
    assert_eq!(events.len(), n);
    for e in &events {
        let v = Value(e.clone());
        assert_eq!(v.get("ph").expect("ph").0.as_str(), Some("X"));
        for field in ["name", "cat", "ts", "dur", "pid", "tid"] {
            assert!(v.get(field).is_some(), "trace event missing '{field}'");
        }
    }
    assert!(
        events.iter().any(|e| {
            Value(e.clone())
                .get("name")
                .and_then(|n| n.0.as_str().map(str::to_owned))
                == Some("engine.window".to_owned())
        }),
        "deep mode records per-window engine spans"
    );

    std::fs::remove_dir_all(&dir).ok();

    // ---- Determinism firewall ----
    // The timeline is a write-only side channel: checkpoint bytes must be
    // identical with the timeline on or off, at any worker width.
    let short = CaptureConfig {
        duration: SimDuration::from_millis(750),
        ..CaptureConfig::fast(19)
    };
    let mut ckpts: Vec<Vec<u8>> = Vec::new();
    for (mode, interval_ns) in [(ObsMode::Deep, 250_000_000), (ObsMode::Off, 0)] {
        for width in [1usize, 2, 8] {
            obs::set_mode(mode);
            obs::timeline::set_interval_ns(interval_ns);
            let d = scratch_dir(&format!("firewall-{}-w{width}", mode.name()));
            let mut o = SuperviseOptions::new(&d);
            o.every = SimDuration::from_millis(250);
            o.threads = Some(width);
            let (st, _) = run_capture(&short, &o).expect("firewall run");
            obs::set_mode(ObsMode::Off);
            obs::timeline::set_interval_ns(0);
            assert!(matches!(st, RunStatus::Completed));
            if mode == ObsMode::Deep {
                assert!(
                    d.join(obs::timeline::TIMELINE).is_file(),
                    "deep leg must stream a timeline"
                );
            }
            ckpts.push(std::fs::read(o.capture_checkpoint_path()).expect("checkpoint"));
            std::fs::remove_dir_all(&d).ok();
        }
    }
    assert!(
        ckpts.iter().all(|c| c == &ckpts[0]),
        "checkpoint bytes must be identical across obs modes and widths"
    );
}

#[test]
fn validator_rejects_malformed_manifests() {
    let schema = load_schema();
    // Missing nearly every required field, and a wrong-typed `schema`.
    let doc: Value = serde_json::from_str(r#"{"schema": "one", "command": 7}"#).expect("parses");
    let mut errors = Vec::new();
    validate(&schema, &doc, "$", &mut errors);
    assert!(
        errors
            .iter()
            .any(|e| e.contains("missing required field 'seed'")),
        "missing fields must be reported: {errors:?}"
    );
    assert!(
        errors.iter().any(|e| e.contains("$.schema")),
        "type mismatches must be reported: {errors:?}"
    );
    assert!(
        errors.iter().any(|e| e.contains("$.command")),
        "wrong-typed command must be reported: {errors:?}"
    );

    // A bad obs_mode trips the enum keyword.
    let doc: Value = serde_json::from_str(r#"{"obs_mode": "loud"}"#).expect("parses");
    let mut errors = Vec::new();
    validate(&schema, &doc, "$", &mut errors);
    assert!(
        errors
            .iter()
            .any(|e| e.contains("$.obs_mode") && e.contains("not in enum")),
        "enum violations must be reported: {errors:?}"
    );
}
