//! Process-level exit-code contracts of the `sonet` binary.
//!
//! These run the real binary (`CARGO_BIN_EXE_sonet`), because exit-code
//! bugs live in `main`'s plumbing — the layer unit tests cannot see. The
//! `SONET_PANIC_EXPERIMENT` hook makes one experiment panic under the
//! batch isolator so the panic → exit-code path is exercised end to end.

use std::path::PathBuf;
use std::process::Command;

fn sonet() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sonet"))
}

fn scratch_dir(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sonet-cli-{label}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// A scenario panicking under `supervisor::isolate` must fail the whole
/// batch: nonzero exit, the panic named in the rollup, and the violation
/// flagged in `RUNINFO.json` notes. The other 18 experiments still run.
#[test]
fn all_exits_nonzero_and_flags_runinfo_when_a_scenario_panics() {
    let dir = scratch_dir("all-panic");
    let out = sonet()
        .args(["all", "--fast", "--seed", "7", "--obs"])
        .env("SONET_PANIC_EXPERIMENT", "table4")
        .current_dir(&dir)
        .output()
        .expect("spawn sonet all");
    assert!(
        !out.status.success(),
        "a panicking scenario must exit nonzero; stderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("table4") && stderr.contains("panicked"),
        "rollup must name the panicking scenario:\n{stderr}"
    );
    assert!(
        stderr.contains("18/19 scenarios ok"),
        "the other experiments must still render:\n{stderr}"
    );
    let runinfo = std::fs::read_to_string(dir.join("RUNINFO.json")).expect("RUNINFO.json written");
    assert!(
        runinfo.contains("injected test panic"),
        "RUNINFO notes must flag the panic:\n{runinfo}"
    );
    assert!(
        runinfo.contains("\"status\": \"failed: 1 scenarios\""),
        "RUNINFO status must record the failure:\n{runinfo}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `sonet chaos` completes a tiny campaign with exit 0 (SLO violations
/// are results, not process failures) and writes the campaign report.
#[test]
fn chaos_campaign_smoke_exits_zero_and_writes_report() {
    let dir = scratch_dir("chaos-smoke");
    let out_dir = dir.join("campaign");
    let out = sonet()
        .args([
            "chaos",
            "--profiles",
            "rack-outage",
            "--seeds",
            "1",
            "--duration-ms",
            "400",
            "--out",
        ])
        .arg(&out_dir)
        .current_dir(&dir)
        .output()
        .expect("spawn sonet chaos");
    assert!(
        out.status.success(),
        "campaign completion must exit 0; stderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("chaos campaign c"),
        "report matrix on stdout:\n{stdout}"
    );
    assert!(
        out_dir.join("campaign-report.json").is_file(),
        "campaign report written"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `--replay` on a missing or malformed file is an infrastructure
/// failure: nonzero exit, no simulation run.
#[test]
fn chaos_replay_rejects_missing_and_malformed_files() {
    let dir = scratch_dir("chaos-replay");
    let missing = sonet()
        .args(["chaos", "--replay"])
        .arg(dir.join("nope.json"))
        .output()
        .expect("spawn sonet chaos --replay");
    assert!(!missing.status.success(), "missing repro file must fail");

    let bad = dir.join("bad.json");
    std::fs::write(&bad, "{\"kind\":\"not-a-repro\"}").expect("write bad repro");
    let malformed = sonet()
        .args(["chaos", "--replay"])
        .arg(&bad)
        .output()
        .expect("spawn sonet chaos --replay");
    assert!(
        !malformed.status.success(),
        "malformed repro file must fail"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Runs each `(args, flag)` case in an empty scratch dir and asserts it
/// exits nonzero, names `flag` on stderr, and leaves the dir empty — a
/// rejected command line must stop before any work starts.
fn assert_rejected(label: &str, cases: &[(&[&str], &str)]) {
    let dir = scratch_dir(label);
    for (args, flag) in cases {
        let out = sonet()
            .args(*args)
            .current_dir(&dir)
            .output()
            .expect("spawn sonet");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} must exit nonzero");
        assert!(
            stderr.contains(flag),
            "{args:?}: stderr must name {flag}:\n{stderr}"
        );
    }
    assert!(
        std::fs::read_dir(&dir)
            .expect("scratch dir")
            .next()
            .is_none(),
        "a rejected flag must not leave checkpoints or RUNINFO behind"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A `--seed` or `--threads` value that does not parse must stop the run
/// with a nonzero exit naming the flag, before any work starts — not
/// silently fall back to the default seed or width.
#[test]
fn unparseable_seed_or_threads_exits_nonzero_naming_the_flag() {
    assert_rejected(
        "bad-flags",
        &[
            (&["capture", "--fast", "--seed", "0x7"], "--seed"),
            (&["fleet", "--fast", "--threads", "two"], "--threads"),
            (&["run", "table3", "--seed"], "--seed"),
        ],
    );
}

/// A flag that is misspelled, that the command never reads, or whose
/// value is not one of its choices must stop the run the same way — not
/// be skipped while the command runs with its defaults.
#[test]
fn unknown_or_unread_flags_exit_nonzero_naming_the_flag() {
    assert_rejected(
        "strict-flags",
        &[
            (&["capture", "--fast", "--sed", "7"], "--sed"),
            (&["run", "table2", "--checkpoint", "x"], "--checkpoint"),
            (&["chaos", "--fast"], "--fast"),
            (&["capture", "--fidelity=bogus"], "--fidelity"),
            (&["top", "x", "--threads", "2"], "--threads"),
        ],
    );
}
