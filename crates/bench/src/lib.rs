//! Shared setup for the benchmark harness.
//!
//! Every bench regenerates its table/figure (printed to stdout as
//! paper-vs-measured) and then times the analysis stage with Criterion.
//! Set `SONET_BENCH_FAST=1` to run the whole suite on tiny plants in a
//! few seconds (CI smoke mode); the printed numbers are then noisier.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use sonet_core::{Lab, LabConfig};

pub mod ledger;

/// Seed used by the whole harness, so bench output is reproducible.
pub const BENCH_SEED: u64 = 42;

/// True when the suite runs in fast/smoke mode.
pub fn fast_mode() -> bool {
    std::env::var("SONET_BENCH_FAST")
        .map(|v| v == "1")
        .unwrap_or(false)
}

/// The lab configuration for benches (standard, or tiny in fast mode).
pub fn bench_config() -> LabConfig {
    if fast_mode() {
        LabConfig::fast(BENCH_SEED)
    } else {
        LabConfig::standard(BENCH_SEED)
    }
}

/// A lab ready for bench use.
pub fn bench_lab() -> Lab {
    Lab::new(bench_config())
}

/// Prints a bench banner so figure output is findable in logs.
pub fn banner(what: &str) {
    println!("\n================ {what} ================");
    if fast_mode() {
        println!("(SONET_BENCH_FAST=1: tiny plant, numbers are smoke-test grade)");
    }
}
