#![warn(missing_docs)]

//! Shared harness machinery for the experiment binaries.
//!
//! Each paper table/figure has a binary in `src/bin/` (see DESIGN.md's
//! per-experiment index); this library provides the store dispatcher, a
//! minimal `--flag value` parser, wall-clock timing helpers, and aligned
//! table printing with JSON export.

pub mod args;
pub mod gate;
pub mod harness;
pub mod report;
pub mod runner;

pub use args::Args;
pub use report::Table;
pub use runner::AnyStore;

use std::time::Instant;

/// Append a `"telemetry"` section (the process-wide instrument snapshot,
/// see `sg_telemetry::Report::to_json` for the schema) to a JSON report
/// object when the `telemetry` feature is enabled; identity otherwise.
pub fn attach_telemetry(report: sg_json::Value) -> sg_json::Value {
    #[cfg(feature = "telemetry")]
    let report = {
        let mut report = report;
        if let sg_json::Value::Object(fields) = &mut report {
            fields.push(("telemetry".to_string(), sg_telemetry::snapshot().to_json()));
        }
        report
    };
    report
}

/// Wall time of one invocation of `f`, seconds.
pub fn time_once(mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64()
}

/// Median wall time over `n` invocations.
pub fn time_median(n: usize, mut f: impl FnMut()) -> f64 {
    assert!(n >= 1);
    median((0..n).map(|_| time_once(&mut f)).collect())
}

/// Median of a non-empty sample set (the upper middle one for even
/// counts).
pub fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Pretty seconds (ms/µs as appropriate).
pub fn fmt_secs(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.3} s")
    } else if s >= 1e-3 {
        format!("{:.3} ms", s * 1e3)
    } else {
        format!("{:.3} µs", s * 1e6)
    }
}

/// Pretty byte counts.
pub fn fmt_bytes(b: u64) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut v = b as f64;
    let mut u = 0;
    while v >= 1024.0 && u < UNITS.len() - 1 {
        v /= 1024.0;
        u += 1;
    }
    if u == 0 {
        format!("{b} B")
    } else {
        format!("{v:.2} {}", UNITS[u])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting() {
        assert_eq!(fmt_bytes(512), "512 B");
        assert_eq!(fmt_bytes(2048), "2.00 KiB");
        assert_eq!(fmt_bytes(3 << 30), "3.00 GiB");
        assert!(fmt_secs(2.0).ends_with(" s"));
        assert!(fmt_secs(2e-3).ends_with(" ms"));
        assert!(fmt_secs(2e-6).ends_with(" µs"));
    }

    #[test]
    fn median_timing_is_positive() {
        let t = time_median(3, || {
            std::hint::black_box((0..1000).sum::<u64>());
        });
        assert!(t >= 0.0);
    }
}
