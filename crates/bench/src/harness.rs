//! Minimal benchmark harness for the `benches/` targets.
//!
//! A small, dependency-free stand-in for the usual bench frameworks:
//! named groups of benchmarks, median-of-N wall-clock timing with one
//! warmup run, substring filtering from the command line, aligned table
//! output, and a machine-readable JSON record under `results/` in the
//! same `{title, headers, rows}` + optional `telemetry` shape as the
//! figure binaries (see `report::save_json` and `attach_telemetry`).
//!
//! Usage from a `harness = false` bench target:
//!
//! ```no_run
//! let mut h = sg_bench::harness::Harness::from_args("example");
//! {
//!     let mut g = h.group("group_name");
//!     g.sample_size(10);
//!     g.bench("fast_case", || 40 + 2);
//! }
//! h.finish();
//! ```
//!
//! Command line: any free argument is a substring filter on
//! `group/benchmark` names; `--quick` caps sampling at 3 runs; the
//! `--bench` flag cargo passes is ignored.

use crate::report::{save_json, Table};
use sg_json::{json, Value};
use std::hint::black_box;
use std::time::Instant;

/// One completed measurement.
#[derive(Debug, Clone)]
struct Record {
    group: String,
    id: String,
    samples: usize,
    median_s: f64,
    min_s: f64,
    /// Elements processed per invocation, for throughput reporting.
    elements: Option<u64>,
    /// Instrument delta attributable to this benchmark's reps alone
    /// (`snapshot_delta` against a baseline captured before the timed
    /// loop), so repetitions don't smear into whole-process totals.
    /// `None` when the measured crates were built without telemetry.
    telemetry_delta: Option<Value>,
}

/// Collects benchmark results for one bench target.
#[derive(Debug)]
pub struct Harness {
    name: String,
    filter: Option<String>,
    quick: bool,
    records: Vec<Record>,
}

impl Harness {
    /// Parse the command line; `name` tags the JSON record
    /// (`results/bench_<name>.json`).
    pub fn from_args(name: &str) -> Self {
        let mut filter = None;
        let mut quick = false;
        for arg in std::env::args().skip(1) {
            match arg.as_str() {
                "--bench" | "--test" => {} // cargo bench/test plumbing
                "--quick" => quick = true,
                other if !other.starts_with('-') => filter = Some(other.to_string()),
                _ => {}
            }
        }
        Self {
            name: name.to_string(),
            filter,
            quick,
            records: Vec::new(),
        }
    }

    /// Open a named benchmark group.
    pub fn group(&mut self, name: &str) -> Group<'_> {
        Group {
            harness: self,
            name: name.to_string(),
            samples: 10,
            elements: None,
        }
    }

    fn accepts(&self, group: &str, id: &str) -> bool {
        match &self.filter {
            Some(f) => format!("{group}/{id}").contains(f.as_str()),
            None => true,
        }
    }

    fn effective_samples(&self, group_samples: usize) -> usize {
        let cap = if self.quick { 3 } else { usize::MAX };
        group_samples.clamp(1, cap)
    }

    /// Print the results table and save the JSON record.
    pub fn finish(self) {
        let mut table = Table::new(
            &format!("bench: {}", self.name),
            &[
                "group",
                "benchmark",
                "samples",
                "median",
                "min",
                "throughput",
            ],
        );
        let mut raw = Vec::new();
        for r in &self.records {
            let thr = match r.elements {
                Some(n) if r.median_s > 0.0 => {
                    format!("{:.0} elem/s", n as f64 / r.median_s)
                }
                _ => "-".to_string(),
            };
            table.add_row(vec![
                r.group.clone(),
                r.id.clone(),
                r.samples.to_string(),
                crate::fmt_secs(r.median_s),
                crate::fmt_secs(r.min_s),
                thr,
            ]);
            let mut entry = json!({
                "group": r.group.clone(),
                "id": r.id.clone(),
                "samples": r.samples,
                "median_s": r.median_s,
                "min_s": r.min_s,
                "elements": r.elements.map_or(Value::Null, Value::from),
            });
            if let Some(delta) = &r.telemetry_delta {
                entry["telemetry_delta"] = delta.clone();
            }
            raw.push(entry);
        }
        table.print();
        let record = json!({
            "experiment": format!("bench_{}", self.name),
            "table": table.to_json(),
            "raw": raw,
        });
        let record = crate::attach_telemetry(record);
        match save_json(&format!("bench_{}", self.name), &record) {
            Ok(p) => println!("saved {}", p.display()),
            Err(e) => eprintln!("could not save JSON record: {e}"),
        }
    }
}

/// A group of related benchmarks sharing a sample size.
#[derive(Debug)]
pub struct Group<'a> {
    harness: &'a mut Harness,
    name: String,
    samples: usize,
    elements: Option<u64>,
}

impl Group<'_> {
    /// Number of timed runs per benchmark (default 10).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.samples = n.max(1);
        self
    }

    /// Declare elements processed per invocation so `finish` can report
    /// throughput. Applies to benchmarks registered *after* the call.
    pub fn throughput_elements(&mut self, n: u64) -> &mut Self {
        self.elements = Some(n);
        self
    }

    /// Time `f` (median of the group's sample count, one warmup run).
    pub fn bench<R>(&mut self, id: &str, mut f: impl FnMut() -> R) {
        self.bench_with_setup(id, || (), |()| f());
    }

    /// Time `run(setup())`, excluding the setup from the measurement.
    pub fn bench_with_setup<S, R>(
        &mut self,
        id: &str,
        mut setup: impl FnMut() -> S,
        mut run: impl FnMut(S) -> R,
    ) {
        if !self.harness.accepts(&self.name, id) {
            return;
        }
        let samples = self.harness.effective_samples(self.samples);
        black_box(run(setup())); // warmup
        let baseline = sg_telemetry::snapshot();
        let mut times = Vec::with_capacity(samples);
        for _ in 0..samples {
            let input = setup();
            let t0 = Instant::now();
            black_box(run(input));
            times.push(t0.elapsed().as_secs_f64());
        }
        let delta = sg_telemetry::snapshot_delta(&baseline);
        let telemetry_delta =
            (!delta.counters.is_empty() || !delta.spans.is_empty() || !delta.hists.is_empty())
                .then(|| delta.to_json());
        times.sort_by(f64::total_cmp);
        let median_s = times[times.len() / 2];
        let record = Record {
            group: self.name.clone(),
            id: id.to_string(),
            samples,
            median_s,
            min_s: times[0],
            elements: self.elements,
            telemetry_delta,
        };
        eprintln!(
            "{}/{}: median {} (min {})",
            record.group,
            record.id,
            crate::fmt_secs(record.median_s),
            crate::fmt_secs(record.min_s)
        );
        self.harness.records.push(record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_filters() {
        let mut h = Harness {
            name: "t".into(),
            filter: Some("keep".into()),
            quick: true,
            records: Vec::new(),
        };
        {
            let mut g = h.group("g");
            g.sample_size(2);
            g.bench("keep_me", || 1 + 1);
            g.bench("drop_me", || panic!("filtered out, never run"));
        }
        assert_eq!(h.records.len(), 1);
        assert_eq!(h.records[0].id, "keep_me");
        assert!(h.records[0].median_s >= 0.0);
        assert!(h.records[0].min_s <= h.records[0].median_s);
    }

    #[test]
    fn setup_is_not_timed_but_runs_per_sample() {
        let mut h = Harness {
            name: "t".into(),
            filter: None,
            quick: false,
            records: Vec::new(),
        };
        let mut setups = 0usize;
        {
            let mut g = h.group("g");
            g.sample_size(4);
            g.bench_with_setup(
                "case",
                || {
                    setups += 1;
                },
                |()| (),
            );
        }
        // One warmup + four timed samples.
        assert_eq!(setups, 5);
        assert_eq!(h.records[0].samples, 4);
    }
}
