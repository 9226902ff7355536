//! Perf gate: perfbench reports against a committed, keyed baseline.
//!
//! perfbench prints, per run, a `{"report": …}` line (every metric keyed
//! by workload, with its own `unit` and `better`) and then a
//! `{"correct", "attempted", "failed", …}` line. [`gate`] gives every
//! metric of the current runs exactly one [`Verdict`] against the
//! baseline runs of an equal comparison key (`report.key` plus `seed`,
//! `seconds`, `trace`). Direction and unit come only from the metric's
//! own `better` and `unit`; `BENCHMARK.json` ([`Policy`]) names the gated
//! `end_to_end` metrics and their bounds, and the band is
//! `median ± max(6·MAD, bound·|median|)` over the baseline values.
//! Everything else is [`Verdict::Info`]. See DESIGN.md §9 and `sgtool gate`.

use sg_json::{json, Value};

/// Band half-width in MADs (median absolute deviations).
const MAD_K: f64 = 6.0;

fn str_field<'a>(v: &'a Value, key: &str) -> Result<&'a str, String> {
    v.get(key)
        .and_then(Value::as_str)
        .ok_or(format!("no string {key:?}"))
}

/// One metric of a report, or an `end_to_end` entry of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    name: String,
    /// NaN when absent or `null`.
    value: f64,
    unit: String,
    /// `"higher"` or `"lower"`.
    better: String,
}

impl Metric {
    fn parse(v: &Value) -> Result<Metric, String> {
        let name = str_field(v, "name")?;
        let bad = |what: &str| format!("metric {name:?}: {what}");
        let value = match v.get("value") {
            None | Some(Value::Null) => f64::NAN,
            Some(x) => x.as_f64().ok_or(bad("non-numeric \"value\""))?,
        };
        let better = str_field(v, "better").map_err(|e| bad(&e))?;
        if better != "higher" && better != "lower" {
            return Err(bad(&format!("\"better\" is {better:?}")));
        }
        Ok(Metric {
            name: name.to_string(),
            value,
            unit: str_field(v, "unit").map_err(|e| bad(&e))?.to_string(),
            better: better.to_string(),
        })
    }
}

/// One perfbench run: its workload, comparison key, metrics, and whether
/// its result line said `correct: true` and `failed: 0`.
#[derive(Debug, Clone)]
pub struct Run {
    workload: String,
    key: Value,
    metrics: Vec<Metric>,
    correct: bool,
}

impl Run {
    fn parse(report: &Value, result: &Value) -> Result<Run, String> {
        let mut key = report
            .get("key")
            .filter(|k| k.as_object().is_some())
            .ok_or("report has no \"key\" object")?
            .clone();
        let workload = str_field(&key, "workload")?.to_string();
        for field in ["seed", "seconds", "trace"] {
            let v = report
                .get(field)
                .ok_or(format!("report has no {field:?}"))?;
            key.set(field, v.clone());
        }
        let metrics = report
            .get("metrics")
            .and_then(Value::as_array)
            .ok_or("report has no \"metrics\" array")?;
        let correct = result.get("correct").and_then(Value::as_bool);
        let failed = result.get("failed").and_then(Value::as_f64);
        let (Some(correct), Some(failed)) = (correct, failed) else {
            return Err("result line needs a boolean \"correct\" and a numeric \"failed\"".into());
        };
        Ok(Run {
            workload,
            key,
            metrics: metrics
                .iter()
                .map(Metric::parse)
                .collect::<Result<_, _>>()?,
            correct: correct && failed == 0.0,
        })
    }
}

/// Parse perfbench stdout: every `{"report": …}` line with the result line
/// after it. Lines not starting with `{` (build output) are skipped;
/// invalid JSON and an unpaired report or result line are errors.
pub fn parse_runs(text: &str) -> Result<Vec<Run>, String> {
    let mut runs = Vec::new();
    let mut pending: Option<(usize, Value)> = None;
    for (n, line) in (1..).zip(text.lines().map(str::trim)) {
        if !line.starts_with('{') {
            continue;
        }
        let doc = sg_json::parse(line).map_err(|e| format!("line {n}: {e}"))?;
        if let Some(report) = doc.get("report") {
            if let Some((at, _)) = pending.replace((n, report.clone())) {
                return Err(format!("line {at}: report has no result line"));
            }
        } else if doc.get("correct").is_some() {
            let (at, report) = pending
                .take()
                .ok_or(format!("line {n}: result line without a report line"))?;
            runs.push(Run::parse(&report, &doc).map_err(|e| format!("line {at}: {e}"))?);
        }
    }
    match pending {
        Some((at, _)) => Err(format!("line {at}: report has no result line")),
        None => Ok(runs),
    }
}

/// What `BENCHMARK.json` gates: its workloads, and its `end_to_end`
/// metrics (name, unit, better) with their relative bounds.
#[derive(Debug, Clone)]
pub struct Policy {
    workloads: Vec<String>,
    end_to_end: Vec<(Metric, f64)>,
}

impl Policy {
    /// Parse `BENCHMARK.json`.
    pub fn parse(text: &str) -> Result<Policy, String> {
        let doc = sg_json::parse(text).map_err(|e| e.to_string())?;
        let list = |key: &str| {
            doc.get(key)
                .and_then(Value::as_array)
                .ok_or(format!("no {key:?} array"))
        };
        let workloads = list("workloads")?
            .iter()
            .map(|w| str_field(w, "name").map(str::to_string));
        let end_to_end = list("end_to_end")?.iter().map(|m| {
            let bound = m.get("bound").and_then(Value::as_f64);
            Ok((
                Metric::parse(m)?,
                bound.ok_or("end_to_end entry without a numeric \"bound\"")?,
            ))
        });
        Ok(Policy {
            workloads: workloads.collect::<Result<_, _>>()?,
            end_to_end: end_to_end.collect::<Result<_, String>>()?,
        })
    }
}

/// The verdict on one metric.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Inside the band, or better than it.
    Ok,
    /// Outside the band on the side `better` says is worse.
    Regressed {
        /// How many times worse than the baseline median.
        factor: f64,
    },
    /// Not gated (per-layer metric, or a workload `BENCHMARK.json` does
    /// not list); reported with its delta.
    Info,
    /// No baseline for this machine class, or no entry with an equal key.
    NoBaseline,
    /// `BENCHMARK.json` or a matching baseline entry states another unit.
    UnitMismatch {
        /// That unit.
        expected: String,
    },
    /// `BENCHMARK.json` or a matching baseline entry states another `better`.
    DirectionMismatch {
        /// That direction.
        expected: String,
    },
    /// The run's result line said `correct: false` or `failed > 0`.
    IncorrectRun,
}

impl Verdict {
    /// Stable name (report JSON).
    pub fn name(&self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed { .. } => "regressed",
            Verdict::Info => "info",
            Verdict::NoBaseline => "no_baseline",
            Verdict::UnitMismatch { .. } => "unit_mismatch",
            Verdict::DirectionMismatch { .. } => "direction_mismatch",
            Verdict::IncorrectRun => "incorrect_run",
        }
    }

    /// The comparison itself is invalid (`sgtool gate` exits 3).
    pub fn is_mismatch(&self) -> bool {
        matches!(
            self,
            Verdict::UnitMismatch { .. } | Verdict::DirectionMismatch { .. }
        )
    }

    /// The gate fails on this verdict (`sgtool gate` exits 1).
    pub fn fails(&self) -> bool {
        matches!(self, Verdict::Regressed { .. } | Verdict::IncorrectRun)
    }
}

/// One current metric's verdict, with the count and median of the
/// baseline values of an equal key and the band half-width applied
/// (zeros when there are none, or the metric is not gated).
#[derive(Debug, Clone)]
pub struct MetricGate {
    workload: String,
    metric: Metric,
    /// The verdict.
    pub verdict: Verdict,
    n: usize,
    median: f64,
    band: f64,
}

impl MetricGate {
    /// One-line diagnosis, e.g. `REGRESSION compress/pts_per_s: 1.0541e6
    /// points/s vs median 1.0606e7 (10.1x worse, better=higher, band
    /// ±2.65e6, n=6)`.
    pub fn diagnosis(&self) -> String {
        let (m, n) = (&self.metric, self.n);
        let vs = format!("vs median {:.4e} (", self.median);
        let band = format!("better={}, band ±{:.2e}, n={n})", m.better, self.band);
        let (tag, detail) = match &self.verdict {
            Verdict::Ok => ("ok", format!("{vs}{band}")),
            Verdict::Regressed { factor } => {
                ("REGRESSION", format!("{vs}{factor:.1}x worse, {band}"))
            }
            Verdict::Info => {
                let delta = 100.0 * (m.value - self.median) / self.median.abs();
                ("info", format!("{vs}{delta:+.1}%, n={n})"))
            }
            Verdict::NoBaseline => ("no_baseline", "no baseline entry with an equal key".into()),
            Verdict::UnitMismatch { expected } => {
                ("UNIT_MISMATCH", format!("expected unit {expected:?}"))
            }
            Verdict::DirectionMismatch { expected } => (
                "DIRECTION_MISMATCH",
                format!("better={}, expected {expected}", m.better),
            ),
            Verdict::IncorrectRun => (
                "INCORRECT_RUN",
                "the run reported correct=false or failed>0".into(),
            ),
        };
        format!(
            "{tag:<10} {}/{}: {:.4e} {} {detail}",
            self.workload, m.name, m.value, m.unit
        )
    }

    /// Machine-readable verdict, mirroring [`MetricGate::diagnosis`].
    pub fn to_json(&self) -> Value {
        let m = &self.metric;
        let mut v = json!({
            "workload": self.workload.clone(), "metric": m.name.clone(),
            "verdict": self.verdict.name(), "value": m.value, "unit": m.unit.clone(),
            "better": m.better.clone(), "n": self.n, "median": self.median,
            "band": self.band,
        });
        if let Verdict::Regressed { factor } = self.verdict {
            v.set("factor", Value::from(factor));
        }
        v
    }
}

/// Median + MAD of a non-empty sample set (the median of an even count
/// is the mean of the middle pair).
fn robust_stats(samples: &[f64]) -> (f64, f64) {
    let median = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        (v[(v.len() - 1) / 2] + v[v.len() / 2]) / 2.0
    };
    let med = median(samples.to_vec());
    (
        med,
        median(samples.iter().map(|&x| (x - med).abs()).collect()),
    )
}

/// Give every metric of every `current` run its verdict against the
/// `baseline` runs.
pub fn gate(policy: &Policy, baseline: &[Run], current: &[Run]) -> Vec<MetricGate> {
    let mut gates = Vec::new();
    for run in current {
        let listed = policy.workloads.contains(&run.workload);
        for m in &run.metrics {
            let declared = policy
                .end_to_end
                .iter()
                .find(|(e, _)| listed && e.name == m.name);
            let matches: Vec<&Metric> = baseline
                .iter()
                .filter(|b| b.correct && b.key == run.key)
                .flat_map(|b| b.metrics.iter().filter(|bm| bm.name == m.name))
                .collect();
            // What the metric must agree with on unit and direction.
            let mut refs = matches.clone();
            refs.extend(declared.map(|(e, _)| e));
            let values: Vec<f64> = matches.iter().map(|b| b.value).collect();
            let (median, mad) = if values.is_empty() {
                (0.0, 0.0)
            } else {
                robust_stats(&values)
            };
            let band = declared.map_or(0.0, |(_, bound)| (MAD_K * mad).max(bound * median.abs()));
            // Written so that a NaN value fails rather than passes.
            let (within, factor) = match m.better.as_str() {
                "lower" => (m.value <= median + band, m.value / median),
                _ => (m.value >= median - band, median / m.value),
            };
            let verdict = if !run.correct {
                Verdict::IncorrectRun
            } else if let Some(r) = refs.iter().find(|r| r.unit != m.unit) {
                Verdict::UnitMismatch {
                    expected: r.unit.clone(),
                }
            } else if let Some(r) = refs.iter().find(|r| r.better != m.better) {
                Verdict::DirectionMismatch {
                    expected: r.better.clone(),
                }
            } else if values.is_empty() {
                Verdict::NoBaseline
            } else if declared.is_none() {
                Verdict::Info
            } else if within {
                Verdict::Ok
            } else {
                // A NaN factor (NaN value) reads as infinitely worse.
                Verdict::Regressed {
                    factor: f64::INFINITY.min(factor),
                }
            };
            gates.push(MetricGate {
                workload: run.workload.clone(),
                metric: m.clone(),
                verdict,
                n: values.len(),
                median,
                band,
            });
        }
    }
    gates
}

/// This host's machine class: a slug of `arch` and `machine` from
/// [`sg_telemetry::provenance`], e.g. `x86-64-intel-r-xeon-r-processor`.
pub fn machine_class() -> String {
    let p = sg_telemetry::provenance(&[]);
    let field = |k: &str| {
        p.get(k)
            .and_then(Value::as_str)
            .unwrap_or("unknown")
            .to_ascii_lowercase()
    };
    let text = format!("{} {}", field("arch"), field("machine"));
    let words: Vec<&str> = text
        .split(|c: char| !c.is_ascii_alphanumeric())
        .filter(|w| !w.is_empty())
        .collect();
    words.join("-")
}

/// The committed baseline for `class`, relative to the repository root.
pub fn baseline_path(class: &str) -> String {
    format!("crates/bench/baseline/{class}.jsonl")
}

#[cfg(test)]
mod tests {
    use super::*;

    const POLICY: &str = r#"{
        "workloads": [{"name": "compress"}, {"name": "evaluate"}, {"name": "serve_bulk"}],
        "end_to_end": [
            {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
            {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.15},
            {"name": "pts_per_s", "unit": "points/s", "better": "higher", "bound": 0.25}
        ]
    }"#;

    /// The key fields and outcome of one synthetic perfbench run.
    #[derive(Clone, Copy)]
    struct Shape {
        workload: &'static str,
        threads: u64,
        seconds: f64,
        kernel: &'static str,
        trace: bool,
        correct: bool,
    }

    const COMPRESS: Shape = Shape {
        workload: "compress",
        threads: 2,
        seconds: 1.0,
        kernel: "avx2",
        trace: false,
        correct: true,
    };

    /// The two lines perfbench prints for one run.
    fn lines(s: Shape, metrics: &[(&str, f64, &str, &str)]) -> String {
        let key = json!({"d": 10u64, "level": 7u64, "workload": s.workload, "kernel": s.kernel,
                         "threads": s.threads, "telemetry": true});
        let metrics: Vec<Value> = metrics
            .iter()
            .map(|&(name, value, unit, better)| {
                let mut m = json!({"name": name, "value": value, "unit": unit,
                                   "better": better, "samples": 3u64});
                m.set("key", key.clone());
                m
            })
            .collect();
        let mut report = json!({"seed": 1u64, "seconds": s.seconds, "trace": s.trace});
        report.set("key", key);
        report.set("metrics", Value::Array(metrics));
        let result =
            json!({"correct": s.correct, "attempted": 10u64, "failed": u64::from(!s.correct)});
        format!("{}\n{result}\n", json!({"report": report}))
    }

    fn compress(setup_s: f64, pts_per_s: f64) -> String {
        lines(
            COMPRESS,
            &[
                ("setup_s", setup_s, "s", "lower"),
                ("peak_rss_mb", 24.0, "MiB", "lower"),
                ("pts_per_s", pts_per_s, "points/s", "higher"),
            ],
        )
    }

    const TRACED: Shape = Shape {
        trace: true,
        ..COMPRESS
    };

    const SERVE: Shape = Shape {
        workload: "serve",
        ..COMPRESS
    };

    fn layer(ns: f64) -> String {
        lines(TRACED, &[("core.hier_ns_per_update", ns, "ns", "lower")])
    }

    fn serve(pts_per_s: f64) -> String {
        lines(SERVE, &[("pts_per_s", pts_per_s, "points/s", "higher")])
    }

    /// Five clean compress runs with a little noise, plus two traced
    /// compress runs and two runs of the ungated `serve` workload.
    fn baseline() -> Vec<Run> {
        let mut text: String = [0.30, 0.32, 0.29, 0.31, 0.30]
            .iter()
            .zip([10.9e6, 10.6e6, 11.0e6, 10.8e6, 11.2e6])
            .map(|(&s, p)| compress(s, p))
            .collect();
        text += &(layer(9.0) + &layer(9.5) + &serve(1.0e5) + &serve(1.1e5));
        parse_runs(&text).unwrap()
    }

    fn gates(current: &str) -> Vec<MetricGate> {
        let policy = Policy::parse(POLICY).unwrap();
        gate(&policy, &baseline(), &parse_runs(current).unwrap())
    }

    fn gate_of(current: &str, metric: &str) -> MetricGate {
        gates(current)
            .into_iter()
            .find(|g| g.metric.name == metric)
            .unwrap()
    }

    #[test]
    fn verdict_table() {
        let clean = compress(0.30, 10.9e6);
        let keyed = |s: Shape| lines(s, &[("pts_per_s", 1.0e3, "points/s", "higher")]);
        let regressed = |f: f64| Verdict::Regressed { factor: f };
        // (case, current run, metric, expected verdict); a regression
        // matches when its factor is within 10% of the expected one.
        let table = [
            ("clean run", clean.clone(), "pts_per_s", Verdict::Ok),
            ("clean run", clean.clone(), "setup_s", Verdict::Ok),
            (
                "pts_per_s / 10",
                compress(0.30, 1.09e6),
                "pts_per_s",
                regressed(10.0),
            ),
            // Direction comes from `better`, not from the name.
            (
                "pts_per_s x 10",
                compress(0.30, 109.0e6),
                "pts_per_s",
                Verdict::Ok,
            ),
            (
                "setup_s x 10",
                compress(3.0, 10.9e6),
                "setup_s",
                regressed(10.0),
            ),
            (
                "threads differ",
                keyed(Shape {
                    threads: 8,
                    ..COMPRESS
                }),
                "pts_per_s",
                Verdict::NoBaseline,
            ),
            (
                "seconds differ",
                keyed(Shape {
                    seconds: 10.0,
                    ..COMPRESS
                }),
                "pts_per_s",
                Verdict::NoBaseline,
            ),
            (
                "kernel differs",
                keyed(Shape {
                    kernel: "scalar",
                    ..COMPRESS
                }),
                "pts_per_s",
                Verdict::NoBaseline,
            ),
            (
                "unit s -> ms",
                clean.replace(r#""unit":"s""#, r#""unit":"ms""#),
                "setup_s",
                Verdict::UnitMismatch {
                    expected: "s".into(),
                },
            ),
            // BENCHMARK.json is checked even where no baseline key matches.
            (
                "unit s -> ms, no baseline",
                lines(
                    Shape {
                        threads: 8,
                        ..COMPRESS
                    },
                    &[("setup_s", 0.3, "ms", "lower")],
                ),
                "setup_s",
                Verdict::UnitMismatch {
                    expected: "s".into(),
                },
            ),
            (
                "better flipped, no baseline",
                keyed(Shape {
                    threads: 8,
                    ..COMPRESS
                })
                .replace("higher", "lower"),
                "pts_per_s",
                Verdict::DirectionMismatch {
                    expected: "higher".into(),
                },
            ),
            (
                "better flipped",
                clean.replace(r#""better":"higher""#, r#""better":"lower""#),
                "pts_per_s",
                Verdict::DirectionMismatch {
                    expected: "higher".into(),
                },
            ),
            (
                "correct: false",
                lines(
                    Shape {
                        correct: false,
                        ..COMPRESS
                    },
                    &[("pts_per_s", 10.9e6, "points/s", "higher")],
                ),
                "pts_per_s",
                Verdict::IncorrectRun,
            ),
            // Ten times worse, and still only information.
            (
                "per-layer metric",
                layer(92.5),
                "core.hier_ns_per_update",
                Verdict::Info,
            ),
            (
                "ungated workload",
                serve(1.05e4),
                "pts_per_s",
                Verdict::Info,
            ),
        ];
        for (case, current, metric, want) in &table {
            let g = gate_of(current, metric);
            let hit = match (&g.verdict, want) {
                (Verdict::Regressed { factor }, Verdict::Regressed { factor: f }) => {
                    (factor - f).abs() < 0.1 * f
                }
                (got, want) => got == want,
            };
            assert!(hit, "{case}: {metric} got {:?}, want {want:?}", g.verdict);
            // Only entries of an equal key are ever compared.
            let compared = matches!(
                g.verdict,
                Verdict::Ok | Verdict::Regressed { .. } | Verdict::Info
            );
            assert!(g.n > 0 || !compared, "{case}: compared with nothing");
            assert!(
                g.n == 0 || g.verdict != Verdict::NoBaseline,
                "{case}: n={}",
                g.n
            );
        }
        // Every metric of the run gets exactly one verdict, in report order.
        let names: Vec<String> = gates(&clean).into_iter().map(|g| g.metric.name).collect();
        assert_eq!(names, ["setup_s", "peak_rss_mb", "pts_per_s"]);
    }

    #[test]
    fn clean_history_passes() {
        for (s, p) in [(0.31, 10.7e6), (0.29, 11.1e6), (0.33, 10.2e6)] {
            for g in gates(&compress(s, p)) {
                assert_eq!(g.verdict, Verdict::Ok, "{}", g.diagnosis());
                assert_eq!(g.n, 5);
            }
        }
    }

    #[test]
    fn short_history_passes_without_gating() {
        // Histories with no usable run of an equal key: empty, only other
        // keys (threads, traced), or only a run that failed its checks.
        let other = lines(
            Shape {
                threads: 8,
                ..COMPRESS
            },
            &[("pts_per_s", 1.0e9, "points/s", "higher")],
        );
        let broken = lines(
            Shape {
                correct: false,
                ..COMPRESS
            },
            &[("pts_per_s", 1.0e9, "points/s", "higher")],
        );
        let policy = Policy::parse(POLICY).unwrap();
        let current = parse_runs(&compress(0.30, 1.0e3)).unwrap();
        for history in [String::new(), other + &layer(9.0), broken] {
            let base = parse_runs(&history).unwrap();
            for g in gate(&policy, &base, &current) {
                assert_eq!(g.verdict, Verdict::NoBaseline, "{}", g.diagnosis());
                assert!(!g.verdict.fails() && g.n == 0 && g.band == 0.0);
            }
        }
    }

    #[test]
    fn speedup_metrics_gate_on_the_lower_side() {
        // A higher-is-better ratio fails only below its band, and a
        // lower-is-better metric fails only above it, whatever the names
        // say: "speedup" in a name no longer picks the direction.
        let policy = Policy::parse(
            r#"{"workloads": [{"name": "compress"}], "end_to_end": [
                {"name": "speedup", "unit": "x", "better": "higher", "bound": 0.1},
                {"name": "speedup_wall_s", "unit": "s", "better": "lower", "bound": 0.1}]}"#,
        )
        .unwrap();
        let run = |x: f64, s: f64| {
            lines(
                COMPRESS,
                &[
                    ("speedup", x, "x", "higher"),
                    ("speedup_wall_s", s, "s", "lower"),
                ],
            )
        };
        let base = parse_runs(&run(4.0, 1.0).repeat(3)).unwrap();
        let verdicts = |x: f64, s: f64| -> Vec<Verdict> {
            gate(&policy, &base, &parse_runs(&run(x, s)).unwrap())
                .into_iter()
                .map(|g| g.verdict)
                .collect()
        };
        assert_eq!(verdicts(8.0, 0.5), [Verdict::Ok, Verdict::Ok]);
        let slower = verdicts(2.0, 2.0);
        assert!(
            slower
                .iter()
                .all(|v| matches!(v, Verdict::Regressed { factor } if (factor - 2.0).abs() < 1e-9)),
            "{slower:?}"
        );
    }

    #[test]
    fn ten_x_regression_is_caught() {
        let g = gate_of(&compress(0.30, 1.09e6), "pts_per_s");
        match g.verdict {
            Verdict::Regressed { factor } => {
                assert!(factor > 9.0 && factor < 11.0, "factor {factor}")
            }
            ref other => panic!("expected regression, got {other:?}"),
        }
        assert!(
            g.diagnosis().starts_with("REGRESSION compress/pts_per_s:"),
            "{}",
            g.diagnosis()
        );
        assert!(g.verdict.fails() && !g.verdict.is_mismatch());
    }

    #[test]
    fn zero_mad_history_uses_relative_floor() {
        // Identical baseline values (MAD = 0): the BENCHMARK.json bound
        // (0.25 for pts_per_s) sets the band, so -20% passes...
        let policy = Policy::parse(POLICY).unwrap();
        let base = parse_runs(&compress(0.3, 1.0e7).repeat(5)).unwrap();
        let gated = |p: f64| {
            gate(&policy, &base, &parse_runs(&compress(0.3, p)).unwrap())
                .into_iter()
                .find(|g| g.metric.name == "pts_per_s")
                .unwrap()
        };
        let g = gated(0.8e7);
        assert_eq!(g.verdict, Verdict::Ok);
        assert_eq!(g.band, 0.25e7);
        // ...and -30% does not.
        assert!(matches!(gated(0.7e7).verdict, Verdict::Regressed { .. }));
    }

    #[test]
    fn single_outlier_in_history_does_not_poison_the_band() {
        // One glitched baseline run: the median/MAD fit shrugs it off,
        // where a mean/stddev fit would have widened the band past a 2x
        // slowdown.
        let policy = Policy::parse(POLICY).unwrap();
        let text: String = [0.30, 0.31, 30.0, 0.29, 0.30]
            .iter()
            .map(|&s| compress(s, 1.0e7))
            .collect();
        let base = parse_runs(&text).unwrap();
        let g = gate(&policy, &base, &parse_runs(&compress(0.6, 1.0e7)).unwrap())
            .into_iter()
            .find(|g| g.metric.name == "setup_s")
            .unwrap();
        assert!((g.median - 0.30).abs() < 1e-12);
        assert!(matches!(g.verdict, Verdict::Regressed { factor } if (factor - 2.0).abs() < 1e-9));
    }

    #[test]
    fn malformed_lines_error_rather_than_panic() {
        let good = compress(0.3, 1.0e7);
        let (report, result) = good.split_once('\n').unwrap();
        for bad in [
            format!("{}\n", &report[..report.len() / 2]),
            format!("{report}\n"),
            result.to_string(),
            format!("{report}\n{report}\n{result}"),
            "{\"report\": {tru".to_string(),
            "{\"report\": {}}\n{\"correct\": true, \"failed\": 0}".to_string(),
            good.replace(r#""better":"higher""#, r#""better":"up""#),
            good.replace(r#""value":24"#, r#""value":"24""#),
            good.replace(r#""correct":true"#, r#""correct":1"#),
        ] {
            assert!(parse_runs(&bad).is_err(), "accepted {bad:?}");
        }
        // Build noise and other lines around the pair are skipped.
        let noisy = format!("   Compiling sg-core\n\n{good}Finished\n");
        assert_eq!(parse_runs(&noisy).unwrap().len(), 1);
        assert!(Policy::parse("{\"workloads\": []}").is_err());
        assert!(Policy::parse("not json").is_err());
    }

    #[test]
    fn report_json_is_schema_stable() {
        let v = gate_of(&compress(0.30, 1.09e6), "pts_per_s").to_json();
        assert_eq!(v["workload"], "compress");
        assert_eq!(v["metric"], "pts_per_s");
        assert_eq!(v["verdict"], "regressed");
        assert_eq!(v["unit"], "points/s");
        assert_eq!(v["better"], "higher");
        assert_eq!(v["n"], 5u64);
        assert!(v["factor"].as_f64().unwrap() > 9.0);
        let reparsed = sg_json::parse(&v.to_string()).unwrap();
        assert_eq!(reparsed, v);
    }

    #[test]
    fn machine_class_is_a_slug() {
        let class = machine_class();
        assert!(!class.is_empty());
        assert!(class
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-'));
        assert!(!class.starts_with('-') && !class.ends_with('-') && !class.contains("--"));
        assert_eq!(baseline_path("x"), "crates/bench/baseline/x.jsonl");
    }
}
