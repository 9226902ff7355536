//! Shared pieces: the seeded generator, order statistics, host probes,
//! the in-memory span recorder and the metric record every workload fills.

use std::time::{Duration, Instant};

/// SplitMix64: the benchmark's only source of randomness, so a seed fixes
/// every input.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// `n` uniform query coordinates in `[0, 1)`.
    pub fn points(&mut self, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.unit()).collect()
    }
}

/// Model rank drawn from a Zipf law with exponent `s` over `n` ranks.
pub fn zipf(rng: &mut Rng, n: usize, s: f64) -> usize {
    let weights: Vec<f64> = (1..=n).map(|r| 1.0 / (r as f64).powf(s)).collect();
    let mut u = rng.unit() * weights.iter().sum::<f64>();
    for (rank, w) in weights.iter().enumerate() {
        if u < *w {
            return rank;
        }
        u -= w;
    }
    n - 1
}

/// Bitwise equality of two result vectors.
pub fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Nearest-rank quantile of an unsorted sample (`q` in `[0, 1]`).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The highest of p99.9 / p99 / p90 with at least ten samples beyond it,
/// as `(label, value)`; `None` below 100 samples.
pub fn supported_tail(samples: &[f64]) -> Option<(&'static str, f64)> {
    [("p99.9", 0.999), ("p99", 0.99), ("p90", 0.9)]
        .into_iter()
        .find(|(_, q)| (1.0 - q) * samples.len() as f64 >= 10.0 - 1e-9)
        .map(|(label, q)| (label, quantile(samples, q)))
}

/// Aggregate CPU counters from `/proc/stat`: `(steal, total)` jiffies.
fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]:
    // guest time is already inside user/nice.
    let total: u64 = fields.iter().take(8).sum();
    Some((fields.get(7).copied().unwrap_or(0), total))
}

/// CPU steal over an interval, from `/proc/stat` deltas.
pub struct StealMeter(Option<(u64, u64)>);

impl StealMeter {
    pub fn start() -> StealMeter {
        StealMeter(cpu_jiffies())
    }

    /// Percent of all CPU time stolen by the hypervisor since `start`
    /// (0 where `/proc/stat` is unavailable).
    pub fn pct(&self) -> f64 {
        match (self.0, cpu_jiffies()) {
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
                100.0 * (s1 - s0) as f64 / (t1 - t0) as f64
            }
            _ => 0.0,
        }
    }
}

/// `VmHWM` (peak resident set) of a process, in MiB.
pub fn peak_rss_mib(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Busy-wait until `due`; returns how late the caller got there, in
/// seconds.
pub fn spin_until(due: Instant) -> f64 {
    let mut now = Instant::now();
    while now < due {
        std::hint::spin_loop();
        now = Instant::now();
    }
    now.duration_since(due).as_secs_f64()
}

/// Host-noise calibration: a loop that does nothing on the given
/// schedule, paced like the open-loop generator. Its lateness p99 (ms) is what the host alone adds to an
/// open-loop generator, so a noisy run can be told from a slow program.
pub fn idle_loop_late_p99_ms(rate_per_s: f64, length: Duration) -> f64 {
    let n = (rate_per_s * length.as_secs_f64()) as usize;
    let start = Instant::now();
    let late: Vec<f64> = (0..n)
        .map(|i| spin_until(start + Duration::from_secs_f64(i as f64 / rate_per_s)) * 1e3)
        .collect();
    quantile(&late, 0.99)
}

/// Whether telemetry instruments are compiled into the measured library
/// code: a `hierarchize` call either feeds `sg_telemetry::snapshot()` or
/// it does not.
pub fn telemetry_compiled_in() -> bool {
    use sg_core::{grid::CompactGrid, level::GridSpec};
    let before = sg_telemetry::snapshot();
    let mut g = CompactGrid::<f64>::from_fn(GridSpec::new(2, 3), |x| x[0] + x[1]);
    sg_core::hierarchize::hierarchize(&mut g);
    let delta = sg_telemetry::snapshot_delta(&before);
    delta
        .counters_with_prefix("core.hierarchize")
        .iter()
        .any(|(_, v)| *v > 0)
        || delta
            .hists
            .iter()
            .any(|h| h.name.starts_with("core.hierarchize"))
}

/// One recorded interval. Spans live in memory until the run ends.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in [`Tracer::spans`].
    pub parent: Option<usize>,
    /// The operation (compress op, batch, request, probe) it belongs to.
    pub op: u64,
}

/// Span recorder for the traced run, placed by the benchmark around its
/// calls into each layer. Disabled, it only runs the closure.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::with_capacity(if enabled { 1 << 16 } else { 0 }),
        }
    }

    /// Open a span; close it with [`Tracer::close`]. Returns its index.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, op: u64) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            op,
        });
        Some(self.spans.len() - 1)
    }

    pub fn close(&mut self, span: Option<usize>) {
        if let Some(s) = span {
            self.spans[s].end_ns = self.epoch.elapsed().as_nanos() as u64;
        }
    }

    /// Record an interval timed elsewhere (another thread, a probe).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        op: u64,
    ) {
        if self.enabled {
            let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
            self.spans.push(Span {
                name,
                start_ns: ns(start),
                end_ns: ns(end),
                parent,
                op,
            });
        }
    }

    /// Run `f` inside a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let s = self.open(name, parent, op);
        let r = f();
        self.close(s);
        r
    }

    /// Self time of span `i`: its duration minus the part its children
    /// cover (children of one span never overlap here: each workload
    /// calls its layers one after another).
    pub fn self_ns(&self, i: usize) -> u64 {
        let s = &self.spans[i];
        let children: u64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(i))
            .map(|c| c.end_ns - c.start_ns)
            .sum();
        (s.end_ns - s.start_ns).saturating_sub(children)
    }

    pub fn to_json(&self) -> sg_json::Value {
        sg_json::Value::Array(
            self.spans
                .iter()
                .map(|s| {
                    let mut v = sg_json::json!({
                        "name": s.name,
                        "start_ns": s.start_ns,
                        "end_ns": s.end_ns,
                        "op": s.op,
                    });
                    v.set(
                        "parent",
                        s.parent
                            .map_or(sg_json::Value::Null, |p| sg_json::json!(p as u64)),
                    );
                    v
                })
                .collect(),
        )
    }
}

/// Which way a metric improves. Stated per metric, never inferred from
/// its name.
#[derive(Clone, Copy)]
pub enum Better {
    Higher,
    Lower,
}

/// One reported number with its unit, direction and sample count.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub better: Better,
    pub samples: usize,
}

impl Metric {
    pub fn new(
        name: &'static str,
        value: f64,
        unit: &'static str,
        better: Better,
        samples: usize,
    ) -> Metric {
        Metric {
            name,
            value,
            unit,
            better,
            samples,
        }
    }

    pub fn to_json(&self) -> sg_json::Value {
        sg_json::json!({
            "name": self.name,
            "value": self.value,
            "unit": self.unit,
            "better": match self.better {
                Better::Higher => "higher",
                Better::Lower => "lower",
            },
            "samples": self.samples as u64,
        })
    }
}
