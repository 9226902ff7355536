#![warn(missing_docs)]

//! # sg-telemetry — counters, span timers, histograms, and tracing
//!
//! The paper's claims are quantitative *and distributional*: memory
//! overhead of the `gp2idx` store versus maps and tries (Table 1),
//! hierarchization and evaluation runtime (Figs. 8–10), and multicore
//! scalability flattening exactly where barrier wait and load imbalance
//! grow (Fig. 11). This crate is the measurement substrate those claims
//! are checked against. It provides, all safe to call from any thread:
//!
//! - [`Counter`] — a monotonically increasing `u64` (call counts,
//!   bytes moved, bytes allocated);
//! - [`Span`] — an accumulating timer recording how many times a region
//!   ran and the total nanoseconds spent inside it, via either
//!   [`Span::time`] (closure) or [`Span::start`] (RAII guard);
//! - [`Histogram`] — a log2-bucketed latency/size distribution with
//!   p50/p90/p99/max extraction, for the claims where the *tail* matters
//!   (per-level-group sweep times, batch latencies, `gp2idx` samples);
//! - [`trace`] — per-thread fixed-capacity trace-event ring buffers
//!   (lock-free on the record path) exported as Chrome Trace Event
//!   Format JSON, loadable in `chrome://tracing` / Perfetto;
//! - [`regions`] — per-parallel-region load-imbalance accounting
//!   (per-worker busy vs. barrier-wait breakdown, imbalance ratio);
//! - [`snapshot`] / [`snapshot_delta`] — a consistent-enough read of
//!   every registered instrument into a [`Report`] (optionally as a
//!   delta against a captured baseline, for per-repetition attribution
//!   in the bench harness), convertible to JSON for
//!   `sgtool --metrics-json` and the figure records' `telemetry` section;
//! - [`provenance`] — a run-provenance JSON record (git SHA, UTC
//!   timestamp, thread count, features, host machine model) embedded in
//!   every figure output and metrics report.
//!
//! ## Zero cost when disabled
//!
//! Instruments are declared as `static` items and register themselves in
//! a global registry on first use, so there is no init call and no
//! registration order to get wrong. Crates on the hot path (`sg-core`,
//! `sg-baselines`, `sg-machine`, `sg-par`) do **not** depend on this
//! crate unconditionally: they gate both the statics and every recording
//! call behind their own `telemetry` cargo feature (via a local `tel!`
//! macro), so a default build contains no atomics, no branches, and no
//! `Instant::now()` calls — the hooks are compiled away, not skipped at
//! runtime.
//!
//! ## Naming convention
//!
//! Instrument names are dotted paths, `<crate>.<subsystem>.<what>`, e.g.
//! `core.bijection.gp2idx_calls` or `par.barrier_wait_ns`. Counters whose
//! value is a byte count end in `_bytes`; counters holding accumulated
//! nanoseconds end in `_ns`. The JSON report groups by these names
//! verbatim — see `DESIGN.md` for the schema.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use sg_json::{json, Value};

pub mod provenance;
pub mod regions;
pub mod timeseries;
pub mod trace;

pub use provenance::{provenance, set_kernel_hint, set_threads_hint};

/// Global registry of every instrument that has recorded at least once.
struct Registry {
    counters: Mutex<Vec<&'static Counter>>,
    spans: Mutex<Vec<&'static Span>>,
    hists: Mutex<Vec<&'static Histogram>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: std::sync::OnceLock<Registry> = std::sync::OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        counters: Mutex::new(Vec::new()),
        spans: Mutex::new(Vec::new()),
        hists: Mutex::new(Vec::new()),
    })
}

/// A monotonically increasing event or traffic counter.
///
/// Declare as a `static` and bump with [`Counter::add`]:
///
/// ```
/// static GP2IDX_CALLS: sg_telemetry::Counter =
///     sg_telemetry::Counter::new("core.bijection.gp2idx_calls");
/// GP2IDX_CALLS.add(1);
/// assert!(GP2IDX_CALLS.get() >= 1);
/// ```
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
    registered: AtomicBool,
}

impl Counter {
    /// Create an unregistered counter; it joins the global registry on
    /// the first [`add`](Counter::add).
    pub const fn new(name: &'static str) -> Self {
        Counter {
            name,
            value: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    /// Add `n` to the counter. Relaxed ordering: totals are exact, the
    /// instant at which a concurrent [`snapshot`] observes them is not.
    #[inline]
    pub fn add(&'static self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
        if !self.registered.swap(true, Ordering::Relaxed) {
            registry().counters.lock().unwrap().push(self);
        }
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// The dotted instrument name.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

/// An accumulating timer for a named code region.
///
/// ```
/// static SWEEP: sg_telemetry::Span = sg_telemetry::Span::new("core.hierarchize.sweep");
/// let out = SWEEP.time(|| 2 + 2);
/// assert_eq!(out, 4);
/// ```
pub struct Span {
    name: &'static str,
    count: AtomicU64,
    nanos: AtomicU64,
    registered: AtomicBool,
}

impl Span {
    /// Create an unregistered span; it joins the global registry on the
    /// first recorded interval.
    pub const fn new(name: &'static str) -> Self {
        Span {
            name,
            count: AtomicU64::new(0),
            nanos: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    /// Time one execution of `f`, accumulating into this span.
    #[inline]
    pub fn time<R>(&'static self, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let out = f();
        self.record(t0.elapsed().as_nanos() as u64);
        out
    }

    /// Begin an interval; the returned guard records it when dropped.
    /// Use when the region does not fit a closure (e.g. spans an early
    /// return or a loop iteration boundary).
    #[inline]
    pub fn start(&'static self) -> SpanGuard {
        SpanGuard {
            span: self,
            t0: Instant::now(),
        }
    }

    /// Record an externally measured interval of `ns` nanoseconds.
    #[inline]
    pub fn record(&'static self, ns: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.nanos.fetch_add(ns, Ordering::Relaxed);
        if !self.registered.swap(true, Ordering::Relaxed) {
            registry().spans.lock().unwrap().push(self);
        }
    }

    /// Number of recorded intervals.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Total accumulated nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.nanos.load(Ordering::Relaxed)
    }

    /// The dotted instrument name.
    pub fn name(&self) -> &'static str {
        self.name
    }
}

/// RAII guard from [`Span::start`]; records the interval on drop.
pub struct SpanGuard {
    span: &'static Span,
    t0: Instant,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.span.record(self.t0.elapsed().as_nanos() as u64);
    }
}

/// Number of log2 buckets in a [`Histogram`]: bucket 0 holds the value
/// `0`, bucket `b ≥ 1` holds values in `[2^(b−1), 2^b − 1]`, and the last
/// bucket (64) holds everything from `2^63` up to `u64::MAX`.
pub const HIST_BUCKETS: usize = 65;

/// Bucket index a value falls into (see [`HIST_BUCKETS`]).
#[inline]
pub fn bucket_index(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// Inclusive lower bound of bucket `b`.
#[inline]
pub fn bucket_lower(b: usize) -> u64 {
    match b {
        0 => 0,
        _ => 1u64 << (b - 1),
    }
}

/// Inclusive upper bound of bucket `b`.
#[inline]
pub fn bucket_upper(b: usize) -> u64 {
    match b {
        0 => 0,
        b if b >= 64 => u64::MAX,
        b => (1u64 << b) - 1,
    }
}

/// A log2-bucketed distribution of `u64` samples (latencies in
/// nanoseconds, burst sizes in bytes/lines). Like the other instruments
/// it is a `const`-constructible static that registers itself on first
/// use, and recording is wait-free: one bucket increment plus
/// count/sum/max updates, all relaxed atomics.
///
/// ```
/// static H: sg_telemetry::Histogram = sg_telemetry::Histogram::new("test.doc_hist");
/// H.record(100);
/// assert_eq!(H.count(), 1);
/// ```
pub struct Histogram {
    name: &'static str,
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
    registered: AtomicBool,
}

impl Histogram {
    /// Create an unregistered histogram; it joins the global registry on
    /// the first [`record`](Histogram::record).
    pub const fn new(name: &'static str) -> Self {
        Histogram {
            name,
            buckets: [const { AtomicU64::new(0) }; HIST_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    /// Record one sample. The running sum wraps on overflow (which
    /// takes over 2⁶⁴ accumulated nanoseconds — centuries); bucket
    /// counts and the maximum are exact.
    #[inline]
    pub fn record(&'static self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
        if !self.registered.swap(true, Ordering::Relaxed) {
            registry().hists.lock().unwrap().push(self);
        }
    }

    /// Time one execution of `f`, recording elapsed nanoseconds.
    #[inline]
    pub fn time<R>(&'static self, f: impl FnOnce() -> R) -> R {
        let t0 = Instant::now();
        let out = f();
        self.record(t0.elapsed().as_nanos() as u64);
        out
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// The dotted instrument name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    fn stat(&self) -> HistogramStat {
        HistogramStat {
            name: self.name,
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// One counter's state in a [`Report`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterStat {
    /// Dotted instrument name.
    pub name: &'static str,
    /// Accumulated value.
    pub value: u64,
}

/// One span's state in a [`Report`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanStat {
    /// Dotted instrument name.
    pub name: &'static str,
    /// Number of recorded intervals.
    pub count: u64,
    /// Total accumulated nanoseconds across all intervals.
    pub total_ns: u64,
}

/// One histogram's state in a [`Report`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramStat {
    /// Dotted instrument name.
    pub name: &'static str,
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all samples (wrapping).
    pub sum: u64,
    /// Largest recorded sample.
    pub max: u64,
    /// Per-bucket sample counts ([`HIST_BUCKETS`] entries; see
    /// [`bucket_lower`]/[`bucket_upper`] for the value ranges).
    pub buckets: Vec<u64>,
}

impl HistogramStat {
    /// An empty stat with zeroed buckets — the starting point for
    /// offline accumulation ([`record_sample`](Self::record_sample) /
    /// [`merge`](Self::merge)), e.g. per-worker histograms folded into
    /// one after a parallel region.
    pub fn empty(name: &'static str) -> Self {
        HistogramStat {
            name,
            count: 0,
            sum: 0,
            max: 0,
            buckets: vec![0; HIST_BUCKETS],
        }
    }

    /// Record one sample into this plain-data stat, with exactly the
    /// semantics of the live [`Histogram::record`] (wrapping sum, exact
    /// buckets/max).
    pub fn record_sample(&mut self, value: u64) {
        self.buckets[bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.wrapping_add(value);
        self.max = self.max.max(value);
    }

    /// Fold `other` into `self`: counts, sums (wrapping), and per-bucket
    /// tallies add; `max` takes the larger. Merging N per-worker stats
    /// is exactly equivalent to recording all their samples into one
    /// histogram (pinned by the `merge_props` property test).
    pub fn merge(&mut self, other: &HistogramStat) {
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.max = self.max.max(other.max);
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (b, &n) in other.buckets.iter().enumerate() {
            self.buckets[b] += n;
        }
    }

    /// Approximate `q`-th percentile (`q` in `0..=100`): the upper bound
    /// of the bucket holding the `⌈q·count/100⌉`-th smallest sample,
    /// capped at the recorded maximum (so a single-sample histogram
    /// reports that sample exactly, and p100 is always `max`). Returns 0
    /// for an empty histogram.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 100.0) / 100.0 * self.count as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            cum += n;
            if cum >= target {
                return bucket_upper(b).min(self.max);
            }
        }
        self.max
    }

    /// Mean sample value (0 for an empty histogram).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// A point-in-time copy of every registered instrument, sorted by name.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Report {
    /// All registered counters.
    pub counters: Vec<CounterStat>,
    /// All registered spans.
    pub spans: Vec<SpanStat>,
    /// All registered histograms.
    pub hists: Vec<HistogramStat>,
}

impl Report {
    /// Serialize to the metrics JSON schema used by
    /// `sgtool --metrics-json` and the bench binaries:
    ///
    /// ```json
    /// {
    ///   "counters": { "<name>": <u64>, ... },
    ///   "spans": { "<name>": { "count": <u64>, "total_ns": <u64>,
    ///                          "mean_ns": <f64> }, ... },
    ///   "histograms": { "<name>": { "count": <u64>, "sum": <u64>,
    ///                               "max": <u64>, "mean": <f64>,
    ///                               "p50": <u64>, "p90": <u64>,
    ///                               "p99": <u64>,
    ///                               "buckets": { "<lower_bound>": <u64> } } }
    /// }
    /// ```
    ///
    /// Histogram buckets are keyed by their inclusive lower bound;
    /// empty buckets are omitted. Every map is emitted with its keys in
    /// sorted order — [`snapshot`] already sorts, but hand-assembled and
    /// merged reports must serialize deterministically too, so schema
    /// gates and report diffs are stable across runs.
    pub fn to_json(&self) -> Value {
        let mut sorted_counters: Vec<&CounterStat> = self.counters.iter().collect();
        sorted_counters.sort_by_key(|c| c.name);
        let mut sorted_spans: Vec<&SpanStat> = self.spans.iter().collect();
        sorted_spans.sort_by_key(|s| s.name);
        let mut sorted_hists: Vec<&HistogramStat> = self.hists.iter().collect();
        sorted_hists.sort_by_key(|h| h.name);
        let mut counters = json!({});
        for c in sorted_counters {
            counters[c.name] = Value::from(c.value as f64);
        }
        let mut spans = json!({});
        for s in sorted_spans {
            let mean = if s.count > 0 {
                s.total_ns as f64 / s.count as f64
            } else {
                0.0
            };
            spans[s.name] = json!({
                "count": s.count as f64,
                "total_ns": s.total_ns as f64,
                "mean_ns": mean
            });
        }
        let mut hists = json!({});
        for h in sorted_hists {
            let mut buckets = json!({});
            for (b, &n) in h.buckets.iter().enumerate() {
                if n > 0 {
                    buckets.set(&bucket_lower(b).to_string(), Value::from(n as f64));
                }
            }
            hists[h.name] = json!({
                "count": h.count as f64,
                "sum": h.sum as f64,
                "max": h.max as f64,
                "mean": h.mean(),
                "p50": h.percentile(50.0) as f64,
                "p90": h.percentile(90.0) as f64,
                "p99": h.percentile(99.0) as f64,
                "buckets": buckets
            });
        }
        json!({ "counters": counters, "spans": spans, "histograms": hists })
    }

    /// Look up a counter value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// All counters under a dotted-name prefix (e.g. `"io.snapshot."`),
    /// for subsystem-level assertions and dashboards. Always sorted by
    /// name, even when the report itself was assembled out of order.
    pub fn counters_with_prefix(&self, prefix: &str) -> Vec<(&'static str, u64)> {
        let mut out: Vec<(&'static str, u64)> = self
            .counters
            .iter()
            .filter(|c| c.name.starts_with(prefix))
            .map(|c| (c.name, c.value))
            .collect();
        out.sort_by_key(|&(name, _)| name);
        out
    }

    /// The process-global flight recorder's current contents — schema
    /// plus ring frames; see [`timeseries`]. The recorder only holds
    /// frames if something [`timeseries::TimeSeries::tick`]ed it (e.g. a
    /// running [`timeseries::Sampler`]).
    pub fn timeseries() -> timeseries::TimeSeriesReport {
        timeseries::recorder().report()
    }

    /// Look up a span by name.
    pub fn span(&self, name: &str) -> Option<&SpanStat> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// Look up a histogram by name.
    pub fn hist(&self, name: &str) -> Option<&HistogramStat> {
        self.hists.iter().find(|h| h.name == name)
    }

    /// Subtract `baseline` from `self` per instrument name, producing the
    /// activity that happened *between* the two snapshots. Instruments
    /// absent from the baseline pass through unchanged; instruments whose
    /// delta is entirely zero are dropped, so a report scoped to one bench
    /// repetition only lists what that repetition touched. Subtraction
    /// saturates at zero (a [`reset`] between the snapshots cannot
    /// produce wrap-around garbage). Caveat: a histogram's `max` is a
    /// process-lifetime high-water mark, so the delta keeps `self.max`
    /// rather than inventing a per-interval maximum — percentiles, which
    /// are cap-sensitive only in the top bucket, remain meaningful.
    pub fn delta_since(&self, baseline: &Report) -> Report {
        let counters: Vec<CounterStat> = self
            .counters
            .iter()
            .map(|c| CounterStat {
                name: c.name,
                value: c
                    .value
                    .saturating_sub(baseline.counter(c.name).unwrap_or(0)),
            })
            .filter(|c| c.value != 0)
            .collect();
        let spans: Vec<SpanStat> = self
            .spans
            .iter()
            .map(|s| {
                let base = baseline.span(s.name);
                SpanStat {
                    name: s.name,
                    count: s.count.saturating_sub(base.map_or(0, |b| b.count)),
                    total_ns: s.total_ns.saturating_sub(base.map_or(0, |b| b.total_ns)),
                }
            })
            .filter(|s| s.count != 0 || s.total_ns != 0)
            .collect();
        let hists: Vec<HistogramStat> = self
            .hists
            .iter()
            .map(|h| {
                let base = baseline.hist(h.name);
                let buckets = h
                    .buckets
                    .iter()
                    .enumerate()
                    .map(|(b, &n)| {
                        n.saturating_sub(base.map_or(0, |x| x.buckets.get(b).copied().unwrap_or(0)))
                    })
                    .collect();
                HistogramStat {
                    name: h.name,
                    count: h.count.saturating_sub(base.map_or(0, |x| x.count)),
                    sum: h.sum.saturating_sub(base.map_or(0, |x| x.sum)),
                    max: h.max,
                    buckets,
                }
            })
            .filter(|h| h.count != 0)
            .collect();
        Report {
            counters,
            spans,
            hists,
        }
    }
}

/// Copy every registered instrument into a [`Report`], sorted by name.
/// Values recorded concurrently with the snapshot may or may not be
/// included; totals never go backwards.
pub fn snapshot() -> Report {
    let reg = registry();
    let mut counters: Vec<CounterStat> = reg
        .counters
        .lock()
        .unwrap()
        .iter()
        .map(|c| CounterStat {
            name: c.name,
            value: c.get(),
        })
        .collect();
    counters.sort_by_key(|c| c.name);
    let mut spans: Vec<SpanStat> = reg
        .spans
        .lock()
        .unwrap()
        .iter()
        .map(|s| SpanStat {
            name: s.name,
            count: s.count(),
            total_ns: s.total_ns(),
        })
        .collect();
    spans.sort_by_key(|s| s.name);
    let mut hists: Vec<HistogramStat> =
        reg.hists.lock().unwrap().iter().map(|h| h.stat()).collect();
    hists.sort_by_key(|h| h.name);
    Report {
        counters,
        spans,
        hists,
    }
}

/// [`snapshot`] expressed as a delta against a previously captured
/// baseline — see [`Report::delta_since`]. The bench harness brackets
/// each repetition with this to attribute counters to individual reps
/// instead of whole-process totals.
pub fn snapshot_delta(baseline: &Report) -> Report {
    snapshot().delta_since(baseline)
}

/// Zero every registered instrument (they stay registered) and clear the
/// trace ring buffers and region accounting. Intended for bench binaries
/// that measure several configurations in one process.
pub fn reset() {
    let reg = registry();
    for c in reg.counters.lock().unwrap().iter() {
        c.value.store(0, Ordering::Relaxed);
    }
    for s in reg.spans.lock().unwrap().iter() {
        s.count.store(0, Ordering::Relaxed);
        s.nanos.store(0, Ordering::Relaxed);
    }
    for h in reg.hists.lock().unwrap().iter() {
        for b in h.buckets.iter() {
            b.store(0, Ordering::Relaxed);
        }
        h.count.store(0, Ordering::Relaxed);
        h.sum.store(0, Ordering::Relaxed);
        h.max.store(0, Ordering::Relaxed);
    }
    trace::clear();
    regions::clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    // All tests share one process-global registry, so each test uses its
    // own instruments and asserts only about those.

    #[test]
    fn counter_accumulates_and_registers() {
        static C: Counter = Counter::new("test.counter_accumulates");
        C.add(3);
        C.add(4);
        assert_eq!(C.get(), 7);
        let rep = snapshot();
        assert_eq!(rep.counter("test.counter_accumulates"), Some(7));
    }

    #[test]
    fn span_records_closure_and_guard() {
        static S: Span = Span::new("test.span_records");
        let out = S.time(|| 21 * 2);
        assert_eq!(out, 42);
        {
            let _g = S.start();
            std::hint::black_box(0u64);
        }
        assert_eq!(S.count(), 2);
        let rep = snapshot();
        let stat = rep.span("test.span_records").expect("span registered");
        assert_eq!(stat.count, 2);
        assert_eq!(stat.total_ns, S.total_ns());
    }

    #[test]
    fn counter_is_thread_safe() {
        static C: Counter = Counter::new("test.counter_threads");
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        C.add(1);
                    }
                });
            }
        });
        assert_eq!(C.get(), 8000);
    }

    #[test]
    fn report_json_shape() {
        static C: Counter = Counter::new("test.json_counter");
        static S: Span = Span::new("test.json_span");
        C.add(5);
        S.record(100);
        S.record(300);
        let v = snapshot().to_json();
        assert_eq!(v["counters"]["test.json_counter"], 5u64);
        assert_eq!(v["spans"]["test.json_span"]["count"], 2u64);
        assert_eq!(v["spans"]["test.json_span"]["total_ns"], 400u64);
        assert_eq!(v["spans"]["test.json_span"]["mean_ns"], 200.0);
        // The report must survive a JSON round-trip (it is written to
        // disk by sgtool --metrics-json).
        let reparsed = sg_json::parse(&v.to_string()).unwrap();
        assert_eq!(reparsed["counters"]["test.json_counter"], 5u64);
    }

    #[test]
    fn histogram_bucket_boundaries() {
        // Bucket 0 holds exactly the value 0.
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_lower(0), 0);
        assert_eq!(bucket_upper(0), 0);
        // Bucket b holds [2^(b-1), 2^b - 1].
        for b in 1..=63usize {
            let lo = 1u64 << (b - 1);
            assert_eq!(bucket_index(lo), b, "lower edge of bucket {b}");
            assert_eq!(bucket_index(lo - 1), b - 1, "below bucket {b}");
            assert_eq!(bucket_lower(b), lo);
            if b < 64 {
                let hi = bucket_upper(b);
                assert_eq!(bucket_index(hi), b, "upper edge of bucket {b}");
            }
        }
        // The top bucket saturates at u64::MAX.
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper(64), u64::MAX);
        assert_eq!(bucket_lower(64), 1u64 << 63);
    }

    #[test]
    fn histogram_records_and_reports() {
        static H: Histogram = Histogram::new("test.hist_records");
        H.record(0);
        H.record(1);
        H.record(5); // bucket 3: [4, 7]
        H.record(5);
        H.record(1000); // bucket 10: [512, 1023]
        assert_eq!(H.count(), 5);
        let rep = snapshot();
        let stat = rep.hist("test.hist_records").expect("hist registered");
        assert_eq!(stat.count, 5);
        assert_eq!(stat.sum, 1011);
        assert_eq!(stat.max, 1000);
        assert_eq!(stat.buckets[0], 1);
        assert_eq!(stat.buckets[1], 1);
        assert_eq!(stat.buckets[3], 2);
        assert_eq!(stat.buckets[10], 1);
        assert!((stat.mean() - 1011.0 / 5.0).abs() < 1e-12);
        // p50 = 3rd smallest sample → bucket 3, upper bound 7.
        assert_eq!(stat.percentile(50.0), 7);
        // p99 and p100 land in the last non-empty bucket, capped at max.
        assert_eq!(stat.percentile(99.0), 1000);
        assert_eq!(stat.percentile(100.0), 1000);
        assert_eq!(stat.percentile(0.0), 0); // first sample is the 0
    }

    #[test]
    fn histogram_percentile_edge_cases() {
        // Empty histogram: every percentile is 0.
        let empty = HistogramStat {
            name: "test.empty",
            count: 0,
            sum: 0,
            max: 0,
            buckets: vec![0; HIST_BUCKETS],
        };
        assert_eq!(empty.percentile(50.0), 0);
        assert_eq!(empty.percentile(99.0), 0);
        assert_eq!(empty.mean(), 0.0);

        // Single sample: exact at every percentile (max cap beats the
        // bucket upper bound).
        let mut buckets = vec![0; HIST_BUCKETS];
        buckets[bucket_index(12345)] = 1;
        let single = HistogramStat {
            name: "test.single",
            count: 1,
            sum: 12345,
            max: 12345,
            buckets,
        };
        assert_eq!(single.percentile(0.0), 12345);
        assert_eq!(single.percentile(50.0), 12345);
        assert_eq!(single.percentile(100.0), 12345);

        // Saturating sample in the top bucket.
        let mut buckets = vec![0; HIST_BUCKETS];
        buckets[64] = 1;
        let sat = HistogramStat {
            name: "test.saturating",
            count: 1,
            sum: u64::MAX,
            max: u64::MAX,
            buckets,
        };
        assert_eq!(sat.percentile(99.0), u64::MAX);
        // Out-of-range q clamps rather than panicking.
        assert_eq!(sat.percentile(150.0), u64::MAX);
        assert_eq!(sat.percentile(-3.0), u64::MAX);
    }

    #[test]
    fn delta_since_attributes_one_interval() {
        static C: Counter = Counter::new("test.delta_counter");
        static S: Span = Span::new("test.delta_span");
        static H: Histogram = Histogram::new("test.delta_hist");
        C.add(10);
        S.record(500);
        H.record(8);
        let baseline = snapshot();
        C.add(7);
        S.record(300);
        H.record(32);
        H.record(32);
        let delta = snapshot_delta(&baseline);
        assert_eq!(delta.counter("test.delta_counter"), Some(7));
        let s = delta.span("test.delta_span").expect("span in delta");
        assert_eq!(s.count, 1);
        assert_eq!(s.total_ns, 300);
        let h = delta.hist("test.delta_hist").expect("hist in delta");
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 64);
        assert_eq!(h.buckets[bucket_index(32)], 2);
        assert_eq!(h.buckets[bucket_index(8)], 0);
        // max stays the process high-water mark (documented caveat).
        assert_eq!(h.max, 32);
    }

    #[test]
    fn delta_since_drops_untouched_instruments() {
        static C: Counter = Counter::new("test.delta_quiet");
        C.add(1);
        let baseline = snapshot();
        let delta = snapshot_delta(&baseline);
        assert_eq!(delta.counter("test.delta_quiet"), None);
    }

    #[test]
    fn histogram_json_shape() {
        static H: Histogram = Histogram::new("test.hist_json");
        H.record(5);
        H.record(6);
        H.record(700);
        let v = snapshot().to_json();
        let h = &v["histograms"]["test.hist_json"];
        assert_eq!(h["count"], 3u64);
        assert_eq!(h["sum"], 711u64);
        assert_eq!(h["max"], 700u64);
        assert_eq!(h["p99"], 700u64);
        // Buckets keyed by inclusive lower bound; empty buckets omitted.
        assert_eq!(h["buckets"]["4"], 2u64);
        assert_eq!(h["buckets"]["512"], 1u64);
        assert!(h["buckets"]["0"].is_null());
        let reparsed = sg_json::parse(&v.to_string()).unwrap();
        assert_eq!(reparsed["histograms"]["test.hist_json"]["count"], 3u64);
    }

    #[test]
    fn hand_built_reports_serialize_in_sorted_order() {
        // A merged / hand-assembled report arrives unsorted; both the
        // prefix query and the JSON export must still be deterministic.
        let rep = Report {
            counters: vec![
                CounterStat {
                    name: "test.order.zeta",
                    value: 1,
                },
                CounterStat {
                    name: "test.order.alpha",
                    value: 2,
                },
                CounterStat {
                    name: "other.prefix",
                    value: 3,
                },
            ],
            spans: vec![
                SpanStat {
                    name: "test.order.span_b",
                    count: 1,
                    total_ns: 10,
                },
                SpanStat {
                    name: "test.order.span_a",
                    count: 1,
                    total_ns: 20,
                },
            ],
            hists: vec![
                {
                    let mut h = HistogramStat::empty("test.order.hist_b");
                    h.record_sample(4);
                    h
                },
                {
                    let mut h = HistogramStat::empty("test.order.hist_a");
                    h.record_sample(8);
                    h
                },
            ],
        };
        let pref = rep.counters_with_prefix("test.order.");
        assert_eq!(
            pref,
            vec![("test.order.alpha", 2u64), ("test.order.zeta", 1u64)]
        );
        let v = rep.to_json();
        let keys = |obj: &Value| -> Vec<String> {
            obj.as_object()
                .unwrap()
                .iter()
                .map(|(k, _)| k.clone())
                .collect()
        };
        let mut want = keys(&v["counters"]);
        want.sort();
        assert_eq!(keys(&v["counters"]), want);
        assert_eq!(
            keys(&v["spans"]),
            vec!["test.order.span_a", "test.order.span_b"]
        );
        assert_eq!(
            keys(&v["histograms"]),
            vec!["test.order.hist_a", "test.order.hist_b"]
        );
        // Serialization is byte-stable run to run.
        assert_eq!(v.to_string(), rep.to_json().to_string());
    }

    #[test]
    fn histogram_stat_merge_matches_single_recording() {
        let samples_a = [0u64, 1, 5, 1000];
        let samples_b = [7u64, 7, 1 << 40];
        let mut a = HistogramStat::empty("test.merge.basic");
        let mut b = HistogramStat::empty("test.merge.basic");
        let mut whole = HistogramStat::empty("test.merge.basic");
        for &v in &samples_a {
            a.record_sample(v);
            whole.record_sample(v);
        }
        for &v in &samples_b {
            b.record_sample(v);
            whole.record_sample(v);
        }
        let mut merged = HistogramStat::empty("test.merge.basic");
        merged.merge(&a);
        merged.merge(&b);
        assert_eq!(merged, whole);
    }

    #[test]
    fn snapshot_is_sorted_by_name() {
        static A: Counter = Counter::new("test.sorted_b");
        static B: Counter = Counter::new("test.sorted_a");
        A.add(1);
        B.add(1);
        let rep = snapshot();
        let names: Vec<&str> = rep.counters.iter().map(|c| c.name).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
    }
}
