//! `serve_load` — open-loop load generator for the `sgd` evaluation
//! daemon.
//!
//! Arrivals are scheduled on a fixed clock (open loop: a slow server
//! does not slow the offered load, so queueing delay shows up in the
//! latency distribution instead of being hidden by back-pressure).
//! Model popularity follows a Zipf distribution over `--models` fleet
//! entries, the classic shape of multi-tenant serving traffic.
//!
//! By default the generator starts an in-process server; `--connect
//! HOST:PORT` drives an externally started `sgd` instead (the CI smoke
//! job does this). `--swap-every-ms N` hot-swaps the most popular model
//! between two snapshot generations every N ms for the whole run —
//! served answers must keep flowing with zero failures throughout.
//!
//! Requests ride the client's jittered-exponential-backoff retry
//! machinery (overload, timeouts, transient I/O), so the recorded
//! retry/timeout/reconnect/backoff counts measure the daemon's
//! resilience envelope, not just its happy path.
//!
//! Results land in `results/serve_load.json` (latency distribution,
//! throughput, retry/timeout/backoff/degraded counts, swap count, run
//! provenance). The gated serving benchmark is perfbench's `serve_bulk`
//! workload; this generator is the hot-swap smoke test.
//!
//! Usage: `serve_load [--connect HOST:PORT] [--models 4] [--rate 1000]
//!         [--duration-ms 2000] [--conns 4] [--points 8] [--dims 3]
//!         [--level 5] [--zipf 1.0] [--swap-every-ms 0]`

use sg_bench::{report, Args};
use sg_core::grid::CompactGrid;
use sg_core::hierarchize::hierarchize;
use sg_core::level::GridSpec;
use sg_serve::{Client, Engine, Fleet, RetryPolicy, RetryStats, ServeConfig, Server};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Deterministic 64-bit LCG (same constants as sg-fuzz).
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state
}

fn unit_f64(state: &mut u64) -> f64 {
    (lcg(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// Cumulative Zipf weights over `n` ranks with exponent `s`.
fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let mut acc = 0.0;
    let mut cdf: Vec<f64> = (1..=n)
        .map(|rank| {
            acc += 1.0 / (rank as f64).powf(s);
            acc
        })
        .collect();
    for w in &mut cdf {
        *w /= acc;
    }
    cdf
}

fn sample_zipf(cdf: &[f64], u: f64) -> usize {
    cdf.iter().position(|&c| u < c).unwrap_or(cdf.len() - 1)
}

fn make_snapshot(dims: usize, level: usize, scale: f64, tag: &str) -> std::path::PathBuf {
    let mut g = CompactGrid::from_fn(GridSpec::new(dims, level), move |x| {
        scale
            * (x.iter()
                .enumerate()
                .map(|(i, v)| (i as f64 + 1.0) * v)
                .sum::<f64>())
            .sin()
    });
    hierarchize(&mut g);
    let path =
        std::env::temp_dir().join(format!("sg-serve-load-{}-{tag}.sgcs", std::process::id()));
    sg_io::write_snapshot_file(&g, &path, "serve-load").expect("writing snapshot");
    path
}

fn main() {
    let args = Args::parse();
    let models = args.usize("models", 4).max(1);
    let rate = args.usize("rate", 1000).max(1); // requests per second
    let duration_ms = args.usize("duration-ms", 2000).max(1);
    let conns = args.usize("conns", 4).max(1);
    let points = args.usize("points", 8).max(1);
    let dims = args.usize("dims", 3).max(1);
    let level = args.usize("level", 5).max(1);
    let zipf_s = args.usize("zipf-centi", 100) as f64 / 100.0;
    let swap_every_ms = args.usize("swap-every-ms", 0);
    let connect = args.str("connect", "");

    // Two snapshot generations per model; generation B only matters for
    // the swapped model, but building both keeps the setup uniform.
    let snaps_a: Vec<_> = (0..models)
        .map(|m| make_snapshot(dims, level, 1.0 + m as f64, &format!("a{m}")))
        .collect();
    let snap_b = make_snapshot(dims, level, -3.5, "b0");

    // In-process server unless --connect points at an external sgd.
    let (server, addr) = if connect.is_empty() {
        let fleet = Fleet::new((models + 2).max(8));
        let engine = Engine::new(fleet, ServeConfig::from_env());
        let server = Server::start(engine, Some("127.0.0.1:0"), None).expect("starting server");
        let addr = server.tcp_addr().unwrap().to_string();
        (Some(server), addr)
    } else {
        (None, connect)
    };

    let mut ctrl = Client::connect_tcp(&addr).expect("connecting control client");
    for (m, path) in snaps_a.iter().enumerate() {
        ctrl.load(&format!("model{m}"), path)
            .expect("loading model");
    }

    let total = rate * duration_ms / 1000;
    let cdf = zipf_cdf(models, zipf_s);
    let failures = Arc::new(AtomicU64::new(0));
    let degraded_serves = Arc::new(AtomicU64::new(0));
    let stop_swapper = Arc::new(AtomicBool::new(false));
    let start = Instant::now() + Duration::from_millis(50);

    // Optional hot-swap churn on the most popular model.
    let swapper = (swap_every_ms > 0).then(|| {
        let addr = addr.clone();
        let a0 = snaps_a[0].clone();
        let b0 = snap_b.clone();
        let stop = Arc::clone(&stop_swapper);
        std::thread::spawn(move || {
            let mut ctrl = Client::connect_tcp(&addr).expect("swapper connect");
            let mut swaps = 0u64;
            while !stop.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(swap_every_ms as u64));
                let path = if swaps % 2 == 0 { &b0 } else { &a0 };
                ctrl.load("model0", path).expect("hot swap failed");
                swaps += 1;
            }
            swaps
        })
    });

    let mut workers = Vec::new();
    for c in 0..conns {
        let addr = addr.clone();
        let cdf = cdf.clone();
        let failures = Arc::clone(&failures);
        let degraded_serves = Arc::clone(&degraded_serves);
        workers.push(std::thread::spawn(move || {
            let mut client = Client::connect_tcp(&addr).expect("worker connect");
            // Overload shedding and transient transport trouble are
            // absorbed by the client's jittered exponential backoff; a
            // generous budget keeps an open-loop burst from turning
            // admission-control pushback into lost requests.
            client.set_retry_policy(Some(RetryPolicy {
                budget: 50,
                base: Duration::from_micros(200),
                max: Duration::from_millis(5),
                seed: 0xB10C_10AD ^ (c as u64),
            }));
            let mut rng = 0x9E3779B97F4A7C15u64 ^ (c as u64) << 32;
            let mut xs = Vec::with_capacity(points * dims);
            let mut out = Vec::with_capacity(points);
            let mut latencies = Vec::with_capacity(total / conns + 1);
            let mut name = String::new();
            // Worker c owns arrivals c, c+conns, c+2·conns, … — a fixed
            // open-loop schedule independent of service times.
            let mut i = c;
            while i < total {
                let scheduled =
                    start + Duration::from_nanos((i as u64) * 1_000_000_000 / rate as u64);
                if let Some(wait) = scheduled.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let model = sample_zipf(&cdf, unit_f64(&mut rng));
                name.clear();
                use std::fmt::Write as _;
                write!(name, "model{model}").unwrap();
                xs.clear();
                for _ in 0..points * dims {
                    xs.push(unit_f64(&mut rng));
                }
                match client.eval_into(&name, dims, &xs, &mut out) {
                    Ok(degraded) => {
                        latencies.push(scheduled.elapsed().as_secs_f64());
                        if degraded {
                            degraded_serves.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    Err(e) => {
                        eprintln!("serve_load: request {i} failed: {e}");
                        failures.fetch_add(1, Ordering::Relaxed);
                    }
                }
                i += conns;
            }
            (latencies, client.retry_stats())
        }));
    }

    let mut latencies = Vec::with_capacity(total);
    let mut retry = RetryStats::default();
    for w in workers {
        let (lats, stats) = w.join().expect("worker panicked");
        latencies.extend(lats);
        retry.retries += stats.retries;
        retry.timeouts += stats.timeouts;
        retry.reconnects += stats.reconnects;
        retry.backoff_ms += stats.backoff_ms;
    }
    stop_swapper.store(true, Ordering::Relaxed);
    let swaps = swapper
        .map(|h| h.join().expect("swapper panicked"))
        .unwrap_or(0);
    let wall = start.elapsed().as_secs_f64();

    let failed = failures.load(Ordering::Relaxed);
    let retried = retry.retries;
    let degraded = degraded_serves.load(Ordering::Relaxed);
    let throughput = latencies.len() as f64 / wall;

    if let Some(server) = server {
        // End-of-run drain exercises the same two-phase stop as SIGTERM.
        if !server.drain(Duration::from_secs(10)) {
            eprintln!("serve_load: warning: in-process server drain was forced");
        }
    }
    for p in snaps_a.iter().chain(std::iter::once(&snap_b)) {
        std::fs::remove_file(p).ok();
    }

    // Nearest-rank latency quantiles, seconds.
    latencies.sort_by(f64::total_cmp);
    let rank = |q: f64| {
        let i = ((q * latencies.len() as f64).ceil() as usize).max(1) - 1;
        latencies.get(i).copied().unwrap_or(0.0)
    };
    let mut doc = sg_json::json!({
        "experiment": "serve_load", "models": models, "rate_rps": rate,
        "duration_ms": duration_ms, "conns": conns, "points": points, "dims": dims,
        "level": level, "zipf_s": zipf_s, "swap_every_ms": swap_every_ms,
        "requests": latencies.len(), "failed": failed, "throughput_rps": throughput,
        "overload_retries": retried, "timeouts": retry.timeouts,
        "reconnects": retry.reconnects, "backoff_ms": retry.backoff_ms,
        "degraded_serves": degraded, "swaps": swaps,
    });
    doc["latency_s"] = sg_json::json!({
        "p50": rank(0.50), "p90": rank(0.90), "p99": rank(0.99),
        "min": rank(0.0), "max": rank(1.0),
    });
    let out_path = report::save_json("serve_load", &doc).expect("recording run");

    println!(
        "serve_load: {} requests over {wall:.2}s ({throughput:.0} rps), {} models, zipf s={zipf_s}",
        latencies.len(),
        models
    );
    println!("overload retries: {retried}, hot swaps: {swaps}");
    println!(
        "timeouts: {}, reconnects: {}, backoff: {}ms, degraded serves: {degraded}",
        retry.timeouts, retry.reconnects, retry.backoff_ms
    );
    println!("failed requests: {failed}");
    println!("recorded {}", out_path.display());
    if failed > 0 || latencies.len() as u64 + failed < total as u64 {
        std::process::exit(1);
    }
}
