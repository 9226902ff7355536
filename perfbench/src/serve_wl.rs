//! Workloads against the shipped `sgd` daemon over loopback TCP:
//! `serve` (open loop, 4-point requests, hot swaps) and `serve_bulk`
//! (closed loop, 4096-point requests on the pool-parallel batch path).

use crate::core_wl::smooth;
use crate::util::{same_bits, spin_until, zipf, Rng, Tracer};
use crate::{Traffic, Window, Workload};
use sg_core::evaluate::evaluate_batch;
use sg_core::grid::CompactGrid;
use sg_core::hierarchize::hierarchize;
use sg_core::level::GridSpec;
use sg_serve::{Client, RetryPolicy, RetryStats};
use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

pub const MODEL_SPEC: (usize, usize) = (5, 7);
pub const MODELS: usize = 4;
const ZIPF_S: f64 = 1.0;
/// `serve`: points per request, offered rate, swap period.
pub const SERVE_POINTS: usize = 4;
pub const SERVE_RATE: f64 = 4000.0;
const SWAP_EVERY: Duration = Duration::from_millis(250);
/// Distinct `serve` requests generated at set-up; the stream cycles them.
const SERVE_POOL: usize = 8192;
/// `serve_bulk`: points per request and distinct requests.
pub const BULK_POINTS: usize = 4096;
const BULK_POOL: usize = 16;

/// A running `sgd` child. Dropping it kills and reaps the process.
pub struct Daemon {
    child: Child,
    /// Kept open so the daemon's later stdout writes never hit a closed
    /// pipe.
    _stdout: std::io::BufReader<ChildStdout>,
    pub addr: String,
}

impl Daemon {
    pub fn spawn(sgd: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(sgd)
            .args(["--listen", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("starting {}: {e}", sgd.display()))?;
        let mut stdout = std::io::BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            match stdout.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("sgd exited before listening".into());
                }
                Ok(_) => {
                    if let Some(a) = line.trim().strip_prefix("sgd: listening on tcp://") {
                        break a.to_string();
                    }
                }
            }
        };
        Ok(Daemon {
            child,
            _stdout: stdout,
            addr,
        })
    }

    pub fn connect(&self) -> Client {
        let mut c = Client::connect_tcp(&self.addr).expect("connecting to sgd");
        // Overload pushback and transient transport trouble are retried
        // with jittered backoff; every retry is counted and reported.
        c.set_retry_policy(Some(RetryPolicy {
            budget: 50,
            base: Duration::from_micros(200),
            max: Duration::from_millis(5),
            seed: 0xB10C_10AD,
        }));
        c
    }

    pub fn peak_rss_mib(&self) -> f64 {
        crate::util::peak_rss_mib(&self.child.id().to_string()).unwrap_or(f64::NAN)
    }

    /// Graceful stop through the control plane; waits for the exit.
    pub fn stop(mut self) {
        if let Ok(mut c) = Client::connect_tcp(&self.addr) {
            let _ = c.shutdown_server();
        }
        let _ = self.child.wait();
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// `serve` counters from the daemon's `stats` reply.
pub fn daemon_counters(ctrl: &mut Client) -> [u64; 3] {
    let stats = ctrl.stats().expect("stats");
    let get = |k: &str| {
        stats
            .get("counters")
            .and_then(|c| c.get(k))
            .and_then(|v| v.as_u64())
            .unwrap_or(0)
    };
    [
        get("serve.requests"),
        get("serve.batches"),
        get("serve.overload"),
    ]
}

pub fn add_retry(total: &mut RetryStats, s: RetryStats) {
    total.retries += s.retries;
    total.timeouts += s.timeouts;
    total.reconnects += s.reconnects;
    total.backoff_ms += s.backoff_ms;
}

/// The served models: generation A of every model, plus generation B of
/// `model0` (the hot-swapped one). Snapshots are written to `dir`.
pub struct Models {
    pub grids: Vec<CompactGrid<f64>>,
    pub model0_b: CompactGrid<f64>,
    pub paths: Vec<PathBuf>,
    pub path0_b: PathBuf,
}

impl Models {
    pub fn build(seed: u64, dir: &Path) -> Models {
        let spec = GridSpec::new(MODEL_SPEC.0, MODEL_SPEC.1);
        let make = |stream: u64, scale: f64| {
            let mut g = CompactGrid::from_fn(spec, smooth(seed, stream, spec.dim(), scale));
            hierarchize(&mut g);
            g
        };
        let grids: Vec<_> = (0..MODELS)
            .map(|m| make(10 + m as u64, 1.0 + m as f64))
            .collect();
        let model0_b = make(20, -3.5);
        let write = |g: &CompactGrid<f64>, name: &str| {
            let p = dir.join(name);
            sg_io::write_snapshot_file(g, &p, crate::core_wl::PROVENANCE)
                .expect("writing snapshot");
            p
        };
        let paths = grids
            .iter()
            .enumerate()
            .map(|(m, g)| write(g, &format!("model{m}.sgcs")))
            .collect();
        let path0_b = write(&model0_b, "model0_b.sgcs");
        Models {
            grids,
            model0_b,
            paths,
            path0_b,
        }
    }
}

/// A request's send and reply instants, and its pool index.
type Interval = (Instant, Instant, u64);

/// A generated request with its expected answers.
struct Request {
    model: usize,
    name: String,
    xs: Vec<f64>,
    expected: Vec<f64>,
    /// `serve`'s hot-swapped `model0` only: the answer of the other
    /// snapshot generation.
    expected_b: Option<Vec<f64>>,
}

impl Request {
    fn check(&self, out: &[f64]) -> bool {
        same_bits(out, &self.expected)
            || self
                .expected_b
                .as_deref()
                .is_some_and(|b| same_bits(out, b))
    }
}

pub struct Serve {
    bulk: bool,
    daemon: Option<Daemon>,
    ctrl: Option<Client>,
    models: Models,
    requests: Vec<Request>,
    threads: usize,
}

impl Serve {
    pub fn setup(seed: u64, bulk: bool, sgd: &Path, dir: &Path, threads: usize) -> Serve {
        let models = Models::build(seed, dir);
        let (pool, points) = if bulk {
            (BULK_POOL, BULK_POINTS)
        } else {
            (SERVE_POOL, SERVE_POINTS)
        };
        let d = MODEL_SPEC.0;
        let mut rng = Rng::new(seed, if bulk { 5 } else { 4 });
        let requests = (0..pool)
            .map(|_| {
                let model = zipf(&mut rng, MODELS, ZIPF_S);
                let xs = rng.points(points * d);
                let expected = evaluate_batch(&models.grids[model], &xs);
                let expected_b =
                    (model == 0 && !bulk).then(|| evaluate_batch(&models.model0_b, &xs));
                Request {
                    model,
                    name: format!("model{model}"),
                    xs,
                    expected,
                    expected_b,
                }
            })
            .collect();
        let daemon = Daemon::spawn(sgd).expect("starting sgd");
        let mut ctrl = daemon.connect();
        for (m, p) in models.paths.iter().enumerate() {
            ctrl.load(&format!("model{m}"), p).expect("loading model");
        }
        Serve {
            bulk,
            daemon: Some(daemon),
            ctrl: Some(ctrl),
            models,
            requests,
            threads,
        }
    }

    fn ctrl(&mut self) -> &mut Client {
        let daemon = self.daemon.as_ref().expect("daemon running");
        self.ctrl.get_or_insert_with(|| daemon.connect())
    }

    /// The generator holds at most `threads` connections at a time, the
    /// control connection included: `serve` uses one data connection
    /// beside the swap connection; `serve_bulk` one per thread, with the
    /// control connection closed while requests flow.
    fn data_connections(&mut self) -> Vec<Client> {
        let n = if self.bulk {
            self.ctrl = None;
            self.threads
        } else {
            1
        };
        let daemon = self.daemon.as_ref().expect("daemon running");
        (0..n).map(|_| daemon.connect()).collect()
    }

    /// Open loop: request `i` is due at `start + i / rate` whatever the
    /// daemon's pace; latency counts from the due time. `model0` swaps
    /// generation every 250 ms on the control connection.
    ///
    /// The generator spins to each due time instead of sleeping. On a
    /// 2-vCPU VM, sleeping let the vCPU halt between requests, and the
    /// wake-ups came back as steal bursts: p50 read 0.12 ms on one run
    /// and 5 ms on the next. Spinning kept every run within 0.04–0.10 ms.
    fn open_loop(&mut self, client: &mut Client, tracer: &mut Tracer, length: Duration) -> Window {
        let mut w = Window::default();
        let total = (SERVE_RATE * length.as_secs_f64()) as usize;
        let (stop_tx, stop_rx) = mpsc::channel::<()>();
        let mut ctrl = self.ctrl.take().expect("control connection");
        let swap_paths = [self.models.path0_b.clone(), self.models.paths[0].clone()];
        let swapper = std::thread::spawn(move || {
            let mut swaps = Vec::new();
            while let Err(mpsc::RecvTimeoutError::Timeout) = stop_rx.recv_timeout(SWAP_EVERY) {
                let t0 = Instant::now();
                let ok = ctrl.load("model0", &swap_paths[swaps.len() % 2]).is_ok();
                swaps.push((t0, Instant::now(), ok));
            }
            (ctrl, swaps)
        });
        let mut out = Vec::with_capacity(SERVE_POINTS);
        let start = Instant::now() + Duration::from_millis(5);
        let mut last = start;
        for i in 0..total {
            let due = start + Duration::from_secs_f64(i as f64 / SERVE_RATE);
            w.late_ms.push(spin_until(due) * 1e3);
            let req = &self.requests[i % self.requests.len()];
            let sent = Instant::now();
            let ok = client
                .eval_into(&req.name, MODEL_SPEC.0, &req.xs, &mut out)
                .is_ok_and(|_| req.check(&out));
            last = Instant::now();
            tracer.record("client.eval", sent, last, None, i as u64);
            w.attempted += 1;
            if ok {
                w.points += SERVE_POINTS as f64;
                w.lat_ms.push(last.duration_since(due).as_secs_f64() * 1e3);
            } else {
                w.failed += 1;
            }
        }
        w.busy_s = last.duration_since(start).as_secs_f64();
        drop(stop_tx);
        let (ctrl, swaps) = swapper.join().expect("swapper thread");
        self.ctrl = Some(ctrl);
        let mut traffic = Traffic::default();
        for (k, (t0, t1, ok)) in swaps.into_iter().enumerate() {
            tracer.record("client.load", t0, t1, None, k as u64);
            w.attempted += 1;
            if ok {
                traffic
                    .swaps_ms
                    .push(t1.duration_since(t0).as_secs_f64() * 1e3);
            } else {
                w.failed += 1;
            }
        }
        w.traffic = Some(traffic);
        w
    }

    /// Closed loop on one connection per generator thread.
    fn closed_loop(&self, data: &mut [Client], tracer: &mut Tracer, length: Duration) -> Window {
        let requests = &self.requests;
        let stride = data.len();
        let start = Instant::now();
        let per_thread: Vec<(Window, Vec<Interval>)> = std::thread::scope(|s| {
            let handles: Vec<_> = data
                .iter_mut()
                .enumerate()
                .map(|(c, client)| {
                    s.spawn(move || {
                        let mut w = Window::default();
                        let mut spans = Vec::new();
                        let mut out = Vec::with_capacity(BULK_POINTS);
                        let mut j = c;
                        let mut due = start;
                        while start.elapsed() < length {
                            let req = &requests[j % requests.len()];
                            let sent = Instant::now();
                            w.late_ms.push(sent.duration_since(due).as_secs_f64() * 1e3);
                            let ok = client
                                .eval_into(&req.name, MODEL_SPEC.0, &req.xs, &mut out)
                                .is_ok_and(|_| req.check(&out));
                            due = Instant::now();
                            spans.push((sent, due, j as u64));
                            w.attempted += 1;
                            if ok {
                                w.points += BULK_POINTS as f64;
                                w.lat_ms.push(due.duration_since(sent).as_secs_f64() * 1e3);
                            } else {
                                w.failed += 1;
                            }
                            j += stride;
                        }
                        (w, spans)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("generator thread"))
                .collect()
        });
        let mut w = Window {
            busy_s: start.elapsed().as_secs_f64(),
            points_per_op: BULK_POINTS as f64,
            in_flight: stride as f64,
            traffic: Some(Traffic::default()),
            ..Window::default()
        };
        for (tw, spans) in per_thread {
            w.attempted += tw.attempted;
            w.failed += tw.failed;
            w.points += tw.points;
            w.lat_ms.extend(tw.lat_ms);
            w.late_ms.extend(tw.late_ms);
            for (t0, t1, op) in spans {
                tracer.record("client.eval", t0, t1, None, op);
            }
        }
        w
    }
}

impl Workload for Serve {
    fn warm_up(&mut self) -> bool {
        let mut data = self.data_connections();
        let n = data.len();
        self.requests.iter().take(64).enumerate().all(|(i, req)| {
            data[i % n]
                .eval(&req.name, MODEL_SPEC.0, &req.xs)
                .is_ok_and(|out| req.check(&out))
        })
    }

    fn measure(&mut self, tracer: &mut Tracer, length: Duration) -> Window {
        let before = daemon_counters(self.ctrl());
        let mut data = self.data_connections();
        let mut w = if self.bulk {
            self.closed_loop(&mut data, tracer, length)
        } else {
            self.open_loop(&mut data[0], tracer, length)
        };
        let traffic = w.traffic.as_mut().expect("serve windows carry traffic");
        for c in &data {
            add_retry(&mut traffic.retry, c.retry_stats());
        }
        drop(data);
        let after = daemon_counters(self.ctrl());
        let traffic = w.traffic.as_mut().expect("serve windows carry traffic");
        traffic.requests = after[0] - before[0];
        traffic.batches = after[1] - before[1];
        traffic.overloads = after[2] - before[2];
        w
    }

    fn peak_rss_mib(&self) -> f64 {
        self.daemon.as_ref().map_or(f64::NAN, Daemon::peak_rss_mib)
    }

    fn key(&self) -> sg_json::Value {
        let spec = GridSpec::new(MODEL_SPEC.0, MODEL_SPEC.1);
        let mut key = sg_json::json!({
            "d": spec.dim() as u64,
            "level": spec.levels() as u64,
            "grid_points": spec.num_points(),
            "models": MODELS as u64,
            "zipf_s": ZIPF_S,
            "model_shares": self.model_shares(),
        });
        if self.bulk {
            key.set("points_per_request", sg_json::json!(BULK_POINTS as u64));
            key.set("loop", sg_json::json!("closed"));
            key.set("connections", sg_json::json!(self.threads as u64));
        } else {
            key.set("points_per_request", sg_json::json!(SERVE_POINTS as u64));
            key.set("loop", sg_json::json!("open"));
            key.set("rate_rps", sg_json::json!(SERVE_RATE));
            key.set(
                "swap_every_ms",
                sg_json::json!(SWAP_EVERY.as_millis() as u64),
            );
            key.set("connections", sg_json::json!(2u64));
        }
        key
    }
}

impl Serve {
    /// Share of generated requests per model (the Zipf draw as realized).
    fn model_shares(&self) -> sg_json::Value {
        let mut counts = [0u64; MODELS];
        for r in &self.requests {
            counts[r.model] += 1;
        }
        sg_json::Value::Array(
            counts
                .iter()
                .map(|&c| sg_json::json!(c as f64 / self.requests.len() as f64))
                .collect(),
        )
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        self.ctrl = None;
        if let Some(d) = self.daemon.take() {
            d.stop();
        }
    }
}
