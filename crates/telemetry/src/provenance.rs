//! Run provenance: who produced this measurement, on what, when.
//!
//! Every `results/*.json` figure record and `sgtool --metrics-json`
//! report embeds this block so a number can always be traced back to the
//! commit, host, and thread count that produced it — without it, a
//! regression is indistinguishable from a hardware change. `sgtool gate`
//! derives its machine class from `arch` and `machine`.

use std::process::Command;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{SystemTime, UNIX_EPOCH};

use sg_json::{json, Value};

/// Build the provenance record:
///
/// ```json
/// { "git_sha": "c0cc1e9…", "dirty": false,
///   "timestamp_utc": "2026-02-11T09:31:05Z",
///   "threads": 8, "features": ["telemetry"],
///   "machine": "AMD Opteron …", "arch": "x86_64", "os": "linux",
///   "debug_build": false }
/// ```
///
/// `features` is supplied by the caller because cargo features are
/// per-crate: the binary knows which of its instrumentation features
/// were compiled in, this library does not. Fields that cannot be
/// determined (no git, no `/proc/cpuinfo`) degrade to `"unknown"` or a
/// portable fallback rather than failing — provenance must never be the
/// reason a benchmark run aborts.
pub fn provenance(features: &[&str]) -> Value {
    let mut p = json!({
        "git_sha": git_sha().unwrap_or_else(|| "unknown".to_string()),
        "dirty": git_dirty(),
        "timestamp_utc": iso8601_utc(unix_seconds()),
        "threads": threads() as f64,
        "machine": machine_model(),
        "arch": std::env::consts::ARCH,
        "os": std::env::consts::OS,
        "debug_build": cfg!(debug_assertions),
        "kernel": kernel_label(),
    });
    p["features"] = Value::Array(features.iter().map(|&f| Value::from(f)).collect());
    p
}

fn git_output(args: &[&str]) -> Option<String> {
    let out = Command::new("git").args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let s = String::from_utf8(out.stdout).ok()?;
    let s = s.trim().to_string();
    if s.is_empty() {
        None
    } else {
        Some(s)
    }
}

fn git_sha() -> Option<String> {
    git_output(&["rev-parse", "HEAD"])
}

/// `true` when the working tree differs from HEAD; `false` when clean
/// *or* when git is unavailable (the sha will say "unknown" then).
fn git_dirty() -> bool {
    git_output(&["status", "--porcelain"]).is_some()
}

fn unix_seconds() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// Render unix seconds as `YYYY-MM-DDThh:mm:ssZ` using Howard Hinnant's
/// `civil_from_days` algorithm — exact for the whole u64 range we care
/// about, no date crate needed.
fn iso8601_utc(secs: u64) -> String {
    let days = (secs / 86_400) as i64;
    let rem = secs % 86_400;
    let (hh, mm, ss) = (rem / 3600, (rem % 3600) / 60, rem % 60);
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097) as u64; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365; // [0, 399]
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let day = doy - (153 * mp + 2) / 5 + 1; // [1, 31]
    let month = if mp < 10 { mp + 3 } else { mp - 9 }; // [1, 12]
    let year = yoe as i64 + era * 400 + i64::from(month <= 2);
    format!("{year:04}-{month:02}-{day:02}T{hh:02}:{mm:02}:{ss:02}Z")
}

/// Runtime override installed by [`set_threads_hint`] (0 = none).
static THREADS_HINT: AtomicUsize = AtomicUsize::new(0);

/// Tell provenance the thread count actually in use. Called by
/// `sg_par::set_num_threads` (this crate cannot call sg-par without a
/// dependency cycle, so the hint flows in the other direction); without
/// it a runtime resize would leave provenance reporting the stale
/// environment-derived count.
pub fn set_threads_hint(n: usize) {
    THREADS_HINT.store(n, Ordering::SeqCst);
}

/// The worker-thread count `sg-par` would use: the [`set_threads_hint`]
/// override if one was installed, else `SG_PAR_THREADS` (mirroring
/// `sg_par::num_threads`), else available parallelism.
fn threads() -> usize {
    let hint = THREADS_HINT.load(Ordering::SeqCst);
    if hint >= 1 {
        return hint;
    }
    if let Ok(v) = std::env::var("SG_PAR_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Last SIMD kernel dispatched by `sg-core` (see [`set_kernel_hint`]).
static KERNEL_HINT: Mutex<Option<&'static str>> = Mutex::new(None);

/// Tell provenance which compute kernel `sg_core::kernel::active()`
/// resolved to (`"scalar"`, `"avx2"`, `"neon"`). Same inverted-dependency
/// pattern as [`set_threads_hint`]: this crate cannot query sg-core, so
/// the hot paths stamp the hint on dispatch. Without it — e.g. before any
/// kernel has run — the label falls back to the `SG_KERNEL` request.
pub fn set_kernel_hint(name: &'static str) {
    *KERNEL_HINT.lock().unwrap_or_else(|e| e.into_inner()) = Some(name);
}

/// The kernel label for provenance: the dispatched kind if one was
/// stamped, else the (normalized) `SG_KERNEL` selection request, else
/// `"auto"`.
fn kernel_label() -> String {
    if let Some(name) = *KERNEL_HINT.lock().unwrap_or_else(|e| e.into_inner()) {
        return name.to_string();
    }
    match std::env::var("SG_KERNEL") {
        Ok(v) if !v.trim().is_empty() => v.trim().to_ascii_lowercase(),
        _ => "auto".to_string(),
    }
}

/// Host CPU model from `/proc/cpuinfo` (`model name` line), falling back
/// to `arch/os` on platforms without procfs.
fn machine_model() -> String {
    if let Ok(cpuinfo) = std::fs::read_to_string("/proc/cpuinfo") {
        for line in cpuinfo.lines() {
            if let Some(rest) = line.strip_prefix("model name") {
                if let Some((_, model)) = rest.split_once(':') {
                    let model = model.trim();
                    if !model.is_empty() {
                        return model.to_string();
                    }
                }
            }
        }
    }
    format!("{}/{}", std::env::consts::ARCH, std::env::consts::OS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iso8601_known_dates() {
        assert_eq!(iso8601_utc(0), "1970-01-01T00:00:00Z");
        assert_eq!(iso8601_utc(86_399), "1970-01-01T23:59:59Z");
        // 2000-02-29 (leap day) 12:00:00 UTC.
        assert_eq!(iso8601_utc(951_825_600), "2000-02-29T12:00:00Z");
        // 2026-01-01 00:00:00 UTC.
        assert_eq!(iso8601_utc(1_767_225_600), "2026-01-01T00:00:00Z");
    }

    #[test]
    fn provenance_has_all_fields() {
        let p = provenance(&["telemetry"]);
        for key in [
            "git_sha",
            "dirty",
            "timestamp_utc",
            "threads",
            "features",
            "machine",
            "arch",
            "os",
            "debug_build",
            "kernel",
        ] {
            assert!(p.get(key).is_some(), "missing provenance key {key}");
        }
        assert_eq!(p["features"][0], "telemetry");
        assert!(p["threads"].as_u64().unwrap() >= 1);
        let ts = p["timestamp_utc"].as_str().unwrap();
        assert_eq!(ts.len(), 20);
        assert!(ts.ends_with('Z'));
        assert_eq!(&ts[4..5], "-");
        assert_eq!(&ts[10..11], "T");
        // Survives serialization.
        let reparsed = sg_json::parse(&p.to_string()).unwrap();
        assert_eq!(reparsed["arch"], std::env::consts::ARCH);
    }

    #[test]
    fn kernel_label_prefers_the_dispatch_hint() {
        set_kernel_hint("scalar");
        assert_eq!(kernel_label(), "scalar");
        assert_eq!(provenance(&[])["kernel"], "scalar");
        set_kernel_hint("avx2");
        assert_eq!(kernel_label(), "avx2");
    }
}
