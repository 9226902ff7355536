//! Run every experiment binary in sequence with (optionally quick)
//! settings, regenerating all paper tables and figures. Each experiment
//! overwrites its `results/<name>.json` record (the numbers EXPERIMENTS.md
//! quotes). Performance regressions are gated on perfbench reports by
//! `sgtool gate`, not on these records.
//!
//! Usage: `run_all [--quick]`
//!
//! Debug builds (`cargo run -p sg-bench` without `--release`) always use
//! the quick settings: unoptimized full experiments take hours and their
//! numbers are meaningless anyway.

use std::process::Command;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick") || cfg!(debug_assertions);
    if quick && !std::env::args().any(|a| a == "--quick") {
        eprintln!("debug build: forcing --quick settings (use --release for real numbers)");
    }
    let me = std::env::current_exe().expect("cannot locate current executable");
    let dir = me.parent().expect("executable has no parent directory");

    let experiments: Vec<(&str, Vec<&str>)> = if quick {
        vec![
            ("table1_access", vec!["--level", "8", "--accesses", "20000"]),
            ("fig8_memory", vec!["--validate"]),
            ("fig9_sequential", vec!["--level", "5", "--repeats", "1"]),
            ("fig10_speedup", vec!["--level", "5", "--points", "2000"]),
            ("fig11_scalability", vec!["--level", "5", "--evals", "300"]),
            (
                "fig11_threads",
                vec![
                    "--level",
                    "4",
                    "--evals",
                    "300",
                    "--repeats",
                    "2",
                    "--max-threads",
                    "4",
                ],
            ),
        ]
    } else {
        vec![
            ("table1_access", vec![]),
            ("fig8_memory", vec!["--validate"]),
            ("fig9_sequential", vec![]),
            ("fig10_speedup", vec!["--ablations"]),
            ("fig11_scalability", vec![]),
            ("fig11_threads", vec![]),
        ]
    };

    let mut failures = 0;
    for (name, extra) in experiments {
        let bin = dir.join(name);
        println!("\n=== {name} {} ===\n", extra.join(" "));
        match Command::new(&bin).args(&extra).status() {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("{name} exited with {s}");
                failures += 1;
            }
            Err(e) => {
                eprintln!("could not run {}: {e}", bin.display());
                failures += 1;
            }
        }
    }
    if failures > 0 {
        std::process::exit(1);
    }
    println!("\nAll experiments completed; JSON records are under results/.");
}
