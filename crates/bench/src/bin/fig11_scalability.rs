//! Fig. 11a/11b — speedup vs core count on the 32-core Opteron, per data
//! structure.
//!
//! Paper finding: with tree/hash storage, parallel hierarchization
//! saturates the memory connection beyond ~15 cores; the compact
//! structure reaches ≈24× (hierarchization) and ≈31× (evaluation), and
//! evaluation is not memory bound for any structure. We measure real
//! sequential times on the host, measure each structure's DRAM traffic
//! with the cache simulator on the real access streams, and apply the
//! bandwidth-saturation model (`sg_machine::multicore`).
//!
//! Usage: `fig11_scalability [--level 6] [--dims 10] [--evals 1000]`

use sg_baselines::StoreKind;
use sg_bench::{report, AnyStore, Args, Table};
use sg_core::functions::{halton_points, TestFunction};
use sg_core::level::GridSpec;
use sg_machine::{trace_evaluation, trace_hierarchization, CacheSim, MachineModel};

fn main() {
    let args = Args::parse();
    let level = args.usize("level", 7);
    let d = args.usize("dims", 10);
    let evals = args.usize("evals", 1000);
    let machine = MachineModel::opteron_8356_32core();
    let spec = GridSpec::new(d, level);
    let f = TestFunction::Parabola;
    let xs = halton_points(d, evals);
    let cores = [1usize, 2, 4, 8, 12, 16, 20, 24, 28, 32];

    let mut hier = Table::new(
        &format!(
            "Fig. 11a: hierarchization speedup on {} (d={d}, level {level})",
            machine.name
        ),
        &[
            "structure",
            "seq (host)",
            "DRAM traffic",
            "p=4",
            "p=8",
            "p=16",
            "p=24",
            "p=32",
        ],
    );
    let mut eval = Table::new(
        &format!(
            "Fig. 11b: evaluation speedup on {} (d={d}, level {level}, {evals} points)",
            machine.name
        ),
        &[
            "structure",
            "seq (host)",
            "DRAM traffic",
            "p=4",
            "p=8",
            "p=16",
            "p=24",
            "p=32",
        ],
    );
    let mut raw = Vec::new();

    for kind in StoreKind::ALL {
        // --- Measured sequential times on the host.
        let mut s = AnyStore::new(kind, spec);
        s.fill(|x| f.eval(x));
        let t_hier = sg_bench::time_once(|| s.hierarchize_seq());
        let mut sink = 0.0;
        let t_eval = sg_bench::time_once(|| {
            for x in xs.chunks_exact(d) {
                sink += s.evaluate_seq(x);
            }
        });
        std::hint::black_box(sink);

        // --- Cache-simulated DRAM traffic on the Opteron hierarchy.
        // Hierarchization sweeps the whole mutable grid: one socket's
        // hierarchy is representative. Parallel evaluation partitions the
        // query points while the structure is shared read-only, so every
        // socket's L3 caches it independently: use the aggregate LLC.
        let mut sim = CacheSim::opteron_barcelona();
        let hier_profile = trace_hierarchization(kind, spec, &mut sim);
        let mut sim = CacheSim::opteron_barcelona_aggregate();
        let eval_profile = trace_evaluation(kind, spec, evals, &mut sim);

        // The compact structure runs the statically decomposed iterative
        // algorithm (barrier per level group); the conventional
        // structures are parallelized by dynamic tasking over the
        // recursive traversal, as in the paper.
        let hier_w = if kind == StoreKind::Compact {
            hier_profile.workload(t_hier)
        } else {
            hier_profile.workload_tasked(t_hier)
        };
        let eval_w = eval_profile.workload(t_eval);
        let hier_curve: Vec<f64> = cores.iter().map(|&p| hier_w.speedup(&machine, p)).collect();
        let eval_curve: Vec<f64> = cores.iter().map(|&p| eval_w.speedup(&machine, p)).collect();

        let pick = |curve: &[f64], p: usize| {
            let pos = cores.iter().position(|&c| c == p).unwrap();
            format!("{:.1}", curve[pos])
        };
        hier.add_row(vec![
            kind.label().to_string(),
            sg_bench::fmt_secs(t_hier),
            sg_bench::fmt_bytes(hier_profile.dram_bytes),
            pick(&hier_curve, 4),
            pick(&hier_curve, 8),
            pick(&hier_curve, 16),
            pick(&hier_curve, 24),
            pick(&hier_curve, 32),
        ]);
        eval.add_row(vec![
            kind.label().to_string(),
            sg_bench::fmt_secs(t_eval),
            sg_bench::fmt_bytes(eval_profile.dram_bytes),
            pick(&eval_curve, 4),
            pick(&eval_curve, 8),
            pick(&eval_curve, 16),
            pick(&eval_curve, 24),
            pick(&eval_curve, 32),
        ]);
        raw.push(sg_json::json!({
            "kind": kind.label(),
            "seq_hier_s": t_hier, "seq_eval_s": t_eval,
            "hier_dram_bytes": hier_profile.dram_bytes,
            "eval_dram_bytes": eval_profile.dram_bytes,
            "cores": &cores[..],
            "hier_speedups": hier_curve, "eval_speedups": eval_curve,
        }));
        eprintln!("{} done", kind.label());
    }

    hier.print();
    eval.print();
    println!(
        "Expected shape (paper Fig. 11): hierarchization with map/tree structures flattens\n\
         past ~15 cores (memory-bandwidth saturation) while the compact structure keeps\n\
         scaling toward ≈24x; evaluation is not memory bound and scales toward ≈31x, with\n\
         the prefix tree the best of the conventional structures.\n"
    );

    let json = sg_json::json!({
        "experiment": "fig11_scalability",
        "level": level, "dims": d, "evals": evals,
        "machine": machine.name,
        "fig11a": hier.to_json(), "fig11b": eval.to_json(), "raw": raw,
    });
    let json = sg_bench::attach_telemetry(json);
    match report::save_json("fig11_scalability", &json) {
        Ok(p) => println!("saved {}", p.display()),
        Err(e) => eprintln!("could not save JSON record: {e}"),
    }
}
