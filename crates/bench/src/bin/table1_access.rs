//! Table 1 — access cost per data structure: asymptotic complexity,
//! measured nanoseconds per random access on the host, and cache-simulated
//! misses per access.
//!
//! Usage: `table1_access [--dims 4] [--level 10] [--accesses 100000]`

use sg_baselines::StoreKind;
use sg_bench::{report, AnyStore, Args, Table};
use sg_core::bijection::GridIndexer;
use sg_core::level::GridSpec;
use sg_machine::{AccessTracer, CacheSim};

/// Table 1's asymptotic columns.
fn asymptotics(kind: StoreKind) -> (&'static str, &'static str) {
    match kind {
        StoreKind::StdMap => ("O(d·log N)", "O(log N)"),
        StoreKind::EnhancedMap => ("O(d + log N)", "O(log N)"),
        StoreKind::EnhancedHash => ("O(d)", "O(1)"),
        StoreKind::PrefixTree => ("O(d)", "O(d)"),
        StoreKind::Compact => ("O(d)", "O(1)"),
    }
}

fn main() {
    let args = Args::parse();
    let d = args.usize("dims", 4);
    let level = args.usize("level", 10);
    let accesses = args.usize("accesses", 100_000);
    let spec = GridSpec::new(d, level);
    let n = spec.num_points();

    // Deterministic random access order.
    let ix = GridIndexer::new(spec);
    let mut order: Vec<u64> = (0..n).collect();
    let mut state = 0x9E3779B97F4A7C15u64;
    for k in 0..order.len() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (state >> 33) as usize % order.len();
        order.swap(k, j);
    }
    order.truncate(accesses.min(order.len()));

    let mut table = Table::new(
        &format!("Table 1: access cost, d={d}, level {level} ({n} points)"),
        &[
            "structure",
            "time",
            "non-seq refs",
            "ns/access (host)",
            "DRAM lines/access (sim)",
        ],
    );
    let mut raw = Vec::new();

    for kind in StoreKind::ALL {
        let mut store = AnyStore::new(kind, spec);
        store.fill(|x| x[0]);

        // Host timing of random gets.
        let mut l = vec![0u8; d];
        let mut i = vec![0u32; d];
        let mut sink = 0.0f64;
        let t = sg_bench::time_once(|| {
            for &idx in &order {
                ix.idx2gp(idx, &mut l, &mut i);
                sink += store.get(&l, &i);
            }
        });
        std::hint::black_box(sink);
        let ns_per_access = t * 1e9 / order.len() as f64;

        // Cache-simulated misses on the same access order.
        let tracer = AccessTracer::new(kind, spec, 8);
        let mut sim = CacheSim::nehalem();
        for &idx in &order {
            ix.idx2gp(idx, &mut l, &mut i);
            tracer.record_idx(idx, &l, &mut sim);
        }
        let lines_per_access = sim.dram_lines() as f64 / order.len() as f64;

        let (time_c, refs_c) = asymptotics(kind);
        table.add_row(vec![
            kind.label().to_string(),
            time_c.to_string(),
            refs_c.to_string(),
            format!("{ns_per_access:.1}"),
            format!("{lines_per_access:.2}"),
        ]);
        raw.push(sg_json::json!({
            "kind": kind.label(),
            "ns_per_access": ns_per_access,
            "dram_lines_per_access": lines_per_access,
        }));
        eprintln!("{} done", kind.label());
    }

    table.print();
    println!(
        "Expected shape (paper Table 1): the compact structure needs at most one\n\
         non-sequential reference per access; maps pay O(log N); the trie pays O(d)\n\
         worst-case but benefits from cache-resident upper levels.\n"
    );

    let json = sg_json::json!({
        "experiment": "table1_access",
        "dims": d, "level": level, "accesses": order.len(),
        "table": table.to_json(), "raw": raw,
    });
    let json = sg_bench::attach_telemetry(json);
    match report::save_json("table1_access", &json) {
        Ok(p) => println!("saved {}", p.display()),
        Err(e) => eprintln!("could not save JSON record: {e}"),
    }
}
