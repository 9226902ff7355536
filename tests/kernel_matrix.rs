//! Scalar-vs-SIMD bitwise identity matrix.
//!
//! The SIMD kernels (`sg_core::kernel`) are transcriptions — not
//! reassociations — of the scalar arithmetic, so their results must be
//! **bit-identical** on every batch size straddling a lane boundary, at
//! every dimensionality, and under every thread count. On hosts without
//! a SIMD extension `detect()` degrades to the scalar kernel and the
//! matrix passes trivially (the CI AVX2 leg provides the real coverage).

use sg_core::hierarchize::hierarchize_alg6_literal;
use sg_core::kernel::{detect, parse_select, with_kernel, KernelError, KernelKind, KernelSelect};
use sg_core::level::{hierarchical_parent, Side};
use sg_core::prelude::*;

/// Thread-count changes are process-global; the sweeps that touch them
/// serialize on this so the harness can still run tests concurrently.
static THREADS: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn threads_lock() -> std::sync::MutexGuard<'static, ()> {
    THREADS.lock().unwrap_or_else(|e| e.into_inner())
}

fn surplus_grid(spec: GridSpec) -> CompactGrid<f64> {
    let mut g = CompactGrid::from_fn(spec, |x| {
        x.iter()
            .enumerate()
            .map(|(t, &v)| (t as f64 + 1.0) * v * (1.0 - v))
            .sum::<f64>()
            + x.iter().product::<f64>()
    });
    hierarchize(&mut g);
    g
}

/// Deterministic in-domain query points (dyadic-adjacent, so basis
/// products hit both zero and non-zero lanes).
fn queries(d: usize, count: usize) -> Vec<f64> {
    (0..count * d)
        .map(|k| ((k.wrapping_mul(2654435761) >> 8) % 509 + 1) as f64 / 511.0)
        .collect()
}

fn assert_bitwise(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (q, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: query {q}: {x:?} vs {y:?}"
        );
    }
}

#[test]
fn evaluation_matrix_is_bitwise_identical_across_kernels_and_threads() {
    let _lock = threads_lock();
    let simd = detect();
    let lane = simd.lanes().max(2);
    // Batch sizes straddling the lane boundary plus the spec'd fixed
    // sizes; 65 is never a lane multiple for lanes ∈ {2, 4, 8}.
    let sizes = [0, 1, lane - 1, lane, lane + 1, 7, 64, 65];
    for d in 1..=5usize {
        let levels = if d <= 3 { 5 } else { 3 };
        let spec = GridSpec::new(d, levels);
        let grid = surplus_grid(spec);
        let plan = EvalPlan::new(&spec);
        for &k in &sizes {
            let xs = queries(d, k);
            let reference = evaluate_batch(&grid, &xs);
            for threads in [1usize, 2, 8] {
                sg_par::set_num_threads(threads);
                for block in [lane, 7, k.max(1)] {
                    let scalar = with_kernel(KernelSelect::Force(KernelKind::Scalar), || {
                        (
                            evaluate_batch_blocked_with_plan(&grid, &xs, block, &plan),
                            evaluate_batch_parallel(&grid, &xs, block),
                        )
                    });
                    let vector = with_kernel(KernelSelect::Force(simd), || {
                        (
                            evaluate_batch_blocked_with_plan(&grid, &xs, block, &plan),
                            evaluate_batch_parallel(&grid, &xs, block),
                        )
                    });
                    let what = format!("d={d} k={k} threads={threads} block={block}");
                    assert_bitwise(&scalar.0, &reference, &format!("{what} blocked/scalar"));
                    assert_bitwise(&vector.0, &reference, &format!("{what} blocked/simd"));
                    assert_bitwise(&scalar.1, &reference, &format!("{what} parallel/scalar"));
                    assert_bitwise(&vector.1, &reference, &format!("{what} parallel/simd"));
                }
            }
        }
    }
    sg_par::set_num_threads(1);
}

/// The inverse of Alg. 6 transcribed point by point: per dimension, last
/// first, in ascending linear index, add the half-sum of the two 1-d
/// ancestors located with `idx2gp`/`gp2idx`. Same operation order as
/// the sweeps' stencil, so they must match it bitwise.
fn dehierarchize_literal(grid: &mut CompactGrid<f64>) {
    let d = grid.spec().dim();
    let indexer = grid.indexer().clone();
    let values = grid.values_mut();
    let (mut l, mut i) = (vec![0; d], vec![0; d]);
    for t in (0..d).rev() {
        for j in 0..values.len() {
            indexer.idx2gp(j as u64, &mut l, &mut i);
            let (lt, it) = (l[t], i[t]);
            let mut acc = 0.0;
            for side in [Side::Left, Side::Right] {
                if let Some((pl, pi)) = hierarchical_parent(lt, it, side) {
                    l[t] = pl;
                    i[t] = pi;
                    acc += values[indexer.gp2idx(&l, &i) as usize];
                }
            }
            values[j] += acc * 0.5;
        }
    }
}

#[test]
fn hierarchization_matrix_is_bitwise_identical_across_kernels_and_threads() {
    let _lock = threads_lock();
    let simd = detect();
    // d = 8 and 10 at level 4 have subspaces with non-zero level bits
    // both before and after the sweep dimension, so pole runs repeat
    // over leading bits and span several trailing slots; d = 2 and 3 at
    // levels 8 and 7 reach parent levels up to 6 under leading bits.
    let shapes = [(1, 5), (2, 8), (3, 7), (4, 3), (5, 3), (8, 4), (10, 4)];
    for (d, levels) in shapes {
        let spec = GridSpec::new(d, levels);
        let nodal = CompactGrid::from_fn(spec, |x| {
            x.iter().map(|&v| (4.0 * v).sin() + v * v).sum::<f64>()
        });
        // References: Alg. 6 and its inverse, point by point.
        let mut reference = nodal.clone();
        hierarchize_alg6_literal(&mut reference);
        let mut nodal_back = reference.clone();
        dehierarchize_literal(&mut nodal_back);
        for threads in [1usize, 2, 8] {
            sg_par::set_num_threads(threads);
            for sel in [
                KernelSelect::Force(KernelKind::Scalar),
                KernelSelect::Force(simd),
            ] {
                let [seq, par, back_seq, back_par] = with_kernel(sel, || {
                    let mut seq = nodal.clone();
                    hierarchize(&mut seq);
                    let mut par = nodal.clone();
                    hierarchize_parallel(&mut par);
                    let mut back_seq = reference.clone();
                    dehierarchize(&mut back_seq);
                    let mut back_par = reference.clone();
                    dehierarchize_parallel(&mut back_par);
                    [seq, par, back_seq, back_par]
                });
                let what = format!("d={d} L={levels} threads={threads} {sel:?}");
                assert_bitwise(seq.values(), reference.values(), &format!("{what} seq"));
                assert_bitwise(par.values(), reference.values(), &format!("{what} par"));
                let back = nodal_back.values();
                assert_bitwise(back_seq.values(), back, &format!("{what} dehier seq"));
                assert_bitwise(back_par.values(), back, &format!("{what} dehier par"));
            }
        }
    }
    sg_par::set_num_threads(1);
}

#[test]
fn parallel_sampling_is_bitwise_identical_to_sequential_across_threads() {
    let _lock = threads_lock();
    // The sampler walks 1024-point chunks. Group and subspace offsets
    // are odd (the root point precedes them), so every chunk after the
    // first starts inside a subspace. These shapes give chunks that
    // cross subspace and level-group boundaries, chunks that lie inside
    // one subspace of 1024+ points (d = 2), ragged last chunks, and a
    // grid smaller than one chunk (d = 4, level 3: 49 points).
    let shapes = [(2, 12), (3, 9), (10, 5), (4, 3)];
    for (d, levels) in shapes {
        let spec = GridSpec::new(d, levels);
        let f = |x: &[f64]| {
            x.iter()
                .enumerate()
                .map(|(t, &v)| (t as f64 + 1.0) * v + (3.0 * v).sin())
                .sum::<f64>()
        };
        let f32_of = |x: &[f64]| f(x) as f32;
        let want = CompactGrid::from_fn(spec, f);
        let want32 = CompactGrid::from_fn(spec, f32_of);
        for threads in [1usize, 2, 8] {
            sg_par::set_num_threads(threads);
            let what = format!("d={d} L={levels} threads={threads}");
            let got = CompactGrid::from_fn_parallel(spec, f);
            assert_bitwise(got.values(), want.values(), &format!("{what} f64"));
            let got32 = CompactGrid::from_fn_parallel(spec, f32_of);
            let bits =
                |g: &CompactGrid<f32>| g.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got32), bits(&want32), "{what} f32");
        }
    }
    sg_par::set_num_threads(1);
}

#[test]
fn empty_batch_and_single_subspace_edges() {
    let simd = detect();
    // Empty batch: every kernel and entry point returns an empty vector.
    let grid = surplus_grid(GridSpec::new(3, 4));
    for sel in [
        KernelSelect::Auto,
        KernelSelect::Force(KernelKind::Scalar),
        KernelSelect::Force(simd),
    ] {
        let (blocked, par) = with_kernel(sel, || {
            (
                evaluate_batch_blocked(&grid, &[], 8),
                evaluate_batch_parallel(&grid, &[], 8),
            )
        });
        assert!(blocked.is_empty() && par.is_empty(), "{sel:?}");
    }
    // Single-subspace grid (level 1: the root subspace alone) — the
    // hierarchization sweeps have nothing to do (l_t = 0 everywhere is
    // skipped; d=1 level-1 has one point with no ancestors), and
    // evaluation reduces to the root basis product.
    let spec = GridSpec::new(3, 1);
    let nodal = CompactGrid::from_fn(spec, |x| x.iter().sum::<f64>());
    let xs = queries(3, 9);
    let reference = with_kernel(KernelSelect::Force(KernelKind::Scalar), || {
        let mut g = nodal.clone();
        hierarchize(&mut g);
        evaluate_batch(&g, &xs)
    });
    let vector = with_kernel(KernelSelect::Force(simd), || {
        let mut g = nodal.clone();
        hierarchize(&mut g);
        evaluate_batch_blocked(&g, &xs, 4)
    });
    assert_bitwise(&vector, &reference, "single-subspace");
}

#[test]
fn selection_vocabulary_and_typed_errors() {
    assert_eq!(parse_select("auto"), Ok(KernelSelect::Auto));
    assert_eq!(parse_select(""), Ok(KernelSelect::Auto));
    assert_eq!(
        parse_select(" Scalar "),
        Ok(KernelSelect::Force(KernelKind::Scalar))
    );
    assert_eq!(
        parse_select("AVX2"),
        Ok(KernelSelect::Force(KernelKind::Avx2))
    );
    assert_eq!(
        parse_select("neon"),
        Ok(KernelSelect::Force(KernelKind::Neon))
    );
    // Unknown values are a typed error whose message names the variable
    // and the accepted vocabulary — not a panic, not a silent fallback.
    let err = parse_select("bogus").unwrap_err();
    assert_eq!(err, KernelError::Unknown("bogus".into()));
    let msg = err.to_string();
    assert!(msg.contains("SG_KERNEL") && msg.contains("bogus"), "{msg}");

    // Forcing an ISA the host lacks resolves to a typed Unavailable
    // error, and the hot-path dispatch degrades to scalar instead of
    // crashing.
    let absent = if cfg!(target_arch = "x86_64") {
        KernelKind::Neon
    } else {
        KernelKind::Avx2
    };
    with_kernel(KernelSelect::Force(absent), || {
        assert_eq!(
            sg_core::kernel::resolve(),
            Err(KernelError::Unavailable(absent))
        );
        assert_eq!(sg_core::kernel::active(), KernelKind::Scalar);
    });
}
