//! Replays the failing-case corpus (`tests/corpus/fuzz_seeds.txt`)
//! through the sg-fuzz differential executor, and the fault-campaign
//! canaries (`tests/corpus/fault_seeds.txt`) through their reproducers.
//!
//! Each line of the corpus is an `<op> <seed>` pair: either a seed that
//! once exposed a real divergence (kept forever as a regression guard)
//! or a pinned clean canary. The corpus format is the same `op`/`seed`
//! vocabulary the fuzzer's reproducer lines print, so promoting a new
//! finding into the corpus is a one-line paste.

use sg_fuzz::{diff, parse_faults, Case, Injection, Op};

/// The non-comment lines of `tests/corpus/<file>`, split on whitespace,
/// with the trailing seed parsed.
fn corpus_lines(file: &str) -> Vec<(Vec<String>, u64)> {
    let path = format!("{}/../../tests/corpus/{file}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(path).expect("corpus file readable");
    let mut entries = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut fields: Vec<String> = line.split_whitespace().map(String::from).collect();
        let seed = fields.pop().unwrap();
        let seed = seed
            .strip_prefix("0x")
            .map(|h| u64::from_str_radix(h, 16))
            .unwrap_or_else(|| seed.parse())
            .unwrap_or_else(|e| panic!("{file} line {}: bad seed: {e}", lineno + 1));
        entries.push((fields, seed));
    }
    entries
}

fn corpus() -> Vec<(Op, u64)> {
    corpus_lines("fuzz_seeds.txt")
        .into_iter()
        .map(|(fields, seed)| {
            let [op] = fields.as_slice() else {
                panic!("fuzz_seeds.txt: expected `<op> <seed>`, got {fields:?}");
            };
            let op = Op::parse(op).unwrap_or_else(|| panic!("unknown op {op:?}"));
            (op, seed)
        })
        .collect()
}

#[test]
fn corpus_is_non_trivial() {
    let entries = corpus();
    assert!(entries.len() >= 10, "corpus shrank to {}", entries.len());
    // The corpus must keep exercising the op that once diverged.
    assert!(entries.iter().any(|(op, _)| *op == Op::Adaptive));
}

#[test]
fn every_corpus_seed_passes_the_differential_executor() {
    for (op, seed) in corpus() {
        let case = Case::new(op, seed);
        if let Err(failure) = diff::run_case(&case, Injection::None) {
            panic!(
                "corpus regression: op={} seed={seed:#x} diverged again: {}",
                op.name(),
                failure.detail
            );
        }
    }
}

#[test]
fn fault_canary_corpus_replays_clean() {
    let campaigns = sg_fuzz::campaign::campaigns();
    let mut canaries = vec![0usize; campaigns.len()];
    for (fields, seed) in corpus_lines("fault_seeds.txt") {
        let [campaign, class] = fields.as_slice() else {
            panic!("fault_seeds.txt: expected `<campaign> <class> <seed>`, got {fields:?}");
        };
        // Exactly what the printed reproducer runs: case 0 of a one-class
        // campaign at the canary's seed.
        let report = parse_faults(&format!("{campaign}:{class}=1")).unwrap()[0].run(seed);
        assert_eq!(report.cases, 1);
        assert!(
            report.clean(),
            "canary {campaign} {class} {seed:#x} violated the contract: {:#?}",
            report.violations
        );
        canaries[campaigns
            .iter()
            .position(|c| c.campaign == campaign)
            .unwrap()] += 1;
    }
    for (c, n) in campaigns.iter().zip(canaries) {
        let classes = c.classes.len();
        assert!(
            n >= classes,
            "{}: {n} canaries for {classes} classes",
            c.campaign
        );
    }
}
