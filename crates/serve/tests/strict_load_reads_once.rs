//! A strict model load reads its snapshot once: every section is
//! CRC-checked exactly one time, by one `recover_snapshot` pass (only
//! built with the `telemetry` feature). This file holds exactly one
//! test, since the instrument registry is global and a concurrently
//! running test could advance the same counter.
#![cfg(feature = "telemetry")]

use sg_core::grid::CompactGrid;
use sg_core::level::GridSpec;
use sg_serve::fleet::Model;
use sg_serve::Fleet;

#[test]
fn strict_load_verifies_each_section_exactly_once() {
    const LEVELS: usize = 5;
    let grid = CompactGrid::from_fn(GridSpec::new(3, LEVELS), |x| x[0] * x[1] + x[2]);
    let path =
        std::env::temp_dir().join(format!("sg-serve-strict-load-{}.sgcs", std::process::id()));
    sg_io::write_snapshot_file(&grid, &path, "strict-load").unwrap();

    let verified = || {
        sg_telemetry::snapshot()
            .counter("io.snapshot.sections_verified")
            .unwrap_or(0)
    };
    let before = verified();
    let model = Model::from_snapshot_file("m", &path, 1).unwrap();
    assert_eq!(model.provenance, "strict-load");
    assert_eq!(
        verified() - before,
        LEVELS as u64,
        "Model::from_snapshot_file"
    );

    let before = verified();
    Fleet::new(2).load("m", &path).unwrap();
    assert_eq!(verified() - before, LEVELS as u64, "Fleet::load");
    std::fs::remove_file(&path).ok();
}
