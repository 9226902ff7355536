//! `SGC2` — crash-safe sectioned snapshots of compact sparse grids.
//!
//! The legacy `SGC1` format ([`crate::encode`]) is all-or-nothing: one
//! checksum over the whole buffer, so a torn write or one flipped bit
//! discards the entire grid. Each level group `|l|₁ = n` is a
//! *contiguous* range of the coefficient array
//! ([`sg_core::bijection::GridIndexer::group_range`]), so `SGC2` stores
//! one independently checksummed section per group, in ascending `n`, in
//! the sectioned container it shares with the `SGCM` manifests (DESIGN
//! §13). After the shared preamble (magic `"SGC2"`) the header holds the
//! level L (= section count, u32), the coefficient count N (u64) and the
//! provenance stamp.
//!
//! Recovery ([`recover_snapshot`]) ends in exactly one of three states:
//! full recovery (bitwise-identical coefficients), a [`DegradedGrid`]
//! that enumerates the lost level groups (coarse groups carry most of
//! the interpolant mass, so degraded evaluation stays bounded), or a
//! typed [`SgError`] — never a panic. Writing goes through a pluggable
//! [`SnapshotSink`]: [`FileSink`] is atomic (temp file → flush →
//! rename), [`FaultSink`] injects ENOSPC, torn writes and lost dirents.

use crate::frame::{self, Reader};
pub use crate::frame::{
    crc64, FaultSink, FileSink, MemorySink, SectionReport, SectionStatus, SnapshotSink, WriteFault,
    MAX_PROVENANCE, SECTION_MARKER,
};
use sg_core::bijection::GridIndexer;
use sg_core::error::SgError;
use sg_core::grid::CompactGrid;
use sg_core::level::GridSpec;
use sg_core::real::Real;

tel! {
    static SNAP_ENCODE_BYTES: sg_telemetry::Counter =
        sg_telemetry::Counter::new("io.snapshot.encode_bytes");
    static SNAP_SECTIONS_WRITTEN: sg_telemetry::Counter =
        sg_telemetry::Counter::new("io.snapshot.sections_written");
    static SNAP_SECTIONS_VERIFIED: sg_telemetry::Counter =
        sg_telemetry::Counter::new("io.snapshot.sections_verified");
    static SNAP_SECTIONS_CORRUPT: sg_telemetry::Counter =
        sg_telemetry::Counter::new("io.snapshot.sections_corrupt");
    static SNAP_RECOVER_FULL: sg_telemetry::Counter =
        sg_telemetry::Counter::new("io.snapshot.recover_full");
    static SNAP_RECOVER_DEGRADED: sg_telemetry::Counter =
        sg_telemetry::Counter::new("io.snapshot.recover_degraded");
    static SNAP_RECOVER_FAILED: sg_telemetry::Counter =
        sg_telemetry::Counter::new("io.snapshot.recover_failed");
    static SNAP_HEADER_FALLBACKS: sg_telemetry::Counter =
        sg_telemetry::Counter::new("io.snapshot.footer_fallbacks");
    /// Per-section verification latency (CRC + structural checks).
    static SECTION_VERIFY_NS: sg_telemetry::Histogram =
        sg_telemetry::Histogram::new("io.snapshot.section_verify_ns");
    /// Whole-snapshot write latency through a sink.
    static SNAP_WRITE_NS: sg_telemetry::Histogram =
        sg_telemetry::Histogram::new("io.snapshot.write_ns");
}

/// Snapshot format magic.
pub const SNAP_MAGIC: [u8; 4] = *b"SGC2";
/// Trailer magic locating the footer from the end of the file.
pub const TRAILER_MAGIC: [u8; 4] = *b"2CGS";
/// Current format version.
pub const SNAP_VERSION: u32 = 1;

// ---------------------------------------------------------------------------
// Header
// ---------------------------------------------------------------------------

/// Parsed identity of a snapshot (from its header or footer).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotInfo {
    /// Format version.
    pub version: u32,
    /// Value-type tag (0 = `f32`, 1 = `f64`).
    pub value_type: u8,
    /// Dimensionality.
    pub dim: usize,
    /// Refinement level (= number of sections).
    pub levels: usize,
    /// Total coefficient count.
    pub num_points: u64,
    /// Free-form provenance stamp recorded at write time.
    pub provenance: String,
}

fn encode_header(info: &SnapshotInfo) -> Vec<u8> {
    let mut buf = frame::put_preamble(SNAP_MAGIC, info.version, info.value_type, info.dim);
    buf.extend_from_slice(&(info.levels as u32).to_le_bytes());
    buf.extend_from_slice(&info.num_points.to_le_bytes());
    frame::put_provenance(&mut buf, &info.provenance);
    frame::seal(&mut buf);
    buf
}

/// Parse and CRC-verify a header block at the start of `b`. Returns the
/// info and the header's total byte length; `None` on any structural or
/// checksum failure.
fn parse_header(b: &[u8]) -> Option<(SnapshotInfo, usize)> {
    let mut r = Reader::new(b);
    let (version, value_type, dim) = r.preamble(SNAP_MAGIC)?;
    let levels = r.u32()? as usize;
    let num_points = r.u64()?;
    let provenance = r.provenance()?;
    let len = r.sealed()?;
    let info = SnapshotInfo {
        version,
        value_type,
        dim,
        levels,
        num_points,
        provenance,
    };
    Some((info, len))
}

/// Coefficients per level group: the section payload sizes.
fn group_points(indexer: &GridIndexer) -> Vec<u64> {
    (0..indexer.spec().levels())
        .map(|n| {
            let r = indexer.group_range(n);
            r.end - r.start
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

/// Stream a sectioned snapshot of `grid` into `sink`: header, one section
/// per level group, footer (header copy) + trailer, then `flush` and
/// `commit`. Any sink error aborts cleanly — with [`FileSink`] the
/// destination file is untouched.
pub fn write_snapshot<T: Real>(
    grid: &CompactGrid<T>,
    sink: &mut dyn SnapshotSink,
    provenance: &str,
) -> Result<(), SgError> {
    tel! { let write_t0 = std::time::Instant::now(); }
    let info = SnapshotInfo {
        version: SNAP_VERSION,
        value_type: frame::type_tag::<T>(),
        dim: grid.spec().dim(),
        levels: grid.spec().levels(),
        num_points: grid.len() as u64,
        provenance: frame::trim_provenance(provenance).to_string(),
    };
    let mut w = frame::Writer::begin(sink, encode_header(&info))?;
    for n in 0..grid.spec().levels() {
        let r = grid.indexer().group_range(n);
        let values = grid
            .values()
            .get(r.start as usize..r.end as usize)
            .ok_or_else(|| SgError::Corrupt("grid value array shorter than its spec".into()))?;
        w.section(values)?;
        tel! { SNAP_SECTIONS_WRITTEN.add(1); }
    }
    let total = w.finish(TRAILER_MAGIC)?;
    tel! {
        SNAP_ENCODE_BYTES.add(total as u64);
        SNAP_WRITE_NS.record(write_t0.elapsed().as_nanos() as u64);
    }
    let _ = total;
    Ok(())
}

/// Encode a snapshot into a byte vector (a [`MemorySink`] convenience).
pub fn encode_snapshot<T: Real>(grid: &CompactGrid<T>, provenance: &str) -> Vec<u8> {
    let mut sink = MemorySink::new();
    write_snapshot(grid, &mut sink, provenance).expect("memory sink cannot fail");
    sink.into_published().expect("memory sink commits")
}

/// Write a snapshot atomically to `path` (temp file → flush → rename).
pub fn write_snapshot_file<T: Real>(
    grid: &CompactGrid<T>,
    path: impl AsRef<std::path::Path>,
    provenance: &str,
) -> Result<(), SgError> {
    let mut sink = FileSink::create(path)?;
    write_snapshot(grid, &mut sink, provenance)
}

// ---------------------------------------------------------------------------
// Reading / recovery
// ---------------------------------------------------------------------------

/// A grid recovered from a damaged snapshot: intact level groups carry
/// their original (bitwise-identical) coefficients, lost groups are
/// zero-filled and enumerated in [`Self::lost_groups`].
///
/// Because hierarchical surpluses of lost (finer) groups simply drop out
/// of the interpolant, [`Self::evaluate`] answers from the recovered
/// groups only — a bounded-error degraded mode, since coarse groups carry
/// most of the interpolant mass. [`Self::repair_with`] reconstructs the
/// lost groups exactly by re-sampling and re-hierarchizing the original
/// function.
#[derive(Debug, Clone)]
pub struct DegradedGrid<T> {
    grid: CompactGrid<T>,
    lost: Vec<usize>,
}

impl<T: Real> DegradedGrid<T> {
    /// The level groups whose sections failed verification (empty ⇔ the
    /// recovery was complete).
    pub fn lost_groups(&self) -> &[usize] {
        &self.lost
    }

    /// True when every section verified and the coefficients are
    /// bitwise-identical to what was written.
    pub fn is_complete(&self) -> bool {
        self.lost.is_empty()
    }

    /// The underlying grid (lost groups zero-filled).
    pub fn grid(&self) -> &CompactGrid<T> {
        &self.grid
    }

    /// Evaluate the interpolant using only the recovered level groups
    /// (lost surpluses contribute zero).
    pub fn evaluate(&self, x: &[f64]) -> T {
        sg_core::evaluate::evaluate(&self.grid, x)
    }

    /// Reconstruct the lost level groups exactly: re-sample `f` on the
    /// full grid, re-hierarchize, and copy the recomputed surpluses into
    /// the lost ranges. Recovered groups keep their original bytes.
    /// Returns the now-complete grid.
    ///
    /// `f` must be the function the snapshot was built from (nodal
    /// sampling followed by hierarchization); hierarchization is
    /// deterministic, so the reconstructed surpluses are bitwise
    /// identical to the lost originals.
    pub fn repair_with(mut self, f: impl FnMut(&[f64]) -> T) -> CompactGrid<T> {
        if self.lost.is_empty() {
            return self.grid;
        }
        let spec = *self.grid.spec();
        let mut reference = CompactGrid::from_fn(spec, f);
        sg_core::hierarchize::hierarchize(&mut reference);
        for &n in &self.lost {
            let r = self.grid.indexer().group_range(n);
            let (s, e) = (r.start as usize, r.end as usize);
            self.grid.values_mut()[s..e].copy_from_slice(&reference.values()[s..e]);
        }
        self.lost.clear();
        self.grid
    }

    /// Consume into the underlying grid, failing with
    /// [`SgError::Degraded`] when level groups are still missing.
    pub fn into_complete(self) -> Result<CompactGrid<T>, SgError> {
        if self.lost.is_empty() {
            Ok(self.grid)
        } else {
            Err(SgError::Degraded {
                lost_groups: self.lost,
            })
        }
    }
}

/// Everything [`recover_snapshot`] learned about a snapshot.
#[derive(Debug, Clone)]
pub struct Recovery<T> {
    /// The salvaged grid (complete or degraded).
    pub grid: DegradedGrid<T>,
    /// Per-section verification records, in level-group order.
    pub sections: Vec<SectionReport>,
    /// True when the leading header was corrupt and the identity came
    /// from the footer copy.
    pub used_footer: bool,
    /// Snapshot identity and provenance.
    pub info: SnapshotInfo,
}

/// Parse whichever of header/footer is intact, validate the spec, and
/// return `(info, header_len, spec, used_footer)`.
fn snapshot_identity(bytes: &[u8]) -> Result<(SnapshotInfo, usize, GridSpec, bool), SgError> {
    let Some((info, hlen, used_footer)) = frame::read_identity(bytes, TRAILER_MAGIC, parse_header)
    else {
        tel! { SNAP_RECOVER_FAILED.add(1); }
        return Err(SgError::Corrupt(
            "snapshot header and footer both unreadable".into(),
        ));
    };
    if used_footer {
        tel! { SNAP_HEADER_FALLBACKS.add(1); }
    }
    frame::check_version_and_tag("snapshot", info.version, SNAP_VERSION, info.value_type)?;
    if info.dim > 64 {
        return Err(SgError::Corrupt(format!(
            "implausible dimensionality {}",
            info.dim
        )));
    }
    let spec = GridSpec::try_new(info.dim, info.levels)
        .map_err(|e| SgError::Corrupt(format!("invalid grid shape in header: {e}")))?;
    let n = spec.try_num_points()?;
    if n != info.num_points {
        return Err(SgError::Corrupt(format!(
            "header count {} but grid shape implies {n}",
            info.num_points
        )));
    }
    Ok((info, hlen, spec, used_footer))
}

/// Count one verified section under the snapshot's instruments.
fn count_section(report: &SectionReport) {
    tel! {
        match report.status {
            SectionStatus::Intact => SNAP_SECTIONS_VERIFIED.add(1),
            _ => SNAP_SECTIONS_CORRUPT.add(1),
        }
    }
    let _ = report;
}

/// Recover everything salvageable from a snapshot.
///
/// Section offsets are recomputed from the spec (not from the possibly
/// damaged section headers), so one corrupt section never hides the
/// next. The result's grid holds bitwise-identical coefficients for
/// every intact section; lost groups are zero-filled and enumerated.
pub fn recover_snapshot<T: Real>(bytes: &[u8]) -> Result<Recovery<T>, SgError> {
    let (info, hlen, spec, used_footer) = snapshot_identity(bytes)?;
    frame::expect_tag::<T>(info.value_type)?;
    let mut grid = CompactGrid::<T>::try_new(spec)?;
    let points = group_points(grid.indexer());
    let mut lost = Vec::new();
    // Each section's latency runs from the end of the previous one, so it
    // covers the CRC, the structural checks and the copy.
    tel! { let mut verify_t0 = std::time::Instant::now(); }
    let sections = frame::walk_sections(bytes, hlen, &points, T::size_bytes(), |s, payload| {
        match payload {
            Some(payload) => {
                let start = grid.indexer().group_offset(s.group) as usize;
                let out = &mut grid.values_mut()[start..start + s.points as usize];
                frame::get_values::<T>(payload, out);
            }
            None => lost.push(s.group),
        }
        count_section(s);
        tel! {
            SECTION_VERIFY_NS.record(verify_t0.elapsed().as_nanos() as u64);
            verify_t0 = std::time::Instant::now();
        }
    });
    tel! {
        if lost.is_empty() {
            SNAP_RECOVER_FULL.add(1);
        } else {
            SNAP_RECOVER_DEGRADED.add(1);
        }
    }
    Ok(Recovery {
        grid: DegradedGrid { grid, lost },
        sections,
        used_footer,
        info,
    })
}

/// Strict read: every section must verify. A damaged snapshot yields
/// [`SgError::Degraded`] (salvage available through [`recover_snapshot`])
/// or [`SgError::Corrupt`].
pub fn read_snapshot<T: Real>(bytes: &[u8]) -> Result<CompactGrid<T>, SgError> {
    recover_snapshot::<T>(bytes)?.grid.into_complete()
}

/// Read a snapshot file strictly (see [`read_snapshot`]).
pub fn read_snapshot_file<T: Real>(
    path: impl AsRef<std::path::Path>,
) -> Result<CompactGrid<T>, SgError> {
    let bytes = std::fs::read(path)?;
    read_snapshot(&bytes)
}

/// Verify a snapshot without materializing the grid: identity plus a
/// per-section status table. Works for either value type.
pub fn verify_snapshot(bytes: &[u8]) -> Result<(SnapshotInfo, Vec<SectionReport>, bool), SgError> {
    let (info, hlen, spec, used_footer) = snapshot_identity(bytes)?;
    let points = group_points(&GridIndexer::try_new(spec)?);
    let width = frame::tag_width(info.value_type);
    let sections = frame::walk_sections(bytes, hlen, &points, width, |s, _| count_section(s));
    Ok((info, sections, used_footer))
}

/// Byte offsets of every boundary in an (intact-header) snapshot: start
/// of section 0, start of each subsequent section, end of the last
/// section, and the total length. Used by the fault-injection harness to
/// tear writes at exact section boundaries.
pub fn section_boundaries(bytes: &[u8]) -> Result<Vec<usize>, SgError> {
    let (info, hlen, spec, _) = snapshot_identity(bytes)?;
    let width = frame::tag_width(info.value_type);
    let points = group_points(&GridIndexer::try_new(spec)?);
    let mut offsets = frame::layout(hlen, &points, width);
    offsets.push(bytes.len());
    Ok(offsets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{SECTION_FIXED, TRAILER_LEN};
    use sg_core::functions::TestFunction;

    fn sample_grid() -> CompactGrid<f64> {
        let mut g = CompactGrid::from_fn(GridSpec::new(3, 4), |x| TestFunction::Gaussian.eval(x));
        sg_core::hierarchize::hierarchize(&mut g);
        g
    }

    #[test]
    fn roundtrip_is_bitwise() {
        let g = sample_grid();
        let bytes = encode_snapshot(&g, "unit-test");
        let back: CompactGrid<f64> = read_snapshot(&bytes).unwrap();
        assert_eq!(back.spec(), g.spec());
        assert_eq!(back.values(), g.values());
    }

    #[test]
    fn roundtrip_f32() {
        let g: CompactGrid<f32> =
            CompactGrid::from_fn(GridSpec::new(2, 5), |x| (x[0] - x[1]) as f32);
        let bytes = encode_snapshot(&g, "");
        let back: CompactGrid<f32> = read_snapshot(&bytes).unwrap();
        assert_eq!(back.values(), g.values());
    }

    #[test]
    fn provenance_survives() {
        let g = sample_grid();
        let bytes = encode_snapshot(&g, "origin: unit test α");
        let r = recover_snapshot::<f64>(&bytes).unwrap();
        assert_eq!(r.info.provenance, "origin: unit test α");
        assert!(!r.used_footer);
    }

    #[test]
    fn oversized_provenance_is_trimmed_on_a_char_boundary() {
        let g = sample_grid();
        let stamp = "é".repeat(MAX_PROVENANCE); // 2 bytes per char
        let bytes = encode_snapshot(&g, &stamp);
        let r = recover_snapshot::<f64>(&bytes).unwrap();
        assert!(r.info.provenance.len() <= MAX_PROVENANCE);
        assert!(r.info.provenance.chars().all(|c| c == 'é'));
    }

    #[test]
    fn corrupt_header_falls_back_to_footer() {
        let g = sample_grid();
        let mut bytes = encode_snapshot(&g, "prov");
        bytes[5] ^= 0xFF; // smash the leading header
        let r = recover_snapshot::<f64>(&bytes).unwrap();
        assert!(r.used_footer);
        assert!(r.grid.is_complete());
        assert_eq!(r.grid.grid().values(), g.values());
    }

    #[test]
    fn corrupt_section_is_enumerated_and_rest_salvaged() {
        let g = sample_grid();
        let mut bytes = encode_snapshot(&g, "");
        let bounds = section_boundaries(&bytes).unwrap();
        // Flip a payload bit inside section 2.
        let mid = bounds[2] + SECTION_FIXED + 3;
        bytes[mid] ^= 0x10;
        let r = recover_snapshot::<f64>(&bytes).unwrap();
        assert_eq!(r.grid.lost_groups(), &[2]);
        assert_eq!(r.sections[2].status, SectionStatus::ChecksumMismatch);
        // Every other group is bitwise intact.
        for n in [0usize, 1, 3] {
            let range = g.indexer().group_range(n);
            let (s, e) = (range.start as usize, range.end as usize);
            assert_eq!(&r.grid.grid().values()[s..e], &g.values()[s..e]);
        }
        // Strict read reports the same groups in a typed error.
        assert_eq!(
            read_snapshot::<f64>(&bytes).err(),
            Some(SgError::Degraded {
                lost_groups: vec![2]
            })
        );
    }

    #[test]
    fn repair_reconstructs_lost_groups_bitwise() {
        let g = sample_grid();
        let mut bytes = encode_snapshot(&g, "");
        let bounds = section_boundaries(&bytes).unwrap();
        bytes[bounds[3] + SECTION_FIXED + 1] ^= 0x04;
        let r = recover_snapshot::<f64>(&bytes).unwrap();
        assert_eq!(r.grid.lost_groups(), &[3]);
        let repaired = r.grid.repair_with(|x| TestFunction::Gaussian.eval(x));
        assert_eq!(repaired.values(), g.values());
    }

    #[test]
    fn degraded_evaluation_stays_bounded() {
        let g = sample_grid();
        let mut bytes = encode_snapshot(&g, "");
        let bounds = section_boundaries(&bytes).unwrap();
        // Lose the finest group — the smallest surpluses.
        let finest = g.spec().levels() - 1;
        bytes[bounds[finest] + SECTION_FIXED + 1] ^= 0x01;
        let r = recover_snapshot::<f64>(&bytes).unwrap();
        assert_eq!(r.grid.lost_groups(), &[finest]);
        let range = g.indexer().group_range(finest);
        let lost_mass: f64 = g.values()[range.start as usize..range.end as usize]
            .iter()
            .map(|v| v.abs())
            .sum();
        for x in sg_core::functions::halton_points(3, 20).chunks_exact(3) {
            let full = sg_core::evaluate::evaluate(&g, x);
            let degraded = r.grid.evaluate(x);
            assert!(
                (full - degraded).abs() <= lost_mass + 1e-12,
                "degraded answer leaves the lost-mass bound at {x:?}"
            );
        }
    }

    #[test]
    fn truncation_at_every_section_boundary_recovers_the_prefix() {
        let g = sample_grid();
        let bytes = encode_snapshot(&g, "p");
        let bounds = section_boundaries(&bytes).unwrap();
        let levels = g.spec().levels();
        for (k, &cut) in bounds.iter().enumerate().take(levels + 1) {
            let torn = &bytes[..cut];
            let r = recover_snapshot::<f64>(torn).unwrap();
            // Cutting at the start of section k keeps groups 0..k intact.
            let expect_lost: Vec<usize> = (k..levels).collect();
            assert_eq!(r.grid.lost_groups(), &expect_lost[..], "cut at {cut}");
            for n in 0..k {
                let range = g.indexer().group_range(n);
                let (s, e) = (range.start as usize, range.end as usize);
                assert_eq!(&r.grid.grid().values()[s..e], &g.values()[s..e]);
            }
        }
    }

    #[test]
    fn enospc_during_write_fails_cleanly_and_never_publishes() {
        let g = sample_grid();
        let full_len = encode_snapshot(&g, "x").len();
        for after in [0usize, 10, 40, full_len / 2, full_len - 1] {
            let mut sink = FaultSink::new(WriteFault::Enospc { after_bytes: after });
            let r = write_snapshot(&g, &mut sink, "x");
            assert!(matches!(r, Err(SgError::Io(_))), "after={after}: {r:?}");
            assert!(!sink.committed(), "ENOSPC must not publish");
            assert!(sink.into_published().is_none());
        }
    }

    #[test]
    fn both_headers_gone_is_a_clean_error() {
        let g = sample_grid();
        let mut bytes = encode_snapshot(&g, "");
        bytes[1] ^= 0xFF;
        let n = bytes.len();
        bytes[n - 2] ^= 0xFF; // trailer magic
        assert!(matches!(
            recover_snapshot::<f64>(&bytes),
            Err(SgError::Corrupt(_))
        ));
        // Tiny or empty buffers too.
        for len in 0..TRAILER_LEN {
            assert!(recover_snapshot::<f64>(&bytes[..len]).is_err());
        }
    }

    #[test]
    fn value_type_mismatch_is_typed() {
        let g = sample_grid();
        let bytes = encode_snapshot(&g, "");
        assert!(matches!(
            recover_snapshot::<f32>(&bytes),
            Err(SgError::Corrupt(ref m)) if m.contains("value type")
        ));
    }

    #[test]
    fn file_sink_is_atomic() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("sg-snapshot-atomic-{}.sgcs", std::process::id()));
        let g = sample_grid();
        // A failed write must leave the previous file intact.
        std::fs::write(&path, b"previous content").unwrap();
        {
            let mut sink = FileSink::create(&path).unwrap();
            sink.write(b"partial").unwrap();
            // Dropped without commit.
        }
        assert_eq!(std::fs::read(&path).unwrap(), b"previous content");
        // A committed write replaces it.
        write_snapshot_file(&g, &path, "atomic-test").unwrap();
        let back: CompactGrid<f64> = read_snapshot_file(&path).unwrap();
        assert_eq!(back.values(), g.values());
        // No temp files left behind (any `<path>.tmp.<pid>.<seq>`).
        let prefix = format!("{}.tmp.", path.file_name().unwrap().to_str().unwrap());
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().starts_with(&prefix))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
        std::fs::remove_file(&path).ok();
    }

    /// Regression test for the temp-path collision: two threads
    /// checkpointing the *same* destination concurrently must use
    /// distinct temp files (with the shared `.tmp.<pid>` suffix they
    /// interleaved writes into one), and whichever rename lands last
    /// must leave an intact snapshot equal to one of the two grids.
    #[test]
    fn concurrent_checkpoints_to_one_path_commit_intact() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!(
            "sg-snapshot-concurrent-{}.sgcs",
            std::process::id()
        ));
        std::fs::remove_file(&path).ok();
        let g1 = sample_grid();
        let mut g2 = sample_grid();
        for v in g2.values_mut() {
            *v *= 2.0;
        }
        // Distinct sinks for one path must get distinct temp files.
        let a = FileSink::create(&path).unwrap();
        let b = FileSink::create(&path).unwrap();
        assert_ne!(a.tmp_path(), b.tmp_path(), "temp paths collide");
        drop((a, b));
        for _ in 0..20 {
            std::thread::scope(|s| {
                let (p, r1, r2) = (&path, &g1, &g2);
                let h1 = s.spawn(move || write_snapshot_file(r1, p, "writer-1"));
                let h2 = s.spawn(move || write_snapshot_file(r2, p, "writer-2"));
                h1.join().unwrap().unwrap();
                h2.join().unwrap().unwrap();
            });
            // Whoever won, the published snapshot must verify and decode
            // bitwise to one of the writers' grids.
            let back: CompactGrid<f64> = read_snapshot_file(&path).unwrap();
            assert!(
                back.values() == g1.values() || back.values() == g2.values(),
                "published snapshot matches neither writer"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    /// The lost-dirent fault class: the writer sees a successful commit,
    /// yet the published bytes vanish. Recovery is falling back to the
    /// previous snapshot, which must still be fully intact.
    #[test]
    fn lost_dirent_commits_but_publishes_nothing() {
        let g_old = sample_grid();
        let mut g_new = sample_grid();
        for v in g_new.values_mut() {
            *v += 1.0;
        }
        // The previous checkpoint, durably published.
        let mut prev = MemorySink::new();
        write_snapshot(&g_old, &mut prev, "previous").unwrap();
        let prev_bytes = prev.into_published().unwrap();
        // The new checkpoint hits the lost-dirent fault.
        let mut sink = FaultSink::new(WriteFault::LostDirent);
        write_snapshot(&g_new, &mut sink, "next").unwrap();
        assert!(sink.committed(), "the writer must believe commit worked");
        assert!(
            sink.into_published().is_none(),
            "a lost dirent publishes nothing"
        );
        // The reader falls back to the previous snapshot: full recovery.
        let r = recover_snapshot::<f64>(&prev_bytes).unwrap();
        assert!(r.grid.lost_groups().is_empty());
        assert_eq!(r.grid.grid().values(), g_old.values());
    }

    #[test]
    fn torn_sink_publishes_a_recoverable_prefix() {
        let g = sample_grid();
        let full = encode_snapshot(&g, "t");
        let bounds = section_boundaries(&full).unwrap();
        // Tear exactly at the third section boundary: groups 0..2 survive.
        let mut sink = FaultSink::new(WriteFault::Torn {
            after_bytes: bounds[2],
        });
        write_snapshot(&g, &mut sink, "t").unwrap();
        let published = sink.into_published().expect("torn write still commits");
        assert_eq!(published.len(), bounds[2]);
        let r = recover_snapshot::<f64>(&published).unwrap();
        assert_eq!(r.grid.lost_groups(), &[2, 3]);
    }

    #[test]
    fn verify_reports_without_materializing() {
        let g = sample_grid();
        let mut bytes = encode_snapshot(&g, "verify");
        let (info, sections, used_footer) = verify_snapshot(&bytes).unwrap();
        assert_eq!(info.dim, 3);
        assert!(!used_footer);
        assert!(sections.iter().all(|s| s.status == SectionStatus::Intact));
        let bounds = section_boundaries(&bytes).unwrap();
        bytes[bounds[1] + 5] ^= 0x80;
        let (_, sections, _) = verify_snapshot(&bytes).unwrap();
        assert_eq!(sections[1].status, SectionStatus::BadHeader);
        assert_eq!(
            sections
                .iter()
                .filter(|s| s.status == SectionStatus::Intact)
                .count(),
            3
        );
    }
}
