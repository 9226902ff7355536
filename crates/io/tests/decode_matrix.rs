//! Parameterized decode-failure matrix: every `DecodeError` variant for
//! the legacy `SGC1` codec and every failure class of the `SGC2`
//! sectioned snapshot, each provoked by a minimal crafted mutation —
//! truncation at each field boundary, bad magic, value-type mismatches,
//! checksum flips, and (the regression that motivated the fallible
//! constructors) checksum-valid headers whose point count overflows u64.

use sg_core::error::SgError;
use sg_core::functions::TestFunction;
use sg_core::grid::CompactGrid;
use sg_core::level::GridSpec;
use sg_io::{crc64, DecodeError, SectionStatus};

fn grid() -> CompactGrid<f64> {
    let mut g = CompactGrid::from_fn(GridSpec::new(3, 4), |x| TestFunction::Gaussian.eval(x));
    sg_core::hierarchize::hierarchize(&mut g);
    g
}

/// FNV-1a 64 (the SGC1 trailing checksum), for re-stamping mutants so
/// only the intended field is wrong.
fn fnv1a(data: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn restamp_sgc1(blob: &mut [u8]) {
    let n = blob.len();
    let c = fnv1a(&blob[..n - 8]);
    blob[n - 8..].copy_from_slice(&c.to_le_bytes());
}

// ---------------------------------------------------------------------------
// SGC1
// ---------------------------------------------------------------------------

#[test]
fn sgc1_truncation_at_every_field_boundary() {
    let blob = sg_io::encode(&grid());
    // Field boundaries of the 24-byte header: magic, vtype, reserved,
    // dim, levels, count — every cut inside header+checksum territory
    // must be Truncated, and any cut into the payload must also fail.
    for cut in [0usize, 1, 4, 5, 8, 12, 16, 24, 31] {
        let r = sg_io::decode::<f64>(&blob[..cut]);
        assert_eq!(r.unwrap_err(), DecodeError::Truncated, "cut at {cut}");
    }
    for cut in [32usize, 40, blob.len() - 9, blob.len() - 1] {
        let r = sg_io::decode::<f64>(&blob[..cut]);
        assert!(r.is_err(), "cut at {cut} must fail");
    }
}

#[test]
fn sgc1_every_error_variant_is_reachable() {
    let gold = sg_io::encode(&grid());

    // BadMagic (checksum re-stamped so only the magic is wrong).
    let mut b = gold.clone();
    b[0] = b'Z';
    restamp_sgc1(&mut b);
    assert_eq!(sg_io::decode::<f64>(&b).unwrap_err(), DecodeError::BadMagic);

    // BadValueType.
    let mut b = gold.clone();
    b[4] = 7;
    restamp_sgc1(&mut b);
    assert_eq!(
        sg_io::decode::<f64>(&b).unwrap_err(),
        DecodeError::BadValueType(7)
    );

    // ValueTypeMismatch (decode an f64 blob as f32).
    assert_eq!(
        sg_io::decode::<f32>(&gold).unwrap_err(),
        DecodeError::ValueTypeMismatch {
            found: 1,
            expected: 0
        }
    );

    // CountMismatch.
    let mut b = gold.clone();
    b[16..24].copy_from_slice(&999u64.to_le_bytes());
    restamp_sgc1(&mut b);
    assert_eq!(
        sg_io::decode::<f64>(&b).unwrap_err(),
        DecodeError::CountMismatch {
            header: 999,
            expected: 111
        }
    );

    // LengthMismatch (drop one coefficient, keep header count).
    let mut b = gold.clone();
    let n = b.len();
    b.drain(n - 16..n - 8);
    restamp_sgc1(&mut b);
    assert_eq!(
        sg_io::decode::<f64>(&b).unwrap_err(),
        DecodeError::LengthMismatch
    );

    // ChecksumMismatch (single flipped payload bit, checksum left).
    let mut b = gold.clone();
    b[40] ^= 0x01;
    assert_eq!(
        sg_io::decode::<f64>(&b).unwrap_err(),
        DecodeError::ChecksumMismatch
    );

    // BadShape for structurally invalid dims/levels.
    for (d, levels) in [(0u32, 4u32), (3, 0), (3, 32), (65, 4)] {
        let mut b = gold.clone();
        b[8..12].copy_from_slice(&d.to_le_bytes());
        b[12..16].copy_from_slice(&levels.to_le_bytes());
        restamp_sgc1(&mut b);
        assert_eq!(
            sg_io::decode::<f64>(&b).unwrap_err(),
            DecodeError::BadShape,
            "d={d} levels={levels}"
        );
    }

    // BadJson.
    assert!(matches!(
        sg_io::decode_json::<f64>("{").unwrap_err(),
        DecodeError::BadJson(_)
    ));
}

#[test]
fn sgc1_overflowing_point_count_header_fails_typed_not_panicking() {
    // A checksum-valid header claiming d=60, L=31: N(60, 31) overflows
    // u64, and the old decoder died in `GridSpec::new`'s forced count.
    let gold = sg_io::encode(&grid());
    let mut b = gold.clone();
    b[8..12].copy_from_slice(&60u32.to_le_bytes());
    b[12..16].copy_from_slice(&31u32.to_le_bytes());
    restamp_sgc1(&mut b);
    let r = std::panic::catch_unwind(|| sg_io::decode::<f64>(&b))
        .expect("decoder must not panic on an overflowing shape");
    assert_eq!(r.unwrap_err(), DecodeError::BadShape);

    // Same shape through the JSON path.
    let doc = r#"{"format":"sg-grid","dim":60,"levels":31,"values":[]}"#;
    let r = std::panic::catch_unwind(|| sg_io::decode_json::<f64>(doc))
        .expect("JSON decoder must not panic on an overflowing shape");
    assert_eq!(r.unwrap_err(), DecodeError::BadShape);
}

#[test]
fn sgc1_files_still_decode_unchanged() {
    // Compatibility pin: a byte-exact SGC1 file written by the original
    // codec (here reproduced field by field) still decodes.
    let g = grid();
    let mut blob = Vec::new();
    blob.extend_from_slice(b"SGC1");
    blob.push(1u8); // f64
    blob.extend_from_slice(&[0u8; 3]);
    blob.extend_from_slice(&3u32.to_le_bytes());
    blob.extend_from_slice(&4u32.to_le_bytes());
    blob.extend_from_slice(&(g.len() as u64).to_le_bytes());
    for &v in g.values() {
        blob.extend_from_slice(&v.to_le_bytes());
    }
    let c = fnv1a(&blob);
    blob.extend_from_slice(&c.to_le_bytes());
    assert_eq!(blob, sg_io::encode(&g), "format frozen");
    let back = sg_io::decode::<f64>(&blob).unwrap();
    assert_eq!(back.values(), g.values());
}

// ---------------------------------------------------------------------------
// SGC2
// ---------------------------------------------------------------------------

/// Re-stamp the CRC64 of the leading SGC2 header (fixed 32 bytes +
/// provenance + 8-byte CRC) after mutating a field, so only that field
/// is wrong.
fn restamp_sgc2_header(bytes: &mut [u8]) {
    let prov_len = u32::from_le_bytes(bytes[28..32].try_into().unwrap()) as usize;
    let end = 32 + prov_len;
    let c = crc64(&bytes[..end]);
    bytes[end..end + 8].copy_from_slice(&c.to_le_bytes());
}

/// A snapshot whose header (both copies) claims shape (d, levels, n):
/// header CRCs valid, so the shape check itself is what must fire.
fn snapshot_with_shape(d: u32, levels: u32, n: u64) -> Vec<u8> {
    let mut bytes = sg_io::encode_snapshot(&grid(), "matrix");
    let header_len = {
        let prov_len = u32::from_le_bytes(bytes[28..32].try_into().unwrap()) as usize;
        32 + prov_len + 8
    };
    for base in [0, bytes.len() - 12 - header_len] {
        bytes[base + 12..base + 16].copy_from_slice(&d.to_le_bytes());
        bytes[base + 16..base + 20].copy_from_slice(&levels.to_le_bytes());
        bytes[base + 20..base + 28].copy_from_slice(&n.to_le_bytes());
        restamp_sgc2_header(&mut bytes[base..]);
    }
    bytes
}

#[test]
fn sgc2_header_truncation_at_every_field_boundary() {
    let bytes = sg_io::encode_snapshot(&grid(), "matrix");
    // Cuts inside the header kill both copies (the footer needs the
    // trailer, gone too): identity is unrecoverable, typed Corrupt.
    for cut in [0usize, 3, 4, 8, 9, 12, 16, 20, 28, 32, 39] {
        match sg_io::recover_snapshot::<f64>(&bytes[..cut]) {
            Err(SgError::Corrupt(_)) => {}
            other => panic!("cut at {cut}: expected Corrupt, got {other:?}"),
        }
    }
}

#[test]
fn sgc2_every_failure_class_is_reachable() {
    let gold = sg_io::encode_snapshot(&grid(), "matrix");

    // Bad magic on both copies → Corrupt.
    let mut b = gold.clone();
    b[0] = b'Z';
    let n = b.len();
    b[n - 1] = b'Z'; // trailer magic
    assert!(matches!(
        sg_io::recover_snapshot::<f64>(&b),
        Err(SgError::Corrupt(_))
    ));

    // Unsupported version (re-stamped, both copies) → Corrupt.
    let mut b = gold.clone();
    let header_len = {
        let prov_len = u32::from_le_bytes(b[28..32].try_into().unwrap()) as usize;
        32 + prov_len + 8
    };
    for base in [0, b.len() - 12 - header_len] {
        b[base + 4..base + 8].copy_from_slice(&99u32.to_le_bytes());
        restamp_sgc2_header(&mut b[base..]);
    }
    match sg_io::recover_snapshot::<f64>(&b) {
        Err(SgError::Corrupt(m)) => assert!(m.contains("version"), "{m}"),
        other => panic!("{other:?}"),
    }

    // Value-type mismatch → Corrupt naming the tag.
    match sg_io::recover_snapshot::<f32>(&gold) {
        Err(SgError::Corrupt(m)) => assert!(m.contains("value type"), "{m}"),
        other => panic!("{other:?}"),
    }

    // Count inconsistent with the shape → Corrupt.
    let b = snapshot_with_shape(3, 4, 999);
    match sg_io::recover_snapshot::<f64>(&b) {
        Err(SgError::Corrupt(m)) => assert!(m.contains("shape implies"), "{m}"),
        other => panic!("{other:?}"),
    }

    // Structurally invalid shapes → Corrupt.
    for (d, levels) in [(0u32, 4u32), (3, 0), (3, 32), (65, 4)] {
        let b = snapshot_with_shape(d, levels, 111);
        assert!(
            matches!(sg_io::recover_snapshot::<f64>(&b), Err(SgError::Corrupt(_))),
            "d={d} levels={levels}"
        );
    }

    // Section checksum flip → that section lost, typed Degraded on the
    // strict path.
    let mut b = gold.clone();
    let bounds = sg_io::section_boundaries(&gold).unwrap();
    b[bounds[1] + 20] ^= 0x08;
    assert_eq!(
        sg_io::read_snapshot::<f64>(&b).err(),
        Some(SgError::Degraded {
            lost_groups: vec![1]
        })
    );
}

#[test]
fn sgc2_overflowing_point_count_header_fails_typed_not_panicking() {
    // The SGC2 twin of the SGC1 regression: checksum-valid header with
    // d=60, L=31 — the count itself overflows u64.
    let b = snapshot_with_shape(60, 31, u64::MAX);
    let r = std::panic::catch_unwind(|| sg_io::recover_snapshot::<f64>(&b))
        .expect("recovery must not panic on an overflowing shape");
    assert_eq!(
        r.err(),
        Some(SgError::CountOverflow {
            dim: 60,
            levels: 31
        })
    );
}

#[test]
fn sgc2_section_truncation_matrix() {
    // Cut at every byte boundary inside section 2's fields (marker,
    // group, length, payload start, CRC): sections 0–1 stay intact,
    // sections 2–3 are lost, and the lost set is enumerated exactly.
    let gold = sg_io::encode_snapshot(&grid(), "m");
    let bounds = sg_io::section_boundaries(&gold).unwrap();
    let s2 = bounds[2];
    for cut in [
        s2,
        s2 + 4,
        s2 + 8,
        s2 + 16,
        s2 + 17,
        bounds[3] - 8,
        bounds[3] - 1,
    ] {
        let r = sg_io::recover_snapshot::<f64>(&gold[..cut]).unwrap();
        assert_eq!(r.grid.lost_groups(), &[2, 3], "cut at {cut}");
        assert_eq!(r.sections[2].status, SectionStatus::Truncated);
        assert_eq!(r.sections[0].status, SectionStatus::Intact);
        assert_eq!(r.sections[1].status, SectionStatus::Intact);
    }
}

#[test]
fn sgc2_single_bit_flips_are_never_silent() {
    // Flip one bit at a spread of positions; decoding must either still
    // produce the exact original (redundancy absorbed it) or report the
    // damage — never return different coefficients as "complete".
    let g = grid();
    let gold = sg_io::encode_snapshot(&g, "bitflip");
    for pos in (0..gold.len()).step_by(gold.len() / 97 + 1) {
        let mut b = gold.clone();
        b[pos] ^= 0x04;
        match sg_io::recover_snapshot::<f64>(&b) {
            Ok(r) => {
                if r.grid.is_complete() {
                    assert_eq!(
                        r.grid.grid().values(),
                        g.values(),
                        "silent corruption at byte {pos}"
                    );
                } else {
                    assert!(!r.grid.lost_groups().is_empty());
                }
            }
            Err(e) => {
                // Typed, never a panic.
                let _ = e.to_string();
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Golden bytes
// ---------------------------------------------------------------------------
//
// Files under `tests/golden/` were written by the codecs and are
// committed: re-encoding the same grids must give exactly those bytes,
// and decoding them must give bitwise-equal values and the same section
// reports. The grids come from arithmetic alone (no libm calls), so the
// bytes do not depend on the platform. To regenerate a file after a
// deliberate format change, write the output of the matching
// `golden_*` builder below to its path.

use sg_io::manifest::{recover_component_set, verify_component_set, write_component_set};
use sg_io::{ComponentMeta, MemorySink, SectionReport};

const GOLDEN_F64_D2_L3: &[u8] = include_bytes!("golden/snapshot_f64_d2_l3.sgcs");
const GOLDEN_F32_D3_L4: &[u8] = include_bytes!("golden/snapshot_f32_d3_l4.sgcs");
const GOLDEN_SGC1_F64_D3_L4: &[u8] = include_bytes!("golden/legacy_f64_d3_l4.sgc");
const GOLDEN_MANIFEST: &[u8] = include_bytes!("golden/manifest_d2_3c.sgcm");
const GOLDEN_MANIFEST_TOMBSTONE: &[u8] = include_bytes!("golden/manifest_d2_3c_tombstone.sgcm");

/// Provenance stamps the golden snapshots and manifests carry.
const GOLDEN_PROV_F64: &str = "golden sgc2 f64 d=2 L=3";
const GOLDEN_PROV_F32: &str = "golden sgc2 f32 d=3 L=4";
const GOLDEN_PROV_MANIFEST: &str = "golden sgcm d=2 3 components";

/// Hierarchized parabola plus a linear tilt: arithmetic only.
fn golden_grid<T: sg_core::real::Real>(d: usize, levels: usize) -> CompactGrid<T> {
    let mut g = CompactGrid::from_fn(GridSpec::new(d, levels), |x| {
        T::from_f64(TestFunction::Parabola.eval(x) + x[0] / 3.0)
    });
    sg_core::hierarchize::hierarchize(&mut g);
    g
}

/// Three d = 2 components with distinct coefficients and level vectors.
fn golden_components() -> Vec<(ComponentMeta, Vec<f64>)> {
    [(1i64, vec![2u8, 0]), (1, vec![1, 1]), (-1, vec![1, 0])]
        .into_iter()
        .map(|(coefficient, levels)| {
            let meta = ComponentMeta {
                coefficient,
                levels,
                max_abs: 0.0,
            };
            let n = meta.num_values().unwrap() as usize;
            let values: Vec<f64> = (0..n)
                .map(|k| (k as f64 + 0.5) * coefficient as f64 / 7.0)
                .collect();
            let max_abs = values.iter().fold(0.0f64, |a, v| a.max(v.abs()));
            (ComponentMeta { max_abs, ..meta }, values)
        })
        .collect()
}

/// The golden manifest, with component `tombstone` (if any) dropped
/// before commit.
fn golden_manifest(tombstone: Option<usize>) -> Vec<u8> {
    let set = golden_components();
    let borrowed: Vec<(ComponentMeta, Option<&[f64]>)> = set
        .iter()
        .enumerate()
        .map(|(k, (m, v))| (m.clone(), (Some(k) != tombstone).then_some(v.as_slice())))
        .collect();
    let mut sink = MemorySink::new();
    write_component_set(2, &borrowed, &mut sink, GOLDEN_PROV_MANIFEST).unwrap();
    sink.into_published().unwrap()
}

fn reports(rows: &[(usize, SectionStatus, u64, usize)]) -> Vec<SectionReport> {
    rows.iter()
        .map(|&(group, status, points, offset)| SectionReport {
            group,
            status,
            points,
            offset,
        })
        .collect()
}

fn bits<T: sg_core::real::Real>(values: &[T]) -> Vec<u64> {
    values.iter().map(|v| v.to_f64().to_bits()).collect()
}

#[test]
fn golden_files_are_reproduced_byte_for_byte() {
    assert_eq!(
        sg_io::encode_snapshot(&golden_grid::<f64>(2, 3), GOLDEN_PROV_F64),
        GOLDEN_F64_D2_L3
    );
    assert_eq!(
        sg_io::encode_snapshot(&golden_grid::<f32>(3, 4), GOLDEN_PROV_F32),
        GOLDEN_F32_D3_L4
    );
    assert_eq!(
        sg_io::encode(&golden_grid::<f64>(3, 4)),
        GOLDEN_SGC1_F64_D3_L4
    );
    assert_eq!(golden_manifest(None), GOLDEN_MANIFEST);
    assert_eq!(golden_manifest(Some(1)), GOLDEN_MANIFEST_TOMBSTONE);
}

#[test]
fn golden_snapshots_decode_bitwise_with_pinned_reports() {
    use SectionStatus::Intact;
    // Header: 32 fixed bytes + provenance + 8 CRC bytes; section n:
    // 16 framing bytes + payload + 8 CRC bytes.
    let f64_rows = reports(&[(0, Intact, 1, 63), (1, Intact, 4, 95), (2, Intact, 12, 151)]);
    let f32_rows = reports(&[
        (0, Intact, 1, 63),
        (1, Intact, 6, 91),
        (2, Intact, 24, 139),
        (3, Intact, 80, 259),
    ]);

    let r = sg_io::recover_snapshot::<f64>(GOLDEN_F64_D2_L3).unwrap();
    assert!(r.grid.is_complete() && !r.used_footer);
    assert_eq!(r.info.provenance, GOLDEN_PROV_F64);
    assert_eq!(
        bits(r.grid.grid().values()),
        bits(golden_grid::<f64>(2, 3).values())
    );
    assert_eq!(r.sections, f64_rows);
    let (info, sections, used_footer) = sg_io::verify_snapshot(GOLDEN_F64_D2_L3).unwrap();
    assert_eq!((info, sections, used_footer), (r.info, f64_rows, false));
    assert_eq!(
        sg_io::section_boundaries(GOLDEN_F64_D2_L3).unwrap(),
        vec![63, 95, 151, 271, GOLDEN_F64_D2_L3.len()]
    );

    let r = sg_io::recover_snapshot::<f32>(GOLDEN_F32_D3_L4).unwrap();
    assert!(r.grid.is_complete() && !r.used_footer);
    assert_eq!(r.info.provenance, GOLDEN_PROV_F32);
    assert_eq!(
        bits(r.grid.grid().values()),
        bits(golden_grid::<f32>(3, 4).values())
    );
    assert_eq!(r.sections, f32_rows);
    let (info, sections, used_footer) = sg_io::verify_snapshot(GOLDEN_F32_D3_L4).unwrap();
    assert_eq!((info, sections, used_footer), (r.info, f32_rows, false));

    let back = sg_io::decode::<f64>(GOLDEN_SGC1_F64_D3_L4).unwrap();
    assert_eq!(bits(back.values()), bits(golden_grid::<f64>(3, 4).values()));
}

#[test]
fn golden_manifests_decode_bitwise_with_pinned_reports() {
    use SectionStatus::{ChecksumMismatch, Intact};
    let set = golden_components();
    for (bytes, tombstone) in [
        (GOLDEN_MANIFEST, None),
        (GOLDEN_MANIFEST_TOMBSTONE, Some(1)),
    ] {
        let rows = reports(&[
            (0, Intact, 7, 114),
            (
                1,
                if tombstone.is_some() {
                    ChecksumMismatch
                } else {
                    Intact
                },
                9,
                194,
            ),
            (2, Intact, 3, 290),
        ]);
        let r = recover_component_set::<f64>(bytes).unwrap();
        assert!(!r.used_footer);
        assert_eq!(r.info.provenance, GOLDEN_PROV_MANIFEST);
        assert_eq!(r.sections, rows);
        for (k, (meta, values)) in set.iter().enumerate() {
            assert_eq!(&r.info.components[k], meta);
            match &r.payloads[k] {
                Some(got) => assert_eq!(bits(got), bits(values)),
                None => assert_eq!(Some(k), tombstone),
            }
        }
        let (info, sections, used_footer) = verify_component_set(bytes).unwrap();
        assert_eq!((info, sections, used_footer), (r.info, rows, false));
        assert_eq!(
            sg_io::component_boundaries(bytes).unwrap(),
            vec![114, 194, 290, 338, bytes.len()]
        );
    }
}
