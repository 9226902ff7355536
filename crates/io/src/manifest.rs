//! `SGCM` — sectioned manifests for combination-technique component sets.
//!
//! The combination technique's fault-tolerance story ([Issue 9], DESIGN
//! §17) treats a lost or corrupt *component grid* exactly like `SGC2`
//! treats a lost snapshot section: every component's nodal values live in
//! an independently checksummed section, and the component *metadata*
//! (coefficient, level vector, max-abs nodal value) lives redundantly in a
//! CRC-stamped header and footer. A damaged manifest therefore still
//! tells the executor precisely *which* components it lost and what error
//! re-weighting around them can incur — metadata survives as long as
//! either header copy does, even when every payload section is gone.
//!
//! The file is the sectioned container shared with `SGC2` (header,
//! one section per component, footer copy of the header, trailer
//! `"MCGS"`; DESIGN §13). After the shared preamble (magic `"SGCM"`,
//! version, value type, d) the header block holds:
//!
//! ```text
//!   +16  4   component count C   (= section count)
//!   +20  4   provenance length P (bytes, ≤ 4096)
//!   +24  P   provenance stamp (UTF-8, free-form)
//!   then C metadata entries of 16 + d bytes each:
//!     +0   8   combination coefficient (LE i64)
//!     +8   8   max-abs nodal value (LE f64) — the re-weighting bound's
//!              per-component budget
//!     +16  d   zero-based level vector (one byte per dimension)
//! ```
//!
//! Every section's length is computable from the level vectors alone, so
//! a corrupt section never hides the next one. A component that was
//! *dropped before commit* is written as a tombstone (a zero payload with
//! a complemented CRC), so verification reports it as lost rather than
//! as a silent zero grid.

use crate::frame::{self, Reader, SectionReport, SnapshotSink};
use sg_core::error::SgError;
use sg_core::level::Level;
use sg_core::real::Real;

tel! {
    static MAN_COMPONENTS_WRITTEN: sg_telemetry::Counter =
        sg_telemetry::Counter::new("io.manifest.components_written");
    static MAN_TOMBSTONES_WRITTEN: sg_telemetry::Counter =
        sg_telemetry::Counter::new("io.manifest.tombstones_written");
    static MAN_COMPONENTS_VERIFIED: sg_telemetry::Counter =
        sg_telemetry::Counter::new("io.manifest.components_verified");
    static MAN_COMPONENTS_CORRUPT: sg_telemetry::Counter =
        sg_telemetry::Counter::new("io.manifest.components_corrupt");
    static MAN_FOOTER_FALLBACKS: sg_telemetry::Counter =
        sg_telemetry::Counter::new("io.manifest.footer_fallbacks");
}

/// Component-set manifest magic.
pub const MANIFEST_MAGIC: [u8; 4] = *b"SGCM";
/// Trailer magic locating the manifest footer from the end of the file.
pub const MANIFEST_TRAILER_MAGIC: [u8; 4] = *b"MCGS";
/// Current manifest format version.
pub const MANIFEST_VERSION: u32 = 1;
/// Per-component metadata entry bytes before the level vector.
const META_FIXED: usize = 16;
/// Upper bound on the component count a header may claim, so a corrupt
/// count field cannot drive a huge allocation.
const MAX_COMPONENTS: usize = 1 << 20;

/// Metadata of one component grid, persisted redundantly in the manifest
/// header and footer (it must survive payload loss — the re-weighting
/// policy needs the coefficient and error budget of exactly the
/// components it can no longer read).
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentMeta {
    /// Inclusion–exclusion combination coefficient.
    pub coefficient: i64,
    /// Zero-based anisotropic level vector (one entry per dimension).
    pub levels: Vec<Level>,
    /// Largest absolute nodal value of the component — since the
    /// component interpolant is a convex-ish combination of nodal values
    /// (multilinear, zero boundary), `|u_l(x)| ≤ max_abs` everywhere, so
    /// this is the component's contribution cap in the re-weighting
    /// error bound.
    pub max_abs: f64,
}

impl ComponentMeta {
    /// Number of nodal values the component's section carries, derived
    /// from the level vector; `None` on overflow or an implausible
    /// per-dimension level.
    pub fn num_values(&self) -> Option<u64> {
        self.levels.iter().try_fold(1u64, |acc, &l| {
            if l > 31 {
                return None;
            }
            acc.checked_mul((1u64 << (l + 1)) - 1)
        })
    }
}

/// Parsed identity of a component-set manifest (header or footer copy).
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentSetInfo {
    /// Format version.
    pub version: u32,
    /// Value-type tag (0 = `f32`, 1 = `f64`).
    pub value_type: u8,
    /// Dimensionality shared by every component.
    pub dim: usize,
    /// Free-form provenance stamp recorded at write time.
    pub provenance: String,
    /// Per-component metadata, in section order.
    pub components: Vec<ComponentMeta>,
}

/// Everything [`recover_component_set`] learned about a manifest.
#[derive(Debug, Clone)]
pub struct ComponentSetRecovery<T> {
    /// Manifest identity and the full metadata table.
    pub info: ComponentSetInfo,
    /// Per-component nodal values: `Some` with bitwise-identical values
    /// for every intact section, `None` for lost components.
    pub payloads: Vec<Option<Vec<T>>>,
    /// Per-section verification records, in component order.
    pub sections: Vec<SectionReport>,
    /// True when the leading header was corrupt and the identity came
    /// from the footer copy.
    pub used_footer: bool,
}

impl<T> ComponentSetRecovery<T> {
    /// Indices of components whose sections failed verification.
    pub fn lost_components(&self) -> Vec<usize> {
        self.payloads
            .iter()
            .enumerate()
            .filter_map(|(k, p)| p.is_none().then_some(k))
            .collect()
    }

    /// True when every component verified bitwise.
    pub fn is_complete(&self) -> bool {
        self.payloads.iter().all(|p| p.is_some())
    }
}

fn encode_manifest_header(info: &ComponentSetInfo) -> Vec<u8> {
    let mut buf = frame::put_preamble(MANIFEST_MAGIC, info.version, info.value_type, info.dim);
    buf.extend_from_slice(&(info.components.len() as u32).to_le_bytes());
    frame::put_provenance(&mut buf, &info.provenance);
    for meta in &info.components {
        debug_assert_eq!(meta.levels.len(), info.dim);
        buf.extend_from_slice(&meta.coefficient.to_le_bytes());
        buf.extend_from_slice(&meta.max_abs.to_le_bytes());
        buf.extend_from_slice(&meta.levels);
    }
    frame::seal(&mut buf);
    buf
}

/// Parse and CRC-verify a manifest header block at the start of `b`.
/// Returns the info and the header's total byte length; `None` on any
/// structural or checksum failure.
fn parse_manifest_header(b: &[u8]) -> Option<(ComponentSetInfo, usize)> {
    let mut r = Reader::new(b);
    let (version, value_type, dim) = r.preamble(MANIFEST_MAGIC)?;
    let count = r.u32()? as usize;
    if dim == 0 || dim > 64 || count > MAX_COMPONENTS {
        return None;
    }
    let provenance = r.provenance()?;
    let table = r.bytes(count * (META_FIXED + dim))?;
    let len = r.sealed()?;
    let components = table
        .chunks_exact(META_FIXED + dim)
        .map(|e| ComponentMeta {
            coefficient: i64::from_le_bytes(e[..8].try_into().expect("8 bytes")),
            max_abs: f64::from_le_bytes(e[8..16].try_into().expect("8 bytes")),
            levels: e[META_FIXED..].to_vec(),
        })
        .collect();
    let info = ComponentSetInfo {
        version,
        value_type,
        dim,
        provenance,
        components,
    };
    Some((info, len))
}

/// Values in component `k`'s section, from its level vector alone.
fn component_points(k: usize, meta: &ComponentMeta) -> Result<u64, SgError> {
    meta.num_values().filter(|&n| n < (1 << 32)).ok_or_else(|| {
        SgError::Corrupt(format!(
            "component {k} level vector implies too many points"
        ))
    })
}

/// Parse whichever of header/footer is intact and validate the metadata
/// table; returns `(info, header_len, points per component, used_footer)`.
fn manifest_identity(bytes: &[u8]) -> Result<(ComponentSetInfo, usize, Vec<u64>, bool), SgError> {
    let (info, hlen, used_footer) =
        frame::read_identity(bytes, MANIFEST_TRAILER_MAGIC, parse_manifest_header)
            .ok_or_else(|| SgError::Corrupt("manifest header and footer both unreadable".into()))?;
    if used_footer {
        tel! { MAN_FOOTER_FALLBACKS.add(1); }
    }
    frame::check_version_and_tag("manifest", info.version, MANIFEST_VERSION, info.value_type)?;
    let points = info
        .components
        .iter()
        .enumerate()
        .map(|(k, meta)| component_points(k, meta))
        .collect::<Result<Vec<u64>, SgError>>()?;
    Ok((info, hlen, points, used_footer))
}

/// Stream a component-set manifest into `sink`: header, one section per
/// component (tombstoned when the values are gone), footer + trailer,
/// then `flush` and `commit`. Any sink error aborts cleanly.
pub fn write_component_set<T: Real>(
    dim: usize,
    components: &[(ComponentMeta, Option<&[T]>)],
    sink: &mut dyn SnapshotSink,
    provenance: &str,
) -> Result<(), SgError> {
    let info = ComponentSetInfo {
        version: MANIFEST_VERSION,
        value_type: frame::type_tag::<T>(),
        dim,
        provenance: frame::trim_provenance(provenance).to_string(),
        components: components.iter().map(|(m, _)| m.clone()).collect(),
    };
    for (k, (meta, values)) in components.iter().enumerate() {
        if meta.levels.len() != dim {
            return Err(SgError::Corrupt(format!(
                "component {k} level vector has {} entries for dimensionality {dim}",
                meta.levels.len()
            )));
        }
        let expect = component_points(k, meta)?;
        if let Some(v) = values {
            if v.len() as u64 != expect {
                return Err(SgError::Corrupt(format!(
                    "component {k} carries {} values but its levels imply {expect}",
                    v.len()
                )));
            }
        }
    }
    let mut w = frame::Writer::begin(sink, encode_manifest_header(&info))?;
    for (meta, values) in components {
        match values {
            Some(v) => {
                w.section(v)?;
                tel! { MAN_COMPONENTS_WRITTEN.add(1); }
            }
            None => {
                w.tombstone::<T>(meta.num_values().unwrap() as usize)?;
                tel! { MAN_TOMBSTONES_WRITTEN.add(1); }
            }
        }
    }
    w.finish(MANIFEST_TRAILER_MAGIC)?;
    Ok(())
}

/// Count one verified component under the manifest's instruments.
fn count_component(report: &SectionReport) {
    tel! {
        match report.status {
            frame::SectionStatus::Intact => MAN_COMPONENTS_VERIFIED.add(1),
            _ => MAN_COMPONENTS_CORRUPT.add(1),
        }
    }
    let _ = report;
}

/// Recover everything salvageable from a component-set manifest.
///
/// Section offsets are recomputed from the metadata table (not from the
/// possibly damaged section headers), so one corrupt section never hides
/// the next. Intact sections decode to bitwise-identical values; lost
/// components come back as `None` with their metadata still available
/// through [`ComponentSetRecovery::info`].
pub fn recover_component_set<T: Real>(bytes: &[u8]) -> Result<ComponentSetRecovery<T>, SgError> {
    let (info, hlen, points, used_footer) = manifest_identity(bytes)?;
    frame::expect_tag::<T>(info.value_type)?;
    let mut payloads = Vec::with_capacity(points.len());
    let sections = frame::walk_sections(bytes, hlen, &points, T::size_bytes(), |s, payload| {
        payloads.push(payload.map(|p| {
            let mut values = vec![T::ZERO; s.points as usize];
            frame::get_values::<T>(p, &mut values);
            values
        }));
        count_component(s);
    });
    Ok(ComponentSetRecovery {
        info,
        payloads,
        sections,
        used_footer,
    })
}

/// Verify a manifest without materializing any payload: identity plus a
/// per-section status table. Works for either value type.
pub fn verify_component_set(
    bytes: &[u8],
) -> Result<(ComponentSetInfo, Vec<SectionReport>, bool), SgError> {
    let (info, hlen, points, used_footer) = manifest_identity(bytes)?;
    let width = frame::tag_width(info.value_type);
    let sections = frame::walk_sections(bytes, hlen, &points, width, |s, _| count_component(s));
    Ok((info, sections, used_footer))
}

/// Byte offsets of every boundary in an (identifiable) manifest: start of
/// section 0, start of each subsequent section, end of the last section,
/// and the total length. Used by the fault-injection harness to tear
/// writes at exact component boundaries.
pub fn component_boundaries(bytes: &[u8]) -> Result<Vec<usize>, SgError> {
    let (info, hlen, points, _) = manifest_identity(bytes)?;
    let mut offsets = frame::layout(hlen, &points, frame::tag_width(info.value_type));
    offsets.push(bytes.len());
    Ok(offsets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{MemorySink, SectionStatus, SECTION_FIXED};

    fn sample_set() -> (usize, Vec<(ComponentMeta, Vec<f64>)>) {
        let dim = 2;
        let mut out = Vec::new();
        for (coef, levels) in [(1i64, vec![2, 0]), (1, vec![1, 1]), (-1, vec![1, 0])] {
            let meta = ComponentMeta {
                coefficient: coef,
                levels: levels.clone(),
                max_abs: 0.0,
            };
            let n = meta.num_values().unwrap() as usize;
            let values: Vec<f64> = (0..n).map(|k| (k as f64 + 0.5) * coef as f64).collect();
            let meta = ComponentMeta {
                max_abs: values.iter().fold(0.0f64, |a, v| a.max(v.abs())),
                ..meta
            };
            out.push((meta, values));
        }
        (dim, out)
    }

    fn encode_set(dim: usize, set: &[(ComponentMeta, Vec<f64>)]) -> Vec<u8> {
        let borrowed: Vec<(ComponentMeta, Option<&[f64]>)> = set
            .iter()
            .map(|(m, v)| (m.clone(), Some(v.as_slice())))
            .collect();
        let mut sink = MemorySink::new();
        write_component_set(dim, &borrowed, &mut sink, "manifest-unit").unwrap();
        sink.into_published().unwrap()
    }

    #[test]
    fn roundtrip_is_bitwise() {
        let (dim, set) = sample_set();
        let bytes = encode_set(dim, &set);
        let r = recover_component_set::<f64>(&bytes).unwrap();
        assert!(r.is_complete());
        assert!(!r.used_footer);
        assert_eq!(r.info.provenance, "manifest-unit");
        for (k, (meta, values)) in set.iter().enumerate() {
            assert_eq!(&r.info.components[k], meta);
            assert_eq!(r.payloads[k].as_deref(), Some(values.as_slice()));
        }
    }

    #[test]
    fn corrupt_header_falls_back_to_footer() {
        let (dim, set) = sample_set();
        let mut bytes = encode_set(dim, &set);
        bytes[6] ^= 0xFF;
        let r = recover_component_set::<f64>(&bytes).unwrap();
        assert!(r.used_footer);
        assert!(r.is_complete());
    }

    #[test]
    fn corrupt_section_loses_only_that_component() {
        let (dim, set) = sample_set();
        let mut bytes = encode_set(dim, &set);
        let bounds = component_boundaries(&bytes).unwrap();
        bytes[bounds[1] + SECTION_FIXED + 2] ^= 0x08;
        let r = recover_component_set::<f64>(&bytes).unwrap();
        assert_eq!(r.lost_components(), vec![1]);
        assert_eq!(r.sections[1].status, SectionStatus::ChecksumMismatch);
        assert_eq!(r.payloads[0].as_deref(), Some(set[0].1.as_slice()));
        assert_eq!(r.payloads[2].as_deref(), Some(set[2].1.as_slice()));
        // Metadata of the lost component still available for re-weighting.
        assert_eq!(r.info.components[1], set[1].0);
    }

    #[test]
    fn tombstone_reads_as_lost_not_as_zeros() {
        let (dim, set) = sample_set();
        let borrowed: Vec<(ComponentMeta, Option<&[f64]>)> = set
            .iter()
            .enumerate()
            .map(|(k, (m, v))| (m.clone(), (k != 1).then_some(v.as_slice())))
            .collect();
        let mut sink = MemorySink::new();
        write_component_set(dim, &borrowed, &mut sink, "").unwrap();
        let bytes = sink.into_published().unwrap();
        let r = recover_component_set::<f64>(&bytes).unwrap();
        assert_eq!(r.lost_components(), vec![1]);
        assert_eq!(r.sections[1].status, SectionStatus::ChecksumMismatch);
        // Later components keep their computed offsets and stay intact.
        assert_eq!(r.payloads[2].as_deref(), Some(set[2].1.as_slice()));
    }

    #[test]
    fn truncation_recovers_the_prefix() {
        let (dim, set) = sample_set();
        let bytes = encode_set(dim, &set);
        let bounds = component_boundaries(&bytes).unwrap();
        // Cut inside section 2: components 0 and 1 survive.
        let cut = bounds[2] + 5;
        let r = recover_component_set::<f64>(&bytes[..cut]).unwrap();
        assert_eq!(r.lost_components(), vec![2]);
        assert_eq!(r.sections[2].status, SectionStatus::Truncated);
    }

    #[test]
    fn garbage_is_a_clean_error() {
        assert!(recover_component_set::<f64>(b"not a manifest").is_err());
        assert!(recover_component_set::<f64>(&[]).is_err());
        let (dim, set) = sample_set();
        let mut bytes = encode_set(dim, &set);
        // Smash both header and footer.
        bytes[5] ^= 0xFF;
        let len = bytes.len();
        bytes[len - 2] ^= 0xFF;
        assert!(recover_component_set::<f64>(&bytes).is_err());
    }

    #[test]
    fn value_type_mismatch_is_rejected() {
        let (dim, set) = sample_set();
        let bytes = encode_set(dim, &set);
        assert!(recover_component_set::<f32>(&bytes).is_err());
    }

    #[test]
    fn verify_reports_without_decoding() {
        let (dim, set) = sample_set();
        let mut bytes = encode_set(dim, &set);
        let bounds = component_boundaries(&bytes).unwrap();
        bytes[bounds[0] + SECTION_FIXED] ^= 0x01;
        let (info, sections, used_footer) = verify_component_set(&bytes).unwrap();
        assert_eq!(info.components.len(), 3);
        assert!(!used_footer);
        assert_eq!(sections[0].status, SectionStatus::ChecksumMismatch);
        assert_eq!(sections[1].status, SectionStatus::Intact);
    }
}
