//! The sectioned container shared by `SGC2` snapshots and `SGCM`
//! manifests: one frame writer, one header-or-footer reader, one section
//! layout, and every CRC-64 computation of the crate.
//!
//! ```text
//! offset          field
//! 0               header block: preamble, format fields, provenance,
//!                 format tail, CRC-64/XZ of everything before it
//! H               section 0
//! H + S₀          section 1
//! …
//! H + Σ Sₖ        footer  = byte-for-byte copy of the header block
//! end − 12        footer length (LE u64)
//! end − 4         trailer magic (the format magic reversed)
//!
//! preamble (little-endian):
//!   +0   4   format magic
//!   +4   4   format version
//!   +8   1   value type tag: 0 = f32, 1 = f64
//!   +9   3   reserved (zero)
//!   +12  4   dimensionality d
//!
//! provenance: length P (LE u32, ≤ 4096) followed by P bytes of UTF-8
//!
//! section k:
//!   +0   4   marker "SGSC"
//!   +4   4   section index k
//!   +8   8   payload length
//!   +16  …   raw little-endian values
//!   end  8   CRC-64/XZ of marker..payload (complemented in a tombstone)
//! ```
//!
//! Each format computes its payload lengths from its own header alone, so
//! [`layout`] places every section without reading any section bytes and
//! a damaged section never hides the next one.

use sg_core::error::SgError;
use sg_core::real::Real;

/// Per-section marker.
pub const SECTION_MARKER: [u8; 4] = *b"SGSC";
/// Upper bound on the provenance stamp, so a corrupt length field cannot
/// drive a huge read.
pub const MAX_PROVENANCE: usize = 4096;
/// Fixed section bytes before the payload (marker + index + length).
pub(crate) const SECTION_FIXED: usize = 16;
/// Bytes of a CRC-64 seal.
const CRC_LEN: usize = 8;
/// Trailer: footer length (u64) + trailer magic.
pub(crate) const TRAILER_LEN: usize = 12;

// ---------------------------------------------------------------------------
// CRC-64/XZ
// ---------------------------------------------------------------------------

/// 256-entry lookup table for CRC-64/XZ (reflected, polynomial
/// 0xC96C5795D7870F42), built at compile time.
static CRC64_TABLE: [u64; 256] = {
    let mut table = [0u64; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u64;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xC96C_5795_D787_0F42
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-64/XZ over a byte slice (init and xor-out `!0`).
pub fn crc64(data: &[u8]) -> u64 {
    let mut crc = !0u64;
    for &b in data {
        crc = CRC64_TABLE[((crc ^ b as u64) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// Append the CRC-64 of everything in `buf`.
pub(crate) fn seal(buf: &mut Vec<u8>) {
    let crc = crc64(buf);
    buf.extend_from_slice(&crc.to_le_bytes());
}

// ---------------------------------------------------------------------------
// Values and header fields
// ---------------------------------------------------------------------------

/// Value-type tag for a scalar type (0 = `f32`, 1 = `f64`).
pub(crate) fn type_tag<T: Real>() -> u8 {
    match T::size_bytes() {
        4 => 0,
        _ => 1,
    }
}

/// Bytes per value for a value-type tag.
pub(crate) fn tag_width(tag: u8) -> usize {
    if tag == 0 {
        4
    } else {
        8
    }
}

/// Typed error unless a header's value-type tag matches `T`.
pub(crate) fn expect_tag<T: Real>(tag: u8) -> Result<(), SgError> {
    if tag == type_tag::<T>() {
        return Ok(());
    }
    Err(SgError::Corrupt(format!(
        "value type tag {tag} does not match the requested scalar type (tag {})",
        type_tag::<T>()
    )))
}

/// Typed error unless a header carries the supported `version` and a
/// known value-type tag; `kind` names the format in the message.
pub(crate) fn check_version_and_tag(
    kind: &str,
    version: u32,
    supported: u32,
    tag: u8,
) -> Result<(), SgError> {
    if version != supported {
        return Err(SgError::Corrupt(format!(
            "unsupported {kind} format version {version}"
        )));
    }
    if tag > 1 {
        return Err(SgError::Corrupt(format!("unknown value type tag {tag}")));
    }
    Ok(())
}

/// Append `values` as raw little-endian scalars of their own width.
pub(crate) fn put_values<T: Real>(values: &[T], buf: &mut Vec<u8>) {
    for &v in values {
        match T::size_bytes() {
            4 => buf.extend_from_slice(&(v.to_f64() as f32).to_le_bytes()),
            _ => buf.extend_from_slice(&v.to_f64().to_le_bytes()),
        }
    }
}

/// Decode raw little-endian scalars into `out` (`payload` holds exactly
/// `out.len()` of them).
pub(crate) fn get_values<T: Real>(payload: &[u8], out: &mut [T]) {
    let w = T::size_bytes();
    debug_assert_eq!(payload.len(), out.len() * w);
    for (v, b) in out.iter_mut().zip(payload.chunks_exact(w)) {
        *v = match w {
            4 => T::from_f64(f32::from_le_bytes(b.try_into().unwrap()) as f64),
            _ => T::from_f64(f64::from_le_bytes(b.try_into().unwrap())),
        };
    }
}

/// Start a header block with the shared preamble.
pub(crate) fn put_preamble(magic: [u8; 4], version: u32, tag: u8, dim: usize) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(&magic);
    buf.extend_from_slice(&version.to_le_bytes());
    buf.push(tag);
    buf.extend_from_slice(&[0u8; 3]);
    buf.extend_from_slice(&(dim as u32).to_le_bytes());
    buf
}

/// Append the provenance stamp (length + bytes).
pub(crate) fn put_provenance(buf: &mut Vec<u8>, provenance: &str) {
    debug_assert!(provenance.len() <= MAX_PROVENANCE);
    buf.extend_from_slice(&(provenance.len() as u32).to_le_bytes());
    buf.extend_from_slice(provenance.as_bytes());
}

/// `provenance` cut to [`MAX_PROVENANCE`] bytes on a char boundary, so
/// the stamp stays valid UTF-8.
pub(crate) fn trim_provenance(provenance: &str) -> &str {
    let mut cut = provenance.len().min(MAX_PROVENANCE);
    while !provenance.is_char_boundary(cut) {
        cut -= 1;
    }
    &provenance[..cut]
}

/// Bounds-checked little-endian reader over a byte slice; every read past
/// the end yields `None`.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    pub(crate) fn bytes(&mut self, n: usize) -> Option<&'a [u8]> {
        let b = self.buf.get(self.pos..)?.get(..n)?;
        self.pos += n;
        Some(b)
    }

    pub(crate) fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(
            self.bytes(4)?.try_into().expect("4 bytes"),
        ))
    }

    pub(crate) fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(
            self.bytes(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Bytes not read yet.
    pub(crate) fn remaining(&self) -> &'a [u8] {
        &self.buf[self.pos..]
    }

    /// The preamble of a header block with `magic`: `(version, tag, dim)`.
    pub(crate) fn preamble(&mut self, magic: [u8; 4]) -> Option<(u32, u8, usize)> {
        if self.bytes(4)? != magic {
            return None;
        }
        let version = self.u32()?;
        let tag = self.bytes(1)?[0];
        self.bytes(3)?;
        Some((version, tag, self.u32()? as usize))
    }

    /// A provenance stamp: at most [`MAX_PROVENANCE`] bytes of UTF-8.
    pub(crate) fn provenance(&mut self) -> Option<String> {
        let len = self.u32()? as usize;
        if len > MAX_PROVENANCE {
            return None;
        }
        String::from_utf8(self.bytes(len)?.to_vec()).ok()
    }

    /// Check the CRC-64 seal that follows everything read so far; returns
    /// the sealed block's total length.
    pub(crate) fn sealed(&mut self) -> Option<usize> {
        let body = &self.buf[..self.pos];
        (crc64(body) == self.u64()?).then_some(self.pos)
    }
}

// ---------------------------------------------------------------------------
// Sections
// ---------------------------------------------------------------------------

/// Verification outcome of one section.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SectionStatus {
    /// Marker, group index, length, and checksum all verified.
    Intact,
    /// The file ends before this section's expected extent.
    Truncated,
    /// Marker / group / length fields disagree with the spec.
    BadHeader,
    /// Structure fine but the CRC does not match.
    ChecksumMismatch,
}

impl std::fmt::Display for SectionStatus {
    /// The status word `sgtool verify` prints.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SectionStatus::Intact => "intact",
            SectionStatus::Truncated => "TRUNCATED",
            SectionStatus::BadHeader => "BAD HEADER",
            SectionStatus::ChecksumMismatch => "CHECKSUM MISMATCH",
        })
    }
}

/// Per-section verification record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SectionReport {
    /// Level group index (`|l|₁ = n`).
    pub group: usize,
    /// Verification outcome.
    pub status: SectionStatus,
    /// Coefficients the section carries.
    pub points: u64,
    /// Byte offset of the section in the snapshot.
    pub offset: usize,
}

/// Section marker, index and payload length.
fn section_head(index: usize, payload_len: usize) -> Vec<u8> {
    let mut buf = Vec::with_capacity(SECTION_FIXED + payload_len + CRC_LEN);
    buf.extend_from_slice(&SECTION_MARKER);
    buf.extend_from_slice(&(index as u32).to_le_bytes());
    buf.extend_from_slice(&(payload_len as u64).to_le_bytes());
    buf
}

/// Payload bytes of a section carrying `points` values of `width` bytes
/// (saturating, so a crafted count reads as a truncated section).
fn payload_len(points: u64, width: usize) -> usize {
    (points as usize).saturating_mul(width)
}

/// Start offset of every section laid out from `start`, section `k`
/// carrying `points[k]` values of `width` bytes, followed by the end of
/// the last section.
pub(crate) fn layout(start: usize, points: &[u64], width: usize) -> Vec<usize> {
    let mut offsets = vec![start];
    let mut at = start;
    for &p in points {
        at = at
            .saturating_add(SECTION_FIXED + CRC_LEN)
            .saturating_add(payload_len(p, width));
        offsets.push(at);
    }
    offsets
}

/// The payload of section `index` at `offset` if it verifies, else why
/// not.
fn check_section(
    bytes: &[u8],
    offset: usize,
    index: usize,
    payload_len: usize,
) -> Result<&[u8], SectionStatus> {
    let section_len = payload_len.checked_add(SECTION_FIXED + CRC_LEN);
    let Some(b) = section_len.and_then(|n| bytes.get(offset..)?.get(..n)) else {
        return Err(SectionStatus::Truncated);
    };
    let mut r = Reader::new(b);
    if r.bytes(4) != Some(&SECTION_MARKER[..])
        || r.u32() != Some(index as u32)
        || r.u64() != Some(payload_len as u64)
    {
        return Err(SectionStatus::BadHeader);
    }
    let payload = r.bytes(payload_len).expect("section length checked above");
    if r.sealed().is_none() {
        return Err(SectionStatus::ChecksumMismatch);
    }
    Ok(payload)
}

/// One pass over the sections laid out from `start`, section `k` holding
/// `points[k]` values of `width` bytes: verifies each at its computed
/// offset and calls `visit` with its report and, when intact, its payload.
pub(crate) fn walk_sections<'b>(
    bytes: &'b [u8],
    start: usize,
    points: &[u64],
    width: usize,
    mut visit: impl FnMut(&SectionReport, Option<&'b [u8]>),
) -> Vec<SectionReport> {
    let offsets = layout(start, points, width);
    let mut reports = Vec::with_capacity(points.len());
    for (k, (&points, &offset)) in points.iter().zip(&offsets).enumerate() {
        let checked = check_section(bytes, offset, k, payload_len(points, width));
        let report = SectionReport {
            group: k,
            status: checked.err().unwrap_or(SectionStatus::Intact),
            points,
            offset,
        };
        visit(&report, checked.ok());
        reports.push(report);
    }
    reports
}

// ---------------------------------------------------------------------------
// Writing and reading the frame
// ---------------------------------------------------------------------------

/// Streams one container into a sink: the header, each section as its
/// own `write` (so a fault-injecting sink can tear the stream at every
/// section boundary), then footer + trailer, `flush` and `commit`. Any
/// sink error aborts cleanly.
pub(crate) struct Writer<'s> {
    sink: &'s mut dyn SnapshotSink,
    header: Vec<u8>,
    sections: usize,
    written: usize,
}

impl<'s> Writer<'s> {
    /// Write the sealed `header`.
    pub(crate) fn begin(sink: &'s mut dyn SnapshotSink, header: Vec<u8>) -> Result<Self, SgError> {
        sink.write(&header)?;
        Ok(Self {
            sink,
            written: header.len(),
            header,
            sections: 0,
        })
    }

    fn put(&mut self, mut section: Vec<u8>, complement: bool) -> Result<(), SgError> {
        let crc = crc64(&section);
        section.extend_from_slice(&if complement { !crc } else { crc }.to_le_bytes());
        self.sink.write(&section)?;
        self.sections += 1;
        self.written += section.len();
        Ok(())
    }

    /// Write the next section, carrying `values`.
    pub(crate) fn section<T: Real>(&mut self, values: &[T]) -> Result<(), SgError> {
        let mut buf = section_head(self.sections, values.len() * T::size_bytes());
        put_values(values, &mut buf);
        self.put(buf, false)
    }

    /// Write the next section as a tombstone: a full-length zero payload
    /// whose CRC is deliberately complemented. It occupies exactly the
    /// bytes a real section would (so later offsets stay computable), but
    /// always reads back as `ChecksumMismatch` — lost, never a silent
    /// zero payload.
    pub(crate) fn tombstone<T: Real>(&mut self, num_values: usize) -> Result<(), SgError> {
        let payload_len = num_values * T::size_bytes();
        let mut buf = section_head(self.sections, payload_len);
        buf.resize(SECTION_FIXED + payload_len, 0);
        self.put(buf, true)
    }

    /// Write footer + trailer, flush and commit; returns the bytes written.
    pub(crate) fn finish(self, trailer_magic: [u8; 4]) -> Result<usize, SgError> {
        let mut tail = self.header;
        tail.extend_from_slice(&(tail.len() as u64).to_le_bytes());
        tail.extend_from_slice(&trailer_magic);
        self.sink.write(&tail)?;
        self.sink.flush()?;
        self.sink.commit()?;
        Ok(self.written + tail.len())
    }
}

/// Start of the footer, located through the fixed-size trailer.
fn locate_footer(bytes: &[u8], trailer_magic: [u8; 4]) -> Option<usize> {
    let mut r = Reader::new(bytes.get(bytes.len().checked_sub(TRAILER_LEN)?..)?);
    let footer_len = r.u64()? as usize;
    if r.bytes(4)? != trailer_magic {
        return None;
    }
    bytes
        .len()
        .checked_sub(TRAILER_LEN.checked_add(footer_len)?)
}

/// A container's identity: the leading header block if `parse` accepts
/// it, else the footer copy. Returns the parsed header, its byte length
/// and whether the footer was used; `None` when both are unreadable.
/// `parse` reads a block from the start of its slice and returns the
/// header and the block's length.
pub(crate) fn read_identity<H>(
    bytes: &[u8],
    trailer_magic: [u8; 4],
    parse: impl Fn(&[u8]) -> Option<(H, usize)>,
) -> Option<(H, usize, bool)> {
    if let Some((header, len)) = parse(bytes) {
        return Some((header, len, false));
    }
    let start = locate_footer(bytes, trailer_magic)?;
    let (header, len) = parse(&bytes[start..])?;
    (start + len + TRAILER_LEN == bytes.len()).then_some((header, len, true))
}

// ---------------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------------

/// Destination for a snapshot or manifest byte stream.
///
/// The frame writer emits the header, each section, and the footer as
/// *separate* `write` calls, so a fault-injecting sink can tear the
/// stream at every section boundary. `commit` publishes the snapshot;
/// until it returns `Ok`, readers must never observe a partial file
/// (the contract [`FileSink`] implements with temp-file + rename).
pub trait SnapshotSink {
    /// Append the next chunk of the snapshot byte stream.
    fn write(&mut self, chunk: &[u8]) -> std::io::Result<()>;
    /// Durably persist everything written so far (e.g. `fsync`).
    fn flush(&mut self) -> std::io::Result<()>;
    /// Atomically publish the finished snapshot.
    fn commit(&mut self) -> std::io::Result<()>;
}

/// Atomic file-backed sink: writes to `<path>.tmp.<pid>.<seq>`, fsyncs,
/// and renames onto `path` at commit. If the process dies (or an
/// injected fault aborts the write) before `commit`, the destination
/// keeps its previous content; the temp file is removed on drop.
///
/// The temp suffix carries a process-wide monotonic sequence number in
/// addition to the pid: two threads checkpointing the *same* path
/// concurrently get distinct temp files, so the last rename wins with an
/// intact snapshot instead of both writers interleaving into one temp
/// file. After the rename, the parent directory is fsynced — without
/// that, a crash shortly after "atomic" commit can lose the directory
/// entry even though the data pages were durable.
pub struct FileSink {
    final_path: std::path::PathBuf,
    tmp_path: std::path::PathBuf,
    file: Option<std::fs::File>,
    committed: bool,
}

/// Process-wide temp-file sequence number (see [`FileSink::create`]).
static TMP_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

impl FileSink {
    /// Open a sink that will atomically replace `path` on commit.
    pub fn create(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        let final_path = path.as_ref().to_path_buf();
        let seq = TMP_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let mut os = final_path.as_os_str().to_owned();
        os.push(format!(".tmp.{}.{seq}", std::process::id()));
        let tmp_path = std::path::PathBuf::from(os);
        let file = std::fs::File::create(&tmp_path)?;
        Ok(Self {
            final_path,
            tmp_path,
            file: Some(file),
            committed: false,
        })
    }

    /// The temp path this sink writes to before commit (test hook).
    pub fn tmp_path(&self) -> &std::path::Path {
        &self.tmp_path
    }
}

/// Durably persist the directory entry for `path`: open its parent
/// directory and fsync it. A no-op error is surfaced to the caller —
/// commit must not report success if the dirent may still be lost.
fn sync_parent_dir(path: &std::path::Path) -> std::io::Result<()> {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => std::path::Path::new("."),
    };
    // Directories cannot be opened for writing; a read handle is what
    // fsync(2) wants. On platforms where fsync on a directory handle is
    // unsupported the open itself fails and the caller sees the error.
    std::fs::File::open(parent)?.sync_all()
}

impl SnapshotSink for FileSink {
    fn write(&mut self, chunk: &[u8]) -> std::io::Result<()> {
        use std::io::Write;
        self.file
            .as_mut()
            .expect("write after commit")
            .write_all(chunk)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.file.as_mut().expect("flush after commit").sync_all()
    }

    fn commit(&mut self) -> std::io::Result<()> {
        drop(self.file.take());
        std::fs::rename(&self.tmp_path, &self.final_path)?;
        // The rename is atomic but not durable: fsync the parent
        // directory so the new entry survives a crash. Skipping this is
        // the classic lost-dirent bug ([`WriteFault::LostDirent`]).
        sync_parent_dir(&self.final_path)?;
        self.committed = true;
        Ok(())
    }
}

impl Drop for FileSink {
    fn drop(&mut self) {
        if !self.committed {
            drop(self.file.take());
            let _ = std::fs::remove_file(&self.tmp_path);
        }
    }
}

/// In-memory sink for tests and the fault-injection harness.
#[derive(Debug, Default)]
pub struct MemorySink {
    bytes: Vec<u8>,
    committed: bool,
}

impl MemorySink {
    /// Fresh, empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// True once `commit` succeeded.
    pub fn committed(&self) -> bool {
        self.committed
    }

    /// Consume the sink; `Some(bytes)` only if the snapshot committed —
    /// an uncommitted write must never be treated as published.
    pub fn into_published(self) -> Option<Vec<u8>> {
        self.committed.then_some(self.bytes)
    }
}

impl SnapshotSink for MemorySink {
    fn write(&mut self, chunk: &[u8]) -> std::io::Result<()> {
        self.bytes.extend_from_slice(chunk);
        Ok(())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }

    fn commit(&mut self) -> std::io::Result<()> {
        self.committed = true;
        Ok(())
    }
}

/// Fault classes a [`FaultSink`] can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteFault {
    /// Writes beyond `after_bytes` fail with `ENOSPC`; nothing commits.
    Enospc {
        /// Bytes accepted before the device "fills up".
        after_bytes: usize,
    },
    /// Bytes beyond `after_bytes` are silently dropped but the commit
    /// still "succeeds" — models a torn write that got published (e.g. a
    /// filesystem that acked the rename before all data pages hit disk).
    Torn {
        /// Bytes that actually reach the medium.
        after_bytes: usize,
    },
    /// Every byte lands and `commit` returns `Ok`, but the published
    /// snapshot vanishes: the rename's directory entry was lost in a
    /// crash because the parent directory was never fsynced. The writer
    /// believes the checkpoint succeeded; a later reader finds only the
    /// previous snapshot (or nothing). This is the fault class
    /// [`FileSink::commit`]'s parent-dir fsync exists to rule out.
    LostDirent,
}

/// A [`MemorySink`] wrapper that injects one [`WriteFault`].
#[derive(Debug)]
pub struct FaultSink {
    inner: MemorySink,
    fault: WriteFault,
    written: usize,
}

impl FaultSink {
    /// Sink that injects `fault`.
    pub fn new(fault: WriteFault) -> Self {
        Self {
            inner: MemorySink::new(),
            fault,
            written: 0,
        }
    }

    /// The bytes a reader would observe afterwards: `Some` only if the
    /// snapshot was published (commit succeeded) *and* its directory
    /// entry survived — a [`WriteFault::LostDirent`] commit reports
    /// success to the writer yet publishes nothing.
    pub fn into_published(self) -> Option<Vec<u8>> {
        if matches!(self.fault, WriteFault::LostDirent) {
            return None;
        }
        self.inner.into_published()
    }

    /// True once the commit went through.
    pub fn committed(&self) -> bool {
        self.inner.committed()
    }
}

impl SnapshotSink for FaultSink {
    fn write(&mut self, chunk: &[u8]) -> std::io::Result<()> {
        // `LostDirent` leaves the write path healthy; the fault strikes at
        // publication time (see `into_published`).
        let after_bytes = match self.fault {
            WriteFault::Enospc { after_bytes } | WriteFault::Torn { after_bytes } => after_bytes,
            WriteFault::LostDirent => usize::MAX,
        };
        if self.written + chunk.len() > after_bytes {
            let keep = after_bytes.saturating_sub(self.written);
            self.inner.write(&chunk[..keep])?;
            if let WriteFault::Enospc { .. } = self.fault {
                self.written = after_bytes;
                return Err(std::io::Error::new(
                    std::io::ErrorKind::StorageFull,
                    "injected ENOSPC: no space left on device",
                ));
            }
            self.written += chunk.len(); // torn: pretend it all landed
            return Ok(());
        }
        self.written += chunk.len();
        self.inner.write(chunk)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }

    fn commit(&mut self) -> std::io::Result<()> {
        self.inner.commit()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc64_reference_vector() {
        // CRC-64/XZ check value.
        assert_eq!(crc64(b"123456789"), 0x995D_C9BB_DF19_39FA);
        assert_eq!(crc64(b""), 0);
    }
}
