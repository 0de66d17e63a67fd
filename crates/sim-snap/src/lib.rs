//! Deterministic checkpoint/restore serialization for the PRA stack.
//!
//! A *snapshot* is a zero-dependency binary image of the complete mutable
//! simulator state at one memory cycle, written so a run restored from it
//! finishes with a `state_digest` bit-identical to an uninterrupted run.
//! This crate owns the container format and the typed writer/reader; the
//! simulation crates each implement [`SnapState`] over their own private
//! state (bank FSMs, queue contents, RNG streams, retry budgets, metric
//! accumulators) and `pra-core` stitches them into one payload.
//!
//! # File layout
//!
//! ```text
//! magic "PRASNAP\0"            8 bytes
//! schema version               u32 LE
//! reserved flags               u32 LE (zero)
//! config digest                u64 LE (builder configuration FNV-1a)
//! memory cycle                 u64 LE
//! payload length               u64 LE
//! payload                      <length> bytes (SnapWriter stream)
//! checksum                     u64 LE (FNV-1a over everything above)
//! ```
//!
//! The trailing checksum plus the explicit payload length make torn files
//! (the kill-mid-write artifact) and bit corruption detectable:
//! [`read_snapshot`] refuses them with [`SnapError::Corrupt`], and
//! [`latest_valid`] silently falls back to the next-older checkpoint in the
//! directory.
//!
//! Snapshots are written atomically: the bytes land in a dot-prefixed
//! temporary in the same directory, then [`rename`](std::fs::rename) makes
//! the finished file visible. A reader can therefore never observe a
//! half-written `snap-*.snap` file through the normal naming scheme.
//!
//! Floats are serialized via [`f64::to_bits`], so energy accumulators
//! survive the round trip bit-exactly. Sections ([`SnapWriter::section`] /
//! [`SnapReader::section`]) name the component being serialized, turning a
//! save/load ordering mismatch into a clear error instead of garbage state.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]
#![warn(missing_docs)]

use std::fmt;
use std::path::{Path, PathBuf};

pub mod codec;

use codec::fnv1a_64;

/// Version of the snapshot payload schema. Bump on ANY change to what the
/// simulation crates serialize (fields, ordering, encoding): old snapshots
/// are then refused with [`SnapError::Schema`] instead of being
/// misinterpreted. There is deliberately no cross-version migration — a
/// snapshot is a resume artifact, not an archival format.
pub const SCHEMA_VERSION: u32 = 3;

/// Leading magic of every snapshot file.
pub const MAGIC: [u8; 8] = *b"PRASNAP\0";

/// File name extension of finished snapshots (`snap-<cycle>.snap`).
pub const SNAP_SUFFIX: &str = ".snap";

const HEADER_LEN: usize = 8 + 4 + 4 + 8 + 8 + 8;
const CHECKSUM_LEN: usize = 8;

/// Why a snapshot could not be produced or consumed.
#[derive(Debug)]
pub enum SnapError {
    /// Filesystem failure (create, write, rename, read, scan).
    Io {
        /// Path the operation touched.
        path: PathBuf,
        /// Underlying error.
        source: std::io::Error,
    },
    /// The file is not a snapshot, is truncated, or fails its checksum.
    Corrupt(String),
    /// The snapshot was written by a different payload schema.
    Schema {
        /// Version found in the file.
        found: u32,
        /// Version this build writes and reads.
        expected: u32,
    },
    /// The snapshot belongs to a different simulator configuration.
    ConfigDigest {
        /// Digest recorded in the snapshot header.
        found: u64,
        /// Digest of the configuration attempting the restore.
        expected: u64,
    },
    /// The payload stream ended or diverged mid-read (a save/load ordering
    /// bug, or corruption the checksum could not see — never expected).
    Decode(String),
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::Io { path, source } => {
                write!(f, "snapshot I/O on {}: {source}", path.display())
            }
            SnapError::Corrupt(msg) => write!(f, "corrupt snapshot: {msg}"),
            SnapError::Schema { found, expected } => write!(
                f,
                "snapshot schema v{found} is not readable by this build (expects v{expected})"
            ),
            SnapError::ConfigDigest { found, expected } => write!(
                f,
                "snapshot belongs to config {found:016x}, not the requested {expected:016x} \
                 — restoring would silently continue a different simulation"
            ),
            SnapError::Decode(msg) => write!(f, "snapshot decode: {msg}"),
        }
    }
}

impl std::error::Error for SnapError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Serializes mutable simulator state into a snapshot payload and overlays
/// it back. The contract: `snap_load` must leave `self` in exactly the
/// state `snap_save` captured, assuming `self` was rebuilt from the same
/// configuration (immutable parameters are *not* serialized — the config
/// digest in the header guarantees they match).
pub trait SnapState {
    /// Appends this component's mutable state to the payload.
    fn snap_save(&self, w: &mut SnapWriter);

    /// Overlays the state captured by [`SnapState::snap_save`] onto a
    /// freshly-constructed `self`.
    ///
    /// # Errors
    ///
    /// [`SnapError::Decode`] when the stream ends early or a section tag
    /// disagrees — either way the snapshot and the code are out of step and
    /// `self` must not be trusted.
    fn snap_load(&mut self, r: &mut SnapReader) -> Result<(), SnapError>;
}

/// Typed append-only payload writer. Infallible: it only grows a buffer.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// An empty payload.
    pub fn new() -> Self {
        SnapWriter { buf: Vec::new() }
    }

    /// The serialized payload.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Starts a named section. The matching [`SnapReader::section`] call
    /// verifies the name, catching save/load ordering mismatches early.
    pub fn section(&mut self, name: &str) {
        self.str(name);
    }

    /// One byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// A `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// A `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// A `usize` (stored as `u64`).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// A boolean (one byte, 0 or 1).
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// An `f64`, bit-exact via [`f64::to_bits`].
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// An optional `u64`: presence tag then the value.
    pub fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(v) => {
                self.bool(true);
                self.u64(v);
            }
            None => self.bool(false),
        }
    }

    /// A length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.usize(v.len());
        self.buf.extend_from_slice(v.as_bytes());
    }

    /// Raw bytes with a length prefix.
    pub fn bytes(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// A sequence length prefix; follow with that many elements.
    pub fn seq(&mut self, len: usize) {
        self.usize(len);
    }
}

/// Typed payload reader over a decoded snapshot. Every read is
/// bounds-checked and returns [`SnapError::Decode`] instead of panicking.
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// A reader over a payload produced by [`SnapWriter`].
    pub fn new(buf: &'a [u8]) -> Self {
        SnapReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Verifies the whole payload was consumed — a leftover tail means the
    /// save and load surfaces disagree.
    ///
    /// # Errors
    ///
    /// [`SnapError::Decode`] naming the number of unread bytes.
    pub fn finish(&self) -> Result<(), SnapError> {
        if self.remaining() != 0 {
            return Err(SnapError::Decode(format!(
                "{} unread payload bytes after restore — save/load surfaces disagree",
                self.remaining()
            )));
        }
        Ok(())
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(SnapError::Decode(format!(
                "payload ends early: wanted {n} bytes at offset {}, {} remain",
                self.pos,
                self.remaining()
            )));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Verifies the next section tag is `name`.
    ///
    /// # Errors
    ///
    /// [`SnapError::Decode`] naming both sections on a mismatch.
    pub fn section(&mut self, name: &str) -> Result<(), SnapError> {
        let found = self.str()?;
        if found != name {
            return Err(SnapError::Decode(format!(
                "expected section {name:?}, found {found:?} — snapshot and code are out of step"
            )));
        }
        Ok(())
    }

    /// One byte.
    ///
    /// # Errors
    ///
    /// [`SnapError::Decode`] when the payload ends early.
    pub fn u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    /// A `u32`, little-endian.
    ///
    /// # Errors
    ///
    /// [`SnapError::Decode`] when the payload ends early.
    pub fn u32(&mut self) -> Result<u32, SnapError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// A `u64`, little-endian.
    ///
    /// # Errors
    ///
    /// [`SnapError::Decode`] when the payload ends early.
    pub fn u64(&mut self) -> Result<u64, SnapError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// A `usize` (stored as `u64`).
    ///
    /// # Errors
    ///
    /// [`SnapError::Decode`] on early end or a value exceeding the host's
    /// `usize` range.
    pub fn usize(&mut self) -> Result<usize, SnapError> {
        let v = self.u64()?;
        usize::try_from(v)
            .map_err(|_| SnapError::Decode(format!("length {v} does not fit this host's usize")))
    }

    /// A boolean.
    ///
    /// # Errors
    ///
    /// [`SnapError::Decode`] on early end or a byte other than 0/1.
    pub fn bool(&mut self) -> Result<bool, SnapError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(SnapError::Decode(format!(
                "invalid boolean byte 0x{other:02x}"
            ))),
        }
    }

    /// An `f64`, bit-exact via [`f64::from_bits`].
    ///
    /// # Errors
    ///
    /// [`SnapError::Decode`] when the payload ends early.
    pub fn f64(&mut self) -> Result<f64, SnapError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// An optional `u64` written by [`SnapWriter::opt_u64`].
    ///
    /// # Errors
    ///
    /// [`SnapError::Decode`] on early end or a bad presence tag.
    pub fn opt_u64(&mut self) -> Result<Option<u64>, SnapError> {
        if self.bool()? {
            Ok(Some(self.u64()?))
        } else {
            Ok(None)
        }
    }

    /// A length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// [`SnapError::Decode`] on early end or invalid UTF-8.
    pub fn str(&mut self) -> Result<String, SnapError> {
        let len = self.usize()?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| SnapError::Decode("string payload is not UTF-8".to_string()))
    }

    /// Raw bytes with a length prefix.
    ///
    /// # Errors
    ///
    /// [`SnapError::Decode`] when the payload ends early.
    pub fn bytes(&mut self) -> Result<Vec<u8>, SnapError> {
        let len = self.usize()?;
        Ok(self.take(len)?.to_vec())
    }

    /// A sequence length written by [`SnapWriter::seq`], bounded by the
    /// remaining payload so a corrupt length cannot drive a huge
    /// allocation.
    ///
    /// # Errors
    ///
    /// [`SnapError::Decode`] on early end or an impossible length.
    pub fn seq(&mut self) -> Result<usize, SnapError> {
        let len = self.usize()?;
        if len > self.remaining() {
            return Err(SnapError::Decode(format!(
                "sequence length {len} exceeds the {} remaining payload bytes",
                self.remaining()
            )));
        }
        Ok(len)
    }
}

/// Decoded snapshot header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapHeader {
    /// Payload schema version (always [`SCHEMA_VERSION`] after a
    /// successful read).
    pub version: u32,
    /// FNV-1a digest of the simulator configuration that wrote the file.
    pub config_digest: u64,
    /// Memory cycle at which the state was captured.
    pub cycle: u64,
}

/// Encodes a complete snapshot file image: header, payload, checksum.
pub fn encode_snapshot(config_digest: u64, cycle: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + CHECKSUM_LEN);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&SCHEMA_VERSION.to_le_bytes());
    out.extend_from_slice(&0u32.to_le_bytes());
    out.extend_from_slice(&config_digest.to_le_bytes());
    out.extend_from_slice(&cycle.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    let checksum = fnv1a_64(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

/// Decodes and verifies a snapshot image: magic, schema version, payload
/// length and trailing checksum.
///
/// # Errors
///
/// [`SnapError::Corrupt`] on truncation, bad magic or checksum mismatch;
/// [`SnapError::Schema`] on a version this build does not read.
pub fn decode_snapshot(bytes: &[u8]) -> Result<(SnapHeader, &[u8]), SnapError> {
    if bytes.len() < HEADER_LEN + CHECKSUM_LEN {
        return Err(SnapError::Corrupt(format!(
            "file is {} bytes, shorter than the {}-byte header + checksum",
            bytes.len(),
            HEADER_LEN + CHECKSUM_LEN
        )));
    }
    if bytes[..8] != MAGIC {
        return Err(SnapError::Corrupt("bad magic — not a snapshot".to_string()));
    }
    let u32_at =
        |o: usize| u32::from_le_bytes([bytes[o], bytes[o + 1], bytes[o + 2], bytes[o + 3]]);
    let u64_at = |o: usize| {
        u64::from_le_bytes([
            bytes[o],
            bytes[o + 1],
            bytes[o + 2],
            bytes[o + 3],
            bytes[o + 4],
            bytes[o + 5],
            bytes[o + 6],
            bytes[o + 7],
        ])
    };
    let version = u32_at(8);
    if version != SCHEMA_VERSION {
        return Err(SnapError::Schema {
            found: version,
            expected: SCHEMA_VERSION,
        });
    }
    let config_digest = u64_at(16);
    let cycle = u64_at(24);
    let payload_len = u64_at(32) as usize;
    let expected_total = HEADER_LEN + payload_len + CHECKSUM_LEN;
    if bytes.len() != expected_total {
        return Err(SnapError::Corrupt(format!(
            "file is {} bytes but the header promises {} (torn write?)",
            bytes.len(),
            expected_total
        )));
    }
    let stored = u64_at(HEADER_LEN + payload_len);
    let computed = fnv1a_64(&bytes[..HEADER_LEN + payload_len]);
    if stored != computed {
        return Err(SnapError::Corrupt(format!(
            "checksum mismatch: stored {stored:016x}, computed {computed:016x}"
        )));
    }
    Ok((
        SnapHeader {
            version,
            config_digest,
            cycle,
        },
        &bytes[HEADER_LEN..HEADER_LEN + payload_len],
    ))
}

/// The canonical file name of a checkpoint at `cycle` (zero-padded so
/// lexicographic order is cycle order).
pub fn snapshot_file_name(cycle: u64) -> String {
    format!("snap-{cycle:020}{SNAP_SUFFIX}")
}

/// Writes a snapshot atomically into `dir` (created if absent): the bytes
/// land in a dot-prefixed temporary, then a rename publishes
/// `snap-<cycle>.snap`. Returns the final path.
///
/// # Errors
///
/// [`SnapError::Io`] on any filesystem failure; the temporary is removed
/// on a failed rename.
pub fn write_snapshot(
    dir: &Path,
    config_digest: u64,
    cycle: u64,
    payload: &[u8],
) -> Result<PathBuf, SnapError> {
    let io = |path: &Path, source: std::io::Error| SnapError::Io {
        path: path.to_path_buf(),
        source,
    };
    std::fs::create_dir_all(dir).map_err(|e| io(dir, e))?;
    let image = encode_snapshot(config_digest, cycle, payload);
    let final_path = dir.join(snapshot_file_name(cycle));
    let tmp_path = dir.join(format!(".tmp-snap-{cycle:020}"));
    std::fs::write(&tmp_path, &image).map_err(|e| io(&tmp_path, e))?;
    if let Err(e) = std::fs::rename(&tmp_path, &final_path) {
        let _ = std::fs::remove_file(&tmp_path);
        return Err(io(&final_path, e));
    }
    Ok(final_path)
}

/// Reads and verifies one snapshot file. When `expected_config_digest` is
/// given, the header digest must match.
///
/// # Errors
///
/// [`SnapError::Io`] on read failure, [`SnapError::Corrupt`] /
/// [`SnapError::Schema`] from [`decode_snapshot`], and
/// [`SnapError::ConfigDigest`] on a digest mismatch.
pub fn read_snapshot(
    path: &Path,
    expected_config_digest: Option<u64>,
) -> Result<(SnapHeader, Vec<u8>), SnapError> {
    let bytes = std::fs::read(path).map_err(|e| SnapError::Io {
        path: path.to_path_buf(),
        source: e,
    })?;
    let (header, payload) = decode_snapshot(&bytes)?;
    if let Some(expected) = expected_config_digest {
        if header.config_digest != expected {
            return Err(SnapError::ConfigDigest {
                found: header.config_digest,
                expected,
            });
        }
    }
    Ok((header, payload.to_vec()))
}

/// The newest *valid* checkpoint in `dir`: candidates are scanned newest
/// cycle first, and torn, corrupt, wrong-schema or wrong-config files are
/// skipped (counted in the result) so a kill mid-write falls back to the
/// next-older checkpoint instead of failing the restore. Returns `Ok(None)`
/// when the directory is absent, empty, or holds no valid snapshot.
///
/// # Errors
///
/// [`SnapError::Io`] only on a directory scan failure — unreadable
/// individual files are treated as invalid candidates, not errors.
pub fn latest_valid(
    dir: &Path,
    expected_config_digest: Option<u64>,
) -> Result<Option<FoundSnapshot>, SnapError> {
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => {
            return Err(SnapError::Io {
                path: dir.to_path_buf(),
                source: e,
            })
        }
    };
    let mut candidates: Vec<PathBuf> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("snap-") && n.ends_with(SNAP_SUFFIX))
        })
        .collect();
    // Zero-padded names: lexicographic descending = newest cycle first.
    candidates.sort();
    candidates.reverse();
    let mut skipped = 0u64;
    for path in candidates {
        match read_snapshot(&path, expected_config_digest) {
            Ok((header, payload)) => {
                return Ok(Some(FoundSnapshot {
                    path,
                    header,
                    payload,
                    skipped,
                }))
            }
            Err(_) => skipped += 1,
        }
    }
    Ok(None)
}

/// A checkpoint located by [`latest_valid`].
#[derive(Debug)]
pub struct FoundSnapshot {
    /// Path of the valid snapshot file.
    pub path: PathBuf,
    /// Its decoded header.
    pub header: SnapHeader,
    /// Its verified payload.
    pub payload: Vec<u8>,
    /// Newer candidate files skipped as torn/corrupt/mismatched before
    /// this one validated.
    pub skipped: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sim-snap-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn writer_reader_roundtrip_all_types() {
        let mut w = SnapWriter::new();
        w.section("demo");
        w.u8(0xAB);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 3);
        w.usize(77);
        w.bool(true);
        w.bool(false);
        w.f64(-0.1);
        w.f64(f64::NAN);
        w.opt_u64(Some(9));
        w.opt_u64(None);
        w.str("hello 世界");
        w.bytes(&[1, 2, 3]);
        w.seq(2);
        w.u8(4);
        w.u8(5);
        let payload = w.into_bytes();
        let mut r = SnapReader::new(&payload);
        r.section("demo").unwrap();
        assert_eq!(r.u8().unwrap(), 0xAB);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.usize().unwrap(), 77);
        assert!(r.bool().unwrap());
        assert!(!r.bool().unwrap());
        assert_eq!(r.f64().unwrap().to_bits(), (-0.1f64).to_bits());
        assert!(r.f64().unwrap().is_nan(), "NaN survives bit-exactly");
        assert_eq!(r.opt_u64().unwrap(), Some(9));
        assert_eq!(r.opt_u64().unwrap(), None);
        assert_eq!(r.str().unwrap(), "hello 世界");
        assert_eq!(r.bytes().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.seq().unwrap(), 2);
        assert_eq!(r.u8().unwrap(), 4);
        assert_eq!(r.u8().unwrap(), 5);
        r.finish().unwrap();
    }

    #[test]
    fn section_mismatch_is_a_clear_error() {
        let mut w = SnapWriter::new();
        w.section("dram");
        let payload = w.into_bytes();
        let mut r = SnapReader::new(&payload);
        let e = r.section("cache").unwrap_err();
        assert!(e.to_string().contains("expected section \"cache\""), "{e}");
        assert!(e.to_string().contains("\"dram\""), "{e}");
    }

    #[test]
    fn truncated_payload_errors_instead_of_panicking() {
        let mut w = SnapWriter::new();
        w.u64(5);
        let payload = w.into_bytes();
        let mut r = SnapReader::new(&payload[..4]);
        assert!(matches!(r.u64(), Err(SnapError::Decode(_))));
        // A hostile sequence length is rejected before allocation.
        let mut w = SnapWriter::new();
        w.usize(usize::MAX / 2);
        let payload = w.into_bytes();
        let mut r = SnapReader::new(&payload);
        assert!(matches!(r.seq(), Err(SnapError::Decode(_))));
    }

    #[test]
    fn unread_tail_is_reported() {
        let mut w = SnapWriter::new();
        w.u64(1);
        w.u64(2);
        let payload = w.into_bytes();
        let mut r = SnapReader::new(&payload);
        r.u64().unwrap();
        let e = r.finish().unwrap_err();
        assert!(e.to_string().contains("8 unread"), "{e}");
    }

    #[test]
    fn encode_decode_roundtrip_and_header_fields() {
        let image = encode_snapshot(0x1234, 999, b"payload");
        let (header, payload) = decode_snapshot(&image).unwrap();
        assert_eq!(header.version, SCHEMA_VERSION);
        assert_eq!(header.config_digest, 0x1234);
        assert_eq!(header.cycle, 999);
        assert_eq!(payload, b"payload");
    }

    #[test]
    fn torn_and_corrupt_images_are_detected() {
        let image = encode_snapshot(7, 100, &[9u8; 64]);
        // Truncation at every byte boundary is caught.
        for cut in 0..image.len() {
            assert!(
                matches!(decode_snapshot(&image[..cut]), Err(SnapError::Corrupt(_))),
                "cut at {cut} must be rejected"
            );
        }
        // A single flipped payload bit fails the checksum.
        let mut flipped = image.clone();
        flipped[HEADER_LEN + 10] ^= 0x40;
        let e = decode_snapshot(&flipped).unwrap_err();
        assert!(e.to_string().contains("checksum"), "{e}");
        // Bad magic is not a snapshot at all.
        let mut bad = image.clone();
        bad[0] = b'X';
        let e = decode_snapshot(&bad).unwrap_err();
        assert!(e.to_string().contains("magic"), "{e}");
    }

    #[test]
    fn future_schema_is_refused() {
        let mut image = encode_snapshot(1, 1, b"x");
        image[8..12].copy_from_slice(&(SCHEMA_VERSION + 1).to_le_bytes());
        // Re-seal the checksum so only the version differs.
        let body_len = image.len() - CHECKSUM_LEN;
        let sum = fnv1a_64(&image[..body_len]);
        image[body_len..].copy_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            decode_snapshot(&image),
            Err(SnapError::Schema { .. })
        ));
    }

    #[test]
    fn write_read_and_config_digest_check() {
        let dir = temp_dir("write-read");
        let path = write_snapshot(&dir, 42, 1000, b"state").unwrap();
        assert!(path
            .file_name()
            .unwrap()
            .to_str()
            .unwrap()
            .starts_with("snap-"));
        let (header, payload) = read_snapshot(&path, Some(42)).unwrap();
        assert_eq!(header.cycle, 1000);
        assert_eq!(payload, b"state");
        let e = read_snapshot(&path, Some(43)).unwrap_err();
        assert!(matches!(
            e,
            SnapError::ConfigDigest {
                found: 42,
                expected: 43
            }
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn latest_valid_prefers_newest_and_falls_back_past_torn_files() {
        let dir = temp_dir("fallback");
        write_snapshot(&dir, 1, 100, b"old").unwrap();
        write_snapshot(&dir, 1, 200, b"mid").unwrap();
        let newest = write_snapshot(&dir, 1, 300, b"new").unwrap();
        let found = latest_valid(&dir, Some(1)).unwrap().unwrap();
        assert_eq!(found.header.cycle, 300);
        assert_eq!(found.skipped, 0);
        // Truncate the newest (torn write): fallback to cycle 200.
        let bytes = std::fs::read(&newest).unwrap();
        std::fs::write(&newest, &bytes[..bytes.len() / 2]).unwrap();
        let found = latest_valid(&dir, Some(1)).unwrap().unwrap();
        assert_eq!(found.header.cycle, 200);
        assert_eq!(found.payload, b"mid");
        assert_eq!(found.skipped, 1);
        // A wrong config digest skips everything.
        assert!(latest_valid(&dir, Some(2)).unwrap().is_none());
        // Absent directory is a clean None.
        assert!(latest_valid(&dir.join("nope"), None).unwrap().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_names_sort_by_cycle() {
        let a = snapshot_file_name(999);
        let b = snapshot_file_name(1000);
        assert!(a < b, "zero padding keeps lexicographic = numeric order");
    }
}
