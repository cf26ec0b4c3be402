//! Content-addressed artifact store for pipeline stage outputs.
//!
//! Each pipeline stage persists its output as one *artifact*: a file
//! named `<stage>-<fingerprint:016x>.art` whose fingerprint is a
//! stable 64-bit hash of the stage's configuration, its upstream
//! artifact fingerprints, and a per-stage code-version constant. The
//! store is deliberately dumb — it maps `(name, fingerprint)` to a
//! byte payload and back — so cache *policy* (what a fingerprint
//! covers, when to recompute) lives entirely with the caller.
//!
//! The on-disk frame reuses the WAL's defensive posture: an 8-byte
//! magic (`NDART02\n`), the fingerprint, the payload length, and a
//! checksum guard every read. The checksum is FNV-1a taken over the
//! payload's little-endian 8-byte words and then its 0–7 tail bytes,
//! one multiply per word rather than per byte. [`ArtifactStore::load`]
//! answers `None` for *any* defect — missing file, torn write,
//! truncation, checksum or fingerprint mismatch, a frame of an older
//! format — because the caller can always recompute; corruption must
//! degrade to a cache miss, never to an error. Neither direction
//! copies the payload: a save writes the header and then the caller's
//! bytes, and a load reads the header and then the payload straight
//! into the buffer it returns. Writes go through a temp file synced
//! before the rename, and the directory is synced after it, so a crash
//! leaves either the old artifact or a stray temp file, never a torn
//! frame under the final name, and a save that returned survives it.
//!
//! Payload encoding is the caller's business via [`ByteWriter`] /
//! [`ByteReader`]: little-endian fixed-width integers and
//! `f64::to_bits` floats, so a decoded artifact is bit-identical to
//! the encoded value — the property the pipeline's warm-equals-cold
//! contract rests on.

use crate::error::Result;
use std::fmt;
use std::io::{Read, Write};
use std::path::PathBuf;

/// Artifact frame magic: identifies the format and its version.
/// Bump the trailing digit when the frame layout or checksum changes.
const MAGIC: &[u8; 8] = b"NDART02\n";

/// Frame header size: magic + fingerprint + length + checksum.
const HEADER: usize = 8 + 8 + 8 + 8;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Stable 64-bit FNV-1a hash. The pipeline's fingerprint combiner and
/// digest: it is fully deterministic across processes, platforms and
/// std versions (unlike `DefaultHasher`, which is documented to
/// change).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// The frame checksum: FNV-1a over the payload's little-endian 8-byte
/// words, then over its 0–7 tail bytes. Each step (xor, then multiply
/// by an odd constant) is a bijection of the running hash, so a change
/// confined to one word or one tail byte always changes the checksum.
fn frame_checksum(payload: &[u8]) -> u64 {
    let words = payload.chunks_exact(8);
    let tail = words.remainder();
    let h = words.fold(FNV_OFFSET, |h, w| {
        let mut word = [0u8; 8];
        word.copy_from_slice(w);
        (h ^ u64::from_le_bytes(word)).wrapping_mul(FNV_PRIME)
    });
    tail.iter().fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// Chains fingerprint words into one 64-bit digest: each word is
/// appended little-endian and the concatenation is FNV-1a hashed.
///
/// This is the streaming pipeline's per-slice cache-key combiner: a
/// stage's fingerprint at slice `k` chains its fingerprint at slice
/// `k − 1` (position matters — `chain_fingerprint(&[a, b])` and
/// `chain_fingerprint(&[b, a])` differ), so invalidating any slice
/// invalidates every later slice of the same stage without reading a
/// single artifact payload.
pub fn chain_fingerprint(words: &[u64]) -> u64 {
    let mut buf = Vec::with_capacity(words.len() * 8);
    for &w in words {
        buf.extend_from_slice(&w.to_le_bytes());
    }
    fnv1a64(&buf)
}

/// A decode failure inside an artifact payload.
///
/// Distinct from [`crate::StoreError`] on purpose: payload decoding
/// is infallible-by-recompute (the caller treats any variant as a
/// cache miss), while store errors are real I/O failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArtifactError {
    /// The payload ended before a read completed.
    Truncated {
        /// Bytes the read needed.
        need: usize,
        /// Bytes that remained.
        have: usize,
    },
    /// The payload decoded but violated a structural invariant.
    Malformed(&'static str),
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::Truncated { need, have } => {
                write!(f, "artifact payload truncated: needed {need} bytes, had {have}")
            }
            ArtifactError::Malformed(what) => write!(f, "malformed artifact payload: {what}"),
        }
    }
}

impl std::error::Error for ArtifactError {}

/// Append-only byte encoder for artifact payloads.
///
/// All integers are little-endian; floats are stored as raw
/// `f64::to_bits` so encode→decode is bit-exact.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// Bytes encoded so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the writer, returning the payload.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Number of bytes encoded so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` (as `u64`, so payloads are portable across
    /// pointer widths).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends an `f64` as its raw bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends a length-prefixed slice of `f64`s.
    pub fn put_f64_slice(&mut self, xs: &[f64]) {
        self.put_usize(xs.len());
        for &x in xs {
            self.put_f64(x);
        }
    }

    /// Appends a length-prefixed list of strings.
    pub fn put_str_list(&mut self, xs: &[String]) {
        self.put_usize(xs.len());
        for x in xs {
            self.put_str(x);
        }
    }
}

/// Cursor over an artifact payload; every read is bounds-checked and
/// fails with [`ArtifactError::Truncated`] rather than panicking, so
/// a corrupt payload can always be treated as a cache miss.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// `true` when the payload is fully consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> std::result::Result<&'a [u8], ArtifactError> {
        if self.remaining() < n {
            return Err(ArtifactError::Truncated { need: n, have: self.remaining() });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> std::result::Result<u8, ArtifactError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> std::result::Result<u32, ArtifactError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> std::result::Result<u64, ArtifactError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// Reads a `usize` written by [`ByteWriter::put_usize`].
    pub fn usize(&mut self) -> std::result::Result<usize, ArtifactError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| ArtifactError::Malformed("usize out of range"))
    }

    /// Reads a length that must be backed by at least one byte per
    /// element still in the buffer — rejects corrupt giant lengths
    /// before any allocation happens.
    pub fn len_prefix(&mut self) -> std::result::Result<usize, ArtifactError> {
        let n = self.usize()?;
        if n > self.remaining() {
            return Err(ArtifactError::Truncated { need: n, have: self.remaining() });
        }
        Ok(n)
    }

    /// Reads an `f64` from its raw bit pattern.
    pub fn f64(&mut self) -> std::result::Result<f64, ArtifactError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> std::result::Result<String, ArtifactError> {
        let n = self.len_prefix()?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| ArtifactError::Malformed("string is not UTF-8"))
    }

    /// Reads a slice written by [`ByteWriter::put_f64_slice`].
    pub fn f64_vec(&mut self) -> std::result::Result<Vec<f64>, ArtifactError> {
        let n = self.usize()?;
        if n.saturating_mul(8) > self.remaining() {
            return Err(ArtifactError::Truncated {
                need: n.saturating_mul(8),
                have: self.remaining(),
            });
        }
        (0..n).map(|_| self.f64()).collect()
    }

    /// Reads a list written by [`ByteWriter::put_str_list`].
    pub fn str_list(&mut self) -> std::result::Result<Vec<String>, ArtifactError> {
        let n = self.len_prefix()?;
        (0..n).map(|_| self.str()).collect()
    }
}

/// A directory of content-addressed stage artifacts.
#[derive(Debug, Clone)]
pub struct ArtifactStore {
    dir: PathBuf,
}

impl ArtifactStore {
    /// Opens (creating if needed) the artifact directory.
    pub fn open(dir: impl Into<PathBuf>) -> Result<ArtifactStore> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(ArtifactStore { dir })
    }

    /// Path of the artifact file for `(name, fingerprint)`.
    pub fn path_for(&self, name: &str, fingerprint: u64) -> PathBuf {
        self.dir.join(format!("{name}-{fingerprint:016x}.art"))
    }

    /// Persists a payload under `(name, fingerprint)`, atomically and
    /// durably (temp file, data sync, rename, directory sync). The
    /// header and the payload are written as they are, with no frame
    /// buffer. Returns the total bytes written, header included.
    pub fn save(&self, name: &str, fingerprint: u64, payload: &[u8]) -> Result<u64> {
        let (len, checksum) = (payload.len() as u64, frame_checksum(payload));
        let header = [*MAGIC, fingerprint.to_le_bytes(), len.to_le_bytes(), checksum.to_le_bytes()];
        let tmp = self.dir.join(format!(".{name}-{fingerprint:016x}.{}.tmp", std::process::id()));
        let mut file = std::fs::File::create(&tmp)?;
        file.write_all(header.as_flattened())?;
        file.write_all(payload)?;
        file.sync_data()?;
        std::fs::rename(&tmp, self.path_for(name, fingerprint))?;
        // The new name itself is durable only once the directory is.
        std::fs::File::open(&self.dir)?.sync_all()?;
        Ok(HEADER as u64 + len)
    }

    /// Fingerprints of the artifacts saved under `name`, ascending.
    /// Only files named exactly `<name>-<16 lowercase hex>.art` count,
    /// so `likes` never lists `likes-mlp-…`, and temp files are skipped.
    pub fn fingerprints(&self, name: &str) -> Result<Vec<u64>> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let file = entry?.file_name();
            let rest = file.to_str().and_then(|f| f.strip_prefix(name)?.strip_prefix('-'));
            let hex = rest.and_then(|f| f.strip_suffix(".art")).filter(|h| {
                h.len() == 16 && h.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'))
            });
            out.extend(hex.and_then(|h| u64::from_str_radix(h, 16).ok()));
        }
        out.sort_unstable();
        Ok(out)
    }

    /// Deletes the artifact for `(name, fingerprint)`.
    pub fn remove(&self, name: &str, fingerprint: u64) -> Result<()> {
        Ok(std::fs::remove_file(self.path_for(name, fingerprint))?)
    }

    /// Loads the payload for `(name, fingerprint)`, read from the file
    /// straight into the returned buffer after the header.
    ///
    /// Answers `None` for *any* defect — missing, truncated, torn,
    /// checksum or fingerprint mismatch, another frame format,
    /// unreadable — because every artifact is recomputable and
    /// corruption must act like a cache miss, never an error.
    pub fn load(&self, name: &str, fingerprint: u64) -> Option<Vec<u8>> {
        let mut file = std::fs::File::open(self.path_for(name, fingerprint)).ok()?;
        let mut header = [[0u8; 8]; 4];
        file.read_exact(header.as_flattened_mut()).ok()?;
        let [magic, fp, len, checksum] = header.map(u64::from_le_bytes);
        let size = file.metadata().ok()?.len();
        if magic != u64::from_le_bytes(*MAGIC)
            || fp != fingerprint
            || size.checked_sub(HEADER as u64) != Some(len)
        {
            return None;
        }
        let mut payload = Vec::with_capacity(usize::try_from(len).ok()?);
        file.read_to_end(&mut payload).ok()?;
        (payload.len() as u64 == len && frame_checksum(&payload) == checksum).then_some(payload)
    }

    /// Writes a plain-text sidecar file (e.g. `run_report.json`) into
    /// the artifact directory.
    pub fn write_text(&self, file_name: &str, contents: &str) -> Result<()> {
        let tmp = self.dir.join(format!(".{file_name}.{}.tmp", std::process::id()));
        std::fs::write(&tmp, contents)?;
        std::fs::rename(&tmp, self.dir.join(file_name))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let p =
            std::env::temp_dir().join(format!("ndart-{}-{}", std::process::id(), name));
        std::fs::remove_dir_all(&p).ok();
        p
    }

    #[test]
    fn writer_reader_roundtrip_is_bit_exact() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 3);
        w.put_usize(123_456);
        w.put_f64(-0.0);
        w.put_f64(f64::NAN);
        w.put_str("újság… 北京");
        w.put_f64_slice(&[1.5, -2.25, 1e-300]);
        w.put_str_list(&["a".to_string(), String::new()]);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.usize().unwrap(), 123_456);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.f64().unwrap().to_bits(), f64::NAN.to_bits());
        assert_eq!(r.str().unwrap(), "újság… 北京");
        let xs = r.f64_vec().unwrap();
        assert_eq!(xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>(), vec![
            1.5f64.to_bits(),
            (-2.25f64).to_bits(),
            1e-300f64.to_bits()
        ]);
        assert_eq!(r.str_list().unwrap(), vec!["a".to_string(), String::new()]);
        assert!(r.is_empty());
    }

    #[test]
    fn reader_reports_truncation_not_panics() {
        let mut w = ByteWriter::new();
        w.put_str("hello");
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes[..bytes.len() - 2]);
        assert!(matches!(r.str(), Err(ArtifactError::Truncated { .. })));
        // A corrupt giant length prefix fails before allocating.
        let mut w = ByteWriter::new();
        w.put_u64(u64::MAX / 2);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(r.str().is_err());
        let mut r = ByteReader::new(&bytes);
        assert!(r.f64_vec().is_err());
    }

    #[test]
    fn store_roundtrip_and_miss() {
        let dir = tmpdir("roundtrip");
        let store = ArtifactStore::open(&dir).unwrap();
        assert!(store.load("topics", 0xfeed).is_none(), "empty store misses");
        let payload = b"the topic model bytes".to_vec();
        let written = store.save("topics", 0xfeed, &payload).unwrap();
        assert_eq!(written as usize, HEADER + payload.len());
        let on_disk = std::fs::metadata(store.path_for("topics", 0xfeed)).unwrap().len();
        assert_eq!(on_disk, written, "save reports the header plus the payload");
        assert_eq!(store.load("topics", 0xfeed).unwrap(), payload);
        // A different fingerprint is a different artifact.
        assert!(store.load("topics", 0xbeef).is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupted_artifacts_read_as_misses() {
        let dir = tmpdir("corrupt");
        let store = ArtifactStore::open(&dir).unwrap();
        // 32 words and a 3-byte tail.
        let payload: Vec<u8> = (0..259u32).map(|i| (i * 7) as u8).collect();
        store.save("events", 0xabcd, &payload).unwrap();
        let path = store.path_for("events", 0xabcd);

        // Truncation (torn write).
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        assert!(store.load("events", 0xabcd).is_none(), "truncated frame must miss");

        // A flipped payload byte (checksum mismatch) in the first word,
        // a middle word and the tail.
        for at in [0, 16 * 8 + 5, 257] {
            let mut flipped = full.clone();
            flipped[HEADER + at] ^= 0xFF;
            std::fs::write(&path, &flipped).unwrap();
            assert!(store.load("events", 0xabcd).is_none(), "bad checksum at {at} must miss");
        }

        // Wrong magic.
        let mut bad_magic = full.clone();
        bad_magic[0] = b'X';
        std::fs::write(&path, &bad_magic).unwrap();
        assert!(store.load("events", 0xabcd).is_none(), "bad magic must miss");

        // An NDART01 frame: the older magic and its byte-wise checksum.
        let mut ndart01 = b"NDART01\n".to_vec();
        for word in [0xabcd, payload.len() as u64, fnv1a64(&payload)] {
            ndart01.extend_from_slice(&word.to_le_bytes());
        }
        ndart01.extend_from_slice(&payload);
        std::fs::write(&path, &ndart01).unwrap();
        assert!(store.load("events", 0xabcd).is_none(), "an NDART01 frame must miss");

        // Restoring the original frame heals the cache entry.
        std::fs::write(&path, &full).unwrap();
        assert_eq!(store.load("events", 0xabcd).unwrap(), payload);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn frame_checksum_is_pinned() {
        // Pinned values: a drift would turn every frame on disk into a
        // miss without a magic bump.
        assert_eq!(frame_checksum(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(frame_checksum(b"newsdiff"), 0x4963_7524_45e6_7171);
        assert_eq!(frame_checksum(b"hello world"), 0x1168_7211_8618_d257);
    }

    #[test]
    fn fingerprints_list_one_name_ascending_and_remove_deletes() {
        let dir = tmpdir("list");
        let store = ArtifactStore::open(&dir).unwrap();
        for fp in [3, 0x1_0000_0000, 1] {
            store.save("likes", fp, b"x").unwrap();
        }
        store.save("likes-mlp", 2, b"x").unwrap();
        std::fs::write(dir.join(".likes-0000000000000004.9.tmp"), b"x").unwrap();
        std::fs::write(dir.join("likes-000000000000000A.art"), b"x").unwrap();
        std::fs::write(dir.join("likes-+00000000000000b.art"), b"x").unwrap();
        std::fs::write(dir.join("wal.log"), b"x").unwrap();
        assert_eq!(store.fingerprints("likes").unwrap(), vec![1, 3, 0x1_0000_0000]);
        assert_eq!(store.fingerprints("likes-mlp").unwrap(), vec![2]);
        assert!(store.fingerprints("retweets").unwrap().is_empty());
        store.remove("likes", 3).unwrap();
        assert_eq!(store.fingerprints("likes").unwrap(), vec![1, 0x1_0000_0000]);
        assert!(store.load("likes", 3).is_none());
        assert!(store.remove("likes", 3).is_err(), "removing a missing artifact fails");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fnv_is_stable() {
        // Pinned values: the fingerprint scheme must never drift
        // between versions, or every cache on disk silently invalidates.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"newsdiff"), fnv1a64(b"newsdiff"));
        assert_ne!(fnv1a64(b"newsdiff"), fnv1a64(b"newsdifg"));
    }

    #[test]
    fn chain_fingerprint_is_positional_and_stable() {
        assert_eq!(chain_fingerprint(&[]), fnv1a64(b""));
        assert_eq!(chain_fingerprint(&[1, 2]), chain_fingerprint(&[1, 2]));
        assert_ne!(chain_fingerprint(&[1, 2]), chain_fingerprint(&[2, 1]));
        // Chaining is not concatenation-ambiguous: [a] then b differs
        // from a fresh [b] then a.
        let a = chain_fingerprint(&[7]);
        let b = chain_fingerprint(&[9]);
        assert_ne!(chain_fingerprint(&[a, 9]), chain_fingerprint(&[b, 7]));
    }

    #[test]
    fn write_text_sidecar() {
        let dir = tmpdir("sidecar");
        let store = ArtifactStore::open(&dir).unwrap();
        store.write_text("run_report.json", "{\"ok\":true}").unwrap();
        let text = std::fs::read_to_string(dir.join("run_report.json")).unwrap();
        assert_eq!(text, "{\"ok\":true}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
