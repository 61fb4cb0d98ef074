//! Binary encoding primitives shared by every durable and wire format:
//! little-endian scalar put/take helpers, a CRC-32 (IEEE 802.3) checksum,
//! and the one frame layout used by the write-ahead ledger and the TCP
//! wire.
//!
//! Formats are encoded by hand. Everything is little-endian; floats are
//! stored as their raw IEEE-754 bits, which makes recovered budget state
//! *bit-exact* rather than merely approximately equal.
//!
//! # Frames
//!
//! ```text
//! frame = len: u32 | crc32(payload): u32 | payload (len bytes)
//! ```
//!
//! [`frame`] / [`put_frame`] refuse a payload over the caller's cap;
//! [`split_frame`] cuts one verified frame off the front of a buffer,
//! checking the cap as soon as the 8-byte header is visible, so a hostile
//! length never drives an allocation. [`scan_frames`] applies the one
//! damage rule for files of frames behind a magic:
//!
//! * a strict prefix of the magic (an empty file included) is a fresh
//!   file — a first-open crash tore the magic write;
//! * a bad frame whose declared end reaches end-of-file is a **torn
//!   tail**: a crash cut the last append short, and the caller discards it;
//! * a bad frame followed by more bytes, or any declared length over the
//!   cap, is **corruption**: the caller refuses the file and leaves it as
//!   it is.

/// CRC-32 (IEEE) lookup table, computed at compile time.
const CRC_TABLE: [u32; 256] = build_crc_table();

const fn build_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                0xEDB8_8320 ^ (crc >> 1)
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// The CRC-32 (IEEE 802.3) checksum of `bytes`.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// Bytes in a frame header: the payload length and its CRC-32.
pub const FRAME_HEADER: usize = 8;

/// Why a frame was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The payload (declared or offered) is longer than the cap.
    TooLong {
        /// The payload length.
        len: usize,
        /// The caller's cap.
        cap: usize,
    },
    /// The payload does not hash to the header's checksum.
    Checksum {
        /// The checksum the header carries.
        stored: u32,
        /// The checksum the payload hashes to.
        computed: u32,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::TooLong { len, cap } => write!(f, "frame length {len} over the {cap} cap"),
            FrameError::Checksum { stored, computed } => {
                write!(f, "frame checksum {stored:#010x} != {computed:#010x}")
            }
        }
    }
}

/// What [`split_frame`] found at the front of a buffer.
#[derive(Debug, PartialEq, Eq)]
pub enum Split<'a> {
    /// No complete frame yet: the frame needs at least this many bytes
    /// (the header alone until it is visible, then header + payload).
    Need(usize),
    /// A verified frame: its payload and the bytes it spans.
    Frame(&'a [u8], usize),
}

/// Appends one frame carrying `payload` to `out`, refusing (and writing
/// nothing) when the payload is longer than `cap` or than the `u32`
/// length field can say.
pub fn put_frame(out: &mut Vec<u8>, payload: &[u8], cap: usize) -> Result<(), FrameError> {
    let len = payload.len();
    if len > cap.min(u32::MAX as usize) {
        return Err(FrameError::TooLong { len, cap });
    }
    out.reserve(FRAME_HEADER + len);
    out.extend_from_slice(&(len as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    Ok(())
}

/// One frame carrying `payload`, in a single allocation; see
/// [`put_frame`].
pub fn frame(payload: &[u8], cap: usize) -> Result<Vec<u8>, FrameError> {
    let mut out = Vec::new();
    put_frame(&mut out, payload, cap).map(|()| out)
}

/// The declared payload length and checksum, once the header is visible.
fn frame_header(buf: &[u8]) -> Option<(usize, u32)> {
    let header = buf.get(..FRAME_HEADER)?;
    let len = u32::from_le_bytes(header[..4].try_into().expect("4-byte slice"));
    let crc = u32::from_le_bytes(header[4..].try_into().expect("4-byte slice"));
    Some((len as usize, crc))
}

/// Cuts the first frame off `buf`: [`Split::Need`] while it is incomplete,
/// the verified payload once it is whole, or a [`FrameError`] — a length
/// over `cap` as soon as the header is visible, a checksum mismatch once
/// the payload is.
pub fn split_frame(buf: &[u8], cap: usize) -> Result<Split<'_>, FrameError> {
    let Some((len, stored)) = frame_header(buf) else {
        return Ok(Split::Need(FRAME_HEADER));
    };
    if len > cap {
        return Err(FrameError::TooLong { len, cap });
    }
    let end = FRAME_HEADER + len;
    let Some(payload) = buf.get(FRAME_HEADER..end) else {
        return Ok(Split::Need(end));
    };
    let computed = crc32(payload);
    if computed != stored {
        return Err(FrameError::Checksum { stored, computed });
    }
    Ok(Split::Frame(payload, end))
}

/// Where a file of frames failed verification, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameDamage {
    /// Byte offset of the damaged frame (0 for the magic).
    pub offset: u64,
    /// What failed.
    pub reason: String,
}

/// A file of frames, read under the damage rule of [`scan_frames`].
#[derive(Debug, PartialEq, Eq)]
pub struct FrameScan<'a> {
    /// Every intact frame in file order: its offset and its payload.
    pub frames: Vec<(u64, &'a [u8])>,
    /// Bytes of the intact prefix (magic plus intact frames); 0 for a
    /// fresh file, which the caller re-initialises.
    pub valid_len: u64,
    /// The torn tail after the intact prefix, which the caller discards.
    pub torn: Option<FrameDamage>,
}

/// Reads a file of frames behind `magic` under the one damage rule (see
/// the module docs): a fresh file and a torn tail are `Ok`; mid-file
/// damage, a bad magic and a declared length over `cap` are the `Err`.
pub fn scan_frames<'a>(
    file: &'a [u8],
    magic: &[u8],
    cap: usize,
) -> Result<FrameScan<'a>, FrameDamage> {
    let mut scan = FrameScan {
        frames: Vec::new(),
        valid_len: 0,
        torn: None,
    };
    if file.len() < magic.len() && magic.starts_with(file) {
        return Ok(scan);
    }
    if !file.starts_with(magic) {
        let reason = "bad or truncated magic".to_owned();
        return Err(FrameDamage { offset: 0, reason });
    }
    let mut offset = magic.len();
    while offset < file.len() {
        let (at, rest) = (offset as u64, &file[offset..]);
        let damage = |reason: String| FrameDamage { offset: at, reason };
        let ends_at_eof = |(len, _): (usize, u32)| FRAME_HEADER + len == rest.len();
        match split_frame(rest, cap) {
            Ok(Split::Frame(payload, consumed)) => {
                scan.frames.push((at, payload));
                offset += consumed;
            }
            Ok(Split::Need(_)) => {
                scan.torn = Some(damage("torn frame".to_owned()));
                break;
            }
            Err(e @ FrameError::Checksum { .. }) if frame_header(rest).is_some_and(ends_at_eof) => {
                scan.torn = Some(damage(e.to_string()));
                break;
            }
            Err(e) => return Err(damage(e.to_string())),
        }
    }
    scan.valid_len = offset as u64;
    Ok(scan)
}

/// An append-only byte buffer with typed put helpers.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// An empty encoder.
    #[must_use]
    pub fn new() -> Self {
        Encoder { buf: Vec::new() }
    }

    /// The encoded bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `i64` (two's complement).
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a boolean as one byte (`0` / `1`).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Appends an `f64` as its raw IEEE-754 bits.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_u32(v.len() as u32);
        self.buf.extend_from_slice(v.as_bytes());
    }

    /// Appends a length-prefixed opaque byte string (e.g. an embedded,
    /// already-encoded record payload).
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    /// Appends a length-prefixed `f64` slice.
    pub fn put_f64_slice(&mut self, v: &[f64]) {
        self.put_u32(v.len() as u32);
        for &x in v {
            self.put_f64(x);
        }
    }

    /// Appends an `Option<f64>` as a presence byte plus the raw bits.
    pub fn put_opt_f64(&mut self, v: Option<f64>) {
        match v {
            Some(x) => {
                self.put_u8(1);
                self.put_f64(x);
            }
            None => self.put_u8(0),
        }
    }

    /// Appends a list of domain-index-encoded rows (count, then per row a
    /// cell count and the `u32` cells) — the update-batch row layout
    /// shared by the WAL's update frames and the snapshot's update log.
    pub fn put_u32_rows(&mut self, rows: &[Vec<u32>]) {
        self.put_u32(rows.len() as u32);
        for row in rows {
            self.put_u32(row.len() as u32);
            for &v in row {
                self.put_u32(v);
            }
        }
    }
}

/// A cursor over encoded bytes with typed take helpers. Every taker
/// returns `Err(reason)` instead of panicking when the buffer is short or
/// malformed — callers wrap the reason into a typed
/// [`dprov_core::StorageError::Corrupt`].
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

/// Decode failure reason (human-readable; wrapped into
/// [`dprov_core::StorageError`] by callers that know file and offset).
pub type DecodeResult<T> = Result<T, String>;

impl<'a> Decoder<'a> {
    /// A decoder over `buf`.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder { buf, pos: 0 }
    }

    /// Number of bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Succeeds when the buffer is fully consumed: a message must use its
    /// whole payload, so trailing bytes are damage, not slack.
    pub fn finish(&self) -> DecodeResult<()> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(format!("{n} trailing bytes after the payload")),
        }
    }

    /// Reads a `u32` item count, refusing any count whose items — at
    /// least `min_item_bytes` each — could not fit in the remaining
    /// payload, so a corrupt count cannot drive a giant allocation.
    pub fn take_count(&mut self, min_item_bytes: usize) -> DecodeResult<usize> {
        let n = self.take_u32()? as usize;
        if n.saturating_mul(min_item_bytes) > self.remaining() {
            return Err(format!(
                "count {n} of {min_item_bytes}-byte items exceeds the {}-byte payload left",
                self.remaining()
            ));
        }
        Ok(n)
    }

    fn take(&mut self, n: usize) -> DecodeResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(format!(
                "truncated payload: wanted {n} bytes, {} left",
                self.remaining()
            ));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn take_u8(&mut self) -> DecodeResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn take_u32(&mut self) -> DecodeResult<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn take_u64(&mut self) -> DecodeResult<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a counter the reader continues after — a sequence number,
    /// a session id, an epoch — refusing `u64::MAX`, which has no
    /// successor.
    pub fn take_counter(&mut self) -> DecodeResult<u64> {
        match self.take_u64()? {
            u64::MAX => Err("a counter at u64::MAX has no successor".to_owned()),
            value => Ok(value),
        }
    }

    /// Reads a little-endian `i64` (two's complement).
    pub fn take_i64(&mut self) -> DecodeResult<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a boolean written by [`Encoder::put_bool`], rejecting any
    /// byte other than `0` or `1`.
    pub fn take_bool(&mut self) -> DecodeResult<bool> {
        match self.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(format!("invalid bool byte {t}")),
        }
    }

    /// Reads an `f64` from raw IEEE-754 bits.
    pub fn take_f64(&mut self) -> DecodeResult<f64> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn take_str(&mut self) -> DecodeResult<String> {
        let len = self.take_count(1)?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|e| format!("invalid utf-8 string: {e}"))
    }

    /// Reads a length-prefixed opaque byte string written by
    /// [`Encoder::put_bytes`]; the length is bounded by the remaining
    /// payload, so a corrupt prefix cannot drive a giant allocation.
    pub fn take_bytes(&mut self) -> DecodeResult<Vec<u8>> {
        let len = self.take_count(1)?;
        Ok(self.take(len)?.to_vec())
    }

    /// Reads a length-prefixed `f64` slice.
    pub fn take_f64_slice(&mut self) -> DecodeResult<Vec<f64>> {
        let len = self.take_count(8)?;
        (0..len).map(|_| self.take_f64()).collect()
    }

    /// Reads an `Option<f64>` written by [`Encoder::put_opt_f64`].
    pub fn take_opt_f64(&mut self) -> DecodeResult<Option<f64>> {
        match self.take_u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.take_f64()?)),
            t => Err(format!("invalid option tag {t}")),
        }
    }

    /// Reads encoded rows written by [`Encoder::put_u32_rows`], bounding
    /// every length prefix by the remaining payload so corrupt counts
    /// cannot drive unbounded allocation.
    pub fn take_u32_rows(&mut self) -> DecodeResult<Vec<Vec<u32>>> {
        let n = self.take_count(4)?;
        let mut rows = Vec::with_capacity(n);
        for _ in 0..n {
            let len = self.take_count(4)?;
            let mut row = Vec::with_capacity(len);
            for _ in 0..len {
                row.push(self.take_u32()?);
            }
            rows.push(row);
        }
        Ok(rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check value for "123456789" under CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"a"), crc32(b"b"));
    }

    #[test]
    fn encode_decode_round_trips() {
        let mut enc = Encoder::new();
        enc.put_u8(7);
        enc.put_u32(0xDEAD_BEEF);
        enc.put_u64(u64::MAX - 3);
        enc.put_f64(-0.125);
        enc.put_f64(f64::NAN);
        enc.put_str("adult.age");
        enc.put_f64_slice(&[1.5, -2.5, 1e-300]);
        enc.put_opt_f64(Some(0.75));
        enc.put_opt_f64(None);
        let bytes = enc.into_bytes();

        let mut dec = Decoder::new(&bytes);
        assert_eq!(dec.take_u8().unwrap(), 7);
        assert_eq!(dec.take_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(dec.take_u64().unwrap(), u64::MAX - 3);
        assert_eq!(dec.take_f64().unwrap(), -0.125);
        assert!(dec.take_f64().unwrap().is_nan());
        assert_eq!(dec.take_str().unwrap(), "adult.age");
        assert_eq!(dec.take_f64_slice().unwrap(), vec![1.5, -2.5, 1e-300]);
        assert_eq!(dec.take_opt_f64().unwrap(), Some(0.75));
        assert_eq!(dec.take_opt_f64().unwrap(), None);
        dec.finish().unwrap();
        // One byte more is trailing damage.
        let mut longer = bytes.clone();
        longer.push(0);
        let mut dec = Decoder::new(&longer);
        dec.take(bytes.len()).unwrap();
        assert!(dec.finish().unwrap_err().contains("1 trailing"));
    }

    #[test]
    fn take_count_bounds_counts_by_the_payload_left() {
        let mut enc = Encoder::new();
        enc.put_u32(3);
        enc.put_u64(0);
        enc.put_u32(1);
        let bytes = enc.into_bytes();
        // 3 items of 4 bytes fit in the 12 bytes left; of 5 bytes they do not.
        assert_eq!(Decoder::new(&bytes).take_count(4).unwrap(), 3);
        let err = Decoder::new(&bytes).take_count(5).unwrap_err();
        assert!(err.contains("count 3"), "{err}");
        let hostile = u32::MAX.to_le_bytes();
        assert!(Decoder::new(&hostile).take_count(1).is_err());
        assert_eq!(Decoder::new(&0u32.to_le_bytes()).take_count(64).unwrap(), 0);
    }

    // ---- The frame battery: every property of the one frame layout. ----

    const CAP: usize = 64;

    fn sample_frames() -> Vec<Vec<u8>> {
        vec![b"one".to_vec(), Vec::new(), b"three frames".to_vec()]
    }

    #[test]
    fn a_frame_is_len_crc_payload_and_splits_back() {
        let framed = frame(b"abc", CAP).unwrap();
        assert_eq!(&framed[..4], &3u32.to_le_bytes());
        assert_eq!(&framed[4..8], &crc32(b"abc").to_le_bytes());
        assert_eq!(&framed[8..], b"abc");
        assert_eq!(split_frame(&framed, CAP), Ok(Split::Frame(b"abc", 11)));
        // Trailing bytes belong to the next frame, not this one.
        let mut two = framed.clone();
        two.extend_from_slice(&frame(b"de", CAP).unwrap());
        assert_eq!(split_frame(&two, CAP), Ok(Split::Frame(b"abc", 11)));
        // The empty payload: a bare header whose checksum is crc32("") = 0.
        let empty = frame(&[], CAP).unwrap();
        assert_eq!(empty, vec![0u8; FRAME_HEADER]);
        assert_eq!(split_frame(&empty, CAP), Ok(Split::Frame(&[], 8)));
        // put_frame appends behind what the buffer already holds.
        let mut out = b"xy".to_vec();
        put_frame(&mut out, b"abc", CAP).unwrap();
        assert_eq!(&out[2..], &framed[..]);
    }

    #[test]
    fn every_cut_point_asks_for_more_bytes() {
        for payload in sample_frames() {
            let framed = frame(&payload, CAP).unwrap();
            for cut in 0..framed.len() {
                let want = if cut < FRAME_HEADER {
                    FRAME_HEADER
                } else {
                    framed.len()
                };
                assert_eq!(
                    split_frame(&framed[..cut], CAP),
                    Ok(Split::Need(want)),
                    "cut at {cut} of {}",
                    framed.len()
                );
            }
        }
    }

    #[test]
    fn no_single_bit_flip_yields_a_frame() {
        for payload in [b"sensitive payload".to_vec(), Vec::new()] {
            let framed = frame(&payload, CAP).unwrap();
            for byte in 0..framed.len() {
                for bit in 0..8 {
                    let mut damaged = framed.clone();
                    damaged[byte] ^= 1 << bit;
                    let split = split_frame(&damaged, CAP);
                    // A longer length waits for bytes (or trips the cap); a
                    // shorter one, the checksum or the payload fail the CRC.
                    match split {
                        Ok(Split::Need(_)) => assert!(byte < 4, "byte {byte} bit {bit}"),
                        Err(FrameError::TooLong { .. }) => assert!(byte < 4),
                        Err(FrameError::Checksum { .. }) => {}
                        Ok(Split::Frame(..)) => panic!("flip at byte {byte} bit {bit} passed"),
                    }
                }
            }
        }
    }

    #[test]
    fn lengths_at_the_cap_pass_and_one_over_is_refused() {
        let at_cap = vec![7u8; CAP];
        let framed = frame(&at_cap, CAP).unwrap();
        assert_eq!(
            split_frame(&framed, CAP),
            Ok(Split::Frame(&at_cap[..], CAP + FRAME_HEADER))
        );
        let over = vec![7u8; CAP + 1];
        let too_long = Err(FrameError::TooLong {
            len: CAP + 1,
            cap: CAP,
        });
        assert_eq!(frame(&over, CAP), too_long);
        let mut out = b"kept".to_vec();
        assert_eq!(put_frame(&mut out, &over, CAP), too_long.map(drop));
        assert_eq!(out, b"kept", "a refused frame writes nothing");
        // The reader refuses from the header alone, before any payload.
        let mut header = ((CAP + 1) as u32).to_le_bytes().to_vec();
        header.extend_from_slice(&0u32.to_le_bytes());
        assert_eq!(
            split_frame(&header, CAP),
            Err(FrameError::TooLong {
                len: CAP + 1,
                cap: CAP
            })
        );
    }

    #[test]
    fn byte_at_a_time_feeding_yields_every_frame() {
        let mut stream = Vec::new();
        for payload in sample_frames() {
            put_frame(&mut stream, &payload, CAP).unwrap();
        }
        let (mut buf, mut got) = (Vec::new(), Vec::new());
        for &byte in &stream {
            buf.push(byte);
            while let Split::Frame(payload, consumed) = split_frame(&buf, CAP).unwrap() {
                got.push(payload.to_vec());
                buf.drain(..consumed);
            }
        }
        assert_eq!(got, sample_frames());
        assert!(buf.is_empty());
    }

    /// A file of `frames` behind `MAGIC`, with the offset of each frame.
    fn file_of(frames: &[&[u8]]) -> (Vec<u8>, Vec<usize>) {
        let mut file = MAGIC.to_vec();
        let mut offsets = Vec::new();
        for payload in frames {
            offsets.push(file.len());
            put_frame(&mut file, payload, CAP).unwrap();
        }
        (file, offsets)
    }

    const MAGIC: &[u8; 8] = b"TESTMAG1";

    #[test]
    fn scan_frames_applies_one_damage_rule() {
        let payloads: [&[u8]; 3] = [b"first", b"", b"third one"];
        let (file, at) = file_of(&payloads);
        let last_len_byte = at[2] + 3;
        let with = |edit: &dyn Fn(&mut Vec<u8>)| {
            let mut bytes = file.clone();
            edit(&mut bytes);
            bytes
        };
        enum Want {
            /// Intact frames kept, and where the discarded torn tail starts.
            Ok(usize, Option<usize>),
            /// Refused, with the offset of the damage.
            Corrupt(usize),
        }
        let cases: Vec<(&str, Vec<u8>, Want)> = vec![
            ("empty file: fresh", Vec::new(), Want::Ok(0, None)),
            ("torn magic: fresh", MAGIC[..3].to_vec(), Want::Ok(0, None)),
            ("short non-magic", b"XYZ".to_vec(), Want::Corrupt(0)),
            ("wrong magic", with(&|b| b[2] ^= 1), Want::Corrupt(0)),
            ("magic only", MAGIC.to_vec(), Want::Ok(0, None)),
            ("intact", file.clone(), Want::Ok(3, None)),
            (
                "torn header",
                file[..at[2] + 5].to_vec(),
                Want::Ok(2, Some(at[2])),
            ),
            (
                "torn payload",
                file[..file.len() - 1].to_vec(),
                Want::Ok(2, Some(at[2])),
            ),
            (
                "flipped last payload",
                with(&|b| *b.last_mut().unwrap() ^= 1),
                Want::Ok(2, Some(at[2])),
            ),
            (
                "flipped last crc",
                with(&|b| b[at[2] + 4] ^= 1),
                Want::Ok(2, Some(at[2])),
            ),
            (
                "last length past EOF",
                with(&|b| b[at[2]] += 1),
                Want::Ok(2, Some(at[2])),
            ),
            (
                "last length over cap",
                with(&|b| b[last_len_byte] = 1),
                Want::Corrupt(at[2]),
            ),
            (
                "flipped first payload",
                with(&|b| b[at[0] + 9] ^= 1),
                Want::Corrupt(at[0]),
            ),
            (
                "flipped middle crc",
                with(&|b| b[at[1] + 4] ^= 1),
                Want::Corrupt(at[1]),
            ),
            (
                "first length short",
                with(&|b| b[at[0]] -= 1),
                Want::Corrupt(at[0]),
            ),
            (
                "first length over cap",
                with(&|b| b[at[0] + 3] ^= 0x40),
                Want::Corrupt(at[0]),
            ),
        ];
        for (name, bytes, want) in cases {
            let got = scan_frames(&bytes, MAGIC, CAP);
            match want {
                Want::Ok(kept, torn) => {
                    let scan = got.unwrap_or_else(|e| panic!("{name}: refused {e:?}"));
                    assert_eq!(scan.frames.len(), kept, "{name}");
                    for (i, &(offset, payload)) in scan.frames.iter().enumerate() {
                        assert_eq!((offset, payload), (at[i] as u64, payloads[i]), "{name}");
                    }
                    assert_eq!(
                        scan.torn.as_ref().map(|t| t.offset as usize),
                        torn,
                        "{name}"
                    );
                    let valid = match (torn, bytes.len()) {
                        (Some(t), _) => t,
                        (None, n) if n < MAGIC.len() => 0,
                        (None, n) => n,
                    };
                    assert_eq!(scan.valid_len as usize, valid, "{name}");
                }
                Want::Corrupt(offset) => {
                    let damage = got.expect_err(name);
                    assert_eq!(damage.offset as usize, offset, "{name}: {}", damage.reason);
                }
            }
        }
    }

    #[test]
    fn truncated_buffers_error_instead_of_panicking() {
        let mut enc = Encoder::new();
        enc.put_str("hello");
        let bytes = enc.into_bytes();
        // Cut into the string body.
        let mut dec = Decoder::new(&bytes[..6]);
        assert!(dec.take_str().is_err());
        // Length prefix promising more than the payload holds.
        let mut enc = Encoder::new();
        enc.put_u32(1_000_000);
        let bytes = enc.into_bytes();
        assert!(Decoder::new(&bytes).take_f64_slice().is_err());
        assert!(Decoder::new(&[]).take_u64().is_err());
    }
}
