//! Binary encoding primitives shared by the write-ahead ledger and the
//! snapshot files: little-endian scalar put/take helpers and a CRC-32
//! (IEEE 802.3) checksum.
//!
//! Durable formats are encoded by hand. Everything is little-endian;
//! floats are stored as their raw IEEE-754 bits, which makes recovered
//! budget state *bit-exact* rather than merely approximately equal.

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

    /// True when the buffer is fully consumed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
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
        let len = self.take_u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|e| format!("invalid utf-8 string: {e}"))
    }

    /// Reads a length-prefixed opaque byte string written by
    /// [`Encoder::put_bytes`]; the length is bounded by the remaining
    /// payload, so a corrupt prefix cannot drive a giant allocation.
    pub fn take_bytes(&mut self) -> DecodeResult<Vec<u8>> {
        let len = self.take_u32()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    /// Reads a length-prefixed `f64` slice.
    pub fn take_f64_slice(&mut self) -> DecodeResult<Vec<f64>> {
        let len = self.take_u32()? as usize;
        if len.saturating_mul(8) > self.remaining() {
            return Err(format!("f64 slice of {len} items exceeds payload"));
        }
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
        let n = self.take_u32()? as usize;
        if n.saturating_mul(4) > self.remaining() {
            return Err(format!("row count {n} exceeds the payload"));
        }
        let mut rows = Vec::with_capacity(n);
        for _ in 0..n {
            let len = self.take_u32()? as usize;
            if len.saturating_mul(4) > self.remaining() {
                return Err(format!("row arity {len} exceeds the payload"));
            }
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
        assert!(dec.is_empty());
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
