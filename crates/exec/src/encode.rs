//! Compressed column encodings for the columnar store.
//!
//! Every attribute in the engine is a small finite integer index space
//! (domain indices fit in `u32`), which makes the classic columnar
//! encodings essentially free to apply at ingest:
//!
//! * **Bit-packing with a frame of reference** — store `value - min`
//!   in `⌈log2(max - min + 1)⌉` bits. An all-equal column collapses to
//!   width 0 (no payload words at all, just the base).
//! * **Dictionary encoding** — store a sorted dictionary of the
//!   distinct values plus `⌈log2(distinct)⌉`-bit codes per row. Wins
//!   when the occupied values are sparse in a wide range.
//!
//! Packed payloads live in [`PackedVec`]: fixed-width fields laid out
//! `64 / width` per `u64` word (fields never straddle a word
//! boundary), so extraction is one shift + mask and kernels can walk
//! whole words at a time. The codec is lossless for every width
//! `0..=64` — `tests/encode.rs` round-trips the full width ladder —
//! and the encoding choice is *invisible* to query results: kernels
//! decode to the same `u32` domain indices the row path sees.

/// Number of bits needed to represent `max` (0 for `max == 0`).
#[inline]
pub(crate) fn bits_for(max: u64) -> u32 {
    64 - max.leading_zeros()
}

/// A fixed-width bit-packed vector of `u64` fields.
///
/// Fields are `width` bits wide (`0..=64`) and laid out aligned:
/// `64 / width` fields per word, high-order slack bits unused, fields
/// never straddling a word boundary. Width 0 stores nothing — every
/// field decodes to 0.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedVec {
    width: u32,
    len: usize,
    words: Vec<u64>,
}

impl PackedVec {
    /// Packs `values` at the given field width. Every value must fit
    /// in `width` bits.
    pub fn pack(values: &[u64], width: u32) -> Self {
        assert!(width <= 64, "field width must be 0..=64");
        if width == 0 {
            debug_assert!(values.iter().all(|&v| v == 0));
            return Self {
                width,
                len: values.len(),
                words: Vec::new(),
            };
        }
        let per_word = (64 / width) as usize;
        let mut words = vec![0u64; values.len().div_ceil(per_word)];
        for (i, &v) in values.iter().enumerate() {
            debug_assert!(
                width == 64 || v < (1u64 << width),
                "value exceeds field width"
            );
            words[i / per_word] |= v << ((i % per_word) as u32 * width);
        }
        Self {
            width,
            len: values.len(),
            words,
        }
    }

    /// Field width in bits (`0..=64`).
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector holds no fields.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Backing words (empty for width 0).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Heap bytes held by the packed payload.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.words.capacity() * 8
    }

    /// Decodes field `i`.
    #[inline]
    pub fn get(&self, i: usize) -> u64 {
        debug_assert!(i < self.len);
        if self.width == 0 {
            return 0;
        }
        let per_word = (64 / self.width) as usize;
        let word = self.words[i / per_word];
        let shift = (i % per_word) as u32 * self.width;
        if self.width == 64 {
            word
        } else {
            (word >> shift) & ((1u64 << self.width) - 1)
        }
    }

    /// Calls `f(index, field)` for every field in ascending order,
    /// decoding word by word.
    #[inline]
    pub(crate) fn for_each(&self, mut f: impl FnMut(usize, u64)) {
        if self.width == 0 {
            for i in 0..self.len {
                f(i, 0);
            }
            return;
        }
        if self.width == 64 {
            for (i, &w) in self.words.iter().enumerate() {
                f(i, w);
            }
            return;
        }
        let per_word = (64 / self.width) as usize;
        let mask = (1u64 << self.width) - 1;
        let mut i = 0usize;
        for &word in &self.words {
            let fields = per_word.min(self.len - i);
            let mut w = word;
            for _ in 0..fields {
                f(i, w & mask);
                w >>= self.width;
                i += 1;
            }
        }
    }

    /// Appends every field to `out` in order.
    pub fn decode_into(&self, out: &mut Vec<u64>) {
        out.reserve(self.len);
        self.for_each(|_, v| out.push(v));
    }
}

/// How a column should be encoded at ingest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ColumnEncoding {
    /// Pick the smallest representation per column (bit-packed vs
    /// dictionary vs plain).
    #[default]
    Auto,
    /// Keep the raw `Vec<u32>` (the pre-compression layout).
    Plain,
    /// Frame-of-reference bit-packing: `value - min` in
    /// `⌈log2(max - min + 1)⌉` bits.
    BitPacked,
    /// Sorted dictionary of distinct values + packed codes.
    Dictionary,
}

/// The encoding a column actually ended up with (for stats/tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EncodingKind {
    /// Raw `u32` values.
    Plain,
    /// Frame-of-reference bit-packed.
    Packed,
    /// Dictionary + packed codes.
    Dict,
}

/// One immutable column of domain indices in its encoded form.
///
/// Whatever the representation, [`EncodedColumn::get`] and
/// [`EncodedColumn::for_each`] yield exactly the `u32` domain indices
/// that were ingested — the encoding never changes query results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EncodedColumn {
    /// Raw values, one `u32` per row.
    Plain(Vec<u32>),
    /// `base + code`, codes bit-packed. An all-equal column has
    /// width 0 and no payload.
    Packed {
        /// Frame-of-reference minimum.
        base: u32,
        /// Per-row `value - base` codes.
        codes: PackedVec,
    },
    /// `dict[code]`, dictionary sorted ascending, codes bit-packed.
    Dict {
        /// Sorted distinct values.
        dict: Vec<u32>,
        /// Per-row indices into `dict`.
        codes: PackedVec,
    },
}

impl EncodedColumn {
    /// Encodes `values` under `policy`.
    pub fn encode(values: &[u32], policy: ColumnEncoding) -> Self {
        match policy {
            ColumnEncoding::Plain => EncodedColumn::Plain(values.to_vec()),
            ColumnEncoding::BitPacked => Self::encode_packed(values),
            ColumnEncoding::Dictionary => Self::encode_dict(values),
            ColumnEncoding::Auto => {
                if values.is_empty() {
                    return Self::encode_packed(values);
                }
                let packed = Self::encode_packed(values);
                let dict = Self::encode_dict(values);
                // Smallest representation wins; ties prefer packed
                // (no dictionary indirection on decode).
                let plain = values.len() * 4;
                let best = packed.heap_bytes().min(dict.heap_bytes());
                if plain < best {
                    EncodedColumn::Plain(values.to_vec())
                } else if packed.heap_bytes() <= dict.heap_bytes() {
                    packed
                } else {
                    dict
                }
            }
        }
    }

    fn encode_packed(values: &[u32]) -> Self {
        let base = values.iter().copied().min().unwrap_or(0);
        let max = values.iter().copied().max().unwrap_or(0);
        let width = bits_for(u64::from(max - base));
        let codes: Vec<u64> = values.iter().map(|&v| u64::from(v - base)).collect();
        EncodedColumn::Packed {
            base,
            codes: PackedVec::pack(&codes, width),
        }
    }

    fn encode_dict(values: &[u32]) -> Self {
        let mut dict: Vec<u32> = values.to_vec();
        dict.sort_unstable();
        dict.dedup();
        dict.shrink_to_fit();
        let width = bits_for(dict.len().saturating_sub(1) as u64);
        let codes: Vec<u64> = values
            .iter()
            .map(|v| dict.binary_search(v).expect("value in dictionary") as u64)
            .collect();
        EncodedColumn::Dict {
            dict,
            codes: PackedVec::pack(&codes, width),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            EncodedColumn::Plain(v) => v.len(),
            EncodedColumn::Packed { codes, .. } | EncodedColumn::Dict { codes, .. } => codes.len(),
        }
    }

    /// Whether the column holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Which representation the column ended up with.
    pub fn kind(&self) -> EncodingKind {
        match self {
            EncodedColumn::Plain(_) => EncodingKind::Plain,
            EncodedColumn::Packed { .. } => EncodingKind::Packed,
            EncodedColumn::Dict { .. } => EncodingKind::Dict,
        }
    }

    /// Decodes the value at `row`.
    #[inline]
    pub fn get(&self, row: usize) -> u32 {
        match self {
            EncodedColumn::Plain(v) => v[row],
            EncodedColumn::Packed { base, codes } => base + codes.get(row) as u32,
            EncodedColumn::Dict { dict, codes } => dict[codes.get(row) as usize],
        }
    }

    /// Calls `f(row, value)` for every row in ascending row order.
    #[inline]
    pub fn for_each(&self, mut f: impl FnMut(usize, u32)) {
        match self {
            EncodedColumn::Plain(v) => {
                for (i, &x) in v.iter().enumerate() {
                    f(i, x);
                }
            }
            EncodedColumn::Packed { base, codes } => codes.for_each(|i, c| f(i, base + c as u32)),
            EncodedColumn::Dict { dict, codes } => codes.for_each(|i, c| f(i, dict[c as usize])),
        }
    }

    /// Appends every decoded value to `out` in row order.
    pub(crate) fn decode_into(&self, out: &mut Vec<u32>) {
        out.reserve(self.len());
        self.for_each(|_, v| out.push(v));
    }

    /// Decodes the whole column.
    pub fn to_vec(&self) -> Vec<u32> {
        let mut out = Vec::new();
        self.decode_into(&mut out);
        out
    }

    /// Heap bytes held by the encoded payload (dictionary included).
    pub fn heap_bytes(&self) -> usize {
        match self {
            EncodedColumn::Plain(v) => v.capacity() * 4,
            EncodedColumn::Packed { codes, .. } => codes.heap_bytes(),
            EncodedColumn::Dict { dict, codes } => dict.capacity() * 4 + codes.heap_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_round_trips_every_aligned_boundary() {
        for width in [1u32, 7, 8, 9, 31, 32, 33, 63, 64] {
            let max = if width == 64 {
                u64::MAX
            } else {
                (1u64 << width) - 1
            };
            let values: Vec<u64> = (0..130).map(|i| (i * 2654435761u64) & max).collect();
            let packed = PackedVec::pack(&values, width);
            let mut out = Vec::new();
            packed.decode_into(&mut out);
            assert_eq!(out, values, "width {width}");
        }
    }

    #[test]
    fn width_zero_stores_nothing() {
        let packed = PackedVec::pack(&[0, 0, 0], 0);
        assert_eq!(packed.words().len(), 0);
        assert_eq!(packed.get(2), 0);
    }

    #[test]
    fn auto_collapses_constant_columns() {
        let col = EncodedColumn::encode(&[7; 1000], ColumnEncoding::Auto);
        assert_eq!(col.heap_bytes(), 0);
        assert_eq!(col.get(999), 7);
    }

    #[test]
    fn dictionary_beats_packing_on_sparse_outliers() {
        let mut values = vec![0u32; 500];
        values.push(1 << 30);
        let auto = EncodedColumn::encode(&values, ColumnEncoding::Auto);
        assert_eq!(auto.kind(), EncodingKind::Dict);
        assert_eq!(auto.to_vec(), values);
    }
}
