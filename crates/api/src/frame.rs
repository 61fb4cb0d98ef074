//! Length-prefixed, CRC-checked framing for byte-stream transports.
//!
//! Message payloads travelling over an octet stream (TCP) are wrapped in
//! `dprov_storage::codec`'s frames — the layout the write-ahead ledger
//! uses on disk — capped at [`MAX_FRAME_LEN`]:
//!
//! | field | size | meaning                        |
//! |-------|------|--------------------------------|
//! | `len` | 4 B  | payload length, little-endian  |
//! | `crc` | 4 B  | CRC-32 (IEEE) of the payload   |
//! | body  | len  | the message payload            |
//!
//! This module keeps only the stream I/O and the error mapping: a length
//! over the cap is [`codes::FRAME_TOO_LARGE`], a checksum failure
//! [`codes::CHECKSUM_MISMATCH`], and end-of-stream inside a frame
//! [`codes::CONNECTION_CLOSED`]. After a framing error the stream offset
//! can no longer be trusted, so the reader must drop the connection.

use std::io::{ErrorKind as IoErrorKind, Read, Write};

use dprov_storage::codec::{self, split_frame, FrameError, Split, FRAME_HEADER};

use crate::error::{codes, ApiError};

/// Upper bound on a frame's payload length. Far above any legitimate
/// message (queries are small); exists so a corrupt or hostile length
/// prefix cannot drive an unbounded allocation.
pub const MAX_FRAME_LEN: usize = 1 << 24;

/// Wraps a payload into a complete frame (header + body). Only the `u32`
/// length field bounds it; [`write_frame`] and every reader enforce
/// [`MAX_FRAME_LEN`].
#[must_use]
pub fn frame(payload: &[u8]) -> Vec<u8> {
    codec::frame(payload, u32::MAX as usize).expect("a wire payload under 4 GiB")
}

/// Writes one frame to `w` (no flush; the caller owns buffering policy).
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), ApiError> {
    let framed = codec::frame(payload, MAX_FRAME_LEN).map_err(frame_error)?;
    w.write_all(&framed).map_err(io_error)
}

fn frame_error(e: FrameError) -> ApiError {
    let code = match e {
        FrameError::TooLong { .. } => codes::FRAME_TOO_LARGE,
        FrameError::Checksum { .. } => codes::CHECKSUM_MISMATCH,
    };
    ApiError::new(code, e.to_string())
}

/// Reads one frame from `r`, verifying length and checksum.
///
/// Returns `Ok(None)` on a clean end-of-stream (EOF exactly at a frame
/// boundary); EOF anywhere *inside* a frame is a truncation and surfaces
/// as [`codes::CONNECTION_CLOSED`].
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, ApiError> {
    let mut header = [0u8; FRAME_HEADER];
    match read_exact_or_eof(r, &mut header)? {
        ReadOutcome::Eof => return Ok(None),
        ReadOutcome::Partial(read) => {
            return Err(ApiError::new(
                codes::CONNECTION_CLOSED,
                format!("stream ended {read} bytes into a frame header"),
            ));
        }
        ReadOutcome::Full => {}
    }
    // The header alone refuses an over-cap length, before any allocation.
    let Split::Need(total) = split_frame(&header, MAX_FRAME_LEN).map_err(frame_error)? else {
        return Ok(Some(Vec::new())); // an empty payload: the header is the frame
    };
    let mut buf = vec![0u8; total];
    buf[..FRAME_HEADER].copy_from_slice(&header);
    let len = total - FRAME_HEADER;
    let ReadOutcome::Full = read_exact_or_eof(r, &mut buf[FRAME_HEADER..])? else {
        let message = format!("stream ended inside a {len}-byte frame body");
        return Err(ApiError::new(codes::CONNECTION_CLOSED, message));
    };
    split_frame(&buf, MAX_FRAME_LEN).map_err(frame_error)?;
    buf.drain(..FRAME_HEADER);
    Ok(Some(buf))
}

/// Incremental frame decoder for readiness-based (non-blocking) readers.
///
/// Where [`read_frame`] owns the stream and blocks, `FrameDecoder` is fed
/// whatever bytes the socket had (`feed`) and hands back complete payloads
/// as they materialise (`next_frame`). Both run the same
/// `codec::split_frame`, so validation matches exactly: a declared length
/// above [`MAX_FRAME_LEN`] (refused as soon as the header is visible) or a
/// CRC mismatch is a typed error, after which the connection must be
/// dropped.
#[derive(Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Consumed prefix of `buf`; compacted lazily so a burst of small
    /// frames doesn't memmove the tail once per frame.
    pos: usize,
}

/// Compact the consumed prefix away once it crosses this many bytes.
const DECODER_COMPACT_THRESHOLD: usize = 64 * 1024;

impl FrameDecoder {
    /// An empty decoder.
    #[must_use]
    pub fn new() -> Self {
        FrameDecoder::default()
    }

    /// Appends bytes read off the socket.
    pub fn feed(&mut self, bytes: &[u8]) {
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos >= DECODER_COMPACT_THRESHOLD {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Pops the next complete payload, `Ok(None)` if more bytes are needed.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, ApiError> {
        match split_frame(&self.buf[self.pos..], MAX_FRAME_LEN).map_err(frame_error)? {
            Split::Need(_) => Ok(None),
            Split::Frame(payload, consumed) => {
                self.pos += consumed;
                Ok(Some(payload.to_vec()))
            }
        }
    }

    /// Bytes buffered but not yet consumed by a complete frame.
    #[must_use]
    pub fn buffered_len(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when the buffer ends mid-frame — an EOF here is a truncation,
    /// not a clean close.
    #[must_use]
    pub fn has_partial(&self) -> bool {
        self.buffered_len() > 0
    }
}

enum ReadOutcome {
    /// The buffer was filled completely.
    Full,
    /// EOF before the first byte.
    Eof,
    /// EOF after this many bytes.
    Partial(usize),
}

fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> Result<ReadOutcome, ApiError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Ok(if filled == 0 {
                    ReadOutcome::Eof
                } else {
                    ReadOutcome::Partial(filled)
                });
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == IoErrorKind::Interrupted => {}
            Err(e) => return Err(io_error(e)),
        }
    }
    Ok(ReadOutcome::Full)
}

pub(crate) fn io_error(e: std::io::Error) -> ApiError {
    ApiError::new(codes::TRANSPORT_IO, format!("transport i/o error: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frame_round_trips() {
        let payload = b"hello analyst".to_vec();
        let mut stream = Cursor::new(frame(&payload));
        assert_eq!(read_frame(&mut stream).unwrap(), Some(payload));
        assert_eq!(read_frame(&mut stream).unwrap(), None);
        let mut empty = Cursor::new(frame(&[]));
        assert_eq!(read_frame(&mut empty).unwrap(), Some(Vec::new()));
    }

    /// Pinned bytes of one write-ahead ledger frame and one protocol
    /// request frame: a change here changes the ledger on disk or the wire.
    #[test]
    fn frame_bytes_are_pinned() {
        use crate::protocol::{encode_request, Request};
        use dprov_core::analyst::AnalystId;
        use dprov_core::mechanism::MechanismKind;
        use dprov_core::processor::QueryRequest;
        use dprov_core::recorder::CommitRecord;
        use dprov_engine::query::Query;
        use dprov_storage::wal::WalRecord;

        let hex = |bytes: &[u8]| bytes.iter().map(|b| format!("{b:02x}")).collect::<String>();
        let wal = WalRecord::Commit(
            CommitRecord {
                seq: 7,
                analyst: AnalystId(2),
                view: "adult.age".to_owned(),
                mechanism: MechanismKind::AdditiveGaussian,
                prev_entry: 0.25,
                new_entry: 0.5,
                charged: 0.25,
            },
            None,
        );
        assert_eq!(
            hex(&wal.encode_frame().unwrap()),
            "37000000886325da0107000000000000000200000000000000090000006164756c742e61676502\
             000000000000d03f000000000000e03f000000000000d03f"
        );
        let query = Query::range_count("adult", "age", 20, 39);
        let request = Request::SubmitQuery(QueryRequest::with_accuracy(query, 450.0));
        assert_eq!(
            hex(&frame(&encode_request(7, &request))),
            "390000003bea796504030700000000000000050000006164756c74000103000000616765140000\
             0000000000270000000000000000000000000000000000207c40"
        );
    }

    #[test]
    fn empty_stream_is_a_clean_eof() {
        let mut stream = Cursor::new(Vec::<u8>::new());
        assert_eq!(read_frame(&mut stream).unwrap(), None);
    }

    #[test]
    fn truncated_header_and_body_are_typed_errors() {
        let full = frame(b"payload");
        for cut in [1, 7, 9, full.len() - 1] {
            let mut stream = Cursor::new(full[..cut].to_vec());
            let err = read_frame(&mut stream).unwrap_err();
            assert_eq!(err.code, codes::CONNECTION_CLOSED, "cut at {cut}");
        }
    }

    #[test]
    fn bit_flips_fail_the_checksum() {
        let mut bytes = frame(b"sensitive payload");
        for pos in 8..bytes.len() {
            bytes[pos] ^= 0x40;
            let mut stream = Cursor::new(bytes.clone());
            let err = read_frame(&mut stream).unwrap_err();
            assert_eq!(err.code, codes::CHECKSUM_MISMATCH, "flip at {pos}");
            bytes[pos] ^= 0x40;
        }
    }

    #[test]
    fn oversized_length_prefix_is_refused_without_allocating() {
        let mut bytes = frame(b"x");
        bytes[..4].fill(0xFF); // a declared length of u32::MAX
        let mut stream = Cursor::new(bytes);
        let err = read_frame(&mut stream).unwrap_err();
        assert_eq!(err.code, codes::FRAME_TOO_LARGE);
    }

    #[test]
    fn decoder_handles_byte_at_a_time_delivery() {
        let payloads: Vec<Vec<u8>> = vec![b"one".to_vec(), vec![], b"three".to_vec()];
        let mut wire = Vec::new();
        for p in &payloads {
            wire.extend_from_slice(&frame(p));
        }
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for byte in wire {
            dec.feed(&[byte]);
            while let Some(p) = dec.next_frame().unwrap() {
                got.push(p);
            }
        }
        assert_eq!(got, payloads);
        assert!(!dec.has_partial());
    }

    #[test]
    fn decoder_rejects_oversized_header_before_body_arrives() {
        let mut dec = FrameDecoder::new();
        // A declared length of u32::MAX, checksum 0, and no body.
        dec.feed(&[0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0]);
        let err = dec.next_frame().unwrap_err();
        assert_eq!(err.code, codes::FRAME_TOO_LARGE);
    }

    #[test]
    fn decoder_flags_checksum_mismatch() {
        let mut wire = frame(b"sensitive");
        let last = wire.len() - 1;
        wire[last] ^= 0x01;
        let mut dec = FrameDecoder::new();
        dec.feed(&wire);
        let err = dec.next_frame().unwrap_err();
        assert_eq!(err.code, codes::CHECKSUM_MISMATCH);
    }

    #[test]
    fn decoder_tracks_partial_state() {
        let wire = frame(b"payload");
        let mut dec = FrameDecoder::new();
        dec.feed(&wire[..5]);
        assert_eq!(dec.next_frame().unwrap(), None);
        assert!(dec.has_partial());
        dec.feed(&wire[5..]);
        assert_eq!(dec.next_frame().unwrap(), Some(b"payload".to_vec()));
        assert!(!dec.has_partial());
    }

    #[test]
    fn decoder_matches_blocking_reader_over_many_frames() {
        // Same wire bytes through both paths; compaction must not skew
        // offsets even when thousands of frames pass through one decoder.
        let mut wire = Vec::new();
        let mut expected = Vec::new();
        for i in 0..5000u32 {
            let p = i.to_string().repeat((i % 7 + 1) as usize).into_bytes();
            wire.extend_from_slice(&frame(&p));
            expected.push(p);
        }
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for chunk in wire.chunks(113) {
            dec.feed(chunk);
            while let Some(p) = dec.next_frame().unwrap() {
                got.push(p);
            }
        }
        assert_eq!(got, expected);
        let mut stream = Cursor::new(wire);
        for p in &expected {
            assert_eq!(read_frame(&mut stream).unwrap().as_ref(), Some(p));
        }
    }
}
