//! The write-ahead ledger: checksummed, fsync'd, torn-tail tolerant.
//!
//! # File format
//!
//! ```text
//! magic "DPWAL001" (8 bytes)
//! frame*            frame = len: u32 | crc32(payload): u32 | payload
//! ```
//!
//! The frames are [`crate::codec`]'s, capped at `MAX_PAYLOAD`; each
//! payload is one [`WalRecord`], tag byte first. One admission is one
//! frame: a commit carries the data access it made, if any, as three
//! floats after its charge, and a commit without one ends at its charge.
//! Older ledgers journalled each access in a frame of its own (tag 2);
//! [`scan`] still reads those and attaches each to the commit with its
//! sequence number. An append refuses a record over the cap before
//! writing anything, then writes the whole frame in one `write_all` and
//! (in fsync mode) `sync_data` before returning, which is what lets the
//! admission path treat a returned append as *durable*.
//!
//! # Damage
//!
//! [`scan`] applies the codec's damage rule. A crash mid-append leaves a
//! **torn tail** — a bad last frame whose declared end reaches end-of-file;
//! it is reported in `WalScan::corruption` and the writer truncates it
//! before appending again, so a record is either wholly in the recovered
//! history or wholly absent. Damage *before* the last frame (or a frame
//! that verifies but does not decode — including a sequence number of
//! `u64::MAX`, which no counter can follow) cannot come from a crash: the scan
//! refuses the ledger with a typed error and leaves the file as it is,
//! instead of discarding the acknowledged charges after it.

use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::Path;

use dprov_core::analyst::AnalystId;
use dprov_core::mechanism::MechanismKind;
use dprov_core::recorder::{CommitRecord, DataAccess};
use dprov_core::StorageError;
use dprov_delta::EncodedBatch;
use dprov_dp::rng::RngCheckpoint;

use crate::codec::{frame, scan_frames, Decoder, Encoder};

/// Magic bytes opening every write-ahead ledger file.
pub(crate) const WAL_MAGIC: &[u8; 8] = b"DPWAL001";

/// Upper bound on one frame's payload: appends refuse a longer record and
/// a scan treats a longer declared length as corruption.
pub(crate) const MAX_PAYLOAD: usize = 64 << 20;

const TAG_COMMIT: u8 = 1;
/// A data access journalled apart from its commit (older ledgers only).
const TAG_LEGACY_ACCESS: u8 = 2;
const TAG_ROLLBACK: u8 = 3;
const TAG_SESSION: u8 = 4;
const TAG_SESSION_CLOSED: u8 = 5;
const TAG_FINGERPRINT: u8 = 6;
const TAG_UPDATE: u8 = 7;
const TAG_EPOCH_SEAL: u8 = 8;

/// A persisted position of one analyst session's deterministic noise
/// stream. Recovery rebuilds the session's generator fast-forwarded to
/// this checkpoint, so a restarted service continues each stream instead
/// of reusing randomness the crashed process already consumed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionCheckpoint {
    /// The session id (also the RNG stream number).
    pub session: u64,
    /// The analyst the session belongs to.
    pub analyst: AnalystId,
    /// The session RNG's stream position.
    pub rng: RngCheckpoint,
}

/// One record of the write-ahead ledger.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A committed admission charge and the data access it made, if any
    /// (appended before the in-memory commit).
    Commit(CommitRecord, Option<DataAccess>),
    /// A tombstone voiding the commit with this sequence number (its
    /// release failed after the reserve and memory was rolled back).
    Rollback {
        /// The voided commit's sequence number.
        seq: u64,
    },
    /// A session noise-stream checkpoint (latest per session id wins).
    Session(SessionCheckpoint),
    /// A session was closed or expired; recovery drops its checkpoint.
    SessionClosed {
        /// The closed session id.
        session: u64,
    },
    /// The configuration fingerprint binding this ledger to one system
    /// configuration. Written as the first frame of a fresh ledger so
    /// WAL-only recovery (no snapshot yet) can refuse a mismatched
    /// system just like snapshot recovery does.
    Fingerprint {
        /// See `crate::store::config_fingerprint`.
        fingerprint: u64,
    },
    /// One validated update batch (appended before it becomes pending in
    /// memory). Rows are domain-index encoded, so replay is deterministic
    /// integer work.
    Update(EncodedBatch),
    /// An epoch seal: every update batch with `seq < through_seq` not
    /// sealed earlier belongs to `epoch`. Appended before the seal is
    /// applied in memory; a crash *between* update frames and this frame
    /// recovers the updates as pending, at the previous sealed epoch.
    EpochSeal {
        /// The sealed epoch's number.
        epoch: u64,
        /// The batch-sequence watermark the seal covers.
        through_seq: u64,
    },
}

impl WalRecord {
    /// Encodes the record payload (tag byte first).
    #[must_use]
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        match self {
            WalRecord::Commit(c, access) => {
                enc.put_u8(TAG_COMMIT);
                enc.put_u64(c.seq);
                enc.put_u64(c.analyst.0 as u64);
                enc.put_str(&c.view);
                enc.put_u8(c.mechanism.code());
                enc.put_f64(c.prev_entry);
                enc.put_f64(c.new_entry);
                enc.put_f64(c.charged);
                if let Some(a) = access {
                    put_access(&mut enc, a);
                }
            }
            WalRecord::Rollback { seq } => {
                enc.put_u8(TAG_ROLLBACK);
                enc.put_u64(*seq);
            }
            WalRecord::Session(s) => {
                enc.put_u8(TAG_SESSION);
                enc.put_u64(s.session);
                enc.put_u64(s.analyst.0 as u64);
                enc.put_u64(s.rng.draws);
                enc.put_opt_f64(s.rng.spare_normal);
            }
            WalRecord::SessionClosed { session } => {
                enc.put_u8(TAG_SESSION_CLOSED);
                enc.put_u64(*session);
            }
            WalRecord::Fingerprint { fingerprint } => {
                enc.put_u8(TAG_FINGERPRINT);
                enc.put_u64(*fingerprint);
            }
            WalRecord::Update(batch) => {
                enc.put_u8(TAG_UPDATE);
                enc.put_u64(batch.seq);
                enc.put_str(&batch.table);
                enc.put_u32_rows(&batch.inserts);
                enc.put_u32_rows(&batch.deletes);
            }
            WalRecord::EpochSeal { epoch, through_seq } => {
                enc.put_u8(TAG_EPOCH_SEAL);
                enc.put_u64(*epoch);
                enc.put_u64(*through_seq);
            }
        }
        enc.into_bytes()
    }

    /// Decodes a payload produced by [`Self::encode`].
    pub(crate) fn decode(payload: &[u8]) -> Result<Self, String> {
        let mut dec = Decoder::new(payload);
        let record = match dec.take_u8()? {
            TAG_COMMIT => {
                let commit = CommitRecord {
                    seq: dec.take_counter()?,
                    analyst: AnalystId(dec.take_u64()? as usize),
                    view: dec.take_str()?,
                    mechanism: {
                        let code = dec.take_u8()?;
                        MechanismKind::from_code(code)
                            .ok_or_else(|| format!("unknown mechanism code {code}"))?
                    },
                    prev_entry: dec.take_f64()?,
                    new_entry: dec.take_f64()?,
                    charged: dec.take_f64()?,
                };
                let access = if dec.remaining() > 0 {
                    Some(take_access(&mut dec)?)
                } else {
                    None
                };
                WalRecord::Commit(commit, access)
            }
            TAG_ROLLBACK => WalRecord::Rollback {
                seq: dec.take_counter()?,
            },
            TAG_SESSION => WalRecord::Session(SessionCheckpoint {
                session: dec.take_counter()?,
                analyst: AnalystId(dec.take_u64()? as usize),
                rng: RngCheckpoint {
                    draws: dec.take_u64()?,
                    spare_normal: dec.take_opt_f64()?,
                },
            }),
            TAG_SESSION_CLOSED => WalRecord::SessionClosed {
                session: dec.take_counter()?,
            },
            TAG_FINGERPRINT => WalRecord::Fingerprint {
                fingerprint: dec.take_u64()?,
            },
            TAG_UPDATE => WalRecord::Update(EncodedBatch {
                seq: dec.take_counter()?,
                table: dec.take_str()?,
                inserts: dec.take_u32_rows()?,
                deletes: dec.take_u32_rows()?,
            }),
            TAG_EPOCH_SEAL => WalRecord::EpochSeal {
                epoch: dec.take_u64()?,
                through_seq: dec.take_u64()?,
            },
            tag => return Err(format!("unknown record tag {tag}")),
        };
        dec.finish()?;
        Ok(record)
    }

    /// Encodes the record as a complete frame, refusing a payload over
    /// `MAX_PAYLOAD` — a frame the ledger's own scan would reject.
    pub fn encode_frame(&self) -> Result<Vec<u8>, StorageError> {
        frame(&self.encode(), MAX_PAYLOAD)
            .map_err(|e| StorageError::IncompatibleState(format!("ledger record refused: {e}")))
    }
}

fn put_access(enc: &mut Encoder, access: &DataAccess) {
    enc.put_f64(access.epsilon);
    enc.put_f64(access.sigma);
    enc.put_f64(access.sensitivity);
}

fn take_access(dec: &mut Decoder<'_>) -> Result<DataAccess, String> {
    Ok(DataAccess {
        epsilon: dec.take_f64()?,
        sigma: dec.take_f64()?,
        sensitivity: dec.take_f64()?,
    })
}

/// Decodes an older ledger's standalone access frame into the sequence
/// number of its commit and the access.
fn decode_legacy_access(payload: &[u8]) -> Result<(u64, DataAccess), String> {
    let mut dec = Decoder::new(payload);
    dec.take_u8()?;
    let seq = dec.take_u64()?;
    let access = take_access(&mut dec)?;
    dec.finish()?;
    Ok((seq, access))
}

/// Attaches an older ledger's standalone access to the commit with its
/// sequence number, which precedes it in the same ledger (the access was
/// appended after its commit, under the same commit gate).
fn attach_legacy_access(
    records: &mut [WalRecord],
    seq: u64,
    access: DataAccess,
) -> Result<(), String> {
    let slot = records.iter_mut().rev().find_map(|record| match record {
        WalRecord::Commit(c, slot) if c.seq == seq => Some(slot),
        _ => None,
    });
    match slot {
        Some(slot @ None) => {
            *slot = Some(access);
            Ok(())
        }
        Some(Some(_)) => Err(format!("a second access for commit {seq}")),
        None => Err(format!(
            "an access for commit {seq}, which no earlier frame holds"
        )),
    }
}

/// The result of scanning a ledger file: every verifiable record, the byte
/// offset up to which the file is intact, and — when the tail failed
/// verification — the typed error describing the damage.
#[derive(Debug)]
pub struct WalScan {
    /// Records in append order, up to the torn tail if there is one.
    pub records: Vec<WalRecord>,
    /// Byte offset of the end of the last intact frame (0 for a fresh
    /// ledger).
    pub(crate) valid_len: u64,
    /// The torn tail that ended the scan, if any.
    pub(crate) corruption: Option<StorageError>,
}

fn io_err(e: &std::io::Error) -> StorageError {
    StorageError::Io(e.to_string())
}

fn corrupt(offset: u64, reason: impl Into<String>) -> StorageError {
    StorageError::Corrupt {
        file: "wal".to_owned(),
        offset,
        reason: reason.into(),
    }
}

/// Scans a ledger file under the codec's damage rule. A missing file, an
/// empty one or a torn magic (a first-open crash) is a fresh ledger; a
/// torn tail ends the scan and is reported in `WalScan::corruption` for
/// the writer to truncate; a bad magic, mid-file damage or an undecodable
/// record is a typed [`StorageError::Corrupt`], with the file untouched.
pub fn scan(path: &Path) -> Result<WalScan, StorageError> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(io_err(&e)),
    };
    let scan =
        scan_frames(&bytes, WAL_MAGIC, MAX_PAYLOAD).map_err(|d| corrupt(d.offset, d.reason))?;
    let mut records = Vec::with_capacity(scan.frames.len());
    for &(offset, payload) in &scan.frames {
        let undecodable = |reason| corrupt(offset, format!("undecodable record: {reason}"));
        if payload.first() == Some(&TAG_LEGACY_ACCESS) {
            let (seq, access) = decode_legacy_access(payload).map_err(undecodable)?;
            attach_legacy_access(&mut records, seq, access).map_err(undecodable)?;
        } else {
            records.push(WalRecord::decode(payload).map_err(undecodable)?);
        }
    }
    Ok(WalScan {
        records,
        valid_len: scan.valid_len,
        corruption: scan.torn.map(|d| corrupt(d.offset, d.reason)),
    })
}

/// An append handle over a ledger file.
#[derive(Debug)]
pub(crate) struct WalWriter {
    file: File,
    fsync: bool,
    len: u64,
    /// Observability handle (disabled unless attached): append/fsync
    /// latency histograms and counters. Recording happens after the I/O
    /// completes and never changes what is written.
    metrics: dprov_obs::MetricsRegistry,
}

impl WalWriter {
    /// Opens (creating if absent) a ledger for appending at the end of the
    /// intact prefix a [`scan`] found (`valid_len`, 0 for a fresh ledger).
    pub(crate) fn open(path: &Path, fsync: bool, valid_len: u64) -> Result<Self, StorageError> {
        let mut file = OpenOptions::new()
            .create(true)
            .read(true)
            .write(true)
            .truncate(false)
            .open(path)
            .map_err(|e| io_err(&e))?;
        let disk_len = file.metadata().map_err(|e| io_err(&e))?.len();
        let len = valid_len.max(WAL_MAGIC.len() as u64);
        if disk_len != len {
            // A fresh ledger gets its header (it provably holds no records,
            // even if a first-open crash tore the magic); a torn tail is cut
            // off so new frames never follow damage.
            file.set_len(valid_len).map_err(|e| io_err(&e))?;
            if valid_len == 0 {
                file.write_all(WAL_MAGIC).map_err(|e| io_err(&e))?;
            }
            if fsync {
                file.sync_data().map_err(|e| io_err(&e))?;
            }
        }
        file.seek(SeekFrom::Start(len)).map_err(|e| io_err(&e))?;
        Ok(WalWriter {
            file,
            fsync,
            len,
            metrics: dprov_obs::MetricsRegistry::disabled(),
        })
    }

    /// Attaches an observability registry; subsequent appends record
    /// their write and fsync latency into it.
    pub(crate) fn set_metrics(&mut self, metrics: dprov_obs::MetricsRegistry) {
        self.metrics = metrics;
    }

    /// Appends one record; durable on return when fsync mode is on. A
    /// record over [`MAX_PAYLOAD`] is refused before anything is written.
    pub(crate) fn append(&mut self, record: &WalRecord) -> Result<(), StorageError> {
        use dprov_obs::{CounterId, HistId};
        let frame = record.encode_frame()?;
        let append_start = self.metrics.start();
        self.file.write_all(&frame).map_err(|e| io_err(&e))?;
        if let Some(t0) = append_start {
            self.metrics
                .observe_duration(HistId::WalAppend, t0.elapsed());
            self.metrics.incr(CounterId::WalAppends);
        }
        if self.fsync {
            let fsync_start = self.metrics.start();
            self.file.sync_data().map_err(|e| io_err(&e))?;
            if let Some(t0) = fsync_start {
                self.metrics
                    .observe_duration(HistId::WalFsync, t0.elapsed());
                self.metrics.incr(CounterId::WalFsyncs);
            }
        }
        self.len += frame.len() as u64;
        Ok(())
    }

    /// Current byte length of the intact ledger.
    #[must_use]
    pub(crate) fn len(&self) -> u64 {
        self.len
    }

    /// Truncates the ledger back to just its magic header (after a
    /// snapshot has captured everything the frames said).
    pub(crate) fn truncate_to_header(&mut self) -> Result<(), StorageError> {
        let header = WAL_MAGIC.len() as u64;
        self.file.set_len(header).map_err(|e| io_err(&e))?;
        self.file
            .seek(SeekFrom::Start(header))
            .map_err(|e| io_err(&e))?;
        if self.fsync {
            self.file.sync_data().map_err(|e| io_err(&e))?;
        }
        self.len = header;
        Ok(())
    }

    /// Writes only the first `keep` bytes of a record's frame *without*
    /// sync — simulating a crash in the middle of an append. Crash-testing
    /// support for the failpoint harness; a real writer never calls this.
    pub(crate) fn append_torn(
        &mut self,
        record: &WalRecord,
        keep: usize,
    ) -> Result<(), StorageError> {
        let frame = record.encode_frame()?;
        let keep = keep.min(frame.len().saturating_sub(1)).max(1);
        self.file
            .write_all(&frame[..keep])
            .map_err(|e| io_err(&e))?;
        self.len += keep as u64;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratch_dir;

    fn commit_record(seq: u64) -> CommitRecord {
        CommitRecord {
            seq,
            analyst: AnalystId(1),
            view: "adult.age".to_owned(),
            mechanism: MechanismKind::AdditiveGaussian,
            prev_entry: 0.25,
            new_entry: 0.5,
            charged: 0.25,
        }
    }

    fn commit(seq: u64) -> WalRecord {
        WalRecord::Commit(commit_record(seq), None)
    }

    const ACCESS: DataAccess = DataAccess {
        epsilon: 0.5,
        sigma: 12.5,
        sensitivity: std::f64::consts::SQRT_2,
    };

    #[test]
    fn records_round_trip_through_payload_encoding() {
        let records = vec![
            commit(3),
            WalRecord::Commit(commit_record(4), Some(ACCESS)),
            WalRecord::Rollback { seq: 9 },
            WalRecord::Session(SessionCheckpoint {
                session: 4,
                analyst: AnalystId(0),
                rng: RngCheckpoint {
                    draws: 1234,
                    spare_normal: Some(-0.75),
                },
            }),
            WalRecord::SessionClosed { session: 4 },
            WalRecord::Fingerprint {
                fingerprint: 0xDEAD_BEEF_0BAD_F00D,
            },
            WalRecord::Update(EncodedBatch {
                seq: 17,
                table: "adult".to_owned(),
                inserts: vec![vec![1, 2, 3], vec![4, 5, 6]],
                deletes: vec![vec![7, 8, 9]],
            }),
            WalRecord::Update(EncodedBatch {
                seq: 18,
                table: "empty-rows".to_owned(),
                inserts: vec![Vec::new()],
                deletes: Vec::new(),
            }),
            WalRecord::EpochSeal {
                epoch: 3,
                through_seq: 19,
            },
        ];
        for record in records {
            assert_eq!(WalRecord::decode(&record.encode()).unwrap(), record);
        }
        assert!(WalRecord::decode(&[99]).is_err());
        assert!(WalRecord::decode(&[]).is_err());
    }

    /// A seeded splitmix64 stream, so the sweep below needs no generator
    /// crate.
    struct Mix(u64);

    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> usize {
            (self.next() % n) as usize
        }

        /// Uniform in `[lo, hi)`.
        fn f64(&mut self, lo: f64, hi: f64) -> f64 {
            lo + (hi - lo) * ((self.next() >> 11) as f64 / (1u64 << 53) as f64)
        }

        fn string(&mut self) -> String {
            let alphabet: Vec<char> = "abcXYZ09_ä☃-. ".chars().collect();
            let len = self.below(12);
            (0..len)
                .map(|_| alphabet[self.below(alphabet.len() as u64)])
                .collect()
        }

        fn rows(&mut self) -> Vec<Vec<u32>> {
            let rows = self.below(3);
            (0..rows)
                .map(|_| {
                    let cells = self.below(4);
                    (0..cells).map(|_| self.next() as u32).collect()
                })
                .collect()
        }

        /// One record of the variant `kind % 7`, every field drawn.
        fn record(&mut self, kind: u64) -> WalRecord {
            match kind % 7 {
                0 => WalRecord::Commit(
                    CommitRecord {
                        seq: self.next(),
                        analyst: AnalystId(self.below(1024)),
                        view: self.string(),
                        mechanism: if self.below(2) == 0 {
                            MechanismKind::Vanilla
                        } else {
                            MechanismKind::AdditiveGaussian
                        },
                        prev_entry: self.f64(0.0, 64.0),
                        new_entry: self.f64(0.0, 64.0),
                        charged: self.f64(0.0, 64.0),
                    },
                    (self.below(2) == 0).then(|| DataAccess {
                        epsilon: self.f64(0.0, 64.0),
                        sigma: self.f64(0.0, 1e6),
                        sensitivity: self.f64(0.0, 1e3),
                    }),
                ),
                1 => WalRecord::Rollback { seq: self.next() },
                2 => WalRecord::Session(SessionCheckpoint {
                    session: self.next(),
                    analyst: AnalystId(self.below(1024)),
                    rng: RngCheckpoint {
                        draws: self.next(),
                        spare_normal: (self.below(2) == 0).then(|| self.f64(-8.0, 8.0)),
                    },
                }),
                3 => WalRecord::SessionClosed {
                    session: self.next(),
                },
                4 => WalRecord::Fingerprint {
                    fingerprint: self.next(),
                },
                5 => WalRecord::Update(EncodedBatch {
                    seq: self.next(),
                    table: self.string(),
                    inserts: self.rows(),
                    deletes: self.rows(),
                }),
                _ => WalRecord::EpochSeal {
                    epoch: self.next(),
                    through_seq: self.next(),
                },
            }
        }
    }

    /// Seeded records of every variant round-trip bit-for-bit through the
    /// payload encoding, and through frames written to a ledger file and
    /// read back by [`scan`].
    #[test]
    fn seeded_records_of_every_variant_round_trip_through_payload_and_frame() {
        let mut mix = Mix(0x5EED);
        let records: Vec<WalRecord> = (0..1024).map(|i| mix.record(i)).collect();
        let kinds: std::collections::HashSet<_> =
            records.iter().map(std::mem::discriminant).collect();
        assert_eq!(kinds.len(), 7, "the sweep covers every variant");

        let mut file = WAL_MAGIC.to_vec();
        for record in &records {
            assert_eq!(&WalRecord::decode(&record.encode()).unwrap(), record);
            file.extend_from_slice(&record.encode_frame().unwrap());
        }
        let dir = scratch_dir("wal-sweep");
        let path = dir.join("wal.log");
        std::fs::write(&path, &file).unwrap();
        let scanned = scan(&path).unwrap();
        assert!(scanned.corruption.is_none());
        assert_eq!(scanned.valid_len, file.len() as u64);
        assert_eq!(scanned.records, records);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn append_scan_round_trips_and_missing_file_is_empty() {
        let dir = scratch_dir("wal-roundtrip");
        let path = dir.join("wal.log");
        let empty = scan(&path).unwrap();
        assert!(empty.records.is_empty() && empty.corruption.is_none());

        let mut writer = WalWriter::open(&path, true, 0).unwrap();
        for seq in 0..5 {
            writer.append(&commit(seq)).unwrap();
        }
        drop(writer);
        let scanned = scan(&path).unwrap();
        assert_eq!(scanned.records.len(), 5);
        assert!(scanned.corruption.is_none());
        assert_eq!(scanned.records[2], commit(2));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_detected_and_truncated_on_reopen() {
        let dir = scratch_dir("wal-torn");
        let path = dir.join("wal.log");
        let mut writer = WalWriter::open(&path, false, 0).unwrap();
        writer.append(&commit(0)).unwrap();
        writer.append(&commit(1)).unwrap();
        writer.append_torn(&commit(2), 7).unwrap();
        drop(writer);

        let scanned = scan(&path).unwrap();
        assert_eq!(scanned.records.len(), 2);
        assert!(matches!(
            scanned.corruption,
            Some(StorageError::Corrupt { ref file, .. }) if file == "wal"
        ));

        // Reopening truncates the damage; the next append lands cleanly.
        let mut writer = WalWriter::open(&path, false, scanned.valid_len).unwrap();
        writer.append(&commit(2)).unwrap();
        drop(writer);
        let rescanned = scan(&path).unwrap();
        assert_eq!(rescanned.records.len(), 3);
        assert!(rescanned.corruption.is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bad_magic_is_a_hard_error() {
        let dir = scratch_dir("wal-magic");
        let path = dir.join("wal.log");
        std::fs::write(&path, b"NOTAWAL!garbage").unwrap();
        assert!(matches!(
            scan(&path),
            Err(StorageError::Corrupt { offset: 0, .. })
        ));
        // A short file that is NOT a magic prefix is also hard damage.
        std::fs::write(&path, b"XYZ").unwrap();
        assert!(matches!(
            scan(&path),
            Err(StorageError::Corrupt { offset: 0, .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn an_oversized_record_is_refused_before_anything_is_written() {
        let dir = scratch_dir("wal-oversized");
        let path = dir.join("wal.log");
        let mut writer = WalWriter::open(&path, false, 0).unwrap();
        writer.append(&commit(0)).unwrap();
        let before = std::fs::read(&path).unwrap();
        // One row of MAX_PAYLOAD/4 + 16 cells: a payload over the cap,
        // which the scan would refuse (and lose every later frame with).
        let huge = WalRecord::Update(EncodedBatch {
            seq: 0,
            table: "adult".to_owned(),
            inserts: vec![vec![0; MAX_PAYLOAD / 4 + 16]],
            deletes: Vec::new(),
        });
        assert!(matches!(
            writer.append(&huge),
            Err(StorageError::IncompatibleState(_))
        ));
        assert_eq!(std::fs::read(&path).unwrap(), before, "nothing written");
        assert_eq!(writer.len(), before.len() as u64);
        // The commit appended after the refusal recovers.
        writer.append(&commit(1)).unwrap();
        drop(writer);
        let scanned = scan(&path).unwrap();
        assert_eq!(scanned.records, vec![commit(0), commit(1)]);
        assert!(scanned.corruption.is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_magic_from_a_first_open_crash_reinitialises() {
        let dir = scratch_dir("wal-torn-magic");
        let path = dir.join("wal.log");
        // A crash mid-way through the very first header write.
        std::fs::write(&path, &WAL_MAGIC[..3]).unwrap();
        let scanned = scan(&path).unwrap();
        assert!(scanned.records.is_empty());
        assert!(scanned.corruption.is_none());
        assert_eq!(scanned.valid_len, 0);
        // The writer reinitialises and the ledger works normally.
        let mut writer = WalWriter::open(&path, false, scanned.valid_len).unwrap();
        writer.append(&commit(0)).unwrap();
        drop(writer);
        let rescanned = scan(&path).unwrap();
        assert_eq!(rescanned.records.len(), 1);
        assert!(rescanned.corruption.is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// An older ledger's standalone access frame (tag 2).
    fn legacy_access_frame(seq: u64, access: &DataAccess) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.put_u8(TAG_LEGACY_ACCESS);
        enc.put_u64(seq);
        put_access(&mut enc, access);
        frame(&enc.into_bytes(), MAX_PAYLOAD).unwrap()
    }

    fn scan_bytes(tag: &str, frames: &[Vec<u8>]) -> Result<WalScan, StorageError> {
        let dir = scratch_dir(tag);
        let path = dir.join("wal.log");
        let mut file = WAL_MAGIC.to_vec();
        for frame in frames {
            file.extend_from_slice(frame);
        }
        std::fs::write(&path, &file).unwrap();
        let scanned = scan(&path);
        std::fs::remove_dir_all(&dir).ok();
        scanned
    }

    #[test]
    fn a_legacy_access_frame_attaches_to_its_commit() {
        let frames = [
            commit(0).encode_frame().unwrap(),
            commit(1).encode_frame().unwrap(),
            legacy_access_frame(0, &ACCESS),
            WalRecord::Rollback { seq: 1 }.encode_frame().unwrap(),
        ];
        let scanned = scan_bytes("wal-legacy", &frames).unwrap();
        assert_eq!(
            scanned.records,
            vec![
                WalRecord::Commit(commit_record(0), Some(ACCESS)),
                commit(1),
                WalRecord::Rollback { seq: 1 },
            ]
        );
        // No commit to attach to, or a second access for one commit: the
        // frame verifies but does not decode, so the ledger is refused.
        for frames in [
            vec![legacy_access_frame(0, &ACCESS)],
            vec![
                commit(0).encode_frame().unwrap(),
                legacy_access_frame(0, &ACCESS),
                legacy_access_frame(0, &ACCESS),
            ],
        ] {
            assert!(matches!(
                scan_bytes("wal-legacy-orphan", &frames),
                Err(StorageError::Corrupt { ref reason, .. }) if reason.contains("access for commit 0")
            ));
        }
    }

    /// A sequence number (or session id) of `u64::MAX` leaves recovery no
    /// successor to continue from: such a record does not decode.
    #[test]
    fn a_counter_at_u64_max_does_not_decode() {
        let refused = [
            commit(u64::MAX),
            WalRecord::Rollback { seq: u64::MAX },
            WalRecord::Update(EncodedBatch {
                seq: u64::MAX,
                table: "adult".to_owned(),
                inserts: Vec::new(),
                deletes: Vec::new(),
            }),
            WalRecord::SessionClosed { session: u64::MAX },
        ];
        for record in refused {
            let err = WalRecord::decode(&record.encode()).unwrap_err();
            assert!(err.contains("u64::MAX"), "{record:?}: {err}");
        }
        let last = commit(u64::MAX - 1);
        assert_eq!(WalRecord::decode(&last.encode()).unwrap(), last);
    }
}
