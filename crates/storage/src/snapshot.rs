//! Versioned snapshots of the full durable state.
//!
//! A snapshot captures everything the write-ahead ledger's frames would
//! rebuild — provenance entries, each analyst's release count, the tight
//! accountant's fixed-size state, the synopsis cache and the session
//! noise-stream checkpoints — so the ledger can be truncated after one is
//! written. Its size does not grow with the number of data accesses.
//!
//! # File format
//!
//! ```text
//! magic "DPSNAP01" (8 bytes)
//! version: u32
//! body_len: u64
//! body (body_len bytes)
//! crc32(body): u32
//! ```
//!
//! Snapshots are written to a temp file, fsync'd and atomically renamed
//! over the previous one, so a crash mid-snapshot leaves the old snapshot
//! intact. Floats are stored as raw IEEE-754 bits: a recovered system's
//! budget state is bit-exact.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::Path;

use dprov_core::analyst::AnalystId;
use dprov_core::mechanism::MechanismKind;
use dprov_core::recorder::{
    CoreState, DataAccess, GlobalSynopsisState, LocalSynopsisState, ProvenanceEntryState,
    ReleaseState, TightState, ViewCacheState,
};
use dprov_core::StorageError;
use dprov_delta::{EncodedBatch, SealedEpoch, UpdateLog};
use dprov_dp::accountant::AccountantState;
use dprov_dp::rng::RngCheckpoint;

use crate::codec::{crc32, Decoder, Encoder};
use crate::wal::SessionCheckpoint;

/// Magic bytes opening every snapshot file.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"DPSNAP01";

/// Newest snapshot format version this build reads and writes. Version 2
/// added the dynamic-data state (synopsis release epochs and the update
/// log); version-1 snapshots still read, with every epoch defaulting to 0
/// and an empty update log. Version 3 stores the tight accountant's state
/// in place of the list of every data access; an older snapshot's list
/// reads as [`TightState::LegacyAccesses`], which import folds through the
/// configured accountant. Version 4 stores each analyst's release count in
/// place of the per-(analyst, mechanism) ledger buckets; an older
/// snapshot's buckets read as [`ReleaseState::LegacyLedger`], which import
/// checks against the provenance rows and drops.
pub const SNAPSHOT_VERSION: u32 = 4;

/// A full durable-state snapshot.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SnapshotState {
    /// Fingerprint of the system configuration that produced the state
    /// (see [`crate::store::config_fingerprint`]); recovery refuses a
    /// snapshot whose fingerprint does not match the live system.
    pub fingerprint: u64,
    /// The core system state (provenance, release counts, tight
    /// accountant, synopses).
    pub core: CoreState,
    /// Session noise-stream checkpoints, one per live session.
    pub sessions: Vec<SessionCheckpoint>,
    /// The next session id the registry would assign.
    pub next_session_id: u64,
}

fn io_err(e: &std::io::Error) -> StorageError {
    StorageError::Io(e.to_string())
}

fn corrupt(offset: u64, reason: impl Into<String>) -> StorageError {
    StorageError::Corrupt {
        file: "snapshot".to_owned(),
        offset,
        reason: reason.into(),
    }
}

fn encode_body(
    state: &SnapshotState,
    releases: &[(AnalystId, u64)],
    tight: &AccountantState,
) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.put_u64(state.fingerprint);
    enc.put_u64(state.core.next_seq);

    enc.put_u32(state.core.provenance.len() as u32);
    for entry in &state.core.provenance {
        enc.put_u64(entry.analyst.0 as u64);
        enc.put_str(&entry.view);
        enc.put_f64(entry.epsilon);
    }

    enc.put_u32(releases.len() as u32);
    for (analyst, count) in releases {
        enc.put_u64(analyst.0 as u64);
        enc.put_u64(*count);
    }

    enc.put_u64(tight.releases);
    enc.put_f64_slice(&tight.sums);

    enc.put_u32(state.core.synopses.len() as u32);
    for view in &state.core.synopses {
        enc.put_str(&view.view);
        match &view.global {
            Some(g) => {
                enc.put_u8(1);
                enc.put_f64(g.epsilon);
                enc.put_f64(g.variance);
                enc.put_u64(g.epoch);
                enc.put_f64_slice(&g.counts);
            }
            None => enc.put_u8(0),
        }
        enc.put_u32(view.locals.len() as u32);
        for local in &view.locals {
            enc.put_u64(local.analyst as u64);
            enc.put_f64(local.epsilon);
            enc.put_f64(local.variance);
            enc.put_u64(local.epoch);
            enc.put_f64_slice(&local.counts);
        }
    }

    enc.put_u32(state.sessions.len() as u32);
    for session in &state.sessions {
        enc.put_u64(session.session);
        enc.put_u64(session.analyst.0 as u64);
        enc.put_u64(session.rng.draws);
        enc.put_opt_f64(session.rng.spare_normal);
    }
    enc.put_u64(state.next_session_id);

    // Version 2: the dynamic-data update log (pending + sealed history).
    enc.put_u64(state.core.deltas.next_seq);
    enc.put_u64(state.core.deltas.current_epoch);
    put_batches(&mut enc, &state.core.deltas.pending);
    enc.put_u32(state.core.deltas.sealed.len() as u32);
    for epoch in &state.core.deltas.sealed {
        enc.put_u64(epoch.epoch);
        enc.put_u64(epoch.through_seq);
        put_batches(&mut enc, &epoch.batches);
    }
    enc.into_bytes()
}

fn put_batches(enc: &mut Encoder, batches: &[EncodedBatch]) {
    enc.put_u32(batches.len() as u32);
    for batch in batches {
        enc.put_u64(batch.seq);
        enc.put_str(&batch.table);
        enc.put_u32_rows(&batch.inserts);
        enc.put_u32_rows(&batch.deletes);
    }
}

// Every list count is bounded by the body left, at each item's smallest
// encoding (seq + table + two row counts here).
fn take_batches(dec: &mut Decoder<'_>) -> Result<Vec<EncodedBatch>, String> {
    let n = dec.take_count(8 + 4 + 4 + 4)?;
    let mut batches = Vec::with_capacity(n);
    for _ in 0..n {
        batches.push(EncodedBatch {
            seq: dec.take_u64()?,
            table: dec.take_str()?,
            inserts: dec.take_u32_rows()?,
            deletes: dec.take_u32_rows()?,
        });
    }
    Ok(batches)
}

fn decode_body(body: &[u8], version: u32) -> Result<SnapshotState, String> {
    let mut dec = Decoder::new(body);
    let fingerprint = dec.take_u64()?;
    let next_seq = dec.take_counter()?;

    let n = dec.take_count(8 + 4 + 8)?;
    let mut provenance = Vec::with_capacity(n);
    for _ in 0..n {
        provenance.push(ProvenanceEntryState {
            analyst: AnalystId(dec.take_u64()? as usize),
            view: dec.take_str()?,
            epsilon: dec.take_f64()?,
        });
    }

    let releases = if version >= 4 {
        let n = dec.take_count(8 + 8)?;
        let mut counts = Vec::with_capacity(n);
        for _ in 0..n {
            counts.push((AnalystId(dec.take_u64()? as usize), dec.take_u64()?));
        }
        ReleaseState::Counts(counts)
    } else {
        let n = dec.take_count(8 + 1 + 8 + 8)?;
        let mut buckets = Vec::with_capacity(n);
        for _ in 0..n {
            let analyst = AnalystId(dec.take_u64()? as usize);
            let code = dec.take_u8()?;
            MechanismKind::from_code(code)
                .ok_or_else(|| format!("unknown mechanism code {code}"))?;
            buckets.push((analyst, dec.take_f64()?, dec.take_f64()?));
        }
        ReleaseState::LegacyLedger {
            buckets,
            releases: dec.take_u64()?,
        }
    };

    let tight = if version >= 3 {
        TightState::Accountant(AccountantState {
            releases: dec.take_u64()?,
            sums: dec.take_f64_slice()?,
        })
    } else {
        let n = dec.take_count(8 * 4)?;
        let mut accesses = Vec::with_capacity(n);
        for _ in 0..n {
            let _seq = dec.take_u64()?;
            accesses.push(DataAccess {
                epsilon: dec.take_f64()?,
                sigma: dec.take_f64()?,
                sensitivity: dec.take_f64()?,
            });
        }
        TightState::LegacyAccesses(accesses)
    };

    let n = dec.take_count(4 + 1 + 4)?;
    let mut synopses = Vec::with_capacity(n);
    for _ in 0..n {
        let view = dec.take_str()?;
        let global = match dec.take_u8()? {
            0 => None,
            1 => Some(GlobalSynopsisState {
                epsilon: dec.take_f64()?,
                variance: dec.take_f64()?,
                epoch: if version >= 2 { dec.take_u64()? } else { 0 },
                counts: dec.take_f64_slice()?,
            }),
            t => return Err(format!("invalid global-synopsis tag {t}")),
        };
        let m = dec.take_count(8 * 3 + 4)?;
        let mut locals = Vec::with_capacity(m);
        for _ in 0..m {
            locals.push(LocalSynopsisState {
                analyst: dec.take_u64()? as usize,
                epsilon: dec.take_f64()?,
                variance: dec.take_f64()?,
                epoch: if version >= 2 { dec.take_u64()? } else { 0 },
                counts: dec.take_f64_slice()?,
            });
        }
        synopses.push(ViewCacheState {
            view,
            global,
            locals,
        });
    }

    let n = dec.take_count(8 * 3 + 1)?;
    let mut sessions = Vec::with_capacity(n);
    for _ in 0..n {
        sessions.push(SessionCheckpoint {
            session: dec.take_u64()?,
            analyst: AnalystId(dec.take_u64()? as usize),
            rng: RngCheckpoint {
                draws: dec.take_u64()?,
                spare_normal: dec.take_opt_f64()?,
            },
        });
    }
    let next_session_id = dec.take_u64()?;

    let deltas = if version >= 2 {
        let next_seq = dec.take_counter()?;
        let current_epoch = dec.take_counter()?;
        let pending = take_batches(&mut dec)?;
        let n = dec.take_count(8 + 8 + 4)?;
        let mut sealed = Vec::with_capacity(n);
        for _ in 0..n {
            sealed.push(SealedEpoch {
                epoch: dec.take_u64()?,
                through_seq: dec.take_u64()?,
                batches: take_batches(&mut dec)?,
            });
        }
        UpdateLog {
            next_seq,
            current_epoch,
            pending,
            sealed,
        }
    } else {
        UpdateLog::default()
    };

    dec.finish()?;
    Ok(SnapshotState {
        fingerprint,
        core: CoreState {
            next_seq,
            provenance,
            releases,
            tight,
            synopses,
            deltas,
        },
        sessions,
        next_session_id,
    })
}

/// Writes a snapshot atomically: temp file, fsync, rename, directory
/// fsync. A state still holding an older snapshot's access list or ledger
/// section is refused: only an import can fold or check it.
pub fn write_snapshot(path: &Path, state: &SnapshotState, fsync: bool) -> Result<(), StorageError> {
    let TightState::Accountant(tight) = &state.core.tight else {
        return Err(StorageError::IncompatibleState(
            "an access list is folded on import, never written".to_owned(),
        ));
    };
    let ReleaseState::Counts(releases) = &state.core.releases else {
        return Err(StorageError::IncompatibleState(
            "a ledger section is checked on import, never written".to_owned(),
        ));
    };
    let body = encode_body(state, releases, tight);
    let mut bytes = Vec::with_capacity(body.len() + 24);
    bytes.extend_from_slice(SNAPSHOT_MAGIC);
    bytes.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    bytes.extend_from_slice(&(body.len() as u64).to_le_bytes());
    bytes.extend_from_slice(&body);
    bytes.extend_from_slice(&crc32(&body).to_le_bytes());

    let tmp = path.with_extension("tmp");
    {
        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(&tmp)
            .map_err(|e| io_err(&e))?;
        file.write_all(&bytes).map_err(|e| io_err(&e))?;
        if fsync {
            file.sync_all().map_err(|e| io_err(&e))?;
        }
    }
    std::fs::rename(&tmp, path).map_err(|e| io_err(&e))?;
    if fsync {
        if let Some(dir) = path.parent() {
            if let Ok(handle) = File::open(dir) {
                let _ = handle.sync_all();
            }
        }
    }
    Ok(())
}

/// Reads a snapshot. `Ok(None)` when the file does not exist; a typed
/// [`StorageError`] when the header, version, length or checksum fails
/// verification — never a panic.
pub fn read_snapshot(path: &Path) -> Result<Option<SnapshotState>, StorageError> {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(io_err(&e)),
    };
    if bytes.len() < 20 {
        return Err(corrupt(0, "snapshot shorter than its header"));
    }
    if &bytes[..8] != SNAPSHOT_MAGIC {
        return Err(corrupt(0, "bad snapshot magic"));
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version == 0 || version > SNAPSHOT_VERSION {
        return Err(StorageError::UnsupportedVersion {
            found: version,
            supported: SNAPSHOT_VERSION,
        });
    }
    let body_len = u64::from_le_bytes(bytes[12..20].try_into().unwrap()) as usize;
    let body_start: usize = 20;
    let expected_total = body_start
        .checked_add(body_len)
        .and_then(|n| n.checked_add(4));
    if expected_total != Some(bytes.len()) {
        return Err(corrupt(
            12,
            format!(
                "snapshot length mismatch: header promises {body_len} body bytes, file holds {}",
                bytes.len()
            ),
        ));
    }
    let body = &bytes[body_start..body_start + body_len];
    let crc = u32::from_le_bytes(bytes[body_start + body_len..].try_into().unwrap());
    if crc32(body) != crc {
        return Err(corrupt(body_start as u64, "snapshot checksum mismatch"));
    }
    decode_body(body, version)
        .map(Some)
        .map_err(|reason| corrupt(body_start as u64, format!("undecodable snapshot: {reason}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratch_dir;

    fn sample_state() -> SnapshotState {
        SnapshotState {
            fingerprint: 0xFEED_F00D,
            core: CoreState {
                next_seq: 42,
                provenance: vec![ProvenanceEntryState {
                    analyst: AnalystId(1),
                    view: "adult.age".to_owned(),
                    epsilon: 0.625,
                }],
                releases: ReleaseState::Counts(vec![(AnalystId(1), 3)]),
                tight: TightState::Accountant(AccountantState {
                    releases: 1,
                    sums: vec![0.625, 1e-9],
                }),
                synopses: vec![ViewCacheState {
                    view: "adult.age".to_owned(),
                    global: Some(GlobalSynopsisState {
                        epsilon: 0.625,
                        variance: 121.0,
                        epoch: 2,
                        counts: vec![1.5, 2.5, -0.25],
                    }),
                    locals: vec![LocalSynopsisState {
                        analyst: 1,
                        epsilon: 0.5,
                        variance: 150.0,
                        epoch: 1,
                        counts: vec![1.0, 2.0, 0.0],
                    }],
                }],
                deltas: UpdateLog {
                    next_seq: 3,
                    current_epoch: 2,
                    pending: vec![EncodedBatch {
                        seq: 2,
                        table: "adult".to_owned(),
                        inserts: vec![vec![1, 2], vec![3, 4]],
                        deletes: Vec::new(),
                    }],
                    sealed: vec![SealedEpoch {
                        epoch: 1,
                        through_seq: 2,
                        batches: vec![EncodedBatch {
                            seq: 0,
                            table: "adult".to_owned(),
                            inserts: vec![vec![5, 6]],
                            deletes: vec![vec![7, 8]],
                        }],
                    }],
                },
            },
            sessions: vec![SessionCheckpoint {
                session: 2,
                analyst: AnalystId(1),
                rng: RngCheckpoint {
                    draws: 987,
                    spare_normal: Some(0.125),
                },
            }],
            next_session_id: 3,
        }
    }

    #[test]
    fn snapshot_round_trips_bit_exactly() {
        let dir = scratch_dir("snap-roundtrip");
        let path = dir.join("snapshot.dps");
        assert_eq!(read_snapshot(&path).unwrap(), None);
        let state = sample_state();
        write_snapshot(&path, &state, true).unwrap();
        assert_eq!(read_snapshot(&path).unwrap(), Some(state.clone()));
        // Overwrite is atomic and replaces the content.
        let mut newer = state;
        newer.core.next_seq = 99;
        write_snapshot(&path, &newer, false).unwrap();
        assert_eq!(read_snapshot(&path).unwrap().unwrap().core.next_seq, 99);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn header_and_body_damage_is_a_typed_error() {
        let dir = scratch_dir("snap-damage");
        let path = dir.join("snapshot.dps");
        write_snapshot(&path, &sample_state(), false).unwrap();
        let pristine = std::fs::read(&path).unwrap();

        // Bit-flip the magic.
        let mut bytes = pristine.clone();
        bytes[0] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_snapshot(&path),
            Err(StorageError::Corrupt { ref file, offset: 0, .. }) if file == "snapshot"
        ));

        // Unsupported version.
        let mut bytes = pristine.clone();
        bytes[8] = 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_snapshot(&path),
            Err(StorageError::UnsupportedVersion { .. })
        ));

        // Bit-flip deep in the body: checksum catches it.
        let mut bytes = pristine.clone();
        let mid = 20 + (bytes.len() - 24) / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_snapshot(&path),
            Err(StorageError::Corrupt { .. })
        ));

        // Truncated body: length check catches it.
        std::fs::write(&path, &pristine[..pristine.len() - 3]).unwrap();
        assert!(matches!(
            read_snapshot(&path),
            Err(StorageError::Corrupt { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
