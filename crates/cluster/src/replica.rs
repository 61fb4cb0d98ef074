//! Durable storage for a replica's Raft state.
//!
//! [`ReplicaLog`] persists the three things a crashed replica must not
//! lose — `currentTerm`, `votedFor`, and the log of `(term, WalRecord)`
//! entries — in a single append-mostly file:
//!
//! ```text
//! magic "DPRAFT01"
//! frame*          frame = tag(1) | len(u32 LE) | payload | crc32(u32 LE)
//!   tag 1 = entry:   term(u64) | record_len(u32) | WalRecord bytes
//!   tag 2 = meta:    term(u64) | has_vote(u8) | voted_for(u64)
//! ```
//!
//! Entries are appended in log order; a meta frame is appended whenever
//! the term or vote changes, and the **last** meta frame wins on load.
//! When Raft truncates a conflicting suffix the append-only discipline
//! breaks, so the caller rewrites the whole file via
//! [`ReplicaLog::rewrite`]; it knows to because
//! [`RaftCore::truncations`] has moved since its last sync.
//! [`crate::sim::SimCluster`]'s persistence protocol is this one, in
//! memory: after every step of a node it appends the new log suffix and
//! copies the term and vote, and it rebuilds the persisted log only after
//! a truncation. Every frame is CRC-guarded; a torn tail frame is dropped
//! on load, matching the WAL's crash semantics, while a declared length
//! no writer produces is refused as corruption without touching the file.
//!
//! [`RaftCore::truncations`]: crate::raft::RaftCore::truncations

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use dprov_core::error::StorageError;
use dprov_storage::codec::{crc32, Decoder, Encoder};
use dprov_storage::wal::{WalRecord, MAX_PAYLOAD};

use crate::raft::{NodeId, PersistentState};
use dprov_api::cluster::LogEntry;

const MAGIC: &[u8; 8] = b"DPRAFT01";
const TAG_ENTRY: u8 = 1;
const TAG_META: u8 = 2;
/// Largest frame payload a writer produces: a term, a length prefix and
/// one WAL record. A longer declared length is a corrupt prefix, not a
/// torn tail.
const MAX_FRAME_PAYLOAD: usize = 8 + 4 + MAX_PAYLOAD as usize;

/// A file-backed store for one replica's [`PersistentState`].
#[derive(Debug)]
pub struct ReplicaLog {
    path: PathBuf,
    file: File,
    /// Entries currently persisted (so appends can be incremental).
    persisted_entries: usize,
}

impl ReplicaLog {
    /// Opens (creating if absent) the replica log at `path` and returns
    /// the store together with the recovered state.
    pub fn open(path: impl AsRef<Path>) -> Result<(Self, PersistentState), StorageError> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(&path)
            .map_err(|e| StorageError::Io(format!("open {}: {e}", path.display())))?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)
            .map_err(|e| StorageError::Io(format!("read {}: {e}", path.display())))?;
        if bytes.is_empty() {
            file.write_all(MAGIC)
                .map_err(|e| StorageError::Io(format!("write magic: {e}")))?;
            file.sync_data()
                .map_err(|e| StorageError::Io(format!("sync {}: {e}", path.display())))?;
            let log = ReplicaLog {
                path,
                file,
                persisted_entries: 0,
            };
            return Ok((log, PersistentState::default()));
        }
        if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
            return Err(StorageError::Corrupt {
                file: path.display().to_string(),
                offset: 0,
                reason: "bad replica log magic".into(),
            });
        }
        let (state, valid_len) = Self::decode_frames(&bytes, &path)?;
        if valid_len < bytes.len() {
            // Torn tail from a crash mid-append: drop it.
            file.set_len(valid_len as u64)
                .map_err(|e| StorageError::Io(format!("truncate torn tail: {e}")))?;
            file.seek(SeekFrom::End(0))
                .map_err(|e| StorageError::Io(format!("seek: {e}")))?;
        }
        let persisted_entries = state.entries.len();
        Ok((
            ReplicaLog {
                path,
                file,
                persisted_entries,
            },
            state,
        ))
    }

    /// Decodes frames, returning the recovered state and the byte length
    /// of the valid prefix (a torn or corrupt tail frame ends the scan).
    fn decode_frames(bytes: &[u8], path: &Path) -> Result<(PersistentState, usize), StorageError> {
        let mut state = PersistentState::default();
        let mut offset = MAGIC.len();
        while offset < bytes.len() {
            let rest = &bytes[offset..];
            if rest.len() < 5 {
                break; // torn header
            }
            let tag = rest[0];
            let len = u32::from_le_bytes([rest[1], rest[2], rest[3], rest[4]]) as usize;
            if len > MAX_FRAME_PAYLOAD {
                return Err(StorageError::Corrupt {
                    file: path.display().to_string(),
                    offset: offset as u64,
                    reason: format!("replica log frame length {len} exceeds maximum"),
                });
            }
            let frame_end = 5usize.saturating_add(len).saturating_add(4);
            if rest.len() < frame_end {
                break; // torn payload/crc
            }
            let payload = &rest[5..5 + len];
            let stored = u32::from_le_bytes([
                rest[5 + len],
                rest[5 + len + 1],
                rest[5 + len + 2],
                rest[5 + len + 3],
            ]);
            if crc32(payload) != stored {
                // A corrupt *tail* frame is a torn write; corruption
                // followed by more valid data is real damage.
                if offset + frame_end < bytes.len() {
                    return Err(StorageError::Corrupt {
                        file: path.display().to_string(),
                        offset: offset as u64,
                        reason: "replica log frame checksum mismatch".into(),
                    });
                }
                break;
            }
            match tag {
                TAG_ENTRY => {
                    let mut dec = Decoder::new(payload);
                    let term = dec.take_u64().map_err(|_| StorageError::Corrupt {
                        file: path.display().to_string(),
                        offset: offset as u64,
                        reason: "entry frame missing term".into(),
                    })?;
                    let rec = dec.take_bytes().map_err(|_| StorageError::Corrupt {
                        file: path.display().to_string(),
                        offset: offset as u64,
                        reason: "entry frame missing record".into(),
                    })?;
                    let record =
                        WalRecord::decode(&rec).map_err(|reason| StorageError::Corrupt {
                            file: path.display().to_string(),
                            offset: offset as u64,
                            reason,
                        })?;
                    state.entries.push(LogEntry { term, record });
                }
                TAG_META => {
                    let mut dec = Decoder::new(payload);
                    let term = dec.take_u64().map_err(|_| StorageError::Corrupt {
                        file: path.display().to_string(),
                        offset: offset as u64,
                        reason: "meta frame missing term".into(),
                    })?;
                    let has_vote = dec.take_u8().unwrap_or(0);
                    let voted_for = dec.take_u64().unwrap_or(0);
                    state.term = term;
                    state.voted_for = (has_vote == 1).then_some(voted_for as NodeId);
                }
                other => {
                    return Err(StorageError::Corrupt {
                        file: path.display().to_string(),
                        offset: offset as u64,
                        reason: format!("unknown replica log frame tag {other}"),
                    });
                }
            }
            offset += frame_end;
        }
        Ok((state, offset))
    }

    fn frame(tag: u8, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(payload.len() + 9);
        out.push(tag);
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(payload);
        out.extend_from_slice(&crc32(payload).to_le_bytes());
        out
    }

    fn entry_frame(entry: &LogEntry) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.put_u64(entry.term);
        enc.put_bytes(&entry.record.encode());
        Self::frame(TAG_ENTRY, &enc.into_bytes())
    }

    fn meta_frame(term: u64, voted_for: Option<NodeId>) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.put_u64(term);
        enc.put_u8(u8::from(voted_for.is_some()));
        enc.put_u64(voted_for.unwrap_or(0));
        Self::frame(TAG_META, &enc.into_bytes())
    }

    /// Number of log entries currently persisted.
    #[must_use]
    pub fn persisted_entries(&self) -> usize {
        self.persisted_entries
    }

    /// Syncs the durable state forward: appends any new entries beyond
    /// the persisted prefix and, when `meta_changed`, a fresh meta frame.
    /// One fsync covers the batch.
    pub fn append(
        &mut self,
        state: &PersistentState,
        meta_changed: bool,
    ) -> Result<(), StorageError> {
        debug_assert!(state.entries.len() >= self.persisted_entries);
        let mut buf = Vec::new();
        // Meta first: if the tail tears mid-batch we lose the newest
        // entries (un-acked, safe) rather than a term/vote update.
        if meta_changed {
            buf.extend_from_slice(&Self::meta_frame(state.term, state.voted_for));
        }
        for entry in &state.entries[self.persisted_entries..] {
            buf.extend_from_slice(&Self::entry_frame(entry));
        }
        if buf.is_empty() {
            return Ok(());
        }
        self.file
            .write_all(&buf)
            .map_err(|e| StorageError::Io(format!("append {}: {e}", self.path.display())))?;
        self.file
            .sync_data()
            .map_err(|e| StorageError::Io(format!("sync {}: {e}", self.path.display())))?;
        self.persisted_entries = state.entries.len();
        Ok(())
    }

    /// Rewrites the whole file from `state` (used after a log truncation,
    /// when append-only no longer describes the change). Writes to a
    /// sibling temp file and renames over the original so a crash leaves
    /// either the old or the new state, never a mix.
    pub fn rewrite(&mut self, state: &PersistentState) -> Result<(), StorageError> {
        let tmp = self.path.with_extension("tmp");
        let mut buf = Vec::from(&MAGIC[..]);
        buf.extend_from_slice(&Self::meta_frame(state.term, state.voted_for));
        for entry in &state.entries {
            buf.extend_from_slice(&Self::entry_frame(entry));
        }
        {
            let mut f = File::create(&tmp)
                .map_err(|e| StorageError::Io(format!("create {}: {e}", tmp.display())))?;
            f.write_all(&buf)
                .map_err(|e| StorageError::Io(format!("write {}: {e}", tmp.display())))?;
            f.sync_data()
                .map_err(|e| StorageError::Io(format!("sync {}: {e}", tmp.display())))?;
        }
        std::fs::rename(&tmp, &self.path)
            .map_err(|e| StorageError::Io(format!("rename {}: {e}", tmp.display())))?;
        self.file = OpenOptions::new()
            .read(true)
            .append(true)
            .open(&self.path)
            .map_err(|e| StorageError::Io(format!("reopen {}: {e}", self.path.display())))?;
        self.persisted_entries = state.entries.len();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    static NEXT: AtomicU64 = AtomicU64::new(0);

    fn temp_path(name: &str) -> PathBuf {
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "dprov_replica_{}_{}_{}.raft",
            std::process::id(),
            name,
            n
        ))
    }

    fn entry(term: u64, seq: u64) -> LogEntry {
        LogEntry {
            term,
            record: WalRecord::Rollback { seq },
        }
    }

    #[test]
    fn round_trips_entries_and_meta_across_reopen() {
        let path = temp_path("roundtrip");
        let (mut log, state) = ReplicaLog::open(&path).unwrap();
        assert_eq!(state, PersistentState::default());
        let state = PersistentState {
            term: 3,
            voted_for: Some(1),
            entries: vec![entry(1, 10), entry(3, 11)],
        };
        log.append(&state, true).unwrap();
        drop(log);
        let (log2, recovered) = ReplicaLog::open(&path).unwrap();
        assert_eq!(recovered, state);
        assert_eq!(log2.persisted_entries(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn incremental_append_only_writes_the_suffix() {
        let path = temp_path("incremental");
        let (mut log, _) = ReplicaLog::open(&path).unwrap();
        let mut state = PersistentState {
            term: 1,
            voted_for: Some(0),
            entries: vec![entry(1, 1)],
        };
        log.append(&state, true).unwrap();
        let len_one = std::fs::metadata(&path).unwrap().len();
        state.entries.push(entry(1, 2));
        log.append(&state, false).unwrap();
        let len_two = std::fs::metadata(&path).unwrap().len();
        assert!(len_two > len_one);
        let (_, recovered) = ReplicaLog::open(&path).unwrap();
        assert_eq!(recovered, state);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rewrite_shrinks_after_truncation() {
        let path = temp_path("rewrite");
        let (mut log, _) = ReplicaLog::open(&path).unwrap();
        let long = PersistentState {
            term: 2,
            voted_for: None,
            entries: vec![entry(1, 1), entry(1, 2), entry(2, 3)],
        };
        log.append(&long, true).unwrap();
        let truncated = PersistentState {
            term: 4,
            voted_for: Some(2),
            entries: vec![entry(1, 1), entry(4, 9)],
        };
        log.rewrite(&truncated).unwrap();
        let (_, recovered) = ReplicaLog::open(&path).unwrap();
        assert_eq!(recovered, truncated);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_frame_is_dropped_on_load() {
        let path = temp_path("torn");
        let (mut log, _) = ReplicaLog::open(&path).unwrap();
        let state = PersistentState {
            term: 1,
            voted_for: None,
            entries: vec![entry(1, 1), entry(1, 2)],
        };
        log.append(&state, true).unwrap();
        drop(log);
        // Chop mid-frame: lose the last 3 bytes.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let (_, recovered) = ReplicaLog::open(&path).unwrap();
        // The torn frame (last entry) is gone; the prefix survives.
        assert_eq!(recovered.term, 1);
        assert_eq!(recovered.entries, vec![entry(1, 1)]);
        // And the file was healed: reopening again is clean.
        let (_, recovered2) = ReplicaLog::open(&path).unwrap();
        assert_eq!(recovered2.entries, vec![entry(1, 1)]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_corrupt_length_prefix_is_refused_not_truncated_as_a_torn_tail() {
        let path = temp_path("corruptlen");
        let (mut log, _) = ReplicaLog::open(&path).unwrap();
        let state = PersistentState {
            term: 5,
            voted_for: Some(2),
            entries: vec![entry(5, 1), entry(5, 2), entry(5, 3)],
        };
        log.append(&state, true).unwrap();
        drop(log);
        let mut bytes = std::fs::read(&path).unwrap();
        // Bit 6 of byte 12: the high byte of the first frame's length.
        bytes[12] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let err = ReplicaLog::open(&path).unwrap_err();
        assert!(
            matches!(err, StorageError::Corrupt { offset: 8, .. }),
            "{err}"
        );
        assert_eq!(std::fs::read(&path).unwrap(), bytes, "file left untouched");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mid_file_corruption_is_reported_not_ignored() {
        let path = temp_path("midcorrupt");
        let (mut log, _) = ReplicaLog::open(&path).unwrap();
        let state = PersistentState {
            term: 1,
            voted_for: None,
            entries: vec![entry(1, 1), entry(1, 2), entry(1, 3)],
        };
        log.append(&state, true).unwrap();
        drop(log);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a bit in the middle of the file (not the final frame).
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let err = ReplicaLog::open(&path);
        assert!(err.is_err(), "mid-file corruption must surface");
        std::fs::remove_file(&path).ok();
    }
}
