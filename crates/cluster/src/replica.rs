//! Durable storage for a replica's Raft state.
//!
//! [`ReplicaLog`] persists the three things a crashed replica must not
//! lose — `currentTerm`, `votedFor`, and the log of `(term, WalRecord)`
//! entries — in a single append-mostly file:
//!
//! ```text
//! magic "DPRAFT02"
//! frame*          frame = len: u32 | crc32(payload): u32 | payload
//!   payload = tag(1) | body
//!   tag 1 = entry:   term(u64) | record_len(u32) | WalRecord bytes
//!   tag 2 = meta:    term(u64) | has_vote(u8) | voted_for(u64)
//! ```
//!
//! The frames are `dprov_storage::codec`'s — the write-ahead ledger's
//! layout, tag first like a WAL record — and loading applies the codec's
//! damage rule: a torn magic is a fresh log, a torn tail frame is dropped
//! (matching the WAL's crash semantics), and mid-file damage or a declared
//! length no writer produces is refused as corruption without touching
//! the file.
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
//! a truncation.
//!
//! [`RaftCore::truncations`]: crate::raft::RaftCore::truncations

use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use dprov_core::error::StorageError;
use dprov_storage::codec::{put_frame, scan_frames, Decoder, Encoder};
use dprov_storage::wal::{WalRecord, MAX_PAYLOAD};

use crate::raft::{NodeId, PersistentState};
use dprov_api::cluster::LogEntry;

const MAGIC: &[u8; 8] = b"DPRAFT02";
const TAG_ENTRY: u8 = 1;
const TAG_META: u8 = 2;
/// Largest frame payload a writer produces: a tag, a term, a length
/// prefix and one WAL record. A longer declared length is a corrupt
/// prefix, not a torn tail.
const MAX_FRAME_PAYLOAD: usize = 1 + 8 + 4 + MAX_PAYLOAD;

fn io_err(what: &str, path: &Path, e: &std::io::Error) -> StorageError {
    StorageError::Io(format!("{what} {}: {e}", path.display()))
}

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
            .map_err(|e| io_err("open", &path, &e))?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)
            .map_err(|e| io_err("read", &path, &e))?;
        let (state, valid_len) = Self::decode_frames(&bytes, &path)?;
        // Append mode writes at the end: truncating is all positioning needs.
        if valid_len == 0 {
            // A fresh file, or a first-open crash tore the magic write.
            file.set_len(0)
                .and_then(|()| file.write_all(MAGIC))
                .and_then(|()| file.sync_data())
                .map_err(|e| io_err("initialise", &path, &e))?;
        } else if valid_len < bytes.len() {
            // Torn tail from a crash mid-append: drop it.
            file.set_len(valid_len as u64)
                .map_err(|e| io_err("truncate the torn tail of", &path, &e))?;
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

    /// Decodes the file under the codec's damage rule, returning the
    /// recovered state and the byte length of the intact prefix: 0 for a
    /// fresh file, and short of the end when a torn tail frame follows.
    fn decode_frames(bytes: &[u8], path: &Path) -> Result<(PersistentState, usize), StorageError> {
        let corrupt = |offset, reason| StorageError::Corrupt {
            file: path.display().to_string(),
            offset,
            reason,
        };
        let scan = scan_frames(bytes, MAGIC, MAX_FRAME_PAYLOAD)
            .map_err(|damage| corrupt(damage.offset, damage.reason))?;
        let mut state = PersistentState::default();
        for (offset, payload) in scan.frames {
            Self::apply_frame(&mut state, payload).map_err(|reason| corrupt(offset, reason))?;
        }
        Ok((state, scan.valid_len as usize))
    }

    /// Applies one frame's payload (tag first) to the recovered state.
    fn apply_frame(state: &mut PersistentState, payload: &[u8]) -> Result<(), String> {
        let mut dec = Decoder::new(payload);
        match dec.take_u8()? {
            TAG_ENTRY => {
                let term = dec.take_u64()?;
                let record = WalRecord::decode(&dec.take_bytes()?)?;
                state.entries.push(LogEntry { term, record });
            }
            TAG_META => {
                state.term = dec.take_u64()?;
                let has_vote = dec.take_bool()?;
                let voted_for: NodeId = dec.take_u64()?;
                state.voted_for = has_vote.then_some(voted_for);
            }
            other => return Err(format!("unknown replica log frame tag {other}")),
        }
        dec.finish()
    }

    /// Appends one frame carrying the encoded payload (tag first) to `out`.
    fn frame(out: &mut Vec<u8>, payload: Encoder) -> Result<(), StorageError> {
        put_frame(out, &payload.into_bytes(), MAX_FRAME_PAYLOAD)
            .map_err(|e| StorageError::IncompatibleState(format!("replica log frame refused: {e}")))
    }

    fn entry_frame(out: &mut Vec<u8>, entry: &LogEntry) -> Result<(), StorageError> {
        let mut enc = Encoder::new();
        enc.put_u8(TAG_ENTRY);
        enc.put_u64(entry.term);
        enc.put_bytes(&entry.record.encode());
        Self::frame(out, enc)
    }

    fn meta_frame(out: &mut Vec<u8>, state: &PersistentState) -> Result<(), StorageError> {
        let mut enc = Encoder::new();
        enc.put_u8(TAG_META);
        enc.put_u64(state.term);
        enc.put_bool(state.voted_for.is_some());
        enc.put_u64(state.voted_for.unwrap_or(0));
        Self::frame(out, enc)
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
            Self::meta_frame(&mut buf, state)?;
        }
        for entry in &state.entries[self.persisted_entries..] {
            Self::entry_frame(&mut buf, entry)?;
        }
        if buf.is_empty() {
            return Ok(());
        }
        self.file
            .write_all(&buf)
            .and_then(|()| self.file.sync_data())
            .map_err(|e| io_err("append to", &self.path, &e))?;
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
        Self::meta_frame(&mut buf, state)?;
        for entry in &state.entries {
            Self::entry_frame(&mut buf, entry)?;
        }
        {
            let mut f = File::create(&tmp).map_err(|e| io_err("create", &tmp, &e))?;
            f.write_all(&buf)
                .and_then(|()| f.sync_data())
                .map_err(|e| io_err("write", &tmp, &e))?;
        }
        std::fs::rename(&tmp, &self.path).map_err(|e| io_err("rename", &tmp, &e))?;
        self.file = OpenOptions::new()
            .read(true)
            .append(true)
            .open(&self.path)
            .map_err(|e| io_err("reopen", &self.path, &e))?;
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
        // Bit 6 of byte 11: the high byte of the first frame's length.
        bytes[11] ^= 0x40;
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
    fn torn_magic_from_a_first_open_crash_reinitialises() {
        let path = temp_path("tornmagic");
        // A crash mid-way through the very first magic write.
        std::fs::write(&path, &MAGIC[..3]).unwrap();
        let (mut log, state) = ReplicaLog::open(&path).unwrap();
        assert_eq!(state, PersistentState::default());
        assert_eq!(std::fs::read(&path).unwrap(), MAGIC, "header rewritten");
        // The log works normally from there.
        let state = PersistentState {
            term: 2,
            voted_for: Some(1),
            entries: vec![entry(2, 1)],
        };
        log.append(&state, true).unwrap();
        drop(log);
        let (_, recovered) = ReplicaLog::open(&path).unwrap();
        assert_eq!(recovered, state);
        std::fs::remove_file(&path).ok();
    }
}
