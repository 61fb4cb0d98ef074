//! Cluster control messages: the node-to-node wire surface of the
//! distributed deployment (`dprov-cluster`).
//!
//! These messages ride the same CRC-checked [`crate::frame`] codec and the
//! same `version | tag | request_id` header as the analyst protocol, but
//! under an **append-only tag range of their own** (`64..=79`) — disjoint
//! from request tags (`1..`), response tags (`129..`) and the error tag
//! (`255`), so a cluster stream accidentally decoded as an analyst stream
//! (or vice versa) fails loudly instead of aliasing into a different
//! message type.
//!
//! The consensus messages carry replicated-log entries that are **exactly
//! the `dprov-storage` WAL records** ([`WalRecord`]): the write-ahead
//! ledger's encoding is the replication format, so a committed log prefix
//! replays through the same recovery path as a local WAL.

use dprov_engine::query::Query;
use dprov_storage::codec::{Decoder, Encoder};
use dprov_storage::wal::WalRecord;

use crate::error::ApiError;
use crate::protocol::{header, take_header, PROTOCOL_VERSION};
use crate::wire;

/// One replicated-log entry: the Raft term it was appended under plus the
/// WAL record it carries.
#[derive(Debug, Clone, PartialEq)]
pub struct LogEntry {
    /// The leader term the entry was appended under.
    pub term: u64,
    /// The payload — a write-ahead ledger record, bit-for-bit.
    pub record: WalRecord,
}

/// A cluster control message (consensus, membership or shard fan-out).
///
/// Marked `#[non_exhaustive]`: new message types may be added under new
/// tags without a breaking change.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterMsg {
    /// Raft: a candidate asks for a vote.
    RequestVote {
        /// The candidate's term.
        term: u64,
        /// The candidate's node id.
        candidate: u64,
        /// Entries in the candidate's log (its length).
        last_log_index: u64,
        /// Term of the candidate's last entry (0 when the log is empty).
        last_log_term: u64,
    },
    /// Raft: a vote-request answer.
    VoteReply {
        /// The voter's current term.
        term: u64,
        /// The voter's node id.
        voter: u64,
        /// Whether the vote was granted.
        granted: bool,
    },
    /// Raft: leader-to-follower log replication (empty `entries` is a
    /// heartbeat).
    AppendEntries {
        /// The leader's term.
        term: u64,
        /// The leader's node id.
        leader: u64,
        /// Entries preceding the appended ones (log-matching check).
        prev_index: u64,
        /// Term of the entry at `prev_index` (0 when none).
        prev_term: u64,
        /// The leader's commit index.
        commit: u64,
        /// Entries to append after `prev_index`.
        entries: Vec<LogEntry>,
    },
    /// Raft: an append-entries answer.
    AppendReply {
        /// The follower's current term.
        term: u64,
        /// The follower's node id.
        node: u64,
        /// Whether the append matched and was stored.
        success: bool,
        /// Entries the follower's log now matches the leader's through.
        match_index: u64,
    },
    /// Orchestrator: an executor node registers its static capabilities
    /// (the EDGELESS ε-ORC `NodeRegistration` pattern).
    Register {
        /// The node's id.
        node: u64,
        /// Free-form node name (for logs; not a credential).
        name: String,
        /// Threads the node scans with.
        scan_threads: u64,
        /// Ticks without a heartbeat after which the node is evicted.
        deadline_ticks: u64,
    },
    /// Orchestrator: registration accepted.
    RegisterAck {
        /// The registered node's id.
        node: u64,
    },
    /// Orchestrator: a registered node refreshes its deadline.
    Heartbeat {
        /// The node's id.
        node: u64,
        /// Monotone heartbeat sequence number.
        seq: u64,
    },
    /// Orchestrator: heartbeat acknowledged.
    HeartbeatAck {
        /// The node's id.
        node: u64,
        /// The acknowledged sequence number.
        seq: u64,
    },
    /// Gateway → executor: evaluate a micro-batch over a contiguous shard
    /// range `[shard_lo, shard_hi)` of one table at one sealed epoch.
    ShardScan {
        /// The sealed epoch the partials must reflect.
        epoch: u64,
        /// The scanned table.
        table: String,
        /// First shard of the range (inclusive).
        shard_lo: u64,
        /// One past the last shard of the range.
        shard_hi: u64,
        /// The batch's queries, in submission order.
        queries: Vec<Query>,
    },
    /// Executor → gateway: one `(count, sum)` partial aggregate per query
    /// of the scan, folded over the range in ascending shard order.
    ShardPartials {
        /// The epoch the partials were computed at.
        epoch: u64,
        /// Raw partial parts, one `(count, sum)` pair per query.
        partials: Vec<(f64, f64)>,
    },
}

const TAG_REQUEST_VOTE: u8 = 64;
const TAG_VOTE_REPLY: u8 = 65;
const TAG_APPEND_ENTRIES: u8 = 66;
const TAG_APPEND_REPLY: u8 = 67;
const TAG_REGISTER: u8 = 68;
const TAG_REGISTER_ACK: u8 = 69;
const TAG_HEARTBEAT: u8 = 70;
const TAG_HEARTBEAT_ACK: u8 = 71;
const TAG_SHARD_SCAN: u8 = 72;
const TAG_SHARD_PARTIALS: u8 = 73;

/// Encodes a cluster message into a payload (to be framed by the
/// transport).
#[must_use]
pub fn encode_cluster(request_id: u64, msg: &ClusterMsg) -> Vec<u8> {
    let mut enc = Encoder::new();
    match msg {
        ClusterMsg::RequestVote {
            term,
            candidate,
            last_log_index,
            last_log_term,
        } => {
            header(&mut enc, TAG_REQUEST_VOTE, request_id);
            enc.put_u64(*term);
            enc.put_u64(*candidate);
            enc.put_u64(*last_log_index);
            enc.put_u64(*last_log_term);
        }
        ClusterMsg::VoteReply {
            term,
            voter,
            granted,
        } => {
            header(&mut enc, TAG_VOTE_REPLY, request_id);
            enc.put_u64(*term);
            enc.put_u64(*voter);
            enc.put_bool(*granted);
        }
        ClusterMsg::AppendEntries {
            term,
            leader,
            prev_index,
            prev_term,
            commit,
            entries,
        } => {
            header(&mut enc, TAG_APPEND_ENTRIES, request_id);
            enc.put_u64(*term);
            enc.put_u64(*leader);
            enc.put_u64(*prev_index);
            enc.put_u64(*prev_term);
            enc.put_u64(*commit);
            enc.put_u32(entries.len() as u32);
            for entry in entries {
                enc.put_u64(entry.term);
                enc.put_bytes(&entry.record.encode());
            }
        }
        ClusterMsg::AppendReply {
            term,
            node,
            success,
            match_index,
        } => {
            header(&mut enc, TAG_APPEND_REPLY, request_id);
            enc.put_u64(*term);
            enc.put_u64(*node);
            enc.put_bool(*success);
            enc.put_u64(*match_index);
        }
        ClusterMsg::Register {
            node,
            name,
            scan_threads,
            deadline_ticks,
        } => {
            header(&mut enc, TAG_REGISTER, request_id);
            enc.put_u64(*node);
            enc.put_str(name);
            enc.put_u64(*scan_threads);
            enc.put_u64(*deadline_ticks);
        }
        ClusterMsg::RegisterAck { node } => {
            header(&mut enc, TAG_REGISTER_ACK, request_id);
            enc.put_u64(*node);
        }
        ClusterMsg::Heartbeat { node, seq } => {
            header(&mut enc, TAG_HEARTBEAT, request_id);
            enc.put_u64(*node);
            enc.put_u64(*seq);
        }
        ClusterMsg::HeartbeatAck { node, seq } => {
            header(&mut enc, TAG_HEARTBEAT_ACK, request_id);
            enc.put_u64(*node);
            enc.put_u64(*seq);
        }
        ClusterMsg::ShardScan {
            epoch,
            table,
            shard_lo,
            shard_hi,
            queries,
        } => {
            header(&mut enc, TAG_SHARD_SCAN, request_id);
            enc.put_u64(*epoch);
            enc.put_str(table);
            enc.put_u64(*shard_lo);
            enc.put_u64(*shard_hi);
            enc.put_u32(queries.len() as u32);
            for query in queries {
                wire::put_query(&mut enc, query);
            }
        }
        ClusterMsg::ShardPartials { epoch, partials } => {
            header(&mut enc, TAG_SHARD_PARTIALS, request_id);
            enc.put_u64(*epoch);
            enc.put_u32(partials.len() as u32);
            for &(count, sum) in partials {
                enc.put_f64(count);
                enc.put_f64(sum);
            }
        }
    }
    enc.into_bytes()
}

/// Decodes a cluster payload into `(request_id, message)`. Rejects analyst
/// request/response tags (disjoint ranges), unknown tags, any version but
/// [`PROTOCOL_VERSION`] (cluster peers run one build) and trailing
/// garbage — the same discipline as [`crate::protocol::decode_request`].
pub fn decode_cluster(payload: &[u8]) -> Result<(u64, ClusterMsg), ApiError> {
    let mut dec = Decoder::new(payload);
    let (tag, request_id) = take_header(&mut dec, PROTOCOL_VERSION)?;
    let msg = match tag {
        TAG_REQUEST_VOTE => ClusterMsg::RequestVote {
            term: dec.take_u64().map_err(wire::malformed)?,
            candidate: dec.take_u64().map_err(wire::malformed)?,
            last_log_index: dec.take_u64().map_err(wire::malformed)?,
            last_log_term: dec.take_u64().map_err(wire::malformed)?,
        },
        TAG_VOTE_REPLY => ClusterMsg::VoteReply {
            term: dec.take_u64().map_err(wire::malformed)?,
            voter: dec.take_u64().map_err(wire::malformed)?,
            granted: dec.take_bool().map_err(wire::malformed)?,
        },
        TAG_APPEND_ENTRIES => {
            let term = dec.take_u64().map_err(wire::malformed)?;
            let leader = dec.take_u64().map_err(wire::malformed)?;
            let prev_index = dec.take_u64().map_err(wire::malformed)?;
            let prev_term = dec.take_u64().map_err(wire::malformed)?;
            let commit = dec.take_u64().map_err(wire::malformed)?;
            // Every entry costs at least 12 bytes (term + length prefix).
            let count = dec.take_count(12).map_err(wire::malformed)?;
            let mut entries = Vec::with_capacity(count);
            for _ in 0..count {
                let entry_term = dec.take_u64().map_err(wire::malformed)?;
                let bytes = dec.take_bytes().map_err(wire::malformed)?;
                let record = WalRecord::decode(&bytes).map_err(wire::malformed)?;
                entries.push(LogEntry {
                    term: entry_term,
                    record,
                });
            }
            ClusterMsg::AppendEntries {
                term,
                leader,
                prev_index,
                prev_term,
                commit,
                entries,
            }
        }
        TAG_APPEND_REPLY => ClusterMsg::AppendReply {
            term: dec.take_u64().map_err(wire::malformed)?,
            node: dec.take_u64().map_err(wire::malformed)?,
            success: dec.take_bool().map_err(wire::malformed)?,
            match_index: dec.take_u64().map_err(wire::malformed)?,
        },
        TAG_REGISTER => ClusterMsg::Register {
            node: dec.take_u64().map_err(wire::malformed)?,
            name: dec.take_str().map_err(wire::malformed)?,
            scan_threads: dec.take_u64().map_err(wire::malformed)?,
            deadline_ticks: dec.take_u64().map_err(wire::malformed)?,
        },
        TAG_REGISTER_ACK => ClusterMsg::RegisterAck {
            node: dec.take_u64().map_err(wire::malformed)?,
        },
        TAG_HEARTBEAT => ClusterMsg::Heartbeat {
            node: dec.take_u64().map_err(wire::malformed)?,
            seq: dec.take_u64().map_err(wire::malformed)?,
        },
        TAG_HEARTBEAT_ACK => ClusterMsg::HeartbeatAck {
            node: dec.take_u64().map_err(wire::malformed)?,
            seq: dec.take_u64().map_err(wire::malformed)?,
        },
        TAG_SHARD_SCAN => {
            let epoch = dec.take_u64().map_err(wire::malformed)?;
            let table = dec.take_str().map_err(wire::malformed)?;
            let shard_lo = dec.take_u64().map_err(wire::malformed)?;
            let shard_hi = dec.take_u64().map_err(wire::malformed)?;
            let count = dec.take_count(6).map_err(wire::malformed)?;
            let queries = (0..count)
                .map(|_| wire::take_query(&mut dec))
                .collect::<Result<Vec<Query>, _>>()
                .map_err(wire::malformed)?;
            ClusterMsg::ShardScan {
                epoch,
                table,
                shard_lo,
                shard_hi,
                queries,
            }
        }
        TAG_SHARD_PARTIALS => {
            let epoch = dec.take_u64().map_err(wire::malformed)?;
            let count = dec.take_count(16).map_err(wire::malformed)?;
            let partials = (0..count)
                .map(|_| {
                    Ok((
                        dec.take_f64().map_err(wire::malformed)?,
                        dec.take_f64().map_err(wire::malformed)?,
                    ))
                })
                .collect::<Result<Vec<(f64, f64)>, ApiError>>()?;
            ClusterMsg::ShardPartials { epoch, partials }
        }
        t => {
            return Err(wire::malformed(format!("unknown cluster tag {t}")));
        }
    };
    dec.finish().map_err(wire::malformed)?;
    Ok((request_id, msg))
}
