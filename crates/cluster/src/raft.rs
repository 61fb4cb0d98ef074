//! A deterministic, tick-driven simplified Raft core over WAL records.
//!
//! [`RaftCore`] is a **pure state machine**: it never reads a clock, a
//! socket or global randomness. Time is the caller's [`RaftCore::tick`]
//! calls (logical ticks), messages come in through [`RaftCore::handle`]
//! and go out as `(destination, message)` pairs in the return values, and
//! the only randomness — the election timeout — is drawn from a seeded
//! per-node generator. Driving a group of cores in a fixed order (as
//! `crate::sim::SimCluster` does) therefore replays **bit-identically**
//! under a fixed seed, which is what makes the partition/crash nemesis
//! schedules reproducible.
//!
//! The simplification relative to full Raft: no membership changes, no
//! log compaction/snapshot-install, and no read leases — the replicated
//! log only ever grows within a run, and reads go through the leader's
//! committed prefix. The safety-critical parts are the real protocol:
//! terms, first-come-first-served voting with the up-to-date log check,
//! the log-matching property on append (`prev_index`/`prev_term`),
//! commit advance only over **current-term** entries acknowledged by a
//! majority, and followers truncating conflicting suffixes.
//!
//! Log indices are 1-based (`prev_index == 0` means "before the first
//! entry"), and the *commit index* is the count of committed entries.
//!
//! Messages are plain values: the replica group runs in one process
//! (`crate::sim::SimCluster` moves them between inboxes), so [`RaftMsg`]
//! has no wire encoding.

use std::collections::BTreeMap;

use dprov_storage::wal::WalRecord;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A replica's identifier within its group (small and dense: groups are a
/// handful of nodes).
pub type NodeId = u64;

/// One replicated-log entry: the Raft term it was appended under plus the
/// WAL record it carries.
#[derive(Debug, Clone, PartialEq)]
pub struct LogEntry {
    /// The leader term the entry was appended under.
    pub term: u64,
    /// The payload — a write-ahead ledger record, bit-for-bit.
    pub record: WalRecord,
}

/// A consensus message between two replicas.
#[derive(Debug, Clone, PartialEq)]
pub enum RaftMsg {
    /// A candidate asks for a vote.
    RequestVote {
        /// The candidate's term.
        term: u64,
        /// The candidate's node id.
        candidate: NodeId,
        /// Entries in the candidate's log (its length).
        last_log_index: u64,
        /// Term of the candidate's last entry (0 when the log is empty).
        last_log_term: u64,
    },
    /// A vote-request answer.
    VoteReply {
        /// The voter's current term.
        term: u64,
        /// The voter's node id.
        voter: NodeId,
        /// Whether the vote was granted.
        granted: bool,
    },
    /// Leader-to-follower log replication (empty `entries` is a
    /// heartbeat).
    AppendEntries {
        /// The leader's term.
        term: u64,
        /// The leader's node id.
        leader: NodeId,
        /// Entries preceding the appended ones (log-matching check).
        prev_index: u64,
        /// Term of the entry at `prev_index` (0 when none).
        prev_term: u64,
        /// The leader's commit index.
        commit: u64,
        /// Entries to append after `prev_index`.
        entries: Vec<LogEntry>,
    },
    /// An append-entries answer.
    AppendReply {
        /// The follower's current term.
        term: u64,
        /// The follower's node id.
        node: NodeId,
        /// Whether the append matched and was stored.
        success: bool,
        /// Entries the follower's log now matches the leader's through.
        match_index: u64,
    },
}

/// The sentinel sequence number of a leader's no-op barrier entry (a
/// rollback of a sequence no real charge can use).
const NOOP_SEQ: u64 = u64::MAX;

/// Whether a log record is a leader's no-op barrier entry rather than a
/// real WAL record. New leaders append one no-op in their own term so
/// [`RaftCore`]'s current-term-only commit rule can advance over entries
/// inherited from earlier terms even when no new proposals arrive —
/// without it, a freshly elected majority could never re-commit (and so
/// never serve) the acknowledged history it carries. Consumers replaying
/// the committed log must skip these.
#[must_use]
pub fn is_noop(record: &WalRecord) -> bool {
    matches!(record, WalRecord::Rollback { seq: NOOP_SEQ })
}

/// The role a replica currently plays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Accepts appends from the current leader; votes.
    Follower,
    /// Campaigning for leadership of its term.
    Candidate,
    /// Appends client proposals and replicates them.
    Leader,
}

/// Static configuration of one replica.
#[derive(Debug, Clone)]
pub struct RaftConfig {
    /// This replica's id. Must be a member of `group`.
    pub id: NodeId,
    /// Every member of the replica group, **including this node**.
    pub group: Vec<NodeId>,
    /// Election timeout range in ticks; each deadline is drawn uniformly
    /// from it (randomisation breaks split-vote livelock).
    pub election_ticks: (u64, u64),
    /// Leader heartbeat/replication cadence in ticks.
    pub heartbeat_ticks: u64,
    /// Seed of the node's timeout generator (mixed with the node id, so
    /// one cluster seed gives every node a distinct stream).
    pub seed: u64,
}

impl RaftConfig {
    /// A config for node `id` of a group of `n` replicas (ids `0..n`),
    /// with timeouts sized for pumped simulation: elections fire after
    /// 10–19 idle ticks, leaders heartbeat every 3.
    #[must_use]
    pub fn sim(id: NodeId, n: u64, seed: u64) -> Self {
        RaftConfig {
            id,
            group: (0..n).collect(),
            election_ticks: (10, 19),
            heartbeat_ticks: 3,
            seed,
        }
    }
}

/// Durable per-replica state to carry across a crash: the Raft paper's
/// `currentTerm`, `votedFor` and the log.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PersistentState {
    /// The replica's current term.
    pub term: u64,
    /// Who the replica voted for in `term`, if anyone.
    pub voted_for: Option<NodeId>,
    /// The replicated log.
    pub entries: Vec<LogEntry>,
}

/// The deterministic replica state machine (see the module docs).
#[derive(Debug)]
pub struct RaftCore {
    config: RaftConfig,
    role: Role,
    term: u64,
    voted_for: Option<NodeId>,
    log: Vec<LogEntry>,
    /// Count of committed entries (prefix length).
    commit: u64,
    /// Leader bookkeeping: per-peer next index to send / highest index
    /// known replicated. Rebuilt at each election win.
    next_index: BTreeMap<NodeId, u64>,
    match_index: BTreeMap<NodeId, u64>,
    /// Votes collected as a candidate (self included).
    votes: Vec<NodeId>,
    /// The leader of the current term, once heard from.
    leader_hint: Option<NodeId>,
    ticks_idle: u64,
    election_deadline: u64,
    rng: StdRng,
    /// Elections this node has won (for the observability counter).
    elections_won: u64,
    /// Bumped every time the log loses a suffix, so persistence layers
    /// know an append-only sync is not enough. Not persisted.
    truncations: u64,
}

impl RaftCore {
    /// A fresh follower at term 0 with an empty log.
    #[must_use]
    pub fn new(config: RaftConfig) -> Self {
        Self::restore(config, PersistentState::default())
    }

    /// A follower rebuilt from persisted state (crash recovery). Volatile
    /// state (role, commit index, peer bookkeeping) restarts from scratch
    /// — the commit index is re-learned from the next leader, which is
    /// safe because commitment is a property of the *logs*, not of the
    /// lost volatile counter.
    #[must_use]
    pub fn restore(config: RaftConfig, persisted: PersistentState) -> Self {
        assert!(
            config.group.contains(&config.id),
            "node must be a member of its own group"
        );
        assert!(
            config.election_ticks.0 > config.heartbeat_ticks,
            "election timeout must exceed the heartbeat interval"
        );
        let mut rng = StdRng::seed_from_u64(config.seed ^ (config.id.wrapping_mul(0x9E37_79B9)));
        let deadline = rng.gen_range(config.election_ticks.0..=config.election_ticks.1);
        RaftCore {
            role: Role::Follower,
            term: persisted.term,
            voted_for: persisted.voted_for,
            log: persisted.entries,
            commit: 0,
            next_index: BTreeMap::new(),
            match_index: BTreeMap::new(),
            votes: Vec::new(),
            leader_hint: None,
            ticks_idle: 0,
            election_deadline: deadline,
            rng,
            elections_won: 0,
            truncations: 0,
            config,
        }
    }

    /// This replica's id.
    #[must_use]
    pub fn id(&self) -> NodeId {
        self.config.id
    }

    /// The current role.
    #[must_use]
    pub fn role(&self) -> Role {
        self.role
    }

    /// The current term.
    #[must_use]
    pub fn term(&self) -> u64 {
        self.term
    }

    /// The number of committed entries.
    #[must_use]
    pub fn commit_index(&self) -> u64 {
        self.commit
    }

    /// The committed prefix of the log.
    #[must_use]
    pub fn committed(&self) -> &[LogEntry] {
        &self.log[..self.commit as usize]
    }

    /// The whole log (committed prefix plus in-flight suffix).
    #[must_use]
    pub fn log(&self) -> &[LogEntry] {
        &self.log
    }

    /// The leader of the current term, if this node has heard from one
    /// (itself when leading).
    #[must_use]
    pub fn leader_hint(&self) -> Option<NodeId> {
        if self.role == Role::Leader {
            Some(self.config.id)
        } else {
            self.leader_hint
        }
    }

    /// Elections this node has won so far.
    #[must_use]
    pub fn elections_won(&self) -> u64 {
        self.elections_won
    }

    /// Who this node voted for in the current term, if anyone.
    #[must_use]
    pub fn voted_for(&self) -> Option<NodeId> {
        self.voted_for
    }

    /// Times the log lost a suffix since this core was built (persistence
    /// layers rewrite on change; [`RaftCore::restore`] starts it at 0).
    #[must_use]
    pub fn truncations(&self) -> u64 {
        self.truncations
    }

    /// The state a crash must not lose, as one full copy of the log. The
    /// test oracle of the incremental persistence in
    /// `crate::sim::SimCluster`, which copies only the new suffix.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn persistent(&self) -> PersistentState {
        PersistentState {
            term: self.term,
            voted_for: self.voted_for,
            entries: self.log.clone(),
        }
    }

    /// Replication lag of the slowest live-looking peer (leader only):
    /// own log length minus the smallest peer match index.
    #[must_use]
    pub fn worst_lag(&self) -> u64 {
        if self.role != Role::Leader {
            return 0;
        }
        let worst = self.match_index.values().copied().min().unwrap_or(0);
        (self.log.len() as u64).saturating_sub(worst)
    }

    fn majority(&self) -> usize {
        self.config.group.len() / 2 + 1
    }

    fn last_log_term(&self) -> u64 {
        self.log.last().map_or(0, |e| e.term)
    }

    fn become_follower(&mut self, term: u64) {
        self.role = Role::Follower;
        if term > self.term {
            self.term = term;
            self.voted_for = None;
            self.leader_hint = None;
        }
        self.votes.clear();
        self.reset_election_timer();
    }

    fn reset_election_timer(&mut self) {
        self.ticks_idle = 0;
        let (lo, hi) = self.config.election_ticks;
        self.election_deadline = self.rng.gen_range(lo..=hi);
    }

    /// Advances logical time by one tick: followers/candidates start an
    /// election at their deadline, leaders re-replicate at the heartbeat
    /// cadence.
    pub fn tick(&mut self) -> Vec<(NodeId, RaftMsg)> {
        self.ticks_idle += 1;
        match self.role {
            Role::Leader => {
                if self.ticks_idle >= self.config.heartbeat_ticks {
                    self.ticks_idle = 0;
                    self.broadcast_appends()
                } else {
                    Vec::new()
                }
            }
            Role::Follower | Role::Candidate => {
                if self.ticks_idle >= self.election_deadline {
                    self.start_election()
                } else {
                    Vec::new()
                }
            }
        }
    }

    fn start_election(&mut self) -> Vec<(NodeId, RaftMsg)> {
        self.role = Role::Candidate;
        self.term += 1;
        self.voted_for = Some(self.config.id);
        self.leader_hint = None;
        self.votes = vec![self.config.id];
        self.reset_election_timer();
        if self.votes.len() >= self.majority() {
            // Single-node group: win immediately.
            return self.become_leader();
        }
        let msg = RaftMsg::RequestVote {
            term: self.term,
            candidate: self.config.id,
            last_log_index: self.log.len() as u64,
            last_log_term: self.last_log_term(),
        };
        self.peers().map(|p| (p, msg.clone())).collect()
    }

    fn peers(&self) -> impl Iterator<Item = NodeId> + '_ {
        let me = self.config.id;
        self.config.group.iter().copied().filter(move |&p| p != me)
    }

    fn become_leader(&mut self) -> Vec<(NodeId, RaftMsg)> {
        self.role = Role::Leader;
        self.elections_won += 1;
        self.ticks_idle = 0;
        self.next_index = self
            .peers()
            .map(|p| (p, self.log.len() as u64 + 1))
            .collect();
        self.match_index = self.peers().map(|p| (p, 0)).collect();
        // Commit-advance barrier (see `is_noop`): without an entry in the
        // new term, the current-term-only rule in `advance_commit` would
        // leave inherited entries uncommitted until the next proposal —
        // which after a full-cluster recovery may never come.
        self.log.push(LogEntry {
            term: self.term,
            record: WalRecord::Rollback { seq: NOOP_SEQ },
        });
        if self.config.group.len() == 1 {
            self.commit = self.log.len() as u64;
        }
        self.broadcast_appends()
    }

    /// One AppendEntries (possibly empty = heartbeat) per peer, shipping
    /// everything from that peer's next index.
    fn broadcast_appends(&mut self) -> Vec<(NodeId, RaftMsg)> {
        let peers: Vec<NodeId> = self.peers().collect();
        peers
            .into_iter()
            .map(|p| {
                let msg = self.append_for(p);
                (p, msg)
            })
            .collect()
    }

    fn append_for(&self, peer: NodeId) -> RaftMsg {
        let next = self.next_index.get(&peer).copied().unwrap_or(1).max(1);
        let prev_index = next - 1;
        let prev_term = if prev_index == 0 {
            0
        } else {
            self.log[prev_index as usize - 1].term
        };
        RaftMsg::AppendEntries {
            term: self.term,
            leader: self.config.id,
            prev_index,
            prev_term,
            commit: self.commit,
            entries: self.log[prev_index as usize..].to_vec(),
        }
    }

    /// Appends a proposal to the leader's log and starts replicating it.
    /// Returns `None` (and sends nothing) when this node is not the
    /// leader — the caller retries against the current leader.
    pub fn propose(&mut self, record: WalRecord) -> Option<(u64, Vec<(NodeId, RaftMsg)>)> {
        if self.role != Role::Leader {
            return None;
        }
        self.log.push(LogEntry {
            term: self.term,
            record,
        });
        let index = self.log.len() as u64;
        self.ticks_idle = 0;
        let msgs = self.broadcast_appends();
        if self.config.group.len() == 1 {
            // No peers to ack: a single-node group commits immediately.
            self.commit = self.log.len() as u64;
        }
        Some((index, msgs))
    }

    /// Processes one incoming message, returning the messages to send.
    pub fn handle(&mut self, from: NodeId, msg: RaftMsg) -> Vec<(NodeId, RaftMsg)> {
        match msg {
            RaftMsg::RequestVote {
                term,
                candidate,
                last_log_index,
                last_log_term,
            } => {
                if term > self.term {
                    self.become_follower(term);
                }
                let up_to_date = last_log_term > self.last_log_term()
                    || (last_log_term == self.last_log_term()
                        && last_log_index >= self.log.len() as u64);
                let granted = term == self.term
                    && up_to_date
                    && (self.voted_for.is_none() || self.voted_for == Some(candidate));
                if granted {
                    self.voted_for = Some(candidate);
                    self.reset_election_timer();
                }
                vec![(
                    from,
                    RaftMsg::VoteReply {
                        term: self.term,
                        voter: self.config.id,
                        granted,
                    },
                )]
            }
            RaftMsg::VoteReply {
                term,
                voter,
                granted,
            } => {
                if term > self.term {
                    self.become_follower(term);
                    return Vec::new();
                }
                if self.role == Role::Candidate && term == self.term && granted {
                    if !self.votes.contains(&voter) {
                        self.votes.push(voter);
                    }
                    if self.votes.len() >= self.majority() {
                        return self.become_leader();
                    }
                }
                Vec::new()
            }
            RaftMsg::AppendEntries {
                term,
                leader,
                prev_index,
                prev_term,
                commit,
                entries,
            } => {
                if term < self.term {
                    return vec![(
                        from,
                        RaftMsg::AppendReply {
                            term: self.term,
                            node: self.config.id,
                            success: false,
                            match_index: 0,
                        },
                    )];
                }
                self.become_follower(term);
                self.leader_hint = Some(leader);
                // Log-matching check: our entry at prev_index must carry
                // prev_term.
                let prev_ok = prev_index == 0
                    || (prev_index as usize <= self.log.len()
                        && self.log[prev_index as usize - 1].term == prev_term);
                if !prev_ok {
                    return vec![(
                        from,
                        RaftMsg::AppendReply {
                            term: self.term,
                            node: self.config.id,
                            success: false,
                            // Back-off hint: retry from our log end (or
                            // below the conflict).
                            match_index: (self.log.len() as u64).min(prev_index.saturating_sub(1)),
                        },
                    )];
                }
                // Append, truncating any conflicting suffix. Committed
                // entries are never truncated: the leader-completeness
                // property guarantees a current leader carries them.
                for (k, entry) in entries.iter().enumerate() {
                    let idx = prev_index as usize + k; // 0-based position
                    if idx < self.log.len() {
                        if self.log[idx].term != entry.term {
                            self.log.truncate(idx);
                            self.truncations += 1;
                            self.log.push(entry.clone());
                        }
                    } else {
                        self.log.push(entry.clone());
                    }
                }
                let matched = prev_index + entries.len() as u64;
                self.commit = self.commit.max(commit.min(matched));
                vec![(
                    from,
                    RaftMsg::AppendReply {
                        term: self.term,
                        node: self.config.id,
                        success: true,
                        match_index: matched,
                    },
                )]
            }
            RaftMsg::AppendReply {
                term,
                node,
                success,
                match_index,
            } => {
                if term > self.term {
                    self.become_follower(term);
                    return Vec::new();
                }
                if self.role != Role::Leader || term != self.term {
                    return Vec::new();
                }
                if success {
                    let m = self.match_index.entry(node).or_insert(0);
                    *m = (*m).max(match_index);
                    self.next_index.insert(node, match_index + 1);
                    self.advance_commit();
                    Vec::new()
                } else {
                    // Back off and retry immediately.
                    let next = self.next_index.entry(node).or_insert(1);
                    *next = (*next - 1).clamp(1, match_index + 1);
                    vec![(node, self.append_for(node))]
                }
            }
        }
    }

    /// Advances the commit index to the highest current-term entry a
    /// majority has acknowledged (counting self).
    fn advance_commit(&mut self) {
        for n in ((self.commit + 1)..=(self.log.len() as u64)).rev() {
            if self.log[n as usize - 1].term != self.term {
                continue;
            }
            let acks = 1 + self.match_index.values().filter(|&&m| m >= n).count();
            if acks >= self.majority() {
                self.commit = n;
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dprov_storage::wal::WalRecord;

    fn rollback(seq: u64) -> WalRecord {
        WalRecord::Rollback { seq }
    }

    /// Delivers every queued message until the network is quiet,
    /// deterministically in node order.
    fn settle(nodes: &mut [RaftCore], queues: &mut Vec<(NodeId, NodeId, RaftMsg)>) {
        while let Some((_from, to, msg)) = queues.first().cloned() {
            queues.remove(0);
            let from = _from;
            let out = nodes[to as usize].handle(from, msg);
            for (dest, m) in out {
                queues.push((to, dest, m));
            }
        }
    }

    fn tick_all(nodes: &mut [RaftCore], queues: &mut Vec<(NodeId, NodeId, RaftMsg)>) {
        for node in nodes.iter_mut() {
            for (dest, m) in node.tick() {
                queues.push((node.id(), dest, m));
            }
        }
    }

    fn elect(nodes: &mut [RaftCore]) -> usize {
        let mut queues = Vec::new();
        for _ in 0..200 {
            tick_all(nodes, &mut queues);
            settle(nodes, &mut queues);
            if let Some(i) = nodes.iter().position(|n| n.role() == Role::Leader) {
                return i;
            }
        }
        panic!("no leader elected in 200 ticks");
    }

    fn group(n: u64, seed: u64) -> Vec<RaftCore> {
        (0..n)
            .map(|i| RaftCore::new(RaftConfig::sim(i, n, seed)))
            .collect()
    }

    #[test]
    fn three_nodes_elect_exactly_one_leader() {
        let mut nodes = group(3, 7);
        let leader = elect(&mut nodes);
        let leaders = nodes.iter().filter(|n| n.role() == Role::Leader).count();
        assert_eq!(leaders, 1);
        assert!(nodes[leader].elections_won() >= 1);
        // Followers learn the leader.
        let mut queues = Vec::new();
        tick_all(&mut nodes, &mut queues);
        settle(&mut nodes, &mut queues);
        for (i, n) in nodes.iter().enumerate() {
            if i != leader {
                assert_eq!(n.leader_hint(), Some(leader as u64));
            }
        }
    }

    #[test]
    fn proposals_commit_on_a_majority_and_replicate() {
        let mut nodes = group(3, 11);
        let leader = elect(&mut nodes);
        // The new leader's log already carries its no-op barrier entries.
        let base = nodes[leader].log().len() as u64;
        let mut queues = Vec::new();
        for seq in 0..5 {
            let (_, msgs) = nodes[leader].propose(rollback(seq)).unwrap();
            for (dest, m) in msgs {
                queues.push((leader as u64, dest, m));
            }
        }
        settle(&mut nodes, &mut queues);
        assert_eq!(nodes[leader].commit_index(), base + 5);
        for n in nodes.iter() {
            assert_eq!(n.log().len() as u64, base + 5);
        }
        // Followers learn the commit index at the next heartbeat.
        for _ in 0..5 {
            tick_all(&mut nodes, &mut queues);
            settle(&mut nodes, &mut queues);
        }
        for n in nodes.iter() {
            assert_eq!(n.commit_index(), base + 5);
            assert_eq!(n.committed(), nodes[leader].committed());
        }
        let data: Vec<&WalRecord> = nodes[leader]
            .committed()
            .iter()
            .map(|e| &e.record)
            .filter(|r| !is_noop(r))
            .collect();
        assert_eq!(data.len(), 5, "exactly the five proposals survive");
    }

    #[test]
    fn non_leader_refuses_proposals() {
        let mut nodes = group(3, 13);
        let leader = elect(&mut nodes);
        let follower = (0..3).find(|&i| i != leader).unwrap();
        assert!(nodes[follower].propose(rollback(1)).is_none());
    }

    #[test]
    fn single_node_group_commits_immediately() {
        let mut node = RaftCore::new(RaftConfig::sim(0, 1, 3));
        let mut queues = Vec::new();
        tick_all(std::slice::from_mut(&mut node), &mut queues);
        while node.role() != Role::Leader {
            tick_all(std::slice::from_mut(&mut node), &mut queues);
        }
        // The election no-op committed immediately (single-node quorum).
        let base = node.commit_index();
        assert_eq!(base, node.log().len() as u64);
        let (idx, msgs) = node.propose(rollback(9)).unwrap();
        assert_eq!(idx, base + 1);
        assert!(msgs.is_empty());
        assert_eq!(node.commit_index(), base + 1);
    }

    #[test]
    fn higher_term_dethrones_a_stale_leader() {
        let mut nodes = group(3, 17);
        let leader = elect(&mut nodes);
        let term = nodes[leader].term();
        let out = nodes[leader].handle(
            2,
            RaftMsg::AppendEntries {
                term: term + 5,
                leader: 2,
                prev_index: 0,
                prev_term: 0,
                commit: 0,
                entries: Vec::new(),
            },
        );
        assert_eq!(nodes[leader].role(), Role::Follower);
        assert_eq!(nodes[leader].term(), term + 5);
        assert!(matches!(
            out[0].1,
            RaftMsg::AppendReply { success: true, .. }
        ));
    }

    #[test]
    fn conflicting_suffixes_are_truncated_to_match_the_leader() {
        let mut follower = RaftCore::new(RaftConfig::sim(1, 3, 23));
        // Stale entries from an old term 1 leader.
        follower.handle(
            0,
            RaftMsg::AppendEntries {
                term: 1,
                leader: 0,
                prev_index: 0,
                prev_term: 0,
                commit: 0,
                entries: vec![
                    LogEntry {
                        term: 1,
                        record: rollback(1),
                    },
                    LogEntry {
                        term: 1,
                        record: rollback(2),
                    },
                ],
            },
        );
        assert_eq!(follower.log().len(), 2);
        // A term-3 leader overwrites index 2 with its own entry.
        follower.handle(
            2,
            RaftMsg::AppendEntries {
                term: 3,
                leader: 2,
                prev_index: 1,
                prev_term: 1,
                commit: 0,
                entries: vec![LogEntry {
                    term: 3,
                    record: rollback(7),
                }],
            },
        );
        assert_eq!(follower.log().len(), 2);
        assert_eq!(follower.log()[1].term, 3);
        assert_eq!(follower.log()[1].record, rollback(7));
        assert_eq!(follower.truncations(), 1);
    }

    #[test]
    fn restore_carries_term_vote_and_log_across_a_crash() {
        let mut nodes = group(3, 29);
        let leader = elect(&mut nodes);
        let mut queues = Vec::new();
        let (_, msgs) = nodes[leader].propose(rollback(4)).unwrap();
        for (dest, m) in msgs {
            queues.push((leader as u64, dest, m));
        }
        settle(&mut nodes, &mut queues);
        let follower = (0..3).find(|&i| i != leader).unwrap();
        let persisted = nodes[follower].persistent();
        let restored =
            RaftCore::restore(RaftConfig::sim(follower as u64, 3, 29), persisted.clone());
        assert_eq!(restored.term(), nodes[follower].term());
        assert_eq!(restored.log(), nodes[follower].log());
        assert_eq!(restored.persistent(), persisted);
        // Volatile commit restarts at 0 and is re-learned from appends.
        assert_eq!(restored.commit_index(), 0);
    }

    #[test]
    fn identical_seeds_replay_identically() {
        let run = |seed: u64| {
            let mut nodes = group(3, seed);
            let leader = elect(&mut nodes);
            (leader, nodes.iter().map(|n| n.term()).collect::<Vec<_>>())
        };
        assert_eq!(run(42), run(42));
    }
}
