//! The replica group: a deterministic in-process cluster with fault
//! injection.
//!
//! [`SimCluster`] owns one [`RaftCore`] per replica and plays the
//! network: every outgoing message lands in the destination's FIFO
//! inbox, and [`SimCluster::step`] advances the whole group one logical
//! tick and then delivers messages **in node order** until the network
//! is quiet. Because the cores are pure state machines and delivery
//! order is fixed, a run is a function of `(seed, fault schedule)` alone
//! — the jepsen-style nemesis suites replay bit-identically.
//!
//! Fault injection mirrors what the paper's deployment model has to
//! survive:
//!
//! * [`SimCluster::crash`] drops a node's in-memory core but keeps its
//!   *persisted* Raft state (term, vote, log), and
//!   [`SimCluster::restart`] rebuilds the core from it;
//! * [`SimCluster::isolate`] / [`SimCluster::heal`] partition the
//!   network into groups that cannot exchange messages;
//! * [`SimCluster::set_drop_one_in`] / [`SimCluster::set_delay_one_in`]
//!   inject seeded random message loss and reordering.
//!
//! The persisted state is the replica store, and it lives in memory: one
//! [`PersistentState`] per node, kept across crashes of that node but not
//! across the process. A node persists before it speaks: after every
//! tick, handled message and proposal, and before the resulting messages
//! leave, the simulation copies the node's term and vote, appends the log
//! entries past the persisted prefix, and rebuilds the persisted log from
//! scratch only when [`RaftCore::truncations`] has moved since that
//! node's last sync (a follower dropped a conflicting suffix). A sync
//! therefore costs the new entries, not the log length, and a
//! quorum-gated commit costs the same at any log length.
//!
//! [`SimCluster::propose_committed`] is the replication gate the
//! [`crate::recorder::ReplicatedRecorder`] builds on: it appends a WAL
//! record through the current leader and pumps until the entry is
//! **committed on a majority**, returning an error (never a false ack)
//! when no quorum can be reached under the active faults.

use std::collections::VecDeque;
use std::fmt;

use dprov_obs::{CounterId, GaugeId, MetricsRegistry};
use dprov_storage::wal::WalRecord;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::raft::{NodeId, PersistentState, RaftConfig, RaftCore, RaftMsg, Role};

/// Why a proposal could not be acknowledged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// No live node holds (or could win) leadership within the round
    /// budget — typically a majority is down or partitioned away.
    NoLeader,
    /// A leader accepted the entry but a majority never acknowledged it
    /// within the round budget.
    NoQuorum,
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::NoLeader => write!(f, "no leader reachable (majority down?)"),
            ClusterError::NoQuorum => write!(f, "entry not acknowledged by a majority"),
        }
    }
}

impl std::error::Error for ClusterError {}

#[derive(Debug)]
struct SimNode {
    config: RaftConfig,
    /// `None` while crashed.
    core: Option<RaftCore>,
    /// This node's persisted state (kept across crashes), equal to the
    /// core's term, vote and log after every sync. Grown by suffix
    /// appends; rebuilt only after the core truncated its log.
    persisted: PersistentState,
    /// The core's [`RaftCore::truncations`] at the last sync (0 again at
    /// restart, where the restored core's count starts).
    synced_truncations: u64,
    /// The core's [`RaftCore::elections_won`] already added to the
    /// election counter (0 again at restart, like the core's count).
    elections_reported: u64,
    /// Partition group; nodes in different groups cannot talk.
    group: u64,
}

/// Log entries the syncs wrote to persisted state, for the tests that pin
/// the cost of persistence by a count.
#[cfg(test)]
#[derive(Debug, Default)]
struct SyncTally {
    /// Every entry written, appended or rebuilt.
    written: u64,
    /// The entries written by rebuilds after a truncation.
    rebuilt: u64,
}

/// The deterministic replica-group simulation (see the module docs).
#[derive(Debug)]
pub struct SimCluster {
    nodes: Vec<SimNode>,
    inboxes: Vec<VecDeque<(NodeId, RaftMsg)>>,
    /// Messages held back one step by the delay fault.
    delayed: Vec<(NodeId, NodeId, RaftMsg)>,
    drop_one_in: u64,
    delay_one_in: u64,
    fault_rng: StdRng,
    metrics: MetricsRegistry,
    #[cfg(test)]
    tally: SyncTally,
}

impl SimCluster {
    /// A fresh `n`-replica group, fault-free, metrics disabled.
    #[must_use]
    pub fn new(n: u64, seed: u64) -> Self {
        Self::with_metrics(n, seed, MetricsRegistry::disabled())
    }

    /// A fresh `n`-replica group reporting into `metrics`.
    #[must_use]
    pub fn with_metrics(n: u64, seed: u64, metrics: MetricsRegistry) -> Self {
        assert!(n >= 1, "a replica group needs at least one node");
        let nodes = (0..n)
            .map(|i| {
                let config = RaftConfig::sim(i, n, seed);
                SimNode {
                    core: Some(RaftCore::new(config.clone())),
                    config,
                    persisted: PersistentState::default(),
                    synced_truncations: 0,
                    elections_reported: 0,
                    group: 0,
                }
            })
            .collect();
        SimCluster {
            nodes,
            inboxes: (0..n).map(|_| VecDeque::new()).collect(),
            delayed: Vec::new(),
            drop_one_in: 0,
            delay_one_in: 0,
            fault_rng: StdRng::seed_from_u64(seed ^ 0xFA17),
            metrics,
            #[cfg(test)]
            tally: SyncTally::default(),
        }
    }

    /// Number of replicas (live or crashed).
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the group has no replicas (never, in practice).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Whether `node` is currently running.
    #[must_use]
    pub fn is_up(&self, node: NodeId) -> bool {
        self.nodes[node as usize].core.is_some()
    }

    /// The current leader, if a live node holds the role at the highest
    /// live term (stale leaders in a minority partition still *think*
    /// they lead; the max-term rule picks the real one once visible).
    #[must_use]
    pub fn leader(&self) -> Option<NodeId> {
        self.nodes
            .iter()
            .filter_map(|n| n.core.as_ref())
            .filter(|c| c.role() == Role::Leader)
            .max_by_key(|c| c.term())
            .map(RaftCore::id)
    }

    /// The committed WAL records on `node` (live nodes only), with the
    /// leaders' no-op barrier entries filtered out — callers replaying
    /// the ledger only ever see real WAL records.
    #[must_use]
    pub fn committed_records(&self, node: NodeId) -> Vec<WalRecord> {
        self.nodes[node as usize]
            .core
            .as_ref()
            .map(|c| {
                c.committed()
                    .iter()
                    .map(|e| e.record.clone())
                    .filter(|r| !crate::raft::is_noop(r))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// The persisted (crash-surviving) state of `node`.
    #[must_use]
    pub fn persisted(&self, node: NodeId) -> &PersistentState {
        &self.nodes[node as usize].persisted
    }

    /// Crashes `node`: the volatile core and its inbox vanish, the
    /// persisted state stays.
    pub fn crash(&mut self, node: NodeId) {
        self.nodes[node as usize].core = None;
        self.inboxes[node as usize].clear();
        self.delayed.retain(|&(_, to, _)| to != node);
    }

    /// Restarts a crashed node from its persisted state. No-op when the
    /// node is already up.
    pub fn restart(&mut self, node: NodeId) {
        let n = &mut self.nodes[node as usize];
        if n.core.is_none() {
            n.core = Some(RaftCore::restore(n.config.clone(), n.persisted.clone()));
            n.synced_truncations = 0;
            n.elections_reported = 0;
        }
    }

    /// Partitions `minority` away from the rest of the group. In-flight
    /// messages across the cut are dropped.
    pub fn isolate(&mut self, minority: &[NodeId]) {
        for (i, n) in self.nodes.iter_mut().enumerate() {
            n.group = u64::from(minority.contains(&(i as NodeId)));
        }
        let groups: Vec<u64> = self.nodes.iter().map(|n| n.group).collect();
        self.delayed
            .retain(|&(from, to, _)| groups[from as usize] == groups[to as usize]);
    }

    /// Heals all partitions.
    pub fn heal(&mut self) {
        for n in &mut self.nodes {
            n.group = 0;
        }
    }

    /// Drops roughly one in `k` messages (0 disables).
    pub fn set_drop_one_in(&mut self, k: u64) {
        self.drop_one_in = k;
    }

    /// Delays roughly one in `k` messages by one step (0 disables).
    pub fn set_delay_one_in(&mut self, k: u64) {
        self.delay_one_in = k;
    }

    fn route(&mut self, from: NodeId, to: NodeId, msg: RaftMsg) {
        if self.nodes[from as usize].group != self.nodes[to as usize].group {
            return; // partitioned
        }
        if self.nodes[to as usize].core.is_none() {
            return; // crashed destination
        }
        if self.drop_one_in > 0 && self.fault_rng.gen_range(0..self.drop_one_in) == 0 {
            return;
        }
        if self.delay_one_in > 0 && self.fault_rng.gen_range(0..self.delay_one_in) == 0 {
            self.delayed.push((from, to, msg));
            return;
        }
        self.inboxes[to as usize].push_back((from, msg));
    }

    /// Persists node `i`'s durable state. Called before that node's
    /// messages leave, so an acked entry is always persisted first.
    /// Copies the term and vote, then
    /// appends the log past the persisted prefix; the persisted log is
    /// rebuilt from scratch only when the core truncated its log since
    /// the last sync (see the module docs).
    fn sync_node(&mut self, i: usize) {
        let node = &mut self.nodes[i];
        let Some(core) = &node.core else { return };
        let persisted = &mut node.persisted;
        persisted.term = core.term();
        persisted.voted_for = core.voted_for();
        let rebuild = core.truncations() != node.synced_truncations;
        if rebuild {
            node.synced_truncations = core.truncations();
            persisted.entries.clear();
        }
        let suffix = &core.log()[persisted.entries.len()..];
        persisted.entries.extend_from_slice(suffix);
        #[cfg(test)]
        {
            let written = suffix.len() as u64;
            self.tally.written += written;
            if rebuild {
                self.tally.rebuilt += written;
            }
        }
    }

    fn report_metrics(&mut self) {
        // Per node against its own last-seen count: a crashed node's
        // wins stay counted, and a restarted core counts from 0 again.
        let mut won = 0;
        for n in &mut self.nodes {
            if let Some(core) = &n.core {
                won += core.elections_won() - n.elections_reported;
                n.elections_reported = core.elections_won();
            }
        }
        if won > 0 {
            self.metrics.add(CounterId::LeaderElections, won);
        }
        if let Some(l) = self.leader() {
            let lag = self.nodes[l as usize]
                .core
                .as_ref()
                .map_or(0, RaftCore::worst_lag);
            self.metrics.gauge_set(GaugeId::ReplicationLag, lag as f64);
        }
    }

    /// Advances every live node one tick, then delivers messages in node
    /// order until the network is quiet. Delayed messages from the
    /// previous step are released first.
    pub fn step(&mut self) {
        let held = std::mem::take(&mut self.delayed);
        for (from, to, msg) in held {
            // Re-routed without the delay fault (one-step delay only).
            if self.nodes[from as usize].group == self.nodes[to as usize].group
                && self.nodes[to as usize].core.is_some()
            {
                self.inboxes[to as usize].push_back((from, msg));
            }
        }
        for i in 0..self.nodes.len() {
            let out = match &mut self.nodes[i].core {
                Some(core) => core.tick(),
                None => continue,
            };
            self.sync_node(i);
            for (dest, msg) in out {
                self.route(i as NodeId, dest, msg);
            }
        }
        self.deliver_all();
        self.report_metrics();
    }

    /// Delivers queued messages (in node order, FIFO per inbox) until
    /// every inbox is empty.
    fn deliver_all(&mut self) {
        loop {
            let mut quiet = true;
            for i in 0..self.nodes.len() {
                while let Some((from, msg)) = self.inboxes[i].pop_front() {
                    quiet = false;
                    let out = match &mut self.nodes[i].core {
                        Some(core) => core.handle(from, msg),
                        None => continue,
                    };
                    self.sync_node(i);
                    for (dest, m) in out {
                        self.route(i as NodeId, dest, m);
                    }
                }
            }
            if quiet {
                break;
            }
        }
    }

    /// Steps until a leader exists (at most `max_rounds` steps).
    pub fn elect(&mut self, max_rounds: usize) -> Result<NodeId, ClusterError> {
        for _ in 0..max_rounds {
            if let Some(l) = self.leader() {
                return Ok(l);
            }
            self.step();
        }
        self.leader().ok_or(ClusterError::NoLeader)
    }

    /// Appends `record` through the current leader and pumps until a
    /// majority has acknowledged it (the leader's commit index covers
    /// it). Errors — `NoLeader`, `NoQuorum`, or leadership lost before
    /// the commit was observed — mean the entry **must not be
    /// acknowledged** to the caller; it may still commit later, which is
    /// the safe direction (recovered spend ≥ acknowledged spend).
    pub fn propose_committed(
        &mut self,
        record: WalRecord,
        max_rounds: usize,
    ) -> Result<u64, ClusterError> {
        let leader = self.elect(max_rounds)?;
        let li = leader as usize;
        let term;
        let index;
        {
            let core = self.nodes[li].core.as_mut().ok_or(ClusterError::NoLeader)?;
            term = core.term();
            let (idx, msgs) = core.propose(record).ok_or(ClusterError::NoLeader)?;
            index = idx;
            self.sync_node(li);
            for (dest, m) in msgs {
                self.route(leader, dest, m);
            }
        }
        self.deliver_all();
        for _ in 0..max_rounds {
            match self.nodes[li].core.as_ref() {
                Some(core) if core.role() == Role::Leader && core.term() == term => {
                    if core.commit_index() >= index {
                        self.report_metrics();
                        return Ok(index);
                    }
                }
                // Crashed or deposed before the ack: refuse. The entry
                // may survive via the new leader, but the caller must
                // not treat it as acknowledged.
                _ => return Err(ClusterError::NoQuorum),
            }
            self.step();
        }
        Err(ClusterError::NoQuorum)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rollback(seq: u64) -> WalRecord {
        WalRecord::Rollback { seq }
    }

    #[test]
    fn commits_replicate_to_every_node() {
        let mut sim = SimCluster::new(3, 1);
        for seq in 0..4 {
            sim.propose_committed(rollback(seq), 100).unwrap();
        }
        for _ in 0..5 {
            sim.step();
        }
        let want: Vec<WalRecord> = (0..4).map(rollback).collect();
        for node in 0..3 {
            assert_eq!(sim.committed_records(node), want, "node {node}");
        }
    }

    #[test]
    fn majority_survives_one_crash() {
        let mut sim = SimCluster::new(3, 2);
        sim.propose_committed(rollback(0), 100).unwrap();
        let leader = sim.leader().unwrap();
        sim.crash(leader);
        // The two survivors elect a new leader and keep committing.
        sim.propose_committed(rollback(1), 200).unwrap();
        let new_leader = sim.leader().unwrap();
        assert_ne!(new_leader, leader);
        assert_eq!(
            sim.committed_records(new_leader),
            vec![rollback(0), rollback(1)]
        );
    }

    #[test]
    fn minority_partition_blocks_acks_until_heal() {
        let mut sim = SimCluster::new(3, 3);
        sim.propose_committed(rollback(0), 100).unwrap();
        let leader = sim.leader().unwrap();
        // Cut the leader off with no followers: no quorum for it.
        sim.isolate(&[leader]);
        let err = sim.propose_committed(rollback(1), 40).unwrap_err();
        assert!(matches!(
            err,
            ClusterError::NoQuorum | ClusterError::NoLeader
        ));
        sim.heal();
        sim.propose_committed(rollback(2), 200).unwrap();
        let l = sim.leader().unwrap();
        let committed = sim.committed_records(l);
        assert_eq!(committed.first(), Some(&rollback(0)));
        assert_eq!(committed.last(), Some(&rollback(2)));
    }

    #[test]
    fn crashed_node_recovers_its_persisted_log() {
        let mut sim = SimCluster::new(3, 4);
        for seq in 0..3 {
            sim.propose_committed(rollback(seq), 100).unwrap();
        }
        for _ in 0..5 {
            sim.step();
        }
        let victim = sim.leader().unwrap();
        sim.crash(victim);
        assert!(!sim.is_up(victim));
        // Persisted log survived the crash (plus election no-ops).
        let data = sim
            .persisted(victim)
            .entries
            .iter()
            .filter(|e| !crate::raft::is_noop(&e.record))
            .count();
        assert_eq!(data, 3);
        sim.restart(victim);
        sim.propose_committed(rollback(3), 200).unwrap();
        for _ in 0..10 {
            sim.step();
        }
        let want: Vec<WalRecord> = (0..4).map(rollback).collect();
        assert_eq!(sim.committed_records(victim), want);
    }

    #[test]
    fn message_loss_and_delay_only_slow_things_down() {
        let mut sim = SimCluster::new(3, 5);
        sim.set_drop_one_in(5);
        sim.set_delay_one_in(4);
        for seq in 0..6 {
            sim.propose_committed(rollback(seq), 400).unwrap();
        }
        sim.set_drop_one_in(0);
        sim.set_delay_one_in(0);
        for _ in 0..20 {
            sim.step();
        }
        let l = sim.leader().unwrap();
        let want: Vec<WalRecord> = (0..6).map(rollback).collect();
        assert_eq!(sim.committed_records(l), want);
    }

    #[test]
    fn seeded_runs_are_reproducible() {
        let run = |seed| {
            let mut sim = SimCluster::new(5, seed);
            sim.set_drop_one_in(7);
            let mut acks = Vec::new();
            for seq in 0..5 {
                acks.push(sim.propose_committed(rollback(seq), 300).is_ok());
            }
            (sim.leader(), acks)
        };
        assert_eq!(run(99), run(99));
    }

    #[test]
    fn metrics_record_elections_and_lag() {
        let metrics = MetricsRegistry::new();
        let mut sim = SimCluster::with_metrics(3, 6, metrics.clone());
        sim.propose_committed(rollback(0), 100).unwrap();
        let snap = metrics.snapshot();
        let elections = snap.counter("cluster.leader_elections").unwrap_or(0);
        assert!(elections >= 1);
    }

    /// Elections won by the live cores.
    fn live_wins(sim: &SimCluster) -> u64 {
        sim.nodes
            .iter()
            .filter_map(|n| n.core.as_ref())
            .map(RaftCore::elections_won)
            .sum()
    }

    #[test]
    fn election_counter_keeps_the_wins_of_crashed_and_restarted_leaders() {
        let metrics = MetricsRegistry::new();
        let mut sim = SimCluster::with_metrics(3, 2, metrics.clone());
        let counter = || metrics.snapshot().counter("cluster.leader_elections");
        let wins_of = |sim: &SimCluster, node: NodeId| {
            sim.nodes[node as usize]
                .core
                .as_ref()
                .map_or(0, RaftCore::elections_won)
        };
        sim.propose_committed(rollback(0), 100).unwrap();
        let first = sim.leader().unwrap();
        // Wins of the cores the crashes dropped.
        let mut lost = wins_of(&sim, first);
        sim.crash(first);
        sim.propose_committed(rollback(1), 200).unwrap();
        let second = sim.leader().unwrap();
        assert_ne!(second, first);
        assert_eq!(counter(), Some(lost + live_wins(&sim)));
        // The first leader comes back with a fresh count and the second
        // goes down: the next wins are counted too.
        sim.restart(first);
        lost += wins_of(&sim, second);
        sim.crash(second);
        sim.propose_committed(rollback(2), 200).unwrap();
        sim.restart(second);
        for _ in 0..20 {
            sim.step();
        }
        assert!(lost + live_wins(&sim) >= 3);
        assert_eq!(counter(), Some(lost + live_wins(&sim)));
    }

    /// Every live node's persisted state equals the full-clone oracle.
    fn assert_persisted_is_the_oracle(sim: &SimCluster) {
        for (i, n) in sim.nodes.iter().enumerate() {
            if let Some(core) = &n.core {
                assert_eq!(n.persisted, core.persistent(), "node {i}");
            }
        }
    }

    #[test]
    fn incremental_persistence_equals_the_full_clone_oracle() {
        let mut sim = SimCluster::new(3, 8);
        // Among other things this schedule restarts a node that had
        // truncated its log straight into an append that truncates it
        // again before its first tick: the case `restart` resets the
        // node's last-seen truncation count for.
        let mut nemesis = StdRng::seed_from_u64(11);
        for seq in 0..2_000 {
            match nemesis.gen_range(0..40u32) {
                0 => sim.crash(nemesis.gen_range(0..3)),
                1 => (0..3).for_each(|n| sim.restart(n)),
                2 => sim.isolate(&[nemesis.gen_range(0..3)]),
                3 => sim.heal(),
                4 => sim.set_drop_one_in(nemesis.gen_range(3..9)),
                5 => sim.set_delay_one_in(nemesis.gen_range(2..6)),
                6 => {
                    sim.set_drop_one_in(0);
                    sim.set_delay_one_in(0);
                }
                _ => {}
            }
            let _ = sim.propose_committed(rollback(seq), 40);
            assert_persisted_is_the_oracle(&sim);
            sim.step();
            assert_persisted_is_the_oracle(&sim);
        }

        // A deposed leader with an uncommitted entry rejoins: it must
        // drop that suffix, and its persisted log must follow.
        sim.heal();
        sim.set_drop_one_in(0);
        sim.set_delay_one_in(0);
        (0..3).for_each(|n| sim.restart(n));
        // A node that campaigned alone rejoins with a higher term and
        // deposes the leader it finds; retry until the group is settled.
        (0..5)
            .find(|_| sim.propose_committed(rollback(10_000), 400).is_ok())
            .expect("the healed group commits");
        let deposed = sim.leader().unwrap();
        let truncations = |sim: &SimCluster| {
            sim.nodes[deposed as usize]
                .core
                .as_ref()
                .map_or(0, RaftCore::truncations)
        };
        let before = truncations(&sim);
        sim.isolate(&[deposed]);
        assert_eq!(
            sim.propose_committed(rollback(10_001), 30),
            Err(ClusterError::NoQuorum)
        );
        assert_persisted_is_the_oracle(&sim);
        // Until the majority elects, the isolated node is the only leader.
        for _ in 0..200 {
            if sim.leader().is_some_and(|l| l != deposed) {
                break;
            }
            sim.step();
        }
        (0..5)
            .find(|_| sim.propose_committed(rollback(10_002), 400).is_ok())
            .expect("the majority commits without the deposed leader");
        let leader = sim.leader().unwrap();
        assert_ne!(leader, deposed);
        sim.heal();
        for _ in 0..50 {
            sim.step();
            assert_persisted_is_the_oracle(&sim);
            if truncations(&sim) > before {
                break;
            }
        }
        assert!(truncations(&sim) > before, "the rejoining leader truncated");
        // Crash it right after the truncation: its disk holds the
        // rebuilt log, and it recovers the leader's committed prefix.
        sim.crash(deposed);
        assert!(!sim
            .persisted(deposed)
            .entries
            .iter()
            .any(|e| e.record == rollback(10_001)));
        sim.restart(deposed);
        for _ in 0..20 {
            sim.step();
            assert_persisted_is_the_oracle(&sim);
        }
        let committed = sim.committed_records(leader);
        assert!(committed.ends_with(&[rollback(10_000), rollback(10_002)]));
        assert_eq!(sim.committed_records(deposed), committed);
    }

    #[test]
    fn persisted_writes_are_linear_in_the_log_length() {
        const N: u64 = 5_000;
        let mut sim = SimCluster::new(3, 9);
        for seq in 0..N {
            sim.propose_committed(rollback(seq), 100).unwrap();
        }
        let leader = sim.leader().unwrap() as usize;
        let log_len = sim.nodes[leader].core.as_ref().unwrap().log().len() as u64;
        assert!(log_len > N);
        // Each node writes each entry once; only a rebuild after a
        // truncation writes an entry again. A full copy per sync would
        // write on the order of N² / 2 per node.
        assert!(
            sim.tally.written <= 3 * log_len + sim.tally.rebuilt,
            "{} entries written for a log of {log_len} ({} rebuilt)",
            sim.tally.written,
            sim.tally.rebuilt
        );
    }
}
