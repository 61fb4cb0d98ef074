//! The replication gate: quorum acknowledgement inside the commit path.
//!
//! [`ReplicatedRecorder`] implements [`dprov_core::recorder::Recorder`]
//! and is installed with `DProvDb::set_recorder`, which places it
//! **inside the provenance critical section**: `record_admission` runs
//! after admission control accepts a charge but *before* the charge
//! becomes visible in memory, and an `Err` aborts the submission with no
//! in-memory mutation. Replicating here yields the headline
//! distributed-correctness property with zero changes to the core:
//!
//! > **No charge is acknowledged to an analyst unless it is replicated
//! > to a majority of budget-ledger replicas.**
//!
//! `record_admission` proposes the admission — its charge and the data
//! access it made, if any — as one log entry through
//! [`SimCluster::propose_committed`], and returns only once a majority
//! acknowledged it; a refused ack aborts the charge, and the tight
//! accountant never counts its access. So the accountant's state survives
//! failover in the same quorum round as the charge. The failure direction
//! is always safe: an entry that was replicated but whose ack did not
//! arrive is *refused* to the analyst, so recovery can only find **at
//! least** the acknowledged spend and accesses, never less. Over-counting
//! a refused charge on recovery wastes budget, which is privacy-safe.
//!
//! Rollback tombstones are replicated best-effort like the WAL path: a
//! lost one leaves a charge voided in memory yet spent on the ledger —
//! again the over-counting direction.
//!
//! [`SimCluster::propose_committed`]: crate::sim::SimCluster::propose_committed

use std::sync::{Arc, Mutex};
use std::time::Instant;

use dprov_core::error::StorageError;
use dprov_core::recorder::{CommitRecord, DataAccess, Recorder};
use dprov_delta::EncodedBatch;
use dprov_obs::{HistId, MetricsRegistry};
use dprov_storage::wal::WalRecord;

use crate::sim::SimCluster;

/// How many simulation rounds a proposal may pump before the recorder
/// reports the cluster unavailable. Generous relative to election
/// timeouts so transient leader changes retry internally.
pub const DEFAULT_PUMP_ROUNDS: usize = 400;

/// A [`Recorder`] that requires majority replication before any commit
/// is acknowledged (see the module docs).
pub struct ReplicatedRecorder {
    cluster: Arc<Mutex<SimCluster>>,
    metrics: MetricsRegistry,
    pump_rounds: usize,
}

impl std::fmt::Debug for ReplicatedRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicatedRecorder")
            .field("pump_rounds", &self.pump_rounds)
            .finish_non_exhaustive()
    }
}

impl ReplicatedRecorder {
    /// Gates commits on `cluster`.
    #[must_use]
    pub fn new(cluster: Arc<Mutex<SimCluster>>) -> Self {
        ReplicatedRecorder {
            cluster,
            metrics: MetricsRegistry::disabled(),
            pump_rounds: DEFAULT_PUMP_ROUNDS,
        }
    }

    /// Reports quorum-ack latency into `metrics`.
    #[must_use]
    pub fn with_metrics(mut self, metrics: MetricsRegistry) -> Self {
        self.metrics = metrics;
        self
    }

    /// Overrides the proposal round budget (mostly for tests that want
    /// fast failure under partitions).
    #[must_use]
    pub fn with_pump_rounds(mut self, rounds: usize) -> Self {
        self.pump_rounds = rounds;
        self
    }

    /// The shared cluster handle (for nemesis harnesses).
    #[must_use]
    pub fn cluster(&self) -> Arc<Mutex<SimCluster>> {
        Arc::clone(&self.cluster)
    }

    fn replicate(&self, record: WalRecord) -> Result<(), StorageError> {
        let started = Instant::now();
        let result = self
            .cluster
            .lock()
            .expect("cluster lock poisoned")
            .propose_committed(record, self.pump_rounds);
        match result {
            Ok(_) => {
                self.metrics
                    .observe(HistId::QuorumAck, started.elapsed().as_nanos() as u64);
                Ok(())
            }
            Err(e) => Err(StorageError::Unavailable(format!(
                "replication quorum not reached: {e}"
            ))),
        }
    }
}

impl Recorder for ReplicatedRecorder {
    fn record_admission(
        &self,
        commit: &CommitRecord,
        access: Option<&DataAccess>,
    ) -> Result<(), StorageError> {
        // A refused quorum ack aborts the charge before it is visible.
        self.replicate(WalRecord::Commit(commit.clone(), access.copied()))
    }

    fn record_rollback(&self, seq: u64) -> Result<(), StorageError> {
        // Best-effort by contract: a lost tombstone over-counts spend on
        // recovery, which is privacy-safe.
        self.replicate(WalRecord::Rollback { seq })
    }

    fn record_update(&self, batch: &EncodedBatch) -> Result<(), StorageError> {
        self.replicate(WalRecord::Update(batch.clone()))
    }

    fn record_epoch_seal(&self, epoch: u64, through_seq: u64) -> Result<(), StorageError> {
        self.replicate(WalRecord::EpochSeal { epoch, through_seq })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commits_replicate_and_time_the_quorum_ack() {
        let cluster = Arc::new(Mutex::new(SimCluster::new(3, 1)));
        let metrics = MetricsRegistry::new();
        let rec = ReplicatedRecorder::new(Arc::clone(&cluster)).with_metrics(metrics.clone());
        rec.record_rollback(7).unwrap();
        let sim = cluster.lock().unwrap();
        let leader = sim.leader().unwrap();
        assert_eq!(
            sim.committed_records(leader),
            vec![WalRecord::Rollback { seq: 7 }]
        );
        drop(sim);
        let snap = metrics.snapshot();
        let hist = snap.histogram("cluster.quorum_ack_ns").unwrap();
        assert_eq!(hist.count, 1);
    }

    #[test]
    fn quorum_failure_surfaces_as_unavailable() {
        let cluster = Arc::new(Mutex::new(SimCluster::new(3, 2)));
        {
            let mut sim = cluster.lock().unwrap();
            let leader = sim.elect(200).unwrap();
            // Crash both followers: no majority exists anywhere.
            for i in (0..3).filter(|&i| i != leader) {
                sim.crash(i);
            }
        }
        let rec = ReplicatedRecorder::new(cluster).with_pump_rounds(30);
        let err = rec.record_rollback(1).unwrap_err();
        assert!(matches!(err, StorageError::Unavailable(_)));
    }
}
