//! The gateway role: one process that fronts analysts and wires the
//! replicated budget ledger in front of its provenance table.
//!
//! A [`Gateway`] owns a [`crate::sim::SimCluster`] replica group and
//! attaches it to an existing single-node stack through a
//! [`crate::recorder::ReplicatedRecorder`] installed via
//! `DProvDb::set_recorder`, so every admission charge needs a majority
//! ack before it is acknowledged. The analyst-facing `dprov-api`
//! protocol does not change.
//!
//! The serving process itself keeps using `dprov-server`'s
//! `QueryService` and the `dprov-net` listener unchanged — a gateway is an
//! ordinary service plus this wiring.

use std::sync::{Arc, Mutex};

use dprov_core::system::DProvDb;
use dprov_obs::MetricsRegistry;

use crate::recorder::ReplicatedRecorder;
use crate::sim::SimCluster;

/// The cluster wiring for one gateway process (see the module docs).
#[derive(Debug)]
pub struct Gateway {
    cluster: Arc<Mutex<SimCluster>>,
    metrics: MetricsRegistry,
}

impl Gateway {
    /// A gateway over a fresh `replicas`-node budget-ledger group.
    #[must_use]
    pub fn new(replicas: u64, seed: u64, metrics: MetricsRegistry) -> Self {
        let cluster = SimCluster::with_metrics(replicas, seed, metrics.clone());
        Gateway {
            cluster: Arc::new(Mutex::new(cluster)),
            metrics,
        }
    }

    /// The replica group handle (nemesis harnesses inject faults here).
    #[must_use]
    pub fn cluster(&self) -> Arc<Mutex<SimCluster>> {
        Arc::clone(&self.cluster)
    }

    /// Attaches the replication gate to `system`. Call before the system
    /// is shared (it takes `&mut`), and after any recovery replay — same
    /// contract as `DProvDb::set_recorder`.
    pub fn attach(&self, system: &mut DProvDb) {
        let recorder = ReplicatedRecorder::new(self.cluster()).with_metrics(self.metrics.clone());
        system.set_recorder(Arc::new(recorder));
    }
}
