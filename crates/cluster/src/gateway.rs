//! The gateway role: one process that fronts analysts and wires the
//! cluster pieces together.
//!
//! A [`Gateway`] bundles the three cluster-side dependencies a serving
//! process needs and attaches them to an existing single-node stack
//! without changing the analyst-facing `dprov-api` protocol:
//!
//! 1. a **replicated budget ledger** — a [`crate::sim::SimCluster`]
//!    replica group plus a [`crate::recorder::ReplicatedRecorder`]
//!    installed via `DProvDb::set_recorder`, so every admission charge
//!    needs a majority ack before it is acknowledged;
//! 2. an **orchestrator** tracking executor nodes (registration,
//!    heartbeats, deadline eviction);
//! 3. a **distributed scan** ([`crate::executor_node::DistributedScan`])
//!    installed on the system's columnar executor, fanning eligible
//!    micro-batch scans over shard-owning executor nodes and merging
//!    per-range partials in shard order (bit-identical to single-node,
//!    with local fallback on any node failure, counted in
//!    `ExecStats::remote_fallbacks`).
//!
//! The serving process itself keeps using `dprov-server`'s
//! `QueryService` and the `dprov-net` listener unchanged — a gateway is an
//! ordinary service plus this wiring.

use std::sync::{Arc, Mutex};

use dprov_core::system::DProvDb;
use dprov_obs::MetricsRegistry;

use crate::executor_node::{DistributedScan, ExecutorNode, ShardEndpoint};
use crate::orchestrator::Orchestrator;
use crate::recorder::ReplicatedRecorder;
use crate::sim::SimCluster;

/// The cluster wiring for one gateway process (see the module docs).
#[derive(Debug)]
pub struct Gateway {
    cluster: Arc<Mutex<SimCluster>>,
    orchestrator: Arc<Mutex<Orchestrator>>,
    metrics: MetricsRegistry,
    endpoints: Vec<Arc<dyn ShardEndpoint>>,
}

impl Gateway {
    /// A gateway over a fresh `replicas`-node budget-ledger group.
    #[must_use]
    pub fn new(replicas: u64, seed: u64, metrics: MetricsRegistry) -> Self {
        let cluster = SimCluster::with_metrics(replicas, seed, metrics.clone());
        Gateway {
            cluster: Arc::new(Mutex::new(cluster)),
            orchestrator: Arc::new(Mutex::new(Orchestrator::with_metrics(metrics.clone()))),
            metrics,
            endpoints: Vec::new(),
        }
    }

    /// The replica group handle (nemesis harnesses inject faults here).
    #[must_use]
    pub fn cluster(&self) -> Arc<Mutex<SimCluster>> {
        Arc::clone(&self.cluster)
    }

    /// The executor-node registry handle.
    #[must_use]
    pub fn orchestrator(&self) -> Arc<Mutex<Orchestrator>> {
        Arc::clone(&self.orchestrator)
    }

    /// Registers an executor endpoint: its capabilities go to the
    /// orchestrator and the endpoint joins the scan fan-out set.
    pub fn add_executor(&mut self, node: &ExecutorNode, endpoint: Arc<dyn ShardEndpoint>) {
        self.orchestrator
            .lock()
            .expect("orchestrator lock poisoned")
            .register(node.id(), node.caps());
        self.endpoints.retain(|e| e.node_id() != node.id());
        self.endpoints.push(endpoint);
    }

    /// Records a heartbeat from executor `node`.
    pub fn heartbeat(&self, node: crate::raft::NodeId) -> bool {
        self.orchestrator
            .lock()
            .expect("orchestrator lock poisoned")
            .heartbeat(node)
    }

    /// Advances the orchestrator clock one tick, evicting silent nodes.
    pub fn tick(&self) -> Vec<crate::raft::NodeId> {
        self.orchestrator
            .lock()
            .expect("orchestrator lock poisoned")
            .tick()
    }

    /// Attaches the replication gate and the distributed scan to
    /// `system`. Call before the system is shared (it takes `&mut`),
    /// and after any recovery replay — same contract as
    /// `DProvDb::set_recorder`.
    pub fn attach(&self, system: &mut DProvDb) {
        let recorder = ReplicatedRecorder::new(self.cluster()).with_metrics(self.metrics.clone());
        system.set_recorder(Arc::new(recorder));
        if !self.endpoints.is_empty() {
            let scan = DistributedScan::new(self.endpoints.clone(), self.orchestrator());
            system.exec().set_remote_scan(Some(Arc::new(scan)));
        }
    }
}
