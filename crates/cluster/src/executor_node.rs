//! Executor nodes and the gateway-side distributed shard scan.
//!
//! An [`ExecutorNode`] is one worker in the scan fan-out: it owns its
//! own [`ColumnarExecutor`] ingested from the same source database the
//! gateway serves, registers its capabilities with the
//! [`crate::orchestrator::Orchestrator`], and answers contiguous
//! shard-range scans at a pinned epoch.
//!
//! [`DistributedScan`] is the gateway side. It implements the columnar
//! executor's [`RemoteScan`] hook, so installing it with
//! `ColumnarExecutor::set_remote_scan` transparently routes every
//! eligible micro-batch scan through the cluster: the orchestrator's
//! deterministic assignment splits the table's shards into contiguous
//! per-node ranges, each node folds its range **sequentially in shard
//! order**, and the gateway merges the per-range partials **in range
//! order**. Under the reassociation-exactness envelope (checked on both
//! sides) this reproduces the single-node scan **bit-identically** —
//! the same contract PR 7 established for the local multi-thread merge.
//!
//! Failure semantics are fail-back, not fail-stop: any missing
//! endpoint, refused epoch, or wrong-shaped reply makes
//! [`DistributedScan::scan_batch`] return `None`, and the calling
//! executor runs the scan locally and counts the fallback
//! (`ExecStats::remote_fallbacks`). Distribution is a throughput
//! optimisation; it is never allowed to change an answer.

use std::fmt;
use std::sync::{Arc, Mutex};

use dprov_engine::database::Database;
use dprov_engine::query::Query;
use dprov_exec::{ColumnarExecutor, ExecConfig, PartialAggregate, RemoteScan};

use crate::orchestrator::{NodeCaps, Orchestrator};
use crate::raft::NodeId;

/// One scan worker (see the module docs).
pub struct ExecutorNode {
    id: NodeId,
    caps: NodeCaps,
    exec: ColumnarExecutor,
}

impl fmt::Debug for ExecutorNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ExecutorNode")
            .field("id", &self.id)
            .field("caps", &self.caps)
            .finish_non_exhaustive()
    }
}

impl ExecutorNode {
    /// Builds a node by ingesting `db` into a private columnar store
    /// with `scan_threads` local fan-out.
    #[must_use]
    pub fn new(id: NodeId, name: &str, db: &Database, scan_threads: u32) -> Self {
        let exec = ColumnarExecutor::ingest(db, &ExecConfig::default());
        exec.set_scan_threads(scan_threads as usize);
        ExecutorNode {
            id,
            caps: NodeCaps {
                name: name.to_string(),
                scan_threads,
                deadline_ticks: 3,
            },
            exec,
        }
    }

    /// This node's id.
    #[must_use]
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The capabilities this node registers with.
    #[must_use]
    pub fn caps(&self) -> NodeCaps {
        self.caps.clone()
    }

    /// The node's own columnar executor (epoch maintenance, stats).
    #[must_use]
    pub fn exec(&self) -> &ColumnarExecutor {
        &self.exec
    }
}

/// One reachable executor node. The gateway talks to every node through
/// this trait; [`ExecutorNode`] is the in-process implementation, and a
/// test can wrap one to inject failures.
pub trait ShardEndpoint: Send + Sync + fmt::Debug {
    /// The node id this endpoint reaches.
    fn node_id(&self) -> NodeId;

    /// Folds `queries` over shards `[lo, hi)` of `table` at `epoch`,
    /// returning one `(count, sum)` partial per query — or `None` when
    /// the node is unreachable or refuses the scan.
    fn scan(
        &self,
        table: &str,
        epoch: u64,
        lo: usize,
        hi: usize,
        queries: &[Query],
    ) -> Option<Vec<(f64, f64)>>;
}

impl ShardEndpoint for ExecutorNode {
    fn node_id(&self) -> NodeId {
        self.id
    }

    fn scan(
        &self,
        table: &str,
        epoch: u64,
        lo: usize,
        hi: usize,
        queries: &[Query],
    ) -> Option<Vec<(f64, f64)>> {
        self.exec
            .scan_shard_range(table, epoch, lo, hi, queries)
            .ok()
            .map(|parts| parts.iter().map(PartialAggregate::parts).collect())
    }
}

/// The gateway-side fan-out (see the module docs). Install with
/// `ColumnarExecutor::set_remote_scan(Some(Arc::new(scan)))`.
#[derive(Debug)]
pub struct DistributedScan {
    endpoints: Vec<Arc<dyn ShardEndpoint>>,
    orchestrator: Arc<Mutex<Orchestrator>>,
}

impl DistributedScan {
    /// A fan-out over `endpoints`, routed by `orchestrator`'s live-node
    /// assignment.
    #[must_use]
    pub fn new(
        endpoints: Vec<Arc<dyn ShardEndpoint>>,
        orchestrator: Arc<Mutex<Orchestrator>>,
    ) -> Self {
        DistributedScan {
            endpoints,
            orchestrator,
        }
    }

    fn endpoint(&self, node: NodeId) -> Option<&Arc<dyn ShardEndpoint>> {
        self.endpoints.iter().find(|e| e.node_id() == node)
    }
}

impl RemoteScan for DistributedScan {
    fn scan_batch(
        &self,
        table: &str,
        epoch: u64,
        shard_count: usize,
        queries: &[Query],
    ) -> Option<Vec<PartialAggregate>> {
        let assignment = self
            .orchestrator
            .lock()
            .expect("orchestrator lock poisoned")
            .assignment(shard_count);
        if assignment.is_empty() {
            return None;
        }
        let mut totals = vec![PartialAggregate::default(); queries.len()];
        // Ranges are contiguous and ascending; merging their partials in
        // this order is the shard-order merge the executor's local
        // multi-thread path performs.
        for (node, range) in assignment {
            let endpoint = self.endpoint(node)?;
            let parts = endpoint.scan(table, epoch, range.start, range.end, queries)?;
            if parts.len() != queries.len() {
                return None;
            }
            for (total, (count, sum)) in totals.iter_mut().zip(parts) {
                total.merge(PartialAggregate::from_parts(count, sum));
            }
        }
        Some(totals)
    }
}
