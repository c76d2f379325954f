//! The replica worker: one thread per replica consuming the router's
//! replication channel, applying [`LogRecord`]s to its own
//! [`GraphStore`], advancing its high-watermark, and heartbeating.
//!
//! The channel **is** the log: records arrive in epoch order because
//! the router serializes primary-apply + fan-out under one write lock.
//! A replica therefore never reorders or merges — it applies each
//! record whose epoch extends its store by exactly one, skips records
//! at or below its epoch (the overlap a reseed leaves behind), and
//! degrades itself on any gap or induced failure. Degraded replicas
//! keep draining the channel (discarding records) so the queued reseed
//! — which the router enqueues *in order* with later records — lands
//! with everything after it still lined up.

use crate::cluster::health::{ReplicaHealth, StatusCell, Watermark};
use crate::cluster::replication::LogRecord;
use crate::engine::{GraphStore, Snapshot};
use csag_graph::AttributedGraph;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::time::Duration;

/// How long an idle replica waits for a record before heartbeating again.
const IDLE_BEAT: Duration = Duration::from_millis(20);

/// What the router sends down a replica's channel.
pub(crate) enum ReplicaMsg {
    /// Apply one replication log record.
    Apply(LogRecord),
    /// Replace the replica's store with a rebuild from the primary's
    /// epoch-`epoch` snapshot graph (full-state catch-up).
    Reseed {
        graph: Arc<AttributedGraph>,
        epoch: u64,
    },
    /// Drain and exit (router drop).
    Shutdown,
}

/// State shared between a replica's thread and the router.
pub(crate) struct ReplicaState {
    pub(crate) id: usize,
    /// The replica's store; swapped wholesale by a reseed, so readers
    /// go through [`ReplicaState::snapshot`] rather than caching it.
    store: Mutex<Arc<GraphStore>>,
    /// Highest epoch this replica has published (always `<=` the
    /// store's actual epoch — advanced only *after* an apply returns).
    pub(crate) watermark: Watermark,
    pub(crate) status: StatusCell,
    pub(crate) applied: AtomicU64,
    pub(crate) apply_errors: AtomicU64,
    pub(crate) reseeds: AtomicU64,
    pub(crate) routed_reads: AtomicU64,
    /// Reads currently leased against this replica (load-balancing
    /// signal; decremented by `ReadLease::drop`).
    pub(crate) outstanding: Arc<AtomicU64>,
    /// Test/bench seam: stop consuming the channel (records queue up —
    /// simulated replication lag) while still heartbeating.
    pub(crate) paused: AtomicBool,
    /// Test/bench seam: additionally stop heartbeating while paused,
    /// so `Router::health_check` sees a silent replica.
    pub(crate) silenced: AtomicBool,
    /// Test/bench seam: fail the record of this epoch (induced replica
    /// failure); 0 when none is armed. An epoch rather than "the next
    /// record", so a record still queued from an earlier write cannot
    /// take the failure meant for a later one.
    pub(crate) fail_epoch: AtomicU64,
}

impl ReplicaState {
    pub(crate) fn new(id: usize, store: Arc<GraphStore>) -> Self {
        let epoch = store.published_epoch();
        ReplicaState {
            id,
            store: Mutex::new(store),
            watermark: Watermark::new(epoch),
            status: StatusCell::new(),
            applied: AtomicU64::new(0),
            apply_errors: AtomicU64::new(0),
            reseeds: AtomicU64::new(0),
            routed_reads: AtomicU64::new(0),
            outstanding: Arc::new(AtomicU64::new(0)),
            paused: AtomicBool::new(false),
            silenced: AtomicBool::new(false),
            fail_epoch: AtomicU64::new(0),
        }
    }

    /// Pins the replica's current epoch for reading.
    pub(crate) fn snapshot(&self) -> Snapshot {
        self.store
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .snapshot()
    }

    fn swap_store(&self, fresh: Arc<GraphStore>) {
        *self.store.lock().unwrap_or_else(PoisonError::into_inner) = fresh;
    }
}

/// The replica thread body.
pub(crate) fn replica_loop(state: Arc<ReplicaState>, rx: mpsc::Receiver<ReplicaMsg>) {
    loop {
        if !state.silenced.load(Ordering::Relaxed) {
            state.status.beat();
        }
        if state.paused.load(Ordering::Relaxed) {
            std::thread::sleep(Duration::from_millis(1));
            continue;
        }
        match rx.recv_timeout(IDLE_BEAT) {
            Ok(ReplicaMsg::Apply(record)) => apply_record(&state, record),
            Ok(ReplicaMsg::Reseed { graph, epoch }) => {
                // Full-state catch-up: rebuild the store (fresh core
                // peel) at the primary's epoch numbering, then rejoin
                // the rotation. Records queued behind this message with
                // epoch <= `epoch` are skipped by the overlap check.
                let fresh = Arc::new(GraphStore::from_arc_at(graph, epoch));
                state.swap_store(fresh);
                state.reseeds.fetch_add(1, Ordering::Relaxed);
                state.watermark.advance_to(epoch);
                state.status.set_health(ReplicaHealth::Healthy);
            }
            Ok(ReplicaMsg::Shutdown) | Err(mpsc::RecvTimeoutError::Disconnected) => return,
            Err(mpsc::RecvTimeoutError::Timeout) => {}
        }
    }
}

fn apply_record(state: &ReplicaState, record: LogRecord) {
    if state
        .fail_epoch
        .compare_exchange(record.epoch, 0, Ordering::Relaxed, Ordering::Relaxed)
        .is_ok()
    {
        state.apply_errors.fetch_add(1, Ordering::Relaxed);
        state.status.set_health(ReplicaHealth::Degraded);
        return;
    }
    if state.status.health() != ReplicaHealth::Healthy {
        // Out of the rotation: discard until the queued reseed lands.
        // The watermark stays frozen, so no pinned read can route here.
        return;
    }
    let store = Arc::clone(&state.store.lock().unwrap_or_else(PoisonError::into_inner));
    let before = store.published_epoch();
    if record.epoch <= before {
        // Overlap with a reseed snapshot that already contained this
        // batch's effects: skip, numbering is already covered.
        return;
    }
    // The primary applied this exact batch to the identical epoch-
    // `before` state, so the outcome — including a deterministic
    // GraphError and its published prefix — matches by construction;
    // an error here is replication working, not failing.
    let _ = store.apply(&record.updates);
    let after = store.published_epoch();
    if after != record.epoch {
        // A gap in the log (should be impossible over an in-order
        // channel): this replica's state can no longer be trusted.
        state.apply_errors.fetch_add(1, Ordering::Relaxed);
        state.status.set_health(ReplicaHealth::Degraded);
        return;
    }
    state.applied.fetch_add(1, Ordering::Relaxed);
    state.watermark.advance_to(after);
}
