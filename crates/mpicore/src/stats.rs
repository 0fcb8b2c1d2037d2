//! Run statistics returned by [`Cluster::run`](crate::cluster::Cluster::run).

use crate::error::MpiError;
use crate::rank::RankCounters;
use ibdt_ibsim::FabricStats;
use ibdt_simcore::time::Time;

/// Aggregate statistics of one simulation run.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// Virtual time when the whole run reached quiescence.
    pub finish_ns: Time,
    /// Per-rank virtual time when that rank's program finished.
    pub rank_finish_ns: Vec<Time>,
    /// Per-rank protocol counters.
    pub counters: Vec<RankCounters>,
    /// Per-rank CPU busy time.
    pub cpu_busy_ns: Vec<Time>,
    /// Per-rank (register, deregister) operation counts.
    pub reg_ops: Vec<(u64, u64)>,
    /// Per-rank pin-down cache (hits, misses, evictions).
    pub pindown: Vec<(u64, u64, u64)>,
    /// Per-rank transfer-plan cache (hits, misses, evictions).
    pub plan_cache: Vec<(u64, u64, u64)>,
    /// Per-rank scratch-buffer pool (reuses, fresh allocations).
    pub scratch_pool: Vec<(u64, u64)>,
    /// Fabric: total work requests processed.
    pub wqes: u64,
    /// Fabric: payload bytes serialized on links.
    pub bytes_on_wire: u64,
    /// Fabric: receiver-not-ready events (should be 0 with sound flow
    /// control).
    pub rnr_events: u64,
    /// Per-rank timer marks recorded by `AppOp::MarkTime`.
    pub marks: Vec<Vec<(u32, Time)>>,
    /// Virtual time overlap between sender-side packing and its own
    /// NIC's wire activity, per rank (the §4.2 pipelining, measurable).
    pub pack_wire_overlap_ns: Vec<Time>,
    /// Fabric: wire transfers dropped by fault injection.
    pub drops_injected: u64,
    /// Fabric: wire transfers corrupted by fault injection.
    pub corruptions_injected: u64,
    /// Fabric: wire transfers delayed by fault injection.
    pub delays_injected: u64,
    /// Fabric: NIC engine stalls injected.
    pub stalls_injected: u64,
    /// Fabric: transport retransmissions (timeout or NAK recovery).
    pub retransmits: u64,
    /// Fabric: timed RNR retries (finite `rnr_retry` backoff path).
    pub rnr_backoff_retries: u64,
    /// Fabric: queue pairs that transitioned to the error state.
    pub qp_errors: u64,
    /// Fabric: work requests flushed with error on QP teardown.
    pub flushed_wqes: u64,
    /// Fabric: Automatic Path Migration failovers performed.
    pub migrations: u64,
    /// Fabric: completion-queue overflows (bounded `cq_depth` runs).
    pub cq_overflows: u64,
    /// Fabric: receive-queue low-watermark crossings (SRQ-limit-style
    /// events under a configured `recv_low_watermark`).
    pub recv_low_water: u64,
    /// Fabric: crash-stop node failures realized from the fault plan.
    pub node_crashes: u64,
    /// Per-rank high-water completion-queue occupancy (0 everywhere
    /// when `cq_depth` is unbounded).
    pub cq_peak: Vec<usize>,
    /// Per-rank fabric reliability counters (retransmits, RNR backoff
    /// retries, QP errors, flushed WQEs, migrations, injected fates),
    /// attributed to the requester/transmitter node.
    pub fabric_per_rank: Vec<FabricStats>,
    /// Per-rank typed protocol errors (request failures and rank-level
    /// errors). Empty vectors everywhere on a clean run.
    pub errors: Vec<Vec<MpiError>>,
    /// Total bytes moved by the pack/unpack copy kernels, all ranks.
    pub bytes_copied: u64,
    /// Payload slab pool activity over this cluster's lifetime:
    /// `(fresh allocations, reuses)` — reuses are allocations avoided.
    pub payload_pool: (u64, u64),
    /// Address-space backing-store pool activity over this cluster's
    /// lifetime: `(fresh allocations, reuses, bytes re-zeroed)`.
    pub space_pool: (u64, u64, u64),
    /// Total events scheduled on the simulation queue (seeded plus
    /// in-world).
    pub events_scheduled: u64,
    /// Plan-cache hits served because a *respelled* type canonicalized
    /// onto an already-compiled layout (all ranks; 0 with
    /// [`MpiConfig::canonicalize`](crate::config::MpiConfig::canonicalize)
    /// off).
    pub plan_cache_canonical_hits: u64,
    /// Lookups whose type was rewritten to a different canonical
    /// spelling before plan compilation (all ranks).
    pub canonicalized_types: u64,
    /// Bounce-buffer chunks pushed through the staged device pipeline
    /// (all ranks; 0 when no buffer is device-resident).
    pub staging_chunks: u64,
    /// Shared-memory transport: bounce-segment slots filled (0 on the
    /// IB transport and in single-copy mode).
    pub shm_bounce_chunks: u64,
    /// Shared-memory transport: CMA-style single-copy operations
    /// performed (0 on the IB transport and in double-copy mode).
    pub shm_cma_ops: u64,
}

impl RunStats {
    /// Interval between two marks on one rank, panicking when absent —
    /// benchmark harness convenience.
    pub fn mark_interval(&self, rank: usize, from_slot: u32, to_slot: u32) -> Time {
        let find = |slot| {
            self.marks[rank]
                .iter()
                .find(|(s, _)| *s == slot)
                .unwrap_or_else(|| panic!("mark {slot} missing on rank {rank}"))
                .1
        };
        let (a, b) = (find(from_slot), find(to_slot));
        assert!(b >= a, "marks out of order");
        b - a
    }

    /// Total typed errors across ranks (0 on a clean run).
    pub fn total_errors(&self) -> usize {
        self.errors.iter().map(Vec::len).sum()
    }
}
