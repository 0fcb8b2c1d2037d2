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
    /// Per-rank transfer-plan lookups: (served from a type's plan
    /// memo, compiled, compiled over an older count's plan). Plans live
    /// on the datatypes, not the cluster, so this is not run-local: a
    /// type value an earlier run already compiled is a hit.
    pub plan_cache: Vec<(u64, u64, u64)>,
    /// Per-rank scratch-buffer pool (reuses, fresh allocations) since
    /// this cluster was built or last recycled. A recycled cluster's
    /// pools are warm from its last run; a freshly built one's start
    /// empty.
    pub scratch_pool: Vec<(u64, u64)>,
    /// Transport: work requests processed, all nodes. Kept beside
    /// [`RunStats::fabric`] because the benchmark harness reads it.
    pub wqes: u64,
    /// Transport: payload bytes put on the wire, all nodes. Kept beside
    /// [`RunStats::fabric`] because the benchmark harness reads it.
    pub bytes_on_wire: u64,
    /// Transport: receiver-not-ready events, all nodes (0 with sound
    /// flow control). Kept beside [`RunStats::fabric`] because the
    /// benchmark harness reads it.
    pub rnr_events: u64,
    /// Per-rank timer marks recorded by `AppOp::MarkTime`.
    pub marks: Vec<Vec<(u32, Time)>>,
    /// Virtual time overlap between sender-side packing and its own
    /// NIC's (or shm copy engine's) wire activity, per rank (the §4.2
    /// pipelining, measurable). Metered as the run goes, so it needs no
    /// recorded spans.
    pub pack_wire_overlap_ns: Vec<Time>,
    /// Per-rank high-water completion-queue occupancy (0 everywhere
    /// when `cq_depth` is unbounded).
    pub cq_peak: Vec<usize>,
    /// Per-rank transport counters, each event counted on the rank its
    /// [`FabricStats`] field names. [`RunStats::fabric`] sums them.
    pub fabric_per_rank: Vec<FabricStats>,
    /// Per-rank typed protocol errors (request failures and rank-level
    /// errors). Empty vectors everywhere on a clean run.
    pub errors: Vec<Vec<MpiError>>,
    /// Total bytes moved by the pack/unpack copy kernels, all ranks.
    pub bytes_copied: u64,
    /// This cluster's transport payload shelf since the cluster was
    /// built or last recycled: `(fresh allocations, reuses)`, reuses
    /// being allocations avoided. Only the shared-memory transport
    /// stages payloads, so it reads `(0, 0)` on IB.
    pub payload_pool: (u64, u64),
    /// This cluster's address spaces: `(built fresh, reused, bytes
    /// zeroed)`. A cluster's spaces are all fresh or all reused: reset
    /// when the cluster was the one parked by
    /// [`Cluster::recycle`](crate::cluster::Cluster::recycle).
    /// The zeroed bytes are the dirty pages that reset re-zeroed plus
    /// the slot-frame bytes scrubbed since.
    pub space_pool: (u64, u64, u64),
    /// Total events scheduled on the simulation queue (seeded plus
    /// in-world).
    pub events_scheduled: u64,
    /// Shared-memory transport: bounce-segment slots filled, all ranks
    /// (0 on the IB transport and in single-copy mode). Kept beside
    /// [`RunStats::fabric`] because the benchmark harness reads it.
    pub shm_bounce_chunks: u64,
    /// Shared-memory transport: CMA-style single-copy operations, all
    /// ranks (0 on the IB transport and in double-copy mode). Kept
    /// beside [`RunStats::fabric`] because the benchmark harness reads
    /// it.
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

    /// Transport counters summed over ranks.
    pub fn fabric(&self) -> FabricStats {
        self.fabric_per_rank.iter().sum()
    }

    /// Total typed errors across ranks (0 on a clean run).
    pub fn total_errors(&self) -> usize {
        self.errors.iter().map(Vec::len).sum()
    }
}
