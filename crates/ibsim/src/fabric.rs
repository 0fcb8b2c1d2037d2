//! The simulated fabric: HCAs, queue pairs, and the switch.
//!
//! Topology: `n` nodes, fully connected through one switch, one
//! reliable-connection queue pair per ordered node pair (as MVAPICH sets
//! up). Each node has one NIC transmit engine modelled as a FIFO
//! [`SerialResource`]; serialization on this engine plus a fixed
//! propagation delay gives RC's per-QP in-order delivery for free.
//!
//! Functional behaviour:
//!
//! * a transfer carries its source ranges, not its bytes: delivery
//!   copies the sender's memory into the destination once, at arrival
//!   (the shared core of `crate::deliver`; a sender's completion is
//!   scheduled only after delivery, so verbs already forbids touching a
//!   posted buffer before then),
//! * each transfer lives in one slab from launch until delivery, flush
//!   or discard; its events, the RNR park queue and the reorder buffer
//!   hold its [`Handle`],
//! * rkey checks happen at the responder, like real IB; failures produce
//!   an error completion at the requester and move no data,
//! * a send (or write-with-immediate) arriving at a QP with an empty
//!   receive queue parks in an RNR queue and is delivered when a
//!   receive is posted; the RNR counter lets tests assert that the MPI
//!   layer's flow control avoids this path.
//!
//! Reliability behaviour (active when a [`FaultPlan`] is installed or
//! the retry budgets are finite):
//!
//! * each wire crossing consults the fault plan; a **dropped** transfer
//!   is retransmitted after [`NetConfig::transport_timeout_ns`], a
//!   **corrupted** one after the ICRC NAK round trip — both bounded by
//!   [`NetConfig::retry_cnt`] attempts, after which the requester gets a
//!   [`CqeStatus::RetryExceeded`] completion and the QP transitions to
//!   the error state (outstanding WQEs flush with
//!   [`CqeStatus::FlushErr`], later posts fail with
//!   [`PostError::QpError`]),
//! * RNR parking becomes a **timed NAK/backoff loop** when
//!   [`NetConfig::rnr_retry`] is finite: delivery retries back off
//!   exponentially and budget exhaustion errors the sender's QP with
//!   [`CqeStatus::RnrRetryExceeded`],
//! * because retransmission can reorder transfers, the receive side
//!   enforces per-QP sequence order (a reorder buffer standing in for
//!   RC's go-back-N) whenever fault injection is active, so RC's
//!   in-order guarantee survives injected loss.
//!
//! Connection lifecycle (see DESIGN.md §10):
//!
//! * every directional QP walks the verbs state machine
//!   RESET→INIT→RTR→RTS (plus SQD, SQE and ERR); fabrics start with all
//!   QPs implicitly in RTS, matching MVAPICH's connect-at-init,
//! * transport exhaustion or a dead port moves a QP to ERR, flushing
//!   outstanding WQEs with [`CqeStatus::FlushErr`]; the embedding MPI
//!   layer tears the QP down ([`Fabric::reestablish_qp`]) and re-drives,
//! * each node has two ports (0 = primary, 1 = alternate); a QP's path
//!   uses the same port number at both ends. When the port under a QP's
//!   current path dies and APM is enabled, the QP fails over to the
//!   alternate path after [`NetConfig::apm_migration_ns`]; otherwise it
//!   errors,
//! * each (re)incarnation of a QP carries an epoch; traffic from a
//!   previous incarnation that is still in flight when the QP is reset
//!   is discarded on arrival, so re-driven traffic can never be
//!   duplicated by a stale packet.

use crate::deliver::{check_post, check_sges, send_cqe, Delivered, Op, Rx, Xfer};
use crate::fault::{Fate, FaultPlan, FaultState};
use crate::model::NetConfig;
use crate::wr::{Cqe, CqeStatus, Opcode, PostError, RecvWr, SendWr};
use ibdt_memreg::{AddressSpace, RegTable, TierMap};
use ibdt_simcore::paged::PagedTable;
use ibdt_simcore::resource::SerialResource;
use ibdt_simcore::slab::{Handle, Slab};
use ibdt_simcore::time::Time;
use std::collections::{BTreeMap, HashSet, VecDeque};
use std::fmt;
use std::iter::Sum;

/// One rank's memory: address space + registration table + tier map.
#[derive(Debug)]
pub struct NodeMem {
    /// Flat memory.
    pub space: AddressSpace,
    /// Live registrations (lkey/rkey namespace).
    pub regs: RegTable,
    /// Which ranges of the space are device-resident (all host by
    /// default; see [`ibdt_memreg::TierMap`]).
    pub tiers: TierMap,
}

impl NodeMem {
    /// Creates a node memory of `capacity` bytes, all host-tier.
    pub fn new(capacity: u64) -> Self {
        Self {
            space: AddressSpace::new(capacity),
            regs: RegTable::new(),
            tiers: TierMap::new(),
        }
    }
}

/// Events internal to the fabric. The embedding world forwards these to
/// [`Fabric::handle`] when they fire.
#[derive(Debug)]
pub enum NicEvent {
    /// A transfer arrives at `dst` (on either transport).
    Arrive {
        /// Destination node.
        dst: u32,
        /// The transfer's handle in the transport's in-flight slab.
        id: Handle,
    },
    /// A locally generated completion becomes visible (post-ACK).
    LocalCqe {
        /// Node whose CQ receives the entry.
        node: u32,
        /// The entry.
        cqe: Cqe,
    },
    /// Re-examine the RNR park queue of `(node, peer)` after a receive
    /// was posted.
    RnrRetry {
        /// Node owning the receive queue.
        node: u32,
        /// Peer whose parked transfers should be retried.
        peer: u32,
    },
    /// The requester's transport timer fired for an unacknowledged
    /// transfer (dropped or NAKed): retransmit or give up.
    RetryTimeout {
        /// Slab handle of the transfer, the same on every transmission.
        /// A stale handle (the transfer was flushed meanwhile) resolves
        /// to nothing.
        id: Handle,
    },
    /// A timed RNR backoff retry for a parked transfer.
    RnrTimedRetry {
        /// Node owning the receive queue.
        node: u32,
        /// Peer whose parked transfer is retried.
        peer: u32,
        /// Slab handle of the parked transfer.
        id: Handle,
    },
    /// A port fails (scheduled from [`FaultPlan::link_faults`]). QPs
    /// whose current path crosses it migrate (APM) or error.
    PortDown {
        /// Node whose port fails.
        node: u32,
        /// Failing port (0 = primary, 1 = alternate).
        port: u8,
    },
    /// A failed port comes back. Migrated QPs stay on their alternate
    /// path (as real APM does); errored QPs wait for re-establishment.
    PortUp {
        /// Node whose port recovers.
        node: u32,
        /// Recovering port.
        port: u8,
    },
    /// A node crashes ([`FaultPlan::node_faults`]): both of its ports
    /// go down, every queue pair touching it — in either direction —
    /// transitions to the error state, and in-flight traffic is flushed
    /// with error completions. No APM migration is possible: the
    /// alternate port died with the node.
    NodeDown {
        /// Node that crashes.
        node: u32,
    },
    /// A crashed node restarts: both ports recover, but every errored
    /// queue pair stays dead until the embedder re-establishes it
    /// ([`Fabric::reestablish_qp`]) — exactly the contract after a
    /// port-loss QP error.
    NodeUp {
        /// Node that restarts.
        node: u32,
    },
}

/// Queue-pair lifecycle states (IB spec §10.3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QpState {
    /// Freshly created or torn down; accepts nothing.
    Reset,
    /// Initialized: receive descriptors may be posted.
    Init,
    /// Ready to receive.
    Rtr,
    /// Ready to send — the only state accepting send work requests.
    Rts,
    /// Send-queue drained (administrative quiesce).
    Sqd,
    /// Send-queue error (a non-flush completion error halted the SQ).
    Sqe,
    /// Error: outstanding WQEs flushed, posts rejected.
    Err,
}

/// A rejected queue-pair state transition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QpTransitionError {
    /// State the QP was in.
    pub from: QpState,
    /// Requested target state.
    pub to: QpState,
}

impl fmt::Display for QpTransitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "illegal QP transition {:?} -> {:?}", self.from, self.to)
    }
}

impl std::error::Error for QpTransitionError {}

/// An in-flight transfer: one work request's source ranges and what it
/// does at the destination (`crate::deliver`), its RC sequencing and
/// retransmission cost, and where it is now. It lives in the fabric's
/// slab from launch until delivery, flush or discard.
#[derive(Debug)]
pub(crate) struct Transfer {
    /// Per-QP-direction sequence number (RC ordering under faults).
    seq: u64,
    /// Transmission attempts so far (0 = first).
    attempt: u32,
    /// Connection incarnation of the QP that launched this transfer;
    /// a stale epoch at arrival means the QP was reset mid-flight and
    /// the transfer is discarded.
    epoch: u32,
    dst: u32,
    /// Serialization time of each transmission.
    tx_dur: Time,
    /// Latency added after serialization (an RDMA read request's).
    extra_delay: Time,
    stage: Stage,
    x: Xfer,
}

impl Transfer {
    /// Names the transfer to the debug source audit: unique among the
    /// transfers of one direction, across resets of its queue pair.
    fn tag(&self) -> u64 {
        (u64::from(self.epoch) << 40) | self.seq
    }

    /// `(requester, responder)` of the QP this WQE belongs to. A read
    /// response travels responder→requester, but the WQE lives at the
    /// requester.
    fn endpoints(&self) -> (u32, u32) {
        match self.x.op {
            Op::ReadResponse { .. } => (self.dst, self.x.src),
            _ => (self.x.src, self.dst),
        }
    }
}

/// Where an in-flight transfer is. Parked and reordered transfers are
/// also found through the queues holding their handles; those awaiting
/// retransmission only through this stage.
#[derive(Debug, Clone, Copy)]
enum Stage {
    /// Launched: its [`NicEvent::Arrive`] is scheduled, or it arrived
    /// ahead of sequence and waits in the reorder buffer.
    Wire,
    /// Dropped or NAKed: its [`NicEvent::RetryTimeout`] is scheduled.
    /// `order` is a monotonic admission stamp. The slab iterates in
    /// slot order, which drifts from admission order as slots recycle,
    /// so flushes sort on it to go oldest-first.
    Retry { order: u64 },
    /// In the RNR park queue. `ticket` keys the backoff jitter;
    /// `attempt` counts timed RNR retries.
    Parked { ticket: u64, attempt: u32 },
}

/// A send-queue slot: the WQE occupies the queue until the NIC finishes
/// processing it at `done`; `wr_id` lets an error transition flush it.
#[derive(Debug, Clone, Copy)]
struct SqEntry {
    done: Time,
    wr_id: u64,
}

#[derive(Debug)]
struct Node {
    tx: SerialResource,
    /// Posted-but-unprocessed send WQEs per peer QP (send-queue
    /// occupancy accounting + flush-with-error bookkeeping), by peer.
    sq_busy: PagedTable<VecDeque<SqEntry>>,
}

/// Transport counters of one node. Each event is counted once, on the
/// node its field names;
/// [`Transport::stats`](crate::transport::Transport::stats) sums the
/// nodes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FabricStats {
    /// Work requests this node's transmit engine processed: those it
    /// posted and, on the IB fabric, each RDMA read response it sent as
    /// responder.
    pub wqes: u64,
    /// Payload bytes this node put on the wire, retransmissions
    /// included: a send's or write's sender, an RDMA read's responder.
    pub bytes_on_wire: u64,
    /// Times a send/write-imm found no receive descriptor posted at this
    /// node.
    pub rnr_events: u64,
    /// Transfers this node transmitted that fault injection dropped.
    pub drops_injected: u64,
    /// Transfers this node transmitted that fault injection corrupted
    /// (ICRC NAK path).
    pub corruptions_injected: u64,
    /// Transfers this node transmitted that fault injection delayed.
    pub delays_injected: u64,
    /// Stalls injected into this node's transmit engine.
    pub stalls_injected: u64,
    /// Retransmissions this node performed.
    pub retransmits: u64,
    /// Timed RNR backoff retries of transfers this node sent.
    pub rnr_backoff_retries: u64,
    /// Queue pairs with this node as requester that moved to the error
    /// state.
    pub qp_errors: u64,
    /// Work requests of this node, as requester, flushed with error by
    /// a QP transition or discarded on arrival.
    pub flushed_wqes: u64,
    /// Automatic Path Migration failovers of queue pairs this node
    /// sends on.
    pub migrations: u64,
    /// Completion-queue overflows: deliveries this node's CQ rejected
    /// because it held [`NetConfig::cq_depth`] unconsumed entries (each
    /// one errors the offending queue pair).
    pub cq_overflows: u64,
    /// Times consuming one of this node's receive descriptors crossed
    /// below [`NetConfig::recv_low_watermark`] (SRQ-limit-style event).
    pub recv_low_water: u64,
    /// Crash-stop failures of this node ([`NicEvent::NodeDown`]).
    pub node_crashes: u64,
    /// Bounce-segment slots this node copied in (shared-memory double
    /// copy; always zero on the IB fabric).
    pub shm_bounce_chunks: u64,
    /// CMA-style single-copy passes this node performed (shared-memory
    /// single copy; always zero on the IB fabric).
    pub shm_cma_ops: u64,
}

impl<'a> Sum<&'a FabricStats> for FabricStats {
    fn sum<I: Iterator<Item = &'a FabricStats>>(iter: I) -> Self {
        // A literal without `..`, so that a new field cannot be left out.
        iter.fold(FabricStats::default(), |t, s| FabricStats {
            wqes: t.wqes + s.wqes,
            bytes_on_wire: t.bytes_on_wire + s.bytes_on_wire,
            rnr_events: t.rnr_events + s.rnr_events,
            drops_injected: t.drops_injected + s.drops_injected,
            corruptions_injected: t.corruptions_injected + s.corruptions_injected,
            delays_injected: t.delays_injected + s.delays_injected,
            stalls_injected: t.stalls_injected + s.stalls_injected,
            retransmits: t.retransmits + s.retransmits,
            rnr_backoff_retries: t.rnr_backoff_retries + s.rnr_backoff_retries,
            qp_errors: t.qp_errors + s.qp_errors,
            flushed_wqes: t.flushed_wqes + s.flushed_wqes,
            migrations: t.migrations + s.migrations,
            cq_overflows: t.cq_overflows + s.cq_overflows,
            recv_low_water: t.recv_low_water + s.recv_low_water,
            node_crashes: t.node_crashes + s.node_crashes,
            shm_bounce_chunks: t.shm_bounce_chunks + s.shm_bounce_chunks,
            shm_cma_ops: t.shm_cma_ops + s.shm_cma_ops,
        })
    }
}

/// Per-direction QP state, indexed `src * n + dst` through a paged
/// sparse-dense table: memory scales with the directions actually
/// exercised, not n², while every lookup the per-message hot path
/// used to hash stays a couple of indexed loads. Defaults encode the
/// "absent entry" semantics: RTS state, epoch 0, path 0, sequence
/// counters at 0 — an untouched direction behaves exactly like a
/// freshly constructed one, so reads never materialize pages.
#[derive(Debug)]
struct DirState {
    /// Lifecycle state; fabrics start fully connected (RTS), matching
    /// MVAPICH's connect-at-init.
    state: QpState,
    /// True when the direction errored (retry budget exhausted / dead
    /// path); folded out of the old `qp_err` set.
    err: bool,
    /// Connection incarnation (bumped on reset).
    epoch: u32,
    /// Port carrying the current path.
    path: u8,
    /// Next sequence number to transmit.
    tx_seq: u64,
    /// Next expected sequence number (fault mode).
    rx_expected: u64,
    /// Reorder buffer (fault mode): transfer handles by sequence
    /// number; empty maps hold no heap storage.
    rx_ooo: BTreeMap<u64, Handle>,
    /// APM failover in progress: sends stall until this instant.
    migrating_until: Option<Time>,
}

impl Default for DirState {
    fn default() -> Self {
        DirState {
            state: QpState::Rts,
            err: false,
            epoch: 0,
            path: 0,
            tx_seq: 0,
            rx_expected: 0,
            rx_ooo: BTreeMap::new(),
            migrating_until: None,
        }
    }
}

/// The simulated InfiniBand fabric.
#[derive(Debug)]
pub struct Fabric {
    cfg: NetConfig,
    nodes: Vec<Node>,
    /// Receive descriptors and RNR-parked transfers.
    rx: Rx,
    /// Fault-decision stream; `None` = lossless fabric, zero overhead.
    faults: Option<FaultState>,
    /// Ticket counter for RNR parks (the backoff-jitter key).
    next_id: u64,
    /// Admission counter for retransmission (the `order` of
    /// [`Stage::Retry`]).
    next_order: u64,
    /// Every in-flight transfer, from launch until delivery, flush or
    /// discard. Events, the park queues and the reorder buffers carry
    /// its handle; a stale handle (a flushed transfer) resolves to
    /// `None`.
    inflight: Slab<Transfer>,
    /// Paged per-direction QP state, indexed `src * n + dst`.
    dirs: PagedTable<DirState>,
    /// Number of directions currently mid-migration (fast-path gate
    /// standing in for the old map's `is_empty`).
    migrating: usize,
    /// Port liveness per node (`[primary, alternate]`).
    ports_down: Vec<[bool; 2]>,
    /// Number of `(node, port)` pairs currently down (fast-path gate).
    ports_down_count: usize,
    /// Crash-stop liveness per node ([`NicEvent::NodeDown`]). A down
    /// node holds both ports down; the flag additionally answers the
    /// membership query [`Fabric::node_down`] the MPI layer uses to
    /// distinguish a dead peer from a flaky link. Materialized lazily
    /// on the first crash so fault-free clusters never allocate it.
    nodes_down: Vec<bool>,
    /// Transport counters by node, each event counted on the node its
    /// [`FabricStats`] field names.
    node_stats: Vec<FabricStats>,
    /// Completion-queue occupancy per node: entries produced but not
    /// yet acknowledged as consumed ([`Fabric::cq_consume`]). Only
    /// maintained when [`NetConfig::cq_depth`] is bounded, so the
    /// classic unbounded configuration pays nothing.
    cq_used: Vec<usize>,
    /// High-water mark of `cq_used` per node.
    cq_peak: Vec<usize>,
}

impl Fabric {
    /// Creates a fabric of `n` fully connected nodes.
    pub fn new(n: usize, cfg: NetConfig) -> Self {
        let nodes = (0..n)
            .map(|_| Node {
                tx: SerialResource::new("nic-tx").with_trace(),
                sq_busy: PagedTable::new(n),
            })
            .collect();
        Self {
            rx: Rx::new(n, cfg.recv_low_watermark),
            cfg,
            nodes,
            faults: None,
            next_id: 0,
            next_order: 0,
            inflight: Slab::new(),
            dirs: PagedTable::new(n * n),
            migrating: 0,
            ports_down: vec![[false; 2]; n],
            ports_down_count: 0,
            nodes_down: Vec::new(),
            node_stats: vec![FabricStats::default(); n],
            cq_used: vec![0; n],
            cq_peak: vec![0; n],
        }
    }

    /// True when the completion queues are bounded.
    #[inline]
    fn cq_bounded(&self) -> bool {
        self.cfg.cq_depth != usize::MAX
    }

    /// Records one completion entering `node`'s CQ.
    #[inline]
    fn cq_admit(&mut self, node: u32) {
        if self.cq_bounded() {
            let used = &mut self.cq_used[node as usize];
            *used += 1;
            let peak = &mut self.cq_peak[node as usize];
            if *used > *peak {
                *peak = *used;
            }
        }
    }

    /// True when `node`'s CQ cannot accept another entry.
    #[inline]
    fn cq_full(&self, node: u32) -> bool {
        self.cq_bounded() && self.cq_used[node as usize] >= self.cfg.cq_depth
    }

    /// Acknowledges that `node`'s consumer polled `n` completions off
    /// its CQ, freeing their slots. The embedder calls this when the
    /// host CPU actually catches up with the queue (not at delivery
    /// time), so occupancy genuinely builds under incast.
    pub fn cq_consume(&mut self, node: u32, n: usize) {
        if self.cq_bounded() {
            let used = &mut self.cq_used[node as usize];
            *used = used.saturating_sub(n);
        }
    }

    /// Current completion-queue occupancy of `node` (0 when unbounded).
    pub fn cq_used(&self, node: u32) -> usize {
        self.cq_used[node as usize]
    }

    /// High-water completion-queue occupancy of `node`.
    pub fn cq_peak(&self, node: u32) -> usize {
        self.cq_peak[node as usize]
    }

    /// Receive descriptors currently posted on the QP `node <- peer`
    /// (the upper layer's low-watermark probe).
    pub fn recvq_len(&self, node: u32, peer: u32) -> usize {
        self.rx.recvq_len(node, peer)
    }

    /// A delivery needed a CQ slot at `dst` and found none: the verbs
    /// `IBV_EVENT_CQ_ERR` path. The offending QP errors; the requester
    /// learns through a typed [`CqeStatus::CqOverflow`] completion
    /// (error completions bypass the bound — they are the recovery
    /// signal). The receive descriptor is left posted and the payload
    /// is discarded, so the re-driven transfer finds the ring intact.
    fn cq_overflow<F: FnMut(Time, NicEvent)>(
        &mut self,
        now: Time,
        dst: u32,
        src: u32,
        wr_id: u64,
        sink: &mut F,
    ) {
        self.node_stats[dst as usize].cq_overflows += 1;
        self.sched_local(
            sink,
            src,
            send_cqe(dst, wr_id, 0, CqeStatus::CqOverflow),
            now,
        );
        self.fail_qp(now, src, dst, sink);
    }

    #[inline]
    fn dir(&self, src: u32, dst: u32) -> &DirState {
        &self.dirs[src as usize * self.nodes.len() + dst as usize]
    }

    #[inline]
    fn dir_mut(&mut self, src: u32, dst: u32) -> &mut DirState {
        &mut self.dirs[src as usize * self.nodes.len() + dst as usize]
    }

    /// Installs a fault plan. An inert plan (all rates zero) removes
    /// fault processing entirely, keeping the fabric's timing identical
    /// to one that never had a plan.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.faults = if plan.is_inert() {
            None
        } else {
            Some(FaultState::new(plan))
        };
    }

    /// Returns the fabric to its just-constructed, fault-free state in
    /// place, keeping every heap container's capacity: transmit engines
    /// idle at t=0 with cleared traces, receive/park/send queues empty
    /// but warm, per-direction QP state back at RTS/epoch 0, stats and
    /// counters zeroed. A reset fabric behaves bit-identically to
    /// `Fabric::new` — world recycling relies on this. Re-arm fault
    /// injection afterwards with [`Fabric::set_fault_plan`] if needed.
    pub fn reset(&mut self) {
        for n in &mut self.nodes {
            n.tx.reset();
            n.sq_busy.reset_entries(|q| q.clear());
        }
        self.rx.reset();
        self.faults = None;
        self.next_id = 0;
        self.next_order = 0;
        self.inflight.clear();
        self.dirs.reset_entries(|d| *d = DirState::default());
        self.migrating = 0;
        for p in &mut self.ports_down {
            *p = [false; 2];
        }
        self.ports_down_count = 0;
        self.nodes_down.clear();
        for s in &mut self.node_stats {
            *s = FabricStats::default();
        }
        for u in &mut self.cq_used {
            *u = 0;
        }
        for p in &mut self.cq_peak {
            *p = 0;
        }
    }

    /// True when fault injection is active.
    pub fn faults_active(&self) -> bool {
        self.faults.is_some()
    }

    /// True when the directional QP `node -> peer` is in the error
    /// state (retry budget exhausted).
    pub fn qp_errored(&self, node: u32, peer: u32) -> bool {
        self.dir(node, peer).err
    }

    /// Lifecycle state of the directional QP `node -> peer`.
    pub fn qp_state(&self, node: u32, peer: u32) -> QpState {
        self.dir(node, peer).state
    }

    /// Connection incarnation of the directional QP `node -> peer`
    /// (bumped each time the QP is torn down to RESET).
    pub fn qp_epoch(&self, node: u32, peer: u32) -> u32 {
        self.epoch_of((node, peer))
    }

    /// True when `port` of `node` is currently down.
    pub fn port_down(&self, node: u32, port: u8) -> bool {
        self.ports_down[node as usize][port as usize]
    }

    /// True when `node` is currently crashed ([`NicEvent::NodeDown`]
    /// fired and no restart has happened yet). This is the membership
    /// view a subnet-manager-style health service would export; the
    /// MPI layer consults it to escalate a connection failure into a
    /// peer-death diagnosis.
    pub fn node_down(&self, node: u32) -> bool {
        self.nodes_down.get(node as usize).copied().unwrap_or(false)
    }

    /// True when any node is currently crashed.
    pub fn any_node_down(&self) -> bool {
        self.nodes_down.iter().any(|&d| d)
    }

    /// True when every scheduled crash of `node` carries a restart
    /// window — i.e. the installed plan never kills the node for good.
    /// Mirrors the out-of-band knowledge a membership service
    /// accumulates: a node with a pending restart is "suspected", one
    /// crashed with no restart is "failed".
    pub fn node_will_restart(&self, node: u32) -> bool {
        match &self.faults {
            None => true,
            Some(fs) => fs
                .plan()
                .node_faults
                .iter()
                .filter(|nf| nf.node == node)
                .all(|nf| nf.restart_after_ns.is_some()),
        }
    }

    /// Port carrying the current path of the directional QP
    /// `node -> peer` (0 = primary until a migration happens).
    pub fn qp_port(&self, node: u32, peer: u32) -> u8 {
        self.dir(node, peer).path
    }

    /// The installed fault plan, when fault injection is active.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_ref().map(|f| f.plan())
    }

    /// The `(time, event)` pairs the embedder must seed into its engine
    /// to realize the installed plan's scheduled faults: port failures
    /// from [`FaultPlan::link_faults`] and crash-stop node failures
    /// from [`FaultPlan::node_faults`].
    pub fn fault_events(&self) -> Vec<(Time, NicEvent)> {
        let Some(fs) = &self.faults else {
            return Vec::new();
        };
        let mut evs = Vec::new();
        for lf in &fs.plan().link_faults {
            evs.push((
                lf.at_ns,
                NicEvent::PortDown {
                    node: lf.node,
                    port: lf.port,
                },
            ));
            evs.push((
                lf.at_ns + lf.down_ns,
                NicEvent::PortUp {
                    node: lf.node,
                    port: lf.port,
                },
            ));
        }
        for nf in &fs.plan().node_faults {
            evs.push((nf.at_ns, NicEvent::NodeDown { node: nf.node }));
            if let Some(after) = nf.restart_after_ns {
                evs.push((nf.at_ns + after, NicEvent::NodeUp { node: nf.node }));
            }
        }
        evs
    }

    /// Requests a lifecycle transition on the directional QP
    /// `node -> peer` (the verbs `ibv_modify_qp`). Legal transitions
    /// are the spec's: RESET→INIT→RTR→RTS, RTS⇄SQD, SQE→RTS, any→ERR,
    /// any→RESET. Entering ERR flushes outstanding WQEs (error CQEs
    /// through `sink`); entering RESET silently releases everything and
    /// bumps the connection epoch.
    pub fn modify_qp<F: FnMut(Time, NicEvent)>(
        &mut self,
        now: Time,
        node: u32,
        peer: u32,
        target: QpState,
        sink: &mut F,
    ) -> Result<(), QpTransitionError> {
        let from = self.qp_state(node, peer);
        let legal = matches!(
            (from, target),
            (QpState::Reset, QpState::Init)
                | (QpState::Init, QpState::Rtr)
                | (QpState::Rtr, QpState::Rts)
                | (QpState::Rts, QpState::Sqd)
                | (QpState::Sqd, QpState::Rts)
                | (QpState::Sqe, QpState::Rts)
                | (_, QpState::Err)
                | (_, QpState::Reset)
        );
        if !legal {
            return Err(QpTransitionError { from, to: target });
        }
        match target {
            QpState::Err => self.fail_qp(now, node, peer, sink),
            QpState::Reset => self.reset_qp(node, peer),
            other => {
                self.dir_mut(node, peer).state = other;
            }
        }
        Ok(())
    }

    /// Tears the directional QP `node -> peer` down to RESET: drops all
    /// connection state (send-queue slots, retransmit timers, parked
    /// and reordered transfers, sequence numbers) without generating
    /// completions, clears the error flag, bumps the connection epoch
    /// so stale in-flight traffic is discarded on arrival, and
    /// re-selects a live port for the path. Posted receive descriptors
    /// survive (the re-established connection re-uses them, equivalent
    /// to the CM re-posting identical descriptors).
    pub fn reset_qp(&mut self, node: u32, peer: u32) {
        // Prefer a path whose port is up at both ends.
        let port = [0u8, 1]
            .into_iter()
            .find(|&p| !self.port_down(node, p) && !self.port_down(peer, p))
            .unwrap_or(0);
        let d = self.dir_mut(node, peer);
        d.err = false;
        d.state = QpState::Reset;
        d.epoch += 1;
        d.tx_seq = 0;
        d.path = port;
        if d.migrating_until.take().is_some() {
            self.migrating -= 1;
        }
        if let Some(q) = self.nodes[node as usize]
            .sq_busy
            .get_mut_touched(peer as usize)
        {
            q.clear();
        }
        self.take_queued(node, peer);
    }

    /// Removes from the slab the transfers of the QP `requester ->
    /// responder` that wait inside the fabric: those awaiting
    /// retransmission, oldest first ([`Stage::Retry`]), then those
    /// parked for RNR at the responder, then the reorder buffer's
    /// residents. Transfers on the wire stay until their arrival
    /// discards them.
    fn take_queued(&mut self, requester: u32, responder: u32) -> Vec<Transfer> {
        let mut ids: Vec<(u64, Handle)> = self
            .inflight
            .iter()
            .filter_map(|(h, t)| match t.stage {
                Stage::Retry { order } if t.endpoints() == (requester, responder) => {
                    Some((order, h))
                }
                _ => None,
            })
            .collect();
        ids.sort_unstable();
        let mut handles: Vec<Handle> = ids.into_iter().map(|(_, h)| h).collect();
        if let Some(q) = self.rx.parked_mut(responder, requester) {
            handles.extend(q.drain(..));
        }
        let d = self.dir_mut(requester, responder);
        handles.extend(std::mem::take(&mut d.rx_ooo).into_values());
        d.rx_expected = 0;
        handles.into_iter().map(|h| self.discard(h)).collect()
    }

    /// Removes the transfer `h` from the slab without delivering it: a
    /// flush or a discard. Debug builds forget its source hash.
    fn discard(&mut self, h: Handle) -> Transfer {
        let t = self
            .inflight
            .remove(h)
            .expect("a discarded transfer is in the slab");
        #[cfg(debug_assertions)]
        self.rx.audit.forget(t.x.src, t.dst, t.tag());
        t
    }

    /// Convenience for the MPI connection manager: the full
    /// RESET→INIT→RTR→RTS handshake on the directional QP
    /// `node -> peer`, compressed to one call (the caller charges the
    /// handshake latency on its own clock before invoking this).
    pub fn reestablish_qp(&mut self, node: u32, peer: u32) {
        self.reset_qp(node, peer);
        self.dir_mut(node, peer).state = QpState::Rts;
    }

    /// Transport counters by node id, the only store of every counter:
    /// each event counts once, on the node its [`FabricStats`] field
    /// names. [`Transport::stats`](crate::transport::Transport::stats)
    /// sums them.
    pub fn node_stats(&self) -> &[FabricStats] {
        &self.node_stats
    }

    fn epoch_of(&self, dir: (u32, u32)) -> u32 {
        self.dir(dir.0, dir.1).epoch
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True for an empty fabric.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Cost model in use.
    pub fn config(&self) -> &NetConfig {
        &self.cfg
    }

    /// Heap bytes held by the paged connection-state tables: the
    /// per-direction QP table plus every node's receive/park/send-queue
    /// tables. Scales with the communication pairs actually touched,
    /// not n² — the quantity the rank-scaling experiment plots.
    pub fn table_bytes(&self) -> usize {
        self.dirs.heap_bytes()
            + self
                .nodes
                .iter()
                .enumerate()
                .map(|(i, n)| self.rx.heap_bytes(i) + n.sq_busy.heap_bytes())
                .sum::<usize>()
    }

    /// Pages materialized in the per-direction QP table (each covering
    /// [`ibdt_simcore::paged::PAGE`] ordered pairs).
    pub fn dir_pages_touched(&self) -> usize {
        self.dirs.pages_touched()
    }

    /// The transmit engine of `node` (utilization / trace inspection).
    pub fn tx_engine(&self, node: u32) -> &SerialResource {
        &self.nodes[node as usize].tx
    }

    /// Transfers between launch and delivery, flush or discard. A run
    /// whose events have all drained without an error holds none.
    pub fn in_flight(&self) -> usize {
        self.inflight.len()
    }

    fn alloc_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    fn xfer(&mut self, h: Handle) -> &mut Transfer {
        self.inflight
            .get_mut(h)
            .expect("a scheduled or queued transfer is in the slab")
    }

    /// Marks the transfer `h` as awaiting retransmission.
    fn admit_retry(&mut self, h: Handle) {
        let order = self.next_order;
        self.next_order += 1;
        self.xfer(h).stage = Stage::Retry { order };
    }

    fn alloc_seq(&mut self, src: u32, dst: u32) -> u64 {
        let s = &mut self.dir_mut(src, dst).tx_seq;
        let seq = *s;
        *s += 1;
        seq
    }

    /// Serializes the transfer `h` onto the sender's transmit engine and
    /// decides its fate: delivery (possibly jittered), a drop recovered
    /// by the transport timer, or a corruption recovered by the NAK
    /// round trip. Returns the serialization finish time.
    fn launch<F: FnMut(Time, NicEvent)>(
        &mut self,
        ready_at: Time,
        h: Handle,
        retransmit: bool,
        sink: &mut F,
    ) -> Time {
        let t = self.xfer(h);
        let (src, dst, tx_dur, extra_delay) = (t.x.src, t.dst, t.tx_dur, t.extra_delay);
        if retransmit {
            let wire = t.x.op.wire_bytes();
            let s = &mut self.node_stats[src as usize];
            s.retransmits += 1;
            s.bytes_on_wire += wire;
        }
        let mut start = ready_at;
        // An APM failover in progress stalls the direction's sends
        // until the alternate path is validated. The count gates the
        // per-direction read off the common (no-migration) path.
        if self.migrating > 0 {
            let d = self.dir_mut(src, dst);
            if let Some(until) = d.migrating_until {
                if until > start {
                    start = until;
                } else {
                    d.migrating_until = None;
                    self.migrating -= 1;
                }
            }
        }
        if let Some(fs) = &mut self.faults {
            if let Some(stall) = fs.stall() {
                self.node_stats[src as usize].stalls_injected += 1;
                start = self.nodes[src as usize].tx.reserve_labeled(
                    ready_at.max(start),
                    stall,
                    "stall",
                );
            }
        }
        let ser_done = self.nodes[src as usize]
            .tx
            .reserve_labeled(start, tx_dur, "wire");
        let arrive_at = ser_done + self.cfg.prop_delay_ns + extra_delay;
        let fate = match &mut self.faults {
            Some(fs) => fs.fate(),
            None => Fate::Deliver { jitter_ns: 0 },
        };
        match fate {
            Fate::Deliver { jitter_ns } => {
                if jitter_ns > 0 {
                    self.node_stats[src as usize].delays_injected += 1;
                }
                sink(arrive_at + jitter_ns, NicEvent::Arrive { dst, id: h });
            }
            Fate::Drop => {
                self.node_stats[src as usize].drops_injected += 1;
                self.admit_retry(h);
                sink(
                    ser_done + self.cfg.transport_timeout_ns,
                    NicEvent::RetryTimeout { id: h },
                );
            }
            Fate::Corrupt => {
                self.node_stats[src as usize].corruptions_injected += 1;
                self.admit_retry(h);
                // Bad ICRC: the payload crossed the wire and the
                // responder NAKs it; retransmission can start after the
                // NAK returns.
                sink(
                    arrive_at + self.cfg.prop_delay_ns + self.cfg.cqe_ns,
                    NicEvent::RetryTimeout { id: h },
                );
            }
        }
        ser_done
    }

    /// Posts one send work request on the QP `node -> peer`.
    ///
    /// `ready_at` is when the descriptor reaches the HCA (the caller has
    /// already charged the posting CPU time). Completions and arrivals
    /// are scheduled through `sink`.
    pub fn post_send<F: FnMut(Time, NicEvent)>(
        &mut self,
        ready_at: Time,
        node: u32,
        peer: u32,
        wr: SendWr,
        mems: &[NodeMem],
        sink: &mut F,
    ) -> Result<(), PostError> {
        self.post_send_inner(ready_at, node, peer, wr, mems, sink, false)
    }

    #[allow(clippy::too_many_arguments)]
    fn post_send_inner<F: FnMut(Time, NicEvent)>(
        &mut self,
        ready_at: Time,
        node: u32,
        peer: u32,
        wr: SendWr,
        mems: &[NodeMem],
        sink: &mut F,
        batched: bool,
    ) -> Result<(), PostError> {
        if peer as usize >= self.nodes.len() {
            return Err(PostError::NoSuchPeer { peer });
        }
        {
            let d = self.dir(node, peer);
            if d.err {
                return Err(PostError::QpError { peer });
            }
            // The dense default is RTS (connect-at-init), so this one
            // read covers both the former "any lifecycle entry exists"
            // gate and the state check.
            if !matches!(d.state, QpState::Rts) {
                return Err(PostError::QpNotReady { peer });
            }
        }
        if self.ports_down_count > 0 && !self.ensure_path(ready_at, node, peer) {
            // The current path's port is down and no alternate is
            // available: the send could only time out, so the QP errors
            // immediately (the transport retry budget would drain
            // against a dead link).
            self.fail_qp(ready_at, node, peer, sink);
            return Err(PostError::QpError { peer });
        }
        let mem = &mems[node as usize];
        check_post(&wr, self.cfg.max_sge, mem)?;

        let bytes = wr.total_len();
        let (tx_dur, extra_delay) = match wr.opcode {
            // A read request is small on the wire; its payload crosses
            // on the responder's transmit engine.
            Opcode::RdmaRead => (
                self.cfg.tx_ns_batched(wr.sges.len(), 0, batched),
                self.cfg.rdma_read_extra_ns,
            ),
            _ => (self.cfg.tx_ns_batched(wr.sges.len(), bytes, batched), 0),
        };
        // Send-queue depth: WQEs occupy the queue from post until the
        // NIC finishes processing them.
        {
            let q = &mut self.nodes[node as usize].sq_busy[peer as usize];
            while q.front().is_some_and(|e| e.done <= ready_at) {
                q.pop_front();
            }
            if q.len() >= self.cfg.sq_depth {
                return Err(PostError::QueueFull {
                    depth: self.cfg.sq_depth,
                });
            }
        }
        let s = &mut self.node_stats[node as usize];
        s.wqes += 1;
        if wr.opcode != Opcode::RdmaRead {
            s.bytes_on_wire += bytes;
        }
        let xfer = Transfer {
            seq: self.alloc_seq(node, peer),
            attempt: 0,
            epoch: self.epoch_of((node, peer)),
            dst: peer,
            tx_dur,
            extra_delay,
            stage: Stage::Wire,
            x: Xfer {
                src: node,
                op: Op::post(wr, &mem.space, false),
            },
        };
        #[cfg(debug_assertions)]
        self.rx
            .audit
            .record(node, peer, xfer.tag(), &mem.space, &xfer.x.op);
        let wr_id = xfer.x.op.wr_id();
        let h = self.inflight.insert(xfer);
        let ser_done = self.launch(ready_at, h, false, sink);
        self.nodes[node as usize].sq_busy[peer as usize].push_back(SqEntry {
            done: ser_done,
            wr_id,
        });
        Ok(())
    }

    /// Posts a list of descriptors in one call (the extended interface
    /// of §7.4). Functionally identical to posting one by one; the CPU
    /// saving is priced by the caller via
    /// [`NetConfig::post_list_ns`].
    pub fn post_send_list<F: FnMut(Time, NicEvent)>(
        &mut self,
        ready_at: Time,
        node: u32,
        peer: u32,
        wrs: Vec<SendWr>,
        mems: &[NodeMem],
        sink: &mut F,
    ) -> Result<(), PostError> {
        for wr in wrs {
            self.post_send_inner(ready_at, node, peer, wr, mems, sink, true)?;
        }
        Ok(())
    }

    /// Posts a receive descriptor on the QP `node <- peer`.
    pub fn post_recv<F: FnMut(Time, NicEvent)>(
        &mut self,
        now: Time,
        node: u32,
        peer: u32,
        wr: RecvWr,
        mems: &[NodeMem],
        sink: &mut F,
    ) -> Result<(), PostError> {
        if peer as usize >= self.nodes.len() {
            return Err(PostError::NoSuchPeer { peer });
        }
        check_sges(&wr.sges, self.cfg.max_sge, &mems[node as usize])?;
        self.rx.post(now, node, peer, wr, sink);
        Ok(())
    }

    /// Handles a fabric event, appending completions that become visible
    /// to the MPI progress engines **now** onto `out`. The caller owns
    /// (and typically reuses) the completion buffer, so steady-state
    /// event handling allocates nothing. `out` is not cleared here;
    /// entries are appended after whatever the caller left in it.
    pub fn handle<F: FnMut(Time, NicEvent)>(
        &mut self,
        now: Time,
        ev: NicEvent,
        mems: &mut [NodeMem],
        sink: &mut F,
        out: &mut Vec<(u32, Cqe)>,
    ) {
        match ev {
            NicEvent::LocalCqe { node, cqe } => {
                self.cq_admit(node);
                out.push((node, cqe));
            }
            NicEvent::Arrive { dst, id } => self.arrive(now, dst, id, mems, sink, out),
            NicEvent::RnrRetry { node, peer } => {
                self.drain_parked(now, node, peer, mems, sink, out)
            }
            NicEvent::RetryTimeout { id } => self.retry_timeout(now, id, sink),
            NicEvent::RnrTimedRetry { node, peer, id } => {
                self.rnr_timed_retry(now, node, peer, id, mems, sink, out)
            }
            NicEvent::PortDown { node, port } => self.handle_port_down(now, node, port, sink),
            NicEvent::PortUp { node, port } => {
                let down = &mut self.ports_down[node as usize][port as usize];
                if *down {
                    *down = false;
                    self.ports_down_count -= 1;
                }
            }
            NicEvent::NodeDown { node } => self.handle_node_down(now, node, sink),
            NicEvent::NodeUp { node } => {
                if self.node_down(node) {
                    self.nodes_down[node as usize] = false;
                    for port in 0..2u8 {
                        let down = &mut self.ports_down[node as usize][port as usize];
                        if *down {
                            *down = false;
                            self.ports_down_count -= 1;
                        }
                    }
                }
            }
        }
    }

    /// A node crashed: both ports die at once, so no QP touching it can
    /// migrate — every live direction to or from the node transitions
    /// to the error state and flushes its in-flight traffic. The ports
    /// are marked down *before* the QP sweep so the APM check in any
    /// concurrently delivered event sees a node with no usable path.
    fn handle_node_down<F: FnMut(Time, NicEvent)>(&mut self, now: Time, node: u32, sink: &mut F) {
        if self.node_down(node) {
            return;
        }
        if self.nodes_down.is_empty() {
            self.nodes_down = vec![false; self.nodes.len()];
        }
        self.nodes_down[node as usize] = true;
        self.node_stats[node as usize].node_crashes += 1;
        for port in 0..2u8 {
            let down = &mut self.ports_down[node as usize][port as usize];
            if !*down {
                *down = true;
                self.ports_down_count += 1;
            }
        }
        let n = self.nodes.len() as u32;
        for other in 0..n {
            if other == node {
                continue;
            }
            for dir in [(node, other), (other, node)] {
                let d = self.dir(dir.0, dir.1);
                if d.err || matches!(d.state, QpState::Reset) {
                    continue;
                }
                self.fail_qp(now, dir.0, dir.1, sink);
            }
        }
    }

    /// A port died: every RTS queue pair whose current path crosses it
    /// either migrates to the alternate path (APM) or errors.
    fn handle_port_down<F: FnMut(Time, NicEvent)>(
        &mut self,
        now: Time,
        node: u32,
        port: u8,
        sink: &mut F,
    ) {
        {
            let down = &mut self.ports_down[node as usize][port as usize];
            if !*down {
                *down = true;
                self.ports_down_count += 1;
            }
        }
        let n = self.nodes.len() as u32;
        for other in 0..n {
            if other == node {
                continue;
            }
            for dir in [(node, other), (other, node)] {
                {
                    let d = self.dir(dir.0, dir.1);
                    if d.err || !matches!(d.state, QpState::Rts) || d.path != port {
                        continue;
                    }
                }
                let alt = 1 - port;
                if self.cfg.apm_enabled
                    && !self.port_down(dir.0, alt)
                    && !self.port_down(dir.1, alt)
                {
                    self.migrate(now, dir, alt);
                } else {
                    self.fail_qp(now, dir.0, dir.1, sink);
                }
            }
        }
    }

    /// True when the direction has a usable path, migrating to the
    /// alternate port on the fly if the current one is down (lazy APM:
    /// covers a QP re-established while its old port is still dark).
    fn ensure_path(&mut self, now: Time, node: u32, peer: u32) -> bool {
        let dir = (node, peer);
        let port = self.dir(node, peer).path;
        if !self.port_down(node, port) && !self.port_down(peer, port) {
            return true;
        }
        let alt = 1 - port;
        if self.cfg.apm_enabled && !self.port_down(node, alt) && !self.port_down(peer, alt) {
            self.migrate(now, dir, alt);
            return true;
        }
        false
    }

    fn migrate(&mut self, now: Time, dir: (u32, u32), alt: u8) {
        let until = now + self.cfg.apm_migration_ns;
        let d = self.dir_mut(dir.0, dir.1);
        d.path = alt;
        if d.migrating_until.replace(until).is_none() {
            self.migrating += 1;
        }
        self.node_stats[dir.0 as usize].migrations += 1;
    }

    /// Transport timer: retransmit the pending transfer, or exhaust the
    /// retry budget and error the QP.
    fn retry_timeout<F: FnMut(Time, NicEvent)>(&mut self, now: Time, h: Handle, sink: &mut F) {
        let Some(t) = self.inflight.get_mut(h) else {
            // Flushed by a QP error transition in the meantime (the
            // stale generation makes the lookup a miss).
            return;
        };
        let (requester, responder) = t.endpoints();
        t.attempt += 1;
        if t.attempt > self.cfg.retry_cnt {
            let t = self.discard(h);
            let status = CqeStatus::RetryExceeded {
                attempts: t.attempt,
            };
            let cqe = send_cqe(responder, t.x.op.wr_id(), 0, status);
            sink(
                now + self.cfg.cqe_ns,
                NicEvent::LocalCqe {
                    node: requester,
                    cqe,
                },
            );
            self.fail_qp(now, requester, responder, sink);
        } else {
            t.stage = Stage::Wire;
            self.launch(now, h, true, sink);
        }
    }

    /// Timed RNR backoff: try delivery again; burn a retry if the
    /// receiver still has no descriptor; exhaust the budget and error
    /// the sender's QP when it runs out.
    #[allow(clippy::too_many_arguments)]
    fn rnr_timed_retry<F: FnMut(Time, NicEvent)>(
        &mut self,
        now: Time,
        node: u32,
        peer: u32,
        h: Handle,
        mems: &mut [NodeMem],
        sink: &mut F,
        out: &mut Vec<(u32, Cqe)>,
    ) {
        self.drain_parked(now, node, peer, mems, sink, out);
        let Some(q) = self.rx.parked_mut(node, peer) else {
            return;
        };
        let Some(pos) = q.iter().position(|&p| p == h) else {
            // Delivered (or flushed) in the meantime.
            return;
        };
        self.node_stats[peer as usize].rnr_backoff_retries += 1;
        let t = self
            .inflight
            .get_mut(h)
            .expect("a parked transfer is in the slab");
        let Stage::Parked { ticket, attempt } = &mut t.stage else {
            unreachable!("a parked transfer's stage is Parked");
        };
        *attempt += 1;
        let (ticket, attempt) = (*ticket, *attempt);
        if attempt > self.cfg.rnr_retry {
            q.remove(pos);
            let t = self.discard(h);
            let status = CqeStatus::RnrRetryExceeded { attempts: attempt };
            // The RNR NAK that exhausts the budget travels back to the
            // sender, whose QP then errors.
            let cqe = send_cqe(node, t.x.op.wr_id(), 0, status);
            self.sched_local(sink, peer, cqe, now);
            self.fail_qp(now, peer, node, sink);
        } else {
            let key = ((node as u64) << 48) ^ ((peer as u64) << 32) ^ ticket;
            let at = now + self.cfg.rnr_backoff_jittered_ns(attempt, key);
            sink(at, NicEvent::RnrTimedRetry { node, peer, id: h });
        }
    }

    /// Transitions the directional QP `requester -> responder` to the
    /// error state: outstanding WQEs (send-queue slots, transfers
    /// awaiting retransmission, parked transfers, reorder-buffer
    /// residents) flush with [`CqeStatus::FlushErr`]; later posts fail
    /// with [`PostError::QpError`]. Transfers on the wire stay in the
    /// slab until their arrival discards them, with no completion.
    fn fail_qp<F: FnMut(Time, NicEvent)>(
        &mut self,
        now: Time,
        requester: u32,
        responder: u32,
        sink: &mut F,
    ) {
        {
            let d = self.dir_mut(requester, responder);
            if d.err {
                return;
            }
            d.err = true;
            d.state = QpState::Err;
        }
        self.node_stats[requester as usize].qp_errors += 1;
        let mut flushed: HashSet<u64> = HashSet::new();
        let mut flush_wrs: Vec<u64> = Vec::new();
        let mut flush = |wr: u64| {
            if flushed.insert(wr) {
                flush_wrs.push(wr);
            }
        };

        // Send-queue slots whose NIC processing hasn't finished.
        if let Some(q) = self.nodes[requester as usize]
            .sq_busy
            .get_mut_touched(responder as usize)
        {
            for e in q.drain(..) {
                if e.done > now {
                    flush(e.wr_id);
                }
            }
        }
        // Transfers waiting inside the fabric, which will never be
        // released now.
        for t in self.take_queued(requester, responder) {
            flush(t.x.op.wr_id());
        }

        self.node_stats[requester as usize].flushed_wqes += flush_wrs.len() as u64;
        for wr_id in flush_wrs {
            let cqe = send_cqe(responder, wr_id, 0, CqeStatus::FlushErr);
            sink(
                now + self.cfg.cqe_ns,
                NicEvent::LocalCqe {
                    node: requester,
                    cqe,
                },
            );
        }
    }

    /// Delivers parked transfers of `(node, peer)` while receive
    /// descriptors are available.
    fn drain_parked<F: FnMut(Time, NicEvent)>(
        &mut self,
        now: Time,
        node: u32,
        peer: u32,
        mems: &mut [NodeMem],
        sink: &mut F,
        out: &mut Vec<(u32, Cqe)>,
    ) {
        while let Some(h) = self.rx.unpark(node, peer) {
            self.deliver(now, node, h, mems, sink, out);
        }
    }

    /// Entry point for transfers reaching `dst`: discards traffic on
    /// errored QPs and, when fault injection is active, enforces per-QP
    /// sequence order through the reorder buffer before delivery.
    fn arrive<F: FnMut(Time, NicEvent)>(
        &mut self,
        now: Time,
        dst: u32,
        h: Handle,
        mems: &mut [NodeMem],
        sink: &mut F,
        out: &mut Vec<(u32, Cqe)>,
    ) {
        let t = self.xfer(h);
        let (src, seq, epoch) = (t.x.src, t.seq, t.epoch);
        let dir = (src, dst);
        {
            let d = self.dir(dir.0, dir.1);
            // A stale epoch: launched by a previous incarnation of this
            // QP (reset while the transfer was in flight). An errored
            // QP: it died while this transfer was in flight. Either
            // way, discard it.
            if epoch != d.epoch || d.err {
                let (requester, _) = self.discard(h).endpoints();
                self.node_stats[requester as usize].flushed_wqes += 1;
                return;
            }
        }
        if self.faults.is_none() {
            self.deliver(now, dst, h, mems, sink, out);
            return;
        }
        {
            let d = self.dir_mut(dir.0, dir.1);
            if seq > d.rx_expected {
                d.rx_ooo.insert(seq, h);
                return;
            }
            debug_assert_eq!(seq, d.rx_expected, "duplicate delivery on RC QP");
        }
        self.deliver(now, dst, h, mems, sink, out);
        // Release consecutive reorder-buffer residents.
        loop {
            let d = self.dir_mut(dir.0, dir.1);
            d.rx_expected += 1;
            let next = d.rx_expected;
            let Some(h) = d.rx_ooo.remove(&next) else {
                break;
            };
            self.deliver(now, dst, h, mems, sink, out);
        }
    }

    fn deliver<F: FnMut(Time, NicEvent)>(
        &mut self,
        now: Time,
        dst: u32,
        h: Handle,
        mems: &mut [NodeMem],
        sink: &mut F,
        out: &mut Vec<(u32, Cqe)>,
    ) {
        let x = &self
            .inflight
            .get(h)
            .expect("a queued transfer is in the slab")
            .x;
        let (src, wr_id) = (x.src, x.op.wr_id());
        // A delivery that consumes a receive descriptor needs a CQ slot.
        if x.op.consumes_recv() && self.cq_full(dst) {
            self.discard(h);
            self.cq_overflow(now, dst, src, wr_id, sink);
            return;
        }
        if self.rx.waits(dst, src, &x.op) {
            self.node_stats[dst as usize].rnr_events += 1;
            self.park(now, dst, src, h, sink);
            return;
        }
        let t = self.inflight.remove(h).expect("looked up above");
        let tag = t.tag();
        match self.rx.deliver(mems, dst, t.x, tag, &mut self.node_stats) {
            Delivered::Done {
                at_dst,
                at_src,
                nak,
                ..
            } => {
                if let Some(cqe) = at_dst {
                    self.cq_admit(dst);
                    out.push((dst, cqe));
                }
                if let Some(cqe) = at_src {
                    self.sched_local(sink, src, cqe, now);
                }
                if nak {
                    // The responder NAKs the access; on RC that
                    // terminates the connection — later WQEs must not
                    // complete (they would let the requester believe
                    // partially-rejected data all landed).
                    self.fail_qp(now, src, dst, sink);
                }
            }
            Delivered::Respond { len, resp } => {
                // The response occupies the responder's transmit engine
                // for its serialization time (and is itself subject to
                // fault injection).
                let dur = self.cfg.tx_ns(1, len);
                let s = &mut self.node_stats[dst as usize];
                s.wqes += 1;
                s.bytes_on_wire += len;
                let resp = Transfer {
                    seq: self.alloc_seq(dst, src),
                    attempt: 0,
                    epoch: self.epoch_of((dst, src)),
                    dst: src,
                    tx_dur: dur,
                    extra_delay: 0,
                    stage: Stage::Wire,
                    x: Xfer { src: dst, op: resp },
                };
                #[cfg(debug_assertions)]
                let space = &mems[dst as usize].space;
                #[cfg(debug_assertions)]
                self.rx
                    .audit
                    .record(dst, src, resp.tag(), space, &resp.x.op);
                let h = self.inflight.insert(resp);
                self.launch(now, h, false, sink);
            }
        }
    }

    fn sched_local<F: FnMut(Time, NicEvent)>(&self, sink: &mut F, node: u32, cqe: Cqe, now: Time) {
        // ACK travels back one propagation delay; then the CQE is
        // generated.
        sink(
            now + self.cfg.prop_delay_ns + self.cfg.cqe_ns,
            NicEvent::LocalCqe { node, cqe },
        );
    }

    /// Parks the transfer `h` awaiting a receive descriptor. With a
    /// finite `rnr_retry` budget the RNR NAK starts a timed backoff
    /// loop; with the infinite budget (the IB value 7, our default) the
    /// transfer waits silently until a receive is posted.
    fn park<F: FnMut(Time, NicEvent)>(
        &mut self,
        now: Time,
        dst: u32,
        src: u32,
        h: Handle,
        sink: &mut F,
    ) {
        let ticket = self.alloc_id();
        self.xfer(h).stage = Stage::Parked { ticket, attempt: 0 };
        self.rx.park(dst, src, h);
        if !self.cfg.rnr_infinite() {
            // Jitter the backoff per parked transfer: an incast cohort
            // parked in the same instant must not retry in lockstep.
            let key = ((dst as u64) << 48) ^ ((src as u64) << 32) ^ ticket;
            sink(
                now + self.cfg.rnr_backoff_jittered_ns(0, key),
                NicEvent::RnrTimedRetry {
                    node: dst,
                    peer: src,
                    id: h,
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::Transport;
    use crate::wr::Sge;

    /// Two nodes, each with one registered 64 KiB window: receives land
    /// in its first quarter, RDMA writes in the second, and sends and
    /// writes gather from the last.
    struct Rig {
        f: Fabric,
        mems: Vec<NodeMem>,
        win: Vec<(u64, u32, u32)>,
        evs: Vec<(Time, NicEvent)>,
        out: Vec<(u32, Cqe)>,
    }

    impl Rig {
        fn new(cfg: NetConfig, plan: FaultPlan) -> Self {
            let mut f = Fabric::new(2, cfg);
            f.set_fault_plan(plan);
            let mut mems: Vec<NodeMem> = (0..2).map(|_| NodeMem::new(1 << 20)).collect();
            let win = mems
                .iter_mut()
                .map(|m| {
                    let a = m.space.alloc_page_aligned(64 << 10).unwrap();
                    let r = m.regs.register(a, 64 << 10);
                    (a, r.lkey, r.rkey)
                })
                .collect();
            let (evs, out) = (Vec::new(), Vec::new());
            Rig {
                f,
                mems,
                win,
                evs,
                out,
            }
        }

        /// Posts a 1 KiB send (or, with `write`, an RDMA write) from
        /// slot `i` of `node`'s gather quarter.
        fn send(&mut self, at: Time, node: u32, i: u64, write: bool) {
            let peer = 1 - node;
            let (a, lkey, _) = self.win[node as usize];
            let (pa, _, prkey) = self.win[peer as usize];
            let wr = SendWr {
                wr_id: u64::from(node) << 8 | i,
                opcode: if write {
                    Opcode::RdmaWrite
                } else {
                    Opcode::Send
                },
                sges: vec![Sge {
                    addr: a + (48 << 10) + i * 1024,
                    len: 1024,
                    lkey,
                }]
                .into(),
                remote: write.then_some((pa + (16 << 10) + i * 1024, prkey)),
                signaled: true,
            };
            let evs = &mut self.evs;
            self.f
                .post_send(at, node, peer, wr, &self.mems, &mut |t, e| evs.push((t, e)))
                .unwrap();
        }

        /// Posts a 1 KiB receive in slot `i` of `node`'s receive quarter.
        fn recv(&mut self, at: Time, node: u32, i: u64) {
            let (a, lkey, _) = self.win[node as usize];
            let wr = RecvWr {
                wr_id: 1 << 16 | i,
                sges: vec![Sge {
                    addr: a + i * 1024,
                    len: 1024,
                    lkey,
                }]
                .into(),
            };
            let evs = &mut self.evs;
            self.f
                .post_recv(at, node, 1 - node, wr, &self.mems, &mut |t, e| {
                    evs.push((t, e))
                })
                .unwrap();
        }

        /// Handles events in time order until `stop` holds or none is
        /// left; returns the time of the last one handled.
        fn run(&mut self, stop: impl Fn(&Fabric) -> bool) -> Time {
            let mut now = 0;
            while !stop(&self.f) {
                let Some(i) = (0..self.evs.len()).min_by_key(|&i| self.evs[i].0) else {
                    break;
                };
                let (t, ev) = self.evs.remove(i);
                now = t;
                let evs = &mut self.evs;
                self.f.handle(
                    t,
                    ev,
                    &mut self.mems,
                    &mut |t, e| evs.push((t, e)),
                    &mut self.out,
                );
            }
            now
        }
    }

    /// Every stage a transfer can wait in, then a QP failure and a
    /// reset while some are still on the wire: once every event has
    /// drained, the slab holds nothing, and debug builds have forgotten
    /// the source of every transfer flushed or discarded.
    #[test]
    fn drained_run_leaves_no_transfer_in_flight() {
        let mut r = Rig::new(
            NetConfig::default(),
            FaultPlan {
                seed: 7,
                drop_rate: 0.2,
                corrupt_rate: 0.2,
                ..FaultPlan::none()
            },
        );
        for i in 0..8 {
            r.send(0, 0, i, false);
            r.send(0, 0, 8 + i, true);
        }
        for i in 0..4 {
            r.send(0, 1, i, false);
        }
        // Some sends reach node 1 before any receive: they park.
        let now = r.run(|f| f.stats().rnr_events >= 3);
        for i in 0..3 {
            r.recv(now, 1, i);
        }
        r.run(|f| f.stats().retransmits >= 2);
        let now = r.run(|f| {
            f.inflight
                .iter()
                .any(|(_, t)| matches!(t.stage, Stage::Retry { .. }))
        });
        let stages: Vec<Stage> = r.f.inflight.iter().map(|(_, t)| t.stage).collect();
        let has = |f: fn(&Stage) -> bool| stages.iter().any(f);
        assert!(has(|s| matches!(s, Stage::Wire)), "{stages:?}");
        assert!(has(|s| matches!(s, Stage::Retry { .. })), "{stages:?}");
        assert!(has(|s| matches!(s, Stage::Parked { .. })), "{stages:?}");
        // Node 0 never posts a receive, so node 1's sends wait until
        // their QP fails; node 0's QP fails and is re-established
        // with transfers still on the wire.
        let mut sink = |_, _| {};
        r.f.modify_qp(now, 1, 0, QpState::Err, &mut sink).unwrap();
        r.f.modify_qp(now, 0, 1, QpState::Err, &mut sink).unwrap();
        r.f.reestablish_qp(0, 1);
        r.send(now, 0, 15, true);
        r.run(|_| false);

        let s = r.f.stats();
        assert!(s.drops_injected > 0 && s.corruptions_injected > 0, "{s:?}");
        assert!(s.rnr_events > 0 && s.flushed_wqes > 0, "{s:?}");
        assert_eq!(s.qp_errors, 2, "{s:?}");
        assert!(r.evs.is_empty());
        assert_eq!(r.f.in_flight(), 0);
        #[cfg(debug_assertions)]
        assert!(r.f.rx.audit.is_empty(), "{:?}", r.f.rx.audit);
    }

    /// Nobody polls node 1's one-entry CQ, so the first send's receive
    /// completion fills it and the second send's delivery overflows
    /// it: the requester gets one `CqOverflow` completion and its QP
    /// errors, the overflow counts on node 1, the refused send leaves
    /// its receive descriptor posted, and nothing stays in flight.
    #[test]
    fn full_cq_refuses_delivery_and_errors_the_qp() {
        let cfg = NetConfig {
            cq_depth: 1,
            ..NetConfig::default()
        };
        let mut r = Rig::new(cfg, FaultPlan::none());
        r.recv(0, 1, 0);
        r.recv(0, 1, 1);
        r.send(0, 0, 0, false);
        r.send(0, 0, 1, false);
        r.run(|f| f.cq_used(1) == 1);
        let posted = r.f.recvq_len(1, 0);
        assert_eq!(posted, 1);
        r.run(|_| false);

        let overflows = r
            .out
            .iter()
            .filter(|(node, c)| *node == 0 && c.status == CqeStatus::CqOverflow);
        assert_eq!(overflows.count(), 1, "{:?}", r.out);
        assert!(r.f.qp_errored(0, 1));
        assert_eq!(r.f.node_stats()[1].cq_overflows, 1);
        assert_eq!(r.f.stats().cq_overflows, 1);
        assert_eq!(r.f.recvq_len(1, 0), posted);
        assert_eq!(r.f.in_flight(), 0);
        #[cfg(debug_assertions)]
        assert!(r.f.rx.audit.is_empty(), "{:?}", r.f.rx.audit);
    }
}
