//! Per-rank MPI library state.
//!
//! Each rank owns a CPU resource (the progress engine's host time), the
//! eager send ring and pre-posted receive buffers, the pre-registered
//! pack/unpack segment pools, tag-matching queues, active message
//! tables, and the registration machinery (pin-down cache, type
//! registry, layout cache).

use crate::config::{MpiConfig, PINDOWN_CAPACITY};
use crate::error::MpiError;
use crate::msg::Proposal;
use crate::pool::{ScratchPool, SegmentPool};

/// Wildcard source for receives (`MPI_ANY_SOURCE`).
pub const ANY_SOURCE: u32 = u32::MAX;
/// Wildcard tag for receives (`MPI_ANY_TAG`).
pub const ANY_TAG: u32 = u32::MAX;
use ibdt_datatype::{Datatype, LayoutCache, PlanLookup, TransferPlan, TypeRegistry};
use ibdt_ibsim::NodeMem;
use ibdt_memreg::{PindownCache, Va};
use ibdt_simcore::resource::SerialResource;
use ibdt_simcore::trace::Overlap;
use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};

/// A request handle (per-rank, in issue order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ReqId(pub u32);

/// Kind of request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReqKind {
    /// An `Isend`.
    Send,
    /// An `Irecv`.
    Recv,
}

/// Bookkeeping for one issued request.
#[derive(Debug)]
pub struct ReqState {
    /// What the request is.
    pub kind: ReqKind,
    /// Set when the operation completes.
    pub done: bool,
    /// Set instead of clean completion when the operation failed with a
    /// typed error (fault injection, budget exhaustion).
    pub error: Option<MpiError>,
}

/// A posted (not yet matched) receive.
#[derive(Debug)]
pub struct PostedRecv {
    /// Request handle.
    pub req: ReqId,
    /// Source rank.
    pub peer: u32,
    /// Tag to match.
    pub tag: u32,
    /// User buffer address (datatype offset 0).
    pub buf: Va,
    /// Instance count.
    pub count: u64,
    /// Receive datatype.
    pub ty: Datatype,
}

/// A message that arrived before its receive was posted.
#[derive(Debug)]
pub enum Unexpected {
    /// An eager message; the payload was copied out of the eager buffer
    /// (the dynamic-allocation copy MVAPICH also performs).
    Eager {
        /// Source rank.
        peer: u32,
        /// Tag.
        tag: u32,
        /// Sequence number.
        seq: u64,
        /// Packed payload.
        data: Vec<u8>,
    },
    /// A rendezvous start waiting for a matching receive.
    Rndv {
        /// Source rank.
        peer: u32,
        /// Tag.
        tag: u32,
        /// Sequence number.
        seq: u64,
        /// What the receiver decides the scheme from.
        proposal: Proposal,
    },
}

/// An eager-path transmission waiting for a send ring buffer.
#[derive(Debug)]
pub struct PendingEager {
    /// Destination rank.
    pub peer: u32,
    /// Fully encoded header + payload.
    pub bytes: Vec<u8>,
}

/// Connection-manager bookkeeping for one peer whose queue pair died.
///
/// Populated between failure detection (flushed completions, transport
/// retry exhaustion, `QpError` at post) and the re-establishment event;
/// drained when the connection comes back up and suspended traffic is
/// re-driven.
#[derive(Debug, Default)]
pub struct ReconnState {
    /// True while a reconnect event is scheduled for this peer.
    pub active: bool,
    /// Re-establishment attempts made so far.
    pub attempts: u32,
    /// Eager ring slots whose sends were flushed; the payload bytes are
    /// still in the ring, so the slots are re-posted verbatim.
    pub eager_slots: Vec<Va>,
    /// Encoded control messages that hit a dead QP at post time and
    /// must be re-sent after re-establishment.
    pub pending_ctrl: Vec<Vec<u8>>,
    /// Sequence numbers of suspended outgoing rendezvous sends
    /// (ordered so re-drive order is deterministic).
    pub sends: BTreeSet<u64>,
    /// Sequence numbers of suspended incoming transfers this rank
    /// drives (P-RRS reads), ordered for deterministic re-drive.
    pub recvs: BTreeSet<u64>,
}

/// Dynamically allocated internal buffer freelist entry.
#[derive(Debug, Default)]
pub struct InternalBufs {
    /// Free buffers by exact size.
    pub free: HashMap<u64, Vec<Va>>,
}

/// Per-peer eager flow-control state and audit counters, one entry per
/// peer (see [`RankState::fc`]).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FcPeer {
    /// Credits available for eager sends to this peer.
    pub credits: u32,
    /// Credits owed back to this peer (their eager messages matched
    /// here but the grant not yet transmitted).
    pub owed: u32,
    /// Auditor: eager sends that consumed a credit (monotone).
    pub sent: u64,
    /// Auditor: this peer's eager payloads matched here (monotone).
    pub matched: u64,
    /// Auditor: credits granted back to this peer (monotone;
    /// `matched - granted == owed`).
    pub granted: u64,
    /// Auditor: credit grants received from this peer (monotone; lags
    /// the peer's `granted` by grants still in flight).
    pub received: u64,
}

/// Counters the benchmarks report per rank.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct RankCounters {
    /// Eager messages sent.
    pub eager_sends: u64,
    /// Rendezvous messages sent.
    pub rndv_sends: u64,
    /// Packs performed (segments).
    pub packs: u64,
    /// Unpacks performed (segments).
    pub unpacks: u64,
    /// Bytes packed.
    pub bytes_packed: u64,
    /// Bytes unpacked.
    pub bytes_unpacked: u64,
    /// Dynamic internal-buffer allocations.
    pub dynamic_allocs: u64,
    /// Times a pool was exhausted and the dynamic fallback ran.
    pub pool_fallbacks: u64,
    /// RDMA data work requests posted.
    pub data_wrs: u64,
    /// Control messages sent.
    pub ctrl_msgs: u64,
    /// Messages downgraded per-message to a copy-based scheme
    /// (registration budget or reply-size pressure).
    pub scheme_fallbacks: u64,
    /// Rendezvous-reply probes sent after a reply timeout.
    pub rndv_rerequests: u64,
    /// Completions that carried an error status.
    pub cqe_errors: u64,
    /// Work-request posts that failed synchronously.
    pub post_errors: u64,
    /// Queue pairs re-established by the connection manager.
    pub qp_reestablished: u64,
    /// Rendezvous chunks skipped on resume because the receiver had
    /// already unpacked them before the connection died.
    pub resumed_chunks: u64,
    /// Zero-copy transfers renegotiated down to BC-SPUP after a remote
    /// protection fault (pin-down cache eviction race, §5.4.2).
    pub protection_fallbacks: u64,
    /// Degradation-ladder rung 3: eager-sized messages forced down to
    /// rendezvous because the per-peer credit pool ran dry.
    pub credit_spills: u64,
    /// Degradation-ladder rung 2: eager-sized messages forced down to
    /// rendezvous because the pending-eager queue hit `pending_cap`
    /// (throttled eager).
    pub pending_spills: u64,
    /// Explicit `CreditUpdate` control messages sent (starved-sender
    /// unblocking; piggybacked grants are counted separately).
    pub credit_msgs: u64,
    /// Credits returned piggybacked in front of outgoing eager/ctrl
    /// messages.
    pub credits_piggybacked: u64,
    /// Credit grants withheld because the unexpected queue was above
    /// its pressure threshold (`unexpected_cap / 2`).
    pub grants_deferred: u64,
    /// High-water payload-bearing unexpected-queue occupancy.
    pub peak_unexpected: u64,
    /// High-water pending-eager queue occupancy.
    pub peak_pending: u64,
    /// Bounce-buffer chunks pushed through the staged device pipeline
    /// (0 when no buffer is device-resident).
    pub staging_chunks: u64,
}

/// How this rank's plan lookups ([`RankState::plan_for`]) were served.
/// The plans themselves live on the datatypes, so a type value an
/// earlier run already compiled is a hit here.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct PlanLookups {
    /// Served from a type's memo.
    pub hits: u64,
    /// Compiled, into a free slot or over an older count.
    pub compiled: u64,
    /// Compiled over an older count's plan.
    pub displaced: u64,
}

/// All state of one rank's MPI library instance.
#[derive(Debug)]
pub struct RankState {
    /// This rank's id.
    pub rank: u32,
    /// World size.
    pub nprocs: u32,
    /// Host CPU executing the progress engine, pack/unpack, posts.
    pub cpu: SerialResource,
    /// DMA engine moving bytes between host bounce buffers and device
    /// memory. A separate serial resource so staged-pipeline overlap
    /// (pack of chunk k against DMA of chunk k-1) is provable from the
    /// trace, exactly like pack/wire overlap.
    pub dma: SerialResource,
    /// This rank's pack/wire overlap meter: `cpu`'s `pack` reservations
    /// against its transport engine's `wire` ones, fed by the cluster.
    pub pack_wire: Overlap,
    /// Base address of the eager region (send ring + recv buffers).
    pub eager_region: Va,
    /// Eager/control send ring buffers (shared across peers).
    pub eager_send_free: Vec<Va>,
    /// Wire length of the message last sent from each send-ring slot,
    /// by slot index, so a flushed slot is re-sent verbatim.
    pub eager_slot_len: Vec<u64>,
    /// Sends waiting for a ring buffer.
    pub eager_pending: VecDeque<PendingEager>,
    /// lkey covering the eager region (send + recv buffers).
    pub eager_lkey: u32,
    /// Pre-registered pack segment pool.
    pub pack_pool: SegmentPool,
    /// Pre-registered unpack segment pool.
    pub unpack_pool: SegmentPool,
    /// Posted receives, in post order (matched FIFO).
    pub posted: VecDeque<PostedRecv>,
    /// Unexpected messages, in arrival order.
    pub unexpected: VecDeque<Unexpected>,
    /// Next send sequence number per peer.
    pub next_seq: Vec<u64>,
    /// Request table, read through [`RankState::reqs`] so that only
    /// the request methods change it.
    reqs: Vec<ReqState>,
    /// Requests in `reqs` not yet done, so a `WaitAll` check does not
    /// walk every request issued since the run began.
    open_reqs: usize,
    /// Requests completed since the interpreter last ran.
    pub newly_completed: Vec<ReqId>,
    /// Pin-down registration cache (user + internal buffers).
    pub pindown: PindownCache,
    /// Receiver-side datatype registry (type indices, §5.4.2).
    pub registry: TypeRegistry,
    /// Sender-side cache of peers' layouts.
    pub layout_cache: LayoutCache,
    /// How [`Self::plan_for`] lookups were served.
    pub(crate) plans: PlanLookups,
    /// Reusable host-side scratch buffers (byte copies, control
    /// buffers, SGE lists).
    pub scratch: ScratchPool,
    /// `(peer, index, version)` layouts this rank has already shipped.
    pub sent_layouts: HashSet<(u32, u32, u32)>,
    /// Internal dynamic buffer freelist (Generic scheme).
    pub internal: InternalBufs,
    /// One-sided operations posted but not yet locally complete (fence
    /// epoch accounting).
    pub rma_outstanding: u64,
    /// Origin-buffer registrations held until the next fence.
    pub rma_regs: Vec<ibdt_memreg::Registration>,
    /// Set when an RMA completion arrived (drained by the interpreter
    /// to re-check a blocked fence).
    pub rma_event: bool,
    /// User-buffer bytes currently pinned by budget-tracked zero-copy
    /// registrations (RWG-UP / Multi-W / P-RRS).
    pub pinned_user_bytes: u64,
    /// Connection-manager state per peer with a dead/rebuilding QP.
    pub reconn: Vec<Option<ReconnState>>,
    /// `(peer, seq)` of rendezvous receives already fully delivered —
    /// consulted when a resumed sender asks about a transfer whose FIN
    /// was lost to the failure.
    pub done_seqs: crate::table::DoneSet,
    /// Rank-level errors not attributable to a single request (flushed
    /// control traffic, malformed messages, failed RMA).
    pub errors: Vec<MpiError>,
    /// Counters.
    pub counters: RankCounters,
    /// Flow-control state per peer: a full `eager_credits` budget and
    /// zeroed counters until the first eager send.
    pub fc: Vec<FcPeer>,
    /// Payload-bearing (`Unexpected::Eager`) entries currently in the
    /// unexpected queue — the occupancy the credit bound caps.
    pub unexpected_eager: usize,
}

impl RankState {
    /// An empty shell of rank `rank` in a world of `nprocs`: no memory
    /// placed, no pool carved. [`RankState::reset`] places it, so every
    /// initial value is written in one place.
    pub fn new(rank: u32, nprocs: u32) -> Self {
        Self {
            rank,
            nprocs,
            cpu: SerialResource::new("cpu"),
            dma: SerialResource::new("dma"),
            pack_wire: Overlap::new(),
            eager_region: 0,
            eager_send_free: Vec::new(),
            eager_slot_len: Vec::new(),
            eager_pending: VecDeque::new(),
            eager_lkey: 0,
            pack_pool: SegmentPool::default(),
            unpack_pool: SegmentPool::default(),
            posted: VecDeque::new(),
            unexpected: VecDeque::new(),
            next_seq: vec![0; nprocs as usize],
            reqs: Vec::new(),
            open_reqs: 0,
            newly_completed: Vec::new(),
            pindown: PindownCache::disabled(),
            registry: TypeRegistry::new(),
            layout_cache: LayoutCache::new(),
            plans: PlanLookups::default(),
            scratch: ScratchPool::new(),
            sent_layouts: HashSet::new(),
            internal: InternalBufs::default(),
            rma_outstanding: 0,
            rma_regs: Vec::new(),
            rma_event: false,
            pinned_user_bytes: 0,
            reconn: (0..nprocs).map(|_| None).collect(),
            done_seqs: crate::table::DoneSet::new(nprocs as usize),
            errors: Vec::new(),
            counters: RankCounters::default(),
            fc: vec![FcPeer::default(); nprocs as usize],
            unexpected_eager: 0,
        }
    }

    /// Places the rank state in `mem`, configured by `cfg`: allocates
    /// and registers the eager region, sets its receive slot window,
    /// builds the send ring, carves both segment pools to `cfg`'s
    /// sizes, switches the pin-down cache on or off, and empties every
    /// queue, cache, table, and counter in place with its heap capacity
    /// retained. It runs on a [shell](RankState::new) and, in world
    /// recycling, on a rank state that served any earlier `cfg`,
    /// against a *reset* `mem`; deterministic allocation gives both the
    /// same addresses and keys, so behaviour afterwards is
    /// bit-identical. Receive descriptors are *not* posted here — the
    /// cluster does that (it needs the fabric).
    pub fn reset(&mut self, cfg: &MpiConfig, mem: &mut NodeMem) {
        // One region holds the send ring and all per-peer recv buffers.
        let send_bytes = cfg.eager_send_bufs as u64 * cfg.eager_buf_size;
        let recv_bytes =
            (self.nprocs as u64 - 1) * cfg.eager_bufs_per_peer as u64 * cfg.eager_buf_size;
        let region = mem
            .space
            .alloc_page_aligned(send_bytes + recv_bytes)
            .expect("address space too small for eager buffers");
        let reg = mem.regs.register(region, send_bytes + recv_bytes);
        mem.space
            .set_slot_window(region + send_bytes, recv_bytes, cfg.eager_buf_size)
            .expect("eager receive ring inside the address space");
        // A shell's region is 0, the null address no allocation returns.
        debug_assert!(
            self.eager_region == 0 || region == self.eager_region,
            "deterministic layout"
        );
        self.cpu.reset();
        self.dma.reset();
        self.pack_wire.reset();
        self.eager_region = region;
        self.eager_send_free.clear();
        self.eager_send_free.extend(
            (0..cfg.eager_send_bufs as u64)
                .rev()
                .map(|i| region + i * cfg.eager_buf_size),
        );
        self.eager_slot_len.clear();
        self.eager_slot_len.resize(cfg.eager_send_bufs, 0);
        self.eager_pending.clear();
        self.eager_lkey = reg.lkey;
        self.pack_pool
            .reset(
                &mut mem.space,
                &mut mem.regs,
                cfg.pack_pool_size,
                cfg.max_seg_size,
            )
            .expect("address space too small for pack pool");
        self.unpack_pool
            .reset(
                &mut mem.space,
                &mut mem.regs,
                cfg.unpack_pool_size,
                cfg.max_seg_size,
            )
            .expect("address space too small for unpack pool");
        self.posted.clear();
        self.unexpected.clear();
        self.next_seq.fill(0);
        self.reqs.clear();
        self.open_reqs = 0;
        self.newly_completed.clear();
        self.pindown.reset(cfg.pindown_cache, PINDOWN_CAPACITY);
        self.registry.reset();
        self.layout_cache.reset();
        self.plans = PlanLookups::default();
        self.scratch.reset();
        self.sent_layouts.clear();
        self.internal.free.clear();
        self.rma_outstanding = 0;
        self.rma_regs.clear();
        self.rma_event = false;
        self.pinned_user_bytes = 0;
        self.reconn.fill_with(|| None);
        self.done_seqs.reset();
        self.errors.clear();
        self.counters = RankCounters::default();
        self.fc.fill(FcPeer {
            credits: cfg.eager_credits,
            ..FcPeer::default()
        });
        self.unexpected_eager = 0;
    }

    /// Start address of the `i`-th receive buffer for `peer`.
    ///
    /// Layout: send ring first, then blocks of `eager_bufs_per_peer`
    /// buffers per peer in increasing peer order (own rank skipped).
    pub fn recv_buf_addr(&self, cfg: &MpiConfig, region_base: Va, peer: u32, i: usize) -> Va {
        let send_bytes = cfg.eager_send_bufs as u64 * cfg.eager_buf_size;
        let peer_slot = if peer < self.rank { peer } else { peer - 1 } as u64;
        region_base
            + send_bytes
            + (peer_slot * cfg.eager_bufs_per_peer as u64 + i as u64) * cfg.eager_buf_size
    }

    /// Returns the compiled transfer plan for `count` instances of
    /// `ty` from the type's memo ([`Datatype::plan`]). Every hot-path
    /// chunk, descriptor build, and pack/unpack goes through here.
    /// Compilation charges no virtual time.
    pub fn plan_for(&mut self, ty: &Datatype, count: u64) -> std::sync::Arc<TransferPlan> {
        let tally = &mut self.plans;
        let (plan, how) = ty.plan(count);
        match how {
            PlanLookup::Hit => tally.hits += 1,
            PlanLookup::Compiled => tally.compiled += 1,
            PlanLookup::Displaced => {
                tally.compiled += 1;
                tally.displaced += 1;
            }
        }
        plan
    }

    /// Allocates a new request handle.
    pub fn new_req(&mut self, kind: ReqKind) -> ReqId {
        let id = ReqId(self.reqs.len() as u32);
        self.reqs.push(ReqState {
            kind,
            done: false,
            error: None,
        });
        self.open_reqs += 1;
        id
    }

    /// Marks a request complete and queues the interpreter notification.
    pub fn complete_req(&mut self, req: ReqId) {
        let st = &mut self.reqs[req.0 as usize];
        debug_assert!(!st.done, "request completed twice");
        if !st.done {
            st.done = true;
            self.open_reqs -= 1;
        }
        self.newly_completed.push(req);
    }

    /// Marks a request failed with `err`. The request still counts as
    /// done — the program can make progress past it — but carries the
    /// error. Idempotent: duplicate flush completions sharing one wr_id
    /// may fail the same request more than once.
    pub fn fail_req(&mut self, req: ReqId, err: MpiError) {
        let st = &mut self.reqs[req.0 as usize];
        if st.done {
            return;
        }
        st.done = true;
        st.error = Some(err);
        self.open_reqs -= 1;
        self.newly_completed.push(req);
    }

    /// Every request issued since the run began, indexed by [`ReqId`].
    pub fn reqs(&self) -> &[ReqState] {
        &self.reqs
    }

    /// Whether all requests issued so far are done.
    pub fn all_reqs_done(&self) -> bool {
        self.open_reqs == 0
    }

    /// Checks the open-request count against a walk of the request
    /// table. O(requests), so callers run it once per run, not per
    /// `WaitAll` check.
    pub(crate) fn debug_check_open_reqs(&self) {
        debug_assert_eq!(
            self.open_reqs,
            self.reqs.iter().filter(|r| !r.done).count(),
            "rank {}: open-request count out of step with the request table",
            self.rank
        );
    }

    /// Next sequence number for messages to `peer`.
    pub fn take_seq(&mut self, peer: u32) -> u64 {
        let s = self.next_seq[peer as usize];
        self.next_seq[peer as usize] += 1;
        s
    }

    /// Queues an eager message no posted receive matched, tracking the
    /// payload-bearing backlog and its peak.
    pub fn push_unexpected_eager(&mut self, peer: u32, tag: u32, seq: u64, data: Vec<u8>) {
        if !data.is_empty() {
            self.unexpected_eager += 1;
            self.counters.peak_unexpected = self
                .counters
                .peak_unexpected
                .max(self.unexpected_eager as u64);
        }
        let msg = Unexpected::Eager {
            peer,
            tag,
            seq,
            data,
        };
        self.unexpected.push_back(msg);
    }

    /// Finds the first posted receive matching `(peer, tag)` and removes
    /// it. Posted receives may use [`ANY_SOURCE`] / [`ANY_TAG`]
    /// wildcards; incoming messages always carry concrete values.
    pub fn match_posted(&mut self, peer: u32, tag: u32) -> Option<PostedRecv> {
        let idx = self.posted.iter().position(|p| {
            (p.peer == peer || p.peer == ANY_SOURCE) && (p.tag == tag || p.tag == ANY_TAG)
        })?;
        self.posted.remove(idx)
    }

    /// Finds the first unexpected message matching `(peer, tag)` and
    /// removes it. `peer`/`tag` here come from the *receive call* and
    /// may be wildcards.
    pub fn match_unexpected(&mut self, peer: u32, tag: u32) -> Option<Unexpected> {
        let matches =
            |p: u32, t: u32| (peer == ANY_SOURCE || p == peer) && (tag == ANY_TAG || t == tag);
        let idx = self.unexpected.iter().position(|u| match u {
            Unexpected::Eager {
                peer: p, tag: t, ..
            } => matches(*p, *t),
            Unexpected::Rndv {
                peer: p, tag: t, ..
            } => matches(*p, *t),
        })?;
        self.unexpected.remove(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibdt_ibsim::NodeMem;

    fn rank_fixture() -> (NodeMem, RankState, MpiConfig) {
        let cfg = MpiConfig::default();
        let mut mem = NodeMem::new(256 << 20);
        let mut rs = RankState::new(0, 4);
        rs.reset(&cfg, &mut mem);
        (mem, rs, cfg)
    }

    #[test]
    fn init_builds_pools_and_ring() {
        let (_, rs, cfg) = rank_fixture();
        assert_eq!(rs.eager_send_free.len(), cfg.eager_send_bufs);
        assert_eq!(
            rs.pack_pool.total() as u64,
            cfg.pack_pool_size / cfg.max_seg_size
        );
        assert_eq!(rs.next_seq.len(), 4);
    }

    #[test]
    fn recv_buf_addresses_disjoint() {
        let (_, rs, cfg) = rank_fixture();
        let base = 4096; // arbitrary region base for the address math
        let mut seen = std::collections::HashSet::new();
        for peer in [1u32, 2, 3] {
            for i in 0..cfg.eager_bufs_per_peer {
                let a = rs.recv_buf_addr(&cfg, base, peer, i);
                assert!(seen.insert(a), "duplicate recv buffer address");
            }
        }
    }

    #[test]
    fn request_lifecycle() {
        let (_, mut rs, _) = rank_fixture();
        let r0 = rs.new_req(ReqKind::Send);
        let r1 = rs.new_req(ReqKind::Recv);
        assert!(!rs.all_reqs_done());
        rs.complete_req(r0);
        rs.complete_req(r1);
        assert!(rs.all_reqs_done());
        assert_eq!(rs.newly_completed, vec![r0, r1]);

        // A failed request counts as done; failing it again must not
        // count it twice and leave a later open request looking done.
        let r2 = rs.new_req(ReqKind::Send);
        let r3 = rs.new_req(ReqKind::Recv);
        assert!(!rs.all_reqs_done());
        rs.fail_req(r2, MpiError::Incomplete);
        assert!(!rs.all_reqs_done());
        rs.fail_req(r2, MpiError::Incomplete);
        assert!(!rs.all_reqs_done(), "duplicate fail closed r3");
        assert_eq!(rs.reqs[r2.0 as usize].error, Some(MpiError::Incomplete));
        rs.complete_req(r3);
        assert!(rs.all_reqs_done());

        // Mixed order: complete, fail, complete across interleaved
        // issues; failing a completed request is a no-op.
        let r4 = rs.new_req(ReqKind::Recv);
        let r5 = rs.new_req(ReqKind::Send);
        rs.complete_req(r5);
        assert!(!rs.all_reqs_done());
        let r6 = rs.new_req(ReqKind::Send);
        rs.fail_req(r5, MpiError::Incomplete);
        assert_eq!(rs.reqs[r5.0 as usize].error, None);
        rs.fail_req(r6, MpiError::Incomplete);
        assert!(!rs.all_reqs_done());
        rs.complete_req(r4);
        assert!(rs.all_reqs_done());
        assert_eq!(rs.newly_completed, vec![r0, r1, r2, r3, r5, r6, r4]);
        rs.debug_check_open_reqs();

        // A reset mid-flight forgets open requests.
        rs.new_req(ReqKind::Send);
        assert!(!rs.all_reqs_done());
        let (mut mem, cfg) = (NodeMem::new(256 << 20), MpiConfig::default());
        rs.reset(&cfg, &mut mem);
        assert!(rs.all_reqs_done());
        let r = rs.new_req(ReqKind::Recv);
        assert_eq!(r, ReqId(0));
        assert!(!rs.all_reqs_done());
        rs.complete_req(r);
        assert!(rs.all_reqs_done());
        rs.debug_check_open_reqs();
    }

    #[test]
    fn seq_numbers_are_per_peer() {
        let (_, mut rs, _) = rank_fixture();
        assert_eq!(rs.take_seq(1), 0);
        assert_eq!(rs.take_seq(1), 1);
        assert_eq!(rs.take_seq(2), 0);
    }

    #[test]
    fn matching_is_fifo_per_peer_tag() {
        let (_, mut rs, _) = rank_fixture();
        let t = Datatype::int();
        for (i, tag) in [(0u32, 5u32), (1, 7), (2, 5)] {
            let req = rs.new_req(ReqKind::Recv);
            rs.posted.push_back(PostedRecv {
                req,
                peer: 1,
                tag,
                buf: 1000 + i as u64,
                count: 1,
                ty: t.clone(),
            });
        }
        let m = rs.match_posted(1, 5).unwrap();
        assert_eq!(m.buf, 1000, "first posted wins");
        let m2 = rs.match_posted(1, 5).unwrap();
        assert_eq!(m2.buf, 1002);
        assert!(rs.match_posted(1, 5).is_none());
        assert!(rs.match_posted(2, 7).is_none(), "peer must match");
    }

    /// Property: under any interleaving of arrivals and matching calls,
    /// `match_unexpected` returns messages of one `(peer, tag)` class in
    /// exactly their arrival order — the FIFO guarantee the bounded
    /// unexpected queue and spill-to-rendezvous policy must preserve.
    #[test]
    fn unexpected_matching_is_fifo_per_class_under_interleaving() {
        ibdt_testkit::cases(0x5EED_F1F0, 32, |rng| {
            let (_, mut rs, _) = rank_fixture();
            // Arrival sequence number per (peer, tag) class, encoded in
            // the message payload/seq so matches can be checked.
            let mut arrived = std::collections::HashMap::new();
            let mut matched = std::collections::HashMap::new();
            for _ in 0..200 {
                let peer = rng.range_u64(1, 4) as u32;
                let tag = rng.range_u64(0, 3) as u32;
                if rng.chance(0.5) {
                    let n = arrived.entry((peer, tag)).or_insert(0u64);
                    if rng.chance(0.5) {
                        rs.unexpected.push_back(Unexpected::Eager {
                            peer,
                            tag,
                            seq: *n,
                            data: n.to_le_bytes().to_vec(),
                        });
                    } else {
                        rs.unexpected.push_back(Unexpected::Rndv {
                            peer,
                            tag,
                            seq: *n,
                            proposal: Proposal {
                                size: 1 << 20,
                                scheme: 1,
                                blk_min: 64,
                                blk_median: 128,
                            },
                        });
                    }
                    *n += 1;
                } else {
                    // Mix wildcard and exact receives.
                    let (p, t) = match rng.range_u64(0, 3) {
                        0 => (peer, tag),
                        1 => (ANY_SOURCE, tag),
                        _ => (peer, ANY_TAG),
                    };
                    if let Some(u) = rs.match_unexpected(p, t) {
                        let (up, ut, useq) = match u {
                            Unexpected::Eager { peer, tag, seq, .. } => (peer, tag, seq),
                            Unexpected::Rndv { peer, tag, seq, .. } => (peer, tag, seq),
                        };
                        let next = matched.entry((up, ut)).or_insert(0u64);
                        assert_eq!(useq, *next, "class ({up},{ut}) matched out of order");
                        *next += 1;
                    }
                }
            }
            // Everything still queued must also be in order per class.
            while let Some(u) = rs.match_unexpected(ANY_SOURCE, ANY_TAG) {
                let (up, ut, useq) = match u {
                    Unexpected::Eager { peer, tag, seq, .. } => (peer, tag, seq),
                    Unexpected::Rndv { peer, tag, seq, .. } => (peer, tag, seq),
                };
                let next = matched.entry((up, ut)).or_insert(0u64);
                assert_eq!(useq, *next, "drain out of order");
                *next += 1;
            }
            assert_eq!(arrived, matched, "messages lost");
        });
    }

    #[test]
    fn unexpected_matching() {
        let (_, mut rs, _) = rank_fixture();
        rs.unexpected.push_back(Unexpected::Eager {
            peer: 2,
            tag: 9,
            seq: 0,
            data: vec![1, 2, 3],
        });
        assert!(rs.match_unexpected(2, 8).is_none());
        let u = rs.match_unexpected(2, 9).unwrap();
        assert!(matches!(u, Unexpected::Eager { .. }));
        assert!(rs.unexpected.is_empty());
    }
}
