//! The MPI progress engine: eager and rendezvous protocol state
//! machines for every datatype communication scheme.
//!
//! Structure: [`isend`]/[`irecv`] start operations; [`on_cqe`] reacts to
//! fabric completions (control arrivals, segment immediates, local data
//! completions); [`on_cpu`] reacts to host-work completions (a segment
//! packed/unpacked, registration finished). All host work is charged on
//! the rank's FIFO CPU resource, so pack ∥ wire ∥ unpack overlap — the
//! paper's central mechanism — emerges from the schedule rather than
//! being asserted.
//!
//! Functional-now, complete-later: memory effects (packing bytes,
//! placing data) happen at event-processing time; *completion events*
//! fire when the modelled cost has elapsed. MPI's buffer-ownership rules
//! make this safe: a correct program never touches a buffer while an
//! operation that uses it is in flight.

use crate::config::{MpiConfig, Scheme};
use crate::error::MpiError;
use crate::msg::{CtrlMsg, ReplyBody, SegList};
use crate::plan::{
    adaptive_choose, eager_via_temp, for_each_substream_piece, imm_of, imm_parse, lkey_for,
    plan_gather, plan_multi_w, plan_reply, reads_rcv_blocks, receiver_scheme, region_key,
    renegotiates_on_fault, resumes_from_prefix, send_geometry, send_prep, staging_chunk_for,
    substream_len, Pack, Pin, PrepAt, Refused, ReplyKind, ReplyPlan, SendPrep, Tail, WrFrame,
    FALLBACK,
};
use crate::rank::{PostedRecv, RankState, ReqId, ReqKind, Unexpected};
use crate::table::{ImmMap, MsgTable};
use ibdt_datatype::{BlockStats, Datatype, TransferPlan};
use ibdt_ibsim::{
    Cqe, HostConfig, NetConfig, NicEvent, NodeMem, Opcode, PostError, RecvWr, SendWr, Sge, SgeList,
    Transport,
};
use ibdt_memreg::{ogr, Registration, Va};
use ibdt_simcore::engine::Scheduler;
use ibdt_simcore::pipeline::MAX_PIPELINE_BUFS;
use ibdt_simcore::time::Time;
use std::collections::HashSet;
use std::sync::Arc;

/// Top-level simulation event for the MPI world.
#[derive(Debug)]
pub enum Ev {
    /// A fabric event (arrivals, local completions, RNR retries).
    Nic(NicEvent),
    /// Host work finished on `rank`.
    Cpu {
        /// The rank whose CPU finished.
        rank: u32,
        /// What finished.
        act: CpuAct,
    },
    /// Re-run the program interpreter of `rank`.
    Resume {
        /// The rank to resume.
        rank: u32,
    },
    /// The rank's CPU finished draining `n` entries from its completion
    /// queue — returns that many slots to the bounded CQ. Scheduled only
    /// when `cq_depth` is finite, so default runs see no new events.
    CqAck {
        /// The rank whose completion queue drained.
        rank: u32,
        /// Completion entries consumed.
        n: u32,
    },
}

/// Host-work completions that drive protocol state forward.
#[derive(Debug, Clone, Copy)]
pub enum CpuAct {
    /// Sender packed segment `k` of message `(peer, seq)`.
    PackSeg {
        /// Destination rank of the send.
        peer: u32,
        /// Message sequence number.
        seq: u64,
        /// Segment index.
        k: u32,
    },
    /// Receiver unpacked segments of the packed substream.
    UnpackSeg {
        /// Source rank.
        peer: u32,
        /// Sequence number.
        seq: u64,
        /// Segments unpacked: one, or all of them for the Fig. 12
        /// batch.
        segs: u32,
    },
    /// Sender finished registering its user buffer (RWG-UP / Multi-W).
    SenderRegDone {
        /// Destination rank.
        peer: u32,
        /// Sequence number.
        seq: u64,
    },
    /// Receiver finished its rendezvous preparation; the stored reply
    /// can be sent.
    ReceiverReady {
        /// Source rank.
        peer: u32,
        /// Sequence number.
        seq: u64,
    },
    /// An eager-path send finished packing, or an eager-path receive
    /// unpacking: the request is complete.
    EagerDone {
        /// The completed request.
        req: ReqId,
    },
    /// The rendezvous-reply timeout fired for message `(peer, seq)`
    /// (scheduled only when `rndv_reply_timeout_ns > 0`).
    ReplyTimeout {
        /// Destination rank of the stalled send.
        peer: u32,
        /// Message sequence number.
        seq: u64,
    },
    /// The connection-manager handshake to `peer` finished: the queue
    /// pair is re-established and suspended traffic can be re-driven.
    Reconnect {
        /// The reconnected peer.
        peer: u32,
    },
}

/// Shared mutable context threaded through the protocol functions.
pub struct Ctx<'a, 'b> {
    /// The transport backend (IB fabric or shared-memory channel),
    /// driven through the [`Transport`] trait.
    pub fabric: &'a mut dyn Transport,
    /// All ranks' memories.
    pub mems: &'a mut Vec<NodeMem>,
    /// Network cost model.
    pub net: &'a NetConfig,
    /// Host cost model.
    pub host: &'a HostConfig,
    /// MPI configuration.
    pub cfg: &'a MpiConfig,
    /// Event scheduler.
    pub sched: &'a mut Scheduler<'b, Ev>,
}

impl Ctx<'_, '_> {
    pub(crate) fn now(&self) -> Time {
        self.sched.now()
    }

    pub(crate) fn post_send(
        &mut self,
        ready_at: Time,
        node: u32,
        peer: u32,
        wr: SendWr,
    ) -> Result<(), PostError> {
        let Self {
            fabric,
            mems,
            sched,
            ..
        } = self;
        fabric.post_send(ready_at, node, peer, wr, mems, &mut |t, e| {
            sched.at(t, Ev::Nic(e))
        })
    }

    pub(crate) fn post_send_list(
        &mut self,
        ready_at: Time,
        node: u32,
        peer: u32,
        wrs: Vec<SendWr>,
    ) -> Result<(), PostError> {
        let Self {
            fabric,
            mems,
            sched,
            ..
        } = self;
        fabric.post_send_list(ready_at, node, peer, wrs, mems, &mut |t, e| {
            sched.at(t, Ev::Nic(e))
        })
    }

    fn post_recv(&mut self, now: Time, node: u32, peer: u32, wr: RecvWr) {
        let Self {
            fabric,
            mems,
            sched,
            ..
        } = self;
        fabric
            .post_recv(now, node, peer, wr, mems, &mut |t, e| {
                sched.at(t, Ev::Nic(e))
            })
            .expect("protocol posted an invalid receive");
    }

    fn cpu_event(&mut self, at: Time, rank: u32, act: CpuAct) {
        self.sched.at(at, Ev::Cpu { rank, act });
    }
}

/// Work-request id namespaces (low bits carry a value, high byte the
/// kind).
const WR_KIND_SHIFT: u32 = 56;
const WR_EAGER: u64 = 1 << WR_KIND_SHIFT; // low bits: send ring buffer va
const WR_DATA: u64 = 2 << WR_KIND_SHIFT; // low bits: seq
const WR_READ: u64 = 3 << WR_KIND_SHIFT; // low bits: seq
/// One-sided RMA work requests (completion tracked per fence epoch).
pub(crate) const WR_RMA: u64 = 4 << WR_KIND_SHIFT;
const WR_LOW_MASK: u64 = (1 << WR_KIND_SHIFT) - 1;

/// Immediate segment index reserved for the Hybrid completion marker.
const MARKER_K: u32 = 0xFFFF;

/// Where the sender aims its data, per the rendezvous reply.
#[derive(Debug)]
enum SendTargets {
    /// The segment pipeline: segment `k` of the packed substream lands
    /// in `segs[k]` (Generic's one whole-message buffer, BC-SPUP,
    /// RWG-UP, Hybrid).
    Segments { segs: SegList, feed: Feed },
    /// Multi-W: receiver block list and covering regions.
    MultiW {
        rcv_blocks: Vec<(Va, u64)>,
        regions: Vec<(Va, u64, u32)>,
    },
    /// P-RRS: receiver will read; sender announces packed segments.
    ReadGo,
}

/// What feeds the segment pipeline.
#[derive(Debug)]
enum Feed {
    /// Packed staging buffers (Generic, BC-SPUP).
    Packed,
    /// Gather writes from the pinned user buffer (RWG-UP).
    Gathered,
    /// Packed staging for the small blocks, plus a direct write of the
    /// stream range `[lo, hi)` to receiver address `dst` for each
    /// `(lo, hi, dst)` in `direct`, keyed by `regions`, and a completion
    /// marker after the last segment (Hybrid).
    Hybrid {
        direct: Vec<(u64, u64, Va)>,
        regions: Vec<(Va, u64, u32)>,
    },
}

pub(crate) use crate::pool::StageBuf;

/// Sender-side state of one rendezvous message.
#[derive(Debug)]
struct SendMsg {
    req: ReqId,
    peer: u32,
    seq: u64,
    /// Match tag, kept so a §5.4.2 renegotiation can re-send the
    /// rendezvous start verbatim.
    tag: u32,
    buf: Va,
    count: u64,
    ty: Datatype,
    size: u64,
    scheme: Scheme,
    nsegs: u32,
    seg_size: u64,
    pack_bufs: Vec<StageBuf>,
    /// Stream intervals the pack pipeline carries, in order: empty for
    /// the whole stream, Hybrid's small-block partition otherwise.
    packed_ivs: Vec<(u64, u64)>,
    packed: u32,
    posted_segs: u32,
    pack_chain_running: bool,
    /// Multi-W and Hybrid direct writes are out.
    direct_posted: bool,
    /// Hybrid's completion marker is out.
    marker_posted: bool,
    /// Single-block sender (contiguous data): zero-copy paths apply.
    contig: bool,
    targets: Option<SendTargets>,
    reg_done: bool,
    user_regs: Vec<Registration>,
    /// P-RRS: completion arrives via Fin instead of a local data CQE.
    completed: bool,
    /// Rendezvous-reply probes sent so far (§reply timeout).
    rerequests: u32,
    /// Multi-W degraded mode: the pinning budget barred registering the
    /// user buffer, so data is staged through a copy buffer and written
    /// into the receiver's blocks from there.
    mw_stage: bool,
    /// User-buffer bytes this message charged against
    /// `reg_budget_bytes`.
    pinned_bytes: u64,
    /// Set after a protection-fault fallback (§5.4.2): the message was
    /// renegotiated once as BC-SPUP; a second remote-access error is
    /// fatal.
    renegotiated: bool,
    /// Stale pack completions to discard after a renegotiation reset
    /// the pack pipeline.
    drop_packs: u32,
}

/// Receiver-side state of one rendezvous message.
#[derive(Debug)]
struct RecvMsg {
    req: ReqId,
    peer: u32,
    seq: u64,
    buf: Va,
    count: u64,
    ty: Datatype,
    size: u64,
    /// The scheme and reply committed by [`commit_reply`].
    scheme: Scheme,
    plan: ReplyPlan,
    unpack_bufs: Vec<StageBuf>,
    segs_arrived: u32,
    /// Segments of the packed substream whose bytes are placed:
    /// unpacked, or for P-RRS announced with their reads posted.
    segs_done: u32,
    user_regs: Vec<Registration>,
    pending_reply: Option<Vec<u8>>,
    /// P-RRS: outstanding RDMA reads.
    reads_outstanding: u32,
    /// The direct part landed: Multi-W's last write or Hybrid's marker
    /// arrived. Set from the start for replies without a direct part.
    direct_done: bool,
    completed: bool,
    /// User-buffer bytes this message charged against
    /// `reg_budget_bytes`.
    pinned_bytes: u64,
    /// Copy of the sent reply, kept for probe-triggered resends.
    reply_copy: Option<Vec<u8>>,
    /// Segment indices already written (dedup across recovery
    /// re-drives: a resumed sender may repeat delivered segments).
    segs_seen: HashSet<u32>,
    /// Stale unpack completions to discard after a renegotiation reset
    /// the unpack pipeline.
    drop_unpacks: u32,
}

/// Active rendezvous messages of one rank. Records live in slab-backed
/// dense tables ([`MsgTable`]) keyed `(peer, seq)` — message lifecycle
/// is index arithmetic, not hash insert/remove per message.
#[derive(Debug)]
pub struct ActiveMsgs {
    sends: MsgTable<SendMsg>,
    recvs: MsgTable<RecvMsg>,
    /// Immediate-data demux: `(peer, seq16)` → full sequence number.
    imm_map: ImmMap,
}

impl ActiveMsgs {
    /// Empty tables for a rank with `nprocs` peers.
    pub fn new(nprocs: usize) -> Self {
        ActiveMsgs {
            sends: MsgTable::new(nprocs),
            recvs: MsgTable::new(nprocs),
            imm_map: ImmMap::new(nprocs),
        }
    }

    /// True when no rendezvous transfers are in flight.
    pub fn is_idle(&self) -> bool {
        self.sends.is_empty() && self.recvs.is_empty()
    }

    /// Empties all tables, keeping their capacity (world recycling).
    pub fn reset(&mut self) {
        self.sends.reset();
        self.recvs.reset();
        self.imm_map.reset();
    }
}

// ---------------------------------------------------------------------
// Public entry points
// ---------------------------------------------------------------------

/// Starts a nonblocking send.
#[allow(clippy::too_many_arguments)]
pub fn isend(
    rs: &mut RankState,
    am: &mut ActiveMsgs,
    ctx: &mut Ctx<'_, '_>,
    peer: u32,
    buf: Va,
    count: u64,
    ty: &Datatype,
    tag: u32,
) -> ReqId {
    assert!(
        peer != crate::rank::ANY_SOURCE && tag != crate::rank::ANY_TAG,
        "wildcards are receive-side only"
    );
    let req = rs.new_req(ReqKind::Send);
    let size = count * ty.size();
    rs.cpu
        .reserve_labeled(ctx.now(), ctx.cfg.call_overhead_ns, "call");

    if peer == rs.rank {
        self_send(rs, ctx, req, buf, count, ty, tag);
        return req;
    }
    if size <= ctx.cfg.eager_threshold {
        // Credit-based flow control (MVAPICH RDMA channel, cs/0310059):
        // an eager data message needs a credit and a slot under the
        // pending-queue bound. Without either, degrade the message to
        // rendezvous — eager data and RndvStart share the same in-order
        // control stream (ring + pending FIFO), so per-(peer, tag)
        // matching order is preserved across the spill. Zero-size
        // messages carry no payload worth bounding and stay eager.
        if !ctx.cfg.flow_control || size == 0 {
            eager_send(rs, ctx, req, peer, buf, count, ty, tag, size);
            return req;
        }
        if ctx.cfg.pending_cap > 0 && rs.eager_pending.len() >= ctx.cfg.pending_cap {
            // Rung 2 of the degradation ladder: throttled eager.
            rs.counters.pending_spills += 1;
        } else if rs.fc[peer as usize].credits == 0 {
            // Rung 3: the peer's receive resources are exhausted.
            rs.counters.credit_spills += 1;
        } else {
            rs.fc[peer as usize].credits -= 1;
            rs.fc[peer as usize].sent += 1;
            eager_send(rs, ctx, req, peer, buf, count, ty, tag, size);
            return req;
        }
    }

    rs.counters.rndv_sends += 1;
    let seq = rs.take_seq(peer);
    let stats = rs.plan_for(ty, count).stats();
    let scheme = ctx.cfg.scheme;
    let mut msg = start_send(
        rs,
        ctx,
        req,
        peer,
        seq,
        tag,
        buf,
        count,
        ty.clone(),
        scheme,
        stats,
    );
    if ctx.cfg.rndv_reply_timeout_ns > 0 {
        let at = ctx.now() + ctx.cfg.rndv_reply_timeout_ns;
        ctx.cpu_event(at, rs.rank, CpuAct::ReplyTimeout { peer, seq });
    }
    let median = stats.median;
    let predicted = adaptive_choose(ctx.cfg, ctx.fabric.class(), size, median, median);
    let prep = send_prep(scheme, msg.contig, PrepAt::Start { predicted });
    prepare_send(rs, ctx, &mut msg, prep);
    am.sends.insert((peer, seq), msg);
    req
}

/// Starts a rendezvous send generation of `scheme`: sends the
/// `RndvStart` that proposes it and returns the message with nothing
/// packed, pinned or posted. [`isend`] and the §5.4.2 renegotiation
/// both start their generations here.
#[allow(clippy::too_many_arguments)]
fn start_send(
    rs: &mut RankState,
    ctx: &mut Ctx<'_, '_>,
    req: ReqId,
    peer: u32,
    seq: u64,
    tag: u32,
    buf: Va,
    count: u64,
    ty: Datatype,
    scheme: Scheme,
    stats: BlockStats,
) -> SendMsg {
    let size = count * ty.size();
    let (nsegs, seg_size) = send_geometry(scheme, size, ctx.cfg);
    let start = CtrlMsg::RndvStart {
        tag,
        seq,
        size,
        scheme: scheme.to_wire(),
        nsegs,
        seg_size,
        blk_min: stats.min,
        blk_median: stats.median,
    };
    send_ctrl_msg(rs, ctx, peer, &start, 0);
    SendMsg {
        req,
        peer,
        seq,
        tag,
        buf,
        count,
        ty,
        size,
        scheme,
        nsegs,
        seg_size,
        pack_bufs: rs.scratch.take_stage(),
        packed_ivs: Vec::new(),
        packed: 0,
        posted_segs: 0,
        pack_chain_running: false,
        direct_posted: false,
        marker_posted: false,
        contig: stats.min >= size,
        targets: None,
        reg_done: false,
        user_regs: Vec::new(),
        completed: false,
        rerequests: 0,
        mw_stage: false,
        pinned_bytes: 0,
        renegotiated: false,
        drop_packs: 0,
    }
}

/// Starts a nonblocking receive.
#[allow(clippy::too_many_arguments)]
pub fn irecv(
    rs: &mut RankState,
    am: &mut ActiveMsgs,
    ctx: &mut Ctx<'_, '_>,
    peer: u32,
    buf: Va,
    count: u64,
    ty: &Datatype,
    tag: u32,
) -> ReqId {
    let req = rs.new_req(ReqKind::Recv);
    rs.cpu
        .reserve_labeled(ctx.now(), ctx.cfg.call_overhead_ns, "call");

    match rs.match_unexpected(peer, tag) {
        Some(Unexpected::Eager {
            peer: src, data, ..
        }) => {
            if !data.is_empty() {
                fc_unexpected_removed(rs, ctx);
            }
            fc_on_eager_matched(rs, ctx, src, data.len() as u64);
            eager_deliver(rs, ctx, req, buf, count, ty, &data);
        }
        Some(Unexpected::Rndv {
            peer,
            seq,
            size,
            scheme,
            blk_min,
            blk_median,
            ..
        }) => {
            let posted = PostedRecv {
                req,
                peer,
                tag,
                buf,
                count,
                ty: ty.clone(),
            };
            receiver_start(rs, am, ctx, posted, seq, size, scheme, blk_min, blk_median);
        }
        None => {
            rs.posted.push_back(PostedRecv {
                req,
                peer,
                tag,
                buf,
                count,
                ty: ty.clone(),
            });
        }
    }
    req
}

/// Handles a completion queue entry for `rank`.
pub fn on_cqe(rs: &mut RankState, am: &mut ActiveMsgs, ctx: &mut Ctx<'_, '_>, cqe: Cqe) {
    if !cqe.status.is_ok() {
        on_cqe_error(rs, am, ctx, cqe);
        return;
    }
    if cqe.is_recv {
        // Charge CQE handling.
        rs.cpu.reserve_labeled(ctx.now(), ctx.net.cqe_ns, "cqe");
        match cqe.imm {
            None => {
                // Copy the eager bytes out through a recycled scratch
                // buffer (the ring slot is reposted before dispatch, so
                // the bytes cannot be borrowed in place).
                let va = cqe.wr_id;
                let space = &ctx.mems[rs.rank as usize].space;
                let slot = space.slice(va, cqe.byte_len);
                let bytes = rs.scratch.take_copy(slot.expect("eager buffer readable"));
                repost_eager_recv(rs, ctx, cqe.peer, va);
                on_ctrl(rs, am, ctx, cqe.peer, &bytes);
                rs.scratch.put_bytes(bytes);
            }
            Some(imm) => {
                // Segment arrival notification; the consumed descriptor
                // is replaced.
                let va = cqe.wr_id;
                repost_eager_recv(rs, ctx, cqe.peer, va);
                on_segment_arrival(rs, am, ctx, cqe.peer, imm);
            }
        }
    } else {
        match cqe.wr_id & !WR_LOW_MASK {
            WR_EAGER => {
                let va = cqe.wr_id & WR_LOW_MASK;
                rs.eager_send_free.push(va);
                drain_pending_eager(rs, ctx);
            }
            WR_DATA => {
                let seq = cqe.wr_id & WR_LOW_MASK;
                sender_done(rs, am, ctx, cqe.peer, seq, false);
            }
            WR_READ => {
                let seq = cqe.wr_id & WR_LOW_MASK;
                receiver_read_done(rs, am, ctx, cqe.peer, seq);
            }
            WR_RMA => {
                debug_assert!(rs.rma_outstanding > 0);
                rs.rma_outstanding -= 1;
                rs.rma_event = true;
            }
            other => {
                // A WR id outside every known namespace is a protocol
                // bug; surface it as a typed error instead of tearing
                // the whole simulation down.
                debug_assert!(false, "unknown WR id namespace {other:#x}");
                rs.errors.push(MpiError::UnknownMessage {
                    peer: cqe.peer,
                    seq: cqe.wr_id & WR_LOW_MASK,
                });
            }
        }
    }
}

/// Handles a failed completion: recover the resources the dead work
/// request held and fail the owning request with a typed error.
/// Duplicate flush CQEs (many data WRs share one `wr_id`) find the
/// message already gone and fall through silently.
fn on_cqe_error(rs: &mut RankState, am: &mut ActiveMsgs, ctx: &mut Ctx<'_, '_>, cqe: Cqe) {
    rs.counters.cqe_errors += 1;
    let mut err = MpiError::from_cqe(cqe.peer, cqe.status);
    if cqe.is_recv {
        // A failed receive completion (bad eager length): the
        // descriptor is consumed — record the rank-level error.
        rs.errors.push(err);
        return;
    }
    let peer = cqe.peer;
    let kind = cqe.wr_id & !WR_LOW_MASK;
    let low = cqe.wr_id & WR_LOW_MASK;
    // Transport-class failures (flush, retry exhaustion) hand the
    // affected traffic to the connection manager instead of failing
    // the owning requests; the reconnect event re-drives it.
    if recoverable(&err) && matches!(kind, WR_EAGER | WR_DATA | WR_READ) {
        if ensure_reconnect(rs, ctx, peer) {
            let r = rs.reconn.get_mut(&peer).expect("entry ensured above");
            match kind {
                WR_EAGER => r.eager_slots.push(low),
                WR_DATA => {
                    if am.sends.contains_key(&(peer, low)) {
                        r.sends.insert(low);
                    }
                }
                _ => {
                    if am.recvs.contains_key(&(peer, low)) {
                        r.recvs.insert(low);
                    }
                }
            }
            return;
        }
        err = give_up_error(rs, ctx, peer);
        drain_suspended(rs, am, ctx, peer, err);
    }
    match kind {
        WR_EAGER => {
            rs.eager_send_free.push(low);
            rs.errors.push(err);
            drain_pending_eager(rs, ctx);
        }
        WR_DATA => {
            // §5.4.2: a remote-access error on a zero-copy write means
            // the receiver's registration was evicted under the
            // transfer. Renegotiate the message as BC-SPUP once
            // instead of failing it.
            let Some(msg) = am.sends.remove(&(peer, low)) else {
                return;
            };
            if matches!(err, MpiError::RemoteAccess { .. }) {
                if !msg.renegotiated && renegotiates_on_fault(msg.scheme) {
                    rs.counters.protection_fallbacks += 1;
                    renegotiate_send(rs, am, ctx, msg);
                    return;
                }
                if msg.renegotiated {
                    err = MpiError::Registration { peer };
                }
            }
            finish_send(rs, ctx, msg, Some(err));
        }
        WR_READ => {
            abort_recv(rs, am, ctx, peer, low, err);
        }
        WR_RMA => {
            rs.rma_outstanding = rs.rma_outstanding.saturating_sub(1);
            rs.rma_event = true;
            rs.errors.push(err);
        }
        _ => rs.errors.push(err),
    }
}

/// Finishes a send — done, or failed with `err` when its data can no
/// longer be delivered: releases staging buffers and registrations and
/// completes the request.
fn finish_send(rs: &mut RankState, ctx: &mut Ctx<'_, '_>, mut msg: SendMsg, err: Option<MpiError>) {
    if msg.completed {
        return;
    }
    msg.completed = true;
    sender_release(rs, ctx, &mut msg);
    match err {
        Some(err) => rs.fail_req(msg.req, err),
        None => rs.complete_req(msg.req),
    }
}

/// Fails a receive: releases unpack buffers and registrations, drops
/// the immediate-data mapping, and completes the request with `err`.
/// Silently returns when the message is already gone (duplicate flush).
fn abort_recv(
    rs: &mut RankState,
    am: &mut ActiveMsgs,
    ctx: &mut Ctx<'_, '_>,
    peer: u32,
    seq: u64,
    err: MpiError,
) {
    let Some(mut msg) = am.recvs.remove(&(peer, seq)) else {
        return;
    };
    msg.completed = true;
    am.imm_map.remove(&(peer, (seq & 0xFFFF) as u16));
    receiver_release(rs, ctx, &mut msg);
    rs.fail_req(msg.req, err);
}

/// Handles a host-work completion for `rank`.
pub fn on_cpu(rs: &mut RankState, am: &mut ActiveMsgs, ctx: &mut Ctx<'_, '_>, act: CpuAct) {
    match act {
        CpuAct::EagerDone { req } => rs.complete_req(req),
        CpuAct::PackSeg { peer, seq, k } => {
            let Some(mut msg) = am.sends.remove(&(peer, seq)) else {
                return;
            };
            if msg.drop_packs > 0 {
                // Stale completion from a pack pipeline a renegotiation
                // tore down; the new pipeline runs its own chain.
                msg.drop_packs -= 1;
                am.sends.insert((peer, seq), msg);
                return;
            }
            debug_assert_eq!(msg.packed, k, "pack completions out of order");
            msg.packed = k + 1;
            msg.pack_chain_running = false;
            rs.counters.packs += 1;
            rs.counters.bytes_packed += seg_len(&msg, k);
            drive_send(rs, am, ctx, msg);
        }
        CpuAct::SenderRegDone { peer, seq } => {
            let Some(mut msg) = am.sends.remove(&(peer, seq)) else {
                return;
            };
            msg.reg_done = true;
            drive_send(rs, am, ctx, msg);
        }
        CpuAct::ReceiverReady { peer, seq } => {
            let Some(msg) = am.recvs.get_mut(&(peer, seq)) else {
                return;
            };
            if let Some(reply) = msg.pending_reply.take() {
                let mut copy = rs.scratch.take_ctrl();
                copy.extend_from_slice(&reply);
                msg.reply_copy = Some(copy);
                send_ctrl(rs, ctx, peer, reply, 0);
            }
        }
        CpuAct::ReplyTimeout { peer, seq } => {
            let Some(mut msg) = am.sends.remove(&(peer, seq)) else {
                return;
            };
            if msg.targets.is_some() || msg.completed {
                // The reply arrived in the meantime.
                am.sends.insert((peer, seq), msg);
                return;
            }
            if msg.rerequests >= ctx.cfg.rndv_max_rerequests {
                finish_send(rs, ctx, msg, Some(MpiError::ReplyTimeout { peer, seq }));
                return;
            }
            msg.rerequests += 1;
            rs.counters.rndv_rerequests += 1;
            send_ctrl_msg(rs, ctx, peer, &CtrlMsg::RndvProbe { seq }, 0);
            let at = ctx.now() + ctx.cfg.rndv_reply_timeout_ns;
            ctx.cpu_event(at, rs.rank, CpuAct::ReplyTimeout { peer, seq });
            am.sends.insert((peer, seq), msg);
        }
        CpuAct::UnpackSeg { peer, seq, segs } => {
            let Some(msg) = am.recvs.get_mut(&(peer, seq)) else {
                return;
            };
            if msg.drop_unpacks > 0 {
                // Stale completion from before a renegotiation reset
                // the unpack pipeline.
                msg.drop_unpacks -= 1;
                return;
            }
            msg.segs_done += segs;
            rs.counters.unpacks += 1;
            receiver_complete(rs, am, ctx, peer, seq);
        }
        CpuAct::Reconnect { peer } => do_reconnect(rs, am, ctx, peer),
    }
}

// ---------------------------------------------------------------------
// Credit-based eager flow control (MVAPICH RDMA channel, cs/0310059)
// ---------------------------------------------------------------------

/// True while the receiver withholds credit grants: the payload-bearing
/// unexpected backlog reached half of `unexpected_cap`, so senders must
/// starve and degrade to rendezvous (whose unexpected entries are
/// header-only) instead of growing the queue further.
fn fc_grants_blocked(rs: &RankState, cfg: &MpiConfig) -> bool {
    cfg.unexpected_cap > 0 && rs.unexpected_eager * 2 >= cfg.unexpected_cap
}

/// Takes an encode buffer, prepending any credits owed to `peer` so
/// they ride piggybacked in front of the message about to be encoded —
/// zero extra wire traffic whenever there is reverse traffic to carry
/// them.
fn take_ctrl_buf_credits(rs: &mut RankState, cfg: &MpiConfig, peer: u32) -> Vec<u8> {
    let mut bytes = rs.scratch.take_ctrl();
    if cfg.flow_control && peer != rs.rank && !fc_grants_blocked(rs, cfg) {
        let owed = rs.fc[peer as usize].owed;
        if owed > 0 {
            CtrlMsg::CreditUpdate { credits: owed }.encode_into(&mut bytes);
            rs.fc[peer as usize].owed = 0;
            rs.fc[peer as usize].granted += owed as u64;
            rs.counters.credits_piggybacked += owed as u64;
        }
    }
    bytes
}

/// Accounts a matched eager payload from `peer`. The credit is returned
/// at *match* time (not arrival): piggybacked on the next outgoing
/// message to `peer`, or — when half the peer's credit pool is owed and
/// no reverse traffic has carried it back — via an explicit
/// `CreditUpdate`, so a starved sender is always unblocked eventually.
fn fc_on_eager_matched(rs: &mut RankState, ctx: &mut Ctx<'_, '_>, peer: u32, size: u64) {
    if !ctx.cfg.flow_control || size == 0 || peer == rs.rank {
        return;
    }
    rs.fc[peer as usize].matched += 1;
    rs.fc[peer as usize].owed += 1;
    if fc_grants_blocked(rs, ctx.cfg) {
        rs.counters.grants_deferred += 1;
        return;
    }
    if rs.fc[peer as usize].owed >= (ctx.cfg.eager_credits / 2).max(1) {
        fc_send_credits(rs, ctx, peer);
    }
}

/// Sends an explicit `CreditUpdate` carrying everything owed to `peer`.
fn fc_send_credits(rs: &mut RankState, ctx: &mut Ctx<'_, '_>, peer: u32) {
    let owed = rs.fc[peer as usize].owed;
    if owed == 0 {
        return;
    }
    rs.fc[peer as usize].owed = 0;
    rs.fc[peer as usize].granted += owed as u64;
    rs.counters.credit_msgs += 1;
    send_ctrl_msg(rs, ctx, peer, &CtrlMsg::CreditUpdate { credits: owed }, 0);
}

/// A payload-bearing unexpected entry was matched out of the queue:
/// update occupancy, and when the backlog just dropped below the
/// grant-withholding threshold, flush deferred grants to every peer so
/// starved senders resume (degradation is graceful both ways).
fn fc_unexpected_removed(rs: &mut RankState, ctx: &mut Ctx<'_, '_>) {
    let was_blocked = fc_grants_blocked(rs, ctx.cfg);
    debug_assert!(rs.unexpected_eager > 0, "occupancy tracking out of sync");
    rs.unexpected_eager -= 1;
    if was_blocked && !fc_grants_blocked(rs, ctx.cfg) {
        for peer in 0..rs.nprocs {
            if rs.fc[peer as usize].owed > 0 {
                fc_send_credits(rs, ctx, peer);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Device tier: staged bounce-buffer pipeline (DESIGN §16, TEMPI)
// ---------------------------------------------------------------------

/// True when the user buffer at `buf` is device-resident on `rank`.
/// The enabled-flag and empty-map checks keep this a two-branch
/// predicate on the default (all-host) configuration, which is the
/// bit-identity guarantee for the pre-device-tier cost model.
fn buf_on_device(ctx: &Ctx<'_, '_>, rank: u32, buf: Va) -> bool {
    if !ctx.host.device.enabled {
        return false;
    }
    let tiers = &ctx.mems[rank as usize].tiers;
    !tiers.is_empty() && tiers.is_device(buf)
}

/// Registration surcharge for pinning device-resident memory (the
/// driver must translate and pin device pages for RDMA; one extra
/// fixed-cost ioctl per registration batch).
fn device_reg_extra(ctx: &Ctx<'_, '_>, rank: u32, buf: Va) -> Time {
    if buf_on_device(ctx, rank, buf) {
        ctx.host.device.reg_extra_ns
    } else {
        0
    }
}

/// The copy step's pipelined charge for a device-resident user buffer:
/// one segment of `bytes` packed bytes (spanning `blocks` layout
/// blocks) streams through a bounded ring of bounce buffers, the CPU
/// packing/unpacking chunk `k` while the DMA engine moves chunk `k-1`
/// (TEMPI's staged pipeline, arXiv:2012.14363). Both stages reserve
/// real serial resources, so the overlap is visible in the trace.
/// Returns the finish time.
fn charge_copy(
    rs: &mut RankState,
    ctx: &mut Ctx<'_, '_>,
    blocks: usize,
    bytes: u64,
    to_device: bool,
    label: &'static str,
) -> Time {
    let chunk = staging_chunk_for(ctx.cfg, ctx.host, bytes, blocks, to_device);
    let bufs = ctx.cfg.staging_bufs.clamp(1, MAX_PIPELINE_BUFS);
    let n = bytes.div_ceil(chunk);
    let now = ctx.now();
    // Ring of bounce-buffer release times: chunk k may not start until
    // chunk k-bufs has fully drained its slot.
    let mut ring = [now; MAX_PIPELINE_BUFS];
    let mut finish = now;
    for k in 0..n {
        let lo = k * chunk;
        let cbytes = (lo + chunk).min(bytes) - lo;
        let cblocks = ((blocks as u64 * cbytes).div_ceil(bytes)).max(1) as usize;
        let cpu_cost = ctx.host.copy_ns(cblocks, cbytes);
        let dma_cost = ctx.host.dma_ns(cbytes, to_device);
        let slot = (k % bufs as u64) as usize;
        let gate = ring[slot];
        finish = if to_device {
            // Unpack: CPU scatters the chunk into a bounce image, DMA
            // pushes it to the device.
            let cpu_done = rs.cpu.reserve_labeled(gate, cpu_cost, label);
            rs.dma.reserve_labeled(cpu_done, dma_cost, "dma")
        } else {
            // Pack: DMA pulls the chunk down, CPU gathers it onward.
            let dma_done = rs.dma.reserve_labeled(gate, dma_cost, "dma");
            rs.cpu.reserve_labeled(dma_done, cpu_cost, label)
        };
        ring[slot] = finish;
    }
    rs.counters.staging_chunks += n;
    finish
}

/// The packed side of a copy step, which the user buffer is packed
/// into or unpacked from: a host slice (eager and self messages), or
/// address-space staging buffers, one per costing unit (a message's
/// `pack_bufs` / `unpack_bufs`), read and written in place.
enum Staged<'d> {
    Pack(&'d mut [u8]),
    Unpack(&'d [u8]),
    PackInto(&'d [StageBuf]),
    UnpackFrom(&'d [StageBuf]),
}

/// How a copy step is charged.
#[derive(Clone, Copy)]
enum Charge {
    /// One pipelined segment reserved under this label: the classic
    /// element-wise copy on the CPU for a host buffer (bit-identical to
    /// the model before the device tier), [`charge_copy`]'s staged
    /// pipeline for a device buffer. The step returns the finish time.
    Segment(&'static str),
    /// One synchronous charge (eager, self and the Fig. 12 batch),
    /// returned for the caller to reserve: the `copy_ns` of each
    /// costing unit, plus one whole-image DMA for a device buffer (too
    /// small or too late to stage), plus — when set — the temporary
    /// buffer of the original eager path (Fig. 1).
    Sync(bool),
}

/// The one copy step: moves the substream range `[lo, hi)` of the
/// message at `buf` (the stream itself when `ivs` is empty) between the
/// user buffer and `staged`, counting the layout blocks of every
/// `unit`-byte costing unit (a segment; the Fig. 12 batch sums them,
/// since their ceil rounding is what it measures), and charges it.
#[allow(clippy::too_many_arguments)]
fn copy_step(
    rs: &mut RankState,
    ctx: &mut Ctx<'_, '_>,
    plan: &TransferPlan,
    buf: Va,
    ivs: &[(u64, u64)],
    (lo, hi): (u64, u64),
    unit: u64,
    mut staged: Staged<'_>,
    charge: Charge,
) -> Time {
    let rank = rs.rank;
    let to_device = matches!(staged, Staged::Unpack(_) | Staged::UnpackFrom(_));
    // Both directions go through a view narrowed to the plan's block
    // envelope: unpacking so the address space's dirty tracking
    // (backing-store recycling) covers only the user buffer, and both
    // so that no view spans the eager ring's slot window or a staging
    // buffer.
    let cap = ctx.mems[rank as usize].space.capacity();
    let (env_lo, env_hi) = plan.envelope();
    let vstart = ((buf as i128 + env_lo).clamp(0, cap as i128) as u64).min(buf.min(cap));
    let (vlen, base) = (
        ((buf as i128 + env_hi).clamp(vstart as i128, cap as i128)) as u64 - vstart,
        (buf - vstart) as usize,
    );
    let (mut blocks, mut copy_ns, mut cursor, mut at) = (0usize, 0, 0usize, lo);
    for u in 0.. {
        let end = (at + unit.max(1)).min(hi);
        let (mut unit_blocks, unit_start) = (0usize, cursor);
        for_each_substream_piece(ivs, at, end, |a, b| {
            let n = (b - a) as usize;
            let space = &mut ctx.mems[rank as usize].space;
            let stage_va = |bufs: &[StageBuf]| bufs[u].va + (cursor - unit_start) as u64;
            match &mut staged {
                Staged::Pack(out) => {
                    let mem = space.slice(vstart, vlen).expect("envelope view in range");
                    plan.pack(a, b, mem, base, &mut out[cursor..cursor + n])
                }
                Staged::Unpack(data) => {
                    let mem = space
                        .slice_mut(vstart, vlen)
                        .expect("envelope view in range");
                    plan.unpack(a, b, &data[cursor..cursor + n], mem, base)
                }
                Staged::PackInto(bufs) => {
                    let views = space.slice_pair(vstart, vlen, stage_va(bufs), n as u64);
                    let (mem, out) = views.expect("staging buffer apart from the envelope");
                    plan.pack(a, b, mem, base, out)
                }
                Staged::UnpackFrom(bufs) => {
                    let views = space.slice_pair(stage_va(bufs), n as u64, vstart, vlen);
                    let (data, mem) = views.expect("staging buffer apart from the envelope");
                    plan.unpack(a, b, data, mem, base)
                }
            }
            .expect("user buffer covers the datatype");
            cursor += n;
            unit_blocks += plan.block_count_in(a, b).expect("range valid").0;
        });
        blocks += unit_blocks;
        copy_ns += ctx.host.copy_ns(unit_blocks.max(1), end - at);
        at = end;
        if at >= hi {
            break;
        }
    }
    let bytes = hi - lo;
    let on_device = bytes > 0 && buf_on_device(ctx, rank, buf);
    match charge {
        Charge::Segment(label) if on_device => {
            charge_copy(rs, ctx, blocks, bytes, to_device, label)
        }
        Charge::Segment(label) => rs.cpu.reserve_labeled(ctx.now(), copy_ns, label),
        Charge::Sync(temp) => {
            if temp {
                copy_ns += ctx.host.malloc_ns + ctx.host.memcpy_ns(bytes) + ctx.host.free_ns;
            }
            if on_device {
                copy_ns += ctx.host.dma_ns(bytes, to_device);
            }
            copy_ns
        }
    }
}

// ---------------------------------------------------------------------
// Eager path (§7.1)
// ---------------------------------------------------------------------

#[allow(clippy::too_many_arguments)]
fn eager_send(
    rs: &mut RankState,
    ctx: &mut Ctx<'_, '_>,
    req: ReqId,
    peer: u32,
    buf: Va,
    count: u64,
    ty: &Datatype,
    tag: u32,
    size: u64,
) {
    rs.counters.eager_sends += 1;
    let seq = rs.take_seq(peer);
    let plan = rs.plan_for(ty, count);
    // Pack straight behind the header in the control buffer.
    let mut bytes = take_ctrl_buf_credits(rs, ctx.cfg, peer);
    CtrlMsg::EagerData { tag, seq, size }.encode_into(&mut bytes);
    let header = bytes.len();
    bytes.resize(header + size as usize, 0);
    let charge = Charge::Sync(eager_via_temp(ctx.cfg.scheme));
    let (whole, staged) = ((0, size), Staged::Pack(&mut bytes[header..]));
    let cost = copy_step(rs, ctx, &plan, buf, &[], whole, size, staged, charge);
    rs.counters.packs += 1;
    rs.counters.bytes_packed += size;
    send_ctrl(rs, ctx, peer, bytes, cost);

    // The send request completes when packing is done (the user buffer
    // is then reusable).
    let done = rs.cpu.available_at();
    ctx.cpu_event(done, rs.rank, CpuAct::EagerDone { req });
}

/// Unpacks an eager payload into the user buffer and schedules request
/// completion.
fn eager_deliver(
    rs: &mut RankState,
    ctx: &mut Ctx<'_, '_>,
    req: ReqId,
    buf: Va,
    count: u64,
    ty: &Datatype,
    data: &[u8],
) {
    let plan = rs.plan_for(ty, count);
    let size = plan.total_bytes();
    assert_eq!(data.len() as u64, size, "eager size mismatch");
    let charge = Charge::Sync(eager_via_temp(ctx.cfg.scheme));
    let (whole, staged) = ((0, size), Staged::Unpack(data));
    let cost = copy_step(rs, ctx, &plan, buf, &[], whole, size, staged, charge);
    rs.counters.unpacks += 1;
    rs.counters.bytes_unpacked += size;
    let done = rs.cpu.reserve_labeled(ctx.now(), cost, "unpack");
    ctx.cpu_event(done, rs.rank, CpuAct::EagerDone { req });
}

fn self_send(
    rs: &mut RankState,
    ctx: &mut Ctx<'_, '_>,
    req: ReqId,
    buf: Va,
    count: u64,
    ty: &Datatype,
    tag: u32,
) {
    let plan = rs.plan_for(ty, count);
    let size = plan.total_bytes();
    // `data` escapes into the unexpected queue, so it cannot come from
    // the scratch pool.
    let mut data = vec![0u8; size as usize];
    let (whole, staged) = ((0, size), Staged::Pack(&mut data));
    let charge = Charge::Sync(false);
    let cost = copy_step(rs, ctx, &plan, buf, &[], whole, size, staged, charge);
    let done = rs.cpu.reserve_labeled(ctx.now(), cost, "pack");
    ctx.cpu_event(done, rs.rank, CpuAct::EagerDone { req });

    let seq = rs.take_seq(rs.rank);
    if let Some(p) = rs.match_posted(rs.rank, tag) {
        eager_deliver(rs, ctx, p.req, p.buf, p.count, &p.ty, &data);
    } else {
        rs.push_unexpected_eager(rs.rank, tag, seq, data);
    }
}

/// Encodes `msg` into a recycled per-rank buffer (no allocation in
/// steady state) and sends it as a control message.
fn send_ctrl_msg(
    rs: &mut RankState,
    ctx: &mut Ctx<'_, '_>,
    peer: u32,
    msg: &CtrlMsg,
    extra_cpu_ns: Time,
) {
    let mut bytes = take_ctrl_buf_credits(rs, ctx.cfg, peer);
    msg.encode_into(&mut bytes);
    send_ctrl(rs, ctx, peer, bytes, extra_cpu_ns);
}

/// Sends a control/eager message, taking a ring buffer or queueing.
/// `extra_cpu_ns` is work (e.g. packing) that precedes the post.
fn send_ctrl(
    rs: &mut RankState,
    ctx: &mut Ctx<'_, '_>,
    peer: u32,
    bytes: Vec<u8>,
    extra_cpu_ns: Time,
) {
    assert!(
        bytes.len() as u64 <= ctx.cfg.eager_buf_size,
        "control message ({} B) exceeds eager buffer",
        bytes.len()
    );
    rs.counters.ctrl_msgs += 1;
    match rs.eager_send_free.pop() {
        Some(va) => send_in_slot(rs, ctx, peer, va, bytes, extra_cpu_ns),
        None => {
            // Queued behind the ring: the control cost is paid now and
            // again when the message drains.
            reserve_ctrl(rs, ctx, extra_cpu_ns);
            rs.eager_pending
                .push_back(crate::rank::PendingEager { peer, bytes });
            rs.counters.peak_pending = rs.counters.peak_pending.max(rs.eager_pending.len() as u64);
        }
    }
}

/// Reserves the CPU for a control post — `extra_cpu_ns` of preceding
/// work (e.g. packing), the control overhead and one post — and returns
/// when the post may go out.
fn reserve_ctrl(rs: &mut RankState, ctx: &mut Ctx<'_, '_>, extra_cpu_ns: Time) -> Time {
    let label = if extra_cpu_ns > 0 { "pack" } else { "ctrl" };
    let cost = extra_cpu_ns + ctx.cfg.ctrl_overhead_ns + ctx.net.post_single_ns;
    rs.cpu.reserve_labeled(ctx.now(), cost, label)
}

/// Sends `bytes` from the claimed send-ring slot `va`: writes them and
/// the slot terminator, posts, and on a dead queue pair frees the slot
/// and parks the bytes with the connection manager, to be re-sent after
/// re-establishment.
///
/// The terminator is one zero byte — an invalid message kind — after
/// the encoded message. Slots are reused without clearing, so a
/// recovery re-post must re-derive the wire length by decoding; with
/// piggybacked credit prefixes the terminator is what makes the end of
/// a slot (in particular a standalone `CreditUpdate`) unambiguous
/// against stale bytes from the slot's previous occupant.
fn send_in_slot(
    rs: &mut RankState,
    ctx: &mut Ctx<'_, '_>,
    peer: u32,
    va: Va,
    bytes: Vec<u8>,
    extra_cpu_ns: Time,
) {
    let space = &mut ctx.mems[rs.rank as usize].space;
    space.write(va, &bytes).expect("eager ring buffer writable");
    let len = bytes.len() as u64;
    if len < ctx.cfg.eager_buf_size {
        space
            .write(va + len, &[0])
            .expect("eager ring buffer writable");
    }
    if post_ctrl_slot(rs, ctx, peer, va, len, extra_cpu_ns) {
        rs.scratch.put_ctrl(bytes);
        return;
    }
    rs.eager_send_free.push(va);
    rs.reconn
        .get_mut(&peer)
        .expect("reconnect scheduled")
        .pending_ctrl
        .push(bytes);
}

/// Posts the control message in send-ring slot `va` (`len` bytes) to
/// `peer` after reserving its CPU cost ([`reserve_ctrl`]). Returns
/// `false`, with the slot still claimed, when the post hit a dead queue
/// pair the connection manager will re-establish: the caller parks the
/// message for the reconnect. Any other refusal frees the slot and is
/// recorded as a typed rank error.
fn post_ctrl_slot(
    rs: &mut RankState,
    ctx: &mut Ctx<'_, '_>,
    peer: u32,
    va: Va,
    len: u64,
    extra_cpu_ns: Time,
) -> bool {
    let ready = reserve_ctrl(rs, ctx, extra_cpu_ns);
    let wr = SendWr {
        wr_id: WR_EAGER | va,
        opcode: Opcode::Send,
        sges: SgeList::of(Sge {
            addr: va,
            len,
            lkey: rs.eager_lkey,
        }),
        remote: None,
        signaled: true,
    };
    let Err(err) = ctx.post_send(ready, rs.rank, peer, wr) else {
        return true;
    };
    if matches!(
        err,
        PostError::QpError { .. } | PostError::QpNotReady { .. }
    ) && ensure_reconnect(rs, ctx, peer)
    {
        return false;
    }
    rs.eager_send_free.push(va);
    rs.counters.post_errors += 1;
    rs.errors.push(MpiError::Post { peer, err });
    true
}

fn drain_pending_eager(rs: &mut RankState, ctx: &mut Ctx<'_, '_>) {
    while !rs.eager_pending.is_empty() && !rs.eager_send_free.is_empty() {
        let p = rs.eager_pending.pop_front().expect("checked non-empty");
        let va = rs.eager_send_free.pop().expect("checked non-empty");
        send_in_slot(rs, ctx, p.peer, va, p.bytes, 0);
    }
}

fn repost_eager_recv(rs: &mut RankState, ctx: &mut Ctx<'_, '_>, peer: u32, va: Va) {
    // The slot's bytes were copied out before the repost, so its host
    // frame goes back to the space's pool (the model is unchanged).
    ctx.mems[rs.rank as usize].space.release(va);
    rs.cpu
        .reserve_labeled(ctx.now(), ctx.net.post_recv_ns, "post-recv");
    let wr = RecvWr {
        wr_id: va,
        sges: SgeList::of(Sge {
            addr: va,
            len: ctx.cfg.eager_buf_size,
            lkey: rs.eager_lkey,
        }),
    };
    let now = ctx.now();
    ctx.post_recv(now, rs.rank, peer, wr);
    // SRQ-limit-style reaction: the receive ring for this peer dipped to
    // its low watermark before the repost — the receiver is falling
    // behind. Flush any owed credits immediately so the peer learns the
    // true resource state instead of stalling on a piggyback that may
    // never come.
    if ctx.cfg.flow_control
        && ctx.net.recv_low_watermark > 0
        && !fc_grants_blocked(rs, ctx.cfg)
        && ctx.fabric.recvq_len(rs.rank, peer) <= ctx.net.recv_low_watermark
    {
        fc_send_credits(rs, ctx, peer);
    }
}

// ---------------------------------------------------------------------
// Control message dispatch
// ---------------------------------------------------------------------

fn on_ctrl(
    rs: &mut RankState,
    am: &mut ActiveMsgs,
    ctx: &mut Ctx<'_, '_>,
    peer: u32,
    bytes: &[u8],
) {
    rs.cpu
        .reserve_labeled(ctx.now(), ctx.cfg.ctrl_overhead_ns, "ctrl");
    // Piggybacked `CreditUpdate`s precede the carried message in the
    // same buffer; consume that prefix, then dispatch the message.
    let mut off = 0usize;
    loop {
        let Some((msg, hdr_len)) = CtrlMsg::decode(&bytes[off..]) else {
            rs.errors.push(MpiError::MalformedCtrl { peer });
            return;
        };
        off += hdr_len;
        if let CtrlMsg::CreditUpdate { credits } = msg {
            rs.fc[peer as usize].credits += credits;
            rs.fc[peer as usize].received += u64::from(credits);
            if off >= bytes.len() {
                return; // standalone credit message
            }
            continue;
        }
        match msg {
            CtrlMsg::EagerData { tag, seq, size } => {
                let payload = &bytes[off..off + size as usize];
                match rs.match_posted(peer, tag) {
                    Some(p) => {
                        fc_on_eager_matched(rs, ctx, peer, size);
                        eager_deliver(rs, ctx, p.req, p.buf, p.count, &p.ty, payload);
                    }
                    None => {
                        // Copy to a dynamic buffer (charged) and queue.
                        rs.cpu.reserve_labeled(
                            ctx.now(),
                            ctx.host.malloc_ns + ctx.host.memcpy_ns(size),
                            "unexpected",
                        );
                        rs.push_unexpected_eager(peer, tag, seq, payload.to_vec());
                    }
                }
            }
            CtrlMsg::RndvStart {
                tag,
                seq,
                size,
                scheme,
                blk_min,
                blk_median,
                ..
            } => {
                if am.recvs.contains_key(&(peer, seq)) {
                    // A duplicate start for a live transfer: a flushed
                    // original was never delivered (flush precludes
                    // delivery), so this is exclusively the sender's
                    // §5.4.2 protection-fault renegotiation.
                    receiver_renegotiate(rs, am, ctx, peer, seq, size);
                    return;
                }
                match rs.match_posted(peer, tag) {
                    Some(mut p) => {
                        // The posted receive may carry wildcards; the protocol
                        // needs the concrete source.
                        p.peer = peer;
                        p.tag = tag;
                        receiver_start(rs, am, ctx, p, seq, size, scheme, blk_min, blk_median);
                    }
                    None => rs.unexpected.push_back(Unexpected::Rndv {
                        peer,
                        tag,
                        seq,
                        size,
                        scheme,
                        blk_min,
                        blk_median,
                    }),
                }
            }
            CtrlMsg::RndvReply { seq, scheme, body } => {
                sender_on_reply(rs, am, ctx, peer, seq, scheme, body);
            }
            CtrlMsg::SegReady {
                seq,
                k,
                addr,
                rkey,
                len,
            } => {
                receiver_on_seg_ready(rs, am, ctx, peer, seq, k, addr, rkey, len);
            }
            CtrlMsg::Fin { seq } => {
                sender_done(rs, am, ctx, peer, seq, true);
            }
            CtrlMsg::RndvProbe { seq } => {
                // The sender suspects its RndvStart or our reply was lost.
                // Resend the reply if it already went out; otherwise it is
                // still pending and will go out on its own.
                let sent = am
                    .recvs
                    .get(&(peer, seq))
                    .filter(|m| m.pending_reply.is_none());
                if let Some(r) = sent.and_then(|m| m.reply_copy.clone()) {
                    send_ctrl(rs, ctx, peer, r, 0);
                }
            }
            CtrlMsg::RndvResume { seq } => {
                on_resume_request(rs, am, ctx, peer, seq);
            }
            CtrlMsg::RndvResumeAck { seq, from_k, done } => {
                on_resume_ack(rs, am, ctx, peer, seq, from_k, done);
            }
            CtrlMsg::CreditUpdate { .. } => unreachable!("consumed by the prefix loop"),
        }
        return;
    }
}

/// A recovering peer asks where to restart transfer `seq`. Answered
/// from the receiver's acknowledged-prefix state; for P-RRS the local
/// *sender* re-announces its packed segments instead.
fn on_resume_request(
    rs: &mut RankState,
    am: &mut ActiveMsgs,
    ctx: &mut Ctx<'_, '_>,
    peer: u32,
    seq: u64,
) {
    if let Some(msg) = am.recvs.get(&(peer, seq)) {
        let from_k = if resumes_from_prefix(msg.scheme) {
            msg.segs_arrived
        } else {
            0
        };
        let ack = CtrlMsg::RndvResumeAck {
            seq,
            from_k,
            done: false,
        };
        send_ctrl_msg(rs, ctx, peer, &ack, 0);
        return;
    }
    if rs.done_seqs.contains(&(peer, seq)) {
        let ack = CtrlMsg::RndvResumeAck {
            seq,
            from_k: 0,
            done: true,
        };
        send_ctrl_msg(rs, ctx, peer, &ack, 0);
        return;
    }
    if let Some(mut msg) = am.sends.remove(&(peer, seq)) {
        // P-RRS: the recovering receiver drives the reads; re-announce
        // every packed segment (re-reads are idempotent).
        msg.posted_segs = 0;
        drive_send(rs, am, ctx, msg);
        return;
    }
    if !ctx.fabric.faults_active() {
        rs.errors.push(MpiError::UnknownMessage { peer, seq });
    }
}

/// The peer answered our resume request: skip the acknowledged prefix
/// and re-drive the rest (or finish outright when the transfer had
/// already completed remotely).
fn on_resume_ack(
    rs: &mut RankState,
    am: &mut ActiveMsgs,
    ctx: &mut Ctx<'_, '_>,
    peer: u32,
    seq: u64,
    from_k: u32,
    done: bool,
) {
    let Some(mut msg) = am.sends.remove(&(peer, seq)) else {
        return;
    };
    if done {
        // Everything (including the receiver-side completion) landed
        // before the failure; only our completion CQE was lost.
        finish_send(rs, ctx, msg, None);
        return;
    }
    rs.counters.resumed_chunks += from_k as u64;
    msg.posted_segs = from_k.min(msg.nsegs);
    if msg.posted_segs >= msg.nsegs && resumes_from_prefix(msg.scheme) {
        // Every segment already reached the receiver; only the final
        // (signaled) completion was lost to the flush. The sender's
        // data duty is done.
        finish_send(rs, ctx, msg, None);
        return;
    }
    // Multi-W and Hybrid restart whole phases: direct writes and the
    // marker are idempotent.
    msg.direct_posted = false;
    msg.marker_posted = false;
    drive_send(rs, am, ctx, msg);
}

// ---------------------------------------------------------------------
// Receiver side
// ---------------------------------------------------------------------

#[allow(clippy::too_many_arguments)]
fn receiver_start(
    rs: &mut RankState,
    am: &mut ActiveMsgs,
    ctx: &mut Ctx<'_, '_>,
    p: PostedRecv,
    seq: u64,
    size: u64,
    scheme_wire: u8,
    blk_min: u64,
    blk_median: u64,
) {
    let rstats = rs.plan_for(&p.ty, p.count).stats();
    let snd = (blk_min, blk_median);
    let chosen = receiver_scheme(ctx.cfg, ctx.fabric.class(), scheme_wire, size, snd, &rstats);
    let Some((scheme, fallback)) = chosen else {
        rs.fail_req(p.req, MpiError::MalformedCtrl { peer: p.peer });
        return;
    };
    assert_eq!(
        p.count * p.ty.size(),
        size,
        "type signature mismatch between send and receive"
    );
    let mut msg = RecvMsg::new(rs, p.req, p.peer, seq, p.buf, p.count, p.ty);
    am.imm_map.insert((p.peer, (seq & 0xFFFF) as u16), seq);
    receiver_reply(rs, ctx, &mut msg, scheme, fallback);
    am.recvs.insert((msg.peer, seq), msg);
}

impl RecvMsg {
    /// A receive with no reply committed yet; [`receiver_reply`] plans
    /// and commits one. [`receiver_start`] and the §5.4.2
    /// renegotiation both build their generations here.
    fn new(
        rs: &mut RankState,
        req: ReqId,
        peer: u32,
        seq: u64,
        buf: Va,
        count: u64,
        ty: Datatype,
    ) -> Self {
        RecvMsg {
            req,
            peer,
            seq,
            buf,
            count,
            size: count * ty.size(),
            ty,
            scheme: FALLBACK,
            plan: ReplyPlan::default(),
            unpack_bufs: rs.scratch.take_stage(),
            segs_arrived: 0,
            segs_done: 0,
            user_regs: Vec::new(),
            pending_reply: None,
            reads_outstanding: 0,
            direct_done: true,
            completed: false,
            pinned_bytes: 0,
            reply_copy: None,
            segs_seen: rs.scratch.take_set(),
            drop_unpacks: 0,
        }
    }
}

/// Plans the reply for `scheme` and commits it, or — when the commit is
/// refused — the reply for the copy scheme `fallback`, counting a scheme
/// fallback.
fn receiver_reply(
    rs: &mut RankState,
    ctx: &mut Ctx<'_, '_>,
    msg: &mut RecvMsg,
    scheme: Scheme,
    fallback: Scheme,
) {
    let mut blocks = rs.scratch.take_blocks();
    if reads_rcv_blocks(scheme) {
        let tplan = rs.plan_for(&msg.ty, msg.count);
        abs_blocks_into(&tplan, msg.buf, &mut blocks);
    }
    let plan = plan_reply(scheme, msg.size, &blocks, ctx.cfg);
    if !commit_reply(rs, ctx, msg, scheme, plan, &mut blocks) {
        rs.counters.scheme_fallbacks += 1;
        let plan = plan_reply(fallback, msg.size, &[], ctx.cfg);
        let committed = commit_reply(rs, ctx, msg, fallback, plan, &mut blocks);
        debug_assert!(committed, "copy replies pin nothing and always commit");
    }
    rs.scratch.put_blocks(blocks);
}

/// The one committer of every reply: probes that a direct reply fits an
/// eager buffer (a "complicated datatype" per §5.3 does not), charges
/// the pinning budget, pins the planned blocks out of `blocks`, acquires
/// the packed substream's segment buffers and queues the reply. Returns
/// `false`, having committed nothing, when the reply outgrows an eager
/// buffer or the budget.
///
/// The reply goes out once the receiver is ready: P-RRS and Multi-W
/// wait on the registration that exposes the user buffer, the others
/// on the control overhead. Multi-W pins its blocks a second time (a
/// pin-down cache hit whose cost is part of its reply time), so its
/// budget check reserves twice the footprint.
fn commit_reply(
    rs: &mut RankState,
    ctx: &mut Ctx<'_, '_>,
    msg: &mut RecvMsg,
    scheme: Scheme,
    plan: ReplyPlan,
    blocks: &mut Vec<(Va, u64)>,
) -> bool {
    let kind = plan.kind;
    // Direct replies name the receiver's layout by tag and ship the
    // layout only on a peer's first use of the tag.
    let tag = kind.direct().then(|| rs.registry.register(&msg.ty));
    let regions = match plan.pin_min {
        Some(min) => {
            blocks.retain(|&(_, l)| l >= min);
            ogr::plan(blocks, &ctx.host.reg).regions
        }
        None => Vec::new(),
    };
    let headroom = if kind == ReplyKind::MultiW { 2 } else { 1 };
    let need: u64 = regions.iter().map(|&(_, l)| l).sum();
    if rs
        .pinned_user_bytes
        .saturating_add(need.saturating_mul(headroom))
        > ctx.cfg.reg_budget_bytes
    {
        return false;
    }
    // The reply with placeholder keys and buffers, filled in once
    // committed.
    let (base, count, nsegs) = (msg.buf, msg.count, plan.nsegs as usize);
    let key = tag.map(|t| (msg.peer, t.index, t.version));
    let layout = key
        .filter(|k| !rs.sent_layouts.contains(k))
        .map(|_| msg.ty.flat().as_ref().clone());
    let keyed = regions.iter().map(|&(a, l)| (a, l, 0)).collect();
    let body = match (kind, tag) {
        (ReplyKind::Buffer, _) => ReplyBody::Buffer { addr: 0, rkey: 0 },
        (ReplyKind::Segments, _) => ReplyBody::Segments {
            segs: SegList::new(),
        },
        (ReplyKind::MultiW, Some(tag)) => ReplyBody::MultiW {
            base,
            tag,
            count,
            layout,
            regions: keyed,
        },
        (ReplyKind::Hybrid, Some(tag)) => ReplyBody::Hybrid {
            base,
            tag,
            count,
            layout,
            regions: keyed,
            segs: vec![(0, 0); nsegs],
            threshold: plan.pin_min.unwrap_or(0),
        },
        _ => ReplyBody::ReadGo,
    };
    let mut reply = CtrlMsg::RndvReply {
        seq: msg.seq,
        scheme: scheme.to_wire(),
        body,
    };
    if let Some(key) = key {
        let mut probe = rs.scratch.take_ctrl();
        reply.encode_into(&mut probe);
        let fits = probe.len() as u64 <= ctx.cfg.eager_buf_size;
        rs.scratch.put_ctrl(probe);
        if !fits {
            return false;
        }
        rs.sent_layouts.insert(key);
    }
    let CtrlMsg::RndvReply { body, .. } = &mut reply else {
        unreachable!("built as a reply above");
    };
    let first = msg.user_regs.len();
    if plan.pin_min.is_some() {
        let (regs, pinned) = (&mut msg.user_regs, &mut msg.pinned_bytes);
        let cost = try_acquire_user_regs(rs, ctx, &regions, regs, pinned);
        rs.cpu
            .reserve_labeled(ctx.now(), cost.expect("budget checked above"), "reg");
    }
    if let ReplyBody::MultiW { regions, .. } | ReplyBody::Hybrid { regions, .. } = body {
        for (r, reg) in regions.iter_mut().zip(&msg.user_regs[first..]) {
            r.2 = reg.rkey;
        }
    }
    let mut segs = SegList::new();
    if kind != ReplyKind::ReadGo {
        for _ in 0..nsegs {
            let sb = if kind == ReplyKind::Buffer {
                acquire_stage(rs, ctx, plan.seg_size)
            } else {
                acquire_seg(rs, ctx, true)
            };
            segs.push((sb.va, sb.rkey));
            msg.unpack_bufs.push(sb);
        }
    }
    match body {
        ReplyBody::Buffer { addr, rkey } => (*addr, *rkey) = segs[0],
        ReplyBody::Segments { segs: s } => *s = segs,
        ReplyBody::Hybrid { segs: s, .. } => s.copy_from_slice(&segs),
        _ => {}
    }
    let mut cost = 0;
    if kind == ReplyKind::MultiW {
        let (regs, pinned) = (&mut msg.user_regs, &mut msg.pinned_bytes);
        cost = try_acquire_user_regs(rs, ctx, &regions, regs, pinned).expect("2x headroom");
    }
    let (cost, label) = match kind {
        ReplyKind::MultiW | ReplyKind::ReadGo => {
            (cost + device_reg_extra(ctx, rs.rank, msg.buf), "reg")
        }
        _ => (ctx.cfg.ctrl_overhead_ns, "ctrl"),
    };
    msg.scheme = scheme;
    msg.plan = plan;
    msg.direct_done = !kind.direct();
    if kind.direct() {
        maybe_evict_reply_reg(rs, ctx, msg);
    }
    let mut buf = rs.scratch.take_ctrl();
    reply.encode_into(&mut buf);
    msg.pending_reply = Some(buf);
    let done = rs.cpu.reserve_labeled(ctx.now(), cost, label);
    let (peer, seq) = (msg.peer, msg.seq);
    ctx.cpu_event(done, rs.rank, CpuAct::ReceiverReady { peer, seq });
    true
}

/// Acquires pin-down registrations for the OGR `regions`, charging
/// their bytes against `reg_budget_bytes`. Returns the host cost, or
/// `None` when the budget would be exceeded — in which case nothing is
/// acquired and the caller falls back to a copy-based scheme.
fn try_acquire_user_regs(
    rs: &mut RankState,
    ctx: &mut Ctx<'_, '_>,
    regions: &[(Va, u64)],
    regs_out: &mut Vec<Registration>,
    pinned_out: &mut u64,
) -> Option<Time> {
    let need: u64 = regions.iter().map(|&(_, l)| l).sum();
    if rs.pinned_user_bytes.saturating_add(need) > ctx.cfg.reg_budget_bytes {
        return None;
    }
    rs.pinned_user_bytes += need;
    *pinned_out += need;
    let mut cost = 0;
    for &(a, l) in regions {
        let acq = rs
            .pindown
            .acquire(&mut ctx.mems[rs.rank as usize].regs, &ctx.host.reg, a, l);
        cost += acq.cost_ns;
        regs_out.push(acq.reg);
    }
    Some(cost)
}

/// A segment of the packed substream, or the direct part's completion
/// notification, arrived, announced by immediate data.
fn on_segment_arrival(
    rs: &mut RankState,
    am: &mut ActiveMsgs,
    ctx: &mut Ctx<'_, '_>,
    peer: u32,
    imm: u32,
) {
    let (seq16, k) = imm_parse(imm);
    let Some(&seq) = am.imm_map.get(&(peer, seq16)) else {
        // Stale duplicate after the message was aborted or completed.
        // Under fault injection a recovery re-drive can legitimately
        // repeat traffic; only protocol-clean runs treat it as an error.
        if !ctx.fabric.faults_active() {
            rs.errors.push(MpiError::UnknownMessage {
                peer,
                seq: seq16 as u64,
            });
        }
        return;
    };
    let Some(msg) = am.recvs.get_mut(&(peer, seq)) else {
        if !ctx.fabric.faults_active() {
            rs.errors.push(MpiError::UnknownMessage { peer, seq });
        }
        return;
    };
    if k as usize >= msg.unpack_bufs.len() {
        // No staged segment has this index: it is Multi-W's last write
        // or Hybrid's marker, each ordered after every direct write.
        msg.direct_done = true;
        receiver_complete(rs, am, ctx, peer, seq);
        return;
    }
    if !msg.segs_seen.insert(k) {
        // A resumed sender repeated a segment that already landed
        // (idempotent RDMA write): count it once.
        return;
    }
    msg.segs_arrived += 1;
    let nsegs = msg.plan.nsegs;
    let (segs, done) = if !msg.plan.batch_unpack {
        (
            1,
            unpack_segments(rs, ctx, msg, k..k + 1, Charge::Segment("unpack")),
        )
    } else if msg.segs_arrived == nsegs {
        // Fig. 12 ablation: unpack everything only after the last
        // segment arrived.
        let cost = unpack_segments(rs, ctx, msg, 0..nsegs, Charge::Sync(false));
        (nsegs, rs.cpu.reserve_labeled(ctx.now(), cost, "unpack"))
    } else {
        return;
    };
    ctx.cpu_event(done, rs.rank, CpuAct::UnpackSeg { peer, seq, segs });
}

/// Unpacks segments `ks` of the packed substream (Generic's one
/// segment is the whole message) straight from their staging buffers
/// into the user buffer through the copy step, counting the bytes
/// unpacked.
fn unpack_segments(
    rs: &mut RankState,
    ctx: &mut Ctx<'_, '_>,
    msg: &RecvMsg,
    ks: std::ops::Range<u32>,
    charge: Charge,
) -> Time {
    let plan = rs.plan_for(&msg.ty, msg.count);
    let (ivs, seg) = (&msg.plan.packed_ivs, msg.plan.seg_size);
    let lo = ks.start as u64 * seg;
    let hi = (ks.end as u64 * seg).min(substream_len(ivs, msg.size));
    rs.counters.bytes_unpacked += hi - lo;
    let staged = Staged::UnpackFrom(&msg.unpack_bufs[ks.start as usize..]);
    copy_step(rs, ctx, &plan, msg.buf, ivs, (lo, hi), seg, staged, charge)
}

/// Completes the receive once every part landed — the one completion
/// rule of every scheme: each segment of the packed substream is
/// placed, no read is outstanding, and the direct part is done.
fn receiver_complete(
    rs: &mut RankState,
    am: &mut ActiveMsgs,
    ctx: &mut Ctx<'_, '_>,
    peer: u32,
    seq: u64,
) {
    let ready = am
        .recvs
        .get(&(peer, seq))
        .is_some_and(|m| m.segs_done == m.plan.nsegs && m.reads_outstanding == 0 && m.direct_done);
    if !ready {
        return;
    }
    let mut msg = am
        .recvs
        .remove(&(peer, seq))
        .expect("a ready receive is live");
    msg.completed = true;
    am.imm_map.remove(&(peer, (seq & 0xFFFF) as u16));
    // Remember completion so a recovering sender's resume request can
    // be answered with `done` instead of a renegotiation.
    rs.done_seqs.insert((peer, seq));
    receiver_release(rs, ctx, &mut msg);
    if msg.plan.kind == ReplyKind::ReadGo {
        // Tell the sender its pack buffers are free.
        send_ctrl_msg(rs, ctx, peer, &CtrlMsg::Fin { seq }, 0);
    }
    rs.complete_req(msg.req);
}

/// Releases a receive message's staging buffers, user registrations,
/// and budget charge (shared by completion and abort).
fn receiver_release(rs: &mut RankState, ctx: &mut Ctx<'_, '_>, msg: &mut RecvMsg) {
    let (regs, pinned) = (&mut msg.user_regs, &mut msg.pinned_bytes);
    release_msg(rs, ctx, &mut msg.unpack_bufs, true, regs, pinned);
    if let Some(v) = msg.pending_reply.take() {
        rs.scratch.put_ctrl(v);
    }
    if let Some(v) = msg.reply_copy.take() {
        rs.scratch.put_ctrl(v);
    }
    rs.scratch.put_set(std::mem::take(&mut msg.segs_seen));
}

/// P-RRS: a packed segment is available on the sender; issue reads.
#[allow(clippy::too_many_arguments)]
fn receiver_on_seg_ready(
    rs: &mut RankState,
    am: &mut ActiveMsgs,
    ctx: &mut Ctx<'_, '_>,
    peer: u32,
    seq: u64,
    k: u32,
    addr: Va,
    rkey: u32,
    len: u64,
) {
    let Some(msg) = am.recvs.get_mut(&(peer, seq)) else {
        if !ctx.fabric.faults_active() {
            rs.errors.push(MpiError::UnknownMessage { peer, seq });
        }
        return;
    };
    if !msg.segs_seen.insert(k) {
        // Duplicate announcement from a recovery re-drive (the reset
        // below re-counts distinct segments only).
        return;
    }
    msg.segs_done += 1;
    let lo = k as u64 * msg.plan.seg_size;
    let hi = lo + len;
    let plan = rs.plan_for(&msg.ty, msg.count);
    let mut blocks = rs.scratch.take_blocks();
    blocks_in_range(&plan, msg.buf, lo, hi, &mut blocks);
    let regs = &msg.user_regs;
    let lkey = |a, l| lkey_for(regs, a, l);
    let frame = WrFrame {
        read: true,
        ..WrFrame::write(WR_READ | seq, ctx.net.max_sge, lkey, |_, _| rkey)
    };
    let mut wrs = Vec::new();
    plan_gather(&frame, &blocks, addr, Tail::default(), &mut wrs);
    rs.scratch.put_blocks(blocks);
    // Every read is signaled: the receiver counts read completions.
    for wr in &mut wrs {
        wr.signaled = true;
    }
    msg.reads_outstanding += wrs.len() as u32;
    let Err(err) = post_wrs(rs, ctx, peer, wrs, false) else {
        return;
    };
    // A dead QP hands the read-driven transfer to the connection
    // manager instead of failing the receive.
    if recoverable(&err) && ensure_reconnect(rs, ctx, peer) {
        rs.reconn
            .get_mut(&peer)
            .expect("entry ensured above")
            .recvs
            .insert(seq);
        return;
    }
    abort_recv(rs, am, ctx, peer, seq, err);
}

fn receiver_read_done(
    rs: &mut RankState,
    am: &mut ActiveMsgs,
    ctx: &mut Ctx<'_, '_>,
    peer: u32,
    seq: u64,
) {
    let Some(msg) = am.recvs.get_mut(&(peer, seq)) else {
        return;
    };
    // Saturating: a recovery reset may have zeroed the counter while a
    // straggling completion was already in flight.
    msg.reads_outstanding = msg.reads_outstanding.saturating_sub(1);
    receiver_complete(rs, am, ctx, peer, seq);
}

// ---------------------------------------------------------------------
// Sender side
// ---------------------------------------------------------------------

fn sender_on_reply(
    rs: &mut RankState,
    am: &mut ActiveMsgs,
    ctx: &mut Ctx<'_, '_>,
    peer: u32,
    seq: u64,
    scheme_wire: u8,
    mut body: ReplyBody,
) {
    let Some(mut msg) = am.sends.remove(&(peer, seq)) else {
        // The send was aborted earlier (flush/timeout) or already
        // completed; the reply is a stale straggler.
        if !ctx.fabric.faults_active() {
            rs.errors.push(MpiError::UnknownMessage { peer, seq });
        }
        return;
    };
    if msg.targets.is_some() {
        // Duplicate reply: a probe-triggered resend raced the original.
        am.sends.insert((peer, seq), msg);
        return;
    }
    let Some(reply_scheme) = Scheme::from_wire(scheme_wire) else {
        rs.errors.push(MpiError::MalformedCtrl { peer });
        am.sends.insert((peer, seq), msg);
        return;
    };
    // Zero-copy replies name the receiver's layout by tag; the layout
    // itself travels only on a peer's first use of the tag.
    let rcv_blocks = match &mut body {
        ReplyBody::MultiW {
            base,
            tag,
            count,
            layout,
            ..
        }
        | ReplyBody::Hybrid {
            base,
            tag,
            count,
            layout,
            ..
        } => {
            let cached = match layout.take() {
                Some(l) => {
                    let l = Arc::new(l);
                    rs.layout_cache.insert(peer, *tag, l.clone());
                    Some(l)
                }
                None => rs.layout_cache.lookup(peer, *tag),
            };
            let Some(layout) = cached else {
                // The promised cached layout is gone — the reply
                // cannot be acted on.
                rs.errors.push(MpiError::MalformedCtrl { peer });
                am.sends.insert((peer, seq), msg);
                return;
            };
            let base = *base;
            layout
                .repeat(*count)
                .into_iter()
                .map(|(o, l)| ((base as i64 + o) as u64, l))
                .collect()
        }
        _ => Vec::new(),
    };
    msg.scheme = reply_scheme;
    let prep = send_prep(reply_scheme, msg.contig, PrepAt::Reply);
    // Segments without a direct part are gathered from the user buffer
    // by a sender that pins it for them.
    let feed = if prep.pin == Pin::User {
        Feed::Gathered
    } else {
        Feed::Packed
    };
    msg.targets = Some(match body {
        ReplyBody::Buffer { addr, rkey } => SendTargets::Segments {
            segs: SegList::of((addr, rkey)),
            feed,
        },
        ReplyBody::Segments { segs } => SendTargets::Segments { segs, feed },
        ReplyBody::ReadGo => SendTargets::ReadGo,
        ReplyBody::MultiW { regions, .. } => SendTargets::MultiW {
            rcv_blocks,
            regions,
        },
        ReplyBody::Hybrid {
            regions,
            segs,
            threshold,
            ..
        } => {
            // Both sides plan the same partition from the receiver's
            // layout; the packed part joins the segment pipeline.
            debug_assert_eq!(threshold, ctx.cfg.hybrid_block_threshold);
            let plan = plan_reply(reply_scheme, msg.size, &rcv_blocks, ctx.cfg);
            debug_assert_eq!(plan.nsegs as usize, segs.len());
            msg.nsegs = plan.nsegs;
            msg.seg_size = plan.seg_size;
            msg.packed_ivs = plan.packed_ivs;
            SendTargets::Segments {
                segs: segs.into_iter().collect(),
                feed: Feed::Hybrid {
                    direct: plan.direct,
                    regions,
                },
            }
        }
    });
    // The receiver may have picked differently from the early work
    // (adaptive decision, Multi-W fallback, or the zero-copy contiguous
    // path): prepare what the reply's scheme needs.
    if !prepare_send(rs, ctx, &mut msg, prep) {
        renegotiate_send(rs, am, ctx, msg);
        return;
    }
    drive_send(rs, am, ctx, msg);
}

/// The one executor of [`send_prep`]: pins what `prep` names and, when
/// the pinning budget refuses, takes its fallback; then packs into
/// fresh staging unless the message already holds some. A refusal
/// after the reply is a scheme fallback. Returns `false`, having
/// packed nothing, when the message must be renegotiated.
fn prepare_send(
    rs: &mut RankState,
    ctx: &mut Ctx<'_, '_>,
    msg: &mut SendMsg,
    prep: SendPrep,
) -> bool {
    let mut pack = prep.pack;
    if !pin_send(rs, ctx, msg, prep.pin) {
        if prep.refused != Refused::Ignore && msg.targets.is_some() {
            rs.counters.scheme_fallbacks += 1;
        }
        match prep.refused {
            Refused::Ignore => {}
            Refused::PackSegments => {
                msg.contig = false;
                pack = Pack::Segments;
            }
            Refused::Degrade => {
                if let Some(SendTargets::Segments { feed, .. }) = &mut msg.targets {
                    *feed = Feed::Packed;
                }
                pack = Pack::Segments;
            }
            Refused::StageWhole => {
                // The receiver's blocks are already pinned on its side:
                // stream the staged copy into them.
                msg.mw_stage = true;
                msg.reg_done = true;
                pack = Pack::Whole;
            }
            Refused::Renegotiate => return false,
        }
    }
    if pack == Pack::None || !msg.pack_bufs.is_empty() {
        return true;
    }
    if pack == Pack::Whole {
        (msg.nsegs, msg.seg_size) = (1, msg.size);
        let sb = acquire_stage(rs, ctx, msg.size);
        msg.pack_bufs.push(sb);
    } else {
        for _ in 0..msg.nsegs {
            let sb = acquire_seg(rs, ctx, false);
            msg.pack_bufs.push(sb);
        }
    }
    start_pack_chain(rs, ctx, msg);
    true
}

/// The one pin routine of the sender: registers through OGR the user
/// blocks `pin` names that no registration of the message covers yet,
/// and schedules `SenderRegDone`; with nothing left to pin, posting may
/// proceed once any registration in flight completes. Returns `false`,
/// pinning and scheduling nothing, when the pinning budget refuses.
fn pin_send(rs: &mut RankState, ctx: &mut Ctx<'_, '_>, msg: &mut SendMsg, pin: Pin) -> bool {
    if pin == Pin::None {
        return true;
    }
    let tplan = rs.plan_for(&msg.ty, msg.count);
    let mut blocks = rs.scratch.take_blocks();
    match &msg.targets {
        Some(SendTargets::Segments {
            feed: Feed::Hybrid { direct, .. },
            ..
        }) if pin == Pin::HybridDirect => {
            for &(lo, hi, _) in direct {
                blocks_in_range(&tplan, msg.buf, lo, hi, &mut blocks);
            }
        }
        _ => {
            abs_blocks_into(&tplan, msg.buf, &mut blocks);
            if pin == Pin::HybridDirect {
                blocks.retain(|&(_, l)| l >= ctx.cfg.hybrid_block_threshold);
            }
        }
    }
    blocks.retain(|&(a, l)| !msg.user_regs.iter().any(|r| r.covers(a, l)));
    if blocks.is_empty() {
        rs.scratch.put_blocks(blocks);
        if msg.user_regs.is_empty() {
            msg.reg_done = true;
        }
        return true;
    }
    let regions = ogr::plan(&blocks, &ctx.host.reg).regions;
    rs.scratch.put_blocks(blocks);
    let (regs, pinned) = (&mut msg.user_regs, &mut msg.pinned_bytes);
    let Some(mut cost) = try_acquire_user_regs(rs, ctx, &regions, regs, pinned) else {
        return false;
    };
    if pin == Pin::User {
        cost += device_reg_extra(ctx, rs.rank, msg.buf);
    }
    msg.reg_done = false;
    let done = rs.cpu.reserve_labeled(ctx.now(), cost, "reg");
    let (peer, seq) = (msg.peer, msg.seq);
    ctx.cpu_event(done, rs.rank, CpuAct::SenderRegDone { peer, seq });
    true
}

/// Starts (or continues) the sender's pack chain: one segment of the
/// packed substream at a time on the CPU, so posting interleaves with
/// packing (§4.3.1 pipelining). Waits until staging buffers exist
/// (Hybrid assigns them once its direct writes are out).
fn start_pack_chain(rs: &mut RankState, ctx: &mut Ctx<'_, '_>, msg: &mut SendMsg) {
    let k = msg.packed;
    if msg.pack_chain_running || k >= msg.nsegs || k as usize >= msg.pack_bufs.len() {
        return;
    }
    let plan = rs.plan_for(&msg.ty, msg.count);
    let lo = k as u64 * msg.seg_size;
    let hi = lo + seg_len(msg, k);
    let (range, staged) = ((lo, hi), Staged::PackInto(&msg.pack_bufs[k as usize..]));
    let charge = Charge::Segment("pack");
    let ivs = &msg.packed_ivs;
    let done = copy_step(rs, ctx, &plan, msg.buf, ivs, range, hi - lo, staged, charge);
    msg.pack_chain_running = true;
    let (peer, seq) = (msg.peer, msg.seq);
    ctx.cpu_event(done, rs.rank, CpuAct::PackSeg { peer, seq, k });
}

/// Bytes of packed segment `k`.
fn seg_len(msg: &SendMsg, k: u32) -> u64 {
    let lo = k as u64 * msg.seg_size;
    (lo + msg.seg_size).min(substream_len(&msg.packed_ivs, msg.size)) - lo
}

/// Posts what the current state allows and keeps the pack chain moving,
/// then puts the message back — or, when a post failed, hands it to the
/// connection manager or a typed abort.
fn drive_send(rs: &mut RankState, am: &mut ActiveMsgs, ctx: &mut Ctx<'_, '_>, mut msg: SendMsg) {
    match try_post_ready(rs, ctx, &mut msg) {
        Ok(()) => {
            start_pack_chain(rs, ctx, &mut msg);
            am.sends.insert((msg.peer, msg.seq), msg);
        }
        Err(err) => resolve_send_failure(rs, am, ctx, msg, err),
    }
}

/// Plans the work requests the current state allows and posts them:
/// announcements for P-RRS, one Multi-W write list, RWG-UP gather
/// writes, or the segment pipeline.
fn try_post_ready(
    rs: &mut RankState,
    ctx: &mut Ctx<'_, '_>,
    msg: &mut SendMsg,
) -> Result<(), MpiError> {
    let data = WR_DATA | msg.seq;
    let max_sge = ctx.net.max_sge;
    match &msg.targets {
        None => Ok(()),
        Some(SendTargets::ReadGo) => {
            announce_segments(rs, ctx, msg);
            Ok(())
        }
        Some(SendTargets::MultiW {
            rcv_blocks,
            regions,
        }) => {
            let staged = msg.mw_stage;
            if msg.direct_posted || !msg.reg_done || (staged && msg.packed < msg.nsegs) {
                return Ok(());
            }
            // Zero-copy gathers from the pinned user buffer; degraded
            // Multi-W streams the staged copy, one entry per write so
            // no write straddles two staging buffers.
            let rkey = |a, l| region_key(regions, a, l);
            let tail = Tail::imm(imm_of(msg.seq, 0), true);
            let mut snd = rs.scratch.take_blocks();
            let mut wrs = Vec::new();
            if staged {
                let bufs = &msg.pack_bufs;
                let lens = (0..msg.nsegs).map(|k| seg_len(msg, k));
                snd.extend(bufs.iter().map(|sb| sb.va).zip(lens));
                let lkey = |a, _| {
                    let sb = bufs.iter().find(|sb| sb.va <= a && a < sb.va + sb.len);
                    sb.map_or(u32::MAX, |sb| sb.lkey)
                };
                let frame = WrFrame::write(data, 1, lkey, rkey);
                plan_multi_w(&frame, &snd, rcv_blocks, tail, &mut wrs);
            } else {
                let tplan = rs.plan_for(&msg.ty, msg.count);
                abs_blocks_into(&tplan, msg.buf, &mut snd);
                let regs = &msg.user_regs;
                let frame = WrFrame::write(data, max_sge, |a, l| lkey_for(regs, a, l), rkey);
                plan_multi_w(&frame, &snd, rcv_blocks, tail, &mut wrs);
            }
            rs.scratch.put_blocks(snd);
            msg.direct_posted = true;
            post_wrs(rs, ctx, msg.peer, wrs, true)
        }
        Some(SendTargets::Segments {
            segs,
            feed: Feed::Gathered,
        }) => {
            // Resume-aware: after a connection recovery `posted_segs`
            // holds the receiver-acknowledged prefix, and the gather
            // writes restart from that segment boundary.
            if !msg.reg_done || msg.posted_segs >= msg.nsegs {
                return Ok(());
            }
            let tplan = rs.plan_for(&msg.ty, msg.count);
            let regs = &msg.user_regs;
            let lkey = |a, l| lkey_for(regs, a, l);
            let mut blocks = rs.scratch.take_blocks();
            let mut wrs = Vec::new();
            for k in msg.posted_segs..msg.nsegs {
                let (dst, rkey) = segs[k as usize];
                let lo = k as u64 * msg.seg_size;
                blocks.clear();
                blocks_in_range(&tplan, msg.buf, lo, lo + seg_len(msg, k), &mut blocks);
                let frame = WrFrame::write(data, max_sge, lkey, |_, _| rkey);
                let tail = Tail::imm(imm_of(msg.seq, k), k == msg.nsegs - 1);
                plan_gather(&frame, &blocks, dst, tail, &mut wrs);
            }
            rs.scratch.put_blocks(blocks);
            post_wrs(rs, ctx, msg.peer, wrs, false)?;
            msg.posted_segs = msg.nsegs;
            Ok(())
        }
        Some(SendTargets::Segments { .. }) => post_segments(rs, ctx, msg),
    }
}

/// P-RRS: announces the segments the receiver may read — straight out
/// of the registered user buffer for a contiguous sender, else each
/// packed segment as it becomes ready.
fn announce_segments(rs: &mut RankState, ctx: &mut Ctx<'_, '_>, msg: &mut SendMsg) {
    if msg.contig {
        if !msg.reg_done || msg.posted_segs > 0 {
            return;
        }
        let base = msg.buf as i64 + msg.ty.true_lb();
        for k in 0..msg.nsegs {
            let addr = (base + (k as u64 * msg.seg_size) as i64) as Va;
            let len = seg_len(msg, k);
            let rkey = msg
                .user_regs
                .iter()
                .find(|r| r.covers(addr, len))
                .expect("registration covers the contiguous buffer")
                .rkey;
            let ready = CtrlMsg::SegReady {
                seq: msg.seq,
                k,
                addr,
                rkey,
                len,
            };
            send_ctrl_msg(rs, ctx, msg.peer, &ready, 0);
        }
        msg.posted_segs = msg.nsegs;
        return;
    }
    while msg.posted_segs < msg.packed {
        let k = msg.posted_segs;
        let sb = msg.pack_bufs[k as usize];
        let ready = CtrlMsg::SegReady {
            seq: msg.seq,
            k,
            addr: sb.va,
            rkey: sb.rkey,
            len: seg_len(msg, k),
        };
        send_ctrl_msg(rs, ctx, msg.peer, &ready, 0);
        msg.posted_segs += 1;
    }
}

/// The segment pipeline shared by Generic, BC-SPUP and Hybrid: Hybrid's
/// direct gather writes once its registration is done, then every
/// packed segment that is ready, in order, then Hybrid's completion
/// marker (ordered last on the QP, so its arrival implies all data
/// landed).
fn post_segments(
    rs: &mut RankState,
    ctx: &mut Ctx<'_, '_>,
    msg: &mut SendMsg,
) -> Result<(), MpiError> {
    let Some(SendTargets::Segments { segs, feed }) = &msg.targets else {
        unreachable!("segment pipeline without segment targets");
    };
    let (peer, seq, max_sge) = (msg.peer, msg.seq, ctx.net.max_sge);
    let hybrid = matches!(feed, Feed::Hybrid { .. });
    if let Feed::Hybrid { direct, regions } = feed {
        if !msg.reg_done {
            return Ok(());
        }
        if !msg.direct_posted {
            msg.direct_posted = true;
            let tplan = rs.plan_for(&msg.ty, msg.count);
            let regs = &msg.user_regs;
            let lkey = |a, l| lkey_for(regs, a, l);
            let rkey = |a, l| region_key(regions, a, l);
            let frame = WrFrame::write(WR_DATA | seq, max_sge, lkey, rkey);
            let mut blocks = rs.scratch.take_blocks();
            let mut wrs = Vec::new();
            for &(lo, hi, dst) in direct {
                blocks.clear();
                blocks_in_range(&tplan, msg.buf, lo, hi, &mut blocks);
                plan_gather(&frame, &blocks, dst, Tail::default(), &mut wrs);
            }
            rs.scratch.put_blocks(blocks);
            post_wrs(rs, ctx, peer, wrs, true)?;
            // Staging for the small-block substream (if any): the pack
            // chain starts once the direct writes are out.
            if msg.pack_bufs.is_empty() {
                for _ in 0..msg.nsegs {
                    msg.pack_bufs.push(acquire_seg(rs, ctx, false));
                }
            }
        }
    }
    while msg.posted_segs < msg.packed {
        let k = msg.posted_segs;
        let sb = msg.pack_bufs[k as usize];
        let (dst, rkey) = segs[k as usize];
        let frame = WrFrame::write(WR_DATA | seq, max_sge, |_, _| sb.lkey, |_, _| rkey);
        let tail = Tail::imm(imm_of(seq, k), !hybrid && k == msg.nsegs - 1);
        let wr = frame.wr(&[(sb.va, seg_len(msg, k))], dst, tail);
        post_wrs(rs, ctx, peer, [wr], false)?;
        msg.posted_segs += 1;
    }
    if let Feed::Hybrid { regions, .. } = feed {
        if !msg.marker_posted && msg.posted_segs == msg.nsegs {
            msg.marker_posted = true;
            let first_region = regions.first().map(|&(a, _, key)| (a, key));
            let Some((dst, rkey)) = segs.first().copied().or(first_region) else {
                // A rendezvous message always has a target; fail typed
                // rather than panicking on the protocol violation.
                debug_assert!(false, "non-empty message has no hybrid target");
                return Err(MpiError::UnknownMessage { peer, seq });
            };
            let frame = WrFrame::write(WR_DATA | seq, max_sge, |_, _| 0, |_, _| rkey);
            let marker = frame.wr(&[], dst, Tail::imm(imm_of(seq, MARKER_K), true));
            post_wrs(rs, ctx, peer, [marker], false)?;
        }
    }
    Ok(())
}

/// The one poster of the data path: hands a planned batch to the
/// transport toward `peer` and charges the CPU for it — one
/// `post_list_ns(n)` when `list` allows a descriptor list and the
/// configuration list-posts (§7.4), else `post_single_ns` per work
/// request, stopping at the first refusal. Counts the requests posted
/// and the refusals; a refusal comes back typed.
pub(crate) fn post_wrs<I>(
    rs: &mut RankState,
    ctx: &mut Ctx<'_, '_>,
    peer: u32,
    wrs: I,
    list: bool,
) -> Result<(), MpiError>
where
    I: IntoIterator<Item = SendWr>,
    I::IntoIter: ExactSizeIterator,
{
    let mut wrs = wrs.into_iter();
    let res = if list && ctx.cfg.list_post {
        let n = wrs.len();
        if n == 0 {
            return Ok(());
        }
        rs.counters.data_wrs += n as u64;
        let ready = rs
            .cpu
            .reserve_labeled(ctx.now(), ctx.net.post_list_ns(n), "post");
        ctx.post_send_list(ready, rs.rank, peer, wrs.collect())
    } else {
        wrs.try_for_each(|wr| {
            rs.counters.data_wrs += 1;
            let ready = rs
                .cpu
                .reserve_labeled(ctx.now(), ctx.net.post_single_ns, "post");
            ctx.post_send(ready, rs.rank, peer, wr)
        })
    };
    res.map_err(|err| {
        rs.counters.post_errors += 1;
        MpiError::Post { peer, err }
    })
}

/// The sender's data duty is done: the last data WR completed locally,
/// or — `fin` — the P-RRS receiver read everything.
fn sender_done(
    rs: &mut RankState,
    am: &mut ActiveMsgs,
    ctx: &mut Ctx<'_, '_>,
    peer: u32,
    seq: u64,
    fin: bool,
) {
    let Some(msg) = am.sends.remove(&(peer, seq)) else {
        // The send was already aborted; a Fin is a stale straggler.
        if fin && !ctx.fabric.faults_active() {
            rs.errors.push(MpiError::UnknownMessage { peer, seq });
        }
        return;
    };
    debug_assert!(!msg.completed);
    finish_send(rs, ctx, msg, None);
}

fn sender_release(rs: &mut RankState, ctx: &mut Ctx<'_, '_>, msg: &mut SendMsg) {
    let (regs, pinned) = (&mut msg.user_regs, &mut msg.pinned_bytes);
    release_msg(rs, ctx, &mut msg.pack_bufs, false, regs, pinned);
}

/// Returns a message's staging buffers (to the unpack pool when
/// `unpack`) and user registrations, and refunds its pinning-budget
/// charge.
fn release_msg(
    rs: &mut RankState,
    ctx: &mut Ctx<'_, '_>,
    bufs: &mut Vec<StageBuf>,
    unpack: bool,
    regs: &mut Vec<Registration>,
    pinned: &mut u64,
) {
    release_stage_bufs(rs, ctx, bufs, unpack);
    let mut bufs = std::mem::take(bufs);
    bufs.clear();
    rs.scratch.put_stage(bufs);
    let mut cost = 0;
    for r in regs.drain(..) {
        // A `BadKey` means the pin-down cache force-evicted the region
        // under the transfer (§5.4.2) — already deregistered.
        if let Ok(c) =
            rs.pindown
                .release(&mut ctx.mems[rs.rank as usize].regs, &ctx.host.reg, r.lkey)
        {
            cost += c;
        }
    }
    if cost > 0 {
        rs.cpu.reserve_labeled(ctx.now(), cost, "dereg");
    }
    rs.pinned_user_bytes = rs.pinned_user_bytes.saturating_sub(*pinned);
    *pinned = 0;
}

// ---------------------------------------------------------------------
// Staging buffers (pool with dynamic fallback, §4.3.3)
// ---------------------------------------------------------------------

/// Takes one segment buffer from the pack (or, when `unpack`, the
/// unpack) pool, falling back to a dynamic buffer when it is exhausted.
fn acquire_seg(rs: &mut RankState, ctx: &mut Ctx<'_, '_>, unpack: bool) -> StageBuf {
    let pool = if unpack {
        &mut rs.unpack_pool
    } else {
        &mut rs.pack_pool
    };
    match pool.acquire() {
        Some(va) => StageBuf {
            va,
            len: pool.seg_size(),
            lkey: pool.lkey(),
            rkey: pool.rkey(),
            dynamic: false,
        },
        None => {
            rs.counters.pool_fallbacks += 1;
            acquire_stage(rs, ctx, ctx.cfg.max_seg_size)
        }
    }
}

/// Dynamically allocates and registers a staging buffer of `size`
/// bytes (the Generic scheme's per-operation buffers, and the pool
/// fallback). Memory is recycled through a freelist, but malloc/free
/// costs are charged every time — matching dynamically allocated
/// buffers in the original implementation. Registration goes through
/// the pin-down cache when `reuse_internal_bufs` is set ("Datatype" in
/// Fig. 2 amortizes registration; "DT+reg" registers every operation).
fn acquire_stage(rs: &mut RankState, ctx: &mut Ctx<'_, '_>, size: u64) -> StageBuf {
    rs.counters.dynamic_allocs += 1;
    let va = match rs.internal.free.get_mut(&size).and_then(Vec::pop) {
        Some(va) => va,
        None => ctx.mems[rs.rank as usize]
            .space
            .alloc_page_aligned(size)
            .expect("address space exhausted (raise capacity)"),
    };
    let mut cost = ctx.host.malloc_ns;
    let acq = if ctx.cfg.reuse_internal_bufs {
        rs.pindown.acquire(
            &mut ctx.mems[rs.rank as usize].regs,
            &ctx.host.reg,
            va,
            size,
        )
    } else {
        // "DT+reg": force a fresh registration every operation.
        let reg = ctx.mems[rs.rank as usize].regs.register(va, size);
        cost += ctx.host.reg.reg_cost(va, size);
        ibdt_memreg::cache::Acquire {
            reg,
            cost_ns: 0,
            hit: false,
        }
    };
    cost += acq.cost_ns;
    rs.cpu.reserve_labeled(ctx.now(), cost, "malloc+reg");
    StageBuf {
        va,
        len: size,
        lkey: acq.reg.lkey,
        rkey: acq.reg.rkey,
        dynamic: true,
    }
}

fn release_stage_bufs(rs: &mut RankState, ctx: &mut Ctx<'_, '_>, bufs: &[StageBuf], unpack: bool) {
    let mut cost = 0;
    for sb in bufs {
        if sb.dynamic {
            cost += ctx.host.free_ns;
            if ctx.cfg.reuse_internal_bufs {
                // `BadKey` = already evicted under the transfer; the
                // deregistration was paid by the evictor.
                if let Ok(c) =
                    rs.pindown
                        .release(&mut ctx.mems[rs.rank as usize].regs, &ctx.host.reg, sb.lkey)
                {
                    cost += c;
                }
            } else if let Ok(reg) = ctx.mems[rs.rank as usize]
                .regs
                .deregister(ibdt_memreg::MrHandle(sb.lkey))
            {
                cost += ctx.host.reg.dereg_cost(reg.addr, reg.len);
            }
            rs.internal.free.entry(sb.len).or_default().push(sb.va);
        } else if unpack {
            rs.unpack_pool.release(sb.va);
        } else {
            rs.pack_pool.release(sb.va);
        }
    }
    if cost > 0 {
        rs.cpu.reserve_labeled(ctx.now(), cost, "free");
    }
}

// ---------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------

/// Fills `out` with the absolute-address contiguous blocks of the
/// plan's message at `buf`. `out` is cleared first so callers can pass
/// a [`ScratchPool`](crate::pool::ScratchPool) vector and keep the
/// steady-state path allocation-free.
pub(crate) fn abs_blocks_into(plan: &TransferPlan, buf: Va, out: &mut Vec<(Va, u64)>) {
    out.clear();
    out.extend(
        plan.blocks()
            .iter()
            .map(|&(o, l)| ((buf as i64 + o) as u64, l)),
    );
}

/// Appends to `out` the absolute-address contiguous blocks of the
/// stream range `[lo, hi)` of the plan's message at `buf`.
fn blocks_in_range(plan: &TransferPlan, buf: Va, lo: u64, hi: u64, out: &mut Vec<(Va, u64)>) {
    plan.for_each_block(lo, hi, |off, l| out.push(((buf as i64 + off) as u64, l)))
        .expect("range valid");
}

// ---------------------------------------------------------------------
// Connection manager: QP-death detection, re-establishment, re-drive
// ---------------------------------------------------------------------

/// True for transport-class failures the connection manager can recover
/// from by re-establishing the queue pair (as opposed to protocol
/// errors, which no reconnect can fix).
fn recoverable(err: &MpiError) -> bool {
    matches!(
        err,
        MpiError::Flushed { .. }
            | MpiError::RetryExceeded { .. }
            | MpiError::RnrRetryExceeded { .. }
            | MpiError::CqOverflow { .. }
            | MpiError::Post {
                err: PostError::QpError { .. } | PostError::QpNotReady { .. },
                ..
            }
    )
}

/// True when the membership view has declared `peer` dead for good:
/// its node suffered a crash-stop failure and no restart is pending.
/// Mirrors the out-of-band health service (subnet manager) a real
/// connection manager consults — a node that will restart is merely
/// *suspected* and stays worth reconnect attempts; one that will not
/// is *failed* and every retry toward it is wasted work.
fn peer_failed(ctx: &Ctx<'_, '_>, peer: u32) -> bool {
    ctx.fabric.node_down(peer) && !ctx.fabric.node_will_restart(peer)
}

/// The terminal error once the connection manager gives up on `peer`:
/// the crash-stop diagnosis [`MpiError::PeerFailed`] when the
/// membership view reports the node dead, the transient
/// [`MpiError::ConnectionLost`] otherwise.
fn give_up_error(rs: &RankState, ctx: &Ctx<'_, '_>, peer: u32) -> MpiError {
    if peer_failed(ctx, peer) {
        MpiError::PeerFailed { peer }
    } else {
        let attempts = rs.reconn.get(&peer).map_or(0, |r| r.attempts);
        MpiError::ConnectionLost { peer, attempts }
    }
}

/// Drains everything the connection manager had suspended toward
/// `peer`: eager ring slots return to the free list (re-driving sends
/// queued behind them), suspended rendezvous sends and receives fail
/// with `err`. Called at give-up time so no request stays parked on a
/// connection that is never coming back — the "complete what is
/// completable, fail the rest typed, never hang" half of the failure
/// contract.
fn drain_suspended(
    rs: &mut RankState,
    am: &mut ActiveMsgs,
    ctx: &mut Ctx<'_, '_>,
    peer: u32,
    err: MpiError,
) {
    let Some(r) = rs.reconn.get_mut(&peer) else {
        return;
    };
    r.active = false;
    let eager_slots = std::mem::take(&mut r.eager_slots);
    let sends: Vec<u64> = r.sends.iter().copied().collect();
    let recvs: Vec<u64> = r.recvs.iter().copied().collect();
    r.sends.clear();
    r.recvs.clear();
    r.pending_ctrl.clear();
    for va in eager_slots {
        rs.eager_send_free.push(va);
        rs.errors.push(err);
    }
    drain_pending_eager(rs, ctx);
    for seq in sends {
        if let Some(msg) = am.sends.remove(&(peer, seq)) {
            finish_send(rs, ctx, msg, Some(err));
        }
    }
    for seq in recvs {
        abort_recv(rs, am, ctx, peer, seq, err);
    }
}

/// Ensures a reconnect handshake to `peer` is scheduled, modelling the
/// connection manager's out-of-band exchange with `reconnect_ns`
/// latency. Returns `false` when the re-establishment budget is
/// exhausted or the peer is diagnosed as failed — the caller then
/// fails the traffic with [`give_up_error`].
fn ensure_reconnect(rs: &mut RankState, ctx: &mut Ctx<'_, '_>, peer: u32) -> bool {
    if peer_failed(ctx, peer) {
        return false;
    }
    let rank = rs.rank;
    let at = ctx.now() + ctx.cfg.reconnect_ns;
    let r = rs.reconn.get_or_default(peer);
    if r.attempts >= ctx.cfg.max_reconnects {
        return false;
    }
    if !r.active {
        r.active = true;
        ctx.cpu_event(at, rank, CpuAct::Reconnect { peer });
    }
    true
}

/// Routes a failed send either into the connection manager (suspended,
/// re-driven after reconnect) or into a typed abort.
fn resolve_send_failure(
    rs: &mut RankState,
    am: &mut ActiveMsgs,
    ctx: &mut Ctx<'_, '_>,
    msg: SendMsg,
    err: MpiError,
) {
    let peer = msg.peer;
    if recoverable(&err) {
        if ensure_reconnect(rs, ctx, peer) {
            rs.reconn
                .get_mut(&peer)
                .expect("entry ensured above")
                .sends
                .insert(msg.seq);
            am.sends.insert((peer, msg.seq), msg);
            return;
        }
        let err = give_up_error(rs, ctx, peer);
        drain_suspended(rs, am, ctx, peer, err);
        finish_send(rs, ctx, msg, Some(err));
        return;
    }
    finish_send(rs, ctx, msg, Some(err));
}

/// The reconnect handshake to `peer` finished: re-establish the errored
/// QP directions and re-drive everything the failure suspended, in
/// deterministic order (ring slots, queued control, sends, receives).
fn do_reconnect(rs: &mut RankState, am: &mut ActiveMsgs, ctx: &mut Ctx<'_, '_>, peer: u32) {
    if peer_failed(ctx, peer) {
        // The handshake raced a crash-stop diagnosis: the peer is dead
        // for good, so re-establishing its QPs would only feed more
        // traffic into a black hole. Drain instead.
        let err = MpiError::PeerFailed { peer };
        drain_suspended(rs, am, ctx, peer, err);
        return;
    }
    let Some(mut r) = rs.reconn.remove(&peer) else {
        return;
    };
    r.active = false;
    r.attempts += 1;
    for (a, b) in [(rs.rank, peer), (peer, rs.rank)] {
        if ctx.fabric.qp_errored(a, b) {
            ctx.fabric.reestablish_qp(a, b);
        }
    }
    rs.counters.qp_reestablished += 1;
    let eager_slots = std::mem::take(&mut r.eager_slots);
    let pending_ctrl = std::mem::take(&mut r.pending_ctrl);
    let sends: Vec<u64> = r.sends.iter().copied().collect();
    let recvs: Vec<u64> = r.recvs.iter().copied().collect();
    r.sends.clear();
    r.recvs.clear();
    // The entry (with its attempt count) stays: a connection that keeps
    // dying must eventually fail typed instead of looping forever.
    rs.reconn.insert(peer, r);
    for va in eager_slots {
        resend_eager_slot(rs, ctx, peer, va);
    }
    for bytes in pending_ctrl {
        send_ctrl(rs, ctx, peer, bytes, 0);
    }
    for seq in sends {
        resume_send(rs, am, ctx, peer, seq);
    }
    for seq in recvs {
        resume_recv(rs, am, ctx, peer, seq);
    }
}

/// Re-posts a flushed eager/control send from its ring slot. The slot
/// still holds the encoded bytes, and a flushed WQE was never delivered
/// (flush precludes delivery), so the re-post cannot duplicate a
/// message the peer already consumed. The wire length is recovered from
/// the encoded header.
fn resend_eager_slot(rs: &mut RankState, ctx: &mut Ctx<'_, '_>, peer: u32, va: Va) {
    let bytes = ctx.mems[rs.rank as usize]
        .space
        .read(va, ctx.cfg.eager_buf_size)
        .expect("eager ring buffer readable");
    // The slot may open with piggybacked `CreditUpdate`s; the wire
    // length covers the whole prefix plus the carried message. The zero
    // terminator each slot write appends decodes to `None`, marking the
    // end of a slot that carries only credits.
    let mut off = 0usize;
    let len = loop {
        match CtrlMsg::decode(&bytes[off..]) {
            None if off > 0 => break off as u64,
            None => {
                // Nothing decodable at all (protocol bug): return the
                // slot to the ring rather than resending garbage.
                rs.eager_send_free.push(va);
                drain_pending_eager(rs, ctx);
                return;
            }
            Some((m, hdr_len)) => {
                off += hdr_len;
                match m {
                    CtrlMsg::CreditUpdate { .. } => continue,
                    CtrlMsg::EagerData { size, .. } => break off as u64 + size,
                    _ => break off as u64,
                }
            }
        }
    };
    if !post_ctrl_slot(rs, ctx, peer, va, len, 0) {
        rs.reconn
            .get_mut(&peer)
            .expect("reconnect scheduled")
            .eager_slots
            .push(va);
    }
}

/// Re-drives a suspended rendezvous send after re-establishment.
fn resume_send(
    rs: &mut RankState,
    am: &mut ActiveMsgs,
    ctx: &mut Ctx<'_, '_>,
    peer: u32,
    seq: u64,
) {
    let Some(msg) = am.sends.get(&(peer, seq)) else {
        return;
    };
    if msg.completed {
        return;
    }
    match &msg.targets {
        None => {
            // No reply yet. The start itself may have been flushed (it
            // was re-posted from its ring slot just before this call);
            // probe so the receiver resends a reply that crossed the
            // failure.
            send_ctrl_msg(rs, ctx, peer, &CtrlMsg::RndvProbe { seq }, 0);
        }
        Some(SendTargets::ReadGo) => {
            // P-RRS: re-announce every packed segment; the recovering
            // receiver deduplicates and re-reads idempotently.
            let Some(mut msg) = am.sends.remove(&(peer, seq)) else {
                return;
            };
            msg.posted_segs = 0;
            drive_send(rs, am, ctx, msg);
        }
        Some(_) => {
            // Data-bearing schemes restart from the receiver's
            // acknowledged chunk boundary — ask where that is.
            send_ctrl_msg(rs, ctx, peer, &CtrlMsg::RndvResume { seq }, 0);
        }
    }
}

/// Re-drives a suspended read-driven (P-RRS) receive: reset the
/// announcement bookkeeping and ask the sender to re-announce. Repeated
/// reads are idempotent, so restarting from zero is always safe.
fn resume_recv(
    rs: &mut RankState,
    am: &mut ActiveMsgs,
    ctx: &mut Ctx<'_, '_>,
    peer: u32,
    seq: u64,
) {
    let Some(msg) = am.recvs.get_mut(&(peer, seq)) else {
        return;
    };
    if msg.completed {
        return;
    }
    msg.reads_outstanding = 0;
    msg.segs_done = 0;
    msg.segs_seen.clear();
    send_ctrl_msg(rs, ctx, peer, &CtrlMsg::RndvResume { seq }, 0);
}

/// Falls back from a zero-copy transfer to the copy-based BC-SPUP path
/// by renegotiating the message once: after a §5.4.2 protection fault
/// (the receiver's pinned region vanished under a write, remote-access
/// NAK), or when the pinning budget refuses Hybrid's reply-time
/// registration. The caller counts the cause.
fn renegotiate_send(
    rs: &mut RankState,
    am: &mut ActiveMsgs,
    ctx: &mut Ctx<'_, '_>,
    mut old: SendMsg,
) {
    // Tear down the zero-copy generation: registrations, staging, and
    // any pack pipeline still in flight. The new generation's duplicate
    // start is the renegotiation signal (a flushed original was never
    // delivered, so no ambiguity).
    sender_release(rs, ctx, &mut old);
    let stats = rs.plan_for(&old.ty, old.count).stats();
    let (peer, seq) = (old.peer, old.seq);
    let mut msg = SendMsg {
        renegotiated: true,
        drop_packs: old.drop_packs + u32::from(old.pack_chain_running),
        ..start_send(
            rs, ctx, old.req, peer, seq, old.tag, old.buf, old.count, old.ty, FALLBACK, stats,
        )
    };
    let prep = send_prep(FALLBACK, msg.contig, PrepAt::Reply);
    prepare_send(rs, ctx, &mut msg, prep);
    am.sends.insert((peer, seq), msg);
}

/// Receiver side of the §5.4.2 fallback: rebuild a live receive as
/// BC-SPUP after the sender renegotiated.
fn receiver_renegotiate(
    rs: &mut RankState,
    am: &mut ActiveMsgs,
    ctx: &mut Ctx<'_, '_>,
    peer: u32,
    seq: u64,
    size: u64,
) {
    let Some(mut old) = am.recvs.remove(&(peer, seq)) else {
        return;
    };
    debug_assert_eq!(old.size, size, "renegotiated size changed");
    receiver_release(rs, ctx, &mut old);
    // Unpack completions still in flight belong to the torn-down
    // generation (arrived-but-not-unpacked packed segments).
    let mut msg = RecvMsg {
        drop_unpacks: old.drop_unpacks + old.segs_arrived.saturating_sub(old.segs_done),
        ..RecvMsg::new(rs, old.req, peer, seq, old.buf, old.count, old.ty)
    };
    receiver_reply(rs, ctx, &mut msg, FALLBACK, FALLBACK);
    am.recvs.insert((peer, seq), msg);
}

/// Deterministic §5.4.2 eviction injection: with `evict_rate` set in
/// the fault plan, force-evict the first user registration backing a
/// zero-copy reply right after it is pinned. The draw hashes the plan
/// seed with the transfer identity, so it reproduces across runs and is
/// independent of event interleaving (the fabric's own decision stream
/// is untouched).
fn maybe_evict_reply_reg(rs: &mut RankState, ctx: &mut Ctx<'_, '_>, msg: &RecvMsg) {
    let (rate, seed) = match ctx.fabric.fault_plan() {
        Some(p) => (p.evict_rate, p.seed),
        None => return,
    };
    if rate <= 0.0 || msg.user_regs.is_empty() {
        return;
    }
    let ident = ((rs.rank as u64) << 40) ^ ((msg.peer as u64) << 20) ^ msg.seq;
    let mut h = seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(ident | 1));
    // SplitMix64 finalizer: decorrelate the identity hash.
    h ^= h >> 30;
    h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^= h >> 31;
    let u = (h >> 11) as f64 / (1u64 << 53) as f64;
    if rate >= 1.0 || u < rate {
        let _ = rs
            .pindown
            .force_evict(&mut ctx.mems[rs.rank as usize].regs, msg.user_regs[0].lkey);
    }
}
