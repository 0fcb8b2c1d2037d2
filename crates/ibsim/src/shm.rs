//! Shared-memory transport backend.
//!
//! Models intra-node MPI communication the way Nemesis-style channels
//! implement it, with two selectable copy disciplines:
//!
//! * **Double copy** ([`ShmCopyMode::Double`]): the sender packs into a
//!   bounded shared bounce segment slot by slot and the receiver
//!   unpacks out of it — two copies per byte, pipelined across
//!   `seg_bytes / slot_bytes` slots (segment-slot flow control bounds
//!   the overlap exactly as [`two_stage_finish_ns`] describes).
//! * **Single copy** ([`ShmCopyMode::Single`]): a CMA-style
//!   cross-process copy (`process_vm_readv`-like) moves the bytes in
//!   one pass, paying a per-work-request syscall setup cost
//!   [`ShmConfig::cma_setup_ns`]. The per-WR setup is what makes
//!   many-small-WR schemes (Multi-W) lose on this transport while they
//!   win on IB.
//!
//! Copy **placement** is explicit and charged on the correct rank's
//! serial copy engine (the per-node [`SerialResource`] doubling as the
//! progress-engine CPU for transport copies):
//!
//! | opcode            | double copy                    | single copy           |
//! |-------------------|--------------------------------|-----------------------|
//! | `Send`            | in: sender, out: receiver      | receiver pulls        |
//! | `RdmaWrite[Imm]`  | in: sender, out: receiver      | sender pushes         |
//! | `RdmaRead`        | in: responder, out: requester  | requester pulls       |
//!
//! Functional behaviour is the [`Fabric`](crate::fabric::Fabric)'s:
//! both deliver through one core (`crate::deliver`), so lkey/rkey
//! checks run against the same registration tables (the MPI layer
//! registers identically on every transport), and a send or
//! write-with-immediate arriving with no receive descriptor parks in
//! an RNR queue drained on the next receive post. Every transfer lives
//! in the channel's slab from post until delivery; its
//! [`NicEvent::Arrive`] and the park queue carry its handle. An RDMA
//! read or write checks the responder's rkey at post: a bad key
//! completes the sender once, with `RemoteAccess`, and moves nothing.
//! What differs is when the bytes are read. A receiver pull
//! (single-copy `Send`, `RdmaRead`) reads the source at delivery, as
//! the fabric does. A transfer whose
//! sender completes before delivery gathers its bytes at post into a
//! [`Payload`](crate::payload::Payload): the double-copy bounce (copy
//! in at post, out at delivery) and the single-copy write (the sender
//! pushes and completes at once). Such a sender is released: a
//! too-small receive descriptor errors only the receiver, where a
//! single-copy sender gets `RemoteAccess` as on IB. The backend has no
//! fault injection, QP lifecycle, or crash-stop membership: the
//! [`Transport`] queries answer with the inert values, and installing
//! a non-inert fault plan is rejected.
//!
//! The model is deterministic: no randomness, no host-time reads, so
//! the same seed and configuration produce an identical
//! `RunStats` fingerprint on every run.

use crate::deliver::{check_post, check_sges, gather, send_cqe, Delivered, Op, Rx, Source, Xfer};
use crate::fabric::{FabricStats, NicEvent, NodeMem};
use crate::fault::FaultPlan;
use crate::transport::{Transport, TransportClass};
use crate::wr::{Cqe, CqeStatus, Opcode, PostError, RecvWr, SendWr, Sge};
use ibdt_simcore::pipeline::two_stage_finish_ns;
use ibdt_simcore::resource::SerialResource;
use ibdt_simcore::slab::{Handle, Slab};
use ibdt_simcore::time::{transfer_ns, Time};
use std::fmt;

/// How many copies each byte pays crossing the shared-memory channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShmCopyMode {
    /// Bounce through a bounded shared segment: copy in, copy out.
    Double,
    /// CMA-style direct cross-process copy: one copy, one syscall
    /// setup per work request.
    Single,
}

/// Shared-memory channel cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShmConfig {
    /// Copy discipline.
    pub copy_mode: ShmCopyMode,
    /// Bounce segment capacity per in-flight transfer (double copy).
    pub seg_bytes: u64,
    /// Bounce slot granularity; `seg_bytes / slot_bytes` slots bound
    /// the copy-in/copy-out overlap.
    pub slot_bytes: u64,
    /// Memcpy bandwidth into/out of the shared segment.
    pub bounce_bw_bps: u64,
    /// Per-slot bookkeeping (head/tail publication) on the bounce path.
    pub slot_overhead_ns: Time,
    /// Per-work-request syscall setup on the single-copy path.
    pub cma_setup_ns: Time,
    /// Cross-process copy bandwidth on the single-copy path.
    pub cma_bw_bps: u64,
    /// Peer-notification latency (futex/doorbell wake).
    pub doorbell_ns: Time,
    /// Local completion visibility delay.
    pub cqe_ns: Time,
    /// Scatter/gather entries accepted per work request.
    pub max_sge: usize,
}

impl Default for ShmConfig {
    fn default() -> Self {
        // Calibrated against single-node runs of the arXiv:2511.13804
        // study: bounce memcpy ~6 GB/s (two crossings of the memory
        // bus), CMA ~9 GB/s with a ~700 ns process_vm_readv setup.
        ShmConfig {
            copy_mode: ShmCopyMode::Double,
            seg_bytes: 128 * 1024,
            slot_bytes: 16 * 1024,
            bounce_bw_bps: 6_000_000_000,
            slot_overhead_ns: 150,
            cma_setup_ns: 2_000,
            cma_bw_bps: 9_000_000_000,
            doorbell_ns: 120,
            cqe_ns: 60,
            max_sge: 64,
        }
    }
}

/// A rejected shared-memory configuration (see [`ShmConfig::validate`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShmConfigError {
    /// `seg_bytes` is zero.
    ZeroSegment,
    /// `slot_bytes` is zero.
    ZeroSlot,
    /// A slot does not fit in the segment.
    SlotExceedsSegment {
        /// Offending slot size.
        slot: u64,
        /// Segment capacity.
        seg: u64,
    },
    /// The segment is not a whole number of slots.
    SegmentNotSlotMultiple {
        /// Offending slot size.
        slot: u64,
        /// Segment capacity.
        seg: u64,
    },
    /// `bounce_bw_bps` is zero.
    ZeroBounceBandwidth,
    /// `cma_bw_bps` is zero.
    ZeroCmaBandwidth,
    /// `max_sge` is zero.
    ZeroMaxSge,
}

impl fmt::Display for ShmConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShmConfigError::ZeroSegment => write!(f, "ShmConfig.seg_bytes must be positive"),
            ShmConfigError::ZeroSlot => write!(f, "ShmConfig.slot_bytes must be positive"),
            ShmConfigError::SlotExceedsSegment { slot, seg } => {
                write!(f, "ShmConfig.slot_bytes ({slot}) exceeds seg_bytes ({seg})")
            }
            ShmConfigError::SegmentNotSlotMultiple { slot, seg } => write!(
                f,
                "ShmConfig.seg_bytes ({seg}) is not a multiple of slot_bytes ({slot})"
            ),
            ShmConfigError::ZeroBounceBandwidth => {
                write!(f, "ShmConfig.bounce_bw_bps must be positive")
            }
            ShmConfigError::ZeroCmaBandwidth => {
                write!(f, "ShmConfig.cma_bw_bps must be positive")
            }
            ShmConfigError::ZeroMaxSge => write!(f, "ShmConfig.max_sge must be positive"),
        }
    }
}

impl std::error::Error for ShmConfigError {}

impl ShmConfig {
    /// Checks the configuration, rejecting parameter combinations the
    /// cost model cannot price (division by zero, empty pipelines)
    /// with a typed error instead of panicking or silently clamping.
    pub fn validate(&self) -> Result<(), ShmConfigError> {
        if self.seg_bytes == 0 {
            return Err(ShmConfigError::ZeroSegment);
        }
        if self.slot_bytes == 0 {
            return Err(ShmConfigError::ZeroSlot);
        }
        if self.slot_bytes > self.seg_bytes {
            return Err(ShmConfigError::SlotExceedsSegment {
                slot: self.slot_bytes,
                seg: self.seg_bytes,
            });
        }
        if !self.seg_bytes.is_multiple_of(self.slot_bytes) {
            return Err(ShmConfigError::SegmentNotSlotMultiple {
                slot: self.slot_bytes,
                seg: self.seg_bytes,
            });
        }
        if self.bounce_bw_bps == 0 {
            return Err(ShmConfigError::ZeroBounceBandwidth);
        }
        if self.cma_bw_bps == 0 {
            return Err(ShmConfigError::ZeroCmaBandwidth);
        }
        if self.max_sge == 0 {
            return Err(ShmConfigError::ZeroMaxSge);
        }
        Ok(())
    }

    /// Number of bounce slots available for overlap.
    fn slots(&self) -> usize {
        (self.seg_bytes / self.slot_bytes) as usize
    }

    /// Chunking of an `n`-byte bounce transfer: `(chunks, per-chunk
    /// copy time)`. Chunks are sized evenly (ceil) so the closed-form
    /// pipeline bound stays exact.
    fn bounce_chunks(&self, n: u64) -> (u64, Time) {
        let chunks = n.div_ceil(self.slot_bytes).max(1);
        let per = n.div_ceil(chunks);
        (
            chunks,
            self.slot_overhead_ns + transfer_ns(per, self.bounce_bw_bps),
        )
    }

    /// Single-copy cost of one `n`-byte work request.
    fn cma_ns(&self, n: u64) -> Time {
        self.cma_setup_ns + transfer_ns(n, self.cma_bw_bps)
    }
}

/// A shared-memory transfer in flight or parked.
#[derive(Debug)]
struct ShmXfer {
    x: Xfer,
    /// Double copy: completion floor from the slot-flow-control
    /// pipeline (the receiver cannot finish unpacking before it).
    floor: Time,
    /// Post order; names the transfer to the debug source audit.
    seq: u64,
}

/// The shared-memory channel: `n` ranks on one node, pairwise
/// segments/CMA permissions, no switch and no NIC.
#[derive(Debug)]
pub struct ShmChannel {
    cfg: ShmConfig,
    /// Per-rank transport copy engine (the progress-engine CPU doing
    /// bounce/CMA copies), traced for the pack/wire overlap statistic.
    engines: Vec<SerialResource>,
    /// Receive descriptors and RNR-parked transfers.
    rx: Rx,
    /// Every transfer from post until delivery.
    inflight: Slab<ShmXfer>,
    /// Transfers posted so far: the next transfer's `seq`.
    posted: u64,
    /// Transport counters by node (see [`FabricStats`]).
    node_stats: Vec<FabricStats>,
}

impl ShmChannel {
    /// Creates a channel connecting `n` ranks. Panics on an invalid
    /// configuration — validate first with [`ShmConfig::validate`]
    /// (the embedding `Cluster` does).
    pub fn new(n: usize, cfg: ShmConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid shm configuration: {e}");
        }
        ShmChannel {
            cfg,
            engines: (0..n)
                .map(|_| SerialResource::new("shm-copy").with_trace())
                .collect(),
            rx: Rx::new(n, 0),
            inflight: Slab::new(),
            posted: 0,
            node_stats: vec![FabricStats::default(); n],
        }
    }

    /// Returns the channel to its just-constructed state in place,
    /// keeping queue and trace capacity: copy engines idle at t=0,
    /// receive/park queues empty but warm, stats zeroed. A reset
    /// channel behaves bit-identically to [`ShmChannel::new`] — world
    /// recycling relies on this.
    pub fn reset(&mut self) {
        for e in &mut self.engines {
            e.reset();
        }
        self.rx.reset();
        self.inflight.clear();
        self.posted = 0;
        for s in &mut self.node_stats {
            *s = FabricStats::default();
        }
    }

    /// The channel's configuration.
    pub fn config(&self) -> &ShmConfig {
        &self.cfg
    }

    /// Number of ranks on the channel.
    pub fn len(&self) -> usize {
        self.engines.len()
    }

    /// True when the channel connects no ranks.
    pub fn is_empty(&self) -> bool {
        self.engines.is_empty()
    }

    /// Charges the sender-side bounce copy-in and returns `(sender
    /// completion instant, first-chunk doorbell instant, pipeline
    /// completion floor)`.
    fn charge_bounce_in(&mut self, ready_at: Time, node: u32, bytes: u64) -> (Time, Time, Time) {
        let (chunks, per) = self.cfg.bounce_chunks(bytes);
        let in_total = per * chunks;
        let in_done = self.engines[node as usize].reserve_labeled(ready_at, in_total, "wire");
        let in_start = in_done - in_total;
        let floor = in_start + two_stage_finish_ns(chunks, self.cfg.slots(), |_| per, |_| per);
        self.node_stats[node as usize].shm_bounce_chunks += chunks;
        (in_done, in_start + per + self.cfg.doorbell_ns, floor)
    }

    /// Charges the receiver-side bounce copy-out starting `now`,
    /// bounded below by the slot-flow-control `pipe_floor`.
    fn charge_bounce_out(&mut self, now: Time, node: u32, bytes: u64, pipe_floor: Time) -> Time {
        let (chunks, per) = self.cfg.bounce_chunks(bytes);
        let out_done = self.engines[node as usize].reserve_labeled(now, per * chunks, "wire");
        out_done.max(pipe_floor)
    }

    /// Charges one single-copy CMA pass on `node`'s engine.
    fn charge_cma(&mut self, at: Time, node: u32, bytes: u64) -> Time {
        let done = self.engines[node as usize].reserve_labeled(at, self.cfg.cma_ns(bytes), "wire");
        self.node_stats[node as usize].shm_cma_ops += 1;
        done
    }

    fn sched_arrive(
        &mut self,
        at: Time,
        dst: u32,
        xfer: ShmXfer,
        sink: &mut dyn FnMut(Time, NicEvent),
    ) {
        let id = self.inflight.insert(xfer);
        sink(at, NicEvent::Arrive { dst, id });
    }

    fn sched_local(&self, sink: &mut dyn FnMut(Time, NicEvent), node: u32, cqe: Cqe, at: Time) {
        sink(at + self.cfg.cqe_ns, NicEvent::LocalCqe { node, cqe });
    }

    fn deliver(
        &mut self,
        now: Time,
        dst: u32,
        h: Handle,
        mems: &mut [NodeMem],
        sink: &mut dyn FnMut(Time, NicEvent),
        out: &mut Vec<(u32, Cqe)>,
    ) {
        let x = &self
            .inflight
            .get(h)
            .expect("shm transfers are never flushed")
            .x;
        let src = x.src;
        if self.rx.waits(dst, src, &x.op) {
            self.node_stats[dst as usize].rnr_events += 1;
            self.rx.park(dst, src, h);
            return;
        }
        let ShmXfer { x, floor, seq } = self.inflight.remove(h).expect("looked up above");
        // A read response's copy was charged at post.
        let read = matches!(x.op, Op::ReadResponse { .. });
        let done = self.rx.deliver(mems, dst, x, seq, &mut self.node_stats);
        match done {
            Delivered::Done {
                placed: Some(len),
                at_dst,
                at_src,
                ..
            } if !read => {
                // Receiver-side copy: unpack out of the segment
                // (double) or pull across processes (single).
                let visible = match self.cfg.copy_mode {
                    ShmCopyMode::Double => self.charge_bounce_out(now, dst, len, floor),
                    ShmCopyMode::Single => self.charge_cma(now, dst, len),
                };
                if let Some(cqe) = at_dst {
                    self.sched_local(sink, dst, cqe, visible);
                }
                if let Some(cqe) = at_src {
                    // Single copy: the sender's buffer is only free
                    // once the receiver finished pulling from it.
                    self.sched_local(sink, src, cqe, visible + self.cfg.doorbell_ns);
                }
            }
            Delivered::Done { at_dst, at_src, .. } => {
                if let Some(cqe) = at_dst {
                    out.push((dst, cqe));
                }
                if let Some(cqe) = at_src {
                    self.sched_local(sink, src, cqe, now);
                }
            }
            Delivered::Respond { .. } => unreachable!("shared-memory reads resolve at post"),
        }
    }
}

impl Transport for ShmChannel {
    fn class(&self) -> TransportClass {
        match self.cfg.copy_mode {
            ShmCopyMode::Double => TransportClass::ShmDouble,
            ShmCopyMode::Single => TransportClass::ShmSingle,
        }
    }

    fn post_send(
        &mut self,
        ready_at: Time,
        node: u32,
        peer: u32,
        wr: SendWr,
        mems: &[NodeMem],
        sink: &mut dyn FnMut(Time, NicEvent),
    ) -> Result<(), PostError> {
        if peer as usize >= self.engines.len() {
            return Err(PostError::NoSuchPeer { peer });
        }
        let mem = &mems[node as usize];
        check_post(&wr, self.cfg.max_sge, mem)?;
        let bytes = wr.total_len();
        self.node_stats[node as usize].wqes += 1;
        let (signaled, seq) = (wr.signaled, self.posted);
        self.posted += 1;
        let double = self.cfg.copy_mode == ShmCopyMode::Double;
        let responder = &mems[peer as usize];
        if let (false, Some((addr, rkey))) = (wr.opcode == Opcode::Send, wr.remote) {
            if let Err(e) = responder.regs.check(rkey, addr, bytes) {
                let cqe = send_cqe(peer, wr.wr_id, 0, CqeStatus::RemoteAccess(e));
                self.sched_local(sink, node, cqe, ready_at);
                return Ok(());
            }
        }
        if wr.opcode == Opcode::RdmaRead {
            let (addr, rkey) = wr.remote.expect("checked at post");
            self.node_stats[peer as usize].bytes_on_wire += bytes;
            let (data, at) = if double {
                // The responder's progress engine packs into the
                // segment after the doorbell; the requester unpacks
                // out.
                let sge = Sge {
                    addr,
                    len: bytes,
                    lkey: rkey,
                };
                let data = Source::Staged(gather(&[sge], &responder.space));
                let (_, first, floor) =
                    self.charge_bounce_in(ready_at + self.cfg.doorbell_ns, peer, bytes);
                let out_at = first - self.cfg.doorbell_ns;
                (data, self.charge_bounce_out(out_at, node, bytes, floor))
            } else {
                // The requester pulls straight from the responder.
                let done = self.charge_cma(ready_at, node, bytes);
                (Source::Deferred((addr, bytes)), done)
            };
            let op = Op::ReadResponse {
                wr_id: wr.wr_id,
                scatter: wr.sges,
                signaled,
                data,
            };
            #[cfg(debug_assertions)]
            self.rx.audit.record(peer, node, seq, &responder.space, &op);
            let xfer = ShmXfer {
                x: Xfer { src: peer, op },
                floor: 0,
                seq,
            };
            self.sched_arrive(at, node, xfer, sink);
            return Ok(());
        }
        self.node_stats[node as usize].bytes_on_wire += bytes;
        let done = send_cqe(peer, wr.wr_id, bytes, CqeStatus::Success);
        // A single-copy send is pulled by the receiver at delivery.
        // Every other send or write releases the sender first, so its
        // bytes are staged now.
        let pulled = !double && wr.opcode == Opcode::Send;
        let op = Op::post(wr, &mem.space, !pulled);
        #[cfg(debug_assertions)]
        self.rx.audit.record(node, peer, seq, &mem.space, &op);
        let (arrive, floor, released) = if double {
            // Bounce decouples the sender: its buffer is free once the
            // copy-in finishes.
            let (in_done, doorbell, floor) = self.charge_bounce_in(ready_at, node, bytes);
            (doorbell, floor, Some(in_done))
        } else if pulled {
            (ready_at + self.cfg.doorbell_ns, 0, None)
        } else {
            // The sender pushes directly into the peer's pages
            // (process_vm_writev): pack-on-send placement, charged on
            // the sender's engine.
            let push_done = self.charge_cma(ready_at, node, bytes);
            (push_done + self.cfg.doorbell_ns, 0, Some(push_done))
        };
        if let (true, Some(at)) = (signaled, released) {
            self.sched_local(sink, node, done, at);
        }
        let xfer = ShmXfer {
            x: Xfer { src: node, op },
            floor,
            seq,
        };
        self.sched_arrive(arrive, peer, xfer, sink);
        Ok(())
    }

    fn post_send_list(
        &mut self,
        ready_at: Time,
        node: u32,
        peer: u32,
        wrs: Vec<SendWr>,
        mems: &[NodeMem],
        sink: &mut dyn FnMut(Time, NicEvent),
    ) -> Result<(), PostError> {
        for wr in wrs {
            Transport::post_send(self, ready_at, node, peer, wr, mems, sink)?;
        }
        Ok(())
    }

    fn post_recv(
        &mut self,
        now: Time,
        node: u32,
        peer: u32,
        wr: RecvWr,
        mems: &[NodeMem],
        sink: &mut dyn FnMut(Time, NicEvent),
    ) -> Result<(), PostError> {
        if peer as usize >= self.engines.len() {
            return Err(PostError::NoSuchPeer { peer });
        }
        check_sges(&wr.sges, self.cfg.max_sge, &mems[node as usize])?;
        self.rx.post(now, node, peer, wr, sink);
        Ok(())
    }

    fn handle(
        &mut self,
        now: Time,
        ev: NicEvent,
        mems: &mut [NodeMem],
        sink: &mut dyn FnMut(Time, NicEvent),
        out: &mut Vec<(u32, Cqe)>,
    ) {
        match ev {
            NicEvent::Arrive { dst, id } => self.deliver(now, dst, id, mems, sink, out),
            NicEvent::LocalCqe { node, cqe } => out.push((node, cqe)),
            NicEvent::RnrRetry { node, peer } => {
                while let Some(h) = self.rx.unpark(node, peer) {
                    self.deliver(now, node, h, mems, sink, out);
                }
            }
            other => unreachable!("shm channel received fabric-only event {other:?}"),
        }
    }

    fn cq_consume(&mut self, _node: u32, _n: usize) {}

    fn cq_peak(&self, _node: u32) -> usize {
        0
    }

    fn recvq_len(&self, node: u32, peer: u32) -> usize {
        self.rx.recvq_len(node, peer)
    }

    fn set_fault_plan(&mut self, plan: FaultPlan) {
        assert!(
            plan.is_inert(),
            "the shared-memory transport does not support fault injection"
        );
    }

    fn faults_active(&self) -> bool {
        false
    }

    fn fault_plan(&self) -> Option<&FaultPlan> {
        None
    }

    fn fault_events(&self) -> Vec<(Time, NicEvent)> {
        Vec::new()
    }

    fn qp_errored(&self, _node: u32, _peer: u32) -> bool {
        false
    }

    fn reestablish_qp(&mut self, _node: u32, _peer: u32) {}

    fn node_down(&self, _node: u32) -> bool {
        false
    }

    fn node_will_restart(&self, _node: u32) -> bool {
        // Vacuously true, matching the fabric's no-fault-plan answer:
        // nothing is permanently down on this backend.
        true
    }

    fn node_stats(&self) -> &[FabricStats] {
        &self.node_stats
    }

    fn tx_engine(&self, node: u32) -> &SerialResource {
        &self.engines[node as usize]
    }

    fn in_flight(&self) -> usize {
        self.inflight.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ShmConfig {
        ShmConfig::default()
    }

    #[test]
    fn default_config_validates() {
        assert_eq!(cfg().validate(), Ok(()));
    }

    #[test]
    fn zero_segment_rejected() {
        let c = ShmConfig {
            seg_bytes: 0,
            ..cfg()
        };
        assert_eq!(c.validate(), Err(ShmConfigError::ZeroSegment));
    }

    #[test]
    fn zero_slot_rejected() {
        let c = ShmConfig {
            slot_bytes: 0,
            ..cfg()
        };
        assert_eq!(c.validate(), Err(ShmConfigError::ZeroSlot));
    }

    #[test]
    fn oversized_slot_rejected() {
        let c = ShmConfig {
            seg_bytes: 4096,
            slot_bytes: 8192,
            ..cfg()
        };
        assert_eq!(
            c.validate(),
            Err(ShmConfigError::SlotExceedsSegment {
                slot: 8192,
                seg: 4096
            })
        );
    }

    #[test]
    fn ragged_segment_rejected() {
        let c = ShmConfig {
            seg_bytes: 10_000,
            slot_bytes: 4096,
            ..cfg()
        };
        assert_eq!(
            c.validate(),
            Err(ShmConfigError::SegmentNotSlotMultiple {
                slot: 4096,
                seg: 10_000
            })
        );
    }

    #[test]
    fn zero_bandwidths_rejected() {
        let c = ShmConfig {
            bounce_bw_bps: 0,
            ..cfg()
        };
        assert_eq!(c.validate(), Err(ShmConfigError::ZeroBounceBandwidth));
        let c = ShmConfig {
            cma_bw_bps: 0,
            ..cfg()
        };
        assert_eq!(c.validate(), Err(ShmConfigError::ZeroCmaBandwidth));
        let c = ShmConfig {
            max_sge: 0,
            ..cfg()
        };
        assert_eq!(c.validate(), Err(ShmConfigError::ZeroMaxSge));
    }

    #[test]
    fn errors_display_mentions_field() {
        let msg = ShmConfigError::SlotExceedsSegment {
            slot: 8192,
            seg: 4096,
        }
        .to_string();
        assert!(msg.contains("slot_bytes"), "{msg}");
        assert!(msg.contains("8192"), "{msg}");
    }
}
