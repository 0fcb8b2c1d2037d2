//! Pure planners for the rendezvous data path.
//!
//! Every scheme moves data with the same few verbs (§4–5); they differ
//! only in which blocks feed which work requests. These functions turn
//! block lists into complete work requests and keep no protocol state,
//! so each is unit-tested here and the progress engine only posts what
//! they return:
//!
//! * [`plan_gather`] — split a block list into gather lists of at most
//!   `max_sge` entries landing on consecutive remote bytes (RWG-UP
//!   segments, Hybrid direct blocks, P-RRS reads; §5.1),
//! * [`plan_multi_w`] — pair the sender's and receiver's block lists
//!   stream-wise into one RDMA write per *receiver-contiguous* range
//!   with a sender gather list (Multi-W, §5.3/§5.4.2, and one-sided
//!   Put/Get). The two sides may have completely different layouts;
//!   blocks are split at every boundary mismatch,
//! * [`direct_ranges`], [`hybrid_partition`] and
//!   [`for_each_substream_piece`] — the §10 Hybrid split of a stream
//!   into directly written blocks and a packed substream, and the map
//!   from that substream back to the stream,
//! * [`plan_reply`] — what the receiver commits for its rendezvous
//!   reply: the blocks it pins, the packed substream it unpacks and
//!   that substream's segments, and the steps of its receive as one
//!   ordered list of [`RecvStep`]s, each behind a [`RecvGate`], that
//!   the progress engine runs with one cursor ([`RecvPlan`]),
//! * [`send_prep`] — what a sender pins and packs before and after the
//!   reply, and what it does when the pinning budget refuses the pin,
//! * [`SendPlan`] — what the reply lets a sender post, as one ordered
//!   list of [`Step`]s, each behind a [`Gate`], that the progress
//!   engine runs with one cursor,
//! * the remaining scheme rules: [`adaptive_choose`] (§6),
//!   [`receiver_scheme`], [`send_geometry`], [`renegotiates_on_fault`]
//!   and the device tier's [`staging_chunk_for`]. The progress engine
//!   asks these and never branches on a scheme itself.

use crate::config::{
    MpiConfig, Scheme, ADAPTIVE_COPY_REDUCED_MIN, ADAPTIVE_MULTIW_BLOCK, ADAPTIVE_SHM_MULTIW_BLOCK,
    HYBRID_BLOCK_THRESHOLD,
};
use crate::msg::{Proposal, Reply, SegList};
use ibdt_datatype::BlockStats;
use ibdt_ibsim::{HostConfig, Opcode, SendWr, Sge, SgeList, TransportClass};
use ibdt_memreg::{Registration, Va};
use ibdt_simcore::pipeline::{two_stage_finish_ns, MAX_PIPELINE_BUFS};
use ibdt_simcore::time::Time;

/// How the last work request of a planned batch announces itself: an
/// immediate turns its write into a write-with-immediate (the
/// receiver's arrival notification), and `signaled` asks for a local
/// completion. Earlier requests of the batch carry neither.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tail {
    /// Immediate data for the last write.
    pub imm: Option<u32>,
    /// Whether the last request generates a local completion.
    pub signaled: bool,
}

impl Tail {
    /// Ends a batch with a write-with-immediate carrying `imm`.
    pub fn imm(imm: u32, signaled: bool) -> Self {
        Tail {
            imm: Some(imm),
            signaled,
        }
    }

    /// Ends a batch with a signaled request and no immediate.
    pub const SIGNALED: Self = Tail {
        imm: None,
        signaled: true,
    };
}

/// Maps a local or remote range `(addr, len)` to the key covering it.
pub trait KeyFn: Fn(Va, u64) -> u32 {}

impl<F: Fn(Va, u64) -> u32> KeyFn for F {}

/// What every work request of one planned batch shares.
pub struct WrFrame<L, R> {
    /// Identifier returned in the completions.
    pub wr_id: u64,
    /// RDMA read (scatter into the local list) instead of write.
    pub read: bool,
    /// The HCA's gather-list limit.
    pub max_sge: usize,
    /// Local key covering a gather entry.
    pub lkey: L,
    /// Remote key covering a destination range.
    pub rkey: R,
}

impl<L: KeyFn, R: KeyFn> WrFrame<L, R> {
    /// A frame for RDMA writes.
    pub fn write(wr_id: u64, max_sge: usize, lkey: L, rkey: R) -> Self {
        WrFrame {
            wr_id,
            read: false,
            max_sge,
            lkey,
            rkey,
        }
    }

    /// One work request gathering `sges` (absolute local ranges) into
    /// the remote range starting at `dst`.
    pub fn wr(&self, sges: &[(Va, u64)], dst: Va, tail: Tail) -> SendWr {
        let sges: SgeList = sges
            .iter()
            .map(|&(addr, len)| Sge {
                addr,
                len,
                lkey: (self.lkey)(addr, len),
            })
            .collect();
        let mut wr = self.raw(sges, dst);
        finish(std::slice::from_mut(&mut wr), tail);
        wr
    }

    fn raw(&self, sges: SgeList, dst: Va) -> SendWr {
        let len = sges.iter().map(|s| s.len).sum();
        SendWr {
            wr_id: self.wr_id,
            opcode: if self.read {
                Opcode::RdmaRead
            } else {
                Opcode::RdmaWrite
            },
            sges,
            remote: Some((dst, (self.rkey)(dst, len))),
            signaled: false,
        }
    }
}

/// Puts `tail` on the last request of a batch.
fn finish(batch: &mut [SendWr], tail: Tail) {
    if let Some(last) = batch.last_mut() {
        if let Some(imm) = tail.imm {
            last.opcode = Opcode::RdmaWriteImm(imm);
        }
        last.signaled = tail.signaled;
    }
}

/// Gather planner: `blocks` (absolute local ranges, in stream order)
/// land on consecutive remote bytes starting at `dst`, at most
/// `max_sge` blocks per work request, with `tail` on the last.
/// Appends to `out`; an empty block list plans nothing.
pub fn plan_gather(
    f: &WrFrame<impl KeyFn, impl KeyFn>,
    blocks: &[(Va, u64)],
    dst: Va,
    tail: Tail,
    out: &mut Vec<SendWr>,
) {
    assert!(f.max_sge > 0);
    let start = out.len();
    let mut off = 0u64;
    for chunk in blocks.chunks(f.max_sge) {
        let wr = f.wr(chunk, dst + off, Tail::default());
        off += wr.total_len();
        out.push(wr);
    }
    finish(&mut out[start..], tail);
}

/// Multi-W planner.
///
/// `snd` and `rcv` are the two sides' contiguous block lists in stream
/// order (absolute addresses); their total lengths must match. Each
/// planned write targets one receiver-contiguous byte range and gathers
/// at most `max_sge` sender pieces; receiver blocks needing more gather
/// entries are split into multiple writes. `tail` goes on the last.
pub fn plan_multi_w(
    f: &WrFrame<impl KeyFn, impl KeyFn>,
    snd: &[(Va, u64)],
    rcv: &[(Va, u64)],
    tail: Tail,
    out: &mut Vec<SendWr>,
) {
    assert!(f.max_sge > 0);
    debug_assert_eq!(
        snd.iter().map(|&(_, l)| l).sum::<u64>(),
        rcv.iter().map(|&(_, l)| l).sum::<u64>(),
        "sender and receiver type signatures must match in size"
    );
    let start = out.len();
    let mut si = 0usize; // sender block index
    let mut soff = 0u64; // offset within sender block

    for &(raddr, rlen) in rcv {
        let mut covered = 0u64;
        while covered < rlen {
            // Build one WR for as much of this receiver block as max_sge
            // sender pieces cover.
            let mut sges = SgeList::new();
            let mut wr_len = 0u64;
            while covered + wr_len < rlen && sges.len() < f.max_sge {
                let (sa, sl) = snd[si];
                let take = (sl - soff).min(rlen - covered - wr_len);
                sges.push(Sge {
                    addr: sa + soff,
                    len: take,
                    lkey: (f.lkey)(sa + soff, take),
                });
                wr_len += take;
                soff += take;
                if soff == sl {
                    si += 1;
                    soff = 0;
                }
            }
            out.push(f.raw(sges, raddr + covered));
            covered += wr_len;
        }
    }
    finish(&mut out[start..], tail);
}

/// Local key of the registration covering a range. A missing covering
/// registration is a protocol bug; the sentinel key makes the fabric
/// reject the post with a typed error instead of panicking here.
pub fn lkey_for(regs: &[Registration], addr: Va, len: u64) -> u32 {
    regs.iter()
        .find(|r| r.covers(addr, len))
        .map_or(u32::MAX, |r| r.lkey)
}

/// Remote key of the `(addr, len, rkey)` region covering a range; the
/// sentinel key fails the responder's rkey check with a typed
/// remote-access completion.
pub fn region_key(regions: &[(Va, u64, u32)], addr: Va, len: u64) -> u32 {
    regions
        .iter()
        .find(|&&(a, l, _)| addr >= a && addr + len <= a + l)
        .map_or(u32::MAX, |r| r.2)
}

/// Hybrid-scheme partition of a message's stream (§10 future work:
/// scheme selection "within different parts of a single datatype
/// message").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HybridPart {
    /// Stream intervals that travel packed (small receiver blocks),
    /// in stream order.
    pub packed: Vec<(u64, u64)>,
    /// Total packed bytes (sum of packed interval lengths).
    pub packed_bytes: u64,
}

/// Partitions a message by the receiver's blocks (absolute addresses,
/// stream order): blocks of at least `threshold` bytes are written
/// directly ([`direct_ranges`]), the rest is packed. Both sides compute
/// the same partition from the receiver's layout (shipped in the
/// rendezvous reply), so no extra negotiation is needed. BC-SPUP is the
/// partition with threshold ∞ and Multi-W the one with threshold 0.
pub fn hybrid_partition(rcv_blocks: &[(Va, u64)], threshold: u64) -> HybridPart {
    let mut packed: Vec<(u64, u64)> = Vec::new();
    let mut packed_bytes = 0;
    let mut pos = 0u64;
    for &(_, len) in rcv_blocks {
        if len < threshold {
            // Merge stream-adjacent packed intervals.
            match packed.last_mut() {
                Some((_, hi)) if *hi == pos => *hi = pos + len,
                _ => packed.push((pos, pos + len)),
            }
            packed_bytes += len;
        }
        pos += len;
    }
    HybridPart {
        packed,
        packed_bytes,
    }
}

/// `(stream lo, stream hi, receiver address)` of each receiver block
/// (absolute addresses, stream order) of at least `threshold` bytes:
/// the ranges [`hybrid_partition`] writes directly.
pub fn direct_ranges(
    rcv_blocks: &[(Va, u64)],
    threshold: u64,
) -> impl Iterator<Item = (u64, u64, Va)> + '_ {
    let mut pos = 0;
    rcv_blocks.iter().filter_map(move |&(addr, len)| {
        pos += len;
        (len >= threshold).then_some((pos - len, pos, addr))
    })
}

/// The rendezvous reply a receiver sends, by what it hands the sender.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ReplyKind {
    /// One dynamically allocated buffer for the whole packed message
    /// (Generic).
    Buffer,
    /// One pool buffer per packed segment (BC-SPUP, RWG-UP).
    #[default]
    Segments,
    /// Go-ahead for the sender to announce segments the receiver reads
    /// (P-RRS).
    ReadGo,
    /// The receiver's layout and pinned regions: the sender writes every
    /// block directly (Multi-W).
    MultiW,
    /// Layout, pinned regions and packed-segment buffers: large blocks
    /// are written directly, the rest travels packed (Hybrid).
    Hybrid,
}

impl ReplyKind {
    /// The sender writes into the receiver's user memory and ends its
    /// direct writes with a completion notification.
    pub fn direct(self) -> bool {
        matches!(self, ReplyKind::MultiW | ReplyKind::Hybrid)
    }

    /// The receiver reads the announced segments (P-RRS) and, once done,
    /// tells the sender with a `Fin` that its staging is free.
    pub fn reads(self) -> bool {
        self == ReplyKind::ReadGo
    }

    /// How a receiver commits a reply of this kind: the staging it hands
    /// the sender to write packed segments into, the times it pins its
    /// blocks, and whether the reply waits on the registration that
    /// exposes the user buffer instead of on the control overhead.
    /// P-RRS reads and Multi-W writes into the user buffer, so neither
    /// hands staging over; Multi-W pins its blocks a second time, a
    /// pin-down cache hit whose cost is part of its reply time, so its
    /// budget check reserves twice the footprint.
    pub fn commit(self) -> (Pack, u64, bool) {
        match self {
            ReplyKind::Buffer => (Pack::Whole, 1, false),
            ReplyKind::Segments | ReplyKind::Hybrid => (Pack::Segments, 1, false),
            ReplyKind::ReadGo => (Pack::None, 1, true),
            ReplyKind::MultiW => (Pack::None, 2, true),
        }
    }
}

/// What a receiver commits for its rendezvous reply, and the steps its
/// receive runs. Step `i` is [`RecvPlan::step`]`(i)`; by reply kind,
/// with `n` segments in the packed substream:
///
/// * `Buffer` (Generic), `Segments` (BC-SPUP, RWG-UP): `[Reply,
///   Unpack 0..n, Wait(Unpacked), Complete]`; with the Fig. 12 batch
///   `[Reply, Wait(Landed 0..n), UnpackAll, Wait(Unpacked), Complete]`,
/// * `ReadGo` (P-RRS): `[Reply, Read 0..n, Wait(Read), Complete]`,
/// * `MultiW`, and `Hybrid` with nothing packed: `[Reply, Wait(Direct),
///   Complete]`,
/// * `Hybrid`: `[Reply, Unpack 0..n, Wait(Tail), Wait(Tail), Complete]`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecvPlan {
    /// The reply sent.
    pub kind: ReplyKind,
    /// Receiver blocks pinned for the sender's direct access: none, or
    /// every block of at least this many bytes (`Some(0)`: all).
    pub pin_min: Option<u64>,
    /// Stream intervals of the packed substream; empty for the whole
    /// stream.
    pub packed_ivs: Vec<(u64, u64)>,
    /// Segments of the packed substream (0: nothing travels packed).
    pub nsegs: u32,
    /// Bytes per segment (the last may be shorter).
    pub seg_size: u64,
    /// Unpack every segment at once after the last one arrived (the
    /// Fig. 12 ablation of RWG-UP) instead of each on arrival.
    pub batch_unpack: bool,
}

/// One step of a rendezvous receive (§4–5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvStep {
    /// Send the reply.
    Reply,
    /// Unpack segment `k` of the packed substream into the user buffer.
    Unpack(u32),
    /// Unpack every segment at once (the Fig. 12 batch).
    UnpackAll,
    /// P-RRS: read announced segment `k` into the user buffer.
    Read(u32),
    /// Nothing to do: the step only waits behind its gate.
    Wait(RecvGate),
    /// Complete the receive.
    Complete,
}

/// What a [`RecvStep`] waits for. Every gate but `Open` is opened by
/// one event, and an opened gate passes one step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvGate {
    /// Nothing: the step runs once the cursor reaches it.
    Open,
    /// The receiver finished preparing its reply.
    Ready,
    /// Segment `k` landed, announced by its immediate.
    Landed(u32),
    /// The sender announced segment `k` for reading.
    Announced(u32),
    /// The direct part landed: Multi-W's last write or Hybrid's marker,
    /// each ordered last on the queue pair.
    Direct,
    /// The last unpack finished. Unpacks finish in the order they ran
    /// (one FIFO CPU), so every earlier one finished too.
    Unpacked,
    /// The last read finished. Reads complete in posting order (RC), so
    /// every earlier one completed too.
    Read,
    /// Hybrid's two last events, the direct part landing and the last
    /// unpack finishing, which come once each in either order.
    Tail,
}

impl RecvStep {
    /// The gate this step waits behind.
    pub fn gate(self) -> RecvGate {
        match self {
            RecvStep::Reply => RecvGate::Ready,
            RecvStep::Unpack(k) => RecvGate::Landed(k),
            RecvStep::Read(k) => RecvGate::Announced(k),
            RecvStep::Wait(gate) => gate,
            RecvStep::UnpackAll | RecvStep::Complete => RecvGate::Open,
        }
    }
}

impl RecvPlan {
    /// The waits between the per-segment steps and `Complete`.
    fn tail(&self) -> &'static [RecvStep] {
        use {RecvGate as G, RecvStep::Wait};
        match self.kind {
            ReplyKind::ReadGo => &[Wait(G::Read)],
            ReplyKind::MultiW => &[Wait(G::Direct)],
            ReplyKind::Hybrid if self.nsegs == 0 => &[Wait(G::Direct)],
            ReplyKind::Hybrid => &[Wait(G::Tail), Wait(G::Tail)],
            _ if self.batch_unpack => &[RecvStep::UnpackAll, Wait(G::Unpacked)],
            _ => &[Wait(G::Unpacked)],
        }
    }

    /// Steps in the list.
    pub fn step_count(&self) -> u32 {
        self.nsegs + self.tail().len() as u32 + 2
    }

    /// The step at `next` when its gate holds: it is open, or `opened`
    /// holds the event that opens it (`Tail`: `Direct` or `Unpacked`),
    /// which the step then consumes (an event passes one step). `None`
    /// while the step waits on another event, and past the end.
    pub fn pass(&self, next: u32, opened: &mut Option<RecvGate>) -> Option<RecvStep> {
        use RecvGate::{Direct, Open, Tail, Unpacked};
        let step = self.step(next)?;
        match (step.gate(), *opened) {
            (Open, _) => {}
            (gate, Some(o)) if gate == o || gate == Tail && matches!(o, Direct | Unpacked) => {
                *opened = None
            }
            _ => return None,
        }
        Some(step)
    }

    /// Step `i`, or `None` past the end.
    pub fn step(&self, i: u32) -> Option<RecvStep> {
        let n = self.nsegs;
        Some(match i {
            0 => RecvStep::Reply,
            i if i <= n => match self.kind {
                ReplyKind::ReadGo => RecvStep::Read(i - 1),
                _ if self.batch_unpack => RecvStep::Wait(RecvGate::Landed(i - 1)),
                _ => RecvStep::Unpack(i - 1),
            },
            i => match self.tail().get((i - n - 1) as usize) {
                Some(&step) => step,
                None if i + 1 == self.step_count() => RecvStep::Complete,
                None => return None,
            },
        })
    }

    /// The segments a resume acknowledges with the cursor at `next`:
    /// those landed, for the segment-ordered replies (BC-SPUP, RWG-UP),
    /// whose sender restarts after them; none for the others, whose
    /// sender restarts from the beginning (its direct writes, marker
    /// and announcements are idempotent). Per-queue-pair FIFO delivery,
    /// and a failure that kills every later transfer, make the landed
    /// segments exactly a prefix.
    pub fn acked(&self, next: u32) -> u32 {
        match self.kind {
            ReplyKind::Segments => next.saturating_sub(1).min(self.nsegs),
            _ => 0,
        }
    }

    /// Where the cursor restarts when a receive recovers from a failed
    /// read: at its first read, since the sender re-announces every
    /// segment and re-reads are idempotent. No other receive moves its
    /// cursor back: its sender resumes after [`Self::acked`].
    pub fn resume_at(&self, next: u32) -> u32 {
        match self.kind {
            ReplyKind::ReadGo => next.min(1),
            _ => next,
        }
    }
}

/// Plans the reply of a receiver that resolved `scheme` for a message
/// of `size` bytes landing in `rcv_blocks` (absolute addresses, stream
/// order; read only by the schemes that pin or partition: P-RRS,
/// Multi-W and Hybrid). The sender derives Hybrid's partition with the
/// same call from the layout the reply ships.
pub fn plan_reply(
    scheme: Scheme,
    size: u64,
    rcv_blocks: &[(Va, u64)],
    cfg: &MpiConfig,
) -> RecvPlan {
    let (nsegs, seg_size) = send_geometry(scheme, size, cfg);
    let mut plan = RecvPlan {
        nsegs,
        seg_size,
        ..RecvPlan::default()
    };
    match scheme {
        Scheme::Generic => plan.kind = ReplyKind::Buffer,
        Scheme::BcSpup => {}
        Scheme::RwgUp => plan.batch_unpack = !cfg.segment_unpack,
        Scheme::PRrs => {
            plan.kind = ReplyKind::ReadGo;
            plan.pin_min = Some(0);
        }
        Scheme::MultiW => {
            plan.kind = ReplyKind::MultiW;
            plan.pin_min = Some(0);
            (plan.nsegs, plan.seg_size) = packed_geometry(cfg, 0);
        }
        Scheme::Hybrid => {
            let threshold = HYBRID_BLOCK_THRESHOLD;
            let part = hybrid_partition(rcv_blocks, threshold);
            plan.kind = ReplyKind::Hybrid;
            plan.pin_min = Some(threshold);
            (plan.nsegs, plan.seg_size) = packed_geometry(cfg, part.packed_bytes);
            plan.packed_ivs = part.packed;
        }
        Scheme::Adaptive => unreachable!("the receiver resolves Adaptive before planning"),
    }
    plan
}

/// Segment count and size of a packed substream of `packed_bytes`
/// (Hybrid's small-block part).
fn packed_geometry(cfg: &MpiConfig, packed_bytes: u64) -> (u32, u64) {
    if packed_bytes == 0 {
        return (0, 1);
    }
    let ss = cfg.segment_size(packed_bytes).min(cfg.max_seg_size);
    (packed_bytes.div_ceil(ss) as u32, ss)
}

/// Segment count and size of a rendezvous message of `size` bytes:
/// Generic transfers the whole packed message in one piece (Fig. 1);
/// the segmented schemes use the §7.2 rule.
pub fn send_geometry(scheme: Scheme, size: u64, cfg: &MpiConfig) -> (u32, u64) {
    if scheme == Scheme::Generic {
        (1, size)
    } else {
        (cfg.segment_count(size), cfg.segment_size(size))
    }
}

/// The copy scheme every refusal and renegotiation falls back to
/// (§4.3.3, §5.4.2).
pub const FALLBACK: Scheme = Scheme::BcSpup;

/// Adaptive scheme choice (§6), run on the receiver where both sides'
/// median block sizes are known.
pub fn adaptive_choose(
    transport: TransportClass,
    size: u64,
    snd_median: u64,
    rcv_median: u64,
) -> Scheme {
    match transport {
        TransportClass::Ib => {
            if size < ADAPTIVE_COPY_REDUCED_MIN {
                return Scheme::BcSpup;
            }
            if snd_median >= ADAPTIVE_MULTIW_BLOCK && rcv_median >= ADAPTIVE_MULTIW_BLOCK {
                return Scheme::MultiW;
            }
            // Asymmetric cases (§5.2): a contiguous sender favours
            // receiver-driven reads; a contiguous receiver favours
            // gather writes.
            if snd_median >= size {
                return Scheme::PRrs;
            }
            if rcv_median >= size {
                return Scheme::RwgUp;
            }
            if rcv_median >= ADAPTIVE_MULTIW_BLOCK {
                // Large receiver blocks: unpack is cheap, gather write
                // wins.
                return Scheme::RwgUp;
            }
            Scheme::BcSpup
        }
        TransportClass::ShmDouble => {
            // Every byte bounces through the shared segment twice no
            // matter the scheme: the zero-copy schemes' registration
            // avoidance buys nothing, while BC-SPUP's packed pipeline
            // feeds the segment slots perfectly.
            Scheme::BcSpup
        }
        TransportClass::ShmSingle => {
            // Direct cross-process copies exist, but every work
            // request pays a syscall setup — per-block schemes need
            // much larger blocks than on IB to amortize it.
            if size < ADAPTIVE_COPY_REDUCED_MIN {
                return Scheme::BcSpup;
            }
            let blk = ADAPTIVE_SHM_MULTIW_BLOCK;
            if snd_median >= blk && rcv_median >= blk {
                return Scheme::MultiW;
            }
            if snd_median >= size {
                return Scheme::PRrs;
            }
            if rcv_median >= size {
                return Scheme::RwgUp;
            }
            Scheme::BcSpup
        }
    }
}

/// The scheme a receiver replies with to a rendezvous start's `start`
/// (the proposed scheme, the message size and the sender's minimum and
/// median block), and the copy scheme it falls back to when that reply
/// cannot be committed; `None` for an unknown proposed scheme.
///
/// Contiguous on both sides is the standard zero-copy rendezvous
/// (§3.1): one RDMA write from user buffer to user buffer whatever the
/// configured scheme, which is Multi-W with a single block. A Generic
/// sender packs the whole message as one segment, so its copy
/// fallback is Generic's; every other one is [`FALLBACK`].
pub fn receiver_scheme(
    transport: TransportClass,
    start: Proposal,
    rcv: &BlockStats,
) -> Option<(Scheme, Scheme)> {
    let (size, snd_min, snd_median) = (start.size, start.blk_min, start.blk_median);
    let proposal = Scheme::from_wire(start.scheme)?;
    let both_contiguous = size > 0 && snd_min >= size && rcv.min >= size;
    let scheme = match proposal {
        _ if both_contiguous => Scheme::MultiW,
        Scheme::Adaptive => adaptive_choose(transport, size, snd_median, rcv.median),
        s => s,
    };
    let fallback = if proposal == Scheme::Generic {
        Scheme::Generic
    } else {
        FALLBACK
    };
    Some((scheme, fallback))
}

/// Whether the reply of `scheme` is planned from the receiver's blocks:
/// the schemes that pin them (P-RRS, Multi-W) or partition them
/// (Hybrid).
pub fn reads_rcv_blocks(scheme: Scheme) -> bool {
    matches!(scheme, Scheme::PRrs | Scheme::MultiW | Scheme::Hybrid)
}

/// Whether a remote-access error on a data write renegotiates the
/// message as [`FALLBACK`] (§5.4.2): the receiver's registration was
/// evicted under a scheme that writes into its pinned user memory.
pub fn renegotiates_on_fault(scheme: Scheme) -> bool {
    matches!(scheme, Scheme::MultiW | Scheme::Hybrid)
}

/// Whether an eager message of `scheme` is packed into a temporary
/// buffer and then copied into the eager buffer (Generic, the original
/// path of Fig. 1) instead of packed straight into it (§7.1).
pub fn eager_via_temp(scheme: Scheme) -> bool {
    scheme == Scheme::Generic
}

/// When the sender prepares a rendezvous message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrepAt {
    /// During the handshake. The receiver decides Adaptive, so an
    /// Adaptive sender prepares for `predicted`, the choice it predicts
    /// from its own median block (§6's MPI_Info-style hint); a wrong
    /// guess costs only a cached registration or an unused pool pack.
    Start {
        /// Adaptive's prediction ([`adaptive_choose`]).
        predicted: Scheme,
    },
    /// Once the reply named the scheme.
    Reply,
}

/// The user memory a sender pins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pin {
    /// Nothing: the data travels packed.
    None,
    /// Every block: the sender gathers from its buffer, or the receiver
    /// reads it.
    User,
    /// The blocks feeding Hybrid's direct writes: before the reply, those
    /// of at least [`HYBRID_BLOCK_THRESHOLD`] bytes (symmetric types are
    /// the common case); after it, those of the receiver's partition.
    HybridDirect,
}

/// The staging a sender packs into unless it holds some already, and
/// that a receiver's reply hands the sender ([`ReplyKind::commit`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pack {
    /// Nothing.
    None,
    /// One dynamically allocated buffer for the whole message.
    Whole,
    /// One pool buffer per segment.
    Segments,
}

/// What a sender does when the pinning budget refuses its [`Pin`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refused {
    /// Nothing yet: the reply decides.
    Ignore,
    /// Pack pool segments, which every later path can consume; a
    /// contiguous P-RRS sender announces them instead of its buffer.
    PackSegments,
    /// Send RWG-UP's segments packed, as [`FALLBACK`] does.
    Degrade,
    /// Stage the whole message through one copy buffer and write it
    /// into the receiver's pinned blocks (Multi-W).
    StageWhole,
    /// Renegotiate the message as [`FALLBACK`] (Hybrid).
    Renegotiate,
}

/// A sender's preparation: what it pins and packs, and what it does
/// when the pinning budget refuses the pin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendPrep {
    /// The user memory to pin.
    pub pin: Pin,
    /// The staging to pack into.
    pub pack: Pack,
    /// The action when the pin is refused.
    pub refused: Refused,
}

/// The one sender-preparation table: what a sender of `scheme` pins
/// and packs at `at`, and what it does when the pin is refused.
///
/// During the handshake the early work overlaps it (§4.3.1, §7.3,
/// §7.4) and a refusal waits for the reply. A single-block (`contig`)
/// sender never packs then: MVAPICH's standard rendezvous is zero-copy
/// for contiguous messages (§3.1), so it pins its buffer and waits for
/// the receiver's choice. Once the reply names the scheme, the sender
/// adds the pin and pack that scheme needs, and a refusal degrades to
/// a copy path (§4.3.3).
pub fn send_prep(scheme: Scheme, contig: bool, at: PrepAt) -> SendPrep {
    use {Pack as K, Pin as P, Refused as R, Scheme as S};
    let start = at != PrepAt::Reply;
    let (pin, pack, refused) = match (scheme, at) {
        _ if start && contig => (P::User, K::None, R::Ignore),
        (S::Adaptive, PrepAt::Start { predicted }) => match predicted {
            S::RwgUp | S::MultiW | S::PRrs => (P::User, K::None, R::PackSegments),
            _ => (P::None, K::Segments, R::Ignore),
        },
        (S::Generic, _) => (P::None, K::Whole, R::Ignore),
        (S::PRrs, PrepAt::Reply) if contig => (P::User, K::None, R::PackSegments),
        (S::BcSpup | S::PRrs, _) => (P::None, K::Segments, R::Ignore),
        (S::RwgUp | S::MultiW, _) if start => (P::User, K::None, R::Ignore),
        (S::Hybrid, _) if start => (P::HybridDirect, K::None, R::Ignore),
        (S::RwgUp, _) => (P::User, K::None, R::Degrade),
        (S::MultiW, _) => (P::User, K::None, R::StageWhole),
        (S::Hybrid, _) => (P::HybridDirect, K::None, R::Renegotiate),
        (S::Adaptive, PrepAt::Reply) => unreachable!("a reply names a concrete scheme"),
    };
    SendPrep { pin, pack, refused }
}

/// One post of a rendezvous sender after the reply (§4–5): which
/// blocks feed which work requests or announcements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Hybrid's direct gather writes from the pinned user buffer.
    Direct,
    /// Acquire Hybrid's pack buffers; its pack chain starts once they
    /// exist.
    Stage,
    /// The write of packed segment `k` into the receiver's segment `k`.
    Seg(u32),
    /// RWG-UP's gather write of segment `k` from the pinned user buffer.
    Gather(u32),
    /// Multi-W's one write list into the receiver's blocks: from the
    /// pinned user buffer, or from the staged copy when the pin was
    /// refused.
    WriteList {
        /// The list streams the staged copy.
        staged: bool,
    },
    /// P-RRS: announce packed segment `k` for the receiver to read.
    Announce(u32),
    /// P-RRS: announce every segment of a contiguous sender's
    /// registered buffer.
    AnnounceUser,
    /// Hybrid's completion marker, ordered after every data write.
    Marker,
}

/// What a [`Step`] waits for before it posts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gate {
    /// The sender's registration of its user buffer is done.
    Reg,
    /// Segment `k` is packed.
    Packed(u32),
    /// Every segment is packed.
    AllPacked,
}

impl Step {
    /// The gate this step waits behind.
    pub fn gate(self) -> Gate {
        match self {
            Step::Seg(k) | Step::Announce(k) => Gate::Packed(k),
            Step::WriteList { staged: true } | Step::Marker => Gate::AllPacked,
            Step::Direct
            | Step::Stage
            | Step::Gather(_)
            | Step::WriteList { .. }
            | Step::AnnounceUser => Gate::Reg,
        }
    }
}

/// The segment size and stream intervals of a sender's packed
/// substream (no intervals: the whole stream).
pub type Substream = (u64, Vec<(u64, u64)>);

/// What the rendezvous reply lets a sender post, and the data its steps
/// read. Step `i` is [`SendPlan::step`]`(i)`; by reply kind, posting
/// from the pinned user buffer or from packed staging:
///
/// * `Buffer` (Generic), `Segments` (BC-SPUP, RWG-UP): `[Gather 0..n]`
///   from the user buffer (RWG-UP), else `[Seg 0..n]`,
/// * `ReadGo` (P-RRS): `[AnnounceUser]` from the user buffer (a
///   contiguous sender), else `[Announce 0..n]`,
/// * `MultiW`: `[WriteList]`, staged when not from the user buffer,
/// * `Hybrid`: `[Direct, Stage, Seg 0..n, Marker]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SendPlan {
    /// What the reply handed the sender.
    pub kind: ReplyKind,
    /// The steps read the pinned user buffer ([`Pin::User`]); a refused
    /// pin turns them to packed staging.
    pub from_user: bool,
    /// Segments of the packed substream.
    pub nsegs: u32,
    /// Receiver target `(address, rkey)` of each packed segment.
    pub segs: SegList,
    /// The receiver's blocks, absolute, in stream order (Multi-W, and
    /// Hybrid, which writes [`direct_ranges`] of them directly).
    pub rcv_blocks: Vec<(Va, u64)>,
    /// The receiver's pinned regions `(address, length, rkey)`
    /// (Multi-W, Hybrid).
    pub regions: Vec<(Va, u64, u32)>,
}

impl SendPlan {
    /// The plan of a sender whose rendezvous `reply` arrived, posting
    /// from its pinned user buffer when `from_user`, with the reply's
    /// layout resolved through the sender's layout cache; `geometry` is
    /// the segment count and size the sender started with. Returns the
    /// plan with the segment size and stream intervals of the packed
    /// substream: a Hybrid sender derives the receiver's partition with
    /// the receiver's own call, [`plan_reply`], from the receiver's
    /// blocks; every other keeps its geometry and packs the whole
    /// stream. `None` when a direct part names a layout the cache lost.
    pub fn from_reply(
        reply: Reply,
        from_user: bool,
        geometry: (u32, u64),
        size: u64,
        cfg: &MpiConfig,
    ) -> Option<(SendPlan, Substream)> {
        let (mut rcv_blocks, mut regions) = (Vec::new(), Vec::new());
        if let Some(d) = reply.direct {
            let base = d.base as i64;
            let blocks = d.layout?.repeat(d.count).into_iter();
            rcv_blocks = blocks.map(|(o, l)| ((base + o) as Va, l)).collect();
            regions = d.regions;
        }
        let ((nsegs, mut seg_size), mut packed_ivs) = (geometry, Vec::new());
        let mut plan = SendPlan {
            kind: reply.kind,
            from_user,
            nsegs,
            segs: reply.segs,
            rcv_blocks,
            regions,
        };
        if plan.kind == ReplyKind::Hybrid {
            let rp = plan_reply(Scheme::Hybrid, size, &plan.rcv_blocks, cfg);
            debug_assert_eq!(rp.nsegs as usize, plan.segs.len());
            (plan.nsegs, seg_size, packed_ivs) = (rp.nsegs, rp.seg_size, rp.packed_ivs);
        }
        Some((plan, (seg_size, packed_ivs)))
    }

    /// Steps in the list.
    pub fn step_count(&self) -> u32 {
        match (self.kind, self.from_user) {
            (ReplyKind::Hybrid, _) => self.nsegs + 3,
            (ReplyKind::MultiW, _) | (ReplyKind::ReadGo, true) => 1,
            _ => self.nsegs,
        }
    }

    /// Step `i`, or `None` past the end.
    pub fn step(&self, i: u32) -> Option<Step> {
        if i >= self.step_count() {
            return None;
        }
        Some(match (self.kind, self.from_user) {
            (ReplyKind::Hybrid, _) => match i {
                0 => Step::Direct,
                1 => Step::Stage,
                i if i == self.nsegs + 2 => Step::Marker,
                i => Step::Seg(i - 2),
            },
            (ReplyKind::MultiW, from_user) => Step::WriteList { staged: !from_user },
            (ReplyKind::ReadGo, true) => Step::AnnounceUser,
            (ReplyKind::ReadGo, false) => Step::Announce(i),
            (_, true) => Step::Gather(i),
            (_, false) => Step::Seg(i),
        })
    }

    /// Whether the write of segment `k` asks for the local completion
    /// that ends the sender's data duty: the last segment, unless a
    /// marker follows it.
    pub fn signals(&self, k: u32) -> bool {
        self.kind != ReplyKind::Hybrid && k + 1 == self.nsegs
    }

    /// Where the cursor restarts once the receiver acknowledged `from_k`
    /// segments after a connection recovery: at segment `from_k` for the
    /// segment-ordered lists, at the start for every other (direct
    /// writes, the marker and announcements are idempotent). At
    /// [`Self::step_count`] nothing is left to post.
    pub fn resume_at(&self, from_k: u32) -> u32 {
        match self.kind {
            ReplyKind::Buffer | ReplyKind::Segments => from_k.min(self.nsegs),
            _ => 0,
        }
    }
}

/// Picks the bounce-chunk size for a staged device transfer of `bytes`
/// spanning `blocks` layout blocks. An explicit
/// [`MpiConfig::staging_chunk`] wins; otherwise the adaptive model (the
/// §6 selector extended to the host↔device axis) evaluates the
/// closed-form two-stage pipeline over power-of-two chunks from 4 KiB
/// to 4 MiB and takes the argmin, ties to the smaller chunk.
pub fn staging_chunk_for(
    cfg: &MpiConfig,
    host: &HostConfig,
    bytes: u64,
    blocks: usize,
    to_device: bool,
) -> u64 {
    if cfg.staging_chunk != 0 {
        return cfg.staging_chunk;
    }
    let bufs = cfg.staging_bufs.clamp(1, MAX_PIPELINE_BUFS);
    let mut best_c = 4096u64;
    let mut best_t = Time::MAX;
    let mut c = 4096u64;
    loop {
        let n = bytes.div_ceil(c).max(1);
        let chunk_bytes = |k: u64| (k * c + c).min(bytes) - k * c;
        let cpu = |k: u64| {
            let cb = chunk_bytes(k);
            let cblocks = ((blocks as u64 * cb).div_ceil(bytes)).max(1) as usize;
            host.copy_ns(cblocks, cb)
        };
        let dma = |k: u64| host.dma_ns(chunk_bytes(k), to_device);
        // Unpack stages CPU-scatter before DMA-out; pack DMAs in before
        // CPU-gather. The finish time is symmetric, but keep the order
        // honest for when the stages' costs diverge.
        let t = if to_device {
            two_stage_finish_ns(n, bufs, cpu, dma)
        } else {
            two_stage_finish_ns(n, bufs, dma, cpu)
        };
        if t < best_t {
            best_t = t;
            best_c = c;
        }
        if c >= bytes || c >= (4 << 20) {
            break;
        }
        c <<= 1;
    }
    best_c
}

/// Length of a packed substream: the whole stream of `size` bytes when
/// `intervals` is empty, else the sum of the intervals.
pub fn substream_len(intervals: &[(u64, u64)], size: u64) -> u64 {
    if intervals.is_empty() {
        size
    } else {
        intervals.iter().map(|&(a, b)| b - a).sum()
    }
}

/// Calls `f(lo, hi)` for each stream interval that the range `[lo, hi)`
/// of the *substream* covers, in order. The substream is the
/// concatenation of `intervals`, or the stream itself when `intervals`
/// is empty (every scheme but Hybrid), which maps to one call.
pub fn for_each_substream_piece(
    intervals: &[(u64, u64)],
    lo: u64,
    hi: u64,
    mut f: impl FnMut(u64, u64),
) {
    debug_assert!(lo <= hi);
    if intervals.is_empty() {
        f(lo, hi);
        return;
    }
    let mut pos = 0u64; // substream position at the start of interval
    for &(a, b) in intervals {
        let len = b - a;
        let end = pos + len;
        if end > lo && pos < hi {
            let clip_lo = lo.saturating_sub(pos);
            let clip_hi = (hi - pos).min(len);
            if clip_hi > clip_lo {
                f(a + clip_lo, a + clip_hi);
            }
        }
        pos = end;
        if pos >= hi {
            break;
        }
    }
}

/// Immediate-data encoding for rendezvous segments: 16 bits of sequence
/// number, 16 bits of segment index.
pub fn imm_of(seq: u64, k: u32) -> u32 {
    debug_assert!(k <= 0xFFFF, "segment index overflows immediate encoding");
    (((seq & 0xFFFF) as u32) << 16) | (k & 0xFFFF)
}

/// Inverse of [`imm_of`]: `(seq16, k)`.
pub fn imm_parse(imm: u32) -> (u16, u32) {
    ((imm >> 16) as u16, imm & 0xFFFF)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A write frame whose keys encode what they were asked for: lkey
    /// = low bits of the address, rkey = destination length.
    fn write_frame(max_sge: usize) -> WrFrame<impl KeyFn, impl KeyFn> {
        WrFrame::write(42, max_sge, |a, _| a as u32, |_, l| l as u32)
    }

    /// `(gather list, destination)` of each planned request.
    fn shape(wrs: &[SendWr]) -> Vec<(Vec<(Va, u64)>, Va)> {
        wrs.iter()
            .map(|w| {
                let sges = w.sges.iter().map(|s| (s.addr, s.len)).collect();
                (sges, w.remote.expect("RDMA request").0)
            })
            .collect()
    }

    fn multi_w(snd: &[(Va, u64)], rcv: &[(Va, u64)], max_sge: usize) -> Vec<SendWr> {
        let mut out = Vec::new();
        plan_multi_w(&write_frame(max_sge), snd, rcv, Tail::default(), &mut out);
        out
    }

    #[test]
    fn gather_splits_at_limit_onto_consecutive_remote_bytes() {
        let blocks: Vec<(Va, u64)> = (0..10).map(|i| (i * 100, 8)).collect();
        let mut out = Vec::new();
        let tail = Tail::imm(7, true);
        plan_gather(&write_frame(4), &blocks, 5000, tail, &mut out);
        let got = shape(&out);
        assert_eq!(got.len(), 3);
        assert_eq!(got[0].0.len(), 4);
        assert_eq!(got[2].0.len(), 2);
        assert_eq!(
            got.iter().map(|(_, d)| *d).collect::<Vec<_>>(),
            [5000, 5032, 5064]
        );
        // Keys come from the frame per entry and per destination range.
        assert_eq!(out[1].sges[0].lkey, 400);
        assert_eq!(out[2].remote, Some((5064, 16)));
        // Only the last request carries the immediate and the signal.
        assert_eq!(out[0].opcode, Opcode::RdmaWrite);
        assert!(!out[0].signaled && !out[1].signaled);
        assert_eq!(out[2].opcode, Opcode::RdmaWriteImm(7));
        assert!(out[2].signaled);
        assert!(out.iter().all(|w| w.wr_id == 42));
    }

    #[test]
    fn gather_appends_and_plans_nothing_for_no_blocks() {
        let mut out = vec![write_frame(4).wr(&[(1, 1)], 9, Tail::default())];
        let tail = Tail::imm(1, true);
        plan_gather(&write_frame(4), &[], 0, tail, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].opcode, Opcode::RdmaWrite, "earlier batch untouched");
        assert!(!out[0].signaled);
    }

    #[test]
    fn reads_scatter_and_keep_the_frame_verb() {
        let f = WrFrame {
            read: true,
            ..write_frame(2)
        };
        let mut out = Vec::new();
        plan_gather(
            &f,
            &[(0, 8), (64, 8), (128, 8)],
            900,
            Tail::SIGNALED,
            &mut out,
        );
        assert!(out.iter().all(|w| w.opcode == Opcode::RdmaRead));
        assert_eq!(shape(&out)[1], (vec![(128, 8)], 916));
        assert!(out[1].signaled);
    }

    #[test]
    fn single_request_with_an_empty_list_is_a_pure_notification() {
        let tail = Tail::imm(0xABCD, true);
        let wr = write_frame(4).wr(&[], 777, tail);
        assert!(wr.sges.is_empty());
        assert_eq!(wr.remote, Some((777, 0)));
        assert_eq!(wr.opcode, Opcode::RdmaWriteImm(0xABCD));
        assert!(wr.signaled);
    }

    #[test]
    fn multiw_identical_layouts_one_wr_per_block() {
        let blocks: Vec<(Va, u64)> = vec![(0, 16), (100, 16), (200, 16)];
        let rcv: Vec<(Va, u64)> = vec![(1000, 16), (1100, 16), (1200, 16)];
        let plan = shape(&multi_w(&blocks, &rcv, 64));
        assert_eq!(plan.len(), 3);
        for (i, (sges, dst)) in plan.iter().enumerate() {
            assert_eq!(sges, &vec![(i as u64 * 100, 16)]);
            assert_eq!(*dst, 1000 + i as u64 * 100);
        }
    }

    #[test]
    fn multiw_sender_finer_than_receiver_gathers() {
        // Sender: 4 blocks of 8; receiver: 1 block of 32.
        let snd: Vec<(Va, u64)> = (0..4).map(|i| (i * 50, 8)).collect();
        let plan = multi_w(&snd, &[(9000, 32)], 64);
        assert_eq!(plan.len(), 1);
        assert_eq!(plan[0].sges.len(), 4);
        assert_eq!(plan[0].remote, Some((9000, 32)));
    }

    #[test]
    fn multiw_receiver_finer_than_sender_splits() {
        // Sender: 1 block of 32; receiver: 4 blocks of 8.
        let rcv: Vec<(Va, u64)> = (0..4).map(|i| (7000 + i * 100, 8)).collect();
        let plan = shape(&multi_w(&[(500, 32)], &rcv, 64));
        assert_eq!(plan.len(), 4);
        for (i, (sges, dst)) in plan.iter().enumerate() {
            assert_eq!(sges, &vec![(500 + i as u64 * 8, 8)]);
            assert_eq!(*dst, 7000 + i as u64 * 100);
        }
    }

    #[test]
    fn multiw_misaligned_boundaries() {
        // Sender blocks 12+20; receiver blocks 8+24. Splits at 8, 12.
        let plan = shape(&multi_w(
            &[(0, 12), (100, 20)],
            &[(1000, 8), (2000, 24)],
            64,
        ));
        // WR1: rcv[0] = snd[0][0..8]. WR2: rcv[1] = snd[0][8..12] +
        // snd[1][0..20].
        assert_eq!(
            plan,
            vec![(vec![(0, 8)], 1000), (vec![(8, 4), (100, 20)], 2000)]
        );
    }

    #[test]
    fn multiw_respects_max_sge() {
        // Receiver one 64-byte block; sender 8 blocks of 8; max_sge 3.
        let snd: Vec<(Va, u64)> = (0..8).map(|i| (i * 10, 8)).collect();
        let plan = multi_w(&snd, &[(5000, 64)], 3);
        assert_eq!(plan.len(), 3); // 3 + 3 + 2 sges
        assert_eq!(plan[0].sges.len(), 3);
        assert_eq!(plan[1].remote, Some((5000 + 24, 24)));
        assert_eq!(plan[2].sges.len(), 2);
        assert_eq!(plan.iter().map(SendWr::total_len).sum::<u64>(), 64);
    }

    #[test]
    fn multiw_single_sge_splits_at_staging_buffer_boundaries() {
        // A staged stream in two 24-byte buffers written into receiver
        // blocks 16+32: with one gather entry per write, every piece
        // stays inside one buffer and one receiver block.
        let stage = [(10_000u64, 24u64), (20_000, 24)];
        let plan = shape(&multi_w(&stage, &[(100, 16), (200, 32)], 1));
        assert_eq!(
            plan,
            vec![
                (vec![(10_000, 16)], 100),
                (vec![(10_016, 8)], 200),
                (vec![(20_000, 24)], 208),
            ]
        );
    }

    #[test]
    fn multiw_tail_marks_only_the_last_write() {
        let mut out = Vec::new();
        let tail = Tail::imm(3, true);
        plan_multi_w(
            &write_frame(4),
            &[(0, 32)],
            &[(100, 16), (200, 16)],
            tail,
            &mut out,
        );
        assert_eq!(out[0].opcode, Opcode::RdmaWrite);
        assert!(!out[0].signaled);
        assert_eq!(out[1].opcode, Opcode::RdmaWriteImm(3));
        assert!(out[1].signaled);
    }

    #[test]
    fn multiw_total_preserved_random_shapes() {
        // Deterministic pseudo-random split of 1 KiB into blocks.
        let mut s = Vec::new();
        let mut r = Vec::new();
        let (mut sa, mut ra) = (0u64, 1 << 20);
        let mut rem_s = 1024u64;
        let mut x = 7u64;
        while rem_s > 0 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let l = (x % 96 + 1).min(rem_s);
            s.push((sa, l));
            sa += l + x % 33;
            rem_s -= l;
        }
        let mut rem_r = 1024u64;
        while rem_r > 0 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let l = (x % 80 + 1).min(rem_r);
            r.push((ra, l));
            ra += l + x % 17;
            rem_r -= l;
        }
        let plan = multi_w(&s, &r, 5);
        assert_eq!(plan.iter().map(SendWr::total_len).sum::<u64>(), 1024);
        assert!(plan.iter().all(|w| w.sges.len() <= 5));
        // Destination ranges are disjoint and cover the receiver blocks.
        let mut dsts: Vec<(u64, u64)> = plan
            .iter()
            .map(|w| (w.remote.unwrap().0, w.total_len()))
            .collect();
        dsts.sort_unstable();
        for w in dsts.windows(2) {
            assert!(w[0].0 + w[0].1 <= w[1].0);
        }
    }

    #[test]
    fn keys_come_from_the_covering_registration_or_region() {
        let regs = [
            Registration {
                addr: 0,
                len: 100,
                lkey: 1,
                rkey: 11,
            },
            Registration {
                addr: 200,
                len: 100,
                lkey: 2,
                rkey: 22,
            },
        ];
        assert_eq!(lkey_for(&regs, 210, 50), 2);
        assert_eq!(lkey_for(&regs, 90, 20), u32::MAX, "straddles no region");
        let regions = [(0u64, 100u64, 5u32), (500, 10, 6)];
        assert_eq!(region_key(&regions, 500, 10), 6);
        assert_eq!(region_key(&regions, 505, 10), u32::MAX);
    }

    /// Receiver blocks at `base + 1000 * i` with the given lengths.
    fn blocks_of(lens: &[u64]) -> Vec<(Va, u64)> {
        lens.iter()
            .enumerate()
            .map(|(i, &l)| (1000 * i as u64, l))
            .collect()
    }

    #[test]
    fn hybrid_partition_splits_by_threshold() {
        // Blocks: 100, 4000, 50, 50, 8000 with threshold 1024.
        let blocks = blocks_of(&[100, 4000, 50, 50, 8000]);
        let p = hybrid_partition(&blocks, 1024);
        let direct: Vec<_> = direct_ranges(&blocks, 1024).collect();
        assert_eq!(direct, [(100, 4100, 1000), (4200, 12200, 4000)]);
        // The two 50-byte blocks are stream-adjacent and merge.
        assert_eq!(p.packed, vec![(0, 100), (4100, 4200)]);
        assert_eq!(p.packed_bytes, 200);
    }

    #[test]
    fn hybrid_partition_extremes_are_the_pure_schemes() {
        let blocks = blocks_of(&[16, 2048, 16]);
        // Threshold 0 writes everything directly (Multi-W)...
        let p = hybrid_partition(&blocks, 0);
        assert_eq!(direct_ranges(&blocks, 0).count(), 3);
        assert!(p.packed.is_empty());
        assert_eq!(p.packed_bytes, 0);
        // ...and an unreachable one packs the whole stream (BC-SPUP).
        let p = hybrid_partition(&blocks, u64::MAX);
        assert_eq!(direct_ranges(&blocks, u64::MAX).count(), 0);
        assert_eq!(p.packed, vec![(0, 2080)]);
        assert_eq!(p.packed_bytes, 2080);
        let p = hybrid_partition(&[], 1024);
        assert!(p.packed.is_empty() && direct_ranges(&[], 1024).count() == 0);
    }

    #[test]
    fn reply_plans_of_the_whole_stream_schemes() {
        let cfg = MpiConfig::default();
        let size = 3 * cfg.max_seg_size + 5;
        let whole = (cfg.segment_count(size), cfg.segment_size(size));
        for (scheme, kind, pin_min) in [
            (Scheme::BcSpup, ReplyKind::Segments, None),
            (Scheme::RwgUp, ReplyKind::Segments, None),
            // P-RRS pins the user buffer its reads scatter into.
            (Scheme::PRrs, ReplyKind::ReadGo, Some(0)),
        ] {
            let p = plan_reply(scheme, size, &[], &cfg);
            assert_eq!(
                (p.kind, p.pin_min, (p.nsegs, p.seg_size)),
                (kind, pin_min, whole)
            );
            assert!(p.packed_ivs.is_empty() && !p.batch_unpack);
        }
        // Generic is one segment of the whole message.
        let p = plan_reply(Scheme::Generic, size, &[], &cfg);
        assert_eq!((p.kind, p.nsegs, p.seg_size), (ReplyKind::Buffer, 1, size));
        // Fig. 12's batched unpack is an RWG-UP ablation only.
        let cfg = MpiConfig {
            segment_unpack: false,
            ..cfg
        };
        assert!(plan_reply(Scheme::RwgUp, size, &[], &cfg).batch_unpack);
        assert!(!plan_reply(Scheme::BcSpup, size, &[], &cfg).batch_unpack);
    }

    #[test]
    fn reply_plans_of_the_direct_schemes() {
        let cfg = MpiConfig::default();
        let t = HYBRID_BLOCK_THRESHOLD;
        let blocks = [(0, 64), (1000, t), (5000, 64), (9000, 64)];
        let size = t + 192;
        // Multi-W pins everything and packs nothing.
        let p = plan_reply(Scheme::MultiW, size, &blocks, &cfg);
        assert_eq!(
            (p.kind, p.pin_min, p.nsegs),
            (ReplyKind::MultiW, Some(0), 0)
        );
        // Hybrid pins the large block and packs the small ones, in
        // segments of the packed bytes only.
        let p = plan_reply(Scheme::Hybrid, size, &blocks, &cfg);
        assert_eq!((p.kind, p.pin_min), (ReplyKind::Hybrid, Some(t)));
        let direct: Vec<_> = direct_ranges(&blocks, t).collect();
        assert_eq!(direct, [(64, 64 + t, 1000)]);
        assert_eq!(p.packed_ivs, vec![(0, 64), (64 + t, size)]);
        assert_eq!((p.nsegs, p.seg_size), (1, 192));
        // All-large blocks leave no packed substream.
        let p = plan_reply(Scheme::Hybrid, t, &[(0, t)], &cfg);
        assert_eq!((p.nsegs, p.packed_ivs.len()), (0, 0));
    }

    #[test]
    fn send_prep_table() {
        use {Pack as K, Pin as P, PrepAt as A, Refused as R, Scheme as S};
        let start = |predicted| A::Start { predicted };
        // (scheme, contiguous sender — `None` for either, stage, pin,
        // pack when granted, action when refused)
        #[rustfmt::skip]
        let rows = [
            (S::Generic, Some(false), start(S::BcSpup), P::None, K::Whole, R::Ignore),
            (S::BcSpup, Some(false), start(S::BcSpup), P::None, K::Segments, R::Ignore),
            (S::PRrs, Some(false), start(S::BcSpup), P::None, K::Segments, R::Ignore),
            (S::RwgUp, Some(false), start(S::BcSpup), P::User, K::None, R::Ignore),
            (S::MultiW, Some(false), start(S::BcSpup), P::User, K::None, R::Ignore),
            (S::Hybrid, Some(false), start(S::BcSpup), P::HybridDirect, K::None, R::Ignore),
            (S::Adaptive, Some(false), start(S::BcSpup), P::None, K::Segments, R::Ignore),
            (S::Adaptive, Some(false), start(S::MultiW), P::User, K::None, R::PackSegments),
            (S::Generic, None, A::Reply, P::None, K::Whole, R::Ignore),
            (S::BcSpup, None, A::Reply, P::None, K::Segments, R::Ignore),
            (S::PRrs, Some(false), A::Reply, P::None, K::Segments, R::Ignore),
            (S::PRrs, Some(true), A::Reply, P::User, K::None, R::PackSegments),
            (S::RwgUp, None, A::Reply, P::User, K::None, R::Degrade),
            (S::MultiW, None, A::Reply, P::User, K::None, R::StageWhole),
            (S::Hybrid, None, A::Reply, P::HybridDirect, K::None, R::Renegotiate),
        ];
        for (scheme, contig, at, pin, pack, refused) in rows {
            for c in contig.map_or(vec![false, true], |c| vec![c]) {
                let want = SendPrep { pin, pack, refused };
                assert_eq!(send_prep(scheme, c, at), want, "{scheme:?} {c} {at:?}");
            }
            // A contiguous sender only pins during the handshake,
            // whatever it proposes or predicts.
            let p = send_prep(scheme, true, start(S::MultiW));
            assert_eq!((p.pin, p.pack, p.refused), (P::User, K::None, R::Ignore));
        }
    }

    #[test]
    fn send_plan_table() {
        use {Gate as G, Scheme as S, Step as T};
        let n = 3;
        let cfg = MpiConfig::default();
        let kind = |scheme| plan_reply(scheme, 1 << 20, &[], &cfg).kind;
        let segs = [T::Seg(0), T::Seg(1), T::Seg(2)];
        let hybrid = [
            T::Direct,
            T::Stage,
            T::Seg(0),
            T::Seg(1),
            T::Seg(2),
            T::Marker,
        ];
        let (packed, reg) = ([G::Packed(0), G::Packed(1), G::Packed(2)], G::Reg);
        // (scheme, contiguous sender — `None` for either, staged (the
        // pin was refused), steps, their gates, cursor after a resume
        // at segments 0, 1 and n)
        type Row<'a> = (S, Option<bool>, bool, &'a [T], &'a [G], [u32; 3]);
        #[rustfmt::skip]
        let rows: [Row; 10] = [
            (S::Generic, None, false, &segs, &packed, [0, 1, n]),
            (S::BcSpup, None, false, &segs, &packed, [0, 1, n]),
            (S::RwgUp, None, false, &[T::Gather(0), T::Gather(1), T::Gather(2)], &[reg; 3], [0, 1, n]),
            (S::RwgUp, None, true, &segs, &packed, [0, 1, n]),
            (S::PRrs, Some(false), false, &[T::Announce(0), T::Announce(1), T::Announce(2)], &packed, [0; 3]),
            (S::PRrs, Some(true), false, &[T::AnnounceUser], &[reg], [0; 3]),
            (S::PRrs, Some(true), true, &[T::Announce(0), T::Announce(1), T::Announce(2)], &packed, [0; 3]),
            (S::MultiW, None, false, &[T::WriteList { staged: false }], &[reg], [0; 3]),
            (S::MultiW, None, true, &[T::WriteList { staged: true }], &[G::AllPacked], [0; 3]),
            (S::Hybrid, None, false, &hybrid, &[reg, reg, packed[0], packed[1], packed[2], G::AllPacked], [0; 3]),
        ];
        for (scheme, contig, staged, steps, gates, resumed) in rows {
            for c in contig.map_or(vec![false, true], |c| vec![c]) {
                let prep = send_prep(scheme, c, PrepAt::Reply);
                // Only a refusal that keeps the message has a staged
                // layout; Hybrid's renegotiates it.
                let refusable = !matches!(prep.refused, Refused::Ignore | Refused::Renegotiate);
                assert!(!staged || refusable, "{scheme:?} {c}: no staged layout");
                let mut plan = SendPlan {
                    kind: kind(scheme),
                    from_user: prep.pin == Pin::User,
                    nsegs: n,
                    segs: SegList::new(),
                    rcv_blocks: Vec::new(),
                    regions: Vec::new(),
                };
                if staged {
                    plan.from_user = false;
                }
                let got: Vec<Step> = (0..).map_while(|i| plan.step(i)).collect();
                let at = format!("{scheme:?} contig {c} staged {staged}");
                assert_eq!(got, steps, "{at}");
                assert_eq!(plan.step_count() as usize, steps.len(), "{at}");
                let got: Vec<Gate> = got.iter().map(|s| s.gate()).collect();
                assert_eq!(got, gates, "{at}");
                assert_eq!([0, 1, n].map(|k| plan.resume_at(k)), resumed, "{at}");
                // Only the last segment write ends the data duty, and
                // Hybrid's marker ends it instead.
                let signals: Vec<bool> = (0..n).map(|k| plan.signals(k)).collect();
                assert_eq!(signals, [false, false, scheme != S::Hybrid], "{at}");
            }
        }
    }

    #[test]
    fn send_plans_from_replies() {
        use crate::msg::DirectPart;
        use ibdt_datatype::{cache::TypeTag, FlatLayout};
        use std::sync::Arc;
        use ReplyKind as K;
        let cfg = MpiConfig::default();
        let t = HYBRID_BLOCK_THRESHOLD;
        // Two receiver instances of blocks of 64, t, 64 and 64 bytes:
        // Hybrid writes the t-byte blocks directly and packs the rest.
        let one = t + 192;
        let blocks = vec![(0, 64), (1000, t), (5000, 64), (9000, 64)];
        let layout = FlatLayout {
            blocks,
            size: one,
            extent: 10_000,
        };
        let base = 0x10_0000;
        let at = |(o, l): (i64, u64)| (base + o as u64, l);
        let rcv_blocks: Vec<(Va, u64)> = layout.repeat(2).into_iter().map(at).collect();
        let hybrid = plan_reply(Scheme::Hybrid, 2 * one, &rcv_blocks, &cfg);
        let packed = vec![(0, 64), (64 + t, one + 64), (one + 64 + t, 2 * one)];
        let direct = |layout: Option<&FlatLayout>| DirectPart {
            base,
            tag: TypeTag {
                index: 1,
                version: 2,
            },
            count: 2,
            layout: layout.cloned().map(Arc::new),
            regions: vec![(base, 20_000, 7)],
        };
        let bufs: SegList = (0..hybrid.nsegs).map(|k| (0xA000 << k, k)).collect();
        let (geometry, whole) = ((3, 4096), (3, 4096, vec![]));
        let shipped = Some(direct(Some(&layout)));
        // (kind, segment buffers, direct part, the sender's nsegs, segment
        // size and packed intervals)
        #[rustfmt::skip]
        let rows = [
            (K::Buffer, SegList::of((0xA000, 1)), None, whole.clone()),
            (K::Segments, bufs.clone(), None, whole.clone()),
            (K::ReadGo, SegList::new(), None, whole.clone()),
            (K::MultiW, SegList::new(), shipped.clone(), whole),
            (K::Hybrid, bufs, shipped, (hybrid.nsegs, hybrid.seg_size, packed)),
        ];
        for (kind, segs, direct, (nsegs, seg_size, ivs)) in rows {
            let plan = SendPlan {
                kind,
                from_user: true,
                nsegs,
                segs: segs.clone(),
                rcv_blocks: direct.as_ref().map_or(vec![], |_| rcv_blocks.clone()),
                regions: direct.as_ref().map_or(vec![], |d| d.regions.clone()),
            };
            let reply = Reply { kind, segs, direct };
            let got = SendPlan::from_reply(reply, true, geometry, 2 * one, &cfg);
            assert_eq!(got, Some((plan, (seg_size, ivs))), "{kind:?}");
        }
        // A direct part whose cached layout the sender lost is unusable.
        let (segs, direct) = (SegList::new(), Some(direct(None)));
        let lost = Reply {
            kind: K::MultiW,
            segs,
            direct,
        };
        assert_eq!(
            SendPlan::from_reply(lost, true, geometry, 2 * one, &cfg),
            None
        );
    }

    #[test]
    fn recv_plan_table() {
        use {RecvGate as G, RecvStep as T, ReplyKind as K};
        // Runs `events` from the cursor at 0: the steps each passed, and
        // whether the receive completed.
        let run = |p: &RecvPlan, events: &[G]| {
            let (mut next, mut passed) = (0, Vec::new());
            for &e in events {
                let mut opened = Some(e);
                passed.push(Vec::new());
                while let Some(step) = p.pass(next, &mut opened) {
                    next += 1;
                    passed.last_mut().unwrap().push(step);
                }
            }
            (passed, next == p.step_count())
        };
        let (u, landed) = ([T::Unpack(0), T::Unpack(1)], [G::Landed(0), G::Landed(1)]);
        let (tail, direct) = (
            [T::Wait(G::Tail), T::Wait(G::Tail), T::Complete],
            [T::Wait(G::Direct), T::Complete],
        );
        let unpacked = [T::Wait(G::Unpacked), T::Complete];
        // (reply kind, packed segments, Fig. 12 batch, steps after the
        // reply, the events after `Ready` that pass them, and with the
        // cursor at step 0, 1, ...: the segments a resume acknowledges
        // and where a resume puts the cursor). The `Segments` and
        // `ReadGo` events repeat a landing and an announcement: each
        // segment is placed once.
        type Row<'a> = (K, u32, bool, Vec<T>, Vec<G>, &'a [u32], &'a [u32]);
        #[rustfmt::skip]
        let rows: [Row; 8] = [
            (K::Buffer, 1, false, [&u[..1], &unpacked].concat(), vec![landed[0], G::Unpacked], &[0; 4], &[0, 1, 2, 3]),
            (K::Segments, 2, false, [&u[..], &unpacked].concat(), vec![landed[0], landed[0], landed[1], landed[1], G::Unpacked], &[0, 0, 1, 2, 2], &[0, 1, 2, 3, 4]),
            (K::Segments, 2, true, [&landed.map(T::Wait)[..], &[T::UnpackAll], &unpacked].concat(), vec![landed[0], landed[1], G::Unpacked], &[0, 0, 1, 2, 2, 2], &[0, 1, 2, 3, 4, 5]),
            (K::ReadGo, 2, false, vec![T::Read(0), T::Read(1), T::Wait(G::Read), T::Complete], [0, 0, 1].map(G::Announced).into_iter().chain([G::Read]).collect(), &[0; 5], &[0, 1, 1, 1, 1]),
            (K::MultiW, 0, false, direct.to_vec(), vec![G::Direct], &[0; 3], &[0, 1, 2]),
            (K::Hybrid, 0, false, direct.to_vec(), vec![G::Direct], &[0; 3], &[0, 1, 2]),
            // The marker and the last unpack come in either order.
            (K::Hybrid, 2, false, [&u[..], &tail].concat(), vec![landed[0], landed[1], G::Direct, G::Unpacked], &[0; 6], &[0, 1, 2, 3, 4, 5]),
            (K::Hybrid, 2, false, [&u[..], &tail].concat(), vec![landed[0], landed[1], G::Unpacked, G::Direct], &[0; 6], &[0, 1, 2, 3, 4, 5]),
        ];
        for (kind, nsegs, batch_unpack, steps, events, acked, resumed) in rows {
            let p = RecvPlan {
                kind,
                nsegs,
                batch_unpack,
                ..RecvPlan::default()
            };
            let at = format!("{kind:?} {nsegs} {batch_unpack}");
            let steps = [&[T::Reply][..], &steps].concat();
            let got: Vec<T> = (0..).map_while(|i| p.step(i)).collect();
            assert_eq!(got, steps, "{at}");
            let (passed, complete) = run(&p, &[&[G::Ready][..], &events].concat());
            assert!(complete && passed.concat() == steps, "{at}: {passed:?}");
            let cursors = 0..p.step_count();
            let got: Vec<u32> = cursors.clone().map(|i| p.acked(i)).collect();
            assert_eq!(got, acked, "{at}");
            let got: Vec<u32> = cursors.map(|i| p.resume_at(i)).collect();
            assert_eq!(got, resumed, "{at}");
        }
        // The gates: the reply waits for the receiver to be ready, an
        // unpack for its segment to land, a read for its announcement.
        #[rustfmt::skip]
        let gates = [(T::Reply, G::Ready), (T::Unpack(1), G::Landed(1)), (T::Read(1), G::Announced(1)),
            (T::Wait(G::Tail), G::Tail), (T::UnpackAll, G::Open), (T::Complete, G::Open)];
        for (step, gate) in gates {
            assert_eq!(step.gate(), gate, "{step:?}");
        }
        // A landing ahead of the cursor passes nothing.
        let segs = RecvPlan {
            nsegs: 2,
            ..RecvPlan::default()
        };
        let (passed, complete) = run(&segs, &[G::Ready, landed[1], landed[0]]);
        let want = [T::Reply, u[0]];
        assert!(!complete && passed.concat() == want, "{passed:?}");
    }

    #[test]
    fn adaptive_choice_on_ib() {
        let choose = |size, snd, rcv| adaptive_choose(TransportClass::Ib, size, snd, rcv);
        let (big, blk) = (1 << 20, ADAPTIVE_MULTIW_BLOCK);
        let small = ADAPTIVE_COPY_REDUCED_MIN - 1;
        assert_eq!(choose(small, blk, blk), Scheme::BcSpup);
        assert_eq!(choose(big, blk, blk), Scheme::MultiW);
        assert_eq!(choose(big, big, 64), Scheme::PRrs, "contiguous sender");
        assert_eq!(choose(big, 64, big), Scheme::RwgUp, "contiguous receiver");
        assert_eq!(choose(big, 64, blk), Scheme::RwgUp, "large receiver blocks");
        assert_eq!(choose(big, 64, 64), Scheme::BcSpup);
    }

    #[test]
    fn receiver_resolves_the_proposal() {
        let ib = TransportClass::Ib;
        let small = BlockStats::from_blocks(&[(0, 64), (128, 64)]);
        let whole = BlockStats::from_blocks(&[(0, 128)]);
        let proposal = |scheme, (blk_min, blk_median)| Proposal {
            size: 128,
            scheme,
            blk_min,
            blk_median,
        };
        let resolve = |s: Scheme, snd, rcv| receiver_scheme(ib, proposal(s.to_wire(), snd), rcv);
        // Contiguous on both sides is Multi-W whatever was proposed.
        let multi_w = Some((Scheme::MultiW, FALLBACK));
        assert_eq!(resolve(Scheme::RwgUp, (128, 128), &whole), multi_w);
        let rwg_up = Some((Scheme::RwgUp, FALLBACK));
        assert_eq!(resolve(Scheme::RwgUp, (64, 64), &whole), rwg_up);
        // Adaptive is resolved; only a Generic sender falls back to Generic.
        let generic = Some((Scheme::Generic, Scheme::Generic));
        assert_eq!(resolve(Scheme::Generic, (64, 64), &small), generic);
        let adaptive = resolve(Scheme::Adaptive, (64, 64), &small);
        assert_eq!(adaptive, Some((Scheme::BcSpup, FALLBACK)));
        let unknown = proposal(0xEE, (64, 64));
        assert_eq!(receiver_scheme(ib, unknown, &small), None);
    }

    fn pieces(ivs: &[(u64, u64)], lo: u64, hi: u64) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        for_each_substream_piece(ivs, lo, hi, |a, b| out.push((a, b)));
        out
    }

    #[test]
    fn substream_of_the_whole_stream_is_the_identity() {
        assert_eq!(pieces(&[], 10, 20), vec![(10, 20)]);
        assert_eq!(substream_len(&[], 77), 77);
    }

    #[test]
    fn substream_mapping_whole() {
        let ivs = [(10u64, 20u64), (50, 55), (100, 130)];
        // Substream is 10 + 5 + 30 = 45 bytes.
        assert_eq!(substream_len(&ivs, 999), 45);
        assert_eq!(pieces(&ivs, 0, 45), ivs.to_vec());
    }

    #[test]
    fn substream_mapping_partial() {
        let ivs = [(10u64, 20u64), (50, 55), (100, 130)];
        // [8, 17) of the substream: last 2 bytes of iv0, all of iv1,
        // first 2 bytes of iv2.
        assert_eq!(pieces(&ivs, 8, 17), vec![(18, 20), (50, 55), (100, 102)]);
        // Entirely inside one interval: substream [16,18) falls in the
        // third interval (iv0 covers [0,10), iv1 [10,15), iv2 [15,45)).
        assert_eq!(pieces(&ivs, 16, 18), vec![(101, 103)]);
        assert_eq!(pieces(&ivs, 11, 13), vec![(51, 53)]);
        // Empty range.
        assert!(pieces(&ivs, 7, 7).is_empty());
    }

    #[test]
    fn substream_lengths_preserved() {
        let ivs = [(0u64, 7u64), (100, 103), (200, 250)];
        let total = 7 + 3 + 50;
        for lo in 0..total {
            for hi in lo..=total {
                let n: u64 = pieces(&ivs, lo, hi).iter().map(|(a, b)| b - a).sum();
                assert_eq!(n, hi - lo, "lo={lo} hi={hi}");
            }
        }
    }

    #[test]
    fn imm_roundtrip() {
        let imm = imm_of(0x1_F00D, 7);
        let (seq16, k) = imm_parse(imm);
        assert_eq!(seq16, 0xF00D);
        assert_eq!(k, 7);
    }
}
