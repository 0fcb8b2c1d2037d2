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
//! * [`hybrid_partition`] and [`for_each_substream_piece`] — the §10
//!   Hybrid split of a stream into directly written blocks and a packed
//!   substream, and the map from that substream back to the stream,
//! * [`plan_reply`] — what the receiver commits for its rendezvous
//!   reply: the blocks it pins, the packed substream it unpacks and
//!   that substream's segments,
//! * [`send_prep`] — what a sender pins and packs before and after the
//!   reply, and what it does when the pinning budget refuses the pin,
//! * the remaining scheme rules: [`adaptive_choose`] (§6),
//!   [`receiver_scheme`], [`send_geometry`], [`resumes_from_prefix`],
//!   [`renegotiates_on_fault`] and the device tier's
//!   [`staging_chunk_for`]. The progress engine asks these and never
//!   branches on a scheme itself.

use crate::config::{MpiConfig, Scheme};
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
    /// `(stream lo, stream hi, receiver address)` of each receiver
    /// block large enough for a direct zero-copy write.
    pub direct: Vec<(u64, u64, Va)>,
    /// Stream intervals that travel packed (small receiver blocks),
    /// in stream order.
    pub packed: Vec<(u64, u64)>,
    /// Total packed bytes (sum of packed interval lengths).
    pub packed_bytes: u64,
}

/// Partitions a message by the receiver's blocks (absolute addresses,
/// stream order): blocks of at least `threshold` bytes are written
/// directly, the rest is packed. Both sides compute the same partition
/// from the receiver's layout (shipped in the rendezvous reply), so no
/// extra negotiation is needed. BC-SPUP is the partition with threshold
/// ∞ and Multi-W the one with threshold 0.
pub fn hybrid_partition(rcv_blocks: &[(Va, u64)], threshold: u64) -> HybridPart {
    let mut direct = Vec::new();
    let mut packed: Vec<(u64, u64)> = Vec::new();
    let mut packed_bytes = 0;
    let mut pos = 0u64;
    for &(addr, len) in rcv_blocks {
        if len >= threshold {
            direct.push((pos, pos + len, addr));
        } else {
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
        direct,
        packed,
        packed_bytes,
    }
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
}

/// What a receiver commits for its rendezvous reply.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplyPlan {
    /// The reply sent.
    pub kind: ReplyKind,
    /// Receiver blocks pinned for the sender's direct access: none, or
    /// every block of at least this many bytes (`Some(0)`: all).
    pub pin_min: Option<u64>,
    /// Stream intervals of the packed substream; empty for the whole
    /// stream.
    pub packed_ivs: Vec<(u64, u64)>,
    /// `(stream lo, stream hi, receiver address)` of each directly
    /// written range (Hybrid).
    pub direct: Vec<(u64, u64, Va)>,
    /// Segments of the packed substream (0: nothing travels packed).
    pub nsegs: u32,
    /// Bytes per segment (the last may be shorter).
    pub seg_size: u64,
    /// Unpack every segment at once after the last one arrived (the
    /// Fig. 12 ablation of RWG-UP) instead of each on arrival.
    pub batch_unpack: bool,
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
) -> ReplyPlan {
    let (nsegs, seg_size) = send_geometry(scheme, size, cfg);
    let mut plan = ReplyPlan {
        kind: ReplyKind::Segments,
        pin_min: None,
        packed_ivs: Vec::new(),
        direct: Vec::new(),
        nsegs,
        seg_size,
        batch_unpack: false,
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
            let threshold = cfg.hybrid_block_threshold;
            let part = hybrid_partition(rcv_blocks, threshold);
            plan.kind = ReplyKind::Hybrid;
            plan.pin_min = Some(threshold);
            (plan.nsegs, plan.seg_size) = packed_geometry(cfg, part.packed_bytes);
            (plan.packed_ivs, plan.direct) = (part.packed, part.direct);
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
    cfg: &MpiConfig,
    transport: TransportClass,
    size: u64,
    snd_median: u64,
    rcv_median: u64,
) -> Scheme {
    match transport {
        TransportClass::Ib => {
            if size < cfg.adaptive_copy_reduced_min {
                return Scheme::BcSpup;
            }
            if snd_median >= cfg.adaptive_multiw_block && rcv_median >= cfg.adaptive_multiw_block {
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
            if rcv_median >= cfg.adaptive_multiw_block {
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
            if size < cfg.adaptive_copy_reduced_min {
                return Scheme::BcSpup;
            }
            let blk = cfg.adaptive_shm_multiw_block;
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

/// The scheme a receiver replies with to a proposal (wire code) for a
/// message of `size` bytes, and the copy scheme it falls back to when
/// that reply cannot be committed. `snd` is the sender's `(min,
/// median)` block size from the start message; `None` for an unknown
/// proposal.
///
/// Contiguous on both sides is the standard zero-copy rendezvous
/// (§3.1): one RDMA write from user buffer to user buffer whatever the
/// configured scheme, which is Multi-W with a single block. A Generic
/// sender packs the whole message as one segment, so its copy
/// fallback is Generic's; every other one is [`FALLBACK`].
pub fn receiver_scheme(
    cfg: &MpiConfig,
    transport: TransportClass,
    proposal: u8,
    size: u64,
    snd: (u64, u64),
    rcv: &BlockStats,
) -> Option<(Scheme, Scheme)> {
    let proposal = Scheme::from_wire(proposal)?;
    let both_contiguous = size > 0 && snd.0 >= size && rcv.min >= size;
    let scheme = match proposal {
        _ if both_contiguous => Scheme::MultiW,
        Scheme::Adaptive => adaptive_choose(cfg, transport, size, snd.1, rcv.median),
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

/// Whether a recovered transfer of `scheme` restarts from the
/// receiver's acknowledged segment prefix. Per-QP FIFO delivery plus
/// flush-kills-the-suffix makes the arrived count exactly that prefix
/// for the segment-ordered schemes; the others restart from the
/// beginning (their writes are idempotent and a completion marker is
/// posted last).
pub fn resumes_from_prefix(scheme: Scheme) -> bool {
    matches!(scheme, Scheme::BcSpup | Scheme::RwgUp)
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
    /// of at least `hybrid_block_threshold` bytes (symmetric types are
    /// the common case); after it, those of the receiver's partition.
    HybridDirect,
}

/// The staging a sender packs into unless it holds some already.
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
        let p = hybrid_partition(&blocks_of(&[100, 4000, 50, 50, 8000]), 1024);
        assert_eq!(p.direct, vec![(100, 4100, 1000), (4200, 12200, 4000)]);
        // The two 50-byte blocks are stream-adjacent and merge.
        assert_eq!(p.packed, vec![(0, 100), (4100, 4200)]);
        assert_eq!(p.packed_bytes, 200);
    }

    #[test]
    fn hybrid_partition_extremes_are_the_pure_schemes() {
        let blocks = blocks_of(&[16, 2048, 16]);
        // Threshold 0 writes everything directly (Multi-W)...
        let p = hybrid_partition(&blocks, 0);
        assert_eq!(p.direct.len(), 3);
        assert!(p.packed.is_empty());
        assert_eq!(p.packed_bytes, 0);
        // ...and an unreachable one packs the whole stream (BC-SPUP).
        let p = hybrid_partition(&blocks, u64::MAX);
        assert!(p.direct.is_empty());
        assert_eq!(p.packed, vec![(0, 2080)]);
        assert_eq!(p.packed_bytes, 2080);
        let p = hybrid_partition(&[], 1024);
        assert!(p.direct.is_empty() && p.packed.is_empty());
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
            assert!(p.packed_ivs.is_empty() && p.direct.is_empty() && !p.batch_unpack);
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
        let t = cfg.hybrid_block_threshold;
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
        assert_eq!(p.direct, vec![(64, 64 + t, 1000)]);
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
    fn adaptive_choice_on_ib() {
        let cfg = MpiConfig::default();
        let choose = |size, snd, rcv| adaptive_choose(&cfg, TransportClass::Ib, size, snd, rcv);
        let (big, blk) = (1 << 20, cfg.adaptive_multiw_block);
        let small = cfg.adaptive_copy_reduced_min - 1;
        assert_eq!(choose(small, blk, blk), Scheme::BcSpup);
        assert_eq!(choose(big, blk, blk), Scheme::MultiW);
        assert_eq!(choose(big, big, 64), Scheme::PRrs, "contiguous sender");
        assert_eq!(choose(big, 64, big), Scheme::RwgUp, "contiguous receiver");
        assert_eq!(choose(big, 64, blk), Scheme::RwgUp, "large receiver blocks");
        assert_eq!(choose(big, 64, 64), Scheme::BcSpup);
    }

    #[test]
    fn receiver_resolves_the_proposal() {
        let cfg = MpiConfig::default();
        let ib = TransportClass::Ib;
        let small = BlockStats::from_blocks(&[(0, 64), (128, 64)]);
        let whole = BlockStats::from_blocks(&[(0, 128)]);
        let resolve = |s: Scheme, snd, rcv| receiver_scheme(&cfg, ib, s.to_wire(), 128, snd, rcv);
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
        assert_eq!(receiver_scheme(&cfg, ib, 0xEE, 128, (64, 64), &small), None);
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
