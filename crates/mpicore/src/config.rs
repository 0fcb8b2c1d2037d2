//! MPI-layer configuration.

use ibdt_simcore::time::Time;

/// Which datatype communication scheme the rendezvous path uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// MPICH-derived baseline: pack whole message into a dynamic buffer,
    /// one RDMA write, unpack whole message (Fig. 1).
    Generic,
    /// Buffer-Centric Segment Pack/Unpack (§4.2).
    BcSpup,
    /// RDMA Write Gather with Unpack (§5.1).
    RwgUp,
    /// Pack with RDMA Read Scatter (§5.2).
    PRrs,
    /// Multiple RDMA Writes (§5.3).
    MultiW,
    /// Choose per message from datatype characteristics (§6).
    Adaptive,
    /// Per-block selection *within* one message (§10 future work):
    /// large receiver blocks get direct zero-copy RDMA writes, small
    /// ones are packed into pool segments and unpacked on arrival.
    Hybrid,
}

impl Scheme {
    /// Stable wire encoding for control messages.
    pub fn to_wire(self) -> u8 {
        match self {
            Scheme::Generic => 0,
            Scheme::BcSpup => 1,
            Scheme::RwgUp => 2,
            Scheme::PRrs => 3,
            Scheme::MultiW => 4,
            Scheme::Adaptive => 5,
            Scheme::Hybrid => 6,
        }
    }

    /// Inverse of [`Self::to_wire`].
    pub fn from_wire(v: u8) -> Option<Scheme> {
        Some(match v {
            0 => Scheme::Generic,
            1 => Scheme::BcSpup,
            2 => Scheme::RwgUp,
            3 => Scheme::PRrs,
            4 => Scheme::MultiW,
            5 => Scheme::Adaptive,
            6 => Scheme::Hybrid,
            _ => return None,
        })
    }
}

/// MPI runtime parameters. Defaults follow §7's proof-of-concept
/// implementation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MpiConfig {
    /// Messages up to this size (packed bytes) use the eager protocol.
    /// The paper's vector test sends 1–2 columns (512 B / 1 KiB)
    /// eagerly and 4+ columns (2 KiB+) via rendezvous.
    pub eager_threshold: u64,
    /// Size of one eager buffer (must hold the largest control
    /// message).
    pub eager_buf_size: u64,
    /// Receive descriptors pre-posted per peer.
    pub eager_bufs_per_peer: usize,
    /// Send-side eager ring size (shared across peers).
    pub eager_send_bufs: usize,
    /// Maximum supported segment size (§7.2: 128 KB).
    pub max_seg_size: u64,
    /// Messages at or above this size are split into at least two
    /// segments (§7.2: 16 KB).
    pub multi_seg_threshold: u64,
    /// Total size of the pre-registered pack pool (§7.2: 20 MB).
    pub pack_pool_size: u64,
    /// Total size of the pre-registered unpack pool (§7.2: 20 MB).
    pub unpack_pool_size: u64,
    /// The rendezvous datatype scheme.
    pub scheme: Scheme,
    /// Multi-W: post descriptor lists with the extended interface
    /// (§7.4) instead of one by one. Fig. 13 ablates this.
    pub list_post: bool,
    /// RWG-UP: drive unpacking per segment (§5.1). Fig. 12 ablates
    /// this; when false the receiver unpacks only once all segments
    /// arrived.
    pub segment_unpack: bool,
    /// Enable the pin-down registration cache. Fig. 14's worst case
    /// disables it, forcing on-the-fly registration everywhere.
    pub pindown_cache: bool,
    /// Pin-down cache capacity in idle pinned bytes.
    pub pindown_capacity: u64,
    /// Generic scheme: reuse the internal pack/unpack buffers across
    /// operations ("Datatype" in Fig. 2). When false, every operation
    /// allocates fresh internal buffers and registers them on the fly
    /// ("DT+reg").
    pub reuse_internal_bufs: bool,
    /// Adaptive: median contiguous-block size (bytes) at or above which
    /// Multi-W is chosen. §6 suggests "several KBytes" on the paper's
    /// hardware; under this crate's default cost model the measured
    /// Multi-W/BC-SPUP crossover sits at 512-byte blocks (Fig. 8
    /// reproduction), so that is the default.
    pub adaptive_multiw_block: u64,
    /// Adaptive: messages below this size with small blocks stay on the
    /// pack/unpack path.
    pub adaptive_copy_reduced_min: u64,
    /// Adaptive, shared-memory single-copy transport: median block size
    /// (bytes) at or above which Multi-W is chosen. Each work request
    /// pays a CMA syscall setup there, so the crossover sits far above
    /// the IB value of [`MpiConfig::adaptive_multiw_block`].
    pub adaptive_shm_multiw_block: u64,
    /// Hybrid: receiver blocks at or above this size (bytes) are
    /// written directly (zero copy); smaller ones travel packed.
    pub hybrid_block_threshold: u64,
    /// Fixed software overhead per MPI call (matching, bookkeeping), ns.
    pub call_overhead_ns: Time,
    /// Software cost to parse/build one control message, ns.
    pub ctrl_overhead_ns: Time,
    /// Budget for user-buffer (zero-copy) registrations, bytes per
    /// rank. When RWG-UP / Multi-W / P-RRS would pin user memory past
    /// this, the message degrades to a copy-based scheme instead of
    /// failing — the §4.3.3 graceful-fallback idea applied to
    /// registration, not just pool, exhaustion.
    pub reg_budget_bytes: u64,
    /// Rendezvous-reply timeout, ns: how long the sender waits for the
    /// receiver's reply before probing again. 0 disables the timer (the
    /// default — fault-free runs schedule no extra events).
    pub rndv_reply_timeout_ns: Time,
    /// Probes sent after reply timeouts before the send fails with
    /// [`MpiError::ReplyTimeout`](crate::error::MpiError::ReplyTimeout).
    pub rndv_max_rerequests: u32,
    /// Simulated connection-manager handshake latency for one QP
    /// re-establishment (RESET→INIT→RTR→RTS plus rkey re-exchange), ns.
    pub reconnect_ns: Time,
    /// Re-establishment attempts per peer before suspended transfers
    /// fail with
    /// [`MpiError::ConnectionLost`](crate::error::MpiError::ConnectionLost).
    pub max_reconnects: u32,
    /// Canonicalize datatypes before plan lookup/compilation
    /// ([`ibdt_datatype::typ::Datatype::canonical`]): equivalent
    /// constructor spellings resolve to one shared handle, so each
    /// *layout* compiles one plan per count instead of each *spelling*.
    /// Off by default: canonical trees can regroup merged blocks, which
    /// shifts modelled pack costs — committed figure CSVs are measured
    /// with the classic per-spelling behaviour.
    pub canonicalize: bool,
    /// Staging chunk size (bytes) for device-resident non-contiguous
    /// transfers. 0 (the default) lets the §6 adaptive model pick the
    /// best chunk per message from the pipeline cost model.
    pub staging_chunk: u64,
    /// Bounce buffers in the device staging ring (clamped to
    /// `1..=`[`ibdt_simcore::pipeline::MAX_PIPELINE_BUFS`] at use). 1
    /// serializes pack and DMA; 2 is classic double-buffering.
    pub staging_bufs: usize,
    /// Enable per-peer credit-based eager flow control (the MVAPICH
    /// RDMA-channel design, cs/0310059): each eager data message
    /// consumes a credit; the receiver returns credits when messages
    /// are *matched*, piggybacked on outgoing eager/ctrl traffic or via
    /// an explicit `CreditUpdate` when a starved sender must be
    /// unblocked. A sender out of credits (or past
    /// [`pending_cap`](Self::pending_cap)) degrades the message to
    /// rendezvous instead of buffering unboundedly. Off (the default)
    /// reproduces the classic unthrottled behaviour bit-identically.
    pub flow_control: bool,
    /// Eager credits per peer direction when
    /// [`flow_control`](Self::flow_control) is on. Bounds the
    /// payload-bearing unexpected entries any one peer can park at a
    /// receiver.
    pub eager_credits: u32,
    /// Bound on the sender-side pending-eager queue (control messages
    /// waiting for a free send-ring slot) above which `isend`
    /// backpressures new eager traffic down to rendezvous. 0 =
    /// unbounded. Only enforced with flow control on.
    pub pending_cap: usize,
    /// Bound on payload-bearing unexpected-queue entries: at half this
    /// occupancy the receiver stops granting credits (senders starve
    /// and degrade to rendezvous, whose unexpected entries are
    /// header-only); grants resume when matching drains the queue.
    /// 0 = unbounded. Only enforced with flow control on.
    pub unexpected_cap: usize,
    /// Run the debug-mode invariant auditor: after events and at
    /// quiescence, assert the flow-control conservation laws (credits
    /// never negative, sent/matched/granted/received monotone and
    /// consistent, occupancies within caps, nothing lost across a
    /// degradation transition). Panics on violation — for test suites,
    /// not production runs.
    pub audit: bool,
}

impl Default for MpiConfig {
    fn default() -> Self {
        Self {
            eager_threshold: 1024,
            eager_buf_size: 16 * 1024,
            eager_bufs_per_peer: 128,
            eager_send_bufs: 256,
            max_seg_size: 128 * 1024,
            multi_seg_threshold: 16 * 1024,
            pack_pool_size: 20 * (1 << 20),
            unpack_pool_size: 20 * (1 << 20),
            scheme: Scheme::Generic,
            list_post: true,
            segment_unpack: true,
            pindown_cache: true,
            pindown_capacity: 256 * (1 << 20),
            reuse_internal_bufs: true,
            adaptive_multiw_block: 512,
            adaptive_copy_reduced_min: 16 * 1024,
            adaptive_shm_multiw_block: 8 * 1024,
            hybrid_block_threshold: 1024,
            call_overhead_ns: 150,
            ctrl_overhead_ns: 150,
            reg_budget_bytes: u64::MAX,
            rndv_reply_timeout_ns: 0,
            rndv_max_rerequests: 3,
            reconnect_ns: 100_000,
            max_reconnects: 3,
            canonicalize: false,
            staging_chunk: 0,
            staging_bufs: 2,
            flow_control: false,
            eager_credits: 32,
            pending_cap: 64,
            unexpected_cap: 0,
            audit: false,
        }
    }
}

impl MpiConfig {
    /// Segment size rule of §7.2: below [`Self::multi_seg_threshold`]
    /// one segment; above it at least two, capped at
    /// [`Self::max_seg_size`].
    pub fn segment_size(&self, msg_size: u64) -> u64 {
        if msg_size < self.multi_seg_threshold {
            msg_size.max(1)
        } else {
            self.max_seg_size.min(msg_size.div_ceil(2)).max(1)
        }
    }

    /// Number of segments for a message.
    pub fn segment_count(&self, msg_size: u64) -> u32 {
        if msg_size == 0 {
            1
        } else {
            msg_size.div_ceil(self.segment_size(msg_size)) as u32
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheme_wire_roundtrip() {
        for s in [
            Scheme::Generic,
            Scheme::BcSpup,
            Scheme::RwgUp,
            Scheme::PRrs,
            Scheme::MultiW,
            Scheme::Adaptive,
            Scheme::Hybrid,
        ] {
            assert_eq!(Scheme::from_wire(s.to_wire()), Some(s));
        }
        assert_eq!(Scheme::from_wire(99), None);
    }

    #[test]
    fn small_messages_are_single_segment() {
        let c = MpiConfig::default();
        assert_eq!(c.segment_count(1), 1);
        assert_eq!(c.segment_count(15 * 1024), 1);
        assert_eq!(c.segment_size(8 * 1024), 8 * 1024);
    }

    #[test]
    fn threshold_messages_get_two_segments() {
        let c = MpiConfig::default();
        assert_eq!(c.segment_count(16 * 1024), 2);
        assert_eq!(c.segment_size(16 * 1024), 8 * 1024);
        assert_eq!(c.segment_count(200 * 1024), 2);
    }

    #[test]
    fn large_messages_cap_at_max_segment() {
        let c = MpiConfig::default();
        assert_eq!(c.segment_size(1 << 20), 128 * 1024);
        assert_eq!(c.segment_count(1 << 20), 8);
    }

    #[test]
    fn zero_size_message() {
        let c = MpiConfig::default();
        assert_eq!(c.segment_count(0), 1);
    }
}
