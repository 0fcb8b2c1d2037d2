//! Cost model configuration.
//!
//! Defaults are calibrated to the paper's testbed (§8.1): dual 2.4 GHz
//! Xeon nodes, Mellanox InfiniHost MT23108 4x HCAs on 133 MHz PCI-X,
//! InfiniScale switch. Anchor points used for calibration:
//!
//! * small-message RDMA write latency ≈ 6 µs end to end,
//! * peak unidirectional bandwidth ≈ 870 MB/s (PCI-X bound),
//! * host memory copy ≈ 0.95 GB/s for large blocks — *comparable to the
//!   network*, which is the premise of the paper's overlap argument,
//! * registration ≈ 22 µs base (Fig. 2's `DT+reg` penalty),
//! * descriptor post ≈ 1 µs (each standard post rings a doorbell over
//!   PCI-X), amortized to ≈ 0.15 µs per descriptor with the extended
//!   list-post interface (Fig. 13 shows 1.2–2.0× bandwidth from this —
//!   "posting descriptor is costly and we expect InfiniBand vendors to
//!   further optimize it", §8.5).

use ibdt_memreg::RegCostModel;
use ibdt_simcore::time::{transfer_ns, Time};

/// Network / HCA timing parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetConfig {
    /// Link bandwidth, bytes per second (decimal).
    pub link_bw_bps: u64,
    /// One-way propagation + switch latency, ns.
    pub prop_delay_ns: Time,
    /// NIC processing per singly-posted work request (doorbell
    /// handling, WQE fetch over PCI-X, packet build, receive-side DMA
    /// setup folded in), ns.
    pub wqe_overhead_ns: Time,
    /// NIC processing per work request posted through the list
    /// interface — one doorbell covers the batch and WQE fetches
    /// pipeline, so the per-WQE cost is much lower (§8.5's motivation
    /// for the extension), ns.
    pub wqe_overhead_list_ns: Time,
    /// Additional NIC gather/scatter cost per SGE beyond the first, ns.
    pub sge_overhead_ns: Time,
    /// CPU cost of posting one descriptor with the standard interface, ns.
    pub post_single_ns: Time,
    /// CPU cost of the first descriptor in a list post, ns.
    pub post_list_first_ns: Time,
    /// CPU cost per additional descriptor in a list post, ns.
    pub post_list_per_ns: Time,
    /// CPU cost of posting a receive descriptor, ns.
    pub post_recv_ns: Time,
    /// Extra latency of an RDMA read versus a write (request round
    /// trip + responder scheduling), ns. §5.2: "RDMA Read performance is
    /// always lower than that of RDMA Write".
    pub rdma_read_extra_ns: Time,
    /// Cost to generate + poll one completion entry, ns.
    pub cqe_ns: Time,
    /// Maximum scatter/gather entries per work request.
    pub max_sge: usize,
    /// Send-queue depth per queue pair: work requests that have been
    /// posted but whose NIC processing has not finished. Posting beyond
    /// this fails like a real verbs `ENOMEM`.
    pub sq_depth: usize,
    /// Transport retry budget: retransmissions attempted after a
    /// transport timeout (lost transfer) or NAK (corrupted transfer)
    /// before the queue pair transitions to the error state, as the
    /// `retry_cnt` QP attribute.
    pub retry_cnt: u32,
    /// RNR retry budget, as the `rnr_retry` QP attribute. The IB value
    /// 7 ([`RNR_RETRY_INFINITE`]) means retry forever — the default, so
    /// a fault-free fabric keeps its classic park-until-posted
    /// behaviour with no timer traffic.
    pub rnr_retry: u32,
    /// Transport timeout: how long the requester waits for an ACK
    /// before retransmitting, ns (the `timeout` QP attribute; real HCAs
    /// use `4.096us * 2^timeout`).
    pub transport_timeout_ns: Time,
    /// First RNR backoff interval, ns; doubles per retry (bounded
    /// exponential backoff).
    pub rnr_backoff_base_ns: Time,
    /// Upper bound of the RNR backoff interval, ns.
    pub rnr_backoff_max_ns: Time,
    /// Automatic Path Migration: when the port carrying a QP's current
    /// path goes down, fail over to the alternate path instead of
    /// erroring the QP (IB spec §17.2.8).
    pub apm_enabled: bool,
    /// Latency of an APM failover: the QP's sends stall this long while
    /// the HCA revalidates the alternate path, ns.
    pub apm_migration_ns: Time,
    /// Completion-queue depth per node. A completion that would push
    /// the outstanding (produced but not yet consumed) entry count past
    /// this bound overflows the CQ: the queue pair transitions to error
    /// and the triggering work request completes with
    /// [`CqOverflow`](crate::CqeStatus::CqOverflow). `usize::MAX` (the
    /// default) means unbounded, reproducing the classic behaviour.
    pub cq_depth: usize,
    /// SRQ-limit-style low watermark on the per-peer receive queues:
    /// when consuming a receive descriptor leaves fewer than this many
    /// posted, the fabric counts a `recv_low_water` event so the upper
    /// layer can replenish credits/buffers before RNR stalls begin.
    /// `0` (the default) disables the watermark.
    pub recv_low_watermark: usize,
}

/// The `rnr_retry` value meaning "retry forever" (IB spec §9.7.5.2.8).
pub const RNR_RETRY_INFINITE: u32 = 7;

impl Default for NetConfig {
    fn default() -> Self {
        Self {
            link_bw_bps: 870_000_000,
            prop_delay_ns: 1_300,
            wqe_overhead_ns: 1_500,
            wqe_overhead_list_ns: 300,
            sge_overhead_ns: 150,
            post_single_ns: 1_000,
            post_list_first_ns: 600,
            post_list_per_ns: 150,
            post_recv_ns: 200,
            rdma_read_extra_ns: 4_000,
            cqe_ns: 200,
            max_sge: 64,
            sq_depth: 4096,
            retry_cnt: 7,
            rnr_retry: RNR_RETRY_INFINITE,
            transport_timeout_ns: 500_000,
            rnr_backoff_base_ns: 20_000,
            rnr_backoff_max_ns: 640_000,
            apm_enabled: true,
            apm_migration_ns: 50_000,
            cq_depth: usize::MAX,
            recv_low_watermark: 0,
        }
    }
}

impl NetConfig {
    /// Wire serialization time for `bytes`.
    pub fn wire_ns(&self, bytes: u64) -> Time {
        transfer_ns(bytes, self.link_bw_bps)
    }

    /// NIC engine occupancy for a WR with `nsge` gather entries and
    /// `bytes` total payload. `batched` selects the list-post WQE cost.
    pub fn tx_ns_batched(&self, nsge: usize, bytes: u64, batched: bool) -> Time {
        let wqe = if batched {
            self.wqe_overhead_list_ns
        } else {
            self.wqe_overhead_ns
        };
        wqe + self.sge_overhead_ns * (nsge.saturating_sub(1)) as u64 + self.wire_ns(bytes)
    }

    /// NIC engine occupancy for a singly-posted WR.
    pub fn tx_ns(&self, nsge: usize, bytes: u64) -> Time {
        self.tx_ns_batched(nsge, bytes, false)
    }

    /// CPU cost of posting `n` descriptors with the list interface.
    pub fn post_list_ns(&self, n: usize) -> Time {
        if n == 0 {
            0
        } else {
            self.post_list_first_ns + self.post_list_per_ns * (n as u64 - 1)
        }
    }

    /// RNR backoff before delivery attempt `attempt` (0-based):
    /// exponential from [`rnr_backoff_base_ns`](Self::rnr_backoff_base_ns),
    /// capped at [`rnr_backoff_max_ns`](Self::rnr_backoff_max_ns).
    pub fn rnr_backoff_ns(&self, attempt: u32) -> Time {
        let exp = self
            .rnr_backoff_base_ns
            .saturating_mul(1u64.checked_shl(attempt).unwrap_or(u64::MAX));
        exp.min(self.rnr_backoff_max_ns).max(1)
    }

    /// True when `rnr_retry` means "retry forever".
    pub fn rnr_infinite(&self) -> bool {
        self.rnr_retry >= RNR_RETRY_INFINITE
    }

    /// [`rnr_backoff_ns`](Self::rnr_backoff_ns) with deterministic
    /// seeded jitter: up to +50% of the undithered interval, derived
    /// from `key` (QP/park identity) and `attempt` through a SplitMix64
    /// finalizer. Without jitter every peer parked by the same incast
    /// doubles in lockstep and the retries return as synchronized
    /// storms; with it the retry times of distinct QPs de-correlate
    /// while identical (key, attempt) pairs — and therefore replayed
    /// runs — stay bit-identical.
    pub fn rnr_backoff_jittered_ns(&self, attempt: u32, key: u64) -> Time {
        let base = self.rnr_backoff_ns(attempt);
        let mut z = key
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(attempt as u64 + 1);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        // Jitter in [0, base/2]: spreads a synchronized cohort across
        // half an interval without ever shortening the backoff.
        base + z % (base / 2 + 1)
    }
}

/// Device address-space timing parameters: the second memory tier of
/// the TEMPI extension (arXiv:2012.14363). A buffer marked
/// device-resident cannot be packed/unpacked element-wise by the CPU
/// at host speed; it moves through DMA transfers whose bandwidth and
/// launch overhead this struct models. Disabled (and absent from
/// every cost) by default, so classic host-only runs stay
/// bit-identical.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceConfig {
    /// Device tier participates in cost modelling. With this `false`
    /// the tier map may still mark ranges, but every transfer is
    /// charged at host rates (the classic paths).
    pub enabled: bool,
    /// Host→device DMA bandwidth, bytes per second.
    pub h2d_bw_bps: u64,
    /// Device→host DMA bandwidth, bytes per second.
    pub d2h_bw_bps: u64,
    /// Fixed cost per DMA launch (descriptor setup, doorbell,
    /// completion), ns. Amortizing this is what makes larger staging
    /// chunks faster until bandwidth saturates — TEMPI's curve shape.
    pub launch_ns: Time,
    /// Extra registration cost for device-resident memory (pinning
    /// through the device driver on top of the host MMU work), ns.
    pub reg_extra_ns: Time,
}

impl Default for DeviceConfig {
    fn default() -> Self {
        // Paper-era PCI-ish DMA engine: faster than the host's 0.95
        // GB/s element-wise copy, slow enough that overlap matters.
        Self {
            enabled: false,
            h2d_bw_bps: 2_000_000_000,
            d2h_bw_bps: 1_900_000_000,
            launch_ns: 4_000,
            reg_extra_ns: 15_000,
        }
    }
}

/// Typed [`HostConfig`] validation failure: rejected at cluster
/// construction instead of surfacing as a division-by-zero (or an
/// infinite virtual transfer) deep in the cost model. Bandwidth
/// fields are `u64`, so negative rates are unrepresentable by
/// construction; zero is the degenerate case this guards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostConfigError {
    /// `copy_bw_bps` is zero.
    ZeroCopyBandwidth,
    /// The device tier is enabled with a zero host→device bandwidth.
    ZeroH2dBandwidth,
    /// The device tier is enabled with a zero device→host bandwidth.
    ZeroD2hBandwidth,
}

impl std::fmt::Display for HostConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HostConfigError::ZeroCopyBandwidth => {
                write!(f, "HostConfig.copy_bw_bps must be positive")
            }
            HostConfigError::ZeroH2dBandwidth => write!(
                f,
                "HostConfig.device.h2d_bw_bps must be positive when the device tier is enabled"
            ),
            HostConfigError::ZeroD2hBandwidth => write!(
                f,
                "HostConfig.device.d2h_bw_bps must be positive when the device tier is enabled"
            ),
        }
    }
}

impl std::error::Error for HostConfigError {}

/// Host-side timing parameters (copies, datatype processing, malloc).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostConfig {
    /// Large-block memory copy bandwidth, bytes per second.
    pub copy_bw_bps: u64,
    /// Fixed cost per contiguous block copied (loop overhead, cache-line
    /// fill, datatype element dispatch), ns. This term is why packing a
    /// column of 4-byte elements is far slower than a dense memcpy
    /// (§3.2 observation 1).
    pub copy_block_overhead_ns: Time,
    /// Datatype processing cost per contiguous block (stack advance in
    /// the dataloop engine), ns.
    pub dt_proc_block_ns: Time,
    /// Cost of a dynamic buffer allocation (malloc + first-touch page
    /// faults, ref \[7\]), ns.
    pub malloc_ns: Time,
    /// Cost of freeing a dynamic buffer, ns.
    pub free_ns: Time,
    /// Registration cost model.
    pub reg: RegCostModel,
    /// Device address-space tier (off by default).
    pub device: DeviceConfig,
}

impl Default for HostConfig {
    fn default() -> Self {
        Self {
            copy_bw_bps: 950_000_000,
            copy_block_overhead_ns: 60,
            dt_proc_block_ns: 25,
            malloc_ns: 3_000,
            free_ns: 1_000,
            reg: RegCostModel::default(),
            device: DeviceConfig::default(),
        }
    }
}

impl HostConfig {
    /// CPU time to copy `bytes` spread over `blocks` contiguous blocks
    /// (a pack or unpack of that shape).
    pub fn copy_ns(&self, blocks: usize, bytes: u64) -> Time {
        (self.copy_block_overhead_ns + self.dt_proc_block_ns) * blocks as u64
            + transfer_ns(bytes, self.copy_bw_bps)
    }

    /// CPU time for a plain dense copy.
    pub fn memcpy_ns(&self, bytes: u64) -> Time {
        self.copy_ns(1, bytes)
    }

    /// One DMA transfer of `bytes` across the host↔device boundary
    /// (`to_device` selects the direction's bandwidth), launch
    /// overhead included. Only meaningful with the tier enabled and
    /// validated.
    pub fn dma_ns(&self, bytes: u64, to_device: bool) -> Time {
        let bw = if to_device {
            self.device.h2d_bw_bps
        } else {
            self.device.d2h_bw_bps
        };
        self.device.launch_ns + transfer_ns(bytes, bw)
    }

    /// Rejects configurations whose cost model would divide by zero.
    pub fn validate(&self) -> Result<(), HostConfigError> {
        if self.copy_bw_bps == 0 {
            return Err(HostConfigError::ZeroCopyBandwidth);
        }
        if self.device.enabled {
            if self.device.h2d_bw_bps == 0 {
                return Err(HostConfigError::ZeroH2dBandwidth);
            }
            if self.device.d2h_bw_bps == 0 {
                return Err(HostConfigError::ZeroD2hBandwidth);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_time_matches_bandwidth() {
        let c = NetConfig::default();
        // 870 KB at 870 MB/s = 1 ms.
        assert_eq!(c.wire_ns(870_000), 1_000_000);
        // 870 bytes at 870 MB/s = 1 µs.
        assert_eq!(c.wire_ns(870), 1_000);
    }

    #[test]
    fn tx_accounts_for_sges() {
        let c = NetConfig::default();
        let one = c.tx_ns(1, 0);
        let four = c.tx_ns(4, 0);
        assert_eq!(four - one, 3 * c.sge_overhead_ns);
    }

    #[test]
    fn list_post_cheaper_than_single() {
        let c = NetConfig::default();
        for n in [1usize, 2, 16, 128] {
            assert!(c.post_list_ns(n) <= c.post_single_ns * n as u64);
        }
        assert_eq!(c.post_list_ns(0), 0);
        assert!(c.post_list_ns(1) <= c.post_single_ns);
    }

    #[test]
    fn batched_wqes_are_cheaper_on_the_nic() {
        let c = NetConfig::default();
        assert!(c.tx_ns_batched(1, 4096, true) < c.tx_ns_batched(1, 4096, false));
        assert_eq!(
            c.tx_ns_batched(1, 4096, false) - c.tx_ns_batched(1, 4096, true),
            c.wqe_overhead_ns - c.wqe_overhead_list_ns
        );
    }

    #[test]
    fn rnr_backoff_grows_and_caps() {
        let c = NetConfig::default();
        assert_eq!(c.rnr_backoff_ns(0), c.rnr_backoff_base_ns);
        assert_eq!(c.rnr_backoff_ns(1), 2 * c.rnr_backoff_base_ns);
        assert!(c.rnr_backoff_ns(3) > c.rnr_backoff_ns(2));
        assert_eq!(c.rnr_backoff_ns(30), c.rnr_backoff_max_ns);
        assert_eq!(c.rnr_backoff_ns(63), c.rnr_backoff_max_ns);
        // Shift overflow saturates instead of wrapping.
        assert_eq!(c.rnr_backoff_ns(200), c.rnr_backoff_max_ns);
        assert!(c.rnr_infinite());
        let mut f = c.clone();
        f.rnr_retry = 3;
        assert!(!f.rnr_infinite());
    }

    #[test]
    fn rnr_jitter_is_deterministic_bounded_and_decorrelated() {
        let c = NetConfig::default();
        for attempt in [0u32, 1, 3, 9] {
            let base = c.rnr_backoff_ns(attempt);
            for key in [1u64, 7, 0xABCD, u64::MAX] {
                let j = c.rnr_backoff_jittered_ns(attempt, key);
                // Deterministic per (key, attempt), never below the
                // undithered backoff, at most +50%.
                assert_eq!(j, c.rnr_backoff_jittered_ns(attempt, key));
                assert!(j >= base && j <= base + base / 2, "jitter {j} base {base}");
            }
        }
        // Distinct QPs parked at the same attempt must not retry in
        // lockstep: a cohort of 16 keys spreads over >1 distinct time.
        let spread: std::collections::BTreeSet<_> = (0..16u64)
            .map(|k| c.rnr_backoff_jittered_ns(0, k))
            .collect();
        assert!(spread.len() > 8, "cohort collapsed to {:?}", spread);
    }

    #[test]
    fn validate_accepts_defaults_and_rejects_zero_bandwidth() {
        assert_eq!(HostConfig::default().validate(), Ok(()));
        let h = HostConfig {
            copy_bw_bps: 0,
            ..HostConfig::default()
        };
        assert_eq!(h.validate(), Err(HostConfigError::ZeroCopyBandwidth));
        // Device bandwidths are only checked once the tier is enabled.
        let mut h = HostConfig::default();
        h.device.h2d_bw_bps = 0;
        assert_eq!(h.validate(), Ok(()));
        h.device.enabled = true;
        assert_eq!(h.validate(), Err(HostConfigError::ZeroH2dBandwidth));
        h.device.h2d_bw_bps = 1;
        h.device.d2h_bw_bps = 0;
        assert_eq!(h.validate(), Err(HostConfigError::ZeroD2hBandwidth));
        h.device.d2h_bw_bps = 1;
        assert_eq!(h.validate(), Ok(()));
    }

    #[test]
    fn dma_amortizes_launch_overhead_with_chunk_size() {
        let mut h = HostConfig::default();
        h.device.enabled = true;
        // ns-per-byte falls as chunks grow (launch amortization) and
        // approaches the bandwidth floor.
        let per_byte = |c: u64| h.dma_ns(c, true) as f64 / c as f64;
        assert!(per_byte(4096) > per_byte(65536));
        assert!(per_byte(65536) > per_byte(4 << 20));
        let floor = 1e9 / h.device.h2d_bw_bps as f64;
        assert!((per_byte(4 << 20) - floor) / floor < 0.02);
    }

    #[test]
    fn copy_cost_penalizes_small_blocks() {
        let h = HostConfig::default();
        let dense = h.copy_ns(1, 64 * 1024);
        let ragged = h.copy_ns(16 * 1024, 64 * 1024); // 4-byte blocks
        assert!(ragged > 5 * dense, "ragged {ragged} dense {dense}");
    }

    #[test]
    fn copy_vs_network_comparable() {
        // The paper's premise: memory copy bandwidth is comparable to
        // link bandwidth (within ~2x).
        let h = HostConfig::default();
        let n = NetConfig::default();
        let copy = h.memcpy_ns(1 << 20) as f64;
        let wire = n.wire_ns(1 << 20) as f64;
        let ratio = copy / wire;
        assert!((0.5..2.0).contains(&ratio), "ratio {ratio}");
    }
}
