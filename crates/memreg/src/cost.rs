//! Registration cost model.
//!
//! Registration pins pages and installs translations on the HCA; its cost
//! is well modelled as `base + per_page * pages` (ref \[12\], \[32\]). The
//! page count is computed from the *page span* of the region — a 4-byte
//! buffer straddling a page boundary pins two pages.

use crate::addr::Va;
use ibdt_simcore::time::Time;

/// Cost model for memory registration and deregistration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegCostModel {
    /// Page size in bytes (power of two).
    pub page_size: u64,
    /// Fixed cost of one registration call, ns.
    pub reg_base_ns: Time,
    /// Additional cost per pinned page, ns.
    pub reg_per_page_ns: Time,
    /// Fixed cost of one deregistration call, ns.
    pub dereg_base_ns: Time,
    /// Additional deregistration cost per page, ns.
    pub dereg_per_page_ns: Time,
}

impl Default for RegCostModel {
    /// Defaults calibrated to the paper's testbed (§8.1): registration of
    /// a small buffer ≈ 22 µs, growing by ≈ 250 ns per page;
    /// deregistration is cheaper (≈ 15 µs base).
    fn default() -> Self {
        Self {
            page_size: 4096,
            reg_base_ns: 22_000,
            reg_per_page_ns: 250,
            dereg_base_ns: 15_000,
            dereg_per_page_ns: 50,
        }
    }
}

impl RegCostModel {
    /// Number of pages spanned by `[addr, addr+len)`. Zero-length regions
    /// span zero pages.
    pub fn pages(&self, addr: Va, len: u64) -> u64 {
        if len == 0 {
            return 0;
        }
        let first = addr / self.page_size;
        let last = (addr + len - 1) / self.page_size;
        last - first + 1
    }

    /// Cost of registering `[addr, addr+len)`.
    pub fn reg_cost(&self, addr: Va, len: u64) -> Time {
        self.reg_base_ns + self.reg_per_page_ns * self.pages(addr, len)
    }

    /// Cost of deregistering `[addr, addr+len)`.
    pub fn dereg_cost(&self, addr: Va, len: u64) -> Time {
        self.dereg_base_ns + self.dereg_per_page_ns * self.pages(addr, len)
    }

    /// Combined register + later deregister cost; the quantity OGR's
    /// grouping decision minimizes.
    pub fn round_trip_cost(&self, addr: Va, len: u64) -> Time {
        self.reg_cost(addr, len) + self.dereg_cost(addr, len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> RegCostModel {
        RegCostModel {
            page_size: 4096,
            reg_base_ns: 1000,
            reg_per_page_ns: 10,
            dereg_base_ns: 500,
            dereg_per_page_ns: 5,
        }
    }

    #[test]
    fn page_count_aligned() {
        let m = model();
        assert_eq!(m.pages(0, 4096), 1);
        assert_eq!(m.pages(0, 4097), 2);
        assert_eq!(m.pages(0, 8192), 2);
    }

    #[test]
    fn page_count_straddles_boundary() {
        let m = model();
        // 4 bytes across a page boundary pin 2 pages.
        assert_eq!(m.pages(4094, 4), 2);
        assert_eq!(m.pages(4095, 1), 1);
        assert_eq!(m.pages(4096, 1), 1);
    }

    #[test]
    fn zero_length_spans_no_pages() {
        let m = model();
        assert_eq!(m.pages(123, 0), 0);
        assert_eq!(m.reg_cost(123, 0), 1000);
    }

    #[test]
    fn costs_are_affine_in_pages() {
        let m = model();
        assert_eq!(m.reg_cost(0, 3 * 4096), 1000 + 30);
        assert_eq!(m.dereg_cost(0, 3 * 4096), 500 + 15);
        assert_eq!(m.round_trip_cost(0, 3 * 4096), 1545);
    }

    #[test]
    fn default_model_sane() {
        let d = RegCostModel::default();
        assert!(d.reg_base_ns > d.dereg_base_ns);
        assert!(d.page_size.is_power_of_two());
    }
}
