//! Address-space tiers: which memory a virtual address lives in.
//!
//! The simulator's per-rank [`crate::AddressSpace`] is one flat byte
//! range; the device tier (TEMPI's GPU memory, arXiv:2012.14363) is
//! modelled as *ranges of that space marked device-resident* rather
//! than a second backing store — bytes still move for correctness
//! checking, but the cost model routes transfers touching a marked
//! range through DMA bandwidths and staging pipelines instead of the
//! host's element-wise copy.

use crate::addr::Va;

/// Sorted, non-overlapping set of device-resident ranges in one
/// rank's address space. Lookup is a binary search; the set is tiny
/// (one entry per device allocation), so no paging is needed.
#[derive(Debug, Clone, Default)]
pub struct TierMap {
    /// `(start, len)` ranges, sorted by start, coalesced on insert.
    device: Vec<(Va, u64)>,
}

impl TierMap {
    /// An empty map: everything is host memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks `[addr, addr+len)` device-resident. Overlapping or
    /// adjacent ranges coalesce.
    pub fn mark_device(&mut self, addr: Va, len: u64) {
        if len == 0 {
            return;
        }
        let (mut start, mut end) = (addr, addr + len);
        // Absorb every existing range touching [start, end).
        let i = self.device.partition_point(|&(s, l)| s + l < start);
        while i < self.device.len() && self.device[i].0 <= end {
            let (s, l) = self.device.remove(i);
            start = start.min(s);
            end = end.max(s + l);
        }
        self.device.insert(i, (start, end - start));
    }

    /// True when `addr` falls inside a device range.
    pub fn is_device(&self, addr: Va) -> bool {
        let i = self.device.partition_point(|&(s, _)| s <= addr);
        i > 0 && {
            let (s, l) = self.device[i - 1];
            addr < s + l
        }
    }

    /// True when no range is marked (the overwhelmingly common case —
    /// checked first on every hot-path cost decision).
    pub fn is_empty(&self) -> bool {
        self.device.is_empty()
    }

    /// Unmarks everything.
    pub fn clear(&mut self) {
        self.device.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_map_is_all_host() {
        let m = TierMap::new();
        assert!(m.is_empty());
        assert!(!m.is_device(0));
        assert!(!m.is_device(u64::MAX - 1));
    }

    #[test]
    fn marked_range_is_device_with_exclusive_end() {
        let mut m = TierMap::new();
        m.mark_device(4096, 8192);
        assert!(!m.is_device(4095));
        assert!(m.is_device(4096));
        assert!(m.is_device(12287));
        assert!(!m.is_device(12288));
        assert_eq!(m.device, [(4096, 8192)]);
    }

    #[test]
    fn ranges_coalesce_and_clear() {
        let mut m = TierMap::new();
        m.mark_device(0, 100);
        m.mark_device(100, 100); // adjacent
        m.mark_device(50, 200); // overlapping
        m.mark_device(1000, 10);
        assert_eq!(m.device, [(0, 250), (1000, 10)]);
        assert!(m.is_device(249));
        assert!(!m.is_device(250));
        assert!(m.is_device(1005));
        m.clear();
        assert!(m.is_empty());
        assert!(!m.is_device(0));
    }

    #[test]
    fn disjoint_marks_stay_sorted() {
        let mut m = TierMap::new();
        m.mark_device(5000, 10);
        m.mark_device(100, 10);
        m.mark_device(3000, 10);
        for a in [100, 3000, 5000] {
            assert!(m.is_device(a));
            assert!(m.is_device(a + 9));
            assert!(!m.is_device(a + 10));
        }
        assert!(!m.is_device(2000));
        assert_eq!(m.device, [(100, 10), (3000, 10), (5000, 10)]);
    }

    #[test]
    fn zero_length_mark_is_a_no_op() {
        let mut m = TierMap::new();
        m.mark_device(64, 0);
        assert!(m.is_empty());
    }
}
