//! Pre-registered segment buffer pools (§4.2, §7.2).
//!
//! One large buffer is allocated page-aligned and registered once at MPI
//! initialization, then carved into fixed-size segment buffers handed
//! out LIFO (so recently used — cache-warm — buffers are reused first).
//! A message takes its staging buffers through `acquire_seg`, which
//! counts an exhausted pool and falls back to dynamic allocation +
//! on-the-fly registration (`acquire_stage`), the second solution of
//! §4.3.3.

use crate::progress::Ctx;
use crate::rank::RankState;
use ibdt_memreg::cache::Acquire;
use ibdt_memreg::{AddressSpace, MemError, MrHandle, RegTable, Va};
use ibdt_simcore::Shelf;

/// A pack/unpack staging buffer (pool segment or dynamic fallback).
#[derive(Debug, Clone, Copy)]
pub(crate) struct StageBuf {
    pub va: Va,
    pub len: u64,
    pub lkey: u32,
    pub rkey: u32,
    /// True when allocated dynamically (fallback path, §4.3.3).
    pub dynamic: bool,
}

/// A pool of equally sized, pre-registered segment buffers.
#[derive(Debug, Default)]
pub struct SegmentPool {
    seg_size: u64,
    base: Va,
    lkey: u32,
    rkey: u32,
    free: Vec<Va>,
    total: usize,
}

impl SegmentPool {
    /// Places a pool of `total_size / seg_size` segments in `space`:
    /// allocates the backing region page-aligned, registers it, refills
    /// the free list in place (LIFO with the lowest addresses on top).
    /// Construction runs it on an empty pool; world recycling runs it
    /// again against the *reset* space and table, where deterministic
    /// allocation reproduces the base, keys, and free-list order a new
    /// pool of the same sizes gets.
    pub fn reset(
        &mut self,
        space: &mut AddressSpace,
        regs: &mut RegTable,
        total_size: u64,
        seg_size: u64,
    ) -> Result<(), MemError> {
        assert!(seg_size > 0, "segment size must be positive");
        let count = total_size / seg_size;
        let base = space.alloc_page_aligned(count * seg_size)?;
        let reg = regs.register(base, count * seg_size);
        self.seg_size = seg_size;
        self.total = count as usize;
        self.base = base;
        self.lkey = reg.lkey;
        self.rkey = reg.rkey;
        self.free.clear();
        self.free
            .extend((0..count).rev().map(|i| base + i * seg_size));
        Ok(())
    }

    /// Segment size in bytes.
    pub fn seg_size(&self) -> u64 {
        self.seg_size
    }

    /// Local key of the pool registration.
    pub fn lkey(&self) -> u32 {
        self.lkey
    }

    /// Remote key of the pool registration.
    pub fn rkey(&self) -> u32 {
        self.rkey
    }

    /// Takes one segment buffer, or `None` when exhausted.
    pub fn acquire(&mut self) -> Option<Va> {
        self.free.pop()
    }

    /// Returns a segment buffer to the pool.
    pub fn release(&mut self, va: Va) {
        debug_assert!(
            va >= self.base
                && va < self.base + (self.total as u64) * self.seg_size
                && (va - self.base).is_multiple_of(self.seg_size),
            "released address is not a pool segment"
        );
        debug_assert!(!self.free.contains(&va), "double release of pool segment");
        self.free.push(va);
    }

    /// Buffers currently available.
    pub fn available(&self) -> usize {
        self.free.len()
    }

    /// Total buffers in the pool.
    pub fn total(&self) -> usize {
        self.total
    }
}

/// Reusable host-side scratch buffers for the zero-allocation hot
/// path: byte copies (`Vec<u8>`: eager bytes copied out of a receive
/// slot, a local RMA gather), control-message encode buffers (kept
/// apart so a reply copy held for a whole transfer never pins a
/// message-sized buffer), block/SGE lists (`Vec<(Va, u64)>`) and stage
/// buffer lists. Each kind is a [`Shelf`]: buffers are
/// taken, used, and returned; their capacity survives, so steady-state
/// sends stop allocating after the first few messages. Purely
/// host-side — no modelled cost, no effect on the virtual clock.
///
/// A pool lives as long as its rank's state: a recycled cluster keeps
/// it, warm, across runs ([`Self::reset`]), and a freshly built
/// cluster starts with an empty one. `RunStats::scratch_pool` reports
/// each rank pool's counts since construction or the last reset.
#[derive(Debug)]
pub struct ScratchPool {
    bytes: Shelf<Vec<u8>>,
    ctrl: Shelf<Vec<u8>>,
    blocks: Shelf<Vec<(Va, u64)>>,
    stage: Shelf<Vec<StageBuf>>,
}

/// Minimum capacity of a pooled byte buffer (covers every control
/// message wire size).
const MIN_BYTES_CAP: usize = 64;

impl Default for ScratchPool {
    fn default() -> Self {
        Self::new()
    }
}

impl ScratchPool {
    /// Creates an empty scratch pool.
    pub fn new() -> Self {
        Self {
            bytes: Shelf::new(usize::MAX),
            ctrl: Shelf::new(usize::MAX),
            blocks: Shelf::new(usize::MAX),
            stage: Shelf::new(usize::MAX),
        }
    }

    /// Zeroes the reuse/alloc counters, keeping pooled buffers (world
    /// recycling).
    pub fn reset(&mut self) {
        self.bytes.reset_counts();
        self.ctrl.reset_counts();
        self.blocks.reset_counts();
        self.stage.reset_counts();
    }

    /// Takes an empty byte buffer with room for at least `cap` bytes,
    /// reusing a returned buffer's capacity when one is available.
    pub fn take_empty(&mut self, cap: usize) -> Vec<u8> {
        let cap_or_min = cap.max(MIN_BYTES_CAP);
        let mut v = self.bytes.take(|| Vec::with_capacity(cap_or_min));
        if v.capacity() < cap {
            // Round small buffers up so a 27-byte control encode and a
            // 36-byte control receive can share one recycled buffer
            // without regrowing it.
            v.reserve(cap_or_min);
        }
        v
    }

    /// Takes a byte buffer holding a copy of `data`, filled from `data`
    /// directly, never zeroed first.
    pub fn take_copy(&mut self, data: &[u8]) -> Vec<u8> {
        let mut v = self.take_empty(data.len());
        v.extend_from_slice(data);
        v
    }

    /// Takes an empty control-message encode buffer, falling back to a
    /// byte buffer when none was returned yet.
    pub fn take_ctrl(&mut self) -> Vec<u8> {
        match self.ctrl.try_take() {
            Some(v) => v,
            None => self.take_empty(0),
        }
    }

    /// Returns a control-message encode buffer to the pool.
    pub fn put_ctrl(&mut self, v: Vec<u8>) {
        self.ctrl.put(v)
    }

    /// Returns a byte buffer to the pool.
    pub fn put_bytes(&mut self, v: Vec<u8>) {
        self.bytes.put(v)
    }

    /// Takes an empty block/SGE list, reusing returned capacity.
    pub fn take_blocks(&mut self) -> Vec<(Va, u64)> {
        self.blocks.take(Vec::new)
    }

    /// Returns a block/SGE list to the pool.
    pub fn put_blocks(&mut self, v: Vec<(Va, u64)>) {
        self.blocks.put(v)
    }

    /// Takes an empty stage-buffer list, reusing returned capacity.
    pub(crate) fn take_stage(&mut self) -> Vec<StageBuf> {
        self.stage.take(Vec::new)
    }

    /// Returns a stage-buffer list for reuse.
    pub(crate) fn put_stage(&mut self, v: Vec<StageBuf>) {
        self.stage.put(v)
    }

    /// `(reuses, allocs)` summed over every kind.
    fn counts(&self) -> (u64, u64) {
        let each = [
            (self.bytes.reuses(), self.bytes.allocs()),
            (self.blocks.reuses(), self.blocks.allocs()),
            (self.stage.reuses(), self.stage.allocs()),
            (self.ctrl.reuses(), self.ctrl.allocs()),
        ];
        each.iter().fold((0, 0), |(r, a), (x, y)| (r + x, a + y))
    }

    /// Times a take was served from a returned buffer.
    pub fn reuses(&self) -> u64 {
        self.counts().0
    }

    /// Times a take had to allocate fresh.
    pub fn allocs(&self) -> u64 {
        self.counts().1
    }
}

// ---------------------------------------------------------------------
// A message's staging buffers (pool with dynamic fallback, §4.3.3)
// ---------------------------------------------------------------------

/// Takes one segment buffer from the pack (or, when `unpack`, the
/// unpack) pool, falling back to a dynamic buffer when it is exhausted.
pub(crate) fn acquire_seg(rs: &mut RankState, ctx: &mut Ctx<'_, '_>, unpack: bool) -> StageBuf {
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
pub(crate) fn acquire_stage(rs: &mut RankState, ctx: &mut Ctx<'_, '_>, size: u64) -> StageBuf {
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
        Acquire {
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

/// Returns staging buffers: pool segments to the pack (or, when
/// `unpack`, the unpack) pool, dynamic buffers to the freelist after
/// deregistering them.
pub(crate) fn release_stage_bufs(
    rs: &mut RankState,
    ctx: &mut Ctx<'_, '_>,
    bufs: &[StageBuf],
    unpack: bool,
) {
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
                .deregister(MrHandle(sb.lkey))
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

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture(total: u64, seg: u64) -> (AddressSpace, RegTable, SegmentPool) {
        let mut space = AddressSpace::new(1 << 24);
        let mut regs = RegTable::new();
        let mut pool = SegmentPool::default();
        pool.reset(&mut space, &mut regs, total, seg).unwrap();
        (space, regs, pool)
    }

    #[test]
    fn pool_carves_expected_count() {
        let (_, _, pool) = fixture(1 << 20, 128 * 1024);
        assert_eq!(pool.total(), 8);
        assert_eq!(pool.available(), 8);
    }

    #[test]
    fn acquire_release_cycle() {
        let (_, _, mut pool) = fixture(4 * 4096, 4096);
        let a = pool.acquire().unwrap();
        let b = pool.acquire().unwrap();
        assert_ne!(a, b);
        assert_eq!(pool.available(), 2);
        pool.release(a);
        assert_eq!(pool.available(), 3);
        // LIFO: the released buffer comes back first.
        assert_eq!(pool.acquire().unwrap(), a);
    }

    #[test]
    fn exhausted_pool_returns_none() {
        let (_, _, mut pool) = fixture(2 * 4096, 4096);
        assert!(pool.acquire().is_some());
        assert!(pool.acquire().is_some());
        assert!(pool.acquire().is_none());
        assert!(pool.acquire().is_none());
    }

    #[test]
    fn segments_are_disjoint_and_registered() {
        let (_, regs, mut pool) = fixture(8 * 4096, 4096);
        let mut seen = std::collections::HashSet::new();
        while let Some(va) = pool.acquire() {
            assert!(seen.insert(va), "duplicate segment");
            regs.check(pool.lkey(), va, 4096).unwrap();
        }
        assert_eq!(seen.len(), 8);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "not a pool segment")]
    fn release_of_foreign_address_panics_in_debug() {
        let (_, _, mut pool) = fixture(2 * 4096, 4096);
        pool.release(0xDEAD_BEEF);
    }
}

#[cfg(test)]
mod scratch_tests {
    use super::ScratchPool;

    #[test]
    fn bytes_round_trip_reuses_capacity() {
        let mut p = ScratchPool::new();
        let a = p.take_copy(&[7; 64]);
        assert_eq!(a, [7; 64]);
        assert_eq!((p.reuses(), p.allocs()), (0, 1));
        let cap = a.capacity();
        p.put_bytes(a);
        let b = p.take_copy(&[1, 2, 3]);
        assert_eq!(b, [1, 2, 3], "reused buffer holds exactly the copy");
        assert_eq!(b.capacity(), cap, "capacity survives the round trip");
        assert_eq!((p.reuses(), p.allocs()), (1, 1));
    }

    #[test]
    fn blocks_round_trip() {
        let mut p = ScratchPool::new();
        let mut v = p.take_blocks();
        v.push((0x1000, 8));
        p.put_blocks(v);
        let w = p.take_blocks();
        assert!(w.is_empty(), "reused list comes back cleared");
        assert!(w.capacity() >= 1, "capacity survives the round trip");
        assert_eq!((p.reuses(), p.allocs()), (1, 1));
    }

    #[test]
    fn empty_buffers_are_not_pooled() {
        let mut p = ScratchPool::new();
        p.put_bytes(Vec::new());
        p.put_blocks(Vec::new());
        let _ = p.take_copy(&[1]);
        assert_eq!((p.reuses(), p.allocs()), (0, 1));
    }
}
