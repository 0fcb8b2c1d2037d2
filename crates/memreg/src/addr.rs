//! Per-rank flat address spaces.
//!
//! Each simulated process owns an [`AddressSpace`]: a flat byte array
//! addressed by [`Va`] (virtual address). Every copy the schemes perform
//! — packing, RDMA placement, unpacking — really moves bytes here, so an
//! incorrect protocol produces observably wrong data, not just wrong
//! timings.
//!
//! Allocation is a bump allocator with alignment; benchmarks that model
//! "a fresh buffer every iteration" (Fig. 14) simply keep allocating.
//!
//! # Backing-store recycling
//!
//! Spaces are hundreds of megabytes of *virtual* memory but touch only
//! a sliver of it. A fresh `vec![0; cap]` is a lazy `mmap`, so every
//! byte the simulation writes pays a first-touch page fault, and a
//! space built anew for each cluster pays the whole fault bill again.
//! A space therefore keeps a **dirty page bitmap** (one bit per 4 KiB
//! page, maintained by every mutable access), and
//! [`AddressSpace::reset`] re-zeroes exactly the dirty pages of the
//! warm, already faulted-in buffer. Observable behaviour is identical
//! to a fresh zeroed allocation: the bitmap is exactly the set of pages
//! that can differ from zero. The space keeps no pool of its own; its
//! owner decides when a space is reset rather than dropped (in the
//! simulator, the retired-cluster spare of `mpicore`).
//!
//! # Slot window
//!
//! A rank's eager receive ring is `slots per peer × peers` fixed-size
//! slots, but few of them hold a live message at once: a slot's bytes
//! are live from the NIC's delivery until the descriptor is reposted,
//! by which time they have been copied out. Flat backing would still
//! fault in every slot the FIFO ring reaches, and a reset would
//! re-zero all of it. [`AddressSpace::set_slot_window`] therefore
//! marks the ring `[lo, lo+len)` as `slot`-byte slots served from a
//! small per-space pool of slot-sized **frames**:
//!
//! * the first write to a slot binds a frame (a pooled one, or a new
//!   one when the pool is empty);
//! * a read of an unbound slot sees the window's flat bytes, which
//!   nothing writes, so it reads zero exactly as fresh memory does;
//! * [`AddressSpace::release`] zeroes the bytes written into the
//!   slot's frame and returns the frame to the pool;
//!   [`AddressSpace::reset`] does the same for every bound frame and
//!   removes the window. Pooled frames stay with the space, so a
//!   recycled cluster allocates none; a dropped space frees them.
//!
//! Addresses are unchanged — only the host backing differs — so the
//! pool's size follows messages in flight, not the slot count or the
//! run length ([`AddressSpace::slot_frames`]). Every access overlapping
//! the window must lie inside one slot, since a frame is one buffer: a
//! straddling access trips a debug assertion and otherwise fails with
//! [`MemError::SlotStraddle`]. Bytes zeroed by `release` and `reset`
//! count in [`AddressSpace::zeroed`], next to the dirty pages a reset
//! re-zeroes.

use crate::error::MemError;

/// A virtual address inside one rank's [`AddressSpace`].
pub type Va = u64;

/// Dirty-tracking granularity (one page).
const PAGE: u64 = 4096;
/// Flat byte memory for one simulated rank.
#[derive(Debug)]
pub struct AddressSpace {
    mem: Vec<u8>,
    brk: u64,
    /// One bit per page; set when a mutable access may have written
    /// the page. Exact (no over-approximation), so a reset re-zeroes
    /// only bytes that were really reachable by a write.
    dirty: Vec<u64>,
    /// Bytes zeroed since construction or the last reset, that
    /// reset's own zeroing included.
    zeroed: u64,
    /// The slot window and its frame pool (see the module docs).
    win: SlotWindow,
}

/// A slot-sized buffer backing one bound slot of the window.
#[derive(Debug)]
struct Frame {
    bytes: Box<[u8]>,
    /// `[lo, hi)`: the bytes written since the frame was bound, the
    /// only ones that can be non-zero (empty when `hi == 0`).
    lo: usize,
    hi: usize,
}

impl Frame {
    fn touch(&mut self, off: usize, len: usize) {
        if len == 0 {
            return;
        }
        if self.hi == 0 {
            (self.lo, self.hi) = (off, off + len);
        } else {
            (self.lo, self.hi) = (self.lo.min(off), self.hi.max(off + len));
        }
    }

    /// Zeroes the written bytes and returns how many there were.
    fn scrub(&mut self) -> u64 {
        self.bytes[self.lo..self.hi].fill(0);
        let n = (self.hi - self.lo) as u64;
        (self.lo, self.hi) = (0, 0);
        n
    }
}

/// `[lo, hi)` cut into `slot`-byte slots, each bound to a frame or not.
/// Without a window `lo == hi == 0`.
#[derive(Debug, Default)]
struct SlotWindow {
    lo: Va,
    hi: Va,
    slot: u64,
    /// Per slot: index into `frames` plus one, or 0 while unbound.
    bound: Vec<u32>,
    /// Every frame the space has allocated, bound or pooled.
    frames: Vec<Frame>,
    /// Indices of the pooled (unbound, all-zero) frames.
    free: Vec<u32>,
}

impl SlotWindow {
    /// Slot index and offset of `[addr, addr+len)` when it overlaps
    /// the window, `None` when it lies wholly outside.
    #[inline]
    fn locate(&self, addr: Va, len: u64) -> Result<Option<(usize, usize)>, MemError> {
        if len == 0 || addr >= self.hi || addr + len <= self.lo {
            return Ok(None);
        }
        let rel = addr.wrapping_sub(self.lo);
        let inside = addr >= self.lo && rel % self.slot + len <= self.slot;
        debug_assert!(
            inside,
            "access [{addr:#x}, +{len}) straddles a {}-byte slot of the window [{:#x}, {:#x})",
            self.slot, self.lo, self.hi
        );
        if !inside {
            return Err(MemError::SlotStraddle { addr, len });
        }
        Ok(Some((
            (rel / self.slot) as usize,
            (rel % self.slot) as usize,
        )))
    }

    /// Index of `slot`'s frame, if bound.
    fn frame(&self, slot: usize) -> Option<usize> {
        self.bound[slot].checked_sub(1).map(|f| f as usize)
    }

    /// Index of `slot`'s frame after recording a write of
    /// `[off, off+len)` into it, binding one first if the slot has none.
    fn bind(&mut self, slot: usize, off: usize, len: usize) -> usize {
        let f = match self.frame(slot) {
            Some(f) => f,
            None => {
                let f = self.free.pop().unwrap_or_else(|| {
                    self.frames.push(Frame {
                        bytes: vec![0; self.slot as usize].into_boxed_slice(),
                        lo: 0,
                        hi: 0,
                    });
                    (self.frames.len() - 1) as u32
                });
                self.bound[slot] = f + 1;
                f as usize
            }
        };
        self.frames[f].touch(off, len);
        f
    }

    /// Scrubs `slot`'s frame, if bound, back into the pool; returns
    /// the bytes zeroed.
    fn unbind(&mut self, slot: usize) -> u64 {
        match std::mem::take(&mut self.bound[slot]).checked_sub(1) {
            Some(f) => {
                self.free.push(f);
                self.frames[f as usize].scrub()
            }
            None => 0,
        }
    }

    /// Unbinds every slot and removes the window, keeping the frames
    /// pooled; returns the bytes zeroed.
    fn clear(&mut self) -> u64 {
        let zeroed = (0..self.bound.len()).map(|s| self.unbind(s)).sum();
        self.bound.clear();
        (self.lo, self.hi) = (0, 0);
        zeroed
    }
}

/// A read view of `v[r..r+rn]` and a write view of `v[w..w+wn]`, which
/// must not overlap (an empty view overlaps nothing).
fn split_views<T>(v: &mut [T], r: usize, rn: usize, w: usize, wn: usize) -> (&[T], &mut [T]) {
    if rn == 0 {
        (&[], &mut v[w..w + wn])
    } else if wn == 0 {
        (&v[r..r + rn], &mut [])
    } else if r + rn <= w {
        let (a, b) = v.split_at_mut(w);
        (&a[r..r + rn], &mut b[..wn])
    } else {
        let (a, b) = v.split_at_mut(r);
        (&b[..rn], &mut a[w..w + wn])
    }
}

/// Bitmap words needed for `capacity` bytes of pages.
fn bitmap_words(capacity: u64) -> usize {
    (capacity.div_ceil(PAGE) as usize).div_ceil(64)
}

/// Zeroes the bytes of `[lo, hi)` on dirty pages and clears the bits
/// of the pages it covers whole; returns the bytes zeroed.
fn zero_dirty(mem: &mut [u8], dirty: &mut [u64], lo: u64, hi: u64) -> u64 {
    let hi = hi.min(mem.len() as u64);
    if lo >= hi {
        return 0;
    }
    let (first, last) = (lo / PAGE, (hi - 1) / PAGE);
    let mut zeroed = 0u64;
    let w0 = (first / 64) as usize;
    for (w, bits) in dirty[w0..=(last / 64) as usize].iter_mut().enumerate() {
        let mut word = *bits;
        while word != 0 {
            let bit = word.trailing_zeros() as u64;
            word &= word - 1;
            let page = (w0 + w) as u64 * 64 + bit;
            if page < first || page > last {
                continue;
            }
            let (plo, phi) = (page * PAGE, (page * PAGE + PAGE).min(mem.len() as u64));
            let (a, b) = (plo.max(lo), phi.min(hi));
            mem[a as usize..b as usize].fill(0);
            zeroed += b - a;
            if (a, b) == (plo, phi) {
                *bits &= !(1 << bit);
            }
        }
    }
    zeroed
}

impl AddressSpace {
    /// Creates an address space of `capacity` bytes, zero-initialized.
    ///
    /// Address 0 is reserved (never returned by [`Self::alloc`]) so that
    /// 0 can be used as a null address in protocol messages.
    pub fn new(capacity: u64) -> Self {
        Self {
            mem: vec![0u8; capacity as usize],
            brk: 64, // reserve a null guard region
            dirty: vec![0u64; bitmap_words(capacity)],
            zeroed: 0,
            win: SlotWindow::default(),
        }
    }

    /// Returns the space to its just-constructed state in place, on
    /// the same buffer: dirty pages re-zeroed, bump pointer back at the
    /// null guard. Every bound slot frame is scrubbed back into the
    /// frame pool and the slot window is removed. Observable contents
    /// afterwards are all-zero, as from a fresh space;
    /// [`Self::zeroed`] restarts at the bytes this reset zeroed.
    pub fn reset(&mut self) {
        let capacity = self.mem.len() as u64;
        self.zeroed = zero_dirty(&mut self.mem, &mut self.dirty, 0, capacity) + self.win.clear();
        self.brk = 64;
    }

    /// Bytes zeroed since construction or the last [`Self::reset`]
    /// (whose own zeroing counts): dirty pages a reset re-zeroed, plus
    /// the bytes [`Self::release`], [`Self::reset`] and
    /// [`Self::set_slot_window`] scrubbed.
    pub fn zeroed(&self) -> u64 {
        self.zeroed
    }

    /// Records that `[addr, addr+len)` may have been written by
    /// setting the covered pages' bits. Bounds were validated by the
    /// caller.
    fn mark_dirty(&mut self, addr: Va, len: u64) {
        if len == 0 {
            return;
        }
        let first = addr / PAGE;
        let last = (addr + len - 1) / PAGE;
        let (fw, fb) = ((first / 64) as usize, first % 64);
        let (lw, lb) = ((last / 64) as usize, last % 64);
        if fw == lw {
            self.dirty[fw] |= (!0u64 << fb) & (!0u64 >> (63 - lb));
        } else {
            self.dirty[fw] |= !0u64 << fb;
            for w in &mut self.dirty[fw + 1..lw] {
                *w = !0;
            }
            self.dirty[lw] |= !0u64 >> (63 - lb);
        }
    }

    /// Serves `[lo, lo+len)` as `slot`-byte slots from the frame pool
    /// (see the module docs), replacing any earlier window. Dirty flat
    /// bytes under the window are zeroed first, so an unbound slot
    /// reads zero. Panics unless `slot` is non-zero and divides `len`.
    pub fn set_slot_window(&mut self, lo: Va, len: u64, slot: u64) -> Result<(), MemError> {
        self.check(lo, len)?;
        assert!(
            slot > 0 && len.is_multiple_of(slot),
            "slot window of {len} bytes is not a whole number of {slot}-byte slots"
        );
        let mut zeroed = self.win.clear();
        if self.win.slot != slot {
            self.win.frames.clear();
            self.win.free.clear();
        }
        zeroed += zero_dirty(&mut self.mem, &mut self.dirty, lo, lo + len);
        self.zeroed += zeroed;
        let w = &mut self.win;
        (w.lo, w.hi, w.slot) = (lo, lo + len, slot);
        w.bound.resize((len / slot) as usize, 0);
        Ok(())
    }

    /// Returns the frame of the slot holding `va` to the pool, zeroing
    /// the bytes written into it: the slot reads zero again. A no-op
    /// for an unbound slot; `va` must lie inside the slot window.
    pub fn release(&mut self, va: Va) {
        let w = &mut self.win;
        debug_assert!(
            (w.lo..w.hi).contains(&va),
            "release of {va:#x} outside the slot window [{:#x}, {:#x})",
            w.lo,
            w.hi
        );
        if (w.lo..w.hi).contains(&va) {
            self.zeroed += w.unbind(((va - w.lo) / w.slot) as usize);
        }
    }

    /// `(bound, pooled)` slot frames. Frames are allocated only when
    /// the pool is empty, so their sum is the peak number ever bound
    /// at once by this space.
    pub fn slot_frames(&self) -> (usize, usize) {
        let w = &self.win;
        (w.frames.len() - w.free.len(), w.free.len())
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.mem.len() as u64
    }

    /// Bytes still available to the allocator.
    pub fn remaining(&self) -> u64 {
        self.capacity() - self.brk
    }

    /// Allocates `len` bytes aligned to `align` (a power of two).
    pub fn alloc(&mut self, len: u64, align: u64) -> Result<Va, MemError> {
        debug_assert!(align.is_power_of_two(), "alignment must be a power of two");
        let base = (self.brk + align - 1) & !(align - 1);
        let end = base.checked_add(len).ok_or(MemError::OutOfMemory {
            requested: len,
            remaining: self.remaining(),
        })?;
        if end > self.capacity() {
            return Err(MemError::OutOfMemory {
                requested: len,
                remaining: self.remaining(),
            });
        }
        self.brk = end;
        Ok(base)
    }

    /// Allocates `len` bytes page-aligned (4 KiB).
    pub fn alloc_page_aligned(&mut self, len: u64) -> Result<Va, MemError> {
        self.alloc(len, 4096)
    }

    fn check(&self, addr: Va, len: u64) -> Result<(), MemError> {
        let end = addr.checked_add(len).ok_or(MemError::OutOfBounds {
            addr,
            len,
            capacity: self.capacity(),
        })?;
        if end > self.capacity() {
            return Err(MemError::OutOfBounds {
                addr,
                len,
                capacity: self.capacity(),
            });
        }
        Ok(())
    }

    /// Immutable view of `[addr, addr+len)`. A view overlapping the
    /// slot window must lie inside one slot.
    pub fn slice(&self, addr: Va, len: u64) -> Result<&[u8], MemError> {
        self.check(addr, len)?;
        if let Some((slot, off)) = self.win.locate(addr, len)? {
            if let Some(f) = self.win.frame(slot) {
                return Ok(&self.win.frames[f].bytes[off..off + len as usize]);
            }
        }
        Ok(&self.mem[addr as usize..(addr + len) as usize])
    }

    /// Mutable view of `[addr, addr+len)`. A view overlapping the slot
    /// window must lie inside one slot, and binds it a frame.
    ///
    /// Conservatively marks the whole range dirty — keep views as
    /// narrow as the write actually needs, or a reset pays to
    /// re-zero bytes that were never touched.
    pub fn slice_mut(&mut self, addr: Va, len: u64) -> Result<&mut [u8], MemError> {
        self.check(addr, len)?;
        if let Some((slot, off)) = self.win.locate(addr, len)? {
            let f = self.win.bind(slot, off, len as usize);
            return Ok(&mut self.win.frames[f].bytes[off..off + len as usize]);
        }
        self.mark_dirty(addr, len);
        Ok(&mut self.mem[addr as usize..(addr + len) as usize])
    }

    /// A read view of `[src, src+src_len)` and a write view of
    /// `[dst, dst+dst_len)` at once, so bytes move between two ranges
    /// of one space with no bounce buffer. Each view obeys the rules
    /// of [`Self::slice`] and [`Self::slice_mut`]: bounds, the slot
    /// window (a slot range is served from its frame or refused with
    /// [`MemError::SlotStraddle`]) and dirty marking of the write view,
    /// exactly as a [`Self::write`] of that range. Overlapping ranges
    /// fail with [`MemError::Overlap`].
    pub fn slice_pair(
        &mut self,
        src: Va,
        src_len: u64,
        dst: Va,
        dst_len: u64,
    ) -> Result<(&[u8], &mut [u8]), MemError> {
        self.check(src, src_len)?;
        self.check(dst, dst_len)?;
        if src_len > 0 && dst_len > 0 && src < dst + dst_len && dst < src + src_len {
            return Err(MemError::Overlap {
                read: src,
                write: dst,
            });
        }
        let read_slot = self.win.locate(src, src_len)?;
        let write_slot = self.win.locate(dst, dst_len)?;
        let (s, sn, d, dn) = (
            src as usize,
            src_len as usize,
            dst as usize,
            dst_len as usize,
        );
        // Bind the write's frame first, so a read of the same slot sees it.
        let write_frame = match write_slot {
            Some((slot, off)) => Some((self.win.bind(slot, off, dn), off)),
            None => {
                self.mark_dirty(dst, dst_len);
                None
            }
        };
        let read_frame = read_slot.and_then(|(slot, off)| Some((self.win.frame(slot)?, off)));
        let frames = &mut self.win.frames;
        Ok(match (read_frame, write_frame) {
            (None, None) => split_views(&mut self.mem, s, sn, d, dn),
            (Some((f, ro)), None) => (&frames[f].bytes[ro..ro + sn], &mut self.mem[d..d + dn]),
            (None, Some((f, wo))) => (&self.mem[s..s + sn], &mut frames[f].bytes[wo..wo + dn]),
            (Some((fr, ro)), Some((fw, wo))) if fr == fw => {
                split_views(&mut frames[fw].bytes, ro, sn, wo, dn)
            }
            (Some((fr, ro)), Some((fw, wo))) => {
                let (r, w) = split_views(frames, fr, 1, fw, 1);
                (&r[0].bytes[ro..ro + sn], &mut w[0].bytes[wo..wo + dn])
            }
        })
    }

    /// Copies `data` into memory at `addr`.
    pub fn write(&mut self, addr: Va, data: &[u8]) -> Result<(), MemError> {
        self.slice_mut(addr, data.len() as u64)?
            .copy_from_slice(data);
        Ok(())
    }

    /// Reads `len` bytes starting at `addr` into a fresh vector.
    pub fn read(&self, addr: Va, len: u64) -> Result<Vec<u8>, MemError> {
        Ok(self.slice(addr, len)?.to_vec())
    }

    /// Copies `len` bytes within this address space. The regions must
    /// not overlap ([`MemError::Overlap`]) unless they are the same
    /// region, which is a no-op write.
    pub fn copy_within(&mut self, src: Va, dst: Va, len: u64) -> Result<(), MemError> {
        if src == dst {
            self.slice_mut(dst, len)?;
            return Ok(());
        }
        let (from, to) = self.slice_pair(src, len, dst, len)?;
        to.copy_from_slice(from);
        Ok(())
    }

    /// Fills `[addr, addr+len)` with `byte`.
    pub fn fill(&mut self, addr: Va, len: u64, byte: u8) -> Result<(), MemError> {
        self.slice_mut(addr, len)?.fill(byte);
        Ok(())
    }
}

/// Copies bytes between two address spaces — the functional half of an
/// RDMA operation. `src` and `dst` may belong to different ranks.
pub fn copy_between(
    src: &AddressSpace,
    src_addr: Va,
    dst: &mut AddressSpace,
    dst_addr: Va,
    len: u64,
) -> Result<(), MemError> {
    let data = src.slice(src_addr, len)?;
    dst.slice_mut(dst_addr, len)?.copy_from_slice(data);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_respects_alignment() {
        let mut a = AddressSpace::new(1 << 20);
        let p = a.alloc(10, 1).unwrap();
        assert!(p >= 64, "null guard respected");
        let q = a.alloc(10, 4096).unwrap();
        assert_eq!(q % 4096, 0);
        assert!(q > p);
    }

    #[test]
    fn alloc_exhaustion_errors() {
        let mut a = AddressSpace::new(1024);
        assert!(a.alloc(512, 1).is_ok());
        let err = a.alloc(1024, 1).unwrap_err();
        assert!(matches!(err, MemError::OutOfMemory { .. }));
    }

    #[test]
    fn read_write_roundtrip() {
        let mut a = AddressSpace::new(4096);
        let p = a.alloc(16, 8).unwrap();
        a.write(p, &[1, 2, 3, 4]).unwrap();
        assert_eq!(a.read(p, 4).unwrap(), vec![1, 2, 3, 4]);
        // untouched memory is zero
        assert_eq!(a.read(p + 4, 4).unwrap(), vec![0; 4]);
    }

    #[test]
    fn out_of_bounds_access_rejected() {
        let a = AddressSpace::new(128);
        assert!(matches!(
            a.slice(120, 16).unwrap_err(),
            MemError::OutOfBounds { .. }
        ));
        // overflow-proof
        assert!(a.slice(u64::MAX - 4, 8).is_err());
    }

    #[test]
    fn copy_within_moves_bytes() {
        let mut a = AddressSpace::new(4096);
        let p = a.alloc(64, 8).unwrap();
        a.write(p, b"hello").unwrap();
        a.copy_within(p, p + 32, 5).unwrap();
        assert_eq!(a.read(p + 32, 5).unwrap(), b"hello");
    }

    #[test]
    fn copy_between_spaces() {
        let mut a = AddressSpace::new(4096);
        let mut b = AddressSpace::new(4096);
        let pa = a.alloc(8, 8).unwrap();
        let pb = b.alloc(8, 8).unwrap();
        a.write(pa, &[9; 8]).unwrap();
        copy_between(&a, pa, &mut b, pb, 8).unwrap();
        assert_eq!(b.read(pb, 8).unwrap(), vec![9; 8]);
    }

    #[test]
    fn fill_sets_bytes() {
        let mut a = AddressSpace::new(4096);
        let p = a.alloc(32, 8).unwrap();
        a.fill(p, 32, 0xAB).unwrap();
        assert_eq!(a.read(p, 32).unwrap(), vec![0xAB; 32]);
    }

    /// A reset backing store must be indistinguishable from a fresh
    /// zeroed allocation, whatever the previous tenant wrote through
    /// (write, fill, copy_within, raw slice_mut).
    #[test]
    fn recycled_space_reads_all_zero() {
        let cap = 1u64 << 20;
        let mut a = AddressSpace::new(cap);
        a.write(100, &[0xFF; 64]).unwrap();
        a.fill(8192, 4096, 0xEE).unwrap();
        a.copy_within(100, cap - 200, 64).unwrap();
        a.slice_mut(500_000, 10).unwrap().fill(0xDD);
        a.reset();
        assert!(
            a.slice(0, cap).unwrap().iter().all(|&x| x == 0),
            "recycled space leaked previous contents"
        );
        assert_eq!(a.alloc(8, 8).unwrap(), 64, "bump pointer back at the guard");
    }

    #[test]
    fn recycling_reuses_buffers_and_zeroes_only_dirty_pages() {
        let cap = (1u64 << 20) + 12_288;
        let mut a = AddressSpace::new(cap);
        let buffer = a.mem.as_ptr();
        let mut zeroed = 0;
        for i in 0..5u64 {
            if i > 0 {
                a.reset();
                zeroed += a.zeroed();
            }
            a.write(4096 * i, &[1; 100]).unwrap();
        }
        assert_eq!(a.mem.as_ptr(), buffer, "every tenant shares one buffer");
        // Each reset re-zeroed one dirty page, not the whole megabyte.
        assert_eq!(zeroed, 4 * PAGE);
    }

    /// A space with a six-slot window of 4000-byte slots at 10_000
    /// (neither end page-aligned).
    fn windowed() -> AddressSpace {
        let mut a = AddressSpace::new(64 << 10);
        a.set_slot_window(10_000, 6 * 4000, 4000).unwrap();
        a
    }

    #[test]
    fn slot_frames_bind_on_write_and_return_on_release() {
        let mut a = windowed();
        assert_eq!(
            a.read(14_000, 16).unwrap(),
            vec![0; 16],
            "unbound slot reads zero"
        );
        assert_eq!(a.slot_frames(), (0, 0), "reads bind nothing");
        a.write(14_000, &[7; 16]).unwrap();
        a.fill(22_100, 8, 9).unwrap();
        assert_eq!(a.slot_frames(), (2, 0));
        assert_eq!(a.read(14_000, 16).unwrap(), vec![7; 16]);
        assert_eq!(a.read(22_100, 8).unwrap(), vec![9; 8]);
        a.release(14_000);
        assert_eq!(a.slot_frames(), (1, 1));
        assert_eq!(a.read(14_000, 16).unwrap(), vec![0; 16]);
        a.release(14_000);
        assert_eq!(
            a.slot_frames(),
            (1, 1),
            "releasing an unbound slot is a no-op"
        );
        // Flat bytes around the window are untouched by slot traffic.
        a.write(9_990, &[1; 10]).unwrap();
        a.write(34_000, &[2; 10]).unwrap();
        assert_eq!(a.read(9_990, 10).unwrap(), vec![1; 10]);
        assert_eq!(a.read(10_000, 10).unwrap(), vec![0; 10]);
        assert_eq!(a.read(34_000, 10).unwrap(), vec![2; 10]);
        assert_eq!(a.dirty.iter().map(|w| w.count_ones()).sum::<u32>(), 2);
    }

    #[test]
    fn rebound_slot_reads_zero_past_its_new_write() {
        let mut a = windowed();
        a.write(10_000, &[0xAA; 3000]).unwrap();
        a.release(10_000);
        // The pooled frame binds to another slot with a shorter write.
        a.write(18_000 + 100, &[0xBB; 50]).unwrap();
        assert_eq!(a.slot_frames(), (1, 0), "the pooled frame was reused");
        let slot = a.read(18_000, 4000).unwrap();
        assert!(slot[..100].iter().all(|&b| b == 0));
        assert!(slot[100..150].iter().all(|&b| b == 0xBB));
        assert!(
            slot[150..].iter().all(|&b| b == 0),
            "stale bytes past the new write"
        );
        assert_eq!(a.read(10_000, 4000).unwrap(), vec![0; 4000]);
    }

    #[test]
    fn reset_frees_every_frame() {
        let cap = (64u64 << 10) + 4096;
        let mut a = AddressSpace::new(cap);
        a.set_slot_window(8192, 4 * 4096, 4096).unwrap();
        for s in 0..4 {
            a.write(8192 + s * 4096 + 10, &[s as u8 + 1; 20]).unwrap();
        }
        a.release(8192);
        assert_eq!(a.slot_frames(), (3, 1));
        a.reset();
        assert_eq!(a.slot_frames(), (0, 4), "every frame back in the pool");
        assert_eq!(
            a.zeroed(),
            3 * 20,
            "reset counts exactly the bytes it scrubbed"
        );
        // The window is gone: the region is flat memory again, all zero.
        assert!(a.slice(0, cap).unwrap().iter().all(|&x| x == 0));
        a.set_slot_window(8192, 4 * 4096, 4096).unwrap();
        a.write(8192, &[5; 8]).unwrap();
        assert_eq!(a.slot_frames(), (1, 3), "pooled frames survive the reset");
    }

    #[test]
    fn recycled_windowed_space_reads_all_zero() {
        let cap = (1u64 << 20) + 8192;
        let mut a = AddressSpace::new(cap);
        a.write(100, &[0xFF; 64]).unwrap();
        a.set_slot_window(65_536, 64 * 1024, 1024).unwrap();
        for s in 0..64 {
            a.fill(65_536 + s * 1024, 1024, 0xEE).unwrap();
        }
        a.release(65_536);
        a.reset();
        assert!(
            a.slice(0, cap).unwrap().iter().all(|&x| x == 0),
            "recycled space leaked previous contents"
        );
    }

    #[test]
    fn set_slot_window_zeroes_flat_bytes_under_it() {
        let mut a = AddressSpace::new(64 << 10);
        a.write(10_500, &[3; 100]).unwrap();
        a.write(9_000, &[4; 10]).unwrap();
        a.set_slot_window(10_000, 6 * 4000, 4000).unwrap();
        assert_eq!(a.read(10_500, 100).unwrap(), vec![0; 100]);
        assert_eq!(
            a.read(9_000, 10).unwrap(),
            vec![4; 10],
            "bytes outside kept"
        );
    }

    #[test]
    fn copy_within_moves_bytes_across_the_window_edge() {
        let mut a = windowed();
        a.write(100, b"flat->slot").unwrap();
        a.copy_within(100, 14_000, 10).unwrap();
        a.copy_within(14_000, 18_500, 10).unwrap();
        a.copy_within(18_500, 40_000, 10).unwrap();
        assert_eq!(a.read(14_000, 10).unwrap(), b"flat->slot");
        assert_eq!(a.read(18_500, 10).unwrap(), b"flat->slot");
        assert_eq!(a.read(40_000, 10).unwrap(), b"flat->slot");
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "straddles"))]
    fn access_straddling_a_slot_is_refused() {
        let a = windowed();
        assert_eq!(
            a.slice(13_990, 20),
            Err(MemError::SlotStraddle {
                addr: 13_990,
                len: 20
            })
        );
    }

    #[test]
    fn slice_pair_moves_flat_bytes_in_both_orders() {
        let mut a = AddressSpace::new(64 << 10);
        a.write(1000, b"low").unwrap();
        a.write(50_000, b"high").unwrap();
        let (from, to) = a.slice_pair(1000, 3, 40_000, 3).unwrap();
        to.copy_from_slice(from);
        let (from, to) = a.slice_pair(50_000, 4, 2000, 4).unwrap();
        to.copy_from_slice(from);
        assert_eq!(a.read(40_000, 3).unwrap(), b"low");
        assert_eq!(a.read(2000, 4).unwrap(), b"high");
        // Adjacent and empty ranges do not overlap.
        let (from, to) = a.slice_pair(1000, 3, 1003, 5).unwrap();
        assert_eq!((from, to.len()), (&b"low"[..], 5));
        assert!(a.slice_pair(1000, 0, 1000, 3).is_ok());
    }

    #[test]
    fn slice_pair_serves_slot_frames() {
        let mut a = windowed();
        // An unbound slot reads zero and binds nothing.
        a.write(100, &[1; 8]).unwrap();
        let (from, to) = a.slice_pair(14_000, 8, 100, 8).unwrap();
        to.copy_from_slice(from);
        assert_eq!(a.read(100, 8).unwrap(), vec![0; 8]);
        assert_eq!(a.slot_frames(), (0, 0));
        // A bound slot's frame is the source, flat memory the target.
        a.write(14_000, b"in a frame").unwrap();
        let (from, to) = a.slice_pair(14_000, 10, 100, 10).unwrap();
        to.copy_from_slice(from);
        assert_eq!(a.read(100, 10).unwrap(), b"in a frame");
        // Frame to another slot's frame, and within one frame.
        let (from, to) = a.slice_pair(14_000, 10, 22_500, 10).unwrap();
        to.copy_from_slice(from);
        let (from, to) = a.slice_pair(22_500, 10, 22_000, 10).unwrap();
        to.copy_from_slice(from);
        assert_eq!(a.read(22_000, 10).unwrap(), b"in a frame");
        assert_eq!(a.read(22_500, 10).unwrap(), b"in a frame");
        assert_eq!(a.slot_frames(), (2, 0));
    }

    #[test]
    fn slice_pair_refuses_overlap_and_out_of_bounds() {
        let mut a = AddressSpace::new(4096);
        assert_eq!(
            a.slice_pair(100, 50, 140, 50).unwrap_err(),
            MemError::Overlap {
                read: 100,
                write: 140
            }
        );
        assert!(matches!(
            a.slice_pair(200, 10, 200, 10),
            Err(MemError::Overlap { .. })
        ));
        assert!(matches!(
            a.slice_pair(4090, 10, 0, 10),
            Err(MemError::OutOfBounds { .. })
        ));
        assert!(matches!(
            a.slice_pair(0, 10, u64::MAX - 4, 8),
            Err(MemError::OutOfBounds { .. })
        ));
        assert_eq!(a.dirty, vec![0], "a refused pair marks nothing dirty");
        // An empty view overlaps nothing, even strictly inside the other.
        let (r, w) = a.slice_pair(1001, 0, 1000, 3).unwrap();
        assert_eq!((r.len(), w.len()), (0, 3));
        let (r, w) = a.slice_pair(1000, 3, 1001, 0).unwrap();
        assert_eq!((r.len(), w.len()), (3, 0));
    }

    /// Completions carry a `MemError` inline, so a larger error grows
    /// every queued completion.
    #[test]
    fn mem_error_is_no_larger_than_out_of_bounds() {
        assert!(std::mem::size_of::<MemError>() <= 4 * std::mem::size_of::<u64>());
    }

    /// The write view is marked exactly as a `write` of its range, so
    /// a reset re-zeroes the same bytes.
    #[test]
    fn slice_pair_marks_dirty_like_write() {
        let cap = (256u64 << 10) + 20_480;
        let pairs = [
            (70_000, 9000, 5000),
            (9000, 60_000, 1),
            (130_000, 4095, 8193),
        ];
        let (mut a, mut b) = (AddressSpace::new(cap), AddressSpace::new(cap));
        for &(src, dst, len) in &pairs {
            a.slice_pair(src, len, dst, len).unwrap().1.fill(1);
            b.write(dst, &vec![1; len as usize]).unwrap();
        }
        assert_eq!(a.dirty, b.dirty);
        let zeroed = |s: &mut AddressSpace| {
            s.reset();
            s.zeroed()
        };
        assert_eq!(zeroed(&mut a), zeroed(&mut b));
        // Into a slot: the frame records the same written bytes.
        let (mut a, mut b) = (windowed(), windowed());
        a.slice_pair(100, 30, 14_010, 30).unwrap().1.fill(1);
        b.write(14_010, &[1; 30]).unwrap();
        assert_eq!(zeroed(&mut a), 30);
        assert_eq!(zeroed(&mut b), 30);
    }

    #[test]
    fn scattered_writes_recycle_to_all_zero() {
        let cap = 64u64 * 1024 * 1024;
        let mut a = AddressSpace::new(cap);
        // Scattered writes, including page- and word-boundary
        // straddles, across the whole space.
        for i in 0..500u64 {
            let addr = (i * 97_003) % (cap - 8);
            a.write(addr, &[0xA5; 8]).unwrap();
        }
        a.reset();
        assert!(
            a.slice(0, cap).unwrap().iter().all(|&x| x == 0),
            "dirty bitmap missed a written page"
        );
    }
}
