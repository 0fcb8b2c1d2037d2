//! Compiled transfer plans: the amortized form of a (datatype, count)
//! pair.
//!
//! A [`TransferPlan`] is compiled once per (type, count) and then shared
//! (`Arc`) across every message, chunk, segment, and descriptor build of
//! that shape: [`Datatype::plan`] memoizes it on the type itself, the
//! host-side analogue of §5.4.2's wire-level datatype cache. Where
//! [`Segment`](crate::Segment) re-walks the dataloop tree on every
//! call, a plan precomputes:
//!
//! * the **unmerged per-instance run list** — exactly the blocks
//!   `Dataloop::emit` would produce for one full instance, with an
//!   exclusive prefix-sum table over stream offsets, so any `[lo, hi)`
//!   chunk resumes in `O(log runs)` instead of `O(depth + runs)`;
//! * the **merged whole-message block list** — identical to
//!   `FlatLayout::repeat(count)`, materialized once instead of per
//!   descriptor build;
//! * totals: stream bytes, merged block count, [`BlockStats`], and the
//!   largest contiguous run (the max single-SGE burst).
//!
//! Equivalence with [`Segment`](crate::Segment) is load-bearing: the
//! discrete-event cost model charges host copy time per *unmerged*
//! block, so a plan must enumerate bit-for-bit the same blocks in the
//! same order. This holds structurally — `Dataloop::emit` over a
//! sub-range equals the clip of its full-range emission (leaves emit
//! clipped fragments in identical order) — and is pinned down by the
//! tests at the bottom of this file plus `tests/proptests.rs`.

use crate::dataloop::Dataloop;
use crate::flat::BlockStats;
use crate::kernel::{copy_block, prefetch_block, CopyKernel};
#[cfg(target_arch = "x86_64")]
use crate::kernel::{copy_strided_simd, simd_strided_ok};
use crate::segment::{slice_at, slice_index, SegmentError};
use crate::typ::Datatype;
use std::fmt;

/// How [`Datatype::plan`] served a lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanLookup {
    /// The type's memo already held a plan for this count.
    Hit,
    /// Compiled into a free memo slot.
    Compiled,
    /// Compiled over the memo's oldest plan (another count).
    Displaced,
}

/// A compiled, immutable transfer plan for `count` instances of a
/// datatype. Cheap to share behind an `Arc`; all methods take `&self`.
/// It holds no handle to its type, so a type's memo of its own plans
/// forms no reference cycle.
#[derive(Clone)]
pub struct TransferPlan {
    count: u64,
    inst_size: u64,
    extent: i64,
    total_bytes: u64,
    /// Unmerged runs of one instance, in pack order, relative to the
    /// instance origin. Exactly `dl.emit(0, inst_size, 0)`.
    inst_runs: Vec<(i64, u64)>,
    /// Exclusive prefix sums of `inst_runs` lengths;
    /// `inst_prefix[i]` is the stream offset where run `i` begins.
    /// Length = `inst_runs.len() + 1`, last element = `inst_size`.
    inst_prefix: Vec<u64>,
    /// Merged whole-message blocks: identical to
    /// `ty.flat().repeat(count)`.
    merged: Vec<(i64, u64)>,
    /// Exclusive prefix sums of merged block lengths; length
    /// `merged.len() + 1`, last element = `total_bytes`. Lets any
    /// `[lo, hi)` copy resume mid-list in `O(log blocks)`.
    merged_prefix: Vec<u64>,
    /// Copy strategy classified from `merged` at compile time.
    kernel: CopyKernel,
    /// Smallest block offset over `merged` (0 when empty).
    min_off: i128,
    /// Largest block end (`off + len`) over `merged` (0 when empty).
    max_end: i128,
    stats: BlockStats,
    max_burst: u64,
}

impl fmt::Debug for TransferPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TransferPlan")
            .field("count", &self.count)
            .field("inst_size", &self.inst_size)
            .field("extent", &self.extent)
            .field("runs_per_instance", &self.inst_runs.len())
            .field("merged_blocks", &self.merged.len())
            .finish()
    }
}

impl TransferPlan {
    /// Compiles a plan for `count` instances of `ty`.
    pub fn compile(ty: &Datatype, count: u64) -> TransferPlan {
        let dl: &Dataloop = ty.dataloop();
        let inst_size = ty.size();
        let mut inst_runs = Vec::new();
        if inst_size > 0 {
            dl.emit(0, inst_size, 0, &mut |o, l| inst_runs.push((o, l)));
        }
        let mut inst_prefix = Vec::with_capacity(inst_runs.len() + 1);
        let mut acc = 0u64;
        inst_prefix.push(0);
        for &(_, l) in &inst_runs {
            acc += l;
            inst_prefix.push(acc);
        }
        debug_assert_eq!(acc, inst_size);
        let merged = ty.flat().repeat(count);
        let stats = BlockStats::from_blocks(&merged);
        let mut merged_prefix = Vec::with_capacity(merged.len() + 1);
        let mut macc = 0u64;
        merged_prefix.push(0);
        let mut min_off = 0i128;
        let mut max_end = 0i128;
        for (i, &(o, l)) in merged.iter().enumerate() {
            macc += l;
            merged_prefix.push(macc);
            let (s, e) = (o as i128, o as i128 + l as i128);
            if i == 0 {
                min_off = s;
                max_end = e;
            } else {
                min_off = min_off.min(s);
                max_end = max_end.max(e);
            }
        }
        debug_assert_eq!(macc, count * inst_size);
        let kernel = CopyKernel::select(&merged);
        TransferPlan {
            count,
            inst_size,
            extent: ty.extent(),
            total_bytes: count * inst_size,
            inst_runs,
            inst_prefix,
            max_burst: stats.max,
            merged,
            merged_prefix,
            kernel,
            min_off,
            max_end,
            stats,
        }
    }

    /// Instance count.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Total stream bytes (`count * size`).
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Unmerged contiguous runs per instance.
    pub fn runs_per_instance(&self) -> usize {
        self.inst_runs.len()
    }

    /// Merged whole-message block list — identical to
    /// `Segment::blocks()` / `FlatLayout::repeat(count)`, but
    /// materialized once at compile time.
    pub fn blocks(&self) -> &[(i64, u64)] {
        &self.merged
    }

    /// Precomputed block statistics over the merged list (same as
    /// `flat().stats(count)`).
    pub fn stats(&self) -> BlockStats {
        self.stats
    }

    /// Largest contiguous merged run — the widest single-SGE burst any
    /// descriptor built from this plan can carry.
    pub fn max_burst(&self) -> u64 {
        self.max_burst
    }

    /// Index of the first per-instance run overlapping intra-instance
    /// stream offset `off` — the O(log runs) resume point for a chunk
    /// boundary. `off` must be `< inst_size`.
    pub fn resume_index(&self, off: u64) -> usize {
        let n = self.inst_runs.len();
        self.inst_prefix[1..=n].partition_point(|&end| end <= off)
    }

    /// Enumerates contiguous memory blocks for stream range `[lo, hi)`,
    /// as `(offset relative to buffer address, len)` in pack order.
    ///
    /// Bit-identical to [`Segment::for_each_block`](crate::Segment):
    /// same blocks, same order, unmerged across runs and instances.
    pub fn for_each_block<F: FnMut(i64, u64)>(
        &self,
        lo: u64,
        hi: u64,
        mut f: F,
    ) -> Result<(), SegmentError> {
        if hi > self.total_bytes || lo > hi {
            return Err(SegmentError::RangeOutOfBounds {
                hi,
                size: self.total_bytes,
            });
        }
        if lo == hi || self.inst_size == 0 {
            return Ok(());
        }
        let first = lo / self.inst_size;
        let last = (hi - 1) / self.inst_size;
        for i in first..=last {
            let base = i as i64 * self.extent;
            let clo = lo.saturating_sub(i * self.inst_size).min(self.inst_size);
            let chi = (hi - i * self.inst_size).min(self.inst_size);
            self.emit_instance(clo, chi, base, &mut f);
        }
        Ok(())
    }

    /// Emits clipped runs of one instance for intra-instance stream
    /// range `[clo, chi)`, resuming by prefix search.
    fn emit_instance<F: FnMut(i64, u64)>(&self, clo: u64, chi: u64, base: i64, f: &mut F) {
        if clo >= chi {
            return;
        }
        let start = self.resume_index(clo);
        for k in start..self.inst_runs.len() {
            let rs = self.inst_prefix[k];
            if rs >= chi {
                break;
            }
            let re = self.inst_prefix[k + 1];
            let (off, _) = self.inst_runs[k];
            let s = clo.max(rs);
            let e = chi.min(re);
            f(base + off + (s - rs) as i64, e - s);
        }
    }

    /// Counts `(blocks, bytes)` in a stream range without enumerating —
    /// O(log runs) regardless of range width. Returns exactly what
    /// `Segment::block_count_in` returns.
    pub fn block_count_in(&self, lo: u64, hi: u64) -> Result<(usize, u64), SegmentError> {
        if hi > self.total_bytes || lo > hi {
            return Err(SegmentError::RangeOutOfBounds {
                hi,
                size: self.total_bytes,
            });
        }
        if lo == hi || self.inst_size == 0 {
            return Ok((0, 0));
        }
        let first = lo / self.inst_size;
        let last = (hi - 1) / self.inst_size;
        let blocks = if first == last {
            let clo = lo - first * self.inst_size;
            let chi = hi - first * self.inst_size;
            self.runs_in(clo, chi)
        } else {
            let head = self.runs_in(lo - first * self.inst_size, self.inst_size);
            let tail = self.runs_in(0, hi - last * self.inst_size);
            let middle = (last - first - 1) as usize * self.inst_runs.len();
            head + middle + tail
        };
        Ok((blocks, hi - lo))
    }

    /// Number of per-instance runs overlapping intra-instance range
    /// `[clo, chi)`.
    fn runs_in(&self, clo: u64, chi: u64) -> usize {
        if clo >= chi {
            return 0;
        }
        let n = self.inst_runs.len();
        let a = self.inst_prefix[1..=n].partition_point(|&end| end <= clo);
        let b = self.inst_prefix[..n].partition_point(|&start| start < chi);
        b - a
    }

    /// The copy kernel classified from the merged block list at
    /// compile time.
    pub fn kernel(&self) -> CopyKernel {
        self.kernel
    }

    /// Smallest `[lo, hi)` window of the user buffer, relative to the
    /// datatype origin, covering every merged block. Lets callers hand
    /// [`Self::pack`]/[`Self::unpack`] a view no wider than the bytes
    /// actually touched (e.g. so address-space dirty tracking stays
    /// tight) instead of a whole-memory slice.
    pub fn envelope(&self) -> (i128, i128) {
        (self.min_off, self.max_end)
    }

    /// True when every merged block of the whole message lands inside
    /// a buffer of `buf_len` bytes with datatype origin at `base` —
    /// the single upfront check that licenses the unchecked kernels.
    fn bounds_ok(&self, buf_len: usize, base: usize) -> bool {
        base <= i64::MAX as usize
            && base as i128 + self.min_off >= 0
            && base as i128 + self.max_end <= buf_len as i128
    }

    /// Packs stream range `[lo, hi)` from the user buffer into `out`.
    /// Same contract as [`Segment::pack`](crate::Segment::pack).
    pub fn pack(
        &self,
        lo: u64,
        hi: u64,
        buf: &[u8],
        buf_base: usize,
        out: &mut [u8],
    ) -> Result<(), SegmentError> {
        if out.len() as u64 != hi - lo {
            return Err(SegmentError::StreamLenMismatch {
                expected: hi - lo,
                got: out.len(),
            });
        }
        if hi > self.total_bytes || lo > hi {
            return Err(SegmentError::RangeOutOfBounds {
                hi,
                size: self.total_bytes,
            });
        }
        if lo == hi {
            return Ok(());
        }
        if self.bounds_ok(buf.len(), buf_base) {
            // Every block of the whole message is in bounds, so the
            // kernels can run without per-block checks.
            unsafe {
                self.exec::<true>(
                    lo,
                    hi,
                    buf.as_ptr() as *mut u8,
                    buf_base as i64,
                    out.as_mut_ptr(),
                )
            };
            return Ok(());
        }
        self.pack_checked(lo, hi, buf, buf_base, out)
    }

    /// Per-block checked pack — the pre-kernel path, kept for buffers
    /// where some block of the *whole message* is out of bounds even
    /// though the requested range may not be. Error reporting is
    /// bit-identical to [`Segment::pack`](crate::Segment::pack).
    fn pack_checked(
        &self,
        lo: u64,
        hi: u64,
        buf: &[u8],
        buf_base: usize,
        out: &mut [u8],
    ) -> Result<(), SegmentError> {
        let mut cursor = 0usize;
        let mut err = None;
        self.for_each_block(lo, hi, |off, len| {
            if err.is_some() {
                return;
            }
            match slice_at(buf, buf_base, off, len) {
                Some(src) => {
                    out[cursor..cursor + len as usize].copy_from_slice(src);
                    cursor += len as usize;
                }
                None => err = Some(SegmentError::OutOfBounds { offset: off, len }),
            }
        })?;
        err.map_or(Ok(()), Err)
    }

    /// Unpacks stream range `[lo, hi)` from `input` into the user
    /// buffer. Same contract as [`Segment::unpack`](crate::Segment::unpack).
    pub fn unpack(
        &self,
        lo: u64,
        hi: u64,
        input: &[u8],
        buf: &mut [u8],
        buf_base: usize,
    ) -> Result<(), SegmentError> {
        if input.len() as u64 != hi - lo {
            return Err(SegmentError::StreamLenMismatch {
                expected: hi - lo,
                got: input.len(),
            });
        }
        if hi > self.total_bytes || lo > hi {
            return Err(SegmentError::RangeOutOfBounds {
                hi,
                size: self.total_bytes,
            });
        }
        if lo == hi {
            return Ok(());
        }
        if self.bounds_ok(buf.len(), buf_base) {
            unsafe {
                self.exec::<false>(
                    lo,
                    hi,
                    buf.as_mut_ptr(),
                    buf_base as i64,
                    input.as_ptr() as *mut u8,
                )
            };
            return Ok(());
        }
        self.unpack_checked(lo, hi, input, buf, buf_base)
    }

    /// Per-block checked unpack; see [`Self::pack_checked`].
    fn unpack_checked(
        &self,
        lo: u64,
        hi: u64,
        input: &[u8],
        buf: &mut [u8],
        buf_base: usize,
    ) -> Result<(), SegmentError> {
        let mut cursor = 0usize;
        let mut err = None;
        self.for_each_block(lo, hi, |off, len| {
            if err.is_some() {
                return;
            }
            match slice_index(buf.len(), buf_base, off, len) {
                Some(range) => {
                    buf[range].copy_from_slice(&input[cursor..cursor + len as usize]);
                    cursor += len as usize;
                }
                None => err = Some(SegmentError::OutOfBounds { offset: off, len }),
            }
        })?;
        err.map_or(Ok(()), Err)
    }

    /// Runs the compiled kernel over stream range `[lo, hi)` of the
    /// merged block list. `PACK` copies user → stream; `!PACK` copies
    /// stream → user. The stream cursor starts at `stream` (i.e. the
    /// caller already sliced the stream to the range).
    ///
    /// # Safety
    /// Caller must guarantee `bounds_ok(user_len, base)`, that `user`
    /// points at that buffer, that `stream` is valid for `hi - lo`
    /// bytes, and that `lo < hi <= total_bytes`. The stream and user
    /// buffers must not overlap.
    unsafe fn exec<const PACK: bool>(
        &self,
        lo: u64,
        hi: u64,
        user: *mut u8,
        base: i64,
        stream: *mut u8,
    ) {
        #[inline(always)]
        unsafe fn mov<const PACK: bool>(user: *mut u8, stream: *mut u8, len: usize) {
            if PACK {
                copy_block(user as *const u8, stream, len);
            } else {
                copy_block(stream as *const u8, user, len);
            }
        }
        if lo == 0 && hi == self.total_bytes {
            // Whole message: shape-specialized loops.
            match self.kernel {
                CopyKernel::Contig => {
                    let (off, len) = self.merged[0];
                    mov::<PACK>(user.add((base + off) as usize), stream, len as usize);
                }
                CopyKernel::ConstStride { block, stride } => {
                    let b = block as usize;
                    let mut uoff = base + self.merged[0].0;
                    let mut s = stream;
                    // Wide blocks go through the AVX2 strided loop:
                    // `memcpy` dispatch per block and split-line wide
                    // stores are what make strided unpack ~2× slower
                    // than pack otherwise.
                    #[cfg(target_arch = "x86_64")]
                    if copy_strided_simd::<PACK>(
                        user.offset(uoff as isize),
                        s,
                        b,
                        stride,
                        self.merged.len(),
                    ) {
                        return;
                    }
                    // Prefetch whole blocks a few strides ahead:
                    // wide-stride blocks miss cache on every iteration
                    // otherwise, and the strided side is the
                    // bottleneck in both directions (with write intent
                    // on unpack, where the miss is a store RFO).
                    let pf = 4 * stride;
                    for _ in 0..self.merged.len() {
                        prefetch_block::<PACK>(user.wrapping_offset((uoff + pf) as isize), b);
                        mov::<PACK>(user.add(uoff as usize), s, b);
                        uoff += stride;
                        s = s.add(b);
                    }
                }
                CopyKernel::TwoLevel {
                    block,
                    inner_n,
                    inner_stride,
                    outer_stride,
                } => {
                    let b = block as usize;
                    let outer_n = self.merged.len() / inner_n as usize;
                    let mut goff = base + self.merged[0].0;
                    let mut s = stream;
                    // Each outer group is a constant-stride run; reuse
                    // the AVX2 strided loop per group.
                    #[cfg(target_arch = "x86_64")]
                    if simd_strided_ok(b) {
                        for _ in 0..outer_n {
                            copy_strided_simd::<PACK>(
                                user.offset(goff as isize),
                                s,
                                b,
                                inner_stride,
                                inner_n as usize,
                            );
                            goff += outer_stride;
                            s = s.add(inner_n as usize * b);
                        }
                        return;
                    }
                    let pf = 4 * inner_stride;
                    for _ in 0..outer_n {
                        let mut uoff = goff;
                        for _ in 0..inner_n {
                            prefetch_block::<PACK>(user.wrapping_offset((uoff + pf) as isize), b);
                            mov::<PACK>(user.add(uoff as usize), s, b);
                            uoff += inner_stride;
                            s = s.add(b);
                        }
                        goff += outer_stride;
                    }
                }
                CopyKernel::Generic => {
                    let mut s = stream;
                    for &(off, len) in &self.merged {
                        mov::<PACK>(user.add((base + off) as usize), s, len as usize);
                        s = s.add(len as usize);
                    }
                }
            }
            return;
        }
        // Partial range: resume mid-list by prefix search, clip the
        // first and last blocks. Still the merged layout — the same
        // blocks a descriptor build would enumerate.
        let n = self.merged.len();
        let mut i = self.merged_prefix[1..=n].partition_point(|&end| end <= lo);
        let mut s = stream;
        while i < n {
            let ps = self.merged_prefix[i];
            if ps >= hi {
                break;
            }
            let pe = self.merged_prefix[i + 1];
            let off = self.merged[i].0;
            let a = lo.max(ps);
            let e = hi.min(pe);
            let len = (e - a) as usize;
            mov::<PACK>(user.add((base + off + (a - ps) as i64) as usize), s, len);
            s = s.add(len);
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::Segment;

    fn collect_seg(seg: &Segment, lo: u64, hi: u64) -> Vec<(i64, u64)> {
        let mut v = Vec::new();
        seg.for_each_block(lo, hi, |o, l| v.push((o, l))).unwrap();
        v
    }

    fn collect_plan(plan: &TransferPlan, lo: u64, hi: u64) -> Vec<(i64, u64)> {
        let mut v = Vec::new();
        plan.for_each_block(lo, hi, |o, l| v.push((o, l))).unwrap();
        v
    }

    fn sample_types() -> Vec<(Datatype, u64)> {
        vec![
            (Datatype::int(), 7),
            (Datatype::contiguous(4, &Datatype::int()).unwrap(), 3),
            (Datatype::vector(3, 2, 5, &Datatype::int()).unwrap(), 2),
            (Datatype::vector(2, 1, 2, &Datatype::int()).unwrap(), 4),
            (Datatype::vector(3, 1, -2, &Datatype::int()).unwrap(), 2),
            (
                Datatype::hindexed(&[(3, 0), (1, 40), (5, 100)], &Datatype::int()).unwrap(),
                3,
            ),
            (
                Datatype::struct_(&[
                    (2, 0, Datatype::int()),
                    (1, 16, Datatype::double()),
                    (3, 32, Datatype::byte()),
                ])
                .unwrap(),
                2,
            ),
            (
                Datatype::resized(&Datatype::contiguous(1, &Datatype::int()).unwrap(), 0, 16)
                    .unwrap(),
                3,
            ),
            (
                Datatype::hvector(
                    2,
                    1,
                    100,
                    &Datatype::vector(2, 1, 2, &Datatype::int()).unwrap(),
                )
                .unwrap(),
                2,
            ),
            (Datatype::contiguous(0, &Datatype::int()).unwrap(), 5),
        ]
    }

    #[test]
    fn plan_blocks_match_segment_everywhere() {
        for (ty, count) in sample_types() {
            let seg = Segment::new(&ty, count);
            let plan = TransferPlan::compile(&ty, count);
            let n = seg.total_bytes();
            assert_eq!(plan.total_bytes(), n);
            // Whole range plus a dense sweep of sub-ranges.
            let mut ranges = vec![(0, n)];
            let step = (n / 7).max(1);
            let mut lo = 0;
            while lo < n {
                let hi = (lo + step).min(n);
                ranges.push((lo, hi));
                ranges.push((lo, n));
                ranges.push((0, hi));
                lo += step;
            }
            for (lo, hi) in ranges {
                assert_eq!(
                    collect_plan(&plan, lo, hi),
                    collect_seg(&seg, lo, hi),
                    "type {ty:?} count {count} range [{lo},{hi})"
                );
                assert_eq!(
                    plan.block_count_in(lo, hi).unwrap(),
                    seg.block_count_in(lo, hi).unwrap(),
                    "count mismatch for {ty:?} range [{lo},{hi})"
                );
            }
        }
    }

    #[test]
    fn plan_merged_matches_segment_blocks() {
        for (ty, count) in sample_types() {
            let seg = Segment::new(&ty, count);
            let plan = TransferPlan::compile(&ty, count);
            assert_eq!(plan.blocks(), seg.blocks().as_slice());
            let s = ty.flat().stats(count);
            assert_eq!(plan.stats().count, s.count);
            assert_eq!(plan.stats().total, s.total);
            assert_eq!(plan.max_burst(), s.max);
        }
    }

    #[test]
    fn plan_pack_unpack_match_segment() {
        let ty = Datatype::hindexed(&[(3, 0), (1, 40), (5, 100)], &Datatype::int()).unwrap();
        let seg = Segment::new(&ty, 3);
        let plan = TransferPlan::compile(&ty, 3);
        let buf: Vec<u8> = (0..1024).map(|i| (i % 251) as u8).collect();
        let n = seg.total_bytes() as usize;
        for chunk in [1usize, 5, 13, 64, n] {
            let mut a = vec![0u8; n];
            let mut b = vec![0u8; n];
            let mut lo = 0usize;
            while lo < n {
                let hi = (lo + chunk).min(n);
                seg.pack(lo as u64, hi as u64, &buf, 0, &mut a[lo..hi])
                    .unwrap();
                plan.pack(lo as u64, hi as u64, &buf, 0, &mut b[lo..hi])
                    .unwrap();
                lo = hi;
            }
            assert_eq!(a, b, "chunk={chunk}");
            let mut ua = vec![0u8; 1024];
            let mut ub = vec![0u8; 1024];
            seg.unpack(0, n as u64, &a, &mut ua, 0).unwrap();
            plan.unpack(0, n as u64, &b, &mut ub, 0).unwrap();
            assert_eq!(ua, ub);
        }
    }

    #[test]
    fn plan_error_cases_match_segment() {
        let ty = Datatype::int();
        let plan = TransferPlan::compile(&ty, 2);
        assert!(matches!(
            plan.block_count_in(0, 9).unwrap_err(),
            SegmentError::RangeOutOfBounds { .. }
        ));
        let buf = [0u8; 8];
        let mut out = [0u8; 3];
        assert!(matches!(
            plan.pack(0, 4, &buf, 0, &mut out).unwrap_err(),
            SegmentError::StreamLenMismatch { .. }
        ));
        // Negative displacement without base: OutOfBounds.
        let t = Datatype::hindexed(&[(1, -8), (1, 0)], &Datatype::int()).unwrap();
        let p = TransferPlan::compile(&t, 1);
        let mut out = [0u8; 8];
        assert!(matches!(
            p.pack(0, 8, &buf, 0, &mut out).unwrap_err(),
            SegmentError::OutOfBounds { .. }
        ));
    }

    #[test]
    fn resume_index_finds_overlapping_run() {
        let ty = Datatype::vector(4, 1, 3, &Datatype::int()).unwrap();
        let plan = TransferPlan::compile(&ty, 1);
        assert_eq!(plan.runs_per_instance(), 4);
        assert_eq!(plan.resume_index(0), 0);
        assert_eq!(plan.resume_index(3), 0);
        assert_eq!(plan.resume_index(4), 1);
        assert_eq!(plan.resume_index(15), 3);
    }

    #[test]
    fn block_count_is_log_time_consistent_on_wide_ranges() {
        // Many instances: the middle-instance shortcut must agree with
        // full enumeration.
        let ty = Datatype::vector(3, 2, 5, &Datatype::int()).unwrap();
        let plan = TransferPlan::compile(&ty, 64);
        let seg = Segment::new(&ty, 64);
        let n = plan.total_bytes();
        for (lo, hi) in [(0, n), (1, n - 1), (25, 1000), (24, 48), (7, 7)] {
            assert_eq!(
                plan.block_count_in(lo, hi).unwrap(),
                seg.block_count_in(lo, hi).unwrap()
            );
        }
    }
}
