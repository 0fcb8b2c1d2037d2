//! Segments: partial pack/unpack of datatype messages.
//!
//! A [`Segment`] pairs a datatype with an instance count and exposes the
//! message as a linear *stream* of `count * size` bytes. Any byte range
//! of the stream can be packed out of (or unpacked into) the user buffer
//! independently — the partial datatype processing of §4.3.1 that
//! BC-SPUP and segment unpack in RWG-UP are built on.
//!
//! The runtime packs through compiled
//! [`TransferPlan`](crate::TransferPlan)s; `Segment` walks the dataloop
//! directly and serves as the reference the plans are tested against.
//!
//! It operates on plain byte slices. `buf_base` is the slice index of
//! the element with datatype offset 0 (needed because MPI displacements
//! may be negative).

use crate::typ::Datatype;
use std::fmt;
use std::sync::Arc;

/// Errors from segment pack/unpack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentError {
    /// A datatype block fell outside the provided buffer slice.
    OutOfBounds {
        /// Offending block offset (relative to datatype origin).
        offset: i64,
        /// Offending block length.
        len: u64,
    },
    /// The contiguous stream slice had the wrong length for the range.
    StreamLenMismatch {
        /// Expected `hi - lo`.
        expected: u64,
        /// Provided slice length.
        got: usize,
    },
    /// `lo..hi` exceeds the message stream.
    RangeOutOfBounds {
        /// Requested range end.
        hi: u64,
        /// Stream size.
        size: u64,
    },
}

impl fmt::Display for SegmentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SegmentError::OutOfBounds { offset, len } => {
                write!(f, "datatype block ({offset}, {len}) outside user buffer")
            }
            SegmentError::StreamLenMismatch { expected, got } => {
                write!(f, "stream slice length {got}, expected {expected}")
            }
            SegmentError::RangeOutOfBounds { hi, size } => {
                write!(f, "stream range end {hi} beyond message size {size}")
            }
        }
    }
}

impl std::error::Error for SegmentError {}

/// A packable view over `count` instances of a datatype.
#[derive(Clone)]
pub struct Segment {
    ty: Datatype,
    dl: Arc<crate::dataloop::Dataloop>,
    count: u64,
    inst_size: u64,
    extent: i64,
}

impl fmt::Debug for Segment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Segment")
            .field("count", &self.count)
            .field("inst_size", &self.inst_size)
            .field("extent", &self.extent)
            .finish()
    }
}

impl Segment {
    /// Creates a segment over `count` instances of `ty`.
    pub fn new(ty: &Datatype, count: u64) -> Self {
        Self {
            dl: ty.dataloop().clone(),
            ty: ty.clone(),
            count,
            inst_size: ty.size(),
            extent: ty.extent(),
        }
    }

    /// The datatype this segment walks.
    pub fn datatype(&self) -> &Datatype {
        &self.ty
    }

    /// Instance count.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Total stream bytes (`count * size`).
    pub fn total_bytes(&self) -> u64 {
        self.count * self.inst_size
    }

    /// Enumerates contiguous memory blocks for stream range `[lo, hi)`,
    /// as `(offset relative to buffer address, len)` in pack order.
    pub fn for_each_block<F: FnMut(i64, u64)>(
        &self,
        lo: u64,
        hi: u64,
        mut f: F,
    ) -> Result<(), SegmentError> {
        if hi > self.total_bytes() || lo > hi {
            return Err(SegmentError::RangeOutOfBounds {
                hi,
                size: self.total_bytes(),
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
            self.dl.emit(clo, chi, base, &mut f);
        }
        Ok(())
    }

    /// Counts `(blocks, bytes)` in a stream range — inputs to the host
    /// copy cost model.
    pub fn block_count_in(&self, lo: u64, hi: u64) -> Result<(usize, u64), SegmentError> {
        let mut blocks = 0usize;
        let mut bytes = 0u64;
        self.for_each_block(lo, hi, |_, l| {
            blocks += 1;
            bytes += l;
        })?;
        Ok((blocks, bytes))
    }

    /// Flattened block list for the whole message (pack order, merged
    /// across instances when dense).
    pub fn blocks(&self) -> Vec<(i64, u64)> {
        self.ty.flat().repeat(self.count)
    }

    /// Packs stream range `[lo, hi)` from the user buffer into `out`.
    ///
    /// `buf_base` is the index in `buf` of datatype offset 0;
    /// `out.len()` must equal `hi - lo`.
    ///
    /// ```
    /// use ibdt_datatype::{Datatype, Segment};
    /// // Two 4-byte blocks, 8 bytes apart.
    /// let t = Datatype::vector(2, 1, 2, &Datatype::int()).unwrap();
    /// let seg = Segment::new(&t, 1);
    /// let buf: Vec<u8> = (0..16).collect();
    /// let mut out = vec![0u8; 8];
    /// seg.pack(0, 8, &buf, 0, &mut out).unwrap();
    /// assert_eq!(out, [0, 1, 2, 3, 8, 9, 10, 11]);
    /// // Partial processing: any sub-range independently (§4.3.1).
    /// let mut piece = vec![0u8; 3];
    /// seg.pack(2, 5, &buf, 0, &mut piece).unwrap();
    /// assert_eq!(piece, [2, 3, 8]);
    /// ```
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
    /// buffer. Mirror of [`Self::pack`].
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
}

pub(crate) fn slice_index(
    buf_len: usize,
    base: usize,
    off: i64,
    len: u64,
) -> Option<std::ops::Range<usize>> {
    let start = (base as i128) + off as i128;
    let end = start + len as i128;
    if start < 0 || end > buf_len as i128 {
        return None;
    }
    Some(start as usize..end as usize)
}

pub(crate) fn slice_at(buf: &[u8], base: usize, off: i64, len: u64) -> Option<&[u8]> {
    slice_index(buf.len(), base, off, len).map(|r| &buf[r])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The user buffer: bytes 0..=255 repeating.
    fn filled(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i % 251) as u8).collect()
    }

    #[test]
    fn pack_whole_vector() {
        let t = Datatype::vector(3, 1, 2, &Datatype::int()).unwrap();
        let seg = Segment::new(&t, 1);
        let buf = filled(64);
        let mut out = vec![0u8; 12];
        seg.pack(0, 12, &buf, 0, &mut out).unwrap();
        let expect: Vec<u8> = [0..4, 8..12, 16..20]
            .into_iter()
            .flat_map(|r| buf[r].to_vec())
            .collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn unpack_inverts_pack() {
        let t = Datatype::vector(4, 3, 7, &Datatype::int()).unwrap();
        let seg = Segment::new(&t, 2);
        let buf = filled(512);
        let n = seg.total_bytes();
        let mut packed = vec![0u8; n as usize];
        seg.pack(0, n, &buf, 0, &mut packed).unwrap();
        let mut restored = vec![0u8; 512];
        seg.unpack(0, n, &packed, &mut restored, 0).unwrap();
        // Restored buffer equals original at all datatype positions.
        seg.for_each_block(0, n, |off, len| {
            let r = off as usize..(off + len as i64) as usize;
            assert_eq!(&restored[r.clone()], &buf[r]);
        })
        .unwrap();
    }

    #[test]
    fn segmented_pack_equals_whole_pack() {
        let t = Datatype::hindexed(&[(3, 0), (1, 40), (5, 100)], &Datatype::int()).unwrap();
        let seg = Segment::new(&t, 3);
        let buf = filled(1024);
        let n = seg.total_bytes() as usize;
        let mut whole = vec![0u8; n];
        seg.pack(0, n as u64, &buf, 0, &mut whole).unwrap();
        // Pack in ragged pieces.
        for chunk in [1usize, 5, 7, 13, 64] {
            let mut pieces = vec![0u8; n];
            let mut lo = 0usize;
            while lo < n {
                let hi = (lo + chunk).min(n);
                seg.pack(lo as u64, hi as u64, &buf, 0, &mut pieces[lo..hi])
                    .unwrap();
                lo = hi;
            }
            assert_eq!(pieces, whole, "chunk={chunk}");
        }
    }

    #[test]
    fn segmented_unpack_equals_whole_unpack() {
        let t = Datatype::vector(5, 2, 9, &Datatype::int()).unwrap();
        let seg = Segment::new(&t, 2);
        let n = seg.total_bytes() as usize;
        let stream = filled(n);
        let mut whole = vec![0u8; 512];
        seg.unpack(0, n as u64, &stream, &mut whole, 0).unwrap();
        let mut pieces = vec![0u8; 512];
        let mut lo = 0usize;
        for chunk in [3usize, 11, 17].iter().cycle() {
            if lo >= n {
                break;
            }
            let hi = (lo + chunk).min(n);
            seg.unpack(lo as u64, hi as u64, &stream[lo..hi], &mut pieces, 0)
                .unwrap();
            lo = hi;
        }
        assert_eq!(pieces, whole);
    }

    #[test]
    fn negative_offsets_need_base() {
        let t = Datatype::hindexed(&[(1, -8), (1, 0)], &Datatype::int()).unwrap();
        let seg = Segment::new(&t, 1);
        let buf = filled(64);
        let mut out = vec![0u8; 8];
        // base 0 would index at -8: error.
        assert!(matches!(
            seg.pack(0, 8, &buf, 0, &mut out).unwrap_err(),
            SegmentError::OutOfBounds { .. }
        ));
        seg.pack(0, 8, &buf, 16, &mut out).unwrap();
        assert_eq!(&out[0..4], &buf[8..12]);
        assert_eq!(&out[4..8], &buf[16..20]);
    }

    #[test]
    fn wrong_out_len_rejected() {
        let t = Datatype::int();
        let seg = Segment::new(&t, 1);
        let buf = filled(8);
        let mut out = vec![0u8; 3];
        assert!(matches!(
            seg.pack(0, 4, &buf, 0, &mut out).unwrap_err(),
            SegmentError::StreamLenMismatch { .. }
        ));
    }

    #[test]
    fn range_beyond_stream_rejected() {
        let t = Datatype::int();
        let seg = Segment::new(&t, 2);
        assert!(matches!(
            seg.block_count_in(0, 9).unwrap_err(),
            SegmentError::RangeOutOfBounds { .. }
        ));
    }

    #[test]
    fn block_count_matches_flatten() {
        let t = Datatype::vector(128, 4, 4096, &Datatype::int()).unwrap();
        let seg = Segment::new(&t, 1);
        let (blocks, bytes) = seg.block_count_in(0, seg.total_bytes()).unwrap();
        assert_eq!(blocks, 128);
        assert_eq!(bytes, 128 * 16);
    }

    #[test]
    fn multi_instance_blocks_cross_boundary() {
        // Contiguous instances merge across the instance boundary.
        let t = Datatype::contiguous(4, &Datatype::int()).unwrap();
        let seg = Segment::new(&t, 3);
        assert_eq!(seg.blocks(), vec![(0, 48)]);
        // but for_each_block without merging reports per instance
        let (blocks, bytes) = seg.block_count_in(0, 48).unwrap();
        assert_eq!(bytes, 48);
        assert!(blocks <= 3);
    }

    #[test]
    fn zero_size_type_packs_nothing() {
        let t = Datatype::contiguous(0, &Datatype::int()).unwrap();
        let seg = Segment::new(&t, 5);
        assert_eq!(seg.total_bytes(), 0);
        let buf = filled(8);
        let mut out = vec![];
        seg.pack(0, 0, &buf, 0, &mut out).unwrap();
    }
}
