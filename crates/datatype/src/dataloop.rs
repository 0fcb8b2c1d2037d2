//! Dataloops: the compiled form of a datatype.
//!
//! Following Ross, Miller & Gropp (ref \[26\]), a type tree is compiled
//! once into a compact loop structure with three node kinds:
//!
//! * [`Dataloop::Leaf`] — a dense run of bytes (contiguous children are
//!   coalesced into leaves at compile time),
//! * [`Dataloop::Strided`] — `count` copies of a child at a fixed byte
//!   stride (covers `contiguous`, `vector`, `hvector`),
//! * [`Dataloop::Seq`] — a heterogeneous sequence of `(offset, child)`
//!   entries with a stream-offset prefix table (covers `indexed`,
//!   `struct`).
//!
//! The key operation is [`Dataloop::emit`]: enumerate the contiguous
//! memory blocks of an arbitrary **stream-offset range** `[lo, hi)`.
//! This is the "partial datatype processing" of §4.3.1 — a segment
//! pack/unpack starts and stops at arbitrary byte positions without
//! touching the rest of the type, in `O(depth + blocks in range)` time.

use crate::typ::{Datatype, TypeKind};

/// A compiled dataloop node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Dataloop {
    /// `len` dense bytes at relative offset 0.
    Leaf {
        /// Length of the dense run.
        len: u64,
    },
    /// `count` copies of `child`, copy `i` at byte offset `i * stride`.
    Strided {
        /// Number of copies.
        count: u64,
        /// Byte stride between copies (may be negative).
        stride: i64,
        /// Bytes of stream data per copy (cached `child.stream_size()`).
        child_size: u64,
        /// Inner loop.
        child: Box<Dataloop>,
    },
    /// Heterogeneous children at explicit offsets, in typemap order.
    Seq {
        /// `(byte offset, child)` entries.
        entries: Vec<(i64, Dataloop)>,
        /// Exclusive prefix sums of child stream sizes; `prefix[i]` is
        /// the stream offset where entry `i` begins. Length =
        /// `entries.len() + 1`; the last element is the total size.
        prefix: Vec<u64>,
    },
}

impl Dataloop {
    /// Bytes of packed stream data this loop produces.
    pub fn stream_size(&self) -> u64 {
        match self {
            Dataloop::Leaf { len } => *len,
            Dataloop::Strided {
                count, child_size, ..
            } => count * child_size,
            Dataloop::Seq { prefix, .. } => *prefix.last().unwrap_or(&0),
        }
    }

    /// Number of loop nodes (compilation quality metric).
    pub fn node_count(&self) -> usize {
        match self {
            Dataloop::Leaf { .. } => 1,
            Dataloop::Strided { child, .. } => 1 + child.node_count(),
            Dataloop::Seq { entries, .. } => {
                1 + entries.iter().map(|(_, c)| c.node_count()).sum::<usize>()
            }
        }
    }

    /// Compiles a datatype into its dataloop.
    pub fn compile(ty: &Datatype) -> Dataloop {
        match ty.kind() {
            TypeKind::Primitive(p) => Dataloop::Leaf { len: p.size() },
            TypeKind::Contiguous { count, child } => {
                Self::strided(*count, child.extent(), Self::compile(child), child)
            }
            TypeKind::Hvector {
                count,
                blocklen,
                stride_bytes,
                child,
            } => {
                let inner = Self::strided(*blocklen, child.extent(), Self::compile(child), child);
                Self::strided_raw(*count, *stride_bytes, inner)
            }
            TypeKind::Hindexed { blocks, child } => {
                let cl = Self::compile(child);
                let entries = blocks
                    .iter()
                    .filter(|&&(l, _)| l * child.size() > 0)
                    .map(|&(l, d)| (d, Self::strided(l, child.extent(), cl.clone(), child)))
                    .collect();
                Self::seq(entries)
            }
            TypeKind::Struct { fields } => {
                let entries = fields
                    .iter()
                    .filter(|(l, _, t)| l * t.size() > 0)
                    .map(|(l, d, t)| (*d, Self::strided(*l, t.extent(), Self::compile(t), t)))
                    .collect();
                Self::seq(entries)
            }
            TypeKind::Resized { child } => Self::compile(child),
        }
    }

    /// Builds `count` copies of `inner` at the *child extent* stride,
    /// coalescing into a leaf when the layout is dense.
    fn strided(count: u64, child_extent: i64, inner: Dataloop, child: &Datatype) -> Dataloop {
        // Dense when: the child is a leaf covering its whole extent, so
        // consecutive copies form one run.
        if let Dataloop::Leaf { len } = inner {
            if child_extent >= 0 && child_extent as u64 == len && child.lb() == 0 {
                return Dataloop::Leaf { len: count * len };
            }
        }
        Self::strided_raw(count, child_extent, inner)
    }

    /// Builds `count` copies of `inner` at `stride` bytes, simplifying
    /// trivial cases (count 0/1, dense leaf runs).
    fn strided_raw(count: u64, stride: i64, inner: Dataloop) -> Dataloop {
        if count == 0 || inner.stream_size() == 0 {
            return Dataloop::Leaf { len: 0 };
        }
        if count == 1 {
            return inner;
        }
        if let Dataloop::Leaf { len } = inner {
            if stride >= 0 && stride as u64 == len {
                return Dataloop::Leaf { len: count * len };
            }
        }
        let child_size = inner.stream_size();
        Dataloop::Strided {
            count,
            stride,
            child_size,
            child: Box::new(inner),
        }
    }

    /// Builds a sequence node, coalescing adjacent dense leaves and
    /// unwrapping singletons at offset 0.
    fn seq(entries: Vec<(i64, Dataloop)>) -> Dataloop {
        let mut out: Vec<(i64, Dataloop)> = Vec::with_capacity(entries.len());
        for (off, dl) in entries {
            if dl.stream_size() == 0 {
                continue;
            }
            if let (Some((po, Dataloop::Leaf { len: pl })), Dataloop::Leaf { len }) =
                (out.last_mut(), &dl)
            {
                if *po + *pl as i64 == off {
                    *pl += len;
                    continue;
                }
            }
            out.push((off, dl));
        }
        if out.is_empty() {
            return Dataloop::Leaf { len: 0 };
        }
        if out.len() == 1 && out[0].0 == 0 {
            return out.pop().unwrap().1;
        }
        let mut prefix = Vec::with_capacity(out.len() + 1);
        let mut acc = 0u64;
        prefix.push(0);
        for (_, dl) in &out {
            acc += dl.stream_size();
            prefix.push(acc);
        }
        Dataloop::Seq {
            entries: out,
            prefix,
        }
    }

    /// Enumerates the contiguous memory blocks corresponding to stream
    /// offsets `[lo, hi)`. Each block is reported as
    /// `(memory offset relative to the instance origin + base, length)`,
    /// in typemap (pack) order. Blocks adjacent in memory are *not*
    /// merged here; use [`BlockCollector`] when coalescing is wanted.
    pub fn emit<F: FnMut(i64, u64)>(&self, lo: u64, hi: u64, base: i64, f: &mut F) {
        debug_assert!(hi <= self.stream_size() && lo <= hi);
        if lo >= hi {
            return;
        }
        match self {
            Dataloop::Leaf { .. } => {
                // Within a dense leaf, memory offset == stream offset.
                f(base + lo as i64, hi - lo);
            }
            Dataloop::Strided {
                stride,
                child_size,
                child,
                ..
            } => {
                let first = lo / child_size;
                let last = (hi - 1) / child_size;
                for i in first..=last {
                    let cbase = base + i as i64 * stride;
                    let clo = lo.saturating_sub(i * child_size).min(*child_size);
                    let chi = (hi - i * child_size).min(*child_size);
                    child.emit(clo, chi, cbase, f);
                }
            }
            Dataloop::Seq { entries, prefix } => {
                // First entry whose end is beyond lo.
                let start = match prefix.binary_search(&lo) {
                    Ok(i) => i,
                    Err(i) => i - 1,
                };
                for (i, (off, dl)) in entries.iter().enumerate().skip(start) {
                    let ebase = prefix[i];
                    if ebase >= hi {
                        break;
                    }
                    let clo = lo.saturating_sub(ebase).min(dl.stream_size());
                    let chi = (hi - ebase).min(dl.stream_size());
                    dl.emit(clo, chi, base + off, f);
                }
            }
        }
    }
}

/// Collects emitted blocks, merging runs that are adjacent both in the
/// stream and in memory — the canonical flattened form.
#[derive(Debug, Default)]
pub struct BlockCollector {
    blocks: Vec<(i64, u64)>,
}

impl BlockCollector {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one block.
    pub fn push(&mut self, off: i64, len: u64) {
        if len == 0 {
            return;
        }
        if let Some((po, pl)) = self.blocks.last_mut() {
            if *po + *pl as i64 == off {
                *pl += len;
                return;
            }
        }
        self.blocks.push((off, len));
    }

    /// The collected blocks.
    pub fn into_blocks(self) -> Vec<(i64, u64)> {
        self.blocks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prim::Primitive;

    fn blocks_of(dl: &Dataloop, lo: u64, hi: u64) -> Vec<(i64, u64)> {
        let mut c = BlockCollector::new();
        dl.emit(lo, hi, 0, &mut |o, l| c.push(o, l));
        c.into_blocks()
    }

    #[test]
    fn primitive_compiles_to_leaf() {
        let dl = Dataloop::compile(&Datatype::int());
        assert_eq!(dl, Dataloop::Leaf { len: 4 });
    }

    #[test]
    fn contiguous_coalesces_to_leaf() {
        let t = Datatype::contiguous(1000, &Datatype::double()).unwrap();
        let dl = Dataloop::compile(&t);
        assert_eq!(dl, Dataloop::Leaf { len: 8000 });
    }

    #[test]
    fn vector_compiles_to_strided_leaf() {
        let t = Datatype::vector(128, 4, 4096, &Datatype::int()).unwrap();
        let dl = Dataloop::compile(&t);
        match &dl {
            Dataloop::Strided {
                count,
                stride,
                child,
                ..
            } => {
                assert_eq!(*count, 128);
                assert_eq!(*stride, 4096 * 4);
                assert_eq!(**child, Dataloop::Leaf { len: 16 });
            }
            other => panic!("expected strided, got {other:?}"),
        }
        assert_eq!(dl.stream_size(), 128 * 16);
        assert_eq!(dl.node_count(), 2);
    }

    #[test]
    fn dense_vector_collapses() {
        let t = Datatype::vector(16, 8, 8, &Datatype::int()).unwrap();
        assert_eq!(Dataloop::compile(&t), Dataloop::Leaf { len: 512 });
    }

    #[test]
    fn full_emit_matches_layout() {
        let t = Datatype::vector(3, 2, 5, &Datatype::int()).unwrap();
        let dl = Dataloop::compile(&t);
        assert_eq!(
            blocks_of(&dl, 0, dl.stream_size()),
            vec![(0, 8), (20, 8), (40, 8)]
        );
    }

    #[test]
    fn partial_emit_mid_block() {
        let t = Datatype::vector(3, 2, 5, &Datatype::int()).unwrap();
        let dl = Dataloop::compile(&t);
        // Stream bytes [3, 13): tail of block 0 (5 bytes at mem 3),
        // head of block 1 (5 bytes at mem 20).
        assert_eq!(blocks_of(&dl, 3, 13), vec![(3, 5), (20, 5)]);
    }

    #[test]
    fn partial_emit_exact_boundaries() {
        let t = Datatype::vector(4, 1, 3, &Datatype::int()).unwrap();
        let dl = Dataloop::compile(&t);
        assert_eq!(blocks_of(&dl, 4, 8), vec![(12, 4)]);
        assert_eq!(blocks_of(&dl, 8, 16), vec![(24, 4), (36, 4)]);
    }

    #[test]
    fn empty_range_emits_nothing() {
        let t = Datatype::vector(4, 1, 3, &Datatype::int()).unwrap();
        let dl = Dataloop::compile(&t);
        assert!(blocks_of(&dl, 8, 8).is_empty());
    }

    #[test]
    fn struct_compiles_to_seq() {
        let t = Datatype::struct_(&[
            (2, 0, Datatype::int()),
            (1, 16, Datatype::double()),
            (4, 32, Datatype::primitive(Primitive::Byte)),
        ])
        .unwrap();
        let dl = Dataloop::compile(&t);
        assert_eq!(
            blocks_of(&dl, 0, dl.stream_size()),
            vec![(0, 8), (16, 8), (32, 4)]
        );
        // Partial: skip the first field and half the double.
        assert_eq!(blocks_of(&dl, 12, 20), vec![(20, 4), (32, 4)]);
    }

    #[test]
    fn adjacent_struct_fields_coalesce() {
        let t = Datatype::struct_(&[(2, 0, Datatype::int()), (2, 8, Datatype::int())]).unwrap();
        assert_eq!(Dataloop::compile(&t), Dataloop::Leaf { len: 16 });
    }

    #[test]
    fn zero_size_fields_skipped() {
        let t = Datatype::struct_(&[(0, 0, Datatype::int()), (1, 8, Datatype::int())]).unwrap();
        let dl = Dataloop::compile(&t);
        assert_eq!(blocks_of(&dl, 0, 4), vec![(8, 4)]);
    }

    #[test]
    fn indexed_partial_emit_uses_prefix() {
        let t = Datatype::indexed(&[(1, 0), (2, 4), (1, 10)], &Datatype::int()).unwrap();
        let dl = Dataloop::compile(&t);
        // Stream: [0,4)->mem 0; [4,12)->mem 16..24; [12,16)->mem 40.
        assert_eq!(blocks_of(&dl, 0, 16), vec![(0, 4), (16, 8), (40, 4)]);
        assert_eq!(blocks_of(&dl, 6, 14), vec![(18, 6), (40, 2)]);
    }

    #[test]
    fn negative_stride_emit() {
        let t = Datatype::vector(3, 1, -2, &Datatype::int()).unwrap();
        let dl = Dataloop::compile(&t);
        assert_eq!(blocks_of(&dl, 0, 12), vec![(0, 4), (-8, 4), (-16, 4)]);
    }

    #[test]
    fn nested_vector_of_vector() {
        let inner = Datatype::vector(2, 1, 2, &Datatype::int()).unwrap(); // 2 ints 8B apart
        let outer = Datatype::hvector(2, 1, 100, &inner).unwrap();
        let dl = Dataloop::compile(&outer);
        assert_eq!(
            blocks_of(&dl, 0, 16),
            vec![(0, 4), (8, 4), (100, 4), (108, 4)]
        );
        // Partial across the outer boundary.
        assert_eq!(blocks_of(&dl, 6, 10), vec![(10, 2), (100, 2)]);
    }

    #[test]
    fn resized_does_not_change_loop() {
        let v = Datatype::vector(2, 1, 4, &Datatype::int()).unwrap();
        let r = Datatype::resized(&v, -8, 64).unwrap();
        assert_eq!(Dataloop::compile(&v), Dataloop::compile(&r));
    }

    #[test]
    fn collector_merges_memory_adjacent_runs() {
        let mut c = BlockCollector::new();
        c.push(0, 4);
        c.push(4, 4);
        c.push(10, 2);
        c.push(0, 0); // ignored
        assert_eq!(c.into_blocks(), vec![(0, 8), (10, 2)]);
    }
}
