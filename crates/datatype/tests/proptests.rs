//! Randomized model-based tests for the datatype engine.
//!
//! The generator builds a random type tree *together with* an
//! independent reference model: the flat list of byte offsets each
//! primitive element occupies, computed directly from the MPI typemap
//! rules without going through dataloops. Every property then checks
//! the engine against this reference. Driven by [`ibdt_testkit`]
//! seeded cases (the workspace builds offline, without proptest).

use ibdt_datatype::{Datatype, FlatLayout, Segment, TransferPlan};
use ibdt_testkit::{cases, Rng};

/// A datatype plus the byte offsets of its typemap, in pack order.
#[derive(Debug, Clone)]
struct Model {
    ty: Datatype,
    /// Byte offsets (relative to datatype origin) in pack order.
    bytes: Vec<i64>,
}

fn prim_model(rng: &mut Rng) -> Model {
    let p = rng.pick(&[
        ibdt_datatype::Primitive::Byte,
        ibdt_datatype::Primitive::Short,
        ibdt_datatype::Primitive::Int,
        ibdt_datatype::Primitive::Double,
    ]);
    Model {
        bytes: (0..p.size() as i64).collect(),
        ty: Datatype::primitive(p),
    }
}

fn shift(bytes: &[i64], d: i64) -> Vec<i64> {
    bytes.iter().map(|b| b + d).collect()
}

/// One random derived layer over `m`. Mirrors the MPI typemap rules
/// independently of the engine's dataloop machinery. Returns `None`
/// when the random parameters are rejected by the constructor.
fn derive(rng: &mut Rng, m: &Model) -> Option<Model> {
    match rng.range_u64(0, 5) {
        0 => {
            let count = rng.range_u64(0, 4);
            let ty = Datatype::contiguous(count, &m.ty).ok()?;
            let ext = m.ty.extent();
            let mut bytes = Vec::new();
            for i in 0..count as i64 {
                bytes.extend(shift(&m.bytes, i * ext));
            }
            Some(Model { ty, bytes })
        }
        1 => {
            let count = rng.range_u64(1, 4);
            let blocklen = rng.range_u64(1, 4);
            let stride = rng.range_i64(-48, 64);
            let ty = Datatype::hvector(count, blocklen, stride, &m.ty).ok()?;
            let ext = m.ty.extent();
            let mut bytes = Vec::new();
            for i in 0..count as i64 {
                for j in 0..blocklen as i64 {
                    bytes.extend(shift(&m.bytes, i * stride + j * ext));
                }
            }
            Some(Model { ty, bytes })
        }
        2 => {
            let nblocks = rng.range_usize(1, 4);
            let blocks: Vec<(u64, i64)> = (0..nblocks)
                .map(|_| (rng.range_u64(0, 3), rng.range_i64(-64, 128)))
                .collect();
            let ty = Datatype::hindexed(&blocks, &m.ty).ok()?;
            let ext = m.ty.extent();
            let mut bytes = Vec::new();
            for &(l, d) in &blocks {
                for j in 0..l as i64 {
                    bytes.extend(shift(&m.bytes, d + j * ext));
                }
            }
            Some(Model { ty, bytes })
        }
        3 => {
            // Struct of this model and a fresh independent one.
            let b = model(rng);
            let d2 = rng.range_i64(0, 128);
            let l1 = rng.range_u64(1, 3);
            let l2 = rng.range_u64(1, 3);
            let fields = [(l1, 0i64, m.ty.clone()), (l2, d2, b.ty.clone())];
            let ty = Datatype::struct_(&fields).ok()?;
            let mut bytes = Vec::new();
            for (l, d, src) in [(l1, 0i64, m), (l2, d2, &b)] {
                let ext = src.ty.extent();
                for j in 0..l as i64 {
                    bytes.extend(shift(&src.bytes, d + j * ext));
                }
            }
            Some(Model { ty, bytes })
        }
        _ => {
            let lb = rng.range_i64(-32, 32);
            let ext = rng.range_i64(0, 256);
            let ty = Datatype::resized(&m.ty, lb, ext).ok()?;
            Some(Model {
                ty,
                bytes: m.bytes.clone(),
            })
        }
    }
}

/// Random model: a primitive wrapped in 0..=3 derived layers.
fn model(rng: &mut Rng) -> Model {
    let mut m = prim_model(rng);
    let layers = rng.range_u64(0, 4);
    for _ in 0..layers {
        // Rejected parameter combinations keep the previous layer.
        if let Some(next) = derive(rng, &m) {
            m = next;
        }
    }
    m
}

/// Layout of the buffer needed to hold `count` instances: returns
/// `(buf_base, buf_len)` such that every element fits.
fn buffer_for(m: &Model, count: u64) -> (usize, usize) {
    // True bounds (not lb/ub): `resized` may shrink the declared extent
    // below the data's real span.
    let ext = m.ty.extent();
    let lo = m.ty.true_lb().min(0);
    let hi = (count.saturating_sub(1)) as i64 * ext + m.ty.true_ub().max(0);
    let base = (-lo) as usize + 16;
    let len = base + hi.max(0) as usize + 16;
    (base, len)
}

/// Reference pack: gather bytes of all instances in typemap order.
fn reference_pack(m: &Model, count: u64, buf: &[u8], base: usize) -> Vec<u8> {
    let ext = m.ty.extent();
    let mut out = Vec::with_capacity((count * m.ty.size()) as usize);
    for i in 0..count as i64 {
        for &b in &m.bytes {
            out.push(buf[(base as i64 + i * ext + b) as usize]);
        }
    }
    out
}

#[test]
fn size_matches_reference() {
    cases(0xD7A0_0001, 256, |rng| {
        let m = model(rng);
        assert_eq!(m.ty.size(), m.bytes.len() as u64);
    });
}

#[test]
fn bounds_cover_typemap() {
    cases(0xD7A0_0002, 256, |rng| {
        // All elements lie within [lb, ub] unless resized shrank them —
        // the un-resized typemap is what `bytes` models, so check only
        // that size-consistent blocks exist.
        let m = model(rng);
        let flat = m.ty.flat();
        let total: u64 = flat.blocks.iter().map(|&(_, l)| l).sum();
        assert_eq!(total, m.ty.size());
    });
}

#[test]
fn flat_blocks_match_reference_bytes() {
    cases(0xD7A0_0003, 256, |rng| {
        // Expanding the flattened blocks byte-by-byte must equal the
        // reference typemap byte sequence.
        let m = model(rng);
        let expanded: Vec<i64> =
            m.ty.flat()
                .blocks
                .iter()
                .flat_map(|&(o, l)| o..o + l as i64)
                .collect();
        assert_eq!(expanded, m.bytes);
    });
}

#[test]
fn whole_pack_matches_reference() {
    cases(0xD7A0_0004, 256, |rng| {
        let m = model(rng);
        let count = rng.range_u64(1, 4);
        let seed = rng.next_u64();
        let (base, len) = buffer_for(&m, count);
        let buf: Vec<u8> = (0..len)
            .map(|i| ((i as u64).wrapping_mul(seed | 1) >> 3) as u8)
            .collect();
        let seg = Segment::new(&m.ty, count);
        let n = seg.total_bytes();
        let mut packed = vec![0u8; n as usize];
        seg.pack(0, n, &buf, base, &mut packed).unwrap();
        assert_eq!(packed, reference_pack(&m, count, &buf, base));
    });
}

#[test]
fn segmented_pack_equals_whole() {
    cases(0xD7A0_0005, 256, |rng| {
        let m = model(rng);
        let count = rng.range_u64(1, 4);
        let (base, len) = buffer_for(&m, count);
        let buf: Vec<u8> = (0..len).map(|i| (i % 253) as u8).collect();
        let seg = Segment::new(&m.ty, count);
        let n = seg.total_bytes();
        let mut whole = vec![0u8; n as usize];
        seg.pack(0, n, &buf, base, &mut whole).unwrap();

        let ncuts = rng.range_usize(0, 6);
        let mut points: Vec<u64> = (0..ncuts).map(|_| rng.range_u64(0, n + 1)).collect();
        points.push(0);
        points.push(n);
        points.sort_unstable();
        let mut pieces = vec![0u8; n as usize];
        for w in points.windows(2) {
            let (lo, hi) = (w[0], w[1]);
            seg.pack(lo, hi, &buf, base, &mut pieces[lo as usize..hi as usize])
                .unwrap();
        }
        assert_eq!(pieces, whole);
    });
}

#[test]
fn unpack_restores_exactly_datatype_bytes() {
    cases(0xD7A0_0006, 256, |rng| {
        let m = model(rng);
        let count = rng.range_u64(1, 3);
        let (base, len) = buffer_for(&m, count);
        // Self-overlapping typemaps are legal to send but erroneous to
        // receive into (MPI-1 §3.12.5); the round-trip property only
        // holds for non-overlapping layouts.
        let ext = m.ty.extent();
        let mut positions: Vec<i64> = (0..count as i64)
            .flat_map(|i| m.bytes.iter().map(move |&b| i * ext + b))
            .collect();
        let total = positions.len();
        positions.sort_unstable();
        positions.dedup();
        if positions.len() != total {
            return; // overlapping layout: skip this case
        }

        let seg = Segment::new(&m.ty, count);
        let n = seg.total_bytes();
        let stream: Vec<u8> = (0..n).map(|i| (i % 241) as u8).collect();
        let mut buf = vec![0xEEu8; len];
        seg.unpack(0, n, &stream, &mut buf, base).unwrap();
        // Re-pack what we unpacked: must round-trip.
        let mut repacked = vec![0u8; n as usize];
        seg.pack(0, n, &buf, base, &mut repacked).unwrap();
        assert_eq!(repacked, stream);
        // Bytes outside the typemap are untouched.
        let mut touched = vec![false; len];
        seg.for_each_block(0, n, |off, l| {
            for p in off..off + l as i64 {
                touched[(base as i64 + p) as usize] = true;
            }
        })
        .unwrap();
        for (i, &t) in touched.iter().enumerate() {
            if !t {
                assert_eq!(buf[i], 0xEE, "byte {i} was touched");
            }
        }
    });
}

#[test]
fn layout_serialization_roundtrip() {
    cases(0xD7A0_0007, 256, |rng| {
        let m = model(rng);
        let f = m.ty.flat();
        let dec = FlatLayout::decode(&f.encode()).unwrap();
        assert_eq!(*f.as_ref(), dec);
    });
}

#[test]
fn block_stats_consistent() {
    cases(0xD7A0_0008, 256, |rng| {
        let m = model(rng);
        let count = rng.range_u64(1, 4);
        let s = m.ty.flat().stats(count);
        assert_eq!(s.total, count * m.ty.size());
        if s.count > 0 {
            assert!(s.min <= s.median && s.median <= s.max);
            assert!(s.mean >= s.min as f64 && s.mean <= s.max as f64);
        }
    });
}

#[test]
fn repeat_fast_paths_match_naive_collector() {
    cases(0xD7A0_0009, 512, |rng| {
        let m = model(rng);
        let count = rng.range_u64(0, 6);
        let f = m.ty.flat();
        assert_eq!(
            f.repeat(count),
            f.repeat_naive(count),
            "type {:?} count {count}",
            m.ty
        );
    });
}

#[test]
fn coalesced_and_naive_blocks_cover_identical_bytes() {
    cases(0xD7A0_000A, 256, |rng| {
        // The coalesced (merged) list and the naive unmerged emission
        // must describe exactly the same multiset of memory bytes, in
        // the same pack order.
        let m = model(rng);
        let count = rng.range_u64(1, 4);
        let seg = Segment::new(&m.ty, count);
        let mut naive: Vec<i64> = Vec::new();
        seg.for_each_block(0, seg.total_bytes(), |o, l| {
            naive.extend(o..o + l as i64);
        })
        .unwrap();
        let coalesced: Vec<i64> = seg
            .blocks()
            .iter()
            .flat_map(|&(o, l)| o..o + l as i64)
            .collect();
        assert_eq!(coalesced, naive);
    });
}

#[test]
fn wide_block_kernels_equal_naive_walk() {
    cases(0xD7A0_000C, 192, |rng| {
        // Shapes wide enough to engage the vectorized strided kernels
        // (blocks past the 32-byte SIMD threshold), with bases that
        // sweep every destination alignment class including odd ones.
        // The small trees in `model()` never reach these paths.
        let rows = rng.range_u64(1, 12);
        let cols = rng.range_u64(1, 40); // ×4 B → blocks up to 160 B
        let stride = (cols + rng.range_u64(0, 40)) as i64;
        let v = Datatype::vector(rows, cols, stride, &Datatype::int()).unwrap();
        let (ty, count) = match rng.range_u64(0, 3) {
            // Plain vector: ConstStride (or Contig when stride==cols).
            0 => (v, rng.range_u64(1, 3)),
            // Padded extent + repetition: TwoLevel.
            1 => {
                let pad = rng.range_i64(0, 64) * 4;
                let ty = Datatype::resized(&v, 0, v.extent() + pad).unwrap();
                (ty, rng.range_u64(2, 4))
            }
            // Vector-of-vector with its own outer stride: TwoLevel or
            // Generic depending on seam adjacency.
            _ => {
                let outer = v.extent() + rng.range_i64(0, 48) * 4;
                let ty = Datatype::hvector(rng.range_u64(1, 3), 1, outer, &v).unwrap();
                (ty, 1)
            }
        };
        let seg = Segment::new(&ty, count);
        let plan = TransferPlan::compile(&ty, count);
        let n = plan.total_bytes();
        let base = rng.range_usize(0, 65);
        let (_, max_end) = plan.envelope();
        let len = base + max_end as usize + 7;
        let buf: Vec<u8> = (0..len).map(|i| (i % 241) as u8).collect();

        // Pack: plan kernels must match the naive segment walk bit for
        // bit, whole-message and on partial ranges.
        let mut sa = vec![0u8; n as usize];
        let mut pa = vec![0u8; n as usize];
        seg.pack(0, n, &buf, base, &mut sa).unwrap();
        plan.pack(0, n, &buf, base, &mut pa).unwrap();
        assert_eq!(pa, sa, "pack diverged (kernel {:?})", plan.kernel());

        // Unpack: scatter the stream into two independent buffers; the
        // kernel path must leave them identical, gaps included.
        let mut ua = vec![0xEEu8; len];
        let mut ub = vec![0xEEu8; len];
        seg.unpack(0, n, &sa, &mut ua, base).unwrap();
        plan.unpack(0, n, &sa, &mut ub, base).unwrap();
        assert_eq!(ub, ua, "unpack diverged (kernel {:?})", plan.kernel());

        // Partial ranges resume mid-block and clip first/last blocks.
        for _ in 0..3 {
            let lo = rng.range_u64(0, n + 1);
            let hi = rng.range_u64(lo, n + 1);
            let mut sp = vec![0u8; (hi - lo) as usize];
            let mut pp = vec![0u8; (hi - lo) as usize];
            seg.pack(lo, hi, &buf, base, &mut sp).unwrap();
            plan.pack(lo, hi, &buf, base, &mut pp).unwrap();
            assert_eq!(pp, sp, "partial pack [{lo},{hi})");
            let mut up = vec![0xEEu8; len];
            let mut uq = vec![0xEEu8; len];
            seg.unpack(lo, hi, &sp, &mut up, base).unwrap();
            plan.unpack(lo, hi, &sp, &mut uq, base).unwrap();
            assert_eq!(uq, up, "partial unpack [{lo},{hi})");
        }
    });
}

#[test]
fn bench_shape_const_stride_equals_naive_walk() {
    // The x1 sweep shape: vector(128, 64, 4096, int) — 128
    // blocks of 256 B at a 16 KiB stride. Large enough that the AVX2
    // kernel's software prefetch runs several blocks ahead of the
    // copy; the walk must stay byte-identical to the naive segment
    // path at every destination alignment class.
    let ty = Datatype::vector(128, 64, 4096, &Datatype::int()).unwrap();
    let seg = Segment::new(&ty, 1);
    let plan = TransferPlan::compile(&ty, 1);
    let n = plan.total_bytes();
    let (_, max_end) = plan.envelope();
    for base in [0usize, 1, 31, 63] {
        let len = base + max_end as usize;
        let buf: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
        let mut sa = vec![0u8; n as usize];
        let mut pa = vec![0u8; n as usize];
        seg.pack(0, n, &buf, base, &mut sa).unwrap();
        plan.pack(0, n, &buf, base, &mut pa).unwrap();
        assert_eq!(pa, sa, "pack diverged at base {base}");
        let mut ua = vec![0xEEu8; len];
        let mut ub = vec![0xEEu8; len];
        seg.unpack(0, n, &sa, &mut ua, base).unwrap();
        plan.unpack(0, n, &sa, &mut ub, base).unwrap();
        assert_eq!(ub, ua, "unpack diverged at base {base}");
    }
}

#[test]
fn transfer_plan_equals_segment_on_random_schedules() {
    cases(0xD7A0_000B, 256, |rng| {
        let m = model(rng);
        let count = rng.range_u64(1, 5);
        let seg = Segment::new(&m.ty, count);
        let plan = TransferPlan::compile(&m.ty, count);
        assert_eq!(plan.total_bytes(), seg.total_bytes());
        assert_eq!(plan.blocks(), seg.blocks().as_slice());
        let n = seg.total_bytes();
        // Random chunk schedule: blocks, counts, and pack bytes must be
        // bit-identical per chunk.
        let ncuts = rng.range_usize(0, 6);
        let mut points: Vec<u64> = (0..ncuts).map(|_| rng.range_u64(0, n + 1)).collect();
        points.push(0);
        points.push(n);
        points.sort_unstable();
        let (base, len) = buffer_for(&m, count.max(1));
        let buf: Vec<u8> = (0..len).map(|i| (i % 239) as u8).collect();
        for w in points.windows(2) {
            let (lo, hi) = (w[0], w[1]);
            let mut sb = Vec::new();
            seg.for_each_block(lo, hi, |o, l| sb.push((o, l))).unwrap();
            let mut pb = Vec::new();
            plan.for_each_block(lo, hi, |o, l| pb.push((o, l))).unwrap();
            assert_eq!(pb, sb, "blocks differ on [{lo},{hi})");
            assert_eq!(
                plan.block_count_in(lo, hi).unwrap(),
                seg.block_count_in(lo, hi).unwrap()
            );
            let mut sa = vec![0u8; (hi - lo) as usize];
            let mut pa = vec![0u8; (hi - lo) as usize];
            let se = seg.pack(lo, hi, &buf, base, &mut sa);
            let pe = plan.pack(lo, hi, &buf, base, &mut pa);
            assert_eq!(se.is_ok(), pe.is_ok());
            if se.is_ok() {
                assert_eq!(pa, sa);
            }
        }
    });
}
