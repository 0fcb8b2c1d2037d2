//! Datatype canonicalization (TEMPI-style, arXiv:2012.14363).
//!
//! Two constructor trees that describe the same byte layout — a
//! `vector` vs the equivalent `hindexed`, a `struct` of one field vs
//! the field itself, nested `contiguous` spellings — compile to
//! identical transfer plans, yet plans memoized per type value
//! ([`Datatype::plan`]) recompile each spelling from scratch. This pass
//! rewrites any tree to a *normal form* derived from its merged flat
//! block list, walking down the specialization hierarchy of
//! arXiv:1607.00178
//! (`contiguous` ≤ `hvector` ≤ `hindexed`):
//!
//! * no blocks → `contiguous(0, byte)`;
//! * one block at offset 0 → `contiguous(len, byte)`;
//! * one displaced block → `hindexed([(len, off)], byte)`;
//! * ≥2 equal-length constant-stride blocks → `hvector` (shifted
//!   through a one-entry `hindexed` when the first block is displaced);
//! * anything else → `hindexed(blocks, byte)`;
//! * finally a `resized` wrapper whenever the original type's
//!   `(lb, ub)` differ from the core's natural bounds.
//!
//! The flat block list is produced by
//! [`FlatLayout::of`](crate::FlatLayout::of) with adjacent blocks
//! already merged, so the normal form's own flattening reproduces the
//! input list exactly — canonicalization is idempotent
//! by construction, and pack/unpack streams (which are functions of
//! the merged block list, size, and bounds alone) are preserved for
//! every count.
//!
//! Equal layouts are *interned* in a bounded process-global table so
//! every spelling of one layout resolves to the same `Datatype`
//! handle (same id), whose plan memo every spelling and every rank
//! then shares.

use crate::typ::Datatype;
use std::collections::HashMap;
use std::sync::Mutex;

/// Layout identity: the merged block list plus the MPI bounds. Two
/// types with equal keys are observationally equivalent under
/// pack/unpack at every count (blocks fix the byte stream and the
/// per-instance advance is `ub - lb`).
#[derive(Hash, PartialEq, Eq)]
struct CanonKey {
    blocks: Vec<(i64, u64)>,
    lb: i64,
    ub: i64,
}

/// Bounded intern table mapping layouts to their canonical handles.
/// Cleared wholesale on overflow: correctness never depends on a hit,
/// only dedup does.
static CANON_TABLE: Mutex<Option<HashMap<CanonKey, Datatype>>> = Mutex::new(None);
const CANON_TABLE_CAP: usize = 512;

/// Computes the canonical handle for `ty`, or `None` when `ty` is its
/// own canonical form (first spelling of its layout seen, or already
/// interned as the canonical one). Called once per type through the
/// node's canon cache.
pub(crate) fn canonical_of(ty: &Datatype) -> Option<Datatype> {
    let flat = ty.flat().clone();
    let key = CanonKey {
        blocks: flat.blocks.clone(),
        lb: ty.lb(),
        ub: ty.ub(),
    };
    let mut guard = CANON_TABLE.lock().unwrap();
    let table = guard.get_or_insert_with(HashMap::new);
    if let Some(hit) = table.get(&key) {
        return if hit.id() == ty.id() {
            None
        } else {
            Some(hit.clone())
        };
    }
    if table.len() >= CANON_TABLE_CAP {
        table.clear();
    }
    let nf = normal_form(ty, &flat.blocks);
    match nf {
        // `ty` already spells the normal form: intern it so later
        // spellings resolve to this very handle.
        None => {
            table.insert(key, ty.clone());
            None
        }
        Some(nf) => {
            table.insert(key, nf.clone());
            Some(nf)
        }
    }
}

/// Builds the normal-form spelling of a merged block list with `ty`'s
/// bounds, or `None` when `ty` itself already has that exact shape.
fn normal_form(ty: &Datatype, blocks: &[(i64, u64)]) -> Option<Datatype> {
    let byte = Datatype::byte();
    let core = match blocks {
        [] => Datatype::contiguous(0, &byte).expect("empty contiguous"),
        [(0, len)] => Datatype::contiguous(*len, &byte).expect("single contiguous"),
        [(off, len)] => Datatype::hindexed(&[(*len, *off)], &byte).expect("single block"),
        _ => {
            let (off0, len0) = blocks[0];
            let stride = blocks[1].0 - off0;
            let regular = blocks
                .iter()
                .enumerate()
                .all(|(i, &(o, l))| l == len0 && o == off0 + i as i64 * stride);
            if regular {
                let hv = Datatype::hvector(blocks.len() as u64, len0, stride, &byte)
                    .expect("regular blocks fit an hvector");
                if off0 == 0 {
                    hv
                } else {
                    Datatype::hindexed(&[(1, off0)], &hv).expect("shifted hvector")
                }
            } else {
                let entries: Vec<(u64, i64)> = blocks.iter().map(|&(o, l)| (l, o)).collect();
                Datatype::hindexed(&entries, &byte).expect("irregular blocks fit an hindexed")
            }
        }
    };
    let wrapped = if core.lb() == ty.lb() && core.ub() == ty.ub() {
        core
    } else {
        Datatype::resized(&core, ty.lb(), ty.ub() - ty.lb()).expect("bounds fit a resize")
    };
    if same_spelling(ty, &wrapped) {
        None
    } else {
        Some(wrapped)
    }
}

/// Structural equality of two constructor trees (same spelling, not
/// just the same layout). Used only to detect that a type is already
/// written in normal form, so the comparison mirrors exactly the
/// shapes `normal_form` can produce.
fn same_spelling(a: &Datatype, b: &Datatype) -> bool {
    use crate::typ::TypeKind as K;
    if a.lb() != b.lb() || a.ub() != b.ub() || a.size() != b.size() {
        return false;
    }
    match (a.kind(), b.kind()) {
        (K::Primitive(pa), K::Primitive(pb)) => pa == pb,
        (
            K::Contiguous {
                count: ca,
                child: la,
            },
            K::Contiguous {
                count: cb,
                child: lb,
            },
        ) => ca == cb && same_spelling(la, lb),
        (
            K::Hvector {
                count: ca,
                blocklen: la,
                stride_bytes: sa,
                child: xa,
            },
            K::Hvector {
                count: cb,
                blocklen: lb,
                stride_bytes: sb,
                child: xb,
            },
        ) => ca == cb && la == lb && sa == sb && same_spelling(xa, xb),
        (
            K::Hindexed {
                blocks: ba,
                child: xa,
            },
            K::Hindexed {
                blocks: bb,
                child: xb,
            },
        ) => ba == bb && same_spelling(xa, xb),
        (K::Resized { child: ca }, K::Resized { child: cb }) => same_spelling(ca, cb),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blocks(ty: &Datatype, count: u64) -> Vec<(i64, u64)> {
        ty.flat().repeat(count)
    }

    #[test]
    fn respelled_vector_shares_one_canonical_handle() {
        let byte = Datatype::byte();
        // The same 4×(256 @ stride 512) layout under three spellings.
        let v = Datatype::hvector(4, 256, 512, &byte).unwrap();
        let hx =
            Datatype::hindexed(&[(256, 0), (256, 512), (256, 1024), (256, 1536)], &byte).unwrap();
        let st = Datatype::struct_(&[
            (1, 0, Datatype::hvector(2, 256, 512, &byte).unwrap()),
            (1, 1024, Datatype::hvector(2, 256, 512, &byte).unwrap()),
        ])
        .unwrap();
        // struct_ carries ub = 1024 + 768 = 1792 while the hvector's ub
        // is 1536 + 256 = 1792: identical bounds, identical blocks.
        let cv = v.canonical();
        let cx = hx.canonical();
        let cs = st.canonical();
        assert_eq!(cv.id(), cx.id(), "hindexed spelling missed the intern");
        assert_eq!(cv.id(), cs.id(), "struct spelling missed the intern");
        for count in [1, 2, 5] {
            assert_eq!(blocks(&v, count), blocks(&cv, count));
        }
    }

    #[test]
    fn canonicalization_is_idempotent() {
        let byte = Datatype::byte();
        let t = Datatype::hindexed(&[(16, 0), (32, 64), (8, 200)], &byte).unwrap();
        let c = t.canonical();
        let cc = c.canonical();
        assert_eq!(c.id(), cc.id(), "canonical form must be a fixed point");
    }

    #[test]
    fn contiguous_collapses_nested_spellings() {
        let byte = Datatype::byte();
        let a = Datatype::contiguous(64, &byte).unwrap();
        let b = Datatype::contiguous(16, &Datatype::contiguous(4, &byte).unwrap()).unwrap();
        let c = Datatype::hvector(8, 8, 8, &byte).unwrap();
        let ca = a.canonical();
        assert_eq!(ca.id(), b.canonical().id());
        assert_eq!(ca.id(), c.canonical().id());
        assert!(ca.is_contiguous());
    }

    #[test]
    fn resized_bounds_are_preserved() {
        let byte = Datatype::byte();
        let t = Datatype::hvector(3, 8, 32, &byte).unwrap();
        let r = Datatype::resized(&t, -8, 128).unwrap();
        let c = r.canonical();
        assert_eq!(c.lb(), -8);
        assert_eq!(c.ub(), 120);
        assert_eq!(c.size(), r.size());
        for count in [1, 3] {
            assert_eq!(blocks(&r, count), blocks(&c, count));
        }
        // Distinct bounds must NOT collide with the unresized layout.
        assert_ne!(c.id(), t.canonical().id());
    }

    #[test]
    fn displaced_regular_blocks_keep_their_shift() {
        let byte = Datatype::byte();
        let t = Datatype::hindexed(&[(64, 128), (64, 384), (64, 640)], &byte).unwrap();
        let c = t.canonical();
        for count in [1, 2] {
            assert_eq!(blocks(&t, count), blocks(&c, count));
        }
        assert_eq!(c.id(), c.canonical().id());
    }

    #[test]
    fn single_field_struct_collapses_to_its_field() {
        let byte = Datatype::byte();
        let inner = Datatype::hvector(4, 16, 64, &byte).unwrap();
        let st = Datatype::struct_(&[(1, 0, inner.clone())]).unwrap();
        assert_eq!(st.canonical().id(), inner.canonical().id());
    }

    #[test]
    fn adjacent_runs_merge_before_canonicalizing() {
        let byte = Datatype::byte();
        // Two touching 32-byte blocks are one 64-byte block.
        let split = Datatype::hindexed(&[(32, 0), (32, 32), (16, 128)], &byte).unwrap();
        let merged = Datatype::hindexed(&[(64, 0), (16, 128)], &byte).unwrap();
        assert_eq!(split.canonical().id(), merged.canonical().id());
    }

    #[test]
    fn different_layouts_never_unify() {
        let byte = Datatype::byte();
        let a = Datatype::hvector(4, 16, 64, &byte).unwrap();
        let b = Datatype::hvector(4, 16, 80, &byte).unwrap();
        assert_ne!(a.canonical().id(), b.canonical().id());
    }

    #[test]
    fn zero_size_type_canonicalizes() {
        let byte = Datatype::byte();
        let t = Datatype::contiguous(0, &byte).unwrap();
        let c = t.canonical();
        assert_eq!(c.size(), 0);
        assert_eq!(c.id(), c.canonical().id());
    }
}
