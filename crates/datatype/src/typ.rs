//! Derived datatype constructors and MPI extent semantics.
//!
//! A [`Datatype`] is an immutable, cheaply clonable handle (an `Arc`) to
//! a type tree. Constructors mirror MPI-1: `contiguous`, `vector`,
//! `hvector`, `indexed`, `indexed_block`, `hindexed`, `struct`,
//! `resized`; `subarray` is provided as a convenience built from the
//! core constructors.
//!
//! Every type knows its `size` (bytes of real data), `lb`/`ub`
//! (lower/upper bound of its typemap, possibly negative/overridden by
//! `resized`) and `extent = ub - lb`, which is the stride used when an
//! array of the type is sent (`count > 1`).
//!
//! What is derived from a type — dataloop, flat layout, canonical
//! spelling and, per count, its compiled plan ([`Datatype::plan`]) — is
//! built on first use and kept on the type's node.

use crate::dataloop::Dataloop;
use crate::flat::FlatLayout;
use crate::plan::{PlanLookup, TransferPlan};
use crate::prim::Primitive;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Errors from datatype construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TypeError {
    /// A displacement or extent computation overflowed `i64`.
    Overflow,
    /// A constructed type would have negative extent (ub < lb without a
    /// `resized` override), which this implementation does not support.
    NegativeExtent,
    /// `struct_` was called with mismatched array lengths.
    LengthMismatch,
    /// A distribution argument was invalid (`darray`).
    InvalidArgument,
}

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TypeError::Overflow => write!(f, "datatype displacement overflow"),
            TypeError::NegativeExtent => write!(f, "datatype would have negative extent"),
            TypeError::LengthMismatch => write!(f, "struct arrays have different lengths"),
            TypeError::InvalidArgument => write!(f, "invalid distribution argument"),
        }
    }
}

impl std::error::Error for TypeError {}

/// The node kinds of a type tree.
#[derive(Debug)]
pub(crate) enum TypeKind {
    /// A primitive leaf.
    Primitive(Primitive),
    /// `count` children laid out end to end (stride = child extent).
    Contiguous { count: u64, child: Datatype },
    /// `count` blocks of `blocklen` children, block `i` displaced by
    /// `i * stride_bytes`.
    Hvector {
        count: u64,
        blocklen: u64,
        stride_bytes: i64,
        child: Datatype,
    },
    /// Blocks of `(blocklen, byte displacement)` pairs.
    Hindexed {
        blocks: Vec<(u64, i64)>,
        child: Datatype,
    },
    /// Heterogeneous fields: `(blocklen, byte displacement, type)`.
    Struct { fields: Vec<(u64, i64, Datatype)> },
    /// Child with overridden lb/extent.
    Resized { child: Datatype },
}

/// Interior node data. Reached through [`Datatype`] only.
pub(crate) struct TypeNode {
    pub(crate) kind: TypeKind,
    id: u64,
    size: u64,
    lb: i64,
    ub: i64,
    depth: u32,
    loop_cache: OnceLock<Arc<Dataloop>>,
    flat_cache: OnceLock<Arc<FlatLayout>>,
    /// Canonicalization result: `None` once computed means this type
    /// *is* its canonical form (avoids an `Arc` self-cycle).
    canon_cache: OnceLock<Option<Datatype>>,
    plans: Mutex<PlanMemo>,
}

/// Counts one type keeps compiled plans for. A program sends a type at
/// a handful of counts; a ninth count displaces the oldest plan.
const PLAN_SLOTS: usize = 8;

/// Compiled plans of one type, one per count, filled and displaced in
/// insertion order.
#[derive(Default)]
struct PlanMemo {
    slots: [Option<Arc<TransferPlan>>; PLAN_SLOTS],
    /// The slot the next compile fills.
    next: usize,
}

impl fmt::Debug for TypeNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TypeNode")
            .field("kind", &self.kind)
            .field("size", &self.size)
            .field("lb", &self.lb)
            .field("ub", &self.ub)
            .finish()
    }
}

static NEXT_TYPE_ID: AtomicU64 = AtomicU64::new(1);

/// An immutable MPI datatype handle.
#[derive(Clone, Debug)]
pub struct Datatype(pub(crate) Arc<TypeNode>);

fn ck(v: i128) -> Result<i64, TypeError> {
    i64::try_from(v).map_err(|_| TypeError::Overflow)
}

impl Datatype {
    fn build(kind: TypeKind, size: u64, lb: i64, ub: i64, depth: u32) -> Result<Self, TypeError> {
        if ub < lb {
            return Err(TypeError::NegativeExtent);
        }
        Ok(Datatype(Arc::new(TypeNode {
            kind,
            id: NEXT_TYPE_ID.fetch_add(1, Ordering::Relaxed),
            size,
            lb,
            ub,
            depth,
            loop_cache: OnceLock::new(),
            flat_cache: OnceLock::new(),
            canon_cache: OnceLock::new(),
            plans: Mutex::default(),
        })))
    }

    /// A primitive type.
    pub fn primitive(p: Primitive) -> Self {
        Self::build(TypeKind::Primitive(p), p.size(), 0, p.size() as i64, 0)
            .expect("primitive types are always valid")
    }

    /// `MPI_BYTE`.
    pub fn byte() -> Self {
        Self::primitive(Primitive::Byte)
    }
    /// `MPI_INT`.
    pub fn int() -> Self {
        Self::primitive(Primitive::Int)
    }
    /// `MPI_FLOAT`.
    pub fn float() -> Self {
        Self::primitive(Primitive::Float)
    }
    /// `MPI_DOUBLE`.
    pub fn double() -> Self {
        Self::primitive(Primitive::Double)
    }

    /// `MPI_Type_contiguous(count, child)`.
    pub fn contiguous(count: u64, child: &Datatype) -> Result<Self, TypeError> {
        let (lb, ub) = if count == 0 {
            (0, 0)
        } else {
            let ext = child.extent() as i128;
            let last = ck((count as i128 - 1) * ext)?;
            span_union(&[(0, child.lb(), child.ub()), (last, child.lb(), child.ub())])?
        };
        Self::build(
            TypeKind::Contiguous {
                count,
                child: child.clone(),
            },
            count * child.size(),
            lb,
            ub,
            child.depth() + 1,
        )
    }

    /// `MPI_Type_vector(count, blocklen, stride, child)` — stride in
    /// units of the child extent.
    ///
    /// ```
    /// use ibdt_datatype::Datatype;
    /// // The paper's motivating type: x columns of a 128 x 4096 int
    /// // array (here x = 4).
    /// let t = Datatype::vector(128, 4, 4096, &Datatype::int()).unwrap();
    /// assert_eq!(t.size(), 128 * 4 * 4);        // data bytes
    /// assert_eq!(t.num_blocks(), 128);          // one block per row
    /// assert!(!t.is_contiguous());
    /// ```
    pub fn vector(
        count: u64,
        blocklen: u64,
        stride: i64,
        child: &Datatype,
    ) -> Result<Self, TypeError> {
        let stride_bytes = ck(stride as i128 * child.extent() as i128)?;
        Self::hvector(count, blocklen, stride_bytes, child)
    }

    /// `MPI_Type_create_hvector(count, blocklen, stride_bytes, child)`.
    pub fn hvector(
        count: u64,
        blocklen: u64,
        stride_bytes: i64,
        child: &Datatype,
    ) -> Result<Self, TypeError> {
        let size = count * blocklen * child.size();
        let (lb, ub) = if count == 0 || blocklen == 0 {
            (0, 0)
        } else {
            let ext = child.extent() as i128;
            let block_last = ck((blocklen as i128 - 1) * ext)?;
            let row_last = ck((count as i128 - 1) * stride_bytes as i128)?;
            // Corners of the displacement lattice suffice: displacements
            // are affine in (i, j) with i in [0, count), j in [0,
            // blocklen), and extents are non-negative.
            span_union(&[
                (0, child.lb(), child.ub()),
                (block_last, child.lb(), child.ub()),
                (row_last, child.lb(), child.ub()),
                (
                    ck(row_last as i128 + block_last as i128)?,
                    child.lb(),
                    child.ub(),
                ),
            ])?
        };
        Self::build(
            TypeKind::Hvector {
                count,
                blocklen,
                stride_bytes,
                child: child.clone(),
            },
            size,
            lb,
            ub,
            child.depth() + 1,
        )
    }

    /// `MPI_Type_indexed(blocklens, displs, child)` — displacements in
    /// units of the child extent.
    pub fn indexed(blocks: &[(u64, i64)], child: &Datatype) -> Result<Self, TypeError> {
        let ext = child.extent() as i128;
        let byte_blocks = blocks
            .iter()
            .map(|&(l, d)| Ok((l, ck(d as i128 * ext)?)))
            .collect::<Result<Vec<_>, TypeError>>()?;
        Self::hindexed(&byte_blocks, child)
    }

    /// `MPI_Type_create_indexed_block(blocklen, displs, child)`.
    pub fn indexed_block(
        blocklen: u64,
        displs: &[i64],
        child: &Datatype,
    ) -> Result<Self, TypeError> {
        let blocks: Vec<(u64, i64)> = displs.iter().map(|&d| (blocklen, d)).collect();
        Self::indexed(&blocks, child)
    }

    /// `MPI_Type_create_hindexed(blocklens, byte displs, child)`.
    pub fn hindexed(blocks: &[(u64, i64)], child: &Datatype) -> Result<Self, TypeError> {
        let mut size = 0u64;
        let mut spans: Vec<(i64, i64, i64)> = Vec::with_capacity(blocks.len() * 2);
        let ext = child.extent() as i128;
        for &(blocklen, displ) in blocks {
            size += blocklen * child.size();
            if blocklen == 0 {
                continue;
            }
            let last = ck(displ as i128 + (blocklen as i128 - 1) * ext)?;
            spans.push((displ, child.lb(), child.ub()));
            spans.push((last, child.lb(), child.ub()));
        }
        let (lb, ub) = if spans.is_empty() {
            (0, 0)
        } else {
            span_union(&spans)?
        };
        Self::build(
            TypeKind::Hindexed {
                blocks: blocks.to_vec(),
                child: child.clone(),
            },
            size,
            lb,
            ub,
            child.depth() + 1,
        )
    }

    /// `MPI_Type_create_struct(blocklens, byte displs, types)`.
    pub fn struct_(fields: &[(u64, i64, Datatype)]) -> Result<Self, TypeError> {
        let mut size = 0u64;
        let mut spans: Vec<(i64, i64, i64)> = Vec::with_capacity(fields.len() * 2);
        let mut depth = 0;
        for (blocklen, displ, ty) in fields {
            size += blocklen * ty.size();
            depth = depth.max(ty.depth());
            if *blocklen == 0 {
                continue;
            }
            let last = ck(*displ as i128 + (*blocklen as i128 - 1) * ty.extent() as i128)?;
            spans.push((*displ, ty.lb(), ty.ub()));
            spans.push((last, ty.lb(), ty.ub()));
        }
        let (lb, ub) = if spans.is_empty() {
            (0, 0)
        } else {
            span_union(&spans)?
        };
        Self::build(
            TypeKind::Struct {
                fields: fields.to_vec(),
            },
            size,
            lb,
            ub,
            depth + 1,
        )
    }

    /// `MPI_Type_create_resized(child, lb, extent)`.
    pub fn resized(child: &Datatype, lb: i64, extent: i64) -> Result<Self, TypeError> {
        if extent < 0 {
            return Err(TypeError::NegativeExtent);
        }
        let ub = lb.checked_add(extent).ok_or(TypeError::Overflow)?;
        Self::build(
            TypeKind::Resized {
                child: child.clone(),
            },
            child.size(),
            lb,
            ub,
            child.depth() + 1,
        )
    }

    /// `MPI_Type_create_subarray` (C order): selects the
    /// `subsizes`-shaped region starting at `starts` out of a
    /// `sizes`-shaped array of `child`. The resulting type is resized to
    /// the full array extent so that `count > 1` strides over whole
    /// arrays, as in MPI.
    pub fn subarray(
        sizes: &[u64],
        subsizes: &[u64],
        starts: &[u64],
        child: &Datatype,
    ) -> Result<Self, TypeError> {
        if sizes.len() != subsizes.len() || sizes.len() != starts.len() || sizes.is_empty() {
            return Err(TypeError::LengthMismatch);
        }
        for d in 0..sizes.len() {
            if starts[d] + subsizes[d] > sizes[d] {
                return Err(TypeError::Overflow);
            }
        }
        let n = sizes.len();
        let e = child.extent() as i128;
        // Row-major: stride of dimension d (bytes between consecutive
        // indices in dim d) is prod(sizes[d+1..]) * extent.
        let mut strides = vec![0i128; n];
        let mut acc = e;
        for d in (0..n).rev() {
            strides[d] = acc;
            acc = acc
                .checked_mul(sizes[d] as i128)
                .ok_or(TypeError::Overflow)?;
        }
        let full_extent = ck(acc)?;
        // Innermost: contiguous run of subsizes[n-1] children.
        let mut t = Datatype::contiguous(subsizes[n - 1], child)?;
        for d in (0..n - 1).rev() {
            t = Datatype::hvector(subsizes[d], 1, ck(strides[d])?, &t)?;
        }
        // Shift to the start corner.
        let mut offset = 0i128;
        for d in 0..n {
            offset += starts[d] as i128 * strides[d];
        }
        let t = Datatype::hindexed(&[(1, ck(offset)?)], &t)?;
        Datatype::resized(&t, 0, full_extent)
    }

    /// `MPI_Type_create_darray` (C order): the datatype selecting, from
    /// a row-major `gsizes`-shaped global array, the elements owned by
    /// `rank` in a `psizes` process grid under per-dimension
    /// [`Distribution`]s. The result is resized to the full global
    /// array, so `count > 1` strides over whole arrays; the typemap is
    /// in local-array (row-major, ascending-index) order as the MPI
    /// standard requires.
    pub fn darray(
        size: u32,
        rank: u32,
        gsizes: &[u64],
        distribs: &[Distribution],
        psizes: &[u32],
        child: &Datatype,
    ) -> Result<Self, TypeError> {
        let n = gsizes.len();
        if n == 0 || distribs.len() != n || psizes.len() != n {
            return Err(TypeError::LengthMismatch);
        }
        if psizes.iter().product::<u32>() != size || rank >= size {
            return Err(TypeError::InvalidArgument);
        }
        // Row-major process-grid coordinates.
        let mut coords = vec![0u32; n];
        let mut rest = rank;
        for i in 0..n {
            let below: u32 = psizes[i + 1..].iter().product();
            coords[i] = rest / below;
            rest %= below;
        }
        // Element stride (in elements) of each dimension, row-major.
        let mut strides = vec![1u64; n];
        for i in (0..n - 1).rev() {
            strides[i] = strides[i + 1]
                .checked_mul(gsizes[i + 1])
                .ok_or(TypeError::Overflow)?;
        }
        let e = child.extent();
        // Build inside-out: start from the element type, then wrap each
        // dimension's owned-index selection around it.
        let mut t = child.clone();
        for i in (0..n).rev() {
            let owned = distribs[i].owned_indices(gsizes[i], psizes[i], coords[i])?;
            let stride_bytes = ck(strides[i] as i128 * e as i128)?;
            // Represent as hindexed over the owned indices; dense runs
            // coalesce in the dataloop, so Block costs nothing extra.
            let blocks: Vec<(u64, i64)> = owned
                .iter()
                .map(|&g| Ok((1u64, ck(g as i128 * stride_bytes as i128)?)))
                .collect::<Result<_, TypeError>>()?;
            t = Datatype::hindexed(&blocks, &t)?;
        }
        let mut total_elems = 1i128;
        for &g in gsizes {
            total_elems = total_elems
                .checked_mul(g as i128)
                .filter(|v| *v <= i64::MAX as i128)
                .ok_or(TypeError::Overflow)?;
        }
        let total = ck(total_elems * e as i128)?;
        Datatype::resized(&t, 0, total)
    }

    /// Unique id of this type object (not structural equality).
    pub fn id(&self) -> u64 {
        self.0.id
    }

    /// Bytes of real data in one instance.
    pub fn size(&self) -> u64 {
        self.0.size
    }

    /// Lower bound of the typemap (bytes, possibly negative).
    pub fn lb(&self) -> i64 {
        self.0.lb
    }

    /// Upper bound of the typemap (bytes).
    pub fn ub(&self) -> i64 {
        self.0.ub
    }

    /// Extent = ub - lb; the stride between consecutive instances.
    pub fn extent(&self) -> i64 {
        self.0.ub - self.0.lb
    }

    /// Tree depth (primitives are 0).
    pub fn depth(&self) -> u32 {
        self.0.depth
    }

    /// The compiled dataloop (built on first use, then cached).
    pub fn dataloop(&self) -> &Arc<Dataloop> {
        self.0
            .loop_cache
            .get_or_init(|| Arc::new(Dataloop::compile(self)))
    }

    /// The flattened `<offset, len>` layout of one instance (cached).
    pub fn flat(&self) -> &Arc<FlatLayout> {
        self.0
            .flat_cache
            .get_or_init(|| Arc::new(FlatLayout::of(self)))
    }

    /// The compiled plan for `count` instances, and how it was served.
    /// Plans are memoized on the type, so every rank and every run that
    /// sends this type value at this count shares one `Arc`;
    /// structurally equal types never share a plan. Compilation happens
    /// under the memo's lock, so concurrent lookups compile once.
    pub fn plan(&self, count: u64) -> (Arc<TransferPlan>, PlanLookup) {
        // Only `compile` can panic under the lock, and it runs before
        // any slot changes, so a poisoned memo still holds valid plans.
        let mut memo = self.0.plans.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(plan) = memo.slots.iter().flatten().find(|p| p.count() == count) {
            return (plan.clone(), PlanLookup::Hit);
        }
        let plan = Arc::new(TransferPlan::compile(self, count));
        let next = memo.next;
        memo.next = (next + 1) % PLAN_SLOTS;
        let how = match memo.slots[next].replace(plan.clone()) {
            Some(_) => PlanLookup::Displaced,
            None => PlanLookup::Compiled,
        };
        (plan, how)
    }

    /// Number of contiguous blocks in one instance after coalescing.
    pub fn num_blocks(&self) -> usize {
        self.flat().blocks.len()
    }

    /// True lower bound: smallest byte offset actually holding data
    /// (`MPI_Type_get_true_extent`). Unlike [`Self::lb`], this is never
    /// moved by `resized`. Zero for empty types.
    pub fn true_lb(&self) -> i64 {
        self.flat()
            .blocks
            .iter()
            .map(|&(o, _)| o)
            .min()
            .unwrap_or(0)
    }

    /// True upper bound: one past the largest byte offset holding data.
    /// Zero for empty types.
    pub fn true_ub(&self) -> i64 {
        self.flat()
            .blocks
            .iter()
            .map(|&(o, l)| o + l as i64)
            .max()
            .unwrap_or(0)
    }

    /// True extent = `true_ub - true_lb`: the memory span of the data.
    pub fn true_extent(&self) -> i64 {
        self.true_ub() - self.true_lb()
    }

    /// True when one instance is a single dense block starting at
    /// offset 0 with extent == size (i.e. behaves like raw bytes).
    pub fn is_contiguous(&self) -> bool {
        self.size() == 0
            || (self.extent() as u64 == self.size()
                && self.lb() == 0
                && self.num_blocks() == 1
                && self.flat().blocks[0] == (0, self.size()))
    }

    pub(crate) fn kind(&self) -> &TypeKind {
        &self.0.kind
    }

    /// The canonical spelling of this layout (see [`crate::canon`]):
    /// every type describing the same merged block list and `(lb, ub)`
    /// bounds resolves to one shared handle, so plans looked up through
    /// it ([`Self::plan`]) are shared across spellings. Returns `self` (same
    /// id) when this type is the first spelling of its layout seen.
    /// Computed once per node, then cached.
    pub fn canonical(&self) -> Datatype {
        match self
            .0
            .canon_cache
            .get_or_init(|| crate::canon::canonical_of(self))
        {
            None => self.clone(),
            Some(c) => c.clone(),
        }
    }

    /// The single primitive this type is built from, when every leaf is
    /// the same primitive (the precondition for element-wise reduction
    /// operations). `None` for mixed structs.
    pub fn uniform_primitive(&self) -> Option<Primitive> {
        match &self.0.kind {
            TypeKind::Primitive(p) => Some(*p),
            TypeKind::Contiguous { child, .. }
            | TypeKind::Hvector { child, .. }
            | TypeKind::Hindexed { child, .. }
            | TypeKind::Resized { child } => child.uniform_primitive(),
            TypeKind::Struct { fields } => {
                let mut out: Option<Primitive> = None;
                for (_, _, t) in fields {
                    let p = t.uniform_primitive()?;
                    match out {
                        None => out = Some(p),
                        Some(q) if q == p => {}
                        Some(_) => return None,
                    }
                }
                out
            }
        }
    }
}

/// Per-dimension distribution for [`Datatype::darray`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Distribution {
    /// `MPI_DISTRIBUTE_NONE`: the dimension is not distributed.
    None,
    /// `MPI_DISTRIBUTE_BLOCK` with an explicit block size (`None` for
    /// the default `ceil(gsize / psize)`).
    Block(Option<u64>),
    /// `MPI_DISTRIBUTE_CYCLIC` with chunk size `k`.
    Cyclic(u64),
}

impl Distribution {
    /// Global indices along one dimension owned by grid coordinate `c`,
    /// ascending (== local order).
    fn owned_indices(self, gsize: u64, psize: u32, c: u32) -> Result<Vec<u64>, TypeError> {
        let p = psize as u64;
        let c = c as u64;
        match self {
            Distribution::None => {
                if psize != 1 {
                    return Err(TypeError::InvalidArgument);
                }
                Ok((0..gsize).collect())
            }
            Distribution::Block(darg) => {
                let d = match darg {
                    Some(0) => return Err(TypeError::InvalidArgument),
                    Some(d) => d,
                    None => gsize.div_ceil(p),
                };
                if d * p < gsize {
                    return Err(TypeError::InvalidArgument);
                }
                let lo = (c * d).min(gsize);
                let hi = ((c + 1) * d).min(gsize);
                Ok((lo..hi).collect())
            }
            Distribution::Cyclic(k) => {
                if k == 0 {
                    return Err(TypeError::InvalidArgument);
                }
                Ok((0..gsize).filter(|g| (g / k) % p == c).collect())
            }
        }
    }
}

/// Union of `(displacement, child_lb, child_ub)` spans → (lb, ub).
fn span_union(spans: &[(i64, i64, i64)]) -> Result<(i64, i64), TypeError> {
    let mut lb = i128::MAX;
    let mut ub = i128::MIN;
    for &(d, clb, cub) in spans {
        lb = lb.min(d as i128 + clb as i128);
        ub = ub.max(d as i128 + cub as i128);
    }
    Ok((ck(lb)?, ck(ub)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_properties() {
        let t = Datatype::int();
        assert_eq!(t.size(), 4);
        assert_eq!(t.extent(), 4);
        assert_eq!(t.lb(), 0);
        assert!(t.is_contiguous());
        assert_eq!(t.num_blocks(), 1);
    }

    #[test]
    fn contiguous_type() {
        let t = Datatype::contiguous(10, &Datatype::int()).unwrap();
        assert_eq!(t.size(), 40);
        assert_eq!(t.extent(), 40);
        assert!(t.is_contiguous());
        assert_eq!(t.num_blocks(), 1);
    }

    #[test]
    fn empty_contiguous() {
        let t = Datatype::contiguous(0, &Datatype::int()).unwrap();
        assert_eq!(t.size(), 0);
        assert_eq!(t.extent(), 0);
        assert!(t.is_contiguous());
    }

    #[test]
    fn vector_extent_and_size() {
        // The paper's example: MPI_Type_vector(128, x, 4096, MPI_INT).
        let x = 4;
        let t = Datatype::vector(128, x, 4096, &Datatype::int()).unwrap();
        assert_eq!(t.size(), 128 * x * 4);
        // extent: last block starts at 127*4096*4, has x ints.
        assert_eq!(t.extent(), (127 * 4096 + x as i64) * 4);
        assert!(!t.is_contiguous());
        assert_eq!(t.num_blocks(), 128);
    }

    #[test]
    fn vector_with_stride_equal_blocklen_is_contiguous() {
        let t = Datatype::vector(8, 4, 4, &Datatype::int()).unwrap();
        assert_eq!(t.size(), 128);
        assert_eq!(t.extent(), 128);
        assert_eq!(t.num_blocks(), 1);
        assert!(t.is_contiguous());
    }

    #[test]
    fn negative_stride_vector() {
        let t = Datatype::vector(3, 1, -2, &Datatype::int()).unwrap();
        // blocks at 0, -8, -16 bytes.
        assert_eq!(t.lb(), -16);
        assert_eq!(t.ub(), 4);
        assert_eq!(t.extent(), 20);
        assert_eq!(t.size(), 12);
    }

    #[test]
    fn indexed_blocks() {
        let t = Datatype::indexed(&[(2, 0), (3, 10)], &Datatype::int()).unwrap();
        assert_eq!(t.size(), 20);
        assert_eq!(t.lb(), 0);
        assert_eq!(t.ub(), (10 + 3) * 4);
        assert_eq!(t.num_blocks(), 2);
    }

    #[test]
    fn indexed_block_constructor() {
        let t = Datatype::indexed_block(2, &[0, 8, 4], &Datatype::int()).unwrap();
        assert_eq!(t.size(), 24);
        assert_eq!(t.ub(), 40);
    }

    #[test]
    fn hindexed_with_negative_displacement() {
        let t = Datatype::hindexed(&[(1, -8), (1, 8)], &Datatype::double()).unwrap();
        assert_eq!(t.lb(), -8);
        assert_eq!(t.ub(), 16);
        assert_eq!(t.size(), 16);
    }

    #[test]
    fn struct_mixed_fields() {
        // { int[2] at 0, double at 16 }
        let t = Datatype::struct_(&[(2, 0, Datatype::int()), (1, 16, Datatype::double())]).unwrap();
        assert_eq!(t.size(), 16);
        assert_eq!(t.lb(), 0);
        assert_eq!(t.ub(), 24);
        assert_eq!(t.num_blocks(), 2);
    }

    #[test]
    fn resized_overrides_bounds() {
        let base = Datatype::contiguous(3, &Datatype::int()).unwrap();
        let t = Datatype::resized(&base, -4, 32).unwrap();
        assert_eq!(t.lb(), -4);
        assert_eq!(t.ub(), 28);
        assert_eq!(t.extent(), 32);
        assert_eq!(t.size(), 12);
        assert!(!t.is_contiguous());
    }

    #[test]
    fn nested_vector_of_struct() {
        let s = Datatype::struct_(&[(1, 0, Datatype::int()), (1, 8, Datatype::int())]).unwrap();
        let v = Datatype::hvector(4, 1, 16, &s).unwrap();
        assert_eq!(v.size(), 32);
        assert_eq!(v.num_blocks(), 8);
        assert_eq!(v.ub(), 3 * 16 + 12);
    }

    #[test]
    fn subarray_2d() {
        // 4x6 int array, take 2x3 sub-block at (1,2).
        let t = Datatype::subarray(&[4, 6], &[2, 3], &[1, 2], &Datatype::int()).unwrap();
        assert_eq!(t.size(), 2 * 3 * 4);
        assert_eq!(t.extent(), 4 * 6 * 4); // resized to full array
        let blocks = &t.flat().blocks;
        // rows at (1,2) and (2,2): offsets (1*6+2)*4=32 and (2*6+2)*4=56
        assert_eq!(blocks.as_slice(), &[(32, 12), (56, 12)]);
    }

    #[test]
    fn subarray_full_is_whole_array() {
        let t = Datatype::subarray(&[3, 3], &[3, 3], &[0, 0], &Datatype::int()).unwrap();
        assert_eq!(t.size(), 36);
        assert_eq!(t.num_blocks(), 1);
    }

    #[test]
    fn subarray_bad_bounds_rejected() {
        assert!(Datatype::subarray(&[4], &[3], &[2], &Datatype::int()).is_err());
        assert!(Datatype::subarray(&[4, 4], &[2], &[0], &Datatype::int()).is_err());
    }

    #[test]
    fn overflow_detected() {
        let t = Datatype::int();
        assert_eq!(
            Datatype::hvector(2, 1, i64::MAX, &t)
                .and_then(|v| Datatype::hvector(2, 1, i64::MAX, &v))
                .err(),
            Some(TypeError::Overflow)
        );
    }

    #[test]
    fn uniform_primitive_detection() {
        assert_eq!(Datatype::int().uniform_primitive(), Some(Primitive::Int));
        let v = Datatype::vector(4, 2, 8, &Datatype::double()).unwrap();
        assert_eq!(v.uniform_primitive(), Some(Primitive::Double));
        let mixed =
            Datatype::struct_(&[(1, 0, Datatype::int()), (1, 8, Datatype::double())]).unwrap();
        assert_eq!(mixed.uniform_primitive(), None);
        let same = Datatype::struct_(&[(1, 0, Datatype::int()), (2, 8, Datatype::int())]).unwrap();
        assert_eq!(same.uniform_primitive(), Some(Primitive::Int));
    }

    #[test]
    fn ids_are_unique() {
        let a = Datatype::int();
        let b = Datatype::int();
        assert_ne!(a.id(), b.id());
        let c = a.clone();
        assert_eq!(a.id(), c.id());
    }

    fn vec_ty() -> Datatype {
        Datatype::vector(4, 8, 64, &Datatype::int()).unwrap()
    }

    #[test]
    fn plan_repeat_lookup_returns_the_same_arc() {
        let ty = vec_ty();
        let (a, how_a) = ty.plan(3);
        let (b, how_b) = ty.clone().plan(3);
        assert_eq!((how_a, how_b), (PlanLookup::Compiled, PlanLookup::Hit));
        assert!(Arc::ptr_eq(&a, &b), "a clone of the handle shares the memo");
    }

    #[test]
    fn plan_per_count() {
        let ty = vec_ty();
        let (a, _) = ty.plan(3);
        let (c, how) = ty.plan(4);
        assert_eq!(how, PlanLookup::Compiled);
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!((a.count(), c.count()), (3, 4));
        assert_eq!(c.blocks(), ty.flat().repeat(4).as_slice());
        assert!(Arc::ptr_eq(&a, &ty.plan(3).0), "count 3 is still memoized");
    }

    #[test]
    fn ninth_count_displaces_the_oldest() {
        let ty = vec_ty();
        let first: Vec<_> = (1..=PLAN_SLOTS as u64).map(|c| ty.plan(c)).collect();
        assert!(first.iter().all(|(_, how)| *how == PlanLookup::Compiled));
        let (_, how) = ty.plan(PLAN_SLOTS as u64 + 1);
        assert_eq!(how, PlanLookup::Displaced, "the ninth count reports it");
        // Count 1 was the oldest; count 2 survived.
        assert_eq!(ty.plan(2).1, PlanLookup::Hit);
        let (again, how) = ty.plan(1);
        assert_eq!(how, PlanLookup::Displaced, "count 1 was the one displaced");
        assert!(!Arc::ptr_eq(&again, &first[0].0));
    }

    #[test]
    fn structurally_equal_types_never_share_a_plan() {
        let (t1, t2) = (vec_ty(), vec_ty());
        let (a, how_a) = t1.plan(2);
        let (b, how_b) = t2.plan(2);
        assert_eq!((how_a, how_b), (PlanLookup::Compiled, PlanLookup::Compiled));
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(a.blocks(), b.blocks());
    }

    #[test]
    fn concurrent_lookups_compile_one_plan() {
        let ty = vec_ty();
        let start = std::sync::Barrier::new(4);
        let got: Vec<(Arc<TransferPlan>, PlanLookup)> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        ty.plan(5)
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        assert!(got.iter().all(|(p, _)| Arc::ptr_eq(p, &got[0].0)));
        let compiled = got
            .iter()
            .filter(|(_, how)| *how != PlanLookup::Hit)
            .count();
        assert_eq!(compiled, 1, "exactly one thread compiles");
    }
}
