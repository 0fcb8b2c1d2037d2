#![warn(missing_docs)]
//! MPI derived datatype engine.
//!
//! Implements the datatype machinery the paper's schemes depend on:
//!
//! * [`typ`] — the type constructors of MPI-1 (`contiguous`, `vector`,
//!   `hvector`, `indexed`, `hindexed`, `indexed_block`, `struct`,
//!   `resized`, plus `subarray` built from them) with MPI extent/lb/ub
//!   semantics,
//! * [`dataloop`] — compilation of a type tree into *dataloops*
//!   (Ross/Miller/Gropp, ref \[26\]): a compact loop representation with
//!   leaf coalescing, used for O(depth) partial traversal,
//! * [`segment`] — **partial datatype processing** (§4.3.1) by a direct
//!   dataloop walk: packing and unpacking of arbitrary stream-offset
//!   ranges. Production paths use [`plan`]; `Segment` is kept as the
//!   independent oracle the plan-equivalence and property tests compare
//!   against,
//! * [`flat`] — flattening to `<offset, length>` tuple lists (§5.4.2),
//!   block statistics for adaptive scheme selection (§6), and the wire
//!   serialization of layouts sent to the peer in Multi-W,
//! * [`cache`] — the versioned datatype cache (§5.4.2, after Träff et
//!   al., ref \[14\]): type indices, version bumps on index reuse, and the
//!   sender-side layout cache,
//! * [`plan`] — compiled transfer plans: per-(type, count) precomputed
//!   run lists with prefix-sum resume indexes, memoized on the type
//!   value ([`Datatype::plan`]; two spellings of one layout compile
//!   separately) and shared across every message and chunk of that
//!   shape so the hot path never re-walks the dataloop; this is
//!   what lets BC-SPUP and RWG-UP start and stop packing at segment
//!   boundaries,
//! * [`kernel`] — specialized copy kernels (contiguous, constant-stride,
//!   two-level blocked, generic) classified from the merged block list
//!   at plan-compile time and executed symmetrically by pack and unpack.
//!
//! All offsets are `i64` (MPI displacements may be negative); a buffer
//! address names the element with offset 0.

pub mod cache;
pub mod dataloop;
pub mod flat;
pub mod kernel;
pub mod plan;
pub mod prim;
pub mod segment;
pub mod typ;

pub use cache::{LayoutCache, TypeRegistry};
pub use flat::{BlockStats, FlatLayout};
pub use kernel::CopyKernel;
pub use plan::{PlanLookup, TransferPlan};
pub use prim::Primitive;
pub use segment::Segment;
pub use typ::{Datatype, TypeError};
