#![warn(missing_docs)]
//! Deterministic discrete-event simulation core.
//!
//! This crate provides the virtual-time substrate that the InfiniBand
//! verbs simulator (`ibdt-ibsim`) and the MPI runtime
//! (`ibdt-mpicore`) are built on:
//!
//! * [`time`] — virtual nanoseconds and conversion helpers,
//! * [`queue`] — a total-ordered event queue (`(time, seq)` ordering, so
//!   identical inputs replay identically),
//! * [`resource`] — FIFO "busy-until" serial resources modelling a host
//!   CPU, a NIC processing engine, or a network link,
//! * [`trace`] — span recording for resources, used to *prove* overlap
//!   (e.g. that BC-SPUP really pipelines packing against the wire),
//! * [`engine`] — a small driver loop tying a user "world" to the queue,
//! * [`slab`] — a generational slab arena giving in-flight records
//!   stable handles without per-message hashing or allocation,
//! * [`inline`] — inline small-vector storage (fixed cap, heap spill)
//!   for the short gather lists the hot paths build per descriptor,
//! * [`paged`] — two-level paged sparse-dense tables so per-pair state
//!   costs memory proportional to *touched* pairs, not n²,
//! * [`shard`] — a conservative (lookahead-windowed) parallel driver
//!   that runs one large simulation across cores with results
//!   bit-identical to the sequential order.
//!
//! The design goal is reproducibility: a simulation is a pure function of
//! its inputs. There is no wall-clock, no global state and no
//! nondeterministic iteration order anywhere in this crate.

pub mod engine;
pub mod inline;
pub mod paged;
pub mod pipeline;
pub mod queue;
pub mod resource;
pub mod shard;
pub mod slab;
pub mod time;
pub mod trace;

pub use engine::{Engine, World};
pub use inline::InlineVec;
pub use paged::{PagedTable, PAGE};
pub use pipeline::{two_stage_finish_ns, MAX_PIPELINE_BUFS};
pub use queue::{EventQueue, HeapQueue};
pub use resource::SerialResource;
pub use shard::{run_indexed, ShardSim, ShardWorld};
pub use slab::{Handle, Slab};
pub use time::{Time, GIGA, KILO, MEGA};
pub use trace::{Span, Trace};
