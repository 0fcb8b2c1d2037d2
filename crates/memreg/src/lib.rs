#![warn(missing_docs)]
//! Simulated host memory and memory registration.
//!
//! InfiniBand requires every buffer touched by the HCA to be *registered*
//! (pinned and translated) beforehand; registration is expensive and its
//! cost model is central to the paper's analysis (§3.2, §5.4.1, §8.6).
//! This crate provides:
//!
//! * [`addr::AddressSpace`] — a per-rank flat memory backed by a real
//!   `Vec<u8>`; RDMA operations in the simulator genuinely move bytes
//!   between address spaces, so data correctness is testable,
//! * [`table::RegTable`] — registered memory regions with lkey/rkey
//!   protection checks, mirroring verbs memory-region semantics,
//! * [`cost::RegCostModel`] — base + per-page registration and
//!   deregistration costs,
//! * [`cache::PindownCache`] — the pin-down cache of Tezuka et al.
//!   (ref \[12\]) used to amortize registration across reused buffers,
//! * [`ogr`] — Optimistic Group Registration (ref \[33\]): grouping a list
//!   of noncontiguous blocks into few registered regions using a cost
//!   model that trades per-region base cost against registering gap
//!   pages.

pub mod addr;
pub mod cache;
pub mod cost;
pub mod error;
pub mod ogr;
pub mod table;
pub mod tier;

pub use addr::{AddressSpace, Va};
pub use cache::PindownCache;
pub use cost::RegCostModel;
pub use error::MemError;
pub use table::{MrHandle, RegTable, Registration};
pub use tier::TierMap;
