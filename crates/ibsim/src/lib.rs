#![warn(missing_docs)]
//! Functional + timed InfiniBand Verbs simulator.
//!
//! Models the verbs features the paper's schemes rely on (§2):
//!
//! * **channel semantics** — send/receive with pre-posted receive
//!   descriptors consumed in FIFO order,
//! * **memory semantics** — one-sided RDMA Write and RDMA Read with
//!   protection-key checks at the responder,
//! * **Write Gather / Read Scatter** — up to
//!   [`model::NetConfig::max_sge`] scatter/gather elements per work
//!   request (the Mellanox SDK limit of 64 cited in §5.1),
//! * **RDMA Write with Immediate data** — consumes a receive descriptor
//!   and generates a remote completion (the segment-arrival notification
//!   of §4.3.2),
//! * **list descriptor post** — the extended interface of §7.4 that
//!   posts a list of descriptors in one call.
//!
//! The simulator is *functional*: every operation really moves bytes
//! between [`memreg`](ibdt_memreg) address spaces, with lkey/rkey
//! validation against the owning rank's registration table. It is also
//! *timed*: each verb charges a calibrated cost ([`model::NetConfig`]) on
//! the sender's NIC engine and the link, so protocol schedules built on
//! top reproduce latency/bandwidth shapes.
//!
//! Timing fidelity notes (see DESIGN.md §5): the sender CPU cost of
//! posting is charged by the *caller* (the MPI progress engine owns the
//! CPU resource); the receive-side DMA placement cost is folded into the
//! per-WQE constants; RC ordering is preserved because each NIC transmit
//! engine is a FIFO resource.

mod deliver;
pub mod fabric;
pub mod fault;
pub mod model;
pub mod payload;
pub mod shm;
pub mod transport;
pub mod wr;

pub use fabric::{Fabric, FabricStats, NicEvent, NodeMem, QpState, QpTransitionError};
pub use fault::{FaultPlan, FaultRateError, LinkFault, NodeFault};
pub use model::{DeviceConfig, HostConfig, HostConfigError, NetConfig, RNR_RETRY_INFINITE};
pub use payload::Payload;
pub use shm::{ShmChannel, ShmConfig, ShmConfigError, ShmCopyMode};
pub use transport::{Transport, TransportClass, TransportConfig};
pub use wr::{Cqe, CqeStatus, Opcode, PostError, RecvWr, SendWr, Sge, SgeList};
