//! The backend-neutral transport abstraction.
//!
//! [`Fabric`]'s post/handle/poll surface was already channel-shaped;
//! this module names that shape as an object-safe trait so the MPI
//! layer (`mpicore::progress` / `mpicore::cluster`) can drive any
//! byte-moving backend — the InfiniBand fabric, the shared-memory
//! channel of [`crate::shm`], or future backends (e.g. a lossy
//! TCP-like transport) — through one `&mut dyn Transport`.
//!
//! Design constraints, in order:
//!
//! * **Bit identity of the IB path.** `impl Transport for Fabric`
//!   forwards every method to the existing inherent method; dynamic
//!   dispatch costs host time only, never virtual time, so every
//!   committed `results/*.csv` is unchanged by the refactor. The
//!   forwarding shims allocate nothing, preserving the persistent-eager
//!   0 allocs/op gate.
//! * **Object safety.** The inherent methods are generic over the
//!   event sink (`F: FnMut(Time, NicEvent)`); the trait narrows that
//!   to `&mut dyn FnMut(Time, NicEvent)`, which the call sites'
//!   closures coerce into for free.
//! * **Optional capabilities degrade, not panic.** Fault injection,
//!   QP lifecycle and crash-stop membership are IB-fabric features; a
//!   backend without them answers the queries with the inert values
//!   ("no faults, nothing errored, everyone alive") so the protocol
//!   layer needs no per-backend branches.

use crate::fabric::{Fabric, FabricStats, NicEvent, NodeMem};
use crate::fault::FaultPlan;
use crate::wr::{Cqe, PostError, RecvWr, SendWr};
use ibdt_simcore::resource::SerialResource;
use ibdt_simcore::time::Time;

/// Coarse transport family, the first key of the §6 adaptive scheme
/// selector's `(transport, datatype class, size)` decision (see
/// `mpicore::plan::adaptive_choose`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransportClass {
    /// InfiniBand RC verbs: registration-gated zero copy pays off.
    Ib,
    /// Shared memory, double-copy bounce segment: every byte is copied
    /// twice regardless of scheme, so zero-copy schemes buy nothing.
    ShmDouble,
    /// Shared memory, CMA-style single copy: direct cross-process
    /// copies with a per-syscall setup cost.
    ShmSingle,
}

impl TransportClass {
    /// True for the shared-memory families.
    pub fn is_shm(self) -> bool {
        !matches!(self, TransportClass::Ib)
    }
}

/// Which backend an embedding cluster builds (the
/// `ClusterSpec.transport` knob).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum TransportConfig {
    /// The InfiniBand fabric (the paper's setting; the default).
    #[default]
    Ib,
    /// The shared-memory channel with the given cost model.
    Shm(crate::shm::ShmConfig),
}

/// The surface `mpicore` drives a backend through. Every method mirrors
/// the [`Fabric`] inherent method of the same name (see its docs for
/// semantics); `class` is the only addition.
pub trait Transport {
    /// Which transport family this backend belongs to (keys the
    /// adaptive scheme selection).
    fn class(&self) -> TransportClass;

    /// Posts one send work request on the channel `node -> peer`.
    fn post_send(
        &mut self,
        ready_at: Time,
        node: u32,
        peer: u32,
        wr: SendWr,
        mems: &[NodeMem],
        sink: &mut dyn FnMut(Time, NicEvent),
    ) -> Result<(), PostError>;

    /// Posts a list of send descriptors in one call.
    fn post_send_list(
        &mut self,
        ready_at: Time,
        node: u32,
        peer: u32,
        wrs: Vec<SendWr>,
        mems: &[NodeMem],
        sink: &mut dyn FnMut(Time, NicEvent),
    ) -> Result<(), PostError>;

    /// Posts a receive descriptor on the channel `node <- peer`.
    fn post_recv(
        &mut self,
        now: Time,
        node: u32,
        peer: u32,
        wr: RecvWr,
        mems: &[NodeMem],
        sink: &mut dyn FnMut(Time, NicEvent),
    ) -> Result<(), PostError>;

    /// Handles a transport event, appending now-visible completions to
    /// `out` (not cleared here).
    fn handle(
        &mut self,
        now: Time,
        ev: NicEvent,
        mems: &mut [NodeMem],
        sink: &mut dyn FnMut(Time, NicEvent),
        out: &mut Vec<(u32, Cqe)>,
    );

    /// Acknowledges `n` completions consumed from `node`'s CQ.
    fn cq_consume(&mut self, node: u32, n: usize);

    /// High-water mark of `node`'s CQ occupancy.
    fn cq_peak(&self, node: u32) -> usize;

    /// Receive descriptors currently posted on `node <- peer`.
    fn recvq_len(&self, node: u32, peer: u32) -> usize;

    /// Installs a fault plan. Backends without fault injection accept
    /// only the inert plan.
    fn set_fault_plan(&mut self, plan: FaultPlan);

    /// True when fault injection is active.
    fn faults_active(&self) -> bool;

    /// The installed fault plan, if any.
    fn fault_plan(&self) -> Option<&FaultPlan>;

    /// Pre-scheduled fault events (port/node down/up instants).
    fn fault_events(&self) -> Vec<(Time, NicEvent)>;

    /// True when the directional channel `node -> peer` errored.
    fn qp_errored(&self, node: u32, peer: u32) -> bool;

    /// Tears down and re-establishes the errored channel `node -> peer`.
    fn reestablish_qp(&mut self, node: u32, peer: u32);

    /// True when `node` is crash-stopped.
    fn node_down(&self, node: u32) -> bool;

    /// True when a crashed `node` will restart later.
    fn node_will_restart(&self, node: u32) -> bool;

    /// Aggregate transport counters.
    fn stats(&self) -> FabricStats;

    /// Per-node transport counters.
    fn node_stats(&self) -> &[FabricStats];

    /// The per-node transmit/copy engine (traced; feeds the
    /// pack/wire-overlap statistic).
    fn tx_engine(&self, node: u32) -> &SerialResource;

    /// Transfers the backend holds between post and delivery, flush or
    /// discard.
    fn in_flight(&self) -> usize;
}

impl Transport for Fabric {
    fn class(&self) -> TransportClass {
        TransportClass::Ib
    }

    fn post_send(
        &mut self,
        ready_at: Time,
        node: u32,
        peer: u32,
        wr: SendWr,
        mems: &[NodeMem],
        sink: &mut dyn FnMut(Time, NicEvent),
    ) -> Result<(), PostError> {
        Fabric::post_send(self, ready_at, node, peer, wr, mems, &mut |t, e| sink(t, e))
    }

    fn post_send_list(
        &mut self,
        ready_at: Time,
        node: u32,
        peer: u32,
        wrs: Vec<SendWr>,
        mems: &[NodeMem],
        sink: &mut dyn FnMut(Time, NicEvent),
    ) -> Result<(), PostError> {
        Fabric::post_send_list(self, ready_at, node, peer, wrs, mems, &mut |t, e| {
            sink(t, e)
        })
    }

    fn post_recv(
        &mut self,
        now: Time,
        node: u32,
        peer: u32,
        wr: RecvWr,
        mems: &[NodeMem],
        sink: &mut dyn FnMut(Time, NicEvent),
    ) -> Result<(), PostError> {
        Fabric::post_recv(self, now, node, peer, wr, mems, &mut |t, e| sink(t, e))
    }

    fn handle(
        &mut self,
        now: Time,
        ev: NicEvent,
        mems: &mut [NodeMem],
        sink: &mut dyn FnMut(Time, NicEvent),
        out: &mut Vec<(u32, Cqe)>,
    ) {
        Fabric::handle(self, now, ev, mems, &mut |t, e| sink(t, e), out)
    }

    fn cq_consume(&mut self, node: u32, n: usize) {
        Fabric::cq_consume(self, node, n)
    }

    fn cq_peak(&self, node: u32) -> usize {
        Fabric::cq_peak(self, node)
    }

    fn recvq_len(&self, node: u32, peer: u32) -> usize {
        Fabric::recvq_len(self, node, peer)
    }

    fn set_fault_plan(&mut self, plan: FaultPlan) {
        Fabric::set_fault_plan(self, plan)
    }

    fn faults_active(&self) -> bool {
        Fabric::faults_active(self)
    }

    fn fault_plan(&self) -> Option<&FaultPlan> {
        Fabric::fault_plan(self)
    }

    fn fault_events(&self) -> Vec<(Time, NicEvent)> {
        Fabric::fault_events(self)
    }

    fn qp_errored(&self, node: u32, peer: u32) -> bool {
        Fabric::qp_errored(self, node, peer)
    }

    fn reestablish_qp(&mut self, node: u32, peer: u32) {
        Fabric::reestablish_qp(self, node, peer)
    }

    fn node_down(&self, node: u32) -> bool {
        Fabric::node_down(self, node)
    }

    fn node_will_restart(&self, node: u32) -> bool {
        Fabric::node_will_restart(self, node)
    }

    fn stats(&self) -> FabricStats {
        Fabric::stats(self)
    }

    fn node_stats(&self) -> &[FabricStats] {
        Fabric::node_stats(self)
    }

    fn tx_engine(&self, node: u32) -> &SerialResource {
        Fabric::tx_engine(self, node)
    }

    fn in_flight(&self) -> usize {
        Fabric::in_flight(self)
    }
}
