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
//!   forwards every required method to the existing inherent method;
//!   dynamic dispatch costs host time only, never virtual time, so every
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

    /// Transport counters by node: the only store of every counter,
    /// each event counted once, on the node its [`FabricStats`] field
    /// names.
    fn node_stats(&self) -> &[FabricStats];

    /// Transport counters summed over every node.
    fn stats(&self) -> FabricStats {
        self.node_stats().iter().sum()
    }

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::NetConfig;
    use crate::shm::{ShmChannel, ShmConfig, ShmCopyMode};
    use crate::wr::{Opcode, Sge};

    /// Handles every pending event in time order; every completion
    /// must succeed.
    fn drain(t: &mut dyn Transport, mems: &mut [NodeMem], evs: &mut Vec<(Time, NicEvent)>) {
        let mut out = Vec::new();
        while let Some(i) = (0..evs.len()).min_by_key(|&i| evs[i].0) {
            let (at, ev) = evs.swap_remove(i);
            t.handle(at, ev, mems, &mut |at, e| evs.push((at, e)), &mut out);
        }
        assert!(out.iter().all(|(_, c)| c.status.is_ok()), "{out:?}");
    }

    /// One send that parks for RNR (node 0 to 1), one RDMA write (1 to
    /// 2) and one RDMA read (2 reads from 0) on a 3-node transport.
    /// Returns each node's `(wqes, bytes_on_wire, rnr_events)`.
    fn one_of_each(t: &mut dyn Transport) -> Vec<(u64, u64, u64)> {
        let mut mems: Vec<NodeMem> = (0..3).map(|_| NodeMem::new(1 << 20)).collect();
        // Each node's window: sources in its first 16 KiB, landing
        // zones above.
        let win: Vec<(u64, u32, u32)> = mems
            .iter_mut()
            .map(|m| {
                let a = m.space.alloc_page_aligned(64 << 10).unwrap();
                let r = m.regs.register(a, 64 << 10);
                (a, r.lkey, r.rkey)
            })
            .collect();
        let sge = |node: usize, off: u64, len: u64| Sge {
            addr: win[node].0 + off,
            len,
            lkey: win[node].1,
        };
        let wr = |opcode, sges: Sge, remote| SendWr {
            wr_id: 1,
            opcode,
            sges: vec![sges].into(),
            remote,
            signaled: true,
        };
        let mut evs = Vec::new();
        let send = wr(Opcode::Send, sge(0, 0, 1024), None);
        t.post_send(0, 0, 1, send, &mems, &mut |at, e| evs.push((at, e)))
            .unwrap();
        drain(t, &mut mems, &mut evs);
        let recv = RecvWr {
            wr_id: 2,
            sges: vec![sge(1, 16 << 10, 1024)].into(),
        };
        let now = 1_000_000;
        t.post_recv(now, 1, 0, recv, &mems, &mut |at, e| evs.push((at, e)))
            .unwrap();
        let to2 = Some((win[2].0 + (16 << 10), win[2].2));
        let write = wr(Opcode::RdmaWrite, sge(1, 0, 2048), to2);
        t.post_send(now, 1, 2, write, &mems, &mut |at, e| evs.push((at, e)))
            .unwrap();
        let from0 = Some((win[0].0 + (8 << 10), win[0].2));
        let read = wr(Opcode::RdmaRead, sge(2, 32 << 10, 4096), from0);
        t.post_send(now, 2, 0, read, &mems, &mut |at, e| evs.push((at, e)))
            .unwrap();
        drain(t, &mut mems, &mut evs);
        assert_eq!(t.in_flight(), 0);
        t.node_stats()
            .iter()
            .map(|s| (s.wqes, s.bytes_on_wire, s.rnr_events))
            .collect()
    }

    /// Each count lands on the node its `FabricStats` field names: the
    /// poster's work request, the transmitter's bytes (an RDMA read's
    /// responder), the RNR event at the receiver that had no
    /// descriptor. On IB the read response is a work request of the
    /// responder's engine as well; on shared memory the read is the
    /// requester's one work request.
    #[test]
    fn counts_land_on_the_node_each_field_names() {
        let mut ib = Fabric::new(3, NetConfig::default());
        let want = vec![(2, 1024 + 4096, 0), (1, 2048, 1), (1, 0, 0)];
        assert_eq!(one_of_each(&mut ib), want, "ib");
        for copy_mode in [ShmCopyMode::Double, ShmCopyMode::Single] {
            let cfg = ShmConfig {
                copy_mode,
                ..ShmConfig::default()
            };
            let mut shm = ShmChannel::new(3, cfg);
            let want = vec![(1, 1024 + 4096, 0), (1, 2048, 1), (1, 0, 0)];
            assert_eq!(one_of_each(&mut shm), want, "{copy_mode:?}");
        }
    }
}
