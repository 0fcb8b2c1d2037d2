//! The simulated cluster: world driver, program interpreter, public API.
//!
//! A [`Cluster`] owns the fabric, every rank's memory and MPI state, and
//! interprets one [`Program`] per rank. [`Cluster::run`] drives the
//! discrete-event engine to quiescence and returns [`RunStats`].
//!
//! [`Cluster::recycle`] parks a finished cluster on its thread, one at a
//! time; the next [`Cluster::new`] of the same rank count and memory
//! capacity takes it and resets it to its own spec, the same reset that
//! places a freshly built shell, so a recycled cluster behaves
//! bit-identically to a fresh one.

use crate::coll;
use crate::config::MpiConfig;
use crate::error::MpiError;
use crate::progress::{self, ActiveMsgs, Ctx, Ev};
use crate::rank::RankState;
use crate::stats::RunStats;
use ibdt_datatype::Datatype;
use ibdt_ibsim::{
    Cqe, Fabric, FaultPlan, HostConfig, NetConfig, NodeMem, RecvWr, Sge, SgeList, ShmChannel,
    Transport, TransportConfig,
};
use ibdt_memreg::Va;
use ibdt_simcore::engine::{Engine, Scheduler, World};
use ibdt_simcore::time::Time;
use std::collections::VecDeque;

/// Element-wise reduction operators for [`AppOp::CombineBuffers`] and
/// the reduction collectives. Elements are interpreted per the
/// datatype's uniform primitive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// `dst = src` (internal: seeds an accumulator).
    Replace,
    /// `dst = dst + src` (wrapping for integers).
    Sum,
    /// `dst = max(dst, src)`.
    Max,
}

/// One operation of a rank program.
#[derive(Debug, Clone)]
pub enum AppOp {
    /// Nonblocking send of `count` instances of `ty` at `buf`.
    Isend {
        /// Destination rank.
        peer: u32,
        /// User buffer address (datatype offset 0).
        buf: Va,
        /// Instance count.
        count: u64,
        /// Datatype.
        ty: Datatype,
        /// Tag.
        tag: u32,
    },
    /// Nonblocking receive.
    Irecv {
        /// Source rank.
        peer: u32,
        /// User buffer address.
        buf: Va,
        /// Instance count.
        count: u64,
        /// Datatype.
        ty: Datatype,
        /// Tag.
        tag: u32,
    },
    /// Block until every request issued so far on this rank completed.
    WaitAll,
    /// Spin the CPU for `ns` virtual nanoseconds (models application
    /// compute, or manual pack/unpack in the Fig. 2 `Manual` scheme).
    Compute {
        /// Busy time.
        ns: Time,
    },
    /// Record the current virtual time under `slot` (benchmark timers).
    MarkTime {
        /// Timer slot id.
        slot: u32,
    },
    /// `MPI_Alltoall` with datatypes (expanded to point-to-point ops).
    Alltoall {
        /// Send buffer base (block for rank 0).
        sbuf: Va,
        /// Receive buffer base.
        rbuf: Va,
        /// Instances of `sty` sent to each rank.
        count: u64,
        /// Send datatype.
        sty: Datatype,
        /// Receive datatype.
        rty: Datatype,
    },
    /// `MPI_Bcast` from `root` (binomial tree).
    Bcast {
        /// Root rank.
        root: u32,
        /// Buffer.
        buf: Va,
        /// Instance count.
        count: u64,
        /// Datatype.
        ty: Datatype,
    },
    /// `MPI_Allgather` (ring).
    Allgather {
        /// Send buffer (this rank's contribution).
        sbuf: Va,
        /// Receive buffer (all contributions, by rank).
        rbuf: Va,
        /// Instances per rank.
        count: u64,
        /// Datatype (same both sides).
        ty: Datatype,
    },
    /// `MPI_Barrier` (dissemination).
    Barrier,
    /// §6's `MPI_Info` analogue: tell the library this buffer will be
    /// used for many operations, so it is registered (and cached) ahead
    /// of the first communication.
    HintReusedBuffer {
        /// Buffer start.
        addr: Va,
        /// Buffer length.
        len: u64,
    },
    /// `MPI_Gather` to `root` (flat algorithm).
    Gather {
        /// Root rank.
        root: u32,
        /// This rank's contribution.
        sbuf: Va,
        /// Root's receive buffer (ignored elsewhere).
        rbuf: Va,
        /// Instances per rank.
        count: u64,
        /// Datatype.
        ty: Datatype,
    },
    /// `MPI_Scatter` from `root`.
    Scatter {
        /// Root rank.
        root: u32,
        /// Root's send buffer (ignored elsewhere).
        sbuf: Va,
        /// This rank's receive buffer.
        rbuf: Va,
        /// Instances per rank.
        count: u64,
        /// Datatype.
        ty: Datatype,
    },
    /// `MPI_Reduce` to `root` (binomial tree). `scratch` must hold one
    /// message and be distinct from `sbuf`/`rbuf`; `sbuf` is clobbered
    /// on intermediate ranks.
    Reduce {
        /// Root rank.
        root: u32,
        /// Contribution (accumulator on non-root ranks).
        sbuf: Va,
        /// Result buffer on the root.
        rbuf: Va,
        /// Scratch buffer for incoming partial results.
        scratch: Va,
        /// Instance count.
        count: u64,
        /// Datatype (uniform primitive).
        ty: Datatype,
        /// Reduction operator.
        op: ReduceOp,
    },
    /// `MPI_Allreduce` (reduce to 0 + bcast).
    Allreduce {
        /// Contribution.
        sbuf: Va,
        /// Result buffer (valid on every rank afterwards).
        rbuf: Va,
        /// Scratch buffer.
        scratch: Va,
        /// Instance count.
        count: u64,
        /// Datatype (uniform primitive).
        ty: Datatype,
        /// Reduction operator.
        op: ReduceOp,
    },
    /// Element-wise combine of two local buffers (the reduction
    /// building block): `dst[i] = op(dst[i], src[i])` over the
    /// datatype's elements.
    CombineBuffers {
        /// Accumulator buffer.
        dst: Va,
        /// Incoming buffer.
        src: Va,
        /// Instance count.
        count: u64,
        /// Datatype (uniform primitive).
        ty: Datatype,
        /// Operator.
        op: ReduceOp,
    },
    /// `MPI_Win_create` (collective): exposes `[addr, addr+len)` for
    /// one-sided access under window id `win`. Registers the region and
    /// barriers, after which window information is globally visible.
    WinCreate {
        /// Window id (caller-chosen, same on all ranks).
        win: u32,
        /// Exposed region start.
        addr: Va,
        /// Exposed region length.
        len: u64,
    },
    /// `MPI_Put` with derived datatypes on both sides (one-sided
    /// Multi-W; completed by the next fence).
    Put {
        /// Window id.
        win: u32,
        /// Target rank.
        target: u32,
        /// Origin buffer.
        obuf: Va,
        /// Origin instance count.
        ocount: u64,
        /// Origin datatype.
        oty: Datatype,
        /// Byte offset of the target layout inside the window.
        toff: u64,
        /// Target instance count.
        tcount: u64,
        /// Target datatype (an origin-side handle, as in MPI).
        tty: Datatype,
    },
    /// `MPI_Get` (one-sided reads; completed by the next fence).
    Get {
        /// Window id.
        win: u32,
        /// Target rank.
        target: u32,
        /// Origin buffer.
        obuf: Va,
        /// Origin instance count.
        ocount: u64,
        /// Origin datatype.
        oty: Datatype,
        /// Byte offset of the target layout inside the window.
        toff: u64,
        /// Target instance count.
        tcount: u64,
        /// Target datatype.
        tty: Datatype,
    },
    /// `MPI_Win_fence`: completes this rank's outstanding RMA, releases
    /// origin registrations, then barriers.
    Fence,
}

/// A rank's program.
pub type Program = Vec<AppOp>;

/// Cluster construction parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSpec {
    /// Number of ranks.
    pub nprocs: u32,
    /// Network cost model.
    pub net: NetConfig,
    /// Host cost model.
    pub host: HostConfig,
    /// MPI configuration.
    pub mpi: MpiConfig,
    /// Per-rank address space capacity in bytes.
    pub mem_capacity: u64,
    /// Seeded fault-injection plan for the fabric (inert by default).
    pub faults: FaultPlan,
    /// Which transport backend moves the bytes (IB fabric by default;
    /// selecting the shared-memory channel leaves every committed IB
    /// result untouched).
    pub transport: TransportConfig,
    /// Keep every resource reservation as a span: each rank's CPU and
    /// DMA engine and its transport engine, read through
    /// [`Cluster::cpu_trace`] and [`Cluster::tx_trace`]. Off by
    /// default: a run then keeps only per-label busy totals and meters
    /// [`RunStats::pack_wire_overlap_ns`] as it goes. Every result but
    /// the span lists is the same either way.
    pub record: bool,
}

impl Default for ClusterSpec {
    fn default() -> Self {
        Self {
            nprocs: 2,
            net: NetConfig::default(),
            host: HostConfig::default(),
            mpi: MpiConfig::default(),
            mem_capacity: 256 << 20,
            faults: FaultPlan::none(),
            transport: TransportConfig::Ib,
            record: false,
        }
    }
}

#[derive(Debug)]
enum Blocked {
    No,
    WaitAll,
    Compute {
        until: Time,
    },
    /// Waiting for outstanding one-sided operations to complete.
    Fence,
}

#[derive(Debug)]
struct Interp {
    prog: VecDeque<AppOp>,
    blocked: Blocked,
    finished_at: Option<Time>,
}

/// The simulated MPI cluster.
pub struct Cluster {
    spec: ClusterSpec,
    fabric: Box<dyn Transport>,
    mems: Vec<NodeMem>,
    ranks: Vec<RankState>,
    active: Vec<ActiveMsgs>,
    interp: Vec<Interp>,
    marks: Vec<Vec<(u32, Time)>>,
    /// One-sided windows: `(win id, rank)` -> entry.
    windows: std::collections::HashMap<(u32, u32), crate::rma::WinEntry>,
    ran: bool,
    /// Events handled, counted only in audit mode to decimate the
    /// invariant checks.
    events_handled: u64,
    /// Reused completion buffer handed to [`Fabric::handle`] each NIC
    /// event, so steady-state event handling allocates nothing.
    cqe_buf: Vec<(u32, Cqe)>,
    /// True when the address spaces were reset rather than built
    /// fresh, i.e. the cluster was taken from the spare
    /// ([`RunStats::space_pool`] counts reuses, not allocs).
    spaces_reused: bool,
    /// The event engine, kept between runs so a recycled cluster's
    /// next run reuses the event-wheel arena instead of re-growing it.
    /// `None` until the first run; a reset engine behaves exactly like
    /// a fresh one (see [`Engine::reset`]).
    engine: Option<Engine<Cluster>>,
}

thread_local! {
    /// The last recycled cluster, waiting for the next build: the
    /// simulator's one host-side recycling mechanism. A parameter sweep
    /// varies message geometry, scheme or transport but rebuilds the
    /// same cluster shape per point; resetting the parked `Cluster`
    /// (fabric queues, address spaces, rank state, caches, event
    /// engine) for the next spec removes the per-point construction
    /// allocations. A reset cluster is bit-identical in behaviour to a
    /// fresh one (see [`Cluster::reset`]).
    static CLUSTER_SPARE: std::cell::RefCell<Option<Cluster>> =
        const { std::cell::RefCell::new(None) };
}

/// The transport `spec` asks for, with no receive posted.
fn transport(spec: &ClusterSpec) -> Box<dyn Transport> {
    let n = spec.nprocs as usize;
    match &spec.transport {
        TransportConfig::Ib => Box::new(Fabric::new(n, spec.net.clone())),
        TransportConfig::Shm(c) => {
            if let Err(e) = c.validate() {
                panic!("invalid shm configuration: {e}");
            }
            Box::new(ShmChannel::new(n, *c))
        }
    }
}

/// Taps each rank's CPU `pack` reservations and its transport engine's
/// `wire` reservations for the rank's pack/wire overlap meter, and
/// turns span recording on every resource on or off as `spec` asks.
fn wire_traces(spec: &ClusterSpec, ranks: &mut [RankState], fabric: &mut dyn Transport) {
    for (r, rs) in ranks.iter_mut().enumerate() {
        let tx = fabric.tx_engine_mut(r as u32);
        rs.cpu.trace_mut().tap("pack");
        tx.trace_mut().tap("wire");
        for res in [&mut rs.cpu, &mut rs.dma, tx] {
            res.trace_mut().record_spans(spec.record);
        }
    }
}

/// Builds every rank's eager receive ring (§3.1's pre-posted internal
/// buffers), for each rank its peers in order; [`Cluster::reset`] is
/// its one caller.
///
/// A reset transport keeps its receive queues. When `same_layout` (the
/// rings were posted for the same slot count, size and send ring) and
/// a run left a ring whole, the ring is a rotation of its canonical
/// slot order: the transport never flushes a receive queue, and each
/// consumed slot is re-posted at the back as its completion is handled,
/// in consumption order. Such a ring is rotated back in place, in O(1)
/// when it is at capacity. Any other ring (empty in a new transport,
/// short after an errored run, or laid out for another spec) is
/// cleared and posted slot by slot.
fn post_eager_rings(
    spec: &ClusterSpec,
    ranks: &[RankState],
    fabric: &mut dyn Transport,
    mems: &[NodeMem],
    same_layout: bool,
) {
    let k = spec.mpi.eager_bufs_per_peer;
    let mut noop = |_t: Time, _e: ibdt_ibsim::NicEvent| {};
    for r in 0..spec.nprocs {
        let rs = &ranks[r as usize];
        for peer in (0..spec.nprocs).filter(|&p| p != r) {
            let ring = fabric.recvq_mut(r, peer);
            let shift = same_layout.then(|| ring_rotation(spec, rs, peer, ring));
            if let Some(shift) = shift.flatten() {
                ring.rotate_left(shift);
                #[cfg(debug_assertions)]
                for (i, wr) in ring.iter().enumerate() {
                    assert_eq!(
                        *wr,
                        eager_slot_wr(spec, rs, peer, i),
                        "restored eager ring {r} <- {peer} differs at slot {i}"
                    );
                }
                continue;
            }
            ring.clear();
            for i in 0..k {
                fabric
                    .post_recv(
                        0,
                        r,
                        peer,
                        eager_slot_wr(spec, rs, peer, i),
                        mems,
                        &mut noop,
                    )
                    .expect("eager ring post");
            }
        }
    }
}

/// Slot `i` of `rs`'s eager receive ring for `peer`: its descriptor as
/// a fresh cluster posts it.
fn eager_slot_wr(spec: &ClusterSpec, rs: &RankState, peer: u32, i: usize) -> RecvWr {
    let va = rs.recv_buf_addr(&spec.mpi, rs.eager_region, peer, i);
    RecvWr {
        wr_id: va,
        sges: SgeList::of(Sge {
            addr: va,
            len: spec.mpi.eager_buf_size,
            lkey: rs.eager_lkey,
        }),
    }
}

/// The left rotation that puts `ring` back in canonical slot order,
/// when it holds the whole ring: every slot, its front some slot `j`
/// and its back slot `j - 1`, both as a fresh cluster posts them. A
/// run only ever pops the front and re-posts the popped slot at the
/// back, so these O(1) checks identify a rotation; debug builds
/// compare every restored descriptor.
fn ring_rotation(
    spec: &ClusterSpec,
    rs: &RankState,
    peer: u32,
    ring: &VecDeque<RecvWr>,
) -> Option<usize> {
    let k = spec.mpi.eager_bufs_per_peer;
    if ring.len() != k {
        return None;
    }
    let base = rs.recv_buf_addr(&spec.mpi, rs.eager_region, peer, 0);
    let off = ring.front()?.wr_id.checked_sub(base)?;
    let j = off.checked_div(spec.mpi.eager_buf_size)? as usize;
    let whole = j < k
        && ring[0] == eager_slot_wr(spec, rs, peer, j)
        && ring[k - 1] == eager_slot_wr(spec, rs, peer, (j + k - 1) % k);
    whole.then_some((k - j) % k)
}

impl Cluster {
    /// Builds a cluster: memories, MPI state, eager receive rings.
    ///
    /// Takes the [recycled](Cluster::recycle) cluster parked on this
    /// thread when it has `spec`'s shape (`nprocs` and `mem_capacity`),
    /// and otherwise builds a shell: fresh node memories, a transport
    /// for `spec`, empty rank states. Either way one reset then brings
    /// it to `spec`'s initial state, so a recycled cluster behaves
    /// bit-identically to a fresh one.
    pub fn new(spec: ClusterSpec) -> Self {
        let shape = |c: &mut Cluster| {
            c.spec.nprocs == spec.nprocs && c.spec.mem_capacity == spec.mem_capacity
        };
        let parked = CLUSTER_SPARE
            .try_with(|s| s.borrow_mut().take_if(shape))
            .ok()
            .flatten();
        let spaces_reused = parked.is_some();
        let mut c = parked.unwrap_or_else(|| Self::shell(&spec));
        c.reset(spec);
        c.spaces_reused = spaces_reused;
        c
    }

    /// A cluster of `spec`'s shape whose memories and rank states are
    /// not yet placed, over an idle transport for `spec`.
    fn shell(spec: &ClusterSpec) -> Self {
        let n = spec.nprocs as usize;
        Self {
            spec: spec.clone(),
            fabric: transport(spec),
            mems: (0..n).map(|_| NodeMem::new(spec.mem_capacity)).collect(),
            ranks: (0..spec.nprocs)
                .map(|r| RankState::new(r, spec.nprocs))
                .collect(),
            active: (0..n).map(|_| ActiveMsgs::new(n)).collect(),
            interp: Vec::new(),
            marks: vec![Vec::new(); n],
            windows: std::collections::HashMap::new(),
            ran: false,
            events_handled: 0,
            cqe_buf: Vec::new(),
            spaces_reused: false,
            engine: None,
        }
    }

    /// Number of ranks.
    pub fn nprocs(&self) -> u32 {
        self.spec.nprocs
    }

    /// Allocates `len` bytes in `rank`'s address space.
    pub fn alloc(&mut self, rank: u32, len: u64, align: u64) -> Va {
        self.mems[rank as usize]
            .space
            .alloc(len, align)
            .expect("address space exhausted")
    }

    /// Allocates `len` bytes of *device-resident* memory in `rank`'s
    /// address space: the range is marked in the rank's
    /// [`TierMap`](ibdt_memreg::TierMap), so pack/unpack touching it
    /// routes through the DMA cost model (staged bounce pipeline for
    /// segmented schemes, one synchronous gather/scatter DMA for eager
    /// paths). Bytes still live in the same flat space — correctness
    /// checking is tier-blind.
    pub fn alloc_device(&mut self, rank: u32, len: u64, align: u64) -> Va {
        // Allocating device memory implies the tier exists; flipping the
        // flag here (rather than requiring callers to pre-enable it)
        // means a cluster with no device allocations models exactly the
        // host-only cost model regardless of configuration.
        self.spec.host.device.enabled = true;
        if let Err(e) = self.spec.host.validate() {
            panic!("invalid host configuration: {e}");
        }
        let va = self.alloc(rank, len, align);
        self.mems[rank as usize].tiers.mark_device(va, len);
        va
    }

    /// Writes bytes into a rank's memory (test/bench setup).
    pub fn write_mem(&mut self, rank: u32, addr: Va, data: &[u8]) {
        self.mems[rank as usize]
            .space
            .write(addr, data)
            .expect("write within capacity");
    }

    /// Reads bytes from a rank's memory (verification).
    pub fn read_mem(&self, rank: u32, addr: Va, len: u64) -> Vec<u8> {
        self.mems[rank as usize]
            .space
            .read(addr, len)
            .expect("read within capacity")
    }

    /// Fills a range with a deterministic byte pattern keyed by `seed`:
    /// byte `i` is `((i * 2654435761 + seed * 977) >> 3) as u8`, in
    /// wrapping arithmetic. That is bits 3..11 of the sum, which only
    /// the low 11 bits of `i` reach, so the pattern repeats every
    /// 2,048 bytes: one period is computed in place and tiled.
    pub fn fill_pattern(&mut self, rank: u32, addr: Va, len: u64, seed: u64) {
        const PERIOD: usize = 2048;
        let mem = self.mems[rank as usize].space.slice_mut(addr, len);
        let mem = mem.expect("write within capacity");
        let (period, rest) = mem.split_at_mut(mem.len().min(PERIOD));
        for (i, b) in period.iter_mut().enumerate() {
            let x = (i as u64).wrapping_mul(2654435761);
            *b = (x.wrapping_add(seed.wrapping_mul(977)) >> 3) as u8;
        }
        for tile in rest.chunks_mut(PERIOD) {
            tile.copy_from_slice(&period[..tile.len()]);
        }
    }

    /// Runs one program per rank to quiescence; returns statistics.
    ///
    /// A `Cluster` is single-shot: the virtual clock, resource schedules
    /// and counters all start at zero, so reuse would conflate runs.
    pub fn run(&mut self, programs: Vec<Program>) -> RunStats {
        assert!(
            !self.ran,
            "Cluster::run is single-shot; build a new cluster"
        );
        assert_eq!(
            programs.len(),
            self.spec.nprocs as usize,
            "one program per rank"
        );
        self.ran = true;
        // Extend into the (possibly reset-and-retained) interp vector
        // rather than reassigning, so a recycled cluster's run keeps
        // its capacity.
        self.interp.clear();
        self.interp.extend(programs.into_iter().map(|p| Interp {
            prog: p.into(),
            blocked: Blocked::No,
            finished_at: None,
        }));
        let mut engine = std::mem::take(&mut self.engine).unwrap_or_default();
        for r in 0..self.spec.nprocs {
            engine.seed(0, Ev::Resume { rank: r });
        }
        // Realize the fault plan's scheduled link failures as engine
        // events (port down / port up at their virtual instants).
        for (t, e) in self.fabric.fault_events() {
            engine.seed(t, Ev::Nic(e));
        }
        // Budget: generous runaway guard proportional to work. With
        // fault injection active the guard doubles as a watchdog — an
        // exhausted budget becomes a typed `Incomplete` error on every
        // unfinished rank instead of a panic, so a chaos plan that
        // wedges the protocol still terminates with a diagnosis.
        let faulty = self.fabric.faults_active();
        let (finish, exhausted) = engine.run_bounded(self, 200_000_000);
        for r in 0..self.spec.nprocs {
            self.meter_overlap(r);
        }
        assert!(
            !exhausted || faulty,
            "simulation exceeded its event budget at t={finish} without fault \
             injection — protocol livelock"
        );
        // Sanity: every program must have finished (a hang here is a
        // protocol deadlock) — unless an injected fault surfaced as a
        // typed error or tripped the watchdog, in which case an
        // incomplete program is the expected degraded outcome and is
        // recorded as such.
        // A node still down at quiescence crash-stopped for good: its
        // own program cannot have finished, and peers that never
        // exchanged traffic with it after the crash may have observed
        // nothing — the crash itself is the error condition.
        let crashed = (0..self.spec.nprocs).any(|r| self.fabric.node_down(r));
        let had_errors = exhausted
            || crashed
            || (0..self.spec.nprocs as usize).any(|r| {
                !self.ranks[r].errors.is_empty()
                    || self.ranks[r].reqs().iter().any(|q| q.error.is_some())
            });
        for rs in &self.ranks {
            rs.debug_check_open_reqs();
        }
        // Every event drained: an error-free run delivered every
        // transfer it started.
        debug_assert!(
            had_errors || self.fabric.in_flight() == 0,
            "{} transfers still in flight after an error-free run",
            self.fabric.in_flight()
        );
        for r in 0..self.spec.nprocs as usize {
            let it = &self.interp[r];
            let unfinished = !it.prog.is_empty() || it.finished_at.is_none();
            if had_errors {
                if unfinished || !self.active[r].is_idle() {
                    self.ranks[r].errors.push(MpiError::Incomplete);
                }
                continue;
            }
            assert!(
                !unfinished,
                "rank {r} deadlocked with {} ops left (blocked: {:?}); open transfers:{}",
                it.prog.len(),
                it.blocked,
                self.open_transfers()
            );
            assert!(
                self.active[r].is_idle(),
                "rank {r} finished with in-flight rendezvous state:{}",
                self.open_transfers()
            );
        }
        if self.spec.mpi.audit {
            // Strict (quiescent) laws need a clean run with nothing
            // unmatched; the base conservation laws hold regardless.
            let clean = !had_errors
                && (0..self.spec.nprocs as usize).all(|r| self.ranks[r].unexpected.is_empty());
            self.audit_invariants(clean);
        }
        let events_scheduled = engine.events_scheduled();
        engine.reset();
        self.engine = Some(engine);
        self.collect_stats(finish, events_scheduled)
    }

    /// Every rank's open rendezvous transfers, one line each, for a
    /// hang report.
    fn open_transfers(&self) -> String {
        let mut out = String::new();
        for (r, am) in self.active.iter().enumerate() {
            if !am.is_idle() {
                out += &format!("\n  rank {r}:");
                am.report(&mut out);
            }
        }
        out
    }

    /// Parks a finished cluster on this thread, in place of any parked
    /// before, so the next [`Cluster::new`] of its shape resets it
    /// instead of building one.
    pub fn recycle(self) {
        let _ = CLUSTER_SPARE.try_with(|s| s.replace(Some(self)));
    }

    /// Brings the cluster to the initial state of `spec`, in place,
    /// whatever spec it served before: the one step that makes a
    /// cluster, on a [shell](Cluster::shell) or a parked cluster of the
    /// same shape. The contract is exact: a recycled cluster must
    /// behave bit-identically to a fresh `Cluster::new(spec)`, with the
    /// same virtual-time results and the same `RunStats` in every field
    /// but the host-side pool counts (a reset pool counts reuses where
    /// a fresh one allocates). The transport is rebuilt only when
    /// `spec` asks for another backend or network model; everything
    /// else is reset from `spec`.
    fn reset(&mut self, spec: ClusterSpec) {
        if let Err(e) = spec.host.validate() {
            panic!("invalid host configuration: {e}");
        }
        assert!(
            spec.transport == TransportConfig::Ib || spec.faults.is_inert(),
            "fault injection requires the IB transport"
        );
        let old = std::mem::replace(&mut self.spec, spec);
        let rebuilt = old.transport != self.spec.transport || old.net != self.spec.net;
        if rebuilt {
            self.fabric = transport(&self.spec);
        } else {
            self.fabric.reset();
        }
        self.fabric.set_fault_plan(self.spec.faults.clone());
        self.mems.iter_mut().for_each(NodeMem::reset);
        for r in 0..self.ranks.len() {
            let (rs, mem) = (&mut self.ranks[r], &mut self.mems[r]);
            rs.reset(&self.spec.mpi, mem);
        }
        wire_traces(&self.spec, &mut self.ranks, self.fabric.as_mut());
        // Restore the eager receive rings the reset transport kept, or
        // post them; the reset address spaces hand back the same
        // deterministic layout, so ring addresses and keys match a
        // fresh cluster's.
        let (was, now) = (&old.mpi, &self.spec.mpi);
        let same_layout = !rebuilt
            && was.eager_bufs_per_peer == now.eager_bufs_per_peer
            && was.eager_buf_size == now.eager_buf_size
            && was.eager_send_bufs == now.eager_send_bufs;
        post_eager_rings(
            &self.spec,
            &self.ranks,
            self.fabric.as_mut(),
            &self.mems,
            same_layout,
        );
        for a in &mut self.active {
            a.reset();
        }
        for m in &mut self.marks {
            m.clear();
        }
        self.interp.clear();
        self.windows.clear();
        self.ran = false;
        self.events_handled = 0;
        self.cqe_buf.clear();
    }

    /// Debug-mode invariant auditor (`MpiConfig::audit`): asserts the
    /// flow-control conservation laws over every ordered rank pair.
    /// With sender `a` and receiver `b` (all counters per peer):
    ///
    /// - credits never negative and never exceed the configured pool:
    ///   `held(a→b) + sent(a→b) == eager_credits + received(a→b)`;
    /// - every matched message is granted back or still owed:
    ///   `granted(b←a) + owed(b←a) == matched(b←a)`;
    /// - the monotone chain `received(a→b) ≤ granted(b←a)` and
    ///   `matched(b←a) ≤ sent(a→b)` (grants/messages in flight);
    /// - the payload-bearing unexpected occupancy counter agrees with a
    ///   queue scan.
    ///
    /// At clean quiescence additionally `sent(a→b) == matched(b←a)` —
    /// no message was lost or duplicated across any degradation
    /// transition. Panics on violation; wired into the chaos and incast
    /// soak suites, not production runs.
    ///
    /// **Crash-stop failures.** When a peer dies, the quiescent law
    /// legitimately breaks: credits held by the dead rank never return
    /// and messages sent to it are never matched, so `sent > matched`
    /// is the *correct* end state — which is why the quiescent check
    /// is gated on a clean (error-free, crash-free) run. The base
    /// conservation laws above survive a crash untouched: each one
    /// reads either a single rank's own counters (which freeze at the
    /// instant its host halts) or a monotone cross-pair inequality
    /// (`received ≤ granted`, `matched ≤ sent`) that a frozen side can
    /// only leave slack in, never violate. The crash-stop chaos suite
    /// runs with the auditor on to hold exactly this line.
    fn audit_invariants(&self, quiescent: bool) {
        let n = self.spec.nprocs as usize;
        let pool = u64::from(self.spec.mpi.eager_credits);
        for a in 0..n {
            let ra = &self.ranks[a];
            let payload_entries = ra
                .unexpected
                .iter()
                .filter(|u| {
                    matches!(u, crate::rank::Unexpected::Eager { data, .. } if !data.is_empty())
                })
                .count();
            assert_eq!(
                ra.unexpected_eager, payload_entries,
                "rank {a}: unexpected-queue occupancy counter out of sync"
            );
            for b in 0..n {
                if a == b {
                    continue;
                }
                let rb = &self.ranks[b];
                assert_eq!(
                    u64::from(ra.fc[b].credits) + ra.fc[b].sent,
                    pool + ra.fc[b].received,
                    "rank {a}→{b}: credit conservation violated"
                );
                assert!(
                    u64::from(ra.fc[b].credits) <= pool,
                    "rank {a}→{b}: credits exceed the configured pool"
                );
                assert_eq!(
                    rb.fc[a].granted + u64::from(rb.fc[a].owed),
                    rb.fc[a].matched,
                    "rank {b}←{a}: matched messages neither granted nor owed"
                );
                assert!(
                    ra.fc[b].received <= rb.fc[a].granted,
                    "rank {a}→{b}: more credits received than ever granted"
                );
                assert!(
                    rb.fc[a].matched <= ra.fc[b].sent,
                    "rank {b}←{a}: more messages matched than credits consumed"
                );
                if quiescent {
                    assert_eq!(
                        ra.fc[b].sent, rb.fc[a].matched,
                        "rank {a}→{b}: eager message lost or duplicated \
                         (sent ≠ matched at clean quiescence)"
                    );
                }
            }
        }
    }

    fn collect_stats(&self, finish: Time, events_scheduled: u64) -> RunStats {
        let n = self.spec.nprocs as usize;
        let fstats = self.fabric.stats();
        let spaces = n as u64;
        let (space_allocs, space_reuses) = if self.spaces_reused {
            (0, spaces)
        } else {
            (spaces, 0)
        };
        RunStats {
            finish_ns: finish,
            rank_finish_ns: self
                .interp
                .iter()
                .map(|i| i.finished_at.unwrap_or(finish))
                .collect(),
            counters: self.ranks.iter().map(|r| r.counters).collect(),
            cpu_busy_ns: self.ranks.iter().map(|r| r.cpu.total_busy()).collect(),
            reg_ops: (0..n).map(|r| self.mems[r].regs.op_counts()).collect(),
            pindown: self.ranks.iter().map(|r| r.pindown.stats()).collect(),
            plan_cache: self
                .ranks
                .iter()
                .map(|r| (r.plans.hits, r.plans.compiled, r.plans.displaced))
                .collect(),
            scratch_pool: self
                .ranks
                .iter()
                .map(|r| (r.scratch.reuses(), r.scratch.allocs()))
                .collect(),
            wqes: fstats.wqes,
            bytes_on_wire: fstats.bytes_on_wire,
            rnr_events: fstats.rnr_events,
            cq_peak: (0..n).map(|r| self.fabric.cq_peak(r as u32)).collect(),
            fabric_per_rank: self.fabric.node_stats().to_vec(),
            errors: self
                .ranks
                .iter()
                .map(|rs| {
                    rs.errors
                        .iter()
                        .copied()
                        .chain(rs.reqs().iter().filter_map(|q| q.error))
                        .collect()
                })
                .collect(),
            marks: self.marks.clone(),
            pack_wire_overlap_ns: self.ranks.iter().map(|r| r.pack_wire.total()).collect(),
            bytes_copied: self
                .ranks
                .iter()
                .map(|r| r.counters.bytes_packed + r.counters.bytes_unpacked)
                .sum(),
            payload_pool: self.fabric.payload_pool(),
            space_pool: (
                space_allocs,
                space_reuses,
                self.mems.iter().map(|m| m.space.zeroed()).sum(),
            ),
            events_scheduled,
            shm_bounce_chunks: fstats.shm_bounce_chunks,
            shm_cma_ops: fstats.shm_cma_ops,
        }
    }

    /// Post-run access to a rank's CPU trace: busy time per label
    /// (pack/unpack/post/...), and the spans for overlap analysis and
    /// timeline rendering. The spans are empty unless the cluster was
    /// built with [`ClusterSpec::record`].
    pub fn cpu_trace(&self, rank: u32) -> &ibdt_simcore::trace::Trace {
        self.ranks[rank as usize].cpu.trace()
    }

    /// Post-run access to a rank's transmit-engine trace (the NIC, or
    /// the shm copy engine). Its spans are empty unless the cluster was
    /// built with [`ClusterSpec::record`].
    pub fn tx_trace(&self, rank: u32) -> &ibdt_simcore::trace::Trace {
        self.fabric.tx_engine(rank).trace()
    }

    /// Post-run access to a rank's eager-ring frame pool: `(bound,
    /// pooled)` frames backing its receive slots (see
    /// [`ibdt_memreg::AddressSpace::slot_frames`]; their sum is the
    /// peak bound at once).
    pub fn slot_frames(&self, rank: u32) -> (usize, usize) {
        self.mems[rank as usize].space.slot_frames()
    }

    /// Element-wise reduction of two local buffers over a datatype's
    /// elements. Functional immediately; host time charged on the CPU.
    #[allow(clippy::too_many_arguments)]
    fn combine_buffers(
        &mut self,
        sched: &mut Scheduler<'_, Ev>,
        rank: u32,
        dst: Va,
        src: Va,
        count: u64,
        ty: &Datatype,
        op: ReduceOp,
    ) {
        let r = rank as usize;
        let prim = ty
            .uniform_primitive()
            .expect("reductions require a uniform-primitive datatype");
        let plan = self.ranks[r].plan_for(ty, count);
        let n = plan.total_bytes();
        let space = &self.mems[r].space;
        let cap = space.capacity();
        // Every view is narrowed to the operand's block envelope,
        // widened to include the datatype origin: the write view so
        // dirty tracking (backing-store recycling) stays proportional
        // to the destination buffer, and every view so none spans the
        // eager ring's slot window.
        let (env_lo, env_hi) = plan.envelope();
        let (env_lo, env_hi) = (env_lo.min(0), env_hi.max(0));
        let view = |base: Va| {
            let vstart = ((base as i128 + env_lo).clamp(0, cap as i128) as u64).min(base.min(cap));
            let vend = (base as i128 + env_hi).clamp(vstart as i128, cap as i128) as u64;
            (vstart, vend - vstart)
        };
        let mut a = vec![0u8; n as usize];
        let mut b = vec![0u8; n as usize];
        for (base, out) in [(dst, &mut a), (src, &mut b)] {
            let (vstart, len) = view(base);
            let mem = space.slice(vstart, len).expect("envelope view in range");
            plan.pack(0, n, mem, (base - vstart) as usize, out)
                .expect("operand covers the datatype");
        }
        let w = prim.size() as usize;
        let mut failed = None;
        for (da, db) in a.chunks_exact_mut(w).zip(b.chunks_exact(w)) {
            if let Err(e) = combine_element(da, db, op, prim) {
                failed = Some(e);
                break;
            }
        }
        if let Some(e) = failed {
            // A malformed operand or an unimplemented (operator,
            // primitive) combination fails the reduction typed instead
            // of tearing the simulation down; the accumulator is left
            // untouched.
            self.ranks[r].errors.push(e);
            return;
        }
        let (vstart, len) = view(dst);
        let mem = self.mems[r]
            .space
            .slice_mut(vstart, len)
            .expect("envelope view in range");
        plan.unpack(0, n, &a, mem, (dst - vstart) as usize)
            .expect("dst covers the datatype");
        // Cost: read both operands, write one, ~1 ns/element ALU.
        let cost =
            ibdt_simcore::time::transfer_ns(3 * n, self.spec.host.copy_bw_bps) + n / prim.size();
        self.ranks[r]
            .cpu
            .reserve_labeled(sched.now(), cost, "reduce");
    }

    /// Fence epilogue: release origin registrations and barrier.
    fn finish_fence(&mut self, sched: &mut Scheduler<'_, Ev>, rank: u32) {
        let r = rank as usize;
        let regs: Vec<_> = self.ranks[r].rma_regs.drain(..).collect();
        let mut cost = 0;
        for reg in regs {
            cost += self.ranks[r]
                .pindown
                .release(&mut self.mems[r].regs, &self.spec.host.reg, reg.lkey)
                .expect("fence releases acquired registrations");
        }
        if cost > 0 {
            self.ranks[r]
                .cpu
                .reserve_labeled(sched.now(), cost, "dereg");
        }
        let ops = coll::barrier(rank, self.spec.nprocs);
        splice_front(&mut self.interp[r].prog, ops);
    }

    fn interp_advance(&mut self, sched: &mut Scheduler<'_, Ev>, rank: u32) {
        let r = rank as usize;
        loop {
            match self.interp[r].blocked {
                Blocked::WaitAll => {
                    if !self.ranks[r].all_reqs_done() {
                        return;
                    }
                    self.interp[r].blocked = Blocked::No;
                }
                Blocked::Compute { until } => {
                    if sched.now() < until {
                        return;
                    }
                    self.interp[r].blocked = Blocked::No;
                }
                Blocked::Fence => {
                    if self.ranks[r].rma_outstanding > 0 {
                        return;
                    }
                    self.interp[r].blocked = Blocked::No;
                    self.finish_fence(sched, rank);
                }
                Blocked::No => {}
            }
            let Some(op) = self.interp[r].prog.pop_front() else {
                if self.ranks[r].all_reqs_done() && self.interp[r].finished_at.is_none() {
                    self.interp[r].finished_at = Some(sched.now());
                }
                return;
            };
            match op {
                AppOp::Isend {
                    peer,
                    buf,
                    count,
                    ty,
                    tag,
                } => {
                    self.with_ctx(sched, r, |rs, am, ctx| {
                        progress::isend(rs, am, ctx, peer, buf, count, &ty, tag)
                    });
                }
                AppOp::Irecv {
                    peer,
                    buf,
                    count,
                    ty,
                    tag,
                } => {
                    self.with_ctx(sched, r, |rs, am, ctx| {
                        progress::irecv(rs, am, ctx, peer, buf, count, &ty, tag)
                    });
                }
                AppOp::WaitAll => {
                    self.interp[r].blocked = Blocked::WaitAll;
                }
                AppOp::Compute { ns } => {
                    let done = self.ranks[r]
                        .cpu
                        .reserve_labeled(sched.now(), ns, "compute");
                    self.interp[r].blocked = Blocked::Compute { until: done };
                    sched.at(done, Ev::Resume { rank });
                }
                AppOp::MarkTime { slot } => {
                    self.marks[r].push((slot, sched.now()));
                }
                AppOp::Alltoall {
                    sbuf,
                    rbuf,
                    count,
                    sty,
                    rty,
                } => {
                    let ops = coll::alltoall(rank, self.spec.nprocs, sbuf, rbuf, count, &sty, &rty);
                    splice_front(&mut self.interp[r].prog, ops);
                }
                AppOp::Bcast {
                    root,
                    buf,
                    count,
                    ty,
                } => {
                    let ops = coll::bcast(rank, self.spec.nprocs, root, buf, count, &ty);
                    splice_front(&mut self.interp[r].prog, ops);
                }
                AppOp::Allgather {
                    sbuf,
                    rbuf,
                    count,
                    ty,
                } => {
                    let ops = coll::allgather(rank, self.spec.nprocs, sbuf, rbuf, count, &ty);
                    splice_front(&mut self.interp[r].prog, ops);
                }
                AppOp::Barrier => {
                    let ops = coll::barrier(rank, self.spec.nprocs);
                    splice_front(&mut self.interp[r].prog, ops);
                }
                AppOp::Gather {
                    root,
                    sbuf,
                    rbuf,
                    count,
                    ty,
                } => {
                    let ops = coll::gather(rank, self.spec.nprocs, root, sbuf, rbuf, count, &ty);
                    splice_front(&mut self.interp[r].prog, ops);
                }
                AppOp::Scatter {
                    root,
                    sbuf,
                    rbuf,
                    count,
                    ty,
                } => {
                    let ops = coll::scatter(rank, self.spec.nprocs, root, sbuf, rbuf, count, &ty);
                    splice_front(&mut self.interp[r].prog, ops);
                }
                AppOp::Reduce {
                    root,
                    sbuf,
                    rbuf,
                    scratch,
                    count,
                    ty,
                    op,
                } => {
                    let ops = coll::reduce(
                        rank,
                        self.spec.nprocs,
                        root,
                        sbuf,
                        rbuf,
                        scratch,
                        count,
                        &ty,
                        op,
                    );
                    splice_front(&mut self.interp[r].prog, ops);
                }
                AppOp::Allreduce {
                    sbuf,
                    rbuf,
                    scratch,
                    count,
                    ty,
                    op,
                } => {
                    let ops = coll::allreduce(
                        rank,
                        self.spec.nprocs,
                        sbuf,
                        rbuf,
                        scratch,
                        count,
                        &ty,
                        op,
                    );
                    splice_front(&mut self.interp[r].prog, ops);
                }
                AppOp::CombineBuffers {
                    dst,
                    src,
                    count,
                    ty,
                    op,
                } => {
                    self.combine_buffers(sched, rank, dst, src, count, &ty, op);
                }
                AppOp::WinCreate { win, addr, len } => {
                    let Cluster {
                        mems,
                        ranks,
                        spec,
                        windows,
                        ..
                    } = self;
                    let rs = &mut ranks[r];
                    let reg = mems[r].regs.register(addr, len);
                    rs.cpu
                        .reserve_labeled(sched.now(), spec.host.reg.reg_cost(addr, len), "reg");
                    windows.insert(
                        (win, rank),
                        crate::rma::WinEntry {
                            base: addr,
                            len,
                            rkey: reg.rkey,
                        },
                    );
                    // Collective: window info is usable after the
                    // barrier completes on all ranks.
                    let ops = coll::barrier(rank, self.spec.nprocs);
                    splice_front(&mut self.interp[r].prog, ops);
                }
                AppOp::Put {
                    win,
                    target,
                    obuf,
                    ocount,
                    oty,
                    toff,
                    tcount,
                    tty,
                } => {
                    let entry = *self
                        .windows
                        .get(&(win, target))
                        .expect("Put before the target created the window");
                    self.with_ctx(sched, r, |rs, _, ctx| {
                        crate::rma::put(
                            rs, ctx, target, entry, obuf, ocount, &oty, toff, tcount, &tty,
                        )
                    });
                }
                AppOp::Get {
                    win,
                    target,
                    obuf,
                    ocount,
                    oty,
                    toff,
                    tcount,
                    tty,
                } => {
                    let entry = *self
                        .windows
                        .get(&(win, target))
                        .expect("Get before the target created the window");
                    self.with_ctx(sched, r, |rs, _, ctx| {
                        crate::rma::get(
                            rs, ctx, target, entry, obuf, ocount, &oty, toff, tcount, &tty,
                        )
                    });
                }
                AppOp::Fence => {
                    if self.ranks[r].rma_outstanding > 0 {
                        self.interp[r].blocked = Blocked::Fence;
                        return;
                    }
                    self.finish_fence(sched, rank);
                }
                AppOp::HintReusedBuffer { addr, len } => {
                    // Register through the pin-down cache and release
                    // immediately: the cached entry makes the first
                    // communication on this buffer a registration hit.
                    let Cluster {
                        mems, ranks, spec, ..
                    } = self;
                    let rs = &mut ranks[r];
                    let acq = rs
                        .pindown
                        .acquire(&mut mems[r].regs, &spec.host.reg, addr, len);
                    let rel = rs
                        .pindown
                        .release(&mut mems[r].regs, &spec.host.reg, acq.reg.lkey)
                        .expect("hint registration releases");
                    rs.cpu
                        .reserve_labeled(sched.now(), acq.cost_ns + rel, "hint-reg");
                }
            }
        }
    }

    /// Runs `f` on `rank`'s protocol state with the progress context
    /// over the whole cluster.
    fn with_ctx<'s, R>(
        &mut self,
        sched: &mut Scheduler<'s, Ev>,
        r: usize,
        f: impl FnOnce(&mut RankState, &mut ActiveMsgs, &mut Ctx<'_, 's>) -> R,
    ) -> R {
        let Cluster {
            fabric,
            mems,
            ranks,
            active,
            spec,
            ..
        } = self;
        let mut ctx = Ctx {
            fabric: fabric.as_mut(),
            mems,
            net: &spec.net,
            host: &spec.host,
            cfg: &spec.mpi,
            sched,
        };
        f(&mut ranks[r], &mut active[r], &mut ctx)
    }

    /// True when `rank`'s host has crash-stopped for good: its node is
    /// down ([`NicEvent::NodeDown`]) with no restart pending. A halted
    /// rank's CPU and completion events are discarded — the process is
    /// gone. A *restartable* down window deliberately leaves the
    /// program running against the dead fabric: its posts fail into
    /// the connection manager, which bridges the window and re-drives
    /// everything once the node returns (checkpoint-restore
    /// semantics; see DESIGN.md §15).
    fn rank_halted(&self, rank: u32) -> bool {
        self.fabric.node_down(rank) && !self.fabric.node_will_restart(rank)
    }

    /// Feeds `rank`'s tapped pack and wire spans to its overlap meter.
    fn meter_overlap(&mut self, rank: u32) {
        let rs = &mut self.ranks[rank as usize];
        rs.pack_wire.feed(
            rs.cpu.trace_mut(),
            self.fabric.tx_engine_mut(rank).trace_mut(),
        );
    }

    /// Feeds the rank's overlap meter and schedules interpreter
    /// resumption for ranks with fresh completions.
    fn drain_completions(&mut self, sched: &mut Scheduler<'_, Ev>, rank: u32) {
        self.meter_overlap(rank);
        let r = rank as usize;
        if !self.ranks[r].newly_completed.is_empty() || self.ranks[r].rma_event {
            self.ranks[r].newly_completed.clear();
            self.ranks[r].rma_event = false;
            sched.at(sched.now(), Ev::Resume { rank });
        }
    }
}

/// Decodes a fixed-width little-endian operand, failing typed
/// ([`MpiError::Truncated`]) instead of panicking when the slice is
/// short — a corrupted layout must not bring the whole simulation down.
fn le_operand<const N: usize>(b: &[u8]) -> Result<[u8; N], MpiError> {
    b.try_into().map_err(|_| MpiError::Truncated {
        expected: N as u32,
        got: b.len() as u32,
    })
}

/// One element of [`Cluster::combine_buffers`]: `da = op(da, db)` over
/// primitive `prim`, with typed errors for short operands and
/// unimplemented combinations.
fn combine_element(
    da: &mut [u8],
    db: &[u8],
    op: ReduceOp,
    prim: ibdt_datatype::Primitive,
) -> Result<(), MpiError> {
    use ibdt_datatype::Primitive;
    match (op, prim) {
        (ReduceOp::Replace, _) => da.copy_from_slice(db),
        (ReduceOp::Sum, Primitive::Int) => {
            let v = i32::from_le_bytes(le_operand(da)?)
                .wrapping_add(i32::from_le_bytes(le_operand(db)?));
            da.copy_from_slice(&v.to_le_bytes());
        }
        (ReduceOp::Max, Primitive::Int) => {
            let v = i32::from_le_bytes(le_operand(da)?).max(i32::from_le_bytes(le_operand(db)?));
            da.copy_from_slice(&v.to_le_bytes());
        }
        (ReduceOp::Sum, Primitive::Double) => {
            let v = f64::from_le_bytes(le_operand(da)?) + f64::from_le_bytes(le_operand(db)?);
            da.copy_from_slice(&v.to_le_bytes());
        }
        (ReduceOp::Max, Primitive::Double) => {
            let v = f64::from_le_bytes(le_operand(da)?).max(f64::from_le_bytes(le_operand(db)?));
            da.copy_from_slice(&v.to_le_bytes());
        }
        (_, _) => return Err(MpiError::UnsupportedReduction),
    }
    Ok(())
}

fn splice_front(prog: &mut VecDeque<AppOp>, ops: Vec<AppOp>) {
    for op in ops.into_iter().rev() {
        prog.push_front(op);
    }
}

impl World for Cluster {
    type Event = Ev;

    fn handle(&mut self, sched: &mut Scheduler<'_, Ev>, ev: Ev) {
        match ev {
            Ev::Nic(e) => {
                let mut completions = std::mem::take(&mut self.cqe_buf);
                completions.clear();
                {
                    let Cluster { fabric, mems, .. } = self;
                    fabric.handle(
                        sched.now(),
                        e,
                        mems,
                        &mut |t, e| sched.at(t, Ev::Nic(e)),
                        &mut completions,
                    );
                }
                for &(node, cqe) in &completions {
                    if self.rank_halted(node) {
                        // The rank crash-stopped: its CPU never sees
                        // the completion. The CQ-consumer ack below
                        // still runs so the fabric's occupancy
                        // accounting stays balanced.
                        if self.spec.net.cq_depth != usize::MAX {
                            sched.at(sched.now(), Ev::CqAck { rank: node, n: 1 });
                        }
                        continue;
                    }
                    {
                        self.with_ctx(sched, node as usize, |rs, am, ctx| {
                            progress::on_cqe(rs, am, ctx, cqe)
                        });
                    }
                    self.drain_completions(sched, node);
                    // Bounded-CQ consumer model: the slot is returned
                    // once the rank's CPU has drained the completion.
                    // Unbounded (default) runs schedule no extra events,
                    // keeping committed results bit-identical.
                    if self.spec.net.cq_depth != usize::MAX {
                        // The CPU may have been idle when the CQE landed,
                        // leaving `available_at` behind the clock.
                        let at = self.ranks[node as usize]
                            .cpu
                            .available_at()
                            .max(sched.now());
                        sched.at(at, Ev::CqAck { rank: node, n: 1 });
                    }
                }
                self.cqe_buf = completions;
            }
            Ev::Cpu { rank, act } => {
                if self.rank_halted(rank) {
                    return;
                }
                {
                    self.with_ctx(sched, rank as usize, |rs, am, ctx| {
                        progress::on_cpu(rs, am, ctx, act)
                    });
                }
                self.drain_completions(sched, rank);
            }
            Ev::Resume { rank } => {
                if self.rank_halted(rank) {
                    return;
                }
                self.interp_advance(sched, rank);
            }
            Ev::CqAck { rank, n } => {
                self.fabric.cq_consume(rank, n as usize);
            }
        }
        if self.spec.mpi.audit {
            // Decimated: the full check is O(nprocs²), far too hot for
            // every event of a 65-rank incast soak.
            self.events_handled += 1;
            if self.events_handled.is_multiple_of(64) {
                self.audit_invariants(false);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tiled fill is the per-byte formula, byte for byte, at every
    /// length around the 2,048-byte period and at unaligned addresses.
    #[test]
    fn fill_pattern_matches_the_formula() {
        let mut cluster = Cluster::new(ClusterSpec::default());
        let base = cluster.alloc(0, (2 << 20) + 4096, 4096);
        for len in [0u64, 1, 2047, 2048, 2049, 4097, 2 << 20] {
            for (off, seed) in [0u64, 3, 1021]
                .into_iter()
                .flat_map(|off| [0u64, 13, u64::MAX].map(|seed| (off, seed)))
            {
                cluster.fill_pattern(0, base + off, len, seed);
                let got = cluster.read_mem(0, base + off, len);
                for (i, &b) in got.iter().enumerate() {
                    let i = i as u64;
                    let want = ((i
                        .wrapping_mul(2654435761)
                        .wrapping_add(seed.wrapping_mul(977)))
                        >> 3) as u8;
                    assert_eq!(b, want, "len {len}, offset {off}, seed {seed}, byte {i}");
                }
            }
        }
    }

    /// Heap bytes every rank's traces and overlap meter hold after
    /// `rounds` BC-SPUP rendezvous round trips of 64 columns.
    fn trace_footprint(record: bool, rounds: u32) -> usize {
        let mut spec = ClusterSpec {
            record,
            ..ClusterSpec::default()
        };
        spec.mpi.scheme = crate::Scheme::BcSpup;
        let ty = Datatype::vector(128, 64, 4096, &Datatype::int()).unwrap();
        let mut cluster = Cluster::new(spec);
        let span = ty.true_ub() as u64 + 64;
        let bufs = [cluster.alloc(0, span, 4096), cluster.alloc(1, span, 4096)];
        let progs: Vec<Program> = (0..2u32)
            .map(|r| {
                let (peer, buf) = (1 - r, bufs[r as usize]);
                let ty = ty.clone();
                let send = AppOp::Isend {
                    peer,
                    buf,
                    count: 1,
                    ty: ty.clone(),
                    tag: 0,
                };
                let recv = AppOp::Irecv {
                    peer,
                    buf,
                    count: 1,
                    ty,
                    tag: 0,
                };
                let round = if r == 0 { [send, recv] } else { [recv, send] };
                (0..rounds)
                    .flat_map(|_| {
                        round
                            .clone()
                            .into_iter()
                            .flat_map(|op| [op, AppOp::WaitAll])
                    })
                    .collect()
            })
            .collect();
        let stats = cluster.run(progs);
        assert!(stats.errors.iter().all(Vec::is_empty), "{:?}", stats.errors);
        assert!(stats.pack_wire_overlap_ns[0] > 0, "BC-SPUP overlaps");
        (0..2)
            .map(|r| {
                let rs = &cluster.ranks[r];
                rs.cpu.trace().heap_bytes()
                    + rs.dma.trace().heap_bytes()
                    + rs.pack_wire.heap_bytes()
                    + cluster.fabric.tx_engine(r as u32).trace().heap_bytes()
            })
            .sum()
    }

    /// With recording off, trace and overlap-meter state is bounded by
    /// the work in flight: eight times the round trips hold the same
    /// bytes. Recording keeps every span, so there it grows.
    #[test]
    fn trace_state_does_not_grow_with_run_length_when_not_recording() {
        assert_eq!(trace_footprint(false, 4), trace_footprint(false, 32));
        assert!(trace_footprint(true, 32) > trace_footprint(true, 4));
    }

    /// Slots per eager ring in [`ring_spec`].
    const SLOTS: usize = 12;

    /// Twelve-slot rings on four ranks, so a short run wraps one.
    fn ring_spec() -> ClusterSpec {
        let mut spec = ClusterSpec {
            nprocs: 4,
            ..ClusterSpec::default()
        };
        spec.mpi.eager_bufs_per_peer = SLOTS;
        spec
    }

    /// Eager messages `src` sends `dst` in [`ring_run`]. Every ring
    /// that carries traffic ends rotated by a different amount (1 to
    /// 10 slots); ranks 2 and 3 exchange nothing, and rank 3 sends rank
    /// 0 more messages than the ring has slots, so that ring wraps.
    fn sends(src: u32, dst: u32) -> usize {
        match (src, dst) {
            (2, 3) | (3, 2) => 0,
            (3, 0) => SLOTS + 10,
            (3, 1) => 5,
            _ => (src * 4 + dst) as usize,
        }
    }

    /// Runs [`sends`] as 16-byte eager messages, each into its own
    /// receive buffer, and checks every ring was left whole, rotated
    /// by its message count.
    fn ring_run(cluster: &mut Cluster) {
        let n = cluster.nprocs();
        let ty = Datatype::int();
        let mut progs: Vec<Program> = vec![Vec::new(); n as usize];
        for (r, prog) in progs.iter_mut().enumerate() {
            let r = r as u32;
            for peer in (0..n).filter(|&p| p != r) {
                for tag in 0..sends(peer, r) as u32 {
                    let buf = cluster.alloc(r, 16, 16);
                    let ty = ty.clone();
                    prog.push(AppOp::Irecv {
                        peer,
                        buf,
                        count: 4,
                        ty,
                        tag,
                    });
                }
                for tag in 0..sends(r, peer) as u32 {
                    let buf = cluster.alloc(r, 16, 16);
                    let ty = ty.clone();
                    prog.push(AppOp::Isend {
                        peer,
                        buf,
                        count: 4,
                        ty,
                        tag,
                    });
                }
            }
            prog.push(AppOp::WaitAll);
        }
        let stats = cluster.run(progs);
        assert!(stats.errors.iter().all(Vec::is_empty), "{:?}", stats.errors);
        let spec = ring_spec();
        for r in 0..n {
            for peer in (0..n).filter(|&p| p != r) {
                let rs = &cluster.ranks[r as usize];
                let shift = sends(peer, r) % SLOTS;
                let ring = cluster.fabric.recvq_mut(r, peer);
                assert_eq!(ring.len(), SLOTS, "ring {r} <- {peer}");
                assert_eq!(ring[0], eager_slot_wr(&spec, rs, peer, shift));
            }
        }
    }

    /// Every receive queue of `cluster`, node then peer.
    fn rings(cluster: &mut Cluster) -> Vec<VecDeque<RecvWr>> {
        let n = cluster.nprocs();
        (0..n)
            .flat_map(|r| (0..n).map(move |p| (r, p)))
            .map(|(r, p)| cluster.fabric.recvq_mut(r, p).clone())
            .collect()
    }

    /// A recycled cluster's rings equal a fresh cluster's, descriptor
    /// by descriptor, after a run rotated each ring by its own amount
    /// (one pair untouched, one ring wrapped past its slot count).
    #[test]
    fn recycled_rings_are_restored_to_canonical_order() {
        let mut run = Cluster::new(ring_spec());
        ring_run(&mut run);
        run.recycle();
        let mut recycled = Cluster::new(ring_spec());
        let mut fresh = Cluster::new(ring_spec());
        assert_eq!(rings(&mut recycled), rings(&mut fresh));
    }

    /// A ring shortened before the reset is posted afresh, not rotated.
    #[test]
    fn a_short_ring_is_posted_afresh_on_recycle() {
        let mut run = Cluster::new(ring_spec());
        ring_run(&mut run);
        run.fabric.recvq_mut(0, 3).pop_front();
        run.recycle();
        let mut recycled = Cluster::new(ring_spec());
        let mut fresh = Cluster::new(ring_spec());
        assert_eq!(recycled.fabric.recvq_len(0, 3), SLOTS);
        assert_eq!(rings(&mut recycled), rings(&mut fresh));
    }

    /// True when a cluster is parked in this thread's spare.
    fn parked() -> bool {
        CLUSTER_SPARE.with(|s| s.borrow().is_some())
    }

    /// [`ring_spec`] with `scheme`.
    fn scheme_spec(scheme: crate::Scheme) -> ClusterSpec {
        let mut spec = ring_spec();
        spec.mpi.scheme = scheme;
        spec
    }

    /// Runs no program: only the pool counts of the build are counted.
    fn idle(c: &mut Cluster) -> crate::RunStats {
        c.run(vec![Vec::new(); c.nprocs() as usize])
    }

    /// A build of another spec takes the parked cluster when it has
    /// the same shape: its spaces are reset, not built, and its rings
    /// equal a fresh cluster's. A build of another shape leaves the
    /// parked cluster where it is and builds fresh spaces.
    #[test]
    fn another_spec_of_its_shape_resets_the_parked_cluster() {
        use crate::Scheme;
        let mut first = Cluster::new(scheme_spec(Scheme::Generic));
        ring_run(&mut first);
        first.recycle();

        let mut two_ranks = Cluster::new(ClusterSpec::default());
        assert!(parked(), "no parked cluster has two ranks");
        assert_eq!(idle(&mut two_ranks).space_pool, (2, 0, 0));

        let mut other = Cluster::new(scheme_spec(Scheme::MultiW));
        assert!(!parked(), "the parked cluster was taken");
        let mut fresh = Cluster::new(scheme_spec(Scheme::MultiW));
        assert_eq!(rings(&mut other), rings(&mut fresh));
        let (allocs, reuses, zeroed) = idle(&mut other).space_pool;
        assert_eq!((allocs, reuses), (0, 4), "every space reused, none built");
        assert!(
            zeroed > 0,
            "the reset re-zeroed the pages the last run wrote"
        );
        assert_eq!(idle(&mut fresh).space_pool, (4, 0, 0));
    }

    /// Two specs of one shape alternating share the one parked
    /// cluster: after the first build every build reuses it, and the
    /// spare never holds more than the last recycled cluster.
    #[test]
    fn alternating_specs_of_one_shape_reuse_one_parked_cluster() {
        use crate::Scheme;
        let specs = [scheme_spec(Scheme::BcSpup), scheme_spec(Scheme::MultiW)];
        for round in 0..2 {
            for (i, spec) in specs.iter().enumerate() {
                let mut c = Cluster::new(spec.clone());
                assert!(!parked(), "the build took the parked cluster");
                let (allocs, reuses, _) = idle(&mut c).space_pool;
                if round == 0 && i == 0 {
                    assert_eq!((allocs, reuses), (4, 0), "nothing to reuse yet");
                } else {
                    assert_eq!((allocs, reuses), (0, 4), "the parked cluster reused");
                }
                c.recycle();
                assert!(parked());
            }
        }
    }
}
