//! Cluster recycling: a recycled cluster must be *bit-identical* to a
//! fresh one.
//!
//! [`Cluster::recycle`] parks a finished cluster in a one-slot
//! thread-local spare; [`Cluster::new`] takes it when the next spec
//! has the same shape (rank count and address-space capacity), and
//! resets it to that spec, whatever spec it served before. The
//! contract is exact — same virtual-time results, same receiver
//! memory, and the same `RunStats` as a fresh cluster in every
//! simulation field — so a sweep can recycle freely without perturbing
//! any published number. These tests drive the whole `RunStats`
//! through its `Debug` form, which covers every field without a
//! curated allow-list. The host-side pool counts are the one
//! exception: a reused pool counts reuses where a fresh one allocates,
//! so the fingerprints are compared without them
//! ([`scrub_pool_stats`]) and the reuse is asserted on its own.

use ibdt_datatype::Datatype;
use ibdt_mpicore::{
    AppOp, Cluster, ClusterSpec, Program, Scheme, ShmConfig, ShmCopyMode, TransportConfig,
};
use ibdt_testkit::CountingAlloc;
use std::sync::{Mutex, MutexGuard};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The allocation counter is process-global: every test here holds
/// this lock, so no sibling test's allocations land in a measured run.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn ib_spec(scheme: Scheme) -> ClusterSpec {
    let mut spec = ClusterSpec::default();
    spec.mpi.scheme = scheme;
    spec
}

fn shm_spec(mode: ShmCopyMode) -> ClusterSpec {
    let mut spec = ClusterSpec::default();
    spec.mpi.scheme = Scheme::Adaptive;
    spec.transport = TransportConfig::Shm(ShmConfig {
        copy_mode: mode,
        ..ShmConfig::default()
    });
    spec
}

/// The paper's vector type: `cols` columns of a 128 x 4096 int array.
fn vector_cols(cols: u64) -> Datatype {
    Datatype::vector(128, cols, 4096, &Datatype::int()).unwrap()
}

/// One ping-pong round per tag over `cols` columns: eager for small
/// column counts, rendezvous for large — both protocol tiers and the
/// echo direction exercise the reset send *and* receive state.
fn programs(ty: &Datatype, sbuf: u64, rbuf: u64) -> Vec<Program> {
    let mut p0: Program = vec![AppOp::MarkTime { slot: 0 }];
    let mut p1: Program = Vec::new();
    for tag in 0..3 {
        p0.push(AppOp::Isend {
            peer: 1,
            buf: sbuf,
            count: 1,
            ty: ty.clone(),
            tag,
        });
        p0.push(AppOp::WaitAll);
        p1.push(AppOp::Irecv {
            peer: 0,
            buf: rbuf,
            count: 1,
            ty: ty.clone(),
            tag,
        });
        p1.push(AppOp::WaitAll);
    }
    p1.push(AppOp::Isend {
        peer: 0,
        buf: rbuf,
        count: 1,
        ty: ty.clone(),
        tag: 9,
    });
    p1.push(AppOp::WaitAll);
    p0.push(AppOp::Irecv {
        peer: 1,
        buf: sbuf,
        count: 1,
        ty: ty.clone(),
        tag: 9,
    });
    p0.push(AppOp::WaitAll);
    p0.push(AppOp::MarkTime { slot: 1 });
    vec![p0, p1]
}

/// One [`run_case`] result.
struct Run {
    /// Full `Debug` fingerprint of the `RunStats`.
    fp: String,
    /// Receiver memory.
    mem: Vec<u8>,
    /// Allocations in `Cluster::new` and the run.
    allocs: u64,
    /// `RunStats::space_pool`.
    spaces: (u64, u64, u64),
    /// Spans recorded on every rank's CPU and transport engine.
    spans: usize,
}

/// [`run_case`] on host buffers.
fn run_workload(spec: &ClusterSpec, cols: u64, recycle: bool) -> Run {
    run_case(spec, false, cols, recycle)
}

/// Builds a cluster for `spec` (transparently resetting the parked
/// one), runs one ping-pong workload over `cols` columns, in device
/// memory when `device`, and returns what it saw. Recycles the cluster
/// afterwards iff `recycle`.
fn run_case(spec: &ClusterSpec, device: bool, cols: u64, recycle: bool) -> Run {
    let ty = vector_cols(cols);
    let a0 = CountingAlloc::allocations();
    let mut cluster = Cluster::new(spec.clone());
    let span = ty.true_ub() as u64 + 64;
    let (sbuf, rbuf) = if device {
        (
            cluster.alloc_device(0, span, 4096),
            cluster.alloc_device(1, span, 4096),
        )
    } else {
        (cluster.alloc(0, span, 4096), cluster.alloc(1, span, 4096))
    };
    cluster.fill_pattern(0, sbuf, span, 42);
    let progs = programs(&ty, sbuf, rbuf);
    let stats = cluster.run(progs);
    let allocs = CountingAlloc::allocations() - a0;
    let mem = cluster.read_mem(1, rbuf, span);
    let spans = (0..2)
        .map(|r| cluster.cpu_trace(r).spans().len() + cluster.tx_trace(r).spans().len())
        .sum();
    if recycle {
        cluster.recycle();
    }
    Run {
        fp: format!("{stats:?}"),
        mem,
        allocs,
        spaces: stats.space_pool,
        spans,
    }
}

/// Asserts that `run` reset both ranks' address spaces and built none.
fn assert_spaces_reused(run: &Run) {
    let (allocs, reuses, _) = run.spaces;
    assert_eq!((allocs, reuses), (0, 2), "spaces built instead of reused");
}

/// Same spec, same workload: the recycled run must reproduce the fresh
/// run in every simulation field, reuse every address space, and
/// construct with strictly fewer allocations.
fn assert_recycled_identical(spec: &ClusterSpec) {
    let fresh = run_workload(spec, 4, true);
    // The recycle above parked the cluster; this run must pool-hit.
    let rec = run_workload(spec, 4, false);
    assert_eq!(
        scrub_pool_stats(&fresh.fp),
        scrub_pool_stats(&rec.fp),
        "recycled RunStats diverged from fresh"
    );
    assert_eq!(fresh.mem, rec.mem, "recycled receiver memory diverged");
    assert_spaces_reused(&rec);
    assert!(
        rec.allocs < fresh.allocs,
        "pool hit saved no allocations (fresh {}, recycled {}) — \
         recycling is not engaging",
        fresh.allocs,
        rec.allocs
    );
}

#[test]
fn recycled_run_bit_identical_ib() {
    let _serial = serial();
    assert_recycled_identical(&ib_spec(Scheme::BcSpup));
}

#[test]
fn recycled_run_bit_identical_ib_adaptive() {
    let _serial = serial();
    assert_recycled_identical(&ib_spec(Scheme::Adaptive));
}

#[test]
fn recycled_run_bit_identical_shm_double() {
    let _serial = serial();
    assert_recycled_identical(&shm_spec(ShmCopyMode::Double));
}

#[test]
fn recycled_run_bit_identical_shm_single() {
    let _serial = serial();
    assert_recycled_identical(&shm_spec(ShmCopyMode::Single));
}

/// Removes the host-side pool counts (`space_pool`, `scratch_pool`,
/// `payload_pool`) from a `RunStats` fingerprint.
///
/// A reused cluster or address space counts reuses where a fresh one
/// allocates, and a reset space counts the dirty bytes its last tenant
/// left in `space_pool`'s zeroed total. Those counts are host-side
/// bookkeeping, not simulation results; everything else must match
/// exactly.
fn scrub_pool_stats(fp: &str) -> String {
    let mut out = fp.to_string();
    for (start, end) in [
        ("scratch_pool: [", "]"),
        ("payload_pool: (", ")"),
        ("space_pool: (", ")"),
    ] {
        let s = out.find(start).expect("field present in Debug output");
        let e = out[s..].find(end).expect("field terminator") + s + end.len();
        out.replace_range(s..e, "");
    }
    out
}

/// A recycled cluster must not leak its previous run into a
/// *different* workload: running Q on a cluster that previously ran P
/// must equal running Q on a fresh cluster.
#[test]
fn recycled_cluster_forgets_previous_run() {
    let _serial = serial();
    let spec = ib_spec(Scheme::BcSpup);
    // Fresh reference for workload Q (64 columns -> rendezvous).
    let q_fresh = run_workload(&spec, 64, false);
    // Run workload P (4 columns -> eager) and recycle.
    let _ = run_workload(&spec, 4, true);
    // The pooled cluster (which ran P) now runs Q.
    let q_rec = run_workload(&spec, 64, false);
    assert_eq!(
        scrub_pool_stats(&q_fresh.fp),
        scrub_pool_stats(&q_rec.fp),
        "recycled cluster carried state from its previous run"
    );
    assert_eq!(q_fresh.mem, q_rec.mem);
    assert_spaces_reused(&q_rec);
}

/// Every spec [`cross_spec_recycle_is_fresh`] crosses, with whether
/// its workload runs in device memory.
fn cross_cases() -> Vec<(&'static str, ClusterSpec, bool)> {
    let mut multi_w = ib_spec(Scheme::MultiW);
    multi_w.mpi.list_post = false;
    let mut small = ib_spec(Scheme::BcSpup);
    // One segment: a two-segment message exhausts the pack pool.
    small.mpi.pack_pool_size = small.mpi.max_seg_size;
    small.mpi.eager_bufs_per_peer = 16;
    // One slot shifts every receive slot's address by one slot, so a
    // ring left rotated by a run looks whole in the new layout.
    let mut send_ring = ib_spec(Scheme::BcSpup);
    send_ring.mpi.eager_send_bufs -= 1;
    // Multi-W registers the user buffers, through the cache when on.
    let mut no_pindown = ib_spec(Scheme::MultiW);
    no_pindown.mpi.pindown_cache = false;
    let mut record = ib_spec(Scheme::BcSpup);
    record.record = true;
    let mut net = ib_spec(Scheme::BcSpup);
    net.net.link_bw_bps /= 2;
    net.net.prop_delay_ns += 500;
    vec![
        ("ib generic", ib_spec(Scheme::Generic), false),
        ("ib bc-spup", ib_spec(Scheme::BcSpup), false),
        ("ib multi-w, list_post off", multi_w, false),
        ("ib adaptive", ib_spec(Scheme::Adaptive), false),
        ("shm double adaptive", shm_spec(ShmCopyMode::Double), false),
        ("shm single adaptive", shm_spec(ShmCopyMode::Single), false),
        ("device bc-spup", ib_spec(Scheme::BcSpup), true),
        ("small pools and rings", small, false),
        ("send ring one slot shorter", send_ring, false),
        ("pindown cache off", no_pindown, false),
        ("record on", record, false),
        ("slower network", net, false),
    ]
}

/// Runs A, recycles it, builds B from the parked cluster and runs it,
/// for every ordered pair (A, B) of [`cross_cases`]: B must reproduce
/// a fresh B in every simulation field, receiver byte and recorded
/// span count, and must reuse every address space. The reset takes
/// its pools, pin-down cache, eager rings, span recording, transport
/// and device tier from B's spec, never from A's.
#[test]
fn cross_spec_recycle_is_fresh() {
    let _serial = serial();
    let cases = cross_cases();
    let fresh: Vec<Run> = cases
        .iter()
        .map(|(_, spec, device)| run_case(spec, *device, 64, false))
        .collect();
    for (a, spec_a, device_a) in &cases {
        for ((b, spec_b, device_b), want) in cases.iter().zip(&fresh) {
            run_case(spec_a, *device_a, 64, true);
            let got = run_case(spec_b, *device_b, 64, false);
            assert_eq!(
                scrub_pool_stats(&got.fp),
                scrub_pool_stats(&want.fp),
                "{b} built from a recycled {a} diverged from a fresh {b}"
            );
            assert_eq!(got.mem, want.mem, "{b} after {a}: receiver memory");
            assert_eq!(got.spans, want.spans, "{b} after {a}: recorded spans");
            assert_spaces_reused(&got);
        }
    }
}

/// A run that allocated device memory (which switches its cluster's
/// device tier on) leaves nothing of the tier to a host-only build of
/// the same spec from its recycled cluster.
#[test]
fn device_tier_does_not_outlive_its_run() {
    let _serial = serial();
    let spec = ib_spec(Scheme::BcSpup);
    let fresh = run_workload(&spec, 64, false);
    let device = run_case(&spec, true, 64, true);
    assert_ne!(
        scrub_pool_stats(&device.fp),
        scrub_pool_stats(&fresh.fp),
        "the device run is priced differently"
    );
    let host = run_workload(&spec, 64, false);
    assert_eq!(scrub_pool_stats(&host.fp), scrub_pool_stats(&fresh.fp));
    assert_spaces_reused(&host);
}

/// Cycling through more specs than a sweep point uses (every scheme on
/// IB, both shm modes), each build resets the one cluster the previous
/// build parked: only the very first build makes address spaces, and
/// every rebuild fingerprints exactly like a fresh build of its spec,
/// up to the pool counts (the reused spaces' dirty-page history moves
/// `space_pool`'s zeroed-byte count).
#[test]
fn cycled_specs_reset_the_last_parked_cluster() {
    let _serial = serial();
    let specs: Vec<ClusterSpec> = [
        Scheme::Generic,
        Scheme::BcSpup,
        Scheme::RwgUp,
        Scheme::PRrs,
        Scheme::MultiW,
        Scheme::Adaptive,
    ]
    .into_iter()
    .map(ib_spec)
    .chain([ShmCopyMode::Double, ShmCopyMode::Single].map(shm_spec))
    .collect();
    let fresh: Vec<(String, Vec<u8>)> = specs
        .iter()
        .map(|spec| {
            let run = run_workload(spec, 64, false);
            (scrub_pool_stats(&run.fp), run.mem)
        })
        .collect();
    for round in 0..2 {
        for (i, (spec, (fresh_fp, fresh_mem))) in specs.iter().zip(&fresh).enumerate() {
            let run = run_workload(spec, 64, true);
            assert_eq!(
                &scrub_pool_stats(&run.fp),
                fresh_fp,
                "round {round}: rebuilt {:?} / {:?} diverged from a fresh build",
                spec.mpi.scheme,
                spec.transport
            );
            assert_eq!(&run.mem, fresh_mem);
            if round == 0 && i == 0 {
                assert_eq!(run.spaces.0, 2, "nothing parked yet");
            } else {
                assert_spaces_reused(&run);
            }
        }
    }
}

/// The spare is keyed on shape, not spec: a different scheme takes the
/// parked cluster, while a build of another rank count leaves it
/// parked for the next build of its shape.
#[test]
fn recycle_keyed_on_shape() {
    let _serial = serial();
    let spec_a = ib_spec(Scheme::BcSpup);
    let spec_b = ib_spec(Scheme::MultiW);
    let b_fresh = run_workload(&spec_b, 4, false);
    // Parks a BcSpup cluster, which the MultiW build resets.
    let a_fresh = run_workload(&spec_a, 4, true);
    let b = run_workload(&spec_b, 4, true);
    assert_eq!(scrub_pool_stats(&b_fresh.fp), scrub_pool_stats(&b.fp));
    assert_spaces_reused(&b);
    // A four-rank build finds the parked two-rank cluster the wrong
    // shape, builds its own and leaves it parked.
    let four = ClusterSpec {
        nprocs: 4,
        ..ClusterSpec::default()
    };
    let mut other_shape = Cluster::new(four);
    let idle = other_shape.run(vec![Vec::new(); 4]);
    assert_eq!(
        idle.space_pool.0, 4,
        "spaces built, the parked cluster kept"
    );
    let a = run_workload(&spec_a, 4, false);
    assert_eq!(scrub_pool_stats(&a_fresh.fp), scrub_pool_stats(&a.fp));
    assert_spaces_reused(&a);
}
