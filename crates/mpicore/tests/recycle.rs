//! Cluster recycling: a recycled cluster must be *bit-identical* to a
//! fresh one.
//!
//! [`Cluster::recycle`] parks a finished cluster in a thread-local
//! pool; [`Cluster::new`] with an equal spec resets and reuses it.
//! The contract is exact — same virtual-time results, same receiver
//! memory, and the same `RunStats` down to cache and pool counters as
//! a fresh cluster built on a warm thread — so a sweep can recycle
//! freely without perturbing any published number. These tests drive
//! the whole `RunStats` through its `Debug` form, which covers every
//! field (including the pool deltas) without a curated allow-list.

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

/// Builds a cluster for `spec` (transparently pool-hitting if one was
/// recycled), runs one ping-pong workload over `cols` columns, and
/// returns `(full Debug fingerprint of RunStats, receiver memory,
/// allocations in new+run)`. Recycles the cluster afterwards iff
/// `recycle`.
fn run_workload(spec: &ClusterSpec, cols: u64, recycle: bool) -> (String, Vec<u8>, u64) {
    let ty = vector_cols(cols);
    let a0 = CountingAlloc::allocations();
    let mut cluster = Cluster::new(spec.clone());
    let span = ty.true_ub() as u64 + 64;
    let sbuf = cluster.alloc(0, span, 4096);
    let rbuf = cluster.alloc(1, span, 4096);
    cluster.fill_pattern(0, sbuf, span, 42);
    let progs = programs(&ty, sbuf, rbuf);
    let stats = cluster.run(progs);
    let allocs = CountingAlloc::allocations() - a0;
    let mem = cluster.read_mem(1, rbuf, span);
    if recycle {
        cluster.recycle();
    }
    (format!("{stats:?}"), mem, allocs)
}

/// Same spec, same workload: the recycled run must reproduce the fresh
/// warm-thread run exactly, while constructing with strictly fewer
/// allocations.
fn assert_recycled_identical(spec: &ClusterSpec) {
    // Cold run: warms the thread-local scratch/space/payload pools the way
    // any sweep's first point does. Dropped, not recycled, so the next
    // build is a true fresh-on-warm-thread reference.
    let _ = run_workload(spec, 4, false);
    let (fresh_fp, fresh_mem, fresh_allocs) = run_workload(spec, 4, true);
    // The recycle above parked the cluster; this run must pool-hit.
    let (rec_fp, rec_mem, rec_allocs) = run_workload(spec, 4, false);
    assert_eq!(fresh_fp, rec_fp, "recycled RunStats diverged from fresh");
    assert_eq!(fresh_mem, rec_mem, "recycled receiver memory diverged");
    assert!(
        rec_allocs < fresh_allocs,
        "pool hit saved no allocations (fresh {fresh_allocs}, recycled {rec_allocs}) — \
         recycling is not engaging"
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

/// Removes the host-side pool-accounting deltas (`space_pool`,
/// `scratch_pool`, `payload_pool`) from a `RunStats` fingerprint.
///
/// The cross-state tests below compare runs under *different*
/// thread-local pool warmth: a parked cluster keeps its address-space
/// and scratch backing captive, so a fresh build that runs while
/// something else sits in the cluster pool legitimately draws fewer
/// spares (more allocs, fewer reuses) than one that runs with the
/// pools fully stocked. Those deltas are host-side bookkeeping, not
/// simulation results; everything else must still match exactly.
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
    let _ = run_workload(&spec, 4, false); // warm pools
                                           // Fresh reference for workload Q (64 columns -> rendezvous).
    let (q_fresh_fp, q_fresh_mem, _) = run_workload(&spec, 64, false);
    // Run workload P (4 columns -> eager) and recycle.
    let _ = run_workload(&spec, 4, true);
    // The pooled cluster (which ran P) now runs Q.
    let (q_rec_fp, q_rec_mem, _) = run_workload(&spec, 64, false);
    assert_eq!(
        scrub_pool_stats(&q_fresh_fp),
        scrub_pool_stats(&q_rec_fp),
        "recycled cluster carried state from its previous run"
    );
    assert_eq!(q_fresh_mem, q_rec_mem);
}

/// The spec-miss path: cycling through more specs than the cluster
/// pool holds (as a sweep over every scheme and transport does) evicts
/// each parked cluster before its spec comes round again, so every
/// build in the cycle is fresh, on a thread whose pools are partly
/// held captive by the parked clusters. Those rebuilds must
/// fingerprint exactly like a fresh build of the same spec, up to the
/// pool deltas (the recycled address spaces' dirty-page history moves
/// `space_pool`'s zeroed-byte count).
#[test]
fn evicted_specs_rebuild_like_fresh() {
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
    let _ = run_workload(&specs[0], 4, false); // warm pools
    let fresh: Vec<(String, Vec<u8>)> = specs
        .iter()
        .map(|spec| {
            let (fp, mem, _) = run_workload(spec, 64, false);
            (scrub_pool_stats(&fp), mem)
        })
        .collect();
    for round in 0..2 {
        for (spec, (fresh_fp, fresh_mem)) in specs.iter().zip(&fresh) {
            let (fp, mem, _) = run_workload(spec, 64, true);
            assert_eq!(
                &scrub_pool_stats(&fp),
                fresh_fp,
                "round {round}: rebuilt {:?} / {:?} diverged from a fresh build",
                spec.mpi.scheme,
                spec.transport
            );
            assert_eq!(&mem, fresh_mem);
        }
    }
}

/// Pool keying is exact spec equality: a recycled cluster must not be
/// handed to a spec that differs (here: a different scheme).
#[test]
fn recycle_keyed_on_spec_equality() {
    let _serial = serial();
    let spec_a = ib_spec(Scheme::BcSpup);
    let spec_b = ib_spec(Scheme::MultiW);
    let _ = run_workload(&spec_b, 4, false); // warm pools
    let (b_fresh_fp, ..) = run_workload(&spec_b, 4, false);
    let _ = run_workload(&spec_a, 4, true); // parks a BcSpup cluster
                                            // MultiW build must NOT take the BcSpup cluster; results match the
                                            // fresh MultiW reference.
    let (b_fp, ..) = run_workload(&spec_b, 4, false);
    assert_eq!(scrub_pool_stats(&b_fresh_fp), scrub_pool_stats(&b_fp));
}
