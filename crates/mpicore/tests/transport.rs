//! End-to-end tests of the shared-memory transport and the
//! per-transport adaptive scheme selection.
//!
//! Mirrors `schemes.rs` for the shm backend: every scheme must move
//! every noncontiguous byte correctly over both copy modes, the copy
//! counters must attribute work to the right mechanism (bounce slots
//! vs CMA calls), runs must be bit-deterministic, and the §6 adaptive
//! selector must pick *differently* on shm than on IB for at least one
//! (datatype, size) cell — the headline claim of figure x17.

use ibdt_datatype::Datatype;
use ibdt_mpicore::plan::adaptive_choose;
use ibdt_mpicore::{
    AppOp, Cluster, ClusterSpec, FaultPlan, Program, RunStats, Scheme, ShmConfig, ShmCopyMode,
    TransportClass, TransportConfig,
};

fn shm_spec(scheme: Scheme, mode: ShmCopyMode) -> ClusterSpec {
    let mut spec = ClusterSpec::default();
    spec.mpi.scheme = scheme;
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

/// Sends `count` instances of `ty` rank 0 -> rank 1 over shm, verifies
/// every datatype byte, and returns the stats.
fn shm_transfer(scheme: Scheme, mode: ShmCopyMode, ty: &Datatype, count: u64) -> RunStats {
    let mut cluster = Cluster::new(shm_spec(scheme, mode));
    let span = (count.saturating_sub(1) as i64 * ty.extent() + ty.true_ub()) as u64 + 64;
    let sbuf = cluster.alloc(0, span, 4096);
    let rbuf = cluster.alloc(1, span, 4096);
    cluster.fill_pattern(0, sbuf, span, 42);
    cluster.fill_pattern(1, rbuf, span, 7);

    let p0: Program = vec![
        AppOp::Isend {
            peer: 1,
            buf: sbuf,
            count,
            ty: ty.clone(),
            tag: 5,
        },
        AppOp::WaitAll,
    ];
    let p1: Program = vec![
        AppOp::Irecv {
            peer: 0,
            buf: rbuf,
            count,
            ty: ty.clone(),
            tag: 5,
        },
        AppOp::WaitAll,
    ];
    let stats = cluster.run(vec![p0, p1]);
    assert_eq!(stats.total_errors(), 0, "{scheme:?}/{mode:?}: clean run");

    let src = cluster.read_mem(0, sbuf, span);
    let dst = cluster.read_mem(1, rbuf, span);
    for (off, len) in ty.flat().repeat(count) {
        let o = off as usize;
        assert_eq!(
            &dst[o..o + len as usize],
            &src[o..o + len as usize],
            "{scheme:?}/{mode:?}: block at offset {off} corrupt"
        );
    }
    stats
}

const ALL_SCHEMES: [Scheme; 7] = [
    Scheme::Generic,
    Scheme::BcSpup,
    Scheme::RwgUp,
    Scheme::PRrs,
    Scheme::MultiW,
    Scheme::Adaptive,
    Scheme::Hybrid,
];

#[test]
fn every_scheme_moves_data_over_shm_double_copy() {
    let ty = vector_cols(4);
    for scheme in ALL_SCHEMES {
        let stats = shm_transfer(scheme, ShmCopyMode::Double, &ty, 1);
        assert!(
            stats.shm_bounce_chunks > 0,
            "{scheme:?}: double copy must fill bounce slots"
        );
        assert_eq!(
            stats.shm_cma_ops, 0,
            "{scheme:?}: double copy must not issue CMA calls"
        );
    }
}

#[test]
fn every_scheme_moves_data_over_shm_single_copy() {
    let ty = vector_cols(4);
    for scheme in ALL_SCHEMES {
        let stats = shm_transfer(scheme, ShmCopyMode::Single, &ty, 1);
        assert!(
            stats.shm_cma_ops > 0,
            "{scheme:?}: single copy must issue CMA calls"
        );
        assert_eq!(
            stats.shm_bounce_chunks, 0,
            "{scheme:?}: single copy must not touch the bounce segment"
        );
    }
}

/// The deterministic fingerprint of one run: everything RunStats
/// reports that virtual time or the protocol could perturb.
fn fingerprint(s: &RunStats) -> (u64, Vec<u64>, Vec<u64>, u64, u64, u64, u64, u64, u64) {
    (
        s.finish_ns,
        s.rank_finish_ns.clone(),
        s.cpu_busy_ns.clone(),
        s.wqes,
        s.bytes_on_wire,
        s.bytes_copied,
        s.events_scheduled,
        s.shm_bounce_chunks,
        s.shm_cma_ops,
    )
}

#[test]
fn shm_runs_are_deterministic() {
    let ty = vector_cols(3);
    for mode in [ShmCopyMode::Double, ShmCopyMode::Single] {
        let a = shm_transfer(Scheme::Adaptive, mode, &ty, 2);
        let b = shm_transfer(Scheme::Adaptive, mode, &ty, 2);
        assert_eq!(
            fingerprint(&a),
            fingerprint(&b),
            "{mode:?}: identical spec must reproduce identical stats"
        );
    }
}

#[test]
fn adaptive_selector_diverges_between_transports() {
    // A 256 KiB vector with 2 KiB blocks on both sides: on IB the
    // blocks clear the Multi-W threshold (512 B); on shm single-copy
    // they are far below the syscall-amortization threshold (8 KiB),
    // and on double-copy zero copy buys nothing — both fall back to
    // pack/unpack.
    let size = 256 * 1024;
    let blk = 2048;
    let ib = adaptive_choose(TransportClass::Ib, size, blk, blk);
    let shm1 = adaptive_choose(TransportClass::ShmSingle, size, blk, blk);
    let shm2 = adaptive_choose(TransportClass::ShmDouble, size, blk, blk);
    assert_eq!(ib, Scheme::MultiW);
    assert_eq!(shm1, Scheme::BcSpup);
    assert_eq!(shm2, Scheme::BcSpup);
    assert_ne!(ib, shm1, "the selector must key on the transport");

    // Huge blocks amortize the CMA setup: single-copy rejoins Multi-W
    // while double-copy still refuses.
    let big = 16 * 1024;
    let shm1_big = adaptive_choose(TransportClass::ShmSingle, size, big, big);
    assert_eq!(shm1_big, Scheme::MultiW);
    assert_eq!(
        adaptive_choose(TransportClass::ShmDouble, size, big, big),
        Scheme::BcSpup
    );
}

#[test]
#[should_panic(expected = "fault injection requires the IB transport")]
fn shm_rejects_fault_plans() {
    let mut spec = shm_spec(Scheme::BcSpup, ShmCopyMode::Double);
    spec.faults = FaultPlan::uniform(7, 0.1).unwrap();
    let _ = Cluster::new(spec);
}

#[test]
#[should_panic(expected = "invalid shm configuration")]
fn shm_rejects_invalid_config_at_cluster_build() {
    let spec = ClusterSpec {
        transport: TransportConfig::Shm(ShmConfig {
            slot_bytes: 0,
            ..ShmConfig::default()
        }),
        ..ClusterSpec::default()
    };
    let _ = Cluster::new(spec);
}
