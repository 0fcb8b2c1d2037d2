//! Span recording is an observer: `ClusterSpec::record` keeps every
//! resource reservation as a span, and changes nothing else.
//!
//! Across every scheme on IB, shm double copy and shm single copy, and
//! BC-SPUP between device buffers, a recording run and a default run
//! must give the same `RunStats` (compared through their `Debug` form,
//! so every field counts) and the same busy time under every label.
//! The pack/wire overlap a default run meters as it goes must equal the
//! sweep over the spans a recording run keeps, and a default run must
//! keep no spans at all.

use ibdt_datatype::Datatype;
use ibdt_mpicore::{
    AppOp, Cluster, ClusterSpec, Program, RunStats, Scheme, ShmConfig, ShmCopyMode, TransportConfig,
};
use std::collections::BTreeSet;

const SCHEMES: [Scheme; 7] = [
    Scheme::Generic,
    Scheme::BcSpup,
    Scheme::RwgUp,
    Scheme::PRrs,
    Scheme::MultiW,
    Scheme::Hybrid,
    Scheme::Adaptive,
];

fn transports() -> [TransportConfig; 3] {
    let shm = |copy_mode| {
        TransportConfig::Shm(ShmConfig {
            copy_mode,
            ..ShmConfig::default()
        })
    };
    [
        TransportConfig::Ib,
        shm(ShmCopyMode::Double),
        shm(ShmCopyMode::Single),
    ]
}

/// The paper's vector type: `cols` columns of a 128 x 4096 int array.
fn vector_cols(cols: u64) -> Datatype {
    Datatype::vector(128, cols, 4096, &Datatype::int()).unwrap()
}

/// Two rendezvous sends 0 → 1 and an eager reply 1 → 0, on host or
/// device buffers; returns the stats and the finished cluster.
fn run(spec: ClusterSpec, device: bool) -> (RunStats, Cluster) {
    let (big, small) = (vector_cols(64), vector_cols(4));
    let mut cluster = Cluster::new(spec);
    let span = big.true_ub() as u64 + 64;
    let alloc = |c: &mut Cluster, r| {
        if device {
            c.alloc_device(r, span, 4096)
        } else {
            c.alloc(r, span, 4096)
        }
    };
    let (sbuf, rbuf) = (alloc(&mut cluster, 0), alloc(&mut cluster, 1));
    cluster.fill_pattern(0, sbuf, span, 42);
    cluster.fill_pattern(1, rbuf, span, 7);
    let send = |peer, buf, ty: &Datatype, tag| AppOp::Isend {
        peer,
        buf,
        count: 1,
        ty: ty.clone(),
        tag,
    };
    let recv = |peer, buf, ty: &Datatype, tag| AppOp::Irecv {
        peer,
        buf,
        count: 1,
        ty: ty.clone(),
        tag,
    };
    let p0: Program = vec![
        send(1, sbuf, &big, 0),
        send(1, sbuf, &big, 1),
        AppOp::WaitAll,
        recv(1, sbuf, &small, 2),
        AppOp::WaitAll,
    ];
    let p1: Program = vec![
        recv(0, rbuf, &big, 0),
        AppOp::WaitAll,
        recv(0, rbuf, &big, 1),
        AppOp::WaitAll,
        send(0, rbuf, &small, 2),
        AppOp::WaitAll,
    ];
    let stats = cluster.run(vec![p0, p1]);
    assert_eq!(stats.total_errors(), 0, "clean run");
    (stats, cluster)
}

/// Runs `spec` with and without recording and checks that recording
/// only adds spans. Returns the summed pack/wire overlap.
fn assert_recording_observes_only(spec: ClusterSpec, device: bool) -> u64 {
    let what = format!(
        "{:?} on {:?}, device {device}",
        spec.mpi.scheme, spec.transport
    );
    let (off, quiet) = run(spec.clone(), device);
    let (on, rec) = run(
        ClusterSpec {
            record: true,
            ..spec
        },
        device,
    );
    assert_eq!(
        format!("{off:?}"),
        format!("{on:?}"),
        "{what}: RunStats differ"
    );
    for r in 0..2 {
        let traces = [
            (quiet.cpu_trace(r), rec.cpu_trace(r)),
            (quiet.tx_trace(r), rec.tx_trace(r)),
        ];
        for (q, t) in traces {
            assert!(q.spans().is_empty(), "{what}: default run kept spans");
            assert_eq!(q.busy(), t.busy(), "{what}: total busy differs");
            assert_eq!(q.reservations(), t.spans().len() as u64);
            let labels: BTreeSet<&str> = t.spans().iter().map(|s| s.label).collect();
            for label in labels.iter().copied().chain(["pack", "wire", "nope"]) {
                assert_eq!(
                    q.busy_with_label(label),
                    t.busy_with_label(label),
                    "{what}: busy time under {label:?} differs on rank {r}"
                );
            }
        }
        assert_eq!(
            on.pack_wire_overlap_ns[r as usize],
            rec.cpu_trace(r)
                .overlap_with("pack", rec.tx_trace(r), "wire"),
            "{what}: metered overlap differs from the sweep on rank {r}"
        );
    }
    on.pack_wire_overlap_ns.iter().sum()
}

#[test]
fn recording_changes_nothing_but_the_spans() {
    for transport in transports() {
        for scheme in SCHEMES {
            let mut spec = ClusterSpec {
                transport,
                ..ClusterSpec::default()
            };
            spec.mpi.scheme = scheme;
            let overlap = assert_recording_observes_only(spec, false);
            if scheme == Scheme::BcSpup && transport == TransportConfig::Ib {
                assert!(overlap > 0, "BC-SPUP on IB pipelines pack against wire");
            }
        }
    }
}

#[test]
fn recording_changes_nothing_on_device_buffers() {
    let mut spec = ClusterSpec::default();
    spec.mpi.scheme = Scheme::BcSpup;
    assert_recording_observes_only(spec, true);
}
