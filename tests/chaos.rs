//! Chaos tests: random derived datatypes × schemes × seeded fault
//! plans pushed through the full stack. The contract under injected
//! faults is strict — every message is either delivered byte-exact
//! (transport recovered transparently) or fails with a typed
//! [`MpiError`]; panics and silent corruption are both bugs. The same
//! seed must reproduce the same virtual clock and counters.

use ibdt::datatype::Datatype;
use ibdt::mpicore::{
    AppOp, Cluster, ClusterSpec, FaultPlan, LinkFault, MpiError, RunStats, Scheme,
};
use ibdt_testkit::{cases, chaos_seed, Rng};

fn random_type(rng: &mut Rng) -> Datatype {
    let byte = Datatype::byte();
    match rng.range_u64(0, 3) {
        0 => {
            let blocklen = rng.range_u64(1, 500);
            let stride = blocklen + rng.range_u64(0, 500);
            Datatype::hvector(rng.range_u64(1, 120), blocklen, stride as i64, &byte).unwrap()
        }
        1 => {
            let n = rng.range_usize(1, 20);
            let mut displ = 0i64;
            let mut entries = Vec::new();
            for _ in 0..n {
                let len = rng.range_u64(1, 400);
                entries.push((len, displ));
                displ += (len + rng.range_u64(0, 600)) as i64;
            }
            Datatype::hindexed(&entries, &byte).unwrap()
        }
        _ => Datatype::contiguous(rng.range_u64(1, 60_000), &byte).unwrap(),
    }
}

fn scheme_of(i: u8) -> Scheme {
    match i % 7 {
        0 => Scheme::Generic,
        1 => Scheme::BcSpup,
        2 => Scheme::RwgUp,
        3 => Scheme::PRrs,
        4 => Scheme::MultiW,
        5 => Scheme::Hybrid,
        _ => Scheme::Adaptive,
    }
}

/// One send/recv pair under `spec`; returns the run stats plus the
/// source and destination windows for byte comparison.
fn run_pair(
    spec: ClusterSpec,
    ty: &Datatype,
    count: u64,
    seed: u64,
) -> (RunStats, Vec<u8>, Vec<u8>) {
    let mut cluster = Cluster::new(spec);
    let span = ((count - 1) as i64 * ty.extent() + ty.true_ub()).max(8) as u64 + 64;
    let sbuf = cluster.alloc(0, span, 4096);
    let rbuf = cluster.alloc(1, span, 4096);
    cluster.fill_pattern(0, sbuf, span, seed);
    cluster.fill_pattern(1, rbuf, span, seed ^ 0xFFFF);
    let p0 = vec![
        AppOp::Isend {
            peer: 1,
            buf: sbuf,
            count,
            ty: ty.clone(),
            tag: 1,
        },
        AppOp::WaitAll,
    ];
    let p1 = vec![
        AppOp::Irecv {
            peer: 0,
            buf: rbuf,
            count,
            ty: ty.clone(),
            tag: 1,
        },
        AppOp::WaitAll,
    ];
    let stats = cluster.run(vec![p0, p1]);
    let src = cluster.read_mem(0, sbuf, span);
    let dst = cluster.read_mem(1, rbuf, span);
    (stats, src, dst)
}

fn assert_delivered(ty: &Datatype, count: u64, src: &[u8], dst: &[u8], what: &str) {
    for (off, len) in ty.flat().repeat(count) {
        let o = off as usize;
        assert_eq!(
            &dst[o..o + len as usize],
            &src[o..o + len as usize],
            "{what}: corrupted block at offset {off}"
        );
    }
}

/// Moderate fault rates stay inside the transport's retry budget: the
/// run must end with zero protocol-visible errors and byte-exact
/// delivery, and the identical seed must reproduce the identical
/// virtual clock and counters.
#[test]
fn recoverable_chaos_delivers_exactly_and_deterministically() {
    cases(chaos_seed(0xC4A0_0001), 24, |rng| {
        let ty = random_type(rng);
        let scheme = scheme_of(rng.next_u64() as u8);
        let count = rng.range_u64(1, 3);
        if ty.size() == 0 || ty.size() * count >= 4 << 20 {
            return;
        }
        let pattern_seed = rng.next_u64();
        let faults = FaultPlan {
            seed: rng.next_u64(),
            drop_rate: rng.range_u64(0, 16) as f64 / 100.0,
            corrupt_rate: rng.range_u64(0, 16) as f64 / 100.0,
            delay_rate: rng.range_u64(0, 30) as f64 / 100.0,
            max_delay_ns: 30_000,
            stall_rate: rng.range_u64(0, 10) as f64 / 100.0,
            stall_ns: 5_000,
            ..FaultPlan::none()
        };
        let spec = || {
            let mut s = ClusterSpec::default();
            s.mpi.audit = true;
            s.mpi.scheme = scheme;
            s.faults = faults.clone();
            s
        };
        let (stats, src, dst) = run_pair(spec(), &ty, count, pattern_seed);
        assert_eq!(
            stats.total_errors(),
            0,
            "recoverable fault rates must not surface errors (scheme {scheme:?}): {:?}",
            stats.errors
        );
        assert_delivered(&ty, count, &src, &dst, "chaos delivery");

        // Determinism: replay with the identical seed.
        let (replay, _, _) = run_pair(spec(), &ty, count, pattern_seed);
        assert_eq!(stats.finish_ns, replay.finish_ns, "virtual clock diverged");
        assert_eq!(
            stats.counters, replay.counters,
            "protocol counters diverged"
        );
        assert_eq!(stats.fabric_per_rank, replay.fabric_per_rank);
    });
}

/// Total loss with a tiny retry budget: the run must terminate without
/// panicking and report typed transport errors on both sides.
#[test]
fn unrecoverable_loss_fails_with_typed_errors() {
    cases(chaos_seed(0xC4A0_0002), 10, |rng| {
        let ty = random_type(rng);
        let scheme = scheme_of(rng.next_u64() as u8);
        if ty.size() == 0 || ty.size() >= 2 << 20 {
            return;
        }
        let mut spec = ClusterSpec::default();
        spec.mpi.audit = true;
        spec.mpi.scheme = scheme;
        spec.net.retry_cnt = 1;
        spec.faults = FaultPlan {
            seed: rng.next_u64(),
            drop_rate: 1.0,
            ..FaultPlan::none()
        };
        let (stats, _, _) = run_pair(spec, &ty, 1, 42);
        assert!(
            stats.total_errors() > 0,
            "total loss must surface typed errors (scheme {scheme:?})"
        );
        assert!(stats.fabric().qp_errors >= 1);
        let typed = stats.errors.iter().flatten().any(|e| {
            matches!(
                e,
                MpiError::RetryExceeded { .. }
                    | MpiError::Flushed { .. }
                    | MpiError::Post { .. }
                    | MpiError::Incomplete
            )
        });
        assert!(
            typed,
            "expected transport-shaped errors, got {:?}",
            stats.errors
        );
    });
}

/// A registration budget too small for zero-copy pinning must degrade
/// RWG-UP / P-RRS / Multi-W / Hybrid to a copy-based scheme per message —
/// recorded in the counters — and still deliver byte-exact.
#[test]
fn registration_budget_forces_copy_fallback() {
    for scheme in [Scheme::RwgUp, Scheme::PRrs, Scheme::MultiW, Scheme::Hybrid] {
        let ty = Datatype::hvector(64, 1024, 2048, &Datatype::byte()).unwrap();
        let mut spec = ClusterSpec::default();
        spec.mpi.audit = true;
        spec.mpi.scheme = scheme;
        spec.mpi.reg_budget_bytes = 4096; // far below the 64 KiB payload
        let (stats, src, dst) = run_pair(spec, &ty, 1, 7);
        assert_eq!(
            stats.total_errors(),
            0,
            "budget pressure must degrade, not fail ({scheme:?}): {:?}",
            stats.errors
        );
        let fallbacks: u64 = stats.counters.iter().map(|c| c.scheme_fallbacks).sum();
        assert!(
            fallbacks > 0,
            "{scheme:?} should have recorded a scheme fallback"
        );
        assert_delivered(&ty, 1, &src, &dst, "budget fallback");
    }
}

/// With an ample budget the same messages must NOT fall back (guards
/// against the budget check being over-eager).
#[test]
fn ample_budget_never_falls_back() {
    for scheme in [Scheme::RwgUp, Scheme::PRrs, Scheme::MultiW, Scheme::Hybrid] {
        let ty = Datatype::hvector(64, 1024, 2048, &Datatype::byte()).unwrap();
        let mut spec = ClusterSpec::default();
        spec.mpi.audit = true;
        spec.mpi.scheme = scheme;
        let (stats, src, dst) = run_pair(spec, &ty, 1, 7);
        let fallbacks: u64 = stats.counters.iter().map(|c| c.scheme_fallbacks).sum();
        assert_eq!(
            fallbacks, 0,
            "{scheme:?} fell back despite unlimited budget"
        );
        assert_delivered(&ty, 1, &src, &dst, "no-fallback delivery");
    }
}

/// A receiver that is slow to post its receive triggers the
/// rendezvous-reply timeout: the sender must probe (bounded), the
/// late reply must still complete the message, and the duplicate-reply
/// guard must keep the data byte-exact.
#[test]
fn slow_receiver_triggers_reply_probe_and_still_delivers() {
    let ty = Datatype::contiguous(256 * 1024, &Datatype::byte()).unwrap();
    let mut spec = ClusterSpec::default();
    spec.mpi.audit = true;
    spec.mpi.scheme = Scheme::BcSpup;
    spec.mpi.rndv_reply_timeout_ns = 20_000;
    spec.mpi.rndv_max_rerequests = 100; // don't abort before the 300µs wake-up
    let mut cluster = Cluster::new(spec);
    let span = ty.size() + 64;
    let sbuf = cluster.alloc(0, span, 4096);
    let rbuf = cluster.alloc(1, span, 4096);
    cluster.fill_pattern(0, sbuf, span, 19);
    let p0 = vec![
        AppOp::Isend {
            peer: 1,
            buf: sbuf,
            count: 1,
            ty: ty.clone(),
            tag: 0,
        },
        AppOp::WaitAll,
    ];
    let p1 = vec![
        // The unexpected RndvStart sits unanswered well past the
        // sender's reply timeout.
        AppOp::Compute { ns: 300_000 },
        AppOp::Irecv {
            peer: 0,
            buf: rbuf,
            count: 1,
            ty: ty.clone(),
            tag: 0,
        },
        AppOp::WaitAll,
    ];
    let stats = cluster.run(vec![p0, p1]);
    assert_eq!(
        stats.total_errors(),
        0,
        "probe path must not fail: {:?}",
        stats.errors
    );
    let probes: u64 = stats.counters.iter().map(|c| c.rndv_rerequests).sum();
    assert!(
        probes > 0,
        "sender never probed despite 300µs receive delay"
    );
    let src = cluster.read_mem(0, sbuf, span);
    let dst = cluster.read_mem(1, rbuf, span);
    assert_delivered(&ty, 1, &src, &dst, "reply-timeout delivery");
}

/// A mid-transfer port failure with Automatic Path Migration enabled
/// (the default) must be invisible to the MPI layer: the HCA fails
/// over to the alternate path, the transfer finishes byte-exact with
/// zero protocol errors, and the run delivers the same bytes a
/// fault-free run does — for every rendezvous scheme.
#[test]
fn link_failover_is_transparent_across_schemes() {
    let ty = Datatype::hvector(64, 4096, 8192, &Datatype::byte()).unwrap();
    for scheme in [
        Scheme::BcSpup,
        Scheme::RwgUp,
        Scheme::PRrs,
        Scheme::MultiW,
        Scheme::Hybrid,
    ] {
        let spec = |faults: FaultPlan| {
            let mut s = ClusterSpec::default();
            s.mpi.audit = true;
            s.mpi.scheme = scheme;
            s.faults = faults;
            s
        };
        // Take the sender's primary port down in the middle of the
        // 256 KiB transfer, long enough that waiting it out is not an
        // option — only migration or reconnection can finish the run.
        let faults = FaultPlan {
            seed: 0xAB1E,
            link_faults: vec![LinkFault {
                at_ns: 30_000,
                node: 0,
                port: 0,
                down_ns: 3_000_000,
            }],
            ..FaultPlan::none()
        };
        let (clean, src_clean, dst_clean) = run_pair(spec(FaultPlan::none()), &ty, 1, 5);
        let (stats, src, dst) = run_pair(spec(faults), &ty, 1, 5);
        assert_eq!(clean.total_errors(), 0);
        assert_eq!(
            stats.total_errors(),
            0,
            "APM failover must be transparent ({scheme:?}): {:?}",
            stats.errors
        );
        assert!(
            stats.fabric().migrations >= 1,
            "{scheme:?}: port-down during transfer should have migrated"
        );
        assert_delivered(&ty, 1, &src, &dst, "failover delivery");
        assert_eq!(src, src_clean, "source window must be untouched");
        assert_eq!(dst, dst_clean, "failover changed the delivered bytes");
    }
}

/// The same mid-transfer port failure with APM disabled forces the QP
/// into the error state; the MPI connection manager must tear it down,
/// re-establish it once the port returns, and re-drive the in-flight
/// rendezvous from the last acknowledged chunk — still byte-exact,
/// still zero errors, with the recovery visible in the counters.
#[test]
fn link_down_without_apm_recovers_via_reconnect() {
    let ty = Datatype::hvector(64, 4096, 8192, &Datatype::byte()).unwrap();
    for scheme in [
        Scheme::BcSpup,
        Scheme::RwgUp,
        Scheme::PRrs,
        Scheme::MultiW,
        Scheme::Hybrid,
    ] {
        let mut spec = ClusterSpec::default();
        spec.mpi.audit = true;
        spec.mpi.scheme = scheme;
        spec.net.apm_enabled = false;
        spec.faults = FaultPlan {
            seed: 0xAB2E,
            link_faults: vec![LinkFault {
                at_ns: 30_000,
                node: 0,
                port: 0,
                down_ns: 80_000,
            }],
            ..FaultPlan::none()
        };
        let (stats, src, dst) = run_pair(spec, &ty, 1, 5);
        assert_eq!(
            stats.total_errors(),
            0,
            "reconnect must recover the transfer ({scheme:?}): {:?}",
            stats.errors
        );
        assert!(
            stats.fabric().qp_errors >= 1,
            "{scheme:?}: port-down should have errored the QP"
        );
        let reestablished: u64 = stats.counters.iter().map(|c| c.qp_reestablished).sum();
        assert!(
            reestablished >= 1,
            "{scheme:?}: recovery must re-establish the dead connection"
        );
        assert_delivered(&ty, 1, &src, &dst, "reconnect delivery");
    }
}

/// A node whose *both* ports die (and stay dead) cannot migrate or
/// re-path: reconnect attempts exhaust `max_reconnects` and the run
/// must terminate (watchdog, not hang) with `ConnectionLost` or
/// `Incomplete` — typed errors, never a panic.
#[test]
fn reconnect_budget_exhaustion_fails_typed() {
    let ty = Datatype::hvector(64, 4096, 8192, &Datatype::byte()).unwrap();
    let mut spec = ClusterSpec::default();
    spec.mpi.audit = true;
    spec.mpi.scheme = Scheme::BcSpup;
    spec.mpi.max_reconnects = 2;
    spec.net.apm_enabled = false;
    spec.faults = FaultPlan {
        seed: 0xAB3E,
        link_faults: vec![
            LinkFault {
                at_ns: 30_000,
                node: 0,
                port: 0,
                down_ns: 50_000_000,
            },
            LinkFault {
                at_ns: 30_000,
                node: 0,
                port: 1,
                down_ns: 50_000_000,
            },
        ],
        ..FaultPlan::none()
    };
    let (stats, _, _) = run_pair(spec, &ty, 1, 5);
    assert!(
        stats.total_errors() > 0,
        "a dead node must surface typed errors"
    );
    assert!(
        stats
            .errors
            .iter()
            .flatten()
            .any(|e| matches!(e, MpiError::ConnectionLost { .. } | MpiError::Incomplete)),
        "expected ConnectionLost/Incomplete, got {:?}",
        stats.errors
    );
}

/// §5.4.2: a pin-down cache eviction racing a zero-copy scheme makes
/// the receiver's exposed region vanish mid-transfer. The remote
/// write faults (protection error), and the sender must renegotiate
/// the message down to copy-based BC-SPUP — counted, byte-exact, no
/// protocol-visible error.
#[test]
fn protection_fault_renegotiates_to_copy_and_delivers() {
    let ty = Datatype::hvector(64, 4096, 8192, &Datatype::byte()).unwrap();
    for scheme in [Scheme::MultiW, Scheme::Hybrid] {
        let mut spec = ClusterSpec::default();
        spec.mpi.audit = true;
        spec.mpi.scheme = scheme;
        spec.faults = FaultPlan {
            seed: 0xAB4E,
            evict_rate: 1.0,
            ..FaultPlan::none()
        };
        let (stats, src, dst) = run_pair(spec, &ty, 1, 5);
        assert_eq!(
            stats.total_errors(),
            0,
            "protection fault must degrade, not fail ({scheme:?}): {:?}",
            stats.errors
        );
        let fallbacks: u64 = stats.counters.iter().map(|c| c.protection_fallbacks).sum();
        assert!(
            fallbacks >= 1,
            "{scheme:?}: forced eviction should have triggered the §5.4.2 fallback"
        );
        assert_delivered(&ty, 1, &src, &dst, "renegotiated delivery");
    }
}

/// Exhausting the probe budget (receiver never posts) must abort the
/// send with `ReplyTimeout`, not hang or panic.
#[test]
fn exhausted_probe_budget_aborts_with_reply_timeout() {
    let ty = Datatype::contiguous(64 * 1024, &Datatype::byte()).unwrap();
    let mut spec = ClusterSpec::default();
    spec.mpi.audit = true;
    spec.mpi.scheme = Scheme::BcSpup;
    spec.mpi.rndv_reply_timeout_ns = 10_000;
    spec.mpi.rndv_max_rerequests = 2;
    let mut cluster = Cluster::new(spec);
    let sbuf = cluster.alloc(0, ty.size(), 4096);
    let p0 = vec![
        AppOp::Isend {
            peer: 1,
            buf: sbuf,
            count: 1,
            ty: ty.clone(),
            tag: 0,
        },
        AppOp::WaitAll,
    ];
    // Rank 1 never posts the receive.
    let stats = cluster.run(vec![p0, vec![]]);
    assert!(stats
        .errors
        .iter()
        .flatten()
        .any(|e| matches!(e, MpiError::ReplyTimeout { peer: 1, .. })));
    let probes: u64 = stats.counters.iter().map(|c| c.rndv_rerequests).sum();
    assert_eq!(probes, 2, "probe count must respect rndv_max_rerequests");
}

/// Hybrid's receiver can pin its direct blocks while the sender's
/// budget refuses the matching ones (here the receiver is contiguous
/// and the sender's strided blocks need twice the pinning): the sender
/// renegotiates the message as BC-SPUP, counted as a scheme fallback,
/// and still delivers byte-exact.
#[test]
fn hybrid_sender_budget_refusal_renegotiates() {
    let snd_ty = Datatype::hvector(64, 1024, 2048, &Datatype::byte()).unwrap();
    let rcv_ty = Datatype::contiguous(64 * 1024, &Datatype::byte()).unwrap();
    let mut spec = ClusterSpec::default();
    spec.mpi.audit = true;
    spec.mpi.scheme = Scheme::Hybrid;
    spec.mpi.reg_budget_bytes = 96 * 1024;
    let mut cluster = Cluster::new(spec);
    let span = snd_ty.true_ub() as u64 + 64;
    let sbuf = cluster.alloc(0, span, 4096);
    let rbuf = cluster.alloc(1, span, 4096);
    cluster.fill_pattern(0, sbuf, span, 3);
    let stats = cluster.run(vec![
        vec![
            AppOp::Isend {
                peer: 1,
                buf: sbuf,
                count: 1,
                ty: snd_ty.clone(),
                tag: 1,
            },
            AppOp::WaitAll,
        ],
        vec![
            AppOp::Irecv {
                peer: 0,
                buf: rbuf,
                count: 1,
                ty: rcv_ty,
                tag: 1,
            },
            AppOp::WaitAll,
        ],
    ]);
    assert_eq!(stats.total_errors(), 0, "{:?}", stats.errors);
    assert_eq!(
        stats.counters[0].scheme_fallbacks, 1,
        "sender-side fallback"
    );
    assert_eq!(stats.counters[1].scheme_fallbacks, 0, "the receiver pinned");
    let src = cluster.read_mem(0, sbuf, span);
    let dst = cluster.read_mem(1, rbuf, 64 * 1024);
    let packed: Vec<u8> = snd_ty
        .flat()
        .repeat(1)
        .into_iter()
        .flat_map(|(o, l)| src[o as usize..(o as u64 + l) as usize].to_vec())
        .collect();
    assert_eq!(dst, packed, "renegotiated delivery");
}
