//! Chaos at scale: crash-stop node failures under the sharded scale
//! driver and the full protocol cluster.
//!
//! Three contracts are asserted here:
//!
//! 1. **Determinism under chaos** — a seeded crash/stall plan on the
//!    sharded scale driver fingerprints bit-identically across shard
//!    and thread counts, with the per-rank failure observations
//!    (messages received, stuck window slots, crashed-or-not) folded
//!    into the digest.
//! 2. **Drain, never hang** — when a member crash-stops mid-Alltoall
//!    on the full cluster, survivors finish or fail *typed*
//!    ([`MpiError::PeerFailed`] / [`MpiError::Incomplete`]); the
//!    bounded-event watchdog guarantees the run terminates either way,
//!    and the invariant auditor stays on the whole time. If the crashed
//!    node has a restart window inside the connection-manager budget,
//!    the run instead **recovers** with zero typed errors.
//! 3. **Shrinkability** — a failing chaos plan delta-minimizes to the
//!    smallest event list that still reproduces, and the minimal plan
//!    plus its seed is printed for a one-line replay.

use ibdt::datatype::Datatype;
use ibdt::mpicore::{AppOp, Cluster, ClusterSpec, FaultPlan, MpiError, NodeFault, Program, Scheme};
use ibdt::workloads::{run_scale, ScaleConfig, ScaleFault, ScaleFaultPlan};
use ibdt_testkit::{chaos_seed, shrink_report};

/// Seed matrix mirrored by `ci.sh --chaos-scale`; `IBDT_CHAOS_SEED`
/// prepends an override seed for replaying a CI failure locally.
fn seed_matrix() -> Vec<u64> {
    let mut seeds = vec![0x1, 0xBEEF, 0xC4A0, 0xFEED];
    let over = chaos_seed(0x1);
    if !seeds.contains(&over) {
        seeds.insert(0, over);
    }
    seeds
}

/// A seeded crash+stall plan over 256 ranks placed inside the busy
/// part of the run (the default-cost 256-rank alltoall finishes in a
/// few milliseconds of virtual time).
fn plan_for(seed: u64) -> ScaleFaultPlan {
    ScaleFaultPlan::seeded(seed, 256, 5, 8, 1_000_000)
}

#[test]
fn chaotic_scale_runs_fingerprint_identically_across_shards() {
    for seed in seed_matrix() {
        let cfg = ScaleConfig {
            ranks: 256,
            faults: plan_for(seed),
            ..ScaleConfig::default()
        };
        let reference = run_scale(&ScaleConfig {
            shards: 1,
            threads: 1,
            ..cfg.clone()
        });
        assert_eq!(reference.crashed, 5, "seed {seed:#x}");
        assert!(
            reference.msgs < 256 * 255,
            "seed {seed:#x}: crashes must strand traffic"
        );
        for (shards, threads) in [(2, 2), (8, 4), (8, 8)] {
            let r = run_scale(&ScaleConfig {
                shards,
                threads,
                ..cfg.clone()
            });
            assert_eq!(
                (r.fingerprint, r.finish_ns, r.msgs, r.crashed, r.lost),
                (
                    reference.fingerprint,
                    reference.finish_ns,
                    reference.msgs,
                    reference.crashed,
                    reference.lost
                ),
                "seed {seed:#x} shards={shards} threads={threads}"
            );
        }
    }
}

#[test]
fn chaotic_run_replays_bit_identically_on_same_seed() {
    let cfg = ScaleConfig {
        ranks: 256,
        shards: 8,
        threads: 8,
        faults: plan_for(0xBEEF),
        ..ScaleConfig::default()
    };
    assert_eq!(run_scale(&cfg), run_scale(&cfg), "same seed must replay");
}

fn spec(nprocs: u32, faults: FaultPlan) -> ClusterSpec {
    let mut s = ClusterSpec {
        nprocs,
        ..Default::default()
    };
    s.mpi.scheme = Scheme::BcSpup;
    // The invariant auditor runs through the whole chaotic run: the
    // conservation laws must hold even while a member is dead (the
    // quiescent-matching law is gated internally on clean runs).
    s.mpi.audit = true;
    s.faults = faults;
    s
}

/// 4-rank Alltoall with per-pair payload large enough that the crash
/// at `at_ns` lands mid-transfer.
fn run_alltoall(faults: FaultPlan) -> (ibdt::mpicore::RunStats, Vec<Vec<u8>>) {
    let n = 4u32;
    let count = 8192u64;
    let ty = Datatype::byte();
    let mut cluster = Cluster::new(spec(n, faults));
    let mut progs: Vec<Program> = Vec::new();
    let mut rbufs = Vec::new();
    for r in 0..n {
        let sbuf = cluster.alloc(r, count * n as u64, 4096);
        let rbuf = cluster.alloc(r, count * n as u64, 4096);
        cluster.fill_pattern(r, sbuf, count * n as u64, 0x3C + r as u64);
        rbufs.push(rbuf);
        progs.push(vec![AppOp::Alltoall {
            sbuf,
            rbuf,
            count,
            sty: ty.clone(),
            rty: ty.clone(),
        }]);
    }
    let stats = cluster.run(progs);
    let out = (0..n)
        .map(|r| cluster.read_mem(r, rbufs[r as usize], count * n as u64))
        .collect();
    (stats, out)
}

#[test]
fn member_death_mid_alltoall_drains_typed_and_terminates() {
    // Rank 2 crash-stops mid-collective with no restart. The run must
    // terminate (bounded watchdog; quiescence), never panic, and the
    // failure must surface typed: survivors see PeerFailed once the
    // membership view confirms the peer is never coming back, and
    // unfinishable programs report Incomplete.
    let faults = FaultPlan {
        seed: 0xDEAD,
        node_faults: vec![NodeFault {
            at_ns: 40_000,
            node: 2,
            restart_after_ns: None,
        }],
        ..FaultPlan::none()
    };
    let (stats, _) = run_alltoall(faults.clone());
    assert_eq!(stats.fabric().node_crashes, 1);
    assert!(
        stats.total_errors() > 0,
        "a permanent member death cannot be error-free"
    );
    let all: Vec<MpiError> = stats.errors.iter().flatten().copied().collect();
    assert!(
        all.iter()
            .any(|e| matches!(e, MpiError::PeerFailed { peer: 2 })),
        "survivors must classify the dead peer as failed, got {all:?}"
    );
    assert!(
        all.iter().any(|e| matches!(e, MpiError::Incomplete)),
        "stranded programs must report Incomplete, got {all:?}"
    );
    // No survivor may sit on an untyped hang: every rank either
    // finished its program or holds at least one typed error.
    for r in 0..4usize {
        let finished = stats.rank_finish_ns[r] > 0;
        assert!(
            finished || !stats.errors[r].is_empty(),
            "rank {r} neither finished nor errored"
        );
    }
    // Deterministic replay of the whole failure picture.
    let (again, _) = run_alltoall(faults);
    assert_eq!(again.finish_ns, stats.finish_ns, "crash replay diverged");
    assert_eq!(again.errors, stats.errors, "typed errors diverged");
}

#[test]
fn member_restart_within_budget_recovers_cleanly() {
    // Same crash point, but the node restarts well inside the
    // connection manager's reconnect budget (3 × 100 µs): the QPs are
    // re-established and the collective completes with zero typed
    // errors and the exact fault-free bytes.
    let (_, want) = run_alltoall(FaultPlan::none());
    let faults = FaultPlan {
        seed: 0xD00D,
        node_faults: vec![NodeFault {
            at_ns: 40_000,
            node: 2,
            restart_after_ns: Some(80_000),
        }],
        ..FaultPlan::none()
    };
    let (stats, got) = run_alltoall(faults);
    assert_eq!(stats.fabric().node_crashes, 1);
    assert_eq!(
        stats.total_errors(),
        0,
        "restart inside the reconnect budget must recover: {:?}",
        stats.errors
    );
    assert_eq!(got, want, "recovered alltoall changed the result");
}

#[test]
fn shrinker_minimizes_a_failing_chaos_plan() {
    // A deliberately noisy plan: several crashes and stalls, of which
    // a single crash suffices to reproduce "the run loses messages".
    // The shrinker must strip the noise down to one crash event and
    // the minimal plan must still reproduce.
    let seed = 0xFA11;
    let plan = ScaleFaultPlan::seeded(seed, 64, 3, 6, 500_000);
    let reproduces = |events: &[ScaleFault]| {
        let r = run_scale(&ScaleConfig {
            ranks: 64,
            faults: ScaleFaultPlan {
                seed,
                events: events.to_vec(),
            },
            ..ScaleConfig::default()
        });
        r.lost > 0
    };
    assert!(reproduces(&plan.events), "the full plan must fail first");
    let report = shrink_report(&plan.events, reproduces);
    // The failure report a harness would print: seed + minimal plan.
    eprintln!(
        "chaos-shrink: seed {seed:#x}: {} — minimal plan {:?}",
        report.summary(),
        report.minimal
    );
    assert!(
        report.minimal.len() < plan.events.len(),
        "stalls and extra crashes are noise; the shrinker must drop them"
    );
    assert_eq!(report.minimal.len(), 1, "one crash suffices to lose mail");
    assert!(
        matches!(report.minimal[0], ScaleFault::Crash { .. }),
        "stalls never lose messages; the culprit must be a crash"
    );
    assert!(reproduces(&report.minimal), "minimal plan must reproduce");
}
