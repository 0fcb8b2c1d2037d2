//! Host cost per simulated event against rank count.
//!
//! Runs a default `ClusterSpec` under Adaptive: 17 `MPI_Alltoall`s of
//! one `vector(128, 8, 16, int)` block (4 KiB) per pair, then a
//! barrier, at 8, 16, 32 and 64 ranks, three runs each. `Instant` is
//! taken around `Cluster::run` and divided by
//! `RunStats::events_scheduled`. Prints, per rank count, the median
//! and the range of host ns/event, the virtual finish and the event
//! count (ROADMAP's per-event program; EXPERIMENTS.md has its tables).
//!
//! Two more columns time a recycled `Cluster::new`, median of three:
//! `recycled_new_ms_idle` rebuilds a cluster that was recycled without
//! running, and `recycled_new_ms_after_run` rebuilds the cluster each
//! timed run just used. Both rebuilt clusters are dropped, so every
//! timed run still starts on a fresh cluster, whose address spaces are
//! cold: newly allocated, no page written yet. The timed run therefore
//! pays the first-touch page faults, and the after-run rebuild zeroes
//! pages that run touched first. Figures recorded while a thread-local
//! pool handed fresh clusters warm, already-faulted spaces (before the
//! cluster spare became the only recycling mechanism) are not
//! comparable with these. The last column,
//! `recycled_new_zeroed_bytes_after_run`, is the bytes the after-run
//! rebuild zeroed (the dirty pages and slot frames the run left), read
//! from `RunStats::space_pool` of an idle run of the rebuilt cluster.
//!
//! `--smoke` runs 8 ranks on a fresh cluster, then recycles that
//! cluster (`Cluster::recycle`) after each of two more runs, and exits
//! nonzero unless every run gives the fresh run's virtual finish, event
//! count and summed pack/wire overlap, bit for bit — the `ci.sh` check
//! that recycling keeps the model exact, including a reset of rings a
//! recycled cluster's run left rotated and of the overlap meters. It
//! then crosses a spec: a fresh 8-rank Multi-W cluster must differ from
//! the fresh Adaptive one in finish, event count or summed overlap
//! (Adaptive picks BC-SPUP for every message of this program, so the
//! crossing shows a reset that kept the old scheme), and a Multi-W
//! cluster built from the recycled Adaptive cluster must give the
//! fresh Multi-W cluster's finish, event count and summed overlap.

use ibdt_datatype::Datatype;
use ibdt_mpicore::{AppOp, Cluster, ClusterSpec, Program, RunStats, Scheme};
use std::time::Instant;

const ALLTOALLS: usize = 17;
const RUNS: usize = 3;

fn spec(nprocs: u32) -> ClusterSpec {
    let mut spec = ClusterSpec {
        nprocs,
        ..ClusterSpec::default()
    };
    spec.mpi.scheme = Scheme::Adaptive;
    spec
}

/// Runs the program on `cluster` of `n` ranks; returns the stats and
/// host ns spent inside `Cluster::run`.
fn run(cluster: &mut Cluster, n: u32) -> (RunStats, u64) {
    let ty = Datatype::vector(128, 8, 16, &Datatype::int()).expect("valid vector");
    let span = ty.extent() as u64 * n as u64 + 64;
    let progs: Vec<Program> = (0..n)
        .map(|r| {
            let a2a = AppOp::Alltoall {
                sbuf: cluster.alloc(r, span, 4096),
                rbuf: cluster.alloc(r, span, 4096),
                count: 1,
                sty: ty.clone(),
                rty: ty.clone(),
            };
            let mut p = vec![a2a; ALLTOALLS];
            p.push(AppOp::Barrier);
            p
        })
        .collect();
    let t = Instant::now();
    let stats = cluster.run(progs);
    let host_ns = t.elapsed().as_nanos() as u64;
    assert!(
        stats.errors.iter().all(Vec::is_empty),
        "run reported errors: {:?}",
        stats.errors
    );
    (stats, host_ns)
}

fn smoke() -> i32 {
    let mut cluster = Cluster::new(spec(8));
    let (fresh, _) = run(&mut cluster, 8);
    let key = |s: &RunStats| {
        (
            s.finish_ns,
            s.events_scheduled,
            s.pack_wire_overlap_ns.iter().sum::<u64>(),
        )
    };
    let want = key(&fresh);
    println!(
        "per-event smoke: 8 ranks: fresh {} ns / {} events / {} ns pack-wire overlap",
        want.0, want.1, want.2
    );
    for build in 1..=2 {
        cluster.recycle();
        cluster = Cluster::new(spec(8));
        let (stats, _) = run(&mut cluster, 8);
        let got = key(&stats);
        println!(
            "per-event smoke: recycled build {build}: {} ns / {} events / {} ns pack-wire overlap",
            got.0, got.1, got.2
        );
        if got != want {
            println!("FAIL: recycled build {build} diverged from the fresh cluster");
            return 1;
        }
    }
    let multi_w = || {
        let mut spec = spec(8);
        spec.mpi.scheme = Scheme::MultiW;
        spec
    };
    let (fresh, _) = run(&mut Cluster::new(multi_w()), 8);
    let adaptive = want;
    let want = key(&fresh);
    println!(
        "per-event smoke: 8 ranks, Multi-W: fresh {} ns / {} events / {} ns pack-wire overlap",
        want.0, want.1, want.2
    );
    if want == adaptive {
        println!("FAIL: fresh Multi-W reads like fresh Adaptive, so the crossing shows nothing");
        return 1;
    }
    cluster.recycle();
    let (stats, _) = run(&mut Cluster::new(multi_w()), 8);
    let got = key(&stats);
    println!(
        "per-event smoke: Multi-W built from the recycled Adaptive cluster: {} ns / {} events / {} ns pack-wire overlap",
        got.0, got.1, got.2
    );
    if got != want {
        println!("FAIL: Multi-W built from a recycled Adaptive cluster diverged from a fresh one");
        return 1;
    }
    0
}

/// Host ms of one `Cluster::new` of `n` ranks that takes the recycled
/// `cluster` back from the spare pool, and the bytes that build zeroed
/// (an idle run of the rebuilt cluster zeroes nothing more); the
/// rebuilt cluster is dropped.
fn recycled_new(cluster: Cluster, n: u32) -> (f64, u64) {
    cluster.recycle();
    let t = Instant::now();
    let mut rebuilt = Cluster::new(spec(n));
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let zeroed = rebuilt.run(vec![Vec::new(); n as usize]).space_pool.2;
    (ms, zeroed)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        [] => {}
        ["--smoke"] => std::process::exit(smoke()),
        _ => {
            eprintln!("usage: per_event [--smoke]");
            std::process::exit(2);
        }
    }
    println!("ranks,host_ns_per_event_median,host_ns_per_event_min,host_ns_per_event_max,virtual_finish_ns,events,recycled_new_ms_idle,recycled_new_ms_after_run,recycled_new_zeroed_bytes_after_run");
    for n in [8u32, 16, 32, 64] {
        let mut per_event = Vec::with_capacity(RUNS);
        let (mut idle_ms, mut after_run_ms) = (Vec::new(), Vec::new());
        let (mut last, mut zeroed) = (None, 0);
        for _ in 0..RUNS {
            let mut cluster = Cluster::new(spec(n));
            let (stats, host_ns) = run(&mut cluster, n);
            per_event.push(host_ns as f64 / stats.events_scheduled as f64);
            let (ms, after_run_zeroed) = recycled_new(cluster, n);
            after_run_ms.push(ms);
            zeroed = after_run_zeroed;
            idle_ms.push(recycled_new(Cluster::new(spec(n)), n).0);
            if let Some((finish, events)) = last {
                assert_eq!(
                    (finish, events),
                    (stats.finish_ns, stats.events_scheduled),
                    "virtual results differ between runs"
                );
            }
            last = Some((stats.finish_ns, stats.events_scheduled));
        }
        for v in [&mut per_event, &mut idle_ms, &mut after_run_ms] {
            v.sort_by(f64::total_cmp);
        }
        let (finish, events) = last.expect("at least one run");
        println!(
            "{n},{:.0},{:.0},{:.0},{finish},{events},{:.2},{:.2},{zeroed}",
            per_event[RUNS / 2],
            per_event[0],
            per_event[RUNS - 1],
            idle_ms[RUNS / 2],
            after_run_ms[RUNS / 2]
        );
    }
}
