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
//! `--smoke` runs 8 ranks once on a fresh cluster and once on the same
//! cluster recycled (`Cluster::recycle`), and exits nonzero unless the
//! two give a bit-identical virtual finish and event count — the
//! `ci.sh` check that recycling keeps the model exact.

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
    let mut fresh = Cluster::new(spec(8));
    let (a, _) = run(&mut fresh, 8);
    fresh.recycle();
    let mut recycled = Cluster::new(spec(8));
    let (b, _) = run(&mut recycled, 8);
    println!(
        "per-event smoke: 8 ranks: fresh {} ns / {} events, recycled {} ns / {} events",
        a.finish_ns, a.events_scheduled, b.finish_ns, b.events_scheduled
    );
    if (a.finish_ns, a.events_scheduled) != (b.finish_ns, b.events_scheduled) {
        println!("FAIL: the recycled cluster diverged from the fresh one");
        return 1;
    }
    0
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
    println!("ranks,host_ns_per_event_median,host_ns_per_event_min,host_ns_per_event_max,virtual_finish_ns,events");
    for n in [8u32, 16, 32, 64] {
        let mut per_event = Vec::with_capacity(RUNS);
        let mut last = None;
        for _ in 0..RUNS {
            let mut cluster = Cluster::new(spec(n));
            let (stats, host_ns) = run(&mut cluster, n);
            per_event.push(host_ns as f64 / stats.events_scheduled as f64);
            if let Some((finish, events)) = last {
                assert_eq!(
                    (finish, events),
                    (stats.finish_ns, stats.events_scheduled),
                    "virtual results differ between runs"
                );
            }
            last = Some((stats.finish_ns, stats.events_scheduled));
        }
        per_event.sort_by(f64::total_cmp);
        let (finish, events) = last.expect("at least one run");
        println!(
            "{n},{:.0},{:.0},{:.0},{finish},{events}",
            per_event[RUNS / 2],
            per_event[0],
            per_event[RUNS - 1]
        );
    }
}
