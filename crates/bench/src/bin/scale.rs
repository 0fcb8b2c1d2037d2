//! X14: sharded-scale driver measurements (DESIGN.md §14).
//!
//! Runs the lightweight scale model's vector Alltoall at growing rank
//! counts and reports wall-clock time and resident model state, showing
//! memory scales with active pairs (window-bounded) rather than n².
//! Each row also gives the events executed, the pending-event entries
//! the per-window due scans examined per event, and host ns per event.
//! Writes `results/x14.csv`.
//!
//! `--smoke` runs only the 1024-rank point and enforces the CI budget
//! (wall time and per-rank state), exiting nonzero on a miss — the
//! `ci.sh --scale` gate.
//!
//! `--chaos-smoke` is the chaos acceptance gate (`ci.sh
//! --chaos-scale`): a seeded crash-stop plan on the 4096-rank run
//! must fingerprint bit-identically across 1, 2, and 8 shards.
//! `IBDT_CHAOS_SEED` overrides the plan seed for replays.
//!
//! `--x15` sweeps the scheduled crash count on the 4096-rank driver
//! (the survivable-fault-rate experiment, DESIGN.md §15) and writes
//! `results/x15.csv`.

use ibdt_workloads::{run_scale, ScaleConfig, ScaleFaultPlan, ScaleReport};
use std::time::Instant;

/// CI budget for the 1024-rank smoke: wall-clock seconds.
const SMOKE_WALL_BUDGET_S: f64 = 10.0;
/// CI budget for the 1024-rank smoke: model state per rank, bytes.
/// The per-rank footprint is O(window + shard overhead), not O(n);
/// 4 KiB/rank is an order of magnitude above the measured value, so a
/// regression back toward dense n² tables trips the gate loudly.
const SMOKE_STATE_PER_RANK_B: usize = 4096;

fn run_point(ranks: u32, shards: usize, threads: usize) -> (ScaleReport, f64) {
    let cfg = ScaleConfig {
        ranks,
        shards,
        threads,
        ..ScaleConfig::default()
    };
    let t0 = Instant::now();
    let rep = run_scale(&cfg);
    (rep, t0.elapsed().as_secs_f64())
}

fn smoke() -> i32 {
    let (rep, wall) = run_point(1024, 8, 8);
    let per_rank = rep.state_bytes / rep.ranks as usize;
    println!(
        "scale smoke: 1024-rank vector Alltoall: {:.2}s wall, {} msgs, {} events \
         ({:.1} ns/event), {} B state ({} B/rank), fingerprint {:#018x}",
        wall,
        rep.msgs,
        rep.events,
        wall * 1e9 / rep.events as f64,
        rep.state_bytes,
        per_rank,
        rep.fingerprint
    );
    let mut ok = true;
    if wall > SMOKE_WALL_BUDGET_S {
        println!("FAIL: wall {wall:.2}s exceeds budget {SMOKE_WALL_BUDGET_S}s");
        ok = false;
    }
    if per_rank > SMOKE_STATE_PER_RANK_B {
        println!("FAIL: state {per_rank} B/rank exceeds budget {SMOKE_STATE_PER_RANK_B} B/rank");
        ok = false;
    }
    // The sharded run must agree with the sequential reference —
    // lookahead synchronization is only correct if it is bit-identical.
    let (reference, _) = run_point(1024, 1, 1);
    if reference.fingerprint != rep.fingerprint {
        println!(
            "FAIL: sharded fingerprint {:#018x} != sequential {:#018x}",
            rep.fingerprint, reference.fingerprint
        );
        ok = false;
    }
    if ok {
        println!("scale smoke OK");
        0
    } else {
        1
    }
}

/// Seed override hook shared with the test suites (decimal or 0x hex).
fn chaos_seed(default: u64) -> u64 {
    match std::env::var("IBDT_CHAOS_SEED") {
        Err(_) => default,
        Ok(s) => {
            let s = s.trim();
            let parsed = if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
                u64::from_str_radix(hex, 16)
            } else {
                s.parse()
            };
            parsed.unwrap_or_else(|e| panic!("IBDT_CHAOS_SEED={s:?} is not a u64: {e}"))
        }
    }
}

fn chaos_point(
    ranks: u32,
    shards: usize,
    threads: usize,
    faults: ScaleFaultPlan,
) -> (ScaleReport, f64) {
    let cfg = ScaleConfig {
        ranks,
        shards,
        threads,
        faults,
        ..ScaleConfig::default()
    };
    let t0 = Instant::now();
    let rep = run_scale(&cfg);
    (rep, t0.elapsed().as_secs_f64())
}

/// The acceptance criterion for chaos at scale: a seeded crash-stop
/// run on the 4096-rank driver is bit-identical across 1, 2, and 8
/// shards — fingerprint, finish time, and every failure observation.
fn chaos_smoke() -> i32 {
    let seed = chaos_seed(0xC4A0);
    let plan = ScaleFaultPlan::seeded(seed, 4096, 16, 32, 2_000_000);
    let n_events = plan.events.len();
    let (reference, wall) = chaos_point(4096, 1, 1, plan.clone());
    println!(
        "chaos smoke: 4096-rank alltoall, seed {:#x}, {} fault events: \
         {:.2}s wall, {} msgs delivered, {} lost, {} crashed, fingerprint {:#018x}",
        seed,
        n_events,
        wall,
        reference.msgs,
        reference.lost,
        reference.crashed,
        reference.fingerprint
    );
    let mut ok = true;
    if reference.crashed != 16 {
        println!("FAIL: expected 16 crashes, observed {}", reference.crashed);
        ok = false;
    }
    if reference.lost == 0 {
        println!("FAIL: crash-stop mid-alltoall must lose in-flight messages");
        ok = false;
    }
    for shards in [2usize, 8] {
        let (r, w) = chaos_point(4096, shards, 8, plan.clone());
        println!(
            "chaos smoke: {shards} shards: {:.2}s wall, fingerprint {:#018x}",
            w, r.fingerprint
        );
        if (r.fingerprint, r.finish_ns, r.msgs, r.crashed, r.lost)
            != (
                reference.fingerprint,
                reference.finish_ns,
                reference.msgs,
                reference.crashed,
                reference.lost,
            )
        {
            println!(
                "FAIL: {shards}-shard chaotic run diverged from the sequential \
                 reference (fingerprint {:#018x} != {:#018x})",
                r.fingerprint, reference.fingerprint
            );
            ok = false;
        }
    }
    if ok {
        println!("chaos smoke OK: faulty run bit-identical across 1/2/8 shards");
        0
    } else {
        1
    }
}

/// X15: survivable fault-rate sweep. Crash a growing fraction of the
/// 4096 ranks and measure what the fabric still delivers: messages
/// delivered vs lost vs stranded, and the finish time of the
/// surviving traffic.
fn x15() {
    let seed = chaos_seed(0xC4A0);
    let ranks = 4096u32;
    let full = ranks as u64 * (ranks as u64 - 1);
    let mut csv =
        String::from("ranks,crashes,seed,msgs,lost,stranded,delivered_frac,finish_ns,wall_s\n");
    println!(
        "{:>6} {:>8} {:>10} {:>9} {:>8} {:>9} {:>10} {:>14} {:>8}",
        "ranks", "crashes", "seed", "msgs", "lost", "stranded", "delivered", "finish_ns", "wall_s"
    );
    for crashes in [0u32, 4, 16, 64, 256] {
        let plan = if crashes == 0 {
            ScaleFaultPlan::none()
        } else {
            ScaleFaultPlan::seeded(seed, ranks, crashes, 0, 2_000_000)
        };
        let (rep, wall) = chaos_point(ranks, 8, 8, plan);
        // Messages neither delivered nor lost on the wire: never sent,
        // because the sender died or its window stuck on a dead peer.
        let stranded = full - rep.msgs - rep.lost;
        let frac = rep.msgs as f64 / full as f64;
        println!(
            "{:>6} {:>8} {:>10} {:>9} {:>8} {:>9} {:>10.4} {:>14} {:>8.2}",
            ranks, crashes, seed, rep.msgs, rep.lost, stranded, frac, rep.finish_ns, wall
        );
        csv.push_str(&format!(
            "{},{},{:#x},{},{},{},{:.6},{},{:.4}\n",
            ranks, crashes, seed, rep.msgs, rep.lost, stranded, frac, rep.finish_ns, wall
        ));
    }
    std::fs::create_dir_all("results").expect("mkdir results");
    std::fs::write("results/x15.csv", csv).expect("write results/x15.csv");
    println!("\nwrote results/x15.csv");
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        std::process::exit(smoke());
    }
    if std::env::args().any(|a| a == "--chaos-smoke") {
        std::process::exit(chaos_smoke());
    }
    if std::env::args().any(|a| a == "--x15") {
        x15();
        return;
    }
    let mut csv = String::from(
        "ranks,shards,threads,msgs,finish_ns,wall_s,state_bytes,events,scanned,ns_per_event\n",
    );
    println!(
        "{:>6} {:>7} {:>8} {:>9} {:>14} {:>9} {:>12} {:>10} {:>8} {:>9}",
        "ranks",
        "shards",
        "threads",
        "msgs",
        "finish_ns",
        "wall_s",
        "state_bytes",
        "events",
        "scan/ev",
        "ns/event"
    );
    for ranks in [64u32, 256, 1024, 4096] {
        for (shards, threads) in [(1usize, 1usize), (8, 8)] {
            let (rep, wall) = run_point(ranks, shards, threads);
            let ns_per_event = wall * 1e9 / rep.events as f64;
            println!(
                "{:>6} {:>7} {:>8} {:>9} {:>14} {:>9.3} {:>12} {:>10} {:>8.2} {:>9.1}",
                ranks,
                shards,
                threads,
                rep.msgs,
                rep.finish_ns,
                wall,
                rep.state_bytes,
                rep.events,
                rep.scanned as f64 / rep.events as f64,
                ns_per_event
            );
            csv.push_str(&format!(
                "{},{},{},{},{},{:.4},{},{},{},{:.1}\n",
                ranks,
                shards,
                threads,
                rep.msgs,
                rep.finish_ns,
                wall,
                rep.state_bytes,
                rep.events,
                rep.scanned,
                ns_per_event
            ));
        }
    }
    std::fs::create_dir_all("results").expect("mkdir results");
    std::fs::write("results/x14.csv", csv).expect("write results/x14.csv");
    println!("\nwrote results/x14.csv");
}
