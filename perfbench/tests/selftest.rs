//! Benchmark self-tests at reduced length (`Params::quick`).
//!
//! Run with `cargo test --release` from the `perfbench` directory.

use ibdt_workloads::{
    alltoall_time, bandwidth, bandwidth_device, incast, pingpong, run_scale, struct_datatype,
    vector_datatype, ScaleConfig,
};
use perfbench::{
    alltoall, incast, is_host_time, pt2pt, run_rep, scale, Ctx, Params, Workload, LAYER_METRICS,
};
use std::process::Command;
use std::sync::{Mutex, MutexGuard};

/// Tests time their runs and count allocations process-wide, so they
/// take turns.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn quick() -> Params {
    Params {
        seed: 7,
        quick: true,
        ..Params::default()
    }
}

/// A crash plan on one point turns its messages into failures; the
/// repetition still completes and every other point still succeeds.
#[test]
fn crashed_point_counts_as_failed_messages() {
    let _serial = serial();
    for w in [Workload::Pt2ptVector, Workload::IncastCredits] {
        let rep = run_rep(
            w,
            Params {
                crash_point: Some(0),
                ..quick()
            },
        );
        assert!(rep.failed > 0, "{w:?}: fail_rate must be > 0");
        assert!(rep.failed <= rep.attempted);
        let clean = run_rep(w, quick());
        assert_eq!(clean.failed, 0, "{w:?}");
        assert_eq!(clean.attempted, rep.attempted, "{w:?}");
    }
    // pt2pt has many points: only the crashed one fails.
    let rep = run_rep(
        Workload::Pt2ptVector,
        Params {
            crash_point: Some(3),
            ..quick()
        },
    );
    assert!(rep.failed > 0 && rep.msgs > 0 && rep.msgs + rep.failed == rep.attempted);
}

/// The benchmark's virtual numbers equal the `workloads` drivers' for
/// the same specs.
#[test]
fn virtual_results_match_workload_drivers() {
    let _serial = serial();
    let mut ctx = Ctx::new(quick());
    let len = pt2pt::lengths(true);
    for cfg in pt2pt::configs() {
        for cols in &pt2pt::COLS[..2] {
            let ty = vector_datatype(*cols);
            let bw = pt2pt::bandwidth(&mut ctx, &cfg.spec, cfg.device, &ty, len.window).unwrap();
            let want = if cfg.device {
                bandwidth_device(&cfg.spec, &ty, 1, len.window)
            } else {
                bandwidth(&cfg.spec, &ty, 1, len.window)
            };
            assert_eq!(
                bw, want.bytes_per_sec,
                "{} bandwidth at {cols} cols",
                cfg.name
            );
            if cfg.device {
                // `workloads` has no device ping-pong to compare with.
                continue;
            }
            let lat = pt2pt::pingpong(&mut ctx, &cfg.spec, false, &ty, len.warmup, len.iters);
            let want = pingpong(&cfg.spec, &ty, 1, len.warmup, len.iters).one_way_ns;
            assert_eq!(lat.unwrap(), want, "{} latency at {cols} cols", cfg.name);
        }
    }

    let (n, iters) = alltoall::shape(true);
    let ty = struct_datatype(512);
    let per_op = alltoall::run(&mut ctx, &alltoall::spec(n), &ty, iters).unwrap();
    assert_eq!(per_op, alltoall_time(&alltoall::spec(n), &ty, 1, iters).0);

    let (n, msgs) = incast::shape(true);
    let done = incast::run(&mut ctx, &incast::spec(n), msgs).unwrap();
    let want = incast(
        &incast::spec(n),
        msgs,
        incast::MSG_BYTES,
        incast::RECV_WORK_NS,
    );
    assert_eq!(done, want.completion_ns);
    assert_eq!(ctx.failed, 0);
}

/// The sharded `scale_alltoall` run fingerprints identically to the
/// 1-shard reference, and the benchmark reports its finish time.
#[test]
fn scale_run_matches_one_shard_reference() {
    let _serial = serial();
    let cfg = scale::config(true);
    let sharded = run_scale(&cfg);
    let reference = run_scale(&ScaleConfig {
        shards: 1,
        threads: 1,
        ..cfg
    });
    assert_eq!(sharded.fingerprint, reference.fingerprint);
    assert_eq!(sharded.finish_ns, reference.finish_ns);
    let rep = run_rep(Workload::ScaleAlltoall, quick());
    assert_eq!(rep.failed, 0);
    assert_eq!(rep.virt_latency_us, reference.finish_ns as f64 / 1e3);
}

/// The fill seed changes bytes, never work or virtual results.
#[test]
fn seed_selects_bytes_only() {
    let _serial = serial();
    for w in [Workload::Pt2ptVector, Workload::AlltoallStruct] {
        let a = run_rep(w, quick());
        let b = run_rep(
            w,
            Params {
                seed: 99,
                ..quick()
            },
        );
        assert_eq!(a.attempted, b.attempted);
        assert_eq!(a.virt_latency_us.to_bits(), b.virt_latency_us.to_bits());
        assert_eq!(
            a.virt_bandwidth_mbs.to_bits(),
            b.virt_bandwidth_mbs.to_bits()
        );
    }
}

/// Every traced repetition attributes all but 5% of its wall time to
/// spans.
#[test]
fn spans_cover_traced_wall_time() {
    let _serial = serial();
    for w in Workload::ALL {
        let traced = Params {
            traced: true,
            ..quick()
        };
        run_rep(w, traced); // warm the pools, as the untraced rep does in a run
        let rep = run_rep(w, traced);
        let unattributed = rep
            .layers
            .iter()
            .find(|l| l.0 == "trace.unattributed_s")
            .unwrap()
            .1;
        assert!(
            unattributed < 0.05 * rep.wall_s,
            "{w:?}: {unattributed} s of {} s outside spans",
            rep.wall_s
        );
    }
}

/// Runs the benchmark binary and returns its metrics as
/// `(name, value, unit)`, checking the result line's shape.
fn run_binary(workload: &str, trace: u8) -> Vec<(String, f64, String)> {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "0"])
        .args(["--trace", &trace.to_string(), "--quick"])
        .output()
        .expect("benchmark binary runs");
    assert!(out.status.success(), "{workload}: exit {:?}", out.status);
    let stdout = String::from_utf8(out.stdout).unwrap();
    let line = stdout.lines().last().unwrap();
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": ")
            && line.contains(", \"failed\": 0, \"metrics\": {"),
        "{line}"
    );
    let body = &line[line.find("\"metrics\": {").unwrap() + 12..line.len() - 2];
    body.split("}, ")
        .map(|m| {
            let name = m.split('"').nth(1).unwrap().to_string();
            let value = m.split("\"value\": ").nth(1).unwrap();
            let value = value[..value.find(',').unwrap()].parse().unwrap();
            let unit = m.split("\"unit\": \"").nth(1).unwrap();
            (name, value, unit.trim_end_matches(['"', '}']).to_string())
        })
        .collect()
}

/// Per-layer counts repeat exactly across two traced runs, every listed
/// metric is printed, and `trace.overhead_s` is among them.
#[test]
fn traced_counts_repeat_across_runs() {
    let _serial = serial();
    for w in Workload::ALL {
        let a = run_binary(w.name(), 1);
        let b = run_binary(w.name(), 1);
        let names: Vec<&str> = a.iter().map(|m| m.0.as_str()).collect();
        let want: Vec<&str> = LAYER_METRICS.iter().map(|m| m.0).collect();
        assert_eq!(names, want, "{}", w.name());
        for (x, y) in a.iter().zip(&b) {
            if !is_host_time(&x.2) {
                assert_eq!(x, y, "{}: count differs between traced runs", w.name());
            }
        }
    }
}

/// `BENCHMARK.json` lists exactly the metrics the binary prints.
#[test]
fn benchmark_json_matches_output() {
    let _serial = serial();
    let spec = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json next to the benchmark directory");
    for (trace, section) in [(0, "\"end_to_end\""), (1, "\"per_layer\"")] {
        let start = spec.find(section).unwrap();
        let listed = &spec[start..start + spec[start..].find(']').unwrap()];
        let printed = run_binary("incast_credits", trace);
        assert_eq!(
            listed.matches("\"name\"").count(),
            printed.len(),
            "{section}"
        );
        for (name, _, unit) in printed {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(listed.contains(&entry), "{section} lacks {entry}");
        }
    }
}
