//! Benchmark command line.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
//! ```
//!
//! Runs one warm-up repetition, then repeats the workload while the next
//! repetition is expected to end within `--seconds` of the start (at
//! least [`MIN_REPS`] times; peak memory is read after exactly that
//! many) and prints, as the last line, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. `--trace 0`
//! reports the end-to-end metrics (medians over repetitions, host times
//! scaled to a reference host speed by [`perfbench::probe`]);
//! `--trace 1` alternates untraced and traced repetitions and reports
//! the per-layer metrics.

use perfbench::probe::{Probe, REF_PROBE_S};
use perfbench::{is_host_time, run_rep, Params, Rep, Workload, LAYER_METRICS};
use std::time::Instant;

/// Fewest measured repetitions a run makes, whatever `--seconds` says.
const MIN_REPS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut quick) =
        (None, 0, 10.0_f64, false, false);
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            quick = true;
            continue;
        }
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&val).ok_or(format!("unknown workload {val}"))?)
            }
            "--seed" => seed = val.parse().map_err(|e| format!("--seed {val}: {e}"))?,
            "--seconds" => {
                seconds = val.parse().map_err(|e| format!("--seconds {val}: {e}"))?;
                if seconds.is_nan() || seconds < 0.0 {
                    return Err(format!("--seconds {val} must be a non-negative number"));
                }
            }
            "--trace" => {
                trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {val}: expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        quick,
    })
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Peak resident memory of this process (VmHWM), MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn metric(name: &str, value: f64, unit: &str) -> String {
    let value = if value.is_finite() { value } else { 0.0 };
    format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        eprintln!(
            "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--quick]",
            Workload::ALL.map(Workload::name).join("|")
        );
        std::process::exit(2);
    });
    let params = Params {
        seed: args.seed,
        quick: args.quick,
        ..Params::default()
    };
    let start = Instant::now();
    let log = |kind: &str, r: &Rep| {
        eprintln!(
            "{kind} rep: wall_s={:.4} setup_s={:.4} sim_s={:.4} peak_rss_mb={:.1}",
            r.wall_s,
            r.setup_s,
            r.sim_s,
            peak_rss_mb()
        );
    };
    // The warm-up fills the simulator's pools and caches. It is checked
    // like every other repetition but left out of the host-time medians.
    let warmup = run_rep(args.workload, params);
    log("warmup", &warmup);
    // Each measured repetition is bracketed by host-speed probes, the
    // probe after one being the probe before the next, and paired with
    // the factor that scales its host times to the reference host.
    let mut probe = Probe::new();
    let mut before = probe.sample(warmup.wall_s);
    let mut measure = |traced: bool| -> (Rep, f64) {
        let rep = run_rep(args.workload, Params { traced, ..params });
        let after = probe.sample(rep.wall_s);
        let scale = REF_PROBE_S / ((before + after) / 2.0);
        before = after;
        log(if traced { "traced" } else { "plain" }, &rep);
        eprintln!("probe_s={after:.6} host_scale={scale:.4}");
        (rep, scale)
    };
    let mut plain: Vec<(Rep, f64)> = Vec::new();
    let mut traced: Vec<(Rep, f64)> = Vec::new();
    // Memory can grow with every repetition, so the peak is read after a
    // fixed amount of work, not after however many repetitions fit.
    let mut rss_mb = 0.0;
    // A repetition (with its traced twin) is started only if one as long
    // as the last is expected to end within `--seconds`, so a run never
    // overshoots by a whole repetition.
    let mut last_s = 0.0;
    while plain.len() < MIN_REPS || start.elapsed().as_secs_f64() + last_s <= args.seconds {
        let t = Instant::now();
        plain.push(measure(false));
        if plain.len() == MIN_REPS {
            rss_mb = peak_rss_mb();
        }
        if args.trace {
            traced.push(measure(true));
        }
        last_s = t.elapsed().as_secs_f64();
    }
    let all = || std::iter::once(&warmup).chain(plain.iter().chain(&traced).map(|(r, _)| r));
    let attempted: u64 = all().map(|r| r.attempted).sum();
    let failed: u64 = all().map(|r| r.failed).sum();
    // Virtual results are deterministic: every repetition must agree.
    let virt = |r: &Rep| (r.virt_latency_us.to_bits(), r.virt_bandwidth_mbs.to_bits());
    let deterministic = all().all(|r| virt(r) == virt(&warmup));
    if !deterministic {
        eprintln!("perfbench: virtual results differ between repetitions");
    }
    let correct = failed == 0 && deterministic;
    // Host times are scaled, repetition by repetition, to the reference
    // host; medians are taken over the scaled values.
    let med = |f: fn(&Rep) -> f64, reps: &[(Rep, f64)]| {
        median(reps.iter().map(|(r, scale)| f(r) * scale).collect())
    };
    let metrics: Vec<String> = if args.trace {
        let last = &traced.last().expect("at least one traced repetition").0;
        let overhead = med(|r| r.wall_s, &traced) - med(|r| r.wall_s, &plain);
        let layer =
            |r: &Rep, name: &str| r.layers.iter().find(|l| l.0 == name).map_or(0.0, |l| l.1);
        LAYER_METRICS
            .iter()
            .map(|&(name, unit)| {
                let value = if name == "trace.overhead_s" {
                    overhead
                } else if is_host_time(unit) {
                    // Host times: median over traced repetitions.
                    median(
                        traced
                            .iter()
                            .map(|(r, scale)| layer(r, name) * scale)
                            .collect(),
                    )
                } else {
                    // Counts repeat exactly; report the last repetition's.
                    layer(last, name)
                };
                metric(name, value, unit)
            })
            .collect()
    } else {
        vec![
            metric("wall_s", med(|r| r.wall_s, &plain), "s"),
            metric("setup_s", med(|r| r.setup_s, &plain), "s"),
            metric(
                "sim_msgs_per_s",
                median(
                    plain
                        .iter()
                        .map(|(r, scale)| r.msgs as f64 / (r.sim_s * scale))
                        .collect(),
                ),
                "msg/s",
            ),
            metric("peak_rss_mb", rss_mb, "MB"),
            metric("virt_latency_us", warmup.virt_latency_us, "virt_us"),
            metric("virt_bandwidth_mbs", warmup.virt_bandwidth_mbs, "virt_MB/s"),
            metric(
                "success_rate",
                1.0 - failed as f64 / attempted.max(1) as f64,
                "ratio",
            ),
        ]
    };
    println!(
        "workload={} seed={} trace={} reps={} traced_reps={} host_scale={:.4} raw_wall_s={:.4} elapsed_s={:.3}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        plain.len(),
        traced.len(),
        median(plain.iter().map(|(_, scale)| *scale).collect()),
        median(plain.iter().map(|(r, _)| r.wall_s).collect()),
        start.elapsed().as_secs_f64()
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
}
