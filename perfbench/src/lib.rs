//! The repository benchmark: four closed-loop simulator workloads, each
//! measured end to end (host cost and virtual results) and, in a
//! separate traced run, layer by layer.
//!
//! The benchmark drives the layers only through their public entry
//! points — `Cluster::{new, alloc, alloc_device, fill_pattern, run,
//! read_mem, cpu_trace, tx_trace, recycle}`, `workloads::run_scale` and
//! `TransferPlan::{compile, pack, unpack}` — and checks delivered bytes
//! itself, so a corrupt or failed point becomes failed messages instead
//! of aborting the run.

pub mod alltoall;
pub mod incast;
pub mod probe;
pub mod pt2pt;
pub mod scale;
pub mod trace;

use ibdt_datatype::{Datatype, TransferPlan};
use ibdt_mpicore::{Cluster, ClusterSpec, FaultPlan, NodeFault, Program, RunStats};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use trace::{Counts, Tracer};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Two-rank vector ping-pong and windowed bandwidth over every
    /// scheme and transport.
    Pt2ptVector,
    /// 32-rank repeated `MPI_Alltoall` of the Fig. 10 struct type.
    AlltoallStruct,
    /// 32→1 eager incast under credit flow control.
    IncastCredits,
    /// 2048-rank Alltoall on the sharded scale driver (2 shards, one
    /// thread).
    ScaleAlltoall,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::Pt2ptVector,
        Workload::AlltoallStruct,
        Workload::IncastCredits,
        Workload::ScaleAlltoall,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Pt2ptVector => "pt2pt_vector",
            Workload::AlltoallStruct => "alltoall_struct",
            Workload::IncastCredits => "incast_credits",
            Workload::ScaleAlltoall => "scale_alltoall",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// How one repetition is run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Params {
    /// Fill-pattern seed. It selects payload bytes only, never the
    /// amount of work.
    pub seed: u64,
    /// Reduced sizes for self-tests.
    pub quick: bool,
    /// Give point `k` of a cluster workload a permanent crash of rank 1
    /// (failure-accounting self-test).
    pub crash_point: Option<usize>,
    /// Record spans and per-layer counts.
    pub traced: bool,
}

/// State shared by the points of one repetition.
pub struct Ctx {
    /// Span recorder.
    pub tr: Tracer,
    /// Repetition parameters.
    pub params: Params,
    /// Host seconds spent before each simulation.
    pub setup_s: f64,
    /// Host seconds inside `Cluster::run` / `run_scale`.
    pub sim_s: f64,
    /// Simulated messages of points that succeeded.
    pub msgs: u64,
    /// Simulated messages attempted.
    pub attempted: u64,
    /// Simulated messages of points that failed.
    pub failed: u64,
    /// Per-layer counters (traced runs only).
    pub counts: Counts,
    points: usize,
}

impl Ctx {
    /// Fresh state for one repetition.
    pub fn new(params: Params) -> Ctx {
        Ctx {
            tr: Tracer::new(params.traced),
            params,
            setup_s: 0.0,
            sim_s: 0.0,
            msgs: 0,
            attempted: 0,
            failed: 0,
            counts: Counts::default(),
            points: 0,
        }
    }

    /// Runs one point of `msgs` simulated messages. A panic, a typed
    /// error or a byte mismatch (`Err`) counts all of them as failed.
    pub fn point<T>(
        &mut self,
        msgs: u64,
        f: impl FnOnce(&mut Ctx) -> Result<T, String>,
    ) -> Option<T> {
        self.attempted += msgs;
        let outcome = catch_unwind(AssertUnwindSafe(|| f(&mut *self)));
        self.points += 1;
        let err = match outcome {
            Ok(Ok(v)) => {
                self.msgs += msgs;
                return Some(v);
            }
            Ok(Err(e)) => e,
            Err(p) => p
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "panic".into()),
        };
        eprintln!("point {} failed: {err}", self.points - 1);
        self.failed += msgs;
        None
    }

    /// The spec for the point about to run: `spec`, plus a permanent
    /// crash of rank 1 early in the run if this is the crash point.
    pub fn point_spec(&self, spec: &ClusterSpec) -> ClusterSpec {
        let mut spec = spec.clone();
        if self.params.crash_point == Some(self.points) {
            spec.faults = FaultPlan {
                node_faults: vec![NodeFault {
                    at_ns: 2_000,
                    node: 1,
                    restart_after_ns: None,
                }],
                ..FaultPlan::none()
            };
        }
        spec
    }

    /// Fill seed for buffer `key` of this repetition.
    pub fn fill_seed(&self, key: u64) -> u64 {
        self.params
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(key)
    }

    /// `Cluster::run`, timed as simulation.
    pub fn run(&mut self, cluster: &mut Cluster, progs: Vec<Program>) -> RunStats {
        let t = Instant::now();
        let stats = self.tr.span("mpicore.run", || cluster.run(progs));
        self.sim_s += t.elapsed().as_secs_f64();
        stats
    }

    /// Fails the point on any typed error.
    pub fn check_errors(stats: &RunStats) -> Result<(), String> {
        match stats.total_errors() {
            0 => Ok(()),
            n => Err(format!(
                "{n} typed errors, first {:?}",
                stats.errors.iter().flatten().next()
            )),
        }
    }

    /// Reads the layers' counters after a successful point (traced runs
    /// only) and replays its pack/unpack volume through `TransferPlan`
    /// on the point's own type.
    pub fn absorb(&mut self, cluster: &Cluster, stats: &RunStats, ty: &Datatype, count: u64) {
        if !self.tr.enabled() {
            return;
        }
        let Ctx { tr, counts, .. } = self;
        tr.span("harness.verify", || absorb_counts(counts, cluster, stats));
        let packed: u64 = stats.counters.iter().map(|c| c.bytes_packed).sum();
        let unpacked: u64 = stats.counters.iter().map(|c| c.bytes_unpacked).sum();
        tr.span("datatype.replay", || replay(ty, count, packed, unpacked));
    }

    /// `Cluster::recycle`, timed with construction (the pool round trip).
    pub fn recycle(&mut self, cluster: Cluster) {
        self.tr.span("mpicore.new", || cluster.recycle());
    }
}

fn absorb_counts(c: &mut Counts, cluster: &Cluster, s: &RunStats) {
    let sum = |f: fn(&ibdt_mpicore::rank::RankCounters) -> u64| -> f64 {
        s.counters.iter().map(f).sum::<u64>() as f64
    };
    c.add("mpicore.eager_sends", sum(|r| r.eager_sends));
    c.add("mpicore.rndv_sends", sum(|r| r.rndv_sends));
    c.add("mpicore.ctrl_msgs", sum(|r| r.ctrl_msgs));
    c.add("mpicore.credit_msgs", sum(|r| r.credit_msgs));
    c.add("mpicore.credit_spills", sum(|r| r.credit_spills));
    c.max(
        "mpicore.peak_unexpected",
        s.counters
            .iter()
            .map(|r| r.peak_unexpected)
            .max()
            .unwrap_or(0) as f64,
    );
    c.add("mpicore.errors", s.total_errors() as f64);
    c.add("simcore.events", s.events_scheduled as f64);
    c.add("ibsim.wqes", s.wqes as f64);
    c.add("ibsim.bytes_on_wire", s.bytes_on_wire as f64);
    c.add("ibsim.rnr_events", s.rnr_events as f64);
    c.max(
        "ibsim.cq_peak",
        s.cq_peak.iter().copied().max().unwrap_or(0) as f64,
    );
    c.add("ibsim.shm_bounce_chunks", s.shm_bounce_chunks as f64);
    c.add("ibsim.shm_cma_ops", s.shm_cma_ops as f64);
    c.add("raw.payload_allocs", s.payload_pool.0 as f64);
    c.add("raw.payload_reuses", s.payload_pool.1 as f64);
    c.add("datatype.bytes_copied", s.bytes_copied as f64);
    c.add(
        "raw.plan_hits",
        s.plan_cache.iter().map(|p| p.0).sum::<u64>() as f64,
    );
    c.add(
        "datatype.plan_misses",
        s.plan_cache.iter().map(|p| p.1).sum::<u64>() as f64,
    );
    c.add(
        "raw.scratch_reuses",
        s.scratch_pool.iter().map(|p| p.0).sum::<u64>() as f64,
    );
    c.add(
        "raw.scratch_allocs",
        s.scratch_pool.iter().map(|p| p.1).sum::<u64>() as f64,
    );
    c.add(
        "memreg.reg_ops",
        s.reg_ops.iter().map(|p| p.0).sum::<u64>() as f64,
    );
    c.add(
        "memreg.dereg_ops",
        s.reg_ops.iter().map(|p| p.1).sum::<u64>() as f64,
    );
    c.add(
        "raw.pindown_hits",
        s.pindown.iter().map(|p| p.0).sum::<u64>() as f64,
    );
    c.add(
        "raw.pindown_misses",
        s.pindown.iter().map(|p| p.1).sum::<u64>() as f64,
    );
    c.add("memreg.bytes_zeroed", s.space_pool.2 as f64);
    c.add(
        "virt.cpu_busy_us",
        s.cpu_busy_ns.iter().sum::<u64>() as f64 / 1e3,
    );
    c.add(
        "virt.pack_wire_overlap_us",
        s.pack_wire_overlap_ns.iter().sum::<u64>() as f64 / 1e3,
    );
    const PHASES: [(&str, &[&str]); 5] = [
        ("virt.pack_us", &["pack"]),
        ("virt.unpack_us", &["unpack"]),
        ("virt.reg_us", &["reg", "dereg", "hint-reg"]),
        ("virt.post_us", &["post", "post-recv"]),
        ("virt.ctrl_us", &["ctrl"]),
    ];
    for r in 0..cluster.nprocs() {
        let cpu = cluster.cpu_trace(r);
        let tx = cluster.tx_trace(r);
        c.add(
            "simcore.trace_spans",
            (cpu.spans().len() + tx.spans().len()) as f64,
        );
        for (name, labels) in PHASES {
            let ns: u64 = labels.iter().map(|l| cpu.busy_with_label(l)).sum();
            c.add(name, ns as f64 / 1e3);
        }
        c.add("virt.wire_us", tx.busy_with_label("wire") as f64 / 1e3);
    }
}

/// Re-runs `packed` bytes of packing and `unpacked` bytes of unpacking
/// through a compiled plan of `count` × `ty`: whole messages, then the
/// remainder as one partial range.
fn replay(ty: &Datatype, count: u64, packed: u64, unpacked: u64) {
    let plan = TransferPlan::compile(ty, count);
    let total = plan.total_bytes();
    if total == 0 {
        return;
    }
    let span = buffer_span(ty, count) as usize;
    let mut user = vec![0u8; span];
    let mut stream = vec![0u8; total as usize];
    let ranges = |bytes: u64| {
        let whole = (0..bytes / total).map(move |_| total);
        whole.chain(Some(bytes % total).filter(|r| *r > 0))
    };
    for len in ranges(packed) {
        plan.pack(0, len, &user, 0, &mut stream[..len as usize])
            .expect("replay pack stays in bounds");
    }
    for len in ranges(unpacked) {
        plan.unpack(0, len, &stream[..len as usize], &mut user, 0)
            .expect("replay unpack stays in bounds");
    }
    std::hint::black_box((&user, &stream));
}

/// Bytes a user buffer of `count` × `ty` spans from offset 0, with the
/// drivers' 64-byte tail.
pub fn buffer_span(ty: &Datatype, count: u64) -> u64 {
    (count.saturating_sub(1) as i64 * ty.extent() + ty.true_ub()).max(8) as u64 + 64
}

/// Compares every block of `count` × `ty` between two buffers read
/// back from simulated memory.
pub fn same_blocks(ty: &Datatype, count: u64, want: &[u8], got: &[u8]) -> Result<(), String> {
    for (off, len) in ty.flat().repeat(count) {
        let r = off as usize..off as usize + len as usize;
        if want[r.clone()] != got[r] {
            return Err(format!("byte mismatch in block at offset {off}"));
        }
    }
    Ok(())
}

/// One repetition of a workload.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Host seconds for the whole repetition.
    pub wall_s: f64,
    /// Host seconds before each simulation, summed.
    pub setup_s: f64,
    /// Host seconds inside the simulator, summed.
    pub sim_s: f64,
    /// Simulated messages of successful points.
    pub msgs: u64,
    /// Simulated messages attempted.
    pub attempted: u64,
    /// Simulated messages of failed points.
    pub failed: u64,
    /// Workload latency in virtual µs.
    pub virt_latency_us: f64,
    /// Workload bandwidth in virtual MB/s.
    pub virt_bandwidth_mbs: f64,
    /// Per-layer metrics `(name, value)` in [`LAYER_METRICS`] order,
    /// without `trace.overhead_s` (traced runs only).
    pub layers: Vec<(&'static str, f64)>,
}

/// Virtual results of one repetition: latency in ns and bandwidth in
/// bytes per second.
#[derive(Debug, Clone, Copy, Default)]
pub struct Virt {
    /// Latency, virtual ns.
    pub latency_ns: f64,
    /// Bandwidth, bytes per virtual second.
    pub bandwidth_bps: f64,
}

/// Runs one repetition of `w`.
pub fn run_rep(w: Workload, params: Params) -> Rep {
    let t0 = Instant::now();
    let mut ctx = Ctx::new(params);
    let virt = match w {
        Workload::Pt2ptVector => pt2pt::rep(&mut ctx),
        Workload::AlltoallStruct => alltoall::rep(&mut ctx),
        Workload::IncastCredits => incast::rep(&mut ctx),
        Workload::ScaleAlltoall => scale::rep(&mut ctx),
    };
    let wall_s = t0.elapsed().as_secs_f64();
    let layers = if params.traced {
        layer_metrics(&ctx, wall_s)
    } else {
        Vec::new()
    };
    Rep {
        wall_s,
        setup_s: ctx.setup_s,
        sim_s: ctx.sim_s,
        msgs: ctx.msgs,
        attempted: ctx.attempted,
        failed: ctx.failed,
        virt_latency_us: virt.latency_ns / 1e3,
        virt_bandwidth_mbs: virt.bandwidth_bps / 1e6,
        layers,
    }
}

/// Per-layer metrics the traced run reports, with their units, in
/// report order. `trace.overhead_s` needs an untraced run too and is
/// added by the caller.
pub const LAYER_METRICS: [(&str, &str); 47] = [
    ("harness.build_s", "s"),
    ("harness.fill_s", "s"),
    ("harness.verify_s", "s"),
    ("harness.allocs", "count"),
    ("mpicore.new_s", "s"),
    ("mpicore.run_s", "s"),
    ("mpicore.run_ns_per_event", "ns/event"),
    ("mpicore.run_allocs_per_msg", "allocs/msg"),
    ("mpicore.eager_sends", "count"),
    ("mpicore.rndv_sends", "count"),
    ("mpicore.ctrl_msgs", "count"),
    ("mpicore.credit_msgs", "count"),
    ("mpicore.credit_spills", "count"),
    ("mpicore.peak_unexpected", "count"),
    ("mpicore.errors", "count"),
    ("simcore.events", "count"),
    ("simcore.events_per_msg", "events/msg"),
    ("simcore.trace_spans", "count"),
    ("ibsim.wqes", "count"),
    ("ibsim.bytes_on_wire", "bytes"),
    ("ibsim.rnr_events", "count"),
    ("ibsim.cq_peak", "count"),
    ("ibsim.shm_bounce_chunks", "count"),
    ("ibsim.shm_cma_ops", "count"),
    ("ibsim.payload_reuse_ratio", "ratio"),
    ("datatype.bytes_copied", "bytes"),
    ("datatype.plan_hit_ratio", "ratio"),
    ("datatype.plan_misses", "count"),
    ("datatype.scratch_reuse_ratio", "ratio"),
    ("datatype.replay_s", "s"),
    ("memreg.reg_ops", "count"),
    ("memreg.dereg_ops", "count"),
    ("memreg.pindown_hit_ratio", "ratio"),
    ("memreg.bytes_zeroed", "bytes"),
    ("virt.pack_us", "virt_us"),
    ("virt.unpack_us", "virt_us"),
    ("virt.reg_us", "virt_us"),
    ("virt.post_us", "virt_us"),
    ("virt.ctrl_us", "virt_us"),
    ("virt.wire_us", "virt_us"),
    ("virt.cpu_busy_us", "virt_us"),
    ("virt.pack_wire_overlap_us", "virt_us"),
    ("scale.run_s", "s"),
    ("scale.rounds", "count"),
    ("scale.state_bytes", "bytes"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead_s", "s"),
];

/// True for a per-layer unit that measures host time. Such metrics are
/// medians over repetitions, scaled by [`probe`] to the reference host
/// speed; every other per-layer metric is a count
/// that repeats exactly.
pub fn is_host_time(unit: &str) -> bool {
    matches!(unit, "s" | "ns/event")
}

fn ratio(num: f64, rest: f64) -> f64 {
    if num + rest > 0.0 {
        num / (num + rest)
    } else {
        0.0
    }
}

fn per(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn layer_metrics(ctx: &Ctx, wall_s: f64) -> Vec<(&'static str, f64)> {
    let (tr, c) = (&ctx.tr, &ctx.counts);
    let harness = ["harness.build", "harness.fill", "harness.verify"];
    let run = tr.total("mpicore.run");
    let events = c.get("simcore.events");
    let msgs = ctx.msgs as f64;
    let traced: f64 = tr.spans().values().map(|s| s.secs).sum();
    LAYER_METRICS
        .iter()
        .filter(|(name, _)| *name != "trace.overhead_s")
        .map(|&(name, _)| {
            let v = match name {
                "harness.build_s" => tr.total("harness.build").secs,
                "harness.fill_s" => tr.total("harness.fill").secs,
                "harness.verify_s" => tr.total("harness.verify").secs,
                "harness.allocs" => harness.iter().map(|h| tr.total(h).allocs).sum::<u64>() as f64,
                "mpicore.new_s" => tr.total("mpicore.new").secs,
                "mpicore.run_s" => run.secs,
                "mpicore.run_ns_per_event" => per(run.secs * 1e9, events),
                "mpicore.run_allocs_per_msg" => per(run.allocs as f64, msgs),
                "simcore.events_per_msg" => per(events, msgs),
                "ibsim.payload_reuse_ratio" => {
                    ratio(c.get("raw.payload_reuses"), c.get("raw.payload_allocs"))
                }
                "datatype.plan_hit_ratio" => {
                    ratio(c.get("raw.plan_hits"), c.get("datatype.plan_misses"))
                }
                "datatype.scratch_reuse_ratio" => {
                    ratio(c.get("raw.scratch_reuses"), c.get("raw.scratch_allocs"))
                }
                "datatype.replay_s" => tr.total("datatype.replay").secs,
                "memreg.pindown_hit_ratio" => {
                    ratio(c.get("raw.pindown_hits"), c.get("raw.pindown_misses"))
                }
                "scale.run_s" => tr.total("scale.run").secs,
                "trace.unattributed_s" => wall_s - traced,
                other => c.get(other),
            };
            (name, v)
        })
        .collect()
}

/// Geometric mean of positive values (0 for an empty list).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}
