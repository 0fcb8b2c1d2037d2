//! `incast_credits`: 32 senders fire 512 B contiguous eager messages at
//! one slow receiver (2 µs of compute per round) under 32 eager credits
//! per peer, built exactly like `workloads::incast` on
//! `workloads::incast_spec(33, 32)`. `cq_depth` stays at its default.

use crate::{Ctx, Virt};
use ibdt_datatype::Datatype;
use ibdt_mpicore::{AppOp, Cluster, ClusterSpec, Program};
use ibdt_simcore::time::Time;
use ibdt_workloads::incast_spec;
use std::time::Instant;

/// Payload bytes per message.
pub const MSG_BYTES: u64 = 512;
/// Receiver compute per round of receives, virtual ns.
pub const RECV_WORK_NS: Time = 2_000;

/// Ranks (one receiver plus senders) and messages per sender: full
/// benchmark or self-test.
pub fn shape(quick: bool) -> (u32, u32) {
    if quick {
        (9, 16)
    } else {
        (33, 256)
    }
}

/// The cluster spec of the workload.
pub fn spec(nprocs: u32) -> ClusterSpec {
    incast_spec(nprocs, 32)
}

/// One repetition.
pub fn rep(ctx: &mut Ctx) -> Virt {
    let (n, msgs) = shape(ctx.params.quick);
    let spec = ctx.point_spec(&spec(n));
    let total = (n as u64 - 1) * msgs as u64;
    let Some(done) = ctx.point(total, |ctx| run(ctx, &spec, msgs)) else {
        return Virt::default();
    };
    Virt {
        latency_ns: done as f64,
        bandwidth_bps: (total * MSG_BYTES) as f64 / (done as f64 / 1e9),
    }
}

/// Virtual completion time of the incast, as `workloads::incast`
/// computes it.
pub fn run(ctx: &mut Ctx, spec: &ClusterSpec, msgs: u32) -> Result<Time, String> {
    let n = spec.nprocs;
    let t = Instant::now();
    let mut cluster = ctx.tr.span("mpicore.new", || Cluster::new(spec.clone()));
    let ty = Datatype::contiguous(MSG_BYTES, &Datatype::byte()).expect("contiguous type");
    let stride = MSG_BYTES.max(8);
    let fan_in = (n - 1) as u64;
    let seeds: Vec<u64> = (0..fan_in * msgs as u64)
        .map(|k| ctx.fill_seed(k))
        .collect();
    let (sbufs, rbuf) = ctx.tr.span("harness.fill", || {
        let mut sbufs = Vec::new();
        for r in 1..n {
            let sb = cluster.alloc(r, stride * msgs as u64, 4096);
            for m in 0..msgs as u64 {
                let seed = seeds[((r as u64 - 1) * msgs as u64 + m) as usize];
                cluster.fill_pattern(r, sb + m * stride, MSG_BYTES, seed);
            }
            sbufs.push(sb);
        }
        (sbufs, cluster.alloc(0, stride * fan_in * msgs as u64, 4096))
    });
    // Receive slot of (sender r, message m): message-major.
    let slot = |r: u32, m: u32| (m as u64 * fan_in + (r - 1) as u64) * stride;
    let progs = ctx.tr.span("harness.build", || {
        let mut p0: Program = vec![AppOp::MarkTime { slot: 0 }];
        for m in 0..msgs {
            p0.push(AppOp::Compute { ns: RECV_WORK_NS });
            for r in 1..n {
                p0.push(AppOp::Irecv {
                    peer: r,
                    buf: rbuf + slot(r, m),
                    count: 1,
                    ty: ty.clone(),
                    tag: m,
                });
            }
        }
        p0.extend([AppOp::WaitAll, AppOp::MarkTime { slot: 1 }]);
        let mut progs = vec![p0];
        for r in 1..n {
            let mut p: Program = (0..msgs)
                .map(|m| AppOp::Isend {
                    peer: 0,
                    buf: sbufs[(r - 1) as usize] + m as u64 * stride,
                    count: 1,
                    ty: ty.clone(),
                    tag: m,
                })
                .collect();
            p.push(AppOp::WaitAll);
            progs.push(p);
        }
        progs
    });
    ctx.setup_s += t.elapsed().as_secs_f64();
    let stats = ctx.run(&mut cluster, progs);
    Ctx::check_errors(&stats)?;
    ctx.tr.span("harness.verify", || {
        let got = cluster.read_mem(0, rbuf, stride * fan_in * msgs as u64);
        for r in 1..n {
            let sent = cluster.read_mem(r, sbufs[(r - 1) as usize], stride * msgs as u64);
            for m in 0..msgs {
                let s = (m as u64 * stride) as usize;
                let d = slot(r, m) as usize;
                let len = MSG_BYTES as usize;
                if sent[s..s + len] != got[d..d + len] {
                    return Err(format!("sender {r} message {m}: byte mismatch"));
                }
            }
        }
        Ok(())
    })?;
    ctx.absorb(&cluster, &stats, &ty, 1);
    ctx.recycle(cluster);
    Ok(stats.mark_interval(0, 0, 1))
}
