//! `pt2pt_vector`: two ranks exchange the paper's vector type
//! (`vector(128, cols, 4096, int)`) at 1 KiB, 8 KiB, 64 KiB and 512 KiB,
//! under every scheme on IB, Adaptive over both shm copy modes, and
//! BC-SPUP with device-resident buffers. Each point is a ping-pong and a
//! windowed bandwidth stream, built exactly like
//! `workloads::{pingpong, bandwidth}` so the virtual results match them.

use crate::{buffer_span, geomean, same_blocks, Ctx, Virt};
use ibdt_datatype::Datatype;
use ibdt_mpicore::{
    AppOp, Cluster, ClusterSpec, Program, Scheme, ShmConfig, ShmCopyMode, TransportConfig,
};
use ibdt_simcore::time::Time;
use ibdt_workloads::vector_datatype;
use std::time::Instant;

/// Column counts: 1 KiB eager, 8 KiB, 64 KiB and 512 KiB.
pub const COLS: [u64; 4] = [2, 16, 128, 1024];

/// One transport/scheme configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Short label.
    pub name: &'static str,
    /// Cluster spec (two ranks).
    pub spec: ClusterSpec,
    /// User buffers are device-resident.
    pub device: bool,
}

/// The nine configurations, IB schemes first.
pub fn configs() -> Vec<Config> {
    let ib = |scheme| {
        let mut s = ClusterSpec::default();
        s.mpi.scheme = scheme;
        s
    };
    let shm = |copy_mode| {
        let mut s = ib(Scheme::Adaptive);
        s.transport = TransportConfig::Shm(ShmConfig {
            copy_mode,
            ..ShmConfig::default()
        });
        s
    };
    let mut device = ib(Scheme::BcSpup);
    device.host.device.enabled = true;
    let c = |name, spec, device| Config { name, spec, device };
    vec![
        c("ib/generic", ib(Scheme::Generic), false),
        c("ib/bc-spup", ib(Scheme::BcSpup), false),
        c("ib/rwg-up", ib(Scheme::RwgUp), false),
        c("ib/p-rrs", ib(Scheme::PRrs), false),
        c("ib/multi-w", ib(Scheme::MultiW), false),
        c("ib/adaptive", ib(Scheme::Adaptive), false),
        c("shm-double/adaptive", shm(ShmCopyMode::Double), false),
        c("shm-single/adaptive", shm(ShmCopyMode::Single), false),
        c("ib-device/bc-spup", device, true),
    ]
}

/// Run lengths of one point.
#[derive(Debug, Clone, Copy)]
pub struct Lengths {
    /// Unmeasured ping-pong round trips.
    pub warmup: u32,
    /// Measured ping-pong round trips.
    pub iters: u32,
    /// Messages in the bandwidth window.
    pub window: u32,
}

/// Run lengths for the full benchmark or the self-tests.
pub fn lengths(quick: bool) -> Lengths {
    if quick {
        Lengths {
            warmup: 1,
            iters: 2,
            window: 4,
        }
    } else {
        Lengths {
            warmup: 2,
            iters: 10,
            window: 100,
        }
    }
}

/// One repetition: every configuration at every column count.
pub fn rep(ctx: &mut Ctx) -> Virt {
    let len = lengths(ctx.params.quick);
    let cols: &[u64] = if ctx.params.quick { &COLS[..2] } else { &COLS };
    let mut lat = Vec::new();
    let mut bw = Vec::new();
    for cfg in configs() {
        for &c in cols {
            let ty = vector_datatype(c);
            let spec = ctx.point_spec(&cfg.spec);
            let msgs = 2 * (len.warmup + len.iters) as u64 + len.window as u64 + 2;
            let out = ctx.point(msgs, |ctx| {
                let l = pingpong(ctx, &spec, cfg.device, &ty, len.warmup, len.iters)?;
                let b = bandwidth(ctx, &spec, cfg.device, &ty, len.window)?;
                Ok((l, b))
            });
            if let Some((l, b)) = out {
                lat.push(l as f64);
                bw.push(b);
            }
        }
    }
    Virt {
        latency_ns: geomean(&lat),
        bandwidth_bps: geomean(&bw),
    }
}

fn alloc_pair(ctx: &mut Ctx, cluster: &mut Cluster, device: bool, span: u64) -> (u64, u64) {
    let seed = ctx.fill_seed(0);
    ctx.tr.span("harness.fill", || {
        let (b0, b1) = if device {
            (
                cluster.alloc_device(0, span, 4096),
                cluster.alloc_device(1, span, 4096),
            )
        } else {
            (cluster.alloc(0, span, 4096), cluster.alloc(1, span, 4096))
        };
        cluster.fill_pattern(0, b0, span, seed);
        (b0, b1)
    })
}

fn send(peer: u32, buf: u64, count: u64, ty: &Datatype, tag: u32) -> AppOp {
    AppOp::Isend {
        peer,
        buf,
        count,
        ty: ty.clone(),
        tag,
    }
}

fn recv(peer: u32, buf: u64, count: u64, ty: &Datatype, tag: u32) -> AppOp {
    AppOp::Irecv {
        peer,
        buf,
        count,
        ty: ty.clone(),
        tag,
    }
}

/// Ping-pong: one-way latency in virtual ns, as `workloads::pingpong`
/// computes it.
pub fn pingpong(
    ctx: &mut Ctx,
    spec: &ClusterSpec,
    device: bool,
    ty: &Datatype,
    warmup: u32,
    iters: u32,
) -> Result<Time, String> {
    let t = Instant::now();
    let mut cluster = ctx.tr.span("mpicore.new", || Cluster::new(spec.clone()));
    let span = buffer_span(ty, 1);
    let (b0, b1) = alloc_pair(ctx, &mut cluster, device, span);
    // The echo overwrites rank 0's buffer, so keep what was sent.
    let sent = ctx
        .tr
        .span("harness.fill", || cluster.read_mem(0, b0, span));
    let progs = ctx.tr.span("harness.build", || {
        let mut p0: Program = Vec::new();
        let mut p1: Program = Vec::new();
        for i in 0..warmup + iters {
            if i == warmup {
                p0.push(AppOp::MarkTime { slot: 0 });
            }
            p0.extend([send(1, b0, 1, ty, 1), AppOp::WaitAll]);
            p0.extend([recv(1, b0, 1, ty, 2), AppOp::WaitAll]);
            p1.extend([recv(0, b1, 1, ty, 1), AppOp::WaitAll]);
            p1.extend([send(0, b1, 1, ty, 2), AppOp::WaitAll]);
        }
        p0.push(AppOp::MarkTime { slot: 1 });
        vec![p0, p1]
    });
    ctx.setup_s += t.elapsed().as_secs_f64();
    let stats = ctx.run(&mut cluster, progs);
    Ctx::check_errors(&stats)?;
    ctx.tr.span("harness.verify", || {
        let got = cluster.read_mem(1, b1, span);
        let back = cluster.read_mem(0, b0, span);
        same_blocks(ty, 1, &sent, &got).and_then(|_| same_blocks(ty, 1, &sent, &back))
    })?;
    ctx.absorb(&cluster, &stats, ty, 1);
    ctx.recycle(cluster);
    Ok(stats.mark_interval(0, 0, 1) / (2 * iters as u64))
}

/// Windowed bandwidth: bytes per virtual second, as
/// `workloads::bandwidth` computes it.
pub fn bandwidth(
    ctx: &mut Ctx,
    spec: &ClusterSpec,
    device: bool,
    ty: &Datatype,
    window: u32,
) -> Result<f64, String> {
    let t = Instant::now();
    let mut cluster = ctx.tr.span("mpicore.new", || Cluster::new(spec.clone()));
    let span = buffer_span(ty, 1);
    let (b0, b1) = alloc_pair(ctx, &mut cluster, device, span);
    let (r0, r1) = ctx.tr.span("harness.fill", || {
        (cluster.alloc(0, 8, 8), cluster.alloc(1, 8, 8))
    });
    let progs = ctx.tr.span("harness.build", || {
        let reply = Datatype::int();
        // One warmup message populates caches and pools.
        let mut p0: Program = vec![send(1, b0, 1, ty, 1), AppOp::WaitAll];
        let mut p1: Program = vec![recv(0, b1, 1, ty, 1), AppOp::WaitAll];
        p0.push(AppOp::MarkTime { slot: 0 });
        for _ in 0..window {
            p0.extend([send(1, b0, 1, ty, 1), AppOp::WaitAll]);
            p1.extend([recv(0, b1, 1, ty, 1), AppOp::WaitAll]);
        }
        p1.extend([send(0, r1, 1, &reply, 9), AppOp::WaitAll]);
        p0.extend([recv(1, r0, 1, &reply, 9), AppOp::WaitAll]);
        p0.push(AppOp::MarkTime { slot: 1 });
        vec![p0, p1]
    });
    ctx.setup_s += t.elapsed().as_secs_f64();
    let stats = ctx.run(&mut cluster, progs);
    Ctx::check_errors(&stats)?;
    ctx.tr.span("harness.verify", || {
        let sent = cluster.read_mem(0, b0, span);
        let got = cluster.read_mem(1, b1, span);
        same_blocks(ty, 1, &sent, &got)
    })?;
    ctx.absorb(&cluster, &stats, ty, 1);
    ctx.recycle(cluster);
    let interval = stats.mark_interval(0, 0, 1);
    let bytes = window as u64 * ty.size();
    Ok(bytes as f64 / (interval as f64 / 1e9))
}
