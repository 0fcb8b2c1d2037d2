//! `alltoall_struct`: 32 ranks run repeated `MPI_Alltoall` of the Fig. 10
//! struct type (`struct_datatype(512)`, about 4 KiB per pair) under
//! Adaptive, built exactly like `workloads::alltoall_time`.

use crate::{Ctx, Virt};
use ibdt_datatype::Datatype;
use ibdt_mpicore::{AppOp, Cluster, ClusterSpec, Program, Scheme};
use ibdt_simcore::time::Time;
use ibdt_workloads::struct_datatype;
use std::time::Instant;

/// Ranks, measured iterations: full benchmark or self-test.
pub fn shape(quick: bool) -> (u32, u32) {
    if quick {
        (8, 4)
    } else {
        (32, 64)
    }
}

/// The cluster spec of the workload.
pub fn spec(nprocs: u32) -> ClusterSpec {
    let mut s = ClusterSpec {
        nprocs,
        ..ClusterSpec::default()
    };
    s.mpi.scheme = Scheme::Adaptive;
    s
}

/// Messages one run sends: `iters + 1` alltoalls of `n²` messages (the
/// self block included) and two dissemination barriers.
pub fn messages(n: u32, iters: u32) -> u64 {
    let rounds = n.next_power_of_two().trailing_zeros() as u64;
    let n = n as u64;
    (iters as u64 + 1) * n * n + 2 * n * rounds
}

/// One repetition.
pub fn rep(ctx: &mut Ctx) -> Virt {
    let (n, iters) = shape(ctx.params.quick);
    let ty = struct_datatype(512);
    let spec = ctx.point_spec(&spec(n));
    let per_op = ctx.point(messages(n, iters), |ctx| run(ctx, &spec, &ty, iters));
    let Some(per_op) = per_op else {
        return Virt::default();
    };
    let bytes = n as u64 * (n as u64 - 1) * ty.size();
    Virt {
        latency_ns: per_op as f64,
        bandwidth_bps: bytes as f64 / (per_op as f64 / 1e9),
    }
}

/// Mean virtual ns per Alltoall, as `workloads::alltoall_time`
/// computes it.
pub fn run(ctx: &mut Ctx, spec: &ClusterSpec, ty: &Datatype, iters: u32) -> Result<Time, String> {
    let n = spec.nprocs;
    let t = Instant::now();
    let mut cluster = ctx.tr.span("mpicore.new", || Cluster::new(spec.clone()));
    let block = ty.extent() as u64;
    let span = block * n as u64 + ty.true_ub().max(0) as u64 + 64;
    let seeds: Vec<u64> = (0..n).map(|r| ctx.fill_seed(r as u64)).collect();
    let (sbufs, rbufs) = ctx.tr.span("harness.fill", || {
        let mut sbufs = Vec::new();
        let mut rbufs = Vec::new();
        for r in 0..n {
            let sb = cluster.alloc(r, span, 4096);
            let rb = cluster.alloc(r, span, 4096);
            cluster.fill_pattern(r, sb, span, seeds[r as usize]);
            sbufs.push(sb);
            rbufs.push(rb);
        }
        (sbufs, rbufs)
    });
    let progs: Vec<Program> = ctx.tr.span("harness.build", || {
        (0..n as usize)
            .map(|r| {
                let a2a = AppOp::Alltoall {
                    sbuf: sbufs[r],
                    rbuf: rbufs[r],
                    count: 1,
                    sty: ty.clone(),
                    rty: ty.clone(),
                };
                // Warmup round, then the measured ones.
                let mut p: Program = vec![a2a.clone(), AppOp::Barrier];
                if r == 0 {
                    p.push(AppOp::MarkTime { slot: 0 });
                }
                p.extend(std::iter::repeat_n(a2a, iters as usize));
                p.push(AppOp::Barrier);
                if r == 0 {
                    p.push(AppOp::MarkTime { slot: 1 });
                }
                p
            })
            .collect()
    });
    ctx.setup_s += t.elapsed().as_secs_f64();
    let stats = ctx.run(&mut cluster, progs);
    Ctx::check_errors(&stats)?;
    ctx.tr.span("harness.verify", || {
        // Rank i's block j must have landed as rank j's block i.
        let sent: Vec<Vec<u8>> = (0..n)
            .map(|r| cluster.read_mem(r, sbufs[r as usize], span))
            .collect();
        for j in 0..n {
            let got = cluster.read_mem(j, rbufs[j as usize], span);
            for (i, src) in sent.iter().enumerate() {
                let (si, di) = ((j as u64 * block) as usize, (i as u64 * block) as usize);
                crate::same_blocks(ty, 1, &src[si..], &got[di..])
                    .map_err(|e| format!("{i}->{j}: {e}"))?;
            }
        }
        Ok::<(), String>(())
    })?;
    ctx.absorb(&cluster, &stats, ty, 1);
    ctx.recycle(cluster);
    Ok(stats.mark_interval(0, 0, 1) / iters as u64)
}
