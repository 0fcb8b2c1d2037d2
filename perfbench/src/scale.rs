//! `scale_alltoall`: `run_scale` at 2048 ranks with 2 shards — the
//! sharded conservative-window timing model that no other workload
//! executes. The shards share one thread: on a 2-vCPU host, two threads
//! synchronising every window made a repetition take anywhere from 1.8
//! to 5 s within minutes, against 2.2–2.5 s on one thread.

use crate::{Ctx, Virt};
use ibdt_datatype::TransferPlan;
use ibdt_workloads::{run_scale, vector_datatype, ScaleConfig};
use std::time::Instant;

/// The run's configuration: full benchmark or self-test.
pub fn config(quick: bool) -> ScaleConfig {
    ScaleConfig {
        ranks: if quick { 256 } else { 2048 },
        shards: 2,
        threads: 1,
        ..ScaleConfig::default()
    }
}

/// One repetition.
pub fn rep(ctx: &mut Ctx) -> Virt {
    let t = Instant::now();
    let (cfg, msg_bytes) = ctx.tr.span("harness.build", || {
        let cfg = config(ctx.params.quick);
        let plan = TransferPlan::compile(&vector_datatype(cfg.columns), 1);
        (cfg, plan.total_bytes())
    });
    ctx.setup_s += t.elapsed().as_secs_f64();
    let n = cfg.ranks as u64;
    let expect = n * (n - 1);
    let rep = ctx.point(expect, |ctx| {
        let t = Instant::now();
        let rep = ctx.tr.span("scale.run", || run_scale(&cfg));
        ctx.sim_s += t.elapsed().as_secs_f64();
        ctx.tr.span("harness.verify", || {
            if (rep.msgs, rep.bytes, rep.crashed, rep.lost) != (expect, expect * msg_bytes, 0, 0) {
                return Err(format!(
                    "delivered {} msgs / {} B with {} crashed and {} lost; expected {expect} msgs / {} B",
                    rep.msgs,
                    rep.bytes,
                    rep.crashed,
                    rep.lost,
                    expect * msg_bytes
                ));
            }
            Ok(())
        })?;
        Ok(rep)
    });
    let Some(rep) = rep else {
        return Virt::default();
    };
    if ctx.tr.enabled() {
        ctx.counts.add("scale.rounds", rep.rounds as f64);
        ctx.counts.add("scale.state_bytes", rep.state_bytes as f64);
    }
    Virt {
        latency_ns: rep.finish_ns as f64,
        bandwidth_bps: rep.bytes as f64 / (rep.finish_ns as f64 / 1e9),
    }
}
