//! Allocation contracts: heap allocations per operation on the
//! simulator's steady-state paths, held to exact ceilings.
//!
//! Allocation counts are deterministic — no host noise — so unlike
//! wall-clock time they gate strictly. Each contract runs its operation
//! a few times to warm the plan memos, the scratch and payload pools
//! and the recycled-cluster pool, then counts allocations over a window
//! of repetitions. Its value is the minimum over up to three windows:
//! the libtest harness's main thread lazily allocates once while this
//! test runs, and that one-shot noise cannot repeat, whereas a real
//! per-op allocation dirties every window. The ceilings are the counts
//! measured when the contracts were written; a change that allocates
//! more per op fails here, and one that allocates less should lower its
//! ceiling.
//!
//! Keep this file to the one test: the allocation counter is
//! process-global, and a sibling test running on another harness
//! thread would show up in the windows.

use ibdt_datatype::{Datatype, PlanLookup, TransferPlan};
use ibdt_ibsim::{Sge, SgeList};
use ibdt_mpicore::pool::ScratchPool;
use ibdt_mpicore::{
    AppOp, Cluster, ClusterSpec, ReduceOp, Scheme, ShmConfig, ShmCopyMode, TransportConfig,
};
use ibdt_testkit::CountingAlloc;
use ibdt_workloads::{bandwidth_device, incast, incast_spec, run_scale, ScaleConfig};
use std::hint::black_box;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The paper's workload shape: `MPI_Type_vector(128, cols, 4096, MPI_INT)`.
fn vector_ty(cols: u64) -> Datatype {
    Datatype::vector(128, cols, 4096, &Datatype::int()).unwrap()
}

/// Minimum allocations per op over up to three windows of `reps`
/// calls, after three warm-up calls. Stops at the first window that
/// meets `ceiling`.
fn allocs_per_op(ceiling: u64, reps: u64, mut op: impl FnMut()) -> u64 {
    for _ in 0..3 {
        op();
    }
    let mut best = u64::MAX;
    for _ in 0..3 {
        let before = CountingAlloc::allocations();
        for _ in 0..reps {
            op();
        }
        let delta = CountingAlloc::allocations() - before;
        best = best.min(delta.div_ceil(reps));
        if best <= ceiling {
            break;
        }
    }
    best
}

/// One x1-style sweep point: build (or recycle) a two-rank cluster,
/// run a four-message ping-pong of `ty`, and park the cluster again.
fn pingpong(spec: &ClusterSpec, ty: &Datatype) {
    let mut cluster = Cluster::new(spec.clone());
    let span = ty.true_ub() as u64 + 64;
    let sbuf = cluster.alloc(0, span, 4096);
    let rbuf = cluster.alloc(1, span, 4096);
    let mut p0 = Vec::new();
    let mut p1 = Vec::new();
    for tag in 0..4 {
        p0.push(AppOp::Isend {
            peer: 1,
            buf: sbuf,
            count: 1,
            ty: ty.clone(),
            tag,
        });
        p0.push(AppOp::WaitAll);
        p1.push(AppOp::Irecv {
            peer: 0,
            buf: rbuf,
            count: 1,
            ty: ty.clone(),
            tag,
        });
        p1.push(AppOp::WaitAll);
    }
    black_box(cluster.run(vec![p0, p1]));
    cluster.recycle();
}

/// One Allreduce of `count` instances of `ty` over every rank of a
/// (recycled) cluster: point-to-point traffic plus a combine per
/// reduction step.
fn allreduce(spec: &ClusterSpec, ty: &Datatype, count: u64) {
    let mut cluster = Cluster::new(spec.clone());
    let span = count * ty.extent() as u64 + 64;
    let progs = (0..spec.nprocs)
        .map(|r| {
            vec![AppOp::Allreduce {
                sbuf: cluster.alloc(r, span, 4096),
                rbuf: cluster.alloc(r, span, 4096),
                scratch: cluster.alloc(r, span, 4096),
                count,
                ty: ty.clone(),
                op: ReduceOp::Sum,
            }]
        })
        .collect();
    black_box(cluster.run(progs));
    cluster.recycle();
}

#[test]
fn steady_state_allocation_contracts() {
    // (name, ceiling, measured)
    let mut results: Vec<(String, u64, u64)> = Vec::new();
    let mut check = |name: String, ceiling: u64, reps: u64, op: &mut dyn FnMut()| {
        let got = allocs_per_op(ceiling, reps, op);
        results.push((name, ceiling, got));
    };

    // Persistent eager send: a plan-memo hit, a pooled control buffer
    // packed into behind its header, copy-cost block count, and the
    // transfer's inline one-SGE source list, which delivery copies
    // into the receive slot once.
    {
        let ty = vector_ty(2);
        let n = ty.size();
        let buf = vec![0x3Cu8; ty.true_ub() as usize + 64];
        let mut slot = vec![0u8; n as usize];
        let mut scratch = ScratchPool::new();
        check(
            format!("repeated_send/persistent_eager/bytes/{n}"),
            0,
            512,
            &mut || {
                let (plan, _) = black_box(&ty).plan(1);
                let mut staging = scratch.take_ctrl();
                staging.resize(n as usize, 0);
                plan.pack(0, n, &buf, 0, &mut staging).unwrap();
                black_box(plan.block_count_in(0, n).unwrap());
                let sges = SgeList::of(Sge {
                    addr: 4096,
                    len: n,
                    lkey: 1,
                });
                black_box(&sges);
                slot.copy_from_slice(black_box(&staging));
                scratch.put_ctrl(staging);
            },
        );
    }

    // Compiled-plan pack and unpack copy into caller buffers only.
    for cols in [4u64, 64, 1024] {
        let ty = vector_ty(cols);
        let plan = TransferPlan::compile(&ty, 1);
        let n = plan.total_bytes();
        let buf = vec![0xA5u8; ty.true_ub() as usize + 64];
        let mut out = vec![0u8; n as usize];
        check(format!("pack/plan/vector_cols/{cols}"), 0, 64, &mut || {
            plan.pack(0, n, black_box(&buf), 0, black_box(&mut out))
                .unwrap();
        });
        let stream = vec![0x5Au8; n as usize];
        let mut user = vec![0u8; ty.true_ub() as usize + 64];
        check(
            format!("unpack/plan/vector_cols/{cols}"),
            0,
            64,
            &mut || {
                plan.unpack(0, n, black_box(&stream), black_box(&mut user), 0)
                    .unwrap();
            },
        );
    }

    // Canonicalization: three spellings of one layout compile exactly
    // one plan, and a respelled lookup (an `OnceLock` read plus a memo
    // hit) allocates nothing. Normalizing an unseen spelling builds and
    // flattens a fresh type tree every op.
    {
        let int = Datatype::int();
        let v = vector_ty(16);
        let hv = Datatype::hvector(128, 16, 16384, &int).unwrap();
        let entries: Vec<(u64, i64)> = (0..128).map(|i| (16, i * 16384)).collect();
        let hx = Datatype::hindexed(&entries, &int).unwrap();
        let served: Vec<PlanLookup> = [&v, &hv, &hx]
            .iter()
            .map(|t| t.canonical().plan(1).1)
            .collect();
        assert_eq!(
            served,
            [PlanLookup::Compiled, PlanLookup::Hit, PlanLookup::Hit],
            "three spellings of one layout must compile exactly one plan"
        );
        check(
            "canon/respelled_lookup/vector_cols/16".into(),
            0,
            512,
            &mut || {
                black_box(black_box(&hx).canonical().plan(1));
            },
        );
        check(
            "canon/normalize_fresh/blocks/128".into(),
            20,
            16,
            &mut || {
                let t = Datatype::hindexed(black_box(&entries), &int).unwrap();
                black_box(t.canonical());
            },
        );
    }

    // Device tier: a full bandwidth run with device-resident buffers
    // through the staged bounce pipeline, explicit and adaptive chunk.
    {
        let ty = vector_ty(256);
        for (label, chunk) in [("chunk/8192", 8192u64), ("chunk/auto", 0)] {
            let mut spec = ClusterSpec::default();
            spec.mpi.scheme = Scheme::BcSpup;
            spec.mpi.staging_chunk = chunk;
            check(
                format!("device/bandwidth_staged/{label}"),
                33,
                2,
                &mut || {
                    let res = bandwidth_device(&spec, &ty, 1, 4);
                    let staged: u64 = res.stats.counters.iter().map(|k| k.staging_chunks).sum();
                    assert!(staged > 0, "staged pipeline unused");
                    black_box(res.bytes_per_sec);
                },
            );
        }
    }

    // x1 sweep point over IB BC-SPUP. Clusters recycle across points,
    // so what remains is per-run program and interpreter setup and
    // stats collection.
    for cols in [4u64, 64, 512] {
        let ty = vector_ty(cols);
        let mut spec = ClusterSpec::default();
        spec.mpi.scheme = Scheme::BcSpup;
        check(format!("sweep_x1/pingpong_cols/{cols}"), 17, 4, &mut || {
            pingpong(&spec, &ty)
        });
    }

    // A 4-rank Allreduce of 64 `vector(4, 2, 8, int)` on a recycled
    // cluster: every reduction step's combine takes its plan from the
    // type's memo instead of compiling one.
    {
        let ty = Datatype::vector(4, 2, 8, &Datatype::int()).unwrap();
        let spec = ClusterSpec {
            nprocs: 4,
            ..ClusterSpec::default()
        };
        check("coll/allreduce/ranks/4/count/64".into(), 53, 4, &mut || {
            allreduce(&spec, &ty, 64)
        });
    }

    // The same ping-pong over the shared-memory transport, one entry
    // per copy mode; it rides the same recycled-cluster lifecycle.
    for (label, mode) in [
        ("double", ShmCopyMode::Double),
        ("single", ShmCopyMode::Single),
    ] {
        let ty = vector_ty(64);
        let mut spec = ClusterSpec::default();
        spec.mpi.scheme = Scheme::Adaptive;
        spec.transport = TransportConfig::Shm(ShmConfig {
            copy_mode: mode,
            ..ShmConfig::default()
        });
        check(format!("shm/pingpong_cols/64/{label}"), 17, 4, &mut || {
            pingpong(&spec, &ty)
        });
    }

    // 8-to-1 eager incast with a bounded CQ, flow control off and on.
    for credits in [0u32, 32] {
        let mut spec = incast_spec(9, credits);
        spec.net.cq_depth = 256;
        check(
            format!("incast/fanin/8/credits/{credits}"),
            317,
            2,
            &mut || {
                black_box(incast(&spec, 12, 512, 2_000));
            },
        );
    }

    // Sharded scale driver: a 256-rank vector Alltoall, one shard and
    // eight.
    for (shards, ceiling) in [(1usize, 20), (8, 61)] {
        let cfg = ScaleConfig {
            ranks: 256,
            shards,
            ..ScaleConfig::default()
        };
        check(
            format!("scale/alltoall/256/shards/{shards}"),
            ceiling,
            1,
            &mut || {
                black_box(run_scale(&cfg));
            },
        );
    }

    let table: String = results
        .iter()
        .map(|(name, ceiling, got)| {
            format!("  {name:<44} {got:>5} allocs/op (ceiling {ceiling})\n")
        })
        .collect();
    println!("allocation contracts:\n{table}");
    let broken: Vec<&(String, u64, u64)> = results.iter().filter(|(_, c, g)| g > c).collect();
    assert!(
        broken.is_empty(),
        "{} allocation contract(s) exceeded their ceiling in three \
         consecutive windows: {broken:?}\n{table}",
        broken.len()
    );
}
