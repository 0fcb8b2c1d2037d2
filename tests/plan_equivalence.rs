//! Transfer-plan memo equivalence: compiled plans (memoized on each
//! datatype, `Datatype::plan`) and the scratch pools are host-side
//! optimizations only. Whether a run compiles its plans or finds them
//! already compiled must change NOTHING observable in the simulation —
//! byte-exact delivery, identical virtual clock, identical protocol
//! counters and wire traffic — with and without injected transport
//! faults.

use ibdt::datatype::Datatype;
use ibdt::mpicore::{AppOp, Cluster, ClusterSpec, FaultPlan, RunStats, Scheme};
use ibdt_testkit::{cases, Rng};

fn random_type(rng: &mut Rng) -> Datatype {
    let byte = Datatype::byte();
    match rng.range_u64(0, 4) {
        0 => {
            let blocklen = rng.range_u64(1, 500);
            let stride = blocklen + rng.range_u64(0, 500);
            Datatype::hvector(rng.range_u64(1, 120), blocklen, stride as i64, &byte).unwrap()
        }
        1 => {
            let n = rng.range_usize(1, 20);
            let mut displ = 0i64;
            let mut entries = Vec::new();
            for _ in 0..n {
                let len = rng.range_u64(1, 400);
                entries.push((len, displ));
                displ += (len + rng.range_u64(0, 600)) as i64;
            }
            Datatype::hindexed(&entries, &byte).unwrap()
        }
        2 => {
            // Nested: vector of vectors, the paper's matrix-column shape.
            let inner =
                Datatype::hvector(rng.range_u64(1, 8), rng.range_u64(1, 64), 96, &byte).unwrap();
            Datatype::contiguous(rng.range_u64(1, 16), &inner).unwrap()
        }
        _ => Datatype::contiguous(rng.range_u64(1, 60_000), &byte).unwrap(),
    }
}

/// Richer randomized constructor trees: on top of the [`random_type`]
/// shapes, these include nested contiguous, multi-field structs, and
/// `resized` wrappers that pad the extent. Displacements stay
/// non-negative so `run_pairs`' span arithmetic holds.
fn random_spelled_type(rng: &mut Rng) -> Datatype {
    let byte = Datatype::byte();
    let base = match rng.range_u64(0, 5) {
        0 => {
            // Nested contiguous-of-hvector (collapses toward hvector).
            let inner =
                Datatype::hvector(rng.range_u64(1, 6), rng.range_u64(1, 48), 64, &byte).unwrap();
            Datatype::contiguous(rng.range_u64(1, 8), &inner).unwrap()
        }
        1 => {
            let n = rng.range_usize(1, 12);
            let mut displ = 0i64;
            let mut entries = Vec::new();
            for _ in 0..n {
                let len = rng.range_u64(1, 300);
                entries.push((len, displ));
                displ += (len + rng.range_u64(0, 400)) as i64;
            }
            Datatype::hindexed(&entries, &byte).unwrap()
        }
        2 => {
            let blocklen = rng.range_u64(1, 256);
            let stride = (blocklen + rng.range_u64(0, 256)) as i64;
            Datatype::hvector(rng.range_u64(1, 40), blocklen, stride, &byte).unwrap()
        }
        3 => {
            // Two-field struct with a gap; fields never overlap.
            let a =
                Datatype::hvector(rng.range_u64(1, 4), rng.range_u64(1, 32), 48, &byte).unwrap();
            let b = Datatype::contiguous(rng.range_u64(1, 64), &byte).unwrap();
            let gap = a.ub() + rng.range_u64(0, 64) as i64;
            Datatype::struct_(&[(1, 0, a), (rng.range_u64(1, 3), gap, b)]).unwrap()
        }
        _ => Datatype::contiguous(rng.range_u64(1, 4_000), &byte).unwrap(),
    };
    if rng.range_u64(0, 2) == 0 {
        // Pad the extent so count > 1 strides past the data.
        let pad = rng.range_u64(0, 128) as i64;
        Datatype::resized(&base, base.lb().min(0), base.ub() - base.lb().min(0) + pad).unwrap()
    } else {
        base
    }
}

fn scheme_of(i: u8) -> Scheme {
    match i % 7 {
        0 => Scheme::Generic,
        1 => Scheme::BcSpup,
        2 => Scheme::RwgUp,
        3 => Scheme::PRrs,
        4 => Scheme::MultiW,
        5 => Scheme::Hybrid,
        _ => Scheme::Adaptive,
    }
}

/// `nmsgs` back-to-back send/recv pairs of the same datatype under
/// `spec`; returns stats plus both memory windows.
fn run_pairs(
    spec: ClusterSpec,
    ty: &Datatype,
    count: u64,
    nmsgs: u32,
    seed: u64,
) -> (RunStats, Vec<u8>, Vec<u8>) {
    run_pairs_impl(spec, ty, count, nmsgs, seed, false)
}

/// [`run_pairs`] with both user buffers device-resident, so pack and
/// unpack route through the host↔device staging pipeline.
fn run_pairs_device(
    spec: ClusterSpec,
    ty: &Datatype,
    count: u64,
    nmsgs: u32,
    seed: u64,
) -> (RunStats, Vec<u8>, Vec<u8>) {
    run_pairs_impl(spec, ty, count, nmsgs, seed, true)
}

fn run_pairs_impl(
    spec: ClusterSpec,
    ty: &Datatype,
    count: u64,
    nmsgs: u32,
    seed: u64,
    device: bool,
) -> (RunStats, Vec<u8>, Vec<u8>) {
    let mut cluster = Cluster::new(spec);
    let span = ((count - 1) as i64 * ty.extent() + ty.true_ub()).max(8) as u64 + 64;
    let (sbuf, rbuf) = if device {
        (
            cluster.alloc_device(0, span, 4096),
            cluster.alloc_device(1, span, 4096),
        )
    } else {
        (cluster.alloc(0, span, 4096), cluster.alloc(1, span, 4096))
    };
    cluster.fill_pattern(0, sbuf, span, seed);
    cluster.fill_pattern(1, rbuf, span, seed ^ 0xFFFF);
    let mut p0 = Vec::new();
    let mut p1 = Vec::new();
    for tag in 0..nmsgs {
        p0.push(AppOp::Isend {
            peer: 1,
            buf: sbuf,
            count,
            ty: ty.clone(),
            tag,
        });
        p0.push(AppOp::WaitAll);
        p1.push(AppOp::Irecv {
            peer: 0,
            buf: rbuf,
            count,
            ty: ty.clone(),
            tag,
        });
        p1.push(AppOp::WaitAll);
    }
    let stats = cluster.run(vec![p0, p1]);
    let src = cluster.read_mem(0, sbuf, span);
    let dst = cluster.read_mem(1, rbuf, span);
    (stats, src, dst)
}

fn assert_delivered(ty: &Datatype, count: u64, src: &[u8], dst: &[u8], what: &str) {
    for (off, len) in ty.flat().repeat(count) {
        let o = off as usize;
        assert_eq!(
            &dst[o..o + len as usize],
            &src[o..o + len as usize],
            "{what}: corrupted block at offset {off}"
        );
    }
}

/// Plans compiled during a run, all ranks.
fn compiled(s: &RunStats) -> u64 {
    s.plan_cache.iter().map(|&(_, c, _)| c).sum()
}

/// Plan lookups served from a memo during a run, all ranks.
fn memo_hits(s: &RunStats) -> u64 {
    s.plan_cache.iter().map(|&(h, _, _)| h).sum()
}

fn assert_same_observables(a: &RunStats, b: &RunStats, what: &str) {
    assert_eq!(a.finish_ns, b.finish_ns, "{what}: virtual clock diverged");
    assert_eq!(
        a.rank_finish_ns, b.rank_finish_ns,
        "{what}: per-rank clocks diverged"
    );
    assert_eq!(a.counters, b.counters, "{what}: protocol counters diverged");
    assert_eq!(
        a.cpu_busy_ns, b.cpu_busy_ns,
        "{what}: CPU busy time diverged"
    );
    assert_eq!(a.wqes, b.wqes, "{what}: WQE count diverged");
    assert_eq!(
        a.bytes_on_wire, b.bytes_on_wire,
        "{what}: wire bytes diverged"
    );
    assert_eq!(a.reg_ops, b.reg_ops, "{what}: registration ops diverged");
    assert_eq!(
        a.pindown, b.pindown,
        "{what}: pin-down cache behavior diverged"
    );
    assert_eq!(
        a.fabric_per_rank, b.fabric_per_rank,
        "{what}: transport counters diverged"
    );
    assert_eq!(
        a.errors.iter().map(Vec::len).collect::<Vec<_>>(),
        b.errors.iter().map(Vec::len).collect::<Vec<_>>(),
        "{what}: error counts diverged"
    );
}

/// Random datatype × scheme × message schedule: byte delivery and every
/// virtual-clock observable must be identical whether the run starts
/// from a fresh type value (cold memo: it compiles its plans) or from
/// the same value after that run (warm memo: it compiles nothing).
#[test]
fn warm_memo_is_observationally_equivalent() {
    cases(0x914A_0001, 18, |rng| {
        let ty = random_type(rng);
        let scheme = scheme_of(rng.next_u64() as u8);
        let count = rng.range_u64(1, 3);
        if ty.size() == 0 || ty.size() * count >= 2 << 20 {
            return;
        }
        let nmsgs = rng.range_u64(1, 4) as u32;
        let pattern_seed = rng.next_u64();
        let mut spec = ClusterSpec::default();
        spec.mpi.scheme = scheme;
        let (cold, src_cold, dst_cold) = run_pairs(spec.clone(), &ty, count, nmsgs, pattern_seed);
        let (warm, _, dst_warm) = run_pairs(spec, &ty, count, nmsgs, pattern_seed);
        assert_eq!(
            cold.total_errors(),
            0,
            "clean run must not error: {:?}",
            cold.errors
        );
        assert_delivered(&ty, count, &src_cold, &dst_cold, "cold-memo delivery");
        assert_eq!(dst_cold, dst_warm, "a warm memo changed delivered bytes");
        assert_same_observables(&cold, &warm, "cold vs warm memo");
        // Only the host-side lookup statistics differ: the fresh type
        // compiles, and the second run finds every plan compiled.
        assert!(compiled(&cold) > 0, "a fresh type must compile its plan");
        assert_eq!(compiled(&warm), 0, "the warm run compiled a plan");
        assert!(
            memo_hits(&warm) > 0,
            "sends must have consulted the plan path"
        );
    });
}

/// The same equivalence must hold while the transport is dropping,
/// corrupting, and delaying packets: retransmission schedules are
/// derived from the virtual clock, so host-only plan reuse cannot move
/// them.
#[test]
fn plan_cache_equivalence_under_fault_injection() {
    cases(0x914A_0002, 12, |rng| {
        let ty = random_type(rng);
        let scheme = scheme_of(rng.next_u64() as u8);
        let count = rng.range_u64(1, 3);
        if ty.size() == 0 || ty.size() * count >= 2 << 20 {
            return;
        }
        let pattern_seed = rng.next_u64();
        let faults = FaultPlan {
            seed: rng.next_u64(),
            drop_rate: rng.range_u64(0, 16) as f64 / 100.0,
            corrupt_rate: rng.range_u64(0, 16) as f64 / 100.0,
            delay_rate: rng.range_u64(0, 30) as f64 / 100.0,
            max_delay_ns: 30_000,
            stall_rate: rng.range_u64(0, 10) as f64 / 100.0,
            stall_ns: 5_000,
            ..FaultPlan::none()
        };
        let mut spec = ClusterSpec::default();
        spec.mpi.scheme = scheme;
        spec.faults = faults;
        let (cold, src_cold, dst_cold) = run_pairs(spec.clone(), &ty, count, 2, pattern_seed);
        let (warm, _, dst_warm) = run_pairs(spec, &ty, count, 2, pattern_seed);
        assert_eq!(
            cold.total_errors(),
            0,
            "recoverable rates must not error: {:?}",
            cold.errors
        );
        assert_delivered(
            &ty,
            count,
            &src_cold,
            &dst_cold,
            "faulty cold-memo delivery",
        );
        assert_eq!(dst_cold, dst_warm, "a warm memo changed bytes under faults");
        assert_same_observables(&cold, &warm, "faulty cold vs warm memo");
        assert!(
            cold.fabric().retransmits == warm.fabric().retransmits
                && cold.fabric().delays_injected == warm.fabric().delays_injected,
            "fault schedule must be untouched by host-side plan reuse"
        );
        assert_eq!(compiled(&warm), 0, "the warm run compiled a plan");
    });
}

/// Repeated sends of one datatype compile its plan once for both ranks
/// and then reuse it and the scratch buffers; the counters must show it
/// (this pins the optimization ON, not just its equivalence).
#[test]
fn repeated_sends_hit_plan_cache_and_scratch_pool() {
    for scheme in [
        Scheme::Generic,
        Scheme::BcSpup,
        Scheme::RwgUp,
        Scheme::PRrs,
        Scheme::MultiW,
        Scheme::Hybrid,
    ] {
        // A fresh type value per scheme: its memo starts empty.
        let ty = Datatype::hvector(64, 256, 512, &Datatype::byte()).unwrap();
        let mut spec = ClusterSpec::default();
        spec.mpi.scheme = scheme;
        let (stats, src, dst) = run_pairs(spec, &ty, 4, 6, 11);
        assert_eq!(stats.total_errors(), 0, "{scheme:?}: {:?}", stats.errors);
        assert_delivered(&ty, 4, &src, &dst, "repeated-send delivery");
        assert_eq!(
            compiled(&stats),
            1,
            "{scheme:?}: one (type, count) must compile once across all ranks"
        );
        assert!(
            memo_hits(&stats) > 1,
            "{scheme:?}: repeated sends never hit the plan memo"
        );
        let reuses: u64 = stats.scratch_pool.iter().map(|&(r, _)| r).sum();
        if matches!(scheme, Scheme::Generic | Scheme::BcSpup | Scheme::PRrs) {
            assert!(
                reuses > 0,
                "{scheme:?}: pack staging never reused scratch buffers"
            );
        }
    }
}

/// Respelled types — nested contiguous, multi-field structs and
/// `resized` wrappers that pad the extent — deliver byte-exactly through
/// a full simulated transfer, under one random scheme per case. No other
/// test sends a `resized` type end to end.
#[test]
fn respelled_types_deliver_exactly() {
    cases(0x914A_0003, 16, |rng| {
        let ty = random_spelled_type(rng);
        let count = rng.range_u64(1, 3);
        if ty.size() == 0 || ty.size() * count >= 2 << 20 {
            return;
        }
        let scheme = scheme_of(rng.next_u64() as u8);
        let pattern_seed = rng.next_u64();
        let mut spec = ClusterSpec::default();
        spec.mpi.scheme = scheme;
        let (stats, src, dst) = run_pairs(spec, &ty, count, 2, pattern_seed);
        assert_eq!(stats.total_errors(), 0, "{scheme:?}: {:?}", stats.errors);
        assert_delivered(&ty, count, &src, &dst, "respelled type delivery");
    });
}

/// Device-resident user buffers route pack/unpack through the staged
/// bounce pipeline; plan reuse must stay invisible there too, and the
/// `staging_chunks` counter must show the pipeline actually ran.
#[test]
fn plan_cache_equivalence_on_device_buffers() {
    for (staging_chunk, staging_bufs) in [(0u64, 2usize), (4096, 2), (16384, 1)] {
        let ty = Datatype::hvector(128, 512, 1024, &Datatype::byte()).unwrap();
        let mut spec = ClusterSpec::default();
        spec.mpi.scheme = Scheme::BcSpup;
        spec.mpi.staging_chunk = staging_chunk;
        spec.mpi.staging_bufs = staging_bufs;
        let (cold, src_cold, dst_cold) = run_pairs_device(spec.clone(), &ty, 2, 2, 31);
        let (warm, _, dst_warm) = run_pairs_device(spec, &ty, 2, 2, 31);
        assert_eq!(
            cold.total_errors(),
            0,
            "chunk {staging_chunk}: {:?}",
            cold.errors
        );
        assert_delivered(&ty, 2, &src_cold, &dst_cold, "device-staged delivery");
        assert_eq!(
            dst_cold, dst_warm,
            "chunk {staging_chunk}: a warm memo changed device-staged bytes"
        );
        assert_same_observables(&cold, &warm, "device-staged cold vs warm memo");
        assert_eq!(compiled(&cold), 1, "chunk {staging_chunk}: one compile");
        assert_eq!(
            compiled(&warm),
            0,
            "chunk {staging_chunk}: warm run compiled"
        );
        assert!(
            cold.counters.iter().map(|k| k.staging_chunks).sum::<u64>() > 0,
            "chunk {staging_chunk}: staged pipeline never ran"
        );
    }
}
