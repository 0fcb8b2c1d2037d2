//! Chaos tests for the collective operations and one-sided RMA: the
//! recovery machinery must hold up when many rank pairs and overlapping
//! handshakes share one faulty fabric — not only in a two-rank
//! point-to-point world. The contract matches `chaos.rs`: under
//! recoverable fault rates every collective finishes with zero typed
//! errors and exactly the fault-free result, deterministically per
//! seed; link failures with APM enabled migrate transparently.

use ibdt::datatype::Datatype;
use ibdt::mpicore::{AppOp, Cluster, ClusterSpec, FaultPlan, LinkFault, Program, ReduceOp, Scheme};
use ibdt_testkit::{cases, chaos_seed};

fn spec(scheme: Scheme, nprocs: u32, faults: FaultPlan) -> ClusterSpec {
    let mut s = ClusterSpec {
        nprocs,
        ..Default::default()
    };
    s.mpi.scheme = scheme;
    s.mpi.audit = true;
    s.faults = faults;
    s
}

fn ints_to_bytes(v: &[i32]) -> Vec<u8> {
    v.iter().flat_map(|x| x.to_le_bytes()).collect()
}

fn bytes_to_ints(b: &[u8]) -> Vec<i32> {
    b.chunks_exact(4)
        .map(|c| i32::from_le_bytes(c.try_into().unwrap()))
        .collect()
}

/// Allgather across 4 ranks; returns `(finish_ns, per-rank gathered
/// ints)` so callers can compare against a fault-free reference and
/// assert determinism.
fn run_allgather(faults: FaultPlan, scheme: Scheme) -> (u64, Vec<Vec<i32>>) {
    let n = 4u32;
    let count = 2048u64; // 8 KiB per contribution -> rendezvous
    let ty = Datatype::int();
    let mut cluster = Cluster::new(spec(scheme, n, faults));
    let bytes = count * 4;
    let mut sbufs = Vec::new();
    let mut rbufs = Vec::new();
    for r in 0..n {
        let sb = cluster.alloc(r, bytes, 4096);
        let vals: Vec<i32> = (0..count as i32).map(|i| i ^ (r as i32) << 20).collect();
        cluster.write_mem(r, sb, &ints_to_bytes(&vals));
        sbufs.push(sb);
        rbufs.push(cluster.alloc(r, bytes * n as u64, 4096));
    }
    let progs: Vec<Program> = (0..n)
        .map(|r| {
            vec![AppOp::Allgather {
                sbuf: sbufs[r as usize],
                rbuf: rbufs[r as usize],
                count,
                ty: ty.clone(),
            }]
        })
        .collect();
    let stats = cluster.run(progs);
    assert_eq!(
        stats.total_errors(),
        0,
        "allgather under {scheme:?} must not surface errors: {:?}",
        stats.errors
    );
    let out = (0..n)
        .map(|r| bytes_to_ints(&cluster.read_mem(r, rbufs[r as usize], bytes * n as u64)))
        .collect();
    (stats.finish_ns, out)
}

/// Seeded drop/corrupt/delay rates inside the retry budget: every rank
/// must end up with the exact fault-free allgather result, and the
/// identical seed must reproduce the identical virtual clock.
#[test]
fn allgather_delivers_under_recoverable_chaos() {
    let (_, want) = run_allgather(FaultPlan::none(), Scheme::BcSpup);
    cases(chaos_seed(0xC0_1101), 6, |rng| {
        let scheme = *rng.choose(&[Scheme::BcSpup, Scheme::MultiW, Scheme::Adaptive]);
        let faults = FaultPlan {
            seed: rng.next_u64(),
            drop_rate: rng.range_u64(0, 12) as f64 / 100.0,
            corrupt_rate: rng.range_u64(0, 12) as f64 / 100.0,
            delay_rate: rng.range_u64(0, 25) as f64 / 100.0,
            max_delay_ns: 25_000,
            ..FaultPlan::none()
        };
        let (t1, got) = run_allgather(faults.clone(), scheme);
        assert_eq!(
            got, want,
            "faulty allgather diverged from fault-free result"
        );
        let (t2, got2) = run_allgather(faults, scheme);
        assert_eq!(t1, t2, "virtual clock diverged on replay");
        assert_eq!(got, got2, "replay diverged");
    });
}

/// Allreduce (binomial reduce + bcast) under chaos: the reduction
/// pipeline forwards partial results between ranks, so a silently
/// corrupted or half-recovered message would poison every rank's sum.
#[test]
fn allreduce_sums_correctly_under_chaos() {
    let n = 4u32;
    let count = 1024u64;
    let ty = Datatype::int();
    cases(chaos_seed(0xC0_1102), 4, |rng| {
        let faults = FaultPlan {
            seed: rng.next_u64(),
            drop_rate: rng.range_u64(0, 10) as f64 / 100.0,
            delay_rate: rng.range_u64(0, 20) as f64 / 100.0,
            max_delay_ns: 20_000,
            ..FaultPlan::none()
        };
        let mut cluster = Cluster::new(spec(Scheme::BcSpup, n, faults));
        let bytes = count * 4;
        let mut progs = Vec::new();
        let mut rbufs = Vec::new();
        for r in 0..n {
            let sbuf = cluster.alloc(r, bytes, 4096);
            let rbuf = cluster.alloc(r, bytes, 4096);
            let scratch = cluster.alloc(r, bytes, 4096);
            let vals: Vec<i32> = (0..count as i32).map(|i| i * (r as i32 + 1)).collect();
            cluster.write_mem(r, sbuf, &ints_to_bytes(&vals));
            rbufs.push(rbuf);
            progs.push(vec![AppOp::Allreduce {
                sbuf,
                rbuf,
                scratch,
                count,
                ty: ty.clone(),
                op: ReduceOp::Sum,
            }]);
        }
        let stats = cluster.run(progs);
        assert_eq!(
            stats.total_errors(),
            0,
            "allreduce errored: {:?}",
            stats.errors
        );
        // sum over ranks of i*(r+1) = i * (1+2+..+n)
        let factor: i32 = (1..=n as i32).sum();
        for r in 0..n {
            let got = bytes_to_ints(&cluster.read_mem(r, rbufs[r as usize], bytes));
            for (i, &v) in got.iter().enumerate() {
                assert_eq!(v, i as i32 * factor, "rank {r} element {i}");
            }
        }
    });
}

/// A port failure in the middle of a 4-rank alltoall with APM enabled:
/// the affected connections migrate, nothing errors, and every rank
/// holds the same bytes a fault-free run produces.
#[test]
fn alltoall_survives_link_failover() {
    let n = 4u32;
    let count = 8192u64; // 32 KiB per pair -> long enough to span the fault
    let ty = Datatype::byte();
    let run = |faults: FaultPlan| {
        let mut cluster = Cluster::new(spec(Scheme::BcSpup, n, faults));
        let bytes = count;
        let mut progs = Vec::new();
        let mut rbufs = Vec::new();
        for r in 0..n {
            let sbuf = cluster.alloc(r, bytes * n as u64, 4096);
            let rbuf = cluster.alloc(r, bytes * n as u64, 4096);
            cluster.fill_pattern(r, sbuf, bytes * n as u64, 0x7A + r as u64);
            rbufs.push(rbuf);
            progs.push(vec![AppOp::Alltoall {
                sbuf,
                rbuf,
                count,
                sty: ty.clone(),
                rty: ty.clone(),
            }]);
        }
        let stats = cluster.run(progs);
        assert_eq!(
            stats.total_errors(),
            0,
            "alltoall errored: {:?}",
            stats.errors
        );
        let out: Vec<Vec<u8>> = (0..n)
            .map(|r| cluster.read_mem(r, rbufs[r as usize], bytes * n as u64))
            .collect();
        (stats, out)
    };
    let (_, want) = run(FaultPlan::none());
    let faults = FaultPlan {
        seed: 0xA110,
        link_faults: vec![LinkFault {
            at_ns: 40_000,
            node: 1,
            port: 0,
            down_ns: 2_000_000,
        }],
        ..FaultPlan::none()
    };
    let (stats, got) = run(faults);
    assert!(
        stats.fabric().migrations >= 1,
        "mid-alltoall port loss should have migrated"
    );
    assert_eq!(got, want, "failover changed the alltoall result");
}

/// One-sided Put/Get under recoverable wire chaos: RMA WRs ride the
/// same RC transport, so drops and delays must be absorbed by
/// retransmission without corrupting the window or leaking errors.
#[test]
fn rma_put_get_deliver_under_chaos() {
    let ty = Datatype::vector(64, 32, 1024, &Datatype::int()).unwrap();
    let span = ty.true_ub() as u64 + 64;
    cases(chaos_seed(0xC0_1103), 6, |rng| {
        let faults = FaultPlan {
            seed: rng.next_u64(),
            drop_rate: rng.range_u64(0, 10) as f64 / 100.0,
            delay_rate: rng.range_u64(0, 20) as f64 / 100.0,
            max_delay_ns: 20_000,
            ..FaultPlan::none()
        };
        let mut cluster = Cluster::new(spec(Scheme::MultiW, 2, faults));
        let obuf = cluster.alloc(0, span, 4096);
        let gbuf = cluster.alloc(0, span, 4096);
        let wbuf = cluster.alloc(1, span, 4096);
        cluster.fill_pattern(0, obuf, span, 91);
        let p0: Program = vec![
            AppOp::WinCreate {
                win: 1,
                addr: 0,
                len: 0,
            },
            AppOp::Put {
                win: 1,
                target: 1,
                obuf,
                ocount: 1,
                oty: ty.clone(),
                toff: 0,
                tcount: 1,
                tty: ty.clone(),
            },
            AppOp::Fence,
            // Read the window straight back: the Get must observe
            // exactly what the Put placed.
            AppOp::Get {
                win: 1,
                target: 1,
                obuf: gbuf,
                ocount: 1,
                oty: ty.clone(),
                toff: 0,
                tcount: 1,
                tty: ty.clone(),
            },
            AppOp::Fence,
        ];
        let p1: Program = vec![
            AppOp::WinCreate {
                win: 1,
                addr: wbuf,
                len: span,
            },
            AppOp::Fence,
            AppOp::Fence,
        ];
        let stats = cluster.run(vec![p0, p1]);
        assert_eq!(
            stats.total_errors(),
            0,
            "RMA under chaos errored: {:?}",
            stats.errors
        );
        let src = cluster.read_mem(0, obuf, span);
        let win = cluster.read_mem(1, wbuf, span);
        let got = cluster.read_mem(0, gbuf, span);
        for (off, len) in ty.flat().repeat(1) {
            let o = off as usize;
            assert_eq!(
                &win[o..o + len as usize],
                &src[o..o + len as usize],
                "Put corrupted"
            );
            assert_eq!(
                &got[o..o + len as usize],
                &src[o..o + len as usize],
                "Get corrupted"
            );
        }
    });
}

/// A Put in flight when the origin's primary port dies: APM migrates
/// the connection and the one-sided transfer still lands byte-exact.
#[test]
fn rma_put_survives_link_failover() {
    let ty = Datatype::vector(128, 256, 2048, &Datatype::int()).unwrap(); // 128 KiB
    let span = ty.true_ub() as u64 + 64;
    let faults = FaultPlan {
        seed: 0xA111,
        link_faults: vec![LinkFault {
            at_ns: 30_000,
            node: 0,
            port: 0,
            down_ns: 2_000_000,
        }],
        ..FaultPlan::none()
    };
    let mut cluster = Cluster::new(spec(Scheme::MultiW, 2, faults));
    let obuf = cluster.alloc(0, span, 4096);
    let wbuf = cluster.alloc(1, span, 4096);
    cluster.fill_pattern(0, obuf, span, 17);
    let p0: Program = vec![
        AppOp::WinCreate {
            win: 2,
            addr: 0,
            len: 0,
        },
        AppOp::Put {
            win: 2,
            target: 1,
            obuf,
            ocount: 1,
            oty: ty.clone(),
            toff: 0,
            tcount: 1,
            tty: ty.clone(),
        },
        AppOp::Fence,
    ];
    let p1: Program = vec![
        AppOp::WinCreate {
            win: 2,
            addr: wbuf,
            len: span,
        },
        AppOp::Fence,
    ];
    let stats = cluster.run(vec![p0, p1]);
    assert_eq!(
        stats.total_errors(),
        0,
        "failover Put errored: {:?}",
        stats.errors
    );
    assert!(
        stats.fabric().migrations >= 1,
        "mid-Put port loss should have migrated"
    );
    let src = cluster.read_mem(0, obuf, span);
    let dst = cluster.read_mem(1, wbuf, span);
    for (off, len) in ty.flat().repeat(1) {
        let o = off as usize;
        assert_eq!(
            &dst[o..o + len as usize],
            &src[o..o + len as usize],
            "Put corrupted"
        );
    }
}
