//! One function per figure of the paper's evaluation (§8), plus the
//! extension experiments from DESIGN.md.
//!
//! Latencies are reported in microseconds, bandwidths in MB/s
//! (decimal), alltoall times in milliseconds — matching the paper's
//! axes. Points within a series run as independent deterministic
//! simulations fanned out by [`ibdt_workloads::sweep::run_sweep`].

use crate::table::Table;
use ibdt_datatype::Datatype;
use ibdt_memreg::ogr;
use ibdt_mpicore::{
    ClusterSpec, FaultPlan, LinkFault, Scheme, ShmConfig, ShmCopyMode, TransportConfig,
};
use ibdt_workloads::drivers::{
    alltoall_time, bandwidth, bandwidth_device, incast, incast_spec, pingpong, pingpong_asym,
    pingpong_contig, pingpong_manual, pingpong_manual_ty, pingpong_multiple, PingPongResult,
};
use ibdt_workloads::structdt::struct_datatype;
use ibdt_workloads::sweep::run_sweep;
use ibdt_workloads::taxonomy::DtClass;
use ibdt_workloads::vector::VectorWorkload;

/// Column counts of the vector micro-benchmark (powers of two, as in
/// Figs. 2/8/9).
pub const COLUMNS: [u64; 12] = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048];

const WARMUP: u32 = 2;
const ITERS: u32 = 5;
/// The paper pushes 100 consecutive messages in the bandwidth test.
const BW_WINDOW: u32 = 100;

fn spec(scheme: Scheme) -> ClusterSpec {
    let mut s = ClusterSpec::default();
    s.mpi.scheme = scheme;
    s
}

fn worst_spec(scheme: Scheme) -> ClusterSpec {
    let mut s = spec(scheme);
    s.mpi.pindown_cache = false;
    s.mpi.reuse_internal_bufs = false;
    s
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn mbs(bps: f64) -> f64 {
    bps / 1e6
}

fn latency_series(s: ClusterSpec, xs: &[u64]) -> Vec<f64> {
    run_sweep(xs.to_vec(), |&x| {
        let w = VectorWorkload::new(x);
        us(pingpong(&s, &w.ty, 1, WARMUP, ITERS).one_way_ns)
    })
}

fn bandwidth_series(s: ClusterSpec, xs: &[u64]) -> Vec<f64> {
    run_sweep(xs.to_vec(), |&x| {
        let w = VectorWorkload::new(x);
        mbs(bandwidth(&s, &w.ty, 1, BW_WINDOW).bytes_per_sec)
    })
}

/// Fig. 2 — the motivating example: vector ping-pong latency of
/// `Contig`, `Datatype`, `Manual`, `Multiple`, and `DT+reg`.
pub fn fig2() -> Table {
    let mut t = Table::new(
        "Fig. 2: Vector datatype transfer latency, 128x4096 int array",
        "columns",
        "us",
        &["Contig", "Datatype", "Manual", "Multiple", "DT+reg"],
    );
    let xs = COLUMNS;
    let contig = run_sweep(xs.to_vec(), |&x| {
        let w = VectorWorkload::new(x);
        us(pingpong_contig(&spec(Scheme::Generic), w.size, WARMUP, ITERS).one_way_ns)
    });
    let datatype = latency_series(spec(Scheme::Generic), &xs);
    let manual = run_sweep(xs.to_vec(), |&x| {
        let w = VectorWorkload::new(x);
        us(pingpong_manual(&spec(Scheme::Generic), &w, WARMUP, ITERS).one_way_ns)
    });
    let multiple = run_sweep(xs.to_vec(), |&x| {
        let w = VectorWorkload::new(x);
        us(pingpong_multiple(&spec(Scheme::Generic), &w, WARMUP, ITERS).one_way_ns)
    });
    let dt_reg = run_sweep(xs.to_vec(), |&x| {
        let w = VectorWorkload::new(x);
        us(pingpong(&worst_spec(Scheme::Generic), &w.ty, 1, WARMUP, ITERS).one_way_ns)
    });
    for (i, &x) in xs.iter().enumerate() {
        t.push(
            x,
            vec![contig[i], datatype[i], manual[i], multiple[i], dt_reg[i]],
        );
    }
    t.notes.push(
        "expected shape: no scheme reaches 1/4 of Contig at mid sizes; Manual slightly \
         beats Datatype; DT+reg much slower; Multiple wins only at large blocks"
            .into(),
    );
    t
}

/// Fig. 8 — vector ping-pong latency of the implemented schemes.
pub fn fig8() -> Table {
    let mut t = Table::new(
        "Fig. 8: Latency comparison (vector micro-benchmark)",
        "columns",
        "us",
        &["Generic", "BC-SPUP", "RWG-UP", "Multi-W"],
    );
    let series: Vec<Vec<f64>> = [
        Scheme::Generic,
        Scheme::BcSpup,
        Scheme::RwgUp,
        Scheme::MultiW,
    ]
    .into_iter()
    .map(|s| latency_series(spec(s), &COLUMNS))
    .collect();
    for (i, &x) in COLUMNS.iter().enumerate() {
        t.push(x, series.iter().map(|v| v[i]).collect());
    }
    t.notes.push(
        "expected: BC-SPUP ~1.5x over Generic at large sizes; RWG-UP up to ~1.8x; \
         Multi-W up to ~3.4x at large columns, collapsing at small columns"
            .into(),
    );
    t
}

/// Fig. 9 — vector bandwidth (100-message window).
pub fn fig9() -> Table {
    let mut t = Table::new(
        "Fig. 9: Bandwidth comparison (vector micro-benchmark)",
        "columns",
        "MB/s",
        &["Generic", "BC-SPUP", "RWG-UP", "Multi-W"],
    );
    let series: Vec<Vec<f64>> = [
        Scheme::Generic,
        Scheme::BcSpup,
        Scheme::RwgUp,
        Scheme::MultiW,
    ]
    .into_iter()
    .map(|s| bandwidth_series(spec(s), &COLUMNS))
    .collect();
    for (i, &x) in COLUMNS.iter().enumerate() {
        t.push(x, series.iter().map(|v| v[i]).collect());
    }
    t.notes.push(
        "expected: BC-SPUP/RWG-UP 1.2-2.0x over Generic; Multi-W 1.4-3.6x above 64 \
         columns, degraded between 4 and 64 columns"
            .into(),
    );
    t
}

/// Fig. 11 — `MPI_Alltoall` with the Fig. 10 struct datatype, 8 ranks.
pub fn fig11() -> Table {
    let mut t = Table::new(
        "Fig. 11: MPI_Alltoall performance (struct datatype, 8 processes)",
        "last_block_ints",
        "ms",
        &["Generic", "BC-SPUP", "RWG-UP", "Multi-W"],
    );
    let sizes: Vec<u64> = (0..7).map(|k| 2048u64 << k).collect(); // 2048..131072
    let schemes = [
        Scheme::Generic,
        Scheme::BcSpup,
        Scheme::RwgUp,
        Scheme::MultiW,
    ];
    // One sweep over the full (size, scheme) grid.
    let mut grid: Vec<(u64, Scheme)> = Vec::new();
    for &x in &sizes {
        for s in schemes {
            grid.push((x, s));
        }
    }
    let results = run_sweep(grid, |&(x, s)| {
        let ty = struct_datatype(x);
        let mut sp = spec(s);
        sp.nprocs = 8;
        let (per_op, _) = alltoall_time(&sp, &ty, 1, 3);
        per_op as f64 / 1e6
    });
    for (i, &x) in sizes.iter().enumerate() {
        t.push(x, (0..4).map(|j| results[i * 4 + j]).collect());
    }
    t.notes.push(
        "expected: all schemes beat Generic; Multi-W avg ~2.0x (min 1.8, max 2.1), \
         BC-SPUP avg ~1.3x, RWG-UP avg ~1.3x"
            .into(),
    );
    t
}

/// Fig. 12 — effect of segment unpack in RWG-UP (bandwidth).
pub fn fig12() -> Table {
    let mut t = Table::new(
        "Fig. 12: Effects of segment unpack (RWG-UP bandwidth)",
        "columns",
        "MB/s",
        &["segment unpack", "whole unpack"],
    );
    let with = bandwidth_series(spec(Scheme::RwgUp), &COLUMNS);
    let without = {
        let mut s = spec(Scheme::RwgUp);
        s.mpi.segment_unpack = false;
        bandwidth_series(s, &COLUMNS)
    };
    for (i, &x) in COLUMNS.iter().enumerate() {
        t.push(x, vec![with[i], without[i]]);
    }
    t.notes
        .push("expected: ~1.3x bandwidth from segment unpack at large sizes".into());
    t
}

/// Fig. 13 — effect of list descriptor post in Multi-W (bandwidth).
pub fn fig13() -> Table {
    let mut t = Table::new(
        "Fig. 13: Effects of list descriptor post (Multi-W bandwidth)",
        "columns",
        "MB/s",
        &["list post", "single post"],
    );
    let list = bandwidth_series(spec(Scheme::MultiW), &COLUMNS);
    let single = {
        let mut s = spec(Scheme::MultiW);
        s.mpi.list_post = false;
        bandwidth_series(s, &COLUMNS)
    };
    for (i, &x) in COLUMNS.iter().enumerate() {
        t.push(x, vec![list[i], single[i]]);
    }
    t.notes
        .push("expected: list post 1.2-2.0x over single post (avg ~1.6x)".into());
    t
}

/// Fig. 14 — worst-case buffer usage: every buffer registered on the
/// fly (pin-down cache disabled, internal buffers never reused).
pub fn fig14() -> Table {
    let mut t = Table::new(
        "Fig. 14: Latency in the worst case of buffer usage",
        "columns",
        "us",
        &["Generic", "BC-SPUP", "RWG-UP", "Multi-W"],
    );
    let series: Vec<Vec<f64>> = [
        Scheme::Generic,
        Scheme::BcSpup,
        Scheme::RwgUp,
        Scheme::MultiW,
    ]
    .into_iter()
    .map(|s| latency_series(worst_spec(s), &COLUMNS))
    .collect();
    for (i, &x) in COLUMNS.iter().enumerate() {
        t.push(x, series.iter().map(|v| v[i]).collect());
    }
    t.notes.push(
        "expected: below ~512 columns RWG-UP/Multi-W lose (whole-array registration \
         dominates); above, they win on reduced copies; BC-SPUP always >= Generic"
            .into(),
    );
    t
}

/// X1 — P-RRS (designed but not implemented in the paper): symmetric
/// vector latency vs the other copy-reduced schemes, plus the
/// asymmetric contiguous-sender case P-RRS targets (§5.2).
pub fn x1() -> (Table, Table) {
    let mut sym = Table::new(
        "X1a: P-RRS vs other schemes (symmetric vector latency)",
        "columns",
        "us",
        &["BC-SPUP", "RWG-UP", "P-RRS"],
    );
    let series: Vec<Vec<f64>> = [Scheme::BcSpup, Scheme::RwgUp, Scheme::PRrs]
        .into_iter()
        .map(|s| latency_series(spec(s), &COLUMNS))
        .collect();
    for (i, &x) in COLUMNS.iter().enumerate() {
        sym.push(x, series.iter().map(|v| v[i]).collect());
    }
    sym.notes.push(
        "expected (per §5.2): P-RRS trails RWG-UP — RDMA read is slower than write \
         and pipelining costs an extra control message per segment"
            .into(),
    );

    let mut asym = Table::new(
        "X1b: asymmetric contiguous sender -> vector receiver",
        "columns",
        "us",
        &["BC-SPUP", "RWG-UP", "P-RRS"],
    );
    let xs = [16u64, 64, 256, 1024, 2048];
    let grid: Vec<(u64, Scheme)> = xs
        .iter()
        .flat_map(|&x| {
            [Scheme::BcSpup, Scheme::RwgUp, Scheme::PRrs]
                .into_iter()
                .map(move |s| (x, s))
        })
        .collect();
    let res = run_sweep(grid, |&(x, s)| {
        let w = VectorWorkload::new(x);
        let contig = Datatype::contiguous(w.size, &Datatype::byte()).expect("contig");
        us(pingpong_asym(&spec(s), &contig, 1, &w.ty, 1, WARMUP, ITERS).one_way_ns)
    });
    for (i, &x) in xs.iter().enumerate() {
        asym.push(x, (0..3).map(|j| res[i * 3 + j]).collect());
    }
    asym.notes.push(
        "P-RRS avoids receiver unpack; with a contiguous sender there is no pack \
         either, so it closes on RWG-UP here"
            .into(),
    );
    (sym, asym)
}

/// X2 — adaptive scheme selection (§6) against every fixed scheme.
pub fn x2() -> Table {
    let mut t = Table::new(
        "X2: Adaptive scheme choice vs fixed schemes (vector latency)",
        "columns",
        "us",
        &["Adaptive", "Generic", "BC-SPUP", "RWG-UP", "Multi-W"],
    );
    let series: Vec<Vec<f64>> = [
        Scheme::Adaptive,
        Scheme::Generic,
        Scheme::BcSpup,
        Scheme::RwgUp,
        Scheme::MultiW,
    ]
    .into_iter()
    .map(|s| latency_series(spec(s), &COLUMNS))
    .collect();
    for (i, &x) in COLUMNS.iter().enumerate() {
        t.push(x, series.iter().map(|v| v[i]).collect());
    }
    t.notes
        .push("expected: Adaptive tracks the best fixed scheme at every point".into());
    t
}

/// X3 — registration strategy ablation: OGR vs per-block vs
/// whole-extent modelled round-trip cost for the vector layout.
pub fn x3() -> Table {
    let mut t = Table::new(
        "X3: Registration strategy cost (128 x 4KB blocks, variable gap)",
        "gap_pages",
        "us",
        &["per-block", "whole-extent", "OGR"],
    );
    let host = ibdt_ibsim::HostConfig::default();
    // 128 blocks of one page each, separated by a growing gap. Small
    // gaps favour one big registration; huge gaps favour per-block;
    // OGR's cost model must track the winner and beat both in between.
    for gap_pages in [0u64, 1, 2, 8, 32, 64, 128, 512, 2048, 8192] {
        let stride = (1 + gap_pages) * 4096;
        let blocks: Vec<(u64, u64)> = (0..128u64).map(|i| (4096 + i * stride, 4096)).collect();
        let per = ogr::plan_per_block(&blocks, &host.reg).round_trip_ns();
        let whole = ogr::plan_whole_extent(&blocks, &host.reg).round_trip_ns();
        let o = ogr::plan(&blocks, &host.reg).round_trip_ns();
        t.push(gap_pages, vec![us(per), us(whole), us(o)]);
    }
    t.notes.push(
        "OGR must match the better of the two baselines at the extremes and never \
         lose to either (§5.4.1's trade-off)"
            .into(),
    );
    t
}

/// X4 — BC-SPUP segment size sweep (the §7.2 tuning knob).
pub fn x4() -> Table {
    let mut t = Table::new(
        "X4: BC-SPUP segment size (1024-column vector)",
        "segment_KB",
        "us | MB/s",
        &["latency_us", "bandwidth_MBs"],
    );
    let sizes = [16u64, 32, 64, 128, 256, 512];
    let res = run_sweep(sizes.to_vec(), |&kb| {
        let mut s = spec(Scheme::BcSpup);
        s.mpi.max_seg_size = kb * 1024;
        let w = VectorWorkload::new(1024);
        let lat = us(pingpong(&s, &w.ty, 1, WARMUP, ITERS).one_way_ns);
        let bw = mbs(bandwidth(&s, &w.ty, 1, 30).bytes_per_sec);
        (lat, bw)
    });
    for (i, &kb) in sizes.iter().enumerate() {
        t.push(kb, vec![res[i].0, res[i].1]);
    }
    t.notes.push(
        "small segments pipeline deeply but pay per-segment overheads; large ones \
         lose overlap — a shallow optimum in the middle is expected"
            .into(),
    );
    t
}

/// X5 — the §7.1 eager path: direct pack into eager buffers vs the
/// original two extra copies.
pub fn x5() -> Table {
    let mut t = Table::new(
        "X5: Small datatype messages in the eager protocol",
        "columns",
        "us",
        &["original (Generic)", "direct pack (new)"],
    );
    for &x in &[1u64, 2] {
        let w = VectorWorkload::new(x);
        let old = us(pingpong(&spec(Scheme::Generic), &w.ty, 1, WARMUP, ITERS).one_way_ns);
        let new = us(pingpong(&spec(Scheme::BcSpup), &w.ty, 1, WARMUP, ITERS).one_way_ns);
        t.push(x, vec![old, new]);
    }
    t.notes
        .push("two copies saved (§7.1): perceivable constant improvement".into());
    t
}

/// X6 — the §10 future-work Hybrid scheme: per-block selection within
/// one message, on datatypes mixing large and small blocks.
pub fn x6() -> Table {
    let mut t = Table::new(
        "X6: Hybrid per-block scheme (mixed 8KiB/small-block struct latency)",
        "small_block_B",
        "us",
        &["BC-SPUP", "Multi-W", "Hybrid"],
    );
    // 64 fields alternating 8 KiB and `small` bytes.
    let smalls = [16u64, 32, 64, 128, 256, 512];
    let grid: Vec<(u64, Scheme)> = smalls
        .iter()
        .flat_map(|&x| {
            [Scheme::BcSpup, Scheme::MultiW, Scheme::Hybrid]
                .into_iter()
                .map(move |s| (x, s))
        })
        .collect();
    let res = run_sweep(grid, |&(small, s)| {
        let mut fields = Vec::new();
        let mut displ = 0i64;
        for i in 0..64 {
            let len = if i % 2 == 0 { 8192u64 } else { small };
            fields.push((len, displ, Datatype::byte()));
            displ += len as i64 + 512;
        }
        let ty = Datatype::struct_(&fields).expect("mixed struct");
        us(pingpong(&spec(s), &ty, 1, WARMUP, ITERS).one_way_ns)
    });
    for (i, &x) in smalls.iter().enumerate() {
        t.push(x, (0..3).map(|j| res[i * 3 + j]).collect());
    }
    t.notes.push(
        "Hybrid writes the 8 KiB blocks directly and packs the small ones; it          should beat both pure strategies across the sweep"
            .into(),
    );
    t
}

/// X7 — one-sided RMA extension: Put+Fence vs the best two-sided
/// scheme for the vector layout (the §1 "RMA" consumer of derived
/// datatypes, built on the Multi-W machinery).
pub fn x7() -> Table {
    use ibdt_mpicore::{AppOp, Cluster};
    let mut t = Table::new(
        "X7: One-sided Put vs two-sided send (vector latency)",
        "columns",
        "us",
        &["two-sided (Adaptive)", "Put+Fence"],
    );
    let xs = [16u64, 64, 256, 1024, 2048];
    let two = run_sweep(xs.to_vec(), |&x| {
        let w = VectorWorkload::new(x);
        us(pingpong(&spec(Scheme::Adaptive), &w.ty, 1, WARMUP, ITERS).one_way_ns)
    });
    let one = run_sweep(xs.to_vec(), |&x| {
        let w = VectorWorkload::new(x);
        let mut sp = spec(Scheme::Adaptive);
        sp.mpi.scheme = Scheme::Adaptive;
        let mut cluster = Cluster::new(sp);
        let span = w.ty.true_ub() as u64 + 64;
        let obuf = cluster.alloc(0, span, 4096);
        let wbuf = cluster.alloc(1, span, 4096);
        cluster.fill_pattern(0, obuf, span, 1);
        let mut p0 = vec![AppOp::WinCreate {
            win: 0,
            addr: 0,
            len: 0,
        }];
        let mut p1 = vec![AppOp::WinCreate {
            win: 0,
            addr: wbuf,
            len: span,
        }];
        // Warmup epoch + measured epochs.
        for it in 0..(WARMUP + ITERS) {
            if it == WARMUP {
                p0.push(AppOp::MarkTime { slot: 0 });
            }
            p0.push(AppOp::Put {
                win: 0,
                target: 1,
                obuf,
                ocount: 1,
                oty: w.ty.clone(),
                toff: 0,
                tcount: 1,
                tty: w.ty.clone(),
            });
            p0.push(AppOp::Fence);
            p1.push(AppOp::Fence);
        }
        p0.push(AppOp::MarkTime { slot: 1 });
        let stats = cluster.run(vec![p0, p1]);
        us(stats.mark_interval(0, 0, 1) / ITERS as u64)
    });
    for (i, &x) in xs.iter().enumerate() {
        t.push(x, vec![two[i], one[i]]);
    }
    t.notes.push(
        "Put+Fence skips the rendezvous handshake and all receiver work; its cost          is the fence barrier — cheaper for large blocks, pricier for small ones"
            .into(),
    );
    t
}

/// X8 — cost-model sensitivity: how the headline Multi-W and BC-SPUP
/// improvement factors respond to the calibration's two main knobs
/// (host copy bandwidth and link bandwidth). The paper's conclusions
/// should hold across the plausible hardware range, not only at our
/// chosen point.
pub fn x8() -> Table {
    let mut t = Table::new(
        "X8: Sensitivity of improvement factors to the cost model (2048 columns)",
        "copy_MBps",
        "factor vs Generic",
        &[
            "MultiW@870MBps",
            "BCSPUP@870MBps",
            "MultiW@600MBps",
            "BCSPUP@600MBps",
        ],
    );
    let copies = [700u64, 950, 1200, 1600];
    let links = [870_000_000u64, 600_000_000];
    let grid: Vec<(u64, u64, Scheme)> = copies
        .iter()
        .flat_map(|&c| {
            links.iter().flat_map(move |&l| {
                [Scheme::Generic, Scheme::MultiW, Scheme::BcSpup]
                    .into_iter()
                    .map(move |s| (c, l, s))
            })
        })
        .collect();
    let res = run_sweep(grid.clone(), |&(c, l, s)| {
        let mut sp = spec(s);
        sp.host.copy_bw_bps = c * 1_000_000;
        sp.net.link_bw_bps = l;
        let w = VectorWorkload::new(2048);
        pingpong(&sp, &w.ty, 1, WARMUP, ITERS).one_way_ns as f64
    });
    let lookup = |c: u64, l: u64, s: Scheme| -> f64 {
        let idx = grid
            .iter()
            .position(|&(gc, gl, gs)| gc == c && gl == l && gs == s)
            .expect("grid point");
        res[idx]
    };
    for &c in &copies {
        let row = vec![
            lookup(c, links[0], Scheme::Generic) / lookup(c, links[0], Scheme::MultiW),
            lookup(c, links[0], Scheme::Generic) / lookup(c, links[0], Scheme::BcSpup),
            lookup(c, links[1], Scheme::Generic) / lookup(c, links[1], Scheme::MultiW),
            lookup(c, links[1], Scheme::Generic) / lookup(c, links[1], Scheme::BcSpup),
        ];
        t.push(c, row);
    }
    t.notes.push(
        "the ordering (Multi-W > BC-SPUP > 1) must hold at every grid point; the          absolute factors grow as copies get slower relative to the link — the          paper's 3.4x corresponds to a slower-copy corner of this grid"
            .into(),
    );
    t
}

/// X9 — robustness ablation: the vector ping-pong under a seeded
/// fault-plan sweep. Reports the latency penalty of recovery together
/// with the fault/retry counters the reliability layer exports, so the
/// CSV shows *why* each point got slower (retransmissions, RNR
/// backoff) and that no protocol-visible errors leaked through.
pub fn x9() -> Table {
    let mut t = Table::new(
        "X9: Robustness ablation — BC-SPUP latency + recovery counters under faults",
        "fault_pct",
        "mixed",
        &[
            "latency_us",
            "drops",
            "corruptions",
            "delays",
            "retransmits",
            "rnr_backoff_retries",
            "scheme_fallbacks",
            "rndv_rerequests",
            "errors",
        ],
    );
    let rates = [0u64, 2, 5, 10, 15];
    let rows = run_sweep(rates.to_vec(), |&pct| {
        let mut sp = spec(Scheme::BcSpup);
        sp.faults = FaultPlan {
            seed: 0x0B57_0000 + pct,
            drop_rate: pct as f64 / 100.0,
            corrupt_rate: pct as f64 / 200.0,
            delay_rate: pct as f64 / 100.0,
            max_delay_ns: 20_000,
            ..FaultPlan::none()
        };
        let w = VectorWorkload::new(256);
        let r = pingpong(&sp, &w.ty, 1, WARMUP, ITERS);
        let c = |f: fn(&ibdt_mpicore::rank::RankCounters) -> u64| -> f64 {
            r.stats.counters.iter().map(f).sum::<u64>() as f64
        };
        vec![
            us(r.one_way_ns),
            r.stats.drops_injected as f64,
            r.stats.corruptions_injected as f64,
            r.stats.delays_injected as f64,
            r.stats.retransmits as f64,
            r.stats.rnr_backoff_retries as f64,
            c(|k| k.scheme_fallbacks),
            c(|k| k.rndv_rerequests),
            r.stats.total_errors() as f64,
        ]
    });
    for (&pct, row) in rates.iter().zip(rows) {
        t.push(pct, row);
    }
    t.notes.push(
        "errors must be 0 at every point (the RC retry budget absorbs these rates); \
         latency grows with the injected rate while retransmits track drops+corruptions"
            .into(),
    );
    t
}

/// X10 — connection-lifecycle ablation: one vector round-trip with a
/// link failure injected mid-transfer, per scheme. Three latencies are
/// compared — fault-free, APM path migration, and full QP
/// re-establishment (APM disabled) — together with the recovery
/// counters the connection manager exports, so the CSV shows which
/// mechanism absorbed the failure and that no errors surfaced.
pub fn x10() -> Table {
    let mut t = Table::new(
        "X10: Connection lifecycle — failover latency + recovery counters per scheme",
        "scheme_idx",
        "mixed",
        &[
            "clean_us",
            "apm_us",
            "reconnect_us",
            "migrations",
            "qp_reestablished",
            "resumed_chunks",
            "errors",
        ],
    );
    let schemes = [
        Scheme::Generic,
        Scheme::BcSpup,
        Scheme::RwgUp,
        Scheme::PRrs,
        Scheme::MultiW,
        Scheme::Adaptive,
    ];
    let fault = LinkFault {
        at_ns: 30_000,
        node: 0,
        port: 0,
        down_ns: 5_000_000,
    };
    let idx: Vec<u64> = (0..schemes.len() as u64).collect();
    let rows = run_sweep(idx.clone(), |&i| {
        let w = VectorWorkload::new(256);
        let one_way = |sp: &ClusterSpec| pingpong(sp, &w.ty, 1, 0, 1);

        let clean = one_way(&spec(schemes[i as usize]));

        let mut apm = spec(schemes[i as usize]);
        apm.faults = FaultPlan {
            seed: 0x0C10_0000 + i,
            link_faults: vec![fault],
            ..FaultPlan::none()
        };
        let apm_r = one_way(&apm);

        let mut rec = apm.clone();
        rec.net.apm_enabled = false;
        let rec_r = one_way(&rec);

        let sum = |r: &PingPongResult, f: fn(&ibdt_mpicore::rank::RankCounters) -> u64| -> f64 {
            r.stats.counters.iter().map(f).sum::<u64>() as f64
        };
        vec![
            us(clean.one_way_ns),
            us(apm_r.one_way_ns),
            us(rec_r.one_way_ns),
            apm_r.stats.migrations as f64,
            sum(&rec_r, |k| k.qp_reestablished),
            sum(&rec_r, |k| k.resumed_chunks),
            (clean.stats.total_errors() + apm_r.stats.total_errors() + rec_r.stats.total_errors())
                as f64,
        ]
    });
    for (&i, row) in idx.iter().zip(rows) {
        t.push(i, row);
    }
    t.notes.push(
        "schemes in row order: Generic, BC-SPUP, RWG-UP, P-RRS, Multi-W, Adaptive; \
         errors must be 0 everywhere; apm_us <= reconnect_us at every row — path \
         migration mostly hides inside pack/compute overlap, while re-establishment \
         pays the reconnect delay plus the resume round-trip"
            .into(),
    );
    t
}

/// X13 — overload robustness: N→1 eager incast completion time and
/// peak unexpected-queue occupancy vs fan-in, at per-peer credit
/// budgets off / 8 / 32 / 128. Every sender fires 48 eager messages of
/// 512 B at a slow consumer (2 µs of work per receive round), so
/// arrivals outpace matching and the unexpected queue takes the burst;
/// with flow control on, credit exhaustion degrades the overflow
/// traffic to rendezvous and bounds the queue.
pub fn x13() -> Table {
    let mut t = Table::new(
        "X13: Incast overload — completion time and peak unexpected-queue occupancy",
        "fan_in",
        "mixed",
        &[
            "off_us",
            "c8_us",
            "c32_us",
            "c128_us",
            "off_peak",
            "c8_peak",
            "c32_peak",
            "c128_peak",
        ],
    );
    let fans = [4u64, 8, 16, 32, 64];
    let credits = [0u32, 8, 32, 128];
    let grid: Vec<(u64, u32)> = fans
        .iter()
        .flat_map(|&f| credits.iter().map(move |&c| (f, c)))
        .collect();
    let res = run_sweep(grid, |&(f, c)| {
        let mut sp = incast_spec(f as u32 + 1, c);
        // Deep receive rings so the credit budget, not the ring, is the
        // binding constraint on unexpected-queue growth.
        sp.mpi.eager_bufs_per_peer = 64;
        let r = incast(&sp, 48, 512, 2_000);
        assert_eq!(r.stats.total_errors(), 0, "incast fan_in={f} credits={c}");
        (us(r.completion_ns), r.peak_unexpected as f64)
    });
    for (i, &f) in fans.iter().enumerate() {
        let pts = &res[i * 4..(i + 1) * 4];
        let mut row: Vec<f64> = pts.iter().map(|p| p.0).collect();
        row.extend(pts.iter().map(|p| p.1));
        t.push(f, row);
    }
    t.notes.push(
        "tighter credit budgets bound the peak unexpected-queue occupancy (off grows \
         with fan_in; c8 stays lowest) at a modest completion-time cost from traffic \
         degraded to rendezvous"
            .into(),
    );
    t
}

/// X16 — device-resident bandwidth vs bounce-chunk size (the staged
/// pipeline of DESIGN §16, TEMPI's shape): both user buffers live in
/// device memory, so every pack/unpack streams through the bounce ring.
/// Series: double-buffered staging, single-buffer (serialized) staging,
/// and the adaptive chunk model (`staging_chunk = 0`) as a reference
/// line — flat, and tracking the best explicit chunk.
pub fn x16() -> Table {
    let mut t = Table::new(
        "X16: Device-resident vector bandwidth vs staging chunk size",
        "chunk_bytes",
        "MB/s",
        &["staged2", "staged1", "adaptive"],
    );
    // Chunks sweep past the 128 KiB segment size: beyond it one chunk
    // covers a whole segment and the pipeline degenerates to serial.
    let chunks: [u64; 7] = [
        4 << 10,
        8 << 10,
        16 << 10,
        32 << 10,
        64 << 10,
        128 << 10,
        256 << 10,
    ];
    let cols = 1024u64; // 128 rows x 1024 ints = 512 KiB per message
    let series = |bufs: usize, chunk_of: fn(u64) -> u64| {
        let xs: Vec<u64> = chunks.to_vec();
        run_sweep(xs, move |&c| {
            let mut s = spec(Scheme::BcSpup);
            s.mpi.staging_chunk = chunk_of(c);
            s.mpi.staging_bufs = bufs;
            let w = VectorWorkload::new(cols);
            let r = bandwidth_device(&s, &w.ty, 1, BW_WINDOW);
            assert!(r.stats.staging_chunks > 0, "staged pipeline unused");
            mbs(r.bytes_per_sec)
        })
    };
    let staged2 = series(2, |c| c);
    let staged1 = series(1, |c| c);
    let adaptive = series(2, |_| 0);
    for (i, &c) in chunks.iter().enumerate() {
        t.push(c, vec![staged2[i], staged1[i], adaptive[i]]);
    }
    t.notes.push(
        "expected shape: staged2 rises with chunk size (DMA launch amortization), \
         peaks below the segment size, then falls back toward staged1 as chunks \
         stop overlapping; staged1 is flatter and never above staged2; adaptive is \
         flat at (or above) the best explicit chunk"
            .into(),
    );
    t
}

/// X17 — DDT path vs manual pack+send across the datatype taxonomy
/// and the transports (after "Do MPI Derived Datatypes Actually
/// Help?", arXiv:2511.13804). Each cell is the one-way latency ratio
/// `ddt / pack` of the Adaptive scheme over the manual baseline
/// ([`pingpong_manual_ty`]): below 1.0 the datatype path wins. Columns
/// pair each class with the shm copy modes (`_d` double-copy bounce,
/// `_s` CMA single-copy) plus the IB reference for the vector class.
/// The crossover row — where the vector ratio drops below 1.0 —
/// differs between the two shm modes because single-copy's zero-copy
/// schemes pay a per-WR syscall setup that only large blocks amortize.
pub fn x17() -> Table {
    let classes = ibdt_workloads::taxonomy::ALL_CLASSES;
    let mut series: Vec<String> = Vec::new();
    for c in classes {
        series.push(format!("{}_d", c.short()));
        series.push(format!("{}_s", c.short()));
    }
    series.push("vec_ib".into());
    let series_refs: Vec<&str> = series.iter().map(String::as_str).collect();
    let mut t = Table::new(
        "X17: DDT vs manual pack across transports (latency ratio ddt/pack)",
        "size_bytes",
        "ratio",
        &series_refs,
    );
    let sizes: [u64; 6] = [8 << 10, 32 << 10, 128 << 10, 512 << 10, 1 << 20, 2 << 20];

    // Transport code: 0 = shm double, 1 = shm single, 2 = IB.
    let shm_spec = |mode: ShmCopyMode| {
        let mut s = spec(Scheme::Adaptive);
        s.transport = TransportConfig::Shm(ShmConfig {
            copy_mode: mode,
            ..ShmConfig::default()
        });
        s
    };
    let mut grid: Vec<(DtClass, u64, u8)> = Vec::new();
    for &size in &sizes {
        for c in classes {
            grid.push((c, size, 0));
            grid.push((c, size, 1));
        }
        grid.push((DtClass::Vector, size, 2));
    }
    let res = run_sweep(grid.clone(), |&(class, size, tr)| {
        let sp = match tr {
            0 => shm_spec(ShmCopyMode::Double),
            1 => shm_spec(ShmCopyMode::Single),
            _ => spec(Scheme::Adaptive),
        };
        let ty = ibdt_workloads::taxonomy::build(class, size);
        let ddt = pingpong(&sp, &ty, 1, WARMUP, ITERS);
        let pack = pingpong_manual_ty(&sp, &ty, WARMUP, ITERS);
        assert_eq!(ddt.stats.total_errors(), 0, "{class:?}/{size}/{tr}");
        ddt.one_way_ns as f64 / pack.one_way_ns as f64
    });
    let per_row = classes.len() * 2 + 1;
    for (i, &size) in sizes.iter().enumerate() {
        let row = res[i * per_row..(i + 1) * per_row].to_vec();
        t.push(size, row);
    }

    // The headline claims. `win` is where DDT first beats manual pack
    // (ratio <= 1.0); `zero_copy` is where it wins *decisively*
    // (ratio <= 0.25), which only happens when the selector abandons
    // pack/unpack for direct per-block copies. Double-copy can never
    // reach that regime — every byte bounces regardless of scheme —
    // so the decisive crossover exists on single-copy only: the
    // crossover structure differs between the modes.
    let crossover = |col: &str, thr: f64| -> usize {
        t.rows
            .iter()
            .position(|(_, v)| v[t.series.iter().position(|s| s == col).unwrap()] <= thr)
            .unwrap_or(t.rows.len())
    };
    let none = t.rows.len();
    let (win_d, win_s) = (crossover("vec_d", 1.0), crossover("vec_s", 1.0));
    let (zc_d, zc_s) = (crossover("vec_d", 0.25), crossover("vec_s", 0.25));
    assert!(
        win_d < none && win_s < none,
        "DDT must win somewhere on shm"
    );
    assert_ne!(
        zc_d, zc_s,
        "the decisive crossover must differ between shm copy modes \
         (double {zc_d}, single {zc_s} of {none} rows)"
    );
    assert_eq!(
        zc_d, none,
        "double copy must never reach the zero-copy regime (bounce floor)"
    );
    t.notes.push(format!(
        "vector DDT beats manual pack from {} B on both copy modes, but only \
         single-copy ever wins decisively (ratio <= 0.25 from {} B): Multi-W's \
         direct per-block CMA copies skip packing entirely once blocks amortize \
         the syscall setup, while double-copy bounces every byte regardless",
        t.rows[win_d.min(win_s)].0,
        if zc_s < none { t.rows[zc_s].0 } else { 0 },
    ));
    t.notes.push(
        "guideline (arXiv:1607.00178): DDT must not lose to pack+send — holds from \
         32 KiB up on every transport; below that the datatype path pays up to ~15% \
         protocol overhead (see EXPERIMENTS.md X17); ci.sh --shm enforces both bounds"
            .into(),
    );
    t
}

/// Every figure, in paper order (extensions last).
pub fn all_figures() -> Vec<Table> {
    let (x1a, x1b) = x1();
    vec![
        fig2(),
        fig8(),
        fig9(),
        fig11(),
        fig12(),
        fig13(),
        fig14(),
        x1a,
        x1b,
        x2(),
        x3(),
        x4(),
        x5(),
        x6(),
        x7(),
        x8(),
        x9(),
        x10(),
        x13(),
        x16(),
        x17(),
    ]
}
