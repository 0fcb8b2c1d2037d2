//! Golden protocol fingerprints.
//!
//! The committed figures pin only latency and bandwidth; these cases
//! pin the protocol itself — per-rank finish times, every
//! [`RankCounters`](ibdt_mpicore::rank::RankCounters) field (work
//! requests, control messages, packs, fallbacks, resumed chunks…), the
//! fabric's WQE and wire-byte totals, the number of scheduled events,
//! and a hash of every received byte. A refactor of the data path must
//! reproduce each row exactly; a deliberate protocol change re-records
//! the affected rows from the failure message.
//!
//! Host-side reuse counters (`scratch_pool`, `plan_cache`,
//! `payload_pool`, `space_pool`) are left out: they track allocation
//! recycling, which may legitimately move without changing what the
//! simulated protocol does.
//!
//! Every case runs twice: with the paper's vector type and with the
//! X6 mixed struct (8 KiB blocks alternating with 64-byte blocks).

use ibdt_datatype::Datatype;
use ibdt_mpicore::{
    AppOp, Cluster, ClusterSpec, FaultPlan, LinkFault, RunStats, Scheme, ShmConfig, ShmCopyMode,
    TransportConfig,
};

/// 256 blocks of 128 bytes at a 4 KiB stride: 32 KiB in two segments,
/// each needing two `max_sge` gather lists.
fn vector_ty() -> Datatype {
    Datatype::vector(256, 32, 1024, &Datatype::int()).unwrap()
}

/// The X6 struct: 64 fields alternating 8 KiB and 64 bytes.
fn mixed_ty() -> Datatype {
    let mut fields = Vec::new();
    let mut displ = 0i64;
    for i in 0..64 {
        let len = if i % 2 == 0 { 8192u64 } else { 64 };
        fields.push((len, displ, Datatype::byte()));
        displ += len as i64 + 512;
    }
    Datatype::struct_(&fields).unwrap()
}

fn fnv(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

const FNV_BASIS: u64 = 0xCBF2_9CE4_8422_2325;

/// What a case pins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Fingerprint {
    finish_ns: [u64; 2],
    /// FNV-1a of the `Debug` form of every rank's `RankCounters`, so a
    /// new or changed field moves it.
    counters: u64,
    wqes: u64,
    bytes_on_wire: u64,
    events: u64,
    /// FNV-1a of both ranks' receive windows after the run.
    data: u64,
}

fn fingerprint(stats: &RunStats, received: &[Vec<u8>]) -> Fingerprint {
    assert_eq!(stats.total_errors(), 0, "errors: {:?}", stats.errors);
    Fingerprint {
        finish_ns: [stats.rank_finish_ns[0], stats.rank_finish_ns[1]],
        counters: fnv(FNV_BASIS, format!("{:?}", stats.counters).as_bytes()),
        wqes: stats.wqes,
        bytes_on_wire: stats.bytes_on_wire,
        events: stats.events_scheduled,
        data: received.iter().fold(FNV_BASIS, |h, b| fnv(h, b)),
    }
}

/// Rank 0 sends two messages to rank 1, which echoes the second back:
/// both directions, and a repeat that exercises the layout and plan
/// caches.
fn run(spec: ClusterSpec, ty: &Datatype, device: bool) -> (RunStats, Fingerprint) {
    let mut cluster = Cluster::new(spec);
    let span = ty.true_ub() as u64 + 64;
    let alloc = |c: &mut Cluster, r| {
        if device {
            c.alloc_device(r, span, 4096)
        } else {
            c.alloc(r, span, 4096)
        }
    };
    let (s0, r0) = (alloc(&mut cluster, 0), alloc(&mut cluster, 0));
    let (r1a, r1b) = (alloc(&mut cluster, 1), alloc(&mut cluster, 1));
    cluster.fill_pattern(0, s0, span, 11);
    cluster.fill_pattern(0, r0, span, 12);
    cluster.fill_pattern(1, r1a, span, 13);
    cluster.fill_pattern(1, r1b, span, 14);
    let send = |peer, buf, tag| AppOp::Isend {
        peer,
        buf,
        count: 1,
        ty: ty.clone(),
        tag,
    };
    let recv = |peer, buf, tag| AppOp::Irecv {
        peer,
        buf,
        count: 1,
        ty: ty.clone(),
        tag,
    };
    let p0 = vec![
        send(1, s0, 0),
        AppOp::WaitAll,
        send(1, s0, 1),
        recv(1, r0, 2),
        AppOp::WaitAll,
    ];
    let p1 = vec![
        recv(0, r1a, 0),
        AppOp::WaitAll,
        recv(0, r1b, 1),
        AppOp::WaitAll,
        send(0, r1b, 2),
        AppOp::WaitAll,
    ];
    let stats = cluster.run(vec![p0, p1]);
    let received = vec![
        cluster.read_mem(0, r0, span),
        cluster.read_mem(1, r1a, span),
        cluster.read_mem(1, r1b, span),
    ];
    let fp = fingerprint(&stats, &received);
    (stats, fp)
}

fn ib(scheme: Scheme) -> ClusterSpec {
    let mut spec = ClusterSpec::default();
    spec.mpi.audit = true;
    spec.mpi.scheme = scheme;
    spec
}

fn shm(mode: ShmCopyMode) -> ClusterSpec {
    let mut spec = ib(Scheme::Adaptive);
    spec.transport = TransportConfig::Shm(ShmConfig {
        copy_mode: mode,
        ..ShmConfig::default()
    });
    spec
}

/// Recorded fingerprints, `(case, [vector type, mixed struct])`.
#[rustfmt::skip]
const GOLDEN: &[(&str, [Fingerprint; 2])] = &[
    ("Generic", [
        fp([450937, 395784], 0x505196d899c68491, 9, 98523, 35, 0x84f4e9f60984e21d),
        fp([2399619, 2117182], 0xc61bbb27a5bbaa15, 9, 792795, 35, 0xf3310c2e42a12e4d),
    ]),
    ("BC-SPUP", [
        fp([331442, 304415], 0x156a400478a4c450, 12, 98571, 44, 0x84f4e9f60984e21d),
        fp([1781301, 1642754], 0xcac6aa1aa6cf0e5d, 15, 792879, 53, 0xf3310c2e42a12e4d),
    ]),
    ("RWG-UP", [
        fp([517980, 490953], 0xbb271e61c441e5b1, 18, 98571, 47, 0x84f4e9f60984e21d),
        fp([1469063, 1330666], 0xb4576929686b3578, 15, 792879, 47, 0xf3310c2e42a12e4d),
    ]),
    ("P-RRS", [
        fp([492100, 496061], 0x115a7b6315e88d44, 39, 98712, 71, 0x84f4e9f60984e21d),
        fp([1460070, 1464031], 0xae1612671aa16a73, 36, 793083, 74, 0xf3310c2e42a12e4d),
    ]),
    ("Multi-W", [
        fp([761734, 763234], 0x01892216a231e881, 774, 106887, 797, 0x84f4e9f60984e21d),
        fp([1155694, 1157194], 0x7bab9b23cf009db5, 198, 795015, 221, 0xf3310c2e42a12e4d),
    ]),
    ("Hybrid", [
        fp([359858, 334331], 0x7447bd2f545e3247, 15, 106935, 47, 0x84f4e9f60984e21d),
        fp([1129538, 1127262], 0x597471e38e7cfe85, 108, 795087, 137, 0xf3310c2e42a12e4d),
    ]),
    ("Adaptive", [
        fp([331442, 304415], 0x156a400478a4c450, 12, 98571, 44, 0x84f4e9f60984e21d),
        fp([1155694, 1157194], 0x7bab9b23cf009db5, 198, 795015, 221, 0xf3310c2e42a12e4d),
    ]),
    ("shm-double", [
        fp([279868, 248340], 0x156a400478a4c450, 12, 98571, 56, 0x84f4e9f60984e21d),
        fp([1359474, 1213063], 0xcac6aa1aa6cf0e5d, 15, 792879, 68, 0xf3310c2e42a12e4d),
    ]),
    ("shm-single", [
        fp([284568, 252100], 0x156a400478a4c450, 12, 98571, 56, 0x84f4e9f60984e21d),
        fp([655321, 652290], 0x7bab9b23cf009db5, 198, 795015, 230, 0xf3310c2e42a12e4d),
    ]),
    ("BC-SPUP device", [
        fp([373333, 340257], 0x61c416e3cb2dfe9e, 12, 98571, 44, 0x84f4e9f60984e21d),
        fp([1835445, 1685216], 0x8452f5fe0ab61b01, 15, 792879, 53, 0xf3310c2e42a12e4d),
    ]),
    ("Multi-W list_post off", [
        fp([1569784, 1571284], 0x01892216a231e881, 774, 106887, 797, 0x84f4e9f60984e21d),
        fp([1358944, 1360444], 0x7bab9b23cf009db5, 198, 795015, 221, 0xf3310c2e42a12e4d),
    ]),
    ("RWG-UP segment_unpack off", [
        fp([602361, 547207], 0x16632eba1f2dd21c, 18, 98571, 44, 0x84f4e9f60984e21d),
        fp([1901696, 1619088], 0x007c830a3e80f2de, 15, 792879, 41, 0xf3310c2e42a12e4d),
    ]),
    ("RWG-UP link fault", [
        fp([648624, 621597], 0xf7e51068d0e63271, 22, 114978, 57, 0x84f4e9f60984e21d),
        fp([1638904, 1500507], 0xc2961a60fef480fd, 19, 926022, 57, 0xf3310c2e42a12e4d),
    ]),
    ("Generic link fault", [
        fp([575062, 519909], 0x15dc36b8e057cd1e, 12, 131314, 44, 0x84f4e9f60984e21d),
        fp([2508097, 2225660], 0x7be14659e218f206, 11, 792818, 42, 0xf3310c2e42a12e4d),
    ]),
    ("BC-SPUP link fault", [
        fp([460388, 433361], 0x7284bf637b592bec, 15, 114978, 53, 0x84f4e9f60984e21d),
        fp([1946192, 1807645], 0x0140860c52830a84, 19, 926022, 63, 0xf3310c2e42a12e4d),
    ]),
    ("P-RRS link fault", [
        fp([601590, 605551], 0xdb1a837a71eb435b, 44, 98787, 82, 0x84f4e9f60984e21d),
        fp([1586558, 1590519], 0x3e9c5e5e74493674, 39, 793125, 83, 0xf3310c2e42a12e4d),
    ]),
    ("Multi-W link fault", [
        fp([923150, 924650], 0x70918c3d0ffd44ca, 1032, 139678, 1061, 0x84f4e9f60984e21d),
        fp([1496534, 1498034], 0xbdd9b1e0c725e944, 264, 1059230, 293, 0xf3310c2e42a12e4d),
    ]),
    ("Hybrid link fault", [
        fp([468886, 443359], 0xdbea2e4d1976581c, 17, 106958, 54, 0x84f4e9f60984e21d),
        fp([1458965, 1456689], 0xc1f932ff44fa2250, 144, 1059302, 179, 0xf3310c2e42a12e4d),
    ]),
    ("BC-SPUP ring re-post", [
        fp([402416, 375389], 0x49ec80dcfe0b9ef2, 13, 98610, 49, 0x84f4e9f60984e21d),
        fp([1781301, 1642754], 0x44cd3a621d850d33, 16, 792930, 58, 0xf3310c2e42a12e4d),
    ]),
    ("Multi-W evict", [
        fp([1015296, 980075], 0x7cce2d8a5eceebf8, 792, 205602, 851, 0x84f4e9f60984e21d),
        fp([2521791, 2383244], 0xc84663506368135a, 219, 1588074, 284, 0xf3310c2e42a12e4d),
    ]),
    ("Hybrid evict", [
        fp([359858, 334331], 0x7447bd2f545e3247, 15, 106935, 47, 0x84f4e9f60984e21d),
        fp([2488083, 2349536], 0x8f48c9b5506d86b1, 129, 1588146, 197, 0xf3310c2e42a12e4d),
    ]),
];

/// Runs `spec` on both types and compares against the case's
/// [`GOLDEN`] row. On mismatch the message carries the observed row in
/// source form.
fn check(name: &str, spec: ClusterSpec, device: bool) -> [RunStats; 2] {
    check_each(name, [spec.clone(), spec], device)
}

/// [`check`] with a separate spec per type (vector first).
fn check_each(name: &str, specs: [ClusterSpec; 2], device: bool) -> [RunStats; 2] {
    let want = GOLDEN
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("no golden row for {name}"))
        .1;
    let [spec_v, spec_m] = specs;
    let (sv, fv) = run(spec_v, &vector_ty(), device);
    let (sm, fm) = run(spec_m, &mixed_ty(), device);
    assert_eq!(
        [fv, fm],
        want,
        "{name}: protocol fingerprint moved; observed:\n    ({name:?}, [\n        {},\n        {},\n    ]),",
        literal(&fv),
        literal(&fm)
    );
    [sv, sm]
}

fn literal(f: &Fingerprint) -> String {
    format!(
        "fp([{}, {}], {:#018x}, {}, {}, {}, {:#018x})",
        f.finish_ns[0], f.finish_ns[1], f.counters, f.wqes, f.bytes_on_wire, f.events, f.data
    )
}

const fn fp(
    finish_ns: [u64; 2],
    counters: u64,
    wqes: u64,
    bytes_on_wire: u64,
    events: u64,
    data: u64,
) -> Fingerprint {
    Fingerprint {
        finish_ns,
        counters,
        wqes,
        bytes_on_wire,
        events,
        data,
    }
}

#[test]
fn every_scheme_on_ib() {
    for (name, scheme) in [
        ("Generic", Scheme::Generic),
        ("BC-SPUP", Scheme::BcSpup),
        ("RWG-UP", Scheme::RwgUp),
        ("P-RRS", Scheme::PRrs),
        ("Multi-W", Scheme::MultiW),
        ("Hybrid", Scheme::Hybrid),
        ("Adaptive", Scheme::Adaptive),
    ] {
        check(name, ib(scheme), false);
    }
}

#[test]
fn adaptive_on_shm() {
    check("shm-double", shm(ShmCopyMode::Double), false);
    check("shm-single", shm(ShmCopyMode::Single), false);
}

#[test]
fn bc_spup_device_buffers() {
    for s in check("BC-SPUP device", ib(Scheme::BcSpup), true) {
        let staged: u64 = s.counters.iter().map(|k| k.staging_chunks).sum();
        assert!(staged > 0, "device buffers must stage");
    }
}

#[test]
fn multi_w_single_posts() {
    let mut spec = ib(Scheme::MultiW);
    spec.mpi.list_post = false;
    check("Multi-W list_post off", spec, false);
}

#[test]
fn rwg_up_batched_unpack() {
    let mut spec = ib(Scheme::RwgUp);
    spec.mpi.segment_unpack = false;
    check("RWG-UP segment_unpack off", spec, false);
}

/// APM off, rank 0's port dark for 80 µs from `at_ns`: the queue pair
/// dies and the connection manager re-establishes it.
fn link_fault(scheme: Scheme, at_ns: u64) -> ClusterSpec {
    let mut spec = ib(scheme);
    spec.net.apm_enabled = false;
    spec.faults = FaultPlan {
        seed: 0xAB2E,
        link_faults: vec![LinkFault {
            at_ns,
            node: 0,
            port: 0,
            down_ns: 80_000,
        }],
        ..FaultPlan::none()
    };
    spec
}

fn reconnects(s: &RunStats) -> u64 {
    s.counters.iter().map(|c| c.qp_reestablished).sum()
}

/// RWG-UP resumes from the receiver's acknowledged segment prefix. The
/// fault lands after the first segment of the first message, which is
/// later for the larger mixed struct.
#[test]
fn link_fault_resumes_from_acknowledged_prefix() {
    let specs = [
        link_fault(Scheme::RwgUp, 150_000),
        link_fault(Scheme::RwgUp, 250_000),
    ];
    for s in check_each("RWG-UP link fault", specs, false) {
        let resumed: u64 = s.counters.iter().map(|c| c.resumed_chunks).sum();
        assert!(reconnects(&s) >= 1, "the link fault must force a reconnect");
        assert!(resumed >= 1, "the resume must skip the acknowledged prefix");
    }
}

/// The same fault under every other scheme, each at a time inside its
/// own transfer, `(vector, mixed)`: Generic resumes its one-segment
/// stream, BC-SPUP skips an acknowledged segment, P-RRS re-reads after
/// the receiver's resume request and the sender's re-announce, and
/// Multi-W and Hybrid restart their direct writes.
#[test]
fn link_fault_recovers_every_scheme() {
    for (name, scheme, at) in [
        ("Generic link fault", Scheme::Generic, [100_000, 150_000]),
        ("BC-SPUP link fault", Scheme::BcSpup, [300_000, 300_000]),
        ("P-RRS link fault", Scheme::PRrs, [100_000, 150_000]),
        ("Multi-W link fault", Scheme::MultiW, [150_000, 150_000]),
        ("Hybrid link fault", Scheme::Hybrid, [150_000, 150_000]),
    ] {
        let specs = at.map(|at_ns| link_fault(scheme, at_ns));
        for s in check_each(name, specs, false) {
            assert!(
                reconnects(&s) >= 1,
                "{name}: the link fault must force a reconnect"
            );
        }
    }
}

/// The port goes dark 5 µs in, while rank 0's first control message
/// sits in its send ring: the flushed ring slot is re-posted from the
/// length recorded at send once the connection is re-established.
#[test]
fn link_fault_reposts_flushed_ring_slots() {
    let spec = link_fault(Scheme::BcSpup, 5_000);
    for s in check("BC-SPUP ring re-post", spec, false) {
        assert!(reconnects(&s) >= 1, "the link fault must force a reconnect");
    }
}

/// Forced pin-down evictions under zero-copy replies: the remote
/// protection fault renegotiates each message down to BC-SPUP.
#[test]
fn evictions_renegotiate_to_copy() {
    for (name, scheme) in [
        ("Multi-W evict", Scheme::MultiW),
        ("Hybrid evict", Scheme::Hybrid),
    ] {
        let mut spec = ib(scheme);
        spec.faults = FaultPlan {
            seed: 0xAB4E,
            evict_rate: 1.0,
            ..FaultPlan::none()
        };
        let [_, mixed] = check(name, spec, false);
        // The vector type's 128-byte blocks all travel packed under
        // Hybrid, so only the mixed struct pins user memory for sure.
        let renegotiated: u64 = mixed.counters.iter().map(|c| c.protection_fallbacks).sum();
        assert!(renegotiated >= 1, "evictions must renegotiate");
    }
}

/// Recorded fingerprints of the sender-side refusal cases: one row per
/// way the pinning budget turns a sender's zero-copy preparation down
/// while the receiver's side of the same message is granted.
#[rustfmt::skip]
const REFUSALS: &[(&str, Fingerprint)] = &[
    ("RWG-UP refused", fp([128746, 162224], 0x367682a7e87a132d, 4, 65625, 16, 0x20ae4b8ffab24cdd)),
    ("Multi-W refused", fp([217782, 216282], 0xe9caf27570ab7c0f, 3, 65689, 12, 0x20ae4b8ffab24cdd)),
    ("P-RRS contiguous refused", fp([306035, 302074], 0x7da632385e68d9c2, 18, 131344, 41, 0x7fa135eccb037d4d)),
    ("Hybrid refused", fp([156534, 190012], 0x946b555b8c112c73, 6, 65790, 21, 0x20ae4b8ffab24cdd)),
    ("Adaptive prediction refused", fp([155756, 154256], 0xbadfed507f6e6aae, 4, 65689, 14, 0x20ae4b8ffab24cdd)),
];

/// One rendezvous message from rank 0 to rank 1 per `(sender type,
/// receiver type)` pair, posted in order. Rank 0 receives the messages
/// whose `from` is 1; `delay_ns` of compute precede every send of rank
/// 0 after its first operation.
fn run_refusal(
    spec: ClusterSpec,
    msgs: &[(u32, Datatype, Datatype)],
    delay_ns: u64,
) -> (RunStats, Fingerprint) {
    let mut cluster = Cluster::new(spec);
    let mut progs = [Vec::new(), Vec::new()];
    let mut windows = Vec::new();
    for (tag, (from, snd, rcv)) in msgs.iter().enumerate() {
        let (from, to) = (*from, 1 - *from);
        let sbuf = cluster.alloc(from, snd.true_ub() as u64 + 64, 4096);
        let rspan = rcv.true_ub() as u64 + 64;
        let rbuf = cluster.alloc(to, rspan, 4096);
        cluster.fill_pattern(from, sbuf, snd.true_ub() as u64 + 64, 21 + tag as u64);
        cluster.fill_pattern(to, rbuf, rspan, 41 + tag as u64);
        if from == 0 && !progs[0].is_empty() && delay_ns > 0 {
            progs[0].push(AppOp::Compute { ns: delay_ns });
        }
        let tag = tag as u32;
        progs[from as usize].push(AppOp::Isend {
            peer: to,
            buf: sbuf,
            count: 1,
            ty: snd.clone(),
            tag,
        });
        progs[to as usize].push(AppOp::Irecv {
            peer: from,
            buf: rbuf,
            count: 1,
            ty: rcv.clone(),
            tag,
        });
        windows.push((to, rbuf, rspan));
    }
    for p in &mut progs {
        p.push(AppOp::WaitAll);
    }
    let stats = cluster.run(progs.into());
    let received: Vec<Vec<u8>> = windows
        .iter()
        .map(|&(r, buf, span)| cluster.read_mem(r, buf, span))
        .collect();
    let fp = fingerprint(&stats, &received);
    (stats, fp)
}

/// Runs `msgs` under `spec` and compares the fingerprint against the
/// case's row of `rows`.
fn check_row(
    rows: &[(&str, Fingerprint)],
    name: &str,
    spec: ClusterSpec,
    msgs: &[(u32, Datatype, Datatype)],
    delay_ns: u64,
) -> RunStats {
    let want = rows
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("no golden row for {name}"))
        .1;
    let (stats, got) = run_refusal(spec, msgs, delay_ns);
    assert_eq!(
        got,
        want,
        "{name}: protocol fingerprint moved; observed:\n    ({name:?}, {}),",
        literal(&got)
    );
    stats
}

/// Runs a refusal case and compares it against its [`REFUSALS`] row;
/// the sender (rank 0) must have counted the fallback.
fn check_refusal(
    name: &str,
    mut spec: ClusterSpec,
    budget: u64,
    msgs: &[(u32, Datatype, Datatype)],
    delay_ns: u64,
) {
    spec.mpi.reg_budget_bytes = budget;
    let stats = check_row(REFUSALS, name, spec, msgs, delay_ns);
    assert!(
        stats.counters[0].scheme_fallbacks > 0,
        "{name}: the sender must fall back"
    );
}

/// `n` blocks of `len` bytes every `stride` bytes.
fn strided(n: u64, len: u64, stride: i64) -> Datatype {
    Datatype::hvector(n, len, stride, &Datatype::byte()).unwrap()
}

fn contiguous(len: u64) -> Datatype {
    Datatype::contiguous(len, &Datatype::byte()).unwrap()
}

/// The pinning budget refuses the sender's preparation while the
/// receiver pins: the sender's strided blocks merge into a region about
/// twice (2 KiB stride) or four times (4 KiB stride) the 64 KiB a
/// contiguous receiver pins.
#[test]
fn sender_refusals_degrade_each_scheme() {
    let (half, quarter, flat) = (
        strided(64, 1024, 2048),
        strided(64, 1024, 4096),
        contiguous(64 * 1024),
    );
    // RWG-UP gathers from the user buffer; refused, it packs into the
    // receiver's segments as BC-SPUP.
    let one = [(0, half.clone(), flat.clone())];
    check_refusal("RWG-UP refused", ib(Scheme::RwgUp), 96 << 10, &one, 0);
    // Hybrid renegotiates the whole message as BC-SPUP.
    check_refusal("Hybrid refused", ib(Scheme::Hybrid), 96 << 10, &one, 0);
    // Multi-W's receiver pins twice its 64 KiB; the sender stages the
    // whole message through one copy buffer.
    let one = [(0, quarter, flat.clone())];
    check_refusal("Multi-W refused", ib(Scheme::MultiW), 128 << 10, &one, 0);
    // Adaptive predicts Multi-W from the sender's 1 KiB blocks, is
    // refused at send time and pre-packs into pool segments, which the
    // staged Multi-W reply then consumes.
    let adaptive = ib(Scheme::Adaptive);
    check_refusal("Adaptive prediction refused", adaptive, 128 << 10, &one, 0);
    // A contiguous P-RRS sender cannot pin while its own P-RRS receive
    // (from rank 1) holds 64 KiB, so it announces packed segments. The
    // receive types are two 32 KiB blocks 1 MiB apart, which OGR pins
    // separately: 64 KiB per receive.
    let apart = strided(2, 32 << 10, 1 << 20);
    let two = [(1, half, apart.clone()), (0, flat, apart)];
    check_refusal(
        "P-RRS contiguous refused",
        ib(Scheme::PRrs),
        96 << 10,
        &two,
        10_000,
    );
}

/// Recorded fingerprints of a link fault under the two sender layouts
/// that no case above resumes: Multi-W writing into the receiver's
/// blocks from its staged copy after the pinning budget refused its
/// pin, and P-RRS announcing a contiguous sender's buffer.
#[rustfmt::skip]
const LAYOUT_FAULTS: &[(&str, Fingerprint)] = &[
    ("Multi-W staged link fault", fp([338257, 336757], 0xb36633f9dd60b422, 6, 131248, 21, 0x20ae4b8ffab24cdd)),
    ("P-RRS contiguous link fault", fp([263640, 259679], 0xd578e702f4a67c9a, 14, 65747, 32, 0x98e2075502d56cdd)),
];

/// Rank 0's port goes dark while its staged Multi-W write list is out,
/// or while the reads of its contiguous P-RRS receiver are still in that
/// receiver's send queue: the staged sender restarts its write list
/// from the copy buffer, and the contiguous sender re-announces its
/// buffer when the recovering reader asks.
#[test]
fn link_fault_resumes_staged_and_contiguous_senders() {
    let (quarter, flat) = (strided(64, 1024, 4096), contiguous(64 * 1024));
    let mut spec = link_fault(Scheme::MultiW, 150_000);
    spec.mpi.reg_budget_bytes = 128 << 10;
    let one = [(0, quarter, flat.clone())];
    let s = check_row(LAYOUT_FAULTS, "Multi-W staged link fault", spec, &one, 0);
    assert!(s.counters[0].scheme_fallbacks > 0, "the sender must stage");
    assert!(reconnects(&s) >= 1, "the link fault must force a reconnect");
    let apart = strided(2, 32 << 10, 1 << 20);
    let spec = link_fault(Scheme::PRrs, 63_000);
    let one = [(0, flat, apart)];
    let s = check_row(LAYOUT_FAULTS, "P-RRS contiguous link fault", spec, &one, 0);
    assert!(reconnects(&s) >= 1, "the link fault must force a reconnect");
}
