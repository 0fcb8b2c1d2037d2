//! Observational equivalence of the [`Transport`]-trait surface
//! against the inherent [`Fabric`] methods.
//!
//! The trait refactor must be invisible: `mpicore` now drives the IB
//! fabric through `&mut dyn Transport`, and every committed result
//! depends on that detour changing nothing. This suite runs randomized
//! verb scripts — posted receives, channel sends, RDMA writes (plain
//! and with immediate), RDMA reads, deliberate rkey violations,
//! capacity overruns and multi-SGE gathers — through two identical
//! fabrics, one via the inherent methods and one via the trait object,
//! and asserts the *observables* agree exactly: the full time-stamped
//! completion log, post-time errors, aggregate and per-node stats, CQ
//! high-water marks, receive-queue depths, transmit-engine busy time,
//! and the final bytes in every node's memory.
//!
//! The last test holds the transports to one answer where they share
//! the delivery core: a send into a too-small receive descriptor.

use ibdt_ibsim::{
    Cqe, CqeStatus, Fabric, NetConfig, NicEvent, NodeMem, Opcode, PostError, RecvWr, SendWr, Sge,
    ShmChannel, ShmConfig, ShmCopyMode, Transport, TransportClass,
};
use ibdt_simcore::engine::{Engine, Scheduler, World};
use ibdt_simcore::time::Time;
use ibdt_testkit::{cases, Rng};

const N: usize = 3;
const MEM: u64 = 1 << 20;

/// How the harness reaches the fabric: directly, or through the same
/// `&mut dyn Transport` vtable `mpicore` uses.
#[derive(Clone, Copy, PartialEq)]
enum Via {
    Inherent,
    Trait,
}

struct Harness {
    fabric: Fabric,
    mems: Vec<NodeMem>,
    log: Vec<(Time, u32, Cqe)>,
    via: Via,
}

impl World for Harness {
    type Event = NicEvent;
    fn handle(&mut self, sched: &mut Scheduler<'_, NicEvent>, ev: NicEvent) {
        let now = sched.now();
        let mut done = Vec::new();
        match self.via {
            Via::Inherent => self.fabric.handle(
                now,
                ev,
                &mut self.mems,
                &mut |t, e| sched.at(t, e),
                &mut done,
            ),
            Via::Trait => {
                let t: &mut dyn Transport = &mut self.fabric;
                t.handle(
                    now,
                    ev,
                    &mut self.mems,
                    &mut |t, e| sched.at(t, e),
                    &mut done,
                );
            }
        }
        for (node, cqe) in done {
            self.log.push((now, node, cqe));
        }
    }
}

impl Harness {
    fn new(via: Via) -> Self {
        Harness {
            fabric: Fabric::new(N, NetConfig::default()),
            mems: (0..N).map(|_| NodeMem::new(MEM)).collect(),
            log: Vec::new(),
            via,
        }
    }

    fn post_send(
        &mut self,
        at: Time,
        node: u32,
        peer: u32,
        wr: SendWr,
        sink: &mut Vec<(Time, NicEvent)>,
    ) -> Result<(), PostError> {
        match self.via {
            Via::Inherent => self
                .fabric
                .post_send(at, node, peer, wr, &self.mems, &mut |t, e| {
                    sink.push((t, e))
                }),
            Via::Trait => {
                let t: &mut dyn Transport = &mut self.fabric;
                t.post_send(at, node, peer, wr, &self.mems, &mut |t, e| {
                    sink.push((t, e))
                })
            }
        }
    }

    fn post_recv(
        &mut self,
        at: Time,
        node: u32,
        peer: u32,
        wr: RecvWr,
        sink: &mut Vec<(Time, NicEvent)>,
    ) -> Result<(), PostError> {
        match self.via {
            Via::Inherent => self
                .fabric
                .post_recv(at, node, peer, wr, &self.mems, &mut |t, e| {
                    sink.push((t, e))
                }),
            Via::Trait => {
                let t: &mut dyn Transport = &mut self.fabric;
                t.post_recv(at, node, peer, wr, &self.mems, &mut |t, e| {
                    sink.push((t, e))
                })
            }
        }
    }
}

/// One registered window per (node, role): sends and writes gather
/// from `src`, which reads also read from; receives and writes land in
/// `dst`, reads in `rd`. Nothing writes a window another transfer reads
/// from, as the verbs contract requires of a posted buffer.
struct Bufs {
    src: Vec<(u64, u32, u32)>, // (addr, lkey, rkey)
    dst: Vec<(u64, u32, u32)>,
    rd: Vec<(u64, u32)>,
}

fn setup_bufs(h: &mut Harness) -> Bufs {
    let mut src = Vec::new();
    let mut dst = Vec::new();
    let mut rd = Vec::new();
    for node in 0..N {
        let s = h.mems[node].space.alloc_page_aligned(32 << 10).unwrap();
        for i in 0..(32 << 10) / 8u64 {
            h.mems[node]
                .space
                .write(s + i * 8, &(node as u64 ^ i).to_le_bytes())
                .unwrap();
        }
        let sreg = h.mems[node].regs.register(s, 32 << 10);
        let d = h.mems[node].space.alloc_page_aligned(32 << 10).unwrap();
        let dreg = h.mems[node].regs.register(d, 32 << 10);
        let r = h.mems[node].space.alloc_page_aligned(32 << 10).unwrap();
        let rreg = h.mems[node].regs.register(r, 32 << 10);
        src.push((s, sreg.lkey, sreg.rkey));
        dst.push((d, dreg.lkey, dreg.rkey));
        rd.push((r, rreg.lkey));
    }
    Bufs { src, dst, rd }
}

/// Generates one randomized verb script as a list of closures applied
/// identically to both harnesses. Returns the number of post errors
/// observed (must match across harnesses too).
fn run_script(seed: u64, via: Via) -> (Harness, Vec<Time>, u64) {
    let mut rng = Rng::new(seed);
    let mut h = Harness::new(via);
    let bufs = setup_bufs(&mut h);
    let mut eng: Engine<Harness> = Engine::new();
    let mut seeded: Vec<(Time, NicEvent)> = Vec::new();
    let mut post_errors = 0u64;
    let mut t: Time = 0;
    let mut wr_id = 0u64;

    for _round in 0..8 {
        t = t.max(eng.now()) + 50_000;
        // A few receives on random directed pairs.
        for _ in 0..rng.range_usize(1, 4) {
            let node = rng.range_u64(0, N as u64) as u32;
            let peer = (node + rng.range_u64(1, N as u64) as u32) % N as u32;
            let (d, lkey, _) = bufs.dst[node as usize];
            wr_id += 1;
            let cap = rng.pick(&[256u64, 1024, 8192]);
            let wr = RecvWr {
                wr_id,
                sges: vec![Sge {
                    addr: d,
                    len: cap,
                    lkey,
                }]
                .into(),
            };
            let _ = h.post_recv(t, node, peer, wr, &mut seeded);
        }
        // A few sends with a mix of opcodes, sizes, and bad keys.
        for _ in 0..rng.range_usize(1, 5) {
            let node = rng.range_u64(0, N as u64) as u32;
            let peer = (node + rng.range_u64(1, N as u64) as u32) % N as u32;
            let len = rng.pick(&[64u64, 512, 2048, 16384]);
            let bad_rkey = rng.chance(0.15);
            wr_id += 1;
            let opcode = match rng.range_usize(0, 4) {
                0 => Opcode::Send,
                1 => Opcode::RdmaWrite,
                2 => Opcode::RdmaWriteImm(wr_id as u32),
                _ => Opcode::RdmaRead,
            };
            // A read gathers from the peer's source window into `rd`.
            let ((s, slkey), (d, rkey)) = if opcode == Opcode::RdmaRead {
                let (ps, _, prkey) = bufs.src[peer as usize];
                (bufs.rd[node as usize], (ps, prkey))
            } else {
                let (s, slkey, _) = bufs.src[node as usize];
                let (d, _, drkey) = bufs.dst[peer as usize];
                ((s, slkey), (d, drkey))
            };
            let rkey = if bad_rkey { 0xdead } else { rkey };
            let sges = if rng.chance(0.2) && len >= 128 {
                vec![
                    Sge {
                        addr: s,
                        len: len / 2,
                        lkey: slkey,
                    },
                    Sge {
                        addr: s + len / 2,
                        len: len - len / 2,
                        lkey: slkey,
                    },
                ]
            } else {
                vec![Sge {
                    addr: s,
                    len,
                    lkey: slkey,
                }]
            };
            let wr = SendWr {
                wr_id,
                opcode,
                sges: sges.into(),
                remote: Some((d, rkey)),
                signaled: true,
            };
            if h.post_send(t, node, peer, wr, &mut seeded).is_err() {
                post_errors += 1;
            }
        }
        // Drain this round before the next (matches how the progress
        // engine alternates posting and event handling).
        for (at, ev) in seeded.drain(..) {
            eng.seed(at, ev);
        }
        eng.run_to_quiescence(&mut h, 1_000_000);
    }

    // Snapshot every node's memory for the final comparison.
    let mut mem_sums = Vec::new();
    for (node, addr) in (0..N).flat_map(|n| [(n, bufs.dst[n].0), (n, bufs.rd[n].0)]) {
        let bytes = h.mems[node].space.read(addr, 32 << 10).unwrap();
        let sum: u64 = bytes
            .iter()
            .enumerate()
            .map(|(i, b)| (*b as u64).wrapping_mul(i as u64 + 1))
            .fold(0u64, |a, x| a.wrapping_add(x));
        mem_sums.push(sum as Time);
    }
    (h, mem_sums, post_errors)
}

#[test]
fn trait_dispatch_is_observationally_equivalent() {
    cases(0x7EA17, 32, |rng: &mut Rng| {
        let seed = rng.next_u64();
        let (a, mem_a, err_a) = run_script(seed, Via::Inherent);
        let (b, mem_b, err_b) = run_script(seed, Via::Trait);

        assert_eq!(a.log, b.log, "completion logs diverge (seed {seed:#x})");
        assert_eq!(err_a, err_b, "post errors diverge (seed {seed:#x})");
        assert_eq!(mem_a, mem_b, "final memory diverges (seed {seed:#x})");
        assert_eq!(a.fabric.stats(), b.fabric.stats(), "stats (seed {seed:#x})");
        assert_eq!(
            a.fabric.node_stats(),
            b.fabric.node_stats(),
            "node stats (seed {seed:#x})"
        );
        for node in 0..N as u32 {
            assert_eq!(a.fabric.cq_peak(node), b.fabric.cq_peak(node));
            assert_eq!(
                a.fabric.tx_engine(node).total_busy(),
                b.fabric.tx_engine(node).total_busy()
            );
            assert_eq!(
                a.fabric.tx_engine(node).jobs(),
                b.fabric.tx_engine(node).jobs()
            );
            for peer in 0..N as u32 {
                if peer != node {
                    assert_eq!(
                        a.fabric.recvq_len(node, peer),
                        b.fabric.recvq_len(node, peer)
                    );
                    assert_eq!(
                        a.fabric.qp_errored(node, peer),
                        b.fabric.qp_errored(node, peer)
                    );
                }
            }
        }
    });
}

#[test]
fn trait_reports_ib_class_and_inert_faults() {
    let mut f = Fabric::new(2, NetConfig::default());
    let t: &mut dyn Transport = &mut f;
    assert_eq!(t.class(), TransportClass::Ib);
    assert!(!t.faults_active());
    assert!(t.fault_plan().is_none());
    assert!(t.fault_events().is_empty());
    assert!(!t.node_down(0));
    assert!(t.node_will_restart(1));
}

/// Drives any backend through the trait object, logging completions.
struct AnyHarness {
    t: Box<dyn Transport>,
    mems: Vec<NodeMem>,
    log: Vec<(u32, Cqe)>,
}

impl World for AnyHarness {
    type Event = NicEvent;
    fn handle(&mut self, sched: &mut Scheduler<'_, NicEvent>, ev: NicEvent) {
        let mut done = Vec::new();
        let now = sched.now();
        self.t.handle(
            now,
            ev,
            &mut self.mems,
            &mut |t, e| sched.at(t, e),
            &mut done,
        );
        self.log.extend(done);
    }
}

/// A 128-byte signaled send into a 64-byte receive descriptor. The
/// shared delivery core refuses it the same way on every transport:
/// the receiver gets `LocalLengthError` and nothing is placed. The
/// sender gets `RemoteAccess` on IB and on shm single copy, whose
/// senders wait for delivery. On shm double copy the sender already
/// completed with `Success` when its bytes entered the bounce segment,
/// so delivery owes it nothing further.
#[test]
fn too_small_descriptor_fails_alike_on_every_transport() {
    let shm = |copy_mode| {
        Box::new(ShmChannel::new(
            2,
            ShmConfig {
                copy_mode,
                ..ShmConfig::default()
            },
        )) as Box<dyn Transport>
    };
    let cases: [(&str, Box<dyn Transport>, bool); 3] = [
        ("ib", Box::new(Fabric::new(2, NetConfig::default())), false),
        ("shm-single", shm(ShmCopyMode::Single), false),
        ("shm-double", shm(ShmCopyMode::Double), true),
    ];
    for (name, t, sender_ok) in cases {
        let mut h = AnyHarness {
            t,
            mems: (0..2).map(|_| NodeMem::new(MEM)).collect(),
            log: Vec::new(),
        };
        let src = h.mems[0].space.alloc_page_aligned(4096).unwrap();
        h.mems[0].space.fill(src, 128, 0xAB).unwrap();
        let slkey = h.mems[0].regs.register(src, 4096).lkey;
        let dst = h.mems[1].space.alloc_page_aligned(4096).unwrap();
        let dlkey = h.mems[1].regs.register(dst, 4096).lkey;
        let mut evs = Vec::new();
        let recv = RecvWr {
            wr_id: 7,
            sges: vec![Sge {
                addr: dst,
                len: 64,
                lkey: dlkey,
            }]
            .into(),
        };
        h.t.post_recv(0, 1, 0, recv, &h.mems, &mut |t, e| evs.push((t, e)))
            .unwrap();
        let send = SendWr {
            wr_id: 9,
            opcode: Opcode::Send,
            sges: vec![Sge {
                addr: src,
                len: 128,
                lkey: slkey,
            }]
            .into(),
            remote: None,
            signaled: true,
        };
        h.t.post_send(0, 0, 1, send, &h.mems, &mut |t, e| evs.push((t, e)))
            .unwrap();
        let mut eng: Engine<AnyHarness> = Engine::new();
        for (at, ev) in evs {
            eng.seed(at, ev);
        }
        eng.run_to_quiescence(&mut h, 1_000);

        let at = |node: u32| -> Vec<Cqe> {
            h.log
                .iter()
                .filter(|(n, _)| *n == node)
                .map(|&(_, c)| c)
                .collect()
        };
        let recv = at(1);
        assert_eq!(recv.len(), 1, "{name}: receiver completions {recv:?}");
        assert!(recv[0].is_recv && recv[0].wr_id == 7, "{name}: {recv:?}");
        assert_eq!(
            recv[0].status,
            CqeStatus::LocalLengthError {
                sent: 128,
                capacity: 64
            },
            "{name}"
        );
        let send = at(0);
        assert_eq!(send.len(), 1, "{name}: sender completions {send:?}");
        assert_eq!(send[0].wr_id, 9, "{name}");
        if sender_ok {
            assert_eq!(send[0].status, CqeStatus::Success, "{name}");
        } else {
            assert!(
                matches!(send[0].status, CqeStatus::RemoteAccess(_)),
                "{name}: {:?}",
                send[0].status
            );
        }
        assert!(
            h.mems[1]
                .space
                .slice(dst, 64)
                .unwrap()
                .iter()
                .all(|&b| b == 0),
            "{name}: a refused send places nothing"
        );
    }
}

/// A signaled RDMA write to an unregistered rkey completes its sender
/// exactly once, with `RemoteAccess`, on every transport, and places
/// nothing. Shared memory checks the key at post: its senders would
/// otherwise complete `Success` when the bytes leave, then again with
/// the error at delivery.
#[test]
fn bad_rkey_write_completes_once_on_every_transport() {
    let shm = |copy_mode| {
        Box::new(ShmChannel::new(
            2,
            ShmConfig {
                copy_mode,
                ..ShmConfig::default()
            },
        )) as Box<dyn Transport>
    };
    let cases: [(&str, Box<dyn Transport>); 3] = [
        ("ib", Box::new(Fabric::new(2, NetConfig::default()))),
        ("shm-single", shm(ShmCopyMode::Single)),
        ("shm-double", shm(ShmCopyMode::Double)),
    ];
    for (name, t) in cases {
        let mut h = AnyHarness {
            t,
            mems: (0..2).map(|_| NodeMem::new(MEM)).collect(),
            log: Vec::new(),
        };
        let src = h.mems[0].space.alloc_page_aligned(4096).unwrap();
        h.mems[0].space.fill(src, 128, 0xAB).unwrap();
        let slkey = h.mems[0].regs.register(src, 4096).lkey;
        let dst = h.mems[1].space.alloc_page_aligned(4096).unwrap();
        h.mems[1].regs.register(dst, 4096);
        let write = SendWr {
            wr_id: 9,
            opcode: Opcode::RdmaWrite,
            sges: vec![Sge {
                addr: src,
                len: 128,
                lkey: slkey,
            }]
            .into(),
            remote: Some((dst, 0xdead)),
            signaled: true,
        };
        let mut evs = Vec::new();
        h.t.post_send(0, 0, 1, write, &h.mems, &mut |t, e| evs.push((t, e)))
            .unwrap();
        let mut eng: Engine<AnyHarness> = Engine::new();
        for (at, ev) in evs {
            eng.seed(at, ev);
        }
        eng.run_to_quiescence(&mut h, 1_000);

        let done: Vec<Cqe> = h.log.iter().map(|&(_, c)| c).collect();
        assert_eq!(done.len(), 1, "{name}: completions {:?}", h.log);
        assert_eq!((h.log[0].0, done[0].wr_id), (0, 9), "{name}");
        assert!(
            matches!(done[0].status, CqeStatus::RemoteAccess(_)),
            "{name}: {:?}",
            done[0].status
        );
        assert!(
            h.mems[1]
                .space
                .slice(dst, 128)
                .unwrap()
                .iter()
                .all(|&b| b == 0),
            "{name}: a refused write places nothing"
        );
        assert_eq!(h.t.in_flight(), 0, "{name}");
    }
}
