//! Integration tests driving the verbs simulator through the DES engine.

use ibdt_ibsim::{
    Cqe, CqeStatus, Fabric, NetConfig, NicEvent, NodeMem, Opcode, PostError, RecvWr, SendWr, Sge,
    Transport,
};
use ibdt_simcore::engine::{Engine, Scheduler, World};
use ibdt_simcore::time::Time;

struct Harness {
    fabric: Fabric,
    mems: Vec<NodeMem>,
    log: Vec<(Time, u32, Cqe)>,
}

impl World for Harness {
    type Event = NicEvent;
    fn handle(&mut self, sched: &mut Scheduler<'_, NicEvent>, ev: NicEvent) {
        let now = sched.now();
        let mut done = Vec::new();
        self.fabric.handle(
            now,
            ev,
            &mut self.mems,
            &mut |t, e| sched.at(t, e),
            &mut done,
        );
        for (node, cqe) in done {
            self.log.push((now, node, cqe));
        }
    }
}

fn harness(n: usize) -> Harness {
    Harness {
        fabric: Fabric::new(n, NetConfig::default()),
        mems: (0..n).map(|_| NodeMem::new(1 << 22)).collect(),
        log: Vec::new(),
    }
}

/// Runs the pending events to quiescence.
fn run(h: &mut Harness, eng: &mut Engine<Harness>) {
    eng.run_to_quiescence(h, 1_000_000);
}

fn reg_buf(h: &mut Harness, node: usize, len: u64, fill: Option<u8>) -> (u64, u32) {
    let addr = h.mems[node].space.alloc_page_aligned(len).unwrap();
    if let Some(b) = fill {
        h.mems[node].space.fill(addr, len, b).unwrap();
    }
    let reg = h.mems[node].regs.register(addr, len);
    (addr, reg.lkey)
}

#[test]
fn send_recv_moves_data() {
    let mut h = harness(2);
    let mut eng = Engine::new();
    let (src, src_key) = reg_buf(&mut h, 0, 4096, Some(0x5A));
    let (dst, dst_key) = reg_buf(&mut h, 1, 4096, Some(0x00));

    let mut sink_events = Vec::new();
    h.fabric
        .post_recv(
            0,
            1,
            0,
            RecvWr {
                wr_id: 7,
                sges: vec![Sge {
                    addr: dst,
                    len: 4096,
                    lkey: dst_key,
                }]
                .into(),
            },
            &h.mems,
            &mut |t, e| sink_events.push((t, e)),
        )
        .unwrap();
    h.fabric
        .post_send(
            100,
            0,
            1,
            SendWr {
                wr_id: 42,
                opcode: Opcode::Send,
                sges: vec![Sge {
                    addr: src,
                    len: 4096,
                    lkey: src_key,
                }]
                .into(),
                remote: None,
                signaled: true,
            },
            &h.mems,
            &mut |t, e| sink_events.push((t, e)),
        )
        .unwrap();
    for (t, e) in sink_events {
        eng.seed(t, e);
    }
    run(&mut h, &mut eng);

    assert_eq!(h.mems[1].space.read(dst, 4096).unwrap(), vec![0x5A; 4096]);
    // Receiver got a recv completion, sender a send completion.
    let recv = h.log.iter().find(|(_, n, c)| *n == 1 && c.is_recv).unwrap();
    assert_eq!(recv.2.wr_id, 7);
    assert_eq!(recv.2.byte_len, 4096);
    assert!(recv.2.status.is_ok());
    let send = h
        .log
        .iter()
        .find(|(_, n, c)| *n == 0 && !c.is_recv)
        .unwrap();
    assert_eq!(send.2.wr_id, 42);
    // Sender completion is after receiver delivery (ACK round trip).
    assert!(send.0 > recv.0);
    assert_eq!(h.fabric.stats().rnr_events, 0);
}

#[test]
fn send_without_recv_parks_until_posted() {
    let mut h = harness(2);
    let mut eng = Engine::new();
    let (src, src_key) = reg_buf(&mut h, 0, 64, Some(9));
    let (dst, dst_key) = reg_buf(&mut h, 1, 64, None);

    let mut evs = Vec::new();
    h.fabric
        .post_send(
            0,
            0,
            1,
            SendWr {
                wr_id: 1,
                opcode: Opcode::Send,
                sges: vec![Sge {
                    addr: src,
                    len: 64,
                    lkey: src_key,
                }]
                .into(),
                remote: None,
                signaled: true,
            },
            &h.mems,
            &mut |t, e| evs.push((t, e)),
        )
        .unwrap();
    for (t, e) in evs {
        eng.seed(t, e);
    }
    run(&mut h, &mut eng);
    // Parked: nothing delivered yet.
    assert!(h.log.is_empty());
    assert_eq!(h.fabric.stats().rnr_events, 1);
    assert_eq!(h.mems[1].space.read(dst, 64).unwrap(), vec![0; 64]);

    // Post the receive much later; the parked send completes.
    let now = eng.now() + 10_000;
    let mut evs = Vec::new();
    h.fabric
        .post_recv(
            now,
            1,
            0,
            RecvWr {
                wr_id: 2,
                sges: vec![Sge {
                    addr: dst,
                    len: 64,
                    lkey: dst_key,
                }]
                .into(),
            },
            &h.mems,
            &mut |t, e| evs.push((t, e)),
        )
        .unwrap();
    for (t, e) in evs {
        eng.seed(t, e);
    }
    run(&mut h, &mut eng);
    assert_eq!(h.mems[1].space.read(dst, 64).unwrap(), vec![9; 64]);
    assert_eq!(
        h.log
            .iter()
            .filter(|(_, n, c)| *n == 1 && c.is_recv)
            .count(),
        1
    );
}

#[test]
fn rdma_write_places_data_without_recv() {
    let mut h = harness(2);
    let mut eng = Engine::new();
    let (src, src_key) = reg_buf(&mut h, 0, 1024, Some(0xAB));
    let (dst, _) = reg_buf(&mut h, 1, 1024, None);
    let rkey = h.mems[1].regs.covering(dst, 1024).unwrap().rkey;

    let mut evs = Vec::new();
    h.fabric
        .post_send(
            0,
            0,
            1,
            SendWr {
                wr_id: 5,
                opcode: Opcode::RdmaWrite,
                sges: vec![Sge {
                    addr: src,
                    len: 1024,
                    lkey: src_key,
                }]
                .into(),
                remote: Some((dst, rkey)),
                signaled: true,
            },
            &h.mems,
            &mut |t, e| evs.push((t, e)),
        )
        .unwrap();
    for (t, e) in evs {
        eng.seed(t, e);
    }
    run(&mut h, &mut eng);
    assert_eq!(h.mems[1].space.read(dst, 1024).unwrap(), vec![0xAB; 1024]);
    // Only a local completion; no recv consumed, no recv CQE.
    assert_eq!(h.log.len(), 1);
    assert!(!h.log[0].2.is_recv);
    assert!(h.log[0].2.status.is_ok());
}

#[test]
fn rdma_write_gather_concatenates_blocks() {
    let mut h = harness(2);
    let mut eng = Engine::new();
    // Source: whole region registered once; gather three noncontiguous
    // pieces.
    let (src, src_key) = reg_buf(&mut h, 0, 4096, None);
    for (i, fill) in [(0u64, 1u8), (1000, 2), (2000, 3)] {
        h.mems[0].space.fill(src + i, 16, fill).unwrap();
    }
    let (dst, _) = reg_buf(&mut h, 1, 4096, None);
    let rkey = h.mems[1].regs.covering(dst, 48).unwrap().rkey;

    let mut evs = Vec::new();
    h.fabric
        .post_send(
            0,
            0,
            1,
            SendWr {
                wr_id: 9,
                opcode: Opcode::RdmaWrite,
                sges: vec![
                    Sge {
                        addr: src,
                        len: 16,
                        lkey: src_key,
                    },
                    Sge {
                        addr: src + 1000,
                        len: 16,
                        lkey: src_key,
                    },
                    Sge {
                        addr: src + 2000,
                        len: 16,
                        lkey: src_key,
                    },
                ]
                .into(),
                remote: Some((dst, rkey)),
                signaled: false,
            },
            &h.mems,
            &mut |t, e| evs.push((t, e)),
        )
        .unwrap();
    for (t, e) in evs {
        eng.seed(t, e);
    }
    run(&mut h, &mut eng);
    let mut expect = vec![1u8; 16];
    expect.extend(vec![2u8; 16]);
    expect.extend(vec![3u8; 16]);
    assert_eq!(h.mems[1].space.read(dst, 48).unwrap(), expect);
    assert!(h.log.is_empty(), "unsignaled write produces no CQE");
}

#[test]
fn write_with_immediate_notifies_receiver() {
    let mut h = harness(2);
    let mut eng = Engine::new();
    let (src, src_key) = reg_buf(&mut h, 0, 128, Some(7));
    let (dst, dst_key) = reg_buf(&mut h, 1, 128, None);
    let rkey = h.mems[1].regs.covering(dst, 128).unwrap().rkey;

    let mut evs = Vec::new();
    // Immediate consumes a receive descriptor (buffers unused).
    h.fabric
        .post_recv(
            0,
            1,
            0,
            RecvWr {
                wr_id: 70,
                sges: vec![Sge {
                    addr: dst,
                    len: 0,
                    lkey: dst_key,
                }]
                .into(),
            },
            &h.mems,
            &mut |t, e| evs.push((t, e)),
        )
        .unwrap();
    h.fabric
        .post_send(
            0,
            0,
            1,
            SendWr {
                wr_id: 71,
                opcode: Opcode::RdmaWriteImm(0xBEEF),
                sges: vec![Sge {
                    addr: src,
                    len: 128,
                    lkey: src_key,
                }]
                .into(),
                remote: Some((dst, rkey)),
                signaled: false,
            },
            &h.mems,
            &mut |t, e| evs.push((t, e)),
        )
        .unwrap();
    for (t, e) in evs {
        eng.seed(t, e);
    }
    run(&mut h, &mut eng);
    assert_eq!(h.mems[1].space.read(dst, 128).unwrap(), vec![7; 128]);
    let recv = h.log.iter().find(|(_, n, c)| *n == 1 && c.is_recv).unwrap();
    assert_eq!(recv.2.imm, Some(0xBEEF));
    assert_eq!(recv.2.wr_id, 70);
    assert_eq!(recv.2.byte_len, 128);
}

#[test]
fn bad_rkey_is_a_remote_access_error() {
    let mut h = harness(2);
    let mut eng = Engine::new();
    let (src, src_key) = reg_buf(&mut h, 0, 64, Some(1));
    let (dst, _) = reg_buf(&mut h, 1, 64, None);

    let mut evs = Vec::new();
    h.fabric
        .post_send(
            0,
            0,
            1,
            SendWr {
                wr_id: 3,
                opcode: Opcode::RdmaWrite,
                sges: vec![Sge {
                    addr: src,
                    len: 64,
                    lkey: src_key,
                }]
                .into(),
                remote: Some((dst, 0xDEAD)),
                signaled: true,
            },
            &h.mems,
            &mut |t, e| evs.push((t, e)),
        )
        .unwrap();
    for (t, e) in evs {
        eng.seed(t, e);
    }
    run(&mut h, &mut eng);
    assert_eq!(
        h.mems[1].space.read(dst, 64).unwrap(),
        vec![0; 64],
        "no data placed"
    );
    assert_eq!(h.log.len(), 1);
    assert!(matches!(h.log[0].2.status, CqeStatus::RemoteAccess(_)));
}

#[test]
fn rdma_read_scatters_remote_data() {
    let mut h = harness(2);
    let mut eng = Engine::new();
    // Node 1 holds the data; node 0 reads it into two scattered pieces.
    let (remote, _) = reg_buf(&mut h, 1, 256, Some(0x33));
    let rkey = h.mems[1].regs.covering(remote, 256).unwrap().rkey;
    let (local, local_key) = reg_buf(&mut h, 0, 4096, None);

    let mut evs = Vec::new();
    h.fabric
        .post_send(
            0,
            0,
            1,
            SendWr {
                wr_id: 11,
                opcode: Opcode::RdmaRead,
                sges: vec![
                    Sge {
                        addr: local,
                        len: 100,
                        lkey: local_key,
                    },
                    Sge {
                        addr: local + 2048,
                        len: 156,
                        lkey: local_key,
                    },
                ]
                .into(),
                remote: Some((remote, rkey)),
                signaled: true,
            },
            &h.mems,
            &mut |t, e| evs.push((t, e)),
        )
        .unwrap();
    for (t, e) in evs {
        eng.seed(t, e);
    }
    run(&mut h, &mut eng);
    assert_eq!(h.mems[0].space.read(local, 100).unwrap(), vec![0x33; 100]);
    assert_eq!(
        h.mems[0].space.read(local + 2048, 156).unwrap(),
        vec![0x33; 156]
    );
    assert_eq!(h.log.len(), 1);
    assert!(h.log[0].2.status.is_ok());
}

#[test]
fn rdma_read_slower_than_write() {
    // Same payload: read completion must be later than write completion.
    let time_for = |opcode: Opcode| {
        let mut h = harness(2);
        let mut eng = Engine::new();
        let (a, ka) = reg_buf(&mut h, 0, 8192, Some(1));
        let (b, _) = reg_buf(&mut h, 1, 8192, Some(2));
        let rkey = h.mems[1].regs.covering(b, 8192).unwrap().rkey;
        let mut evs = Vec::new();
        h.fabric
            .post_send(
                0,
                0,
                1,
                SendWr {
                    wr_id: 1,
                    opcode,
                    sges: vec![Sge {
                        addr: a,
                        len: 8192,
                        lkey: ka,
                    }]
                    .into(),
                    remote: Some((b, rkey)),
                    signaled: true,
                },
                &h.mems,
                &mut |t, e| evs.push((t, e)),
            )
            .unwrap();
        for (t, e) in evs {
            eng.seed(t, e);
        }
        run(&mut h, &mut eng);
        h.log[0].0
    };
    let w = time_for(Opcode::RdmaWrite);
    let r = time_for(Opcode::RdmaRead);
    assert!(r > w, "read {r} should exceed write {w}");
}

#[test]
fn tx_engine_serializes_back_to_back_messages() {
    let mut h = harness(2);
    let mut eng = Engine::new();
    let (src, src_key) = reg_buf(&mut h, 0, 1 << 20, Some(1));
    let (dst, _) = reg_buf(&mut h, 1, 1 << 21, None);
    let rkey = h.mems[1].regs.covering(dst, 1).unwrap().rkey;

    let mut evs = Vec::new();
    for i in 0..2u64 {
        h.fabric
            .post_send(
                0,
                0,
                1,
                SendWr {
                    wr_id: i,
                    opcode: Opcode::RdmaWrite,
                    sges: vec![Sge {
                        addr: src,
                        len: 1 << 20,
                        lkey: src_key,
                    }]
                    .into(),
                    remote: Some((dst + i * (1 << 20), rkey)),
                    signaled: true,
                },
                &h.mems,
                &mut |t, e| evs.push((t, e)),
            )
            .unwrap();
    }
    for (t, e) in evs {
        eng.seed(t, e);
    }
    run(&mut h, &mut eng);
    let mut times: Vec<Time> = h.log.iter().map(|(t, _, _)| *t).collect();
    times.sort_unstable();
    let wire = NetConfig::default().wire_ns(1 << 20);
    let gap = times[1] - times[0];
    // Second completion trails the first by one full serialization.
    assert!(gap >= wire, "gap {gap} < wire {wire}");
    assert!(gap < wire + 10_000);
}

#[test]
fn post_errors_detected_synchronously() {
    let mut h = harness(2);
    let (src, src_key) = reg_buf(&mut h, 0, 64, None);
    let cfg = NetConfig::default();
    let mut sink = |_t: Time, _e: NicEvent| {};

    // Too many SGEs.
    let wr = SendWr {
        wr_id: 0,
        opcode: Opcode::Send,
        sges: vec![
            Sge {
                addr: src,
                len: 1,
                lkey: src_key
            };
            cfg.max_sge + 1
        ]
        .into(),
        remote: None,
        signaled: false,
    };
    assert!(matches!(
        h.fabric.post_send(0, 0, 1, wr, &h.mems, &mut sink),
        Err(PostError::TooManySges { .. })
    ));

    // Stale lkey.
    let wr = SendWr {
        wr_id: 0,
        opcode: Opcode::Send,
        sges: vec![Sge {
            addr: src,
            len: 64,
            lkey: 0x999,
        }]
        .into(),
        remote: None,
        signaled: false,
    };
    assert!(matches!(
        h.fabric.post_send(0, 0, 1, wr, &h.mems, &mut sink),
        Err(PostError::BadLocalKey(_))
    ));

    // RDMA without remote.
    let wr = SendWr {
        wr_id: 0,
        opcode: Opcode::RdmaWrite,
        sges: vec![Sge {
            addr: src,
            len: 64,
            lkey: src_key,
        }]
        .into(),
        remote: None,
        signaled: false,
    };
    assert!(matches!(
        h.fabric.post_send(0, 0, 1, wr, &h.mems, &mut sink),
        Err(PostError::MissingRemote)
    ));

    // Unknown peer.
    let wr = SendWr {
        wr_id: 0,
        opcode: Opcode::Send,
        sges: vec![Sge {
            addr: src,
            len: 64,
            lkey: src_key,
        }]
        .into(),
        remote: None,
        signaled: false,
    };
    assert!(matches!(
        h.fabric.post_send(0, 0, 9, wr, &h.mems, &mut sink),
        Err(PostError::NoSuchPeer { peer: 9 })
    ));
}

#[test]
fn oversized_send_errors_both_sides() {
    let mut h = harness(2);
    let mut eng = Engine::new();
    let (src, src_key) = reg_buf(&mut h, 0, 256, Some(1));
    let (dst, dst_key) = reg_buf(&mut h, 1, 64, None);

    let mut evs = Vec::new();
    h.fabric
        .post_recv(
            0,
            1,
            0,
            RecvWr {
                wr_id: 1,
                sges: vec![Sge {
                    addr: dst,
                    len: 64,
                    lkey: dst_key,
                }]
                .into(),
            },
            &h.mems,
            &mut |t, e| evs.push((t, e)),
        )
        .unwrap();
    h.fabric
        .post_send(
            0,
            0,
            1,
            SendWr {
                wr_id: 2,
                opcode: Opcode::Send,
                sges: vec![Sge {
                    addr: src,
                    len: 256,
                    lkey: src_key,
                }]
                .into(),
                remote: None,
                signaled: true,
            },
            &h.mems,
            &mut |t, e| evs.push((t, e)),
        )
        .unwrap();
    for (t, e) in evs {
        eng.seed(t, e);
    }
    run(&mut h, &mut eng);
    let recv_err = h.log.iter().find(|(_, n, _)| *n == 1).unwrap();
    assert!(matches!(
        recv_err.2.status,
        CqeStatus::LocalLengthError {
            sent: 256,
            capacity: 64
        }
    ));
    let send_err = h.log.iter().find(|(_, n, _)| *n == 0).unwrap();
    assert!(!send_err.2.status.is_ok());
}

#[test]
fn list_post_functionally_identical_to_single() {
    let run_variant = |list: bool| {
        let mut h = harness(2);
        let mut eng = Engine::new();
        let (src, src_key) = reg_buf(&mut h, 0, 4096, None);
        for i in 0..4u64 {
            h.mems[0]
                .space
                .fill(src + i * 1024, 1024, i as u8 + 1)
                .unwrap();
        }
        let (dst, _) = reg_buf(&mut h, 1, 4096, None);
        let rkey = h.mems[1].regs.covering(dst, 1).unwrap().rkey;
        let wrs: Vec<SendWr> = (0..4u64)
            .map(|i| SendWr {
                wr_id: i,
                opcode: Opcode::RdmaWrite,
                sges: vec![Sge {
                    addr: src + i * 1024,
                    len: 1024,
                    lkey: src_key,
                }]
                .into(),
                remote: Some((dst + i * 1024, rkey)),
                signaled: i == 3,
            })
            .collect();
        let mut evs = Vec::new();
        if list {
            h.fabric
                .post_send_list(0, 0, 1, wrs, &h.mems, &mut |t, e| evs.push((t, e)))
                .unwrap();
        } else {
            for wr in wrs {
                h.fabric
                    .post_send(0, 0, 1, wr, &h.mems, &mut |t, e| evs.push((t, e)))
                    .unwrap();
            }
        }
        for (t, e) in evs {
            eng.seed(t, e);
        }
        run(&mut h, &mut eng);
        h.mems[1].space.read(dst, 4096).unwrap()
    };
    let a = run_variant(false);
    let b = run_variant(true);
    assert_eq!(a, b);
    let mut expect = Vec::new();
    for i in 0..4u8 {
        expect.extend(vec![i + 1; 1024]);
    }
    assert_eq!(a, expect);
}

#[test]
fn send_queue_depth_enforced() {
    let mut h = harness(2);
    h.fabric = Fabric::new(
        2,
        NetConfig {
            sq_depth: 4,
            ..Default::default()
        },
    );
    let (src, src_key) = reg_buf(&mut h, 0, 4096, Some(1));
    let (dst, _) = reg_buf(&mut h, 1, 1 << 20, None);
    let rkey = h.mems[1].regs.covering(dst, 1).unwrap().rkey;

    let mut evs = Vec::new();
    let mut results = Vec::new();
    // All posted at t=0: the 5th must bounce off the full queue.
    for i in 0..6u64 {
        let r = h.fabric.post_send(
            0,
            0,
            1,
            SendWr {
                wr_id: i,
                opcode: Opcode::RdmaWrite,
                sges: vec![Sge {
                    addr: src,
                    len: 4096,
                    lkey: src_key,
                }]
                .into(),
                remote: Some((dst + i * 4096, rkey)),
                signaled: false,
            },
            &h.mems,
            &mut |t, e| evs.push((t, e)),
        );
        results.push(r);
    }
    assert!(results[3].is_ok());
    assert!(matches!(results[4], Err(PostError::QueueFull { depth: 4 })));

    // After the NIC drains the queue, posting works again.
    let mut eng = Engine::new();
    for (t, e) in evs {
        eng.seed(t, e);
    }
    run(&mut h, &mut eng);
    let late = eng.now() + 1;
    let r = h.fabric.post_send(
        late,
        0,
        1,
        SendWr {
            wr_id: 99,
            opcode: Opcode::RdmaWrite,
            sges: vec![Sge {
                addr: src,
                len: 4096,
                lkey: src_key,
            }]
            .into(),
            remote: Some((dst, rkey)),
            signaled: false,
        },
        &h.mems,
        &mut |_t, _e| {},
    );
    assert!(r.is_ok(), "queue drains over time: {r:?}");
}
