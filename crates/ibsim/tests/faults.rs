//! Fault-injection and reliability tests: seeded drops, corruptions,
//! delays and stalls must either be recovered transparently by the RC
//! transport (retransmit / RNR backoff) or surface as typed error
//! completions plus a flushed queue pair — never as silent corruption.

use ibdt_ibsim::{
    Cqe, CqeStatus, Fabric, FaultPlan, LinkFault, NetConfig, NicEvent, NodeFault, NodeMem, Opcode,
    PostError, QpState, RecvWr, SendWr, Sge, Transport,
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

fn harness(n: usize, cfg: NetConfig, faults: FaultPlan) -> Harness {
    let mut fabric = Fabric::new(n, cfg);
    fabric.set_fault_plan(faults);
    Harness {
        fabric,
        mems: (0..n).map(|_| NodeMem::new(1 << 22)).collect(),
        log: Vec::new(),
    }
}

fn reg_buf(h: &mut Harness, node: usize, len: u64, fill: Option<u8>) -> (u64, u32) {
    let addr = h.mems[node].space.alloc_page_aligned(len).unwrap();
    if let Some(b) = fill {
        h.mems[node].space.fill(addr, len, b).unwrap();
    }
    let reg = h.mems[node].regs.register(addr, len);
    (addr, reg.lkey)
}

/// Posts a signaled send 0→1 with a matching recv, runs to quiescence.
fn send_one(h: &mut Harness, eng: &mut Engine<Harness>, len: u64, wr_id: u64) -> (u64, u64) {
    let base = eng.now();
    let (src, src_key) = reg_buf(h, 0, len, Some(0x5A));
    let (dst, dst_key) = reg_buf(h, 1, len, Some(0x00));
    let mut sink = Vec::new();
    h.fabric
        .post_recv(
            base,
            1,
            0,
            RecvWr {
                wr_id: wr_id + 1000,
                sges: vec![Sge {
                    addr: dst,
                    len,
                    lkey: dst_key,
                }]
                .into(),
            },
            &h.mems,
            &mut |t, e| sink.push((t, e)),
        )
        .unwrap();
    h.fabric
        .post_send(
            base + 100,
            0,
            1,
            SendWr {
                wr_id,
                opcode: Opcode::Send,
                sges: vec![Sge {
                    addr: src,
                    len,
                    lkey: src_key,
                }]
                .into(),
                remote: None,
                signaled: true,
            },
            &h.mems,
            &mut |t, e| sink.push((t, e)),
        )
        .unwrap();
    for (t, e) in sink {
        eng.seed(t, e);
    }
    eng.run_to_quiescence(h, 10_000_000);
    (src, dst)
}

#[test]
fn drops_are_retransmitted_transparently() {
    let faults = FaultPlan {
        seed: 11,
        drop_rate: 0.3,
        ..FaultPlan::none()
    };
    let mut h = harness(2, NetConfig::default(), faults);
    let mut eng = Engine::new();
    for i in 0..8 {
        let (_, dst) = send_one(&mut h, &mut eng, 4096, i);
        assert_eq!(h.mems[1].space.read(dst, 4096).unwrap(), vec![0x5A; 4096]);
    }
    let st = h.fabric.stats();
    assert!(st.drops_injected > 0, "plan injected nothing: {st:?}");
    assert!(st.retransmits >= st.drops_injected);
    assert_eq!(st.qp_errors, 0, "retry budget should absorb 30% loss");
    assert!(h.log.iter().all(|(_, _, c)| c.status.is_ok()));
}

#[test]
fn corruption_recovers_via_icrc_nak() {
    let faults = FaultPlan {
        seed: 23,
        corrupt_rate: 0.4,
        ..FaultPlan::none()
    };
    let mut h = harness(2, NetConfig::default(), faults);
    let mut eng = Engine::new();
    for i in 0..8 {
        let (_, dst) = send_one(&mut h, &mut eng, 2048, i);
        // A corrupted transfer is NAKed and retransmitted; the payload
        // that lands must be the clean one.
        assert_eq!(h.mems[1].space.read(dst, 2048).unwrap(), vec![0x5A; 2048]);
    }
    let st = h.fabric.stats();
    assert!(st.corruptions_injected > 0);
    assert!(st.retransmits >= st.corruptions_injected);
    assert_eq!(st.qp_errors, 0);
}

#[test]
fn delays_do_not_reorder_delivery() {
    let faults = FaultPlan {
        seed: 7,
        delay_rate: 0.8,
        max_delay_ns: 200_000,
        ..FaultPlan::none()
    };
    let mut h = harness(2, NetConfig::default(), faults);
    let mut eng = Engine::new();
    for i in 0..12 {
        send_one(&mut h, &mut eng, 1024, i);
    }
    let st = h.fabric.stats();
    assert!(st.delays_injected > 0);
    assert_eq!(st.qp_errors, 0);
    // Receive completions must appear in posting order despite the
    // delayed wire transfers (the responder holds a reorder buffer).
    let recv_ids: Vec<u64> = h
        .log
        .iter()
        .filter(|(_, n, c)| *n == 1 && c.is_recv)
        .map(|(_, _, c)| c.wr_id)
        .collect();
    let mut sorted = recv_ids.clone();
    sorted.sort_unstable();
    assert_eq!(recv_ids, sorted, "delays reordered receive completions");
}

#[test]
fn stalls_push_completions_later() {
    let clean = {
        let mut h = harness(2, NetConfig::default(), FaultPlan::none());
        let mut eng = Engine::new();
        send_one(&mut h, &mut eng, 8192, 1);
        eng.now()
    };
    let faults = FaultPlan {
        seed: 3,
        stall_rate: 1.0,
        stall_ns: 100_000,
        ..FaultPlan::none()
    };
    let mut h = harness(2, NetConfig::default(), faults);
    let mut eng = Engine::new();
    let (_, dst) = send_one(&mut h, &mut eng, 8192, 1);
    assert_eq!(h.mems[1].space.read(dst, 8192).unwrap(), vec![0x5A; 8192]);
    assert!(h.fabric.stats().stalls_injected > 0);
    assert!(
        eng.now() >= clean + 100_000,
        "stall did not slow the NIC engine"
    );
}

#[test]
fn certain_loss_exhausts_retry_and_flushes_the_qp() {
    let faults = FaultPlan {
        seed: 5,
        drop_rate: 1.0,
        ..FaultPlan::none()
    };
    let cfg = NetConfig {
        retry_cnt: 2,
        ..NetConfig::default()
    };
    let mut h = harness(2, cfg.clone(), faults);
    let mut eng = Engine::new();
    let (src, src_key) = reg_buf(&mut h, 0, 4096, Some(0x5A));
    let (dst, dst_key) = reg_buf(&mut h, 1, 4096, Some(0x00));
    let mut sink = Vec::new();
    h.fabric
        .post_recv(
            0,
            1,
            0,
            RecvWr {
                wr_id: 9,
                sges: vec![Sge {
                    addr: dst,
                    len: 4096,
                    lkey: dst_key,
                }]
                .into(),
            },
            &h.mems,
            &mut |t, e| sink.push((t, e)),
        )
        .unwrap();
    // Two outstanding sends: the first exhausts the retry budget, the
    // second must be flushed with error by the QP transition.
    for wr_id in [1u64, 2u64] {
        h.fabric
            .post_send(
                100,
                0,
                1,
                SendWr {
                    wr_id,
                    opcode: Opcode::Send,
                    sges: vec![Sge {
                        addr: src,
                        len: 2048,
                        lkey: src_key,
                    }]
                    .into(),
                    remote: None,
                    signaled: true,
                },
                &h.mems,
                &mut |t, e| sink.push((t, e)),
            )
            .unwrap();
    }
    for (t, e) in sink {
        eng.seed(t, e);
    }
    eng.run_to_quiescence(&mut h, 10_000_000);

    let st = h.fabric.stats();
    assert!(st.qp_errors >= 1);
    assert!(st.flushed_wqes >= 1);
    assert!(h.fabric.qp_errored(0, 1));
    let first = h
        .log
        .iter()
        .find(|(_, n, c)| *n == 0 && c.wr_id == 1)
        .unwrap();
    assert_eq!(
        first.2.status,
        CqeStatus::RetryExceeded {
            attempts: cfg.retry_cnt + 1
        }
    );
    let second = h
        .log
        .iter()
        .find(|(_, n, c)| *n == 0 && c.wr_id == 2)
        .unwrap();
    assert_eq!(second.2.status, CqeStatus::FlushErr);
    // Untouched destination: no partial delivery leaked through.
    assert_eq!(h.mems[1].space.read(dst, 4096).unwrap(), vec![0x00; 4096]);

    // Posting on an errored QP fails synchronously.
    let err = h.fabric.post_send(
        eng.now(),
        0,
        1,
        SendWr {
            wr_id: 3,
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
        &mut |_, _| {},
    );
    assert!(matches!(err, Err(PostError::QpError { peer: 1 })));
}

#[test]
fn finite_rnr_budget_backs_off_then_errors() {
    // No receive descriptor will ever be posted; with a finite
    // `rnr_retry` the transfer must back off the configured number of
    // times and then complete with `RnrRetryExceeded`.
    let cfg = NetConfig {
        rnr_retry: 3,
        ..NetConfig::default()
    };
    let mut h = harness(2, cfg, FaultPlan::none());
    let mut eng = Engine::new();
    let (src, src_key) = reg_buf(&mut h, 0, 1024, Some(0x11));
    let mut sink = Vec::new();
    h.fabric
        .post_send(
            100,
            0,
            1,
            SendWr {
                wr_id: 77,
                opcode: Opcode::Send,
                sges: vec![Sge {
                    addr: src,
                    len: 1024,
                    lkey: src_key,
                }]
                .into(),
                remote: None,
                signaled: true,
            },
            &h.mems,
            &mut |t, e| sink.push((t, e)),
        )
        .unwrap();
    for (t, e) in sink {
        eng.seed(t, e);
    }
    eng.run_to_quiescence(&mut h, 1_000_000);

    let st = h.fabric.stats();
    assert!(st.rnr_events >= 1);
    assert!(st.rnr_backoff_retries >= 1);
    assert!(st.qp_errors >= 1);
    let cqe = h
        .log
        .iter()
        .find(|(_, n, c)| *n == 0 && c.wr_id == 77)
        .unwrap();
    assert!(matches!(cqe.2.status, CqeStatus::RnrRetryExceeded { .. }));
}

#[test]
fn rnr_backoff_delivers_once_receiver_catches_up() {
    let cfg = NetConfig {
        rnr_retry: 6,
        ..NetConfig::default()
    };
    let mut h = harness(2, cfg, FaultPlan::none());
    let mut eng = Engine::new();
    let (src, src_key) = reg_buf(&mut h, 0, 512, Some(0x33));
    let (dst, dst_key) = reg_buf(&mut h, 1, 512, Some(0x00));
    let mut sink = Vec::new();
    h.fabric
        .post_send(
            100,
            0,
            1,
            SendWr {
                wr_id: 5,
                opcode: Opcode::Send,
                sges: vec![Sge {
                    addr: src,
                    len: 512,
                    lkey: src_key,
                }]
                .into(),
                remote: None,
                signaled: true,
            },
            &h.mems,
            &mut |t, e| sink.push((t, e)),
        )
        .unwrap();
    for (t, e) in sink {
        eng.seed(t, e);
    }
    // Let the transfer hit RNR and start backing off.
    while eng.step(&mut h) && eng.now() < 30_000 {}
    assert!(h.fabric.stats().rnr_events >= 1);
    // Late receive: the next timed retry must deliver.
    let mut sink = Vec::new();
    h.fabric
        .post_recv(
            eng.now(),
            1,
            0,
            RecvWr {
                wr_id: 6,
                sges: vec![Sge {
                    addr: dst,
                    len: 512,
                    lkey: dst_key,
                }]
                .into(),
            },
            &h.mems,
            &mut |t, e| sink.push((t, e)),
        )
        .unwrap();
    for (t, e) in sink {
        eng.seed(t, e);
    }
    eng.run_to_quiescence(&mut h, 1_000_000);

    assert_eq!(h.mems[1].space.read(dst, 512).unwrap(), vec![0x33; 512]);
    let st = h.fabric.stats();
    assert_eq!(st.qp_errors, 0);
    assert!(st.rnr_backoff_retries >= 1);
    let cqe = h
        .log
        .iter()
        .find(|(_, n, c)| *n == 0 && c.wr_id == 5)
        .unwrap();
    assert!(cqe.2.status.is_ok());
}

#[test]
fn fault_injection_is_deterministic() {
    let run = || {
        let faults = FaultPlan {
            seed: 99,
            drop_rate: 0.2,
            corrupt_rate: 0.1,
            delay_rate: 0.3,
            max_delay_ns: 40_000,
            stall_rate: 0.1,
            stall_ns: 10_000,
            ..FaultPlan::none()
        };
        let mut h = harness(2, NetConfig::default(), faults);
        let mut eng = Engine::new();
        for i in 0..6 {
            send_one(&mut h, &mut eng, 4096, i);
        }
        (eng.now(), h.fabric.stats(), h.log)
    };
    let (t1, s1, l1) = run();
    let (t2, s2, l2) = run();
    assert_eq!(t1, t2, "virtual clock diverged across identical runs");
    assert_eq!(s1, s2, "fabric counters diverged");
    assert_eq!(l1.len(), l2.len());
    for (a, b) in l1.iter().zip(l2.iter()) {
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
        assert_eq!(a.2.wr_id, b.2.wr_id);
    }
}

#[test]
fn inert_plan_changes_nothing() {
    let run = |faults: Option<FaultPlan>| {
        let mut h = harness(
            2,
            NetConfig::default(),
            faults.unwrap_or_else(FaultPlan::none),
        );
        let mut eng = Engine::new();
        for i in 0..4 {
            send_one(&mut h, &mut eng, 4096, i);
        }
        (eng.now(), h.fabric.stats())
    };
    // `FaultPlan::none()` (rates all zero) must be bit-identical to a
    // fabric that never had a plan installed.
    let (t_with, s_with) = run(Some(FaultPlan {
        seed: 1234,
        ..FaultPlan::none()
    }));
    let (t_none, s_none) = run(None);
    assert_eq!(t_with, t_none);
    assert_eq!(s_with, s_none);
    assert_eq!(s_with.drops_injected + s_with.corruptions_injected, 0);
}

// ---------------------------------------------------------------------
// QP lifecycle, APM, and connection epochs
// ---------------------------------------------------------------------

#[test]
fn qp_state_machine_enforces_legal_transitions() {
    let mut h = harness(2, NetConfig::default(), FaultPlan::none());
    let mut sink = |_t: Time, _e: NicEvent| {};
    // Tear 0->1 down; the spec's establishment ladder must be walked in
    // order from there.
    h.fabric
        .modify_qp(0, 0, 1, QpState::Reset, &mut sink)
        .unwrap();
    assert_eq!(h.fabric.qp_state(0, 1), QpState::Reset);
    // Skipping straight to RTS (or RTR) from RESET is illegal.
    let err = h
        .fabric
        .modify_qp(0, 0, 1, QpState::Rts, &mut sink)
        .unwrap_err();
    assert_eq!((err.from, err.to), (QpState::Reset, QpState::Rts));
    assert!(h
        .fabric
        .modify_qp(0, 0, 1, QpState::Rtr, &mut sink)
        .is_err());
    // RESET -> INIT -> RTR -> RTS is legal.
    h.fabric
        .modify_qp(0, 0, 1, QpState::Init, &mut sink)
        .unwrap();
    h.fabric
        .modify_qp(0, 0, 1, QpState::Rtr, &mut sink)
        .unwrap();
    // A send posted before RTS is rejected synchronously.
    let (src, src_key) = reg_buf(&mut h, 0, 64, Some(1));
    let err = h.fabric.post_send(
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
        &mut |_, _| {},
    );
    assert!(matches!(err, Err(PostError::QpNotReady { peer: 1 })));
    h.fabric
        .modify_qp(0, 0, 1, QpState::Rtr, &mut sink)
        .unwrap_err(); // RTR->RTR illegal
    h.fabric
        .modify_qp(0, 0, 1, QpState::Rts, &mut sink)
        .unwrap();
    // RTS <-> SQD (administrative drain) and any -> ERR are legal.
    h.fabric
        .modify_qp(0, 0, 1, QpState::Sqd, &mut sink)
        .unwrap();
    h.fabric
        .modify_qp(0, 0, 1, QpState::Rts, &mut sink)
        .unwrap();
    h.fabric
        .modify_qp(0, 0, 1, QpState::Err, &mut sink)
        .unwrap();
    assert!(h.fabric.qp_errored(0, 1));
    // ERR only leaves through RESET.
    assert!(h
        .fabric
        .modify_qp(0, 0, 1, QpState::Rts, &mut sink)
        .is_err());
    h.fabric
        .modify_qp(0, 0, 1, QpState::Reset, &mut sink)
        .unwrap();
    assert!(!h.fabric.qp_errored(0, 1));
}

#[test]
fn apm_migrates_on_port_down_and_delivery_continues() {
    // Lossless plan with one scheduled port failure on the sender's
    // primary port, early enough to land among the transfers.
    let faults = FaultPlan {
        seed: 1,
        link_faults: vec![LinkFault {
            at_ns: 5_000,
            node: 0,
            port: 0,
            down_ns: 10_000_000,
        }],
        ..FaultPlan::none()
    };
    let mut h = harness(2, NetConfig::default(), faults);
    let mut eng = Engine::new();
    for (t, e) in h.fabric.fault_events() {
        eng.seed(t, e);
    }
    for i in 0..6 {
        let (src, dst) = send_one(&mut h, &mut eng, 8192, i);
        let a = h.mems[0].space.read(src, 8192).unwrap();
        let b = h.mems[1].space.read(dst, 8192).unwrap();
        assert_eq!(a, b, "transfer {i} corrupted across the failover");
    }
    let st = h.fabric.stats();
    assert!(
        st.migrations >= 1,
        "port-down with APM enabled must migrate"
    );
    assert_eq!(st.qp_errors, 0, "APM failover must not error the QP");
    assert_eq!(
        h.fabric.qp_port(0, 1),
        1,
        "path must now ride the alternate port"
    );
    // Every send completed successfully.
    assert!(h.log.iter().all(|(_, _, c)| c.status.is_ok()));
}

#[test]
fn port_down_without_apm_errors_qp_and_reestablish_recovers() {
    let cfg = NetConfig {
        apm_enabled: false,
        ..NetConfig::default()
    };
    let mut h = harness(2, cfg, FaultPlan::none());
    let mut eng = Engine::new();
    // Seed only the failure (no recovery): the primary port stays dark
    // for the whole test.
    eng.seed(1_000, NicEvent::PortDown { node: 0, port: 0 });
    eng.run_to_quiescence(&mut h, 10_000);
    assert!(
        h.fabric.qp_errored(0, 1),
        "no APM: the QP on the dead port must error"
    );
    assert!(h.fabric.stats().qp_errors >= 1);
    assert_eq!(h.fabric.stats().migrations, 0);
    // The connection manager re-establishes the pair; RESET re-selects
    // the live alternate port, so traffic flows again immediately.
    h.fabric.reestablish_qp(0, 1);
    h.fabric.reestablish_qp(1, 0);
    assert_eq!(h.fabric.qp_state(0, 1), QpState::Rts);
    assert_eq!(h.fabric.qp_port(0, 1), 1);
    let (src, dst) = send_one(&mut h, &mut eng, 4096, 77);
    let a = h.mems[0].space.read(src, 4096).unwrap();
    let b = h.mems[1].space.read(dst, 4096).unwrap();
    assert_eq!(a, b, "re-established QP must deliver");
}

#[test]
fn stale_epoch_traffic_is_discarded_on_arrival() {
    // Activate the fault path (epochs are only tracked there) without
    // injecting any fates.
    let faults = FaultPlan {
        seed: 3,
        delay_rate: 0.0,
        link_faults: vec![LinkFault {
            at_ns: 1,
            node: 1,
            port: 1,
            down_ns: 1,
        }],
        ..FaultPlan::none()
    };
    let mut h = harness(2, NetConfig::default(), faults);
    let mut eng = Engine::new();
    let (src, src_key) = reg_buf(&mut h, 0, 4096, Some(0x5A));
    let (dst, dst_key) = reg_buf(&mut h, 1, 4096, Some(0x00));
    let mut sink = Vec::new();
    h.fabric
        .post_recv(
            0,
            1,
            0,
            RecvWr {
                wr_id: 9,
                sges: vec![Sge {
                    addr: dst,
                    len: 4096,
                    lkey: dst_key,
                }]
                .into(),
            },
            &h.mems,
            &mut |t, e| sink.push((t, e)),
        )
        .unwrap();
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
                    len: 4096,
                    lkey: src_key,
                }]
                .into(),
                remote: None,
                signaled: true,
            },
            &h.mems,
            &mut |t, e| sink.push((t, e)),
        )
        .unwrap();
    // The transfer is in flight; tear the connection down and bring it
    // back before the wire events run. The old-epoch arrival must be
    // discarded silently — no data placement, no completion.
    h.fabric.reestablish_qp(0, 1);
    for (t, e) in sink {
        eng.seed(t, e);
    }
    eng.run_to_quiescence(&mut h, 10_000);
    assert_eq!(
        h.mems[1].space.read(dst, 4096).unwrap(),
        vec![0x00; 4096],
        "stale-epoch payload must not be placed"
    );
    assert!(
        h.log
            .iter()
            .all(|(_, _, c)| !c.status.is_ok() || c.wr_id != 1),
        "stale-epoch transfer must not complete successfully: {:?}",
        h.log
    );
    assert!(
        h.fabric.stats().flushed_wqes >= 1,
        "the discard is accounted"
    );
}

#[test]
fn node_crash_kills_both_ports_and_errors_every_touching_qp() {
    // 3-node fabric, node 1 crash-stops with no restart while a send
    // 0 -> 1 is in flight: both of node 1's ports die, every QP that
    // touches it (in either direction) errors, the in-flight transfer
    // flushes typed, and pairs not involving node 1 stay healthy.
    let faults = FaultPlan {
        seed: 5,
        node_faults: vec![NodeFault {
            at_ns: 5_000,
            node: 1,
            restart_after_ns: None,
        }],
        ..FaultPlan::none()
    };
    let mut h = harness(3, NetConfig::default(), faults);
    let mut eng = Engine::new();
    for (t, e) in h.fabric.fault_events() {
        eng.seed(t, e);
    }
    // A large send that cannot finish before the crash at t=5000.
    let (_src, dst) = send_one(&mut h, &mut eng, 1 << 20, 42);

    assert!(h.fabric.node_down(1), "membership must report node 1 dead");
    assert!(h.fabric.any_node_down());
    assert!(
        !h.fabric.node_will_restart(1),
        "no restart window was scheduled"
    );
    assert!(h.fabric.port_down(1, 0) && h.fabric.port_down(1, 1));
    assert_eq!(h.fabric.stats().node_crashes, 1);
    for (a, b) in [(0, 1), (1, 0), (1, 2), (2, 1)] {
        assert!(h.fabric.qp_errored(a, b), "QP {a}->{b} must error");
    }
    assert!(
        !h.fabric.qp_errored(0, 2) && !h.fabric.qp_errored(2, 0),
        "pairs not touching the dead node must stay healthy"
    );
    // The in-flight send surfaced as a typed failure, never success.
    assert!(
        h.log
            .iter()
            .any(|(_, n, c)| *n == 0 && c.wr_id == 42 && !c.status.is_ok()),
        "in-flight send must flush with error: {:?}",
        h.log
    );
    assert_ne!(
        h.mems[1].space.read(dst, 1 << 20).unwrap(),
        vec![0x5A; 1 << 20],
        "the crashed receiver must not have the full payload"
    );
}

#[test]
fn node_restart_recovers_ports_and_reestablished_qps_deliver() {
    // Crash with a restart window: during the window the membership
    // view says "will restart" (suspected, not failed); after it the
    // ports are back and a re-established QP moves data again.
    let faults = FaultPlan {
        seed: 6,
        node_faults: vec![NodeFault {
            at_ns: 1_000,
            node: 1,
            restart_after_ns: Some(50_000),
        }],
        ..FaultPlan::none()
    };
    let mut h = harness(2, NetConfig::default(), faults);
    assert!(
        h.fabric.node_will_restart(1),
        "a restart-windowed fault is suspected, not failed"
    );
    let mut eng = Engine::new();
    for (t, e) in h.fabric.fault_events() {
        eng.seed(t, e);
    }
    eng.run_to_quiescence(&mut h, 100_000);
    assert!(!h.fabric.node_down(1), "node 1 restarted");
    assert!(!h.fabric.port_down(1, 0) && !h.fabric.port_down(1, 1));
    assert_eq!(h.fabric.stats().node_crashes, 1);
    // QPs stay errored until the connection manager re-establishes.
    assert!(h.fabric.qp_errored(0, 1));
    h.fabric.reestablish_qp(0, 1);
    h.fabric.reestablish_qp(1, 0);
    let (src, dst) = send_one(&mut h, &mut eng, 4096, 7);
    let a = h.mems[0].space.read(src, 4096).unwrap();
    let b = h.mems[1].space.read(dst, 4096).unwrap();
    assert_eq!(a, b, "post-restart QP must deliver");
}
