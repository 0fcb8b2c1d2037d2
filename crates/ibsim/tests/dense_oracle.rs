//! Observational equivalence of the dense per-direction QP tables
//! against a HashMap-backed oracle.
//!
//! The fabric keys connection state by `(src, dst)` into a flat
//! `Vec<DirState>` whose *defaults* encode the old "no entry yet"
//! semantics (RTS, no error, epoch 0, primary path). This suite drives
//! random QP churn — modify/reset/reestablish transitions, port
//! down/up with APM migration, and fault-plan traffic with
//! retransmits — against a shadow `HashMap<(u32, u32), ODir>` that
//! implements the documented lifecycle semantics directly, and asserts
//! the observable accessors (`qp_state`, `qp_errored`, `qp_epoch`,
//! `qp_port`) agree for **every** directional pair after every round.
//! Never-touched pairs must read as the defaults, and churn on one
//! pair must not bleed into a neighbor — the two bug classes a dense
//! index layout can introduce that a keyed map cannot.
//!
//! It runs on two inputs: a 4-node fabric where every rank is active,
//! and a 96-node fabric whose activity is confined to a sparse subset
//! of ranks, so most pairs stay untouched and the active ones include
//! adjacent `src * n + dst` indices.

use ibdt_ibsim::{Fabric, FaultPlan, NetConfig, NicEvent, NodeMem, Opcode, QpState, SendWr, Sge};
use ibdt_simcore::engine::{Engine, Scheduler, World};
use ibdt_simcore::time::Time;
use ibdt_testkit::{cases, Rng};
use std::collections::HashMap;

struct Harness {
    fabric: Fabric,
    mems: Vec<NodeMem>,
    completions: u64,
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
        // Flush-with-error completions are expected under churn; only
        // count them.
        self.completions += done.len() as u64;
    }
}

/// Oracle value for one directional pair; the default is the dense
/// table's default, which in turn is the old map's "absent entry".
#[derive(Clone, Copy, PartialEq, Debug)]
struct ODir {
    state: QpState,
    err: bool,
    epoch: u32,
    path: u8,
}

impl Default for ODir {
    fn default() -> Self {
        ODir {
            state: QpState::Rts,
            err: false,
            epoch: 0,
            path: 0,
        }
    }
}

struct Oracle {
    n: u32,
    dirs: HashMap<(u32, u32), ODir>,
    down: HashMap<(u32, u8), bool>,
    apm: bool,
}

impl Oracle {
    fn new(n: u32, apm: bool) -> Self {
        Oracle {
            n,
            dirs: HashMap::new(),
            down: HashMap::new(),
            apm,
        }
    }

    fn get(&self, s: u32, d: u32) -> ODir {
        self.dirs.get(&(s, d)).copied().unwrap_or_default()
    }

    fn port_down(&self, node: u32, port: u8) -> bool {
        self.down.get(&(node, port)).copied().unwrap_or(false)
    }

    fn fail(&mut self, s: u32, d: u32) {
        let e = self.dirs.entry((s, d)).or_default();
        if !e.err {
            e.err = true;
            e.state = QpState::Err;
        }
    }

    fn reset(&mut self, s: u32, d: u32) {
        let port = [0u8, 1]
            .into_iter()
            .find(|&p| !self.port_down(s, p) && !self.port_down(d, p))
            .unwrap_or(0);
        let e = self.dirs.entry((s, d)).or_default();
        e.err = false;
        e.state = QpState::Reset;
        e.epoch += 1;
        e.path = port;
    }

    fn reestablish(&mut self, s: u32, d: u32) {
        self.reset(s, d);
        self.dirs.get_mut(&(s, d)).unwrap().state = QpState::Rts;
    }

    /// Mirrors `Fabric::modify_qp`'s legality table; returns whether
    /// the transition was legal (and applied).
    fn modify(&mut self, s: u32, d: u32, target: QpState) -> bool {
        let from = self.get(s, d).state;
        let legal = matches!(
            (from, target),
            (QpState::Reset, QpState::Init)
                | (QpState::Init, QpState::Rtr)
                | (QpState::Rtr, QpState::Rts)
                | (QpState::Rts, QpState::Sqd)
                | (QpState::Sqd, QpState::Rts)
                | (QpState::Sqe, QpState::Rts)
                | (_, QpState::Err)
                | (_, QpState::Reset)
        );
        if !legal {
            return false;
        }
        match target {
            QpState::Err => self.fail(s, d),
            QpState::Reset => self.reset(s, d),
            other => self.dirs.entry((s, d)).or_default().state = other,
        }
        true
    }

    /// A port-down fans out over *all* pairs touching the node, exactly
    /// as the fabric's handler does, untouched pairs included.
    fn port_down_event(&mut self, node: u32, port: u8) {
        self.down.insert((node, port), true);
        for other in 0..self.n {
            if other == node {
                continue;
            }
            for (s, d) in [(node, other), (other, node)] {
                let cur = self.get(s, d);
                if cur.err || cur.state != QpState::Rts || cur.path != port {
                    continue;
                }
                let alt = 1 - port;
                if self.apm && !self.port_down(s, alt) && !self.port_down(d, alt) {
                    self.dirs.entry((s, d)).or_default().path = alt;
                } else {
                    self.fail(s, d);
                }
            }
        }
    }

    fn port_up_event(&mut self, node: u32, port: u8) {
        self.down.insert((node, port), false);
    }
}

/// Compares every directional pair — active, neighbor, and untouched —
/// against the oracle.
fn assert_equivalent(h: &Harness, o: &Oracle, round: usize) {
    for s in 0..o.n {
        for d in 0..o.n {
            if s == d {
                continue;
            }
            let want = o.get(s, d);
            assert_eq!(
                h.fabric.qp_state(s, d),
                want.state,
                "round {round}: qp_state({s},{d})"
            );
            assert_eq!(
                h.fabric.qp_errored(s, d),
                want.err,
                "round {round}: qp_errored({s},{d})"
            );
            assert_eq!(
                h.fabric.qp_epoch(s, d),
                want.epoch,
                "round {round}: qp_epoch({s},{d})"
            );
            assert_eq!(
                h.fabric.qp_port(s, d),
                want.path,
                "round {round}: qp_port({s},{d})"
            );
        }
    }
}

fn pick_pair(rng: &mut Rng, active: &[u32]) -> (u32, u32) {
    let s = rng.pick(active);
    loop {
        let d = rng.pick(active);
        if d != s {
            return (s, d);
        }
    }
}

/// Drives `rounds` rounds of churn per case on an `n`-node fabric,
/// drawing every action's endpoints from `active`, and checks the
/// fabric against the oracle after each round.
fn churn(n: u32, active: &[u32], seed: u64, ncases: u32, rounds: usize, mem: u64) {
    cases(seed, ncases, |rng: &mut Rng| {
        // Retransmits must never exhaust the budget here: a
        // retry-exceeded QP error is an *internal* transition the
        // oracle does not model.
        let cfg = NetConfig {
            retry_cnt: 1000,
            ..NetConfig::default()
        };
        let apm = cfg.apm_enabled;
        let mut h = Harness {
            fabric: Fabric::new(n as usize, cfg),
            mems: (0..n).map(|_| NodeMem::new(mem)).collect(),
            completions: 0,
        };
        let mut plan = FaultPlan::uniform(rng.next_u64(), 0.1).unwrap();
        plan.evict_rate = 0.0;
        h.fabric.set_fault_plan(plan);
        let mut o = Oracle::new(n, apm);

        // A registered source buffer and destination slab per active
        // node.
        type BufPair = ((u64, u32), (u64, u32));
        let mut bufs: HashMap<u32, BufPair> = HashMap::new();
        for &node in active {
            let m = &mut h.mems[node as usize];
            let s = m.space.alloc_page_aligned(4096).unwrap();
            let sreg = m.regs.register(s, 4096);
            let d = m.space.alloc_page_aligned(64 << 10).unwrap();
            let dreg = m.regs.register(d, 64 << 10);
            bufs.insert(node, ((s, sreg.lkey), (d, dreg.rkey)));
        }

        let mut t: Time = 0;
        let mut wr_id = 0u64;
        for round in 0..rounds {
            t += 200_000;
            let mut evs: Vec<(Time, NicEvent)> = Vec::new();

            // 0-2 random control-plane actions.
            for _ in 0..rng.range_usize(0, 3) {
                let (s, d) = pick_pair(rng, active);
                match rng.range_usize(0, 5) {
                    0 => {
                        let target = rng.pick(&[
                            QpState::Reset,
                            QpState::Init,
                            QpState::Rtr,
                            QpState::Rts,
                            QpState::Sqd,
                            QpState::Sqe,
                            QpState::Err,
                        ]);
                        let fab_legal = h
                            .fabric
                            .modify_qp(t, s, d, target, &mut |at, e| evs.push((at, e)))
                            .is_ok();
                        let ora_legal = o.modify(s, d, target);
                        assert_eq!(
                            fab_legal, ora_legal,
                            "round {round}: modify_qp({s},{d},{target:?}) legality"
                        );
                    }
                    1 => {
                        h.fabric.reset_qp(s, d);
                        o.reset(s, d);
                    }
                    2 => {
                        h.fabric.reestablish_qp(s, d);
                        o.reestablish(s, d);
                    }
                    3 => {
                        let port = rng.range_u64(0, 2) as u8;
                        let mut done = Vec::new();
                        h.fabric.handle(
                            t,
                            NicEvent::PortDown { node: s, port },
                            &mut h.mems,
                            &mut |at, e| evs.push((at, e)),
                            &mut done,
                        );
                        o.port_down_event(s, port);
                    }
                    _ => {
                        let port = rng.range_u64(0, 2) as u8;
                        let mut done = Vec::new();
                        h.fabric.handle(
                            t,
                            NicEvent::PortUp { node: s, port },
                            &mut h.mems,
                            &mut |at, e| evs.push((at, e)),
                            &mut done,
                        );
                        o.port_up_event(s, port);
                    }
                }
            }

            // Background traffic on pairs the oracle believes are
            // usable; the fault plan drops/corrupts/delays some of it,
            // exercising retransmit bookkeeping in the inflight slab.
            for _ in 0..rng.range_usize(0, 5) {
                let (s, d) = pick_pair(rng, active);
                let cur = o.get(s, d);
                if cur.err
                    || cur.state != QpState::Rts
                    || o.port_down(s, cur.path)
                    || o.port_down(d, cur.path)
                {
                    continue;
                }
                wr_id += 1;
                let len = rng.range_u64(1, 2048);
                let (src, _) = bufs[&s];
                let (_, dst) = bufs[&d];
                let posted = h.fabric.post_send(
                    t + rng.range_u64(0, 1000),
                    s,
                    d,
                    SendWr {
                        wr_id,
                        opcode: Opcode::RdmaWrite,
                        sges: vec![Sge {
                            addr: src.0,
                            len,
                            lkey: src.1,
                        }]
                        .into(),
                        remote: Some((dst.0, dst.1)),
                        signaled: true,
                    },
                    &h.mems,
                    &mut |at, e| evs.push((at, e)),
                );
                assert!(
                    posted.is_ok(),
                    "round {round}: oracle-usable pair ({s},{d}) rejected a post: {posted:?}"
                );
            }

            let mut eng = Engine::new();
            for (at, e) in evs {
                eng.seed(at, e);
            }
            let end = eng.run_to_quiescence(&mut h, 1_000_000);
            t = t.max(end);

            assert_equivalent(&h, &o, round);
        }
    });
}

#[test]
fn dense_tables_match_hashmap_oracle_under_churn() {
    churn(4, &[0, 1, 2, 3], 0x0DE2_5E01, 48, 16, 16 << 20);
}

/// 96 nodes, activity on six ranks chosen to straddle 64-entry
/// boundaries of the `src * n + dst` index space and to include
/// adjacent rank pairs whose direction indices are neighbors.
#[test]
fn sparse_activity_on_96_nodes_matches_hashmap_oracle() {
    churn(96, &[0, 1, 17, 18, 63, 95], 0x9A6E_D001, 24, 10, 4 << 20);
}
