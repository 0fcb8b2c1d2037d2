//! Randomized tests of the fabric: exact-once delivery and RC per-QP
//! ordering under random traffic. Seeded via [`ibdt_testkit`] so every
//! case is replayable offline.

use ibdt_ibsim::{Fabric, NetConfig, NicEvent, NodeMem, Opcode, SendWr, Sge};
use ibdt_simcore::engine::{Engine, Scheduler, World};
use ibdt_simcore::time::Time;
use ibdt_testkit::{cases, Rng};

struct Harness {
    fabric: Fabric,
    mems: Vec<NodeMem>,
    completions: Vec<(Time, u32, u64)>, // (time, node, wr_id)
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
            assert!(cqe.status.is_ok(), "unexpected error completion");
            self.completions.push((now, node, cqe.wr_id));
        }
    }
}

/// Random RDMA writes between 3 nodes: every payload lands exactly
/// once at its slot, and local completions per (src, dst) pair come
/// back in post order.
#[test]
fn writes_deliver_exactly_once_in_order() {
    cases(0x1B51_0001, 64, |rng: &mut Rng| {
        let n = 3;
        let mut h = Harness {
            fabric: Fabric::new(n, NetConfig::default()),
            mems: (0..n).map(|_| NodeMem::new(64 << 20)).collect(),
            completions: Vec::new(),
        };
        // One source slot per op and one big slot array per node: a
        // posted buffer stays untouched until its completion (the verbs
        // contract; delivery reads it).
        let nops = rng.range_usize(1, 80);
        let mut src = Vec::new();
        let mut dst = Vec::new();
        for node in 0..n {
            let s = h.mems[node].space.alloc_page_aligned(80 * 4096).unwrap();
            let sreg = h.mems[node].regs.register(s, 80 * 4096);
            let d = h.mems[node].space.alloc_page_aligned(1 << 20).unwrap();
            let dreg = h.mems[node].regs.register(d, 1 << 20);
            src.push((s, sreg.lkey));
            dst.push((d, dreg.rkey));
        }
        let mut evs: Vec<(Time, NicEvent)> = Vec::new();
        let mut slot = 0u64;
        let mut expected: Vec<(usize, u64, u8)> = Vec::new(); // (dst node, slot addr, byte)
        let mut posted_per_pair: std::collections::HashMap<(u32, u32), Vec<u64>> =
            std::collections::HashMap::new();
        for i in 0..nops {
            let s = rng.range_u64(0, 3) as u32;
            let d = rng.range_u64(0, 3) as u32;
            let at = rng.range_u64(0, 5_000);
            let len = rng.range_u64(1, 3000);
            if s == d {
                continue;
            }
            let byte = (i % 251) as u8 + 1;
            let from = src[s as usize].0 + i as u64 * 4096;
            h.mems[s as usize].space.fill(from, len, byte).unwrap();
            let target = dst[d as usize].0 + slot * 4096;
            let wr_id = i as u64;
            let posted = h.fabric.post_send(
                at,
                s,
                d,
                SendWr {
                    wr_id,
                    opcode: Opcode::RdmaWrite,
                    sges: vec![Sge {
                        addr: from,
                        len,
                        lkey: src[s as usize].1,
                    }]
                    .into(),
                    remote: Some((target, dst[d as usize].1)),
                    signaled: true,
                },
                &h.mems,
                &mut |t, e| evs.push((t, e)),
            );
            assert!(posted.is_ok());
            // Each op uses its own fill value and slot.
            expected.push((d as usize, target, byte));
            posted_per_pair.entry((s, d)).or_default().push(wr_id);
            slot += 1;
            assert!(slot * 4096 + 4096 <= 1 << 20);
        }
        let mut eng = Engine::new();
        for (t, e) in evs {
            eng.seed(t, e);
        }
        eng.run_to_quiescence(&mut h, 1_000_000);

        // Exactly-once placement (first byte of each slot; slots are
        // distinct so no op can mask another).
        for &(d, addr, byte) in &expected {
            let got = h.mems[d].space.read(addr, 1).unwrap()[0];
            assert_eq!(got, byte, "slot {addr:#x} at node {d}");
        }
        // One completion per op.
        assert_eq!(h.completions.len(), expected.len());
        // Per-pair completion order == post order. Completion (node,
        // wr_id) pairs: node is the poster.
        for ((s, _d), wrs) in posted_per_pair {
            let seen: Vec<u64> = h
                .completions
                .iter()
                .filter(|(_, node, wr)| *node == s && wrs.contains(wr))
                .map(|&(_, _, wr)| wr)
                .collect();
            assert_eq!(seen, wrs, "completion order per pair");
        }
    });
}
