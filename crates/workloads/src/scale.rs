//! Large-rank collective driver on the sharded simulator.
//!
//! The full [`ibdt_mpicore`] cluster carries per-pair protocol state
//! and per-peer eager buffers — exactly what you want for protocol
//! fidelity at 4–64 ranks, and exactly what you cannot afford at 4096.
//! This module models the *timing* of a large collective with a
//! lightweight per-rank state machine (serial CPU, serial NIC transmit
//! engine, windowed injection) whose per-message costs come from the
//! same calibrated models the cluster uses: [`HostConfig::copy_ns`]
//! over the type's merged block count (the block list a one-instance
//! plan packs) for pack/unpack, and [`NetConfig`]'s
//! transmit/propagation terms for the wire.
//!
//! Ranks are partitioned across [`ShardSim`] shards and advance in
//! conservative windows of one link propagation delay (the lookahead).
//! Every cross-rank event — a message arrival, a completion ack — is
//! charged at least that delay, and every event is keyed by the
//! partition-independent `(time, kind, rank, msg-id)` tuple, so the
//! run is **bit-identical across shard and thread counts** (asserted
//! in tests and by `ci.sh --scale`). The per-rank result digest is an
//! FNV-1a fold of each completion, combined in rank order.
//!
//! A shard keeps its pending events in one unsorted buffer and runs
//! each window as a batch: one pass moves the due events to the front,
//! one sort puts just those in key order, and they run in that order.
//! Nothing a window creates is due inside it, except the injection an
//! ack triggers, which the ack runs inline (see `ScaleShard::advance`
//! for why that is its rank's next event). `tests/scale_golden.rs`
//! pins the results to those of a one-at-a-time event queue.

use ibdt_ibsim::{HostConfig, NetConfig};
use ibdt_simcore::shard::{ShardSim, ShardWorld};
use ibdt_simcore::time::Time;

use crate::vector::VectorWorkload;

/// One scheduled fault in a scaled run.
///
/// Faults are *events*, not rates: an explicit `(time, kind, rank)`
/// list is what keeps a chaotic 4096-rank run bit-identical across
/// shard and thread counts (each fault becomes an event in the same
/// partition-independent total order as the traffic), and what the
/// testkit shrinker can delta-minimize when a chaos suite fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ScaleFault {
    /// Crash-stop: `rank` halts at `at_ns`. It stops injecting,
    /// receiving, and acking; messages already on the wire toward it
    /// are lost on arrival, and its peers observe permanently stuck
    /// window slots.
    Crash {
        /// Virtual time of the crash.
        at_ns: Time,
        /// Rank that halts.
        rank: u32,
    },
    /// `rank`'s NIC transmit engine stalls for `stall_ns` starting at
    /// `at_ns` (the scale-tier analogue of [`FaultPlan::stall_rate`]
    /// doorbell/PCI-X stalls).
    ///
    /// [`FaultPlan::stall_rate`]: ibdt_ibsim::FaultPlan::stall_rate
    Stall {
        /// Virtual time the stall begins.
        at_ns: Time,
        /// Rank whose transmit engine stalls.
        rank: u32,
        /// Stall duration.
        stall_ns: Time,
    },
}

impl ScaleFault {
    /// The rank the fault targets.
    pub fn rank(&self) -> u32 {
        match *self {
            ScaleFault::Crash { rank, .. } | ScaleFault::Stall { rank, .. } => rank,
        }
    }

    /// The virtual time the fault fires.
    pub fn at_ns(&self) -> Time {
        match *self {
            ScaleFault::Crash { at_ns, .. } | ScaleFault::Stall { at_ns, .. } => at_ns,
        }
    }
}

/// Deterministic chaos plan for the sharded scale driver: a seed (kept
/// for replay diagnostics) plus the explicit fault-event list derived
/// from it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScaleFaultPlan {
    /// Seed the event list was derived from (0 for hand-built plans).
    pub seed: u64,
    /// Scheduled fault events. Order is irrelevant — events are keyed
    /// into the simulation's total order by `(time, kind, rank)`.
    pub events: Vec<ScaleFault>,
}

impl ScaleFaultPlan {
    /// A plan that injects nothing.
    pub fn none() -> Self {
        Self::default()
    }

    /// True when the plan schedules no faults.
    pub fn is_inert(&self) -> bool {
        self.events.is_empty()
    }

    /// Derives an explicit fault-event list from `seed`: `crashes`
    /// distinct ranks crash-stop and `stalls` transmit-engine stalls
    /// fire, all at times uniform in `[1, horizon_ns]` (stall
    /// durations uniform up to `horizon_ns / 8`). Identical arguments
    /// yield an identical list on every platform.
    pub fn seeded(seed: u64, ranks: u32, crashes: u32, stalls: u32, horizon_ns: Time) -> Self {
        assert!(ranks >= 2, "a scaled run needs at least two ranks");
        assert!(
            crashes < ranks,
            "crashing every rank leaves nothing to observe the failure"
        );
        assert!(horizon_ns > 0, "faults need a nonzero horizon");
        let mut rng = SplitMix64::new(seed);
        let mut events = Vec::with_capacity((crashes + stalls) as usize);
        let mut crashed = vec![false; ranks as usize];
        for _ in 0..crashes {
            let rank = loop {
                let r = (rng.next_u64() % ranks as u64) as u32;
                if !crashed[r as usize] {
                    crashed[r as usize] = true;
                    break r;
                }
            };
            events.push(ScaleFault::Crash {
                at_ns: 1 + rng.next_u64() % horizon_ns,
                rank,
            });
        }
        for _ in 0..stalls {
            events.push(ScaleFault::Stall {
                at_ns: 1 + rng.next_u64() % horizon_ns,
                rank: (rng.next_u64() % ranks as u64) as u32,
                stall_ns: 1 + rng.next_u64() % (horizon_ns / 8).max(1),
            });
        }
        events.sort_unstable();
        Self { seed, events }
    }
}

/// Minimal SplitMix64, private to the driver: the chaos plan is a
/// product feature of the workloads crate and must not depend on the
/// dev-only `ibdt-testkit` (same policy as `ibsim::fault`).
struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        let mut r = Self {
            state: seed ^ 0x6A09_E667_F3BC_C909,
        };
        let _ = r.next_u64();
        r
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Communication pattern of the scaled run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalePattern {
    /// Every rank sends one message to every other rank, starting with
    /// its right neighbor (the classic shifted all-to-all schedule).
    Alltoall,
    /// Every rank sends one message to its right neighbor.
    Ring,
}

/// Parameters of one scaled run.
#[derive(Debug, Clone)]
pub struct ScaleConfig {
    /// World size.
    pub ranks: u32,
    /// Shard count (1 = sequential reference execution).
    pub shards: usize,
    /// Worker threads driving the shards.
    pub threads: usize,
    /// Vector-datatype columns per message (the §3.2 shape).
    pub columns: u64,
    /// Per-rank injection window: sends in flight before the next
    /// message waits for a completion ack.
    pub window: u32,
    /// Traffic pattern.
    pub pattern: ScalePattern,
    /// Scheduled chaos. [`ScaleFaultPlan::none`] (the default) costs
    /// nothing and changes nothing.
    pub faults: ScaleFaultPlan,
}

impl Default for ScaleConfig {
    fn default() -> Self {
        ScaleConfig {
            ranks: 64,
            shards: 1,
            threads: 1,
            columns: 4,
            window: 4,
            pattern: ScalePattern::Alltoall,
            faults: ScaleFaultPlan::none(),
        }
    }
}

/// Result of one scaled run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScaleReport {
    /// World size.
    pub ranks: u32,
    /// Messages delivered (must equal the pattern's expectation).
    pub msgs: u64,
    /// Payload bytes moved.
    pub bytes: u64,
    /// Virtual time at which the last unpack finished.
    pub finish_ns: Time,
    /// Conservative windows executed.
    pub rounds: u64,
    /// Order-independent digest of every completion **and** every
    /// per-rank failure observation (messages received, sends stuck in
    /// flight, crashed-or-not): FNV-1a per rank, folded in rank order.
    /// Identical across shard/thread counts, with or without faults.
    pub fingerprint: u64,
    /// Ranks that crash-stopped during the run.
    pub crashed: u32,
    /// Messages lost on arrival at a crashed rank.
    pub lost: u64,
    /// Resident bytes of simulation state at the end of the run
    /// (rank models + pending-event buffer capacity) — the memory the
    /// driver needs per run, which the rank-scaling figure plots.
    pub state_bytes: usize,
    /// Events executed, counting each injection an ACK runs inline as
    /// one event: the number of events a one-at-a-time queue of the
    /// same schedule would pop. Host time ÷ `events` is the driver's
    /// cost per event.
    pub events: u64,
    /// Pending-event entries the per-window due scans examined;
    /// `scanned / events` is the host work the batching spends per
    /// event on finding the window's events.
    pub scanned: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

#[inline]
fn fnv(mut h: u64, v: u64) -> u64 {
    for b in v.to_le_bytes() {
        h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    h
}

/// Event kinds, in tie-break order at equal times: faults first (a
/// crash at time T preempts a same-instant arrival — the message is
/// lost, on every partitioning), then injections (they only touch
/// their own rank's clocks), then arrivals, then acks. The relative
/// order of the traffic kinds is unchanged from the fault-free
/// driver, so inert plans reproduce its schedules exactly. Any fixed
/// order works — it must merely be partition-free.
const K_CRASH: u8 = 0;
const K_STALL: u8 = 1;
const K_INJECT: u8 = 2;
const K_ARRIVE: u8 = 3;
const K_ACK: u8 = 4;

/// One simulation event. The derived order on `(time, kind, rank, id)`
/// is the partition-independent total order; `peer` is routing payload
/// (the destination rank for arrivals, the original sender for acks,
/// the stall duration for stalls) and never decides order — message
/// ids are globally unique, fault ids are plan indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Ev {
    time: Time,
    kind: u8,
    rank: u32,
    id: u64,
    peer: u32,
}

/// Per-rank state: two serial resources, the injection window, and
/// the crash flag.
#[derive(Debug, Clone, Default)]
struct RankModel {
    cpu_free: Time,
    nic_free: Time,
    in_flight: u32,
    next_msg: u64,
    recvd: u64,
    fp: u64,
    dead: bool,
}

/// Shared per-message costs, identical at every rank.
#[derive(Debug, Clone, Copy)]
struct Costs {
    post_ns: Time,
    pack_ns: Time,
    unpack_ns: Time,
    tx_ns: Time,
    prop_ns: Time,
    bytes: u64,
}

struct ScaleShard {
    cfg: ScaleConfig,
    costs: Costs,
    /// Ranks owned: global rank `r` with `r % shards == shard_id`,
    /// stored at local index `r / shards`.
    ranks: Vec<RankModel>,
    shard_id: usize,
    /// Pending events in no particular order; each window sorts only
    /// the ones it runs.
    pending: Vec<Ev>,
    /// Earliest time in `pending`.
    next: Option<Time>,
    finish_ns: Time,
    msgs: u64,
    /// Messages that arrived at a crashed rank and were dropped.
    lost: u64,
    events: u64,
    scanned: u64,
}

impl ScaleConfig {
    /// Messages each rank sends.
    fn msgs_per_rank(&self) -> u64 {
        match self.pattern {
            ScalePattern::Alltoall => self.ranks as u64 - 1,
            ScalePattern::Ring => 1,
        }
    }
}

impl ScaleShard {
    /// Destination of rank `r`'s `k`-th message (shifted schedule).
    fn dest(&self, r: u32, k: u64) -> u32 {
        ((r as u64 + 1 + k) % self.cfg.ranks as u64) as u32
    }

    #[inline]
    fn local(&mut self, rank: u32) -> &mut RankModel {
        let i = rank as usize / self.cfg.shards;
        &mut self.ranks[i]
    }

    #[inline]
    fn shard_of(&self, rank: u32) -> usize {
        rank as usize % self.cfg.shards
    }

    /// Takes a window slot for rank `r`'s message `k` and returns its
    /// injection at `t` (a same-rank, hence same-shard, event: no
    /// lookahead required).
    fn claim_inject(&mut self, t: Time, r: u32, k: u64) -> Ev {
        let mpr = self.cfg.msgs_per_rank();
        let id = r as u64 * mpr + k;
        let peer = self.dest(r, k);
        let m = self.local(r);
        m.in_flight += 1;
        m.next_msg = k + 1;
        Ev {
            time: t,
            kind: K_INJECT,
            rank: r,
            id,
            peer,
        }
    }

    fn push(&mut self, ev: Ev) {
        self.pending.push(ev);
        self.next = Some(self.next.map_or(ev.time, |n| n.min(ev.time)));
    }

    /// Sends `ev` to its rank's shard, or returns it when that is this
    /// one.
    fn route(&self, ev: Ev, send: &mut dyn FnMut(usize, Ev)) -> Option<Ev> {
        let dst = self.shard_of(ev.rank);
        if dst == self.shard_id {
            Some(ev)
        } else {
            send(dst, ev);
            None
        }
    }

    /// Runs `ev` and returns the event it creates for this shard, if
    /// any. An event creates at most one.
    fn exec(&mut self, ev: Ev, send: &mut dyn FnMut(usize, Ev)) -> Option<Ev> {
        let c = self.costs;
        self.events += 1;
        match ev.kind {
            K_CRASH => {
                // Crash-stop: the rank goes silent. Everything it
                // would have done from here on — injections, unpacks,
                // ack processing — is dropped when its events execute.
                self.local(ev.rank).dead = true;
                None
            }
            K_STALL => {
                // The transmit engine is busy doing nothing for the
                // duration carried in `peer`; queued sends serialize
                // behind it. No effect on an already-crashed rank.
                let m = self.local(ev.rank);
                if !m.dead {
                    m.nic_free = m.nic_free.max(ev.time) + ev.peer as Time;
                }
                None
            }
            K_INJECT => {
                // Post + pack on the rank's serial CPU, then the
                // message serializes onto its NIC transmit engine.
                let m = self.local(ev.rank);
                if m.dead {
                    // Queued before the crash, never posted. The slot
                    // stays accounted in `in_flight`; the rank is dead
                    // and its final (in_flight, dead) pair is part of
                    // the fingerprint.
                    return None;
                }
                let pack_done = ev.time.max(m.cpu_free) + c.post_ns + c.pack_ns;
                m.cpu_free = pack_done;
                let tx_done = pack_done.max(m.nic_free) + c.tx_ns;
                m.nic_free = tx_done;
                let arrive = Ev {
                    time: tx_done + c.prop_ns,
                    kind: K_ARRIVE,
                    rank: ev.peer,
                    id: ev.id,
                    peer: ev.rank,
                };
                self.route(arrive, send)
            }
            K_ARRIVE => {
                // Unpack on the receiver's serial CPU; completion ack
                // travels back one propagation delay.
                let m = self.local(ev.rank);
                if m.dead {
                    // Delivered to a crashed rank: the payload is lost
                    // and no ack ever returns — the sender's window
                    // slot is permanently stuck, exactly what its
                    // fingerprint records.
                    self.lost += 1;
                    return None;
                }
                let done = ev.time.max(m.cpu_free) + c.unpack_ns;
                m.cpu_free = done;
                m.recvd += 1;
                m.fp = fnv(fnv(fnv(m.fp, ev.id), done), ev.peer as u64);
                self.msgs += 1;
                if done > self.finish_ns {
                    self.finish_ns = done;
                }
                let ack = Ev {
                    time: done + c.prop_ns,
                    kind: K_ACK,
                    rank: ev.peer,
                    id: ev.id,
                    peer: ev.rank,
                };
                self.route(ack, send)
            }
            _ => {
                // A window slot frees; the sender folds the ack into
                // its digest and injects its next message, if any.
                let mpr = self.cfg.msgs_per_rank();
                let m = self.local(ev.rank);
                if m.dead {
                    // Ack for a message sent before the crash; nobody
                    // is listening.
                    return None;
                }
                m.in_flight -= 1;
                m.fp = fnv(fnv(m.fp, ev.id), ev.time);
                let k = m.next_msg;
                if k < mpr {
                    // Run the injection now rather than queue it: in
                    // key order it is this rank's very next event
                    // (see `advance`).
                    let inject = self.claim_inject(ev.time, ev.rank, k);
                    self.exec(inject, send)
                } else {
                    None
                }
            }
        }
    }
}

impl ShardWorld for ScaleShard {
    type Msg = Ev;

    fn next_time(&self) -> Option<Time> {
        self.next
    }

    /// Runs the window as one sorted batch.
    ///
    /// Nothing created inside the window is due inside it: arrivals
    /// and ACKs are charged `prop_ns`, the lookahead, so they land at
    /// or after `horizon`. The one exception is the injection an ACK
    /// triggers at the ACK's own time, and in key order that is its
    /// rank's very next event: `K_INJECT < K_ACK`, and the rank's
    /// faults, injections and arrivals at that time sort before the
    /// ACK, so they have already run. The ACK arm therefore runs it
    /// inline. An event touches only its own rank's state (the shard
    /// totals it bumps are sums and maxima), so each rank sees exactly
    /// the order a one-at-a-time queue of the whole key would give.
    fn advance(&mut self, horizon: Time, send: &mut dyn FnMut(usize, Ev)) {
        if self.next.is_none_or(|t| t >= horizon) {
            return;
        }
        // Swap the due events to the front; the rest set `next`.
        let mut due = 0;
        let mut next = None;
        for i in 0..self.pending.len() {
            let t = self.pending[i].time;
            if t < horizon {
                self.pending.swap(i, due);
                due += 1;
            } else {
                next = Some(next.map_or(t, |n: Time| n.min(t)));
            }
        }
        self.scanned += self.pending.len() as u64;
        self.pending[..due].sort_unstable();
        // A successor takes the slot of an event that already ran:
        // each event creates at most one, so `fill <= i`.
        let mut fill = 0;
        for i in 0..due {
            let ev = self.pending[i];
            if let Some(succ) = self.exec(ev, send) {
                debug_assert!(succ.time >= horizon, "a successor is due in its own window");
                next = Some(next.map_or(succ.time, |n: Time| n.min(succ.time)));
                self.pending[fill] = succ;
                fill += 1;
            }
        }
        self.next = next;
        self.pending.drain(fill..due);
    }

    fn deliver(&mut self, msg: Ev) {
        self.push(msg);
    }
}

/// Runs the configured collective; see the module docs for the
/// determinism contract. Cost models default when not supplied.
pub fn run_scale(cfg: &ScaleConfig) -> ScaleReport {
    run_scale_with(cfg, &NetConfig::default(), &HostConfig::default())
}

/// [`run_scale`] with explicit network and host cost models.
pub fn run_scale_with(cfg: &ScaleConfig, net: &NetConfig, host: &HostConfig) -> ScaleReport {
    assert!(cfg.ranks >= 2, "a collective needs at least two ranks");
    let mut cfg = cfg.clone();
    cfg.shards = cfg.shards.clamp(1, cfg.ranks as usize);

    // One instance's merged block list prices every message, as the
    // full cluster's pack path copies it.
    let wl = VectorWorkload::new(cfg.columns);
    let bytes = wl.ty.size();
    let blocks = wl.ty.num_blocks().max(1);
    let costs = Costs {
        post_ns: net.post_single_ns,
        pack_ns: host.copy_ns(blocks, bytes),
        unpack_ns: host.copy_ns(blocks, bytes),
        tx_ns: net.tx_ns(1, bytes),
        prop_ns: net.prop_delay_ns.max(1),
        bytes,
    };

    let nshards = cfg.shards;
    let mpr = cfg.msgs_per_rank();
    let prime = (cfg.window as u64).min(mpr);
    let mut shards: Vec<ScaleShard> = (0..nshards)
        .map(|shard_id| {
            let owned = (0..cfg.ranks).filter(|r| *r as usize % nshards == shard_id);
            let ranks: Vec<RankModel> = owned.map(|_| RankModel::default()).collect();
            // One pending event per window slot in flight.
            let pending = Vec::with_capacity(ranks.len() * prime as usize);
            ScaleShard {
                cfg: cfg.clone(),
                costs,
                ranks,
                shard_id,
                pending,
                next: None,
                finish_ns: 0,
                msgs: 0,
                lost: 0,
                events: 0,
                scanned: 0,
            }
        })
        .collect();

    // Prime every rank's injection window at t = 0.
    for s in shards.iter_mut() {
        let (id, n) = (s.shard_id as u32, s.cfg.ranks);
        for r in (0..n).filter(|r| *r % nshards as u32 == id) {
            for k in 0..prime {
                let inject = s.claim_inject(0, r, k);
                s.push(inject);
            }
        }
    }

    // Seed the chaos plan: each fault becomes an event in its target
    // rank's owning shard, keyed `(time, kind, rank, plan-index)` —
    // the same partition-free total order as the traffic, which is
    // the whole determinism argument.
    for (i, f) in cfg.faults.events.iter().enumerate() {
        assert!(
            f.rank() < cfg.ranks,
            "fault targets rank {} of {}",
            f.rank(),
            cfg.ranks
        );
        let (kind, stall) = match *f {
            ScaleFault::Crash { .. } => (K_CRASH, 0),
            ScaleFault::Stall { stall_ns, .. } => {
                (K_STALL, stall_ns.min(u32::MAX as Time) as u32)
            }
        };
        shards[f.rank() as usize % nshards].push(Ev {
            time: f.at_ns(),
            kind,
            rank: f.rank(),
            id: i as u64,
            peer: stall,
        });
    }

    let mut sim = ShardSim::new(shards, costs.prop_ns, cfg.threads);
    let rounds = sim.run();
    let shards = sim.into_shards();

    // Fold per-rank digests in rank order; ranks interleave
    // round-robin across shards, so walk global rank ids.
    let mut fingerprint = FNV_OFFSET;
    let mut msgs = 0u64;
    let mut lost = 0u64;
    let mut crashed = 0u32;
    let mut finish_ns = 0;
    let mut state_bytes = 0usize;
    let mut events = 0u64;
    let mut scanned = 0u64;
    for s in &shards {
        msgs += s.msgs;
        lost += s.lost;
        events += s.events;
        scanned += s.scanned;
        finish_ns = finish_ns.max(s.finish_ns);
        state_bytes += s.ranks.capacity() * std::mem::size_of::<RankModel>()
            + s.pending.capacity() * std::mem::size_of::<Ev>();
    }
    let inert = cfg.faults.is_inert();
    for r in 0..cfg.ranks {
        let s = &shards[r as usize % nshards];
        let m = &s.ranks[r as usize / nshards];
        if inert {
            // Fault-free runs must complete exactly; chaotic runs
            // legitimately strand messages (dead receivers) and window
            // slots (acks that never came), all of it captured below.
            assert_eq!(
                m.recvd, mpr,
                "rank {r} received {} of {mpr} messages",
                m.recvd
            );
            assert_eq!(m.in_flight, 0, "rank {r} finished with sends in flight");
        }
        crashed += m.dead as u32;
        // Per-rank failure observations are part of the digest: a run
        // only fingerprints equal if every rank saw the same
        // completions, the same stuck slots, and the same crash fate.
        fingerprint = fnv(
            fnv(fnv(fnv(fingerprint, m.fp), m.recvd), m.in_flight as u64),
            m.dead as u64,
        );
    }

    ScaleReport {
        ranks: cfg.ranks,
        msgs,
        bytes: msgs * costs.bytes,
        finish_ns,
        rounds,
        fingerprint,
        crashed,
        lost,
        state_bytes,
        events,
        scanned,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alltoall_bit_identical_across_shard_and_thread_counts() {
        let reference = run_scale(&ScaleConfig {
            ranks: 48,
            shards: 1,
            threads: 1,
            ..ScaleConfig::default()
        });
        assert_eq!(reference.msgs, 48 * 47);
        for (shards, threads) in [(2, 1), (2, 2), (4, 2), (8, 8), (16, 3), (48, 8)] {
            let r = run_scale(&ScaleConfig {
                ranks: 48,
                shards,
                threads,
                ..ScaleConfig::default()
            });
            assert_eq!(
                (r.fingerprint, r.finish_ns, r.msgs, r.rounds),
                (
                    reference.fingerprint,
                    reference.finish_ns,
                    reference.msgs,
                    reference.rounds
                ),
                "shards={shards} threads={threads}"
            );
        }
    }

    #[test]
    fn ring_bit_identical_across_shard_and_thread_counts() {
        let cfg = ScaleConfig {
            ranks: 96,
            pattern: ScalePattern::Ring,
            columns: 16,
            ..ScaleConfig::default()
        };
        let reference = run_scale(&cfg);
        assert_eq!(reference.msgs, 96);
        for (shards, threads) in [(2, 2), (8, 4), (96, 8)] {
            let r = run_scale(&ScaleConfig {
                shards,
                threads,
                ..cfg.clone()
            });
            assert_eq!(
                (r.fingerprint, r.finish_ns),
                (reference.fingerprint, reference.finish_ns),
                "shards={shards} threads={threads}"
            );
        }
    }

    #[test]
    fn window_caps_concurrency_and_larger_messages_take_longer() {
        let small = run_scale(&ScaleConfig {
            ranks: 16,
            columns: 1,
            ..ScaleConfig::default()
        });
        let large = run_scale(&ScaleConfig {
            ranks: 16,
            columns: 64,
            ..ScaleConfig::default()
        });
        assert!(large.finish_ns > small.finish_ns);
        assert!(large.bytes > small.bytes);
        // A wider window can only help (or tie) the finish time.
        let wide = run_scale(&ScaleConfig {
            ranks: 16,
            columns: 1,
            window: 15,
            ..ScaleConfig::default()
        });
        assert!(wide.finish_ns <= small.finish_ns);
    }

    #[test]
    fn seeded_plan_is_reproducible_and_inert_plan_changes_nothing() {
        let a = ScaleFaultPlan::seeded(0xBEEF, 64, 3, 5, 1_000_000);
        let b = ScaleFaultPlan::seeded(0xBEEF, 64, 3, 5, 1_000_000);
        assert_eq!(a, b);
        assert_eq!(a.events.len(), 8);
        let crashes: Vec<u32> = a
            .events
            .iter()
            .filter_map(|f| match f {
                ScaleFault::Crash { rank, .. } => Some(*rank),
                _ => None,
            })
            .collect();
        assert_eq!(crashes.len(), 3);
        let mut distinct = crashes.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), 3, "crashes must hit distinct ranks");
        assert_ne!(
            a,
            ScaleFaultPlan::seeded(0xBEF0, 64, 3, 5, 1_000_000),
            "different seeds should give different plans"
        );

        // An inert plan is byte-for-byte the fault-free driver.
        let clean = run_scale(&ScaleConfig {
            ranks: 32,
            ..ScaleConfig::default()
        });
        let with_inert = run_scale(&ScaleConfig {
            ranks: 32,
            faults: ScaleFaultPlan::none(),
            ..ScaleConfig::default()
        });
        assert_eq!(clean, with_inert);
        assert_eq!(clean.crashed, 0);
        assert_eq!(clean.lost, 0);
    }

    #[test]
    fn chaotic_run_bit_identical_across_shard_and_thread_counts() {
        let faults = ScaleFaultPlan::seeded(0xC4A0, 48, 4, 6, 2_000_000);
        let cfg = ScaleConfig {
            ranks: 48,
            faults,
            ..ScaleConfig::default()
        };
        let reference = run_scale(&cfg);
        assert_eq!(reference.crashed, 4);
        assert!(reference.msgs < 48 * 47, "crashes must strand traffic");
        for (shards, threads) in [(2, 1), (2, 2), (8, 4), (16, 3), (48, 8)] {
            let r = run_scale(&ScaleConfig {
                shards,
                threads,
                ..cfg.clone()
            });
            assert_eq!(
                (r.fingerprint, r.finish_ns, r.msgs, r.crashed, r.lost),
                (
                    reference.fingerprint,
                    reference.finish_ns,
                    reference.msgs,
                    reference.crashed,
                    reference.lost
                ),
                "shards={shards} threads={threads}"
            );
        }
    }

    #[test]
    fn stalls_delay_but_lose_nothing() {
        let clean = run_scale(&ScaleConfig {
            ranks: 16,
            ..ScaleConfig::default()
        });
        let stalled = run_scale(&ScaleConfig {
            ranks: 16,
            faults: ScaleFaultPlan {
                seed: 0,
                events: vec![
                    ScaleFault::Stall {
                        at_ns: 10,
                        rank: 0,
                        stall_ns: 500_000,
                    },
                    ScaleFault::Stall {
                        at_ns: 10,
                        rank: 7,
                        stall_ns: 500_000,
                    },
                ],
            },
            ..ScaleConfig::default()
        });
        assert_eq!(stalled.msgs, clean.msgs, "stalls must not lose messages");
        assert_eq!(stalled.crashed, 0);
        assert_eq!(stalled.lost, 0);
        assert!(
            stalled.finish_ns > clean.finish_ns,
            "a half-millisecond NIC stall must show up in the finish time"
        );
    }

    #[test]
    fn crash_strands_peers_and_loses_in_flight_messages() {
        // Rank 1 dies early in a 8-rank alltoall: everyone else keeps
        // going, traffic toward rank 1 is lost, and the run still
        // quiesces (no hang) with the losses accounted.
        let r = run_scale(&ScaleConfig {
            ranks: 8,
            faults: ScaleFaultPlan {
                seed: 0,
                events: vec![ScaleFault::Crash { at_ns: 1, rank: 1 }],
            },
            ..ScaleConfig::default()
        });
        assert_eq!(r.crashed, 1);
        assert!(r.lost > 0, "peers keep sending to the dead rank");
        assert!(r.msgs > 0, "survivors still exchange traffic");
        assert!(r.msgs + r.lost < 8 * 7, "the dead rank stops sending");
    }

    #[test]
    fn state_scales_with_ranks_not_ranks_squared() {
        // Ring traffic holds the window at 1 message per rank, so the
        // driver's state must grow linearly with ranks.
        let a = run_scale(&ScaleConfig {
            ranks: 256,
            pattern: ScalePattern::Ring,
            ..ScaleConfig::default()
        });
        let b = run_scale(&ScaleConfig {
            ranks: 1024,
            pattern: ScalePattern::Ring,
            ..ScaleConfig::default()
        });
        // The event buffer is sized once from the window, so 4× the
        // ranks is exactly 4× the state, not 16× (quadratic).
        assert_eq!(
            b.state_bytes,
            a.state_bytes * 4,
            "state {} -> {}",
            a.state_bytes,
            b.state_bytes
        );
    }
}
