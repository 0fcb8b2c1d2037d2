//! Total-ordered event queue: a hierarchical timing wheel.
//!
//! Events are ordered by `(time, seq)` where `seq` is a monotonically
//! increasing insertion counter. Two events scheduled for the same
//! virtual instant are therefore delivered in the order they were
//! scheduled, which makes the whole simulation deterministic without any
//! reliance on heap tie-breaking behaviour.
//!
//! # Structure
//!
//! [`EventQueue`] is a hierarchical timing wheel over the 64-bit virtual
//! clock: 11 levels of 64 slots, level `g` indexed by bit group
//! `time >> 6g & 63`. An event lands on the level of the *highest* 6-bit
//! group in which its time differs from the current clock, so:
//!
//! * level 0 slots each hold exactly one absolute timestamp within the
//!   current 64-tick window — a slot drain is a **batch pop** of every
//!   event at that instant;
//! * higher levels hold coarser future windows and are *cascaded* (their
//!   first slot redistributed to lower levels) only when the clock
//!   reaches them. Each event cascades at most 10 times over the full
//!   64-bit horizon, so schedule and pop are O(1) amortized with a
//!   64-bit occupancy bitmap per level making empty-slot skips a single
//!   `trailing_zeros`.
//!
//! # Tie-break invariant
//!
//! A level-0 slot is sorted by `seq` as it is drained. Sorting on drain
//! (rather than relying on push order) is load-bearing: an event can
//! reach a slot either directly or by cascading from a higher level, and
//! the two paths interleave arbitrarily — push order within a slot is
//! *not* seq order, but the drained batch must be. A binary-heap
//! reference implementation, compiled only into this module's tests,
//! pins this order; the equivalence tests at the bottom of this file
//! compare the two on random schedules.
//!
//! # Storage
//!
//! Events live in one node arena recycled through an intrusive free
//! list; a slot is the head index of a singly-linked node list. This
//! shape is what makes the queue allocation-free once warm: per-slot
//! `Vec` buckets were measured re-growing forever (capacity left a slot
//! whenever its bucket was drained, so ~3 allocations per churn op),
//! whereas the arena grows to the pending-event high-water once and
//! then every schedule is a free-list pop and every cascade is an O(1)
//! relink that never moves a payload.

use crate::time::Time;
#[cfg(test)]
use std::cmp::Reverse;
#[cfg(test)]
use std::collections::BinaryHeap;

/// Bits per wheel level; a level spans 64 slots.
const GROUP_BITS: u32 = 6;
/// Levels needed to cover a 64-bit clock: ceil(64 / 6).
const LEVELS: usize = 11;
/// Slots per level.
const SLOTS: usize = 1 << GROUP_BITS;

/// Sentinel "no node" index for the intrusive lists.
const NIL: u32 = u32::MAX;

/// One arena node: an event linked into a wheel slot, or a member of
/// the free list (payload `None`, `next` chaining free nodes).
struct Node<E> {
    time: Time,
    seq: u64,
    next: u32,
    payload: Option<E>,
}

/// A deterministic event queue (hierarchical timing wheel).
///
/// `E` is the caller-defined event payload. The queue never inspects it.
/// Scheduling before the current clock (the time of the last popped
/// event) clamps to the clock, matching the engine's release-mode
/// behaviour.
pub struct EventQueue<E> {
    /// Node arena; freed nodes are recycled through `free`, so the
    /// arena only grows to the pending-event high-water mark.
    nodes: Vec<Node<E>>,
    /// Head of the intrusive free list (`NIL` when empty).
    free: u32,
    /// `LEVELS * SLOTS` list heads; head `g * SLOTS + s` is slot `s`
    /// of level `g`.
    heads: Vec<u32>,
    /// Per-level occupancy bitmap; bit `s` set iff slot `s` non-empty.
    occ: [u64; LEVELS],
    /// Current clock: time of the most recently popped event (or the
    /// base of the most recently cascaded window).
    cur: Time,
    /// Batch of same-timestamp events being drained, sorted by `seq`
    /// descending so `pop()` pops ascending from the back. Persistent
    /// scratch — its capacity converges to the largest batch.
    drain: Vec<(Time, u64, E)>,
    len: usize,
    next_seq: u64,
    scheduled: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self {
            nodes: Vec::new(),
            free: NIL,
            heads: vec![NIL; LEVELS * SLOTS],
            occ: [0; LEVELS],
            cur: 0,
            drain: Vec::new(),
            len: 0,
            next_seq: 0,
            scheduled: 0,
        }
    }

    /// Level of the highest 6-bit group in which `t` differs from the
    /// clock; 0 when equal.
    #[inline]
    fn level_of(&self, t: Time) -> usize {
        let d = t ^ self.cur;
        if d == 0 {
            0
        } else {
            ((63 - d.leading_zeros()) / GROUP_BITS) as usize
        }
    }

    #[inline]
    fn bucket(g: usize, t: Time) -> usize {
        g * SLOTS + ((t >> (GROUP_BITS * g as u32)) & (SLOTS as u64 - 1)) as usize
    }

    /// Schedules `payload` for delivery at absolute virtual time `time`.
    pub fn schedule(&mut self, time: Time, payload: E) {
        let t = time.max(self.cur);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled += 1;
        self.len += 1;
        let g = self.level_of(t);
        let b = Self::bucket(g, t);
        let head = self.heads[b];
        let idx = if self.free != NIL {
            let i = self.free;
            let n = &mut self.nodes[i as usize];
            self.free = n.next;
            n.time = t;
            n.seq = seq;
            n.next = head;
            n.payload = Some(payload);
            i
        } else {
            let i = self.nodes.len();
            assert!(i < NIL as usize, "event arena exceeds u32 indices");
            if self.nodes.capacity() == 0 {
                // One up-front arena block instead of doubling through
                // the first few schedules.
                self.nodes.reserve(64);
            }
            self.nodes.push(Node {
                time: t,
                seq,
                next: head,
                payload: Some(payload),
            });
            i as u32
        };
        self.heads[b] = idx;
        self.occ[g] |= 1 << (b - g * SLOTS);
    }

    /// Removes and returns the earliest event, or `None` when empty.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        if let Some((t, _, e)) = self.drain.pop() {
            self.len -= 1;
            return Some((t, e));
        }
        loop {
            let g = (0..LEVELS).find(|&g| self.occ[g] != 0)?;
            // Occupied slots never sit "behind" the clock's digit at
            // their level, so the lowest set bit is the earliest slot.
            let s = self.occ[g].trailing_zeros() as usize;
            self.occ[g] &= !(1u64 << s);
            let mut idx = std::mem::replace(&mut self.heads[g * SLOTS + s], NIL);
            if g == 0 {
                // Level-0 slot: every entry shares one absolute time —
                // this is the batch pop. Unlink each node into the
                // persistent drain buffer (returning it to the free
                // list), then sort by seq to restore FIFO across
                // direct-insert and cascade arrival paths.
                debug_assert!(self.drain.is_empty());
                if self.drain.capacity() == 0 {
                    self.drain.reserve(64);
                }
                while idx != NIL {
                    let n = &mut self.nodes[idx as usize];
                    let e = n.payload.take().expect("linked node has payload");
                    self.drain.push((n.time, n.seq, e));
                    let next = n.next;
                    n.next = self.free;
                    self.free = idx;
                    idx = next;
                }
                self.drain.sort_unstable_by_key(|e| std::cmp::Reverse(e.1));
                self.cur = self.drain[0].0;
                let (t, _, e) = self.drain.pop().expect("non-empty batch");
                self.len -= 1;
                return Some((t, e));
            }
            // Cascade: advance the clock to the window base (nothing
            // can exist before it) and redistribute to lower levels —
            // an O(1) relink per node, payloads never move.
            let shift = GROUP_BITS * g as u32;
            // u128 intermediate: shift + GROUP_BITS reaches 66 at the
            // top level, past u64.
            let prefix_mask = !(((1u128 << (shift + GROUP_BITS)) - 1) as u64);
            self.cur = (self.cur & prefix_mask) | ((s as u64) << shift);
            while idx != NIL {
                let t = self.nodes[idx as usize].time;
                let next = self.nodes[idx as usize].next;
                let ng = self.level_of(t);
                debug_assert!(ng < g, "cascade must strictly descend");
                let b = Self::bucket(ng, t);
                self.nodes[idx as usize].next = self.heads[b];
                self.heads[b] = idx;
                self.occ[ng] |= 1 << (b - ng * SLOTS);
                idx = next;
            }
        }
    }

    /// Virtual time of the earliest pending event.
    pub fn peek_time(&self) -> Option<Time> {
        if let Some(&(t, _, _)) = self.drain.last() {
            return Some(t);
        }
        let g = (0..LEVELS).find(|&g| self.occ[g] != 0)?;
        let s = self.occ[g].trailing_zeros() as usize;
        // Level 0: single timestamp. Higher levels: min over the list.
        let mut idx = self.heads[g * SLOTS + s];
        let mut min = None;
        while idx != NIL {
            let n = &self.nodes[idx as usize];
            min = Some(min.map_or(n.time, |m: Time| m.min(n.time)));
            idx = n.next;
        }
        min
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total number of events ever scheduled (for statistics).
    pub fn total_scheduled(&self) -> u64 {
        self.scheduled
    }

    /// Clears the queue back to its initial state — clock at 0, no
    /// pending events, counters zeroed — while retaining the node
    /// arena, slot-head table, and drain scratch capacity. A reset
    /// queue is indistinguishable from a fresh one, so short-lived
    /// simulations can recycle a warm queue without risking replay
    /// divergence.
    pub fn reset(&mut self) {
        self.nodes.clear();
        self.free = NIL;
        self.heads.fill(NIL);
        self.occ = [0; LEVELS];
        self.cur = 0;
        self.drain.clear();
        self.len = 0;
        self.next_seq = 0;
        self.scheduled = 0;
    }
}

/// An entry in the reference heap queue. Ordering is `(time, seq)`; the
/// payload does not participate in ordering.
#[cfg(test)]
struct Entry<E> {
    time: Time,
    seq: u64,
    payload: E,
}

#[cfg(test)]
impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
#[cfg(test)]
impl<E> Eq for Entry<E> {}
#[cfg(test)]
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
#[cfg(test)]
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// The pre-wheel binary-heap queue, kept as the *reference semantics*
/// for [`EventQueue`]: identical `(time, seq)` delivery order, O(log n)
/// operations. This module's equivalence tests compare the two
/// implementations on identical schedules; nothing else uses it.
#[cfg(test)]
pub struct HeapQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    next_seq: u64,
    scheduled: u64,
}

#[cfg(test)]
impl<E> Default for HeapQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
impl<E> HeapQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            next_seq: 0,
            scheduled: 0,
        }
    }

    /// Schedules `payload` for delivery at absolute virtual time `time`.
    pub fn schedule(&mut self, time: Time, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled += 1;
        self.heap.push(Reverse(Entry { time, seq, payload }));
    }

    /// Removes and returns the earliest event, or `None` when empty.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        self.heap.pop().map(|Reverse(e)| (e.time, e.payload))
    }

    /// Virtual time of the earliest pending event.
    pub fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|Reverse(e)| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total number of events ever scheduled (for statistics).
    pub fn total_scheduled(&self) -> u64 {
        self.scheduled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibdt_testkit::{cases, Rng};

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(30, "c");
        q.schedule(10, "a");
        q.schedule(20, "b");
        assert_eq!(q.pop(), Some((10, "a")));
        assert_eq!(q.pop(), Some((20, "b")));
        assert_eq!(q.pop(), Some((30, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(42, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((42, i)));
        }
    }

    #[test]
    fn peek_time_tracks_minimum() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.schedule(7, ());
        q.schedule(3, ());
        assert_eq!(q.peek_time(), Some(3));
        q.pop();
        assert_eq!(q.peek_time(), Some(7));
    }

    #[test]
    fn len_and_counters() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(1, ());
        q.schedule(2, ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.total_scheduled(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        assert_eq!(q.total_scheduled(), 2);
    }

    #[test]
    fn interleaved_schedule_and_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.schedule(5, 5);
        q.schedule(1, 1);
        assert_eq!(q.pop(), Some((1, 1)));
        q.schedule(3, 3);
        q.schedule(2, 2);
        assert_eq!(q.pop(), Some((2, 2)));
        assert_eq!(q.pop(), Some((3, 3)));
        assert_eq!(q.pop(), Some((5, 5)));
    }

    #[test]
    fn wide_time_jumps_cascade_correctly() {
        let mut q = EventQueue::new();
        // Spread across many wheel levels, including far horizons.
        let times = [
            u64::MAX - 1,
            1u64 << 40,
            (1 << 40) + 1,
            1 << 13,
            65,
            64,
            63,
            1,
            0,
        ];
        for (i, &t) in times.iter().enumerate() {
            q.schedule(t, i);
        }
        let mut sorted: Vec<u64> = times.to_vec();
        sorted.sort_unstable();
        for t in sorted {
            let (pt, _) = q.pop().unwrap();
            assert_eq!(pt, t);
        }
        assert!(q.is_empty());
    }

    #[test]
    fn same_time_via_direct_and_cascade_paths_pops_in_seq_order() {
        let mut q = EventQueue::new();
        // Event 0 lands on a high level (far from clock 0); event 1 at
        // the same instant is scheduled after the clock advanced close
        // to it, landing on level 0 directly. Seq order must survive.
        q.schedule(1000, 0u32);
        q.schedule(990, 99);
        assert_eq!(q.pop(), Some((990, 99))); // clock now 990
        q.schedule(1000, 1);
        assert_eq!(q.pop(), Some((1000, 0)));
        assert_eq!(q.pop(), Some((1000, 1)));
    }

    #[test]
    fn schedule_before_clock_clamps_to_clock() {
        let mut q = EventQueue::new();
        q.schedule(100, "a");
        assert_eq!(q.pop(), Some((100, "a")));
        q.schedule(5, "late");
        assert_eq!(q.pop(), Some((100, "late")));
    }

    #[test]
    fn wheel_matches_heap_on_seeded_random_schedule() {
        // Deterministic xorshift; interleaves schedules and pops.
        let mut s: u64 = 0x9E3779B97F4A7C15;
        let mut rng = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let mut wheel = EventQueue::new();
        let mut heap = HeapQueue::new();
        let mut clock = 0u64;
        for i in 0..10_000u64 {
            let r = rng();
            if r % 4 == 0 {
                if let Some((tw, ew)) = wheel.pop() {
                    let (th, eh) = heap.pop().unwrap();
                    assert_eq!((tw, ew), (th, eh), "step {i}");
                    clock = tw;
                }
            } else {
                // Mix of near, same-instant, and far-future times.
                let dt = match r % 5 {
                    0 => 0,
                    1 => r % 64,
                    2 => r % 4096,
                    3 => r % (1 << 20),
                    _ => r % (1 << 36),
                };
                wheel.schedule(clock + dt, i);
                heap.schedule(clock + dt, i);
            }
            assert_eq!(wheel.len(), heap.len());
            assert_eq!(wheel.peek_time(), heap.peek_time());
        }
        loop {
            let a = wheel.pop();
            let b = heap.pop();
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn timing_wheel_equals_heap_queue_on_random_churn() {
        cases(0x51C0_0004, 512, |rng: &mut Rng| {
            // The wheel replaced the binary heap; every seeded run must
            // stay bit-identical, so the two queues must agree on every
            // pop — time, payload, and FIFO order among ties — under a
            // simulator-shaped mix of schedules and pops, including
            // far-future timers that cross wheel levels and same-tick
            // bursts that stress the tie-break.
            let nops = rng.range_usize(1, 400);
            let mut wheel: EventQueue<u32> = EventQueue::new();
            let mut heap: HeapQueue<u32> = HeapQueue::new();
            let mut clock = 0u64;
            let mut seq = 0u32;
            for _ in 0..nops {
                if rng.chance(0.6) {
                    let dt = match rng.range_u64(0, 3) {
                        0 => rng.range_u64(0, 8),          // same-tick burst
                        1 => rng.range_u64(0, 4_096),      // near future
                        _ => rng.range_u64(0, 40_000_000), // far timer
                    };
                    wheel.schedule(clock + dt, seq);
                    heap.schedule(clock + dt, seq);
                    seq += 1;
                } else {
                    let w = wheel.pop();
                    let h = heap.pop();
                    assert_eq!(w, h, "queues diverged after {seq} schedules");
                    if let Some((t, _)) = w {
                        clock = t;
                    }
                }
                assert_eq!(wheel.len(), heap.len());
                assert_eq!(wheel.peek_time(), heap.peek_time());
            }
            // Drain: the full remaining order must match too.
            loop {
                let w = wheel.pop();
                let h = heap.pop();
                assert_eq!(w, h, "queues diverged during drain");
                if w.is_none() {
                    break;
                }
            }
        });
    }
}
