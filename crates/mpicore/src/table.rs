//! Hash-free, allocation-free lookup tables for in-flight message
//! records.
//!
//! Both key spaces are small and structured: peers are dense rank ids
//! fixed at cluster construction, and sequence numbers are per-peer
//! monotonic, so the set of in-flight seqs per peer is a small sorted
//! window. [`MsgTable`] keeps records in a generational [`Slab`] (slot
//! reuse, stable handles) and maps keys to slots through a per-peer
//! sorted `(seq, handle)` window — a `Vec` whose capacity is retained
//! across messages — with a binary search. Every per-peer structure is
//! one entry of a `Vec` indexed by rank.
//!
//! The method names follow the standard maps' (`insert` / `remove` /
//! `get` / `get_mut` / `contains_key`), so the protocol code reads as
//! map code.
//!
//! [`ImmMap`] is the same idea for the immediate-data demux
//! (`(peer, seq16)` → full seq): a per-peer scan of the tiny in-flight
//! window, no hashing, no steady-state allocation. [`DoneSet`] tracks
//! completed seqs per peer as a watermark plus a sorted window.

use ibdt_simcore::slab::{Handle, Slab};

/// A `(peer, seq)`-keyed table of in-flight message records. See the
/// module docs.
#[derive(Debug)]
pub struct MsgTable<T> {
    slab: Slab<T>,
    /// Per-peer sorted `(seq, handle)` windows. Seqs are per-peer
    /// monotonic, so insertion is almost always a push at the tail;
    /// the vectors keep their capacity as messages retire.
    index: Vec<Vec<(u64, Handle)>>,
}

impl<T> MsgTable<T> {
    /// An empty table for `nprocs` peers.
    pub fn new(nprocs: usize) -> Self {
        MsgTable {
            slab: Slab::new(),
            index: vec![Vec::new(); nprocs],
        }
    }

    fn window(&self, peer: u32) -> &[(u64, Handle)] {
        &self.index[peer as usize]
    }

    /// Empties the table, keeping the slab's and the per-peer windows'
    /// capacity (world recycling).
    pub fn reset(&mut self) {
        self.slab.clear();
        self.index.iter_mut().for_each(Vec::clear);
    }

    /// Inserts a record, returning the previous one under the same key
    /// (the remove-mutate-reinsert pattern the protocol uses).
    pub fn insert(&mut self, key: (u32, u64), value: T) -> Option<T> {
        let (peer, seq) = key;
        match self.window(peer).binary_search_by_key(&seq, |e| e.0) {
            Ok(pos) => {
                let h = self.index[peer as usize][pos].1;
                let old = self.slab.remove(h);
                let nh = self.slab.insert(value);
                self.index[peer as usize][pos].1 = nh;
                old
            }
            Err(pos) => {
                let h = self.slab.insert(value);
                self.index[peer as usize].insert(pos, (seq, h));
                None
            }
        }
    }

    /// Removes and returns the record under `key`.
    pub fn remove(&mut self, key: &(u32, u64)) -> Option<T> {
        let (peer, seq) = *key;
        let pos = self.window(peer).binary_search_by_key(&seq, |e| e.0).ok()?;
        let (_, h) = self.index[peer as usize].remove(pos);
        self.slab.remove(h)
    }

    /// Shared access to the record under `key`.
    pub fn get(&self, key: &(u32, u64)) -> Option<&T> {
        let (peer, seq) = *key;
        let pos = self.window(peer).binary_search_by_key(&seq, |e| e.0).ok()?;
        self.slab.get(self.index[peer as usize][pos].1)
    }

    /// Mutable access to the record under `key`.
    pub fn get_mut(&mut self, key: &(u32, u64)) -> Option<&mut T> {
        let (peer, seq) = *key;
        let pos = self.window(peer).binary_search_by_key(&seq, |e| e.0).ok()?;
        let h = self.index[peer as usize][pos].1;
        self.slab.get_mut(h)
    }

    /// True when a record exists under `key`.
    pub fn contains_key(&self, key: &(u32, u64)) -> bool {
        let (peer, seq) = *key;
        self.window(peer)
            .binary_search_by_key(&seq, |e| e.0)
            .is_ok()
    }

    /// True when no records are live.
    pub fn is_empty(&self) -> bool {
        self.slab.is_empty()
    }

    /// Number of live records.
    pub fn len(&self) -> usize {
        self.slab.len()
    }

    /// Live records with their keys, in `(peer, seq)` order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = ((u32, u64), &T)> {
        self.index.iter().enumerate().flat_map(move |(peer, w)| {
            w.iter()
                .filter_map(move |&(seq, h)| Some(((peer as u32, seq), self.slab.get(h)?)))
        })
    }
}

/// Immediate-data demux: `(peer, seq16)` → full sequence number. The
/// in-flight window per peer is tiny, so lookups are a linear scan of
/// a capacity-retaining `Vec` — no hashing, no steady-state
/// allocation. Never iterated, so removal order is free to be
/// `swap_remove`.
#[derive(Debug)]
pub struct ImmMap {
    slots: Vec<Vec<(u16, u64)>>,
}

impl ImmMap {
    /// An empty demux table for `nprocs` peers.
    pub fn new(nprocs: usize) -> Self {
        ImmMap {
            slots: vec![Vec::new(); nprocs],
        }
    }

    /// Empties the demux table, keeping window capacity (world
    /// recycling).
    pub fn reset(&mut self) {
        self.slots.iter_mut().for_each(Vec::clear);
    }

    /// Registers `seq16 → seq` for `peer`.
    pub fn insert(&mut self, key: (u32, u16), seq: u64) {
        let (peer, seq16) = key;
        let w = &mut self.slots[peer as usize];
        if let Some(e) = w.iter_mut().find(|e| e.0 == seq16) {
            e.1 = seq;
        } else {
            w.push((seq16, seq));
        }
    }

    /// Resolves `seq16` for `peer`.
    pub fn get(&self, key: &(u32, u16)) -> Option<&u64> {
        let (peer, seq16) = *key;
        self.slots[peer as usize]
            .iter()
            .find(|e| e.0 == seq16)
            .map(|e| &e.1)
    }

    /// Drops the mapping for `(peer, seq16)`.
    pub fn remove(&mut self, key: &(u32, u16)) -> Option<u64> {
        let (peer, seq16) = *key;
        let w = &mut self.slots[peer as usize];
        let pos = w.iter().position(|e| e.0 == seq16)?;
        Some(w.swap_remove(pos).1)
    }
}

/// Completed-sequence tracking per peer: a watermark plus a small
/// sorted window of out-of-order completions above it.
///
/// Sequence numbers are per-peer monotonic and complete almost in
/// order, so nearly every insert just advances the watermark; the
/// window vector handles stragglers and keeps its capacity, making
/// steady-state inserts and probes allocation- and hash-free.
#[derive(Debug)]
pub struct DoneSet {
    peers: Vec<DonePeer>,
}

#[derive(Debug, Default)]
struct DonePeer {
    /// Every seq `< watermark` is done.
    watermark: u64,
    /// Done seqs `>= watermark`, sorted ascending.
    above: Vec<u64>,
}

impl DoneSet {
    /// An empty set for `nprocs` peers.
    pub fn new(nprocs: usize) -> Self {
        DoneSet {
            peers: (0..nprocs).map(|_| DonePeer::default()).collect(),
        }
    }

    /// Empties the set, keeping window capacity (world recycling).
    pub fn reset(&mut self) {
        for p in &mut self.peers {
            p.watermark = 0;
            p.above.clear();
        }
    }

    /// Records `(peer, seq)` as done.
    pub fn insert(&mut self, key: (u32, u64)) {
        let (peer, seq) = key;
        let p = &mut self.peers[peer as usize];
        if seq < p.watermark {
            return;
        }
        if seq == p.watermark {
            p.watermark += 1;
            // Absorb any stragglers now contiguous with the watermark.
            let mut k = 0;
            while k < p.above.len() && p.above[k] == p.watermark {
                p.watermark += 1;
                k += 1;
            }
            p.above.drain(..k);
            return;
        }
        if let Err(pos) = p.above.binary_search(&seq) {
            p.above.insert(pos, seq);
        }
    }

    /// True when `(peer, seq)` was recorded as done.
    pub fn contains(&self, key: &(u32, u64)) -> bool {
        let (peer, seq) = *key;
        let p = &self.peers[peer as usize];
        seq < p.watermark || p.above.binary_search(&seq).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn msg_table_mirrors_hashmap_semantics() {
        let mut t: MsgTable<String> = MsgTable::new(3);
        assert!(t.is_empty());
        assert_eq!(t.insert((1, 10), "a".into()), None);
        assert_eq!(t.insert((1, 11), "b".into()), None);
        assert_eq!(t.insert((2, 10), "c".into()), None);
        assert_eq!(t.len(), 3);
        assert!(t.contains_key(&(1, 10)));
        assert!(!t.contains_key(&(0, 10)));
        assert_eq!(t.get(&(1, 11)).map(String::as_str), Some("b"));
        t.get_mut(&(1, 11)).unwrap().push('!');
        assert_eq!(t.remove(&(1, 11)).as_deref(), Some("b!"));
        assert_eq!(t.remove(&(1, 11)), None);
        // Replacement returns the old value.
        assert_eq!(t.insert((2, 10), "d".into()).as_deref(), Some("c"));
        assert_eq!(t.get(&(2, 10)).map(String::as_str), Some("d"));
    }

    #[test]
    fn msg_table_out_of_order_insert() {
        // Recovery re-drives can reinsert an older seq after newer ones.
        let mut t: MsgTable<u32> = MsgTable::new(2);
        t.insert((0, 5), 50);
        t.insert((0, 7), 70);
        t.insert((0, 6), 60);
        assert_eq!(t.get(&(0, 5)), Some(&50));
        assert_eq!(t.get(&(0, 6)), Some(&60));
        assert_eq!(t.get(&(0, 7)), Some(&70));
    }

    #[test]
    fn msg_table_steady_state_reuses_capacity() {
        let mut t: MsgTable<u64> = MsgTable::new(1);
        for seq in 0..4u64 {
            t.insert((0, seq), seq);
        }
        for seq in 0..4u64 {
            t.remove(&(0, seq));
        }
        let cap = t.index[0].capacity();
        for round in 4..200u64 {
            t.insert((0, round), round);
            assert_eq!(t.remove(&(0, round)), Some(round));
        }
        assert_eq!(t.index[0].capacity(), cap, "steady churn must not grow");
        assert!(t.is_empty());
    }

    #[test]
    fn done_set_watermark_and_stragglers() {
        let mut d = DoneSet::new(2);
        assert!(!d.contains(&(0, 0)));
        d.insert((0, 0));
        d.insert((0, 1));
        assert!(d.contains(&(0, 0)) && d.contains(&(0, 1)));
        assert!(!d.contains(&(0, 2)));
        // Out-of-order completions park above the watermark...
        d.insert((0, 3));
        d.insert((0, 5));
        assert!(d.contains(&(0, 3)) && d.contains(&(0, 5)));
        assert!(!d.contains(&(0, 2)) && !d.contains(&(0, 4)));
        // ...and are absorbed when the gap fills.
        d.insert((0, 2));
        assert!(d.contains(&(0, 2)));
        assert_eq!(d.peers[0].watermark, 4);
        assert_eq!(d.peers[0].above, vec![5]);
        // Duplicate inserts are idempotent; peers are independent.
        d.insert((0, 3));
        assert!(!d.contains(&(1, 0)));
    }

    #[test]
    fn imm_map_roundtrip() {
        let mut m = ImmMap::new(2);
        m.insert((0, 7), 0x10007);
        m.insert((1, 7), 0x20007);
        assert_eq!(m.get(&(0, 7)), Some(&0x10007));
        assert_eq!(m.get(&(1, 7)), Some(&0x20007));
        assert_eq!(m.remove(&(0, 7)), Some(0x10007));
        assert_eq!(m.get(&(0, 7)), None);
        // Re-registering a wrapped seq16 overwrites.
        m.insert((1, 7), 0x30007);
        assert_eq!(m.get(&(1, 7)), Some(&0x30007));
    }
}
