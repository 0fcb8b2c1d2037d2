//! Generational slab arena for in-flight records.
//!
//! The protocol and fabric engines used to key in-flight records
//! (retransmit tickets, rendezvous messages) in `HashMap`s, paying a
//! SipHash round plus occasional table growth per message. A [`Slab`]
//! replaces that with index arithmetic: insertion pops a free slot (or
//! appends once, after which the slot is reused forever), removal pushes
//! the slot back onto an intrusive free list, and lookups are a bounds
//! check plus a generation compare.
//!
//! Handles are *generational*: each slot carries a generation counter
//! bumped on removal, and a [`Handle`] embeds the generation it was
//! minted with. A stale handle — one whose record was removed (or whose
//! slot was re-used) — simply resolves to `None`, exactly the semantics
//! the former `HashMap::remove` gave to late timer events racing a
//! flush.
//!
//! Iteration ([`Slab::iter`]) visits occupied slots in **index order**,
//! which is a function of the insertion/removal history and therefore
//! deterministic — but *not* insertion order once slots recycle. Callers
//! that need a deterministic replay order (e.g. the fabric flushing
//! in-flight transfers oldest-first) must carry their own monotonic
//! stamp and sort on it; see the `order` of the fabric's `Stage::Retry`.

/// A stable, generational reference to a slab slot.
///
/// Packed as `generation << 32 | index` so it can travel through `u64`
/// event payloads unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Handle(u64);

impl Handle {
    /// Rebuilds a handle from its `u64` wire form.
    pub fn from_bits(bits: u64) -> Self {
        Handle(bits)
    }

    /// The `u64` wire form (`generation << 32 | index`).
    pub fn bits(self) -> u64 {
        self.0
    }

    fn new(index: u32, generation: u32) -> Self {
        Handle((generation as u64) << 32 | index as u64)
    }

    fn index(self) -> usize {
        (self.0 & 0xFFFF_FFFF) as usize
    }

    fn generation(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

#[derive(Debug)]
enum Slot<T> {
    /// Occupied slot and the generation its handle carries.
    Full { generation: u32, value: T },
    /// Free slot: next free index (intrusive list), `u32::MAX` = end.
    Free { generation: u32, next_free: u32 },
}

/// A generational slab arena. See the module docs.
#[derive(Debug)]
pub struct Slab<T> {
    slots: Vec<Slot<T>>,
    /// Head of the free list (`u32::MAX` = empty).
    free_head: u32,
    len: usize,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Self::new()
    }
}

const NIL: u32 = u32::MAX;

impl<T> Slab<T> {
    /// An empty slab (no allocation until the first insert).
    pub fn new() -> Self {
        Slab {
            slots: Vec::new(),
            free_head: NIL,
            len: 0,
        }
    }

    /// An empty slab with capacity for `cap` records.
    pub fn with_capacity(cap: usize) -> Self {
        Slab {
            slots: Vec::with_capacity(cap),
            free_head: NIL,
            len: 0,
        }
    }

    /// Number of live records.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no records are live.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts a record, returning its handle. Reuses a free slot when
    /// one exists; steady-state insert/remove cycles never allocate.
    pub fn insert(&mut self, value: T) -> Handle {
        self.len += 1;
        if self.free_head != NIL {
            let idx = self.free_head;
            let Slot::Free {
                generation,
                next_free,
            } = self.slots[idx as usize]
            else {
                unreachable!("free list points at an occupied slot");
            };
            self.free_head = next_free;
            self.slots[idx as usize] = Slot::Full { generation, value };
            Handle::new(idx, generation)
        } else {
            let idx = self.slots.len() as u32;
            assert!(idx != NIL, "slab exceeded 2^32 - 1 slots");
            self.slots.push(Slot::Full {
                generation: 0,
                value,
            });
            Handle::new(idx, 0)
        }
    }

    /// Removes the record behind `h`, or `None` when the handle is
    /// stale (already removed, possibly with its slot since reused).
    pub fn remove(&mut self, h: Handle) -> Option<T> {
        let idx = h.index();
        match self.slots.get(idx) {
            Some(Slot::Full { generation, .. }) if *generation == h.generation() => {}
            _ => return None,
        }
        let next_gen = h.generation().wrapping_add(1);
        let slot = std::mem::replace(
            &mut self.slots[idx],
            Slot::Free {
                generation: next_gen,
                next_free: self.free_head,
            },
        );
        self.free_head = idx as u32;
        self.len -= 1;
        match slot {
            Slot::Full { value, .. } => Some(value),
            Slot::Free { .. } => unreachable!("checked Full above"),
        }
    }

    /// Shared access to the record behind `h` (`None` when stale).
    pub fn get(&self, h: Handle) -> Option<&T> {
        match self.slots.get(h.index()) {
            Some(Slot::Full { generation, value }) if *generation == h.generation() => Some(value),
            _ => None,
        }
    }

    /// Mutable access to the record behind `h` (`None` when stale).
    pub fn get_mut(&mut self, h: Handle) -> Option<&mut T> {
        match self.slots.get_mut(h.index()) {
            Some(Slot::Full { generation, value }) if *generation == h.generation() => Some(value),
            _ => None,
        }
    }

    /// Iterates live records in slot-index order (deterministic, but
    /// not insertion order once slots recycle — see module docs).
    pub fn iter(&self) -> impl Iterator<Item = (Handle, &T)> {
        self.slots.iter().enumerate().filter_map(|(i, s)| match s {
            Slot::Full { generation, value } => Some((Handle::new(i as u32, *generation), value)),
            Slot::Free { .. } => None,
        })
    }

    /// Removes every record, keeping slot storage for reuse.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.free_head = NIL;
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut s = Slab::new();
        let a = s.insert("a");
        let b = s.insert("b");
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(a), Some(&"a"));
        assert_eq!(s.get(b), Some(&"b"));
        assert_eq!(s.remove(a), Some("a"));
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(a), None);
        assert_eq!(s.remove(a), None, "double remove is a stale miss");
        assert_eq!(s.remove(b), Some("b"));
        assert!(s.is_empty());
    }

    #[test]
    fn stale_handle_survives_slot_reuse() {
        let mut s = Slab::new();
        let a = s.insert(1u32);
        s.remove(a);
        let b = s.insert(2u32);
        // Same slot, new generation: the old handle stays dead.
        assert_eq!(b.index(), a.index());
        assert_ne!(a, b);
        assert_eq!(s.get(a), None);
        assert_eq!(s.remove(a), None);
        assert_eq!(s.get(b), Some(&2));
    }

    #[test]
    fn handle_round_trips_through_bits() {
        let mut s = Slab::new();
        let h = s.insert(42u64);
        let h2 = Handle::from_bits(h.bits());
        assert_eq!(s.get(h2), Some(&42));
    }

    #[test]
    fn steady_state_reuses_slots_without_growth() {
        let mut s = Slab::with_capacity(4);
        let cap_probe = |s: &Slab<u64>| s.slots.capacity();
        for i in 0..4 {
            s.insert(i);
        }
        let cap = cap_probe(&s);
        let handles: Vec<Handle> = s.iter().map(|(h, _)| h).collect();
        for h in handles {
            s.remove(h);
        }
        for round in 0..100u64 {
            let h1 = s.insert(round);
            let h2 = s.insert(round + 1);
            assert_eq!(s.remove(h1), Some(round));
            assert_eq!(s.remove(h2), Some(round + 1));
        }
        assert_eq!(cap_probe(&s), cap, "steady churn must not grow the slab");
    }

    #[test]
    fn iter_visits_occupied_in_index_order() {
        let mut s = Slab::new();
        let a = s.insert(10);
        let b = s.insert(20);
        let c = s.insert(30);
        s.remove(b);
        let got: Vec<(usize, i32)> = s.iter().map(|(h, &v)| (h.index(), v)).collect();
        assert_eq!(got, vec![(a.index(), 10), (c.index(), 30)]);
    }

    #[test]
    fn clear_resets_everything() {
        let mut s = Slab::new();
        let a = s.insert(1);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.get(a), None);
        let _ = s.insert(2);
        assert_eq!(s.len(), 1);
    }
}
