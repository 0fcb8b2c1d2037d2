//! Pin-down cache (Tezuka et al., ref \[12\]).
//!
//! Registrations are cached after use instead of being torn down, so an
//! application that reuses communication buffers pays the registration
//! cost once. The paper's §6 argues this is the common case ("many
//! applications use only several buffers for all communication"), while
//! §8.6 measures the worst case with the cache defeated — both modes are
//! supported here.
//!
//! The cache holds *whole-region* entries; an acquire hits when a cached
//! live region fully covers the requested range, and among several
//! covering regions the one with the smallest lkey wins. Entries are
//! kept sorted by start address, so a lookup is a binary search over
//! the entries that start close enough below the range to cover it —
//! the interval lookup of MVAPICH-style registration caches. Eviction
//! is LRU over entries with no active users, bounded by a pinned-bytes
//! capacity.

use crate::addr::Va;
use crate::cost::RegCostModel;
use crate::error::MemError;
use crate::table::{MrHandle, RegTable, Registration};
use ibdt_simcore::time::Time;

/// Result of [`PindownCache::acquire`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Acquire {
    /// The registration to use for the access.
    pub reg: Registration,
    /// Host time charged for registration work (0 on a hit).
    pub cost_ns: Time,
    /// True when served from cache.
    pub hit: bool,
}

#[derive(Debug)]
struct Entry {
    reg: Registration,
    refs: u32,
    last_use: u64,
}

impl Entry {
    /// Sort key of the entry list.
    fn key(&self) -> (Va, u32) {
        (self.reg.addr, self.reg.lkey)
    }
}

/// An LRU pin-down cache over a [`RegTable`].
#[derive(Debug)]
pub struct PindownCache {
    /// Cached regions, sorted by (start address, lkey).
    entries: Vec<Entry>,
    /// Longest region cached since the last reset: a region covering
    /// `[addr, end)` starts no lower than `end - max_len`.
    max_len: u64,
    /// Bytes pinned by entries with no active users.
    idle_bytes: u64,
    capacity_bytes: u64,
    enabled: bool,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl PindownCache {
    /// Creates a cache bounded to `capacity_bytes` of idle pinned memory.
    pub fn new(capacity_bytes: u64) -> Self {
        Self {
            entries: Vec::new(),
            max_len: 0,
            idle_bytes: 0,
            capacity_bytes,
            enabled: true,
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Creates a disabled cache: every acquire registers on the fly and
    /// every release deregisters immediately. Used by the worst-case
    /// buffer-usage experiment (Fig. 14).
    pub fn disabled() -> Self {
        let mut c = Self::new(0);
        c.enabled = false;
        c
    }

    /// Empties the cache and zeroes its counters, keeping the entry
    /// list's capacity, and configures it as [`Self::new`] with
    /// `capacity_bytes` does when `enabled`, else as
    /// [`Self::disabled`]. The caller is responsible for the underlying
    /// [`RegTable`] — a recycled world resets that table wholesale, so
    /// entries are not deregistered one by one here.
    pub fn reset(&mut self, enabled: bool, capacity_bytes: u64) {
        self.enabled = enabled;
        self.capacity_bytes = if enabled { capacity_bytes } else { 0 };
        self.entries.clear();
        self.max_len = 0;
        self.idle_bytes = 0;
        self.tick = 0;
        self.hits = 0;
        self.misses = 0;
        self.evictions = 0;
    }

    /// Acquires a registration covering `[addr, addr+len)`, registering
    /// through `table` on a miss. The returned cost is the host time to
    /// charge (registration on a miss plus any eviction deregistrations).
    pub fn acquire(
        &mut self,
        table: &mut RegTable,
        model: &RegCostModel,
        addr: Va,
        len: u64,
    ) -> Acquire {
        self.tick += 1;
        if self.enabled {
            if let Some(i) = self.covering(addr, len) {
                let e = &mut self.entries[i];
                if e.refs == 0 {
                    self.idle_bytes -= e.reg.len;
                }
                e.refs += 1;
                e.last_use = self.tick;
                self.hits += 1;
                return Acquire {
                    reg: e.reg,
                    cost_ns: 0,
                    hit: true,
                };
            }
        }
        self.misses += 1;
        let reg = table.register(addr, len);
        let mut cost = model.reg_cost(addr, len);
        if self.enabled {
            let entry = Entry {
                reg,
                refs: 1,
                last_use: self.tick,
            };
            let pos = self.entries.partition_point(|e| e.key() < entry.key());
            self.entries.insert(pos, entry);
            self.max_len = self.max_len.max(len);
            cost += self.evict_excess(table, model);
        }
        Acquire {
            reg,
            cost_ns: cost,
            hit: false,
        }
    }

    /// Releases a previously acquired registration. Returns the host time
    /// to charge (non-zero only when the cache is disabled, which
    /// deregisters immediately).
    pub fn release(
        &mut self,
        table: &mut RegTable,
        model: &RegCostModel,
        lkey: u32,
    ) -> Result<Time, MemError> {
        if !self.enabled {
            let reg = table.deregister(MrHandle(lkey))?;
            return Ok(model.dereg_cost(reg.addr, reg.len));
        }
        let e = self
            .position(table, lkey)
            .map(|i| &mut self.entries[i])
            .filter(|e| e.refs > 0)
            .ok_or(MemError::BadKey { key: lkey })?;
        e.refs -= 1;
        if e.refs == 0 {
            self.idle_bytes += e.reg.len;
        }
        Ok(0)
    }

    /// Forcibly evicts the cached entry holding `lkey`, deregistering
    /// it even while in use. This models the §5.4.2 race where the
    /// pin-down cache reclaims a region an in-flight zero-copy scheme
    /// still references: the key dies in the table, so a remote access
    /// against it fails its rkey check, and a later [`release`] of the
    /// key reports [`MemError::BadKey`] (which the holder must treat as
    /// "already evicted"). Returns true when an entry was evicted.
    ///
    /// [`release`]: PindownCache::release
    pub fn force_evict(&mut self, table: &mut RegTable, lkey: u32) -> bool {
        let Some(pos) = self.position(table, lkey) else {
            return false;
        };
        let victim = self.entries.remove(pos);
        if victim.refs == 0 {
            self.idle_bytes -= victim.reg.len;
        }
        let _ = table.deregister(MrHandle(victim.reg.lkey));
        self.evictions += 1;
        true
    }

    /// Index of the entry covering `[addr, addr+len)` with the smallest
    /// lkey. Only entries starting in `[addr + len - max_len, addr]`
    /// can cover the range, and the sort order puts them in one window.
    fn covering(&self, addr: Va, len: u64) -> Option<usize> {
        let end = addr.checked_add(len)?;
        let lo_addr = end.saturating_sub(self.max_len);
        let lo = self.entries.partition_point(|e| e.reg.addr < lo_addr);
        let hi = self.entries.partition_point(|e| e.reg.addr <= addr);
        (lo..hi)
            .filter(|&i| self.entries[i].reg.covers(addr, len))
            .min_by_key(|&i| self.entries[i].reg.lkey)
    }

    /// Index of the entry holding `lkey`, found through the table's
    /// record of its start address.
    fn position(&self, table: &RegTable, lkey: u32) -> Option<usize> {
        let reg = table.get(lkey)?;
        self.entries
            .binary_search_by_key(&(reg.addr, lkey), Entry::key)
            .ok()
    }

    /// Evicts idle LRU entries until idle pinned bytes fit the capacity.
    fn evict_excess(&mut self, table: &mut RegTable, model: &RegCostModel) -> Time {
        let mut cost = 0;
        while self.idle_bytes > self.capacity_bytes {
            let victim_idx = self
                .entries
                .iter()
                .enumerate()
                .filter(|(_, e)| e.refs == 0)
                .min_by_key(|(_, e)| e.last_use)
                .map(|(i, _)| i)
                .expect("idle_bytes > 0 implies an idle entry exists");
            let victim = self.entries.remove(victim_idx);
            self.idle_bytes -= victim.reg.len;
            // The table entry must be live; a missing key here is a cache
            // invariant violation.
            table
                .deregister(MrHandle(victim.reg.lkey))
                .expect("cached registration vanished from table");
            cost += model.dereg_cost(victim.reg.addr, victim.reg.len);
            self.evictions += 1;
        }
        cost
    }

    /// Flushes all idle entries (deregistering them); returns total cost.
    pub fn flush(&mut self, table: &mut RegTable, model: &RegCostModel) -> Time {
        let mut cost = 0;
        self.entries.retain(|e| {
            if e.refs > 0 {
                return true;
            }
            table
                .deregister(MrHandle(e.reg.lkey))
                .expect("cached registration vanished from table");
            cost += model.dereg_cost(e.reg.addr, e.reg.len);
            false
        });
        self.idle_bytes = 0;
        cost
    }

    /// (hits, misses, evictions) counters.
    pub fn stats(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.evictions)
    }

    /// Number of cached entries (idle or in use).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture() -> (RegTable, RegCostModel, PindownCache) {
        (
            RegTable::new(),
            RegCostModel::default(),
            PindownCache::new(1 << 20),
        )
    }

    #[test]
    fn first_acquire_misses_then_hits() {
        let (mut t, m, mut c) = fixture();
        let a1 = c.acquire(&mut t, &m, 0x1000, 256);
        assert!(!a1.hit);
        assert!(a1.cost_ns > 0);
        c.release(&mut t, &m, a1.reg.lkey).unwrap();
        let a2 = c.acquire(&mut t, &m, 0x1000, 256);
        assert!(a2.hit);
        assert_eq!(a2.cost_ns, 0);
        assert_eq!(a2.reg.lkey, a1.reg.lkey);
        assert_eq!(c.stats(), (1, 1, 0));
    }

    #[test]
    fn sub_range_hits_covering_entry() {
        let (mut t, m, mut c) = fixture();
        let a = c.acquire(&mut t, &m, 0, 4096);
        c.release(&mut t, &m, a.reg.lkey).unwrap();
        let b = c.acquire(&mut t, &m, 128, 64);
        assert!(b.hit);
    }

    #[test]
    fn capacity_evicts_lru() {
        let mut t = RegTable::new();
        let m = RegCostModel::default();
        let mut c = PindownCache::new(1000);
        let a = c.acquire(&mut t, &m, 0, 600);
        c.release(&mut t, &m, a.reg.lkey).unwrap();
        let b = c.acquire(&mut t, &m, 10_000, 600);
        c.release(&mut t, &m, b.reg.lkey).unwrap();
        // idle = 1200 > 1000: entry `a` (older) must have been evicted
        // when b was released? No — eviction happens on insert; at b's
        // insert, a was idle (600) + b in use (not idle) = fits. Trigger
        // another insert to force eviction of the idle pair.
        let d = c.acquire(&mut t, &m, 20_000, 600);
        assert!(!d.hit);
        let (_, _, ev) = c.stats();
        assert!(ev >= 1, "expected at least one eviction");
        // Evicted entry is no longer live in the table.
        assert!(t.get(a.reg.lkey).is_none());
        // b still cached (more recently used than a).
        assert!(t.get(b.reg.lkey).is_some());
    }

    #[test]
    fn in_use_entries_are_never_evicted() {
        let mut t = RegTable::new();
        let m = RegCostModel::default();
        let mut c = PindownCache::new(10);
        let a = c.acquire(&mut t, &m, 0, 1000); // in use, over capacity
        let b = c.acquire(&mut t, &m, 5000, 1000);
        assert!(t.get(a.reg.lkey).is_some());
        assert!(t.get(b.reg.lkey).is_some());
        c.release(&mut t, &m, a.reg.lkey).unwrap();
        c.release(&mut t, &m, b.reg.lkey).unwrap();
        // Entries linger until the next insert triggers eviction.
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn disabled_cache_registers_every_time() {
        let mut t = RegTable::new();
        let m = RegCostModel::default();
        let mut c = PindownCache::disabled();
        let a = c.acquire(&mut t, &m, 0, 4096);
        assert!(!a.hit);
        let rel = c.release(&mut t, &m, a.reg.lkey).unwrap();
        assert!(rel > 0, "disabled cache pays dereg immediately");
        assert!(t.get(a.reg.lkey).is_none());
        let b = c.acquire(&mut t, &m, 0, 4096);
        assert!(!b.hit);
        c.release(&mut t, &m, b.reg.lkey).unwrap();
        assert_eq!(t.op_counts(), (2, 2));
    }

    #[test]
    fn release_unknown_key_errors() {
        let (mut t, m, mut c) = fixture();
        assert!(c.release(&mut t, &m, 42).is_err());
    }

    #[test]
    fn flush_drops_idle_keeps_busy() {
        let (mut t, m, mut c) = fixture();
        let a = c.acquire(&mut t, &m, 0, 100);
        let b = c.acquire(&mut t, &m, 1000, 100);
        c.release(&mut t, &m, a.reg.lkey).unwrap();
        let cost = c.flush(&mut t, &m);
        assert!(cost > 0);
        assert_eq!(c.len(), 1);
        assert!(t.get(a.reg.lkey).is_none());
        assert!(t.get(b.reg.lkey).is_some());
    }
}
