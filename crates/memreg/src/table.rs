//! Registered memory regions and protection keys.
//!
//! Mirrors verbs memory-region (MR) semantics: registering `[addr, len)`
//! yields a local key and a remote key; every HCA access is validated
//! against a live key covering the accessed range. Keys are never reused,
//! so a stale key is always detected ([`MemError::BadKey`]) — the
//! simulated analogue of a remote access error completion.

use crate::addr::Va;
use crate::error::MemError;
use std::collections::HashMap;

/// Handle to a live memory region (its local key).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MrHandle(pub u32);

/// A registered memory region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Registration {
    /// Start of the registered range.
    pub addr: Va,
    /// Length of the registered range.
    pub len: u64,
    /// Local protection key.
    pub lkey: u32,
    /// Remote protection key (what a peer must present for RDMA).
    pub rkey: u32,
}

impl Registration {
    /// True when `[addr, addr+len)` lies inside this region.
    pub fn covers(&self, addr: Va, len: u64) -> bool {
        addr >= self.addr
            && addr
                .checked_add(len)
                .is_some_and(|end| end <= self.addr + self.len)
    }
}

/// Per-rank table of live registrations.
#[derive(Debug, Default)]
pub struct RegTable {
    live: HashMap<u32, Registration>,
    next_key: u32,
    /// Lifetime counters, reported by the benchmarks.
    reg_ops: u64,
    dereg_ops: u64,
    bytes_registered: u64,
}

impl RegTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self {
            next_key: 1, // key 0 reserved as "no key"
            ..Self::default()
        }
    }

    /// Returns the table to its just-constructed state, keeping map
    /// capacity: no live registrations, key counter back at 1, lifetime
    /// counters zeroed. Used by world recycling; key assignment after a
    /// reset is bit-identical to a fresh table's.
    pub fn reset(&mut self) {
        self.live.clear();
        self.next_key = 1;
        self.reg_ops = 0;
        self.dereg_ops = 0;
        self.bytes_registered = 0;
    }

    /// Registers `[addr, addr+len)` and returns the region descriptor.
    /// Overlapping registrations are permitted, as in verbs.
    pub fn register(&mut self, addr: Va, len: u64) -> Registration {
        let key = self.next_key;
        self.next_key += 1;
        let reg = Registration {
            addr,
            len,
            lkey: key,
            rkey: key,
        };
        self.live.insert(key, reg);
        self.reg_ops += 1;
        self.bytes_registered += len;
        reg
    }

    /// Deregisters the region named by `handle`.
    pub fn deregister(&mut self, handle: MrHandle) -> Result<Registration, MemError> {
        self.live
            .remove(&handle.0)
            .ok_or(MemError::BadKey { key: handle.0 })
            .inspect(|_| self.dereg_ops += 1)
    }

    /// Looks up a live registration by key.
    pub fn get(&self, key: u32) -> Option<&Registration> {
        self.live.get(&key)
    }

    /// Validates an access of `[addr, addr+len)` under `key`.
    pub fn check(&self, key: u32, addr: Va, len: u64) -> Result<(), MemError> {
        let reg = self.live.get(&key).ok_or(MemError::BadKey { key })?;
        if reg.covers(addr, len) {
            Ok(())
        } else {
            Err(MemError::ProtectionFault { key, addr, len })
        }
    }

    /// Finds any live registration fully covering `[addr, addr+len)`.
    pub fn covering(&self, addr: Va, len: u64) -> Option<&Registration> {
        // Deterministic choice: smallest key wins.
        self.live
            .iter()
            .filter(|(_, r)| r.covers(addr, len))
            .min_by_key(|(k, _)| **k)
            .map(|(_, r)| r)
    }

    /// Number of live registrations.
    pub fn live_count(&self) -> usize {
        self.live.len()
    }

    /// Lifetime (register, deregister) operation counts.
    pub fn op_counts(&self) -> (u64, u64) {
        (self.reg_ops, self.dereg_ops)
    }

    /// Lifetime bytes passed to register calls.
    pub fn bytes_registered(&self) -> u64 {
        self.bytes_registered
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_check() {
        let mut t = RegTable::new();
        let r = t.register(0x1000, 0x100);
        assert!(t.check(r.rkey, 0x1000, 0x100).is_ok());
        assert!(t.check(r.rkey, 0x10ff, 1).is_ok());
        assert!(matches!(
            t.check(r.rkey, 0x10ff, 2).unwrap_err(),
            MemError::ProtectionFault { .. }
        ));
    }

    #[test]
    fn stale_key_detected() {
        let mut t = RegTable::new();
        let r = t.register(0, 64);
        t.deregister(MrHandle(r.lkey)).unwrap();
        assert!(matches!(
            t.check(r.rkey, 0, 1).unwrap_err(),
            MemError::BadKey { .. }
        ));
        // double free also detected
        assert!(t.deregister(MrHandle(r.lkey)).is_err());
    }

    #[test]
    fn keys_never_reused() {
        let mut t = RegTable::new();
        let a = t.register(0, 16);
        t.deregister(MrHandle(a.lkey)).unwrap();
        let b = t.register(0, 16);
        assert_ne!(a.lkey, b.lkey);
    }

    #[test]
    fn covering_finds_enclosing_region() {
        let mut t = RegTable::new();
        t.register(0x1000, 0x1000);
        let big = t.register(0, 0x10000);
        let found = t.covering(0x5000, 0x100).unwrap();
        assert_eq!(found.lkey, big.lkey);
        assert!(t.covering(0x20000, 1).is_none());
    }

    #[test]
    fn accounting_counters() {
        let mut t = RegTable::new();
        let a = t.register(0, 100);
        t.register(200, 50);
        assert_eq!(t.live_count(), 2);
        assert_eq!(t.bytes_registered(), 150);
        t.deregister(MrHandle(a.lkey)).unwrap();
        assert_eq!(t.live_count(), 1);
        assert_eq!(t.op_counts(), (2, 1));
    }

    #[test]
    fn covers_handles_overflow() {
        let r = Registration {
            addr: 0,
            len: 10,
            lkey: 1,
            rkey: 1,
        };
        assert!(!r.covers(u64::MAX - 1, 5));
    }

    #[test]
    fn zero_length_check_inside_region() {
        let mut t = RegTable::new();
        let r = t.register(0x1000, 0x100);
        assert!(t.check(r.rkey, 0x1000, 0).is_ok());
    }
}
