//! Randomized tests of the memory subsystem: OGR planning invariants,
//! pin-down cache consistency and the slot window's frame backing,
//! seeded via [`ibdt_testkit`].

use ibdt_memreg::addr::copy_between;
use ibdt_memreg::cache::Acquire;
use ibdt_memreg::{
    ogr, AddressSpace, MemError, MrHandle, PindownCache, RegCostModel, RegTable, Registration, Va,
};
use ibdt_simcore::time::Time;
use ibdt_testkit::{cases, Rng};

fn random_blocks(rng: &mut Rng) -> Vec<(u64, u64)> {
    let n = rng.range_usize(0, 40);
    (0..n)
        .map(|_| (rng.range_u64(0, 1 << 24), rng.range_u64(0, 1 << 16)))
        .collect()
}

fn random_model(rng: &mut Rng) -> RegCostModel {
    RegCostModel {
        page_size: 1 << (10 + rng.range_u64(1, 4)),
        reg_base_ns: rng.range_u64(1, 50_000),
        reg_per_page_ns: rng.range_u64(0, 2_000),
        dereg_base_ns: rng.range_u64(1, 30_000),
        dereg_per_page_ns: rng.range_u64(0, 500),
    }
}

#[test]
fn ogr_covers_every_block() {
    cases(0x3E60_0001, 512, |rng| {
        let blocks = random_blocks(rng);
        let model = random_model(rng);
        let plan = ogr::plan(&blocks, &model);
        for &(a, l) in &blocks {
            if l == 0 {
                continue;
            }
            assert!(
                plan.regions
                    .iter()
                    .any(|&(ra, rl)| a >= ra && a + l <= ra + rl),
                "block ({a}, {l}) uncovered by {:?}",
                plan.regions
            );
        }
    });
}

#[test]
fn ogr_regions_sorted_disjoint() {
    cases(0x3E60_0002, 512, |rng| {
        let blocks = random_blocks(rng);
        let model = random_model(rng);
        let plan = ogr::plan(&blocks, &model);
        for w in plan.regions.windows(2) {
            assert!(w[0].0 + w[0].1 <= w[1].0, "regions overlap or unsorted");
        }
        for &(_, l) in &plan.regions {
            assert!(l > 0, "empty region in plan");
        }
    });
}

#[test]
fn ogr_never_loses_to_baselines() {
    cases(0x3E60_0003, 512, |rng| {
        let blocks = random_blocks(rng);
        let model = random_model(rng);
        let o = ogr::plan(&blocks, &model).round_trip_ns();
        let per = ogr::plan_per_block(&blocks, &model).round_trip_ns();
        let whole = ogr::plan_whole_extent(&blocks, &model).round_trip_ns();
        assert!(o <= per, "OGR {o} worse than per-block {per}");
        assert!(o <= whole, "OGR {o} worse than whole-extent {whole}");
    });
}

#[test]
fn ogr_cost_fields_consistent() {
    cases(0x3E60_0004, 512, |rng| {
        let blocks = random_blocks(rng);
        let model = random_model(rng);
        let plan = ogr::plan(&blocks, &model);
        let reg: u64 = plan
            .regions
            .iter()
            .map(|&(a, l)| model.reg_cost(a, l))
            .sum();
        let dereg: u64 = plan
            .regions
            .iter()
            .map(|&(a, l)| model.dereg_cost(a, l))
            .sum();
        assert_eq!(plan.reg_cost_ns, reg);
        assert_eq!(plan.dereg_cost_ns, dereg);
        assert_eq!(plan.round_trip_ns(), reg + dereg);
    });
}

#[test]
fn pindown_cache_acquire_release_sequences() {
    cases(0x3E60_0005, 512, |rng| {
        // Random acquire/release traffic over 8 buffer slots must keep
        // the table and cache consistent, with hits only after misses.
        let model = RegCostModel::default();
        let mut table = RegTable::new();
        let mut cache = PindownCache::new(16 * 4096);
        let mut held: Vec<u32> = Vec::new();
        let nops = rng.range_usize(1, 60);
        for _ in 0..nops {
            let slot = rng.range_u64(0, 8);
            let len = rng.range_u64(1, 5000);
            if rng.chance(0.5) {
                if let Some(lkey) = held.pop() {
                    assert!(cache.release(&mut table, &model, lkey).is_ok());
                }
            }
            let a = cache.acquire(&mut table, &model, slot * 100_000, len);
            // The registration handed out must be live and covering.
            assert!(table.check(a.reg.lkey, slot * 100_000, len).is_ok());
            held.push(a.reg.lkey);
        }
        // Everything still held must be live.
        for lkey in held {
            assert!(table.get(lkey).is_some());
            assert!(cache.release(&mut table, &model, lkey).is_ok());
        }
    });
}

/// Reference pin-down cache: an unsorted entry list scanned in full on
/// every lookup. The address-sorted [`PindownCache`] must make exactly
/// the same choices.
struct LinearCache {
    entries: Vec<LinearEntry>,
    capacity_bytes: u64,
    enabled: bool,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

struct LinearEntry {
    reg: Registration,
    refs: u32,
    last_use: u64,
}

impl LinearCache {
    fn new(capacity_bytes: u64, enabled: bool) -> Self {
        Self {
            entries: Vec::new(),
            capacity_bytes,
            enabled,
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    fn acquire(
        &mut self,
        table: &mut RegTable,
        model: &RegCostModel,
        addr: Va,
        len: u64,
    ) -> Acquire {
        self.tick += 1;
        if self.enabled {
            if let Some(e) = self
                .entries
                .iter_mut()
                .filter(|e| e.reg.covers(addr, len))
                .min_by_key(|e| e.reg.lkey)
            {
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
            self.entries.push(LinearEntry {
                reg,
                refs: 1,
                last_use: self.tick,
            });
            cost += self.evict_excess(table, model);
        }
        Acquire {
            reg,
            cost_ns: cost,
            hit: false,
        }
    }

    fn release(
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
            .entries
            .iter_mut()
            .find(|e| e.reg.lkey == lkey)
            .ok_or(MemError::BadKey { key: lkey })?;
        if e.refs == 0 {
            return Err(MemError::BadKey { key: lkey });
        }
        e.refs -= 1;
        Ok(0)
    }

    fn force_evict(&mut self, table: &mut RegTable, lkey: u32) -> bool {
        let Some(pos) = self.entries.iter().position(|e| e.reg.lkey == lkey) else {
            return false;
        };
        let victim = self.entries.swap_remove(pos);
        let _ = table.deregister(MrHandle(victim.reg.lkey));
        self.evictions += 1;
        true
    }

    fn evict_excess(&mut self, table: &mut RegTable, model: &RegCostModel) -> Time {
        let mut cost = 0;
        loop {
            let idle_bytes: u64 = self
                .entries
                .iter()
                .filter(|e| e.refs == 0)
                .map(|e| e.reg.len)
                .sum();
            if idle_bytes <= self.capacity_bytes {
                return cost;
            }
            let victim_idx = self
                .entries
                .iter()
                .enumerate()
                .filter(|(_, e)| e.refs == 0)
                .min_by_key(|(_, e)| e.last_use)
                .map(|(i, _)| i)
                .expect("idle_bytes > 0 implies an idle entry exists");
            let victim = self.entries.swap_remove(victim_idx);
            table
                .deregister(MrHandle(victim.reg.lkey))
                .expect("cached registration vanished from table");
            cost += model.dereg_cost(victim.reg.addr, victim.reg.len);
            self.evictions += 1;
        }
    }

    fn flush(&mut self, table: &mut RegTable, model: &RegCostModel) -> Time {
        let mut cost = 0;
        let mut i = 0;
        while i < self.entries.len() {
            if self.entries[i].refs == 0 {
                let victim = self.entries.swap_remove(i);
                table
                    .deregister(MrHandle(victim.reg.lkey))
                    .expect("cached registration vanished from table");
                cost += model.dereg_cost(victim.reg.addr, victim.reg.len);
            } else {
                i += 1;
            }
        }
        cost
    }

    fn stats(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.evictions)
    }
}

#[test]
fn pindown_cache_matches_linear_reference() {
    cases(0x3E60_0006, 512, |rng| {
        // Overlapping and nested ranges over a small address window, a
        // capacity of a few regions so evictions happen, and releases
        // and forced evictions of live, stale and unknown keys.
        let model = random_model(rng);
        let capacity = rng.range_u64(0, 32 << 10);
        let enabled = !rng.chance(0.1);
        let (mut t_new, mut t_ref) = (RegTable::new(), RegTable::new());
        let mut cache = if enabled {
            PindownCache::new(capacity)
        } else {
            PindownCache::disabled()
        };
        let mut oracle = LinearCache::new(capacity, enabled);
        let mut held: Vec<(u32, Va, u64)> = Vec::new();
        let mut seen: Vec<u32> = Vec::new();
        let nops = rng.range_usize(1, 200);
        for step in 0..nops {
            let op = rng.range_u64(0, 20);
            match op {
                0..=9 => {
                    let (addr, len) = if !held.is_empty() && rng.chance(0.4) {
                        // Nested inside a held range: a likely hit.
                        let &(_, a, l) = rng.choose(&held);
                        let off = rng.range_u64(0, l + 1);
                        (a + off, rng.range_u64(0, l - off + 1))
                    } else {
                        (rng.range_u64(0, 64) * 256, rng.range_u64(0, 16 << 10))
                    };
                    let a = cache.acquire(&mut t_new, &model, addr, len);
                    let b = oracle.acquire(&mut t_ref, &model, addr, len);
                    assert_eq!(a, b, "step {step}: acquire({addr}, {len})");
                    held.push((a.reg.lkey, addr, len));
                    seen.push(a.reg.lkey);
                }
                10..=15 => {
                    let lkey = if !held.is_empty() && rng.chance(0.7) {
                        let i = rng.range_usize(0, held.len());
                        held.swap_remove(i).0
                    } else if !seen.is_empty() && rng.chance(0.7) {
                        *rng.choose(&seen)
                    } else {
                        rng.next_u32() % 1024
                    };
                    let a = cache.release(&mut t_new, &model, lkey);
                    let b = oracle.release(&mut t_ref, &model, lkey);
                    assert_eq!(a, b, "step {step}: release({lkey})");
                }
                16..=18 => {
                    let lkey = if !seen.is_empty() && rng.chance(0.9) {
                        *rng.choose(&seen)
                    } else {
                        rng.next_u32() % 1024
                    };
                    let a = cache.force_evict(&mut t_new, lkey);
                    let b = oracle.force_evict(&mut t_ref, lkey);
                    assert_eq!(a, b, "step {step}: force_evict({lkey})");
                }
                _ => {
                    let a = cache.flush(&mut t_new, &model);
                    let b = oracle.flush(&mut t_ref, &model);
                    assert_eq!(a, b, "step {step}: flush");
                }
            }
            assert_eq!(cache.stats(), oracle.stats(), "step {step}: stats");
            assert_eq!(cache.len(), oracle.entries.len(), "step {step}: len");
            assert_eq!(
                t_new.op_counts(),
                t_ref.op_counts(),
                "step {step}: table ops"
            );
        }
    });
}

/// Shape of a slot window inside a small space.
#[derive(Clone, Copy)]
struct Window {
    lo: Va,
    slot: u64,
    slots: u64,
    cap: u64,
}

impl Window {
    fn random(rng: &mut Rng) -> Self {
        let slot = rng.pick(&[256u64, 1000, 4096]);
        let slots = rng.range_u64(1, 12);
        let lo = rng.range_u64(64, 3 * 4096);
        let cap = lo + slot * slots + rng.range_u64(1, 8192);
        Window {
            lo,
            slot,
            slots,
            cap,
        }
    }

    fn hi(&self) -> Va {
        self.lo + self.slot * self.slots
    }

    fn space(&self) -> AddressSpace {
        let mut a = AddressSpace::new(self.cap);
        a.set_slot_window(self.lo, self.hi() - self.lo, self.slot)
            .unwrap();
        a
    }

    /// A random `len`-byte range the window contract allows: wholly
    /// below or above the window, or inside one slot.
    fn range(&self, rng: &mut Rng, len: u64) -> Option<Va> {
        let (below, above) = (self.lo, self.cap - self.hi());
        match rng.range_u64(0, 3) {
            0 if len <= below => Some(rng.range_u64(0, below - len + 1)),
            1 if len <= above => Some(self.hi() + rng.range_u64(0, above - len + 1)),
            2 if len <= self.slot => {
                let s = rng.range_u64(0, self.slots);
                Some(self.lo + s * self.slot + rng.range_u64(0, self.slot - len + 1))
            }
            _ => None,
        }
    }

    /// Every read the contract allows, piece by piece, must agree.
    fn assert_same(&self, got: &AddressSpace, want: &AddressSpace, step: usize) {
        let mut pieces = vec![(0, self.lo), (self.hi(), self.cap - self.hi())];
        pieces.extend((0..self.slots).map(|s| (self.lo + s * self.slot, self.slot)));
        for (a, l) in pieces {
            assert!(
                got.slice(a, l).unwrap() == want.slice(a, l).unwrap(),
                "step {step}: [{a:#x}, +{l}) differs from the flat oracle"
            );
        }
    }
}

/// A windowed space must read exactly like a flat one under random
/// writes, fills, raw views, paired read/write views, copies within
/// and between spaces, releases of dead slots, resets and rebuilds —
/// where a released slot reads zero, as a fresh slot would.
#[test]
fn slot_window_matches_a_flat_oracle() {
    cases(0x3E60_0007, 256, |rng| {
        let win = Window::random(rng);
        let (mut got, mut want) = (win.space(), AddressSpace::new(win.cap));
        // A flat peer per side for copy_between, kept identical.
        let (mut peer_got, mut peer_want) = (AddressSpace::new(8192), AddressSpace::new(8192));
        for step in 0..rng.range_usize(1, 80) {
            let len = if rng.chance(0.1) {
                0
            } else {
                rng.range_u64(1, win.slot.min(2048) + 1)
            };
            let Some(addr) = win.range(rng, len) else {
                continue;
            };
            match rng.range_u64(0, 22) {
                0..=4 => {
                    let mut data = vec![0u8; len as usize];
                    rng.fill_bytes(&mut data);
                    got.write(addr, &data).unwrap();
                    want.write(addr, &data).unwrap();
                }
                5..=6 => {
                    let byte = rng.next_u32() as u8;
                    got.fill(addr, len, byte).unwrap();
                    want.fill(addr, len, byte).unwrap();
                }
                7..=8 => {
                    let mut data = vec![0u8; len as usize];
                    rng.fill_bytes(&mut data);
                    got.slice_mut(addr, len).unwrap().copy_from_slice(&data);
                    want.slice_mut(addr, len).unwrap().copy_from_slice(&data);
                }
                9..=11 => {
                    let Some(dst) = win.range(rng, len) else {
                        continue;
                    };
                    if addr < dst + len && dst < addr + len && addr != dst {
                        continue;
                    }
                    got.copy_within(addr, dst, len).unwrap();
                    want.copy_within(addr, dst, len).unwrap();
                }
                12..=13 => {
                    let p = rng.range_u64(0, 8192 - len + 1);
                    if rng.chance(0.5) {
                        copy_between(&peer_got, p, &mut got, addr, len).unwrap();
                        copy_between(&peer_want, p, &mut want, addr, len).unwrap();
                    } else {
                        copy_between(&got, addr, &mut peer_got, p, len).unwrap();
                        copy_between(&want, addr, &mut peer_want, p, len).unwrap();
                    }
                }
                14..=16 => {
                    // The slot's bytes are dead: release it, and the
                    // oracle sees it read zero again.
                    let s = rng.range_u64(0, win.slots);
                    let va = win.lo + s * win.slot + rng.range_u64(0, win.slot);
                    got.release(va);
                    want.fill(win.lo + s * win.slot, win.slot, 0).unwrap();
                }
                19..=20 => {
                    // A paired view moves bytes in place; the flat
                    // oracle reads, then writes, through plain views.
                    // Either view may be empty, which overlaps nothing.
                    let Some(dst) = win.range(rng, len) else {
                        continue;
                    };
                    let (rlen, wlen) = match rng.range_u64(0, 5) {
                        0 => (0, len),
                        1 => (len, 0),
                        _ => (len, len),
                    };
                    let pair = got.slice_pair(addr, rlen, dst, wlen);
                    if rlen > 0 && wlen > 0 && addr < dst + wlen && dst < addr + rlen {
                        assert_eq!(
                            pair.unwrap_err(),
                            MemError::Overlap {
                                read: addr,
                                write: dst
                            },
                            "step {step}"
                        );
                        continue;
                    }
                    let (from, to) = pair.unwrap();
                    assert_eq!((from.len(), to.len()), (rlen as usize, wlen as usize));
                    let moved =
                        |i: usize, from: &[u8]| from.get(i).map_or(0x5A, |f| f.rotate_left(3));
                    for (i, t) in to.iter_mut().enumerate() {
                        *t = moved(i, from);
                    }
                    let from = want.read(addr, rlen).unwrap();
                    let data: Vec<u8> = (0..wlen as usize).map(|i| moved(i, &from)).collect();
                    want.write(dst, &data).unwrap();
                    assert_eq!(got.slice(dst, wlen), want.slice(dst, wlen), "step {step}");
                }
                17 => {
                    got.reset();
                    want.reset();
                    got.set_slot_window(win.lo, win.hi() - win.lo, win.slot)
                        .unwrap();
                }
                18 => {
                    drop((got, want));
                    (got, want) = (win.space(), AddressSpace::new(win.cap));
                }
                _ => {
                    // Frames are allocated only when none is pooled, so
                    // the total never exceeds the slots ever bound.
                    let (bound, pooled) = got.slot_frames();
                    assert!((bound + pooled) as u64 <= win.slots, "step {step}");
                }
            }
            if len > 0 {
                assert_eq!(got.slice(addr, len), want.slice(addr, len), "step {step}");
            }
            assert!(
                peer_got.slice(0, 8192).unwrap() == peer_want.slice(0, 8192).unwrap(),
                "step {step}: copy_between out of the window diverged"
            );
        }
        win.assert_same(&got, &want, usize::MAX);
        // Release every slot: all frames are pooled and the window
        // reads zero.
        for s in 0..win.slots {
            got.release(win.lo + s * win.slot);
        }
        assert_eq!(got.slot_frames().0, 0);
        for s in 0..win.slots {
            let slot = got.slice(win.lo + s * win.slot, win.slot).unwrap();
            assert!(slot.iter().all(|&b| b == 0), "released slot {s} not zero");
        }
    });
}
