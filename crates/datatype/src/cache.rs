//! The versioned datatype cache of §5.4.2.
//!
//! Multi-W requires the sender to know the *receiver's* layout. To avoid
//! shipping the flattened representation on every operation, the
//! receiver assigns each datatype a small **type index** and the sender
//! caches layouts keyed by `(receiver rank, index)`. MPI programs may
//! free a datatype and the index may be reused for a new type, so each
//! index carries a **version number** that is bumped on reuse; a version
//! mismatch at the sender forces a refresh — exactly the extension the
//! paper describes over the Träff et al. cache (ref \[14\]).

use crate::flat::FlatLayout;
use crate::typ::Datatype;
use std::collections::HashMap;
use std::sync::Arc;

/// A receiver-local datatype index with its current version.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TypeTag {
    /// Slot index in the receiver's registry.
    pub index: u32,
    /// Version of the slot; bumped when the index is reused.
    pub version: u32,
}

#[derive(Debug)]
struct Slot {
    ty_id: u64,
    version: u32,
}

/// Receiver-side registry mapping datatypes to `(index, version)` tags.
#[derive(Debug, Default)]
pub struct TypeRegistry {
    slots: Vec<Option<Slot>>,
    free: Vec<u32>,
    by_type: HashMap<u64, u32>,
}

impl TypeRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the tag for `ty`, assigning a slot on first sight.
    /// Freed indices are reused with a bumped version.
    pub fn register(&mut self, ty: &Datatype) -> TypeTag {
        if let Some(&idx) = self.by_type.get(&ty.id()) {
            let slot = self.slots[idx as usize]
                .as_ref()
                .expect("by_type points at a live slot");
            return TypeTag {
                index: idx,
                version: slot.version,
            };
        }
        if let Some(idx) = self.free.pop() {
            let slot = self.slots[idx as usize]
                .as_mut()
                .expect("free list points at an existing slot");
            slot.ty_id = ty.id();
            slot.version += 1;
            self.by_type.insert(ty.id(), idx);
            TypeTag {
                index: idx,
                version: slot.version,
            }
        } else {
            let idx = self.slots.len() as u32;
            self.slots.push(Some(Slot {
                ty_id: ty.id(),
                version: 1,
            }));
            self.by_type.insert(ty.id(), idx);
            TypeTag {
                index: idx,
                version: 1,
            }
        }
    }

    /// Frees the slot of `ty` (models `MPI_Type_free`). The index
    /// becomes reusable; its next user gets a bumped version.
    pub fn free_type(&mut self, ty: &Datatype) -> bool {
        let Some(idx) = self.by_type.remove(&ty.id()) else {
            return false;
        };
        // Keep the slot (with its version) so reuse can bump it; mark it
        // free by pushing on the free list. The ty_id is cleared below
        // only logically — by_type no longer points here.
        self.free.push(idx);
        true
    }

    /// Number of live (registered) datatypes.
    pub fn live_count(&self) -> usize {
        self.by_type.len()
    }

    /// Returns the registry to its just-constructed state, keeping
    /// container capacity. Slots (and their versions) are discarded,
    /// so the next registration starts from index 0, version 1 — tag
    /// assignment after a reset is bit-identical to a fresh registry's.
    pub fn reset(&mut self) {
        self.slots.clear();
        self.free.clear();
        self.by_type.clear();
    }
}

/// Sender-side cache of peers' flattened layouts.
#[derive(Debug, Default)]
pub struct LayoutCache {
    map: HashMap<(u32, u32), (u32, Arc<FlatLayout>)>,
    hits: u64,
    misses: u64,
}

impl LayoutCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Looks up the layout for `(peer, tag)`. A version mismatch evicts
    /// the stale entry and misses.
    pub fn lookup(&mut self, peer: u32, tag: TypeTag) -> Option<Arc<FlatLayout>> {
        match self.map.get(&(peer, tag.index)) {
            Some((ver, layout)) if *ver == tag.version => {
                self.hits += 1;
                Some(layout.clone())
            }
            Some(_) => {
                self.map.remove(&(peer, tag.index));
                self.misses += 1;
                None
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Stores a freshly received layout.
    pub fn insert(&mut self, peer: u32, tag: TypeTag, layout: Arc<FlatLayout>) {
        self.map.insert((peer, tag.index), (tag.version, layout));
    }

    /// `(hits, misses)` counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Empties the cache and zeroes its counters, keeping map capacity.
    pub fn reset(&mut self) {
        self.map.clear();
        self.hits = 0;
        self.misses = 0;
    }

    /// Number of cached layouts.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_assigns_stable_tags() {
        let mut r = TypeRegistry::new();
        let a = Datatype::int();
        let b = Datatype::vector(2, 1, 2, &Datatype::int()).unwrap();
        let ta = r.register(&a);
        let tb = r.register(&b);
        assert_ne!(ta.index, tb.index);
        // Same type → same tag.
        assert_eq!(r.register(&a), ta);
        assert_eq!(r.live_count(), 2);
    }

    #[test]
    fn index_reuse_bumps_version() {
        let mut r = TypeRegistry::new();
        let a = Datatype::int();
        let ta = r.register(&a);
        assert!(r.free_type(&a));
        let b = Datatype::double();
        let tb = r.register(&b);
        assert_eq!(tb.index, ta.index, "freed index is reused");
        assert_eq!(tb.version, ta.version + 1, "version bumped on reuse");
    }

    #[test]
    fn freeing_unknown_type_is_noop() {
        let mut r = TypeRegistry::new();
        assert!(!r.free_type(&Datatype::int()));
    }

    #[test]
    fn layout_cache_hit_and_miss() {
        let mut c = LayoutCache::new();
        let t = Datatype::vector(2, 1, 2, &Datatype::int()).unwrap();
        let tag = TypeTag {
            index: 0,
            version: 1,
        };
        assert!(c.lookup(3, tag).is_none());
        c.insert(3, tag, t.flat().clone());
        assert!(c.lookup(3, tag).is_some());
        // Different peer misses.
        assert!(c.lookup(4, tag).is_none());
        assert_eq!(c.stats(), (1, 2));
    }

    #[test]
    fn version_mismatch_evicts() {
        let mut c = LayoutCache::new();
        let t = Datatype::int();
        let tag_v1 = TypeTag {
            index: 7,
            version: 1,
        };
        c.insert(0, tag_v1, t.flat().clone());
        let tag_v2 = TypeTag {
            index: 7,
            version: 2,
        };
        assert!(c.lookup(0, tag_v2).is_none(), "stale version must miss");
        assert!(c.is_empty(), "stale entry evicted");
        // Even the old version now misses (entry gone).
        assert!(c.lookup(0, tag_v1).is_none());
    }

    #[test]
    fn full_protocol_flow() {
        // Receiver registers, sender caches, receiver frees + reuses,
        // sender detects staleness.
        let mut reg = TypeRegistry::new();
        let mut cache = LayoutCache::new();
        let t1 = Datatype::vector(4, 1, 2, &Datatype::int()).unwrap();
        let tag1 = reg.register(&t1);
        cache.insert(9, tag1, t1.flat().clone());
        assert!(cache.lookup(9, tag1).is_some());

        reg.free_type(&t1);
        let t2 = Datatype::vector(8, 1, 2, &Datatype::int()).unwrap();
        let tag2 = reg.register(&t2);
        assert_eq!(tag2.index, tag1.index);
        assert!(cache.lookup(9, tag2).is_none(), "sender must refresh");
        cache.insert(9, tag2, t2.flat().clone());
        assert_eq!(cache.lookup(9, tag2).unwrap().size, t2.size());
    }
}
