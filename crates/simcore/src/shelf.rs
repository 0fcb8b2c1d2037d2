//! A bounded LIFO shelf of reusable containers.
//!
//! The host-side hot paths recycle their scratch containers (byte
//! buffers, SGE lists) instead of allocating per message: a container
//! is taken, used, and put back, and its heap capacity survives the
//! round trip. A [`Shelf`] is that free list, written once. It hands
//! out the most recently returned container first (the cache-warm
//! one), comes back cleared, counts how each take was served, and
//! keeps at most `cap` idle containers so a burst does not pin memory.
//! A container with no capacity is not worth keeping and is dropped on
//! [`Shelf::put`].

/// A container a [`Shelf`] can recycle: emptied in place, capacity
/// kept.
pub trait Reusable {
    /// Removes every element, keeping the allocation.
    fn clear(&mut self);
    /// Elements the container holds without reallocating.
    fn capacity(&self) -> usize;
}

impl<T> Reusable for Vec<T> {
    fn clear(&mut self) {
        Vec::clear(self)
    }

    fn capacity(&self) -> usize {
        Vec::capacity(self)
    }
}

/// A bounded LIFO free list of reusable containers, with counts of the
/// takes it served from a returned container (`reuses`) and of those
/// it had to build fresh (`allocs`).
#[derive(Debug)]
pub struct Shelf<T> {
    items: Vec<T>,
    cap: usize,
    reuses: u64,
    allocs: u64,
}

impl<T> Shelf<T> {
    /// An empty shelf keeping at most `cap` idle containers.
    pub const fn new(cap: usize) -> Self {
        Self {
            items: Vec::new(),
            cap,
            reuses: 0,
            allocs: 0,
        }
    }

    /// True when no container is idle.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Takes served from a returned container.
    pub fn reuses(&self) -> u64 {
        self.reuses
    }

    /// Takes that built a fresh container.
    pub fn allocs(&self) -> u64 {
        self.allocs
    }

    /// Zeroes both counts, keeping the idle containers.
    pub fn reset_counts(&mut self) {
        self.reuses = 0;
        self.allocs = 0;
    }
}

impl<T: Reusable> Shelf<T> {
    /// Takes the top container, cleared, counting a reuse; `None` when
    /// the shelf is empty.
    pub fn try_take(&mut self) -> Option<T> {
        let mut v = self.items.pop()?;
        v.clear();
        self.reuses += 1;
        Some(v)
    }

    /// Takes the top container, cleared, or builds one with `fresh`
    /// when the shelf is empty, counting which it did.
    pub fn take(&mut self, fresh: impl FnOnce() -> T) -> T {
        self.try_take().unwrap_or_else(|| {
            self.allocs += 1;
            fresh()
        })
    }

    /// Returns a container to the top of the shelf. One with no
    /// capacity, or one past the cap, is dropped.
    pub fn put(&mut self, v: T) {
        if v.capacity() > 0 && self.items.len() < self.cap {
            self.items.push(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_reuses_and_allocs() {
        let mut s: Shelf<Vec<u8>> = Shelf::new(usize::MAX);
        let a = s.take(|| Vec::with_capacity(8));
        assert_eq!((s.reuses(), s.allocs()), (0, 1));
        s.put(a);
        let b = s.take(|| unreachable!("a returned buffer is waiting"));
        assert_eq!((s.reuses(), s.allocs()), (1, 1));
        assert!(s.try_take().is_none(), "the only buffer is out");
        assert_eq!((s.reuses(), s.allocs()), (1, 1), "a miss counts nothing");
        s.put(b);
        s.reset_counts();
        assert_eq!((s.reuses(), s.allocs(), s.items.len()), (0, 0, 1));
    }

    #[test]
    fn reused_container_comes_back_cleared_with_its_capacity() {
        let mut s: Shelf<Vec<u32>> = Shelf::new(usize::MAX);
        let mut v = s.take(Vec::new);
        v.extend([1, 2, 3]);
        let cap = v.capacity();
        s.put(v);
        let w = s.take(Vec::new);
        assert!(w.is_empty());
        assert_eq!(w.capacity(), cap);
    }

    #[test]
    fn zero_capacity_containers_are_not_kept() {
        let mut s: Shelf<Vec<u8>> = Shelf::new(usize::MAX);
        s.put(Vec::new());
        s.put(Vec::with_capacity(4));
        assert_eq!(s.items.len(), 1);
    }

    #[test]
    fn put_stops_at_the_cap() {
        let mut s: Shelf<Vec<u8>> = Shelf::new(2);
        for _ in 0..3 {
            s.put(vec![0]);
        }
        assert_eq!(s.items.len(), 2);
    }
}
