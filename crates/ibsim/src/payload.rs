//! Pooled payload slabs for the transfers whose sender is released
//! before delivery.
//!
//! Most transfers carry no bytes at all: they carry their source ranges
//! and delivery copies the sender's memory straight into the
//! destination (see `crate::deliver`). Two kinds tell the sender its
//! buffer is free *before* delivery, so they must take a copy at post:
//! every shared-memory double-copy transfer (the bounce segment) and
//! the shared-memory single-copy RDMA write (the sender has already
//! pushed the bytes). A [`Payload`] holds that copy.
//!
//! The backing buffer is **pooled**: dropping a payload returns its
//! vector to a thread-local [`Shelf`], and the next gather reuses it,
//! so steady-state traffic allocates nothing. The pool is deliberately
//! thread-local and unsynchronized: the simulator is single-threaded
//! per world, and tests that run many worlds in parallel each get
//! their own pool. Pool occupancy is bounded (`MAX_POOLED` idle
//! buffers) so pathological bursts don't pin memory.

use ibdt_simcore::Shelf;
use std::cell::RefCell;

/// Maximum number of idle buffers kept per thread.
const MAX_POOLED: usize = 64;

thread_local! {
    static POOL: RefCell<Shelf<Vec<u8>>> = const { RefCell::new(Shelf::new(MAX_POOLED)) };
}

/// A pooled, immutable copy of a transfer's bytes.
#[derive(Debug)]
pub struct Payload(Vec<u8>);

impl Drop for Payload {
    fn drop(&mut self) {
        let v = std::mem::take(&mut self.0);
        // try_with: thread teardown may have destroyed the pool.
        let _ = POOL.try_with(|p| p.borrow_mut().put(v));
    }
}

impl Payload {
    /// Builds a payload by filling a pooled buffer through `fill`,
    /// which appends exactly the payload bytes to it.
    pub fn build<F: FnOnce(&mut Vec<u8>)>(cap: usize, fill: F) -> Payload {
        let fresh = || Vec::with_capacity(cap);
        let mut v = POOL
            .try_with(|p| p.borrow_mut().take(fresh))
            .unwrap_or_else(|_| fresh());
        v.reserve(cap);
        fill(&mut v);
        Payload(v)
    }

    /// The bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.0
    }

    /// Number of bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// `(allocations, pool reuses)` performed by this thread's buffer
    /// pool since the last [`Payload::reset_pool_stats`].
    pub fn pool_stats() -> (u64, u64) {
        POOL.with(|p| {
            let p = p.borrow();
            (p.allocs(), p.reuses())
        })
    }

    /// Zeroes this thread's buffer pool counters (bench/test harness).
    pub fn reset_pool_stats() {
        POOL.with(|p| p.borrow_mut().reset_counts());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_read_back() {
        let p = Payload::build(16, |v| v.extend_from_slice(b"hello slab"));
        assert_eq!(p.as_slice(), b"hello slab");
        assert_eq!(p.len(), 10);
        assert!(!p.is_empty());
        assert!(Payload::build(0, |_| {}).is_empty());
    }

    #[test]
    fn buffers_recycle_through_the_pool() {
        Payload::reset_pool_stats();
        for _ in 0..10 {
            let p = Payload::build(256, |v| v.extend_from_slice(&[7; 100]));
            drop(p);
        }
        let (allocs, reuses) = Payload::pool_stats();
        assert_eq!(allocs + reuses, 10);
        assert!(
            reuses >= 9,
            "expected near-total reuse, got allocs={allocs} reuses={reuses}"
        );
    }

    #[test]
    fn a_reused_buffer_holds_only_the_new_bytes() {
        drop(Payload::build(8, |v| {
            v.extend_from_slice(b"old bytes, longer")
        }));
        let p = Payload::build(4, |v| v.extend_from_slice(b"new"));
        assert_eq!(p.as_slice(), b"new");
    }
}
