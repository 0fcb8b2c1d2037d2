//! Staged payloads for the transfers whose sender is released before
//! delivery.
//!
//! Most transfers carry no bytes at all: they carry their source ranges
//! and delivery copies the sender's memory straight into the
//! destination (see `crate::deliver`). Two kinds tell the sender its
//! buffer is free *before* delivery, so they must take a copy at post:
//! every shared-memory double-copy transfer (the bounce segment) and
//! the shared-memory single-copy RDMA write (the sender has already
//! pushed the bytes). A [`Payload`] holds that copy.
//!
//! The backing buffer comes from a [`Shelf`] the shared-memory channel
//! owns, the only transport that stages: `Payload::build` takes from
//! it, and delivery hands the spent payload back to it
//! (`Payload::recycle`), so steady-state traffic allocates nothing.
//! The shelf keeps at most `MAX_POOLED` idle buffers, so a burst does
//! not pin memory; it lives and dies with its channel.

use ibdt_simcore::Shelf;

/// Maximum number of idle buffers a channel's payload shelf keeps.
pub(crate) const MAX_POOLED: usize = 64;

/// An immutable copy of a transfer's bytes in a shelved buffer.
#[derive(Debug)]
pub struct Payload(Vec<u8>);

impl Payload {
    /// Builds a payload by filling a buffer from `shelf` through
    /// `fill`, which appends exactly the payload bytes to it.
    pub(crate) fn build<F: FnOnce(&mut Vec<u8>)>(
        shelf: &mut Shelf<Vec<u8>>,
        cap: usize,
        fill: F,
    ) -> Payload {
        let mut v = shelf.take(|| Vec::with_capacity(cap));
        v.reserve(cap);
        fill(&mut v);
        Payload(v)
    }

    /// Returns the buffer to `shelf` for the next payload.
    pub(crate) fn recycle(self, shelf: &mut Shelf<Vec<u8>>) {
        shelf.put(self.0);
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_read_back() {
        let mut shelf = Shelf::new(MAX_POOLED);
        let p = Payload::build(&mut shelf, 16, |v| v.extend_from_slice(b"hello slab"));
        assert_eq!(p.as_slice(), b"hello slab");
        assert_eq!(p.len(), 10);
        assert!(!p.is_empty());
        assert!(Payload::build(&mut shelf, 0, |_| {}).is_empty());
    }

    #[test]
    fn buffers_recycle_through_the_pool() {
        let mut shelf = Shelf::new(MAX_POOLED);
        for _ in 0..10 {
            let p = Payload::build(&mut shelf, 256, |v| v.extend_from_slice(&[7; 100]));
            p.recycle(&mut shelf);
        }
        assert_eq!((shelf.allocs(), shelf.reuses()), (1, 9));
    }

    #[test]
    fn a_reused_buffer_holds_only_the_new_bytes() {
        let mut shelf = Shelf::new(MAX_POOLED);
        Payload::build(&mut shelf, 8, |v| v.extend_from_slice(b"old bytes, longer"))
            .recycle(&mut shelf);
        let p = Payload::build(&mut shelf, 4, |v| v.extend_from_slice(b"new"));
        assert_eq!(p.as_slice(), b"new");
        assert_eq!(shelf.reuses(), 1);
    }
}
