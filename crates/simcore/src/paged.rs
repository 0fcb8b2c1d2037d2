//! Two-level paged sparse-dense tables.
//!
//! The dense per-direction fabric tables of DESIGN.md §12 index state
//! by `src * n + dst`: one flat `Vec` entry per ordered node pair.
//! That is O(n²) memory in rank count whether or not a pair ever
//! communicates — an 8-node testbed does not notice, a 4096-rank
//! Alltoall cannot even be constructed. [`PagedTable`] keeps the dense
//! tables' two load-bearing properties — *one indexed load per lookup*
//! and *defaults encoding absent-entry semantics* — while making
//! memory proportional to **touched** entries:
//!
//! * the key space is split into fixed-size pages of [`PAGE`] entries;
//!   the spine is a `Vec<Option<Box<[T]>>>` with one pointer per page,
//! * a page materializes on **first mutable touch**, filled with the
//!   table's default value; reads of untouched keys return a shared
//!   default instance, exactly the behaviour a dense table of defaults
//!   exhibits,
//! * the steady state allocates nothing: after the first touch a page
//!   is warm and `get_mut` is two indexed loads (spine, then slot).
//!
//! With `src * n + dst` keys a page covers [`PAGE`] consecutive
//! destinations of one source, so a sparse communication pattern
//! (ring, halo, nearest-neighbour) touches O(active pairs / PAGE)
//! pages and an Alltoall degrades gracefully to the dense layout plus
//! one pointer indirection. [`PagedTable::heap_bytes`] reports the
//! materialized footprint so scaling figures can plot memory against
//! *active* pairs rather than n².

use std::fmt;

/// Entries per page. 64 keeps a page of word-sized entries inside a
/// few cache lines and makes the slot index a single 6-bit mask.
pub const PAGE: usize = 64;

const PAGE_SHIFT: u32 = PAGE.trailing_zeros();
const PAGE_MASK: usize = PAGE - 1;

/// A sparse-dense table over a fixed key space `0..len`, paged in
/// blocks of [`PAGE`] entries allocated on first mutable touch. See
/// the module docs.
pub struct PagedTable<T> {
    /// One slot per page; `None` until the page is touched.
    pages: Vec<Option<Box<[T]>>>,
    /// Value untouched entries read as, and pages fill with.
    default: T,
    /// Factory producing one default entry (clones `default` for
    /// `with_fill` tables, calls `T::default` for `new` tables).
    make: fn(&T) -> T,
    /// Key-space size.
    len: usize,
    /// Materialized pages (monotone; pages are never released).
    live_pages: usize,
}

impl<T: fmt::Debug> fmt::Debug for PagedTable<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PagedTable")
            .field("len", &self.len)
            .field("pages", &self.live_pages)
            .field("of", &self.pages.len())
            .field("default", &self.default)
            .finish()
    }
}

impl<T: Default> PagedTable<T> {
    /// An empty table over keys `0..len` whose absent entries read as
    /// `T::default()`.
    pub fn new(len: usize) -> Self {
        Self {
            pages: Vec::new(),
            default: T::default(),
            make: |_| T::default(),
            len,
            live_pages: 0,
        }
    }
}

impl<T: Clone> PagedTable<T> {
    /// An empty table over keys `0..len` whose absent entries read as
    /// `fill` (the dense tables' "defaults encode absent-entry
    /// semantics", for defaults other than `T::default()` — e.g. a
    /// credit pool that starts full).
    pub fn with_fill(len: usize, fill: T) -> Self {
        Self {
            pages: Vec::new(),
            default: fill,
            make: |d| d.clone(),
            len,
            live_pages: 0,
        }
    }

    /// Makes `fill` the value absent entries read as and resets every
    /// materialized entry to it, keeping the pages: the table then
    /// reads exactly like `with_fill(len, fill)`.
    pub fn refill(&mut self, fill: T) {
        self.reset_entries(|e| *e = fill.clone());
        self.default = fill;
        self.make = |d| d.clone();
    }
}

impl<T> PagedTable<T> {
    /// Key-space size (the dense table's `len`).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True for a zero-length key space.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Shared access to entry `i`. Untouched entries read as the
    /// table default — no page materializes.
    #[inline]
    pub fn get(&self, i: usize) -> &T {
        debug_assert!(i < self.len, "paged index {i} out of {}", self.len);
        match self.pages.get(i >> PAGE_SHIFT) {
            Some(Some(p)) => &p[i & PAGE_MASK],
            _ => &self.default,
        }
    }

    /// Mutable access to entry `i`, materializing its page (filled
    /// with defaults) on first touch. Warm pages allocate nothing.
    #[inline]
    pub fn get_mut(&mut self, i: usize) -> &mut T {
        debug_assert!(i < self.len, "paged index {i} out of {}", self.len);
        let pi = i >> PAGE_SHIFT;
        if self.pages.len() <= pi {
            self.pages.resize_with(pi + 1, || None);
        }
        let slot = &mut self.pages[pi];
        if slot.is_none() {
            *slot = Some((0..PAGE).map(|_| (self.make)(&self.default)).collect());
            self.live_pages += 1;
        }
        &mut self.pages[pi].as_mut().expect("materialized above")[i & PAGE_MASK]
    }

    /// Mutable access to entry `i` only if its page is already
    /// materialized — probe-without-fault for paths that only act on
    /// state that exists (e.g. draining a queue that was never pushed
    /// to).
    #[inline]
    pub fn get_mut_touched(&mut self, i: usize) -> Option<&mut T> {
        debug_assert!(i < self.len, "paged index {i} out of {}", self.len);
        match self.pages.get_mut(i >> PAGE_SHIFT) {
            Some(Some(p)) => Some(&mut p[i & PAGE_MASK]),
            _ => None,
        }
    }

    /// Iterates `(index, &entry)` over materialized pages only —
    /// untouched entries (which read as defaults) are skipped, so a
    /// sweep over a sparse table is O(touched), not O(len).
    pub fn iter_touched(&self) -> impl Iterator<Item = (usize, &T)> {
        self.pages
            .iter()
            .enumerate()
            .filter_map(|(pi, p)| p.as_ref().map(|p| (pi, p)))
            .flat_map(|(pi, p)| {
                p.iter()
                    .enumerate()
                    .map(move |(s, e)| ((pi << PAGE_SHIFT) + s, e))
            })
    }

    /// Applies `f` to every entry of every materialized page, leaving
    /// the pages in place. With `f` restoring entries to the table's
    /// default value (possibly keeping their heap capacity — e.g.
    /// clearing a queue rather than replacing it), the table afterwards
    /// *reads* exactly like a fresh one: untouched keys still return
    /// the shared default, and warm pages hand back default-valued
    /// entries without allocating. Used by world recycling.
    pub fn reset_entries(&mut self, mut f: impl FnMut(&mut T)) {
        for page in self.pages.iter_mut().flatten() {
            for e in page.iter_mut() {
                f(e);
            }
        }
    }

    /// Number of materialized pages.
    pub fn pages_touched(&self) -> usize {
        self.live_pages
    }

    /// Heap bytes held by materialized pages and the spine (entry
    /// payloads' own heap allocations are not included — this is the
    /// table's structural footprint, the term that used to be O(n²)).
    pub fn heap_bytes(&self) -> usize {
        self.pages.capacity() * std::mem::size_of::<Option<Box<[T]>>>()
            + self.live_pages * PAGE * std::mem::size_of::<T>()
    }
}

impl<T> std::ops::Index<usize> for PagedTable<T> {
    type Output = T;
    #[inline]
    fn index(&self, i: usize) -> &T {
        self.get(i)
    }
}

impl<T> std::ops::IndexMut<usize> for PagedTable<T> {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut T {
        self.get_mut(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untouched_reads_are_defaults_and_allocate_no_pages() {
        let t: PagedTable<u64> = PagedTable::new(1 << 20);
        assert_eq!(t.len(), 1 << 20);
        assert_eq!(*t.get(0), 0);
        assert_eq!(*t.get((1 << 20) - 1), 0);
        assert_eq!(t.pages_touched(), 0);
        assert_eq!(t.heap_bytes(), 0);
    }

    #[test]
    fn first_touch_materializes_one_page() {
        let mut t: PagedTable<u64> = PagedTable::new(1 << 20);
        *t.get_mut(70) = 7;
        assert_eq!(t.pages_touched(), 1);
        assert_eq!(*t.get(70), 7);
        // Same page: no new materialization.
        *t.get_mut(64) = 9;
        assert_eq!(t.pages_touched(), 1);
        // Untouched neighbours on the same page read as default.
        assert_eq!(*t.get(65), 0);
        // A far key materializes its own page only.
        *t.get_mut(1 << 19) = 1;
        assert_eq!(t.pages_touched(), 2);
    }

    #[test]
    fn with_fill_reads_and_fills_with_custom_default() {
        let mut t: PagedTable<u32> = PagedTable::with_fill(256, 16);
        assert_eq!(*t.get(3), 16, "untouched probe reads the fill");
        *t.get_mut(3) -= 1;
        assert_eq!(*t.get(3), 15);
        assert_eq!(*t.get(4), 16, "page fill uses the custom default");
    }

    #[test]
    fn refill_reads_like_a_fresh_table_with_the_new_fill() {
        let mut t: PagedTable<u32> = PagedTable::new(256);
        *t.get_mut(3) = 9;
        t.refill(16);
        assert_eq!((*t.get(3), *t.get(200)), (16, 16));
        assert_eq!(*t.get_mut(200), 16, "a new page fills with the new value");
        assert_eq!(t.pages_touched(), 2, "pages stay materialized");
    }

    #[test]
    fn index_sugar_matches_get() {
        let mut t: PagedTable<u64> = PagedTable::new(128);
        t[5] += 3;
        t[5] += 4;
        assert_eq!(t[5], 7);
        assert_eq!(t[6], 0);
    }

    #[test]
    fn get_mut_touched_never_faults_pages() {
        let mut t: PagedTable<Vec<u32>> = PagedTable::new(1024);
        assert!(t.get_mut_touched(100).is_none());
        assert_eq!(t.pages_touched(), 0);
        t.get_mut(100).push(1);
        assert_eq!(t.get_mut_touched(100).unwrap().as_slice(), &[1]);
        assert!(t.get_mut_touched(700).is_none());
        assert_eq!(t.pages_touched(), 1);
    }

    #[test]
    fn iter_touched_skips_unmaterialized_pages() {
        let mut t: PagedTable<u64> = PagedTable::new(4096);
        *t.get_mut(1) = 10;
        *t.get_mut(130) = 20;
        let set: Vec<(usize, u64)> = t
            .iter_touched()
            .filter(|&(_, &v)| v != 0)
            .map(|(i, &v)| (i, v))
            .collect();
        assert_eq!(set, vec![(1, 10), (130, 20)]);
        // Two pages × PAGE entries visited, not 4096.
        assert_eq!(t.iter_touched().count(), 2 * PAGE);
    }

    #[test]
    fn matches_dense_vec_oracle_under_random_churn() {
        // Deterministic xorshift over a 2^14 key space: interleave
        // writes, reads, and full scans against a Vec oracle.
        let mut s: u64 = 0x1234_5678_9ABC_DEF0;
        let mut rng = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        const N: usize = 1 << 14;
        let mut paged: PagedTable<u64> = PagedTable::new(N);
        let mut dense = vec![0u64; N];
        for _ in 0..20_000 {
            let r = rng();
            let i = (r >> 8) as usize % N;
            match r % 3 {
                0 => {
                    let v = r >> 32;
                    *paged.get_mut(i) = v;
                    dense[i] = v;
                }
                1 => {
                    *paged.get_mut(i) += 1;
                    dense[i] += 1;
                }
                _ => assert_eq!(*paged.get(i), dense[i]),
            }
        }
        for (i, &v) in dense.iter().enumerate() {
            assert_eq!(*paged.get(i), v, "key {i}");
        }
        // Sparse access (≤ 20k touches of random keys) must not have
        // materialized anywhere near the full key space... but with
        // 2^14 keys and 2^8 pages it will have. Just bound sanity:
        assert!(paged.pages_touched() <= N / PAGE);
    }

    #[test]
    fn sparse_pattern_memory_is_sublinear_in_key_space() {
        // A ring pattern over src*n+dst keys: n ranks each touching 2
        // neighbours. Memory must scale with active pairs, not n².
        let n = 1024usize;
        let mut t: PagedTable<u64> = PagedTable::new(n * n);
        for r in 0..n {
            for d in [(r + 1) % n, (r + n - 1) % n] {
                *t.get_mut(r * n + d) = 1;
            }
        }
        let dense_bytes = n * n * std::mem::size_of::<u64>();
        assert!(
            t.heap_bytes() < dense_bytes / 4,
            "paged {} vs dense {}",
            t.heap_bytes(),
            dense_bytes
        );
        assert!(t.pages_touched() <= 3 * n);
    }
}
