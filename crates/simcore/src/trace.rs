//! Span traces and the streaming overlap meter.
//!
//! A [`Trace`] accounts for the reservations of one serial resource:
//! busy time per label, a reservation count and the end of the last
//! reservation. That state does not grow with run length. Keeping every
//! labelled `[start, end)` interval as a [`Span`] is opt-in
//! ([`Trace::record_spans`]): the `timeline` binary (the paper's Fig. 3)
//! draws them, and tests use them to *prove* that the pipelined schemes
//! overlap host work with network time (e.g. that during a BC-SPUP
//! transfer the sender CPU's `pack` spans intersect the link's
//! transmission spans), rather than trusting the aggregate numbers.
//!
//! An [`Overlap`] measures that overlap as the run goes. A trace can
//! tap one label ([`Trace::tap`]): its spans wait in the trace until
//! [`Overlap::feed`] merges them with another trace's tapped spans. The
//! meter holds a span only until the other input has passed its end, so
//! its state is bounded by the work in flight, not by run length, and
//! its total equals [`Trace::overlap_with`] over the same spans exactly.

use crate::time::Time;
use std::collections::VecDeque;

/// One labelled interval of resource occupancy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Interval start (inclusive), virtual ns.
    pub start: Time,
    /// Interval end (exclusive), virtual ns.
    pub end: Time,
    /// Static label, e.g. `"pack"`, `"wire"`, `"unpack"`.
    pub label: &'static str,
}

impl Span {
    /// Span length in nanoseconds.
    pub fn len(&self) -> Time {
        self.end - self.start
    }

    /// True for an empty (zero-length) span.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// Busy time carried by one label.
#[derive(Debug, Clone, Copy)]
struct LabelBusy {
    label: &'static str,
    busy: Time,
    /// True when this is the trace's tapped label.
    tapped: bool,
}

/// The reservations of one serial resource, recorded in chronological
/// order: per-label busy totals always, every span only on request.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Busy time by label. A reservation finds its entry by the label's
    /// address; the rare second copy of a string gets its own entry,
    /// and [`Self::busy_with_label`] sums them.
    busy: Vec<LabelBusy>,
    reservations: u64,
    last_end: Time,
    /// Every span, when recording ([`Self::record_spans`]).
    spans: Option<Vec<Span>>,
    /// The label whose spans wait in `tapped` for an [`Overlap`].
    tap: Option<&'static str>,
    tapped: Vec<(Time, Time)>,
}

impl Trace {
    /// Creates an empty trace that keeps totals only.
    pub fn new() -> Self {
        Self::default()
    }

    /// Keeps every span from now on, readable through [`Self::spans`],
    /// when `on`; otherwise drops the span list and keeps totals only.
    pub fn record_spans(&mut self, on: bool) {
        if on {
            self.spans.get_or_insert_with(Vec::new);
        } else {
            self.spans = None;
        }
    }

    /// Holds the spans labelled `label` until an [`Overlap::feed`]
    /// takes them.
    pub fn tap(&mut self, label: &'static str) {
        self.tap = Some(label);
        for b in &mut self.busy {
            b.tapped = b.label == label;
        }
    }

    /// Accounts one reservation `[start, end)`. Reservations arrive in
    /// order and disjoint, as a serial resource makes them. A recording
    /// trace's first span reserves a block of capacity up front: traces
    /// sit on simulation hot paths (every resource reservation lands
    /// here), so growth must not dribble out one doubling at a time.
    pub fn record(&mut self, start: Time, end: Time, label: &'static str) {
        debug_assert!(start <= end, "span must not be inverted");
        debug_assert!(
            self.last_end <= start,
            "spans must arrive in order and disjoint"
        );
        self.reservations += 1;
        self.last_end = end;
        let i = match self.busy.iter().position(|b| std::ptr::eq(b.label, label)) {
            Some(i) => i,
            None => {
                self.busy.push(LabelBusy {
                    label,
                    busy: 0,
                    tapped: self.tap == Some(label),
                });
                self.busy.len() - 1
            }
        };
        let b = &mut self.busy[i];
        b.busy += end - start;
        if b.tapped {
            self.tapped.push((start, end));
        }
        if let Some(spans) = &mut self.spans {
            if spans.capacity() == 0 {
                spans.reserve(64);
            }
            spans.push(Span { start, end, label });
        }
    }

    /// Clears every total and span, keeping the buffers' capacity and
    /// the recording and tap settings. A reset trace records exactly
    /// like a fresh one — used by world recycling (one cluster reused
    /// across sweep points) so re-tracing a run allocates nothing.
    pub fn reset(&mut self) {
        self.busy.clear();
        self.reservations = 0;
        self.last_end = 0;
        if let Some(spans) = &mut self.spans {
            spans.clear();
        }
        self.tapped.clear();
    }

    /// All recorded spans; empty unless [`Self::record_spans`] was
    /// called.
    pub fn spans(&self) -> &[Span] {
        self.spans.as_deref().unwrap_or_default()
    }

    /// Recorded spans whose label equals `label`.
    pub fn with_label<'a>(&'a self, label: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans().iter().filter(move |s| s.label == label)
    }

    /// Total busy time carried by reservations with the given label.
    pub fn busy_with_label(&self, label: &str) -> Time {
        self.busy
            .iter()
            .filter(|b| b.label == label)
            .map(|b| b.busy)
            .sum()
    }

    /// Total busy time of all reservations.
    pub fn busy(&self) -> Time {
        self.busy.iter().map(|b| b.busy).sum()
    }

    /// Number of reservations accounted.
    pub fn reservations(&self) -> u64 {
        self.reservations
    }

    /// End of the last reservation: the trace's next one starts no
    /// earlier.
    pub fn last_end(&self) -> Time {
        self.last_end
    }

    /// Heap bytes the trace holds (capacity, not length).
    pub fn heap_bytes(&self) -> usize {
        self.busy.capacity() * std::mem::size_of::<LabelBusy>()
            + self.spans.as_ref().map_or(0, Vec::capacity) * std::mem::size_of::<Span>()
            + self.tapped.capacity() * std::mem::size_of::<(Time, Time)>()
    }

    /// Total virtual time during which a span from `self` with label `a`
    /// overlaps a span from `other` with label `b`, over the recorded
    /// spans. This is the measure of pipelining between two resources;
    /// [`Overlap`] computes it without recording.
    ///
    /// Spans arrive sorted and disjoint (see [`Self::record`]), so one
    /// merge sweep over both label filters visits each span once.
    pub fn overlap_with(&self, a: &str, other: &Trace, b: &str) -> Time {
        let (mut xs, mut ys) = (self.with_label(a), other.with_label(b));
        let (mut x, mut y) = (xs.next(), ys.next());
        let mut total = 0;
        while let (Some(sa), Some(sb)) = (x, y) {
            total += sa.end.min(sb.end).saturating_sub(sa.start.max(sb.start));
            if sa.end <= sb.end {
                x = xs.next();
            } else {
                y = ys.next();
            }
        }
        total
    }
}

/// The total overlap between two span streams, merged as they arrive.
///
/// Each input (0 and 1) delivers its spans in order and disjoint. A
/// pair of overlapping spans is counted once, when the later of the two
/// arrives. A span is held only while the other input's frontier (the
/// instant before which it will deliver nothing more) has not passed
/// its end, so the meter holds only spans that can still overlap.
#[derive(Debug, Clone, Default)]
pub struct Overlap {
    /// Per input, its spans that may still overlap a later span of the
    /// other input, in order.
    held: [VecDeque<(Time, Time)>; 2],
    /// Per input, the instant before which it delivers no span.
    front: [Time; 2],
    total: Time,
}

impl Overlap {
    /// Creates a meter with nothing counted.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds the span `[start, end)` to input `side` (0 or 1) and counts
    /// its overlap with every held span of the other input.
    fn push(&mut self, side: usize, start: Time, end: Time) {
        debug_assert!(
            start <= end && self.front[side] <= start,
            "spans must arrive in order and disjoint"
        );
        for &(s, e) in &self.held[1 - side] {
            if s >= end {
                break;
            }
            self.total += e.min(end).saturating_sub(s.max(start));
        }
        self.advance(side, end);
        if start < end && end > self.front[1 - side] {
            self.held[side].push_back((start, end));
        }
    }

    /// Declares that input `side` delivers no span starting before
    /// `to`, dropping the other input's held spans that end by then.
    fn advance(&mut self, side: usize, to: Time) {
        let front = self.front[side].max(to);
        self.front[side] = front;
        let held = &mut self.held[1 - side];
        while held.front().is_some_and(|&(_, e)| e <= front) {
            held.pop_front();
        }
    }

    /// Takes the tapped spans of `a` (input 0) and `b` (input 1) and
    /// advances each input to its trace's last end, before which a
    /// serial resource reserves nothing more.
    pub fn feed(&mut self, a: &mut Trace, b: &mut Trace) {
        for (side, t) in [(0, a), (1, b)] {
            for (s, e) in t.tapped.drain(..) {
                self.push(side, s, e);
            }
            self.advance(side, t.last_end);
        }
    }

    /// Total overlap counted so far.
    pub fn total(&self) -> Time {
        self.total
    }

    /// Heap bytes the meter holds (capacity, not length).
    pub fn heap_bytes(&self) -> usize {
        self.held.iter().map(VecDeque::capacity).sum::<usize>()
            * std::mem::size_of::<(Time, Time)>()
    }

    /// Returns the meter to its just-constructed state, keeping its
    /// buffers' capacity.
    pub fn reset(&mut self) {
        self.held.iter_mut().for_each(VecDeque::clear);
        self.front = [0; 2];
        self.total = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recording() -> Trace {
        let mut t = Trace::new();
        t.record_spans(true);
        t
    }

    #[test]
    fn label_filter_and_busy() {
        let mut t = recording();
        t.record(0, 10, "pack");
        t.record(10, 30, "wire");
        t.record(30, 35, "pack");
        assert_eq!(t.with_label("pack").count(), 2);
        assert_eq!(t.busy_with_label("pack"), 15);
        assert_eq!(t.busy_with_label("wire"), 20);
        assert_eq!(t.busy_with_label("unpack"), 0);
        assert_eq!((t.busy(), t.reservations(), t.last_end()), (35, 3, 35));
    }

    #[test]
    fn totals_without_spans() {
        let mut t = Trace::new();
        t.record(0, 10, "pack");
        t.record(12, 12, "post");
        t.record(20, 25, "pack");
        assert!(t.spans().is_empty());
        assert_eq!(t.busy_with_label("pack"), 15);
        assert_eq!((t.busy(), t.reservations(), t.last_end()), (15, 3, 25));
        t.reset();
        assert_eq!((t.busy(), t.reservations(), t.last_end()), (0, 0, 0));
    }

    #[test]
    fn cross_trace_overlap() {
        let mut cpu = recording();
        cpu.record(0, 10, "pack");
        cpu.record(20, 30, "pack");
        let mut link = recording();
        link.record(5, 25, "wire");
        // pack[0..10] overlaps wire for 5, pack[20..30] overlaps for 5.
        assert_eq!(cpu.overlap_with("pack", &link, "wire"), 10);
    }

    /// The pairwise definition of [`Trace::overlap_with`].
    fn overlap_pairwise(x: &Trace, a: &str, y: &Trace, b: &str) -> Time {
        let mut total = 0;
        for sa in x.with_label(a) {
            for sb in y.with_label(b) {
                total += sa.end.min(sb.end).saturating_sub(sa.start.max(sb.start));
            }
        }
        total
    }

    /// A serial resource's trace: sorted, disjoint spans (some empty,
    /// some touching) under a mix of labels.
    fn random_trace(rng: &mut ibdt_testkit::Rng, labels: &[&'static str]) -> Trace {
        let mut t = recording();
        let mut at = 0;
        for _ in 0..rng.range_usize(0, 60) {
            at += rng.range_u64(0, 3) * rng.range_u64(1, 40);
            let end = at + rng.range_u64(0, 50);
            t.record(at, end, rng.pick(labels));
            at = end;
        }
        t
    }

    #[test]
    fn sweep_matches_pairwise_overlap() {
        ibdt_testkit::cases(0x7ACE, 300, |rng| {
            let cpu = random_trace(rng, &["pack", "unpack", "ctrl"]);
            let link = random_trace(rng, &["wire", "ack"]);
            for (a, b) in [("pack", "wire"), ("unpack", "ack"), ("ctrl", "nope")] {
                assert_eq!(
                    cpu.overlap_with(a, &link, b),
                    overlap_pairwise(&cpu, a, &link, b)
                );
            }
        });
    }

    /// The streaming meter equals the sweep over recorded spans under
    /// any interleaving of its two inputs: labelled spans pushed, the
    /// other labels advancing their input's frontier, as a serial
    /// resource's later reservations would.
    #[test]
    fn streaming_overlap_matches_sweep() {
        ibdt_testkit::cases(0x0E7A, 300, |rng| {
            let cpu = random_trace(rng, &["pack", "unpack", "ctrl"]);
            let link = random_trace(rng, &["wire", "ack"]);
            let inputs = [(cpu.spans(), "pack"), (link.spans(), "wire")];
            let mut next = [0, 0];
            let mut m = Overlap::new();
            while next[0] < inputs[0].0.len() || next[1] < inputs[1].0.len() {
                let side = if next[1] == inputs[1].0.len()
                    || (next[0] < inputs[0].0.len() && rng.chance(0.5))
                {
                    0
                } else {
                    1
                };
                let (spans, label) = inputs[side];
                let s = spans[next[side]];
                next[side] += 1;
                if s.label == label {
                    m.push(side, s.start, s.end);
                } else if rng.chance(0.5) {
                    m.advance(side, s.end);
                }
            }
            assert_eq!(m.total(), cpu.overlap_with("pack", &link, "wire"));
        });
    }

    /// Taps and [`Overlap::feed`] at random points give the same total
    /// as recording both traces and sweeping them afterwards.
    #[test]
    fn fed_taps_match_sweep() {
        ibdt_testkit::cases(0xFEED, 300, |rng| {
            let want_cpu = random_trace(rng, &["pack", "unpack", "ctrl"]);
            let want_link = random_trace(rng, &["wire", "ack"]);
            let (mut cpu, mut link) = (Trace::new(), Trace::new());
            cpu.tap("pack");
            link.tap("wire");
            let mut m = Overlap::new();
            let (mut i, mut j) = (0, 0);
            let (xs, ys) = (want_cpu.spans(), want_link.spans());
            while i < xs.len() || j < ys.len() {
                if j == ys.len() || (i < xs.len() && rng.chance(0.5)) {
                    cpu.record(xs[i].start, xs[i].end, xs[i].label);
                    i += 1;
                } else {
                    link.record(ys[j].start, ys[j].end, ys[j].label);
                    j += 1;
                }
                if rng.chance(0.2) {
                    m.feed(&mut cpu, &mut link);
                }
            }
            m.feed(&mut cpu, &mut link);
            assert_eq!(m.total(), want_cpu.overlap_with("pack", &want_link, "wire"));
            assert_eq!(
                cpu.busy_with_label("pack"),
                want_cpu.busy_with_label("pack")
            );
            assert!(cpu.spans().is_empty() && link.spans().is_empty());
        });
    }

    #[test]
    fn empty_and_touching_spans_add_nothing() {
        let mut m = Overlap::new();
        m.push(0, 0, 10);
        m.push(1, 10, 20); // touches
        m.push(1, 20, 20); // empty
        m.push(0, 15, 15); // empty, inside a wire span
        assert_eq!(m.total(), 0);
        m.push(0, 15, 25);
        assert_eq!(m.total(), 5);
    }

    /// Two resources alternating packs against wire time for a long
    /// run, fed every few reservations: neither the traces nor the
    /// meter hold more after 100,000 rounds than after a
    /// thousand.
    #[test]
    fn meter_state_does_not_grow_with_reservations() {
        let footprint = |n: u64| {
            let (mut cpu, mut tx) = (Trace::new(), Trace::new());
            cpu.tap("pack");
            tx.tap("wire");
            let mut m = Overlap::new();
            for k in 0..n {
                let t = k * 100;
                cpu.record(t, t + 60, "pack");
                cpu.record(t + 60, t + 70, "post");
                tx.record(t + 50, t + 120, "wire");
                if k % 8 == 7 {
                    m.feed(&mut cpu, &mut tx);
                }
            }
            m.feed(&mut cpu, &mut tx);
            assert_eq!(m.total(), 10 + (n - 1) * 30);
            cpu.heap_bytes() + tx.heap_bytes() + m.heap_bytes()
        };
        assert_eq!(footprint(1_000), footprint(100_000));
    }

    #[test]
    fn no_overlap_for_disjoint_labels() {
        let mut a = recording();
        a.record(0, 100, "x");
        let mut b = recording();
        b.record(0, 100, "y");
        assert_eq!(a.overlap_with("nope", &b, "y"), 0);
        assert_eq!(a.overlap_with("x", &b, "nope"), 0);
    }

    #[test]
    fn zero_length_span() {
        let s = Span {
            start: 5,
            end: 5,
            label: "z",
        };
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
    }
}
