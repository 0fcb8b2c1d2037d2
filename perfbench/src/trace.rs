//! Benchmark-side tracing: a span around every call the benchmark makes
//! into a layer, and the counts read at the same seams.
//!
//! Spans are accumulated per name (total seconds and heap allocations
//! inside the span). With tracing off, [`Tracer::span`]
//! only calls its closure, so the untraced run measures the program
//! and nothing else.

use ibdt_testkit::CountingAlloc;
use std::collections::BTreeMap;
use std::time::Instant;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Heap allocation events since process start (all threads).
pub fn allocations() -> u64 {
    CountingAlloc::allocations()
}

/// Totals of every span recorded under one name.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct SpanTotal {
    /// Host seconds inside the spans.
    pub secs: f64,
    /// Heap allocations made while inside the spans.
    pub allocs: u64,
}

/// Span recorder; inert when built with `enabled == false`.
#[derive(Debug, Default)]
pub struct Tracer {
    enabled: bool,
    spans: BTreeMap<&'static str, SpanTotal>,
}

impl Tracer {
    /// A recorder that records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            spans: BTreeMap::new(),
        }
    }

    /// True when spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f`, recording it as one span named `name` when enabled.
    /// Spans are flat: `f` must not open another span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let a0 = allocations();
        let t0 = Instant::now();
        let out = f();
        let secs = t0.elapsed().as_secs_f64();
        let allocs = allocations() - a0;
        let e = self.spans.entry(name).or_default();
        e.secs += secs;
        e.allocs += allocs;
        out
    }

    /// Totals per span name.
    pub fn spans(&self) -> &BTreeMap<&'static str, SpanTotal> {
        &self.spans
    }

    /// Totals of one span name (zero when never recorded).
    pub fn total(&self, name: &str) -> SpanTotal {
        self.spans.get(name).copied().unwrap_or_default()
    }
}

/// Named counters read from the layers' own statistics.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Counts(BTreeMap<&'static str, f64>);

impl Counts {
    /// Adds `v` to counter `k`.
    pub fn add(&mut self, k: &'static str, v: f64) {
        *self.0.entry(k).or_default() += v;
    }

    /// Raises counter `k` to at least `v`.
    pub fn max(&mut self, k: &'static str, v: f64) {
        let e = self.0.entry(k).or_default();
        *e = e.max(v);
    }

    /// Value of counter `k` (zero when never touched).
    pub fn get(&self, k: &str) -> f64 {
        self.0.get(k).copied().unwrap_or(0.0)
    }
}
