//! FIFO serial resources.
//!
//! A [`SerialResource`] models a device that executes work items one at a
//! time in submission order — a host CPU core running the MPI progress
//! engine, a NIC work-queue processing engine, or a network link
//! serializing bytes. Work is expressed as "reserve `dur` nanoseconds no
//! earlier than `now`"; the resource returns the completion time and
//! accounts every reservation in its [`Trace`]: busy time per label and
//! a reservation count always, each span only when asked to
//! ([`Trace::record_spans`]), so utilization and overlap can be
//! measured without state that grows with run length.

use crate::time::Time;
use crate::trace::Trace;

/// A FIFO busy-until serial resource.
#[derive(Debug, Clone)]
pub struct SerialResource {
    name: &'static str,
    /// Every reservation's accounting; its last end is the instant the
    /// resource is busy until.
    trace: Trace,
}

impl SerialResource {
    /// Creates a resource. `name` labels unlabelled reservations.
    pub fn new(name: &'static str) -> Self {
        Self {
            name,
            trace: Trace::new(),
        }
    }

    /// Reserves `dur` nanoseconds of this resource, starting no earlier
    /// than `now` and no earlier than the end of previously reserved
    /// work. Returns the completion time. The trace accounts the
    /// reservation under `label`.
    pub fn reserve_labeled(&mut self, now: Time, dur: Time, label: &'static str) -> Time {
        let start = self.trace.last_end().max(now);
        let finish = start + dur;
        self.trace.record(start, finish, label);
        finish
    }

    /// [`Self::reserve_labeled`] with the resource name as the label.
    pub fn reserve(&mut self, now: Time, dur: Time) -> Time {
        self.reserve_labeled(now, dur, self.name)
    }

    /// Returns the resource to its just-constructed state — idle at
    /// t=0, zero accounting, spans cleared (capacity, span recording
    /// and tap retained). A reset resource schedules bit-identically to
    /// a fresh one.
    pub fn reset(&mut self) {
        self.trace.reset();
    }

    /// Earliest time new work could start.
    pub fn available_at(&self) -> Time {
        self.trace.last_end()
    }

    /// Total busy nanoseconds reserved so far.
    pub fn total_busy(&self) -> Time {
        self.trace.busy()
    }

    /// Number of work items executed.
    pub fn jobs(&self) -> u64 {
        self.trace.reservations()
    }

    /// Resource name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The reservation accounting: per-label totals, and the spans
    /// when recording.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Mutable access to the trace, to turn on span recording or a tap.
    pub fn trace_mut(&mut self) -> &mut Trace {
        &mut self.trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_resource_starts_immediately() {
        let mut r = SerialResource::new("cpu");
        assert_eq!(r.reserve(100, 50), 150);
        assert_eq!(r.available_at(), 150);
    }

    #[test]
    fn busy_resource_queues_fifo() {
        let mut r = SerialResource::new("cpu");
        assert_eq!(r.reserve(0, 100), 100);
        // Requested at t=10 but the resource is busy until 100.
        assert_eq!(r.reserve(10, 5), 105);
        assert_eq!(r.jobs(), 2);
        assert_eq!(r.total_busy(), 105);
    }

    #[test]
    fn gap_between_jobs_counts_as_idle() {
        let mut r = SerialResource::new("nic");
        r.reserve(0, 10);
        r.reserve(100, 10); // idle 10..100
        assert_eq!(r.total_busy(), 20);
        assert_eq!(r.available_at(), 110);
    }

    #[test]
    fn zero_duration_reservation_is_legal() {
        let mut r = SerialResource::new("link");
        assert_eq!(r.reserve(5, 0), 5);
        assert_eq!(r.total_busy(), 0);
    }

    #[test]
    fn trace_records_spans() {
        let mut r = SerialResource::new("cpu");
        r.trace_mut().record_spans(true);
        r.reserve_labeled(0, 10, "pack");
        r.reserve_labeled(0, 10, "unpack");
        let spans = r.trace().spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].label, "pack");
        assert_eq!((spans[1].start, spans[1].end), (10, 20));
    }

    #[test]
    fn untraced_resource_keeps_totals_only() {
        let mut r = SerialResource::new("cpu");
        r.reserve_labeled(0, 10, "pack");
        r.reserve_labeled(0, 10, "unpack");
        r.reset();
        r.reserve_labeled(5, 10, "pack");
        assert!(r.trace().spans().is_empty());
        assert_eq!(r.trace().busy_with_label("pack"), 10);
        assert_eq!((r.total_busy(), r.jobs(), r.available_at()), (10, 1, 15));
    }
}
