//! Randomized property tests of the simulation core, driven by the
//! in-repo deterministic [`ibdt_testkit::Rng`] (the workspace builds
//! offline, so no external property-testing framework is available).

use ibdt_simcore::queue::EventQueue;
use ibdt_simcore::resource::SerialResource;
use ibdt_testkit::{cases, Rng};

#[test]
fn queue_is_a_stable_priority_queue() {
    cases(0x51C0_0001, 512, |rng: &mut Rng| {
        // Popping must yield events sorted by time, and ties in the
        // order they were scheduled (stability).
        let n = rng.range_usize(0, 200);
        let times: Vec<u64> = (0..n).map(|_| rng.range_u64(0, 1000)).collect();
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(t, i);
        }
        let mut expect: Vec<(u64, usize)> = times.iter().copied().zip(0..).collect();
        expect.sort_by_key(|&(t, i)| (t, i));
        let mut got = Vec::new();
        while let Some((t, i)) = q.pop() {
            got.push((t, i));
        }
        assert_eq!(got, expect);
    });
}

#[test]
fn queue_interleaved_pops_never_go_backwards() {
    cases(0x51C0_0002, 512, |rng: &mut Rng| {
        let nops = rng.range_usize(1, 300);
        let mut q = EventQueue::new();
        let mut last_popped: Option<u64> = None;
        let mut min_pending: Option<u64> = None;
        for _ in 0..nops {
            let push = rng.chance(0.5);
            let t = rng.range_u64(0, 1000);
            if push {
                // Scheduling into the past relative to the last pop is
                // the caller's bug; keep inputs monotone enough.
                let t = t.max(last_popped.unwrap_or(0));
                q.schedule(t, ());
                min_pending = Some(min_pending.map_or(t, |m: u64| m.min(t)));
            } else if let Some((t, ())) = q.pop() {
                if let Some(lp) = last_popped {
                    assert!(t >= lp, "time went backwards: {t} < {lp}");
                }
                last_popped = Some(t);
                min_pending = q.peek_time();
            }
        }
        if let (Some(mp), Some(pk)) = (min_pending, q.peek_time()) {
            assert_eq!(mp, pk);
        }
    });
}

#[test]
fn serial_resource_is_fifo_and_conserves_busy_time() {
    cases(0x51C0_0003, 512, |rng: &mut Rng| {
        let njobs = rng.range_usize(1, 100);
        let mut r = SerialResource::new("x");
        r.trace_mut().record_spans(true);
        let mut total = 0u64;
        let mut last_finish = 0u64;
        // Submission times must be non-decreasing (as in a DES).
        let mut now = 0u64;
        for _ in 0..njobs {
            let dt = rng.range_u64(0, 10_000);
            let dur = rng.range_u64(0, 500);
            now += dt;
            let fin = r.reserve(now, dur);
            assert!(fin >= now + dur);
            assert!(fin >= last_finish, "FIFO violated");
            assert!(
                fin >= last_finish + dur || last_finish <= now,
                "work overlapped on a serial resource"
            );
            last_finish = fin;
            total += dur;
        }
        assert_eq!(r.total_busy(), total);
        assert_eq!(r.available_at(), last_finish);
        // Trace spans are disjoint and sum to total busy.
        let spans = r.trace().spans();
        let sum: u64 = spans.iter().map(|s| s.len()).sum();
        assert_eq!(sum, total);
        for w in spans.windows(2) {
            assert!(w[0].end <= w[1].start, "trace spans overlap");
        }
    });
}
