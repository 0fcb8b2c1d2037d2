//! Golden rows for the sharded scale driver.
//!
//! Each row pins one configuration's `(fingerprint, finish_ns, rounds,
//! msgs, lost, crashed, events)` to the value the driver produced
//! when it still kept every pending event in a binary heap and popped
//! them one at a time. The rows are asserted on 1, 2 and 8 shards, so
//! they check two things the shard-invariance unit tests cannot: that
//! the batched per-window schedule replays the heap schedule exactly,
//! and that `events` equals the heap's pop count.
//!
//! The configurations cover the injection window (1, 4 and 15), the
//! ring pattern, seeded crash/stall plans at 48 and 256 ranks, the
//! two-stall case, and a hand-built plan whose faults share their
//! nanosecond with traffic: a crash at t = 0 (before the priming
//! injections) and a stall and a crash at the time of an ACK.
//!
//! A mismatch prints every observed row in the table's own syntax.

use ibdt_workloads::{
    run_scale, ScaleConfig, ScaleFault, ScaleFaultPlan, ScalePattern, ScaleReport,
};

/// `(fingerprint, finish_ns, rounds, msgs, lost, crashed, events)`.
type Row = (u64, u64, u64, u64, u64, u32, u64);

fn row(r: &ScaleReport) -> Row {
    (
        r.fingerprint,
        r.finish_ns,
        r.rounds,
        r.msgs,
        r.lost,
        r.crashed,
        r.events,
    )
}

/// Virtual time of the first completion ACK every rank of the 8-rank
/// default Alltoall receives.
const FIRST_ACK_NS: u64 = 70_480;

fn cases() -> Vec<(&'static str, ScaleConfig)> {
    let alltoall = |ranks, window| ScaleConfig {
        ranks,
        window,
        ..ScaleConfig::default()
    };
    let with_faults = |ranks, events: Vec<ScaleFault>| ScaleConfig {
        ranks,
        faults: ScaleFaultPlan { seed: 0, events },
        ..ScaleConfig::default()
    };
    let seeded = |ranks, plan| ScaleConfig {
        ranks,
        faults: plan,
        ..ScaleConfig::default()
    };
    vec![
        ("alltoall/48/window/1", alltoall(48, 1)),
        ("alltoall/48/window/4", alltoall(48, 4)),
        ("alltoall/48/window/15", alltoall(48, 15)),
        (
            "ring/96/columns/16",
            ScaleConfig {
                ranks: 96,
                pattern: ScalePattern::Ring,
                columns: 16,
                ..ScaleConfig::default()
            },
        ),
        (
            "seeded/48/0xC4A0",
            seeded(48, ScaleFaultPlan::seeded(0xC4A0, 48, 4, 6, 2_000_000)),
        ),
        (
            "seeded/256/0x1",
            seeded(256, ScaleFaultPlan::seeded(0x1, 256, 5, 8, 1_000_000)),
        ),
        (
            "seeded/256/0xBEEF",
            seeded(256, ScaleFaultPlan::seeded(0xBEEF, 256, 5, 8, 1_000_000)),
        ),
        (
            "two-stalls/16",
            with_faults(
                16,
                vec![
                    ScaleFault::Stall {
                        at_ns: 10,
                        rank: 0,
                        stall_ns: 500_000,
                    },
                    ScaleFault::Stall {
                        at_ns: 10,
                        rank: 7,
                        stall_ns: 500_000,
                    },
                ],
            ),
        ),
        (
            "same-ns-faults/8",
            with_faults(
                8,
                vec![
                    // Before rank 5's priming injections at t = 0.
                    ScaleFault::Crash { at_ns: 0, rank: 5 },
                    // Before rank 2's first ACK: the injection that
                    // ACK triggers serializes behind the stall.
                    ScaleFault::Stall {
                        at_ns: FIRST_ACK_NS,
                        rank: 2,
                        stall_ns: 40_000,
                    },
                    // Before rank 6's first ACK: the ACK is ignored.
                    ScaleFault::Crash {
                        at_ns: FIRST_ACK_NS,
                        rank: 6,
                    },
                ],
            ),
        ),
    ]
}

const GOLDEN: &[(&str, Row)] = &[
    (
        "alltoall/48/window/1",
        (0x5a4d454f819f8176, 1574469, 95, 2256, 0, 0, 6768),
    ),
    (
        "alltoall/48/window/4",
        (0x3eeb3d53914157e1, 1272384, 95, 2256, 0, 0, 6768),
    ),
    (
        "alltoall/48/window/15",
        (0xd8996b64678670b5, 1272384, 95, 2256, 0, 0, 6768),
    ),
    (
        "ring/96/columns/16",
        (0x5eb160d00c970eb0, 52225, 3, 96, 0, 0, 288),
    ),
    (
        "seeded/48/0xC4A0",
        (0xd99e487f8280f322, 1361329, 540, 2085, 87, 4, 6439),
    ),
    (
        "seeded/256/0x1",
        (0x7ab02f4e231fde5e, 8482586, 5128, 41916, 979, 5, 127719),
    ),
    (
        "seeded/256/0xBEEF",
        (0xfac2608b585d37cc, 8207560, 5142, 45423, 1001, 5, 138284),
    ),
    (
        "two-stalls/16",
        (0x21d1a71a6ad5309f, 708969, 71, 240, 0, 0, 722),
    ),
    (
        "same-ns-faults/8",
        (0x1ac07399684e1898, 176468, 17, 37, 9, 2, 136),
    ),
];

#[test]
fn golden_rows_replay_on_1_2_and_8_shards() {
    let cases = cases();
    let mut observed = String::new();
    let mut mismatches = Vec::new();
    if cases.len() != GOLDEN.len() {
        mismatches.push(format!(
            "{} cases, {} golden rows",
            cases.len(),
            GOLDEN.len()
        ));
    }
    for (i, (name, cfg)) in cases.iter().enumerate() {
        for shards in [1usize, 2, 8] {
            let got = row(&run_scale(&ScaleConfig {
                shards,
                threads: shards,
                ..cfg.clone()
            }));
            if shards == 1 {
                let (fp, finish, rounds, msgs, lost, crashed, events) = got;
                observed.push_str(&format!(
                    "    (\n        \"{name}\",\n        ({fp:#018x}, {finish}, {rounds}, {msgs}, \
                     {lost}, {crashed}, {events}),\n    ),\n"
                ));
            }
            if GOLDEN.get(i) != Some(&(*name, got)) {
                mismatches.push(format!("{name} on {shards} shards: {got:?}"));
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} golden mismatch(es):\n{}\nobserved rows:\n{observed}",
        mismatches.len(),
        mismatches.join("\n")
    );
}
