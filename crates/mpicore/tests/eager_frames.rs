//! The eager receive ring's host backing follows messages in flight.
//!
//! Each rank pre-posts `eager_bufs_per_peer` receive slots per peer,
//! but a slot's bytes are live only from delivery to repost, so the
//! frame pool behind the ring (`AddressSpace::set_slot_window`) must
//! stay as small as the traffic in flight: independent of the slot
//! count and of how long the run is.

use ibdt_datatype::Datatype;
use ibdt_mpicore::{AppOp, Cluster, ClusterSpec, Program, Scheme};

const RANKS: u32 = 16;

fn spec() -> ClusterSpec {
    let mut spec = ClusterSpec {
        nprocs: RANKS,
        ..ClusterSpec::default()
    };
    spec.mpi.scheme = Scheme::Adaptive;
    spec
}

/// Peak frames per rank over `iters` Alltoalls of a 4 KiB vector block
/// per pair, on a fresh cluster.
fn peak_frames(iters: usize) -> Vec<usize> {
    let mut cluster = Cluster::new(spec());
    let ty = Datatype::vector(128, 8, 16, &Datatype::int()).unwrap();
    let span = ty.extent() as u64 * RANKS as u64 + 64;
    let progs: Vec<Program> = (0..RANKS)
        .map(|r| {
            let a2a = AppOp::Alltoall {
                sbuf: cluster.alloc(r, span, 4096),
                rbuf: cluster.alloc(r, span, 4096),
                count: 1,
                sty: ty.clone(),
                rty: ty.clone(),
            };
            let mut p = vec![a2a; iters];
            p.push(AppOp::Barrier);
            p
        })
        .collect();
    let stats = cluster.run(progs);
    assert!(stats.errors.iter().all(Vec::is_empty), "{:?}", stats.errors);
    (0..RANKS)
        .map(|r| {
            let (bound, pooled) = cluster.slot_frames(r);
            assert_eq!(bound, 0, "rank {r}: a consumed slot kept its frame");
            pooled
        })
        .collect()
}

#[test]
fn frame_pool_is_bounded_by_traffic_not_slots_or_run_length() {
    let short = peak_frames(4);
    let long = peak_frames(16);
    assert_eq!(short, long, "peak frames grew with run length");
    let slots = (RANKS as usize - 1) * spec().mpi.eager_bufs_per_peer;
    let peak = *long.iter().max().unwrap();
    assert!(peak > 0, "no eager traffic reached the ring");
    assert!(
        peak * 16 <= slots,
        "peak {peak} frames per rank is not far below the {slots} slots"
    );
    println!("peak frames per rank {long:?} of {slots} slots");
}
