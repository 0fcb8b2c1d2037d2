//! Scheme advisor: describe a datatype shape, see what each scheme
//! would cost and what the §6 adaptive rule picks.
//!
//! ```text
//! cargo run --release --example scheme_advisor -- [blocks] [block_bytes] [stride_bytes]
//! cargo run --release --example scheme_advisor -- 128 256 16384
//! ```

use ibdt::datatype::Datatype;
use ibdt::mpicore::plan::adaptive_choose;
use ibdt::mpicore::{ClusterSpec, Scheme, TransportClass};
use ibdt::workloads::drivers::pingpong;

fn main() {
    let args: Vec<u64> = std::env::args()
        .skip(1)
        .map(|a| a.parse().expect("numeric argument"))
        .collect();
    let (blocks, block_bytes, stride) = match args.as_slice() {
        [] => (128, 256, 16384),
        [b, bb, s] => (*b, *bb, *s),
        _ => {
            eprintln!("usage: scheme_advisor [blocks block_bytes stride_bytes]");
            std::process::exit(2);
        }
    };
    assert!(stride >= block_bytes, "stride must cover the block");

    let ty = Datatype::hvector(blocks, block_bytes, stride as i64, &Datatype::byte())
        .expect("valid type");
    let stats = ty.flat().stats(1);
    println!(
        "type: {blocks} blocks x {block_bytes} B, stride {stride} B \
         ({} KiB data in {} KiB span, density {:.1}%)",
        ty.size() / 1024,
        ty.true_extent() / 1024,
        100.0 * ty.size() as f64 / ty.true_extent().max(1) as f64,
    );
    println!(
        "block stats: min {} B, median {} B, mean {:.1} B\n",
        stats.min, stats.median, stats.mean
    );

    let advice = adaptive_choose(TransportClass::Ib, ty.size(), stats.median, stats.median);

    println!("{:>10}  {:>12}", "scheme", "latency");
    let mut best = (Scheme::Generic, u64::MAX);
    for scheme in [
        Scheme::Generic,
        Scheme::BcSpup,
        Scheme::RwgUp,
        Scheme::PRrs,
        Scheme::MultiW,
    ] {
        let mut spec = ClusterSpec::default();
        spec.mpi.scheme = scheme;
        let r = pingpong(&spec, &ty, 1, 2, 4);
        if r.one_way_ns < best.1 {
            best = (scheme, r.one_way_ns);
        }
        println!(
            "{:>10}  {:>9.1} us",
            format!("{scheme:?}"),
            r.one_way_ns as f64 / 1e3
        );
    }
    println!("\nmeasured best : {:?}", best.0);
    println!("adaptive picks: {advice:?} (receiver-side rule, §6)");
    if advice == best.0 {
        println!("the adaptive rule matches the measurement");
    } else {
        println!(
            "note: the adaptive rule is a heuristic on block statistics; \
                  the measured optimum can differ near crossovers"
        );
    }
}
