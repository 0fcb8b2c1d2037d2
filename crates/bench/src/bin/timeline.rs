//! Renders the Fig. 3 overlap diagram from *measured* span traces:
//! one large datatype transfer per scheme, showing sender CPU, sender
//! NIC, and receiver CPU occupancy over virtual time. Its clusters are
//! built with `ClusterSpec::record`, the one switch that keeps spans.
//!
//! ```text
//! cargo run --release -p ibdt-bench --bin timeline [columns]
//! ```
//!
//! Legend: `P` pack, `U` unpack, `R` register/deregister, `p` post,
//! `m` malloc/free, `c` control/cqe handling, `=` wire serialization.

use ibdt_datatype::Datatype;
use ibdt_mpicore::{AppOp, Cluster, ClusterSpec, Scheme};
use ibdt_simcore::trace::Trace;

const WIDTH: usize = 96;

fn lane(trace: &Trace, t0: u64, t1: u64, classify: fn(&str) -> Option<char>) -> String {
    let mut row = vec![' '; WIDTH];
    let span = (t1 - t0).max(1) as f64;
    for s in trace.spans() {
        let Some(ch) = classify(s.label) else {
            continue;
        };
        if s.end <= t0 || s.start >= t1 {
            continue;
        }
        let a = ((s.start.max(t0) - t0) as f64 / span * WIDTH as f64) as usize;
        let b = ((s.end.min(t1) - t0) as f64 / span * WIDTH as f64).ceil() as usize;
        for c in row.iter_mut().take(b.min(WIDTH)).skip(a) {
            *c = ch;
        }
    }
    row.into_iter().collect()
}

fn cpu_class(label: &str) -> Option<char> {
    Some(match label {
        "pack" => 'P',
        "unpack" => 'U',
        "reg" | "dereg" | "malloc+reg" | "hint-reg" => 'R',
        "post" | "post-recv" => 'p',
        "free" => 'm',
        "ctrl" | "cqe" | "call" | "unexpected" => 'c',
        _ => return None,
    })
}

fn nic_class(label: &str) -> Option<char> {
    (label == "wire").then_some('=')
}

fn main() {
    let cols: u64 = std::env::args()
        .nth(1)
        .map(|a| a.parse().expect("numeric column count"))
        .unwrap_or(1024);
    let ty = Datatype::vector(128, cols, 4096, &Datatype::int()).expect("valid type");
    println!(
        "one-way transfer of {} columns ({} KiB, {} blocks); width = {} chars",
        cols,
        ty.size() / 1024,
        ty.num_blocks(),
        WIDTH
    );
    println!("legend: P pack  U unpack  R register  p post  c ctrl/cqe  = wire\n");

    for scheme in [
        Scheme::Generic,
        Scheme::BcSpup,
        Scheme::RwgUp,
        Scheme::MultiW,
        Scheme::Hybrid,
    ] {
        let mut spec = ClusterSpec {
            record: true,
            ..ClusterSpec::default()
        };
        spec.mpi.scheme = scheme;
        let mut cluster = Cluster::new(spec);
        let span = ty.true_ub() as u64 + 64;
        let sbuf = cluster.alloc(0, span, 4096);
        let rbuf = cluster.alloc(1, span, 4096);
        cluster.fill_pattern(0, sbuf, span, 1);
        let p0 = vec![
            AppOp::Isend {
                peer: 1,
                buf: sbuf,
                count: 1,
                ty: ty.clone(),
                tag: 0,
            },
            AppOp::WaitAll,
        ];
        let p1 = vec![
            AppOp::Irecv {
                peer: 0,
                buf: rbuf,
                count: 1,
                ty: ty.clone(),
                tag: 0,
            },
            AppOp::WaitAll,
        ];
        let stats = cluster.run(vec![p0, p1]);
        let t1 = stats.finish_ns;
        println!(
            "--- {:?} ({:.1} us, pack/wire overlap {:.1} us) ---",
            scheme,
            t1 as f64 / 1e3,
            stats.pack_wire_overlap_ns[0] as f64 / 1e3
        );
        println!("S-cpu |{}|", lane(cluster.cpu_trace(0), 0, t1, cpu_class));
        println!("S-nic |{}|", lane(cluster.tx_trace(0), 0, t1, nic_class));
        println!("R-cpu |{}|", lane(cluster.cpu_trace(1), 0, t1, cpu_class));
        println!();
    }
}
