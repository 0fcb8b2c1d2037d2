//! The datatype taxonomy of the DDT-vs-manual-pack study (figure x17,
//! after "Do MPI Derived Datatypes Actually Help?", arXiv:2511.13804):
//! one representative constructor per family, each parameterized by
//! total data size so the same class can be swept across message
//! sizes on every transport.
//!
//! Layout invariants, relied on by the figure's crossover logic:
//!
//! * every type carries exactly `size` data bytes,
//! * the noncontiguous classes keep ~128 contiguous blocks, so the
//!   *block* size grows linearly with the message size and sweeps
//!   across the adaptive selector's per-transport thresholds
//!   (`ADAPTIVE_MULTIW_BLOCK` on IB, `ADAPTIVE_SHM_MULTIW_BLOCK` on
//!   shm single-copy, in `mpicore::config`).

use ibdt_datatype::Datatype;

/// The five constructor families of the x17 comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DtClass {
    /// `MPI_Type_contiguous`: the degenerate case, nothing to pack.
    Contig,
    /// Strided vector, the paper's motivating matrix-column type.
    Vector,
    /// Irregular `hindexed` blocks of two alternating widths.
    Indexed,
    /// Heterogeneous `struct` mixing int and double fields with gaps.
    Struct,
    /// `resized` unit replicated by `contiguous` — a strided layout
    /// spelled through an extent override.
    Resized,
}

/// All classes, in figure column order.
pub const ALL_CLASSES: [DtClass; 5] = [
    DtClass::Contig,
    DtClass::Vector,
    DtClass::Indexed,
    DtClass::Struct,
    DtClass::Resized,
];

impl DtClass {
    /// Short column label.
    pub fn short(self) -> &'static str {
        match self {
            DtClass::Contig => "ctg",
            DtClass::Vector => "vec",
            DtClass::Indexed => "idx",
            DtClass::Struct => "str",
            DtClass::Resized => "rsz",
        }
    }
}

/// Builds the representative type of `class` carrying exactly `size`
/// data bytes. `size` must be a multiple of 1024 and at least 4 KiB
/// so every family divides evenly.
pub fn build(class: DtClass, size: u64) -> Datatype {
    assert!(
        size >= 4096 && size.is_multiple_of(1024),
        "size {size} unsupported"
    );
    let byte = Datatype::byte();
    match class {
        DtClass::Contig => Datatype::contiguous(size, &byte).expect("contig"),
        DtClass::Vector => {
            // 128 rows of size/128 bytes, stride twice the block.
            let blk = size / 128;
            Datatype::hvector(128, blk, 2 * blk as i64, &byte).expect("vector")
        }
        DtClass::Indexed => {
            // 64 groups of one wide and two narrow blocks with
            // block-sized gaps: 64·(size/128) + 128·(size/256) = size.
            let a = size / 128;
            let b = size / 256;
            let mut blocks = Vec::with_capacity(192);
            let mut d: i64 = 0;
            for _ in 0..64 {
                blocks.push((a, d));
                d += (a + b) as i64;
                blocks.push((b, d));
                d += 2 * b as i64;
                blocks.push((b, d));
                d += (b + a) as i64;
            }
            Datatype::hindexed(&blocks, &byte).expect("indexed")
        }
        DtClass::Struct => {
            // 64 units of an int block and a double block, each
            // size/128 bytes, separated by half-block gaps.
            let blk = size / 128;
            let mut fields = Vec::with_capacity(128);
            let mut d: i64 = 0;
            for _ in 0..64 {
                fields.push((blk / 4, d, Datatype::int()));
                d += (blk + blk / 2) as i64;
                fields.push((blk / 8, d, Datatype::double()));
                d += (blk + blk / 2) as i64;
            }
            Datatype::struct_(&fields).expect("struct")
        }
        DtClass::Resized => {
            // A contiguous block resized to double extent, replicated:
            // a vector spelled differently.
            let blk = size / 128;
            let unit = Datatype::contiguous(blk, &byte).expect("unit");
            let unit = Datatype::resized(&unit, 0, 2 * blk as i64).expect("resized");
            Datatype::contiguous(128, &unit).expect("replicate")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_class_carries_exact_size() {
        for size in [4096u64, 65536, 1 << 20] {
            for class in ALL_CLASSES {
                let t = build(class, size);
                assert_eq!(t.size(), size, "{class:?} at {size}");
            }
        }
    }

    #[test]
    fn noncontig_classes_keep_block_count() {
        for class in [
            DtClass::Vector,
            DtClass::Indexed,
            DtClass::Struct,
            DtClass::Resized,
        ] {
            let t = build(class, 128 << 10);
            let n = t.num_blocks();
            assert!(
                (128..=192).contains(&n),
                "{class:?}: {n} blocks, expected 128..=192"
            );
            assert!(!t.is_contiguous(), "{class:?} must be noncontiguous");
        }
        assert!(build(DtClass::Contig, 128 << 10).is_contiguous());
    }

    #[test]
    fn block_size_scales_with_message_size() {
        let small = build(DtClass::Vector, 8 << 10);
        let large = build(DtClass::Vector, 2 << 20);
        let blk = |t: &Datatype| t.flat().blocks[0].1;
        assert_eq!(blk(&small), 64);
        assert_eq!(blk(&large), 16 << 10);
    }
}
