//! The Fig. 10 struct datatype for the `MPI_Alltoall` test (§8.3).
//!
//! "The block size varies from one integer to x integers. The gap
//! between two blocks equals the size of the first block" — block sizes
//! increase exponentially from 4 bytes to the largest block.

use ibdt_datatype::Datatype;

/// Builds the Fig. 10 struct: blocks of 1, 2, 4, … ints up to
/// `last_block_ints`, each followed by a gap equal to the block itself.
pub fn struct_datatype(last_block_ints: u64) -> Datatype {
    assert!(
        last_block_ints.is_power_of_two(),
        "paper uses powers of two"
    );
    let mut fields = Vec::new();
    let mut displ = 0i64;
    let mut ints = 1u64;
    loop {
        fields.push((ints, displ, Datatype::int()));
        // Gap equal to the block just placed.
        displ += 2 * (ints as i64) * 4;
        if ints == last_block_ints {
            break;
        }
        ints *= 2;
    }
    Datatype::struct_(&fields).expect("fig. 10 struct is always valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_sizes_double() {
        let t = struct_datatype(8);
        // Blocks: 1, 2, 4, 8 ints = 15 ints = 60 bytes.
        assert_eq!(t.size(), 60);
        assert_eq!(t.num_blocks(), 4);
        let blocks = &t.flat().blocks;
        assert_eq!(blocks[0], (0, 4));
        assert_eq!(blocks[1], (8, 8));
        assert_eq!(blocks[2], (24, 16));
        assert_eq!(blocks[3], (56, 32));
    }

    #[test]
    fn paper_example_8192() {
        // "when the number of integers in the last block is 8192, the
        // block sizes vary from 4 bytes to 32768 bytes."
        let t = struct_datatype(8192);
        let blocks = &t.flat().blocks;
        assert_eq!(blocks.first().unwrap().1, 4);
        assert_eq!(blocks.last().unwrap().1, 32768);
        assert_eq!(blocks.len(), 14);
        // Total = (2^14 - 1) ints.
        assert_eq!(t.size(), ((1 << 14) - 1) * 4);
    }

    #[test]
    fn trivial_single_block() {
        let t = struct_datatype(1);
        assert_eq!(t.size(), 4);
        assert_eq!(t.num_blocks(), 1);
    }
}
