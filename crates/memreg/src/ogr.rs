//! Optimistic Group Registration (OGR, ref \[33\], §5.4.1).
//!
//! Registering a datatype message buffer poses a trade-off: registering
//! each contiguous block separately pays the per-call base cost many
//! times; registering the whole covering extent pays per-page cost for
//! the gaps. OGR sorts the blocks and greedily merges neighbours whenever
//! the extra pages pinned for the gap cost less than a fresh
//! register+deregister round trip — "large gaps which null any benefit
//! over individual registration are filtered out".

use crate::addr::Va;
use crate::cost::RegCostModel;
use ibdt_simcore::time::Time;

/// A registration plan: the regions to register and the modelled cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OgrPlan {
    /// Regions to register, sorted by address, non-overlapping.
    pub regions: Vec<(Va, u64)>,
    /// Modelled cost of registering all regions, ns.
    pub reg_cost_ns: Time,
    /// Modelled cost of later deregistering all regions, ns.
    pub dereg_cost_ns: Time,
}

impl OgrPlan {
    /// Total register + deregister cost.
    pub fn round_trip_ns(&self) -> Time {
        self.reg_cost_ns + self.dereg_cost_ns
    }

    /// Total bytes the plan pins (including gap bytes inside regions).
    pub fn pinned_bytes(&self) -> u64 {
        self.regions.iter().map(|(_, l)| *l).sum()
    }
}

/// Normalizes blocks: drops empties, sorts by address, merges blocks that
/// touch or overlap into maximal extents.
fn normalize(blocks: &[(Va, u64)]) -> Vec<(Va, u64)> {
    let mut v: Vec<(Va, u64)> = blocks.iter().copied().filter(|&(_, l)| l > 0).collect();
    v.sort_unstable();
    let mut out: Vec<(Va, u64)> = Vec::with_capacity(v.len());
    for (a, l) in v {
        match out.last_mut() {
            Some((oa, ol)) if a <= *oa + *ol => {
                let end = (a + l).max(*oa + *ol);
                *ol = end - *oa;
            }
            _ => out.push((a, l)),
        }
    }
    out
}

fn plan_from_regions(regions: Vec<(Va, u64)>, model: &RegCostModel) -> OgrPlan {
    let reg_cost_ns = regions.iter().map(|&(a, l)| model.reg_cost(a, l)).sum();
    let dereg_cost_ns = regions.iter().map(|&(a, l)| model.dereg_cost(a, l)).sum();
    OgrPlan {
        regions,
        reg_cost_ns,
        dereg_cost_ns,
    }
}

/// Builds the OGR plan for `blocks` under `model`.
///
/// Greedy left-to-right merge: a gap is absorbed into the current region
/// when the round-trip cost of the extra gap pages is no more than the
/// round-trip base cost of a separate region. This is the cost model of
/// ref \[33\] specialized to already-allocated MPI datatype buffers.
///
/// ```
/// use ibdt_memreg::{ogr, RegCostModel};
/// let model = RegCostModel::default();
/// // 4 KiB blocks with 12 KiB gaps: cheaper as one region.
/// let blocks: Vec<(u64, u64)> = (0..16).map(|i| (i * 16384, 4096)).collect();
/// let plan = ogr::plan(&blocks, &model);
/// assert_eq!(plan.regions.len(), 1);
/// assert!(plan.round_trip_ns() <= ogr::plan_per_block(&blocks, &model).round_trip_ns());
/// ```
pub fn plan(blocks: &[(Va, u64)], model: &RegCostModel) -> OgrPlan {
    let extents = normalize(blocks);
    if extents.is_empty() {
        return OgrPlan {
            regions: Vec::new(),
            reg_cost_ns: 0,
            dereg_cost_ns: 0,
        };
    }
    let new_region_cost = model.reg_base_ns + model.dereg_base_ns;
    let per_gap_page = model.reg_per_page_ns + model.dereg_per_page_ns;

    let mut regions: Vec<(Va, u64)> = Vec::with_capacity(extents.len());
    let (mut cur_a, mut cur_l) = extents[0];
    for &(a, l) in &extents[1..] {
        let cur_end = cur_a + cur_l;
        debug_assert!(a > cur_end, "normalize() must leave positive gaps");
        // Extra pages pinned if the gap is absorbed: pages of the merged
        // region minus pages of the two separate regions (page sharing at
        // the seams makes this precise rather than gap/page_size).
        let merged_pages = model.pages(cur_a, a + l - cur_a);
        let split_pages = model.pages(cur_a, cur_l) + model.pages(a, l);
        let extra_pages = merged_pages.saturating_sub(split_pages);
        if per_gap_page * extra_pages <= new_region_cost {
            cur_l = a + l - cur_a;
        } else {
            regions.push((cur_a, cur_l));
            (cur_a, cur_l) = (a, l);
        }
    }
    regions.push((cur_a, cur_l));
    plan_from_regions(regions, model)
}

/// Baseline: register every contiguous block separately.
pub fn plan_per_block(blocks: &[(Va, u64)], model: &RegCostModel) -> OgrPlan {
    plan_from_regions(normalize(blocks), model)
}

/// Baseline: register the single extent covering all blocks (gaps
/// included).
pub fn plan_whole_extent(blocks: &[(Va, u64)], model: &RegCostModel) -> OgrPlan {
    let extents = normalize(blocks);
    let regions = match (extents.first(), extents.last()) {
        (Some(&(first, _)), Some(&(last_a, last_l))) => vec![(first, last_a + last_l - first)],
        _ => Vec::new(),
    };
    plan_from_regions(regions, model)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> RegCostModel {
        RegCostModel {
            page_size: 4096,
            reg_base_ns: 20_000,
            reg_per_page_ns: 250,
            dereg_base_ns: 10_000,
            dereg_per_page_ns: 50,
        }
    }

    #[test]
    fn empty_input_empty_plan() {
        let p = plan(&[], &model());
        assert!(p.regions.is_empty());
        assert_eq!(p.round_trip_ns(), 0);
    }

    #[test]
    fn single_block() {
        let p = plan(&[(0x1000, 512)], &model());
        assert_eq!(p.regions, vec![(0x1000, 512)]);
    }

    #[test]
    fn small_gaps_are_merged() {
        // Vector-like layout: 4 KiB blocks with 12 KiB gaps. Extra gap
        // pages per merge = 3 → 3*300 = 900 ns <= 30_000 ns base: merge.
        let m = model();
        let blocks: Vec<(Va, u64)> = (0..16u64).map(|i| (i * 16384, 4096)).collect();
        let p = plan(&blocks, &m);
        assert_eq!(p.regions.len(), 1);
        assert_eq!(p.regions[0], (0, 15 * 16384 + 4096));
        assert!(p.round_trip_ns() < plan_per_block(&blocks, &m).round_trip_ns());
    }

    #[test]
    fn huge_gaps_are_not_merged() {
        // 1 MiB gaps: 256 extra pages * 300 ns = 76_800 > 30_000: split.
        let m = model();
        let blocks = vec![(0u64, 4096u64), (1 << 20, 4096), (2 << 20, 4096)];
        let p = plan(&blocks, &m);
        assert_eq!(p.regions.len(), 3);
        assert_eq!(
            p.round_trip_ns(),
            plan_per_block(&blocks, &m).round_trip_ns()
        );
    }

    #[test]
    fn adjacent_blocks_coalesce_in_normalize() {
        let m = model();
        let p = plan(&[(0, 100), (100, 100), (200, 100)], &m);
        assert_eq!(p.regions, vec![(0, 300)]);
    }

    #[test]
    fn overlapping_and_unsorted_input() {
        let m = model();
        let p = plan(&[(500, 100), (0, 600), (550, 200)], &m);
        assert_eq!(p.regions, vec![(0, 750)]);
    }

    #[test]
    fn zero_length_blocks_ignored() {
        let m = model();
        let p = plan(&[(0, 0), (100, 50), (999, 0)], &m);
        assert_eq!(p.regions, vec![(100, 50)]);
    }

    #[test]
    fn ogr_never_worse_than_both_baselines() {
        let m = model();
        let cases: Vec<Vec<(Va, u64)>> = vec![
            (0..32).map(|i| (i * 8192, 256)).collect(),
            (0..8).map(|i| (i * (1 << 22), 65536)).collect(),
            vec![(0, 16), (1 << 30, 16)],
        ];
        for blocks in cases {
            let ogr = plan(&blocks, &m).round_trip_ns();
            let per = plan_per_block(&blocks, &m).round_trip_ns();
            let whole = plan_whole_extent(&blocks, &m).round_trip_ns();
            assert!(ogr <= per, "ogr {ogr} > per-block {per}");
            assert!(ogr <= whole, "ogr {ogr} > whole {whole}");
        }
    }

    #[test]
    fn plan_regions_cover_all_blocks() {
        let m = model();
        let blocks: Vec<(Va, u64)> = (0..20).map(|i| (i * 10_000, 123)).collect();
        let p = plan(&blocks, &m);
        for &(a, l) in &blocks {
            assert!(
                p.regions
                    .iter()
                    .any(|&(ra, rl)| a >= ra && a + l <= ra + rl),
                "block ({a},{l}) not covered"
            );
        }
        // Regions sorted and disjoint.
        for w in p.regions.windows(2) {
            assert!(w[0].0 + w[0].1 <= w[1].0);
        }
    }

    #[test]
    fn whole_extent_single_region() {
        let m = model();
        let p = plan_whole_extent(&[(100, 10), (5000, 10)], &m);
        assert_eq!(p.regions, vec![(100, 4910)]);
        assert_eq!(p.pinned_bytes(), 4910);
    }
}
