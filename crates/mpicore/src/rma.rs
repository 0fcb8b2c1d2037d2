//! MPI-2 one-sided communication (RMA) with derived datatypes.
//!
//! §1 lists remote memory access among the consumers of derived
//! datatypes, and the versioned datatype cache of §5.4.2 originates in
//! Träff et al.'s one-sided implementation (ref \[14\]). This module
//! provides the fence-synchronized core of MPI-2 RMA:
//!
//! * a **window** exposes a registered region of each rank's memory;
//!   window information (base, length, rkey) is exchanged at creation,
//! * **Put** writes `origin_count` instances of an origin datatype into
//!   a target datatype layout inside the target's window — implemented
//!   exactly like Multi-W (§5.3): one RDMA write per target-contiguous
//!   block with an origin gather list, list-posted,
//! * **Get** mirrors it with RDMA reads: one read per target-contiguous
//!   block scattered into the origin layout (the Read-Scatter feature
//!   of §2),
//! * **Fence** completes all outstanding RMA of the epoch, then
//!   barriers.
//!
//! Both transfers are genuinely one-sided: the target's CPU does no
//! work — only its HCA places or serves data.

use crate::plan::{lkey_for, plan_multi_w, Tail, WrFrame};
use crate::progress::{abs_blocks_into, post_wrs, Ctx, WR_RMA};
use crate::rank::RankState;
use ibdt_datatype::Datatype;
use ibdt_memreg::{ogr, Va};

/// Window metadata as seen by every rank: one entry per rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WinEntry {
    /// Base address of the exposed region in the owner's memory.
    pub base: Va,
    /// Length of the exposed region.
    pub len: u64,
    /// rkey granting remote access.
    pub rkey: u32,
}

/// Absolute blocks of `count` instances of `ty` at `buf`, from the
/// type's compiled plan.
fn abs_blocks(rs: &mut RankState, ty: &Datatype, count: u64, buf: Va) -> Vec<(Va, u64)> {
    let mut out = Vec::new();
    abs_blocks_into(&rs.plan_for(ty, count), buf, &mut out);
    out
}

/// Registers the origin buffer blocks (pin-down cached); the
/// registrations are parked on `rs.rma_regs` until the next fence.
fn register_origin(rs: &mut RankState, ctx: &mut Ctx<'_, '_>, blocks: &[(Va, u64)]) {
    let plan = ogr::plan(blocks, &ctx.host.reg);
    let mut cost = 0;
    for &(a, l) in &plan.regions {
        let acq = rs
            .pindown
            .acquire(&mut ctx.mems[rs.rank as usize].regs, &ctx.host.reg, a, l);
        cost += acq.cost_ns;
        rs.rma_regs.push(acq.reg);
    }
    rs.cpu.reserve_labeled(ctx.now(), cost, "reg");
}

/// `MPI_Put`: one-sided write of origin data into the target window at
/// byte offset `target_off`, laid out as `target_count` instances of
/// `target_ty`.
#[allow(clippy::too_many_arguments)]
pub fn put(
    rs: &mut RankState,
    ctx: &mut Ctx<'_, '_>,
    target: u32,
    win: WinEntry,
    origin_buf: Va,
    origin_count: u64,
    origin_ty: &Datatype,
    target_off: u64,
    target_count: u64,
    target_ty: &Datatype,
) {
    assert_eq!(
        origin_count * origin_ty.size(),
        target_count * target_ty.size(),
        "put size mismatch"
    );
    if origin_ty.size() * origin_count == 0 {
        return;
    }
    let origin_blocks = abs_blocks(rs, origin_ty, origin_count, origin_buf);
    let target_blocks = abs_blocks(rs, target_ty, target_count, win.base + target_off);
    for &(a, l) in &target_blocks {
        assert!(
            a >= win.base && a + l <= win.base + win.len,
            "put outside the target window"
        );
    }
    if target == rs.rank {
        local_copy(rs, ctx, &origin_blocks, &target_blocks);
        return;
    }
    register_origin(rs, ctx, &origin_blocks);
    post_rma(rs, ctx, target, win, &origin_blocks, &target_blocks, false);
}

/// `MPI_Get`: one-sided read of target-window data into the origin
/// layout.
#[allow(clippy::too_many_arguments)]
pub fn get(
    rs: &mut RankState,
    ctx: &mut Ctx<'_, '_>,
    target: u32,
    win: WinEntry,
    origin_buf: Va,
    origin_count: u64,
    origin_ty: &Datatype,
    target_off: u64,
    target_count: u64,
    target_ty: &Datatype,
) {
    assert_eq!(
        origin_count * origin_ty.size(),
        target_count * target_ty.size(),
        "get size mismatch"
    );
    if origin_ty.size() * origin_count == 0 {
        return;
    }
    let origin_blocks = abs_blocks(rs, origin_ty, origin_count, origin_buf);
    let target_blocks = abs_blocks(rs, target_ty, target_count, win.base + target_off);
    for &(a, l) in &target_blocks {
        assert!(
            a >= win.base && a + l <= win.base + win.len,
            "get outside the target window"
        );
    }
    if target == rs.rank {
        local_copy(rs, ctx, &target_blocks, &origin_blocks);
        return;
    }
    register_origin(rs, ctx, &origin_blocks);
    post_rma(rs, ctx, target, win, &origin_blocks, &target_blocks, true);
}

/// Plans and posts one RMA operation: one write (or, for Get, one
/// read) per target-contiguous range with an origin gather (scatter)
/// list — the Multi-W plan, with `plan_multi_w`'s "receiver" the remote
/// side — list-posted with one signaled sentinel at the end.
fn post_rma(
    rs: &mut RankState,
    ctx: &mut Ctx<'_, '_>,
    target: u32,
    win: WinEntry,
    origin: &[(Va, u64)],
    remote: &[(Va, u64)],
    read: bool,
) {
    let regs = &rs.rma_regs;
    let frame = WrFrame {
        read,
        ..WrFrame::write(
            WR_RMA,
            ctx.net.max_sge,
            |a, l| lkey_for(regs, a, l),
            |_, _| win.rkey,
        )
    };
    let mut wrs = Vec::new();
    plan_multi_w(&frame, origin, remote, Tail::SIGNALED, &mut wrs);
    if wrs.is_empty() {
        return;
    }
    rs.rma_outstanding += 1;
    if let Err(e) = post_wrs(rs, ctx, target, wrs, true) {
        // Undo the epoch charge so the next fence does not hang waiting
        // for a sentinel completion that will never arrive.
        rs.errors.push(e);
        rs.rma_outstanding -= 1;
        rs.rma_event = true;
    }
}

/// Local (self-target) RMA: a datatype-to-datatype memory copy.
fn local_copy(
    rs: &mut RankState,
    ctx: &mut Ctx<'_, '_>,
    src_blocks: &[(Va, u64)],
    dst_blocks: &[(Va, u64)],
) {
    let total: u64 = src_blocks.iter().map(|&(_, l)| l).sum();
    // Gather source bytes, scatter to destination, block by block,
    // through a recycled scratch buffer.
    let mut data = rs.scratch.take_empty(total as usize);
    let space = &mut ctx.mems[rs.rank as usize].space;
    for &(a, l) in src_blocks {
        data.extend_from_slice(space.slice(a, l).expect("src in bounds"));
    }
    let mut off = 0;
    for &(a, l) in dst_blocks {
        space
            .write(a, &data[off..off + l as usize])
            .expect("dst in bounds");
        off += l as usize;
    }
    rs.scratch.put_bytes(data);
    let blocks = src_blocks.len() + dst_blocks.len();
    let cost = ctx.host.copy_ns(blocks.max(1), total);
    rs.cpu.reserve_labeled(ctx.now(), cost, "pack");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn win_entry_is_plain_data() {
        let w = WinEntry {
            base: 0x1000,
            len: 4096,
            rkey: 7,
        };
        assert_eq!(w, w);
    }
}
