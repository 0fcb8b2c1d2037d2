//! The delivery core both transports share.
//!
//! [`Fabric`](crate::fabric::Fabric) and
//! [`ShmChannel`](crate::shm::ShmChannel) differ in timing, fault
//! injection and queue-pair state. What a transfer *does* when it
//! reaches its destination is the same on both, and lives here:
//!
//! * SGE validation at post ([`check_post`]);
//! * the receive descriptors of every `(node, peer)` pair, consumed in
//!   FIFO order, and the RNR park queue a send or write-with-immediate
//!   waits in while none is posted ([`Rx`]): one queue of each per
//!   pair, sized at construction;
//! * the length and rkey checks at the destination, the byte copy, and
//!   the completions delivery produces ([`Rx::deliver`]). The transport
//!   decides only *when* each completion becomes visible.
//!
//! Each transport keeps its in-flight transfers in one slab, from
//! launch (or post, on shared memory) until delivery, flush or discard.
//! Events, the park queue and the fabric's reorder buffer hold slab
//! [`Handle`]s; a transfer leaves its slab only when [`Rx::deliver`]
//! takes it, so a parked one stays where it was.
//!
//! # Each wire byte moves once
//!
//! A transfer carries where its bytes are ([`Source`]), not a copy of
//! them. Delivery reads the sender's memory and writes the destination
//! in one pass, taking each destination SGE's view once. This is
//! faithful because a sender learns that its buffer is free only from
//! its completion, and both transports produce that completion at or
//! after delivery: the verbs contract already forbids writing a posted
//! buffer before then. A real HCA also reads the source while it
//! serializes, not when the request is posted.
//!
//! Two transfer kinds tell the sender its buffer is free *before*
//! delivery, and they gather a [`Payload`] at post instead
//! ([`Source::Staged`]): every shared-memory double-copy transfer (the
//! bounce segment is a real second buffer) and the shared-memory
//! single-copy RDMA write (the sender pushes the bytes and completes at
//! once). A staged sender is *released*: delivery owes it no further
//! completion, so a too-small receive descriptor errors only the
//! receiver. Delivery hands the spent payload back to the transport
//! that gathered it ([`Delivered::Done`]'s `spent`), whose shelf
//! serves the next gather.
//!
//! # Source-stability audit
//!
//! Debug builds hash every deferred source when it is posted (for an
//! RDMA read, when the request reaches the responder) and assert at
//! delivery that the bytes are unchanged, so a protocol that writes a
//! posted buffer before its completion fails the test suite instead of
//! silently sending the newer bytes.

use crate::fabric::{FabricStats, NicEvent, NodeMem};
use crate::payload::Payload;
use crate::wr::{Cqe, CqeStatus, Opcode, PostError, RecvWr, SendWr, Sge, SgeList};
use ibdt_memreg::{AddressSpace, MemError, Va};
use ibdt_simcore::slab::Handle;
use ibdt_simcore::time::Time;
use ibdt_simcore::Shelf;
use std::collections::VecDeque;

/// Memory ranges of a deferred source on the transfer's source node: a
/// send or write's gather list, or the responder range of an RDMA read.
pub(crate) trait Ranges {
    /// Calls `f` with the ranges as SGEs.
    fn with<R>(&self, f: impl FnOnce(&[Sge]) -> R) -> R;
}

impl Ranges for SgeList {
    fn with<R>(&self, f: impl FnOnce(&[Sge]) -> R) -> R {
        f(self)
    }
}

impl Ranges for (Va, u64) {
    fn with<R>(&self, f: impl FnOnce(&[Sge]) -> R) -> R {
        f(&[Sge {
            addr: self.0,
            len: self.1,
            lkey: 0,
        }])
    }
}

/// Where a transfer's bytes are.
#[derive(Debug)]
pub(crate) enum Source<M> {
    /// The source node's memory, read at delivery.
    Deferred(M),
    /// Gathered at post: the sender was told its buffer is free before
    /// delivery (see the module docs).
    Staged(Payload),
}

impl<M: Ranges> Source<M> {
    fn len(&self) -> u64 {
        match self {
            Source::Deferred(m) => m.with(|s| s.iter().map(|s| s.len).sum()),
            Source::Staged(p) => p.len() as u64,
        }
    }

    /// The staged payload, spent once delivery placed or refused it.
    fn spent(self) -> Option<Payload> {
        match self {
            Source::Staged(p) => Some(p),
            Source::Deferred(_) => None,
        }
    }
}

/// What a transfer does at its destination.
#[derive(Debug)]
pub(crate) enum Op {
    /// Channel-semantics send: consumes a receive descriptor.
    Send {
        wr_id: u64,
        signaled: bool,
        data: Source<SgeList>,
    },
    /// RDMA write to `(addr, rkey)`; with `imm` it also consumes a
    /// receive descriptor.
    Write {
        wr_id: u64,
        addr: Va,
        rkey: u32,
        imm: Option<u32>,
        signaled: bool,
        data: Source<SgeList>,
    },
    /// RDMA read request: the responder checks the rkey and answers
    /// with a [`Op::ReadResponse`] (fabric only; the shared-memory
    /// channel resolves a read at post).
    ReadRequest {
        wr_id: u64,
        addr: Va,
        rkey: u32,
        len: u64,
        scatter: SgeList,
        signaled: bool,
    },
    /// RDMA read response, travelling responder to requester.
    ReadResponse {
        wr_id: u64,
        scatter: SgeList,
        signaled: bool,
        data: Source<(Va, u64)>,
    },
}

impl Op {
    /// The transfer a posted work request starts: a send or write
    /// carries `staged`, its bytes gathered at post, or else its
    /// gather list.
    #[inline]
    pub(crate) fn post(wr: SendWr, staged: Option<Payload>) -> Op {
        let data = match staged {
            Some(p) => Source::Staged(p),
            None => Source::Deferred(wr.sges),
        };
        let (addr, rkey) = wr.remote.unwrap_or_default();
        let (wr_id, signaled) = (wr.wr_id, wr.signaled);
        match (wr.opcode, data) {
            (Opcode::Send, data) => Op::Send {
                wr_id,
                signaled,
                data,
            },
            (Opcode::RdmaWrite, data) => Op::Write {
                wr_id,
                addr,
                rkey,
                imm: None,
                signaled,
                data,
            },
            (Opcode::RdmaWriteImm(v), data) => Op::Write {
                wr_id,
                addr,
                rkey,
                imm: Some(v),
                signaled,
                data,
            },
            (Opcode::RdmaRead, Source::Deferred(scatter)) => Op::ReadRequest {
                wr_id,
                addr,
                rkey,
                len: scatter.iter().map(|s| s.len).sum(),
                scatter,
                signaled,
            },
            (Opcode::RdmaRead, Source::Staged(_)) => {
                unreachable!("a read's bytes are on the responder, not staged at post")
            }
        }
    }

    /// The requester's work-request id.
    pub(crate) fn wr_id(&self) -> u64 {
        match self {
            Op::Send { wr_id, .. }
            | Op::Write { wr_id, .. }
            | Op::ReadRequest { wr_id, .. }
            | Op::ReadResponse { wr_id, .. } => *wr_id,
        }
    }

    /// Payload bytes this transfer occupies on the wire.
    pub(crate) fn wire_bytes(&self) -> u64 {
        match self {
            Op::Send { data, .. } | Op::Write { data, .. } => data.len(),
            Op::ReadResponse { data, .. } => data.len(),
            Op::ReadRequest { .. } => 0,
        }
    }

    /// True when delivery consumes a receive descriptor (and so needs a
    /// completion-queue slot at the destination).
    pub(crate) fn consumes_recv(&self) -> bool {
        matches!(self, Op::Send { .. } | Op::Write { imm: Some(_), .. })
    }
}

/// The functional content of one in-flight transfer.
#[derive(Debug)]
pub(crate) struct Xfer {
    /// Node that sent it; a deferred source lives in its memory.
    pub src: u32,
    pub op: Op,
}

/// What [`Rx::deliver`] did; the transport turns it into time.
pub(crate) enum Delivered {
    /// Delivery finished. `placed` is the bytes written at the
    /// destination, `None` when it was refused. `at_dst` completes at
    /// the destination (a consumed receive descriptor, or the read
    /// requester's work request); `at_src` completes the sender's work
    /// request. `nak` is set when the responder rejected the access,
    /// which errors a reliable connection. `spent` is the transfer's
    /// staged payload, done with, for the transport that gathered it.
    Done {
        placed: Option<u64>,
        at_dst: Option<Cqe>,
        at_src: Option<Cqe>,
        nak: bool,
        spent: Option<Payload>,
    },
    /// A read request passed its rkey check: the transport sends
    /// `resp`, an [`Op::ReadResponse`] of `len` bytes, back.
    Respond { len: u64, resp: Op },
}

/// Checks a send work request against the HCA limits and the sender's
/// registrations.
pub(crate) fn check_post(wr: &SendWr, max_sge: usize, mem: &NodeMem) -> Result<(), PostError> {
    check_sges(&wr.sges, max_sge, mem)?;
    if wr.opcode != Opcode::Send && wr.remote.is_none() {
        return Err(PostError::MissingRemote);
    }
    Ok(())
}

/// Checks a gather or scatter list against the HCA limit and the
/// node's registrations.
pub(crate) fn check_sges(sges: &[Sge], max_sge: usize, mem: &NodeMem) -> Result<(), PostError> {
    if sges.len() > max_sge {
        return Err(PostError::TooManySges {
            got: sges.len(),
            max: max_sge,
        });
    }
    for s in sges {
        mem.regs
            .check(s.lkey, s.addr, s.len)
            .map_err(PostError::BadLocalKey)?;
    }
    Ok(())
}

/// Gathers an SGE list into a payload buffer taken from `shelf`.
pub(crate) fn gather(shelf: &mut Shelf<Vec<u8>>, sges: &[Sge], space: &AddressSpace) -> Payload {
    let total: usize = sges.iter().map(|s| s.len as usize).sum();
    Payload::build(shelf, total, |data| {
        for s in sges {
            data.extend_from_slice(
                space
                    .slice(s.addr, s.len)
                    .expect("sge validated against a live registration"),
            );
        }
    })
}

/// A send-queue completion of `wr_id` on the queue pair to `peer`.
pub(crate) fn send_cqe(peer: u32, wr_id: u64, byte_len: u64, status: CqeStatus) -> Cqe {
    Cqe {
        peer,
        wr_id,
        is_recv: false,
        byte_len,
        imm: None,
        status,
    }
}

fn recv_cqe(peer: u32, wr_id: u64, byte_len: u64, imm: Option<u32>, status: CqeStatus) -> Cqe {
    Cqe {
        peer,
        wr_id,
        is_recv: true,
        byte_len,
        imm,
        status,
    }
}

/// The sender's success completion: owed when it asked for one and was
/// not already released at post.
fn sender_done<M>(
    signaled: bool,
    data: &Source<M>,
    peer: u32,
    wr_id: u64,
    len: u64,
) -> Option<Cqe> {
    (signaled && matches!(data, Source::Deferred(_)))
        .then(|| send_cqe(peer, wr_id, len, CqeStatus::Success))
}

/// The receive side both transports share: posted receive descriptors
/// and the handles of RNR-parked transfers per `(node, peer)`.
#[derive(Debug)]
pub(crate) struct Rx {
    /// Receive queues by node, then peer.
    recvq: Vec<Vec<VecDeque<RecvWr>>>,
    /// Transfers parked for a receive descriptor, by node, then peer.
    parked: Vec<Vec<VecDeque<Handle>>>,
    /// Consuming a descriptor that leaves this many posted counts a
    /// [`FabricStats::recv_low_water`] crossing (0 = off).
    low_watermark: usize,
    #[cfg(debug_assertions)]
    pub audit: Audit,
}

impl Rx {
    pub(crate) fn new(n: usize, low_watermark: usize) -> Self {
        Rx {
            recvq: vec![vec![VecDeque::new(); n]; n],
            parked: vec![vec![VecDeque::new(); n]; n],
            low_watermark,
            #[cfg(debug_assertions)]
            audit: Audit::default(),
        }
    }

    /// Empties every park queue in place, keeping capacity. Posted
    /// receive descriptors stay: the embedder restores each ring
    /// through [`Rx::recvq_mut`] instead of re-posting it.
    pub(crate) fn reset(&mut self) {
        self.parked.iter_mut().flatten().for_each(VecDeque::clear);
        #[cfg(debug_assertions)]
        self.audit.0.clear();
    }

    /// Receive descriptors posted on `node <- peer`.
    pub(crate) fn recvq_len(&self, node: u32, peer: u32) -> usize {
        self.recvq[node as usize][peer as usize].len()
    }

    /// The receive queue of `node <- peer`, front first.
    pub(crate) fn recvq_mut(&mut self, node: u32, peer: u32) -> &mut VecDeque<RecvWr> {
        &mut self.recvq[node as usize][peer as usize]
    }

    /// Posts a receive descriptor, already checked with [`check_sges`],
    /// on `node <- peer`; a transfer parked there is retried now.
    /// Inlined: moving the descriptor through a call costs a copy, and
    /// every consumed eager slot is re-posted through here, as is each
    /// slot of a freshly built cluster's rings.
    #[inline]
    pub(crate) fn post(
        &mut self,
        now: Time,
        node: u32,
        peer: u32,
        wr: RecvWr,
        sink: &mut (impl FnMut(Time, NicEvent) + ?Sized),
    ) {
        let q = &mut self.recvq[node as usize][peer as usize];
        if q.capacity() == 0 {
            // First post on this direction: size the ring in one step
            // instead of dribbling through doubling growth.
            q.reserve(16);
        }
        q.push_back(wr);
        if !self.parked[node as usize][peer as usize].is_empty() {
            sink(now, NicEvent::RnrRetry { node, peer });
        }
    }

    /// True when `op` needs a receive descriptor on `dst <- src` and
    /// none is posted: the transfer must be parked, not delivered.
    pub(crate) fn waits(&self, dst: u32, src: u32, op: &Op) -> bool {
        op.consumes_recv() && self.recvq_len(dst, src) == 0
    }

    /// Parks the transfer `h` on `dst <- src` until a descriptor is
    /// posted.
    pub(crate) fn park(&mut self, dst: u32, src: u32, h: Handle) {
        self.parked[dst as usize][src as usize].push_back(h);
    }

    /// The oldest transfer parked on `node <- peer`, once a descriptor
    /// is posted for it.
    pub(crate) fn unpark(&mut self, node: u32, peer: u32) -> Option<Handle> {
        if self.recvq_len(node, peer) == 0 {
            return None;
        }
        self.parked_mut(node, peer).pop_front()
    }

    /// The park queue of `node <- peer`.
    pub(crate) fn parked_mut(&mut self, node: u32, peer: u32) -> &mut VecDeque<Handle> {
        &mut self.parked[node as usize][peer as usize]
    }

    /// Pops the front descriptor of `dst <- src`, which [`Rx::waits`]
    /// found posted. Counts a low-watermark crossing (an edge, not a
    /// level, so the embedder sees one event per dip).
    fn consume(&mut self, dst: u32, src: u32, node_stats: &mut [FabricStats]) -> RecvWr {
        let q = &mut self.recvq[dst as usize][src as usize];
        let rwr = q.pop_front().expect("checked by Rx::waits");
        if self.low_watermark > 0 && q.len() + 1 == self.low_watermark {
            node_stats[dst as usize].recv_low_water += 1;
        }
        rwr
    }

    /// Delivers `x` at `dst`, once [`Rx::waits`] said it need not park:
    /// matches a receive descriptor, checks lengths and rkeys, copies
    /// the bytes and builds the completions. `tag` names the transfer
    /// to the debug source audit. Inlined into its two callers, so the
    /// transfer is not copied through the call.
    #[inline]
    pub(crate) fn deliver(
        &mut self,
        mems: &mut [NodeMem],
        dst: u32,
        x: Xfer,
        tag: u64,
        node_stats: &mut [FabricStats],
    ) -> Delivered {
        let src = x.src;
        let refused = |at_dst, at_src, nak, spent| Delivered::Done {
            placed: None,
            at_dst,
            at_src,
            nak,
            spent,
        };
        match x.op {
            Op::Send {
                wr_id,
                signaled,
                data,
            } => {
                let len = data.len();
                let rwr = self.consume(dst, src, node_stats);
                let capacity = rwr.capacity();
                if capacity < len {
                    let sent = CqeStatus::LocalLengthError {
                        sent: len,
                        capacity,
                    };
                    let nak = CqeStatus::RemoteAccess(MemError::OutOfBounds {
                        addr: 0,
                        len,
                        capacity,
                    });
                    let released = matches!(data, Source::Staged(_));
                    return refused(
                        Some(recv_cqe(src, rwr.wr_id, 0, None, sent)),
                        (!released).then(|| send_cqe(dst, wr_id, 0, nak)),
                        false,
                        data.spent(),
                    );
                }
                self.place(mems, src, dst, tag, &data, &rwr.sges);
                Delivered::Done {
                    placed: Some(len),
                    at_dst: Some(recv_cqe(src, rwr.wr_id, len, None, CqeStatus::Success)),
                    at_src: sender_done(signaled, &data, dst, wr_id, len),
                    nak: false,
                    spent: data.spent(),
                }
            }
            Op::Write {
                wr_id,
                addr,
                rkey,
                imm,
                signaled,
                data,
            } => {
                let len = data.len();
                if let Err(e) = mems[dst as usize].regs.check(rkey, addr, len) {
                    let nak = CqeStatus::RemoteAccess(e);
                    let at_src = Some(send_cqe(dst, wr_id, 0, nak));
                    return refused(None, at_src, true, data.spent());
                }
                let to = Sge { addr, len, lkey: 0 };
                self.place(mems, src, dst, tag, &data, &[to]);
                let at_dst = imm.map(|v| {
                    let rwr = self.recvq[dst as usize][src as usize]
                        .pop_front()
                        .expect("checked by Rx::waits");
                    recv_cqe(src, rwr.wr_id, len, Some(v), CqeStatus::Success)
                });
                Delivered::Done {
                    placed: Some(len),
                    at_dst,
                    at_src: sender_done(signaled, &data, dst, wr_id, len),
                    nak: false,
                    spent: data.spent(),
                }
            }
            Op::ReadRequest {
                wr_id,
                addr,
                rkey,
                len,
                scatter,
                signaled,
            } => match mems[dst as usize].regs.check(rkey, addr, len) {
                Err(e) => {
                    let nak = CqeStatus::RemoteAccess(e);
                    refused(None, Some(send_cqe(dst, wr_id, 0, nak)), true, None)
                }
                Ok(()) => Delivered::Respond {
                    len,
                    resp: Op::ReadResponse {
                        wr_id,
                        scatter,
                        signaled,
                        data: Source::Deferred((addr, len)),
                    },
                },
            },
            Op::ReadResponse {
                wr_id,
                scatter,
                signaled,
                data,
            } => {
                let len = data.len();
                self.place(mems, src, dst, tag, &data, &scatter);
                Delivered::Done {
                    placed: Some(len),
                    at_dst: signaled.then(|| send_cqe(src, wr_id, len, CqeStatus::Success)),
                    at_src: None,
                    nak: false,
                    spent: data.spent(),
                }
            }
        }
    }

    /// Copies `data` into the scatter list `to` on `dst`, one
    /// destination view per SGE. A deferred source is read on `src`
    /// through a split borrow of the two nodes' memories, or through
    /// [`AddressSpace::slice_pair`] when both are one node.
    fn place<M: Ranges>(
        &mut self,
        mems: &mut [NodeMem],
        src: u32,
        dst: u32,
        tag: u64,
        data: &Source<M>,
        to: &[Sge],
    ) {
        let from = match data {
            Source::Staged(p) => {
                let mut rest = p.as_slice();
                let space = &mut mems[dst as usize].space;
                for d in to {
                    if rest.is_empty() {
                        break;
                    }
                    let (now, later) = rest.split_at((d.len as usize).min(rest.len()));
                    space.write(d.addr, now).expect("sge validated at post");
                    rest = later;
                }
                debug_assert!(rest.is_empty(), "scatter capacity checked before");
                return;
            }
            Source::Deferred(m) => m,
        };
        #[cfg(debug_assertions)]
        self.audit
            .check(src, dst, tag, &mems[src as usize].space, from);
        let _ = tag;
        from.with(|pieces| {
            let mut rd = Reader {
                pieces,
                idx: 0,
                off: 0,
                left: pieces.iter().map(|s| s.len).sum(),
            };
            if src == dst {
                copy_within(&mut mems[dst as usize].space, &mut rd, to);
                return;
            }
            let (s, d) = if src < dst {
                let (a, b) = mems.split_at_mut(dst as usize);
                (&a[src as usize].space, &mut b[0].space)
            } else {
                let (a, b) = mems.split_at_mut(src as usize);
                (&b[0].space, &mut a[dst as usize].space)
            };
            for t in to {
                if rd.left == 0 {
                    break;
                }
                let view = d
                    .slice_mut(t.addr, t.len.min(rd.left))
                    .expect("sge validated at post");
                let mut o = 0;
                while o < view.len() {
                    let (a, k) = rd.next((view.len() - o) as u64);
                    view[o..o + k as usize]
                        .copy_from_slice(s.slice(a, k).expect("sge validated at post"));
                    o += k as usize;
                }
            }
            debug_assert_eq!(rd.left, 0, "scatter capacity checked before");
        });
    }
}

/// A cursor over a deferred source's pieces.
struct Reader<'a> {
    pieces: &'a [Sge],
    idx: usize,
    off: u64,
    /// Bytes not yet read.
    left: u64,
}

impl Reader<'_> {
    /// The next contiguous source range, at most `max` bytes long.
    fn next(&mut self, max: u64) -> (Va, u64) {
        while self.off == self.pieces[self.idx].len {
            (self.idx, self.off) = (self.idx + 1, 0);
        }
        let p = self.pieces[self.idx];
        let k = (p.len - self.off).min(max);
        let at = p.addr + self.off;
        self.off += k;
        self.left -= k;
        (at, k)
    }
}

/// [`Rx::place`] within one address space: each contiguous piece moves
/// through [`AddressSpace::slice_pair`]. A piece whose source and
/// destination overlap goes through a temporary, so the destination
/// receives the bytes the source held before the copy.
fn copy_within(space: &mut AddressSpace, rd: &mut Reader<'_>, to: &[Sge]) {
    for t in to {
        let end = t.len.min(rd.left);
        let mut o = 0;
        while o < end {
            let (a, k) = rd.next(end - o);
            match space.slice_pair(a, k, t.addr + o, k) {
                Ok((r, w)) => w.copy_from_slice(r),
                Err(MemError::Overlap { .. }) => {
                    let tmp = space.read(a, k).expect("sge validated at post");
                    space
                        .write(t.addr + o, &tmp)
                        .expect("sge validated at post");
                }
                Err(e) => panic!("sge validated at post: {e}"),
            }
            o += k;
        }
    }
}

/// Debug builds: the hash of every deferred source, taken when it was
/// posted and checked when delivery reads it, or dropped when the
/// transfer is flushed or discarded instead. Keyed by `(src, dst,
/// tag)`, where the transport's tag names the transfer uniquely among
/// those in flight on that direction. A hash map keeps its capacity
/// when it empties, so the audit adds no steady-state allocation to
/// the debug-build allocation counts.
#[cfg(debug_assertions)]
#[derive(Debug, Default)]
pub(crate) struct Audit(std::collections::HashMap<(u32, u32, u64), u64>); // allow-hashmap: debug-only audit, compiled out of release builds

#[cfg(debug_assertions)]
impl Audit {
    /// Records the bytes of `op`'s deferred source, if it has one, as
    /// they are now.
    pub(crate) fn record(&mut self, src: u32, dst: u32, tag: u64, space: &AddressSpace, op: &Op) {
        let hash = match op {
            Op::Send {
                data: Source::Deferred(sges),
                ..
            }
            | Op::Write {
                data: Source::Deferred(sges),
                ..
            } => Self::hash(space, sges),
            Op::ReadResponse {
                data: Source::Deferred(range),
                ..
            } => Self::hash(space, range),
            _ => return,
        };
        self.0.insert((src, dst, tag), hash);
    }

    /// Forgets a transfer that leaves its slab without delivery.
    pub(crate) fn forget(&mut self, src: u32, dst: u32, tag: u64) {
        self.0.remove(&(src, dst, tag));
    }

    /// True when no recorded source awaits delivery.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Asserts that a deferred source still holds the bytes it held
    /// when it was recorded.
    fn check(&mut self, src: u32, dst: u32, tag: u64, space: &AddressSpace, from: &impl Ranges) {
        let posted = self
            .0
            .remove(&(src, dst, tag))
            .expect("every deferred source is recorded when it is posted");
        debug_assert_eq!(
            posted,
            Self::hash(space, from),
            "transfer {tag:#x} from node {src} to node {dst}: its source was written \
             between post and delivery"
        );
    }

    fn hash(space: &AddressSpace, from: &impl Ranges) -> u64 {
        const PRIME: u64 = 0x0000_0100_0000_01B3;
        from.with(|pieces| {
            let mut h = 0xCBF2_9CE4_8422_2325u64;
            for s in pieces {
                let bytes = space.slice(s.addr, s.len).expect("sge validated at post");
                let mut words = bytes.chunks_exact(8);
                for w in &mut words {
                    let w = u64::from_le_bytes(w.try_into().expect("eight bytes"));
                    h = (h ^ w).wrapping_mul(PRIME).rotate_left(29);
                }
                for &b in words.remainder() {
                    h = (h ^ u64::from(b)).wrapping_mul(PRIME);
                }
            }
            h
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::fabric::{Fabric, NicEvent, NodeMem, Transfer};
    use crate::model::NetConfig;
    use crate::wr::{Opcode, SendWr, Sge};
    use std::mem::size_of;

    /// Transfers live in the transport's slab and events carry their
    /// handles, so an event stays the size of a completion.
    #[test]
    fn in_flight_transfers_do_not_grow() {
        assert!(size_of::<Transfer>() <= 232, "{}", size_of::<Transfer>());
        assert!(size_of::<NicEvent>() <= 80, "{}", size_of::<NicEvent>());
    }

    /// Posts an RDMA write on `0 -> dst` and runs the fabric dry.
    fn write(fabric: &mut Fabric, mems: &mut [NodeMem], dst: u32, sges: Vec<Sge>, to: (u64, u32)) {
        let mut evs = Vec::new();
        let wr = SendWr {
            wr_id: 1,
            opcode: Opcode::RdmaWrite,
            sges: sges.into(),
            remote: Some(to),
            signaled: true,
        };
        fabric
            .post_send(0, 0, dst, wr, mems, &mut |t, e| evs.push((t, e)))
            .unwrap();
        let mut out = Vec::new();
        while let Some(i) = (0..evs.len()).min_by_key(|&i| evs[i].0) {
            let (t, ev) = evs.swap_remove(i);
            fabric.handle(t, ev, mems, &mut |t, e| evs.push((t, e)), &mut out);
        }
        assert!(out.iter().all(|(_, c)| c.status.is_ok()), "{out:?}");
    }

    fn pattern(len: u64) -> Vec<u8> {
        (0..len).map(|i| (i * 7 + 3) as u8).collect()
    }

    /// A gather of several pieces lands in another node byte-exact, and
    /// within one node a destination overlapping its source receives
    /// the bytes the source held before the copy.
    #[test]
    fn deferred_sources_land_exactly() {
        let mut fabric = Fabric::new(2, NetConfig::default());
        let mut mems: Vec<NodeMem> = (0..2).map(|_| NodeMem::new(1 << 20)).collect();
        let a = mems[0].space.alloc_page_aligned(8192).unwrap();
        mems[0].space.write(a, &pattern(8192)).unwrap();
        let lkey = mems[0].regs.register(a, 8192).lkey;
        let b = mems[1].space.alloc_page_aligned(8192).unwrap();
        let rkey = mems[1].regs.register(b, 8192).rkey;
        let piece = |off: u64, len: u64| Sge {
            addr: a + off,
            len,
            lkey,
        };
        let sges = vec![piece(100, 10), piece(0, 0), piece(4000, 300), piece(9, 1)];
        write(&mut fabric, &mut mems, 1, sges, (b + 5, rkey));
        let want: Vec<u8> = [(100, 10), (4000, 300), (9, 1)]
            .iter()
            .flat_map(|&(o, n)| pattern(8192)[o..o + n].to_vec())
            .collect();
        assert_eq!(mems[1].space.slice(b + 5, 311).unwrap(), &want[..]);

        let rkey0 = mems[0].regs.register(a, 8192).rkey;
        write(
            &mut fabric,
            &mut mems,
            0,
            vec![piece(0, 600)],
            (a + 200, rkey0),
        );
        assert_eq!(
            mems[0].space.slice(a + 200, 600).unwrap(),
            &pattern(600)[..]
        );
    }
}
