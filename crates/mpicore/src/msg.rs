//! Control message wire formats.
//!
//! All protocol control traffic (eager headers, rendezvous start/reply,
//! P-RRS segment-ready, fin) travels as channel-semantics sends into the
//! pre-posted eager buffers, so these messages are genuinely serialized
//! into simulated memory and parsed back on arrival — a malformed
//! encoder shows up as a test failure, not a silent mismatch.
//!
//! The rendezvous reply is one record, [`Reply`]: the kind of reply
//! (its body tag on the wire), the segment buffers it hands the
//! sender, and for Multi-W and Hybrid the [`DirectPart`] that names the
//! receiver's layout through the versioned datatype cache (§5.4.2).
//! Each part has one encoder and one decoder; the decoder rejects, and
//! never panics on, any input that is not an encoding.

use crate::config::HYBRID_BLOCK_THRESHOLD;
use crate::plan::ReplyKind;
use ibdt_datatype::cache::TypeTag;
use ibdt_datatype::FlatLayout;
use ibdt_simcore::InlineVec;
use std::sync::Arc;

/// Per-segment `(addr, rkey)` reply targets. Inline up to 4 entries:
/// steady-state rendezvous replies carry a handful of segments, so the
/// common decode allocates nothing; wide replies spill to the heap.
pub type SegList = InlineVec<(u64, u32), 4>;

/// A control message.
#[derive(Debug, Clone, PartialEq)]
pub enum CtrlMsg {
    /// Small-message data; the packed payload follows the header in the
    /// same eager buffer.
    EagerData {
        /// MPI tag.
        tag: u32,
        /// Per-(src,dst) message sequence number.
        seq: u64,
        /// Packed payload bytes.
        size: u64,
    },
    /// Rendezvous start (sender → receiver). On the wire: tag, seq,
    /// size, scheme, nsegs, seg_size, blk_min, blk_median.
    RndvStart {
        /// MPI tag.
        tag: u32,
        /// Message sequence number.
        seq: u64,
        /// What the receiver decides the scheme from.
        proposal: Proposal,
        /// Number of segments the sender will use. The receiver plans
        /// its own segments and ignores this and `seg_size`; they stay
        /// on the wire because removing them would shorten every start
        /// and so move every virtual time.
        nsegs: u32,
        /// Segment size in bytes.
        seg_size: u64,
    },
    /// Rendezvous reply (receiver → sender).
    RndvReply {
        /// Sequence number echoed from the start message.
        seq: u64,
        /// Scheme the receiver selected (wire code).
        scheme: u8,
        /// What the receiver hands the sender.
        body: Reply,
    },
    /// P-RRS: a packed segment is ready to be read (sender → receiver).
    SegReady {
        /// Sequence number.
        seq: u64,
        /// Segment index.
        k: u32,
        /// Address of the packed segment in the sender's memory.
        addr: u64,
        /// rkey covering the segment.
        rkey: u32,
        /// Segment length.
        len: u64,
    },
    /// Transfer finished (direction depends on scheme: P-RRS receiver →
    /// sender; zero-size rendezvous sender → receiver).
    Fin {
        /// Sequence number.
        seq: u64,
    },
    /// Sender's reply-timeout probe: "resend your rendezvous reply for
    /// `seq` if it already went out" (it may have been lost with an
    /// errored queue pair). Receivers still preparing simply ignore it.
    RndvProbe {
        /// Sequence number of the stalled rendezvous.
        seq: u64,
    },
    /// Connection-recovery resume request, sent after a queue pair is
    /// re-established. Sender → receiver: "report how far `seq` got and
    /// resend your reply". Receiver → sender (P-RRS): "re-announce your
    /// packed segments for `seq`".
    RndvResume {
        /// Sequence number of the interrupted rendezvous.
        seq: u64,
    },
    /// Receiver's answer to [`CtrlMsg::RndvResume`]: the contiguous
    /// chunk prefix that already arrived (the sender restarts from this
    /// boundary), or `done` when the transfer had already completed.
    RndvResumeAck {
        /// Sequence number.
        seq: u64,
        /// Segments `0..from_k` arrived and are safe to skip.
        from_k: u32,
        /// True when the receiver completed the transfer before the
        /// connection died; the sender can complete immediately.
        done: bool,
    },
    /// Eager flow-control credit grant (receiver → sender): the
    /// receiver matched this many eager messages from the destination
    /// peer, freeing their credits. Usually piggybacked in front of
    /// another control message in the same eager buffer; travels alone
    /// when a starved sender must be unblocked.
    CreditUpdate {
        /// Credits returned.
        credits: u32,
    },
}

/// What a rendezvous start tells the receiver's scheme choice (§6),
/// carried as one record from the start to the receive that matches
/// it. Packed to 4-byte alignment so that a queued unexpected start
/// (`rank::Unexpected`) stays 48 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C, packed(4))]
pub struct Proposal {
    /// Total packed size of the message.
    pub size: u64,
    /// Scheme the sender proposes (wire code).
    pub scheme: u8,
    /// Minimum contiguous block size on the sender side (bytes).
    pub blk_min: u64,
    /// Median contiguous block size on the sender side (bytes).
    pub blk_median: u64,
}

/// The rendezvous reply: what the receiver hands the sender for the
/// scheme it chose (§4–5, §10). Generic, BC-SPUP and RWG-UP hand it
/// segment buffers, P-RRS a go-ahead, Multi-W the receiver's layout
/// and pinned regions, Hybrid both.
#[derive(Debug, Clone, PartialEq)]
pub struct Reply {
    /// What the reply hands over; its body tag on the wire.
    pub kind: ReplyKind,
    /// Receiver buffers `(addr, rkey)` for the packed segments, in
    /// segment order: Generic's one buffer (sent without a count), one
    /// per segment for BC-SPUP, RWG-UP and Hybrid's packed part, none
    /// for P-RRS and Multi-W.
    pub segs: SegList,
    /// The receiver's layout and pinned regions: present exactly for
    /// the direct kinds ([`ReplyKind::direct`]).
    pub direct: Option<DirectPart>,
}

/// What a Multi-W or Hybrid reply ships so that the sender can write
/// straight into the receiver's buffer.
#[derive(Debug, Clone, PartialEq)]
pub struct DirectPart {
    /// Receiver user-buffer address (datatype offset 0).
    pub base: u64,
    /// Receiver datatype tag (index + version).
    pub tag: TypeTag,
    /// Instance count on the receiver.
    pub count: u64,
    /// Flattened layout; `None` when the receiver knows this peer
    /// already caches `(tag.index, tag.version)`.
    pub layout: Option<Arc<FlatLayout>>,
    /// Registered regions `(addr, len, rkey)` covering the buffer.
    pub regions: Vec<(u64, u64, u32)>,
}

const K_EAGER: u8 = 1;
const K_START: u8 = 2;
const K_REPLY: u8 = 3;
const K_SEGREADY: u8 = 4;
const K_FIN: u8 = 5;
const K_PROBE: u8 = 6;
const K_RESUME: u8 = 7;
const K_RESUME_ACK: u8 = 8;
const K_CREDIT: u8 = 9;

/// The reply kinds by body tag: tag `i + 1` is `BODIES[i]`.
const BODIES: [ReplyKind; 5] = [
    ReplyKind::Buffer,
    ReplyKind::Segments,
    ReplyKind::MultiW,
    ReplyKind::ReadGo,
    ReplyKind::Hybrid,
];

/// Layout length prefix meaning "no layout: the sender caches it".
const NO_LAYOUT: u64 = u64::MAX;

/// Wire bytes per region `(addr, len, rkey)` and per segment buffer
/// `(addr, rkey)`.
const REGION_BYTES: usize = 20;
const SEG_BYTES: usize = 12;

struct W<'a>(&'a mut Vec<u8>);
impl W<'_> {
    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }
    fn bytes(&mut self, b: &[u8]) {
        self.u64(b.len() as u64);
        self.0.extend_from_slice(b);
    }
}

struct R<'a>(&'a [u8], usize);
impl<'a> R<'a> {
    fn u8(&mut self) -> Option<u8> {
        let v = *self.0.get(self.1)?;
        self.1 += 1;
        Some(v)
    }
    fn u32(&mut self) -> Option<u32> {
        let s = self.0.get(self.1..self.1 + 4)?;
        self.1 += 4;
        Some(u32::from_le_bytes(s.try_into().ok()?))
    }
    fn u64(&mut self) -> Option<u64> {
        let s = self.0.get(self.1..self.1 + 8)?;
        self.1 += 8;
        Some(u64::from_le_bytes(s.try_into().ok()?))
    }
    fn bytes(&mut self) -> Option<&'a [u8]> {
        let n = usize::try_from(self.u64()?).ok()?;
        let s = self.0.get(self.1..self.1.checked_add(n)?)?;
        self.1 += n;
        Some(s)
    }
}

impl DirectPart {
    fn encode(&self, w: &mut W) {
        w.u64(self.base);
        w.u32(self.tag.index);
        w.u32(self.tag.version);
        w.u64(self.count);
        match &self.layout {
            Some(l) => w.bytes(&l.encode()),
            None => w.u64(NO_LAYOUT),
        }
        w.u32(self.regions.len() as u32);
        for &(a, l, k) in &self.regions {
            w.u64(a);
            w.u64(l);
            w.u32(k);
        }
    }

    fn decode(r: &mut R) -> Option<DirectPart> {
        let base = r.u64()?;
        let tag = TypeTag {
            index: r.u32()?,
            version: r.u32()?,
        };
        let count = r.u64()?;
        // Peek the length prefix for the "no layout" mark.
        let layout = if R(r.0, r.1).u64()? == NO_LAYOUT {
            r.u64()?;
            None
        } else {
            Some(Arc::new(FlatLayout::decode(r.bytes()?)?))
        };
        // Reserve no more than the bytes left can hold: a corrupt count
        // fails at the read past the end, not at the allocation.
        let n = r.u32()? as usize;
        let mut regions = Vec::with_capacity(n.min((r.0.len() - r.1) / REGION_BYTES));
        for _ in 0..n {
            regions.push((r.u64()?, r.u64()?, r.u32()?));
        }
        Some(DirectPart {
            base,
            tag,
            count,
            layout,
            regions,
        })
    }
}

/// The segment buffers a reply of `kind` carries when their number is
/// fixed by the kind; `None` when a count precedes them on the wire.
fn fixed_segs(kind: ReplyKind) -> Option<usize> {
    match kind {
        ReplyKind::Buffer => Some(1),
        ReplyKind::ReadGo | ReplyKind::MultiW => Some(0),
        ReplyKind::Segments | ReplyKind::Hybrid => None,
    }
}

impl Reply {
    /// Bytes of the [`CtrlMsg::RndvReply`] that carries a reply of
    /// `kind` with `nsegs` segment buffers and, for a direct kind,
    /// `nregions` regions and `layout`: what a receiver checks against
    /// its eager buffer before it pins or acquires anything.
    pub fn wire_len(
        kind: ReplyKind,
        nsegs: usize,
        nregions: usize,
        layout: Option<&FlatLayout>,
    ) -> u64 {
        // Kind, seq, scheme and body tag; then the direct part's base,
        // tag, count, layout prefix, layout, region count and regions.
        let mut len = 11 + SEG_BYTES * nsegs;
        if kind.direct() {
            len += 36 + layout.map_or(0, |l| l.encode().len()) + REGION_BYTES * nregions;
        }
        if fixed_segs(kind).is_none() {
            len += 4;
        }
        if kind == ReplyKind::Hybrid {
            len += 8;
        }
        len as u64
    }

    fn encode(&self, w: &mut W) {
        let tag = BODIES.iter().position(|&k| k == self.kind);
        w.u8(tag.expect("every kind has a body tag") as u8 + 1);
        debug_assert_eq!(self.direct.is_some(), self.kind.direct());
        if let Some(direct) = &self.direct {
            direct.encode(w);
        }
        match fixed_segs(self.kind) {
            Some(n) => debug_assert_eq!(self.segs.len(), n),
            None => w.u32(self.segs.len() as u32),
        }
        for &(a, k) in &self.segs {
            w.u64(a);
            w.u32(k);
        }
        if self.kind == ReplyKind::Hybrid {
            w.u64(HYBRID_BLOCK_THRESHOLD);
        }
    }

    fn decode(r: &mut R) -> Option<Reply> {
        let kind = *BODIES.get(usize::from(r.u8()?).checked_sub(1)?)?;
        let direct = if kind.direct() {
            Some(DirectPart::decode(r)?)
        } else {
            None
        };
        let n = match fixed_segs(kind) {
            Some(n) => n,
            None => r.u32()? as usize,
        };
        let mut segs = SegList::new();
        for _ in 0..n {
            segs.push((r.u64()?, r.u32()?));
        }
        // Both sides partition Hybrid by the one threshold they share.
        if kind == ReplyKind::Hybrid && r.u64()? != HYBRID_BLOCK_THRESHOLD {
            return None;
        }
        Some(Reply { kind, segs, direct })
    }
}

impl CtrlMsg {
    /// Serializes the header by *appending* to `out`, so that callers
    /// keep one reusable encode buffer. For [`CtrlMsg::EagerData`],
    /// append the packed payload after it.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let mut w = W(out);
        match self {
            CtrlMsg::EagerData { tag, seq, size } => {
                w.u8(K_EAGER);
                w.u32(*tag);
                w.u64(*seq);
                w.u64(*size);
            }
            CtrlMsg::RndvStart {
                tag,
                seq,
                proposal,
                nsegs,
                seg_size,
            } => {
                w.u8(K_START);
                w.u32(*tag);
                w.u64(*seq);
                w.u64(proposal.size);
                w.u8(proposal.scheme);
                w.u32(*nsegs);
                w.u64(*seg_size);
                w.u64(proposal.blk_min);
                w.u64(proposal.blk_median);
            }
            CtrlMsg::RndvReply { seq, scheme, body } => {
                w.u8(K_REPLY);
                w.u64(*seq);
                w.u8(*scheme);
                body.encode(&mut w);
            }
            CtrlMsg::SegReady {
                seq,
                k,
                addr,
                rkey,
                len,
            } => {
                w.u8(K_SEGREADY);
                w.u64(*seq);
                w.u32(*k);
                w.u64(*addr);
                w.u32(*rkey);
                w.u64(*len);
            }
            CtrlMsg::Fin { seq } => {
                w.u8(K_FIN);
                w.u64(*seq);
            }
            CtrlMsg::RndvProbe { seq } => {
                w.u8(K_PROBE);
                w.u64(*seq);
            }
            CtrlMsg::RndvResume { seq } => {
                w.u8(K_RESUME);
                w.u64(*seq);
            }
            CtrlMsg::RndvResumeAck { seq, from_k, done } => {
                w.u8(K_RESUME_ACK);
                w.u64(*seq);
                w.u32(*from_k);
                w.u8(u8::from(*done));
            }
            CtrlMsg::CreditUpdate { credits } => {
                w.u8(K_CREDIT);
                w.u32(*credits);
            }
        }
    }

    /// Parses a header, returning the message and the header length
    /// (payload, if any, starts there).
    pub fn decode(buf: &[u8]) -> Option<(CtrlMsg, usize)> {
        let mut r = R(buf, 0);
        let msg = match r.u8()? {
            K_EAGER => CtrlMsg::EagerData {
                tag: r.u32()?,
                seq: r.u64()?,
                size: r.u64()?,
            },
            K_START => {
                let (tag, seq, size, scheme) = (r.u32()?, r.u64()?, r.u64()?, r.u8()?);
                let (nsegs, seg_size) = (r.u32()?, r.u64()?);
                let proposal = Proposal {
                    size,
                    scheme,
                    blk_min: r.u64()?,
                    blk_median: r.u64()?,
                };
                CtrlMsg::RndvStart {
                    tag,
                    seq,
                    proposal,
                    nsegs,
                    seg_size,
                }
            }
            K_REPLY => CtrlMsg::RndvReply {
                seq: r.u64()?,
                scheme: r.u8()?,
                body: Reply::decode(&mut r)?,
            },
            K_SEGREADY => CtrlMsg::SegReady {
                seq: r.u64()?,
                k: r.u32()?,
                addr: r.u64()?,
                rkey: r.u32()?,
                len: r.u64()?,
            },
            K_FIN => CtrlMsg::Fin { seq: r.u64()? },
            K_PROBE => CtrlMsg::RndvProbe { seq: r.u64()? },
            K_RESUME => CtrlMsg::RndvResume { seq: r.u64()? },
            K_RESUME_ACK => CtrlMsg::RndvResumeAck {
                seq: r.u64()?,
                from_k: r.u32()?,
                done: r.u8()? != 0,
            },
            K_CREDIT => CtrlMsg::CreditUpdate { credits: r.u32()? },
            _ => return None,
        };
        Some((msg, r.1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The exact encoding of every control message, one field per
    /// space-separated group, little-endian. A layout (size 8, extent
    /// 12, blocks (0, 4) and (8, 4)) is 52 bytes.
    const WIRE: &[(&str, &str)] = &[
        ("eager", "01 07000000 7b00000000000000 0002000000000000"),
        (
            "start",
            "02 63000000 0100000000000000 0000100000000000 02 08000000 \
             0000020000000000 1000000000000000 0008000000000000",
        ),
        (
            "reply buffer (no count)",
            "03 0500000000000000 00 01 cdab000000000000 2a000000",
        ),
        (
            "reply segments",
            "03 0600000000000000 01 02 03000000 0010000000000000 01000000 \
             0020000000000000 02000000 0030000000000000 03000000",
        ),
        ("reply read-go", "03 0100000000000000 03 04"),
        (
            "reply multi-w with layout",
            "03 0900000000000000 04 03 0000040000000000 03000000 02000000 0500000000000000 \
             3400000000000000 0800000000000000 0c00000000000000 02000000 \
             0000000000000000 0400000000000000 0800000000000000 0400000000000000 \
             01000000 0000040000000000 0010000000000000 4d000000",
        ),
        (
            "reply multi-w, layout cached",
            "03 0a00000000000000 04 03 0000040000000000 03000000 02000000 0100000000000000 \
             ffffffffffffffff 02000000 0000040000000000 0010000000000000 4d000000 \
             0000080000000000 4000000000000000 4e000000",
        ),
        (
            "reply hybrid with layout, 2 segments",
            "03 0b00000000000000 06 05 0090000000000000 01000000 03000000 0200000000000000 \
             3400000000000000 0800000000000000 0c00000000000000 02000000 \
             0000000000000000 0400000000000000 0800000000000000 0400000000000000 \
             01000000 0090000000000000 0020000000000000 05000000 \
             02000000 0000020000000000 09000000 0000040000000000 09000000 \
             0004000000000000",
        ),
        (
            "reply hybrid, layout cached, 0 segments",
            "03 0c00000000000000 06 05 0090000000000000 01000000 03000000 0200000000000000 \
             ffffffffffffffff 00000000 00000000 0004000000000000",
        ),
        (
            "segment ready",
            "04 0200000000000000 04000000 9900000000000000 01000000 0000010000000000",
        ),
        ("fin", "05 0300000000000000"),
        ("probe", "06 4d00000000000000"),
        ("resume", "07 4e00000000000000"),
        ("resume ack", "08 4f00000000000000 03000000 00"),
        ("resume ack, done", "08 5000000000000000 00000000 01"),
        ("credit update", "09 11000000"),
    ];

    fn unhex(s: &str) -> Vec<u8> {
        let digits: Vec<u8> = s.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
        let nibble = |d: u8| (d as char).to_digit(16).unwrap() as u8;
        digits
            .chunks(2)
            .map(|p| nibble(p[0]) << 4 | nibble(p[1]))
            .collect()
    }

    /// Decodes `bytes` and, when they parse, checks that the message
    /// re-encodes to bytes that decode to it again.
    fn decode_stable(bytes: &[u8]) -> Option<CtrlMsg> {
        let (msg, used) = CtrlMsg::decode(bytes)?;
        assert!(used <= bytes.len());
        let mut enc = Vec::new();
        msg.encode_into(&mut enc);
        assert_eq!(CtrlMsg::decode(&enc), Some((msg.clone(), enc.len())));
        Some(msg)
    }

    #[test]
    fn wire_bytes_are_pinned_and_damage_never_panics() {
        let mut rng = ibdt_testkit::Rng::new(0x3E5A);
        for &(name, hex) in WIRE {
            let bytes = unhex(hex);
            let (msg, used) = CtrlMsg::decode(&bytes).unwrap_or_else(|| panic!("{name}"));
            assert_eq!(used, bytes.len(), "{name}");
            let mut enc = Vec::new();
            msg.encode_into(&mut enc);
            assert_eq!(enc, bytes, "{name}");
            for n in 0..bytes.len() {
                assert!(CtrlMsg::decode(&bytes[..n]).is_none(), "{name} cut to {n}");
            }
            let mut damaged = bytes.clone();
            for i in 0..bytes.len() {
                for _ in 0..4 {
                    damaged[i] = bytes[i] ^ rng.range_u64(1, 256) as u8;
                    decode_stable(&damaged);
                }
                damaged[i] = bytes[i];
            }
        }
    }

    #[test]
    fn eager_payload_offset() {
        let m = CtrlMsg::EagerData {
            tag: 1,
            seq: 2,
            size: 3,
        };
        let mut enc = Vec::new();
        m.encode_into(&mut enc);
        let hdr = enc.len();
        enc.extend_from_slice(&[9, 9, 9]);
        let (_, used) = CtrlMsg::decode(&enc).unwrap();
        assert_eq!(used, hdr);
        assert_eq!(&enc[used..], &[9, 9, 9]);
    }

    #[test]
    fn reply_wire_len_is_the_encoded_length() {
        for &(name, hex) in WIRE {
            let bytes = unhex(hex);
            let Some((CtrlMsg::RndvReply { body, .. }, _)) = CtrlMsg::decode(&bytes) else {
                continue;
            };
            let d = body.direct.as_ref();
            let nregions = d.map_or(0, |d| d.regions.len());
            let layout = d.and_then(|d| d.layout.as_deref());
            let len = Reply::wire_len(body.kind, body.segs.len(), nregions, layout);
            assert_eq!(len, bytes.len() as u64, "{name}");
        }
    }

    #[test]
    fn credit_update_piggybacks_before_eager() {
        // The flow-control path prepends a grant in front of the real
        // message inside one eager buffer; both decode in sequence.
        let mut buf = Vec::new();
        CtrlMsg::CreditUpdate { credits: 3 }.encode_into(&mut buf);
        let eager = CtrlMsg::EagerData {
            tag: 1,
            seq: 2,
            size: 2,
        };
        eager.encode_into(&mut buf);
        buf.extend_from_slice(&[7, 7]);
        let (first, used) = CtrlMsg::decode(&buf).unwrap();
        assert_eq!(first, CtrlMsg::CreditUpdate { credits: 3 });
        let (second, used2) = CtrlMsg::decode(&buf[used..]).unwrap();
        assert_eq!(second, eager);
        assert_eq!(&buf[used + used2..], &[7, 7]);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(CtrlMsg::decode(&[]).is_none());
        assert!(CtrlMsg::decode(&[0xFF, 1, 2]).is_none());
        // A Hybrid reply whose threshold is not HYBRID_BLOCK_THRESHOLD:
        // the sender would partition differently from the receiver.
        let hybrid = WIRE
            .iter()
            .find(|e| e.0.starts_with("reply hybrid"))
            .unwrap();
        let mut bytes = unhex(hybrid.1);
        let at = bytes.len() - 8;
        bytes[at..].copy_from_slice(&512u64.to_le_bytes());
        assert!(CtrlMsg::decode(&bytes).is_none());
        // A Multi-W reply whose layout length prefix is u64::MAX - 1
        // (one below the "no layout" mark) must not overflow the read
        // position, and one whose region count is u32::MAX must not
        // reserve memory for the regions it claims.
        let mut reply = vec![3, 9, 0, 0, 0, 0, 0, 0, 0, 4, 3];
        reply.extend_from_slice(&[0; 24]); // base, tag, count
        let layout_len = reply.len();
        reply.extend_from_slice(&(u64::MAX - 1).to_le_bytes());
        assert!(CtrlMsg::decode(&reply).is_none());
        reply[layout_len] = 0xFF;
        reply.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(CtrlMsg::decode(&reply).is_none());
    }
}
