//! Typed protocol errors.
//!
//! When fault injection pushes a queue pair into the error state (or a
//! post fails outright), the progress engine does not panic: the
//! affected request is failed with one of these errors, resources are
//! released, and the error is reported per rank through
//! [`RunStats::errors`](crate::stats::RunStats::errors). Faults the RC
//! transport recovers from (retransmits, RNR backoff) never surface
//! here — only unrecoverable ones do.

use ibdt_ibsim::{CqeStatus, PostError};
use std::fmt;

/// An unrecoverable protocol error attributed to one rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MpiError {
    /// The transport retry budget ran out (persistent loss/corruption);
    /// the queue pair to `peer` is dead.
    RetryExceeded {
        /// Peer of the failed queue pair.
        peer: u32,
        /// Transmission attempts made.
        attempts: u32,
    },
    /// The RNR retry budget ran out (receiver never posted a buffer).
    RnrRetryExceeded {
        /// Peer of the failed queue pair.
        peer: u32,
        /// Delivery attempts made.
        attempts: u32,
    },
    /// A work request was flushed after its queue pair errored.
    Flushed {
        /// Peer of the errored queue pair.
        peer: u32,
    },
    /// The responder rejected a remote access (bad rkey / bounds).
    RemoteAccess {
        /// Responder rank.
        peer: u32,
    },
    /// A local protection or length check failed on a completion.
    LengthError {
        /// Peer of the queue pair.
        peer: u32,
    },
    /// Posting a work request failed synchronously.
    Post {
        /// Intended destination.
        peer: u32,
        /// The verbs-level reason.
        err: PostError,
    },
    /// The rendezvous reply never arrived within the configured timeout
    /// and re-request budget.
    ReplyTimeout {
        /// The unresponsive receiver.
        peer: u32,
        /// Message sequence number.
        seq: u64,
    },
    /// A control message failed to decode (corrupted past the ICRC, or
    /// a protocol bug).
    MalformedCtrl {
        /// Sender of the bad message.
        peer: u32,
    },
    /// A control message or segment referenced a message this rank does
    /// not know (stale duplicate after a failure).
    UnknownMessage {
        /// Sender of the message.
        peer: u32,
        /// Referenced sequence number (or 16-bit imm tag).
        seq: u64,
    },
    /// The peer's node suffered a crash-stop failure: transport
    /// failures to it escalated through the connection manager while
    /// the membership view reports the node dead with no restart
    /// pending. Distinct from the transient [`MpiError::ConnectionLost`]
    /// — a `PeerFailed` connection is never coming back, so callers
    /// should drain (fail dependent work typed) rather than retry.
    PeerFailed {
        /// The crashed rank.
        peer: u32,
    },
    /// The connection manager exhausted its re-establishment budget:
    /// the queue pair to `peer` kept dying faster than it could be
    /// recovered.
    ConnectionLost {
        /// Peer of the unrecoverable connection.
        peer: u32,
        /// Re-establishment attempts made.
        attempts: u32,
    },
    /// A registration the protocol relied on was missing or evicted
    /// (pin-down cache race, §5.4.2) and no fallback path applied.
    Registration {
        /// Peer of the affected transfer.
        peer: u32,
    },
    /// The peer's completion queue overflowed (`cq_depth` exceeded
    /// under overload); the queue pair errored and the transfer must be
    /// re-driven.
    CqOverflow {
        /// Rank whose completion queue overflowed.
        peer: u32,
    },
    /// A protocol buffer was shorter than the fixed-width value being
    /// decoded from it (reduction operand, header field).
    Truncated {
        /// Bytes the decode needed.
        expected: u32,
        /// Bytes actually available.
        got: u32,
    },
    /// A reduction was requested for an (operator, primitive)
    /// combination the runtime does not implement.
    UnsupportedReduction,
    /// The rank's program could not finish after an earlier error left
    /// a transfer permanently incomplete.
    Incomplete,
}

impl MpiError {
    /// Maps a failed completion from `peer` to the matching error.
    pub fn from_cqe(peer: u32, status: CqeStatus) -> MpiError {
        match status {
            CqeStatus::RetryExceeded { attempts } => MpiError::RetryExceeded { peer, attempts },
            CqeStatus::RnrRetryExceeded { attempts } => {
                MpiError::RnrRetryExceeded { peer, attempts }
            }
            CqeStatus::FlushErr => MpiError::Flushed { peer },
            CqeStatus::CqOverflow => MpiError::CqOverflow { peer },
            CqeStatus::RemoteAccess(_) => MpiError::RemoteAccess { peer },
            CqeStatus::LocalProtection(_) | CqeStatus::LocalLengthError { .. } => {
                MpiError::LengthError { peer }
            }
            CqeStatus::Success => unreachable!("Success is not an error"),
        }
    }
}

impl fmt::Display for MpiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MpiError::RetryExceeded { peer, attempts } => {
                write!(
                    f,
                    "transport retry budget exhausted to rank {peer} after {attempts} attempts"
                )
            }
            MpiError::RnrRetryExceeded { peer, attempts } => {
                write!(
                    f,
                    "RNR retry budget exhausted to rank {peer} after {attempts} attempts"
                )
            }
            MpiError::Flushed { peer } => {
                write!(
                    f,
                    "work request flushed on errored queue pair to rank {peer}"
                )
            }
            MpiError::RemoteAccess { peer } => {
                write!(f, "remote access rejected by rank {peer}")
            }
            MpiError::LengthError { peer } => {
                write!(
                    f,
                    "local protection/length error on queue pair to rank {peer}"
                )
            }
            MpiError::Post { peer, err } => {
                write!(f, "post to rank {peer} failed: {err}")
            }
            MpiError::ReplyTimeout { peer, seq } => {
                write!(f, "rendezvous reply from rank {peer} timed out (seq {seq})")
            }
            MpiError::MalformedCtrl { peer } => {
                write!(f, "malformed control message from rank {peer}")
            }
            MpiError::UnknownMessage { peer, seq } => {
                write!(
                    f,
                    "message from rank {peer} references unknown transfer {seq}"
                )
            }
            MpiError::PeerFailed { peer } => {
                write!(
                    f,
                    "peer rank {peer} failed (crash-stop, no restart pending)"
                )
            }
            MpiError::ConnectionLost { peer, attempts } => {
                write!(
                    f,
                    "connection to rank {peer} lost after {attempts} re-establishment attempts"
                )
            }
            MpiError::Registration { peer } => {
                write!(
                    f,
                    "required registration missing/evicted on transfer with rank {peer}"
                )
            }
            MpiError::CqOverflow { peer } => {
                write!(f, "completion queue of rank {peer} overflowed")
            }
            MpiError::Truncated { expected, got } => {
                write!(f, "buffer truncated: needed {expected} bytes, had {got}")
            }
            MpiError::UnsupportedReduction => {
                write!(f, "unsupported reduction operator/primitive combination")
            }
            MpiError::Incomplete => {
                write!(
                    f,
                    "program could not finish after an earlier transfer error"
                )
            }
        }
    }
}

impl std::error::Error for MpiError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cqe_mapping() {
        assert_eq!(
            MpiError::from_cqe(3, CqeStatus::RetryExceeded { attempts: 8 }),
            MpiError::RetryExceeded {
                peer: 3,
                attempts: 8
            }
        );
        assert_eq!(
            MpiError::from_cqe(1, CqeStatus::FlushErr),
            MpiError::Flushed { peer: 1 }
        );
        assert_eq!(
            MpiError::from_cqe(
                2,
                CqeStatus::LocalLengthError {
                    sent: 9,
                    capacity: 4
                }
            ),
            MpiError::LengthError { peer: 2 }
        );
    }

    #[test]
    fn display_is_informative() {
        let e = MpiError::ReplyTimeout { peer: 1, seq: 42 };
        let s = format!("{e}");
        assert!(s.contains("rank 1") && s.contains("42"), "{s}");
    }
}
