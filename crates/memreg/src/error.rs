//! Error types for the memory subsystem.

use crate::addr::Va;
use std::fmt;

/// Errors raised by address-space and registration operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemError {
    /// An access `[addr, addr+len)` fell outside the address space.
    OutOfBounds {
        /// Start of the faulting access.
        addr: Va,
        /// Length of the faulting access.
        len: u64,
        /// Size of the address space.
        capacity: u64,
    },
    /// The bump allocator ran out of space.
    OutOfMemory {
        /// Requested allocation size.
        requested: u64,
        /// Bytes remaining in the address space.
        remaining: u64,
    },
    /// A key did not name a live registration.
    BadKey {
        /// The offending key value.
        key: u32,
    },
    /// The key was live but the access was outside its region — the
    /// simulated analogue of a protection fault on the HCA.
    ProtectionFault {
        /// Key used for the access.
        key: u32,
        /// Faulting address.
        addr: Va,
        /// Faulting length.
        len: u64,
    },
    /// Attempted to deregister a region that still has users.
    RegionInUse {
        /// Key of the busy region.
        key: u32,
    },
    /// An access overlapped the slot window without lying inside one
    /// slot (see [`AddressSpace::set_slot_window`](crate::AddressSpace::set_slot_window)).
    SlotStraddle {
        /// Start of the faulting access.
        addr: Va,
        /// Length of the faulting access.
        len: u64,
    },
    /// The read and write ranges of
    /// [`AddressSpace::slice_pair`](crate::AddressSpace::slice_pair)
    /// overlapped. Only their starts are kept, so the error stays no
    /// larger than [`MemError::OutOfBounds`]: completions carry it
    /// inline.
    Overlap {
        /// Start of the read range.
        read: Va,
        /// Start of the write range.
        write: Va,
    },
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::OutOfBounds {
                addr,
                len,
                capacity,
            } => write!(
                f,
                "access [{addr:#x}, +{len}) out of bounds (capacity {capacity:#x})"
            ),
            MemError::OutOfMemory {
                requested,
                remaining,
            } => {
                write!(
                    f,
                    "out of memory: requested {requested}, remaining {remaining}"
                )
            }
            MemError::BadKey { key } => write!(f, "stale or invalid memory key {key:#x}"),
            MemError::ProtectionFault { key, addr, len } => write!(
                f,
                "protection fault: key {key:#x} does not cover [{addr:#x}, +{len})"
            ),
            MemError::RegionInUse { key } => write!(f, "region {key:#x} still in use"),
            MemError::SlotStraddle { addr, len } => {
                write!(f, "access [{addr:#x}, +{len}) straddles a slot-window slot")
            }
            MemError::Overlap { read, write } => write!(
                f,
                "read range at {read:#x} overlaps write range at {write:#x}"
            ),
        }
    }
}

impl std::error::Error for MemError {}
