//! The attach contract shared by the five observability planes.
//!
//! There are five planes: fault (injection schedule), trace (event
//! stream and flight recorder), metrics (counters, histograms and the
//! attribution ledger), profile (per-PC billing and span trees) and
//! watch (sliding-window SLOs and alerts).
//!
//! # Attaching an observer
//!
//! Subsystems never hold a plane. Each kernel owns one
//! [`crate::obs::Observer`], and every subsystem receives that `Rc` at
//! construction: the VM, the transaction manager, the resource
//! accountant, the file system and its disk, the NIC, the MiSFIT tool,
//! the graft engine and its reliability manager, and the packet and
//! replication planes built on the kernel. A plane is attached by
//! filling the observer's slot for its kind (`Kernel::attach_*_plane`
//! is one call to `Observer::attach_*`), after which every subsystem
//! feeds it. Each slot fills once: a second attach returns
//! [`AttachError::AlreadyAttached`], so two planes can never split one
//! kind of record stream.
//!
//! The profile plane is a view over one metrics plane
//! ([`crate::profile::ProfilePlane::new`]). Attaching it also attaches
//! that metrics plane when the metrics slot is empty; it is accepted
//! when its metrics plane is the attached one (`Rc::ptr_eq`), and
//! refused with [`AttachError::AlreadyAttached`] otherwise, with
//! nothing attached.
//!
//! Two orderings are part of the contract:
//!
//! - A graft binds the planes attached when it is *installed*
//!   ([`crate::obs::GraftTags`]). Its VM attribution, per-PC billing,
//!   `vm.*` events, `VmTrap` fault visits and invocation brackets go
//!   only to those planes, even after more planes attach.
//! - A watch plane mirrors its alert edges into the trace plane only
//!   if the trace plane was attached first.

use std::fmt;

/// Errors from `Kernel::attach_*_plane` and `Observer::attach_*`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttachError {
    /// A plane of this kind is already attached. Swapping one mid-run
    /// would split the record stream across two planes.
    AlreadyAttached,
}

impl fmt::Display for AttachError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttachError::AlreadyAttached => write!(f, "a plane is already attached"),
        }
    }
}

impl std::error::Error for AttachError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_displays() {
        assert_eq!(AttachError::AlreadyAttached.to_string(), "a plane is already attached");
    }
}
