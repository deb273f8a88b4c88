//! The VINO grafting architecture — the paper's primary contribution.
//!
//! This crate ties the substrates together into the system §3 describes:
//!
//! - [`hostfn`] — the graft-callable kernel ABI: the function ids grafts
//!   may call, the ids that exist but are *not* graft-callable
//!   (`shutdown`, functions returning private data — Rules 4/5/7), and
//!   the builder for the sparse callable hash table.
//! - [`engine`] — the graft wrapper: every invocation runs inside a
//!   transaction with fuel-bounded (preemptible) execution, resource
//!   limits swapped to the graft's principal, result validation, and
//!   abort + forcible unload on misbehaviour (§3.1, §3.6).
//! - [`loader`] — the dynamic loader: signature verification, link-time
//!   direct-call audit, restricted-point policy, zero-limit principal
//!   creation with transfer/billing (§3.2, §3.3).
//! - [`adapters`] — bridges from installed grafts to the subsystem hook
//!   traits: read-ahead ([`vino_fs::ReadAheadDelegate`]), page eviction
//!   ([`vino_mem::EvictionDelegate`]), scheduling
//!   ([`vino_sched::ScheduleDelegate`]) and stream transforms.
//! - [`points`] — the graft namespace and the two extension models:
//!   function graft points (replace a member function, Figure 1) and
//!   event graft points (add handlers for kernel events, Figure 2).
//! - [`lockmgr`] — the Figures 4/5 lock manager: the conventional
//!   `get_lock` versus the policy-encapsulated one, for the
//!   extreme-modularity cost analysis of §6.
//! - [`kernel`] — the [`kernel::Kernel`] facade building every
//!   subsystem around one observer, with install entry points and the
//!   event dispatch loop.
//! - [`graftc`] — the GraftC compiler: the C-like language applications
//!   write grafts in (standing in for the paper's C++), lowered to
//!   GraftVM code that flows through the normal MiSFIT pipeline.

pub mod adapters;
pub mod admission;
pub mod engine;
pub mod graftc;
pub mod hostfn;
pub mod kernel;
pub mod loader;
pub mod lockmgr;
pub mod points;
pub mod reliability;

pub use admission::{
    AdmissionController, AdmissionPolicy, AdmissionState, AdmissionStats, Decision,
};
pub use engine::{GraftEngine, GraftInstance, InvokeOutcome, InvokeStats};
pub use kernel::{AttachError, Kernel};
pub use loader::{BillingMode, InstallError, InstallOpts};
pub use points::{EventPoint, GraftNamespace, PointKind};
pub use reliability::{
    FailureKind, QuarantinePolicy, ReliabilityManager, ReliabilityState, Verdict,
};
