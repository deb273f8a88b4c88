//! The graft reliability manager: failure ledgers, quarantine, backoff.
//!
//! §3.6 unloads a misbehaving graft after one abort so "new invocations
//! of the call use normal kernel code". That alone turns every abort
//! into "fall back once"; a production kernel also has to *remember* —
//! otherwise an application can reinstall the same broken graft in a
//! tight loop and convert the abort path into a denial of service. This
//! module keeps a per-graft failure ledger (counts by failure kind), a
//! quarantine policy (after N aborts inside a virtual-clock window the
//! graft name is refused reinstall until an exponential-backoff deadline
//! passes), and leaves per-principal blame billing to
//! [`vino_rm::ResourceAccountant::charge_blame`] so the cost of every
//! abort lands on the installer that vouched for the graft (§3.2's
//! accounting, turned into a reliability signal).
//!
//! The engine records every abort here automatically
//! ([`crate::engine::GraftInstance::invoke`]); the kernel's install
//! paths consult [`ReliabilityManager::check_install`] before attaching
//! a graft (Rule 9: the kernel keeps serving regardless).

use std::collections::HashMap;

use vino_sim::Cycles;
use vino_vm::interp::Trap;

use crate::engine::{errcode, AbortedWhy};

/// Coarse classification of a graft failure for the ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FailureKind {
    /// Memory fault (unmapped, SFI violation, straddle).
    MemFault,
    /// Division or remainder by zero.
    DivByZero,
    /// Forbidden or wild indirect call (Rules 4/7).
    ForbiddenCall,
    /// An injected fault fired mid-execution ([`vino_sim::FaultSite::VmTrap`]).
    InjectedFault,
    /// Resource-limit denial (§3.2), genuine or injected.
    ResourceLimit,
    /// A lock time-out: the graft's own acquire timed out, or its
    /// transaction was aborted by a contending waiter's time-out.
    LockTimeout,
    /// Any other host-function error (bad slot, bad handle, nesting…).
    HostError,
    /// Any other trap (pc out of range, call-depth, ret without call…).
    OtherTrap,
    /// Exceeded the CPU-slice budget (§2.5's forward-progress detector).
    CpuHog,
    /// The caller requested abort-instead-of-commit (benchmark runs);
    /// counted in the ledger but never toward quarantine.
    Requested,
}

/// Maps an invocation's abort cause onto a [`FailureKind`].
pub fn classify(why: &AbortedWhy) -> FailureKind {
    match why {
        AbortedWhy::CpuHog => FailureKind::CpuHog,
        AbortedWhy::LockTimeout => FailureKind::LockTimeout,
        AbortedWhy::Requested => FailureKind::Requested,
        AbortedWhy::Trap(trap) => match trap {
            Trap::Mem(_) => FailureKind::MemFault,
            Trap::DivByZero => FailureKind::DivByZero,
            Trap::ForbiddenCall { .. } | Trap::WildJump { .. } => FailureKind::ForbiddenCall,
            Trap::Injected { .. } => FailureKind::InjectedFault,
            Trap::HostError { code: errcode::NOMEM } => FailureKind::ResourceLimit,
            Trap::HostError { code: errcode::LOCK_TIMEOUT } => FailureKind::LockTimeout,
            Trap::HostError { .. } => FailureKind::HostError,
            _ => FailureKind::OtherTrap,
        },
    }
}

/// When to quarantine and for how long.
#[derive(Debug, Clone, Copy)]
pub struct QuarantinePolicy {
    /// Aborts within [`window`](Self::window) that trip quarantine.
    pub threshold: u32,
    /// Virtual-clock window the threshold is counted over.
    pub window: Cycles,
    /// First quarantine duration; each subsequent episode doubles it.
    pub base_backoff: Cycles,
    /// Ceiling on the doubled backoff.
    pub max_backoff: Cycles,
}

impl Default for QuarantinePolicy {
    fn default() -> QuarantinePolicy {
        QuarantinePolicy {
            threshold: 3,
            window: Cycles::from_ms(1000),
            base_backoff: Cycles::from_ms(250),
            max_backoff: Cycles::from_ms(30_000),
        }
    }
}

/// Per-graft failure history (keyed by graft name).
#[derive(Debug, Clone, Default)]
pub struct GraftLedger {
    /// Aborts recorded, lifetime.
    pub aborts: u64,
    /// Aborts by failure kind.
    pub by_kind: HashMap<FailureKind, u64>,
    /// Quarantine episodes entered so far (drives the backoff doubling).
    pub episodes: u32,
    /// Active or expired quarantine deadline, if the graft was ever
    /// quarantined.
    pub quarantined_until: Option<Cycles>,
    /// Abort timestamps inside the current window (pruned on record).
    recent: Vec<Cycles>,
}

impl GraftLedger {
    /// Aborts recorded for one failure kind.
    pub fn count(&self, kind: FailureKind) -> u64 {
        self.by_kind.get(&kind).copied().unwrap_or(0)
    }
}

/// What recording an abort decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Below threshold; the abort was ledgered, nothing else happens.
    Noted,
    /// The graft crossed the threshold and is quarantined until the
    /// deadline: it is already forcibly unloaded (every abort unloads,
    /// §3.6), and reinstall is refused until `until`.
    Quarantined {
        /// Absolute virtual-clock deadline.
        until: Cycles,
    },
}

/// The kernel-side reliability manager. One per [`crate::GraftEngine`].
/// The default has the default policy and no ledgers.
///
/// The manager only keeps books: the engine reports each quarantine
/// trip [`record_abort`](Self::record_abort) returns through the
/// kernel's observer (`graft.quarantine`, the quarantine counter, the
/// graft's health state and the watch plane's churn window; see
/// `docs/TRACING.md`, `docs/METRICS.md`).
#[derive(Debug, Clone, Default)]
pub struct ReliabilityManager {
    policy: QuarantinePolicy,
    ledgers: HashMap<String, GraftLedger>,
}

impl ReliabilityManager {
    /// The active policy.
    pub fn policy(&self) -> QuarantinePolicy {
        self.policy
    }

    /// Replaces the policy (existing ledgers keep their history).
    pub fn set_policy(&mut self, policy: QuarantinePolicy) {
        assert!(policy.threshold > 0, "a zero threshold would quarantine on install");
        self.policy = policy;
    }

    /// Records one abort of `graft` at virtual time `now`, returning
    /// whether the graft just entered quarantine.
    ///
    /// [`FailureKind::Requested`] aborts (benchmark abort-path runs) are
    /// ledgered but never counted toward quarantine — the caller asked
    /// for them, the graft did not misbehave.
    pub fn record_abort(&mut self, graft: &str, kind: FailureKind, now: Cycles) -> Verdict {
        let policy = self.policy;
        let ledger = self.ledgers.entry(graft.to_string()).or_default();
        ledger.aborts += 1;
        *ledger.by_kind.entry(kind).or_insert(0) += 1;
        if kind == FailureKind::Requested {
            return Verdict::Noted;
        }
        ledger.recent.push(now);
        ledger.recent.retain(|t| now.saturating_sub(*t) <= policy.window);
        if (ledger.recent.len() as u32) < policy.threshold {
            return Verdict::Noted;
        }
        // Threshold crossed: quarantine with exponential backoff.
        let shift = ledger.episodes.min(u64::BITS - 1);
        let backoff =
            Cycles(policy.base_backoff.get().saturating_mul(1u64 << shift)).min(policy.max_backoff);
        ledger.episodes += 1;
        ledger.recent.clear();
        let until = now + backoff;
        ledger.quarantined_until = Some(until);
        Verdict::Quarantined { until }
    }

    /// Install-time gate: `Err(until)` while `graft` is quarantined at
    /// virtual time `now`, `Ok` otherwise (including once the deadline
    /// has passed — quarantine expires by the clock, no amnesty call
    /// needed).
    pub fn check_install(&self, graft: &str, now: Cycles) -> Result<(), Cycles> {
        match self.ledgers.get(graft).and_then(|l| l.quarantined_until) {
            Some(until) if now < until => Err(until),
            _ => Ok(()),
        }
    }

    /// The failure ledger for `graft`, if it ever aborted.
    pub fn ledger(&self, graft: &str) -> Option<&GraftLedger> {
        self.ledgers.get(graft)
    }

    /// Total aborts recorded across all grafts.
    pub fn total_aborts(&self) -> u64 {
        self.ledgers.values().map(|l| l.aborts).sum()
    }

    /// Snapshots the policy and every failure ledger for a checkpoint.
    pub fn export_state(&self) -> ReliabilityState {
        self.clone()
    }

    /// Replants a [`ReliabilityState`] capture, so a restored kernel
    /// enforces the same quarantines and backoff deadlines.
    pub fn restore_state(&mut self, st: &ReliabilityState) {
        *self = st.clone();
    }
}

/// A snapshot of the reliability manager's state (the quarantine policy
/// and every graft's failure ledger): the manager holds nothing else.
/// See [`ReliabilityManager::export_state`].
pub type ReliabilityState = ReliabilityManager;

#[cfg(test)]
mod tests {
    use super::*;

    const K: FailureKind = FailureKind::DivByZero;

    fn policy() -> QuarantinePolicy {
        QuarantinePolicy {
            threshold: 3,
            window: Cycles(1000),
            base_backoff: Cycles(500),
            max_backoff: Cycles(4000),
        }
    }

    fn mgr() -> ReliabilityManager {
        let mut m = ReliabilityManager::default();
        m.set_policy(policy());
        m
    }

    #[test]
    fn below_threshold_is_noted_and_installable() {
        let mut m = mgr();
        assert_eq!(m.record_abort("g", K, Cycles(10)), Verdict::Noted);
        assert_eq!(m.record_abort("g", K, Cycles(20)), Verdict::Noted);
        assert!(m.check_install("g", Cycles(30)).is_ok());
        assert_eq!(m.ledger("g").unwrap().aborts, 2);
        assert_eq!(m.ledger("g").unwrap().count(K), 2);
    }

    #[test]
    fn threshold_in_window_quarantines_with_base_backoff() {
        let mut m = mgr();
        m.record_abort("g", K, Cycles(10));
        m.record_abort("g", K, Cycles(20));
        let v = m.record_abort("g", K, Cycles(30));
        assert_eq!(v, Verdict::Quarantined { until: Cycles(530) });
        assert_eq!(m.check_install("g", Cycles(529)), Err(Cycles(530)));
        assert!(m.check_install("g", Cycles(530)).is_ok(), "deadline passed");
    }

    #[test]
    fn aborts_outside_window_do_not_accumulate() {
        let mut m = mgr();
        m.record_abort("g", K, Cycles(0));
        m.record_abort("g", K, Cycles(10));
        // 2000 is past the 1000-cycle window: earlier entries pruned.
        assert_eq!(m.record_abort("g", K, Cycles(2000)), Verdict::Noted);
        assert!(m.check_install("g", Cycles(2001)).is_ok());
    }

    #[test]
    fn backoff_doubles_per_episode_and_caps() {
        let mut m = mgr();
        let trip = |m: &mut ReliabilityManager, at: Cycles| {
            m.record_abort("g", K, at);
            m.record_abort("g", K, at);
            match m.record_abort("g", K, at) {
                Verdict::Quarantined { until } => until.saturating_sub(at),
                v => panic!("expected quarantine, got {v:?}"),
            }
        };
        assert_eq!(trip(&mut m, Cycles(0)), Cycles(500));
        assert_eq!(trip(&mut m, Cycles(10_000)), Cycles(1000));
        assert_eq!(trip(&mut m, Cycles(20_000)), Cycles(2000));
        assert_eq!(trip(&mut m, Cycles(30_000)), Cycles(4000));
        assert_eq!(trip(&mut m, Cycles(40_000)), Cycles(4000), "capped at max_backoff");
        assert_eq!(m.ledger("g").unwrap().episodes, 5);
    }

    #[test]
    fn requested_aborts_never_quarantine() {
        let mut m = mgr();
        for i in 0..100 {
            let v = m.record_abort("bench", FailureKind::Requested, Cycles(i));
            assert_eq!(v, Verdict::Noted);
        }
        assert!(m.check_install("bench", Cycles(100)).is_ok());
        assert_eq!(m.ledger("bench").unwrap().aborts, 100);
    }

    #[test]
    fn ledgers_are_per_graft() {
        let mut m = mgr();
        m.record_abort("a", K, Cycles(0));
        m.record_abort("a", K, Cycles(1));
        m.record_abort("a", K, Cycles(2));
        assert!(m.check_install("a", Cycles(3)).is_err());
        assert!(m.check_install("b", Cycles(3)).is_ok(), "other grafts unaffected");
        assert_eq!(m.total_aborts(), 3);
    }

    #[test]
    fn classify_covers_the_interesting_traps() {
        use vino_vm::isa::HostFnId;
        assert_eq!(classify(&AbortedWhy::CpuHog), FailureKind::CpuHog);
        assert_eq!(classify(&AbortedWhy::LockTimeout), FailureKind::LockTimeout);
        assert_eq!(classify(&AbortedWhy::Trap(Trap::DivByZero)), FailureKind::DivByZero);
        assert_eq!(
            classify(&AbortedWhy::Trap(Trap::Injected { pc: 3 })),
            FailureKind::InjectedFault
        );
        assert_eq!(
            classify(&AbortedWhy::Trap(Trap::HostError { code: errcode::NOMEM })),
            FailureKind::ResourceLimit
        );
        assert_eq!(
            classify(&AbortedWhy::Trap(Trap::HostError { code: errcode::LOCK_TIMEOUT })),
            FailureKind::LockTimeout
        );
        assert_eq!(
            classify(&AbortedWhy::Trap(Trap::HostError { code: errcode::BAD_SLOT })),
            FailureKind::HostError
        );
        assert_eq!(
            classify(&AbortedWhy::Trap(Trap::ForbiddenCall { id: HostFnId(9) })),
            FailureKind::ForbiddenCall
        );
        assert_eq!(classify(&AbortedWhy::Trap(Trap::RetWithoutCall)), FailureKind::OtherTrap);
    }
}
