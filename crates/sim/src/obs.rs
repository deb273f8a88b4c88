//! One observer per kernel: the single funnel every subsystem charges
//! cycles and emits events through.
//!
//! A kernel (or, for engine-only worlds, a graft engine) owns one
//! [`Observer`] and hands the same `Rc` to every subsystem at
//! construction. The observer owns the virtual clock and five
//! attach-once slots, one per observability plane (fault, trace,
//! metrics, profile, watch). Attaching a plane fills its slot, and from
//! then on every subsystem feeds it — there is no per-subsystem wiring.
//!
//! - [`charge`](Observer::charge) advances the clock and attributes the
//!   cost to a [`Component`] in the metrics plane's ledger, the one
//!   attribution ledger per kernel (the profile plane is a view over
//!   it).
//! - [`emit`](Observer::emit) records a [`TraceEvent`] and derives
//!   every value the event carries for the other planes: its counter
//!   twin wherever a [`Counter`] mirrors the event 1:1 (so the trace
//!   totals and the counters reconcile by construction), the undo-depth
//!   peak, and the watch plane's RX-shed and lock-timeout windows.
//! - [`report`](Observer::report) hands over a [`Reading`]: a value no
//!   event carries (journal occupancy, replication lag, resource units
//!   in use, a NIC port drop).
//! - [`install`](Observer::install) interns a graft's name in the
//!   trace and metrics planes, registers it with the profile plane,
//!   warms the blamed principal's watch slot, and returns its
//!   [`GraftTags`]; the
//!   [`begin_invocation`](Observer::begin_invocation) /
//!   [`end_invocation`](Observer::end_invocation) /
//!   [`abort_exit`](Observer::abort_exit) /
//!   [`fallback`](Observer::fallback) brackets and the VM's calls
//!   ([`retire`](Observer::retire), [`emit_as`](Observer::emit_as)) are
//!   gated on those tags, so a graft
//!   installed before a plane attached never feeds it. The watch plane
//!   is the exception: it keys on the blamed principal, not on an
//!   interned name, so it sees every graft from the moment it attaches.
//!
//! No subsystem calls a plane to feed it; the planes' `observe_*`
//! methods are called from here only.
//!
//! Attaching a plane is observation, not perturbation: only
//! [`charge`](Observer::charge) and [`retire`](Observer::retire) move
//! the clock, and they move it identically with or without planes.

use std::cell::{OnceCell, RefCell};
use std::rc::Rc;

use crate::clock::{Cycles, VirtualClock};
use crate::fault::{FaultPlane, FaultSite};
use crate::metrics::{Component, Counter, MetricTag, MetricsPlane};
use crate::plane::AttachError;
use crate::profile::{ProfilePlane, SpanKind};
use crate::trace::{CauseCtx, GraftTag, SfiKind, ShedKind, TraceEvent, TracePlane, VerdictKind};
use crate::watch::WatchPlane;

/// What a graft saw attached when it was installed: its interned tag in
/// each interning plane (trace, metrics) that was attached then, and
/// whether the profile and fault planes were. The VM and the invocation
/// brackets feed exactly these planes for the graft's whole life. It
/// also carries the principal the watch plane blames.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GraftTags {
    /// Trace-plane tag.
    pub trace: Option<GraftTag>,
    /// Metrics-plane tag; the profile plane keys the graft by it too.
    pub metrics: Option<MetricTag>,
    /// True when a profile plane was attached (the VM bills per-PC
    /// cycles under the metrics tag).
    pub profile: bool,
    /// True when a fault plane was attached (the VM visits
    /// [`FaultSite::VmTrap`] on every instruction).
    pub fault: bool,
    /// The principal the watch plane blames for the graft's
    /// invocations, aborts and quarantine trips (its installer).
    pub blame: u64,
}

/// A value no [`TraceEvent`] carries, handed to
/// [`Observer::report`]. Each reading feeds exactly one plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reading {
    /// A journal append left `occupied` of `capacity` blocks in the
    /// journal region (watch plane: the `journal-full` gauge).
    JournalOccupancy { occupied: u64, capacity: u64 },
    /// Replication progress: `lag` committed journal records not yet
    /// acked by the replica, the oldest sealed `age` cycles ago (watch
    /// plane: the `replication-lag` gauge and its age).
    ReplLag { lag: u64, age: Cycles },
    /// `used` units of resource kind `kind` (`ResourceKind::index()`)
    /// are granted after a charge (metrics plane: the per-kind peak).
    RmInUse { kind: u8, used: u64 },
    /// The NIC dropped an event bound for `port` (metrics plane: the
    /// drop counter and the per-port drop count).
    NicPortDrop { port: u16 },
}

/// GraftVM work retired since the VM last flushed, handed to
/// [`Observer::retire`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Retired {
    /// Cycles of the graft's own instructions ([`Component::GraftFn`]).
    pub graft_fn: u64,
    /// Cycles of MiSFIT sandbox ops ([`Component::Sfi`]).
    pub sfi: u64,
    /// `Clamp`s retired without an `SfiCheck` event: the graft has no
    /// trace tag, so only their counter twin is kept.
    pub clamps: u64,
    /// `CheckCall`s retired without an `SfiCheck` event.
    pub checkcalls: u64,
}

/// The per-kernel observer; see the module docs.
#[derive(Debug)]
pub struct Observer {
    clock: Rc<VirtualClock>,
    fault: OnceCell<Rc<FaultPlane>>,
    trace: OnceCell<Rc<TracePlane>>,
    metrics: OnceCell<Rc<MetricsPlane>>,
    profile: OnceCell<Rc<ProfilePlane>>,
    watch: OnceCell<Rc<WatchPlane>>,
    /// Events [`emit_or_hold`](Self::emit_or_hold) parked until a trace
    /// plane attaches.
    held_events: RefCell<Vec<TraceEvent>>,
    /// Counter twins parked until a metrics plane attaches.
    held_counts: RefCell<Vec<Counter>>,
}

fn attach<T>(slot: &OnceCell<Rc<T>>, plane: Rc<T>) -> Result<(), AttachError> {
    slot.set(plane).map_err(|_| AttachError::AlreadyAttached)
}

impl Observer {
    /// An observer over `clock` with no plane attached.
    pub fn new(clock: Rc<VirtualClock>) -> Rc<Observer> {
        Rc::new(Observer {
            clock,
            fault: OnceCell::new(),
            trace: OnceCell::new(),
            metrics: OnceCell::new(),
            profile: OnceCell::new(),
            watch: OnceCell::new(),
            held_events: RefCell::new(Vec::new()),
            held_counts: RefCell::new(Vec::new()),
        })
    }

    /// The virtual clock every charge advances.
    #[inline]
    pub fn clock(&self) -> &Rc<VirtualClock> {
        &self.clock
    }

    // -- attach (each slot fills once) --------------------------------------

    /// Attaches the fault plane. A second attach is refused.
    pub fn attach_fault(&self, plane: Rc<FaultPlane>) -> Result<(), AttachError> {
        attach(&self.fault, plane)
    }

    /// Attaches the trace plane and replays the events held for it. If
    /// a watch plane is already attached it does *not* start mirroring
    /// alerts: the mirror is set up when the watch plane attaches.
    pub fn attach_trace(&self, plane: Rc<TracePlane>) -> Result<(), AttachError> {
        attach(&self.trace, Rc::clone(&plane))?;
        for ev in self.held_events.borrow_mut().drain(..) {
            plane.emit(ev);
        }
        Ok(())
    }

    /// Attaches the metrics plane and replays the counts held for it.
    pub fn attach_metrics(&self, plane: Rc<MetricsPlane>) -> Result<(), AttachError> {
        attach(&self.metrics, Rc::clone(&plane))?;
        for c in self.held_counts.borrow_mut().drain(..) {
            plane.inc(c);
        }
        Ok(())
    }

    /// Attaches the profile plane, a view over its metrics plane. That
    /// metrics plane is attached too when the metrics slot is empty; if
    /// another metrics plane is attached the profile is refused and
    /// nothing changes.
    pub fn attach_profile(&self, plane: Rc<ProfilePlane>) -> Result<(), AttachError> {
        match self.metrics() {
            // An empty metrics slot means an empty profile slot.
            None => self.attach_metrics(Rc::clone(plane.metrics()))?,
            Some(mp) if Rc::ptr_eq(mp, plane.metrics()) => {}
            Some(_) => return Err(AttachError::AlreadyAttached),
        }
        attach(&self.profile, plane)
    }

    /// Attaches the watch plane. With a trace plane already attached,
    /// alert edges are mirrored into it as `watch.*` events (and the
    /// rule names are interned there now).
    pub fn attach_watch(&self, plane: Rc<WatchPlane>) -> Result<(), AttachError> {
        attach(&self.watch, Rc::clone(&plane))?;
        if let Some(tp) = self.trace() {
            plane.set_trace_plane(Rc::clone(tp));
        }
        Ok(())
    }

    /// The attached fault plane.
    #[inline]
    pub fn fault(&self) -> Option<&Rc<FaultPlane>> {
        self.fault.get()
    }

    /// The attached trace plane.
    #[inline]
    pub fn trace(&self) -> Option<&Rc<TracePlane>> {
        self.trace.get()
    }

    /// The attached metrics plane.
    #[inline]
    pub fn metrics(&self) -> Option<&Rc<MetricsPlane>> {
        self.metrics.get()
    }

    /// The attached profile plane.
    #[inline]
    pub fn profile(&self) -> Option<&Rc<ProfilePlane>> {
        self.profile.get()
    }

    /// The attached watch plane.
    #[inline]
    pub fn watch(&self) -> Option<&Rc<WatchPlane>> {
        self.watch.get()
    }

    // -- the hot path (zero allocations) ------------------------------------

    /// Charges `cost` to the clock and attributes it to component `c`
    /// in the metrics plane's ledger.
    #[inline]
    pub fn charge(&self, c: Component, cost: Cycles) {
        self.clock.charge(cost);
        if let Some(mp) = self.metrics() {
            mp.charge(c, cost);
        }
    }

    /// Records `ev`, then feeds the values it carries to the other
    /// planes: its counter twin, the undo-depth peak (`UndoPush`), and
    /// the watch plane's RX-shed (`NetShed`, both kinds) and
    /// lock-timeout (`LockTimeout`) windows. A watch edge the event
    /// fires therefore follows the event in the trace.
    #[inline]
    pub fn emit(&self, ev: TraceEvent) {
        if let Some(tp) = self.trace() {
            tp.emit(ev);
        }
        self.derive(ev);
    }

    /// [`emit`](Self::emit) under an explicit causal context.
    #[inline]
    pub fn emit_with_ctx(&self, ev: TraceEvent, ctx: CauseCtx) {
        if let Some(tp) = self.trace() {
            tp.emit_with_ctx(ev, ctx);
        }
        self.derive(ev);
    }

    #[inline]
    fn derive(&self, ev: TraceEvent) {
        self.count_twin(ev);
        match (ev, self.metrics(), self.watch()) {
            (TraceEvent::UndoPush { depth, .. }, Some(mp), _) => mp.observe_undo_depth(depth),
            (TraceEvent::NetShed { .. }, _, Some(wp)) => wp.observe_shed(),
            (TraceEvent::LockTimeout { .. }, _, Some(wp)) => wp.observe_lock_timeout(),
            _ => {}
        }
    }

    #[inline]
    fn count_twin(&self, ev: TraceEvent) {
        if let Some(mp) = self.metrics() {
            if let Some(c) = counter_twin(&ev) {
                mp.inc(c);
            }
        }
    }

    /// Hands `r` to the plane that keeps it.
    #[inline]
    pub fn report(&self, r: Reading) {
        match (r, self.metrics(), self.watch()) {
            (Reading::JournalOccupancy { occupied, capacity }, _, Some(wp)) => {
                wp.observe_journal(occupied, capacity)
            }
            (Reading::ReplLag { lag, age }, _, Some(wp)) => wp.observe_repl_lag(lag, age),
            (Reading::RmInUse { kind, used }, Some(mp), _) => mp.observe_rm_peak(kind, used),
            (Reading::NicPortDrop { port }, Some(mp), _) => mp.observe_nic_port_drop(port),
            _ => {}
        }
    }

    /// Bumps a counter that has no trace twin.
    #[inline]
    pub fn inc(&self, c: Counter) {
        self.add(c, 1);
    }

    /// Adds `n` to a counter that has no trace twin.
    #[inline]
    pub fn add(&self, c: Counter, n: u64) {
        if let Some(mp) = self.metrics() {
            mp.add(c, n);
        }
    }

    /// Visits fault site `site`; true when an injected fault fires.
    #[inline]
    pub fn fire(&self, site: FaultSite) -> bool {
        self.fault().is_some_and(|fp| fp.fire(site))
    }

    /// Records a profile span of `kind` that just finished and lasted
    /// `dur`.
    #[inline]
    pub fn mark(&self, kind: SpanKind, dur: Cycles) {
        if let Some(pp) = self.profile() {
            pp.mark(kind, dur);
        }
    }

    /// Records a profile span of `kind` from `t0` to now.
    #[inline]
    pub fn mark_since(&self, kind: SpanKind, t0: Cycles) {
        if let Some(pp) = self.profile() {
            pp.mark_since(kind, t0);
        }
    }

    /// Emits a mount-time event: to the planes attached now, and held
    /// for the ones that attach later (recovery runs before any plane
    /// can be attached).
    pub fn emit_or_hold(&self, ev: TraceEvent) {
        match self.trace() {
            Some(tp) => tp.emit(ev),
            None => self.held_events.borrow_mut().push(ev),
        }
        if let Some(c) = counter_twin(&ev) {
            match self.metrics() {
                Some(mp) => mp.inc(c),
                None => self.held_counts.borrow_mut().push(c),
            }
        }
    }

    // -- per-graft: install-time tags gate everything below -----------------

    /// Interns graft `name` in the attached trace and metrics planes,
    /// announces the install, registers the graft with the profile
    /// (per-PC arrays sized for a `prog_len`-instruction program), and
    /// counts the install against principal `blame` in the watch plane,
    /// creating its window slot now. Install time: may allocate.
    pub fn install(&self, name: &str, prog_len: usize, blame: u64) -> GraftTags {
        let trace = self.trace().map(|tp| {
            let tag = tp.tag(name);
            tp.emit(TraceEvent::GraftInstall { graft: tag });
            tag
        });
        let metrics = self.metrics().map(|mp| {
            let tag = mp.tag(name);
            mp.mark_install(tag);
            tag
        });
        let profile = match (metrics, self.profile()) {
            (Some(tag), Some(pp)) => {
                pp.register_program(tag, prog_len);
                true
            }
            _ => false,
        };
        if let Some(wp) = self.watch() {
            wp.observe_install(blame);
        }
        GraftTags { trace, metrics, profile, fault: self.fault().is_some(), blame }
    }

    /// Opens an invocation bracket: `graft.invoke`, the metrics
    /// bracket (latency stamp and attribution frame), and a rewound
    /// profile call stack.
    #[inline]
    pub fn begin_invocation(&self, tags: &GraftTags) {
        if let (Some(tag), Some(tp)) = (tags.trace, self.trace()) {
            tp.emit(TraceEvent::GraftInvoke { graft: tag });
        }
        if let (Some(tag), Some(mp)) = (tags.metrics, self.metrics()) {
            mp.begin_invocation(tag);
            if let Some(pp) = self.profiled(tags) {
                pp.reset_stack(tag);
            }
        }
    }

    /// Closes the innermost invocation bracket, which cost `cost`
    /// cycles. A commit also emits `graft.commit` and feeds `cost` to
    /// the watch plane. An abort's `graft.abort` carries its cause, so
    /// the caller emits it ([`emit_as`](Self::emit_as)), then calls
    /// [`abort_exit`](Self::abort_exit).
    #[inline]
    pub fn end_invocation(&self, tags: &GraftTags, committed: bool, cost: Cycles) {
        if committed {
            if let (Some(tag), Some(tp)) = (tags.trace, self.trace()) {
                tp.emit(TraceEvent::GraftCommit { graft: tag });
            }
        }
        if let Some(mp) = tags.metrics.and(self.metrics()) {
            // The profile's invocation span reads the bracket, so it
            // goes first.
            if let Some(pp) = self.profiled(tags) {
                pp.end_invocation(committed);
            }
            mp.end_invocation(committed);
        }
        if committed {
            if let Some(wp) = self.watch() {
                wp.observe_invoke(tags.blame, cost);
            }
        }
    }

    /// The last step of an aborted invocation that cost `cost` cycles,
    /// once its `graft.abort` is on record. A quarantine trip the abort
    /// caused (`quarantined` names the graft and its release deadline)
    /// is recorded first; then the watch plane sees the invocation's
    /// cost, the abort and the trip, all blamed on `tags.blame`.
    pub fn abort_exit(&self, tags: &GraftTags, cost: Cycles, quarantined: Option<(&str, Cycles)>) {
        if let Some((name, until)) = quarantined {
            self.record_quarantine(name, until);
        }
        if let Some(wp) = self.watch() {
            wp.observe_invoke(tags.blame, cost);
            wp.observe_abort(tags.blame);
            if quarantined.is_some() {
                wp.observe_quarantine(tags.blame);
            }
        }
    }

    /// The profile plane, if `tags` says the graft is profiled.
    #[inline]
    fn profiled(&self, tags: &GraftTags) -> Option<&Rc<ProfilePlane>> {
        self.profile().filter(|_| tags.profile)
    }

    /// Records a dead-graft invocation served by the fallback path; an
    /// unclaimed dispatch charge goes to the kernel ledger.
    pub fn fallback(&self, tags: &GraftTags) {
        if let (Some(tag), Some(tp)) = (tags.trace, self.trace()) {
            tp.emit(TraceEvent::FallbackServed { graft: tag });
        }
        if let (Some(tag), Some(mp)) = (tags.metrics, self.metrics()) {
            mp.mark_fallback(tag);
        }
    }

    /// The tags graft `name` has in the planes attached *now*, interning
    /// it where needed (off the hot path). For fallbacks raised outside
    /// the graft instance, such as a dead packet filter; the profile
    /// does not register the graft and the watch plane blames no one.
    pub fn tags_of(&self, name: &str) -> GraftTags {
        GraftTags {
            trace: self.trace().map(|tp| tp.tag(name)),
            metrics: self.metrics().map(|mp| mp.tag(name)),
            profile: false,
            fault: self.fault().is_some(),
            blame: 0,
        }
    }

    /// Records a quarantine trip for graft `name` until `until` raised
    /// outside an invocation (an abort's goes through
    /// [`abort_exit`](Self::abort_exit)).
    pub fn quarantine(&self, tags: &GraftTags, name: &str, until: Cycles) {
        self.record_quarantine(name, until);
        if let Some(wp) = self.watch() {
            wp.observe_quarantine(tags.blame);
        }
    }

    /// `graft.quarantine` and the metrics plane's health stamp.
    fn record_quarantine(&self, name: &str, until: Cycles) {
        if let Some(tp) = self.trace() {
            let tag = tp.tag(name);
            tp.emit(TraceEvent::GraftQuarantine { graft: tag, until: until.get() });
        }
        if let Some(mp) = self.metrics() {
            mp.quarantine(name, until);
        }
    }

    /// A batch of retired GraftVM instructions: charges the clock,
    /// attributes the batch's cycles to [`Component::GraftFn`] and
    /// [`Component::Sfi`], and adds the counter twins of the sandbox
    /// checks it retired without an event, in the planes `tags` names.
    /// The VM flushes a batch before anything can read the clock or
    /// open an attribution frame, so the result is the same as charging
    /// each instruction as it retires. Per-PC profile billing is not
    /// batched: the VM records it on every instruction.
    #[inline]
    pub fn retire(&self, tags: &GraftTags, batch: Retired) {
        self.clock.charge(Cycles(batch.graft_fn + batch.sfi));
        if let (Some(_), Some(mp)) = (tags.metrics, self.metrics()) {
            if batch.graft_fn > 0 {
                mp.charge(Component::GraftFn, Cycles(batch.graft_fn));
            }
            if batch.sfi > 0 {
                mp.charge(Component::Sfi, Cycles(batch.sfi));
            }
            if batch.clamps > 0 {
                mp.add(Counter::SfiClamps, batch.clamps);
            }
            if batch.checkcalls > 0 {
                mp.add(Counter::SfiCallchecks, batch.checkcalls);
            }
        }
    }

    /// [`emit`](Self::emit) gated on a graft's install-time tags: the
    /// event reaches the trace plane only if `tags` has a trace tag,
    /// its counter twin only if `tags` has a metrics tag.
    #[inline]
    pub fn emit_as(&self, tags: &GraftTags, ev: TraceEvent) {
        if let Some(tp) = tags.trace.and(self.trace()) {
            tp.emit(ev);
        }
        if tags.metrics.is_some() {
            self.count_twin(ev);
        }
    }

    /// [`add`](Self::add) gated on a graft's install-time metrics tag.
    #[inline]
    pub fn add_as(&self, tags: &GraftTags, c: Counter, n: u64) {
        if tags.metrics.is_some() {
            self.add(c, n);
        }
    }

    /// [`fire`](Self::fire) gated on a graft's install-time fault flag.
    #[inline]
    pub fn fire_as(&self, tags: &GraftTags, site: FaultSite) -> bool {
        tags.fault && self.fire(site)
    }
}

/// The counter that mirrors `ev` one to one, if any. Graft-lifecycle
/// events have none here: their counters are bumped by the invocation
/// brackets, gated on the graft's install-time tags.
fn counter_twin(ev: &TraceEvent) -> Option<Counter> {
    use TraceEvent::*;
    Some(match ev {
        VmWindow { .. } => Counter::VmWindows,
        SfiCheck { kind: SfiKind::Clamp, .. } => Counter::SfiClamps,
        SfiCheck { kind: SfiKind::CheckCall, .. } => Counter::SfiCallchecks,
        TxnBegin { .. } => Counter::TxnBegins,
        TxnCommit { nested: false, .. } => Counter::TxnCommits,
        TxnCommit { nested: true, .. } => Counter::TxnNestedCommits,
        TxnAbort { .. } => Counter::TxnAborts,
        LockAcquire { .. } => Counter::TxnLockAcquires,
        LockBlocked { .. } => Counter::LockWaits,
        LockTimeout { .. } => Counter::LockTimeouts,
        LockSteal { .. } => Counter::LockSteals,
        UndoPush { .. } => Counter::UndoPushes,
        UndoRun { .. } => Counter::UndoRuns,
        ResGrant { .. } => Counter::RmGrants,
        ResRelease { .. } => Counter::RmReleases,
        ResLimitHit { .. } => Counter::RmDenials,
        FsRead { .. } => Counter::FsReads,
        FsWrite { .. } => Counter::FsWrites,
        FsPrefetch { .. } => Counter::FsPrefetches,
        FsJournalAppend { .. } => Counter::FsJournalAppends,
        FsJournalCommit { .. } => Counter::FsJournalCommits,
        FsCheckpoint { .. } => Counter::FsCheckpoints,
        FsRecoveryReplay { .. } => Counter::FsRecoveryReplays,
        FsRecoveryDiscard { .. } => Counter::FsRecoveryDiscards,
        NetRx { .. } => Counter::NetRxPackets,
        NetShed { kind: ShedKind::Overflow, .. } => Counter::NetRxOverflows,
        NetShed { kind: ShedKind::Watermark, .. } => Counter::NetRxSheds,
        NetVerdict { verdict: VerdictKind::Accept, .. } => Counter::NetAccepts,
        NetVerdict { verdict: VerdictKind::Drop, .. } => Counter::NetDrops,
        NetVerdict { verdict: VerdictKind::Steer, .. } => Counter::NetSteers,
        NetSteer { .. } => Counter::NetSteerHops,
        NetLoopCut { .. } => Counter::NetLoopCuts,
        NetBatch { .. } => Counter::NetBatchDispatches,
        AdmissionAllow { .. } => Counter::AdmissionAllows,
        AdmissionDeny { .. } => Counter::AdmissionDenies,
        ReplShip { .. } => Counter::ReplShips,
        ReplAck { .. } => Counter::ReplAcks,
        ReplApply { .. } => Counter::ReplApplies,
        ReplFrameDrop { .. } => Counter::ReplFrameDrops,
        ReplPromote { .. } => Counter::ReplPromotions,
        GraftInstall { .. }
        | GraftInvoke { .. }
        | GraftCommit { .. }
        | GraftAbort { .. }
        | GraftQuarantine { .. }
        | FallbackServed { .. }
        | WatchAlertFiring { .. }
        | WatchAlertResolved { .. } => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::watch::{AlertEdge, Signal, SloRule, WatchStats};

    fn observer() -> Rc<Observer> {
        Observer::new(VirtualClock::new())
    }

    /// A watch plane over `obs`'s clock with one rule on `signal` that
    /// fires at `threshold`.
    fn watch_on(obs: &Observer, signal: Signal, threshold: u64) -> Rc<WatchPlane> {
        let rule = SloRule { name: "rule", signal, window: Cycles(1000), threshold };
        let wp = WatchPlane::with_rules(Rc::clone(obs.clock()), vec![rule]);
        obs.attach_watch(Rc::clone(&wp)).unwrap();
        wp
    }

    fn edges(wp: &WatchPlane) -> Vec<(AlertEdge, u64, u64)> {
        wp.records().iter().map(|r| (r.edge, r.principal, r.value)).collect()
    }

    #[test]
    fn every_slot_attaches_once() {
        let obs = observer();
        let clock = Rc::clone(obs.clock());
        assert_eq!(obs.attach_fault(FaultPlane::seeded(1)), Ok(()));
        assert_eq!(obs.attach_fault(FaultPlane::seeded(2)), Err(AttachError::AlreadyAttached));
        let tp = TracePlane::new(Rc::clone(&clock));
        assert_eq!(obs.attach_trace(Rc::clone(&tp)), Ok(()));
        assert_eq!(obs.attach_trace(tp), Err(AttachError::AlreadyAttached));
        let mp = MetricsPlane::new(Rc::clone(&clock));
        assert_eq!(obs.attach_metrics(Rc::clone(&mp)), Ok(()));
        assert_eq!(obs.attach_metrics(Rc::clone(&mp)), Err(AttachError::AlreadyAttached));
        let pp = ProfilePlane::new(&mp);
        assert_eq!(obs.attach_profile(Rc::clone(&pp)), Ok(()));
        assert_eq!(obs.attach_profile(pp), Err(AttachError::AlreadyAttached));
        let wp = WatchPlane::new(Rc::clone(&clock));
        assert_eq!(obs.attach_watch(Rc::clone(&wp)), Ok(()));
        assert_eq!(obs.attach_watch(wp), Err(AttachError::AlreadyAttached));
    }

    #[test]
    fn emit_derives_the_counter_twin() {
        let obs = observer();
        // No plane attached: a no-op, not an error.
        obs.emit(TraceEvent::FsRead { fd: 3, len: 1 });
        let tp = TracePlane::new(Rc::clone(obs.clock()));
        let mp = MetricsPlane::new(Rc::clone(obs.clock()));
        obs.attach_trace(Rc::clone(&tp)).unwrap();
        obs.attach_metrics(Rc::clone(&mp)).unwrap();
        obs.emit(TraceEvent::FsRead { fd: 3, len: 1 });
        obs.emit(TraceEvent::TxnCommit { thread: 1, txn: 0, nested: true, locks: 0 });
        obs.emit(TraceEvent::GraftInvoke { graft: GraftTag(0) });
        assert_eq!(tp.stats().total, 3);
        assert_eq!(mp.get(Counter::FsReads), 1);
        assert_eq!(mp.get(Counter::TxnNestedCommits), 1);
        assert_eq!(mp.get(Counter::TxnCommits), 0);
        assert_eq!(mp.get(Counter::GraftInvocations), 0, "brackets own graft counters");
    }

    #[test]
    fn charge_moves_the_clock_and_the_ledger_alike() {
        let obs = observer();
        obs.charge(Component::Lock, Cycles(7));
        assert_eq!(obs.clock().now(), Cycles(7), "charging without planes still advances time");
        let mp = MetricsPlane::new(Rc::clone(obs.clock()));
        obs.attach_metrics(Rc::clone(&mp)).unwrap();
        let tags = obs.install("g", 4, 0);
        obs.charge(Component::Indirection, Cycles(120));
        obs.begin_invocation(&tags);
        obs.charge(Component::TxnBegin, Cycles(36));
        obs.retire(&tags, Retired { graft_fn: 1, ..Retired::default() });
        obs.end_invocation(&tags, true, Cycles::ZERO);
        let ma = mp.attribution(tags.metrics.unwrap()).unwrap();
        assert_eq!(ma.total(), Cycles(157));
        assert_eq!(obs.clock().now(), Cycles(164));
    }

    #[test]
    fn a_retired_batch_splits_its_cycles_and_adds_its_counter_twins() {
        let obs = observer();
        let mp = MetricsPlane::new(Rc::clone(obs.clock()));
        obs.attach_metrics(Rc::clone(&mp)).unwrap();
        let tags = obs.install("g", 4, 0);
        obs.begin_invocation(&tags);
        obs.retire(&tags, Retired { graft_fn: 10, sfi: 8, clamps: 2, checkcalls: 0 });
        obs.retire(&tags, Retired { graft_fn: 1, sfi: 13, clamps: 0, checkcalls: 1 });
        obs.end_invocation(&tags, true, Cycles::ZERO);
        let ma = mp.attribution(tags.metrics.unwrap()).unwrap();
        assert_eq!((ma.of(Component::GraftFn), ma.of(Component::Sfi)), (Cycles(11), Cycles(21)));
        assert_eq!((mp.get(Counter::SfiClamps), mp.get(Counter::SfiCallchecks)), (2, 1));
        assert_eq!(obs.clock().now(), Cycles(32));
    }

    #[test]
    fn a_profile_attached_alone_brings_its_metrics_plane() {
        let obs = observer();
        let mp = MetricsPlane::new(Rc::clone(obs.clock()));
        let pp = ProfilePlane::new(&mp);
        assert_eq!(obs.attach_profile(Rc::clone(&pp)), Ok(()));
        assert!(Rc::ptr_eq(obs.metrics().expect("attached with the profile"), &mp));
        assert!(Rc::ptr_eq(obs.profile().expect("attached"), &pp));
        let tags = obs.install("g", 4, 0);
        assert!(tags.profile);
        assert_eq!(tags.metrics, Some(mp.tag("g")), "the profile keys grafts by metrics tag");
    }

    #[test]
    fn a_profile_over_the_attached_metrics_plane_is_accepted() {
        let obs = observer();
        let mp = MetricsPlane::new(Rc::clone(obs.clock()));
        obs.attach_metrics(Rc::clone(&mp)).unwrap();
        let pp = ProfilePlane::new(&mp);
        assert_eq!(obs.attach_profile(Rc::clone(&pp)), Ok(()));
        assert!(Rc::ptr_eq(obs.profile().expect("attached"), &pp));
        assert!(Rc::ptr_eq(obs.metrics().expect("still attached"), &mp));
    }

    #[test]
    fn a_profile_over_another_metrics_plane_is_refused() {
        let obs = observer();
        let mp = MetricsPlane::new(Rc::clone(obs.clock()));
        obs.attach_metrics(Rc::clone(&mp)).unwrap();
        let other = MetricsPlane::new(Rc::clone(obs.clock()));
        let pp = ProfilePlane::new(&other);
        assert_eq!(obs.attach_profile(pp), Err(AttachError::AlreadyAttached));
        assert!(obs.profile().is_none(), "nothing is attached");
        assert!(Rc::ptr_eq(obs.metrics().expect("unchanged"), &mp));
    }

    #[test]
    fn held_events_replay_when_planes_attach() {
        let obs = observer();
        obs.emit_or_hold(TraceEvent::FsRecoveryReplay { seq: 4, blocks: 2 });
        let mp = MetricsPlane::new(Rc::clone(obs.clock()));
        obs.attach_metrics(Rc::clone(&mp)).unwrap();
        assert_eq!(mp.get(Counter::FsRecoveryReplays), 1);
        let tp = TracePlane::new(Rc::clone(obs.clock()));
        obs.attach_trace(Rc::clone(&tp)).unwrap();
        let evs: Vec<TraceEvent> = tp.records().iter().map(|r| r.event).collect();
        assert_eq!(evs, vec![TraceEvent::FsRecoveryReplay { seq: 4, blocks: 2 }]);
        assert_eq!(mp.get(Counter::FsRecoveryReplays), 1, "replayed once, not twice");
    }

    #[test]
    fn tags_taken_before_an_attach_never_feed_the_later_plane() {
        let obs = observer();
        let early = obs.install("early", 4, 0);
        assert_eq!(early, GraftTags::default());
        let tp = TracePlane::new(Rc::clone(obs.clock()));
        let mp = MetricsPlane::new(Rc::clone(obs.clock()));
        obs.attach_trace(Rc::clone(&tp)).unwrap();
        obs.attach_metrics(Rc::clone(&mp)).unwrap();
        obs.attach_fault(FaultPlane::seeded(0)).unwrap();
        obs.fault().unwrap().set_rate(FaultSite::VmTrap, 1, 1);
        obs.retire(&early, Retired { graft_fn: 1, clamps: 1, ..Retired::default() });
        obs.emit_as(&early, TraceEvent::VmWindow { instrs: 1, exit: crate::VmExitKind::Halt });
        obs.add_as(&early, Counter::VmInstrs, 1);
        assert!(!obs.fire_as(&early, FaultSite::VmTrap));
        assert_eq!(obs.clock().now(), Cycles(1), "the clock is still charged");
        assert_eq!(tp.stats().total, 0);
        assert_eq!(mp.get(Counter::VmWindows) + mp.get(Counter::VmInstrs), 0);
        assert_eq!(mp.get(Counter::SfiClamps), 0);
        assert_eq!(mp.kernel_attribution(), [0; Component::COUNT]);
        let late = obs.install("late", 4, 0);
        obs.emit_as(&late, TraceEvent::VmWindow { instrs: 1, exit: crate::VmExitKind::Halt });
        assert!(obs.fire_as(&late, FaultSite::VmTrap));
        assert_eq!(mp.get(Counter::VmWindows), 1);
    }

    #[test]
    fn both_shed_kinds_feed_the_rx_shed_window() {
        let obs = observer();
        let wp = watch_on(&obs, Signal::RxShed, 2);
        obs.emit(TraceEvent::NetShed { port: 9, kind: ShedKind::Watermark });
        assert!(wp.is_empty(), "one shed is below the threshold");
        obs.emit_with_ctx(
            TraceEvent::NetShed { port: 9, kind: ShedKind::Overflow },
            CauseCtx::NONE,
        );
        assert_eq!(edges(&wp), vec![(AlertEdge::Firing, 0, 2)]);
        assert_eq!(wp.stats().sheds, 2);
        obs.emit(TraceEvent::NetRx { port: 9, len: 1 });
        assert_eq!(wp.stats().sheds, 2, "an admitted packet is no shed");
    }

    #[test]
    fn a_lock_timeout_feeds_the_lock_starved_window() {
        let obs = observer();
        let wp = watch_on(&obs, Signal::LockTimeoutRate, 1);
        obs.emit(TraceEvent::LockTimeout { lock: 3, holder: 1 });
        assert_eq!(edges(&wp), vec![(AlertEdge::Firing, 0, 1)]);
        assert_eq!(wp.stats().lock_timeouts, 1);
    }

    #[test]
    fn the_lock_starved_edge_follows_its_timeout_event_in_the_trace() {
        let obs = observer();
        let tp = TracePlane::new(Rc::clone(obs.clock()));
        obs.attach_trace(Rc::clone(&tp)).unwrap();
        watch_on(&obs, Signal::LockTimeoutRate, 1);
        obs.emit(TraceEvent::LockTimeout { lock: 3, holder: 1 });
        let evs: Vec<TraceEvent> = tp.records().iter().map(|r| r.event).collect();
        assert_eq!(
            evs,
            vec![
                TraceEvent::LockTimeout { lock: 3, holder: 1 },
                TraceEvent::WatchAlertFiring { rule: tp.tag("rule"), principal: 0 },
            ]
        );
    }

    #[test]
    fn an_undo_push_feeds_the_undo_depth_peak() {
        let obs = observer();
        let mp = MetricsPlane::new(Rc::clone(obs.clock()));
        obs.attach_metrics(Rc::clone(&mp)).unwrap();
        for depth in [1, 4, 2] {
            obs.emit(TraceEvent::UndoPush { thread: 1, depth });
        }
        assert_eq!(mp.undo_depth_peak(), 4);
        assert_eq!(mp.get(Counter::UndoPushes), 3);
    }

    #[test]
    fn emit_without_a_watch_plane_feeds_no_window() {
        let obs = observer();
        obs.emit(TraceEvent::NetShed { port: 9, kind: ShedKind::Overflow });
        obs.emit(TraceEvent::LockTimeout { lock: 3, holder: 1 });
        obs.report(Reading::JournalOccupancy { occupied: 9, capacity: 10 });
        let wp = watch_on(&obs, Signal::RxShed, 1);
        assert_eq!(wp.stats(), WatchStats::default(), "nothing was held for a later plane");
        assert!(wp.is_empty());
    }

    #[test]
    fn each_reading_reaches_its_plane() {
        let obs = observer();
        let mp = MetricsPlane::new(Rc::clone(obs.clock()));
        obs.attach_metrics(Rc::clone(&mp)).unwrap();
        let wp = watch_on(&obs, Signal::JournalOccupancy, 750);

        obs.report(Reading::JournalOccupancy { occupied: 8, capacity: 10 });
        assert_eq!(edges(&wp), vec![(AlertEdge::Firing, 0, 800)]);
        assert_eq!(wp.stats().journal_appends, 1);

        obs.report(Reading::ReplLag { lag: 5, age: Cycles(70) });
        assert_eq!((wp.repl_lag(), wp.repl_lag_age()), (5, Cycles(70)));

        obs.report(Reading::RmInUse { kind: 2, used: 40 });
        obs.report(Reading::RmInUse { kind: 2, used: 10 });
        assert_eq!(mp.rm_peak(2), 40);

        obs.report(Reading::NicPortDrop { port: 80 });
        obs.report(Reading::NicPortDrop { port: 80 });
        assert_eq!(mp.get(Counter::NicDropped), 2);
        assert_eq!(mp.nic_port_drops(80), 2);
    }

    #[test]
    fn graft_brackets_feed_the_watch_plane_blamed_on_the_installer() {
        let obs = observer();
        let tp = TracePlane::new(Rc::clone(obs.clock()));
        let mp = MetricsPlane::new(Rc::clone(obs.clock()));
        obs.attach_trace(Rc::clone(&tp)).unwrap();
        obs.attach_metrics(Rc::clone(&mp)).unwrap();
        let churn = SloRule {
            name: "churn",
            signal: Signal::QuarantineChurn,
            window: Cycles(1000),
            threshold: 1,
        };
        let p99 = SloRule { signal: Signal::InvokeP99, threshold: 500, name: "p99", ..churn };
        let wp = WatchPlane::with_rules(Rc::clone(obs.clock()), vec![churn, p99]);
        obs.attach_watch(Rc::clone(&wp)).unwrap();

        let tags = obs.install("g", 4, 7);
        assert_eq!(tags.blame, 7);
        assert_eq!(wp.stats().installs, 1);
        obs.begin_invocation(&tags);
        obs.end_invocation(&tags, true, Cycles(100));
        assert_eq!(wp.stats().invocations, 1, "a commit feeds its cost");
        obs.begin_invocation(&tags);
        obs.end_invocation(&tags, false, Cycles(900));
        assert_eq!(wp.stats().invocations, 1, "an abort's cost waits for its exit");

        obs.abort_exit(&tags, Cycles(900), Some(("g", Cycles(5000))));
        let s = wp.stats();
        assert_eq!((s.invocations, s.aborts, s.quarantines), (2, 1, 1));
        assert_eq!(mp.get(Counter::GraftQuarantines), 1);
        // The trip is on record before the edges its exit fires: cost
        // (p99) first, then churn.
        let tail: Vec<TraceEvent> = tp.records().iter().rev().take(3).map(|r| r.event).collect();
        assert_eq!(
            tail,
            vec![
                TraceEvent::WatchAlertFiring { rule: tp.tag("churn"), principal: 7 },
                TraceEvent::WatchAlertFiring { rule: tp.tag("p99"), principal: 7 },
                TraceEvent::GraftQuarantine { graft: tp.tag("g"), until: 5000 },
            ]
        );

        obs.abort_exit(&tags, Cycles(1), None);
        obs.quarantine(&tags, "g", Cycles(9000));
        let s = wp.stats();
        assert_eq!((s.invocations, s.aborts, s.quarantines), (3, 2, 2));
        assert_eq!(mp.get(Counter::GraftQuarantines), 2);
    }
}
