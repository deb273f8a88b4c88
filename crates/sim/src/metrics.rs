//! The deterministic metrics plane: live aggregation over the same
//! instrumentation points the trace plane records.
//!
//! Where [`crate::trace`] answers *what happened* (an ordered event
//! stream), this module answers *how much, how fast, and where the
//! cycles went*: fixed-slot counters, log2-bucketed cycle histograms
//! over the virtual clock, and the headline feature — a **per-graft,
//! per-invocation overhead-attribution ledger** that decomposes every
//! invocation's cycle charge into the paper's named components
//! (indirection, transaction begin/commit, lock, SFI, graft function,
//! result check, undo, abort; §4, Tables 3–7) so the Table 3 breakdown
//! can be read off a *running* kernel instead of a benchmark harness.
//! It is the one attribution ledger per kernel: the profile plane
//! ([`crate::profile`]) is a view over this plane's ledger and graft
//! table.
//!
//! Design discipline matches the trace plane:
//!
//! - **Zero allocations on the hot path.** Counters are fixed slots in
//!   a `Cell` array; histograms are fixed bucket arrays; the invocation
//!   stack is a fixed-depth array. Only graft-name interning
//!   ([`MetricsPlane::tag`], install time) and rendering allocate —
//!   proven by `cargo bench -p vino-bench --bench metrics_plane`.
//! - **Deterministic.** Everything is driven by the virtual clock and
//!   integer arithmetic, so two same-seed runs produce byte-identical
//!   snapshots (`tests/metrics_golden.rs`, `tests/survival.rs`).
//! - **Attach-once.** The plane attaches to a kernel's
//!   [`crate::obs::Observer`] (`Kernel::attach_metrics_plane`); every
//!   subsystem reaches it through that one handle, and a second attach
//!   is refused.
//!
//! Recording a metric never charges the clock: attaching a metrics
//! plane is observation, not perturbation — timings and goldens are
//! identical with and without it.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

use crate::clock::{Cycles, VirtualClock};

/// Interned graft-name handle, the metrics twin of
/// [`crate::trace::GraftTag`]. Interning happens at install time (the
/// only allocating operation); every hot-path call passes the `Copy`
/// tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MetricTag(pub u16);

// ---------------------------------------------------------------------------
// Counters.
// ---------------------------------------------------------------------------

/// Fixed-slot event counters, one per instrumented site.
///
/// Each variant mirrors exactly one trace-plane emit site, so for a run
/// with both planes attached the per-subsystem [`crate::trace::TraceStats`]
/// totals reconcile with sums of these counters (asserted by the
/// survival battery). Extra measurement-only counters
/// ([`Counter::VmInstrs`], [`Counter::MutexAcquires`]) sit outside the
/// reconciliation sums.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Interpreter windows run (mirrors `vm.window`).
    VmWindows,
    /// Instructions retired (measurement-only; no trace twin).
    VmInstrs,
    /// MiSFIT `Clamp` sandbox ops (mirrors `vm.sfi kind=clamp`).
    SfiClamps,
    /// MiSFIT `CheckCall` probes (mirrors `vm.sfi kind=checkcall`).
    SfiCallchecks,
    /// Transactions begun (mirrors `txn.begin`).
    TxnBegins,
    /// Top-level commits (mirrors `txn.commit nested=false`).
    TxnCommits,
    /// Nested commits (mirrors `txn.commit nested=true`).
    TxnNestedCommits,
    /// Aborts (mirrors `txn.abort`).
    TxnAborts,
    /// Transaction locks granted (mirrors `txn.lock`).
    TxnLockAcquires,
    /// Plain mutex acquires outside a transaction (measurement-only).
    MutexAcquires,
    /// Contended acquires that blocked (mirrors `txn.blocked`).
    LockWaits,
    /// Fired time-outs that aborted a holder (mirrors `txn.timeout`).
    LockTimeouts,
    /// Stolen transactions observed by their wrapper (mirrors `txn.steal`).
    LockSteals,
    /// Undo records logged (mirrors `txn.undo-push`).
    UndoPushes,
    /// Undo stacks executed on abort (mirrors `txn.undo-run`).
    UndoRuns,
    /// Resource charges granted (mirrors `rm.grant`).
    RmGrants,
    /// Resource charges denied (mirrors `rm.limit-hit`).
    RmDenials,
    /// Resource releases (mirrors `rm.release`).
    RmReleases,
    /// File reads (mirrors `fs.read`).
    FsReads,
    /// File writes (mirrors `fs.write`).
    FsWrites,
    /// Prefetches issued (mirrors `fs.prefetch`).
    FsPrefetches,
    /// Journal transactions appended (mirrors `fs.journal_append`).
    FsJournalAppends,
    /// Journal commit markers made durable (mirrors `fs.journal_commit`).
    FsJournalCommits,
    /// Committed transactions checkpointed home (mirrors `fs.checkpoint`).
    FsCheckpoints,
    /// Committed transactions rolled forward at mount (mirrors
    /// `fs.recovery_replay`).
    FsRecoveryReplays,
    /// Torn journal tails discarded at mount (mirrors
    /// `fs.recovery_discard`).
    FsRecoveryDiscards,
    /// Graft installs (mirrors `graft.install`).
    GraftInstalls,
    /// Graft invocations begun (mirrors `graft.invoke`).
    GraftInvocations,
    /// Invocations that committed (mirrors `graft.commit`).
    GraftCommits,
    /// Invocations that aborted (mirrors `graft.abort`).
    GraftAborts,
    /// Dead-graft invocations refused to the default path (mirrors
    /// `graft.fallback`).
    GraftFallbacks,
    /// Quarantine trips (mirrors `graft.quarantine`).
    GraftQuarantines,
    /// Installs waved through by the admission controller (mirrors
    /// `watch.admit`; only counted while a watch plane is attached).
    AdmissionAllows,
    /// Installs refused by the admission controller (mirrors
    /// `watch.deny`; only counted while a watch plane is attached).
    AdmissionDenies,
    /// Packets admitted to an RX ring (mirrors `net.rx`).
    NetRxPackets,
    /// Admissions refused at capacity (mirrors `net.shed kind=overflow`).
    NetRxOverflows,
    /// Admissions shed above the high watermark (mirrors
    /// `net.shed kind=watermark`).
    NetRxSheds,
    /// Accept verdicts (mirrors `net.verdict v=accept`).
    NetAccepts,
    /// Drop verdicts (mirrors `net.verdict v=drop`).
    NetDrops,
    /// Steer verdicts (mirrors `net.verdict v=steer`).
    NetSteers,
    /// Steer hops performed (mirrors `net.steer`).
    NetSteerHops,
    /// Packets dropped by the steer-hop budget (mirrors `net.loop-cut`).
    NetLoopCuts,
    /// Batched filter dispatches (mirrors `net.batch`).
    NetBatchDispatches,
    /// NIC events delivered to a poller (measurement-only; no trace twin).
    NicDelivered,
    /// NIC events dropped at the device queue (measurement-only).
    NicDropped,
    /// Disk blocks read (measurement-only; mirrors `DiskStats::reads`).
    DiskReads,
    /// Disk blocks written (measurement-only; mirrors
    /// `DiskStats::writes`).
    DiskWrites,
    /// Disk head seeks (measurement-only; mirrors `DiskStats::seeks`).
    DiskSeeks,
    /// Injected disk stalls (measurement-only; mirrors
    /// `DiskStats::stalls`).
    DiskStalls,
    /// Injected transient media errors (measurement-only; mirrors
    /// `DiskStats::io_errors`).
    DiskIoErrors,
    /// Injected torn writes that persisted only a block prefix
    /// (measurement-only; mirrors `DiskStats::torn_writes`).
    DiskTornWrites,
    /// Committed journal records the primary shipped to the replica
    /// (`vino-repl`).
    ReplShips,
    /// Cumulative acks the primary consumed (`vino-repl`).
    ReplAcks,
    /// Shipped records the replica applied through its own journal
    /// (`vino-repl`).
    ReplApplies,
    /// Frames lost, reordered out of reach, or failing their seal
    /// check (`vino-repl`).
    ReplFrameDrops,
    /// Records the shipping window retransmitted (`vino-repl`).
    ReplRetransmits,
    /// Replica promotions to primary after primary death (`vino-repl`).
    ReplPromotions,
}

impl Counter {
    /// Number of counter slots.
    pub const COUNT: usize = 57;

    /// Every counter, in canonical exposition order.
    pub const ALL: [Counter; Counter::COUNT] = [
        Counter::VmWindows,
        Counter::VmInstrs,
        Counter::SfiClamps,
        Counter::SfiCallchecks,
        Counter::TxnBegins,
        Counter::TxnCommits,
        Counter::TxnNestedCommits,
        Counter::TxnAborts,
        Counter::TxnLockAcquires,
        Counter::MutexAcquires,
        Counter::LockWaits,
        Counter::LockTimeouts,
        Counter::LockSteals,
        Counter::UndoPushes,
        Counter::UndoRuns,
        Counter::RmGrants,
        Counter::RmDenials,
        Counter::RmReleases,
        Counter::FsReads,
        Counter::FsWrites,
        Counter::FsPrefetches,
        Counter::FsJournalAppends,
        Counter::FsJournalCommits,
        Counter::FsCheckpoints,
        Counter::FsRecoveryReplays,
        Counter::FsRecoveryDiscards,
        Counter::GraftInstalls,
        Counter::GraftInvocations,
        Counter::GraftCommits,
        Counter::GraftAborts,
        Counter::GraftFallbacks,
        Counter::GraftQuarantines,
        Counter::AdmissionAllows,
        Counter::AdmissionDenies,
        Counter::NetRxPackets,
        Counter::NetRxOverflows,
        Counter::NetRxSheds,
        Counter::NetAccepts,
        Counter::NetDrops,
        Counter::NetSteers,
        Counter::NetSteerHops,
        Counter::NetLoopCuts,
        Counter::NetBatchDispatches,
        Counter::NicDelivered,
        Counter::NicDropped,
        Counter::DiskReads,
        Counter::DiskWrites,
        Counter::DiskSeeks,
        Counter::DiskStalls,
        Counter::DiskIoErrors,
        Counter::DiskTornWrites,
        Counter::ReplShips,
        Counter::ReplAcks,
        Counter::ReplApplies,
        Counter::ReplFrameDrops,
        Counter::ReplRetransmits,
        Counter::ReplPromotions,
    ];

    /// The Prometheus series name (always a monotone counter).
    pub fn name(self) -> &'static str {
        match self {
            Counter::VmWindows => "vino_vm_windows_total",
            Counter::VmInstrs => "vino_vm_instructions_total",
            Counter::SfiClamps => "vino_vm_sfi_clamps_total",
            Counter::SfiCallchecks => "vino_vm_sfi_callchecks_total",
            Counter::TxnBegins => "vino_txn_begins_total",
            Counter::TxnCommits => "vino_txn_commits_total",
            Counter::TxnNestedCommits => "vino_txn_nested_commits_total",
            Counter::TxnAborts => "vino_txn_aborts_total",
            Counter::TxnLockAcquires => "vino_txn_lock_acquires_total",
            Counter::MutexAcquires => "vino_txn_mutex_acquires_total",
            Counter::LockWaits => "vino_txn_lock_waits_total",
            Counter::LockTimeouts => "vino_txn_lock_timeouts_total",
            Counter::LockSteals => "vino_txn_lock_steals_total",
            Counter::UndoPushes => "vino_txn_undo_pushes_total",
            Counter::UndoRuns => "vino_txn_undo_runs_total",
            Counter::RmGrants => "vino_rm_grants_total",
            Counter::RmDenials => "vino_rm_denials_total",
            Counter::RmReleases => "vino_rm_releases_total",
            Counter::FsReads => "vino_fs_reads_total",
            Counter::FsWrites => "vino_fs_writes_total",
            Counter::FsPrefetches => "vino_fs_prefetches_total",
            Counter::FsJournalAppends => "vino_fs_journal_appends_total",
            Counter::FsJournalCommits => "vino_fs_journal_commits_total",
            Counter::FsCheckpoints => "vino_fs_checkpoints_total",
            Counter::FsRecoveryReplays => "vino_fs_recovery_replays_total",
            Counter::FsRecoveryDiscards => "vino_fs_recovery_discards_total",
            Counter::GraftInstalls => "vino_graft_installs_total",
            Counter::GraftInvocations => "vino_graft_invocations_total",
            Counter::GraftCommits => "vino_graft_commits_total",
            Counter::GraftAborts => "vino_graft_aborts_total",
            Counter::GraftFallbacks => "vino_graft_fallbacks_total",
            Counter::GraftQuarantines => "vino_graft_quarantines_total",
            Counter::AdmissionAllows => "vino_admission_allows_total",
            Counter::AdmissionDenies => "vino_admission_denies_total",
            Counter::NetRxPackets => "vino_net_rx_packets_total",
            Counter::NetRxOverflows => "vino_net_rx_overflows_total",
            Counter::NetRxSheds => "vino_net_rx_sheds_total",
            Counter::NetAccepts => "vino_net_filter_accepts_total",
            Counter::NetDrops => "vino_net_filter_drops_total",
            Counter::NetSteers => "vino_net_filter_steers_total",
            Counter::NetSteerHops => "vino_net_steer_hops_total",
            Counter::NetLoopCuts => "vino_net_loop_cuts_total",
            Counter::NetBatchDispatches => "vino_net_batches_total",
            Counter::NicDelivered => "vino_nic_events_delivered_total",
            Counter::NicDropped => "vino_nic_events_dropped_total",
            Counter::DiskReads => "vino_disk_reads_total",
            Counter::DiskWrites => "vino_disk_writes_total",
            Counter::DiskSeeks => "vino_disk_seeks_total",
            Counter::DiskStalls => "vino_disk_stalls_total",
            Counter::DiskIoErrors => "vino_disk_io_errors_total",
            Counter::DiskTornWrites => "vino_disk_torn_writes_total",
            Counter::ReplShips => "vino_repl_ships_total",
            Counter::ReplAcks => "vino_repl_acks_total",
            Counter::ReplApplies => "vino_repl_applies_total",
            Counter::ReplFrameDrops => "vino_repl_frame_drops_total",
            Counter::ReplRetransmits => "vino_repl_retransmits_total",
            Counter::ReplPromotions => "vino_repl_promotions_total",
        }
    }
}

// ---------------------------------------------------------------------------
// Overhead-attribution components.
// ---------------------------------------------------------------------------

/// The paper's named overhead components (Table 3's rows), the axes of
/// the per-graft attribution ledger.
///
/// Each subsystem attributes its own `vino_sim::costs` charges exactly
/// once: the VM attributes per-instruction charges ([`Component::Sfi`]
/// for sandbox ops, [`Component::GraftFn`] for everything else), the
/// transaction manager attributes the envelope (begin/commit, locks,
/// undo, abort), and the dispatch site attributes
/// [`Component::Indirection`]. Host-call costs inside a VM window (e.g.
/// a transaction lock acquired through `$lock`) are attributed by the
/// manager that charged them, never double-counted by the VM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Component {
    /// Graft-point dispatch (the 1 µs "indirection cost" row).
    Indirection,
    /// `TXN_BEGIN`.
    TxnBegin,
    /// `TXN_COMMIT` / `TXN_NESTED_COMMIT`.
    TxnCommit,
    /// Transaction lock acquires and mutex pairs.
    Lock,
    /// MiSFIT sandbox ops (`Clamp` / `CheckCall`).
    Sfi,
    /// The graft's own instructions (including host-call linkage).
    GraftFn,
    /// Result validation (`RESULT_CHECK`); zero for hooks whose result
    /// needs no semantic check (e.g. read-ahead, where a bad extent is
    /// simply clipped).
    ResultCheck,
    /// Undo logging and undo execution.
    Undo,
    /// Abort overhead and per-lock abort release.
    Abort,
}

impl Component {
    /// Number of attribution slots.
    pub const COUNT: usize = 9;

    /// Every component, in Table-3 rendering order.
    pub const ALL: [Component; Component::COUNT] = [
        Component::Indirection,
        Component::TxnBegin,
        Component::TxnCommit,
        Component::Lock,
        Component::Sfi,
        Component::GraftFn,
        Component::ResultCheck,
        Component::Undo,
        Component::Abort,
    ];

    /// The stable label used in renderings and exposition.
    pub fn label(self) -> &'static str {
        match self {
            Component::Indirection => "indirection",
            Component::TxnBegin => "txn-begin",
            Component::TxnCommit => "txn-commit",
            Component::Lock => "lock",
            Component::Sfi => "sfi",
            Component::GraftFn => "graft-fn",
            Component::ResultCheck => "result-check",
            Component::Undo => "undo",
            Component::Abort => "abort",
        }
    }
}

/// One graft's aggregated attribution ledger, snapshotted by
/// [`MetricsPlane::attribution`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Attribution {
    /// Total attributed cycles per component, across all invocations.
    pub cycles: [u64; Component::COUNT],
    /// Invocations aggregated into the ledger.
    pub invocations: u64,
}

impl Attribution {
    /// Cycles attributed to `c`.
    pub fn of(&self, c: Component) -> Cycles {
        Cycles(self.cycles[c as usize])
    }

    /// Sum over all components.
    pub fn total(&self) -> Cycles {
        Cycles(self.cycles.iter().sum())
    }

    /// Mean per-invocation attribution of `c`, in microseconds.
    pub fn per_invocation_us(&self, c: Component) -> f64 {
        if self.invocations == 0 {
            return 0.0;
        }
        self.of(c).as_us() / self.invocations as f64
    }

    /// Mean per-invocation total, in microseconds — the runtime
    /// equivalent of a Table 3 path figure.
    pub fn total_per_invocation_us(&self) -> f64 {
        if self.invocations == 0 {
            return 0.0;
        }
        self.total().as_us() / self.invocations as f64
    }
}

// ---------------------------------------------------------------------------
// Histograms.
// ---------------------------------------------------------------------------

/// A log2-bucketed cycle histogram: bucket `i` holds samples `v` with
/// `2^(i-1) <= v < 2^i` (bucket 0 holds exactly `v == 0`), giving
/// deterministic quantiles with a fixed 64-slot footprint and no
/// allocation per sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CycleHistogram {
    buckets: [u64; 64],
    count: u64,
}

impl CycleHistogram {
    /// An empty histogram.
    pub const fn new() -> CycleHistogram {
        CycleHistogram { buckets: [0; 64], count: 0 }
    }

    fn bucket_of(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            ((64 - v.leading_zeros()) as usize).min(63)
        }
    }

    /// Upper bound (inclusive) of bucket `i` — the value quantiles
    /// report.
    fn upper_bound(i: usize) -> u64 {
        if i == 0 {
            0
        } else if i >= 63 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    /// Records one sample.
    pub fn record(&mut self, v: Cycles) {
        self.buckets[CycleHistogram::bucket_of(v.get())] += 1;
        self.count += 1;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The `num/den` quantile as the upper bound of the bucket the
    /// quantile falls in (e.g. `quantile(99, 100)` = p99). `None` when
    /// empty.
    pub fn quantile(&self, num: u64, den: u64) -> Option<Cycles> {
        if self.count == 0 {
            return None;
        }
        // Rank of the quantile sample, 1-based, ceiling.
        let rank = (self.count * num).div_ceil(den).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return Some(Cycles(CycleHistogram::upper_bound(i)));
            }
        }
        Some(Cycles(u64::MAX))
    }
}

impl Default for CycleHistogram {
    fn default() -> CycleHistogram {
        CycleHistogram::new()
    }
}

// ---------------------------------------------------------------------------
// Per-graft slots and invocation frames.
// ---------------------------------------------------------------------------

/// Maximum concurrently bracketed invocations (graft-to-graft nesting).
/// The engine bounds nesting well below this (`MAX_NEST_DEPTH`).
const MAX_NEST: usize = 16;

/// One open invocation bracket on the fixed-depth stack.
#[derive(Debug, Clone, Copy)]
struct Frame {
    tag: MetricTag,
    /// Clock reading when the bracket opened.
    start: Cycles,
    comps: [u64; Component::COUNT],
}

const IDLE_FRAME: Frame =
    Frame { tag: MetricTag(u16::MAX), start: Cycles(0), comps: [0; Component::COUNT] };

/// Per-graft aggregates, one fixed-size slot per interned tag.
#[derive(Debug, Clone, Copy)]
struct GraftSlot {
    /// Per-component attribution and invocation count.
    attr: Attribution,
    installs: u64,
    commits: u64,
    aborts: u64,
    fallbacks: u64,
    quarantines: u64,
    /// Deadline of the most recent quarantine trip, if any.
    quarantined_until: Option<Cycles>,
    /// End-to-end invocation latency (begin bracket to end bracket).
    latency: CycleHistogram,
}

impl GraftSlot {
    fn new() -> GraftSlot {
        GraftSlot {
            attr: Attribution { cycles: [0; Component::COUNT], invocations: 0 },
            installs: 0,
            commits: 0,
            aborts: 0,
            fallbacks: 0,
            quarantines: 0,
            quarantined_until: None,
            latency: CycleHistogram::new(),
        }
    }
}

// ---------------------------------------------------------------------------
// The plane.
// ---------------------------------------------------------------------------

/// An opaque snapshot of a [`MetricsPlane`]'s full mutable state:
/// counters, gauges, the per-graft ledgers and the interned name table.
/// Captured by [`MetricsPlane::export_state`], replanted by
/// [`MetricsPlane::restore_state`] so a resumed replay accumulates into
/// the same ledgers and snapshots byte-identically.
#[derive(Clone)]
pub struct MetricsState {
    counters: [u64; Counter::COUNT],
    rm_peaks: [u64; 8],
    undo_depth_peak: u64,
    pending_indirection: u64,
    kernel: [u64; Component::COUNT],
    grafts: Vec<GraftSlot>,
    names: Vec<String>,
    all_latency: CycleHistogram,
    nic_port_drops: Vec<(u16, u64)>,
}

/// The shared metrics plane handle (see module docs).
///
/// Create once (it comes wrapped in `Rc`) and attach to a kernel's
/// [`crate::obs::Observer`] with `Kernel::attach_metrics_plane`.
#[derive(Debug)]
pub struct MetricsPlane {
    clock: Rc<VirtualClock>,
    /// One cell per counter, so a bump touches only its own slot.
    counters: [Cell<u64>; Counter::COUNT],
    /// Per-resource-kind high-water marks, indexed by
    /// `ResourceKind::index()`.
    rm_peaks: Cell<[u64; 8]>,
    /// Deepest undo stack observed.
    undo_depth_peak: Cell<u64>,
    /// Open invocation brackets; charges land on the innermost one.
    frames: RefCell<[Frame; MAX_NEST]>,
    depth: Cell<usize>,
    /// Dispatch charges awaiting the invocation they dispatch.
    pending_indirection: Cell<u64>,
    /// Charges recorded outside any invocation (kernel-side work).
    kernel: Cell<[u64; Component::COUNT]>,
    grafts: RefCell<Vec<GraftSlot>>,
    names: RefCell<Vec<String>>,
    tags: RefCell<HashMap<String, MetricTag>>,
    all_latency: RefCell<CycleHistogram>,
    /// Per-port NIC drop counts, sorted by port. Grows only on the
    /// first drop seen for a port.
    nic_port_drops: RefCell<Vec<(u16, u64)>>,
}

impl MetricsPlane {
    /// Creates a plane stamped by `clock`, pre-reserving room for a few
    /// grafts.
    pub fn new(clock: Rc<VirtualClock>) -> Rc<MetricsPlane> {
        MetricsPlane::with_graft_capacity(clock, 32)
    }

    /// Creates a plane with room for `grafts` interned names before the
    /// slot table reallocates (interning happens at install time, so
    /// this only matters for allocation-count proofs).
    pub fn with_graft_capacity(clock: Rc<VirtualClock>, grafts: usize) -> Rc<MetricsPlane> {
        Rc::new(MetricsPlane {
            clock,
            counters: std::array::from_fn(|_| Cell::new(0)),
            rm_peaks: Cell::new([0; 8]),
            undo_depth_peak: Cell::new(0),
            frames: RefCell::new([IDLE_FRAME; MAX_NEST]),
            depth: Cell::new(0),
            pending_indirection: Cell::new(0),
            kernel: Cell::new([0; Component::COUNT]),
            grafts: RefCell::new(Vec::with_capacity(grafts)),
            names: RefCell::new(Vec::with_capacity(grafts)),
            tags: RefCell::new(HashMap::with_capacity(grafts)),
            all_latency: RefCell::new(CycleHistogram::new()),
            nic_port_drops: RefCell::new(Vec::new()),
        })
    }

    /// The clock stamping invocation brackets.
    pub(crate) fn clock(&self) -> &Rc<VirtualClock> {
        &self.clock
    }

    // -- checkpointing ------------------------------------------------------

    /// Snapshots the plane's full mutable state for a checkpoint.
    ///
    /// # Panics
    ///
    /// Panics if an invocation bracket is open — checkpoints are taken
    /// at quiesced instants only.
    pub fn export_state(&self) -> MetricsState {
        assert_eq!(self.depth.get(), 0, "cannot checkpoint mid-invocation");
        MetricsState {
            pending_indirection: self.pending_indirection.get(),
            kernel: self.kernel.get(),
            counters: std::array::from_fn(|i| self.counters[i].get()),
            rm_peaks: self.rm_peaks.get(),
            undo_depth_peak: self.undo_depth_peak.get(),
            grafts: self.grafts.borrow().clone(),
            names: self.names.borrow().clone(),
            all_latency: *self.all_latency.borrow(),
            nic_port_drops: self.nic_port_drops.borrow().clone(),
        }
    }

    /// Replants a [`MetricsState`] capture: counters, gauges and ledgers
    /// resume exactly where the capture left them, with no bracket open.
    pub fn restore_state(&self, st: &MetricsState) {
        for (cell, v) in self.counters.iter().zip(st.counters) {
            cell.set(v);
        }
        self.rm_peaks.set(st.rm_peaks);
        self.undo_depth_peak.set(st.undo_depth_peak);
        self.pending_indirection.set(st.pending_indirection);
        self.kernel.set(st.kernel);
        self.depth.set(0);
        *self.frames.borrow_mut() = [IDLE_FRAME; MAX_NEST];
        *self.grafts.borrow_mut() = st.grafts.clone();
        *self.names.borrow_mut() = st.names.clone();
        let mut tags = self.tags.borrow_mut();
        tags.clear();
        for (i, name) in st.names.iter().enumerate() {
            tags.insert(name.clone(), MetricTag(i as u16));
        }
        drop(tags);
        *self.all_latency.borrow_mut() = st.all_latency;
        *self.nic_port_drops.borrow_mut() = st.nic_port_drops.clone();
    }

    // -- interning ----------------------------------------------------------

    /// Interns `name`, allocating a per-graft slot on first sight. The
    /// only allocating operation besides rendering; called at install
    /// time.
    ///
    /// # Panics
    ///
    /// Panics on the 65,536th distinct name: tag `u16::MAX` means "no
    /// graft", and a wrapped tag would merge two grafts' ledgers.
    pub fn tag(&self, name: &str) -> MetricTag {
        if let Some(t) = self.tags.borrow().get(name) {
            return *t;
        }
        let mut names = self.names.borrow_mut();
        let t = u16::try_from(names.len())
            .ok()
            .filter(|&t| t < u16::MAX)
            .map(MetricTag)
            .expect("metrics plane: graft tag space exhausted");
        names.push(name.to_string());
        self.grafts.borrow_mut().push(GraftSlot::new());
        self.tags.borrow_mut().insert(name.to_string(), t);
        t
    }

    /// The interned name for `tag` (`?tagN` for unknown tags).
    pub fn name_of(&self, tag: MetricTag) -> String {
        self.names.borrow().get(tag.0 as usize).cloned().unwrap_or_else(|| format!("?tag{}", tag.0))
    }

    // -- counters -----------------------------------------------------------

    /// Adds `n` to counter `c`. Zero-allocation.
    pub fn add(&self, c: Counter, n: u64) {
        let cell = &self.counters[c as usize];
        cell.set(cell.get() + n);
    }

    /// Increments counter `c`. Zero-allocation.
    pub fn inc(&self, c: Counter) {
        self.add(c, 1);
    }

    /// Current value of counter `c`.
    pub fn get(&self, c: Counter) -> u64 {
        self.counters[c as usize].get()
    }

    /// Raises the high-water mark for resource kind `kind`
    /// (`ResourceKind::index()`), a gauge. Zero-allocation.
    pub fn observe_rm_peak(&self, kind: u8, used: u64) {
        let mut v = self.rm_peaks.get();
        if let Some(slot) = v.get_mut(kind as usize) {
            if used > *slot {
                *slot = used;
                self.rm_peaks.set(v);
            }
        }
    }

    /// The high-water mark for resource kind `kind`.
    pub fn rm_peak(&self, kind: u8) -> u64 {
        self.rm_peaks.get().get(kind as usize).copied().unwrap_or(0)
    }

    /// Raises the deepest-undo-stack gauge. Zero-allocation.
    pub fn observe_undo_depth(&self, depth: u64) {
        if depth > self.undo_depth_peak.get() {
            self.undo_depth_peak.set(depth);
        }
    }

    /// The deepest undo stack observed.
    pub fn undo_depth_peak(&self) -> u64 {
        self.undo_depth_peak.get()
    }

    /// Counts one shed NIC event on `port`, in the aggregate
    /// [`Counter::NicDropped`] and per port. Allocates only on the first
    /// drop seen for a port; the table stays sorted so exposition is
    /// deterministic.
    pub fn observe_nic_port_drop(&self, port: u16) {
        self.inc(Counter::NicDropped);
        let mut drops = self.nic_port_drops.borrow_mut();
        match drops.binary_search_by_key(&port, |&(p, _)| p) {
            Ok(i) => drops[i].1 += 1,
            Err(i) => drops.insert(i, (port, 1)),
        }
    }

    /// Drops counted on NIC `port`.
    pub fn nic_port_drops(&self, port: u16) -> u64 {
        let drops = self.nic_port_drops.borrow();
        drops.binary_search_by_key(&port, |&(p, _)| p).map_or(0, |i| drops[i].1)
    }

    // -- attribution --------------------------------------------------------

    /// Attributes `cost` to component `c` of the innermost open
    /// invocation. Zero-allocation.
    ///
    /// Outside any bracket, [`Component::Indirection`] is held pending
    /// and claimed by the next [`begin_invocation`](Self::begin_invocation)
    /// (the dispatch charge belongs to the invocation it dispatches);
    /// every other component is kernel-side work and lands in the
    /// kernel ledger ([`Self::kernel_attribution`]).
    pub fn charge(&self, c: Component, cost: Cycles) {
        let d = self.depth.get();
        if d > 0 {
            self.frames.borrow_mut()[d - 1].comps[c as usize] += cost.get();
        } else if c == Component::Indirection {
            self.pending_indirection.set(self.pending_indirection.get() + cost.get());
        } else {
            self.add_kernel(c, cost.get());
        }
    }

    fn add_kernel(&self, c: Component, v: u64) {
        let mut k = self.kernel.get();
        k[c as usize] += v;
        self.kernel.set(k);
    }

    /// Opens an invocation bracket for `tag`: starts the latency stamp,
    /// claims any pending dispatch charge, and counts the invocation.
    /// Zero-allocation.
    pub fn begin_invocation(&self, tag: MetricTag) {
        let d = self.depth.get();
        assert!(d < MAX_NEST, "invocation nest deeper than MAX_NEST");
        let mut frame = Frame { tag, start: self.clock.now(), comps: [0; Component::COUNT] };
        frame.comps[Component::Indirection as usize] += self.pending_indirection.replace(0);
        self.frames.borrow_mut()[d] = frame;
        self.depth.set(d + 1);
        if let Some(slot) = self.grafts.borrow_mut().get_mut(tag.0 as usize) {
            slot.attr.invocations += 1;
        }
        self.inc(Counter::GraftInvocations);
    }

    /// The innermost open bracket's tag and start, if any.
    pub(crate) fn current_invocation(&self) -> Option<(MetricTag, Cycles)> {
        let d = self.depth.get();
        (d > 0).then(|| {
            let f = self.frames.borrow()[d - 1];
            (f.tag, f.start)
        })
    }

    /// Closes the innermost invocation bracket: records latency, merges
    /// the frame's attribution into the graft ledger, and counts the
    /// outcome. Zero-allocation.
    pub fn end_invocation(&self, committed: bool) {
        let d = self.depth.get();
        assert!(d > 0, "end_invocation without begin_invocation");
        self.depth.set(d - 1);
        let frame = self.frames.borrow()[d - 1];
        let latency = self.clock.now().saturating_sub(frame.start);
        self.all_latency.borrow_mut().record(latency);
        self.inc(if committed { Counter::GraftCommits } else { Counter::GraftAborts });
        if let Some(slot) = self.grafts.borrow_mut().get_mut(frame.tag.0 as usize) {
            for (total, add) in slot.attr.cycles.iter_mut().zip(frame.comps) {
                *total += add;
            }
            slot.latency.record(latency);
            if committed {
                slot.commits += 1;
            } else {
                slot.aborts += 1;
            }
        }
    }

    /// Records a graft install for `tag`.
    pub fn mark_install(&self, tag: MetricTag) {
        self.inc(Counter::GraftInstalls);
        if let Some(slot) = self.grafts.borrow_mut().get_mut(tag.0 as usize) {
            slot.installs += 1;
        }
    }

    /// Records a dead-graft invocation refused to the fallback path.
    /// Flushes any unclaimed dispatch charge to the kernel ledger (the
    /// dispatch led nowhere).
    pub fn mark_fallback(&self, tag: MetricTag) {
        let pending = self.pending_indirection.replace(0);
        if pending > 0 {
            self.add_kernel(Component::Indirection, pending);
        }
        self.inc(Counter::GraftFallbacks);
        if let Some(slot) = self.grafts.borrow_mut().get_mut(tag.0 as usize) {
            slot.fallbacks += 1;
        }
    }

    /// Records a quarantine trip for graft `name` until `until`.
    /// Interns the name (quarantine is off the hot path).
    pub fn quarantine(&self, name: &str, until: Cycles) {
        let tag = self.tag(name);
        self.inc(Counter::GraftQuarantines);
        if let Some(slot) = self.grafts.borrow_mut().get_mut(tag.0 as usize) {
            slot.quarantines += 1;
            slot.quarantined_until = Some(until);
        }
    }

    // -- snapshots ----------------------------------------------------------

    /// Interned tags in intern order (install order).
    pub fn tags_in_order(&self) -> Vec<MetricTag> {
        (0..self.names.borrow().len() as u16).map(MetricTag).collect()
    }

    /// The attribution ledger for `tag`, if interned.
    pub fn attribution(&self, tag: MetricTag) -> Option<Attribution> {
        self.grafts.borrow().get(tag.0 as usize).map(|s| s.attr)
    }

    /// Cycles attributed to kernel-side work outside any invocation.
    pub fn kernel_attribution(&self) -> [u64; Component::COUNT] {
        self.kernel.get()
    }

    /// Per-graft invocation-latency quantile (`num/den`), if any
    /// invocation completed.
    pub fn latency_quantile(&self, tag: MetricTag, num: u64, den: u64) -> Option<Cycles> {
        self.grafts.borrow().get(tag.0 as usize).and_then(|s| s.latency.quantile(num, den))
    }

    /// All-grafts invocation-latency quantile.
    pub fn global_latency_quantile(&self, num: u64, den: u64) -> Option<Cycles> {
        self.all_latency.borrow().quantile(num, den)
    }

    /// Abort rate of `tag` over completed invocations, in [0, 1].
    pub fn abort_rate(&self, tag: MetricTag) -> f64 {
        let grafts = self.grafts.borrow();
        let Some(s) = grafts.get(tag.0 as usize) else { return 0.0 };
        let done = s.commits + s.aborts;
        if done == 0 {
            0.0
        } else {
            s.aborts as f64 / done as f64
        }
    }

    // -- rendering (all off the hot path) -----------------------------------

    /// Prometheus-style text exposition: `# TYPE` headers, counter
    /// series, per-graft labelled series, attribution ledgers and
    /// latency quantiles. Deterministic: fixed series order (enum
    /// order, then tag order), integer values except quantile gauges.
    pub fn expose(&self) -> String {
        let mut out = String::new();
        for c in Counter::ALL {
            out.push_str(&format!("# TYPE {} counter\n{} {}\n", c.name(), c.name(), self.get(c)));
        }
        out.push_str("# TYPE vino_nic_port_drops_total counter\n");
        for (port, n) in self.nic_port_drops.borrow().iter() {
            out.push_str(&format!("vino_nic_port_drops_total{{port=\"{port}\"}} {n}\n"));
        }
        let peaks = self.rm_peaks.get();
        out.push_str("# TYPE vino_rm_peak_units gauge\n");
        for (kind, peak) in peaks.iter().enumerate() {
            if *peak > 0 {
                out.push_str(&format!("vino_rm_peak_units{{kind=\"{kind}\"}} {peak}\n"));
            }
        }
        out.push_str(&format!(
            "# TYPE vino_txn_undo_depth_peak gauge\nvino_txn_undo_depth_peak {}\n",
            self.undo_depth_peak(),
        ));
        let names = self.names.borrow();
        let grafts = self.grafts.borrow();
        out.push_str("# TYPE vino_graft_overhead_cycles_total counter\n");
        for (i, slot) in grafts.iter().enumerate() {
            for c in Component::ALL {
                let v = slot.attr.cycles[c as usize];
                if v > 0 {
                    out.push_str(&format!(
                        "vino_graft_overhead_cycles_total{{graft=\"{}\",component=\"{}\"}} {v}\n",
                        names[i],
                        c.label(),
                    ));
                }
            }
        }
        out.push_str("# TYPE vino_graft_invoke_latency_cycles gauge\n");
        for (i, slot) in grafts.iter().enumerate() {
            for (q, num) in [("0.5", 50u64), ("0.99", 99u64)] {
                if let Some(v) = slot.latency.quantile(num, 100) {
                    out.push_str(&format!(
                        "vino_graft_invoke_latency_cycles{{graft=\"{}\",quantile=\"{q}\"}} {}\n",
                        names[i],
                        v.get(),
                    ));
                }
            }
        }
        out
    }

    /// The runtime Table-3-shaped breakdown for `tag`: mean
    /// per-invocation microseconds per component, plus the total.
    pub fn render_attribution(&self, tag: MetricTag) -> String {
        let Some(attr) = self.attribution(tag) else {
            return format!("-- overhead attribution: unknown {tag:?} --\n");
        };
        let mut out = format!(
            "-- overhead attribution: graft `{}` ({} invocations) --\n",
            self.name_of(tag),
            attr.invocations,
        );
        for c in Component::ALL {
            out.push_str(&format!(
                "  {:<14} {:>8.2} us/invocation\n",
                c.label(),
                attr.per_invocation_us(c),
            ));
        }
        out.push_str(&format!(
            "  {:<14} {:>8.2} us/invocation\n",
            "total",
            attr.total_per_invocation_us(),
        ));
        out
    }

    /// The health/SLO view: one line per graft — invocations, abort
    /// rate, p50/p99 invocation latency, quarantine state at the
    /// current virtual-clock instant.
    pub fn health(&self) -> String {
        let mut out = String::from(
            "graft              invokes  commits   aborts  abort%   p50(us)    p99(us)  state\n",
        );
        let names = self.names.borrow();
        let grafts = self.grafts.borrow();
        let now = self.clock.now();
        for (i, slot) in grafts.iter().enumerate() {
            let q = |num| {
                slot.latency
                    .quantile(num, 100)
                    .map_or_else(|| "-".to_string(), |c| format!("{:.1}", c.as_us()))
            };
            let done = slot.commits + slot.aborts;
            let rate = if done == 0 { 0.0 } else { 100.0 * slot.aborts as f64 / done as f64 };
            let state = match slot.quarantined_until {
                Some(until) if until > now => format!("quarantined@{}", until.get()),
                _ => "ok".to_string(),
            };
            out.push_str(&format!(
                "{:<18} {:>7} {:>8} {:>8} {:>6.1} {:>9} {:>10}  {}\n",
                names[i],
                slot.attr.invocations,
                slot.commits,
                slot.aborts,
                rate,
                q(50),
                q(99),
                state,
            ));
        }
        let g = |c| self.get(c);
        out.push_str(&format!(
            "disk: reads={} writes={} seeks={} stalls={} io_errors={} torn={}\n",
            g(Counter::DiskReads),
            g(Counter::DiskWrites),
            g(Counter::DiskSeeks),
            g(Counter::DiskStalls),
            g(Counter::DiskIoErrors),
            g(Counter::DiskTornWrites),
        ));
        out.push_str(&format!(
            "journal: appends={} commits={} checkpoints={} | recovery: replays={} discards={}\n",
            g(Counter::FsJournalAppends),
            g(Counter::FsJournalCommits),
            g(Counter::FsCheckpoints),
            g(Counter::FsRecoveryReplays),
            g(Counter::FsRecoveryDiscards),
        ));
        out
    }

    /// The canonical full snapshot frozen by the golden battery: the
    /// exposition, every graft's attribution breakdown (intern order),
    /// and the health view. Byte-identical across same-seed runs.
    pub fn snapshot(&self) -> String {
        let mut out = self.expose();
        for tag in self.tags_in_order() {
            out.push_str(&self.render_attribution(tag));
        }
        out.push_str(&self.health());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plane() -> (Rc<MetricsPlane>, Rc<VirtualClock>) {
        let clock = VirtualClock::new();
        (MetricsPlane::new(Rc::clone(&clock)), clock)
    }

    #[test]
    fn counters_accumulate_in_fixed_slots() {
        let (mp, _) = plane();
        mp.inc(Counter::TxnBegins);
        mp.add(Counter::VmInstrs, 41);
        mp.inc(Counter::VmInstrs);
        assert_eq!(mp.get(Counter::TxnBegins), 1);
        assert_eq!(mp.get(Counter::VmInstrs), 42);
        assert_eq!(mp.get(Counter::TxnCommits), 0);
    }

    #[test]
    fn tags_intern_and_stay_stable() {
        let (mp, _) = plane();
        let a = mp.tag("ra");
        let b = mp.tag("evict");
        assert_eq!(mp.tag("ra"), a);
        assert_ne!(a, b);
        assert_eq!(mp.name_of(a), "ra");
        assert_eq!(mp.name_of(MetricTag(99)), "?tag99");
    }

    #[test]
    fn tag_space_exhaustion_panics_instead_of_aliasing() {
        let mp = MetricsPlane::with_graft_capacity(VirtualClock::new(), 0);
        for i in 0..u16::MAX {
            assert_eq!(mp.tag(&i.to_string()), MetricTag(i));
        }
        mp.begin_invocation(MetricTag(0));
        mp.charge(Component::GraftFn, Cycles(5));
        mp.end_invocation(true);
        let overflow =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| mp.tag("one-too-many")));
        assert!(overflow.is_err(), "tag {} would mean \"no graft\"", u16::MAX);
        assert_eq!(mp.tags_in_order().len(), u16::MAX as usize, "no slot was added");
        assert_eq!(mp.tag("0"), MetricTag(0));
        assert_eq!(mp.attribution(MetricTag(0)).unwrap().of(Component::GraftFn), Cycles(5));
        assert_eq!(mp.attribution(MetricTag(u16::MAX)), None);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = CycleHistogram::new();
        assert_eq!(h.quantile(50, 100), None);
        for v in [0u64, 1, 2, 3, 100, 1000, 100_000] {
            h.record(Cycles(v));
        }
        assert_eq!(h.count(), 7);
        // p50 is the 4th of 7 samples: 3 lives in bucket [2,4) → ub 3.
        assert_eq!(h.quantile(50, 100), Some(Cycles(3)));
        // p99 is the last sample's bucket: 100_000 in [2^16, 2^17).
        assert_eq!(h.quantile(99, 100), Some(Cycles((1 << 17) - 1)));
    }

    #[test]
    fn attribution_brackets_and_merges() {
        let (mp, clock) = plane();
        let t = mp.tag("g");
        // A dispatch charge outside the bracket pends, then is claimed.
        mp.charge(Component::Indirection, Cycles(120));
        mp.begin_invocation(t);
        mp.charge(Component::TxnBegin, Cycles::from_us(36));
        mp.charge(Component::GraftFn, Cycles(240));
        clock.charge_us(70);
        mp.end_invocation(true);
        let a = mp.attribution(t).unwrap();
        assert_eq!(a.invocations, 1);
        assert_eq!(a.of(Component::Indirection), Cycles(120));
        assert_eq!(a.of(Component::TxnBegin), Cycles::from_us(36));
        assert_eq!(a.of(Component::GraftFn), Cycles(240));
        assert_eq!(a.of(Component::Abort), Cycles(0));
        assert_eq!(mp.get(Counter::GraftCommits), 1);
        // 70 us = 8400 cycles, bucket [2^13, 2^14) → upper bound 2^14 - 1.
        assert_eq!(mp.latency_quantile(t, 50, 100), Some(Cycles((1 << 14) - 1)));
    }

    #[test]
    fn nested_brackets_attribute_to_the_innermost() {
        let (mp, _) = plane();
        let outer = mp.tag("outer");
        let inner = mp.tag("inner");
        mp.begin_invocation(outer);
        mp.charge(Component::TxnBegin, Cycles(100));
        mp.begin_invocation(inner);
        mp.charge(Component::TxnBegin, Cycles(7));
        mp.end_invocation(false);
        mp.end_invocation(true);
        assert_eq!(mp.attribution(outer).unwrap().of(Component::TxnBegin), Cycles(100));
        assert_eq!(mp.attribution(inner).unwrap().of(Component::TxnBegin), Cycles(7));
        assert_eq!(mp.attribution(inner).unwrap().invocations, 1);
        assert_eq!(mp.get(Counter::GraftAborts), 1);
        assert_eq!(mp.get(Counter::GraftCommits), 1);
    }

    #[test]
    fn kernel_side_charges_do_not_pollute_grafts() {
        let (mp, _) = plane();
        let t = mp.tag("g");
        mp.charge(Component::Lock, Cycles(55));
        mp.begin_invocation(t);
        mp.end_invocation(true);
        assert_eq!(mp.attribution(t).unwrap().of(Component::Lock), Cycles(0));
        assert_eq!(mp.kernel_attribution()[Component::Lock as usize], 55);
    }

    #[test]
    fn fallback_flushes_pending_dispatch_to_kernel() {
        let (mp, _) = plane();
        let t = mp.tag("dead");
        mp.charge(Component::Indirection, Cycles(120));
        mp.mark_fallback(t);
        assert_eq!(mp.kernel_attribution()[Component::Indirection as usize], 120);
        assert_eq!(mp.get(Counter::GraftFallbacks), 1);
        // The next invocation starts clean.
        mp.begin_invocation(t);
        mp.end_invocation(true);
        assert_eq!(mp.attribution(t).unwrap().of(Component::Indirection), Cycles(0));
    }

    #[test]
    fn quarantine_state_tracks_the_clock() {
        let (mp, clock) = plane();
        mp.quarantine("flaky", Cycles::from_ms(250));
        assert_eq!(mp.get(Counter::GraftQuarantines), 1);
        assert!(mp.health().contains("quarantined@"));
        clock.advance_to(Cycles::from_ms(251));
        assert!(!mp.health().contains("quarantined@"));
    }

    #[test]
    fn exposition_is_deterministic_and_shaped() {
        let (mp, _) = plane();
        let t = mp.tag("ra");
        mp.inc(Counter::FsReads);
        mp.begin_invocation(t);
        mp.charge(Component::TxnBegin, Cycles::from_us(36));
        mp.end_invocation(true);
        mp.observe_rm_peak(0, 8192);
        let a = mp.expose();
        let b = mp.expose();
        assert_eq!(a, b);
        assert!(a.contains("# TYPE vino_fs_reads_total counter\nvino_fs_reads_total 1\n"));
        assert!(a.contains("vino_rm_peak_units{kind=\"0\"} 8192\n"));
        assert!(a.contains(
            "vino_graft_overhead_cycles_total{graft=\"ra\",component=\"txn-begin\"} 4320\n"
        ));
    }

    #[test]
    fn abort_rate_over_completed_invocations() {
        let (mp, _) = plane();
        let t = mp.tag("g");
        for committed in [true, true, false, true] {
            mp.begin_invocation(t);
            mp.end_invocation(committed);
        }
        assert!((mp.abort_rate(t) - 0.25).abs() < 1e-12);
    }
}
