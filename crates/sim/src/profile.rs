//! The deterministic profiling plane: cycle-exact, per-PC attribution
//! of where a graft's protection budget goes.
//!
//! The third observability plane beside [`crate::trace`] (what
//! happened) and [`crate::metrics`] (how much, per component). This
//! module answers *where, inside the graft*: every retired GraftVM
//! instruction bills its deterministic cycle cost to a
//! (graft, function, pc) key, with MiSFIT sandbox cycles
//! ([`crate::metrics::Component::Sfi`]) kept separate from the graft's
//! own work so SFI overhead shows up as its own frames. On top of the
//! per-PC ledger sit three renderings:
//!
//! - **Folded stacks** ([`ProfilePlane::folded`]): one line per call
//!   path in the `flamegraph.pl` input format
//!   (`graft;fn@0;fn@7 cycles`), with synthetic `[sfi]` leaf frames and
//!   `[txn-begin]`-style frames for the host-side envelope components.
//! - **Hot-function report** ([`ProfilePlane::render_top`]): a
//!   `vino_top`-style table of the top-N functions by self cycles.
//! - **Invocation span trees** ([`ProfilePlane::chrome_trace`]): one
//!   span per graft invocation with child spans for the transaction
//!   envelope (begin / lock-wait / undo / commit / abort), fs and net
//!   dispatch, and RM grants, exported as Chrome `chrome://tracing`
//!   JSON.
//!
//! Design discipline matches the other planes:
//!
//! - **Zero allocations on the hot path.** Per-PC tallies are
//!   pre-sized`Vec` slots ([`ProfilePlane::register_program`], install
//!   time); the call-stack tree allocates only on the first sight of a
//!   (caller, callee) edge; spans live in a fixed-capacity buffer that
//!   drops (and counts) overflow instead of growing. Proven by
//!   `cargo bench -p vino-bench --bench profile_plane`.
//! - **Deterministic.** Driven entirely by the virtual clock, so two
//!   same-seed runs render byte-identical output
//!   (`tests/profile_golden.rs`, `tests/survival.rs`).
//! - **A view over the metrics plane.** The plane is built over one
//!   [`MetricsPlane`] ([`ProfilePlane::new`]) and keeps only what that
//!   plane lacks: per-PC arrays, call trees and spans, keyed by the
//!   metrics plane's [`MetricTag`]. Graft names, the per-component
//!   attribution, the kernel ledger, invocation counts and the open
//!   invocation bracket are read from the metrics plane, so there is
//!   one Table-3 ledger per kernel and the profile cannot disagree
//!   with it.
//!
//! Recording a profile never charges the clock: attaching a profile
//! plane is observation, not perturbation.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::rc::Rc;

use crate::clock::Cycles;
use crate::metrics::{Component, MetricTag, MetricsPlane};

/// Default span-buffer capacity; overflow is dropped and counted.
const DEFAULT_SPAN_CAP: usize = 4096;

/// Reserved call-stack depth per graft (the engine bounds VM call
/// nesting far below this).
const STACK_RESERVE: usize = 64;

// ---------------------------------------------------------------------------
// Spans.
// ---------------------------------------------------------------------------

/// The kinds of spans in an invocation tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// One graft invocation, begin bracket to end bracket.
    Invocation,
    /// `TXN_BEGIN` inside the wrapper envelope.
    TxnBegin,
    /// Top-level or nested commit.
    TxnCommit,
    /// Time spent blocked on a contended lock (advance-to-deadline).
    LockWait,
    /// Undo logging or undo execution.
    Undo,
    /// Abort overhead including per-lock release.
    Abort,
    /// File-system dispatch indirection to a grafted policy.
    FsDispatch,
    /// Packet-plane batched filter dispatch.
    NetDispatch,
    /// A resource-manager grant (instantaneous).
    RmGrant,
}

impl SpanKind {
    /// The stable name used in Chrome-trace output.
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::Invocation => "invoke",
            SpanKind::TxnBegin => "txn-begin",
            SpanKind::TxnCommit => "txn-commit",
            SpanKind::LockWait => "lock-wait",
            SpanKind::Undo => "undo",
            SpanKind::Abort => "abort",
            SpanKind::FsDispatch => "fs-dispatch",
            SpanKind::NetDispatch => "net-dispatch",
            SpanKind::RmGrant => "rm-grant",
        }
    }

    /// The Chrome-trace category.
    pub fn category(self) -> &'static str {
        match self {
            SpanKind::Invocation => "graft",
            SpanKind::TxnBegin
            | SpanKind::TxnCommit
            | SpanKind::LockWait
            | SpanKind::Undo
            | SpanKind::Abort => "txn",
            SpanKind::FsDispatch => "fs",
            SpanKind::NetDispatch => "net",
            SpanKind::RmGrant => "rm",
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Span {
    kind: SpanKind,
    start: Cycles,
    dur: Cycles,
    /// For [`SpanKind::Invocation`]: the graft, and true when the
    /// invocation aborted.
    graft: Option<(MetricTag, bool)>,
}

// ---------------------------------------------------------------------------
// Call-graph nodes.
// ---------------------------------------------------------------------------

/// One node in a graft's call tree: a function (identified by its entry
/// pc) reached through a particular caller chain.
#[derive(Debug, Clone, Copy)]
struct Node {
    /// Parent node index, or `u32::MAX` for the root.
    parent: u32,
    /// Entry pc of the function this node represents (0 for the root).
    entry: u32,
    /// Self cycles billed at this node, excluding SFI.
    cycles: u64,
    /// Self SFI cycles (Clamp / CheckCall) billed at this node.
    sfi: u64,
    /// Times this node was entered (`calll`; root counts via
    /// invocations).
    enters: u64,
}

const ROOT: u32 = 0;

// ---------------------------------------------------------------------------
// Per-graft slots.
// ---------------------------------------------------------------------------

/// Per-graft profile state, one slot per graft installed while the
/// plane was attached.
#[derive(Debug)]
struct GraftProf {
    /// Program length; sizes the per-PC arrays.
    prog_len: usize,
    /// Total cycles billed at each pc (all components).
    pc_cycles: Vec<u64>,
    /// SFI cycles billed at each pc.
    pc_sfi: Vec<u64>,
    /// Instructions retired at each pc.
    pc_hits: Vec<u64>,
    /// Instructions retired across all invocations.
    instrs: u64,
    /// Call-tree nodes; `nodes[0]` is the root.
    nodes: Vec<Node>,
    /// (parent node, callee entry pc) → node index.
    edges: HashMap<(u32, u32), u32>,
    /// Current call stack, as node indices (excluding `cur`).
    stack: Vec<u32>,
    /// The node currently executing.
    cur: u32,
}

impl GraftProf {
    fn new() -> GraftProf {
        GraftProf {
            prog_len: 0,
            pc_cycles: Vec::new(),
            pc_sfi: Vec::new(),
            pc_hits: Vec::new(),
            instrs: 0,
            nodes: vec![Node { parent: u32::MAX, entry: 0, cycles: 0, sfi: 0, enters: 0 }],
            edges: HashMap::new(),
            stack: Vec::with_capacity(STACK_RESERVE),
            cur: ROOT,
        }
    }
}

/// One row of the hot-function report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HotFn {
    /// The graft the function belongs to.
    pub graft: String,
    /// Entry pc of the function (0 = the graft's entry function).
    pub entry: u32,
    /// Self cycles, excluding SFI.
    pub self_cycles: u64,
    /// Self SFI cycles.
    pub sfi_cycles: u64,
    /// Times the function was entered.
    pub calls: u64,
}

// ---------------------------------------------------------------------------
// The plane.
// ---------------------------------------------------------------------------

/// The shared profiling plane handle (see module docs).
///
/// Create once over a metrics plane (it comes wrapped in `Rc`) and
/// attach to a kernel's [`crate::obs::Observer`] with
/// `Kernel::attach_profile_plane`, which also attaches that metrics
/// plane if none is attached yet.
#[derive(Debug)]
pub struct ProfilePlane {
    metrics: Rc<MetricsPlane>,
    /// Indexed by metrics tag; `None` for grafts not installed while
    /// this plane was attached.
    grafts: RefCell<Vec<Option<GraftProf>>>,
    spans: RefCell<Vec<Span>>,
    span_cap: usize,
    spans_dropped: Cell<u64>,
}

impl ProfilePlane {
    /// Creates a view over `metrics` with default capacities, stamped
    /// by the metrics plane's clock.
    pub fn new(metrics: &Rc<MetricsPlane>) -> Rc<ProfilePlane> {
        ProfilePlane::with_capacity(metrics, 32, DEFAULT_SPAN_CAP)
    }

    /// Creates a view over `metrics` with room for `grafts` profiled
    /// grafts and `spans` recorded spans. The span buffer never grows:
    /// overflow is dropped and counted ([`Self::spans_dropped`]).
    pub fn with_capacity(
        metrics: &Rc<MetricsPlane>,
        grafts: usize,
        spans: usize,
    ) -> Rc<ProfilePlane> {
        Rc::new(ProfilePlane {
            metrics: Rc::clone(metrics),
            grafts: RefCell::new(Vec::with_capacity(grafts)),
            spans: RefCell::new(Vec::with_capacity(spans)),
            span_cap: spans,
            spans_dropped: Cell::new(0),
        })
    }

    /// The metrics plane this profile is a view over: graft names,
    /// tags and the per-component attribution live there.
    pub fn metrics(&self) -> &Rc<MetricsPlane> {
        &self.metrics
    }

    /// Profiles graft `tag` and sizes its per-PC arrays for a program
    /// of `len` instructions (install time; the arrays only ever grow,
    /// so re-installs of a longer program under the same name stay in
    /// bounds).
    pub fn register_program(&self, tag: MetricTag, len: usize) {
        let mut grafts = self.grafts.borrow_mut();
        let i = tag.0 as usize;
        if grafts.len() <= i {
            grafts.resize_with(i + 1, || None);
        }
        let g = grafts[i].get_or_insert_with(GraftProf::new);
        if len > g.prog_len {
            g.prog_len = len;
            g.pc_cycles.resize(len, 0);
            g.pc_sfi.resize(len, 0);
            g.pc_hits.resize(len, 0);
        }
    }

    // -- hot-path recording -------------------------------------------------

    /// Bills one retired instruction: `cost` cycles of component `c`
    /// (the VM only bills [`Component::GraftFn`] and
    /// [`Component::Sfi`]) at program counter `pc` of graft `tag`.
    /// Updates the per-PC arrays and the current call-tree node; the
    /// component attribution is the metrics plane's. Zero-allocation.
    pub fn record_pc(&self, tag: MetricTag, pc: usize, c: Component, cost: Cycles) {
        let mut grafts = self.grafts.borrow_mut();
        let Some(Some(g)) = grafts.get_mut(tag.0 as usize) else { return };
        g.instrs += 1;
        let sfi = c == Component::Sfi;
        if pc < g.prog_len {
            g.pc_cycles[pc] += cost.get();
            g.pc_hits[pc] += 1;
            if sfi {
                g.pc_sfi[pc] += cost.get();
            }
        }
        let node = &mut g.nodes[g.cur as usize];
        if sfi {
            node.sfi += cost.get();
        } else {
            node.cycles += cost.get();
        }
    }

    /// Descends into the function at `entry` (a `calll` retired by the
    /// VM). Allocates only on the first sight of a (caller, callee)
    /// edge.
    pub fn enter_fn(&self, tag: MetricTag, entry: u32) {
        let mut grafts = self.grafts.borrow_mut();
        let Some(Some(g)) = grafts.get_mut(tag.0 as usize) else { return };
        let cur = g.cur;
        let next = match g.edges.get(&(cur, entry)) {
            Some(n) => *n,
            None => {
                let n = g.nodes.len() as u32;
                g.nodes.push(Node { parent: cur, entry, cycles: 0, sfi: 0, enters: 0 });
                g.edges.insert((cur, entry), n);
                n
            }
        };
        g.nodes[next as usize].enters += 1;
        g.stack.push(cur);
        g.cur = next;
    }

    /// Returns from the current function (a `ret` retired by the VM).
    pub fn exit_fn(&self, tag: MetricTag) {
        let mut grafts = self.grafts.borrow_mut();
        let Some(Some(g)) = grafts.get_mut(tag.0 as usize) else { return };
        g.cur = g.stack.pop().unwrap_or(ROOT);
    }

    /// Rewinds `tag`'s call stack to the root: a VM reset or a new
    /// invocation starts at pc 0 with an empty call stack.
    pub fn reset_stack(&self, tag: MetricTag) {
        let mut grafts = self.grafts.borrow_mut();
        let Some(Some(g)) = grafts.get_mut(tag.0 as usize) else { return };
        g.stack.clear();
        g.cur = ROOT;
    }

    /// Records the span of the metrics plane's innermost open
    /// invocation, which is about to close. Zero-allocation (the span
    /// buffer is pre-sized).
    ///
    /// # Panics
    ///
    /// Panics if no invocation bracket is open.
    pub fn end_invocation(&self, committed: bool) {
        let (tag, start) =
            self.metrics.current_invocation().expect("end_invocation without begin_invocation");
        let now = self.metrics.clock().now();
        self.push_span(Span {
            kind: SpanKind::Invocation,
            start,
            dur: now.saturating_sub(start),
            graft: Some((tag, !committed)),
        });
    }

    /// Records a child span of `kind` that just finished and lasted
    /// `dur` (subsystems charge the clock at the site, so the span
    /// covers `[now - dur, now]`). Zero-allocation.
    pub fn mark(&self, kind: SpanKind, dur: Cycles) {
        let now = self.metrics.clock().now();
        self.push_span(Span { kind, start: now.saturating_sub(dur), dur, graft: None });
    }

    /// Records a child span of `kind` that started at `t0` and just
    /// finished. Zero-allocation.
    pub fn mark_since(&self, kind: SpanKind, t0: Cycles) {
        let now = self.metrics.clock().now();
        self.push_span(Span { kind, start: t0, dur: now.saturating_sub(t0), graft: None });
    }

    fn push_span(&self, span: Span) {
        let mut spans = self.spans.borrow_mut();
        if spans.len() < self.span_cap {
            spans.push(span);
        } else {
            self.spans_dropped.set(self.spans_dropped.get() + 1);
        }
    }

    // -- introspection ------------------------------------------------------

    /// Instructions retired by `tag`.
    pub fn instrs_of(&self, tag: MetricTag) -> u64 {
        match self.grafts.borrow().get(tag.0 as usize) {
            Some(Some(g)) => g.instrs,
            _ => 0,
        }
    }

    /// Sums of `tag`'s per-PC arrays: (graft-fn cycles, SFI cycles,
    /// retirements). The component split reconciles exactly with the
    /// metrics plane's [`Component::GraftFn`] / [`Component::Sfi`]
    /// attribution.
    pub fn pc_totals(&self, tag: MetricTag) -> (Cycles, Cycles, u64) {
        let grafts = self.grafts.borrow();
        let Some(Some(g)) = grafts.get(tag.0 as usize) else {
            return (Cycles(0), Cycles(0), 0);
        };
        let total: u64 = g.pc_cycles.iter().sum();
        let sfi: u64 = g.pc_sfi.iter().sum();
        let hits: u64 = g.pc_hits.iter().sum();
        (Cycles(total - sfi), Cycles(sfi), hits)
    }

    /// `tag`'s per-PC cycles aggregated into buckets of `bucket` pcs:
    /// `(first_pc, total_cycles, sfi_cycles, hits)` per non-empty
    /// bucket.
    pub fn pc_buckets(&self, tag: MetricTag, bucket: usize) -> Vec<(usize, u64, u64, u64)> {
        let bucket = bucket.max(1);
        let grafts = self.grafts.borrow();
        let Some(Some(g)) = grafts.get(tag.0 as usize) else { return Vec::new() };
        let mut out = Vec::new();
        let mut pc = 0;
        while pc < g.prog_len {
            let end = (pc + bucket).min(g.prog_len);
            let cycles: u64 = g.pc_cycles[pc..end].iter().sum();
            let sfi: u64 = g.pc_sfi[pc..end].iter().sum();
            let hits: u64 = g.pc_hits[pc..end].iter().sum();
            if hits > 0 {
                out.push((pc, cycles, sfi, hits));
            }
            pc = end;
        }
        out
    }

    /// Spans dropped because the fixed span buffer was full.
    pub fn spans_dropped(&self) -> u64 {
        self.spans_dropped.get()
    }

    /// Spans currently recorded.
    pub fn span_count(&self) -> usize {
        self.spans.borrow().len()
    }

    /// The top-`n` functions across all grafts by self cycles
    /// (SFI included in the ranking key, reported separately).
    pub fn top_functions(&self, n: usize) -> Vec<HotFn> {
        let grafts = self.grafts.borrow();
        // (graft, entry) → merged totals across call-tree nodes.
        let mut merged: Vec<HotFn> = Vec::new();
        for (tag, g) in profiled(&grafts) {
            let mut per_fn: HashMap<u32, (u64, u64, u64)> = HashMap::new();
            for node in &g.nodes {
                let e = per_fn.entry(node.entry).or_insert((0, 0, 0));
                e.0 += node.cycles;
                e.1 += node.sfi;
                e.2 += node.enters;
            }
            for (entry, (cycles, sfi, mut calls)) in per_fn {
                if cycles == 0 && sfi == 0 {
                    continue;
                }
                if entry == 0 {
                    calls = self.metrics.attribution(tag).map_or(0, |a| a.invocations);
                }
                merged.push(HotFn {
                    graft: self.metrics.name_of(tag),
                    entry,
                    self_cycles: cycles,
                    sfi_cycles: sfi,
                    calls,
                });
            }
        }
        merged.sort_by(|a, b| {
            (b.self_cycles + b.sfi_cycles, &a.graft, a.entry).cmp(&(
                a.self_cycles + a.sfi_cycles,
                &b.graft,
                b.entry,
            ))
        });
        merged.truncate(n);
        merged
    }

    // -- rendering (all off the hot path) -----------------------------------

    /// Folded-stack output in the `flamegraph.pl` input format: one
    /// `frame;frame;frame cycles` line per call path (plus `[sfi]` leaf
    /// frames and `[component]` frames for the host-side envelope), in
    /// deterministic order. Pipe through `flamegraph.pl` to get an SVG.
    pub fn folded(&self) -> String {
        let grafts = self.grafts.borrow();
        let mut out = String::new();
        for (tag, g) in profiled(&grafts) {
            let name = self.metrics.name_of(tag);
            let comps = self.metrics.attribution(tag).map_or([0; Component::COUNT], |a| a.cycles);
            // Host-side envelope components as single synthetic frames.
            for c in Component::ALL {
                if c == Component::GraftFn || c == Component::Sfi {
                    continue;
                }
                let v = comps[c as usize];
                if v > 0 {
                    let _ = writeln!(out, "{name};[{}] {v}", c.label());
                }
            }
            // The VM call tree, depth-first with children in entry-pc
            // order.
            let mut children: Vec<Vec<u32>> = vec![Vec::new(); g.nodes.len()];
            for (i, node) in g.nodes.iter().enumerate().skip(1) {
                children[node.parent as usize].push(i as u32);
            }
            for kids in &mut children {
                kids.sort_by_key(|&i| g.nodes[i as usize].entry);
            }
            let mut path = vec![format!("{name};fn@0")];
            let mut stack = vec![(ROOT, false)];
            while let Some((node, visited)) = stack.pop() {
                if visited {
                    path.pop();
                    continue;
                }
                let n = &g.nodes[node as usize];
                if node != ROOT {
                    path.push(format!("fn@{}", n.entry));
                }
                let prefix = path.join(";");
                if n.cycles > 0 {
                    let _ = writeln!(out, "{prefix} {}", n.cycles);
                }
                if n.sfi > 0 {
                    let _ = writeln!(out, "{prefix};[sfi] {}", n.sfi);
                }
                stack.push((node, true));
                for &kid in children[node as usize].iter().rev() {
                    stack.push((kid, false));
                }
            }
        }
        let kernel = self.metrics.kernel_attribution();
        for c in Component::ALL {
            let v = kernel[c as usize];
            if v > 0 {
                let _ = writeln!(out, "kernel;[{}] {v}", c.label());
            }
        }
        out
    }

    /// The `vino_top`-style hot-function table for the top `n`
    /// functions by self cycles.
    pub fn render_top(&self, n: usize) -> String {
        let mut out =
            String::from("graft              function     self-cycles   sfi-cycles      calls\n");
        for f in self.top_functions(n) {
            let _ = writeln!(
                out,
                "{:<18} {:<10} {:>13} {:>12} {:>10}",
                f.graft,
                format!("fn@{}", f.entry),
                f.self_cycles,
                f.sfi_cycles,
                f.calls,
            );
        }
        out
    }

    /// The invocation span trees as Chrome `chrome://tracing` JSON
    /// (load via `chrome://tracing` or <https://ui.perfetto.dev>).
    /// Complete (`ph:"X"`) events on one track; nesting is implied by
    /// containment. Timestamps and durations are microseconds of
    /// virtual time. Deterministic: spans render in record order.
    pub fn chrome_trace(&self) -> String {
        let spans = self.spans.borrow();
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let name = match s.graft {
                Some((tag, aborted)) => {
                    let graft = self.metrics.name_of(tag);
                    if aborted {
                        format!("invoke:{graft}!abort")
                    } else {
                        format!("invoke:{graft}")
                    }
                }
                None => s.kind.label().to_string(),
            };
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":1}}",
                escape_json(&name),
                s.kind.category(),
                s.start.as_us(),
                s.dur.as_us(),
            );
        }
        let _ = write!(
            out,
            "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"spansDropped\":{}}}}}\n",
            self.spans_dropped.get(),
        );
        out
    }

    /// The canonical full snapshot frozen by the golden battery: folded
    /// stacks, the hot-function table, and the Chrome trace.
    /// Byte-identical across same-seed runs.
    pub fn snapshot(&self) -> String {
        let mut out = String::from("== folded stacks ==\n");
        out.push_str(&self.folded());
        out.push_str("== hot functions ==\n");
        out.push_str(&self.render_top(10));
        out.push_str("== chrome trace ==\n");
        out.push_str(&self.chrome_trace());
        out
    }
}

/// The profiled grafts in tag order, skipping tags the plane never
/// saw installed.
fn profiled(grafts: &[Option<GraftProf>]) -> impl Iterator<Item = (MetricTag, &GraftProf)> {
    grafts.iter().enumerate().filter_map(|(i, g)| Some((MetricTag(i as u16), g.as_ref()?)))
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;
    use crate::obs::{GraftTags, Observer, Retired};

    /// An observer with a profile attached (and, through it, its
    /// metrics plane), and graft `name` installed with room for `len`
    /// instructions.
    fn installed(name: &str, len: usize) -> (Rc<Observer>, Rc<ProfilePlane>, GraftTags) {
        let obs = Observer::new(VirtualClock::new());
        let pp = ProfilePlane::new(&MetricsPlane::new(Rc::clone(obs.clock())));
        obs.attach_profile(Rc::clone(&pp)).unwrap();
        let tags = obs.install(name, len, 0);
        (obs, pp, tags)
    }

    /// What the VM does for one retired instruction of a profiled
    /// graft: bill its PC, then flush it as a batch of one.
    fn retire(obs: &Observer, tags: &GraftTags, pc: usize, c: Component, cost: Cycles) {
        obs.profile().unwrap().record_pc(tags.metrics.unwrap(), pc, c, cost);
        let batch = match c {
            Component::Sfi => Retired { sfi: cost.get(), ..Retired::default() },
            _ => Retired { graft_fn: cost.get(), ..Retired::default() },
        };
        obs.retire(tags, batch);
    }

    #[test]
    fn per_pc_ledger_reconciles_with_components() {
        let (obs, pp, tags) = installed("g", 8);
        let t = tags.metrics.unwrap();
        obs.begin_invocation(&tags);
        retire(&obs, &tags, 0, Component::GraftFn, Cycles(10));
        retire(&obs, &tags, 1, Component::Sfi, Cycles(4));
        retire(&obs, &tags, 1, Component::Sfi, Cycles(4));
        retire(&obs, &tags, 7, Component::GraftFn, Cycles(35));
        obs.end_invocation(&tags, true, Cycles::ZERO);
        let (fn_c, sfi_c, hits) = pp.pc_totals(t);
        assert_eq!(fn_c, Cycles(45));
        assert_eq!(sfi_c, Cycles(8));
        assert_eq!(hits, 4);
        let a = pp.metrics().attribution(t).unwrap();
        assert_eq!(a.of(Component::GraftFn), fn_c);
        assert_eq!(a.of(Component::Sfi), sfi_c);
        assert_eq!(pp.instrs_of(t), 4);
    }

    #[test]
    fn call_tree_folds_by_path() {
        let (obs, pp, tags) = installed("g", 32);
        let t = tags.metrics.unwrap();
        obs.begin_invocation(&tags);
        retire(&obs, &tags, 0, Component::GraftFn, Cycles(5));
        pp.enter_fn(t, 10);
        retire(&obs, &tags, 10, Component::GraftFn, Cycles(7));
        retire(&obs, &tags, 11, Component::Sfi, Cycles(4));
        pp.enter_fn(t, 20);
        retire(&obs, &tags, 20, Component::GraftFn, Cycles(9));
        pp.exit_fn(t);
        retire(&obs, &tags, 12, Component::GraftFn, Cycles(3));
        pp.exit_fn(t);
        obs.end_invocation(&tags, true, Cycles::ZERO);
        let folded = pp.folded();
        assert!(folded.contains("g;fn@0 5\n"), "{folded}");
        assert!(folded.contains("g;fn@0;fn@10 10\n"), "{folded}");
        assert!(folded.contains("g;fn@0;fn@10;[sfi] 4\n"), "{folded}");
        assert!(folded.contains("g;fn@0;fn@10;fn@20 9\n"), "{folded}");
    }

    #[test]
    fn recursive_paths_get_distinct_nodes() {
        let (obs, pp, tags) = installed("g", 8);
        let t = tags.metrics.unwrap();
        obs.begin_invocation(&tags);
        pp.enter_fn(t, 4);
        retire(&obs, &tags, 4, Component::GraftFn, Cycles(1));
        pp.enter_fn(t, 4);
        retire(&obs, &tags, 4, Component::GraftFn, Cycles(1));
        pp.exit_fn(t);
        pp.exit_fn(t);
        obs.end_invocation(&tags, true, Cycles::ZERO);
        let folded = pp.folded();
        assert!(folded.contains("g;fn@0;fn@4 1\n"), "{folded}");
        assert!(folded.contains("g;fn@0;fn@4;fn@4 1\n"), "{folded}");
    }

    #[test]
    fn renderers_skip_grafts_the_profile_never_saw_installed() {
        let obs = Observer::new(VirtualClock::new());
        let mp = MetricsPlane::new(Rc::clone(obs.clock()));
        obs.attach_metrics(Rc::clone(&mp)).unwrap();
        let early = obs.install("early", 4, 0);
        let pp = ProfilePlane::new(&mp);
        obs.attach_profile(Rc::clone(&pp)).unwrap();
        let late = obs.install("late", 4, 0);
        for tags in [early, late] {
            obs.charge(Component::Indirection, Cycles(120));
            obs.begin_invocation(&tags);
            retire(&obs, &tags, 0, Component::GraftFn, Cycles(10));
            obs.end_invocation(&tags, true, Cycles::ZERO);
        }
        assert_eq!(mp.attribution(early.metrics.unwrap()).unwrap().invocations, 1);
        let snap = pp.snapshot();
        assert!(!snap.contains("early"), "{snap}");
        assert!(snap.contains("late;[indirection] 120\n"), "{snap}");
        assert_eq!(pp.span_count(), 1, "one invocation span, for `late`");
    }

    #[test]
    fn spans_record_and_cap() {
        let obs = Observer::new(VirtualClock::new());
        let pp = ProfilePlane::with_capacity(&MetricsPlane::new(Rc::clone(obs.clock())), 4, 2);
        obs.attach_profile(Rc::clone(&pp)).unwrap();
        let tags = obs.install("g", 0, 0);
        obs.begin_invocation(&tags);
        obs.clock().charge(Cycles::from_us(36));
        pp.mark(SpanKind::TxnBegin, Cycles::from_us(36));
        obs.clock().charge(Cycles::from_us(30));
        obs.end_invocation(&tags, true, Cycles::ZERO);
        assert_eq!(pp.span_count(), 2);
        assert_eq!(pp.spans_dropped(), 0);
        pp.mark(SpanKind::RmGrant, Cycles(0));
        assert_eq!(pp.span_count(), 2, "buffer is fixed-capacity");
        assert_eq!(pp.spans_dropped(), 1);
        let json = pp.chrome_trace();
        assert!(json.contains("\"name\":\"txn-begin\""), "{json}");
        assert!(json.contains("\"name\":\"invoke:g\""), "{json}");
        assert!(json.contains("\"spansDropped\":1"), "{json}");
    }

    #[test]
    fn aborted_invocations_are_named() {
        let (obs, pp, tags) = installed("bad", 0);
        obs.begin_invocation(&tags);
        obs.end_invocation(&tags, false, Cycles::ZERO);
        assert!(pp.chrome_trace().contains("invoke:bad!abort"));
    }

    #[test]
    fn top_functions_rank_by_cycles() {
        let (obs, pp, tags) = installed("g", 32);
        let t = tags.metrics.unwrap();
        obs.begin_invocation(&tags);
        retire(&obs, &tags, 0, Component::GraftFn, Cycles(5));
        pp.enter_fn(t, 8);
        retire(&obs, &tags, 8, Component::GraftFn, Cycles(100));
        retire(&obs, &tags, 9, Component::Sfi, Cycles(4));
        pp.exit_fn(t);
        obs.end_invocation(&tags, true, Cycles::ZERO);
        let top = pp.top_functions(10);
        assert_eq!(top[0].entry, 8);
        assert_eq!(top[0].self_cycles, 100);
        assert_eq!(top[0].sfi_cycles, 4);
        assert_eq!(top[0].calls, 1);
        assert_eq!(top[1].entry, 0);
        assert_eq!(top[1].calls, 1, "root calls = invocations");
    }

    #[test]
    fn snapshot_is_deterministic() {
        let (obs, pp, tags) = installed("g", 4);
        obs.begin_invocation(&tags);
        retire(&obs, &tags, 0, Component::GraftFn, Cycles(10));
        obs.clock().charge(Cycles(100));
        obs.end_invocation(&tags, true, Cycles::ZERO);
        assert_eq!(pp.snapshot(), pp.snapshot());
    }
}
