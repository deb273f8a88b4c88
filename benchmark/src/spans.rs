//! The benchmark's own span recorder.
//!
//! Every public call the benchmark makes into a layer can be wrapped in
//! a span that records its name, host start and end, virtual start and
//! end, and parent. In a traced episode the recorder also reads the
//! kernel's attribution ledger (the metrics plane's `Component` rows)
//! before and after each call, so a call's virtual delta splits into
//! ledger components plus an "own" remainder. Spans are kept in memory
//! and written out once, when the run ends.
//!
//! An untraced episode records nothing: [`span`] with `None` is a plain
//! call.

use std::collections::BTreeMap;
use std::io::Write;
use std::rc::Rc;
use std::time::Instant;

use vino_sim::metrics::{Component, Counter, MetricTag, MetricsPlane};
use vino_sim::VirtualClock;

/// Counters the report reads as deltas over the timed phase.
pub const COUNTERS: [Counter; 5] = [
    Counter::VmInstrs,
    Counter::SfiClamps,
    Counter::SfiCallchecks,
    Counter::GraftInvocations,
    Counter::GraftAborts,
];

/// Number of attribution components.
pub const NCOMP: usize = Component::COUNT;

/// Metric-name stem of each attribution component, in `Component::ALL`
/// order.
pub const COMP_ROWS: [&str; NCOMP] = [
    "core.indirection",
    "txn.begin",
    "txn.commit",
    "txn.lock",
    "misfit.sfi",
    "vm.graft_fn",
    "core.result_check",
    "txn.undo",
    "txn.abort",
];

/// One recorded span. Times are nanoseconds since the recorder started
/// (host) and cycles (virtual).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Index into the recorder's name table.
    pub name: u16,
    /// Index of the parent span, or `u32::MAX` for a root.
    pub parent: u32,
    /// Host start, ns.
    pub h0: u64,
    /// Host duration, ns.
    pub hd: u32,
    /// Virtual start, cycles.
    pub v0: u64,
    /// Virtual end, cycles.
    pub v1: u64,
    /// Index into the component table, or `u32::MAX` when the call
    /// moved no ledger row.
    pub comps: u32,
}

/// The in-memory span recorder of one traced episode.
pub struct Tracer {
    t0: Instant,
    clock: Rc<VirtualClock>,
    ledger: Vec<Rc<MetricsPlane>>,
    names: Vec<&'static str>,
    spans: Vec<Span>,
    comps: Vec<[u64; NCOMP]>,
    root: u32,
    counters0: [u64; COUNTERS.len()],
}

impl Tracer {
    /// A recorder stamping virtual times from `clock` and splitting
    /// virtual deltas over the attribution ledgers of `ledger` (one
    /// plane per kernel; empty when no plane is attached).
    pub fn new(clock: Rc<VirtualClock>, ledger: Vec<Rc<MetricsPlane>>) -> Tracer {
        Tracer {
            t0: Instant::now(),
            clock,
            ledger,
            names: Vec::new(),
            spans: Vec::with_capacity(1 << 16),
            comps: Vec::new(),
            root: u32::MAX,
            counters0: [0; COUNTERS.len()],
        }
    }

    fn name_id(&mut self, name: &'static str) -> u16 {
        match self.names.iter().position(|n| *n == name) {
            Some(i) => i as u16,
            None => {
                self.names.push(name);
                (self.names.len() - 1) as u16
            }
        }
    }

    fn host_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// The ledger's running totals, summed over every graft slot and the
    /// kernel-side row of every attached plane.
    pub fn ledger_totals(&self) -> [u64; NCOMP] {
        ledger_totals(&self.ledger)
    }

    fn counters_now(&self) -> [u64; COUNTERS.len()] {
        let mut v = [0; COUNTERS.len()];
        for (i, c) in COUNTERS.iter().enumerate() {
            v[i] = self.ledger.iter().map(|mp| mp.get(*c)).sum();
        }
        v
    }

    /// How far counter `COUNTERS[i]` moved since the root span opened.
    pub fn counter_delta(&self, i: usize) -> u64 {
        self.counters_now()[i] - self.counters0[i]
    }

    /// Opens the episode's root span; later spans become its children.
    pub fn open_root(&mut self, name: &'static str) {
        self.counters0 = self.counters_now();
        let id = self.name_id(name);
        let now = self.host_ns();
        let v = self.clock.now().get();
        self.spans.push(Span {
            name: id,
            parent: u32::MAX,
            h0: now,
            hd: 0,
            v0: v,
            v1: v,
            comps: u32::MAX,
        });
        self.root = (self.spans.len() - 1) as u32;
    }

    /// Closes the root span.
    pub fn close_root(&mut self) {
        let now = self.host_ns();
        let v = self.clock.now().get();
        let r = &mut self.spans[self.root as usize];
        r.hd = u32::try_from(now - r.h0).unwrap_or(u32::MAX);
        r.v1 = v;
        self.root = u32::MAX;
    }

    /// Runs `f` as one span named `name`.
    pub fn call<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.name_id(name);
        let before = self.ledger_totals();
        let v0 = self.clock.now().get();
        let h0 = self.host_ns();
        let r = f();
        let h1 = self.host_ns();
        let v1 = self.clock.now().get();
        let after = self.ledger_totals();
        let mut delta = [0u64; NCOMP];
        let mut moved = false;
        for i in 0..NCOMP {
            delta[i] = after[i] - before[i];
            moved |= delta[i] != 0;
        }
        let comps = if moved {
            self.comps.push(delta);
            (self.comps.len() - 1) as u32
        } else {
            u32::MAX
        };
        let hd = u32::try_from(h1 - h0).unwrap_or(u32::MAX);
        self.spans.push(Span { name: id, parent: self.root, h0, hd, v0, v1, comps });
        r
    }

    /// Records a virtual interval the benchmark itself spent outside
    /// any layer (generator idle time, application compute) as a span
    /// with no host duration.
    pub fn mark(&mut self, name: &'static str, v0: u64, v1: u64) {
        let id = self.name_id(name);
        let now = self.host_ns();
        self.spans.push(Span {
            name: id,
            parent: self.root,
            h0: now,
            hd: 0,
            v0,
            v1,
            comps: u32::MAX,
        });
    }

    /// Per-name aggregates over every non-root span.
    pub fn aggregate(&self) -> BTreeMap<&'static str, Agg> {
        let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
        for s in &self.spans {
            if s.parent == u32::MAX {
                continue;
            }
            let a = out.entry(self.names[s.name as usize]).or_default();
            a.calls += 1;
            a.host_ns.push(s.hd as u64);
            a.vcycles += s.v1 - s.v0;
            if s.comps != u32::MAX {
                for (t, c) in a.comps.iter_mut().zip(self.comps[s.comps as usize].iter()) {
                    *t += c;
                }
            }
        }
        out
    }

    /// Checks the virtual books of the episode between `v_start` and
    /// `v_end`: every span's ledger components fit inside its own
    /// virtual delta, the spans tile the interval exactly, and the
    /// components the spans saw add up to the ledger's own movement
    /// (`ledger_start` to now). Returns the first divergence found.
    pub fn reconcile(
        &self,
        v_start: u64,
        v_end: u64,
        ledger_start: [u64; NCOMP],
    ) -> Result<(), String> {
        let mut covered = 0u64;
        let mut seen = [0u64; NCOMP];
        for s in &self.spans {
            if s.parent == u32::MAX {
                continue;
            }
            let delta = s.v1 - s.v0;
            covered += delta;
            if s.comps != u32::MAX {
                let c = &self.comps[s.comps as usize];
                let sum: u64 = c.iter().sum();
                if sum > delta {
                    return Err(format!(
                        "span {} at cycle {}: ledger components {} exceed its virtual delta {}",
                        self.names[s.name as usize], s.v0, sum, delta
                    ));
                }
                for (t, x) in seen.iter_mut().zip(c.iter()) {
                    *t += x;
                }
            }
        }
        if covered != v_end - v_start {
            return Err(format!(
                "spans cover {covered} cycles but the episode elapsed {} cycles",
                v_end - v_start
            ));
        }
        let now = self.ledger_totals();
        for i in 0..NCOMP {
            let moved = now[i] - ledger_start[i];
            if moved != seen[i] {
                return Err(format!(
                    "ledger row {} moved {moved} cycles but the spans saw {}",
                    COMP_ROWS[i], seen[i]
                ));
            }
        }
        Ok(())
    }

    /// Writes every span as one tab-separated line: name, parent index,
    /// host start and end (ns), virtual start and end (cycles), then
    /// the nine ledger components.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(w, "idx\tname\tparent\thost_start_ns\thost_end_ns\tv_start\tv_end")?;
        for c in COMP_ROWS {
            write!(w, "\t{c}")?;
        }
        writeln!(w)?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == u32::MAX { -1 } else { s.parent as i64 };
            write!(
                w,
                "{i}\t{}\t{parent}\t{}\t{}\t{}\t{}",
                self.names[s.name as usize],
                s.h0,
                s.h0 + s.hd as u64,
                s.v0,
                s.v1
            )?;
            let c = if s.comps == u32::MAX { [0; NCOMP] } else { self.comps[s.comps as usize] };
            for x in c {
                write!(w, "\t{x}")?;
            }
            writeln!(w)?;
        }
        w.flush()
    }
}

/// Runs `f` inside a span when `tr` records, or as a plain call.
pub fn span<R>(tr: &mut Option<Tracer>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match tr {
        Some(t) => t.call(name, f),
        None => f(),
    }
}

/// The attribution ledgers' running totals over `planes`.
pub fn ledger_totals(planes: &[Rc<MetricsPlane>]) -> [u64; NCOMP] {
    let mut t = [0u64; NCOMP];
    for mp in planes {
        for (i, c) in mp.kernel_attribution().iter().enumerate() {
            t[i] += c;
        }
        // Graft tags are interned densely from 0.
        let mut tag = 0u16;
        while let Some(a) = mp.attribution(MetricTag(tag)) {
            for (i, c) in a.cycles.iter().enumerate() {
                t[i] += c;
            }
            tag += 1;
        }
    }
    t
}

/// Aggregate of every span of one name.
#[derive(Debug, Default, Clone)]
pub struct Agg {
    /// Spans recorded.
    pub calls: u64,
    /// Host duration of each span, ns.
    pub host_ns: Vec<u64>,
    /// Summed virtual delta, cycles.
    pub vcycles: u64,
    /// Summed ledger components, cycles.
    pub comps: [u64; NCOMP],
}

impl Agg {
    /// Mean host ns per call.
    pub fn host_mean_ns(&self) -> f64 {
        if self.calls == 0 {
            return 0.0;
        }
        self.host_ns.iter().sum::<u64>() as f64 / self.calls as f64
    }

    /// Virtual cycles of the span not attributed to any ledger row.
    pub fn own_cycles(&self) -> u64 {
        self.vcycles - self.comps.iter().sum::<u64>()
    }
}
