//! The bracketed overhead-attribution ledger shared by the metrics and
//! profile planes.
//!
//! Both planes decompose every graft invocation's cycle charge into the
//! paper's named [`Component`]s with the same bracket semantics: a
//! fixed-depth stack of open invocations, charges landing on the
//! innermost one, a dispatch charge made outside any bracket held
//! pending for the invocation it dispatches, and kernel-side work kept
//! in a separate ledger. Keeping that logic in one type is what makes
//! the two planes' attributions agree by construction.

use std::cell::{Cell, RefCell};

use crate::clock::Cycles;
use crate::metrics::{Attribution, Component};

/// Maximum concurrently bracketed invocations (graft-to-graft nesting).
/// The engine bounds nesting well below this (`MAX_NEST_DEPTH`).
const MAX_NEST: usize = 16;

/// One open invocation bracket on the fixed-depth stack.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Frame {
    /// The bracketed graft's interned tag.
    pub tag: u16,
    /// Clock reading when the bracket opened.
    pub start: Cycles,
    comps: [u64; Component::COUNT],
}

const IDLE_FRAME: Frame = Frame { tag: u16::MAX, start: Cycles(0), comps: [0; Component::COUNT] };

/// A snapshot of a [`Ledger`] at a quiesced instant (no open bracket).
#[derive(Debug, Clone)]
pub(crate) struct LedgerState {
    pending_indirection: u64,
    kernel: [u64; Component::COUNT],
    grafts: Vec<Attribution>,
}

/// Per-graft attribution with invocation brackets; see the module docs.
/// Zero allocations on every bracket and charge; only
/// [`add_graft`](Self::add_graft) (install time) may grow the table.
#[derive(Debug)]
pub(crate) struct Ledger {
    frames: RefCell<[Frame; MAX_NEST]>,
    depth: Cell<usize>,
    /// Dispatch charges awaiting the invocation they dispatch.
    pending_indirection: Cell<u64>,
    /// Charges recorded outside any invocation (kernel-side work).
    kernel: Cell<[u64; Component::COUNT]>,
    /// Per-tag attribution, indexed by interned tag.
    grafts: RefCell<Vec<Attribution>>,
}

impl Ledger {
    /// An empty ledger with room for `grafts` tags.
    pub fn with_capacity(grafts: usize) -> Ledger {
        Ledger {
            frames: RefCell::new([IDLE_FRAME; MAX_NEST]),
            depth: Cell::new(0),
            pending_indirection: Cell::new(0),
            kernel: Cell::new([0; Component::COUNT]),
            grafts: RefCell::new(Vec::with_capacity(grafts)),
        }
    }

    /// Appends an empty slot for the next interned tag.
    pub fn add_graft(&self) {
        self.grafts
            .borrow_mut()
            .push(Attribution { cycles: [0; Component::COUNT], invocations: 0 });
    }

    /// Attributes `cost` to component `c` of the innermost open
    /// bracket. Outside any bracket, [`Component::Indirection`] is held
    /// pending for the next [`begin`](Self::begin); every other
    /// component lands in the kernel ledger.
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

    /// Opens a bracket for `tag` at `now`, claiming any pending
    /// dispatch charge and counting the invocation.
    pub fn begin(&self, tag: u16, now: Cycles) {
        let d = self.depth.get();
        assert!(d < MAX_NEST, "invocation nest deeper than MAX_NEST");
        let mut frame = Frame { tag, start: now, comps: [0; Component::COUNT] };
        frame.comps[Component::Indirection as usize] += self.pending_indirection.replace(0);
        self.frames.borrow_mut()[d] = frame;
        self.depth.set(d + 1);
        if let Some(g) = self.grafts.borrow_mut().get_mut(tag as usize) {
            g.invocations += 1;
        }
    }

    /// Closes the innermost bracket, merges its attribution into the
    /// tag's slot, and returns the closed frame.
    pub fn end(&self) -> Frame {
        let d = self.depth.get();
        assert!(d > 0, "end_invocation without begin_invocation");
        self.depth.set(d - 1);
        let frame = self.frames.borrow()[d - 1];
        if let Some(g) = self.grafts.borrow_mut().get_mut(frame.tag as usize) {
            for (total, add) in g.cycles.iter_mut().zip(frame.comps.iter()) {
                *total += add;
            }
        }
        frame
    }

    /// Flushes an unclaimed dispatch charge to the kernel ledger (the
    /// dispatch led to a dead graft, so no bracket will claim it).
    pub fn flush_pending(&self) {
        let pending = self.pending_indirection.replace(0);
        if pending > 0 {
            self.add_kernel(Component::Indirection, pending);
        }
    }

    /// The innermost open bracket's tag.
    pub fn current_tag(&self) -> Option<u16> {
        let d = self.depth.get();
        (d > 0).then(|| self.frames.borrow()[d - 1].tag)
    }

    /// The attribution for `tag`, if interned.
    pub fn attribution(&self, tag: u16) -> Option<Attribution> {
        self.grafts.borrow().get(tag as usize).copied()
    }

    /// Cycles attributed to kernel-side work outside any bracket.
    pub fn kernel(&self) -> [u64; Component::COUNT] {
        self.kernel.get()
    }

    /// Snapshots the ledger.
    ///
    /// # Panics
    ///
    /// Panics if a bracket is open — snapshots are taken at quiesced
    /// instants only.
    pub fn export(&self) -> LedgerState {
        assert_eq!(self.depth.get(), 0, "cannot checkpoint mid-invocation");
        LedgerState {
            pending_indirection: self.pending_indirection.get(),
            kernel: self.kernel.get(),
            grafts: self.grafts.borrow().clone(),
        }
    }

    /// Replants an [`export`](Self::export) snapshot, closing any open
    /// bracket.
    pub fn restore(&self, st: &LedgerState) {
        self.pending_indirection.set(st.pending_indirection);
        self.kernel.set(st.kernel);
        *self.grafts.borrow_mut() = st.grafts.clone();
        self.depth.set(0);
        *self.frames.borrow_mut() = [IDLE_FRAME; MAX_NEST];
    }
}
