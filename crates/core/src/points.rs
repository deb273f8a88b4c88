//! The graft namespace and graft points.
//!
//! §3.4: "To install a graft, an application must first obtain a handle
//! for the graft point. This is accomplished by looking up the graft
//! point in a kernel-maintained graft namespace. The name is composed of
//! the object to be grafted and the name of the function to be
//! replaced."
//!
//! §3.5: event graft points *add* handlers rather than replace a
//! function, "called in addition to any other functions added to the
//! graft point. We provide an interface for applications to specify the
//! order in which grafted functions are called."

use std::collections::HashMap;

use crate::adapters::SharedGraft;
use crate::engine::InvokeOutcome;

/// The two extension models (§3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PointKind {
    /// Replace a member function on a kernel object (Figure 1).
    Function {
        /// Restricted points are global policies installable only by
        /// privileged users (§2.3, Rule 5).
        restricted: bool,
    },
    /// Add a handler for a kernel event (Figure 2).
    Event,
}

/// The kernel-maintained graft namespace.
#[derive(Debug, Default)]
pub struct GraftNamespace {
    points: HashMap<String, PointKind>,
}

impl GraftNamespace {
    /// An empty namespace.
    pub fn new() -> GraftNamespace {
        GraftNamespace::default()
    }

    /// Declares a graft point. Class designers decide which functions
    /// are graftable (§3.4); undeclared names simply do not resolve.
    pub fn define(&mut self, name: impl Into<String>, kind: PointKind) {
        self.points.insert(name.into(), kind);
    }

    /// Resolves a graft-point name to its handle.
    pub fn lookup(&self, name: &str) -> Option<PointKind> {
        self.points.get(name).copied()
    }

    /// Lists all declared points, sorted by name.
    pub fn list(&self) -> Vec<(&str, PointKind)> {
        let mut v: Vec<_> = self.points.iter().map(|(n, k)| (n.as_str(), *k)).collect();
        v.sort_by_key(|(n, _)| *n);
        v
    }
}

/// One handler registered on an event point.
#[derive(Debug)]
pub struct EventHandler {
    /// Application-specified dispatch order (lower runs first).
    pub order: i32,
    /// The installed graft.
    pub graft: SharedGraft,
}

/// An event graft point: an ordered list of added handlers.
#[derive(Debug, Default)]
pub struct EventPoint {
    handlers: Vec<EventHandler>,
}

/// What one handler did with one event.
#[derive(Debug)]
pub struct HandlerReport {
    /// The handler graft's name.
    pub graft: String,
    /// Its invocation outcome.
    pub outcome: InvokeOutcome,
}

impl EventPoint {
    /// An empty event point.
    pub fn new() -> EventPoint {
        EventPoint::default()
    }

    /// Adds a handler with an explicit order (§3.5's ordering API).
    pub fn add_handler(&mut self, graft: SharedGraft, order: i32) {
        self.handlers.push(EventHandler { order, graft });
        self.handlers.sort_by_key(|h| h.order);
    }

    /// Number of live handlers.
    pub fn handler_count(&self) -> usize {
        self.handlers.len()
    }

    /// Removes handlers whose grafts have been forcibly unloaded.
    pub fn reap_dead(&mut self) -> usize {
        let before = self.handlers.len();
        self.handlers.retain(|h| !h.graft.borrow().is_dead());
        before - self.handlers.len()
    }

    /// Visits every handler graft (e.g. to marshal a payload into each
    /// handler's shared buffer before dispatch).
    pub fn for_each_handler(&self, mut f: impl FnMut(&SharedGraft)) {
        for h in &self.handlers {
            f(&h.graft);
        }
    }

    /// Dispatches one event to every handler, in order. Each handler
    /// runs in its own transaction (the wrapper provides it); a handler
    /// abort does not stop later handlers (Rule 9).
    pub fn dispatch(&mut self, args: [u64; 4]) -> Vec<HandlerReport> {
        let mut reports = Vec::with_capacity(self.handlers.len());
        for h in &self.handlers {
            let outcome = h.graft.borrow_mut().invoke(args);
            reports.push(HandlerReport { graft: h.graft.borrow().name.clone(), outcome });
        }
        reports
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::rc::Rc;
    use vino_sim::{ThreadId, VirtualClock};
    use vino_vm::asm::assemble;
    use vino_vm::mem::{AddressSpace, Protection};

    use crate::adapters::share;
    use crate::engine::{GraftEngine, GraftInstance};
    use crate::hostfn;

    #[test]
    fn namespace_define_lookup_list() {
        let mut ns = GraftNamespace::new();
        ns.define("open_file/compute-ra", PointKind::Function { restricted: false });
        ns.define("kernel/global-scheduler", PointKind::Function { restricted: true });
        ns.define("tcp/80", PointKind::Event);
        assert_eq!(
            ns.lookup("open_file/compute-ra"),
            Some(PointKind::Function { restricted: false })
        );
        assert_eq!(ns.lookup("nope"), None);
        let names: Vec<&str> = ns.list().iter().map(|(n, _)| *n).collect();
        assert_eq!(names, vec!["kernel/global-scheduler", "open_file/compute-ra", "tcp/80"]);
    }

    fn graft(engine: &Rc<GraftEngine>, src: &str) -> SharedGraft {
        let prog = assemble("h", src, &hostfn::symbols()).unwrap();
        let principal = engine.rm.borrow_mut().create_graft_principal();
        let mem = AddressSpace::new(4096, 256, Protection::Sfi);
        share(GraftInstance::new(Rc::clone(engine), prog, mem, ThreadId(1), principal).unwrap())
    }

    #[test]
    fn event_dispatch_runs_in_order() {
        let engine = GraftEngine::new(vino_sim::Observer::new(VirtualClock::new()));
        let mut ep = EventPoint::new();
        // Handlers record their order in kernel-state slots via the
        // accessor: slot = handler id, value = a counter they bump.
        let a = graft(&engine, "const r1, 1\nmov r2, r1\ncall $kv_set\nhalt r0");
        let b = graft(
            &engine,
            "const r1, 1\ncall $kv_get\nmov r2, r0\nconst r1, 2\ncall $kv_set\nhalt r0",
        );
        ep.add_handler(b, 10); // Added first but ordered second.
        ep.add_handler(a, 5);
        let reports = ep.dispatch([0; 4]);
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].graft, "h");
        // a ran first (wrote slot1=1), then b copied slot1 into slot2.
        assert_eq!(engine.kv_read(1), 1);
        assert_eq!(engine.kv_read(2), 1);
    }

    #[test]
    fn handler_abort_does_not_stop_dispatch() {
        let engine = GraftEngine::new(vino_sim::Observer::new(VirtualClock::new()));
        let mut ep = EventPoint::new();
        let bad = graft(&engine, "const r1, 0\nconst r2, 0\ndiv r0, r1, r2\nhalt r0");
        let good = graft(&engine, "const r1, 9\nconst r2, 1\ncall $kv_set\nhalt r0");
        ep.add_handler(bad, 0);
        ep.add_handler(good, 1);
        let reports = ep.dispatch([0; 4]);
        assert!(matches!(reports[0].outcome, InvokeOutcome::Aborted { .. }));
        assert!(matches!(reports[1].outcome, InvokeOutcome::Ok { .. }));
        assert_eq!(engine.kv_read(9), 1, "later handler still ran (Rule 9)");
        // The dead handler can be reaped.
        assert_eq!(ep.reap_dead(), 1);
        assert_eq!(ep.handler_count(), 1);
    }
}
