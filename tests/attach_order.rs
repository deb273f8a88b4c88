//! The attach-order contract of the observability planes.
//!
//! - A graft binds the planes attached when it is installed: one
//!   installed before the metrics and profile planes attach adds
//!   nothing to `VmInstrs`, to the per-PC ledger or to its attribution,
//!   however often it runs afterwards; one installed after does.
//! - The watch plane mirrors its alert edges into the trace plane only
//!   when the trace plane was attached first.

use std::rc::Rc;

use vino::core::adapters::SharedGraft;
use vino::core::engine::InvokeOutcome;
use vino::core::kernel::point_names;
use vino::core::{InstallOpts, Kernel};
use vino::rm::{Limits, ResourceKind};
use vino::sim::metrics::{Component, Counter, MetricsPlane};
use vino::sim::profile::ProfilePlane;
use vino::sim::trace::{TraceEvent, TracePlane};
use vino::sim::watch::WatchPlane;

fn install(k: &Kernel, name: &str, src: &str) -> SharedGraft {
    let app = k.create_app(Limits::of(&[(ResourceKind::KernelHeap, 1 << 20)]));
    let t = k.spawn_thread(name);
    let image = k.compile_graft(name, src).unwrap();
    k.install_function_graft(point_names::COMPUTE_RA, &image, app, t, &InstallOpts::default())
        .unwrap()
}

const LOOP: &str = "const r1, 0\nconst r2, 8\nl: addi r1, r1, 1\nbltu r1, r2, l\nhalt r1";

#[test]
fn grafts_installed_before_an_attach_never_feed_the_plane() {
    let k = Kernel::boot();
    let early = install(&k, "early", LOOP);
    let mp = MetricsPlane::new(Rc::clone(&k.clock));
    let pp = ProfilePlane::new(&mp);
    k.attach_metrics_plane(Rc::clone(&mp)).unwrap();
    k.attach_profile_plane(Rc::clone(&pp)).unwrap();
    for _ in 0..4 {
        assert!(matches!(early.borrow_mut().invoke([0; 4]), InvokeOutcome::Ok { .. }));
    }
    assert_eq!(mp.get(Counter::VmInstrs), 0, "pre-attach graft retired into the plane");
    assert_eq!(mp.get(Counter::GraftInvocations), 0);
    let early_tag = mp.tag("early");
    let early_attr = mp.attribution(early_tag).unwrap();
    assert_eq!((early_attr.total().get(), early_attr.invocations), (0, 0));
    assert_eq!(pp.pc_totals(early_tag), (Default::default(), Default::default(), 0));
    assert_eq!(pp.metrics().attribution(early_tag).unwrap().total().get(), 0);

    let late = install(&k, "late", LOOP);
    assert!(matches!(late.borrow_mut().invoke([0; 4]), InvokeOutcome::Ok { .. }));
    assert!(mp.get(Counter::VmInstrs) > 0, "post-attach graft must retire into the plane");
    let late_tag = mp.tag("late");
    let late_attr = mp.attribution(late_tag).unwrap();
    assert_eq!(late_attr.invocations, 1);
    assert!(late_attr.of(Component::GraftFn).get() > 0);
    let (graft_fn, _, hits) = pp.pc_totals(late_tag);
    assert_eq!(graft_fn, late_attr.of(Component::GraftFn));
    assert_eq!(hits, mp.get(Counter::VmInstrs));
}

/// Three aborts of one installer's graft: enough to fire the default
/// `abort-storm` rule. Returns the trace's alert-edge events.
fn abort_storm(k: &Kernel, tp: &TracePlane) -> Vec<TraceEvent> {
    let g = install(k, "crasher", "const r1, 0\ndiv r0, r1, r1\nhalt r0");
    for _ in 0..3 {
        g.borrow_mut().revive();
        assert!(matches!(g.borrow_mut().invoke([0; 4]), InvokeOutcome::Aborted { .. }));
    }
    tp.records()
        .iter()
        .map(|r| r.event)
        .filter(|e| {
            matches!(e, TraceEvent::WatchAlertFiring { .. } | TraceEvent::WatchAlertResolved { .. })
        })
        .collect()
}

#[test]
fn watch_mirrors_alerts_only_into_a_trace_plane_attached_first() {
    let k = Kernel::boot();
    let wp = WatchPlane::new(Rc::clone(&k.clock));
    let tp = TracePlane::with_capacity(Rc::clone(&k.clock), 1 << 12);
    k.attach_watch_plane(Rc::clone(&wp)).unwrap();
    k.attach_trace_plane(Rc::clone(&tp)).unwrap();
    assert!(abort_storm(&k, &tp).is_empty(), "watch attached first must not mirror alerts");
    assert!(wp.stats().fired > 0, "the storm must fire an alert");

    let k = Kernel::boot();
    let wp = WatchPlane::new(Rc::clone(&k.clock));
    let tp = TracePlane::with_capacity(Rc::clone(&k.clock), 1 << 12);
    k.attach_trace_plane(Rc::clone(&tp)).unwrap();
    k.attach_watch_plane(Rc::clone(&wp)).unwrap();
    assert!(!abort_storm(&k, &tp).is_empty(), "trace attached first must see alert edges");
}
