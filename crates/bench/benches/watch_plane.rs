//! Watch-plane microbenches: per-observation cost, plus the
//! zero-allocation proofs the design demands — once principal slots are
//! warmed (the analogue of metrics-tag interning), the hot-path
//! operations (observations, window rotation, alert edges into the
//! preallocated ring) must never touch the heap, neither on the plane
//! itself nor through the observer that feeds it.

use std::rc::Rc;

use criterion::alloc::CountingAlloc;
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use vino_sim::metrics::{Counter, MetricsPlane};
use vino_sim::trace::{AbortKind, ShedKind, TraceEvent, TracePlane};
use vino_sim::watch::WatchPlane;
use vino_sim::{Cycles, Observer, Reading, VirtualClock};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

fn bench(c: &mut Criterion) {
    let clock = VirtualClock::new();
    let wp = WatchPlane::new(Rc::clone(&clock));

    // Slot creation is the only allocating operation on the principal
    // path, and it happens once per principal at install time
    // (`observe_install`) — before the proof window. Then warm every
    // signal once so the steady state under proof is the loaded plane,
    // not first-touch.
    let principals = [1u64, 2, 3, 4];
    for &p in &principals {
        wp.observe_install(p);
        wp.observe_invoke(p, Cycles(100));
        wp.observe_abort(p);
        wp.observe_quarantine(p);
    }
    wp.observe_shed();
    wp.observe_journal(1, 64);
    wp.observe_lock_timeout();
    wp.poll();

    // The proof: 100k hot-path observations mixing every signal the
    // subsystems report, dense enough that alerts genuinely fire and
    // resolve (edges land in the preallocated ring) — zero allocations.
    let before = ALLOC.allocations();
    for i in 0..100_000u64 {
        clock.charge_us(1);
        let p = principals[(i % 4) as usize];
        wp.observe_invoke(p, Cycles(i % 997));
        if i % 3 == 0 {
            wp.observe_abort(p);
        }
        if i % 7 == 0 {
            wp.observe_shed();
        }
        if i % 11 == 0 {
            wp.observe_journal(i % 64, 64);
        }
        if i % 13 == 0 {
            wp.observe_lock_timeout();
        }
        if i % 16 == 0 {
            wp.poll();
        }
    }
    let delta = ALLOC.allocations() - before;
    assert_eq!(delta, 0, "watch observation hit the heap {delta} times in 100k observations");
    assert!(!wp.is_empty(), "the storm above must actually fire alerts");
    println!("watch_plane/allocs_per_100k_observes     {delta:>12}");

    observer_proof();

    c.bench_function("watch_plane/observe_invoke", |b| {
        b.iter(|| wp.observe_invoke(black_box(1), black_box(Cycles(100))))
    });
    c.bench_function("watch_plane/observe_abort", |b| b.iter(|| wp.observe_abort(black_box(1))));
    c.bench_function("watch_plane/observe_shed", |b| b.iter(|| wp.observe_shed()));
    c.bench_function("watch_plane/poll", |b| b.iter(|| wp.poll()));
    c.bench_function("watch_plane/serialize", |b| b.iter(|| black_box(wp.serialize())));
}

/// The proof one level up, through what a subsystem calls: trace,
/// metrics and watch planes attached to one observer (trace first, so
/// alert edges are mirrored into it), driven by the events whose values
/// the observer derives, every [`Reading`], and the graft brackets on
/// both exits, with alerts firing. Zero allocations.
fn observer_proof() {
    let clock = VirtualClock::new();
    let obs = Observer::new(Rc::clone(&clock));
    let tp = TracePlane::with_capacity(Rc::clone(&clock), 1 << 12);
    obs.attach_trace(Rc::clone(&tp)).unwrap();
    let mp = MetricsPlane::with_graft_capacity(Rc::clone(&clock), 8);
    obs.attach_metrics(Rc::clone(&mp)).unwrap();
    let wp = WatchPlane::new(Rc::clone(&clock));
    obs.attach_watch(Rc::clone(&wp)).unwrap();

    // Install time (names interned, blamed principals' slots warmed)
    // and a port's first drop are the allocating steps; both happen
    // before the proof window.
    let names = ["ra", "evict"];
    let grafts = [obs.install(names[0], 64, 1), obs.install(names[1], 64, 2)];
    obs.report(Reading::NicPortDrop { port: 80 });

    let before = ALLOC.allocations();
    for i in 0..100_000u64 {
        clock.charge_us(1);
        let (g, name) = (&grafts[(i % 2) as usize], names[(i % 2) as usize]);
        let cost = Cycles(i % 997 * 1000);
        obs.begin_invocation(g);
        obs.emit(TraceEvent::UndoPush { thread: 1, depth: i % 7 });
        if i % 3 == 0 {
            obs.end_invocation(g, false, cost);
            let graft = g.trace.expect("trace attached before install");
            obs.emit_as(g, TraceEvent::GraftAbort { graft, kind: AbortKind::Trap });
            let quarantined = (i % 9 == 0).then_some((name, clock.now() + Cycles(1000)));
            obs.abort_exit(g, cost, quarantined);
        } else {
            obs.end_invocation(g, true, cost);
        }
        if i % 7 == 0 {
            let kind = if i % 2 == 0 { ShedKind::Watermark } else { ShedKind::Overflow };
            obs.emit(TraceEvent::NetShed { port: 80, kind });
        }
        if i % 11 == 0 {
            obs.report(Reading::JournalOccupancy { occupied: i % 64, capacity: 64 });
        }
        if i % 13 == 0 {
            obs.emit(TraceEvent::LockTimeout { lock: 0, holder: 1 });
        }
        if i % 17 == 0 {
            obs.quarantine(g, name, clock.now() + Cycles(1000));
        }
        if i % 5 == 0 {
            obs.report(Reading::ReplLag { lag: i % 16, age: Cycles(i) });
            obs.report(Reading::RmInUse { kind: 0, used: i % 4096 });
            obs.report(Reading::NicPortDrop { port: 80 });
        }
        if i % 16 == 0 {
            wp.poll();
        }
    }
    let delta = ALLOC.allocations() - before;
    assert_eq!(delta, 0, "observer feeds hit the heap {delta} times in 100k invocations");
    let s = wp.stats();
    assert!(s.fired > 0 && s.resolved > 0, "the storm above must fire and resolve alerts");
    assert!(s.sheds > 0 && s.lock_timeouts > 0 && s.journal_appends > 0, "twins and readings fed");
    assert_eq!(mp.get(Counter::NicDropped), 20_001, "every drop reading counted");
    assert_eq!(tp.stats().watch, s.fired + s.resolved, "every alert edge mirrored into the trace");
    println!("watch_plane/observer_allocs_per_100k     {delta:>12}");
}

criterion_group!(benches, bench);
criterion_main!(benches);
