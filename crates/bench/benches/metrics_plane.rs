//! Metrics-plane microbenches: per-emit cost, plus the zero-allocation
//! proof the design demands — once tags are interned, the hot-path
//! operations (counter increments, component charges, invocation
//! brackets) must never touch the heap, neither on the plane itself
//! nor through the observer funnel the subsystems actually call.

use std::rc::Rc;

use criterion::alloc::CountingAlloc;
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use vino_sim::metrics::{Component, Counter, MetricsPlane};
use vino_sim::profile::ProfilePlane;
use vino_sim::trace::{TraceEvent, TracePlane};
use vino_sim::{Cycles, Observer, VirtualClock};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

fn bench(c: &mut Criterion) {
    let clock = VirtualClock::new();
    let mp = MetricsPlane::with_graft_capacity(Rc::clone(&clock), 8);

    // Interning is the only allocating operation, and it happens once
    // per graft name at install time — do it before the proof window.
    let tags = [mp.tag("ra"), mp.tag("evict"), mp.tag("sched"), mp.tag("crypt")];

    // Warm every slot so the steady state under proof is the loaded
    // plane, not first-touch.
    for &t in &tags {
        mp.mark_install(t);
        mp.begin_invocation(t);
        mp.charge(Component::GraftFn, Cycles(100));
        mp.end_invocation(true);
    }

    // The proof: 100k hot-path emits mixing every operation the
    // subsystems perform per invocation — zero allocations.
    let before = ALLOC.allocations();
    for i in 0..100_000u64 {
        clock.charge_us(1);
        let tag = tags[(i % 4) as usize];
        mp.inc(Counter::TxnBegins);
        mp.add(Counter::VmInstrs, i % 512);
        mp.begin_invocation(tag);
        mp.charge(Component::TxnBegin, Cycles(4320));
        mp.charge(Component::GraftFn, Cycles(i % 997));
        mp.charge(Component::TxnCommit, Cycles(3600));
        mp.observe_rm_peak(0, i % 4096);
        mp.observe_undo_depth(i % 7);
        mp.end_invocation(i % 5 != 0);
    }
    let delta = ALLOC.allocations() - before;
    assert_eq!(delta, 0, "metrics emit hit the heap {delta} times in 100k emits");
    println!("metrics_plane/allocs_per_100k_emits      {delta:>12}");

    // The same proof through the observer, with trace, metrics and
    // profile all attached: every charge lands in the one ledger, and
    // every emit and bracket fans out to the planes and counter twins.
    let obs = Observer::new(Rc::clone(&clock));
    obs.attach_trace(TracePlane::with_capacity(Rc::clone(&clock), 1 << 12)).unwrap();
    let omp = MetricsPlane::with_graft_capacity(Rc::clone(&clock), 8);
    obs.attach_metrics(Rc::clone(&omp)).unwrap();
    obs.attach_profile(ProfilePlane::with_capacity(&omp, 8, 1 << 10)).unwrap();
    let grafts = [obs.install("ra", 64, 0), obs.install("evict", 64, 0)];
    for g in &grafts {
        obs.begin_invocation(g);
        obs.charge(Component::GraftFn, Cycles(100));
        obs.end_invocation(g, true, Cycles::ZERO);
    }
    let before = ALLOC.allocations();
    for i in 0..100_000u64 {
        let g = &grafts[(i % 2) as usize];
        obs.charge(Component::Indirection, Cycles(120));
        obs.begin_invocation(g);
        obs.charge(Component::TxnBegin, Cycles(4320));
        obs.emit(TraceEvent::TxnBegin { thread: 1, txn: i, depth: 1 });
        obs.charge(Component::Lock, Cycles(3960));
        obs.emit(TraceEvent::LockAcquire { lock: 0, thread: 1 });
        obs.charge(Component::TxnCommit, Cycles(3600));
        obs.emit(TraceEvent::TxnCommit { thread: 1, txn: i, nested: false, locks: 1 });
        obs.end_invocation(g, i % 5 != 0, Cycles::ZERO);
    }
    let delta = ALLOC.allocations() - before;
    assert_eq!(delta, 0, "observer funnel hit the heap {delta} times in 100k invocations");
    assert_eq!(obs.metrics().unwrap().get(Counter::TxnBegins), 100_000, "twins derived");
    println!("metrics_plane/observer_allocs_per_100k   {delta:>12}");

    c.bench_function("metrics_plane/inc", |b| b.iter(|| mp.inc(black_box(Counter::TxnBegins))));
    c.bench_function("metrics_plane/charge", |b| {
        b.iter(|| mp.charge(black_box(Component::GraftFn), black_box(Cycles(100))))
    });
    c.bench_function("metrics_plane/invocation_bracket", |b| {
        b.iter(|| {
            mp.begin_invocation(black_box(tags[0]));
            mp.charge(Component::GraftFn, Cycles(100));
            mp.end_invocation(true);
        })
    });
    c.bench_function("metrics_plane/snapshot", |b| b.iter(|| black_box(mp.snapshot())));
}

criterion_group!(benches, bench);
criterion_main!(benches);
