//! Profile-plane microbenches: per-retired-instruction billing cost,
//! plus the zero-allocation proof — once a graft's program is
//! registered, the hot-path operations (per-PC billing, call-graph
//! enter/exit on already-seen edges, invocation brackets, span marks)
//! must never touch the heap, neither on the plane itself (a view over
//! a bare metrics plane) nor through the observer funnel the VM and the
//! wrapper actually call.

use std::rc::Rc;

use criterion::alloc::CountingAlloc;
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use vino_sim::metrics::{Component, MetricsPlane};
use vino_sim::profile::{ProfilePlane, SpanKind};
use vino_sim::trace::{TraceEvent, TracePlane, VmExitKind};
use vino_sim::{Cycles, Observer, Retired, VirtualClock};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

fn bench(c: &mut Criterion) {
    let clock = VirtualClock::new();
    let mp = MetricsPlane::with_graft_capacity(Rc::clone(&clock), 8);
    let pp = ProfilePlane::with_capacity(&mp, 8, 1 << 14);

    // Interning and program registration are the only allocating
    // operations, and they happen once per graft at install time — do
    // them before the proof window. One warm-up pass also materialises
    // every call-tree edge the proof loop will walk.
    let tags = [mp.tag("ra"), mp.tag("evict"), mp.tag("sched"), mp.tag("crypt")];
    for &t in &tags {
        pp.register_program(t, 512);
        mp.begin_invocation(t);
        pp.reset_stack(t);
        pp.record_pc(t, 0, Component::GraftFn, Cycles(1));
        pp.enter_fn(t, 40);
        pp.record_pc(t, 40, Component::GraftFn, Cycles(35));
        pp.exit_fn(t);
        pp.end_invocation(true);
        mp.end_invocation(true);
    }

    // The proof: 100k retired instructions (mixed with the bracket,
    // call-graph and span traffic one invocation generates) — zero
    // allocations.
    let before = ALLOC.allocations();
    for i in 0..1_000u64 {
        let tag = tags[(i % 4) as usize];
        mp.begin_invocation(tag);
        pp.reset_stack(tag);
        mp.charge(Component::TxnBegin, Cycles(4320));
        pp.mark(SpanKind::TxnBegin, Cycles(4320));
        for pc in 0..100u32 {
            clock.charge(Cycles(1));
            let comp = if pc % 7 == 0 { Component::Sfi } else { Component::GraftFn };
            pp.record_pc(tag, pc as usize, comp, Cycles(1 + (pc as u64 % 4)));
        }
        pp.enter_fn(tag, 40);
        pp.record_pc(tag, 40, Component::GraftFn, Cycles(35));
        pp.exit_fn(tag);
        mp.charge(Component::TxnCommit, Cycles(3600));
        pp.mark(SpanKind::TxnCommit, Cycles(3600));
        pp.end_invocation(i % 5 != 0);
        mp.end_invocation(i % 5 != 0);
    }
    let delta = ALLOC.allocations() - before;
    assert_eq!(delta, 0, "profile billing hit the heap {delta} times in 100k instructions");
    println!("profile_plane/allocs_per_100k_instrs     {delta:>12}");

    // The same proof through the observer, with trace, metrics and
    // profile all attached: the wrapper's brackets and envelope charges
    // plus what the VM feeds — per-PC billing, a retired batch, and the
    // window event.
    let obs = Observer::new(Rc::clone(&clock));
    obs.attach_trace(TracePlane::with_capacity(Rc::clone(&clock), 1 << 12)).unwrap();
    let omp = MetricsPlane::with_graft_capacity(Rc::clone(&clock), 8);
    obs.attach_metrics(Rc::clone(&omp)).unwrap();
    obs.attach_profile(ProfilePlane::with_capacity(&omp, 8, 1 << 10)).unwrap();
    let grafts = [obs.install("ra", 512, 0), obs.install("evict", 512, 0)];
    for g in &grafts {
        obs.begin_invocation(g);
        obs.retire(g, Retired { graft_fn: 1, ..Retired::default() });
        obs.end_invocation(g, true, Cycles::ZERO);
    }
    let before = ALLOC.allocations();
    for i in 0..100_000u64 {
        let g = &grafts[(i % 2) as usize];
        obs.begin_invocation(g);
        obs.charge(Component::TxnBegin, Cycles(4320));
        obs.emit(TraceEvent::TxnBegin { thread: 1, txn: i, depth: 1 });
        let pc = (i % 512) as usize;
        let comp = if pc.is_multiple_of(7) { Component::Sfi } else { Component::GraftFn };
        let cost = 1 + (i % 4);
        obs.profile().unwrap().record_pc(g.metrics.unwrap(), pc, comp, Cycles(cost));
        obs.retire(
            g,
            match comp {
                Component::Sfi => Retired { sfi: cost, clamps: 1, ..Retired::default() },
                _ => Retired { graft_fn: cost, ..Retired::default() },
            },
        );
        obs.emit_as(g, TraceEvent::VmWindow { instrs: 1, exit: VmExitKind::Halt });
        obs.charge(Component::TxnCommit, Cycles(3600));
        obs.emit(TraceEvent::TxnCommit { thread: 1, txn: i, nested: false, locks: 0 });
        obs.end_invocation(g, i % 5 != 0, Cycles::ZERO);
    }
    let delta = ALLOC.allocations() - before;
    assert_eq!(delta, 0, "observer funnel hit the heap {delta} times in 100k invocations");
    println!("profile_plane/observer_allocs_per_100k   {delta:>12}");

    c.bench_function("profile_plane/record_pc", |b| {
        b.iter(|| {
            pp.record_pc(
                black_box(tags[0]),
                black_box(17),
                Component::GraftFn,
                black_box(Cycles(2)),
            )
        })
    });
    c.bench_function("profile_plane/enter_exit_fn", |b| {
        b.iter(|| {
            pp.enter_fn(tags[0], black_box(40));
            pp.exit_fn(tags[0]);
        })
    });
    c.bench_function("profile_plane/invocation_bracket", |b| {
        b.iter(|| {
            mp.begin_invocation(black_box(tags[0]));
            pp.reset_stack(tags[0]);
            pp.record_pc(tags[0], 1, Component::GraftFn, Cycles(1));
            pp.end_invocation(true);
            mp.end_invocation(true);
        })
    });
    c.bench_function("profile_plane/folded", |b| b.iter(|| black_box(pp.folded())));
}

criterion_group!(benches, bench);
criterion_main!(benches);
