//! Simulator-performance benches: GraftVM interpreter throughput with no
//! plane, with the metrics plane (the batched-ledger path) and with the
//! profile plane (per-PC billing), and the full graft-invocation wrapper
//! (host wall-clock, not model time). First, the zero-allocation proof
//! for the VM's fast window: once a graft is installed and warm, an
//! invocation whose windows take the batched path never touches the
//! heap.

use criterion::alloc::CountingAlloc;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use vino_bench::table6::ENCRYPT_GRAFT_SRC;
use vino_bench::world::{build, build_metered, build_profiled, Variant, World};
use vino_core::engine::InvokeOutcome;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Encrypts 8 KB through the graft: input at 4 KB, output at 12 KB.
fn xor_8k(w: &mut World) {
    let base = w.graft.mem_ref().seg_base();
    let out = w.graft.invoke([base + 4096, base + 12288, 8192, 0]);
    assert!(matches!(out, InvokeOutcome::Ok { .. }));
}

fn bench(c: &mut Criterion) {
    // The proof: 1 000 invocations of the encryption graft with the
    // metrics plane attached — each one fast window of ~22k retired
    // instructions, flushed to the clock and the ledger — zero
    // allocations.
    let (mut w, _metrics) = build_metered(ENCRYPT_GRAFT_SRC, 32 * 1024, Variant::Safe, 0);
    for _ in 0..3 {
        xor_8k(&mut w);
    }
    let before = ALLOC.allocations();
    for _ in 0..1_000 {
        xor_8k(&mut w);
    }
    let delta = ALLOC.allocations() - before;
    assert_eq!(delta, 0, "the VM's fast window hit the heap {delta} times in 1k invocations");
    println!("graftvm/allocs_per_1k_fast_windows       {delta:>12}");

    // Interpreter throughput on the encryption loop (8 KB payload).
    let mut group = c.benchmark_group("graftvm");
    group.throughput(Throughput::Bytes(8192));
    group.bench_function("xor_8k_safe", |b| {
        let mut w = build(ENCRYPT_GRAFT_SRC, 32 * 1024, Variant::Safe, 0);
        b.iter(|| xor_8k(&mut w))
    });
    group.bench_function("xor_8k_metrics", |b| {
        let (mut w, _metrics) = build_metered(ENCRYPT_GRAFT_SRC, 32 * 1024, Variant::Safe, 0);
        b.iter(|| xor_8k(&mut w))
    });
    group.bench_function("xor_8k_profiled", |b| {
        let (mut w, _metrics, _profile) =
            build_profiled(ENCRYPT_GRAFT_SRC, 32 * 1024, Variant::Safe, 0);
        b.iter(|| xor_8k(&mut w))
    });
    group.finish();
    c.bench_function("wrapper/null_invoke", |b| {
        let mut w = build("halt r0", 1024, Variant::Safe, 0);
        b.iter(|| {
            let out = w.graft.invoke([0; 4]);
            assert!(matches!(out, InvokeOutcome::Ok { .. }));
        })
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
