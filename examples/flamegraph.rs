//! End-to-end profiling demo: attach a profile plane, drive a graft
//! with real call depth, and print the two renderable artifacts —
//! folded stacks (pipe into `flamegraph.pl` for an SVG) and the Chrome
//! trace JSON (load in `chrome://tracing` or Perfetto for the
//! invocation span tree). See docs/PROFILING.md.
//!
//! Run with: `cargo run --example flamegraph`

use std::rc::Rc;

use vino::core::engine::InvokeOutcome;
use vino::core::kernel::point_names;
use vino::core::{InstallOpts, Kernel};
use vino::rm::{Limits, ResourceKind};
use vino::sim::metrics::MetricsPlane;
use vino::sim::profile::ProfilePlane;
use vino::txn::locks::LockClass;

/// A graft with call depth: the entry loops over an intra-graft
/// subroutine which itself calls a leaf — three distinct flamegraph
/// frames per invocation, plus the lock/txn envelope around them.
const SRC: &str = "
    const r1, 0          ; shared-buffer lock handle
    call $lock
    call $shared_base
    mov r6, r0
    const r4, 0
    const r9, 6
loop:
    bgeu r4, r9, done
    calll middle
    addi r4, r4, 1
    jmp loop
done:
    const r1, 0
    call $unlock
    halt r5
middle:
    loadw r10, [r6+0]
    add r5, r5, r10
    calll leaf
    ret
leaf:
    addi r5, r5, 1
    storew r5, [r6+4]
    ret
";

fn main() {
    let kernel = Kernel::boot();
    let profile = ProfilePlane::new(&MetricsPlane::new(Rc::clone(&kernel.clock)));
    kernel.attach_profile_plane(Rc::clone(&profile)).expect("first attach");

    let app = kernel.create_app(Limits::of(&[(ResourceKind::KernelHeap, 1 << 20)]));
    let thread = kernel.spawn_thread("app");
    let _ = kernel.engine.register_lock(LockClass::SharedBuffer);

    let image = kernel.compile_graft("ra-policy", SRC).expect("compiles");
    let graft = kernel
        .install_function_graft(
            point_names::COMPUTE_RA,
            &image,
            app,
            thread,
            &InstallOpts::default(),
        )
        .expect("installs");
    for i in 0..25u64 {
        let out = graft.borrow_mut().invoke([i, 0, 0, 0]);
        assert!(matches!(out, InvokeOutcome::Ok { .. }), "{out:?}");
    }

    // Folded stacks: one line per call path, weight = self cycles.
    // `cargo run --example flamegraph | grep ';' | flamegraph.pl > g.svg`
    println!("== folded stacks (flamegraph.pl format) ==");
    print!("{}", profile.folded());

    println!();
    println!("== hot functions ==");
    print!("{}", profile.render_top(10));

    println!();
    println!("== chrome trace (chrome://tracing JSON) ==");
    println!("{}", profile.chrome_trace());
}
