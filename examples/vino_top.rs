//! A top(1)-style view of the observability planes: attach a metrics
//! plane, a profile plane, and a watch plane to a booted kernel, drive
//! a mixed workload (a committing graft, an occasional aborter, a
//! quarantine-tripping crasher), then print the live health view, each
//! graft's Table-3-shaped overhead attribution, the cycle-ranked
//! hot-function table (docs/PROFILING.md), the firing alerts and
//! admission decisions (docs/WATCH.md), and the Prometheus-style
//! exposition (docs/METRICS.md).
//!
//! Run with: `cargo run --example vino_top`

use std::rc::Rc;

use vino::core::engine::InvokeOutcome;
use vino::core::kernel::point_names;
use vino::core::{AttachError, InstallError, InstallOpts, Kernel};
use vino::rm::{Limits, ResourceKind};
use vino::sim::metrics::MetricsPlane;
use vino::sim::profile::ProfilePlane;
use vino::sim::watch::WatchPlane;

fn main() {
    let kernel = Kernel::boot();
    let plane = MetricsPlane::new(Rc::clone(&kernel.clock));
    kernel.attach_metrics_plane(Rc::clone(&plane)).expect("first attach");

    // Attach-once: a second plane is refused, never silently swapped.
    let second = MetricsPlane::new(Rc::clone(&kernel.clock));
    assert_eq!(kernel.attach_metrics_plane(second), Err(AttachError::AlreadyAttached));
    assert!(Rc::ptr_eq(&kernel.metrics().expect("attached"), &plane));

    // The profile plane rides along: a view over the same ledger, at
    // per-PC grain.
    let profile = ProfilePlane::new(&plane);
    kernel.attach_profile_plane(Rc::clone(&profile)).expect("first attach");

    // The watch plane turns the metrics stream into SLO alerts, and a
    // firing alert turns into install-time backpressure: while a
    // principal's `abort-storm` alert is up, the admission gate defers
    // its next install (docs/WATCH.md).
    let watch = WatchPlane::new(Rc::clone(&kernel.clock));
    kernel.attach_watch_plane(Rc::clone(&watch)).expect("first attach");

    let app = kernel.create_app(Limits::of(&[(ResourceKind::KernelHeap, 1 << 20)]));
    let thread = kernel.spawn_thread("app");

    // A well-behaved key-value graft: commits on every invocation.
    let good = kernel
        .compile_graft("good-kv", "mov r2, r1\nconst r1, 5\ncall $kv_set\nhalt r2")
        .expect("compiles");
    for i in 0..32u64 {
        let g = kernel
            .install_function_graft(
                point_names::COMPUTE_RA,
                &good,
                app,
                thread,
                &InstallOpts::default(),
            )
            .expect("installs");
        let out = g.borrow_mut().invoke([i, 0, 0, 0]);
        assert!(matches!(out, InvokeOutcome::Ok { .. }));
    }

    // A sometimes-aborter: divides by args[0], so one in four calls
    // (arg 0, 4, 8, ...) traps and aborts — a visible abort rate.
    let flaky = kernel
        .compile_graft("flaky-div", "const r2, 4\nrem r3, r1, r2\ndiv r0, r1, r3\nhalt r0")
        .expect("compiles");
    // Both refusals are backoffs with a deadline, not bans: quarantine
    // is the graft's (reactive, after it misbehaved), admission is the
    // principal's (proactive, while its abort-storm alert is firing).
    // Waiting out the deadline and retrying always converges, because
    // the alert windows only decay with time.
    let install_or_wait = |image: &_| loop {
        match kernel.install_function_graft(
            point_names::COMPUTE_RA,
            image,
            app,
            thread,
            &InstallOpts::default(),
        ) {
            Ok(g) => break g,
            Err(
                InstallError::Quarantined { until, .. }
                | InstallError::AdmissionDenied { until, .. },
            ) => kernel.clock.advance_to(until),
            Err(e) => panic!("unexpected refusal: {e}"),
        }
    };
    for i in 0..16u64 {
        let g = install_or_wait(&flaky);
        let _ = g.borrow_mut().invoke([i, 0, 0, 0]);
    }

    // Let the flaky graft's aborts age out of the 1000 ms abort-storm
    // window first, so the crasher below is unambiguously what fires
    // the alert.
    kernel.clock.charge(vino::sim::Cycles::from_ms(2_000));

    // A hard crasher: three straight traps inside the abort-storm
    // window trip quarantine AND fire the `abort-storm` alert, so the
    // admission gate vetoes the principal's very next install.
    let bad =
        kernel.compile_graft("div0", "const r1, 0\ndiv r0, r1, r1\nhalt r0").expect("compiles");
    for _ in 0..3 {
        let g = install_or_wait(&bad);
        let out = g.borrow_mut().invoke([0; 4]);
        assert!(matches!(out, InvokeOutcome::Aborted { .. }));
    }
    let denied = kernel.install_function_graft(
        point_names::COMPUTE_RA,
        &good,
        app,
        thread,
        &InstallOpts::default(),
    );
    let Err(InstallError::AdmissionDenied { until: deny_until, .. }) = denied else {
        panic!("a firing abort-storm alert must defer the next install");
    };

    println!("== vino top — health (virtual cycle {}) ==", kernel.clock.now().get());
    print!("{}", plane.health());

    println!();
    println!("== per-graft overhead attribution (Table 3 components) ==");
    for tag in plane.tags_in_order() {
        print!("{}", plane.render_attribution(tag));
    }

    println!();
    println!("== hot functions (profile plane, cycle-ranked) ==");
    print!("{}", profile.render_top(10));

    println!();
    println!("== firing alerts (watch plane, docs/WATCH.md) ==");
    print!("{}", watch.snapshot());
    println!("alert stream:");
    print!("{}", watch.serialize());
    println!(
        "admission gate: {} — next install for principal {} deferred to virtual cycle {}",
        kernel.admission().stats(),
        app.0,
        deny_until.get(),
    );

    println!();
    println!("== replication shipping (vino-repl harness, docs/REPLICATION.md) ==");
    print!("{}", replication_section());

    println!();
    println!("== Prometheus exposition ==");
    print!("{}", plane.expose());
}

/// A second, self-contained pair of kernels: a few workload rounds
/// over a stalled ack path, so the shipping snapshot shows a live
/// window under pressure and the lag path attributes where the oldest
/// unacked record's age went.
fn replication_section() -> String {
    use vino::repl::{lag_path, ReplConfig, ReplHarness};
    use vino::sim::fault::FaultSite;

    let mut h = ReplHarness::new(0x70_0B5E, ReplConfig { window: 2, ..Default::default() });
    let fault = Rc::clone(h.fault_plane());
    fault.set_rate(FaultSite::ReplAckLoss, 1, 1);
    h.run(6);
    let s = h.shipping_state();
    let mut out = format!(
        "window       : {} records ({} in flight)\n\
         shipped      : up to seq {} ({} retransmits, {} frame drops)\n\
         acked        : seq {} (replica applied {})\n\
         lag          : {} records, {} virtual cycles old\n\
         nodes        : primary {}, replica {} ({} reboots)\n",
        s.window,
        s.in_flight,
        s.last_shipped,
        s.retransmits,
        s.frame_drops,
        s.last_acked,
        s.applied,
        s.lag,
        h.repl_lag_age().0,
        if s.primary_dead { "DEAD" } else { "alive" },
        if s.replica_reboots > 0 { "recovered" } else { "alive" },
        s.replica_reboots,
    );
    if let Some(report) = lag_path(&h) {
        out.push_str(&report.render());
        assert_eq!(report.total, h.watch_plane().repl_lag_age(), "lag path must reconcile");
        out.push_str("(per-hop sum reconciles exactly with the watch repl-lag-age gauge)\n");
    }
    out
}
