//! Golden profile-snapshot battery: the canonical profile plane
//! output, frozen.
//!
//! The same three scenarios as the golden-trace and golden-metrics
//! batteries run with a profile plane attached and compare the full
//! snapshot (folded flamegraph stacks + hot-function report + Chrome
//! trace JSON) against checked-in golden files in `tests/goldens/`.
//! Any change to per-PC billing, call-graph folding, span placement,
//! or the rendered formats shows up as a diff here. If the change is
//! intentional, regenerate with:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test --test profile_golden
//! ```
//!
//! and commit the updated `.prof` files alongside the change that
//! caused them. See `docs/PROFILING.md` for the snapshot format.

use std::path::PathBuf;
use std::rc::Rc;

use vino::core::engine::InvokeOutcome;
use vino::core::kernel::point_names;
use vino::core::{InstallError, InstallOpts, Kernel};
use vino::rm::{Limits, ResourceKind};
use vino::sim::fault::{FaultPlane, FaultSite};
use vino::sim::metrics::MetricsPlane;
use vino::sim::profile::ProfilePlane;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/goldens").join(format!("{name}.prof"))
}

/// Compares `got` against the golden file, or rewrites the golden when
/// `UPDATE_GOLDENS=1`. On mismatch the panic message carries a line
/// diff small enough to read in CI output.
fn check_golden(name: &str, got: &str) {
    let path = golden_path(name);
    if std::env::var("UPDATE_GOLDENS").is_ok_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); regenerate with UPDATE_GOLDENS=1 cargo test --test profile_golden",
            path.display()
        )
    });
    if got != want {
        let mut diff = String::new();
        for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
            if g != w {
                diff.push_str(&format!("line {}:\n  golden: {w}\n  got:    {g}\n", i + 1));
            }
        }
        let (gl, wl) = (got.lines().count(), want.lines().count());
        if gl != wl {
            diff.push_str(&format!("line counts differ: golden {wl}, got {gl}\n"));
        }
        panic!(
            "profile drifted from golden {name} — if intentional, rerun with UPDATE_GOLDENS=1\n{diff}"
        );
    }
}

fn boot_profiled() -> (Rc<Kernel>, Rc<ProfilePlane>) {
    let k = Kernel::boot();
    let pp = ProfilePlane::new(&MetricsPlane::new(Rc::clone(&k.clock)));
    k.attach_profile_plane(Rc::clone(&pp)).unwrap();
    (k, pp)
}

/// Scenario 1: a well-behaved graft installs, runs, and commits. The
/// golden pins the clean-path folded stacks (envelope components +
/// per-function self/SFI cycles), the hot-function ranking, and a span
/// tree with txn-begin and txn-commit nested inside one invocation.
#[test]
fn golden_clean_commit_profile() {
    let (k, pp) = boot_profiled();
    let app = k.create_app(Limits::of(&[(ResourceKind::KernelHeap, 1 << 20)]));
    let t = k.spawn_thread("app");
    let image =
        k.compile_graft("good-kv", "mov r2, r1\nconst r1, 5\ncall $kv_set\nhalt r2").unwrap();
    let g = k
        .install_function_graft(point_names::COMPUTE_RA, &image, app, t, &InstallOpts::default())
        .unwrap();
    let out = g.borrow_mut().invoke([41, 0, 0, 0]);
    assert!(matches!(out, InvokeOutcome::Ok { result: 41, .. }));
    check_golden("clean_commit", &pp.snapshot());
}

/// Scenario 2: a lock-timeout storm steals the wrapper transaction out
/// from under a spinning graft. The golden pins the abort-side profile:
/// the invocation span named `!abort`, the abort/undo spans, and cycles
/// in the Abort rather than TxnCommit component.
#[test]
fn golden_lock_timeout_abort_profile() {
    let (k, pp) = boot_profiled();
    let plane = FaultPlane::seeded(9);
    plane.set_rate(FaultSite::LockTimeoutStorm, 1, 1);
    k.attach_fault_plane(plane).unwrap();
    let app = k.create_app(Limits::of(&[(ResourceKind::KernelHeap, 1 << 20)]));
    let t = k.spawn_thread("app");
    let _ = k.engine.register_lock(vino::txn::locks::LockClass::Buffer);
    let image = k.compile_graft("storm-victim", "const r1, 0\ncall $lock\nspin: jmp spin").unwrap();
    let g = k
        .install_function_graft(point_names::COMPUTE_RA, &image, app, t, &InstallOpts::default())
        .unwrap();
    g.borrow_mut().max_slices = 4;
    let out = g.borrow_mut().invoke([0; 4]);
    assert!(matches!(out, InvokeOutcome::Aborted { .. }));
    let snap = pp.snapshot();
    assert!(snap.contains("!abort"), "the aborted invocation is named in the trace");
    check_golden("lock_timeout", &snap);
}

/// Scenario 3: three straight traps trip quarantine. The golden pins
/// three aborted invocations' worth of per-PC cycles and spans, all
/// billed to the same graft name across reinstalls.
#[test]
fn golden_quarantine_trip_profile() {
    let (k, pp) = boot_profiled();
    let app = k.create_app(Limits::of(&[(ResourceKind::KernelHeap, 1 << 20)]));
    let t = k.spawn_thread("app");
    let image = k.compile_graft("div0", "const r1, 0\ndiv r0, r1, r1\nhalt r0").unwrap();
    for _ in 0..3 {
        let g = k
            .install_function_graft(
                point_names::COMPUTE_RA,
                &image,
                app,
                t,
                &InstallOpts::default(),
            )
            .unwrap();
        let out = g.borrow_mut().invoke([0; 4]);
        assert!(matches!(out, InvokeOutcome::Aborted { .. }));
    }
    let refused = k
        .install_function_graft(point_names::COMPUTE_RA, &image, app, t, &InstallOpts::default())
        .unwrap_err();
    assert!(matches!(refused, InstallError::Quarantined { .. }));
    let mp = pp.metrics();
    let attr = mp.attribution(mp.tag("div0")).unwrap();
    assert_eq!(attr.invocations, 3, "reinstalls share one profile tag");
    check_golden("quarantine", &pp.snapshot());
}
