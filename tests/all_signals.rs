//! The all-signals alert stream: the debug-storm world under a
//! low-threshold rule table, driven until every SLO rule except
//! `replication-lag` (pinned by `repl_stall.alerts`) has fired.
//!
//! The other alert goldens only carry `abort-storm` and
//! `replication-lag` edges. This one pins the order and values of the
//! `quarantine-churn`, `invoke-p99`, `rx-shed`, `journal-full` and
//! `lock-starved` edges too, so a change to how any subsystem feeds the
//! watch plane shows up as a diff.
//!
//! Regenerate the golden with `UPDATE_GOLDENS=1 cargo test --test
//! all_signals`.

use std::path::PathBuf;
use std::rc::Rc;

use vino::core::engine::InvokeOutcome;
use vino::core::kernel::{point_names, KernelConfig};
use vino::core::{InstallOpts, QuarantinePolicy};
use vino::dev::nic::Port;
use vino::net::{Packet, PacketPlane};
use vino::sim::fault::FaultSite;
use vino::sim::watch::{Signal, SloRule, WatchStats};
use vino::sim::Cycles;
use vino_bench::debug::{DebugWorld, FaultChoice, StormSpec, StormStep};

/// The known-bad seed the debug and watch batteries pin.
const SEED: u64 = 3_405_691_582;

/// Every watched signal but replication lag, each with a threshold low
/// enough that the scenario below crosses it.
fn low_rules() -> Vec<SloRule> {
    let rule = |name, signal, threshold| SloRule {
        name,
        signal,
        window: Cycles::from_ms(1000),
        threshold,
    };
    vec![
        rule("abort-storm", Signal::AbortRate, 2),
        rule("quarantine-churn", Signal::QuarantineChurn, 1),
        rule("invoke-p99", Signal::InvokeP99, 20_000),
        rule("rx-shed", Signal::RxShed, 2),
        rule("journal-full", Signal::JournalOccupancy, 100),
        rule("lock-starved", Signal::LockTimeoutRate, 1),
    ]
}

/// Runs the scenario and returns the alert stream and the watch stats.
///
/// 1. The generated 48-step debug storm, then three back-to-back VM
///    traps (aborts) and a calm tail.
/// 2. An eight-block write to the probe file (journal occupancy).
/// 3. Sixteen packets into a four-slot RX ring, then one pump (sheds).
/// 4. A lock-timeout storm stealing a spinning graft's transaction,
///    under a one-abort quarantine policy (lock time-out, abort,
///    quarantine and a slow invocation).
/// 5. Two quiet seconds and a poll, which resolve what decays.
fn run() -> (String, WatchStats) {
    let mut w = DebugWorld::boot_with_rules(SEED, &KernelConfig::default(), low_rules());
    let storm = StormSpec::generate(SEED, 48);
    let trap = StormStep {
        pre_ms: 1,
        fault: FaultChoice::VmTrap { offset: 0 },
        graft: 0,
        arg: 7,
        funded: true,
        read_block: 0,
    };
    let calm = StormStep { fault: FaultChoice::None, pre_ms: 50, ..trap };
    let tail = [trap, trap, trap, calm, calm, calm];
    for (i, step) in storm.steps.iter().chain(&tail).enumerate() {
        w.run_step(i, step);
    }

    w.k.fs.borrow_mut().write(w.fd, 0, &[7u8; 8 * 4096]).unwrap();

    let net = PacketPlane::new(Rc::clone(&w.k));
    net.open_port(Port(9), 4);
    for _ in 0..16 {
        let _ = net.rx(Packet::udp(1, 2, Port(9), vec![0; 8]));
    }
    net.pump();

    w.k.reliability().set_policy(QuarantinePolicy { threshold: 1, ..QuarantinePolicy::default() });
    w.plane.set_rate(FaultSite::LockTimeoutStorm, 1, 1);
    let victim =
        w.k.compile_graft("storm-victim", "const r1, 0\ncall $lock\nspin: jmp spin").unwrap();
    let g =
        w.k.install_function_graft(
            point_names::COMPUTE_RA,
            &victim,
            w.app,
            w.thread,
            &InstallOpts::default(),
        )
        .unwrap();
    g.borrow_mut().max_slices = 4;
    assert!(matches!(g.borrow_mut().invoke([0; 4]), InvokeOutcome::Aborted { .. }));
    w.plane.disarm_all();

    w.k.clock.advance_to(w.k.clock.now() + Cycles::from_ms(2000));
    w.wp.poll();
    (w.wp.serialize(), w.wp.stats())
}

#[test]
fn every_signal_fires_and_the_stream_is_golden() {
    let (stream, stats) = run();
    assert_eq!(stream, run().0, "same-seed replays must be byte-identical");
    for rule in low_rules() {
        let firing = format!("watch.firing rule={} ", rule.name);
        assert!(stream.contains(&firing), "no firing edge for {}:\n{stream}", rule.name);
    }
    let observed = [
        ("installs", stats.installs),
        ("invocations", stats.invocations),
        ("aborts", stats.aborts),
        ("quarantines", stats.quarantines),
        ("sheds", stats.sheds),
        ("journal_appends", stats.journal_appends),
        ("lock_timeouts", stats.lock_timeouts),
    ];
    for (name, n) in observed {
        assert!(n > 0, "no {name} observed: {stats}");
    }
    check_golden("all_signals", &stream);
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/goldens").join(format!("{name}.alerts"))
}

/// Compares `got` against the golden file, or rewrites the golden when
/// `UPDATE_GOLDENS=1`.
fn check_golden(name: &str, got: &str) {
    let path = golden_path(name);
    if std::env::var("UPDATE_GOLDENS").is_ok_and(|v| v == "1") {
        std::fs::write(&path, got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); regenerate with UPDATE_GOLDENS=1 cargo test --test all_signals",
            path.display()
        )
    });
    assert!(
        got == want,
        "alert stream drifted from golden {name}:\n--- golden\n{want}--- got\n{got}"
    );
}
