//! The differential profile gate (`docs/PROFILING.md`).
//!
//! A pinned-seed workload runs under the profile plane and its ledger
//! is rendered as a flat `<key> <value>` snapshot: per-component cycles
//! for the graft and the kernel, the per-PC totals, the call-tree hot
//! functions and the span census. The snapshot is committed as
//! `crates/bench/profdiff.baseline`; [`compare`] diffs a fresh snapshot
//! against it and fails on any key drifting more than the tolerance —
//! so a cost-model change that silently shifts where cycles go breaks
//! CI until the baseline is regenerated on purpose
//! (`cargo run -p vino-bench -- --profdiff-write`).
//!
//! The virtual clock is deterministic, so on an unmodified tree every
//! key matches exactly; the tolerance exists to state intent (what
//! counts as a regression) rather than to absorb noise.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::rc::Rc;

use vino_sim::costs;
use vino_sim::metrics::Component;
use vino_sim::Cycles;

use crate::world::{build_profiled, Variant, World};
use vino_sim::metrics::MetricsPlane;
use vino_sim::profile::ProfilePlane;

/// Default per-key drift tolerance, in percent.
pub const DEFAULT_TOLERANCE_PCT: f64 = 2.0;

/// Invocations in the pinned workload.
pub const REPS: u64 = 50;

/// The pinned workload: lock the shared buffer, walk a small loop
/// through an intra-graft subroutine (so the call tree has depth), and
/// touch memory (so the safe variant pays SFI clamps).
pub const PROFDIFF_SRC: &str = "
    const r1, 0          ; shared-buffer lock handle
    call $lock
    call $shared_base
    mov r6, r0
    const r4, 0
    const r9, 8
loop:
    bgeu r4, r9, done
    calll work
    addi r4, r4, 1
    jmp loop
done:
    const r1, 0
    call $unlock         ; two-phase locking defers this to commit
    halt r5
work:
    loadw r10, [r6+0]
    add r5, r5, r10
    addi r5, r5, 3
    storew r5, [r6+4]
    ret
";

/// Runs the pinned workload and returns the world with its planes.
fn run_workload() -> (World, Rc<MetricsPlane>, Rc<ProfilePlane>) {
    let (mut w, mp, pp) = build_profiled(PROFDIFF_SRC, 8192, Variant::Safe, 1);
    w.graft.mem().graft_write_u32(0, 7);
    for _ in 0..REPS {
        // The dispatch indirection, charged at the call site as the
        // subsystems do.
        w.engine.obs.charge(Component::Indirection, Cycles(costs::INDIRECTION_CYCLES));
        let out = w.graft.invoke([0, 0, 0, 0]);
        assert!(
            matches!(out, vino_core::engine::InvokeOutcome::Ok { .. }),
            "profdiff workload must commit: {out:?}"
        );
    }
    (w, mp, pp)
}

/// Runs the pinned workload and renders the profile ledger as sorted
/// `<key> <value>` lines. Deterministic: the same tree always produces
/// the same bytes.
pub fn snapshot() -> String {
    let (w, mp, pp) = run_workload();
    let tag = mp.tag("bench-graft");
    let attr = mp.attribution(tag).expect("interned at install");
    let mut kv: BTreeMap<String, u64> = BTreeMap::new();
    kv.insert("graft.invocations".into(), attr.invocations);
    kv.insert("graft.instrs".into(), pp.instrs_of(tag));
    for c in Component::ALL {
        kv.insert(format!("graft.comp.{}", c.label()), attr.cycles[c as usize]);
    }
    let kernel = mp.kernel_attribution();
    for c in Component::ALL {
        kv.insert(format!("kernel.comp.{}", c.label()), kernel[c as usize]);
    }
    let (graft_fn, sfi, hits) = pp.pc_totals(tag);
    kv.insert("pc.graft_fn_cycles".into(), graft_fn.get());
    kv.insert("pc.sfi_cycles".into(), sfi.get());
    kv.insert("pc.hits".into(), hits);
    for f in pp.top_functions(4) {
        kv.insert(format!("fn.{}@{}.self", f.graft, f.entry), f.self_cycles);
        kv.insert(format!("fn.{}@{}.sfi", f.graft, f.entry), f.sfi_cycles);
        kv.insert(format!("fn.{}@{}.calls", f.graft, f.entry), f.calls);
    }
    kv.insert("spans.count".into(), pp.span_count() as u64);
    kv.insert("spans.dropped".into(), pp.spans_dropped());
    kv.insert("clock.total_cycles".into(), w.clock.now().get());
    let mut out = String::new();
    for (k, v) in kv {
        let _ = writeln!(out, "{k} {v}");
    }
    out
}

/// Parses a snapshot back into its key/value map. Unparseable lines are
/// reported, not skipped — a truncated baseline must not pass as "no
/// keys drifted".
pub fn parse(text: &str) -> Result<BTreeMap<String, u64>, String> {
    let mut kv = BTreeMap::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let (k, v) =
            line.rsplit_once(' ').ok_or_else(|| format!("line {}: no value in {line:?}", i + 1))?;
        let v: u64 =
            v.parse().map_err(|e| format!("line {}: bad value in {line:?}: {e}", i + 1))?;
        kv.insert(k.to_string(), v);
    }
    Ok(kv)
}

/// Diffs `current` against `baseline`. Returns the drift report: one
/// line per missing key, unexpected key, or value drifting more than
/// `tolerance_pct` percent. Empty report = gate passes.
pub fn compare(baseline: &str, current: &str, tolerance_pct: f64) -> Result<(), Vec<String>> {
    let (base, cur) = match (parse(baseline), parse(current)) {
        (Ok(b), Ok(c)) => (b, c),
        (b, c) => {
            let mut errs = Vec::new();
            if let Err(e) = b {
                errs.push(format!("baseline unreadable: {e}"));
            }
            if let Err(e) = c {
                errs.push(format!("current unreadable: {e}"));
            }
            return Err(errs);
        }
    };
    let mut errs = Vec::new();
    for (k, &b) in &base {
        match cur.get(k) {
            None => errs.push(format!("{k}: in baseline but missing from current profile")),
            Some(&c) => {
                let drift = (c as f64 - b as f64).abs() / (b.max(1) as f64) * 100.0;
                if drift > tolerance_pct {
                    errs.push(format!(
                        "{k}: baseline {b}, current {c} ({drift:+.1}% > {tolerance_pct}%)"
                    ));
                }
            }
        }
    }
    for k in cur.keys() {
        if !base.contains_key(k) {
            errs.push(format!("{k}: new key not in baseline (regenerate with --profdiff-write)"));
        }
    }
    if errs.is_empty() {
        Ok(())
    } else {
        Err(errs)
    }
}

/// The committed baseline's path.
pub fn baseline_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("profdiff.baseline")
}

/// Runs the gate against the committed baseline: `Ok(report)` on pass,
/// `Err(lines)` on drift.
pub fn check() -> Result<String, Vec<String>> {
    let baseline = std::fs::read_to_string(baseline_path())
        .map_err(|e| vec![format!("{}: {e} (run --profdiff-write)", baseline_path().display())])?;
    let current = snapshot();
    compare(&baseline, &current, DEFAULT_TOLERANCE_PCT)?;
    Ok(format!("profdiff: {} keys within {DEFAULT_TOLERANCE_PCT}%", current.lines().count()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_is_deterministic() {
        assert_eq!(snapshot(), snapshot(), "same tree, same bytes");
    }

    #[test]
    fn clean_tree_passes_the_gate() {
        let s = snapshot();
        assert!(compare(&s, &s, DEFAULT_TOLERANCE_PCT).is_ok());
        // The committed baseline matches the live tree (regenerate with
        // UPDATE_GOLDENS=1 or `--profdiff-write` after intentional
        // cost-model changes).
        if std::env::var("UPDATE_GOLDENS").is_ok() {
            std::fs::write(baseline_path(), &s).expect("write baseline");
            return;
        }
        match check() {
            Ok(_) => {}
            Err(errs) => panic!("profdiff gate failed:\n{}", errs.join("\n")),
        }
    }

    #[test]
    fn cost_model_perturbation_fails_the_gate() {
        let s = snapshot();
        // A deliberate perturbation: every SFI cycle gets 50% more
        // expensive — the drift a silent cost-model edit would cause.
        let perturbed: String = s
            .lines()
            .map(|l| match l.rsplit_once(' ') {
                Some((k, v)) if k.contains("sfi") => {
                    let v: u64 = v.parse().unwrap();
                    format!("{k} {}\n", v * 3 / 2)
                }
                _ => format!("{l}\n"),
            })
            .collect();
        let errs = compare(&s, &perturbed, DEFAULT_TOLERANCE_PCT)
            .expect_err("a 50% SFI drift must fail the gate");
        assert!(errs.iter().any(|e| e.contains("pc.sfi_cycles")), "{errs:?}");
    }

    #[test]
    fn missing_and_new_keys_are_reported() {
        let base = "a 1\nb 2\n";
        let cur = "a 1\nc 3\n";
        let errs = compare(base, cur, 100.0).unwrap_err();
        assert!(errs.iter().any(|e| e.starts_with("b:")), "{errs:?}");
        assert!(errs.iter().any(|e| e.starts_with("c:")), "{errs:?}");
        // Unreadable input is an error, never a silent pass.
        assert!(compare("garbage", "a 1\n", 100.0).is_err());
    }
}
