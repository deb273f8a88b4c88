//! What one episode of a workload leaves behind, and the statistics
//! the report draws from it.
//!
//! An episode is one complete, seeded run of a workload: set-up, the
//! timed phase, then the correctness checks. Its virtual results are a
//! pure function of the seed, so every episode of a run must produce
//! the same [`Episode::digest`]; host results differ run to run and are
//! reported as medians over episodes.

use std::collections::BTreeMap;

use vino_sim::clock::CYCLES_PER_US;

use crate::spans::{Agg, Tracer, COMP_ROWS, NCOMP};

/// One episode's results.
#[derive(Default)]
pub struct Episode {
    /// Host seconds of set-up: boot, format, pre-fill, compile, install.
    pub setup_s: f64,
    /// Host seconds of the timed phase.
    pub timed_s: f64,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops whose output was wrong or whose call failed.
    pub failed: u64,
    /// Ops refused by admission control (shed or overflowed packets).
    pub refused: u64,
    /// Virtual latency of every op that completed, in cycles.
    pub lat: Vec<u64>,
    /// Virtual cycles spent inside calls into the system.
    pub busy: u64,
    /// Virtual cycles the generator idled waiting for the next due time.
    pub idle: u64,
    /// Virtual cycles of application compute between ops.
    pub compute: u64,
    /// Virtual cycles of the whole timed phase.
    pub elapsed: u64,
    /// Named correctness checks and whether each held.
    pub checks: Vec<(String, bool)>,
    /// Workload-specific per-layer metrics (name → value).
    pub layer: BTreeMap<String, f64>,
    /// Workload-specific lines for the human-readable report.
    pub notes: Vec<String>,
    /// The span recorder, for traced episodes.
    pub tracer: Option<Tracer>,
    /// Host µs of each compile (`Kernel::compile_graft`) in set-up.
    pub compile_us: Vec<f64>,
    /// Host µs of each install in set-up.
    pub install_us: Vec<f64>,
    /// Hash over every virtual result of the episode.
    pub digest: u64,
}

impl Episode {
    /// Adds a named check.
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.checks.push((name.into(), ok));
    }

    /// Seals the episode's virtual digest (FNV-1a) from its latencies and
    /// its virtual counts.
    pub fn seal(&mut self) {
        let counts = [
            self.attempted,
            self.failed,
            self.refused,
            self.busy,
            self.idle,
            self.compute,
            self.elapsed,
        ];
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for v in self.lat.iter().chain(counts.iter()) {
            for b in v.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        self.digest = h;
    }
}

/// Cycles to virtual µs.
pub fn us(cycles: u64) -> f64 {
    cycles as f64 / CYCLES_PER_US as f64
}

/// Nearest-rank quantile `q` of a sorted slice (0 when empty).
pub fn quantile_sorted(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of host samples (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("host samples are finite"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Interquartile range of host samples as a share of their median's size.
pub fn iqr_share(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("host samples are finite"));
    let at = |q: f64| {
        let pos = q * (v.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    };
    let m = median(xs).abs();
    if m == 0.0 {
        0.0
    } else {
        (at(0.75) - at(0.25)) / m
    }
}

/// `num / den`, or 0 for an empty base.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The traced episode's virtual breakdown: one row per span name for
/// its own remainder plus one row per ledger component, each as
/// virtual cycles summed over the episode. Generator idle time and
/// application compute are not calls and are left out, so the rows
/// partition the episode's busy time.
pub fn breakdown(aggs: &BTreeMap<&'static str, Agg>) -> (Vec<(String, u64)>, [u64; NCOMP]) {
    let mut rows = Vec::new();
    let mut comps = [0u64; NCOMP];
    for (name, a) in aggs {
        if matches!(*name, "gen.idle" | "app.compute") || a.vcycles == 0 {
            continue;
        }
        rows.push((format!("{name}.own_vus"), a.own_cycles()));
        for (t, c) in comps.iter_mut().zip(a.comps.iter()) {
            *t += c;
        }
    }
    for (i, c) in comps.iter().enumerate() {
        rows.push((format!("{}.vus", COMP_ROWS[i]), *c));
    }
    (rows, comps)
}
