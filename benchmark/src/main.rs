//! The two-clock benchmark of the VINO simulation.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload <pkt-storm|graft-mix|fs-read|repl-commit> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run starts [`WORKERS`] worker processes in turn. Each generates the
//! workload's inputs from the seed, then runs complete episodes of it
//! (set-up, timed phase, correctness checks) until its share of
//! `--seconds` has passed. Virtual numbers come from the paper's cost
//! model and must repeat exactly in every episode of every worker; host
//! numbers are medians. With `--trace 0` the last line of standard
//! output is a JSON object carrying the end-to-end metrics; with
//! `--trace 1` traced and untraced episodes alternate, and the JSON
//! carries the per-layer metrics. See `README.md` beside this file.

mod episode;
mod fs_read;
mod graft_mix;
mod micro;
mod pkt_storm;
mod repl_commit;
mod spans;

use std::collections::BTreeMap;
use std::time::Instant;

use episode::{breakdown, iqr_share, median, quantile_sorted, ratio, us, Episode};
use spans::{COMP_ROWS, NCOMP};

/// End-to-end metrics: name, unit, clock.
const END_TO_END: [(&str, &str, &str); 6] = [
    ("ops_per_s", "1/s", "host"),
    ("vus_p50", "us", "virtual"),
    ("vus_p99", "us", "virtual"),
    ("vus_per_op", "us", "virtual"),
    ("setup_s", "s", "host"),
    ("peak_rss_mib", "MiB", "host"),
];

/// Per-layer metrics: name and unit. Every workload reports every row;
/// a layer the workload leaves idle reads 0.
const PER_LAYER: [(&str, &str); 55] = [
    ("net.rx.host_ns", "ns"),
    ("net.pump.host_ns_per_pkt", "ns"),
    ("net.drain.host_ns_per_pkt", "ns"),
    ("net.pump.vus_per_pkt", "us"),
    ("net.pump.own_vus_per_pkt", "us"),
    ("net.batch.pkts_per_dispatch", "count"),
    ("net.ring.depth_p99", "count"),
    ("net.gen_late.vus_p99", "us"),
    ("net.ring.shed_share", "ratio"),
    ("net.filtered_share", "ratio"),
    ("core.invoke.host_ns_p50", "ns"),
    ("core.invoke.host_ns_p99", "ns"),
    ("core.install.host_us", "us"),
    ("core.indirection.vus_per_op", "us"),
    ("core.result_check.vus_per_op", "us"),
    ("misfit.compile.host_us", "us"),
    ("misfit.sfi.vus_per_op", "us"),
    ("misfit.sfi.checks_per_op", "count"),
    ("vm.host_ns_per_instr", "ns"),
    ("vm.graft_fn.vus_per_op", "us"),
    ("vm.instrs_per_op", "count"),
    ("txn.begin.vus_per_op", "us"),
    ("txn.commit.vus_per_op", "us"),
    ("txn.lock.vus_per_op", "us"),
    ("txn.undo.vus_per_op", "us"),
    ("txn.abort.vus_per_op", "us"),
    ("txn.abort_share", "ratio"),
    ("fs.read.host_ns", "ns"),
    ("fs.cache.hit_ratio", "ratio"),
    ("fs.cache.late_hit_ratio", "ratio"),
    ("fs.prefetch.useful_ratio", "ratio"),
    ("fs.read.own_vus", "us"),
    ("fs.write.host_ns", "ns"),
    ("fs.write.vus", "us"),
    ("fs.journal.commits_per_op", "count"),
    ("dev.disk.busy_share", "ratio"),
    ("dev.disk.seeks_per_op", "count"),
    ("dev.disk.writes_per_op", "count"),
    ("repl.ship_round.host_us", "us"),
    ("repl.ship_round.vus", "us"),
    ("repl.retransmit_share", "ratio"),
    ("repl.useful_ratio", "ratio"),
    ("repl.lag_p99", "count"),
    ("sim.trace_emit.host_ns", "ns"),
    ("sim.trace_emit_ctx.host_ns", "ns"),
    ("sim.mint_span.host_ns", "ns"),
    ("sim.metrics_inc.host_ns", "ns"),
    ("sim.planes.overhead_share", "ratio"),
    ("model.err_pct.ra", "%"),
    ("model.err_pct.evict", "%"),
    ("model.err_pct.sched", "%"),
    ("model.err_pct.encrypt", "%"),
    ("fail_ratio", "ratio"),
    ("heldout.vus_per_op", "us"),
    ("heldout.vus_p99", "us"),
];

/// The per-layer rows that are host times (medians over traced
/// episodes); every other row is virtual or a count and repeats exactly.
fn is_host_row(name: &str) -> bool {
    name.contains("host_") || name.starts_with("sim.")
}

/// Worker processes per run.
const WORKERS: usize = 8;

/// The held-out seed reported beside the pinned one.
fn held_out(seed: u64) -> u64 {
    seed.wrapping_add(0x9E37_79B9_7F4A_7C15)
}

/// A workload's generated inputs.
enum Inputs {
    Pkt(Vec<pkt_storm::Offer>),
    Mix(graft_mix::Inputs),
    Fs(fs_read::Inputs),
    Repl(repl_commit::Inputs),
}

impl Inputs {
    fn generate(workload: &str, seed: u64) -> Option<Inputs> {
        Some(match workload {
            "pkt-storm" => Inputs::Pkt(pkt_storm::generate(seed)),
            "graft-mix" => Inputs::Mix(graft_mix::generate(seed)),
            "fs-read" => Inputs::Fs(fs_read::generate(seed)),
            "repl-commit" => Inputs::Repl(repl_commit::generate(seed)),
            _ => return None,
        })
    }

    fn episode(&self, traced: bool) -> Episode {
        match self {
            Inputs::Pkt(i) => pkt_storm::episode(i, traced),
            Inputs::Mix(i) => graft_mix::episode(i, traced),
            Inputs::Fs(i) => fs_read::episode(i, traced),
            Inputs::Repl(i) => repl_commit::episode(i, traced),
        }
    }
}

/// Reports a virtual-books divergence and exits non-zero.
pub fn diverged(workload: &str, why: &str) -> ! {
    eprintln!("{workload}: virtual reconciliation diverged: {why}");
    std::process::exit(3);
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set in a worker process: its index among the run's workers.
    worker: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut worker) =
        (None, None, None, None, None);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(val.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--worker" => {
                worker = Some(val.parse::<usize>().map_err(|e| format!("--worker: {e}"))?)
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        worker,
    })
}

/// Peak resident memory of this process, MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What the report keeps of each episode beyond the first.
struct Summary {
    setup_s: f64,
    timed_s: f64,
    ops_per_s: f64,
    layer: BTreeMap<String, f64>,
    compile_us: Vec<f64>,
    install_us: Vec<f64>,
}

fn summarize(ep: &Episode) -> Summary {
    Summary {
        setup_s: ep.setup_s,
        timed_s: ep.timed_s,
        ops_per_s: ep.attempted as f64 / ep.timed_s,
        layer: ep.layer.clone(),
        compile_us: ep.compile_us.clone(),
        install_us: ep.install_us.clone(),
    }
}

/// Host samples of the steady episodes: the first (warm-up) episode is
/// dropped once there are three or more.
fn steady<T>(v: &[T]) -> &[T] {
    if v.len() >= 3 {
        &v[1..]
    } else {
        v
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: --workload <pkt-storm|graft-mix|fs-read|repl-commit> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let Some(inputs) = Inputs::generate(&args.workload, args.seed) else {
        eprintln!("error: unknown workload {}", args.workload);
        std::process::exit(2);
    };
    match args.worker {
        Some(index) => worker(&args, &inputs, index),
        None => parent(&args),
    }
}

/// Runs the measurement in [`WORKERS`] worker processes, one after the
/// other, and reports host rows as medians over them. A process keeps
/// one placement on the host for its whole life, and that placement can
/// move its speed by a tenth; the median over several processes is
/// steady where one process is not. Virtual rows must agree across
/// workers exactly.
fn parent(args: &Args) {
    let exe = std::env::current_exe().expect("own executable path");
    let per = args.seconds / WORKERS as f64;
    let mut outs: Vec<WorkerOut> = Vec::new();
    for i in 0..WORKERS {
        let out = std::process::Command::new(&exe)
            .args(["--workload", &args.workload, "--seed", &args.seed.to_string()])
            .args(["--seconds", &per.to_string(), "--trace", if args.trace { "1" } else { "0" }])
            .args(["--worker", &i.to_string()])
            .stderr(std::process::Stdio::inherit())
            .output()
            .expect("worker process starts");
        if !out.status.success() {
            eprintln!("worker {i} failed: {}", out.status);
            std::process::exit(out.status.code().unwrap_or(4));
        }
        let text = String::from_utf8(out.stdout).expect("worker output is UTF-8");
        match WorkerOut::parse(&text) {
            Some(w) => outs.push(w),
            None => {
                eprintln!("worker {i} printed no result");
                std::process::exit(4);
            }
        }
    }
    if outs.iter().any(|o| o.digest != outs[0].digest) {
        diverged(&args.workload, "worker processes disagree on the virtual results of this seed");
    }
    print!("{}", outs[0].report);
    let names: Vec<(&str, &str, bool)> = if args.trace {
        PER_LAYER.iter().map(|(n, u)| (*n, *u, is_host_row(n))).collect()
    } else {
        END_TO_END.iter().map(|(n, u, c)| (*n, *u, *c == "host")).collect()
    };
    println!("-- host rows: median over {WORKERS} worker processes of {per:.2} s each");
    let mut metrics = Vec::new();
    for (name, unit, host) in names {
        let vals: Vec<f64> = outs.iter().filter_map(|o| o.metrics.get(name).copied()).collect();
        if vals.is_empty() {
            diverged(&args.workload, &format!("no worker reported {name}"));
        }
        let v = if host {
            let m = median(&vals);
            let shown: Vec<String> = vals.iter().map(|x| format!("{x:.4}")).collect();
            println!(
                "  {name:<30} {m:>14.4} {unit:<5} spread {:.3}  [{}]",
                iqr_share(&vals),
                shown.join(" ")
            );
            m
        } else {
            if vals.iter().any(|x| x.to_bits() != vals[0].to_bits()) {
                diverged(
                    &args.workload,
                    &format!("worker processes disagree on the virtual row {name}"),
                );
            }
            vals[0]
        };
        metrics.push(format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_num(v)));
    }
    let correct = outs.iter().all(|o| o.correct);
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outs[0].attempted,
        outs[0].failed,
        metrics.join(", ")
    );
}

/// What a worker process reports to the parent: its human-readable
/// report, then `#`-prefixed lines with its virtual digest, every
/// metric, and its verdict.
struct WorkerOut {
    report: String,
    digest: u64,
    metrics: BTreeMap<String, f64>,
    correct: bool,
    attempted: u64,
    failed: u64,
}

impl WorkerOut {
    fn parse(text: &str) -> Option<WorkerOut> {
        let mut report = String::new();
        let (mut digest, mut result) = (None, None);
        let mut metrics = BTreeMap::new();
        for line in text.lines() {
            if let Some(d) = line.strip_prefix("#digest ") {
                digest = u64::from_str_radix(d, 16).ok();
            } else if let Some(m) = line.strip_prefix("#metric ") {
                let (name, v) = m.split_once(' ')?;
                metrics.insert(name.to_string(), v.parse::<f64>().ok()?);
            } else if let Some(r) = line.strip_prefix("#result ") {
                let mut it = r.split(' ');
                result = Some((
                    it.next()? == "true",
                    it.next()?.parse().ok()?,
                    it.next()?.parse().ok()?,
                ));
            } else {
                report.push_str(line);
                report.push('\n');
            }
        }
        let (correct, attempted, failed) = result?;
        Some(WorkerOut { report, digest: digest?, metrics, correct, attempted, failed })
    }
}

/// One worker process: episodes until its share of the run's seconds
/// has passed, then its report, its virtual digest and its result line.
fn worker(args: &Args, inputs: &Inputs, index: usize) {
    let start = Instant::now();
    let min_each = if args.trace { 2 } else { 3 };
    let mut untraced: Vec<Summary> = Vec::new();
    let mut traced: Vec<Summary> = Vec::new();
    let mut first: Option<Episode> = None;
    let mut last_traced: Option<Episode> = None;
    let mut checks_ok = true;
    let mut failed_checks: Vec<String> = Vec::new();
    loop {
        let done_time = start.elapsed().as_secs_f64() >= args.seconds;
        let done_count = untraced.len() >= min_each && (!args.trace || traced.len() >= min_each);
        if done_time && done_count {
            break;
        }
        // Traced runs alternate untraced and traced episodes so drift in
        // the host hits both alike.
        let trace_now = args.trace && traced.len() < untraced.len();
        let ep = inputs.episode(trace_now);
        for (name, ok) in &ep.checks {
            if !ok {
                checks_ok = false;
                if !failed_checks.contains(name) {
                    failed_checks.push(name.clone());
                }
            }
        }
        if let Some(f) = &first {
            if f.digest != ep.digest {
                diverged(
                    &args.workload,
                    "an episode's virtual results differ from the first episode of this seed",
                );
            }
        }
        if trace_now {
            traced.push(summarize(&ep));
            last_traced = Some(ep);
        } else {
            untraced.push(summarize(&ep));
            if first.is_none() {
                first = Some(ep);
            }
        }
    }
    let first = first.expect("at least one untraced episode");

    // ---- End-to-end metrics (untraced episodes). ----
    let mut lat = first.lat.clone();
    lat.sort_unstable();
    let ops_per_s: Vec<f64> = steady(&untraced).iter().map(|s| s.ops_per_s).collect();
    let setup: Vec<f64> = steady(&untraced).iter().map(|s| s.setup_s).collect();
    let fail_ratio = ratio((first.failed + first.refused) as f64, first.attempted as f64);
    let e2e: BTreeMap<&str, f64> = BTreeMap::from([
        ("ops_per_s", median(&ops_per_s)),
        ("vus_p50", us(quantile_sorted(&lat, 0.50))),
        ("vus_p99", us(quantile_sorted(&lat, 0.99))),
        ("vus_per_op", us(first.busy) / first.attempted as f64),
        ("setup_s", median(&setup)),
        ("peak_rss_mib", peak_rss_mib()),
    ]);

    println!(
        "== {} — seed {} — {} untraced + {} traced episodes in {:.1} s host",
        args.workload,
        args.seed,
        untraced.len(),
        traced.len(),
        start.elapsed().as_secs_f64()
    );
    println!("-- end to end (virtual rows repeat exactly for a seed; host rows are medians over steady episodes)");
    for (name, unit, clock) in END_TO_END {
        let v = e2e[name];
        let extra = match name {
            "ops_per_s" => {
                format!("spread {:.3} over {} episodes", iqr_share(&ops_per_s), ops_per_s.len())
            }
            "setup_s" => format!("spread {:.3} over {} episodes", iqr_share(&setup), setup.len()),
            "vus_p50" | "vus_p99" => format!("{} latency samples", lat.len()),
            "vus_per_op" => format!("busy virtual time / {} ops", first.attempted),
            _ => String::new(),
        };
        println!("  {name:<14} {v:>14.4} {unit:<5} [{clock}] {extra}");
    }
    println!(
        "  {:<14} {:>14.6} {:<5} [count] ({} failed + {} refused) / {} attempted",
        "fail_ratio", fail_ratio, "ratio", first.failed, first.refused, first.attempted
    );
    println!("-- virtual time of the timed phase: calls {:.1} us + generator idle {:.1} us + app compute {:.1} us = {:.1} us",
        us(first.busy), us(first.idle), us(first.compute), us(first.elapsed));
    if first.busy + first.idle + first.compute != first.elapsed {
        diverged(&args.workload, "calls + idle + compute do not sum to the elapsed virtual time");
    }
    for n in &first.notes {
        println!("  {n}");
    }
    println!("-- correctness");
    for (name, ok) in &first.checks {
        println!("  [{}] {name}", if *ok { "ok" } else { "FAIL" });
    }
    for name in &failed_checks {
        println!("  [FAIL in a later episode] {name}");
    }

    println!("#digest {:016x}", first.digest);
    if !args.trace {
        for (name, _, _) in END_TO_END {
            println!("#metric {name} {:?}", e2e[name]);
        }
        println!("#result {checks_ok} {} {}", first.attempted, first.failed);
        return;
    }

    // ---- Per-layer metrics (traced episodes). ----
    let ep = last_traced.expect("traced runs record at least one traced episode");
    let tr = ep.tracer.as_ref().expect("traced episode keeps its spans");
    let aggs = tr.aggregate();
    let mut layer: BTreeMap<String, f64> =
        PER_LAYER.iter().map(|(n, _)| (n.to_string(), 0.0)).collect();
    // Workload rows: host rows are medians over traced episodes.
    for key in ep.layer.keys() {
        let vals: Vec<f64> = traced.iter().filter_map(|s| s.layer.get(key).copied()).collect();
        layer.insert(key.clone(), if is_host_row(key) { median(&vals) } else { ep.layer[key] });
    }
    let ops = ep.attempted as f64;
    let (rows, comps) = breakdown(&aggs);
    for i in 0..NCOMP {
        layer.insert(format!("{}.vus_per_op", COMP_ROWS[i]), us(comps[i]) / ops);
    }
    let d = |i: usize| tr.counter_delta(i) as f64;
    layer.insert("vm.instrs_per_op".into(), d(0) / ops);
    layer.insert("misfit.sfi.checks_per_op".into(), (d(1) + d(2)) / ops);
    layer.insert("txn.abort_share".into(), ratio(d(4), d(3)));
    let compile: Vec<f64> = traced.iter().flat_map(|s| s.compile_us.iter().copied()).collect();
    let install: Vec<f64> = traced.iter().flat_map(|s| s.install_us.iter().copied()).collect();
    layer.insert("misfit.compile.host_us".into(), median(&compile));
    layer.insert("core.install.host_us".into(), median(&install));
    let t_traced = median(&traced.iter().map(|s| s.timed_s).collect::<Vec<_>>());
    let t_plain = median(&untraced.iter().map(|s| s.timed_s).collect::<Vec<_>>());
    layer.insert("sim.planes.overhead_share".into(), t_traced / t_plain - 1.0);
    layer.insert("fail_ratio".into(), fail_ratio);
    let micro = micro::run();
    for row in &micro {
        layer.insert(row.name.to_string(), row.median_ns);
    }
    for n in &ep.notes {
        if !first.notes.contains(n) {
            println!("  {n}");
        }
    }
    // The held-out seed and the span dump come from the first worker.
    if index == 0 {
        let held = Inputs::generate(&args.workload, held_out(args.seed))
            .expect("known workload")
            .episode(false);
        let mut held_lat = held.lat.clone();
        held_lat.sort_unstable();
        layer.insert("heldout.vus_per_op".into(), us(held.busy) / held.attempted as f64);
        layer.insert("heldout.vus_p99".into(), us(quantile_sorted(&held_lat, 0.99)));
        let held_ok = held.checks.iter().all(|(_, ok)| *ok);
        checks_ok &= held_ok;
        println!(
            "-- held-out seed {}: vus_per_op {:.4} us, vus_p99 {:.4} us, fail_ratio {:.6}, checks {}",
            held_out(args.seed),
            layer["heldout.vus_per_op"],
            layer["heldout.vus_p99"],
            ratio((held.failed + held.refused) as f64, held.attempted as f64),
            if held_ok { "ok" } else { "FAIL" }
        );
        let path = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
            .join(format!("{}.spans.tsv", args.workload));
        match tr.write_tsv(&path) {
            Ok(()) => println!("-- spans of the last traced episode written to {}", path.display()),
            Err(e) => eprintln!("warning: could not write spans to {}: {e}", path.display()),
        }
    } else {
        layer.remove("heldout.vus_per_op");
        layer.remove("heldout.vus_p99");
    }

    // The layer rows must partition the end-to-end virtual figure.
    let total: u64 = rows.iter().map(|(_, c)| c).sum();
    println!("-- virtual breakdown per op (rows sum to vus_per_op)");
    for (name, c) in &rows {
        if *c > 0 {
            println!("  {name:<34} {:>12.4} us", us(*c) / ops);
        }
    }
    println!(
        "  {:<34} {:>12.4} us (vus_per_op {:.4}, residual {} cycles)",
        "sum",
        us(total) / ops,
        e2e["vus_per_op"],
        total as i64 - ep.busy as i64
    );
    if total != ep.busy {
        diverged(
            &args.workload,
            "per-layer virtual rows do not sum to the end-to-end virtual figure",
        );
    }
    println!("-- per-layer (traced episodes; host rows include the attached planes)");
    for (name, unit) in PER_LAYER {
        if let Some(v) = layer.get(name) {
            println!("  {name:<30} {v:>14.4} {unit}");
        }
    }
    println!("-- plane micro-rows (median of {} rounds; spread = IQR / median)", micro[0].rounds);
    for row in &micro {
        println!("  {:<30} {:>8.2} ns  spread {:.3}", row.name, row.median_ns, row.spread);
    }
    for (name, v) in &layer {
        println!("#metric {name} {v:?}");
    }
    println!("#result {checks_ok} {} {}", ep.attempted, ep.failed);
}

/// A finite JSON number with all its digits.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}
