//! Layered host-time benchmark of the Hipster simulator.
//!
//! ```text
//! cargo run --release --manifest-path hostbench/Cargo.toml -- \
//!     --workload <node-diurnal|cluster-bursty|cluster-zonewave> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Run from the repository root. Each workload is shaped like a real
//! `repro` command and declared through the repro's own public
//! factories. `--trace 0` prints the end-to-end metrics; `--trace 1`
//! runs the workload untraced, then again with the layer probes
//! attached, and prints the per-layer metrics. The last line of standard
//! output is one JSON object; the exit code is non-zero when any output
//! check fails. Working files (the sweep journal, span dumps) go under
//! `.hostbench/`.

mod bursty;
mod diurnal;
mod layers;
mod probe;
mod stats;
mod table3;
mod zonewave;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use hipster_core::ClusterOutcome;

use crate::layers::LayerAcc;

/// FNV-1a offset basis.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into an FNV-1a hash.
pub fn fnv(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Output digest of a cluster run: decision digest, decision count,
/// trace CSV and summary.
pub fn cluster_digest(outcome: &ClusterOutcome) -> u64 {
    let hash = fnv(FNV_BASIS, &outcome.decision_digest.to_le_bytes());
    let hash = fnv(hash, &outcome.decisions.to_le_bytes());
    let hash = fnv(hash, outcome.trace.to_csv().as_bytes());
    fnv(hash, format!("{:?}", outcome.summary).as_bytes())
}

/// One output check.
#[derive(Debug)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
}

/// Everything one run of a workload measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Host seconds of each repetition of the timed phase; each
    /// repetition completes `completions / phase_s.len()` requests.
    pub phase_s: Vec<f64>,
    /// Worker threads of the timed phase.
    pub workers: usize,
    /// Simulated requests completed in the timed phase.
    pub completions: u64,
    /// Host seconds of each set-up round.
    pub setup_s: Vec<f64>,
    /// Host milliseconds of each simulated interval step.
    pub step_ms: Vec<f64>,
    /// Output digest (equal on traced and untraced runs).
    pub digest: u64,
    /// Operations (cells, cluster steps, resumes, re-runs) attempted.
    pub attempted: u64,
    /// Operations that panicked, errored or failed an output check
    /// (counted by [`Measured::check`]).
    pub failed: u64,
    /// Output checks.
    pub checks: Vec<Check>,
    /// Workload-specific report lines.
    pub report: Vec<String>,
    /// Per-layer spans and counts (traced runs only).
    pub layers: LayerAcc,
}

impl Measured {
    /// Records an output check; a failed one is a failed operation.
    pub fn check(&mut self, name: &str, ok: bool) {
        self.check_ops(name, ok, 1);
    }

    /// Records an output check that covers `ops` operations, all failed
    /// when it does not hold.
    pub fn check_ops(&mut self, name: &str, ok: bool, ops: u64) {
        if !ok {
            self.failed += ops;
        }
        self.checks.push(Check {
            name: name.to_owned(),
            ok,
        });
    }

    /// Host seconds of the whole timed phase.
    fn timed_s(&self) -> f64 {
        self.phase_s.iter().sum()
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }
}

const WORKLOADS: [&str; 3] = ["node-diurnal", "cluster-bursty", "cluster-zonewave"];

/// Parsed command line.
struct Args {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn default_seed(workload: &str) -> u64 {
    match workload {
        "node-diurnal" => table3::REPRO_SEED,
        // `repro cluster` seeds its HipsterIn cells with 90.
        "cluster-bursty" => 90,
        // `repro faults` runs its wave cells at seed 412.
        _ => 412,
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                workload = Some(*WORKLOADS.iter().find(|&&k| k == w).ok_or(format!(
                    "unknown workload {w:?}; expected one of {WORKLOADS:?}"
                ))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if seconds == 0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed: seed.unwrap_or_else(|| default_seed(workload)),
        seconds,
        trace,
    })
}

fn run(args: &Args, traced: bool, dir: &Path) -> Measured {
    match args.workload {
        "node-diurnal" => diurnal::run(args.seed, traced, dir),
        "cluster-bursty" => {
            let steps = (bursty::STEPS_PER_SECOND * args.seconds).max(100);
            bursty::run(args.seed, steps as usize, traced)
        }
        _ => zonewave::run(args.seed, zonewave::PAIRS_PER_SECOND * args.seconds, traced),
    }
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// A metric as printed.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value; `None` when not measurable, which fails the run.
    pub value: Option<f64>,
    /// Samples behind the value.
    pub n: usize,
}

fn metric(name: &'static str, unit: &'static str, value: Option<f64>, n: usize) -> Metric {
    Metric {
        name,
        unit,
        value,
        n,
    }
}

fn end_to_end(m: &Measured) -> Vec<Metric> {
    // Median over repetitions of the timed phase, each doing equal work.
    let per_phase = m.completions as f64 / m.phase_s.len().max(1) as f64;
    let rates: Vec<f64> = m.phase_s.iter().map(|&s| per_phase / s).collect();
    let steps = m.step_ms.len();
    vec![
        metric("sim_req_per_s", "req/s", stats::median(&rates), rates.len()),
        metric("step_ms_p50", "ms", stats::median(&m.step_ms), steps),
        metric("setup_s", "s", stats::median(&m.setup_s), m.setup_s.len()),
        metric("peak_rss_mb", "MB", peak_rss_mb(), 1),
    ]
}

fn json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = m.value.filter(|v| v.is_finite()).unwrap_or(0.0);
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn print_run(label: &str, m: &Measured) {
    println!(
        "[{label}] timed phase {:.4} s on {} worker(s); {} simulated requests; digest {:016x}",
        m.timed_s(),
        m.workers,
        m.completions,
        m.digest
    );
    for line in &m.report {
        println!("[{label}] {line}");
    }
    for c in &m.checks {
        println!(
            "[{label}] check {}: {}",
            if c.ok { "ok" } else { "FAILED" },
            c.name
        );
    }
}

fn print_metrics(metrics: &[Metric]) -> bool {
    for m in metrics {
        match m.value {
            Some(v) => println!("{} = {v} {} (n={})", m.name, m.unit, m.n),
            None => println!("{} = not measurable (n={})", m.name, m.n),
        }
    }
    metrics.iter().all(|m| m.value.is_some_and(f64::is_finite))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hostbench: {e}");
            return ExitCode::from(2);
        }
    };
    let dir = PathBuf::from(".hostbench");
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("hostbench: create {}: {e}", dir.display());
        return ExitCode::from(2);
    }
    println!(
        "hostbench {} seed {} seconds {} trace {} ({} cores available)",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );

    let plain = run(&args, false, &dir);
    print_run("untraced", &plain);
    let (correct, attempted, failed, metrics) = if args.trace {
        let mut traced = run(&args, true, &dir);
        print_run("traced", &traced);
        let same = traced.digest == plain.digest;
        println!(
            "check {}: traced digest equals untraced",
            if same { "ok" } else { "FAILED" }
        );
        let overhead = if plain.timed_s() > 0.0 {
            traced.timed_s() / plain.timed_s() - 1.0
        } else {
            0.0
        };
        traced.layers.set("trace.overhead_frac", overhead, 1);
        let worker_s = traced.timed_s() * traced.workers.max(1) as f64;
        let metrics = traced.layers.metrics(worker_s);
        let spans_path = dir.join(format!("spans-{}.csv", args.workload));
        if let Err(e) = std::fs::write(&spans_path, traced.layers.spans.to_csv()) {
            eprintln!("hostbench: write {}: {e}", spans_path.display());
        }
        println!(
            "spans: {} written to {}",
            traced.layers.spans.0.len(),
            spans_path.display()
        );
        let measurable = print_metrics(&metrics);
        (
            plain.correct() && traced.correct() && same && measurable,
            plain.attempted + traced.attempted,
            plain.failed + traced.failed + u64::from(!same),
            metrics,
        )
    } else {
        let metrics = end_to_end(&plain);
        let measurable = print_metrics(&metrics);
        // The step tail is reported but not gated: on a shared VM the
        // heaviest steps slow down most when neighbours contend for
        // memory, and its run-to-run spread exceeds any allowed bound.
        match stats::tail(&plain.step_ms, 0.90) {
            Some(v) => println!(
                "step_ms_p90 = {v} ms (n={}; not gated)",
                plain.step_ms.len()
            ),
            None => println!("step_ms_p90 = not measurable (n={})", plain.step_ms.len()),
        }
        (
            plain.correct() && measurable,
            plain.attempted,
            plain.failed,
            metrics,
        )
    };
    println!("{}", json(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
