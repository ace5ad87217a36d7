//! `node-diurnal`: `repro table3` run as a journaled sweep.
//!
//! Ten cells — {Memcached, Web-Search} × {Static-Big, Static-Small,
//! Heuristic, Octopus-Man, HipsterIn} over the paper's diurnal day —
//! declared with the repro's own `runner` factories, run on one
//! [`Fleet`] through [`Fleet::resume`] into a fresh [`FileStore`]. A
//! resume phase then reopens the completed store and restores every
//! cell without re-running any.

use std::path::Path;

use hipster_bench::runner::{
    heuristic_mapper, hipster_in, octopus_man, scenario, static_all_big, static_all_small,
    PolicyFn, Workload,
};
use hipster_core::{FileStore, Fleet, FleetStats, PanicPolicy, ScenarioOutcome, ScenarioSpec};
use hipster_workloads::Diurnal;

use crate::probe::{now_ns, secs, SharedLog, StampSink, TimedStore};
use crate::{fnv, stats, table3, Measured, FNV_BASIS};

/// Monitoring intervals per cell: the paper's 2100 s diurnal day.
pub const INTERVALS: usize = 2100;
/// HipsterIn learning-phase length, intervals (as `repro table3`).
pub const LEARN: u64 = 500;
/// Set-up rounds (declare and build every cell, create the store).
const SETUP_ROUNDS: usize = 101;
/// Resume repetitions over the completed store.
const RESUME_ROUNDS: usize = 5;

fn policies(workload: Workload) -> [PolicyFn; 5] {
    let zones = workload.tuned_zones();
    let bucket = if workload == Workload::Memcached {
        0.03
    } else {
        0.06
    };
    [
        static_all_big(),
        static_all_small(),
        heuristic_mapper(zones),
        octopus_man(zones),
        hipster_in(zones, LEARN, bucket),
    ]
}

/// One declared cell and the log its probes fill.
struct Cell {
    workload: Workload,
    log: SharedLog,
}

/// Declares the ten cells in `repro table3` order, each with a
/// [`StampSink`]; `traced` also times every `decide`.
fn declare(seed: u64, traced: bool) -> (Vec<ScenarioSpec>, Vec<Cell>) {
    let mut specs = Vec::new();
    let mut cells = Vec::new();
    for workload in Workload::BOTH {
        for (name, policy) in table3::POLICIES.iter().zip(policies(workload)) {
            let log = SharedLog::default();
            let policy = if traced {
                crate::probe::timed(policy, log.clone())
            } else {
                policy
            };
            let spec = scenario(
                format!("table3/{}/{name}", workload.name()),
                workload,
                Diurnal::paper(),
                policy,
                INTERVALS,
                seed,
            )
            .sink(Box::new(StampSink(log.clone())));
            specs.push(spec);
            cells.push(Cell { workload, log });
        }
    }
    (specs, cells)
}

/// FNV over a cell's trace CSV and summary.
fn outcome_digest(outcome: &ScenarioOutcome) -> u64 {
    let hash = fnv(FNV_BASIS, outcome.name.as_bytes());
    let hash = fnv(hash, outcome.trace.to_csv().as_bytes());
    fnv(hash, format!("{:?}", outcome.summary).as_bytes())
}

fn sweep_digest(digests: &[u64]) -> u64 {
    digests
        .iter()
        .fold(FNV_BASIS, |h, d| fnv(h, &d.to_le_bytes()))
}

/// Runs the workload once.
pub fn run(seed: u64, traced: bool, dir: &Path) -> Measured {
    let mut m = Measured::default();
    let store_dir = dir.join("node-diurnal-store");

    // --- Set-up: declare and build every cell, then create the store.
    // Store creation is fsync-bound (0.3-12 ms a call on a shared disk),
    // so it is timed apart from `setup_s` as the `store.create_s` layer
    // metric.
    let mut store = None;
    let mut create_s = Vec::new();
    for _ in 0..SETUP_ROUNDS {
        let start = now_ns();
        let (specs, _) = declare(seed, traced);
        for spec in specs {
            let name = spec.name().to_owned();
            if let Err(e) = spec.build() {
                m.check(&format!("cell {name} builds ({e})"), false);
            }
        }
        let built = now_ns();
        m.setup_s.push(secs(start, built));
        let created = FileStore::create(&store_dir);
        create_s.push(secs(built, now_ns()));
        match created {
            Ok(s) => store = Some(s),
            Err(e) => {
                m.check(&format!("store created ({e})"), false);
                return m;
            }
        }
    }
    let create = stats::quartiles(&create_s).expect("set-up rounds ran");
    m.report.push(format!(
        "store create: median {:.6} s (q1 {:.6}, q3 {:.6}, n={}; fsync-bound, not in setup_s)",
        create.median, create.q1, create.q3, create.n
    ));
    let mut store = TimedStore::new(store.expect("at least one set-up round"));

    // --- Timed phase: the journaled sweep.
    let (specs, cells) = declare(seed, traced);
    let fleet: Fleet = specs.into_iter().collect();
    let fleet = fleet.panic_policy(PanicPolicy::Quarantine);
    m.attempted += cells.len() as u64;
    let start = now_ns();
    let result = fleet.resume(&mut store);
    let end = now_ns();
    m.phase_s.push(secs(start, end));
    let (outcomes, sweep) = match result {
        Ok(r) => r,
        Err(e) => {
            m.check_ops(&format!("sweep ran ({e})"), false, cells.len() as u64);
            return m;
        }
    };
    m.workers = sweep.workers;
    let missing = (cells.len() - outcomes.len()) as u64;
    m.check_ops("every cell completed", missing == 0, missing);
    if outcomes.len() != cells.len() {
        return m;
    }
    let fresh: Vec<u64> = outcomes.iter().map(outcome_digest).collect();
    m.digest = sweep_digest(&fresh);
    let short = outcomes
        .iter()
        .filter(|o| o.trace.len() != INTERVALS)
        .count();
    m.check_ops(
        &format!("every cell ran {INTERVALS} intervals"),
        short == 0,
        short as u64,
    );
    for o in &outcomes {
        for s in o.trace.intervals() {
            m.completions += s.completions as u64;
            m.layers.arrivals += s.arrivals as u64;
            m.layers.timeouts += s.timeouts as u64;
        }
    }

    // Host time of one Memcached node interval: consecutive
    // `on_interval` stamps (the first from `on_run_start`).
    let logs: Vec<_> = cells.iter().map(|c| (c.workload, c.log.take())).collect();
    for (workload, log) in &logs {
        if *workload != Workload::Memcached {
            continue;
        }
        let mut prev = log.run_start;
        for &stamp in &log.intervals {
            m.step_ms.push(secs(prev, stamp) * 1e3);
            prev = stamp;
        }
    }

    table3_report(&mut m, &outcomes, seed);
    drop(outcomes);

    // --- Resume phase: reopen the completed store, restore every cell.
    let journal_bytes = std::fs::metadata(FileStore::journal_path(&store_dir))
        .map(|md| md.len())
        .unwrap_or(0);
    let record_ns: Vec<(u64, u64)> = std::mem::take(&mut store.records);
    drop(store);
    let mut resume_s = Vec::new();
    let mut open_s = Vec::new();
    let mut restore_s = Vec::new();
    let mut resume_failures = 0;
    for round in 0..RESUME_ROUNDS {
        let (specs, _) = declare(seed, false);
        let fleet: Fleet = specs.into_iter().collect();
        m.attempted += 1;
        let start = now_ns();
        let opened = FileStore::open(&store_dir);
        let open_end = now_ns();
        let restored = opened
            .map_err(|e| e.to_string())
            .and_then(|mut s| fleet.resume(&mut s).map_err(|e| e.to_string()));
        let end = now_ns();
        let ok = match &restored {
            Ok((outs, st)) => {
                let digests: Vec<u64> = outs.iter().map(outcome_digest).collect();
                st.resumed == cells.len() && st.scenarios == 0 && digests == fresh
            }
            Err(_) => false,
        };
        if !ok {
            resume_failures += 1;
            if let Err(e) = &restored {
                m.report.push(format!("resume round {round} failed: {e}"));
            }
        }
        resume_s.push(secs(start, end));
        open_s.push(secs(start, open_end));
        restore_s.push(secs(open_end, end));
    }
    m.check_ops(
        "every resume restores all cells byte-identically, none re-run",
        resume_failures == 0,
        resume_failures,
    );
    let resume = stats::quartiles(&resume_s).expect("resume rounds ran");
    m.report.push(format!(
        "resume_s = {:.6} s (median of {} resumes; q1 {:.6}, q3 {:.6}; {} cells restored, 0 re-run)",
        resume.median,
        resume.n,
        resume.q1,
        resume.q3,
        cells.len()
    ));
    let _ = std::fs::remove_dir_all(&store_dir);

    if traced {
        let store = StoreTimes {
            create_s,
            record_ns,
            journal_bytes,
            open_s,
            restore_s,
        };
        layers(&mut m, &logs, &sweep, &store);
    }
    m
}

/// Table 3 errors, the seed-111 cross-check against `repro table3`, and
/// the output digest.
fn table3_report(m: &mut Measured, outcomes: &[ScenarioOutcome], seed: u64) {
    let mut qos = [[0.0; 5]; 2];
    let mut energy = [[0.0; 4]; 2];
    for (w, row) in outcomes.chunks(5).enumerate() {
        let baseline = &row[0].summary;
        for (p, o) in row.iter().enumerate() {
            qos[w][p] = o.summary.qos_guarantee_pct;
            if p > 0 {
                energy[w][p - 1] = o.summary.energy_reduction_pct_vs(baseline);
            }
        }
    }
    let qos_err = table3::qos_err_pp(&qos);
    let energy_err = table3::energy_err_pp(&energy);
    m.report.push(format!(
        "table3_qos_err_pp = {qos_err:.4} pp (mean |measured - paper| over 10 QoS cells)"
    ));
    m.report.push(format!(
        "table3_energy_err_pp = {energy_err:.4} pp (mean |measured - paper| over 8 energy cells)"
    ));
    for (w, workload) in Workload::BOTH.iter().enumerate() {
        let cells: Vec<String> = (0..5)
            .map(|p| {
                let e = if p == 0 {
                    "-".to_string()
                } else {
                    format!("{:.1}", energy[w][p - 1])
                };
                format!("{:.1}/{e}", qos[w][p])
            })
            .collect();
        m.report.push(format!(
            "table3 {} qos%/energy% by policy: {}",
            workload.name(),
            cells.join(" ")
        ));
    }
    if seed == table3::REPRO_SEED {
        m.check(
            "QoS column equals repro table3 at seed 111",
            table3::matches_printed(&qos, &table3::REPRO_QOS_PCT),
        );
        m.check(
            "energy column equals repro table3 at seed 111",
            table3::matches_printed(&energy, &table3::REPRO_ENERGY_PCT),
        );
    }
}

/// Host times of the store layer.
struct StoreTimes {
    create_s: Vec<f64>,
    record_ns: Vec<(u64, u64)>,
    journal_bytes: u64,
    open_s: Vec<f64>,
    restore_s: Vec<f64>,
}

/// Per-layer metrics of the traced sweep.
fn layers(
    m: &mut Measured,
    logs: &[(Workload, crate::probe::Log)],
    fleet: &FleetStats,
    store: &StoreTimes,
) {
    let acc = &mut m.layers;
    let mut cell_s = Vec::new();
    let mut memcached_cell_s = Vec::new();
    let mut aligned = true;
    for (workload, log) in logs {
        let built = log.built.unwrap_or(log.run_start);
        let cell = acc.spans.push("fleet", None, built, log.run_end);
        cell_s.push(secs(built, log.run_end));
        if *workload == Workload::Memcached {
            memcached_cell_s.push(secs(built, log.run_end));
        }
        aligned &= log.decides.len() == INTERVALS && log.intervals.len() == INTERVALS;
        for (&decide, &end) in log.decides.iter().zip(&log.intervals) {
            acc.node_step(decide, end, cell, *workload == Workload::Memcached);
        }
    }
    acc.completions = m.completions;
    m.check("every interval has one decide and one sink stamp", aligned);
    let acc = &mut m.layers;
    // Memcached cells take seconds, Web-Search cells milliseconds: the
    // median is taken over the Memcached cells, where the wall goes.
    acc.fleet(std::slice::from_ref(fleet), &cell_s, &memcached_cell_s);
    let create = stats::median(&store.create_s).unwrap_or(0.0);
    acc.set("store.create_s", create, store.create_s.len());
    let rec_ms: Vec<f64> = store
        .record_ns
        .iter()
        .map(|&(s, e)| secs(s, e) * 1e3)
        .collect();
    let rec_total_s: f64 = rec_ms.iter().sum::<f64>() * 1e-3;
    let n = rec_ms.len();
    acc.set(
        "store.record_ms_p50",
        stats::median(&rec_ms).unwrap_or(0.0),
        n,
    );
    acc.set(
        "store.record_ms_max",
        rec_ms.iter().copied().fold(0.0, f64::max),
        n,
    );
    acc.set("store.records", n as f64, 1);
    acc.set("store.journal_bytes", store.journal_bytes as f64, 1);
    let mb = store.journal_bytes as f64 * 1e-6;
    let write = if rec_total_s > 0.0 {
        mb / rec_total_s
    } else {
        0.0
    };
    acc.set("store.write_mb_per_s", write, n);
    let open = stats::median(&store.open_s).unwrap_or(0.0);
    acc.set("store.open_s", open, store.open_s.len());
    let decode = if open > 0.0 { mb / open } else { 0.0 };
    acc.set("store.decode_mb_per_s", decode, store.open_s.len());
    let restore = stats::median(&store.restore_s).unwrap_or(0.0);
    acc.set("store.restore_s", restore, store.restore_s.len());
}
