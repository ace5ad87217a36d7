//! Fault injection & resilience — beyond-paper robustness results.
//!
//! Two fault regimes from the ROADMAP's scenario-diversity item strike
//! the simulator at both tiers:
//!
//! * **Transient revocations** (CloudCoaster-style): servers disappear
//!   for warned/unwarned epochs, in-flight work is preempted and
//!   requeued;
//! * **Heavy-tailed stragglers** (START-style): servers keep running but
//!   slow down by bounded-Pareto multipliers.
//!
//! Two tables come out. The *node* table injects core-level faults into
//! single-machine scenarios and compares Hipster against the paper's
//! static/heuristic baselines on QoS-guarantee fraction and tail blowup
//! (faulted vs clean mean tail). The *cluster* table injects node-level
//! faults into a two-tier cluster and ablates the resilience layer:
//! mitigation **on** (revoked nodes masked out of dispatch, stranded
//! backlog re-dispatched with capped retries + exponential backoff,
//! watermark overflow doubling as graceful degradation) vs mitigation
//! **off** (the dispatcher keeps feeding dead and straggling nodes).
//! Both presets record their ablation as `faults` rows of `BENCH.jsonl`
//! (see [`crate::floors`]): at equal load, mitigation-on must
//! beat mitigation-off on QoS-guarantee fraction and mean p99, and drop
//! no work.
//!
//! A third, *wave* table (PR 10) escalates to correlated failure
//! domains: the `memcached-zonewave` preset arms zone-scale revocation
//! waves and rack-scale straggle waves over a node → rack → zone
//! topology, plus per-request bounded-Pareto stragglers, against the
//! full tail-tolerance stack — domain-aware dispatch steering, hedged
//! requests ([`HedgeSpec`]), and an admission ladder ([`AdmissionSpec`])
//! that sheds the collocated SPEC batch before deferring best-effort
//! arrivals. Its rows require mitigation-on to beat mitigation-off on
//! **both** QoS and mean p99 under the wave preset, with hedging firing;
//! `waves_summary.csv` holds one [`ClusterSummary`] row per arm.
//!
//! Every run also asserts that the fault pressure is real: revocations
//! and straggles strike their presets, the mitigation-off arm never
//! hedges, and every percentage lies in [0, 100].

use std::path::Path;
use std::sync::Mutex;

use hipster_core::cluster::{AdmissionSpec, ClusterSpec, DispatchPolicy, OverflowSpec, RetrySpec};
use hipster_core::store::json::JsonObj;
use hipster_core::{run_tasks, BatchDeadline, CellJournal, ClusterSummary};
use hipster_platform::Platform;
use hipster_sim::{BatchProgram, FaultSpec, HedgeSpec, TopologySpec};
use hipster_workloads::{domain_fault_preset, fault_preset, preset, MmppLoad};

use crate::experiments::cluster::{
    journal_cell, open_journal, restore, SweepCell, USD_PER_REQ_S, WATERMARK,
};
use crate::floors::{self, round, Row, Run};
use crate::runner::{
    heuristic_mapper, hipster_in, scenario, static_all_big, static_all_small, PolicyFn, Workload,
};
use crate::tablefmt::{f, Table};

/// The fault presets exercised, in presentation order.
pub const FAULT_PRESETS: [&str; 2] = ["memcached-revocable", "memcached-straggler"];

/// The correlated-wave presets exercised at the cluster tier (PR 10).
pub const WAVE_PRESETS: [&str; 1] = ["memcached-zonewave"];

/// Cluster size for the mitigation ablation (3/4 private, 1/4 cloud).
pub const FAULT_CLUSTER_NODES: usize = 16;

/// Cluster interval length for every faulted cluster cell, seconds.
const FAULT_INTERVAL_S: f64 = 0.05;

/// The per-node policies compared at the node level.
fn node_policies(quick: bool) -> Vec<(&'static str, PolicyFn)> {
    vec![
        (
            "HipsterIn",
            hipster_in(
                Workload::Memcached.tuned_zones(),
                if quick { 15 } else { 30 },
                0.05,
            ),
        ),
        (
            "Heuristic",
            heuristic_mapper(Workload::Memcached.tuned_zones()),
        ),
        ("Static-Big", static_all_big()),
        ("Static-Small", static_all_small()),
    ]
}

/// The cluster fault presets, rescaled for 1 s engine intervals: the
/// cluster presets use sub-interval episodes (50 ms cluster intervals);
/// node-level scenarios sample fault state at 1 s boundaries, so the
/// same revoked/straggling duty cycle is delivered as rarer, longer
/// episodes.
fn node_faults(preset_name: &str) -> FaultSpec {
    let mut s = fault_preset(preset_name).expect("fault preset");
    s.revocation_rate_per_s /= 10.0;
    s.revocation_duration_s *= 10.0;
    s.straggler_rate_per_s /= 10.0;
    s.straggler_duration_s *= 10.0;
    s
}

/// Declares one faulted cluster run: the fault preset's workload and
/// fault spec over the PR7 two-tier topology, with the resilience layer
/// toggled by `mitigation`.
pub fn faulty_cluster_spec(
    name: impl Into<String>,
    preset_name: &'static str,
    nodes: usize,
    policy: PolicyFn,
    intervals: usize,
    seed: u64,
    mitigation: bool,
) -> ClusterSpec {
    let interval_s = FAULT_INTERVAL_S;
    let cloud = (nodes / 4).max(1);
    let private = nodes - cloud;
    ClusterSpec::new(name, Platform::juno_r1())
        .workload_with(move || Box::new(preset(preset_name).expect("workload preset")))
        .load(MmppLoad::new(
            0.60,
            10.0 * interval_s,
            intervals as f64 * interval_s,
            17,
        ))
        .policy(policy)
        .dispatch(DispatchPolicy::PowerOfTwo)
        .private_nodes(private)
        .cloud_nodes(cloud)
        .overflow(OverflowSpec::new(WATERMARK, USD_PER_REQ_S))
        .intervals(intervals)
        .interval_s(interval_s)
        .seed(seed)
        .faults(fault_preset(preset_name).expect("fault preset"))
        .retry(RetrySpec::default())
        .mitigation(mitigation)
}

/// Shapes a private tier into failure domains for the wave cells:
/// as many zones as evenly divide the node count (preferring four),
/// splitting each zone into two racks when it holds an even number of
/// nodes; awkward counts collapse to a flat single-domain topology.
fn wave_topology(private: usize) -> TopologySpec {
    for zones in [4usize, 3, 2] {
        if private % zones == 0 {
            let per_zone = private / zones;
            let racks = if per_zone % 2 == 0 { 2 } else { 1 };
            return TopologySpec::new(zones, racks, per_zone / racks).expect("non-zero levels");
        }
    }
    TopologySpec::flat(private).expect("non-empty private tier")
}

/// The SPEC batch bag every wave cell collocates on its private nodes:
/// sized so a healthy run drains it comfortably before the deadline
/// (set at 3/4 of the simulated duration) while admission-ladder
/// shedding shows up as a visible deadline-miss delta.
fn wave_deadline(nodes: usize, intervals: usize) -> BatchDeadline {
    let private = nodes - (nodes / 4).max(1);
    let duration = intervals as f64 * FAULT_INTERVAL_S;
    let deadline_s = 0.75 * duration;
    // Calibrated against the aggregate batch_ips column of the wave
    // cells' trace CSV: one private node sustains ~2.1e9 batch
    // instructions per second when nothing is shed, so an unshed run
    // drains the bag just before the deadline and every shed interval
    // pushes the last tasks past it.
    let sustained_ips = 2.1e9 * private as f64;
    BatchDeadline::new(8, 0.97 * sustained_ips * deadline_s / 8.0, deadline_s)
}

/// Declares one zone-wave cluster run (PR 10): the zonewave preset's
/// per-request stragglers plus correlated zone/rack fault waves over a
/// domain-aware two-tier cluster, with the whole tail-tolerance stack —
/// domain steering, hedged requests, and the admission ladder shedding
/// the collocated SPEC batch before deferring best-effort arrivals —
/// toggled by `mitigation`. Fault timelines (unit episodes, waves,
/// per-request straggles) are identical across both arms.
pub fn zonewave_cluster_spec(
    name: impl Into<String>,
    nodes: usize,
    policy: PolicyFn,
    intervals: usize,
    seed: u64,
    mitigation: bool,
) -> ClusterSpec {
    let private = nodes - (nodes / 4).max(1);
    faulty_cluster_spec(
        name,
        "memcached-zonewave",
        nodes,
        policy,
        intervals,
        seed,
        mitigation,
    )
    .topology(wave_topology(private))
    .domain_faults(domain_fault_preset("memcached-zonewave").expect("domain fault preset"))
    .hedge(HedgeSpec::after(1.0))
    .admission(AdmissionSpec::new(0.5, 0.75, 0.5))
    .batch_with(|| {
        hipster_workloads::spec::programs()
            .into_iter()
            .take(2)
            .map(|p| Box::new(p) as Box<dyn BatchProgram>)
            .collect()
    })
    .batch_deadline(wave_deadline(nodes, intervals))
}

#[derive(Debug)]
struct NodeCell {
    name: String,
    preset: &'static str,
    policy: &'static str,
    qos_clean_pct: f64,
    qos_fault_pct: f64,
    tail_blowup: f64,
}

/// Restores a journaled node cell (resume mode only). The raw `f64`s
/// round-trip exactly, so a restored cell renders the same JSON bytes
/// the original run would have.
fn restore_node(
    journal: Option<&Mutex<CellJournal>>,
    resume: bool,
    name: &str,
    preset: &'static str,
    policy: &'static str,
) -> Option<NodeCell> {
    if !resume {
        return None;
    }
    let journal = journal?.lock().expect("journal lock");
    let obj = journal.get(name)?;
    Some(NodeCell {
        name: name.to_owned(),
        preset,
        policy,
        qos_clean_pct: obj.get_num("qos_clean_pct")?,
        qos_fault_pct: obj.get_num("qos_fault_pct")?,
        tail_blowup: obj.get_num("tail_blowup")?,
    })
}

/// Journals a finished node cell (no-op without a store).
fn journal_node(journal: Option<&Mutex<CellJournal>>, cell: &NodeCell) {
    if let Some(journal) = journal {
        let payload = JsonObj::new()
            .num("qos_clean_pct", cell.qos_clean_pct)
            .num("qos_fault_pct", cell.qos_fault_pct)
            .num("tail_blowup", cell.tail_blowup);
        journal
            .lock()
            .expect("journal lock")
            .put(&cell.name, payload)
            .unwrap_or_else(|e| panic!("journal cell {}: {e}", cell.name));
    }
}

impl NodeCell {
    fn json(&self) -> String {
        format!(
            concat!(
                "{{\"name\":\"{}\",\"preset\":\"{}\",\"policy\":\"{}\",",
                "\"qos_clean_pct\":{:.2},\"qos_fault_pct\":{:.2},",
                "\"tail_blowup\":{:.3}}}"
            ),
            self.name,
            self.preset,
            self.policy,
            self.qos_clean_pct,
            self.qos_fault_pct,
            self.tail_blowup,
        )
    }
}

/// The batch deadline-miss percentage of a wave arm.
fn miss(s: &ClusterSummary) -> f64 {
    s.deadline_miss_pct
        .expect("wave cells always declare a batch deadline")
}

/// A `faults` row of the ablation on `workload`.
fn faults_row(workload: &str, metric: &str) -> Row {
    Row::new(
        "faults",
        workload,
        &format!("n{FAULT_CLUSTER_NODES}"),
        metric,
    )
}

/// The rows every ablation records on `workload`: the mitigation-on
/// arm's QoS-guarantee % and mean p99 against the off arm's.
fn ablation_rows(rows: &mut Run, workload: &str, on: &ClusterSummary, off: &ClusterSummary) {
    let (qos_on, qos_off) = (
        round(on.qos_guarantee_pct, 2),
        round(off.qos_guarantee_pct, 2),
    );
    rows.push(
        faults_row(workload, "qos_pct")
            .higher(qos_on, qos_off)
            .oracle(qos_off),
    );
    let (p99_on, p99_off) = (
        round(on.mean_p99_s * 1e3, 3),
        round(off.mean_p99_s * 1e3, 3),
    );
    rows.push(
        faults_row(workload, "mean_p99_ms")
            .lower(p99_on, p99_off)
            .oracle(p99_off),
    );
}

fn mean_tail_s(trace: &hipster_sim::Trace) -> f64 {
    let ivs = trace.intervals();
    if ivs.is_empty() {
        return 0.0;
    }
    ivs.iter().map(|iv| iv.tail_latency_s).sum::<f64>() / ivs.len() as f64
}

/// Runs the fault matrices, prints the tables, writes
/// `waves_summary.csv` and records the `faults` rows of `BENCH.jsonl`
/// (`"smoke": true` under `--quick`; full runs hold every row to its
/// floor).
///
/// With `store_dir` set, node cells and ablation cells are journaled as
/// they finish; with `resume`, journaled cells are restored instead of
/// re-run and `faults_digests.txt` (and the rows) come out byte-identical
/// to an uninterrupted run.
///
/// # Panics
///
/// When a fault preset stops striking (no revoked or straggling
/// node-intervals), the mitigation-off arm hedges, a percentage leaves
/// [0, 100], or — on full runs — a row misses its floor.
pub fn run(quick: bool, store_dir: Option<&Path>, resume: bool) {
    println!("== Faults: revocations + stragglers, node policies and cluster mitigation ==\n");
    let node_secs = if quick { 15 } else { 60 };
    let cluster_intervals = if quick { 20 } else { 80 };
    let journal = store_dir.map(|dir| open_journal(dir, "faults_cells.jsonl", resume));
    let journal = journal.as_ref();

    // --- Node level: core-grain faults vs the paper's policies.
    println!(
        "node tier: {node_secs} x 1 s intervals per scenario, 55% mean MMPP load, \
         core-grain faults\n"
    );
    let mut node_table = Table::new(vec![
        "preset",
        "policy",
        "QoS clean %",
        "QoS fault %",
        "tail x",
    ]);
    let mut node_cells: Vec<NodeCell> = Vec::new();
    for preset_name in FAULT_PRESETS {
        let faults = node_faults(preset_name);
        for (i, (label, _)) in node_policies(quick).into_iter().enumerate() {
            let cell_name = format!("faults/node/{preset_name}/{label}");
            let cell = match restore_node(journal, resume, &cell_name, preset_name, label) {
                Some(cell) => cell,
                None => {
                    let make = |suffix: &str, faulted: bool| {
                        let mut spec = scenario(
                            format!("{cell_name}/{suffix}"),
                            Workload::Memcached,
                            MmppLoad::new(0.55, 10.0, node_secs as f64, 17),
                            node_policies(quick).remove(i).1,
                            node_secs,
                            120 + i as u64,
                        );
                        if faulted {
                            spec = spec.faults(faults);
                        }
                        spec
                    };
                    let clean = make("clean", false).run().expect("valid scenario");
                    let faulted = make("faulted", true).run().expect("valid scenario");
                    let blowup = mean_tail_s(&faulted.trace) / mean_tail_s(&clean.trace).max(1e-9);
                    let cell = NodeCell {
                        name: cell_name,
                        preset: preset_name,
                        policy: label,
                        qos_clean_pct: clean.summary.qos_guarantee_pct,
                        qos_fault_pct: faulted.summary.qos_guarantee_pct,
                        tail_blowup: blowup,
                    };
                    journal_node(journal, &cell);
                    cell
                }
            };
            node_table.row(vec![
                preset_name.to_string(),
                label.to_string(),
                f(cell.qos_clean_pct, 1),
                f(cell.qos_fault_pct, 1),
                f(cell.tail_blowup, 2),
            ]);
            node_cells.push(cell);
        }
    }
    node_table.print();
    let want: Vec<String> = FAULT_PRESETS
        .iter()
        .flat_map(|p| {
            ["HipsterIn", "Heuristic", "Static-Big", "Static-Small"]
                .map(|pol| format!("faults/node/{p}/{pol}"))
        })
        .collect();
    let names: Vec<&str> = node_cells.iter().map(|c| c.name.as_str()).collect();
    assert_eq!(names, want, "node cells");
    for c in &node_cells {
        assert!(
            (0.0..=100.0).contains(&c.qos_clean_pct) && (0.0..=100.0).contains(&c.qos_fault_pct),
            "{}: QoS {} / {} outside [0, 100]",
            c.name,
            c.qos_clean_pct,
            c.qos_fault_pct
        );
        assert!(
            c.tail_blowup > 0.0,
            "{}: tail blowup {}",
            c.name,
            c.tail_blowup
        );
    }

    // --- Cluster level: the mitigation ablation.
    println!(
        "\ncluster tier: {FAULT_CLUSTER_NODES} nodes (3/4 private), {cluster_intervals} x 50 ms \
         intervals, node-grain faults, mitigation on vs off\n"
    );
    let mut cl_table = Table::new(vec![
        "preset",
        "mitigation",
        "QoS %",
        "p99 ms",
        "retried",
        "dropped",
        "spill %",
        "revoked nv",
        "straggle nv",
    ]);
    let mut rows = Run::default();
    let mut digest_rows: Vec<(String, SweepCell)> = Vec::new();
    for preset_name in FAULT_PRESETS {
        let mut cells: Vec<(String, Option<SweepCell>)> = Vec::new();
        let mut pending: Vec<(String, bool)> = Vec::new();
        for mitigation in [true, false] {
            let tag = if mitigation { "on" } else { "off" };
            let name = format!("faults/cluster/{preset_name}/{tag}");
            match restore(journal, resume, &name) {
                Some(cell) => cells.push((name, Some(cell))),
                None => {
                    pending.push((name.clone(), mitigation));
                    cells.push((name, None));
                }
            }
        }
        let executed = if pending.is_empty() {
            Vec::new()
        } else {
            let tasks: Vec<(String, _)> = pending
                .into_iter()
                .map(|(name, mitigation)| {
                    // Static-Big per node: the highest fault-free QoS
                    // baseline (see the PR7 cluster table), so the
                    // ablation isolates the cluster resilience layer
                    // rather than per-node policy convergence.
                    let policy = static_all_big();
                    (name.clone(), move || {
                        let out = faulty_cluster_spec(
                            name,
                            preset_name,
                            FAULT_CLUSTER_NODES,
                            policy,
                            cluster_intervals,
                            208,
                            mitigation,
                        )
                        .build()
                        .expect("valid faulted cluster spec")
                        .run();
                        let cell = SweepCell::of(&out);
                        journal_cell(journal, &out.name, &cell);
                        cell
                    })
                })
                .collect();
            run_tasks(tasks, 0).expect("fault ablation").0
        };
        let mut fresh = executed.into_iter();
        let resolved: Vec<(String, SweepCell)> = cells
            .into_iter()
            .map(|(name, restored)| {
                let cell = restored
                    .unwrap_or_else(|| fresh.next().expect("one executed cell per pending"));
                (name, cell)
            })
            .collect();
        let on = resolved[0].1.summary.clone();
        let off = resolved[1].1.summary.clone();
        digest_rows.extend(resolved);
        for (tag, s) in [("on", &on), ("off", &off)] {
            cl_table.row(vec![
                preset_name.to_string(),
                tag.to_string(),
                f(s.qos_guarantee_pct, 1),
                f(s.mean_p99_s * 1e3, 2),
                s.retried_quanta.to_string(),
                s.dropped_quanta.to_string(),
                f(s.spill_frac * 100.0, 1),
                s.revoked_node_intervals.to_string(),
                s.straggling_node_intervals.to_string(),
            ]);
        }
        match preset_name {
            "memcached-revocable" => assert!(
                on.revoked_node_intervals > 0,
                "{preset_name}: no node was revoked"
            ),
            _ => assert!(
                on.straggling_node_intervals > 0,
                "{preset_name}: no node straggled"
            ),
        }
        let workload = format!("cluster/{preset_name}");
        ablation_rows(&mut rows, &workload, &on, &off);
        rows.push(
            faults_row(&workload, "dropped_quanta")
                .lower(on.dropped_quanta as f64, 1.0)
                .oracle(off.dropped_quanta as f64),
        );
        if preset_name == "memcached-revocable" {
            // Revocations must exercise the retry path; the short quick
            // run retries nothing, so only full runs record the row.
            let retried = faults_row(&workload, "retried_quanta");
            if quick {
                rows.claim(&retried);
            } else {
                rows.push(
                    retried
                        .higher(on.retried_quanta as f64, 0.0)
                        .oracle(off.retried_quanta as f64),
                );
            }
        }
    }
    cl_table.print();

    // --- Wave level: correlated zone/rack fault waves (PR 10).
    let wave_topo = wave_topology(FAULT_CLUSTER_NODES - (FAULT_CLUSTER_NODES / 4).max(1));
    println!(
        "\nwave tier: {FAULT_CLUSTER_NODES} nodes ({} zones x {} racks private), \
         {cluster_intervals} x 50 ms intervals, zone/rack fault waves + per-request \
         stragglers, hedging + admission ladder, mitigation on vs off\n",
        wave_topo.num_zones(),
        wave_topo.num_racks(),
    );
    let mut wave_table = Table::new(vec![
        "preset",
        "mitigation",
        "QoS %",
        "p99 ms",
        "hedged",
        "deferred",
        "shed iv",
        "miss %",
        "spill %",
        "cloud $",
    ]);
    let mut wave_arms: Vec<[ClusterSummary; 2]> = Vec::new();
    for preset_name in WAVE_PRESETS {
        let mut cells: Vec<(String, Option<SweepCell>)> = Vec::new();
        let mut pending: Vec<(String, bool)> = Vec::new();
        for mitigation in [true, false] {
            let tag = if mitigation { "on" } else { "off" };
            let name = format!("faults/wave/{preset_name}/{tag}");
            match restore(journal, resume, &name) {
                Some(cell) => cells.push((name, Some(cell))),
                None => {
                    pending.push((name.clone(), mitigation));
                    cells.push((name, None));
                }
            }
        }
        let executed = if pending.is_empty() {
            Vec::new()
        } else {
            let tasks: Vec<(String, _)> = pending
                .into_iter()
                .map(|(name, mitigation)| {
                    let policy = static_all_big();
                    (name.clone(), move || {
                        let out = zonewave_cluster_spec(
                            name,
                            FAULT_CLUSTER_NODES,
                            policy,
                            cluster_intervals,
                            412,
                            mitigation,
                        )
                        .build()
                        .expect("valid zone-wave cluster spec")
                        .run();
                        let cell = SweepCell::of(&out);
                        journal_cell(journal, &out.name, &cell);
                        cell
                    })
                })
                .collect();
            run_tasks(tasks, 0).expect("wave ablation").0
        };
        let mut fresh = executed.into_iter();
        let resolved: Vec<(String, SweepCell)> = cells
            .into_iter()
            .map(|(name, restored)| {
                let cell = restored
                    .unwrap_or_else(|| fresh.next().expect("one executed cell per pending"));
                (name, cell)
            })
            .collect();
        let on = resolved[0].1.summary.clone();
        let off = resolved[1].1.summary.clone();
        digest_rows.extend(resolved);
        for (tag, s) in [("on", &on), ("off", &off)] {
            wave_table.row(vec![
                preset_name.to_string(),
                tag.to_string(),
                f(s.qos_guarantee_pct, 1),
                f(s.mean_p99_s * 1e3, 2),
                s.hedged_requests.to_string(),
                s.deferred_quanta.to_string(),
                s.shed_intervals.to_string(),
                f(miss(s), 1),
                f(s.spill_frac * 100.0, 1),
                f(s.total_cloud_usd, 4),
            ]);
        }
        assert!(on.revoked_node_intervals > 0, "{preset_name}: no wave hit");
        assert_eq!(
            off.hedged_requests, 0,
            "{preset_name}: the exposed arm hedged"
        );
        for s in [&on, &off] {
            assert!(
                (0.0..=100.0).contains(&miss(s)),
                "{}: deadline miss {}% outside [0, 100]",
                s.name,
                miss(s)
            );
        }
        let workload = format!("wave/{preset_name}");
        ablation_rows(&mut rows, &workload, &on, &off);
        rows.push(
            faults_row(&workload, "hedged_requests")
                .higher(on.hedged_requests as f64, 0.0)
                .oracle(off.hedged_requests as f64),
        );
        wave_arms.push([on, off]);
    }
    wave_table.print();

    println!(
        "\nReading: with mitigation off the balancer keeps feeding revoked \
         nodes — their backlog explodes into revival tail spikes — and \
         straggling nodes at 2-8x slowdown saturate. Mitigation masks dead \
         nodes (their lost capacity spills past the watermark to the cloud \
         tier), steers around stragglers, and re-dispatches stranded quanta \
         with capped exponential backoff. Under zone waves the stack adds \
         domain steering (probe pairs re-drawn out of degraded zones), \
         hedged backups that cap per-request straggle, and brownout \
         shedding of the collocated batch — trading deadline misses for \
         interactive tail."
    );

    // Both arms of every wave cell as flat summary rows (including the
    // deadline-miss column), for offline side-by-side comparison.
    let mut csv = String::from(ClusterSummary::csv_header());
    csv.push('\n');
    for s in wave_arms.iter().flatten() {
        csv.push_str(&s.csv_row());
        csv.push('\n');
    }
    let path = "waves_summary.csv";
    match std::fs::write(path, &csv) {
        Ok(()) => println!("  [csv]  wrote {path}"),
        Err(e) => eprintln!("  [csv]  FAILED to write {path}: {e}"),
    }

    // The deterministic manifest the CI kill-and-resume step diffs: node
    // cells render their exact JSON rows, ablation cells their decision
    // digests, all in declaration order.
    if let Some(dir) = store_dir {
        let mut out = String::new();
        for cell in &node_cells {
            out.push_str(&cell.json());
            out.push('\n');
        }
        for (name, cell) in &digest_rows {
            out.push_str(&format!(
                "{name} {:016x} {}\n",
                cell.decision_digest, cell.decisions
            ));
        }
        let path = dir.join("faults_digests.txt");
        std::fs::write(&path, out).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        println!("  [store] wrote {}", path.display());
    }

    rows.record(Path::new(floors::PATH), quick);
}

/// The fault-sweep determinism hook (same shape as
/// [`cluster::sweep_digests`](crate::experiments::cluster::sweep_digests)):
/// a small faulted grid — both presets × mitigation on/off — reduced to
/// `(name, decision digest, decisions, Debug-rendered summary)` rows.
/// Fault timelines ride split-seeded streams, so any execution strategy
/// must reproduce them byte-for-byte.
pub fn sweep_digests(threads: usize) -> Vec<(String, u64, u64, String)> {
    type Task = Box<dyn FnOnce() -> (String, u64, u64, String) + Send>;
    let digest = |out: hipster_core::ClusterOutcome| {
        let summary = format!("{:?}", out.summary);
        (out.name, out.decision_digest, out.decisions, summary)
    };
    let mut tasks: Vec<(String, Task)> = FAULT_PRESETS
        .into_iter()
        .flat_map(|preset_name| {
            [true, false].into_iter().map(move |mitigation| {
                let tag = if mitigation { "on" } else { "off" };
                let name = format!("faultdigest/{preset_name}/{tag}");
                let task: Task = Box::new(move || {
                    let out = faulty_cluster_spec(
                        name,
                        preset_name,
                        8,
                        static_all_big(),
                        6,
                        31,
                        mitigation,
                    )
                    .build()
                    .expect("valid faulted cluster spec")
                    .run();
                    digest(out)
                });
                (format!("faultdigest/{preset_name}/{tag}"), task)
            })
        })
        .collect();
    // The wave pair rides the same grid (kept adjacent on/off, like the
    // pairs above): domain flags, hedge counts and admission rungs all
    // fold into the digest, so steering divergence anywhere fails the
    // cross-strategy comparison.
    for preset_name in WAVE_PRESETS {
        for mitigation in [true, false] {
            let tag = if mitigation { "on" } else { "off" };
            let name = format!("faultdigest/{preset_name}/{tag}");
            let task: Task = Box::new(move || {
                let out = zonewave_cluster_spec(name, 8, static_all_big(), 6, 31, mitigation)
                    .build()
                    .expect("valid zone-wave cluster spec")
                    .run();
                digest(out)
            });
            tasks.push((format!("faultdigest/{preset_name}/{tag}"), task));
        }
    }
    run_tasks(tasks, threads).expect("fault digest sweep").0
}
