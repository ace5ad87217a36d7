//! The simulation engine: steps the machine one monitoring interval at a
//! time under a given configuration, producing the observations the Hipster
//! QoS Monitor consumes (tail latency, load, power, batch IPS).

use hipster_platform::{
    CoreConfig, CoreId, CoreKind, EnergyMeter, Frequency, PerfCounters, Platform, PowerBreakdown,
};

use crate::costs::{ContentionModel, ReconfigCosts};
use crate::dist::{BoundedPareto, Exponential};
use crate::fault::{FaultPlan, FaultSpec, FaultState, HedgeSpec};
use crate::lookahead::{DemandStream, ExpStream};
use crate::math;
use crate::request::{Demand, QosTarget};
use crate::rng::{Sampler, SimRng};
use crate::service::{ServerSpec, ServiceNode};
use crate::think::ThinkPool;
use crate::traits::{BatchProgram, ClosedLoop, LcModel, LoadPattern};

/// Default lognormal sigma of the per-interval background-interference
/// slowdown (see [`Engine::with_jitter`]): ±10% noise, roughly what OS
/// housekeeping costs an undisturbed Linux box.
pub const DEFAULT_JITTER_SIGMA: f64 = 0.10;

/// The full machine configuration applied for one monitoring interval.
///
/// `lc` is the configuration chosen by the policy for the latency-critical
/// workload; `big_freq`/`small_freq` are the *actual* cluster frequencies
/// (DVFS is per cluster, so batch jobs sharing a cluster with the LC
/// workload run at the LC frequency — the `lbm` effect of §4.3); and
/// `batch_enabled` controls whether the remaining cores run batch jobs
/// (HipsterCo) or idle (HipsterIn).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineConfig {
    /// Cores + DVFS allocated to the latency-critical workload.
    pub lc: CoreConfig,
    /// Actual big-cluster frequency.
    pub big_freq: Frequency,
    /// Actual small-cluster frequency.
    pub small_freq: Frequency,
    /// Whether remaining cores run batch jobs.
    pub batch_enabled: bool,
}

impl MachineConfig {
    /// An interactive-only configuration (HipsterIn style): clusters the LC
    /// workload does not use are clocked to the platform minimum
    /// (Algorithm 2 lines 12–13).
    pub fn interactive(platform: &Platform, lc: CoreConfig) -> Self {
        let big = platform.cluster(CoreKind::Big);
        let small = platform.cluster(CoreKind::Small);
        MachineConfig {
            lc,
            big_freq: if lc.n_big > 0 {
                lc.big_freq
            } else {
                big.min_freq()
            },
            small_freq: if lc.n_small > 0 {
                lc.small_freq
            } else {
                small.min_freq()
            },
            batch_enabled: false,
        }
    }

    /// A collocated configuration (HipsterCo style): remaining cores run
    /// batch jobs; when the LC workload occupies a single core type, the
    /// other cluster is boosted to its maximum DVFS to accelerate the batch
    /// jobs (Algorithm 2 lines 8–11).
    pub fn collocated(platform: &Platform, lc: CoreConfig) -> Self {
        let big = platform.cluster(CoreKind::Big);
        let small = platform.cluster(CoreKind::Small);
        let (big_freq, small_freq) = match lc.single_core_type() {
            Some(CoreKind::Big) => (lc.big_freq, small.max_freq()),
            Some(CoreKind::Small) => (big.max_freq(), lc.small_freq),
            None => (
                if lc.n_big > 0 {
                    lc.big_freq
                } else {
                    big.min_freq()
                },
                if lc.n_small > 0 {
                    lc.small_freq
                } else {
                    small.min_freq()
                },
            ),
        };
        MachineConfig {
            lc,
            big_freq,
            small_freq,
            batch_enabled: true,
        }
    }
}

/// Everything the simulator measured during one monitoring interval.
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalStats {
    /// Zero-based interval index.
    pub index: u64,
    /// Interval start time, seconds.
    pub start_s: f64,
    /// Interval length, seconds.
    pub duration_s: f64,
    /// The configuration in force.
    pub config: MachineConfig,
    /// Commanded load as a fraction of the workload's maximum.
    pub offered_load_frac: f64,
    /// Commanded load in requests per second.
    pub offered_rps: f64,
    /// Requests that arrived.
    pub arrivals: usize,
    /// Requests that completed.
    pub completions: usize,
    /// Requests dropped by client timeouts.
    pub timeouts: usize,
    /// Achieved throughput, requests per second.
    pub throughput_rps: f64,
    /// Tail latency at the workload's QoS percentile, seconds.
    pub tail_latency_s: f64,
    /// Mean latency of completed requests, seconds.
    pub mean_latency_s: f64,
    /// Queue length at interval end.
    pub queue_len: usize,
    /// Busy fraction of each LC server (big servers first).
    pub lc_busy: Vec<f64>,
    /// Average system power during the interval.
    pub power: PowerBreakdown,
    /// Energy consumed during the interval, joules.
    pub energy_j: f64,
    /// Aggregate batch IPS on big cores, as reported by the perf counters.
    pub batch_ips_big: f64,
    /// Aggregate batch IPS on small cores, as reported by the perf counters.
    pub batch_ips_small: f64,
    /// `false` when the Juno perf idle bug corrupted this window's counters
    /// (the batch IPS fields then contain garbage, as real `perf` would).
    pub counters_valid: bool,
    /// Number of LC cores whose allocation changed entering this interval.
    pub migrated_cores: usize,
}

impl IntervalStats {
    /// QoS tardiness of this interval: measured tail / target.
    pub fn tardiness(&self, target_s: f64) -> f64 {
        self.tail_latency_s / target_s
    }
}

/// Discrete-event simulation engine.
///
/// Owns the platform, the latency-critical workload model, the load
/// pattern, an optional batch-job pool, and all measurement apparatus. A
/// policy driver calls [`Engine::step`] once per monitoring interval with
/// the configuration to apply.
#[derive(Debug)]
pub struct Engine {
    platform: Platform,
    lc: Box<dyn LcModel>,
    load: Box<dyn LoadPattern>,
    batch_pool: Vec<Box<dyn BatchProgram>>,
    costs: ReconfigCosts,
    contention: ContentionModel,
    node: ServiceNode,
    counters: PerfCounters,
    meter: EnergyMeter,
    /// Burst sizes and service demands (the `"demand"` fork), read ahead.
    demands: DemandStream,
    /// Inter-arrival and think times (the `"arrival"` fork), read ahead as
    /// standard exponentials.
    arrivals: ExpStream,
    now: f64,
    interval_s: f64,
    index: u64,
    current: Option<MachineConfig>,
    cold_this_interval: bool,
    total_migrations: u64,
    power_override: Option<hipster_platform::PowerModel>,
    /// Closed-loop clients currently thinking (calendar queue of expiry
    /// times).
    thinking: ThinkPool,
    /// Lognormal σ of the per-interval background-interference slowdown.
    jitter_sigma: f64,
    jitter_rng: SimRng,
    // Constants of the LC model, hoisted out of the per-interval loop (they
    // are virtual calls on a boxed trait object, and `step` is the hot
    // path).
    /// Cached `lc.max_load_rps()`.
    lc_max_load_rps: f64,
    /// Cached `lc.mean_burst().max(1.0)`.
    lc_mean_burst: f64,
    /// Cached `lc.qos()`.
    lc_qos: QosTarget,
    /// Cached `lc.closed_loop()`.
    lc_closed_loop: Option<ClosedLoop>,
    /// Last inter-arrival distribution, keyed by its event rate; rebuilt
    /// only when the offered load changes between intervals.
    iat_cache: Option<(f64, Exponential)>,
    /// Last think-time distribution, keyed by its rate.
    think_cache: Option<(f64, Exponential)>,
    // Reusable per-interval buffers (no allocation in steady state).
    /// Server specs handed to `ServiceNode::reconfigure`.
    specs_buf: Vec<ServerSpec>,
    /// Core kinds of this interval's batch cores.
    batch_kinds_buf: Vec<CoreKind>,
    /// Per-core busy fractions of the big cluster.
    big_busy_buf: Vec<f64>,
    /// Per-core busy fractions of the small cluster.
    small_busy_buf: Vec<f64>,
    /// Completion times collected by the closed-loop event loop.
    completions_buf: Vec<f64>,
    /// The run seed, kept so the fault stream can be derived lazily from
    /// its own dedicated fork without disturbing demand/arrival/jitter.
    seed: u64,
    /// Per-core fault timelines, when fault injection is enabled.
    faults: Option<FaultPlan>,
    /// Machine-wide fault condition imposed from outside (the cluster
    /// tier revokes or slows whole nodes through this).
    external_fault: FaultState,
    /// Previous interval's per-server revocation flags (spec order), for
    /// detecting alive-set changes that force a preempting reconfigure.
    prev_revoked: Vec<bool>,
    /// Scratch: this interval's per-server fault states (spec order).
    fault_states_buf: Vec<FaultState>,
    /// Scratch: this interval's per-server revocation flags.
    cur_revoked_buf: Vec<bool>,
    /// Core-intervals spent revoked (fault telemetry).
    revoked_core_intervals: u64,
    /// Core-intervals spent straggling (fault telemetry).
    straggler_core_intervals: u64,
    /// Per-request straggler injection + hedging, when armed.
    req_faults: Option<ReqFaults>,
    /// The hedging policy applied to per-request stragglers.
    hedge: HedgeSpec,
}

/// Per-request straggler machinery: each arriving request independently
/// straggles with probability `prob`, scaling its service demand by a
/// bounded-Pareto multiplier drawn from a dedicated `"reqstraggle"` RNG
/// fork. Hedging caps the effective multiplier at `1 + delay_multiple`
/// (the backup copy finishes at nominal speed after the issue delay) and
/// counts each capped request as one hedge.
#[derive(Debug)]
struct ReqFaults {
    rng: SimRng,
    prob: f64,
    mult: Option<BoundedPareto>,
    min: f64,
    /// Effective-multiplier cap from hedging (`1 + delay_multiple`;
    /// infinite when hedging is disabled).
    cap: f64,
    straggled: u64,
    hedged: u64,
}

impl Engine {
    /// Creates an engine for `platform` running `lc` under `load`, with all
    /// stochastic streams derived from `seed`.
    pub fn new(
        platform: Platform,
        lc: Box<dyn LcModel>,
        load: Box<dyn LoadPattern>,
        seed: u64,
    ) -> Self {
        let mut root = SimRng::seed(seed);
        let num_cores = platform.num_cores();
        let mut node = ServiceNode::new();
        node.set_timeout(lc.timeout_s());
        let lc_max_load_rps = lc.max_load_rps();
        let lc_mean_burst = lc.mean_burst().max(1.0);
        let lc_qos = lc.qos();
        let lc_closed_loop = lc.closed_loop();
        Engine {
            platform,
            lc,
            load,
            batch_pool: Vec::new(),
            costs: ReconfigCosts::juno_defaults(),
            contention: ContentionModel::juno_defaults(),
            node,
            counters: PerfCounters::new(num_cores, false),
            meter: EnergyMeter::new(),
            demands: DemandStream::new(root.fork("demand")),
            arrivals: ExpStream::new(root.fork("arrival")),
            now: 0.0,
            interval_s: 1.0,
            index: 0,
            current: None,
            cold_this_interval: false,
            total_migrations: 0,
            power_override: None,
            thinking: ThinkPool::new(),
            jitter_sigma: DEFAULT_JITTER_SIGMA,
            jitter_rng: root.fork("jitter"),
            lc_max_load_rps,
            lc_mean_burst,
            lc_qos,
            lc_closed_loop,
            iat_cache: None,
            think_cache: None,
            specs_buf: Vec::new(),
            batch_kinds_buf: Vec::new(),
            big_busy_buf: Vec::new(),
            small_busy_buf: Vec::new(),
            completions_buf: Vec::new(),
            seed,
            faults: None,
            external_fault: FaultState::Healthy,
            prev_revoked: Vec::new(),
            fault_states_buf: Vec::new(),
            cur_revoked_buf: Vec::new(),
            revoked_core_intervals: 0,
            straggler_core_intervals: 0,
            req_faults: None,
            hedge: HedgeSpec::none(),
        }
    }

    /// Installs a batch-job pool; remaining cores run these round-robin
    /// whenever the applied [`MachineConfig::batch_enabled`] is set.
    pub fn with_batch_pool(mut self, pool: Vec<Box<dyn BatchProgram>>) -> Self {
        self.batch_pool = pool;
        self
    }

    /// Overrides the reconfiguration cost model.
    pub fn with_costs(mut self, costs: ReconfigCosts) -> Self {
        self.costs = costs;
        self
    }

    /// Overrides the contention model.
    pub fn with_contention(mut self, contention: ContentionModel) -> Self {
        self.contention = contention;
        self
    }

    /// Sets the monitoring interval length (default 1 s, as in the paper).
    ///
    /// # Panics
    ///
    /// Panics if `seconds` is not strictly positive.
    pub fn with_interval(mut self, seconds: f64) -> Self {
        assert!(seconds > 0.0, "interval must be positive");
        self.interval_s = seconds;
        self
    }

    /// Arms the Juno perf idle-counter bug (disarmed by default).
    pub fn with_perf_quirk(mut self, armed: bool) -> Self {
        let n = self.platform.num_cores();
        self.counters = PerfCounters::new(n, armed);
        self
    }

    /// Sets the background-interference jitter: each monitoring interval
    /// the LC service runs `exp(N(0, σ))` slower than nominal, modelling
    /// OS housekeeping, interrupts and other un-modelled noise on a real
    /// Linux box. Default σ = 0.10; pass 0 for a noiseless simulator.
    ///
    /// This noise is what keeps feedback policies honest: with a perfectly
    /// quiet simulator a threshold controller can park one notch above the
    /// capacity boundary forever, which real systems never allow.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or not finite.
    pub fn with_jitter(mut self, sigma: f64) -> Self {
        assert!(sigma.is_finite() && sigma >= 0.0, "invalid jitter: {sigma}");
        self.jitter_sigma = sigma;
        self
    }

    /// Enables fault injection: per-core transient revocations and
    /// straggler episodes scheduled by `spec`. The timelines draw from a
    /// dedicated `"faults"` fork of the run seed, so enabling faults
    /// never perturbs the demand/arrival/jitter streams, and
    /// [`FaultSpec::none`] leaves the engine exactly on the fault-free
    /// path.
    ///
    /// # Panics
    ///
    /// Panics if the spec fails [`FaultSpec::validate`] — scenario and
    /// cluster specs validate before reaching here.
    pub fn with_faults(mut self, spec: FaultSpec) -> Self {
        spec.validate()
            .unwrap_or_else(|e| panic!("invalid fault spec: {e}"));
        self.faults = spec.has_unit_faults().then(|| {
            let base = SimRng::seed(self.seed).fork("faults").next_u64();
            FaultPlan::new(spec, base, self.platform.num_cores())
        });
        self.req_faults = spec.has_request_stragglers().then(|| ReqFaults {
            rng: SimRng::seed(self.seed).fork("reqstraggle"),
            prob: spec.request_straggler_prob,
            mult: (spec.request_straggler_max > spec.request_straggler_min).then(|| {
                BoundedPareto::new(
                    spec.request_straggler_min,
                    spec.request_straggler_max,
                    spec.request_straggler_alpha,
                )
            }),
            min: spec.request_straggler_min,
            cap: 1.0 + self.hedge.delay_multiple,
            straggled: 0,
            hedged: 0,
        });
        self
    }

    /// Sets the hedging policy for per-request stragglers: a straggled
    /// request's effective service time is capped at
    /// `1 + delay_multiple` times nominal (the backup copy, issued after
    /// the delay, finishes at nominal speed and the loser is cancelled).
    /// Has no effect unless [`FaultSpec::with_request_stragglers`] is
    /// armed; [`HedgeSpec::none`] never hedges.
    ///
    /// # Panics
    ///
    /// Panics if the spec fails [`HedgeSpec::validate`].
    pub fn with_hedging(mut self, hedge: HedgeSpec) -> Self {
        hedge
            .validate()
            .unwrap_or_else(|e| panic!("invalid hedge spec: {e}"));
        self.hedge = hedge;
        if let Some(rf) = self.req_faults.as_mut() {
            rf.cap = 1.0 + hedge.delay_multiple;
        }
        self
    }

    /// Cumulative count of requests whose per-request straggle draw fired.
    pub fn request_straggles(&self) -> u64 {
        self.req_faults.as_ref().map_or(0, |rf| rf.straggled)
    }

    /// Cumulative count of requests rescued by a hedged backup copy
    /// (straggle multiplier exceeded the hedge cap).
    pub fn hedged_requests(&self) -> u64 {
        self.req_faults.as_ref().map_or(0, |rf| rf.hedged)
    }

    /// Imposes a machine-wide fault condition from outside for subsequent
    /// intervals — the cluster tier's hook for revoking or slowing whole
    /// nodes. Combines with any per-core [`Engine::with_faults`] plan
    /// (revocation dominates; straggles compound).
    ///
    /// # Panics
    ///
    /// Panics on a straggling state with slowdown below 1.
    pub fn set_external_fault(&mut self, state: FaultState) {
        if let FaultState::Straggling { slowdown } = state {
            assert!(
                slowdown.is_finite() && slowdown >= 1.0,
                "external straggle slowdown must be >= 1: {slowdown}"
            );
        }
        self.external_fault = state;
    }

    /// Core-intervals spent `(revoked, straggling)` so far — the engine's
    /// fault telemetry counters.
    pub fn fault_core_intervals(&self) -> (u64, u64) {
        (self.revoked_core_intervals, self.straggler_core_intervals)
    }

    /// Disables Linux `cpuidle` — the paper's mitigation for the perf bug.
    /// Idle cores stop entering idle states (clean counters) but burn more
    /// power; the power model switches to the cpuidle-disabled calibration.
    pub fn disable_cpuidle(&mut self) {
        self.counters.disable_cpuidle();
        self.power_override = Some(self.platform.power_model().with_cpuidle_disabled());
    }

    /// Current simulated time, seconds.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// The platform under simulation.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// The latency-critical workload model.
    pub fn lc_model(&self) -> &dyn LcModel {
        self.lc.as_ref()
    }

    /// The monitoring interval length, seconds.
    pub fn interval_s(&self) -> f64 {
        self.interval_s
    }

    /// Total LC core migrations so far.
    pub fn total_migrations(&self) -> u64 {
        self.total_migrations
    }

    /// Cumulative energy registers.
    pub fn energy_meter(&self) -> &EnergyMeter {
        &self.meter
    }

    /// Runs one monitoring interval under `cfg` and returns its statistics.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is invalid for the platform or allocates zero cores
    /// to the latency-critical workload.
    pub fn step(&mut self, cfg: MachineConfig) -> IntervalStats {
        self.platform
            .validate(&CoreConfig::new(
                cfg.lc.n_big,
                cfg.lc.n_small,
                cfg.big_freq,
                cfg.small_freq,
            ))
            .unwrap_or_else(|e| panic!("invalid machine config: {e}"));
        assert!(
            cfg.lc.total_cores() > 0,
            "latency-critical workload needs at least one core"
        );

        let (mut preempt, mut stall, migrated) = self.transition_kind(&cfg);
        self.total_migrations += migrated as u64;
        self.cold_this_interval = migrated > 0;

        // Batch allocation for this interval: remaining cores, big first.
        // The kinds buffer is moved out for the duration of the step so it
        // can be borrowed alongside `&mut self`, then returned for reuse.
        let mut batch_cores = std::mem::take(&mut self.batch_kinds_buf);
        self.fill_batch_kinds(&cfg, &mut batch_cores);
        let on_lc_clusters = batch_cores.iter().filter(|k| cfg.lc.count(**k) > 0).count();
        let slowdown = self.lc_slowdown(on_lc_clusters, batch_cores.len());

        // LC server specs: big servers first, then small (reused buffer).
        self.specs_buf.clear();
        for _ in 0..cfg.lc.n_big {
            self.specs_buf.push(ServerSpec {
                kind: CoreKind::Big,
                freq: cfg.big_freq,
                speed: self.lc.service_speed(CoreKind::Big, cfg.big_freq),
                slowdown,
            });
        }
        for _ in 0..cfg.lc.n_small {
            self.specs_buf.push(ServerSpec {
                kind: CoreKind::Small,
                freq: cfg.small_freq,
                speed: self.lc.service_speed(CoreKind::Small, cfg.small_freq),
                slowdown,
            });
        }
        // Fault overlay, sampled at the interval boundary: revoked servers
        // drop out of the spec list (forcing a preempting reconfigure when
        // the alive set changes, so in-flight work requeues), stragglers
        // keep their slot with a multiplied slowdown (a pure re-key riding
        // the DVFS path). When no plan, no external fault, and no revoked
        // carry-over exist, none of this runs and the spec list is exactly
        // the fault-free one.
        let total_servers = cfg.lc.total_cores();
        let mut alive_big = cfg.lc.n_big;
        let mut alive_small = cfg.lc.n_small;
        let faults_active = self.faults.is_some()
            || self.external_fault.is_faulted()
            || self.prev_revoked.iter().any(|&r| r);
        if faults_active {
            let big_total = self.platform.cluster(CoreKind::Big).len();
            self.fault_states_buf.clear();
            for s in 0..total_servers {
                // Server `s` sits on a stable physical core: big LC servers
                // on big cores 0.., small LC servers on small cores 0..
                // (platform core id `big_total + ..`).
                let unit = if s < cfg.lc.n_big {
                    s
                } else {
                    big_total + (s - cfg.lc.n_big)
                };
                let local = match &mut self.faults {
                    Some(plan) => plan.state(unit, self.now),
                    None => FaultState::Healthy,
                };
                self.fault_states_buf
                    .push(FaultState::combine(self.external_fault, local));
            }
            self.cur_revoked_buf.clear();
            let mut unwarned_new = false;
            let mut w = 0usize;
            for s in 0..total_servers {
                match self.fault_states_buf[s] {
                    FaultState::Revoked { warned } => {
                        self.cur_revoked_buf.push(true);
                        if s < cfg.lc.n_big {
                            alive_big -= 1;
                        } else {
                            alive_small -= 1;
                        }
                        self.revoked_core_intervals += 1;
                        if !warned && self.prev_revoked.get(s) != Some(&true) {
                            unwarned_new = true;
                        }
                    }
                    state => {
                        self.cur_revoked_buf.push(false);
                        let mut spec = self.specs_buf[s];
                        if let FaultState::Straggling { slowdown: m } = state {
                            spec.slowdown *= m;
                            self.straggler_core_intervals += 1;
                        }
                        self.specs_buf[w] = spec;
                        w += 1;
                    }
                }
            }
            self.specs_buf.truncate(w);
            let cur_any = self.cur_revoked_buf.iter().any(|&r| r);
            let prev_any = self.prev_revoked.iter().any(|&r| r);
            let revoked_set_changed =
                (cur_any || prev_any) && self.prev_revoked != self.cur_revoked_buf;
            if !preempt && revoked_set_changed {
                // The alive set changed: requeue in-flight work through the
                // preemption path. A fresh *unwarned* revocation also pays
                // the migration stall; warned ones drained gracefully.
                preempt = true;
                if unwarned_new {
                    stall = stall.max(self.costs.core_migration_stall_s);
                }
            }
            std::mem::swap(&mut self.prev_revoked, &mut self.cur_revoked_buf);
        } else if !self.prev_revoked.is_empty() {
            self.prev_revoked.clear();
        }
        if self.specs_buf.is_empty() {
            // Every server revoked: nothing to run on. Requests keep
            // queueing (and shed on timeout at dispatch); energy gates in
            // `measure` via the zero alive counts.
            self.node.revoke_all(self.now);
        } else {
            self.node
                .reconfigure(self.now, &self.specs_buf, preempt, stall);
        }
        self.node.begin_interval(self.now);

        // Event loop for the interval.
        let t_end = self.now + self.interval_s;
        let frac = self.load.load_at(self.now).max(0.0);
        let rate = frac * self.lc_max_load_rps;
        match self.lc_closed_loop {
            Some(cl) => self.run_events_closed(t_end, frac, stall, cl),
            None => self.run_events(t_end, rate, stall),
        }

        let node_iv = self.node.end_interval(t_end, self.lc_qos.percentile);

        // Measurement: power, energy, counters.
        let stats = self.measure(
            cfg,
            frac,
            rate,
            node_iv,
            &batch_cores,
            alive_big,
            alive_small,
        );
        self.batch_kinds_buf = batch_cores;
        self.current = Some(cfg);
        self.now = t_end;
        self.index += 1;
        stats
    }

    /// Classifies the transition into (preempt?, stall seconds, migrated
    /// core count).
    fn transition_kind(&self, cfg: &MachineConfig) -> (bool, f64, usize) {
        match &self.current {
            None => (true, 0.0, 0),
            Some(prev) => {
                if !prev.lc.same_mapping(&cfg.lc) {
                    let migrated = prev.lc.n_big.abs_diff(cfg.lc.n_big)
                        + prev.lc.n_small.abs_diff(cfg.lc.n_small);
                    (true, self.costs.core_migration_stall_s, migrated)
                } else if prev.big_freq != cfg.big_freq || prev.small_freq != cfg.small_freq {
                    (false, self.costs.dvfs_stall_s, 0)
                } else {
                    (false, 0.0, 0)
                }
            }
        }
    }

    /// Fills `out` with the core kinds of the batch cores for this config
    /// (big cores first). `out` is a reused buffer; it is cleared first.
    fn fill_batch_kinds(&self, cfg: &MachineConfig, out: &mut Vec<CoreKind>) {
        out.clear();
        if !cfg.batch_enabled || self.batch_pool.is_empty() {
            return;
        }
        let big_total = self.platform.cluster(CoreKind::Big).len();
        let small_total = self.platform.cluster(CoreKind::Small).len();
        out.extend(std::iter::repeat(CoreKind::Big).take(big_total - cfg.lc.n_big));
        out.extend(std::iter::repeat(CoreKind::Small).take(small_total - cfg.lc.n_small));
    }

    fn lc_slowdown(&mut self, on_lc_clusters: usize, n_batch: usize) -> f64 {
        let mut s = self.contention.lc_slowdown(on_lc_clusters, n_batch);
        if self.cold_this_interval {
            s *= self.costs.cold_cache_penalty;
        }
        if self.jitter_sigma > 0.0 {
            // Box–Muller draw for the interval's interference factor;
            // interference only ever slows service down.
            let u1 = 1.0 - self.jitter_rng.uniform();
            let u2 = self.jitter_rng.uniform();
            let z = (-2.0 * math::ln(u1)).sqrt() * math::cos_2pi(u2);
            s *= math::exp(self.jitter_sigma * z);
        }
        s.max(1.0)
    }

    fn run_events(&mut self, t_end: f64, rate: f64, stall: f64) {
        let mut kick_at = if stall > 0.0 {
            Some(self.now + stall)
        } else {
            None
        };
        // Arrival *events* carry bursts of requests; thin the event rate so
        // the request rate equals the offered load. The distribution is
        // cached across intervals and only rebuilt when the offered load
        // actually changes.
        let event_rate = rate / self.lc_mean_burst;
        let iat = if event_rate > 0.0 {
            Some(cached_exp(&mut self.iat_cache, event_rate))
        } else {
            None
        };
        let mut next_arrival = iat.map(|d| self.now + d.scale(self.arrivals.next()));
        loop {
            let tc = self.node.next_completion();
            // Earliest of: completion, arrival, kick — within the interval.
            let mut t = t_end;
            let mut what = 0u8; // 0 = end, 1 = completion, 2 = arrival, 3 = kick
            if let Some(x) = tc {
                if x < t {
                    t = x;
                    what = 1;
                }
            }
            if let Some(x) = next_arrival {
                if x < t {
                    t = x;
                    what = 2;
                }
            }
            if let Some(x) = kick_at {
                if x < t {
                    t = x;
                    what = 3;
                }
            }
            self.node.advance(t);
            match what {
                0 => break,
                1 => {} // advance() already completed it
                2 => {
                    for _ in 0..self.demands.next_burst(self.lc.as_ref()) {
                        let demand = self.demands.next_demand(self.lc.as_ref());
                        self.node.arrive(t, straggled(&mut self.req_faults, demand));
                    }
                    next_arrival = iat.map(|d| t + d.scale(self.arrivals.next()));
                }
                3 => {
                    self.node.kick(t);
                    kick_at = None;
                }
                _ => unreachable!(),
            }
        }
    }

    /// Closed-loop event loop: a population of `frac × max_clients` clients
    /// submit → wait → think (exponential, mean `think_mean_s`) → repeat.
    /// The population is adjusted at interval boundaries; surplus clients
    /// are retired from the thinking pool (in-flight requests complete
    /// normally).
    ///
    /// The pool is a calendar queue ([`ThinkPool`]): each think expiry is
    /// an O(1) amortized bucket pop instead of the O(log clients) heap pop
    /// of PRs 3–5 or the O(clients) scan before that, and population
    /// shrink is one selection pass per boundary. Clients are
    /// indistinguishable, so the calendar pool reproduces the heap- and
    /// scan-based traces bit-for-bit.
    fn run_events_closed(&mut self, t_end: f64, frac: f64, stall: f64, cl: ClosedLoop) {
        let mut kick_at = if stall > 0.0 {
            Some(self.now + stall)
        } else {
            None
        };
        let think = cached_exp(&mut self.think_cache, 1.0 / cl.think_mean_s.max(1e-9));
        let target = (frac * cl.max_clients as f64).round().max(0.0) as usize;
        let mut population = self.thinking.len() + self.node.queue_len() + self.node.in_flight();
        // Grow: new clients start thinking now.
        while population < target {
            let expiry = self.now + think.scale(self.arrivals.next());
            self.thinking.push(expiry);
            population += 1;
        }
        // Shrink: retire the clients that would submit last.
        if population > target {
            self.thinking
                .retire_latest((population - target).min(self.thinking.len()));
        }

        let mut completions = std::mem::take(&mut self.completions_buf);
        loop {
            let mut t = t_end;
            let mut what = 0u8; // 0 = end, 1 = completion, 2 = think expiry, 3 = kick
            if let Some(x) = self.node.next_completion() {
                if x < t {
                    t = x;
                    what = 1;
                }
            }
            if let Some(x) = self.thinking.peek_min() {
                if x < t {
                    t = x;
                    what = 2;
                }
            }
            if let Some(x) = kick_at {
                if x < t {
                    t = x;
                    what = 3;
                }
            }
            completions.clear();
            self.node.advance_collect(t, &mut completions);
            for &ct in &completions {
                // The responding client starts thinking.
                self.thinking.push(ct + think.scale(self.arrivals.next()));
            }
            match what {
                0 => break,
                1 => {}
                2 => {
                    self.thinking.pop_min().expect("think expiry exists");
                    let demand = self.demands.next_demand(self.lc.as_ref());
                    self.node.arrive(t, straggled(&mut self.req_faults, demand));
                }
                3 => {
                    self.node.kick(t);
                    kick_at = None;
                }
                _ => unreachable!(),
            }
        }
        self.completions_buf = completions;
    }

    /// `alive_big`/`alive_small` are the LC servers that actually ran
    /// this interval (equal to `cfg.lc` counts unless fault injection
    /// revoked some): the node's busy vector covers exactly those, and
    /// energy gating keys off them so a fully revoked cluster powers down.
    #[allow(clippy::too_many_arguments)]
    fn measure(
        &mut self,
        cfg: MachineConfig,
        frac: f64,
        rate: f64,
        node_iv: crate::service::NodeInterval,
        batch_cores: &[CoreKind],
        alive_big: usize,
        alive_small: usize,
    ) -> IntervalStats {
        let dur = self.interval_s;
        let big_total = self.platform.cluster(CoreKind::Big).len();
        let small_total = self.platform.cluster(CoreKind::Small).len();

        // Per-core busy fractions in cluster order: LC cores first within
        // each cluster, then batch cores (100% busy), then idle. The
        // buffers are engine-owned and reused across intervals.
        let mut big_busy = std::mem::take(&mut self.big_busy_buf);
        let mut small_busy = std::mem::take(&mut self.small_busy_buf);
        big_busy.clear();
        big_busy.resize(big_total, 0.0);
        small_busy.clear();
        small_busy.resize(small_total, 0.0);
        for i in 0..alive_big {
            big_busy[i] = node_iv.busy[i];
        }
        for i in 0..alive_small {
            small_busy[i] = node_iv.busy[alive_big + i];
        }
        let n_batch_big = batch_cores.iter().filter(|k| **k == CoreKind::Big).count();
        let n_batch_small = batch_cores.len() - n_batch_big;
        for i in 0..n_batch_big {
            big_busy[cfg.lc.n_big + i] = 1.0;
        }
        for i in 0..n_batch_small {
            small_busy[cfg.lc.n_small + i] = 1.0;
        }

        // Perf counters: batch instructions (what HipsterCo reads), LC
        // instructions approximated from busy time, idle stretches for the
        // Juno quirk.
        let mut true_batch_big_ips = 0.0;
        let mut true_batch_small_ips = 0.0;
        for (i, kind) in batch_cores.iter().enumerate() {
            let program = &self.batch_pool[i % self.batch_pool.len()];
            let (core_idx, freq) = match kind {
                CoreKind::Big => (CoreId(cfg.lc.n_big + i), cfg.big_freq),
                CoreKind::Small => {
                    // Small batch cores come after the big batch cores in
                    // `batch_cores`; translate to a platform core id.
                    let small_pos = i - n_batch_big;
                    (
                        CoreId(big_total + cfg.lc.n_small + small_pos),
                        cfg.small_freq,
                    )
                }
            };
            let ips = program.ips(*kind, freq);
            match kind {
                CoreKind::Big => true_batch_big_ips += ips,
                CoreKind::Small => true_batch_small_ips += ips,
            }
            self.counters.record(core_idx, (ips * dur) as u64, 1.0);
        }
        // Cluster IPS at this interval's frequency is per-cluster, not
        // per-core: hoist it out of the busy sweeps.
        let big_lc_ips = self
            .platform
            .cluster(CoreKind::Big)
            .spec()
            .compute_ips(cfg.big_freq);
        let small_lc_ips = self
            .platform
            .cluster(CoreKind::Small)
            .spec()
            .compute_ips(cfg.small_freq);
        for (i, &b) in big_busy.iter().enumerate() {
            if i < alive_big {
                self.counters
                    .record(CoreId(i), (big_lc_ips * b * dur) as u64, b);
            }
            if b < 0.999 {
                self.counters
                    .record_idle_stretch(CoreId(i), (1.0 - b) * dur * 1e6);
            }
        }
        for (i, &b) in small_busy.iter().enumerate() {
            let core = CoreId(big_total + i);
            if i < alive_small {
                self.counters
                    .record(core, (small_lc_ips * b * dur) as u64, b);
            }
            if b < 0.999 {
                self.counters
                    .record_idle_stretch(core, (1.0 - b) * dur * 1e6);
            }
        }

        let (batch_ips_big, batch_ips_small, counters_valid) = match self.counters.read_window(dur)
        {
            Ok(_) => (true_batch_big_ips, true_batch_small_ips, true),
            Err(_) => {
                // Real perf hands back absurd values; reproduce that.
                (1.0e18, 1.0e18, false)
            }
        };

        // A cluster with no latency-critical cores and no batch cores is
        // fully idle: with cpuidle enabled it enters Juno's cluster-off
        // state and its static draw collapses.
        let model = self.power_override.unwrap_or(*self.platform.power_model());
        let big_gated = alive_big == 0 && n_batch_big == 0;
        let small_gated = alive_small == 0 && n_batch_small == 0;
        let power = model.system_power_gated(
            &self.platform,
            cfg.big_freq,
            cfg.small_freq,
            &big_busy,
            &small_busy,
            big_gated,
            small_gated,
        );
        self.meter.advance(dur, power);
        self.big_busy_buf = big_busy;
        self.small_busy_buf = small_busy;

        IntervalStats {
            index: self.index,
            start_s: self.now,
            duration_s: dur,
            config: cfg,
            offered_load_frac: frac,
            offered_rps: rate,
            arrivals: node_iv.arrivals,
            completions: node_iv.completions,
            timeouts: node_iv.timeouts,
            throughput_rps: node_iv.completions as f64 / dur,
            tail_latency_s: node_iv.tail_latency_s,
            mean_latency_s: node_iv.mean_latency_s,
            queue_len: node_iv.queue_len,
            lc_busy: node_iv.busy,
            power,
            energy_j: power.total() * dur,
            batch_ips_big,
            batch_ips_small,
            counters_valid,
            migrated_cores: self.transitioned_cores(&cfg),
        }
    }

    fn transitioned_cores(&self, cfg: &MachineConfig) -> usize {
        match &self.current {
            None => 0,
            Some(prev) => {
                prev.lc.n_big.abs_diff(cfg.lc.n_big) + prev.lc.n_small.abs_diff(cfg.lc.n_small)
            }
        }
    }
}

/// Applies the per-request straggler draw (and hedge cap) to one arriving
/// request's demand. No-op — and crucially, zero RNG draws — when
/// per-request stragglers are unarmed. These draws are not read ahead:
/// they stay inline, on their own `"reqstraggle"` stream.
#[inline]
fn straggled(req_faults: &mut Option<ReqFaults>, mut demand: Demand) -> Demand {
    if let Some(rf) = req_faults {
        if rf.rng.chance(rf.prob) {
            let drawn = match &rf.mult {
                Some(pareto) => pareto.sample(&mut rf.rng),
                None => rf.min,
            };
            rf.straggled += 1;
            let eff = if drawn > rf.cap {
                rf.hedged += 1;
                rf.cap
            } else {
                drawn
            };
            demand.work *= eff;
            demand.mem_s *= eff;
        }
    }
    demand
}

/// Returns the exponential distribution for `rate`, reusing `cache` when
/// the rate is unchanged from the previous interval (so steady-load runs
/// construct each distribution exactly once).
fn cached_exp(cache: &mut Option<(f64, Exponential)>, rate: f64) -> Exponential {
    match *cache {
        Some((r, d)) if r == rate => d,
        _ => {
            let d = Exponential::new(rate);
            *cache = Some((rate, d));
            d
        }
    }
}
