//! The cluster tier: N per-node engines behind a load balancer, with
//! two-tier burst overflow to priced cloud nodes.
//!
//! Everything below the ROADMAP's "millions of users" north star so far
//! simulated one machine. This module scales out: a [`ClusterSim`] owns N
//! [`Manager`]-wrapped engines (each with its own policy instance and a
//! split-seeded RNG), a cluster-level [`Dispatcher`] that places work
//! quanta on nodes — O(1) per pick for power-of-two-choices, random and
//! round-robin, an O(N) scan for least-loaded — and an optional cloud
//! tier that absorbs bursts past an occupancy watermark at a
//! per-request-second dollar price.
//!
//! # Model
//!
//! Each monitoring interval, the cluster [`LoadPattern`] yields an offered
//! fraction `L` of *private-tier* capacity. That volume is discretized
//! into **quanta** — `round(L · q · N)` of them, each worth `1/q` of one
//! node-interval at max load, with `q = quanta_per_node`. The dispatcher
//! places quanta one at a time on its occupancy signal; occupancy carries
//! across intervals as each node's end-of-interval queue backlog
//! (quantized to quanta). A node assigned `k` quanta then runs its engine
//! interval at load fraction `k/q` — per-node queueing, latency, energy
//! and policy decisions all come from the existing single-machine engine,
//! untouched. Cluster-wide p95/p99 are selection-based percentiles over
//! the per-node tails, and admission spills quanta to the cloud tier
//! whenever private occupancy sits at or above the watermark.
//!
//! Every dispatch decision folds into an FNV-1a digest, so two runs can
//! be compared event for event — the hook the determinism suites use.
//! Once placement has fixed each node's load, the node engines step in
//! parallel 64-node chunks ([`ClusterSpec::threads`]) and are folded back
//! in node order, so no output depends on the thread count.
//!
//! # Example
//!
//! ```
//! use hipster_core::cluster::{ClusterSpec, DispatchPolicy, OverflowSpec};
//! use hipster_core::StaticPolicy;
//! use hipster_platform::Platform;
//! use hipster_workloads::{memcached, Constant};
//!
//! let outcome = ClusterSpec::new("demo", Platform::juno_r1())
//!     .workload_with(|| Box::new(memcached()))
//!     .load(Constant::new(0.7, 4.0))
//!     .policy(|p: &hipster_platform::Platform, _s: u64| {
//!         Box::new(StaticPolicy::all_big(p)) as Box<dyn hipster_core::Policy>
//!     })
//!     .dispatch(DispatchPolicy::PowerOfTwo)
//!     .private_nodes(8)
//!     .cloud_nodes(2)
//!     .overflow(OverflowSpec::new(0.85, 1e-4))
//!     .intervals(4)
//!     .interval_s(0.05)
//!     .seed(7)
//!     .build()
//!     .unwrap()
//!     .run();
//! assert_eq!(outcome.summary.intervals, 4);
//! ```

pub mod admission;
pub mod dispatch;
pub mod metrics;
pub mod overflow;
pub mod retry;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use hipster_platform::Platform;
use hipster_sim::{
    BatchProgram, DomainFaultSpec, EngineSpec, EngineSpecError, FaultPlan, FaultSpec,
    FaultSpecError, FaultState, HedgeSpec, IntervalStats, LcModel, LoadPattern, QosTarget, SimRng,
    TopologySpec, WavePlan,
};

use crate::fleet::{resolve_workers, run_tasks, split_seed, FleetError};
use crate::manager::Manager;
use crate::scenario::{BatchDeadline, PolicyFactory};

pub use admission::AdmissionSpec;
pub use dispatch::{DispatchPolicy, Dispatcher};
pub use metrics::{cluster_tails, ClusterInterval, ClusterSummary, ClusterTrace};
pub use overflow::{CloudBill, OverflowSpec};
pub use retry::RetrySpec;

/// Why a [`ClusterSpec`] failed to validate.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterError {
    /// No workload factory was supplied.
    MissingWorkload,
    /// No cluster load pattern was supplied.
    MissingLoad,
    /// No per-node policy factory was supplied.
    MissingPolicy,
    /// The private tier has zero nodes.
    NoPrivateNodes,
    /// The cluster would run for zero monitoring intervals.
    ZeroIntervals,
    /// `quanta_per_node` is zero — no dispatch granularity.
    ZeroQuanta,
    /// Cloud nodes were declared without an overflow rule.
    CloudWithoutOverflow,
    /// An overflow rule was declared without cloud nodes.
    OverflowWithoutCloud,
    /// The overflow watermark is outside `(0, 1]`.
    InvalidWatermark {
        /// The rejected watermark.
        watermark: f64,
    },
    /// The cloud price is negative or non-finite.
    InvalidCost {
        /// The rejected dollars-per-request-second.
        usd_per_req_s: f64,
    },
    /// A per-node engine knob is invalid (interval length, jitter sigma).
    Engine(EngineSpecError),
    /// The fault-injection spec is invalid (negative rate, probability
    /// outside `[0, 1]`, slowdown below one, ...).
    Fault(FaultSpecError),
    /// The retry policy allows zero re-dispatch attempts.
    ZeroRetryAttempts,
    /// The retry backoff cap is zero intervals.
    ZeroBackoffCap,
    /// The declared topology does not address exactly the private tier.
    TopologyNodeMismatch {
        /// Nodes the topology addresses.
        topology_nodes: usize,
        /// Private-tier nodes the cluster actually has.
        private_nodes: usize,
    },
    /// Domain fault waves were declared without a topology to aim at.
    WavesWithoutTopology,
    /// An overload-protection knob is invalid.
    InvalidAdmission {
        /// Which knob was rejected.
        what: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// A batch deadline was declared without a batch workload.
    DeadlineWithoutBatch,
    /// The batch deadline has zero tasks, non-positive work or a
    /// non-positive due time.
    InvalidDeadline,
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::MissingWorkload => f.write_str("cluster has no workload"),
            ClusterError::MissingLoad => f.write_str("cluster has no load pattern"),
            ClusterError::MissingPolicy => f.write_str("cluster has no per-node policy"),
            ClusterError::NoPrivateNodes => f.write_str("cluster needs at least one private node"),
            ClusterError::ZeroIntervals => {
                f.write_str("cluster must run for at least one interval")
            }
            ClusterError::ZeroQuanta => f.write_str("quanta_per_node must be at least one"),
            ClusterError::CloudWithoutOverflow => {
                f.write_str("cloud nodes declared but no overflow rule; call overflow(...)")
            }
            ClusterError::OverflowWithoutCloud => {
                f.write_str("overflow rule declared but cloud_nodes is zero")
            }
            ClusterError::InvalidWatermark { watermark } => {
                write!(f, "overflow watermark {watermark} is outside (0, 1]")
            }
            ClusterError::InvalidCost { usd_per_req_s } => {
                write!(f, "cloud price {usd_per_req_s} $/req-s is invalid")
            }
            ClusterError::Engine(e) => write!(f, "per-node engine: {e}"),
            ClusterError::Fault(e) => write!(f, "fault spec: {e}"),
            ClusterError::ZeroRetryAttempts => {
                f.write_str("retry policy must allow at least one attempt")
            }
            ClusterError::ZeroBackoffCap => {
                f.write_str("retry backoff cap must be at least one interval")
            }
            ClusterError::TopologyNodeMismatch {
                topology_nodes,
                private_nodes,
            } => write!(
                f,
                "topology addresses {topology_nodes} nodes but the private tier has {private_nodes}"
            ),
            ClusterError::WavesWithoutTopology => {
                f.write_str("domain fault waves declared but no topology; call topology(...)")
            }
            ClusterError::InvalidAdmission { what, value } => {
                write!(f, "admission {what} is invalid: {value}")
            }
            ClusterError::DeadlineWithoutBatch => {
                f.write_str("batch deadline declared but no batch workload; call batch_with(...)")
            }
            ClusterError::InvalidDeadline => {
                f.write_str("batch deadline needs tasks >= 1 and positive work and due time")
            }
        }
    }
}

impl std::error::Error for ClusterError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClusterError::Engine(e) => Some(e),
            ClusterError::Fault(e) => Some(e),
            _ => None,
        }
    }
}

impl From<EngineSpecError> for ClusterError {
    fn from(e: EngineSpecError) -> Self {
        ClusterError::Engine(e)
    }
}

/// Declarative description of a cluster run, mirroring
/// [`ScenarioSpec`](crate::ScenarioSpec): builders accumulate, `build`
/// validates with typed errors and wires every node.
pub struct ClusterSpec {
    name: String,
    platform: Platform,
    workload: Option<Box<dyn Fn() -> Box<dyn LcModel> + Send + Sync>>,
    load: Option<Box<dyn LoadPattern>>,
    policy: Option<Box<dyn PolicyFactory>>,
    dispatch: DispatchPolicy,
    private_nodes: usize,
    cloud_nodes: usize,
    overflow: Option<OverflowSpec>,
    quanta_per_node: usize,
    intervals: usize,
    interval_s: f64,
    seed: u64,
    faults: FaultSpec,
    retry: RetrySpec,
    mitigation: bool,
    topology: Option<TopologySpec>,
    waves: DomainFaultSpec,
    hedge: HedgeSpec,
    admission: AdmissionSpec,
    batch: Option<Box<dyn Fn() -> Vec<Box<dyn BatchProgram>> + Send + Sync>>,
    deadline: Option<BatchDeadline>,
    threads: usize,
}

impl std::fmt::Debug for ClusterSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterSpec")
            .field("name", &self.name)
            .field("dispatch", &self.dispatch)
            .field("private_nodes", &self.private_nodes)
            .field("cloud_nodes", &self.cloud_nodes)
            .field("overflow", &self.overflow)
            .field("quanta_per_node", &self.quanta_per_node)
            .field("intervals", &self.intervals)
            .field("interval_s", &self.interval_s)
            .field("seed", &self.seed)
            .field("faults", &self.faults)
            .field("mitigation", &self.mitigation)
            .field("topology", &self.topology)
            .field("waves", &self.waves)
            .field("hedge", &self.hedge)
            .field("admission", &self.admission)
            .field("deadline", &self.deadline)
            .field("threads", &self.threads)
            .finish_non_exhaustive()
    }
}

impl ClusterSpec {
    /// Starts a cluster description: power-of-two-choices dispatch, four
    /// quanta per node, 1 s intervals, seed 0, no cloud tier.
    pub fn new(name: impl Into<String>, platform: Platform) -> Self {
        ClusterSpec {
            name: name.into(),
            platform,
            workload: None,
            load: None,
            policy: None,
            dispatch: DispatchPolicy::PowerOfTwo,
            private_nodes: 0,
            cloud_nodes: 0,
            overflow: None,
            quanta_per_node: 4,
            intervals: 0,
            interval_s: 1.0,
            seed: 0,
            faults: FaultSpec::none(),
            retry: RetrySpec::default(),
            mitigation: true,
            topology: None,
            waves: DomainFaultSpec::none(),
            hedge: HedgeSpec::none(),
            admission: AdmissionSpec::none(),
            batch: None,
            deadline: None,
            threads: 0,
        }
    }

    /// Sets the per-node workload factory (one fresh model per node).
    pub fn workload_with(
        mut self,
        f: impl Fn() -> Box<dyn LcModel> + Send + Sync + 'static,
    ) -> Self {
        self.workload = Some(Box::new(f));
        self
    }

    /// Sets the cluster-level load pattern (fraction of private-tier
    /// capacity).
    pub fn load(mut self, pattern: impl LoadPattern + 'static) -> Self {
        self.load = Some(Box::new(pattern));
        self
    }

    /// Sets the per-node policy factory; each node gets its own policy
    /// built from its split seed.
    pub fn policy(mut self, factory: impl PolicyFactory + 'static) -> Self {
        self.policy = Some(Box::new(factory));
        self
    }

    /// Selects the load-balancing policy (default: power-of-two-choices).
    pub fn dispatch(mut self, policy: DispatchPolicy) -> Self {
        self.dispatch = policy;
        self
    }

    /// Sets the private-tier node count.
    pub fn private_nodes(mut self, n: usize) -> Self {
        self.private_nodes = n;
        self
    }

    /// Sets the cloud-tier node count (requires [`overflow`](Self::overflow)).
    pub fn cloud_nodes(mut self, n: usize) -> Self {
        self.cloud_nodes = n;
        self
    }

    /// Declares the overflow admission rule and cloud price.
    pub fn overflow(mut self, spec: OverflowSpec) -> Self {
        self.overflow = Some(spec);
        self
    }

    /// Sets the dispatch granularity: quanta per node-interval at max
    /// load (default 4).
    pub fn quanta_per_node(mut self, q: usize) -> Self {
        self.quanta_per_node = q;
        self
    }

    /// Sets how many monitoring intervals to simulate.
    pub fn intervals(mut self, n: usize) -> Self {
        self.intervals = n;
        self
    }

    /// Sets the monitoring interval length in seconds (default 1.0).
    pub fn interval_s(mut self, s: f64) -> Self {
        self.interval_s = s;
        self
    }

    /// Sets the cluster base seed; node `i` runs on `split_seed(seed, i)`.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Injects faults into the private tier: transient revocations and
    /// straggler episodes per [`FaultSpec`], drawn from a dedicated
    /// split-seeded stream. `FaultSpec::none()` (the default) leaves the
    /// run byte-identical to a fault-free cluster.
    pub fn faults(mut self, spec: FaultSpec) -> Self {
        self.faults = spec;
        self
    }

    /// Sets the retry policy for work stranded on revoked nodes.
    pub fn retry(mut self, spec: RetrySpec) -> Self {
        self.retry = spec;
        self
    }

    /// Toggles resilience mitigation (default on). With mitigation off,
    /// faults still strike the nodes but the dispatcher keeps feeding
    /// revoked and straggling nodes as if nothing happened, no request
    /// is hedged and the admission ladder never trips — the ablation
    /// baseline of the `faults` rows of `BENCH.jsonl`.
    pub fn mitigation(mut self, on: bool) -> Self {
        self.mitigation = on;
        self
    }

    /// Declares the private tier's failure-domain layout (node → rack →
    /// zone). Required by [`domain_faults`](Self::domain_faults); also
    /// teaches the dispatcher to steer around degraded domains when
    /// mitigation is on.
    pub fn topology(mut self, topo: TopologySpec) -> Self {
        self.topology = Some(topo);
        self
    }

    /// Schedules correlated fault waves over whole zones and racks per
    /// [`DomainFaultSpec`], drawn from a dedicated `fork("waves")`
    /// stream. `DomainFaultSpec::none()` (the default) leaves the run
    /// byte-identical to a wave-free cluster.
    pub fn domain_faults(mut self, spec: DomainFaultSpec) -> Self {
        self.waves = spec;
        self
    }

    /// Arms per-request hedging on every private node: a request whose
    /// straggler multiplier exceeds `1 + delay_multiple` is re-issued
    /// and the loser cancelled. Only acts when mitigation is on.
    pub fn hedge(mut self, spec: HedgeSpec) -> Self {
        self.hedge = spec;
        self
    }

    /// Arms the overload-protection brownout ladder (shed colocated
    /// batch, then defer best-effort arrivals). Only acts when
    /// mitigation is on.
    pub fn admission(mut self, spec: AdmissionSpec) -> Self {
        self.admission = spec;
        self
    }

    /// Gives every private node a colocated batch pool (one fresh pool
    /// per node) — the sheddable tenant the admission ladder acts on.
    pub fn batch_with(
        mut self,
        f: impl Fn() -> Vec<Box<dyn BatchProgram>> + Send + Sync + 'static,
    ) -> Self {
        self.batch = Some(Box::new(f));
        self
    }

    /// Declares a cluster-wide deadline for the colocated batch bag;
    /// [`ClusterSummary::deadline_miss_pct`] reports the late fraction.
    pub fn batch_deadline(mut self, deadline: BatchDeadline) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Caps the worker threads that step the nodes of one interval
    /// (0 = one per available core, the default; 1 = serial). Nodes run
    /// in 64-node chunks, so a cluster of at most 64 nodes always steps
    /// on the calling thread. Results never depend on this knob.
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n;
        self
    }

    /// Checks the description without building it.
    pub fn validate(&self) -> Result<(), ClusterError> {
        if self.workload.is_none() {
            return Err(ClusterError::MissingWorkload);
        }
        if self.load.is_none() {
            return Err(ClusterError::MissingLoad);
        }
        if self.policy.is_none() {
            return Err(ClusterError::MissingPolicy);
        }
        if self.private_nodes == 0 {
            return Err(ClusterError::NoPrivateNodes);
        }
        if self.intervals == 0 {
            return Err(ClusterError::ZeroIntervals);
        }
        if self.quanta_per_node == 0 {
            return Err(ClusterError::ZeroQuanta);
        }
        match (&self.overflow, self.cloud_nodes) {
            (None, 0) => {}
            (None, _) => return Err(ClusterError::CloudWithoutOverflow),
            (Some(_), 0) => return Err(ClusterError::OverflowWithoutCloud),
            (Some(of), _) => of.validate()?,
        }
        self.faults.validate().map_err(ClusterError::Fault)?;
        self.retry.validate()?;
        match &self.topology {
            Some(topo) if topo.nodes() != self.private_nodes => {
                return Err(ClusterError::TopologyNodeMismatch {
                    topology_nodes: topo.nodes(),
                    private_nodes: self.private_nodes,
                });
            }
            Some(_) => {}
            None if !self.waves.is_none() => return Err(ClusterError::WavesWithoutTopology),
            None => {}
        }
        self.waves.validate().map_err(ClusterError::Fault)?;
        self.hedge.validate().map_err(ClusterError::Fault)?;
        self.admission.validate()?;
        if self.deadline.is_some() && self.batch.is_none() {
            return Err(ClusterError::DeadlineWithoutBatch);
        }
        if let Some(d) = &self.deadline {
            if !d.valid() {
                return Err(ClusterError::InvalidDeadline);
            }
        }
        // Engine knobs are validated by EngineSpec::build per node; check
        // the shared interval length up front for a better error.
        let mut probe = EngineSpec::seeded(self.seed);
        probe.interval_s = self.interval_s;
        probe.validate()?;
        Ok(())
    }

    /// Validates and wires the cluster: one engine + policy + split seed
    /// per node, dispatchers per tier.
    pub fn build(self) -> Result<ClusterSim, ClusterError> {
        self.validate()?;
        let workload = self.workload.expect("validated");
        let policy = self.policy.expect("validated");
        let load = self.load.expect("validated");
        let q = self.quanta_per_node;
        // Carry (backlog) may stack on top of a full interval's quota;
        // clamp the occupancy signal well above both.
        let cap = (4 * q).max(8) as u32;

        let probe = workload();
        let qos = probe.qos();
        let reqs_per_quantum = probe.max_load_rps() * self.interval_s / q as f64;

        let total = self.private_nodes + self.cloud_nodes;
        let mut nodes = Vec::with_capacity(total);
        for i in 0..total {
            let node_seed = split_seed(self.seed, i as u64);
            let cell = Arc::new(AtomicU64::new(0f64.to_bits()));
            let mut espec = EngineSpec::seeded(node_seed);
            espec.interval_s = self.interval_s;
            // Private nodes suffer the spec's per-request stragglers and
            // (mitigation on) hedge against them; node-level revocation /
            // straggler episodes stay cluster-imposed via the fault
            // overlay, so the unit families are stripped here.
            let batch_pool = if i < self.private_nodes {
                espec.faults = self.faults.request_only();
                if self.mitigation {
                    espec.hedge = self.hedge;
                }
                self.batch.as_ref().map(|f| f()).unwrap_or_default()
            } else {
                Vec::new()
            };
            let collocate = !batch_pool.is_empty();
            let engine = espec.build(
                self.platform.clone(),
                workload(),
                Box::new(SharedLoad(cell.clone())),
                batch_pool,
            )?;
            let mut manager = Manager::new(engine, policy.build(&self.platform, node_seed));
            if collocate {
                manager = manager.collocated();
            }
            manager.set_run_identity(format!("{}/node{i}", self.name), node_seed);
            nodes.push(NodeSlot {
                manager,
                cell,
                carry: 0,
            });
        }

        let mut private_dispatch = Dispatcher::new(self.dispatch, self.private_nodes, cap);
        if self.mitigation {
            if let Some(topo) = &self.topology {
                let zone_of = (0..self.private_nodes)
                    .map(|i| topo.zone_of(i) as u16)
                    .collect();
                let rack_of = (0..self.private_nodes)
                    .map(|i| topo.rack_of(i) as u16)
                    .collect();
                private_dispatch.set_topology(zone_of, rack_of);
            }
        }
        let cloud_dispatch =
            (self.cloud_nodes > 0).then(|| Dispatcher::new(self.dispatch, self.cloud_nodes, cap));

        // Node-level fault timelines ride their own split stream so the
        // dispatcher RNG is untouched whether or not faults are on.
        // Request-straggler knobs live inside the node engines, so only
        // the unit families warrant a cluster-level plan.
        let faults = self.faults.has_unit_faults().then(|| {
            FaultPlan::new(
                self.faults,
                split_seed(self.seed, u64::MAX - 1),
                self.private_nodes,
            )
        });
        // Domain waves ride yet another stream (`fork("waves")`), split
        // per zone / rack inside the plan, so arming them leaves both
        // the node-fault and dispatcher streams untouched.
        let waves = (!self.waves.is_none()).then(|| {
            let topo = self.topology.expect("validated");
            let base = SimRng::seed(self.seed).fork("waves").next_u64();
            WavePlan::new(self.waves, topo, base)
        });
        let (num_zones, num_racks) = match (&waves, &self.topology) {
            (Some(_), Some(topo)) => (topo.num_zones(), topo.num_racks()),
            _ => (0, 0),
        };

        let workers = resolve_workers(self.threads, total.div_ceil(NODE_CHUNK));
        Ok(ClusterSim {
            name: self.name,
            nodes,
            workers,
            outs: (0..total).map(|_| None).collect(),
            n_private: self.private_nodes,
            private_dispatch,
            cloud_dispatch,
            overflow: self.overflow,
            load,
            qos,
            q,
            cap,
            reqs_per_quantum,
            interval_s: self.interval_s,
            intervals_total: self.intervals,
            stepped: 0,
            rng: SimRng::seed(split_seed(self.seed, u64::MAX)),
            digest: DecisionDigest(FNV_OFFSET),
            decisions: 0,
            bill: CloudBill::default(),
            trace: ClusterTrace::new(),
            assigned: vec![0; total],
            scratch_tails: Vec::with_capacity(total),
            faults,
            retry: self.retry,
            mitigation: self.mitigation,
            node_fault: vec![FaultState::Healthy; self.private_nodes],
            retries: Vec::new(),
            retry_scratch: Vec::new(),
            waves,
            admission: self.admission,
            deadline: self.deadline,
            has_batch: self.batch.is_some(),
            shedding: false,
            deferred: 0,
            zone_bad: vec![false; num_zones],
            rack_bad: vec![false; num_racks],
            prev_hedged: 0,
            prev_straggled: 0,
        })
    }
}

/// A per-node load cell: the dispatcher writes the node's assigned load
/// fraction before each engine step, and the engine's [`LoadPattern`]
/// reads it back. Bits of an `f64` in an `AtomicU64` keep the pattern
/// `Send` without locks.
#[derive(Debug, Clone)]
struct SharedLoad(Arc<AtomicU64>);

impl LoadPattern for SharedLoad {
    fn load_at(&self, _t: f64) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }

    fn duration(&self) -> f64 {
        f64::INFINITY
    }
}

struct NodeSlot {
    manager: Manager,
    cell: Arc<AtomicU64>,
    /// Backlog carried into the next interval, in quanta.
    carry: u32,
}

/// Nodes per task of the parallel node stage. A node-interval of a
/// 1024-node cluster costs ~35 µs, so one chunk is ~2 ms of work — far
/// more than a thread spawn — and a cluster of at most this many nodes
/// is one chunk stepped on the calling thread.
const NODE_CHUNK: usize = 64;

/// One node's result slot, written by whichever thread stepped the node
/// and read back by the serial fold.
#[derive(Debug)]
struct NodeOut {
    stats: IntervalStats,
    /// The engine's cumulative hedged-request count after the step.
    hedged: u64,
    /// The engine's cumulative straggled-request count after the step.
    straggled: u64,
}

/// Steps one chunk of nodes into its own result slots.
fn step_chunk(nodes: &mut [NodeSlot], outs: &mut [Option<NodeOut>]) {
    for (slot, out) in nodes.iter_mut().zip(outs) {
        let stats = slot.manager.step();
        let engine = slot.manager.engine();
        *out = Some(NodeOut {
            stats,
            hedged: engine.hedged_requests(),
            straggled: engine.request_straggles(),
        });
    }
}

/// A batch of quanta stranded by a revocation, waiting out its backoff.
#[derive(Debug, Clone, Copy)]
struct RetryBatch {
    /// Interval index at which the batch becomes eligible again.
    due: u64,
    /// Re-dispatch attempts consumed so far (1-based).
    attempt: u32,
    /// Quanta in the batch.
    count: u32,
}

/// The dispatch tier a quantum lands on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tier {
    Private = 0,
    Cloud = 1,
}

/// One entry of the decision digest's input stream. [`encode`](Self::encode)
/// gives each the `(tag << 32) | payload` word the digest has always
/// folded (tags 0–12), so recorded digests stay valid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Decision {
    /// A quantum placed on `node` (index within its tier).
    Place { tier: Tier, node: usize },
    /// A revoked private node masked out of dispatch.
    Mask(usize),
    /// A masked private node returned to dispatch.
    Unmask(usize),
    /// A due retry batch of this many quanta re-dispatched.
    Retry(u32),
    /// A retry batch of this many quanta dropped, out of attempts.
    Drop(u32),
    /// A fresh quantum stranded: every private node masked, no cloud.
    Strand,
    /// A zone entered (`bad`) or left a degraded state.
    ZoneDegraded { zone: usize, bad: bool },
    /// A rack entered (`bad`) or left a degraded state.
    RackDegraded { rack: usize, bad: bool },
    /// Requests hedged across the cluster this interval.
    Hedged(u64),
    /// The shed rung tripped (`true`) or cleared.
    Shed(bool),
    /// Best-effort quanta parked by the defer rung.
    Defer(usize),
    /// Deferred quanta released back into dispatch.
    Release(usize),
}

impl Decision {
    fn encode(self) -> u64 {
        let (tag, payload) = match self {
            Decision::Place { tier, node } => (tier as u64, node as u64),
            Decision::Mask(node) => (2, node as u64),
            Decision::Unmask(node) => (3, node as u64),
            Decision::Retry(count) => (4, u64::from(count)),
            Decision::Drop(count) => (5, u64::from(count)),
            Decision::Strand => (6, 0),
            Decision::ZoneDegraded { zone, bad } => (7, ((zone as u64) << 1) | u64::from(bad)),
            Decision::RackDegraded { rack, bad } => (8, ((rack as u64) << 1) | u64::from(bad)),
            Decision::Hedged(count) => (9, count),
            Decision::Shed(on) => (10, u64::from(on)),
            Decision::Defer(count) => (11, count as u64),
            Decision::Release(count) => (12, count as u64),
        };
        (tag << 32) | payload
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a digest over the encoded decision stream (little-endian bytes).
#[derive(Debug, Clone, Copy)]
struct DecisionDigest(u64);

impl DecisionDigest {
    fn record(&mut self, decision: Decision) {
        for b in decision.encode().to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }
}

/// What the fault overlay did to one interval.
#[derive(Debug, Default)]
struct Overlay {
    revoked_nodes: usize,
    straggling_nodes: usize,
    /// Quanta drained from the retry queue into this interval's dispatch.
    retried_quanta: usize,
    dropped_quanta: usize,
    all_private_masked: bool,
}

/// The node stage's sums, folded in node order.
#[derive(Debug, Default)]
struct NodeTotals {
    arrivals: usize,
    completions: usize,
    timeouts: usize,
    private_energy: f64,
    cloud_busy_req_s: f64,
    batch_ips: f64,
    hedged_requests: u64,
    straggled_requests: u64,
}

/// A wired, running cluster: call [`step`](Self::step) interval by
/// interval or [`run`](Self::run) to completion.
pub struct ClusterSim {
    name: String,
    nodes: Vec<NodeSlot>,
    /// Workers stepping the node stage (1 = on the calling thread).
    workers: usize,
    /// One result slot per node, refilled every interval.
    outs: Vec<Option<NodeOut>>,
    n_private: usize,
    private_dispatch: Dispatcher,
    cloud_dispatch: Option<Dispatcher>,
    overflow: Option<OverflowSpec>,
    load: Box<dyn LoadPattern>,
    qos: QosTarget,
    q: usize,
    cap: u32,
    reqs_per_quantum: f64,
    interval_s: f64,
    intervals_total: usize,
    stepped: usize,
    rng: SimRng,
    digest: DecisionDigest,
    decisions: u64,
    bill: CloudBill,
    trace: ClusterTrace,
    assigned: Vec<u32>,
    scratch_tails: Vec<f64>,
    faults: Option<FaultPlan>,
    retry: RetrySpec,
    mitigation: bool,
    node_fault: Vec<FaultState>,
    retries: Vec<RetryBatch>,
    retry_scratch: Vec<RetryBatch>,
    waves: Option<WavePlan>,
    admission: AdmissionSpec,
    deadline: Option<BatchDeadline>,
    has_batch: bool,
    /// Whether the shed rung is currently tripped.
    shedding: bool,
    /// Best-effort quanta parked by the defer rung, awaiting release.
    deferred: u64,
    zone_bad: Vec<bool>,
    rack_bad: Vec<bool>,
    /// Cumulative hedged-request count across nodes at last interval end.
    prev_hedged: u64,
    /// Cumulative straggled-request count at last interval end.
    prev_straggled: u64,
}

impl std::fmt::Debug for ClusterSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterSim")
            .field("name", &self.name)
            .field("nodes", &self.nodes.len())
            .field("private", &self.n_private)
            .field("dispatch", &self.private_dispatch.policy())
            .field("stepped", &self.stepped)
            .finish_non_exhaustive()
    }
}

impl ClusterSim {
    /// The cluster's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total node count (private + cloud).
    pub fn nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Private-tier node count.
    pub fn private_nodes(&self) -> usize {
        self.n_private
    }

    /// Intervals simulated so far.
    pub fn stepped(&self) -> usize {
        self.stepped
    }

    /// FNV-1a digest over every decision so far (placements, masking,
    /// retries, domain transitions, hedges, admission rungs):
    /// byte-identical runs have equal digests.
    pub fn decision_digest(&self) -> u64 {
        self.digest.0
    }

    /// The trace so far.
    pub fn trace(&self) -> &ClusterTrace {
        &self.trace
    }

    /// Simulates one monitoring interval across every node and returns
    /// its cluster-wide aggregate. The stages run in a fixed order:
    /// fault overlay → occupancy → admission → placement → arm, step and
    /// fold the nodes. Only the node step runs in parallel; every stage
    /// that folds into the digest or sums floats runs in node order.
    ///
    /// # Panics
    ///
    /// If a node's policy or engine panics. Stepped on several threads,
    /// the panic message names the cluster and the chunk's node range.
    pub fn step(&mut self) -> ClusterInterval {
        let now = self.stepped as f64 * self.interval_s;
        let idx = self.stepped as u64;
        let offered = self.load.load_at(now).max(0.0);
        let capacity_quanta = (self.n_private * self.q) as u64;
        let total_quanta = (offered * capacity_quanta as f64).round() as usize;

        // Inactive (no node plan, no wave plan) the fault overlay folds
        // nothing into the digest and touches nothing — the run stays
        // byte-identical to a fault-free cluster.
        let have_faults = self.faults.is_some() || self.waves.is_some();
        let overlay = if have_faults {
            self.fault_overlay(now, idx)
        } else {
            Overlay::default()
        };
        self.set_occupancy();
        let (deferred_now, released_quanta) = self.admit(total_quanta, capacity_quanta);
        let spilled = self.place(
            overlay.retried_quanta,
            total_quanta - deferred_now + released_quanta,
            overlay.all_private_masked,
            capacity_quanta,
            idx,
        );

        self.arm_nodes(have_faults);
        self.step_nodes();
        let totals = self.fold_nodes();

        let (p95_s, p99_s) = cluster_tails(&mut self.scratch_tails);
        let cloud_cost_usd = match &self.overflow {
            Some(of) => self.bill.charge(totals.cloud_busy_req_s, of),
            None => 0.0,
        };
        let interval = ClusterInterval {
            index: self.stepped as u64,
            start_s: now,
            duration_s: self.interval_s,
            offered_frac: offered,
            quanta: total_quanta,
            spilled_quanta: spilled,
            arrivals: totals.arrivals,
            completions: totals.completions,
            timeouts: totals.timeouts,
            p95_s,
            p99_s,
            private_energy_j: totals.private_energy,
            cloud_busy_req_s: totals.cloud_busy_req_s,
            cloud_cost_usd,
            revoked_nodes: overlay.revoked_nodes,
            straggling_nodes: overlay.straggling_nodes,
            retried_quanta: overlay.retried_quanta,
            dropped_quanta: overlay.dropped_quanta,
            hedged_requests: totals.hedged_requests,
            straggled_requests: totals.straggled_requests,
            deferred_quanta: deferred_now,
            batch_ips: totals.batch_ips,
            shed_batch: self.shedding,
        };
        self.trace.push(interval.clone());
        self.stepped += 1;
        interval
    }

    /// Fault overlay: samples each private node's fault state, tells the
    /// dispatcher which whole domains are degraded, and drains due retry
    /// batches into this interval's dispatch volume.
    fn fault_overlay(&mut self, now: f64, idx: u64) -> Overlay {
        let mut overlay = Overlay::default();
        // Each private node's state is the correlated wave state of its
        // zone and rack combined with its own independent timeline. On a
        // fresh revocation (mitigation on) mask the node out of dispatch
        // and strand its carried backlog into the retry queue. A warned
        // revocation re-dispatches immediately; an unwarned one waits
        // out the base backoff first.
        for i in 0..self.n_private {
            let mut state = match self.waves.as_mut() {
                Some(w) => w.state(i, now),
                None => FaultState::Healthy,
            };
            if let Some(plan) = self.faults.as_mut() {
                state = FaultState::combine(state, plan.state(i, now));
            }
            self.node_fault[i] = state;
            match state {
                FaultState::Revoked { warned } => {
                    overlay.revoked_nodes += 1;
                    if self.mitigation {
                        if !self.private_dispatch.is_masked(i) {
                            self.private_dispatch.set_masked(i, true);
                            self.digest.record(Decision::Mask(i));
                        }
                        let carry = self.nodes[i].carry;
                        if carry > 0 {
                            let due = if warned {
                                idx
                            } else {
                                idx + self.retry.backoff_for(0)
                            };
                            self.retries.push(RetryBatch {
                                due,
                                attempt: 1,
                                count: carry,
                            });
                            self.nodes[i].carry = 0;
                        }
                    }
                }
                FaultState::Straggling { .. } | FaultState::Healthy => {
                    if matches!(state, FaultState::Straggling { .. }) {
                        overlay.straggling_nodes += 1;
                    }
                    if self.private_dispatch.is_masked(i) {
                        self.private_dispatch.set_masked(i, false);
                        self.digest.record(Decision::Unmask(i));
                    }
                }
            }
        }
        overlay.all_private_masked =
            (0..self.n_private).all(|i| self.private_dispatch.is_masked(i));

        // Degraded domains make p2c re-probes and retry placement steer
        // toward survivors; every transition joins the digest.
        if self.mitigation {
            if let Some(w) = self.waves.as_mut() {
                for z in 0..self.zone_bad.len() {
                    let bad = w.zone_state(z, now).is_faulted();
                    if bad != self.zone_bad[z] {
                        self.zone_bad[z] = bad;
                        self.private_dispatch.set_domain_degraded(false, z, bad);
                        self.digest.record(Decision::ZoneDegraded { zone: z, bad });
                    }
                }
                for r in 0..self.rack_bad.len() {
                    let bad = w.rack_state(r, now).is_faulted();
                    if bad != self.rack_bad[r] {
                        self.rack_bad[r] = bad;
                        self.private_dispatch.set_domain_degraded(true, r, bad);
                        self.digest.record(Decision::RackDegraded { rack: r, bad });
                    }
                }
            }
        }

        // Due retry batches rejoin dispatch; batches out of attempts with
        // nowhere to go are dropped, the rest wait out an exponentially
        // longer backoff.
        let any_private = !overlay.all_private_masked;
        let can_spill = self.cloud_dispatch.is_some() && self.overflow.is_some();
        let mut parked = std::mem::take(&mut self.retry_scratch);
        parked.clear();
        for batch in self.retries.drain(..) {
            if batch.due > idx {
                parked.push(batch);
            } else if any_private || can_spill {
                overlay.retried_quanta += batch.count as usize;
                self.digest.record(Decision::Retry(batch.count));
            } else if batch.attempt >= self.retry.max_attempts {
                overlay.dropped_quanta += batch.count as usize;
                self.digest.record(Decision::Drop(batch.count));
            } else {
                parked.push(RetryBatch {
                    due: idx + self.retry.backoff_for(batch.attempt),
                    attempt: batch.attempt + 1,
                    count: batch.count,
                });
            }
        }
        std::mem::swap(&mut self.retries, &mut parked);
        self.retry_scratch = parked;
        overlay
    }

    /// Occupancy: publishes each node's interval-start load to its
    /// dispatcher — the carried backlog. Masked (revoked) nodes report
    /// their full capacity share (`q`) so the watermark sees exactly the
    /// lost capacity — mass revocation then overflows to the cloud tier
    /// as graceful degradation. Straggling nodes (mitigation on) report
    /// the capacity fraction a slowdown of `s` actually forfeits,
    /// `(1 - 1/s)·q`, so power-of-two picks steer around them without
    /// the watermark over-counting.
    fn set_occupancy(&mut self) {
        for i in 0..self.n_private {
            let occ = if self.private_dispatch.is_masked(i) {
                (self.q as u32).max(self.nodes[i].carry)
            } else if self.mitigation {
                match self.node_fault[i] {
                    FaultState::Straggling { slowdown } => {
                        let penalty = ((1.0 - 1.0 / slowdown) * self.q as f64).round() as u32;
                        self.nodes[i].carry.saturating_add(penalty).min(self.cap)
                    }
                    _ => self.nodes[i].carry,
                }
            } else {
                self.nodes[i].carry
            };
            self.private_dispatch.set_occupancy(i, occ);
        }
        if let Some(cd) = self.cloud_dispatch.as_mut() {
            for (j, slot) in self.nodes[self.n_private..].iter().enumerate() {
                cd.set_occupancy(j, slot.carry);
            }
        }
    }

    /// Admission: the brownout ladder reads interval-start occupancy.
    /// Rung 1 sheds colocated batch, rung 2 parks a fraction of fresh
    /// arrivals in the defer queue and releases them (capacity-capped)
    /// once pressure lifts. Unarmed (or with mitigation off) this folds
    /// nothing and changes nothing. Returns `(deferred, released)` quanta.
    fn admit(&mut self, total_quanta: usize, capacity_quanta: u64) -> (usize, usize) {
        if !self.mitigation || self.admission.is_none() {
            return (0, 0);
        }
        let occ_frac = self.private_dispatch.total() as f64 / capacity_quanta as f64;
        let shed = occ_frac >= self.admission.shed_watermark;
        if shed != self.shedding {
            self.shedding = shed;
            self.digest.record(Decision::Shed(shed));
        }
        if occ_frac >= self.admission.defer_watermark {
            let deferred = (self.admission.best_effort_frac * total_quanta as f64).floor() as usize;
            if deferred > 0 {
                self.deferred += deferred as u64;
                self.digest.record(Decision::Defer(deferred));
            }
            (deferred, 0)
        } else if self.deferred > 0 {
            let released = self.deferred.min(capacity_quanta) as usize;
            self.deferred -= released as u64;
            self.digest.record(Decision::Release(released));
            (0, released)
        } else {
            (0, 0)
        }
    }

    /// Placement: places the interval's quanta one decision at a time,
    /// the `retried` quanta first (they may take the dispatcher's
    /// domain-aware retry path). With the whole private tier revoked and
    /// no cloud to spill to, fresh quanta are stranded into the retry
    /// queue instead of dispatched onto dead nodes. Returns the quanta
    /// spilled to the cloud tier.
    fn place(
        &mut self,
        retried: usize,
        fresh: usize,
        all_private_masked: bool,
        capacity_quanta: u64,
        idx: u64,
    ) -> usize {
        self.assigned.fill(0);
        let mut spilled = 0usize;
        let mut stranded = 0u32;
        for k in 0..retried + fresh {
            let spill = match (&self.cloud_dispatch, &self.overflow) {
                (Some(_), Some(of)) => of.spills(self.private_dispatch.total(), capacity_quanta),
                _ => false,
            };
            if all_private_masked && !spill {
                stranded += 1;
                self.digest.record(Decision::Strand);
                continue;
            }
            let (tier, node) = if spill {
                let cd = self.cloud_dispatch.as_mut().expect("checked above");
                let local = cd.pick(&mut self.rng);
                spilled += 1;
                self.assigned[self.n_private + local] += 1;
                (Tier::Cloud, local)
            } else {
                let local = if k < retried {
                    self.private_dispatch.pick_retry(&mut self.rng)
                } else {
                    self.private_dispatch.pick(&mut self.rng)
                };
                self.assigned[local] += 1;
                (Tier::Private, local)
            };
            self.digest.record(Decision::Place { tier, node });
            self.decisions += 1;
        }
        if stranded > 0 {
            self.retries.push(RetryBatch {
                due: idx + self.retry.backoff_for(0),
                attempt: 1,
                count: stranded,
            });
        }
        spilled
    }

    /// Node stage 1 (serial): writes each node's assigned load fraction,
    /// external fault state and batch-shed flag.
    fn arm_nodes(&mut self, have_faults: bool) {
        for (i, slot) in self.nodes.iter_mut().enumerate() {
            let frac = f64::from(self.assigned[i]) / self.q as f64;
            // Relaxed is enough: `run_tasks` hands each chunk to its
            // worker through a thread spawn and a job mutex, which order
            // this store before the engine's read on that worker.
            slot.cell.store(frac.to_bits(), Ordering::Relaxed);
            if have_faults && i < self.n_private {
                slot.manager.set_external_fault(self.node_fault[i]);
            }
            if self.has_batch && i < self.n_private {
                slot.manager.set_batch_shed(self.shedding);
            }
        }
    }

    /// Node stage 2: runs every node's engine interval into its result
    /// slot, [`NODE_CHUNK`] nodes per task. Each task owns its chunk of
    /// nodes and slots and shares nothing else, so which worker steps a
    /// chunk, and when, cannot change any slot. With one worker (or one
    /// chunk) the chunks run in order on the calling thread.
    fn step_nodes(&mut self) {
        let chunks = self
            .nodes
            .chunks_mut(NODE_CHUNK)
            .zip(self.outs.chunks_mut(NODE_CHUNK));
        if self.workers <= 1 {
            for (nodes, outs) in chunks {
                step_chunk(nodes, outs);
            }
            return;
        }
        let name = &self.name;
        let tasks: Vec<(String, _)> = chunks
            .enumerate()
            .map(|(c, (nodes, outs))| {
                let lo = c * NODE_CHUNK;
                let task = format!("cluster {name} nodes {lo}..{}", lo + nodes.len());
                (task, move || step_chunk(nodes, outs))
            })
            .collect();
        match run_tasks(tasks, self.workers) {
            Ok(_) => {}
            Err(FleetError::ScenarioPanicked { name, message, .. }) => {
                panic!("{name} panicked: {message}")
            }
            Err(e) => panic!("cluster {} node stage failed: {e}", self.name),
        }
    }

    /// Node stage 3 (serial): walks the result slots in node order —
    /// sums, tail samples and carried backlogs in exactly the order a
    /// serial loop would produce them, so every float sum is the same
    /// whatever the worker count.
    fn fold_nodes(&mut self) -> NodeTotals {
        let mut totals = NodeTotals::default();
        let mut hedged_total = 0u64;
        let mut straggled_total = 0u64;
        self.scratch_tails.clear();
        for (i, (slot, out)) in self.nodes.iter_mut().zip(&mut self.outs).enumerate() {
            let NodeOut {
                stats,
                hedged,
                straggled,
            } = out.take().expect("every node stepped this interval");
            totals.arrivals += stats.arrivals;
            totals.completions += stats.completions;
            totals.timeouts += stats.timeouts;
            if stats.completions > 0 {
                self.scratch_tails.push(stats.tail_latency_s);
            }
            if i < self.n_private {
                totals.private_energy += stats.energy_j;
                totals.batch_ips += stats.batch_ips_big + stats.batch_ips_small;
                hedged_total += hedged;
                straggled_total += straggled;
            } else {
                totals.cloud_busy_req_s += stats.lc_busy.iter().sum::<f64>() * stats.duration_s;
            }
            slot.carry = quantize_backlog(stats.queue_len, self.reqs_per_quantum);
        }
        // Engines count hedges/straggles cumulatively; the interval's
        // share is the delta. Hedge decisions join the digest so armed
        // sweeps compare hedging event for event.
        totals.hedged_requests = hedged_total - self.prev_hedged;
        self.prev_hedged = hedged_total;
        totals.straggled_requests = straggled_total - self.prev_straggled;
        self.prev_straggled = straggled_total;
        if totals.hedged_requests > 0 {
            self.digest.record(Decision::Hedged(totals.hedged_requests));
        }
        totals
    }

    /// Runs the remaining intervals and condenses the result.
    pub fn run(mut self) -> ClusterOutcome {
        while self.stepped < self.intervals_total {
            self.step();
        }
        let mut summary = self.trace.summary(self.name.clone(), self.qos);
        if let Some(d) = &self.deadline {
            summary.deadline_miss_pct = Some(100.0 * self.trace.deadline_miss_fraction(d));
        }
        ClusterOutcome {
            name: self.name,
            summary,
            trace: self.trace,
            decision_digest: self.digest.0,
            decisions: self.decisions,
            cloud_bill: self.bill,
        }
    }
}

/// Converts an end-of-interval queue backlog (requests) into carried
/// occupancy quanta, rounding up so any backlog registers.
fn quantize_backlog(queue_len: usize, reqs_per_quantum: f64) -> u32 {
    if queue_len == 0 {
        return 0;
    }
    (queue_len as f64 / reqs_per_quantum).ceil() as u32
}

/// Everything a finished cluster run yields.
#[derive(Debug)]
pub struct ClusterOutcome {
    /// The cluster's name.
    pub name: String,
    /// Condensed result (QoS %, p99s, energy, dollars, spill fraction).
    pub summary: ClusterSummary,
    /// Interval-by-interval record.
    pub trace: ClusterTrace,
    /// FNV-1a digest over every dispatch decision — the determinism and
    /// differential hooks compare these.
    pub decision_digest: u64,
    /// Total quanta dispatched.
    pub decisions: u64,
    /// The cloud tier's final bill.
    pub cloud_bill: CloudBill,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::StaticPolicy;
    use crate::policy::Policy;
    use hipster_sim::FaultSpec;
    use hipster_workloads::{memcached, Constant};

    fn spec(nodes: usize) -> ClusterSpec {
        ClusterSpec::new("test", Platform::juno_r1())
            .workload_with(|| Box::new(memcached()))
            .load(Constant::new(0.6, 10.0))
            .policy(|p: &Platform, _s: u64| Box::new(StaticPolicy::all_big(p)) as Box<dyn Policy>)
            .private_nodes(nodes)
            .intervals(3)
            .interval_s(0.05)
            .seed(11)
    }

    #[test]
    fn decisions_encode_to_the_recorded_digest_words() {
        let cases = [
            (
                Decision::Place {
                    tier: Tier::Private,
                    node: 7,
                },
                7,
            ),
            (
                Decision::Place {
                    tier: Tier::Cloud,
                    node: 7,
                },
                (1 << 32) | 7,
            ),
            (Decision::Mask(5), (2 << 32) | 5),
            (Decision::Unmask(5), (3 << 32) | 5),
            (Decision::Retry(9), (4 << 32) | 9),
            (Decision::Drop(9), (5 << 32) | 9),
            (Decision::Strand, 6 << 32),
            (
                Decision::ZoneDegraded { zone: 3, bad: true },
                (7 << 32) | (3 << 1) | 1,
            ),
            (
                Decision::RackDegraded {
                    rack: 3,
                    bad: false,
                },
                (8 << 32) | (3 << 1),
            ),
            (Decision::Hedged(40), (9 << 32) | 40),
            (Decision::Shed(true), (10 << 32) | 1),
            (Decision::Defer(12), (11 << 32) | 12),
            (Decision::Release(12), (12 << 32) | 12),
        ];
        for (decision, word) in cases {
            assert_eq!(decision.encode(), word, "{decision:?}");
        }
    }

    /// A policy that panics the first time it is asked to decide.
    #[derive(Debug)]
    struct PanicsOnDecide;

    impl Policy for PanicsOnDecide {
        fn name(&self) -> &str {
            "panics-on-decide"
        }

        fn decide(&mut self, _obs: &crate::policy::Observation) -> hipster_platform::CoreConfig {
            panic!("node policy panicked")
        }
    }

    #[test]
    fn a_panicking_node_panics_the_step_naming_its_chunk() {
        // Node 150 of 256 sits in the third 64-node chunk. Every node is
        // seeded `split_seed(11, i)`, which picks it out of the factory.
        let doomed = split_seed(11, 150);
        let message = |threads: usize| {
            let mut sim = spec(256)
                .intervals(1)
                .threads(threads)
                .policy(move |p: &Platform, seed: u64| {
                    if seed == doomed {
                        Box::new(PanicsOnDecide) as Box<dyn Policy>
                    } else {
                        Box::new(StaticPolicy::all_big(p))
                    }
                })
                .build()
                .unwrap();
            let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| sim.step()))
                .expect_err("the step must panic");
            crate::fleet::panic_message(payload.as_ref())
        };
        // Serial: the node's own panic, unwrapped.
        assert_eq!(message(1), "node policy panicked");
        assert_eq!(
            message(2),
            "cluster test nodes 128..192 panicked: node policy panicked"
        );
    }

    #[test]
    fn validation_catches_each_misdeclaration() {
        let base = || spec(4);
        assert_eq!(
            ClusterSpec::new("x", Platform::juno_r1()).validate(),
            Err(ClusterError::MissingWorkload)
        );
        assert_eq!(
            base().private_nodes(0).validate(),
            Err(ClusterError::NoPrivateNodes)
        );
        assert_eq!(
            base().intervals(0).validate(),
            Err(ClusterError::ZeroIntervals)
        );
        assert_eq!(
            base().quanta_per_node(0).validate(),
            Err(ClusterError::ZeroQuanta)
        );
        assert_eq!(
            base().cloud_nodes(2).validate(),
            Err(ClusterError::CloudWithoutOverflow)
        );
        assert_eq!(
            base().overflow(OverflowSpec::new(0.8, 1e-4)).validate(),
            Err(ClusterError::OverflowWithoutCloud)
        );
        assert_eq!(
            base()
                .cloud_nodes(2)
                .overflow(OverflowSpec::new(1.5, 1e-4))
                .validate(),
            Err(ClusterError::InvalidWatermark { watermark: 1.5 })
        );
        assert!(matches!(
            base().interval_s(0.0).validate(),
            Err(ClusterError::Engine(_))
        ));
        assert!(base().validate().is_ok());
    }

    #[test]
    fn same_seed_same_digest_different_seed_different_digest() {
        let a = spec(6).build().unwrap().run();
        let b = spec(6).build().unwrap().run();
        assert_eq!(a.decision_digest, b.decision_digest);
        assert_eq!(a.summary, b.summary);
        let c = spec(6).seed(12).build().unwrap().run();
        assert_ne!(a.decision_digest, c.decision_digest);
    }

    #[test]
    fn work_is_conserved_and_latency_recorded() {
        let out = spec(8).build().unwrap().run();
        // 0.6 load × 8 nodes × 4 quanta = ~19 quanta per interval.
        for iv in out.trace.intervals() {
            assert_eq!(iv.quanta, 19);
            assert_eq!(iv.spilled_quanta, 0); // no cloud tier
            assert!(iv.arrivals > 0);
            assert!(iv.p95_s > 0.0 && iv.p99_s >= iv.p95_s);
            assert!(iv.private_energy_j > 0.0);
            assert_eq!(iv.cloud_cost_usd, 0.0);
        }
        assert_eq!(out.decisions, 3 * 19);
    }

    #[test]
    fn overload_spills_to_the_cloud_tier_and_is_billed() {
        // Offered load beyond the watermark with a tiny private tier:
        // spill must engage and the bill must be positive.
        let out = ClusterSpec::new("burst", Platform::juno_r1())
            .workload_with(|| Box::new(memcached()))
            .load(Constant::new(1.0, 10.0))
            .policy(|p: &Platform, _s: u64| Box::new(StaticPolicy::all_big(p)) as Box<dyn Policy>)
            .private_nodes(2)
            .cloud_nodes(2)
            .overflow(OverflowSpec::new(0.5, 1e-3))
            .intervals(3)
            .interval_s(0.05)
            .seed(3)
            .build()
            .unwrap()
            .run();
        assert!(out.summary.spill_frac > 0.0, "{:?}", out.summary);
        assert!(out.summary.total_cloud_usd > 0.0);
        assert!(out.cloud_bill.req_seconds > 0.0);
    }

    #[test]
    fn fault_off_is_byte_identical_to_the_fault_free_path() {
        let plain = spec(6).build().unwrap().run();
        let fault_off = spec(6).faults(FaultSpec::none()).build().unwrap().run();
        assert_eq!(plain.decision_digest, fault_off.decision_digest);
        assert_eq!(plain.summary, fault_off.summary);
    }

    #[test]
    fn fault_knobs_validate_with_typed_errors() {
        assert!(matches!(
            spec(4)
                .faults(FaultSpec::none().with_revocations(-1.0, 0.2))
                .validate(),
            Err(ClusterError::Fault(_))
        ));
        let mut bad = RetrySpec::default();
        bad.max_attempts = 0;
        assert_eq!(
            spec(4).retry(bad).validate(),
            Err(ClusterError::ZeroRetryAttempts)
        );
        let mut bad = RetrySpec::default();
        bad.backoff_cap_intervals = 0;
        assert_eq!(
            spec(4).retry(bad).validate(),
            Err(ClusterError::ZeroBackoffCap)
        );
    }

    fn faulty_spec(nodes: usize, mitigation: bool) -> ClusterSpec {
        spec(nodes)
            .intervals(40)
            .faults(
                FaultSpec::none()
                    .with_revocations(2.0, 0.3)
                    .with_warned(0.5),
            )
            .mitigation(mitigation)
    }

    #[test]
    fn revocations_mask_nodes_and_recycle_work() {
        let out = faulty_spec(6, true).build().unwrap().run();
        assert!(out.summary.revoked_node_intervals > 0, "{:?}", out.summary);
        assert!(
            out.summary.retried_quanta > 0,
            "stranded backlog should re-dispatch: {:?}",
            out.summary
        );
        // Mitigation changes dispatch decisions relative to the ablation.
        let ablated = faulty_spec(6, false).build().unwrap().run();
        assert_eq!(
            out.summary.revoked_node_intervals, ablated.summary.revoked_node_intervals,
            "fault timeline is independent of mitigation"
        );
        assert_ne!(out.decision_digest, ablated.decision_digest);
        assert_eq!(ablated.summary.retried_quanta, 0);
    }

    #[test]
    fn straggler_episodes_are_counted_and_deterministic() {
        let make = || {
            spec(6)
                .intervals(40)
                .faults(FaultSpec::none().with_stragglers(2.0, 0.3, 1.5, 2.0, 6.0))
                .build()
                .unwrap()
                .run()
        };
        let a = make();
        let b = make();
        assert!(a.summary.straggling_node_intervals > 0, "{:?}", a.summary);
        assert_eq!(a.summary.revoked_node_intervals, 0);
        assert_eq!(a.decision_digest, b.decision_digest);
        assert_eq!(a.summary, b.summary);
    }

    #[test]
    fn total_revocation_without_cloud_strands_then_drops() {
        // One node, revoked essentially forever: fresh quanta must be
        // stranded (never dispatched to the dead node) and eventually
        // dropped once their retry budget runs out.
        let out = spec(1)
            .intervals(30)
            .faults(FaultSpec::none().with_revocations(200.0, 1e6))
            .retry(RetrySpec {
                max_attempts: 2,
                backoff_intervals: 1,
                backoff_cap_intervals: 2,
            })
            .build()
            .unwrap()
            .run();
        assert!(out.summary.revoked_node_intervals > 20, "{:?}", out.summary);
        assert!(out.summary.dropped_quanta > 0, "{:?}", out.summary);
    }

    fn batch_pool() -> Vec<Box<dyn BatchProgram>> {
        hipster_workloads::spec::programs()
            .into_iter()
            .take(2)
            .map(|p| Box::new(p) as Box<dyn BatchProgram>)
            .collect()
    }

    #[test]
    fn disarmed_pr10_subsystems_are_byte_identical_to_the_plain_path() {
        // Topology installed, every new subsystem declared but disarmed:
        // the run must be byte-identical to a cluster that has never
        // heard of any of it.
        let plain = spec(8).build().unwrap().run();
        let armed_none = spec(8)
            .topology(TopologySpec::new(2, 2, 2).unwrap())
            .domain_faults(DomainFaultSpec::none())
            .hedge(HedgeSpec::none())
            .admission(AdmissionSpec::none())
            .build()
            .unwrap()
            .run();
        assert_eq!(plain.decision_digest, armed_none.decision_digest);
        assert_eq!(plain.summary, armed_none.summary);
    }

    #[test]
    fn validation_catches_pr10_misdeclarations() {
        let base = || spec(4);
        assert_eq!(
            base()
                .topology(TopologySpec::new(2, 2, 2).unwrap())
                .validate(),
            Err(ClusterError::TopologyNodeMismatch {
                topology_nodes: 8,
                private_nodes: 4,
            })
        );
        assert_eq!(
            base()
                .domain_faults(DomainFaultSpec::none().with_zone_revocations(1.0, 0.3))
                .validate(),
            Err(ClusterError::WavesWithoutTopology)
        );
        assert!(matches!(
            base()
                .topology(TopologySpec::new(2, 1, 2).unwrap())
                .domain_faults(DomainFaultSpec::none().with_zone_revocations(-1.0, 0.3))
                .validate(),
            Err(ClusterError::Fault(_))
        ));
        assert!(matches!(
            base().hedge(HedgeSpec::after(-1.0)).validate(),
            Err(ClusterError::Fault(_))
        ));
        assert!(matches!(
            base()
                .admission(AdmissionSpec::new(0.9, 0.5, 0.5))
                .validate(),
            Err(ClusterError::InvalidAdmission { .. })
        ));
        assert_eq!(
            base()
                .batch_deadline(BatchDeadline::new(10, 1e6, 1.0))
                .validate(),
            Err(ClusterError::DeadlineWithoutBatch)
        );
        assert_eq!(
            base()
                .batch_with(batch_pool)
                .batch_deadline(BatchDeadline::new(0, 1e6, 1.0))
                .validate(),
            Err(ClusterError::InvalidDeadline)
        );
        assert!(base()
            .topology(TopologySpec::new(2, 1, 2).unwrap())
            .domain_faults(DomainFaultSpec::none().with_zone_revocations(1.0, 0.3))
            .hedge(HedgeSpec::after(1.5))
            .admission(AdmissionSpec::new(0.7, 0.9, 0.5))
            .batch_with(batch_pool)
            .batch_deadline(BatchDeadline::new(10, 1e6, 1.0))
            .validate()
            .is_ok());
    }

    fn wave_spec(mitigation: bool) -> ClusterSpec {
        spec(8)
            .intervals(40)
            .topology(TopologySpec::new(2, 2, 2).unwrap())
            .domain_faults(DomainFaultSpec::none().with_zone_revocations(2.0, 0.3))
            .mitigation(mitigation)
    }

    #[test]
    fn zone_waves_revoke_whole_zones_and_mitigation_steers() {
        let on = wave_spec(true).build().unwrap().run();
        assert!(on.summary.revoked_node_intervals > 0, "{:?}", on.summary);
        // Zone-level waves strike all four nodes of a zone at once.
        for iv in on.trace.intervals() {
            assert_eq!(iv.revoked_nodes % 4, 0, "partial zone: {iv:?}");
        }
        // The wave timeline is independent of mitigation; the dispatch
        // decisions are not.
        let off = wave_spec(false).build().unwrap().run();
        assert_eq!(
            on.summary.revoked_node_intervals,
            off.summary.revoked_node_intervals
        );
        assert_ne!(on.decision_digest, off.decision_digest);
        // And the whole thing replays byte-identically.
        let again = wave_spec(true).build().unwrap().run();
        assert_eq!(on.decision_digest, again.decision_digest);
        assert_eq!(on.summary, again.summary);
    }

    #[test]
    fn hedging_fires_only_under_mitigation() {
        let make = |mitigation: bool| {
            spec(6)
                .intervals(20)
                .faults(FaultSpec::none().with_request_stragglers(0.2, 1.5, 4.0, 20.0))
                .hedge(HedgeSpec::after(2.0))
                .mitigation(mitigation)
                .build()
                .unwrap()
                .run()
        };
        let on = make(true);
        let off = make(false);
        assert!(on.summary.hedged_requests > 0, "{:?}", on.summary);
        assert_eq!(off.summary.hedged_requests, 0);
        let straggled: u64 = on
            .trace
            .intervals()
            .iter()
            .map(|iv| iv.straggled_requests)
            .sum();
        assert!(straggled >= on.summary.hedged_requests);
        // Capping straggler work changes backlogs and thus dispatch.
        assert_ne!(on.decision_digest, off.decision_digest);
    }

    #[test]
    fn admission_ladder_sheds_batch_then_defers_arrivals() {
        let make = |mitigation: bool| {
            spec(4)
                .intervals(20)
                .load(Constant::new(1.2, 10.0))
                .batch_with(batch_pool)
                .admission(AdmissionSpec::new(0.3, 0.6, 0.5))
                .mitigation(mitigation)
                .build()
                .unwrap()
                .run()
        };
        let on = make(true);
        assert!(on.summary.shed_intervals > 0, "{:?}", on.summary);
        assert!(on.summary.deferred_quanta > 0, "{:?}", on.summary);
        let off = make(false);
        assert_eq!(off.summary.shed_intervals, 0);
        assert_eq!(off.summary.deferred_quanta, 0);
        assert_ne!(on.decision_digest, off.decision_digest);
    }

    #[test]
    fn deadline_miss_pct_reported_only_when_declared() {
        let without = spec(4).batch_with(batch_pool).build().unwrap().run();
        assert!(without.summary.deadline_miss_pct.is_none());
        assert!(without
            .trace
            .intervals()
            .iter()
            .any(|iv| iv.batch_ips > 0.0));
        let hopeless = spec(4)
            .batch_with(batch_pool)
            .batch_deadline(BatchDeadline::new(10, 1e15, 0.01))
            .build()
            .unwrap()
            .run();
        assert_eq!(hopeless.summary.deadline_miss_pct, Some(100.0));
        let easy = spec(4)
            .batch_with(batch_pool)
            .batch_deadline(BatchDeadline::new(1, 1.0, 10.0))
            .build()
            .unwrap()
            .run();
        assert_eq!(easy.summary.deadline_miss_pct, Some(0.0));
    }
}
