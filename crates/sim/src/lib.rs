//! Discrete-event simulator for the Hipster (HPCA 2017) reproduction.
//!
//! The paper's evaluation runs Memcached and Web-Search behind a Faban load
//! generator on real hardware. This crate substitutes a discrete-event
//! queueing simulation that reproduces the *observable* behaviour the
//! Hipster runtime reacts to:
//!
//! * [`ServiceNode`] — a FIFO queue feeding heterogeneous core-servers,
//!   with per-request latencies, two-phase (compute + memory) service,
//!   migration/DVFS transition stalls and cold-cache penalties;
//! * [`Engine`] — steps one monitoring interval at a time under a
//!   [`MachineConfig`], measuring tail latency, power, energy and batch
//!   IPS exactly as the paper's QoS Monitor would;
//! * [`LcModel`] / [`LoadPattern`] / [`BatchProgram`] — the traits the
//!   `hipster-workloads` crate implements for Memcached, Web-Search, the
//!   diurnal load and SPEC CPU2006 programs;
//! * [`Trace`] — recorded runs plus the paper's summary metrics (QoS
//!   guarantee, tardiness, energy, migrations);
//! * deterministic RNG ([`SimRng`]), distributions ([`dist`]) and the
//!   host-independent `ln`/`cos`/`exp` kernels they evaluate ([`math`]).
//!
//! # Example: one interval on two big cores
//!
//! ```
//! use hipster_platform::{CoreConfig, CoreKind, Frequency, Platform};
//! use hipster_sim::{Demand, Engine, LcModel, LoadPattern, MachineConfig, QosTarget, SimRng};
//!
//! #[derive(Debug)]
//! struct Toy;
//! impl LcModel for Toy {
//!     fn name(&self) -> &str { "toy" }
//!     fn max_load_rps(&self) -> f64 { 100.0 }
//!     fn qos(&self) -> QosTarget { QosTarget::new(0.95, 0.010) }
//!     fn sample_demand(&self, _rng: &mut SimRng) -> Demand { Demand::new(1.0, 0.0) }
//!     fn service_speed(&self, kind: CoreKind, _f: Frequency) -> f64 {
//!         match kind { CoreKind::Big => 1000.0, CoreKind::Small => 400.0 }
//!     }
//! }
//!
//! #[derive(Debug)]
//! struct Half;
//! impl LoadPattern for Half {
//!     fn load_at(&self, _t: f64) -> f64 { 0.5 }
//!     fn duration(&self) -> f64 { 10.0 }
//! }
//!
//! let platform = Platform::juno_r1();
//! let lc: CoreConfig = "2B-1.15".parse()?;
//! let cfg = MachineConfig::interactive(&platform, lc);
//! let mut engine = Engine::new(platform, Box::new(Toy), Box::new(Half), 42);
//! let stats = engine.step(cfg);
//! assert!(stats.completions > 0);
//! # Ok::<(), hipster_platform::PlatformError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod dist;
pub mod math;
pub mod reference;

mod calendar;
mod config;
mod costs;
mod engine;
mod fault;
mod freelist;
mod jsonl;
mod latency;
mod lookahead;
mod request;
mod rng;
mod service;
mod think;
mod topology;
mod trace;
mod traits;

pub use calendar::CalendarQueue;
pub use config::{EngineSpec, EngineSpecError};
pub use costs::{ContentionModel, ReconfigCosts};
pub use engine::{Engine, IntervalStats, MachineConfig, DEFAULT_JITTER_SIGMA};
pub use fault::{
    DomainFaultSpec, FaultPlan, FaultSpec, FaultSpecError, FaultState, HedgeSpec, WavePlan,
};
pub use jsonl::{interval_from_jsonl, interval_to_jsonl, JsonObj};
pub use latency::{percentile, LatencyRecorder};
pub use request::{Demand, QosTarget, Request, RequestId};
pub use rng::{Sampler, SimRng};
pub use service::{NodeInterval, ServerSpec, ServiceNode};
pub use think::ThinkPool;
pub use topology::{TopologyError, TopologySpec};
pub use trace::{csv_header, csv_row, Trace};
pub use traits::{BatchProgram, ClosedLoop, LcModel, LoadPattern};
