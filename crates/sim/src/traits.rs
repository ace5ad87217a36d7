//! Model traits implemented by the `hipster-workloads` crate.

use hipster_platform::{CoreKind, Frequency};

use crate::request::{Demand, QosTarget};
use crate::rng::SimRng;

/// A latency-critical service model (Memcached, Web-Search, …).
///
/// The model owns three things the simulator needs:
/// 1. the QoS contract (Table 1: max load and tail-latency target),
/// 2. the per-request service demand distribution, and
/// 3. how fast each core class retires the demand's compute part at a given
///    frequency (`service_speed`, in work units per second).
pub trait LcModel: std::fmt::Debug + Send {
    /// Workload name as the paper spells it (e.g. `Memcached`).
    fn name(&self) -> &str;

    /// Maximum load in requests (queries) per second — the 100% point of
    /// all load percentages. Table 1 defines it as the highest load the
    /// platform sustains within the tail target on both big cores at
    /// maximum DVFS.
    fn max_load_rps(&self) -> f64;

    /// The tail-latency QoS target.
    fn qos(&self) -> QosTarget;

    /// Draws the demand of one request.
    fn sample_demand(&self, rng: &mut SimRng) -> Demand;

    /// Compute speed of one core of `kind` at `freq`, in work units/second.
    fn service_speed(&self, kind: CoreKind, freq: Frequency) -> f64;

    /// Draws the number of requests arriving together at one arrival event.
    ///
    /// Services like Memcached receive multiget batches, which makes
    /// arrivals bursty and fattens the waiting-time tail well before full
    /// saturation; the default is a single request per arrival.
    ///
    /// Implementations must keep [`LcModel::mean_burst`] consistent with
    /// this distribution — the engine divides the arrival-event rate by the
    /// mean burst size so the *request* rate matches the offered load.
    fn sample_burst(&self, _rng: &mut SimRng) -> usize {
        1
    }

    /// Mean of [`LcModel::sample_burst`]; must be ≥ 1.
    fn mean_burst(&self) -> f64 {
        1.0
    }

    /// Draws the next open-loop arrival events from `rng` — for each, its
    /// burst size (`sample_burst(rng).max(1)`) into `bursts`, then that
    /// many [`LcModel::sample_demand`] draws into `demands` — and stops
    /// once exactly `n ≥ 1` demands were appended, possibly part-way
    /// through the last event. Returns how many of that event's demands
    /// are still undrawn; the engine draws them next, through
    /// [`LcModel::fill_demands`].
    ///
    /// The engine reads its demand stream ahead through these two methods,
    /// one small chunk at a time. An override must consume `rng` exactly
    /// as the default body does and append the same values — it may only
    /// reorder the arithmetic (for instance, draw a chunk's uniforms
    /// first and transform them in a second pass).
    fn fill_arrivals(
        &self,
        rng: &mut SimRng,
        n: usize,
        bursts: &mut Vec<usize>,
        demands: &mut Vec<Demand>,
    ) -> usize {
        let mut left = n;
        loop {
            let burst = self.sample_burst(rng).max(1);
            bursts.push(burst);
            let now = burst.min(left);
            for _ in 0..now {
                demands.push(self.sample_demand(rng));
            }
            left -= now;
            if left == 0 {
                return burst - now;
            }
        }
    }

    /// Appends the next `n` demands drawn from `rng` to `out`: the bits
    /// and stream consumption of `n` [`LcModel::sample_demand`] calls,
    /// under the same contract as [`LcModel::fill_arrivals`].
    fn fill_demands(&self, rng: &mut SimRng, n: usize, out: &mut Vec<Demand>) {
        for _ in 0..n {
            out.push(self.sample_demand(rng));
        }
    }

    /// Client-side request timeout, seconds, or `None` for patient clients.
    ///
    /// Real Memcached clients abandon requests after a deadline; under deep
    /// overload this bounds the queue instead of letting latencies grow
    /// without limit. Timed-out requests are dropped at dispatch time and
    /// recorded as right-censored latencies (at the timeout value), so QoS
    /// accounting still sees them as violations.
    fn timeout_s(&self) -> Option<f64> {
        None
    }

    /// Closed-loop load generation parameters, or `None` for open-loop
    /// Poisson arrivals.
    ///
    /// The paper's Faban generator drives Web-Search closed-loop with a 2 s
    /// think time (Table 1): a population of emulated clients submit a
    /// query, wait for the response, think, and repeat. Closed loops bound
    /// the number of in-flight requests, which is what keeps the real
    /// system's tail latency from diverging during transient overload.
    fn closed_loop(&self) -> Option<ClosedLoop> {
        None
    }
}

/// Closed-loop client population parameters (see [`LcModel::closed_loop`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClosedLoop {
    /// Client population at 100% load; the offered fraction scales it.
    pub max_clients: usize,
    /// Mean think time between receiving a response and the next request,
    /// seconds (exponentially distributed).
    pub think_mean_s: f64,
}

/// A time-varying offered-load signal, as a fraction of
/// [`LcModel::max_load_rps`].
pub trait LoadPattern: std::fmt::Debug + Send {
    /// Offered load fraction at time `t` seconds (usually in `[0, 1]`).
    fn load_at(&self, t: f64) -> f64;

    /// Natural duration of the pattern in seconds (experiments usually run
    /// exactly this long).
    fn duration(&self) -> f64;
}

/// A throughput-oriented batch program (SPEC CPU2006-style).
///
/// HipsterCo only observes batch programs through per-core instruction
/// counters, so the model is exactly an IPS function of core kind and
/// frequency.
pub trait BatchProgram: std::fmt::Debug + Send {
    /// Program name (e.g. `calculix`).
    fn name(&self) -> &str;

    /// Sustained instructions per second on one core of `kind` at `freq`.
    fn ips(&self, kind: CoreKind, freq: Frequency) -> f64;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The traits must be object-safe: the engine stores them boxed.
    #[test]
    fn traits_are_object_safe() {
        fn _lc(_: &dyn LcModel) {}
        fn _load(_: &dyn LoadPattern) {}
        fn _batch(_: &dyn BatchProgram) {}
    }
}
