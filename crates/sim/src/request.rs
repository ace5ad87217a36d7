//! Requests, service demands, and QoS targets.

use std::fmt;

/// Unique identifier of a request within one simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequestId(pub u64);

/// The service demand of one request, split into a frequency-sensitive
/// compute part and a frequency-insensitive memory part.
///
/// `work` is in abstract work units; the workload model defines how fast a
/// core of each kind/frequency retires work units
/// ([`LcModel::service_speed`](crate::LcModel::service_speed)). `mem_s` is
/// wall-clock seconds spent waiting on memory, unaffected by DVFS — this is
/// what makes low-frequency operating points attractive for memory-bound
/// services.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Demand {
    /// Compute demand, in work units.
    pub work: f64,
    /// Memory-stall demand, in seconds (frequency-insensitive).
    pub mem_s: f64,
}

impl Demand {
    /// Creates a demand.
    ///
    /// # Panics
    ///
    /// Panics if either component is negative or not finite.
    #[inline]
    pub fn new(work: f64, mem_s: f64) -> Self {
        assert!(
            work.is_finite() && work >= 0.0 && mem_s.is_finite() && mem_s >= 0.0,
            "invalid demand: work {work}, mem {mem_s}"
        );
        Demand { work, mem_s }
    }
}

/// One latency-critical request travelling through the service node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    /// Identifier (monotonically increasing in arrival order).
    pub id: RequestId,
    /// Arrival time, seconds since simulation start.
    pub arrival: f64,
    /// Remaining compute demand, work units.
    pub work_left: f64,
    /// Remaining memory demand, seconds.
    pub mem_left: f64,
}

impl Request {
    /// Creates a fresh request with its full demand outstanding.
    #[inline]
    pub fn new(id: RequestId, arrival: f64, demand: Demand) -> Self {
        Request {
            id,
            arrival,
            work_left: demand.work,
            mem_left: demand.mem_s,
        }
    }

    /// Time this request has spent in the system as of `now`.
    pub fn age(&self, now: f64) -> f64 {
        (now - self.arrival).max(0.0)
    }
}

/// A tail-latency QoS target: "the `percentile`-ile latency must stay below
/// `target_s` seconds".
///
/// The paper uses the 95th percentile at 10 ms for Memcached and the 90th
/// percentile at 500 ms for Web-Search (Table 1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QosTarget {
    /// Percentile in `(0, 1)`, e.g. `0.95`.
    pub percentile: f64,
    /// Latency target in seconds.
    pub target_s: f64,
}

impl QosTarget {
    /// Creates a QoS target.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < percentile < 1` and `target_s > 0`.
    pub fn new(percentile: f64, target_s: f64) -> Self {
        assert!(
            percentile > 0.0 && percentile < 1.0,
            "percentile {percentile} not in (0,1)"
        );
        assert!(
            target_s.is_finite() && target_s > 0.0,
            "invalid target: {target_s}"
        );
        QosTarget {
            percentile,
            target_s,
        }
    }

    /// QoS *tardiness* of a measured tail latency: `measured / target`
    /// (paper §3.4 footnote). Values above 1 are violations.
    pub fn tardiness(&self, measured_s: f64) -> f64 {
        measured_s / self.target_s
    }

    /// Whether a measured tail latency violates the target.
    pub fn violated(&self, measured_s: f64) -> bool {
        measured_s > self.target_s
    }
}

impl fmt::Display for QosTarget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "p{:.0} ≤ {:.0} ms",
            self.percentile * 100.0,
            self.target_s * 1e3
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_age() {
        let r = Request::new(RequestId(1), 2.0, Demand::new(1.0, 0.0));
        assert_eq!(r.age(5.0), 3.0);
        assert_eq!(r.age(1.0), 0.0);
    }

    #[test]
    fn qos_tardiness_and_violation() {
        let q = QosTarget::new(0.95, 0.010);
        assert_eq!(q.tardiness(0.020), 2.0);
        assert!(q.violated(0.0101));
        assert!(!q.violated(0.0099));
    }

    #[test]
    fn qos_display() {
        assert_eq!(QosTarget::new(0.95, 0.010).to_string(), "p95 ≤ 10 ms");
        assert_eq!(QosTarget::new(0.90, 0.5).to_string(), "p90 ≤ 500 ms");
    }

    #[test]
    #[should_panic(expected = "not in (0,1)")]
    fn qos_rejects_bad_percentile() {
        QosTarget::new(95.0, 0.010);
    }

    #[test]
    #[should_panic(expected = "invalid demand")]
    fn demand_rejects_negative() {
        Demand::new(-1.0, 0.0);
    }
}
