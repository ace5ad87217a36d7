//! The paper's two latency-critical services, calibrated to Table 1.
//!
//! | App | Max load | Target tail latency |
//! |---|---|---|
//! | Memcached (Twitter caching server, 1.3 GB) | 36 000 RPS | 10 ms (95th pct) |
//! | Web-Search (English Wikipedia, power-law) | 44 QPS | 500 ms (90th pct) |
//!
//! Both calibrations satisfy Table 1's defining property: the maximum load
//! is the highest the platform sustains *within the tail target on the two
//! big cores at maximum DVFS* — verified by integration tests.

use hipster_platform::Frequency;
use hipster_sim::{DomainFaultSpec, FaultSpec, QosTarget};

use crate::lc::LcWorkload;

/// Maximum Memcached load, requests per second (Table 1).
pub const MEMCACHED_MAX_RPS: f64 = 36_000.0;

/// Memcached tail-latency target: 10 ms at the 95th percentile (Table 1).
pub const MEMCACHED_QOS: (f64, f64) = (0.95, 0.010);

/// Maximum Web-Search load, queries per second (Table 1).
pub const WEB_SEARCH_MAX_QPS: f64 = 44.0;

/// Web-Search tail-latency target: 500 ms at the 90th percentile (Table 1).
pub const WEB_SEARCH_QOS: (f64, f64) = (0.90, 0.500);

/// Names accepted by [`preset`], in the paper's presentation order
/// followed by the beyond-paper variants.
pub const PRESET_NAMES: [&str; 6] = [
    "memcached",
    "web-search",
    "memcached-bursty",
    "memcached-revocable",
    "memcached-straggler",
    "memcached-zonewave",
];

/// Looks up a calibrated workload preset by name, so scenarios can be
/// declared from strings (CLIs, config files, fleet sweeps).
///
/// Matching is case-insensitive and treats `-`/`_` alike: `"Memcached"`,
/// `"web-search"` and `"WEB_SEARCH"` all resolve. Returns `None` for
/// unknown names.
///
/// # Examples
///
/// ```
/// use hipster_sim::LcModel;
/// assert_eq!(hipster_workloads::preset("Web-Search").unwrap().name(), "Web-Search");
/// assert!(hipster_workloads::preset("redis").is_none());
/// ```
pub fn preset(name: &str) -> Option<LcWorkload> {
    match name.to_ascii_lowercase().replace('_', "-").as_str() {
        "memcached" => Some(memcached()),
        "web-search" | "websearch" => Some(web_search()),
        "memcached-bursty" => Some(memcached_bursty()),
        "memcached-revocable" => Some(memcached_revocable()),
        "memcached-straggler" => Some(memcached_straggler()),
        "memcached-zonewave" => Some(memcached_zonewave()),
        _ => None,
    }
}

/// The fault-injection spec paired with a preset name, for the fault
/// presets; `None` for fault-free presets and unknown names. Same
/// case/`-`/`_` matching as [`preset`].
///
/// ```
/// assert!(hipster_workloads::fault_preset("memcached-revocable").is_some());
/// assert!(hipster_workloads::fault_preset("memcached").is_none());
/// ```
pub fn fault_preset(name: &str) -> Option<FaultSpec> {
    match name.to_ascii_lowercase().replace('_', "-").as_str() {
        "memcached-revocable" => Some(REVOCABLE_FAULTS()),
        "memcached-straggler" => Some(STRAGGLER_FAULTS()),
        "memcached-zonewave" => Some(ZONEWAVE_REQUEST_FAULTS()),
        _ => None,
    }
}

/// The correlated domain-fault wave paired with a preset name, for the
/// cluster fault experiments; `None` for presets without one and unknown
/// names. Same case/`-`/`_` matching as [`preset`].
///
/// ```
/// assert!(hipster_workloads::domain_fault_preset("memcached-zonewave").is_some());
/// assert!(hipster_workloads::domain_fault_preset("memcached-revocable").is_none());
/// ```
pub fn domain_fault_preset(name: &str) -> Option<DomainFaultSpec> {
    match name.to_ascii_lowercase().replace('_', "-").as_str() {
        "memcached-zonewave" => Some(ZONEWAVE_DOMAIN_FAULTS()),
        _ => None,
    }
}

/// The revocation wave injected by `preset("memcached-revocable")`:
/// CloudCoaster-style transient departures — on average one revocation
/// every ~2.5 s per server lasting 0.3 s, 50% of them warned.
#[allow(non_snake_case)]
fn REVOCABLE_FAULTS() -> FaultSpec {
    FaultSpec::none()
        .with_revocations(0.4, 0.3)
        .with_warned(0.5)
}

/// The straggler regime injected by `preset("memcached-straggler")`:
/// START-style heavy-tailed slowdown episodes — Pareto(α = 1.5)
/// multipliers between 2× and 8×, ~0.4 s long, ~0.7 episodes/s per
/// server.
#[allow(non_snake_case)]
fn STRAGGLER_FAULTS() -> FaultSpec {
    FaultSpec::none().with_stragglers(0.7, 0.4, 1.5, 2.0, 8.0)
}

/// The per-request straggler regime injected by
/// `preset("memcached-zonewave")`: 5% of requests draw a Pareto(α = 1.5)
/// service multiplier between 3× and 15× — the tail the hedging policy
/// exists to cut. Node-level episodes stay off; the zone wave
/// ([`domain_fault_preset`]) supplies the correlated outages.
#[allow(non_snake_case)]
fn ZONEWAVE_REQUEST_FAULTS() -> FaultSpec {
    FaultSpec::none().with_request_stragglers(0.05, 1.5, 3.0, 15.0)
}

/// The zone-scale fault wave injected by
/// `domain_fault_preset("memcached-zonewave")`: on average one zone-wide
/// revocation every ~4 s per zone lasting 0.4 s (30% warned), plus
/// rack-wide Pareto(α = 1.5) straggler episodes (2–6×, ~0.3 s,
/// ~0.2 episodes/s per rack).
#[allow(non_snake_case)]
fn ZONEWAVE_DOMAIN_FAULTS() -> DomainFaultSpec {
    DomainFaultSpec::none()
        .with_zone_revocations(0.25, 0.4)
        .with_rack_stragglers(0.2, 0.3)
        .with_warned(0.3)
        .with_slowdowns(1.5, 2.0, 6.0)
}

/// The Memcached calibration for the correlated zone-wave preset:
/// identical service model to [`memcached`], paired with
/// [`fault_preset`]`("memcached-zonewave")` (per-request stragglers) and
/// [`domain_fault_preset`]`("memcached-zonewave")` (zone/rack waves) by
/// the cluster fault experiments.
///
/// Beyond-paper (the ROADMAP's zone-scale fault-wave regime).
pub fn memcached_zonewave() -> LcWorkload {
    LcWorkload::builder("Memcached-Zonewave")
        .max_load_rps(MEMCACHED_MAX_RPS)
        .qos(QosTarget::new(MEMCACHED_QOS.0, MEMCACHED_QOS.1))
        .work(37.0, 0.7)
        .mem_seconds(9e-6)
        .big_speed(1.0e6, Frequency::from_mhz(1150))
        .small_ipc_penalty(2.37)
        .burst_mean(10.0)
        .timeout(0.1)
        .build()
}

/// The Memcached calibration for the transient-revocation fault preset:
/// identical service model to [`memcached`], paired with
/// [`fault_preset`]`("memcached-revocable")` by the fault experiments.
///
/// Beyond-paper (the ROADMAP's CloudCoaster-style transient regime).
pub fn memcached_revocable() -> LcWorkload {
    LcWorkload::builder("Memcached-Revocable")
        .max_load_rps(MEMCACHED_MAX_RPS)
        .qos(QosTarget::new(MEMCACHED_QOS.0, MEMCACHED_QOS.1))
        .work(37.0, 0.7)
        .mem_seconds(9e-6)
        .big_speed(1.0e6, Frequency::from_mhz(1150))
        .small_ipc_penalty(2.37)
        .burst_mean(10.0)
        .timeout(0.1)
        .build()
}

/// The Memcached calibration for the heavy-tailed straggler fault
/// preset: identical service model to [`memcached`], paired with
/// [`fault_preset`]`("memcached-straggler")`.
///
/// Beyond-paper (the ROADMAP's START-style straggler regime).
pub fn memcached_straggler() -> LcWorkload {
    LcWorkload::builder("Memcached-Straggler")
        .max_load_rps(MEMCACHED_MAX_RPS)
        .qos(QosTarget::new(MEMCACHED_QOS.0, MEMCACHED_QOS.1))
        .work(37.0, 0.7)
        .mem_seconds(9e-6)
        .big_speed(1.0e6, Frequency::from_mhz(1150))
        .small_ipc_penalty(2.37)
        .burst_mean(10.0)
        .timeout(0.1)
        .build()
}

/// The Memcached model (Table 1 row 1).
///
/// Calibration notes:
/// * mean service ≈ 46 µs on a big core at 1.15 GHz (37 µs compute +
///   9 µs memory) — two big cores then sustain 36 000 RPS at ρ ≈ 0.83;
/// * small cores pay a 2.37× IPC penalty, so four of them saturate around
///   65–68% of max load, reproducing the Fig. 2a transition out of `4S`;
/// * arrivals come in multiget-style geometric bursts (mean 10), which
///   fattens the waiting tail near saturation the way the real service
///   misbehaves well before 100% CPU;
/// * moderate demand variability (σ = 0.7) — key/value operations are
///   uniform.
pub fn memcached() -> LcWorkload {
    LcWorkload::builder("Memcached")
        .max_load_rps(MEMCACHED_MAX_RPS)
        .qos(QosTarget::new(MEMCACHED_QOS.0, MEMCACHED_QOS.1))
        .work(37.0, 0.7)
        .mem_seconds(9e-6)
        .big_speed(1.0e6, Frequency::from_mhz(1150))
        .small_ipc_penalty(2.37)
        .burst_mean(10.0)
        // Memcached clients give up quickly — 100 ms is a typical
        // client-library deadline for a 10 ms-SLA cache tier.
        .timeout(0.1)
        .build()
}

/// The Memcached calibration under bursty traffic: identical service
/// model to [`memcached`], but with doubled multiget clumping (mean burst
/// 20 instead of 10). It is meant to be driven by the promoted MMPP
/// source — [`crate::MmppStream`] for event-level simulations,
/// [`crate::MmppLoad`] (or `load_preset("mmpp:...")`) for interval-level
/// ones — so cluster and single-node scenarios share one bursty source.
///
/// This is a beyond-paper workload (the ROADMAP's CloudCoaster-style
/// bursty regime), not a Table 1 row: same capacity, same QoS target,
/// fatter arrival clumps.
pub fn memcached_bursty() -> LcWorkload {
    LcWorkload::builder("Memcached-Bursty")
        .max_load_rps(MEMCACHED_MAX_RPS)
        .qos(QosTarget::new(MEMCACHED_QOS.0, MEMCACHED_QOS.1))
        .work(37.0, 0.7)
        .mem_seconds(9e-6)
        .big_speed(1.0e6, Frequency::from_mhz(1150))
        .small_ipc_penalty(2.37)
        .burst_mean(20.0)
        .timeout(0.1)
        .build()
}

/// The Web-Search model (Table 1 row 2): an Elasticsearch-style engine over
/// English Wikipedia with power-law term popularity.
///
/// Calibration notes:
/// * mean service ≈ 40 ms on a big core at 1.15 GHz (32 ms compute + 8 ms
///   memory) — two big cores sustain 44 QPS at ρ ≈ 0.88, where queueing
///   pushes the 90th percentile toward the 500 ms target at full load
///   (σ = 0.6 demand variability from the power-law corpus);
/// * queries are compute-intensive and single-threaded (§4.1), so small
///   cores pay a full 3.0× IPC penalty — four of them cover only ≈50% of
///   max load, matching Fig. 2b's earlier escape to big cores;
/// * the Faban generator is **closed-loop** with a 2 s think time
///   (Table 1): 96 emulated clients at 100% load, which bounds in-flight
///   queries and self-throttles during overload — the property that keeps
///   real tail latencies from diverging.
pub fn web_search() -> LcWorkload {
    LcWorkload::builder("Web-Search")
        .max_load_rps(WEB_SEARCH_MAX_QPS)
        .qos(QosTarget::new(WEB_SEARCH_QOS.0, WEB_SEARCH_QOS.1))
        .work(32.0, 0.6)
        .mem_seconds(8e-3)
        .big_speed(1000.0, Frequency::from_mhz(1150))
        .small_ipc_penalty(3.0)
        .closed_loop(96, 2.0)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hipster_platform::CoreKind;
    use hipster_sim::LcModel;

    #[test]
    fn table1_constants() {
        let mc = memcached();
        assert_eq!(mc.name(), "Memcached");
        assert_eq!(mc.max_load_rps(), 36_000.0);
        assert_eq!(mc.qos().percentile, 0.95);
        assert_eq!(mc.qos().target_s, 0.010);

        let ws = web_search();
        assert_eq!(ws.name(), "Web-Search");
        assert_eq!(ws.max_load_rps(), 44.0);
        assert_eq!(ws.qos().percentile, 0.90);
        assert_eq!(ws.qos().target_s, 0.500);
    }

    #[test]
    fn bursty_preset_keeps_the_memcached_calibration() {
        let mb = preset("Memcached_Bursty").unwrap();
        assert_eq!(mb.name(), "Memcached-Bursty");
        assert_eq!(mb.max_load_rps(), MEMCACHED_MAX_RPS);
        assert_eq!(mb.qos().target_s, MEMCACHED_QOS.1);
        // Only the arrival clumping differs from the Table 1 row.
        assert_eq!(mb.mean_burst(), 2.0 * memcached().mean_burst());
        assert!(PRESET_NAMES.contains(&"memcached-bursty"));
    }

    #[test]
    fn fault_presets_pair_workload_and_spec() {
        for name in ["memcached-revocable", "Memcached_Straggler"] {
            let w = preset(name).unwrap();
            let spec = fault_preset(name).unwrap();
            assert!(spec.validate().is_ok(), "{name}");
            assert!(!spec.is_none(), "{name}");
            // Same Table 1 capacity and QoS as the base calibration.
            assert_eq!(w.max_load_rps(), MEMCACHED_MAX_RPS);
            assert_eq!(w.qos().target_s, MEMCACHED_QOS.1);
        }
        assert!(fault_preset("memcached").is_none());
        assert!(fault_preset("web-search").is_none());
        let rev = fault_preset("memcached-revocable").unwrap();
        assert!(rev.revocation_rate_per_s > 0.0 && rev.straggler_rate_per_s == 0.0);
        let str_ = fault_preset("memcached-straggler").unwrap();
        assert!(str_.straggler_rate_per_s > 0.0 && str_.revocation_rate_per_s == 0.0);
    }

    #[test]
    fn zonewave_preset_pairs_request_and_domain_faults() {
        let w = preset("Memcached_Zonewave").unwrap();
        assert_eq!(w.name(), "Memcached-Zonewave");
        assert_eq!(w.max_load_rps(), MEMCACHED_MAX_RPS);
        assert_eq!(w.qos().target_s, MEMCACHED_QOS.1);
        // Request-level stragglers only: no node-level episode families,
        // so the cluster's wave plan supplies every correlated outage.
        let spec = fault_preset("memcached-zonewave").unwrap();
        assert!(spec.validate().is_ok());
        assert!(!spec.has_unit_faults());
        assert!(spec.has_request_stragglers());
        let waves = domain_fault_preset("memcached-zonewave").unwrap();
        assert!(waves.validate().is_ok());
        assert!(!waves.is_none());
        assert!(waves.zone_revocation_rate_per_s > 0.0);
        assert!(waves.rack_straggler_rate_per_s > 0.0);
        assert!(domain_fault_preset("memcached-straggler").is_none());
        assert!(PRESET_NAMES.contains(&"memcached-zonewave"));
    }

    #[test]
    fn two_big_cores_have_headroom_at_max_load() {
        // Table 1's defining property, at the capacity level: 2B @ 1.15 GHz
        // sustains the max load with utilization below (but near) 1.
        let f = Frequency::from_mhz(1150);
        let fs = Frequency::from_mhz(650);
        for (w, max) in [(memcached(), 36_000.0), (web_search(), 44.0)] {
            let cap = w.capacity_rps(2, 0, f, fs);
            let rho = max / cap;
            assert!(rho < 0.95, "{}: ρ = {rho}", w.name());
            assert!(
                rho > 0.70,
                "{}: ρ = {rho} (max load should be tight)",
                w.name()
            );
        }
    }

    #[test]
    fn four_small_cores_cover_intermediate_load_only() {
        let fb = Frequency::from_mhz(600);
        let fs = Frequency::from_mhz(650);
        let mc = memcached();
        let frac = mc.capacity_rps(0, 4, fb, fs) / mc.max_load_rps();
        assert!(
            (0.55..0.80).contains(&frac),
            "Memcached 4S capacity fraction {frac}"
        );
        let ws = web_search();
        let frac = ws.capacity_rps(0, 4, fb, fs) / ws.max_load_rps();
        assert!(
            (0.40..0.65).contains(&frac),
            "Web-Search 4S capacity fraction {frac}"
        );
    }

    #[test]
    fn web_search_needs_big_cores_sooner_than_memcached() {
        // The two workloads must induce *different* state machines
        // (Fig. 2c): Web-Search's small cores cover less of its load range.
        let fb = Frequency::from_mhz(600);
        let fs = Frequency::from_mhz(650);
        let mc = memcached();
        let ws = web_search();
        let mc_frac = mc.capacity_rps(0, 4, fb, fs) / mc.max_load_rps();
        let ws_frac = ws.capacity_rps(0, 4, fb, fs) / ws.max_load_rps();
        assert!(ws_frac < mc_frac);
    }

    #[test]
    fn memcached_service_is_microseconds_web_search_milliseconds() {
        let f = Frequency::from_mhz(1150);
        let mc = memcached().mean_service_s(CoreKind::Big, f);
        let ws = web_search().mean_service_s(CoreKind::Big, f);
        assert!((30e-6..80e-6).contains(&mc), "memcached {mc}");
        assert!((0.02..0.08).contains(&ws), "web-search {ws}");
    }
}
