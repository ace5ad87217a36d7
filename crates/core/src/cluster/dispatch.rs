//! Cluster-level request dispatch: one [`Dispatcher`] over a flat
//! per-node occupancy array, with four balancing policies.
//!
//! The dispatcher owns one tier's occupancy state (work quanta queued per
//! node) and answers "which node takes the next quantum?". Random,
//! round-robin and power-of-two-choices read only point occupancies, so
//! their picks are O(1) in cluster size; least-loaded is a left-to-right
//! scan (strict `<`, ties to the lowest index), O(N) per pick. Dispatch is
//! a negligible share of a cluster run — fault overlay, occupancy,
//! admission and placement together take 0.08% of wall time on the
//! 1024-node bursty `hostbench` workload and 0.13% under zone waves — so
//! the tier keeps the simplest representation.

use hipster_sim::SimRng;

/// The balancing policies the cluster tier ships.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchPolicy {
    /// Uniformly random node. One RNG draw per quantum.
    Random,
    /// Cycles through nodes in index order. No RNG draws.
    RoundRobin,
    /// The least-occupied node, ties to the lowest index. No RNG draws.
    LeastLoaded,
    /// Power-of-two-choices: sample two nodes, keep the less occupied
    /// (ties to the lower index). One RNG draw per quantum, split into
    /// two 32-bit probes.
    PowerOfTwo,
}

impl DispatchPolicy {
    /// All policies, in documentation order.
    pub const ALL: [DispatchPolicy; 4] = [
        DispatchPolicy::Random,
        DispatchPolicy::RoundRobin,
        DispatchPolicy::LeastLoaded,
        DispatchPolicy::PowerOfTwo,
    ];

    /// Stable lowercase name (used in traces, benches and CLIs).
    pub fn name(self) -> &'static str {
        match self {
            DispatchPolicy::Random => "random",
            DispatchPolicy::RoundRobin => "round-robin",
            DispatchPolicy::LeastLoaded => "least-loaded",
            DispatchPolicy::PowerOfTwo => "power-of-two",
        }
    }

    /// Parses a [`name`](Self::name) back to a policy (`-`/`_` alike,
    /// case-insensitive; `p2c` is accepted for power-of-two).
    pub fn parse(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().replace('_', "-").as_str() {
            "random" => Some(DispatchPolicy::Random),
            "round-robin" | "roundrobin" => Some(DispatchPolicy::RoundRobin),
            "least-loaded" | "leastloaded" => Some(DispatchPolicy::LeastLoaded),
            "power-of-two" | "poweroftwo" | "p2c" => Some(DispatchPolicy::PowerOfTwo),
            _ => None,
        }
    }
}

/// Revocation mask. The remap runs *after* the policy's own (possibly
/// RNG-consuming) choice, so RNG streams are identical with or without
/// masks, and the O(N) walk only runs while a pick lands on a masked node.
/// With every node masked the raw candidate comes back unchanged — the
/// cluster layer strands work instead of dispatching in that regime.
#[derive(Debug)]
struct NodeMask {
    masked: Vec<bool>,
    count: usize,
}

impl NodeMask {
    fn new(len: usize) -> Self {
        NodeMask {
            masked: vec![false; len],
            count: 0,
        }
    }

    fn set(&mut self, node: usize, masked: bool) {
        if self.masked[node] != masked {
            self.masked[node] = masked;
            if masked {
                self.count += 1;
            } else {
                self.count -= 1;
            }
        }
    }

    fn is_masked(&self, node: usize) -> bool {
        self.count > 0 && self.masked[node]
    }

    fn remap(&self, node: usize) -> usize {
        let len = self.masked.len();
        if self.count == 0 || self.count >= len || !self.masked[node] {
            return node;
        }
        let mut i = node;
        loop {
            i = (i + 1) % len;
            if !self.masked[i] {
                return i;
            }
        }
    }
}

/// Failure-domain bookkeeping. Tracks which zones/racks are degraded and
/// maintains the per-node degraded flags plus a healthy-node count, so
/// pick-time queries are O(1) and the O(N) recompute only runs on the
/// rare domain transition.
#[derive(Debug, Default)]
struct DomainView {
    zone_of: Vec<u16>,
    rack_of: Vec<u16>,
    zone_bad: Vec<bool>,
    rack_bad: Vec<bool>,
    degraded: Vec<bool>,
    healthy: usize,
}

impl DomainView {
    fn install(&mut self, zone_of: Vec<u16>, rack_of: Vec<u16>) {
        assert_eq!(
            zone_of.len(),
            rack_of.len(),
            "zone/rack maps must cover the same nodes"
        );
        let zones = zone_of.iter().map(|&z| z as usize + 1).max().unwrap_or(0);
        let racks = rack_of.iter().map(|&r| r as usize + 1).max().unwrap_or(0);
        self.zone_bad = vec![false; zones];
        self.rack_bad = vec![false; racks];
        self.degraded = vec![false; zone_of.len()];
        self.healthy = zone_of.len();
        self.zone_of = zone_of;
        self.rack_of = rack_of;
    }

    fn armed(&self) -> bool {
        !self.zone_of.is_empty()
    }

    fn set_bad(&mut self, rack: bool, index: usize, bad: bool) {
        if !self.armed() {
            return;
        }
        let flags = if rack {
            &mut self.rack_bad
        } else {
            &mut self.zone_bad
        };
        if flags[index] == bad {
            return;
        }
        flags[index] = bad;
        self.healthy = 0;
        for node in 0..self.degraded.len() {
            let d = self.zone_bad[self.zone_of[node] as usize]
                || self.rack_bad[self.rack_of[node] as usize];
            self.degraded[node] = d;
            if !d {
                self.healthy += 1;
            }
        }
    }

    fn is_degraded(&self, node: usize) -> bool {
        self.armed() && self.degraded[node]
    }

    /// True when steering can help: some domain is degraded but healthy
    /// nodes survive elsewhere.
    fn has_degraded(&self) -> bool {
        self.armed() && self.healthy > 0 && self.healthy < self.degraded.len()
    }
}

/// P2C candidate sampling: one RNG draw, halved into two 32-bit words,
/// each mapped to `[0, n)` by Lemire's multiply-shift.
#[inline]
fn p2c_probes(rng: &mut SimRng, n: usize) -> (usize, usize) {
    debug_assert!(n > 0 && n <= u32::MAX as usize);
    let bits = rng.next_u64();
    let a = ((bits >> 32) * n as u64) >> 32;
    let b = ((bits & 0xffff_ffff) * n as u64) >> 32;
    (a as usize, b as usize)
}

/// P2C comparison: the less-occupied candidate, ties toward the lower
/// index.
#[inline]
fn p2c_winner(a: usize, b: usize, occ_a: u32, occ_b: u32) -> usize {
    if occ_b < occ_a {
        b
    } else if occ_a < occ_b {
        a
    } else {
        a.min(b)
    }
}

/// P2C pick with domain awareness. While degradation is active
/// (and healthy domains survive), a probe in a degraded domain loses the
/// occupancy comparison outright, and when *both* probes land degraded
/// one extra probe pair is drawn and judged the same way. With no
/// topology installed (or no degradation) this is byte-identical to the
/// plain pick: exactly one RNG draw, same winner.
#[inline]
fn p2c_domain_pick(rng: &mut SimRng, n: usize, view: &DomainView, occ: &[u32]) -> usize {
    let (a, b) = p2c_probes(rng, n);
    if !view.has_degraded() {
        return p2c_winner(a, b, occ[a], occ[b]);
    }
    match (view.is_degraded(a), view.is_degraded(b)) {
        (false, false) => p2c_winner(a, b, occ[a], occ[b]),
        (false, true) => a,
        (true, false) => b,
        (true, true) => {
            let (c, d) = p2c_probes(rng, n);
            match (view.is_degraded(c), view.is_degraded(d)) {
                (false, false) => p2c_winner(c, d, occ[c], occ[d]),
                (false, true) => c,
                (true, false) => d,
                // Re-probe also missed the healthy domains: best of all
                // four by occupancy.
                (true, true) => {
                    let winner = p2c_winner(a, b, occ[a], occ[b]);
                    let rewinner = p2c_winner(c, d, occ[c], occ[d]);
                    p2c_winner(winner, rewinner, occ[winner], occ[rewinner])
                }
            }
        }
    }
}

/// The lowest-index node with the smallest occupancy among those `skip`
/// leaves in (strict `<`, so ties keep the lowest index); `None` when
/// `skip` excludes every node. O(N); consumes no RNG.
fn lowest_min(occ: &[u32], skip: impl Fn(usize) -> bool) -> Option<usize> {
    let mut best: Option<(usize, u32)> = None;
    for (node, &o) in occ.iter().enumerate() {
        if best.map_or(true, |(_, b)| o < b) && !skip(node) {
            best = Some((node, o));
        }
    }
    best.map(|(node, _)| node)
}

/// Retry steering: the least-occupied unmasked node of the surviving
/// (non-degraded) domains, ties to the lowest index. `None` when steering
/// cannot help — no topology, no degradation, or every healthy-domain
/// node masked — in which case the caller falls back to its normal pick.
/// Consumes no RNG.
fn retry_scan(view: &DomainView, mask: &NodeMask, occ: &[u32]) -> Option<usize> {
    if !view.has_degraded() {
        return None;
    }
    lowest_min(occ, |node| view.is_degraded(node) || mask.is_masked(node))
}

/// One tier's load balancer: a flat occupancy array (clamped at `cap`)
/// with a running sum, plus quantum placement.
///
/// `pick` both chooses a node **and** charges the quantum to it, so the
/// occupancy signal the next decision sees already includes this one —
/// the property that makes least-loaded/P2C self-balancing within an
/// interval.
#[derive(Debug)]
pub struct Dispatcher {
    policy: DispatchPolicy,
    occ: Vec<u32>,
    cap: u32,
    sum: u64,
    rr_next: usize,
    mask: NodeMask,
    view: DomainView,
}

impl Dispatcher {
    /// Creates a dispatcher over `nodes` nodes whose occupancies clamp
    /// at `cap`. Pick `cap` comfortably above the per-interval dispatch
    /// quota so saturation only occurs under extreme overload, where
    /// "which overloaded node" no longer matters.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero.
    pub fn new(policy: DispatchPolicy, nodes: usize, cap: u32) -> Self {
        assert!(nodes > 0, "a cluster tier needs at least one node");
        Dispatcher {
            policy,
            occ: vec![0; nodes],
            cap,
            sum: 0,
            rr_next: 0,
            mask: NodeMask::new(nodes),
            view: DomainView::default(),
        }
    }

    /// The balancing policy in force.
    pub fn policy(&self) -> DispatchPolicy {
        self.policy
    }

    /// Number of nodes in the tier.
    pub fn len(&self) -> usize {
        self.occ.len()
    }

    /// `true` when the tier has no nodes (never: `new` rejects zero).
    pub fn is_empty(&self) -> bool {
        self.occ.is_empty()
    }

    /// The node's current (clamped) occupancy in quanta.
    pub fn occupancy(&self, node: usize) -> u32 {
        self.occ[node]
    }

    /// Sum of all clamped occupancies (the admission watermark signal).
    pub fn total(&self) -> u64 {
        self.sum
    }

    /// Overwrites a node's occupancy — interval-start carry from the
    /// previous interval's queue backlog.
    pub fn set_occupancy(&mut self, node: usize, occ: u32) {
        let v = occ.min(self.cap);
        self.sum = self.sum - u64::from(self.occ[node]) + u64::from(v);
        self.occ[node] = v;
    }

    fn bump(&mut self, node: usize) {
        self.set_occupancy(node, self.occ[node].saturating_add(1));
    }

    /// Places one quantum: returns the chosen node and increments its
    /// occupancy. `rng` is consulted only by the randomized policies,
    /// and each policy draws a fixed number of values per call.
    pub fn pick(&mut self, rng: &mut SimRng) -> usize {
        let n = self.occ.len();
        let node = match self.policy {
            DispatchPolicy::Random => rng.index(n),
            DispatchPolicy::RoundRobin => {
                let node = self.rr_next;
                self.rr_next = (self.rr_next + 1) % n;
                node
            }
            // Masked nodes are skipped outright, so one revoked node can
            // never funnel every pick onto its unmasked neighbour; with
            // the whole tier masked the raw argmin comes back.
            DispatchPolicy::LeastLoaded => lowest_min(&self.occ, |i| self.mask.is_masked(i))
                .or_else(|| lowest_min(&self.occ, |_| false))
                .expect("non-empty tier"),
            DispatchPolicy::PowerOfTwo => p2c_domain_pick(rng, n, &self.view, &self.occ),
        };
        let node = self.mask.remap(node);
        self.bump(node);
        node
    }

    /// Masks or unmasks a node. Masked (revoked) nodes are never
    /// returned by `pick` while any node is unmasked: least-loaded skips
    /// them, and the other policies' choice landing on one remaps to the
    /// next unmasked index, cyclically.
    pub fn set_masked(&mut self, node: usize, masked: bool) {
        self.mask.set(node, masked);
    }

    /// Whether `node` is currently masked.
    pub fn is_masked(&self, node: usize) -> bool {
        self.mask.is_masked(node)
    }

    /// Teaches the dispatcher the failure-domain topology: `zone_of[i]`
    /// and `rack_of[i]` are node `i`'s zone and (global) rack indices.
    /// Until this is called the dispatcher is domain-blind.
    pub fn set_topology(&mut self, zone_of: Vec<u16>, rack_of: Vec<u16>) {
        assert_eq!(
            zone_of.len(),
            self.occ.len(),
            "topology must cover the tier"
        );
        self.view.install(zone_of, rack_of);
    }

    /// Flags a whole domain (zone, or rack when `rack` is set) as
    /// degraded or recovered. Degraded domains steer P2C re-probes and
    /// retry placement away; they do **not** mask nodes (use
    /// [`Dispatcher::set_masked`] for hard revocations).
    pub fn set_domain_degraded(&mut self, rack: bool, index: usize, degraded: bool) {
        self.view.set_bad(rack, index, degraded);
    }

    /// Places one *retried* quantum. Identical to [`Dispatcher::pick`]
    /// unless a topology is installed and some (but not all) domains are
    /// degraded, in which case least-loaded spreads the retry across the
    /// least-occupied node of the surviving domains (ties to the lowest
    /// index, masked nodes skipped) without consuming RNG.
    pub fn pick_retry(&mut self, rng: &mut SimRng) -> usize {
        if self.policy == DispatchPolicy::LeastLoaded {
            if let Some(node) = retry_scan(&self.view, &self.mask, &self.occ) {
                self.bump(node);
                return node;
            }
        }
        self.pick(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Masked nodes are never returned through mask/unmask churn.
    #[test]
    fn masked_nodes_are_never_picked() {
        for policy in DispatchPolicy::ALL {
            let mut d = Dispatcher::new(policy, 9, 16);
            let mut rng = SimRng::seed(5);
            for round in 0..40 {
                for node in 0..9 {
                    d.set_masked(node, (node + round) % 3 == 0);
                    d.set_occupancy(node, (node % 4) as u32);
                }
                for _ in 0..18 {
                    let p = d.pick(&mut rng);
                    assert!(!d.is_masked(p), "{} picked a masked node", policy.name());
                }
            }
        }
    }

    /// One masked node at the tier's lowest occupancy must not funnel
    /// least-loaded picks onto its unmasked neighbour: the scan skips it,
    /// so the quanta spread evenly over the survivors.
    #[test]
    fn least_loaded_skips_masked_nodes_instead_of_piling_onto_a_neighbour() {
        let mut d = Dispatcher::new(DispatchPolicy::LeastLoaded, 8, 16);
        let mut rng = SimRng::seed(1);
        d.set_masked(0, true);
        d.set_occupancy(0, 4);
        let mut picks = [0u32; 8];
        for _ in 0..56 {
            picks[d.pick(&mut rng)] += 1;
        }
        assert_eq!(picks, [0, 8, 8, 8, 8, 8, 8, 8]);
    }

    /// With every node masked, pick falls back to the raw candidate (the
    /// cluster layer strands work before dispatching in that regime).
    #[test]
    fn fully_masked_tier_still_returns_a_candidate() {
        let mut d = Dispatcher::new(DispatchPolicy::RoundRobin, 3, 4);
        let mut rng = SimRng::seed(1);
        for node in 0..3 {
            d.set_masked(node, true);
        }
        let p = d.pick(&mut rng);
        assert!(p < 3);
        d.set_masked(p, false);
        assert_eq!(d.pick(&mut rng), p, "only unmasked node wins the remap");
    }

    #[test]
    fn least_loaded_prefers_emptiest_then_lowest_index() {
        let mut d = Dispatcher::new(DispatchPolicy::LeastLoaded, 8, 8);
        let mut rng = SimRng::seed(1);
        for node in 0..8 {
            d.set_occupancy(node, 2);
        }
        d.set_occupancy(5, 1);
        assert_eq!(d.pick(&mut rng), 5); // emptiest
        assert_eq!(d.pick(&mut rng), 0); // now all tie at 2 → lowest index
        assert_eq!(d.occupancy(5), 2);
    }

    /// Builds a 2-zone × 2-racks-per-zone topology over `n` nodes.
    fn toy_topology(n: usize) -> (Vec<u16>, Vec<u16>) {
        let per_rack = n / 4;
        let rack_of: Vec<u16> = (0..n).map(|i| (i / per_rack).min(3) as u16).collect();
        let zone_of: Vec<u16> = rack_of.iter().map(|&r| r / 2).collect();
        (zone_of, rack_of)
    }

    /// With a topology installed but nothing degraded, picks and RNG
    /// consumption are byte-identical to a topology-blind dispatcher.
    #[test]
    fn idle_topology_changes_nothing() {
        for policy in DispatchPolicy::ALL {
            let (mut plain, mut topo) = (
                Dispatcher::new(policy, 16, 16),
                Dispatcher::new(policy, 16, 16),
            );
            let (zone_of, rack_of) = toy_topology(16);
            topo.set_topology(zone_of, rack_of);
            let (mut ra, mut rb) = (SimRng::seed(3), SimRng::seed(3));
            for _ in 0..200 {
                assert_eq!(plain.pick(&mut ra), topo.pick(&mut rb), "{}", policy.name());
                assert_eq!(plain.pick_retry(&mut ra), topo.pick_retry(&mut rb));
            }
            assert_eq!(ra.next_u64(), rb.next_u64(), "RNG streams diverged");
        }
    }

    /// P2C steers away from a degraded zone: with zone 0 degraded, picks
    /// land in zone 1 far more often than the blind 50/50 split.
    #[test]
    fn p2c_reprobe_steers_away_from_degraded_zone() {
        let mut d = Dispatcher::new(DispatchPolicy::PowerOfTwo, 16, 64);
        let (zone_of, rack_of) = toy_topology(16);
        let zone = zone_of.clone();
        d.set_topology(zone_of, rack_of);
        d.set_domain_degraded(false, 0, true);
        let mut rng = SimRng::seed(42);
        let mut healthy_picks = 0;
        for _ in 0..1000 {
            let p = d.pick(&mut rng);
            if zone[p] == 1 {
                healthy_picks += 1;
            }
            for node in 0..16 {
                d.set_occupancy(node, 0);
            }
        }
        assert!(
            healthy_picks > 650,
            "re-probe too weak: {healthy_picks}/1000 in healthy zone"
        );
    }

    /// Least-loaded retries go to the emptiest surviving-domain node and
    /// consume no RNG; once every domain is degraded they fall back to
    /// the plain pick.
    #[test]
    fn least_loaded_retry_spreads_across_surviving_domains() {
        let mut d = Dispatcher::new(DispatchPolicy::LeastLoaded, 16, 64);
        let (zone_of, rack_of) = toy_topology(16);
        d.set_topology(zone_of, rack_of);
        d.set_domain_degraded(false, 1, true);
        for node in 0..16 {
            d.set_occupancy(node, if node < 8 { 4 } else { 0 });
        }
        // Zone 1 (nodes 8..16) is degraded and empty; zone 0 is loaded.
        // A plain least-loaded pick would choose node 8; the retry must
        // stay in the surviving zone 0.
        let mut rng = SimRng::seed(9);
        let before = rng.clone().next_u64();
        let p = d.pick_retry(&mut rng);
        assert_eq!(p, 0, "least-occupied surviving node, lowest index");
        assert_eq!(rng.next_u64(), before, "retry scan must not consume RNG");
        // Degrade the surviving zone too: no steering possible, plain pick.
        d.set_domain_degraded(false, 0, true);
        let mut rng = SimRng::seed(9);
        assert_eq!(d.pick_retry(&mut rng), 8, "fallback to plain least-loaded");
    }

    #[test]
    fn round_robin_cycles_and_names_parse() {
        let mut d = Dispatcher::new(DispatchPolicy::RoundRobin, 3, 4);
        let mut rng = SimRng::seed(1);
        let picks: Vec<usize> = (0..4).map(|_| d.pick(&mut rng)).collect();
        assert_eq!(picks, vec![0, 1, 2, 0], "round robin order");
        for p in DispatchPolicy::ALL {
            assert_eq!(DispatchPolicy::parse(p.name()), Some(p));
        }
        assert_eq!(
            DispatchPolicy::parse("P2C"),
            Some(DispatchPolicy::PowerOfTwo)
        );
        assert_eq!(DispatchPolicy::parse("weighted"), None);
    }
}
