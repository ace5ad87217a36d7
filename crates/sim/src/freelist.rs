//! The preference-rank bitmap free list behind the service node's
//! dispatch path.
//!
//! Dispatch always takes the fastest free server, ties toward the highest
//! server index. That is one fixed preference order over the servers, so
//! [`RankFreeList`] sorts them into it once — by (effective speed
//! descending, index descending), re-sorted only when a reconfiguration
//! actually changes the per-server speed sequence — and keeps **one
//! two-level u64 bitset indexed by rank**. Dispatch is "lowest set rank":
//! find-first-set over the summary word, then over the leaf word — O(1)
//! in the server count, and on a Juno node (≤6 servers) a single word
//! each. Promoting stalled servers whose reconfiguration stall elapsed is
//! a word-wise merge of a parallel stalled bitset.
//!
//! Tie-breaking replicates the original dispatch scan exactly (a `max_by`
//! over effective speed, which returns the *last* maximal server): rank
//! order is `(eff, index)` descending, fastest first and, among equal
//! speeds, the highest index.

/// Free-server index in dispatch-preference order, bitmap-backed:
///
/// * [`pop_best`](RankFreeList::pop_best) — fastest free server, ties
///   toward the highest index — is O(1): the lowest set rank of the
///   two-level free bitset.
/// * [`mark_free`](RankFreeList::mark_free) /
///   [`mark_stalled`](RankFreeList::mark_stalled) are O(1) bit sets.
/// * [`promote`](RankFreeList::promote) merges every stalled server into
///   the free bitset word-wise when the latest stall has elapsed (the
///   common case — one reconfiguration stalls all idle servers until the
///   same instant), falling back to a per-bit eligibility check only
///   while inside a stall window.
/// * [`rebuild`](RankFreeList::rebuild) re-sorts the preference order
///   only when the per-server effective-speed sequence actually changed;
///   otherwise it just clears the bitsets (a few word fills).
#[derive(Debug, Clone, Default)]
pub(crate) struct RankFreeList {
    /// Servers in preference order (rank → server index).
    order: Vec<u32>,
    /// Inverse of `order` (server index → rank).
    rank_of: Vec<u32>,
    /// Free bitset over ranks (leaf level).
    free: Vec<u64>,
    /// Occupancy of `free`'s words (summary level): bit `w` set when
    /// `free[w] != 0`.
    free_summary: Vec<u64>,
    /// Stalled bitset over ranks (servers parked until their
    /// reconfiguration stall elapses).
    stalled: Vec<u64>,
    /// Per-server effective-speed bit patterns of the current order, for
    /// change detection in [`rebuild`](RankFreeList::rebuild).
    eff_seq: Vec<u64>,
    /// Number of stalled servers.
    stalled_count: usize,
    /// Latest `available_at` among stalled servers; once `now` passes it,
    /// promotion is a word-wise merge with no per-server checks.
    stalled_max_avail: f64,
}

impl RankFreeList {
    /// Creates an empty free list (no servers).
    pub fn new() -> Self {
        Self::default()
    }

    /// Prepares the free list for a new server array whose effective speeds
    /// are `effs` (indexed by server). Every server starts neither free nor
    /// stalled; the caller marks each idle server stalled afterwards.
    ///
    /// When the speed sequence is unchanged from the previous rebuild (the
    /// steady-state interval boundary), the order is kept and only the
    /// bitsets are cleared.
    pub fn rebuild<I>(&mut self, effs: I)
    where
        I: Iterator<Item = f64> + Clone,
    {
        let mut changed = false;
        let mut n = 0usize;
        for (i, e) in effs.clone().enumerate() {
            if self.eff_seq.get(i).copied() != Some(e.to_bits()) {
                changed = true;
            }
            n += 1;
        }
        changed |= n != self.eff_seq.len();

        if changed {
            self.eff_seq.clear();
            self.eff_seq.extend(effs.map(f64::to_bits));
            let eff = |i: u32| f64::from_bits(self.eff_seq[i as usize]);
            self.order.clear();
            self.order.extend(0..n as u32);
            // Fastest first, then highest index. Equal speeds share one
            // bit pattern (speeds are positive finite quotients), so
            // `total_cmp` equality is exactly speed equality.
            self.order
                .sort_unstable_by(|&a, &b| eff(b).total_cmp(&eff(a)).then(b.cmp(&a)));
            self.rank_of.clear();
            self.rank_of.resize(n, 0);
            for (r, &i) in self.order.iter().enumerate() {
                self.rank_of[i as usize] = r as u32;
            }
            let words = n.div_ceil(64);
            self.free.clear();
            self.free.resize(words, 0);
            self.free_summary.clear();
            self.free_summary.resize(words.div_ceil(64).max(1), 0);
            self.stalled.clear();
            self.stalled.resize(words, 0);
        } else {
            self.free.fill(0);
            self.free_summary.fill(0);
            self.stalled.fill(0);
        }
        self.stalled_count = 0;
        self.stalled_max_avail = f64::NEG_INFINITY;
    }

    /// Whether any server is parked in a stall window.
    #[inline]
    pub fn has_stalled(&self) -> bool {
        self.stalled_count != 0
    }

    /// Marks `server` free and eligible for dispatch. O(1).
    ///
    /// The caller guarantees the server is currently neither free nor
    /// stalled.
    #[inline]
    pub fn mark_free(&mut self, server: usize) {
        let r = self.rank_of[server] as usize;
        self.free[r / 64] |= 1u64 << (r % 64);
        self.free_summary[r / 64 / 64] |= 1u64 << (r / 64 % 64);
    }

    /// Parks `server` (idle, but inside a reconfiguration stall until
    /// `available_at`). O(1).
    ///
    /// The caller guarantees the server is currently neither free nor
    /// stalled.
    #[inline]
    pub fn mark_stalled(&mut self, server: usize, available_at: f64) {
        let r = self.rank_of[server] as usize;
        self.stalled[r / 64] |= 1u64 << (r % 64);
        self.stalled_count += 1;
        if available_at > self.stalled_max_avail {
            self.stalled_max_avail = available_at;
        }
    }

    /// Removes and returns the preferred free server: fastest, ties
    /// toward the highest server index. O(1): the lowest set rank, found
    /// by find-first-set over the summary, then the leaf word.
    #[inline]
    pub fn pop_best(&mut self) -> Option<usize> {
        let swi = self.free_summary.iter().position(|&w| w != 0)?;
        let wi = swi * 64 + self.free_summary[swi].trailing_zeros() as usize;
        let w = self.free[wi];
        let r = wi * 64 + w.trailing_zeros() as usize;
        self.free[wi] = w & (w - 1);
        if self.free[wi] == 0 {
            self.free_summary[swi] &= !(1u64 << (wi % 64));
        }
        Some(self.order[r] as usize)
    }

    /// Promotes stalled servers whose stall has elapsed at `now` into the
    /// free bitset. When `now` has passed the *latest* stall deadline —
    /// the common case, since one reconfiguration stalls every idle server
    /// until the same instant — this is a word-wise `free |= stalled` merge
    /// with no per-server work. Inside a stall window it falls back to a
    /// per-bit check of `avail_of(server)`.
    pub fn promote(&mut self, now: f64, avail_of: impl Fn(usize) -> f64) {
        if self.stalled_count == 0 {
            return;
        }
        let merge_all = now >= self.stalled_max_avail;
        for w in 0..self.stalled.len() {
            let mut st = self.stalled[w];
            if st == 0 {
                continue;
            }
            if merge_all {
                self.free[w] |= st;
                self.free_summary[w / 64] |= 1u64 << (w % 64);
                self.stalled[w] = 0;
                continue;
            }
            while st != 0 {
                let b = st.trailing_zeros() as usize;
                st &= st - 1;
                let server = self.order[w * 64 + b] as usize;
                if avail_of(server) <= now {
                    self.stalled[w] &= !(1u64 << b);
                    self.free[w] |= 1u64 << b;
                    self.free_summary[w / 64] |= 1u64 << (w % 64);
                    self.stalled_count -= 1;
                }
            }
        }
        if merge_all {
            self.stalled_count = 0;
            self.stalled_max_avail = f64::NEG_INFINITY;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn build(effs: &[f64]) -> RankFreeList {
        let mut fl = RankFreeList::new();
        fl.rebuild(effs.iter().copied());
        fl
    }

    #[test]
    fn pops_fastest_then_highest_index() {
        // Servers 0..6 with two speeds (4.0 fast, 2.0 slow).
        let mut fl = build(&[2.0, 4.0, 2.0, 4.0, 2.0, 4.0]);
        for i in 0..6 {
            fl.mark_free(i);
        }
        // Fast servers by index descending, then slow ones descending —
        // exactly the (eff, index)-descending order of the dispatch scan.
        let order: Vec<usize> = std::iter::from_fn(|| fl.pop_best()).collect();
        assert_eq!(order, vec![5, 3, 1, 4, 2, 0]);
        assert_eq!(fl.pop_best(), None);
    }

    #[test]
    fn interleaved_free_and_pop() {
        let mut fl = build(&[1.0, 3.0, 3.0]);
        fl.mark_free(0);
        assert_eq!(fl.pop_best(), Some(0));
        fl.mark_free(1);
        fl.mark_free(0);
        assert_eq!(fl.pop_best(), Some(1), "faster server preferred");
        fl.mark_free(2);
        fl.mark_free(1);
        assert_eq!(fl.pop_best(), Some(2), "highest index wins the tie");
        assert_eq!(fl.pop_best(), Some(1));
        assert_eq!(fl.pop_best(), Some(0));
        assert_eq!(fl.pop_best(), None);
    }

    #[test]
    fn stalled_merge_promotes_word_wise() {
        let mut fl = build(&[2.0; 130]); // one speed, 3 leaf words
        for i in 0..130 {
            fl.mark_stalled(i, 5.0);
        }
        assert!(fl.has_stalled());
        assert_eq!(fl.pop_best(), None, "stalled servers are not dispatchable");
        fl.promote(4.0, |_| 5.0);
        assert_eq!(fl.pop_best(), None, "stall not elapsed yet");
        fl.promote(5.0, |_| {
            unreachable!("full merge needs no per-server check")
        });
        assert!(!fl.has_stalled());
        assert_eq!(fl.pop_best(), Some(129));
        assert_eq!(fl.pop_best(), Some(128));
        let rest: Vec<usize> = std::iter::from_fn(|| fl.pop_best()).collect();
        assert_eq!(rest.len(), 128);
        assert_eq!(rest.last(), Some(&0));
    }

    #[test]
    fn partial_promotion_checks_each_server() {
        let mut fl = build(&[2.0, 2.0, 2.0]);
        fl.mark_stalled(0, 1.0);
        fl.mark_stalled(1, 3.0);
        fl.mark_stalled(2, 2.0);
        fl.promote(2.0, |i| [1.0, 3.0, 2.0][i]);
        assert!(fl.has_stalled(), "server 1 still stalled");
        assert_eq!(fl.pop_best(), Some(2));
        assert_eq!(fl.pop_best(), Some(0));
        assert_eq!(fl.pop_best(), None);
        fl.promote(3.0, |_| unreachable!("now past the max deadline"));
        assert_eq!(fl.pop_best(), Some(1));
        assert!(!fl.has_stalled());
    }

    /// One step of the free-list driving sequence.
    #[derive(Debug, Clone)]
    enum FOp {
        /// Free the `pick`-th idle server (modulo the idle count).
        Free { pick: usize },
        /// Stall the `pick`-th idle server until `avail`.
        Stall { pick: usize, avail: f64 },
        /// Pop the preferred free server.
        Pop,
        /// Promote at `now`.
        Promote { now: f64 },
        /// Rebuild over new speeds (re-sorts the order).
        Rebuild { speeds: Vec<u8> },
        /// Rebuild over the current speeds (keeps the order, clears the
        /// bitsets) — the steady-state interval boundary.
        Reset,
    }

    fn fop_strategy() -> impl Strategy<Value = FOp> {
        prop_oneof![
            (0usize..200).prop_map(|pick| FOp::Free { pick }),
            (0usize..200, 0.0f64..4.0).prop_map(|(pick, avail)| FOp::Stall { pick, avail }),
            Just(FOp::Pop),
            (0.0f64..5.0).prop_map(|now| FOp::Promote { now }),
            prop::collection::vec(0u8..4, 1..140).prop_map(|speeds| FOp::Rebuild { speeds }),
            Just(FOp::Reset),
        ]
    }

    /// Drives the free list and a sorted oracle of the free set (`(eff,
    /// index)` max first — the order dispatch must reproduce) through
    /// `ops`, asserting every pop agrees.
    fn run_oracle(ops: &[FOp]) {
        let speed = |s: u8| [0.5, 1.0, 2.0, 3.5][s as usize];
        let mut effs: Vec<f64> = vec![1.0; 6];
        let mut fl = build(&effs);
        // Per-server state: 0 idle (neither set), 1 free, 2 stalled.
        let mut state = vec![0u8; effs.len()];
        let mut avail = vec![0.0f64; effs.len()];
        for op in ops {
            match op {
                FOp::Free { pick } | FOp::Stall { pick, .. } => {
                    let idle: Vec<usize> = (0..effs.len()).filter(|&i| state[i] == 0).collect();
                    if idle.is_empty() {
                        continue;
                    }
                    let i = idle[pick % idle.len()];
                    if let FOp::Stall { avail: a, .. } = op {
                        fl.mark_stalled(i, *a);
                        state[i] = 2;
                        avail[i] = *a;
                    } else {
                        fl.mark_free(i);
                        state[i] = 1;
                    }
                }
                FOp::Pop => {
                    let want = (0..effs.len())
                        .filter(|&i| state[i] == 1)
                        .max_by(|&a, &b| effs[a].total_cmp(&effs[b]).then(a.cmp(&b)));
                    let got = fl.pop_best();
                    assert_eq!(got, want, "pop diverged from the sorted oracle");
                    if let Some(i) = got {
                        state[i] = 0;
                    }
                }
                FOp::Promote { now } => {
                    fl.promote(*now, |i| avail[i]);
                    for i in 0..effs.len() {
                        if state[i] == 2 && avail[i] <= *now {
                            state[i] = 1;
                        }
                    }
                    let stalled = state.contains(&2);
                    assert_eq!(fl.has_stalled(), stalled, "stalled flag diverged");
                }
                FOp::Rebuild { .. } | FOp::Reset => {
                    if let FOp::Rebuild { speeds } = op {
                        effs = speeds.iter().map(|&s| speed(s)).collect();
                    }
                    fl.rebuild(effs.iter().copied());
                    state = vec![0; effs.len()];
                    avail = vec![0.0; effs.len()];
                }
            }
        }
        let mut rest = Vec::new();
        fl.promote(f64::INFINITY, |_| 0.0);
        while let Some(i) = fl.pop_best() {
            rest.push(i);
        }
        let mut want: Vec<usize> = (0..effs.len()).filter(|&i| state[i] != 0).collect();
        want.sort_by(|&a, &b| effs[b].total_cmp(&effs[a]).then(b.cmp(&a)));
        assert_eq!(rest, want, "final drain diverged from the sorted oracle");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn pops_match_sorted_free_set_oracle(
            ops in prop::collection::vec(fop_strategy(), 1..400),
        ) {
            run_oracle(&ops);
        }
    }
}
