//! Lookahead buffers over the engine's arrival and demand streams.
//!
//! The engine draws inter-arrival and think times from its `"arrival"`
//! fork and burst sizes and service demands from its `"demand"` fork.
//! Nothing but the event loop reads either stream, and what a draw yields
//! depends only on how many draws came before it, never on simulation
//! state. So each stream is read ahead one small chunk at a time, with the
//! draws evaluated in a tight loop ([`Exponential::fill_standard`],
//! [`LcModel::fill_arrivals`], [`LcModel::fill_demands`]) instead of one
//! at a time between queue operations. The event loop consumes the
//! buffered values in the order per-event draws would make them, so each
//! value has the bits a per-event draw would give; the read-ahead runs
//! past interval ends and is picked up by the next interval.
//!
//! The buffers allocate on first use and are reused for the engine's
//! lifetime. Neither ever holds more than [`DRAW_CHUNK`] draws — a long
//! burst is read ahead in chunk-sized pieces — so an engine's lookahead
//! costs under a kilobyte.

use crate::dist::Exponential;
use crate::request::Demand;
use crate::rng::SimRng;
use crate::traits::LcModel;

/// Draws per refill: standard exponentials on the arrival stream, demands
/// on the demand stream. A constant, not an option.
pub(crate) const DRAW_CHUNK: usize = 32;

/// The arrival stream, read ahead as rate-free standard exponentials
/// `-ln(1-U)`. The caller divides by the rate in force
/// ([`Exponential::scale`]), which gives the bits
/// [`Exponential::sample`] would have drawn at that rate.
#[derive(Debug)]
pub(crate) struct ExpStream {
    rng: SimRng,
    buf: Vec<f64>,
    pos: usize,
}

impl ExpStream {
    pub(crate) fn new(rng: SimRng) -> Self {
        ExpStream {
            rng,
            buf: Vec::new(),
            pos: 0,
        }
    }

    /// The stream's next standard exponential.
    #[inline]
    pub(crate) fn next(&mut self) -> f64 {
        if self.pos == self.buf.len() {
            self.buf.clear();
            Exponential::fill_standard(&mut self.rng, DRAW_CHUNK, &mut self.buf);
            self.pos = 0;
        }
        let e = self.buf[self.pos];
        self.pos += 1;
        e
    }
}

/// The demand stream, read ahead as open-loop arrival events (burst size,
/// then its demands) or as closed-loop demands. An engine is either open
/// or closed loop for its lifetime, so one stream serves one mode.
///
/// Open loop, the stream's order is `burst₁, demands₁…, burst₂, …`; a
/// refill at an event boundary draws events until it holds
/// [`DRAW_CHUNK`] demands, stopping part-way through the last one, whose
/// remaining (`owed`) demands the next refills draw before any burst.
#[derive(Debug)]
pub(crate) struct DemandStream {
    rng: SimRng,
    /// Burst sizes of the buffered open-loop events.
    bursts: Vec<usize>,
    /// Buffered demands, in draw order.
    demands: Vec<Demand>,
    next_burst: usize,
    next_demand: usize,
    /// Demands of the last buffered event not drawn yet.
    owed: usize,
}

impl DemandStream {
    pub(crate) fn new(rng: SimRng) -> Self {
        DemandStream {
            rng,
            bursts: Vec::new(),
            demands: Vec::new(),
            next_burst: 0,
            next_demand: 0,
            owed: 0,
        }
    }

    /// The burst size of the next open-loop arrival event; its demands
    /// are the next that many [`DemandStream::next_demand`] calls.
    #[inline]
    pub(crate) fn next_burst(&mut self, lc: &dyn LcModel) -> usize {
        if self.next_burst == self.bursts.len() {
            debug_assert!(self.owed == 0 && self.next_demand == self.demands.len());
            self.bursts.clear();
            self.demands.clear();
            self.next_burst = 0;
            self.next_demand = 0;
            self.owed = lc.fill_arrivals(
                &mut self.rng,
                DRAW_CHUNK,
                &mut self.bursts,
                &mut self.demands,
            );
        }
        self.next_burst += 1;
        self.bursts[self.next_burst - 1]
    }

    /// The next demand: of the current open-loop event, or the next
    /// closed-loop request.
    #[inline]
    pub(crate) fn next_demand(&mut self, lc: &dyn LcModel) -> Demand {
        if self.next_demand == self.demands.len() {
            // Open loop, only an owed event tail can run the buffer dry
            // (closed loop never draws bursts, so owes nothing).
            debug_assert!(self.owed > 0 || self.bursts.is_empty());
            let n = if self.owed > 0 {
                self.owed.min(DRAW_CHUNK)
            } else {
                DRAW_CHUNK
            };
            self.owed -= n.min(self.owed);
            self.demands.clear();
            self.next_demand = 0;
            lc.fill_demands(&mut self.rng, n, &mut self.demands);
        }
        self.next_demand += 1;
        self.demands[self.next_demand - 1]
    }
}
