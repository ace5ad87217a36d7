//! Calendar queue: the O(1)-amortized time-bucket priority queue behind
//! both event cores (pending completions and closed-loop think timers).
//!
//! A calendar queue spreads pending events over a ring of time buckets,
//! each `width` seconds wide, the way a desk calendar spreads
//! appointments over days: enqueue drops an event into the bucket its
//! time falls in (one multiply + mask), and dequeue walks the ring from
//! the current "day", taking the earliest event of the first day that has
//! one. Events more than a whole rotation ahead alias into the same
//! physical buckets (day 3 of *next year* shares a page with day 3 of
//! this year) and are filtered by comparing their virtual day, so
//! far-future events cost nothing until the cursor actually reaches them.
//!
//! Five structural choices keep the constant factor below a binary heap's
//! (whose pops walk ~12 cache-hostile levels at 4096 in-flight events) at
//! every population, from a Juno node's ≤6 pending completions to
//! thousands of thinking clients:
//!
//! * **Small populations skip the ring entirely.** While at most
//!   `FLAT_MAX` (8, one bucket's slots) entries are live, they all sit in
//!   the sorted `today` stack: push is a short linear-scan insert, pop a
//!   `Vec::pop`, and no day mapping, bitmap or activation runs. A ring
//!   sized from a handful of events is mis-sized for the stream that
//!   follows (the width of ≤6 in-flight completions leaves about one event
//!   per bucket, so nearly every pop re-primes), so the ring takes over
//!   only once a push exceeds `FLAT_MAX` — its width then measured from at
//!   least nine entries — and hands back when pops drain it to
//!   `FLAT_MAX / 2`.
//! * **Buckets are fixed slots in one flat slab**, [`Slot::CAP`] entries
//!   per bucket plus a byte of occupancy — a `u64` bucket is exactly one
//!   cache line — so touching a bucket is one indexed access, not a
//!   `Vec`-header chase to a second random line. The rare bucket that
//!   overflows its slots (bursty clumping, tie storms) spills into a
//!   per-bucket overflow `Vec` consulted only when the slot count is at
//!   capacity.
//! * **The current day is a sorted stack.** When the cursor reaches a
//!   day, its events move into the `today` stack, sorted descending, so
//!   every pop inside the day is a `Vec::pop` off the back — one
//!   predictable cache line, no re-scan. Day activation sorts a handful
//!   of entries and is paid once per day, amortized O(1) per event.
//! * **An occupancy bitmap skips empty days word-wise.** Advancing the
//!   cursor consults one bit per day instead of touching each bucket —
//!   the same trick as the dispatch free-list bitmaps, flattened to one
//!   level because the walk is sequential anyway.
//! * **Day-membership is decided per bucket, not per entry.** The packed
//!   key order is monotone in the day mapping, so one look at a bucket's
//!   smallest entry rejects a whole future-rotation bucket, and one look
//!   at its largest accepts the whole bucket as current-day (the common,
//!   non-aliased case — entries then move to `today` with a bulk copy);
//!   only a bucket actually straddling rotations pays a per-entry split.
//!
//! The ring is generic over its stored [`Slot`]: completions store packed
//! `(time key, server)` `u128`s, while the closed-loop think pool — a
//! payloadless multiset of expiries — stores bare `u64` time keys, halving
//! its line traffic at 4096 thinking clients (the hottest structure of the
//! closed-loop matrix).
//!
//! The structure self-tunes: when the population outgrows or shrinks far
//! below the ring size, the queue resizes and re-measures the live span
//! (see `rebuild`), so it tracks the mean service/think time of whatever
//! regime the simulation is in — including the bursty MMPP-style
//! clustering that concentrates events in a few buckets between resizes.
//!
//! # Exact pop order
//!
//! Completion entries are packed `u128`s — high 64 bits the event time
//! mapped through the order-preserving [`f64::total_cmp`] bit trick, low
//! 64 bits the payload (server index) — and the queue always pops the
//! *global minimum* entry: `today` is sorted by the packed key, days are
//! visited in time order, and a day's membership check is monotone in the
//! packed key. Pop sequences are therefore exactly those of a sorted
//! `(time, payload)` list under `total_cmp` — earliest time first, ties to
//! the lowest payload — which is the oracle the differential battery
//! (`tests/calendar_equivalence.rs`) races the queue against, including
//! `total_cmp` tie ranks, far-future aliasing and DVFS rescale re-keys.

/// Maps an event time to a `u64` whose unsigned order equals
/// [`f64::total_cmp`] order. Exact for every float (including negatives,
/// zeros and NaNs), so equivalence holds under arbitrary test inputs.
#[inline]
pub(crate) fn key_of(finish: f64) -> u64 {
    let b = finish.to_bits();
    b ^ ((((b as i64) >> 63) as u64) >> 1) ^ (1u64 << 63)
}

/// Inverse of [`key_of`] (bit-exact round trip). Branchless: the xor
/// mask is `1 << 63` when the top bit is set (positive floats) and all
/// ones otherwise (negative floats, stored complemented).
#[inline]
pub(crate) fn finish_of(key: u64) -> f64 {
    f64::from_bits(key ^ !((((key as i64) >> 63) as u64) >> 1))
}

#[inline]
fn pack(finish: f64, payload: usize) -> u128 {
    ((key_of(finish) as u128) << 64) | payload as u128
}

#[inline]
fn unpack(e: u128) -> (f64, usize) {
    (finish_of((e >> 64) as u64), e as u64 as usize)
}

/// A ring entry: `Ord` by (`key_of`-mapped) event time first, and able to
/// report that time key. The two instantiations are `u128` (packed
/// `(time, payload)` completion events) and `u64` (a bare time key — the
/// think pool's payloadless multiset at half the memory traffic).
trait Slot: Copy + Ord + Default + std::fmt::Debug {
    /// Inline slab slots per bucket (one 64-byte cache line of `u64`
    /// keys, two of `u128` pairs); beyond this a bucket spills into its
    /// overflow `Vec`.
    const CAP: usize = 8;

    /// The order-preserving `u64` time key of this entry.
    fn key(self) -> u64;

    /// The event time (unmapped key).
    #[inline]
    fn time(self) -> f64 {
        finish_of(self.key())
    }
}

impl Slot for u128 {
    #[inline]
    fn key(self) -> u64 {
        (self >> 64) as u64
    }
}

impl Slot for u64 {
    #[inline]
    fn key(self) -> u64 {
        self
    }
}

/// Smallest ring size; below this the ring is a couple of cache lines and
/// shrinking further saves nothing.
const MIN_BUCKETS: usize = 4;

/// Largest population held in flat mode — one bucket's worth of slab
/// slots. A push past it hands the entries to the ring; a pop down to
/// `FLAT_MAX / 2` hands them back (the gap keeps a population hovering
/// around the threshold from re-placing on every event).
const FLAT_MAX: usize = <u64 as Slot>::CAP;

/// The generic rotating time-bucket core shared by [`CalendarQueue`] and
/// [`TimerCalendar`]. All invariants live here; the wrappers only pack /
/// unpack entries at the boundary.
#[derive(Debug, Clone)]
struct Ring<E> {
    /// Flat bucket slab: bucket `b` owns `slab[b*CAP .. b*CAP+lens[b]]`,
    /// unsorted *future* events (the current day's live in `today`).
    /// `lens.len()` — the ring size — is a power of two.
    slab: Vec<E>,
    /// Per-bucket slot occupancy (`CAP` fits in a byte).
    lens: Vec<u8>,
    /// Per-bucket overflow beyond the `CAP` slab slots. Invariant:
    /// non-empty only while `lens[b] == CAP`, so the common path never
    /// touches these `Vec` headers.
    over: Vec<Vec<E>>,
    /// Occupancy bitmap: bit `b` set iff bucket `b` holds any entry.
    occupied: Vec<u64>,
    /// The current day's events, sorted descending — the global minimum is
    /// `today.last()`. Invariant: non-empty whenever `len > 0` (every
    /// mutation re-primes), so peek is branch + load. In flat mode it
    /// holds *every* entry.
    today: Vec<E>,
    /// Flat mode: the population is at most [`FLAT_MAX`], every entry
    /// lives in `today`, and the buckets are empty — no day mapping,
    /// bitmap walk or activation runs.
    flat: bool,
    /// `lens.len() - 1`, for mapping virtual days to ring slots.
    mask: u64,
    /// Bucket ("day") width in seconds.
    width: f64,
    /// `1.0 / width`, the hot-path factor of `virtual_day`.
    inv_width: f64,
    /// Virtual (unwrapped) day index `today` covers. Invariant: no stored
    /// event has a smaller virtual day — pushes into the past pull the
    /// cursor back — so `today` always holds the global minimum.
    cursor: u64,
    len: usize,
    /// Reused entry buffer for resizes (no steady-state allocation).
    scratch: Vec<E>,
    /// Reused buffer for rotation-straddling bucket splits.
    tmp: Vec<E>,
}

impl<E: Slot> Ring<E> {
    fn new() -> Self {
        Ring {
            slab: vec![E::default(); MIN_BUCKETS * E::CAP],
            lens: vec![0; MIN_BUCKETS],
            over: (0..MIN_BUCKETS).map(|_| Vec::new()).collect(),
            occupied: vec![0; 1],
            today: Vec::new(),
            flat: true,
            mask: (MIN_BUCKETS - 1) as u64,
            width: 1.0,
            inv_width: 1.0,
            cursor: 0,
            len: 0,
            scratch: Vec::new(),
            tmp: Vec::new(),
        }
    }

    /// The virtual day an event time falls in: `floor(t / width)`,
    /// saturated at both ends so every float (±∞, NaN, negatives) lands on
    /// a day and the mapping stays monotone in [`f64::total_cmp`] order —
    /// the property the day-membership check relies on. One multiply and
    /// a saturating cast (`as` floors non-negative floats and clamps both
    /// ends); only NaN inputs take the branch.
    #[inline]
    fn virtual_day(&self, t: f64) -> u64 {
        let v = t * self.inv_width;
        if v.is_nan() {
            // total_cmp ranks -NaN below -∞ and +NaN above +∞.
            // (inv_width is finite positive, so v is NaN iff t is.)
            if t.is_sign_negative() {
                0
            } else {
                u64::MAX
            }
        } else {
            v as u64
        }
    }

    #[inline]
    fn mark_occupied(&mut self, b: usize) {
        self.occupied[b >> 6] |= 1u64 << (b & 63);
    }

    #[inline]
    fn unmark(&mut self, b: usize) {
        self.occupied[b >> 6] &= !(1u64 << (b & 63));
    }

    /// Appends an entry to bucket `b`: a slab slot while one is free, the
    /// overflow `Vec` past that.
    #[inline]
    fn bucket_insert(&mut self, b: usize, e: E) {
        let l = self.lens[b] as usize;
        if l < E::CAP {
            self.slab[b * E::CAP + l] = e;
            self.lens[b] = (l + 1) as u8;
        } else {
            self.over[b].push(e);
        }
        self.mark_occupied(b);
    }

    /// Inserts an entry whose event time is `t`. O(1): a slab append in
    /// its day's bucket — or, for an event landing on the current day (or
    /// any event in flat mode), a sorted insert into the (tiny) `today`
    /// stack, which keeps the cached minimum warm for free.
    #[inline]
    fn push(&mut self, e: E, t: f64) {
        self.len += 1;
        if self.flat {
            // Descending: insert before the first strictly smaller entry,
            // shifting the smaller tail up in place from the back. At
            // ≤ FLAT_MAX entries that is a few register moves, where
            // `Vec::insert` makes a `memmove` call per push.
            self.today.push(e);
            let mut i = self.today.len() - 1;
            while i > 0 && self.today[i - 1] < e {
                self.today[i] = self.today[i - 1];
                i -= 1;
            }
            self.today[i] = e;
            if self.len > FLAT_MAX {
                self.rebuild(); // outgrew flat mode: spread over the ring
            }
            return;
        }
        let day = self.virtual_day(t);
        if day == self.cursor && (self.len > 1 || !self.today.is_empty()) {
            // Descending order: find the first position whose entry is
            // strictly smaller and insert before it. `today` is a handful
            // of entries, and most pushes target future days, so the
            // memmove is rare and tiny.
            let pos = self.today.partition_point(|&x| x >= e);
            self.today.insert(pos, e);
        } else if day < self.cursor || self.today.is_empty() {
            // Push into the past (or first event of an empty queue): park
            // today's events back in their bucket and re-prime from the
            // new minimum day.
            self.spill_today();
            self.bucket_insert((day & self.mask) as usize, e);
            self.cursor = day;
            self.prime();
        } else {
            self.bucket_insert((day & self.mask) as usize, e);
        }
        if self.len > 8 * self.lens.len() {
            self.rebuild(); // over-populated: grow the ring
        }
    }

    /// Removes and returns the minimum entry. Callers peek first
    /// (`today.last()`); this commits the pop. O(1) amortized: a
    /// `Vec::pop` off the sorted stack, plus a day-advance walk when the
    /// day runs dry.
    #[inline]
    fn pop_min(&mut self) -> E {
        let e = self.today.pop().expect("pop_min on empty ring");
        self.len -= 1;
        if self.flat {
            return e;
        }
        if self.len <= FLAT_MAX / 2 || (self.lens.len() > MIN_BUCKETS && self.len < self.lens.len())
        {
            self.rebuild(); // under-populated: shrink, or back to flat mode
        } else if self.today.is_empty() {
            self.prime();
        }
        e
    }

    /// Moves `today`'s events back into their home bucket (cursor is about
    /// to jump somewhere else).
    fn spill_today(&mut self) {
        if self.today.is_empty() {
            return;
        }
        let b = (self.cursor & self.mask) as usize;
        while let Some(e) = self.today.pop() {
            self.bucket_insert(b, e);
        }
    }

    /// Advances the cursor to the next day holding events and activates it
    /// into `today` (sorted descending). Walks occupied days via the
    /// bitmap — empty days cost a bit test, not a bucket access — and
    /// decides whole buckets with one membership check on their smallest
    /// entry (monotone key → if the minimum is a future rotation, all
    /// are). If a whole rotation finds nothing in-window — every live
    /// event is ≥ one full rotation ahead, or aliased past saturation —
    /// falls back to a direct scan for the global minimum day. No-op when
    /// the queue is empty. O(1) amortized against the pops that empty
    /// each day.
    fn prime(&mut self) {
        debug_assert!(self.today.is_empty());
        if self.len == 0 {
            return;
        }
        let start = self.cursor;
        let nbuckets = self.lens.len();
        let words = self.occupied.len();
        let start_pos = (start & self.mask) as usize;
        // Walk the bitmap one full rotation starting at start_pos: the
        // first word masked below the start bit, then whole words, then
        // the start word's low bits after wrapping.
        let mut wi = start_pos >> 6;
        let mut w = self.occupied[wi] & (!0u64 << (start_pos & 63));
        let mut wraps = 0usize;
        loop {
            while w != 0 {
                let p = (wi << 6) | w.trailing_zeros() as usize;
                if wraps == words && p >= start_pos {
                    break; // completed the rotation
                }
                // The unique in-window day for ring position p.
                let day = start.wrapping_add((p as u64).wrapping_sub(start) & self.mask);
                if self.activate(p, day) {
                    self.cursor = day;
                    return;
                }
                w &= w - 1;
            }
            wraps += 1;
            if wraps > words {
                break;
            }
            wi += 1;
            if wi == words {
                wi = 0;
            }
            w = self.occupied[wi];
            if wraps == words {
                // Back at the start word: only positions before start_pos
                // are still unvisited.
                if start_pos & 63 == 0 {
                    break;
                }
                w &= !(!0u64 << (start_pos & 63));
                if wi != start_pos >> 6 {
                    break;
                }
            }
        }
        // Empty rotation: direct search for the global minimum entry (rare
        // — the resize policy keeps the live span within one rotation;
        // this is the multi-rotation and saturated-day fallback).
        let mut best: Option<(E, usize)> = None;
        for b in 0..nbuckets {
            if self.occupied[b >> 6] & (1u64 << (b & 63)) == 0 {
                continue;
            }
            let l = self.lens[b] as usize;
            let mut m = self.slab[b * E::CAP];
            for &e in &self.slab[b * E::CAP + 1..b * E::CAP + l] {
                m = m.min(e);
            }
            if l == E::CAP {
                for &e in &self.over[b] {
                    m = m.min(e);
                }
            }
            if best.is_none_or(|(e, _)| m < e) {
                best = Some((m, b));
            }
        }
        let (e, b) = best.expect("non-empty queue has a minimum");
        let day = self.virtual_day(e.time());
        let took = self.activate(b, day);
        debug_assert!(took, "minimum entry must activate its own day");
        self.cursor = day;
    }

    /// Moves the entries of physical bucket `p` that belong to virtual
    /// `day` into `today` (sorted descending), returning whether any did.
    /// One min/max scan decides whole buckets: a future-rotation minimum
    /// rejects the bucket with no moves, a current-day maximum accepts it
    /// with one bulk copy (the common case — the resize policy keeps one
    /// rotation covering the live span, so buckets rarely straddle
    /// rotations). Only a straddling bucket pays a per-entry split.
    fn activate(&mut self, p: usize, day: u64) -> bool {
        let l = self.lens[p] as usize;
        debug_assert!(l > 0, "activate on a bucket the bitmap said is occupied");
        let base = p * E::CAP;
        let slots = &self.slab[base..base + l];
        let (mut min, mut max) = (slots[0], slots[0]);
        for &e in &slots[1..] {
            min = min.min(e);
            max = max.max(e);
        }
        let has_over = l == E::CAP && !self.over[p].is_empty();
        if has_over {
            for &e in &self.over[p] {
                min = min.min(e);
                max = max.max(e);
            }
        }
        if self.virtual_day(min.time()) != day {
            return false; // whole bucket is ≥ one rotation ahead
        }
        if self.virtual_day(max.time()) == day {
            // Whole bucket belongs to this day: bulk move, sort once.
            self.today.extend_from_slice(&self.slab[base..base + l]);
            if has_over {
                self.today.append(&mut self.over[p]);
            }
            self.lens[p] = 0;
            self.unmark(p);
        } else {
            // Rotation-straddling bucket: split out this day's entries.
            let mut tmp = std::mem::take(&mut self.tmp);
            tmp.clear();
            tmp.extend_from_slice(&self.slab[base..base + l]);
            tmp.append(&mut self.over[p]);
            self.lens[p] = 0;
            for e in tmp.drain(..) {
                if self.virtual_day(e.time()) == day {
                    self.today.push(e);
                } else {
                    self.bucket_insert(p, e);
                }
            }
            self.tmp = tmp;
            debug_assert!(!self.today.is_empty(), "the minimum is a member");
        }
        // Descending: pops take the minimum off the back.
        self.today.sort_unstable_by(|a, b| b.cmp(a));
        true
    }

    /// Resizes the ring to the live population and re-measures the bucket
    /// width, re-placing every entry. O(n + buckets), amortized against
    /// the pushes / pops that triggered it.
    ///
    /// Resize policy: the ring grows when the population exceeds 8× the
    /// bucket count and shrinks when it falls below 1× (hysteresis — no
    /// thrash at a boundary) or to `FLAT_MAX / 2` (back to flat mode),
    /// targeting population/4 rounded up to a power of two — about four
    /// events per bucket, still under the `CAP` slab slots, so overflow
    /// stays the exception and the per-day activation amortizes over a
    /// few pops. The width targets
    /// `span / (0.75 × buckets)` where `span` is the live min-to-max event
    /// spread, with one rotation covering the whole span so the in-window
    /// walk, not the direct-search fallback, is the steady-state path.
    fn rebuild(&mut self) {
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        scratch.append(&mut self.today);
        for b in 0..self.lens.len() {
            let base = b * E::CAP;
            scratch.extend_from_slice(&self.slab[base..base + self.lens[b] as usize]);
        }
        for o in &mut self.over {
            scratch.append(o);
        }
        self.place_all(&scratch);
        self.scratch = scratch;
    }

    /// Sizes the ring + width for `entries` and installs them (the shared
    /// tail of `rebuild` and the drain-transform-rebuild reconfiguration
    /// path). At most [`FLAT_MAX`] entries go flat and leave `width`
    /// alone: the span of a handful of in-flight events says nothing about
    /// the spacing of the events that follow them.
    fn place_all(&mut self, entries: &[E]) {
        self.len = entries.len();
        self.flat = self.len <= FLAT_MAX;
        let target = (self.len.max(1).div_ceil(4))
            .next_power_of_two()
            .max(MIN_BUCKETS);
        // `resize` keeps existing capacity on shrink, so the slab and the
        // side tables churn no allocations once they've seen a population
        // high-water mark. Stale slab contents beyond `lens` are dead.
        self.slab.resize(target * E::CAP, E::default());
        self.lens.clear();
        self.lens.resize(target, 0);
        if self.over.len() > target {
            self.over.truncate(target);
        } else {
            self.over.resize_with(target, Vec::new);
        }
        for o in &mut self.over {
            o.clear();
        }
        self.occupied.clear();
        self.occupied.resize(target.div_ceil(64), 0);
        self.today.clear();
        self.mask = (target - 1) as u64;
        if self.flat {
            self.today.extend_from_slice(entries);
            self.today.sort_unstable_by(|a, b| b.cmp(a));
            return;
        }
        // Span of the *finite* event times; non-finite outliers would blow
        // the width up to ∞ (every event on day 0, a permanently
        // degenerate calendar), so they ride the saturation path instead.
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for &e in entries {
            let t = e.time();
            if t.is_finite() {
                lo = lo.min(t);
                hi = hi.max(t);
            }
        }
        let span = hi - lo;
        if span > 0.0 && span.is_finite() {
            self.width = (span / (0.75 * target as f64)).max(f64::MIN_POSITIVE);
            self.inv_width = 1.0 / self.width;
        }
        // (span ≤ 0 or non-finite: zero/one live time — any width works,
        // keep the current one.)
        self.cursor = u64::MAX;
        for &e in entries {
            let day = self.virtual_day(e.time());
            self.bucket_insert((day & self.mask) as usize, e);
            self.cursor = self.cursor.min(day);
        }
        self.prime();
    }

    /// Removes all events, keeping the ring allocation.
    fn clear(&mut self) {
        self.today.clear();
        self.flat = true;
        self.lens.iter_mut().for_each(|l| *l = 0);
        for o in &mut self.over {
            o.clear();
        }
        self.occupied.iter_mut().for_each(|w| *w = 0);
        self.len = 0;
    }

    /// All stored entries, in unspecified order.
    fn entries(&self) -> impl Iterator<Item = E> + '_ {
        self.today
            .iter()
            .copied()
            .chain(self.lens.iter().enumerate().flat_map(move |(b, &l)| {
                let base = b * E::CAP;
                self.slab[base..base + l as usize]
                    .iter()
                    .chain(self.over[b].iter())
                    .copied()
            }))
    }
}

/// Rotating time-bucket priority queue of packed `(time, payload)` events
/// with O(1) amortized push/pop and an always-warm minimum (O(1) peek:
/// the back of the sorted current-day stack). Backs the pending-completion
/// index of [`ServiceNode`](crate::ServiceNode) (payload = server index);
/// the think-timer side uses the key-only `TimerCalendar` instantiation of
/// the same ring.
#[derive(Debug, Clone)]
pub struct CalendarQueue {
    ring: Ring<u128>,
}

impl Default for CalendarQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl CalendarQueue {
    /// Creates an empty queue (a minimal ring; the first resize adapts it).
    pub fn new() -> Self {
        CalendarQueue { ring: Ring::new() }
    }

    /// Number of stored events.
    pub fn len(&self) -> usize {
        self.ring.len
    }

    /// Whether the queue holds no events.
    pub fn is_empty(&self) -> bool {
        self.ring.len == 0
    }

    /// Current ring size (test/bench introspection).
    pub fn num_buckets(&self) -> usize {
        self.ring.lens.len()
    }

    /// Current bucket width in seconds (test/bench introspection).
    pub fn width(&self) -> f64 {
        self.ring.width
    }

    /// Inserts an event (O(1) amortized).
    #[inline]
    pub fn push(&mut self, t: f64, payload: usize) {
        self.ring.push(pack(t, payload), t);
    }

    /// Earliest event time, if any (O(1): the back of the sorted stack).
    #[inline]
    pub fn peek_min_time(&self) -> Option<f64> {
        self.ring.today.last().map(|&e| e.time())
    }

    /// Pops the earliest event if its time is ≤ `to` (under `f64` `>`
    /// semantics: a NaN minimum never compares later). O(1) amortized.
    #[inline]
    pub fn pop_if_le(&mut self, to: f64) -> Option<(f64, usize)> {
        let &e = self.ring.today.last()?;
        let t = e.time();
        if t > to {
            return None;
        }
        self.ring.pop_min();
        Some((t, e as u64 as usize))
    }

    /// Rebuilds the queue from `(time, payload)` entries in O(n), sizing
    /// the ring and width to them (reconfigurations drain the pending set,
    /// transform it — the DVFS re-key — and rebuild). `scratch` is left
    /// cleared for reuse.
    pub fn rebuild_from_unpacked(&mut self, scratch: &mut Vec<(f64, usize)>) {
        let mut packed = std::mem::take(&mut self.ring.scratch);
        packed.clear();
        packed.extend(scratch.iter().map(|&(t, p)| pack(t, p)));
        scratch.clear();
        self.ring.place_all(&packed);
        self.ring.scratch = packed;
    }

    /// Moves every `(time, payload)` entry into `out` (unspecified order)
    /// and empties the queue, in O(n), keeping the ring allocation.
    pub fn drain_unordered(&mut self, out: &mut Vec<(f64, usize)>) {
        out.clear();
        out.extend(self.ring.entries().map(unpack));
        self.ring.clear();
    }

    /// The stored payloads, in unspecified order.
    pub fn payloads(&self) -> impl Iterator<Item = usize> + '_ {
        self.ring.entries().map(|e| e as u64 as usize)
    }

    /// Removes all events, keeping the ring allocation.
    pub fn clear(&mut self) {
        self.ring.clear();
    }
}

/// The think-timer instantiation of the calendar ring: a multiset of
/// event *times* stored as bare `u64` keys — no payload word, so entries
/// are half the size of [`CalendarQueue`]'s, a slab bucket is exactly one
/// cache line, and the 4096-client think pool packs twice as densely.
/// Same pop order (key order = [`f64::total_cmp`] order), same resize
/// policy.
#[derive(Debug, Clone)]
pub(crate) struct TimerCalendar {
    ring: Ring<u64>,
}

impl Default for TimerCalendar {
    fn default() -> Self {
        Self::new()
    }
}

impl TimerCalendar {
    /// Creates an empty timer calendar.
    pub(crate) fn new() -> Self {
        TimerCalendar { ring: Ring::new() }
    }

    /// Number of stored timers.
    pub(crate) fn len(&self) -> usize {
        self.ring.len
    }

    /// Whether no timer is stored.
    pub(crate) fn is_empty(&self) -> bool {
        self.ring.len == 0
    }

    /// Inserts a timer expiring at `t` (O(1) amortized).
    #[inline]
    pub(crate) fn push(&mut self, t: f64) {
        self.ring.push(key_of(t), t);
    }

    /// Earliest expiry, if any (O(1)).
    #[inline]
    pub(crate) fn peek_min_time(&self) -> Option<f64> {
        self.ring.today.last().map(|&k| finish_of(k))
    }

    /// Pops the earliest expiry if it is ≤ `to` (O(1) amortized; same
    /// NaN-minimum semantics as [`CalendarQueue::pop_if_le`]).
    #[inline]
    pub(crate) fn pop_if_le(&mut self, to: f64) -> Option<f64> {
        let &k = self.ring.today.last()?;
        let t = finish_of(k);
        if t > to {
            return None;
        }
        self.ring.pop_min();
        Some(t)
    }

    /// Moves every stored time into `out` (unspecified order) and empties
    /// the calendar, in O(n), keeping the ring allocation.
    pub(crate) fn drain_times(&mut self, out: &mut Vec<f64>) {
        out.clear();
        out.extend(self.ring.entries().map(finish_of));
        self.ring.clear();
    }

    /// Rebuilds the calendar from `times` in O(n), sizing the ring and
    /// width to them. `times` is left cleared for reuse.
    pub(crate) fn rebuild_from_times(&mut self, times: &mut Vec<f64>) {
        let mut packed = std::mem::take(&mut self.ring.scratch);
        packed.clear();
        packed.extend(times.iter().map(|&t| key_of(t)));
        times.clear();
        self.ring.place_all(&packed);
        self.ring.scratch = packed;
    }

    /// Removes all timers, keeping the ring allocation.
    pub(crate) fn clear(&mut self) {
        self.ring.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_all(q: &mut CalendarQueue) -> Vec<(f64, usize)> {
        let mut out = Vec::new();
        while let Some(e) = q.pop_if_le(f64::INFINITY) {
            out.push(e);
        }
        out
    }

    /// Pushes `FLAT_MAX + 1` padding events (payloads 100..) spread over
    /// exactly 3 s from `base`, so a fresh queue leaves flat mode with a
    /// 4-bucket ring of width 1 s — the geometry the ring-path tests below
    /// reason in. Returns the padding in pop order. Events the test
    /// pushes afterwards go through the ring, not the flat stack.
    fn pad_ring(q: &mut CalendarQueue, base: f64) -> Vec<(f64, usize)> {
        let pad: Vec<(f64, usize)> = (0..=FLAT_MAX)
            .map(|i| (base + i as f64 * 3.0 / FLAT_MAX as f64, 100 + i))
            .collect();
        for &(t, p) in &pad {
            q.push(t, p);
        }
        assert!(!q.ring.flat, "FLAT_MAX + 1 entries must leave flat mode");
        assert_eq!(q.num_buckets(), 4);
        assert_eq!(q.width(), 1.0);
        pad
    }

    #[test]
    fn key_roundtrip_and_order() {
        let xs = [
            f64::NEG_INFINITY,
            -1.5,
            -0.0,
            0.0,
            1e-300,
            1.0,
            1e300,
            f64::INFINITY,
            f64::NAN,
        ];
        for &x in &xs {
            assert_eq!(finish_of(key_of(x)).to_bits(), x.to_bits(), "{x}");
        }
        for w in xs.windows(2) {
            assert!(key_of(w[0]) < key_of(w[1]), "{} !< {}", w[0], w[1]);
        }
    }

    #[test]
    fn pops_in_time_then_payload_order() {
        let mut q = CalendarQueue::new();
        q.push(2.0, 7);
        q.push(1.0, 3);
        q.push(2.0, 1);
        q.push(1.0, 9);
        q.push(0.5, 4);
        assert_eq!(
            drain_all(&mut q),
            vec![(0.5, 4), (1.0, 3), (1.0, 9), (2.0, 1), (2.0, 7)],
            "min time first, ties to the lowest payload"
        );
    }

    #[test]
    fn pop_if_le_respects_bound() {
        let mut q = CalendarQueue::new();
        q.push(1.0, 0);
        q.push(3.0, 1);
        assert_eq!(q.pop_if_le(0.5), None);
        assert_eq!(q.pop_if_le(1.0), Some((1.0, 0)));
        assert_eq!(q.pop_if_le(2.0), None);
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_min_time(), Some(3.0));
    }

    /// Day-boundary wraparound: on a padded ring (4 buckets, width 1 s)
    /// the times k, k+4, k+8 all alias into the same physical bucket —
    /// consecutive rotations of the ring — and must still pop in time
    /// order, crossing the u64 "day" as the cursor advances.
    #[test]
    fn wraparound_at_day_boundaries() {
        let mut q = CalendarQueue::new();
        assert_eq!(q.num_buckets(), 4);
        let pad = pad_ring(&mut q, 1000.0);
        // Same slot (day % 4 == 1) across three rotations, pushed shuffled.
        q.push(9.5, 2); // day 9
        q.push(1.5, 0); // day 1
        q.push(5.5, 1); // day 5
        assert_eq!(q.peek_min_time(), Some(1.5));
        let mut want = vec![(1.5, 0), (5.5, 1), (9.5, 2)];
        want.extend(pad);
        assert_eq!(
            drain_all(&mut q),
            want,
            "rotation aliasing must not reorder pops"
        );
    }

    /// Empty-rotation skip: every live event sits far beyond one rotation
    /// of the cursor, so the in-window walk finds nothing and the direct
    /// search must jump the cursor straight to the population.
    #[test]
    fn empty_rotation_skips_to_far_future() {
        let mut q = CalendarQueue::new();
        let pad = pad_ring(&mut q, 2e9);
        q.push(0.25, 0);
        q.push(1e9, 1); // ~2^28 rotations ahead of day 0
        q.push(1e9 + 0.5, 2);
        assert_eq!(q.pop_if_le(f64::INFINITY), Some((0.25, 0)));
        assert!(!q.ring.flat, "the skip under test is a ring path");
        // The cursor was on day 0; the survivors are a billion days out.
        assert_eq!(q.peek_min_time(), Some(1e9));
        let mut want = vec![(1e9, 1), (1e9 + 0.5, 2)];
        want.extend(pad);
        assert_eq!(drain_all(&mut q), want);
    }

    /// Over-population doubles the ring; draining it back down shrinks it.
    #[test]
    fn resize_up_and_down_thresholds() {
        let mut q = CalendarQueue::new();
        let start = q.num_buckets();
        for i in 0..64 {
            q.push(i as f64 * 0.1, i);
        }
        assert!(
            q.num_buckets() >= 16 && q.num_buckets() > start,
            "64 events must outgrow the {start}-bucket ring: {}",
            q.num_buckets()
        );
        assert!(
            q.width() < 1.0,
            "width must re-measure to the observed spacing: {}",
            q.width()
        );
        let grown = q.num_buckets();
        let mut popped = Vec::new();
        while q.len() > 2 {
            popped.push(q.pop_if_le(f64::INFINITY).expect("non-empty"));
        }
        assert!(
            q.num_buckets() < grown,
            "draining to 2 events must shrink the ring: {}",
            q.num_buckets()
        );
        for w in popped.windows(2) {
            assert!(w[0] < w[1], "resizes must preserve pop order");
        }
    }

    /// The DVFS re-key path: drain, rescale every time, rebuild — pops
    /// must follow the *new* keys.
    #[test]
    fn reenqueue_after_rescale_rebuild() {
        let mut q = CalendarQueue::new();
        for i in 0..20 {
            q.push(1.0 + i as f64, i);
        }
        let mut scratch = Vec::new();
        q.drain_unordered(&mut scratch);
        assert!(q.is_empty());
        // Faster clock: halve every remaining time, reversing nothing but
        // compressing the span (the width must follow suit).
        for e in &mut scratch {
            e.0 *= 0.5;
        }
        q.rebuild_from_unpacked(&mut scratch);
        assert!(scratch.is_empty());
        assert_eq!(q.len(), 20);
        let got = drain_all(&mut q);
        let want: Vec<(f64, usize)> = (0..20).map(|i| ((1.0 + i as f64) * 0.5, i)).collect();
        assert_eq!(got, want);
    }

    /// Degenerate storm: every event at the *same* time — span 0, all in
    /// one bucket regardless of ring size, far past the slab slots and
    /// deep into the overflow `Vec`. Pops must fall back to payload order
    /// (the packed low bits) without resizing into pathology.
    #[test]
    fn all_events_in_one_bucket_degenerates_gracefully() {
        let mut q = CalendarQueue::new();
        for i in (0..50).rev() {
            q.push(7.25, i);
        }
        let got = drain_all(&mut q);
        let want: Vec<(f64, usize)> = (0..50).map(|i| (7.25, i)).collect();
        assert_eq!(got, want, "tie storm pops in payload order");
    }

    /// Non-finite and negative times follow `total_cmp` order end to end,
    /// through the ring's saturating day mapping (padded) and through flat
    /// mode.
    #[test]
    fn total_cmp_extremes_pop_in_key_order() {
        let times = [
            f64::NAN,
            f64::INFINITY,
            1e300,
            0.0,
            -0.0,
            -3.5,
            f64::NEG_INFINITY,
        ];
        let mut q = CalendarQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(t, i);
        }
        assert!(q.ring.flat);
        let got: Vec<usize> = drain_all(&mut q).into_iter().map(|(_, p)| p).collect();
        assert_eq!(got, vec![6, 5, 4, 3, 2, 1, 0], "reverse of push order");

        let mut q = CalendarQueue::new();
        let pad = pad_ring(&mut q, 1000.0);
        for (i, &t) in times.iter().enumerate() {
            q.push(t, i);
        }
        let got: Vec<usize> = drain_all(&mut q).into_iter().map(|(_, p)| p).collect();
        let mut want = vec![6, 5, 4, 3];
        want.extend(pad.iter().map(|&(_, p)| p));
        want.extend([2, 1, 0]);
        assert_eq!(got, want, "padding sorts between 0.0 and 1e300");
    }

    /// Pushes landing on the *current* day (below and above the cached
    /// minimum) must keep the sorted stack exact — the path a plain
    /// bucket-append design would get wrong.
    #[test]
    fn pushes_into_current_day_stay_sorted() {
        let mut q = CalendarQueue::new();
        let pad = pad_ring(&mut q, 1000.0);
        q.push(0.50, 0); // into the past: the cursor moves to day 0
        q.push(0.90, 1); // same day (width 1.0): sorted insert above
        q.push(0.10, 2); // same day: new minimum
        q.push(0.70, 3);
        assert_eq!(q.peek_min_time(), Some(0.10));
        let mut want = vec![(0.10, 2), (0.50, 0), (0.70, 3), (0.90, 1)];
        want.extend(pad);
        assert_eq!(drain_all(&mut q), want);
    }

    /// The mis-sizing fix: re-keying a handful of in-flight events (a
    /// Juno node's ≤6 pending completions at every DVFS reconfiguration)
    /// goes flat and keeps the measured width, instead of re-measuring it
    /// from a span that says nothing about the events still to come.
    #[test]
    fn small_rebuild_keeps_width() {
        let mut q = CalendarQueue::new();
        for i in 0..64 {
            q.push(i as f64 * 0.1, i);
        }
        assert!(!q.ring.flat);
        let width = q.width();
        let mut scratch = Vec::new();
        for n in 2..=6 {
            q.drain_unordered(&mut scratch);
            scratch.clear();
            scratch.extend((0..n).map(|i| (7.0 + i as f64 * 1e-5, n - i)));
            q.rebuild_from_unpacked(&mut scratch);
            assert!(q.ring.flat, "{n} entries rebuild flat");
            assert_eq!(
                q.width().to_bits(),
                width.to_bits(),
                "{n} entries kept the width"
            );
            let got = drain_all(&mut q);
            let want: Vec<(f64, usize)> = (0..n).map(|i| (7.0 + i as f64 * 1e-5, n - i)).collect();
            assert_eq!(got, want);
        }
    }

    /// The ring takes over on the push past `FLAT_MAX`, and hands back
    /// only at `FLAT_MAX / 2` — a population hovering just above the
    /// threshold neither re-places nor re-measures.
    #[test]
    fn flat_mode_thresholds() {
        let mut q = CalendarQueue::new();
        for i in 0..FLAT_MAX {
            q.push(i as f64, i);
            assert!(q.ring.flat, "{} entries stay flat", i + 1);
        }
        q.push(FLAT_MAX as f64, FLAT_MAX);
        assert!(!q.ring.flat, "the push past FLAT_MAX leaves flat mode");
        let width = q.width();
        assert_eq!(q.pop_if_le(f64::INFINITY), Some((0.0, 0)));
        q.push(20.0, 20);
        q.push(21.0, 21);
        assert!(!q.ring.flat);
        assert_eq!(q.width().to_bits(), width.to_bits(), "no re-measure");
        while q.len() > FLAT_MAX / 2 + 1 {
            q.pop_if_le(f64::INFINITY).expect("non-empty");
            assert!(!q.ring.flat, "{} entries stay in the ring", q.len());
        }
        q.pop_if_le(f64::INFINITY).expect("non-empty");
        assert_eq!(q.len(), FLAT_MAX / 2);
        assert!(q.ring.flat, "draining to FLAT_MAX / 2 returns to flat mode");
        assert_eq!(
            drain_all(&mut q),
            vec![(7.0, 7), (8.0, 8), (20.0, 20), (21.0, 21)]
        );
    }

    /// Drain → rescale → rebuild pops the rescaled keys in order at every
    /// population on both sides of the flat threshold, including pushes
    /// landing after the rebuild.
    #[test]
    fn rescale_rebuild_across_flat_threshold() {
        let mut scratch = Vec::new();
        for n in 1..=2 * FLAT_MAX + 2 {
            let mut q = CalendarQueue::new();
            // Scrambled times (a multiplicative walk mod a prime).
            let times: Vec<f64> = (0..n).map(|i| ((i * 37 + 11) % 97) as f64 * 0.25).collect();
            for (i, &t) in times.iter().enumerate() {
                q.push(t, i);
            }
            q.drain_unordered(&mut scratch);
            for e in &mut scratch {
                e.0 *= 0.5;
            }
            q.rebuild_from_unpacked(&mut scratch);
            assert_eq!(q.ring.flat, n <= FLAT_MAX, "n = {n}");
            q.push(3.3, n);
            let mut want: Vec<(f64, usize)> = times
                .iter()
                .enumerate()
                .map(|(i, &t)| (t * 0.5, i))
                .collect();
            want.push((3.3, n));
            want.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            assert_eq!(drain_all(&mut q), want, "n = {n}");
        }
    }

    /// A bucket that overflows its slab slots (more than `CAP` distinct
    /// times on one day) must keep all entries visible to pops, drains
    /// and rebuilds.
    #[test]
    fn overflowed_bucket_keeps_every_entry() {
        let mut q = CalendarQueue::new();
        // 20 distinct times inside one width-1.0 day of the fresh ring,
        // pushed in reverse: the bucket runs through its 8 slab slots and
        // deep into overflow before the growth rebuild spreads it out.
        for i in (0..20).rev() {
            q.push(3.0 + i as f64 / 32.0, i);
        }
        assert_eq!(q.len(), 20);
        assert_eq!(q.peek_min_time(), Some(3.0));
        let got = drain_all(&mut q);
        let want: Vec<(f64, usize)> = (0..20).map(|i| (3.0 + i as f64 / 32.0, i)).collect();
        assert_eq!(got, want, "slab + overflow pop as one sorted day");
    }

    #[test]
    fn drain_and_payloads_cover_everything() {
        let mut q = CalendarQueue::new();
        for i in 0..17 {
            q.push(i as f64 * 3.7, i);
        }
        let mut seen: Vec<usize> = q.payloads().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..17).collect::<Vec<_>>());
        let mut out = Vec::new();
        q.drain_unordered(&mut out);
        assert_eq!(out.len(), 17);
        assert!(q.is_empty());
        assert_eq!(q.peek_min_time(), None);
    }

    /// An O(n) rebuild from unordered entries (with time ties) pops exactly
    /// the sequence the same entries pushed one by one do.
    #[test]
    fn rebuild_matches_pushes() {
        let times = [5.0, 1.0, 4.0, 4.0, 2.0, 9.0, 0.25, 4.0];
        let mut pushed = CalendarQueue::new();
        for (p, &t) in times.iter().enumerate() {
            pushed.push(t, p);
        }
        let mut scratch: Vec<(f64, usize)> = times.iter().copied().zip(0..times.len()).collect();
        let mut rebuilt = CalendarQueue::new();
        rebuilt.rebuild_from_unpacked(&mut scratch);
        assert!(scratch.is_empty());
        assert_eq!(rebuilt.len(), pushed.len());
        let mut payloads: Vec<usize> = rebuilt.payloads().collect();
        payloads.sort_unstable();
        assert_eq!(payloads, (0..times.len()).collect::<Vec<_>>());
        assert_eq!(drain_all(&mut rebuilt), drain_all(&mut pushed));
    }

    /// The `u64` timer instantiation: same order, multiset semantics, and
    /// the drain → transform → rebuild cycle, on bare time keys.
    #[test]
    fn timer_calendar_orders_and_rebuilds() {
        let mut q = TimerCalendar::new();
        for t in [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.6] {
            q.push(t);
        }
        assert_eq!(q.len(), 7);
        assert_eq!(q.peek_min_time(), Some(1.0));
        assert_eq!(q.pop_if_le(0.5), None);
        assert_eq!(q.pop_if_le(1.0), Some(1.0));
        let mut times = Vec::new();
        q.drain_times(&mut times);
        assert!(q.is_empty());
        assert_eq!(times.len(), 6);
        for t in &mut times {
            *t *= 0.5;
        }
        q.rebuild_from_times(&mut times);
        assert!(times.is_empty());
        let mut got = Vec::new();
        while let Some(t) = q.pop_if_le(f64::INFINITY) {
            got.push(t);
        }
        assert_eq!(got, vec![0.5, 1.3, 1.5, 2.0, 2.5, 4.5]);
    }
}
