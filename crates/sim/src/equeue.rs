//! A two-level calendar event queue for the simulation hot path.
//!
//! The wormhole engine schedules almost every event within a handful of
//! flit times of `now` (flit transfers, routing delays, circuit-setup
//! chains), so a ring of flit-time-wide buckets absorbs the bulk of the
//! traffic with O(1) pushes and pops; the rare far-future event (idle
//! inter-arrival gaps under light load) spills into a binary-heap
//! overflow and migrates into the ring as the horizon advances.
//!
//! Pops are globally ordered by `(time, insertion sequence)` — exactly
//! the total order the previous `BinaryHeap<Reverse<(Time, u64, Event)>>`
//! produced — so swapping the queue changes no simulation result.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::engine::Time;

/// Number of ring buckets. Power of two so the slot index is a mask.
const RING_BUCKETS: u64 = 512;

/// Far-future overflow entry, min-ordered by `(time, seq)` (the payload
/// never participates in the ordering — `seq` is unique).
#[derive(Debug)]
struct Far<T>(Time, u64, T);

impl<T> PartialEq for Far<T> {
    fn eq(&self, other: &Self) -> bool {
        (self.0, self.1) == (other.0, other.1)
    }
}

impl<T> Eq for Far<T> {}

impl<T> PartialOrd for Far<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Far<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed so `BinaryHeap` (a max-heap) yields the earliest first.
        (other.0, other.1).cmp(&(self.0, self.1))
    }
}

/// Calendar queue: a ring of `width`-ns buckets over the near future,
/// the current bucket kept as a sorted run consumed by cursor, and a
/// heap overflow for events beyond the ring horizon.
#[derive(Debug)]
pub(crate) struct EventQueue<T> {
    /// Bucket width in nanoseconds (the flit time).
    width: Time,
    /// Current bucket number (monotonically increasing).
    bucket: u64,
    /// Exclusive upper time bound of the `ready` run: events below it
    /// sort into `ready`, events at or above it into the ring/overflow.
    boundary: Time,
    /// Ring of future buckets; slot `b % RING_BUCKETS` holds bucket `b`
    /// for `bucket < b <= bucket + RING_BUCKETS`.
    /// INVARIANT: an empty slot holds no allocation — `advance` takes a
    /// slot's buffer whole, and a slot borrows one from `spare` on its
    /// first push — so retained capacity follows the buckets live at
    /// once, not `RING_BUCKETS` times the largest bucket ever seen.
    ring: Vec<Vec<(Time, u64, T)>>,
    /// Drained buffers waiting for the next empty slot to need one.
    /// Buffers only move between `ready`, the slots and here, so the
    /// pool never holds more than the peak count of non-empty slots.
    spare: Vec<Vec<(Time, u64, T)>>,
    /// Total events across the ring slots.
    in_ring: usize,
    /// The current bucket, sorted ascending by `(time, seq)`; the next
    /// event sits at `head` (consuming by cursor instead of popping from
    /// the front avoids any memmove, and inserting a later event — the
    /// common case — is an O(1) append).
    /// INVARIANT: `head < ready.len()` whenever the queue is nonempty —
    /// `push` and `pop` eagerly refill the run, which keeps `peek_time`
    /// O(1) for the supervisor's per-event polling loop.
    ready: Vec<(Time, u64, T)>,
    /// Cursor of the next unconsumed `ready` event.
    head: usize,
    /// Events beyond the ring horizon.
    overflow: BinaryHeap<Far<T>>,
    /// Insertion sequence: the deterministic FIFO tie-break within a
    /// timestamp.
    seq: u64,
    len: usize,
}

impl<T: Copy> EventQueue<T> {
    pub fn new(width: Time) -> Self {
        let width = width.max(1);
        EventQueue {
            width,
            bucket: 0,
            boundary: width,
            ring: (0..RING_BUCKETS).map(|_| Vec::new()).collect(),
            spare: Vec::new(),
            in_ring: 0,
            ready: Vec::new(),
            head: 0,
            overflow: BinaryHeap::new(),
            seq: 0,
            len: 0,
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Earliest pending event time — O(1) by the `ready` invariant.
    pub fn peek_time(&self) -> Option<Time> {
        self.ready.get(self.head).map(|&(t, _, _)| t)
    }

    pub fn push(&mut self, t: Time, payload: T) {
        self.seq += 1;
        let s = self.seq;
        self.len += 1;
        if t < self.boundary {
            // Belongs in the current run (routing delays and circuit
            // setups shorter than a flit time land here): sorted insert
            // into the unconsumed tail, usually right at the end.
            let idx = self.head
                + self.ready[self.head..].partition_point(|&(rt, rs, _)| (rt, rs) < (t, s));
            self.ready.insert(idx, (t, s, payload));
            return;
        }
        // The overwhelmingly common case is `t = now + flit_time`, which
        // lands exactly one bucket ahead — recognise it without the
        // hardware division (this function runs once per flit hop).
        let b = if t - self.boundary < self.width {
            self.bucket + 1
        } else {
            t / self.width
        };
        if b - self.bucket <= RING_BUCKETS {
            self.push_ring(b, (t, s, payload));
        } else {
            self.overflow.push(Far(t, s, payload));
        }
        if self.ready.is_empty() {
            self.advance();
        }
    }

    pub fn pop(&mut self) -> Option<(Time, u64, T)> {
        let ev = *self.ready.get(self.head)?;
        self.head += 1;
        self.len -= 1;
        if self.head == self.ready.len() {
            // Run consumed: recycle the buffer and refill eagerly so the
            // `peek_time` invariant holds.
            self.ready.clear();
            self.head = 0;
            if self.len > 0 {
                self.advance();
            }
        }
        Some(ev)
    }

    /// Appends to bucket `b`'s ring slot, borrowing a spare buffer if
    /// the slot is empty (and so, by the ring invariant, unallocated).
    fn push_ring(&mut self, b: u64, ev: (Time, u64, T)) {
        let slot = &mut self.ring[(b % RING_BUCKETS) as usize];
        if slot.capacity() == 0 {
            if let Some(buf) = self.spare.pop() {
                *slot = buf;
            }
        }
        slot.push(ev);
        self.in_ring += 1;
    }

    /// Refills `ready` from the ring (migrating overflow as the horizon
    /// moves). Caller guarantees the queue is nonempty and `ready` empty.
    fn advance(&mut self) {
        debug_assert!(self.ready.is_empty() && self.head == 0 && self.len > 0);
        if self.in_ring == 0 {
            // Everything pending lies beyond the horizon: jump the cursor
            // so the earliest overflow bucket lands just inside it.
            let t = self.overflow.peek().expect("queue nonempty").0;
            self.bucket = t / self.width - 1;
        }
        loop {
            self.bucket += 1;
            // Migrate up to one bucket SHORT of the horizon: bucket
            // `bucket + RING_BUCKETS` shares a slot with the bucket under
            // examination, and mixing two buckets in one slot would let a
            // far-future tail into `ready` ahead of nearer ring events.
            while let Some(f) = self.overflow.peek() {
                let b = f.0 / self.width;
                if b >= self.bucket + RING_BUCKETS {
                    break;
                }
                let Far(t, s, payload) = self.overflow.pop().expect("just peeked");
                self.push_ring(b, (t, s, payload));
            }
            let slot = (self.bucket % RING_BUCKETS) as usize;
            if !self.ring[slot].is_empty() {
                // Take the slot's buffer whole and park the spent `ready`
                // buffer for the next slot that fills: a swap would leave
                // every slot holding a peak-sized buffer forever.
                let run = std::mem::take(&mut self.ring[slot]);
                let spent = std::mem::replace(&mut self.ready, run);
                if spent.capacity() > 0 {
                    self.spare.push(spent);
                }
                self.in_ring -= self.ready.len();
                // Simulation time is monotone, so a bucket's events
                // usually arrived already ordered; verify with one cheap
                // pass and sort only the exceptions (overflow migrations
                // interleaved with direct pushes, header routing delays).
                let sorted = self
                    .ready
                    .windows(2)
                    .all(|p| (p[0].0, p[0].1) <= (p[1].0, p[1].1));
                if !sorted {
                    self.ready.sort_unstable_by_key(|&(t, s, _)| (t, s));
                }
                self.boundary = (self.bucket + 1).saturating_mul(self.width);
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;

    /// Deterministic xorshift so the test needs no RNG dependency.
    struct XorShift(u64);

    impl XorShift {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }
    }

    /// The queue must reproduce the exact pop order of the reference
    /// `BinaryHeap<Reverse<(Time, u64, T)>>` under interleaved pushes and
    /// pops with near, far, equal-time, and sub-boundary timestamps.
    #[test]
    fn matches_reference_heap_order() {
        let mut q: EventQueue<u32> = EventQueue::new(400);
        let mut reference: BinaryHeap<Reverse<(Time, u64, u32)>> = BinaryHeap::new();
        let mut rng = XorShift(0x9E3779B97F4A7C15);
        let mut seq = 0u64;
        let mut now: Time = 0;
        let mut payload = 0u32;
        for round in 0..2000 {
            let burst = 1 + (rng.next() % 4);
            for _ in 0..burst {
                // Mix of sub-flit, near, and far-future offsets.
                let dt = match rng.next() % 10 {
                    0..=3 => rng.next() % 400,
                    4..=7 => rng.next() % (400 * 16),
                    8 => rng.next() % (400 * 600),
                    _ => rng.next() % (400 * 5000),
                };
                // Occasionally collide timestamps to exercise seq order.
                let t = now
                    + if rng.next().is_multiple_of(5) {
                        400
                    } else {
                        dt
                    };
                seq += 1;
                payload += 1;
                q.push(t, payload);
                reference.push(Reverse((t, seq, payload)));
            }
            let pops = if round % 7 == 0 { burst + 1 } else { burst };
            for _ in 0..pops {
                let got = q.pop();
                let want = reference.pop().map(|Reverse(e)| e);
                assert_eq!(got, want, "divergence at round {round}");
                if let Some((t, _, _)) = got {
                    assert!(t >= now, "time went backwards");
                    now = t;
                }
            }
            assert_eq!(q.peek_time(), reference.peek().map(|r| r.0 .0));
        }
        while let Some(want) = reference.pop() {
            assert_eq!(q.pop(), Some(want.0));
        }
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn empty_queue_behaviour() {
        let mut q: EventQueue<()> = EventQueue::new(1);
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        assert_eq!(q.pop(), None);
        q.push(5, ());
        assert_eq!(q.peek_time(), Some(5));
        assert_eq!(q.pop(), Some((5, 1, ())));
        assert!(q.is_empty());
    }

    /// Property: the (time, seq) total order survives slot-index
    /// wraparound deep into the ring — times at and beyond 512 whole
    /// ring spans (512 buckets × width each), where every slot index
    /// has wrapped hundreds of times and `b % RING_BUCKETS` aliases
    /// many distinct buckets per slot.
    #[test]
    fn wraparound_beyond_512_ring_spans() {
        const WIDTH: Time = 400;
        const SPAN: Time = WIDTH * RING_BUCKETS; // one full ring revolution
        let mut q: EventQueue<u32> = EventQueue::new(WIDTH);
        let mut reference: BinaryHeap<Reverse<(Time, u64, u32)>> = BinaryHeap::new();
        let mut rng = XorShift(0xD1B54A32D192ED03);
        let mut seq = 0u64;
        let mut now: Time = 0;
        // March time past 600 ring spans (> 512×) in irregular strides,
        // mixing in-span offsets with multi-span jumps that alias slots.
        for round in 0..600 {
            for _ in 0..3 {
                let dt = match rng.next() % 3 {
                    0 => rng.next() % WIDTH,          // same bucket
                    1 => rng.next() % SPAN,           // within one span
                    _ => SPAN * (1 + rng.next() % 4), // whole-span jumps
                };
                seq += 1;
                q.push(now + dt, seq as u32);
                reference.push(Reverse((now + dt, seq, seq as u32)));
            }
            for _ in 0..3 {
                let got = q.pop();
                let want = reference.pop().map(|Reverse(e)| e);
                assert_eq!(got, want, "divergence at round {round} (now = {now})");
                now = got.expect("pushed more than popped").0;
            }
            now += SPAN; // force a span crossing every round
        }
        assert!(now >= 512 * SPAN, "test must actually cross 512 spans");
        while let Some(Reverse(want)) = reference.pop() {
            assert_eq!(q.pop(), Some(want));
        }
        assert!(q.is_empty());
    }

    /// Property: a timestamp tie between an event that entered through
    /// the heap overflow (pushed while its time lay beyond the ring
    /// horizon) and events that entered through the ring or the ready
    /// run (pushed after the horizon advanced) still resolves by
    /// insertion seq — the overflow path must not reorder ties.
    #[test]
    fn time_seq_ties_across_ring_heap_boundary() {
        const WIDTH: Time = 100;
        let t = WIDTH * 2000; // far beyond the 512-bucket horizon at push
        let mut q: EventQueue<u8> = EventQueue::new(WIDTH);
        q.push(t, 1); // → overflow (seq 1)
        q.push(t, 2); // → overflow (seq 2)
        q.push(50, 0); // near event keeps the horizon where it is
        assert_eq!(q.pop(), Some((50, 3, 0)));
        // The pop advanced the horizon past `t`, migrating the overflow
        // ties into the ready run; the same timestamp now lands there.
        q.push(t, 3); // → ready run (seq 4)
        q.push(t + WIDTH, 9); // later bucket, must stay behind the ties
        q.push(t, 4); // → ready run (seq 6)
        assert_eq!(q.pop(), Some((t, 1, 1)), "overflow tie pops first");
        assert_eq!(q.pop(), Some((t, 2, 2)));
        assert_eq!(q.pop(), Some((t, 4, 3)), "then the ring-side ties");
        assert_eq!(q.pop(), Some((t, 6, 4)));
        assert_eq!(q.pop(), Some((t + WIDTH, 5, 9)));
        assert_eq!(q.pop(), None);
    }

    /// Property: draining the queue to empty (which recycles the
    /// `ready` buffer through its internal clear) leaves it fully
    /// reusable — repeated fill/drain cycles at ever-later times keep
    /// the reference pop order, and `seq` keeps ticking monotonically
    /// across cycles instead of resetting.
    #[test]
    fn pop_after_clear_reuse() {
        const WIDTH: Time = 400;
        let mut q: EventQueue<u32> = EventQueue::new(WIDTH);
        let mut reference: BinaryHeap<Reverse<(Time, u64, u32)>> = BinaryHeap::new();
        let mut rng = XorShift(0x2545F4914F6CDD1D);
        let mut seq = 0u64;
        let mut base: Time = 0;
        for cycle in 0..50 {
            for _ in 0..20 {
                let t = base + rng.next() % (WIDTH * 700); // ring + overflow
                seq += 1;
                q.push(t, seq as u32);
                reference.push(Reverse((t, seq, seq as u32)));
            }
            let mut last: Time = 0;
            while let Some(got) = q.pop() {
                assert_eq!(Some(got), reference.pop().map(|Reverse(e)| e));
                last = got.0;
            }
            assert!(q.is_empty(), "cycle {cycle} drained");
            assert_eq!(q.pop(), None);
            assert_eq!(q.peek_time(), None);
            assert!(reference.is_empty());
            // Next cycle resumes later in time, as the engine would.
            base = last + 1 + rng.next() % (WIDTH * RING_BUCKETS * 2);
        }
    }

    /// Property: the ring's retained capacity tracks the events live at
    /// once. Same-bucket bursts of 10,000 events, each drained down to a
    /// tail that the next burst's interleaved pops finish off, march
    /// through more than three full ring revolutions; the capacity held
    /// across the slots, `ready` and the spare pool must stay within 4×
    /// the queue's high-water length (a buffer swap that leaves every
    /// slot holding a burst-sized buffer retains hundreds of times that).
    #[test]
    fn ring_capacity_stays_bounded_by_live_events() {
        const WIDTH: Time = 400;
        const BURST: u64 = 10_000;
        const TAIL: usize = 1_000;
        let mut q: EventQueue<u32> = EventQueue::new(WIDTH);
        let mut reference: BinaryHeap<Reverse<(Time, u64, u32)>> = BinaryHeap::new();
        let check_pop = |q: &mut EventQueue<u32>, reference: &mut BinaryHeap<_>| {
            let got = q.pop();
            assert_eq!(got, reference.pop().map(|Reverse(e)| e));
            got.expect("queue nonempty").0
        };
        let mut seq = 0u64;
        let mut high_water = 0usize;
        let mut now: Time = 0;
        // Each burst lands 4 buckets past the last pop: 400 rounds move
        // the cursor over 1,600 buckets, more than 3 × 512.
        for round in 0..400 {
            let bucket_start = (now / WIDTH + 4) * WIDTH;
            for i in 0..BURST {
                seq += 1;
                q.push(bucket_start + i % WIDTH, seq as u32);
                reference.push(Reverse((bucket_start + i % WIDTH, seq, seq as u32)));
                high_water = high_water.max(q.len);
                if i % 4 == 0 && q.len > BURST as usize - TAIL {
                    now = check_pop(&mut q, &mut reference);
                }
            }
            while q.len > TAIL {
                now = check_pop(&mut q, &mut reference);
            }
            let held = q.ring.iter().map(Vec::capacity).sum::<usize>()
                + q.ready.capacity()
                + q.spare.iter().map(Vec::capacity).sum::<usize>();
            assert!(
                held <= 4 * high_water,
                "round {round}: ring holds capacity {held} for high-water {high_water}"
            );
        }
        assert!(now / WIDTH > 3 * RING_BUCKETS, "must lap the ring 3 times");
        while !q.is_empty() {
            check_pop(&mut q, &mut reference);
        }
    }

    #[test]
    fn far_future_jump_lands_on_overflow_bucket() {
        let mut q: EventQueue<u8> = EventQueue::new(100);
        // Way beyond the 512-bucket horizon.
        q.push(100 * 100_000, 1);
        q.push(100 * 100_000 + 7, 2);
        q.push(50, 0);
        assert_eq!(q.pop(), Some((50, 3, 0)));
        assert_eq!(q.peek_time(), Some(100 * 100_000));
        assert_eq!(q.pop(), Some((100 * 100_000, 1, 1)));
        assert_eq!(q.pop(), Some((100 * 100_000 + 7, 2, 2)));
        assert_eq!(q.pop(), None);
    }
}
