//! Deterministic event queue.
//!
//! Every entry carries one `u128` key: the time's `total_cmp`-ordered bits
//! above a monotone sequence number, so two events scheduled for the same
//! instant pop in scheduling order, which makes whole simulations
//! deterministic, and every ordering decision is a single integer
//! comparison.
//!
//! The entries live in two tiers. Figure 1's pings and pongs arrive within
//! δ, so almost every event is scheduled a few milliseconds ahead of the
//! last one popped. Those go to a ring of 2^-16 s buckets covering the
//! next ~62 ms: a push is an O(1) list insert, and a two-level occupancy
//! bitmap finds the next non-empty bucket. A bucket holding one entry pops
//! it straight from the ring; a bucket holding several moves into `run`,
//! sorted once. Everything else (later timers, negative or non-finite
//! times, and times in the current bucket or one the ring has already
//! passed) goes to a [`std::collections::BinaryHeap`] behind the ring, so
//! a burst of pushes costs O(log n) each wherever it lands. A pop compares the
//! two tiers' minima, so it returns the globally smallest key: pop order is
//! exactly that of a heap-only queue.
//!
//! The queue cannot cancel. A layer that supersedes an event keeps its own
//! record of the live ones and drops a stale event when it pops, as the
//! runtime's `World` does with its nodes' pending alarms.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use crate::time::RealTime;

/// Ring buckets per simulated second: a bucket is 2^-16 s (~15 µs) wide,
/// so most buckets hold at most one event.
const BUCKETS_PER_SEC: f64 = 65_536.0;
/// Ring slots. The ring holds the `RING - 1` buckets after the current one,
/// about 62 ms.
const RING: i64 = 4096;
/// Words of the slot occupancy bitmap. The summary word has one bit per
/// word, so there may be at most 64.
const WORDS: usize = RING as usize / 64;
const _: () = assert!(WORDS <= 64);
/// Times at or beyond this (2^37 s) always go to the heap, so every bucket
/// index is below 2^53: exact as an `f64` and far from overflow.
const RING_HORIZON_SECS: f64 = 137_438_953_472.0;
/// End-of-list marker in the ring's node arena.
const NIL: usize = usize::MAX;

/// Handle to a scheduled event. Ids are handed out in scheduling order, so
/// a layer that supersedes events can key its record of the live ones by
/// id and recognise a stale event when it pops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(u64);

#[derive(Debug)]
struct Entry<T> {
    /// `(order_bits(time) << 64) | id`: unsigned order is `(time, id)` order.
    key: u128,
    payload: T,
}

/// Maps `t`'s bits so that unsigned order is [`RealTime`]'s `total_cmp`
/// order: negative values get every bit flipped, the others only the sign
/// bit. The map is a bijection, undone by [`time_of`].
fn order_bits(t: RealTime) -> u64 {
    let bits = t.as_secs().to_bits();
    bits ^ ((((bits as i64) >> 63) as u64) | (1 << 63))
}

/// Inverse of [`order_bits`], bit for bit.
fn time_of(ordered: u64) -> RealTime {
    let bits = ordered ^ ((!((ordered as i64) >> 63) as u64) | (1 << 63));
    RealTime::from_secs(f64::from_bits(bits))
}

/// Ring bucket of `time`, `⌊time · 65536⌋`, for `0 ≤ time < 2^37 s`, and
/// `None` for every other time (negative, huge, infinite or NaN), which
/// only the heap holds. The product is exact (a power-of-two scale) and
/// the cast truncates, so over these times the bucket never decreases as
/// the key grows.
fn bucket(time: RealTime) -> Option<i64> {
    let secs = time.as_secs();
    (0.0..RING_HORIZON_SECS)
        .contains(&secs)
        .then_some((secs * BUCKETS_PER_SEC) as i64)
}

/// The smallest key in bucket `b`: its start time with id 0. A key below it
/// is earlier than every entry of bucket `b` and of all later buckets.
fn bucket_start_key(b: i64) -> u128 {
    u128::from(order_bits(RealTime::from_secs(b as f64 / BUCKETS_PER_SEC))) << 64
}

impl<T> Entry<T> {
    fn new(time: RealTime, id: EventId, payload: T) -> Self {
        Entry {
            key: (u128::from(order_bits(time)) << 64) | u128::from(id.0),
            payload,
        }
    }

    fn time(&self) -> RealTime {
        time_of((self.key >> 64) as u64)
    }
}

// Min-heap semantics: BinaryHeap is a max-heap, so invert the comparison.
impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: earliest time (then lowest id) is the "greatest" entry.
        other.key.cmp(&self.key)
    }
}

/// One entry of a ring slot's singly linked list, or of the free list.
/// The fields are an [`Entry`]'s, flattened so that `next` fits in the
/// padding an `Entry` field would carry.
#[derive(Debug, Clone, Copy)]
struct Node<T> {
    key: u128,
    payload: T,
    next: usize,
}

/// Where the earliest entry is.
#[derive(Debug, Clone, Copy)]
enum Tier {
    Run,
    Heap,
    /// The ring's next bucket, `b`, which holds just that entry.
    Lone(i64),
}

/// Priority queue of timestamped events.
///
/// Payloads are `Copy`: the ring's node arena reuses freed slots without
/// dropping them.
///
/// ```
/// use byzclock_sim::{EventQueue, RealTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(RealTime::from_secs(2.0), "late");
/// q.schedule(RealTime::from_secs(1.0), "early");
/// assert_eq!(q.pop(), Some((RealTime::from_secs(1.0), "early")));
/// assert_eq!(q.pop(), Some((RealTime::from_secs(2.0), "late")));
/// assert!(q.is_empty());
/// ```
#[derive(Debug)]
pub struct EventQueue<T> {
    /// The entries bucket `cur` held in the ring, sorted by descending
    /// key, so the earliest is the tail. Later pushes to bucket `cur` go
    /// to the heap.
    run: Vec<Entry<T>>,
    /// The current bucket. The ring holds buckets
    /// `cur + 1 ..= cur + RING - 1`; `cur` only grows.
    cur: i64,
    /// Head node of each ring slot's list (`NIL` if empty). Bucket `b`
    /// lives in slot `b mod RING`. Allocated, with `occupied`, by the first
    /// ring push, so that an unused queue stays small to move.
    heads: Vec<usize>,
    /// `WORDS` words; bit `s % 64` of word `s / 64` is set iff slot `s`'s
    /// list is non-empty.
    occupied: Vec<u64>,
    /// Bit `w` is set iff word `w` of `occupied` is non-zero.
    summary: u64,
    /// Arena of every ring list's nodes; freed nodes chain from `free`.
    nodes: Vec<Node<T>>,
    free: usize,
    /// Entries outside the ring and `run`, in any bucket.
    heap: BinaryHeap<Entry<T>>,
    next_id: u64,
    /// Number of queued entries, in all three places.
    len: usize,
}

impl<T: Copy> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy> EventQueue<T> {
    /// Creates an empty queue. It allocates nothing until the first
    /// schedule.
    pub fn new() -> Self {
        EventQueue {
            run: Vec::new(),
            cur: 0,
            heads: Vec::new(),
            occupied: Vec::new(),
            summary: 0,
            nodes: Vec::new(),
            free: NIL,
            heap: BinaryHeap::new(),
            next_id: 0,
            len: 0,
        }
    }

    /// Schedules `payload` at absolute time `time`, returning its id.
    /// Events at equal times pop in the order they were scheduled.
    pub fn schedule(&mut self, time: RealTime, payload: T) -> EventId {
        self.schedule_with(time, |_| payload)
    }

    /// Like [`EventQueue::schedule`], but the payload may embed its own
    /// [`EventId`]: the id is assigned first and passed to `payload`. This
    /// lets an event carry an unambiguous handle to itself, which higher
    /// layers use to match fired events against bookkeeping entries.
    pub fn schedule_with(&mut self, time: RealTime, payload: impl FnOnce(EventId) -> T) -> EventId {
        let id = EventId(self.next_id);
        self.next_id += 1;
        let entry = Entry::new(time, id, payload(id));
        match bucket(time) {
            Some(b) if b > self.cur && b - self.cur < RING => self.ring_push(b, entry),
            _ => self.heap.push(entry),
        }
        self.len += 1;
        id
    }

    /// Links `entry` into bucket `b`'s ring slot, reusing a freed node if
    /// there is one.
    fn ring_push(&mut self, b: i64, entry: Entry<T>) {
        if self.heads.is_empty() {
            self.heads.resize(RING as usize, NIL);
            self.occupied.resize(WORDS, 0);
        }
        let slot = (b % RING) as usize;
        let node = Node {
            key: entry.key,
            payload: entry.payload,
            next: self.heads[slot],
        };
        let at = if self.free != NIL {
            let at = self.free;
            self.free = self.nodes[at].next;
            self.nodes[at] = node;
            at
        } else {
            self.nodes.push(node);
            self.nodes.len() - 1
        };
        self.heads[slot] = at;
        self.occupied[slot / 64] |= 1 << (slot % 64);
        self.summary |= 1 << (slot / 64);
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff no events are queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Pops the earliest event.
    pub fn pop(&mut self) -> Option<(RealTime, T)> {
        let (tier, _) = self.min_tier()?;
        self.take(tier)
    }

    /// Pops the earliest event only if it is scheduled at or before
    /// `deadline`: one lookup where a peek followed by a pop would make two.
    pub fn pop_at_or_before(&mut self, deadline: RealTime) -> Option<(RealTime, T)> {
        let (tier, key) = self.min_tier()?;
        if (key >> 64) as u64 > order_bits(deadline) {
            return None;
        }
        self.take(tier)
    }

    /// Returns where the earliest entry is, with its key. With `run`
    /// empty, the next occupied ring bucket competes with the heap's
    /// front: a lone entry directly, several by moving into `run`.
    ///
    /// Exact because keys are unique and, over ring times, the bucket never
    /// decreases as the key grows: the ring holds only buckets after
    /// `cur`, so `run`'s tail is earlier than every ring entry, and the
    /// smaller of it and the heap's front is the earliest of all. With
    /// `run` empty, a lone entry is the ring's earliest, so it pops if it
    /// beats the heap's front, and a heap front below the next bucket's
    /// start is earlier than every ring entry. Otherwise the heap's front
    /// is inside that bucket, and popping it would make the bucket current
    /// while the ring still holds it; the bucket moves into `run` first.
    fn min_tier(&mut self) -> Option<(Tier, u128)> {
        let heap_key = self.heap.peek().map(|e| e.key);
        if self.run.is_empty() {
            let Some(b) = self.next_bucket() else {
                return heap_key.map(|h| (Tier::Heap, h));
            };
            let head = &self.nodes[self.heads[(b % RING) as usize]];
            if head.next == NIL && heap_key.is_none_or(|h| head.key < h) {
                return Some((Tier::Lone(b), head.key));
            }
            if let Some(h) = heap_key.filter(|&h| h < bucket_start_key(b)) {
                return Some((Tier::Heap, h));
            }
            self.refill(b);
        }
        let run_key = self.run.last()?.key;
        Some(match heap_key {
            Some(h) if h < run_key => (Tier::Heap, h),
            _ => (Tier::Run, run_key),
        })
    }

    /// Removes the earliest entry from `tier`, which [`Self::min_tier`]
    /// just chose, and returns it.
    fn take(&mut self, tier: Tier) -> Option<(RealTime, T)> {
        let entry = match tier {
            Tier::Run => self.run.pop()?,
            Tier::Heap => {
                let entry = self.heap.pop()?;
                // Later pushes near this time then land in the ring. The
                // heap's front is never later than `run` or the ring, so
                // this keeps both in place.
                if let Some(b) = bucket(entry.time()) {
                    self.cur = self.cur.max(b);
                }
                entry
            }
            Tier::Lone(b) => {
                self.cur = b;
                let at = self.unlink(b);
                let Node { key, payload, .. } = self.nodes[at];
                self.nodes[at].next = self.free;
                self.free = at;
                Entry { key, payload }
            }
        };
        self.len -= 1;
        Some((entry.time(), entry.payload))
    }

    /// Bucket of the first occupied ring slot after `cur`: the summary
    /// word names the occupied words, so a sparse ring costs two
    /// `trailing_zeros`, not a scan.
    fn next_bucket(&self) -> Option<i64> {
        if self.summary == 0 {
            return None;
        }
        let start = ((self.cur + 1) % RING) as usize;
        let w = start / 64;
        let rest = self.occupied[w] & (!0u64 << (start % 64));
        let slot = if rest != 0 {
            w * 64 + rest.trailing_zeros() as usize
        } else {
            // The first occupied word after `w`, else the first of all,
            // wrapping round to `w`'s low bits at the latest; slot
            // `cur mod RING` itself is always empty.
            let later = self.summary & (!1u64 << w);
            let word = if later != 0 { later } else { self.summary }.trailing_zeros() as usize;
            word * 64 + self.occupied[word].trailing_zeros() as usize
        };
        Some(self.cur + (slot as i64 - self.cur).rem_euclid(RING))
    }

    /// Empties bucket `b`'s slot and returns the head of its list.
    fn unlink(&mut self, b: i64) -> usize {
        let slot = (b % RING) as usize;
        let word = &mut self.occupied[slot / 64];
        *word &= !(1 << (slot % 64));
        if *word == 0 {
            self.summary &= !(1 << (slot / 64));
        }
        std::mem::replace(&mut self.heads[slot], NIL)
    }

    /// Makes `b` the current bucket: moves its slot's list into `run`,
    /// returns the nodes to the free list and sorts `run` by descending
    /// key.
    fn refill(&mut self, b: i64) {
        self.cur = b;
        let mut at = self.unlink(b);
        while at != NIL {
            let Node { key, payload, next } = self.nodes[at];
            self.nodes[at].next = self.free;
            self.free = at;
            self.run.push(Entry { key, payload });
            at = next;
        }
        self.run.sort_unstable_by_key(|e| Reverse(e.key));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl<T: Copy> EventQueue<T> {
        /// Time of the next event, if any.
        fn peek_time(&mut self) -> Option<RealTime> {
            let (_, key) = self.min_tier()?;
            Some(time_of((key >> 64) as u64))
        }
    }

    fn t(s: f64) -> RealTime {
        RealTime::from_secs(s)
    }

    /// Start of bucket `b`, in seconds.
    fn edge(b: i64) -> f64 {
        b as f64 / BUCKETS_PER_SEC
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(3.0), 'c');
        q.schedule(t(1.0), 'a');
        q.schedule(t(2.0), 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(t(1.0), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn schedule_with_passes_the_assigned_id() {
        let mut q = EventQueue::new();
        let a = q.schedule_with(t(1.0), |id| id);
        let b = q.schedule_with(t(2.0), |id| id);
        assert_ne!(a, b);
        assert_eq!(q.pop().unwrap().1, a);
        assert_eq!(q.pop().unwrap().1, b);
    }

    #[test]
    fn peek_empty_is_none() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        assert!(q.pop().is_none());
    }

    #[test]
    fn pops_and_schedules_interleave_in_time_order() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.schedule(t(i as f64), i * 10);
        }
        assert_eq!(q.pop().unwrap().1, 0);
        assert_eq!(q.pop().unwrap().1, 10);
        q.schedule(t(5.5), 55);
        let rest: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(rest, vec![20, 30, 40, 50, 55, 60, 70, 80, 90]);
        assert!(q.is_empty());
    }

    #[test]
    fn len_tracks_live_events() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(t(1.0), ());
        q.schedule(t(2.0), ());
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        q.pop();
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn large_interleaving_is_consistent() {
        let mut q = EventQueue::new();
        for i in 0..1000u64 {
            q.schedule(t((i % 17) as f64), i);
        }
        let mut popped = Vec::new();
        while let Some((_, v)) = q.pop() {
            popped.push(v);
        }
        assert_eq!(popped.len(), 1000);
        // Time order, and scheduling order within each instant.
        assert!(popped
            .windows(2)
            .all(|w| (w[0] % 17, w[0]) < (w[1] % 17, w[1])));
    }

    #[test]
    fn far_heap_entry_pops_before_later_ring_entries() {
        let mut q = EventQueue::new();
        // Bucket 2 goes to the ring; the timer 10 s out goes to the heap.
        q.schedule(t(edge(2)), "ring");
        q.schedule(t(10.0), "far");
        assert_eq!(q.pop().unwrap().1, "ring");
        assert_eq!(q.pop().unwrap().1, "far");
        // `cur` followed the heap pop, so a delivery just after lands in
        // the ring, and an earlier-bucket one in the heap, ahead of it.
        q.schedule(t(10.0 + edge(3)), "next");
        q.schedule(t(9.0), "late straggler");
        let ring_slots: u32 = q.occupied.iter().map(|w| w.count_ones()).sum();
        assert_eq!((q.heap.len(), ring_slots), (1, 1));
        assert_eq!(q.pop().unwrap().1, "late straggler");
        assert_eq!(q.pop().unwrap().1, "next");
        assert!(q.is_empty());
    }

    #[test]
    fn heap_entry_in_the_next_ring_bucket_merges_by_key() {
        let mut q = EventQueue::new();
        // Bucket RING + 44 is beyond the ring: the heap takes the first
        // event.
        let b = RING + 44;
        q.schedule(t(edge(b) + 1e-9), "heap");
        // Popping bucket 100 moves `cur` so that bucket `b` is in range.
        q.schedule(t(edge(100)), "first");
        assert_eq!(q.pop().unwrap().1, "first");
        q.schedule(t(edge(b)), "ring, earlier");
        q.schedule(t(edge(b) + 2e-9), "ring, later");
        assert_eq!(q.peek_time(), Some(t(edge(b))));
        assert_eq!(q.pop().unwrap().1, "ring, earlier");
        assert_eq!(q.pop().unwrap().1, "heap");
        assert_eq!(q.pop().unwrap().1, "ring, later");
    }

    #[test]
    fn heap_front_before_the_next_bucket_leaves_the_ring_in_place() {
        let mut q = EventQueue::new();
        q.schedule(t(edge(100)), "ring");
        q.schedule(t(-1.0), "heap");
        assert_eq!(q.pop().unwrap().1, "heap");
        // Bucket 100 is still ahead, so an event before it still lands in
        // the ring rather than behind a prematurely advanced `cur`.
        assert_eq!((q.cur, q.run.len()), (0, 0));
        q.schedule(t(edge(50)), "ring, earlier");
        assert!(q.heap.is_empty());
        assert_eq!(q.pop().unwrap().1, "ring, earlier");
        assert_eq!(q.pop().unwrap().1, "ring");
    }

    #[test]
    fn lone_entries_pop_straight_from_the_ring() {
        let mut q = EventQueue::new();
        for k in [5, 70, 3000, 4095] {
            q.schedule(t(edge(k) + 1e-9), k);
        }
        for k in [5, 70, 3000, 4095] {
            // A lone bucket is peeked in place, not moved into `run`.
            assert_eq!(q.peek_time(), Some(t(edge(k) + 1e-9)));
            assert!(q.run.is_empty(), "bucket {k} went through `run`");
            assert_eq!(q.pop().map(|(_, v)| v), Some(k));
            assert_eq!(q.cur, k);
        }
        assert_eq!((q.summary, q.len()), (0, 0));
    }

    #[test]
    fn pop_at_or_before_is_inclusive_and_leaves_later_events() {
        let mut q = EventQueue::new();
        q.schedule(t(1.0), 'b');
        q.schedule(t(2.0), 'c');
        assert_eq!(q.pop_at_or_before(t(0.9)), None);
        assert_eq!(q.pop_at_or_before(t(1.0)), Some((t(1.0), 'b')));
        assert_eq!(q.pop_at_or_before(t(1.5)), None);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_at_or_before(t(f64::INFINITY)), Some((t(2.0), 'c')));
        assert_eq!(q.pop_at_or_before(t(f64::INFINITY)), None);
    }

    /// The heap-only queue the two tiers replaced: every entry in one
    /// `BinaryHeap` under the same key. The differential test below holds
    /// the two-tier queue to its pop order.
    struct HeapQueue<T> {
        heap: BinaryHeap<Entry<T>>,
        next_id: u64,
    }

    impl<T> HeapQueue<T> {
        fn new() -> Self {
            HeapQueue {
                heap: BinaryHeap::new(),
                next_id: 0,
            }
        }

        fn schedule(&mut self, time: RealTime, payload: T) -> EventId {
            let id = EventId(self.next_id);
            self.next_id += 1;
            self.heap.push(Entry::new(time, id, payload));
            id
        }

        fn len(&self) -> usize {
            self.heap.len()
        }

        fn peek_time(&self) -> Option<RealTime> {
            self.heap.peek().map(Entry::time)
        }

        fn pop(&mut self) -> Option<(RealTime, T)> {
            let entry = self.heap.pop()?;
            Some((entry.time(), entry.payload))
        }
    }

    /// A time to schedule, resolved against the last popped time.
    #[derive(Debug, Clone)]
    enum When {
        /// `k` buckets after the last popped time's bucket, `frac` of a
        /// bucket in: exact edges at `frac = 0`, the same bucket at
        /// `k = 0`, earlier buckets for `k < 0`, and the ring's far edge
        /// at `k` near `RING`.
        Bucket(i64, f64),
        /// `frac` of a bucket into the bucket of an earlier schedule: a
        /// lone ring entry can share its bucket with an earlier heap entry.
        BucketOf(usize, f64),
        /// The instant of an earlier schedule, so ids break the tie.
        Again(usize),
        /// Signed zeros, subnormals, negatives, infinities, the ring
        /// horizon.
        Fixed(f64),
        /// Up to 10 s after the last popped time.
        Later(f64),
    }

    #[derive(Debug, Clone)]
    enum QueueOp {
        Schedule(When),
        /// `count` schedules at one instant, or, with `spread`, at
        /// unsorted instants inside that instant's bucket.
        Burst {
            at: When,
            count: usize,
            spread: Option<f64>,
        },
        Peek,
        Pop,
        PopAtOrBefore(When),
    }

    fn when_strategy() -> impl Strategy<Value = When> {
        let frac = || prop_oneof![Just(0.0), 0.0f64..1.0, Just(1.0 - f64::EPSILON)];
        let k = prop_oneof![-3i64..4, RING - 6..RING + 6, 0i64..RING + 50];
        prop_oneof![
            6 => (k, frac()).prop_map(|(k, f)| When::Bucket(k, f)),
            2 => (0usize..1 << 16, frac()).prop_map(|(i, f)| When::BucketOf(i, f)),
            2 => (0usize..1 << 16).prop_map(When::Again),
            1 => prop_oneof![
                Just(0.0),
                Just(-0.0),
                Just(f64::from_bits(1)),
                Just(-f64::from_bits(1)),
                Just(f64::MIN_POSITIVE),
                Just(-1.0),
                Just(f64::INFINITY),
                Just(f64::NEG_INFINITY),
                Just(f64::MAX),
                Just(RING_HORIZON_SECS),
                Just(RING_HORIZON_SECS - 1.0 / BUCKETS_PER_SEC),
            ]
            .prop_map(When::Fixed),
            1 => (0.0f64..10.0).prop_map(When::Later),
        ]
    }

    fn queue_op_strategy() -> impl Strategy<Value = QueueOp> {
        let spread = prop_oneof![Just(None), (0.0f64..1.0).prop_map(Some)];
        prop_oneof![
            8 => when_strategy().prop_map(QueueOp::Schedule),
            1 => (when_strategy(), 100usize..400, spread)
                .prop_map(|(at, count, spread)| QueueOp::Burst { at, count, spread }),
            1 => Just(QueueOp::Peek),
            6 => Just(QueueOp::Pop),
            2 => when_strategy().prop_map(QueueOp::PopAtOrBefore),
        ]
    }

    /// The bucket `secs` falls in, as a float, or `None` outside the ring.
    fn bucket_of(secs: f64) -> Option<f64> {
        (0.0..RING_HORIZON_SECS)
            .contains(&secs)
            .then(|| (secs * BUCKETS_PER_SEC).floor())
    }

    fn resolve(when: &When, last: f64, scheduled: &[f64]) -> f64 {
        let earlier = |i: usize| scheduled.get(i % scheduled.len().max(1)).copied();
        match *when {
            When::Bucket(k, frac) => {
                (bucket_of(last).unwrap_or(0.0) + k as f64 + frac) / BUCKETS_PER_SEC
            }
            When::BucketOf(i, frac) => match earlier(i).and_then(bucket_of) {
                Some(b) => (b + frac) / BUCKETS_PER_SEC,
                None => last,
            },
            When::Again(i) => earlier(i).unwrap_or(last),
            When::Fixed(v) => v,
            When::Later(d) => last + d,
        }
    }

    /// Schedules `at` on both queues, with the schedule's index as payload,
    /// and requires the same id from both.
    fn schedule_both(
        q: &mut EventQueue<u64>,
        reference: &mut HeapQueue<u64>,
        scheduled: &mut Vec<f64>,
        at: f64,
    ) {
        let payload = scheduled.len() as u64;
        let id = q.schedule(t(at), payload);
        assert_eq!(id, reference.schedule(t(at), payload));
        scheduled.push(at);
    }

    use proptest::prelude::*;

    proptest! {
        // Bursts make a case ~30× the work; Miri runs a few.
        #![proptest_config(ProptestConfig {
            cases: if cfg!(miri) { 8 } else { 256 },
            ..ProptestConfig::default()
        })]

        /// The two-tier queue pops exactly what the heap-only queue pops,
        /// bit for bit, under random schedule/peek/pop traffic
        /// concentrated on the ring: same-bucket and edge times, equal
        /// instants, lone ring entries sharing a bucket with an earlier
        /// heap entry, bursts of hundreds at one instant or in one bucket,
        /// both sides of the ring's far edge, buckets the ring has passed,
        /// and the special values only the heap holds.
        #[test]
        fn two_tiers_match_the_heap_only_queue(
            ops in proptest::collection::vec(queue_op_strategy(), 0..400),
        ) {
            let mut q = EventQueue::new();
            let mut reference = HeapQueue::new();
            let mut scheduled = Vec::new();
            let mut last = 0.0f64;
            let mut popped = 0u64;
            for op in &ops {
                match op {
                    QueueOp::Schedule(when) => {
                        let at = resolve(when, last, &scheduled);
                        schedule_both(&mut q, &mut reference, &mut scheduled, at);
                    }
                    QueueOp::Burst { at, count, spread } => {
                        let at = resolve(at, last, &scheduled);
                        for j in 0..*count {
                            // Golden-ratio steps: distinct, unsorted
                            // fractions of the bucket.
                            let at = match (spread, bucket_of(at)) {
                                (Some(seed), Some(b)) => {
                                    let frac = (seed + j as f64 * 0.618_033_988_749_895).fract();
                                    (b + frac) / BUCKETS_PER_SEC
                                }
                                _ => at,
                            };
                            schedule_both(&mut q, &mut reference, &mut scheduled, at);
                        }
                    }
                    QueueOp::Peek => {
                        let got = q.peek_time().map(|t| t.as_secs().to_bits());
                        let want = reference.peek_time().map(|t| t.as_secs().to_bits());
                        prop_assert_eq!(got, want);
                    }
                    QueueOp::Pop | QueueOp::PopAtOrBefore(_) => {
                        let (got, want) = match op {
                            QueueOp::PopAtOrBefore(when) => {
                                let deadline = t(resolve(when, last, &scheduled));
                                let want = match reference.peek_time() {
                                    Some(at) if at <= deadline => reference.pop(),
                                    _ => None,
                                };
                                (q.pop_at_or_before(deadline), want)
                            }
                            _ => (q.pop(), reference.pop()),
                        };
                        let bits = |p: Option<(RealTime, u64)>| p.map(|(t, v)| (t.as_secs().to_bits(), v));
                        prop_assert_eq!(bits(got), bits(want));
                        if let Some((at, _)) = got {
                            last = at.as_secs();
                            popped += 1;
                        }
                    }
                }
                prop_assert_eq!(q.len(), reference.len());
            }
            while let Some((at, v)) = q.pop() {
                let want = reference.pop().map(|(t, v)| (t.as_secs().to_bits(), v));
                prop_assert_eq!(Some((at.as_secs().to_bits(), v)), want);
                popped += 1;
            }
            prop_assert!(reference.pop().is_none());
            prop_assert_eq!(popped, scheduled.len() as u64);
        }
    }
}
