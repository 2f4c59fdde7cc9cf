//! Cancellable, deterministic event queue.
//!
//! Every entry carries one `u128` key: the time's `total_cmp`-ordered bits
//! above a monotone sequence number, so two events scheduled for the same
//! instant pop in scheduling order, which makes whole simulations
//! deterministic, and every ordering decision is a single integer
//! comparison.
//!
//! The entries live in two tiers. Figure 1's pings and pongs arrive within
//! δ, so almost every event is scheduled a few milliseconds ahead of the
//! last one popped. Those go to a ring of 2^-12 s buckets covering the
//! next ~62 ms: a push is an O(1) list insert, and a pop takes the tail of
//! `run`, the current bucket's entries sorted once when the bucket is
//! reached. Everything else (later timers, negative or non-finite times,
//! and times in buckets the ring has already passed) goes to a
//! [`std::collections::BinaryHeap`] behind the ring. A pop compares the
//! two tiers' minima, so it returns the globally smallest key: pop order is
//! exactly that of a heap-only queue.
//!
//! Cancellation is *lazy*: a cancelled [`EventId`] is recorded in a
//! tombstone set and the entry is dropped when it reaches the front of its
//! tier, so `cancel` is O(1) amortized. Ids are handed out densely (0, 1,
//! 2, …), so the tombstone and gone sets are `IdFlags` bitsets over the
//! window `[gone_watermark, next_id)` rather than hash sets: membership
//! tests on the pop hot path are a shift and a mask instead of a SipHash
//! probe, and the windows stay small because the watermark compaction
//! drops whole 64-bit words as it passes them.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use crate::time::RealTime;

/// Ring buckets per simulated second: a bucket is 2^-12 s (~0.24 ms) wide.
const BUCKETS_PER_SEC: f64 = 4096.0;
/// Ring slots. The ring holds the `RING - 1` buckets after the current one,
/// about 62 ms.
const RING: i64 = 256;
/// Times at or beyond this (2^40 s) always go to the heap, so every bucket
/// index is exact as an `f64` and far from overflow.
const RING_HORIZON_SECS: f64 = 1_099_511_627_776.0;
/// End-of-list marker in the ring's node arena.
const NIL: usize = usize::MAX;

/// Opaque handle to a scheduled event, used for cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(u64);

impl EventId {
    /// Raw numeric value (useful for logging).
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

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

/// Ring bucket of `time`, `⌊time · 4096⌋`, for `0 ≤ time < 2^40 s`, and
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

    fn id(&self) -> EventId {
        EventId(self.key as u64)
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

/// The tier holding the earliest live entry.
#[derive(Debug, Clone, Copy)]
enum Tier {
    Run,
    Heap,
}

/// A set of [`EventId`]s as a bitset over the dense id space.
///
/// Ids are monotone and the queue only ever stores ids in the window
/// `[gone_watermark, next_id)`, so a word-aligned `base` plus a vector of
/// 64-bit words covers the whole set with one bit per id. All bits below
/// `base` are implicitly zero; [`IdFlags::advance_base`] slides the window
/// forward as the watermark passes, dropping exhausted words.
#[derive(Debug, Default)]
struct IdFlags {
    /// Id corresponding to bit 0 of `words[0]`; always a multiple of 64.
    base: u64,
    words: Vec<u64>,
}

impl IdFlags {
    fn contains(&self, id: u64) -> bool {
        if id < self.base {
            return false;
        }
        let off = id - self.base;
        self.words
            .get((off / 64) as usize)
            .is_some_and(|word| word & (1u64 << (off % 64)) != 0)
    }

    fn insert(&mut self, id: u64) {
        debug_assert!(id >= self.base, "inserting below the compacted base");
        let off = id - self.base;
        let word = (off / 64) as usize;
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        self.words[word] |= 1u64 << (off % 64);
    }

    /// Clears the bit for `id`; returns whether it was set.
    fn remove(&mut self, id: u64) -> bool {
        if id < self.base {
            return false;
        }
        let off = id - self.base;
        let Some(word) = self.words.get_mut((off / 64) as usize) else {
            return false;
        };
        let mask = 1u64 << (off % 64);
        let had = *word & mask != 0;
        *word &= !mask;
        had
    }

    /// Number of set bits (test observability only).
    #[cfg(test)]
    fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Slides the window start up to the largest multiple of 64 not above
    /// `floor`, dropping the words that fall out. Every bit below `floor`
    /// must already be zero (the queue's watermark invariant guarantees
    /// it).
    fn advance_base(&mut self, floor: u64) {
        let new_base = floor & !63;
        if new_base <= self.base {
            return;
        }
        let drop = ((new_base - self.base) / 64) as usize;
        if drop >= self.words.len() {
            self.words.clear();
        } else {
            self.words.drain(..drop);
        }
        self.base = new_base;
    }
}

/// Priority queue of timestamped events with lazy cancellation.
///
/// Payloads are `Copy`: the ring's node arena reuses freed slots without
/// dropping them.
///
/// ```
/// use byzclock_sim::{EventQueue, RealTime};
///
/// let mut q = EventQueue::new();
/// let _a = q.schedule(RealTime::from_secs(2.0), "late");
/// let b = q.schedule(RealTime::from_secs(1.0), "early");
/// q.cancel(b);
/// let (t, ev) = q.pop().unwrap();
/// assert_eq!(ev, "late");
/// assert_eq!(t, RealTime::from_secs(2.0));
/// ```
#[derive(Debug)]
pub struct EventQueue<T> {
    /// The entries of bucket `cur`, sorted by descending key, so the
    /// earliest is the tail.
    run: Vec<Entry<T>>,
    /// The current bucket. The ring holds buckets `cur + 1 ..= cur + 255`;
    /// `cur` only grows.
    cur: i64,
    /// Head node of each ring slot's list (`NIL` if empty), allocated by
    /// the first ring push so that an unused queue stays small to move.
    /// Bucket `b` lives in slot `b mod RING`.
    heads: Vec<usize>,
    /// Bit `s` is set iff slot `s`'s list is non-empty.
    occupied: [u64; RING as usize / 64],
    /// Arena of every ring list's nodes; freed nodes chain from `free`.
    nodes: Vec<Node<T>>,
    free: usize,
    /// Entries outside the ring and `run`, in any bucket.
    heap: BinaryHeap<Entry<T>>,
    /// Ids cancelled while their entry is still queued (tombstones).
    /// Always ≥ `gone_watermark`: skimming removes the tombstone before
    /// noting the id gone, so the watermark never passes a set bit.
    cancelled: IdFlags,
    next_id: u64,
    /// Count of queued entries that are not tombstoned.
    live: usize,
    /// Every id below this watermark has left the queue, except those in
    /// `cancelled` — tombstones are removed from `cancelled` when skimmed.
    gone_watermark: u64,
    /// Ids above the watermark that have left the queue.
    gone_above: IdFlags,
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
            occupied: [0; RING as usize / 64],
            nodes: Vec::new(),
            free: NIL,
            heap: BinaryHeap::new(),
            cancelled: IdFlags::default(),
            next_id: 0,
            live: 0,
            gone_watermark: 0,
            gone_above: IdFlags::default(),
        }
    }

    /// Schedules `payload` at absolute time `time`, returning a cancellation
    /// handle. Events at equal times pop in the order they were scheduled.
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
            Some(b) if b == self.cur => {
                let at = self.run.partition_point(|e| e.key > entry.key);
                self.run.insert(at, entry);
            }
            Some(b) if b > self.cur && b - self.cur < RING => self.ring_push(b, entry),
            _ => self.heap.push(entry),
        }
        self.live += 1;
        id
    }

    /// Links `entry` into bucket `b`'s ring slot, reusing a freed node if
    /// there is one.
    fn ring_push(&mut self, b: i64, entry: Entry<T>) {
        if self.heads.is_empty() {
            self.heads.resize(RING as usize, NIL);
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
    }

    /// Cancels a previously scheduled event.
    ///
    /// Returns `true` if the event was live (scheduled and neither popped nor
    /// already cancelled); `false` otherwise. Cancelling a popped or unknown
    /// id is a harmless no-op.
    pub fn cancel(&mut self, id: EventId) -> bool {
        if id.0 >= self.next_id || self.cancelled.contains(id.0) || self.is_gone(id) {
            return false;
        }
        self.cancelled.insert(id.0);
        self.live -= 1;
        true
    }

    /// True iff the entry for `id` has left the queue (popped or skimmed).
    fn is_gone(&self, id: EventId) -> bool {
        id.0 < self.gone_watermark || self.gone_above.contains(id.0)
    }

    /// Number of live (non-cancelled, not yet popped) events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True iff no live events remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Time of the next live event, if any.
    pub fn peek_time(&mut self) -> Option<RealTime> {
        let (_, key) = self.min_tier()?;
        Some(time_of((key >> 64) as u64))
    }

    /// Pops the earliest live event.
    pub fn pop(&mut self) -> Option<(RealTime, T)> {
        let (tier, _) = self.min_tier()?;
        self.take(tier)
    }

    /// Pops the earliest live event only if it is scheduled at or before
    /// `deadline`: one lookup where a peek followed by a pop would make two.
    pub fn pop_at_or_before(&mut self, deadline: RealTime) -> Option<(RealTime, T)> {
        let (tier, key) = self.min_tier()?;
        if (key >> 64) as u64 > order_bits(deadline) {
            return None;
        }
        self.take(tier)
    }

    /// Drops tombstones from the fronts of both tiers and returns the tier
    /// holding the earliest live entry, with that entry's key. When `run`
    /// is empty it is refilled from the first occupied ring bucket, unless
    /// the heap's front is earlier than that whole bucket.
    ///
    /// Exact because keys are unique and, over ring times, the bucket never
    /// decreases as the key grows: the ring holds only buckets after
    /// `cur`, so `run`'s tail is earlier than every ring entry, and the
    /// smaller of it and the heap's front is the earliest of all.
    fn min_tier(&mut self) -> Option<(Tier, u128)> {
        loop {
            self.skim();
            let heap_key = self.heap.peek().map(|e| e.key);
            if let Some(run_key) = self.run.last().map(|e| e.key) {
                return Some(match heap_key {
                    Some(h) if h < run_key => (Tier::Heap, h),
                    _ => (Tier::Run, run_key),
                });
            }
            let Some(b) = self.next_bucket() else {
                return heap_key.map(|h| (Tier::Heap, h));
            };
            if let Some(h) = heap_key.filter(|&h| h < bucket_start_key(b)) {
                return Some((Tier::Heap, h));
            }
            self.refill(b);
        }
    }

    /// Removes the front entry of `tier`, which [`Self::min_tier`] just
    /// chose, and returns it.
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
        };
        self.note_gone(entry.id());
        self.live -= 1;
        Some((entry.time(), entry.payload))
    }

    /// Drops cancelled entries sitting at the fronts of `run` and the heap.
    fn skim(&mut self) {
        while let Some(id) = self.run.last().map(Entry::id) {
            if !self.cancelled.remove(id.0) {
                break;
            }
            self.run.pop();
            self.note_gone(id);
        }
        while let Some(id) = self.heap.peek().map(Entry::id) {
            if !self.cancelled.remove(id.0) {
                break;
            }
            self.heap.pop();
            self.note_gone(id);
        }
    }

    /// Bucket of the first occupied ring slot after `cur`, found from the
    /// occupancy bitmap.
    fn next_bucket(&self) -> Option<i64> {
        let start = ((self.cur + 1) % RING) as usize;
        let words = self.occupied.len();
        // The first word from `start` on, then each word in turn, wrapping
        // round to the first word's low bits; slot `cur mod RING` itself is
        // always empty.
        let mut w = start / 64;
        let mut bits = self.occupied[w] & (!0u64 << (start % 64));
        for _ in 0..words {
            if bits != 0 {
                break;
            }
            w = (w + 1) % words;
            bits = self.occupied[w];
        }
        if bits == 0 {
            return None;
        }
        let slot = (w * 64 + bits.trailing_zeros() as usize) as i64;
        Some(self.cur + (slot - self.cur).rem_euclid(RING))
    }

    /// Makes `b` the current bucket: moves its slot's list into `run`,
    /// returns the nodes to the free list and sorts `run` by descending
    /// key.
    fn refill(&mut self, b: i64) {
        let slot = (b % RING) as usize;
        self.cur = b;
        self.occupied[slot / 64] &= !(1 << (slot % 64));
        let mut at = std::mem::replace(&mut self.heads[slot], NIL);
        while at != NIL {
            let Node { key, payload, next } = self.nodes[at];
            self.nodes[at].next = self.free;
            self.free = at;
            self.run.push(Entry { key, payload });
            at = next;
        }
        self.run.sort_unstable_by_key(|e| Reverse(e.key));
    }

    /// Records that `id` has left the queue, keeping the gone-set compact
    /// by advancing the contiguous watermark where possible (and sliding
    /// both bitset windows forward behind it).
    fn note_gone(&mut self, id: EventId) {
        if id.0 == self.gone_watermark {
            self.gone_watermark += 1;
            while self.gone_above.remove(self.gone_watermark) {
                self.gone_watermark += 1;
            }
            self.gone_above.advance_base(self.gone_watermark);
            self.cancelled.advance_base(self.gone_watermark);
        } else if id.0 > self.gone_watermark {
            self.gone_above.insert(id.0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> RealTime {
        RealTime::from_secs(s)
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
    fn schedule_with_ids_are_cancellable() {
        let mut q = EventQueue::new();
        let a = q.schedule_with(t(1.0), |id| id);
        assert!(q.cancel(a));
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancel_removes_event() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1.0), "a");
        q.schedule(t(2.0), "b");
        assert!(q.cancel(a));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().1, "b");
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_twice_returns_false() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1.0), ());
        assert!(q.cancel(a));
        assert!(!q.cancel(a));
    }

    #[test]
    fn cancel_after_pop_returns_false() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1.0), ());
        q.pop().unwrap();
        assert!(!q.cancel(a));
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn cancel_unknown_id_returns_false() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(!q.cancel(EventId(42)));
    }

    #[test]
    fn cancel_skimmed_id_returns_false() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1.0), "a");
        q.schedule(t(2.0), "b");
        q.cancel(a);
        // Force a skim via peek; the tombstone leaves the heap.
        assert_eq!(q.peek_time(), Some(t(2.0)));
        assert!(!q.cancel(a));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1.0), "a");
        q.schedule(t(2.0), "b");
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(t(2.0)));
    }

    #[test]
    fn peek_empty_is_none() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        assert!(q.pop().is_none());
    }

    #[test]
    fn out_of_order_pop_then_cancel_mixture() {
        let mut q = EventQueue::new();
        let ids: Vec<EventId> = (0..10).map(|i| q.schedule(t(i as f64), i)).collect();
        assert_eq!(q.pop().unwrap().1, 0);
        assert_eq!(q.pop().unwrap().1, 1);
        assert!(q.cancel(ids[5]));
        assert!(!q.cancel(ids[0])); // already popped
        let rest: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(rest, vec![2, 3, 4, 6, 7, 8, 9]);
        assert!(q.is_empty());
    }

    #[test]
    fn len_tracks_live_events() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        let a = q.schedule(t(1.0), ());
        let _b = q.schedule(t(2.0), ());
        assert_eq!(q.len(), 2);
        q.cancel(a);
        assert_eq!(q.len(), 1);
        q.pop();
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn gone_watermark_absorbs_stragglers() {
        let mut q = EventQueue::new();
        // id 0 scheduled far in the future; ids 1..5 pop first (out of id order).
        let late = q.schedule(t(100.0), 0u64);
        for i in 1..5u64 {
            q.schedule(t(i as f64), i);
        }
        for _ in 1..5 {
            q.pop().unwrap();
        }
        assert!(!q.is_gone_public(late));
        q.pop().unwrap(); // pops id 0, watermark should absorb 1..=4
        assert!(q.is_gone_public(late));
        assert_eq!(q.gone_above_len(), 0);
    }

    #[test]
    fn large_interleaving_is_consistent() {
        let mut q = EventQueue::new();
        let mut ids = Vec::new();
        for i in 0..1000u64 {
            ids.push(q.schedule(t((i % 17) as f64), i));
        }
        let mut cancelled = std::collections::BTreeSet::new();
        for (i, id) in ids.iter().enumerate() {
            if i % 3 == 0 {
                assert!(q.cancel(*id));
                cancelled.insert(i as u64);
            }
        }
        let mut popped = Vec::new();
        while let Some((_, v)) = q.pop() {
            popped.push(v);
        }
        assert_eq!(popped.len(), 1000 - cancelled.len());
        assert!(popped.iter().all(|v| !cancelled.contains(v)));
        let times: Vec<f64> = popped.iter().map(|v| (v % 17) as f64).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    impl<T: Copy> EventQueue<T> {
        fn is_gone_public(&self, id: EventId) -> bool {
            self.is_gone(id)
        }
        fn gone_above_len(&self) -> usize {
            self.gone_above.len()
        }
    }

    #[test]
    fn far_heap_entry_pops_before_later_ring_entries() {
        let mut q = EventQueue::new();
        // Bucket 2 goes to the ring; the timer 10 s out goes to the heap.
        q.schedule(t(2.0 / 4096.0), "ring");
        q.schedule(t(10.0), "far");
        assert_eq!(q.pop().unwrap().1, "ring");
        assert_eq!(q.pop().unwrap().1, "far");
        // `cur` followed the heap pop, so a delivery just after lands in
        // the ring, and an earlier-bucket one in the heap, ahead of it.
        q.schedule(t(10.0 + 3.0 / 4096.0), "next");
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
        // Bucket 300 is beyond the ring: the heap takes the first event.
        let edge = 300.0 / 4096.0;
        q.schedule(t(edge + 1e-9), "heap");
        // Popping bucket 100 moves `cur` so that bucket 300 is in range.
        q.schedule(t(100.0 / 4096.0), "first");
        assert_eq!(q.pop().unwrap().1, "first");
        q.schedule(t(edge), "ring, earlier");
        q.schedule(t(edge + 2e-9), "ring, later");
        assert_eq!(q.peek_time(), Some(t(edge)));
        assert_eq!(q.pop().unwrap().1, "ring, earlier");
        assert_eq!(q.pop().unwrap().1, "heap");
        assert_eq!(q.pop().unwrap().1, "ring, later");
    }

    #[test]
    fn pop_at_or_before_is_inclusive_and_leaves_later_events() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(0.5), 'a');
        q.schedule(t(1.0), 'b');
        q.schedule(t(2.0), 'c');
        q.cancel(a);
        assert_eq!(q.pop_at_or_before(t(0.9)), None);
        assert_eq!(q.pop_at_or_before(t(1.0)), Some((t(1.0), 'b')));
        assert_eq!(q.pop_at_or_before(t(1.5)), None);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_at_or_before(t(f64::INFINITY)), Some((t(2.0), 'c')));
        assert_eq!(q.pop_at_or_before(t(f64::INFINITY)), None);
    }

    #[test]
    fn idflags_insert_contains_remove() {
        let mut flags = IdFlags::default();
        assert!(!flags.contains(0));
        flags.insert(0);
        flags.insert(63);
        flags.insert(64);
        flags.insert(1000);
        assert!(flags.contains(0));
        assert!(flags.contains(63));
        assert!(flags.contains(64));
        assert!(flags.contains(1000));
        assert!(!flags.contains(65));
        assert!(!flags.contains(100_000));
        assert!(flags.remove(64));
        assert!(!flags.remove(64));
        assert!(!flags.contains(64));
        assert_eq!(flags.len(), 3);
    }

    #[test]
    fn idflags_base_advance_drops_words_and_ignores_below() {
        let mut flags = IdFlags::default();
        flags.insert(200);
        flags.insert(300);
        // floor 192 is word-aligned (3 * 64); ids < 192 are zero.
        flags.advance_base(192);
        assert!(flags.contains(200));
        assert!(flags.contains(300));
        assert!(!flags.contains(191));
        assert!(!flags.remove(5)); // below base: implicitly absent
                                   // advancing past everything clears the storage
        flags.remove(200);
        flags.remove(300);
        flags.advance_base(10_000);
        assert_eq!(flags.len(), 0);
        assert!(!flags.contains(300));
        flags.insert(10_050);
        assert!(flags.contains(10_050));
    }

    #[test]
    fn bitset_windows_stay_compact_under_churn() {
        // Schedule/cancel/pop churn over many ids: the word vectors must
        // track the live window, not the total id count.
        let mut q = EventQueue::new();
        for round in 0..1000u64 {
            let keep = q.schedule(t(round as f64), round);
            let dead = q.schedule(t(round as f64), round + 1_000_000);
            assert!(q.cancel(dead));
            let (_, v) = q.pop().unwrap();
            assert_eq!(v, round);
            assert!(!q.cancel(keep), "already popped");
        }
        assert!(q.is_empty());
        assert!(
            q.cancelled.words.len() <= 2 && q.gone_above.words.len() <= 2,
            "windows grew: cancelled={} gone_above={}",
            q.cancelled.words.len(),
            q.gone_above.words.len()
        );
    }

    /// The heap-only queue the two tiers replaced: every entry in one
    /// `BinaryHeap` under the same key, with a plain set of live ids for
    /// cancellation. The differential test below holds the two-tier queue
    /// to its pop order.
    struct HeapQueue<T> {
        heap: BinaryHeap<Entry<T>>,
        live: std::collections::BTreeSet<u64>,
        next_id: u64,
    }

    impl<T> HeapQueue<T> {
        fn new() -> Self {
            HeapQueue {
                heap: BinaryHeap::new(),
                live: std::collections::BTreeSet::new(),
                next_id: 0,
            }
        }

        fn schedule(&mut self, time: RealTime, payload: T) -> EventId {
            let id = EventId(self.next_id);
            self.next_id += 1;
            self.heap.push(Entry::new(time, id, payload));
            self.live.insert(id.0);
            id
        }

        fn cancel(&mut self, id: EventId) -> bool {
            self.live.remove(&id.0)
        }

        fn len(&self) -> usize {
            self.live.len()
        }

        fn skim(&mut self) {
            while self
                .heap
                .peek()
                .is_some_and(|e| !self.live.contains(&e.id().0))
            {
                self.heap.pop();
            }
        }

        fn peek_time(&mut self) -> Option<RealTime> {
            self.skim();
            self.heap.peek().map(Entry::time)
        }

        fn pop(&mut self) -> Option<(RealTime, T)> {
            self.skim();
            let entry = self.heap.pop()?;
            self.live.remove(&entry.id().0);
            Some((entry.time(), entry.payload))
        }
    }

    /// A time to schedule, resolved against the last popped time.
    #[derive(Debug, Clone)]
    enum When {
        /// `k` buckets after the last popped time's bucket, `frac` of a
        /// bucket in: exact edges at `frac = 0`, the same bucket at
        /// `k = 0`, earlier buckets for `k < 0`, and the ring's far edge
        /// at `k` near 256.
        Bucket(i64, f64),
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
        Cancel(usize),
        Peek,
        Pop,
        PopAtOrBefore(When),
    }

    fn when_strategy() -> impl Strategy<Value = When> {
        let frac = prop_oneof![Just(0.0), 0.0f64..1.0, Just(1.0 - f64::EPSILON)];
        let k = prop_oneof![-3i64..4, 250i64..262, 0i64..300];
        prop_oneof![
            6 => (k, frac).prop_map(|(k, f)| When::Bucket(k, f)),
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
                Just(RING_HORIZON_SECS - 1.0 / 4096.0),
            ]
            .prop_map(When::Fixed),
            1 => (0.0f64..10.0).prop_map(When::Later),
        ]
    }

    fn queue_op_strategy() -> impl Strategy<Value = QueueOp> {
        prop_oneof![
            8 => when_strategy().prop_map(QueueOp::Schedule),
            2 => (0usize..1 << 16).prop_map(QueueOp::Cancel),
            1 => Just(QueueOp::Peek),
            6 => Just(QueueOp::Pop),
            2 => when_strategy().prop_map(QueueOp::PopAtOrBefore),
        ]
    }

    fn resolve(when: &When, last: f64, scheduled: &[f64]) -> f64 {
        let base = if (0.0..RING_HORIZON_SECS).contains(&last) {
            (last * 4096.0).floor()
        } else {
            0.0
        };
        match *when {
            When::Bucket(k, frac) => (base + k as f64 + frac) / 4096.0,
            When::Again(i) if !scheduled.is_empty() => scheduled[i % scheduled.len()],
            When::Again(_) => last,
            When::Fixed(v) => v,
            When::Later(d) => last + d,
        }
    }

    use proptest::prelude::*;

    proptest! {
        /// The two-tier queue pops exactly what the heap-only queue pops,
        /// bit for bit, under random schedule/cancel/peek/pop traffic
        /// concentrated on the ring: same-bucket and edge times, equal
        /// instants, both sides of the ring's far edge, buckets the ring
        /// has passed, and the special values only the heap holds.
        #[test]
        fn two_tiers_match_the_heap_only_queue(
            ops in proptest::collection::vec(queue_op_strategy(), 0..400),
        ) {
            let mut q = EventQueue::new();
            let mut reference = HeapQueue::new();
            let mut scheduled = Vec::new();
            let mut ids = Vec::new();
            let mut last = 0.0f64;
            let mut popped = 0u64;
            for op in &ops {
                match op {
                    QueueOp::Schedule(when) => {
                        let at = resolve(when, last, &scheduled);
                        let payload = scheduled.len() as u64;
                        let id = q.schedule(t(at), payload);
                        prop_assert_eq!(id, reference.schedule(t(at), payload));
                        scheduled.push(at);
                        ids.push(id);
                    }
                    QueueOp::Cancel(i) if !ids.is_empty() => {
                        let id = ids[i % ids.len()];
                        prop_assert_eq!(q.cancel(id), reference.cancel(id));
                    }
                    QueueOp::Cancel(_) => {}
                    QueueOp::Peek => {
                        let got = q.peek_time().map(|t| t.as_secs().to_bits());
                        let want = reference.peek_time().map(|t| t.as_secs().to_bits());
                        prop_assert_eq!(got, want);
                    }
                    QueueOp::Pop | QueueOp::PopAtOrBefore(_) => {
                        let got = match op {
                            QueueOp::PopAtOrBefore(when) => {
                                let deadline = t(resolve(when, last, &scheduled));
                                q.pop_at_or_before(deadline)
                            }
                            _ => q.pop(),
                        };
                        let want = match op {
                            QueueOp::PopAtOrBefore(when) => {
                                let deadline = t(resolve(when, last, &scheduled));
                                match reference.peek_time() {
                                    Some(at) if at <= deadline => reference.pop(),
                                    _ => None,
                                }
                            }
                            _ => reference.pop(),
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
            prop_assert!(popped <= scheduled.len() as u64);
        }
    }
}
