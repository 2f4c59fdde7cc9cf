//! Cancellable, deterministic event queue.
//!
//! A thin wrapper around [`std::collections::BinaryHeap`] keyed on
//! `(RealTime, sequence)`, packed into one `u128` per entry: the time's
//! `total_cmp`-ordered bits above the sequence number, so every heap sift
//! is a single integer comparison. The monotone sequence number guarantees
//! that two events scheduled for the same instant pop in scheduling order,
//! which makes whole simulations deterministic. Cancellation is *lazy*: a
//! cancelled [`EventId`] is recorded in a tombstone set and the entry is
//! dropped when it reaches the top of the heap, so `cancel` is O(1)
//! amortized.
//!
//! Ids are handed out densely (0, 1, 2, …), so the tombstone and gone sets
//! are `IdFlags` bitsets over the window `[gone_watermark, next_id)`
//! rather than hash sets: membership tests on the pop hot path are a shift
//! and a mask instead of a SipHash probe, and the windows stay small
//! because the watermark compaction drops whole 64-bit words as it passes
//! them.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::RealTime;

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
    heap: BinaryHeap<Entry<T>>,
    /// Ids cancelled while their entry is still in the heap (tombstones).
    /// Always ≥ `gone_watermark`: skimming removes the tombstone before
    /// noting the id gone, so the watermark never passes a set bit.
    cancelled: IdFlags,
    next_id: u64,
    /// Count of heap entries that are not tombstoned.
    live: usize,
    /// Every id below this watermark has left the heap, except those in
    /// `cancelled` — tombstones are removed from `cancelled` when skimmed.
    gone_watermark: u64,
    /// Ids above the watermark that have left the heap.
    gone_above: IdFlags,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
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
        self.heap.push(Entry::new(time, id, payload(id)));
        self.live += 1;
        id
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

    /// True iff the entry for `id` has left the heap (popped or skimmed).
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
        self.skim();
        self.heap.peek().map(Entry::time)
    }

    /// Pops the earliest live event.
    pub fn pop(&mut self) -> Option<(RealTime, T)> {
        self.skim();
        let entry = self.heap.pop()?;
        self.note_gone(entry.id());
        self.live -= 1;
        Some((entry.time(), entry.payload))
    }

    /// Drops cancelled entries sitting at the heap top.
    fn skim(&mut self) {
        while let Some(top) = self.heap.peek() {
            let id = top.id();
            if self.cancelled.contains(id.0) {
                self.heap.pop();
                self.cancelled.remove(id.0);
                self.note_gone(id);
            } else {
                break;
            }
        }
    }

    /// Records that `id` has left the heap, keeping the gone-set compact by
    /// advancing the contiguous watermark where possible (and sliding both
    /// bitset windows forward behind it).
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

    impl<T> EventQueue<T> {
        fn is_gone_public(&self, id: EventId) -> bool {
            self.is_gone(id)
        }
        fn gone_above_len(&self) -> usize {
            self.gone_above.len()
        }
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
}
