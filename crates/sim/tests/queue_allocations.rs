//! The event queue's near-future ring allocates only as it grows.
//!
//! Every ring slot is a linked list in one node arena with a free list, and
//! the slot heads and occupancy bitmap are allocated by the first ring
//! push, so a fresh queue allocates nothing, a warmed-up queue recycles its
//! nodes, and filling the ring costs the arena's doubling growth rather
//! than one allocation per slot. A counting global allocator checks all
//! three.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use byzclock_sim::{EventQueue, RealTime};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is a thread-local
// counter, which is const-initialized and so never allocates itself.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (including reallocations) made by `f` on this thread.
fn allocations(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// One ring bucket, 2^-16 s.
const BUCKET: f64 = 1.0 / 65_536.0;
/// Buckets the ring holds ahead of the current one.
const AHEAD: u64 = 4095;

/// Payloads the size of the simulator's events.
type Payload = [u64; 5];

/// The slot heads and the occupancy bitmap stay unallocated until the
/// first ring push.
#[test]
fn a_new_queue_allocates_nothing() {
    let mut q = None;
    assert_eq!(allocations(|| q = Some(EventQueue::<Payload>::new())), 0);
    assert!(q.is_some_and(|q| q.is_empty()));
}

/// Keeps 300 events in flight: each step pops the earliest and schedules
/// one `k` buckets after it, with `k` cycling through 1..=4095 so that the
/// new event lands in every ring slot in turn.
fn cycle(q: &mut EventQueue<Payload>, steps: u64, step0: u64) {
    for step in step0..step0 + steps {
        let (now, _) = q
            .pop_at_or_before(RealTime::from_secs(f64::INFINITY))
            .expect("300 events stay queued");
        let k = (step % AHEAD + 1) as f64;
        q.schedule(RealTime::from_secs(now.as_secs() + k * BUCKET), [step; 5]);
    }
}

#[test]
fn a_warm_schedule_pop_cycle_over_every_ring_slot_allocates_nothing() {
    let mut q = EventQueue::new();
    for i in 0..300u64 {
        q.schedule(RealTime::from_secs((i % AHEAD + 1) as f64 * BUCKET), [i; 5]);
    }
    cycle(&mut q, 20_000, 0);
    let count = allocations(|| cycle(&mut q, 20_000, 20_000));
    assert_eq!(count, 0, "a warm cycle allocated {count} times");
    assert_eq!(q.len(), 300);
}

#[test]
fn filling_the_ring_grows_the_arena_not_one_allocation_per_slot() {
    let mut q = EventQueue::new();
    let count = allocations(|| {
        for i in 0..10_000u64 {
            let at = (i % AHEAD + 1) as f64 * BUCKET + (i / AHEAD) as f64 * 1e-9;
            q.schedule(RealTime::from_secs(at), [i; 5]);
        }
    });
    // Doubling from one node to 10 000 is 15 growth steps, plus the heads
    // and the bitmap; one list per slot would allocate thousands of times.
    assert!(
        (1..=20).contains(&count),
        "filling 10 000 near-future events made {count} allocations"
    );
    assert_eq!(q.len(), 10_000);
}
