//! Steady-state event handling allocates (almost) nothing.
//!
//! DESIGN.md §4 claims that once a world is warm, dispatching an event
//! makes no heap allocation: sends return their delivery instants inline,
//! the adversary's omniscient view is a borrowed closure, and the nodes,
//! queue and observers reuse their buffers. A counting global allocator
//! checks this on a 64-node rotating-churn world under a random-reply
//! adversary, where every round sends about n² messages and pings reach
//! corrupted processors.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use byzclock_adversary::RandomReplyStrategy;
use byzclock_harness::scenario::Scenario;
use byzclock_sim::RealTime;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
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

#[test]
fn warm_churn_world_makes_under_one_allocation_per_hundred_events() {
    let horizon = RealTime::from_secs(300.0);
    let mut world =
        Scenario::standard(64, 21).churn_world(Box::new(RandomReplyStrategy::new(1.0)), horizon);
    world.run_until(RealTime::from_secs(120.0));

    let events_before = world.events_processed();
    let allocations_before = ALLOCATIONS.with(Cell::get);
    world.run_until(horizon);
    let allocations = ALLOCATIONS.with(Cell::get) - allocations_before;
    let events = world.events_processed() - events_before;

    assert!(
        events > 100_000,
        "only {events} events in the measured window"
    );
    assert!(
        allocations * 100 < events,
        "{allocations} allocations over {events} events"
    );
}
