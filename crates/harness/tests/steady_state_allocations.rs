//! Steady-state event handling allocates (almost) nothing, and a world's
//! heap stays small.
//!
//! DESIGN.md §4 claims that once a world is warm, dispatching an event
//! makes no heap allocation: nodes call the host's driver directly, with
//! no effect buffer between them, sends return their delivery instants
//! inline, the adversary's omniscient view is a borrowed closure, and the
//! nodes, queue and observers reuse their buffers. A counting global allocator
//! checks this on a 64-node rotating-churn world under a random-reply
//! adversary, where every round sends about n² messages and pings reach
//! corrupted processors, with and without an observer.
//!
//! The same allocator tracks live heap bytes, so the footprint guards can
//! bound a whole world's peak heap: a node holds its 17 bytes of per-peer
//! round state only while its round runs, taking them from and handing
//! them back to the one round scratch the world lends all nodes, and the
//! full-mesh topology stores no adjacency matrix. So the heap follows the
//! rounds in flight, not n².

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use byzclock_adversary::RandomReplyStrategy;
use byzclock_harness::scenario::Scenario;
use byzclock_runtime::{Observer, World, WorldSample};
use byzclock_sim::RealTime;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Heap bytes allocated on this thread and not yet freed (signed: a
    /// thread may free what another allocated).
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// The high-water mark of `LIVE` since the last `reset_peak`.
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// Adds `delta` live bytes on this thread, counting an allocation if
/// `allocation`.
fn track(delta: i64, allocation: bool) {
    if allocation {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
    }
    let live = LIVE.with(|l| {
        l.set(l.get() + delta);
        l.get()
    });
    PEAK.with(|p| p.set(p.get().max(live)));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is thread-local
// counters, which are const-initialized and so never allocate themselves.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        track(layout.size() as i64, true);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as i64), false);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        track(new_size as i64 - layout.size() as i64, true);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// A 64-node churn world run to 120 s, warm for the measured window.
fn warm_churn_world(horizon: RealTime) -> World {
    let mut world =
        Scenario::standard(64, 21).churn_world(Box::new(RandomReplyStrategy::new(1.0)), horizon);
    world.run_until(RealTime::from_secs(120.0));
    world
}

/// Runs `world` to `horizon`; returns (allocations, events) of that span.
fn allocations_per_events(world: &mut World, horizon: RealTime) -> (u64, u64) {
    let events_before = world.events_processed();
    let allocations_before = ALLOCATIONS.with(Cell::get);
    world.run_until(horizon);
    let allocations = ALLOCATIONS.with(Cell::get) - allocations_before;
    let events = world.events_processed() - events_before;
    assert!(
        events > 100_000,
        "only {events} events in the measured window"
    );
    eprintln!("{allocations} allocations over {events} events");
    (allocations, events)
}

#[test]
fn warm_churn_world_makes_under_one_allocation_per_ten_thousand_events() {
    let horizon = RealTime::from_secs(300.0);
    let mut world = warm_churn_world(horizon);
    let (allocations, events) = allocations_per_events(&mut world, horizon);
    assert!(
        allocations * 10_000 < events,
        "{allocations} allocations over {events} events"
    );
}

/// Reads every sample and keeps nothing, as a metric observer's hot path
/// does.
struct Deviation(f64);

impl Observer for Deviation {
    fn on_sample(&mut self, sample: &WorldSample) {
        self.0 = self.0.max(sample.good_deviation().unwrap_or(0.0));
    }
}

#[test]
fn observer_ticks_make_under_one_allocation_per_thousand_events() {
    let horizon = RealTime::from_secs(300.0);
    let mut world = warm_churn_world(horizon);
    world.add_observer(Box::new(Deviation(0.0)));
    world.run_until(RealTime::from_secs(130.0)); // the sample buffers warm up
    let (allocations, events) = allocations_per_events(&mut world, horizon);
    assert!(
        allocations * 1000 < events,
        "{allocations} allocations over {events} events"
    );
}

/// Peak live heap bytes of building the canned `n`-node churn world
/// (f = ⌊(n−1)/3⌋, random-reply adversary) and running it for `secs`
/// simulated seconds.
fn churn_world_heap_peak(n: usize, secs: f64) -> i64 {
    let base = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(base));
    let horizon = RealTime::from_secs(240.0);
    let mut world = Scenario::standard(n, (n - 1) / 3)
        .churn_world(Box::new(RandomReplyStrategy::new(1.0)), horizon);
    world.run_until(RealTime::from_secs(secs));
    assert!(world.events_processed() > 0);
    let peak = PEAK.with(Cell::get) - base;
    eprintln!("n = {n}, {secs} sim-s: {peak} bytes of peak live heap");
    peak
}

const MIB: i64 = 1 << 20;

#[test]
fn churn_world_at_n_256_peaks_under_512_kib() {
    let peak = churn_world_heap_peak(256, 30.0);
    assert!(peak < MIB / 2, "{peak} bytes of peak live heap at n = 256");
}

/// The n = 1024 footprint guard. It is slow in a debug build, so CI runs
/// it in release (`--include-ignored`).
#[test]
#[ignore = "n = 1024 footprint guard: CI runs it in release with --include-ignored"]
fn churn_world_at_n_1024_peaks_under_2_mib() {
    let peak = churn_world_heap_peak(1024, 4.0);
    assert!(peak < 2 * MIB, "{peak} bytes of peak live heap at n = 1024");
}
