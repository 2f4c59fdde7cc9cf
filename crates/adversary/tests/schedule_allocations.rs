//! Building a schedule's index costs a constant number of allocations.
//!
//! Chaos campaigns build about a thousand schedules each, so the index
//! must not allocate per episode. A counting global allocator measures the
//! allocations of each constructor at two sizes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use byzclock_adversary::{
    AdversaryPlan, CorruptionInterval, CorruptionSchedule, CorruptionWindowSpec, StrategySpec,
};
use byzclock_sim::{ProcId, RealTime, RngHub, SimDuration};

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
fn allocations<T>(f: impl FnOnce() -> T) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    let value = f();
    let after = ALLOCATIONS.with(Cell::get);
    drop(value);
    after - before
}

fn intervals(k: usize) -> Vec<CorruptionInterval> {
    (0..k)
        .map(|i| {
            let from = RealTime::from_secs((i / 7) as f64);
            CorruptionInterval::new(
                ProcId((i % 7) as u32),
                from,
                from + SimDuration::from_secs(0.5),
            )
        })
        .collect()
}

fn plan(k: usize) -> AdversaryPlan {
    AdversaryPlan {
        strategy: StrategySpec::Crash,
        windows: intervals(k)
            .iter()
            .map(|iv| CorruptionWindowSpec {
                proc: iv.proc.0,
                from_secs: iv.from.as_secs(),
                until_secs: iv.until.as_secs(),
            })
            .collect(),
    }
}

#[test]
fn explicit_constructors_allocate_a_constant_number_of_times() {
    for k in [10, 10_000] {
        let ivs = intervals(k);
        assert_eq!(
            allocations(|| CorruptionSchedule::from_intervals(ivs)),
            1,
            "from_intervals, k={k}: the index is the only allocation"
        );
        let plan = plan(k);
        assert_eq!(allocations(|| plan.schedule()), 2, "plan schedule, k={k}");
        let procs: Vec<ProcId> = (0..k as u32).map(ProcId).collect();
        assert_eq!(
            allocations(|| CorruptionSchedule::permanent(&procs, RealTime::from_secs(10.0))),
            2,
            "permanent, k={k}"
        );
    }
    assert_eq!(allocations(CorruptionSchedule::new), 0);
    assert_eq!(
        allocations(|| CorruptionSchedule::from_intervals(Vec::new())),
        0
    );
    assert_eq!(
        allocations(|| CorruptionSchedule::single(
            ProcId(0),
            RealTime::ZERO,
            SimDuration::from_secs(1.0)
        )),
        2
    );
}

#[test]
fn churn_generators_allocate_only_for_the_growing_episode_list() {
    let big_delta = SimDuration::from_secs(10.0);
    for horizon in [RealTime::from_secs(100.0), RealTime::from_secs(100_000.0)] {
        let rotating = CorruptionSchedule::rotating(
            16,
            5,
            big_delta * 0.5,
            big_delta,
            horizon,
            big_delta * 0.25,
        );
        let k = rotating.episode_count();
        // the episode list doubles as it grows, and the index is one more
        let bound = 2 + (usize::BITS - k.leading_zeros()) as usize;
        let built = allocations(|| {
            CorruptionSchedule::rotating(
                16,
                5,
                big_delta * 0.5,
                big_delta,
                horizon,
                big_delta * 0.25,
            )
        });
        assert!(built <= bound, "rotating, k={k}: {built} > {bound}");

        let mut rng = RngHub::new(3).stream("alloc", 0);
        let built = allocations(|| {
            CorruptionSchedule::random_churn(
                16,
                5,
                SimDuration::from_secs(1.0),
                SimDuration::from_secs(5.0),
                big_delta,
                horizon,
                &mut rng,
            )
        });
        assert!(built <= bound + 2, "random_churn, k≈{k}: {built}");
    }
}
