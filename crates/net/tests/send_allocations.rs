//! Sends never allocate, whatever the fault profile, and the full mesh
//! answers every query without a matrix.
//!
//! The simulator makes a send for every message, so `send_times` and
//! `send_forged_times` return their delivery instants inline. A counting
//! global allocator checks that a batch of sends makes no allocation under
//! each fault the network models, and that the full mesh, which stores no
//! adjacency, answers like a complete graph built edge by edge without
//! allocating a row.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use byzclock_net::{DelaySpike, FaultProfile, Network, Topology, UniformDelay};
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
fn allocations(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

fn ms(x: f64) -> SimDuration {
    SimDuration::from_millis(x)
}

fn network() -> Network {
    Network::new(
        Topology::full_mesh(4),
        Box::new(UniformDelay::new(ms(1.0), ms(10.0))),
        ms(10.0),
    )
}

fn profiles() -> Vec<(&'static str, Network)> {
    let quiet = network();
    let mut duplicated = network();
    duplicated.set_fault_profile(FaultProfile {
        duplicate_probability: 1.0,
        reorder_probability: 0.0,
    });
    let mut reordered = network();
    reordered.set_fault_profile(FaultProfile {
        duplicate_probability: 0.5,
        reorder_probability: 1.0,
    });
    let mut lossy = network();
    lossy.set_loss_probability(0.5);
    let mut spiked = network();
    spiked.add_delay_spike(DelaySpike {
        from: RealTime::ZERO,
        until: RealTime::from_secs(100.0),
        factor: 3.0,
    });
    vec![
        ("quiet", quiet),
        ("duplication", duplicated),
        ("reordering", reordered),
        ("loss", lossy),
        ("delay spike", spiked),
    ]
}

#[test]
fn sends_make_no_allocation_under_any_fault_profile() {
    for (name, mut net) in profiles() {
        let mut rng = RngHub::new(5).stream("send-alloc", 0);
        let mut delivered = 0usize;
        let made = allocations(|| {
            for i in 0..1000u32 {
                let (from, to) = (ProcId(i % 4), ProcId((i + 1) % 4));
                let now = RealTime::from_secs(f64::from(i) * 0.01);
                delivered += net.send_times(from, to, now, &mut rng).len();
                delivered += net.send_forged_times(from, to, now, &mut rng).len();
            }
        });
        assert_eq!(made, 0, "{name}: sends allocated {made} times");
        assert!(delivered > 0, "{name}: nothing was delivered");
    }
}

#[test]
fn full_mesh_agrees_with_an_edge_built_complete_graph_without_allocating() {
    for n in [1usize, 2, 5] {
        let mesh = Topology::full_mesh(n);
        let built = Topology::erdos_renyi(n, 1.0, &mut RngHub::new(5).stream("mesh", 0));
        // ids past `n` included: out-of-range pairs are never connected
        let ids = || (0..n as u32 + 2).map(ProcId);
        for t in [&mesh, &built] {
            let mut answers = Vec::with_capacity(4 * (n + 2) * (n + 2));
            let made = allocations(|| {
                answers.push(*t == mesh && built == *t);
                for a in ids() {
                    for b in ids() {
                        answers.push(
                            t.are_connected(a, b) == (a != b && a.index() < n && b.index() < n),
                        );
                    }
                }
                for p in ProcId::all(n) {
                    answers.push(t.degree(p) == n - 1);
                }
                answers.push(t.min_degree() == n - 1);
                answers.push(t.is_connected());
            });
            assert_eq!(made, 0, "n = {n}: {t:?} allocated {made} times");
            assert!(
                answers.iter().all(|&ok| ok),
                "n = {n}: {t:?} answers {answers:?}"
            );
        }
    }
}
