//! A sync round allocates nothing once the node is built.
//!
//! `SyncNode` keeps its per-round pong samples in one flat buffer sized at
//! construction, so neither the ping fan-out, nor the pongs, nor the round's
//! completion touch the heap. A counting global allocator checks a whole
//! first round at n = 64, and that building a node makes the same number of
//! allocations whatever n is.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use byzclock_clock::LocalTime;
use byzclock_core::{Input, Output, ProtocolParams, SyncNode, WireMessage};
use byzclock_sim::{ProcId, SimDuration};

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

fn params(n: usize, k: usize) -> ProtocolParams {
    ProtocolParams::builder(n, (n - 1) / 3)
        .sync_int(SimDuration::from_secs(10.0))
        .max_wait(SimDuration::from_secs(1.0))
        .way_off(5.0)
        .pings_per_peer(k)
        .build()
        .unwrap()
}

fn lt(s: f64) -> LocalTime {
    LocalTime::from_secs(s)
}

#[test]
fn first_round_allocates_nothing_after_construction() {
    let (n, k) = (64, 2);
    let mut node = SyncNode::new(ProcId(0), params(n, k)).with_nonce_seed(3);
    // The host's reused output buffer, sized for the ping fan-out.
    let mut out = Vec::with_capacity((n - 1) * k + 1);
    let mut completed = None;
    let count = allocations(|| {
        node.handle_into(Input::Start { local_now: lt(0.0) }, &mut out);
        let Some((round, nonce)) = out.iter().find_map(|o| match o {
            Output::Send {
                msg: WireMessage::Ping { round, nonce },
                ..
            } => Some((*round, *nonce)),
            _ => None,
        }) else {
            return;
        };
        out.clear();
        for q in 1..n {
            for _ in 0..k {
                let pong = WireMessage::Pong {
                    round,
                    nonce,
                    clock: lt(0.05),
                };
                let input = Input::Message {
                    from: ProcId(q as u32),
                    msg: pong,
                    local_now: lt(0.1),
                };
                node.handle_into(input, &mut out);
            }
        }
        completed = out.iter().find_map(|o| match o {
            Output::RoundCompleted(summary) => Some(*summary),
            _ => None,
        });
    });
    let summary = completed.expect("every pong arrived, so the round completes");
    assert_eq!((summary.responders, summary.timeouts), (n - 1, 0));
    assert_eq!(count, 0, "a whole round allocated {count} times");
}

#[test]
fn construction_allocations_do_not_depend_on_n() {
    let counts: Vec<usize> = [4, 16, 64, 256]
        .into_iter()
        .map(|n| {
            let params = params(n, 2);
            let mut node = None;
            let count = allocations(|| node = Some(SyncNode::new(ProcId(0), params)));
            assert!(node.is_some());
            count
        })
        .collect();
    assert!(
        counts.windows(2).all(|w| w[0] == w[1]),
        "allocations by n = 4, 16, 64, 256: {counts:?}"
    );
}
