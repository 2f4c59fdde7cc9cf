//! A sync round allocates nothing once the node and its host's scratch are
//! built, and a node holds only its per-peer round state.
//!
//! `SyncNode` keeps one best pong sample and one pong count per peer, sized
//! at construction; the estimates and selection buffers of round completion
//! live in the host's `RoundScratch`, and every effect is a direct call on
//! the host's driver, with no buffer between them. So neither the ping
//! fan-out, nor the pongs, nor the round's completion touch the heap. A
//! counting global allocator checks a whole first round at n = 64, driven
//! through a driver that stores nothing, that building a node
//! makes the same number of allocations whatever n is, that its bytes
//! are 17 per peer whatever `pings_per_peer` is, and that wrapping it for
//! cached estimation adds none. It also checks that the wire decoder
//! rejects garbage without touching the heap, so a flood of junk datagrams
//! costs a live node no allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use byzclock_clock::LocalTime;
use byzclock_core::wire::{self, Envelope, MAX_PAYLOAD};
use byzclock_core::{
    CachedSync, Driver, Input, ProtocolParams, RoundScratch, RoundSummary, SyncNode, TimerKind,
    WireMessage,
};
use byzclock_sim::{ProcId, SimDuration};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

/// Counts one allocation of `bytes` on this thread.
fn count(bytes: usize) {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
    BYTES.with(|b| b.set(b.get() + bytes));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is thread-local
// counters, which are const-initialized and so never allocate themselves.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size.saturating_sub(layout.size()));
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

/// Heap bytes requested by `f` on this thread (a reallocation counts its
/// growth).
fn bytes(f: impl FnOnce()) -> usize {
    let before = BYTES.with(Cell::get);
    f();
    BYTES.with(Cell::get) - before
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

/// A host that keeps no record of the effects: it remembers only the
/// first ping's round and nonce and the last round report, in place.
#[derive(Default)]
struct Forgetful {
    ping: Option<(u64, u64)>,
    completed: Option<RoundSummary>,
}

impl Driver for Forgetful {
    fn send(&mut self, _from: ProcId, _to: ProcId, msg: WireMessage) {
        if let (None, WireMessage::Ping { round, nonce }) = (self.ping, msg) {
            self.ping = Some((round, nonce));
        }
    }
    fn set_timer(&mut self, _node: ProcId, _after: SimDuration, _kind: TimerKind) {}
    fn adjust_clock(&mut self, _node: ProcId, _delta: SimDuration) {}
    fn round_completed(&mut self, _node: ProcId, summary: &RoundSummary) {
        self.completed = Some(*summary);
    }
}

#[test]
fn first_round_allocates_nothing_after_construction() {
    let (n, k) = (64, 2);
    let mut node = SyncNode::new(ProcId(0), params(n, k)).with_nonce_seed(3);
    // The host's round-completion scratch, sized for n, is built before
    // measuring; no effect buffer exists at all.
    let mut scratch = RoundScratch::with_capacity(n);
    let mut host = Forgetful::default();
    let count = allocations(|| {
        node.handle_into(Input::Start { local_now: lt(0.0) }, &mut scratch, &mut host);
        let Some((round, nonce)) = host.ping else {
            return;
        };
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
                node.handle_into(input, &mut scratch, &mut host);
            }
        }
    });
    let summary = host
        .completed
        .expect("every pong arrived, so the round completes");
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

/// The heap bytes of a freshly built node with `n` processors and `k`
/// pings per peer.
fn node_bytes(n: usize, k: usize) -> usize {
    let params = params(n, k);
    let mut node = None;
    let b = bytes(|| node = Some(SyncNode::new(ProcId(0), params)));
    assert!(node.is_some());
    b
}

#[test]
fn node_bytes_do_not_depend_on_k_and_grow_17_per_peer() {
    for n in [16, 256, 1024] {
        assert_eq!(
            node_bytes(n, 1),
            node_bytes(n, 8),
            "k = 8 pings per peer must not cost more than k = 1 at n = {n}"
        );
    }
    // one best sample (16 bytes) and one pong count (1 byte) per peer
    let (small, large) = (node_bytes(16, 1), node_bytes(1024, 1));
    assert!(
        large - small <= 17 * (1024 - 16),
        "{small} bytes at n = 16, {large} at n = 1024: over 17 per peer"
    );
}

#[test]
fn cached_node_costs_no_more_bytes_than_a_plain_node() {
    for n in [16, 256, 1024] {
        let plain = node_bytes(n, 1);
        let params = params(n, 1);
        let mut cached = None;
        let b = bytes(|| {
            cached = Some(CachedSync::new(
                SyncNode::new(ProcId(0), params),
                SimDuration::from_secs(3.0),
            ))
        });
        assert!(cached.is_some());
        assert!(
            b <= plain,
            "a cached node takes {b} bytes at n = {n}, a plain one {plain}"
        );
    }
}

#[test]
fn garbage_frames_decode_without_allocating() {
    let mut pong = Vec::new();
    let envelope = Envelope {
        from: ProcId(1),
        msg: WireMessage::Pong {
            round: 1,
            nonce: 2,
            clock: lt(3.0),
        },
    };
    wire::encode_into(&envelope, &mut pong);
    let with_length = |len: u32| {
        let mut frame = len.to_le_bytes().to_vec();
        frame.resize(4 + MAX_PAYLOAD, 0);
        frame
    };
    let mut nan = pong.clone();
    let clock_at = nan.len() - 8;
    nan[clock_at..].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
    let mut unknown_tag = pong.clone();
    unknown_tag[8] = 9;
    let mut tag_mismatch = pong.clone();
    tag_mismatch[8] = 0;
    let garbage: Vec<Vec<u8>> = vec![
        pong[..3].to_vec(),
        pong[..pong.len() - 1].to_vec(),
        with_length(5),
        with_length(MAX_PAYLOAD as u32 + 1),
        with_length(u32::MAX),
        nan,
        unknown_tag,
        tag_mismatch,
    ];
    let mut rejected = 0;
    let count = allocations(|| {
        for frame in &garbage {
            if wire::decode(frame).is_err() {
                rejected += 1;
            }
        }
    });
    assert_eq!(rejected, garbage.len(), "every garbage frame is rejected");
    assert_eq!(count, 0, "rejecting garbage allocated {count} times");
}
