//! A sync round allocates nothing once the node and its host's scratch are
//! built, and a node holds per-peer state only while its round runs.
//!
//! During a round `SyncNode` keeps one best pong sample and one pong count
//! per peer, a slot pair it takes from the pool in the host's
//! `RoundScratch` and hands back when the round completes; the estimates
//! and selection buffers of round completion live in the same scratch, and
//! every effect is a direct call on the host's driver, with no buffer
//! between them. So neither the ping fan-out, nor the pongs, nor the
//! round's completion touch the heap. A counting global allocator checks a
//! whole first round at n = 64, driven through a driver that stores
//! nothing, and a second node's round on a scratch the first one warmed;
//! that building a node makes the same number of allocations whatever n
//! is; that between rounds a node holds no bytes per peer, whatever
//! `pings_per_peer` is; and that a started cached node, which keeps its
//! slot pair as its cache, holds at most 17 bytes per peer. It also checks
//! that the wire decoder rejects garbage without touching the heap, so a
//! flood of junk datagrams costs a live node no allocations.

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
    /// Heap bytes allocated on this thread and not yet freed (signed: a
    /// thread may free what another allocated).
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

/// Adds `delta` live bytes on this thread, counting an allocation if
/// `allocation`.
fn track(delta: isize, allocation: bool) {
    if allocation {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
    }
    LIVE.with(|l| l.set(l.get() + delta));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is thread-local
// counters, which are const-initialized and so never allocate themselves.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        track(layout.size() as isize, true);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as isize), false);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        track(new_size as isize - layout.size() as isize, true);
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

/// Heap bytes that `f` leaves live on this thread.
fn bytes(f: impl FnOnce()) -> isize {
    let before = LIVE.with(Cell::get);
    f();
    LIVE.with(Cell::get) - before
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

/// Drives `node` through one whole round in which every pong arrives —
/// started, or begun by its sync alarm after the first — and returns the
/// round's report.
fn full_round(node: &mut SyncNode, scratch: &mut RoundScratch) -> Option<RoundSummary> {
    let mut host = Forgetful::default();
    let (me, n, k) = (node.id(), node.params().n(), node.params().pings_per_peer());
    let at = 20.0 * node.round() as f64;
    let input = if node.round() == 0 {
        Input::Start { local_now: lt(at) }
    } else {
        Input::TimerFired {
            timer: TimerKind::SyncDue,
            local_now: lt(at),
        }
    };
    node.handle_into(input, scratch, &mut host);
    let (round, nonce) = host.ping?;
    for q in ProcId::all(n).filter(|q| *q != me) {
        for _ in 0..k {
            let pong = WireMessage::Pong {
                round,
                nonce,
                clock: lt(at + 0.05),
            };
            let input = Input::Message {
                from: q,
                msg: pong,
                local_now: lt(at + 0.1),
            };
            node.handle_into(input, scratch, &mut host);
        }
    }
    host.completed
}

#[test]
fn first_round_allocates_nothing_after_construction() {
    let (n, k) = (64, 2);
    let mut node = SyncNode::new(ProcId(0), params(n, k)).with_nonce_seed(3);
    // The host's round-completion scratch, sized for n, is built before
    // measuring; no effect buffer exists at all.
    let mut scratch = RoundScratch::with_capacity(n);
    let mut summary = None;
    let count = allocations(|| summary = full_round(&mut node, &mut scratch));
    let summary = summary.expect("every pong arrived, so the round completes");
    assert_eq!((summary.responders, summary.timeouts), (n - 1, 0));
    assert_eq!(count, 0, "a whole round allocated {count} times");
}

#[test]
fn a_second_nodes_round_on_a_warmed_scratch_allocates_nothing() {
    let n = 64;
    // An empty pool: the first node's round allocates its slot pair.
    let mut scratch = RoundScratch::default();
    let mut first = SyncNode::new(ProcId(0), params(n, 2));
    assert!(full_round(&mut first, &mut scratch).is_some());
    let mut second = SyncNode::new(ProcId(5), params(n, 2)).with_nonce_seed(9);
    let mut summary = None;
    let count = allocations(|| summary = full_round(&mut second, &mut scratch));
    assert_eq!(summary.map(|s| s.responders), Some(n - 1));
    assert_eq!(count, 0, "the second node's round allocated {count} times");
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
fn node_bytes(n: usize, k: usize) -> isize {
    let params = params(n, k);
    let mut node = None;
    let b = bytes(|| node = Some(SyncNode::new(ProcId(0), params)));
    assert!(node.is_some());
    b
}

#[test]
fn between_rounds_a_node_holds_no_bytes_per_peer() {
    let mut held = Vec::new();
    for n in [16, 64, 256, 1024] {
        for k in [1, 8] {
            let mut scratch = RoundScratch::with_capacity(n);
            let mut node = None;
            let b = bytes(|| {
                let mut built = SyncNode::new(ProcId(0), params(n, k));
                for _ in 0..2 {
                    assert!(full_round(&mut built, &mut scratch).is_some());
                }
                node = Some(built);
            });
            held.push((n, k, b));
        }
    }
    assert!(
        held.windows(2).all(|w| w[0].2 == w[1].2),
        "bytes held after two rounds, by (n, k): {held:?}"
    );
}

#[test]
fn a_started_cached_node_holds_at_most_17_bytes_per_peer() {
    let started_bytes = |n: usize| {
        let mut cached = CachedSync::new(
            SyncNode::new(ProcId(0), params(n, 1)),
            SimDuration::from_secs(3.0),
        );
        // An empty pool: the cache's slot pair is allocated at start.
        let mut scratch = RoundScratch::default();
        let b = bytes(|| {
            cached.handle_into(
                Input::Start { local_now: lt(0.0) },
                &mut scratch,
                &mut Forgetful::default(),
            )
        });
        assert_eq!(cached.node().round(), 1);
        b
    };
    for n in [16, 256, 1024] {
        let b = started_bytes(n);
        // one best sample (16 bytes) and one pong count (1 byte) per peer
        assert!(b <= 17 * n as isize, "{b} bytes at n = {n}");
    }
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
