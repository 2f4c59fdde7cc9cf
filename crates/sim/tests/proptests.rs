//! Property-based tests for the simulation substrate.

use byzclock_sim::{Engine, EventQueue, RealTime, RngHub, SimDuration};
use proptest::prelude::*;

/// Pops the earliest event, however late it is.
fn pop<T: Copy>(q: &mut EventQueue<T>) -> Option<(RealTime, T)> {
    q.pop_at_or_before(RealTime::from_secs(f64::INFINITY))
}

/// Operations we drive the queue with.
#[derive(Debug, Clone)]
enum Op {
    Schedule(f64),
    Pop,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![(0.0f64..1000.0).prop_map(Op::Schedule), Just(Op::Pop),]
}

/// Any non-NaN time, weighted towards the values whose ordering bits are
/// special: signed zeros, subnormals, the extremes and the infinities.
fn key_time_strategy() -> impl Strategy<Value = f64> {
    prop_oneof![
        any::<f64>(),
        Just(0.0),
        Just(-0.0),
        (1u64..1 << 52).prop_map(f64::from_bits),
        (1u64..1 << 52).prop_map(|m| -f64::from_bits(m)),
        Just(f64::MIN_POSITIVE),
        Just(-f64::MIN_POSITIVE),
        Just(f64::MAX),
        Just(f64::MIN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
    ]
}

/// Size of the pool [`queue_key_matches_time_then_id_order`] draws its
/// times from: small, so that equal instants (and hence the id
/// tie-break) come up often.
const KEY_POOL: usize = 6;

/// The queue's packed heap key orders `-0.0` below `+0.0`, as
/// `RealTime::cmp` does, even though the two compare equal as floats.
#[test]
fn negative_zero_pops_before_positive_zero() {
    let mut q = EventQueue::new();
    q.schedule(RealTime::from_secs(0.0), "positive");
    q.schedule(RealTime::from_secs(-0.0), "negative");
    let (t, first) = pop(&mut q).unwrap();
    assert_eq!(first, "negative");
    assert_eq!(t.as_secs().to_bits(), (-0.0f64).to_bits());
    let (t, second) = pop(&mut q).unwrap();
    assert_eq!(second, "positive");
    assert_eq!(t.as_secs().to_bits(), 0.0f64.to_bits());
}

proptest! {
    /// Events pop in `(RealTime::cmp, id)` order, and each popped time is
    /// the scheduled one bit for bit: the packed `u128` heap key encodes
    /// both exactly, across signed zeros, subnormals and infinities.
    #[test]
    fn queue_key_matches_time_then_id_order(
        pool in proptest::collection::vec(key_time_strategy(), KEY_POOL),
        picks in proptest::collection::vec(0..KEY_POOL, 0..64),
    ) {
        let times: Vec<f64> = picks.iter().map(|&i| pool[i]).collect();
        let mut q = EventQueue::new();
        let ids: Vec<_> = times
            .iter()
            .enumerate()
            .map(|(i, t)| q.schedule(RealTime::from_secs(*t), i))
            .collect();
        let mut expected: Vec<usize> = (0..times.len()).collect();
        expected.sort_by(|a, b| {
            RealTime::from_secs(times[*a])
                .cmp(&RealTime::from_secs(times[*b]))
                .then(ids[*a].cmp(&ids[*b]))
        });
        let mut popped = Vec::new();
        while let Some((t, i)) = pop(&mut q) {
            prop_assert_eq!(t.as_secs().to_bits(), times[i].to_bits());
            popped.push(i);
        }
        prop_assert_eq!(popped, expected);
    }

    /// Under any interleaving of schedule/pop, pops come out in
    /// non-decreasing time order, each scheduled event pops once, and the
    /// length bookkeeping stays exact.
    #[test]
    fn queue_ordering_and_len_invariants(ops in proptest::collection::vec(op_strategy(), 0..200)) {
        let mut q = EventQueue::new();
        // BTree collections: the model's `min_live` fold and any failure
        // output must not depend on hash iteration order (D3 discipline,
        // applied to the test model for identical shrink traces).
        let mut live = std::collections::BTreeMap::new(); // payload -> time
        let mut counter = 0u64;
        for op in ops {
            match op {
                Op::Schedule(t) => {
                    q.schedule(RealTime::from_secs(t), counter);
                    live.insert(counter, t);
                    counter += 1;
                }
                Op::Pop => {
                    if let Some((t, payload)) = pop(&mut q) {
                        // the pop must be the earliest currently-live event
                        let min_live = live
                            .values()
                            .cloned()
                            .fold(f64::INFINITY, f64::min);
                        prop_assert!(t.as_secs() <= min_live + 1e-12,
                            "pop {} skipped earlier event {}", t.as_secs(), min_live);
                        prop_assert!(live.remove(&payload).is_some(),
                            "popped unknown or double-popped event");
                    } else {
                        prop_assert!(live.is_empty(), "pop returned None with live events");
                    }
                }
            }
            prop_assert_eq!(q.len(), live.len(), "len bookkeeping diverged");
        }
        // drain: everything still live must come out, in order
        let mut remaining: Vec<f64> = Vec::new();
        while let Some((t, payload)) = pop(&mut q) {
            prop_assert!(live.remove(&payload).is_some());
            remaining.push(t.as_secs());
        }
        prop_assert!(live.is_empty(), "events lost");
        prop_assert!(remaining.windows(2).all(|w| w[0] <= w[1]));
    }

    /// Engine time never runs backwards under arbitrary schedules.
    #[test]
    fn engine_time_is_monotone(delays in proptest::collection::vec(0.0f64..10.0, 1..50)) {
        let mut e: Engine<u32> = Engine::new();
        for (i, d) in delays.iter().enumerate() {
            e.schedule_after(SimDuration::from_secs(*d), i as u32);
        }
        let mut last = e.now();
        while let Some((t, _)) = e.pop_until(RealTime::from_secs(f64::INFINITY)) {
            prop_assert!(t >= last);
            last = t;
            prop_assert_eq!(e.now(), t);
        }
    }

    /// RNG streams: same label+index identical, any difference diverges.
    #[test]
    fn rng_streams_are_stable(seed in any::<u64>(), label in "[a-z]{1,8}", idx in 0u64..100) {
        let hub = RngHub::new(seed);
        let a: Vec<u64> = { let mut r = hub.stream(&label, idx); (0..8).map(|_| r.bits64()).collect() };
        let b: Vec<u64> = { let mut r = hub.stream(&label, idx); (0..8).map(|_| r.bits64()).collect() };
        prop_assert_eq!(&a, &b);
        let c: Vec<u64> = { let mut r = hub.stream(&label, idx + 1); (0..8).map(|_| r.bits64()).collect() };
        prop_assert_ne!(&a, &c);
    }

    /// Time arithmetic round-trips.
    #[test]
    fn time_arithmetic_roundtrips(a in -1e6f64..1e6, d in -1e6f64..1e6) {
        let t = RealTime::from_secs(a);
        let dur = SimDuration::from_secs(d);
        let t2 = t + dur;
        let tol = 1e-9 * (1.0 + a.abs() + d.abs());
        prop_assert!(((t2 - t).as_secs() - dur.as_secs()).abs() <= tol);
        prop_assert!(((t2 - dur) - t).as_secs().abs() <= tol);
    }
}
