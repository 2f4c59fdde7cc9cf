//! Property-based tests for the sans-IO protocol node: arbitrary input
//! sequences must never panic, never ask the host for malformed effects or
//! for effects out of Figure 1's order, and keep the round bookkeeping
//! consistent.

use byzclock_clock::LocalTime;
use byzclock_core::{
    Driver, Input, ProtocolParams, RoundScratch, RoundSummary, SyncNode, TimerKind, WireMessage,
};
use byzclock_sim::{ProcId, SimDuration};
use proptest::prelude::*;

fn params(n: usize, f: usize, k: usize) -> ProtocolParams {
    ProtocolParams::builder(n, f)
        .sync_int(SimDuration::from_secs(10.0))
        .max_wait(SimDuration::from_secs(1.0))
        .way_off(5.0)
        .pings_per_peer(k)
        .build()
        .unwrap()
}

/// One call the node made on its driver.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Call {
    Send {
        from: ProcId,
        to: ProcId,
        msg: WireMessage,
    },
    SetTimer {
        node: ProcId,
        after: SimDuration,
        kind: TimerKind,
    },
    AdjustClock {
        node: ProcId,
        delta: SimDuration,
    },
    RoundCompleted {
        node: ProcId,
        summary: RoundSummary,
    },
}

/// A driver that records every call, in order.
#[derive(Default)]
struct Recorder(Vec<Call>);

impl Driver for Recorder {
    fn send(&mut self, from: ProcId, to: ProcId, msg: WireMessage) {
        self.0.push(Call::Send { from, to, msg });
    }
    fn set_timer(&mut self, node: ProcId, after: SimDuration, kind: TimerKind) {
        self.0.push(Call::SetTimer { node, after, kind });
    }
    fn adjust_clock(&mut self, node: ProcId, delta: SimDuration) {
        self.0.push(Call::AdjustClock { node, delta });
    }
    fn round_completed(&mut self, node: ProcId, summary: &RoundSummary) {
        self.0.push(Call::RoundCompleted {
            node,
            summary: *summary,
        });
    }
}

/// Feeds one input through `handle_into` with a fresh scratch and returns
/// the calls it made on the driver.
fn handle(node: &mut SyncNode, input: Input) -> Vec<Call> {
    let mut recorder = Recorder::default();
    node.handle_into(input, &mut RoundScratch::default(), &mut recorder);
    recorder.0
}

/// Names the shape of one input's calls, or `None` if it is none of
/// Figure 1's: nothing; one pong; a round's `pings` pings then its
/// timeout; or a completion's adjustment, report and next sync alarm.
fn shape(calls: &[Call], pings: usize) -> Option<&'static str> {
    match calls {
        [] => Some("nothing"),
        [Call::Send {
            msg: WireMessage::Pong { .. },
            ..
        }] => Some("pong"),
        [Call::AdjustClock { delta, .. }, Call::RoundCompleted { summary, .. }, Call::SetTimer {
            kind: TimerKind::SyncDue,
            ..
        }] if delta.as_secs().to_bits() == summary.adjustment.to_bits() => Some("completion"),
        [sends @ .., Call::SetTimer {
            kind: TimerKind::RoundTimeout { round },
            ..
        }] if sends.len() == pings
            && sends.iter().all(|c| {
                matches!(c, Call::Send { msg: WireMessage::Ping { round: r, .. }, .. } if r == round)
            }) =>
        {
            Some("round start")
        }
        _ => None,
    }
}

/// The node a call names as its own.
fn caller(call: &Call) -> ProcId {
    match *call {
        Call::Send { from, .. } => from,
        Call::SetTimer { node, .. }
        | Call::AdjustClock { node, .. }
        | Call::RoundCompleted { node, .. } => node,
    }
}

#[derive(Debug, Clone)]
enum Fuzz {
    Start,
    Ping {
        from: u32,
        round: u64,
        nonce: u64,
    },
    Pong {
        from: u32,
        round: u64,
        nonce: u64,
        clock: f64,
    },
    SyncDue,
    RoundTimeout {
        round: u64,
    },
}

fn fuzz_strategy() -> impl Strategy<Value = Fuzz> {
    prop_oneof![
        1 => Just(Fuzz::Start),
        3 => (0u32..12, 0u64..6, 0u64..4).prop_map(|(from, round, nonce)| Fuzz::Ping {
            from,
            round,
            nonce
        }),
        6 => (0u32..12, 0u64..6, 0u64..4, -1e6f64..1e6).prop_map(
            |(from, round, nonce, clock)| Fuzz::Pong {
                from,
                round,
                nonce,
                clock
            }
        ),
        2 => Just(Fuzz::SyncDue),
        2 => (0u64..6).prop_map(|round| Fuzz::RoundTimeout { round }),
    ]
}

proptest! {
    /// The node survives any input sequence with monotone local time, and
    /// its calls are always well formed (sends target real peers, timers
    /// have positive delays, pongs echo exactly what was asked) and come in
    /// one of Figure 1's orders.
    #[test]
    fn node_never_panics_and_outputs_are_well_formed(
        n in 4usize..10,
        k in 1usize..3,
        inputs in proptest::collection::vec(fuzz_strategy(), 0..120),
        time_steps in proptest::collection::vec(0.0f64..5.0, 0..120),
    ) {
        let f = (n - 1) / 3;
        let params = params(n, f, k);
        let mut node = SyncNode::new(ProcId(0), params);
        let mut local = 100.0;
        let mut rounds_seen = node.rounds_completed();
        for (i, fz) in inputs.iter().enumerate() {
            local += time_steps.get(i).copied().unwrap_or(0.1);
            let local_now = LocalTime::from_secs(local);
            let input = match *fz {
                Fuzz::Start => Input::Start { local_now },
                Fuzz::Ping { from, round, nonce } => Input::Message {
                    from: ProcId(from),
                    msg: WireMessage::Ping { round, nonce },
                    local_now,
                },
                Fuzz::Pong { from, round, nonce, clock } => Input::Message {
                    from: ProcId(from),
                    msg: WireMessage::Pong {
                        round,
                        nonce,
                        clock: LocalTime::from_secs(clock),
                    },
                    local_now,
                },
                Fuzz::SyncDue => Input::TimerFired {
                    timer: TimerKind::SyncDue,
                    local_now,
                },
                Fuzz::RoundTimeout { round } => Input::TimerFired {
                    timer: TimerKind::RoundTimeout { round },
                    local_now,
                },
            };
            let calls = handle(&mut node, input);
            prop_assert!(
                shape(&calls, (n - 1) * k).is_some(),
                "calls out of order for {:?}: {:?}", fz, calls
            );
            for call in &calls {
                prop_assert_eq!(caller(call), ProcId(0), "a call in another node's name");
                match call {
                    Call::Send { to, msg, .. } => {
                        prop_assert!(to.index() < n, "send outside the group");
                        // pings never target self; pongs answer whoever
                        // asked (a forged self-ping gets a self-pong, which
                        // the network layer drops)
                        if matches!(msg, WireMessage::Ping { .. }) {
                            prop_assert!(*to != ProcId(0), "node pinged itself");
                        }
                        if let WireMessage::Pong { round, nonce, .. } = msg {
                            // a pong is only ever a response to a ping we
                            // just received with those exact values
                            if let Fuzz::Ping { round: r, nonce: nc, .. } = fz {
                                prop_assert_eq!(*round, *r);
                                prop_assert_eq!(*nonce, *nc);
                            }
                        }
                    }
                    Call::SetTimer { after, .. } => {
                        prop_assert!(!after.is_negative());
                        prop_assert!(after.is_finite());
                    }
                    Call::AdjustClock { delta, .. } => {
                        prop_assert!(!delta.as_secs().is_nan());
                    }
                    Call::RoundCompleted { summary: s, .. } => {
                        prop_assert!(s.responders + 1 + s.timeouts <= n);
                    }
                }
            }
            // round counter is monotone
            prop_assert!(node.rounds_completed() >= rounds_seen);
            rounds_seen = node.rounds_completed();
        }
    }

    /// A full clean round with arbitrary (monotone) timing always completes
    /// with exactly one adjustment and re-arms the sync alarm.
    #[test]
    fn clean_round_always_completes(
        n in 4usize..8,
        peer_offsets in proptest::collection::vec(-0.5f64..0.5, 8),
        rtt in 0.001f64..0.9,
    ) {
        let f = (n - 1) / 3;
        let params = params(n, f, 1);
        let mut node = SyncNode::new(ProcId(0), params);
        let start = 50.0;
        let out = handle(&mut node, Input::Start {
            local_now: LocalTime::from_secs(start),
        });
        let (round, nonce) = out
            .iter()
            .find_map(|o| match o {
                Call::Send {
                    msg: WireMessage::Ping { round, nonce },
                    ..
                } => Some((*round, *nonce)),
                _ => None,
            })
            .unwrap();
        let mut all_calls = Vec::new();
        for q in 1..n {
            let offset = peer_offsets[q % peer_offsets.len()];
            let recv = start + rtt;
            let outs = handle(&mut node, Input::Message {
                from: ProcId(q as u32),
                msg: WireMessage::Pong {
                    round,
                    nonce,
                    clock: LocalTime::from_secs(start + rtt / 2.0 + offset),
                },
                local_now: LocalTime::from_secs(recv),
            });
            all_calls.extend(outs);
        }
        let adjustments = all_calls
            .iter()
            .filter(|o| matches!(o, Call::AdjustClock { .. }))
            .count();
        prop_assert_eq!(adjustments, 1, "exactly one adjustment per round");
        let sync_armed = all_calls.iter().any(|o| matches!(
            o,
            Call::SetTimer { kind: TimerKind::SyncDue, .. }
        ));
        prop_assert!(sync_armed, "next sync must be armed");
        prop_assert_eq!(node.rounds_completed(), 1, "the round must be over");
        // the adjustment is bounded by the honest estimate hull (all honest)
        let delta = all_calls
            .iter()
            .find_map(|o| match o {
                Call::AdjustClock { delta, .. } => Some(delta.as_secs()),
                _ => None,
            })
            .unwrap();
        let max_abs = peer_offsets.iter().fold(0.0f64, |a, b| a.max(b.abs())) + rtt;
        prop_assert!(delta.abs() <= max_abs + 1e-9, "delta {} too large", delta);
    }
}
