//! Property-based tests for the sans-IO protocol node: arbitrary input
//! sequences must never panic, never produce malformed outputs, and keep
//! the round bookkeeping consistent.

use byzclock_clock::LocalTime;
use byzclock_core::{Input, Output, ProtocolParams, SyncNode, TimerKind, WireMessage};
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

/// Feeds one input through `handle_into` into a fresh buffer.
fn handle(node: &mut SyncNode, input: Input) -> Vec<Output> {
    let mut out = Vec::new();
    node.handle_into(input, &mut out);
    out
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
    /// its outputs are always well formed (sends target real peers, timers
    /// have positive delays, pongs echo exactly what was asked).
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
            let outputs = handle(&mut node, input);
            for out in &outputs {
                match out {
                    Output::Send { to, msg } => {
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
                    Output::SetTimer { after, .. } => {
                        prop_assert!(!after.is_negative());
                        prop_assert!(after.is_finite());
                    }
                    Output::AdjustClock { delta } => {
                        prop_assert!(!delta.as_secs().is_nan());
                    }
                    Output::RoundCompleted(s) => {
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
                Output::Send {
                    msg: WireMessage::Ping { round, nonce },
                    ..
                } => Some((*round, *nonce)),
                _ => None,
            })
            .unwrap();
        let mut all_outputs = Vec::new();
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
            all_outputs.extend(outs);
        }
        let adjustments = all_outputs
            .iter()
            .filter(|o| matches!(o, Output::AdjustClock { .. }))
            .count();
        prop_assert_eq!(adjustments, 1, "exactly one adjustment per round");
        let sync_armed = all_outputs.iter().any(|o| matches!(
            o,
            Output::SetTimer { kind: TimerKind::SyncDue, .. }
        ));
        prop_assert!(sync_armed, "next sync must be armed");
        prop_assert_eq!(node.rounds_completed(), 1, "the round must be over");
        // the adjustment is bounded by the honest estimate hull (all honest)
        let delta = all_outputs
            .iter()
            .find_map(|o| match o {
                Output::AdjustClock { delta } => Some(delta.as_secs()),
                _ => None,
            })
            .unwrap();
        let max_abs = peer_offsets.iter().fold(0.0f64, |a, b| a.max(b.abs())) + rtt;
        prop_assert!(delta.abs() <= max_abs + 1e-9, "delta {} too large", delta);
    }
}
