//! The driver boundary: what a host must provide to run a [`SyncNode`].
//!
//! The protocol core is sans-IO — every effect it wants is returned as an
//! [`Output`] — so the *only* thing distinguishing a deterministic
//! simulation from a real deployment is who executes those outputs. This
//! crate names that seam. A host implements three capabilities:
//!
//! | trait | capability | sim driver | live driver |
//! |---|---|---|---|
//! | [`Transport`]    | deliver wire messages        | modeled faulty network + event queue | UDP loopback sockets |
//! | [`TimerControl`] | arm / mass-cancel alarms     | exact local→real conversion on the engine | deadline map over `Instant` |
//! | [`ClockSource`]  | read & adjust the node clock | drifting piecewise-linear `LogicalClock` | real monotonic clock + `adj` |
//!
//! [`Driver`] glues them together and adds the round-completion
//! observability hook; [`apply_outputs`] is the single shared translation
//! from protocol [`Output`]s to capability calls, so every host executes
//! effects in the same order — which is what makes the sim driver's
//! behavior a faithful model of the live one, and what the golden
//! driver-equivalence test pins down bit for bit.
//!
//! The [`frame`] module carries the companion wire format (length-prefixed
//! binary frames over [`WireMessage`]) for real-socket transports.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod frame;

use byzclock_clock::LocalTime;
use byzclock_core::{Input, Output, RoundSummary, SyncNode, TimerKind, WireMessage};
use byzclock_sim::{ProcId, SimDuration};

/// Message transport: carry `msg` from `from` toward `to`.
///
/// Delivery may be delayed, duplicated, reordered or lost — the protocol
/// tolerates all of it. Implementations must not deliver synchronously
/// re-entrantly into the sending node.
pub trait Transport {
    /// Sends one protocol message.
    fn send(&mut self, from: ProcId, to: ProcId, msg: WireMessage);
}

/// Timer scheduling and cancellation for one node's local-time alarms.
pub trait TimerControl {
    /// Arms an alarm that fires when `node`'s *local* clock has advanced
    /// `after` units past its current reading.
    fn set_timer(&mut self, node: ProcId, after: SimDuration, kind: TimerKind);

    /// Atomically cancels every pending alarm of `node` — the crash /
    /// corruption semantics: the "thread" that would have fired them is
    /// gone (paper's recovery discussion), and a later
    /// [`Input::Start`] re-arms from scratch.
    fn cancel_all(&mut self, node: ProcId);
}

/// Per-node clock access: the paper's two permitted operations (read
/// `H_p + adj_p`; add to `adj_p`) and nothing else.
pub trait ClockSource {
    /// Reads `node`'s logical clock now.
    fn local_now(&mut self, node: ProcId) -> LocalTime;

    /// Adds `delta` to `node`'s adjustment variable (Figure 1 line 11/12).
    /// Hosts may apply it as an instant step or fold it in gradually
    /// (slew discipline).
    fn adjust_clock(&mut self, node: ProcId, delta: SimDuration);
}

/// A complete host for [`SyncNode`]s: the three capabilities plus
/// observability.
pub trait Driver: Transport + TimerControl + ClockSource {
    /// `node` completed a sync round (no action required; hosts surface it
    /// to observers / metrics).
    fn round_completed(&mut self, node: ProcId, summary: &RoundSummary) {
        let _ = (node, summary);
    }
}

/// Executes a batch of protocol outputs through the driver, in order.
///
/// This is the one place [`Output`] variants are mapped to capability
/// calls; every host shares it so the effect order — sends before the
/// timeout that guards them, adjustment before the round summary — is
/// identical under the sim and live drivers.
pub fn apply_outputs<D: Driver + ?Sized>(driver: &mut D, node: ProcId, outputs: &[Output]) {
    for &output in outputs {
        match output {
            Output::Send { to, msg } => driver.send(node, to, msg),
            Output::SetTimer { after, kind } => driver.set_timer(node, after, kind),
            Output::AdjustClock { delta } => driver.adjust_clock(node, delta),
            Output::RoundCompleted(summary) => driver.round_completed(node, &summary),
        }
    }
}

/// Feeds one input to a node and executes the resulting outputs.
///
/// `scratch` is a host-owned reusable buffer (zero steady-state
/// allocation). Hosts that store their nodes *inside* the driver state
/// (like the sim `World`) cannot borrow both at once and call
/// [`apply_outputs`] directly instead.
pub fn drive<D: Driver + ?Sized>(
    driver: &mut D,
    node: &mut SyncNode,
    input: Input,
    scratch: &mut Vec<Output>,
) {
    scratch.clear();
    node.handle_into(input, scratch);
    let id = node.id();
    apply_outputs(driver, id, scratch);
}

#[cfg(test)]
mod tests {
    use super::*;
    use byzclock_core::ProtocolParams;

    /// Records every capability call in order.
    #[derive(Default)]
    struct Log {
        calls: Vec<String>,
    }

    impl Transport for Log {
        fn send(&mut self, from: ProcId, to: ProcId, msg: WireMessage) {
            self.calls
                .push(format!("send {from}->{to} round {}", msg.round()));
        }
    }
    impl TimerControl for Log {
        fn set_timer(&mut self, node: ProcId, after: SimDuration, kind: TimerKind) {
            self.calls
                .push(format!("timer {node} +{} {kind:?}", after.as_secs()));
        }
        fn cancel_all(&mut self, node: ProcId) {
            self.calls.push(format!("cancel {node}"));
        }
    }
    impl ClockSource for Log {
        fn local_now(&mut self, _node: ProcId) -> LocalTime {
            LocalTime::from_secs(0.0)
        }
        fn adjust_clock(&mut self, node: ProcId, delta: SimDuration) {
            self.calls
                .push(format!("adjust {node} {}", delta.as_secs()));
        }
    }
    impl Driver for Log {
        fn round_completed(&mut self, node: ProcId, summary: &RoundSummary) {
            self.calls.push(format!("round {node} #{}", summary.round));
        }
    }

    #[test]
    fn outputs_map_to_capability_calls_in_order() {
        let mut log = Log::default();
        let outputs = [
            Output::Send {
                to: ProcId(1),
                msg: WireMessage::Ping { round: 3, nonce: 9 },
            },
            Output::SetTimer {
                after: SimDuration::from_secs(2.0),
                kind: TimerKind::SyncDue,
            },
            Output::AdjustClock {
                delta: SimDuration::from_secs(-0.5),
            },
            Output::RoundCompleted(RoundSummary {
                round: 3,
                adjustment: -0.5,
                responders: 2,
                timeouts: 1,
            }),
        ];
        apply_outputs(&mut log, ProcId(0), &outputs);
        assert_eq!(
            log.calls,
            vec![
                "send p0->p1 round 3",
                "timer p0 +2 SyncDue",
                "adjust p0 -0.5",
                "round p0 #3",
            ]
        );
    }

    #[test]
    fn drive_runs_start_through_the_driver() {
        let params = ProtocolParams::builder(4, 1)
            .sync_int(SimDuration::from_secs(5.0))
            .max_wait(SimDuration::from_secs(1.0))
            .way_off(9.0)
            .build()
            .unwrap();
        let mut node = SyncNode::new(ProcId(0), params);
        let mut log = Log::default();
        let mut scratch = Vec::new();
        drive(
            &mut log,
            &mut node,
            Input::Start {
                local_now: LocalTime::from_secs(0.0),
            },
            &mut scratch,
        );
        // a started node pings all three peers and arms its round timeout
        let sends = log.calls.iter().filter(|c| c.starts_with("send")).count();
        let timers = log.calls.iter().filter(|c| c.starts_with("timer")).count();
        assert_eq!(sends, 3, "{:?}", log.calls);
        assert!(timers >= 1, "{:?}", log.calls);
    }
}
