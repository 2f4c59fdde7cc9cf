//! The sans-IO `Sync` protocol state machine (paper Figure 1).
//!
//! [`SyncNode`] contains no clock, no network and no scheduler: every input
//! is stamped with the caller-provided local clock reading, and every
//! effect is returned as an [`Output`] for the host to execute. This is the
//! "sans-IO" style: the protocol is a pure function of its inputs, so every
//! line of Figure 1 is unit-testable without a simulator, and the same
//! state machine could be embedded in a real deployment.
//!
//! Protocol shape (one node):
//!
//! * Every `SyncInt` of local time, begin a round: ping all peers, arm a
//!   `MaxWait` timeout, record the send time `S` (the self-estimate is
//!   `(0, 0)`).
//! * Answer every incoming ping **immediately with the current clock** —
//!   the paper's "no rounds" property (Section 3.3): there is no per-round
//!   clock snapshot to maintain or recover.
//! * On each pong, compute `(d, a)` per Section 3.1; when all peers have
//!   answered, or on timeout (missing peers become `(0, ∞)`), apply the
//!   convergence function and adjust the clock.
//!
//! Recovery is just [`Input::Start`]: it abandons any in-flight round and
//! begins a fresh one. A recovering processor needs nothing else — exactly
//! the small-recovery-state argument the paper makes against round-based
//! protocols.

use byzclock_clock::LocalTime;
use byzclock_sim::{DetRng, ProcId, SimDuration};

use crate::convergence::{ConvergenceFn, ConvergenceScratch, PaperSync, PeerEstimate};
use crate::estimate::OffsetSample;
use crate::params::ProtocolParams;
use crate::wire::WireMessage;

/// Timers the node asks its host to arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimerKind {
    /// The periodic sync alarm (`SyncInt` after the previous round ended).
    SyncDue,
    /// The estimation timeout for the given round.
    RoundTimeout {
        /// Round this timeout belongs to; stale timeouts are ignored.
        round: u64,
    },
}

/// Everything that can happen to a node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Input {
    /// Start (or restart after recovery) the protocol.
    Start {
        /// Current local clock reading.
        local_now: LocalTime,
    },
    /// A message arrived.
    Message {
        /// Claimed sender (authenticated links: genuine unless the sender
        /// was corrupted).
        from: ProcId,
        /// The message.
        msg: WireMessage,
        /// Current local clock reading.
        local_now: LocalTime,
    },
    /// A previously armed timer fired.
    TimerFired {
        /// Which timer.
        timer: TimerKind,
        /// Current local clock reading.
        local_now: LocalTime,
    },
}

/// Effects the host must carry out.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Output {
    /// Send `msg` to `to`.
    Send {
        /// Destination processor.
        to: ProcId,
        /// The message.
        msg: WireMessage,
    },
    /// Arm a timer `after` local-time units from now.
    SetTimer {
        /// Local-time delay.
        after: SimDuration,
        /// Which timer.
        kind: TimerKind,
    },
    /// Add `delta` to the clock adjustment variable (Figure 1 line 11/12).
    AdjustClock {
        /// Seconds to add to `adj`.
        delta: SimDuration,
    },
    /// A sync round finished (observability hook; no action required).
    RoundCompleted(RoundSummary),
}

/// Statistics of one completed round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundSummary {
    /// The round number.
    pub round: u64,
    /// The adjustment applied, seconds.
    pub adjustment: f64,
    /// Peers (excluding self) whose pong arrived in time.
    pub responders: usize,
    /// Peers that timed out.
    pub timeouts: usize,
}

/// A host for [`SyncNode`]s: one method per [`Output`] variant.
///
/// The simulator's `World` and the UDP loopback runtime are the two
/// implementors. Figure 1 asks its host for three effects (send, arm a
/// local-time alarm, add to `adj_p`) plus the round report.
pub trait Driver {
    /// Carries `msg` from `from` toward `to`. Delivery may be delayed,
    /// duplicated, reordered or lost; it must not re-enter the sender.
    fn send(&mut self, from: ProcId, to: ProcId, msg: WireMessage);

    /// Arms an alarm that fires when `node`'s *local* clock has advanced
    /// `after` past its current reading.
    fn set_timer(&mut self, node: ProcId, after: SimDuration, kind: TimerKind);

    /// Adds `delta` to `node`'s adjustment variable (Figure 1 line 11/12),
    /// as an instant step or gradually (slew discipline).
    fn adjust_clock(&mut self, node: ProcId, delta: SimDuration);

    /// `node` completed a sync round; hosts surface it to observers.
    fn round_completed(&mut self, node: ProcId, summary: &RoundSummary);
}

/// Executes a batch of `node`'s outputs through the driver, in order.
///
/// This is the one place [`Output`] variants are mapped to driver calls,
/// so every host runs effects in the same order: sends before the timeout
/// that guards them, the adjustment before the round summary.
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

#[derive(Debug)]
struct ActiveRound {
    round: u64,
    nonce: u64,
    sent_at: LocalTime,
}

/// One processor's `Sync` protocol instance.
#[derive(Debug)]
pub struct SyncNode {
    id: ProcId,
    params: ProtocolParams,
    convergence: Box<dyn ConvergenceFn>,
    round: u64,
    active: Option<ActiveRound>,
    rounds_completed: u64,
    /// Anti-replay nonce stream. Seeded by the host ([`SyncNode::with_nonce_seed`])
    /// so nonces are unpredictable to peers yet the whole run stays a pure
    /// function of the world seed.
    nonces: DetRng,
    /// Collected pong samples of the active round, flat: peer `q`'s
    /// samples are `samples[q·k .. q·k + filled[q]]` for `k =
    /// pings_per_peer`, in arrival order. The self slot stays empty and is
    /// replaced by the exact `(0, 0)` sample at completion. Allocated once
    /// at construction, so rounds never allocate.
    samples: Vec<OffsetSample>,
    /// Pongs accepted from each peer in the active round (at most `k`,
    /// which is at most 64).
    filled: Vec<u8>,
    /// Peers (excluding self) still short of `k` pongs in the active
    /// round; the round completes early when this reaches zero.
    missing: usize,
    /// Reusable estimates buffer for round completion.
    estimates: Vec<PeerEstimate>,
    /// Reusable scratch for the convergence function's selection buffers.
    scratch: ConvergenceScratch,
}

impl SyncNode {
    /// Creates a node running the paper's convergence function.
    pub fn new(id: ProcId, params: ProtocolParams) -> Self {
        Self::with_convergence(id, params, Box::new(PaperSync))
    }

    /// Creates a node with an explicit convergence function (baselines).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for `params.n()`.
    pub fn with_convergence(
        id: ProcId,
        params: ProtocolParams,
        convergence: Box<dyn ConvergenceFn>,
    ) -> Self {
        assert!(id.index() < params.n(), "node id out of range");
        let n = params.n();
        let k = params.pings_per_peer();
        SyncNode {
            id,
            params,
            convergence,
            round: 0,
            active: None,
            rounds_completed: 0,
            // Stand-alone default: derived from the id so unseeded nodes
            // still get distinct streams. Hosts override via
            // `with_nonce_seed` with a fork of their root seed.
            nonces: DetRng::seeded(0x6E6F_6E63_6500_0000 ^ (id.index() as u64 + 1)),
            samples: vec![OffsetSample::TIMEOUT; n * k],
            filled: vec![0; n],
            missing: 0,
            estimates: Vec::with_capacity(n),
            scratch: ConvergenceScratch::with_capacity(n),
        }
    }

    /// Re-seeds the anti-replay nonce stream.
    ///
    /// A peer that can predict future-round nonces defeats the replay check
    /// in `on_pong`, so hosts must fork this seed from their root seed
    /// (giving every node an independent, unpredictable-to-peers stream)
    /// rather than derive it from public values like `(id, round)`.
    pub fn with_nonce_seed(mut self, seed: u64) -> Self {
        self.nonces = DetRng::seeded(seed);
        self
    }

    /// This node's id.
    pub fn id(&self) -> ProcId {
        self.id
    }

    /// The parameters the node runs with.
    pub fn params(&self) -> &ProtocolParams {
        &self.params
    }

    /// Current round counter.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Number of rounds completed since creation.
    pub fn rounds_completed(&self) -> u64 {
        self.rounds_completed
    }

    /// Feeds one input, appending the effects to execute (in order) to
    /// `out`. The buffer is not cleared — the caller owns its lifecycle —
    /// so a host can reuse one allocation across every call.
    pub fn handle_into(&mut self, input: Input, out: &mut Vec<Output>) {
        match input {
            Input::Start { local_now } => {
                // Recovery: abandon any in-flight round and start fresh.
                self.active = None;
                self.begin_round(local_now, out);
            }
            Input::Message {
                from,
                msg,
                local_now,
            } => match msg {
                WireMessage::Ping { round, nonce } => {
                    if from.index() >= self.params.n() {
                        // Authenticated links cannot carry traffic from
                        // non-existent processors; drop defensively.
                        return;
                    }
                    // "No rounds": always answer with the live clock.
                    out.push(Output::Send {
                        to: from,
                        msg: WireMessage::Pong {
                            round,
                            nonce,
                            clock: local_now,
                        },
                    });
                }
                WireMessage::Pong {
                    round,
                    nonce,
                    clock,
                } => self.on_pong(from, round, nonce, clock, local_now, out),
            },
            Input::TimerFired { timer, local_now } => match timer {
                TimerKind::SyncDue => {
                    if self.active.is_none() {
                        self.begin_round(local_now, out);
                    }
                    // else: a SyncDue racing an in-flight round (possible
                    // after a host-driven restart): ignore, the round's
                    // completion will re-arm the alarm.
                }
                TimerKind::RoundTimeout { round } => self.on_round_timeout(round, out),
            },
        }
    }

    /// Bumps the round number and draws that round's anti-replay nonce.
    pub(crate) fn next_round(&mut self) -> (u64, u64) {
        self.round += 1;
        (self.round, self.nonces.bits64())
    }

    fn begin_round(&mut self, local_now: LocalTime, out: &mut Vec<Output>) {
        let (round, nonce) = self.next_round();
        let n = self.params.n();
        let k = self.params.pings_per_peer();
        self.active = Some(ActiveRound {
            round,
            nonce,
            sent_at: local_now,
        });
        // Reuse the node-owned flat sample storage: only the fill counts
        // reset, so rounds allocate nothing.
        self.filled.fill(0);
        self.missing = n - 1;
        // Section 3.1's min-RTT refinement: k pings per peer; the replies
        // are filtered by smallest round trip at completion. Pre-size the
        // fan-out so a reused scratch buffer grows at most once.
        out.reserve((n - 1) * k + 1);
        for q in ProcId::all(n).filter(|q| *q != self.id) {
            for _ in 0..k {
                out.push(Output::Send {
                    to: q,
                    msg: WireMessage::Ping { round, nonce },
                });
            }
        }
        out.push(Output::SetTimer {
            after: self.params.max_wait(),
            kind: TimerKind::RoundTimeout { round },
        });
    }

    fn on_pong(
        &mut self,
        from: ProcId,
        round: u64,
        nonce: u64,
        clock: LocalTime,
        local_now: LocalTime,
        out: &mut Vec<Output>,
    ) {
        let k = self.params.pings_per_peer();
        if !clock.as_secs().is_finite() {
            // A Byzantine peer reporting ±∞ (or NaN) would flow straight
            // into the convergence function's (m+M)/2 and poison the
            // adjustment; drop it so the slot resolves via TIMEOUT instead.
            return;
        }
        let Some(active) = self.active.as_ref() else {
            return; // stale pong after round completion
        };
        if active.round != round || active.nonce != nonce {
            return; // wrong round or replay
        }
        let q = from.index();
        if q >= self.filled.len() || from == self.id {
            return; // nonsensical sender
        }
        let filled = usize::from(self.filled[q]);
        if filled >= k {
            return; // more pongs than pings: duplicate/forged
        }
        if local_now < active.sent_at {
            // The local clock cannot run backwards between S and R without
            // an adjustment, and we never adjust mid-round; defensive skip.
            return;
        }
        self.samples[q * k + filled] =
            OffsetSample::from_ping_pong(active.sent_at, local_now, clock);
        self.filled[q] += 1;
        if filled + 1 == k {
            self.missing -= 1;
            if self.missing == 0 {
                self.complete_round(out);
            }
        }
    }

    fn on_round_timeout(&mut self, round: u64, out: &mut Vec<Output>) {
        let Some(active) = self.active.as_ref() else {
            return; // stale timeout (round completed early)
        };
        if active.round != round {
            return;
        }
        self.complete_round(out);
    }

    fn complete_round(&mut self, out: &mut Vec<Output>) {
        // Both callers check `active` first, but a panic here would take the
        // whole world down mid-event — degrade to a no-op instead (D5).
        let Some(active) = self.active.take() else {
            return;
        };
        let k = self.params.pings_per_peer();
        // Moved out (no allocation) so `converge` can borrow the node.
        let samples = std::mem::take(&mut self.samples);
        let filled = std::mem::take(&mut self.filled);
        self.converge(
            active.round,
            // min-RTT filter; TIMEOUT if no pong arrived at all
            |q| OffsetSample::best_of(&samples[q * k..q * k + usize::from(filled[q])]),
            out,
        );
        self.samples = samples;
        self.filled = filled;
    }

    /// Figure 1's convergence step, the one round-completion path: builds
    /// the `n` estimates — the exact `(0, 0)` for self ("for each
    /// q ∈ {1..n}" includes p) and `sample_of(q)` for each peer `q` — runs
    /// the convergence function, and emits `AdjustClock`, `RoundCompleted`
    /// for `round`, and the next `SyncDue` alarm.
    pub(crate) fn converge(
        &mut self,
        round: u64,
        sample_of: impl Fn(usize) -> OffsetSample,
        out: &mut Vec<Output>,
    ) {
        self.estimates.clear();
        for i in 0..self.params.n() {
            self.estimates.push(PeerEstimate {
                peer: ProcId(i as u32),
                sample: if i == self.id.index() {
                    OffsetSample {
                        offset: 0.0,
                        error: 0.0,
                    }
                } else {
                    sample_of(i)
                },
            });
        }
        let timeouts = self
            .estimates
            .iter()
            .filter(|e| e.sample.is_timeout())
            .count();
        let responders = self.estimates.len() - timeouts - 1; // minus self
        let delta = self.convergence.adjustment_scratch(
            self.params.f(),
            self.params.way_off(),
            &self.estimates,
            &mut self.scratch,
        );
        self.rounds_completed += 1;
        out.extend([
            Output::AdjustClock {
                delta: SimDuration::from_secs(delta),
            },
            Output::RoundCompleted(RoundSummary {
                round,
                adjustment: delta,
                responders,
                timeouts,
            }),
            Output::SetTimer {
                after: self.params.sync_int(),
                kind: TimerKind::SyncDue,
            },
        ]);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    impl SyncNode {
        /// True iff an estimation round is in flight.
        pub(crate) fn is_round_active(&self) -> bool {
            self.active.is_some()
        }
    }

    pub(crate) fn params(n: usize, f: usize) -> ProtocolParams {
        ProtocolParams::builder(n, f)
            .sync_int(SimDuration::from_secs(10.0))
            .max_wait(SimDuration::from_secs(1.0))
            .way_off(5.0)
            .build()
            .unwrap()
    }

    pub(crate) fn lt(s: f64) -> LocalTime {
        LocalTime::from_secs(s)
    }

    /// Feeds one input through `handle_into` into a fresh buffer.
    fn handle(node: &mut SyncNode, input: Input) -> Vec<Output> {
        let mut out = Vec::new();
        node.handle_into(input, &mut out);
        out
    }

    fn start(node: &mut SyncNode, at: f64) -> Vec<Output> {
        handle(node, Input::Start { local_now: lt(at) })
    }

    /// Records every driver call in order.
    #[derive(Default)]
    struct Log {
        calls: Vec<String>,
    }

    impl Driver for Log {
        fn send(&mut self, from: ProcId, to: ProcId, msg: WireMessage) {
            self.calls
                .push(format!("send {from}->{to} round {}", msg.round()));
        }
        fn set_timer(&mut self, node: ProcId, after: SimDuration, kind: TimerKind) {
            self.calls
                .push(format!("timer {node} +{} {kind:?}", after.as_secs()));
        }
        fn adjust_clock(&mut self, node: ProcId, delta: SimDuration) {
            self.calls
                .push(format!("adjust {node} {}", delta.as_secs()));
        }
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

    pub(crate) fn extract_ping(outputs: &[Output], to: ProcId) -> (u64, u64) {
        outputs
            .iter()
            .find_map(|o| match o {
                Output::Send {
                    to: t,
                    msg: WireMessage::Ping { round, nonce },
                } if *t == to => Some((*round, *nonce)),
                _ => None,
            })
            .expect("ping to peer not found")
    }

    pub(crate) fn pong(from: u32, round: u64, nonce: u64, clock: f64, local_now: f64) -> Input {
        Input::Message {
            from: ProcId(from),
            msg: WireMessage::Pong {
                round,
                nonce,
                clock: lt(clock),
            },
            local_now: lt(local_now),
        }
    }

    #[test]
    fn handle_into_appends_without_clearing() {
        // Two identically-seeded nodes: one fed into a fresh buffer, one
        // into a reused buffer that already holds an item — same outputs.
        let mut a = SyncNode::new(ProcId(0), params(4, 1)).with_nonce_seed(9);
        let mut b = SyncNode::new(ProcId(0), params(4, 1)).with_nonce_seed(9);
        let mut buf = vec![Output::RoundCompleted(RoundSummary {
            round: 0,
            adjustment: 0.0,
            responders: 0,
            timeouts: 0,
        })];
        let input = Input::Start { local_now: lt(3.0) };
        let fresh = handle(&mut a, input);
        b.handle_into(input, &mut buf);
        assert_eq!(&buf[1..], &fresh[..], "appended after existing item");
        assert!(matches!(buf[0], Output::RoundCompleted(_)));
    }

    #[test]
    fn start_pings_all_peers_and_arms_timeout() {
        let mut node = SyncNode::new(ProcId(0), params(4, 1));
        let out = start(&mut node, 100.0);
        let pings: Vec<ProcId> = out
            .iter()
            .filter_map(|o| match o {
                Output::Send {
                    to,
                    msg: WireMessage::Ping { .. },
                } => Some(*to),
                _ => None,
            })
            .collect();
        assert_eq!(pings, vec![ProcId(1), ProcId(2), ProcId(3)]);
        assert!(out.iter().any(|o| matches!(
            o,
            Output::SetTimer {
                after,
                kind: TimerKind::RoundTimeout { round: 1 }
            } if *after == SimDuration::from_secs(1.0)
        )));
        assert!(node.is_round_active());
        assert_eq!(node.round(), 1);
    }

    #[test]
    fn ping_always_answered_with_current_clock() {
        let mut node = SyncNode::new(ProcId(2), params(4, 1));
        // Not even started — still answers (the paper's responsiveness).
        let out = handle(
            &mut node,
            Input::Message {
                from: ProcId(0),
                msg: WireMessage::Ping { round: 9, nonce: 7 },
                local_now: lt(55.5),
            },
        );
        assert_eq!(
            out,
            vec![Output::Send {
                to: ProcId(0),
                msg: WireMessage::Pong {
                    round: 9,
                    nonce: 7,
                    clock: lt(55.5)
                }
            }]
        );
    }

    #[test]
    fn full_round_with_all_pongs_completes_early() {
        let mut node = SyncNode::new(ProcId(0), params(4, 1));
        let out = start(&mut node, 100.0);
        let (round, nonce) = extract_ping(&out, ProcId(1));
        // All peers claim clock = 100.2 when we receive at 100.4:
        // d = 100.2 - (100.4+100.0)/2 = 0.0, a = 0.2
        assert!(handle(&mut node, pong(1, round, nonce, 100.2, 100.4)).is_empty());
        assert!(handle(&mut node, pong(2, round, nonce, 100.2, 100.4)).is_empty());
        let out = handle(&mut node, pong(3, round, nonce, 100.2, 100.4));
        assert!(!node.is_round_active(), "round completed early");
        let adjust = out.iter().find_map(|o| match o {
            Output::AdjustClock { delta } => Some(*delta),
            _ => None,
        });
        // All estimates agree d=0 (a=0.2): m = 0.2, M = -0.2 → within
        // way_off → (min(0.2,0)+max(-0.2,0))/2 = 0
        assert_eq!(adjust, Some(SimDuration::ZERO));
        let summary = out
            .iter()
            .find_map(|o| match o {
                Output::RoundCompleted(s) => Some(*s),
                _ => None,
            })
            .unwrap();
        assert_eq!(summary.responders, 3);
        assert_eq!(summary.timeouts, 0);
        assert_eq!(summary.round, 1);
        // next sync armed
        assert!(out.iter().any(|o| matches!(
            o,
            Output::SetTimer {
                after,
                kind: TimerKind::SyncDue
            } if *after == SimDuration::from_secs(10.0)
        )));
        assert_eq!(node.rounds_completed(), 1);
    }

    #[test]
    fn round_applies_positive_adjustment_when_behind() {
        let mut node = SyncNode::new(ProcId(0), params(4, 1));
        let out = start(&mut node, 0.0);
        let (round, nonce) = extract_ping(&out, ProcId(1));
        // Peers are 2 s ahead, symmetric exchange: send 0, recv 0.2,
        // peer clock 2.1 → d = 2.1 - 0.1 = 2.0, a = 0.1.
        for p in [1u32, 2] {
            handle(&mut node, pong(p, round, nonce, 2.1, 0.2));
        }
        let out = handle(&mut node, pong(3, round, nonce, 2.1, 0.2));
        let delta = out
            .iter()
            .find_map(|o| match o {
                Output::AdjustClock { delta } => Some(delta.as_secs()),
                _ => None,
            })
            .unwrap();
        // m = 2.1, M = 1.9 → both beyond way_off? way_off=5 → within.
        // min(m,0)=0, max(M,0)=1.9 → delta = 0.95
        assert!((delta - 0.95).abs() < 1e-12, "delta={delta}");
    }

    #[test]
    fn timeout_fills_missing_with_sentinels() {
        let mut node = SyncNode::new(ProcId(0), params(4, 1));
        let out = start(&mut node, 0.0);
        let (round, nonce) = extract_ping(&out, ProcId(1));
        handle(&mut node, pong(1, round, nonce, 0.05, 0.1));
        handle(&mut node, pong(2, round, nonce, 0.05, 0.1));
        // peer 3 never answers
        let out = handle(
            &mut node,
            Input::TimerFired {
                timer: TimerKind::RoundTimeout { round },
                local_now: lt(1.0),
            },
        );
        let summary = out
            .iter()
            .find_map(|o| match o {
                Output::RoundCompleted(s) => Some(*s),
                _ => None,
            })
            .unwrap();
        assert_eq!(summary.responders, 2);
        assert_eq!(summary.timeouts, 1);
        assert!(!node.is_round_active());
    }

    #[test]
    fn stale_round_timeout_is_ignored() {
        let mut node = SyncNode::new(ProcId(0), params(4, 1));
        let out = start(&mut node, 0.0);
        let (round, nonce) = extract_ping(&out, ProcId(1));
        for p in [1u32, 2, 3] {
            handle(&mut node, pong(p, round, nonce, 0.0, 0.1));
        }
        assert!(!node.is_round_active());
        // timeout for the completed round arrives late: no effect
        let out = handle(
            &mut node,
            Input::TimerFired {
                timer: TimerKind::RoundTimeout { round },
                local_now: lt(1.0),
            },
        );
        assert!(out.is_empty());
        assert_eq!(node.rounds_completed(), 1);
    }

    #[test]
    fn wrong_nonce_or_round_pong_ignored() {
        let mut node = SyncNode::new(ProcId(0), params(4, 1));
        let out = start(&mut node, 0.0);
        let (round, nonce) = extract_ping(&out, ProcId(1));
        assert!(handle(&mut node, pong(1, round + 1, nonce, 0.0, 0.1)).is_empty());
        assert!(handle(&mut node, pong(1, round, nonce ^ 1, 0.0, 0.1)).is_empty());
        // the correct pong still counts afterwards
        handle(&mut node, pong(1, round, nonce, 0.0, 0.1));
        handle(&mut node, pong(2, round, nonce, 0.0, 0.1));
        let out = handle(&mut node, pong(3, round, nonce, 0.0, 0.1));
        assert!(out.iter().any(|o| matches!(o, Output::RoundCompleted(_))));
    }

    #[test]
    fn duplicate_pong_ignored() {
        let mut node = SyncNode::new(ProcId(0), params(4, 1));
        let out = start(&mut node, 0.0);
        let (round, nonce) = extract_ping(&out, ProcId(1));
        handle(&mut node, pong(1, round, nonce, 0.0, 0.1));
        // Byzantine duplicate with a wildly different clock
        assert!(handle(&mut node, pong(1, round, nonce, 99.0, 0.2)).is_empty());
        handle(&mut node, pong(2, round, nonce, 0.0, 0.2));
        let out = handle(&mut node, pong(3, round, nonce, 0.0, 0.2));
        let delta = out
            .iter()
            .find_map(|o| match o {
                Output::AdjustClock { delta } => Some(delta.as_secs()),
                _ => None,
            })
            .unwrap();
        assert!(delta.abs() < 0.2, "duplicate must not poison: {delta}");
    }

    #[test]
    fn pong_from_self_or_out_of_range_ignored() {
        let mut node = SyncNode::new(ProcId(0), params(4, 1));
        let out = start(&mut node, 0.0);
        let (round, nonce) = extract_ping(&out, ProcId(1));
        assert!(handle(&mut node, pong(0, round, nonce, 0.0, 0.1)).is_empty());
        assert!(handle(&mut node, pong(9, round, nonce, 0.0, 0.1)).is_empty());
    }

    #[test]
    fn pong_before_send_time_ignored_defensively() {
        let mut node = SyncNode::new(ProcId(0), params(4, 1));
        let out = start(&mut node, 10.0);
        let (round, nonce) = extract_ping(&out, ProcId(1));
        // local_now < sent_at: impossible without mid-round adjustment
        assert!(handle(&mut node, pong(1, round, nonce, 10.0, 9.0)).is_empty());
    }

    #[test]
    fn sync_due_starts_next_round() {
        let mut node = SyncNode::new(ProcId(0), params(4, 1));
        let out = start(&mut node, 0.0);
        let (round, nonce) = extract_ping(&out, ProcId(1));
        for p in [1u32, 2, 3] {
            handle(&mut node, pong(p, round, nonce, 0.0, 0.1));
        }
        let out = handle(
            &mut node,
            Input::TimerFired {
                timer: TimerKind::SyncDue,
                local_now: lt(10.1),
            },
        );
        assert_eq!(node.round(), 2);
        assert!(node.is_round_active());
        let (r2, _) = extract_ping(&out, ProcId(1));
        assert_eq!(r2, 2);
    }

    #[test]
    fn sync_due_during_active_round_is_ignored() {
        let mut node = SyncNode::new(ProcId(0), params(4, 1));
        start(&mut node, 0.0);
        let out = handle(
            &mut node,
            Input::TimerFired {
                timer: TimerKind::SyncDue,
                local_now: lt(0.5),
            },
        );
        assert!(out.is_empty());
        assert_eq!(node.round(), 1);
    }

    #[test]
    fn restart_aborts_round_and_bumps_round_number() {
        let mut node = SyncNode::new(ProcId(0), params(4, 1));
        let out = start(&mut node, 0.0);
        let (r1, n1) = extract_ping(&out, ProcId(1));
        // recovery restart mid-round
        let out = start(&mut node, 500.0);
        let (r2, n2) = extract_ping(&out, ProcId(1));
        assert_eq!(r2, r1 + 1);
        assert_ne!(n1, n2);
        // pong for the aborted round is ignored
        assert!(handle(&mut node, pong(1, r1, n1, 0.0, 500.1)).is_empty());
        // pongs for the new round work
        handle(&mut node, pong(1, r2, n2, 500.0, 500.1));
        handle(&mut node, pong(2, r2, n2, 500.0, 500.1));
        let out = handle(&mut node, pong(3, r2, n2, 500.0, 500.1));
        assert!(out.iter().any(|o| matches!(o, Output::RoundCompleted(_))));
    }

    #[test]
    fn way_off_recovery_jump() {
        // Node's clock is 100 s behind its peers; way_off = 5 → the round
        // must jump (m+M)/2 ≈ 100 in one adjustment.
        let mut node = SyncNode::new(ProcId(0), params(4, 1));
        let out = start(&mut node, 0.0);
        let (round, nonce) = extract_ping(&out, ProcId(1));
        for p in [1u32, 2] {
            handle(&mut node, pong(p, round, nonce, 100.05, 0.1));
        }
        let out = handle(&mut node, pong(3, round, nonce, 100.05, 0.1));
        let delta = out
            .iter()
            .find_map(|o| match o {
                Output::AdjustClock { delta } => Some(delta.as_secs()),
                _ => None,
            })
            .unwrap();
        assert!((delta - 100.0).abs() < 0.1, "expected jump, got {delta}");
    }

    /// Drives one full round to completion and returns the nonce it used.
    fn run_round_nonce(node: &mut SyncNode, at: f64) -> u64 {
        let out = if node.round() == 0 {
            start(node, at)
        } else {
            handle(
                node,
                Input::TimerFired {
                    timer: TimerKind::SyncDue,
                    local_now: lt(at),
                },
            )
        };
        let (round, nonce) = extract_ping(&out, ProcId(1));
        for p in [1u32, 2, 3] {
            handle(node, pong(p, round, nonce, at, at + 0.1));
        }
        nonce
    }

    #[test]
    fn nonces_differ_across_nodes_and_rounds() {
        let mut a = SyncNode::new(ProcId(0), params(4, 1)).with_nonce_seed(1);
        let mut b = SyncNode::new(ProcId(1), params(4, 1)).with_nonce_seed(2);
        let a1 = run_round_nonce(&mut a, 0.0);
        let a2 = run_round_nonce(&mut a, 10.1);
        let out = start(&mut b, 0.0);
        let b1 = extract_ping(&out, ProcId(0)).1;
        assert_ne!(a1, a2);
        assert_ne!(a1, b1);
    }

    #[test]
    fn nonces_are_not_predictable_from_id_and_round() {
        // Same (id, round) under different seeds must yield different
        // nonces — a peer knowing only public values cannot forge pongs.
        let out1 = start(
            &mut SyncNode::new(ProcId(0), params(4, 1)).with_nonce_seed(10),
            0.0,
        );
        let out2 = start(
            &mut SyncNode::new(ProcId(0), params(4, 1)).with_nonce_seed(11),
            0.0,
        );
        assert_ne!(
            extract_ping(&out1, ProcId(1)).1,
            extract_ping(&out2, ProcId(1)).1
        );
        // ... while the same seed reproduces the same stream (determinism).
        let out3 = start(
            &mut SyncNode::new(ProcId(0), params(4, 1)).with_nonce_seed(10),
            0.0,
        );
        assert_eq!(
            extract_ping(&out1, ProcId(1)).1,
            extract_ping(&out3, ProcId(1)).1
        );
    }

    #[test]
    fn non_finite_pong_clock_is_rejected() {
        // A Byzantine ±∞ clock must not reach the convergence function,
        // where it would poison (m+M)/2 and emit a non-finite adjustment.
        let mut node = SyncNode::new(ProcId(0), params(4, 1));
        let out = start(&mut node, 0.0);
        let (round, nonce) = extract_ping(&out, ProcId(1));
        assert!(handle(&mut node, pong(1, round, nonce, f64::INFINITY, 0.1)).is_empty());
        assert!(handle(&mut node, pong(1, round, nonce, f64::NEG_INFINITY, 0.1)).is_empty());
        handle(&mut node, pong(2, round, nonce, 0.0, 0.1));
        handle(&mut node, pong(3, round, nonce, 0.0, 0.1));
        assert!(node.is_round_active(), "poisoned pong must not fill slot 1");
        // Peer 1 resolves via the TIMEOUT path; the adjustment stays finite.
        let out = handle(
            &mut node,
            Input::TimerFired {
                timer: TimerKind::RoundTimeout { round },
                local_now: lt(1.0),
            },
        );
        let delta = out
            .iter()
            .find_map(|o| match o {
                Output::AdjustClock { delta } => Some(delta.as_secs()),
                _ => None,
            })
            .unwrap();
        assert!(delta.is_finite(), "adjustment poisoned: {delta}");
        let summary = out
            .iter()
            .find_map(|o| match o {
                Output::RoundCompleted(s) => Some(*s),
                _ => None,
            })
            .unwrap();
        assert_eq!(summary.timeouts, 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn id_out_of_range_panics() {
        SyncNode::new(ProcId(9), params(4, 1));
    }

    #[test]
    fn multi_ping_sends_k_pings_per_peer() {
        let params = ProtocolParams::builder(4, 1)
            .sync_int(SimDuration::from_secs(10.0))
            .max_wait(SimDuration::from_secs(1.0))
            .way_off(5.0)
            .pings_per_peer(3)
            .build()
            .unwrap();
        let mut node = SyncNode::new(ProcId(0), params);
        let out = start(&mut node, 0.0);
        let pings = out
            .iter()
            .filter(|o| {
                matches!(
                    o,
                    Output::Send {
                        msg: WireMessage::Ping { .. },
                        ..
                    }
                )
            })
            .count();
        assert_eq!(pings, 9, "3 peers x 3 pings");
    }

    #[test]
    fn multi_ping_uses_best_sample_per_peer() {
        let params = ProtocolParams::builder(4, 1)
            .sync_int(SimDuration::from_secs(10.0))
            .max_wait(SimDuration::from_secs(1.0))
            .way_off(500.0)
            .pings_per_peer(2)
            .build()
            .unwrap();
        let mut node = SyncNode::new(ProcId(0), params);
        let out = start(&mut node, 0.0);
        let (round, nonce) = extract_ping(&out, ProcId(1));
        // Each peer answers twice: one wide-RTT pong whose offset estimate
        // is poisoned (d = 5.4 - 0.4 = 5.0, a = 0.4) and one tight pong
        // carrying the true offset 2.0 (d = 2.01 - 0.01 = 2.0, a = 0.01).
        for p in [1u32, 2, 3] {
            handle(&mut node, pong(p, round, nonce, 5.4, 0.8));
        }
        let mut last = Vec::new();
        for p in [1u32, 2, 3] {
            last = handle(&mut node, pong(p, round, nonce, 2.01, 0.02));
        }
        assert!(!node.is_round_active(), "all k samples collected");
        let delta = last
            .iter()
            .find_map(|o| match o {
                Output::AdjustClock { delta } => Some(delta.as_secs()),
                _ => None,
            })
            .unwrap();
        // With min-RTT filtering the convergence sees the tight samples
        // (offset 2.0): the own-clock-respecting midpoint is ~1.0. Had the
        // wide samples won, delta would be ~2.3.
        assert!((0.9..=1.1).contains(&delta), "delta = {delta}");
    }

    #[test]
    fn multi_ping_excess_pongs_rejected() {
        let params = ProtocolParams::builder(4, 1)
            .sync_int(SimDuration::from_secs(10.0))
            .max_wait(SimDuration::from_secs(1.0))
            .way_off(5.0)
            .pings_per_peer(2)
            .build()
            .unwrap();
        let mut node = SyncNode::new(ProcId(0), params);
        let out = start(&mut node, 0.0);
        let (round, nonce) = extract_ping(&out, ProcId(1));
        handle(&mut node, pong(1, round, nonce, 0.0, 0.1));
        handle(&mut node, pong(1, round, nonce, 0.0, 0.1));
        // third pong from the same peer is dropped (forgery/replay)
        assert!(handle(&mut node, pong(1, round, nonce, 99.0, 0.2)).is_empty());
    }

    /// The round storage `SyncNode` used before the flat layout: one `Vec`
    /// per peer, and a scan of every peer after each accepted pong. Kept
    /// as the reference the flat storage must match output for output.
    struct NestedRounds {
        params: ProtocolParams,
        me: ProcId,
        active: Option<ActiveRound>,
        samples: Vec<Vec<OffsetSample>>,
        estimates: Vec<PeerEstimate>,
        scratch: ConvergenceScratch,
    }

    impl NestedRounds {
        fn new(me: ProcId, params: ProtocolParams) -> Self {
            NestedRounds {
                params,
                me,
                active: None,
                samples: vec![Vec::new(); params.n()],
                estimates: Vec::new(),
                scratch: ConvergenceScratch::new(),
            }
        }

        fn begin(&mut self, round: u64, nonce: u64, sent_at: LocalTime) {
            self.active = Some(ActiveRound {
                round,
                nonce,
                sent_at,
            });
            for slot in &mut self.samples {
                slot.clear();
            }
        }

        fn pong(&mut self, input: Input) -> Vec<Output> {
            let Input::Message {
                from,
                msg:
                    WireMessage::Pong {
                        round,
                        nonce,
                        clock,
                    },
                local_now,
            } = input
            else {
                panic!("not a pong: {input:?}");
            };
            let k = self.params.pings_per_peer();
            if !clock.as_secs().is_finite() {
                return Vec::new();
            }
            let Some(active) = self.active.as_ref() else {
                return Vec::new();
            };
            if active.round != round || active.nonce != nonce {
                return Vec::new();
            }
            if from.index() >= self.samples.len() || from == self.me {
                return Vec::new();
            }
            if self.samples[from.index()].len() >= k || local_now < active.sent_at {
                return Vec::new();
            }
            let sample = OffsetSample::from_ping_pong(active.sent_at, local_now, clock);
            self.samples[from.index()].push(sample);
            let all_full = self
                .samples
                .iter()
                .enumerate()
                .all(|(i, s)| i == self.me.index() || s.len() == k);
            if all_full {
                self.complete()
            } else {
                Vec::new()
            }
        }

        fn timeout(&mut self, round: u64) -> Vec<Output> {
            match &self.active {
                Some(active) if active.round == round => self.complete(),
                _ => Vec::new(),
            }
        }

        fn complete(&mut self) -> Vec<Output> {
            let active = self.active.take().expect("round in flight");
            self.estimates.clear();
            for (i, samples) in self.samples.iter().enumerate() {
                self.estimates.push(PeerEstimate {
                    peer: ProcId(i as u32),
                    sample: if i == self.me.index() {
                        OffsetSample {
                            offset: 0.0,
                            error: 0.0,
                        }
                    } else {
                        OffsetSample::best_of(samples)
                    },
                });
            }
            let timeouts = self
                .estimates
                .iter()
                .filter(|e| e.sample.is_timeout())
                .count();
            let delta = PaperSync.adjustment_scratch(
                self.params.f(),
                self.params.way_off(),
                &self.estimates,
                &mut self.scratch,
            );
            vec![
                Output::AdjustClock {
                    delta: SimDuration::from_secs(delta),
                },
                Output::RoundCompleted(RoundSummary {
                    round: active.round,
                    adjustment: delta,
                    responders: self.estimates.len() - timeouts - 1,
                    timeouts,
                }),
                Output::SetTimer {
                    after: self.params.sync_int(),
                    kind: TimerKind::SyncDue,
                },
            ]
        }
    }

    /// One round's pong traffic, shuffled: every peer's `k` genuine pongs
    /// (one of them withheld if `withhold`, so the round can only end by
    /// timeout), mixed with duplicates beyond `k`, pongs for the wrong
    /// round or nonce, pongs from self or from out-of-range senders,
    /// non-finite clocks and receipts before the send time. Round trips and
    /// offsets come from small grids, so equal round trips — the min-RTT
    /// filter's tie case — are common.
    fn round_traffic(
        rng: &mut DetRng,
        n: usize,
        k: usize,
        me: usize,
        (round, nonce): (u64, u64),
        at: f64,
        withhold: bool,
    ) -> Vec<Input> {
        let genuine = |rng: &mut DetRng, from: usize| {
            let rtt = 0.1 * (1 + rng.index(3)) as f64;
            let offset = 0.25 * rng.index(5) as f64 - 0.5;
            pong(from as u32, round, nonce, at + rtt / 2.0 + offset, at + rtt)
        };
        let mut traffic = Vec::new();
        for q in (0..n).filter(|q| *q != me) {
            for _ in 0..k {
                traffic.push(genuine(rng, q));
            }
        }
        if withhold {
            let i = rng.index(traffic.len());
            traffic.swap_remove(i);
        }
        for _ in 0..rng.index(2 * n) {
            let from = rng.index(n);
            traffic.push(match rng.index(7) {
                0 => genuine(rng, from),
                1 => pong(from as u32, round + 1, nonce, at, at + 0.1),
                2 => pong(from as u32, round, nonce ^ 1, at, at + 0.1),
                3 => pong(me as u32, round, nonce, at, at + 0.1),
                4 => pong((n + rng.index(3)) as u32, round, nonce, at, at + 0.1),
                5 => pong(from as u32, round, nonce, f64::INFINITY, at + 0.1),
                _ => pong(from as u32, round, nonce, at, at - 0.5),
            });
        }
        rng.shuffle(&mut traffic);
        traffic
    }

    /// Outputs equal as values, and every adjustment equal bit for bit
    /// (float equality would let `-0.0` pass for `+0.0`).
    fn assert_same_outputs(flat: &[Output], nested: &[Output]) {
        fn adjustment_bits(out: &[Output]) -> Vec<u64> {
            out.iter()
                .filter_map(|o| match o {
                    Output::AdjustClock { delta } => Some(delta.as_secs().to_bits()),
                    Output::RoundCompleted(s) => Some(s.adjustment.to_bits()),
                    _ => None,
                })
                .collect()
        }
        assert_eq!(flat, nested);
        assert_eq!(adjustment_bits(flat), adjustment_bits(nested));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 64,
            ..proptest::prelude::ProptestConfig::default()
        })]

        /// Three rounds per case against the `Vec<Vec<_>>` reference: the
        /// first gets every genuine pong (early completion), the second
        /// misses one (completion by timeout unless a duplicate stands in),
        /// the third decides at random. The second and third rounds reuse
        /// the storage the first one filled.
        #[test]
        fn flat_round_storage_matches_nested_reference(
            n in 4usize..17,
            k in 1usize..5,
            me in 0usize..16,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let me = me % n;
            let params = ProtocolParams::builder(n, (n - 1) / 3)
                .sync_int(SimDuration::from_secs(10.0))
                .max_wait(SimDuration::from_secs(1.0))
                .way_off(5.0)
                .pings_per_peer(k)
                .build()
                .unwrap();
            let mut node = SyncNode::new(ProcId(me as u32), params).with_nonce_seed(seed);
            let mut nested = NestedRounds::new(ProcId(me as u32), params);
            let mut rng = DetRng::seeded(seed);
            for r in 0..3u32 {
                let at = 20.0 * f64::from(r);
                let out = if r == 0 {
                    start(&mut node, at)
                } else {
                    handle(&mut node, Input::TimerFired {
                        timer: TimerKind::SyncDue,
                        local_now: lt(at),
                    })
                };
                let (round, nonce) = extract_ping(&out, ProcId(((me + 1) % n) as u32));
                nested.begin(round, nonce, lt(at));
                let withhold = match r {
                    0 => false,
                    1 => true,
                    _ => rng.chance(0.5),
                };
                for input in round_traffic(&mut rng, n, k, me, (round, nonce), at, withhold) {
                    assert_same_outputs(&handle(&mut node, input), &nested.pong(input));
                }
                if r == 0 {
                    proptest::prop_assert!(!node.is_round_active(), "round 0 completes early");
                }
                let timeout = Input::TimerFired {
                    timer: TimerKind::RoundTimeout { round },
                    local_now: lt(at + 1.0),
                };
                assert_same_outputs(&handle(&mut node, timeout), &nested.timeout(round));
            }
        }
    }
}
