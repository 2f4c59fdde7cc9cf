//! The sans-IO `Sync` protocol state machine (paper Figure 1).
//!
//! [`SyncNode`] contains no clock, no network and no scheduler: every input
//! is stamped with the caller-provided local clock reading, and every
//! effect is a call on the host's [`Driver`], made while the input is
//! handled. This is the "sans-IO" style: the protocol is a pure function of
//! its inputs, so every line of Figure 1 is unit-testable without a
//! simulator (a test driver records the calls), and the same state machine
//! runs in the simulator and over real sockets.
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

/// A host for [`SyncNode`]s: the effects Figure 1 asks of its host (send,
/// arm a local-time alarm, add to `adj_p`) plus the round report.
///
/// The node calls these methods itself, while it handles an input, in the
/// order Figure 1 takes its steps: a round's pings before the timeout that
/// guards them, the adjustment before the round report, and the report
/// before the next sync alarm. The simulator's host and the UDP loopback
/// runtime are the two implementors.
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

/// The scratch a host lends its nodes: the `n` estimates Figure 1
/// converges over, the convergence function's selection buffers
/// ([`ConvergenceScratch`]), and a pool of per-peer slot pairs for the
/// rounds in flight.
///
/// A node holds a slot pair (one best sample and one pong count per peer)
/// only while its round runs: it takes one from the pool when the round
/// begins and hands it back once the round has converged. Nothing in the
/// scratch carries over to the next call: the estimates and selection
/// buffers are cleared before they are filled, and a round zeroes the
/// counts of the pair it takes and reads a sample only where its count is
/// positive. So one value serves every node a host drives, one at a time
/// (a simulated `World` owns one for all its nodes, a live node thread
/// owns one for its node), and a fresh scratch per call works as well.
/// Built with capacity `n`, it holds one pair already, so a live node and
/// a world's first round allocate nothing; a world's pool grows to the
/// most rounds it has in flight at once.
#[derive(Debug, Default)]
pub struct RoundScratch {
    estimates: Vec<PeerEstimate>,
    convergence: ConvergenceScratch,
    slots: Vec<(Vec<OffsetSample>, Vec<u8>)>,
}

impl RoundScratch {
    /// Pre-sizes every buffer for `n` processors, with one slot pair in
    /// the pool.
    pub fn with_capacity(n: usize) -> Self {
        RoundScratch {
            estimates: Vec::with_capacity(n),
            convergence: ConvergenceScratch::with_capacity(n),
            slots: vec![(vec![OffsetSample::TIMEOUT; n], vec![0; n])],
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
    /// Best pong sample of the active round per peer: Section 3.1's
    /// min-RTT filter ([`OffsetSample::min_rtt`]) folds each accepted pong
    /// in as it arrives, so `k` pings per peer still need one slot. Valid
    /// only where `filled[q] > 0`; the self slot is never read (the exact
    /// `(0, 0)` stands in at completion). Empty between rounds: the slots
    /// are taken from the host's [`RoundScratch`] pool when a round begins
    /// and handed back when it completes. Under cached estimation the
    /// wrapping [`CachedSync`](crate::CachedSync) takes them at start,
    /// keeps them, and overwrites them instead.
    samples: Vec<OffsetSample>,
    /// Pongs accepted from each peer in the active round (at most `k`,
    /// which is at most 64); under cached estimation, 1 once the peer has
    /// answered since the last start. Taken and handed back with
    /// `samples`.
    filled: Vec<u8>,
    /// Peers (excluding self) still short of `k` pongs in the active
    /// round; the round completes early when this reaches zero.
    missing: usize,
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
            samples: Vec::new(),
            filled: Vec::new(),
            missing: 0,
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

    /// Feeds one input, carrying out its effects through `driver` in order
    /// (see [`Driver`]). `scratch` is the host's round-completion scratch,
    /// borrowed only for the call, so one [`RoundScratch`] can serve every
    /// node of a host.
    pub fn handle_into<D: Driver + ?Sized>(
        &mut self,
        input: Input,
        scratch: &mut RoundScratch,
        driver: &mut D,
    ) {
        match input {
            Input::Start { local_now } => {
                // Recovery: abandon any in-flight round and start fresh; the
                // abandoned round's slots serve the new one.
                self.active = None;
                self.begin_round(local_now, scratch, driver);
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
                    driver.send(
                        self.id,
                        from,
                        WireMessage::Pong {
                            round,
                            nonce,
                            clock: local_now,
                        },
                    );
                }
                WireMessage::Pong {
                    round,
                    nonce,
                    clock,
                } => {
                    if self.on_pong(from, round, nonce, clock, local_now) {
                        self.complete_round(scratch, driver);
                    }
                }
            },
            Input::TimerFired { timer, local_now } => match timer {
                TimerKind::SyncDue => {
                    if self.active.is_none() {
                        self.begin_round(local_now, scratch, driver);
                    }
                    // else: a SyncDue racing an in-flight round (possible
                    // after a host-driven restart): ignore, the round's
                    // completion will re-arm the alarm.
                }
                TimerKind::RoundTimeout { round } => self.on_round_timeout(round, scratch, driver),
            },
        }
    }

    /// Bumps the round number and draws that round's anti-replay nonce.
    pub(crate) fn next_round(&mut self) -> (u64, u64) {
        self.round += 1;
        (self.round, self.nonces.bits64())
    }

    fn begin_round<D: Driver + ?Sized>(
        &mut self,
        local_now: LocalTime,
        scratch: &mut RoundScratch,
        driver: &mut D,
    ) {
        let (round, nonce) = self.next_round();
        let n = self.params.n();
        let k = self.params.pings_per_peer();
        self.active = Some(ActiveRound {
            round,
            nonce,
            sent_at: local_now,
        });
        self.take_empty_slots(scratch);
        self.missing = n - 1;
        // Section 3.1's min-RTT refinement: k pings per peer; the replies
        // are filtered by smallest round trip as they arrive.
        for q in ProcId::all(n).filter(|q| *q != self.id) {
            for _ in 0..k {
                driver.send(self.id, q, WireMessage::Ping { round, nonce });
            }
        }
        driver.set_timer(
            self.id,
            self.params.max_wait(),
            TimerKind::RoundTimeout { round },
        );
    }

    /// Folds an accepted pong into its peer's best sample; true iff it was
    /// the last one the round waited for.
    fn on_pong(
        &mut self,
        from: ProcId,
        round: u64,
        nonce: u64,
        clock: LocalTime,
        local_now: LocalTime,
    ) -> bool {
        let k = self.params.pings_per_peer();
        if !clock.as_secs().is_finite() {
            // A Byzantine peer reporting ±∞ (or NaN) would flow straight
            // into the convergence function's (m+M)/2 and poison the
            // adjustment; drop it so the slot resolves via TIMEOUT instead.
            return false;
        }
        let Some(active) = self.active.as_ref() else {
            return false; // stale pong after round completion
        };
        if active.round != round || active.nonce != nonce {
            return false; // wrong round or replay
        }
        let q = from.index();
        if q >= self.filled.len() || from == self.id {
            return false; // nonsensical sender
        }
        let filled = usize::from(self.filled[q]);
        if filled >= k {
            return false; // more pongs than pings: duplicate/forged
        }
        if local_now < active.sent_at {
            // The local clock cannot run backwards between S and R without
            // an adjustment, and we never adjust mid-round; defensive skip.
            return false;
        }
        let sample = OffsetSample::from_ping_pong(active.sent_at, local_now, clock);
        self.samples[q] = if filled == 0 {
            sample
        } else {
            self.samples[q].min_rtt(sample)
        };
        self.filled[q] += 1;
        if filled + 1 < k {
            return false;
        }
        self.missing -= 1;
        self.missing == 0
    }

    fn on_round_timeout<D: Driver + ?Sized>(
        &mut self,
        round: u64,
        scratch: &mut RoundScratch,
        driver: &mut D,
    ) {
        let Some(active) = self.active.as_ref() else {
            return; // stale timeout (round completed early)
        };
        if active.round != round {
            return;
        }
        self.complete_round(scratch, driver);
    }

    fn complete_round<D: Driver + ?Sized>(&mut self, scratch: &mut RoundScratch, driver: &mut D) {
        // Both callers check `active` first, but a panic here would take the
        // whole world down mid-event — degrade to a no-op instead (D5).
        let Some(active) = self.active.take() else {
            return;
        };
        self.converge(active.round, scratch, driver);
        scratch.slots.push((
            std::mem::take(&mut self.samples),
            std::mem::take(&mut self.filled),
        ));
    }

    /// Gives the node `n` empty per-peer slots, so each reads as a timeout
    /// until it is written: the pair it holds (a round abandoned by a
    /// restart, or a cached node's cache), else one from the host's pool,
    /// allocated only when the pool is empty.
    pub(crate) fn take_empty_slots(&mut self, scratch: &mut RoundScratch) {
        if self.filled.is_empty() {
            (self.samples, self.filled) = scratch.slots.pop().unwrap_or_default();
        }
        let n = self.params.n();
        self.samples.resize(n, OffsetSample::TIMEOUT);
        self.filled.clear();
        self.filled.resize(n, 0);
    }

    /// Overwrites peer `q`'s slot with `sample`, marking it filled. The
    /// cached-estimation host's write path; `on_pong` folds instead.
    ///
    /// A self-addressed sample is stored like any other, and it is
    /// harmless: `converge` puts the exact `(0, 0)` in the self slot's
    /// place, and counts responders among the estimates, not the fills.
    /// (The simulated network drops self-addressed sends anyway, and the
    /// live runtime never runs cached estimation.) A node without slots (a
    /// cached node not yet started) drops the sample.
    pub(crate) fn store_sample(&mut self, q: usize, sample: OffsetSample) {
        if let (Some(slot), Some(count)) = (self.samples.get_mut(q), self.filled.get_mut(q)) {
            *slot = sample;
            *count = 1;
        }
    }

    /// Figure 1's convergence step, the one round-completion path: builds
    /// the `n` estimates — the exact `(0, 0)` for self ("for each
    /// q ∈ {1..n}" includes p), and for each peer `q` the sample in its
    /// slot, or TIMEOUT if the slot is empty — runs the convergence
    /// function, and calls the driver to adjust the clock, report `round`
    /// and arm the next `SyncDue` alarm, in that order. The estimates and
    /// the selection buffers live in the host's `scratch`.
    pub(crate) fn converge<D: Driver + ?Sized>(
        &mut self,
        round: u64,
        scratch: &mut RoundScratch,
        driver: &mut D,
    ) {
        let estimates = &mut scratch.estimates;
        estimates.clear();
        for i in 0..self.params.n() {
            estimates.push(PeerEstimate {
                peer: ProcId(i as u32),
                sample: if i == self.id.index() {
                    OffsetSample {
                        offset: 0.0,
                        error: 0.0,
                    }
                } else {
                    match self.filled.get(i) {
                        Some(&count) if count > 0 => self.samples[i],
                        _ => OffsetSample::TIMEOUT,
                    }
                },
            });
        }
        let timeouts = estimates.iter().filter(|e| e.sample.is_timeout()).count();
        let responders = estimates.len() - timeouts - 1; // minus self
        let delta = self.convergence.adjustment_scratch(
            self.params.f(),
            self.params.way_off(),
            estimates,
            &mut scratch.convergence,
        );
        self.rounds_completed += 1;
        driver.adjust_clock(self.id, SimDuration::from_secs(delta));
        driver.round_completed(
            self.id,
            &RoundSummary {
                round,
                adjustment: delta,
                responders,
                timeouts,
            },
        );
        driver.set_timer(self.id, self.params.sync_int(), TimerKind::SyncDue);
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

        /// The sample in peer `q`'s slot, if a pong filled it.
        pub(crate) fn sample(&self, q: usize) -> Option<OffsetSample> {
            (self.filled.get(q) > Some(&0)).then(|| self.samples[q])
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

    /// One driver call as a test records it; each test drives one node,
    /// so the node id is left out.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub(crate) enum Effect {
        Send { to: ProcId, msg: WireMessage },
        SetTimer { after: SimDuration, kind: TimerKind },
        AdjustClock { delta: SimDuration },
        RoundCompleted(RoundSummary),
    }

    /// Records every call, in order.
    impl Driver for Vec<Effect> {
        fn send(&mut self, _from: ProcId, to: ProcId, msg: WireMessage) {
            self.push(Effect::Send { to, msg });
        }
        fn set_timer(&mut self, _node: ProcId, after: SimDuration, kind: TimerKind) {
            self.push(Effect::SetTimer { after, kind });
        }
        fn adjust_clock(&mut self, _node: ProcId, delta: SimDuration) {
            self.push(Effect::AdjustClock { delta });
        }
        fn round_completed(&mut self, _node: ProcId, summary: &RoundSummary) {
            self.push(Effect::RoundCompleted(*summary));
        }
    }

    /// Feeds one input through `handle_into` and returns the calls it made,
    /// with a fresh scratch (one serves as well as a shared one).
    fn handle(node: &mut SyncNode, input: Input) -> Vec<Effect> {
        let mut effects = Vec::new();
        node.handle_into(input, &mut RoundScratch::default(), &mut effects);
        effects
    }

    fn start(node: &mut SyncNode, at: f64) -> Vec<Effect> {
        handle(node, Input::Start { local_now: lt(at) })
    }

    /// Records every driver call in order, with the node ids.
    #[derive(Default)]
    pub(crate) struct Log {
        pub(crate) calls: Vec<String>,
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

    /// The calls one input makes, with the node ids.
    fn log(node: &mut SyncNode, input: Input) -> Vec<String> {
        let mut log = Log::default();
        node.handle_into(input, &mut RoundScratch::default(), &mut log);
        log.calls
    }

    #[test]
    fn start_sends_every_ping_before_arming_the_round_timeout() {
        let params = ProtocolParams::builder(4, 1)
            .sync_int(SimDuration::from_secs(10.0))
            .max_wait(SimDuration::from_secs(1.0))
            .way_off(5.0)
            .pings_per_peer(2)
            .build()
            .unwrap();
        let mut node = SyncNode::new(ProcId(1), params);
        assert_eq!(
            log(&mut node, Input::Start { local_now: lt(0.0) }),
            vec![
                "send p1->p0 round 1",
                "send p1->p0 round 1",
                "send p1->p2 round 1",
                "send p1->p2 round 1",
                "send p1->p3 round 1",
                "send p1->p3 round 1",
                "timer p1 +1 RoundTimeout { round: 1 }",
            ]
        );
    }

    #[test]
    fn completion_adjusts_then_reports_then_arms_the_next_sync() {
        // early: the last pong completes the round
        let mut node = SyncNode::new(ProcId(0), params(4, 1));
        let (round, nonce) = extract_ping(&start(&mut node, 0.0), ProcId(1));
        for p in [1u32, 2] {
            assert!(log(&mut node, pong(p, round, nonce, 0.05, 0.1)).is_empty());
        }
        assert_eq!(
            log(&mut node, pong(3, round, nonce, 0.05, 0.1)),
            vec!["adjust p0 0", "round p0 #1", "timer p0 +10 SyncDue"]
        );
        // by timeout: a peer is missing
        let mut node = SyncNode::new(ProcId(2), params(4, 1));
        let (round, nonce) = extract_ping(&start(&mut node, 0.0), ProcId(1));
        log(&mut node, pong(1, round, nonce, 0.05, 0.1));
        let timeout = Input::TimerFired {
            timer: TimerKind::RoundTimeout { round },
            local_now: lt(1.0),
        };
        assert_eq!(
            log(&mut node, timeout),
            vec!["adjust p2 0", "round p2 #1", "timer p2 +10 SyncDue"]
        );
    }

    pub(crate) fn extract_ping(effects: &[Effect], to: ProcId) -> (u64, u64) {
        effects
            .iter()
            .find_map(|o| match o {
                Effect::Send {
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
    fn start_pings_all_peers_and_arms_timeout() {
        let mut node = SyncNode::new(ProcId(0), params(4, 1));
        let out = start(&mut node, 100.0);
        let pings: Vec<ProcId> = out
            .iter()
            .filter_map(|o| match o {
                Effect::Send {
                    to,
                    msg: WireMessage::Ping { .. },
                } => Some(*to),
                _ => None,
            })
            .collect();
        assert_eq!(pings, vec![ProcId(1), ProcId(2), ProcId(3)]);
        assert!(out.iter().any(|o| matches!(
            o,
            Effect::SetTimer {
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
            vec![Effect::Send {
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
            Effect::AdjustClock { delta } => Some(*delta),
            _ => None,
        });
        // All estimates agree d=0 (a=0.2): m = 0.2, M = -0.2 → within
        // way_off → (min(0.2,0)+max(-0.2,0))/2 = 0
        assert_eq!(adjust, Some(SimDuration::ZERO));
        let summary = out
            .iter()
            .find_map(|o| match o {
                Effect::RoundCompleted(s) => Some(*s),
                _ => None,
            })
            .unwrap();
        assert_eq!(summary.responders, 3);
        assert_eq!(summary.timeouts, 0);
        assert_eq!(summary.round, 1);
        // next sync armed
        assert!(out.iter().any(|o| matches!(
            o,
            Effect::SetTimer {
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
                Effect::AdjustClock { delta } => Some(delta.as_secs()),
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
                Effect::RoundCompleted(s) => Some(*s),
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
        assert!(out.iter().any(|o| matches!(o, Effect::RoundCompleted(_))));
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
                Effect::AdjustClock { delta } => Some(delta.as_secs()),
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
        assert_eq!(node.sample(1), None);
        // local_now == sent_at: a zero round trip, accepted with error 0
        assert!(handle(&mut node, pong(1, round, nonce, 12.0, 10.0)).is_empty());
        let sample = node.sample(1).expect("a zero-RTT pong is accepted");
        assert_eq!((sample.offset, sample.error), (2.0, 0.0));
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
        assert!(out.iter().any(|o| matches!(o, Effect::RoundCompleted(_))));
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
                Effect::AdjustClock { delta } => Some(delta.as_secs()),
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
                Effect::AdjustClock { delta } => Some(delta.as_secs()),
                _ => None,
            })
            .unwrap();
        assert!(delta.is_finite(), "adjustment poisoned: {delta}");
        let summary = out
            .iter()
            .find_map(|o| match o {
                Effect::RoundCompleted(s) => Some(*s),
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
                    Effect::Send {
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
                Effect::AdjustClock { delta } => Some(delta.as_secs()),
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

    /// The round storage `SyncNode` used before it kept one best sample per
    /// peer: every sample in one `Vec` per peer, filtered by
    /// [`OffsetSample::best_of`] at completion, and a scan of every peer
    /// after each accepted pong. Kept as the reference the running min-RTT
    /// filter must match output for output.
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
                scratch: ConvergenceScratch::default(),
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

        fn pong(&mut self, input: Input) -> Vec<Effect> {
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

        fn timeout(&mut self, round: u64) -> Vec<Effect> {
            match &self.active {
                Some(active) if active.round == round => self.complete(),
                _ => Vec::new(),
            }
        }

        fn complete(&mut self) -> Vec<Effect> {
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
                Effect::AdjustClock {
                    delta: SimDuration::from_secs(delta),
                },
                Effect::RoundCompleted(RoundSummary {
                    round: active.round,
                    adjustment: delta,
                    responders: self.estimates.len() - timeouts - 1,
                    timeouts,
                }),
                Effect::SetTimer {
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

    /// Effects equal as values, and every adjustment equal bit for bit
    /// (float equality would let `-0.0` pass for `+0.0`).
    fn assert_same_effects(flat: &[Effect], nested: &[Effect]) {
        fn adjustment_bits(out: &[Effect]) -> Vec<u64> {
            out.iter()
                .filter_map(|o| match o {
                    Effect::AdjustClock { delta } => Some(delta.as_secs().to_bits()),
                    Effect::RoundCompleted(s) => Some(s.adjustment.to_bits()),
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
        /// the third decides at random. All rounds share one scratch, so
        /// the second and third rounds take the slot pair the one before
        /// handed back, with its counts and samples as that round left them.
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
            let mut scratch = RoundScratch::default();
            let mut feed = |node: &mut SyncNode, input| {
                let mut effects = Vec::new();
                node.handle_into(input, &mut scratch, &mut effects);
                effects
            };
            for r in 0..3u32 {
                let at = 20.0 * f64::from(r);
                let out = feed(&mut node, if r == 0 {
                    Input::Start { local_now: lt(at) }
                } else {
                    Input::TimerFired {
                        timer: TimerKind::SyncDue,
                        local_now: lt(at),
                    }
                });
                let (round, nonce) = extract_ping(&out, ProcId(((me + 1) % n) as u32));
                nested.begin(round, nonce, lt(at));
                let withhold = match r {
                    0 => false,
                    1 => true,
                    _ => rng.chance(0.5),
                };
                for input in round_traffic(&mut rng, n, k, me, (round, nonce), at, withhold) {
                    assert_same_effects(&feed(&mut node, input), &nested.pong(input));
                }
                if r == 0 {
                    proptest::prop_assert!(!node.is_round_active(), "round 0 completes early");
                }
                let timeout = Input::TimerFired {
                    timer: TimerKind::RoundTimeout { round },
                    local_now: lt(at + 1.0),
                };
                assert_same_effects(&feed(&mut node, timeout), &nested.timeout(round));
            }
        }
    }
}
