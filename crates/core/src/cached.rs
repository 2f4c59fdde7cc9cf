//! Cached estimation: the Section 3.1 variant the paper warns about.
//!
//! The paper's Section 3.1 closes with a warning about spreading estimation
//! over a background activity that hands the sync procedure *cached*
//! values: "we cannot guarantee the conditions of Definition 4 anymore,
//! since the separate thread may return an old cached value which was
//! measured before the call" — so "the analysis in this paper cannot be
//! applied right out of the box". [`CachedSync`] is a deliberately naive
//! implementation of that pattern (no compensation for the node's own
//! adjustments since measurement), built so experiment E19 can quantify the
//! warning.
//!
//! It wraps a [`SyncNode`] rather than extending it, so the node keeps only
//! Figure 1's state. The wrapped node answers pings, numbers the volleys,
//! draws their nonces, holds the cache in its per-peer sample slots and
//! runs the convergence step over them in the host's [`RoundScratch`]; the
//! wrapper only tracks the current volley. A plain node holds its slots
//! only while a round runs; the cache outlives every volley, so the wrapped
//! node takes a slot pair from the host's pool at start and keeps it.

use byzclock_clock::LocalTime;
use byzclock_sim::{ProcId, SimDuration};

use crate::estimate::OffsetSample;
use crate::node::{Driver, Input, RoundScratch, SyncNode, TimerKind};
use crate::wire::WireMessage;

/// A [`SyncNode`] whose sync rounds consume a background cache of peer
/// estimates instead of running their own ping/pong exchange.
///
/// Every `refresh` local-time units a volley pings each peer once; each
/// volley is a round of the wrapped node, closed by a
/// [`TimerKind::RoundTimeout`] that starts the next volley. A peer's
/// latest in-volley pong overwrites its slot in the wrapped node, which
/// reads as a timeout until the peer first answers. Every `SyncInt` the
/// `SyncDue` alarm converges at once over whatever the slots hold.
#[derive(Debug)]
pub struct CachedSync {
    node: SyncNode,
    refresh: SimDuration,
    /// Send time of the current volley.
    sent_at: LocalTime,
    /// Nonce of the current volley.
    nonce: u64,
}

impl CachedSync {
    /// Wraps `node` (before it is started), refreshing the cache every
    /// `refresh` local-time units.
    ///
    /// # Panics
    ///
    /// Panics if `refresh` is not positive.
    pub fn new(node: SyncNode, refresh: SimDuration) -> Self {
        assert!(
            refresh > SimDuration::ZERO,
            "cache refresh interval must be positive"
        );
        CachedSync {
            node,
            refresh,
            sent_at: LocalTime::ZERO,
            nonce: 0,
        }
    }

    /// The wrapped node.
    pub fn node(&self) -> &SyncNode {
        &self.node
    }

    /// Feeds one input, carrying out its effects through `driver` in order,
    /// like [`SyncNode::handle_into`]. The cache is the wrapped node's
    /// per-peer slots; the estimates a sync converges over are built in the
    /// host's `scratch`.
    pub fn handle_into<D: Driver + ?Sized>(
        &mut self,
        input: Input,
        scratch: &mut RoundScratch,
        driver: &mut D,
    ) {
        match input {
            Input::Start { local_now } => {
                self.node.take_empty_slots(scratch);
                self.volley(local_now, driver);
                driver.set_timer(
                    self.node.id(),
                    self.node.params().sync_int(),
                    TimerKind::SyncDue,
                );
            }
            Input::Message {
                from,
                msg:
                    WireMessage::Pong {
                        round,
                        nonce,
                        clock,
                    },
                local_now,
            } => {
                // Accept only the current volley, and overwrite the peer's
                // slot with its freshest sample.
                if clock.as_secs().is_finite()
                    && round == self.node.round()
                    && nonce == self.nonce
                    && from.index() < self.node.params().n()
                    && local_now >= self.sent_at
                {
                    self.node.store_sample(
                        from.index(),
                        OffsetSample::from_ping_pong(self.sent_at, local_now, clock),
                    );
                }
            }
            Input::Message { .. } => self.node.handle_into(input, scratch, driver),
            Input::TimerFired {
                timer: TimerKind::SyncDue,
                ..
            } => self.node.converge(self.node.round(), scratch, driver),
            Input::TimerFired {
                timer: TimerKind::RoundTimeout { round },
                local_now,
            } => {
                if round == self.node.round() {
                    self.volley(local_now, driver);
                }
            }
        }
    }

    /// Pings every peer once as a new round and arms the timeout that
    /// starts the next volley.
    fn volley<D: Driver + ?Sized>(&mut self, local_now: LocalTime, driver: &mut D) {
        let (round, nonce) = self.node.next_round();
        self.sent_at = local_now;
        self.nonce = nonce;
        let me = self.node.id();
        for q in ProcId::all(self.node.params().n()).filter(|q| *q != me) {
            driver.send(me, q, WireMessage::Ping { round, nonce });
        }
        driver.set_timer(me, self.refresh, TimerKind::RoundTimeout { round });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::tests::{extract_ping, lt, params, pong, Effect, Log};

    fn cached(refresh: f64) -> CachedSync {
        CachedSync::new(
            SyncNode::new(ProcId(0), params(4, 1)),
            SimDuration::from_secs(refresh),
        )
    }

    fn handle(c: &mut CachedSync, input: Input) -> Vec<Effect> {
        let mut effects = Vec::new();
        c.handle_into(input, &mut RoundScratch::default(), &mut effects);
        effects
    }

    /// The calls one input makes, with the node ids.
    fn log(c: &mut CachedSync, input: Input) -> Vec<String> {
        let mut log = Log::default();
        c.handle_into(input, &mut RoundScratch::default(), &mut log);
        log.calls
    }

    #[test]
    fn start_sends_the_volley_then_arms_its_timeout_then_the_sync() {
        let mut c = cached(3.0);
        assert_eq!(
            log(&mut c, Input::Start { local_now: lt(0.0) }),
            vec![
                "send p0->p1 round 1",
                "send p0->p2 round 1",
                "send p0->p3 round 1",
                "timer p0 +3 RoundTimeout { round: 1 }",
                "timer p0 +10 SyncDue",
            ]
        );
    }

    #[test]
    fn sync_adjusts_then_reports_then_arms_the_next_sync() {
        let mut c = cached(3.0);
        start(&mut c, 0.0);
        let sync = Input::TimerFired {
            timer: TimerKind::SyncDue,
            local_now: lt(4.0),
        };
        assert_eq!(
            log(&mut c, sync),
            vec!["adjust p0 0", "round p0 #1", "timer p0 +10 SyncDue"]
        );
    }

    fn start(c: &mut CachedSync, at: f64) -> Vec<Effect> {
        handle(c, Input::Start { local_now: lt(at) })
    }

    fn timer(c: &mut CachedSync, timer: TimerKind, at: f64) -> Vec<Effect> {
        handle(
            c,
            Input::TimerFired {
                timer,
                local_now: lt(at),
            },
        )
    }

    fn adjustment(out: &[Effect]) -> f64 {
        out.iter()
            .find_map(|o| match o {
                Effect::AdjustClock { delta } => Some(delta.as_secs()),
                _ => None,
            })
            .expect("sync must adjust")
    }

    #[test]
    fn cached_mode_starts_refresher_and_sync_alarm() {
        let mut c = cached(3.0);
        let out = start(&mut c, 0.0);
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
        assert_eq!(pings, 3);
        assert!(out.iter().any(|o| matches!(
            o,
            Effect::SetTimer { kind: TimerKind::RoundTimeout { round: 1 }, after }
                if *after == SimDuration::from_secs(3.0)
        )));
        assert!(out.iter().any(|o| matches!(
            o,
            Effect::SetTimer {
                kind: TimerKind::SyncDue,
                ..
            }
        )));
        assert!(
            !c.node().is_round_active(),
            "cached mode has no blocking round"
        );
    }

    #[test]
    fn cached_mode_sync_uses_cache_and_stale_values() {
        let mut c = cached(3.0);
        let out = start(&mut c, 0.0);
        let (round, nonce) = extract_ping(&out, ProcId(1));
        // peers answer: all 2 s ahead
        for p in [1u32, 2, 3] {
            assert!(handle(&mut c, pong(p, round, nonce, 2.05, 0.1)).is_empty());
        }
        // sync fires: uses the cache immediately (no MaxWait round)
        let delta = adjustment(&timer(&mut c, TimerKind::SyncDue, 4.0));
        assert!(delta > 0.5, "uses cached estimates: {delta}");
        // a second sync WITHOUT a refresh reuses the same stale samples —
        // exactly the Definition 4 violation the paper warns about
        let delta2 = adjustment(&timer(&mut c, TimerKind::SyncDue, 8.0));
        assert!(delta2 > 0.5, "stale cache reapplied: {delta2}");
        assert_eq!(c.node().rounds_completed(), 2);
    }

    #[test]
    fn cached_mode_refresh_rolls_generation() {
        let mut c = cached(3.0);
        let out = start(&mut c, 0.0);
        let (g1, n1) = extract_ping(&out, ProcId(1));
        let out = timer(&mut c, TimerKind::RoundTimeout { round: g1 }, 3.0);
        let (g2, n2) = extract_ping(&out, ProcId(1));
        assert_eq!(g2, g1 + 1);
        assert_ne!(n1, n2);
        // old-generation pong is rejected
        assert!(handle(&mut c, pong(1, g1, n1, 99.0, 3.1)).is_empty());
        // new-generation pong lands in the cache (no output, but the next
        // sync sees it)
        for p in [1u32, 2, 3] {
            handle(&mut c, pong(p, g2, n2, 3.2, 3.3));
        }
        let delta = adjustment(&timer(&mut c, TimerKind::SyncDue, 4.0));
        assert!(delta.abs() < 0.2, "fresh cache near-synced: {delta}");
    }

    #[test]
    fn cached_mode_empty_cache_syncs_with_timeouts_only() {
        let mut c = cached(3.0);
        start(&mut c, 0.0);
        let out = timer(&mut c, TimerKind::SyncDue, 4.0);
        // all-timeout cache: the selection freezes (delta 0)
        assert_eq!(adjustment(&out), 0.0);
        let summary = out
            .iter()
            .find_map(|o| match o {
                Effect::RoundCompleted(s) => Some(*s),
                _ => None,
            })
            .unwrap();
        assert_eq!(summary.timeouts, 3);
        assert_eq!(summary.round, 1, "the sync reports the current volley");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn cached_mode_zero_refresh_panics() {
        let _ = cached(0.0);
    }

    #[test]
    fn pong_before_volley_send_time_ignored_defensively() {
        let mut c = cached(3.0);
        let (round, nonce) = extract_ping(&start(&mut c, 10.0), ProcId(1));
        // local_now < sent_at: impossible without mid-volley adjustment
        assert!(handle(&mut c, pong(1, round, nonce, 10.0, 9.0)).is_empty());
        assert_eq!(c.node().sample(1), None);
        // local_now == sent_at: a zero round trip, accepted with error 0
        assert!(handle(&mut c, pong(1, round, nonce, 12.0, 10.0)).is_empty());
        let sample = c.node().sample(1).expect("a zero-RTT pong is accepted");
        assert_eq!((sample.offset, sample.error), (2.0, 0.0));
    }

    #[test]
    fn stale_volley_timeout_is_ignored() {
        let mut c = cached(3.0);
        let out = start(&mut c, 0.0);
        let (g1, _) = extract_ping(&out, ProcId(1));
        timer(&mut c, TimerKind::RoundTimeout { round: g1 }, 3.0);
        assert_eq!(c.node().round(), g1 + 1);
        // the first volley's timeout, delivered again: not the current round
        assert!(timer(&mut c, TimerKind::RoundTimeout { round: g1 }, 4.0).is_empty());
        assert_eq!(c.node().round(), g1 + 1);
    }

    #[test]
    fn pings_are_answered_by_the_wrapped_node() {
        let mut c = cached(3.0);
        let ping = Input::Message {
            from: ProcId(2),
            msg: WireMessage::Ping { round: 9, nonce: 7 },
            local_now: lt(5.5),
        };
        assert_eq!(
            handle(&mut c, ping),
            vec![Effect::Send {
                to: ProcId(2),
                msg: WireMessage::Pong {
                    round: 9,
                    nonce: 7,
                    clock: lt(5.5)
                }
            }]
        );
    }
}
