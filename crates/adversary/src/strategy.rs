//! Byzantine attack strategies.
//!
//! While the adversary controls a processor it may answer clock-estimation
//! pings with arbitrary values — per requester, adaptively, using global
//! knowledge (it sees all traffic and, in our worst-case modelling, all
//! clock biases). Each strategy here decides (a) how to sabotage the
//! victim's clock at break-in and (b) what to reply to each ping.
//!
//! The strategies escalate in strength:
//!
//! | strategy | information used | behaviour |
//! |---|---|---|
//! | [`CrashStrategy`] | none | stays silent |
//! | [`RandomReplyStrategy`] | none | uniform-random clock values |
//! | [`ConstantOffsetStrategy`] | real time | consistent lie `τ + offset` |
//! | [`SplitBrainStrategy`] | requester id | `+X` to one half, `−X` to the other |
//! | [`StealthStrategy`] | good-bias range | lies just inside the plausible edge |
//! | [`ColluderStrategy`] | good-bias range + requester bias | adaptively pulls each side apart at the plausibility edge |
//! | [`FloodStrategy`] | none | absurd values, maximum noise |
//!
//! Only the last two read the omniscient good-bias range, and the runtime
//! computes it (a scan over every clock) only when a strategy asks for it
//! through [`AttackContext::good_bias_range`].

use byzclock_clock::{Bias, LocalTime};
use byzclock_sim::{DetRng, ProcId, RealTime};

use crate::adversary::ClockSabotage;

/// Everything a strategy may consult when answering one ping.
///
/// [`AttackContext::good_bias_range`] is the omniscient view: the min/max
/// bias over the currently non-faulty processors. Real attackers can
/// approximate it from observed traffic; granting it exactly makes our
/// adversary at least as strong, which is the conservative direction for
/// evaluating the protocol. It costs a scan over all n clocks, so the
/// context carries it lazily and the scan runs only when a strategy reads
/// it.
#[derive(Clone, Copy)]
pub struct AttackContext<'a> {
    /// The corrupted processor being asked for its clock.
    pub victim: ProcId,
    /// The (honest) processor requesting an estimate.
    pub requester: ProcId,
    /// Real time of the reply.
    pub real_now: RealTime,
    /// The victim's current (possibly sabotaged) clock reading.
    pub victim_clock: LocalTime,
    /// Bias of the requester's clock, if known (omniscient adversary).
    pub requester_bias: Option<Bias>,
    /// Computes the `(min, max)` bias over currently non-faulty processors.
    pub(crate) good_bias_range: &'a dyn Fn() -> Option<(f64, f64)>,
    /// The protocol's `WayOff` parameter (public knowledge), seconds.
    pub way_off: f64,
}

impl AttackContext<'_> {
    /// `(min, max)` bias over currently non-faulty processors, if any.
    /// Computed on each call.
    pub fn good_bias_range(&self) -> Option<(f64, f64)> {
        (self.good_bias_range)()
    }
}

impl std::fmt::Debug for AttackContext<'_> {
    /// Leaves out the lazy good-bias range, so printing never runs the scan.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AttackContext")
            .field("victim", &self.victim)
            .field("requester", &self.requester)
            .field("real_now", &self.real_now)
            .field("victim_clock", &self.victim_clock)
            .field("requester_bias", &self.requester_bias)
            .field("way_off", &self.way_off)
            .finish_non_exhaustive()
    }
}

/// A strategy's answer to one ping.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AttackReply {
    /// Remain silent (the requester will time out).
    Silent,
    /// Claim this clock value.
    Clock(LocalTime),
}

impl AttackReply {
    /// Convenience: a reply claiming bias `b` relative to real time.
    pub fn with_bias(real_now: RealTime, b: f64) -> Self {
        AttackReply::Clock(LocalTime::from_secs(real_now.as_secs() + b))
    }
}

/// A Byzantine behaviour for controlled processors.
pub trait ByzantineStrategy: std::fmt::Debug + Send {
    /// Short name for tables and traces.
    fn name(&self) -> &'static str;

    /// What to do to the victim's clock at break-in time.
    fn sabotage(&mut self, victim: ProcId, rng: &mut DetRng) -> ClockSabotage;

    /// Reply to one clock-estimation ping.
    fn reply(&mut self, ctx: &AttackContext, rng: &mut DetRng) -> AttackReply;
}

/// Crash/napping fault: silent, clock untouched.
#[derive(Debug, Clone, Default)]
pub struct CrashStrategy;

impl ByzantineStrategy for CrashStrategy {
    fn name(&self) -> &'static str {
        "crash"
    }
    fn sabotage(&mut self, _victim: ProcId, _rng: &mut DetRng) -> ClockSabotage {
        ClockSabotage::None
    }
    fn reply(&mut self, _ctx: &AttackContext, _rng: &mut DetRng) -> AttackReply {
        AttackReply::Silent
    }
}

/// Uniform-random replies in `±spread` seconds around real time; the clock
/// is also reset to a random value at break-in.
#[derive(Debug, Clone)]
pub struct RandomReplyStrategy {
    /// Half-width of the uniform lie interval, in seconds.
    pub spread: f64,
}

impl RandomReplyStrategy {
    /// Lies uniform in `[−spread, +spread]`.
    ///
    /// # Panics
    ///
    /// Panics if `spread` is negative or non-finite.
    pub fn new(spread: f64) -> Self {
        assert!(spread.is_finite() && spread >= 0.0, "invalid spread");
        RandomReplyStrategy { spread }
    }
}

impl ByzantineStrategy for RandomReplyStrategy {
    fn name(&self) -> &'static str {
        "random"
    }
    fn sabotage(&mut self, _victim: ProcId, rng: &mut DetRng) -> ClockSabotage {
        ClockSabotage::SetBias(rng.uniform(-self.spread, self.spread))
    }
    fn reply(&mut self, ctx: &AttackContext, rng: &mut DetRng) -> AttackReply {
        AttackReply::with_bias(ctx.real_now, rng.uniform(-self.spread, self.spread))
    }
}

/// Consistent lie: always claims real time plus a fixed offset, and resets
/// the victim's clock to that same offset. Models a clock "maliciously
/// reset" to a wrong but internally consistent value.
#[derive(Debug, Clone)]
pub struct ConstantOffsetStrategy {
    /// The claimed bias in seconds (may be negative).
    pub offset: f64,
}

impl ConstantOffsetStrategy {
    /// Claims bias `offset` forever.
    ///
    /// # Panics
    ///
    /// Panics if `offset` is not finite.
    pub fn new(offset: f64) -> Self {
        assert!(offset.is_finite(), "offset must be finite");
        ConstantOffsetStrategy { offset }
    }
}

impl ByzantineStrategy for ConstantOffsetStrategy {
    fn name(&self) -> &'static str {
        "const-offset"
    }
    fn sabotage(&mut self, _victim: ProcId, _rng: &mut DetRng) -> ClockSabotage {
        ClockSabotage::SetBias(self.offset)
    }
    fn reply(&mut self, ctx: &AttackContext, _rng: &mut DetRng) -> AttackReply {
        AttackReply::with_bias(ctx.real_now, self.offset)
    }
}

/// Two-faced attack: claims `+magnitude` to even-indexed requesters and
/// `−magnitude` to odd-indexed ones, trying to tear the group in two.
#[derive(Debug, Clone)]
pub struct SplitBrainStrategy {
    /// Magnitude of the claimed bias, seconds.
    pub magnitude: f64,
}

impl SplitBrainStrategy {
    /// Splits with the given magnitude.
    ///
    /// # Panics
    ///
    /// Panics if `magnitude` is negative or non-finite.
    pub fn new(magnitude: f64) -> Self {
        assert!(
            magnitude.is_finite() && magnitude >= 0.0,
            "invalid magnitude"
        );
        SplitBrainStrategy { magnitude }
    }
}

impl ByzantineStrategy for SplitBrainStrategy {
    fn name(&self) -> &'static str {
        "split-brain"
    }
    fn sabotage(&mut self, _victim: ProcId, _rng: &mut DetRng) -> ClockSabotage {
        ClockSabotage::None
    }
    fn reply(&mut self, ctx: &AttackContext, _rng: &mut DetRng) -> AttackReply {
        let sign = if ctx.requester.index().is_multiple_of(2) {
            1.0
        } else {
            -1.0
        };
        AttackReply::with_bias(ctx.real_now, sign * self.magnitude)
    }
}

/// Stealthy skew: always claims a bias just inside the top of the good
/// range plus a small `push`, trying to slowly drag the whole group away
/// from real time without ever looking implausible.
#[derive(Debug, Clone)]
pub struct StealthStrategy {
    /// How far beyond the current good maximum to claim, in seconds.
    pub push: f64,
}

impl StealthStrategy {
    /// Pushes the good range upward by `push` per estimate.
    ///
    /// # Panics
    ///
    /// Panics if `push` is negative or non-finite.
    pub fn new(push: f64) -> Self {
        assert!(push.is_finite() && push >= 0.0, "invalid push");
        StealthStrategy { push }
    }
}

impl ByzantineStrategy for StealthStrategy {
    fn name(&self) -> &'static str {
        "stealth"
    }
    fn sabotage(&mut self, _victim: ProcId, _rng: &mut DetRng) -> ClockSabotage {
        ClockSabotage::None
    }
    fn reply(&mut self, ctx: &AttackContext, _rng: &mut DetRng) -> AttackReply {
        let base = ctx.good_bias_range().map(|(_, hi)| hi).unwrap_or(0.0);
        AttackReply::with_bias(ctx.real_now, base + self.push)
    }
}

/// The omniscient colluder: for each requester, lies at the *edge of
/// plausibility* in the direction that pulls that requester away from the
/// median — requesters below the good midpoint are pulled further down,
/// those above further up. This is the strongest splitter we implement and
/// the one that actually breaks `n ≤ 3f` (experiment E5).
#[derive(Debug, Clone, Default)]
pub struct ColluderStrategy {
    /// Fraction of `WayOff` to lie by (values close to 1.0 keep each lie
    /// individually plausible while maximizing the pull). Defaults to 0.9.
    pub aggressiveness: f64,
}

impl ColluderStrategy {
    /// Colluder with the default 0.9 aggressiveness.
    pub fn new() -> Self {
        ColluderStrategy {
            aggressiveness: 0.9,
        }
    }

    /// Colluder with explicit aggressiveness in `(0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if outside `(0, 1]`.
    pub fn with_aggressiveness(a: f64) -> Self {
        assert!(a > 0.0 && a <= 1.0, "aggressiveness must be in (0, 1]");
        ColluderStrategy { aggressiveness: a }
    }
}

impl ByzantineStrategy for ColluderStrategy {
    fn name(&self) -> &'static str {
        "colluder"
    }
    fn sabotage(&mut self, _victim: ProcId, _rng: &mut DetRng) -> ClockSabotage {
        ClockSabotage::None
    }
    fn reply(&mut self, ctx: &AttackContext, _rng: &mut DetRng) -> AttackReply {
        let (lo, hi) = ctx.good_bias_range().unwrap_or((0.0, 0.0));
        let mid = (lo + hi) / 2.0;
        let requester_bias = ctx.requester_bias.map(|b| b.as_secs()).unwrap_or(mid);
        let pull = self.aggressiveness * ctx.way_off;
        let target = if requester_bias <= mid {
            requester_bias - pull
        } else {
            requester_bias + pull
        };
        AttackReply::with_bias(ctx.real_now, target)
    }
}

/// Maximum noise: absurd clock values (±1e6 s) and a sabotaged clock far
/// from real time. Easy for the protocol to reject; included as a sanity
/// baseline attack.
#[derive(Debug, Clone, Default)]
pub struct FloodStrategy;

impl ByzantineStrategy for FloodStrategy {
    fn name(&self) -> &'static str {
        "flood"
    }
    fn sabotage(&mut self, _victim: ProcId, rng: &mut DetRng) -> ClockSabotage {
        ClockSabotage::SetBias(rng.uniform(-1e6, 1e6))
    }
    fn reply(&mut self, ctx: &AttackContext, rng: &mut DetRng) -> AttackReply {
        AttackReply::with_bias(ctx.real_now, rng.uniform(-1e6, 1e6))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use byzclock_sim::RngHub;
    use std::cell::Cell;

    fn rng() -> DetRng {
        RngHub::new(21).stream("strategy", 0)
    }

    const GOOD_RANGE: &dyn Fn() -> Option<(f64, f64)> = &|| Some((-0.02, 0.03));

    fn ctx(requester: u32) -> AttackContext<'static> {
        AttackContext {
            victim: ProcId(9),
            requester: ProcId(requester),
            real_now: RealTime::from_secs(100.0),
            victim_clock: LocalTime::from_secs(100.0),
            requester_bias: Some(Bias::from_secs(0.01)),
            good_bias_range: GOOD_RANGE,
            way_off: 0.5,
        }
    }

    fn claimed_bias(reply: AttackReply, real_now: RealTime) -> f64 {
        match reply {
            AttackReply::Clock(c) => c.as_secs() - real_now.as_secs(),
            AttackReply::Silent => panic!("expected clock reply"),
        }
    }

    #[test]
    fn crash_is_silent_and_harmless() {
        let mut s = CrashStrategy;
        assert_eq!(s.reply(&ctx(0), &mut rng()), AttackReply::Silent);
        assert_eq!(s.sabotage(ProcId(0), &mut rng()), ClockSabotage::None);
        assert_eq!(s.name(), "crash");
    }

    #[test]
    fn random_reply_within_spread() {
        let mut s = RandomReplyStrategy::new(2.0);
        let mut r = rng();
        for _ in 0..200 {
            let b = claimed_bias(s.reply(&ctx(0), &mut r), ctx(0).real_now);
            assert!(b.abs() <= 2.0);
        }
        match s.sabotage(ProcId(0), &mut r) {
            ClockSabotage::SetBias(b) => assert!(b.abs() <= 2.0),
            other => panic!("unexpected sabotage {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "invalid spread")]
    fn random_negative_spread_panics() {
        RandomReplyStrategy::new(-1.0);
    }

    #[test]
    fn constant_offset_is_consistent() {
        let mut s = ConstantOffsetStrategy::new(-7.5);
        let mut r = rng();
        let b1 = claimed_bias(s.reply(&ctx(0), &mut r), ctx(0).real_now);
        let b2 = claimed_bias(s.reply(&ctx(5), &mut r), ctx(5).real_now);
        assert_eq!(b1, -7.5);
        assert_eq!(b2, -7.5);
        assert_eq!(s.sabotage(ProcId(0), &mut r), ClockSabotage::SetBias(-7.5));
    }

    #[test]
    fn split_brain_two_faces() {
        let mut s = SplitBrainStrategy::new(3.0);
        let mut r = rng();
        assert_eq!(claimed_bias(s.reply(&ctx(0), &mut r), ctx(0).real_now), 3.0);
        assert_eq!(
            claimed_bias(s.reply(&ctx(1), &mut r), ctx(1).real_now),
            -3.0
        );
        assert_eq!(claimed_bias(s.reply(&ctx(2), &mut r), ctx(2).real_now), 3.0);
    }

    #[test]
    fn stealth_tracks_good_range_top() {
        let mut s = StealthStrategy::new(0.005);
        let mut r = rng();
        let b = claimed_bias(s.reply(&ctx(0), &mut r), ctx(0).real_now);
        assert!((b - 0.035).abs() < 1e-12); // hi (0.03) + push (0.005)
    }

    #[test]
    fn stealth_without_range_pushes_from_zero() {
        let mut s = StealthStrategy::new(0.01);
        let no_range = || None;
        let c = AttackContext {
            good_bias_range: &no_range,
            ..ctx(0)
        };
        let b = claimed_bias(s.reply(&c, &mut rng()), c.real_now);
        assert!((b - 0.01).abs() < 1e-12);
    }

    #[test]
    fn colluder_pulls_low_requesters_down_and_high_up() {
        let mut s = ColluderStrategy::new();
        let mut r = rng();
        // requester below midpoint (mid = 0.005): bias 0.001
        let mut low = ctx(0);
        low.requester_bias = Some(Bias::from_secs(0.001));
        let bl = claimed_bias(s.reply(&low, &mut r), low.real_now);
        assert!(bl < 0.001, "low requester pulled down, got {bl}");
        assert!((bl - (0.001 - 0.45)).abs() < 1e-9); // 0.9 * 0.5 = 0.45 pull
                                                     // requester above midpoint
        let mut high = ctx(1);
        high.requester_bias = Some(Bias::from_secs(0.02));
        let bh = claimed_bias(s.reply(&high, &mut r), high.real_now);
        assert!(bh > 0.02, "high requester pulled up, got {bh}");
    }

    #[test]
    #[should_panic(expected = "aggressiveness")]
    fn colluder_rejects_zero_aggressiveness() {
        ColluderStrategy::with_aggressiveness(0.0);
    }

    #[test]
    fn flood_is_absurd() {
        let mut s = FloodStrategy;
        let mut r = rng();
        let mut saw_large = false;
        for _ in 0..50 {
            let b = claimed_bias(s.reply(&ctx(0), &mut r), ctx(0).real_now);
            if b.abs() > 1e3 {
                saw_large = true;
            }
        }
        assert!(saw_large, "flood should produce absurd values");
    }

    #[test]
    fn only_stealth_and_colluder_read_the_good_range_once_per_reply() {
        let untouched = || -> Option<(f64, f64)> { panic!("good range read") };
        let blind: [Box<dyn ByzantineStrategy>; 5] = [
            Box::new(CrashStrategy),
            Box::new(RandomReplyStrategy::new(1.0)),
            Box::new(ConstantOffsetStrategy::new(1.0)),
            Box::new(SplitBrainStrategy::new(1.0)),
            Box::new(FloodStrategy),
        ];
        for mut s in blind {
            let c = AttackContext {
                good_bias_range: &untouched,
                ..ctx(0)
            };
            s.reply(&c, &mut rng());
        }

        let reads = Cell::new(0);
        let counted = || {
            reads.set(reads.get() + 1);
            GOOD_RANGE()
        };
        let readers: [Box<dyn ByzantineStrategy>; 2] = [
            Box::new(StealthStrategy::new(0.005)),
            Box::new(ColluderStrategy::new()),
        ];
        for mut s in readers {
            for requester in 0..3 {
                let c = AttackContext {
                    good_bias_range: &counted,
                    ..ctx(requester)
                };
                let before = reads.get();
                s.reply(&c, &mut rng());
                assert_eq!(reads.get() - before, 1, "{}", s.name());
            }
        }
    }

    #[test]
    fn names_are_distinct() {
        let names = [
            CrashStrategy.name(),
            RandomReplyStrategy::new(1.0).name(),
            ConstantOffsetStrategy::new(1.0).name(),
            SplitBrainStrategy::new(1.0).name(),
            StealthStrategy::new(0.1).name(),
            ColluderStrategy::new().name(),
            FloodStrategy.name(),
        ];
        let set: std::collections::HashSet<&str> = names.iter().copied().collect();
        assert_eq!(set.len(), names.len());
    }
}
