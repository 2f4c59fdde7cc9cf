//! The network fabric: routing decisions, delay sampling, authentication
//! semantics, link failures, and traffic statistics.
//!
//! [`Network`] decides *when* (and whether) a message sent now would be
//! delivered; actually enqueueing the delivery event is the runtime's job.
//! This separation keeps the network model synchronous and trivially
//! testable.

use byzclock_sim::{DetRng, ProcId, RealTime, SimDuration};

use crate::delay::DelayModel;
use crate::topology::Topology;

/// Every delivery instant of one send: none (dropped), one, or two (the
/// duplication fault fired).
///
/// Stored inline, so a send never allocates. Reads as a slice of its live
/// entries through `Deref`, iterates them by value, and equality compares
/// live entries only.
#[derive(Clone, Copy)]
pub struct Deliveries {
    times: [RealTime; 2],
    len: u8,
}

impl Deliveries {
    fn push(&mut self, at: RealTime) {
        self.times[usize::from(self.len)] = at;
        self.len += 1;
    }
}

impl Default for Deliveries {
    fn default() -> Self {
        Deliveries {
            times: [RealTime::ZERO; 2],
            len: 0,
        }
    }
}

impl std::ops::Deref for Deliveries {
    type Target = [RealTime];

    fn deref(&self) -> &[RealTime] {
        &self.times[..usize::from(self.len)]
    }
}

impl PartialEq for Deliveries {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl std::fmt::Debug for Deliveries {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl IntoIterator for Deliveries {
    type Item = RealTime;
    type IntoIter = std::iter::Take<std::array::IntoIter<RealTime, 2>>;

    fn into_iter(self) -> Self::IntoIter {
        self.times.into_iter().take(usize::from(self.len))
    }
}

/// Administrative link state: a predicate cutting links on top of the
/// topology (for partitions and transient outages).
#[derive(Debug, Clone, Default)]
pub struct LinkFilter {
    /// Directed pairs currently down. A `BTreeSet` so that `Debug` output
    /// and any future iteration are deterministic (D3).
    down: std::collections::BTreeSet<(ProcId, ProcId)>,
}

impl LinkFilter {
    /// All links up.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cuts both directions of `{a, b}`.
    pub fn cut(&mut self, a: ProcId, b: ProcId) {
        self.down.insert((a, b));
        self.down.insert((b, a));
    }

    /// Restores both directions of `{a, b}`.
    pub fn restore(&mut self, a: ProcId, b: ProcId) {
        self.down.remove(&(a, b));
        self.down.remove(&(b, a));
    }

    /// True iff the directed link is up.
    pub fn is_up(&self, from: ProcId, to: ProcId) -> bool {
        !self.down.contains(&(from, to))
    }
}

/// Cumulative traffic statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NetworkStats {
    /// Messages accepted for delivery.
    pub delivered: u64,
    /// Messages dropped (any reason).
    pub dropped: u64,
    /// Messages sent through the forged path (adversary traffic).
    pub forged: u64,
    /// Extra copies injected by the duplication fault model.
    pub duplicated: u64,
    /// Deliveries whose delay was inflated by an active delay spike.
    pub spiked: u64,
}

/// Probabilistic per-message fault injection, applied on top of routing.
///
/// Both faults step outside the paper's Section 2.2 "exactly once, in
/// order of nothing" link axiom on purpose — they exist for chaos
/// campaigns probing behaviour beyond the analyzed model. Zero
/// probabilities (the default) reproduce the faithful model exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultProfile {
    /// Probability that a delivered message is delivered *twice*, the
    /// second copy with an independently sampled delay.
    pub duplicate_probability: f64,
    /// Probability that a delivery is pushed toward the tail of the delay
    /// window (re-sampled uniformly in `[sampled delay, δ]`), making it
    /// arrive after traffic sent later.
    pub reorder_probability: f64,
}

impl FaultProfile {
    /// True iff both fault probabilities are zero (the faithful model).
    pub fn is_quiet(&self) -> bool {
        self.duplicate_probability == 0.0 && self.reorder_probability == 0.0
    }
}

/// A transient delay spike: while `now ∈ [from, until)`, sampled delays
/// are multiplied by `factor`.
///
/// With `factor > 1` this **deliberately violates the δ bound** — the one
/// assumption [`Network::new`] otherwise refuses to break. Spikes are the
/// sanctioned escape hatch for chaos experiments that ask "what if the
/// network is slower than the model promised?"; deliveries inflated past
/// δ are counted in [`NetworkStats::spiked`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelaySpike {
    /// Spike start (inclusive).
    pub from: RealTime,
    /// Spike end (exclusive).
    pub until: RealTime,
    /// Delay multiplier, `≥ 1` and finite.
    pub factor: f64,
}

/// The network fabric.
///
/// Enforces the paper's Section 2.2 guarantees for honest traffic:
/// messages between connected, link-up processors are delivered exactly
/// once within `(0, δ]`. Authentication is structural: honest sends carry
/// their true sender, and [`Network::send_forged_times`] exists only for
/// the adversary (the runtime restricts it to currently-corrupted senders).
///
/// ```
/// use byzclock_net::{ConstantDelay, Network, Topology};
/// use byzclock_sim::{ProcId, RealTime, RngHub, SimDuration};
///
/// let delta = SimDuration::from_millis(10.0);
/// let mut net = Network::new(
///     Topology::full_mesh(3),
///     Box::new(ConstantDelay::new(SimDuration::from_millis(4.0))),
///     delta,
/// );
/// let mut rng = RngHub::new(1).stream("net", 0);
/// let times = net.send_times(ProcId(0), ProcId(1), RealTime::ZERO, &mut rng);
/// assert_eq!(times[..], [RealTime::from_secs(0.004)]);
/// ```
#[derive(Debug)]
pub struct Network {
    topology: Topology,
    delays: Box<dyn DelayModel>,
    delta: SimDuration,
    links: LinkFilter,
    stats: NetworkStats,
    loss_probability: f64,
    faults: FaultProfile,
    spikes: Vec<DelaySpike>,
}

impl Network {
    /// Creates a network over `topology` with the given delay model and
    /// message delivery bound `delta`.
    ///
    /// # Panics
    ///
    /// Panics if the delay model can exceed `delta` — that would silently
    /// violate the paper's analysis assumptions — or if `delta` is not
    /// positive.
    pub fn new(topology: Topology, delays: Box<dyn DelayModel>, delta: SimDuration) -> Self {
        assert!(delta > SimDuration::ZERO, "delta must be positive");
        assert!(
            delays.max_delay() <= delta,
            "delay model max {} exceeds delta {}",
            delays.max_delay(),
            delta
        );
        Network {
            topology,
            delays,
            delta,
            links: LinkFilter::new(),
            stats: NetworkStats::default(),
            loss_probability: 0.0,
            faults: FaultProfile::default(),
            spikes: Vec::new(),
        }
    }

    /// Configures probabilistic duplication/reordering faults.
    ///
    /// # Panics
    ///
    /// Panics if either probability is outside `[0, 1]`.
    pub fn set_fault_profile(&mut self, profile: FaultProfile) {
        assert!(
            (0.0..=1.0).contains(&profile.duplicate_probability),
            "duplicate probability must be in [0, 1]"
        );
        assert!(
            (0.0..=1.0).contains(&profile.reorder_probability),
            "reorder probability must be in [0, 1]"
        );
        self.faults = profile;
    }

    /// Adds a transient delay spike (see [`DelaySpike`]).
    ///
    /// # Panics
    ///
    /// Panics if the window is empty or `factor` is below 1 / non-finite.
    pub fn add_delay_spike(&mut self, spike: DelaySpike) {
        assert!(
            spike.until > spike.from,
            "delay spike window must be non-empty"
        );
        assert!(
            spike.factor.is_finite() && spike.factor >= 1.0,
            "delay spike factor must be finite and >= 1"
        );
        self.spikes.push(spike);
    }

    /// Configures independent random message loss with probability `p`.
    ///
    /// **This violates the paper's Section 2.2 reliable-link axiom** — it
    /// exists for robustness experiments beyond the model (E17). The
    /// protocol sees lost messages as estimation timeouts.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `[0, 1)`.
    pub fn set_loss_probability(&mut self, p: f64) {
        assert!(
            (0.0..1.0).contains(&p),
            "loss probability must be in [0, 1)"
        );
        self.loss_probability = p;
    }

    /// Administrative link control.
    pub fn links_mut(&mut self) -> &mut LinkFilter {
        &mut self.links
    }

    /// Traffic statistics so far.
    pub fn stats(&self) -> &NetworkStats {
        &self.stats
    }

    /// Sends a message from `from` to `to` at time `now` and returns *every*
    /// delivery time for it, with the configured loss, fault profile and
    /// delay spikes applied: empty if dropped, two entries when the
    /// duplication fault fires.
    ///
    /// With a quiet [`FaultProfile`] and no spikes, a delivered message
    /// arrives once, within `(now, now + δ]` (or exactly `now` for
    /// zero-delay models).
    pub fn send_times(
        &mut self,
        from: ProcId,
        to: ProcId,
        now: RealTime,
        rng: &mut DetRng,
    ) -> Deliveries {
        self.fan_out(from, to, now, rng)
    }

    /// Sends adversary traffic claiming to originate from `claimed_from` —
    /// the forged-traffic twin of [`Network::send_times`].
    ///
    /// Routing and delay behave as if `claimed_from` had sent the message
    /// (the adversary speaks *as* the corrupted processor). The runtime must
    /// only call this for processors currently controlled by the adversary —
    /// that is exactly the paper's authenticated-link axiom. The adversary speaks *as* the corrupted processor over the victim's
    /// real links, so its traffic is subject to exactly the same loss,
    /// duplication, reordering and delay-spike models as honest traffic —
    /// anything else would make forged replies systematically better
    /// behaved than the network they cross.
    pub fn send_forged_times(
        &mut self,
        claimed_from: ProcId,
        to: ProcId,
        now: RealTime,
        rng: &mut DetRng,
    ) -> Deliveries {
        self.stats.forged += 1;
        self.fan_out(claimed_from, to, now, rng)
    }

    /// Shared fault-applying delivery fan-out behind [`Network::send_times`]
    /// and [`Network::send_forged_times`].
    fn fan_out(&mut self, from: ProcId, to: ProcId, now: RealTime, rng: &mut DetRng) -> Deliveries {
        let mut times = Deliveries::default();
        let Some(at) = self.route(from, to, now, rng) else {
            return times;
        };
        times.push(self.apply_timing_faults(now, at, rng));
        if self.faults.duplicate_probability > 0.0 && rng.chance(self.faults.duplicate_probability)
        {
            // Second copy with an independently sampled delay; loss and
            // link checks already passed for the logical send.
            let delay = self.delays.sample(from, to, rng);
            self.stats.duplicated += 1;
            times.push(self.apply_timing_faults(now, now + delay, rng));
        }
        times
    }

    /// Applies reordering and spike faults to one tentative delivery time.
    fn apply_timing_faults(&mut self, now: RealTime, at: RealTime, rng: &mut DetRng) -> RealTime {
        let mut delay = at.as_secs() - now.as_secs();
        if self.faults.reorder_probability > 0.0 && rng.chance(self.faults.reorder_probability) {
            // Push toward the tail of the window: still within δ, but now
            // behind traffic sent later.
            delay = rng.uniform(delay, self.delta.as_secs());
        }
        let factor = self
            .spikes
            .iter()
            .filter(|s| s.from <= now && now < s.until)
            .map(|s| s.factor)
            .fold(1.0, f64::max);
        if factor > 1.0 {
            delay *= factor;
            self.stats.spiked += 1;
        }
        now + SimDuration::from_secs(delay)
    }

    /// The delivery time of one send before timing faults, or `None` (and a
    /// drop counted) for a self-send, a non-adjacent pair, a cut link or a
    /// random loss. The loss draw comes last, so it consumes randomness
    /// only for sends that could otherwise be delivered.
    fn route(
        &mut self,
        from: ProcId,
        to: ProcId,
        now: RealTime,
        rng: &mut DetRng,
    ) -> Option<RealTime> {
        if from == to
            || !self.topology.are_connected(from, to)
            || !self.links.is_up(from, to)
            || (self.loss_probability > 0.0 && rng.chance(self.loss_probability))
        {
            self.stats.dropped += 1;
            return None;
        }
        let delay = self.delays.sample(from, to, rng);
        debug_assert!(
            delay <= self.delta && !delay.is_negative(),
            "sampled delay {delay} violates bound"
        );
        self.stats.delivered += 1;
        Some(now + delay)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delay::{ConstantDelay, UniformDelay};
    use byzclock_sim::RngHub;

    fn ms(x: f64) -> SimDuration {
        SimDuration::from_millis(x)
    }

    fn rng() -> DetRng {
        RngHub::new(17).stream("net-test", 0)
    }

    fn mesh_net(n: usize) -> Network {
        Network::new(
            Topology::full_mesh(n),
            Box::new(ConstantDelay::new(ms(2.0))),
            ms(10.0),
        )
    }

    #[test]
    fn delivers_with_sampled_delay() {
        let mut net = mesh_net(3);
        let times = net.send_times(ProcId(0), ProcId(1), RealTime::from_secs(1.0), &mut rng());
        assert_eq!(times[..], [RealTime::from_secs(1.0) + ms(2.0)]);
        assert_eq!(net.stats().delivered, 1);
    }

    #[test]
    fn self_send_is_dropped() {
        let mut net = mesh_net(3);
        let times = net.send_times(ProcId(1), ProcId(1), RealTime::ZERO, &mut rng());
        assert!(times.is_empty());
        assert_eq!(net.stats().dropped, 1);
    }

    #[test]
    fn non_adjacent_is_dropped() {
        let mut net = Network::new(
            Topology::from_edges(3, &[(0, 1)]),
            Box::new(ConstantDelay::new(ms(1.0))),
            ms(10.0),
        );
        let times = net.send_times(ProcId(0), ProcId(2), RealTime::ZERO, &mut rng());
        assert!(times.is_empty());
        assert_eq!(net.stats().dropped, 1);
    }

    #[test]
    fn cut_link_drops_and_restore_heals() {
        let mut net = mesh_net(3);
        let send = |net: &mut Network, a: u32, b: u32| {
            net.send_times(ProcId(a), ProcId(b), RealTime::ZERO, &mut rng())
                .len()
        };
        net.links_mut().cut(ProcId(0), ProcId(1));
        assert_eq!(send(&mut net, 0, 1), 0);
        // symmetric
        assert_eq!(send(&mut net, 1, 0), 0);
        assert_eq!(net.stats().dropped, 2);
        // other links unaffected
        assert_eq!(send(&mut net, 0, 2), 1);
        net.links_mut().restore(ProcId(0), ProcId(1));
        assert_eq!(send(&mut net, 0, 1), 1);
    }

    #[test]
    fn forged_traffic_counted() {
        let mut net = mesh_net(3);
        let now = RealTime::from_secs(1.0);
        let times = net.send_forged_times(ProcId(2), ProcId(0), now, &mut rng());
        assert_eq!(times[..], [now + ms(2.0)]);
        assert_eq!(net.stats().forged, 1);
        assert_eq!(net.stats().delivered, 1);
    }

    #[test]
    fn delivery_within_delta_always() {
        let delta = ms(10.0);
        let mut net = Network::new(
            Topology::full_mesh(4),
            Box::new(UniformDelay::new(ms(0.5), ms(10.0))),
            delta,
        );
        let mut r = rng();
        let now = RealTime::from_secs(5.0);
        for _ in 0..1000 {
            for at in net.send_times(ProcId(0), ProcId(1), now, &mut r) {
                assert!(at > now && at <= now + delta);
            }
        }
    }

    #[test]
    fn loss_probability_drops_fraction() {
        let mut net = mesh_net(3);
        net.set_loss_probability(0.5);
        let mut r = rng();
        let mut lost = 0;
        let total = 2000;
        for _ in 0..total {
            if net
                .send_times(ProcId(0), ProcId(1), RealTime::ZERO, &mut r)
                .is_empty()
            {
                lost += 1;
            }
        }
        let frac = lost as f64 / total as f64;
        assert!((frac - 0.5).abs() < 0.05, "loss fraction {frac}");
        assert_eq!(net.stats().dropped, lost);
    }

    #[test]
    fn send_times_matches_send_when_quiet() {
        let mut net = mesh_net(3);
        let times = net.send_times(ProcId(0), ProcId(1), RealTime::from_secs(1.0), &mut rng());
        assert_eq!(times[..], [RealTime::from_secs(1.0) + ms(2.0)]);
        // drops still yield no delivery
        let times = net.send_times(ProcId(1), ProcId(1), RealTime::ZERO, &mut rng());
        assert!(times.is_empty());
        assert_eq!(net.stats().duplicated, 0);
        assert_eq!(net.stats().spiked, 0);
    }

    #[test]
    fn duplication_fault_delivers_extra_copies() {
        let mut net = mesh_net(3);
        net.set_fault_profile(FaultProfile {
            duplicate_probability: 0.5,
            reorder_probability: 0.0,
        });
        let mut r = rng();
        let mut total = 0usize;
        for _ in 0..1000 {
            total += net
                .send_times(ProcId(0), ProcId(1), RealTime::ZERO, &mut r)
                .len();
        }
        let extra = total - 1000;
        assert!(
            (400..600).contains(&extra),
            "expected ~500 duplicates, got {extra}"
        );
        assert_eq!(net.stats().duplicated as usize, extra);
    }

    #[test]
    fn reorder_fault_stays_within_delta() {
        let delta = ms(10.0);
        let mut net = Network::new(
            Topology::full_mesh(2),
            Box::new(ConstantDelay::new(ms(1.0))),
            delta,
        );
        net.set_fault_profile(FaultProfile {
            duplicate_probability: 0.0,
            reorder_probability: 1.0,
        });
        let mut r = rng();
        let now = RealTime::from_secs(3.0);
        let mut saw_late = false;
        for _ in 0..200 {
            let at = net.send_times(ProcId(0), ProcId(1), now, &mut r)[0];
            assert!(at >= now + ms(1.0) && at <= now + delta, "at = {at}");
            saw_late |= at > now + ms(5.0);
        }
        assert!(saw_late, "reordering should push some deliveries late");
    }

    #[test]
    fn forged_times_subject_to_delay_spikes() {
        // Regression: adversary pongs used to go through a fault-free
        // forged send that skipped `apply_timing_faults` entirely — forged
        // traffic was immune to spikes the honest traffic suffered.
        let mut net = mesh_net(2);
        net.add_delay_spike(DelaySpike {
            from: RealTime::ZERO,
            until: RealTime::from_secs(100.0),
            factor: 4.0,
        });
        let now = RealTime::from_secs(5.0);
        let times = net.send_forged_times(ProcId(0), ProcId(1), now, &mut rng());
        // base 2 ms delay inflated 4x
        assert_eq!(times.len(), 1);
        let expected = now + ms(8.0);
        assert!(
            (times[0].as_secs() - expected.as_secs()).abs() < 1e-12,
            "at = {}",
            times[0]
        );
        assert_eq!(net.stats().spiked, 1);
        assert_eq!(net.stats().forged, 1);
    }

    #[test]
    fn forged_times_subject_to_duplication() {
        let mut net = mesh_net(2);
        net.set_fault_profile(FaultProfile {
            duplicate_probability: 1.0,
            reorder_probability: 0.0,
        });
        let times = net.send_forged_times(ProcId(0), ProcId(1), RealTime::ZERO, &mut rng());
        assert_eq!(times.len(), 2, "duplication must hit forged traffic too");
        assert_eq!(net.stats().duplicated, 1);
        assert_eq!(net.stats().forged, 1);
    }

    #[test]
    fn forged_times_subject_to_loss() {
        let mut net = mesh_net(2);
        net.set_loss_probability(0.5);
        let mut r = rng();
        let mut lost = 0;
        let total = 2000;
        for _ in 0..total {
            if net
                .send_forged_times(ProcId(0), ProcId(1), RealTime::ZERO, &mut r)
                .is_empty()
            {
                lost += 1;
            }
        }
        let frac = lost as f64 / total as f64;
        assert!((frac - 0.5).abs() < 0.05, "forged loss fraction {frac}");
        // forged counts the logical sends, delivered only the survivors
        assert_eq!(net.stats().forged, total);
        assert_eq!(net.stats().delivered, total - lost);
    }

    #[test]
    fn forged_times_match_send_forged_when_quiet() {
        let mut net = mesh_net(3);
        let now = RealTime::from_secs(1.0);
        let times = net.send_forged_times(ProcId(2), ProcId(0), now, &mut rng());
        assert_eq!(times[..], [now + ms(2.0)]);
        assert_eq!(net.stats().forged, 1);
    }

    #[test]
    fn delay_spike_exceeds_delta_only_inside_window() {
        let mut net = mesh_net(2);
        net.add_delay_spike(DelaySpike {
            from: RealTime::from_secs(10.0),
            until: RealTime::from_secs(20.0),
            factor: 4.0,
        });
        let mut r = rng();
        let close = |a: RealTime, b: RealTime| (a.as_secs() - b.as_secs()).abs() < 1e-12;
        // outside the window: the base 2 ms delay
        let at = net.send_times(ProcId(0), ProcId(1), RealTime::from_secs(5.0), &mut r)[0];
        assert!(close(at, RealTime::from_secs(5.0) + ms(2.0)), "at = {at}");
        // inside: 4x the sampled delay
        let at = net.send_times(ProcId(0), ProcId(1), RealTime::from_secs(15.0), &mut r)[0];
        assert!(close(at, RealTime::from_secs(15.0) + ms(8.0)), "at = {at}");
        assert_eq!(net.stats().spiked, 1);
        // past the window: back to normal
        let at = net.send_times(ProcId(0), ProcId(1), RealTime::from_secs(25.0), &mut r)[0];
        assert!(close(at, RealTime::from_secs(25.0) + ms(2.0)), "at = {at}");
    }

    fn deliveries(times: &[RealTime]) -> Deliveries {
        let mut d = Deliveries::default();
        for &at in times {
            d.push(at);
        }
        d
    }

    #[test]
    fn deliveries_hold_zero_one_or_two_entries() {
        let (a, b) = (RealTime::from_secs(1.0), RealTime::from_secs(2.0));
        for times in [&[][..], &[a], &[a, b]] {
            let d = deliveries(times);
            assert_eq!(d.len(), times.len());
            assert_eq!(d[..], *times);
            assert_eq!(d.into_iter().collect::<Vec<_>>(), times);
            assert_eq!(format!("{d:?}"), format!("{times:?}"));
        }
    }

    #[test]
    fn deliveries_equality_ignores_dead_slots() {
        let a = RealTime::from_secs(1.0);
        let stale = Deliveries {
            times: [a, RealTime::from_secs(9.0)],
            len: 1,
        };
        assert_eq!(stale, deliveries(&[a]));
        assert_eq!(
            Deliveries {
                times: [a, a],
                len: 0
            },
            Deliveries::default()
        );
        assert_ne!(stale, deliveries(&[a, RealTime::from_secs(9.0)]));
        assert_ne!(stale, deliveries(&[RealTime::from_secs(9.0)]));
    }

    #[test]
    #[should_panic(expected = "reorder probability")]
    fn fault_profile_rejects_bad_probability() {
        mesh_net(2).set_fault_profile(FaultProfile {
            duplicate_probability: 0.0,
            reorder_probability: 1.5,
        });
    }

    #[test]
    #[should_panic(expected = "factor")]
    fn delay_spike_rejects_shrinking_factor() {
        mesh_net(2).add_delay_spike(DelaySpike {
            from: RealTime::ZERO,
            until: RealTime::from_secs(1.0),
            factor: 0.5,
        });
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn loss_probability_one_rejected() {
        mesh_net(2).set_loss_probability(1.0);
    }

    #[test]
    #[should_panic(expected = "exceeds delta")]
    fn delay_model_above_delta_rejected() {
        Network::new(
            Topology::full_mesh(2),
            Box::new(ConstantDelay::new(ms(20.0))),
            ms(10.0),
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_delta_rejected() {
        Network::new(
            Topology::full_mesh(2),
            Box::new(ConstantDelay::new(SimDuration::ZERO)),
            SimDuration::ZERO,
        );
    }
}
