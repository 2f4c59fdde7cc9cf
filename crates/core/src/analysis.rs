//! Envelopes in the `(τ, β)`-plane (paper Definition 6, Appendix A).
//!
//! An envelope `Env{τ₀, [a, b]}` is the region a set of biases can occupy
//! after `τ₀` given the drift bound ρ: at time `τ ≥ τ₀` the permitted
//! interval is `[a − ρ(τ−τ₀), b + ρ(τ−τ₀)]`. Lemma 7 is a statement about
//! envelopes: good biases stay inside `E`, end up inside a strictly
//! narrower `E′`, and recovering biases halve their distance to `E`.
//! The harness uses this module to *check* those statements against
//! simulated trajectories.

use byzclock_clock::Bias;
use byzclock_sim::RealTime;

/// An envelope `Env{τ₀, [lo, hi]}` with drift slope ρ (Definition 6).
///
/// ```
/// use byzclock_core::Envelope;
/// use byzclock_clock::Bias;
/// use byzclock_sim::RealTime;
///
/// // biases within ±10 ms at τ₀ = 0, drift bound 1e-4
/// let env = Envelope::new(RealTime::ZERO, -0.01, 0.01, 1e-4);
/// // 100 s later the permitted band has widened by ρ·τ on each side
/// assert!(env.contains(Bias::from_secs(0.019), RealTime::from_secs(100.0)));
/// assert!(!env.contains(Bias::from_secs(0.021), RealTime::from_secs(100.0)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Envelope {
    tau0: RealTime,
    lo: f64,
    hi: f64,
    rho: f64,
}

impl Envelope {
    /// Creates `Env{τ₀, [lo, hi]}` with slope `rho`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or `rho < 0`.
    pub fn new(tau0: RealTime, lo: f64, hi: f64, rho: f64) -> Self {
        assert!(lo <= hi, "envelope interval inverted");
        assert!(rho >= 0.0, "rho must be non-negative");
        Envelope { tau0, lo, hi, rho }
    }

    /// The envelope spanned by a set of biases at `tau0` (the tightest
    /// envelope containing them).
    ///
    /// # Panics
    ///
    /// Panics if `biases` is empty.
    pub fn spanning(tau0: RealTime, biases: &[Bias], rho: f64) -> Self {
        assert!(!biases.is_empty(), "cannot span an empty bias set");
        let lo = biases
            .iter()
            .map(|b| b.as_secs())
            .fold(f64::INFINITY, f64::min);
        let hi = biases
            .iter()
            .map(|b| b.as_secs())
            .fold(f64::NEG_INFINITY, f64::max);
        Envelope::new(tau0, lo, hi, rho)
    }

    /// Anchor time τ₀.
    pub fn tau0(&self) -> RealTime {
        self.tau0
    }

    /// The interval `E(τ)` (paper notation), for `τ ≥ τ₀`.
    ///
    /// # Panics
    ///
    /// Debug-asserts `tau ≥ τ₀`.
    pub fn at(&self, tau: RealTime) -> (f64, f64) {
        debug_assert!(tau >= self.tau0, "envelope queried before its anchor");
        let dt = (tau - self.tau0).as_secs();
        (self.lo - self.rho * dt, self.hi + self.rho * dt)
    }

    /// The width `|E(τ)|`.
    pub fn width_at(&self, tau: RealTime) -> f64 {
        let (lo, hi) = self.at(tau);
        hi - lo
    }

    /// The width at the anchor, `|E(τ₀)| = hi − lo`.
    pub fn base_width(&self) -> f64 {
        self.hi - self.lo
    }

    /// True iff `bias ∈ E(τ)`.
    pub fn contains(&self, bias: Bias, tau: RealTime) -> bool {
        let (lo, hi) = self.at(tau);
        (lo..=hi).contains(&bias.as_secs())
    }

    /// Signed distance from the bias to the interval `E(τ)`: 0 inside,
    /// positive above `hi`, negative below `lo`. `|distance|` is the
    /// recovering-processor ε of Lemma 7(iii).
    pub fn distance(&self, bias: Bias, tau: RealTime) -> f64 {
        let (lo, hi) = self.at(tau);
        let b = bias.as_secs();
        if b > hi {
            b - hi
        } else if b < lo {
            b - lo
        } else {
            0.0
        }
    }

    /// `E + c`: both sides extended by `c` (paper notation).
    ///
    /// # Panics
    ///
    /// Panics if `c < 0`.
    pub fn extend(&self, c: f64) -> Envelope {
        assert!(c >= 0.0, "extension must be non-negative");
        Envelope {
            lo: self.lo - c,
            hi: self.hi + c,
            ..*self
        }
    }

    /// `avg(E, E′)`: the envelope of pairwise averages (paper Appendix A.1).
    /// Both must share the anchor and slope.
    ///
    /// # Panics
    ///
    /// Panics if anchors or slopes differ.
    pub fn avg(&self, other: &Envelope) -> Envelope {
        assert_eq!(self.tau0, other.tau0, "avg requires equal anchors");
        assert!(
            (self.rho - other.rho).abs() < 1e-15,
            "avg requires equal slopes"
        );
        Envelope {
            tau0: self.tau0,
            lo: (self.lo + other.lo) / 2.0,
            hi: (self.hi + other.hi) / 2.0,
            rho: self.rho,
        }
    }

    /// True iff `self ⊆ other` at every `τ ≥ max(τ₀, τ₀′)` — with equal
    /// slopes this reduces to interval containment at the later anchor.
    pub fn is_within(&self, other: &Envelope) -> bool {
        let anchor = self.tau0.max(other.tau0);
        let (slo, shi) = self.at(anchor);
        let (olo, ohi) = other.at(anchor);
        slo >= olo && shi <= ohi && self.rho <= other.rho
    }
}

/// Empirical verification of the paper's Claim 8 induction over a
/// trajectory of bias snapshots.
///
/// Claim 8 asserts the existence of envelopes `E_0, E_1, …` (one per
/// interval `I_i` of length `T`) such that (i) `|E_i(iT)| ≤ 2D` and
/// `E_i ⊆ E_{i−1} + C/2`, and (ii) `E_i` contains the biases of the good
/// processors during `I_i`. Given the *measured* good-bias extents per
/// interval, this checker instantiates each `E_i` as the tightest envelope
/// spanning interval `i`'s observations and verifies both conditions.
#[derive(Debug, Clone)]
pub struct EnvelopeChain {
    t: f64,
    rho: f64,
    envelopes: Vec<Envelope>,
}

/// One Claim 8 violation found by [`EnvelopeChain::verify`].
#[derive(Debug, Clone, PartialEq)]
pub enum ChainViolation {
    /// `|E_i(iT)|` exceeded `2D`.
    TooWide {
        /// Interval index.
        interval: usize,
        /// Measured width.
        width: f64,
    },
    /// `E_i ⊄ E_{i−1} + C/2`.
    Escaped {
        /// Interval index.
        interval: usize,
    },
}

impl EnvelopeChain {
    /// Builds the chain from per-interval good-bias extents.
    ///
    /// `extents[i] = (lo, hi)` is the min/max good bias observed during
    /// interval `i` (each of real length `t`); `rho` is the drift bound.
    ///
    /// # Panics
    ///
    /// Panics if `t` is not positive, any extent is inverted, or `extents`
    /// is empty.
    pub fn from_extents(extents: &[(f64, f64)], t: f64, rho: f64) -> Self {
        assert!(t > 0.0, "interval length must be positive");
        assert!(!extents.is_empty(), "need at least one interval");
        let envelopes = extents
            .iter()
            .enumerate()
            .map(|(i, &(lo, hi))| Envelope::new(RealTime::from_secs(i as f64 * t), lo, hi, rho))
            .collect();
        EnvelopeChain { t, rho, envelopes }
    }

    /// Number of intervals in the chain.
    pub fn len(&self) -> usize {
        self.envelopes.len()
    }

    /// True iff the chain is empty (never: construction requires ≥ 1).
    pub fn is_empty(&self) -> bool {
        self.envelopes.is_empty()
    }

    /// Checks Claim 8's conditions with the given `D` and `C` constants;
    /// returns every violation (empty = the induction held empirically).
    pub fn verify(&self, d: f64, c: f64) -> Vec<ChainViolation> {
        let mut violations = Vec::new();
        for (i, env) in self.envelopes.iter().enumerate() {
            if env.base_width() > 2.0 * d + 1e-12 {
                violations.push(ChainViolation::TooWide {
                    interval: i,
                    width: env.base_width(),
                });
            }
            if i > 0 {
                let prev_grown = self.envelopes[i - 1].extend(c / 2.0);
                // compare at this interval's anchor, allowing the previous
                // envelope its rho-widening across the elapsed interval
                let anchor = RealTime::from_secs(i as f64 * self.t);
                let (plo, phi) = prev_grown.at(anchor);
                let (lo, hi) = env.at(anchor);
                if lo < plo - 1e-12 || hi > phi + 1e-12 {
                    violations.push(ChainViolation::Escaped { interval: i });
                }
            }
        }
        let _ = self.rho;
        violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> RealTime {
        RealTime::from_secs(s)
    }
    fn b(s: f64) -> Bias {
        Bias::from_secs(s)
    }

    #[test]
    fn widens_with_slope() {
        let e = Envelope::new(t(10.0), -1.0, 1.0, 0.1);
        assert_eq!(e.at(t(10.0)), (-1.0, 1.0));
        assert_eq!(e.at(t(20.0)), (-2.0, 2.0));
        assert_eq!(e.base_width(), 2.0);
        assert_eq!(e.width_at(t(20.0)), 4.0);
    }

    #[test]
    fn zero_slope_is_static() {
        let e = Envelope::new(t(0.0), 3.0, 5.0, 0.0);
        assert_eq!(e.at(t(1000.0)), (3.0, 5.0));
    }

    #[test]
    fn contains_and_distance() {
        let e = Envelope::new(t(0.0), -1.0, 1.0, 0.0);
        assert!(e.contains(b(0.0), t(5.0)));
        assert!(e.contains(b(1.0), t(5.0))); // boundary inclusive
        assert!(!e.contains(b(1.1), t(5.0)));
        assert_eq!(e.distance(b(0.5), t(5.0)), 0.0);
        assert_eq!(e.distance(b(3.0), t(5.0)), 2.0);
        assert_eq!(e.distance(b(-4.0), t(5.0)), -3.0);
    }

    #[test]
    fn distance_accounts_for_widening() {
        let e = Envelope::new(t(0.0), -1.0, 1.0, 0.1);
        // at τ=10 the interval is [-2, 2]
        assert_eq!(e.distance(b(3.0), t(10.0)), 1.0);
        assert!(e.contains(b(2.0), t(10.0)));
    }

    #[test]
    fn spanning_is_tightest() {
        let e = Envelope::spanning(t(1.0), &[b(0.3), b(-0.2), b(0.1)], 0.01);
        assert_eq!(e.at(t(1.0)), (-0.2, 0.3));
        for bias in [b(0.3), b(-0.2), b(0.1)] {
            assert!(e.contains(bias, t(1.0)));
        }
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn spanning_empty_panics() {
        Envelope::spanning(t(0.0), &[], 0.0);
    }

    #[test]
    fn extend_matches_paper_notation() {
        let e = Envelope::new(t(0.0), -1.0, 1.0, 0.0).extend(0.5);
        assert_eq!(e.at(t(0.0)), (-1.5, 1.5));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_extension_panics() {
        Envelope::new(t(0.0), 0.0, 1.0, 0.0).extend(-0.1);
    }

    #[test]
    fn avg_of_envelopes() {
        let e1 = Envelope::new(t(0.0), 0.0, 2.0, 0.1);
        let e2 = Envelope::new(t(0.0), 4.0, 6.0, 0.1);
        let avg = e1.avg(&e2);
        assert_eq!(avg.at(t(0.0)), (2.0, 4.0));
        // membership property from the paper: β ∈ E1, β′ ∈ E2 ⇒
        // (β+β′)/2 ∈ avg — spot check at anchor
        assert!(avg.contains(b((0.5 + 4.5) / 2.0), t(0.0)));
    }

    #[test]
    #[should_panic(expected = "anchors")]
    fn avg_requires_equal_anchors() {
        let e1 = Envelope::new(t(0.0), 0.0, 1.0, 0.0);
        let e2 = Envelope::new(t(1.0), 0.0, 1.0, 0.0);
        let _ = e1.avg(&e2);
    }

    #[test]
    fn is_within_containment() {
        let outer = Envelope::new(t(0.0), -2.0, 2.0, 0.1);
        let inner = Envelope::new(t(5.0), -1.0, 1.0, 0.1);
        assert!(inner.is_within(&outer));
        assert!(!outer.is_within(&inner));
        let wide = Envelope::new(t(5.0), -10.0, 10.0, 0.1);
        assert!(!wide.is_within(&outer));
    }

    #[test]
    #[should_panic(expected = "inverted")]
    fn inverted_interval_panics() {
        Envelope::new(t(0.0), 1.0, 0.0, 0.0);
    }

    #[test]
    fn envelope_chain_accepts_contracting_trajectory() {
        // spreads shrink 7/8 per interval from 2D — the Lemma 7 picture
        let d = 0.08;
        let c = 0.005;
        let mut extents = Vec::new();
        let mut half = d;
        for _ in 0..8 {
            extents.push((-half, half));
            half *= 7.0 / 8.0;
        }
        let chain = EnvelopeChain::from_extents(&extents, 7.5, 1e-5);
        assert_eq!(chain.len(), 8);
        assert!(chain.verify(d, c).is_empty());
    }

    #[test]
    fn envelope_chain_flags_excess_width() {
        let chain = EnvelopeChain::from_extents(&[(-1.0, 1.0)], 5.0, 0.0);
        let violations = chain.verify(0.5, 0.01);
        assert!(matches!(
            violations.as_slice(),
            [ChainViolation::TooWide { interval: 0, .. }]
        ));
    }

    #[test]
    fn envelope_chain_flags_escape() {
        // second interval jumps far outside the first + C/2
        let chain = EnvelopeChain::from_extents(&[(-0.1, 0.1), (0.5, 0.7)], 5.0, 0.0);
        let violations = chain.verify(1.0, 0.01);
        assert_eq!(violations, vec![ChainViolation::Escaped { interval: 1 }]);
    }

    #[test]
    fn envelope_chain_allows_c_half_growth() {
        let c = 0.1;
        let chain =
            EnvelopeChain::from_extents(&[(-0.1, 0.1), (-0.1 - c / 2.0, 0.1 + c / 2.0)], 5.0, 0.0);
        assert!(chain.verify(1.0, c).is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn envelope_chain_rejects_empty() {
        EnvelopeChain::from_extents(&[], 5.0, 0.0);
    }

    #[test]
    fn lemma7_shape_sanity() {
        // The E′ of Lemma 7 (width 7D/4 + 2Λ) is within E (width 2D) when
        // D > 8Λ — mirror that arithmetic here as a consistency check.
        let d = 1.0;
        let lambda = 0.1; // D > 8Λ holds (1.0 > 0.8)
        let e = Envelope::new(t(0.0), -d, d, 0.0);
        let e_prime_half = (7.0 * d / 4.0 + 2.0 * lambda) / 2.0;
        let e_prime = Envelope::new(t(0.0), -e_prime_half, e_prime_half, 0.0);
        assert!(e_prime.is_within(&e));
    }
}
