//! Clock-estimation arithmetic (paper Section 3.1).
//!
//! The requester `p` sends a ping at local time `S` and receives at local
//! time `R` a pong carrying the responder's clock `C`. The estimate is
//!
//! ```text
//! d = C − (R + S)/2        (the offset C_q − C_p at some instant)
//! a = (R − S)/2            (its error bound)
//! ```
//!
//! Definition 4's guarantee: if both processors were non-faulty during the
//! exchange, then at some real instant `τ'' ∈ [send, receive]` the true
//! offset `C_q(τ'') − C_p(τ'')` lay in `[d − a, d + a]` — proven in the
//! paper by noting `q` held value `C` somewhere inside the round trip.
//!
//! The min-round-trip filter ([`OffsetSample::min_rtt`]) is the classic
//! NTP refinement (also mentioned by the paper): among `k` samples, the one
//! with the smallest round trip has the smallest error bound. It folds one
//! sample at a time, so a node keeps only the best sample per peer.

use byzclock_clock::LocalTime;

/// One `(d, a)` offset estimate.
///
/// ```
/// use byzclock_core::OffsetSample;
/// use byzclock_clock::LocalTime;
///
/// // ping sent at local 10.0, pong received at 10.2, peer reported 110.1:
/// let s = OffsetSample::from_ping_pong(
///     LocalTime::from_secs(10.0),
///     LocalTime::from_secs(10.2),
///     LocalTime::from_secs(110.1),
/// );
/// assert_eq!(s.offset, 100.0); // C − (R+S)/2
/// assert!((s.error - 0.1).abs() < 1e-12); // (R−S)/2
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OffsetSample {
    /// Estimated offset `C_q − C_p`, seconds.
    pub offset: f64,
    /// Error bound `a ≥ 0`, seconds (`f64::INFINITY` for a timed-out
    /// estimate, which the protocol treats as `(0, ∞)`).
    pub error: f64,
}

impl OffsetSample {
    /// The timeout sentinel `(0, ∞)` used by the protocol when a peer does
    /// not answer within `MaxWait` (paper Section 3.1).
    pub const TIMEOUT: OffsetSample = OffsetSample {
        offset: 0.0,
        error: f64::INFINITY,
    };

    /// Computes `(d, a)` from a ping/pong exchange.
    ///
    /// # Panics
    ///
    /// Panics if `received < sent` — local clocks are monotone between
    /// adjustments, and the protocol performs no adjustment mid-round.
    pub fn from_ping_pong(sent: LocalTime, received: LocalTime, peer_clock: LocalTime) -> Self {
        assert!(
            received >= sent,
            "pong received before ping sent on the local clock"
        );
        let s = sent.as_secs();
        let r = received.as_secs();
        let c = peer_clock.as_secs();
        OffsetSample {
            offset: c - (r + s) / 2.0,
            error: (r - s) / 2.0,
        }
    }

    /// The overestimate `d + a` (used for the low-value selection in
    /// Figure 1 line 6).
    pub fn overestimate(&self) -> f64 {
        self.offset + self.error
    }

    /// The underestimate `d − a` (Figure 1 line 7).
    pub fn underestimate(&self) -> f64 {
        self.offset - self.error
    }

    /// True iff this sample is a timeout sentinel.
    pub fn is_timeout(&self) -> bool {
        self.error.is_infinite()
    }

    /// NTP-style filter step: `later` if its error bound (half its round
    /// trip) is strictly smaller than `self`'s under `total_cmp`, else
    /// `self`. Folding a peer's samples in arrival order keeps the one with
    /// the smallest round trip, and the earliest of equal ones.
    pub fn min_rtt(self, later: OffsetSample) -> OffsetSample {
        if later.error.total_cmp(&self.error).is_lt() {
            later
        } else {
            self
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl OffsetSample {
        /// The whole-slice min-RTT filter: the sample with the smallest
        /// error bound, the first of equal ones, or
        /// [`OffsetSample::TIMEOUT`] for an empty slice. The reference that
        /// [`OffsetSample::min_rtt`] folds must match.
        pub(crate) fn best_of(samples: &[OffsetSample]) -> OffsetSample {
            samples
                .iter()
                .copied()
                .min_by(|a, b| a.error.total_cmp(&b.error))
                .unwrap_or(OffsetSample::TIMEOUT)
        }
    }

    fn lt(s: f64) -> LocalTime {
        LocalTime::from_secs(s)
    }

    #[test]
    fn symmetric_exchange_is_exact() {
        // Ping at S=10, pong received at R=12, peer replied at the midpoint
        // holding clock 111: offset = 111 - 11 = 100, error = 1.
        let s = OffsetSample::from_ping_pong(lt(10.0), lt(12.0), lt(111.0));
        assert_eq!(s.offset, 100.0);
        assert_eq!(s.error, 1.0);
        assert_eq!(s.overestimate(), 101.0);
        assert_eq!(s.underestimate(), 99.0);
        assert!(!s.is_timeout());
    }

    #[test]
    fn zero_round_trip_zero_error() {
        let s = OffsetSample::from_ping_pong(lt(5.0), lt(5.0), lt(5.0));
        assert_eq!(s.error, 0.0);
        assert_eq!(s.offset, 0.0);
    }

    #[test]
    fn definition_4_containment_under_asymmetric_delays() {
        // True offset is B (constant, no drift, no adjustment during the
        // exchange). Requester clock = real time; peer clock = real + B.
        // Ping sent at real 0 (S=0), takes d1; peer replies immediately with
        // C = d1 + B; pong takes d2; received at R = d1 + d2.
        let b = 42.0;
        for (d1, d2) in [(0.1, 0.9), (0.5, 0.5), (0.9, 0.1), (0.0, 1.0)] {
            let s = OffsetSample::from_ping_pong(lt(0.0), lt(d1 + d2), lt(d1 + b));
            assert!(
                s.underestimate() <= b && b <= s.overestimate(),
                "true offset {b} outside [{}, {}] for delays ({d1},{d2})",
                s.underestimate(),
                s.overestimate()
            );
            // error bound = half round trip
            assert!((s.error - (d1 + d2) / 2.0).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "before ping")]
    fn non_monotone_reception_panics() {
        OffsetSample::from_ping_pong(lt(10.0), lt(9.0), lt(0.0));
    }

    #[test]
    fn timeout_sentinel_shape() {
        let t = OffsetSample::TIMEOUT;
        assert!(t.is_timeout());
        assert_eq!(t.offset, 0.0);
        assert_eq!(t.overestimate(), f64::INFINITY);
        assert_eq!(t.underestimate(), f64::NEG_INFINITY);
    }

    #[test]
    fn best_of_picks_min_round_trip() {
        let samples = [
            OffsetSample {
                offset: 1.0,
                error: 0.5,
            },
            OffsetSample {
                offset: 1.2,
                error: 0.1,
            },
            OffsetSample {
                offset: 0.8,
                error: 0.9,
            },
        ];
        let best = OffsetSample::best_of(&samples);
        assert_eq!(best.error, 0.1);
        assert_eq!(best.offset, 1.2);
    }

    #[test]
    fn best_of_empty_is_timeout() {
        assert!(OffsetSample::best_of(&[]).is_timeout());
    }

    #[test]
    fn best_of_prefers_finite_over_timeout() {
        let samples = [
            OffsetSample::TIMEOUT,
            OffsetSample {
                offset: 3.0,
                error: 0.2,
            },
        ];
        assert_eq!(OffsetSample::best_of(&samples).offset, 3.0);
    }

    #[test]
    fn min_rtt_fold_matches_best_of_and_keeps_the_first_tie() {
        let s = |offset: f64, error: f64| OffsetSample { offset, error };
        let cases: [&[OffsetSample]; 4] = [
            &[s(1.0, 0.5), s(1.2, 0.1), s(0.8, 0.9)],
            &[s(1.0, 0.2), s(2.0, 0.2), s(3.0, 0.2)],
            &[s(1.0, 0.0), s(2.0, -0.0)],
            &[OffsetSample::TIMEOUT, s(3.0, 0.2)],
        ];
        for samples in cases {
            let folded = samples.iter().copied().reduce(OffsetSample::min_rtt);
            assert_eq!(folded, Some(OffsetSample::best_of(samples)));
        }
        // equal round trips: the earliest sample stays
        assert_eq!(s(1.0, 0.2).min_rtt(s(2.0, 0.2)).offset, 1.0);
        // -0.0 sorts below +0.0 under total_cmp, as in best_of
        assert_eq!(s(1.0, 0.0).min_rtt(s(2.0, -0.0)).offset, 2.0);
    }
}
