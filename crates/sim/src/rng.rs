//! Deterministic, labeled random-number streams.
//!
//! An entire simulation must be a pure function of one root seed, yet adding
//! a new consumer of randomness (say, a new adversary strategy) must not
//! shift the random values every *other* component sees. [`RngHub`] solves
//! this by deriving an independent [`DetRng`] stream per `(label, index)`
//! pair with a stable 64-bit mixing function, so streams are decoupled by
//! construction.

/// Derives independent deterministic RNG streams from a root seed.
///
/// ```
/// use byzclock_sim::RngHub;
///
/// let hub = RngHub::new(42);
/// let mut a1 = hub.stream("delay", 0);
/// let mut a2 = hub.stream("delay", 0);
/// let mut b = hub.stream("drift", 0);
/// let x1 = a1.bits64();
/// let x2 = a2.bits64();
/// let y = b.bits64();
/// assert_eq!(x1, x2); // same label+index => same stream
/// assert_ne!(x1, y);  // different label => independent stream
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RngHub {
    root: u64,
}

impl RngHub {
    /// Creates a hub from a root seed.
    pub fn new(root_seed: u64) -> Self {
        RngHub { root: root_seed }
    }

    /// Returns the deterministic stream for `(label, index)`.
    ///
    /// The same `(label, index)` always yields an identical stream; distinct
    /// pairs yield statistically independent streams.
    pub fn stream(&self, label: &str, index: u64) -> DetRng {
        let mut h = self.root;
        for &b in label.as_bytes() {
            h = mix64(h ^ u64::from(b));
        }
        h = mix64(h ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        DetRng::seeded(h)
    }
}

/// SplitMix64 finalizer — a well-distributed 64-bit mixing function.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic random-number generator stream: xoshiro256++ with
/// convenience samplers used across the simulator.
#[derive(Debug, Clone)]
pub struct DetRng {
    s: [u64; 4],
}

impl DetRng {
    /// Creates a stream directly from a 64-bit seed, expanding it into the
    /// four state words by SplitMix64.
    pub fn seeded(seed: u64) -> Self {
        // `mix64` is a bijection and the four inputs differ, so at most one
        // word is 0: the all-zero state xoshiro must avoid cannot occur.
        let word = |i: u64| mix64(seed.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
        DetRng {
            s: [word(0), word(1), word(2), word(3)],
        }
    }

    /// Uniform sample in `[lo, hi)`. For `lo == hi` returns `lo`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo <= hi, "uniform: lo > hi");
        if lo == hi {
            return lo;
        }
        let v = lo + self.unit() * (hi - lo);
        // guard against rounding up to the excluded endpoint
        if v >= hi {
            lo
        } else {
            v
        }
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index: empty range");
        self.below(n)
    }

    /// Bernoulli trial with probability `p` (clamped to `[0,1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        self.unit() < p
    }

    /// Standard normal sample via Box–Muller.
    pub fn normal(&mut self) -> f64 {
        // Rejection-free Box–Muller; u1 in (0,1] to avoid ln(0).
        let u1: f64 = 1.0 - self.unit();
        let u2: f64 = self.unit();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Normal sample with the given mean and standard deviation.
    pub fn normal_with(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.normal()
    }

    /// Raw 64 random bits (e.g. for nonces and derived seeds): one
    /// xoshiro256++ step.
    pub fn bits64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform sample in `[0, 1)` from the top 53 bits of one draw.
    fn unit(&mut self) -> f64 {
        (self.bits64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, span)`: a 128-bit draw, high word first,
    /// reduced modulo `span`.
    fn below(&mut self, span: usize) -> usize {
        let hi = u128::from(self.bits64());
        let lo = u128::from(self.bits64());
        (((hi << 64) | lo) % span as u128) as usize
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.below(i + 1);
            slice.swap(i, j);
        }
    }

    /// Chooses a uniformly random element of a non-empty slice.
    ///
    /// # Panics
    ///
    /// Panics if the slice is empty.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> &'a T {
        &slice[self.index(slice.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_label_same_stream() {
        let hub = RngHub::new(7);
        let a: Vec<u64> = {
            let mut r = hub.stream("x", 3);
            (0..16).map(|_| r.bits64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = hub.stream("x", 3);
            (0..16).map(|_| r.bits64()).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn different_labels_differ() {
        let hub = RngHub::new(7);
        let a: u64 = hub.stream("x", 0).bits64();
        let b: u64 = hub.stream("y", 0).bits64();
        assert_ne!(a, b);
    }

    #[test]
    fn different_indices_differ() {
        let hub = RngHub::new(7);
        let a: u64 = hub.stream("x", 0).bits64();
        let b: u64 = hub.stream("x", 1).bits64();
        assert_ne!(a, b);
    }

    #[test]
    fn different_roots_differ() {
        let a: u64 = RngHub::new(1).stream("x", 0).bits64();
        let b: u64 = RngHub::new(2).stream("x", 0).bits64();
        assert_ne!(a, b);
    }

    #[test]
    fn uniform_in_range() {
        let mut r = RngHub::new(11).stream("u", 0);
        for _ in 0..1000 {
            let x = r.uniform(2.0, 5.0);
            assert!((2.0..5.0).contains(&x));
        }
        assert_eq!(r.uniform(3.0, 3.0), 3.0);
    }

    #[test]
    #[should_panic(expected = "lo > hi")]
    fn uniform_panics_on_inverted_range() {
        RngHub::new(0).stream("u", 0).uniform(5.0, 2.0);
    }

    #[test]
    fn uniform_mean_is_plausible() {
        let mut r = RngHub::new(13).stream("u", 0);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| r.uniform(0.0, 1.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean={mean}");
    }

    #[test]
    fn normal_moments_are_plausible() {
        let mut r = RngHub::new(17).stream("n", 0);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| r.normal()).collect();
        let mean: f64 = samples.iter().sum::<f64>() / n as f64;
        let var: f64 = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean={mean}");
        assert!((var - 1.0).abs() < 0.1, "var={var}");
    }

    #[test]
    fn chance_extremes() {
        let mut r = RngHub::new(19).stream("c", 0);
        assert!(!(0..100).any(|_| r.chance(0.0)));
        assert!((0..100).all(|_| r.chance(1.0)));
        // out-of-range p is clamped, not panicking
        let _ = r.chance(-1.0);
        let _ = r.chance(2.0);
    }

    #[test]
    fn index_bounds() {
        let mut r = RngHub::new(23).stream("i", 0);
        for _ in 0..1000 {
            assert!(r.index(7) < 7);
        }
    }

    /// The first draws of one stream through every sampler. Any change to
    /// the generator, its seeding or a sampler's arithmetic moves every
    /// simulated run, so the exact values are pinned.
    #[test]
    fn stream_values_are_pinned() {
        let mut r = RngHub::new(42).stream("pin", 3);
        let bits: Vec<u64> = (0..3).map(|_| r.bits64()).collect();
        assert_eq!(
            bits,
            [
                0x8248_8dd6_2730_026c,
                0x1085_6629_da9e_d7bf,
                0xc948_cd44_f634_0fc5
            ]
        );
        let uniform: Vec<u64> = (0..3).map(|_| r.uniform(-1.5, 2.5).to_bits()).collect();
        assert_eq!(
            uniform,
            [
                0x4002_cd08_1dea_9cb0,
                0x3fff_8aa3_0760_c7bc,
                0x4003_4311_e60a_1d86
            ]
        );
        let index: Vec<usize> = (0..6).map(|_| r.index(1000)).collect();
        assert_eq!(index, [623, 237, 716, 400, 418, 555]);
        let normal: Vec<u64> = (0..2).map(|_| r.normal().to_bits()).collect();
        assert_eq!(normal, [0xbfb5_9dd3_3879_b015, 0x3fe5_ac68_e51d_bce2]);
        let chance: Vec<bool> = (0..8).map(|_| r.chance(0.5)).collect();
        assert_eq!(chance, [true, false, true, true, false, false, false, true]);
        let mut v: Vec<u32> = (0..10).collect();
        r.shuffle(&mut v);
        assert_eq!(v, [7, 8, 5, 9, 2, 3, 6, 4, 1, 0]);
        assert_eq!(r.bits64(), 0x7706_21b8_da82_625f);
        assert_eq!(DetRng::seeded(0).bits64(), 0x5317_5d61_490b_23df);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = RngHub::new(29).stream("s", 0);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn choose_picks_members() {
        let mut r = RngHub::new(31).stream("ch", 0);
        let items = [10, 20, 30];
        for _ in 0..100 {
            assert!(items.contains(r.choose(&items)));
        }
    }
}
