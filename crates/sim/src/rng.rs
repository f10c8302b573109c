//! Deterministic pseudo-random numbers.
//!
//! [`DetRng`] is xoshiro256\*\* seeded through SplitMix64 — the standard
//! construction recommended by the xoshiro authors. It is implemented
//! from scratch so the simulator depends on nothing whose output could
//! change across crate versions; experiment results must be bit-stable.
//!
//! On top of the raw generator we provide the distributions the workload
//! and content generators need: uniform ranges, exponential, Poisson,
//! normal (Box–Muller), Pareto, and geometric.

/// SplitMix64 step — used for seeding and as a cheap standalone mixer.
///
/// This is also the hash the content generator uses to derive stable
/// per-library seeds from name strings.
pub fn splitmix64(state: &mut u64) {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
}

fn splitmix64_next(state: &mut u64) -> u64 {
    splitmix64(state);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Mixes arbitrary bytes into a 64-bit seed (FNV-1a basis, SplitMix finish).
pub fn seed_from_bytes(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF29CE484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001B3);
    }
    let mut s = h;
    splitmix64_next(&mut s)
}

/// A deterministic xoshiro256\*\* generator.
///
/// # Examples
///
/// ```
/// use medes_sim::DetRng;
/// let mut a = DetRng::new(7);
/// let mut b = DetRng::new(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct DetRng {
    s: [u64; 4],
}

impl DetRng {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = splitmix64_next(&mut sm);
        }
        // Guard against an (astronomically unlikely) all-zero state.
        if s == [0, 0, 0, 0] {
            s[0] = 0x9E3779B97F4A7C15;
        }
        DetRng { s }
    }

    /// Derives an independent child generator. Streams derived with
    /// different tags are statistically independent.
    pub fn fork(&self, tag: u64) -> DetRng {
        let mut sm = self.s[0] ^ self.s[2].rotate_left(17) ^ tag.wrapping_mul(0x9E3779B97F4A7C15);
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = splitmix64_next(&mut sm);
        }
        DetRng { s }
    }

    /// Next raw 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Next random byte.
    pub fn next_u8(&mut self) -> u8 {
        (self.next_u64() >> 56) as u8
    }

    /// Uniform float in `[0, 1)` with 53 bits of precision.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`. Panics if `n == 0`.
    ///
    /// Uses Lemire's multiply-shift rejection method for unbiased output.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is meaningless");
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(n as u128);
            let lo = m as u64;
            if lo >= n || lo >= lo.wrapping_neg() % n {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform integer in `[lo, hi)`. Panics if the range is empty.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        lo + self.below(hi - lo)
    }

    /// Uniform float in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.f64()
    }

    /// Bernoulli trial with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Exponentially distributed sample with the given mean.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        let u = loop {
            let u = self.f64();
            if u > 0.0 {
                break u;
            }
        };
        -mean * u.ln()
    }

    /// Poisson-distributed sample with the given mean (Knuth for small
    /// means, normal approximation above 64 to stay O(1)).
    pub fn poisson(&mut self, mean: f64) -> u64 {
        if mean <= 0.0 {
            return 0;
        }
        if mean > 64.0 {
            let x = self.normal(mean, mean.sqrt());
            return x.max(0.0).round() as u64;
        }
        let limit = (-mean).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= self.f64();
            if p <= limit {
                return k;
            }
            k += 1;
        }
    }

    /// Normal sample via Box–Muller.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        let u1 = loop {
            let u = self.f64();
            if u > 0.0 {
                break u;
            }
        };
        let u2 = self.f64();
        let r = (-2.0 * u1.ln()).sqrt();
        mean + std_dev * r * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Log-normal sample parameterized by the mean/σ of the underlying
    /// normal.
    pub fn log_normal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal(mu, sigma).exp()
    }

    /// Pareto sample with scale `x_m` and shape `alpha` (heavy tails for
    /// skewed function popularity).
    pub fn pareto(&mut self, x_m: f64, alpha: f64) -> f64 {
        let u = loop {
            let u = self.f64();
            if u > 0.0 {
                break u;
            }
        };
        x_m / u.powf(1.0 / alpha)
    }

    /// Zipf sample over `[0, n)` with exponent `s`: rank `r` is drawn
    /// with probability proportional to `1 / (r + 1)^s`. Used for
    /// multi-tenant popularity skew (a handful of tenants dominate
    /// invocation volume). Linear in `n` per draw, which is fine for
    /// the tenant/function cardinalities the workload generators use.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn zipf(&mut self, n: u64, s: f64) -> u64 {
        assert!(n > 0, "zipf(0) is meaningless");
        let norm: f64 = (0..n).map(|r| 1.0 / ((r + 1) as f64).powf(s)).sum();
        let mut u = self.f64() * norm;
        for r in 0..n {
            u -= 1.0 / ((r + 1) as f64).powf(s);
            if u <= 0.0 {
                return r;
            }
        }
        n - 1
    }

    /// Geometric sample: number of failures before the first success with
    /// per-trial probability `p`.
    pub fn geometric(&mut self, p: f64) -> u64 {
        assert!(p > 0.0 && p <= 1.0);
        if p >= 1.0 {
            return 0;
        }
        let u = loop {
            let u = self.f64();
            if u > 0.0 {
                break u;
            }
        };
        (u.ln() / (1.0 - p).ln()).floor() as u64
    }

    /// Fills `buf` with random bytes.
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        let mut chunks = buf.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let b = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&b[..rem.len()]);
        }
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }

    /// Picks a uniformly random element, or `None` on an empty slice.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> Option<&'a T> {
        if slice.is_empty() {
            None
        } else {
            Some(&slice[self.below(slice.len() as u64) as usize])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = DetRng::new(123);
        let mut b = DetRng::new(123);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn forks_are_independent_and_deterministic() {
        let root = DetRng::new(9);
        let mut c1 = root.fork(1);
        let mut c2 = root.fork(2);
        let mut c1b = root.fork(1);
        assert_eq!(c1.next_u64(), c1b.next_u64());
        assert_ne!(c1.next_u64(), c2.next_u64());
    }

    #[test]
    fn below_is_in_range_and_roughly_uniform() {
        let mut rng = DetRng::new(42);
        let mut counts = [0usize; 10];
        for _ in 0..100_000 {
            counts[rng.below(10) as usize] += 1;
        }
        for &c in &counts {
            assert!(
                (8_000..12_000).contains(&c),
                "bucket count {c} out of range"
            );
        }
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = DetRng::new(5);
        for _ in 0..10_000 {
            let x = rng.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn exponential_mean_converges() {
        let mut rng = DetRng::new(7);
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| rng.exponential(3.0)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn poisson_mean_converges_small_and_large() {
        let mut rng = DetRng::new(8);
        for target in [0.5, 4.0, 100.0] {
            let n = 50_000;
            let mean: f64 = (0..n).map(|_| rng.poisson(target) as f64).sum::<f64>() / n as f64;
            assert!(
                (mean - target).abs() / target.max(1.0) < 0.05,
                "poisson({target}) mean {mean}"
            );
        }
    }

    #[test]
    fn normal_moments_converge() {
        let mut rng = DetRng::new(9);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal(10.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.15, "var {var}");
    }

    #[test]
    fn geometric_mean_converges() {
        let mut rng = DetRng::new(10);
        let p = 0.25;
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.geometric(p) as f64).sum::<f64>() / n as f64;
        let expected = (1.0 - p) / p;
        assert!((mean - expected).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn fill_bytes_covers_tail() {
        let mut rng = DetRng::new(11);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        // Deterministic: same seed gives same bytes.
        let mut rng2 = DetRng::new(11);
        let mut buf2 = [0u8; 13];
        rng2.fill_bytes(&mut buf2);
        assert_eq!(buf, buf2);
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = DetRng::new(12);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn seed_from_bytes_is_stable_and_spread() {
        let a = seed_from_bytes(b"numpy");
        let b = seed_from_bytes(b"numpy");
        let c = seed_from_bytes(b"pandas");
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let mut rng = DetRng::new(14);
        let n = 8u64;
        let mut counts = [0u64; 8];
        for _ in 0..40_000 {
            let r = rng.zipf(n, 1.2);
            assert!(r < n);
            counts[r as usize] += 1;
        }
        // Rank 0 must dominate and the tail must decay monotonically
        // enough that the head outdraws the last rank by a wide margin.
        assert!(counts[0] > counts[1]);
        assert!(counts[1] > counts[3]);
        assert!(counts[0] > 8 * counts[7]);
        // Expected head mass for s=1.2, n=8 is ~40%; check coarsely.
        let frac0 = counts[0] as f64 / 40_000.0;
        assert!((0.30..0.55).contains(&frac0), "head mass {frac0}");
        // Deterministic under the same seed.
        let mut a = DetRng::new(15);
        let mut b = DetRng::new(15);
        for _ in 0..100 {
            assert_eq!(a.zipf(5, 0.9), b.zipf(5, 0.9));
        }
    }

    #[test]
    fn choose_handles_empty_and_nonempty() {
        let mut rng = DetRng::new(13);
        let empty: [u8; 0] = [];
        assert!(rng.choose(&empty).is_none());
        let v = [1, 2, 3];
        assert!(v.contains(rng.choose(&v).unwrap()));
    }
}
