//! Seeded input generation: a SplitMix64 stream, a zipfian key picker and
//! the Poisson arrival schedule of the open-loop workloads.
//!
//! The harness owns its generator (no dependency on the repository's
//! vendored `rand`) so that the same `--seed` yields the same inputs on
//! every commit this benchmark is ever run against.

/// SplitMix64: tiny, fast, and good enough for workload shaping.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `(seed, lane)`; lanes keep the threads of one run
    /// independent of each other and of how many values each one draws.
    pub fn new(seed: u64, lane: u64) -> Rng {
        let mut r = Rng(seed ^ lane.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`; `n` must be non-zero.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Exponential with the given mean (inter-arrival gap of a Poisson
    /// process).
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }

    /// `len` lowercase-alphanumeric bytes.
    pub fn text(&mut self, len: usize) -> String {
        const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789";
        (0..len)
            .map(|_| ALPHABET[self.below(ALPHABET.len() as u64) as usize] as char)
            .collect()
    }
}

/// Zipfian picker over `n` items (Gray et al., the YCSB formulation).
/// Rank 0 is the hottest; [`Zipf::pick`] scatters ranks over the item
/// space so hot items are not neighbours in key order (account addresses
/// are hashes, not counters).
#[derive(Clone, Debug)]
pub struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    stride: u64,
}

impl Zipf {
    pub fn new(n: u64, theta: f64) -> Zipf {
        assert!(n >= 2, "zipf needs at least two items");
        let zeta = |k: u64| (1..=k).map(|i| 1.0 / (i as f64).powf(theta)).sum::<f64>();
        let zetan = zeta(n);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta(2) / zetan);
        // A stride coprime to n turns rank -> item into a permutation.
        let mut stride = (n as f64 * 0.618_033_988_75) as u64 | 1;
        while gcd(stride, n) != 1 {
            stride += 2;
        }
        Zipf {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta,
            stride,
        }
    }

    fn rank(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let r = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        r.min(self.n - 1)
    }

    /// A zipf-distributed item in `[0, n)`.
    pub fn pick(&self, rng: &mut Rng) -> u64 {
        self.pick_in_epoch(rng, 0)
    }

    /// Like [`Zipf::pick`], with the hot set of epoch `epoch`: the same
    /// skew, over items that move on as the epoch advances (recently
    /// active accounts are the hot ones). A run that crosses many epochs
    /// averages over many hot sets, so its medians depend little on which
    /// few items one seed happened to make hottest.
    pub fn pick_in_epoch(&self, rng: &mut Rng, epoch: u64) -> u64 {
        let rank = self.rank(rng) as u128;
        let shift = epoch as u128 * 7919;
        ((rank * self.stride as u128 + shift) % self.n as u128) as u64
    }
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Due times (ns from the window start) of a Poisson process of `rate`
/// arrivals per second over `seconds`.
pub fn poisson_schedule(rng: &mut Rng, rate: f64, seconds: f64) -> Vec<u64> {
    let mut out = Vec::with_capacity((rate * seconds * 1.1) as usize + 8);
    let mut t = rng.exp(1.0 / rate);
    while t < seconds {
        out.push((t * 1e9) as u64);
        t += rng.exp(1.0 / rate);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let a = poisson_schedule(&mut Rng::new(7, 1), 120.0, 2.0);
        let b = poisson_schedule(&mut Rng::new(7, 1), 120.0, 2.0);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!((150..350).contains(&a.len()), "{} arrivals", a.len());
        assert_ne!(a, poisson_schedule(&mut Rng::new(8, 1), 120.0, 2.0));
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(10_000, 0.99);
        let mut rng = Rng::new(3, 0);
        let mut counts = std::collections::HashMap::new();
        for _ in 0..50_000 {
            let item = z.pick(&mut rng);
            assert!(item < 10_000);
            *counts.entry(item).or_insert(0u32) += 1;
        }
        let hottest = counts.values().copied().max().unwrap();
        assert!(hottest > 2_500, "hottest item drew {hottest} of 50000");
        assert!(counts.len() > 3_000, "only {} distinct items", counts.len());
    }
}
