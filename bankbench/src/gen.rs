//! Seeded input generation. Every client's operations are drawn before
//! the timed window opens, so the timed calls see only ready inputs and
//! the same seed always yields the same inputs.

use mdts_model::ItemId;

/// SplitMix64: small, fast, and fully determined by its seed.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A stream determined by `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Account chooser: uniform, or Zipf with skew `theta` over ranks
/// `0..n` (rank 0 hottest), sampled by inverse CDF.
#[derive(Clone, Debug)]
pub struct Accounts {
    n: u32,
    /// Cumulative probabilities per rank; empty for the uniform chooser.
    cdf: Vec<f64>,
}

impl Accounts {
    /// Chooser over `n` accounts; `theta == 0` is uniform.
    pub fn new(n: u32, theta: f64) -> Self {
        assert!(n >= 2, "a transfer needs two distinct accounts");
        assert!(theta >= 0.0, "Zipf skew must be non-negative");
        if theta == 0.0 {
            return Accounts { n, cdf: Vec::new() };
        }
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|rank| {
                acc += 1.0 / f64::from(rank).powf(theta);
                acc
            })
            .collect();
        for p in &mut cdf {
            *p /= acc;
        }
        Accounts { n, cdf }
    }

    /// One account.
    pub fn sample(&self, rng: &mut Rng) -> ItemId {
        if self.cdf.is_empty() {
            return ItemId((rng.next_u64() % u64::from(self.n)) as u32);
        }
        let u = rng.unit();
        let rank = self.cdf.partition_point(|&p| p < u).min(self.n as usize - 1);
        ItemId(rank as u32)
    }
}

/// Most accounts one audit scans.
pub const MAX_SCAN: usize = 8;

/// One client operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Move one unit from `src` to `dst` (distinct accounts).
    Transfer {
        /// Debited account.
        src: ItemId,
        /// Credited account.
        dst: ItemId,
    },
    /// Read the first `len` of `items` and write nothing.
    Audit {
        /// Scanned accounts (only `..len` are used).
        items: [ItemId; MAX_SCAN],
        /// Accounts scanned.
        len: u8,
    },
}

/// The operation mix of one workload.
#[derive(Clone, Copy, Debug)]
pub struct Mix {
    /// Number of accounts.
    pub accounts: u32,
    /// Zipf skew of account choice (0 = uniform).
    pub theta: f64,
    /// Share of operations that are audits.
    pub audit_frac: f64,
    /// Accounts per audit.
    pub scan: usize,
}

/// Draws `count` operations for client `client` from `seed`.
pub fn client_ops(
    mix: &Mix,
    accounts: &Accounts,
    seed: u64,
    client: usize,
    count: usize,
) -> Vec<Op> {
    assert!((1..=MAX_SCAN).contains(&mix.scan), "audit scan length out of range");
    let mut rng = Rng::new(seed ^ (client as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F));
    (0..count)
        .map(|_| {
            if rng.unit() < mix.audit_frac {
                let mut items = [ItemId(0); MAX_SCAN];
                for slot in items.iter_mut().take(mix.scan) {
                    *slot = accounts.sample(&mut rng);
                }
                Op::Audit { items, len: mix.scan as u8 }
            } else {
                let src = accounts.sample(&mut rng);
                let mut dst = accounts.sample(&mut rng);
                while dst == src {
                    dst = accounts.sample(&mut rng);
                }
                Op::Transfer { src, dst }
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_ops_and_clients_differ() {
        let mix = Mix { accounts: 256, theta: 0.9, audit_frac: 0.25, scan: 4 };
        let acc = Accounts::new(mix.accounts, mix.theta);
        let a = client_ops(&mix, &acc, 7, 0, 500);
        assert_eq!(a, client_ops(&mix, &acc, 7, 0, 500));
        assert_ne!(a, client_ops(&mix, &acc, 7, 1, 500));
        assert_ne!(a, client_ops(&mix, &acc, 8, 0, 500));
        for op in &a {
            if let Op::Transfer { src, dst } = op {
                assert_ne!(src, dst);
            }
        }
    }

    #[test]
    fn zipf_prefers_low_ranks_and_uniform_covers_the_range() {
        let mut rng = Rng::new(1);
        let zipf = Accounts::new(256, 0.9);
        let hot = (0..10_000).filter(|_| zipf.sample(&mut rng).0 < 8).count();
        assert!(hot > 2_500, "top 8 of 256 drew only {hot} of 10000 under theta 0.9");
        let uni = Accounts::new(1 << 20, 0.0);
        let max = (0..10_000).map(|_| uni.sample(&mut rng).0).max().unwrap();
        assert!(max > (1 << 19) && max < (1 << 20));
    }
}
