//! Seedable, dependency-free PRNG: xoshiro256++ with SplitMix64 seeding.
//!
//! xoshiro256++ (Blackman & Vigna, 2019) is the standard small fast
//! generator for simulation workloads; SplitMix64 expands a 64-bit seed
//! into the 256-bit state so that *any* `u64` — including 0 — is a valid,
//! well-mixed seed. Not cryptographic; do not use for secrets.

/// One SplitMix64 step: advances `x` and returns the next output.
pub fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seedable xoshiro256++ pseudo-random generator.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Build a generator from a 64-bit seed (SplitMix64-expanded).
    pub fn from_seed(seed: u64) -> Rng {
        let mut x = seed;
        Rng { s: [splitmix64(&mut x), splitmix64(&mut x), splitmix64(&mut x), splitmix64(&mut x)] }
    }

    /// Next raw 64-bit output (xoshiro256++ step).
    pub fn next_u64(&mut self) -> u64 {
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

    /// Uniform in `[0, n)`; unbiased via rejection sampling. Panics if `n == 0`.
    pub fn next_below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "next_below(0)");
        if n.is_power_of_two() {
            return self.next_u64() & (n - 1);
        }
        // Reject the final partial block so every residue is equally likely.
        let zone = u64::MAX - (u64::MAX % n);
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % n;
            }
        }
    }

    /// Uniform value in the half-open range `lo..hi`. Panics on an empty range.
    pub fn gen_range<T: SampleRange>(&mut self, range: std::ops::Range<T>) -> T {
        T::sample(self, range)
    }

    /// Uniform `f64` in `[0, 1)` (53 random mantissa bits).
    pub fn f64_unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.f64_unit() < p
    }

    /// A uniformly chosen reference into a non-empty slice.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "choose from empty slice");
        &items[self.next_below(items.len() as u64) as usize]
    }

    /// Fisher–Yates shuffle in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.next_below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// Types that can be sampled uniformly from a `Range`.
pub trait SampleRange: Sized {
    /// Sample uniformly from `range`; panics when the range is empty.
    fn sample(rng: &mut Rng, range: std::ops::Range<Self>) -> Self;
}

macro_rules! impl_sample_signed {
    ($($t:ty),*) => {$(
        impl SampleRange for $t {
            fn sample(rng: &mut Rng, range: std::ops::Range<Self>) -> Self {
                assert!(range.start < range.end, "empty range {:?}", range);
                let span = (range.end as i128 - range.start as i128) as u64;
                (range.start as i128 + rng.next_below(span) as i128) as $t
            }
        }
    )*};
}

macro_rules! impl_sample_unsigned {
    ($($t:ty),*) => {$(
        impl SampleRange for $t {
            fn sample(rng: &mut Rng, range: std::ops::Range<Self>) -> Self {
                assert!(range.start < range.end, "empty range {:?}", range);
                let span = (range.end as u128 - range.start as u128) as u64;
                (range.start as u128 + rng.next_below(span) as u128) as $t
            }
        }
    )*};
}

impl_sample_signed!(i8, i16, i32, i64);
impl_sample_unsigned!(u8, u16, u32, u64, usize);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::from_seed(42);
        let mut b = Rng::from_seed(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = Rng::from_seed(43);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn gen_range_stays_in_bounds_and_hits_endpoints() {
        let mut r = Rng::from_seed(7);
        let (mut lo_seen, mut hi_seen) = (false, false);
        for _ in 0..2000 {
            let v = r.gen_range(-3i64..3);
            assert!((-3..3).contains(&v));
            lo_seen |= v == -3;
            hi_seen |= v == 2;
        }
        assert!(lo_seen && hi_seen, "2000 draws should hit both endpoints");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = Rng::from_seed(1);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "a 50-element shuffle is virtually never identity");
    }

    #[test]
    fn bool_probability_roughly_respected() {
        let mut r = Rng::from_seed(9);
        let hits = (0..10_000).filter(|_| r.gen_bool(0.9)).count();
        assert!((8700..=9300).contains(&hits), "p=0.9 gave {hits}/10000");
    }
}
