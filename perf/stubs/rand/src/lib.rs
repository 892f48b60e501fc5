//! Offline stand-in for `rand` 0.9: the subset the xtc workspace calls.
//! `SmallRng` is xoshiro256++ seeded through SplitMix64, as in the
//! published crate on 64-bit targets; the range sampling is a
//! multiply-shift, so the streams are deterministic per seed but not
//! bit-identical to the published crate's.

use std::ops::{Range, RangeInclusive};

/// Source of random 64-bit words.
pub trait RngCore {
    fn next_u64(&mut self) -> u64;
}

/// Construction from a seed.
pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

/// A type `Rng::random` can produce.
pub trait Standard: Sized {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

impl Standard for u64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> u64 {
        rng.next_u64()
    }
}

impl Standard for u32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> u32 {
        (rng.next_u64() >> 32) as u32
    }
}

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> bool {
        rng.next_u64() >> 63 == 1
    }
}

/// A range `Rng::random_range` can sample from.
pub trait SampleRange<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Uniform draw from `0..span` (`span > 0`).
fn below<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
    ((rng.next_u64() as u128 * span as u128) >> 64) as u64
}

macro_rules! int_ranges {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + below(rng, span) as i128) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi as i128 - lo as i128) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                (lo as i128 + below(rng, span + 1) as i128) as $t
            }
        }
    )*};
}
int_ranges!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleRange<f64> for Range<f64> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        self.start + (self.end - self.start) * f64::sample(rng)
    }
}

/// User-facing sampling methods, blanket-implemented for every generator.
pub trait Rng: RngCore {
    fn random<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    fn random_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }

    fn random_bool(&mut self, p: f64) -> bool {
        f64::sample(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// xoshiro256++.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(mut state: u64) -> Self {
            let mut s = [0u64; 4];
            for word in &mut s {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                *word = z ^ (z >> 31);
            }
            SmallRng { s }
        }
    }

    impl RngCore for SmallRng {
        fn next_u64(&mut self) -> u64 {
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
    }
}
