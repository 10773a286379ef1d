//! Minimal vendored stand-in for the `rand` crate (0.8-style API).
//!
//! The build environment has no network access to crates.io, so this
//! workspace ships the tiny subset of `rand` the BSOR crates actually
//! use: a seedable [`rngs::StdRng`], [`Rng::gen_range`] /
//! [`Rng::gen_bool`], and [`seq::SliceRandom::shuffle`]. The generator
//! is xoshiro256++ seeded through SplitMix64, so every seeded run is
//! deterministic — which is all the CDG exploration, baseline routing
//! and traffic injection need (they never ask for OS entropy).
//!
//! The numeric streams differ from the real `rand` crate; nothing in
//! this workspace depends on matching them, only on determinism per
//! seed.

#![forbid(unsafe_code)]

pub mod rngs;
pub mod seq;

/// Core source of randomness: a stream of `u64`s.
pub trait RngCore {
    /// Returns the next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Returns the next 32 random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Deterministic construction from a `u64` seed.
pub trait SeedableRng: Sized {
    /// Builds a generator whose stream is fully determined by `state`.
    fn seed_from_u64(state: u64) -> Self;
}

/// Convenience sampling methods, blanket-implemented for every
/// [`RngCore`].
pub trait Rng: RngCore {
    /// Samples uniformly from `range` (`a..b` or `a..=b`).
    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        R: SampleRange<T>,
        Self: Sized,
    {
        range.sample_single(self)
    }

    /// Returns `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    fn gen_bool(&mut self, p: f64) -> bool
    where
        Self: Sized,
    {
        assert!((0.0..=1.0).contains(&p), "p must be in [0, 1], got {p}");
        unit_f64(self.next_u64()) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Maps 64 random bits to a uniform `f64` in `[0, 1)`.
fn unit_f64(bits: u64) -> f64 {
    // 53 significant bits, the standard multiply-by-2^-53 construction.
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A range that [`Rng::gen_range`] can sample from.
pub trait SampleRange<T> {
    /// Draws one uniform sample.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

macro_rules! impl_int_sample_range {
    ($($t:ty),* $(,)?) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as u128).wrapping_sub(self.start as u128);
                let offset = (rng.next_u64() as u128 % span) as $t;
                self.start.wrapping_add(offset)
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "cannot sample empty range");
                let span = (end as u128).wrapping_sub(start as u128) + 1;
                let offset = (rng.next_u64() as u128 % span) as $t;
                start.wrapping_add(offset)
            }
        }
    )*};
}

impl_int_sample_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_float_sample_range {
    ($($t:ty),* $(,)?) => {$(
        impl SampleRange<$t> for core::ops::Range<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let u = unit_f64(rng.next_u64()) as $t;
                let x = self.start + (self.end - self.start) * u;
                // Narrow casts (f32) or rounding on tiny spans can land
                // exactly on the excluded upper bound; keep half-open.
                if x < self.end {
                    x
                } else {
                    self.end.next_down().max(self.start)
                }
            }
        }
        impl SampleRange<$t> for core::ops::RangeInclusive<$t> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "cannot sample empty range");
                // Uniform on [0, 1]: rescale the 53-bit lattice endpoint.
                let u = ((rng.next_u64() >> 11) as f64
                    / ((1u64 << 53) - 1) as f64) as $t;
                start + (end - start) * u
            }
        }
    )*};
}

impl_float_sample_range!(f32, f64);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rngs::StdRng;

    #[test]
    fn deterministic_per_seed() {
        let a: Vec<u64> = {
            let mut r = StdRng::seed_from_u64(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = StdRng::seed_from_u64(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let c: Vec<u64> = {
            let mut r = StdRng::seed_from_u64(43);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_ne!(a, c);
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let x: u32 = r.gen_range(3..17);
            assert!((3..17).contains(&x));
            let y: u16 = r.gen_range(5..=5);
            assert_eq!(y, 5);
            let f: f64 = r.gen_range(0.25..0.75);
            assert!((0.25..0.75).contains(&f));
            let g: f64 = r.gen_range(-1.0..=1.0);
            assert!((-1.0..=1.0).contains(&g));
        }
    }

    #[test]
    fn gen_bool_extremes() {
        let mut r = StdRng::seed_from_u64(1);
        assert!(!r.gen_bool(0.0));
        assert!(r.gen_bool(1.0));
        let hits = (0..10_000).filter(|_| r.gen_bool(0.5)).count();
        assert!((4_000..6_000).contains(&hits), "p=0.5 gave {hits}/10000");
    }

    #[test]
    fn shuffle_permutes() {
        use crate::seq::SliceRandom;
        let mut v: Vec<u32> = (0..32).collect();
        v.shuffle(&mut StdRng::seed_from_u64(9));
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..32).collect::<Vec<_>>());
        assert_ne!(v, sorted, "32 elements should not shuffle to identity");
    }
}
