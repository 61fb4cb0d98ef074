//! Seedable noise sampling.
//!
//! The DP mechanisms only need a Gaussian sampler (the Laplace sampler
//! serves the test-only Laplace mechanism). Both are implemented on top of
//! uniform draws from `rand`'s `StdRng` so the whole workspace stays
//! deterministic under a fixed seed (the experiment harness repeats each
//! run with several seeds, matching the paper's methodology).

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// A counting wrapper around the word generator: every 64-bit word the
/// samplers consume bumps `draws`, so the generator's exact internal state
/// is reproducible from `(seed, draws)` alone — the basis of the durable
/// session checkpoints in `dprov-storage`.
#[derive(Debug, Clone)]
struct CountingRng {
    inner: StdRng,
    draws: u64,
}

impl RngCore for CountingRng {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.draws += 1;
        self.inner.next_u64()
    }
}

/// A resumable position in a [`DpRng`] noise stream.
///
/// Together with the `(base_seed, stream)` pair the generator was created
/// from, a checkpoint pins down the generator's state *exactly*: `draws`
/// counts every 64-bit word consumed so far and `spare_normal` carries the
/// cached half of a Marsaglia polar pair, so
/// [`DpRng::restore_stream`] rebuilds a generator that continues the stream
/// bit-for-bit — recovered sessions never replay noise they already spent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RngCheckpoint {
    /// Number of 64-bit words drawn from the underlying generator.
    pub draws: u64,
    /// The cached second normal of an odd-numbered Gaussian draw, if any.
    pub spare_normal: Option<f64>,
}

/// A seedable random-noise source for DP mechanisms.
#[derive(Debug, Clone)]
pub struct DpRng {
    inner: CountingRng,
    /// Cached second value of the Box–Muller pair.
    spare_normal: Option<f64>,
}

impl DpRng {
    /// Creates a generator from a 64-bit seed.
    #[must_use]
    pub fn seed_from_u64(seed: u64) -> Self {
        DpRng {
            inner: CountingRng {
                inner: StdRng::seed_from_u64(seed),
                draws: 0,
            },
            spare_normal: None,
        }
    }

    /// Creates a generator for one *stream* of a base seed: a deterministic,
    /// well-separated seed derived by mixing `base_seed` and `stream` through
    /// SplitMix64. Concurrent components (worker threads, analyst sessions)
    /// each take their own stream so runs stay reproducible — the noise an
    /// analyst receives depends only on `(base_seed, stream)`, never on
    /// thread scheduling.
    #[must_use]
    pub fn for_stream(base_seed: u64, stream: u64) -> Self {
        let mut z = base_seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Self::seed_from_u64(z ^ (z >> 31))
    }

    /// The generator's current stream position (see [`RngCheckpoint`]).
    #[must_use]
    pub fn checkpoint(&self) -> RngCheckpoint {
        RngCheckpoint {
            draws: self.inner.draws,
            spare_normal: self.spare_normal,
        }
    }

    /// Number of 64-bit words consumed so far.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn draws(&self) -> u64 {
        self.inner.draws
    }

    /// Rebuilds the stream generator [`DpRng::for_stream`]`(base_seed,
    /// stream)` fast-forwarded to `checkpoint`: the returned generator's
    /// internal state is *identical* to the original generator's state at
    /// the moment the checkpoint was taken, so the continuation of the
    /// noise stream is bit-for-bit the same and no already-consumed
    /// randomness is ever reused.
    ///
    /// Cost: O(`checkpoint.draws`) — the stream is replayed word by word
    /// (~10⁸ words/s), which is instant for typical sessions but linear in
    /// a session's lifetime draw count. If recovery time for very
    /// long-lived sessions ever matters, the underlying xoshiro256++
    /// state admits an O(polylog) GF(2)-matrix jump; a known follow-up,
    /// kept out of the shim until needed.
    #[must_use]
    pub fn restore_stream(base_seed: u64, stream: u64, checkpoint: RngCheckpoint) -> Self {
        let mut rng = Self::for_stream(base_seed, stream);
        for _ in 0..checkpoint.draws {
            let _ = rng.inner.next_u64();
        }
        rng.spare_normal = checkpoint.spare_normal;
        rng
    }

    /// A uniform draw in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// A uniform draw in `[lo, hi)`.
    #[cfg(test)]
    pub(crate) fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        self.inner.gen_range(lo..hi)
    }

    /// A uniform integer draw in `[lo, hi)`.
    #[cfg(test)]
    pub(crate) fn uniform_usize(&mut self, lo: usize, hi: usize) -> usize {
        self.inner.gen_range(lo..hi)
    }

    /// A standard-normal draw using the Marsaglia polar method.
    pub(crate) fn standard_normal(&mut self) -> f64 {
        if let Some(v) = self.spare_normal.take() {
            return v;
        }
        loop {
            let u = 2.0 * self.uniform() - 1.0;
            let v = 2.0 * self.uniform() - 1.0;
            let s = u * u + v * v;
            if s > 0.0 && s < 1.0 {
                let factor = (-2.0 * s.ln() / s).sqrt();
                self.spare_normal = Some(v * factor);
                return u * factor;
            }
        }
    }

    /// A draw from `N(0, sigma^2)`.
    pub fn gaussian(&mut self, sigma: f64) -> f64 {
        assert!(
            sigma.is_finite() && sigma >= 0.0,
            "gaussian noise scale must be non-negative and finite, got {sigma}"
        );
        if sigma == 0.0 {
            return 0.0;
        }
        sigma * self.standard_normal()
    }

    /// A draw from the zero-mean Laplace distribution with scale `b`.
    #[cfg(test)]
    pub(crate) fn laplace(&mut self, b: f64) -> f64 {
        assert!(
            b.is_finite() && b >= 0.0,
            "laplace scale must be non-negative and finite, got {b}"
        );
        if b == 0.0 {
            return 0.0;
        }
        // Inverse-CDF sampling: u ~ Uniform(-1/2, 1/2).
        let u = self.uniform() - 0.5;
        -b * u.signum() * (1.0 - 2.0 * u.abs()).ln()
    }

    /// Fills a vector with i.i.d. `N(0, sigma^2)` noise.
    pub fn gaussian_vector(&mut self, sigma: f64, len: usize) -> Vec<f64> {
        (0..len).map(|_| self.gaussian(sigma)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_rng_is_deterministic() {
        let mut a = DpRng::seed_from_u64(42);
        let mut b = DpRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.standard_normal(), b.standard_normal());
            assert_eq!(a.laplace(2.0), b.laplace(2.0));
        }
    }

    #[test]
    fn streams_are_deterministic_and_well_separated() {
        let mut a = DpRng::for_stream(7, 3);
        let mut b = DpRng::for_stream(7, 3);
        for _ in 0..32 {
            assert_eq!(a.uniform(), b.uniform());
        }
        // Different streams of the same base seed produce different noise,
        // as do identical streams of different base seeds.
        let draw8 = |mut rng: DpRng| -> Vec<f64> { (0..8).map(|_| rng.uniform()).collect() };
        let v0 = draw8(DpRng::for_stream(7, 3));
        assert_ne!(draw8(DpRng::for_stream(7, 4)), v0);
        assert_ne!(draw8(DpRng::for_stream(8, 3)), v0);
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = DpRng::seed_from_u64(1);
        let mut b = DpRng::seed_from_u64(2);
        let va: Vec<f64> = (0..16).map(|_| a.uniform()).collect();
        let vb: Vec<f64> = (0..16).map(|_| b.uniform()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = DpRng::seed_from_u64(7);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.standard_normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "variance {var}");
    }

    #[test]
    fn gaussian_scales_variance() {
        let mut rng = DpRng::seed_from_u64(11);
        let n = 100_000;
        let sigma = 3.5;
        let samples: Vec<f64> = (0..n).map(|_| rng.gaussian(sigma)).collect();
        let var = samples.iter().map(|x| x * x).sum::<f64>() / n as f64;
        assert!(
            (var - sigma * sigma).abs() / (sigma * sigma) < 0.05,
            "variance {var}"
        );
    }

    #[test]
    fn laplace_moments() {
        let mut rng = DpRng::seed_from_u64(13);
        let n = 200_000;
        let b = 2.0;
        let samples: Vec<f64> = (0..n).map(|_| rng.laplace(b)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        // Laplace variance is 2 b^2 = 8.
        assert!((var - 8.0).abs() < 0.4, "variance {var}");
    }

    #[test]
    fn zero_scale_is_noiseless() {
        let mut rng = DpRng::seed_from_u64(3);
        assert_eq!(rng.gaussian(0.0), 0.0);
        assert_eq!(rng.laplace(0.0), 0.0);
    }

    #[test]
    fn checkpoint_restore_continues_the_stream_bit_for_bit() {
        let mut live = DpRng::for_stream(7, 3);
        // Consume a messy mix of draws, deliberately ending mid-Gaussian
        // pair so the spare normal is populated at the checkpoint.
        for _ in 0..13 {
            let _ = live.gaussian(2.0);
        }
        let _ = live.uniform();
        let _ = live.laplace(1.5);
        let ckpt = live.checkpoint();
        assert!(ckpt.draws > 0);

        let mut restored = DpRng::restore_stream(7, 3, ckpt);
        assert_eq!(restored.checkpoint().draws, ckpt.draws);
        for _ in 0..64 {
            assert_eq!(live.gaussian(3.0), restored.gaussian(3.0));
            assert_eq!(live.uniform(), restored.uniform());
            assert_eq!(live.laplace(0.7), restored.laplace(0.7));
        }
    }

    #[test]
    fn fresh_checkpoint_restores_the_whole_stream() {
        let fresh = DpRng::for_stream(11, 0).checkpoint();
        assert_eq!(fresh.draws, 0);
        assert_eq!(fresh.spare_normal, None);
        let mut a = DpRng::for_stream(11, 0);
        let mut b = DpRng::restore_stream(11, 0, fresh);
        for _ in 0..16 {
            assert_eq!(a.standard_normal(), b.standard_normal());
        }
    }

    #[test]
    fn draw_counter_tracks_every_word() {
        let mut rng = DpRng::seed_from_u64(5);
        assert_eq!(rng.draws(), 0);
        let _ = rng.uniform();
        assert_eq!(rng.draws(), 1);
        let _ = rng.uniform_range(0.0, 2.0);
        assert_eq!(rng.draws(), 2);
        // A Gaussian pair consumes at least two words (polar rejection may
        // consume more) and caches a spare.
        let before = rng.draws();
        let _ = rng.standard_normal();
        assert!(rng.draws() >= before + 2);
        assert!(rng.checkpoint().spare_normal.is_some());
    }

    #[test]
    fn gaussian_vector_has_requested_length() {
        let mut rng = DpRng::seed_from_u64(5);
        assert_eq!(rng.gaussian_vector(1.0, 17).len(), 17);
        assert!(rng.gaussian_vector(1.0, 0).is_empty());
    }
}
