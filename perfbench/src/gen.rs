//! Seeded input generation. Every input a workload hands the program is
//! produced here from `--seed`, with a generator owned by the benchmark so
//! the inputs stay the same when the program's own random kernels change.

use lima_matrix::DenseMatrix;

/// splitmix64 finalizer: a stateless mixer for deriving per-item seeds.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A splitmix64 stream.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(mix(seed))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in [0, 1) with 53 random bits.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Standard normal (Box-Muller; one draw per call keeps the stream simple).
    pub fn normal(&mut self) -> f64 {
        let u1 = self.uniform().max(f64::MIN_POSITIVE);
        let u2 = self.uniform();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
}

/// Uniform [0, 1) matrix, filled row-major.
pub fn uniform_matrix(rows: usize, cols: usize, seed: u64) -> DenseMatrix {
    let mut rng = Rng::new(seed);
    let data = (0..rows * cols).map(|_| rng.uniform()).collect();
    DenseMatrix::new(rows, cols, data).expect("data length matches shape")
}

/// Linear-regression data `y = X w + noise` with uniform features, normal
/// weights and noise of standard deviation 0.1.
pub fn regression(n: usize, d: usize, seed: u64) -> (DenseMatrix, DenseMatrix) {
    let x = uniform_matrix(n, d, seed);
    let mut rng = Rng::new(seed ^ 0xabc);
    let w: Vec<f64> = (0..d).map(|_| rng.normal()).collect();
    let y = (0..n)
        .map(|i| {
            let row = &x.data()[i * d..(i + 1) * d];
            row.iter().zip(&w).map(|(a, b)| a * b).sum::<f64>() + 0.1 * rng.normal()
        })
        .collect();
    (x, DenseMatrix::new(n, 1, y).expect("one target per row"))
}

/// Zipf-skewed pick over `n` items: item 0 is hottest. `u` is a uniform
/// draw in [0, 1).
pub fn zipf(u: f64, cdf: &[f64]) -> usize {
    cdf.partition_point(|&c| c <= u).min(cdf.len() - 1)
}

/// Cumulative Zipf distribution over `n` items with the given exponent.
pub fn zipf_cdf(n: usize, exponent: f64) -> Vec<f64> {
    let weights: Vec<f64> = (0..n)
        .map(|i| 1.0 / ((i + 1) as f64).powf(exponent))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes(m: &DenseMatrix) -> Vec<u8> {
        m.data().iter().flat_map(|v| v.to_le_bytes()).collect()
    }

    #[test]
    fn same_seed_gives_identical_inputs() {
        let (x1, y1) = regression(200, 7, 42);
        let (x2, y2) = regression(200, 7, 42);
        assert_eq!(bytes(&x1), bytes(&x2));
        assert_eq!(bytes(&y1), bytes(&y2));
        assert_eq!(
            bytes(&uniform_matrix(9, 9, 3)),
            bytes(&uniform_matrix(9, 9, 3))
        );
    }

    #[test]
    fn different_seed_gives_different_inputs() {
        let (x1, y1) = regression(200, 7, 42);
        let (x2, y2) = regression(200, 7, 43);
        assert_ne!(bytes(&x1), bytes(&x2));
        assert_ne!(bytes(&y1), bytes(&y2));
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let cdf = zipf_cdf(24, 1.1);
        assert!((cdf[23] - 1.0).abs() < 1e-12);
        let mut rng = Rng::new(1);
        let mut counts = [0usize; 24];
        for _ in 0..10_000 {
            counts[zipf(rng.uniform(), &cdf)] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[10]);
        assert!(counts.iter().all(|&c| c > 0));
    }
}
