//! Synthetic workload generators.
//!
//! The paper evaluates on SIFT-1M, GIST-1M, GloVe-200, NYTimes, and
//! DEEP-1M/10M/100M. Those files are not redistributable here, so each
//! is substituted with a generator that matches the properties that
//! drive graph-ANN behaviour: dimensionality, dataset size, metric, and
//! *hardness* (local intrinsic dimensionality / cluster structure —
//! GloVe and NYTimes are the paper's "harder" datasets). The
//! generators are deterministic given a seed so experiments are
//! reproducible.

use crate::storage::Dataset;
use rand::distributions::Distribution;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The distributional family of a synthetic workload.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Family {
    /// i.i.d. Gaussian cloud — "easy" data like DEEP/SIFT descriptors
    /// after whitening. Neighbors are well separated.
    Gaussian,
    /// Mixture of Gaussian clusters with shared subspace correlations —
    /// mimics learned embeddings (GloVe, NYTimes) where many points
    /// have near-tied neighbors; the paper calls these "harder".
    Clustered {
        /// Number of mixture components.
        clusters: usize,
        /// Ratio of within-cluster spread to between-cluster spread.
        /// Larger values blur clusters together and make search harder.
        spread: f32,
    },
    /// Points on the unit sphere (angular datasets such as GloVe are
    /// typically searched under cosine/inner-product).
    UnitSphere,
}

/// A fully specified synthetic workload.
#[derive(Clone, Debug)]
pub struct SynthSpec {
    /// Dimensionality.
    pub dim: usize,
    /// Number of base vectors.
    pub n: usize,
    /// Number of held-out query vectors.
    pub queries: usize,
    /// Distribution family.
    pub family: Family,
    /// RNG seed (generation is deterministic given the spec).
    pub seed: u64,
}

impl SynthSpec {
    /// Generate base vectors and queries drawn from the same
    /// distribution (queries use a derived seed so they are held out).
    pub fn generate(&self) -> (Dataset, Dataset) {
        let base = self.generate_part(self.n, self.seed);
        let queries = self.generate_part(self.queries, self.seed ^ 0x9e37_79b9_7f4a_7c15);
        (base, queries)
    }

    fn generate_part(&self, count: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        match self.family {
            Family::Gaussian => gaussian(&mut rng, count, self.dim),
            Family::Clustered { clusters, spread } => {
                clustered(&mut rng, count, self.dim, clusters.max(1), spread)
            }
            Family::UnitSphere => unit_sphere(&mut rng, count, self.dim),
        }
    }
}

/// Standard normal sampled via Box–Muller (avoids depending on
/// `rand_distr`, which is outside the allowed crate list).
struct StdNormal;

impl Distribution<f32> for StdNormal {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f32 {
        // Draw u1 in (0,1] to keep ln() finite.
        let u1: f32 = 1.0 - rng.gen::<f32>();
        let u2: f32 = rng.gen();
        (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos()
    }
}

fn gaussian(rng: &mut StdRng, n: usize, dim: usize) -> Dataset {
    let normal = StdNormal;
    let flat: Vec<f32> = (0..n * dim).map(|_| normal.sample(rng)).collect();
    Dataset::from_flat(flat, dim)
}

fn clustered(rng: &mut StdRng, n: usize, dim: usize, clusters: usize, spread: f32) -> Dataset {
    let normal = StdNormal;
    // Cluster centers on a unit Gaussian; anisotropic within-cluster
    // covariance via per-cluster random axis scaling, which produces
    // the low-dimensional local structure typical of embeddings. Unit
    // center variance keeps the separation-to-spread ratio independent
    // of dimensionality (so a 960-dim "hard" preset is hard, not a set
    // of disjoint islands).
    let centers: Vec<f32> = (0..clusters * dim).map(|_| normal.sample(rng)).collect();
    let scales: Vec<f32> = (0..clusters * dim)
        .map(|_| {
            let u: f32 = rng.gen();
            // Heavy-tailed axis scales: a few dominant directions.
            0.2 + u.powi(3) * 1.8
        })
        .collect();
    let mut flat = Vec::with_capacity(n * dim);
    for _ in 0..n {
        let c = rng.gen_range(0..clusters);
        let center = &centers[c * dim..(c + 1) * dim];
        let scale = &scales[c * dim..(c + 1) * dim];
        for j in 0..dim {
            flat.push(center[j] + spread * scale[j] * normal.sample(rng));
        }
    }
    Dataset::from_flat(flat, dim)
}

fn unit_sphere(rng: &mut StdRng, n: usize, dim: usize) -> Dataset {
    let normal = StdNormal;
    let mut flat = Vec::with_capacity(n * dim);
    for _ in 0..n {
        let start = flat.len();
        let mut norm_sq = 0.0f32;
        for _ in 0..dim {
            let x = normal.sample(rng);
            norm_sq += x * x;
            flat.push(x);
        }
        let inv = 1.0 / norm_sq.sqrt().max(1e-20);
        for x in &mut flat[start..] {
            *x *= inv;
        }
    }
    Dataset::from_flat(flat, dim)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::VectorStore;

    fn spec(family: Family) -> SynthSpec {
        SynthSpec { dim: 16, n: 200, queries: 10, family, seed: 42 }
    }

    #[test]
    fn deterministic_given_seed() {
        let s = spec(Family::Gaussian);
        let (a, _) = s.generate();
        let (b, _) = s.generate();
        assert_eq!(a.as_flat(), b.as_flat());
    }

    #[test]
    fn different_seeds_differ() {
        let mut s = spec(Family::Gaussian);
        let (a, _) = s.generate();
        s.seed = 43;
        let (b, _) = s.generate();
        assert_ne!(a.as_flat(), b.as_flat());
    }

    #[test]
    fn queries_are_held_out() {
        let (base, queries) = spec(Family::Gaussian).generate();
        assert_eq!(base.len(), 200);
        assert_eq!(queries.len(), 10);
        assert_ne!(base.row(0), queries.row(0));
    }

    #[test]
    fn gaussian_moments_are_plausible() {
        let s = SynthSpec { dim: 8, n: 5000, queries: 0, family: Family::Gaussian, seed: 7 };
        let (base, _) = s.generate();
        let flat = base.as_flat();
        let mean: f32 = flat.iter().sum::<f32>() / flat.len() as f32;
        let var: f32 =
            flat.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / flat.len() as f32;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn unit_sphere_rows_have_unit_norm() {
        let (base, _) = spec(Family::UnitSphere).generate();
        for i in 0..base.len() {
            let n: f32 = base.row(i).iter().map(|x| x * x).sum::<f32>().sqrt();
            assert!((n - 1.0).abs() < 1e-4, "row {i} norm {n}");
        }
    }

    #[test]
    fn clustered_points_concentrate_near_centers() {
        // With tiny spread, pairwise distances should be strongly
        // bimodal: tiny within clusters, large across.
        let s = SynthSpec {
            dim: 8,
            n: 300,
            queries: 0,
            family: Family::Clustered { clusters: 3, spread: 0.01 },
            seed: 1,
        };
        let (base, _) = s.generate();
        let mut small = 0usize;
        let mut large = 0usize;
        for i in 0..50 {
            for j in (i + 1)..50 {
                let d: f32 =
                    base.row(i).iter().zip(base.row(j)).map(|(a, b)| (a - b) * (a - b)).sum();
                if d < 1.0 {
                    small += 1;
                } else {
                    large += 1;
                }
            }
        }
        assert!(small > 0 && large > 0, "expected bimodal distances, small={small} large={large}");
    }

    #[test]
    fn zero_clusters_clamped_to_one() {
        let s = SynthSpec {
            dim: 4,
            n: 10,
            queries: 0,
            family: Family::Clustered { clusters: 0, spread: 0.5 },
            seed: 1,
        };
        let (base, _) = s.generate();
        assert_eq!(base.len(), 10);
    }
}
