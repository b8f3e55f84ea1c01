//! Experiment context: scaled workloads plus cached ground truth.

use dataset::presets::{DatasetPreset, PresetName};
use dataset::{Dataset, VectorStore};
use distance::Metric;
use knn::brute::ground_truth;
use std::cell::RefCell;
use std::collections::HashMap;

/// Global experiment knobs. Paper sizes (290k–100M vectors, 10k-query
/// batches) do not fit this 2-core reproduction host; the defaults are
/// scaled down and every runner records the scale it used. Overridden
/// per run by `eval`'s `--n/--queries/--batch/--k/--seed` flags.
#[derive(Clone, Copy, Debug)]
pub struct ExpContext {
    /// Base vectors per dataset.
    pub n: usize,
    /// Held-out queries actually searched.
    pub queries: usize,
    /// Result size `k` (paper reports recall@10 unless noted).
    pub k: usize,
    /// Batch size the GPU simulation is asked to price (the paper's
    /// large-batch experiments use 10k; measured traces are tiled up
    /// to this size).
    pub batch_target: usize,
    /// Workload seed.
    pub seed: u64,
}

impl Default for ExpContext {
    fn default() -> Self {
        ExpContext { n: 4000, queries: 200, k: 10, batch_target: 10_000, seed: 0xda7a }
    }
}

/// A loaded synthetic workload with lazily computed ground truth.
pub struct Workload {
    /// The Table I row this mimics.
    pub preset: DatasetPreset,
    /// Base vectors.
    pub base: Dataset,
    /// Query vectors.
    pub queries: Dataset,
    /// Metric (squared L2 throughout, as in the paper's main runs).
    pub metric: Metric,
    gt_cache: RefCell<HashMap<usize, Vec<Vec<u32>>>>,
}

impl Workload {
    /// Generate the workload for `preset` at the context's scale.
    pub fn load(preset: PresetName, ctx: &ExpContext) -> Workload {
        let p = DatasetPreset::get(preset);
        let (base, queries) = p.spec(ctx.n, ctx.queries, ctx.seed).generate();
        Workload {
            preset: p,
            base,
            queries,
            metric: Metric::SquaredL2,
            gt_cache: RefCell::new(HashMap::new()),
        }
    }

    /// Generate at an explicit size (scaling studies, Figs. 15/16).
    pub fn load_sized(preset: PresetName, n: usize, queries: usize, seed: u64) -> Workload {
        let p = DatasetPreset::get(preset);
        let (base, queries) = p.spec(n, queries, seed).generate();
        Workload {
            preset: p,
            base,
            queries,
            metric: Metric::SquaredL2,
            gt_cache: RefCell::new(HashMap::new()),
        }
    }

    /// Exact top-k ids per query (computed once, cached).
    pub fn ground_truth(&self, k: usize) -> Vec<Vec<u32>> {
        if let Some(gt) = self.gt_cache.borrow().get(&k) {
            return gt.clone();
        }
        let gt = ground_truth(&self.base, self.metric, &self.queries, k);
        self.gt_cache.borrow_mut().insert(k, gt.clone());
        gt
    }

    /// The paper's CAGRA degree for this dataset, capped so
    /// `d_init = 2d` always fits the scaled dataset.
    pub fn degree(&self) -> usize {
        let cap = (self.base.len().saturating_sub(1) / 4).max(4);
        self.preset.cagra_degree.min(cap.next_power_of_two() / 2 * 2).max(4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dataset::VectorStore;

    #[test]
    fn context_defaults_are_positive() {
        let c = ExpContext::default();
        assert!(c.n > 0 && c.queries > 0 && c.k > 0 && c.batch_target > 0);
    }

    #[test]
    fn workload_shapes_match_preset() {
        let ctx = ExpContext { n: 300, queries: 10, ..ExpContext::default() };
        let w = Workload::load(PresetName::Deep, &ctx);
        assert_eq!(w.base.dim(), 96);
        assert_eq!(w.base.len(), 300);
        assert_eq!(w.queries.len(), 10);
    }

    #[test]
    fn ground_truth_is_cached_and_correct_shape() {
        let ctx = ExpContext { n: 200, queries: 5, ..ExpContext::default() };
        let w = Workload::load(PresetName::Sift, &ctx);
        let a = w.ground_truth(3);
        let b = w.ground_truth(3);
        assert_eq!(a, b);
        assert_eq!(a.len(), 5);
        assert!(a.iter().all(|r| r.len() == 3));
    }

    #[test]
    fn degree_is_capped_on_tiny_datasets() {
        let w = Workload::load_sized(PresetName::Glove, 100, 5, 1);
        // GloVe's paper degree is 80; a 100-vector dataset cannot
        // support d_init = 160.
        assert!(w.degree() * 2 < 100, "degree {} too large", w.degree());
    }
}
