//! Quickstart: build a CAGRA index over random vectors and search it.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use cagra_repro::prelude::*;

fn main() {
    // A synthetic workload: 20k Gaussian vectors in 64 dimensions plus
    // 5 held-out queries. Swap in `dataset::io::read_fvecs` to load a
    // real fvecs file instead.
    let spec = SynthSpec { dim: 64, n: 20_000, queries: 5, family: Family::Gaussian, seed: 42 };
    let (base, queries) = spec.generate();

    // Build: NN-Descent initial graph (d_init = 2d) + CAGRA
    // optimization (rank-based reordering, pruning, reverse edges).
    let t0 = std::time::Instant::now();
    let (index, report) = CagraIndex::build(base, Metric::SquaredL2, &GraphConfig::new(32));
    println!(
        "built CAGRA graph: {} nodes, degree {}, in {:.2?} (kNN {:.2?} + optimize {:.2?})",
        index.graph().len(),
        index.graph().degree(),
        t0.elapsed(),
        report.knn_time,
        report.opt_time,
    );

    // Search: k = 10 with default parameters. A single query runs the
    // multi-CTA mapping, several workers on one query.
    let params = SearchParams::for_k(10);
    for qi in 0..queries.len() {
        let results = index.search(queries.row(qi), 10, &params);
        let ids: Vec<u32> = results.iter().map(|n| n.id).collect();
        println!("query {qi}: top-10 = {ids:?} (nearest dist {:.3})", results[0].dist);
    }

    // Batch mode: all queries at once, thread-parallel, single-CTA
    // (one worker per query).
    let batch = index.search_batch(&queries, 10, &params);
    assert_eq!(batch.len(), queries.len());
    println!("batch search returned {} result lists", batch.len());
}
