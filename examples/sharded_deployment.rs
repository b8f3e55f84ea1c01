//! Multi-GPU sharding — the deployment the paper recommends when a
//! dataset outgrows one device's memory (Sec. IV-C2, Q-C5).
//!
//! Builds independent CAGRA graphs over contiguous shards, answers
//! queries by searching every shard and merging, verifies recall is
//! preserved, and prices the deployment on the multi-device simulator.
//!
//! ```text
//! cargo run --release --example sharded_deployment
//! ```

use cagra::ShardedIndex;
use cagra_repro::prelude::*;
use gpu_sim::{search_sharded_traced, simulate_sharded_batch, DeviceSpec};
use knn::brute::ground_truth;

fn main() {
    let spec = SynthSpec { dim: 96, n: 40_000, queries: 100, family: Family::Gaussian, seed: 21 };
    let (base, queries) = spec.generate();
    let gt = ground_truth(&base, Metric::SquaredL2, &queries, 10);

    let shards = 4;
    let (index, reports) =
        ShardedIndex::build(&base, Metric::SquaredL2, &GraphConfig::new(32), shards);
    println!(
        "built {shards} shards over {} vectors; per-shard build times: {:?}",
        index.len(),
        reports.iter().map(|r| r.total()).collect::<Vec<_>>()
    );

    // Search every query across all shards on the GPU's visited table
    // (the paper's shared-memory forgettable one), collecting per-shard
    // traces for the device model.
    let params = SearchParams::for_k(10);
    let hash = HashPolicy::Forgettable { bits: 11, reset_interval: 1 };
    let mut shard_traces: Vec<Vec<cagra::search::trace::SearchTrace>> =
        (0..shards).map(|_| Vec::with_capacity(queries.len())).collect();
    let mut hits = 0usize;
    for (qi, ids) in gt.iter().enumerate() {
        let (results, traces) =
            search_sharded_traced(&index, queries.row(qi), 10, &params, Mode::SingleCta, hash);
        for (s, t) in traces.into_iter().enumerate() {
            shard_traces[s].push(t);
        }
        let truth: std::collections::HashSet<u32> = ids.iter().copied().collect();
        hits += results.iter().filter(|n| truth.contains(&n.id)).count();
    }
    println!("sharded recall@10 = {:.4}", hits as f64 / (queries.len() * 10) as f64);

    // Price the same batch on `shards` simulated A100s.
    let device = DeviceSpec::a100();
    let timing = simulate_sharded_batch(&device, &shard_traces, 96, 4, 8, Mode::SingleCta);
    println!(
        "simulated {} x {}: batch of {} in {:.3} ms -> {:.0} QPS (slowest shard bound)",
        shards,
        device.name,
        queries.len(),
        timing.seconds * 1e3,
        timing.qps
    );
    for (s, t) in timing.per_device.iter().enumerate() {
        println!(
            "  shard {s}: {:.3} ms compute, {:.3} ms bandwidth",
            t.compute_seconds * 1e3,
            t.bandwidth_seconds * 1e3
        );
    }
}
