//! A guided tour of CAGRA graph construction (Figs. 1 and 2 of the
//! paper) on a dataset small enough to print: watch the k-NN lists
//! become ranks, the detourable-route counts reorder each list, and
//! the reverse edges interleave into the final fixed-degree graph.
//!
//! ```text
//! cargo run --release --example graph_construction_tour
//! ```

use cagra::optimize::{detour_counts_rank, merge, reverse_lists};
use cagra_repro::prelude::*;
use knn::nn_descent::exact_all_pairs;

fn main() {
    // 12 points on a noisy circle: enough structure for detours.
    let mut flat = Vec::new();
    for i in 0..12 {
        let t = i as f32 / 12.0 * std::f32::consts::TAU;
        let wobble = if i % 3 == 0 { 0.25 } else { 0.0 };
        flat.extend_from_slice(&[(1.0 + wobble) * t.cos(), (1.0 + wobble) * t.sin()]);
    }
    let base = Dataset::from_flat(flat, 2);
    let d_init = 6;
    let d = 4;

    // Stage 1: exact k-NN lists, sorted by distance — list position is
    // the *initial rank* the optimization uses in place of distances.
    let knn = exact_all_pairs(&base, Metric::SquaredL2, d_init, 1);
    println!("initial {d_init}-NN lists (id:rank, sorted by distance):");
    for (v, list) in knn.rows().enumerate() {
        let row: Vec<String> =
            list.iter().enumerate().map(|(r, n)| format!("{}@r{r}", n.id)).collect();
        println!("  node {v:>2}: {}", row.join("  "));
    }

    // Stage 2: detourable-route counts (Eq. 3, rank form). An edge
    // X->Y with many two-hop detours max(rank) < rank(X->Y) is
    // redundant and gets pushed back in the reorder.
    println!("\ndetourable-route counts per edge (rank-based):");
    for v in 0..knn.len() {
        let counts = detour_counts_rank(&knn, v);
        let row: Vec<String> =
            knn.row(v).iter().zip(&counts).map(|(n, c)| format!("{}:{c}", n.id)).collect();
        println!("  node {v:>2}: {}", row.join("  "));
    }

    // Stage 3: full optimization = reorder + prune + reverse + merge.
    let opts = cagra::optimize::OptimizeOptions::new(d);
    let graph = cagra::optimize::optimize(&knn, &base, Metric::SquaredL2, &opts);
    println!("\nfinal CAGRA graph (degree {d}):");
    for v in 0..graph.len() {
        println!("  node {v:>2} -> {:?}", graph.neighbors(v));
    }

    // The pieces, shown separately: pruned forward lists and the
    // rank-sorted reverse lists they interleave with.
    let pruned: Vec<Vec<u32>> = knn.rows().map(|l| l[..d].iter().map(|n| n.id).collect()).collect();
    let reversed = reverse_lists(&pruned, d);
    println!("\nreverse lists (sorted by forward rank — \"someone who");
    println!("considers you more important is also more important to you\"):");
    for (v, list) in reversed.iter().enumerate() {
        println!("  node {v:>2} <- {list:?}");
    }
    let merged = merge(&pruned, &reversed, d);
    println!("\nmerge(pruned, reversed) without reordering, for contrast:");
    for v in 0..merged.len() {
        println!("  node {v:>2} -> {:?}", merged.neighbors(v));
    }

    // Reachability before/after, the Fig. 3 quantities.
    use graph::stats::graph_stats;
    use graph::AdjacencyGraph;
    let knn_graph: Vec<Vec<u32>> =
        knn.rows().map(|l| l[..d].iter().map(|n| n.id).collect()).collect();
    let before = graph_stats(&AdjacencyGraph::from_lists(&knn_graph), 1);
    let after = graph_stats(&AdjacencyGraph::from_fixed(&graph), 1);
    println!(
        "\nreachability: knn graph  -> strong CC {}, avg 2-hop {:.1}",
        before.strong_cc, before.avg_two_hop
    );
    println!(
        "reachability: CAGRA graph -> strong CC {}, avg 2-hop {:.1}",
        after.strong_cc, after.avg_two_hop
    );
}
