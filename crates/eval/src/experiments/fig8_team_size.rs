//! Fig. 8: the effect of warp-splitting team size on throughput.
//!
//! Paper claims to reproduce: on a small-dimension dataset (DEEP, 96)
//! team sizes 4–8 are fastest (team 2 pays register pressure, team 32
//! wastes load lanes); on a large-dimension dataset (GIST, 960) the
//! full warp (32) wins. Recall is identical across team sizes — the
//! split changes only the hardware mapping.

use crate::context::{ExpContext, Workload};
use crate::experiments::build_cagra;
use crate::recall::recall_at_k;
use crate::report::{fmt_qps, Table};
use crate::sweep::sim_batch_qps;
use cagra::search::planner::Mode;
use cagra::SearchParams;
use dataset::presets::PresetName;
use dataset::VectorStore;
use gpu_sim::{search_batch_traced, HashPolicy};

/// Team sizes the paper sweeps.
pub const TEAMS: [usize; 5] = [2, 4, 8, 16, 32];

/// Run the sweep on DEEP-like and GIST-like workloads.
pub fn run(ctx: &ExpContext) {
    let mut t = Table::new(&["dataset", "team", "recall@10", "QPS (sim)"]);
    for preset in [PresetName::Deep, PresetName::Gist] {
        let wl = Workload::load(preset, ctx);
        for (team, recall, qps) in sweep(&wl, ctx) {
            t.row(vec![
                preset.label().to_string(),
                team.to_string(),
                format!("{:.4}", recall),
                fmt_qps(qps),
            ]);
        }
    }
    t.print("Fig. 8 — team size vs throughput (batch search)");
}

/// (team, recall, simulated QPS) triples for one workload. The search
/// runs once — team size is purely a costing input.
pub fn sweep(wl: &Workload, ctx: &ExpContext) -> Vec<(usize, f64, f64)> {
    let (index, _) = build_cagra(wl);
    let params = SearchParams::for_k(ctx.k);
    let hash = HashPolicy::Forgettable { bits: 11, reset_interval: 1 };
    let out = search_batch_traced(&index, &wl.queries, ctx.k, &params, Mode::SingleCta, hash);
    let results: Vec<_> = out.iter().map(|(r, _)| r.clone()).collect();
    let traces: Vec<_> = out.into_iter().map(|(_, t)| t).collect();
    let recall = recall_at_k(&results, &wl.ground_truth(ctx.k), ctx.k);
    TEAMS
        .iter()
        .map(|&team| {
            let qps =
                sim_batch_qps(&traces, wl.base.dim(), 4, team, Mode::SingleCta, ctx.batch_target);
            (team, recall, qps)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn qps_map(wl: &Workload, ctx: &ExpContext) -> std::collections::HashMap<usize, f64> {
        sweep(wl, ctx).into_iter().map(|(t, _, q)| (t, q)).collect()
    }

    #[test]
    fn small_dim_prefers_mid_teams_large_dim_prefers_full_warp() {
        let ctx = ExpContext { n: 700, queries: 20, batch_target: 2000, ..ExpContext::default() };
        let deep = qps_map(&Workload::load(PresetName::Deep, &ctx), &ctx);
        assert!(deep[&8] > deep[&2], "deep: team8 {} vs team2 {}", deep[&8], deep[&2]);
        assert!(deep[&8] >= deep[&32], "deep: team8 {} vs team32 {}", deep[&8], deep[&32]);
        let gist = qps_map(&Workload::load(PresetName::Gist, &ctx), &ctx);
        assert!(gist[&32] > gist[&4], "gist: team32 {} vs team4 {}", gist[&32], gist[&4]);
    }

    #[test]
    fn recall_is_team_size_invariant() {
        let ctx = ExpContext { n: 500, queries: 10, batch_target: 500, ..ExpContext::default() };
        let wl = Workload::load(PresetName::Deep, &ctx);
        let rows = sweep(&wl, &ctx);
        let first = rows[0].1;
        assert!(rows.iter().all(|&(_, r, _)| (r - first).abs() < 1e-12));
    }
}
