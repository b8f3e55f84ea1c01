//! The benchmark's contract as data: command, workloads and metric
//! names. `BENCHMARK.json` at the repository root is
//! `suite --print-benchmark-json`, byte for byte (a test pins it), so
//! a metric cannot be printed without being declared or the reverse.

/// Seconds one run measures; the driver passes it as `--seconds`.
pub const RUN_SECONDS: u32 = 28;

pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benches/suite/Cargo.toml",
    "--",
];

pub const PATHS: [&str; 1] = ["benches/suite"];

pub const LOWER: &str = "lower";
pub const HIGHER: &str = "higher";

pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
    /// `CAGRA_THREADS` for the run, set before any thread starts.
    pub cagra_threads: usize,
    /// Threads that can be busy at once: clients, connections, workers
    /// and background rebuilds. Must not exceed the host's cores, or a
    /// latency percentile measures the scheduler's timeslice.
    pub busy_threads: usize,
}

pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "build_deep",
        why: "Back-to-back CagraIndex::build (knn + optimize do all the work), then batch single-CTA and one-at-a-time multi-CTA search of the result; serve, dynamic, PQ and index_io stay idle.",
        cagra_threads: 2,
        busy_threads: 2,
    },
    WorkloadSpec {
        name: "serve_tcp_glove",
        why: "The whole request path over loopback TCP (proto framing, tcp handler, admission, multi-CTA cosine search, encode) from 2 closed-loop connections on clustered d=200 data that fits L2.",
        cagra_threads: 2,
        busy_threads: 2,
    },
    WorkloadSpec {
        name: "serve_open_pq",
        why: "PQ codes, ADC and exact rerank from an mmap tail behind the in-process service under seeded Poisson arrivals at three fixed rates, so queue wait and batches > 1 exist; working set exceeds L2.",
        cagra_threads: 2,
        busy_threads: 2,
    },
    WorkloadSpec {
        name: "churn_mixed",
        why: "A closed-loop reader beside a paced writer (9 inserts : 1 delete) on a DynamicIndex with background compaction: write cost, read cost and rebuild CPU trade against each other in one row.",
        cagra_threads: 1,
        busy_threads: 2,
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd { name: "setup_s", unit: "s", better: LOWER, bound: 0.25 },
    EndToEnd { name: "build_vec_per_s", unit: "vectors/s", better: HIGHER, bound: 0.25 },
    EndToEnd { name: "qps", unit: "queries/s", better: HIGHER, bound: 0.25 },
    EndToEnd { name: "p50_ms", unit: "ms", better: LOWER, bound: 0.25 },
    EndToEnd { name: "p99_ms", unit: "ms", better: LOWER, bound: 0.25 },
    EndToEnd { name: "recall_at_10", unit: "ratio", better: HIGHER, bound: 0.03 },
    EndToEnd { name: "bytes_per_vector", unit: "B", better: LOWER, bound: 0.01 },
    EndToEnd { name: "write_p50_ms", unit: "ms", better: LOWER, bound: 0.25 },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

pub const PER_LAYER: &[PerLayer] = &[
    layer("dataset.synth_s", "s", LOWER),
    layer("dataset.pq_train_s", "s", LOWER),
    layer("dataset.pq_encode_s", "s", LOWER),
    layer("dataset.pq_bytes_per_vector", "B", LOWER),
    layer("distance.l2_ns_per_row", "ns", LOWER),
    layer("distance.cosine_ns_per_row", "ns", LOWER),
    layer("distance.adc_ns_per_row", "ns", LOWER),
    layer("distance.adc_lut_us", "us", LOWER),
    layer("knn.nn_descent_s", "s", LOWER),
    layer("knn.nn_init_s", "s", LOWER),
    layer("knn.nn_iters_s", "s", LOWER),
    layer("knn.nn_iterations", "count", LOWER),
    layer("knn.nn_distances", "count", LOWER),
    layer("knn.brute_gt_s", "s", LOWER),
    layer("cagra.optimize_s", "s", LOWER),
    layer("cagra.reorder_s", "s", LOWER),
    layer("cagra.reverse_s", "s", LOWER),
    layer("cagra.merge_s", "s", LOWER),
    layer("cagra.graph_bytes_per_vector", "B", LOWER),
    layer("graph.two_hop_mean", "count", HIGHER),
    layer("graph.scc_count", "count", LOWER),
    layer("search.single_cta_us_per_query", "us", LOWER),
    layer("search.multi_cta_us_per_query", "us", LOWER),
    layer("search.iterations_per_query", "count", LOWER),
    layer("search.distances_per_query", "count", LOWER),
    layer("search.init_distances_per_query", "count", LOWER),
    layer("search.rerank_us_per_query", "us", LOWER),
    layer("index_io.write_s", "s", LOWER),
    layer("index_io.read_s", "s", LOWER),
    layer("index_io.bundle_bytes", "B", LOWER),
    layer("dynamic.insert_us_p50", "us", LOWER),
    layer("dynamic.insert_us_small_delta", "us", LOWER),
    layer("dynamic.insert_us_large_delta", "us", LOWER),
    layer("dynamic.delete_us_p50", "us", LOWER),
    layer("dynamic.search_us_static", "us", LOWER),
    layer("dynamic.read_us_idle", "us", LOWER),
    layer("dynamic.read_us_compacting", "us", LOWER),
    layer("dynamic.read_us_tomb_lo", "us", LOWER),
    layer("dynamic.read_us_tomb_hi", "us", LOWER),
    layer("dynamic.compaction_ms", "ms", LOWER),
    layer("dynamic.compacting_share", "ratio", LOWER),
    layer("dynamic.compactions", "count", LOWER),
    layer("proto.request_codec_ns", "ns", LOWER),
    layer("proto.response_codec_ns", "ns", LOWER),
    layer("proto.response_bytes", "B", LOWER),
    layer("serve.queue_wait_us_p50", "us", LOWER),
    layer("serve.queue_wait_us_p99", "us", LOWER),
    layer("serve.exec_us_p50", "us", LOWER),
    layer("serve.batch_size_mean", "count", HIGHER),
    layer("serve.mode_multi_share", "ratio", LOWER),
    layer("serve.rejected", "count", LOWER),
    layer("serve.utilisation", "ratio", LOWER),
    layer("tcp.overhead_us_p50", "us", LOWER),
    layer("tcp.overhead_us_p99", "us", LOWER),
    layer("tcp.connect_us", "us", LOWER),
    layer("loadgen.sent", "count", HIGHER),
    layer("loadgen.ok", "count", HIGHER),
    layer("loadgen.failed", "count", LOWER),
    layer("loadgen.samples", "count", HIGHER),
    layer("loadgen.late_p50_ms", "ms", LOWER),
    layer("loadgen.late_p99_ms", "ms", LOWER),
    layer("loadgen.write_late_p99_ms", "ms", LOWER),
    layer("loadgen.write_p99_ms", "ms", LOWER),
    layer("loadgen.p999_ms", "ms", LOWER),
    layer("loadgen.p99_ms_lo", "ms", LOWER),
    layer("loadgen.p99_ms_mid", "ms", LOWER),
    layer("loadgen.p99_ms_hi", "ms", LOWER),
    layer("loadgen.slo_qps", "queries/s", HIGHER),
    layer("host.ref_loop_ms", "ms", LOWER),
    layer("host.ref_drift", "ratio", LOWER),
    layer("trace.spans", "count", LOWER),
    layer("trace.overhead_share", "ratio", LOWER),
];

pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

fn json_strings(items: &[&str]) -> String {
    items.iter().map(|s| format!("\"{s}\"")).collect::<Vec<_>>().join(", ")
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s += &format!("  \"command\": [{}],\n", json_strings(&COMMAND));
    s += &format!("  \"paths\": [{}],\n", json_strings(&PATHS));
    s += &format!("  \"run_seconds\": {RUN_SECONDS},\n");
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    s += &format!("  \"workloads\": [\n{}\n  ],\n", workloads.join(",\n"));
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            )
        })
        .collect();
    s += &format!("  \"end_to_end\": [\n{}\n  ],\n", e2e.join(",\n"));
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            )
        })
        .collect();
    s += &format!("  \"per_layer\": [\n{}\n  ]\n}}\n", layers.join(",\n"));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn declared_names_units_and_bounds_are_inside_the_driver_limits() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().map(|m| m.name));
        assert!(names.iter().all(|n| name_ok(n)));
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used once");
        assert!(END_TO_END.iter().all(|m| unit_ok(m.unit) && m.bound > 0.0 && m.bound <= 0.25));
        assert!(PER_LAYER.iter().all(|m| unit_ok(m.unit)));
        assert!(WORKLOADS.iter().all(|w| w.why.len() <= 200 && !w.why.contains(['\n', '"'])));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is declared");
        assert_eq!((setup.unit, setup.better), ("s", LOWER));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");
        assert!(COMMAND.len() <= 32 && benchmark_json().len() <= 64 * 1024);
    }
}
