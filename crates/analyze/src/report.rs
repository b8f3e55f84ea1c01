//! Machine-readable lint report in the workspace's `cagra-metrics-v1`
//! JSON format (the same self-describing shape `obs` snapshots use),
//! so CI can upload one artifact per run and dashboards can ingest
//! lint counts with the tooling they already have for serving
//! metrics. Lint results are pure counts, so only the `counters`
//! section is populated; `spans` and `histograms` stay empty.
//!
//! Counter naming: `analyze.<pass>.<bucket>.<key>` for per-bucket
//! tallies plus `analyze.<pass>.violations` for the pass's outcome
//! (0 = budget matched and every site carried its required
//! documentation). Output is deterministic: passes in the order run,
//! buckets in `BTreeMap` order.

use crate::ledger::Tallies;

/// One pass's contribution to the report.
pub struct PassReport {
    /// Pass name as used on the CLI (`unsafe`, `panic`, `alloc`,
    /// `lock`, `determinism`).
    pub pass: &'static str,
    /// Count keys, parallel to each tally row.
    pub keys: &'static [&'static str],
    /// Per-bucket counts from the audit.
    pub tallies: Tallies,
    /// Number of violations (budget drift + missing documentation).
    pub violations: usize,
}

fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Serialize pass results as a `cagra-metrics-v1` document.
pub fn to_json(reports: &[PassReport]) -> String {
    let mut counters: Vec<(String, usize)> = Vec::new();
    for r in reports {
        for (bucket, counts) in &r.tallies {
            for (key, &value) in r.keys.iter().zip(counts) {
                counters.push((format!("analyze.{}.{bucket}.{key}", r.pass), value));
            }
        }
        counters.push((format!("analyze.{}.violations", r.pass), r.violations));
    }
    let mut out = String::with_capacity(4096);
    out.push_str("{\n  \"schema\": \"cagra-metrics-v1\",\n  \"counters\": [");
    for (i, (name, value)) in counters.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str("    {\"name\": ");
        push_json_str(&mut out, name);
        out.push_str(&format!(", \"value\": {value}}}"));
    }
    out.push_str("\n  ],\n  \"spans\": [\n  ],\n  \"histograms\": [\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> Vec<PassReport> {
        let mut t = Tallies::new();
        t.insert("crates/cagra".into(), vec![2, 1]);
        vec![PassReport { pass: "panic", keys: &["unwraps", "expects"], tallies: t, violations: 3 }]
    }

    #[test]
    fn report_is_valid_metrics_v1_shape() {
        let j = to_json(&demo());
        assert!(j.contains("\"schema\": \"cagra-metrics-v1\""));
        assert!(j.contains("{\"name\": \"analyze.panic.crates/cagra.unwraps\", \"value\": 2}"));
        assert!(j.contains("{\"name\": \"analyze.panic.crates/cagra.expects\", \"value\": 1}"));
        assert!(j.contains("{\"name\": \"analyze.panic.violations\", \"value\": 3}"));
        assert!(j.contains("\"spans\": [\n  ]"));
    }

    #[test]
    fn report_is_deterministic() {
        assert_eq!(to_json(&demo()), to_json(&demo()));
    }

    #[test]
    fn empty_report_is_still_a_document() {
        let j = to_json(&[]);
        assert!(j.contains("\"counters\": [\n  ]"));
    }
}
