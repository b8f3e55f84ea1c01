//! Point-in-time metric export: JSON (machine) and table (human).
//!
//! The JSON writer is hand-rolled because the workspace's `serde` is
//! an API-surface shim with no runtime. Output is deterministic: fixed
//! field order, metrics in registry declaration order.

/// One counter at a point in time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CounterSnapshot {
    pub name: String,
    pub value: u64,
}

/// One span at a point in time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanSnapshot {
    pub name: String,
    pub count: u64,
    pub total_ns: u64,
    pub mean_ns: u64,
    pub max_ns: u64,
}

/// One histogram at a point in time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub name: String,
    pub count: u64,
    pub sum: u64,
    pub mean: u64,
    pub p50: u64,
    pub p90: u64,
    pub p99: u64,
    pub max: u64,
}

/// A copy of every registered metric, ready for export.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MetricsSnapshot {
    pub counters: Vec<CounterSnapshot>,
    pub spans: Vec<SpanSnapshot>,
    pub histograms: Vec<HistogramSnapshot>,
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

impl MetricsSnapshot {
    /// Serialize as a self-describing JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n  \"schema\": \"cagra-metrics-v1\",\n  \"counters\": [");
        for (i, c) in self.counters.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("    {\"name\": ");
            push_json_str(&mut out, &c.name);
            out.push_str(&format!(", \"value\": {}}}", c.value));
        }
        out.push_str("\n  ],\n  \"spans\": [");
        for (i, s) in self.spans.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("    {\"name\": ");
            push_json_str(&mut out, &s.name);
            out.push_str(&format!(
                ", \"count\": {}, \"total_ns\": {}, \"mean_ns\": {}, \"max_ns\": {}}}",
                s.count, s.total_ns, s.mean_ns, s.max_ns
            ));
        }
        out.push_str("\n  ],\n  \"histograms\": [");
        for (i, h) in self.histograms.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("    {\"name\": ");
            push_json_str(&mut out, &h.name);
            out.push_str(&format!(
                ", \"count\": {}, \"sum\": {}, \"mean\": {}, \"p50\": {}, \"p90\": {}, \
                 \"p99\": {}, \"max\": {}}}",
                h.count, h.sum, h.mean, h.p50, h.p90, h.p99, h.max
            ));
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Render as an aligned human-readable table. Metrics that never
    /// recorded are skipped here (unlike the JSON, which keeps them).
    pub fn render(&self) -> String {
        let mut out = String::from("metrics snapshot\n");
        let live_spans: Vec<_> = self.spans.iter().filter(|s| s.count > 0).collect();
        if !live_spans.is_empty() {
            out.push_str(&format!(
                "\n  {:<26} {:>8} {:>12} {:>12} {:>12}\n",
                "span", "count", "total_ms", "mean_us", "max_us"
            ));
            for s in live_spans {
                out.push_str(&format!(
                    "  {:<26} {:>8} {:>12.3} {:>12.1} {:>12.1}\n",
                    s.name,
                    s.count,
                    s.total_ns as f64 / 1e6,
                    s.mean_ns as f64 / 1e3,
                    s.max_ns as f64 / 1e3,
                ));
            }
        }
        let live_hists: Vec<_> = self.histograms.iter().filter(|h| h.count > 0).collect();
        if !live_hists.is_empty() {
            out.push_str(&format!(
                "\n  {:<34} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}\n",
                "histogram", "count", "mean", "p50", "p90", "p99", "max"
            ));
            for h in live_hists {
                out.push_str(&format!(
                    "  {:<34} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}\n",
                    h.name, h.count, h.mean, h.p50, h.p90, h.p99, h.max
                ));
            }
        }
        let live_counters: Vec<_> = self.counters.iter().filter(|c| c.value > 0).collect();
        if !live_counters.is_empty() {
            out.push_str(&format!("\n  {:<34} {:>16}\n", "counter", "value"));
            for c in live_counters {
                out.push_str(&format!("  {:<34} {:>16}\n", c.name, c.value));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MetricsSnapshot {
        MetricsSnapshot {
            counters: vec![
                CounterSnapshot { name: "search.queries".into(), value: 64 },
                CounterSnapshot { name: "sim.cycles_hash".into(), value: 0 },
            ],
            spans: vec![SpanSnapshot {
                name: "build.reorder".into(),
                count: 1,
                total_ns: 1_500_000,
                mean_ns: 1_500_000,
                max_ns: 1_500_000,
            }],
            histograms: vec![HistogramSnapshot {
                name: "search.iterations".into(),
                count: 64,
                sum: 1280,
                mean: 20,
                p50: 19,
                p90: 27,
                p99: 31,
                max: 31,
            }],
        }
    }

    #[test]
    fn json_is_well_formed_and_complete() {
        let j = sample().to_json();
        assert!(j.contains("\"schema\": \"cagra-metrics-v1\""));
        assert!(j.contains("{\"name\": \"search.queries\", \"value\": 64}"));
        assert!(j.contains("\"total_ns\": 1500000"));
        assert!(j.contains("\"p99\": 31"));
        // Balanced braces/brackets (cheap structural check, no parser
        // in the workspace).
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn json_escapes_strings() {
        let mut s = String::new();
        push_json_str(&mut s, "a\"b\\c\nd");
        assert_eq!(s, "\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn render_skips_zero_metrics() {
        let table = sample().render();
        assert!(table.contains("build.reorder"));
        assert!(table.contains("search.iterations"));
        assert!(table.contains("search.queries"));
        assert!(!table.contains("sim.cycles_hash"), "zero counter must be hidden in the table");
    }
}
