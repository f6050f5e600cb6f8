//! The metric catalogue (mirrored by `BENCHMARK.json`) and the result line.

/// End-to-end metrics: `(name, unit, better)`. Each workload reports all of
/// them with tracing off.
///
/// * `setup_s` — median over the run's set-ups of the time from workload
///   start to the first timed operation (input generation, warm-up; for
///   limad-mix also the fill pass and the warm restart over its WAL). On
///   hpo-reuse and minibatch-trace each set-up is followed by its share of
///   the timed runs.
/// * `peak_rss_mb` — VmHWM of the workload's process, reset after the
///   one-time reference run (on limad-mix the reference runs in a child
///   process).
/// * `op_ms_p50` — median latency of one operation: a whole run (compile +
///   context set-up + execute + context drop of every script; `run_ms_p50`)
///   on hpo-reuse and minibatch-trace, one request of any kind on
///   limad-mix.
/// * `ops_per_s` — operations completed per second of the timed phase
///   (`req_per_s` on limad-mix).
pub const END_TO_END: &[(&str, &str, &str)] = &[
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("op_ms_p50", "ms", "lower"),
    ("ops_per_s", "1/s", "higher"),
];

/// Per-layer metrics from the traced run: `(name, unit, better)`. A metric
/// a workload does not exercise, or that cannot be timed from outside on
/// it, reports 0 and is listed as not measured.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("lang.compile_ms", "ms", "lower"),
    ("runtime.ctx_setup_ms", "ms", "lower"),
    ("runtime.exec_ms", "ms", "lower"),
    ("runtime.teardown_ms", "ms", "lower"),
    ("runtime.instrs", "count", "lower"),
    ("runtime.instr_self_ms", "ms", "lower"),
    ("matrix.kernel_ms", "ms", "lower"),
    ("matrix.kernel_calls", "count", "lower"),
    ("matrix.kernel_share", "ratio", "higher"),
    ("lineage.items", "count", "lower"),
    ("lineage.dedup_items", "count", "higher"),
    ("lineage.overhead_ms", "ms", "lower"),
    ("lineage.construct_ns", "ns", "lower"),
    ("lineage.hash_ns", "ns", "lower"),
    ("lineage.drop_ns", "ns", "lower"),
    ("lineage.chain_construct_ns", "ns", "lower"),
    ("lineage.chain_hash_ns", "ns", "lower"),
    ("lineage.chain_drop_ns", "ns", "lower"),
    ("cache.probes", "count", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.full_hits", "count", "higher"),
    ("cache.partial_hits", "count", "higher"),
    ("cache.multilevel_hits", "count", "higher"),
    ("cache.puts", "count", "lower"),
    ("cache.rejected_puts", "count", "lower"),
    ("cache.hits_per_put", "ratio", "higher"),
    ("cache.net_ms", "ms", "lower"),
    ("cache.saved_compute_ms", "ms", "higher"),
    ("cache.compensation_ms", "ms", "lower"),
    ("cache.placeholder_waits", "count", "lower"),
    ("cache.resident_mb", "MiB", "lower"),
    ("cache.evictions", "count", "lower"),
    ("cache.spills", "count", "lower"),
    ("cache.restores", "count", "lower"),
    ("cache.spill_bytes", "bytes", "lower"),
    ("cache.spill_write_ms", "ms", "lower"),
    ("cache.spill_restore_ms", "ms", "lower"),
    ("persist.writes", "count", "lower"),
    ("persist.bytes", "bytes", "lower"),
    ("persist.write_ms", "ms", "lower"),
    ("persist.recovered", "count", "higher"),
    ("persist.recover_ms", "ms", "lower"),
    ("wire.ping_ms_p50", "ms", "lower"),
    ("wire.encode_us", "us", "lower"),
    ("wire.decode_us", "us", "lower"),
    ("wire.bytes_per_req", "bytes", "lower"),
    ("client.retries", "count", "lower"),
    ("client.failovers", "count", "lower"),
    ("limad.requests", "count", "higher"),
    ("limad.sheds", "count", "lower"),
    ("limad.quota_rejects", "count", "lower"),
    ("limad.probe_over_ping_ms", "ms", "lower"),
    ("limad.dup_resident", "count", "lower"),
    ("limad.submit_ms_p50", "ms", "lower"),
    ("limad.submit_ms_p99", "ms", "lower"),
    ("limad.fetch_ms_p50", "ms", "lower"),
    ("limad.probe_ms_p50", "ms", "lower"),
    ("trace.run_ms_p50", "ms", "lower"),
    ("trace.untraced_run_ms_p50", "ms", "lower"),
    ("trace.overhead_ms", "ms", "lower"),
    ("trace.dropped_events", "count", "lower"),
    ("account.wall_ms", "ms", "lower"),
    ("account.layers_ms", "ms", "lower"),
    ("account.unaccounted_ms", "ms", "lower"),
    ("account.lang_ms", "ms", "lower"),
    ("account.runtime_ms", "ms", "lower"),
    ("account.matrix_ms", "ms", "lower"),
    ("account.cache_io_ms", "ms", "lower"),
];

/// Per-layer metrics read straight from `LimaStats` counters.
const COUNTERS: &[(&str, &str)] = &[
    ("lineage.items", "items_traced"),
    ("lineage.dedup_items", "dedup_items"),
    ("cache.probes", "probes"),
    ("cache.full_hits", "full_hits"),
    ("cache.partial_hits", "partial_hits"),
    ("cache.multilevel_hits", "multilevel_hits"),
    ("cache.puts", "puts"),
    ("cache.rejected_puts", "rejected_puts"),
    ("cache.placeholder_waits", "placeholder_waits"),
    ("cache.evictions", "evictions"),
    ("cache.spills", "spills"),
    ("cache.restores", "restores"),
    ("cache.spill_bytes", "spill_bytes"),
    ("persist.writes", "persist_writes"),
    ("persist.bytes", "persist_bytes"),
];

/// Sets the lineage, cache and persist metrics from a `LimaStats`
/// snapshot (or a sum or difference of snapshots).
pub fn set_counters(m: &mut Metrics, stats: &[(&'static str, u64)]) {
    for &(metric, counter) in COUNTERS {
        m.set(metric, stat(stats, counter));
    }
    let hits =
        stat(stats, "full_hits") + stat(stats, "partial_hits") + stat(stats, "multilevel_hits");
    m.set("cache.hit_ratio", hits / stat(stats, "probes").max(1.0));
    m.set("cache.hits_per_put", hits / stat(stats, "puts").max(1.0));
    m.set(
        "cache.saved_compute_ms",
        stat(stats, "saved_compute_ns") / 1e6,
    );
    m.set(
        "cache.compensation_ms",
        stat(stats, "compensation_ns") / 1e6,
    );
}

/// One counter of a `LimaStats` snapshot.
pub fn stat(stats: &[(&'static str, u64)], name: &str) -> f64 {
    stats
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(0.0, |(_, v)| *v as f64)
}

/// Metric values of one run, in the order they were set.
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.retain(|(n, _)| *n != name);
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}

/// Builds the result line for the given catalogue. End-to-end metrics must
/// all be present, finite and non-zero; per-layer metrics a workload does
/// not exercise are reported as 0 and named in `missing`.
pub fn result_line(
    catalogue: &[(&'static str, &'static str, &'static str)],
    metrics: &Metrics,
    require_all: bool,
    correct: bool,
    attempted: u64,
    failed: u64,
    missing: &mut Vec<&'static str>,
) -> Result<String, String> {
    let mut fields = Vec::with_capacity(catalogue.len());
    for &(name, unit, _) in catalogue {
        let value = match metrics.get(name) {
            Some(v) if v.is_finite() => v,
            Some(v) => return Err(format!("metric {name} is not finite: {v}")),
            None if require_all => return Err(format!("metric {name} was not measured")),
            None => {
                missing.push(name);
                0.0
            }
        };
        if require_all && value == 0.0 {
            return Err(format!("metric {name} measured 0"));
        }
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` must list exactly this catalogue, in the same order.
    #[test]
    fn benchmark_json_matches_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let root = lima_core::obs::parse_json(&text).expect("valid JSON");
        for (key, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = root.get(key).and_then(|v| v.as_arr()).expect(key);
            assert_eq!(listed.len(), catalogue.len(), "{key} length");
            for (entry, (name, unit, better)) in listed.iter().zip(catalogue) {
                let field = |k: &str| entry.get(k).and_then(|v| v.as_str()).unwrap_or("");
                assert_eq!(
                    (field("name"), field("unit"), field("better")),
                    (*name, *unit, *better)
                );
            }
        }
    }

    #[test]
    fn result_line_requires_every_end_to_end_metric() {
        let mut m = Metrics::default();
        m.set("setup_s", 1.5);
        let mut missing = Vec::new();
        let err = result_line(END_TO_END, &m, true, true, 1, 0, &mut missing);
        assert!(err.is_err());
        for (n, _, _) in END_TO_END {
            m.set(n, 2.0);
        }
        let line = result_line(END_TO_END, &m, true, true, 3, 0, &mut missing).unwrap();
        let parsed = lima_core::obs::parse_json(&line).unwrap();
        assert_eq!(parsed.get("attempted").and_then(|v| v.as_f64()), Some(3.0));
        let setup = parsed
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .unwrap();
        assert_eq!(setup.get("unit").and_then(|v| v.as_str()), Some("s"));
        m.set("op_ms_p50", 0.0);
        assert!(result_line(END_TO_END, &m, true, true, 3, 0, &mut missing).is_err());
    }
}
