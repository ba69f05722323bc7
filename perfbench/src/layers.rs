//! The per-layer metrics a `--trace 1` run prints. Every workload prints
//! all of them; a layer the workload never reaches reads 0. Times and
//! counts are per op (scan iteration, edit, or request) unless the name
//! says otherwise; `perfbench/METRICS.md` defines each one.

use std::collections::BTreeMap;

use crate::client::Stats;
use crate::span::Tracer;
use crate::stats::ratio;
use crate::Outcome;

/// Every per-layer metric, in print order, with its unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("read.self_ms", "ms"),
    ("parse.self_ms", "ms"),
    ("parse.mb_per_s", "MB/s"),
    ("pretty.self_ms", "ms"),
    ("analysis.full_ms", "ms"),
    ("analysis.partial_ms", "ms"),
    ("analysis.functions_reanalyzed", "count"),
    ("analysis.reuse_ratio", "ratio"),
    ("summary.hit_ratio", "ratio"),
    ("summary.entries", "count"),
    ("cache.get_ms", "ms"),
    ("cache.put_ms", "ms"),
    ("cache.entry_bytes", "bytes"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.corrupt", "count"),
    ("cache.write_errors", "count"),
    ("delta.stat_ms", "ms"),
    ("delta.cone_ms", "ms"),
    ("delta.manifest_save_ms", "ms"),
    ("delta.store_save_ms", "ms"),
    ("delta.changed_files", "count"),
    ("delta.stat_fastpath_hits", "count"),
    ("emit.self_ms", "ms"),
    ("emit.bytes", "bytes"),
    ("batch.source_tier_hit_ratio", "ratio"),
    ("batch.resident_entries", "count"),
    ("batch.warm_hit_ms", "ms"),
    ("server.handle_ms", "ms"),
    ("server.request_parse_ms", "ms"),
    ("eventloop.transport_ms", "ms"),
    ("eventloop.backlog", "count"),
    ("edit.wide_p50_ms", "ms"),
    ("edit.leaf_p50_ms", "ms"),
    ("edit.hub_p50_ms", "ms"),
    ("bench.e2e_ms", "ms"),
    ("bench.unattributed_share", "ratio"),
    ("bench.trace_overhead_share", "ratio"),
    ("bench.replay_gap_share", "ratio"),
    ("bench.generator_late_ms", "ms"),
];

/// Per-layer values being filled in by one traced run.
#[derive(Default)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
}

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "undeclared layer metric {name}");
        self.values.insert(name, value);
    }

    /// Fills the span-derived metrics from a traced replay: each layer's
    /// self time per op, the share of the traced end-to-end time no
    /// layer span covers, and the tracing overhead against the same
    /// replay run untraced (`untraced_ms` per op) and the replay's gap
    /// to the real system (`real_ms` per op).
    pub fn record_trace(&mut self, tracer: &Tracer, untraced_ms: f64, real_ms: f64) {
        let totals = tracer.totals();
        let ops = tracer.roots().max(1) as f64;
        let per_op = |name: &str| totals.get(name).copied().unwrap_or(0) as f64 / 1e6 / ops;
        for (span, metric) in [
            ("read", "read.self_ms"),
            ("parse", "parse.self_ms"),
            ("pretty", "pretty.self_ms"),
            ("analysis.full", "analysis.full_ms"),
            ("analysis.partial", "analysis.partial_ms"),
            ("cache.get", "cache.get_ms"),
            ("cache.put", "cache.put_ms"),
            ("delta.stat", "delta.stat_ms"),
            ("delta.cone", "delta.cone_ms"),
            ("delta.manifest_save", "delta.manifest_save_ms"),
            ("delta.store_save", "delta.store_save_ms"),
            ("emit", "emit.self_ms"),
            ("server.request_parse", "server.request_parse_ms"),
            ("server.handle", "server.handle_ms"),
        ] {
            self.set(metric, per_op(span));
        }
        let traced_ms = tracer.root_ns() as f64 / 1e6 / ops;
        let attributed: u64 = totals.values().sum();
        self.set("bench.e2e_ms", traced_ms);
        self.set(
            "bench.unattributed_share",
            1.0 - ratio(attributed as f64, tracer.root_ns() as f64),
        );
        self.set("bench.trace_overhead_share", ratio(traced_ms, untraced_ms) - 1.0);
        self.set("bench.replay_gap_share", 1.0 - ratio(untraced_ms, real_ms));
    }

    /// Fills the metrics the daemon counts itself, from its stats before
    /// and after a measured pass of `ops` ops.
    pub fn record_daemon(&mut self, before: &Stats, after: &Stats, ops: usize) {
        let ops = ops.max(1) as f64;
        for (key, metric) in [
            ("persistent_hits", "cache.hits"),
            ("persistent_misses", "cache.misses"),
            ("persistent_corrupt", "cache.corrupt"),
            ("persistent_write_errors", "cache.write_errors"),
        ] {
            self.set(metric, after.since(before, key) / ops);
        }
        let (hits, misses) = (
            after.since(before, "summary_store_hits"),
            after.since(before, "summary_store_misses"),
        );
        self.set("summary.hit_ratio", ratio(hits, hits + misses));
        self.set("summary.entries", after.get("summary_store_entries"));
        self.set(
            "batch.source_tier_hit_ratio",
            ratio(
                after.since(before, "fingerprint_hits"),
                after.since(before, "fingerprint_lookups"),
            ),
        );
        self.set(
            "batch.resident_entries",
            after.get("program_cache_entries") + after.get("source_cache_entries"),
        );
    }

    /// Pushes every declared metric, 0 where unset.
    pub fn report(&self, out: &mut Outcome) {
        for &(name, unit) in PER_LAYER {
            out.push(name, self.values.get(name).copied().unwrap_or(0.0), unit);
        }
    }
}
