//! Lightweight tracing/metrics for the analysis pipeline.
//!
//! A [`TraceCollector`] gathers named counters (programs scanned, cache
//! hits, findings per kind) and per-pass wall-clock timings from the
//! [`Analyzer`](crate::Analyzer) and the
//! [`BatchEngine`](crate::BatchEngine). It is cheap, thread-safe (the
//! batch workers all feed one collector), and entirely opt-in: analysis
//! paths that were not handed a collector pay nothing beyond an
//! `Option` check.
//!
//! A [`snapshot`](TraceCollector::snapshot) yields an immutable
//! [`TraceReport`] with deterministic (sorted) ordering, which `pncheck
//! --stats` prints and the JSON envelope embeds.
//!
//! ```
//! use pnew_detector::{trace::TraceCollector, Analyzer, Expr, ProgramBuilder, Ty};
//!
//! let mut p = ProgramBuilder::new("demo");
//! p.class("Student", 16, None, false);
//! p.class("GradStudent", 32, Some("Student"), false);
//! let mut f = p.function("main");
//! let stud = f.local("stud", Ty::Class("Student".into()));
//! let st = f.local("st", Ty::Ptr);
//! f.placement_new(st, Expr::addr_of(stud), "GradStudent");
//! f.finish();
//! let program = p.build();
//!
//! let trace = TraceCollector::new();
//! let report = Analyzer::new().analyze_full(&program, Some(&trace), None).report;
//! assert!(report.detected());
//! let snap = trace.snapshot();
//! assert_eq!(snap.counters["analysis.programs"], 1);
//! assert_eq!(snap.counters["findings.oversized-placement"], 1);
//! ```

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Duration;

/// Aggregated timing for one named pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct PassAgg {
    total: Duration,
    calls: u64,
}

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    passes: BTreeMap<String, PassAgg>,
}

/// A thread-safe sink for counter and timing events.
///
/// See the [module docs](self) for the event vocabulary and an example.
#[derive(Debug, Default)]
pub struct TraceCollector {
    inner: Mutex<Inner>,
}

impl TraceCollector {
    /// An empty collector.
    pub fn new() -> Self {
        TraceCollector::default()
    }

    /// Adds `n` to the counter `name` (created at zero on first use).
    pub fn count(&self, name: &str, n: u64) {
        let mut inner = self.inner.lock().expect("trace collector poisoned");
        let c = inner.counters.entry(name.to_owned()).or_insert(0);
        *c = c.saturating_add(n);
    }

    /// Records one timed invocation of the pass `name`.
    pub fn record_pass(&self, name: &str, elapsed: Duration) {
        let mut inner = self.inner.lock().expect("trace collector poisoned");
        let agg = inner.passes.entry(name.to_owned()).or_default();
        agg.total = agg.total.saturating_add(elapsed);
        agg.calls += 1;
    }

    /// Times `f` as one invocation of the pass `name`.
    pub fn time<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        let start = std::time::Instant::now();
        let result = f();
        self.record_pass(name, start.elapsed());
        result
    }

    /// An immutable, deterministically ordered view of everything
    /// collected so far.
    pub fn snapshot(&self) -> TraceReport {
        let inner = self.inner.lock().expect("trace collector poisoned");
        TraceReport {
            counters: inner.counters.clone(),
            passes: inner
                .passes
                .iter()
                .map(|(name, agg)| PassTiming {
                    name: name.clone(),
                    calls: agg.calls,
                    total: agg.total,
                })
                .collect(),
        }
    }
}

/// One pass's aggregate timing in a [`TraceReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassTiming {
    /// Pass name (e.g. `analysis.walk`).
    pub name: String,
    /// Times the pass ran.
    pub calls: u64,
    /// Total wall-clock time across all calls.
    pub total: Duration,
}

/// A point-in-time snapshot of a [`TraceCollector`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceReport {
    /// Named event counters, sorted by name.
    pub counters: BTreeMap<String, u64>,
    /// Per-pass timings, sorted by pass name.
    pub passes: Vec<PassTiming>,
}

impl TraceReport {
    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.passes.is_empty()
    }

    /// Human-oriented lines for `--stats` output, one per entry.
    pub fn lines(&self) -> Vec<String> {
        let mut out = Vec::with_capacity(self.passes.len() + self.counters.len());
        for p in &self.passes {
            out.push(format!(
                "trace: pass {} = {:.3}ms over {} call(s)",
                p.name,
                p.total.as_secs_f64() * 1e3,
                p.calls
            ));
        }
        for (name, value) in &self.counters {
            out.push(format!("trace: counter {name} = {value}"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let t = TraceCollector::new();
        t.count("a", 2);
        t.count("a", 3);
        t.count("b", 1);
        let snap = t.snapshot();
        assert_eq!(snap.counters["a"], 5);
        assert_eq!(snap.counters["b"], 1);
        assert!(!snap.is_empty());
    }

    #[test]
    fn passes_aggregate_calls_and_time() {
        let t = TraceCollector::new();
        let v = t.time("pass", || 41 + 1);
        assert_eq!(v, 42);
        t.record_pass("pass", Duration::from_millis(2));
        let snap = t.snapshot();
        assert_eq!(snap.passes.len(), 1);
        assert_eq!(snap.passes[0].calls, 2);
        assert!(snap.passes[0].total >= Duration::from_millis(2));
    }

    #[test]
    fn snapshot_ordering_is_deterministic() {
        let t = TraceCollector::new();
        t.count("zeta", 1);
        t.count("alpha", 1);
        t.record_pass("walk", Duration::ZERO);
        t.record_pass("index", Duration::ZERO);
        let snap = t.snapshot();
        let names: Vec<&str> = snap.counters.keys().map(String::as_str).collect();
        assert_eq!(names, ["alpha", "zeta"]);
        let passes: Vec<&str> = snap.passes.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(passes, ["index", "walk"]);
    }

    #[test]
    fn collector_is_shareable_across_threads() {
        let t = TraceCollector::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..100 {
                        t.count("hits", 1);
                    }
                });
            }
        });
        assert_eq!(t.snapshot().counters["hits"], 400);
    }

    #[test]
    fn empty_report_renders_no_lines() {
        let snap = TraceCollector::new().snapshot();
        assert!(snap.is_empty());
        assert!(snap.lines().is_empty());
    }
}
