//! Parallel, cache-aware batch analysis.
//!
//! [`BatchEngine`] scans many source texts concurrently on a pool of
//! scoped worker threads (`std::thread::scope` over a shared atomic
//! work-queue cursor — no extra runtime dependencies) and returns one
//! result per input, **in input order**, regardless of how many
//! workers ran or how the queue interleaved.
//!
//! Results are memoized in **one** content-addressed in-memory store of
//! shared [`Arc<CachedAnalysis>`] entries, keyed by the
//! [`source_fingerprint`] of the raw text and used by
//! [`BatchEngine::scan_sources_with_stats`] and
//! [`BatchEngine::delta_scan`]. A warm hit skips the parser as well as
//! the analyzer, which is what keeps a resident `pncheckd` serving
//! repeat requests without re-parsing anything. Findings carry spans
//! taken from the text, so only the identical text may share an entry:
//! two texts that differ only in layout still get one entry each, with
//! their own spans. A builder program is scanned as its
//! [`pretty_program`](crate::pretty_program) text.
//!
//! A hit hands out the `Arc`; no path deep-copies a stored analysis,
//! and the delta tracked index holds the same allocation. With
//! [`BatchEngine::with_persistent_cache`], an *on-disk* tier under the
//! same key extends the store across process restarts. Corrupt or
//! stale disk entries degrade to a normal analysis (and get rewritten),
//! never to an error.
//!
//! ```
//! use pnew_detector::{pretty_program, Analyzer, BatchEngine, Expr, ProgramBuilder, Ty};
//!
//! let mut p = ProgramBuilder::new("demo");
//! p.class("Student", 16, None, false);
//! p.class("GradStudent", 32, Some("Student"), false);
//! let mut f = p.function("main");
//! let stud = f.local("stud", Ty::Class("Student".into()));
//! let st = f.local("st", Ty::Ptr);
//! f.placement_new(st, Expr::addr_of(stud), "GradStudent");
//! f.finish();
//! let sources = vec![pretty_program(&p.build())];
//!
//! let engine = BatchEngine::new(Analyzer::new()).with_jobs(4);
//! let (outcomes, stats) = engine.scan_sources_with_stats(&sources);
//! assert_eq!(outcomes.len(), 1);
//! assert!(outcomes[0].report.as_ref().unwrap().detected());
//! assert_eq!(stats.cache_misses, 1);
//!
//! // Unchanged inputs are served from the cache on the next scan.
//! let (_, stats) = engine.scan_sources_with_stats(&sources);
//! assert_eq!(stats.cache_hits, 1);
//! ```

use std::collections::{HashMap, HashSet};
use std::fs;
use std::ops::AddAssign;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

use crate::analysis::Analyzer;
use crate::cache::{source_fingerprint, CacheLookup, CachedAnalysis, PersistentCache};
use crate::clock::{Clock, SystemClock};
use crate::delta::{parse_manifest, render_manifest, ManifestRow};
use crate::findings::Report;
use crate::parse::{parse_program_recovering, ParseError};
use crate::summary::SummaryStore;
use crate::trace::TraceCollector;

/// Counters describing one scan: a
/// [`BatchEngine::scan_sources_with_stats`] or [`BatchEngine::delta_scan`]
/// run. The counters add up the [`Tally`] of this scan's own files, so
/// scans sharing an engine never count each other's work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchStats {
    /// Programs scanned.
    pub programs: usize,
    /// Total findings across all reports.
    pub findings: usize,
    /// Reports served from the in-memory store.
    pub cache_hits: u64,
    /// Reports that required a fresh analysis.
    pub cache_misses: u64,
    /// Wall-clock time of the scan.
    pub elapsed: Duration,
    /// Worker threads used.
    pub jobs: usize,
    /// Source texts that actually went through the parser during this
    /// scan. A fully warm scan — every input served from the in-memory
    /// store or the disk tier — runs zero parses.
    pub parses: u64,
    /// Files served whole from the on-disk cache (no parse, no
    /// analysis). Always 0 without a persistent cache.
    pub persistent_hits: u64,
    /// Files the on-disk cache could not answer (includes corrupt
    /// entries). Always 0 without a persistent cache.
    pub persistent_misses: u64,
    /// On-disk entries that failed validation and were re-analyzed.
    pub persistent_corrupt: u64,
    /// On-disk entries that could not be written (full disk, directory
    /// removed mid-run). Always 0 without a persistent cache.
    pub persistent_write_errors: u64,
}

impl BatchStats {
    /// Scan throughput in programs per second (0 for an empty scan).
    pub fn programs_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.programs as f64 / secs
        } else {
            0.0
        }
    }

    /// Fraction of programs served from the cache, in `[0, 1]`.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total > 0 {
            self.cache_hits as f64 / total as f64
        } else {
            0.0
        }
    }
}

/// What one file's trip through the cache tiers counted, each event
/// once, by the code that saw it. A scan's [`BatchStats`] add up its
/// files' tallies, and the engine's lifetime [`CacheStats`] add up
/// every file's.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Tally {
    /// Served from the in-memory store.
    pub hits: u64,
    /// Missed the in-memory store and ran the analyzer.
    pub misses: u64,
    /// Went through the parser.
    pub parses: u64,
    /// Served whole from the on-disk cache.
    pub disk_hits: u64,
    /// Probed the on-disk cache and found no usable entry (corrupt
    /// entries included).
    pub disk_misses: u64,
    /// Probed the on-disk cache and found a broken entry.
    pub disk_corrupt: u64,
    /// On-disk entries written.
    pub disk_stores: u64,
    /// On-disk writes that did not land (full disk, directory removed
    /// mid-run). Each one degrades that file to uncached; the scan
    /// still succeeds.
    pub disk_write_errors: u64,
}

impl Tally {
    /// One on-disk probe's tally.
    fn probe(lookup: &CacheLookup) -> Tally {
        match lookup {
            CacheLookup::Hit(_) => Tally { disk_hits: 1, ..Tally::default() },
            CacheLookup::Miss => Tally { disk_misses: 1, ..Tally::default() },
            CacheLookup::Corrupt => Tally { disk_misses: 1, disk_corrupt: 1, ..Tally::default() },
        }
    }

    /// One on-disk write's tally.
    fn write(landed: bool) -> Tally {
        Tally {
            disk_stores: landed.into(),
            disk_write_errors: (!landed).into(),
            ..Tally::default()
        }
    }
}

impl AddAssign for Tally {
    fn add_assign(&mut self, t: Tally) {
        self.hits += t.hits;
        self.misses += t.misses;
        self.parses += t.parses;
        self.disk_hits += t.disk_hits;
        self.disk_misses += t.disk_misses;
        self.disk_corrupt += t.disk_corrupt;
        self.disk_stores += t.disk_stores;
        self.disk_write_errors += t.disk_write_errors;
    }
}

/// Lifetime counters and current sizes of a [`BatchEngine`].
///
/// The counters are copied under one lock, so `counts.hits +
/// counts.misses == lookups` holds in every snapshot — a stats reader
/// racing live requests can never observe a torn pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Every scanned file's [`Tally`] since construction. Manifest and
    /// summary-blob write failures count in `disk_write_errors` too.
    pub counts: Tally,
    /// Store lookups that ended in a hit or an analysis since
    /// construction — always exactly `counts.hits + counts.misses`
    /// within one snapshot.
    pub lookups: u64,
    /// Entries resident in the in-memory store.
    pub source_entries: usize,
    /// Paths in the tracked index.
    pub tracked_files: usize,
    /// Entries in the cross-file summary store.
    pub summary_entries: usize,
    /// Summary-store hits since construction.
    pub summary_hits: u64,
    /// Summary-store misses since construction.
    pub summary_misses: u64,
}

/// One replica's slice of the 128-bit fingerprint space
/// (`--shard K/N`): replica `index` of `count` owns every key
/// congruent to `index` mod `count`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// Zero-based replica index; always `< count`.
    pub index: u32,
    /// Total replicas splitting the fingerprint space.
    pub count: u32,
}

impl ShardSpec {
    /// Whether this replica owns the warm state for `key`.
    pub fn owns(&self, key: u128) -> bool {
        self.count <= 1 || key % u128::from(self.count) == u128::from(self.index)
    }
}

/// What scanning one source text produced.
///
/// Returned by [`BatchEngine::scan_sources_with_stats`], one per input,
/// in input order.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceOutcome {
    /// The analysis report; `None` when the source failed to parse.
    pub report: Option<Report>,
    /// Parse errors, when the source did not parse.
    pub errors: Vec<ParseError>,
    /// The report came straight from the on-disk cache: neither the
    /// parser nor the analyzer ran for this file.
    pub from_disk_cache: bool,
    /// The report came from the in-memory store: neither the parser
    /// nor the analyzer ran for this file.
    pub from_source_cache: bool,
    /// An on-disk entry existed but was corrupt; the file was
    /// re-analyzed from source and the entry rewritten.
    pub cache_corrupt: bool,
}

/// One source text's trip through the tiers, before it is shaped into
/// a [`SourceOutcome`] or a [`TrackedOutcome`].
#[derive(Default)]
struct Analyzed {
    /// `None` when the text did not parse.
    analysis: Option<Arc<CachedAnalysis>>,
    errors: Vec<ParseError>,
    from_disk_cache: bool,
    from_source_cache: bool,
    cache_corrupt: bool,
    /// Functions changed, re-walked and hydrated, as [`DeltaStats`]
    /// counts them.
    functions_changed: usize,
    functions_reanalyzed: usize,
    functions_reused: usize,
    tally: Tally,
}

impl Analyzed {
    /// A tier hit: every function reused, none walked.
    fn served(analysis: Arc<CachedAnalysis>, from_disk_cache: bool, tally: Tally) -> Self {
        Analyzed {
            functions_reused: analysis.summaries.len(),
            analysis: Some(analysis),
            from_disk_cache,
            from_source_cache: !from_disk_cache,
            tally,
            ..Analyzed::default()
        }
    }
}

/// What the engine remembers about one scanned path between delta
/// rescans: enough to decide "unchanged?" from a bare `stat` and to
/// serve the cached result without touching the file.
#[derive(Debug, Clone)]
struct TrackedFile {
    len: u64,
    mtime_ns: u128,
    key: u128,
    /// `None` for manifest-seeded entries whose result still lives only
    /// on disk — fetched lazily (by `key`) the first time the file is
    /// served unchanged.
    analysis: Option<Arc<CachedAnalysis>>,
    /// Parse errors, when the tracked text did not parse.
    errors: Vec<ParseError>,
}

/// What scanning one tracked path produced. Returned by
/// [`BatchEngine::delta_scan`], one per input path, in input order.
///
/// The analysis is behind an [`Arc`]: a delta rescan serves thousands
/// of unchanged files per millisecond precisely because "serving" is a
/// reference-count bump, not a report clone.
#[derive(Debug, Clone)]
pub struct TrackedOutcome {
    /// The path exactly as given.
    pub path: String,
    /// The analysis result; `None` when the file was unreadable or did
    /// not parse.
    pub analysis: Option<Arc<CachedAnalysis>>,
    /// Parse errors, when the source did not parse.
    pub errors: Vec<ParseError>,
    /// The I/O error message, when the file could not be read.
    pub read_error: Option<String>,
    /// The file went through the parser and the analyzer this scan —
    /// false when served from the tracked index as unchanged, or from
    /// the in-memory store or the on-disk cache after a re-read.
    pub reanalyzed: bool,
    /// An on-disk entry existed but was corrupt; the file was
    /// re-analyzed from source and the entry rewritten.
    pub cache_corrupt: bool,
    /// Functions of this file that went through interval analysis this
    /// scan: the invalidation cone for a function-granular partial
    /// re-analysis, every function for a whole-file analysis, zero for
    /// any cache-tier hit.
    pub functions_reanalyzed: usize,
    /// Functions whose summaries (and findings) were hydrated from the
    /// prior `.pnc` record instead of being re-walked. Non-zero only on
    /// the function-granular partial path.
    pub functions_reused: usize,
}

impl TrackedOutcome {
    /// An outcome served from the tracked index without a read.
    fn unchanged(
        path: &str,
        analysis: Option<Arc<CachedAnalysis>>,
        errors: Vec<ParseError>,
    ) -> Self {
        TrackedOutcome {
            path: path.to_owned(),
            analysis,
            errors,
            read_error: None,
            reanalyzed: false,
            cache_corrupt: false,
            functions_reanalyzed: 0,
            functions_reused: 0,
        }
    }
}

/// Invalidation accounting for one [`BatchEngine::delta_scan`] run.
///
/// The function counts come from the analysis that actually ran on each
/// re-analyzed file, with no second cone pass: a function-granular
/// partial analysis reports its own changed set and cone; a whole-file
/// analysis counts every function as changed and in the cone; a tier
/// hit (content some cache tier already knew) counts zero for both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DeltaStats {
    /// Paths tracked after the rescan.
    pub tracked_files: usize,
    /// Previously tracked paths that were re-analyzed (content or stat
    /// drift, a caller hint, or an unusable cache entry).
    pub changed_files: usize,
    /// Paths not tracked before this rescan.
    pub added_files: usize,
    /// Previously tracked paths absent from this rescan's path list.
    pub removed_files: usize,
    /// Paths served from the tracked index (or the disk tier) with zero
    /// parses and zero analysis.
    pub unchanged_files: usize,
    /// Tracked-index rows seeded from the persistent cache's manifest
    /// (nonzero only on an engine's first delta scan).
    pub seeded_files: usize,
    /// Functions whose own content changed, summed over re-analyzed
    /// files: functions whose fingerprint moved, new functions, and
    /// callers of deleted functions.
    pub changed_functions: usize,
    /// Functions invalidated — the changed set plus its transitive
    /// callers — summed over re-analyzed files. Always equal to
    /// `functions_reanalyzed`.
    pub cone_functions: usize,
    /// Functions known across the whole tracked index after the rescan
    /// — the corpus-wide denominator for `cone_functions`. Files whose
    /// analysis has not been hydrated from disk yet contribute zero.
    pub tracked_functions: usize,
    /// Functions actually re-walked this rescan, summed over
    /// re-analyzed files. With function granularity on, this equals the
    /// invalidation cone of the edit; with it off (or on the first
    /// sight of a file) every function of a changed file counts.
    pub functions_reanalyzed: usize,
    /// Functions hydrated from prior `.pnc` records instead of being
    /// re-walked, summed over re-analyzed files.
    pub functions_reused: usize,
    /// Tracked entries classified "unchanged" from the bare `stat`
    /// (length + mtime matched the index exactly) and served without
    /// touching the source — from the in-memory analysis when resident,
    /// or hydrated off the disk tier by manifest key — so the source is
    /// never re-read and its fingerprint never recomputed. Always 0 in
    /// hinted mode, which skips the stat sweep wholesale.
    pub stat_fastpath_hits: usize,
    /// The manifest could not be written back to the persistent cache,
    /// so the next process rescans cold.
    pub manifest_save_failed: bool,
}

/// A parallel batch scanner with a content-addressed analysis store.
///
/// See the [module docs](self) for the concurrency and caching model.
#[derive(Debug)]
pub struct BatchEngine {
    analyzer: Analyzer,
    jobs: usize,
    /// The in-memory tier: every resident analysis, shared by reference
    /// with the tracked index.
    analyses: Mutex<HashMap<u128, Arc<CachedAnalysis>>>,
    /// Lifetime counts and lookups, updated and read whole under one
    /// lock; [`Self::cache_stats`] fills in the sizes.
    lifetime: Mutex<CacheStats>,
    trace: Option<Arc<TraceCollector>>,
    persistent: Option<PersistentCache>,
    shard: Option<ShardSpec>,
    tracked: Mutex<HashMap<String, TrackedFile>>,
    /// Cross-file summary exchange: entry-context summaries keyed by
    /// closure fingerprint, shared by every file analyzed through this
    /// engine (and persisted behind the cache backend).
    summary_store: Arc<SummaryStore>,
    /// Whether delta rescans may re-analyze only a changed file's
    /// invalidation cone (and share summaries across files). Off, every
    /// changed file re-analyzes whole — the pre-function-granular
    /// behavior, kept as the benchmark baseline.
    function_granularity: bool,
    /// Serializes whole delta operations (seed + rescan + manifest and
    /// store persistence) against each other, so no request ever
    /// snapshots a half-updated tracked index.
    delta_gate: Mutex<()>,
    /// Time source for scan/rescan elapsed measurements. The real
    /// [`SystemClock`] by default; the DST harness threads a
    /// [`crate::clock::SimClock`] through so stat sweeps never read
    /// real time.
    clock: Arc<dyn Clock>,
}

impl Default for BatchEngine {
    fn default() -> Self {
        BatchEngine::new(Analyzer::new())
    }
}

impl BatchEngine {
    /// An engine around `analyzer`, with one worker per available CPU.
    pub fn new(analyzer: Analyzer) -> Self {
        let jobs = thread::available_parallelism().map_or(1, |n| n.get());
        BatchEngine {
            analyzer,
            jobs,
            analyses: Mutex::new(HashMap::new()),
            lifetime: Mutex::new(CacheStats::default()),
            trace: None,
            persistent: None,
            shard: None,
            tracked: Mutex::new(HashMap::new()),
            summary_store: Arc::new(SummaryStore::new()),
            function_granularity: true,
            delta_gate: Mutex::new(()),
            clock: Arc::new(SystemClock::default()),
        }
    }

    /// Replaces the engine's time source (scan timing). The DST harness
    /// installs a shared [`crate::clock::SimClock`] here.
    #[must_use]
    pub fn with_clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = clock;
        self
    }

    /// Sets the worker count (clamped to at least 1).
    #[must_use]
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// Feeds counter and timing events (`batch.*`, `analysis.*`,
    /// `findings.*`) into `trace` during every scan. All workers share
    /// the one collector.
    #[must_use]
    pub fn with_trace(mut self, trace: Arc<TraceCollector>) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Adds the on-disk tier: source-text and delta scans probe (and
    /// populate) `cache` before parsing anything. The cache must have
    /// been opened against this engine's analyzer configuration.
    #[must_use]
    pub fn with_persistent_cache(mut self, cache: PersistentCache) -> Self {
        self.persistent = Some(cache);
        self
    }

    /// Restricts the warm tiers (in-memory store, on-disk cache,
    /// summary store) to the keys this replica owns: an unowned source
    /// still analyzes correctly, but takes the full uncached path and
    /// leaves no warm state behind, so N sharded replicas split the
    /// fingerprint space instead of each holding all of it. The
    /// tracked/delta index is deliberately unsharded — change
    /// detection is stat-based and cheap, and delta correctness must
    /// not depend on shard placement.
    #[must_use]
    pub fn with_shard(mut self, shard: ShardSpec) -> Self {
        self.shard = Some(shard);
        self
    }

    /// Turns function-granular re-analysis (and cross-file summary
    /// sharing) on or off. On by default; the benchmark baseline turns
    /// it off to measure whole-file delta behavior.
    #[must_use]
    pub fn with_function_granularity(mut self, on: bool) -> Self {
        self.function_granularity = on;
        self
    }

    /// The cross-file summary store shared by this engine's scans.
    pub fn summary_store(&self) -> &SummaryStore {
        &self.summary_store
    }

    /// The on-disk cache tier, if one is attached.
    pub fn persistent_cache(&self) -> Option<&PersistentCache> {
        self.persistent.as_ref()
    }

    /// The configured worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Scans raw source texts through every cache tier, returning one
    /// [`SourceOutcome`] per input, in input order.
    ///
    /// Per file: probe the in-memory store under the source key (hit →
    /// done, no parse); probe the on-disk cache (hit → done, no parse);
    /// parse and analyze; write the entry back to the store and to
    /// disk. Parse failures are reported in the outcome and never
    /// cached.
    pub fn scan_sources_with_stats<S: AsRef<str> + Sync>(
        &self,
        sources: &[S],
    ) -> (Vec<SourceOutcome>, BatchStats) {
        self.scan_sources(sources, self.jobs)
    }

    /// [`scan_sources_with_stats`](Self::scan_sources_with_stats) on
    /// `jobs` workers for this scan only, so a front end honors a
    /// per-request worker count without rebuilding the engine (and
    /// losing its warm caches). See [`crate::cliopts::scan`].
    pub(crate) fn scan_sources<S: AsRef<str> + Sync>(
        &self,
        sources: &[S],
        jobs: usize,
    ) -> (Vec<SourceOutcome>, BatchStats) {
        let start_ns = self.clock.now_ns();
        let (outcomes, tally) = self.run_queue(sources, jobs, |source| {
            let source = source.as_ref();
            let out = self.analyze_source(source, source_fingerprint(source), None);
            let outcome = SourceOutcome {
                report: out.analysis.map(|a| a.report.clone()),
                errors: out.errors,
                from_disk_cache: out.from_disk_cache,
                from_source_cache: out.from_source_cache,
                cache_corrupt: out.cache_corrupt,
            };
            (outcome, out.tally)
        });
        // `programs` counts inputs that produced a report: parse
        // failures are files, not programs.
        let programs = outcomes.iter().filter(|o| o.report.is_some()).count();
        let findings =
            outcomes.iter().filter_map(|o| o.report.as_ref()).map(|r| r.findings.len()).sum();
        let jobs = workers(jobs, sources.len());
        (outcomes, self.scan_stats(start_ns, tally, programs, findings, jobs))
    }

    /// Scans files **by path**, incrementally, against the engine's
    /// tracked index: files whose `stat` (length + mtime) matches their
    /// tracked state are served from the index — zero reads, zero
    /// parses, zero analysis — and only drifted, hinted, added, or
    /// cache-degraded files go back through the pipeline, each
    /// re-walking only its invalidation cone. Outcomes come back in
    /// input order and are **byte-identical** to a cold full scan of
    /// the same tree; unreadable files get a `read_error` outcome
    /// instead of failing the scan. On a cold engine every path is
    /// added, so the first call is the full scan that builds the index.
    ///
    /// The whole operation runs under the engine's delta gate: seed the
    /// tracked index and the summary store from the persistent cache if
    /// this is the engine's first delta, rescan, then persist the
    /// manifest and the store for the next process. The gate is what
    /// keeps one request on a shared engine (the daemon) from
    /// snapshotting the manifest while another is half-way through
    /// updating the tracked index.
    ///
    /// `changed_hint` selects the change-detection mode. `None` — the
    /// watch/poll mode — stats every tracked file and re-analyzes
    /// whatever drifted. `Some(list)` — the editor-integration mode —
    /// trusts the client completely: hinted paths are re-analyzed,
    /// every other tracked path is served from the index without even a
    /// `stat`, which is what makes a single-file edit in a 10k-file
    /// tree a sub-millisecond rescan. The contract is that the client
    /// owns change detection: a file it changed but did not name comes
    /// back stale until the next unhinted rescan. Tracked paths absent
    /// from `paths` are dropped from the index in both modes. `paths`
    /// is expected to be duplicate-free (what
    /// [`expand_inputs`](crate::cliopts::expand_inputs) produces);
    /// duplicates cost extra re-analysis and can delay the removal
    /// sweep by one rescan. `jobs` sizes the re-analysis queue for this
    /// call only.
    pub fn delta_scan(
        &self,
        paths: &[String],
        changed_hint: Option<&[String]>,
        jobs: usize,
    ) -> (Vec<TrackedOutcome>, BatchStats, DeltaStats) {
        let _gate = self.delta_gate.lock().expect("delta gate poisoned");
        let seeded = if self.tracked_files() == 0 { self.seed_tracked_from_manifest() } else { 0 };
        self.load_summary_store();
        let (outcomes, stats, mut delta) = self.rescan(paths, changed_hint, jobs);
        delta.seeded_files = seeded;
        delta.manifest_save_failed = !self.save_tracked_manifest();
        self.save_summary_store();
        (outcomes, stats, delta)
    }

    /// The body of [`delta_scan`](Self::delta_scan), under its gate.
    fn rescan(
        &self,
        paths: &[String],
        changed_hint: Option<&[String]>,
        jobs: usize,
    ) -> (Vec<TrackedOutcome>, BatchStats, DeltaStats) {
        let start_ns = self.clock.now_ns();
        // The scan's counts: the stat sweep's pulls plus both queues.
        let mut tally = Tally::default();
        let hint: Option<HashSet<&str>> =
            changed_hint.map(|c| c.iter().map(String::as_str).collect());
        let mut delta = DeltaStats::default();
        let mut slots: Vec<Option<TrackedOutcome>> = (0..paths.len()).map(|_| None).collect();
        // (input index, path, prior analysis — the "old" side of the
        // function-granular partial re-analysis).
        let mut changed: Vec<(usize, &String, Option<Arc<CachedAnalysis>>)> = Vec::new();
        // Manifest-seeded unchanged entries whose analysis still lives
        // only on disk: hydrated in parallel *after* the lock drops —
        // a disk read per file has no business inside the stat sweep.
        let mut hydrate: Vec<(usize, &String, u128)> = Vec::new();

        {
            let mut tracked = self.tracked.lock().expect("tracked index poisoned");
            for (i, path) in paths.iter().enumerate() {
                let Some(entry) = tracked.get_mut(path.as_str()) else {
                    delta.added_files += 1;
                    changed.push((i, path, None));
                    continue;
                };
                // With a hint the client owns change detection and the
                // stat sweep is skipped wholesale; without one, stat
                // drift errs toward re-analysis (an unreadable stat
                // re-runs the file so the read error surfaces properly).
                let dirty = match &hint {
                    Some(h) => h.contains(path.as_str()),
                    None => match fs::metadata(path) {
                        Ok(m) => m.len() != entry.len || Self::mtime_ns(&m) != entry.mtime_ns,
                        Err(_) => true,
                    },
                };
                if dirty {
                    // The prior analysis feeds the partial
                    // re-analysis. A manifest-seeded entry has none in
                    // memory, but the old verdict is still on disk
                    // under the old key — pulling it keeps cones
                    // precise across restarts.
                    let old = match &entry.analysis {
                        Some(a) => Some(Arc::clone(a)),
                        None if entry.errors.is_empty() => {
                            let (old, pulled) = self.hydrate(entry.key);
                            self.record(pulled);
                            tally += pulled;
                            old
                        }
                        None => None,
                    };
                    delta.changed_files += 1;
                    changed.push((i, path, old));
                    continue;
                }
                if entry.analysis.is_none() && entry.errors.is_empty() {
                    // Manifest-seeded: the result lives on disk. Defer
                    // the pull to the parallel hydration pass below.
                    hydrate.push((i, path, entry.key));
                    continue;
                }
                delta.unchanged_files += 1;
                if hint.is_none() {
                    // Served with exactly one stat: no read, no hash,
                    // no fingerprint recompute.
                    delta.stat_fastpath_hits += 1;
                }
                slots[i] = Some(TrackedOutcome::unchanged(
                    path,
                    entry.analysis.clone(),
                    entry.errors.clone(),
                ));
            }
            // Every requested path that was already tracked has been
            // classified above; if that accounts for the whole index,
            // nothing was removed and the retain sweep (a hash of every
            // path) is skipped — the common editor-loop case.
            let seen_tracked = delta.changed_files + delta.unchanged_files + hydrate.len();
            if tracked.len() != seen_tracked {
                let requested: HashSet<&str> = paths.iter().map(String::as_str).collect();
                let before = tracked.len();
                tracked.retain(|p, _| requested.contains(p.as_str()));
                delta.removed_files = before - tracked.len();
            }
        }

        if !hydrate.is_empty() {
            // Pull manifest-seeded results off disk in parallel, with
            // the tracked lock released; a missing or corrupt entry
            // degrades to a re-analysis (and heals the cache).
            let (hydrated, pulled) =
                self.run_queue(&hydrate, jobs, |&(_, _, key)| self.hydrate(key));
            tally += pulled;
            let mut tracked = self.tracked.lock().expect("tracked index poisoned");
            for (&(i, path, _), analysis) in hydrate.iter().zip(hydrated) {
                let Some(analysis) = analysis else {
                    delta.changed_files += 1;
                    changed.push((i, path, None));
                    continue;
                };
                delta.unchanged_files += 1;
                if hint.is_none() {
                    // The stat matched the manifest, so the source was
                    // never re-read or re-fingerprinted — the verdict
                    // came off the disk tier by manifest key alone.
                    delta.stat_fastpath_hits += 1;
                }
                if let Some(entry) = tracked.get_mut(path.as_str()) {
                    entry.analysis = Some(Arc::clone(&analysis));
                }
                slots[i] = Some(TrackedOutcome::unchanged(path, Some(analysis), Vec::new()));
            }
        }

        let (rescanned, read) = self
            .run_queue(&changed, jobs, |(_, path, old)| self.read_and_track(path, old.as_deref()));
        tally += read;
        for (&(i, _, _), (outcome, functions_changed)) in changed.iter().zip(rescanned) {
            delta.changed_functions += functions_changed;
            delta.cone_functions += outcome.functions_reanalyzed;
            delta.functions_reanalyzed += outcome.functions_reanalyzed;
            delta.functions_reused += outcome.functions_reused;
            slots[i] = Some(outcome);
        }
        {
            let tracked = self.tracked.lock().expect("tracked index poisoned");
            delta.tracked_files = tracked.len();
            delta.tracked_functions = tracked
                .values()
                .filter_map(|t| t.analysis.as_ref())
                .map(|a| a.summaries.len())
                .sum();
        }

        let outcomes: Vec<TrackedOutcome> =
            slots.into_iter().map(|s| s.expect("every path is classified")).collect();
        let programs = outcomes.iter().filter(|o| o.analysis.is_some()).count();
        let findings = outcomes
            .iter()
            .filter_map(|o| o.analysis.as_ref())
            .map(|a| a.report.findings.len())
            .sum();
        let stats =
            self.scan_stats(start_ns, tally, programs, findings, workers(jobs, changed.len()));
        if let Some(t) = &self.trace {
            t.count("batch.delta-changed", (delta.changed_files + delta.added_files) as u64);
            t.count("batch.delta-unchanged", delta.unchanged_files as u64);
            t.count("batch.delta-cone-functions", delta.cone_functions as u64);
            t.count("batch.delta-fn-reanalyzed", delta.functions_reanalyzed as u64);
            t.count("batch.delta-fn-reused", delta.functions_reused as u64);
            t.record_pass("batch.rescan-delta", stats.elapsed);
        }
        (outcomes, stats, delta)
    }

    /// Preloads the cross-file summary store from the attached
    /// persistent cache (no-op when the store already has entries, when
    /// no cache is attached, or with function granularity off).
    fn load_summary_store(&self) {
        if let (Some(pc), true) = (&self.persistent, self.function_granularity) {
            if self.summary_store.is_empty() {
                self.summary_store.preload(pc.load_summary_entries());
            }
        }
    }

    /// Persists the summary store behind the cache backend when it has
    /// unsaved entries. Best-effort, like every cache write.
    fn save_summary_store(&self) {
        if let Some(pc) = &self.persistent {
            if self.summary_store.is_dirty() {
                if pc.store_summary_entries(&self.summary_store.snapshot()) {
                    self.summary_store.mark_clean();
                } else {
                    self.record(Tally::write(false));
                }
            }
        }
    }

    /// Primes the tracked index from the manifest of the attached
    /// persistent cache (the `manifest.pnm` file of a `dir` backend,
    /// or the manifest record of an `indexed` store), so the very
    /// first delta scan of a new process can serve unchanged files
    /// from disk instead of re-parsing the world. Already-tracked paths
    /// are left alone. Returns the number of rows seeded (0 without a
    /// persistent cache or manifest).
    fn seed_tracked_from_manifest(&self) -> usize {
        let Some(pc) = &self.persistent else {
            return 0;
        };
        let rows = pc.load_manifest().map(|text| parse_manifest(&text)).unwrap_or_default();
        let mut tracked = self.tracked.lock().expect("tracked index poisoned");
        let mut seeded = 0;
        for row in rows {
            let ManifestRow { path, len, mtime_ns, key } = row;
            tracked.entry(path).or_insert_with(|| {
                seeded += 1;
                TrackedFile { len, mtime_ns, key, analysis: None, errors: Vec::new() }
            });
        }
        seeded
    }

    /// Writes the tracked index to the attached persistent cache's
    /// manifest for the next process to seed from. Best-effort, like
    /// every cache write: returns false only when a write was attempted
    /// and did not land, which counts as a lifetime write error.
    fn save_tracked_manifest(&self) -> bool {
        let Some(pc) = &self.persistent else {
            return true;
        };
        let mut rows: Vec<ManifestRow> = {
            let tracked = self.tracked.lock().expect("tracked index poisoned");
            tracked
                .iter()
                .map(|(path, f)| ManifestRow {
                    path: path.clone(),
                    len: f.len,
                    mtime_ns: f.mtime_ns,
                    key: f.key,
                })
                .collect()
        };
        let landed = pc.store_manifest(&render_manifest(&mut rows));
        if !landed {
            self.record(Tally::write(false));
        }
        landed
    }

    /// Paths currently in the tracked index.
    pub fn tracked_files(&self) -> usize {
        self.tracked.lock().expect("tracked index poisoned").len()
    }

    /// Reads, analyzes, and (re-)registers one path in the tracked
    /// index, with the file's prior analysis (if any) available for a
    /// function-granular partial re-analysis. Returns the outcome, the
    /// analysis's changed-function count and the file's tally. Stat
    /// runs *before* the read: if the file changes between the two, the
    /// recorded mtime is older than the analyzed content, so the next
    /// rescan errs toward re-analysis, never staleness.
    fn read_and_track(
        &self,
        path: &str,
        old: Option<&CachedAnalysis>,
    ) -> ((TrackedOutcome, usize), Tally) {
        let meta = fs::metadata(path);
        let text = match fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                self.tracked.lock().expect("tracked index poisoned").remove(path);
                let outcome = TrackedOutcome {
                    read_error: Some(e.to_string()),
                    ..TrackedOutcome::unchanged(path, None, Vec::new())
                };
                return ((outcome, 0), Tally::default());
            }
        };
        let (len, mtime_ns) =
            meta.map_or((text.len() as u64, 0), |m| (m.len(), Self::mtime_ns(&m)));
        let key = source_fingerprint(&text);
        let out = self.analyze_source(&text, key, old);
        self.tracked.lock().expect("tracked index poisoned").insert(
            path.to_owned(),
            TrackedFile {
                len,
                mtime_ns,
                key,
                analysis: out.analysis.clone(),
                errors: out.errors.clone(),
            },
        );
        let outcome = TrackedOutcome {
            path: path.to_owned(),
            analysis: out.analysis,
            errors: out.errors,
            read_error: None,
            reanalyzed: !(out.from_disk_cache || out.from_source_cache),
            cache_corrupt: out.cache_corrupt,
            functions_reanalyzed: out.functions_reanalyzed,
            functions_reused: out.functions_reused,
        };
        ((outcome, out.functions_changed), out.tally)
    }

    /// A manifest-seeded file's analysis (current or prior), pulled off
    /// the disk tier by source key, and the probe's tally. An owned key
    /// also becomes resident in the store, so the store and the tracked
    /// index share the one allocation.
    fn hydrate(&self, key: u128) -> (Option<Arc<CachedAnalysis>>, Tally) {
        let Some(pc) = &self.persistent else {
            return (None, Tally::default());
        };
        let lookup = pc.get(key);
        let tally = Tally::probe(&lookup);
        let CacheLookup::Hit(entry) = lookup else {
            return (None, tally);
        };
        let entry = Arc::new(entry);
        if self.owns(key) {
            self.insert(key, Arc::clone(&entry));
        }
        (Some(entry), tally)
    }

    /// Modification time as nanoseconds since the Unix epoch (0 when
    /// the platform reports none — length alone then decides drift).
    fn mtime_ns(meta: &fs::Metadata) -> u128 {
        meta.modified()
            .ok()
            .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
            .map_or(0, |d| d.as_nanos())
    }

    /// Drains `items` through the worker pool, preserving input order.
    /// Each item's tally joins the engine's lifetime counters as the
    /// item finishes; their sum comes back with the results.
    fn run_queue<I: Sync, R: Send>(
        &self,
        items: &[I],
        jobs: usize,
        work: impl Fn(&I) -> (R, Tally) + Sync,
    ) -> (Vec<R>, Tally) {
        let start_ns = self.clock.now_ns();
        let cursor = AtomicUsize::new(0);
        let results: Mutex<Vec<Option<(R, Tally)>>> =
            Mutex::new((0..items.len()).map(|_| None).collect());
        thread::scope(|scope| {
            for _ in 0..workers(jobs, items.len()) {
                scope.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(item) = items.get(i) else {
                        break;
                    };
                    let (result, tally) = work(item);
                    self.record(tally);
                    results.lock().expect("batch results poisoned")[i] = Some((result, tally));
                });
            }
        });
        let mut sum = Tally::default();
        let results: Vec<R> = results
            .into_inner()
            .expect("batch results poisoned")
            .into_iter()
            .map(|slot| {
                let (result, tally) =
                    slot.expect("every queue slot is filled before the scope ends");
                sum += tally;
                result
            })
            .collect();

        if let Some(t) = &self.trace {
            t.count("batch.programs", items.len() as u64);
            t.record_pass("batch.scan", self.since(start_ns));
        }
        (results, sum)
    }

    /// The stats of a scan that began at `start_ns` and counted `tally`.
    fn scan_stats(
        &self,
        start_ns: u64,
        tally: Tally,
        programs: usize,
        findings: usize,
        jobs: usize,
    ) -> BatchStats {
        BatchStats {
            programs,
            findings,
            cache_hits: tally.hits,
            cache_misses: tally.misses,
            elapsed: self.since(start_ns),
            jobs,
            parses: tally.parses,
            persistent_hits: tally.disk_hits,
            persistent_misses: tally.disk_misses,
            persistent_corrupt: tally.disk_corrupt,
            persistent_write_errors: tally.disk_write_errors,
        }
    }

    fn since(&self, start_ns: u64) -> Duration {
        Duration::from_nanos(self.clock.now_ns().saturating_sub(start_ns))
    }

    /// Adds `tally` to the lifetime counters, atomically with respect to
    /// snapshots.
    fn record(&self, tally: Tally) {
        let mut lifetime = self.lifetime.lock().expect("engine counters poisoned");
        lifetime.counts += tally;
        lifetime.lookups += tally.hits + tally.misses;
    }

    /// Whether this engine's shard (if any) owns `key`'s warm state.
    fn owns(&self, key: u128) -> bool {
        self.shard.is_none_or(|s| s.owns(key))
    }

    /// The resident entry under `key`, counted in `tally` as a hit when
    /// present. Only the `Arc` is cloned under the lock.
    fn lookup(&self, key: u128, tally: &mut Tally) -> Option<Arc<CachedAnalysis>> {
        let hit = self.analyses.lock().expect("analysis store poisoned").get(&key).cloned()?;
        tally.hits += 1;
        if let Some(t) = &self.trace {
            t.count("batch.source-hit", 1);
        }
        Some(hit)
    }

    fn insert(&self, key: u128, entry: Arc<CachedAnalysis>) {
        self.analyses.lock().expect("analysis store poisoned").insert(key, entry);
    }

    /// Analyzes one source text (whose [`source_fingerprint`] is `key`)
    /// through every tier: the in-memory store first (fastest, and the
    /// one a resident daemon stays warm on), then the on-disk tier,
    /// then parse and analyze. With `old`, the file's prior analysis,
    /// a miss tries a function-granular partial re-analysis before a
    /// whole-file one.
    fn analyze_source(&self, source: &str, key: u128, old: Option<&CachedAnalysis>) -> Analyzed {
        // An unowned key belongs to another replica: it is analyzed
        // correctly but through the full uncached path, reading and
        // writing no warm tier (the summary store included), so sharded
        // replicas split warm state instead of each accumulating all
        // of it.
        let owned = self.owns(key);
        let mut tally = Tally::default();
        if owned {
            if let Some(hit) = self.lookup(key, &mut tally) {
                return Analyzed::served(hit, false, tally);
            }
            if let Some(pc) = &self.persistent {
                let lookup = pc.get(key);
                tally += Tally::probe(&lookup);
                let event = match lookup {
                    CacheLookup::Hit(entry) => {
                        if let Some(t) = &self.trace {
                            t.count("batch.persistent-hit", 1);
                        }
                        let entry = Arc::new(entry);
                        self.insert(key, Arc::clone(&entry));
                        return Analyzed::served(entry, true, tally);
                    }
                    CacheLookup::Corrupt => "batch.persistent-corrupt",
                    CacheLookup::Miss => "batch.persistent-miss",
                };
                if let Some(t) = &self.trace {
                    t.count(event, 1);
                }
            }
        } else if let Some(t) = &self.trace {
            t.count("batch.shard-unowned", 1);
        }
        let cache_corrupt = tally.disk_corrupt > 0;
        tally.parses += 1;
        let program = match parse_program_recovering(source) {
            Ok(program) => program,
            Err(errors) => return Analyzed { errors, cache_corrupt, tally, ..Analyzed::default() },
        };
        // A concurrent request for the same text may have finished its
        // analysis while this one parsed.
        if let Some(hit) = owned.then(|| self.lookup(key, &mut tally)).flatten() {
            return Analyzed::served(hit, false, tally);
        }
        // The lock is dropped during analysis: concurrent misses on the
        // same key may both analyze (identical, deterministic results),
        // but workers never serialize behind a slow analysis.
        tally.misses += 1;
        if let Some(t) = &self.trace {
            t.count("batch.cache-miss", 1);
        }
        let store = (owned && self.function_granularity).then_some(&*self.summary_store);
        // The cone-only partial path is byte-identical to a whole-file
        // analysis (asserted in debug builds), so it feeds the same
        // tiers.
        let partial = old
            .filter(|_| store.is_some())
            .and_then(|o| self.analyzer.analyze_partial(&program, o, store));
        let mut out = Analyzed { cache_corrupt, ..Analyzed::default() };
        let entry = match partial {
            Some(p) => {
                if let Some(t) = &self.trace {
                    t.count("batch.partial-analysis", 1);
                }
                out.functions_changed = p.functions_changed as usize;
                out.functions_reanalyzed = p.functions_reanalyzed as usize;
                out.functions_reused = p.functions_reused as usize;
                p.analysis
            }
            None => {
                let entry = self.analyzer.analyze_full(&program, self.trace.as_deref(), store);
                out.functions_changed = entry.summaries.len();
                out.functions_reanalyzed = entry.summaries.len();
                entry
            }
        };
        let entry = Arc::new(entry);
        if owned {
            self.insert(key, Arc::clone(&entry));
            if let Some(pc) = &self.persistent {
                tally += Tally::write(pc.put(key, &entry));
            }
        }
        out.analysis = Some(entry);
        out.tally = tally;
        out
    }

    /// Lifetime counters and the current store sizes. The counters come
    /// from one consistent snapshot, so `counts.hits + counts.misses ==
    /// lookups` holds even while requests race this read.
    pub fn cache_stats(&self) -> CacheStats {
        let counters = *self.lifetime.lock().expect("engine counters poisoned");
        let source_entries = self.analyses.lock().expect("analysis store poisoned").len();
        let store = &self.summary_store;
        CacheStats {
            source_entries,
            tracked_files: self.tracked_files(),
            summary_entries: store.len(),
            summary_hits: store.hits(),
            summary_misses: store.misses(),
            ..counters
        }
    }

    /// Drops every entry of the in-memory store (counters are kept;
    /// the on-disk tier and the tracked index are untouched).
    pub fn clear_cache(&self) {
        self.analyses.lock().expect("analysis store poisoned").clear();
    }
}

/// Workers a queue of `items` runs on: `jobs`, at least one, at most
/// one per item.
fn workers(jobs: usize, items: usize) -> usize {
    jobs.max(1).min(items.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::cache::fingerprint;
    use crate::ir::{Expr, Program, Ty};
    use crate::pretty::pretty;

    fn vulnerable(name: &str) -> Program {
        let mut p = ProgramBuilder::new(name);
        p.class("Student", 16, None, false);
        p.class("GradStudent", 32, Some("Student"), false);
        let mut f = p.function("main");
        let stud = f.local("stud", Ty::Class("Student".into()));
        let st = f.local("st", Ty::Ptr);
        f.placement_new(st, Expr::addr_of(stud), "GradStudent");
        f.finish();
        p.build()
    }

    fn safe(name: &str) -> Program {
        let mut p = ProgramBuilder::new(name);
        p.class("Student", 16, None, false);
        let mut f = p.function("main");
        let stud = f.local("stud", Ty::Class("Student".into()));
        let st = f.local("st", Ty::Ptr);
        f.placement_new(st, Expr::addr_of(stud), "Student");
        f.finish();
        p.build()
    }

    /// The pretty texts of `n` builder programs, alternately vulnerable
    /// and safe.
    fn mixed(n: usize) -> Vec<String> {
        (0..n)
            .map(|i| {
                pretty(&if i % 2 == 0 {
                    vulnerable(&format!("vuln-{i}"))
                } else {
                    safe(&format!("safe-{i}"))
                })
            })
            .collect()
    }

    fn reports(outcomes: Vec<SourceOutcome>) -> Vec<Report> {
        outcomes.into_iter().map(|o| o.report.expect("every text parses")).collect()
    }

    #[test]
    fn reports_come_back_in_input_order() {
        let sources = mixed(37);
        let engine = BatchEngine::new(Analyzer::new()).with_jobs(8);
        let reports = reports(engine.scan_sources_with_stats(&sources).0);
        assert_eq!(reports.len(), sources.len());
        for (i, report) in reports.iter().enumerate() {
            assert!(report.program.ends_with(&format!("-{i}")), "{}", report.program);
        }
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let sources = mixed(24);
        let scan = |jobs| {
            let engine = BatchEngine::new(Analyzer::new()).with_jobs(jobs);
            reports(engine.scan_sources_with_stats(&sources).0)
        };
        assert_eq!(scan(1), scan(8));
    }

    #[test]
    fn second_scan_is_all_hits() {
        let sources = mixed(10);
        let engine = BatchEngine::new(Analyzer::new()).with_jobs(4);
        let (_, first) = engine.scan_sources_with_stats(&sources);
        assert_eq!(first.cache_misses, 10);
        assert_eq!(first.cache_hits, 0);
        let (outcomes, second) = engine.scan_sources_with_stats(&sources);
        assert_eq!(second.cache_hits, 10);
        assert_eq!(second.cache_misses, 0);
        assert!((second.cache_hit_rate() - 1.0).abs() < f64::EPSILON);
        assert_eq!(outcomes, engine.scan_sources_with_stats(&sources).0);
    }

    #[test]
    fn equal_programs_share_a_cache_entry() {
        // Two structurally equal programs built independently (their
        // internal HashMaps have different iteration orders) print the
        // same text, so they share one entry.
        let (a, b) = (vulnerable("same"), vulnerable("same"));
        assert_eq!(fingerprint(&a), fingerprint(&b));
        let engine = BatchEngine::default().with_jobs(1);
        let (_, stats) = engine.scan_sources_with_stats(&[pretty(&a), pretty(&b)]);
        assert_eq!(stats.cache_misses, 1);
        assert_eq!(stats.cache_hits, 1);
    }

    #[test]
    fn clear_cache_forces_reanalysis() {
        let sources = mixed(4);
        let engine = BatchEngine::default().with_jobs(2);
        engine.scan_sources_with_stats(&sources);
        engine.clear_cache();
        let (_, stats) = engine.scan_sources_with_stats(&sources);
        assert_eq!(stats.cache_misses, 4);
        let lifetime = engine.cache_stats();
        assert_eq!(lifetime.counts.misses, 8);
        assert_eq!(lifetime.source_entries, 4);
    }

    #[test]
    fn trace_collects_scan_counters() {
        let trace = Arc::new(TraceCollector::new());
        // One worker: the duplicate is deterministically a cache hit.
        let engine = BatchEngine::default().with_jobs(1).with_trace(Arc::clone(&trace));
        let sources = [vulnerable("same"), vulnerable("same"), safe("other")].map(|p| pretty(&p));
        engine.scan_sources_with_stats(&sources);
        let snap = trace.snapshot();
        assert_eq!(snap.counters["batch.programs"], 3);
        assert_eq!(snap.counters["batch.source-hit"], 1);
        assert_eq!(snap.counters["batch.cache-miss"], 2);
        assert_eq!(snap.counters["findings.oversized-placement"], 1);
        assert!(snap.passes.iter().any(|p| p.name == "batch.scan"));
        assert!(snap.passes.iter().any(|p| p.name == "analysis.walk"));
    }

    fn tmp_cache_dir(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("pnx-batch-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn engine_with_disk_cache(dir: &std::path::Path) -> BatchEngine {
        let analyzer = Analyzer::new();
        let cache = PersistentCache::open(dir, analyzer.config()).unwrap();
        BatchEngine::new(analyzer).with_jobs(4).with_persistent_cache(cache)
    }

    const VULN_SRC: &str = "program vuln;\n\
        class Student size 16;\n\
        class GradStudent size 32 : Student;\n\
        fn main() {\n    local stud: Student;\n    local st: ptr;\n\
        \x20   st = new (&stud) GradStudent();\n}\n";
    const SAFE_SRC: &str = "program safe;\n\
        class Student size 16;\n\
        fn main() {\n    local stud: Student;\n    local st: ptr;\n\
        \x20   st = new (&stud) Student();\n}\n";

    #[test]
    fn warm_disk_cache_skips_parse_and_analysis_across_engines() {
        let dir = tmp_cache_dir("warm");
        let sources = [VULN_SRC, SAFE_SRC];

        let cold = engine_with_disk_cache(&dir);
        let (first, stats) = cold.scan_sources_with_stats(&sources);
        assert_eq!(stats.persistent_hits, 0);
        assert_eq!(stats.persistent_misses, 2);
        assert!(first.iter().all(|o| !o.from_disk_cache));
        assert!(first[0].report.as_ref().unwrap().detected());
        assert!(!first[1].report.as_ref().unwrap().detected());

        // A fresh engine (fresh process, in effect): everything comes
        // from disk, byte-identical, without parsing anything.
        let warm = engine_with_disk_cache(&dir);
        let (second, stats) = warm.scan_sources_with_stats(&sources);
        assert_eq!(stats.persistent_hits, 2);
        assert_eq!(stats.persistent_misses, 0);
        assert_eq!((stats.cache_hits, stats.cache_misses), (0, 0), "memory tier untouched");
        assert!(second.iter().all(|o| o.from_disk_cache));
        assert_eq!(
            first.iter().map(|o| &o.report).collect::<Vec<_>>(),
            second.iter().map(|o| &o.report).collect::<Vec<_>>(),
        );
        let CacheLookup::Hit(stored) =
            warm.persistent_cache().unwrap().get(source_fingerprint(VULN_SRC))
        else {
            panic!("the cold scan stored the entry");
        };
        let program = crate::parse::parse_program(VULN_SRC).unwrap();
        let fresh = Analyzer::new().analyze_full(&program, None, None);
        assert_eq!(stored.summaries, fresh.summaries);
        assert!(!stored.summaries.is_empty(), "summary records survive the round-trip");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parse_failures_are_reported_and_never_cached() {
        let dir = tmp_cache_dir("parse-fail");
        let engine = engine_with_disk_cache(&dir);
        let sources = ["program broken;\nfn main( {}\n".to_string()];
        let (outcomes, _) = engine.scan_sources_with_stats(&sources);
        assert!(outcomes[0].report.is_none());
        assert!(!outcomes[0].errors.is_empty());
        // Second scan: still a disk miss — the failure was not stored.
        let (outcomes, stats) = engine.scan_sources_with_stats(&sources);
        assert!(!outcomes[0].from_disk_cache);
        assert_eq!(stats.persistent_misses, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_disk_entries_degrade_to_reanalysis_and_heal() {
        // Fresh engines per scan: the in-memory source tier would
        // otherwise (correctly) answer before the disk probe, and this
        // test is about the cross-process path where memory is cold.
        let dir = tmp_cache_dir("corrupt");
        let sources = [VULN_SRC];
        engine_with_disk_cache(&dir).scan_sources_with_stats(&sources);

        // Smash the entry on disk.
        let key = source_fingerprint(VULN_SRC);
        let path = dir.join(format!("{key:032x}.pnc"));
        std::fs::write(&path, b"PNXCACHEgarbage").unwrap();

        let (outcomes, stats) = engine_with_disk_cache(&dir).scan_sources_with_stats(&sources);
        assert!(outcomes[0].cache_corrupt);
        assert!(!outcomes[0].from_disk_cache);
        assert_eq!(stats.persistent_corrupt, 1);
        assert_eq!(stats.persistent_misses, 1, "a corrupt entry counts as a miss too");
        assert_eq!(stats.parses, 1, "corrupt entry forces a re-parse");
        assert!(outcomes[0].report.as_ref().unwrap().detected(), "re-analyzed from source");

        // The rewrite healed the entry: next (cold-memory) scan is a
        // clean disk hit.
        let (outcomes, stats) = engine_with_disk_cache(&dir).scan_sources_with_stats(&sources);
        assert!(outcomes[0].from_disk_cache);
        assert_eq!(stats.persistent_corrupt, 0);
        assert_eq!(stats.persistent_hits, 1);
        assert_eq!(stats.parses, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn source_tier_shields_a_corrupted_disk_entry_within_a_process() {
        // Same engine, same text: the source tier answers without ever
        // touching the (now corrupt) disk entry — the in-memory copy is
        // current, so serving it is both correct and faster.
        let dir = tmp_cache_dir("shield");
        let engine = engine_with_disk_cache(&dir);
        engine.scan_sources_with_stats(&[VULN_SRC]);
        let key = source_fingerprint(VULN_SRC);
        std::fs::write(dir.join(format!("{key:032x}.pnc")), b"PNXCACHEgarbage").unwrap();
        let (outcomes, stats) = engine.scan_sources_with_stats(&[VULN_SRC]);
        assert!(outcomes[0].from_source_cache);
        assert_eq!(stats.persistent_corrupt, 0);
        assert_eq!(stats.parses, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn source_scan_without_disk_cache_still_works() {
        let engine = BatchEngine::default().with_jobs(2);
        let (outcomes, stats) = engine.scan_sources_with_stats(&[VULN_SRC, VULN_SRC, SAFE_SRC]);
        assert_eq!(outcomes.len(), 3);
        assert_eq!(stats.persistent_hits + stats.persistent_misses, 0);
        // The in-memory tiers still dedup equal inputs.
        assert_eq!(stats.cache_hits + stats.cache_misses, 3);
        assert_eq!(outcomes[0].report, outcomes[1].report);
    }

    #[test]
    fn warm_source_rescan_runs_zero_parses() {
        // The daemon acceptance path: a second scan of the same texts
        // through a live engine is pure source-fingerprint hits — no
        // parser, no analyzer, no disk.
        let engine = BatchEngine::default().with_jobs(2);
        let sources = [VULN_SRC, SAFE_SRC];
        let (cold, stats) = engine.scan_sources_with_stats(&sources);
        assert_eq!(stats.parses, 2);
        let (warm, stats) = engine.scan_sources_with_stats(&sources);
        assert_eq!(stats.parses, 0, "warm rescan must not parse");
        assert_eq!(stats.cache_hits, 2);
        assert_eq!(stats.cache_misses, 0);
        assert!(warm.iter().all(|o| o.from_source_cache));
        assert_eq!(
            cold.iter().map(|o| &o.report).collect::<Vec<_>>(),
            warm.iter().map(|o| &o.report).collect::<Vec<_>>(),
        );
        let lifetime = engine.cache_stats();
        assert_eq!(lifetime.counts.parses, 2);
        assert_eq!(lifetime.source_entries, 2);
    }

    #[test]
    fn per_scan_jobs_override_matches_engine_default() {
        use crate::cliopts::{scan, ScanMode};
        let dir = tmp_cache_dir("jobs-override");
        std::fs::create_dir_all(&dir).unwrap();
        let inputs: Vec<String> = [VULN_SRC, SAFE_SRC, VULN_SRC]
            .iter()
            .enumerate()
            .map(|(i, src)| {
                let path = dir.join(format!("{i}.pnx"));
                std::fs::write(&path, src).unwrap();
                path.to_string_lossy().into_owned()
            })
            .collect();
        let engine = BatchEngine::default().with_jobs(1);
        let default_run = scan(&engine, &inputs, ScanMode::Full { stdin: None }, engine.jobs());
        engine.clear_cache();
        let override_run = scan(&engine, &inputs, ScanMode::Full { stdin: None }, 8);
        assert_eq!(override_run.stats.jobs, 3, "worker count clamps to the input count");
        assert_eq!(default_run.files, override_run.files);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A corpus on disk: file i is vulnerable when i is odd.
    fn write_corpus(dir: &std::path::Path, n: usize) -> Vec<String> {
        std::fs::create_dir_all(dir).unwrap();
        (0..n)
            .map(|i| {
                let path = dir.join(format!("file-{i:03}.pnx"));
                let src = if i % 2 == 1 { VULN_SRC } else { SAFE_SRC };
                std::fs::write(&path, src.replace("program ", &format!("program f{i}_"))).unwrap();
                path.to_string_lossy().into_owned()
            })
            .collect()
    }

    /// A delta scan at the engine's own worker count.
    fn rescan(
        engine: &BatchEngine,
        paths: &[String],
        hint: Option<&[String]>,
    ) -> (Vec<TrackedOutcome>, BatchStats, DeltaStats) {
        engine.delta_scan(paths, hint, engine.jobs())
    }

    fn reports_of(outcomes: &[TrackedOutcome]) -> Vec<Option<Report>> {
        outcomes.iter().map(|o| o.analysis.as_ref().map(|a| a.report.clone())).collect()
    }

    #[test]
    fn delta_scan_reanalyzes_only_the_edited_file() {
        let dir = tmp_cache_dir("delta-one-edit");
        let paths = write_corpus(&dir.join("src"), 12);
        let engine = BatchEngine::default().with_jobs(2);
        let (cold, stats, _) = rescan(&engine, &paths, None);
        assert_eq!(stats.parses, 12);

        // No edits: everything served from the tracked index.
        let (same, stats, delta) = rescan(&engine, &paths, None);
        assert_eq!(stats.parses, 0, "no-op rescan must not parse");
        assert_eq!(delta.unchanged_files, 12);
        assert_eq!(delta.changed_files + delta.added_files, 0);
        assert_eq!(reports_of(&cold), reports_of(&same));
        assert!(same.iter().all(|o| !o.reanalyzed));

        // Edit one file (flip it to vulnerable) and rescan.
        std::fs::write(&paths[0], VULN_SRC).unwrap();
        let (warm, stats, delta) = rescan(&engine, &paths, None);
        assert_eq!(stats.parses, 1, "only the edited file parses");
        assert_eq!(delta.changed_files, 1);
        assert_eq!(delta.unchanged_files, 11);
        assert!(warm[0].reanalyzed);
        assert!(warm[0].analysis.as_ref().unwrap().report.detected());
        assert!(delta.cone_functions >= 1);

        // The delta result equals a from-scratch scan of the same tree.
        let fresh = BatchEngine::default().with_jobs(2);
        let (full, _, _) = rescan(&fresh, &paths, None);
        assert_eq!(reports_of(&warm), reports_of(&full));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn delta_scan_tracks_added_removed_and_hinted_files() {
        let dir = tmp_cache_dir("delta-add-remove");
        let mut paths = write_corpus(&dir.join("src"), 4);
        let engine = BatchEngine::default().with_jobs(2);
        rescan(&engine, &paths, None);

        // Drop one path from the list, add a new file, hint another.
        let removed = paths.remove(3);
        let added = dir.join("src").join("file-new.pnx");
        std::fs::write(&added, VULN_SRC).unwrap();
        paths.push(added.to_string_lossy().into_owned());
        let hint = vec![paths[1].clone()];
        let (outcomes, _, delta) = rescan(&engine, &paths, Some(&hint));
        assert_eq!(delta.added_files, 1);
        assert_eq!(delta.removed_files, 1);
        assert_eq!(delta.changed_files, 1, "the hinted file re-analyzes");
        assert_eq!(delta.unchanged_files, 2);
        assert_eq!(delta.tracked_files, 4);
        // The hinted file is re-read, but its unchanged content hits
        // the in-memory source tier — no parse, same bytes out.
        assert!(!outcomes[1].reanalyzed, "hinted-but-identical content serves from cache");
        assert!(outcomes[3].analysis.as_ref().unwrap().report.detected(), "added file scanned");
        assert!(!std::path::Path::new(&removed).to_string_lossy().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Pins the hint contract: a hinted rescan trusts the client and
    /// skips the stat sweep, so an edit the client did not name stays
    /// stale until the next unhinted rescan catches it.
    #[test]
    fn delta_scan_hint_is_trusted_and_unhinted_rescan_heals() {
        let dir = tmp_cache_dir("delta-hint-trust");
        let paths = write_corpus(&dir.join("src"), 3);
        let engine = BatchEngine::default().with_jobs(1);
        let (cold, _, _) = rescan(&engine, &paths, None);
        assert!(!cold[0].analysis.as_ref().unwrap().report.detected(), "file 0 starts safe");

        // Edit file 0 but hint only file 1: the edit is invisible.
        std::fs::write(&paths[0], VULN_SRC).unwrap();
        let hint = vec![paths[1].clone()];
        let (outcomes, _, delta) = rescan(&engine, &paths, Some(&hint));
        assert_eq!(delta.changed_files, 1, "only the hinted file re-ran");
        assert!(
            !outcomes[0].analysis.as_ref().unwrap().report.detected(),
            "unhinted edit serves the prior verdict — the client owns change detection"
        );

        // The unhinted (stat-sweep) rescan finds the drift and heals.
        let (outcomes, _, delta) = rescan(&engine, &paths, None);
        assert_eq!(delta.changed_files, 1);
        assert!(outcomes[0].analysis.as_ref().unwrap().report.detected(), "drift re-analyzed");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn delta_scan_surfaces_read_errors_like_a_full_scan() {
        let dir = tmp_cache_dir("delta-unreadable");
        let paths = write_corpus(&dir.join("src"), 2);
        let engine = BatchEngine::default().with_jobs(1);
        rescan(&engine, &paths, None);
        std::fs::remove_file(&paths[0]).unwrap();
        let (outcomes, _, delta) = rescan(&engine, &paths, None);
        assert!(outcomes[0].read_error.is_some());
        assert!(outcomes[0].analysis.is_none());
        assert_eq!(delta.changed_files, 1, "a vanished file classifies as changed");
        assert_eq!(delta.tracked_files, 1, "the unreadable file is untracked again");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_carries_the_tracked_index_across_engines() {
        let dir = tmp_cache_dir("delta-manifest");
        let paths = write_corpus(&dir.join("src"), 6);
        let cache_dir = dir.join("cache");

        let first = engine_with_disk_cache(&cache_dir);
        let (cold, stats, delta) = rescan(&first, &paths, None);
        assert_eq!(stats.parses, 6);
        assert_eq!(delta.seeded_files, 0, "no manifest yet");
        assert!(!delta.manifest_save_failed);

        // A fresh engine (fresh process, in effect) seeds from the
        // manifest: the unchanged world comes from disk with zero
        // parses, lazily hydrated through the persistent tier.
        let second = engine_with_disk_cache(&cache_dir);
        std::fs::write(&paths[2], VULN_SRC).unwrap();
        let (warm, stats, delta) = rescan(&second, &paths, None);
        assert_eq!(delta.seeded_files, 6);
        assert_eq!(delta.unchanged_files, 5);
        assert_eq!(delta.changed_files, 1);
        assert_eq!(stats.parses, 1, "only the edit parses in the new process");
        assert_eq!(
            stats.persistent_hits, 6,
            "unchanged files hydrate from disk, plus the edit's old entry for the partial path"
        );
        for (i, (a, b)) in cold.iter().zip(&warm).enumerate() {
            if i != 2 {
                assert_eq!(
                    reports_of(std::slice::from_ref(a)),
                    reports_of(std::slice::from_ref(b))
                );
            }
        }
        assert!(warm[2].analysis.as_ref().unwrap().report.detected());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_seeded_entry_with_a_lost_cache_entry_reanalyzes() {
        let dir = tmp_cache_dir("delta-lost-entry");
        let paths = write_corpus(&dir.join("src"), 2);
        let cache_dir = dir.join("cache");
        let first = engine_with_disk_cache(&cache_dir);
        assert!(!rescan(&first, &paths, None).2.manifest_save_failed);

        // Wipe the .pnc entries but keep the manifest: the promise is
        // broken, and the rescan must fall back to re-analysis.
        for entry in std::fs::read_dir(&cache_dir).unwrap() {
            let p = entry.unwrap().path();
            if p.extension().is_some_and(|e| e == "pnc") {
                std::fs::remove_file(p).unwrap();
            }
        }
        let second = engine_with_disk_cache(&cache_dir);
        let (outcomes, stats, delta) = rescan(&second, &paths, None);
        assert_eq!(delta.seeded_files, 2);
        assert_eq!(delta.changed_files, 2);
        assert_eq!(stats.parses, 2);
        assert!(outcomes.iter().all(|o| o.analysis.is_some()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shard_spec_partitions_the_key_space() {
        let shards = [
            ShardSpec { index: 0, count: 3 },
            ShardSpec { index: 1, count: 3 },
            ShardSpec { index: 2, count: 3 },
        ];
        for key in [0u128, 1, 2, 3, 41, u128::MAX, source_fingerprint(VULN_SRC)] {
            let owners = shards.iter().filter(|s| s.owns(key)).count();
            assert_eq!(owners, 1, "every key has exactly one owner");
        }
        assert!(ShardSpec { index: 0, count: 1 }.owns(u128::MAX), "a single shard owns all");
    }

    #[test]
    fn sharded_engines_agree_with_unsharded_results_and_split_warm_state() {
        let sources: Vec<String> =
            (0..8).map(|i| VULN_SRC.replace("program ", &format!("program s{i}_"))).collect();
        let whole = BatchEngine::default().with_jobs(1);
        let (expected, _) = whole.scan_sources_with_stats(&sources);

        for index in 0..2u32 {
            let replica =
                BatchEngine::default().with_jobs(1).with_shard(ShardSpec { index, count: 2 });
            let (got, _) = replica.scan_sources_with_stats(&sources);
            assert_eq!(
                expected.iter().map(|o| &o.report).collect::<Vec<_>>(),
                got.iter().map(|o| &o.report).collect::<Vec<_>>(),
                "sharding must never change verdicts"
            );
            // Warm rescan: owned keys hit the source tier, unowned
            // keys re-parse — the replica holds only its slice warm.
            let owned = sources
                .iter()
                .filter(|s| ShardSpec { index, count: 2 }.owns(source_fingerprint(s)))
                .count() as u64;
            let (_, stats) = replica.scan_sources_with_stats(&sources);
            assert_eq!(stats.cache_hits, owned, "only owned keys stay warm");
            assert_eq!(stats.parses, sources.len() as u64 - owned);
            let cache = replica.cache_stats();
            assert_eq!(cache.source_entries, owned as usize, "no warm state for unowned keys");
        }
    }

    #[test]
    fn sharded_engine_never_touches_the_disk_tier_for_unowned_keys() {
        let dir = tmp_cache_dir("shard-disk");
        let sources = [VULN_SRC, SAFE_SRC];
        // An unsharded engine warms the whole cache dir.
        engine_with_disk_cache(&dir).scan_sources_with_stats(&sources);

        // A shard that owns neither key must not read a single entry.
        let unowned: Vec<&str> = sources
            .iter()
            .copied()
            .filter(|s| !ShardSpec { index: 0, count: 2 }.owns(source_fingerprint(s)))
            .collect();
        let analyzer = Analyzer::new();
        let cache = PersistentCache::open(&dir, analyzer.config()).unwrap();
        let replica = BatchEngine::new(analyzer)
            .with_jobs(1)
            .with_persistent_cache(cache)
            .with_shard(ShardSpec { index: 0, count: 2 });
        let (_, stats) = replica.scan_sources_with_stats(&unowned);
        assert_eq!(stats.persistent_hits, 0, "unowned keys skip the disk tier");
        assert_eq!(stats.persistent_misses, 0);
        assert_eq!(stats.parses, unowned.len() as u64);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_scans_on_one_engine_count_only_their_own_files() {
        // Per-scan stats used to be a diff of engine-wide counters taken
        // at scan start and end, so two overlapping scans each reported
        // the other's work too (e.g. 400 parses for a 200-file scan).
        const FILES: usize = 200;
        let sets: Vec<Vec<String>> = ["a", "b"]
            .iter()
            .map(|tag| {
                (0..FILES)
                    .map(|i| SAFE_SRC.replace("program ", &format!("program {tag}{i}_")))
                    .collect()
            })
            .collect();
        for round in 0..20 {
            let engine = BatchEngine::default().with_jobs(2);
            let barrier = std::sync::Barrier::new(sets.len());
            thread::scope(|scope| {
                for sources in &sets {
                    let (engine, barrier) = (&engine, &barrier);
                    scope.spawn(move || {
                        barrier.wait();
                        let (_, stats) = engine.scan_sources_with_stats(sources);
                        assert_eq!(
                            stats.cache_hits + stats.cache_misses,
                            FILES as u64,
                            "round {round}: {stats:?}"
                        );
                        assert_eq!(stats.parses, FILES as u64, "round {round}: {stats:?}");
                    });
                }
            });
            let lifetime = engine.cache_stats();
            assert_eq!(lifetime.counts.parses, 2 * FILES as u64, "both scans reach the lifetime");
        }
    }

    #[test]
    fn write_errors_count_per_scan_and_manifest_errors_only_for_life() {
        let dir = tmp_cache_dir("write-errors");
        let paths = write_corpus(&dir.join("src"), 3);
        let cache_dir = dir.join("cache");
        let engine = engine_with_disk_cache(&cache_dir);
        // The cache dir vanishes after open: every write now fails.
        std::fs::remove_dir_all(&cache_dir).unwrap();
        let (_, stats, delta) = rescan(&engine, &paths, None);
        assert_eq!(stats.persistent_write_errors, 3, "one failed entry write per file");
        assert!(delta.manifest_save_failed);
        let lifetime = engine.cache_stats().counts;
        assert_eq!(lifetime.disk_stores, 0);
        // The entries, the manifest and the summary-store blob.
        assert_eq!(lifetime.disk_write_errors, 3 + 1 + 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn summary_blob_and_manifest_touch_no_entry_counter() {
        let dir = tmp_cache_dir("blob-counters");
        let paths = write_corpus(&dir.join("src"), 3);
        let cache_dir = dir.join("cache");
        let first = engine_with_disk_cache(&cache_dir);
        rescan(&first, &paths, None);
        let lifetime = first.cache_stats().counts;
        assert_eq!((lifetime.disk_stores, lifetime.disk_write_errors), (3, 0), "entries only");

        // A broken blob loads as an empty store: a restart still serves
        // every file from disk and counts nothing corrupt.
        let blob = cache_dir.join(format!("{:032x}.pnc", crate::cache::SUMMARY_STORE_KEY));
        std::fs::write(&blob, b"PNXCACHEgarbage").unwrap();
        let second = engine_with_disk_cache(&cache_dir);
        let (_, stats, delta) = rescan(&second, &paths, None);
        assert_eq!(delta.unchanged_files, 3);
        assert_eq!((stats.persistent_hits, stats.persistent_corrupt), (3, 0));
        assert_eq!(second.cache_stats().counts.disk_corrupt, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_snapshots_are_never_torn_under_concurrent_requests() {
        // The pncheckd-stats/1 regression: counters sampled while
        // requests mutate them must always satisfy
        // hits + misses == lookups. With the old independent atomics a
        // reader could see the hit increment but not yet the lookup's.
        let engine = Arc::new(BatchEngine::default().with_jobs(2));
        let sources: Vec<String> =
            (0..16).map(|i| SAFE_SRC.replace("program ", &format!("program t{i}_"))).collect();
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        thread::scope(|scope| {
            for _ in 0..2 {
                let engine = Arc::clone(&engine);
                let sources = sources.clone();
                let stop = Arc::clone(&stop);
                // At least one scan per thread, however fast the
                // sampler below finishes.
                scope.spawn(move || loop {
                    engine.scan_sources_with_stats(&sources);
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                });
            }
            let mut sampled = 0u64;
            while sampled < 500 {
                let snap = engine.cache_stats();
                assert_eq!(
                    snap.counts.hits + snap.counts.misses,
                    snap.lookups,
                    "torn stats snapshot: {snap:?}"
                );
                sampled += 1;
            }
            stop.store(true, Ordering::Relaxed);
        });
        let final_snap = engine.cache_stats();
        assert_eq!(final_snap.counts.hits + final_snap.counts.misses, final_snap.lookups);
        assert!(final_snap.lookups > 0);
    }

    /// `src` laid out differently — leading blank lines, re-indented
    /// bodies — so every span moves but the pretty form stays.
    fn reflowed(src: &str) -> String {
        format!("\n\n\n{}", src.replace("    ", "  "))
    }

    /// The `pncheck-report/1` envelope of one source outcome. Unlike
    /// `Report`'s `PartialEq`, it compares spans.
    fn envelope(outcome: &SourceOutcome) -> String {
        let record = crate::emit::FileRecord {
            path: "-".into(),
            report: outcome.report.clone(),
            errors: outcome.errors.clone(),
        };
        crate::emit::render_json(std::slice::from_ref(&record), None, None)
    }

    fn fresh_envelope(source: &str) -> String {
        envelope(&BatchEngine::default().with_jobs(1).scan_sources_with_stats(&[source]).0[0])
    }

    #[test]
    fn layout_variants_of_one_program_keep_their_own_spans() {
        let variant = reflowed(VULN_SRC);
        let parse = |s: &str| crate::parse::parse_program(s).unwrap();
        assert_eq!(fingerprint(&parse(VULN_SRC)), fingerprint(&parse(&variant)));
        assert_ne!(fresh_envelope(VULN_SRC), fresh_envelope(&variant), "spans differ");

        let engine = BatchEngine::default().with_jobs(1);
        engine.scan_sources_with_stats(&[VULN_SRC]);
        let (second, stats) = engine.scan_sources_with_stats(&[variant.as_str()]);
        assert_eq!((stats.cache_hits, stats.cache_misses), (0, 1), "a new text is analyzed");
        assert_eq!(envelope(&second[0]), fresh_envelope(&variant));
    }

    #[test]
    fn layout_variant_persists_its_own_spans_across_a_restart() {
        let dir = tmp_cache_dir("layout-restart");
        let variant = reflowed(VULN_SRC);
        let first = engine_with_disk_cache(&dir);
        first.scan_sources_with_stats(&[VULN_SRC]);
        first.scan_sources_with_stats(&[variant.as_str()]);

        // A new process reads the variant's `.pnc`: it must hold the
        // variant's spans, not the first text's.
        let (warm, _) = engine_with_disk_cache(&dir).scan_sources_with_stats(&[variant.as_str()]);
        assert!(warm[0].from_disk_cache);
        assert_eq!(envelope(&warm[0]), fresh_envelope(&variant));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_batch_is_fine() {
        let engine = BatchEngine::default();
        let (outcomes, stats) = engine.scan_sources_with_stats::<&str>(&[]);
        assert!(outcomes.is_empty());
        assert_eq!(stats.programs, 0);
        assert_eq!(stats.programs_per_sec(), 0.0);
        assert_eq!(stats.cache_hit_rate(), 0.0);
    }
}
