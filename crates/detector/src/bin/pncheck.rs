//! `pncheck` — the placement-new vulnerability checker as a CLI.
//!
//! ```text
//! usage: pncheck [OPTIONS] PATH...
//!        pncheck [OPTIONS] -              (read one program from stdin)
//!
//!   PATH may be a .pnx file or a directory, which is scanned
//!   recursively for *.pnx files (in sorted path order). Inputs are
//!   canonicalized and deduplicated, so a file named both directly and
//!   via an enclosing directory is scanned once.
//!
//!   --baseline              run the traditional-tools baseline instead
//!   --fix                   print the automatically remediated program
//!                           (text format only)
//!   --oracle                differential mode: execute each program on
//!                           the runtime machine under scripted attacker
//!                           inputs and cross-check the analyzer,
//!                           printing a TP/FP/FN verdict matrix (text or
//!                           json format; exit 1 on any false negative)
//!   --format FORMAT         output format: text (default), json
//!                           (the pncheck-report/1 envelope), or sarif
//!                           (SARIF 2.1.0)
//!   --min-severity LEVEL    report only findings at LEVEL or above
//!                           (info|warning|error; default info)
//!   --disable KIND          switch one finding kind off (repeatable)
//!   --jobs N                scan with N worker threads
//!                           (default: available parallelism)
//!   --cache-dir DIR         persist analysis results in DIR across
//!                           runs, keyed on file content: a warm rescan
//!                           of unchanged files skips parsing and
//!                           analysis entirely. Corrupt or stale entries
//!                           are re-analyzed (with a warning), never
//!                           trusted. Ignored under --baseline and
//!                           --oracle.
//!   --cache-backend KIND    on-disk layout for --cache-dir: "dir"
//!                           (one file per entry, shareable between
//!                           processes; the default) or "indexed" (one
//!                           append-only indexed store — faster to
//!                           open, single writer). Both serve
//!                           byte-identical results.
//!   --delta                 incremental rescan against --cache-dir:
//!                           classify each input by stat against the
//!                           cache's delta manifest, re-analyze only
//!                           changed files, and serve the rest from
//!                           cache with zero reads and zero parses.
//!                           Output is byte-identical to a full scan of
//!                           the same tree. The manifest self-primes:
//!                           the first --delta run records the tree and
//!                           later runs go incremental. Requires
//!                           --cache-dir; incompatible with --baseline,
//!                           --oracle, --fix, and stdin input.
//!   --no-summaries          analyze calls by inline re-walk instead of
//!                           memoized function summaries (slower;
//!                           results are identical — this flag exists
//!                           for differential testing)
//!   --stats                 print scan throughput, cache counters
//!                           (both the in-memory and the on-disk tier),
//!                           and per-pass trace lines — including
//!                           summary computation/application counts —
//!                           to stderr; with --format json, also embed
//!                           them in the envelope
//! ```
//!
//! Exit status: 0 when no warning-level findings, 1 when any program has
//! them, 2 on usage errors or when any file failed to read or parse.
//! Under `--oracle`, exit 1 means a false negative was found instead.
//! A bad file does not abort the run: the parser recovers and reports
//! *all* leading syntax errors with line and column, the remaining files
//! are still scanned, and the exit code is 2.

use std::io::Read as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

use pnew_detector::cliopts::{self, CommonOpts};
use pnew_detector::emit::{self, FileRecord, OracleRecord, OutputFormat};
use pnew_detector::oracle::{Matrix, Oracle, Verdict};
use pnew_detector::trace::TraceCollector;
use pnew_detector::{
    parse_program_recovering, Analyzer, BaselineChecker, BatchEngine, BatchStats, Fixer,
    ParseError, PersistentCache, Program, Severity,
};

const USAGE: &str = "usage: pncheck [--baseline] [--fix] [--oracle] [--format text|json|sarif] [--min-severity LEVEL] [--disable KIND]... [--jobs N] [--cache-dir DIR] [--cache-backend dir|indexed] [--delta] [--no-summaries] [--stats] PATH... | -";

/// One input after reading: raw text, not yet parsed. The default scan
/// path hands sources to the batch engine unparsed, so a warm
/// `--cache-dir` hit never runs the parser at all.
struct SourceFile {
    path: String,
    source: String,
}

/// One input after reading and parsing: the program when it parsed, the
/// recovered parse errors when it did not. Used by the modes that need
/// the IR up front (`--baseline`, `--oracle`).
struct ScannedFile {
    path: String,
    program: Option<Program>,
    errors: Vec<ParseError>,
}

/// Parses every source, printing each recovered syntax error with its
/// path. Returns the scanned files and whether any failed.
fn parse_all(files: &[SourceFile]) -> (Vec<ScannedFile>, bool) {
    let mut had_errors = false;
    let scanned = files
        .iter()
        .map(|f| match parse_program_recovering(&f.source) {
            Ok(p) => ScannedFile { path: f.path.clone(), program: Some(p), errors: Vec::new() },
            Err(errors) => {
                for e in &errors {
                    eprintln!("pncheck: {}: {e}", f.path);
                }
                had_errors = true;
                ScannedFile { path: f.path.clone(), program: None, errors }
            }
        })
        .collect();
    (scanned, had_errors)
}

fn main() -> ExitCode {
    let mut baseline = false;
    let mut fix = false;
    let mut oracle = false;
    let mut stats = false;
    let mut delta = false;
    let mut opts = CommonOpts::default();
    let mut cache_dir: Option<PathBuf> = None;
    let mut cache_backend = pnew_detector::BackendKind::Dir;
    let mut inputs = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if let Some(result) = opts.accept(&arg, &mut args) {
            if let Err(e) = result {
                eprintln!("pncheck: {e}");
                return ExitCode::from(2);
            }
            continue;
        }
        match arg.as_str() {
            "--baseline" => baseline = true,
            "--fix" => fix = true,
            "--oracle" => oracle = true,
            "--stats" => stats = true,
            "--delta" => delta = true,
            "--cache-dir" => {
                let Some(dir) = args.next() else {
                    eprintln!("pncheck: --cache-dir needs a directory");
                    return ExitCode::from(2);
                };
                cache_dir = Some(PathBuf::from(dir));
            }
            "--cache-backend" => {
                let Some(kind) = args.next() else {
                    eprintln!("pncheck: --cache-backend needs a value (dir|indexed)");
                    return ExitCode::from(2);
                };
                match cliopts::parse_cache_backend(&kind) {
                    Ok(kind) => cache_backend = kind,
                    Err(e) => {
                        eprintln!("pncheck: {e}");
                        return ExitCode::from(2);
                    }
                }
            }
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            _ => inputs.push(arg),
        }
    }
    let CommonOpts { jobs, format, config } = opts;
    if inputs.is_empty() {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    }
    if fix && format != OutputFormat::Text {
        eprintln!("pncheck: --fix is only supported with --format text");
        return ExitCode::from(2);
    }
    if oracle && (baseline || fix) {
        eprintln!("pncheck: --oracle is incompatible with --baseline and --fix");
        return ExitCode::from(2);
    }
    if oracle && format == OutputFormat::Sarif {
        eprintln!("pncheck: --oracle supports --format text or json");
        return ExitCode::from(2);
    }
    if delta {
        if cache_dir.is_none() {
            eprintln!("pncheck: --delta requires --cache-dir");
            return ExitCode::from(2);
        }
        if baseline || oracle || fix {
            eprintln!("pncheck: --delta is incompatible with --baseline, --oracle, and --fix");
            return ExitCode::from(2);
        }
        if inputs.iter().any(|i| i == "-") {
            eprintln!("pncheck: --delta scans paths, not stdin");
            return ExitCode::from(2);
        }
    }

    // An unusable --cache-dir is a configuration error, not a
    // degradation: failing fast (before any file is read) keeps CI
    // pipelines from silently running uncached forever. With --format
    // json the failure still produces a parseable envelope on stdout.
    let persistent = match (&cache_dir, baseline || oracle) {
        (Some(dir), false) => match PersistentCache::open_with(dir, &config, cache_backend) {
            Ok(pc) => Some(pc),
            Err(e) => {
                let message = format!("cannot open cache dir {}: {e}", dir.display());
                eprintln!("pncheck: error: {message}");
                if format == OutputFormat::Json {
                    print!("{}", emit::render_error_json("cache-dir-unusable", &message));
                }
                return ExitCode::from(2);
            }
        },
        _ => None,
    };

    let mut had_errors = false;
    let (paths, expand_errors) = cliopts::expand_inputs(&inputs);
    for e in expand_errors {
        eprintln!("pncheck: {e}");
        had_errors = true;
    }

    if delta {
        let pc = persistent.expect("--delta validated --cache-dir above");
        let trace = stats.then(|| Arc::new(TraceCollector::new()));
        let mut engine = BatchEngine::new(Analyzer::with_config(config)).with_persistent_cache(pc);
        if let Some(n) = jobs {
            engine = engine.with_jobs(n);
        }
        if let Some(t) = &trace {
            engine = engine.with_trace(Arc::clone(t));
        }
        return run_delta(&paths, &engine, format, stats, trace.as_deref(), had_errors);
    }

    // Read every input. Bad files are reported with their path; the rest
    // still get scanned. `unreadable` counts inputs that never became a
    // SourceFile at all, so the stats line can report every errored file
    // exactly once.
    let mut unreadable = 0usize;
    let mut files: Vec<SourceFile> = Vec::with_capacity(paths.len());
    for path in paths {
        let source = if path == "-" {
            let mut s = String::new();
            if std::io::stdin().read_to_string(&mut s).is_err() {
                eprintln!("pncheck: cannot read stdin");
                had_errors = true;
                unreadable += 1;
                continue;
            }
            s
        } else {
            match std::fs::read_to_string(&path) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("pncheck: {path}: {e}");
                    had_errors = true;
                    unreadable += 1;
                    continue;
                }
            }
        };
        files.push(SourceFile { path, source });
    }

    let trace = stats.then(|| Arc::new(TraceCollector::new()));

    if oracle {
        let (scanned, parse_errors) = parse_all(&files);
        let errored_files = unreadable + scanned.iter().filter(|f| f.program.is_none()).count();
        return run_oracle(
            &scanned,
            errored_files,
            had_errors || parse_errors,
            format,
            stats,
            trace.as_deref(),
        );
    }

    // The baseline checker needs the IR up front; the real analyzer
    // scans raw sources through the engine, so warm disk-cache hits
    // skip parsing entirely.
    let (records, scan_stats) = if baseline {
        let (scanned, parse_errors) = parse_all(&files);
        had_errors |= parse_errors;
        let checker = BaselineChecker::new();
        let records = scanned
            .into_iter()
            .map(|f| FileRecord {
                path: f.path,
                report: f.program.as_ref().map(|p| checker.analyze(p)),
                errors: f.errors,
            })
            .collect();
        (records, None)
    } else {
        let mut engine = BatchEngine::new(Analyzer::with_config(config));
        if let Some(n) = jobs {
            engine = engine.with_jobs(n);
        }
        if let Some(t) = &trace {
            engine = engine.with_trace(Arc::clone(t));
        }
        if let Some(pc) = persistent {
            engine = engine.with_persistent_cache(pc);
        }
        let sources: Vec<&str> = files.iter().map(|f| f.source.as_str()).collect();
        let (outcomes, s) = engine.scan_sources_with_stats(&sources);
        let records = files
            .iter()
            .zip(outcomes)
            .map(|(f, o)| {
                for e in &o.errors {
                    eprintln!("pncheck: {}: {e}", f.path);
                    had_errors = true;
                }
                if o.cache_corrupt {
                    eprintln!("pncheck: warning: corrupt cache entry for {}; re-analyzed", f.path);
                }
                FileRecord { path: f.path.clone(), report: o.report, errors: o.errors }
            })
            .collect();
        (records, Some(s))
    };
    let records: Vec<FileRecord> = records;

    // A dying cache must not look like a working one: warn once per
    // scan when any entry failed to persist.
    if let Some(s) = &scan_stats {
        warn_write_errors(s.persistent_write_errors);
    }

    // Errored files = unreadable inputs + files that read but failed to
    // parse. Neither kind ever produces a report, so the count is exact
    // regardless of --jobs.
    let errored_files = unreadable + records.iter().filter(|r| r.report.is_none()).count();
    let any_findings =
        records.iter().filter_map(|r| r.report.as_ref()).any(|r| r.detected_at(Severity::Warning));

    let embedded = if stats { scan_stats.as_ref() } else { None };
    print_records(format, &records, embedded, trace.as_deref(), |i| {
        if fix {
            // The report may have come from the disk cache, so the IR is
            // re-derived here; --fix is a rare, interactive path where
            // one extra parse is cheap.
            let program =
                parse_program_recovering(&files[i].source).expect("a file with a report parses");
            let (fixed, fixes) = Fixer::new().fix(&program);
            for f in &fixes {
                eprintln!("fix: {f}");
            }
            print!("{}", pnew_detector::pretty_program(&fixed));
        }
    });

    if stats {
        if let Some(s) = &scan_stats {
            print_stats(s, errored_files, cache_dir.is_some());
        } else {
            eprintln!("stats: baseline mode scans serially; no batch stats");
        }
        print_trace(trace.as_deref());
    }
    exit_status(had_errors, any_findings)
}

/// Prints the scan's records on stdout in `format`. In text mode
/// `after_report(i)` runs after record `i`'s report (the `--fix` hook).
/// Stats and trace carry wall-clock timings, so they embed in the JSON
/// envelope only on request — the default envelope is deterministic.
fn print_records(
    format: OutputFormat,
    records: &[FileRecord],
    embedded: Option<&BatchStats>,
    trace: Option<&TraceCollector>,
    mut after_report: impl FnMut(usize),
) {
    match format {
        OutputFormat::Text => {
            for (i, record) in records.iter().enumerate() {
                let Some(report) = &record.report else { continue };
                print!("{report}");
                for finding in &report.findings {
                    println!("    hint: {}", finding.kind.suggestion());
                }
                after_report(i);
            }
        }
        OutputFormat::Json => {
            let snapshot = trace.map(|t| t.snapshot());
            print!("{}", emit::render_json(records, embedded, snapshot.as_ref()));
        }
        OutputFormat::Sarif => print!("{}", emit::render_sarif(records)),
    }
}

/// The `--stats` line for one scan. The disk tier reports separately
/// from the in-memory store: "cache" is per-process memoization, "disk"
/// is the cross-run --cache-dir store.
fn print_stats(s: &BatchStats, errored_files: usize, disk: bool) {
    let disk = if disk {
        format!(
            ", disk {}/{} hit/miss ({} corrupt, {} write errors)",
            s.persistent_hits, s.persistent_misses, s.persistent_corrupt, s.persistent_write_errors
        )
    } else {
        String::new()
    };
    eprintln!(
        "stats: {} programs, {} findings, {} errored files, {:.0} programs/sec, {} jobs, cache {}/{} hit/miss ({:.1}% hit rate){disk}, {:.3}s elapsed",
        s.programs,
        s.findings,
        errored_files,
        s.programs_per_sec(),
        s.jobs,
        s.cache_hits,
        s.cache_misses,
        s.cache_hit_rate() * 100.0,
        s.elapsed.as_secs_f64(),
    );
}

/// The `--stats` trace lines, when tracing ran.
fn print_trace(trace: Option<&TraceCollector>) {
    if let Some(t) = trace {
        for line in t.snapshot().lines() {
            eprintln!("{line}");
        }
    }
}

/// Exit 2 on any error, else 1 when `failed` (findings, or oracle false
/// negatives), else 0.
fn exit_status(had_errors: bool, failed: bool) -> ExitCode {
    if had_errors {
        ExitCode::from(2)
    } else if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Warns (once per scan) when persistent-cache writes failed: each
/// failure degrades one file to uncached, and a silently dying cache
/// looks exactly like a working one.
fn warn_write_errors(write_errors: u64) {
    if write_errors > 0 {
        eprintln!(
            "pncheck: warning: {write_errors} cache write error(s); those results were not persisted"
        );
    }
}

/// The `--delta` mode: incremental rescan against the cache directory's
/// delta manifest. Only changed files are read and re-analyzed; output
/// and exit status are byte-identical to a full scan of the same tree.
fn run_delta(
    paths: &[String],
    engine: &BatchEngine,
    format: OutputFormat,
    stats: bool,
    trace: Option<&TraceCollector>,
    mut had_errors: bool,
) -> ExitCode {
    let (outcomes, scan_stats, delta) = engine.delta_scan(paths, None, engine.jobs());
    if delta.manifest_save_failed {
        eprintln!("pncheck: warning: could not write the delta manifest; next run rescans cold");
    }

    // Replicate the full-scan error reporting exactly: unreadable files
    // are named on stderr and never become a record; parse errors are
    // printed per file (served-from-cache failures included).
    let mut unreadable = 0usize;
    let mut records: Vec<FileRecord> = Vec::with_capacity(outcomes.len());
    for o in &outcomes {
        if let Some(e) = &o.read_error {
            eprintln!("pncheck: {}: {e}", o.path);
            had_errors = true;
            unreadable += 1;
            continue;
        }
        for e in &o.errors {
            eprintln!("pncheck: {}: {e}", o.path);
            had_errors = true;
        }
        if o.cache_corrupt {
            eprintln!("pncheck: warning: corrupt cache entry for {}; re-analyzed", o.path);
        }
        records.push(FileRecord {
            path: o.path.clone(),
            report: o.analysis.as_ref().map(|a| a.report.clone()),
            errors: o.errors.clone(),
        });
    }
    warn_write_errors(scan_stats.persistent_write_errors);

    let errored_files = unreadable + records.iter().filter(|r| r.report.is_none()).count();
    let any_findings =
        records.iter().filter_map(|r| r.report.as_ref()).any(|r| r.detected_at(Severity::Warning));

    print_records(format, &records, stats.then_some(&scan_stats), trace, |_| {});

    if stats {
        print_stats(&scan_stats, errored_files, true);
        eprintln!(
            "delta: {} tracked, {} unchanged, {} changed, {} added, {} removed, {} seeded, cone {}/{} functions ({} changed), {} functions reanalyzed, {} functions reused, {} stat fastpath",
            delta.tracked_files,
            delta.unchanged_files,
            delta.changed_files,
            delta.added_files,
            delta.removed_files,
            delta.seeded_files,
            delta.cone_functions,
            delta.tracked_functions,
            delta.changed_functions,
            delta.functions_reanalyzed,
            delta.functions_reused,
            delta.stat_fastpath_hits,
        );
        print_trace(trace);
    }
    exit_status(had_errors, any_findings)
}

/// The `--oracle` mode: run the analyzer/executor differential over
/// every parsed program and report the TP/FP/FN verdict matrix. Exit 2
/// on read/parse errors, 1 on any false negative, 0 on agreement.
fn run_oracle(
    files: &[ScannedFile],
    errored_files: usize,
    had_errors: bool,
    format: OutputFormat,
    stats: bool,
    trace: Option<&TraceCollector>,
) -> ExitCode {
    let oracle = Oracle::new();
    let mut matrix = Matrix::new();
    let mut records: Vec<OracleRecord> = Vec::new();
    for file in files {
        let Some(program) = &file.program else { continue };
        let report = oracle.differential(program);
        matrix.absorb(&report);
        records.push(OracleRecord { path: file.path.clone(), report });
    }
    if let Some(t) = trace {
        let (tp, fp, fnn) = matrix.totals();
        t.count("oracle.programs", records.len() as u64);
        t.count("oracle.true-positives", tp);
        t.count("oracle.false-positives", fp);
        t.count("oracle.false-negatives", fnn);
    }

    match format {
        OutputFormat::Text => {
            for record in &records {
                for v in &record.report.verdicts {
                    println!(
                        "{}: {} [{}] {}#{}{}",
                        record.path,
                        v.verdict,
                        v.kind.name(),
                        v.site.function,
                        v.site.line,
                        if v.events.is_empty() {
                            String::new()
                        } else {
                            format!(" (events: {})", v.events.join(", "))
                        },
                    );
                }
            }
            println!("{matrix}");
        }
        OutputFormat::Json => {
            print!("{}", emit::render_oracle_json(&records, &matrix));
        }
        // Rejected during argument validation.
        OutputFormat::Sarif => unreachable!("--oracle forbids sarif"),
    }

    if stats {
        eprintln!(
            "stats: {} programs, {} errored files, {} verdicts",
            records.len(),
            errored_files,
            records.iter().map(|r| r.report.verdicts.len()).sum::<usize>(),
        );
        print_trace(trace);
    }

    let false_negatives = records
        .iter()
        .flat_map(|r| &r.report.verdicts)
        .filter(|v| v.verdict == Verdict::FalseNegative)
        .count();
    exit_status(had_errors, false_negatives > 0)
}
