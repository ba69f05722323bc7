//! `pncheck` — the placement-new vulnerability checker as a CLI.
//!
//! ```text
//! usage: pncheck [OPTIONS] PATH...
//!        pncheck [OPTIONS] -              (read one program from stdin)
//!
//!   PATH may be a .pnx file or a directory, which is scanned
//!   recursively for *.pnx files (in sorted path order). Inputs are
//!   canonicalized and deduplicated, so a file named both directly and
//!   via an enclosing directory is scanned once. Any other argument
//!   that starts with `-` is an option, so name a file called `-x` as
//!   `./-x`.
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
//!   --stats                 print scan throughput, cache counters
//!                           (both the in-memory and the on-disk tier),
//!                           and per-pass trace lines — including
//!                           summary computation/application counts —
//!                           to stderr; with --format json, also embed
//!                           them in the envelope
//! ```
//!
//! Exit status: 0 when no warning-level findings, 1 when any program has
//! them, 2 on usage errors (an unknown `-`-prefixed argument included:
//! it is rejected before any file is read) or when any file failed to
//! read or parse.
//! Under `--oracle`, exit 1 means a false negative was found instead.
//! A bad file does not abort the run: the parser recovers and reports
//! *all* leading syntax errors with line and column, the remaining files
//! are still scanned, and the exit code is 2.

use std::borrow::Cow;
use std::io::Read as _;
use std::process::ExitCode;
use std::sync::Arc;

use pnew_detector::cliopts::{self, CommonOpts, ScanMode, ScannedFile};
use pnew_detector::emit::{self, FileRecord, OracleRecord, OutputFormat};
use pnew_detector::oracle::{Matrix, Oracle, Verdict};
use pnew_detector::trace::TraceCollector;
use pnew_detector::{
    parse_program_recovering, Analyzer, BaselineChecker, BatchEngine, BatchStats, Fixer,
    PersistentCache, Program,
};

const USAGE: &str = "usage: pncheck [--baseline] [--fix] [--oracle] [--format text|json|sarif] [--min-severity LEVEL] [--disable KIND]... [--jobs N] [--cache-dir DIR] [--cache-backend dir|indexed] [--delta] [--stats] PATH... | -";

fn main() -> ExitCode {
    let mut baseline = false;
    let mut fix = false;
    let mut oracle = false;
    let mut stats = false;
    let mut delta = false;
    let mut opts = CommonOpts::default();
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
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other if other.starts_with('-') && other != "-" => {
                eprintln!("pncheck: unknown argument {other:?}\n{USAGE}");
                return ExitCode::from(2);
            }
            _ => inputs.push(arg),
        }
    }
    let CommonOpts { jobs, format, config, cache_dir, cache_backend } = opts;
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

    let trace = stats.then(|| Arc::new(TraceCollector::new()));
    // The text for `-`, read once. An unreadable stdin is reported like
    // an unreadable file, in input order.
    let stdin = inputs.iter().any(|i| i == "-").then(|| {
        let mut text = String::new();
        match std::io::stdin().read_to_string(&mut text) {
            Ok(_) => Ok(text),
            Err(_) => Err("cannot read stdin".to_owned()),
        }
    });
    let stdin = stdin.as_ref().map(|text| text.as_deref().map_err(Clone::clone));

    if oracle {
        return run_oracle(&inputs, stdin, format, stats, trace.as_deref());
    }

    // The baseline checker needs the IR up front; the real analyzer
    // scans raw sources through the engine, so warm disk-cache hits
    // skip parsing entirely.
    let (files, expand_errors, scan_stats, delta_stats) = if baseline {
        let (paths, expand_errors) = cliopts::expand_inputs(&inputs);
        let checker = BaselineChecker::new();
        let files = parse_all(cliopts::read_inputs(paths, stdin))
            .into_iter()
            .map(|(mut file, program)| {
                if let (Ok(record), Some(program)) = (&mut file.record, &program) {
                    record.report = Some(checker.analyze(program));
                }
                file
            })
            .collect();
        (files, expand_errors, None, None)
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
        let mode = if delta { ScanMode::Delta { changed: None } } else { ScanMode::Full { stdin } };
        let scan = cliopts::scan(&engine, &inputs, mode, engine.jobs());
        (scan.files, scan.expand_errors, Some(scan.stats), scan.delta)
    };

    for e in &expand_errors {
        eprintln!("pncheck: {e}");
    }
    if delta_stats.is_some_and(|d| d.manifest_save_failed) {
        eprintln!("pncheck: warning: could not write the delta manifest; next run rescans cold");
    }
    let (records, sources, unreadable) = report_inputs(files);
    // A dying cache must not look like a working one: warn once per
    // scan when any entry failed to persist.
    if let Some(s) = scan_stats.filter(|s| s.persistent_write_errors > 0) {
        eprintln!(
            "pncheck: warning: {} cache write error(s); those results were not persisted",
            s.persistent_write_errors
        );
    }

    // Stats and trace carry wall-clock timings, so they embed in the
    // JSON envelope only on request — the default envelope is
    // deterministic.
    let embedded = if stats { scan_stats.as_ref() } else { None };
    let snapshot = trace.as_ref().map(|t| t.snapshot());
    let out = emit::render_records(format, &records, embedded, snapshot.as_ref(), |i, out| {
        if fix {
            // The report may have come from the disk cache, so the IR is
            // re-derived here from the text that was analyzed; --fix is a
            // rare, interactive path where one extra parse is cheap.
            let program =
                parse_program_recovering(&sources[i]).expect("a file with a report parses");
            let (fixed, fixes) = Fixer::new().fix(&program);
            for f in &fixes {
                eprintln!("fix: {f}");
            }
            out.push_str(&pnew_detector::pretty_program(&fixed));
        }
    });
    print!("{out}");

    if stats {
        // Errored files = unreadable inputs + files that read but failed
        // to parse. Neither kind ever produces a report, so the count is
        // exact regardless of --jobs.
        let errored_files = unreadable + records.iter().filter(|r| r.report.is_none()).count();
        match &scan_stats {
            Some(s) => print_stats(s, errored_files, cache_dir.is_some()),
            None => eprintln!("stats: baseline mode scans serially; no batch stats"),
        }
        if let Some(d) = delta_stats {
            eprintln!(
                "delta: {} tracked, {} unchanged, {} changed, {} added, {} removed, {} seeded, cone {}/{} functions ({} changed), {} functions reanalyzed, {} functions reused, {} stat fastpath",
                d.tracked_files,
                d.unchanged_files,
                d.changed_files,
                d.added_files,
                d.removed_files,
                d.seeded_files,
                d.cone_functions,
                d.tracked_functions,
                d.changed_functions,
                d.functions_reanalyzed,
                d.functions_reused,
                d.stat_fastpath_hits,
            );
        }
        print_trace(trace.as_deref());
    }
    ExitCode::from(emit::exit_code(&records, !expand_errors.is_empty() || unreadable > 0))
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

/// Parses every input that was read, for the modes that need the IR
/// up front (`--baseline`, `--oracle`): each input as a file whose
/// record has no report yet (only its parse errors), with its program
/// when it parsed.
fn parse_all<'a>(
    texts: Vec<(String, Result<Cow<'a, str>, String>)>,
) -> Vec<(ScannedFile<'a>, Option<Program>)> {
    texts
        .into_iter()
        .map(|(path, text)| {
            let (record, program, source) = match text {
                Err(line) => (Err(line), None, None),
                Ok(source) => {
                    let (program, errors) = match parse_program_recovering(&source) {
                        Ok(program) => (Some(program), Vec::new()),
                        Err(errors) => (None, errors),
                    };
                    (Ok(FileRecord { path, report: None, errors }), program, Some(source))
                }
            };
            (ScannedFile { record, cache_corrupt: false, source }, program)
        })
        .collect()
}

/// Names every bad input on stderr, in input order: unreadable inputs,
/// syntax errors with their path, corrupt cache entries. Returns the
/// records of the inputs that were read, their texts (full scans only),
/// and how many inputs were unreadable — those never become a record.
fn report_inputs(files: Vec<ScannedFile<'_>>) -> (Vec<FileRecord>, Vec<Cow<'_, str>>, usize) {
    let mut unreadable = 0usize;
    let mut records = Vec::with_capacity(files.len());
    let mut sources = Vec::with_capacity(files.len());
    for file in files {
        let record = match file.record {
            Ok(record) => record,
            Err(line) => {
                eprintln!("pncheck: {line}");
                unreadable += 1;
                continue;
            }
        };
        for e in &record.errors {
            eprintln!("pncheck: {}: {e}", record.path);
        }
        if file.cache_corrupt {
            eprintln!("pncheck: warning: corrupt cache entry for {}; re-analyzed", record.path);
        }
        records.push(record);
        sources.extend(file.source);
    }
    (records, sources, unreadable)
}

/// The `--oracle` mode: run the analyzer/executor differential over
/// every parsed program and report the TP/FP/FN verdict matrix. Exit 2
/// on read/parse errors, 1 on any false negative, 0 on agreement.
fn run_oracle(
    inputs: &[String],
    stdin: Option<Result<&str, String>>,
    format: OutputFormat,
    stats: bool,
    trace: Option<&TraceCollector>,
) -> ExitCode {
    let (paths, expand_errors) = cliopts::expand_inputs(inputs);
    for e in &expand_errors {
        eprintln!("pncheck: {e}");
    }
    let (files, programs): (Vec<_>, Vec<_>) =
        parse_all(cliopts::read_inputs(paths, stdin)).into_iter().unzip();
    let oracle = Oracle::new();
    let mut matrix = Matrix::new();
    let mut records: Vec<OracleRecord> = Vec::new();
    for (file, program) in files.iter().zip(&programs) {
        let (Ok(record), Some(program)) = (&file.record, program) else { continue };
        let report = oracle.differential(program);
        matrix.absorb(&report);
        records.push(OracleRecord { path: record.path.clone(), report });
    }
    let (scanned, _, unreadable) = report_inputs(files);
    let errored_files = unreadable + scanned.len() - records.len();
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
    let had_errors = !expand_errors.is_empty() || errored_files > 0;
    ExitCode::from(if had_errors { 2 } else { u8::from(false_negatives > 0) })
}
