//! Shared option parsing, input collection and scanning for the
//! detector's front ends: `pncheck`, the `pncheckd` daemon, and
//! `xcheck`.
//!
//! All three accept the same scan options (`--jobs`, `--min-severity`,
//! `--disable`, output format) and the same PATH semantics (a `.pnx`
//! file, or a directory scanned recursively in sorted order, with
//! canonicalize-and-dedup). Centralizing the value parsing here means a
//! request to the daemon is validated by *exactly* the rules the CLI
//! enforces — the two cannot drift, and the protocol tests assert the
//! error messages byte-for-byte against the CLI's. [`scan`] is the one
//! scan path of `pncheck` and `pncheckd`, full and delta alike: it
//! expands and reads the inputs, runs the engine, and shapes each
//! outcome into the [`FileRecord`] the envelopes render, so the two
//! front ends report the same records for the same inputs. (Modes that
//! need the IR up front — `pncheck --baseline`/`--oracle`, `xcheck` —
//! read with [`read_inputs`] and parse themselves.)

use std::borrow::Cow;
use std::collections::HashSet;
use std::path::{Path, PathBuf};

use crate::analysis::AnalyzerConfig;
use crate::backend::BackendKind;
use crate::batch::{BatchEngine, BatchStats, DeltaStats, ShardSpec};
use crate::emit::{FileRecord, OutputFormat};
use crate::findings::{FindingKind, Severity};

/// Parses a worker count: a positive integer.
pub fn parse_jobs(value: &str) -> Result<usize, String> {
    match value.parse::<usize>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err("--jobs needs a positive integer".to_owned()),
    }
}

/// Parses a reporting threshold (`info|warning|error`).
pub fn parse_min_severity(value: &str) -> Result<Severity, String> {
    value.parse::<Severity>()
}

/// Parses one finding kind to disable.
pub fn parse_disable(value: &str) -> Result<FindingKind, String> {
    FindingKind::from_name(value).ok_or_else(|| format!("unknown finding kind {value:?}"))
}

/// Parses an output format (`text|json|sarif`).
pub fn parse_format(value: &str) -> Result<OutputFormat, String> {
    value.parse::<OutputFormat>()
}

/// Parses a cache backend selection (`dir|indexed`).
pub fn parse_cache_backend(value: &str) -> Result<BackendKind, String> {
    BackendKind::parse(value)
}

/// Parses a shard slice `K/N`: replica K (zero-based) of N, so `0/2`
/// and `1/2` together cover the fingerprint space.
pub fn parse_shard(value: &str) -> Result<ShardSpec, String> {
    let bad = || format!("--shard needs K/N with K < N (got {value:?})");
    let (index, count) = value.split_once('/').ok_or_else(bad)?;
    let index: u32 = index.parse().map_err(|_| bad())?;
    let count: u32 = count.parse().map_err(|_| bad())?;
    if count == 0 || index >= count {
        return Err(bad());
    }
    Ok(ShardSpec { index, count })
}

/// The options `pncheck` and `pncheckd` share, with their defaults.
#[derive(Debug, Clone, Default)]
pub struct CommonOpts {
    /// `--jobs N`; `None` means the engine's default (available
    /// parallelism).
    pub jobs: Option<usize>,
    /// Output format selection.
    pub format: OutputFormat,
    /// Analyzer configuration (`--min-severity`, `--disable`).
    pub config: AnalyzerConfig,
    /// `--cache-dir DIR`: the persistent cache, if any.
    pub cache_dir: Option<PathBuf>,
    /// `--cache-backend dir|indexed`.
    pub cache_backend: BackendKind,
}

impl CommonOpts {
    /// Tries to consume `arg` (pulling any value from `rest`) as one of
    /// the shared flags.
    ///
    /// Returns `None` when the flag is not a shared one (the caller
    /// handles it), `Some(Ok(()))` when it was applied, and
    /// `Some(Err(message))` when it was recognized but its value was
    /// missing or invalid — the caller prints the message (prefixed
    /// with its own name) and exits 2.
    pub fn accept(
        &mut self,
        arg: &str,
        rest: &mut dyn Iterator<Item = String>,
    ) -> Option<Result<(), String>> {
        match arg {
            "--jobs" => Some(match rest.next() {
                Some(v) => parse_jobs(&v).map(|n| self.jobs = Some(n)),
                None => Err("--jobs needs a positive integer".to_owned()),
            }),
            "--min-severity" => Some(match rest.next() {
                Some(v) => parse_min_severity(&v).map(|s| self.config.min_severity = s),
                None => Err("--min-severity needs a value".to_owned()),
            }),
            "--disable" => Some(match rest.next() {
                Some(v) => parse_disable(&v).map(|k| self.config.disabled.push(k)),
                None => Err("--disable needs a finding kind".to_owned()),
            }),
            "--format" => Some(match rest.next() {
                Some(v) => parse_format(&v).map(|f| self.format = f),
                None => Err("--format needs a value (text|json|sarif)".to_owned()),
            }),
            "--cache-dir" => Some(match rest.next() {
                Some(v) => {
                    self.cache_dir = Some(PathBuf::from(v));
                    Ok(())
                }
                None => Err("--cache-dir needs a directory".to_owned()),
            }),
            "--cache-backend" => Some(match rest.next() {
                Some(v) => parse_cache_backend(&v).map(|k| self.cache_backend = k),
                None => Err("--cache-backend needs a value (dir|indexed)".to_owned()),
            }),
            _ => None,
        }
    }
}

/// Recursively collects `*.pnx` files under `dir`, sorted by path so
/// the scan order (and therefore the output order) is deterministic.
pub fn collect_pnx(dir: &Path, out: &mut Vec<String>) -> std::io::Result<()> {
    let mut entries: Vec<std::fs::DirEntry> = std::fs::read_dir(dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(std::fs::DirEntry::path);
    for entry in entries {
        let path = entry.path();
        if path.is_dir() {
            collect_pnx(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "pnx") {
            out.push(path.to_string_lossy().into_owned());
        }
    }
    Ok(())
}

/// Expands directories to their sorted `*.pnx` contents, then
/// canonicalizes and deduplicates, so a file named both directly and
/// via an enclosing directory scans once. `-` (stdin) passes through
/// untouched. Returns the paths and one `"{input}: {error}"` line per
/// directory that could not be read.
pub fn expand_inputs(inputs: &[String]) -> (Vec<String>, Vec<String>) {
    let mut errors = Vec::new();
    let mut paths = Vec::new();
    for input in inputs {
        if input != "-" && Path::new(input).is_dir() {
            if let Err(e) = collect_pnx(Path::new(input), &mut paths) {
                errors.push(format!("{input}: {e}"));
            }
        } else {
            paths.push(input.clone());
        }
    }
    let mut seen: HashSet<PathBuf> = HashSet::new();
    paths.retain(|path| {
        let key = if path == "-" {
            PathBuf::from("-")
        } else {
            std::fs::canonicalize(path).unwrap_or_else(|_| PathBuf::from(path))
        };
        seen.insert(key)
    });
    (paths, errors)
}

/// Reads every expanded path, in order. The input `-` takes `stdin`
/// when one is given: its text, or the line naming why it could not be
/// read; without one, `-` is read as a file. A read error becomes the
/// line `"{path}: {error}"`.
pub fn read_inputs<'a>(
    paths: Vec<String>,
    stdin: Option<Result<&'a str, String>>,
) -> Vec<(String, Result<Cow<'a, str>, String>)> {
    paths
        .into_iter()
        .map(|path| {
            let text = match &stdin {
                Some(text) if path == "-" => text.clone().map(Cow::Borrowed),
                _ => std::fs::read_to_string(&path)
                    .map(Cow::Owned)
                    .map_err(|e| format!("{path}: {e}")),
            };
            (path, text)
        })
        .collect()
}

/// How [`scan`] analyzes its inputs.
#[derive(Debug)]
pub enum ScanMode<'a> {
    /// Read and analyze every input through the engine's cache tiers.
    /// `stdin` is the text for the input `-` (see [`read_inputs`]).
    Full {
        /// The text for `-`, or the line naming why it could not be read.
        stdin: Option<Result<&'a str, String>>,
    },
    /// Rescan incrementally against the engine's tracked index
    /// ([`BatchEngine::delta_scan`]), trusting the optional `changed`
    /// hint. Inputs are paths only.
    Delta {
        /// Client-named changed paths; `None` stats every tracked file.
        changed: Option<&'a [String]>,
    },
}

/// One input of a [`scan`], in input order.
#[derive(Debug, PartialEq)]
pub struct ScannedFile<'a> {
    /// The file's record, or the line naming why it could not be read
    /// (`"{path}: {error}"`).
    pub record: Result<FileRecord, String>,
    /// An on-disk cache entry existed but was corrupt; the file was
    /// re-analyzed and the entry rewritten.
    pub cache_corrupt: bool,
    /// The text that was analyzed. Full scans only: a delta scan never
    /// reads the files it serves unchanged.
    pub source: Option<Cow<'a, str>>,
}

/// Everything one [`scan`] produced.
#[derive(Debug)]
pub struct Scan<'a> {
    /// One entry per expanded input, in input order.
    pub files: Vec<ScannedFile<'a>>,
    /// One `"{input}: {error}"` line per directory that could not be
    /// expanded.
    pub expand_errors: Vec<String>,
    /// The engine's counters for this scan.
    pub stats: BatchStats,
    /// Invalidation counters, for a delta scan.
    pub delta: Option<DeltaStats>,
}

/// The front ends' scan: expands `inputs` ([`expand_inputs`]), then
/// reads and analyzes them through `engine` on `jobs` workers, fully or
/// incrementally as `mode` says.
pub fn scan<'a>(
    engine: &BatchEngine,
    inputs: &[String],
    mode: ScanMode<'a>,
    jobs: usize,
) -> Scan<'a> {
    let (paths, expand_errors) = expand_inputs(inputs);
    let (files, stats, delta) = match mode {
        ScanMode::Full { stdin } => {
            let texts = read_inputs(paths, stdin);
            let sources: Vec<&str> = texts.iter().filter_map(|(_, t)| t.as_deref().ok()).collect();
            let (outcomes, stats) = engine.scan_sources(&sources, jobs);
            let mut outcomes = outcomes.into_iter();
            let files = texts
                .into_iter()
                .map(|(path, text)| match text {
                    Err(line) => {
                        ScannedFile { record: Err(line), cache_corrupt: false, source: None }
                    }
                    Ok(source) => {
                        let o = outcomes.next().expect("one outcome per text read");
                        ScannedFile {
                            record: Ok(FileRecord { path, report: o.report, errors: o.errors }),
                            cache_corrupt: o.cache_corrupt,
                            source: Some(source),
                        }
                    }
                })
                .collect();
            (files, stats, None)
        }
        ScanMode::Delta { changed } => {
            let (outcomes, stats, delta) = engine.delta_scan(&paths, changed, jobs);
            let files = outcomes
                .into_iter()
                .map(|o| ScannedFile {
                    record: match o.read_error {
                        Some(e) => Err(format!("{}: {e}", o.path)),
                        None => Ok(FileRecord {
                            path: o.path,
                            report: o.analysis.map(|a| a.report.clone()),
                            errors: o.errors,
                        }),
                    },
                    cache_corrupt: o.cache_corrupt,
                    source: None,
                })
                .collect();
            (files, stats, Some(delta))
        }
    };
    Scan { files, expand_errors, stats, delta }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_parsers_accept_valid_and_reject_invalid() {
        assert_eq!(parse_jobs("4"), Ok(4));
        assert!(parse_jobs("0").is_err());
        assert!(parse_jobs("many").is_err());
        assert_eq!(parse_min_severity("warning"), Ok(Severity::Warning));
        assert!(parse_min_severity("loud").unwrap_err().contains("unknown severity"));
        assert_eq!(parse_disable("oversized-placement"), Ok(FindingKind::OversizedPlacement));
        assert!(parse_disable("bogus").unwrap_err().contains("unknown finding kind"));
        assert_eq!(parse_format("sarif"), Ok(OutputFormat::Sarif));
        assert!(parse_format("yaml").unwrap_err().contains("unknown format"));
        assert_eq!(parse_cache_backend("indexed"), Ok(BackendKind::Indexed));
        assert!(parse_cache_backend("tape").unwrap_err().contains("unknown cache backend"));
    }

    #[test]
    fn shard_parser_requires_k_strictly_below_n() {
        assert_eq!(parse_shard("0/2"), Ok(ShardSpec { index: 0, count: 2 }));
        assert_eq!(parse_shard("3/8"), Ok(ShardSpec { index: 3, count: 8 }));
        for bad in ["2/2", "5/4", "0/0", "1", "a/b", "-1/2", "1/", "/2", ""] {
            assert!(parse_shard(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn accept_consumes_shared_flags_and_ignores_others() {
        let mut opts = CommonOpts::default();
        let mut rest = ["2", "error", "/tmp/c", "indexed"].map(str::to_owned).into_iter();
        assert_eq!(opts.accept("--jobs", &mut rest), Some(Ok(())));
        assert_eq!(opts.accept("--min-severity", &mut rest), Some(Ok(())));
        assert_eq!(opts.accept("--cache-dir", &mut rest), Some(Ok(())));
        assert_eq!(opts.accept("--cache-backend", &mut rest), Some(Ok(())));
        assert_eq!(opts.accept("--baseline", &mut rest), None);
        assert_eq!(opts.accept("--no-summaries", &mut rest), None);
        assert_eq!(opts.jobs, Some(2));
        assert_eq!(opts.config.min_severity, Severity::Error);
        assert_eq!(opts.cache_dir, Some(PathBuf::from("/tmp/c")));
        assert_eq!(opts.cache_backend, BackendKind::Indexed);
    }

    #[test]
    fn accept_reports_missing_and_bad_values() {
        let mut opts = CommonOpts::default();
        let mut empty = Vec::new().into_iter();
        let err = opts.accept("--jobs", &mut empty).unwrap().unwrap_err();
        assert!(err.contains("--jobs"), "{err}");
        let mut bad = vec!["nope".to_owned()].into_iter();
        let err = opts.accept("--format", &mut bad).unwrap().unwrap_err();
        assert!(err.contains("unknown format"), "{err}");
        let err = opts.accept("--cache-dir", &mut empty).unwrap().unwrap_err();
        assert_eq!(err, "--cache-dir needs a directory");
        let err = opts.accept("--cache-backend", &mut empty).unwrap().unwrap_err();
        assert_eq!(err, "--cache-backend needs a value (dir|indexed)");
        let mut bad = vec!["tape".to_owned()].into_iter();
        let err = opts.accept("--cache-backend", &mut bad).unwrap().unwrap_err();
        assert!(err.contains("unknown cache backend"), "{err}");
    }

    #[test]
    fn expand_inputs_dedups_and_passes_stdin_through() {
        let dir = std::env::temp_dir().join(format!("pnx-cliopts-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(dir.join("sub")).unwrap();
        std::fs::write(dir.join("a.pnx"), "program a;\n").unwrap();
        std::fs::write(dir.join("sub/b.pnx"), "program b;\n").unwrap();
        std::fs::write(dir.join("notes.txt"), "ignored").unwrap();
        let direct = dir.join("a.pnx").to_string_lossy().into_owned();
        let inputs =
            vec![dir.to_string_lossy().into_owned(), direct.clone(), "-".to_owned(), direct];
        let (paths, errors) = expand_inputs(&inputs);
        assert!(errors.is_empty(), "{errors:?}");
        // a.pnx once (dir + direct + repeat), b.pnx once, stdin once.
        assert_eq!(paths.len(), 3, "{paths:?}");
        assert!(paths.contains(&"-".to_owned()));
        assert!(paths.iter().filter(|p| p.ends_with("a.pnx")).count() == 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn read_inputs_gives_stdin_to_dash_only_when_supplied() {
        let dash = || vec!["-".to_owned()];
        let read = read_inputs(dash(), Some(Ok("program p;\n")));
        assert_eq!(read[0].1.as_deref(), Ok("program p;\n"));
        let read = read_inputs(dash(), Some(Err("cannot read stdin".to_owned())));
        assert_eq!(read[0].1, Err("cannot read stdin".to_owned()));
        // Without stdin, `-` is a file name like any other.
        let read = read_inputs(dash(), None);
        assert!(read[0].1.as_ref().unwrap_err().starts_with("-: "), "{:?}", read[0].1);
    }
}
