//! `pncheckd` — the placement-new checker as a persistent service.
//!
//! ```text
//! usage: pncheckd [OPTIONS]
//!
//!   Serves the pncheckd/1 protocol (newline-delimited JSON requests,
//!   framed responses) on stdin/stdout, or on a TCP socket with
//!   --listen. The daemon keeps one warm analysis engine per requested
//!   configuration, so repeated analyses of unchanged sources are
//!   served from memory without parsing or re-analysis.
//!
//!   --listen ADDR:PORT       serve TCP instead of stdio (port 0 picks
//!                            a free port; the bound address is printed
//!                            to stderr as "pncheckd: listening on …")
//!   --jobs N                 default worker threads per scan
//!                            (requests may override per-request)
//!   --min-severity LEVEL     default reporting threshold
//!   --disable KIND           disable one finding kind (repeatable)
//!   --cache-dir DIR          persistent cache shared across restarts;
//!                            an unusable DIR fails startup (exit 2)
//!   --cache-backend KIND     persistent-tier layout: "dir" (one file
//!                            per entry, shareable between processes;
//!                            the default) or "indexed" (one
//!                            append-only indexed store, one writer)
//!   --shard K/N              serve replica K of an N-way fleet: only
//!                            fingerprints with key % N == K are kept
//!                            warm or written to the cache (results
//!                            stay complete for every request)
//!   --max-request-bytes N    request line limit (default 4194304)
//!   --max-connections N      fair-queuing design point (default 32);
//!                            connections beyond it queue, and "busy"
//!                            only appears at the hard cap (8x this)
//!   --client-quota N         most requests one connection may have
//!                            queued + in flight before the excess is
//!                            answered "quota-exceeded" (default 16)
//!   --idle-timeout-secs N    close TCP connections with nothing
//!                            queued or in flight after N idle seconds
//!                            (0 = never; default 300)
//!   --watch ROOT             poll ROOT (repeatable) with delta scans
//!                            instead of serving a socket: each cycle
//!                            re-stats the tracked files, re-analyzes
//!                            only the invalidation cone, and prints
//!                            the fresh envelope to stdout whenever
//!                            anything changed (the first cycle always
//!                            prints). Cycle counters go to stderr.
//!   --watch-interval-ms N    delay between watch cycles (default 500)
//!   --watch-cycles N         stop after N cycles (default 0 = forever)
//! ```
//!
//! See `docs/pnx-syntax.md` for the full protocol reference. Exit
//! status: 0 after a clean shutdown (EOF, a `shutdown` request, or the
//! last `--watch-cycles` cycle), 2 on usage errors or an unusable
//! `--cache-dir`.

use std::io;
use std::net::TcpListener;
use std::process::ExitCode;
use std::time::Duration;

use pnew_detector::cliopts::{self, CommonOpts, ScanMode};
use pnew_detector::emit::{self, OutputFormat};
use pnew_detector::server::{Server, ServerConfig};

const USAGE: &str = "usage: pncheckd [--listen ADDR:PORT] [--jobs N] [--min-severity LEVEL] [--disable KIND]... [--cache-dir DIR] [--cache-backend dir|indexed] [--shard K/N] [--max-request-bytes N] [--max-connections N] [--client-quota N] [--idle-timeout-secs N] [--watch ROOT]... [--watch-interval-ms N] [--watch-cycles N]";

fn main() -> ExitCode {
    let mut listen: Option<String> = None;
    let mut watch_roots: Vec<String> = Vec::new();
    let mut watch_interval_ms: u64 = 500;
    let mut watch_cycles: u64 = 0;
    let mut opts = CommonOpts::default();
    let mut server_config = ServerConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if let Some(result) = opts.accept(&arg, &mut args) {
            if let Err(e) = result {
                eprintln!("pncheckd: {e}");
                return ExitCode::from(2);
            }
            continue;
        }
        macro_rules! numeric_value {
            ($flag:literal) => {
                match args.next().and_then(|v| v.parse().ok()) {
                    Some(v) => v,
                    None => {
                        eprintln!("pncheckd: {} needs a non-negative integer", $flag);
                        return ExitCode::from(2);
                    }
                }
            };
        }
        match arg.as_str() {
            "--listen" => {
                let Some(addr) = args.next() else {
                    eprintln!("pncheckd: --listen needs ADDR:PORT");
                    return ExitCode::from(2);
                };
                listen = Some(addr);
            }
            "--shard" => {
                let Some(spec) = args.next() else {
                    eprintln!("pncheckd: --shard needs K/N");
                    return ExitCode::from(2);
                };
                match cliopts::parse_shard(&spec) {
                    Ok(spec) => server_config.shard = Some(spec),
                    Err(e) => {
                        eprintln!("pncheckd: {e}");
                        return ExitCode::from(2);
                    }
                }
            }
            "--max-request-bytes" => {
                let n: usize = numeric_value!("--max-request-bytes");
                if n == 0 {
                    eprintln!("pncheckd: --max-request-bytes needs a positive integer");
                    return ExitCode::from(2);
                }
                server_config.max_request_bytes = n;
            }
            "--max-connections" => {
                let n: usize = numeric_value!("--max-connections");
                if n == 0 {
                    eprintln!("pncheckd: --max-connections needs a positive integer");
                    return ExitCode::from(2);
                }
                server_config.max_connections = n;
            }
            "--client-quota" => {
                let n: usize = numeric_value!("--client-quota");
                if n == 0 {
                    eprintln!("pncheckd: --client-quota needs a positive integer");
                    return ExitCode::from(2);
                }
                server_config.client_quota = n;
            }
            "--idle-timeout-secs" => {
                let n: u64 = numeric_value!("--idle-timeout-secs");
                server_config.idle_timeout = (n > 0).then(|| Duration::from_secs(n));
            }
            "--watch" => {
                let Some(root) = args.next() else {
                    eprintln!("pncheckd: --watch needs a file or directory");
                    return ExitCode::from(2);
                };
                watch_roots.push(root);
            }
            "--watch-interval-ms" => {
                watch_interval_ms = numeric_value!("--watch-interval-ms");
            }
            "--watch-cycles" => {
                watch_cycles = numeric_value!("--watch-cycles");
            }
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("pncheckd: unknown argument {other:?}\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    // The daemon's text/json/sarif default belongs to each request, not
    // the process; reject the flag rather than ignore it silently.
    if opts.format != OutputFormat::default() {
        eprintln!("pncheckd: --format is per-request; pass \"format\" in the analyze request");
        return ExitCode::from(2);
    }
    if !watch_roots.is_empty() && listen.is_some() {
        eprintln!("pncheckd: --watch and --listen are exclusive");
        return ExitCode::from(2);
    }
    server_config.base = opts.config;
    server_config.jobs = opts.jobs;
    server_config.cache_dir = opts.cache_dir;
    server_config.cache_backend = opts.cache_backend;

    // Like pncheck, an unusable --cache-dir fails startup loudly
    // instead of degrading to an uncached daemon.
    let server = match Server::new(server_config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("pncheckd: error: cannot open cache dir: {e}");
            return ExitCode::from(2);
        }
    };

    if !watch_roots.is_empty() {
        watch(&server, &watch_roots, watch_interval_ms, watch_cycles);
        return ExitCode::SUCCESS;
    }

    let served = match listen {
        None => {
            let stdin = io::stdin().lock();
            let stdout = io::stdout().lock();
            server.serve_connection(stdin, stdout)
        }
        Some(addr) => match TcpListener::bind(&addr) {
            Ok(listener) => {
                match listener.local_addr() {
                    Ok(local) => eprintln!("pncheckd: listening on {local}"),
                    Err(_) => eprintln!("pncheckd: listening on {addr}"),
                }
                server.serve_listener(listener)
            }
            Err(e) => {
                eprintln!("pncheckd: cannot listen on {addr}: {e}");
                return ExitCode::from(2);
            }
        },
    };
    match served {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("pncheckd: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Polls the registered roots with delta scans on the server's base
/// engine: the scan a `delta` request runs, without the protocol round
/// trip. The envelope lands on stdout whenever anything changed (and on
/// the first cycle, so a consumer always has a baseline); the per-cycle
/// counters and unreadable inputs go to stderr.
fn watch(server: &Server, roots: &[String], interval_ms: u64, cycles: u64) {
    let engine = server.base_engine();
    for cycle in 1u64.. {
        let scan = cliopts::scan(&engine, roots, ScanMode::Delta { changed: None }, engine.jobs());
        for line in scan.expand_errors {
            eprintln!("pncheckd: watch: {line}");
        }
        let mut records = Vec::with_capacity(scan.files.len());
        for file in scan.files {
            match file.record {
                Ok(record) => records.push(record),
                Err(line) => eprintln!("pncheckd: watch: {line}"),
            }
        }
        let d = scan.delta.expect("a delta scan counts its invalidation");
        eprintln!(
            "pncheckd: watch cycle {cycle}: {} tracked, {} changed, {} added, {} removed, \
             cone {}/{} functions, {} reanalyzed, {} reused",
            d.tracked_files,
            d.changed_files,
            d.added_files,
            d.removed_files,
            d.cone_functions,
            d.tracked_functions,
            d.functions_reanalyzed,
            d.functions_reused,
        );
        if cycle == 1 || d.changed_files + d.added_files + d.removed_files > 0 {
            print!("{}", emit::render_records(OutputFormat::Json, &records, None, None, |_, _| {}));
            let _ = io::Write::flush(&mut io::stdout());
        }
        if cycle == cycles {
            return;
        }
        // Pacing goes through the server's clock, not a raw sleep, so a
        // simulated watch loop runs on virtual time.
        server.clock().sleep(Duration::from_millis(interval_ms));
    }
}
