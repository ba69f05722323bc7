//! Machine-readable detector benchmark: measures the throughput claims
//! of the summary/cache work and writes them as JSON.
//!
//! ```text
//! usage: bench_detector [--smoke] [--out PATH]
//!
//!   --smoke    small corpora and fewer repetitions (CI-sized)
//!   --out PATH where to write the JSON (default: BENCH_detector.json)
//! ```
//!
//! Four dimensions, each the median of repeated runs:
//!
//! * `serial` / `parallel` — batch engine programs/sec over the pretty
//!   texts of the generated workload corpus (parse + analyze), cold
//!   in-memory cache every run;
//! * `warm_memory` — same corpus, served from the in-memory
//!   fingerprint cache;
//! * `disk` — cold source scan (parse + analyze + store) vs warm
//!   `--cache-dir`-style rescan where every file comes off disk;
//! * `daemon` — warm `analyze` requests/sec through the resident
//!   `pncheckd` protocol layer (request parse + cache hit + envelope);
//! * `fleet` — aggregate warm requests/sec over two sharded replicas
//!   (`--shard 0/2` / `--shard 1/2`, indexed backend), each serving the
//!   fingerprint slice it owns;
//! * `interval` — parse + analyze throughput over the guarded corpus, the
//!   value-range-analysis stress shape (guards, clamp loops, derived
//!   lengths);
//! * `interprocedural` — summary-based vs inline analysis over the
//!   deep call-graph corpus (depth 16, fan-in 8);
//! * `delta` — incremental rescan after one edited file in a large
//!   on-disk corpus (`delta_edit_ms`, `delta_speedup` vs the cold
//!   tracked scan), plus the hub-edit worst case over the fan-in
//!   corpus, where one edit invalidates a wide summary cone;
//! * `function_delta` — function-granular rescan: a single-function
//!   knob edit in a wide 300-function file (`fn_delta_edit_ms`,
//!   `fn_delta_speedup` vs whole-file re-analysis with function
//!   granularity off), and a shared-helper edit across every file of
//!   the hub corpus, where each file re-analyzes only its cone.

use std::path::Path;
use std::time::Instant;

use pnew_corpus::workload;
use pnew_detector::emit::json_string;
use pnew_detector::server::{Server, ServerConfig};
use pnew_detector::{
    pretty_program, source_fingerprint, Analyzer, AnalyzerConfig, BackendKind, BatchEngine,
    PersistentCache, ShardSpec,
};

/// Median wall-clock seconds of `runs` invocations of `f`.
fn median_secs(runs: usize, mut f: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..runs)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

/// Measures one incremental-edit scenario: writes `sources` under
/// `dir`, takes a cold tracked scan, then alternates one file between
/// its original text and `edited` and times the `delta_scan` that
/// re-analyzes exactly that file — once with the edit named in the
/// hint (the editor-integration fast path: no stat sweep) and once
/// unhinted (the watch-mode stat sweep over every tracked file).
/// Returns `(cold_secs, hinted_secs, sweep_secs, cone_functions)`.
fn delta_scenario(
    dir: &Path,
    sources: &[String],
    edited: &str,
    runs: usize,
) -> (f64, f64, f64, usize) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("delta corpus dir");
    let paths: Vec<String> = sources
        .iter()
        .enumerate()
        .map(|(i, src)| {
            let path = dir.join(format!("f{i:05}.pnx"));
            std::fs::write(&path, src).expect("corpus file writes");
            path.to_string_lossy().into_owned()
        })
        .collect();

    let engine = BatchEngine::new(Analyzer::new());
    let cold_s = {
        let t = Instant::now();
        let (outcomes, _, _) = engine.delta_scan(&paths, None, engine.jobs());
        assert_eq!(outcomes.len(), sources.len());
        t.elapsed().as_secs_f64()
    };

    // Alternate the first file between two texts so every timed rescan
    // sees exactly one changed file (a no-op rescan would flatter the
    // numbers). The ~microsecond file write rides inside the timed
    // region; it is what a real editor-save-to-report cycle pays.
    let target = paths[0].clone();
    let texts = [edited, sources[0].as_str()];
    let mut flip = 0usize;
    let mut cone = 0usize;
    let hint = vec![target.clone()];
    let hinted_s = median_secs(runs.max(2), || {
        std::fs::write(&target, texts[flip % 2]).expect("edit writes");
        flip += 1;
        let (_, _, delta) = engine.delta_scan(&paths, Some(&hint), engine.jobs());
        assert_eq!(delta.changed_files, 1, "exactly the edited file re-analyzes");
        assert_eq!(delta.unchanged_files, sources.len() - 1);
        cone = cone.max(delta.cone_functions);
    });
    let sweep_s = median_secs(runs.max(2), || {
        std::fs::write(&target, texts[flip % 2]).expect("edit writes");
        flip += 1;
        let (_, _, delta) = engine.delta_scan(&paths, None, engine.jobs());
        assert_eq!(delta.changed_files, 1, "the stat sweep finds the edit");
    });
    let _ = std::fs::remove_dir_all(dir);
    (cold_s, hinted_s, sweep_s, cone)
}

fn main() {
    let mut smoke = false;
    let mut out = String::from("BENCH_detector.json");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--out" => match args.next() {
                Some(path) => out = path,
                None => {
                    eprintln!("bench_detector: --out needs a path");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!("bench_detector: unknown argument {other:?}");
                eprintln!("usage: bench_detector [--smoke] [--out PATH]");
                std::process::exit(2);
            }
        }
    }

    let (corpus_size, deep_programs, runs) = if smoke { (150, 1, 3) } else { (1000, 4, 5) };
    let programs = workload::corpus(42, corpus_size);
    let sources: Vec<String> = programs.iter().map(pretty_program).collect();

    // Batch throughput: serial, parallel, warm in-memory cache.
    let serial = BatchEngine::new(Analyzer::new()).with_jobs(1);
    let serial_s = median_secs(runs, || {
        serial.clear_cache();
        serial.scan_sources_with_stats(&sources);
    });
    // Measure parallel throughput at the machine's detected
    // parallelism, and record it so runs on different hosts compare.
    let available_cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let parallel = BatchEngine::new(Analyzer::new()).with_jobs(available_cores);
    let parallel_jobs = parallel.jobs();
    let parallel_s = median_secs(runs, || {
        parallel.clear_cache();
        parallel.scan_sources_with_stats(&sources);
    });
    let warm_mem = BatchEngine::new(Analyzer::new());
    warm_mem.scan_sources_with_stats(&sources);
    let warm_mem_s = median_secs(runs, || {
        warm_mem.scan_sources_with_stats(&sources);
    });

    // Disk tier: cold populate vs warm rescan. The warm engine drops its
    // in-memory tier every run, so the rescan exercises only the
    // persistent cache — the `pncheck --cache-dir` warm-restart path.
    let dir = std::env::temp_dir().join(format!("pnx-bench-detector-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let analyzer = Analyzer::new();
    let cache = PersistentCache::open(&dir, analyzer.config()).expect("cache dir opens");
    let disk = BatchEngine::new(analyzer).with_persistent_cache(cache);
    let cold_disk_s = {
        let t = Instant::now();
        let (_, stats) = disk.scan_sources_with_stats(&sources);
        assert_eq!(stats.persistent_hits, 0, "cold run must not hit");
        t.elapsed().as_secs_f64()
    };
    let warm_disk_s = median_secs(runs, || {
        disk.clear_cache();
        let (_, stats) = disk.scan_sources_with_stats(&sources);
        assert_eq!(stats.persistent_hits as usize, sources.len(), "warm run must be all hits");
    });
    let _ = std::fs::remove_dir_all(&dir);

    // Daemon: warm analyze requests/sec through the pncheckd protocol
    // layer in-process — request parsing, the source-fingerprint cache
    // hit, and envelope rendering, without TCP or process-spawn noise.
    let server = Server::new(ServerConfig::default()).expect("server builds");
    let requests: Vec<String> = sources
        .iter()
        .map(|s| format!("{{\"op\":\"analyze\",\"source\":{}}}", json_string(s)))
        .collect();
    for request in &requests {
        server.handle_line(request); // warm every source
    }
    let daemon_warm_s = median_secs(runs, || {
        for request in &requests {
            let reply = server.handle_line(request);
            assert!(reply.header.contains("\"ok\":true"), "{}", reply.header);
        }
    });

    // Fleet: two sharded replicas over indexed single-file backends
    // split the warm fingerprint space. Each replica is warmed on — and
    // then serves — only the slice of the corpus its shard owns, routed
    // by the same source fingerprint the shard filter keys on. On this
    // one host the replicas are timed back to back; the fleet they
    // model runs on independent hosts concurrently, so the aggregate
    // rate is total requests over the slowest replica's wall clock.
    let fleet_replicas: u32 = 2;
    let mut fleet_requests = 0usize;
    let mut fleet_slowest_s = 0.0f64;
    for index in 0..fleet_replicas {
        let shard = ShardSpec { index, count: fleet_replicas };
        let dir =
            std::env::temp_dir().join(format!("pnx-bench-fleet-{index}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let replica = Server::new(ServerConfig {
            cache_dir: Some(dir.clone()),
            cache_backend: BackendKind::Indexed,
            shard: Some(shard),
            ..ServerConfig::default()
        })
        .expect("replica builds");
        let slice: Vec<&String> = sources
            .iter()
            .zip(&requests)
            .filter(|(source, _)| shard.owns(source_fingerprint(source)))
            .map(|(_, request)| request)
            .collect();
        for request in &slice {
            replica.handle_line(request); // warm the owned slice
        }
        let replica_s = median_secs(runs, || {
            for request in &slice {
                let reply = replica.handle_line(request);
                assert!(reply.header.contains("\"ok\":true"), "{}", reply.header);
            }
        });
        fleet_requests += slice.len();
        fleet_slowest_s = fleet_slowest_s.max(replica_s);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // Value-range analysis: parse + analyze throughput over the guarded
    // corpus, whose shapes (two-sided guards, clamp loops, derived
    // lengths) exercise the interval lattice — refinement, joins,
    // widening — harder than the mixed workload corpus does.
    let guarded: Vec<String> = workload::guarded_corpus(42, corpus_size)
        .iter()
        .map(|c| pretty_program(&c.program))
        .collect();
    let interval_engine = BatchEngine::new(Analyzer::new()).with_jobs(1);
    let interval_s = median_secs(runs, || {
        interval_engine.clear_cache();
        interval_engine.scan_sources_with_stats(&guarded);
    });

    // Interprocedural: summary vs inline over the deep call graphs.
    let deep = workload::deep_call_corpus(42, deep_programs);
    let summary_analyzer = Analyzer::new();
    let summary_s = median_secs(runs, || {
        for p in &deep {
            summary_analyzer.analyze(p);
        }
    });
    let inline_analyzer =
        Analyzer::with_config(AnalyzerConfig { use_summaries: false, ..AnalyzerConfig::default() });
    // Inline re-walks exponentially many paths; one timed run is plenty.
    let inline_runs = if smoke { 1 } else { 3 };
    let inline_s = median_secs(inline_runs, || {
        for p in &deep {
            inline_analyzer.analyze(p);
        }
    });

    // Delta: one edited file in a large on-disk corpus. The cold
    // tracked scan is the from-scratch cost the incremental path
    // amortizes away; the hinted rescan re-analyzes only the edit. The
    // corpus mixes a fan-in program in every tenth slot so its analysis
    // cost has the interprocedural weight of real code, not just the
    // small leaf programs of `workload::corpus`.
    let delta_files = if smoke { 300 } else { 10_000 };
    let small = workload::corpus(7, delta_files);
    let heavy = workload::fan_in_call_corpus(7, delta_files / 10);
    let delta_sources: Vec<String> =
        (0..delta_files)
            .map(|i| {
                if i % 10 == 5 {
                    pretty_program(&heavy[i / 10])
                } else {
                    pretty_program(&small[i])
                }
            })
            .collect();
    let edited = pretty_program(&workload::random_vulnerable_program(0xed17));
    let delta_dir = std::env::temp_dir().join(format!("pnx-bench-delta-{}", std::process::id()));
    let (delta_cold_s, delta_edit_s, delta_sweep_s, _) =
        delta_scenario(&delta_dir, &delta_sources, &edited, runs);

    // Hub edit: the fan-in corpus's worst case — the edited program's
    // chain functions feed CALL_WIDTH callers per level, so the one
    // edit invalidates the widest summary cone the workload generates.
    let hub_files = if smoke { 30 } else { 200 };
    let hub_sources: Vec<String> =
        workload::fan_in_call_corpus(7, hub_files).iter().map(pretty_program).collect();
    let hub_edited = pretty_program(&workload::fan_in_call_corpus(8, 1).remove(0));
    let hub_dir = std::env::temp_dir().join(format!("pnx-bench-hub-{}", std::process::id()));
    let (_, hub_edit_s, _, hub_cone) = delta_scenario(&hub_dir, &hub_sources, &hub_edited, runs);

    // Function-granular delta: a two-digit knob edit in the middle
    // function of one wide 300-function file. With function granularity
    // the warm rescan re-analyzes the one-function cone and hydrates
    // every other summary from the old record; the baseline engine
    // (granularity off) re-analyzes the whole file — the
    // pre-function-granular `--delta` cost for the same edit. Knobs
    // advance every round so no in-memory store entry can serve the
    // edit from memory, and all texts are pre-rendered so the timed
    // region pays exactly write + rescan.
    let wide_fns = workload::WIDE_FUNCTIONS;
    let fn_runs = runs.max(2);
    let mut knobs = (0..).map(|k| 10 + (k % 90) as i64);
    let wide_texts: Vec<String> = (&mut knobs)
        .take(2 * fn_runs + 2)
        .map(|k| pretty_program(&workload::wide_function_program(7, wide_fns, k)))
        .collect();
    let wide_dir = std::env::temp_dir().join(format!("pnx-bench-fndelta-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wide_dir);
    std::fs::create_dir_all(&wide_dir).expect("wide corpus dir");
    let wide_path = wide_dir.join("wide.pnx");
    std::fs::write(&wide_path, &wide_texts[0]).expect("wide file writes");
    let wide_paths = vec![wide_path.to_string_lossy().into_owned()];
    let mut flip = 0usize;

    let granular = BatchEngine::new(Analyzer::new());
    granular.delta_scan(&wide_paths, None, granular.jobs());
    let mut fn_cone = 0usize;
    let mut fn_reused = 0usize;
    let fn_edit_s = median_secs(fn_runs, || {
        flip += 1;
        std::fs::write(&wide_path, &wide_texts[flip]).expect("edit writes");
        let (_, _, delta) =
            granular.delta_scan(&wide_paths, Some(wide_paths.as_slice()), granular.jobs());
        assert_eq!(delta.changed_files, 1, "exactly the wide file re-analyzes");
        assert_eq!(delta.functions_reanalyzed, 1, "the cone is the one edited function");
        fn_cone = delta.functions_reanalyzed;
        fn_reused = delta.functions_reused;
    });
    assert_eq!(fn_reused, wide_fns - 1, "every untouched function's summary is reused");

    let baseline = BatchEngine::new(Analyzer::new()).with_function_granularity(false);
    baseline.delta_scan(&wide_paths, None, baseline.jobs());
    let fn_baseline_s = median_secs(fn_runs, || {
        flip += 1;
        std::fs::write(&wide_path, &wide_texts[flip]).expect("edit writes");
        let (_, _, delta) =
            baseline.delta_scan(&wide_paths, Some(wide_paths.as_slice()), baseline.jobs());
        assert_eq!(delta.changed_files, 1, "exactly the wide file re-analyzes");
        assert_eq!(delta.functions_reanalyzed, wide_fns, "granularity off re-analyzes everything");
    });
    let _ = std::fs::remove_dir_all(&wide_dir);

    // Hub-helper edit: the shared `helper_0` changes in every file of
    // the hub corpus at once. Function granularity re-analyzes only
    // each file's cone (the helper plus its callers) and reuses the
    // rest; the baseline re-analyzes every function of every file.
    let fnhub_files = if smoke { 30 } else { 200 };
    let fnhub_rounds: Vec<Vec<String>> = (&mut knobs)
        .take(2 * fn_runs + 2)
        .map(|k| workload::hub_corpus(7, fnhub_files, k).iter().map(pretty_program).collect())
        .collect();
    let fnhub_dir = std::env::temp_dir().join(format!("pnx-bench-fnhub-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&fnhub_dir);
    std::fs::create_dir_all(&fnhub_dir).expect("hub corpus dir");
    let fnhub_paths: Vec<String> = (0..fnhub_files)
        .map(|i| fnhub_dir.join(format!("h{i:04}.pnx")).to_string_lossy().into_owned())
        .collect();
    let write_round = |round: &[String]| {
        for (path, text) in fnhub_paths.iter().zip(round) {
            std::fs::write(path, text).expect("hub file writes");
        }
    };
    write_round(&fnhub_rounds[0]);
    let mut round = 0usize;

    let fnhub_granular = BatchEngine::new(Analyzer::new());
    fnhub_granular.delta_scan(&fnhub_paths, None, fnhub_granular.jobs());
    let per_file = workload::HUB_HELPERS + workload::HUB_WORKERS;
    let cone_per_file = 1 + workload::HUB_WORKERS / 2;
    let mut fnhub_reanalyzed = 0usize;
    let mut fnhub_reused = 0usize;
    let fnhub_edit_s = median_secs(fn_runs, || {
        round += 1;
        write_round(&fnhub_rounds[round]);
        let (_, _, delta) = fnhub_granular.delta_scan(&fnhub_paths, None, fnhub_granular.jobs());
        assert_eq!(delta.changed_files, fnhub_files, "the hub edit touches every file");
        assert_eq!(
            delta.functions_reanalyzed,
            cone_per_file * fnhub_files,
            "only the per-file cone re-analyzes"
        );
        fnhub_reanalyzed = delta.functions_reanalyzed;
        fnhub_reused = delta.functions_reused;
    });
    assert_eq!(fnhub_reused, (per_file - cone_per_file) * fnhub_files);

    let fnhub_baseline = BatchEngine::new(Analyzer::new()).with_function_granularity(false);
    fnhub_baseline.delta_scan(&fnhub_paths, None, fnhub_baseline.jobs());
    let fnhub_baseline_s = median_secs(fn_runs, || {
        round += 1;
        write_round(&fnhub_rounds[round]);
        let (_, _, delta) = fnhub_baseline.delta_scan(&fnhub_paths, None, fnhub_baseline.jobs());
        assert_eq!(delta.changed_files, fnhub_files, "the hub edit touches every file");
    });
    let _ = std::fs::remove_dir_all(&fnhub_dir);

    let per_sec = |secs: f64, n: usize| if secs > 0.0 { n as f64 / secs } else { 0.0 };
    let ratio = |slow: f64, fast: f64| if fast > 0.0 { slow / fast } else { 0.0 };
    let json = format!(
        "{{\n  \"schema\": \"pnx-bench-detector/3\",\n  \"mode\": \"{}\",\n  \"corpus_programs\": {},\n  \"runs_per_measurement\": {},\n  \"available_cores\": {},\n  \"serial_programs_per_sec\": {:.1},\n  \"parallel_jobs\": {},\n  \"parallel_programs_per_sec\": {:.1},\n  \"warm_memory_cache_programs_per_sec\": {:.1},\n  \"cold_disk_scan_s\": {:.4},\n  \"warm_disk_scan_s\": {:.4},\n  \"warm_disk_speedup\": {:.1},\n  \"daemon_warm_requests_per_sec\": {:.1},\n  \"fleet_replicas\": {},\n  \"fleet_backend\": \"indexed\",\n  \"fleet_requests\": {},\n  \"fleet_warm_requests_per_sec\": {:.1},\n  \"guarded_corpus_programs\": {},\n  \"interval_programs_per_sec\": {:.1},\n  \"deep_corpus\": {{ \"programs\": {}, \"depth\": {}, \"fan_in\": {} }},\n  \"summary_scan_s\": {:.4},\n  \"inline_scan_s\": {:.4},\n  \"summary_speedup\": {:.1},\n  \"delta_corpus_files\": {},\n  \"delta_cold_scan_s\": {:.4},\n  \"delta_edit_ms\": {:.3},\n  \"delta_stat_sweep_ms\": {:.3},\n  \"delta_speedup\": {:.1},\n  \"hub_corpus_files\": {},\n  \"hub_edit_ms\": {:.3},\n  \"hub_cone_functions\": {},\n  \"fn_delta_functions\": {},\n  \"fn_delta_edit_ms\": {:.3},\n  \"fn_delta_baseline_ms\": {:.3},\n  \"fn_delta_speedup\": {:.1},\n  \"fn_delta_cone_functions\": {},\n  \"fn_hub_files\": {},\n  \"fn_hub_edit_ms\": {:.3},\n  \"fn_hub_baseline_ms\": {:.3},\n  \"fn_hub_speedup\": {:.1},\n  \"fn_hub_functions_reanalyzed\": {},\n  \"fn_hub_functions_reused\": {}\n}}\n",
        if smoke { "smoke" } else { "full" },
        corpus_size,
        runs,
        available_cores,
        per_sec(serial_s, corpus_size),
        parallel_jobs,
        per_sec(parallel_s, corpus_size),
        per_sec(warm_mem_s, corpus_size),
        cold_disk_s,
        warm_disk_s,
        ratio(cold_disk_s, warm_disk_s),
        per_sec(daemon_warm_s, corpus_size),
        fleet_replicas,
        fleet_requests,
        per_sec(fleet_slowest_s, fleet_requests),
        corpus_size,
        per_sec(interval_s, corpus_size),
        deep_programs,
        workload::CALL_DEPTH,
        workload::CALL_WIDTH,
        summary_s,
        inline_s,
        ratio(inline_s, summary_s),
        delta_files,
        delta_cold_s,
        delta_edit_s * 1e3,
        delta_sweep_s * 1e3,
        ratio(delta_cold_s, delta_edit_s),
        hub_files,
        hub_edit_s * 1e3,
        hub_cone,
        wide_fns,
        fn_edit_s * 1e3,
        fn_baseline_s * 1e3,
        ratio(fn_baseline_s, fn_edit_s),
        fn_cone,
        fnhub_files,
        fnhub_edit_s * 1e3,
        fnhub_baseline_s * 1e3,
        ratio(fnhub_baseline_s, fnhub_edit_s),
        fnhub_reanalyzed,
        fnhub_reused,
    );
    if let Err(e) = std::fs::write(&out, &json) {
        eprintln!("bench_detector: cannot write {out}: {e}");
        std::process::exit(1);
    }
    print!("{json}");
    eprintln!(
        "bench_detector: summary {:.1}x over inline on deep call graphs, warm disk rescan {:.1}x over cold, delta edit {:.2}ms ({:.0}x over cold scan of {} files), fn-granular edit {:.2}ms ({:.1}x over whole-file delta in a {}-function file)",
        ratio(inline_s, summary_s),
        ratio(cold_disk_s, warm_disk_s),
        delta_edit_s * 1e3,
        ratio(delta_cold_s, delta_edit_s),
        delta_files,
        fn_edit_s * 1e3,
        ratio(fn_baseline_s, fn_edit_s),
        wide_fns,
    );
}
