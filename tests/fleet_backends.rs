//! Differential soak: the `dir` and `indexed` cache backends must be
//! observationally identical.
//!
//! The same seeded workload is pushed through two resident servers that
//! differ **only** in `--cache-backend`. Every protocol observation —
//! cold and warm `analyze` envelopes in json and sarif, cold and warm
//! `delta` envelopes, exit codes, and the complete `analysis` counter
//! block of the `stats` op (store counters, parse counts, and the
//! persistent hit/miss/store accounting) — must be byte-identical
//! between the two. A restart over each populated cache must then serve
//! the whole tree from disk with zero parses.
//!
//! The second test kills a compaction halfway — a stale
//! `cache.pnxi.compact.tmp` plus a torn record appended to the live
//! store — and proves a restarted daemon heals: the partial compaction
//! is discarded, the torn tail is truncated, and every entry written
//! before the crash is still served without a single re-parse.

use std::path::{Path, PathBuf};

use placement_new_attacks::corpus::workload;
use placement_new_attacks::detector::emit::json_string;
use placement_new_attacks::detector::server::{parse_json, JsonNode, Server, ServerConfig};
use placement_new_attacks::detector::{pretty_program, BackendKind};

struct TempTree {
    root: PathBuf,
    path_list: String,
    files: usize,
}

impl TempTree {
    /// Writes the seeded corpus to disk once; both backends scan the
    /// same paths so their envelopes are comparable byte for byte.
    fn new(tag: &str, seed: u64, count: usize) -> TempTree {
        let root = std::env::temp_dir().join(format!("pnx-fleet-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).unwrap();
        let programs = workload::corpus(seed, count);
        let paths: Vec<String> = programs
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let path = root.join(format!("p{i:03}.pnx"));
                std::fs::write(&path, pretty_program(p)).unwrap();
                path.to_string_lossy().into_owned()
            })
            .collect();
        let quoted: Vec<String> = paths.iter().map(|p| json_string(p)).collect();
        TempTree { root, path_list: format!("[{}]", quoted.join(",")), files: paths.len() }
    }
}

impl Drop for TempTree {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

fn server_with(cache: &Path, backend: BackendKind) -> Server {
    let config = ServerConfig {
        cache_dir: Some(cache.to_path_buf()),
        cache_backend: backend,
        ..ServerConfig::default()
    };
    Server::new(config).expect("server builds over the backend")
}

/// One observation: a request's payload plus its header `exit`.
fn observe(server: &Server, request: &str) -> (String, Option<i64>) {
    let reply = server.handle_line(request);
    let JsonNode::Obj(fields) = parse_json(&reply.header).expect("header parses") else {
        panic!("header not an object: {}", reply.header);
    };
    let exit = fields.iter().find(|(k, _)| k == "exit").and_then(|(_, v)| match v {
        JsonNode::Int(n) => Some(*n),
        _ => None,
    });
    (reply.payload, exit)
}

/// The `analysis` counter block of a `stats` reply, parsed — the whole
/// block must match across backends, tier accounting included.
fn analysis_counters(server: &Server) -> Vec<(String, JsonNode)> {
    let (stats, _) = observe(server, "{\"op\":\"stats\"}");
    let JsonNode::Obj(fields) = parse_json(stats.trim()).expect("stats parses") else {
        panic!("stats payload not an object");
    };
    let JsonNode::Obj(analysis) =
        fields.into_iter().find(|(k, _)| k == "analysis").expect("analysis block").1
    else {
        panic!("analysis is not an object");
    };
    analysis
}

fn int_counter(analysis: &[(String, JsonNode)], name: &str) -> i64 {
    match analysis.iter().find(|(k, _)| k == name) {
        Some((_, JsonNode::Int(n))) => *n,
        other => panic!("counter {name}: {other:?}"),
    }
}

/// The fixed request script both backends replay.
fn script(path_list: &str) -> Vec<(String, String)> {
    [
        ("analyze cold json", format!("{{\"op\":\"analyze\",\"paths\":{path_list}}}")),
        ("analyze warm json", format!("{{\"op\":\"analyze\",\"paths\":{path_list}}}")),
        (
            "analyze warm sarif",
            format!("{{\"op\":\"analyze\",\"paths\":{path_list},\"format\":\"sarif\"}}"),
        ),
        ("delta cold", format!("{{\"op\":\"delta\",\"paths\":{path_list}}}")),
        ("delta warm", format!("{{\"op\":\"delta\",\"paths\":{path_list}}}")),
    ]
    .into_iter()
    .map(|(label, request)| (label.to_owned(), request))
    .collect()
}

#[test]
fn dir_and_indexed_backends_are_observationally_identical() {
    let tree = TempTree::new("diff", 11, 60);
    let mut runs = Vec::new();
    for backend in [BackendKind::Dir, BackendKind::Indexed] {
        let cache = std::env::temp_dir()
            .join(format!("pnx-fleet-cache-{backend:?}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&cache);
        std::fs::create_dir_all(&cache).unwrap();

        let server = server_with(&cache, backend);
        let observations: Vec<(String, String, Option<i64>)> = script(&tree.path_list)
            .into_iter()
            .map(|(label, request)| {
                let (payload, exit) = observe(&server, &request);
                (label, payload, exit)
            })
            .collect();
        let counters = analysis_counters(&server);

        // A restart over the populated cache serves the whole tree from
        // disk: zero parses, every file a persistent hit.
        let restarted = server_with(&cache, backend);
        let (warm_payload, _) =
            observe(&restarted, &format!("{{\"op\":\"analyze\",\"paths\":{}}}", tree.path_list));
        let restart_counters = analysis_counters(&restarted);
        assert_eq!(
            int_counter(&restart_counters, "parses"),
            0,
            "{backend:?}: disk-warm restart must not parse"
        );
        assert_eq!(
            int_counter(&restart_counters, "persistent_hits"),
            tree.files as i64,
            "{backend:?}: every file must come from the persistent tier"
        );
        assert_eq!(warm_payload, observations[0].1, "{backend:?}: restart changed the envelope");

        runs.push((backend, observations, counters));
        let _ = std::fs::remove_dir_all(&cache);
    }

    let (_, dir_obs, dir_counters) = &runs[0];
    let (_, idx_obs, idx_counters) = &runs[1];
    for ((label, dir_payload, dir_exit), (_, idx_payload, idx_exit)) in
        dir_obs.iter().zip(idx_obs.iter())
    {
        assert_eq!(dir_payload, idx_payload, "{label}: envelopes differ between backends");
        assert_eq!(dir_exit, idx_exit, "{label}: exit codes differ between backends");
    }
    assert_eq!(
        dir_counters, idx_counters,
        "tier accounting differs between backends (hits/misses/stores must match)"
    );
    // Sanity: the invariant the torn-stats fix guarantees.
    assert_eq!(
        int_counter(dir_counters, "fingerprint_hits")
            + int_counter(dir_counters, "fingerprint_misses"),
        int_counter(dir_counters, "fingerprint_lookups"),
        "snapshot must never be torn"
    );
}

#[test]
fn indexed_backend_heals_after_a_kill_mid_compaction() {
    let tree = TempTree::new("heal", 23, 40);
    let cache = std::env::temp_dir().join(format!("pnx-fleet-heal-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache);
    std::fs::create_dir_all(&cache).unwrap();

    // Populate the store, keep the reference envelope, drop the daemon.
    let reference = {
        let server = server_with(&cache, BackendKind::Indexed);
        let (payload, _) =
            observe(&server, &format!("{{\"op\":\"analyze\",\"paths\":{}}}", tree.path_list));
        payload
    };

    // Simulate dying mid-compaction: a half-written compaction temp
    // plus a torn record appended to the live store.
    let store = cache.join("cache.pnxi");
    assert!(store.exists(), "indexed backend writes cache.pnxi");
    std::fs::write(cache.join("cache.pnxi.compact.tmp"), b"half-written compaction").unwrap();
    {
        use std::io::Write as _;
        let mut file = std::fs::OpenOptions::new().append(true).open(&store).unwrap();
        file.write_all(b"PNXR\x01\x07\x03").unwrap(); // record header cut short
    }

    // A restarted daemon heals: stale temp discarded, torn tail
    // truncated, every pre-crash entry still served without a parse.
    let server = server_with(&cache, BackendKind::Indexed);
    assert!(
        !cache.join("cache.pnxi.compact.tmp").exists(),
        "stale compaction temp must be cleaned up on open"
    );
    let (payload, _) =
        observe(&server, &format!("{{\"op\":\"analyze\",\"paths\":{}}}", tree.path_list));
    assert_eq!(payload, reference, "healed store must serve the pre-crash envelope");
    let counters = analysis_counters(&server);
    assert_eq!(int_counter(&counters, "parses"), 0, "healed store serves without parsing");
    assert_eq!(int_counter(&counters, "persistent_hits"), tree.files as i64);
    assert_eq!(int_counter(&counters, "persistent_corrupt"), 0, "no entry may decode corrupt");

    let _ = std::fs::remove_dir_all(&cache);
}
