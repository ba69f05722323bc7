//! `edit_loop`: editor integration. One connection to a `pncheckd` with
//! a `dir` cache over a seeded 451-file project (400 leaf, 20 fan-in,
//! 30 hub, 1 wide). Closed loop: write one edit, send `delta`, read the
//! whole reply. Edit kinds rotate:
//!
//! * `wide` — one function's two constants in the 300-function file,
//!   hinted (`changed` names the file); the cone is that one function;
//! * `leaf` — a new body for one leaf file, hinted;
//! * `hub` — `helper_0` rewritten in all 30 hub files, unhinted, so the
//!   daemon finds them by a stat sweep; the cone is `helper_0` plus its
//!   five callers in each file.

use std::collections::HashMap;
use std::fs;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use pnew_detector::delta::{render_manifest, ManifestRow};
use pnew_detector::emit::{render_json, FileRecord};
use pnew_detector::server::{parse_json, ServerConfig};
use pnew_detector::sim::SimRng;
use pnew_detector::{
    cliopts, fingerprint, invalidation_cone, parse_program_recovering, source_fingerprint,
    Analyzer, AnalyzerConfig, CacheLookup, CachedAnalysis, PersistentCache, SummaryStore,
};

use crate::client::{int, quote, Conn, Daemon, Stats};
use crate::gen::{self, apply_knobs, Expect, KnobEdit, Mix};
use crate::layers::Layers;
use crate::scan_cold::scan;
use crate::span::{write_spans, Tracer};
use crate::stats::{mean, median, ms_since, peak_rss_mb, ratio, tail, window_rate};
use crate::{Args, Outcome};

const MIX: Mix = Mix { leaf: 400, guarded: 0, fan_in: 20, hub: 30, wide: 1 };
/// Edits between two set-up samples (a daemon restart + first delta);
/// `setup_s` is their median. Spread over the whole run, the samples
/// meet every phase of a noisy machine instead of the first seconds'.
const SETUP_EVERY: usize = 8;
/// Every this many edits the reply is compared with a fresh one-shot
/// scan of the tree, outside the timed region.
const SAMPLE_EVERY: u64 = 50;
/// Edits per second of `--seconds`. A run makes a fixed number of edits
/// (stopping early only past twice its seconds), so the cache and the
/// summary store grow by the same amount in every run and on both sides
/// of a comparison, whatever the machine's speed.
const EDITS_PER_SECOND: f64 = 24.0;
/// Functions of the wide file; edits walk them with a coprime stride.
const WIDE_FUNCTIONS: usize = 300;
const WIDE_STRIDE: usize = 7;
/// `helper_0` plus the even-numbered workers of a hub file that call it.
const HUB_CONE: usize = 6;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Wide,
    Leaf,
    Hub,
}

const KINDS: [Kind; 3] = [Kind::Wide, Kind::Leaf, Kind::Hub];

/// The project's files in memory, mirrored on disk under `root`.
#[derive(Clone)]
struct Tree {
    root: String,
    rels: Vec<String>,
    texts: Vec<String>,
    expect: Vec<Expect>,
}

impl Tree {
    fn path(&self, i: usize) -> String {
        format!("{}/{}", self.root, self.rels[i])
    }

    fn rooted_at(&self, root: &Path) -> Result<Tree, String> {
        let tree = Tree { root: root.to_string_lossy().into_owned(), ..self.clone() };
        for i in 0..tree.rels.len() {
            let path = tree.path(i);
            if let Some(dir) = Path::new(&path).parent() {
                fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            }
            fs::write(&path, &tree.texts[i]).map_err(|e| format!("{path}: {e}"))?;
        }
        Ok(tree)
    }

    fn indices(&self, prefix: &str) -> Vec<usize> {
        (0..self.rels.len()).filter(|&i| self.rels[i].starts_with(prefix)).collect()
    }
}

/// One applied edit and what the daemon must report for it.
struct Edit {
    kind: Kind,
    /// Indices of the rewritten files.
    files: Vec<usize>,
    /// Whether the request names the files in `changed`.
    hinted: bool,
    /// Functions the delta must re-walk: the edit's cone.
    cone: usize,
}

/// The seeded edit sequence. Deterministic in (seed, starting tree), so
/// the traced run replays exactly the edits the untraced pass made.
/// Knob edits never revisit a (clamp, fit) pair of a function and leaf
/// bodies take fresh sub-seeds, so no file text repeats within a run.
struct Script {
    seed: u64,
    rng: SimRng,
    n: usize,
    next_leaf: u64,
    leaves: Vec<usize>,
    hubs: Vec<usize>,
    wide: usize,
    wide_start: usize,
    wide_edits: usize,
    wide_knobs: HashMap<usize, KnobEdit>,
    hub_knob: Option<KnobEdit>,
}

impl Script {
    fn new(seed: u64, tree: &Tree) -> Script {
        let mut rng = SimRng::new(seed ^ 0x6564_6974);
        let wide_start = rng.below(WIDE_FUNCTIONS as u64) as usize;
        Script {
            seed,
            rng,
            n: 0,
            next_leaf: MIX.leaf as u64,
            leaves: tree.indices("leaf/"),
            hubs: tree.indices("hub/"),
            wide: tree.indices("wide/")[0],
            wide_start,
            wide_edits: 0,
            wide_knobs: HashMap::new(),
            hub_knob: None,
        }
    }

    /// Applies the next edit to `tree` in memory and on disk.
    fn next(&mut self, tree: &mut Tree) -> Result<Edit, String> {
        let kind = KINDS[self.n % KINDS.len()];
        self.n += 1;
        let edit = match kind {
            Kind::Wide => {
                let k = (self.wide_start + self.wide_edits * WIDE_STRIDE) % WIDE_FUNCTIONS;
                self.wide_edits += 1;
                let name = format!("w_{k:03}");
                let text = &mut tree.texts[self.wide];
                let knob = match self.wide_knobs.entry(k) {
                    std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert(KnobEdit::read(text, &name)?)
                    }
                };
                let (clamp, fit) = knob.next()?;
                apply_knobs(text, &name, clamp, fit)?;
                Edit { kind, files: vec![self.wide], hinted: true, cone: 1 }
            }
            Kind::Leaf => {
                let i = self.leaves[self.rng.below(self.leaves.len() as u64) as usize];
                // A new body, not just a new program name: a rename alone
                // leaves `main`'s fingerprint, and so the cone, empty.
                let body = |t: &str| t.split_once('\n').map(|(_, rest)| rest.to_owned());
                let vulnerable = self.next_leaf.is_multiple_of(2);
                let (text, expect) = loop {
                    let sub = gen::sub_seed(self.seed, self.next_leaf);
                    self.next_leaf += 1;
                    let (text, expect) = gen::leaf(vulnerable, sub);
                    if body(&text) != body(&tree.texts[i]) {
                        break (text, expect);
                    }
                };
                let cone = text.matches("\nfn ").count();
                tree.texts[i] = text;
                tree.expect[i] = expect;
                Edit { kind, files: vec![i], hinted: true, cone }
            }
            Kind::Hub => {
                let knob = match &mut self.hub_knob {
                    Some(k) => k,
                    None => {
                        self.hub_knob.insert(KnobEdit::read(&tree.texts[self.hubs[0]], "helper_0")?)
                    }
                };
                let (clamp, fit) = knob.next()?;
                for &i in &self.hubs {
                    apply_knobs(&mut tree.texts[i], "helper_0", clamp, fit)?;
                }
                Edit {
                    kind,
                    files: self.hubs.clone(),
                    hinted: false,
                    cone: HUB_CONE * self.hubs.len(),
                }
            }
        };
        for &i in &edit.files {
            let path = tree.path(i);
            fs::write(&path, &tree.texts[i]).map_err(|e| format!("{path}: {e}"))?;
        }
        Ok(edit)
    }
}

/// The `delta` request for `edit` (or the initial full delta).
fn delta_line(id: u64, tree: &Tree, edit: Option<&Edit>) -> Result<String, String> {
    let mut line = format!("{{\"op\":\"delta\",\"id\":{id},\"paths\":[{}]", quote(&tree.root)?);
    if let Some(e) = edit.filter(|e| e.hinted) {
        let hint: Vec<String> =
            e.files.iter().map(|&i| quote(&tree.path(i))).collect::<Result<_, _>>()?;
        line.push_str(&format!(",\"changed\":[{}]", hint.join(",")));
    }
    line.push('}');
    Ok(line)
}

/// The reply's `delta.<key>` counter.
fn delta_counter(frame: &crate::client::Frame, key: &str) -> i64 {
    frame.get("delta").and_then(|d| int(d, key)).unwrap_or(-1)
}

/// A payload with its tree root replaced, so replies about two copies
/// of one tree compare equal.
fn normalized(payload: &str, root: &str) -> u128 {
    source_fingerprint(&payload.replace(root, "ROOT"))
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let files = gen::tree(args.seed, &MIX);
    let root = args.work.join("tree");
    gen::write_tree(&root, &files)?;
    let mut tree = Tree {
        root: root.to_string_lossy().into_owned(),
        rels: Vec::new(),
        texts: Vec::new(),
        expect: Vec::new(),
    };
    for f in files {
        tree.rels.push(f.rel);
        tree.texts.push(f.text);
        tree.expect.push(f.expect);
    }
    let cache = args.work.join("cache");
    let config = ServerConfig { cache_dir: Some(cache.clone()), ..ServerConfig::default() };
    let mut out = Outcome::default();

    // A first daemon populates the cache, then exits.
    let first = Daemon::start(config.clone())?;
    let reply = first.connect()?.call(&delta_line(0, &tree, None)?)?;
    out.check(reply.ok(), || "initial delta failed".into());
    first.stop()?;
    check_fresh(&mut out, &tree, &reply.payload, "cold delta")?;

    // Set-up samples restart a daemon on that cache and serve a delta
    // over the tree, which stays as the first daemon left it: the
    // editor works on a copy of both.
    let mut restarts = Restarts { config, tree: &tree, seconds: Vec::new() };
    restarts.sample(&mut out)?;
    let mut project = tree.rooted_at(&args.work.join("project"))?;
    let project_cache = args.work.join("project-cache");
    copy_dir(&cache, &project_cache)?;
    let daemon = Daemon::start(ServerConfig {
        cache_dir: Some(project_cache.clone()),
        ..ServerConfig::default()
    })?;
    let mut conn = daemon.connect()?;
    let reply = conn.call(&delta_line(1, &project, None)?)?;
    out.check(reply.ok(), || "project delta failed".into());
    check_fresh(&mut out, &project, &reply.payload, "project delta")?;
    let pristine = project.clone();
    let pristine_cache = args.work.join("cache-pristine");
    if args.trace {
        copy_dir(&project_cache, &pristine_cache)?;
    }
    let mut script = Script::new(args.seed, &project);

    let seconds = if args.trace { args.seconds / 3.0 } else { args.seconds };
    let stats_before = Stats::fetch(&mut conn)?;
    let pass = edit_pass(
        &mut out,
        &mut conn,
        &mut project,
        &mut script,
        &mut restarts,
        seconds,
        args.trace,
    )?;
    let stats_after = Stats::fetch(&mut conn)?;
    drop(conn);
    daemon.stop()?;

    if args.trace {
        let mut layers = Layers::default();
        pass.fill_layers(&mut layers, &stats_before, &stats_after);
        layers.set("cache.entry_bytes", mean_entry_bytes(&project_cache));
        traced(args, &pristine, &pristine_cache, &pass, &mut layers, &mut out)?;
        layers.report(&mut out);
        return Ok(out);
    }
    out.push("setup_s", median(&restarts.seconds), "s");
    out.push("ops_per_s", window_rate(&pass.latency), "1/s");
    out.push("p50_ms", median(&pass.latency), "ms");
    out.push("tail_ms", tail(&pass.latency, 0.9), "ms");
    out.push("peak_rss_mb", peak_rss_mb(), "MB");
    eprintln!(
        "perfbench: edit_loop: {} edits; p50 wide {:.2} ms, leaf {:.2} ms, hub {:.2} ms",
        pass.latency.len(),
        median(&pass.of(Kind::Wide)),
        median(&pass.of(Kind::Leaf)),
        median(&pass.of(Kind::Hub)),
    );
    Ok(out)
}

/// Set-up samples: a daemon restarted on the cache the first daemon
/// populated, serving a delta over the tree it populated it from.
struct Restarts<'a> {
    config: ServerConfig,
    tree: &'a Tree,
    /// Seconds from the start of each restart to its delta's reply.
    seconds: Vec<f64>,
}

impl Restarts<'_> {
    fn sample(&mut self, out: &mut Outcome) -> Result<(), String> {
        let t = Instant::now();
        let daemon = Daemon::start(self.config.clone())?;
        let mut conn = daemon.connect()?;
        let reply = conn.call(&delta_line(1, self.tree, None)?)?;
        self.seconds.push(t.elapsed().as_secs_f64());
        let ok = reply.ok() && delta_counter(&reply, "unchanged") == self.tree.rels.len() as i64;
        out.check(ok, || "restart delta re-analyzed files".into());
        if self.seconds.len() == 1 {
            check_fresh(out, self.tree, &reply.payload, "restart delta")?;
        }
        drop(conn);
        daemon.stop()
    }
}

/// What one closed-loop pass over the real daemon measured.
#[derive(Default)]
struct Pass {
    kinds: Vec<Kind>,
    latency: Vec<f64>,
    changed: Vec<f64>,
    reanalyzed: Vec<f64>,
    reused: Vec<f64>,
    fastpath: Vec<f64>,
    payload_bytes: Vec<f64>,
    /// Root-normalized payload fingerprints, for the replay to match.
    payloads: Vec<u128>,
}

impl Pass {
    fn of(&self, kind: Kind) -> Vec<f64> {
        self.kinds.iter().zip(&self.latency).filter(|(k, _)| **k == kind).map(|(_, &l)| l).collect()
    }

    fn fill_layers(&self, layers: &mut Layers, before: &Stats, after: &Stats) {
        layers.record_daemon(before, after, self.latency.len());
        layers.set("edit.wide_p50_ms", median(&self.of(Kind::Wide)));
        layers.set("edit.leaf_p50_ms", median(&self.of(Kind::Leaf)));
        layers.set("edit.hub_p50_ms", median(&self.of(Kind::Hub)));
        layers.set("delta.changed_files", mean(&self.changed));
        layers.set("delta.stat_fastpath_hits", mean(&self.fastpath));
        layers.set("analysis.functions_reanalyzed", mean(&self.reanalyzed));
        let (re, used) = (self.reanalyzed.iter().sum::<f64>(), self.reused.iter().sum::<f64>());
        layers.set("analysis.reuse_ratio", ratio(used, re + used));
        layers.set("emit.bytes", mean(&self.payload_bytes));
    }
}

/// Runs `seconds` worth of edits against the daemon, checking every
/// reply's counters and sampling full envelopes against fresh scans.
fn edit_pass(
    out: &mut Outcome,
    conn: &mut Conn,
    tree: &mut Tree,
    script: &mut Script,
    restarts: &mut Restarts,
    seconds: f64,
    keep_payloads: bool,
) -> Result<Pass, String> {
    let mut pass = Pass::default();
    let budget = Instant::now();
    let edits = ((EDITS_PER_SECOND * seconds) as usize).max(KINDS.len());
    let mut id = 10;
    while pass.latency.len() < edits && budget.elapsed().as_secs_f64() < 2.0 * seconds {
        let edit = script.next(tree)?;
        let line = delta_line(id, tree, Some(&edit))?;
        id += 1;
        let t = Instant::now();
        conn.send(&line)?;
        let reply = conn.recv()?;
        pass.latency.push(ms_since(t));
        pass.kinds.push(edit.kind);
        let (changed, cone) =
            (delta_counter(&reply, "changed"), delta_counter(&reply, "functions_reanalyzed"));
        let ok = reply.ok() && changed == edit.files.len() as i64 && cone == edit.cone as i64;
        out.check(ok, || {
            format!(
                "edit {id}: changed {changed} reanalyzed {cone}, expected {} and {}",
                edit.files.len(),
                edit.cone
            )
        });
        pass.changed.push(changed as f64);
        pass.reanalyzed.push(cone as f64);
        pass.reused.push(delta_counter(&reply, "functions_reused") as f64);
        pass.fastpath.push(delta_counter(&reply, "stat_fastpath_hits") as f64);
        pass.payload_bytes.push(reply.payload.len() as f64);
        if keep_payloads {
            pass.payloads.push(normalized(&reply.payload, &tree.root));
        }
        if (pass.latency.len() as u64).is_multiple_of(SAMPLE_EVERY) {
            check_fresh(out, tree, &reply.payload, "sampled delta")?;
        }
        if pass.latency.len().is_multiple_of(SETUP_EVERY) {
            restarts.sample(out)?;
        }
    }
    Ok(pass)
}

/// Compares a delta payload with a fresh one-shot scan of the tree and
/// the leaf verdicts with their generators' answers.
fn check_fresh(out: &mut Outcome, tree: &Tree, payload: &str, what: &str) -> Result<(), String> {
    let (paths, errors) = cliopts::expand_inputs(std::slice::from_ref(&tree.root));
    if !errors.is_empty() {
        return Err(errors.join("; "));
    }
    let (fresh, records) = scan(&paths, None)?;
    out.check(fresh == payload, || format!("{what}: payload differs from a fresh scan"));
    let expect: HashMap<String, Expect> =
        (0..tree.rels.len()).map(|i| (tree.path(i), tree.expect[i])).collect();
    for r in &records {
        let e = expect.get(&r.path).copied().unwrap_or(Expect::Any);
        let ok = r.report.as_ref().is_some_and(|rep| e.holds(rep));
        out.check(ok, || format!("{}: verdict disagrees with its generator", r.path));
    }
    Ok(())
}

/// Mean size of the `.pnc` entries in a `dir` cache.
fn mean_entry_bytes(dir: &Path) -> f64 {
    let sizes: Vec<f64> = fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter(|e| e.path().extension().is_some_and(|x| x == "pnc"))
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len() as f64)
        .collect();
    mean(&sizes)
}

/// Copies every regular file of `from` into `to`.
fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    fs::create_dir_all(to).map_err(|e| format!("{}: {e}", to.display()))?;
    for entry in fs::read_dir(from).map_err(|e| format!("{}: {e}", from.display()))? {
        let entry = entry.map_err(|e| format!("{}: {e}", from.display()))?;
        if entry.file_type().map_err(|e| e.to_string())?.is_file() {
            fs::copy(entry.path(), to.join(entry.file_name()))
                .map_err(|e| format!("{}: {e}", entry.path().display()))?;
        }
    }
    Ok(())
}

/// What the engine keeps per tracked path.
struct Tracked {
    len: u64,
    mtime_ns: u128,
    key: u128,
    analysis: Arc<CachedAnalysis>,
}

fn stat(path: &str) -> Result<(u64, u128), String> {
    let meta = fs::metadata(path).map_err(|e| format!("{path}: {e}"))?;
    let mtime = meta
        .modified()
        .ok()
        .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
        .map_or(0, |d| d.as_nanos());
    Ok((meta.len(), mtime))
}

/// The delta pipeline replayed in-process, one call per layer, against
/// its own copy of the tree and of the warm cache.
struct Replay {
    tree: Tree,
    script: Script,
    pc: PersistentCache,
    store: SummaryStore,
    analyzer: Analyzer,
    tracked: HashMap<String, Tracked>,
    parsed_bytes: usize,
}

impl Replay {
    fn new(seed: u64, pristine: &Tree, cache: &Path, dir: &Path) -> Result<Replay, String> {
        let tree = pristine.rooted_at(&dir.join("tree"))?;
        let cache_dir = dir.join("cache");
        copy_dir(cache, &cache_dir)?;
        let pc = PersistentCache::open(&cache_dir, &AnalyzerConfig::default())
            .map_err(|e| format!("cache: {e}"))?;
        let store = SummaryStore::new();
        store.preload(pc.load_summary_entries());
        let mut tracked = HashMap::new();
        for i in 0..tree.rels.len() {
            let path = tree.path(i);
            let (len, mtime_ns) = stat(&path)?;
            let key = source_fingerprint(&tree.texts[i]);
            let CacheLookup::Hit(analysis) = pc.get(key) else {
                return Err(format!("{path}: not in the warm cache"));
            };
            tracked.insert(path, Tracked { len, mtime_ns, key, analysis: Arc::new(analysis) });
        }
        let script = Script::new(seed, &tree);
        Ok(Replay { tree, script, pc, store, analyzer: Analyzer::new(), tracked, parsed_bytes: 0 })
    }

    /// Applies the next edit and replays its delta. Returns the
    /// root-normalized envelope fingerprint and the op's wall time.
    fn step(&mut self, t: &mut Tracer) -> Result<(u128, f64), String> {
        let edit = self.script.next(&mut self.tree)?;
        let line = delta_line(1, &self.tree, Some(&edit))?;
        let start = Instant::now();
        t.begin("edit");
        let request = t.span("server.request_parse", || parse_json(&line));
        std::hint::black_box(request.map_err(|e| format!("request: {e}"))?);
        t.begin("delta.stat");
        let (paths, _) = cliopts::expand_inputs(std::slice::from_ref(&self.tree.root));
        let changed: Vec<String> = if edit.hinted {
            edit.files.iter().map(|&i| self.tree.path(i)).collect()
        } else {
            let mut drifted = Vec::new();
            for p in &paths {
                let known = &self.tracked[p];
                if stat(p)? != (known.len, known.mtime_ns) {
                    drifted.push(p.clone());
                }
            }
            drifted
        };
        t.end();
        for path in changed {
            let old = Arc::clone(&self.tracked[&path].analysis);
            let (text, (len, mtime_ns)) = t.span("read", || -> Result<_, String> {
                let meta = stat(&path)?;
                Ok((fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?, meta))
            })?;
            let key = t.span("pretty", || source_fingerprint(&text));
            let entry = match t.span("cache.get", || self.pc.get(key)) {
                CacheLookup::Hit(entry) => entry,
                _ => {
                    let program = t
                        .span("parse", || parse_program_recovering(&text))
                        .map_err(|_| format!("{path}: edited text does not parse"))?;
                    self.parsed_bytes += text.len();
                    let partial = t.span("analysis.partial", || {
                        self.analyzer.analyze_partial(&program, &old, Some(&self.store))
                    });
                    let entry = match partial {
                        Some(p) => p.analysis,
                        None => t.span("analysis.full", || {
                            self.analyzer.analyze_full(&program, None, Some(&self.store))
                        }),
                    };
                    std::hint::black_box(t.span("pretty", || fingerprint(&program)));
                    t.span("cache.put", || self.pc.put(key, &entry));
                    entry
                }
            };
            std::hint::black_box(
                t.span("delta.cone", || invalidation_cone(&old.summaries, &entry.summaries)),
            );
            self.tracked.insert(path, Tracked { len, mtime_ns, key, analysis: Arc::new(entry) });
        }
        t.span("delta.manifest_save", || {
            let mut rows: Vec<ManifestRow> = self
                .tracked
                .iter()
                .map(|(path, f)| ManifestRow {
                    path: path.clone(),
                    len: f.len,
                    mtime_ns: f.mtime_ns,
                    key: f.key,
                })
                .collect();
            self.pc.store_manifest(&render_manifest(&mut rows))
        });
        t.span("delta.store_save", || {
            if self.store.is_dirty() && self.pc.store_summary_entries(&self.store.snapshot()) {
                self.store.mark_clean();
            }
        });
        let envelope = t.span("emit", || {
            let records: Vec<FileRecord> = paths
                .iter()
                .map(|p| FileRecord {
                    path: p.clone(),
                    report: Some(self.tracked[p].analysis.report.clone()),
                    errors: Vec::new(),
                })
                .collect();
            render_json(&records, None, None)
        });
        t.end();
        let wall = ms_since(start);
        Ok((normalized(&envelope, &self.tree.root), wall))
    }
}

/// The traced run's replays: the same edits as the real pass, from the
/// same starting state, alternately untraced and traced.
fn traced(
    args: &Args,
    pristine: &Tree,
    cache: &Path,
    pass: &Pass,
    layers: &mut Layers,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut plain = Replay::new(args.seed, pristine, cache, &args.work.join("replay-plain"))?;
    let mut traced = Replay::new(args.seed, pristine, cache, &args.work.join("replay-traced"))?;
    let mut plain_tracer = Tracer::new(false);
    let mut tracer = Tracer::new(true);
    let mut untraced_ms = Vec::new();
    for (i, expected) in pass.payloads.iter().enumerate() {
        let (got, wall) = plain.step(&mut plain_tracer)?;
        untraced_ms.push(wall);
        out.check(got == *expected, || {
            format!("untraced replay edit {i}: envelope differs from the daemon's")
        });
        let (got, _) = traced.step(&mut tracer)?;
        out.check(got == *expected, || {
            format!("traced replay edit {i}: envelope differs from the daemon's")
        });
    }
    layers.record_trace(&tracer, mean(&untraced_ms), mean(&pass.latency));
    let parse_s = tracer.totals().get("parse").map_or(0.0, |&ns| ns as f64 / 1e9);
    layers.set("parse.mb_per_s", ratio(traced.parsed_bytes as f64 / 1e6, parse_s));
    write_spans("edit_loop", args.seed, &tracer);
    Ok(())
}
