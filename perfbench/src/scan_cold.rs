//! `scan_cold`: a one-shot CI scan. Each iteration reads every file of a
//! seeded ~2,200-file tree, scans the sources with a fresh engine at
//! `jobs` = nproc and no cache dir, and renders the JSON envelope —
//! what `pncheck --format json DIR` does.

use std::time::Instant;

use pnew_detector::emit::{render_json, FileRecord};
use pnew_detector::{
    cliopts, fingerprint, parse_program_recovering, source_fingerprint, Analyzer, BatchEngine,
    SummaryStore,
};

use crate::gen::{self, Expect, Mix};
use crate::layers::Layers;
use crate::span::{write_spans, Tracer};
use crate::stats::{mean, median, ms_since, nproc, peak_rss_mb, tail};
use crate::{Args, Outcome};

const MIX: Mix = Mix { leaf: 1600, guarded: 400, fan_in: 160, hub: 40, wide: 4 };

/// Set-up repetitions before each timed iteration; `setup_s` is their
/// median. Spread over the whole run, they meet every phase of a noisy
/// machine instead of the one the first second happens to fall in.
const SETUPS_PER_ITERATION: usize = 2;

/// Set-up: what a scan pays before its first analysis — input expansion
/// (directory walk, canonicalization) and the engine. Returns the
/// expanded paths and the seconds it took.
fn setup(root: &str) -> Result<(Vec<String>, f64), String> {
    let t = Instant::now();
    let (expanded, errors) = cliopts::expand_inputs(&[root.to_owned()]);
    let engine = BatchEngine::new(Analyzer::new());
    std::hint::black_box(&engine);
    let seconds = t.elapsed().as_secs_f64();
    if errors.is_empty() {
        Ok((expanded, seconds))
    } else {
        Err(errors.join("; "))
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let root = args.work.join("tree");
    let files = gen::tree(args.seed, &MIX);
    gen::write_tree(&root, &files)?;
    let root = root.to_string_lossy().into_owned();
    let (paths, first) = setup(&root)?;
    let mut setups = vec![first];
    let expect: Vec<Expect> = {
        let by_path: std::collections::HashMap<String, Expect> =
            files.iter().map(|f| (format!("{root}/{}", f.rel), f.expect)).collect();
        paths.iter().map(|p| by_path.get(p).copied().unwrap_or(Expect::Any)).collect()
    };
    if paths.len() != files.len() {
        return Err(format!("expanded {} paths for {} files", paths.len(), files.len()));
    }
    let bytes: usize = files.iter().map(|f| f.text.len()).sum();
    let mut mix = String::new();
    for class in ["leaf", "guarded", "fanin", "hub", "wide"] {
        let sizes: Vec<f64> = files
            .iter()
            .filter(|f| f.rel.starts_with(class))
            .map(|f| f.text.len() as f64)
            .collect();
        let total: f64 = sizes.iter().sum();
        let (count, kb, share) = (sizes.len(), mean(&sizes) / 1e3, 1e2 * total / bytes as f64);
        mix.push_str(&format!(" {class} {count}x{kb:.1}KB={share:.0}%"));
    }
    eprintln!("perfbench: scan_cold: size mix:{mix}");
    drop(files);

    let mut out = Outcome::default();
    // Reference envelope: one warm-up iteration at the default width,
    // checked against the generators' answers and a `jobs = 1` scan.
    let (reference, records) = scan(&paths, None)?;
    for (record, expect) in records.iter().zip(&expect) {
        let ok = record.report.as_ref().is_some_and(|r| expect.holds(r));
        out.check(ok, || format!("{}: verdict disagrees with its generator", record.path));
    }
    let serial = scan(&paths, Some(1))?.0;
    out.check(serial == reference, || "jobs=1 envelope differs from jobs=nproc".into());

    if args.trace {
        traced(args, &paths, bytes, &reference, &mut out)?;
        return Ok(out);
    }

    let mut times = Vec::new();
    let budget = Instant::now();
    while times.is_empty() || budget.elapsed().as_secs_f64() < args.seconds {
        for _ in 0..SETUPS_PER_ITERATION {
            let (expanded, seconds) = setup(&root)?;
            setups.push(seconds);
            out.check(expanded == paths, || "input expansion differs between set-ups".into());
        }
        let t = Instant::now();
        let (envelope, _) = scan(&paths, None)?;
        times.push(ms_since(t));
        out.check(envelope == reference, || "envelope differs between iterations".into());
    }
    let p50 = median(&times);
    out.push("setup_s", median(&setups), "s");
    out.push("ops_per_s", paths.len() as f64 / (p50 / 1e3), "1/s");
    out.push("p50_ms", p50, "ms");
    out.push("tail_ms", tail(&times, 0.9), "ms");
    out.push("peak_rss_mb", peak_rss_mb(), "MB");
    eprintln!(
        "perfbench: scan_cold: {} files, {:.2} MB, {} iterations at jobs={}",
        paths.len(),
        bytes as f64 / 1e6,
        times.len(),
        nproc()
    );
    Ok(out)
}

/// One cold scan: read every file, scan with a fresh engine, render.
pub fn scan(paths: &[String], jobs: Option<usize>) -> Result<(String, Vec<FileRecord>), String> {
    let mut sources = Vec::with_capacity(paths.len());
    for p in paths {
        sources.push(std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?);
    }
    let mut engine = BatchEngine::new(Analyzer::new());
    if let Some(j) = jobs {
        engine = engine.with_jobs(j);
    }
    let (outcomes, _) = engine.scan_sources_with_stats(&sources);
    let records: Vec<FileRecord> = paths
        .iter()
        .zip(outcomes)
        .map(|(p, o)| FileRecord { path: p.clone(), report: o.report, errors: o.errors })
        .collect();
    Ok((render_json(&records, None, None), records))
}

/// The traced run: the real scan at `jobs = 1`, then the same scan
/// replayed layer by layer, untraced and traced.
fn traced(
    args: &Args,
    paths: &[String],
    bytes: usize,
    reference: &str,
    out: &mut Outcome,
) -> Result<(), String> {
    let third = args.seconds / 3.0;
    let mut real = Vec::new();
    let t = Instant::now();
    while real.is_empty() || t.elapsed().as_secs_f64() < third {
        let s = Instant::now();
        scan(paths, Some(1))?;
        real.push(ms_since(s));
    }
    let iterations = real.len();
    let mut plain = Tracer::new(false);
    let mut untraced = Vec::new();
    for _ in 0..iterations {
        let s = Instant::now();
        let envelope = replay(paths, &mut plain)?.0;
        untraced.push(ms_since(s));
        out.check(envelope == reference, || "untraced replay envelope differs".into());
    }
    let mut tracer = Tracer::new(true);
    let mut store = SummaryStore::new();
    let mut functions = 0;
    for _ in 0..iterations {
        let (envelope, s, f) = replay(paths, &mut tracer)?;
        out.check(envelope == reference, || "traced replay envelope differs".into());
        (store, functions) = (s, f);
    }
    let mut layers = Layers::default();
    layers.record_trace(&tracer, median(&untraced), median(&real));
    let parse_s = tracer.totals().get("parse").map_or(0.0, |&ns| ns as f64 / 1e9);
    layers.set("parse.mb_per_s", (bytes * iterations) as f64 / 1e6 / parse_s.max(1e-9));
    layers.set("analysis.functions_reanalyzed", functions as f64);
    let lookups = (store.hits() + store.misses()) as f64;
    layers.set("summary.hit_ratio", store.hits() as f64 / lookups.max(1.0));
    layers.set("summary.entries", store.len() as f64);
    layers.set("emit.bytes", reference.len() as f64);
    layers.set("batch.source_tier_hit_ratio", 0.0);
    layers.report(out);
    write_spans("scan_cold", args.seed, &tracer);
    Ok(())
}

/// One scan replayed serially, a span around every layer call. Returns
/// the envelope, the iteration's summary store and its function count.
fn replay(paths: &[String], t: &mut Tracer) -> Result<(String, SummaryStore, usize), String> {
    let analyzer = Analyzer::new();
    let store = SummaryStore::new();
    let mut functions = 0;
    let mut records = Vec::with_capacity(paths.len());
    t.begin("iteration");
    for p in paths {
        let text =
            t.span("read", || std::fs::read_to_string(p)).map_err(|e| format!("{p}: {e}"))?;
        std::hint::black_box(t.span("pretty", || source_fingerprint(&text)));
        let record = match t.span("parse", || parse_program_recovering(&text)) {
            Ok(program) => {
                std::hint::black_box(t.span("pretty", || fingerprint(&program)));
                let a =
                    t.span("analysis.full", || analyzer.analyze_full(&program, None, Some(&store)));
                functions += a.summaries.len();
                FileRecord { path: p.clone(), report: Some(a.report), errors: Vec::new() }
            }
            Err(errors) => FileRecord { path: p.clone(), report: None, errors },
        };
        records.push(record);
    }
    let envelope = t.span("emit", || render_json(&records, None, None));
    t.end();
    Ok((envelope, store, functions))
}
