//! Property-based tests for the dependency-aware incremental rescan.
//!
//! Random edit sequences run over a generated on-disk corpus, and after
//! every edit the incremental path must be indistinguishable from a
//! from-scratch scan:
//!
//! * **envelope identity** — the `pncheck-report/1` JSON and the SARIF
//!   rendered from `delta_scan` outcomes are byte-identical to the
//!   ones a fresh engine produces for the same tree, whether the rescan
//!   found the edits by stat drift (no hint) or was told about them
//!   (accurate hint);
//! * **cone soundness** — every function whose summary record changed
//!   across an edit, and every transitive caller of one, lands inside
//!   the invalidation cone reported by `invalidation_cone`; and the cone
//!   the partial analysis reports (the functions it re-walked) covers
//!   every member of that independent cone that still exists.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;

use placement_new_attacks::corpus::workload;
use placement_new_attacks::detector::emit::{render_json, render_sarif, FileRecord};
use placement_new_attacks::detector::{
    invalidation_cone, parse_program, pretty_program, Analyzer, AnalyzerConfig, BackendKind,
    BatchEngine, CmpOp, Expr, FunctionSummaryRecord, PersistentCache, ProgramBuilder,
    TrackedOutcome, Ty,
};

static CASE: AtomicUsize = AtomicUsize::new(0);

/// A unique scratch directory per proptest case.
fn case_dir() -> PathBuf {
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("pnx-delta-prop-{}-{n}", std::process::id()))
}

/// The text of corpus slot `i` under edit variant `variant`: variant 0
/// is the original corpus, each bump re-generates the slot from a
/// different seed, so consecutive variants genuinely differ.
fn slot_text(i: usize, n: usize, variant: u64) -> String {
    pretty_program(&workload::corpus(11 + variant, n)[i])
}

/// Renders the (json, sarif) envelope pair from tracked outcomes, the
/// same records `pncheck --delta` emits.
fn envelopes(outcomes: &[TrackedOutcome]) -> (String, String) {
    let records: Vec<FileRecord> = outcomes
        .iter()
        .map(|o| FileRecord {
            path: o.path.clone(),
            report: o.analysis.as_ref().map(|a| a.report.clone()),
            errors: o.errors.clone(),
        })
        .collect();
    (render_json(&records, None, None), render_sarif(&records))
}

/// The from-scratch reference: a fresh engine over the same paths.
fn reference_envelopes(paths: &[String]) -> (String, String) {
    let engine = BatchEngine::new(Analyzer::new());
    let (outcomes, _, _) = engine.delta_scan(paths, None, engine.jobs());
    envelopes(&outcomes)
}

/// Old/new summary records of one file, for cone checks.
fn summaries(outcome: &TrackedOutcome) -> Vec<FunctionSummaryRecord> {
    outcome.analysis.as_ref().map_or_else(Vec::new, |a| a.summaries.clone())
}

/// One function of the editable model program behind the
/// function-level edit-sequence property.
#[derive(Debug, Clone)]
struct FnSpec {
    name: String,
    clamp: i64,
    fit: i64,
    has_param: bool,
}

/// The initial model: `n` chained functions (each calls the next), with
/// deterministic per-slot clamps and placement lengths. Lengths span
/// both sides of the 96-byte pool so some functions carry findings and
/// envelope comparisons exercise real content, not empty reports.
fn initial_model(seed: u64, n: usize) -> Vec<FnSpec> {
    (0..n)
        .map(|i| FnSpec {
            name: format!("fn_{i}"),
            clamp: 10 + ((seed as i64 + i as i64 * 7) % 90),
            fit: 40 + ((seed as i64 * 13 + i as i64 * 29) % 80),
            has_param: i % 2 == 0,
        })
        .collect()
}

/// Renders the model as `.pnx` source. Call targets resolve through the
/// *current* model, so a rename or delete rewrites its caller too —
/// exactly what a refactoring editor does.
fn render_model(specs: &[FnSpec]) -> String {
    let mut p = ProgramBuilder::new("gen-editseq");
    for (i, s) in specs.iter().enumerate() {
        let mut f = p.function(&s.name);
        if s.has_param {
            f.param("seed", Ty::Int, false);
        }
        let pool = f.local("pool", Ty::CharArray(Some(96)));
        let n = f.local("n", Ty::Int);
        let buf = f.local("buf", Ty::Ptr);
        f.read_input(n);
        f.while_start(Expr::Var(n), CmpOp::Gt, Expr::Const(s.clamp));
        f.assign(n, Expr::sub(Expr::Var(n), Expr::Const(1)));
        f.end_while();
        f.placement_new_array(buf, Expr::addr_of(pool), 1, Expr::Const(s.fit));
        if i + 1 < specs.len() {
            f.call(&specs[i + 1].name, Vec::new());
        }
        f.finish();
    }
    pretty_program(&p.build())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn random_edit_sequences_stay_byte_identical_to_fresh_scans(
        n in 4usize..12,
        edits in proptest::collection::vec((0usize..12, 1u64..5, proptest::bool::ANY), 1..5),
    ) {
        let dir = case_dir();
        std::fs::create_dir_all(&dir).unwrap();
        let paths: Vec<String> = (0..n)
            .map(|i| {
                let path = dir.join(format!("f{i:02}.pnx"));
                std::fs::write(&path, slot_text(i, n, 0)).unwrap();
                path.to_string_lossy().into_owned()
            })
            .collect();

        let engine = BatchEngine::new(Analyzer::new());
        let (cold, _, _) = engine.delta_scan(&paths, None, engine.jobs());
        prop_assert_eq!(envelopes(&cold), reference_envelopes(&paths));

        for (slot, variant, use_hint) in edits {
            let i = slot % n;
            std::fs::write(&paths[i], slot_text(i, n, variant)).unwrap();
            let hint = vec![paths[i].clone()];
            let hinted: Option<&[String]> = use_hint.then_some(hint.as_slice());
            let (warm, _, delta) = engine.delta_scan(&paths, hinted, engine.jobs());
            prop_assert!(
                delta.changed_files <= 1,
                "one edit, at most one changed file: {delta:?}"
            );
            prop_assert_eq!(delta.unchanged_files + delta.changed_files, n);
            prop_assert_eq!(
                envelopes(&warm),
                reference_envelopes(&paths),
                "rescan after editing slot {} (variant {}, hint {}) must match a fresh scan",
                i, variant, use_hint
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn function_level_edit_sequences_stay_byte_identical_to_fresh_scans(
        seed in 0u64..500,
        n in 3usize..7,
        edits in proptest::collection::vec((0u8..5, 0usize..16, 10i64..100), 1..6),
    ) {
        // Every edit kind the partial path must survive — body edit,
        // rename, add function, delete function, signature change —
        // replayed under both `--jobs` settings and both cache
        // backends. After each round the function-granular rescan's
        // envelopes must be byte-identical to a from-scratch engine's.
        for (jobs, backend) in [(1usize, BackendKind::Dir), (4, BackendKind::Indexed)] {
            let dir = case_dir();
            let cache_dir = dir.join("cache");
            std::fs::create_dir_all(&cache_dir).unwrap();
            let path = dir.join("model.pnx");
            let mut specs = initial_model(seed, n);
            std::fs::write(&path, render_model(&specs)).unwrap();
            let paths = vec![path.to_string_lossy().into_owned()];

            let cache = PersistentCache::open_with(
                &cache_dir,
                &AnalyzerConfig::default(),
                backend,
            ).unwrap();
            let engine = BatchEngine::new(Analyzer::new())
                .with_jobs(jobs)
                .with_persistent_cache(cache);
            let (cold, _, _) = engine.delta_scan(&paths, None, engine.jobs());
            prop_assert_eq!(envelopes(&cold), reference_envelopes(&paths));

            let mut generation = 0usize;
            for &(kind, slot, knob) in &edits {
                generation += 1;
                let k = slot % specs.len();
                match kind {
                    0 => specs[k].clamp = knob,
                    1 => specs[k].name = format!("renamed_{k}_{generation}"),
                    2 => specs.insert(
                        k,
                        FnSpec {
                            name: format!("added_{generation}"),
                            clamp: knob,
                            fit: 40 + knob,
                            has_param: knob % 2 == 0,
                        },
                    ),
                    3 => {
                        if specs.len() > 2 {
                            specs.remove(k);
                        }
                    }
                    _ => specs[k].has_param = !specs[k].has_param,
                }
                std::fs::write(&path, render_model(&specs)).unwrap();
                let (warm, _, delta) = engine.delta_scan(&paths, None, engine.jobs());
                if delta.changed_files == 1 {
                    // Partial or full, the per-function accounting must
                    // cover the whole file.
                    prop_assert_eq!(
                        delta.functions_reanalyzed + delta.functions_reused,
                        specs.len(),
                        "jobs {} backend {:?}: accounting must cover every function",
                        jobs, backend
                    );
                }
                prop_assert_eq!(
                    envelopes(&warm),
                    reference_envelopes(&paths),
                    "jobs {} backend {:?}: edit kind {} on slot {} must match a fresh scan",
                    jobs, backend, kind, k
                );
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn changed_functions_and_their_callers_always_land_in_the_cone(
        count in 1usize..4,
        seed_a in 0u64..50,
        seed_b in 50u64..100,
    ) {
        // Fan-in programs have the densest call graphs the workload
        // generates; regenerating from a different seed perturbs the
        // chain tail, whose callers must all be invalidated.
        let dir = case_dir();
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("hub.pnx");
        let old_src = pretty_program(&workload::fan_in_call_corpus(seed_a, count)[count - 1]);
        let new_src = pretty_program(&workload::fan_in_call_corpus(seed_b, count)[count - 1]);
        std::fs::write(&path, &old_src).unwrap();
        let paths = vec![path.to_string_lossy().into_owned()];

        let engine = BatchEngine::new(Analyzer::new());
        let (cold, _, _) = engine.delta_scan(&paths, None, engine.jobs());
        let old = summaries(&cold[0]);

        std::fs::write(&path, &new_src).unwrap();
        let (warm, _, delta) = engine.delta_scan(&paths, None, engine.jobs());
        let new = summaries(&warm[0]);
        let (cone, stats) = invalidation_cone(&old, &new);

        // Soundness: any function whose record differs is in the cone…
        for rec in &new {
            let before = old.iter().find(|o| o.function == rec.function);
            let dirty = before.is_none_or(|o| {
                o.fingerprint != rec.fingerprint
                    || o.findings != rec.findings
                    || o.region_effects != rec.region_effects
                    || o.clobbers != rec.clobbers
            });
            if dirty {
                prop_assert!(
                    cone.binary_search(&rec.function).is_ok(),
                    "changed {} missing from cone", rec.function
                );
            }
        }
        // …and so is every transitive caller of a cone member, per the
        // old dependency edges the verdicts were memoized against.
        for rec in &old {
            if rec.deps.iter().any(|d| cone.binary_search(&d.callee).is_ok()) {
                prop_assert!(
                    cone.binary_search(&rec.function).is_ok(),
                    "caller {} of an invalidated callee missing from cone", rec.function
                );
            }
        }
        prop_assert_eq!(stats.cone_functions, cone.len());

        // The partial analysis reports its own cone, with no second
        // pass: it must cover every independent-cone member that still
        // exists, and its changed set every function whose fingerprint
        // moved or that is new.
        let live = cone.iter().filter(|f| new.iter().any(|r| &r.function == *f)).count();
        let moved = new
            .iter()
            .filter(|r| {
                old.iter().find(|o| o.function == r.function).is_none_or(|o| o.fingerprint != r.fingerprint)
            })
            .count();
        prop_assert!(delta.cone_functions >= live, "delta cone {} < {live}: {delta:?}", delta.cone_functions);
        prop_assert_eq!(delta.cone_functions, delta.functions_reanalyzed);
        prop_assert_eq!(delta.functions_reanalyzed + delta.functions_reused, new.len());
        let old_analysis = cold[0].analysis.as_ref().unwrap();
        let program = parse_program(&new_src).unwrap();
        if let Some(p) = Analyzer::new().analyze_partial(&program, old_analysis, None) {
            let reanalyzed = p.functions_reanalyzed as usize;
            prop_assert!(reanalyzed >= live, "partial cone {reanalyzed} misses the cone of {live}");
            prop_assert!(p.functions_changed as usize >= moved);
            prop_assert!(p.functions_changed <= p.functions_reanalyzed);
            prop_assert_eq!(reanalyzed + p.functions_reused as usize, new.len());
            prop_assert_eq!(&p.analysis.summaries, &new);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn schema_v2_cache_entries_decode_as_stale_misses_not_corruption() {
    // The interval lattice changed what analysis results mean, so the
    // on-disk schema version was bumped to 3. A well-formed entry from
    // the previous release — same magic, same checksum discipline, but
    // version 2 in bytes [8..12) — must read back as a quiet Miss (the
    // entry is stale, the cache is healthy), never as Corrupt, which
    // would make every upgrade look like disk damage in `--stats`.
    use placement_new_attacks::detector::{
        source_fingerprint, Analyzer, AnalyzerConfig, BatchEngine, CacheLookup, CachedAnalysis,
        PersistentCache,
    };

    let dir = case_dir();
    std::fs::create_dir_all(&dir).unwrap();
    let cache = PersistentCache::open(&dir, &AnalyzerConfig::default()).unwrap();

    let source = pretty_program(&workload::corpus(3, 1)[0]);
    let key = source_fingerprint(&source);
    let program = placement_new_attacks::detector::parse_program(&source).unwrap();
    let entry = CachedAnalysis {
        report: Analyzer::new().analyze(&program),
        summaries: Vec::new(),
        finding_pool: Vec::new(),
    };
    cache.put(key, &entry);
    assert_eq!(cache.get(key), CacheLookup::Hit(entry), "freshly written entry must hit");

    // Rewrite the version field to the previous schema, leaving magic,
    // config tag, checksum, and payload untouched.
    let path = dir.join(format!("{key:032x}.pnc"));
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[8..12].copy_from_slice(&2u32.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();

    assert_eq!(cache.get(key), CacheLookup::Miss, "v2 entry must be a stale miss");
    // An engine scanning the text counts the stale entry as a disk miss.
    let engine = BatchEngine::new(Analyzer::new()).with_persistent_cache(cache);
    let (outcomes, stats) = engine.scan_sources_with_stats(&[source.as_str()]);
    assert!(!outcomes[0].cache_corrupt);
    assert_eq!(
        (stats.persistent_misses, stats.persistent_corrupt),
        (1, 0),
        "a stale version is not corruption: {stats:?}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
