//! Analyzer-precision guarantees over the guarded corpus: the interval
//! lattice must kill the false positives that boolean-taint analysis
//! produced on bounded counts, without opening a single false negative,
//! and the measurement itself must be byte-deterministic.
//!
//! The corpus cycles through seven guard shapes
//! ([`workload::GUARDED_SHAPES`]). Under the pre-lattice analyzer five
//! of the seven produced a false positive (`reversed`, `clobber`,
//! `loop`, `subtraction`, `negative` — everything except the
//! straight-order `tight` guard it special-cased and the `loose` guard,
//! whose warning a probe confirms). Under the interval lattice only
//! `clobber` may remain: its warning is the paper's §4 point — the
//! oversized placement ahead of the guarded one can rewrite the checked
//! variable, and the simulated machine does not model that rewrite.

use placement_new_attacks::corpus::workload::{self, GUARDED_SHAPES};
use placement_new_attacks::detector::emit::{render_json, render_sarif, FileRecord};
use placement_new_attacks::detector::oracle::{Matrix, Oracle};
use placement_new_attacks::detector::{
    pretty_program, Analyzer, AnalyzerConfig, BatchEngine, Severity,
};

const SEED: u64 = 7;
const COUNT: usize = 70; // ten full cycles of the seven shapes

/// False positives per seven-shape cycle under the boolean-taint
/// analyzer this PR replaces (measured before the lattice landed, and
/// derivable from the shapes: only `tight` and `loose` stayed clean).
const PRE_LATTICE_FP_PER_CYCLE: usize = 5;

#[test]
fn interval_lattice_kills_guarded_false_positives_without_false_negatives() {
    let oracle = Oracle::new();
    let mut matrix = Matrix::new();
    for case in workload::guarded_corpus(SEED, COUNT) {
        matrix.absorb(&oracle.differential_with(&case.program, &case.probes));
    }
    let (tp, fp, fnn) = matrix.totals();
    let cycles = COUNT / GUARDED_SHAPES.len();

    // Soundness is non-negotiable: the precision work must not have
    // traded away a single machine-observed overflow.
    assert_eq!(fnn, 0, "false negatives on the guarded corpus:\n{matrix}");
    // Only the guard-then-clobber shape may still warn spuriously.
    assert_eq!(fp as usize, cycles, "unexpected false-positive set:\n{matrix}");
    assert!(
        (fp as usize) < PRE_LATTICE_FP_PER_CYCLE * cycles,
        "no precision gained over the boolean-taint analyzer:\n{matrix}"
    );
    // The loose guards and the clobber sites stay confirmed.
    assert!(tp >= 2 * cycles as u64, "lost true positives:\n{matrix}");
}

#[test]
fn every_runtime_safe_non_clobber_shape_is_fully_suppressed() {
    // Sharper than the aggregate matrix: per shape, runtime-safe cases
    // must produce *no* Warning+ finding at all.
    let analyzer = Analyzer::new();
    for case in workload::guarded_corpus(11, 35) {
        let name = &case.program.name;
        if case.runtime_vulnerable {
            continue;
        }
        let report = analyzer.analyze(&case.program);
        assert!(
            !report.detected_at(Severity::Warning),
            "{name}: guarded shape still flagged: {report}"
        );
    }
}

#[test]
fn guarded_scan_is_byte_deterministic_across_jobs_and_summary_modes() {
    let sources: Vec<String> =
        workload::guarded_corpus(SEED, COUNT).iter().map(|c| pretty_program(&c.program)).collect();
    let render = |jobs: usize, use_summaries: bool| {
        let analyzer =
            Analyzer::with_config(AnalyzerConfig { use_summaries, ..Default::default() });
        let outcomes =
            BatchEngine::new(analyzer).with_jobs(jobs).scan_sources_with_stats(&sources).0;
        let records: Vec<FileRecord> = outcomes
            .into_iter()
            .enumerate()
            .map(|(i, outcome)| FileRecord {
                path: format!("guarded:{i}"),
                report: Some(outcome.report.expect("a pretty text parses")),
                errors: Vec::new(),
            })
            .collect();
        (render_json(&records, None, None), render_sarif(&records))
    };
    let baseline = render(1, true);
    for (jobs, summaries) in [(4, true), (1, false), (4, false)] {
        assert_eq!(
            render(jobs, summaries),
            baseline,
            "output drifted at jobs={jobs} summaries={summaries}"
        );
    }
}

#[test]
fn loose_guard_width_is_visible_in_json_and_sarif() {
    // At least one unguarded-in-practice listing must carry the concrete
    // worst-case width into both machine formats.
    let case = workload::guarded_corpus(SEED, COUNT)
        .into_iter()
        .find(|c| c.program.name.starts_with("gen-guardcase-loose-"))
        .expect("loose shape in the corpus");
    let report = Analyzer::new().analyze(&case.program);
    let flagged = report.findings.iter().find(|f| f.width.is_some()).expect("a measured finding");
    let width = flagged.width.unwrap();
    assert!(width > 0);

    let records =
        [FileRecord { path: "loose.pnx".into(), report: Some(report), errors: Vec::new() }];
    let json = render_json(&records, None, None);
    assert!(json.contains(&format!("\"width\": {width}")), "{json}");
    let sarif = render_sarif(&records);
    assert!(sarif.contains(&format!("\"overflowWidthBytes\": {width}")), "{sarif}");
}
