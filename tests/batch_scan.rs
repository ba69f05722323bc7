//! Determinism and cache guarantees of the batch analysis engine,
//! exercised over a generated corpus at realistic scale.

use placement_new_attacks::corpus::workload;
use placement_new_attacks::detector::{
    pretty_program, Analyzer, BatchEngine, BatchStats, Program, Report,
};

/// Scans the pretty texts of `programs`: the reports, in input order,
/// and the scan's stats.
fn scan(engine: &BatchEngine, programs: &[Program]) -> (Vec<Report>, BatchStats) {
    let sources: Vec<String> = programs.iter().map(pretty_program).collect();
    let (outcomes, stats) = engine.scan_sources_with_stats(&sources);
    let reports = outcomes.into_iter().map(|o| o.report.expect("a pretty text parses")).collect();
    (reports, stats)
}

#[test]
fn findings_are_identical_and_ordered_regardless_of_jobs() {
    let programs = workload::corpus(7, 200);

    let serial = scan(&BatchEngine::new(Analyzer::new()).with_jobs(1), &programs).0;
    let parallel = scan(&BatchEngine::new(Analyzer::new()).with_jobs(8), &programs).0;

    // Reports come back in input order…
    assert_eq!(serial.len(), programs.len());
    for (program, report) in programs.iter().zip(&serial) {
        assert_eq!(program.name, report.program);
    }
    // …and are byte-identical between 1 and 8 workers, finding by
    // finding (rendered form included, so ordering inside each report
    // is pinned down too).
    assert_eq!(serial, parallel);
    let serial_text: Vec<String> = serial.iter().map(ToString::to_string).collect();
    let parallel_text: Vec<String> = parallel.iter().map(ToString::to_string).collect();
    assert_eq!(serial_text, parallel_text);
}

#[test]
fn rescanning_an_unchanged_corpus_exceeds_90_percent_hit_rate() {
    let programs = workload::corpus(21, 200);
    let engine = BatchEngine::new(Analyzer::new()).with_jobs(4);

    let (first_reports, first) = scan(&engine, &programs);
    assert_eq!(first.cache_hits, 0);

    // Regenerate the corpus rather than reusing the same values: the
    // fingerprint must be content-derived, not identity-derived.
    let regenerated = workload::corpus(21, 200);
    let (second_reports, second) = scan(&engine, &regenerated);
    assert!(
        second.cache_hit_rate() > 0.9,
        "hit rate {:.2} (hits {}, misses {})",
        second.cache_hit_rate(),
        second.cache_hits,
        second.cache_misses
    );
    assert_eq!(first_reports, second_reports);
}
