//! Experiment harness: computes every table of EXPERIMENTS.md from live
//! runs.
//!
//! The `report` binary (`cargo run -p pnew-bench --bin report`) prints the
//! tables; the Criterion benches (`cargo bench`) measure the performance
//! dimensions (placement-check overhead, canary/shadow-stack overhead,
//! sanitization cost, detector throughput, allocator behaviour under leak
//! pressure).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::Write as _;

use pnew_core::attacks::{self, run_all};
use pnew_core::{AttackConfig, AttackKind, AttackReport, Defense};
use pnew_corpus::{benign, listings, scenarios, workload};
use pnew_detector::{pretty_program, Analyzer, BaselineChecker, BatchEngine, Fixer, Severity};
use pnew_object::LayoutPolicy;
use pnew_runtime::StackProtection;

/// A rendered experiment table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    /// Experiment id (`E1`…`E22`).
    pub id: String,
    /// Human title (paper reference).
    pub title: String,
    /// Pre-formatted body.
    pub body: String,
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "== {} — {} ==", self.id, self.title)?;
        writeln!(f, "{}", self.body)
    }
}

fn fmt_report(report: &AttackReport) -> String {
    let mut out = format!("  verdict: {}\n", report.verdict());
    for e in &report.evidence {
        let _ = writeln!(out, "  | {e}");
    }
    for (k, v) in &report.measurements {
        let _ = writeln!(out, "  | {k} = {v}");
    }
    out
}

/// E1–E19: one table per runnable scenario under the paper platform.
pub fn scenario_tables() -> Vec<Table> {
    scenarios()
        .into_iter()
        .map(|sc| {
            let report = (sc.run)(&AttackConfig::paper()).expect("scenario runs");
            Table {
                id: sc.experiment.to_owned(),
                title: format!("{} ({})", sc.listing, report.kind.paper_ref()),
                body: fmt_report(&report),
            }
        })
        .collect()
}

/// E3/E4 sub-table: the StackGuard experiment across protections and
/// strategies.
pub fn stackguard_table() -> Table {
    let mut body =
        format!("  {:<16} {:<11} {:>14} verdict\n", "protection", "strategy", "canary intact");
    for protection in
        [StackProtection::None, StackProtection::FramePointer, StackProtection::StackGuard]
    {
        for (name, run) in [
            ("naive", attacks::stack_smash::run_naive as attacks::AttackFn),
            ("selective", attacks::stack_smash::run_selective),
        ] {
            let report = run(&AttackConfig::with_protection(protection)).expect("runs");
            let canary = report.measurement("canary_intact").map_or("n/a".into(), |v| {
                if v.is_nan() {
                    "n/a".into()
                } else {
                    format!("{}", v == 1.0)
                }
            });
            let _ = writeln!(
                body,
                "  {:<16} {:<11} {:>14} {}",
                protection.to_string(),
                name,
                canary,
                report.verdict()
            );
        }
    }
    // The second classic bypass: canary replay via a stale-stack leak.
    let replay = attacks::stack_smash::run_canary_replay(&AttackConfig::paper()).expect("runs");
    let _ = writeln!(
        body,
        "  {:<16} {:<11} {:>14} {}",
        "stackguard",
        "replay",
        replay.measurement("canary_intact").map(|v| v == 1.0).unwrap_or(false),
        replay.verdict()
    );
    Table {
        id: "E3/E4".into(),
        title: "Listing 13 under every stack protection (§3.6.1, §5.2)".into(),
        body,
    }
}

/// E20: the protection matrix — attack × defense verdicts.
pub fn protection_matrix() -> Table {
    let configs: Vec<(&str, AttackConfig)> = vec![
        ("none", AttackConfig::with_defense(Defense::none())),
        ("correct-coding", AttackConfig::with_defense(Defense::correct_coding())),
        ("intercept", AttackConfig::with_defense(Defense::intercept())),
        ("shadow-stack", AttackConfig { shadow_stack: true, ..AttackConfig::paper() }),
    ];
    let runs: Vec<(&str, Vec<AttackReport>)> =
        configs.iter().map(|(label, cfg)| (*label, run_all(cfg).expect("matrix runs"))).collect();

    let mut body = format!("  {:<22}", "attack");
    for (label, _) in &runs {
        let _ = write!(body, " {label:>16}");
    }
    body.push('\n');
    for (i, kind) in AttackKind::ALL.iter().enumerate() {
        let _ = write!(body, "  {:<22}", kind.name());
        for (_, reports) in &runs {
            let r = &reports[i];
            let cell = if r.succeeded {
                "SUCCEEDS"
            } else if r.detected_by.is_some() {
                "detected"
            } else if r.blocked_by.is_some() {
                "blocked"
            } else {
                "fails"
            };
            let _ = write!(body, " {cell:>16}");
        }
        body.push('\n');
    }
    Table { id: "E20".into(), title: "protection matrix: attack × defense (§5)".into(), body }
}

/// E21 results.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectorRates {
    /// Fraction of vulnerable listings our analyzer flags.
    pub analyzer_detection: f64,
    /// Fraction the traditional baseline flags.
    pub baseline_detection: f64,
    /// Warning-level false positives on the benign corpus.
    pub analyzer_false_positives: f64,
    /// Corpus sizes `(vulnerable, benign)`.
    pub corpus: (usize, usize),
}

/// Computes the E21 rates.
pub fn detector_rates() -> DetectorRates {
    let analyzer = Analyzer::new();
    let baseline = BaselineChecker::new();
    let vulnerable = listings::vulnerable_corpus();
    let benign = benign::benign_corpus();
    DetectorRates {
        analyzer_detection: vulnerable.iter().filter(|p| analyzer.analyze(p).detected()).count()
            as f64
            / vulnerable.len() as f64,
        baseline_detection: vulnerable.iter().filter(|p| baseline.analyze(p).detected()).count()
            as f64
            / vulnerable.len() as f64,
        analyzer_false_positives: benign
            .iter()
            .filter(|p| analyzer.analyze(p).detected_at(Severity::Warning))
            .count() as f64
            / benign.len() as f64,
        corpus: (vulnerable.len(), benign.len()),
    }
}

/// E21: the coverage table.
pub fn detector_table() -> Table {
    let analyzer = Analyzer::new();
    let baseline = BaselineChecker::new();
    let mut body = format!("  {:<34} {:>9} {:>9}\n", "listing", "analyzer", "baseline");
    for prog in listings::vulnerable_corpus() {
        let a = analyzer.analyze(&prog).detected();
        let b = baseline.analyze(&prog).detected();
        let _ = writeln!(
            body,
            "  {:<34} {:>9} {:>9}",
            prog.name,
            if a { "FLAGGED" } else { "miss" },
            if b { "FLAGGED" } else { "miss" }
        );
    }
    let rates = detector_rates();
    let _ = writeln!(
        body,
        "  detection: analyzer {:.0}% vs baseline {:.0}%; analyzer false positives {:.0}% over {} benign programs",
        rates.analyzer_detection * 100.0,
        rates.baseline_detection * 100.0,
        rates.analyzer_false_positives * 100.0,
        rates.corpus.1
    );
    Table {
        id: "E21".into(),
        title: "detector coverage vs the traditional baseline (§1, §7)".into(),
        body,
    }
}

/// E22: the layout-ablation table.
pub fn ablation_table() -> Table {
    let mut body = format!(
        "  {:<12} {:>15} {:>19} {:>12} {}\n",
        "policy", "sizeof(Student)", "sizeof(GradStudent)", "L15 padding", "L15 verdict"
    );
    for (label, policy) in [
        ("paper", LayoutPolicy::paper()),
        ("i386-abi", LayoutPolicy::i386_abi()),
        ("lp64", LayoutPolicy::lp64()),
    ] {
        let world = pnew_core::student::StudentWorld::plain();
        let s = world.registry.size_of(world.student, &policy).unwrap();
        let g = world.registry.size_of(world.grad, &policy).unwrap();
        let cfg = AttackConfig { policy, ..AttackConfig::paper() };
        let report = attacks::stack_local::run(&cfg).expect("runs");
        let _ = writeln!(
            body,
            "  {:<12} {:>15} {:>19} {:>12} {}",
            label,
            s,
            g,
            report.measurement("padding_bytes").unwrap_or(f64::NAN),
            report.verdict()
        );
    }
    Table {
        id: "E22".into(),
        title: "layout ablation: data model / double alignment (§3.7.2)".into(),
        body,
    }
}

/// E23: automatic remediation — findings before/after the §7 fixer.
pub fn fixer_table() -> Table {
    let analyzer = Analyzer::new();
    let fixer = Fixer::new();
    let mut body =
        format!("  {:<34} {:>8} {:>7} {:>8}\n", "listing", "findings", "fixes", "residual");
    let mut total_before = 0usize;
    let mut total_after = 0usize;
    for prog in listings::vulnerable_corpus() {
        let before = analyzer
            .analyze(&prog)
            .findings
            .iter()
            .filter(|f| f.severity >= Severity::Warning)
            .count();
        let (fixed, fixes) = fixer.fix(&prog);
        let after = analyzer
            .analyze(&fixed)
            .findings
            .iter()
            .filter(|f| f.severity >= Severity::Warning)
            .count();
        total_before += before;
        total_after += after;
        let _ = writeln!(body, "  {:<34} {:>8} {:>7} {:>8}", prog.name, before, fixes.len(), after);
    }
    let _ = writeln!(
        body,
        "  total warning-level findings: {total_before} before, {total_after} after automatic remediation"
    );
    Table {
        id: "E23".into(),
        title: "automatic remediation (§7: \"automatically addressing these vulnerabilities\")"
            .into(),
        body,
    }
}

/// E24: the ASLR ablation — control-flow vs data-only attacks under
/// randomized layouts.
pub fn aslr_table() -> Table {
    const TRIALS: u32 = 50;
    let mut body = format!(
        "  {:<14} {:<8} {:>8} {:>8} {:>8} {:>13}\n",
        "attack family", "aslr", "trials", "hijacks", "crashes", "success rate"
    );
    let rows = [
        ("control-flow", false, attacks::aslr::control_flow_trials(TRIALS, false)),
        ("control-flow", true, attacks::aslr::control_flow_trials(TRIALS, true)),
        ("cf + info leak", true, attacks::aslr::leak_assisted_trials(TRIALS)),
        ("data-only", false, attacks::aslr::data_only_trials(TRIALS, false)),
        ("data-only", true, attacks::aslr::data_only_trials(TRIALS, true)),
    ];
    for (family, aslr, outcome) in rows {
        let o = outcome.expect("aslr trials run");
        let _ = writeln!(
            body,
            "  {:<14} {:<8} {:>8} {:>8} {:>8} {:>12.0}%",
            family,
            if aslr { "on" } else { "off" },
            o.trials,
            o.successes,
            o.crashes,
            o.success_rate() * 100.0
        );
    }
    body.push_str(
        "  ASLR stops the absolute-address (control-flow) attacks and none of the\n  relative, data-only ones; a §4.3 information leak of one code pointer\n  restores the control-flow attack to 100%.\n",
    );
    Table {
        id: "E24".into(),
        title: "ASLR ablation: absolute-address vs relative attacks (extension)".into(),
        body,
    }
}

/// E26: heap-metadata exploitation under classic vs hardened allocators.
pub fn heap_metadata_table() -> Table {
    let o = attacks::heap_overflow::run_metadata_attack(&AttackConfig::paper()).expect("runs");
    let mut body = String::new();
    let _ = writeln!(
        body,
        "  classic (header-trusting) allocator: overlap achieved = {}, victim rewritten = {}",
        o.overlap_achieved, o.victim_overwritten
    );
    let _ = writeln!(
        body,
        "  hardened (checking) allocator:       aborts at free() = {}",
        o.hardened_detects
    );
    body.push_str(
        "  one forged header (size + magic, written through the placed object's ssn[])\n  turns the Listing 12 overflow into an arbitrary overlapping allocation.\n",
    );
    Table {
        id: "E26".into(),
        title: "heap-metadata exploitation (§3.5.1 / §6 w00w00)".into(),
        body,
    }
}

/// E25: the §5.1 partial-sanitization hazard.
pub fn padding_leak_table() -> Table {
    let o = attacks::info_leak::run_padding_leak(&AttackConfig::paper()).expect("runs");
    let mut body = String::new();
    let _ = writeln!(
        body,
        "  SessionRecord {{ char; double; char }}: sizeof {} = {} field bytes + {} padding bytes",
        o.object_size, o.field_bytes, o.padding_bytes
    );
    let _ = writeln!(
        body,
        "  secret bytes recoverable after field-wise memset: {}  (every padding byte)",
        o.leaked_after_partial
    );
    let _ = writeln!(
        body,
        "  secret bytes recoverable after full-arena memset: {}",
        o.leaked_after_full
    );
    body.push_str("  §5.1: \"The bytes used for padding might contain data from A.\"\n");
    Table {
        id: "E25".into(),
        title: "partial-sanitization hazard: padding keeps the secret (§5.1)".into(),
        body,
    }
}

/// All tables, in experiment order.
/// E27: batch analysis throughput — serial vs parallel vs cached scans
/// of a generated 500-program corpus, as pretty-printed source texts,
/// through the detector's [`BatchEngine`] (parse + analyze per miss).
pub fn batch_throughput_table() -> Table {
    let programs = workload::corpus(42, 500);
    let stmts: usize = programs.iter().map(pnew_detector::Program::stmt_count).sum();
    let sources: Vec<String> = programs.iter().map(pretty_program).collect();
    let scan = |engine: &BatchEngine| {
        let (outcomes, stats) = engine.scan_sources_with_stats(&sources);
        let reports: Vec<_> = outcomes.into_iter().map(|o| o.report).collect();
        (reports, stats)
    };

    let (serial_reports, serial) = scan(&BatchEngine::new(Analyzer::new()).with_jobs(1));
    let parallel_engine = BatchEngine::new(Analyzer::new());
    let (parallel_reports, parallel) = scan(&parallel_engine);
    // Cached: rescan the parallel engine's warm cache.
    let (cached_reports, cached) = scan(&parallel_engine);
    assert_eq!(serial_reports, parallel_reports, "worker count changed the findings");
    assert_eq!(serial_reports, cached_reports, "the cache changed the findings");

    let mut body = format!(
        "  {:<10} {:>5} {:>12} {:>14} {:>9} {:>9}\n",
        "mode", "jobs", "elapsed (ms)", "programs/sec", "speedup", "hit rate"
    );
    let serial_secs = serial.elapsed.as_secs_f64();
    for (mode, stats) in [("serial", serial), ("parallel", parallel), ("cached", cached)] {
        let secs = stats.elapsed.as_secs_f64();
        let speedup = if secs > 0.0 { serial_secs / secs } else { f64::INFINITY };
        let _ = writeln!(
            body,
            "  {:<10} {:>5} {:>12.2} {:>14.0} {:>8.2}x {:>8.0}%",
            mode,
            stats.jobs,
            secs * 1e3,
            stats.programs_per_sec(),
            speedup,
            stats.cache_hit_rate() * 100.0
        );
    }
    let _ = writeln!(
        body,
        "  corpus: {} generated programs, {stmts} statements; findings identical across modes",
        programs.len()
    );
    Table {
        id: "E27".into(),
        title: "batch analysis throughput: serial vs parallel vs cached (pncheck engine)".into(),
        body,
    }
}

/// Every experiment table, in report order.
pub fn all_tables() -> Vec<Table> {
    let mut tables = scenario_tables();
    tables.push(stackguard_table());
    tables.push(protection_matrix());
    tables.push(detector_table());
    tables.push(ablation_table());
    tables.push(fixer_table());
    tables.push(aslr_table());
    tables.push(padding_leak_table());
    tables.push(heap_metadata_table());
    tables.push(batch_throughput_table());
    tables
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_match_the_claims() {
        let r = detector_rates();
        assert_eq!(r.analyzer_detection, 1.0);
        assert_eq!(r.baseline_detection, 0.0);
        assert_eq!(r.analyzer_false_positives, 0.0);
        assert!(r.corpus.0 >= 24 && r.corpus.1 >= 17);
    }

    #[test]
    fn all_tables_render() {
        let tables = all_tables();
        assert_eq!(tables.len(), 20 + 9);
        for t in &tables {
            assert!(!t.body.is_empty(), "{} is empty", t.id);
            let rendered = t.to_string();
            assert!(rendered.contains(&t.id));
        }
    }

    #[test]
    fn matrix_has_one_row_per_attack() {
        let m = protection_matrix();
        let rows = m.body.lines().count();
        assert_eq!(rows, 1 + AttackKind::ALL.len());
    }

    #[test]
    fn fixer_table_reaches_zero_residual() {
        let t = fixer_table();
        assert!(t.body.contains("0 after automatic remediation"), "{}", t.body);
    }

    #[test]
    fn heap_metadata_table_shows_both_allocators() {
        let t = heap_metadata_table();
        assert!(t.body.contains("victim rewritten = true"), "{}", t.body);
        assert!(t.body.contains("aborts at free() = true"), "{}", t.body);
    }

    #[test]
    fn padding_leak_table_quotes_the_numbers() {
        let t = padding_leak_table();
        assert!(t.body.contains("14"), "{}", t.body);
        assert!(t.body.contains("memset: 0"), "{}", t.body);
    }

    #[test]
    fn aslr_table_shows_the_contrast() {
        let t = aslr_table();
        assert!(t.body.contains("100%"), "{}", t.body);
        assert!(t.body.contains("0%"), "{}", t.body);
    }

    #[test]
    fn stackguard_table_shows_the_bypass() {
        let t = stackguard_table();
        assert!(t.body.contains("selective"));
        assert!(t.body.contains("replay"));
        assert!(t.body.contains("DETECTED by stackguard"));
        assert!(t.body.contains("SUCCEEDS"));
    }
}
