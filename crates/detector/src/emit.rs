//! Machine-readable report serialization: the `pncheck` JSON envelope
//! and SARIF 2.1.0.
//!
//! Everything here is hand-rolled on `std` (the workspace builds
//! offline, so no serde): a tiny ordered [`JsonValue`] tree plus a
//! deterministic two-space pretty-printer. Field order is fixed by
//! construction order, so byte-identical output for identical input is a
//! guarantee — the golden-file tests depend on it.
//!
//! The JSON envelope (`schema: "pncheck-report/1"`) carries one entry
//! per scanned file — program name, findings with rule IDs and precise
//! [`Span`]s, parse errors — plus optional batch stats and a
//! [`TraceReport`]. SARIF output targets CI annotation: one run, the
//! eight detector rules (plus `pnx/parse-error`) with the paper's
//! §-taxonomy text as rule help, and one result per finding with a
//! `physicalLocation` region carrying line, column, and byte extent.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::str::FromStr;

use crate::batch::BatchStats;
use crate::findings::{FindingKind, Report, Severity};
use crate::ir::Span;
use crate::oracle::{DifferentialReport, Matrix, SiteVerdict};
use crate::parse::ParseError;
use crate::trace::TraceReport;

/// The output format selected by `pncheck --format`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OutputFormat {
    /// Human-oriented text (the default).
    #[default]
    Text,
    /// The `pncheck-report/1` JSON envelope.
    Json,
    /// SARIF 2.1.0 for CI annotation.
    Sarif,
}

impl FromStr for OutputFormat {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "text" => Ok(OutputFormat::Text),
            "json" => Ok(OutputFormat::Json),
            "sarif" => Ok(OutputFormat::Sarif),
            other => Err(format!("unknown format {other:?} (text|json|sarif)")),
        }
    }
}

/// One scanned input file, as the serializers see it: a report when the
/// file parsed, the collected parse errors when it did not.
#[derive(Debug, Clone, PartialEq)]
pub struct FileRecord {
    /// The path as given on the command line (or `-` for stdin).
    pub path: String,
    /// The analysis report, when the file parsed.
    pub report: Option<Report>,
    /// Parse errors, when it did not (possibly several — the parser
    /// recovers and reports them all).
    pub errors: Vec<ParseError>,
}

// ---------------------------------------------------------------------
// A minimal ordered JSON tree + deterministic pretty-printer.
// ---------------------------------------------------------------------

/// An ordered JSON value; object fields serialize in insertion order.
/// Crate-visible so the daemon ([`crate::server`]) builds its response
/// headers and stats payloads on the same serializer the envelopes use.
#[derive(Debug, Clone)]
pub(crate) enum JsonValue {
    Null,
    Bool(bool),
    U64(u64),
    F64(f64),
    Str(String),
    Arr(Vec<JsonValue>),
    Obj(Vec<(String, JsonValue)>),
}

pub(crate) fn s(v: impl Into<String>) -> JsonValue {
    JsonValue::Str(v.into())
}

pub(crate) fn obj(fields: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Obj(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

/// `text` as a JSON string literal, quotes included — the one escaper
/// every envelope, header and request line goes through.
pub fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    write_string(text, &mut out);
    out
}

fn write_string(text: &str, out: &mut String) {
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_value(v: &JsonValue, indent: usize, out: &mut String) {
    const STEP: &str = "  ";
    match v {
        JsonValue::Null => out.push_str("null"),
        JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        JsonValue::U64(n) => {
            let _ = write!(out, "{n}");
        }
        JsonValue::F64(x) => {
            // Fixed precision keeps the rendering locale- and
            // magnitude-stable.
            let _ = write!(out, "{x:.1}");
        }
        JsonValue::Str(text) => {
            write_string(text, out);
        }
        JsonValue::Arr(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                out.push_str(&STEP.repeat(indent + 1));
                write_value(item, indent + 1, out);
                if i + 1 < items.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            out.push_str(&STEP.repeat(indent));
            out.push(']');
        }
        JsonValue::Obj(fields) => {
            if fields.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push_str("{\n");
            for (i, (key, value)) in fields.iter().enumerate() {
                out.push_str(&STEP.repeat(indent + 1));
                write_string(key, out);
                out.push_str(": ");
                write_value(value, indent + 1, out);
                if i + 1 < fields.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            out.push_str(&STEP.repeat(indent));
            out.push('}');
        }
    }
}

fn render(v: &JsonValue) -> String {
    let mut out = String::new();
    write_value(v, 0, &mut out);
    out.push('\n');
    out
}

/// Renders `v` on one line with no insignificant whitespace — the
/// framing the daemon's newline-delimited response headers need (a
/// header must never contain a raw newline). Deterministic like
/// [`render`]: field order is construction order.
pub(crate) fn render_compact(v: &JsonValue) -> String {
    fn write_compact(v: &JsonValue, out: &mut String) {
        match v {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::U64(n) => {
                let _ = write!(out, "{n}");
            }
            JsonValue::F64(x) => {
                let _ = write!(out, "{x:.1}");
            }
            JsonValue::Str(text) => {
                write_string(text, out);
            }
            JsonValue::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_compact(item, out);
                }
                out.push(']');
            }
            JsonValue::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_string(key, out);
                    out.push(':');
                    write_compact(value, out);
                }
                out.push('}');
            }
        }
    }
    let mut out = String::new();
    write_compact(v, &mut out);
    out
}

// ---------------------------------------------------------------------
// The pncheck JSON envelope.
// ---------------------------------------------------------------------

/// The version reported in both serializations.
fn tool_version() -> &'static str {
    env!("CARGO_PKG_VERSION")
}

fn span_value(span: Option<Span>) -> JsonValue {
    match span {
        Some(sp) => obj(vec![
            ("line", JsonValue::U64(sp.line.into())),
            ("col", JsonValue::U64(sp.col.into())),
            ("byte_offset", JsonValue::U64(sp.byte_offset.into())),
            ("len", JsonValue::U64(sp.len.into())),
        ]),
        None => JsonValue::Null,
    }
}

fn trace_value(trace: &TraceReport) -> JsonValue {
    let counters: Vec<(String, JsonValue)> =
        trace.counters.iter().map(|(name, value)| (name.clone(), JsonValue::U64(*value))).collect();
    let passes: Vec<JsonValue> = trace
        .passes
        .iter()
        .map(|p| {
            obj(vec![
                ("name", s(&p.name)),
                ("calls", JsonValue::U64(p.calls)),
                ("total_us", JsonValue::U64(p.total.as_micros().min(u128::from(u64::MAX)) as u64)),
            ])
        })
        .collect();
    obj(vec![("counters", JsonValue::Obj(counters)), ("passes", JsonValue::Arr(passes))])
}

fn stats_value(stats: &BatchStats) -> JsonValue {
    obj(vec![
        ("programs", JsonValue::U64(stats.programs as u64)),
        ("findings", JsonValue::U64(stats.findings as u64)),
        ("jobs", JsonValue::U64(stats.jobs as u64)),
        ("cache_hits", JsonValue::U64(stats.cache_hits)),
        ("cache_misses", JsonValue::U64(stats.cache_misses)),
        ("parses", JsonValue::U64(stats.parses)),
        ("persistent_cache_hits", JsonValue::U64(stats.persistent_hits)),
        ("persistent_cache_misses", JsonValue::U64(stats.persistent_misses)),
        ("persistent_cache_corrupt", JsonValue::U64(stats.persistent_corrupt)),
        ("persistent_cache_write_errors", JsonValue::U64(stats.persistent_write_errors)),
        ("elapsed_us", JsonValue::U64(stats.elapsed.as_micros().min(u128::from(u64::MAX)) as u64)),
        ("programs_per_sec", JsonValue::F64(stats.programs_per_sec())),
    ])
}

fn file_value(record: &FileRecord) -> JsonValue {
    let findings: Vec<JsonValue> = record
        .report
        .iter()
        .flat_map(|r| &r.findings)
        .map(|f| {
            obj(vec![
                ("rule", s(f.kind.rule_id())),
                ("kind", s(f.kind.name())),
                ("severity", s(f.severity.to_string())),
                // Concrete worst-case overflow width in bytes; null when
                // the worst case is unbounded or not an overflow at all.
                ("width", f.width.map_or(JsonValue::Null, JsonValue::U64)),
                ("function", s(&f.site.function)),
                ("statement", JsonValue::U64(f.site.line.into())),
                ("span", span_value(f.site.span)),
                ("message", s(&f.message)),
                ("suggestion", s(f.kind.suggestion())),
            ])
        })
        .collect();
    let errors: Vec<JsonValue> = record
        .errors
        .iter()
        .map(|e| obj(vec![("message", s(&e.message)), ("span", span_value(Some(e.span)))]))
        .collect();
    obj(vec![
        ("path", s(&record.path)),
        ("program", record.report.as_ref().map_or(JsonValue::Null, |r| s(&r.program))),
        ("findings", JsonValue::Arr(findings)),
        ("errors", JsonValue::Arr(errors)),
    ])
}

/// Renders a scan's records in `format` — the text report, the
/// `pncheck-report/1` JSON envelope, or SARIF. `pncheck` prints exactly
/// this and `pncheckd` returns it as the analyze/delta payload, so the
/// CLI and the daemon cannot drift apart. In text mode
/// `after_report(i, out)` runs after record `i`'s report (the `--fix`
/// hook). `stats` and `trace` embed in the JSON envelope only; they
/// carry timings, so the default envelope passes `None`.
pub fn render_records(
    format: OutputFormat,
    records: &[FileRecord],
    stats: Option<&BatchStats>,
    trace: Option<&TraceReport>,
    mut after_report: impl FnMut(usize, &mut String),
) -> String {
    match format {
        OutputFormat::Text => {
            let mut out = String::new();
            for (i, record) in records.iter().enumerate() {
                let Some(report) = &record.report else { continue };
                let _ = write!(out, "{report}");
                for finding in &report.findings {
                    let _ = writeln!(out, "    hint: {}", finding.kind.suggestion());
                }
                after_report(i, &mut out);
            }
            out
        }
        OutputFormat::Json => render_json(records, stats, trace),
        OutputFormat::Sarif => render_sarif(records),
    }
}

/// The exit status of a scan, for `pncheck` and the `pncheckd` reply
/// header alike: 2 when an input could not be expanded or read
/// (`input_failed`) or did not parse, else 1 when any report has a
/// warning-level finding, else 0.
pub fn exit_code(records: &[FileRecord], input_failed: bool) -> u8 {
    if input_failed || records.iter().any(|r| !r.errors.is_empty()) {
        2
    } else {
        u8::from(
            records
                .iter()
                .filter_map(|r| r.report.as_ref())
                .any(|r| r.detected_at(Severity::Warning)),
        )
    }
}

/// Renders the `pncheck-report/1` JSON envelope.
///
/// Deterministic for identical input: field order is fixed and map-based
/// content (trace counters) is sorted. `stats` and `trace` are optional
/// (`--stats`); they carry timings and are therefore *not* deterministic
/// — golden tests should pass `None`.
pub fn render_json(
    files: &[FileRecord],
    stats: Option<&BatchStats>,
    trace: Option<&TraceReport>,
) -> String {
    let findings: usize =
        files.iter().filter_map(|f| f.report.as_ref()).map(|r| r.findings.len()).sum();
    let parse_errors: usize = files.iter().map(|f| f.errors.len()).sum();
    let envelope = obj(vec![
        ("schema", s("pncheck-report/1")),
        ("tool", obj(vec![("name", s("pncheck")), ("version", s(tool_version()))])),
        (
            "summary",
            obj(vec![
                ("files", JsonValue::U64(files.len() as u64)),
                ("findings", JsonValue::U64(findings as u64)),
                ("parse_errors", JsonValue::U64(parse_errors as u64)),
            ]),
        ),
        ("files", JsonValue::Arr(files.iter().map(file_value).collect())),
        ("stats", stats.map_or(JsonValue::Null, stats_value)),
        ("trace", trace.map_or(JsonValue::Null, trace_value)),
    ]);
    render(&envelope)
}

/// Renders a `pncheck-report/1` envelope describing a run that could
/// not start: no files, plus a structured `error` object with a stable
/// machine-readable code. Used when a usage-level failure (an unusable
/// `--cache-dir`, for instance) must still produce valid JSON on
/// stdout for pipelines that parse it.
pub fn render_error_json(code: &str, message: &str) -> String {
    let envelope = obj(vec![
        ("schema", s("pncheck-report/1")),
        ("tool", obj(vec![("name", s("pncheck")), ("version", s(tool_version()))])),
        (
            "summary",
            obj(vec![
                ("files", JsonValue::U64(0)),
                ("findings", JsonValue::U64(0)),
                ("parse_errors", JsonValue::U64(0)),
            ]),
        ),
        ("files", JsonValue::Arr(Vec::new())),
        ("error", obj(vec![("code", s(code)), ("message", s(message))])),
    ]);
    render(&envelope)
}

// ---------------------------------------------------------------------
// The pncheck --oracle envelope.
// ---------------------------------------------------------------------

/// One input to the oracle serializer: where the program came from and
/// what the differential concluded about it.
#[derive(Debug, Clone)]
pub struct OracleRecord {
    /// The path as given on the command line (or a corpus tag like
    /// `corpus:seed=1:7`).
    pub path: String,
    /// The differential result.
    pub report: DifferentialReport,
}

fn verdict_value(v: &SiteVerdict) -> JsonValue {
    obj(vec![
        ("verdict", s(v.verdict.label())),
        ("kind", s(v.kind.name())),
        ("severity", v.severity.map_or(JsonValue::Null, |sev| s(sev.to_string()))),
        ("function", s(&v.site.function)),
        ("statement", JsonValue::U64(v.site.line.into())),
        ("events", JsonValue::Arr(v.events.iter().map(|e| s(*e)).collect())),
    ])
}

/// Renders the `pncheck-oracle/1` JSON envelope: per-file site verdicts
/// plus the aggregated per-kind TP/FP/FN matrix. Deterministic for
/// identical input, like [`render_json`].
pub fn render_oracle_json(records: &[OracleRecord], matrix: &Matrix) -> String {
    let files: Vec<JsonValue> = records
        .iter()
        .map(|r| {
            obj(vec![
                ("path", s(&r.path)),
                ("program", s(&r.report.program)),
                ("verdicts", JsonValue::Arr(r.report.verdicts.iter().map(verdict_value).collect())),
                ("events", JsonValue::U64(r.report.events.len() as u64)),
                ("skipped", JsonValue::U64(r.report.skipped.len() as u64)),
                ("agreement", s(if r.report.agrees() { "sound" } else { "false-negatives" })),
            ])
        })
        .collect();
    let matrix_rows: Vec<JsonValue> = matrix
        .kinds()
        .into_iter()
        .map(|kind| {
            let (tp, fp, fnn) = matrix.row(kind);
            obj(vec![
                ("kind", s(kind.name())),
                ("tp", JsonValue::U64(tp)),
                ("fp", JsonValue::U64(fp)),
                ("fn", JsonValue::U64(fnn)),
            ])
        })
        .collect();
    let (tp, fp, fnn) = matrix.totals();
    let envelope = obj(vec![
        ("schema", s("pncheck-oracle/1")),
        ("tool", obj(vec![("name", s("pncheck")), ("version", s(tool_version()))])),
        (
            "summary",
            obj(vec![
                ("files", JsonValue::U64(records.len() as u64)),
                ("true_positives", JsonValue::U64(tp)),
                ("false_positives", JsonValue::U64(fp)),
                ("false_negatives", JsonValue::U64(fnn)),
                ("agreement", s(if fnn == 0 { "sound" } else { "false-negatives" })),
            ]),
        ),
        ("matrix", JsonValue::Arr(matrix_rows)),
        ("files", JsonValue::Arr(files)),
    ]);
    render(&envelope)
}

// ---------------------------------------------------------------------
// SARIF 2.1.0.
// ---------------------------------------------------------------------

/// The synthetic rule ID under which parse errors are reported.
const PARSE_ERROR_RULE: &str = "pnx/parse-error";

fn sarif_level(severity: Severity) -> &'static str {
    match severity {
        Severity::Info => "note",
        Severity::Warning => "warning",
        Severity::Error => "error",
    }
}

fn sarif_rules() -> (Vec<JsonValue>, BTreeMap<&'static str, usize>) {
    let mut rules = Vec::new();
    let mut index = BTreeMap::new();
    for kind in FindingKind::ALL {
        index.insert(kind.rule_id(), rules.len());
        rules.push(obj(vec![
            ("id", s(kind.rule_id())),
            ("shortDescription", obj(vec![("text", s(kind.name()))])),
            ("fullDescription", obj(vec![("text", s(kind.help()))])),
            ("help", obj(vec![("text", s(kind.suggestion()))])),
        ]));
    }
    index.insert(PARSE_ERROR_RULE, rules.len());
    rules.push(obj(vec![
        ("id", s(PARSE_ERROR_RULE)),
        ("shortDescription", obj(vec![("text", s("parse-error"))])),
        (
            "fullDescription",
            obj(vec![("text", s("The file is not valid .pnx source and was not analyzed."))]),
        ),
        ("help", obj(vec![("text", s("fix the syntax error; see docs/pnx-syntax.md"))])),
    ]));
    (rules, index)
}

fn sarif_region(span: Option<Span>, fallback_line: u32) -> JsonValue {
    match span {
        Some(sp) => obj(vec![
            ("startLine", JsonValue::U64(sp.line.into())),
            ("startColumn", JsonValue::U64(sp.col.into())),
            ("byteOffset", JsonValue::U64(sp.byte_offset.into())),
            ("byteLength", JsonValue::U64(sp.len.into())),
        ]),
        None => obj(vec![
            ("startLine", JsonValue::U64(fallback_line.max(1).into())),
            ("startColumn", JsonValue::U64(1)),
        ]),
    }
}

fn sarif_location(uri: &str, region: JsonValue, function: Option<&str>) -> JsonValue {
    let mut fields = vec![(
        "physicalLocation",
        obj(vec![("artifactLocation", obj(vec![("uri", s(uri))])), ("region", region)]),
    )];
    if let Some(name) = function {
        fields.push((
            "logicalLocations",
            JsonValue::Arr(vec![obj(vec![("name", s(name)), ("kind", s("function"))])]),
        ));
    }
    obj(fields)
}

/// Renders a SARIF 2.1.0 log: one run, one result per finding, and one
/// `pnx/parse-error` result per parse error. Deterministic for identical
/// input.
pub fn render_sarif(files: &[FileRecord]) -> String {
    let (rules, rule_index) = sarif_rules();
    let mut results = Vec::new();
    for record in files {
        for finding in record.report.iter().flat_map(|r| &r.findings) {
            let rule_id = finding.kind.rule_id();
            let message = format!("{} (hint: {})", finding.message, finding.kind.suggestion());
            let mut fields = vec![
                ("ruleId", s(rule_id)),
                ("ruleIndex", JsonValue::U64(rule_index[rule_id] as u64)),
                ("level", s(sarif_level(finding.severity))),
                ("message", obj(vec![("text", s(message))])),
                (
                    "locations",
                    JsonValue::Arr(vec![sarif_location(
                        &record.path,
                        sarif_region(finding.site.span, finding.site.line),
                        Some(&finding.site.function),
                    )]),
                ),
            ];
            if let Some(width) = finding.width {
                fields
                    .push(("properties", obj(vec![("overflowWidthBytes", JsonValue::U64(width))])));
            }
            results.push(obj(fields));
        }
        for error in &record.errors {
            results.push(obj(vec![
                ("ruleId", s(PARSE_ERROR_RULE)),
                ("ruleIndex", JsonValue::U64(rule_index[PARSE_ERROR_RULE] as u64)),
                ("level", s("error")),
                ("message", obj(vec![("text", s(&error.message))])),
                (
                    "locations",
                    JsonValue::Arr(vec![sarif_location(
                        &record.path,
                        sarif_region(Some(error.span), error.span.line),
                        None,
                    )]),
                ),
            ]));
        }
    }
    let log = obj(vec![
        ("$schema", s("https://json.schemastore.org/sarif-2.1.0.json")),
        ("version", s("2.1.0")),
        (
            "runs",
            JsonValue::Arr(vec![obj(vec![
                (
                    "tool",
                    obj(vec![(
                        "driver",
                        obj(vec![
                            ("name", s("pncheck")),
                            ("version", s(tool_version())),
                            ("informationUri", s("https://example.invalid/placement-new-attacks")),
                            ("rules", JsonValue::Arr(rules)),
                        ]),
                    )]),
                ),
                ("results", JsonValue::Arr(results)),
            ])]),
        ),
    ]);
    render(&log)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::{parse_program, parse_program_recovering};
    use crate::Analyzer;

    const VULNERABLE: &str = "program demo;\n\
                              class Student size 16;\n\
                              class GradStudent size 32 : Student;\n\
                              fn main() {\n\
                              \x20   local stud: Student;\n\
                              \x20   local st: ptr;\n\
                              \x20   st = new (&stud) GradStudent();\n\
                              }\n";

    fn scanned(path: &str, src: &str) -> FileRecord {
        match parse_program_recovering(src) {
            Ok(p) => FileRecord {
                path: path.to_owned(),
                report: Some(Analyzer::new().analyze(&p)),
                errors: Vec::new(),
            },
            Err(errors) => FileRecord { path: path.to_owned(), report: None, errors },
        }
    }

    #[test]
    fn format_parses_from_flag_values() {
        assert_eq!("text".parse::<OutputFormat>(), Ok(OutputFormat::Text));
        assert_eq!("json".parse::<OutputFormat>(), Ok(OutputFormat::Json));
        assert_eq!("sarif".parse::<OutputFormat>(), Ok(OutputFormat::Sarif));
        assert!("yaml".parse::<OutputFormat>().is_err());
    }

    #[test]
    fn json_escaping_covers_control_and_quote_characters() {
        let v = s("a\"b\\c\nd\te\u{1}");
        assert_eq!(render(&v), "\"a\\\"b\\\\c\\nd\\te\\u0001\"\n");
    }

    #[test]
    fn compact_rendering_is_single_line_and_escaped() {
        let v = obj(vec![
            ("ok", JsonValue::Bool(true)),
            ("n", JsonValue::U64(3)),
            ("text", s("two\nlines")),
            ("arr", JsonValue::Arr(vec![JsonValue::Null, JsonValue::U64(1)])),
            ("empty", obj(vec![])),
        ]);
        let line = render_compact(&v);
        assert!(!line.contains('\n'), "{line}");
        assert_eq!(
            line,
            "{\"ok\":true,\"n\":3,\"text\":\"two\\nlines\",\"arr\":[null,1],\"empty\":{}}"
        );
    }

    #[test]
    fn error_envelope_is_schema_valid_and_carries_the_code() {
        let json = render_error_json("cache-dir-unusable", "cannot open /nope: denied");
        assert!(json.contains("\"schema\": \"pncheck-report/1\""), "{json}");
        assert!(json.contains("\"code\": \"cache-dir-unusable\""), "{json}");
        assert!(json.contains("\"message\": \"cannot open /nope: denied\""), "{json}");
        assert!(json.contains("\"files\": []"), "{json}");
    }

    #[test]
    fn json_envelope_carries_spans_and_rules() {
        let json = render_json(&[scanned("demo.pnx", VULNERABLE)], None, None);
        assert!(json.contains("\"schema\": \"pncheck-report/1\""), "{json}");
        assert!(json.contains("\"rule\": \"pnx/oversized-placement\""), "{json}");
        assert!(json.contains("\"line\": 7"), "{json}");
        assert!(json.contains("\"col\": 5"), "{json}");
        assert!(json.contains("\"function\": \"main\""), "{json}");
    }

    #[test]
    fn overflow_width_reaches_both_serializations() {
        // The 32-byte GradStudent in a 16-byte arena overflows by exactly
        // 16 bytes; the measurement must survive into the JSON envelope
        // and the SARIF properties bag.
        let record = scanned("demo.pnx", VULNERABLE);
        let json = render_json(std::slice::from_ref(&record), None, None);
        assert!(json.contains("\"width\": 16"), "{json}");
        let sarif = render_sarif(&[record]);
        assert!(sarif.contains("\"overflowWidthBytes\": 16"), "{sarif}");
    }

    #[test]
    fn json_output_is_deterministic() {
        let records = [scanned("demo.pnx", VULNERABLE)];
        assert_eq!(render_json(&records, None, None), render_json(&records, None, None));
    }

    #[test]
    fn parse_errors_become_envelope_errors_and_sarif_results() {
        let record = scanned("broken.pnx", "program t;\nfn f() {\n    n = ;\n}\n");
        assert!(record.report.is_none());
        let json = render_json(std::slice::from_ref(&record), None, None);
        assert!(json.contains("\"program\": null"), "{json}");
        assert!(json.contains("unknown variable"), "{json}");
        let sarif = render_sarif(&[record]);
        assert!(sarif.contains("pnx/parse-error"), "{sarif}");
        assert!(sarif.contains("\"level\": \"error\""), "{sarif}");
    }

    #[test]
    fn sarif_results_point_at_precise_regions() {
        let sarif = render_sarif(&[scanned("demo.pnx", VULNERABLE)]);
        assert!(sarif.contains("\"version\": \"2.1.0\""), "{sarif}");
        assert!(sarif.contains("\"startLine\": 7"), "{sarif}");
        assert!(sarif.contains("\"startColumn\": 5"), "{sarif}");
        assert!(sarif.contains("\"uri\": \"demo.pnx\""), "{sarif}");
        // Every detector rule is declared once, findings or not.
        for kind in FindingKind::ALL {
            assert!(sarif.contains(kind.rule_id()), "{}", kind.rule_id());
        }
    }

    #[test]
    fn builder_sites_without_spans_fall_back_to_the_ordinal() {
        use crate::{Expr, ProgramBuilder, Ty};
        let mut p = ProgramBuilder::new("built");
        p.class("Student", 16, None, false);
        p.class("GradStudent", 32, Some("Student"), false);
        let mut f = p.function("main");
        let stud = f.local("stud", Ty::Class("Student".into()));
        let st = f.local("st", Ty::Ptr);
        f.placement_new(st, Expr::addr_of(stud), "GradStudent");
        f.finish();
        let record = FileRecord {
            path: "built.pnx".into(),
            report: Some(Analyzer::new().analyze(&p.build())),
            errors: Vec::new(),
        };
        let json = render_json(std::slice::from_ref(&record), None, None);
        assert!(json.contains("\"span\": null"), "{json}");
        let sarif = render_sarif(&[record]);
        assert!(sarif.contains("\"startLine\": 1"), "{sarif}");
        assert!(sarif.contains("\"startColumn\": 1"), "{sarif}");
    }

    #[test]
    fn oracle_envelope_carries_verdicts_and_matrix() {
        use crate::oracle::{Matrix, Oracle};
        let program = parse_program(VULNERABLE).unwrap();
        let report = Oracle::new().differential(&program);
        let mut matrix = Matrix::new();
        matrix.absorb(&report);
        let json = render_oracle_json(&[OracleRecord { path: "demo.pnx".into(), report }], &matrix);
        assert!(json.contains("\"schema\": \"pncheck-oracle/1\""), "{json}");
        assert!(json.contains("\"verdict\": \"true-positive\""), "{json}");
        assert!(json.contains("\"kind\": \"oversized-placement\""), "{json}");
        assert!(json.contains("\"false_negatives\": 0"), "{json}");
        assert!(json.contains("\"agreement\": \"sound\""), "{json}");
    }

    #[test]
    fn stats_and_trace_embed_when_given() {
        use crate::trace::TraceCollector;
        use crate::{Analyzer, BatchEngine};
        use std::sync::Arc;
        let trace = Arc::new(TraceCollector::new());
        let engine = BatchEngine::new(Analyzer::new()).with_jobs(1).with_trace(Arc::clone(&trace));
        let (outcomes, stats) = engine.scan_sources_with_stats(&[VULNERABLE]);
        let record = FileRecord {
            path: "demo.pnx".into(),
            report: outcomes[0].report.clone(),
            errors: Vec::new(),
        };
        let json = render_json(&[record], Some(&stats), Some(&trace.snapshot()));
        assert!(json.contains("\"stats\": {"), "{json}");
        assert!(json.contains("\"cache_misses\": 1"), "{json}");
        assert!(json.contains("\"counters\": {"), "{json}");
        assert!(json.contains("\"analysis.programs\": 1"), "{json}");
    }
}
