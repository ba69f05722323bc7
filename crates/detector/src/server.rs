//! `pncheckd` — the detector as a persistent analysis service.
//!
//! Every one-shot `pncheck` run pays process startup, cache open, and
//! engine construction before it analyzes a single file. A [`Server`]
//! pays them once: it holds one [`BatchEngine`] per analyzer
//! configuration — each with its in-memory analysis store and
//! (optionally) an open [`PersistentCache`] — across requests,
//! so a warm `analyze` of unchanged text runs zero parses and zero
//! analyses. Requests fan out onto the engine's worker pool with a
//! per-request `jobs` override.
//!
//! # The `pncheckd/1` protocol
//!
//! Newline-delimited JSON over stdin/stdout or a TCP connection. A
//! **request** is one line, a JSON object:
//!
//! ```text
//! {"op":"analyze","id":1,"paths":["examples/pnx"],"jobs":2}
//! {"op":"analyze","id":2,"source":"program p;\nfn main() {}\n","format":"json"}
//! {"op":"delta","id":3,"paths":["examples/pnx"],"changed":["examples/pnx/l4.pnx"]}
//! {"op":"stats","id":4}
//! {"op":"ping","id":5}
//! {"op":"shutdown","id":6}
//! ```
//!
//! A **response** is one header line — a compact JSON object that never
//! contains a raw newline — followed by exactly `bytes` bytes of
//! payload:
//!
//! ```text
//! {"schema":"pncheckd/1","id":1,"ok":true,"op":"analyze","exit":1,"bytes":1234}
//! ...1234 payload bytes...
//! ```
//!
//! The `analyze` payload **reuses the `pncheck` envelopes byte for
//! byte**: `format: "json"` (the default) is exactly `pncheck --format
//! json` over the same inputs, `"sarif"` is `--format sarif`, `"text"`
//! is the CLI's text report. `exit` mirrors the CLI's exit status (0
//! clean, 1 findings, 2 read/parse errors). The `delta` op rescans
//! paths incrementally through the engine's tracked index — unchanged
//! files (by stat, or by a trusted client `changed` hint) are served
//! with zero reads and zero parses, the payload stays byte-identical
//! to a full `analyze` of the same paths, and the header carries the
//! invalidation-cone counters. Malformed, oversized, or
//! invalid requests get `"ok":false` with a structured `error` object —
//! never a dropped connection, and never interference with other
//! clients. Field values are validated by [`crate::cliopts`], the same
//! rules the CLI enforces.
//!
//! Robustness is the point of a daemon: request lines are bounded
//! ([`ServerConfig::max_request_bytes`], code `too-large`), idle
//! connections are reaped ([`ServerConfig::idle_timeout`], code
//! `idle-timeout`), and `shutdown` stops the accept loop, closes
//! lingering connections, and lets in-flight requests finish — cache
//! entries are written synchronously during each scan, so nothing is
//! lost.
//!
//! # Fleet mode
//!
//! The TCP transport is a readiness-driven event loop
//! (see [`crate::eventloop`]): connections are non-blocking, requests
//! queue fairly per client, and a worker pool drains the queue. Load
//! beyond [`ServerConfig::max_connections`] therefore degrades to
//! *queuing*, not rejection — `busy` is only returned at the hard
//! connection cap (8 × `max_connections`), and a client that pipelines
//! past its per-connection quota ([`ServerConfig::client_quota`]) gets
//! a `quota-exceeded` error for the excess request while the
//! connection survives. Replicas can split the fingerprint space
//! ([`ServerConfig::shard`], CLI `--shard K/N`) so each daemon keeps
//! only its slice warm, and the persistent tier can run on either
//! cache backend ([`ServerConfig::cache_backend`], CLI
//! `--cache-backend dir|indexed`).
//!
//! # Counters
//!
//! Each event is counted once, where it happens. Request, error,
//! rejected-connection and delta-function counts are the server's trace
//! counters (`server.*`). Cache, parse and store counts live in each
//! engine ([`BatchEngine::cache_stats`]): its files' tallies, summed as
//! each file finishes. The `stats` op renders both as lifetime totals.
//! An `analyze` or `delta` request with `"stats": true` embeds the
//! [`crate::BatchStats`] of its own scan, which adds up only that
//! scan's files, so concurrent requests on one engine never count each
//! other's work.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread;
use std::time::Duration;

use crate::analysis::{Analyzer, AnalyzerConfig};
use crate::backend::{BackendKind, CacheBackend};
use crate::batch::{BatchEngine, CacheStats, ShardSpec};
use crate::cache::{config_tag, PersistentCache};
use crate::cliopts::{self, ScanMode};
use crate::clock::{Clock, SystemClock};
use crate::emit::{self, obj, FileRecord, JsonValue, OutputFormat};
use crate::eventloop::{FairQueue, Frame, LineFramer, PushError, TickPoller};
use crate::trace::TraceCollector;

/// The protocol name and version announced in every response header.
pub const PROTOCOL: &str = "pncheckd/1";

/// The stats payload schema.
pub const STATS_SCHEMA: &str = "pncheckd-stats/1";

// ---------------------------------------------------------------------
// A minimal, defensive JSON parser.
// ---------------------------------------------------------------------
//
// The workspace builds offline (no serde), and until now only ever
// *wrote* JSON. The daemon reads it from untrusted clients, so the
// parser is strict and bounded: recursion depth is capped, escapes are
// validated (including surrogate pairs), and any trailing garbage is an
// error. Input size is bounded upstream by the request-line limit.

/// Maximum nesting depth a request may use.
const MAX_JSON_DEPTH: usize = 64;

/// A parsed JSON value. Object fields keep their input order.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonNode {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number that is an exact integer.
    Int(i64),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonNode>),
    /// An object, fields in input order.
    Obj(Vec<(String, JsonNode)>),
}

/// Parses one JSON document; the whole input must be consumed.
pub fn parse_json(text: &str) -> Result<JsonNode, String> {
    let mut p = JsonParser { bytes: text.as_bytes(), pos: 0 };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(value)
}

struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl JsonParser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at byte {}", char::from(b), self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<JsonNode, String> {
        if depth > MAX_JSON_DEPTH {
            return Err("nesting too deep".to_owned());
        }
        match self.peek() {
            None => Err("unexpected end of input".to_owned()),
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(JsonNode::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonNode::Bool(true)),
            Some(b'f') => self.literal("false", JsonNode::Bool(false)),
            Some(b'n') => self.literal("null", JsonNode::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => {
                Err(format!("unexpected character {:?} at byte {}", char::from(other), self.pos))
            }
        }
    }

    fn literal(&mut self, word: &str, node: JsonNode) -> Result<JsonNode, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(node)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonNode, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonNode::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonNode::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonNode, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonNode::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonNode::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn hex4(&mut self) -> Result<u16, String> {
        let slice = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| "truncated \\u escape".to_owned())?;
        let text = std::str::from_utf8(slice).map_err(|_| "invalid \\u escape".to_owned())?;
        let code =
            u16::from_str_radix(text, 16).map_err(|_| format!("invalid \\u escape {text:?}"))?;
        self.pos += 4;
        Ok(code)
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_owned()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let c = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: a second \uXXXX must
                                // follow with the low half.
                                if self.bytes.get(self.pos) != Some(&b'\\')
                                    || self.bytes.get(self.pos + 1) != Some(&b'u')
                                {
                                    return Err("unpaired surrogate".to_owned());
                                }
                                self.pos += 2;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err("unpaired surrogate".to_owned());
                                }
                                let code = 0x10000
                                    + ((u32::from(hi) - 0xD800) << 10)
                                    + (u32::from(lo) - 0xDC00);
                                char::from_u32(code).ok_or("invalid surrogate pair")?
                            } else if (0xDC00..0xE000).contains(&hi) {
                                return Err("unpaired surrogate".to_owned());
                            } else {
                                char::from_u32(u32::from(hi)).ok_or("invalid \\u escape")?
                            };
                            out.push(c);
                            continue;
                        }
                        _ => return Err(format!("invalid escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => {
                    return Err(format!("raw control character at byte {}", self.pos));
                }
                Some(_) => {
                    // Multi-byte UTF-8 passes through verbatim; the
                    // input is already a &str, so it is valid.
                    let start = self.pos;
                    self.pos += 1;
                    while self.bytes.get(self.pos).is_some_and(|&b| b >= 0x80 && (b & 0xC0) == 0x80)
                    {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .expect("input was valid UTF-8"),
                    );
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonNode, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut integral = true;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    integral = false;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ASCII");
        if integral {
            if let Ok(n) = text.parse::<i64>() {
                return Ok(JsonNode::Int(n));
            }
        }
        text.parse::<f64>()
            .map(JsonNode::Float)
            .map_err(|_| format!("invalid number {text:?} at byte {start}"))
    }
}

// ---------------------------------------------------------------------
// Requests.
// ---------------------------------------------------------------------

/// A validated request id: echoed verbatim in the response header.
#[derive(Debug, Clone, PartialEq)]
enum RequestId {
    None,
    Str(String),
    Int(u64),
}

impl RequestId {
    fn to_value(&self) -> JsonValue {
        match self {
            RequestId::None => JsonValue::Null,
            RequestId::Str(text) => emit::s(text.clone()),
            RequestId::Int(n) => JsonValue::U64(*n),
        }
    }
}

/// The analyze-request options after validation.
#[derive(Debug, Clone)]
struct AnalyzeRequest {
    /// Filesystem paths (dirs expand); just `-` with inline `source`.
    paths: Vec<String>,
    /// Inline source text, analyzed under the path `-` like `pncheck -`
    /// fed the same bytes on stdin.
    source: Option<String>,
    jobs: Option<usize>,
    config: AnalyzerConfig,
    format: OutputFormat,
    stats: bool,
    /// `op: "delta"`: incremental rescan against the engine's tracked
    /// index instead of a full scan. Requires `paths`.
    delta: bool,
    /// Client-named changed paths for a delta rescan. The hint is
    /// trusted: the stat sweep is skipped, so a changed file the client
    /// does not name is served stale until the next unhinted rescan.
    changed: Option<Vec<String>>,
}

enum Request {
    Analyze(Box<AnalyzeRequest>),
    Ping,
    Stats,
    Shutdown,
}

/// A protocol-level failure: a stable machine-readable code plus a
/// human-oriented message.
struct RequestError {
    code: &'static str,
    message: String,
}

impl RequestError {
    fn new(code: &'static str, message: impl Into<String>) -> Self {
        RequestError { code, message: message.into() }
    }
}

fn parse_request(
    node: JsonNode,
    base: &AnalyzerConfig,
) -> Result<(RequestId, Request), (RequestId, RequestError)> {
    let JsonNode::Obj(fields) = node else {
        return Err((
            RequestId::None,
            RequestError::new("bad-request", "request must be a JSON object"),
        ));
    };
    // The id is recovered first so even a rejected request echoes it.
    let id = match fields.iter().find(|(k, _)| k == "id").map(|(_, v)| v) {
        None | Some(JsonNode::Null) => RequestId::None,
        Some(JsonNode::Str(text)) => RequestId::Str(text.clone()),
        Some(JsonNode::Int(n)) if *n >= 0 => RequestId::Int(*n as u64),
        Some(_) => {
            return Err((
                RequestId::None,
                RequestError::new(
                    "bad-request",
                    "\"id\" must be a string or a non-negative integer",
                ),
            ));
        }
    };
    let fail = |code, message: String| (id.clone(), RequestError::new(code, message));

    let Some(JsonNode::Str(op)) = fields.iter().find(|(k, _)| k == "op").map(|(_, v)| v) else {
        return Err(fail("bad-request", "request needs a string \"op\" field".to_owned()));
    };
    let allowed: &[&str] = match op.as_str() {
        "analyze" => {
            &["op", "id", "paths", "source", "jobs", "min_severity", "disable", "format", "stats"]
        }
        "delta" => {
            &["op", "id", "paths", "changed", "jobs", "min_severity", "disable", "format", "stats"]
        }
        "ping" | "stats" | "shutdown" => &["op", "id"],
        other => {
            return Err(fail(
                "unknown-op",
                format!("unknown op {other:?} (analyze|delta|stats|ping|shutdown)"),
            ));
        }
    };
    for (key, _) in &fields {
        if !allowed.contains(&key.as_str()) {
            return Err(fail("bad-request", format!("unknown field {key:?} for op {op:?}")));
        }
    }
    let op = op.clone();
    match op.as_str() {
        "ping" => return Ok((id, Request::Ping)),
        "stats" => return Ok((id, Request::Stats)),
        "shutdown" => return Ok((id, Request::Shutdown)),
        _ => {}
    }

    // analyze: shared options are validated by the same `cliopts` rules
    // the CLI uses, so the daemon cannot drift from `pncheck`.
    let mut req = AnalyzeRequest {
        paths: Vec::new(),
        source: None,
        jobs: None,
        config: base.clone(),
        format: OutputFormat::Json,
        stats: false,
        delta: op == "delta",
        changed: None,
    };
    for (key, value) in fields {
        match (key.as_str(), value) {
            ("op", _) | ("id", _) => {}
            ("paths", JsonNode::Arr(items)) => {
                for item in items {
                    match item {
                        JsonNode::Str(path) => req.paths.push(path),
                        _ => {
                            return Err(fail(
                                "bad-request",
                                "\"paths\" must be an array of strings".to_owned(),
                            ));
                        }
                    }
                }
            }
            ("source", JsonNode::Str(text)) => req.source = Some(text),
            ("changed", JsonNode::Arr(items)) => {
                let mut changed = Vec::with_capacity(items.len());
                for item in items {
                    match item {
                        JsonNode::Str(path) => changed.push(path),
                        _ => {
                            return Err(fail(
                                "bad-request",
                                "\"changed\" must be an array of strings".to_owned(),
                            ));
                        }
                    }
                }
                req.changed = Some(changed);
            }
            ("jobs", JsonNode::Int(n)) => match cliopts::parse_jobs(&n.to_string()) {
                Ok(n) => req.jobs = Some(n),
                Err(e) => return Err(fail("bad-value", e)),
            },
            ("min_severity", JsonNode::Str(level)) => match cliopts::parse_min_severity(&level) {
                Ok(s) => req.config.min_severity = s,
                Err(e) => return Err(fail("bad-value", e)),
            },
            ("disable", JsonNode::Arr(items)) => {
                for item in items {
                    match item {
                        JsonNode::Str(kind) => match cliopts::parse_disable(&kind) {
                            Ok(k) => req.config.disabled.push(k),
                            Err(e) => return Err(fail("bad-value", e)),
                        },
                        _ => {
                            return Err(fail(
                                "bad-request",
                                "\"disable\" must be an array of strings".to_owned(),
                            ));
                        }
                    }
                }
            }
            ("format", JsonNode::Str(value)) => match cliopts::parse_format(&value) {
                Ok(f) => req.format = f,
                Err(e) => return Err(fail("bad-value", e)),
            },
            ("stats", JsonNode::Bool(b)) => req.stats = b,
            (key, _) => {
                return Err(fail("bad-request", format!("field {key:?} has the wrong type")));
            }
        }
    }
    if req.delta {
        if req.paths.is_empty() {
            return Err(fail("bad-request", "delta needs a non-empty \"paths\"".to_owned()));
        }
    } else if req.paths.is_empty() == req.source.is_none() {
        return Err(fail(
            "bad-request",
            "analyze needs exactly one of \"paths\" or \"source\"".to_owned(),
        ));
    } else if req.source.is_some() {
        req.paths.push("-".to_owned());
    }
    Ok((id, Request::Analyze(Box::new(req))))
}

// ---------------------------------------------------------------------
// The server.
// ---------------------------------------------------------------------

/// Tunables for a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// The analyzer configuration requests inherit (a request's
    /// `min_severity`/`disable` override it for that request only).
    pub base: AnalyzerConfig,
    /// Default worker count per scan; `None` = available parallelism.
    pub jobs: Option<usize>,
    /// Directory for the persistent cache tier; `None` disables it.
    pub cache_dir: Option<PathBuf>,
    /// On-disk layout of the persistent tier: one file per entry
    /// (`dir`, the default — safe to share between processes) or a
    /// single indexed store (`indexed` — one file, one writer).
    pub cache_backend: BackendKind,
    /// This replica's slice of the fingerprint space (`--shard K/N`);
    /// `None` serves (and warms) every key.
    pub shard: Option<ShardSpec>,
    /// Longest accepted request line, in bytes. Longer lines are
    /// discarded and answered with a `too-large` error.
    pub max_request_bytes: usize,
    /// The fair-queuing design point: connections beyond this queue
    /// instead of being rejected, and `busy` only appears at the hard
    /// cap of 8 × this value.
    pub max_connections: usize,
    /// Most requests one connection may have queued + in flight;
    /// the excess request is answered with `quota-exceeded` and the
    /// connection survives.
    pub client_quota: usize,
    /// How long a TCP connection may sit idle — nothing queued, nothing
    /// in flight — before the server closes it (`idle-timeout`).
    /// `None` = never.
    pub idle_timeout: Option<Duration>,
    /// The time source for idle reaping, uptime, pass timing, and
    /// `--watch` pacing. The real [`SystemClock`] by default; the DST
    /// harness ([`crate::sim`]) installs a [`crate::clock::SimClock`]
    /// so whole schedules run on virtual time.
    pub clock: Arc<dyn Clock>,
    /// Test seam: wraps each engine's persistent backend as it is
    /// opened. `None` (always, outside the DST harness) uses the
    /// backend as opened; the harness injects
    /// [`crate::sim::FaultyBackend`] here.
    pub backend_wrap: Option<BackendWrap>,
}

/// A hook that wraps a freshly opened persistent [`CacheBackend`]
/// before the cache layer sees it. Not reachable from the CLI — this
/// exists so the DST harness can interpose fault injection between
/// [`PersistentCache`] and the real store.
#[derive(Clone)]
pub struct BackendWrap(
    /// The wrapping function; receives the opened backend, returns the
    /// backend the engine should actually use.
    pub Arc<BackendWrapFn>,
);

/// The function type carried by [`BackendWrap`].
pub type BackendWrapFn = dyn Fn(Box<dyn CacheBackend>) -> Box<dyn CacheBackend> + Send + Sync;

impl fmt::Debug for BackendWrap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("BackendWrap(..)")
    }
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            base: AnalyzerConfig::default(),
            jobs: None,
            cache_dir: None,
            cache_backend: BackendKind::Dir,
            shard: None,
            max_request_bytes: 4 * 1024 * 1024,
            max_connections: 32,
            client_quota: 16,
            idle_timeout: Some(Duration::from_secs(300)),
            clock: Arc::new(SystemClock::default()),
            backend_wrap: None,
        }
    }
}

/// One response, framed and ready to write: a single header line plus
/// exactly the payload bytes the header advertises.
#[derive(Debug, Clone, PartialEq)]
pub struct Reply {
    /// Compact single-line JSON header (no trailing newline).
    pub header: String,
    /// Payload, exactly `bytes` bytes as advertised in the header.
    pub payload: String,
    /// The request asked the server to shut down.
    pub shutdown: bool,
}

impl Reply {
    fn error(id: &RequestId, err: &RequestError) -> Reply {
        let header = obj(vec![
            ("schema", emit::s(PROTOCOL)),
            ("id", id.to_value()),
            ("ok", JsonValue::Bool(false)),
            (
                "error",
                obj(vec![("code", emit::s(err.code)), ("message", emit::s(err.message.clone()))]),
            ),
            ("bytes", JsonValue::U64(0)),
        ]);
        Reply { header: emit::render_compact(&header), payload: String::new(), shutdown: false }
    }

    /// Writes the framed reply: header line, newline, payload bytes.
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        w.write_all(self.header.as_bytes())?;
        w.write_all(b"\n")?;
        w.write_all(self.payload.as_bytes())?;
        w.flush()
    }
}

/// The resident analysis service. See the [module docs](self) for the
/// protocol. Thread-safe: one `Server` handles any number of
/// connections concurrently, and all of them share the warm engines.
#[derive(Debug)]
pub struct Server {
    config: ServerConfig,
    /// One engine per analyzer configuration, keyed by its config tag —
    /// requests with equivalent options share one engine (and its warm
    /// caches); the cache tags guarantee an engine never serves a
    /// verdict computed under different rules.
    engines: Mutex<HashMap<u64, Arc<BatchEngine>>>,
    trace: TraceCollector,
    started_ns: u64,
    shutdown: AtomicBool,
    active_connections: AtomicUsize,
}

impl Server {
    /// Builds the server and eagerly constructs the base-configuration
    /// engine, so an unusable `cache_dir` fails here — fast, with the
    /// underlying error — instead of degrading silently per request.
    pub fn new(config: ServerConfig) -> io::Result<Self> {
        let started_ns = config.clock.now_ns();
        let server = Server {
            config,
            engines: Mutex::new(HashMap::new()),
            trace: TraceCollector::new(),
            started_ns,
            shutdown: AtomicBool::new(false),
            active_connections: AtomicUsize::new(0),
        };
        let base = server.config.base.clone();
        server.engine_for(&base)?;
        Ok(server)
    }

    /// `true` once a `shutdown` request has been served.
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// The server's time source ([`ServerConfig::clock`]) — transports
    /// and `--watch` pace themselves through this so simulated servers
    /// never touch real time.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.config.clock
    }

    /// The engine for the base configuration, which `pncheckd --watch`
    /// rescans. [`Server::new`] built it, so this cannot fail.
    pub fn base_engine(&self) -> Arc<BatchEngine> {
        self.engine_for(&self.config.base).expect("Server::new built the base engine")
    }

    /// The engine for `config`, building (and caching) it on first use.
    fn engine_for(&self, config: &AnalyzerConfig) -> io::Result<Arc<BatchEngine>> {
        let tag = config_tag(config);
        if let Some(engine) = self.engines.lock().expect("engine map poisoned").get(&tag) {
            return Ok(Arc::clone(engine));
        }
        let mut engine = BatchEngine::new(Analyzer::with_config(config.clone()));
        if let Some(jobs) = self.config.jobs {
            engine = engine.with_jobs(jobs);
        }
        if let Some(dir) = &self.config.cache_dir {
            let backend = self.config.cache_backend.open(dir)?;
            let backend = match &self.config.backend_wrap {
                Some(wrap) => (wrap.0)(backend),
                None => backend,
            };
            // Entries are config-tagged, so every engine can share one
            // directory without ever serving a stale verdict.
            engine = engine.with_persistent_cache(PersistentCache::with_backend(config, backend));
        }
        if let Some(shard) = self.config.shard {
            engine = engine.with_shard(shard);
        }
        engine = engine.with_clock(Arc::clone(&self.config.clock));
        let engine = Arc::new(engine);
        self.engines
            .lock()
            .expect("engine map poisoned")
            .entry(tag)
            .or_insert_with(|| Arc::clone(&engine));
        Ok(engine)
    }

    /// Handles one request line and returns the framed reply. This is
    /// the whole protocol with the transport peeled off — the tests
    /// drive it directly, and every transport goes through it.
    pub fn handle_line(&self, line: &str) -> Reply {
        self.trace.count("server.requests", 1);
        let parsed = match parse_json(line) {
            Ok(node) => parse_request(node, &self.config.base),
            Err(e) => Err((
                RequestId::None,
                RequestError::new("bad-request", format!("invalid JSON: {e}")),
            )),
        };
        match parsed {
            Err((id, err)) => self.error_reply(&id, &err),
            Ok((id, Request::Ping)) => {
                self.trace.count("server.ping", 1);
                let header = obj(vec![
                    ("schema", emit::s(PROTOCOL)),
                    ("id", id.to_value()),
                    ("ok", JsonValue::Bool(true)),
                    ("op", emit::s("ping")),
                    ("event", emit::s("pong")),
                    ("bytes", JsonValue::U64(0)),
                ]);
                Reply {
                    header: emit::render_compact(&header),
                    payload: String::new(),
                    shutdown: false,
                }
            }
            Ok((id, Request::Stats)) => {
                self.trace.count("server.stats", 1);
                let payload = self.render_stats();
                let header = obj(vec![
                    ("schema", emit::s(PROTOCOL)),
                    ("id", id.to_value()),
                    ("ok", JsonValue::Bool(true)),
                    ("op", emit::s("stats")),
                    ("bytes", JsonValue::U64(payload.len() as u64)),
                ]);
                Reply { header: emit::render_compact(&header), payload, shutdown: false }
            }
            Ok((id, Request::Shutdown)) => {
                self.trace.count("server.shutdown", 1);
                self.shutdown.store(true, Ordering::SeqCst);
                let header = obj(vec![
                    ("schema", emit::s(PROTOCOL)),
                    ("id", id.to_value()),
                    ("ok", JsonValue::Bool(true)),
                    ("op", emit::s("shutdown")),
                    ("event", emit::s("shutting-down")),
                    ("bytes", JsonValue::U64(0)),
                ]);
                Reply {
                    header: emit::render_compact(&header),
                    payload: String::new(),
                    shutdown: true,
                }
            }
            Ok((id, Request::Analyze(req))) => {
                let pass = if req.delta { "server.delta" } else { "server.analyze" };
                self.trace.count(pass, 1);
                let start_ns = self.config.clock.now_ns();
                let reply = match self.analyze(&id, &req) {
                    Ok(reply) => reply,
                    Err(err) => self.error_reply(&id, &err),
                };
                let elapsed =
                    Duration::from_nanos(self.config.clock.now_ns().saturating_sub(start_ns));
                self.trace.record_pass(pass, elapsed);
                reply
            }
        }
    }

    /// Serves one `analyze` or `delta` request: scan through the shared
    /// engine exactly as `pncheck` does ([`cliopts::scan`]) and reply
    /// with the envelope it would print as payload. The header carries
    /// the exit code, any file errors and, for `delta`, the
    /// invalidation counters.
    ///
    /// A `delta` rescans through the engine's tracked index; the first
    /// one against a cold engine seeds that index from the cache
    /// directory's manifest, so a fresh daemon picks up where a
    /// `pncheck --delta` run (or a previous daemon) left off.
    fn analyze(&self, id: &RequestId, req: &AnalyzeRequest) -> Result<Reply, RequestError> {
        let engine = self.engine_for(&req.config).map_err(|e| {
            RequestError::new("engine-unavailable", format!("cannot open cache: {e}"))
        })?;
        let mode = if req.delta {
            ScanMode::Delta { changed: req.changed.as_deref() }
        } else {
            ScanMode::Full { stdin: req.source.as_deref().map(Ok) }
        };
        let jobs = req.jobs.unwrap_or_else(|| engine.jobs());
        let scan = cliopts::scan(&engine, &req.paths, mode, jobs);
        let mut file_errors = scan.expand_errors;
        let mut records: Vec<FileRecord> = Vec::with_capacity(scan.files.len());
        for file in scan.files {
            match file.record {
                Ok(record) => records.push(record),
                Err(line) => file_errors.push(line),
            }
        }
        self.trace.count("server.files", records.len() as u64);
        let findings: usize =
            records.iter().filter_map(|r| r.report.as_ref()).map(|r| r.findings.len()).sum();
        self.trace.count("server.findings", findings as u64);

        let payload = emit::render_records(
            req.format,
            &records,
            req.stats.then_some(&scan.stats),
            None,
            |_, _| {},
        );
        let exit = emit::exit_code(&records, !file_errors.is_empty());
        let mut header_fields = vec![
            ("schema", emit::s(PROTOCOL)),
            ("id", id.to_value()),
            ("ok", JsonValue::Bool(true)),
            ("op", emit::s(if req.delta { "delta" } else { "analyze" })),
            ("exit", JsonValue::U64(exit.into())),
        ];
        if let Some(delta) = scan.delta {
            self.trace
                .count("server.delta-changed", (delta.changed_files + delta.added_files) as u64);
            self.trace.count("server.delta-unchanged", delta.unchanged_files as u64);
            self.trace.count("server.delta-cone-functions", delta.cone_functions as u64);
            self.trace.count("server.delta-fn-reanalyzed", delta.functions_reanalyzed as u64);
            self.trace.count("server.delta-fn-reused", delta.functions_reused as u64);
            let counters = obj(vec![
                ("tracked", JsonValue::U64(delta.tracked_files as u64)),
                ("unchanged", JsonValue::U64(delta.unchanged_files as u64)),
                ("changed", JsonValue::U64(delta.changed_files as u64)),
                ("added", JsonValue::U64(delta.added_files as u64)),
                ("removed", JsonValue::U64(delta.removed_files as u64)),
                ("cone_functions", JsonValue::U64(delta.cone_functions as u64)),
                ("changed_functions", JsonValue::U64(delta.changed_functions as u64)),
                ("tracked_functions", JsonValue::U64(delta.tracked_functions as u64)),
                ("functions_reanalyzed", JsonValue::U64(delta.functions_reanalyzed as u64)),
                ("functions_reused", JsonValue::U64(delta.functions_reused as u64)),
                ("stat_fastpath_hits", JsonValue::U64(delta.stat_fastpath_hits as u64)),
            ]);
            header_fields.push(("delta", counters));
        }
        if !file_errors.is_empty() {
            header_fields.push((
                "file_errors",
                JsonValue::Arr(file_errors.into_iter().map(emit::s).collect()),
            ));
        }
        header_fields.push(("bytes", JsonValue::U64(payload.len() as u64)));
        Ok(Reply { header: emit::render_compact(&obj(header_fields)), payload, shutdown: false })
    }

    /// The `pncheckd-stats/1` payload: request counters, connection
    /// state, and the lifetime cache/parse counters of every engine,
    /// summed (see [Counters](self#counters)).
    fn render_stats(&self) -> String {
        // One consistent snapshot per engine, so the summed
        // `hits + misses == lookups` invariant survives concurrent
        // requests — a stats reader can never see a torn pair.
        let engines: Vec<CacheStats> = {
            let engines = self.engines.lock().expect("engine map poisoned");
            engines.values().map(|e| e.cache_stats()).collect()
        };
        let sum = |f: fn(&CacheStats) -> u64| JsonValue::U64(engines.iter().map(f).sum());
        let snap = self.trace.snapshot();
        let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
        let trace_counters: Vec<(String, JsonValue)> =
            snap.counters.iter().map(|(name, v)| (name.clone(), JsonValue::U64(*v))).collect();
        let payload = obj(vec![
            ("schema", emit::s(STATS_SCHEMA)),
            (
                "tool",
                obj(vec![
                    ("name", emit::s("pncheckd")),
                    ("version", emit::s(env!("CARGO_PKG_VERSION"))),
                ]),
            ),
            (
                "uptime_us",
                JsonValue::U64(self.config.clock.now_ns().saturating_sub(self.started_ns) / 1_000),
            ),
            (
                "requests",
                obj(vec![
                    ("total", JsonValue::U64(counter("server.requests"))),
                    ("analyze", JsonValue::U64(counter("server.analyze"))),
                    ("delta", JsonValue::U64(counter("server.delta"))),
                    ("ping", JsonValue::U64(counter("server.ping"))),
                    ("stats", JsonValue::U64(counter("server.stats"))),
                    ("shutdown", JsonValue::U64(counter("server.shutdown"))),
                    ("errors", JsonValue::U64(counter("server.errors"))),
                ]),
            ),
            (
                "connections",
                obj(vec![
                    (
                        "active",
                        JsonValue::U64(self.active_connections.load(Ordering::Relaxed) as u64),
                    ),
                    ("rejected", JsonValue::U64(counter("server.rejected-connections"))),
                    ("max", JsonValue::U64(self.config.max_connections as u64)),
                    ("hard_cap", JsonValue::U64(hard_connection_cap(&self.config) as u64)),
                    ("client_quota", JsonValue::U64(self.config.client_quota as u64)),
                ]),
            ),
            (
                "fleet",
                obj(vec![
                    (
                        "shard",
                        match self.config.shard {
                            Some(shard) => emit::s(format!("{}/{}", shard.index, shard.count)),
                            None => JsonValue::Null,
                        },
                    ),
                    ("cache_backend", emit::s(self.config.cache_backend.name())),
                ]),
            ),
            (
                "analysis",
                obj(vec![
                    ("engines", JsonValue::U64(engines.len() as u64)),
                    ("files", JsonValue::U64(counter("server.files"))),
                    ("findings", JsonValue::U64(counter("server.findings"))),
                    ("parses", sum(|c| c.counts.parses)),
                    ("fingerprint_hits", sum(|c| c.counts.hits)),
                    ("fingerprint_misses", sum(|c| c.counts.misses)),
                    ("fingerprint_lookups", sum(|c| c.lookups)),
                    ("source_cache_entries", sum(|c| c.source_entries as u64)),
                    ("persistent_hits", sum(|c| c.counts.disk_hits)),
                    ("persistent_misses", sum(|c| c.counts.disk_misses)),
                    ("persistent_corrupt", sum(|c| c.counts.disk_corrupt)),
                    ("persistent_stores", sum(|c| c.counts.disk_stores)),
                    ("persistent_write_errors", sum(|c| c.counts.disk_write_errors)),
                    ("tracked_files", sum(|c| c.tracked_files as u64)),
                    ("functions_reanalyzed", JsonValue::U64(counter("server.delta-fn-reanalyzed"))),
                    ("functions_reused", JsonValue::U64(counter("server.delta-fn-reused"))),
                    ("summary_store_entries", sum(|c| c.summary_entries as u64)),
                    ("summary_store_hits", sum(|c| c.summary_hits)),
                    ("summary_store_misses", sum(|c| c.summary_misses)),
                ]),
            ),
            ("trace", JsonValue::Obj(trace_counters)),
        ]);
        emit::render_compact(&payload) + "\n"
    }

    /// Admits one framed request line. A line to serve goes to
    /// `enqueue`, and a blank line is skipped. A line that is too large,
    /// not UTF-8, or refused by `enqueue` because the client is over its
    /// quota gets back the protocol error that answers it, counted in
    /// `requests.errors`. Every transport admits its lines here.
    fn admit(
        &self,
        frame: Frame,
        enqueue: impl FnOnce(String) -> Result<(), PushError>,
    ) -> Option<Reply> {
        let err = match frame {
            Frame::TooLong => RequestError::new(
                "too-large",
                format!("request exceeds the {}-byte limit", self.config.max_request_bytes),
            ),
            Frame::Line(bytes) => match String::from_utf8(bytes) {
                Err(_) => RequestError::new("bad-request", "request is not valid UTF-8"),
                // Blank lines keep NDJSON pipelines simple.
                Ok(line) if line.trim().is_empty() => return None,
                Ok(line) => match enqueue(line) {
                    Ok(()) => return None,
                    Err(PushError::QuotaExceeded) => {
                        self.trace.count("server.quota-exceeded", 1);
                        RequestError::new(
                            "quota-exceeded",
                            format!(
                                "client already has {} requests queued or in flight; \
                                 wait for replies before sending more",
                                self.config.client_quota
                            ),
                        )
                    }
                },
            },
        };
        Some(self.error_reply(&RequestId::None, &err))
    }

    /// An error reply, counted in `requests.errors`.
    fn error_reply(&self, id: &RequestId, err: &RequestError) -> Reply {
        self.trace.count("server.errors", 1);
        Reply::error(id, err)
    }

    /// Serves one blocking connection — `pncheckd`'s stdin and stdout —
    /// until EOF, a `shutdown` request, or the server shutting down.
    /// Lines are framed by the same [`LineFramer`] and admitted by the
    /// same rules as on the TCP event loop, then served one at a time.
    pub fn serve_connection<R: Read, W: Write>(
        &self,
        mut reader: R,
        mut writer: W,
    ) -> io::Result<()> {
        let mut framer = LineFramer::default();
        let mut buf = [0u8; 8192];
        loop {
            let (frames, eof) = match reader.read(&mut buf) {
                Ok(0) => (framer.finish().into_iter().collect(), true),
                Ok(n) => (framer.feed(&buf[..n], self.config.max_request_bytes), false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            for frame in frames {
                if self.is_shutdown() {
                    return Ok(());
                }
                let mut served = None;
                let error = self.admit(frame, |line| {
                    served = Some(self.handle_line(&line));
                    Ok(())
                });
                if let Some(reply) = error.or(served) {
                    reply.write_to(&mut writer)?;
                    if reply.shutdown {
                        return Ok(());
                    }
                }
            }
            if eof {
                return Ok(());
            }
        }
    }

    /// Accepts and serves TCP connections until a `shutdown` request
    /// arrives on any of them.
    ///
    /// This is the readiness-driven event loop described in
    /// [`crate::eventloop`]: every socket is non-blocking, request
    /// lines queue in a [`FairQueue`] keyed by connection, and a small
    /// worker pool drains the queue through [`Server::handle_line`].
    /// Load beyond `max_connections` queues instead of being turned
    /// away; `busy` only appears at the hard cap (8 ×
    /// `max_connections`), and a client pipelining past its quota gets
    /// `quota-exceeded` for the excess request while the connection
    /// survives. Idle reaping only ever closes a connection with
    /// nothing queued and nothing in flight. On shutdown the loop
    /// stops accepting, lets in-flight requests finish, flushes every
    /// reply, and joins the workers before returning.
    pub fn serve_listener(&self, listener: TcpListener) -> io::Result<()> {
        listener.set_nonblocking(true)?;
        let hard_cap = hard_connection_cap(&self.config);
        let queue: Mutex<FairQueue<String>> = Mutex::new(FairQueue::new(self.config.client_quota));
        let job_ready = Condvar::new();
        let completions: Mutex<Vec<(u64, Reply)>> = Mutex::new(Vec::new());
        let poller = TickPoller::default();
        let workers_stop = AtomicBool::new(false);

        thread::scope(|scope| -> io::Result<()> {
            let workers = thread::available_parallelism().map_or(1, |n| n.get()).clamp(1, 4);
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let mut guard = lock(&queue);
                    let job = loop {
                        if let Some(job) = guard.pop() {
                            break Some(job);
                        }
                        if workers_stop.load(Ordering::SeqCst) {
                            break None;
                        }
                        guard = job_ready.wait(guard).unwrap_or_else(|e| e.into_inner());
                    };
                    drop(guard);
                    let Some((conn_id, line)) = job else { return };
                    let reply = self.handle_line(&line);
                    lock(&completions).push((conn_id, reply));
                    poller.wake();
                });
            }

            // Dropped at the end of this closure, which closes every
            // connection still open.
            let mut conns = Connections::new(self, &queue);
            // Remaining short ticks before the loop falls back to the
            // long idle tick. Without epoll, request *arrival* cannot
            // wake the loop — only the tick discovers new bytes — so a
            // burst of activity arms a train of sub-millisecond probes:
            // a warm pipelined request is picked up in ~500µs instead
            // of waiting out the full 5ms tick.
            let mut hot_ticks: u32 = 0;
            loop {
                let draining = self.is_shutdown();
                let mut activity = false;

                // Accept everything waiting (up to the hard cap).
                while let (false, Ok((stream, _peer))) = (draining, listener.accept()) {
                    activity = true;
                    if conns.len() >= hard_cap {
                        self.trace.count("server.rejected-connections", 1);
                        let err = RequestError::new(
                            "busy",
                            format!("connection hard cap ({hard_cap}) reached; retry later"),
                        );
                        let mut stream = stream;
                        let _ = stream.set_nonblocking(false);
                        let _ = Reply::error(&RequestId::None, &err).write_to(&mut stream);
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    conns.open(stream);
                }

                // New requests are not picked up once shutdown started.
                // Workers are woken the moment a request is queued;
                // nothing sleeps out a tick holding a runnable job.
                if !draining && conns.read_requests() {
                    job_ready.notify_all();
                    activity = true;
                }
                activity |= conns.complete(lock(&completions).drain(..));
                conns.flush();
                if !draining {
                    conns.reap_idle();
                }
                conns.close_finished();
                if draining && conns.drained() {
                    break;
                }

                if activity {
                    hot_ticks = 40;
                }
                let tick = if hot_ticks > 0 {
                    hot_ticks -= 1;
                    Duration::from_micros(500)
                } else {
                    Duration::from_millis(5)
                };
                poller.wait(tick);
            }

            workers_stop.store(true, Ordering::SeqCst);
            job_ready.notify_all();
            Ok(())
        })
    }
}

/// The `busy` threshold: fair queuing absorbs pressure up to eight
/// times the configured connection count before the daemon turns a
/// connection away outright.
fn hard_connection_cap(config: &ServerConfig) -> usize {
    config.max_connections.saturating_mul(8).max(1)
}

/// Locks a mutex of the event loop. Every update to the queue and the
/// completion list leaves them consistent, so a guard poisoned by a
/// panicking worker is still safe to use.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

/// A connection's byte stream, read and written without blocking:
/// `WouldBlock` means "nothing more for now". The daemon's streams are
/// TCP sockets; the DST harness ([`crate::sim`]) supplies scripted
/// in-memory streams.
pub(crate) trait Stream: Read + Write {
    /// Closes the stream once its connection is done.
    fn close(&mut self) {}
}

impl Stream for TcpStream {
    fn close(&mut self) {
        let _ = self.shutdown(Shutdown::Both);
    }
}

/// The connection side of the event loop: every open connection, in id
/// order, and the steps one tick runs over them. A tick reads and
/// admits requests, [`complete`](Connections::complete)s finished
/// replies, flushes, reaps idle connections, and closes finished ones.
/// [`Server::serve_listener`] runs these steps over TCP sockets, and the
/// DST harness runs the same steps over scripted streams. Dropping the
/// set closes every connection still open.
pub(crate) struct Connections<'a, S: Stream> {
    server: &'a Server,
    queue: &'a Mutex<FairQueue<String>>,
    conns: BTreeMap<u64, Conn<S>>,
    next_id: u64,
}

impl<'a, S: Stream> Connections<'a, S> {
    /// An empty set whose requests queue in `queue`.
    pub(crate) fn new(server: &'a Server, queue: &'a Mutex<FairQueue<String>>) -> Self {
        Connections { server, queue, conns: BTreeMap::new(), next_id: 0 }
    }

    /// Open connections.
    pub(crate) fn len(&self) -> usize {
        self.conns.len()
    }

    /// Adds a newly accepted stream under the next connection id.
    pub(crate) fn open(&mut self, stream: S) {
        self.next_id += 1;
        self.server.active_connections.fetch_add(1, Ordering::SeqCst);
        self.server.trace.count("server.connections", 1);
        let now_ns = self.server.config.clock.now_ns();
        self.conns.insert(self.next_id, Conn::new(stream, now_ns));
    }

    /// Reads what every connection has to offer and admits each framed
    /// line. Returns `true` when a request was queued.
    pub(crate) fn read_requests(&mut self) -> bool {
        let (server, queue) = (self.server, self.queue);
        let now_ns = server.config.clock.now_ns();
        let mut enqueued = false;
        for (&id, conn) in &mut self.conns {
            for frame in conn.read_frames(server.config.max_request_bytes, now_ns) {
                let error = server.admit(frame, |line| {
                    let pushed = lock(queue).push(id, line);
                    enqueued |= pushed.is_ok();
                    pushed
                });
                if let Some(error) = error {
                    conn.push_reply(&error);
                }
            }
        }
        enqueued
    }

    /// Moves finished `(connection, reply)` pairs into their output
    /// buffers; a reply for a connection already closed is dropped.
    /// Returns `true` when there was at least one.
    pub(crate) fn complete(&mut self, replies: impl IntoIterator<Item = (u64, Reply)>) -> bool {
        let mut any = false;
        for (conn_id, reply) in replies {
            any = true;
            lock(self.queue).complete(conn_id);
            if let Some(conn) = self.conns.get_mut(&conn_id) {
                conn.last_activity_ns = self.server.config.clock.now_ns();
                conn.push_reply(&reply);
                conn.closing |= reply.shutdown;
            }
        }
        any
    }

    /// Writes as much buffered output as each stream accepts.
    pub(crate) fn flush(&mut self) {
        self.conns.values_mut().for_each(Conn::flush);
    }

    /// Answers every [idle](Conn::idle_reapable) connection with
    /// `idle-timeout` and marks it for closing; does nothing without an
    /// idle timeout. Returns the reaped connections, and how many stale
    /// ones it spared because they had requests queued or in flight.
    pub(crate) fn reap_idle(&mut self) -> (Vec<u64>, usize) {
        let (mut reaped, mut deferred) = (Vec::new(), 0);
        let Some(idle) = self.server.config.idle_timeout else { return (reaped, deferred) };
        let now_ns = self.server.config.clock.now_ns();
        let queue = lock(self.queue);
        for (&id, conn) in &mut self.conns {
            let pending = queue.pending(id);
            if conn.idle_reapable(pending, idle, now_ns) {
                self.server.trace.count("server.idle-reaped", 1);
                let err = RequestError::new("idle-timeout", "connection idle too long");
                conn.push_reply(&Reply::error(&RequestId::None, &err));
                conn.closing = true;
                reaped.push(id);
            } else if pending > 0 && conn.stale(idle, now_ns) {
                deferred += 1;
            }
        }
        (reaped, deferred)
    }

    /// Closes what is done: dead streams at once, EOF and closing
    /// connections once every reply they are owed is written.
    pub(crate) fn close_finished(&mut self) {
        let (server, queue) = (self.server, self.queue);
        self.conns.retain(|&id, conn| {
            let owed = !conn.flushed() || lock(queue).pending(id) > 0;
            let done = conn.dead || ((conn.closing || conn.eof) && !owed);
            if done {
                conn.stream.close();
                lock(queue).remove(id);
                server.active_connections.fetch_sub(1, Ordering::SeqCst);
            }
            !done
        });
    }

    /// `true` once every reply is written and no request is queued or
    /// in flight.
    pub(crate) fn drained(&self) -> bool {
        self.conns.values().all(Conn::flushed) && lock(self.queue).total_pending() == 0
    }
}

impl<S: Stream> Drop for Connections<'_, S> {
    fn drop(&mut self) {
        for conn in self.conns.values_mut() {
            conn.stream.close();
            self.server.active_connections.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// Per-connection state owned by the event loop.
struct Conn<S> {
    stream: S,
    framer: LineFramer,
    /// Bytes owed to the client; `written` of them are already out.
    outbuf: Vec<u8>,
    written: usize,
    /// [`Clock::now_ns`] of the last read or reply, for idle reaping.
    last_activity_ns: u64,
    /// Peer closed its write side; serve what is pending, then close.
    eof: bool,
    /// Close once the output buffer drains (shutdown reply, idle reap).
    closing: bool,
    /// The stream failed; drop without further ceremony.
    dead: bool,
}

impl<S: Read + Write> Conn<S> {
    fn new(stream: S, now_ns: u64) -> Self {
        Conn {
            stream,
            framer: LineFramer::default(),
            outbuf: Vec::new(),
            written: 0,
            last_activity_ns: now_ns,
            eof: false,
            closing: false,
            dead: false,
        }
    }

    /// Drains everything the stream has to offer right now and returns
    /// the complete frames it produced.
    fn read_frames(&mut self, max_request_bytes: usize, now_ns: u64) -> Vec<Frame> {
        let mut frames = Vec::new();
        if self.eof || self.dead || self.closing {
            return frames;
        }
        let mut buf = [0u8; 8192];
        loop {
            match self.stream.read(&mut buf) {
                Ok(0) => {
                    self.eof = true;
                    if let Some(frame) = self.framer.finish() {
                        frames.push(frame);
                    }
                    break;
                }
                Ok(n) => {
                    self.last_activity_ns = now_ns;
                    frames.extend(self.framer.feed(&buf[..n], max_request_bytes));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        frames
    }

    /// Appends one framed reply to the output buffer.
    fn push_reply(&mut self, reply: &Reply) {
        self.outbuf.extend_from_slice(reply.header.as_bytes());
        self.outbuf.push(b'\n');
        self.outbuf.extend_from_slice(reply.payload.as_bytes());
    }

    /// Writes as much buffered output as the stream accepts.
    fn flush(&mut self) {
        while self.written < self.outbuf.len() {
            match self.stream.write(&self.outbuf[self.written..]) {
                Ok(0) => {
                    self.dead = true;
                    break;
                }
                Ok(n) => self.written += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        if self.written == self.outbuf.len() && !self.outbuf.is_empty() {
            self.outbuf.clear();
            self.written = 0;
        }
    }

    /// `true` when nothing buffered remains unwritten.
    fn flushed(&self) -> bool {
        self.written == self.outbuf.len()
    }

    /// `true` when the connection is still open for requests and has
    /// seen no read or reply for at least `idle`.
    fn stale(&self, idle: Duration, now_ns: u64) -> bool {
        !self.closing
            && !self.eof
            && u128::from(now_ns.saturating_sub(self.last_activity_ns)) >= idle.as_nanos()
    }

    /// The idle-reap rule: only a stale connection with nothing queued
    /// or in flight (`pending`) and nothing left to flush may be
    /// reaped, no matter how long ago its last activity was.
    fn idle_reapable(&self, pending: usize, idle: Duration, now_ns: u64) -> bool {
        pending == 0 && self.flushed() && self.stale(idle, now_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn server() -> Server {
        Server::new(ServerConfig::default()).expect("server builds")
    }

    fn header_fields(reply: &Reply) -> Vec<(String, JsonNode)> {
        match parse_json(&reply.header).expect("header parses") {
            JsonNode::Obj(fields) => fields,
            other => panic!("header is not an object: {other:?}"),
        }
    }

    fn field<'a>(fields: &'a [(String, JsonNode)], name: &str) -> &'a JsonNode {
        &fields.iter().find(|(k, _)| k == name).unwrap_or_else(|| panic!("no {name}")).1
    }

    #[test]
    fn json_parser_round_trips_scalars_and_structures() {
        assert_eq!(parse_json("null"), Ok(JsonNode::Null));
        assert_eq!(parse_json(" true "), Ok(JsonNode::Bool(true)));
        assert_eq!(parse_json("-42"), Ok(JsonNode::Int(-42)));
        assert_eq!(parse_json("2.5"), Ok(JsonNode::Float(2.5)));
        assert_eq!(parse_json("\"a\\nb\""), Ok(JsonNode::Str("a\nb".into())));
        assert_eq!(parse_json("\"\\u00e9\\ud83d\\ude00\""), Ok(JsonNode::Str("é😀".into())));
        assert_eq!(
            parse_json("[1, \"two\", {\"k\": null}]"),
            Ok(JsonNode::Arr(vec![
                JsonNode::Int(1),
                JsonNode::Str("two".into()),
                JsonNode::Obj(vec![("k".into(), JsonNode::Null)]),
            ]))
        );
    }

    #[test]
    fn json_parser_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "\"unterminated",
            "01e",
            "nul",
            "{\"a\":1,}",
            "\"\\q\"",
            "\"\\ud800\"",
            "1 2",
            "{\"a\":1} trailing",
        ] {
            assert!(parse_json(bad).is_err(), "{bad:?} should fail");
        }
        let deep = format!("{}1{}", "[".repeat(100), "]".repeat(100));
        assert!(parse_json(&deep).unwrap_err().contains("deep"));
    }

    #[test]
    fn ping_pongs_and_echoes_the_id() {
        let s = server();
        let reply = s.handle_line("{\"op\":\"ping\",\"id\":\"abc\"}");
        let fields = header_fields(&reply);
        assert_eq!(field(&fields, "id"), &JsonNode::Str("abc".into()));
        assert_eq!(field(&fields, "event"), &JsonNode::Str("pong".into()));
        assert_eq!(field(&fields, "bytes"), &JsonNode::Int(0));
        assert!(reply.payload.is_empty());
        let reply = s.handle_line("{\"op\":\"ping\",\"id\":7}");
        assert_eq!(field(&header_fields(&reply), "id"), &JsonNode::Int(7));
    }

    #[test]
    fn malformed_requests_get_structured_errors() {
        let s = server();
        for (line, code) in [
            ("not json at all", "bad-request"),
            ("[1,2,3]", "bad-request"),
            ("{\"id\":1}", "bad-request"),
            ("{\"op\":\"frobnicate\"}", "unknown-op"),
            ("{\"op\":\"ping\",\"extra\":1}", "bad-request"),
            ("{\"op\":\"analyze\"}", "bad-request"),
            ("{\"op\":\"analyze\",\"paths\":[\"a\"],\"source\":\"b\"}", "bad-request"),
            ("{\"op\":\"analyze\",\"paths\":[1]}", "bad-request"),
            ("{\"op\":\"analyze\",\"source\":\"x\",\"jobs\":0}", "bad-value"),
            ("{\"op\":\"analyze\",\"source\":\"x\",\"min_severity\":\"loud\"}", "bad-value"),
            ("{\"op\":\"analyze\",\"source\":\"x\",\"disable\":[\"nope\"]}", "bad-value"),
            ("{\"op\":\"analyze\",\"source\":\"x\",\"format\":\"yaml\"}", "bad-value"),
            ("{\"op\":\"ping\",\"id\":-3}", "bad-request"),
        ] {
            let reply = s.handle_line(line);
            let fields = header_fields(&reply);
            assert_eq!(field(&fields, "ok"), &JsonNode::Bool(false), "{line}");
            let JsonNode::Obj(err) = field(&fields, "error") else { panic!("no error: {line}") };
            assert_eq!(field(err, "code"), &JsonNode::Str(code.into()), "{line}");
        }
    }

    #[test]
    fn analyze_inline_source_matches_the_cli_envelope_shape() {
        let s = server();
        let vulnerable = "program demo;\nclass Student size 16;\nclass GradStudent size 32 : Student;\nfn main() {\n    local stud: Student;\n    local st: ptr;\n    st = new (&stud) GradStudent();\n}\n";
        let request = JsonNode::Obj(vec![
            ("op".into(), JsonNode::Str("analyze".into())),
            ("id".into(), JsonNode::Int(1)),
            ("source".into(), JsonNode::Str(vulnerable.into())),
        ]);
        let reply = s.handle_line(&node_to_line(&request));
        let fields = header_fields(&reply);
        assert_eq!(field(&fields, "ok"), &JsonNode::Bool(true));
        assert_eq!(field(&fields, "exit"), &JsonNode::Int(1));
        assert_eq!(
            field(&fields, "bytes"),
            &JsonNode::Int(reply.payload.len() as i64),
            "advertised bytes match the payload"
        );
        assert!(reply.payload.contains("\"schema\": \"pncheck-report/1\""), "{}", reply.payload);
        assert!(reply.payload.contains("\"path\": \"-\""), "{}", reply.payload);
        assert!(reply.payload.contains("pnx/oversized-placement"), "{}", reply.payload);
    }

    #[test]
    fn second_analyze_of_the_same_source_runs_zero_parses() {
        let s = server();
        let src = "program p;\nclass C size 8;\nfn main() {\n    local c: C;\n}\n";
        let line =
            format!("{{\"op\":\"analyze\",\"source\":{}}}", emit::render_compact(&emit::s(src)));
        s.handle_line(&line);
        let stats = s.handle_line("{\"op\":\"stats\"}");
        let before = stats.payload.clone();
        s.handle_line(&line);
        let stats = s.handle_line("{\"op\":\"stats\"}");
        let parses = |payload: &str| {
            let JsonNode::Obj(fields) = parse_json(payload.trim()).unwrap() else { panic!() };
            let JsonNode::Obj(analysis) = field(&fields, "analysis").clone() else { panic!() };
            match (field(&analysis, "parses"), field(&analysis, "fingerprint_hits")) {
                (JsonNode::Int(p), JsonNode::Int(h)) => (*p, *h),
                other => panic!("{other:?}"),
            }
        };
        let (parses_before, hits_before) = parses(&before);
        let (parses_after, hits_after) = parses(&stats.payload);
        assert_eq!(parses_after, parses_before, "warm re-analyze must not parse");
        assert_eq!(hits_after, hits_before + 1, "warm re-analyze is a fingerprint hit");
    }

    #[test]
    fn delta_requests_are_validated() {
        let s = server();
        for (line, code) in [
            ("{\"op\":\"delta\"}", "bad-request"),
            ("{\"op\":\"delta\",\"source\":\"x\"}", "bad-request"),
            ("{\"op\":\"delta\",\"paths\":[\"a\"],\"changed\":[1]}", "bad-request"),
            ("{\"op\":\"analyze\",\"source\":\"x\",\"changed\":[\"a\"]}", "bad-request"),
        ] {
            let reply = s.handle_line(line);
            let fields = header_fields(&reply);
            assert_eq!(field(&fields, "ok"), &JsonNode::Bool(false), "{line}");
            let JsonNode::Obj(err) = field(&fields, "error") else { panic!("no error: {line}") };
            assert_eq!(field(err, "code"), &JsonNode::Str(code.into()), "{line}");
        }
    }

    #[test]
    fn delta_payload_is_byte_identical_to_analyze_and_counts_the_cone() {
        let dir = std::env::temp_dir().join(format!("pnx-server-delta-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let vuln = "program demo;\nclass Student size 16;\nclass GradStudent size 32 : Student;\nfn main() {\n    local stud: Student;\n    local st: ptr;\n    st = new (&stud) GradStudent();\n}\n";
        let safe = "program demo;\nclass Student size 16;\nfn main() {\n    local stud: Student;\n    local st: ptr;\n    st = new (&stud) Student();\n}\n";
        std::fs::write(dir.join("a.pnx"), safe).unwrap();
        std::fs::write(dir.join("b.pnx"), safe.replace("program demo", "program other")).unwrap();
        let s = server();
        let path_list = format!("[\"{}\"]", dir.display());

        let full = s.handle_line(&format!("{{\"op\":\"analyze\",\"paths\":{path_list}}}"));
        let first = s.handle_line(&format!("{{\"op\":\"delta\",\"paths\":{path_list}}}"));
        assert_eq!(first.payload, full.payload, "cold delta equals a full scan");

        // Edit one file; the delta payload must equal a fresh analyze.
        std::fs::write(dir.join("a.pnx"), vuln).unwrap();
        let warm = s.handle_line(&format!("{{\"op\":\"delta\",\"paths\":{path_list}}}"));
        let reference = s.handle_line(&format!("{{\"op\":\"analyze\",\"paths\":{path_list}}}"));
        assert_eq!(warm.payload, reference.payload, "delta after edit equals a full scan");

        let fields = header_fields(&warm);
        assert_eq!(field(&fields, "op"), &JsonNode::Str("delta".into()));
        assert_eq!(field(&fields, "exit"), &JsonNode::Int(1), "the edit introduced a finding");
        let JsonNode::Obj(delta) = field(&fields, "delta") else { panic!("no delta counters") };
        assert_eq!(field(delta, "tracked"), &JsonNode::Int(2));
        assert_eq!(field(delta, "changed"), &JsonNode::Int(1));
        assert_eq!(field(delta, "unchanged"), &JsonNode::Int(1));

        // The stats envelope aggregates the delta counters.
        let stats = s.handle_line("{\"op\":\"stats\"}");
        let JsonNode::Obj(fields) = parse_json(stats.payload.trim()).unwrap() else { panic!() };
        let JsonNode::Obj(requests) = field(&fields, "requests").clone() else { panic!() };
        assert_eq!(field(&requests, "delta"), &JsonNode::Int(2));
        let JsonNode::Obj(analysis) = field(&fields, "analysis").clone() else { panic!() };
        assert_eq!(field(&analysis, "tracked_files"), &JsonNode::Int(2));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn delta_names_unreadable_files_in_file_errors() {
        let dir = std::env::temp_dir().join(format!("pnx-server-delta-err-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("x.pnx");
        std::fs::write(&file, "program x;\nfn main() {}\n").unwrap();
        let s = server();
        // Name the file directly, so expansion still yields the path
        // after deletion and the read error surfaces per-file.
        let path_list = format!("[\"{}\"]", file.display());
        s.handle_line(&format!("{{\"op\":\"delta\",\"paths\":{path_list}}}"));
        std::fs::remove_file(&file).unwrap();
        let reply = s.handle_line(&format!("{{\"op\":\"delta\",\"paths\":{path_list}}}"));
        let fields = header_fields(&reply);
        assert_eq!(field(&fields, "exit"), &JsonNode::Int(2), "{}", reply.header);
        let JsonNode::Arr(errs) = field(&fields, "file_errors") else {
            panic!("no file_errors: {}", reply.header)
        };
        assert_eq!(errs.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shutdown_flips_the_flag_and_reports_it() {
        let s = server();
        let reply = s.handle_line("{\"op\":\"shutdown\",\"id\":9}");
        assert!(reply.shutdown);
        assert!(s.is_shutdown());
        assert!(reply.header.contains("\"event\":\"shutting-down\""), "{}", reply.header);
    }

    #[test]
    fn serve_connection_frames_replies_and_survives_garbage() {
        let s = server();
        let input = b"{\"op\":\"ping\",\"id\":1}\n\x00\xff\xfe garbage \xf3\n\n{\"op\":\"ping\",\"id\":2}\n";
        let mut out = Vec::new();
        s.serve_connection(&input[..], &mut out).unwrap();
        let text = String::from_utf8(out).expect("responses are UTF-8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "{text}");
        assert!(lines[0].contains("\"id\":1"), "{text}");
        assert!(lines[1].contains("\"ok\":false"), "{text}");
        assert!(lines[1].contains("not valid UTF-8"), "{text}");
        assert!(lines[2].contains("\"id\":2"), "{text}");
    }

    #[test]
    fn oversized_lines_are_rejected_but_the_connection_survives() {
        let s =
            Server::new(ServerConfig { max_request_bytes: 64, ..ServerConfig::default() }).unwrap();
        let huge = "x".repeat(1000);
        let input =
            format!("{{\"op\":\"ping\",\"junk\":\"{huge}\"}}\n{{\"op\":\"ping\",\"id\":2}}\n");
        let mut out = Vec::new();
        s.serve_connection(input.as_bytes(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "{text}");
        assert!(lines[0].contains("too-large"), "{text}");
        assert!(lines[1].contains("\"id\":2"), "{text}");
    }

    #[test]
    fn serve_connection_serves_an_unterminated_last_line() {
        let s =
            Server::new(ServerConfig { max_request_bytes: 64, ..ServerConfig::default() }).unwrap();
        let mut out = Vec::new();
        s.serve_connection(&b"{\"op\":\"ping\",\"id\":1}"[..], &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 1, "{text}");
        assert!(text.contains("\"event\":\"pong\""), "{text}");

        // An oversized last line is still answered, with `too-large`.
        let mut out = Vec::new();
        s.serve_connection("x".repeat(1000).as_bytes(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 1, "{text}");
        assert!(text.contains("too-large"), "{text}");
    }

    #[test]
    fn idle_connection_with_queued_work_is_never_reaped() {
        let idle = Duration::from_secs(300);
        let hour_ns = 3_600_000_000_000;
        let mut conn = Conn::new(io::empty(), 0);
        // An hour stale, but one request queued: must be spared.
        assert!(!conn.idle_reapable(1, idle, hour_ns));
        // Same staleness with nothing owed: reapable.
        assert!(conn.idle_reapable(0, idle, hour_ns));
        // Fresh activity: not reapable.
        assert!(!conn.idle_reapable(0, idle, 0));
        // Unflushed reply bytes also defer the reap.
        conn.push_reply(&server().handle_line("{\"op\":\"ping\"}"));
        assert!(!conn.idle_reapable(0, idle, hour_ns));
        conn.flush();
        assert!(conn.idle_reapable(0, idle, hour_ns));
        // A connection already closing is never reaped again.
        conn.closing = true;
        assert!(!conn.idle_reapable(0, idle, hour_ns));
    }

    /// Renders a JsonNode back to compact JSON (tests only).
    fn node_to_line(node: &JsonNode) -> String {
        fn conv(node: &JsonNode) -> JsonValue {
            match node {
                JsonNode::Null => JsonValue::Null,
                JsonNode::Bool(b) => JsonValue::Bool(*b),
                JsonNode::Int(n) => {
                    if *n >= 0 {
                        JsonValue::U64(*n as u64)
                    } else {
                        JsonValue::F64(*n as f64)
                    }
                }
                JsonNode::Float(x) => JsonValue::F64(*x),
                JsonNode::Str(text) => JsonValue::Str(text.clone()),
                JsonNode::Arr(items) => JsonValue::Arr(items.iter().map(conv).collect()),
                JsonNode::Obj(fields) => {
                    JsonValue::Obj(fields.iter().map(|(k, v)| (k.clone(), conv(v))).collect())
                }
            }
        }
        emit::render_compact(&conv(node))
    }
}
