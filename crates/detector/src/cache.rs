//! The persistent (on-disk) analysis cache behind `pncheck --cache-dir`.
//!
//! A [`PersistentCache`] is a content-addressed store: the key is a
//! 128-bit FNV-1a fingerprint of the **raw source bytes**
//! ([`source_fingerprint`]), so a warm hit skips the parser *and* the
//! analyzer. Each entry is one binary file `<dir>/<key in hex>.pnc`
//! holding the file's [`Report`] (exact round-trip, spans included) and
//! the per-function [`FunctionSummaryRecord`]s of its analysis.
//!
//! The format is defensive where a cross-run cache has to be:
//!
//! * an 8-byte magic plus a schema version — entries written by an
//!   incompatible binary are treated as misses, not errors;
//! * an analyzer-config tag — a cache populated under different
//!   `--min-severity`/`--disable` flags or summary mode (or a detector
//!   with a different rule set) never serves stale verdicts;
//! * a checksum over the payload plus strict bounds-checked decoding —
//!   torn writes and bit rot surface as [`CacheLookup::Corrupt`], which
//!   callers degrade to a re-analysis (plus a warning), never a crash or
//!   a wrong report;
//! * writes are atomic-by-construction in every backend (unique temp
//!   file + `rename`, or checksummed append), so a concurrent reader
//!   sees either the old entry or the new one, never a half-written
//!   file.
//!
//! Byte *storage* is pluggable: a [`CacheBackend`] moves opaque entry
//! and manifest bytes, while everything semantic — encoding, checksum,
//! schema/config staleness, the hit/miss/corrupt verdict — stays here,
//! so every backend inherits the same invariants. See [`crate::backend`]
//! for the two layouts (`dir`, `indexed`). The cache keeps no counters:
//! [`PersistentCache::get`] returns its verdict and every write returns
//! whether it landed, and the caller counts them
//! ([`crate::batch::Tally`]).

use std::io;
use std::path::Path;

use crate::analysis::AnalyzerConfig;
use crate::backend::{BackendKind, CacheBackend};
use crate::findings::{Finding, FindingKind, Report, Severity};
use crate::ir::{Program, Site, Span};
use crate::pretty::pretty;
use crate::summary::{FunctionSummaryRecord, StoredSummary};

const MAGIC: &[u8; 8] = b"PNXCACHE";
/// Bumped whenever the payload layout or the meaning of any field
/// changes; old entries then read as misses and get rewritten. Version
/// 2 added the per-function content fingerprint and the callee
/// dependency list to every summary record. Version 3 switched the
/// analyzer's value facts from the boolean-era upper-bound tracker to
/// the interval lattice (different findings for the same text) and
/// added the worst-case overflow width to every serialized finding —
/// v2 entries must decode as misses, never as servable results.
/// Version 4 widened function fingerprints to 128 bits (position- and
/// preamble-sensitive, program name excluded), added the file-level
/// finding pool with per-record `finding_ids` (the substrate of
/// function-granular re-analysis), and introduced the cross-file
/// summary-store blob under a reserved key.
pub const SCHEMA_VERSION: u32 = 4;

/// Reserved backend key the cross-file summary-store blob is stored
/// under: all 1-bits, colliding with a real source fingerprint only
/// with probability 2⁻¹²⁸.
pub(crate) const SUMMARY_STORE_KEY: u128 = u128::MAX;

/// 128-bit FNV-1a over raw bytes.
pub(crate) fn fnv128(bytes: &[u8]) -> u128 {
    const OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
    const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;
    let mut hash = OFFSET;
    for &byte in bytes {
        hash ^= u128::from(byte);
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

/// 64-bit FNV-1a over raw bytes — the indexed backend's frame
/// checksum. (Function fingerprints are 128-bit since schema v4: they
/// address the corpus-wide summary store, not just "same text?".)
pub(crate) fn fnv64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = OFFSET;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

/// The cache key of a source file: a 128-bit FNV-1a fingerprint of the
/// raw text. Any edit — even whitespace — changes the key, which is the
/// point: a hit must mean "this exact text was analyzed before".
pub fn source_fingerprint(source: &str) -> u128 {
    fnv128(source.as_bytes())
}

/// Content fingerprint of a program: the [`source_fingerprint`] of its
/// canonical pretty form. The pretty form drops spans, so this names a
/// program up to layout — two texts that differ only in layout agree
/// here, while their cache keys (their own source fingerprints) differ.
///
/// The pretty form sorts classes, includes the program name, and
/// round-trips through the parser (`parse(pretty(p)) == p`), so the
/// fingerprint is injective up to program equality, and structurally
/// equal programs always agree even when their internal `HashMap`
/// iteration orders differ. It is 128 bits wide because a 64-bit hash
/// has a real birthday-collision risk at corpus scale.
pub fn fingerprint(program: &Program) -> u128 {
    source_fingerprint(&pretty(program))
}

/// Everything one cache entry stores about one analyzed file.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedAnalysis {
    /// The full report, spans included.
    pub report: Report,
    /// Per-function summary digests from the analysis.
    pub summaries: Vec<FunctionSummaryRecord>,
    /// The file-level finding pool: the union of every function's
    /// entry-summary findings (pre-severity-filter), deduplicated by
    /// full content. `summaries[i].finding_ids` index into it — the
    /// substrate a partial re-analysis hydrates unchanged functions'
    /// findings from. Empty for entries of the inline walk
    /// (`AnalyzerConfig::use_summaries` off).
    pub finding_pool: Vec<Finding>,
}

/// Outcome of a cache probe.
#[derive(Debug, Clone, PartialEq)]
pub enum CacheLookup {
    /// A valid entry for this key, schema, and analyzer config.
    Hit(CachedAnalysis),
    /// No entry (or one written by a different schema/config — stale,
    /// not broken).
    Miss,
    /// An entry exists but failed the checksum or decoding: the caller
    /// should warn and re-analyze.
    Corrupt,
}

/// A store of content-addressed analysis results shared across
/// `pncheck` runs. Thread-safe: backends synchronize their own byte
/// storage.
#[derive(Debug)]
pub struct PersistentCache {
    backend: Box<dyn CacheBackend>,
    config_tag: u64,
}

/// Tag folding everything about the analyzer that changes its output:
/// the reporting threshold, the disabled kinds, the interprocedural
/// strategy flag, and the rule inventory itself (so adding a finding
/// kind invalidates old entries). Also the daemon's engine-map key, so
/// two requests with equivalent options always share one engine.
pub(crate) fn config_tag(config: &AnalyzerConfig) -> u64 {
    let mut canon = format!(
        "v{}|sev:{}|sum:{}|rules:{}",
        SCHEMA_VERSION,
        config.min_severity,
        config.use_summaries,
        FindingKind::ALL.len()
    );
    let mut disabled: Vec<&str> = config.disabled.iter().map(|k| k.name()).collect();
    disabled.sort_unstable();
    for d in disabled {
        canon.push('|');
        canon.push_str(d);
    }
    (fnv128(canon.as_bytes()) & u128::from(u64::MAX)) as u64
}

impl PersistentCache {
    /// Opens (creating if needed) the cache directory with the default
    /// `dir` backend, bound to the analyzer configuration whose
    /// results it stores.
    ///
    /// The store is probed for writability up front: a cache that
    /// could never store an entry (read-only directory, permission
    /// mismatch) fails here with the underlying error instead of
    /// silently degrading every later `put`, so callers can fail fast
    /// with a clear message.
    pub fn open(dir: &Path, config: &AnalyzerConfig) -> io::Result<Self> {
        Self::open_with(dir, config, BackendKind::Dir)
    }

    /// Like [`PersistentCache::open`] but with an explicit storage
    /// backend (`--cache-backend dir|indexed`).
    pub fn open_with(dir: &Path, config: &AnalyzerConfig, kind: BackendKind) -> io::Result<Self> {
        Ok(Self::with_backend(config, kind.open(dir)?))
    }

    /// Binds an already-open [`CacheBackend`] instead of opening one by
    /// kind. This is how the daemon injects a wrapped backend (the DST
    /// harness's fault injector) between the cache layer and the real
    /// store; `open`/`open_with` remain the fail-fast constructors for
    /// plain directories.
    pub fn with_backend(config: &AnalyzerConfig, backend: Box<dyn CacheBackend>) -> Self {
        PersistentCache { backend, config_tag: config_tag(config) }
    }

    /// Probes the cache for `key`.
    pub fn get(&self, key: u128) -> CacheLookup {
        match self.backend.load(key) {
            None => CacheLookup::Miss,
            Some(bytes) => match unseal(&bytes, self.config_tag) {
                Ok(payload) => {
                    decode_payload(payload, key).map_or(CacheLookup::Corrupt, CacheLookup::Hit)
                }
                Err(rejected) => rejected,
            },
        }
    }

    /// Stores an entry for `key`, returning whether the write landed.
    /// Best-effort: a full disk or a read-only directory downgrades the
    /// cache, it does not fail the scan — but the caller counts every
    /// failed write, so the degradation is visible instead of silent.
    pub fn put(&self, key: u128, entry: &CachedAnalysis) -> bool {
        self.store_sealed(key, &encode_payload(key, entry))
    }

    /// Seals `payload` into a `.pnc` frame and stores it under `key`.
    /// Returns whether the write landed.
    fn store_sealed(&self, key: u128, payload: &[u8]) -> bool {
        self.backend.store(key, &seal(payload, self.config_tag)).is_ok()
    }

    /// The delta manifest text stored alongside the entries, if any.
    pub fn load_manifest(&self) -> Option<String> {
        self.backend.load_manifest()
    }

    /// Durably stores the delta manifest text alongside the entries,
    /// returning whether the write landed. Best-effort like `put`: a
    /// failure degrades the next cold start to a full rescan.
    pub fn store_manifest(&self, text: &str) -> bool {
        self.backend.store_manifest(text).is_ok()
    }

    /// Loads the persisted cross-file summary-store blob, if a valid
    /// one exists for this schema and config. Absent, stale, or corrupt
    /// blobs all return an empty list (the store simply starts cold):
    /// the blob is an accelerator, not an entry, so the verdict is not
    /// reported.
    pub fn load_summary_entries(&self) -> Vec<(u128, StoredSummary)> {
        let Some(bytes) = self.backend.load(SUMMARY_STORE_KEY) else {
            return Vec::new();
        };
        unseal(&bytes, self.config_tag).ok().and_then(decode_summary_store).unwrap_or_default()
    }

    /// Durably stores the cross-file summary-store blob under the
    /// reserved key, returning whether the write landed. Best-effort
    /// like `put`.
    pub fn store_summary_entries(&self, items: &[(u128, StoredSummary)]) -> bool {
        self.store_sealed(SUMMARY_STORE_KEY, &encode_summary_store(items))
    }
}

/// Length of a `.pnc` frame header: magic, schema version, config tag,
/// payload checksum.
const HEADER_LEN: usize = 36;

/// Frames `payload` as a `.pnc` entry: magic, schema version, the
/// analyzer-config tag, and a checksum over the payload, then the
/// payload itself.
fn seal(payload: &[u8], config_tag: u64) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(HEADER_LEN + payload.len());
    bytes.extend_from_slice(MAGIC);
    bytes.extend_from_slice(&SCHEMA_VERSION.to_le_bytes());
    bytes.extend_from_slice(&config_tag.to_le_bytes());
    bytes.extend_from_slice(&fnv128(payload).to_le_bytes());
    bytes.extend_from_slice(payload);
    bytes
}

/// The payload of a [`seal`]ed frame. A frame written under another
/// schema or config is rejected as [`CacheLookup::Miss`] (stale, not
/// broken); a short frame, foreign magic or checksum mismatch as
/// [`CacheLookup::Corrupt`].
fn unseal(bytes: &[u8], config_tag: u64) -> Result<&[u8], CacheLookup> {
    if bytes.len() < HEADER_LEN || &bytes[..8] != MAGIC {
        return Err(CacheLookup::Corrupt);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    let tag = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes"));
    if version != SCHEMA_VERSION || tag != config_tag {
        return Err(CacheLookup::Miss);
    }
    let check = u128::from_le_bytes(bytes[20..HEADER_LEN].try_into().expect("16 bytes"));
    let payload = &bytes[HEADER_LEN..];
    if fnv128(payload) != check {
        return Err(CacheLookup::Corrupt);
    }
    Ok(payload)
}

fn put_finding(out: &mut Vec<u8>, f: &Finding) {
    let kind = FindingKind::ALL.iter().position(|&k| k == f.kind).expect("kind in ALL");
    out.push(kind as u8);
    out.push(match f.severity {
        Severity::Info => 0,
        Severity::Warning => 1,
        Severity::Error => 2,
    });
    put_str(out, &f.site.function);
    put_u32(out, f.site.line);
    match f.site.span {
        Some(span) => {
            out.push(1);
            put_u32(out, span.line);
            put_u32(out, span.col);
            put_u32(out, span.byte_offset);
            put_u32(out, span.len);
        }
        None => out.push(0),
    }
    put_str(out, &f.message);
    match f.width {
        Some(w) => {
            out.push(1);
            put_u64(out, w);
        }
        None => out.push(0),
    }
}

fn read_finding(cur: &mut Cursor<'_>) -> Option<Finding> {
    let kind = *FindingKind::ALL.get(cur.u8()? as usize)?;
    let severity = match cur.u8()? {
        0 => Severity::Info,
        1 => Severity::Warning,
        2 => Severity::Error,
        _ => return None,
    };
    let function = cur.str()?;
    let line = cur.u32()?;
    let span = match cur.u8()? {
        0 => None,
        1 => Some(Span::new(cur.u32()?, cur.u32()?, cur.u32()?, cur.u32()?)),
        _ => return None,
    };
    let mut site = Site::new(&function, line);
    site.span = span;
    let message = cur.str()?;
    let width = match cur.u8()? {
        0 => None,
        1 => Some(cur.u64()?),
        _ => return None,
    };
    Some(Finding { kind, severity, site, message, width })
}

/// Reads a length-prefixed finding list with the defensive size bound
/// (each finding takes ≥ 15 bytes encoded).
fn read_findings(cur: &mut Cursor<'_>, payload_len: usize) -> Option<Vec<Finding>> {
    let n = cur.u32()? as usize;
    if n > payload_len / 15 + 1 {
        return None;
    }
    let mut findings = Vec::with_capacity(n);
    for _ in 0..n {
        findings.push(read_finding(cur)?);
    }
    Some(findings)
}

fn encode_payload(key: u128, entry: &CachedAnalysis) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&key.to_le_bytes());
    put_str(&mut out, &entry.report.program);
    put_u32(&mut out, entry.report.findings.len() as u32);
    for f in &entry.report.findings {
        put_finding(&mut out, f);
    }
    put_u32(&mut out, entry.finding_pool.len() as u32);
    for f in &entry.finding_pool {
        put_finding(&mut out, f);
    }
    put_u32(&mut out, entry.summaries.len() as u32);
    for s in &entry.summaries {
        put_str(&mut out, &s.function);
        put_u32(&mut out, s.findings);
        put_u32(&mut out, s.finding_ids.len() as u32);
        for &id in &s.finding_ids {
            put_u32(&mut out, id);
        }
        put_u32(&mut out, s.region_effects);
        out.push(u8::from(s.clobbers));
        put_u128(&mut out, s.fingerprint);
        put_u32(&mut out, s.deps.len() as u32);
        for dep in &s.deps {
            put_str(&mut out, &dep.callee);
            put_u128(&mut out, dep.fingerprint);
        }
    }
    out
}

fn decode_payload(payload: &[u8], key: u128) -> Option<CachedAnalysis> {
    let mut cur = Cursor { bytes: payload, pos: 0 };
    if cur.u128()? != key {
        return None; // renamed/mismatched entry file
    }
    let program = cur.str()?;
    let findings = read_findings(&mut cur, payload.len())?;
    let finding_pool = read_findings(&mut cur, payload.len())?;
    let n_summaries = cur.u32()? as usize;
    if n_summaries > payload.len() / 13 + 1 {
        return None;
    }
    let mut summaries = Vec::with_capacity(n_summaries);
    for _ in 0..n_summaries {
        let function = cur.str()?;
        let findings = cur.u32()?;
        let n_ids = cur.u32()? as usize;
        if n_ids > payload.len() / 4 + 1 {
            return None;
        }
        let mut finding_ids = Vec::with_capacity(n_ids);
        for _ in 0..n_ids {
            let id = cur.u32()?;
            if id as usize >= finding_pool.len() {
                return None; // dangling pool reference
            }
            finding_ids.push(id);
        }
        let region_effects = cur.u32()?;
        let clobbers = match cur.u8()? {
            0 => false,
            1 => true,
            _ => return None,
        };
        let fingerprint = cur.u128()?;
        let n_deps = cur.u32()? as usize;
        // Defensive bound: each dep takes ≥ 20 bytes encoded.
        if n_deps > payload.len() / 20 + 1 {
            return None;
        }
        let mut deps = Vec::with_capacity(n_deps);
        for _ in 0..n_deps {
            deps.push(crate::summary::SummaryDep { callee: cur.str()?, fingerprint: cur.u128()? });
        }
        summaries.push(FunctionSummaryRecord {
            function,
            fingerprint,
            findings,
            finding_ids,
            region_effects,
            clobbers,
            deps,
        });
    }
    if cur.pos != payload.len() {
        return None; // trailing garbage
    }
    Some(CachedAnalysis { report: Report { program, findings }, summaries, finding_pool })
}

fn encode_summary_store(items: &[(u128, StoredSummary)]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&SUMMARY_STORE_KEY.to_le_bytes());
    put_u32(&mut out, items.len() as u32);
    for (key, s) in items {
        put_u128(&mut out, *key);
        put_u32(&mut out, s.findings.len() as u32);
        for f in &s.findings {
            put_finding(&mut out, f);
        }
        put_u32(&mut out, s.region_effects);
        out.push(u8::from(s.clobbers));
    }
    out
}

fn decode_summary_store(payload: &[u8]) -> Option<Vec<(u128, StoredSummary)>> {
    let mut cur = Cursor { bytes: payload, pos: 0 };
    if cur.u128()? != SUMMARY_STORE_KEY {
        return None;
    }
    let n = cur.u32()? as usize;
    // Defensive bound: each entry takes ≥ 25 bytes encoded.
    if n > payload.len() / 25 + 1 {
        return None;
    }
    let mut items = Vec::with_capacity(n);
    for _ in 0..n {
        let key = cur.u128()?;
        let findings = read_findings(&mut cur, payload.len())?;
        let region_effects = cur.u32()?;
        let clobbers = match cur.u8()? {
            0 => false,
            1 => true,
            _ => return None,
        };
        items.push((key, StoredSummary { findings, region_effects, clobbers }));
    }
    if cur.pos != payload.len() {
        return None;
    }
    Some(items)
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u128(out: &mut Vec<u8>, v: u128) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn take(&mut self, n: usize) -> Option<&[u8]> {
        let end = self.pos.checked_add(n)?;
        let slice = self.bytes.get(self.pos..end)?;
        self.pos = end;
        Some(slice)
    }

    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    fn u128(&mut self) -> Option<u128> {
        Some(u128::from_le_bytes(self.take(16)?.try_into().ok()?))
    }

    fn str(&mut self) -> Option<String> {
        let len = self.u32()? as usize;
        String::from_utf8(self.take(len)?.to_vec()).ok()
    }
}

#[cfg(test)]
mod tests {
    use std::fs;
    use std::path::PathBuf;

    use super::*;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("pnx-cache-test-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_entry() -> CachedAnalysis {
        let mut site = Site::new("main", 7);
        site.span = Some(Span::new(7, 5, 104, 31));
        let finding = Finding {
            kind: FindingKind::OversizedPlacement,
            severity: Severity::Error,
            site,
            message: "overflows by 16 bytes".into(),
            width: Some(16),
        };
        CachedAnalysis {
            report: Report { program: "demo".into(), findings: vec![finding.clone()] },
            summaries: vec![
                FunctionSummaryRecord {
                    function: "main".into(),
                    fingerprint: 0xdead_beef_cafe_f00d_0123_4567_89ab_cdef,
                    findings: 1,
                    finding_ids: vec![0],
                    region_effects: 2,
                    clobbers: true,
                    deps: vec![
                        crate::summary::SummaryDep {
                            callee: "helper".into(),
                            fingerprint: 0x1234_5678_9abc_def0_f0de_bc9a_8765_4321,
                        },
                        crate::summary::SummaryDep { callee: "init".into(), fingerprint: 42 },
                    ],
                },
                FunctionSummaryRecord {
                    function: "helper".into(),
                    fingerprint: 0x1234_5678_9abc_def0_f0de_bc9a_8765_4321,
                    findings: 0,
                    finding_ids: Vec::new(),
                    region_effects: 0,
                    clobbers: false,
                    deps: Vec::new(),
                },
            ],
            finding_pool: vec![finding],
        }
    }

    #[test]
    fn round_trips_reports_and_summaries_exactly() {
        let dir = tmp_dir("roundtrip");
        let cache = PersistentCache::open(&dir, &AnalyzerConfig::default()).unwrap();
        let key = source_fingerprint("program demo; fn main() {}");
        assert_eq!(cache.get(key), CacheLookup::Miss);
        let entry = sample_entry();
        assert!(cache.put(key, &entry), "the write lands");
        assert_eq!(cache.get(key), CacheLookup::Hit(entry));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn config_changes_invalidate_without_corruption() {
        let dir = tmp_dir("config");
        let key = source_fingerprint("x");
        let cache = PersistentCache::open(&dir, &AnalyzerConfig::default()).unwrap();
        cache.put(key, &sample_entry());
        let stricter =
            AnalyzerConfig { min_severity: Severity::Error, ..AnalyzerConfig::default() };
        let other = PersistentCache::open(&dir, &stricter).unwrap();
        assert_eq!(other.get(key), CacheLookup::Miss, "different config must not hit");
        let inline = AnalyzerConfig { use_summaries: false, ..AnalyzerConfig::default() };
        let third = PersistentCache::open(&dir, &inline).unwrap();
        assert_eq!(third.get(key), CacheLookup::Miss, "strategy flag is part of the tag");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corruption_is_detected_not_trusted() {
        let dir = tmp_dir("corrupt");
        let cache = PersistentCache::open(&dir, &AnalyzerConfig::default()).unwrap();
        let key = source_fingerprint("y");
        cache.put(key, &sample_entry());
        let path = dir.join(format!("{key:032x}.pnc"));

        // Flip a payload byte: checksum mismatch.
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        assert_eq!(cache.get(key), CacheLookup::Corrupt);

        // Truncate mid-header.
        fs::write(&path, &bytes[..10]).unwrap();
        assert_eq!(cache.get(key), CacheLookup::Corrupt);

        // Empty file.
        fs::write(&path, b"").unwrap();
        assert_eq!(cache.get(key), CacheLookup::Corrupt);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_magic_or_version_reads_as_stale_or_broken() {
        let dir = tmp_dir("version");
        let cache = PersistentCache::open(&dir, &AnalyzerConfig::default()).unwrap();
        let key = source_fingerprint("z");
        cache.put(key, &sample_entry());
        let path = dir.join(format!("{key:032x}.pnc"));
        let good = fs::read(&path).unwrap();

        // Future schema version: stale (miss), not corrupt.
        let mut future = good.clone();
        future[8..12].copy_from_slice(&(SCHEMA_VERSION + 1).to_le_bytes());
        fs::write(&path, &future).unwrap();
        assert_eq!(cache.get(key), CacheLookup::Miss);

        // Foreign magic: broken.
        let mut foreign = good;
        foreign[..8].copy_from_slice(b"NOTCACHE");
        fs::write(&path, &foreign).unwrap();
        assert_eq!(cache.get(key), CacheLookup::Corrupt);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn entry_under_the_wrong_key_is_rejected() {
        // A renamed cache file must not serve another file's report.
        let dir = tmp_dir("rename");
        let cache = PersistentCache::open(&dir, &AnalyzerConfig::default()).unwrap();
        let key_a = source_fingerprint("a");
        let key_b = source_fingerprint("b");
        cache.put(key_a, &sample_entry());
        fs::rename(dir.join(format!("{key_a:032x}.pnc")), dir.join(format!("{key_b:032x}.pnc")))
            .unwrap();
        assert_eq!(cache.get(key_b), CacheLookup::Corrupt);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_fails_fast_on_an_uncreatable_dir() {
        // A regular file where the directory should be: open must
        // surface the error immediately instead of degrading every
        // later put. (A read-only directory behaves the same, but that
        // cannot be asserted portably when tests run as root.)
        let base = tmp_dir("uncreatable");
        fs::create_dir_all(&base).unwrap();
        let file = base.join("not-a-dir");
        fs::write(&file, b"occupied").unwrap();
        assert!(PersistentCache::open(&file, &AnalyzerConfig::default()).is_err());
        assert!(
            PersistentCache::open(&file.join("below"), &AnalyzerConfig::default()).is_err(),
            "a path under a file is uncreatable too"
        );
        let _ = fs::remove_dir_all(&base);
    }

    #[test]
    fn failed_writes_are_reported_not_silent() {
        // Remove the directory after open: every put now fails at
        // File::create (ENOENT) — the classic "cache dir deleted
        // mid-run" degradation. (chmod-based read-only cannot be
        // asserted portably when tests run as root.) The engine counts
        // what `put` reports; see batch's
        // `write_errors_count_per_scan_and_manifest_errors_only_for_life`.
        let dir = tmp_dir("write-errors");
        let cache = PersistentCache::open(&dir, &AnalyzerConfig::default()).unwrap();
        fs::remove_dir_all(&dir).unwrap();
        let key = source_fingerprint("w");
        assert!(!cache.put(key, &sample_entry()), "a failed write reports it");
        assert!(!cache.store_manifest("pnx-delta-manifest/1\n"));
        assert_eq!(cache.get(key), CacheLookup::Miss, "a failed put leaves no entry");
    }

    #[test]
    fn indexed_backend_preserves_hit_miss_corrupt_heal_semantics() {
        let dir = tmp_dir("indexed-semantics");
        let key = source_fingerprint("indexed");
        // Seed the store with garbage bytes under the key, as a torn
        // or foreign writer would leave them.
        {
            let be = crate::backend::IndexedBackend::open(&dir).unwrap();
            be.store(key, b"not a pnc entry at all").unwrap();
        }
        let cache =
            PersistentCache::open_with(&dir, &AnalyzerConfig::default(), BackendKind::Indexed)
                .unwrap();
        assert_eq!(cache.get(key), CacheLookup::Corrupt, "garbage decodes as corrupt");
        let entry = sample_entry();
        assert!(cache.put(key, &entry)); // heal
        assert_eq!(cache.get(key), CacheLookup::Hit(entry.clone()));
        assert_eq!(cache.get(source_fingerprint("absent")), CacheLookup::Miss);

        // Entries survive reopen, and a config change reads as stale.
        drop(cache);
        let warm =
            PersistentCache::open_with(&dir, &AnalyzerConfig::default(), BackendKind::Indexed)
                .unwrap();
        assert_eq!(warm.get(key), CacheLookup::Hit(entry));
        let stricter =
            AnalyzerConfig { min_severity: Severity::Error, ..AnalyzerConfig::default() };
        let other = PersistentCache::open_with(&dir, &stricter, BackendKind::Indexed).unwrap();
        assert_eq!(other.get(key), CacheLookup::Miss, "different config must not hit");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_round_trips_through_both_backends() {
        for kind in [BackendKind::Dir, BackendKind::Indexed] {
            let dir = tmp_dir(&format!("manifest-{}", kind.name()));
            let cache = PersistentCache::open_with(&dir, &AnalyzerConfig::default(), kind).unwrap();
            assert_eq!(cache.load_manifest(), None);
            assert!(cache
                .store_manifest("pnx-delta-manifest/1\n3 4 00000000000000000000000000000005 a\n"));
            assert_eq!(
                cache.load_manifest().as_deref(),
                Some("pnx-delta-manifest/1\n3 4 00000000000000000000000000000005 a\n")
            );
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn two_writers_sharing_a_dir_never_serve_a_corrupt_entry() {
        // Two cache handles (two replicas, or a daemon plus a one-shot
        // pncheck) hammer the same keys in one directory. With the old
        // fixed `.{key}.{pid}.tmp` temp names, two same-process engines
        // racing one key could rename each other's half-written temp
        // into place; unique pid+nonce temp names make every rename
        // publish exactly the bytes its writer wrote, so a reader sees
        // a complete entry or none — never a torn one.
        let dir = tmp_dir("two-writers");
        let keys: Vec<u128> =
            (0..4u32).map(|i| source_fingerprint(&format!("contended {i}"))).collect();
        let entry = sample_entry();
        std::thread::scope(|scope| {
            for _writer in 0..2 {
                scope.spawn(|| {
                    let cache = PersistentCache::open(&dir, &AnalyzerConfig::default()).unwrap();
                    for round in 0..200 {
                        let key = keys[round % keys.len()];
                        assert!(cache.put(key, &entry), "no write may fail");
                        match cache.get(key) {
                            CacheLookup::Hit(got) => assert_eq!(got, entry),
                            CacheLookup::Miss => {} // racing rename not yet visible
                            CacheLookup::Corrupt => {
                                panic!("a torn entry was served from the shared dir")
                            }
                        }
                    }
                });
            }
        });
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn dangling_finding_ids_decode_as_corrupt() {
        let dir = tmp_dir("dangling-ids");
        let cache = PersistentCache::open(&dir, &AnalyzerConfig::default()).unwrap();
        let key = source_fingerprint("dangling");
        let mut entry = sample_entry();
        entry.summaries[0].finding_ids = vec![7]; // pool has 1 entry
        cache.put(key, &entry);
        assert_eq!(cache.get(key), CacheLookup::Corrupt);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn summary_store_blob_round_trips_through_both_backends() {
        let mut site = Site::new("hub_helper", 3);
        site.span = Some(Span::new(3, 9, 77, 12));
        let items = vec![
            (
                5u128,
                StoredSummary {
                    findings: vec![Finding {
                        kind: FindingKind::TaintedPlacementSize,
                        severity: Severity::Warning,
                        site,
                        message: "tainted count".into(),
                        width: None,
                    }],
                    region_effects: 1,
                    clobbers: false,
                },
            ),
            (9u128, StoredSummary { findings: vec![], region_effects: 0, clobbers: true }),
        ];
        for kind in [BackendKind::Dir, BackendKind::Indexed] {
            let dir = tmp_dir(&format!("sumstore-{}", kind.name()));
            let cache = PersistentCache::open_with(&dir, &AnalyzerConfig::default(), kind).unwrap();
            assert!(cache.load_summary_entries().is_empty());
            assert!(cache.store_summary_entries(&items));
            assert_eq!(cache.load_summary_entries(), items);

            // A different config reads the blob as absent, not corrupt.
            let stricter =
                AnalyzerConfig { min_severity: Severity::Error, ..AnalyzerConfig::default() };
            let other = PersistentCache::open_with(&dir, &stricter, kind).unwrap();
            assert!(other.load_summary_entries().is_empty());
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn corrupt_summary_store_blob_loads_as_empty() {
        let dir = tmp_dir("sumstore-corrupt");
        let cache = PersistentCache::open(&dir, &AnalyzerConfig::default()).unwrap();
        assert!(cache.store_summary_entries(&[(
            3,
            StoredSummary { findings: vec![], region_effects: 0, clobbers: false }
        )]));
        let path = dir.join(format!("{SUMMARY_STORE_KEY:032x}.pnc"));
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        assert!(cache.load_summary_entries().is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn source_fingerprint_is_wide_and_sensitive() {
        let fp = source_fingerprint("program p; fn main() {}");
        assert_ne!(fp >> 64, 0);
        assert_ne!(fp & u128::from(u64::MAX), 0);
        assert_ne!(fp, source_fingerprint("program p; fn main() {} "));
    }

    #[test]
    fn fingerprint_names_a_program_up_to_layout() {
        let parse = |s: &str| crate::parse::parse_program(s).unwrap();
        let p = parse("program p;\nfn main() {}\n");
        let fp = fingerprint(&p);
        assert_eq!(fp, fingerprint(&parse("\n\nprogram p;\n\n  fn main() {\n}\n")));
        assert_ne!(fp, fingerprint(&parse("program q;\nfn main() {}\n")), "name");
        let with_class = parse("program p;\nclass C size 8;\nfn main() {}\n");
        assert_ne!(fp, fingerprint(&with_class), "content");
        assert_ne!(fp >> 64, 0, "high half of the key is unused");
        assert_ne!(fp & u128::from(u64::MAX), 0, "low half of the key is unused");
    }
}
