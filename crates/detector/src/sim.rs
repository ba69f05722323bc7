//! Deterministic simulation testing (DST) of the `pncheckd` service
//! stack.
//!
//! The analysis core is deterministic and differential-tested end to
//! end, but the service layer — event loop, fair queue, cache
//! backends, delta tracking — normally runs under real threads, real
//! clocks, and a well-behaved filesystem. This module soaks that
//! layer through thousands of *seeded schedules* instead: every
//! schedule is a pure function of one `u64` seed, so any failure is a
//! one-seed repro.
//!
//! A schedule ([`run_schedule`]) builds a scratch corpus of generated
//! `.pnx` sources, then runs one or more server "phases" — each phase
//! a fresh in-process [`Server`] over the same cache directory, i.e. a
//! restart — on one shared virtual [`SimClock`]. Inside a phase, the
//! harness runs the daemon's own connection code (`Connections`, the
//! steps of [`Server::serve_listener`]'s event loop) over scripted
//! in-memory streams in place of TCP sockets. A stream hands the server
//! its client's bytes in seeded chunks (1-byte reads, mid-line stalls,
//! bursts of everything left, mid-request drops) and accepts replies in
//! seeded partial writes with bounded stalls. The harness itself only
//! generates the traffic, churns the corpus, executes a seeded number of
//! queued jobs per tick through [`Server::handle_line`] (verifying each
//! reply), and steps the virtual clock — no real sleeps anywhere.
//! Corpus churn lands between reads: files are added, removed, edited,
//! and reflowed (re-laid out with the same pretty form, so every span
//! moves).
//!
//! The persistent tier runs behind [`FaultyBackend`], which applies a
//! seeded [`FaultPlan`] of short (torn) writes, bit flips, disk-full
//! errors, and kill points after which every write silently vanishes
//! (a crash, observed by the next phase's restart).
//!
//! Three invariants are asserted on every schedule:
//!
//! 1. **Envelope identity** — every successfully delivered `analyze` /
//!    `delta` payload is byte-identical (and `exit`-identical) to a
//!    one-shot scan of the same inputs by a fresh cache-less server:
//!    exactly what `pncheck` would print.
//! 2. **No corruption served** — a sabotaged cache entry is never
//!    served as a hit: it decodes as corrupt (or missing), the source
//!    is re-analyzed, and the degradation is visible in stats.
//! 3. **Accounting identities** — `fingerprint_lookups ==
//!    fingerprint_hits + fingerprint_misses` in every stats payload;
//!    per delta reply `functions_reanalyzed + functions_reused`
//!    equals the function count of the re-analyzed files (every
//!    generated file has exactly [`FUNCTIONS_PER_FILE`] functions); and
//!    after each phase `requests.errors` is at least the number of
//!    error replies clients received, `idle-timeout` aside.
//!
//! A failing schedule names its seed in every violation, and
//! re-running [`run_schedule`] with the same seed and options replays
//! it exactly — same requests, same faults, same virtual timings, same
//! reply bytes ([`SimReport::payload_digest`] is the byte-level
//! witness). On every tick the harness also checks that idle reaping
//! never closes a connection with requests queued or in flight. The
//! `dst` binary drives soaks and single-seed replays from the command
//! line; `docs/pnx-syntax.md` has the operator guide.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::analysis::AnalyzerConfig;
use crate::backend::{BackendKind, CacheBackend, DirBackend, IndexedBackend};
use crate::cache::{fnv128, CacheLookup, PersistentCache, SUMMARY_STORE_KEY};
use crate::clock::{Clock, SimClock};
use crate::emit::json_string;
use crate::eventloop::FairQueue;
use crate::server::{
    lock, parse_json, BackendWrap, Connections, JsonNode, Reply, Server, ServerConfig, Stream,
};

/// Functions in every generated workload file (`main` plus two
/// helpers) — the constant behind the delta accounting identity.
pub const FUNCTIONS_PER_FILE: u64 = 3;

// ---------------------------------------------------------------------
// Seeded randomness.
// ---------------------------------------------------------------------

/// A tiny deterministic RNG (splitmix64). Everything the harness
/// varies — traffic, chunk sizes, faults, clock jumps — draws from one
/// of these, so a schedule is a pure function of its seed.
#[derive(Debug, Clone)]
pub struct SimRng {
    state: u64,
}

impl SimRng {
    /// An RNG at `seed`.
    pub fn new(seed: u64) -> SimRng {
        SimRng { state: seed }
    }

    /// The next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw in `0..n` (`0` when `n == 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            return 0;
        }
        self.next_u64() % n
    }

    /// `true` once in `one_in` draws on average (never for `0`).
    pub fn chance(&mut self, one_in: u64) -> bool {
        one_in != 0 && self.below(one_in) == 0
    }

    /// A decorrelated child RNG for an independent stream.
    pub fn fork(&mut self) -> SimRng {
        SimRng::new(self.next_u64() ^ 0x2545_f491_4f6c_dd1d)
    }
}

// ---------------------------------------------------------------------
// Fault injection.
// ---------------------------------------------------------------------

/// A seeded plan of storage faults for one [`FaultyBackend`]. All
/// rates are `one_in` odds per store; `0` disables that fault.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Odds of a short (torn) write: the entry is truncated at a
    /// seeded byte before it reaches the store.
    pub short_write_one_in: u64,
    /// Odds of a single-bit flip somewhere in the stored bytes.
    pub bitflip_one_in: u64,
    /// Odds a store fails outright with a simulated disk-full error.
    pub disk_full_one_in: u64,
    /// After this many landed stores the "process dies": every later
    /// write (entries and manifests) silently vanishes while the
    /// in-memory state keeps going — exactly what a kill between write
    /// and sync looks like to the next restart.
    pub kill_after_stores: Option<u64>,
    /// Odds of the deliberately planted bug used by the mutation
    /// check: a *checksum-passing* stale entry (the previous entry's
    /// payload re-keyed and re-checksummed under the new key). The
    /// decode layer cannot catch this — only the envelope-identity
    /// invariant can, which is the point.
    pub stale_swap_one_in: u64,
}

/// Shared observability for a schedule's fault injection: counters,
/// plus the exact sabotaged bytes per key so the harness can verify at
/// the decode level that unhealed sabotage is never served as a hit.
#[derive(Debug, Default)]
pub struct FaultStats {
    /// Total write calls observed (entry stores and manifests).
    pub stores: AtomicU64,
    /// Torn writes injected.
    pub short_writes: AtomicU64,
    /// Bit flips injected.
    pub bitflips: AtomicU64,
    /// Disk-full errors injected.
    pub disk_fulls: AtomicU64,
    /// Writes silently dropped after the kill point.
    pub dropped_after_kill: AtomicU64,
    /// Checksum-passing stale swaps injected (mutation mode).
    pub stale_swaps: AtomicU64,
    /// Key → the exact bytes last written for it, when that write was
    /// sabotage (torn or bit-flipped). An honest later write heals the
    /// key and removes it.
    pub sabotaged: Mutex<HashMap<u128, Vec<u8>>>,
}

impl FaultStats {
    /// Total faults injected (excluding kill-dropped writes).
    pub fn faults_injected(&self) -> u64 {
        self.short_writes.load(Ordering::SeqCst)
            + self.bitflips.load(Ordering::SeqCst)
            + self.disk_fulls.load(Ordering::SeqCst)
            + self.stale_swaps.load(Ordering::SeqCst)
    }
}

/// A fault-injecting [`CacheBackend`] wrapper: reads pass through,
/// writes are filtered through a seeded [`FaultPlan`]. Installed via
/// [`ServerConfig::backend_wrap`] so the whole real stack — engine,
/// cache layer, decode path — runs above it unmodified.
pub struct FaultyBackend {
    inner: Box<dyn CacheBackend>,
    plan: FaultPlan,
    rng: Mutex<SimRng>,
    /// The previous honestly stored entry — fodder for stale swaps.
    last_entry: Mutex<Option<Vec<u8>>>,
    stats: Arc<FaultStats>,
}

impl fmt::Debug for FaultyBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultyBackend")
            .field("inner", &self.inner)
            .field("plan", &self.plan)
            .finish_non_exhaustive()
    }
}

impl FaultyBackend {
    /// Wraps `inner` with `plan`, drawing fault decisions from `seed`
    /// and reporting into `stats`.
    pub fn new(
        inner: Box<dyn CacheBackend>,
        plan: FaultPlan,
        seed: u64,
        stats: Arc<FaultStats>,
    ) -> FaultyBackend {
        FaultyBackend {
            inner,
            plan,
            rng: Mutex::new(SimRng::new(seed)),
            last_entry: Mutex::new(None),
            stats,
        }
    }

    fn lock_rng(&self) -> std::sync::MutexGuard<'_, SimRng> {
        self.rng.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn killed(&self) -> bool {
        match self.plan.kill_after_stores {
            Some(kill) => self.stats.stores.load(Ordering::SeqCst) > kill,
            None => false,
        }
    }

    fn record_sabotage(&self, key: u128, bytes: Vec<u8>) {
        self.stats.sabotaged.lock().unwrap_or_else(|e| e.into_inner()).insert(key, bytes);
    }
}

impl CacheBackend for FaultyBackend {
    fn load(&self, key: u128) -> Option<Vec<u8>> {
        self.inner.load(key)
    }

    fn store(&self, key: u128, bytes: &[u8]) -> io::Result<()> {
        self.stats.stores.fetch_add(1, Ordering::SeqCst);
        if self.killed() {
            // The process died: the write reports success to the dying
            // process but never reaches disk.
            self.stats.dropped_after_kill.fetch_add(1, Ordering::SeqCst);
            return Ok(());
        }
        let (swap, disk_full, short_at, flip_at) = {
            let mut rng = self.lock_rng();
            let swap = key != SUMMARY_STORE_KEY && rng.chance(self.plan.stale_swap_one_in);
            let disk_full = rng.chance(self.plan.disk_full_one_in);
            let short_at = (bytes.len() > 1 && rng.chance(self.plan.short_write_one_in))
                .then(|| 1 + rng.below(bytes.len() as u64 - 1) as usize);
            let flip_at = (!bytes.is_empty() && rng.chance(self.plan.bitflip_one_in))
                .then(|| (rng.below(bytes.len() as u64) as usize, 1u8 << rng.below(8)));
            (swap, disk_full, short_at, flip_at)
        };
        if swap {
            let last = self.last_entry.lock().unwrap_or_else(|e| e.into_inner()).clone();
            if let Some(mut doctored) = last.filter(|old| old.len() >= 52 && old[..] != *bytes) {
                // Re-key and re-checksum the previous entry: the store
                // now holds a structurally valid, checksum-passing
                // entry whose *contents* belong to another source.
                doctored[36..52].copy_from_slice(&key.to_le_bytes());
                let sum = fnv128(&doctored[36..]);
                doctored[20..36].copy_from_slice(&sum.to_le_bytes());
                if self.inner.store(key, &doctored).is_ok() {
                    self.stats.stale_swaps.fetch_add(1, Ordering::SeqCst);
                }
                return Ok(());
            }
        }
        if disk_full {
            self.stats.disk_fulls.fetch_add(1, Ordering::SeqCst);
            return Err(io::Error::other("simulated disk full"));
        }
        if let Some(cut) = short_at {
            let torn = &bytes[..cut];
            if self.inner.store(key, torn).is_ok() {
                self.stats.short_writes.fetch_add(1, Ordering::SeqCst);
                self.record_sabotage(key, torn.to_vec());
            }
            return Ok(());
        }
        if let Some((at, mask)) = flip_at {
            let mut flipped = bytes.to_vec();
            flipped[at] ^= mask;
            if self.inner.store(key, &flipped).is_ok() {
                self.stats.bitflips.fetch_add(1, Ordering::SeqCst);
                self.record_sabotage(key, flipped);
            }
            return Ok(());
        }
        if key != SUMMARY_STORE_KEY {
            *self.last_entry.lock().unwrap_or_else(|e| e.into_inner()) = Some(bytes.to_vec());
        }
        // An honest write heals any earlier sabotage of this key.
        self.stats.sabotaged.lock().unwrap_or_else(|e| e.into_inner()).remove(&key);
        self.inner.store(key, bytes)
    }

    fn load_manifest(&self) -> Option<String> {
        self.inner.load_manifest()
    }

    fn store_manifest(&self, text: &str) -> io::Result<()> {
        self.stats.stores.fetch_add(1, Ordering::SeqCst);
        if self.killed() {
            self.stats.dropped_after_kill.fetch_add(1, Ordering::SeqCst);
            return Ok(());
        }
        if self.lock_rng().chance(self.plan.disk_full_one_in) {
            self.stats.disk_fulls.fetch_add(1, Ordering::SeqCst);
            return Err(io::Error::other("simulated disk full"));
        }
        self.inner.store_manifest(text)
    }
}

// ---------------------------------------------------------------------
// The workload generator.
// ---------------------------------------------------------------------

/// One generated file's current state on disk.
#[derive(Default)]
struct CorpusFile {
    path: PathBuf,
    uid: u64,
    version: u64,
    vulnerable: bool,
    big: u64,
    pad: u64,
    layout: u64,
    len: usize,
}

impl CorpusFile {
    /// Renders the file's `.pnx` workload source. Every file has
    /// exactly [`FUNCTIONS_PER_FILE`] functions; the vulnerable variant
    /// places an oversized `GradStudent` into a `Student`-sized local —
    /// the paper's motivating shape — and the safe variant places a
    /// fitting `Student`. `version` and `pad` guarantee distinct
    /// content (and lengths) across edits, so stat-based drift
    /// detection fires deterministically. `layout` only moves text:
    /// that many leading blank lines, and two-space instead of
    /// four-space bodies when odd. Layouts of one file share their
    /// pretty form but no span.
    fn render(&self) -> String {
        let CorpusFile { uid, version, big, .. } = self;
        let place = if self.vulnerable { "GradStudent" } else { "Student" };
        let i = if self.layout % 2 == 1 { "  " } else { "    " };
        let mut text = "\n".repeat(self.layout as usize);
        text.push_str(&format!(
            "program sim-{uid}-v{version};\n\
             \n\
             class Student size 16;\n\
             class GradStudent size {big} : Student;\n\
             \n\
             fn check_input(count: int) {{\n{i}local n: int;\n{i}read n;\n}}\n\
             \n\
             fn place_record(count: int) {{\n{i}local stud: Student;\n{i}local st: ptr;\n{i}st = new (&stud) {place}();\n}}\n\
             \n\
             fn main() {{\n{i}local n: int;\n{i}read n;\n{i}call check_input(n);\n{i}call place_record(n);\n}}\n"
        ));
        for _ in 0..self.pad {
            text.push('\n');
        }
        text
    }
}

/// The scratch corpus: generated files plus the seeded edit machinery.
struct Corpus {
    dir: PathBuf,
    files: Vec<CorpusFile>,
    next_uid: u64,
}

impl Corpus {
    fn generate(dir: &Path, rng: &mut SimRng, count: usize) -> io::Result<Corpus> {
        fs::create_dir_all(dir)?;
        let mut corpus = Corpus { dir: dir.to_path_buf(), files: Vec::new(), next_uid: 0 };
        for _ in 0..count.max(1) {
            corpus.add_file(rng)?;
        }
        Ok(corpus)
    }

    fn write_file(&mut self, index: usize, rng: &mut SimRng) -> io::Result<()> {
        let file = &mut self.files[index];
        file.vulnerable = rng.below(2) == 0;
        file.big = 32 + 16 * rng.below(3);
        file.pad = rng.below(4);
        Self::store(file)
    }

    /// Writes `file` as it now renders. Edits must change the byte
    /// length, so change detection never depends on filesystem
    /// timestamp granularity.
    fn store(file: &mut CorpusFile) -> io::Result<()> {
        let mut text = file.render();
        while text.len() == file.len {
            file.pad += 1;
            text = file.render();
        }
        debug_assert!(crate::parse::parse_program(&text).is_ok(), "generator must parse");
        file.len = text.len();
        fs::write(&file.path, text)
    }

    fn add_file(&mut self, rng: &mut SimRng) -> io::Result<()> {
        let uid = self.next_uid;
        self.next_uid += 1;
        let path = self.dir.join(format!("gen-{uid:03}.pnx"));
        self.files.push(CorpusFile { path, uid, ..CorpusFile::default() });
        self.write_file(self.files.len() - 1, rng)
    }

    /// Re-lays a file out without changing its program: the pretty form
    /// stays, every span moves, so a tier that keys on the pretty form
    /// would serve the old spans.
    fn reflow_file(&mut self, rng: &mut SimRng) -> io::Result<()> {
        let index = rng.below(self.files.len() as u64) as usize;
        self.files[index].layout += 1;
        Self::store(&mut self.files[index])
    }

    fn edit_file(&mut self, rng: &mut SimRng) -> io::Result<()> {
        let index = rng.below(self.files.len() as u64) as usize;
        self.files[index].version += 1;
        self.write_file(index, rng)
    }

    fn remove_file(&mut self, rng: &mut SimRng) -> io::Result<()> {
        if self.files.len() <= 2 {
            return Ok(());
        }
        let index = rng.below(self.files.len() as u64) as usize;
        let file = self.files.remove(index);
        fs::remove_file(file.path)
    }
}

// ---------------------------------------------------------------------
// Schedule options and report.
// ---------------------------------------------------------------------

/// Tunables for one simulated schedule. `Default` is the soak shape: a
/// small corpus, mixed traffic, faults on, seeded restarts.
#[derive(Debug, Clone)]
pub struct SimOptions {
    /// Generated source files in the scratch corpus.
    pub files: usize,
    /// Requests per server phase.
    pub requests: usize,
    /// Simulated client connections per phase.
    pub clients: usize,
    /// Server phases (restarts over the same cache dir); `0` lets the
    /// seed pick 1–2.
    pub phases: usize,
    /// Persistent-tier backend; `None` lets the seed pick.
    pub backend: Option<BackendKind>,
    /// Inject torn writes / bit flips / disk-full faults.
    pub faults: bool,
    /// Force a kill point (silently dropped writes) in the first
    /// phase — the kill-restart durability matrix switch.
    pub kill: bool,
    /// Plant the checksum-passing stale-swap bug. This is the mutation
    /// check: the envelope invariant MUST catch it on some seed.
    pub mutate: bool,
    /// Isolates concurrent harnesses: the scratch directory is derived
    /// from `(tag, seed)` only, so equal-seed runs with the same tag
    /// replay byte-for-byte while differently-tagged suites can run in
    /// parallel.
    pub tag: String,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            files: 3,
            requests: 8,
            clients: 2,
            phases: 0,
            backend: None,
            faults: true,
            kill: false,
            mutate: false,
            tag: "default".to_owned(),
        }
    }
}

/// What one schedule did and whether the invariants held. Equal
/// `(seed, options)` produce equal reports, including the byte-level
/// `payload_digest`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimReport {
    /// The schedule's seed.
    pub seed: u64,
    /// The persistent backend the seed (or options) picked.
    pub backend: &'static str,
    /// Server phases run (each one a restart over the same cache).
    pub phases: usize,
    /// Request lines sent across all connections and phases.
    pub requests_sent: usize,
    /// Complete replies clients received (error replies included).
    pub replies_delivered: usize,
    /// `too-large` replies clients received.
    pub too_large_replies: usize,
    /// `quota-exceeded` replies clients received.
    pub quota_replies: usize,
    /// Analyze/delta payloads compared byte-for-byte against a fresh
    /// one-shot server.
    pub payload_checks: usize,
    /// Accounting identities checked (delta function accounting and
    /// stats lookup identities).
    pub identity_checks: usize,
    /// Faults the backend injected (torn, flipped, disk-full, swaps).
    pub faults_injected: u64,
    /// Corrupt persistent entries the stack detected (and healed).
    pub corrupt_detected: u64,
    /// Connections reaped as idle on the virtual clock.
    pub reaped: usize,
    /// Ticks where a stale-but-busy connection was (correctly) spared.
    pub reap_deferrals: usize,
    /// FNV-128 over every byte each client received, phase by phase and
    /// connection by connection — the byte-for-byte replay witness.
    pub payload_digest: u128,
    /// Invariant violations; empty means the schedule passed.
    pub violations: Vec<String>,
}

impl SimReport {
    /// `true` when every invariant held.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

// ---------------------------------------------------------------------
// Traffic generation.
// ---------------------------------------------------------------------

/// How a connection's byte stream ends.
#[derive(Debug, Clone, Copy, PartialEq)]
enum EndKind {
    /// Clean FIN after the last byte: pending requests still complete.
    CleanEof,
    /// The peer vanished mid-request: the unterminated tail must be
    /// discarded without a reply, like a dead socket.
    Drop,
    /// Never closes: sits idle after its traffic until reaped.
    Linger,
}

/// What the harness knows about one request it plans to send.
#[derive(Debug, Clone)]
struct CheckSpec {
    /// The equivalent one-shot `analyze` line for a fresh server.
    reference_line: String,
    /// The request is a `delta` (check the function accounting too).
    delta: bool,
}

/// Consecutive writes a [`ScriptedStream`] may refuse before it must
/// accept again, so every write stall resumes within a few ticks.
const MAX_WRITE_STALLS: u32 = 3;

/// One simulated client socket. Reads hand the server the client's
/// byte script in seeded chunks — a stall (`WouldBlock`), one byte, a
/// short run, or everything left — and past the script the stream ends
/// as its [`EndKind`] says. Writes accept a seeded prefix of what the
/// server offers, or stall with `WouldBlock` for at most
/// [`MAX_WRITE_STALLS`] calls in a row. Accepted bytes land in
/// `received`, which the harness keeps after the connection closes.
struct ScriptedStream {
    script: Vec<u8>,
    pos: usize,
    end: EndKind,
    rng: SimRng,
    write_stalls: u32,
    received: Rc<RefCell<Vec<u8>>>,
}

impl Read for ScriptedStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let left = self.script.len() - self.pos;
        if left == 0 {
            return match self.end {
                EndKind::CleanEof => Ok(0),
                EndKind::Drop => Err(io::ErrorKind::ConnectionReset.into()),
                EndKind::Linger => Err(io::ErrorKind::WouldBlock.into()),
            };
        }
        let n = match self.rng.below(8) {
            0 | 1 => return Err(io::ErrorKind::WouldBlock.into()),
            2 => 1,
            // Everything available: oversized lines and pipelined
            // bursts arrive whole, before a clock jump can reap them.
            3 => left,
            _ => 1 + self.rng.below(18) as usize,
        }
        .min(left)
        .min(buf.len());
        buf[..n].copy_from_slice(&self.script[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

impl Write for ScriptedStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.end == EndKind::Drop && self.pos == self.script.len() {
            return Err(io::ErrorKind::BrokenPipe.into());
        }
        if self.write_stalls < MAX_WRITE_STALLS && self.rng.chance(3) {
            self.write_stalls += 1;
            return Err(io::ErrorKind::WouldBlock.into());
        }
        self.write_stalls = 0;
        let n = if self.rng.chance(2) {
            buf.len()
        } else {
            1 + self.rng.below(buf.len() as u64) as usize
        };
        self.received.borrow_mut().extend_from_slice(&buf[..n]);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Stream for ScriptedStream {}

/// One phase's traffic: per-connection `(byte script, end kind)` pairs
/// plus the map from request line to its verification spec.
type Traffic = (Vec<(Vec<u8>, EndKind)>, HashMap<String, CheckSpec>);

/// Builds one phase's traffic: per-connection byte scripts plus the
/// map from request line to its verification spec.
fn build_traffic(
    rng: &mut SimRng,
    corpus: &Corpus,
    opts: &SimOptions,
    next_request_id: &mut u64,
    last_phase: bool,
) -> Traffic {
    let clients = opts.clients.max(1);
    let mut scripts: Vec<Vec<u8>> = vec![Vec::new(); clients];
    let mut checks = HashMap::new();
    let dir = corpus.dir.to_string_lossy().into_owned();

    for _ in 0..opts.requests {
        let conn = rng.below(clients as u64) as usize;
        *next_request_id += 1;
        let id = *next_request_id;
        // Optional per-request config overrides, mirrored verbatim in
        // the reference line so the comparison is config-for-config.
        let mut extras = String::new();
        if rng.chance(5) {
            extras.push_str(",\"min_severity\":\"error\"");
        }
        match rng.below(6) {
            0 => extras.push_str(",\"format\":\"sarif\""),
            1 => extras.push_str(",\"format\":\"text\""),
            _ => {}
        }

        let line = match rng.below(10) {
            // Weighted mix: delta-heavy, stats/ping/hostile sprinkled.
            0 | 1 => {
                let target = if rng.below(2) == 0 {
                    json_string(&dir)
                } else {
                    let pick = rng.below(corpus.files.len() as u64) as usize;
                    json_string(&corpus.files[pick].path.to_string_lossy())
                };
                let line =
                    format!("{{\"op\":\"analyze\",\"id\":{id},\"paths\":[{target}]{extras}}}");
                let reference = format!("{{\"op\":\"analyze\",\"paths\":[{target}]{extras}}}");
                checks.insert(line.clone(), CheckSpec { reference_line: reference, delta: false });
                line
            }
            2 => {
                let source = CorpusFile {
                    uid: 900 + rng.below(8),
                    vulnerable: rng.below(2) == 0,
                    big: 48,
                    ..CorpusFile::default()
                }
                .render();
                let quoted = json_string(&source);
                let line =
                    format!("{{\"op\":\"analyze\",\"id\":{id},\"source\":{quoted}{extras}}}");
                let reference = format!("{{\"op\":\"analyze\",\"source\":{quoted}{extras}}}");
                checks.insert(line.clone(), CheckSpec { reference_line: reference, delta: false });
                line
            }
            3..=6 => {
                let target = json_string(&dir);
                let line = format!("{{\"op\":\"delta\",\"id\":{id},\"paths\":[{target}]{extras}}}");
                let reference = format!("{{\"op\":\"analyze\",\"paths\":[{target}]{extras}}}");
                checks.insert(line.clone(), CheckSpec { reference_line: reference, delta: true });
                line
            }
            7 => format!("{{\"op\":\"stats\",\"id\":{id}}}"),
            8 => format!("{{\"op\":\"ping\",\"id\":{id}}}"),
            _ => match rng.below(3) {
                // Hostile lines: oversized, junk, blank. All must get
                // clean protocol errors (or be skipped) without ever
                // desynchronizing the framer.
                0 => "x".repeat(5000),
                1 => "this is not json".to_owned(),
                _ => String::new(),
            },
        };
        scripts[conn].extend_from_slice(line.as_bytes());
        scripts[conn].push(b'\n');
    }

    if last_phase && rng.chance(3) {
        // A shutdown request drains the phase early: queued work still
        // completes, unsent bytes are never delivered.
        let conn = rng.below(clients as u64) as usize;
        *next_request_id += 1;
        let id = *next_request_id;
        let line = format!("{{\"op\":\"shutdown\",\"id\":{id}}}");
        scripts[conn].extend_from_slice(line.as_bytes());
        scripts[conn].push(b'\n');
    }

    let scripts = scripts
        .into_iter()
        .map(|mut script| {
            let end = match rng.below(6) {
                0 if script.len() > 2 => {
                    // Drop mid-request: truncate inside the final line.
                    let cut =
                        script.len() - 1 - rng.below((script.len() as u64 / 2).max(1)) as usize;
                    script.truncate(cut.max(1));
                    EndKind::Drop
                }
                1 | 2 => EndKind::Linger,
                _ => EndKind::CleanEof,
            };
            (script, end)
        })
        .collect();
    (scripts, checks)
}

// ---------------------------------------------------------------------
// Reply verification.
// ---------------------------------------------------------------------

fn field<'a>(fields: &'a [(String, JsonNode)], name: &str) -> Option<&'a JsonNode> {
    fields.iter().find(|(k, _)| k == name).map(|(_, v)| v)
}

fn int_field(fields: &[(String, JsonNode)], name: &str) -> Option<i64> {
    match field(fields, name) {
        Some(JsonNode::Int(n)) => Some(*n),
        _ => None,
    }
}

/// Where two payloads first diverge, for violation messages.
fn first_difference(a: &str, b: &str) -> String {
    let at = a.bytes().zip(b.bytes()).position(|(x, y)| x != y).unwrap_or(a.len().min(b.len()));
    let lo = at.saturating_sub(24);
    format!(
        "first difference at byte {at}: warm {:?} vs one-shot {:?}",
        a.get(lo..(at + 24).min(a.len())).unwrap_or(""),
        b.get(lo..(at + 24).min(b.len())).unwrap_or(""),
    )
}

impl Schedule<'_> {
    fn violation(&mut self, what: String) {
        self.report.violations.push(format!("seed {}: {what}", self.report.seed));
    }

    /// Routes one executed reply through the right invariant checks.
    fn verify_reply(&mut self, reply: &Reply, spec: Option<&CheckSpec>) {
        let Ok(JsonNode::Obj(header)) = parse_json(&reply.header) else {
            self.violation(format!("unparseable reply header: {}", reply.header));
            return;
        };
        let ok = matches!(field(&header, "ok"), Some(JsonNode::Bool(true)));
        let op = match field(&header, "op") {
            Some(JsonNode::Str(op)) => op.clone(),
            _ => String::new(),
        };
        if ok {
            if let Some(spec) = spec {
                self.check_payload(reply, spec, &op);
                if spec.delta {
                    self.check_delta_accounting(&header);
                }
            }
            if op == "stats" {
                self.check_stats_payload(&reply.payload, None);
            }
        }
    }

    /// Invariant 1: the delivered payload equals a one-shot scan by a
    /// fresh, cache-less server — what `pncheck` would print.
    fn check_payload(&mut self, reply: &Reply, spec: &CheckSpec, op: &str) {
        self.report.payload_checks += 1;
        let reference = Server::new(ServerConfig {
            base: self.base.clone(),
            jobs: Some(1),
            clock: Arc::clone(&self.clock) as Arc<dyn Clock>,
            ..ServerConfig::default()
        })
        .expect("cache-less reference server builds");
        let fresh = reference.handle_line(&spec.reference_line);
        if fresh.payload != reply.payload {
            self.violation(format!(
                "{op} payload diverged from one-shot scan ({} vs {} bytes): {}",
                reply.payload.len(),
                fresh.payload.len(),
                first_difference(&reply.payload, &fresh.payload),
            ));
            return;
        }
        let (Ok(JsonNode::Obj(warm)), Ok(JsonNode::Obj(cold))) =
            (parse_json(&reply.header), parse_json(&fresh.header))
        else {
            self.violation(format!("{op} header does not parse: {}", reply.header));
            return;
        };
        if int_field(&warm, "exit") != int_field(&cold, "exit") {
            self.violation(format!(
                "{op} exit diverged: warm {:?} vs one-shot {:?}",
                int_field(&warm, "exit"),
                int_field(&cold, "exit"),
            ));
        }
    }

    /// Invariant 3a: per delta reply, the re-analyzed files' functions
    /// are fully accounted as reanalyzed + reused.
    fn check_delta_accounting(&mut self, header: &[(String, JsonNode)]) {
        let Some(JsonNode::Obj(delta)) = field(header, "delta") else {
            self.violation("delta reply without a delta object".to_owned());
            return;
        };
        self.report.identity_checks += 1;
        let count = |name: &str| int_field(delta, name).unwrap_or(-1);
        let rescanned = count("changed") + count("added");
        let accounted = count("functions_reanalyzed") + count("functions_reused");
        if accounted != rescanned * FUNCTIONS_PER_FILE as i64 {
            self.violation(format!(
                "delta function accounting broken: {} reanalyzed + {} reused != {} files x {}",
                count("functions_reanalyzed"),
                count("functions_reused"),
                rescanned,
                FUNCTIONS_PER_FILE,
            ));
        }
    }

    /// Invariant 3b: the stats payload's cache accounting adds up.
    /// Invariant 3c, given the error replies clients received (other
    /// than `idle-timeout`): `requests.errors` counts at least those.
    /// Returns the cumulative corrupt-entry count the payload reports.
    fn check_stats_payload(&mut self, payload: &str, errors_received: Option<usize>) -> u64 {
        let Ok(JsonNode::Obj(stats)) = parse_json(payload.trim()) else {
            self.violation(format!("stats payload does not parse: {payload}"));
            return 0;
        };
        let (Some(JsonNode::Obj(analysis)), Some(JsonNode::Obj(requests))) =
            (field(&stats, "analysis"), field(&stats, "requests"))
        else {
            self.violation("stats payload without analysis and requests objects".to_owned());
            return 0;
        };
        self.report.identity_checks += 1;
        let count = |name: &str| int_field(analysis, name).unwrap_or(-1);
        let (hits, misses, lookups) =
            (count("fingerprint_hits"), count("fingerprint_misses"), count("fingerprint_lookups"));
        if hits + misses != lookups {
            self.violation(format!(
                "stats identity broken: {hits} hits + {misses} misses != {lookups} lookups"
            ));
        }
        if let Some(received) = errors_received {
            self.report.identity_checks += 1;
            let counted = int_field(requests, "errors").unwrap_or(-1);
            if counted < received as i64 {
                self.violation(format!(
                    "error accounting broken: requests.errors {counted} < {received} error replies received"
                ));
            }
        }
        count("persistent_corrupt").max(0) as u64
    }
}

// ---------------------------------------------------------------------
// The schedule runner.
// ---------------------------------------------------------------------

const IDLE_TIMEOUT: Duration = Duration::from_secs(30);
const MAX_REQUEST_BYTES: usize = 4096;
const TICK_LIMIT: usize = 100_000;

/// Runs one seeded schedule end to end and reports what happened.
/// Deterministic: equal `(seed, opts)` produce equal [`SimReport`]s,
/// byte for byte. Panics only on scratch-directory I/O failures (the
/// harness's own plumbing, never the stack under test).
pub fn run_schedule(seed: u64, opts: &SimOptions) -> SimReport {
    let mut rng = SimRng::new(seed ^ 0x5dee_ce66_d158_1f86);
    let root = std::env::temp_dir().join(format!("pnx-dst-{}-{seed:016x}", opts.tag));
    let _ = fs::remove_dir_all(&root);
    let src_dir = root.join("src");
    let cache_dir = root.join("cache");
    let corpus = Corpus::generate(&src_dir, &mut rng, opts.files).expect("scratch corpus writes");

    let backend = opts.backend.unwrap_or(if rng.below(2) == 0 {
        BackendKind::Dir
    } else {
        BackendKind::Indexed
    });
    let phases = match opts.phases {
        0 => 1 + rng.below(2) as usize,
        n => n,
    }
    .max(if opts.kill { 2 } else { 1 });

    let mut schedule = Schedule {
        opts,
        rng,
        corpus,
        clock: Arc::default(),
        cache_dir,
        backend,
        stats: Arc::default(),
        base: AnalyzerConfig::default(),
        next_request_id: 0,
        digest_buf: Vec::new(),
        report: SimReport { seed, backend: backend.name(), phases, ..SimReport::default() },
    };
    for phase in 0..phases {
        let rng = &mut schedule.rng;
        let kill_here =
            (opts.kill && phase == 0) || (!opts.kill && phase + 1 < phases && rng.chance(3));
        let plan = FaultPlan {
            short_write_one_in: if opts.faults { 4 } else { 0 },
            bitflip_one_in: if opts.faults { 5 } else { 0 },
            disk_full_one_in: if opts.faults { 6 } else { 0 },
            kill_after_stores: kill_here.then(|| 1 + rng.below(8)),
            stale_swap_one_in: if opts.mutate { 2 } else { 0 },
        };
        schedule.run_phase(plan, phase + 1 == phases);
        if !schedule.report.violations.is_empty() {
            break;
        }
        if phase + 1 < phases && schedule.rng.chance(2) {
            // Touch the corpus between restarts so warm state has to
            // prove itself against genuinely drifted inputs.
            let _ = schedule.corpus.edit_file(&mut schedule.rng);
        }
    }

    // Invariant 2 at the decode level: any key whose last landed write
    // was sabotage (and which still holds exactly those bytes) must
    // read back as corrupt or missing — never as a servable hit.
    let Schedule { cache_dir, stats, base, digest_buf, mut report, .. } = schedule;
    verify_unhealed_sabotage(&cache_dir, backend, &stats, &base, &mut report);

    report.faults_injected = stats.faults_injected();
    report.payload_digest = fnv128(&digest_buf);
    let _ = fs::remove_dir_all(&root);
    report
}

/// One schedule's state, carried from phase to phase.
struct Schedule<'a> {
    opts: &'a SimOptions,
    rng: SimRng,
    corpus: Corpus,
    clock: Arc<SimClock>,
    cache_dir: PathBuf,
    backend: BackendKind,
    stats: Arc<FaultStats>,
    base: AnalyzerConfig,
    next_request_id: u64,
    digest_buf: Vec<u8>,
    report: SimReport,
}

/// Per-client quota of the simulated server.
const CLIENT_QUOTA: usize = 4;

impl Schedule<'_> {
    /// Runs one server phase: a fresh server over the shared cache
    /// directory, serving one round of seeded traffic to completion.
    fn run_phase(&mut self, plan: FaultPlan, last_phase: bool) {
        let wrap = {
            let stats = Arc::clone(&self.stats);
            let seeds = AtomicU64::new(self.rng.next_u64());
            BackendWrap(Arc::new(move |inner: Box<dyn CacheBackend>| {
                // One fault stream per opened backend (one per engine
                // configuration). Engines open in a deterministic order
                // under jobs=1 traffic, so the streams replay too.
                let seed = seeds.fetch_add(0x9e37_79b9_7f4a_7c15, Ordering::SeqCst);
                Box::new(FaultyBackend::new(inner, plan.clone(), seed, Arc::clone(&stats)))
                    as Box<dyn CacheBackend>
            }))
        };
        let server = Server::new(ServerConfig {
            base: self.base.clone(),
            jobs: Some(1),
            cache_dir: Some(self.cache_dir.clone()),
            cache_backend: self.backend,
            max_request_bytes: MAX_REQUEST_BYTES,
            client_quota: CLIENT_QUOTA,
            idle_timeout: Some(IDLE_TIMEOUT),
            clock: Arc::clone(&self.clock) as Arc<dyn Clock>,
            backend_wrap: Some(wrap),
            ..ServerConfig::default()
        })
        .expect("simulated server builds");

        let (scripts, checks) = build_traffic(
            &mut self.rng,
            &self.corpus,
            self.opts,
            &mut self.next_request_id,
            last_phase,
        );
        self.report.requests_sent +=
            scripts.iter().map(|(s, _)| s.iter().filter(|&&b| b == b'\n').count()).sum::<usize>();

        let queue = Mutex::new(FairQueue::new(CLIENT_QUOTA));
        let mut conns = Connections::new(&server, &queue);
        let mut received = Vec::new();
        for (script, end) in scripts {
            let stream = ScriptedStream {
                script,
                pos: 0,
                end,
                rng: self.rng.fork(),
                write_stalls: 0,
                received: Rc::default(),
            };
            received.push(Rc::clone(&stream.received));
            conns.open(stream);
        }

        for tick in 0.. {
            if tick >= TICK_LIMIT {
                self.violation(format!("schedule did not terminate in {TICK_LIMIT} ticks"));
                break;
            }
            let draining = server.is_shutdown();

            // Corpus churn lands between reads, never mid-request.
            if !draining {
                let (rng, corpus) = (&mut self.rng, &mut self.corpus);
                if rng.chance(8) {
                    let _ = match rng.below(6) {
                        0 => corpus.add_file(rng),
                        1 => corpus.remove_file(rng),
                        3 => corpus.reflow_file(rng),
                        _ => corpus.edit_file(rng),
                    };
                }
                conns.read_requests();
            }

            // A seeded number of "workers" drain the fair queue; each job
            // runs the full protocol path and its reply is verified at
            // execution time against a fresh one-shot server. A draw of
            // zero stalls the pool for a tick (workers busy elsewhere), so
            // backlogs survive tick boundaries — including clock jumps,
            // which is what exercises the reap-deferral path.
            let mut replies = Vec::new();
            for _ in 0..self.rng.below(3) {
                let Some((conn_id, line)) = lock(&queue).pop() else { break };
                let reply = server.handle_line(&line);
                self.verify_reply(&reply, checks.get(&line));
                replies.push((conn_id, reply));
            }
            conns.complete(replies);
            conns.flush();
            if !draining {
                let (reaped, deferred) = conns.reap_idle();
                self.report.reap_deferrals += deferred;
                for id in reaped {
                    self.report.reaped += 1;
                    let pending = lock(&queue).pending(id);
                    if pending > 0 {
                        self.violation(format!(
                            "idle reap fired for conn {id} with {pending} requests pending"
                        ));
                    }
                }
            }
            conns.close_finished();
            if conns.drained() && (draining || conns.len() == 0) {
                break;
            }

            // Advance virtual time: mostly short event-loop ticks, with
            // occasional long stalls that cross the idle timeout.
            let step = if self.rng.chance(10) {
                Duration::from_secs(31 + self.rng.below(240))
            } else {
                Duration::from_millis(5)
            };
            self.clock.advance(step);
        }
        drop(conns);

        let mut errors_received = 0;
        for bytes in &received {
            let bytes = bytes.borrow();
            errors_received += self.tally_received(&bytes);
            self.digest_buf.extend_from_slice(&bytes);
        }

        // Phase-final stats probe (a monitoring client) keeps the
        // accounting identities under test even when the seeded traffic
        // drew no stats request, and accounts detected corruption.
        let reply = server.handle_line("{\"op\":\"stats\"}");
        let corrupt = self.check_stats_payload(&reply.payload, Some(errors_received));
        self.report.corrupt_detected += corrupt;
    }

    /// Tallies what one client received: every complete reply (header line
    /// plus its advertised payload; a reply cut short by a dead socket does
    /// not count) and the protocol errors among them. Returns how many
    /// error replies other than `idle-timeout` it received.
    fn tally_received(&mut self, bytes: &[u8]) -> usize {
        let mut errors = 0;
        let mut rest = bytes;
        while let Some(newline) = rest.iter().position(|&b| b == b'\n') {
            let header = std::str::from_utf8(&rest[..newline]).map_err(|e| e.to_string());
            let Ok(JsonNode::Obj(header)) = header.and_then(parse_json) else {
                self.violation("client received a garbled header".to_owned());
                break;
            };
            let end = newline + 1 + int_field(&header, "bytes").unwrap_or(0).max(0) as usize;
            if end > rest.len() {
                break;
            }
            rest = &rest[end..];
            self.report.replies_delivered += 1;
            let Some(JsonNode::Obj(error)) = field(&header, "error") else { continue };
            match field(error, "code") {
                Some(JsonNode::Str(code)) if code == "idle-timeout" => continue,
                Some(JsonNode::Str(code)) if code == "too-large" => {
                    self.report.too_large_replies += 1
                }
                Some(JsonNode::Str(code)) if code == "quota-exceeded" => {
                    self.report.quota_replies += 1
                }
                _ => {}
            }
            errors += 1;
        }
        errors
    }
}

/// Invariant 2 at the decode level: reopen the store cold and probe
/// every key whose last landed write was sabotage. A key still holding
/// exactly the sabotaged bytes must never decode as a hit.
fn verify_unhealed_sabotage(
    cache_dir: &Path,
    backend: BackendKind,
    stats: &FaultStats,
    base: &AnalyzerConfig,
    report: &mut SimReport,
) {
    let sabotaged = stats.sabotaged.lock().unwrap_or_else(|e| e.into_inner());
    if sabotaged.is_empty() || !cache_dir.exists() {
        return;
    }
    let open = |dir: &Path| -> io::Result<Box<dyn CacheBackend>> {
        Ok(match backend {
            BackendKind::Dir => Box::new(DirBackend::open(dir)?),
            BackendKind::Indexed => Box::new(IndexedBackend::open(dir)?),
        })
    };
    let Ok(raw) = open(cache_dir) else { return };
    let mut survivors: Vec<u128> = sabotaged
        .iter()
        .filter(|&(&key, bytes)| {
            key != SUMMARY_STORE_KEY && raw.load(key).as_deref() == Some(bytes.as_slice())
        })
        .map(|(&key, _)| key)
        .collect();
    survivors.sort_unstable();
    drop(raw);
    if survivors.is_empty() {
        return;
    }
    let cache = PersistentCache::with_backend(base, open(cache_dir).expect("reopen store"));
    for key in survivors {
        match cache.get(key) {
            CacheLookup::Hit(_) => report.violations.push(format!(
                "seed {}: sabotaged entry {key:032x} decoded as a servable hit",
                report.seed
            )),
            CacheLookup::Corrupt => report.corrupt_detected += 1,
            CacheLookup::Miss => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_rng_is_deterministic_and_forks_decorrelate() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        let draws_a: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let draws_b: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_eq!(draws_a, draws_b);
        let mut fork = a.fork();
        assert_ne!(fork.next_u64(), a.next_u64());
        for _ in 0..100 {
            assert!(a.below(7) < 7);
        }
        assert!(!SimRng::new(1).chance(0), "zero odds never fire");
    }

    #[test]
    fn faulty_backend_disk_full_leaves_prior_entries_intact() {
        for kind in [BackendKind::Dir, BackendKind::Indexed] {
            let dir = std::env::temp_dir().join(format!("pnx-sim-diskfull-{}", kind.name()));
            let _ = fs::remove_dir_all(&dir);
            let open = || -> Box<dyn CacheBackend> {
                match kind {
                    BackendKind::Dir => Box::new(DirBackend::open(&dir).unwrap()),
                    BackendKind::Indexed => Box::new(IndexedBackend::open(&dir).unwrap()),
                }
            };
            let honest = FaultyBackend::new(
                open(),
                FaultPlan::default(),
                7,
                Arc::new(FaultStats::default()),
            );
            honest.store(1, b"survivor").unwrap();
            drop(honest);

            let plan = FaultPlan { disk_full_one_in: 1, ..FaultPlan::default() };
            let stats = Arc::new(FaultStats::default());
            let broken = FaultyBackend::new(open(), plan, 7, Arc::clone(&stats));
            assert!(broken.store(2, b"doomed").is_err(), "every store fails disk-full");
            assert!(broken.store_manifest("m").is_err());
            assert_eq!(broken.load(1).as_deref(), Some(b"survivor".as_slice()));
            assert_eq!(broken.load(2), None);
            assert_eq!(stats.faults_injected(), 2);
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn faulty_backend_kill_silently_drops_later_writes() {
        let dir = std::env::temp_dir().join("pnx-sim-kill");
        let _ = fs::remove_dir_all(&dir);
        let inner: Box<dyn CacheBackend> = Box::new(DirBackend::open(&dir).unwrap());
        let plan = FaultPlan { kill_after_stores: Some(1), ..FaultPlan::default() };
        let be = FaultyBackend::new(inner, plan, 3, Arc::new(FaultStats::default()));
        be.store(1, b"landed").unwrap();
        be.store(2, b"vanished").unwrap(); // reports success, never lands
        be.store_manifest("vanished too").unwrap();
        assert_eq!(be.load(1).as_deref(), Some(b"landed".as_slice()));
        assert_eq!(be.load(2), None, "post-kill writes must vanish");
        assert_eq!(be.load_manifest(), None, "post-kill manifests must vanish");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn generated_sources_parse_with_exactly_three_functions() {
        for uid in 0..4 {
            for vulnerable in [false, true] {
                let file = CorpusFile {
                    uid,
                    version: uid,
                    vulnerable,
                    big: 48,
                    pad: uid % 3,
                    ..CorpusFile::default()
                };
                let text = file.render();
                let program = crate::parse::parse_program(&text).expect("generator parses");
                assert_eq!(program.functions.len(), FUNCTIONS_PER_FILE as usize);
                // Every layout is the same program with different spans.
                let reflowed = CorpusFile { layout: 1 + uid, ..file }.render();
                let again = crate::parse::parse_program(&reflowed).expect("reflow parses");
                assert_eq!(crate::pretty::pretty(&again), crate::pretty::pretty(&program));
                assert_ne!(
                    again.functions[0].body[0].site().span,
                    program.functions[0].body[0].site().span
                );
            }
        }
    }

    #[test]
    fn a_default_schedule_passes_and_replays_identically() {
        let opts = SimOptions { tag: "unit-replay".to_owned(), ..SimOptions::default() };
        let first = run_schedule(11, &opts);
        assert!(first.ok(), "violations: {:?}", first.violations);
        assert!(first.replies_delivered > 0);
        assert!(first.payload_checks > 0, "a schedule must check real payloads");
        let again = run_schedule(11, &opts);
        assert_eq!(first, again, "same seed + options => same schedule, byte for byte");
    }
}
