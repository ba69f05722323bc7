//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by this benchmark's own code around each call
//! into a detector layer; nothing inside the detector is instrumented.
//! Each span has a name, start, end, parent and request id. A span's
//! self time is its duration minus its direct children's (children of
//! one span never overlap: the replay is serial). Root spans (no
//! parent) delimit one op each — a scan iteration, an edit, a request —
//! and their summed duration is the traced end-to-end time.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

/// Writes a traced run's spans to
/// `.perfbench_out/<workload>-seed<seed>.spans.tsv`.
pub fn write_spans(workload: &str, seed: u64, tracer: &Tracer) {
    let path = Path::new(".perfbench_out").join(format!("{workload}-seed{seed}.spans.tsv"));
    if let Err(e) = tracer.write_tsv(&path) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
}

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    request: u64,
}

/// Records spans when enabled; a disabled tracer runs the same code
/// with every span a no-op, which is the untraced replay the tracing
/// overhead is measured against.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    request: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer { enabled, origin: Instant::now(), spans: Vec::new(), open: Vec::new(), request: 0 }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one; close it with
    /// [`end`](Self::end). A span opened with nothing open is a root:
    /// it starts the next request id.
    pub fn begin(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        if parent == NO_PARENT {
            self.request += 1;
        }
        let start_ns = self.now_ns();
        self.open.push(self.spans.len() as u32);
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, request: self.request });
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        let i = self.open.pop().expect("end() without begin()");
        self.spans[i as usize].end_ns = now;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.begin(name);
        let out = f();
        self.end();
        out
    }

    /// Self time (ns) per span name, roots excluded.
    pub fn totals(&self) -> BTreeMap<&'static str, u64> {
        let mut self_ns: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if s.parent != NO_PARENT {
                let p = s.parent as usize;
                self_ns[p] = self_ns[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self_ns) {
            if s.parent != NO_PARENT {
                *out.entry(s.name).or_default() += own;
            }
        }
        out
    }

    /// Summed duration of the root spans, in ns.
    pub fn root_ns(&self) -> u64 {
        self.spans.iter().filter(|s| s.parent == NO_PARENT).map(|s| s.end_ns - s.start_ns).sum()
    }

    /// Root spans recorded (ops replayed).
    pub fn roots(&self) -> u64 {
        self.spans.iter().filter(|s| s.parent == NO_PARENT).count() as u64
    }

    /// Writes every span as a tab-separated line: request id, name,
    /// start ns, end ns, parent index (`-` for roots).
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("request\tname\tstart_ns\tend_ns\tparent\n");
        for s in &self.spans {
            let parent = if s.parent == NO_PARENT { "-".to_owned() } else { s.parent.to_string() };
            let _ =
                writeln!(out, "{}\t{}\t{}\t{}\t{parent}", s.request, s.name, s.start_ns, s.end_ns);
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
