//! The placement-new vulnerability analyzer.
//!
//! A forward abstract interpretation over the IR, combining:
//!
//! * **value-range analysis** — every integer variable carries an
//!   interval from the lattice `⊥ ⊑ Const(c) ⊑ Interval[lo, hi] ⊑ ⊤`,
//!   so buffer sizes like `n_students * (UNAME_SIZE+1)` evaluate
//!   exactly, guards like `if (n > 8) return;` (in either operand
//!   order and either polarity) narrow the surviving path, and
//!   `Add`/`Sub`/`Mul` transfer through full interval arithmetic. The
//!   interval both *suppresses* guarded sites whose worst case provably
//!   fits the arena and *grades* real findings with a concrete
//!   worst-case overflow width;
//! * **region inference** — every pointer is tracked to the storage it
//!   aliases (a declared variable or a heap allocation), giving the arena
//!   size at each placement site where one is statically knowable. Where
//!   it is not (bare address arithmetic, lost aliases), the analyzer says
//!   so honestly — §5.1's observation that "static analysis of programs
//!   may not always succeed in precisely determining the size of the
//!   buffer" is part of the design, reported as
//!   [`FindingKind::UnknownBoundsPlacement`];
//! * **taint tracking** — sources are `cin`, received/serialized objects
//!   and tainted parameters; placement counts, copy lengths and
//!   constructor arguments are checked for influence (§3.2, §4);
//! * **arena lifecycle state** — secrets read into regions, tenant sizes,
//!   sanitization, and release discipline, powering the information-leak
//!   (§4.3) and memory-leak (§4.5) checks.
//!
//! Branches are analyzed on cloned states and merged conservatively
//! (value intervals join, taint unions, region knowledge degrades to
//! unknown on disagreement); loop bodies are re-analyzed to a bounded
//! fixpoint with the loop test refining each pass's entry state — so a
//! guard-bounded trip count keeps its bound instead of widening to ⊤ —
//! and facts established late in one iteration (a pointer re-aimed at a
//! smaller arena, taint picked up on the way out) are seen by the
//! placements and copies of the next iteration. Interval endpoints
//! still moving after [`WIDEN_AFTER`] passes are widened to ∓∞ so the
//! fixpoint always terminates.

use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

use crate::cache::CachedAnalysis;
use crate::findings::{Finding, FindingKind, Report, Severity};
use crate::ir::{Expr, Op, Program, Scope, Site, Stmt, Symbol, SymbolTable, Ty, VarId};
use crate::summary::{
    region_sort_key, CallGraph, CallSummary, FunctionSummaryRecord, Memo, StoredSummary,
    SummaryDep, SummaryKey, SummaryStore,
};
use crate::trace::TraceCollector;

/// Precomputed per-program lookup tables.
///
/// Built once per [`Analyzer::analyze`] call, this is the constant-factor
/// engine room of the hot path: class names are interned to [`Symbol`]s
/// so region states copy a `u32` instead of cloning a `String`,
/// per-variable facts (pointer-ness, declared storage size, class) become
/// dense vector lookups, and callee resolution becomes a hash lookup
/// instead of a linear scan over `program.functions`.
struct Index<'p> {
    program: &'p Program,
    /// Interned class names: the program's declared classes plus any
    /// class named by a variable type or heap allocation.
    symbols: SymbolTable,
    /// Whether any class in the program is polymorphic.
    any_polymorphic: bool,
    /// `matches!(ty, Ty::Ptr)`, indexed by `VarId`.
    var_is_ptr: Vec<bool>,
    /// `matches!(scope, Scope::Global)`, indexed by `VarId`.
    var_is_global: Vec<bool>,
    /// Declared storage size, indexed by `VarId`.
    var_storage_size: Vec<Option<u64>>,
    /// Class symbol for `Ty::Class` variables, indexed by `VarId`.
    var_class: Vec<Option<Symbol>>,
    /// Function name → index into `program.functions` (first wins, like
    /// the linear scan it replaces).
    fn_by_name: HashMap<&'p str, usize>,
    /// Per-function variable-membership bitmap, indexed by `VarId`.
    fn_member: Vec<Vec<bool>>,
    /// Per-function parameter lists, in declaration order.
    fn_params: Vec<Vec<VarId>>,
}

impl<'p> Index<'p> {
    fn build(program: &'p Program) -> Self {
        let mut symbols = SymbolTable::new();
        // Intern in sorted order: `classes` is a HashMap, and symbol
        // numbering must not depend on its iteration order.
        let mut class_names: Vec<&str> = program.classes.keys().map(String::as_str).collect();
        class_names.sort_unstable();
        for name in class_names {
            symbols.intern(name);
        }
        for f in &program.functions {
            intern_heap_classes(&f.body, &mut symbols);
        }
        let nvars = program.vars.len();
        let mut var_is_ptr = vec![false; nvars];
        let mut var_is_global = vec![false; nvars];
        let mut var_storage_size = vec![None; nvars];
        let mut var_class = vec![None; nvars];
        for var in &program.vars {
            let i = var.id.index() as usize;
            var_is_ptr[i] = matches!(var.ty, Ty::Ptr);
            var_is_global[i] = matches!(var.scope, Scope::Global);
            var_storage_size[i] = var.ty.declared_size(&program.classes);
            if let Ty::Class(name) = &var.ty {
                var_class[i] = Some(symbols.intern(name));
            }
        }
        let mut fn_by_name = HashMap::with_capacity(program.functions.len());
        let mut fn_member = Vec::with_capacity(program.functions.len());
        let mut fn_params = Vec::with_capacity(program.functions.len());
        for (i, f) in program.functions.iter().enumerate() {
            fn_by_name.entry(f.name.as_str()).or_insert(i);
            let mut member = vec![false; nvars];
            for v in &f.vars {
                member[v.index() as usize] = true;
            }
            fn_member.push(member);
            fn_params.push(
                f.vars
                    .iter()
                    .copied()
                    .filter(|&v| matches!(program.var(v).scope, Scope::Param { .. }))
                    .collect(),
            );
        }
        Index {
            any_polymorphic: program.classes.values().any(|c| c.polymorphic),
            program,
            symbols,
            var_is_ptr,
            var_is_global,
            var_storage_size,
            var_class,
            fn_by_name,
            fn_member,
            fn_params,
        }
    }

    fn sizeof(&self, class: &str) -> Option<u64> {
        self.program.sizeof(class)
    }

    fn name(&self, sym: Symbol) -> &str {
        self.symbols.resolve(sym)
    }
}

/// Interns every class name a `HeapNew` can stamp on a region, so
/// [`RegionState::alloc_class`] can be a [`Symbol`] even for classes the
/// program never declares.
fn intern_heap_classes(body: &[Stmt], symbols: &mut SymbolTable) {
    for stmt in body {
        match stmt {
            Stmt::HeapNew { class: Some(c), .. } => {
                symbols.intern(c);
            }
            Stmt::If { then_body, else_body, .. } => {
                intern_heap_classes(then_body, symbols);
                intern_heap_classes(else_body, symbols);
            }
            Stmt::While { body, .. } => intern_heap_classes(body, symbols),
            _ => {}
        }
    }
}

/// Where a pointer may point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum RegionId {
    /// The storage of a declared variable.
    Var(VarId),
    /// A heap allocation, identified by its allocation-site ordinal.
    Heap(u32),
}

/// Lifecycle state of a region. `Copy`: everything a region knows is a
/// scalar or an interned/borrowed handle, so branch clones are memcpys.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub(crate) struct RegionState<'p> {
    /// Allocation size, if known (heap regions).
    pub(crate) alloc_size: Option<u64>,
    /// Class the heap block was allocated for.
    pub(crate) alloc_class: Option<Symbol>,
    /// Size of the last tenant placed (declared size for var regions).
    pub(crate) last_tenant_size: Option<u64>,
    /// Secret bytes were read into the region.
    pub(crate) has_secret: bool,
    /// A reuse left residue (smaller tenant or unsanitized secret);
    /// the site of the offending placement, borrowed from the program.
    pub(crate) residue_at: Option<&'p Site>,
    /// The heap block was released.
    pub(crate) freed: bool,
    /// The region is a pool buffer whose placement count was tainted.
    pub(crate) tainted_pool: bool,
}

/// A signed value interval `[lo, hi]`, the per-variable fact of the
/// value lattice `⊥ ⊑ Const(c) ⊑ Interval[lo, hi] ⊑ ⊤`.
///
/// `i64::MIN`/`i64::MAX` endpoints read as ∓∞, so [`Interval::TOP`] is
/// the whole number line and a degenerate interval (`lo == hi`) is the
/// constant layer. ⊥ (the unreachable state) is never materialized:
/// the walk only carries states for paths it actually explores, so
/// every interval it holds is non-empty (`lo ≤ hi`) — an infeasible
/// refinement simply keeps the old fact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct Interval {
    pub(crate) lo: i64,
    pub(crate) hi: i64,
}

impl Interval {
    /// ⊤: no knowledge, the full i64 line.
    pub(crate) const TOP: Interval = Interval { lo: i64::MIN, hi: i64::MAX };

    /// The constant layer: a degenerate interval.
    pub(crate) fn exact(c: i64) -> Interval {
        Interval { lo: c, hi: c }
    }

    /// `Some(c)` when this interval is the constant `c`.
    pub(crate) fn as_const(self) -> Option<i64> {
        (self.lo == self.hi).then_some(self.lo)
    }

    /// The finite upper bound, if one exists (`hi == i64::MAX` is +∞).
    pub(crate) fn upper(self) -> Option<i64> {
        (self.hi != i64::MAX).then_some(self.hi)
    }

    /// `[lo, +∞]`.
    fn at_least(lo: i64) -> Interval {
        Interval { lo, hi: i64::MAX }
    }

    /// `[-∞, hi]`.
    fn at_most(hi: i64) -> Interval {
        Interval { lo: i64::MIN, hi }
    }

    /// Join (least upper bound): the enclosing interval.
    fn join(self, other: Interval) -> Interval {
        Interval { lo: self.lo.min(other.lo), hi: self.hi.max(other.hi) }
    }

    /// Meet (intersection); `None` when the two are disjoint (the
    /// refining branch is infeasible).
    fn meet(self, other: Interval) -> Option<Interval> {
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        (lo <= hi).then_some(Interval { lo, hi })
    }

    /// Interval arithmetic, exact in i128 and clamped back onto the
    /// i64 line — a clamped endpoint reads as ±∞, which is sound,
    /// merely weaker. A result lying entirely outside i64 degrades to
    /// [`Interval::TOP`] (the executor's arithmetic wraps there, so no
    /// interval claim survives).
    fn arith(op: Op, a: Interval, b: Interval) -> Interval {
        let (alo, ahi) = (i128::from(a.lo), i128::from(a.hi));
        let (blo, bhi) = (i128::from(b.lo), i128::from(b.hi));
        let (lo, hi) = match op {
            Op::Add => (alo + blo, ahi + bhi),
            Op::Sub => (alo - bhi, ahi - blo),
            Op::Mul => {
                let p = [alo * blo, alo * bhi, ahi * blo, ahi * bhi];
                (p.into_iter().min().unwrap(), p.into_iter().max().unwrap())
            }
        };
        if lo > i128::from(i64::MAX) || hi < i128::from(i64::MIN) {
            return Interval::TOP;
        }
        let clamp = |x: i128| x.clamp(i128::from(i64::MIN), i128::from(i64::MAX)) as i64;
        Interval { lo: clamp(lo), hi: clamp(hi) }
    }

    /// Classic widening: any endpoint of `next` that moved past the
    /// corresponding endpoint of `self` jumps straight to ∓∞, so loop
    /// fixpoints terminate instead of climbing one unit per pass.
    fn widen(self, next: Interval) -> Interval {
        Interval {
            lo: if next.lo < self.lo { i64::MIN } else { self.lo.min(next.lo) },
            hi: if next.hi > self.hi { i64::MAX } else { self.hi.max(next.hi) },
        }
    }
}

/// Per-function dataflow state. Variable facts live in dense vectors
/// indexed by `VarId` (cloned per branch, so cloning must be cheap).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct State<'p> {
    /// Per-variable value intervals ([`Interval::TOP`] = no knowledge).
    pub(crate) vals: Vec<Interval>,
    pub(crate) tainted: Vec<bool>,
    pub(crate) points_to: Vec<Option<RegionId>>,
    pub(crate) regions: HashMap<RegionId, RegionState<'p>>,
    /// Site of the first *proven* oversized placement: past it, every
    /// variable in memory may have been rewritten, so constants and
    /// guard-established bounds are no longer trustworthy — this is how
    /// the analyzer keeps seeing the §4 two-step attack through the
    /// victim's own (defeated) bounds check.
    pub(crate) clobbered_at: Option<&'p Site>,
}

impl<'p> State<'p> {
    fn new(nvars: usize) -> Self {
        State {
            vals: vec![Interval::TOP; nvars],
            tainted: vec![false; nvars],
            points_to: vec![None; nvars],
            regions: HashMap::new(),
            clobbered_at: None,
        }
    }

    fn is_tainted(&self, v: VarId) -> bool {
        self.tainted[v.index() as usize]
    }

    fn taint(&mut self, v: VarId, t: bool) {
        if t {
            self.tainted[v.index() as usize] = true;
        }
    }

    fn expr_tainted(&self, e: &Expr) -> bool {
        let mut t = false;
        e.for_each_read(&mut |v| t |= self.is_tainted(v));
        t
    }

    fn val(&self, v: VarId) -> Interval {
        self.vals[v.index() as usize]
    }

    fn pointee(&self, v: VarId) -> Option<RegionId> {
        self.points_to[v.index() as usize]
    }

    fn region_mut(&mut self, id: RegionId) -> &mut RegionState<'p> {
        self.regions.entry(id).or_default()
    }

    /// A proven overflow happened: forget every value-level fact.
    fn clobber(&mut self, site: &'p Site) {
        self.vals.fill(Interval::TOP);
        if self.clobbered_at.is_none() {
            self.clobbered_at = Some(site);
        }
    }

    /// Conservative merge of two branch states.
    fn merge(mut self, other: State<'p>) -> State<'p> {
        // Value intervals join: the merged fact encloses both branches,
        // so disagreeing constants degrade to a range instead of ⊤.
        for (a, b) in self.vals.iter_mut().zip(&other.vals) {
            *a = a.join(*b);
        }
        if self.clobbered_at.is_none() {
            self.clobbered_at = other.clobbered_at;
        }
        for (a, b) in self.tainted.iter_mut().zip(&other.tainted) {
            *a |= *b;
        }
        for (a, b) in self.points_to.iter_mut().zip(&other.points_to) {
            if *a != *b {
                *a = None;
            }
        }
        for (id, o) in other.regions {
            match self.regions.get_mut(&id) {
                Some(s) => {
                    s.has_secret |= o.has_secret;
                    s.tainted_pool |= o.tainted_pool;
                    if s.residue_at.is_none() {
                        s.residue_at = o.residue_at;
                    }
                    s.freed &= o.freed;
                    if s.last_tenant_size != o.last_tenant_size {
                        s.last_tenant_size = None;
                    }
                }
                None => {
                    self.regions.insert(id, o);
                }
            }
        }
        self
    }
}

/// Configuration of the analyzer: a reporting threshold and per-check
/// switches, the knobs a real tool exposes for triage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalyzerConfig {
    /// Findings below this severity are not reported.
    pub min_severity: Severity,
    /// Finding kinds that are switched off entirely.
    pub disabled: Vec<FindingKind>,
    /// Interprocedural strategy: `true` (the default) memoizes
    /// per-function transfer summaries and applies them at call sites;
    /// `false` re-walks every callee inline at every call site. Both
    /// produce identical findings; the inline walk is the reference the
    /// summary engine is tested against (`tests/summary_analysis.rs`).
    /// No CLI flag selects it.
    pub use_summaries: bool,
}

impl Default for AnalyzerConfig {
    fn default() -> Self {
        AnalyzerConfig { min_severity: Severity::Info, disabled: Vec::new(), use_summaries: true }
    }
}

/// The analyzer. Stateless between programs; create once and reuse.
///
/// # Examples
///
/// ```
/// use pnew_detector::{Analyzer, Expr, FindingKind, ProgramBuilder, Ty};
///
/// let mut p = ProgramBuilder::new("listing-4");
/// p.class("Student", 16, None, false);
/// p.class("GradStudent", 32, Some("Student"), false);
/// let mut f = p.function("main");
/// let stud = f.local("stud", Ty::Class("Student".into()));
/// let st = f.local("st", Ty::Ptr);
/// f.placement_new(st, Expr::addr_of(stud), "GradStudent");
/// f.finish();
///
/// let report = Analyzer::new().analyze(&p.build());
/// assert_eq!(report.of_kind(FindingKind::OversizedPlacement).len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Analyzer {
    config: AnalyzerConfig,
}

impl Analyzer {
    /// Creates an analyzer with the default configuration (report
    /// everything).
    pub fn new() -> Self {
        Analyzer::default()
    }

    /// Creates an analyzer with an explicit configuration.
    pub fn with_config(config: AnalyzerConfig) -> Self {
        Analyzer { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &AnalyzerConfig {
        &self.config
    }

    /// Analyzes a whole program.
    ///
    /// Every function is analyzed as an entry point; direct calls
    /// ([`Stmt::Call`]) flow the caller's argument facts into the callee
    /// — the §3.3 inter-procedural data-flow path — via memoized
    /// per-function transfer summaries (or an inline re-walk when
    /// [`AnalyzerConfig::use_summaries`] is off; both modes produce
    /// identical reports). Findings are deduplicated by `(kind, site)`
    /// so a callee flagged both standalone and through a call is
    /// reported once.
    pub fn analyze(&self, program: &Program) -> Report {
        self.analyze_full(program, None, None).report
    }

    /// The full analysis product the persistent cache stores: the
    /// filtered report, the per-function summary records (one per
    /// function, in definition order; empty in inline
    /// `use_summaries = false` mode), and the finding pool the records'
    /// `finding_ids` index. With `trace`, per-pass timings
    /// (`analysis.index`, `analysis.walk`) and counters (programs,
    /// functions, summaries computed/applied, findings per kind) are
    /// recorded into it. `store` taps the
    /// cross-file [`SummaryStore`]: functions whose closure fingerprint
    /// hits the store replay the stored entry summary instead of being
    /// re-walked, and fresh summaries are published back.
    pub fn analyze_full(
        &self,
        program: &Program,
        trace: Option<&TraceCollector>,
        store: Option<&SummaryStore>,
    ) -> CachedAnalysis {
        let ix = match trace {
            Some(t) => t.time("analysis.index", || Index::build(program)),
            None => Index::build(program),
        };
        let walk_start = trace.map(|_| std::time::Instant::now());
        let mut env = WalkEnv { memo: Memo::default() };
        let analysis = if self.config.use_summaries {
            let graph = CallGraph::build(program, &ix.fn_by_name);
            let fn_fps = function_fingerprints(program);
            let (analysis, replayed) = self.summarize(&ix, &graph, &fn_fps, store, None, &mut env);
            if let Some(t) = trace {
                t.count("analysis.summaries-computed", env.memo.computed);
                t.count("analysis.summaries-applied", env.memo.applied);
                t.count("analysis.recursive-functions", graph.recursive_functions() as u64);
                if store.is_some() {
                    t.count("analysis.store-reused", replayed);
                }
            }
            analysis
        } else {
            let mut report = Report::new(&program.name);
            for fi in 0..program.functions.len() {
                let mut state = init_state(&ix, fi);
                self.walk(&ix, &program.functions[fi].body, &mut state, &mut report, 0, &mut env);
            }
            self.filter(&mut report);
            CachedAnalysis { report, summaries: Vec::new(), finding_pool: Vec::new() }
        };
        if let (Some(t), Some(start)) = (trace, walk_start) {
            t.record_pass("analysis.walk", start.elapsed());
            t.count("analysis.programs", 1);
            t.count("analysis.functions", program.functions.len() as u64);
            for f in &analysis.report.findings {
                t.count(&format!("findings.{}", f.kind.name()), 1);
            }
        }
        analysis
    }

    /// Function-granular re-analysis of an edited file against its
    /// previous `.pnc` record.
    ///
    /// Computes the changed-function set by fingerprint comparison
    /// (renames, adds, deletes, and any edit that shifts a function's
    /// statement positions all change fingerprints) and closes it into
    /// the invalidation *cone* under the new call graph's reverse edges.
    /// The analysis itself is the same summary-mode driver a full
    /// analysis runs: cone members are walked (callees first) and
    /// published to `store`, and every function outside the cone reuses
    /// its summary record and findings from `old`, producing a product
    /// byte-identical to a fresh scan (asserted against one in debug
    /// builds).
    ///
    /// Returns `None` when the record cannot be trusted to identify
    /// functions (inline-mode analyzer, empty/inconsistent records,
    /// duplicate function names) — the caller falls back to
    /// [`analyze_full`](Self::analyze_full).
    pub fn analyze_partial(
        &self,
        program: &Program,
        old: &CachedAnalysis,
        store: Option<&SummaryStore>,
    ) -> Option<PartialAnalysis> {
        if !self.config.use_summaries || old.summaries.is_empty() {
            return None;
        }
        let n = program.functions.len();
        let ix = Index::build(program);
        if ix.fn_by_name.len() != n {
            return None; // duplicate names: identity-by-name is ambiguous
        }
        let mut old_by_name: HashMap<&str, &FunctionSummaryRecord> =
            HashMap::with_capacity(old.summaries.len());
        for rec in &old.summaries {
            if rec.finding_ids.len() != rec.findings as usize
                || rec.finding_ids.iter().any(|&id| id as usize >= old.finding_pool.len())
                || old_by_name.insert(rec.function.as_str(), rec).is_some()
            {
                return None;
            }
        }
        let graph = CallGraph::build(program, &ix.fn_by_name);
        let fn_fps = function_fingerprints(program);

        // A function is changed when its text moved, it is new, or a
        // recorded callee no longer exists: the old summary resolved
        // that call, a fresh walk would treat it as external. (A
        // *changed* callee is caught below through the new graph's
        // edges.)
        let mut cone: Vec<bool> = program
            .functions
            .iter()
            .zip(&fn_fps)
            .map(|(f, fp)| match old_by_name.get(f.name.as_str()) {
                Some(rec) if rec.fingerprint == *fp => {
                    rec.deps.iter().any(|d| !ix.fn_by_name.contains_key(d.callee.as_str()))
                }
                _ => true,
            })
            .collect();
        let functions_changed = cone.iter().filter(|&&c| c).count() as u32;
        // Close under the NEW graph's reverse edges: the new graph has
        // the caller→callee edge for added functions too, which the old
        // records cannot know about.
        let mut rev: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (fi, callees) in graph.callees.iter().enumerate() {
            for &j in callees {
                rev[j].push(fi);
            }
        }
        let mut work: Vec<usize> = (0..n).filter(|&i| cone[i]).collect();
        while let Some(j) = work.pop() {
            for &caller in &rev[j] {
                if !cone[caller] {
                    cone[caller] = true;
                    work.push(caller);
                }
            }
        }
        let functions_reanalyzed = cone.iter().filter(|&&c| c).count() as u32;

        let reuse: Vec<Option<&FunctionSummaryRecord>> = program
            .functions
            .iter()
            .zip(&cone)
            .map(|(f, &walk)| (!walk).then(|| old_by_name[f.name.as_str()]))
            .collect();
        let prior = Prior { reuse, pool: &old.finding_pool };
        let mut env = WalkEnv { memo: Memo::default() };
        let (analysis, _) = self.summarize(&ix, &graph, &fn_fps, store, Some(&prior), &mut env);
        #[cfg(debug_assertions)]
        {
            let fresh = self.analyze_full(program, None, None);
            debug_assert_eq!(
                analysis, fresh,
                "partial analysis diverged from a fresh scan of {}",
                program.name
            );
        }
        Some(PartialAnalysis {
            analysis,
            functions_changed,
            functions_reanalyzed,
            functions_reused: n as u32 - functions_reanalyzed,
        })
    }

    /// The summary-mode analysis behind both `analyze_full` and
    /// `analyze_partial`. Each function's entry summary comes from one
    /// source: its `prior` record (outside a partial re-analysis's
    /// cone), else — in a full analysis — the `store` entry under its
    /// closure fingerprint (own text + full callee closure), else a
    /// walk. Walked functions are seeded callees-first over the SCC
    /// condensation (recursive cycles rely on the depth guard's bounded
    /// widening instead) and published to `store`; then every
    /// function's findings replay in definition order, keeping reports
    /// byte-identical to the inline walk. Also returns how many
    /// functions replayed a store entry.
    fn summarize<'p>(
        &self,
        ix: &Index<'p>,
        graph: &CallGraph,
        fn_fps: &[u128],
        store: Option<&SummaryStore>,
        prior: Option<&Prior<'_>>,
        env: &mut WalkEnv<'p>,
    ) -> (CachedAnalysis, u64) {
        let program = ix.program;
        let closure = store.map(|_| graph.closure_fingerprints(fn_fps));
        let store_key = |fi: usize| store.zip(closure.as_ref().and_then(|c| c[fi]));
        let sources: Vec<EntrySource<'_>> = (0..program.functions.len())
            .map(|fi| match prior {
                Some(p) => p.reuse[fi].map_or(EntrySource::Walk, EntrySource::Prior),
                None => store_key(fi)
                    .and_then(|(s, key)| s.get(key))
                    .map_or(EntrySource::Walk, EntrySource::Replay),
            })
            .collect();
        for &fi in &graph.bottom_up {
            if matches!(sources[fi], EntrySource::Walk) {
                self.entry_summary(ix, fi, env);
            }
        }

        let mut report = Report::new(&program.name);
        let mut pool = FindingPool::default();
        let mut records = Vec::with_capacity(sources.len());
        let old_pool = prior.map_or(&[][..], |p| p.pool);
        for (fi, source) in sources.iter().enumerate() {
            let (finding_ids, region_effects, clobbers) = match source {
                EntrySource::Walk => {
                    let summary = self.entry_summary(ix, fi, env);
                    let region_effects = summary.exit_regions.len() as u32;
                    let clobbers = summary.exit_clobber.is_some();
                    if let Some((s, key)) = store_key(fi) {
                        let findings = summary.findings.clone();
                        s.insert(key, StoredSummary { findings, region_effects, clobbers });
                    }
                    (pool.replay(&mut report, summary.findings.iter()), region_effects, clobbers)
                }
                EntrySource::Replay(hit) => {
                    let ids = pool.replay(&mut report, hit.findings.iter());
                    (ids, hit.region_effects, hit.clobbers)
                }
                EntrySource::Prior(rec) => {
                    let findings = rec.finding_ids.iter().map(|&id| &old_pool[id as usize]);
                    (pool.replay(&mut report, findings), rec.region_effects, rec.clobbers)
                }
            };
            records.push(FunctionSummaryRecord {
                function: program.functions[fi].name.clone(),
                fingerprint: fn_fps[fi],
                findings: finding_ids.len() as u32,
                finding_ids,
                region_effects,
                clobbers,
                // Callee fingerprints: two record sets alone determine
                // the invalidation cone of an edit.
                deps: graph.callees[fi]
                    .iter()
                    .map(|&j| SummaryDep {
                        callee: program.functions[j].name.clone(),
                        fingerprint: fn_fps[j],
                    })
                    .collect(),
            });
        }
        self.filter(&mut report);
        let replayed = sources.iter().filter(|s| matches!(s, EntrySource::Replay(_))).count();
        (CachedAnalysis { report, summaries: records, finding_pool: pool.pool }, replayed as u64)
    }

    /// Drops the findings the configuration does not report: below the
    /// severity threshold, or of a disabled kind.
    fn filter(&self, report: &mut Report) {
        report.findings.retain(|f| {
            f.severity >= self.config.min_severity && !self.config.disabled.contains(&f.kind)
        });
    }

    /// The memoized entry summary of function `fi`: its body walked at
    /// depth 0 from the entry-point state.
    fn entry_summary<'p>(
        &self,
        ix: &Index<'p>,
        fi: usize,
        env: &mut WalkEnv<'p>,
    ) -> Rc<CallSummary<'p>> {
        let state = init_state(ix, fi);
        let key = SummaryKey::of(fi, 0, &ix.fn_params[fi], &state);
        if let Some(s) = env.memo.get(&key) {
            env.memo.applied += 1;
            return s;
        }
        self.compute_summary(ix, fi, state, 0, key, env)
    }

    /// Walks `fi`'s body once under `entry_state` at `walk_depth`,
    /// capturing its findings and caller-visible region effects as a
    /// memoized [`CallSummary`].
    fn compute_summary<'p>(
        &self,
        ix: &Index<'p>,
        fi: usize,
        mut entry_state: State<'p>,
        walk_depth: u32,
        key: SummaryKey,
        env: &mut WalkEnv<'p>,
    ) -> Rc<CallSummary<'p>> {
        // Findings land in a scratch report: the summary must hold the
        // body's full emission (deduplicated locally), because replay —
        // not computation — decides what the global report already has.
        let mut scratch = Report::new(&ix.program.name);
        self.walk(
            ix,
            &ix.program.functions[fi].body,
            &mut entry_state,
            &mut scratch,
            walk_depth,
            env,
        );
        let mut exit_regions: Vec<(RegionId, RegionState<'p>)> = entry_state
            .regions
            .iter()
            .filter(|&(&id, _)| is_caller_visible(ix, id))
            .map(|(&id, rs)| (id, *rs))
            .collect();
        exit_regions.sort_unstable_by_key(|&(id, _)| region_sort_key(id));
        let summary = Rc::new(CallSummary {
            findings: scratch.findings,
            exit_regions,
            exit_clobber: entry_state.clobbered_at,
        });
        env.memo.insert(key, Rc::clone(&summary));
        env.memo.computed += 1;
        summary
    }

    fn walk<'p>(
        &self,
        ix: &Index<'p>,
        body: &'p [Stmt],
        state: &mut State<'p>,
        report: &mut Report,
        depth: u32,
        env: &mut WalkEnv<'p>,
    ) {
        for stmt in body {
            self.step(ix, stmt, state, report, depth, env);
        }
    }

    /// Exact constant value of an expression, when its interval is
    /// degenerate.
    fn eval(&self, ix: &Index<'_>, e: &Expr, state: &State<'_>) -> Option<i64> {
        self.eval_interval(ix, e, state).as_const()
    }

    /// The value interval of an expression: constants and sizeofs are
    /// exact, variables carry their lattice fact, and `Add`/`Sub`/`Mul`
    /// all transfer through full interval arithmetic — a subtraction
    /// with a bounded subtrahend keeps its bound instead of giving up.
    fn eval_interval(&self, ix: &Index<'_>, e: &Expr, state: &State<'_>) -> Interval {
        match e {
            Expr::Const(c) => Interval::exact(*c),
            Expr::SizeOf(class) => {
                ix.sizeof(class).map_or(Interval::TOP, |s| Interval::exact(s as i64))
            }
            Expr::Var(v) => state.val(*v),
            Expr::BinOp(op, a, b) => Interval::arith(
                *op,
                self.eval_interval(ix, a, state),
                self.eval_interval(ix, b, state),
            ),
            Expr::AddrOf(_) | Expr::Field(_, _) => Interval::TOP,
        }
    }

    /// Applies the refinement a (dis)satisfied comparison gives: both
    /// operand orders (`if (n < 64)` and `if (64 > n)`), both
    /// polarities (then- and else-branch), and interval-valued opposite
    /// sides (`if (n <= m)` with `m ∈ [0, 8]`) all narrow. No-op once
    /// memory is clobbered: a proven overflow may have rewritten the
    /// compared variable, so the guard proves nothing (§4).
    fn refine(&self, ix: &Index<'_>, cond: &crate::ir::Cond, holds: bool, state: &mut State<'_>) {
        if state.clobbered_at.is_some() {
            return;
        }
        self.refine_operand(ix, &cond.lhs, cond.op, &cond.rhs, holds, state);
        self.refine_operand(ix, &cond.rhs, cond.op.flipped(), &cond.lhs, holds, state);
    }

    /// Narrows `lhs` (when it is a variable) from `lhs op other`
    /// holding (or not), using the interval of `other`.
    fn refine_operand(
        &self,
        ix: &Index<'_>,
        lhs: &Expr,
        op: crate::ir::CmpOp,
        other: &Expr,
        holds: bool,
        state: &mut State<'_>,
    ) {
        use crate::ir::CmpOp;
        let Expr::Var(v) = lhs else { return };
        let o = self.eval_interval(ix, other, state);
        // Fold the polarity into the relation, then narrow against the
        // weakest value of `other` the relation can hold for.
        let narrowed = match if holds { op } else { op.negated() } {
            CmpOp::Lt => Interval::at_most(o.hi.saturating_sub(1)),
            CmpOp::Le => Interval::at_most(o.hi),
            CmpOp::Gt => Interval::at_least(o.lo.saturating_add(1)),
            CmpOp::Ge => Interval::at_least(o.lo),
            CmpOp::Eq => o,
            CmpOp::Ne => {
                // A disequality only narrows when the excluded value is
                // an exact constant sitting on an endpoint.
                let cur = state.val(*v);
                match o.as_const() {
                    Some(c) if cur.lo == c && cur.hi > c => Interval { lo: c + 1, hi: cur.hi },
                    Some(c) if cur.hi == c && cur.lo < c => Interval { lo: cur.lo, hi: c - 1 },
                    _ => return,
                }
            }
        };
        let slot = &mut state.vals[v.index() as usize];
        // A disjoint meet means this branch is infeasible; the walk
        // still explores it, keeping the old fact (conservative).
        if let Some(m) = slot.meet(narrowed) {
            *slot = m;
        }
    }

    /// Resolves an arena expression to a region, if trackable.
    fn region_of_expr(&self, ix: &Index<'_>, e: &Expr, state: &State<'_>) -> Option<RegionId> {
        match e {
            Expr::AddrOf(v) => Some(RegionId::Var(*v)),
            // A pointer-valued variable denotes whatever it points to (or
            // nothing trackable); an array/object variable decays to its
            // own storage.
            Expr::Var(v) => {
                if ix.var_is_ptr[v.index() as usize] {
                    state.pointee(*v)
                } else {
                    Some(RegionId::Var(*v))
                }
            }
            _ => None,
        }
    }

    /// Region a *buffer-valued variable* denotes (arrays decay, pointers
    /// follow points-to).
    fn region_of_var(&self, ix: &Index<'_>, v: VarId, state: &State<'_>) -> Option<RegionId> {
        if ix.var_is_ptr[v.index() as usize] {
            state.pointee(v)
        } else {
            Some(RegionId::Var(v))
        }
    }

    fn region_size(&self, ix: &Index<'_>, id: RegionId, state: &State<'_>) -> Option<u64> {
        match id {
            RegionId::Var(v) => ix.var_storage_size[v.index() as usize],
            RegionId::Heap(_) => state.regions.get(&id).and_then(|r| r.alloc_size),
        }
    }

    fn region_class(&self, ix: &Index<'_>, id: RegionId, state: &State<'_>) -> Option<Symbol> {
        match id {
            RegionId::Var(v) => ix.var_class[v.index() as usize],
            RegionId::Heap(_) => state.regions.get(&id).and_then(|r| r.alloc_class),
        }
    }

    #[allow(clippy::too_many_lines)]
    fn step<'p>(
        &self,
        ix: &Index<'p>,
        stmt: &'p Stmt,
        state: &mut State<'p>,
        report: &mut Report,
        depth: u32,
        env: &mut WalkEnv<'p>,
    ) {
        match stmt {
            Stmt::Assign { dst, src, .. } => {
                let d = dst.index() as usize;
                // A plain overwrite replaces the value entirely: taint is
                // recomputed, not accumulated (clamping a tainted count to
                // a constant sanitizes it).
                let t = state.expr_tainted(src);
                state.tainted[d] = t;
                let val = self.eval_interval(ix, src, state);
                state.vals[d] = val;
                if ix.var_is_ptr[d] {
                    let r = self.region_of_expr(ix, src, state);
                    state.points_to[d] = r;
                }
            }
            Stmt::FieldStore { obj, src, .. } => {
                state.taint(*obj, state.expr_tainted(src));
            }
            Stmt::ReadInput { dst, .. } => {
                state.taint(*dst, true);
                state.vals[dst.index() as usize] = Interval::TOP;
            }
            Stmt::RecvObject { dst, .. } => {
                let d = dst.index() as usize;
                state.taint(*dst, true);
                state.vals[d] = Interval::TOP;
                state.points_to[d] = None;
            }
            Stmt::HeapNew { site, dst, class, count } => {
                let id = RegionId::Heap(site.line);
                let alloc_size = match (class, count) {
                    (Some(c), _) => ix.sizeof(c),
                    (None, Some(n)) => self.eval(ix, n, state).and_then(|v| u64::try_from(v).ok()),
                    (None, None) => None,
                };
                // Heap classes are interned at Index::build time.
                let alloc_class = class.as_deref().and_then(|c| ix.symbols.lookup(c));
                let region = state.region_mut(id);
                *region = RegionState {
                    alloc_size,
                    alloc_class,
                    last_tenant_size: alloc_size,
                    ..RegionState::default()
                };
                state.points_to[dst.index() as usize] = Some(id);
            }
            Stmt::PlacementNew { site, dst, arena, class, args } => {
                let placed = ix.sizeof(class);
                let region = self.region_of_expr(ix, arena, state);
                let arena_size = region.and_then(|r| self.region_size(ix, r, state));

                match (placed, arena_size) {
                    (Some(placed), Some(arena_sz)) if placed > arena_sz => {
                        let arena_class = region
                            .and_then(|r| self.region_class(ix, r, state))
                            .map_or("buffer", |s| ix.name(s));
                        emit(report, Finding {
                            kind: FindingKind::OversizedPlacement,
                            severity: Severity::Error,
                            site: site.clone(),
                            message: format!(
                                "placing {class} ({placed} bytes) into a {arena_sz}-byte arena of {arena_class} overflows by {} bytes",
                                placed - arena_sz
                            ),
                            width: Some(placed - arena_sz),
                        });
                        let poly_placed =
                            ix.program.classes.get(class).is_some_and(|c| c.polymorphic);
                        let poly_nearby = ix.any_polymorphic;
                        if poly_placed || poly_nearby {
                            emit(report, Finding {
                                kind: FindingKind::VptrClobber,
                                severity: Severity::Error,
                                site: site.clone(),
                                message: format!(
                                    "the {} overflowed bytes can reach a vtable pointer of an adjacent polymorphic object (§3.8.2)",
                                    placed - arena_sz
                                ),
                                width: Some(placed - arena_sz),
                            });
                        }
                        state.clobber(site);
                    }
                    (_, None) => {
                        emit(report, Finding {
                            kind: FindingKind::UnknownBoundsPlacement,
                            severity: Severity::Info,
                            site: site.clone(),
                            message: format!(
                                "cannot infer the arena size for this placement of {class}; manual review required (§5.1)"
                            ),
                            width: None,
                        });
                    }
                    _ => {}
                }

                if args.iter().any(|a| state.expr_tainted(a)) {
                    emit(report, Finding {
                        kind: FindingKind::TaintedPlacementSize,
                        severity: Severity::Warning,
                        site: site.clone(),
                        message: format!(
                            "{class} is constructed from untrusted data; a remote object can drive the overflow (§3.2)"
                        ),
                        width: None,
                    });
                }

                // Lifecycle: a smaller tenant over a larger one, or any
                // reuse over secrets, leaves residue.
                if let (Some(region_id), Some(placed)) = (region, placed) {
                    let rs = state.region_mut(region_id);
                    let shrunk = rs.last_tenant_size.is_some_and(|prev| placed < prev);
                    if (shrunk || rs.has_secret) && rs.residue_at.is_none() {
                        rs.residue_at = Some(site);
                    }
                    rs.last_tenant_size = Some(placed);
                    state.points_to[dst.index() as usize] = Some(region_id);
                } else if let Some(region_id) = region {
                    state.points_to[dst.index() as usize] = Some(region_id);
                }
            }
            Stmt::PlacementNewArray { site, dst, arena, elem_size, count } => {
                let region = self.region_of_expr(ix, arena, state);
                let arena_size = region.and_then(|r| self.region_size(ix, r, state));
                let iv = self.eval_interval(ix, count, state);
                let count_tainted = state.expr_tainted(count);
                // Byte totals over the count interval, in i128 so the
                // products cannot wrap. The simulated `new[]` clamps a
                // negative element count to zero, so a provably
                // non-positive count writes nothing — no laundering a
                // negative bound into "unbounded" via `u64::try_from`.
                let elem = i128::from(*elem_size);
                let min_total = i128::from(iv.lo).max(0) * elem;
                let max_total = iv.upper().map(|hi| i128::from(hi).max(0) * elem);
                // Concrete worst-case overflow width: the most bytes any
                // execution can write past the end of the arena.
                let worst_overflow = match (max_total, arena_size) {
                    (Some(t), Some(a)) if t > i128::from(a) => Some((t - i128::from(a)) as u64),
                    _ => None,
                };

                match arena_size {
                    Some(arena_sz) if min_total > i128::from(arena_sz) => {
                        // Even the smallest reachable total overflows:
                        // proven, constant count or not.
                        let message = if iv.as_const().is_some() {
                            format!(
                                "placing a {min_total}-byte array into a {arena_sz}-byte arena overflows by {} bytes",
                                min_total - i128::from(arena_sz)
                            )
                        } else {
                            format!(
                                "placing an array of at least {min_total} bytes into a {arena_sz}-byte arena overflows by {} bytes or more",
                                min_total - i128::from(arena_sz)
                            )
                        };
                        emit(
                            report,
                            Finding {
                                kind: FindingKind::OversizedPlacement,
                                severity: Severity::Error,
                                site: site.clone(),
                                message,
                                width: worst_overflow,
                            },
                        );
                        state.clobber(site);
                    }
                    None => {
                        emit(
                            report,
                            Finding {
                                kind: FindingKind::UnknownBoundsPlacement,
                                severity: Severity::Info,
                                site: site.clone(),
                                message:
                                    "cannot infer the arena size for this array placement (§5.1)"
                                        .to_owned(),
                                width: None,
                            },
                        );
                    }
                    _ => {}
                }
                // A guard that bounds the worst-case total below the
                // arena size makes the tainted length safe — *unless* an
                // earlier proven overflow may have rewritten the bounded
                // variable (a clobbered state holds ⊤, so no bound
                // survives to here).
                let bound_covers =
                    matches!((max_total, arena_size), (Some(t), Some(a)) if t <= i128::from(a));
                if count_tainted && !bound_covers {
                    let mut message =
                        "array placement length is influenced by untrusted input (§4 step 1)"
                            .to_owned();
                    if let (Some(w), Some(t)) = (worst_overflow, max_total) {
                        message.push_str(&format!(
                            "; the guard admits a {t}-byte worst case, overflowing the arena by {w} bytes"
                        ));
                    }
                    if let Some(clobber) = &state.clobbered_at {
                        message.push_str(&format!(
                            "; the bounds check is void because the oversized placement at {clobber} can rewrite the checked variable"
                        ));
                    }
                    emit(
                        report,
                        Finding {
                            kind: FindingKind::TaintedPlacementSize,
                            // A bounded worst case that still overflows is
                            // an attacker-reachable overflow of known
                            // width: Error. An unbounded count stays a
                            // Warning (§5.1 honesty about uncertainty).
                            severity: if worst_overflow.is_some() {
                                Severity::Error
                            } else {
                                Severity::Warning
                            },
                            site: site.clone(),
                            message,
                            width: worst_overflow,
                        },
                    );
                }
                if let Some(region_id) = region {
                    let rs = state.region_mut(region_id);
                    if rs.has_secret && rs.residue_at.is_none() {
                        rs.residue_at = Some(site);
                    }
                    rs.tainted_pool |= count_tainted;
                    state.points_to[dst.index() as usize] = Some(region_id);
                }
            }
            Stmt::Strncpy { site, dst, src, len } => {
                let len_tainted = state.expr_tainted(len);
                let src_tainted = state.expr_tainted(src);
                let region = self.region_of_var(ix, *dst, state);
                let dst_size = region.and_then(|r| self.region_size(ix, r, state));
                let iv = self.eval_interval(ix, len, state);
                // The simulated strncpy clamps a negative length to zero,
                // so a provably non-positive length copies nothing.
                let min_len = i128::from(iv.lo).max(0);
                let max_len = iv.upper().map(|h| i128::from(h).max(0));
                let worst_overflow = match (max_len, dst_size) {
                    (Some(l), Some(d)) if l > i128::from(d) => Some((l - i128::from(d)) as u64),
                    _ => None,
                };

                if let Some(dst_size) = dst_size {
                    if min_len > i128::from(dst_size) {
                        let message = if iv.as_const().is_some() {
                            format!("strncpy of {min_len} bytes into a {dst_size}-byte buffer")
                        } else {
                            format!(
                                "strncpy of at least {min_len} bytes into a {dst_size}-byte buffer"
                            )
                        };
                        emit(
                            report,
                            Finding {
                                kind: FindingKind::ClassicOverflow,
                                severity: Severity::Error,
                                site: site.clone(),
                                message,
                                width: worst_overflow,
                            },
                        );
                    }
                }
                let pool_tainted =
                    region.and_then(|r| state.regions.get(&r)).is_some_and(|r| r.tainted_pool);
                let bound_covers =
                    matches!((max_len, dst_size), (Some(l), Some(d)) if l <= i128::from(d));
                if (len_tainted || pool_tainted) && src_tainted && !bound_covers {
                    let mut message =
                        "untrusted data copied with an untrusted length through a pool-placed buffer — the §4 two-step overflow"
                            .to_owned();
                    if let Some(w) = worst_overflow {
                        message.push_str(&format!(
                            "; the guard admits a worst case overflowing the buffer by {w} bytes"
                        ));
                    }
                    emit(
                        report,
                        Finding {
                            kind: FindingKind::TaintedCopyThroughPool,
                            severity: if worst_overflow.is_some() {
                                Severity::Error
                            } else {
                                Severity::Warning
                            },
                            site: site.clone(),
                            message,
                            width: worst_overflow,
                        },
                    );
                }
            }
            Stmt::Memset { dst, .. } => {
                if let Some(r) = self.region_of_var(ix, *dst, state) {
                    let rs = state.region_mut(r);
                    rs.has_secret = false;
                    rs.residue_at = None;
                    // A zeroed arena has no previous tenant to leak: a
                    // smaller next tenant leaves only zeros behind.
                    rs.last_tenant_size = Some(0);
                }
            }
            Stmt::ReadSecret { dst, .. } => {
                if let Some(r) = self.region_of_var(ix, *dst, state) {
                    state.region_mut(r).has_secret = true;
                }
            }
            Stmt::Output { site, src, .. } => {
                if let Some(r) = self.region_of_var(ix, *src, state) {
                    let rs = *state.region_mut(r);
                    if let Some(origin) = rs.residue_at {
                        emit(report, Finding {
                            kind: FindingKind::UnsanitizedArenaReuse,
                            severity: Severity::Error,
                            site: site.clone(),
                            message: format!(
                                "buffer shipped out still carries residue from before the placement at {origin} (no memset between tenants, §4.3)"
                            ),
                            width: None,
                        });
                    }
                }
            }
            Stmt::Delete { site, ptr, as_class } => {
                if let Some(r @ RegionId::Heap(_)) = state.pointee(*ptr) {
                    let (alloc_size, alloc_class) = {
                        let rs = state.region_mut(r);
                        rs.freed = true;
                        (rs.alloc_size, rs.alloc_class)
                    };
                    if let (Some(cls), Some(alloc)) = (as_class, alloc_size) {
                        if let Some(released) = ix.sizeof(cls) {
                            if released < alloc {
                                emit(report, Finding {
                                    kind: FindingKind::PlacementLeak,
                                    severity: Severity::Error,
                                    site: site.clone(),
                                    message: format!(
                                        "block allocated for {} ({alloc} bytes) released as {cls} ({released} bytes): {} bytes leak per iteration (§4.5)",
                                        alloc_class.map_or("an array", |s| ix.name(s)),
                                        alloc - released
                                    ),
                                    width: None,
                                });
                            }
                        }
                    }
                }
            }
            Stmt::NullAssign { site, ptr } => {
                if let Some(r @ RegionId::Heap(_)) = state.pointee(*ptr) {
                    let freed = state.regions.get(&r).is_some_and(|rs| rs.freed);
                    if !freed {
                        emit(report, Finding {
                            kind: FindingKind::PlacementLeak,
                            severity: Severity::Warning,
                            site: site.clone(),
                            message:
                                "pointer to a live placement arena nulled without releasing the block (§4.5)"
                                    .to_owned(),
                            width: None,
                        });
                    }
                }
                state.points_to[ptr.index() as usize] = None;
            }
            Stmt::VirtualCall { .. } | Stmt::CallPtr { .. } | Stmt::Return { .. } => {}
            Stmt::If { cond, then_body, else_body, .. } => {
                let mut then_state = state.clone();
                let mut else_state = state.clone();
                self.refine(ix, cond, true, &mut then_state);
                self.refine(ix, cond, false, &mut else_state);
                self.walk(ix, then_body, &mut then_state, report, depth, env);
                self.walk(ix, else_body, &mut else_state, report, depth, env);
                let then_returns = matches!(then_body.last(), Some(Stmt::Return { .. }));
                let else_returns = matches!(else_body.last(), Some(Stmt::Return { .. }));
                // A branch ending in `return` contributes nothing to the
                // fall-through state — this is what lets the guard
                // `if (n > max) return;` establish n ≤ max afterwards.
                *state = match (then_returns, else_returns) {
                    (true, false) => else_state,
                    (false, true) => then_state,
                    _ => then_state.merge(else_state),
                };
            }
            Stmt::While { cond, body, .. } => {
                // Re-analyze the body to a fixpoint of the loop-entry
                // state: iteration 2 must see facts iteration 1 left
                // behind (a pointer re-aimed at a smaller arena, a count
                // variable turned tainted). Analyzing the body once
                // against the entry state misses those. `emit` dedups the
                // findings the repeated walks re-derive.
                //
                // Loop summarization: every pass enters the body through
                // the loop test, so a guard-bounded trip count keeps its
                // bound across iterations instead of widening to ⊤, and
                // the exit state is narrowed by the test failing. Value
                // intervals can climb one unit per pass ([0,0], [0,1],
                // …), so endpoints still moving after `WIDEN_AFTER`
                // passes are widened to ∓∞ — the fixpoint then lands
                // within the pass bound, and the exit narrowing claws the
                // loop-test bound back where there is one.
                let mut entry = state.clone();
                for pass in 0..MAX_LOOP_PASSES {
                    let mut body_state = entry.clone();
                    self.refine(ix, cond, true, &mut body_state);
                    self.walk(ix, body, &mut body_state, report, depth, env);
                    let next = entry.clone().merge(body_state);
                    if next == entry {
                        break;
                    }
                    entry = if pass + 1 >= WIDEN_AFTER {
                        let mut widened = next;
                        for (w, e) in widened.vals.iter_mut().zip(&entry.vals) {
                            *w = e.widen(*w);
                        }
                        widened
                    } else {
                        next
                    };
                }
                *state = entry;
                // Fall-through code runs only when the loop test fails.
                self.refine(ix, cond, false, state);
            }
            Stmt::Call { site, func, args } => {
                self.analyze_call(ix, site, func, args, state, report, depth, env);
            }
        }
    }
}

/// Mutable per-analysis context threaded through the walk: the summary
/// memo table (unused in inline mode).
struct WalkEnv<'p> {
    memo: Memo<'p>,
}

/// Whether a region survives a call boundary: global variables and heap
/// blocks are caller-visible; a callee's locals (and the caller's own
/// locals reached through pointer parameters) are not merged back —
/// matching the inline walk exactly.
fn is_caller_visible(ix: &Index<'_>, id: RegionId) -> bool {
    match id {
        RegionId::Var(v) => ix.var_is_global[v.index() as usize],
        RegionId::Heap(_) => true,
    }
}

/// Merges one caller-visible region's callee-exit state into the
/// caller's view (monotone lifecycle facts; tenant knowledge degrades on
/// disagreement). Shared by the inline merge-back and summary replay.
fn merge_back<'p>(dst: &mut RegionState<'p>, rs: &RegionState<'p>) {
    dst.has_secret |= rs.has_secret;
    dst.tainted_pool |= rs.tainted_pool;
    if dst.residue_at.is_none() {
        dst.residue_at = rs.residue_at;
    }
    dst.freed |= rs.freed;
    if dst.last_tenant_size != rs.last_tenant_size {
        dst.last_tenant_size = None;
    }
}

/// Maximum interprocedural walk depth. Beyond it the analyzer emits a
/// deterministic [`FindingKind::AnalysisDepthExceeded`] diagnostic at the
/// frontier call site — never a silent truncation. Recursive cycles
/// (which no bottom-up summary order can resolve) widen by descending to
/// this bound; acyclic chains deeper than this are flagged the same way.
pub(crate) const MAX_CALL_DEPTH: u32 = 24;

/// Maximum loop-body re-analysis rounds before accepting the current
/// loop-entry state as the fixpoint. With widening kicking in after
/// [`WIDEN_AFTER`] passes this is a safety net, not the normal exit.
const MAX_LOOP_PASSES: u32 = 6;

/// Loop passes after which still-moving interval endpoints widen to ∓∞.
/// Two un-widened passes let short counting patterns (`i = i + 1` under
/// an `i != k` test) settle exactly before the big hammer lands.
const WIDEN_AFTER: u32 = 2;

/// The result of [`Analyzer::analyze_partial`]: the full analysis
/// product plus the reanalyzed/reused accounting the delta surfaces
/// report.
#[derive(Debug, Clone, PartialEq)]
pub struct PartialAnalysis {
    /// The (byte-identical-to-fresh) analysis of the edited file.
    pub analysis: CachedAnalysis,
    /// Functions whose own content changed: a moved fingerprint, a new
    /// function, or a caller of a deleted one.
    pub functions_changed: u32,
    /// Functions inside the invalidation cone (the changed set plus its
    /// transitive callers over the new call graph), re-walked.
    pub functions_reanalyzed: u32,
    /// Functions hydrated from the old record without re-analysis.
    pub functions_reused: u32,
}

/// A file's previous analysis, as a partial re-analysis reuses it: per
/// function, the record to reuse (`None` inside the invalidation cone,
/// which is walked), and the finding pool those records index.
struct Prior<'a> {
    reuse: Vec<Option<&'a FunctionSummaryRecord>>,
    pool: &'a [Finding],
}

/// Where one function's entry summary comes from in
/// [`Analyzer::summarize`].
enum EntrySource<'a> {
    /// A walk of its body.
    Walk,
    /// A cross-file [`SummaryStore`] entry.
    Replay(Arc<StoredSummary>),
    /// The file's prior record, outside the invalidation cone.
    Prior(&'a FunctionSummaryRecord),
}

/// Full-content identity of a finding, for pool interning. `Site`'s own
/// `PartialEq` deliberately ignores spans, but the pool must distinguish
/// findings down to the rendered byte (spans, message, width) — two
/// pool entries are interchangeable only if they serialize identically.
type FindingPoolKey =
    (FindingKind, Severity, String, u32, Option<(u32, u32, u32, u32)>, String, Option<u64>);

fn finding_pool_key(f: &Finding) -> FindingPoolKey {
    (
        f.kind,
        f.severity,
        f.site.function.clone(),
        f.site.line,
        f.site.span.map(|s| (s.line, s.col, s.byte_offset, s.len)),
        f.message.clone(),
        f.width,
    )
}

/// The file-level finding pool: the union of every function's
/// entry-summary findings, deduplicated by full content. Records index
/// into it via [`FunctionSummaryRecord::finding_ids`].
#[derive(Default)]
struct FindingPool {
    pool: Vec<Finding>,
    index: HashMap<FindingPoolKey, u32>,
}

impl FindingPool {
    /// Emits each finding into `report` and interns it, returning the
    /// pool ids in emission order.
    fn replay<'f>(
        &mut self,
        report: &mut Report,
        findings: impl Iterator<Item = &'f Finding>,
    ) -> Vec<u32> {
        findings
            .map(|f| {
                emit(report, f.clone());
                self.intern(f)
            })
            .collect()
    }

    fn intern(&mut self, f: &Finding) -> u32 {
        if let Some(&id) = self.index.get(&finding_pool_key(f)) {
            return id;
        }
        let id = self.pool.len() as u32;
        self.pool.push(f.clone());
        self.index.insert(finding_pool_key(f), id);
        id
    }
}

/// Per-function content fingerprints: a 128-bit FNV-1a over the
/// program's *semantic* preamble (classes and globals — the
/// `program name;` line is stripped so identical code in differently
/// named files shares fingerprints across the [`SummaryStore`]), the
/// function's canonical pretty text, and the byte positions of its
/// statements. Spans are folded in because rendered findings carry
/// byte-precise positions: a function whose text is unchanged but whose
/// statements *moved* must not reuse stale spans.
fn function_fingerprints(program: &Program) -> Vec<u128> {
    let preamble = crate::pretty::pretty_preamble(program);
    let semantic = preamble.split_once('\n').map_or(preamble.as_str(), |(_, rest)| rest);
    program
        .functions
        .iter()
        .map(|f| {
            let mut text = String::with_capacity(semantic.len() + 256);
            text.push_str(semantic);
            text.push_str(&crate::pretty::pretty_function(program, f));
            append_span_digest(&f.body, &mut text);
            crate::cache::fnv128(text.as_bytes())
        })
        .collect()
}

/// Appends every statement's span (recursing into branch and loop
/// bodies) to a fingerprint buffer. Builder programs without spans
/// digest to position-independent markers.
fn append_span_digest(body: &[Stmt], out: &mut String) {
    use std::fmt::Write as _;
    for stmt in body {
        match stmt.site().span {
            Some(sp) => {
                let _ = write!(out, "@{},{},{},{};", sp.line, sp.col, sp.byte_offset, sp.len);
            }
            None => out.push_str("@;"),
        }
        match stmt {
            Stmt::If { then_body, else_body, .. } => {
                append_span_digest(then_body, out);
                out.push('|');
                append_span_digest(else_body, out);
            }
            Stmt::While { body, .. } => append_span_digest(body, out),
            _ => {}
        }
    }
}

/// Appends a finding unless an identical `(kind, site)` is already
/// reported (a callee analyzed standalone and inline, a loop body walked
/// twice, …).
fn emit(report: &mut Report, finding: Finding) {
    let dup = report.findings.iter().any(|f| f.kind == finding.kind && f.site == finding.site);
    if !dup {
        report.findings.push(finding);
    }
}

/// Entry-point state for function `fi`: parameter taint and
/// declared-storage region sizes for globals and the function's own
/// variables.
fn init_state<'p>(ix: &Index<'p>, fi: usize) -> State<'p> {
    let mut state = State::new(ix.program.vars.len());
    let member = &ix.fn_member[fi];
    for var in &ix.program.vars {
        let vi = var.id.index() as usize;
        if !ix.var_is_global[vi] && !member[vi] {
            continue;
        }
        if let Scope::Param { tainted } = var.scope {
            state.taint(var.id, tainted);
        }
        if !ix.var_is_ptr[vi] {
            let region = state.region_mut(RegionId::Var(var.id));
            region.last_tenant_size = ix.var_storage_size[vi];
        }
    }
    state
}

impl Analyzer {
    /// Interprocedural analysis of a direct call: bind the caller's
    /// argument facts to the callee's parameters, then either apply the
    /// memoized transfer summary for that `(callee, depth, context)` —
    /// computing it on first encounter — or (inline mode) re-walk the
    /// callee body. Both paths merge the same caller-visible region
    /// effects back and are finding-for-finding identical.
    #[allow(clippy::too_many_arguments)]
    fn analyze_call<'p>(
        &self,
        ix: &Index<'p>,
        site: &'p Site,
        func: &str,
        args: &[Expr],
        state: &mut State<'p>,
        report: &mut Report,
        depth: u32,
        env: &mut WalkEnv<'p>,
    ) {
        let Some(&fi) = ix.fn_by_name.get(func) else {
            return; // external/opaque call: no effect modeled
        };
        if depth >= MAX_CALL_DEPTH {
            // Hard depth guard: recursion or a pathologically deep chain.
            // The frontier is reported, deterministically, instead of the
            // silent truncation this used to be.
            emit(report, Finding {
                kind: FindingKind::AnalysisDepthExceeded,
                severity: Severity::Info,
                site: site.clone(),
                message: format!(
                    "call to {func} not analyzed: interprocedural depth limit ({MAX_CALL_DEPTH}) reached — recursion or a deeper call chain; code behind this call is unverified"
                ),
                width: None,
            });
            return;
        }
        let callee = &ix.program.functions[fi];
        let mut callee_state = init_state(ix, fi);
        // Shared globals carry their caller-visible lifecycle state in.
        for (&id, rs) in &state.regions {
            if is_caller_visible(ix, id) {
                callee_state.regions.insert(id, *rs);
            }
        }
        callee_state.clobbered_at = state.clobbered_at;
        // Bind arguments to parameters, in declaration order.
        for (&param, arg) in ix.fn_params[fi].iter().zip(args) {
            let pi = param.index() as usize;
            callee_state.tainted[pi] = state.expr_tainted(arg);
            // The full caller-visible interval flows in, so a guarded
            // (not just constant) argument keeps its bound in the callee
            // — and summaries key on that interval.
            callee_state.vals[pi] = self.eval_interval(ix, arg, state);
            if ix.var_is_ptr[pi] {
                if let Some(r) = self.region_of_expr(ix, arg, state) {
                    callee_state.points_to[pi] = Some(r);
                }
            }
        }
        if self.config.use_summaries {
            let key = SummaryKey::of(fi, depth + 1, &ix.fn_params[fi], &callee_state);
            let summary = match env.memo.get(&key) {
                Some(s) => {
                    env.memo.applied += 1;
                    s
                }
                None => self.compute_summary(ix, fi, callee_state, depth + 1, key, env),
            };
            for f in &summary.findings {
                emit(report, f.clone());
            }
            for (id, rs) in &summary.exit_regions {
                merge_back(state.region_mut(*id), rs);
            }
            if state.clobbered_at.is_none() {
                state.clobbered_at = summary.exit_clobber;
            }
            return;
        }
        self.walk(ix, &callee.body, &mut callee_state, report, depth + 1, env);
        // Merge global/heap region effects back into the caller.
        for (id, rs) in callee_state.regions {
            if !is_caller_visible(ix, id) {
                continue;
            }
            merge_back(state.region_mut(id), &rs);
        }
        if state.clobbered_at.is_none() {
            state.clobbered_at = callee_state.clobbered_at;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::ir::CmpOp;

    fn students(p: &mut ProgramBuilder) {
        p.class("Student", 16, None, false);
        p.class("GradStudent", 32, Some("Student"), false);
    }

    #[test]
    fn oversized_placement_is_proved() {
        let mut p = ProgramBuilder::new("t");
        students(&mut p);
        let mut f = p.function("main");
        let stud = f.local("stud", Ty::Class("Student".into()));
        let st = f.local("st", Ty::Ptr);
        f.placement_new(st, Expr::addr_of(stud), "GradStudent");
        f.finish();
        let r = Analyzer::new().analyze(&p.build());
        let found = r.of_kind(FindingKind::OversizedPlacement);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].severity, Severity::Error);
        assert!(found[0].message.contains("overflows by 16 bytes"));
    }

    #[test]
    fn equal_size_placement_is_clean() {
        let mut p = ProgramBuilder::new("t");
        students(&mut p);
        let mut f = p.function("main");
        let stud = f.local("stud", Ty::Class("Student".into()));
        let st = f.local("st", Ty::Ptr);
        f.placement_new(st, Expr::addr_of(stud), "Student");
        f.finish();
        let r = Analyzer::new().analyze(&p.build());
        assert!(!r.detected());
    }

    #[test]
    fn alias_through_pointer_is_tracked() {
        let mut p = ProgramBuilder::new("t");
        students(&mut p);
        let mut f = p.function("main");
        let stud = f.local("stud", Ty::Class("Student".into()));
        let alias = f.local("alias", Ty::Ptr);
        let st = f.local("st", Ty::Ptr);
        f.assign(alias, Expr::addr_of(stud));
        f.placement_new(st, Expr::Var(alias), "GradStudent");
        f.finish();
        let r = Analyzer::new().analyze(&p.build());
        assert_eq!(r.of_kind(FindingKind::OversizedPlacement).len(), 1);
    }

    #[test]
    fn unknown_bounds_yield_an_info_warning() {
        let mut p = ProgramBuilder::new("t");
        students(&mut p);
        let mut f = p.function("main");
        let ptr = f.param("somewhere", Ty::Ptr, false);
        let st = f.local("st", Ty::Ptr);
        f.placement_new(st, Expr::Var(ptr), "GradStudent");
        f.finish();
        let r = Analyzer::new().analyze(&p.build());
        let found = r.of_kind(FindingKind::UnknownBoundsPlacement);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].severity, Severity::Info);
        assert!(!r.detected_at(Severity::Warning));
    }

    #[test]
    fn tainted_array_count_detected() {
        // Listing 5: n comes from a malicious service.
        let mut p = ProgramBuilder::new("t");
        students(&mut p);
        let pool = p.global("st", Ty::CharArray(Some(64)));
        let mut f = p.function("main");
        let n = f.local("n", Ty::Int);
        let names = f.local("stnames", Ty::Ptr);
        f.read_input(n);
        f.placement_new_array(names, Expr::addr_of(pool), 4, Expr::Var(n));
        f.finish();
        let r = Analyzer::new().analyze(&p.build());
        assert_eq!(r.of_kind(FindingKind::TaintedPlacementSize).len(), 1);
    }

    #[test]
    fn constant_sizes_evaluate_through_arithmetic() {
        let mut p = ProgramBuilder::new("t");
        students(&mut p);
        let pool = p.global("pool", Ty::CharArray(Some(72)));
        let mut f = p.function("main");
        let n = f.local("n", Ty::Int);
        let buf = f.local("buf", Ty::Ptr);
        f.assign(n, Expr::Const(100));
        f.placement_new_array(buf, Expr::addr_of(pool), 1, Expr::mul(Expr::Var(n), Expr::Const(9)));
        f.finish();
        let r = Analyzer::new().analyze(&p.build());
        let found = r.of_kind(FindingKind::OversizedPlacement);
        assert_eq!(found.len(), 1);
        assert!(found[0].message.contains("900-byte array"));
    }

    #[test]
    fn two_step_pattern_detected_through_the_defeated_guard() {
        // The full Listing 19 shape: tainted n, a real bounds check, but
        // an oversized object placement in between that can rewrite the
        // checked variable — the analyzer must keep flagging.
        let mut p = ProgramBuilder::new("t");
        students(&mut p);
        let mut f = p.function("sortAndAddUname");
        let uname = f.param("uname", Ty::Ptr, true);
        let pool = f.local("mem_pool", Ty::CharArray(Some(72)));
        let n = f.local("n_unames", Ty::Int);
        let stud = f.local("stud", Ty::Class("Student".into()));
        let st = f.local("st", Ty::Ptr);
        let buf = f.local("buf", Ty::Ptr);
        f.read_input(n);
        f.if_start(Expr::Var(n), CmpOp::Gt, Expr::Const(8));
        f.ret();
        f.end_if();
        f.placement_new(st, Expr::addr_of(stud), "GradStudent"); // step 1
        f.placement_new_array(buf, Expr::addr_of(pool), 9, Expr::Var(n));
        f.strncpy(buf, Expr::Var(uname), Expr::mul(Expr::Var(n), Expr::Const(9)));
        f.finish();
        let r = Analyzer::new().analyze(&p.build());
        let tainted = r.of_kind(FindingKind::TaintedPlacementSize);
        assert_eq!(tainted.len(), 1);
        assert!(tainted[0].message.contains("bounds check is void"), "{}", tainted[0].message);
        assert!(!r.of_kind(FindingKind::TaintedCopyThroughPool).is_empty());
    }

    #[test]
    fn intact_guard_suppresses_the_tainted_count() {
        // Same program without the step-1 overflow: the guard genuinely
        // bounds n (n ≤ 8, 8·9 = 72 ≤ 72), so the tainted length is safe.
        let mut p = ProgramBuilder::new("t");
        students(&mut p);
        let mut f = p.function("sortAndAddUname");
        let uname = f.param("uname", Ty::Ptr, true);
        let pool = f.local("mem_pool", Ty::CharArray(Some(72)));
        let n = f.local("n_unames", Ty::Int);
        let buf = f.local("buf", Ty::Ptr);
        f.read_input(n);
        f.if_start(Expr::Var(n), CmpOp::Gt, Expr::Const(8));
        f.ret();
        f.end_if();
        f.placement_new_array(buf, Expr::addr_of(pool), 9, Expr::Var(n));
        f.strncpy(buf, Expr::Var(uname), Expr::mul(Expr::Var(n), Expr::Const(9)));
        f.finish();
        let r = Analyzer::new().analyze(&p.build());
        assert!(!r.detected_at(Severity::Warning), "{r}");
    }

    #[test]
    fn insufficient_guard_still_flags() {
        // A guard that bounds n too loosely (n ≤ 100, 100·9 > 72).
        let mut p = ProgramBuilder::new("t");
        students(&mut p);
        let mut f = p.function("f");
        let uname = f.param("uname", Ty::Ptr, true);
        let pool = f.local("mem_pool", Ty::CharArray(Some(72)));
        let n = f.local("n", Ty::Int);
        let buf = f.local("buf", Ty::Ptr);
        f.read_input(n);
        f.if_start(Expr::Var(n), CmpOp::Gt, Expr::Const(100));
        f.ret();
        f.end_if();
        f.placement_new_array(buf, Expr::addr_of(pool), 9, Expr::Var(n));
        f.strncpy(buf, Expr::Var(uname), Expr::mul(Expr::Var(n), Expr::Const(9)));
        f.finish();
        let r = Analyzer::new().analyze(&p.build());
        assert!(!r.of_kind(FindingKind::TaintedPlacementSize).is_empty());
    }

    #[test]
    fn unsanitized_reuse_detected_and_memset_clears_it() {
        for sanitize in [false, true] {
            let mut p = ProgramBuilder::new("t");
            students(&mut p);
            let pool = p.global("mem_pool", Ty::CharArray(Some(128)));
            let mut f = p.function("main");
            let user = f.local("userdata", Ty::Ptr);
            f.read_secret(pool);
            if sanitize {
                f.memset(pool, Expr::Const(128));
            }
            f.placement_new_array(user, Expr::addr_of(pool), 1, Expr::Const(128));
            f.output(user);
            f.finish();
            let r = Analyzer::new().analyze(&p.build());
            let found = r.of_kind(FindingKind::UnsanitizedArenaReuse);
            assert_eq!(found.len(), usize::from(!sanitize), "sanitize={sanitize}");
        }
    }

    #[test]
    fn smaller_object_reuse_is_residue() {
        // Listing 22: GradStudent then Student placed over it, stored out.
        let mut p = ProgramBuilder::new("t");
        students(&mut p);
        let mut f = p.function("main");
        let gst = f.local("gst", Ty::Ptr);
        let st = f.local("st", Ty::Ptr);
        f.heap_new(gst, "GradStudent");
        f.placement_new(st, Expr::Var(gst), "Student");
        f.output(st);
        f.finish();
        let r = Analyzer::new().analyze(&p.build());
        assert_eq!(r.of_kind(FindingKind::UnsanitizedArenaReuse).len(), 1);
    }

    #[test]
    fn placement_leak_detected() {
        // Listing 23: allocated as GradStudent, released as Student.
        let mut p = ProgramBuilder::new("t");
        students(&mut p);
        let mut f = p.function("addStudent");
        let stud = f.local("stud", Ty::Ptr);
        let st = f.local("st", Ty::Ptr);
        f.heap_new(stud, "GradStudent");
        f.placement_new(st, Expr::Var(stud), "Student");
        f.delete(st, Some("Student"));
        f.finish();
        let r = Analyzer::new().analyze(&p.build());
        let found = r.of_kind(FindingKind::PlacementLeak);
        assert_eq!(found.len(), 1);
        assert!(found[0].message.contains("16 bytes leak"));
    }

    #[test]
    fn null_without_free_warns() {
        let mut p = ProgramBuilder::new("t");
        students(&mut p);
        let mut f = p.function("f");
        let stud = f.local("stud", Ty::Ptr);
        f.heap_new(stud, "GradStudent");
        f.null_assign(stud);
        f.finish();
        let r = Analyzer::new().analyze(&p.build());
        let found = r.of_kind(FindingKind::PlacementLeak);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].severity, Severity::Warning);
    }

    #[test]
    fn proper_delete_is_clean() {
        let mut p = ProgramBuilder::new("t");
        students(&mut p);
        let mut f = p.function("f");
        let stud = f.local("stud", Ty::Ptr);
        let st = f.local("st", Ty::Ptr);
        f.heap_new(stud, "GradStudent");
        f.placement_new(st, Expr::Var(stud), "Student");
        f.delete(st, Some("GradStudent")); // placement delete: full block
        f.null_assign(stud);
        f.finish();
        let r = Analyzer::new().analyze(&p.build());
        assert!(r.of_kind(FindingKind::PlacementLeak).is_empty());
        // The smaller-tenant residue is never shipped out: no leak finding.
        assert!(r.of_kind(FindingKind::UnsanitizedArenaReuse).is_empty());
    }

    #[test]
    fn vptr_clobber_reported_for_polymorphic_worlds() {
        let mut p = ProgramBuilder::new("t");
        p.class("Student", 24, None, true);
        p.class("GradStudent", 40, Some("Student"), true);
        let mut f = p.function("main");
        let stud = f.local("stud", Ty::Class("Student".into()));
        let st = f.local("st", Ty::Ptr);
        f.placement_new(st, Expr::addr_of(stud), "GradStudent");
        f.finish();
        let r = Analyzer::new().analyze(&p.build());
        assert_eq!(r.of_kind(FindingKind::VptrClobber).len(), 1);
    }

    #[test]
    fn tainted_constructor_args_detected() {
        // Listing 7: copy constructor from a received object.
        let mut p = ProgramBuilder::new("t");
        students(&mut p);
        let stud = p.global("stud", Ty::Class("Student".into()));
        let mut f = p.function("addStudent");
        let remote = f.param("remoteobj", Ty::Ptr, true);
        let st = f.local("st", Ty::Ptr);
        f.placement_new_with(st, Expr::addr_of(stud), "Student", vec![Expr::Var(remote)]);
        f.finish();
        let r = Analyzer::new().analyze(&p.build());
        assert_eq!(r.of_kind(FindingKind::TaintedPlacementSize).len(), 1);
    }

    #[test]
    fn overwriting_with_a_constant_sanitizes() {
        // read n (tainted), then n = 8: the later placement is clean.
        let mut p = ProgramBuilder::new("t");
        students(&mut p);
        let pool = p.global("pool", Ty::CharArray(Some(72)));
        let mut f = p.function("main");
        let n = f.local("n", Ty::Int);
        let buf = f.local("buf", Ty::Ptr);
        f.read_input(n);
        f.assign(n, Expr::Const(8));
        f.placement_new_array(buf, Expr::addr_of(pool), 9, Expr::Var(n));
        f.finish();
        let r = Analyzer::new().analyze(&p.build());
        assert!(!r.detected());
    }

    #[test]
    fn config_filters_severity_and_kinds() {
        let mut p = ProgramBuilder::new("t");
        students(&mut p);
        let mut f = p.function("main");
        let dest = f.param("dest", Ty::Ptr, false); // unknown bounds → Info
        let stud = f.local("stud", Ty::Class("Student".into()));
        let st = f.local("st", Ty::Ptr);
        f.placement_new(st, Expr::Var(dest), "GradStudent");
        f.placement_new(st, Expr::addr_of(stud), "GradStudent"); // Error
        f.finish();
        let program = p.build();

        let all = Analyzer::new().analyze(&program);
        assert_eq!(all.findings.len(), 2);

        let errors_only = Analyzer::with_config(AnalyzerConfig {
            min_severity: Severity::Error,
            ..AnalyzerConfig::default()
        })
        .analyze(&program);
        assert_eq!(errors_only.findings.len(), 1);
        assert!(errors_only.of_kind(FindingKind::UnknownBoundsPlacement).is_empty());

        let oversized_off = Analyzer::with_config(AnalyzerConfig {
            disabled: vec![FindingKind::OversizedPlacement],
            ..AnalyzerConfig::default()
        })
        .analyze(&program);
        assert!(oversized_off.of_kind(FindingKind::OversizedPlacement).is_empty());
        assert_eq!(oversized_off.findings.len(), 1);
    }

    #[test]
    fn interprocedural_taint_flows_through_calls() {
        // The callee is clean standalone (its parameter is untainted);
        // only the caller's tainted argument makes it vulnerable — the
        // §3.3 inter-procedural path.
        let mut p = ProgramBuilder::new("t");
        students(&mut p);
        let pool = p.global("pool", Ty::CharArray(Some(72)));
        let mut helper = p.function("place_names");
        let count = helper.param("count", Ty::Int, false);
        let buf = helper.local("buf", Ty::Ptr);
        helper.placement_new_array(buf, Expr::addr_of(pool), 9, Expr::Var(count));
        helper.finish();
        let mut main = p.function("main");
        let n = main.local("n", Ty::Int);
        main.read_input(n);
        main.call("place_names", vec![Expr::Var(n)]);
        main.finish();
        let r = Analyzer::new().analyze(&p.build());
        let found = r.of_kind(FindingKind::TaintedPlacementSize);
        assert_eq!(found.len(), 1, "{r}");
        assert_eq!(found[0].site.function, "place_names");
    }

    #[test]
    fn interprocedural_constants_prove_overflows() {
        // A constant argument large enough to overflow, visible only
        // through the call.
        let mut p = ProgramBuilder::new("t");
        students(&mut p);
        let pool = p.global("pool", Ty::CharArray(Some(72)));
        let mut helper = p.function("place_names");
        let count = helper.param("count", Ty::Int, false);
        let buf = helper.local("buf", Ty::Ptr);
        helper.placement_new_array(buf, Expr::addr_of(pool), 9, Expr::Var(count));
        helper.finish();
        let mut main = p.function("main");
        main.call("place_names", vec![Expr::Const(100)]);
        main.finish();
        let r = Analyzer::new().analyze(&p.build());
        assert_eq!(r.of_kind(FindingKind::OversizedPlacement).len(), 1, "{r}");
    }

    #[test]
    fn safe_constant_calls_are_clean() {
        let mut p = ProgramBuilder::new("t");
        students(&mut p);
        let pool = p.global("pool", Ty::CharArray(Some(72)));
        let mut helper = p.function("place_names");
        let count = helper.param("count", Ty::Int, false);
        let buf = helper.local("buf", Ty::Ptr);
        helper.placement_new_array(buf, Expr::addr_of(pool), 9, Expr::Var(count));
        helper.finish();
        let mut main = p.function("main");
        main.call("place_names", vec![Expr::Const(8)]);
        main.finish();
        let r = Analyzer::new().analyze(&p.build());
        assert!(!r.detected_at(Severity::Warning), "{r}");
    }

    #[test]
    fn duplicate_findings_are_merged() {
        // A callee vulnerable on its own, called from main: one finding,
        // not two.
        let mut p = ProgramBuilder::new("t");
        students(&mut p);
        let mut helper = p.function("helper");
        let stud = helper.local("stud", Ty::Class("Student".into()));
        let st = helper.local("st", Ty::Ptr);
        helper.placement_new(st, Expr::addr_of(stud), "GradStudent");
        helper.finish();
        let mut main = p.function("main");
        main.call("helper", vec![]);
        main.finish();
        let r = Analyzer::new().analyze(&p.build());
        assert_eq!(r.of_kind(FindingKind::OversizedPlacement).len(), 1, "{r}");
    }

    #[test]
    fn recursion_terminates_with_a_depth_diagnostic() {
        let mut p = ProgramBuilder::new("t");
        let mut f = p.function("spin");
        let x = f.local("x", Ty::Int);
        f.assign(x, Expr::Const(1));
        f.call("spin", vec![]);
        f.finish();
        let r = Analyzer::new().analyze(&p.build());
        // The cut-off is no longer silent: the frontier call site carries
        // a deterministic Info diagnostic, and nothing stronger.
        let found = r.of_kind(FindingKind::AnalysisDepthExceeded);
        assert_eq!(found.len(), 1, "{r}");
        assert_eq!(found[0].severity, Severity::Info);
        assert!(found[0].message.contains("depth limit"), "{}", found[0].message);
        assert!(!r.detected_at(Severity::Warning));
    }

    /// Summary application must be finding-for-finding identical to the
    /// inline re-walk, context included.
    fn assert_modes_agree(program: &Program) {
        let summaries = Analyzer::new().analyze(program);
        let inline = Analyzer::with_config(AnalyzerConfig {
            use_summaries: false,
            ..AnalyzerConfig::default()
        })
        .analyze(program);
        assert_eq!(summaries, inline, "summary/inline divergence");
    }

    #[test]
    fn summary_mode_matches_inline_on_interprocedural_shapes() {
        // Re-run every interprocedural scenario of this module through
        // both strategies.
        let mut p = ProgramBuilder::new("t");
        students(&mut p);
        let pool = p.global("pool", Ty::CharArray(Some(72)));
        let mut helper = p.function("place_names");
        let count = helper.param("count", Ty::Int, false);
        let buf = helper.local("buf", Ty::Ptr);
        helper.placement_new_array(buf, Expr::addr_of(pool), 9, Expr::Var(count));
        helper.finish();
        let mut main = p.function("main");
        let n = main.local("n", Ty::Int);
        main.read_input(n);
        main.call("place_names", vec![Expr::Var(n)]);
        main.call("place_names", vec![Expr::Const(100)]);
        main.call("place_names", vec![Expr::Const(8)]);
        main.finish();
        assert_modes_agree(&p.build());
    }

    #[test]
    fn repeated_identical_calls_are_memoized() {
        // Ten identical safe calls: one summary computation for the call
        // context (plus entry summaries), nine applications.
        let mut p = ProgramBuilder::new("t");
        students(&mut p);
        let pool = p.global("pool", Ty::CharArray(Some(72)));
        let mut helper = p.function("place_names");
        let count = helper.param("count", Ty::Int, false);
        let buf = helper.local("buf", Ty::Ptr);
        helper.placement_new_array(buf, Expr::addr_of(pool), 9, Expr::Var(count));
        helper.finish();
        let mut main = p.function("main");
        for _ in 0..10 {
            main.call("place_names", vec![Expr::Const(8)]);
        }
        main.finish();
        let program = p.build();
        assert_modes_agree(&program);
        let trace = TraceCollector::new();
        Analyzer::new().analyze_full(&program, Some(&trace), None);
        let snap = trace.snapshot();
        // 2 entry summaries + 1 distinct call context.
        assert_eq!(snap.counters["analysis.summaries-computed"], 3);
        assert!(snap.counters["analysis.summaries-applied"] >= 9);
    }

    #[test]
    fn secret_state_crosses_calls() {
        // read_secret happens in one function, the leaky reuse in another.
        let mut p = ProgramBuilder::new("t");
        let pool = p.global("mem_pool", Ty::CharArray(Some(128)));
        let mut load = p.function("load_passwords");
        load.read_secret(pool);
        load.finish();
        let mut serve = p.function("serve");
        let user = serve.local("userdata", Ty::Ptr);
        serve.placement_new_array(user, Expr::addr_of(pool), 1, Expr::Const(128));
        serve.output(user);
        serve.finish();
        let mut main = p.function("main");
        main.call("load_passwords", vec![]);
        main.call("serve", vec![]);
        main.finish();
        let r = Analyzer::new().analyze(&p.build());
        assert_eq!(r.of_kind(FindingKind::UnsanitizedArenaReuse).len(), 1, "{r}");
    }

    #[test]
    fn branch_merge_keeps_agreeing_constants() {
        let mut p = ProgramBuilder::new("t");
        students(&mut p);
        let pool = p.global("pool", Ty::CharArray(Some(72)));
        let mut f = p.function("main");
        let n = f.local("n", Ty::Int);
        let flag = f.local("flag", Ty::Int);
        let buf = f.local("buf", Ty::Ptr);
        f.read_input(flag);
        f.if_start(Expr::Var(flag), CmpOp::Gt, Expr::Const(0));
        f.assign(n, Expr::Const(200));
        f.else_branch();
        f.assign(n, Expr::Const(200));
        f.end_if();
        f.placement_new_array(buf, Expr::addr_of(pool), 1, Expr::Var(n));
        f.finish();
        let r = Analyzer::new().analyze(&p.build());
        // 200 > 72 in both branches: the proof survives the merge.
        assert_eq!(r.of_kind(FindingKind::OversizedPlacement).len(), 1);
    }

    #[test]
    fn disagreeing_branches_degrade_gracefully() {
        let mut p = ProgramBuilder::new("t");
        students(&mut p);
        let pool = p.global("pool", Ty::CharArray(Some(72)));
        let mut f = p.function("main");
        let n = f.local("n", Ty::Int);
        let flag = f.local("flag", Ty::Int);
        let buf = f.local("buf", Ty::Ptr);
        f.read_input(flag);
        f.if_start(Expr::Var(flag), CmpOp::Gt, Expr::Const(0));
        f.assign(n, Expr::Const(8));
        f.else_branch();
        f.assign(n, Expr::Const(200));
        f.end_if();
        f.placement_new_array(buf, Expr::addr_of(pool), 1, Expr::Var(n));
        f.finish();
        let r = Analyzer::new().analyze(&p.build());
        // No proof either way — and n is not tainted, so nothing at
        // Warning+. (A bounds check in only one branch is exactly the kind
        // of case §5.1 says static analysis struggles with.)
        assert!(!r.detected_at(Severity::Warning));
    }

    #[test]
    fn loop_taint_established_late_reaches_next_iteration() {
        // Regression for the loop-body under-approximation: `m` only
        // becomes tainted *after* the placement in iteration 1, so a
        // single body pass against the entry state sees an untainted
        // count and clears the site — while iteration 2 concretely
        // places an attacker-chosen number of elements.
        let mut p = ProgramBuilder::new("t");
        students(&mut p);
        let mut f = p.function("main");
        let pool = f.local("pool", Ty::CharArray(Some(64)));
        let n = f.local("n", Ty::Int);
        let m = f.local("m", Ty::Int);
        let i = f.local("i", Ty::Int);
        let buf = f.local("buf", Ty::Ptr);
        f.read_input(n);
        f.assign(i, Expr::Const(0));
        f.while_start(Expr::Var(i), CmpOp::Ne, Expr::Const(2));
        f.placement_new_array(buf, Expr::addr_of(pool), 1, Expr::Var(m));
        f.assign(m, Expr::Var(n));
        f.assign(i, Expr::add(Expr::Var(i), Expr::Const(1)));
        f.end_while();
        f.finish();
        let r = Analyzer::new().analyze(&p.build());
        let found = r.of_kind(FindingKind::TaintedPlacementSize);
        assert_eq!(found.len(), 1, "late loop taint missed: {r}");
        assert_eq!(found[0].severity, Severity::Warning);
    }

    #[test]
    fn loop_pointer_reaim_degrades_arena_knowledge() {
        // Iteration 1 re-aims `p` from the big arena to a small one, so
        // from iteration 2 on the placement target is ambiguous. The
        // fixpoint must at least degrade to unknown-bounds rather than
        // keep the clean first-iteration proof.
        let mut p = ProgramBuilder::new("t");
        students(&mut p);
        let mut f = p.function("main");
        let big = f.local("big", Ty::CharArray(Some(256)));
        let small = f.local("small", Ty::CharArray(Some(8)));
        let ptr = f.local("p", Ty::Ptr);
        let st = f.local("st", Ty::Ptr);
        let i = f.local("i", Ty::Int);
        f.assign(ptr, Expr::addr_of(big));
        f.assign(i, Expr::Const(0));
        f.while_start(Expr::Var(i), CmpOp::Ne, Expr::Const(2));
        f.placement_new(st, Expr::Var(ptr), "GradStudent");
        f.assign(ptr, Expr::addr_of(small));
        f.assign(i, Expr::add(Expr::Var(i), Expr::Const(1)));
        f.end_while();
        f.finish();
        let r = Analyzer::new().analyze(&p.build());
        assert!(
            !r.of_kind(FindingKind::UnknownBoundsPlacement).is_empty(),
            "re-aimed loop arena still treated as proven-safe: {r}"
        );
    }

    /// Builds `read n; <guard>; placement_new_array(pool[72], elem 9, n)`
    /// where the guard is chosen by `shape` and bounds n ≤ 8 (8·9 = 72
    /// fits exactly), then asserts the tainted count is suppressed.
    /// `in_branch` closes the guard's then-branch after the placement
    /// for guards that protect rather than reject.
    fn assert_guard_suppresses(
        shape: &str,
        in_branch: bool,
        guard: impl FnOnce(&mut crate::builder::FunctionBuilder, VarId),
    ) {
        let mut p = ProgramBuilder::new("t");
        let mut f = p.function("main");
        let pool = f.local("pool", Ty::CharArray(Some(72)));
        let n = f.local("n", Ty::Int);
        let buf = f.local("buf", Ty::Ptr);
        f.read_input(n);
        guard(&mut f, n);
        f.placement_new_array(buf, Expr::addr_of(pool), 9, Expr::Var(n));
        if in_branch {
            f.end_if();
        }
        f.finish();
        let r = Analyzer::new().analyze(&p.build());
        assert!(!r.detected_at(Severity::Warning), "{shape}: {r}");
    }

    #[test]
    fn guards_refine_in_both_polarities_and_operand_orders() {
        // Regression for the one-sided refine: only `Var-on-the-left`,
        // `holds`-polarity guards used to narrow the bound. All four
        // combinations must now suppress the tainted count.
        assert_guard_suppresses("var <= c, then-branch", true, |f, n| {
            f.if_start(Expr::Var(n), CmpOp::Le, Expr::Const(8));
        });
        assert_guard_suppresses("c > var, then-branch (reversed operands)", true, |f, n| {
            f.if_start(Expr::Const(9), CmpOp::Gt, Expr::Var(n));
        });
        assert_guard_suppresses("var >= c, fall-through (negated)", false, |f, n| {
            f.if_start(Expr::Var(n), CmpOp::Ge, Expr::Const(9));
            f.ret();
            f.end_if();
        });
        assert_guard_suppresses("c < var, fall-through (reversed + negated)", false, |f, n| {
            f.if_start(Expr::Const(8), CmpOp::Lt, Expr::Var(n));
            f.ret();
            f.end_if();
        });
    }

    #[test]
    fn eq_guard_pins_and_ne_rejection_shaves_the_endpoint() {
        // `n == c` pins the interval to [c, c] in the true branch…
        assert_guard_suppresses("var == c, then-branch", true, |f, n| {
            f.if_start(Expr::Var(n), CmpOp::Eq, Expr::Const(4));
        });
        // …`n != c` falling through pins it too (¬Ne = Eq)…
        assert_guard_suppresses("var != c, fall-through", false, |f, n| {
            f.if_start(Expr::Var(n), CmpOp::Ne, Expr::Const(4));
            f.ret();
            f.end_if();
        });
        // …and a failed equality at an interval *endpoint* shaves it:
        // n ≤ 8 then n ≠ 8 leaves n ≤ 7, and 7·9 = 63 exactly fills the
        // 63-byte pool.
        let mut p = ProgramBuilder::new("t");
        let mut f = p.function("main");
        let pool = f.local("pool", Ty::CharArray(Some(63)));
        let n = f.local("n", Ty::Int);
        let buf = f.local("buf", Ty::Ptr);
        f.read_input(n);
        f.if_start(Expr::Var(n), CmpOp::Gt, Expr::Const(8));
        f.ret();
        f.end_if();
        f.if_start(Expr::Var(n), CmpOp::Eq, Expr::Const(8));
        f.ret();
        f.end_if();
        f.placement_new_array(buf, Expr::addr_of(pool), 9, Expr::Var(n));
        f.finish();
        let r = Analyzer::new().analyze(&p.build());
        assert!(!r.detected_at(Severity::Warning), "endpoint shave missed: {r}");
    }

    #[test]
    fn negative_bound_count_is_suppressed_not_laundered() {
        // Regression for the `u64::try_from` laundering: a guard proving
        // the count *negative* used to make the bound vanish (try_from
        // fails → "unbounded") and flag a placement that provably writes
        // nothing — the simulated `new[]` clamps negative counts to zero.
        let mut p = ProgramBuilder::new("t");
        let mut f = p.function("main");
        let pool = f.local("pool", Ty::CharArray(Some(16)));
        let n = f.local("n", Ty::Int);
        let buf = f.local("buf", Ty::Ptr);
        f.read_input(n);
        f.if_start(Expr::Var(n), CmpOp::Ge, Expr::Const(0));
        f.ret();
        f.end_if();
        f.placement_new_array(buf, Expr::addr_of(pool), 9, Expr::Var(n));
        f.finish();
        let r = Analyzer::new().analyze(&p.build());
        assert!(r.of_kind(FindingKind::OversizedPlacement).is_empty(), "{r}");
        assert!(!r.detected_at(Severity::Warning), "negative count laundered: {r}");
    }

    #[test]
    fn loop_exit_test_bounds_the_clamped_count() {
        // The only bound on `n` at the placement is that the clamp
        // loop's test has *failed* — exit-state refinement must apply it.
        assert_guard_suppresses("clamp loop", false, |f, n| {
            f.while_start(Expr::Var(n), CmpOp::Gt, Expr::Const(8));
            f.assign(n, Expr::sub(Expr::Var(n), Expr::Const(1)));
            f.end_while();
        });
    }

    #[test]
    fn subtraction_derived_length_stays_bounded() {
        // `len = n - 3` under 3 ≤ n ≤ 11 is in [0, 8]: interval Sub must
        // carry the two-sided guard through the arithmetic.
        let mut p = ProgramBuilder::new("t");
        let mut f = p.function("main");
        let pool = f.local("pool", Ty::CharArray(Some(72)));
        let n = f.local("n", Ty::Int);
        let len = f.local("len", Ty::Int);
        let buf = f.local("buf", Ty::Ptr);
        f.read_input(n);
        f.if_start(Expr::Var(n), CmpOp::Gt, Expr::Const(11));
        f.ret();
        f.end_if();
        f.if_start(Expr::Var(n), CmpOp::Lt, Expr::Const(3));
        f.ret();
        f.end_if();
        f.assign(len, Expr::sub(Expr::Var(n), Expr::Const(3)));
        f.placement_new_array(buf, Expr::addr_of(pool), 9, Expr::Var(len));
        f.finish();
        let r = Analyzer::new().analyze(&p.build());
        assert!(!r.detected_at(Severity::Warning), "interval Sub lost the bound: {r}");
    }

    #[test]
    fn loose_guard_reports_the_concrete_worst_case_width() {
        // n ≤ 16 admits 16·9 = 144 bytes into a 72-byte pool: the finding
        // must be an Error carrying the exact 72-byte worst-case width.
        let mut p = ProgramBuilder::new("t");
        let mut f = p.function("main");
        let pool = f.local("pool", Ty::CharArray(Some(72)));
        let n = f.local("n", Ty::Int);
        let buf = f.local("buf", Ty::Ptr);
        f.read_input(n);
        f.if_start(Expr::Var(n), CmpOp::Gt, Expr::Const(16));
        f.ret();
        f.end_if();
        f.placement_new_array(buf, Expr::addr_of(pool), 9, Expr::Var(n));
        f.finish();
        let r = Analyzer::new().analyze(&p.build());
        let found = r.of_kind(FindingKind::TaintedPlacementSize);
        assert_eq!(found.len(), 1, "{r}");
        assert_eq!(found[0].severity, Severity::Error);
        assert_eq!(found[0].width, Some(72));
        assert!(found[0].message.contains("144-byte worst case"), "{}", found[0].message);
        assert!(
            found[0].message.contains("overflowing the arena by 72 bytes"),
            "{}",
            found[0].message
        );
    }

    #[test]
    fn lower_bound_alone_proves_the_overflow() {
        // n ≥ 20 means *every* execution places at least 180 bytes into
        // 72: proven Error even though the upper bound is infinite (so
        // no finite worst-case width exists).
        let mut p = ProgramBuilder::new("t");
        let mut f = p.function("main");
        let pool = f.local("pool", Ty::CharArray(Some(72)));
        let n = f.local("n", Ty::Int);
        let buf = f.local("buf", Ty::Ptr);
        f.read_input(n);
        f.if_start(Expr::Var(n), CmpOp::Lt, Expr::Const(20));
        f.ret();
        f.end_if();
        f.placement_new_array(buf, Expr::addr_of(pool), 9, Expr::Var(n));
        f.finish();
        let r = Analyzer::new().analyze(&p.build());
        let found = r.of_kind(FindingKind::OversizedPlacement);
        assert_eq!(found.len(), 1, "{r}");
        assert_eq!(found[0].severity, Severity::Error);
        assert_eq!(found[0].width, None);
        assert!(found[0].message.contains("at least 180"), "{}", found[0].message);
        assert!(found[0].message.contains("or more"), "{}", found[0].message);
    }
}
