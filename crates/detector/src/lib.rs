//! Static-analysis detector for placement-new vulnerabilities.
//!
//! §7 of *"A New Class of Buffer Overflow Attacks"* (Kundu & Bertino,
//! ICDCS 2011) announces "a tool for static analysis of code and for
//! detecting vulnerabilities due to placement new"; §1 claims no existing
//! tool covers the class. This crate builds that tool and the experiment
//! around the claim:
//!
//! * an [`ir`] for C++-like programs (the corpus encodes every listing of
//!   the paper in it), with a fluent [`ProgramBuilder`];
//! * the [`Analyzer`] — constant propagation, region-size inference with
//!   alias tracking, taint analysis, and arena-lifecycle state, reporting
//!   the §3/§4 vulnerability taxonomy as typed [`Finding`]s;
//! * the [`BatchEngine`] — a parallel, cache-aware scanner that runs the
//!   analyzer over whole corpora on scoped worker threads, memoizing
//!   reports behind a content-fingerprint cache while keeping output
//!   ordering deterministic;
//! * the [`BaselineChecker`] — a stand-in for traditional overflow tools
//!   that knows classic copy-overflows but has no concept of placement
//!   new, used to reproduce the paper's coverage-gap claim (E21);
//! * the [`server`] — `pncheckd`, the detector as a persistent service:
//!   one warm [`BatchEngine`] per configuration behind a versioned
//!   newline-delimited JSON protocol over stdio or TCP.
//!
//! # Examples
//!
//! ```
//! use pnew_detector::{Analyzer, BaselineChecker, Expr, ProgramBuilder, Ty};
//!
//! // Listing 4: GradStudent placed at &stud.
//! let mut p = ProgramBuilder::new("listing-4");
//! p.class("Student", 16, None, false);
//! p.class("GradStudent", 32, Some("Student"), false);
//! let mut f = p.function("main");
//! let stud = f.local("stud", Ty::Class("Student".into()));
//! let st = f.local("st", Ty::Ptr);
//! f.placement_new(st, Expr::addr_of(stud), "GradStudent");
//! f.finish();
//! let program = p.build();
//!
//! assert!(Analyzer::new().analyze(&program).detected());
//! assert!(!BaselineChecker::new().analyze(&program).detected()); // the gap
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
pub mod backend;
mod baseline;
pub mod batch;
mod builder;
pub mod cache;
pub mod cliopts;
pub mod clock;
pub mod delta;
pub mod emit;
pub mod eventloop;
pub mod exec;
mod findings;
mod fixer;
pub mod ir;
pub mod oracle;
mod parse;
mod pretty;
pub mod server;
pub mod sim;
mod summary;
pub mod trace;

pub use analysis::{Analyzer, AnalyzerConfig, PartialAnalysis};
pub use backend::{BackendKind, CacheBackend, DirBackend, IndexedBackend};
pub use baseline::BaselineChecker;
pub use batch::{
    BatchEngine, BatchStats, CacheStats, DeltaStats, ShardSpec, SourceOutcome, Tally,
    TrackedOutcome,
};
pub use builder::{FunctionBuilder, ProgramBuilder};
pub use cache::{fingerprint, source_fingerprint, CacheLookup, CachedAnalysis, PersistentCache};
pub use clock::{Clock, SimClock, SystemClock};
pub use delta::{invalidation_cone, ConeStats};
pub use exec::{ExecEvent, ExecEventKind, ExecOutcome, Executor};
pub use findings::{Finding, FindingKind, Report, Severity};
pub use fixer::{AppliedFix, Fixer};
pub use ir::{
    ClassInfo, CmpOp, Cond, Expr, Function, Op, Program, Scope, Site, Span, Stmt, Symbol,
    SymbolTable, Ty, VarId,
};
pub use oracle::{DifferentialReport, Matrix, Oracle, SiteVerdict, Verdict};
pub use parse::{parse_program, parse_program_recovering, ParseError, MAX_ERRORS};
pub use pretty::pretty as pretty_program;
pub use summary::{FunctionSummaryRecord, StoredSummary, SummaryDep, SummaryStore};
