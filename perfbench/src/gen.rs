//! Seeded inputs: on-disk `.pnx` trees built from the corpus
//! generators, the text edits `edit_loop` applies to them, and the
//! known answers the correctness checks compare against.
//!
//! Every generated program embeds its generator seed in its name, and
//! every sub-seed is an injective function of (workload seed, counter),
//! so no two generated leaf texts are ever equal within a run.

use std::fs;
use std::path::Path;

use pnew_corpus::workload;
use pnew_detector::{pretty_program, Report, Severity};

/// What the generator that produced a file guarantees about its verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// `random_vulnerable_program`, or a fan-in chain ending in a
    /// tainted placement: some finding at Warning or above.
    Vulnerable,
    /// `random_safe_program`, or a fan-in chain ending in a bounded
    /// placement: every finding below Warning.
    Safe,
    /// No generator-level promise (guarded, hub, wide).
    Any,
}

impl Expect {
    /// Whether `report` agrees with the promise.
    pub fn holds(self, report: &Report) -> bool {
        let flagged = report.findings.iter().any(|f| f.severity >= Severity::Warning);
        match self {
            Expect::Vulnerable => flagged,
            Expect::Safe => !flagged,
            Expect::Any => true,
        }
    }
}

/// One generated file: its path relative to the tree root, its text and
/// its known answer.
pub struct GenFile {
    pub rel: String,
    pub text: String,
    pub expect: Expect,
}

/// A leaf-program source, vulnerable or safe as asked, seeded (and
/// named) by `sub`. Callers alternate the two kinds, so every seed gets
/// the same mix.
pub fn leaf(vulnerable: bool, sub: u64) -> (String, Expect) {
    if vulnerable {
        (pretty_program(&workload::random_vulnerable_program(sub)), Expect::Vulnerable)
    } else {
        (pretty_program(&workload::random_safe_program(sub)), Expect::Safe)
    }
}

/// A fan-in program whose chain ends in a tainted placement
/// (`vulnerable`) or a bounded one. The generator decides by the parity
/// of a seed it draws, so this draws from successive sub-seeds of
/// `next` until the parity matches.
pub fn fan_in(vulnerable: bool, next: &mut u64) -> (String, Expect) {
    loop {
        let program = workload::fan_in_call_corpus(*next, 1).remove(0);
        *next += 1;
        let odd = program.name.bytes().last().is_some_and(|b| (b - b'0') % 2 == 1);
        if odd == vulnerable {
            let expect = if vulnerable { Expect::Vulnerable } else { Expect::Safe };
            return (pretty_program(&program), expect);
        }
    }
}

/// Distinct sub-seed number `n` of workload seed `seed`. Leaf programs
/// use `n` below `FAN_IN_SUBS`, fan-in draws start there.
pub fn sub_seed(seed: u64, n: u64) -> u64 {
    debug_assert!(n < 1 << 24);
    (seed << 24) ^ n
}

/// First sub-seed number of fan-in draws.
pub const FAN_IN_SUBS: u64 = 1 << 23;

/// File counts of one generated tree, by generator.
pub struct Mix {
    pub leaf: usize,
    pub guarded: usize,
    pub fan_in: usize,
    pub hub: usize,
    pub wide: usize,
}

/// Generates a tree of `mix` files. Leaf files use sub-seeds
/// `0..mix.leaf`; callers generating more leaves later continue from
/// `mix.leaf`.
pub fn tree(seed: u64, mix: &Mix) -> Vec<GenFile> {
    let mut files = Vec::new();
    for i in 0..mix.leaf {
        let (text, expect) = leaf(i % 2 == 0, sub_seed(seed, i as u64));
        files.push(GenFile { rel: format!("leaf/{i:04}.pnx"), text, expect });
    }
    for (i, case) in workload::guarded_corpus(seed, mix.guarded).into_iter().enumerate() {
        let text = pretty_program(&case.program);
        files.push(GenFile { rel: format!("guarded/{i:04}.pnx"), text, expect: Expect::Any });
    }
    let mut next = sub_seed(seed, FAN_IN_SUBS);
    for i in 0..mix.fan_in {
        let (text, expect) = fan_in(i % 2 == 1, &mut next);
        files.push(GenFile { rel: format!("fanin/{i:04}.pnx"), text, expect });
    }
    let knob = 10 + (seed % 90) as i64;
    for (i, p) in workload::hub_corpus(seed, mix.hub, knob).iter().enumerate() {
        let text = pretty_program(p);
        files.push(GenFile { rel: format!("hub/{i:04}.pnx"), text, expect: Expect::Any });
    }
    for i in 0..mix.wide {
        let p = workload::wide_function_program(seed.wrapping_add(i as u64), 300, knob);
        let text = pretty_program(&p);
        files.push(GenFile { rel: format!("wide/{i:04}.pnx"), text, expect: Expect::Any });
    }
    files
}

/// Writes `files` under `root`, creating directories as needed.
pub fn write_tree(root: &Path, files: &[GenFile]) -> Result<(), String> {
    for f in files {
        let path = root.join(&f.rel);
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        fs::write(&path, &f.text).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(())
}

/// Two-digit (clamp, fit) pairs a generated clamp function can take:
/// clamp in 10..=99, fit in 10..=96 (fits the 96-byte pool).
const KNOB_COMBOS: u32 = 90 * 87;
/// Step through the combos; coprime to `KNOB_COMBOS`, so the first
/// `KNOB_COMBOS - 1` steps from any start never revisit a combo.
const KNOB_STRIDE: u32 = 7;

/// The text edit of one clamp function (`wide_function` in the corpus
/// generator): its loop clamp and placement fit, both two digits, so an
/// edit never moves a byte of any other function.
pub struct KnobEdit {
    /// Combo index the function started at.
    origin: u32,
    /// Edits applied so far.
    edits: u32,
}

impl KnobEdit {
    /// Reads the function's current knobs from `text`.
    pub fn read(text: &str, function: &str) -> Result<KnobEdit, String> {
        let (clamp_at, fit_at) = knob_offsets(text, function)?;
        let digits = |at: usize| -> Result<u32, String> {
            text[at..at + 2].parse::<u32>().map_err(|e| format!("{function}: knob: {e}"))
        };
        let (clamp, fit) = (digits(clamp_at)?, digits(fit_at)?);
        if !(10..=99).contains(&clamp) || !(10..=96).contains(&fit) {
            return Err(format!("{function}: knobs {clamp}/{fit} out of range"));
        }
        Ok(KnobEdit { origin: (clamp - 10) * 87 + (fit - 10), edits: 0 })
    }

    /// The next (clamp, fit) for the function: a combo it has never had
    /// before in this run.
    pub fn next(&mut self) -> Result<(u32, u32), String> {
        self.edits += 1;
        if self.edits >= KNOB_COMBOS {
            return Err("every knob combo used".into());
        }
        let combo = (self.origin + self.edits * KNOB_STRIDE) % KNOB_COMBOS;
        Ok((10 + combo / 87, 10 + combo % 87))
    }
}

/// Rewrites `function`'s knobs in `text` to (clamp, fit).
pub fn apply_knobs(text: &mut String, function: &str, clamp: u32, fit: u32) -> Result<(), String> {
    let (clamp_at, fit_at) = knob_offsets(text, function)?;
    text.replace_range(clamp_at..clamp_at + 2, &clamp.to_string());
    text.replace_range(fit_at..fit_at + 2, &fit.to_string());
    Ok(())
}

/// Byte offsets of `function`'s clamp and fit digits in `text`.
fn knob_offsets(text: &str, function: &str) -> Result<(usize, usize), String> {
    let head = format!("fn {function}() {{");
    let start = text.find(&head).ok_or_else(|| format!("no function {function}"))?;
    let find = |needle: &str| -> Result<usize, String> {
        text[start..]
            .find(needle)
            .map(|at| start + at + needle.len())
            .ok_or_else(|| format!("{function}: no {needle:?}"))
    };
    Ok((find("while (n > ")?, find("array[1; ")?))
}
