//! `tscheck` — the in-repo static-analysis pass run as `cargo run -p xtask -- check`.
//!
//! Since PR 6 the scanner is a real **token-stream analyzer** built on the
//! zero-dependency lexer in [`lexer`]: raw strings, nested block comments,
//! byte literals and lifetimes are lexed correctly, and `#[cfg(test)]`
//! regions are masked by token-level attribute + brace matching instead of
//! line heuristics. Rules match token patterns, so string and comment
//! contents can never fire (or suppress) a finding.
//!
//! Rule families, all default-on for the scoped crates:
//!
//! 1. **Panic-freedom** (`panic`): forbids `.unwrap()`, `.expect(`,
//!    `panic!`, `unreachable!`, `todo!`, `unimplemented!` in non-test
//!    library code. Failures surface as typed `Result` errors so a
//!    malformed series can never abort a long AutoML run.
//! 2. **NaN-safe ordering** (`nan`): forbids `partial_cmp` and raw
//!    `max`/`min` on SMAPE/MAPE metric values, where a silent NaN would
//!    corrupt T-Daub's ranking. Use `total_cmp`.
//! 3. **Indexing** (`index`): slice indexing through an unchecked
//!    `as usize` cast.
//! 4. **Lint hygiene** (`docs`): crate roots carry `#![warn(missing_docs)]`
//!    and `#![deny(unsafe_code)]`.
//! 5. **Hermeticity** (`deps`): every manifest dependency is an
//!    in-workspace `path` dependency (or is in [`ALLOWED_EXTERNAL`]).
//! 6. **Lock discipline** (`raw-lock`, `lock-order`, `lock-across-par`):
//!    all lock construction goes through `linalg::sync`'s ordered wrappers;
//!    guard scopes are extracted from the token stream ([`locks`]), nested
//!    acquisitions build a workspace-wide lock-order graph whose cycles are
//!    flagged ([`check_locks`]), and no guard may be held across a
//!    `parallel_*`/`supervised_try_map`/`spawn`/`scope`/`join` call.
//! 7. **Determinism** (`hash-iter`, `wall-clock`, `trunc-cast`): iteration
//!    over `HashMap`/`HashSet` in ranking/report paths
//!    ([`Config::hash_iter_paths`]), `Instant::now`/`SystemTime::now`
//!    outside the budget/watchdog whitelist ([`Config::clock_paths`]), and
//!    truncating casts on length-like values are all flagged — these are
//!    exactly the bug classes that silently break the serial==parallel
//!    equivalence T-Daub's ranking guarantees.
//! 8. **Thread discipline** (`raw-spawn`): `thread::spawn`, `thread::scope`
//!    and `thread::Builder` are forbidden outside the persistent worker
//!    pool in [`Config::spawn_exempt_paths`] (`crates/linalg/src/par.rs`).
//!    Every fan-out must go through the pool so worker threads stay
//!    accounted, panic-quarantined, and visible to deadline supervision.
//!
//! A violation can be waived in place with an escape hatch comment on the
//! same line or the line above, **with a justification**:
//!
//! ```text
//! // tscheck:allow(panic): index bounded by the loop above
//! ```
//!
//! An allow without a justification is itself a violation (`allow`).
//!
//! The opt-in **strict** family (`check --strict`) holds the hot-path files
//! in [`Config::strict_paths`] to tighter standards: no slice indexing at
//! all (`strict-index`), no re-raised worker panics (`propagate`), and no
//! unchecked `*`/`+` sizing arithmetic inside allocation or capacity
//! expressions (`alloc-arith`).

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod lexer;
pub mod locks;

use std::collections::{HashMap, HashSet};
use std::fmt;

use lexer::{FileTokens, TokKind};

/// External crates a manifest may depend on. Empty: the build is fully
/// hermetic today. Extend this list (with a PR-reviewed justification) if a
/// dependency ever becomes unavoidable.
pub const ALLOWED_EXTERNAL: &[&str] = &[];

/// Which rule family a violation belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// Panic-freedom: `unwrap`/`expect`/`panic!`/`unreachable!`/`todo!`.
    Panic,
    /// NaN-safe ordering: `partial_cmp`, raw metric `max`/`min`.
    NanOrdering,
    /// Slice indexing through an unchecked `as usize` cast.
    Indexing,
    /// Crate-root lint hygiene (`missing_docs` + `deny(unsafe_code)`).
    Hygiene,
    /// Non-path dependency outside the allowlist.
    Hermeticity,
    /// `tscheck:allow` escape hatch without a justification.
    BadAllow,
    /// Raw `Mutex::new`/`RwLock::new` outside the `linalg::sync` wrappers.
    RawLock,
    /// A lock-order cycle (or same-class self-nesting) in the workspace
    /// lock-order graph.
    LockOrder,
    /// A lock guard held across a fan-out or join call.
    LockAcrossPar,
    /// Raw `thread::spawn`/`thread::scope`/`thread::Builder` outside the
    /// persistent worker pool module.
    RawSpawn,
    /// Iteration over hash-ordered state in a determinism-critical path.
    HashIter,
    /// Wall-clock read outside the budget/watchdog whitelist.
    WallClock,
    /// Truncating cast on a length-like value.
    TruncCast,
    /// Strict mode: *any* slice/array indexing in a hot-path file.
    StrictIndexing,
    /// Strict mode: re-raising worker panics (`.join().unwrap()`,
    /// `resume_unwind`) instead of routing them into a typed error.
    PanicPropagation,
    /// Strict mode: unchecked `a * b` / `a + b` sizing arithmetic inside an
    /// allocation or capacity expression (`with_capacity`, `reserve`,
    /// `::zeros`, `vec![_; n]`) — overflow panics instead of returning an
    /// error. Use `checked_*`/`saturating_*`.
    AllocArith,
    /// A chaos injection-site literal (`inject("…")` / `chaos_gate("…")`)
    /// that is not in the [`Config::chaos_sites`] registry — typo'd sites
    /// silently never fire, so the gauntlet stops covering them.
    ChaosSite,
}

impl Rule {
    /// Short id used in output and in `tscheck:allow(<id>)` comments.
    pub fn id(self) -> &'static str {
        match self {
            Rule::Panic => "panic",
            Rule::NanOrdering => "nan",
            Rule::Indexing => "index",
            Rule::Hygiene => "docs",
            Rule::Hermeticity => "deps",
            Rule::BadAllow => "allow",
            Rule::RawLock => "raw-lock",
            Rule::LockOrder => "lock-order",
            Rule::LockAcrossPar => "lock-across-par",
            Rule::RawSpawn => "raw-spawn",
            Rule::HashIter => "hash-iter",
            Rule::WallClock => "wall-clock",
            Rule::TruncCast => "trunc-cast",
            Rule::StrictIndexing => "strict-index",
            Rule::PanicPropagation => "propagate",
            Rule::AllocArith => "alloc-arith",
            Rule::ChaosSite => "chaos-site",
        }
    }
}

/// One finding: file, 1-based line, rule family, human message.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Repo-relative path with forward slashes.
    pub file: String,
    /// 1-based line number (0 for whole-file findings).
    pub line: usize,
    /// Rule family that fired.
    pub rule: Rule,
    /// What was found and what to do instead.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{} [{}] {}",
            self.file,
            self.line,
            self.rule.id(),
            self.message
        )
    }
}

/// Scanner configuration: which crates and paths each rule family covers.
#[derive(Debug, Clone)]
pub struct Config {
    /// Crate directory names under `crates/` whose `src/` trees are held to
    /// the panic/NaN/index/lock/determinism rules.
    pub scoped_crates: Vec<String>,
    /// Run the strict rule family ([`Rule::StrictIndexing`],
    /// [`Rule::PanicPropagation`], [`Rule::AllocArith`]) over
    /// [`Config::strict_paths`].
    pub strict: bool,
    /// Repo-relative path prefixes held to the strict rules: the T-Daub
    /// execution engine, the parallel work queue, the windowing kernels,
    /// the stat-model fit recursions, the registries, and the
    /// long-lived forecasting service front end, where an out-of-bounds
    /// index, a re-raised worker panic, or an overflowing capacity
    /// computation would take down a whole AutoML run.
    pub strict_paths: Vec<String>,
    /// Path prefixes allowed to read the wall clock (`Instant::now` /
    /// `SystemTime::now`): the budget/watchdog modules whose *outputs* are
    /// kept out of ranking decisions, and the benchmark harness whose whole
    /// purpose is timing.
    pub clock_paths: Vec<String>,
    /// Determinism-critical path prefixes where iteration over
    /// `HashMap`/`HashSet` is flagged: rankings and reports must never
    /// depend on hash-iteration order.
    pub hash_iter_paths: Vec<String>,
    /// Path prefixes exempt from [`Rule::RawLock`] — the `linalg::sync`
    /// module itself, which wraps the raw primitives.
    pub lock_exempt_paths: Vec<String>,
    /// Path prefixes exempt from [`Rule::RawSpawn`] — the persistent worker
    /// pool in `linalg::par`, the one place allowed to create OS threads.
    pub spawn_exempt_paths: Vec<String>,
    /// The registry of valid chaos injection-site names. Every string
    /// literal passed to `inject(` or `chaos_gate(` in scoped code must be
    /// listed here ([`Rule::ChaosSite`]); registering a site is the same
    /// commitment as naming a lock class — the gauntlet sweeps it.
    pub chaos_sites: Vec<String>,
}

impl Default for Config {
    /// All workspace crates except `xtask` itself are in scope for the
    /// panic/NaN/lock/determinism rules (since PR 6 this includes the leaf
    /// crates `bench`, `sota`, `datasets`, `anomaly` — previously exempt).
    fn default() -> Self {
        Config {
            scoped_crates: [
                "linalg",
                "tsdata",
                "transforms",
                "stat-models",
                "ml-models",
                "neural",
                "lookback",
                "pipelines",
                "tdaub",
                "core",
                "chaos",
                "bench",
                "sota",
                "datasets",
                "anomaly",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect(),
            strict: false,
            strict_paths: vec![
                "crates/tdaub/src/".to_string(),
                "crates/linalg/src/par.rs".to_string(),
                "crates/transforms/src/window.rs".to_string(),
                "crates/stat-models/src/holtwinters.rs".to_string(),
                "crates/stat-models/src/arima.rs".to_string(),
                "crates/stat-models/src/bats.rs".to_string(),
                "crates/stat-models/src/simple.rs".to_string(),
                "crates/stat-models/src/garch.rs".to_string(),
                "crates/stat-models/src/incremental_ar.rs".to_string(),
                "crates/pipelines/src/registry.rs".to_string(),
                "crates/pipelines/src/interval.rs".to_string(),
                "crates/pipelines/src/weighted_ensemble.rs".to_string(),
                "crates/transforms/src/conformal.rs".to_string(),
                "crates/tsdata/src/metrics.rs".to_string(),
                "crates/chaos/src/".to_string(),
                "crates/core/src/service.rs".to_string(),
                "crates/core/src/online.rs".to_string(),
            ],
            clock_paths: vec![
                "crates/linalg/src/par.rs".to_string(),
                "crates/linalg/src/optimize.rs".to_string(),
                "crates/tdaub/src/".to_string(),
                "crates/pipelines/src/stat_pipelines.rs".to_string(),
                "crates/stat-models/src/arima.rs".to_string(),
                "crates/stat-models/src/bats.rs".to_string(),
                "crates/bench/src/".to_string(),
            ],
            hash_iter_paths: vec![
                "crates/tdaub/src/".to_string(),
                "crates/core/src/".to_string(),
                "crates/pipelines/src/".to_string(),
                "crates/linalg/src/par.rs".to_string(),
            ],
            lock_exempt_paths: vec!["crates/linalg/src/sync.rs".to_string()],
            spawn_exempt_paths: vec!["crates/linalg/src/par.rs".to_string()],
            chaos_sites: [
                "service.submit",
                "executor.unit",
                "pipeline.fit",
                "pipeline.predict",
                "predict.interval",
                "quality.assess",
                "lookback.discover",
                "observe.append",
                "drift.update",
                "reselect.swap",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        }
    }
}

impl Config {
    /// Does `path` (repo-relative, `/`-separated) fall under the panic-rule
    /// scope? Test trees, benches and examples are never in scope.
    pub fn is_scoped(&self, path: &str) -> bool {
        if path.contains("/tests/") || path.contains("/benches/") || path.contains("/examples/") {
            return false;
        }
        self.scoped_crates
            .iter()
            .any(|c| path.starts_with(&format!("crates/{c}/src/")))
    }

    /// Does `path` fall under the strict-rule scope? Only meaningful when
    /// [`Config::strict`] is set; test trees are never in scope.
    pub fn is_strict_scoped(&self, path: &str) -> bool {
        self.strict
            && !path.contains("/tests/")
            && !path.contains("/benches/")
            && !path.contains("/examples/")
            && self.strict_paths.iter().any(|p| path.starts_with(p))
    }
}

/// Reserved words that cannot be the base expression of a subscript: an
/// `[` after one of these opens an array literal or type, not an index.
const KEYWORDS: &[&str] = &[
    "as", "async", "await", "box", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub",
    "ref", "return", "static", "struct", "super", "trait", "type", "union", "unsafe", "use",
    "where", "while", "yield",
];

/// Methods whose call iterates a hash container in arbitrary order.
const HASH_ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
];

/// Narrow numeric types a length-like value must not be cast to.
const NARROW_TYPES: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32", "f32"];

/// Length-like zero-argument methods watched by [`Rule::TruncCast`].
const LENGTH_METHODS: &[&str] = &["len", "nrows", "ncols", "n_series", "count"];

/// Look up the waiver state for a violation of `rule` at `line`:
/// * `None` — no escape hatch, the violation stands;
/// * `Some(true)` — waived with a justification;
/// * `Some(false)` — escape hatch present but no justification.
fn allow_state(rule: Rule, line: usize, comments: &HashMap<usize, String>) -> Option<bool> {
    let tag = format!("tscheck:allow({})", rule.id());
    for l in [line, line.saturating_sub(1)] {
        if l == 0 {
            continue;
        }
        if let Some(c) = comments.get(&l) {
            if let Some(pos) = c.find(&tag) {
                let rest = c
                    .get(pos + tag.len()..)
                    .unwrap_or("")
                    .trim_start_matches([':', '-', '—', ' '])
                    .trim();
                // a justification may be cut off by the end of the comment;
                // require a minimum substance either way
                return Some(rest.len() >= 8);
            }
        }
    }
    None
}

/// Apply the waiver protocol to a raw hit list, producing final violations.
fn apply_waivers(
    path: &str,
    hits: Vec<(Rule, usize, String)>,
    comments: &HashMap<usize, String>,
) -> Vec<Violation> {
    let mut out = Vec::new();
    for (rule, line, message) in hits {
        match allow_state(rule, line, comments) {
            Some(true) => {}
            Some(false) => out.push(Violation {
                file: path.to_string(),
                line,
                rule: Rule::BadAllow,
                message: format!(
                    "`tscheck:allow({})` needs a justification after the tag",
                    rule.id()
                ),
            }),
            None => out.push(Violation {
                file: path.to_string(),
                line,
                rule,
                message,
            }),
        }
    }
    out
}

/// Token-pattern scan context over one file's comment-free code tokens.
struct Scan<'a> {
    ft: &'a FileTokens,
}

impl<'a> Scan<'a> {
    fn ident(&self, i: usize) -> Option<&'a str> {
        self.ft
            .code
            .get(i)
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
    }

    fn is_ident(&self, i: usize, name: &str) -> bool {
        self.ident(i) == Some(name)
    }

    fn punct(&self, i: usize, c: char) -> bool {
        self.ft
            .code
            .get(i)
            .is_some_and(|t| t.kind == TokKind::Punct(c))
    }

    /// The string-literal token at `i`, with the surrounding quotes (and
    /// raw/byte sigils) stripped.
    fn str_text(&self, i: usize) -> Option<&'a str> {
        self.ft
            .code
            .get(i)
            .filter(|t| t.kind == TokKind::Str)
            .map(|t| {
                t.text
                    .as_str()
                    .trim_start_matches(['b', 'r', '#'])
                    .trim_end_matches('#')
                    .trim_matches('"')
            })
    }

    fn line(&self, i: usize) -> usize {
        self.ft.code.get(i).map(|t| t.line).unwrap_or(0)
    }

    fn live(&self, i: usize) -> bool {
        !self.ft.in_test.get(i).copied().unwrap_or(false)
    }

    /// Token index of the matching close for the open delimiter at `open`.
    fn matching_close(&self, open: usize, oc: char, cc: char) -> Option<usize> {
        let mut depth = 0i64;
        let mut j = open;
        while let Some(t) = self.ft.code.get(j) {
            if t.kind == TokKind::Punct(oc) {
                depth += 1;
            } else if t.kind == TokKind::Punct(cc) {
                depth -= 1;
                if depth == 0 {
                    return Some(j);
                }
            }
            j += 1;
        }
        None
    }

    /// Do any identifiers on `line` contain a metric name (smape/mape)?
    fn line_mentions_metric(&self, around: usize, line: usize) -> bool {
        let check = |t: &lexer::Tok| {
            t.line == line
                && t.kind == TokKind::Ident
                && (t.text.to_ascii_lowercase().contains("smape")
                    || t.text.to_ascii_lowercase().contains("mape"))
        };
        // scan outward from `around` while still on the same line
        let mut j = around;
        while let Some(t) = self.ft.code.get(j) {
            if t.line != line {
                break;
            }
            if check(t) {
                return true;
            }
            if j == 0 {
                break;
            }
            j -= 1;
        }
        let mut j = around + 1;
        while let Some(t) = self.ft.code.get(j) {
            if t.line != line {
                break;
            }
            if check(t) {
                return true;
            }
            j += 1;
        }
        false
    }

    /// Is a `*` or `+` at token `i` a binary operator (its left neighbor is
    /// a value-ending token)?
    fn is_binary_op(&self, i: usize) -> bool {
        if i == 0 {
            return false;
        }
        self.ft.code.get(i - 1).is_some_and(|t| match t.kind {
            TokKind::Ident | TokKind::Num => true,
            TokKind::Punct(')') | TokKind::Punct(']') => true,
            _ => false,
        })
    }

    /// Unchecked sizing arithmetic in the token range `[start, end)`:
    /// a binary `*`/`+` with no `checked_*`/`saturating_*` call in range.
    fn region_has_unchecked_arith(&self, start: usize, end: usize) -> bool {
        let mut has_op = false;
        for j in start..end {
            if let Some(t) = self.ft.code.get(j) {
                match t.kind {
                    TokKind::Punct('*') | TokKind::Punct('+') => {
                        if self.is_binary_op(j) {
                            has_op = true;
                        }
                    }
                    TokKind::Ident => {
                        if t.text.starts_with("checked_") || t.text.starts_with("saturating_") {
                            return false;
                        }
                    }
                    _ => {}
                }
            }
        }
        has_op
    }
}

/// Names bound to `HashMap`/`HashSet` values in this file's non-test code:
/// `let x: HashMap<…>`, struct fields `x: Mutex<HashSet<…>>`, and
/// `let x = HashMap::new()` all register `x`.
fn hash_bound_names(s: &Scan<'_>) -> HashSet<String> {
    let mut names = HashSet::new();
    for i in 0..s.ft.code.len() {
        if !s.live(i) {
            continue;
        }
        let Some(id) = s.ident(i) else { continue };
        if id != "HashMap" && id != "HashSet" {
            continue;
        }
        // walk back to the statement/field boundary, looking for the
        // nearest single-colon binding `name :` (skipping `::` paths), or
        // a `let [mut] name =` binding.
        let mut k = i;
        let mut bound: Option<String> = None;
        let mut let_at: Option<usize> = None;
        while k > 0 {
            k -= 1;
            let Some(t) = s.ft.code.get(k) else { break };
            match t.kind {
                TokKind::Punct(';')
                | TokKind::Punct('{')
                | TokKind::Punct('}')
                | TokKind::Punct(',')
                | TokKind::Punct('(') => break,
                TokKind::Ident => {
                    if t.text == "let" {
                        let_at = Some(k);
                        break;
                    }
                    if bound.is_none()
                        && s.punct(k + 1, ':')
                        && !s.punct(k + 2, ':')
                        && !(k > 0 && s.punct(k - 1, ':'))
                    {
                        bound = Some(t.text.clone());
                    }
                }
                _ => {}
            }
        }
        if let Some(name) = bound {
            names.insert(name);
            continue;
        }
        if let Some(l) = let_at {
            let mut j = l + 1;
            if s.is_ident(j, "mut") {
                j += 1;
            }
            if let Some(name) = s.ident(j) {
                if s.punct(j + 1, '=') || s.punct(j + 1, ':') {
                    names.insert(name.to_string());
                }
            }
        }
    }
    names
}

/// Scan one lexed file for all token-pattern rule hits (no waivers applied).
fn token_hits(path: &str, ft: &FileTokens, cfg: &Config) -> Vec<(Rule, usize, String)> {
    let scoped = cfg.is_scoped(path);
    let strict = cfg.is_strict_scoped(path);
    if !scoped && !strict {
        return Vec::new();
    }
    let s = Scan { ft };
    let clock_ok = cfg.clock_paths.iter().any(|p| path.starts_with(p));
    let hash_scoped = scoped && cfg.hash_iter_paths.iter().any(|p| path.starts_with(p));
    let lock_exempt = cfg.lock_exempt_paths.iter().any(|p| path.starts_with(p));
    let spawn_exempt = cfg.spawn_exempt_paths.iter().any(|p| path.starts_with(p));
    let hash_names = if hash_scoped {
        hash_bound_names(&s)
    } else {
        HashSet::new()
    };

    let mut hits: Vec<(Rule, usize, String)> = Vec::new();
    let n = ft.code.len();
    for i in 0..n {
        if !s.live(i) {
            continue;
        }
        let line = s.line(i);

        if scoped {
            // panic: `.unwrap()` / `.expect(`
            if s.punct(i, '.') {
                if s.is_ident(i + 1, "unwrap") && s.punct(i + 2, '(') && s.punct(i + 3, ')') {
                    hits.push((
                        Rule::Panic,
                        line,
                        "`.unwrap()` in library code; return a typed error instead".to_string(),
                    ));
                }
                if s.is_ident(i + 1, "expect") && s.punct(i + 2, '(') {
                    hits.push((
                        Rule::Panic,
                        line,
                        "`.expect(` in library code; return a typed error instead".to_string(),
                    ));
                }
            }
            // panic: aborting macros
            if let Some(mac) = s.ident(i) {
                if ["panic", "unreachable", "todo", "unimplemented"].contains(&mac)
                    && s.punct(i + 1, '!')
                {
                    hits.push((
                        Rule::Panic,
                        line,
                        format!("`{mac}!` in library code; return a typed error instead"),
                    ));
                }
            }
            // nan: partial_cmp
            if s.is_ident(i, "partial_cmp") {
                hits.push((
                    Rule::NanOrdering,
                    line,
                    "`partial_cmp` on floats; use `total_cmp` for a NaN-safe total order"
                        .to_string(),
                ));
            }
            // nan: raw max/min on metric values
            if s.punct(i, '.')
                && (s.is_ident(i + 1, "max") || s.is_ident(i + 1, "min"))
                && s.punct(i + 2, '(')
                && s.line_mentions_metric(i, line)
            {
                hits.push((
                    Rule::NanOrdering,
                    line,
                    "raw `max`/`min` on a metric value silently drops NaN; compare explicitly"
                        .to_string(),
                ));
            }
            // index: `… as usize]`
            if s.is_ident(i, "as") && s.is_ident(i + 1, "usize") && s.punct(i + 2, ']') {
                hits.push((
                    Rule::Indexing,
                    line,
                    "slice index through unchecked `as usize` cast; bound-check or use `.get`"
                        .to_string(),
                ));
            }
            // raw-lock: Mutex::new / RwLock::new outside the sync module
            if !lock_exempt {
                if let Some(id) = s.ident(i) {
                    if (id == "Mutex" || id == "RwLock")
                        && s.punct(i + 1, ':')
                        && s.punct(i + 2, ':')
                        && s.is_ident(i + 3, "new")
                    {
                        hits.push((
                            Rule::RawLock,
                            line,
                            format!(
                                "raw `{id}::new`; construct locks through \
                                 `linalg::sync::OrderedMutex`/`OrderedRwLock` so they \
                                 participate in lock-order tracking"
                            ),
                        ));
                    }
                }
            }
            // raw-spawn: thread::spawn / thread::scope / thread::Builder
            // outside the persistent worker pool module
            if !spawn_exempt
                && s.is_ident(i, "thread")
                && s.punct(i + 1, ':')
                && s.punct(i + 2, ':')
            {
                if let Some(what) = s
                    .ident(i + 3)
                    .filter(|id| ["spawn", "scope", "Builder"].contains(id))
                {
                    hits.push((
                        Rule::RawSpawn,
                        line,
                        format!(
                            "raw `thread::{what}` outside the persistent worker pool; fan out \
                             through `linalg::par` so threads stay accounted, \
                             panic-quarantined, and visible to deadline supervision"
                        ),
                    ));
                }
            }
            // wall-clock: Instant::now / SystemTime::now outside whitelist
            if !clock_ok {
                if let Some(id) = s.ident(i) {
                    if (id == "Instant" || id == "SystemTime")
                        && s.punct(i + 1, ':')
                        && s.punct(i + 2, ':')
                        && s.is_ident(i + 3, "now")
                    {
                        hits.push((
                            Rule::WallClock,
                            line,
                            format!(
                                "`{id}::now` outside the budget/watchdog whitelist; wall-clock \
                                 reads in ranking paths break serial==parallel reproducibility"
                            ),
                        ));
                    }
                }
            }
            // trunc-cast: `.len() as u32`-style narrowing on lengths
            if s.punct(i, '.')
                && s.ident(i + 1).is_some_and(|m| LENGTH_METHODS.contains(&m))
                && s.punct(i + 2, '(')
                && s.punct(i + 3, ')')
                && s.is_ident(i + 4, "as")
                && s.ident(i + 5).is_some_and(|t| NARROW_TYPES.contains(&t))
            {
                hits.push((
                    Rule::TruncCast,
                    line,
                    format!(
                        "truncating cast `{}() as {}` on a length-like value; use `u64`/`usize` \
                         or `try_from`",
                        s.ident(i + 1).unwrap_or(""),
                        s.ident(i + 5).unwrap_or("")
                    ),
                ));
            }
            // chaos-site: injection-site literals must come from the
            // registry — a typo'd site never fires and the gauntlet
            // silently loses coverage
            if (s.is_ident(i, "inject") || s.is_ident(i, "chaos_gate")) && s.punct(i + 1, '(') {
                if let Some(site) = s.str_text(i + 2) {
                    if !cfg.chaos_sites.iter().any(|k| k == site) {
                        hits.push((
                            Rule::ChaosSite,
                            line,
                            format!(
                                "chaos site `{site}` is not in the registry; add it to \
                                 `Config::chaos_sites` (and the gauntlet) or fix the typo"
                            ),
                        ));
                    }
                }
            }
            // hash-iter: iteration over hash-ordered bindings
            if hash_scoped {
                if let Some(id) = s.ident(i) {
                    if hash_names.contains(id) {
                        let method_iter = s.punct(i + 1, '.')
                            && s.ident(i + 2)
                                .is_some_and(|m| HASH_ITER_METHODS.contains(&m))
                            && s.punct(i + 3, '(');
                        // `for x in name {` / `for x in &name {`
                        let mut k = i;
                        while k > 0
                            && (s.punct(k - 1, '&')
                                || s.is_ident(k - 1, "mut")
                                || s.punct(k - 1, '.'))
                        {
                            k -= 1;
                        }
                        let for_iter = k > 0 && s.is_ident(k - 1, "in") && s.punct(i + 1, '{');
                        if method_iter || for_iter {
                            hits.push((
                                Rule::HashIter,
                                line,
                                format!(
                                    "iteration over hash-ordered `{id}` in a \
                                     determinism-critical path; sort keys first or use an \
                                     ordered container"
                                ),
                            ));
                        }
                    }
                }
            }
        }

        if strict {
            // strict-index: any subscript `[` after a value-ending token
            if s.punct(i, '[') && i > 0 {
                let prev_ok = s.ft.code.get(i - 1).is_some_and(|t| match t.kind {
                    TokKind::Ident => !KEYWORDS.contains(&t.text.as_str()),
                    TokKind::Punct(')') | TokKind::Punct(']') => true,
                    _ => false,
                });
                if prev_ok {
                    hits.push((
                        Rule::StrictIndexing,
                        line,
                        "slice indexing in a hot-path file; use `.get`/`.get_mut` or an iterator"
                            .to_string(),
                    ));
                }
            }
            // propagate: `.join().unwrap(` / `.join().expect(` / resume_unwind
            if s.punct(i, '.')
                && s.is_ident(i + 1, "join")
                && s.punct(i + 2, '(')
                && s.punct(i + 3, ')')
                && s.punct(i + 4, '.')
                && (s.is_ident(i + 5, "unwrap") || s.is_ident(i + 5, "expect"))
                && s.punct(i + 6, '(')
            {
                hits.push((
                    Rule::PanicPropagation,
                    line,
                    "`.join().unwrap()` re-raises a worker panic; route it into the typed \
                     `WorkerPanic` error path instead"
                        .to_string(),
                ));
            }
            if s.is_ident(i, "resume_unwind") {
                hits.push((
                    Rule::PanicPropagation,
                    line,
                    "`resume_unwind` re-raises a worker panic; route it into the typed \
                     `WorkerPanic` error path instead"
                        .to_string(),
                ));
            }
            // alloc-arith markers
            if s.is_ident(i, "with_capacity") && s.punct(i + 1, '(') {
                if let Some(close) = s.matching_close(i + 1, '(', ')') {
                    if s.region_has_unchecked_arith(i + 2, close) {
                        hits.push((
                            Rule::AllocArith,
                            line,
                            "unchecked sizing arithmetic in `with_capacity(..)`; use \
                             `checked_mul`/`checked_add` or `saturating_*`"
                                .to_string(),
                        ));
                    }
                }
            }
            if s.punct(i, '.') && s.is_ident(i + 1, "reserve") && s.punct(i + 2, '(') {
                if let Some(close) = s.matching_close(i + 2, '(', ')') {
                    if s.region_has_unchecked_arith(i + 3, close) {
                        hits.push((
                            Rule::AllocArith,
                            line,
                            "unchecked sizing arithmetic in `.reserve(..)`; use \
                             `checked_mul`/`checked_add` or `saturating_*`"
                                .to_string(),
                        ));
                    }
                }
            }
            if s.is_ident(i, "zeros")
                && i >= 2
                && s.punct(i - 1, ':')
                && s.punct(i - 2, ':')
                && s.punct(i + 1, '(')
            {
                if let Some(close) = s.matching_close(i + 1, '(', ')') {
                    if s.region_has_unchecked_arith(i + 2, close) {
                        hits.push((
                            Rule::AllocArith,
                            line,
                            "unchecked sizing arithmetic in `::zeros(..)`; use \
                             `checked_mul`/`checked_add` or `saturating_*`"
                                .to_string(),
                        ));
                    }
                }
            }
            // vec![elem; len]: only the length expression allocates
            if s.is_ident(i, "vec") && s.punct(i + 1, '!') && s.punct(i + 2, '[') {
                if let Some(close) = s.matching_close(i + 2, '[', ']') {
                    // last top-level `;` inside the macro
                    let mut depth = 0i64;
                    let mut semi: Option<usize> = None;
                    for j in i + 3..close {
                        match s.ft.code.get(j).map(|t| t.kind) {
                            Some(TokKind::Punct('(')) | Some(TokKind::Punct('[')) => depth += 1,
                            Some(TokKind::Punct(')')) | Some(TokKind::Punct(']')) => depth -= 1,
                            Some(TokKind::Punct(';')) if depth == 0 => semi = Some(j),
                            _ => {}
                        }
                    }
                    if let Some(sp) = semi {
                        if s.region_has_unchecked_arith(sp + 1, close) {
                            hits.push((
                                Rule::AllocArith,
                                line,
                                "unchecked sizing arithmetic in `vec![_; ..]`; use \
                                 `checked_mul`/`checked_add` or `saturating_*`"
                                    .to_string(),
                            ));
                        }
                    }
                }
            }
        }
    }

    // lock discipline: per-file findings (self-nesting + guard-across-par)
    if scoped {
        let (edges, crossings) = locks::lock_facts(path, ft);
        for e in &edges {
            if e.from == e.to {
                hits.push((
                    Rule::LockOrder,
                    e.line,
                    format!(
                        "lock class `{}` acquired while a guard of the same class is held; \
                         same-class nesting deadlocks on a single instance",
                        e.from
                    ),
                ));
            }
        }
        for c in &crossings {
            hits.push((
                Rule::LockAcrossPar,
                c.line,
                format!(
                    "guard `{}` held across `{}`; release locks before fanning out or \
                     joining workers",
                    c.guard, c.call
                ),
            ));
        }
    }

    hits
}

/// Scan one source file. `path` is the repo-relative path (forward slashes)
/// used both for scoping and in reported violations; `src` is the file
/// contents. Pure function of its inputs so tests can seed violations
/// without touching the filesystem. Cross-file lock-order cycles are the
/// one analysis this per-file entry point cannot see — use [`check_locks`]
/// (or [`check_workspace`]) for those.
pub fn check_source(path: &str, src: &str, cfg: &Config) -> Vec<Violation> {
    let mut out = Vec::new();

    // crate-root lint hygiene applies to every crate root
    if path.ends_with("src/lib.rs") {
        for attr in ["#![warn(missing_docs)]", "#![deny(unsafe_code)]"] {
            if !src.contains(attr) {
                out.push(Violation {
                    file: path.to_string(),
                    line: 1,
                    rule: Rule::Hygiene,
                    message: format!("crate root is missing `{attr}`"),
                });
            }
        }
    }

    if !cfg.is_scoped(path) && !cfg.is_strict_scoped(path) {
        return out;
    }

    let ft = lexer::analyze_file(src);
    let hits = token_hits(path, &ft, cfg);
    out.extend(apply_waivers(path, hits, &ft.comments));
    out
}

/// Is `to` reachable from `from` over the directed edge list?
fn reachable(edges: &[locks::LockEdge], from: &str, to: &str) -> bool {
    let mut stack: Vec<&str> = vec![from];
    let mut seen: Vec<&str> = Vec::new();
    while let Some(node) = stack.pop() {
        if node == to {
            return true;
        }
        if seen.contains(&node) {
            continue;
        }
        seen.push(node);
        for e in edges {
            if e.from == node {
                stack.push(&e.to);
            }
        }
    }
    false
}

/// Cross-file lock-order analysis: collect every nested-acquisition edge
/// from the scoped files, then flag each edge that closes a cycle in the
/// workspace-wide lock-order graph. Reported deterministically (edges are
/// sorted by file/line before checking) and waivable like any other rule.
pub fn check_locks(files: &[(String, String)], cfg: &Config) -> Vec<Violation> {
    let mut edges: Vec<locks::LockEdge> = Vec::new();
    let mut comments: HashMap<String, HashMap<usize, String>> = HashMap::new();
    for (path, src) in files {
        if !cfg.is_scoped(path) {
            continue;
        }
        let ft = lexer::analyze_file(src);
        let (e, _) = locks::lock_facts(path, &ft);
        // self-edges are reported by check_source; cycles need distinct ends
        edges.extend(e.into_iter().filter(|e| e.from != e.to));
        comments.insert(path.clone(), ft.comments);
    }
    edges.sort_by(|a, b| (&a.file, a.line, &a.from, &a.to).cmp(&(&b.file, b.line, &b.from, &b.to)));
    edges.dedup_by(|a, b| a.file == b.file && a.line == b.line && a.from == b.from && a.to == b.to);

    let empty = HashMap::new();
    let mut out: Vec<Violation> = Vec::new();
    for e in &edges {
        if reachable(&edges, &e.to, &e.from) {
            let file_comments = comments.get(&e.file).unwrap_or(&empty);
            let hit = vec![(
                Rule::LockOrder,
                e.line,
                format!(
                    "acquiring `{}` while holding `{}` closes a lock-order cycle (the \
                     reverse nesting is recorded elsewhere in the workspace)",
                    e.to, e.from
                ),
            )];
            out.extend(apply_waivers(&e.file, hit, file_comments));
        }
    }
    out.dedup_by(|a, b| a.file == b.file && a.line == b.line && a.message == b.message);
    out
}

/// Run the full analysis over in-memory workspace contents: per-file rules
/// on every source, the cross-file lock-order graph, and manifest
/// hermeticity. Results are sorted by (file, line).
pub fn check_workspace(
    sources: &[(String, String)],
    manifests: &[(String, String)],
    cfg: &Config,
) -> Vec<Violation> {
    let mut out: Vec<Violation> = Vec::new();
    for (path, src) in sources {
        out.extend(check_source(path, src, cfg));
    }
    out.extend(check_locks(sources, cfg));
    for (path, src) in manifests {
        out.extend(check_manifest(path, src, ALLOWED_EXTERNAL));
    }
    out.sort_by(|a, b| a.file.cmp(&b.file).then(a.line.cmp(&b.line)));
    out
}

/// Scan one `Cargo.toml`. Every dependency in any `*dependencies*` table
/// must be a `path` dependency, a `workspace = true` reference, or appear
/// in `allowlist`.
pub fn check_manifest(path: &str, src: &str, allowlist: &[&str]) -> Vec<Violation> {
    let mut out = Vec::new();
    // state: (a) inside a dependency *list* section; (b) inside a single
    // dependency *table* section like `[dependencies.foo]`
    let mut in_dep_list = false;
    let mut dep_table: Option<(String, usize, bool)> = None; // (name, line, saw path/workspace)

    let is_dep_list = |s: &str| {
        s == "dependencies"
            || s == "dev-dependencies"
            || s == "build-dependencies"
            || s == "workspace.dependencies"
            || s.ends_with(".dependencies")
            || s.ends_with(".dev-dependencies")
            || s.ends_with(".build-dependencies")
    };

    let flush_table = |out: &mut Vec<Violation>, tbl: &mut Option<(String, usize, bool)>| {
        if let Some((name, line, ok)) = tbl.take() {
            if !ok && !allowlist.contains(&name.as_str()) {
                out.push(Violation {
                    file: path.to_string(),
                    line,
                    rule: Rule::Hermeticity,
                    message: format!("dependency `{name}` is not an in-workspace path dependency"),
                });
            }
        }
    };

    for (idx, raw) in src.lines().enumerate() {
        let line = raw.trim();
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        if line.starts_with('[') {
            flush_table(&mut out, &mut dep_table);
            let section = line.trim_matches(['[', ']']).trim();
            in_dep_list = false;
            if let Some((list, name)) = section.rsplit_once('.') {
                if is_dep_list(list) {
                    dep_table = Some((name.to_string(), idx + 1, false));
                    continue;
                }
            }
            in_dep_list = is_dep_list(section);
            continue;
        }
        if let Some((_, _, ok)) = dep_table.as_mut() {
            let key = line.split('=').next().map(str::trim).unwrap_or("");
            if key == "path" || key == "workspace" {
                *ok = true;
            }
            continue;
        }
        if in_dep_list {
            let Some((key, value)) = line.split_once('=') else {
                continue;
            };
            let key = key.trim();
            let value = value.trim();
            let base = key.split('.').next().unwrap_or(key).to_string();
            let ok = key.ends_with(".workspace")
                || value.contains("path =")
                || value.contains("path=")
                || value.contains("workspace = true")
                || value.contains("workspace=true");
            if !ok && !allowlist.contains(&base.as_str()) {
                out.push(Violation {
                    file: path.to_string(),
                    line: idx + 1,
                    rule: Rule::Hermeticity,
                    message: format!(
                        "dependency `{base}` is not an in-workspace path dependency \
                         (hermetic builds allow only `path` deps; see xtask::ALLOWED_EXTERNAL)"
                    ),
                });
            }
        }
    }
    flush_table(&mut out, &mut dep_table);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> Config {
        Config::default()
    }

    fn scoped(src: &str) -> Vec<Violation> {
        check_source("crates/linalg/src/fake.rs", src, &cfg())
    }

    #[test]
    fn unwrap_in_scoped_code_is_flagged() {
        let v = scoped("fn f() {\n    let x = y.unwrap();\n}\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::Panic);
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn expect_and_panic_macros_are_flagged() {
        let v = scoped("fn f() {\n    a.expect(\"boom\");\n    panic!(\"no\");\n    unreachable!();\n    todo!();\n}\n");
        assert_eq!(v.len(), 4);
        assert!(v.iter().all(|x| x.rule == Rule::Panic));
    }

    #[test]
    fn unwrap_or_variants_are_not_flagged() {
        let v = scoped("fn f() {\n    let x = y.unwrap_or(0);\n    let z = y.unwrap_or_else(|| 1);\n    let w = y.unwrap_or_default();\n}\n");
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn cfg_test_region_is_skipped() {
        let src = "fn f() -> i32 { 1 }\n\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        x.unwrap();\n        panic!(\"fine in tests\");\n    }\n}\n";
        assert!(scoped(src).is_empty());
    }

    #[test]
    fn code_after_cfg_test_region_is_scanned_again() {
        let src =
            "#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\n\nfn g() { y.unwrap(); }\n";
        let v = scoped(src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 6);
    }

    #[test]
    fn comments_and_strings_do_not_fire() {
        let src = "fn f() {\n    // calling unwrap() here would panic!\n    /* block: .unwrap() */\n    let s = \"don't .unwrap() or panic! me\";\n}\n";
        assert!(scoped(src).is_empty());
    }

    #[test]
    fn raw_strings_and_nested_comments_do_not_fire() {
        let src = "fn f() {\n    let s = r#\"panic! .unwrap() \"quoted\" inside\"#;\n    /* outer /* nested .expect( */ still comment */\n    let t = s;\n}\n";
        assert!(scoped(src).is_empty(), "{:?}", scoped(src));
    }

    #[test]
    fn doc_comment_examples_do_not_fire() {
        let src = "/// ```\n/// let v = f().unwrap();\n/// ```\nfn f() -> Option<i32> { None }\n";
        assert!(scoped(src).is_empty());
    }

    #[test]
    fn allow_with_justification_waives() {
        let src = "fn f() {\n    // tscheck:allow(panic): index bounded by the check above\n    let x = v.unwrap();\n}\n";
        assert!(scoped(src).is_empty());
        let same_line =
            "fn f() {\n    let x = v.unwrap(); // tscheck:allow(panic): bounded above\n}\n";
        assert!(scoped(same_line).is_empty());
    }

    #[test]
    fn allow_without_justification_is_a_violation() {
        let src = "fn f() {\n    let x = v.unwrap(); // tscheck:allow(panic)\n}\n";
        let v = scoped(src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::BadAllow);
    }

    #[test]
    fn allow_inside_a_string_does_not_waive() {
        let src =
            "fn f() {\n    let s = \"tscheck:allow(panic): not a comment\"; let x = v.unwrap();\n}\n";
        let v = scoped(src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::Panic);
    }

    #[test]
    fn partial_cmp_is_flagged_total_cmp_is_not() {
        let bad = scoped("fn f() {\n    v.sort_by(|a, b| a.partial_cmp(b).unwrap());\n}\n");
        assert!(bad.iter().any(|x| x.rule == Rule::NanOrdering));
        assert!(bad.iter().any(|x| x.rule == Rule::Panic));
        let good = scoped("fn f() {\n    v.sort_by(|a, b| a.total_cmp(b));\n}\n");
        assert!(good.is_empty());
    }

    #[test]
    fn metric_max_min_is_flagged() {
        let v = scoped("fn f() {\n    best_smape = best_smape.min(smape);\n}\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::NanOrdering);
        // max/min on non-metric values is fine
        assert!(scoped("fn f() {\n    let n = a.max(b);\n}\n").is_empty());
    }

    #[test]
    fn cast_indexing_is_flagged() {
        let v = scoped("fn f() {\n    let x = data[i as usize];\n}\n");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, Rule::Indexing);
    }

    #[test]
    fn leaf_crates_are_now_scoped_and_xtask_is_not() {
        for file in [
            "crates/bench/src/fake.rs",
            "crates/sota/src/fake.rs",
            "crates/datasets/src/fake.rs",
            "crates/anomaly/src/fake.rs",
        ] {
            let v = check_source(file, "fn f() { x.unwrap(); }\n", &cfg());
            assert_eq!(v.len(), 1, "{file} should be scoped");
        }
        let v = check_source(
            "crates/xtask/src/fake.rs",
            "fn f() { x.unwrap(); }\n",
            &cfg(),
        );
        assert!(v.is_empty());
        let t = check_source(
            "crates/linalg/tests/itest.rs",
            "fn f() { x.unwrap(); }\n",
            &cfg(),
        );
        assert!(t.is_empty());
    }

    #[test]
    fn crate_root_hygiene() {
        let v = check_source("crates/bench/src/lib.rs", "//! docs\n", &cfg());
        assert_eq!(v.len(), 2);
        assert!(v.iter().all(|x| x.rule == Rule::Hygiene));
        let ok = check_source(
            "crates/bench/src/lib.rs",
            "//! docs\n#![warn(missing_docs)]\n#![deny(unsafe_code)]\n",
            &cfg(),
        );
        assert!(ok.is_empty());
    }

    #[test]
    fn raw_lock_construction_is_flagged_outside_sync_module() {
        let v = scoped(
            "fn f() {\n    let m = Mutex::new(0);\n    let r = std::sync::RwLock::new(1);\n}\n",
        );
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().all(|x| x.rule == Rule::RawLock));
        // the sync module itself is exempt
        let sync = check_source(
            "crates/linalg/src/sync.rs",
            "fn f() {\n    let m = Mutex::new(0);\n}\n",
            &cfg(),
        );
        assert!(sync.iter().all(|x| x.rule != Rule::RawLock), "{sync:?}");
        // test regions are exempt
        let test = "#[cfg(test)]\nmod tests {\n    static GATE: Mutex<()> = Mutex::new(());\n}\n";
        assert!(scoped(test).is_empty());
        // OrderedMutex::new is of course fine
        let ok = scoped("fn f() {\n    let m = OrderedMutex::new(\"x\", 0);\n}\n");
        assert!(ok.is_empty(), "{ok:?}");
    }

    #[test]
    fn same_class_lock_nesting_is_flagged() {
        let src = "fn f() {\n    let a = m.lock();\n    let b = m.lock();\n}\n";
        let v = scoped(src);
        assert!(v.iter().any(|x| x.rule == Rule::LockOrder), "{v:?}");
    }

    #[test]
    fn guard_across_parallel_call_is_flagged() {
        let src = "fn f() {\n    let g = plan.lock();\n    let out = supervised_try_map(items, hard, 4, worker);\n}\n";
        let v = scoped(src);
        assert!(v.iter().any(|x| x.rule == Rule::LockAcrossPar), "{v:?}");
        // sequential guards are fine
        let ok = "fn f() {\n    if let Ok(g) = plan.lock() { g.check(); }\n    let out = supervised_try_map(items, hard, 4, worker);\n}\n";
        assert!(scoped(ok).is_empty(), "{:?}", scoped(ok));
    }

    #[test]
    fn cross_file_lock_cycle_is_detected() {
        let a = (
            "crates/tdaub/src/a.rs".to_string(),
            "fn f() {\n    let g1 = alpha.lock();\n    let g2 = beta.lock();\n}\n".to_string(),
        );
        let b = (
            "crates/core/src/b.rs".to_string(),
            "fn g() {\n    let g2 = beta.lock();\n    let g1 = alpha.lock();\n}\n".to_string(),
        );
        let v = check_locks(&[a.clone(), b.clone()], &cfg());
        assert!(
            v.iter().any(|x| x.rule == Rule::LockOrder),
            "cycle not found: {v:?}"
        );
        // consistent ordering in both files: no cycle
        let b_ok = (
            "crates/core/src/b.rs".to_string(),
            "fn g() {\n    let g1 = alpha.lock();\n    let g2 = beta.lock();\n}\n".to_string(),
        );
        let ok = check_locks(&[a, b_ok], &cfg());
        assert!(ok.is_empty(), "{ok:?}");
    }

    #[test]
    fn hash_iteration_is_flagged_in_determinism_paths_only() {
        let src = "fn f() {\n    let mut m: HashMap<String, f64> = HashMap::new();\n    for (k, v) in &m {\n        use_it(k, v);\n    }\n    let total: f64 = m.values().sum();\n}\n";
        let v = check_source("crates/tdaub/src/fake.rs", src, &cfg());
        let hash: Vec<_> = v.iter().filter(|x| x.rule == Rule::HashIter).collect();
        assert_eq!(hash.len(), 2, "{v:?}");
        // outside the determinism paths the same code is silent
        let out = check_source("crates/lookback/src/fake.rs", src, &cfg());
        assert!(out.iter().all(|x| x.rule != Rule::HashIter), "{out:?}");
        // non-iterating access is fine anywhere
        let ok = "fn f() {\n    let mut m: HashMap<String, f64> = HashMap::new();\n    m.insert(k, v);\n    let x = m.get(&k);\n}\n";
        let okv = check_source("crates/tdaub/src/fake.rs", ok, &cfg());
        assert!(okv.is_empty(), "{okv:?}");
    }

    #[test]
    fn struct_field_hash_iteration_is_flagged() {
        let src = "struct S {\n    in_flight: HashMap<usize, u64>,\n}\nimpl S {\n    fn f(&self) {\n        for k in self.in_flight.keys() {\n            use_it(k);\n        }\n    }\n}\n";
        let v = check_source("crates/tdaub/src/fake.rs", src, &cfg());
        assert!(v.iter().any(|x| x.rule == Rule::HashIter), "{v:?}");
    }

    #[test]
    fn wall_clock_is_flagged_outside_whitelist() {
        let src = "fn f() {\n    let t = Instant::now();\n    let s = SystemTime::now();\n}\n";
        let v = check_source("crates/transforms/src/fake.rs", src, &cfg());
        assert_eq!(
            v.iter().filter(|x| x.rule == Rule::WallClock).count(),
            2,
            "{v:?}"
        );
        // whitelisted watchdog module is fine
        let ok = check_source("crates/linalg/src/par.rs", src, &cfg());
        assert!(ok.iter().all(|x| x.rule != Rule::WallClock), "{ok:?}");
        // waivable like everything else
        let waived = "fn f() {\n    // tscheck:allow(wall-clock): telemetry only, never ranked\n    let t = Instant::now();\n}\n";
        let w = check_source("crates/transforms/src/fake.rs", waived, &cfg());
        assert!(w.is_empty(), "{w:?}");
    }

    #[test]
    fn raw_spawn_is_flagged_outside_the_pool_module() {
        let src = "fn f() {\n    std::thread::spawn(|| work());\n    thread::scope(|s| { s.spawn(|| {}); });\n    let b = thread::Builder::new();\n}\n";
        let v = check_source("crates/transforms/src/fake.rs", src, &cfg());
        assert_eq!(
            v.iter().filter(|x| x.rule == Rule::RawSpawn).count(),
            3,
            "{v:?}"
        );
        // the pool module itself is exempt
        let pool = check_source("crates/linalg/src/par.rs", src, &cfg());
        assert!(pool.iter().all(|x| x.rule != Rule::RawSpawn), "{pool:?}");
        // test regions may spawn freely
        let test = "#[cfg(test)]\nmod tests {\n    fn t() { std::thread::spawn(|| {}); }\n}\n";
        assert!(scoped(test).is_empty(), "{:?}", scoped(test));
        // sleep / available_parallelism are not spawns
        let ok = "fn f() {\n    std::thread::sleep(d);\n    let n = std::thread::available_parallelism();\n}\n";
        assert!(scoped(ok).is_empty(), "{:?}", scoped(ok));
        // waivable like everything else
        let waived = "fn f() {\n    // tscheck:allow(raw-spawn): one-shot startup probe thread\n    std::thread::spawn(|| {});\n}\n";
        let w = check_source("crates/transforms/src/fake.rs", waived, &cfg());
        assert!(w.is_empty(), "{w:?}");
    }

    #[test]
    fn truncating_length_casts_are_flagged() {
        let src = "fn f() {\n    let n = xs.len() as u32;\n    let m = frame.n_series() as i16;\n    let ok = xs.len() as u64;\n    let also = xs.len() as f64;\n}\n";
        let v = scoped(src);
        assert_eq!(
            v.iter().filter(|x| x.rule == Rule::TruncCast).count(),
            2,
            "{v:?}"
        );
    }

    fn strict_cfg() -> Config {
        Config {
            strict: true,
            ..Config::default()
        }
    }

    #[test]
    fn strict_indexing_fires_only_in_strict_paths_with_flag() {
        let src = "fn f() {\n    let x = data[i];\n}\n";
        // strict path + strict flag → strict-index fires
        let v = check_source("crates/tdaub/src/executor.rs", src, &strict_cfg());
        assert!(v.iter().any(|x| x.rule == Rule::StrictIndexing), "{v:?}");
        // same file without the flag → silent
        let off = check_source("crates/tdaub/src/executor.rs", src, &cfg());
        assert!(off.is_empty(), "{off:?}");
        // non-strict path with the flag → silent (linalg matrix code may
        // index freely)
        let other = check_source("crates/linalg/src/matrix.rs", src, &strict_cfg());
        assert!(other.is_empty(), "{other:?}");
    }

    #[test]
    fn strict_indexing_ignores_literals_types_attrs_and_macros() {
        let src = "#[derive(Debug)]\nfn f(xs: &[f64]) -> Vec<f64> {\n    let a = [1.0, 2.0];\n    let v = vec![0.0; 4];\n    xs.to_vec()\n}\n";
        let v = check_source("crates/tdaub/src/executor.rs", src, &strict_cfg());
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn strict_indexing_catches_chained_subscripts() {
        for line in ["m.rows()[0]", "(a + b)[i]", "grid[r][c]"] {
            let src = format!("fn f() {{\n    let x = {line};\n}}\n");
            let v = check_source("crates/tdaub/src/runner.rs", &src, &strict_cfg());
            assert!(
                v.iter().any(|x| x.rule == Rule::StrictIndexing),
                "`{line}` not flagged"
            );
        }
    }

    #[test]
    fn new_strict_paths_cover_theta_garch_and_registries() {
        let src = "fn f() {\n    let x = data[i];\n}\n";
        for file in [
            "crates/stat-models/src/simple.rs",
            "crates/stat-models/src/garch.rs",
            "crates/stat-models/src/incremental_ar.rs",
            "crates/pipelines/src/registry.rs",
            "crates/pipelines/src/interval.rs",
            "crates/pipelines/src/weighted_ensemble.rs",
            "crates/transforms/src/conformal.rs",
            "crates/tsdata/src/metrics.rs",
        ] {
            let v = check_source(file, src, &strict_cfg());
            assert!(
                v.iter().any(|x| x.rule == Rule::StrictIndexing),
                "{file} should be strict-scoped"
            );
        }
    }

    #[test]
    fn panic_propagation_is_flagged_in_strict_scope() {
        let src =
            "fn f() {\n    let r = handle.join().unwrap();\n    std::panic::resume_unwind(p);\n}\n";
        let v = check_source("crates/linalg/src/par.rs", src, &strict_cfg());
        let props: Vec<_> = v
            .iter()
            .filter(|x| x.rule == Rule::PanicPropagation)
            .collect();
        assert_eq!(props.len(), 2, "{v:?}");
        // typed-error joining is fine
        let good = "fn f() {\n    if let Ok(part) = h.join() { out.extend(part); }\n}\n";
        let ok = check_source("crates/linalg/src/par.rs", good, &strict_cfg());
        assert!(ok.iter().all(|x| x.rule != Rule::PanicPropagation));
    }

    #[test]
    fn alloc_arith_flags_unchecked_sizing() {
        for line in [
            "let v: Vec<f64> = Vec::with_capacity(rows * cols);",
            "out.reserve(extra + 1);",
            "let m = Matrix::zeros(n, lookback * s);",
            "let buf = vec![0.0; rows * cols];",
        ] {
            let src = format!("fn f() {{\n    {line}\n}}\n");
            let v = check_source("crates/tdaub/src/executor.rs", &src, &strict_cfg());
            assert!(
                v.iter().any(|x| x.rule == Rule::AllocArith),
                "`{line}` not flagged: {v:?}"
            );
        }
    }

    #[test]
    fn alloc_arith_accepts_checked_and_plain_sizing() {
        for line in [
            "let v: Vec<f64> = Vec::with_capacity(n);",
            "let v = Vec::with_capacity(rows.saturating_mul(cols));",
            "out.reserve(extra.checked_add(1).ok_or(Error::TooBig)?);",
            "let m = Matrix::zeros(n, lookback.saturating_mul(s));",
            "let buf = vec![0.0; len];",
            "let pair = vec![a * b];",  // element expr, not a length
            "let total = rows * cols;", // arithmetic outside an allocation
        ] {
            let src = format!("fn f() {{\n    {line}\n}}\n");
            let v = check_source("crates/tdaub/src/executor.rs", &src, &strict_cfg());
            assert!(
                v.iter().all(|x| x.rule != Rule::AllocArith),
                "`{line}` wrongly flagged: {v:?}"
            );
        }
    }

    #[test]
    fn alloc_arith_is_strict_only_and_waivable() {
        let src = "fn f() {\n    let v = Vec::with_capacity(rows * cols);\n}\n";
        // outside strict mode → silent
        let off = check_source("crates/tdaub/src/executor.rs", src, &cfg());
        assert!(off.is_empty(), "{off:?}");
        // non-strict path with the flag → silent
        let other = check_source("crates/linalg/src/matrix.rs", src, &strict_cfg());
        assert!(other.is_empty(), "{other:?}");
        // window kernels are in the strict set
        let win = check_source("crates/transforms/src/window.rs", src, &strict_cfg());
        assert!(win.iter().any(|x| x.rule == Rule::AllocArith), "{win:?}");
        // a justified allow waives
        let waived = "fn f() {\n    // tscheck:allow(alloc-arith): both factors < 2^16 by construction\n    let v = Vec::with_capacity(rows * cols);\n}\n";
        let ok = check_source("crates/tdaub/src/executor.rs", waived, &strict_cfg());
        assert!(ok.is_empty(), "{ok:?}");
    }

    #[test]
    fn strict_rules_skip_test_regions() {
        let src = "fn f() { g(); }\n\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        let x = data[0];\n    }\n}\n";
        let v = check_source("crates/tdaub/src/executor.rs", src, &strict_cfg());
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn strict_violation_can_be_waived_with_justification() {
        let src = "fn f() {\n    // tscheck:allow(strict-index): bounds checked two lines up\n    let x = data[i];\n}\n";
        let v = check_source("crates/tdaub/src/executor.rs", src, &strict_cfg());
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn manifest_path_and_workspace_deps_pass() {
        let src = "[package]\nname = \"x\"\n\n[dependencies]\nfoo = { path = \"../foo\" }\nbar.workspace = true\nbaz = { workspace = true }\n";
        assert!(check_manifest("crates/x/Cargo.toml", src, &[]).is_empty());
    }

    #[test]
    fn manifest_version_dep_fails() {
        let src = "[dependencies]\nserde = { version = \"1\", features = [\"derive\"] }\nrand = \"0.8\"\n";
        let v = check_manifest("Cargo.toml", src, &[]);
        assert_eq!(v.len(), 2);
        assert!(v.iter().all(|x| x.rule == Rule::Hermeticity));
        // allowlist waives
        let waived = check_manifest("Cargo.toml", src, &["serde", "rand"]);
        assert!(waived.is_empty());
    }

    #[test]
    fn manifest_dep_table_sections() {
        let bad = "[dependencies.foo]\nversion = \"1\"\n\n[package.metadata]\nx = 1\n";
        let v = check_manifest("Cargo.toml", bad, &[]);
        assert_eq!(v.len(), 1);
        let good = "[dependencies.foo]\npath = \"../foo\"\n";
        assert!(check_manifest("Cargo.toml", good, &[]).is_empty());
    }

    #[test]
    fn workspace_dependency_section_is_checked() {
        let src = "[workspace.dependencies]\nautoai-linalg = { path = \"crates/linalg\" }\nrayon = \"1\"\n";
        let v = check_manifest("Cargo.toml", src, &[]);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("rayon"));
    }

    #[test]
    fn check_workspace_combines_all_passes() {
        let sources = vec![
            (
                "crates/tdaub/src/a.rs".to_string(),
                "fn f() {\n    let g1 = alpha.lock();\n    let g2 = beta.lock();\n}\n".to_string(),
            ),
            (
                "crates/core/src/b.rs".to_string(),
                "fn g() {\n    let g2 = beta.lock();\n    let g1 = alpha.lock();\n    x.unwrap();\n}\n"
                    .to_string(),
            ),
        ];
        let manifests = vec![(
            "crates/x/Cargo.toml".to_string(),
            "[dependencies]\nrand = \"0.8\"\n".to_string(),
        )];
        let v = check_workspace(&sources, &manifests, &cfg());
        assert!(v.iter().any(|x| x.rule == Rule::LockOrder));
        assert!(v.iter().any(|x| x.rule == Rule::Panic));
        assert!(v.iter().any(|x| x.rule == Rule::Hermeticity));
        // sorted by (file, line)
        let keys: Vec<_> = v.iter().map(|x| (x.file.clone(), x.line)).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }
}
