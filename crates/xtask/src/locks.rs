//! Lock-discipline analysis on the token stream: guard-scope extraction,
//! lock-order edge collection, and guard-across-parallel detection.
//!
//! An *acquisition* is the token pattern `name . lock ( )` (or `.read()` /
//! `.write()` with empty argument lists, which distinguishes lock guards
//! from `io::Read::read`-style calls that always take a buffer). The lock's
//! order class is the identifier before the dot — `self.service_models.lock()`
//! is the class `service_models`, matching the `OrderedMutex` naming
//! convention (`"service.models"`).
//!
//! The *extent* of a guard — the token range over which it is held — is
//! derived structurally:
//!
//! * `match x.lock() { … }` / `if let Ok(g) = x.lock() { … }`: the brace
//!   block following the acquisition (a `{` is reached before the
//!   statement's `;`);
//! * `let g = x.lock()…;`: from the acquisition to the end of the
//!   enclosing brace block (the binding lives until scope end), truncated
//!   at an explicit `drop(g_name)`;
//! * anything else (a temporary like `x.lock().map(…).unwrap_or(…)`): to
//!   the end of the statement.
//!
//! Within an extent, a nested acquisition of class `B` under class `A`
//! records the directed edge `A → B`; the workspace-wide edge set is
//! checked for cycles by the caller ([`crate::check_locks`]). A call to a
//! `parallel_*` / `supervised_try_map` / `spawn` / `scope` function or a
//! zero-argument `.join()` inside an extent is a guard-across-parallel
//! finding: holding any lock across a fan-out or join point serializes the
//! workers at best and deadlocks against them at worst.

use crate::lexer::{FileTokens, TokKind};

/// Fan-out/join calls a guard must never be held across.
const PAR_CALLS: &[&str] = &[
    "parallel_try_map_mut",
    "parallel_try_map_range",
    "supervised_try_map",
    "spawn",
    "scope",
];

/// Methods that acquire a guard when called with no arguments.
const ACQUIRE_METHODS: &[&str] = &["lock", "read", "write"];

/// One lock acquisition with its held-extent as a token range.
#[derive(Debug, Clone)]
pub struct Acquisition {
    /// Order-class name: the identifier before `.lock()`.
    pub name: String,
    /// Token index of the name identifier.
    pub idx: usize,
    /// 1-based source line of the acquisition.
    pub line: usize,
    /// Token range `[start, end)` over which the guard is held.
    pub extent: (usize, usize),
}

/// A nested acquisition: `to` acquired while a guard of `from` is held.
#[derive(Debug, Clone)]
pub struct LockEdge {
    /// The class already held.
    pub from: String,
    /// The class being acquired under it.
    pub to: String,
    /// File of the nested acquisition.
    pub file: String,
    /// Line of the nested acquisition.
    pub line: usize,
}

/// A fan-out or join call made while a guard is held.
#[derive(Debug, Clone)]
pub struct ParCrossing {
    /// The held guard's class name.
    pub guard: String,
    /// The offending call (`spawn`, `join`, `supervised_try_map`, …).
    pub call: String,
    /// Line of the call.
    pub line: usize,
}

fn ident_at<'a>(ft: &'a FileTokens, i: usize) -> Option<&'a str> {
    ft.code
        .get(i)
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| t.text.as_str())
}

fn punct_at(ft: &FileTokens, i: usize, c: char) -> bool {
    ft.code.get(i).is_some_and(|t| t.kind == TokKind::Punct(c))
}

fn in_test(ft: &FileTokens, i: usize) -> bool {
    ft.in_test.get(i).copied().unwrap_or(false)
}

/// Find every lock acquisition in the file's non-test code, with extents.
pub fn find_acquisitions(ft: &FileTokens) -> Vec<Acquisition> {
    let mut out = Vec::new();
    for i in 0..ft.code.len() {
        if in_test(ft, i) {
            continue;
        }
        let Some(name) = ident_at(ft, i) else {
            continue;
        };
        if !(punct_at(ft, i + 1, '.')
            && ident_at(ft, i + 2).is_some_and(|m| ACQUIRE_METHODS.contains(&m))
            && punct_at(ft, i + 3, '(')
            && punct_at(ft, i + 4, ')'))
        {
            continue;
        }
        let line = ft.code.get(i).map(|t| t.line).unwrap_or(0);
        let extent = guard_extent(ft, i, i + 5);
        let extent = truncate_at_drop(ft, name, extent);
        out.push(Acquisition {
            name: name.to_string(),
            idx: i,
            line,
            extent,
        });
    }
    out
}

/// Compute the held-extent of a guard acquired at token `acq` whose call
/// closes just before token `after`.
fn guard_extent(ft: &FileTokens, acq: usize, after: usize) -> (usize, usize) {
    // Scan forward for the first structural event at paren/bracket depth 0:
    // a brace block (the guard scopes to it), the statement's `;`, or a
    // closing `)`/`]` of an enclosing call (the guard is a temporary
    // argument and dies with it).
    let mut pd = 0i64;
    let mut j = after;
    while let Some(t) = ft.code.get(j) {
        match t.kind {
            TokKind::Punct('(') | TokKind::Punct('[') => pd += 1,
            TokKind::Punct(')') | TokKind::Punct(']') => {
                pd -= 1;
                if pd < 0 {
                    return (after, j);
                }
            }
            TokKind::Punct('{') if pd == 0 => {
                // `match` / `if let` / `while let`: the guard lives for the
                // brace block.
                let mut bd = 0i64;
                let mut k = j;
                while let Some(u) = ft.code.get(k) {
                    match u.kind {
                        TokKind::Punct('{') => bd += 1,
                        TokKind::Punct('}') => {
                            bd -= 1;
                            if bd == 0 {
                                return (j, k + 1);
                            }
                        }
                        _ => {}
                    }
                    k += 1;
                }
                return (j, ft.code.len());
            }
            TokKind::Punct('}') if pd == 0 => {
                // Tail expression: no `;` before the enclosing block closes,
                // so the temporary guard dies at the block's end.
                return (after, j);
            }
            TokKind::Punct(';') if pd == 0 => {
                if is_let_statement(ft, acq) {
                    // A bound guard lives to the end of the enclosing block.
                    let mut bd = 0i64;
                    let mut k = j;
                    while let Some(u) = ft.code.get(k) {
                        match u.kind {
                            TokKind::Punct('{') => bd += 1,
                            TokKind::Punct('}') => {
                                bd -= 1;
                                if bd < 0 {
                                    return (after, k);
                                }
                            }
                            _ => {}
                        }
                        k += 1;
                    }
                    return (after, ft.code.len());
                }
                // Temporary: dies at the end of the statement.
                return (after, j);
            }
            _ => {}
        }
        j += 1;
    }
    (after, ft.code.len())
}

/// Does the statement containing token `acq` start with `let` (scanning
/// back to the nearest `;`, `{`, or `}`)?
fn is_let_statement(ft: &FileTokens, acq: usize) -> bool {
    let mut k = acq;
    while k > 0 {
        k -= 1;
        match ft.code.get(k).map(|t| t.kind) {
            Some(TokKind::Punct(';')) | Some(TokKind::Punct('{')) | Some(TokKind::Punct('}')) => {
                return false
            }
            Some(TokKind::Ident) => {
                if ident_at(ft, k) == Some("let") {
                    return true;
                }
            }
            _ => {}
        }
    }
    false
}

/// Truncate `extent` at an explicit `drop(<binding>)` call. The binding
/// name usually differs from the lock's field name, so we accept a `drop(`
/// of *any* single identifier as ending the most recent guard — an
/// over-approximation that errs toward fewer false cycle reports.
fn truncate_at_drop(ft: &FileTokens, _name: &str, extent: (usize, usize)) -> (usize, usize) {
    let (start, end) = extent;
    let mut j = start;
    while j + 3 < end {
        if ident_at(ft, j) == Some("drop")
            && punct_at(ft, j + 1, '(')
            && ident_at(ft, j + 2).is_some()
            && punct_at(ft, j + 3, ')')
        {
            return (start, j);
        }
        j += 1;
    }
    extent
}

/// Extract this file's lock-order edges and guard-across-parallel findings.
/// Self-edges (`A` nested directly under `A`) are reported as edges too —
/// the caller turns them into immediate cycle findings.
pub fn lock_facts(path: &str, ft: &FileTokens) -> (Vec<LockEdge>, Vec<ParCrossing>) {
    let acqs = find_acquisitions(ft);
    let mut edges = Vec::new();
    let mut crossings = Vec::new();
    for a in &acqs {
        // nested acquisitions inside a's extent
        for b in &acqs {
            if b.idx > a.extent.0 && b.idx < a.extent.1 && b.idx != a.idx {
                edges.push(LockEdge {
                    from: a.name.clone(),
                    to: b.name.clone(),
                    file: path.to_string(),
                    line: b.line,
                });
            }
        }
        // fan-out / join calls inside a's extent
        let (start, end) = a.extent;
        let mut j = start.max(a.idx + 5);
        while j < end {
            if let Some(id) = ident_at(ft, j) {
                if PAR_CALLS.contains(&id) && punct_at(ft, j + 1, '(') {
                    crossings.push(ParCrossing {
                        guard: a.name.clone(),
                        call: id.to_string(),
                        line: ft.code.get(j).map(|t| t.line).unwrap_or(a.line),
                    });
                } else if id == "join"
                    && punct_at(ft, j.wrapping_sub(1), '.')
                    && punct_at(ft, j + 1, '(')
                    && punct_at(ft, j + 2, ')')
                {
                    crossings.push(ParCrossing {
                        guard: a.name.clone(),
                        call: "join".to_string(),
                        line: ft.code.get(j).map(|t| t.line).unwrap_or(a.line),
                    });
                }
            }
            j += 1;
        }
    }
    (edges, crossings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::analyze_file;

    #[test]
    fn if_let_guard_scopes_to_block() {
        let ft = analyze_file(
            "fn f(&self) {\n  if let Ok(mut set) = self.retired.lock() {\n    set.insert(1);\n  }\n  self.other.lock();\n}\n",
        );
        let acqs = find_acquisitions(&ft);
        assert_eq!(acqs.len(), 2);
        let retired = &acqs[0];
        let other = &acqs[1];
        assert_eq!(retired.name, "retired");
        // `other` is acquired after the if-let block ends: no nesting
        assert!(other.idx >= retired.extent.1);
    }

    #[test]
    fn let_bound_guard_extends_to_scope_end_and_nests() {
        let ft = analyze_file("fn f() {\n  let a = m1.lock();\n  let b = m2.lock();\n}\n");
        let (edges, _) = lock_facts("x.rs", &ft);
        assert_eq!(edges.len(), 1);
        assert_eq!(edges[0].from, "m1");
        assert_eq!(edges[0].to, "m2");
    }

    #[test]
    fn inner_block_guard_does_not_leak_out() {
        let ft = analyze_file(
            "fn f() {\n  let x = {\n    let g = m1.lock();\n    g.len()\n  };\n  let h = m2.lock();\n}\n",
        );
        let (edges, _) = lock_facts("x.rs", &ft);
        assert!(edges.is_empty(), "{edges:?}");
    }

    #[test]
    fn temporary_guard_ends_at_statement() {
        let ft = analyze_file(
            "fn f(&self) -> bool {\n  self.retired.lock().map(|s| s.contains(&1)).unwrap_or(true);\n  self.slots.lock();\n  true\n}\n",
        );
        let (edges, _) = lock_facts("x.rs", &ft);
        assert!(edges.is_empty(), "{edges:?}");
    }

    #[test]
    fn tail_expression_guard_dies_at_block_end() {
        // `is_retired`-style accessors: the temporary guard in the tail
        // expression must not leak into the next function.
        let ft = analyze_file(
            "fn a(&self) -> bool {\n  self.retired.lock().map(|s| s.contains(&1)).unwrap_or(true)\n}\nfn b(&self) {\n  if let Ok(mut s) = self.retired.lock() {\n    s.insert(1);\n  }\n}\n",
        );
        let (edges, _) = lock_facts("x.rs", &ft);
        assert!(edges.is_empty(), "{edges:?}");
    }

    #[test]
    fn drop_truncates_a_bound_guard() {
        let ft =
            analyze_file("fn f() {\n  let g = m1.lock();\n  drop(g);\n  let h = m2.lock();\n}\n");
        let (edges, _) = lock_facts("x.rs", &ft);
        assert!(edges.is_empty(), "{edges:?}");
    }

    #[test]
    fn guard_across_spawn_and_join_is_detected() {
        let ft = analyze_file(
            "fn f() {\n  let g = m.lock();\n  let h = std::thread::spawn(|| 1);\n  let r = h.join();\n}\n",
        );
        let (_, crossings) = lock_facts("x.rs", &ft);
        let calls: Vec<&str> = crossings.iter().map(|c| c.call.as_str()).collect();
        assert!(calls.contains(&"spawn"), "{crossings:?}");
    }

    #[test]
    fn join_with_arguments_is_not_a_join_point() {
        // PathBuf::join takes an argument; only zero-arg `.join()` counts.
        let ft = analyze_file("fn f() {\n  let g = m.lock();\n  let p = base.join(\"x\");\n}\n");
        let (_, crossings) = lock_facts("x.rs", &ft);
        assert!(crossings.is_empty(), "{crossings:?}");
    }

    #[test]
    fn read_write_with_args_are_not_acquisitions() {
        let ft = analyze_file(
            "fn f() {\n  file.read(&mut buf);\n  sink.write(bytes);\n  let g = rw.read();\n}\n",
        );
        let acqs = find_acquisitions(&ft);
        assert_eq!(acqs.len(), 1);
        assert_eq!(acqs[0].name, "rw");
    }

    #[test]
    fn test_region_locks_are_ignored() {
        let ft = analyze_file(
            "fn f() {}\n#[cfg(test)]\nmod tests {\n  fn t() {\n    let a = m1.lock();\n    let b = m2.lock();\n  }\n}\n",
        );
        let acqs = find_acquisitions(&ft);
        assert!(acqs.is_empty(), "{acqs:?}");
    }
}
