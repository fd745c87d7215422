//! The approximate workspace call graph.
//!
//! Nodes are function items (ids index [`SymbolTable::fns`]); edges are
//! call sites resolved **by name**, never by type. The resolution policy
//! trades precision for zero dependencies, and always in the direction
//! each rule needs (see DESIGN.md §18):
//!
//! * **Method calls** (`recv.name(…)`) link to *every* workspace method
//!   of that name — the trait-object approximation. A `sink.accept(…)`
//!   through `&mut dyn EvalSink` reaches every `accept` impl, which is
//!   exactly the over-approximation BD010 wants (any impl might be the
//!   dynamic callee). The cost is fan-out between unrelated same-name
//!   methods; rule-side scoping (skip test fns, skip lint/bench crates)
//!   keeps that tolerable.
//! * **Qualified calls** (`Q::name(…)`): if `Q` is a workspace impl type
//!   or trait, link to its `name` items; `Self::name` resolves through
//!   the caller's own impl. Otherwise `Q` is a module path or external
//!   type: link to workspace *free* fns named `name` (module paths
//!   qualify free fns — `checkpoint::fingerprint(…)`), which is empty
//!   for std types like `Vec::new`.
//! * **Plain calls** (`name(…)`) link to free fns named `name`, plus the
//!   caller's own impl's `name` (unqualified associated-fn calls are
//!   rare but legal in impls). A name that resolves to nothing — a
//!   closure parameter, a generic `F: Fn` argument, a std fn — produces
//!   **no edge**: generic instantiation is not tracked.
//! * **Macro invocations** produce no edges. `macro_rules!` bodies were
//!   already opaque to the AST layer; the tokens of an invocation's
//!   arguments are ordinary expressions and their calls *are* collected.
//!
//! Unresolved calls are deliberate false-negative surface; the
//! per-file rules (BD001–BD008) still see every token, so a panic or
//! entropy source hiding behind an unresolvable call is caught at its
//! definition site whenever its file is in a policed scope.

use crate::ast::{CallKind, CallSite};
use crate::symbols::SymbolTable;
use crate::ParsedFile;
use std::collections::BTreeMap;

/// One resolved call edge out of a caller.
#[derive(Debug, Clone, Copy)]
pub struct Edge {
    /// Callee node id.
    pub callee: usize,
    /// Index into the caller's `calls` vector (for span/chain rendering).
    pub site: usize,
}

/// Forward and reverse adjacency over [`SymbolTable`] node ids.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// `fwd[n]` = edges out of node `n`.
    pub fwd: Vec<Vec<Edge>>,
    /// `rev[n]` = (caller, site-in-caller) pairs calling into node `n`.
    pub rev: Vec<Vec<Edge>>,
}

impl CallGraph {
    /// Resolves every call site of every fn against the symbol table.
    #[must_use]
    pub fn build(files: &[ParsedFile], symbols: &SymbolTable) -> Self {
        let n = symbols.fns.len();
        let mut g = CallGraph {
            fwd: vec![Vec::new(); n],
            rev: vec![Vec::new(); n],
        };
        for caller in 0..n {
            let def = symbols.def(files, caller);
            for (site, call) in def.calls.iter().enumerate() {
                for &callee in resolve(symbols, def.qual.as_deref(), call) {
                    if callee == caller && call.kind == CallKind::Plain && call.qual.is_none() {
                        // Direct self-recursion adds nothing to any
                        // reachability question; keep the graph tidy.
                        continue;
                    }
                    g.fwd[caller].push(Edge { callee, site });
                    g.rev[callee].push(Edge {
                        callee: caller,
                        site,
                    });
                }
            }
        }
        g
    }
}

/// Node ids a call site may bind to, per the module-level policy.
/// `caller_qual` is the caller's own impl type (for `Self::` and
/// unqualified associated calls).
fn resolve<'a>(
    symbols: &'a SymbolTable,
    caller_qual: Option<&str>,
    call: &CallSite,
) -> &'a [usize] {
    match call.kind {
        CallKind::Macro => &[],
        CallKind::Method => symbols.methods_named(&call.name),
        CallKind::Qualified => {
            let q = call.qual.as_deref().unwrap_or("");
            let q = if q == "Self" {
                caller_qual.unwrap_or(q)
            } else {
                q
            };
            if symbols.knows_qual(q) {
                symbols.qualified(q, &call.name)
            } else {
                symbols.free_named(&call.name)
            }
        }
        CallKind::Plain => {
            let free = symbols.free_named(&call.name);
            if free.is_empty() {
                if let Some(q) = caller_qual {
                    return symbols.qualified(q, &call.name);
                }
            }
            free
        }
    }
}

/// One step of a breadth-first discovery: how node `n` was first reached.
#[derive(Debug, Clone, Copy)]
pub enum Provenance {
    /// `n` is in the start set.
    Root,
    /// Reached from `pred` through `pred`'s call site `site`.
    Step {
        /// Predecessor node (a root-side neighbour).
        pred: usize,
        /// Index into `pred`'s `calls`.
        site: usize,
    },
}

/// Forward BFS from `roots` over `graph.fwd`, visiting only nodes for
/// which `enter(node)` is true (roots are admitted unconditionally).
/// Returns each reached node's provenance; following `Step::pred` walks
/// back to a root, giving a shortest witness chain.
#[must_use]
pub fn reach_forward(
    graph: &CallGraph,
    roots: &[usize],
    enter: impl Fn(usize) -> bool,
) -> BTreeMap<usize, Provenance> {
    bfs(&graph.fwd, roots, &enter)
}

/// Reverse BFS: every node that can *reach* one of `roots` through
/// `enter`-admitted intermediate nodes. Provenance steps point toward
/// the roots: `Step { pred, site }` on node `n` means `n` calls `pred`
/// at `n`'s call site `site`.
#[must_use]
pub fn reach_backward(
    graph: &CallGraph,
    roots: &[usize],
    enter: impl Fn(usize) -> bool,
) -> BTreeMap<usize, Provenance> {
    bfs(&graph.rev, roots, &enter)
}

fn bfs(
    adj: &[Vec<Edge>],
    roots: &[usize],
    enter: &impl Fn(usize) -> bool,
) -> BTreeMap<usize, Provenance> {
    let mut seen: BTreeMap<usize, Provenance> = BTreeMap::new();
    let mut queue: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
    for &r in roots {
        if seen.insert(r, Provenance::Root).is_none() {
            queue.push_back(r);
        }
    }
    while let Some(n) = queue.pop_front() {
        for e in &adj[n] {
            let next = e.callee;
            if seen.contains_key(&next) || !enter(next) {
                continue;
            }
            // In the reverse graph the site index belongs to `next`
            // (the caller); forward, it belongs to `n`. `chain_notes`
            // picks the owner per direction.
            seen.insert(
                next,
                Provenance::Step {
                    pred: n,
                    site: e.site,
                },
            );
            queue.push_back(next);
        }
    }
    seen
}

/// Renders the witness chain from `node` back to a root as
/// human-readable notes, one hop per line. `reach` must come from
/// [`reach_forward`] or [`reach_backward`] over the same graph.
#[must_use]
pub fn chain_notes(
    files: &[ParsedFile],
    symbols: &SymbolTable,
    reach: &BTreeMap<usize, Provenance>,
    node: usize,
    forward: bool,
) -> Vec<String> {
    let mut notes = Vec::new();
    let mut cur = node;
    let mut hops = 0usize;
    while let Some(Provenance::Step { pred, site }) = reach.get(&cur) {
        // Forward search: pred called cur (site in pred). Backward
        // search: cur calls pred (site in cur).
        let (caller, callee) = if forward { (*pred, cur) } else { (cur, *pred) };
        let site_owner = if forward { *pred } else { cur };
        let cd = symbols.def(files, caller);
        let ed = symbols.def(files, callee);
        let call = &symbols.def(files, site_owner).calls[*site];
        let file = &files[symbols.fns[site_owner].file];
        notes.push(format!(
            "`{}` calls `{}` at {}:{}:{}",
            cd.name, ed.name, file.path, call.line, call.col
        ));
        cur = *pred;
        hops += 1;
        if hops > 64 {
            notes.push("… (chain truncated)".to_string());
            break;
        }
    }
    if forward {
        notes.reverse();
    }
    notes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_file;

    fn ws(files: &[(&str, &str)]) -> (Vec<ParsedFile>, SymbolTable, CallGraph) {
        let parsed: Vec<ParsedFile> = files
            .iter()
            .map(|(p, s)| parse_file((*p).to_string(), s))
            .collect();
        let symbols = SymbolTable::build(&parsed);
        let graph = CallGraph::build(&parsed, &symbols);
        (parsed, symbols, graph)
    }

    fn node(symbols: &SymbolTable, files: &[ParsedFile], name: &str) -> usize {
        *symbols
            .named(name)
            .first()
            .unwrap_or_else(|| panic!("no fn {name} in {:?}", files.len()))
    }

    fn callees(
        symbols: &SymbolTable,
        files: &[ParsedFile],
        graph: &CallGraph,
        name: &str,
    ) -> Vec<String> {
        let n = node(symbols, files, name);
        let mut out: Vec<String> = graph.fwd[n]
            .iter()
            .map(|e| symbols.def(files, e.callee).name.clone())
            .collect();
        out.sort();
        out.dedup();
        out
    }

    #[test]
    fn free_fn_calls_link_across_files() {
        let (files, symbols, graph) = ws(&[
            ("crates/a/src/lib.rs", "pub fn entry() { helper(); }"),
            (
                "crates/b/src/lib.rs",
                "pub fn helper() { leaf(); } pub fn leaf() {}",
            ),
        ]);
        assert_eq!(callees(&symbols, &files, &graph, "entry"), vec!["helper"]);
        assert_eq!(callees(&symbols, &files, &graph, "helper"), vec!["leaf"]);
    }

    #[test]
    fn trait_object_method_calls_reach_every_impl() {
        // The documented over-approximation: `sink.accept(…)` through a
        // dyn trait links to every workspace `accept` method.
        let (files, symbols, graph) = ws(&[
            (
                "crates/a/src/lib.rs",
                "fn drive(sink: &mut dyn Sink) { sink.accept(1); }",
            ),
            (
                "crates/b/src/lib.rs",
                "impl Sink for Journal { fn accept(&mut self, x: u32) {} }
                 impl Sink for Memory { fn accept(&mut self, x: u32) {} }
                 impl Unrelated { fn accept(&mut self, y: f32) {} }",
            ),
        ]);
        let drive = node(&symbols, &files, "drive");
        // All three `accept` methods — including the unrelated inherent
        // one — are linked; name-based resolution cannot tell them apart.
        assert_eq!(graph.fwd[drive].len(), 3);
    }

    #[test]
    fn generic_fn_instantiation_resolves_by_name() {
        // `run::<MlpWorkload>(…)` and plain `run(…)` both link to every
        // free `run`; the turbofish's type argument is ignored (no
        // monomorphization tracking).
        let (files, symbols, graph) = ws(&[(
            "crates/a/src/lib.rs",
            "fn go() { run::<Mlp>(1); } fn run<W: Workload>(x: u32) {}",
        )]);
        assert_eq!(callees(&symbols, &files, &graph, "go"), vec!["run"]);
    }

    #[test]
    fn closure_passed_to_pool_attributes_to_submitter_not_pool() {
        // `pool.submit(move || work())`: the `work()` call edge belongs
        // to the *submitting* fn (closures attribute to their enclosing
        // fn), and `submit`'s generic `task()` invocation resolves to
        // nothing — the pool never gains edges to submitted bodies.
        let (files, symbols, graph) = ws(&[
            (
                "crates/serve/src/pool.rs",
                "impl Pool { fn submit<F: FnOnce()>(&self, task: F) { task(); } }",
            ),
            (
                "crates/core/src/lib.rs",
                "fn enqueue(pool: &Pool) { pool.submit(move || work()); } fn work() {}",
            ),
        ]);
        let enqueue = node(&symbols, &files, "enqueue");
        let got: Vec<String> = graph.fwd[enqueue]
            .iter()
            .map(|e| symbols.def(&files, e.callee).name.clone())
            .collect();
        assert!(got.contains(&"submit".to_string()));
        assert!(got.contains(&"work".to_string()));
        // The pool's generic `task()` call resolves to no edge at all.
        let submit = node(&symbols, &files, "submit");
        assert!(graph.fwd[submit].is_empty());
    }

    #[test]
    fn macro_invocations_produce_no_edges_but_their_args_do() {
        let (files, symbols, graph) = ws(&[(
            "crates/a/src/lib.rs",
            r#"fn log_it() { writeln!(out, "{}", compute()).ok(); } fn compute() -> u32 { 0 }"#,
        )]);
        // `writeln` itself resolves nowhere; `compute()` inside the
        // macro's argument list is a real edge.
        assert_eq!(callees(&symbols, &files, &graph, "log_it"), vec!["compute"]);
    }

    #[test]
    fn macro_rules_bodies_are_opaque() {
        // Calls inside a macro_rules! definition belong to no fn and
        // create no edges — the expansion is never seen.
        let (files, symbols, graph) = ws(&[(
            "crates/a/src/lib.rs",
            "macro_rules! fire { () => { dangerous() }; } fn safe() {} fn dangerous() {}",
        )]);
        let safe = node(&symbols, &files, "safe");
        assert!(graph.fwd[safe].is_empty());
        let dangerous = node(&symbols, &files, "dangerous");
        assert!(graph.rev[dangerous].is_empty());
    }

    #[test]
    fn qualified_calls_respect_workspace_quals_and_fall_back_to_free_fns() {
        let (files, symbols, graph) = ws(&[
            (
                "crates/a/src/lib.rs",
                "fn go() { Engine::start(); checkpoint::fingerprint(1); Vec::new(); }",
            ),
            (
                "crates/b/src/lib.rs",
                "impl Engine { fn start() {} } pub fn fingerprint(x: u32) {} ",
            ),
        ]);
        let got = callees(&symbols, &files, &graph, "go");
        // Engine::start via the impl, fingerprint via module-path
        // fallback, Vec::new → nothing (external type, no free `new`).
        assert_eq!(got, vec!["fingerprint", "start"]);
    }

    #[test]
    fn self_qualified_calls_resolve_through_the_callers_impl() {
        let (files, symbols, graph) = ws(&[(
            "crates/a/src/lib.rs",
            "impl Planner { fn plan(&self) { Self::validate(); } fn validate() {} }
                 impl Other { fn validate() {} }",
        )]);
        let plan = node(&symbols, &files, "plan");
        let got: Vec<&str> = graph.fwd[plan]
            .iter()
            .map(|e| symbols.def(&files, e.callee).qual.as_deref().unwrap_or(""))
            .collect();
        assert_eq!(got, vec!["Planner"], "Self:: must not leak to Other");
    }

    #[test]
    fn reach_forward_finds_shortest_witness_chains() {
        let (files, symbols, graph) = ws(&[(
            "crates/a/src/lib.rs",
            "fn root() { mid(); } fn mid() { deep(); } fn deep() {} fn stranded() { deep(); }",
        )]);
        let root = node(&symbols, &files, "root");
        let deep = node(&symbols, &files, "deep");
        let stranded = node(&symbols, &files, "stranded");
        let reach = reach_forward(&graph, &[root], |_| true);
        assert!(reach.contains_key(&deep));
        assert!(!reach.contains_key(&stranded));
        let notes = chain_notes(&files, &symbols, &reach, deep, true);
        assert_eq!(notes.len(), 2);
        assert!(notes[0].contains("`root` calls `mid`"));
        assert!(notes[1].contains("`mid` calls `deep`"));
    }

    #[test]
    fn reach_backward_finds_callers() {
        let (files, symbols, graph) = ws(&[(
            "crates/a/src/lib.rs",
            "fn top() { tainted(); } fn tainted() { source(); } fn source() {} fn clean() {}",
        )]);
        let source = node(&symbols, &files, "source");
        let top = node(&symbols, &files, "top");
        let clean = node(&symbols, &files, "clean");
        let reach = reach_backward(&graph, &[source], |_| true);
        assert!(reach.contains_key(&top));
        assert!(!reach.contains_key(&clean));
        let notes = chain_notes(&files, &symbols, &reach, top, false);
        assert_eq!(notes.len(), 2);
        assert!(notes[0].contains("`top` calls `tainted`"));
        assert!(notes[1].contains("`tainted` calls `source`"));
    }

    #[test]
    fn enter_filter_blocks_traversal_through_excluded_nodes() {
        let (files, symbols, graph) = ws(&[(
            "crates/a/src/lib.rs",
            "fn root() { blocked(); } fn blocked() { target(); } fn target() {}",
        )]);
        let root = node(&symbols, &files, "root");
        let blocked = node(&symbols, &files, "blocked");
        let target = node(&symbols, &files, "target");
        let reach = reach_forward(&graph, &[root], |n| n != blocked);
        assert!(!reach.contains_key(&blocked));
        assert!(!reach.contains_key(&target));
    }

    #[test]
    fn direct_recursion_is_elided() {
        let (files, symbols, graph) = ws(&[(
            "crates/a/src/lib.rs",
            "fn rec(n: u32) { if n > 0 { rec(n - 1); } }",
        )]);
        let rec = node(&symbols, &files, "rec");
        assert!(graph.fwd[rec].is_empty());
    }
}
