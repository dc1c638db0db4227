//! `dvicl-lint` — a dependency-free static invariant checker for the
//! DviCL workspace.
//!
//! It enforces the project invariants that neither rustc, clippy nor
//! the type system can state: that every loop of the governed pipeline
//! names its budget, the error taxonomy and CSR-only adjacency.
//! Panic-freedom, the unsafe audit, the offline guard and truncating
//! casts are workspace clippy denials; arena stack discipline, span
//! labels and the counter catalog are enforced by types; rustc itself
//! rejects a non-`Sync` `static`. It is deliberately dependency-free
//! (hand-rolled lexer and `fn` parser) so the workspace keeps building
//! offline.
//!
//! The pipeline sees one file at a time: the file is lexed
//! ([`lexer::lex`]) and its `fn` items parsed ([`parse::items`]), and
//! every rule from [`rules::catalog`] that applies to its crate runs on
//! it. Findings inside `#[cfg(test)]` items are dropped, then the
//! file's `// dvicl-lint: allow(...) -- reason` pragmas are applied,
//! and a pragma that suppresses nothing is itself a finding. See
//! DESIGN.md §8 for the rule catalog and the suppression policy, §12
//! for the parser.
//!
//! What gets scanned: non-test sources of every workspace crate
//! (`crates/*/src/**` and the root `src/`). Test-class trees (`tests/`,
//! `benches/`, `examples/`, `fixtures/`) and the vendored `shims/` are
//! skipped — test code is exempt by design, and the shims are stand-ins
//! for third-party code the rules do not govern.

pub mod lexer;
pub mod parse;
pub mod pragma;
pub mod report;
pub mod rules;

use lexer::{Tok, TokKind};
use pragma::Pragma;
use report::Report;
use rules::{FileCtx, Finding};
use std::path::{Path, PathBuf};

/// Meta-rule id: a pragma without a non-empty `-- reason` tail.
pub const PRAGMA_MISSING_REASON: &str = "pragma-missing-reason";
/// Meta-rule id: a pragma naming a rule that does not exist.
pub const PRAGMA_UNKNOWN_RULE: &str = "pragma-unknown-rule";
/// Meta-rule id: a well-formed pragma that suppresses no finding of a
/// rule it names.
pub const PRAGMA_UNUSED: &str = "pragma-unused";

/// The engine's own meta-rules with their catalog summaries. Their
/// findings cannot be suppressed: a pragma could otherwise hide its own
/// malformation.
pub const META_RULES: [(&str, &str); 3] = [
    (PRAGMA_MISSING_REASON, "pragma without a `-- reason` tail"),
    (PRAGMA_UNKNOWN_RULE, "pragma naming an unknown rule"),
    (
        PRAGMA_UNUSED,
        "pragma that suppresses no finding of a rule it names",
    ),
];

/// Directory names never descended into when walking the workspace.
const SKIP_DIRS: [&str; 6] = [
    "target", "tests", "benches", "examples", "fixtures", "shims",
];

/// A failure of the lint *run* itself (not a finding).
#[derive(Debug)]
pub enum LintError {
    /// Reading a source file or directory failed.
    Io {
        path: PathBuf,
        source: std::io::Error,
    },
    /// The given root does not look like the dvicl workspace.
    NotAWorkspace { path: PathBuf },
}

impl std::fmt::Display for LintError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LintError::Io { path, source } => {
                write!(f, "io error on {}: {source}", path.display())
            }
            LintError::NotAWorkspace { path } => write!(
                f,
                "{} is not the dvicl workspace root (no Cargo.toml + crates/)",
                path.display()
            ),
        }
    }
}

impl std::error::Error for LintError {}

/// The crate a workspace-relative path belongs to: the directory under
/// `crates/`, or `"dvicl"` for the root `src/`, or `""` when unknown.
pub fn crate_name_of(rel: &str) -> &str {
    let mut parts = rel.split('/');
    match parts.next() {
        Some("crates") => parts.next().unwrap_or(""),
        Some("src") => "dvicl",
        _ => "",
    }
}

/// One analyzed source file: lexed, test-span-mapped, `fn`-parsed.
struct FileData {
    /// Workspace-relative path, `/`-separated.
    rel: String,
    /// Crate the file belongs to (see [`crate_name_of`]).
    crate_name: String,
    src: String,
    toks: Vec<Tok>,
    /// Indices into `toks` of the non-comment tokens, in order.
    code: Vec<usize>,
    /// Byte spans of `#[cfg(test)]` / `#[test]` items.
    test_spans: Vec<(usize, usize)>,
    /// Parsed `fn` items (see [`parse::items`]).
    items: Vec<parse::Item>,
}

impl FileData {
    /// Lexes one source text and parses its `fn` items.
    fn analyze(rel: String, src: String) -> FileData {
        let toks = lexer::lex(&src);
        let code: Vec<usize> = toks
            .iter()
            .enumerate()
            .filter(|(_, t)| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
            .map(|(i, _)| i)
            .collect();
        let test_spans = find_test_spans(&src, &toks, &code);
        let items = parse::items(&src, &toks, &code, &test_spans);
        let crate_name = crate_name_of(&rel).to_string();
        FileData {
            rel,
            crate_name,
            src,
            toks,
            code,
            test_spans,
            items,
        }
    }

    /// A rule-facing view of this file.
    fn ctx(&self) -> FileCtx<'_> {
        FileCtx {
            rel: &self.rel,
            src: &self.src,
            toks: &self.toks,
            code: &self.code,
            items: &self.items,
        }
    }

    /// Whether a byte offset falls inside a test-only item.
    fn in_test(&self, byte: usize) -> bool {
        self.test_spans.iter().any(|&(s, e)| byte >= s && byte < e)
    }

    /// Runs every rule that applies to this file's crate, drops
    /// findings in test items and applies the file's pragmas. Returns
    /// the unsuppressed findings plus the pragma meta-findings, and how
    /// many findings the pragmas silenced.
    fn lint(&self) -> (Vec<Finding>, usize) {
        let ctx = self.ctx();
        let known = rules::known_rule_ids();
        let mut meta: Vec<Finding> = Vec::new();
        let pragmas = collect_pragmas(&ctx, &known, &mut meta);
        let mut findings: Vec<Finding> = rules::catalog()
            .iter()
            .filter(|rule| (rule.applies)(&self.crate_name))
            .flat_map(|rule| (rule.check)(&ctx))
            .filter(|f| !self.in_test(f.byte))
            .collect();
        // A well-formed pragma must silence a finding of every rule it
        // names; a stale one would hide the next violation on its line.
        for (tok, p) in &pragmas {
            for rule in p.rules.iter().filter(|r| known.contains(&r.as_str())) {
                let used = findings
                    .iter()
                    .any(|f| f.rule == rule && p.suppresses(rule, f.line));
                if p.reason.is_some() && !used {
                    meta.push(ctx.finding(
                        PRAGMA_UNUSED,
                        tok,
                        format!("pragma allows `{rule}` but suppresses no `{rule}` finding"),
                    ));
                }
            }
        }
        let before = findings.len();
        findings.retain(|f| !pragmas.iter().any(|(_, p)| p.suppresses(f.rule, f.line)));
        let suppressed = before - findings.len();
        findings.extend(meta);
        (findings, suppressed)
    }
}

/// Lints `(rel, source)` pairs, each file by itself, into one report
/// ordered by file, line and column.
fn lint_sources(sources: Vec<(String, String)>) -> Report {
    let mut report = Report {
        files_scanned: sources.len(),
        ..Report::default()
    };
    for (rel, src) in sources {
        let (findings, suppressed) = FileData::analyze(rel, src).lint();
        report.findings.extend(findings);
        report.suppressed += suppressed;
    }
    report
        .findings
        .sort_by_key(|f| (f.file.clone(), f.line, f.col));
    report
}

/// Lints one source text under its workspace-relative path (which
/// drives rule applicability). Returns *unsuppressed* findings plus
/// pragma meta-findings, sorted by position; the second value is how
/// many findings well-formed pragmas silenced.
pub fn lint_source(rel: &str, src: &str) -> (Vec<Finding>, usize) {
    let report = lint_sources(vec![(rel.to_string(), src.to_string())]);
    (report.findings, report.suppressed)
}

/// Collects the pragmas of one file with the comment token each sits
/// on, and emits meta-findings for malformed ones (missing reason,
/// unknown rule).
fn collect_pragmas<'a>(
    ctx: &FileCtx<'a>,
    known: &[&str],
    meta: &mut Vec<Finding>,
) -> Vec<(&'a Tok, Pragma)> {
    let mut pragmas = Vec::new();
    for tok in ctx.toks.iter().filter(|t| t.kind == TokKind::LineComment) {
        let Some(p) = pragma::parse(ctx.text(tok), tok.line, tok.col) else {
            continue;
        };
        if p.reason.is_none() {
            let why = "suppression pragma is missing its `-- <reason>` tail; \
                       it suppresses nothing until the invariant is stated";
            meta.push(ctx.finding(PRAGMA_MISSING_REASON, tok, why.to_string()));
        }
        if p.rules.is_empty() {
            meta.push(ctx.finding(
                PRAGMA_UNKNOWN_RULE,
                tok,
                "suppression pragma has no `allow(<rule>)` clause".to_string(),
            ));
        }
        for r in p.rules.iter().filter(|r| !known.contains(&r.as_str())) {
            meta.push(ctx.finding(
                PRAGMA_UNKNOWN_RULE,
                tok,
                format!("suppression pragma names unknown rule `{r}`"),
            ));
        }
        pragmas.push((tok, p));
    }
    pragmas
}

/// Byte spans of items guarded by `#[cfg(test)]` (including `not(test)`
/// awareness) or `#[test]`: the whole following item, brace-matched.
fn find_test_spans(src: &str, toks: &[Tok], code: &[usize]) -> Vec<(usize, usize)> {
    let mut spans: Vec<(usize, usize)> = Vec::new();
    let mut cp = 0;
    while cp < code.len() {
        let i = code[cp];
        if toks[i].kind == TokKind::Punct(b'#') {
            if let Some((attr_end_cp, is_test)) = parse_attr(src, toks, code, cp) {
                if is_test {
                    if let Some(end_byte) = item_end(toks, code, attr_end_cp + 1) {
                        spans.push((toks[i].start, end_byte));
                    }
                }
                cp = attr_end_cp + 1;
                continue;
            }
        }
        cp += 1;
    }
    spans
}

/// Parses an attribute starting at code position `cp` (on `#`). Returns
/// the code position of the closing `]` and whether the attribute marks
/// a test item: `#[test]`, or `#[cfg(...)]`/`#[cfg_attr(...)]` whose
/// arguments mention `test` outside a `not(...)` group.
fn parse_attr(src: &str, toks: &[Tok], code: &[usize], cp: usize) -> Option<(usize, bool)> {
    let mut k = cp + 1;
    // Optional inner-attribute bang.
    if tok_is(toks, code, k, TokKind::Punct(b'!')) {
        k += 1;
    }
    if !tok_is(toks, code, k, TokKind::Punct(b'[')) {
        return None;
    }
    let first_ident = code.get(k + 1).map(|&i| &toks[i]);
    let is_bare_test = matches!(first_ident, Some(t) if t.kind == TokKind::Ident && t.text(src) == "test")
        && tok_is(toks, code, k + 2, TokKind::Punct(b']'));
    let is_cfg = matches!(first_ident, Some(t) if t.kind == TokKind::Ident && t.text(src) == "cfg");
    // Scan to the matching `]`, tracking whether `test` appears outside
    // any `not(...)`.
    let mut depth = 0i32;
    let mut not_depths: Vec<i32> = Vec::new();
    let mut mentions_test = false;
    let mut pos = k;
    loop {
        let &idx = code.get(pos)?;
        let t = &toks[idx];
        match t.kind {
            TokKind::Punct(b'[') => depth += 1,
            TokKind::Punct(b']') => {
                depth -= 1;
                if depth == 0 {
                    let is_test = is_bare_test || (is_cfg && mentions_test);
                    return Some((pos, is_test));
                }
            }
            TokKind::Punct(b'(') => {
                let prev = code.get(pos.wrapping_sub(1)).map(|&i| &toks[i]);
                if matches!(prev, Some(p) if p.kind == TokKind::Ident && p.text(src) == "not") {
                    not_depths.push(depth);
                }
                depth += 1;
            }
            TokKind::Punct(b')') => {
                depth -= 1;
                if not_depths.last() == Some(&depth) {
                    not_depths.pop();
                }
            }
            TokKind::Ident if t.text(src) == "test" && not_depths.is_empty() => {
                mentions_test = true;
            }
            _ => {}
        }
        pos += 1;
    }
}

/// From code position `cp` (just past a test attribute), the end byte
/// of the item: the matching `}` of its first top-level brace, or the
/// `;` of a bodyless item. Stacked attributes (`#[test] #[ignore] fn
/// ...`) are bracket groups, which [`parse::body_open`] steps over.
fn item_end(toks: &[Tok], code: &[usize], cp: usize) -> Option<usize> {
    let (open, is_brace) = parse::body_open(toks, code, cp)?;
    let end = if is_brace {
        parse::matching_brace(toks, code, open)?
    } else {
        open
    };
    Some(toks[code[end]].end)
}

fn tok_is(toks: &[Tok], code: &[usize], cp: usize, kind: TokKind) -> bool {
    matches!(code.get(cp), Some(&i) if toks[i].kind == kind)
}

/// All lintable `.rs` files under the workspace root, sorted. Walks
/// `crates/` and the root `src/`; skips test-class directories and the
/// vendored shims (see `SKIP_DIRS`).
pub fn workspace_files(root: &Path) -> Result<Vec<PathBuf>, LintError> {
    if !root.join("Cargo.toml").is_file() || !root.join("crates").is_dir() {
        return Err(LintError::NotAWorkspace {
            path: root.to_path_buf(),
        });
    }
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files)?;
    walk(&root.join("src"), &mut files)?;
    files.sort();
    Ok(files)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), LintError> {
    let entries = std::fs::read_dir(dir).map_err(|source| LintError::Io {
        path: dir.to_path_buf(),
        source,
    })?;
    for entry in entries {
        let entry = entry.map_err(|source| LintError::Io {
            path: dir.to_path_buf(),
            source,
        })?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) {
                continue;
            }
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lints every workspace source under `root`.
pub fn lint_workspace(root: &Path) -> Result<Report, LintError> {
    let files = workspace_files(root)?;
    let mut sources = Vec::with_capacity(files.len());
    for path in &files {
        sources.push((rel_of(root, path), read_source(path)?));
    }
    Ok(lint_sources(sources))
}

/// Lints explicit files. `rel_override`, when given, is the
/// workspace-relative path used for rule applicability (so a fixture
/// can be linted *as if* it lived at a governed path); give it with one
/// file only, since the report names each finding's file by that path.
pub fn lint_files(
    root: &Path,
    files: &[PathBuf],
    rel_override: Option<&str>,
) -> Result<Report, LintError> {
    let mut sources = Vec::with_capacity(files.len());
    for path in files {
        let rel = match rel_override {
            Some(r) => r.to_string(),
            None => rel_of(root, path),
        };
        sources.push((rel, read_source(path)?));
    }
    Ok(lint_sources(sources))
}

fn read_source(path: &Path) -> Result<String, LintError> {
    std::fs::read_to_string(path).map_err(|source| LintError::Io {
        path: path.to_path_buf(),
        source,
    })
}

/// Workspace-relative `/`-separated form of `path`.
pub fn rel_of(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    let parts: Vec<String> = rel
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect();
    parts.join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_names() {
        assert_eq!(crate_name_of("crates/core/src/build.rs"), "core");
        assert_eq!(crate_name_of("src/lib.rs"), "dvicl");
        assert_eq!(crate_name_of("weird/path.rs"), "");
    }

    #[test]
    fn findings_inside_cfg_test_are_dropped() {
        let src =
            "pub fn ok() {}\n#[cfg(test)]\nmod tests {\n    fn f() -> Result<u8, String> { Ok(0) }\n}\n";
        let (findings, _) = lint_source("crates/core/src/x.rs", src);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn cfg_not_test_is_not_a_test_item() {
        let src = "#[cfg(not(test))]\nfn f() -> Result<u8, String> { Ok(0) }\n";
        let (findings, _) = lint_source("crates/core/src/x.rs", src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, "error-taxonomy");
    }

    #[test]
    fn nested_test_submodules_are_covered() {
        let src = "#[cfg(test)]\nmod tests {\n    mod inner {\n        fn f() -> Result<u8, String> { Ok(0) }\n    }\n}\n";
        let (findings, _) = lint_source("crates/core/src/x.rs", src);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn well_formed_pragma_suppresses_and_counts() {
        let src = "fn f() -> Result<u8, String> { // dvicl-lint: allow(error-taxonomy) -- shown to users verbatim\n    Ok(0)\n}\n";
        let (findings, suppressed) = lint_source("crates/core/src/x.rs", src);
        assert!(findings.is_empty(), "{findings:?}");
        assert_eq!(suppressed, 1);
    }

    #[test]
    fn pragma_on_previous_line_suppresses() {
        let src = "// dvicl-lint: allow(error-taxonomy) -- shown to users verbatim\nfn f() -> Result<u8, String> {\n    Ok(0)\n}\n";
        let (findings, suppressed) = lint_source("crates/core/src/x.rs", src);
        assert!(findings.is_empty(), "{findings:?}");
        assert_eq!(suppressed, 1);
    }

    #[test]
    fn missing_reason_pragma_is_a_finding_and_suppresses_nothing() {
        let src =
            "fn f() -> Result<u8, String> { // dvicl-lint: allow(error-taxonomy)\n    Ok(0)\n}\n";
        let (findings, suppressed) = lint_source("crates/core/src/x.rs", src);
        assert_eq!(suppressed, 0);
        let rules: Vec<_> = findings.iter().map(|f| f.rule).collect();
        assert!(rules.contains(&PRAGMA_MISSING_REASON), "{rules:?}");
        assert!(rules.contains(&"error-taxonomy"), "{rules:?}");
    }

    #[test]
    fn unknown_rule_pragma_is_a_finding() {
        let src = "fn f() { // dvicl-lint: allow(no-such-rule) -- why not\n}\n";
        let (findings, _) = lint_source("crates/core/src/x.rs", src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].rule, PRAGMA_UNKNOWN_RULE);
    }

    #[test]
    fn pragma_that_suppresses_nothing_is_an_unsuppressible_finding() {
        // No error type on the line, a stringly error the rule cannot
        // see, and a pragma inside a test module where no rule runs: each
        // pragma is stale. A pragma cannot name the meta-rule to silence
        // it.
        let src = "fn f(x: usize) -> usize {\n    x + 1 // dvicl-lint: allow(error-taxonomy) -- no error\n}\n\
                   fn g() -> Result<u8, Box<str>> {\n    // dvicl-lint: allow(error-taxonomy, pragma-unused) -- invisible\n    Err(\"no\".into())\n}\n\
                   #[cfg(test)]\nmod tests {\n    // dvicl-lint: allow(error-taxonomy) -- test code\n    fn t() -> Result<u8, String> { Ok(0) }\n}\n";
        let (findings, suppressed) = lint_source("crates/core/src/x.rs", src);
        assert_eq!(suppressed, 0);
        let got: Vec<_> = findings.iter().map(|f| (f.rule, f.line)).collect();
        assert_eq!(
            got,
            [
                (PRAGMA_UNUSED, 2),
                (PRAGMA_UNKNOWN_RULE, 5),
                (PRAGMA_UNUSED, 5),
                (PRAGMA_UNUSED, 10),
            ],
            "{findings:?}"
        );
    }

    #[test]
    fn retired_rules_are_unknown_to_pragmas() {
        // Panic-freedom, the offline guard and narrowing casts are
        // clippy denials now, and the shared-state screen left with the
        // intra-build threads: a pragma naming any of them is stale and
        // must be flagged, not silently accepted.
        for rule in [
            "panic-freedom",
            "offline-guard",
            "narrowing-cast",
            "shared-state-screen",
        ] {
            let src = format!("fn f() {{ // dvicl-lint: allow({rule}) -- stale\n}}\n");
            let (findings, _) = lint_source("crates/core/src/x.rs", &src);
            assert_eq!(findings.len(), 1, "{rule}");
            assert_eq!(findings[0].rule, PRAGMA_UNKNOWN_RULE, "{rule}");
        }
    }
}
