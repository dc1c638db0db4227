//! `dvicl-lint` CLI: lint the workspace (default) or explicit files.
//!
//! Exit codes: 0 clean, 1 findings, 2 the lint run itself failed
//! (bad arguments, unreadable file, root not found).

use dvicl_lint::{lint_files, lint_workspace, rules};
use std::path::PathBuf;
// dvicl-lint: allow(offline-guard) -- exit-code plumbing only; the linter never spawns processes
use std::process::ExitCode;

const USAGE: &str = "\
dvicl-lint — static invariant checker for the DviCL workspace

USAGE:
    dvicl-lint [OPTIONS] [FILES...]

With no FILES, lints every non-test source in the workspace.

OPTIONS:
    --root <DIR>    Workspace root (default: autodetected)
    --as <REL>      Lint the given FILES as if they lived at this
                    workspace-relative path (fixture testing)
    --format <FMT>  Report format: human (default), json, or github
                    (GitHub Actions ::error annotations)
    --json          Shorthand for --format json
    --list-rules    Print the rule catalog and exit
    -h, --help      Show this help
";

#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    Human,
    Json,
    Github,
}

struct Args {
    root: Option<PathBuf>,
    rel_override: Option<String>,
    format: Format,
    list_rules: bool,
    files: Vec<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: None,
        rel_override: None,
        format: Format::Human,
        list_rules: false,
        files: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--root" => match it.next() {
                Some(v) => args.root = Some(PathBuf::from(v)),
                None => return Err("--root needs a directory argument".to_string()),
            },
            "--as" => match it.next() {
                Some(v) => args.rel_override = Some(v),
                None => return Err("--as needs a workspace-relative path".to_string()),
            },
            "--format" => match it.next().as_deref() {
                Some("human") => args.format = Format::Human,
                Some("json") => args.format = Format::Json,
                Some("github") => args.format = Format::Github,
                Some(other) => {
                    return Err(format!(
                        "unknown format `{other}` (expected human, json, or github)"
                    ))
                }
                None => return Err("--format needs human, json, or github".to_string()),
            },
            "--json" => args.format = Format::Json,
            "--list-rules" => args.list_rules = true,
            "-h" | "--help" => {
                print!("{USAGE}");
                // dvicl-lint: allow(offline-guard) -- exit-code plumbing only
                std::process::exit(0);
            }
            f if !f.starts_with('-') => args.files.push(PathBuf::from(f)),
            other => return Err(format!("unknown flag `{other}` (see --help)")),
        }
    }
    Ok(args)
}

/// The workspace root: `--root`, else two levels above this crate's
/// manifest (cargo sets `CARGO_MANIFEST_DIR` for `cargo run`), else the
/// first ancestor of the current directory holding `Cargo.toml` and
/// `crates/`.
fn find_root(explicit: Option<PathBuf>) -> Option<PathBuf> {
    if let Some(r) = explicit {
        return Some(r);
    }
    if let Ok(manifest) = std::env::var("CARGO_MANIFEST_DIR") {
        let p = PathBuf::from(manifest);
        if let Some(root) = p.parent().and_then(|p| p.parent()) {
            if root.join("Cargo.toml").is_file() && root.join("crates").is_dir() {
                return Some(root.to_path_buf());
            }
        }
    }
    let mut cur = std::env::current_dir().ok()?;
    loop {
        if cur.join("Cargo.toml").is_file() && cur.join("crates").is_dir() {
            return Some(cur);
        }
        if !cur.pop() {
            return None;
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dvicl-lint: {e}");
            return ExitCode::from(2);
        }
    };
    if args.list_rules {
        for meta in rules::catalog() {
            println!("{:<18} [{}] {}", meta.id, meta.severity.as_str(), meta.summary);
        }
        for meta in rules::ws_catalog() {
            println!("{:<18} [{}] {}", meta.id, meta.severity.as_str(), meta.summary);
        }
        println!(
            "{:<18} [deny] pragma without a `-- reason` tail (emitted by the engine)",
            dvicl_lint::PRAGMA_MISSING_REASON
        );
        println!(
            "{:<18} [deny] pragma naming an unknown rule (emitted by the engine)",
            dvicl_lint::PRAGMA_UNKNOWN_RULE
        );
        return ExitCode::SUCCESS;
    }
    let Some(root) = find_root(args.root) else {
        eprintln!("dvicl-lint: cannot locate the workspace root; pass --root");
        return ExitCode::from(2);
    };
    let report = if args.files.is_empty() {
        lint_workspace(&root)
    } else {
        lint_files(&root, &args.files, args.rel_override.as_deref())
    };
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("dvicl-lint: {e}");
            return ExitCode::from(2);
        }
    };
    match args.format {
        Format::Json => println!("{}", report.json()),
        Format::Github => print!("{}", report.github()),
        Format::Human => print!("{}", report.human()),
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
