//! `dvicl-lint` CLI: lint the workspace (default) or explicit files.
//!
//! Exit codes: 0 clean, 1 findings, 2 the lint run itself failed
//! (bad arguments, unreadable file, root not found).

use dvicl_lint::{lint_files, lint_workspace, rules};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
dvicl-lint — static invariant checker for the DviCL workspace

USAGE:
    dvicl-lint [OPTIONS] [FILES...]

With no FILES, lints every non-test source in the workspace.

OPTIONS:
    --root <DIR>    Workspace root (default: autodetected)
    --as <REL>      Lint the one given FILE as if it lived at this
                    workspace-relative path (fixture testing)
    --format <FMT>  Report format: human (default) or github
                    (GitHub Actions ::error annotations)
    --list-rules    Print the rule catalog and exit
    -h, --help      Show this help
";

struct Args {
    root: Option<PathBuf>,
    rel_override: Option<String>,
    github: bool,
    list_rules: bool,
    help: bool,
    files: Vec<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: None,
        rel_override: None,
        github: false,
        list_rules: false,
        help: false,
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
                Some("human") => args.github = false,
                Some("github") => args.github = true,
                Some(other) => {
                    return Err(format!(
                        "unknown format `{other}` (expected human or github)"
                    ))
                }
                None => return Err("--format needs human or github".to_string()),
            },
            "--list-rules" => args.list_rules = true,
            "-h" | "--help" => args.help = true,
            f if !f.starts_with('-') => args.files.push(PathBuf::from(f)),
            other => return Err(format!("unknown flag `{other}` (see --help)")),
        }
    }
    // Findings name their file by the `--as` path, so two files under
    // one path could not be told apart in the report.
    if args.rel_override.is_some() && args.files.len() != 1 {
        return Err("--as lints exactly one file".to_string());
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
    if args.help {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    if args.list_rules {
        let file_rules = rules::catalog().iter().map(|m| (m.id, m.summary));
        for (id, summary) in file_rules.chain(dvicl_lint::META_RULES) {
            println!("{id:<22} {summary}");
        }
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
    if args.github {
        print!("{}", report.github());
    } else {
        print!("{}", report.human());
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
