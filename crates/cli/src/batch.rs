//! The batch isomorphism service: `dvicl batch` and `dvicl serve`.
//!
//! Both subcommands run the same line protocol over a
//! [`FingerprintIndex`], canonicalizing queries through one reusable
//! [`Session`] so its working buffers amortize across the whole stream
//! (each request costs exactly one canonicalization plus one hash probe
//! — DESIGN.md §13):
//!
//! ```text
//! insert    <GRAPH>     add to the index; prints class, member count, fresh/known
//! lookup    <GRAPH>     find the query's isomorphism class, if indexed
//! groupsize <GRAPH>     member count of the query's class, if indexed
//! quit                  (serve only) save and exit
//! ```
//!
//! `<GRAPH>` is `g6:<graph6-literal>` or `el:u-v,u-v,...` (an inline
//! edge list; vertex count inferred). Blank lines and `#` comments are
//! skipped. One response line per request. Each request runs under its
//! own budget with the global `--timeout` and `--max-nodes` limits, so a
//! hostile query trips its own typed error without starving the rest of
//! the stream. A request that fails — malformed graph, tripped budget,
//! witness failure — answers `error: ...` inline and the service keeps
//! going with exit code 0. Only process-level failures (unusable index
//! file, bad flags, failed save) terminate with a typed exit code.
//!
//! `batch` drains a query file (or stdin) and exits; `serve` flushes
//! after every response so a driving process can speak the protocol
//! interactively.

use crate::{is_flag, reject, CliError, RunOptions};
use dvicl_core::Session;
use dvicl_govern::{Budget, DviclError};
use dvicl_graph::{graph6, io as gio, CanonForm, Fingerprint, Graph};
use dvicl_index::FingerprintIndex;
use dvicl_obs::{self as obs, Phase};
use std::io::{BufRead, Write};
use std::path::Path;

/// Flags shared by `batch` and `serve`.
struct ServiceOpts {
    /// `--index PATH`: preload this `DVIX1` file.
    index: Option<String>,
    /// `--save PATH`: write the final index here on clean exit.
    save: Option<String>,
    /// Positional query file (`batch` only; stdin when absent).
    input: Option<String>,
}

impl ServiceOpts {
    fn parse(args: &[String], positional_input: bool) -> Result<ServiceOpts, CliError> {
        let mut opts = ServiceOpts {
            index: None,
            save: None,
            input: None,
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let value = |it: &mut std::slice::Iter<String>, flag: &str| {
                it.next()
                    .cloned()
                    .ok_or_else(|| CliError::Usage(format!("{flag} needs a value")))
            };
            match a.as_str() {
                "--index" => opts.index = Some(value(&mut it, "--index")?),
                "--save" => opts.save = Some(value(&mut it, "--save")?),
                other if positional_input && opts.input.is_none() && !is_flag(other) => {
                    opts.input = Some(a.clone());
                }
                other => return Err(reject(other)),
            }
        }
        Ok(opts)
    }
}

/// The mutable service state threaded through every request line.
struct Service {
    session: Session,
    index: FingerprintIndex,
    /// `--paranoid`: witness-check every index insert and load.
    paranoid: bool,
    requests: u64,
    errors: u64,
}

impl Service {
    fn new(opts: &ServiceOpts, run: &RunOptions) -> Result<Service, DviclError> {
        let index = match &opts.index {
            Some(path) => FingerprintIndex::load(Path::new(path), run.paranoid)?,
            None => FingerprintIndex::new(),
        };
        // Every request builds with the same options as the other
        // subcommands.
        Ok(Service {
            session: Session::new(run.build.clone()),
            index,
            paranoid: run.paranoid,
            requests: 0,
            errors: 0,
        })
    }

    /// Parses an inline graph spec: `g6:<literal>` or `el:u-v,...`.
    fn parse_graph(spec: &str) -> Result<Graph, DviclError> {
        if let Some(g6) = spec.strip_prefix("g6:") {
            return graph6::from_graph6(g6);
        }
        if let Some(el) = spec.strip_prefix("el:") {
            // `0-1,1-2` becomes the edge-list text `0 1\n1 2\n`, so the
            // inline form reuses the hardened reader and its typed errors.
            let text: String = el
                .split(',')
                .map(|edge| edge.replacen('-', " ", 1))
                .collect::<Vec<_>>()
                .join("\n");
            return gio::read_edge_list(text.as_bytes()).map(|l| l.graph);
        }
        Err(DviclError::invalid(format!(
            "graph spec must start with g6: or el:, got {spec:?}"
        )))
    }

    /// One canonicalization, one fingerprint: the cost of every request
    /// regardless of index size.
    fn key(&mut self, spec: &str, budget: &Budget) -> Result<(Fingerprint, CanonForm), DviclError> {
        let g = Service::parse_graph(spec)?;
        self.session.try_fingerprinted_form(&g, budget)
    }

    /// Answers one request line; `None` for blank lines and comments.
    fn respond(&mut self, line: &str, budget: &Budget) -> Option<String> {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return None;
        }
        self.requests += 1;
        let mut tokens = line.split_whitespace();
        let cmd = tokens.next()?;
        let answer = match (cmd, tokens.next(), tokens.next()) {
            (_, _, Some(extra)) => Err(DviclError::invalid(format!(
                "trailing token {extra:?} after the graph spec"
            ))),
            ("insert", Some(spec), None) => self.key(spec, budget).and_then(|(fp, form)| {
                let out = self.index.insert(fp, form, self.paranoid)?;
                Ok(format!(
                    "insert: class={} members={} {}",
                    out.class,
                    out.members,
                    if out.fresh { "fresh" } else { "known" }
                ))
            }),
            ("lookup", Some(spec), None) => {
                self.key(spec, budget)
                    .map(|(fp, form)| match self.index.lookup(fp, &form) {
                        Some(class) => format!(
                            "lookup: class={class} members={}",
                            self.index.classes()[class].members
                        ),
                        None => "lookup: not-indexed".to_string(),
                    })
            }
            ("groupsize", Some(spec), None) => {
                self.key(spec, budget)
                    .map(|(fp, form)| match self.index.group_size(fp, &form) {
                        Some(members) => format!("groupsize: {members}"),
                        None => "groupsize: not-indexed".to_string(),
                    })
            }
            (cmd @ ("insert" | "lookup" | "groupsize"), None, None) => {
                Err(DviclError::invalid(format!("{cmd} needs a graph spec")))
            }
            (other, _, None) => Err(DviclError::invalid(format!(
                "unknown request `{other}` (expected insert/lookup/groupsize)"
            ))),
        };
        Some(answer.unwrap_or_else(|e| {
            self.errors += 1;
            format!("error: {e}")
        }))
    }

    /// Clean-exit bookkeeping: optional save, then a stream summary on
    /// stderr (stdout carries only protocol responses).
    fn finish(&self, opts: &ServiceOpts) -> Result<(), DviclError> {
        if let Some(path) = &opts.save {
            self.index.save(Path::new(path))?;
        }
        eprintln!(
            "served {} requests ({} errors); index: {} classes, {} members",
            self.requests,
            self.errors,
            self.index.len(),
            self.index.members_total()
        );
        Ok(())
    }
}

/// Writes one response line. A closed pipe is a normal end of service
/// (same contract as the `outln!` macro).
fn respond_line(out: &mut impl Write, line: &str) -> Result<(), CliError> {
    writeln!(out, "{line}").map_err(|_| CliError::Closed)
}

/// `dvicl batch [FLAGS] [QUERIES]` — drain a query file (stdin when
/// absent) and exit.
pub(crate) fn batch(args: &[String], run: &RunOptions) -> Result<(), CliError> {
    let _span = obs::span(Phase::CliBatch);
    let opts = ServiceOpts::parse(args, true)?;
    let mut service = Service::new(&opts, run)?;
    let text = match opts.input.as_deref() {
        Some("-") | None => {
            let mut buf = String::new();
            std::io::Read::read_to_string(&mut std::io::stdin(), &mut buf)
                .map_err(|e| DviclError::invalid(format!("reading stdin: {e}")))?;
            buf
        }
        Some(path) => std::fs::read_to_string(path)
            .map_err(|e| DviclError::invalid(format!("{path}: {e}")))?,
    };
    let stdout = std::io::stdout();
    let mut out = std::io::BufWriter::new(stdout.lock());
    for line in text.lines() {
        if let Some(answer) = service.respond(line, &run.budget()) {
            respond_line(&mut out, &answer)?;
        }
    }
    out.flush().map_err(|_| CliError::Closed)?;
    drop(out);
    service.finish(&opts)?;
    Ok(())
}

/// `dvicl serve [FLAGS]` — answer stdin line by line, flushing per
/// response, until `quit` or end of input.
pub(crate) fn serve(args: &[String], run: &RunOptions) -> Result<(), CliError> {
    let _span = obs::span(Phase::CliServe);
    let opts = ServiceOpts::parse(args, false)?;
    let mut service = Service::new(&opts, run)?;
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for line in stdin.lock().lines() {
        let line = line.map_err(|e| DviclError::invalid(format!("reading stdin: {e}")))?;
        if line.trim() == "quit" {
            break;
        }
        if let Some(answer) = service.respond(&line, &run.budget()) {
            respond_line(&mut out, &answer)?;
            out.flush().map_err(|_| CliError::Closed)?;
        }
    }
    service.finish(&opts)?;
    Ok(())
}
