//! `dvicl` — command-line interface to the DviCL canonical labeling
//! library.
//!
//! ```text
//! dvicl canon  <GRAPH>              certificate digest + canonical labeling
//! dvicl aut    <GRAPH>              |Aut(G)|, orbits, generators
//! dvicl iso    <GRAPH> <GRAPH>      isomorphism test (+ explicit mapping)
//! dvicl tree   <GRAPH> [--render]   AutoTree statistics (and the tree)
//! dvicl ssm    <GRAPH> <v,v,...>    symmetric images of a vertex set
//! dvicl ksym   <GRAPH> <k>          k-symmetric extension (edge list out)
//! dvicl quotient <GRAPH>            symmetry quotient + structure entropy
//! dvicl dataset <NAME>              emit a suite dataset as an edge list
//! dvicl convert <GRAPH>             edge list <-> graph6
//! dvicl batch  [QUERIES]            drain insert/lookup/groupsize queries
//! dvicl serve                       the same protocol, interactive
//! ```
//!
//! `<GRAPH>` is an edge-list file path, `-` for stdin (readable at most
//! once per invocation), or `g6:<string>` for an inline graph6 literal.
//!
//! Every subcommand accepts `--timeout <DUR>` (e.g. `100ms`, `5s`, `2m`)
//! and `--max-nodes <N>`, which govern the whole run under one shared
//! budget. Any other flag, or an argument past those a subcommand takes,
//! is a usage error. Exit codes: 0 success, 2 bad input or usage, 3
//! budget exceeded. When `--max-nodes` stops the divide-and-conquer
//! build, the run degrades to whole-graph labeling (still correct, noted
//! on stderr) instead of failing.
//!
//! Observability (DESIGN.md §9): `--stats` prints the counter and
//! phase-time report to stderr after the run; `--trace-json <path>`
//! streams newline-delimited JSON events plus a final summary object to
//! `path`. Either flag also enables span timing.
//!
//! Robustness (DESIGN.md §11): `--paranoid` re-checks every result
//! against its witness (canonical form against the root labeling, each
//! generator against its subgraph, each iso answer against the explicit
//! mapping) and exits 4 on a witness failure. `--fault-plan <SPEC>`
//! installs a deterministic fault-injection plan, e.g.
//! `trip@core.build_node:3`.
//!
//! Corpus service ([`batch`]): `batch` and `serve` answer
//! `insert`/`lookup`/`groupsize` queries against a canonical-fingerprint
//! index (`--index`/`--save` persist it as `DVIX1`), canonicalizing each
//! query once through a reusable session; `--req-timeout` and
//! `--req-max-nodes` cap every request with its own budget, and a failed
//! request answers `error: ...` inline instead of ending the service.

#![expect(
    clippy::disallowed_methods,
    reason = "the CLI owns its exit codes: a consumer closing stdout early ends the run quietly with status 0"
)]
// `print!`/`println!` panic when the consumer closes the pipe
// (`dvicl aut G | head`): stdout goes through `outln!`/`out!` or a
// handled `write!` only.
#![deny(clippy::print_stdout)]

mod batch;

use dvicl_core::ssm::{try_count_images, try_enumerate_images, SsmIndex};
use dvicl_core::{aut, build_autotree_resilient, iso, ksym, AutoTree, DviclOptions};
use dvicl_govern::{parse_duration, Budget, DviclError};
use dvicl_graph::{graph6, io as gio, Coloring, Graph, V};
use std::io::Read;
use std::process::ExitCode;

/// The options every subcommand runs with, parsed once from the global
/// flags and passed down explicitly.
pub(crate) struct RunOptions {
    /// The build options: the traces-like leaf IR configuration (the
    /// robust one on regular graphs).
    pub(crate) build: DviclOptions,
    /// `--paranoid`: every result is re-checked against its witness
    /// before being reported.
    pub(crate) paranoid: bool,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            build: DviclOptions {
                leaf_config: dvicl_canon::Config::traces_like(),
                ..DviclOptions::default()
            },
            paranoid: false,
        }
    }
}

/// Writes a line to stdout, exiting quietly with status 0 when the
/// consumer closed the pipe early — `dvicl aut G | head` is a normal
/// way to use the tool, not a panic.
macro_rules! outln {
    ($($arg:tt)*) => {{
        use std::io::Write as _;
        if writeln!(std::io::stdout(), $($arg)*).is_err() {
            std::process::exit(0);
        }
    }};
}

/// [`outln!`] without the trailing newline.
macro_rules! out {
    ($($arg:tt)*) => {{
        use std::io::Write as _;
        if write!(std::io::stdout(), $($arg)*).is_err() {
            std::process::exit(0);
        }
    }};
}

/// Streams `g` as an edge list to stdout. A consumer closing the pipe
/// early ends the program quietly (status 0); other I/O errors map into
/// the typed taxonomy.
fn emit_edge_list(g: &Graph) -> Result<(), DviclError> {
    match gio::write_edge_list(std::io::stdout(), g) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => std::process::exit(0),
        Err(e) => Err(DviclError::invalid(format!("writing edge list: {e}"))),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (args, budget, obs_cfg, opts) = match global_flags(args) {
        Ok(split) => split,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(e.exit_code());
        }
    };
    if let Err(e) = obs_cfg.activate() {
        eprintln!("error: {e}");
        return ExitCode::from(e.exit_code());
    }
    let code = match run(&args, &budget, &opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(msg)) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{}", usage());
            ExitCode::from(2)
        }
        Err(CliError::Lib(e)) => {
            eprintln!("error: {e}");
            ExitCode::from(e.exit_code())
        }
    };
    // Deliver the final summary to the installed sink even when the run
    // failed — a budget-tripped run's counters are exactly the
    // interesting ones.
    dvicl_obs::finish();
    if obs_cfg.stats && obs_cfg.trace_json.is_some() {
        // The JSON sink owns finish(); print the human report too.
        eprint!("{}", dvicl_obs::render_text(&dvicl_obs::summary()));
    }
    code
}

/// The observability selection parsed from the global flags.
#[derive(Default)]
struct ObsConfig {
    stats: bool,
    trace_json: Option<String>,
}

impl ObsConfig {
    /// Installs the selected sink and enables span timing. `--trace-json`
    /// wins the sink slot when both flags are given; `--stats` then
    /// prints its report directly at exit.
    fn activate(&self) -> Result<(), DviclError> {
        if let Some(path) = &self.trace_json {
            let sink = dvicl_obs::JsonSink::to_file(std::path::Path::new(path))
                .map_err(|e| DviclError::invalid(format!("--trace-json {path}: {e}")))?;
            dvicl_obs::install(Box::new(sink));
        } else if self.stats {
            dvicl_obs::install(Box::new(dvicl_obs::TextSink));
        }
        if self.stats || self.trace_json.is_some() {
            dvicl_obs::set_timing(true);
        }
        Ok(())
    }
}

fn usage() -> &'static str {
    "usage:\n  dvicl canon    <GRAPH>\n  dvicl aut      <GRAPH>\n  dvicl iso      <GRAPH> <GRAPH>\n  dvicl tree     <GRAPH> [--render]\n  dvicl ssm      <GRAPH> <v,v,...> [--limit N]\n  dvicl ksym     <GRAPH> <k>\n  dvicl quotient <GRAPH>\n  dvicl dataset  <NAME>\n  dvicl convert  <GRAPH>\n  dvicl batch    [--index P] [--save P] [--req-timeout D] [--req-max-nodes N] [QUERIES]\n  dvicl serve    [--index P] [--save P] [--req-timeout D] [--req-max-nodes N]\n\nGRAPH: edge-list path, '-' for stdin (at most once), or g6:<graph6-literal>\nQUERIES: lines of `insert|lookup|groupsize g6:<literal>|el:u-v,u-v,...`\n\nglobal flags (any subcommand):\n  --timeout <DUR>      wall-clock budget (100ms, 5s, 2m, ...)\n  --max-nodes <N>      work budget in search/build nodes\n  --stats              counter + phase-time report on stderr\n  --trace-json <PATH>  NDJSON events + summary to PATH\n  --paranoid           re-check every result against its witness\n  --fault-plan <SPEC>  deterministic fault injection (see DESIGN.md §11)\n\nexit codes: 0 ok, 2 bad input, 3 budget exceeded, 4 witness check failed"
}

/// A CLI failure: either a usage mistake (print the help text, exit 2)
/// or a typed library error (exit via [`DviclError::exit_code`]).
enum CliError {
    Usage(String),
    Lib(DviclError),
}

impl From<DviclError> for CliError {
    fn from(e: DviclError) -> Self {
        CliError::Lib(e)
    }
}

/// Strips the global flags (valid anywhere on the line) and builds the
/// run's shared budget, observability selection and run options from
/// them.
fn global_flags(
    args: Vec<String>,
) -> Result<(Vec<String>, Budget, ObsConfig, RunOptions), DviclError> {
    let mut rest = Vec::with_capacity(args.len());
    let mut timeout = None;
    let mut max_nodes = None;
    let mut obs_cfg = ObsConfig::default();
    let mut opts = RunOptions::default();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--timeout" => {
                let v = it
                    .next()
                    .ok_or_else(|| DviclError::invalid("--timeout needs a duration"))?;
                timeout = Some(parse_duration(&v)?);
            }
            "--max-nodes" => {
                let v = it
                    .next()
                    .ok_or_else(|| DviclError::invalid("--max-nodes needs a count"))?;
                max_nodes = Some(v.parse::<u64>().map_err(|_| {
                    DviclError::invalid(format!("--max-nodes: not a count: {v:?}"))
                })?);
            }
            "--stats" => obs_cfg.stats = true,
            "--paranoid" => opts.paranoid = true,
            "--fault-plan" => {
                let v = it
                    .next()
                    .ok_or_else(|| DviclError::invalid("--fault-plan needs a plan spec"))?;
                dvicl_govern::fault::install(dvicl_govern::FaultPlan::parse(&v)?);
            }
            "--trace-json" => {
                let v = it
                    .next()
                    .ok_or_else(|| DviclError::invalid("--trace-json needs a file path"))?;
                obs_cfg.trace_json = Some(v);
            }
            _ => rest.push(a),
        }
    }
    Ok((rest, Budget::new(timeout, max_nodes), obs_cfg, opts))
}

fn run(args: &[String], budget: &Budget, opts: &RunOptions) -> Result<(), CliError> {
    let cmd = args
        .first()
        .ok_or_else(|| CliError::Usage("missing subcommand".into()))?;
    let mut loader = Loader::default();
    let ld = &mut loader;
    let mut sub = SubArgs(args[1..].iter().map(String::as_str).collect());
    match cmd.as_str() {
        "canon" => {
            let [g] = sub.positionals()?;
            canon(ld, g, budget, opts)
        }
        "aut" => {
            let [g] = sub.positionals()?;
            automorphisms(ld, g, budget, opts)
        }
        "iso" => {
            let [a, b] = sub.positionals()?;
            isomorphic(ld, a, b, budget, opts)
        }
        "tree" => {
            let render = sub.switch("--render");
            let [g] = sub.positionals()?;
            tree(ld, g, render, budget, opts)
        }
        "ssm" => {
            let limit = sub
                .value("--limit")?
                .map(|v| {
                    v.parse::<usize>()
                        .map_err(|_| CliError::Usage(format!("--limit: not a count: {v:?}")))
                })
                .transpose()?;
            let [g, set] = sub.positionals()?;
            ssm(ld, g, set, limit, budget, opts)
        }
        "ksym" => {
            let [g, k] = sub.positionals()?;
            ksym_cmd(ld, g, k, budget, opts)
        }
        "quotient" => {
            let [g] = sub.positionals()?;
            quotient_cmd(ld, g, budget, opts)
        }
        "dataset" => {
            let [name] = sub.positionals()?;
            dataset(name)
        }
        "convert" => {
            let [g] = sub.positionals()?;
            convert(ld, g, budget)
        }
        "batch" => batch::batch(&args[1..], opts),
        "serve" => batch::serve(&args[1..], opts),
        other => Err(CliError::Usage(format!("unknown subcommand `{other}`"))),
    }
}

/// True for a token that names a flag: anything starting with `-`
/// except the stdin marker `-` itself.
pub(crate) fn is_flag(token: &str) -> bool {
    token.starts_with('-') && token != "-"
}

/// The usage error for a token a subcommand does not accept: an
/// unknown flag or a surplus positional argument.
pub(crate) fn reject(token: &str) -> CliError {
    if is_flag(token) {
        CliError::Usage(format!("unknown flag `{token}`"))
    } else {
        CliError::Usage(format!("unexpected argument `{token}`"))
    }
}

/// The arguments after a one-shot subcommand's name. The subcommand
/// takes out the flags it accepts, then [`SubArgs::positionals`]
/// demands exactly its positional arguments, so any token left over is
/// a usage error naming it.
struct SubArgs<'a>(Vec<&'a str>);

impl<'a> SubArgs<'a> {
    /// Takes out every `name`; true if there was one.
    fn switch(&mut self, name: &str) -> bool {
        let before = self.0.len();
        self.0.retain(|&a| a != name);
        self.0.len() != before
    }

    /// Takes out `name <VALUE>` and returns the value.
    fn value(&mut self, name: &str) -> Result<Option<&'a str>, CliError> {
        let Some(i) = self.0.iter().position(|&a| a == name) else {
            return Ok(None);
        };
        if i + 1 == self.0.len() {
            return Err(CliError::Usage(format!("{name} needs a value")));
        }
        let v = self.0.remove(i + 1);
        self.0.remove(i);
        Ok(Some(v))
    }

    /// Exactly `N` positional arguments, in order.
    fn positionals<const N: usize>(&self) -> Result<[&'a str; N], CliError> {
        if let Some(&bad) = self.0.iter().find(|a| is_flag(a)) {
            return Err(reject(bad));
        }
        if let Some(&extra) = self.0.get(N) {
            return Err(reject(extra));
        }
        <[&str; N]>::try_from(self.0.as_slice())
            .map_err(|_| CliError::Usage(format!("missing argument #{}", self.0.len() + 1)))
    }
}

/// Loads graph arguments, reading stdin at most once per process: a
/// second `-` is a typed error, not a silent empty graph.
#[derive(Default)]
struct Loader {
    stdin_used: bool,
}

impl Loader {
    fn load(&mut self, spec: &str) -> Result<Graph, DviclError> {
        if let Some(g6) = spec.strip_prefix("g6:") {
            return graph6::from_graph6(g6);
        }
        if spec == "-" {
            if self.stdin_used {
                return Err(DviclError::invalid(
                    "stdin (`-`) was already consumed by an earlier argument; \
                     pass the second graph as a file or g6:<literal>",
                ));
            }
            self.stdin_used = true;
            let mut buf = String::new();
            std::io::stdin()
                .read_to_string(&mut buf)
                .map_err(|e| DviclError::invalid(format!("reading stdin: {e}")))?;
            return load_text(&buf);
        }
        let text = std::fs::read_to_string(spec)
            .map_err(|e| DviclError::invalid(format!("{spec}: {e}")))?;
        load_text(&text)
    }
}

fn load_text(text: &str) -> Result<Graph, DviclError> {
    // Heuristic: a single token without whitespace separators on the first
    // non-comment line is graph6; otherwise an edge list.
    let first = text
        .lines()
        .find(|l| !l.trim().is_empty() && !l.starts_with('#') && !l.starts_with('%'));
    match first {
        Some(line) if !line.trim().contains(char::is_whitespace) => {
            graph6::from_graph6(line.trim())
        }
        _ => gio::read_edge_list(text.as_bytes()).map(|l| l.graph),
    }
}

fn build(g: &Graph, budget: &Budget, opts: &RunOptions) -> Result<AutoTree, DviclError> {
    let outcome = build_autotree_resilient(g, &Coloring::unit(g.n()), &opts.build, budget)?;
    if outcome.degraded {
        eprintln!("note: node budget exhausted; degraded to whole-graph labeling");
    }
    if opts.paranoid {
        // Degraded trees go through the same checks as full ones: the
        // witness contract does not weaken under degradation.
        dvicl_core::verify::verify_tree(g, &outcome.tree)?;
        eprintln!("paranoid: tree witness checks passed");
    }
    Ok(outcome.tree)
}

fn canon(ld: &mut Loader, spec: &str, budget: &Budget, opts: &RunOptions) -> Result<(), CliError> {
    let g = ld.load(spec)?;
    let tree = build(&g, budget, opts)?;
    let labeling = tree.canonical_labeling();
    let canonical = g.permuted(&labeling);
    outln!("n: {}  m: {}", g.n(), g.m());
    outln!(
        "certificate (canonical graph6): {}",
        graph6::to_graph6(&canonical)
    );
    outln!("canonical labeling: {labeling}");
    Ok(())
}

fn automorphisms(
    ld: &mut Loader,
    spec: &str,
    budget: &Budget,
    opts: &RunOptions,
) -> Result<(), CliError> {
    let g = ld.load(spec)?;
    let tree = build(&g, budget, opts)?;
    outln!("|Aut(G)| = {}", aut::try_group_order(&tree, budget)?);
    let mut orbits = aut::orbits(&tree);
    outln!(
        "orbits: {} ({} singletons)",
        orbits.count(),
        orbits.count_singletons()
    );
    let gens = aut::generators(&tree);
    outln!("generators ({}):", gens.len());
    for gen in gens.iter().take(50) {
        outln!("  {gen}");
    }
    if gens.len() > 50 {
        outln!("  ... {} more", gens.len() - 50);
    }
    Ok(())
}

fn isomorphic(
    ld: &mut Loader,
    a: &str,
    b: &str,
    budget: &Budget,
    opts: &RunOptions,
) -> Result<(), CliError> {
    let (ga, gb) = (ld.load(a)?, ld.load(b)?);
    let outcome = iso::try_find_isomorphism_outcome(&ga, &gb, &opts.build, budget)?;
    if outcome.degraded {
        // Same marker contract as `build`: a degraded answer is still
        // correct but the caller must be able to see it happened.
        eprintln!("note: node budget exhausted; degraded to whole-graph labeling");
    }
    match outcome.mapping {
        Some(gamma) => {
            if opts.paranoid {
                dvicl_core::verify::verify_iso(&ga, &gb, &gamma)?;
                eprintln!("paranoid: iso mapping witness checks passed");
            }
            outln!("isomorphic: yes");
            outln!("mapping: {gamma}");
            Ok(())
        }
        None => {
            outln!("isomorphic: no");
            Ok(())
        }
    }
}

fn tree(
    ld: &mut Loader,
    spec: &str,
    render: bool,
    budget: &Budget,
    opts: &RunOptions,
) -> Result<(), CliError> {
    let g = ld.load(spec)?;
    let t = build(&g, budget, opts)?;
    let s = t.stats();
    outln!(
        "nodes: {}  singleton leaves: {}  non-singleton leaves: {} (avg size {:.2}, max {})  depth: {}",
        s.total_nodes,
        s.singleton_leaves,
        s.non_singleton_leaves,
        s.avg_non_singleton_size,
        s.max_non_singleton_size,
        s.depth
    );
    if render {
        out!("{}", t.render());
    }
    Ok(())
}

fn ssm(
    ld: &mut Loader,
    spec: &str,
    set: &str,
    limit: Option<usize>,
    budget: &Budget,
    opts: &RunOptions,
) -> Result<(), CliError> {
    let g = ld.load(spec)?;
    let set: Vec<V> = set
        .split(',')
        .map(|t| {
            t.trim()
                .parse::<V>()
                .map_err(|_| DviclError::invalid(format!("not a vertex id: {t:?}")))
        })
        .collect::<Result<_, _>>()?;
    let tree = build(&g, budget, opts)?;
    let index = SsmIndex::new(&tree);
    outln!(
        "images under Aut(G): {}",
        try_count_images(&tree, &index, &set, budget)?.to_scientific()
    );
    let limit = limit.unwrap_or(20);
    let res = try_enumerate_images(&tree, &index, &set, limit, budget)?;
    outln!(
        "first {} matches{}:",
        res.matches.len(),
        if res.truncated { "" } else { " (complete)" }
    );
    for m in &res.matches {
        outln!("  {m:?}");
    }
    Ok(())
}

fn ksym_cmd(
    ld: &mut Loader,
    spec: &str,
    k: &str,
    budget: &Budget,
    opts: &RunOptions,
) -> Result<(), CliError> {
    let g = ld.load(spec)?;
    let k: usize = k
        .parse()
        .map_err(|_| DviclError::invalid(format!("k must be a positive integer, got {k:?}")))?;
    let tree = build(&g, budget, opts)?;
    let (g2, stats) = ksym::try_k_symmetric_extension(&g, &tree, k, budget)?;
    eprintln!(
        "k={k}: +{} vertices, +{} edges ({} classes duplicated)",
        stats.added_vertices, stats.added_edges, stats.duplicated_classes
    );
    emit_edge_list(&g2)?;
    Ok(())
}

fn quotient_cmd(
    ld: &mut Loader,
    spec: &str,
    budget: &Budget,
    opts: &RunOptions,
) -> Result<(), CliError> {
    let g = ld.load(spec)?;
    let tree = build(&g, budget, opts)?;
    let q = dvicl_apps::quotient::quotient(&g, &tree);
    let e = dvicl_apps::quotient::structure_entropy(&g, &tree);
    outln!(
        "G: n = {}, m = {}   quotient: n = {}, m = {}   entropy = {e:.4}",
        g.n(),
        g.m(),
        q.graph.n(),
        q.graph.m()
    );
    Ok(())
}

fn dataset(name: &str) -> Result<(), CliError> {
    let all = dvicl_data::social_suite()
        .into_iter()
        .chain(dvicl_data::benchmark_suite());
    for d in all {
        if d.name.eq_ignore_ascii_case(name) {
            let g = (d.build)();
            return emit_edge_list(&g).map_err(CliError::from);
        }
    }
    Err(DviclError::invalid(format!(
        "unknown dataset `{name}`; known: {}",
        dvicl_data::social_suite()
            .iter()
            .chain(dvicl_data::benchmark_suite().iter())
            .map(|d| d.name)
            .collect::<Vec<_>>()
            .join(", ")
    ))
    .into())
}

fn convert(ld: &mut Loader, spec: &str, budget: &Budget) -> Result<(), CliError> {
    budget.check()?;
    let g = ld.load(spec)?;
    if spec.starts_with("g6:") {
        emit_edge_list(&g)?;
        Ok(())
    } else {
        outln!("{}", graph6::to_graph6(&g));
        Ok(())
    }
}
