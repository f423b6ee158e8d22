//! `discoverxfd` — command-line interface to the DiscoverXFD system.
//!
//! Subcommands: `discover` (FDs/keys/redundancies, with `--approx`,
//! `--inds`, `--json`/`--markdown`, `--suggest`), `check` (verify one FD
//! with witnesses), `normalize` (XNF refactoring), `diff` (schema +
//! constraint drift), `select` (XPath-lite), `profile` (column stats),
//! `schema` (nested representation or `--xsd`), `encode` (Figure 6 view),
//! `flat` (the Section 4.1 baseline), `dot` (Graphviz) and `gen`
//! (datasets). Run with no arguments for the full usage text.

use std::process::ExitCode;

use discoverxfd::approximate::discover_approximate_forest;
use discoverxfd::baseline::{discover_flat, BaselineOptions};
use discoverxfd::report::{render_json, render_markdown, render_text, RenderOptions};
use discoverxfd::{discover_with_schema, DiscoveryConfig, RunOutcome};
use xfd_datagen as datagen;
use xfd_relation::{encode, EncodeConfig, OrderMode, SetColumnMode};
use xfd_schema::{infer_schema, nested_representation};
use xfd_xml::{parse, to_xml_string, DataTree};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  discoverxfd discover <file.xml> [--max-lhs N] [--no-sets] [--no-inter] [--ordered]
                                  [--approx EPS] [--inds] [--cover] [--keep-uninteresting]
                                  [--threads N] [--cache-budget BYTES]
                                  [--suggest] [--markdown|--json]
  discoverxfd schema   <file.xml> [--xsd]
  discoverxfd encode   <file.xml>
  discoverxfd flat     <file.xml> [--max-rows N] [--max-lhs N]
  discoverxfd gen      <warehouse|xmark|dblp|psd|mondial> [--scale F] [--seed N]
  discoverxfd check    <file.xml> \"{./lhs, ...} -> ./rhs w.r.t. C_class\"
  discoverxfd normalize <file.xml> [--max-rounds N]   (writes refactored XML to stdout)
  discoverxfd dot      <file.xml> [--fds]             (Graphviz of the forest, or the FD graph)
  discoverxfd diff     <old.xml> <new.xml>            (constraint drift between versions)
  discoverxfd select   <file.xml> \"/site//item[category='books']/name\"
  discoverxfd profile  <file.xml>                     (column statistics)
  discoverxfd serve    [--addr HOST:PORT] [--workers N] [--queue-depth N]
                       [--result-cache-budget BYTES] [--body-limit BYTES]
                       [--request-timeout SECS] [--corpus-root DIR]
                       [--cluster-workers N] [--remote HOST:PORT,...]
                       [--cluster-token T] [--pool-idle-secs SECS]
                       (HTTP discovery daemon; cluster workers stay warm between requests)
  discoverxfd corpus create <corpus> [--root DIR]
  discoverxfd corpus add <corpus> <file.xml> [--name DOC] [--root DIR]
  discoverxfd corpus rm <corpus> <doc> [--root DIR]
  discoverxfd corpus discover <corpus> [--root DIR] [--json|--markdown] [--progress]
                              [--max-lhs N] [--no-inter] [--keep-uninteresting]
                              [--threads N] [--cache-budget BYTES] [--memo-budget BYTES]
  discoverxfd corpus compact <corpus> [--root DIR]    (merge segments into one)
  discoverxfd corpus status <corpus> [--root DIR]
  discoverxfd corpus list [--root DIR]
                       (persistent multi-document corpora; default root ./corpora)
  discoverxfd cluster discover <corpus> [--root DIR] [--workers N] [--worker-timeout SECS]
                               [--remote HOST:PORT,...] [--token T]
                               [--json|--markdown] [--max-lhs N] [--no-inter]
                               [--keep-uninteresting] [--threads N] [--cache-budget BYTES]
                               [--memo-budget BYTES]
                       (corpus discovery sharded over worker subprocesses / remote hosts)
  discoverxfd worker   (--socket <path> | --listen HOST:PORT) [--index N] [--token T]
                       [--seg-cache DIR] [--seg-cache-budget BYTES] [--no-shared-storage]
                       (cluster worker; spawned internally, or started by hand for TCP)";

fn run(args: &[String]) -> Result<(), String> {
    let Some(cmd) = args.first() else {
        return Err("missing subcommand".into());
    };
    let rest = &args[1..];
    match cmd.as_str() {
        "discover" => cmd_discover(rest),
        "schema" => cmd_schema(rest),
        "encode" => cmd_encode(rest),
        "flat" => cmd_flat(rest),
        "gen" => cmd_gen(rest),
        "check" => cmd_check(rest),
        "normalize" => cmd_normalize(rest),
        "dot" => cmd_dot(rest),
        "diff" => cmd_diff(rest),
        "select" => cmd_select(rest),
        "profile" => cmd_profile(rest),
        "serve" => cmd_serve(rest),
        "corpus" => cmd_corpus(rest),
        "cluster" => cmd_cluster(rest),
        "worker" => cmd_worker(rest),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown subcommand {other:?}")),
    }
}

fn load(path: &str) -> Result<DataTree, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn opt_value<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    for (i, a) in args.iter().enumerate() {
        if a == name {
            let v = args
                .get(i + 1)
                .ok_or_else(|| format!("{name} requires a value"))?;
            return v
                .parse::<T>()
                .map(Some)
                .map_err(|_| format!("invalid value for {name}: {v:?}"));
        }
    }
    Ok(None)
}

/// Reject any `--option` the subcommand does not know; a typo in a flag
/// must be a hard error, not a silently ignored no-op.
fn check_flags(args: &[String], allowed: &[&str]) -> Result<(), String> {
    for a in args {
        if a.starts_with("--") && !allowed.contains(&a.as_str()) {
            return Err(format!("unknown option {a:?}"));
        }
    }
    Ok(())
}

fn positional(args: &[String], idx: usize) -> Result<&str, String> {
    args.iter()
        .filter(|a| !a.starts_with("--"))
        // Values of --opts also don't start with --, but all our value
        // options are numeric; positional paths come first in practice.
        .nth(idx)
        .map(String::as_str)
        .ok_or_else(|| "missing argument".to_string())
}

/// Boolean flags of every discovery job: `discover`, `corpus discover`
/// and `cluster discover`.
const DISCOVERY_FLAGS: [&str; 4] = ["--no-inter", "--keep-uninteresting", "--json", "--markdown"];

/// Valued options of every discovery job.
const DISCOVERY_OPTIONS: [&str; 3] = ["--max-lhs", "--threads", "--cache-budget"];

/// The configuration the shared discovery flags ask for.
fn discovery_config(args: &[String]) -> Result<DiscoveryConfig, String> {
    let mut config = DiscoveryConfig {
        max_lhs_size: opt_value::<usize>(args, "--max-lhs")?,
        inter_relation: !flag(args, "--no-inter"),
        keep_uninteresting: flag(args, "--keep-uninteresting"),
        cache_budget: opt_value::<usize>(args, "--cache-budget")?,
        ..Default::default()
    };
    if let Some(threads) = opt_value::<usize>(args, "--threads")? {
        // `--threads 1` forces sequential; `--threads 0` = auto-detect.
        config.threads = threads;
    }
    Ok(config)
}

/// The report format a discovery job prints: `--json` over `--markdown`
/// over text.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Markdown,
    Json,
}

impl Format {
    fn of(args: &[String]) -> Format {
        if flag(args, "--json") {
            Format::Json
        } else if flag(args, "--markdown") {
            Format::Markdown
        } else {
            Format::Text
        }
    }

    /// Render `outcome`, listing uninteresting FDs when the run kept them
    /// and suggestions on `--suggest`.
    fn render(self, args: &[String], outcome: &RunOutcome, config: &DiscoveryConfig) -> String {
        let opts = RenderOptions {
            show_uninteresting: config.keep_uninteresting,
            show_suggestions: flag(args, "--suggest"),
            show_stats: true,
        };
        match self {
            Format::Json => render_json(outcome),
            Format::Markdown => render_markdown(outcome, &opts),
            Format::Text => render_text(outcome, &opts),
        }
    }
}

fn cmd_discover(args: &[String]) -> Result<(), String> {
    let own = [
        "--no-sets",
        "--ordered",
        "--approx",
        "--inds",
        "--cover",
        "--suggest",
    ];
    check_flags(
        args,
        &[&DISCOVERY_FLAGS[..], &DISCOVERY_OPTIONS, &own].concat(),
    )?;
    let tree = load(positional(args, 0)?)?;
    let mut config = discovery_config(args)?;
    if flag(args, "--no-sets") {
        config.encode.set_columns = SetColumnMode::None;
    }
    if flag(args, "--ordered") {
        config.encode.order = OrderMode::Ordered;
    }
    let schema = infer_schema(&tree);
    let report = discover_with_schema(&tree, &schema, &config);

    let format = Format::of(args);
    if format == Format::Text {
        println!("# Schema\n{}", nested_representation(&schema));
    }
    print!("{}", format.render(args, &report, &config));
    if let Some(eps) = opt_value::<f64>(args, "--approx")? {
        let forest = encode(&tree, &schema, &config.encode);
        let approx = discover_approximate_forest(&forest, &config, eps);
        println!("\n# Approximate FDs (g3 error <= {eps})");
        for (fd, err) in approx {
            println!("  {fd}  [error {err:.4}]");
        }
    }
    if flag(args, "--inds") {
        use discoverxfd::inclusion::{discover_inds, IndOptions};
        let forest = encode(&tree, &schema, &config.encode);
        let inds = discover_inds(&forest, &IndOptions::default());
        println!("\n# Inclusion dependencies (reference candidates)");
        for ind in inds {
            println!("  {ind}");
        }
    }
    if flag(args, "--cover") {
        use discoverxfd::cover::canonical_cover;
        use discoverxfd::interesting::intra_fd_to_xfd;
        use discoverxfd::xfd::discover_forest;
        let forest = encode(&tree, &schema, &config.encode);
        let disc = discover_forest(&forest, &config);
        println!("\n# Canonical covers (per tuple class, intra-relation FDs)");
        for rd in &disc.relations {
            if forest.relation(rd.rel).parent.is_none() || rd.fds.is_empty() {
                continue;
            }
            for fd in canonical_cover(&rd.fds) {
                println!("  {}", intra_fd_to_xfd(&forest, rd.rel, &fd));
            }
        }
    }
    Ok(())
}

fn cmd_schema(args: &[String]) -> Result<(), String> {
    check_flags(args, &["--xsd"])?;
    let tree = load(positional(args, 0)?)?;
    let schema = infer_schema(&tree);
    if flag(args, "--xsd") {
        print!("{}", xfd_schema::xsd::to_xsd(&schema));
    } else {
        print!("{}", nested_representation(&schema));
    }
    Ok(())
}

fn cmd_encode(args: &[String]) -> Result<(), String> {
    check_flags(args, &[])?;
    let tree = load(positional(args, 0)?)?;
    let schema = infer_schema(&tree);
    let forest = encode(&tree, &schema, &EncodeConfig::default());
    print!("{}", forest.render());
    let stats = forest.stats();
    println!(
        "({} relations, {} tuples, {} columns, {} cells)",
        stats.relations, stats.tuples, stats.columns, stats.cells
    );
    Ok(())
}

fn cmd_flat(args: &[String]) -> Result<(), String> {
    check_flags(args, &["--max-rows", "--max-lhs"])?;
    let tree = load(positional(args, 0)?)?;
    let schema = infer_schema(&tree);
    let options = BaselineOptions {
        max_rows: opt_value::<usize>(args, "--max-rows")?.unwrap_or(1_000_000),
        max_lhs: opt_value::<usize>(args, "--max-lhs")?.unwrap_or(usize::MAX),
        empty_lhs: true,
    };
    let res = discover_flat(&tree, &schema, &options).map_err(|e| e.to_string())?;
    println!(
        "# Flat relation: {} rows x {} columns",
        res.rows, res.columns
    );
    println!("# FDs ({})", res.fds.len());
    for fd in &res.fds {
        println!("  {fd}");
    }
    println!("# Keys ({})", res.keys.len());
    for k in &res.keys {
        println!("  {{{}}}", k.join(", "));
    }
    println!(
        "# Stats: {} lattice nodes, flatten {:?}, discover {:?}",
        res.stats.nodes_visited, res.flatten_time, res.discover_time
    );
    Ok(())
}

fn cmd_check(args: &[String]) -> Result<(), String> {
    use discoverxfd::verify::{verify_fd, FdSpec};
    let tree = load(positional(args, 0)?)?;
    let expr = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .nth(1)
        .ok_or("missing FD expression")?;
    let spec: FdSpec = expr.parse().map_err(|e| format!("{e}"))?;
    let schema = infer_schema(&tree);
    let forest = encode(&tree, &schema, &EncodeConfig::default());
    let report = verify_fd(&forest, &spec, 10).map_err(|e| e.to_string())?;
    if report.holds {
        println!("HOLDS over {} tuples", report.tuples);
        if report.lhs_is_key {
            println!("(the LHS is also an XML Key: no two tuples agree on it)");
        } else {
            println!("(the LHS is NOT a key: the FD indicates redundancy, Definition 11)");
        }
    } else {
        println!("VIOLATED — witnesses (pivot node keys):");
        for v in &report.violations {
            println!("  nodes {} and {}", v.node1.0, v.node2.0);
        }
    }
    Ok(())
}

fn cmd_profile(args: &[String]) -> Result<(), String> {
    check_flags(args, &[])?;
    use discoverxfd::profile::{profile, render};
    let tree = load(positional(args, 0)?)?;
    let schema = infer_schema(&tree);
    let forest = encode(&tree, &schema, &EncodeConfig::default());
    print!("{}", render(&profile(&forest)));
    Ok(())
}

fn cmd_select(args: &[String]) -> Result<(), String> {
    let tree = load(positional(args, 0)?)?;
    let query_str = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .nth(1)
        .ok_or("missing query expression")?;
    let query: xfd_xml::Query = query_str.parse().map_err(|e| format!("{e}"))?;
    let matches = query.select(&tree);
    for n in &matches {
        let path = tree.label_path(*n).join("/");
        match tree.value(*n) {
            Some(v) => println!("[{}] /{}  = {:?}", n.0, path, v),
            None => println!(
                "[{}] /{}  ({} children)",
                n.0,
                path,
                tree.children(*n).len()
            ),
        }
    }
    eprintln!("{} match(es)", matches.len());
    Ok(())
}

fn cmd_diff(args: &[String]) -> Result<(), String> {
    check_flags(args, &[])?;
    use discoverxfd::diff::diff_reports;
    let old_tree = load(positional(args, 0)?)?;
    let new_tree = load(positional(args, 1)?)?;
    let cfg = DiscoveryConfig::default();
    let old_schema = infer_schema(&old_tree);
    let new_schema = infer_schema(&new_tree);
    let schema_changes = xfd_schema::diff::diff_schemas(&old_schema, &new_schema);
    if !schema_changes.is_empty() {
        println!("# Schema changes");
        for c in &schema_changes {
            println!("  {c}");
        }
        println!();
    }
    let old = discover_with_schema(&old_tree, &old_schema, &cfg);
    let new = discover_with_schema(&new_tree, &new_schema, &cfg);
    print!("{}", diff_reports(&old, &new));
    Ok(())
}

fn cmd_dot(args: &[String]) -> Result<(), String> {
    check_flags(args, &["--fds"])?;
    use discoverxfd::graphviz::{fds_to_dot, forest_to_dot};
    let tree = load(positional(args, 0)?)?;
    let schema = infer_schema(&tree);
    if flag(args, "--fds") {
        let report = discover_with_schema(&tree, &schema, &DiscoveryConfig::default());
        print!("{}", fds_to_dot(&report));
    } else {
        let forest = encode(&tree, &schema, &EncodeConfig::default());
        print!("{}", forest_to_dot(&forest));
    }
    Ok(())
}

fn cmd_normalize(args: &[String]) -> Result<(), String> {
    check_flags(args, &["--max-rounds"])?;
    use discoverxfd::normalize::normalize_fully;
    let tree = load(positional(args, 0)?)?;
    let rounds = opt_value::<usize>(args, "--max-rounds")?.unwrap_or(10);
    let (normalized, log) = normalize_fully(&tree, &DiscoveryConfig::default(), rounds);
    for r in &log {
        eprintln!(
            "applied: {}  ({} -> {} redundant values)",
            r.applied, r.redundant_before, r.redundant_after
        );
    }
    eprintln!(
        "{} rounds; {} nodes -> {} nodes",
        log.len(),
        tree.node_count(),
        normalized.node_count()
    );
    print!("{}", to_xml_string(&normalized));
    Ok(())
}

fn cmd_gen(args: &[String]) -> Result<(), String> {
    check_flags(args, &["--scale", "--seed"])?;
    let which = positional(args, 0)?;
    let scale = opt_value::<f64>(args, "--scale")?.unwrap_or(1.0);
    let seed = opt_value::<u64>(args, "--seed")?;
    let tree = match which {
        "warehouse" => {
            if scale <= 1.0 {
                datagen::warehouse_figure1()
            } else {
                let mut spec = datagen::WarehouseSpec {
                    states: (4.0 * scale) as usize,
                    stores_per_state: 3,
                    books_per_store: (8.0 * scale) as usize,
                    ..Default::default()
                };
                if let Some(s) = seed {
                    spec.seed = s;
                }
                datagen::warehouse_scaled(&spec)
            }
        }
        "xmark" => {
            let mut spec = datagen::XmarkSpec::with_scale(scale);
            if let Some(s) = seed {
                spec.seed = s;
            }
            datagen::xmark_like(&spec)
        }
        "dblp" => {
            let mut spec = datagen::DblpSpec {
                articles: (150.0 * scale) as usize,
                inproceedings: (100.0 * scale) as usize,
                ..Default::default()
            };
            if let Some(s) = seed {
                spec.seed = s;
            }
            datagen::dblp_like(&spec)
        }
        "psd" => {
            let mut spec = datagen::ProteinSpec {
                entries: (80.0 * scale) as usize,
                ..Default::default()
            };
            if let Some(s) = seed {
                spec.seed = s;
            }
            datagen::protein_like(&spec)
        }
        "mondial" => {
            let mut spec = datagen::MondialSpec {
                countries: (15.0 * scale) as usize,
                ..Default::default()
            };
            if let Some(s) = seed {
                spec.seed = s;
            }
            datagen::mondial_like(&spec)
        }
        other => return Err(format!("unknown dataset {other:?}")),
    };
    print!("{}", to_xml_string(&tree));
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    check_flags(
        args,
        &[
            "--addr",
            "--workers",
            "--queue-depth",
            "--result-cache-budget",
            "--body-limit",
            "--request-timeout",
            "--corpus-root",
            "--cluster-workers",
            "--remote",
            "--cluster-token",
            "--pool-idle-secs",
        ],
    )?;
    let mut config = xfd_server::ServerConfig::default();
    if let Some(addr) = opt_value::<String>(args, "--addr")? {
        config.addr = addr;
    }
    if let Some(workers) = opt_value::<usize>(args, "--workers")? {
        config.workers = workers;
    }
    if let Some(depth) = opt_value::<usize>(args, "--queue-depth")? {
        config.queue_depth = depth;
    }
    if let Some(budget) = opt_value::<usize>(args, "--result-cache-budget")? {
        config.result_cache_budget = budget;
    }
    if let Some(limit) = opt_value::<u64>(args, "--body-limit")? {
        config.max_body_bytes = limit;
    }
    if let Some(secs) = opt_value::<u64>(args, "--request-timeout")? {
        config.request_timeout = std::time::Duration::from_secs(secs);
    }
    if let Some(root) = opt_value::<String>(args, "--corpus-root")? {
        config.corpus_root = Some(root.into());
    }
    if let Some(n) = opt_value::<usize>(args, "--cluster-workers")? {
        config.cluster_workers = n;
    }
    if let Some(remote) = opt_value::<String>(args, "--remote")? {
        config.cluster_remote = split_remote(&remote);
    }
    if let Some(token) = opt_value::<String>(args, "--cluster-token")? {
        config.cluster_token = token;
    }
    if let Some(secs) = opt_value::<u64>(args, "--pool-idle-secs")? {
        config.pool_idle = std::time::Duration::from_secs(secs);
    }
    let server = xfd_server::Server::bind(config.clone())
        .map_err(|e| format!("cannot bind {}: {e}", config.addr))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    xfd_server::install_signal_handlers();
    // Parsed by scripts and tests: keep this line format stable.
    println!("listening on http://{addr}");
    server.run().map_err(|e| e.to_string())
}

/// Strictly parse a corpus action's arguments. Anything dash-prefixed that
/// is not a known flag — `-x` single-dash spellings included — is a hard
/// error, as is any positional beyond the ones the action expects; a typo
/// must never be a silently ignored no-op. Returns exactly
/// `expect.len()` positionals on success.
fn corpus_args(
    args: &[String],
    bool_flags: &[&str],
    value_opts: &[&str],
    expect: &[&str],
) -> Result<Vec<String>, String> {
    let mut positionals = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if value_opts.contains(&a.as_str()) {
            i += 2; // the value itself is validated by opt_value
            continue;
        }
        if bool_flags.contains(&a.as_str()) {
            i += 1;
            continue;
        }
        if a.len() > 1 && a.starts_with('-') {
            return Err(format!("unknown option {a:?}"));
        }
        positionals.push(a.clone());
        i += 1;
    }
    if let Some(extra) = positionals.get(expect.len()) {
        return Err(format!("unexpected argument {extra:?}"));
    }
    if positionals.len() < expect.len() {
        return Err(format!(
            "missing {}",
            expect.get(positionals.len()).copied().unwrap_or("argument")
        ));
    }
    Ok(positionals)
}

fn cmd_corpus(args: &[String]) -> Result<(), String> {
    use xfd_corpus::CorpusStore;

    let Some(action) = args.first() else {
        return Err("corpus: missing action (create|add|rm|discover|status|list)".into());
    };
    let rest = &args[1..];
    let root = opt_value::<String>(rest, "--root")?.unwrap_or_else(|| "corpora".into());
    let store = CorpusStore::new(&root);

    match action.as_str() {
        "create" => {
            let p = corpus_args(rest, &[], &["--root"], &["corpus name"])?;
            let corpus = p[0].as_str();
            store.create(corpus).map_err(|e| e.to_string())?;
            eprintln!("created corpus {corpus:?} under {root}/");
            Ok(())
        }
        "add" => {
            let p = corpus_args(
                rest,
                &["--crash-after-wal"],
                &["--root", "--name"],
                &["corpus name", "xml file"],
            )?;
            let (corpus, file) = (p[0].as_str(), p[1].as_str());
            let doc_name = match opt_value::<String>(rest, "--name")? {
                Some(name) => name,
                None => std::path::Path::new(file)
                    .file_stem()
                    .and_then(|s| s.to_str())
                    .ok_or_else(|| format!("cannot derive a document name from {file:?}"))?
                    .to_string(),
            };
            let tree = load(file)?;
            let mut handle = store.open(corpus).map_err(|e| e.to_string())?;
            if flag(rest, "--crash-after-wal") {
                // Crash injection for recovery tests: the segment and WAL
                // record are durable, the manifest commit never happens —
                // exactly the state a kill -9 mid-ingest leaves behind.
                handle
                    .stage_doc(&doc_name, &tree)
                    .map_err(|e| e.to_string())?;
                eprintln!("staged {doc_name:?}; crashing before the manifest commit");
                std::process::exit(42);
            }
            handle
                .add_doc(&doc_name, &tree)
                .map_err(|e| e.to_string())?;
            eprintln!("added {doc_name:?} to {corpus:?} ({} docs)", handle.len());
            Ok(())
        }
        "rm" => {
            let p = corpus_args(rest, &[], &["--root"], &["corpus name", "document name"])?;
            let (corpus, doc) = (p[0].as_str(), p[1].as_str());
            let mut handle = store.open(corpus).map_err(|e| e.to_string())?;
            handle.remove_doc(doc).map_err(|e| e.to_string())?;
            eprintln!("removed {doc:?} from {corpus:?} ({} docs)", handle.len());
            Ok(())
        }
        "discover" => {
            let p = corpus_args(
                rest,
                &[&DISCOVERY_FLAGS[..], &["--progress"]].concat(),
                &[&DISCOVERY_OPTIONS[..], &["--root", "--memo-budget"]].concat(),
                &["corpus name"],
            )?;
            let corpus = p[0].as_str();
            let config = discovery_config(rest)?;
            let mut handle = store.open(corpus).map_err(|e| e.to_string())?;
            handle.set_memo_budget(opt_value::<usize>(rest, "--memo-budget")?);
            let progress = flag(rest, "--progress");
            let outcome = handle.discover_with_progress(&config, |p| {
                if progress {
                    let cached = if p.cached { " (cached)" } else { "" };
                    eprintln!("[depth {}] {}{cached}", p.depth, p.name);
                }
            });
            print!("{}", Format::of(rest).render(rest, &outcome, &config));
            Ok(())
        }
        "compact" => {
            let p = corpus_args(rest, &["--crash-after-wal"], &["--root"], &["corpus name"])?;
            let corpus = p[0].as_str();
            let mut handle = store.open(corpus).map_err(|e| e.to_string())?;
            if flag(rest, "--crash-after-wal") {
                // Crash injection for recovery tests, mirroring `add`: the
                // merged segment and WAL record are durable, the manifest
                // commit never happens.
                handle.stage_compact().map_err(|e| e.to_string())?;
                eprintln!("staged compaction; crashing before the manifest commit");
                std::process::exit(42);
            }
            let stats = handle.compact().map_err(|e| e.to_string())?;
            eprintln!(
                "compacted {corpus:?}: {} doc(s), {} segment(s) -> 1 ({} bytes)",
                stats.docs, stats.segments_before, stats.bytes
            );
            Ok(())
        }
        "status" => {
            let p = corpus_args(rest, &[], &["--root"], &["corpus name"])?;
            let corpus = p[0].as_str();
            let handle = store.open(corpus).map_err(|e| e.to_string())?;
            let status = handle.status();
            println!(
                "corpus {} — {} document(s), {} segment bytes",
                status.name,
                status.docs.len(),
                status.segment_bytes
            );
            for (name, digest, nodes) in &status.docs {
                println!("  {name}  {digest}  {nodes} nodes");
            }
            println!(
                "kernel: {} error-only products ({} early exits), {} materialized, {} summary hits",
                status.kernel_products_error_only,
                status.kernel_early_exits,
                status.kernel_products_materialized,
                status.kernel_summary_hits
            );
            Ok(())
        }
        "list" => {
            corpus_args(rest, &[], &["--root"], &[])?;
            for name in store.list().map_err(|e| e.to_string())? {
                println!("{name}");
            }
            Ok(())
        }
        other => Err(format!(
            "unknown corpus action {other:?} (create|add|rm|discover|compact|status|list)"
        )),
    }
}

/// `discoverxfd cluster discover <corpus>` — corpus discovery sharded
/// over worker subprocesses (re-invocations of this binary's `worker`
/// subcommand). The report is byte-identical to `corpus discover`; a
/// stable `cluster: ...` summary line goes to stderr for scripts.
fn cmd_cluster(args: &[String]) -> Result<(), String> {
    use xfd_corpus::CorpusStore;

    let Some(action) = args.first() else {
        return Err("cluster: missing action (discover)".into());
    };
    if action != "discover" {
        return Err(format!("unknown cluster action {action:?} (discover)"));
    }
    let rest = &args[1..];
    let own_options = [
        "--root",
        "--workers",
        "--worker-timeout",
        "--kill-worker-after",
        "--remote",
        "--token",
        "--memo-budget",
    ];
    let p = corpus_args(
        rest,
        &[&DISCOVERY_FLAGS[..], &["--corrupt-plan"]].concat(),
        &[&DISCOVERY_OPTIONS[..], &own_options].concat(),
        &["corpus name"],
    )?;
    let corpus = p[0].as_str();
    let root = opt_value::<String>(rest, "--root")?.unwrap_or_else(|| "corpora".into());
    let config = discovery_config(rest)?;
    let mut opts = xfd_cluster::ClusterOptions::default();
    if let Some(workers) = opt_value::<usize>(rest, "--workers")? {
        opts.workers = workers;
    }
    if let Some(secs) = opt_value::<u64>(rest, "--worker-timeout")? {
        opts.worker_timeout = std::time::Duration::from_secs(secs);
    }
    // Fault injection, used by the CI smoke test: SIGKILL the worker
    // that received the Nth relation pass, mid-run.
    opts.kill_worker_after = opt_value::<u64>(rest, "--kill-worker-after")?;
    opts.corrupt_plan = flag(rest, "--corrupt-plan");
    if let Some(remote) = opt_value::<String>(rest, "--remote")? {
        opts.remote = split_remote(&remote);
    }
    if let Some(token) = opt_value::<String>(rest, "--token")? {
        opts.token = token;
    }

    let mut handle = CorpusStore::new(&root)
        .open(corpus)
        .map_err(|e| e.to_string())?;
    handle.set_memo_budget(opt_value::<usize>(rest, "--memo-budget")?);
    let (outcome, stats) =
        xfd_cluster::cluster_discover(&mut handle, &config, &opts).map_err(|e| e.to_string())?;
    // Parsed by scripts and tests: keep this line format stable.
    eprintln!("{}", stats.summary());
    print!("{}", Format::of(rest).render(rest, &outcome, &config));
    Ok(())
}

/// Split a `--remote host:port,host:port,...` list.
fn split_remote(value: &str) -> Vec<String> {
    value
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect()
}

/// `discoverxfd worker` — a cluster worker process. Spawned by the
/// coordinator over a Unix socket, or started by hand with
/// `--listen host:port` to serve remote coordinators over TCP; serves
/// encode/merge/pass requests until told to shut down.
fn cmd_worker(args: &[String]) -> Result<(), String> {
    let opts = xfd_cluster::worker::parse_worker_args(args)?;
    xfd_cluster::run_worker(&opts).map_err(|e| e.to_string())
}
