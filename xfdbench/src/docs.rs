//! `doc-deep` and `doc-dblp`: one XML document in, one JSON report out,
//! as `discoverxfd discover --json` does it. Closed loop, one client.
//!
//! The untraced op is `parse_reader` → `discover` → `render_json`. The
//! traced op makes the same calls `discover` makes, one by one, each in
//! its own span: `parse_reader` → `infer_schema` → `encode` →
//! `discover_forest` → `analyze` → `classify` → `render_json`. Both must
//! print the reference report byte for byte (wall time aside).

use std::time::{Duration, Instant};

use discoverxfd::interesting::classify;
use discoverxfd::redundancy::analyze;
use discoverxfd::report::render_json;
use discoverxfd::xfd::discover_forest;
use discoverxfd::{
    discover, DiscoveryConfig, DiscoveryReport, MemoStats, PhaseTimings, RunOutcome, RunStatsBundle,
};
use xfd_datagen::{dblp_like, wide_relation, DblpSpec, WideSpec};
use xfd_relation::encode;
use xfd_schema::infer_schema;
use xfd_xml::{parse_reader, to_xml_string, ReadError};

use crate::metrics::{Failure, Metrics, RunResult, Tally};
use crate::run::{
    closed_loop, ms, normalize_report, p50_self, peak_rss_mb, repeated_setup, set_loop_metrics,
    set_trace_overhead, Ctx, Workload,
};
use crate::trace::{self_times_ms, Trace};

/// At least this many ops, however short the run.
const MIN_OPS: u64 = 20;

struct Input {
    xml: Vec<u8>,
    /// Normalized report of a one-call `discover` over the document.
    reference: String,
}

/// The generated document. `doc-deep` is one relation of 10 random
/// columns over a domain of 4, no injected FDs: the lattice runs deep and
/// almost every node is a validation. `doc-dblp` is a bibliography with
/// set-valued author lists and repeated entries: parse, inference,
/// encoding and redundancy work over a lattice of a few dozen nodes.
fn document(ctx: &Ctx) -> String {
    let tree = match ctx.workload {
        Workload::DocDeep => wide_relation(&WideSpec {
            rows: if ctx.smoke { 600 } else { 4_000 },
            width: 10,
            domain: 4,
            derived_fraction: 0.0,
            seed: ctx.seed,
        }),
        _ => dblp_like(&DblpSpec {
            articles: if ctx.smoke { 150 } else { 1_500 },
            inproceedings: if ctx.smoke { 100 } else { 1_000 },
            seed: ctx.seed,
            ..DblpSpec::default()
        }),
    };
    to_xml_string(&tree)
}

fn setup(ctx: &Ctx, config: &DiscoveryConfig) -> Result<Input, String> {
    let xml = document(ctx).into_bytes();
    let tree = parse_reader(&xml[..]).map_err(|e| format!("generated document: {e}"))?;
    let reference = normalize_report(&render_json(&discover(&tree, config)));
    drop(tree);
    let input = Input { xml, reference };
    // One untimed warm-up of the measured op.
    plain_op(&input, config).1.map_err(|f| f.reason)?;
    Ok(input)
}

fn check(input: &Input, report: Result<String, ReadError>) -> Result<(), Failure> {
    match report {
        Err(e) => Err(Failure::error(format!("parse: {e}"))),
        Ok(r) if normalize_report(&r) == input.reference => Ok(()),
        Ok(_) => Err(Failure::mismatch("report differs from the reference")),
    }
}

fn plain_op(input: &Input, config: &DiscoveryConfig) -> (f64, Result<(), Failure>) {
    let t0 = Instant::now();
    let report = parse_reader(&input.xml[..]).map(|tree| render_json(&discover(&tree, config)));
    let elapsed = ms(t0.elapsed());
    (elapsed, check(input, report))
}

/// Work counters of one traced op (identical for every op of a run).
#[derive(Default, Clone, Copy)]
struct Counts {
    nodes: usize,
    stats: RunStatsBundle,
}

fn traced_op(
    input: &Input,
    config: &DiscoveryConfig,
    tr: &mut Trace,
    op: u64,
    counts: &mut Counts,
) -> (f64, Result<(), Failure>) {
    let t0 = Instant::now();
    tr.begin_op(op);
    let report = split_op(input, config, tr, counts);
    tr.end_op();
    let elapsed = ms(t0.elapsed());
    (elapsed, check(input, report))
}

/// `discover` as its seven public calls, each spanned, assembled into the
/// same `RunOutcome` the one-call pipeline returns.
fn split_op(
    input: &Input,
    config: &DiscoveryConfig,
    tr: &mut Trace,
    counts: &mut Counts,
) -> Result<String, ReadError> {
    let tree = tr.span("xml.parse_reader", || parse_reader(&input.xml[..]))?;
    let t_infer = Instant::now();
    let schema = tr.span("schema.infer_schema", || infer_schema(&tree));
    let t_encode = Instant::now();
    let forest = tr.span("relation.encode", || encode(&tree, &schema, &config.encode));
    let t_discover = Instant::now();
    let disc = tr.span("core.discover_forest", || discover_forest(&forest, config));
    let t_redundancy = Instant::now();
    let redundancies = tr.span("core.analyze", || analyze(&forest, &disc));
    let t_classify = Instant::now();
    let classified = tr.span("core.classify", || {
        classify(&forest, &disc, config.keep_uninteresting)
    });
    let outcome = RunOutcome {
        report: DiscoveryReport {
            schema,
            fds: classified.fds,
            keys: classified.keys,
            uninteresting_fds: classified.uninteresting_fds,
            uninteresting_keys: classified.uninteresting_keys,
            redundancies,
        },
        stats: RunStatsBundle {
            lattice: disc.lattice_stats,
            targets: disc.target_stats,
            forest: forest.stats(),
            memo: MemoStats::default(),
        },
        profile: PhaseTimings {
            merge: Duration::ZERO,
            infer: t_encode - t_infer,
            encode: t_discover - t_encode,
            discover: t_redundancy - t_discover,
            redundancy: t_classify - t_redundancy,
        },
    };
    let report = tr.span("core.render_json", || render_json(&outcome));
    *counts = Counts {
        nodes: tree.node_count(),
        stats: outcome.stats,
    };
    partition_counter(tr, &outcome.stats);
    Ok(report)
}

/// The partition layer runs inside `discover_forest`; its counters go
/// into the trace as a counter track.
pub fn partition_counter(tr: &mut Trace, stats: &RunStatsBundle) {
    let l = &stats.lattice;
    tr.counter(
        "partition",
        &[
            ("products_error_only", l.products_error_only as f64),
            ("products_materialized", l.products_materialized as f64),
            ("early_exits", l.early_exits as f64),
            ("peak_resident_bytes", l.peak_resident_bytes as f64),
        ],
    );
}

/// The partition- and core-layer counters of one run's stats.
pub fn set_lattice_counters(m: &mut Metrics, stats: &RunStatsBundle) {
    let l = &stats.lattice;
    let ratio = |a: usize, b: usize| if b > 0 { a as f64 / b as f64 } else { 0.0 };
    m.set(
        "partition.products_error_only",
        l.products_error_only as f64,
    );
    m.set(
        "partition.products_materialized",
        l.products_materialized as f64,
    );
    m.set("partition.early_exits", l.early_exits as f64);
    m.set(
        "partition.early_exit_ratio",
        ratio(l.early_exits, l.products_error_only),
    );
    m.set("partition.summary_hits", l.summary_hits as f64);
    m.set(
        "partition.cache_hit_ratio",
        ratio(l.cache_hits, l.cache_hits + l.cache_misses),
    );
    m.set("partition.evictions", l.evictions as f64);
    m.set(
        "partition.peak_resident_bytes",
        l.peak_resident_bytes as f64,
    );
    m.set("core.lattice_nodes", l.nodes_visited as f64);
    m.set("core.products", l.products as f64);
    m.set("core.targets_created", stats.targets.created as f64);
    m.set("relation.tuples", stats.forest.tuples as f64);
    m.set("relation.cells", stats.forest.cells as f64);
}

pub fn run(ctx: &Ctx, epoch: Instant) -> Result<(RunResult, Vec<Trace>), String> {
    let config = DiscoveryConfig::default();
    let (input, setup_s) = repeated_setup(|_| setup(ctx, &config))?;

    let mut tally = Tally::default();
    let mut tr = Trace::new(epoch, 0);
    let mut counts = Counts::default();
    let lp = closed_loop(ctx, MIN_OPS, &mut tally, |i, traced| {
        if traced {
            traced_op(&input, &config, &mut tr, i, &mut counts)
        } else {
            plain_op(&input, &config)
        }
    });

    let mut m = Metrics::default();
    if ctx.traced {
        let selfs = self_times_ms(&[&tr]);
        let parse_ms = p50_self(&selfs, "xml.parse_reader");
        m.set("xml.parse_ms", parse_ms);
        if parse_ms > 0.0 {
            m.set(
                "xml.parse_mb_per_s",
                input.xml.len() as f64 / 1e3 / parse_ms,
            );
        }
        m.set("xml.nodes", counts.nodes as f64);
        m.set("schema.infer_ms", p50_self(&selfs, "schema.infer_schema"));
        m.set("relation.encode_ms", p50_self(&selfs, "relation.encode"));
        m.set("core.discover_ms", p50_self(&selfs, "core.discover_forest"));
        m.set("core.redundancy_ms", p50_self(&selfs, "core.analyze"));
        m.set("core.classify_ms", p50_self(&selfs, "core.classify"));
        m.set("core.render_ms", p50_self(&selfs, "core.render_json"));
        set_lattice_counters(&mut m, &counts.stats);
        set_trace_overhead(&mut m, &lp.plain_ms, &lp.traced_ms);
    } else {
        m.set("setup_s", setup_s);
        set_loop_metrics(&mut m, &lp);
        m.set("peak_rss_mb", peak_rss_mb(None));
    }
    let result = RunResult {
        attempted: tally.attempted,
        failed: tally.failed,
        correct: tally.mismatched == 0,
        metrics: m,
    };
    Ok((result, vec![tr]))
}
