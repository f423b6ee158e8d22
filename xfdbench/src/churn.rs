//! `corpus-churn` and `cluster-churn`: a stored corpus that keeps
//! changing while it is rediscovered, as `corpus add` / `corpus rm` /
//! `corpus discover` (or `cluster discover`) do it. Closed loop, one
//! client.
//!
//! The corpus holds 8 categories of synthetic documents with disjoint
//! element names, so each category is its own set of relations. Category
//! 0 is the small "hot" one; every cycle adds one new hot document,
//! removes the oldest once there are too many, and rediscovers. The
//! other categories' relation passes replay from the memo, so a cycle's
//! cost is the segment write plus the merge, which spans the whole
//! corpus, plus the hot relations' passes.
//!
//! `cluster-churn` runs the same cycle through a warm `WorkerPool` of two
//! worker subprocesses and discovers twice per cycle: with the default
//! configuration (after the corpus changed) and with `max_lhs_size = 3`
//! (same corpus, same encode plan).

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use discoverxfd::report::render_json;
use discoverxfd::{discover_collection, DiscoveryConfig, RunOutcome};
use xfd_cluster::{ClusterOptions, ClusterStats, WorkerPool};
use xfd_corpus::{CorpusHandle, CorpusStatus, CorpusStore};
use xfd_xml::parse_reader;

use crate::docs::{partition_counter, set_lattice_counters};
use crate::metrics::{Failure, Metrics, RunResult, Tally};
use crate::run::{
    closed_loop, ms, p50_self, peak_rss_mb, repeated_setup, set_loop_metrics, set_trace_overhead,
    Ctx, Rng, Workload,
};
use crate::stats::{median, percentile};
use crate::trace::{durations_ms, self_times_ms, Trace};

const CATEGORIES: usize = 8;
const CORPUS: &str = "churn";
/// At least this many cycles, however short the run.
const MIN_OPS: u64 = 20;
/// Every this many cycles (and once at the end) the cycle's report is
/// checked against a from-scratch `discover_collection`.
const CHECK_EVERY: u64 = 25;
/// Fresh-handle discoveries behind `corpus.cold_p50_ms` /
/// `cluster.cold_p50_ms`.
const COLD_RUNS: usize = 5;

/// Distinct prime moduli, one per column: no column pair is a key at
/// these sizes, so each relation's lattice runs to level 3 and beyond on
/// a 16-wide schema.
const MODULI: [u64; 16] = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53];

struct Shape {
    docs_per_category: usize,
    rows: u64,
    hot_rows: u64,
    /// Hot documents kept; the oldest is removed beyond this.
    max_hot: usize,
}

fn shape(ctx: &Ctx) -> Shape {
    match (ctx.workload, ctx.smoke) {
        (Workload::CorpusChurn, false) => Shape {
            docs_per_category: 4,
            rows: 1_000,
            hot_rows: 100,
            max_hot: 4,
        },
        (_, false) => Shape {
            docs_per_category: 2,
            rows: 400,
            hot_rows: 100,
            max_hot: 2,
        },
        (_, true) => Shape {
            docs_per_category: 2,
            rows: 60,
            hot_rows: 20,
            max_hot: 2,
        },
    }
}

/// The seeded part of the input: each category's first row number and
/// column order.
struct Layout {
    offsets: [u64; CATEGORIES],
    orders: [[usize; 16]; CATEGORIES],
}

impl Layout {
    fn new(seed: u64) -> Layout {
        let mut rng = Rng::new(seed);
        let mut offsets = [0; CATEGORIES];
        let mut orders = [[0; 16]; CATEGORIES];
        for c in 0..CATEGORIES {
            offsets[c] = rng.below(1_000_000);
            let mut order: [usize; 16] = std::array::from_fn(|i| i);
            for i in (1..16).rev() {
                order.swap(i, rng.below(i as u64 + 1) as usize);
            }
            orders[c] = order;
        }
        Layout { offsets, orders }
    }

    /// Document `doc` of category `cat`: `rows` records numbered
    /// consecutively after the documents before it.
    fn doc(&self, cat: usize, doc: u64, rows: u64) -> String {
        let mut xml = format!("<cat{cat}_data>");
        for i in 0..rows {
            let row = self.offsets[cat] + doc * rows + i;
            let _ = write!(xml, "<rec{cat}>");
            for &col in &self.orders[cat] {
                let _ = write!(xml, "<f{col}x{cat}>{}</f{col}x{cat}>", row % MODULI[col]);
            }
            let _ = write!(xml, "</rec{cat}>");
        }
        let _ = write!(xml, "</cat{cat}_data>");
        xml
    }
}

/// The live corpus and what the cycles need to change it.
struct Churn {
    dir: PathBuf,
    store: CorpusStore,
    handle: CorpusHandle,
    layout: Layout,
    hot: VecDeque<String>,
    next_hot: u64,
    /// XML bytes of every live document, by name.
    xml_bytes: BTreeMap<String, usize>,
    pool: Option<WorkerPool>,
}

impl Drop for Churn {
    fn drop(&mut self) {
        if let Some(pool) = self.pool.take() {
            pool.shutdown_all();
        }
        if let Err(e) = std::fs::remove_dir_all(&self.dir) {
            eprintln!("xfdbench: cannot remove {}: {e}", self.dir.display());
        }
    }
}

fn pool_options() -> ClusterOptions {
    ClusterOptions {
        workers: 2,
        ..ClusterOptions::default()
    }
}

/// Ingest the corpus, start the pool (cluster-churn), and run one
/// untimed cold discovery so the memo and segment caches are primed.
fn setup(ctx: &Ctx, shape: &Shape, config: &DiscoveryConfig, i: usize) -> Result<Churn, String> {
    let dir = ctx.work_dir.join(format!("store-{i}"));
    let store = CorpusStore::new(&dir);
    let handle = store.create(CORPUS).map_err(|e| e.to_string())?;
    let mut churn = Churn {
        dir,
        store,
        handle,
        layout: Layout::new(ctx.seed),
        hot: VecDeque::new(),
        next_hot: shape.docs_per_category as u64,
        xml_bytes: BTreeMap::new(),
        pool: None,
    };
    for doc in 0..shape.docs_per_category as u64 {
        for cat in 0..CATEGORIES {
            let rows = if cat == 0 { shape.hot_rows } else { shape.rows };
            let name = format!("cat{cat}-doc{doc}");
            let xml = churn.layout.doc(cat, doc, rows);
            let tree = parse_reader(xml.as_bytes()).map_err(|e| e.to_string())?;
            churn
                .handle
                .add_doc(&name, &tree)
                .map_err(|e| e.to_string())?;
            churn.xml_bytes.insert(name.clone(), xml.len());
            if cat == 0 {
                churn.hot.push_back(name);
            }
        }
    }
    match ctx.workload {
        Workload::ClusterChurn => {
            let pool = WorkerPool::new(pool_options(), Duration::from_secs(600));
            for cfg in [config.clone(), lhs3(config)] {
                pool.discover(&mut churn.handle, &cfg)
                    .map_err(|e| e.to_string())?;
            }
            churn.pool = Some(pool);
        }
        _ => {
            churn.handle.discover(config);
        }
    }
    Ok(churn)
}

/// The second configuration of a cluster-churn cycle.
fn lhs3(config: &DiscoveryConfig) -> DiscoveryConfig {
    DiscoveryConfig {
        max_lhs_size: Some(3),
        ..config.clone()
    }
}

/// The report up to its wall-clock/memo tail: everything a from-scratch
/// run must reproduce, lattice work counters included.
fn stable(report: &str) -> &str {
    report.split("\"total_ms\"").next().unwrap_or(report)
}

/// The discovered artifacts only: FDs, keys and redundancies.
fn body(report: &str) -> &str {
    report.split("\"stats\"").next().unwrap_or(report)
}

/// Compare `report` with a from-scratch discovery over the live trees.
fn check_report(churn: &Churn, config: &DiscoveryConfig, report: &str) -> Result<(), Failure> {
    let trees = churn.handle.trees();
    let reference = render_json(&discover_collection(&trees, config));
    // Under an LHS bound, passes run on cluster workers count partition
    // evictions differently from a whole-collection run, so only the
    // discovered artifacts (the report before "stats") are compared there.
    let (got, want) = if config.max_lhs_size.is_some() {
        (body(report), body(&reference))
    } else {
        (stable(report), stable(&reference))
    };
    if got == want {
        Ok(())
    } else {
        Err(Failure::mismatch(
            "corpus report differs from discover_collection",
        ))
    }
}

/// What one cycle hands back besides its latency.
#[derive(Default)]
struct CycleOut {
    /// The rendered report(s): default configuration, then `max_lhs_size
    /// = 3` for cluster-churn.
    reports: Vec<String>,
    outcome_stats: Option<discoverxfd::RunStatsBundle>,
    cluster: Option<ClusterStats>,
    warm: u32,
    discovers: u32,
    partials_built: usize,
}

/// Add the next hot document and drop the oldest beyond the limit.
fn mutate(
    churn: &mut Churn,
    shape: &Shape,
    xml: &str,
    mut tr: Option<&mut Trace>,
) -> Result<(), Failure> {
    fn spanned<T>(tr: &mut Option<&mut Trace>, name: &'static str, f: impl FnOnce() -> T) -> T {
        match tr {
            Some(t) => t.span(name, f),
            None => f(),
        }
    }
    let name = format!("hot-{}", churn.next_hot);
    churn.next_hot += 1;
    let tree = spanned(&mut tr, "xml.parse_reader", || parse_reader(xml.as_bytes()))
        .map_err(|e| Failure::error(format!("parse: {e}")))?;
    spanned(&mut tr, "corpus.add_doc", || {
        churn.handle.add_doc(&name, &tree)
    })
    .map_err(|e| Failure::error(format!("add_doc: {e}")))?;
    churn.xml_bytes.insert(name.clone(), xml.len());
    churn.hot.push_back(name);
    if churn.hot.len() > shape.max_hot {
        let old = churn.hot.pop_front().expect("hot list is non-empty");
        spanned(&mut tr, "corpus.remove_doc", || {
            churn.handle.remove_doc(&old)
        })
        .map_err(|e| Failure::error(format!("remove_doc: {e}")))?;
        churn.xml_bytes.remove(&old);
    }
    Ok(())
}

/// One untraced cycle: the calls a CLI user makes.
fn plain_cycle(
    churn: &mut Churn,
    shape: &Shape,
    config: &DiscoveryConfig,
    xml: &str,
) -> Result<CycleOut, Failure> {
    mutate(churn, shape, xml, None)?;
    let mut out = CycleOut::default();
    match churn.pool.as_ref() {
        None => {
            let outcome = churn.handle.discover(config);
            out.reports.push(render_json(&outcome));
        }
        Some(pool) => {
            for cfg in [config.clone(), lhs3(config)] {
                let d = pool
                    .discover(&mut churn.handle, &cfg)
                    .map_err(|e| Failure::error(format!("pool discover: {e}")))?;
                if d.stats.workers_lost > 0 {
                    return Err(Failure::error("a cluster worker was lost"));
                }
                out.reports.push(render_json(&d.outcome));
            }
        }
    }
    Ok(out)
}

/// One traced cycle: the same work as [`plain_cycle`], split into its
/// public calls.
fn traced_cycle(
    churn: &mut Churn,
    shape: &Shape,
    config: &DiscoveryConfig,
    xml: &str,
    tr: &mut Trace,
) -> Result<CycleOut, Failure> {
    mutate(churn, shape, xml, Some(tr))?;
    let mut out = CycleOut::default();
    match churn.pool.as_ref() {
        None => {
            let plan = tr.span("corpus.plan", || churn.handle.plan(config));
            out.partials_built = churn.handle.pending_partials(plan.plan_fp()).len();
            let t0 = Instant::now();
            let prepare = tr.enter("corpus.merged_forest");
            let prepared = churn.handle.merged_forest(config, &plan);
            tr.exit();
            let t1 = Instant::now();
            let outcome = tr.span("core.finish_discover", || {
                churn
                    .handle
                    .finish_discover(config, &prepared, |_| {}, None)
            });
            // `merged_forest` builds the missing partials, then merges;
            // its own profile says how long each took.
            let p = outcome.profile;
            tr.record_in(Some(prepare), "relation.shard_encode", t0, t0 + p.encode);
            tr.record_in(Some(prepare), "relation.merge", t1 - p.merge, t1);
            out.reports
                .push(tr.span("core.render_json", || render_json(&outcome)));
            partition_counter(tr, &outcome.stats);
            out.outcome_stats = Some(outcome.stats);
        }
        Some(pool) => {
            let mut total = ClusterStats::default();
            let names = [
                "cluster.pool_discover.first",
                "cluster.pool_discover.second",
            ];
            for (cfg, name) in [config.clone(), lhs3(config)].into_iter().zip(names) {
                let d = tr
                    .span(name, || pool.discover(&mut churn.handle, &cfg))
                    .map_err(|e| Failure::error(format!("pool discover: {e}")))?;
                if d.stats.workers_lost > 0 {
                    return Err(Failure::error("a cluster worker was lost"));
                }
                add_cluster_stats(&mut total, &d.stats);
                out.warm += u32::from(d.warm);
                out.discovers += 1;
                out.reports
                    .push(tr.span("core.render_json", || render_json(&d.outcome)));
                if out.outcome_stats.is_none() {
                    out.outcome_stats = Some(d.outcome.stats);
                }
            }
            out.cluster = Some(total);
        }
    }
    Ok(out)
}

fn add_cluster_stats(total: &mut ClusterStats, s: &ClusterStats) {
    total.encode_remote += s.encode_remote;
    total.pass_remote += s.pass_remote;
    total.partials_pushed += s.partials_pushed;
    total.forest_ships += s.forest_ships;
    total.tasks_retried += s.tasks_retried;
    total.tasks_fallback += s.tasks_fallback;
    total.workers_lost += s.workers_lost;
}

/// Check every report of a cycle against from-scratch discovery.
fn check_cycle(churn: &Churn, config: &DiscoveryConfig, out: &CycleOut) -> Result<(), Failure> {
    let configs = [config.clone(), lhs3(config)];
    for (report, cfg) in out.reports.iter().zip(&configs) {
        check_report(churn, cfg, report)?;
    }
    Ok(())
}

/// Median cold discovery: a fresh handle opened from disk (and, for the
/// cluster, a fresh pool), as every CLI `corpus discover` or `cluster
/// discover` pays. Returns the median in milliseconds.
fn cold_p50(churn: &Churn, config: &DiscoveryConfig, expect: &str) -> Result<f64, String> {
    let mut times = Vec::with_capacity(COLD_RUNS);
    for _ in 0..COLD_RUNS {
        let t0 = Instant::now();
        let mut handle = churn.store.open(CORPUS).map_err(|e| e.to_string())?;
        let outcome: RunOutcome = match churn.pool {
            None => handle.discover(config),
            Some(_) => {
                let pool = WorkerPool::new(pool_options(), Duration::from_secs(600));
                let d = pool
                    .discover(&mut handle, config)
                    .map_err(|e| e.to_string())?;
                pool.shutdown_all();
                d.outcome
            }
        };
        times.push(ms(t0.elapsed()));
        if stable(&render_json(&outcome)) != stable(expect) {
            return Err("cold discovery differs from the live handle's report".into());
        }
    }
    Ok(median(&times))
}

pub fn run(ctx: &Ctx, epoch: Instant) -> Result<(RunResult, Vec<Trace>), String> {
    let config = DiscoveryConfig::default();
    let shape = shape(ctx);
    let (mut churn, setup_s) = repeated_setup(|i| setup(ctx, &shape, &config, i))?;

    let mut tally = Tally::default();
    let mut tr = Trace::new(epoch, 0);
    // Counters come from the first traced cycle, so they repeat exactly
    // for a seed however many cycles fit in the run.
    let mut first: Option<(CycleOut, CorpusStatus, usize)> = None;
    let mut last_reports = Vec::new();
    let lp = closed_loop(ctx, MIN_OPS, &mut tally, |i, traced| {
        let xml = churn.layout.doc(0, churn.next_hot, shape.hot_rows);
        let t0 = Instant::now();
        let out = if traced {
            tr.begin_op(i);
            let out = traced_cycle(&mut churn, &shape, &config, &xml, &mut tr);
            tr.end_op();
            out
        } else {
            plain_cycle(&mut churn, &shape, &config, &xml)
        };
        let elapsed = ms(t0.elapsed());
        let outcome = out.and_then(|out| {
            if i % CHECK_EVERY == CHECK_EVERY - 1 {
                check_cycle(&churn, &config, &out)?;
            }
            last_reports.clone_from(&out.reports);
            if traced && first.is_none() {
                let input_bytes = churn.xml_bytes.values().sum();
                first = Some((out, churn.handle.status(), input_bytes));
            }
            Ok(())
        });
        (elapsed, outcome)
    });

    // The final check: the last cycle's reports against from-scratch runs.
    let last = CycleOut {
        reports: last_reports,
        ..CycleOut::default()
    };
    tally.record(check_cycle(&churn, &config, &last));

    let mut m = Metrics::default();
    if let (true, Some((out, status, input_bytes))) = (ctx.traced, &first) {
        let selfs = self_times_ms(&[&tr]);
        m.set("xml.parse_ms", p50_self(&selfs, "xml.parse_reader"));
        m.set("corpus.add_ms", p50_self(&selfs, "corpus.add_doc"));
        m.set("corpus.rm_ms", p50_self(&selfs, "corpus.remove_doc"));
        m.set("core.render_ms", p50_self(&selfs, "core.render_json"));
        if let Some(stats) = out.outcome_stats {
            set_lattice_counters(&mut m, &stats);
            let lookups = stats.memo.hits + stats.memo.misses;
            if lookups > 0 {
                m.set(
                    "core.memo_hit_ratio",
                    stats.memo.hits as f64 / lookups as f64,
                );
            }
        }
        m.set("corpus.segment_bytes", status.segment_bytes as f64);
        m.set(
            "corpus.memo_resident_bytes",
            status.memo_resident_bytes as f64,
        );
        if *input_bytes > 0 {
            m.set(
                "corpus.stored_bytes_per_input_byte",
                status.segment_bytes as f64 / *input_bytes as f64,
            );
        }
        let expect = last.reports.first().cloned().unwrap_or_default();
        match &out.cluster {
            None => {
                m.set("corpus.plan_ms", p50_self(&selfs, "corpus.plan"));
                m.set(
                    "corpus.prepare_ms",
                    p50_self(&selfs, "corpus.merged_forest"),
                );
                m.set("relation.merge_ms", p50_self(&selfs, "relation.merge"));
                m.set(
                    "relation.shard_encode_ms",
                    p50_self(&selfs, "relation.shard_encode"),
                );
                m.set("core.passes_ms", p50_self(&selfs, "core.finish_discover"));
                m.set("corpus.partials_built", out.partials_built as f64);
                m.set("corpus.cold_p50_ms", cold_p50(&churn, &config, &expect)?);
            }
            Some(s) => {
                let first = durations_ms(&[&tr], "cluster.pool_discover.first");
                let second = durations_ms(&[&tr], "cluster.pool_discover.second");
                m.set("cluster.respawn_ms", percentile(&first, 0.5));
                m.set("cluster.warm_ms", percentile(&second, 0.5));
                m.set(
                    "cluster.warm_hit_ratio",
                    f64::from(out.warm) / f64::from(out.discovers.max(1)),
                );
                m.set("cluster.encode_remote", s.encode_remote as f64);
                m.set("cluster.pass_remote", s.pass_remote as f64);
                m.set("cluster.partials_pushed", s.partials_pushed as f64);
                m.set("cluster.forest_ships", s.forest_ships as f64);
                m.set("cluster.retried", s.tasks_retried as f64);
                m.set("cluster.fallback", s.tasks_fallback as f64);
                m.set("cluster.workers_lost", s.workers_lost as f64);
                m.set("cluster.cold_p50_ms", cold_p50(&churn, &config, &expect)?);
            }
        }
        set_trace_overhead(&mut m, &lp.plain_ms, &lp.traced_ms);
    } else if !ctx.traced {
        m.set("setup_s", setup_s);
        set_loop_metrics(&mut m, &lp);
        m.set("peak_rss_mb", peak_rss_mb(None));
    }
    drop(churn);
    let result = RunResult {
        attempted: tally.attempted,
        failed: tally.failed,
        correct: tally.mismatched == 0,
        metrics: m,
    };
    Ok((result, vec![tr]))
}
