//! Corpus-store benchmark (`scripts/bench_quick.sh`; `--smoke` for CI).
//!
//! Builds a 32-document corpus spread over 8 distinct schema categories
//! and measures the sharded pipeline twice — serial (1 thread) and
//! pooled (8 threads) — each time as a cold pass (segment caches and the
//! relation memo empty) followed by an incremental pass after one more
//! small document lands: unchanged segments keep their cached summaries
//! and partial relations, and unchanged relation passes replay from the
//! memo. A from-scratch `discover_collection` over all 33 trees is the
//! baseline. All reports must agree byte-for-byte on the discovered
//! FDs/keys/redundancies, the incremental path must beat the full
//! recompute by at least 3x, and per-phase (merge / infer / encode /
//! passes) timings land in `BENCH_corpus.json` (or the path given as the
//! first argument).
//!
//! An untimed priming pass runs first so no timed measurement pays
//! first-touch costs (allocator growth, page faults) — previously the
//! cold corpus pass ran first and absorbed them all, making it look
//! slower than the full recompute it subsumes.
//!
//! ```sh
//! cargo run --release -p xfd-bench --bin bench_corpus [-- out.json [--smoke]]
//! ```

use std::fmt::Write as _;
use std::time::Instant;

use discoverxfd::report::render_json;
use discoverxfd::{discover_collection, DiscoveryConfig, RunOutcome};
use xfd_corpus::CorpusStore;
use xfd_xml::{parse_reader, DataTree};

fn parse_str(xml: &str) -> Result<DataTree, xfd_xml::ReadError> {
    parse_reader(xml.as_bytes())
}

const CATEGORIES: usize = 8;
const DOCS_PER_CATEGORY: usize = 4;

/// Category 0 — the one the incremental phase touches — stays small; the
/// other seven carry the bulk of the lattice work. That is the workload
/// incremental discovery exists for: a small update must not pay for the
/// large unchanged relations.
fn rows_per_doc(cat: usize, smoke: bool) -> usize {
    match (cat, smoke) {
        (0, false) => 250,
        (_, false) => 4000,
        (0, true) => 100,
        (_, true) => 800,
    }
}

/// Distinct prime moduli: no column set is a key (or yields an FD) until
/// the residues jointly distinguish every row, which by CRT needs the
/// modulus product to exceed the relation's row count. Even at smoke
/// scale (3200 rows per relation) no column *pair* is a key (largest
/// pair product 43 * 53 = 2279), so the lattice search runs to level 3+
/// on a 16-wide schema — the combinatorial work that makes per-relation
/// memoisation worth measuring, since merge/infer/encode stay linear.
const MODULI: [usize; 16] = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53];

/// One document of schema category `cat`. Every category gets its own
/// element names so the merged corpus holds disjoint relation sets — the
/// shape where incremental discovery pays off.
fn synthetic_doc(cat: usize, doc: usize, smoke: bool) -> String {
    let rows = rows_per_doc(cat, smoke);
    let mut xml = format!("<cat{cat}_data>");
    for i in 0..rows {
        let row = doc * rows + i;
        let _ = write!(xml, "<rec{cat}>");
        for (col, modulus) in MODULI.iter().enumerate() {
            let _ = write!(xml, "<f{col}x{cat}>{}</f{col}x{cat}>", row % modulus);
        }
        let _ = write!(xml, "</rec{cat}>");
    }
    let _ = write!(xml, "</cat{cat}_data>");
    xml
}

fn config_for(threads: usize) -> DiscoveryConfig {
    DiscoveryConfig {
        threads,
        ..DiscoveryConfig::default()
    }
}

/// Everything before the wall-clock / memo-counter tail of the stats
/// object. FDs, keys, redundancies and lattice work counters remain.
fn stable(report: &str) -> &str {
    report.split("\"total_ms\"").next().unwrap_or(report)
}

/// The report body only — schema, FDs, keys, redundancies — for
/// comparisons across thread counts, where partition-cache work counters
/// legitimately differ.
fn body(report: &str) -> &str {
    report.split("\"stats\"").next().unwrap_or(report)
}

fn phases_json(outcome: &RunOutcome) -> String {
    let p = &outcome.profile;
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    format!(
        "{{\"merge_ms\": {:.1}, \"infer_ms\": {:.1}, \"encode_ms\": {:.1}, \
         \"passes_ms\": {:.1}, \"redundancy_ms\": {:.1}}}",
        ms(p.merge),
        ms(p.infer),
        ms(p.encode),
        ms(p.discover),
        ms(p.redundancy)
    )
}

struct Measured {
    threads: usize,
    cold_ms: f64,
    incremental_ms: f64,
    cold: RunOutcome,
    incremental: RunOutcome,
}

/// Cold + incremental corpus discovery at `threads`: 32 documents in, one
/// timed cold pass, one more category-0 document, one timed incremental
/// pass.
fn measure(store: &CorpusStore, tag: &str, threads: usize, smoke: bool) -> Measured {
    let config = config_for(threads);
    let mut handle = store.create(tag).expect("create corpus");
    for doc in 0..DOCS_PER_CATEGORY {
        for cat in 0..CATEGORIES {
            let tree = parse_str(&synthetic_doc(cat, doc, smoke)).expect("parse synthetic doc");
            handle
                .add_doc(&format!("cat{cat}-doc{doc}"), &tree)
                .expect("add doc");
        }
    }

    let t0 = Instant::now();
    let cold = handle.discover(&config);
    let cold_ms = t0.elapsed().as_secs_f64() * 1e3;

    // Ingest one more category-0 document; only category 0's relations
    // change, the other 7 categories replay from the memo and keep their
    // cached partial relations.
    let extra = parse_str(&synthetic_doc(0, DOCS_PER_CATEGORY, smoke)).expect("parse extra doc");
    handle.add_doc("cat0-extra", &extra).expect("add extra doc");

    let t0 = Instant::now();
    let incremental = handle.discover(&config);
    let incremental_ms = t0.elapsed().as_secs_f64() * 1e3;

    let status = handle.status();
    assert!(
        status.memo_hits > 0,
        "incremental pass must replay memoised relation passes"
    );
    eprintln!(
        "threads={threads}: cold {cold_ms:.1} ms, incremental {incremental_ms:.1} ms \
         (memo: {} hits / {} misses)",
        status.memo_hits, status.memo_misses
    );
    eprintln!("  incremental phases: {}", phases_json(&incremental));
    Measured {
        threads,
        cold_ms,
        incremental_ms,
        cold,
        incremental,
    }
}

fn main() {
    let mut out_path = String::from("BENCH_corpus.json");
    let mut smoke = false;
    for arg in std::env::args().skip(1) {
        if arg == "--smoke" {
            smoke = true;
        } else {
            out_path = arg;
        }
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());

    let root = std::env::temp_dir().join(format!("xfd-bench-corpus-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let store = CorpusStore::new(&root);

    let mut trees: Vec<DataTree> = Vec::new();
    for doc in 0..=DOCS_PER_CATEGORY {
        for cat in 0..CATEGORIES {
            if doc == DOCS_PER_CATEGORY && cat > 0 {
                continue; // the incremental pass only adds one more cat-0 doc
            }
            trees.push(parse_str(&synthetic_doc(cat, doc, smoke)).expect("parse synthetic doc"));
        }
    }
    let refs33: Vec<&DataTree> = trees.iter().collect();
    let refs32: Vec<&DataTree> = refs33
        .iter()
        .copied()
        .take(CATEGORIES * DOCS_PER_CATEGORY)
        .collect();
    eprintln!(
        "corpus: {} docs, {CATEGORIES} categories, {} rows/doc ({} for the hot category), \
         {cores} core(s){}",
        refs33.len(),
        rows_per_doc(1, smoke),
        rows_per_doc(0, smoke),
        if smoke { ", smoke scale" } else { "" }
    );

    // Priming pass, untimed: every timed measurement below runs against a
    // warmed allocator and page cache.
    let serial = config_for(1);
    let _ = discover_collection(&refs32, &serial);

    let ser = measure(&store, "bench-serial", 1, smoke);
    let par = measure(&store, "bench-parallel", 8, smoke);

    // From-scratch baseline over all 33 trees.
    let t0 = Instant::now();
    let full = discover_collection(&refs33, &serial);
    let full_ms = t0.elapsed().as_secs_f64() * 1e3;
    eprintln!("full recompute: {full_ms:.1} ms");

    // Byte-identity: the serial incremental report matches the
    // from-scratch run on everything before the wall-clock/memo tail
    // (work counters included); the parallel runs match on the report
    // body, since partition-cache counters vary with the intra-pass
    // thread count.
    let full_report = render_json(&full);
    let ser_report = render_json(&ser.incremental);
    let par_report = render_json(&par.incremental);
    if stable(&ser_report) != stable(&full_report) {
        let _ = std::fs::write("/tmp/bench_corpus_incremental.json", &ser_report);
        let _ = std::fs::write("/tmp/bench_corpus_full.json", &full_report);
        panic!("incremental report must be byte-identical to a from-scratch run");
    }
    assert_eq!(
        body(&par_report),
        body(&ser_report),
        "parallel incremental report body diverged from serial"
    );
    assert_eq!(
        body(&render_json(&par.cold)),
        body(&render_json(&ser.cold)),
        "parallel cold report body diverged from serial"
    );

    let speedup = full_ms / ser.incremental_ms;
    eprintln!("incremental speedup over full recompute: {speedup:.1}x");
    assert!(
        speedup >= 3.0,
        "incremental discovery must be at least 3x faster than full \
         recompute (got {speedup:.2}x)"
    );
    let parallel_speedup = ser.incremental_ms / par.incremental_ms;
    eprintln!(
        "parallel incremental vs serial incremental: {parallel_speedup:.2}x on {cores} core(s)"
    );
    // Wall-clock parallel speedup needs actual hardware parallelism; on a
    // single-core host the pooled run is measured and recorded but only
    // required not to regress badly.
    if cores >= 8 {
        assert!(
            parallel_speedup >= 2.0,
            "8-thread incremental discovery must be at least 2x faster than \
             serial on {cores} cores (got {parallel_speedup:.2}x)"
        );
    }

    let docs = refs33.len();
    let _ = std::fs::remove_dir_all(&root);

    let mut json = String::from("{\n  \"corpus\": {\n");
    let _ = write!(
        json,
        "    \"docs\": {docs},\n    \"categories\": {CATEGORIES},\n    \
         \"rows_per_doc\": {},\n    \"hot_rows_per_doc\": {},\n    \
         \"cores\": {cores},\n    \"smoke\": {smoke},\n    \
         \"full_ms\": {full_ms:.1},\n    \
         \"speedup\": {speedup:.2},\n    \"parallel_speedup\": {parallel_speedup:.2},\n",
        rows_per_doc(1, smoke),
        rows_per_doc(0, smoke),
    );
    for m in [&ser, &par] {
        let label = if m.threads == 1 { "serial" } else { "parallel" };
        // A multi-thread row on a 1-core host measures overhead, not
        // parallelism; the marker tells CI gates to skip its speedup.
        let constrained = if m.threads > 1 && cores == 1 {
            "\"constrained\": true, "
        } else {
            ""
        };
        let _ = write!(
            json,
            "    \"{label}\": {{{constrained}\"threads\": {}, \"cold_ms\": {:.1}, \
             \"incremental_ms\": {:.1},\n      \"cold_phases\": {},\n      \
             \"incremental_phases\": {}}},\n",
            m.threads,
            m.cold_ms,
            m.incremental_ms,
            phases_json(&m.cold),
            phases_json(&m.incremental)
        );
    }
    // The pooled wave scheduler re-raises any worker panic, aborting the
    // bench — reaching this line proves the whole run saw none.
    json.push_str("    \"worker_panics\": 0\n  }\n}\n");
    std::fs::write(&out_path, json).expect("write results");
    eprintln!("wrote {out_path}");
}
