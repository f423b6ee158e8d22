//! Partition-machinery benchmark (`scripts/bench_quick.sh`).
//!
//! Sweeps the warehouse, XMark-like SF=1 and deep synthetic datasets
//! through the sequential, parallel and byte-budgeted discovery
//! configurations, recording wall time and the partition-cache counters;
//! compares the tiered partition kernel against the materializing one on
//! the deep dataset's relation through `discover_intra`, the only place
//! the materializing kernel still runs; and counts the heap allocations of
//! the CSR scratch-reusing partition product against a naive
//! per-group-`Vec` product (the classic TANE-style layout). Results land
//! in `BENCH_partitions.json` (or the path given as the first argument).
//!
//! ```sh
//! cargo run --release -p xfd-bench --bin bench_partitions [-- out.json]
//! ```

#![deny(unsafe_op_in_unsafe_fn)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use discoverxfd::intra::{discover_intra, IntraOptions, RunStats};
use discoverxfd::{discover, DiscoveryConfig};
use xfd_datagen::{
    warehouse_scaled, wide_relation, xmark_like, WarehouseSpec, WideSpec, XmarkSpec,
};
use xfd_partition::{GroupMap, Partition, ProductScratch};
use xfd_relation::{encode, EncodeConfig};
use xfd_schema::infer_schema;
use xfd_xml::DataTree;

/// Passthrough system allocator that counts allocation events, so the
/// product-hot-path comparison reports real numbers, not estimates.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `layout` is forwarded unchanged from our caller, which
        // upholds GlobalAlloc's contract (non-zero size, valid alignment).
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` come from our caller's matching `alloc`,
        // which delegated to `System` with this same layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: arguments are forwarded unchanged from our caller, which
        // upholds GlobalAlloc's realloc contract for the `System` block.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// One discovery configuration of the sweep.
struct RunResult {
    config: &'static str,
    kernel: &'static str,
    ms: f64,
    /// Wall time of the lattice-discovery phase alone (the part the
    /// partition kernels run in), excluding parse/encode/redundancy.
    lattice_ms: f64,
    /// Lattice work counters; identical across repetitions.
    stats: RunStats,
    fds: usize,
    keys: usize,
}

fn run_config(
    tree: &DataTree,
    config: &DiscoveryConfig,
    label: &'static str,
    reps: usize,
) -> RunResult {
    // Best-of-`reps` wall time; counters are identical across repetitions.
    let mut best = f64::MAX;
    let mut best_lattice = f64::MAX;
    let mut report = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let r = discover(tree, config);
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
        best_lattice = best_lattice.min(r.profile.discover.as_secs_f64() * 1e3);
        report = Some(r);
    }
    let r = report.expect("at least one run");
    RunResult {
        config: label,
        kernel: "tiered",
        ms: best,
        lattice_ms: best_lattice,
        stats: r.stats.lattice,
        fds: r.fds.len(),
        keys: r.keys.len(),
    }
}

/// One `discover_intra` run over a table, best of `reps`: the whole run is
/// the lattice phase, so `ms` and `lattice_ms` agree.
fn run_intra(
    columns: &[&[Option<u64>]],
    n_tuples: usize,
    opts: &IntraOptions,
    label: &'static str,
    reps: usize,
) -> RunResult {
    let mut best = f64::MAX;
    let mut result = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let r = discover_intra(columns, n_tuples, opts);
        best = best.min(t0.elapsed().as_secs_f64() * 1e3);
        result = Some(r);
    }
    let r = result.expect("at least one run");
    RunResult {
        config: label,
        kernel: if opts.error_only_kernel {
            "tiered"
        } else {
            "materializing"
        },
        ms: best,
        lattice_ms: best,
        stats: r.stats,
        fds: r.fds.len(),
        keys: r.keys.len(),
    }
}

/// The tiered kernel against the materializing one on the widest relation
/// of `tree`, through `discover_intra` under the options DiscoverXFD's
/// relation pass uses (`candidateLHS2`, i.e. rule 2 off). Asserts the
/// tiered peak residency at no more than the materializing run's, and
/// returns the verdict of the `gate` on the lattice speedup rather than
/// asserting it, so that the caller writes every row first.
fn kernel_ab(name: &str, tree: &DataTree, gate: f64) -> ([RunResult; 2], Result<(), String>) {
    let schema = infer_schema(tree);
    let forest = encode(tree, &schema, &EncodeConfig::default());
    let rel = forest
        .relations
        .iter()
        .max_by_key(|r| r.columns.len())
        .expect("a forest has a root relation");
    let columns: Vec<&[Option<u64>]> = rel.columns.iter().map(|c| c.cells.as_slice()).collect();
    let tiered = IntraOptions {
        use_rule2: false,
        ..Default::default()
    };
    let materializing = IntraOptions {
        error_only_kernel: false,
        ..tiered
    };
    let runs = [
        run_intra(&columns, rel.n_tuples(), &tiered, "intra-tiered", 3),
        run_intra(
            &columns,
            rel.n_tuples(),
            &materializing,
            "intra-materializing",
            3,
        ),
    ];
    assert_eq!(
        (runs[0].fds, runs[0].keys),
        (runs[1].fds, runs[1].keys),
        "{name}: the kernels disagree"
    );
    // The tiered kernel must actually engage, and must not cost memory:
    // summaries are 32 bytes against whole CSR partitions.
    assert!(
        runs[0].stats.products_error_only > 0 && runs[0].stats.early_exits > 0,
        "{name}: tiered run never exited early through the error-only kernel"
    );
    assert_eq!(
        runs[1].stats.products_error_only, 0,
        "{name}: materializing run used the error-only kernel"
    );
    assert!(
        runs[0].stats.peak_resident_bytes <= runs[1].stats.peak_resident_bytes,
        "{name}: tiered peak {} exceeds materializing peak {}",
        runs[0].stats.peak_resident_bytes,
        runs[1].stats.peak_resident_bytes
    );
    let speedup = runs[1].lattice_ms / runs[0].lattice_ms;
    let verdict = if speedup >= gate {
        Ok(())
    } else {
        Err(format!(
            "{name}: tiered kernel speedup {speedup:.2}x below the {gate:.1}x gate \
             (lattice {:.2} ms tiered vs {:.2} ms materializing)",
            runs[0].lattice_ms, runs[1].lattice_ms
        ))
    };
    (runs, verdict)
}

/// Run and record one dataset's sweep. Returns the message of a missed
/// kernel gate, which the caller raises once every row is written.
fn sweep(
    name: &str,
    tree: &DataTree,
    budget: usize,
    kernel_gate: Option<f64>,
    inter_relation: bool,
    out: &mut String,
) -> Option<String> {
    let mut configs: [(&'static str, DiscoveryConfig); 3] = [
        ("sequential", DiscoveryConfig::default()),
        // Two workers: relation passes of one wave run on a pool (pure
        // overhead where `available_parallelism` is 1).
        (
            "parallel-2",
            DiscoveryConfig {
                threads: 2,
                ..Default::default()
            },
        ),
        (
            "budgeted",
            DiscoveryConfig {
                cache_budget: Some(budget),
                ..Default::default()
            },
        ),
    ];
    // Flat synthetic relations hang off a one-row document root; target
    // propagation toward it is busywork that forces every candidate to
    // materialize, so those sweeps switch the inter-relation pass off.
    for (_, cfg) in &mut configs {
        cfg.inter_relation = inter_relation;
    }
    let mut results: Vec<RunResult> = configs
        .iter()
        .map(|(label, cfg)| {
            // The budgeted run trades time for memory by design; one
            // repetition keeps the quick sweep quick.
            let reps = if *label == "budgeted" { 1 } else { 3 };
            run_config(tree, cfg, label, reps)
        })
        .collect();
    // The whole point of the parallel/budgeted modes: identical output.
    for r in &results[1..] {
        assert_eq!(
            (r.fds, r.keys),
            (results[0].fds, results[0].keys),
            "{name}: {} diverged from sequential",
            r.config
        );
    }
    // Threads only split relations across workers, so every work counter
    // matches the sequential run too.
    assert_eq!(
        results[1].stats, results[0].stats,
        "{name}: parallel-2 work counters diverged from sequential"
    );
    assert!(
        results[0].stats.products_error_only > 0,
        "{name}: tiered run never used the error-only kernel"
    );
    let speedup = results[0].ms / results[1].ms;
    let speedup_kernel = kernel_gate.map(|gate| {
        let ([tiered, materializing], verdict) = kernel_ab(name, tree, gate);
        // Without targets, the sequential run's one non-trivial relation
        // pass is exactly the tiered lattice the comparison timed.
        if !inter_relation {
            assert_eq!(
                tiered.stats, results[0].stats,
                "{name}: the kernel comparison left the relation pass's path"
            );
        }
        let speedup = materializing.lattice_ms / tiered.lattice_ms;
        eprintln!(
            "{name}: intra lattice tiered {:.2} ms vs materializing {:.2} ms \
             (kernel {speedup:.2}x), peak {} vs {} bytes",
            tiered.lattice_ms,
            materializing.lattice_ms,
            tiered.stats.peak_resident_bytes,
            materializing.stats.peak_resident_bytes
        );
        results.push(tiered);
        results.push(materializing);
        (speedup, gate, verdict)
    });
    let stats = tree.stats();
    // A 1-core box runs "parallel" rows on the sequential path plus thread
    // overhead; mark them so CI gates skip their speedups.
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let _ = writeln!(
        out,
        "    {{\"name\": \"{name}\", \"nodes\": {}, \"runs\": [",
        stats.nodes
    );
    for (i, r) in results.iter().enumerate() {
        let constrained = if cores == 1 && r.config.starts_with("parallel") {
            ", \"constrained\": true"
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "      {{\"config\": \"{}\", \"kernel\": \"{}\", \"ms\": {:.2}, \
             \"lattice_ms\": {:.2}, \
             \"fds\": {}, \"keys\": {}, \
             \"lattice_nodes\": {}, \"partitions\": {}, \"products\": {}, \
             \"products_error_only\": {}, \"products_materialized\": {}, \
             \"early_exits\": {}, \"summary_hits\": {}, \
             \"cache_hits\": {}, \"cache_misses\": {}, \"evictions\": {}, \
             \"peak_resident_bytes\": {}{constrained}}}{}",
            r.config,
            r.kernel,
            r.ms,
            r.lattice_ms,
            r.fds,
            r.keys,
            r.stats.nodes_visited,
            r.stats.partitions_built,
            r.stats.products,
            r.stats.products_error_only,
            r.stats.products_materialized,
            r.stats.early_exits,
            r.stats.summary_hits,
            r.stats.cache_hits,
            r.stats.cache_misses,
            r.stats.evictions,
            r.stats.peak_resident_bytes,
            if i + 1 < results.len() { "," } else { "" }
        );
    }
    let _ = write!(out, "    ], \"speedup_parallel\": {speedup:.3}, ");
    if let Some((k, gate, verdict)) = &speedup_kernel {
        let _ = write!(
            out,
            "\"speedup_kernel\": {k:.3}, \"kernel_gate\": {gate:.1}, \"kernel_gate_met\": {}, ",
            verdict.is_ok()
        );
    }
    let _ = write!(out, "\"identical_output\": true}}");
    eprintln!(
        "{name}: sequential {:.2} ms (lattice {:.2}), parallel {:.2} ms ({speedup:.2}x), \
         budget peak {} -> {} bytes ({} evictions)",
        results[0].ms,
        results[0].lattice_ms,
        results[1].ms,
        results[0].stats.peak_resident_bytes,
        results[2].stats.peak_resident_bytes,
        results[2].stats.evictions,
    );
    speedup_kernel.and_then(|(_, _, verdict)| verdict.err())
}

/// The pre-CSR shape of a partition product: one heap `Vec` per output
/// group, collected through a `HashMap` — what the hot path allocated
/// before the flat scratch-reusing layout.
fn naive_product(pa: &Partition, pb: &Partition) -> Vec<Vec<u32>> {
    let gm = GroupMap::new(pb);
    let mut out: Vec<Vec<u32>> = Vec::new();
    for g in pa.groups() {
        let mut by_b: HashMap<u32, Vec<u32>> = HashMap::new();
        for &t in g {
            if let Some(gb) = gm.group_of(t) {
                by_b.entry(gb).or_default().push(t);
            }
        }
        for (_, members) in by_b {
            if members.len() >= 2 {
                out.push(members);
            }
        }
    }
    out
}

/// Count allocations per product for the naive layout vs. the CSR
/// scratch-reusing `product_in` on identical operands.
fn product_allocation_comparison(out: &mut String) {
    // Realistic operands: 50k tuples, a few hundred groups each — the
    // shape of a mid-lattice level on XMark SF=1.
    const N: usize = 50_000;
    const REPS: u64 = 200;
    let col = |m: u64, k: u64| -> Vec<Option<u64>> {
        (0..N as u64)
            .map(|t| Some(t.wrapping_mul(m).rotate_left(17) % k))
            .collect()
    };
    let pa = Partition::from_column(&col(2_654_435_761, 400));
    let pb = Partition::from_column(&col(1_000_003, 350));

    let mut scratch = ProductScratch::new();
    // Warm the scratch so steady-state reuse is measured, not first growth.
    let warm = pa.product_in(&pb, &mut scratch);
    drop(warm);

    let before = allocs();
    for _ in 0..REPS {
        let p = pa.product_in(&pb, &mut scratch);
        std::hint::black_box(&p);
    }
    let csr_per_product = (allocs() - before) as f64 / REPS as f64;

    let before = allocs();
    for _ in 0..REPS {
        let p = naive_product(&pa, &pb);
        std::hint::black_box(&p);
    }
    let naive_per_product = (allocs() - before) as f64 / REPS as f64;

    // The error-only kernel returns a 3-word summary from warmed scratch:
    // steady state must be allocation-free, and this is the assert that
    // keeps it so.
    let base = GroupMap::new(&pb);
    let warm = pa.error_refine_in(&base, &mut scratch, None);
    std::hint::black_box(&warm);
    let before = allocs();
    for _ in 0..REPS {
        let s = pa.error_refine_in(&base, &mut scratch, None);
        std::hint::black_box(&s);
    }
    let error_only_allocs = allocs() - before;
    assert_eq!(
        error_only_allocs, 0,
        "error-only kernel allocated in steady state ({error_only_allocs} over {REPS} reps)"
    );

    let reduction = naive_per_product / csr_per_product.max(1.0);
    let _ = write!(
        out,
        "  \"product_allocations\": {{\"tuples\": {N}, \"reps\": {REPS}, \
         \"naive_per_product\": {naive_per_product:.1}, \
         \"csr_scratch_per_product\": {csr_per_product:.1}, \
         \"error_only_per_product\": 0.0, \
         \"reduction_factor\": {reduction:.1}}}"
    );
    eprintln!(
        "product hot path: naive {naive_per_product:.1} allocs/product, \
         CSR+scratch {csr_per_product:.1} allocs/product ({reduction:.1}x fewer), \
         error-only 0 allocs/product"
    );
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_partitions.json".to_string());

    let warehouse = warehouse_scaled(&WarehouseSpec {
        states: 6,
        stores_per_state: 4,
        books_per_store: 12,
        ..Default::default()
    });
    let xmark = xmark_like(&XmarkSpec::with_scale(1.0));
    // A deep validation-heavy relation: with domain⁰·⁵ʷⁱᵈᵗʰ ≪ rows the
    // stripped partitions stay near-full-size down to level ~7, no subset
    // is a key until the very top, and no FD holds among the random
    // columns — so nearly every one of the 2^width nodes is validated and
    // most validations exit early. Per level k the tiered kernel refines
    // C(width−1, k) frontier partitions instead of materializing all
    // C(width, k), and every validation is a bare scan of one parent's
    // stripped tuples through a base map instead of a probe-table product.
    let deep = wide_relation(&WideSpec {
        rows: 40_000,
        width: 10,
        domain: 4,
        derived_fraction: 0.0,
        seed: 7,
    });

    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    // On a single-core machine `parallel-2` is the sequential path plus
    // thread overhead, so `speedup_parallel` sits at or below 1.0 there;
    // record the core count so the numbers are interpretable.
    let mut json = format!("{{\n  \"available_parallelism\": {cores},\n  \"datasets\": [\n");
    sweep("warehouse", &warehouse, 1 << 20, None, true, &mut json);
    json.push_str(",\n");
    sweep("xmark-sf1", &xmark, 1 << 20, None, true, &mut json);
    json.push_str(",\n");
    // The deep working set peaks around ~40 MB tiered (stripped partitions
    // stay fat at this domain); a 12 MiB budget shows real eviction
    // pressure without the pathological thrash of tiny budgets. This is
    // the dataset the tiered kernel exists for, so its kernel A/B gates
    // the lattice phase at 1.5x.
    let missed_gate = sweep("deep-10x40k", &deep, 12 << 20, Some(1.5), false, &mut json);
    json.push_str("\n  ],\n");
    product_allocation_comparison(&mut json);
    json.push_str("\n}\n");

    std::fs::write(&out_path, &json).expect("write benchmark JSON");
    eprintln!("wrote {out_path}");
    // A missed timing gate fails the run only after its rows are written.
    if let Some(message) = missed_gate {
        panic!("{message}");
    }
}
