//! End-to-end cluster runs against real worker subprocesses
//! (`xfd-cluster-worker`, this crate's own binary): byte-parity with
//! single-process discovery at several worker counts, survival of a
//! `kill -9` mid-pass, graceful total-loss fallback, and the typed
//! plan-mismatch rejection.

use std::fs;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use discoverxfd::DiscoveryConfig;
use xfd_cluster::{cluster_discover, ClusterError, ClusterOptions, ClusterStats};
use xfd_corpus::CorpusStore;
use xfd_xml::{parse, DataTree};

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xfd-cluster-it-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn worker_bin() -> String {
    env!("CARGO_BIN_EXE_xfd-cluster-worker").to_string()
}

/// Rendered report with wall-clock (and the memo counters that render
/// after it) stripped: everything before `"total_ms"` must be
/// byte-identical.
fn render_stable(r: &discoverxfd::RunOutcome) -> String {
    let json = discoverxfd::report::render_json(r);
    json.split("\"total_ms\"").next().unwrap().to_string()
}

/// Documents with repeated correlated sets so FDs, keys and redundancies
/// all exist and several relation passes get scheduled.
fn doc(seed: u64) -> DataTree {
    let a = seed % 3;
    let b = seed % 5;
    let xml = format!(
        "<shop><name>S{a}</name><book><i>{b}</i><t>T{a}</t><p>{}</p></book>\
         <book><i>{b}</i><t>T{a}</t><p>{}</p></book>\
         <order><id>{seed}</id><i>{b}</i></order></shop>",
        b * 10,
        (seed % 7) * 10,
    );
    parse(&xml).unwrap()
}

/// Documents of one lattice-bound relation: 10 random columns over a
/// domain of 4, so nearly every lattice node is validated. A pass over a
/// few of them still runs long after the coordinator has sent it.
fn lattice_bound_doc(seed: u64) -> DataTree {
    xfd_datagen::wide_relation(&xfd_datagen::WideSpec {
        rows: 250,
        width: 10,
        domain: 4,
        derived_fraction: 0.0,
        seed,
    })
}

/// Create a corpus of `n` documents under `root` and return the baseline
/// single-process report.
fn seed_corpus(root: &PathBuf, n: u64, config: &DiscoveryConfig) -> String {
    seed_corpus_of(root, n, config, doc)
}

/// [`seed_corpus`] over documents made by `make`.
fn seed_corpus_of(
    root: &PathBuf,
    n: u64,
    config: &DiscoveryConfig,
    make: impl Fn(u64) -> DataTree,
) -> String {
    let store = CorpusStore::new(root);
    let mut c = store.create("c").unwrap();
    for i in 0..n {
        c.add_doc(&format!("d{i}"), &make(i)).unwrap();
    }
    render_stable(&c.discover(config))
}

fn opts(workers: usize) -> ClusterOptions {
    ClusterOptions {
        workers,
        worker_command: vec![worker_bin()],
        ..ClusterOptions::default()
    }
}

/// One cold cluster run on a freshly opened handle.
fn cluster_run(
    root: &PathBuf,
    config: &DiscoveryConfig,
    o: &ClusterOptions,
) -> Result<(String, ClusterStats), ClusterError> {
    let mut handle = CorpusStore::new(root).open("c").unwrap();
    let (outcome, stats) = cluster_discover(&mut handle, config, o)?;
    Ok((render_stable(&outcome), stats))
}

#[test]
fn cluster_reports_are_byte_identical_at_1_2_and_4_workers() {
    let root = tmp("parity");
    let config = DiscoveryConfig::default();
    let expect = seed_corpus(&root, 6, &config);
    for workers in [1usize, 2, 4] {
        let (report, stats) = cluster_run(&root, &config, &opts(workers)).unwrap();
        assert_eq!(
            report, expect,
            "cluster report at {workers} workers diverged from single-process discover"
        );
        assert_eq!(stats.workers_spawned, workers as u64);
        assert_eq!(
            stats.workers_live, workers as u64,
            "no worker should be lost"
        );
        assert_eq!(stats.handshake_failures, 0);
        assert!(
            stats.encode_remote > 0,
            "cold run must encode some segments remotely (stats: {})",
            stats.summary()
        );
        assert!(
            stats.pass_remote > 0,
            "cold run must execute some passes remotely (stats: {})",
            stats.summary()
        );
    }
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn killing_a_worker_mid_pass_retries_and_keeps_the_report_identical() {
    let root = tmp("kill");
    let config = DiscoveryConfig::default();
    // The deepest wave is the one lattice-bound relation, so the first
    // pass sent, the one whose worker is killed, is still running then.
    let expect = seed_corpus_of(&root, 6, &config, lattice_bound_doc);
    let o = ClusterOptions {
        kill_worker_after: Some(1),
        ..opts(2)
    };
    let (report, stats) = cluster_run(&root, &config, &o).unwrap();
    assert_eq!(
        report,
        expect,
        "report after a mid-pass kill -9 diverged (stats: {})",
        stats.summary()
    );
    assert_eq!(stats.workers_lost, 1, "stats: {}", stats.summary());
    assert_eq!(stats.workers_live, 1, "stats: {}", stats.summary());
    assert!(
        stats.tasks_retried + stats.tasks_fallback >= 1,
        "the killed worker's in-flight task must be reassigned or recomputed (stats: {})",
        stats.summary()
    );
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn losing_every_worker_falls_back_to_local_compute() {
    let root = tmp("total-loss");
    let config = DiscoveryConfig::default();
    let expect = seed_corpus(&root, 5, &config);
    // Every worker self-destructs (exit 9, task unanswered) on its first
    // pass task: encoding still happens remotely, passes all fall back.
    let o = ClusterOptions {
        worker_command: vec![worker_bin(), "--exit-after-tasks".into(), "0".into()],
        ..opts(2)
    };
    let (report, stats) = cluster_run(&root, &config, &o).unwrap();
    assert_eq!(
        report,
        expect,
        "report after losing the whole pool diverged (stats: {})",
        stats.summary()
    );
    assert_eq!(stats.workers_lost, 2, "stats: {}", stats.summary());
    assert!(
        stats.tasks_fallback >= 1,
        "with no pool left, tasks must fall back locally (stats: {})",
        stats.summary()
    );
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn plan_mismatch_is_a_typed_error_not_a_hang() {
    let root = tmp("mismatch");
    let config = DiscoveryConfig::default();
    seed_corpus(&root, 3, &config);
    let o = ClusterOptions {
        corrupt_plan: true,
        ..opts(2)
    };
    let start = Instant::now();
    let err = cluster_run(&root, &config, &o).unwrap_err();
    match err {
        ClusterError::PlanMismatch { expected, got } => {
            assert_eq!(
                got,
                expected ^ 0xDEAD_BEEF,
                "--corrupt-plan flips the fingerprint by a known constant"
            );
        }
        other => panic!("expected PlanMismatch, got: {other}"),
    }
    assert!(
        start.elapsed() < Duration::from_secs(20),
        "mismatch rejection must not wait out full timeouts"
    );
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn zero_workers_is_plain_local_discovery() {
    let root = tmp("zero");
    let config = DiscoveryConfig::default();
    let expect = seed_corpus(&root, 4, &config);
    let o = ClusterOptions {
        workers: 0,
        ..opts(0)
    };
    let (report, stats) = cluster_run(&root, &config, &o).unwrap();
    assert_eq!(report, expect);
    assert_eq!(stats.workers_spawned, 0);
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn warm_cluster_rerun_serves_passes_from_the_memo() {
    // Second cluster run on the SAME handle: forest cached, memo hot —
    // workers see no encode work and no pass tasks, and the report is
    // still identical.
    let root = tmp("warm");
    let config = DiscoveryConfig::default();
    let expect = seed_corpus(&root, 5, &config);
    let mut handle = CorpusStore::new(&root).open("c").unwrap();
    let o = opts(2);
    let (cold, _) = cluster_discover(&mut handle, &config, &o).unwrap();
    assert_eq!(render_stable(&cold), expect);
    let (warm, stats) = cluster_discover(&mut handle, &config, &o).unwrap();
    assert_eq!(render_stable(&warm), expect);
    assert_eq!(
        stats.encode_tasks,
        0,
        "warm rerun re-encodes nothing (stats: {})",
        stats.summary()
    );
    assert_eq!(
        stats.pass_tasks,
        0,
        "memo hits never reach the cluster (stats: {})",
        stats.summary()
    );
    let _ = fs::remove_dir_all(&root);
}
