//! Warm worker pool integration tests: the second request on an
//! unchanged (corpus, plan fingerprint) key reuses live workers with no
//! respawn, a corpus change re-plans the live workers in place, every
//! pass runs under its own request's configuration, dead entries are
//! respawned transparently, and the idle janitor reaps parked clusters.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Duration;

use discoverxfd::{discover_collection, DiscoveryConfig};
use xfd_cluster::{ClusterOptions, PoolDiscovery, WorkerPool};
use xfd_corpus::{CorpusHandle, CorpusStore};
use xfd_xml::{parse, DataTree};

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("xfd-cluster-pool-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn worker_bin() -> String {
    env!("CARGO_BIN_EXE_xfd-cluster-worker").to_string()
}

fn render_stable(r: &discoverxfd::RunOutcome) -> String {
    let json = discoverxfd::report::render_json(r);
    json.split("\"total_ms\"").next().unwrap().to_string()
}

fn doc(seed: u64) -> DataTree {
    let a = seed % 3;
    let b = seed % 5;
    let xml = format!(
        "<shop><name>S{a}</name><book><i>{b}</i><t>T{a}</t><p>{}</p></book>\
         <order><id>{seed}</id><i>{b}</i></order></shop>",
        b * 10,
    );
    parse(&xml).unwrap()
}

fn seed_corpus(root: &PathBuf, n: u64, config: &DiscoveryConfig) -> String {
    let store = CorpusStore::new(root);
    let mut c = store.create("c").unwrap();
    for i in 0..n {
        c.add_doc(&format!("d{i}"), &doc(i)).unwrap();
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

#[test]
fn second_request_hits_the_warm_pool_and_skips_spawn_and_shipping() {
    let root = tmp("warm");
    let config = DiscoveryConfig::default();
    let expect = seed_corpus(&root, 6, &config);
    let pool = WorkerPool::new(opts(2), Duration::from_secs(600));
    let mut handle = CorpusStore::new(&root).open("c").unwrap();

    let cold = pool.discover(&mut handle, &config).unwrap();
    assert!(!cold.warm, "first request cannot be warm");
    assert_eq!(render_stable(&cold.outcome), expect);
    assert_eq!(cold.stats.workers_spawned, 2);

    let warm = pool.discover(&mut handle, &config).unwrap();
    assert!(warm.warm, "stats: {}", warm.stats.summary());
    assert_eq!(
        render_stable(&warm.outcome),
        expect,
        "warm-path report must be byte-identical"
    );
    assert_eq!(
        warm.stats.segments_shipped, 0,
        "a warm hit must not re-ship segments"
    );

    let snap = pool.snapshot();
    assert_eq!(snap.warm_hits_total, 1);
    assert_eq!(snap.warm_workers, 2);
    assert_eq!(snap.spawning, 0);
    pool.shutdown_all();
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn dead_pool_entries_are_respawned_transparently() {
    let root = tmp("respawn");
    let config = DiscoveryConfig::default();
    let expect = seed_corpus(&root, 6, &config);
    // --exit-after-tasks 0 makes every worker die on its first pass
    // task, so the parked entry is a cluster of corpses.
    let o = ClusterOptions {
        worker_command: vec![worker_bin(), "--exit-after-tasks".into(), "0".into()],
        ..opts(2)
    };
    let pool = WorkerPool::new(o, Duration::from_secs(600));
    let mut handle = CorpusStore::new(&root).open("c").unwrap();

    let first = pool.discover(&mut handle, &config).unwrap();
    assert_eq!(render_stable(&first.outcome), expect);
    assert_eq!(
        first.stats.workers_lost,
        2,
        "stats: {}",
        first.stats.summary()
    );

    let second = pool.discover(&mut handle, &config).unwrap();
    assert!(
        !second.warm,
        "a dead entry must not be reported as a warm hit"
    );
    assert_eq!(
        render_stable(&second.outcome),
        expect,
        "respawn must be invisible in the report"
    );
    assert!(pool.snapshot().reaped_total >= 1);
    pool.shutdown_all();
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn idle_entries_are_reaped_on_deadline() {
    let root = tmp("reap");
    let config = DiscoveryConfig::default();
    seed_corpus(&root, 4, &config);
    let pool = WorkerPool::new(opts(1), Duration::from_millis(0));
    let mut handle = CorpusStore::new(&root).open("c").unwrap();
    pool.discover(&mut handle, &config).unwrap();
    assert_eq!(pool.snapshot().warm_workers, 1);
    assert_eq!(pool.reap_idle(), 1);
    let snap = pool.snapshot();
    assert_eq!(snap.warm_workers, 0);
    assert!(snap.reaped_total >= 1);
    let _ = fs::remove_dir_all(&root);
}

/// Assert that a pooled report equals both an unpooled discovery on a
/// fresh read-only handle and `discover_collection` over the same trees,
/// before the wall-clock tail.
fn assert_matches_unpooled(
    root: &Path,
    handle: &CorpusHandle,
    got: &PoolDiscovery,
    config: &DiscoveryConfig,
) {
    let report = render_stable(&got.outcome);
    let mut fresh = CorpusStore::new(root).open_readonly("c").unwrap();
    assert_eq!(
        report,
        render_stable(&fresh.discover(config)),
        "pooled report differs from CorpusHandle::discover (stats: {})",
        got.stats.summary()
    );
    let trees = handle.trees();
    assert_eq!(
        report,
        render_stable(&discover_collection(&trees, config)),
        "pooled report differs from discover_collection"
    );
}

#[test]
fn pooled_passes_run_under_each_requests_configuration() {
    let root = tmp("config");
    let bounded = DiscoveryConfig {
        max_lhs_size: Some(1),
        ..DiscoveryConfig::default()
    };
    let config = DiscoveryConfig::default();
    // `c` is `a` xor `b`: `{./a, ./b} -> ./c` holds, but no FD with a
    // one-path LHS determines `c`, so the LHS bound changes the report.
    let mut corpus = CorpusStore::new(&root).create("c").unwrap();
    for d in 0..4u32 {
        let mut xml = String::from("<t>");
        for i in 0..4u32 {
            let (a, b) = (i % 2, (i / 2 + d) % 2);
            xml += &format!("<r><a>{a}</a><b>{b}</b><c>{}</c><k>{d}{i}</k></r>", a ^ b);
        }
        xml += "</t>";
        corpus
            .add_doc(&format!("x{d}"), &parse(&xml).unwrap())
            .unwrap();
    }
    drop(corpus);
    let pool = WorkerPool::new(opts(2), Duration::from_secs(600));
    let mut handle = CorpusStore::new(&root).open("c").unwrap();

    // The workers are admitted under the bounded request's plan; the
    // default request that follows (same encode plan, unchanged corpus)
    // must still get passes under the default configuration.
    let first = pool.discover(&mut handle, &bounded).unwrap();
    assert_matches_unpooled(&root, &handle, &first, &bounded);
    let second = pool.discover(&mut handle, &config).unwrap();
    assert!(second.warm, "stats: {}", second.stats.summary());
    assert!(
        second.stats.pass_remote > 0,
        "stats: {}",
        second.stats.summary()
    );
    assert_matches_unpooled(&root, &handle, &second, &config);
    pool.shutdown_all();
    let _ = fs::remove_dir_all(&root);
}

/// Three corpus changes, each followed by a discovery through the warm
/// entry: the workers re-plan in place (no spawn, nothing retired) and
/// the report matches unpooled discovery.
fn replan_through_changes(tag: &str, o: ClusterOptions, storage_less: bool) {
    let workers = o.workers as u64;
    let root = tmp(tag);
    let config = DiscoveryConfig::default();
    seed_corpus(&root, 6, &config);
    let pool = WorkerPool::new(o, Duration::from_secs(600));
    let mut handle = CorpusStore::new(&root).open("c").unwrap();
    let cold = pool.discover(&mut handle, &config).unwrap();
    assert!(!cold.warm);
    assert_matches_unpooled(&root, &handle, &cold, &config);

    type Change = fn(&mut CorpusHandle);
    let changes: [(&str, Change, u64); 3] = [
        ("add at the end", |h| h.add_doc("d6", &doc(6)).unwrap(), 1),
        ("remove in the middle", |h| h.remove_doc("d2").unwrap(), 0),
        // Same bytes as d0: a digest the workers already hold.
        (
            "re-add a present digest",
            |h| h.add_doc("again", &doc(0)).unwrap(),
            0,
        ),
    ];
    for (what, change, new_segments) in changes {
        change(&mut handle);
        let got = pool.discover(&mut handle, &config).unwrap();
        assert!(got.warm, "{what}: stats: {}", got.stats.summary());
        assert_eq!(pool.snapshot().reaped_total, 0, "{what}: entry was retired");
        assert_eq!(
            got.stats.workers_live,
            workers,
            "{what}: stats: {}",
            got.stats.summary()
        );
        assert_eq!(
            got.stats.handshake_failures,
            0,
            "{what}: stats: {}",
            got.stats.summary()
        );
        if storage_less {
            assert_eq!(
                got.stats.segments_shipped,
                new_segments,
                "{what}: only new segments travel (stats: {})",
                got.stats.summary()
            );
        }
        assert_matches_unpooled(&root, &handle, &got, &config);
    }
    pool.shutdown_all();
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn a_changed_corpus_replans_the_warm_entry_in_place() {
    replan_through_changes("replan", opts(2), false);
}

#[test]
fn a_storage_less_worker_is_shipped_only_new_segments_on_replan() {
    let cache = tmp("replan-cache");
    let o = ClusterOptions {
        worker_command: vec![
            worker_bin(),
            "--no-shared-storage".into(),
            "--seg-cache".into(),
            cache.display().to_string(),
        ],
        ..opts(1)
    };
    replan_through_changes("replan-shipped", o, true);
    let _ = fs::remove_dir_all(&cache);
}

#[test]
fn a_schema_changing_add_takes_a_cold_spawn() {
    let root = tmp("schema");
    let config = DiscoveryConfig::default();
    seed_corpus(&root, 4, &config);
    let pool = WorkerPool::new(opts(2), Duration::from_secs(600));
    let mut handle = CorpusStore::new(&root).open("c").unwrap();
    pool.discover(&mut handle, &config).unwrap();
    // A new element changes the collection schema, hence the plan key.
    let wider = parse(
        "<shop><name>S9</name><book><i>1</i><t>T1</t><p>10</p><isbn>9</isbn></book>\
         <order><id>9</id><i>1</i></order></shop>",
    )
    .unwrap();
    handle.add_doc("wider", &wider).unwrap();
    let got = pool.discover(&mut handle, &config).unwrap();
    assert!(!got.warm, "a new plan key cannot be served warm");
    assert_eq!(
        got.stats.workers_spawned,
        2,
        "stats: {}",
        got.stats.summary()
    );
    assert_matches_unpooled(&root, &handle, &got, &config);
    pool.shutdown_all();
    let _ = fs::remove_dir_all(&root);
}

/// SIGKILL a pooled worker by the pid its launcher recorded.
fn kill_worker(pids: &Path, index: usize) {
    let pid = fs::read_to_string(pids.join(format!("w{index}.pid"))).unwrap();
    let status = Command::new("kill")
        .arg("-9")
        .arg(pid.trim())
        .status()
        .unwrap();
    assert!(status.success(), "kill worker {index}");
}

#[test]
fn a_survivor_replans_and_a_dead_entry_is_respawned() {
    let root = tmp("kill");
    let pids = tmp("kill-pids");
    fs::create_dir_all(&pids).unwrap();
    let config = DiscoveryConfig::default();
    seed_corpus(&root, 6, &config);
    // A launcher that records each worker's pid (`$4` is its `--index`)
    // before becoming the worker.
    let launcher = format!(
        "echo $$ > '{}'/w$4.pid; exec '{}' \"$@\"",
        pids.display(),
        worker_bin()
    );
    let o = ClusterOptions {
        worker_command: vec!["sh".into(), "-c".into(), launcher, "sh".into()],
        ..opts(2)
    };
    let pool = WorkerPool::new(o, Duration::from_secs(600));
    let mut handle = CorpusStore::new(&root).open("c").unwrap();
    pool.discover(&mut handle, &config).unwrap();

    // One worker dies between requests: the survivor re-plans alone.
    kill_worker(&pids, 0);
    handle.add_doc("d6", &doc(6)).unwrap();
    let got = pool.discover(&mut handle, &config).unwrap();
    assert!(got.warm, "stats: {}", got.stats.summary());
    assert_eq!(pool.snapshot().reaped_total, 0);
    assert_eq!(got.stats.workers_live, 1, "stats: {}", got.stats.summary());
    assert!(got.stats.pass_remote > 0, "stats: {}", got.stats.summary());
    assert_matches_unpooled(&root, &handle, &got, &config);

    // The survivor dies too: the entry is retired and respawned cold.
    kill_worker(&pids, 1);
    handle.add_doc("d7", &doc(7)).unwrap();
    let got = pool.discover(&mut handle, &config).unwrap();
    assert!(!got.warm, "stats: {}", got.stats.summary());
    assert_eq!(pool.snapshot().reaped_total, 1);
    assert_eq!(got.stats.workers_live, 2, "stats: {}", got.stats.summary());
    assert_matches_unpooled(&root, &handle, &got, &config);
    pool.shutdown_all();
    let _ = fs::remove_dir_all(&root);
    let _ = fs::remove_dir_all(&pids);
}
