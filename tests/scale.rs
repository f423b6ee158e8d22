//! Larger end-to-end smokes: the system must remain robust (no panics,
//! sensible outputs, bounded target counts) well beyond the unit-test
//! scales. Runtime is kept in the low seconds in debug builds.

use discoverxfd_suite::prelude::*;
use xfd_datagen::{warehouse_scaled, xmark_like, WarehouseSpec, XmarkSpec};

#[test]
fn xmark_scale_4_end_to_end() {
    let tree = xmark_like(&XmarkSpec::with_scale(4.0));
    assert!(tree.node_count() > 8_000);
    let report = discover(
        &tree,
        &DiscoveryConfig {
            max_lhs_size: Some(3),
            ..Default::default()
        },
    );
    assert!(!report.fds.is_empty());
    assert!(
        report.stats.targets.dropped_overflow == 0,
        "caps must not trigger at this scale"
    );
    // Serialization round-trip at scale.
    let xml = to_xml_string(&tree);
    let reparsed = parse(&xml).unwrap();
    assert_eq!(reparsed.node_count(), tree.node_count());
}

#[test]
fn big_warehouse_parallel_equals_sequential() {
    let tree = warehouse_scaled(&WarehouseSpec {
        states: 10,
        stores_per_state: 6,
        books_per_store: 25,
        catalog_size: 120,
        ..Default::default()
    });
    let seq = discover(&tree, &DiscoveryConfig::default());
    let par = discover(
        &tree,
        &DiscoveryConfig {
            threads: 4,
            ..Default::default()
        },
    );
    let s: Vec<String> = seq.fds.iter().map(|f| f.to_string()).collect();
    let p: Vec<String> = par.fds.iter().map(|f| f.to_string()).collect();
    assert_eq!(s, p);
    assert_eq!(seq.redundancies.len(), par.redundancies.len());
}

#[test]
fn deep_synthetic_nesting() {
    // Seven levels of set nesting: discovery and targets traverse cleanly.
    let mut xml = String::from("<l0>");
    fn nest(xml: &mut String, depth: usize, branch: usize) {
        if depth == 7 {
            xml.push_str(&format!("<v>{}</v>", branch % 3));
            return;
        }
        for b in 0..2 {
            xml.push_str(&format!("<l{depth}>"));
            xml.push_str(&format!("<a{depth}>{}</a{depth}>", (branch + b) % 2));
            nest(xml, depth + 1, branch + b);
            xml.push_str(&format!("</l{depth}>"));
        }
    }
    nest(&mut xml, 1, 0);
    xml.push_str("</l0>");
    let tree = parse(&xml).unwrap();
    let report = discover(
        &tree,
        &DiscoveryConfig {
            max_lhs_size: Some(2),
            ..Default::default()
        },
    );
    assert!(report.stats.forest.relations >= 7);
    // Sanity: every reported FD re-verifies.
    let (_, forest) = discoverxfd::driver::encode_only(&tree, &DiscoveryConfig::default());
    for fd in report.fds.iter().take(20) {
        let spec: discoverxfd::verify::FdSpec = fd
            .to_string()
            .replace(
                &format!("C_{}", discoverxfd::fd::class_name(&fd.tuple_class)),
                &format!("C_{}", fd.tuple_class),
            )
            .parse()
            .unwrap();
        let rep = discoverxfd::verify::verify_fd(&forest, &spec, 3).unwrap();
        assert!(rep.holds, "reported FD fails re-verification: {fd}");
    }
}
