//! End-to-end behaviour across the configuration space: order modes,
//! node-key complex columns, constant columns, deep chains, and
//! multi-child target routing.

use discoverxfd_suite::prelude::*;
use xfd_relation::OrderMode;

#[test]
fn four_level_chain_fd_completion() {
    // country → region → store → book; price determined by (isbn,
    // country tax class) only — propagation through three ancestors.
    let xml = "<w>\
        <country><tax>A</tax>\
          <region><store>\
            <book><isbn>1</isbn><price>10</price></book>\
            <book><isbn>2</isbn><price>30</price></book></store></region>\
          <region><store>\
            <book><isbn>1</isbn><price>10</price></book></store></region>\
        </country>\
        <country><tax>B</tax>\
          <region><store>\
            <book><isbn>1</isbn><price>13</price></book></store></region>\
        </country>\
        </w>";
    let doc = parse(xml).unwrap();
    let report = discover(&doc, &DiscoveryConfig::default());
    let fds: Vec<String> = report.fds.iter().map(|f| f.to_string()).collect();
    assert!(
        fds.iter()
            .any(|f| f.contains("../../../tax") && f.contains("-> ./price")),
        "great-grandparent completion missing: {fds:#?}"
    );
}

#[test]
fn multiple_child_relations_route_targets_to_one_parent() {
    // Books and magazines both live under stores; each contributes its
    // own targets to the store relation.
    let xml = "<w>\
        <store><name>X</name>\
          <book><bi>1</bi><bp>10</bp></book><book><bi>2</bi><bp>20</bp></book>\
          <mag><mi>7</mi><mp>5</mp></mag><mag><mi>8</mi><mp>6</mp></mag></store>\
        <store><name>X</name>\
          <book><bi>1</bi><bp>10</bp></book>\
          <mag><mi>7</mi><mp>5</mp></mag></store>\
        <store><name>Y</name>\
          <book><bi>1</bi><bp>12</bp></book>\
          <mag><mi>7</mi><mp>9</mp></mag></store>\
        </w>";
    let doc = parse(xml).unwrap();
    let report = discover(&doc, &DiscoveryConfig::default());
    let fds: Vec<String> = report.fds.iter().map(|f| f.to_string()).collect();
    assert!(
        fds.contains(&"{./bi, ../name} -> ./bp w.r.t. C_book".to_string()),
        "{fds:#?}"
    );
    assert!(
        fds.contains(&"{./mi, ../name} -> ./mp w.r.t. C_mag".to_string()),
        "{fds:#?}"
    );
}

#[test]
fn target_cap_drops_rather_than_explodes() {
    // A failing edge whose target would hold more tuple pairs than the
    // partition-target cap (100 000) must degrade gracefully (counted,
    // not crashed): 499 stores hold one book each with its own price, so
    // `∅ → ./p` fails over ~125 000 pairs of books with distinct parents.
    // The first store's two books (equal prices) make book a set element.
    let book = "<book><p>0</p><q>0</q></book>";
    let mut xml = format!("<w><store>{book}{book}</store>");
    for s in 1..500 {
        xml.push_str(&format!(
            "<store><book><p>{s}</p><q>{}</q></book></store>",
            s % 2
        ));
    }
    xml.push_str("</w>");
    let doc = parse(&xml).unwrap();
    let report = discover(&doc, &DiscoveryConfig::default());
    assert!(report.stats.targets.dropped_overflow > 0);
    let fds: Vec<String> = report.fds.iter().map(|f| f.to_string()).collect();
    assert!(
        fds.contains(&"{./p} -> ./q w.r.t. C_book".to_string()),
        "{fds:#?}"
    );
}

#[test]
fn ordered_mode_changes_set_fd_results_end_to_end() {
    let xml = "<w>\
        <book><i>1</i><a>R</a><a>G</a></book>\
        <book><i>1</i><a>G</a><a>R</a></book>\
        <book><i>2</i><a>R</a></book>\
        </w>";
    let doc = parse(xml).unwrap();
    let unordered = discover(&doc, &DiscoveryConfig::default());
    assert!(unordered
        .fds
        .iter()
        .any(|f| f.to_string() == "{./i} -> ./a w.r.t. C_book"));
    let mut cfg = DiscoveryConfig::default();
    cfg.encode.order = OrderMode::Ordered;
    let ordered = discover(&doc, &cfg);
    assert!(
        !ordered
            .fds
            .iter()
            .any(|f| f.to_string() == "{./i} -> ./a w.r.t. C_book"),
        "list semantics must reject the reordered author sets"
    );
}

#[test]
fn complex_columns_compare_by_node_key() {
    // The two first contacts are equal subtrees, but a complex column
    // holds node keys (Figures 5–6), so it is key-like within its
    // relation and {./contact} -> ./name is not reported.
    let xml = "<w>\
        <store><contact><ph>1</ph><em>a</em></contact><name>X</name></store>\
        <store><contact><em>a</em><ph>1</ph></contact><name>X</name></store>\
        <store><contact><ph>2</ph><em>b</em></contact><name>Y</name></store>\
        </w>";
    let doc = parse(xml).unwrap();
    let report = discover(&doc, &DiscoveryConfig::default());
    assert!(!report
        .fds
        .iter()
        .any(|f| f.to_string() == "{./contact} -> ./name w.r.t. C_store"));
}

#[test]
fn intra_only_config_still_finds_local_fds() {
    let xml = "<w>\
        <store><name>X</name><book><i>1</i><t>A</t></book>\
          <book><i>1</i><t>A</t></book><book><i>2</i><t>B</t></book></store>\
        </w>";
    let doc = parse(xml).unwrap();
    let cfg = DiscoveryConfig {
        inter_relation: false,
        ..Default::default()
    };
    let report = discover(&doc, &cfg);
    assert!(report
        .fds
        .iter()
        .any(|f| f.to_string() == "{./i} -> ./t w.r.t. C_book"));
    assert_eq!(report.stats.targets.created, 0);
}

#[test]
fn constant_columns_get_empty_lhs_fds() {
    let xml = "<w><b><x>1</x><y>5</y></b><b><x>1</x><y>6</y></b></w>";
    let doc = parse(xml).unwrap();
    let report = discover(&doc, &DiscoveryConfig::default());
    assert!(
        report
            .fds
            .iter()
            .any(|f| f.to_string() == "{} -> ./x w.r.t. C_b"),
        "{:#?}",
        report.fds.iter().map(|f| f.to_string()).collect::<Vec<_>>()
    );
}
