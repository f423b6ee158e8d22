//! Golden reports: `discover`'s text and `--json` output for three
//! generated datasets, pinned byte for byte in `tests/golden/`.
//!
//! Each report is regenerated through the library exactly as the CLI
//! builds it (`gen <dataset> --seed 1` → serialize → parse → `discover`),
//! with the one volatile field, the wall time, blanked to `X`. The `check`
//! golden (`warehouse_check.txt`) runs through the binary in
//! `crates/cli/tests/cli.rs`.
//!
//! To re-record after an intended report change:
//!
//! ```sh
//! B=target/release/discoverxfd
//! for d in warehouse dblp psd; do
//!   $B gen $d --seed 1 > /tmp/$d.xml
//!   $B discover /tmp/$d.xml | sed -E 's/targets, [^ ]+ total$/targets, X total/' \
//!     > tests/golden/$d.txt
//!   $B discover /tmp/$d.xml --json | sed -E 's/"total_ms": [0-9.]+/"total_ms": X/' \
//!     > tests/golden/$d.json
//! done
//! ```

use discoverxfd::report::{render_json, render_text, RenderOptions};
use discoverxfd::{discover_with_schema, DiscoveryConfig};
use xfd_datagen::{dblp_like, protein_like, warehouse_figure1, DblpSpec, ProteinSpec};
use xfd_schema::{infer_schema, nested_representation};
use xfd_xml::{parse, to_xml_string, DataTree};

/// The document `discoverxfd gen <name> --seed 1` writes, read back the
/// way `discoverxfd discover` reads its file.
fn generated(name: &str) -> DataTree {
    let tree = match name {
        "warehouse" => warehouse_figure1(),
        "dblp" => dblp_like(&DblpSpec {
            articles: 150,
            inproceedings: 100,
            seed: 1,
            ..Default::default()
        }),
        "psd" => protein_like(&ProteinSpec {
            entries: 80,
            seed: 1,
            ..Default::default()
        }),
        other => panic!("no golden dataset {other}"),
    };
    parse(&to_xml_string(&tree)).expect("generated XML parses")
}

/// Blank the wall time: the text report's `…, <duration> total` on the
/// `# Stats:` line and the JSON report's `"total_ms": <number>`.
fn blank_wall_time(report: &str) -> String {
    let mut out = String::with_capacity(report.len());
    for line in report.split_inclusive('\n') {
        let body = line.trim_end_matches('\n');
        let blanked = if let Some(start) = body.find("\"total_ms\": ") {
            let value = start + "\"total_ms\": ".len();
            let end = body[value..]
                .find([',', '}'])
                .map_or(body.len(), |i| value + i);
            format!("{}X{}", &body[..value], &body[end..])
        } else if body.starts_with("# Stats:") && body.ends_with(" total") {
            let head = &body[..body.len() - " total".len()];
            let cut = head.rfind(' ').map_or(0, |i| i + 1);
            format!("{}X total", &head[..cut])
        } else {
            body.to_string()
        };
        out.push_str(&blanked);
        if line.ends_with('\n') {
            out.push('\n');
        }
    }
    out
}

/// `discoverxfd discover <file>` (text) and `--json`, wall time blanked.
fn reports(name: &str) -> (String, String) {
    let tree = generated(name);
    let config = DiscoveryConfig::default();
    let schema = infer_schema(&tree);
    let outcome = discover_with_schema(&tree, &schema, &config);
    let opts = RenderOptions {
        show_uninteresting: config.keep_uninteresting,
        show_suggestions: false,
    };
    let text = format!(
        "# Schema\n{}\n{}",
        nested_representation(&schema),
        render_text(&outcome, &opts)
    );
    (
        blank_wall_time(&text),
        blank_wall_time(&render_json(&outcome)),
    )
}

/// Assert equality, naming the first differing line (whole-report diffs
/// of a few hundred lines are unreadable in a panic message).
fn assert_same(what: &str, got: &str, want: &str) {
    if got == want {
        return;
    }
    let (g, w): (Vec<&str>, Vec<&str>) = (got.lines().collect(), want.lines().collect());
    let line = g
        .iter()
        .zip(&w)
        .position(|(a, b)| a != b)
        .unwrap_or(g.len().min(w.len()));
    panic!(
        "{what} differs from its golden file at line {}:\n  got:  {:?}\n  want: {:?}\n\
         ({} lines vs {} golden)",
        line + 1,
        g.get(line),
        w.get(line),
        g.len(),
        w.len()
    );
}

fn check_dataset(name: &str, want_text: &str, want_json: &str) {
    let (text, json) = reports(name);
    assert_same(&format!("{name}.txt"), &text, want_text);
    assert_same(&format!("{name}.json"), &json, want_json);
}

#[test]
fn warehouse_reports_match_golden() {
    check_dataset(
        "warehouse",
        include_str!("golden/warehouse.txt"),
        include_str!("golden/warehouse.json"),
    );
}

#[test]
fn dblp_reports_match_golden() {
    check_dataset(
        "dblp",
        include_str!("golden/dblp.txt"),
        include_str!("golden/dblp.json"),
    );
}

#[test]
fn psd_reports_match_golden() {
    check_dataset(
        "psd",
        include_str!("golden/psd.txt"),
        include_str!("golden/psd.json"),
    );
}

#[test]
fn wall_time_blanking_matches_the_recording_sed() {
    assert_eq!(
        blank_wall_time("# Stats: 1 lattice nodes, 2 targets, 388.933µs total\n"),
        "# Stats: 1 lattice nodes, 2 targets, X total\n"
    );
    assert_eq!(
        blank_wall_time("  \"stats\": {\"a\": 1, \"total_ms\": 0.226, \"b\": 2}\n"),
        "  \"stats\": {\"a\": 1, \"total_ms\": X, \"b\": 2}\n"
    );
}
