//! Rendering of a [`DiscoveryReport`] as plain text or Markdown — shared
//! by the CLI and downstream tooling.

use std::fmt::{self, Write as _};

use crate::driver::RunOutcome;
use crate::normalize::suggest;

/// Rendering options.
#[derive(Debug, Clone, Copy, Default)]
pub struct RenderOptions {
    /// Include the uninteresting FDs/keys section (when populated).
    pub show_uninteresting: bool,
    /// Include XNF refinement suggestions.
    pub show_suggestions: bool,
    /// Include work counters and timings.
    pub show_stats: bool,
}

impl RenderOptions {
    /// Everything on.
    pub fn full() -> Self {
        RenderOptions {
            show_uninteresting: true,
            show_suggestions: true,
            show_stats: true,
        }
    }
}

/// Render as plain text (the CLI's `discover` output body).
pub fn render_text(report: &RunOutcome, opts: &RenderOptions) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# Interesting XML FDs ({})", report.fds.len());
    for fd in &report.fds {
        let _ = writeln!(out, "  {fd}");
    }
    let _ = writeln!(out, "\n# XML Keys ({})", report.keys.len());
    for key in &report.keys {
        let _ = writeln!(out, "  {key}");
    }
    let _ = writeln!(out, "\n# Redundancies ({})", report.redundancies.len());
    for r in &report.redundancies {
        let _ = writeln!(
            out,
            "  {}  [{} groups, {} redundant values]",
            r.fd, r.groups, r.redundant_values
        );
        if !r.examples.is_empty() {
            let _ = writeln!(out, "      e.g. {}", r.examples.join(", "));
        }
    }
    if opts.show_uninteresting
        && (!report.uninteresting_fds.is_empty() || !report.uninteresting_keys.is_empty())
    {
        let _ = writeln!(
            out,
            "\n# Uninteresting FDs ({})",
            report.uninteresting_fds.len()
        );
        for fd in &report.uninteresting_fds {
            let _ = writeln!(out, "  {fd}");
        }
        let _ = writeln!(
            out,
            "\n# Uninteresting keys ({})",
            report.uninteresting_keys.len()
        );
        for key in &report.uninteresting_keys {
            let _ = writeln!(out, "  {key}");
        }
    }
    if opts.show_suggestions {
        let _ = writeln!(out, "\n# Refinement suggestions");
        for s in suggest(&report.redundancies) {
            let _ = writeln!(out, "  - {s}");
        }
    }
    if opts.show_stats {
        let _ = writeln!(
            out,
            "\n# Stats: {} lattice nodes, {} partitions, {} products, {} targets, {:?} total",
            report.stats.lattice.nodes_visited,
            report.stats.lattice.partitions_built,
            report.stats.lattice.products,
            report.stats.targets.created,
            report.profile.total()
        );
        let _ = writeln!(
            out,
            "# Cache: {} hits, {} misses, {} evictions, {} peak partition bytes",
            report.stats.lattice.cache_hits,
            report.stats.lattice.cache_misses,
            report.stats.lattice.evictions,
            report.stats.lattice.peak_resident_bytes
        );
        let _ = writeln!(
            out,
            "# Kernel: {} error-only products ({} early exits), {} materialized, {} summary hits",
            report.stats.lattice.products_error_only,
            report.stats.lattice.early_exits,
            report.stats.lattice.products_materialized,
            report.stats.lattice.summary_hits
        );
    }
    out
}

/// Render as a Markdown document (for reports/CI artifacts).
pub fn render_markdown(report: &RunOutcome, opts: &RenderOptions) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "## Interesting XML FDs\n");
    let _ = writeln!(out, "| # | FD |\n|---|---|");
    for (i, fd) in report.fds.iter().enumerate() {
        let _ = writeln!(out, "| {} | `{}` |", i + 1, fd);
    }
    let _ = writeln!(out, "\n## XML Keys\n");
    let _ = writeln!(out, "| # | Key |\n|---|---|");
    for (i, key) in report.keys.iter().enumerate() {
        let _ = writeln!(out, "| {} | `{}` |", i + 1, key);
    }
    let _ = writeln!(out, "\n## Redundancies (Definition 11)\n");
    let _ = writeln!(out, "| FD | groups | redundant values |\n|---|---|---|");
    for r in &report.redundancies {
        let _ = writeln!(
            out,
            "| `{}` | {} | {} |",
            r.fd, r.groups, r.redundant_values
        );
    }
    if opts.show_suggestions {
        let _ = writeln!(out, "\n## Refinement suggestions\n");
        for s in suggest(&report.redundancies) {
            let _ = writeln!(out, "- {s}");
        }
    }
    if opts.show_stats {
        let _ = writeln!(
            out,
            "\n---\n*{} lattice nodes · {} partitions · {} targets · \
             {} cache hits / {} misses / {} evictions · {} peak bytes · \
             {} error-only / {} materialized products ({} early exits, {} summary hits) · {:?}*",
            report.stats.lattice.nodes_visited,
            report.stats.lattice.partitions_built,
            report.stats.targets.created,
            report.stats.lattice.cache_hits,
            report.stats.lattice.cache_misses,
            report.stats.lattice.evictions,
            report.stats.lattice.peak_resident_bytes,
            report.stats.lattice.products_error_only,
            report.stats.lattice.products_materialized,
            report.stats.lattice.early_exits,
            report.stats.lattice.summary_hits,
            report.profile.total()
        );
    }
    out
}

/// A [`fmt::Write`] adapter that JSON-escapes everything written through
/// it straight into the output buffer.
struct JsonEscaped<'a>(&'a mut String);

impl fmt::Write for JsonEscaped<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        let mut start = 0;
        for (i, b) in s.bytes().enumerate() {
            let escape = match b {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\t' => "\\t",
                b'\r' => "\\r",
                b if b < 0x20 => "",
                _ => continue,
            };
            // Every escaped byte is ASCII, so `i` is a char boundary.
            self.0.push_str(&s[start..i]);
            if escape.is_empty() {
                write!(self.0, "\\u{b:04x}")?;
            } else {
                self.0.push_str(escape);
            }
            start = i + 1;
        }
        self.0.push_str(&s[start..]);
        Ok(())
    }
}

/// Append `value`'s `Display` form to `out` as a JSON string literal.
fn push_json_str(out: &mut String, value: &dyn fmt::Display) {
    out.push('"');
    let _ = write!(JsonEscaped(out), "{value}");
    out.push('"');
}

/// Append `paths` to `out` as a JSON array of strings.
fn push_json_paths(out: &mut String, paths: &[xfd_xml::Path]) {
    out.push('[');
    for (i, p) in paths.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        push_json_str(out, p);
    }
    out.push(']');
}

/// Render as a JSON document (machine-readable CI artifact). Hand-rolled
/// (no serde) — the schema is small and stable:
///
/// ```json
/// {
///   "fds": [{"class": "...", "lhs": ["..."], "rhs": "...", "scope": "intra|inter"}],
///   "keys": [{"class": "...", "lhs": ["..."]}],
///   "redundancies": [{"fd": "...", "groups": n, "redundant_values": n}],
///   "stats": {...}
/// }
/// ```
///
/// Every path and FD is written in place into the one output buffer.
pub fn render_json(report: &RunOutcome) -> String {
    let mut out = String::from("{\n  \"fds\": [");
    for (i, fd) in report.fds.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {\"class\": ");
        push_json_str(&mut out, &fd.tuple_class);
        out.push_str(", \"lhs\": ");
        push_json_paths(&mut out, &fd.lhs);
        out.push_str(", \"rhs\": ");
        push_json_str(&mut out, &fd.rhs);
        out.push_str(match fd.scope {
            crate::fd::FdScope::IntraRelation => ", \"scope\": \"intra\"}",
            crate::fd::FdScope::InterRelation => ", \"scope\": \"inter\"}",
        });
    }
    out.push_str("\n  ],\n  \"keys\": [");
    for (i, key) in report.keys.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {\"class\": ");
        push_json_str(&mut out, &key.tuple_class);
        out.push_str(", \"lhs\": ");
        push_json_paths(&mut out, &key.lhs);
        out.push('}');
    }
    out.push_str("\n  ],\n  \"redundancies\": [");
    for (i, r) in report.redundancies.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    {\"fd\": ");
        push_json_str(&mut out, &r.fd);
        let _ = write!(
            out,
            ", \"groups\": {}, \"redundant_values\": {}}}",
            r.groups, r.redundant_values
        );
    }
    let _ = write!(
        out,
        "\n  ],\n  \"stats\": {{\"lattice_nodes\": {}, \"partitions\": {}, \"products\": {}, \"products_error_only\": {}, \"products_materialized\": {}, \"early_exits\": {}, \"summary_hits\": {}, \"targets_created\": {}, \"cache_hits\": {}, \"cache_misses\": {}, \"evictions\": {}, \"peak_resident_bytes\": {}, \"total_ms\": {:.3}, \"memo_hits\": {}, \"memo_misses\": {}, \"memo_evictions\": {}, \"memo_resident_bytes\": {}}}\n}}\n",
        report.stats.lattice.nodes_visited,
        report.stats.lattice.partitions_built,
        report.stats.lattice.products,
        report.stats.lattice.products_error_only,
        report.stats.lattice.products_materialized,
        report.stats.lattice.early_exits,
        report.stats.lattice.summary_hits,
        report.stats.targets.created,
        report.stats.lattice.cache_hits,
        report.stats.lattice.cache_misses,
        report.stats.lattice.evictions,
        report.stats.lattice.peak_resident_bytes,
        report.profile.total().as_secs_f64() * 1e3,
        report.stats.memo.hits,
        report.stats.memo.misses,
        report.stats.memo.evictions,
        report.stats.memo.resident_bytes
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DiscoveryConfig;
    use crate::driver::discover;
    use xfd_xml::parse;

    fn sample() -> RunOutcome {
        let t = parse(
            "<w><book><i>1</i><t>A</t></book><book><i>1</i><t>A</t></book>\
                <book><i>2</i><t>B</t></book></w>",
        )
        .unwrap();
        discover(
            &t,
            &DiscoveryConfig {
                keep_uninteresting: true,
                ..Default::default()
            },
        )
    }

    #[test]
    fn text_rendering_contains_all_sections() {
        let text = render_text(&sample(), &RenderOptions::full());
        for needle in [
            "# Interesting XML FDs",
            "# XML Keys",
            "# Redundancies",
            "# Refinement",
            "# Stats",
            "# Cache",
            "# Kernel",
        ] {
            assert!(text.contains(needle), "missing {needle}:\n{text}");
        }
        assert!(text.contains("{./i} -> ./t w.r.t. C_book"));
    }

    #[test]
    fn markdown_rendering_is_tabular() {
        let md = render_markdown(&sample(), &RenderOptions::full());
        assert!(md.contains("## Interesting XML FDs"));
        assert!(md.contains("| `{./i} -> ./t w.r.t. C_book` |"));
        assert!(md.contains("|---|"));
    }

    #[test]
    fn json_rendering_is_well_formed() {
        let json = render_json(&sample());
        // Structural sanity without a JSON parser dependency: balanced
        // braces/brackets and the expected keys.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        for key in [
            "\"fds\"",
            "\"keys\"",
            "\"redundancies\"",
            "\"stats\"",
            "\"scope\"",
            "\"cache_hits\"",
            "\"peak_resident_bytes\"",
            "\"products_error_only\"",
            "\"early_exits\"",
            "\"summary_hits\"",
        ] {
            assert!(json.contains(key), "missing {key}:\n{json}");
        }
        assert!(json.contains("{./i} -> ./t w.r.t. C_book"));
    }

    #[test]
    fn json_escaping_handles_specials() {
        let escaped = |s: &str| {
            let mut out = String::new();
            push_json_str(&mut out, &s);
            out
        };
        assert_eq!(escaped("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(escaped("\u{1}\tü\r"), "\"\\u0001\\tü\\r\"");
        assert_eq!(escaped(""), "\"\"");
    }

    #[test]
    fn sections_are_optional() {
        let minimal = render_text(&sample(), &RenderOptions::default());
        assert!(!minimal.contains("# Stats"));
        assert!(!minimal.contains("# Refinement"));
        assert!(!minimal.contains("# Uninteresting"));
    }
}
