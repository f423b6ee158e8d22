//! `xfdbench compare BASE... -- CHANGE...`: judge a change against its
//! parent from saved run outputs.
//!
//! Each file holds the standard output of one or more runs (the
//! `# xfdbench workload=...` header line, then the result line). Runs are
//! paired in file order. For each workload and metric the table shows
//! both sides' median and quartiles and the share of pairs the change
//! won, ties counting for neither. The verdict follows the benchmark's
//! rules:
//!
//! * **improved**: the change wins at least 9 of 10 pairs and the
//!   medians differ by more than the parent's quartile spread;
//! * **regressed**: the change's median is worse than the parent's by
//!   more than the metric's bound in `BENCHMARK.json`, or the change has
//!   failures the parent did not;
//! * **unresolved**: the parent's own spread is wider than the bound and
//!   the runs do not separate cleanly;
//! * **within bound**: otherwise.
//!
//! Per-layer metrics have no bound; they get only the improved test.
//! The command exits 1 when anything regressed.

use std::collections::BTreeMap;

use crate::json::{self, Value};
use crate::stats::{median, quartiles};

/// Runs of one side, by workload then metric, in file order.
#[derive(Default)]
struct Side {
    values: BTreeMap<(String, String), Vec<f64>>,
    failed: BTreeMap<String, f64>,
}

fn load(paths: &[String]) -> Result<Side, String> {
    let mut side = Side::default();
    for path in paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let mut workload: Option<String> = None;
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# xfdbench ") {
                workload = rest
                    .split_whitespace()
                    .find_map(|kv| kv.strip_prefix("workload="))
                    .map(str::to_string);
            } else if line.starts_with("{\"correct\"") {
                let w = workload
                    .clone()
                    .ok_or_else(|| format!("{path}: result line without a header"))?;
                let v = json::parse(line).map_err(|e| format!("{path}: {e}"))?;
                let failed = v.get("failed").and_then(Value::as_f64).unwrap_or(0.0);
                *side.failed.entry(w.clone()).or_default() += failed;
                for (name, m) in v.get("metrics").and_then(Value::as_object).unwrap_or(&[]) {
                    if let Some(x) = m.get("value").and_then(Value::as_f64) {
                        side.values
                            .entry((w.clone(), name.clone()))
                            .or_default()
                            .push(x);
                    }
                }
            }
        }
    }
    Ok(side)
}

/// `(lower_is_better, bound)` per metric name from `BENCHMARK.json`.
fn directions(path: &str) -> Result<BTreeMap<String, (bool, Option<f64>)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let v = json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let mut out = BTreeMap::new();
    for key in ["end_to_end", "per_layer"] {
        for m in v.get(key).and_then(Value::as_array).unwrap_or(&[]) {
            let name = m.get("name").and_then(Value::as_str).unwrap_or_default();
            let lower = m.get("better").and_then(Value::as_str) != Some("higher");
            let bound = m.get("bound").and_then(Value::as_f64);
            out.insert(name.to_string(), (lower, bound));
        }
    }
    Ok(out)
}

/// The verdict on one metric of one workload.
pub fn verdict(
    base: &[f64],
    change: &[f64],
    lower_better: bool,
    bound: Option<f64>,
) -> &'static str {
    let better = |a: f64, b: f64| if lower_better { a < b } else { a > b };
    let (mb, mc) = (median(base), median(change));
    let (q1, q3) = quartiles(base);
    let pairs = base.len().min(change.len());
    let wins = base
        .iter()
        .zip(change)
        .filter(|(b, c)| better(**c, **b))
        .count();
    if pairs > 0 && wins * 10 >= pairs * 9 && better(mc, mb) && (mc - mb).abs() > q3 - q1 {
        return "improved";
    }
    let Some(bound) = bound else {
        return "-";
    };
    let worse = if mb == 0.0 {
        0.0
    } else if lower_better {
        (mc - mb) / mb.abs()
    } else {
        (mb - mc) / mb.abs()
    };
    let spread = if mb == 0.0 { 0.0 } else { (q3 - q1) / mb.abs() };
    let all_better = change.iter().all(|c| base.iter().all(|b| better(*c, *b)));
    let all_worse = change.iter().all(|c| base.iter().all(|b| better(*b, *c)));
    if spread > bound && !all_better && !(all_worse && worse > bound) {
        "unresolved"
    } else if worse > bound && !all_better {
        "regressed"
    } else {
        "within bound"
    }
}

pub fn main(args: &[String]) -> i32 {
    let mut bench = "BENCHMARK.json".to_string();
    let (mut base, mut change) = (Vec::new(), Vec::new());
    let mut after_sep = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--" => after_sep = true,
            "--benchmark" => match it.next() {
                Some(p) => bench.clone_from(p),
                None => {
                    eprintln!("xfdbench compare: --benchmark needs a path");
                    return 2;
                }
            },
            _ if after_sep => change.push(a.clone()),
            _ => base.push(a.clone()),
        }
    }
    if base.is_empty() || change.is_empty() {
        eprintln!("usage: xfdbench compare BASE... -- CHANGE... [--benchmark BENCHMARK.json]");
        return 2;
    }
    let loaded = (load(&base), load(&change), directions(&bench));
    let (base, change, dirs) = match loaded {
        (Ok(b), Ok(c), Ok(d)) => (b, c, d),
        (Err(e), _, _) | (_, Err(e), _) | (_, _, Err(e)) => {
            eprintln!("xfdbench compare: {e}");
            return 2;
        }
    };
    let mut regressed = false;
    println!(
        "{:<14} {:<34} {:>28} {:>28} {:>7}  verdict",
        "workload", "metric", "base median [q1, q3]", "change median [q1, q3]", "won"
    );
    for ((workload, metric), b) in &base.values {
        let Some(c) = change.values.get(&(workload.clone(), metric.clone())) else {
            continue;
        };
        let (lower, bound) = dirs.get(metric).copied().unwrap_or((true, None));
        let v = verdict(b, c, lower, bound);
        regressed |= v == "regressed";
        let better = |x: f64, y: f64| if lower { x < y } else { x > y };
        let wins = b.iter().zip(c).filter(|(b, c)| better(**c, **b)).count();
        let fmt = |v: &[f64]| {
            let (q1, q3) = quartiles(v);
            format!("{:.4} [{:.4}, {:.4}]", median(v), q1, q3)
        };
        println!(
            "{workload:<14} {metric:<34} {:>28} {:>28} {:>3}/{:<3}  {v}",
            fmt(b),
            fmt(c),
            wins,
            b.len().min(c.len())
        );
    }
    for (workload, failed) in &change.failed {
        let before = base.failed.get(workload).copied().unwrap_or(0.0);
        if *failed > before {
            println!("{workload:<14} failed operations: base {before}, change {failed}  regressed");
            regressed = true;
        }
    }
    i32::from(regressed)
}

#[cfg(test)]
mod tests {
    use super::verdict;

    #[test]
    fn verdicts_follow_the_pair_and_bound_rules() {
        let base = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0];
        let faster: Vec<f64> = base.iter().map(|x| x * 0.8).collect();
        let slower: Vec<f64> = base.iter().map(|x| x * 1.2).collect();
        let same: Vec<f64> = base.iter().rev().copied().collect();
        assert_eq!(verdict(&base, &faster, true, Some(0.1)), "improved");
        assert_eq!(verdict(&base, &slower, true, Some(0.1)), "regressed");
        assert_eq!(verdict(&base, &same, true, Some(0.1)), "within bound");
        // Higher is better: the faster-looking numbers are a regression.
        assert_eq!(verdict(&base, &faster, false, Some(0.1)), "regressed");
        let noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0];
        let a_bit_slower: Vec<f64> = noisy.iter().map(|x| x * 1.05).collect();
        assert_eq!(
            verdict(&noisy, &a_bit_slower, true, Some(0.1)),
            "unresolved"
        );
        assert_eq!(verdict(&base, &same, true, None), "-");
    }
}
