//! One benchmark run: argument parsing, the shared measurement loop, and
//! the helpers every workload uses.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::metrics::{metric_lines, result_line, Failure, Metrics, Tally};
use crate::speed;
use crate::stats::{median, percentile};
use crate::trace::{write_chrome, Trace};

/// The workloads, each stressing different layers (see README.md).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    DocDeep,
    DocDblp,
    ServeMix,
    CorpusChurn,
    ClusterChurn,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::DocDeep,
        Workload::DocDblp,
        Workload::ServeMix,
        Workload::CorpusChurn,
        Workload::ClusterChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DocDeep => "doc-deep",
            Workload::DocDblp => "doc-dblp",
            Workload::ServeMix => "serve-mix",
            Workload::CorpusChurn => "corpus-churn",
            Workload::ClusterChurn => "cluster-churn",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Settings of one run.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub workload: Workload,
    pub seed: u64,
    /// Operation time to measure.
    pub seconds: f64,
    /// The traced run: per-layer metrics instead of end-to-end ones.
    pub traced: bool,
    /// Tiny inputs, for the smoke test.
    pub smoke: bool,
    /// Scratch space (corpus stores, sockets) inside the working
    /// directory; removed when the run ends.
    pub work_dir: PathBuf,
}

/// Times the set-up is repeated; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 5;

const USAGE: &str = "usage: xfdbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] \
                     [--trace-file PATH] [--smoke]\n       \
                     xfdbench compare BASE... -- CHANGE... [--benchmark BENCHMARK.json]\n\
                     workloads: doc-deep doc-dblp serve-mix corpus-churn cluster-churn";

/// Run one workload as the command line asks and print its result.
/// Returns the process exit code: 0 only when every operation succeeded
/// and every output matched its reference.
pub fn main(args: &[String]) -> i32 {
    let opts = match parse_args(args) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("xfdbench: {msg}\n{USAGE}");
            return 2;
        }
    };
    let (ctx, trace_file) = opts;
    // Cluster sockets and any other temporary files stay inside the
    // working directory. A relative path keeps socket paths short.
    std::env::set_var("TMPDIR", ctx.work_dir.join("tmp"));
    if let Err(e) = std::fs::create_dir_all(ctx.work_dir.join("tmp")) {
        eprintln!("xfdbench: cannot create {}: {e}", ctx.work_dir.display());
        return 1;
    }
    let epoch = Instant::now();
    let outcome = match ctx.workload {
        Workload::DocDeep | Workload::DocDblp => crate::docs::run(&ctx, epoch),
        Workload::ServeMix => crate::serve::run(&ctx, epoch),
        Workload::CorpusChurn | Workload::ClusterChurn => crate::churn::run(&ctx, epoch),
    };
    let removed = std::fs::remove_dir_all(&ctx.work_dir);
    let (result, traces) = match outcome {
        Ok(done) => done,
        Err(msg) => {
            eprintln!("xfdbench: {} set-up failed: {msg}", ctx.workload.name());
            return 1;
        }
    };
    if let Err(e) = removed {
        eprintln!("xfdbench: cannot remove {}: {e}", ctx.work_dir.display());
    }
    if ctx.traced {
        let path = trace_file.unwrap_or_else(|| {
            PathBuf::from(".xfdbench").join(format!(
                "trace-{}-seed{}.json",
                ctx.workload.name(),
                ctx.seed
            ))
        });
        let refs: Vec<&Trace> = traces.iter().collect();
        match write_chrome(&path, &refs) {
            Ok(()) => eprintln!("xfdbench: trace written to {}", path.display()),
            Err(e) => {
                eprintln!("xfdbench: cannot write trace {}: {e}", path.display());
                return 1;
            }
        }
    }
    println!(
        "# xfdbench workload={} seed={} trace={}",
        ctx.workload.name(),
        ctx.seed,
        u8::from(ctx.traced)
    );
    print!("{}", metric_lines(&result, ctx.traced));
    println!("{}", result_line(&result, ctx.traced));
    if result.failed > 0 || !result.correct {
        eprintln!(
            "xfdbench: {} of {} operations failed",
            result.failed, result.attempted
        );
        return 1;
    }
    0
}

fn parse_args(args: &[String]) -> Result<(Ctx, Option<PathBuf>), String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 12.0f64;
    let mut traced = false;
    let mut trace_file = None;
    let mut smoke = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => {
                seed = value()?
                    .parse()
                    .map_err(|_| "--seed: expected an integer")?
            }
            "--seconds" => {
                seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or("--seconds: expected a positive number")?;
            }
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: expected 0 or 1, got {other:?}")),
                }
            }
            "--trace-file" => trace_file = Some(PathBuf::from(value()?)),
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let work_dir = PathBuf::from(".xfdbench").join(format!("run-{}", std::process::id()));
    Ok((
        Ctx {
            workload,
            seed,
            seconds,
            traced,
            smoke,
            work_dir,
        },
        trace_file,
    ))
}

/// Build a workload's state [`SETUP_REPEATS`] times, timing each build
/// (scaled by a speed probe taken just before it), and keep the last.
/// Earlier states are dropped before the next build starts, so they never
/// overlap in memory. Returns the state and the median build time in
/// seconds.
pub fn repeated_setup<S>(
    mut build: impl FnMut(usize) -> Result<S, String>,
) -> Result<(S, f64), String> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut state = None;
    for i in 0..SETUP_REPEATS {
        drop(state.take());
        let probe = speed::probe_ms();
        let t0 = Instant::now();
        state = Some(build(i)?);
        times.push(speed::scaled(ms(t0.elapsed()), probe) / 1e3);
    }
    let state = state.ok_or("no set-up ran")?;
    Ok((state, median(&times)))
}

/// Latencies of a measured loop, each scaled by the speed probe taken
/// just before its op. In the traced run, ops alternate between traced
/// (odd) and untraced (even) so both see the same conditions.
#[derive(Debug, Default)]
pub struct Loop {
    pub plain_ms: Vec<f64>,
    pub traced_ms: Vec<f64>,
    /// The speed probes, in milliseconds.
    pub probes_ms: Vec<f64>,
    /// Summed unscaled operation time, failed operations included.
    pub busy_s: f64,
}

/// Run `op` back to back, each op after a speed probe, until
/// `ctx.seconds` of operation time have been measured and at least
/// `min_ops` ops ran. `op(i, traced)` returns its own latency in
/// milliseconds; work it does outside that interval (output checks) is
/// not measured. The process's peak RSS restarts when the loop does.
pub fn closed_loop(
    ctx: &Ctx,
    min_ops: u64,
    tally: &mut Tally,
    mut op: impl FnMut(u64, bool) -> (f64, Result<(), Failure>),
) -> Loop {
    let mut out = Loop::default();
    let mut i = 0u64;
    reset_peak_rss(None);
    while out.busy_s < ctx.seconds || i < min_ops {
        let traced = ctx.traced && i % 2 == 1;
        let probe = speed::probe_ms();
        let (ms, outcome) = op(i, traced);
        out.busy_s += ms / 1e3;
        out.probes_ms.push(probe);
        if outcome.is_ok() {
            let ms = speed::scaled(ms, probe);
            if traced {
                out.traced_ms.push(ms);
            } else {
                out.plain_ms.push(ms);
            }
        }
        tally.record(outcome);
        i += 1;
    }
    out
}

/// The end-to-end latency and throughput metrics of a closed loop, from
/// its untraced ops.
pub fn set_loop_metrics(m: &mut Metrics, lp: &Loop) {
    m.set("op_p50_ms", percentile(&lp.plain_ms, 0.5));
    m.set("op_p90_ms", percentile(&lp.plain_ms, 0.9));
    m.set(
        "ops_per_s",
        lp.plain_ms.len() as f64 * 1e3 / lp.plain_ms.iter().sum::<f64>(),
    );
    speed::report(&lp.probes_ms);
}

/// `bench.trace_overhead_pct`: how much slower the median traced op is
/// than the median untraced one.
pub fn set_trace_overhead(m: &mut Metrics, plain_ms: &[f64], traced_ms: &[f64]) {
    let plain = percentile(plain_ms, 0.5);
    if plain > 0.0 {
        m.set(
            "bench.trace_overhead_pct",
            (percentile(traced_ms, 0.5) / plain - 1.0) * 100.0,
        );
    }
}

/// Median self time of span `name` over the traces, in milliseconds.
pub fn p50_self(selfs: &std::collections::BTreeMap<&'static str, Vec<f64>>, name: &str) -> f64 {
    selfs.get(name).map_or(0.0, |v| percentile(v, 0.5))
}

/// `report` with the one wall-clock field (`"total_ms"`) blanked, so two
/// runs over the same input compare byte for byte.
pub fn normalize_report(report: &str) -> String {
    const KEY: &str = "\"total_ms\": ";
    match report.find(KEY) {
        Some(at) => {
            let rest = &report[at + KEY.len()..];
            let len = rest
                .find(|c: char| !(c.is_ascii_digit() || c == '.'))
                .unwrap_or(rest.len());
            format!("{}{KEY}X{}", &report[..at], &rest[len..])
        }
        None => report.to_string(),
    }
}

/// SplitMix64: the benchmark's seeded generator for input offsets,
/// column orders and request schedules.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Proc file `name` of process `pid` (this process when `None`).
fn proc_file(pid: Option<u32>, name: &str) -> String {
    match pid {
        Some(pid) => format!("/proc/{pid}/{name}"),
        None => format!("/proc/self/{name}"),
    }
}

/// Restart the peak resident set size of process `pid` (this process when
/// `None`) from its current size, so [`peak_rss_mb`] covers the measured
/// phase, not set-up. Kernels without the reset keep the peak since start.
pub fn reset_peak_rss(pid: Option<u32>) {
    let _ = std::fs::write(proc_file(pid, "clear_refs"), "5");
}

/// Peak resident set size (`VmHWM`) of process `pid` (this process when
/// `None`), in MB (10^6 bytes); 0 when unavailable.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    std::fs::read_to_string(proc_file(pid, "status"))
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib * 1024.0 / 1e6)
}

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_blanks_only_total_ms() {
        let r = "{\"a\": 1, \"stats\": {\"total_ms\": 12.345, \"memo_hits\": 0}}";
        assert_eq!(
            normalize_report(r),
            "{\"a\": 1, \"stats\": {\"total_ms\": X, \"memo_hits\": 0}}"
        );
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
    }

    #[test]
    fn rss_of_this_process_is_positive() {
        assert!(peak_rss_mb(None) > 0.0);
    }
}
