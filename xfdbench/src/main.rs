//! `xfdbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]`
//! runs one workload; `xfdbench compare BASE... -- CHANGE...` judges a
//! change. `serve` and `worker` are the subprocesses the workloads start.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("serve") => xfdbench::serve::serve_child(),
        Some("worker") => worker(&args[1..]),
        Some("compare") => xfdbench::compare::main(&args[1..]),
        _ => xfdbench::run::main(&args),
    };
    std::process::exit(code);
}

/// A cluster worker, as `discoverxfd worker` runs it; the coordinator
/// starts this executable with `worker --socket PATH --index N`.
fn worker(args: &[String]) -> i32 {
    let opts = match xfd_cluster::worker::parse_worker_args(args) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("xfdbench worker: {msg}");
            return 2;
        }
    };
    match xfd_cluster::run_worker(&opts) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("xfdbench worker: {e}");
            1
        }
    }
}
