//! The machine-speed probe that end-to-end times are scaled by.
//!
//! A machine shared with other tenants runs the same code up to 40%
//! slower for minutes at a time, and every kind of work slows together.
//! So before each measured op (and each set-up) the benchmark times a
//! fixed reference job and scales the op's time by
//! `REFERENCE_MS / probe`: the result is the op's time on the machine at
//! the speed it had when the bounds in `BENCHMARK.json` were set. The
//! reference job is the benchmark's own code, so no change to the program
//! moves it.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

use crate::run::{ms, Rng};
use crate::stats::median;

/// The reference job's time, in milliseconds, on the machine the
/// recorded numbers come from (see README.md) when nothing else ran.
pub const REFERENCE_MS: f64 = 1.5;

/// One run of the reference job: allocation, hashing, sorting and
/// number formatting, the kinds of work the program does.
fn job() {
    let mut rng = Rng::new(0x5eed);
    let mut keys: Vec<u64> = (0..20_000).map(|_| rng.below(50_000)).collect();
    let mut counts: HashMap<u64, u32> = HashMap::new();
    for &k in &keys {
        *counts.entry(k).or_default() += 1;
    }
    keys.sort_unstable();
    let mut out = String::new();
    for k in keys.iter().step_by(4) {
        let _ = write!(out, "{{\"k\": {k}, \"n\": {}}},", counts[k]);
    }
    black_box((counts.len(), out.len()));
}

/// Time the reference job twice and keep the faster run, so a probe
/// taken after an idle stretch measures a warm machine.
pub fn probe_ms() -> f64 {
    (0..2)
        .map(|_| {
            let t0 = Instant::now();
            job();
            ms(t0.elapsed())
        })
        .fold(f64::INFINITY, f64::min)
}

/// `elapsed_ms` scaled to the reference speed, given the probe taken
/// just before it.
pub fn scaled(elapsed_ms: f64, probe_ms: f64) -> f64 {
    elapsed_ms * REFERENCE_MS / probe_ms
}

/// Note the machine's speed during a run on standard error.
pub fn report(probes: &[f64]) {
    if !probes.is_empty() {
        eprintln!(
            "xfdbench: reference job median {:.3} ms over {} probes ({REFERENCE_MS} ms at \
             reference speed); end-to-end times are scaled by each op's probe",
            median(probes),
            probes.len()
        );
    }
}
