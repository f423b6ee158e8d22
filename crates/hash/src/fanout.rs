//! The one fan-out of the workspace: apply a function to every item of a
//! list on a scoped pool of worker threads and get the results back in
//! input order.
//!
//! Workers claim items through one atomic index, so a long item never
//! stalls the items queued behind it, and the result order (hence every
//! report and counter built from it) is the same at any worker count. The
//! wave scheduler runs a wave's relation passes on it, and the corpus
//! encodes its segments on it.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Apply `f` to every item on up to `workers` scoped threads and return the
/// results in input order. With one worker, or at most one item, every
/// item runs on the caller's thread and no thread starts. A panic in `f`
/// is re-raised on the caller's thread once every worker has stopped.
pub fn map_ordered<T: Send, R: Send>(
    items: Vec<T>,
    workers: usize,
    f: impl Fn(T) -> R + Sync,
) -> Vec<R> {
    let n = items.len();
    let workers = workers.min(n);
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }
    // Each index is claimed exactly once, so every slot's lock is taken
    // once, never contended and never held across a panic; it moves the
    // item to its worker, so the index itself publishes no data (Relaxed).
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(slot) = slots.get(i) else { break };
                        let item = slot.lock().unwrap_or_else(PoisonError::into_inner).take();
                        if let Some(item) = item {
                            out.push((i, f(item)));
                        }
                    }
                    out
                })
            })
            .collect();
        let mut done = Vec::with_capacity(n);
        for handle in handles {
            match handle.join() {
                Ok(out) => done.extend(out),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        done
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_keep_input_order_and_a_panic_propagates() {
        let items: Vec<u64> = (0..100).collect();
        for workers in [1usize, 2, 8] {
            let got = map_ordered(items.clone(), workers, |i| {
                // Uneven work, so workers finish out of order.
                let spin = (i * 7_919) % 20_000;
                std::hint::black_box((0..spin).fold(i, |acc, k| acc ^ k));
                i * i
            });
            let want: Vec<u64> = items.iter().map(|i| i * i).collect();
            assert_eq!(got, want, "workers {workers}");
        }
        for workers in [1usize, 2, 8] {
            let caught = std::panic::catch_unwind(|| {
                map_ordered(items.clone(), workers, |i| {
                    assert_ne!(i, 37, "item 37 fails");
                    i
                })
            });
            let panic = caught.expect_err("the failing item's panic must propagate");
            let message = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .unwrap_or_default();
            assert!(
                message.contains("item 37 fails"),
                "workers {workers}: {message:?}"
            );
        }
    }
}
