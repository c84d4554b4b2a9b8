//! Scoped-thread parallel mapping shared by the tuner and the bench
//! harness.
//!
//! This is host-side parallelism *across* independent simulations
//! (per-thread devices); parallelism *within* one launch lives in the
//! simulator's launch engine (`kp_gpu_sim::Device::launch`). Both layers
//! are deterministic: results are collected by input index, so the output
//! order — and, because every worker is a pure function of its input —
//! every value is independent of thread scheduling.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Applies `f` to every item in parallel on `threads` scoped workers
/// (resolved by [`kp_gpu_sim::resolve_parallelism`]: `0` = all cores),
/// returning results in input order.
///
/// # Panics
///
/// Propagates panics from worker threads.
pub fn parallel_ordered_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = kp_gpu_sim::resolve_parallelism(threads).min(items.len().max(1));
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let next = AtomicUsize::new(0);
    let mut indexed: Vec<(usize, R)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        out.push((i, f(i, &items[i])));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("parallel_ordered_map worker panicked"))
            .collect()
    });
    indexed.sort_by_key(|(i, _)| *i);
    indexed.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let items: Vec<usize> = (0..100).collect();
        for threads in [1, 2, 7, 0] {
            let out = parallel_ordered_map(&items, threads, |_, &x| x * 3);
            assert_eq!(out, (0..100).map(|x| x * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn index_matches_item() {
        let items = ["a", "b", "c"];
        let out = parallel_ordered_map(&items, 2, |i, s| format!("{i}{s}"));
        assert_eq!(out, vec!["0a", "1b", "2c"]);
    }

    #[test]
    fn empty_input_is_empty_output() {
        let items: [u8; 0] = [];
        assert!(parallel_ordered_map(&items, 4, |_, &x| x).is_empty());
    }
}
