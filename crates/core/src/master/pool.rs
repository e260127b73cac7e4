//! The master's one worker pool: leaf tasks and partition merges both
//! fan out through [`run_indexed`].

use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs `f(0)`, …, `f(n - 1)` on up to `threads` scoped workers pulling
/// indices off a shared cursor, and returns the results in index order —
/// so everything derived from them is independent of worker scheduling
/// (§12). One worker (or one item) runs inline on the calling thread.
pub(crate) fn run_indexed<T: Send>(
    threads: usize,
    n: usize,
    f: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    let workers = threads.min(n);
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let done: Vec<Vec<(usize, T)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        out.push((i, f(i)));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("pool worker panicked"))
            .collect()
    });
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    for (i, r) in done.into_iter().flatten() {
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|r| r.expect("every index ran exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::run_indexed;

    #[test]
    fn results_come_back_in_index_order_at_any_width() {
        let want: Vec<usize> = (0..37).map(|i| i * i).collect();
        for threads in [0, 1, 2, 8, 64] {
            assert_eq!(
                run_indexed(threads, 37, |i| i * i),
                want,
                "{threads} threads"
            );
        }
        assert!(run_indexed(4, 0, |i| i).is_empty());
    }
}
