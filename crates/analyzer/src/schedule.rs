//! A small std-only scoped-thread pool with a deterministic, streaming
//! merge.
//!
//! [`run_ordered`] maps a pure function over a slice on `threads` workers.
//! Workers claim contiguous chunks of indexes from a shared atomic cursor
//! (cheap work stealing: fast workers simply claim more chunks) and send
//! each result back to the calling thread, which files it under its
//! item's index and hands the *completed prefix* to `on_ready` — so both
//! the returned `Vec` and the `on_ready` sequence are in *input order* no
//! matter which worker finished when. Reducing in that order is what
//! makes the parallel diagnosis bit-identical to the sequential one, and
//! reducing inside `on_ready` is what lets a daemon emit verdicts while
//! later items are still in flight.
//!
//! `threads <= 1` (or a trivial slice) runs inline on the caller's thread
//! with no pool, no atomics, and no channel.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Resolve a thread-count request: `0` means auto — the `WESEER_THREADS`
/// environment variable if set to a positive number, else
/// [`std::thread::available_parallelism`].
pub fn resolve_threads(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    if let Ok(v) = std::env::var("WESEER_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Map `f` over `items` on up to `threads` workers, returning the results
/// in input order. `on_ready` observes every result exactly once, in
/// input order, on the calling thread, as soon as all earlier items have
/// completed. `f` must be pure up to its observability side effects —
/// nothing here serializes calls.
///
/// Each worker publishes how many items it ran as the
/// `analyzer.worker{w}.tasks` counter, once per call.
pub fn run_ordered<I, O, F, E>(items: &[I], threads: usize, f: F, mut on_ready: E) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(usize, &I) -> O + Sync,
    E: FnMut(usize, &O),
{
    let n = items.len();
    if threads <= 1 || n <= 1 {
        let mut out = Vec::with_capacity(n);
        for (i, it) in items.iter().enumerate() {
            let o = f(i, it);
            on_ready(i, &o);
            out.push(o);
        }
        weseer_obs::add("analyzer.worker0.tasks", n as u64);
        return out;
    }
    let workers = threads.min(n);
    // Small chunks keep the tail balanced; large enough to amortize the
    // cursor contention.
    let chunk = (n / (workers * 8)).max(1);
    let cursor = AtomicUsize::new(0);
    let (done_tx, done_rx) = std::sync::mpsc::channel::<(usize, O)>();
    let mut slots: Vec<Option<O>> = (0..n).map(|_| None).collect();

    std::thread::scope(|scope| {
        let (cursor, f) = (&cursor, &f);
        for w in 0..workers {
            let done_tx = done_tx.clone();
            // Named threads give each worker its own labeled timeline lane.
            std::thread::Builder::new()
                .name(format!("analyzer.worker{w}"))
                .spawn_scoped(scope, move || {
                    let _span = weseer_obs::span(&format!("analyzer.worker{w}"));
                    let mut tasks = 0u64;
                    'claim: loop {
                        let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                        if start >= n {
                            break;
                        }
                        let end = (start + chunk).min(n);
                        for (i, item) in (start..end).zip(&items[start..end]) {
                            let out = f(i, item);
                            tasks += 1;
                            // The receiver only goes away if the merge
                            // below panicked; stop producing for it.
                            if done_tx.send((i, out)).is_err() {
                                break 'claim;
                            }
                        }
                    }
                    weseer_obs::add(&format!("analyzer.worker{w}.tasks"), tasks);
                })
                .expect("spawn analyzer worker");
        }
        drop(done_tx);

        // The merge runs on the caller's thread: completions arrive in
        // worker-race order, but `on_ready` fires strictly in input order.
        // The loop ends when every worker has dropped its sender — after
        // its last item, or by panicking (which the scope then re-raises).
        let mut next = 0usize;
        for (i, out) in done_rx {
            slots[i] = Some(out);
            while let Some(Some(ready)) = slots.get(next) {
                on_ready(next, ready);
                next += 1;
            }
        }
    });

    slots
        .into_iter()
        .map(|slot| slot.expect("every index claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn results_come_back_in_input_order() {
        let items: Vec<usize> = (0..1000).collect();
        for threads in [1, 2, 4, 7] {
            let out = run_ordered(
                &items,
                threads,
                |i, &x| {
                    assert_eq!(i, x);
                    x * 3
                },
                |_, _| {},
            );
            assert_eq!(out, (0..1000).map(|x| x * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let calls = AtomicUsize::new(0);
        let items: Vec<u8> = vec![0; 257]; // not a multiple of any chunk size
        let out = run_ordered(
            &items,
            4,
            |_, _| calls.fetch_add(1, Ordering::Relaxed),
            |_, _| {},
        );
        assert_eq!(out.len(), 257);
        assert_eq!(calls.load(Ordering::Relaxed), 257);
        let mut sorted = out;
        sorted.sort_unstable();
        assert_eq!(sorted, (0..257).collect::<Vec<_>>());
    }

    #[test]
    fn on_ready_fires_in_input_order_for_every_item_under_skew() {
        // Every 16th item is slow, so the chunks behind it finish first
        // and the merge has to hold them back until the prefix completes.
        let items: Vec<usize> = (0..120).collect();
        for threads in [1, 2, 4, 9] {
            let mut seen = Vec::new();
            let out = run_ordered(
                &items,
                threads,
                |_, &x| {
                    if x % 16 == 0 {
                        std::thread::sleep(Duration::from_millis(3));
                    }
                    x + 1
                },
                |i, &o| {
                    assert_eq!(i + 1, o);
                    seen.push(i);
                },
            );
            assert_eq!(seen, items, "threads={threads}");
            assert_eq!(out.len(), items.len());
        }
    }

    #[test]
    fn empty_and_single() {
        let mut ready = 0;
        let out: Vec<i32> = run_ordered(&[] as &[i32], 8, |_, &x| x, |_, _| ready += 1);
        assert!(out.is_empty());
        assert_eq!(ready, 0);
        let out = run_ordered(&[42], 8, |_, &x| x + 1, |_, _| ready += 1);
        assert_eq!(out, vec![43]);
        assert_eq!(ready, 1);
    }

    #[test]
    fn more_threads_than_items() {
        let mut seen = Vec::new();
        let out = run_ordered(&[1, 2, 3], 64, |_, &x| x * x, |i, _| seen.push(i));
        assert_eq!(out, vec![1, 4, 9]);
        assert_eq!(seen, vec![0, 1, 2]);
    }

    #[test]
    fn resolve_prefers_explicit_request() {
        assert_eq!(resolve_threads(3), 3);
        assert!(resolve_threads(0) >= 1);
    }
}
