//! Parallel execution of simulation jobs.
//!
//! Experiment figures run dozens of (predictor, benchmark) simulations;
//! [`run_parallel`] fans them out over `std::thread::scope` worker
//! threads and returns the results in job order. It is the one job
//! runner in the tree: every worker is joined before it returns, and a
//! panicking job's own payload is re-raised on the caller once the rest
//! of the queue has drained.

use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread;

/// Runs `jobs` on up to `workers` threads and returns the results in job
/// order.
///
/// # Panics
///
/// Panics if `workers == 0`. If a job panics, the remaining jobs still
/// run to completion and their results are drained; then the *first*
/// panicking job's original payload is re-raised on the calling thread
/// (instead of a generic "worker panicked" double panic out of
/// `thread::scope`).
///
/// # Example
///
/// ```
/// use ev8_sim::sweep::run_parallel;
///
/// let jobs: Vec<Box<dyn FnOnce() -> u64 + Send>> =
///     (0..8u64).map(|i| Box::new(move || i * i) as Box<dyn FnOnce() -> u64 + Send>).collect();
/// let results = run_parallel(jobs, 4);
/// assert_eq!(results[3], 9);
/// ```
pub fn run_parallel<T: Send>(jobs: Vec<Box<dyn FnOnce() -> T + Send>>, workers: usize) -> Vec<T> {
    assert!(workers > 0, "need at least one worker");
    let n = jobs.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = workers.min(n);
    let (job_tx, job_rx) = mpsc::channel::<(usize, Box<dyn FnOnce() -> T + Send>)>();
    let (res_tx, res_rx) = mpsc::channel::<(usize, thread::Result<T>)>();
    for j in jobs.into_iter().enumerate() {
        job_tx.send(j).expect("queue open");
    }
    drop(job_tx);
    // `mpsc::Receiver` is single-consumer; a shared mutex turns it into the
    // work queue the workers pull from.
    let job_rx = Arc::new(Mutex::new(job_rx));

    thread::scope(|s| {
        for _ in 0..workers {
            let job_rx = Arc::clone(&job_rx);
            let res_tx = res_tx.clone();
            s.spawn(move || loop {
                // Take a job while holding the lock, then release it
                // before running the job so other workers can proceed.
                let next = job_rx.lock().expect("job queue poisoned").recv();
                match next {
                    Ok((i, job)) => {
                        // Catch a panicking job so the worker survives to
                        // run the rest of the queue; the payload is shipped
                        // back and re-raised after the drain.
                        let out = panic::catch_unwind(AssertUnwindSafe(job));
                        if res_tx.send((i, out)).is_err() {
                            return;
                        }
                    }
                    Err(_) => return,
                }
            });
        }
        drop(res_tx);
        let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
        let mut first_panic = None;
        while let Ok((i, v)) = res_rx.recv() {
            match v {
                Ok(v) => slots[i] = Some(v),
                Err(payload) => {
                    if first_panic.is_none() {
                        first_panic = Some(payload);
                    }
                }
            }
        }
        if let Some(payload) = first_panic {
            panic::resume_unwind(payload);
        }
        slots
            .into_iter()
            .map(|s| s.expect("every job sent a result"))
            .collect()
    })
}

/// A sensible default worker count: the number of available CPUs, at
/// least 1, at most 8 (the experiments are memory-bandwidth heavy).
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(1, 8)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_in_job_order() {
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..32)
            .map(|i| {
                Box::new(move || {
                    // Vary the work so completion order differs.
                    let mut acc = 0usize;
                    for k in 0..(32 - i) * 1000 {
                        acc = acc.wrapping_add(k);
                    }
                    let _ = acc;
                    i
                }) as Box<dyn FnOnce() -> usize + Send>
            })
            .collect();
        let results = run_parallel(jobs, 4);
        assert_eq!(results, (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn empty_jobs_ok() {
        let jobs: Vec<Box<dyn FnOnce() -> u8 + Send>> = Vec::new();
        assert!(run_parallel(jobs, 2).is_empty());
    }

    #[test]
    fn single_worker_works() {
        let jobs: Vec<Box<dyn FnOnce() -> u8 + Send>> = vec![Box::new(|| 7), Box::new(|| 9)];
        assert_eq!(run_parallel(jobs, 1), vec![7, 9]);
    }

    #[test]
    fn more_workers_than_jobs() {
        let jobs: Vec<Box<dyn FnOnce() -> u8 + Send>> = vec![Box::new(|| 1)];
        assert_eq!(run_parallel(jobs, 16), vec![1]);
    }

    #[test]
    fn default_workers_sane() {
        let w = default_workers();
        assert!((1..=8).contains(&w));
    }

    #[test]
    #[should_panic(expected = "need at least one worker")]
    fn zero_workers_rejected() {
        let jobs: Vec<Box<dyn FnOnce() -> u8 + Send>> = vec![Box::new(|| 1)];
        run_parallel(jobs, 0);
    }

    #[test]
    fn job_panic_propagates_original_payload() {
        let jobs: Vec<Box<dyn FnOnce() -> u8 + Send>> = vec![
            Box::new(|| 1),
            Box::new(|| panic!("job exploded")),
            Box::new(|| 3),
        ];
        let err = panic::catch_unwind(AssertUnwindSafe(|| run_parallel(jobs, 2)))
            .expect_err("panic must propagate");
        // The caller sees the job's own payload, not a secondary
        // "worker panicked" message.
        let msg = err
            .downcast_ref::<&str>()
            .copied()
            .expect("payload is the panic message");
        assert_eq!(msg, "job exploded");
    }

    #[test]
    fn surviving_jobs_complete_before_panic_propagates() {
        // The panicking job must not poison the queue: with one worker the
        // remaining jobs still run (observable via the shared counter) even
        // though their results are discarded by the unwind.
        use std::sync::atomic::{AtomicUsize, Ordering};
        let completed = Arc::new(AtomicUsize::new(0));
        let jobs: Vec<Box<dyn FnOnce() -> u8 + Send>> = (0..4u8)
            .map(|i| {
                let completed = Arc::clone(&completed);
                Box::new(move || {
                    if i == 0 {
                        panic!("early job panics");
                    }
                    completed.fetch_add(1, Ordering::SeqCst);
                    i
                }) as Box<dyn FnOnce() -> u8 + Send>
            })
            .collect();
        let err = panic::catch_unwind(AssertUnwindSafe(|| run_parallel(jobs, 1)))
            .expect_err("panic must propagate");
        assert_eq!(completed.load(Ordering::SeqCst), 3);
        let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "early job panics");
    }
}
