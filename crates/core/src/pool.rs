//! The crate's shared fan-out primitives: an order-preserving scoped
//! thread pool over an indexed work list, and a long-lived sharded worker
//! pool for the session service.
//!
//! Both embarrassingly parallel layers — the scenario sweep
//! ([`crate::sweep::run_sweep`]) and the scheduler search's random
//! restarts ([`crate::schedsearch::run_search_parallel`]) — drain a shared
//! atomic counter and write results into their original slots, so the
//! output order (and therefore every derived report byte) is identical
//! for any worker count. The service ([`crate::service`]) instead needs
//! *sticky* routing — every job for one shard must execute on that
//! shard's single thread, which is what makes per-shard session state
//! lock-free — so it runs on [`ShardWorkers`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::thread::JoinHandle;

/// Compute `f(0..count)` across `threads` workers, returning the results
/// in index order. `f` must be a pure function of its index for the
/// output to be thread-count invariant — which every caller's determinism
/// test asserts.
///
/// # Panics
///
/// Panics if a worker panicked (poisoning the slot mutex).
pub(crate) fn parallel_indexed<T, F>(count: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = threads.max(1).min(count.max(1));
    if workers <= 1 {
        return (0..count).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..count).map(|_| None).collect());

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, Ordering::Relaxed);
                if index >= count {
                    break;
                }
                let result = f(index);
                slots.lock().expect("pool worker panicked")[index] = Some(result);
            });
        }
    });

    slots
        .into_inner()
        .expect("pool worker panicked")
        .into_iter()
        .map(|slot| slot.expect("every index produced a result"))
        .collect()
}

/// A fixed set of long-lived worker threads, one per shard, each draining
/// its own job queue in submission order.
///
/// Unlike [`parallel_indexed`] (scoped, transient, work-stealing), shard
/// workers are *sticky*: [`ShardWorkers::submit`] routes a job to one
/// specific worker, so all state that worker owns (the service's pooled
/// sessions) is accessed from a single thread without locking. Dropping
/// the senders — [`ShardWorkers::join`] — is the drain signal: each
/// worker finishes every job already queued, then exits.
pub(crate) struct ShardWorkers<J: Send + 'static> {
    // Senders are wrapped in a mutex so `submit` works through `&self`
    // from many client threads; the lock is held only to clone a handle.
    senders: Vec<Mutex<Option<mpsc::Sender<J>>>>,
    handles: Vec<JoinHandle<()>>,
}

impl<J: Send + 'static> ShardWorkers<J> {
    /// Spawn one worker thread per shard. `make_handler(shard)` builds the
    /// shard's job handler, which runs on that shard's thread for the
    /// worker's whole life (the handler owns the shard-local state).
    pub(crate) fn spawn<H>(shards: usize, mut make_handler: impl FnMut(usize) -> H) -> Self
    where
        H: FnMut(J) + Send + 'static,
    {
        let mut senders = Vec::with_capacity(shards);
        let mut handles = Vec::with_capacity(shards);
        for shard in 0..shards.max(1) {
            let (tx, rx) = mpsc::channel::<J>();
            let mut handler = make_handler(shard);
            handles.push(std::thread::spawn(move || {
                while let Ok(job) = rx.recv() {
                    handler(job);
                }
            }));
            senders.push(Mutex::new(Some(tx)));
        }
        ShardWorkers { senders, handles }
    }

    /// Number of shards.
    pub(crate) fn shards(&self) -> usize {
        self.senders.len()
    }

    /// Queue a job on one shard's worker. Fails if the shard index is out
    /// of range or the pool is already draining.
    pub(crate) fn submit(&self, shard: usize, job: J) -> Result<(), String> {
        let slot = self
            .senders
            .get(shard)
            .ok_or_else(|| format!("shard {shard} out of range 0..{}", self.senders.len()))?;
        let sender = slot
            .lock()
            .expect("shard sender poisoned")
            .clone()
            .ok_or_else(|| format!("shard {shard} is draining"))?;
        sender
            .send(job)
            .map_err(|_| format!("shard {shard} worker is gone"))
    }

    /// Graceful drain: stop accepting jobs, let every worker finish its
    /// queue, and join the threads.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panicked (handlers are expected to catch
    /// their own unwinds and answer with an error instead).
    pub(crate) fn join(&mut self) {
        for slot in &self.senders {
            *slot.lock().expect("shard sender poisoned") = None;
        }
        for handle in self.handles.drain(..) {
            handle.join().expect("shard worker panicked");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_workers_route_sticky_and_drain_cleanly() {
        let results: std::sync::Arc<Mutex<Vec<(usize, usize)>>> =
            std::sync::Arc::new(Mutex::new(Vec::new()));
        let mut workers = ShardWorkers::spawn(3, |shard| {
            let results = std::sync::Arc::clone(&results);
            move |job: usize| results.lock().unwrap().push((shard, job))
        });
        for job in 0..30 {
            workers.submit(job % 3, job).unwrap();
        }
        assert!(workers.submit(7, 0).is_err(), "out-of-range shard");
        workers.join();
        let seen = results.lock().unwrap();
        assert_eq!(seen.len(), 30, "drain waited for every queued job");
        // Sticky routing: every job landed on the shard it was sent to.
        for &(shard, job) in seen.iter() {
            assert_eq!(job % 3, shard);
        }
    }

    #[test]
    fn preserves_index_order_for_any_worker_count() {
        let serial = parallel_indexed(37, 1, |i| i * i);
        for threads in [2, 4, 16, 64] {
            assert_eq!(parallel_indexed(37, threads, |i| i * i), serial);
        }
    }

    #[test]
    fn empty_and_single_item_lists_work() {
        assert_eq!(parallel_indexed(0, 4, |i| i), Vec::<usize>::new());
        assert_eq!(parallel_indexed(1, 4, |i| i + 1), vec![1]);
    }
}
