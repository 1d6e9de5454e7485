//! Work-stealing region scheduler.
//!
//! The one region worklist behind every verifier run (see
//! `verify.rs`, the driver): per-worker deques, where each worker pushes
//! split sub-regions onto its own deque and pops from the same end
//! (LIFO, so the search stays depth-first and cache-warm), while an
//! out-of-work worker steals *half* of a victim's deque from the opposite
//! end (FIFO, so thieves take the oldest — shallowest, largest — regions,
//! which amortizes the steal). With one worker this is a plain
//! depth-first stack.
//!
//! Idle workers park on a condvar instead of spinning. The parking
//! protocol is the classic two-phase check: a parker advertises itself
//! (`parked += 1`, sequentially consistent) *before* re-checking the
//! queued count, and a pusher publishes work (`queued += n`) *before*
//! reading `parked`. Whichever side wins the race, the other observes it:
//! either the parker sees the new work and aborts the park, or the pusher
//! sees the parker and notifies. Parks are additionally bounded by a
//! short timeout so budget deadlines and external cancellation are
//! observed promptly even with no work in flight.
//!
//! Termination uses a single `tasks` counter covering queued *and*
//! in-flight regions: workers push children before completing the parent,
//! so `tasks == 0` is a stable "worklist drained" signal (never a
//! transient dip mid-split). Regions re-queued for checkpointing
//! (cancellation faults, unsplittable regions, lapsed budgets) do not
//! re-increment the counter — they were never completed.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
use std::sync::{Arc, Condvar, Mutex as StdMutex};
use std::time::{Duration, Instant};

use domains::Bounds;
use parking_lot::Mutex;

use crate::telemetry::Metrics;

/// A region awaiting processing.
#[derive(Debug, Clone)]
pub(crate) struct Region {
    pub bounds: Bounds,
    /// Split depth (0 for a property's root region).
    pub depth: usize,
    /// The parent's best attack point `x*`, shared by both children of a
    /// split; the child's counterexample search warm-starts from it.
    /// `None` for roots, resumed checkpoint regions and the children of
    /// a coarse (interval-retry) split, which run the cold search.
    pub incumbent: Option<Arc<[f64]>>,
}

/// Longest single park; bounds how stale a worker's view of the deadline
/// and the external cancel flag can get while it has no work.
const PARK_SLICE: Duration = Duration::from_millis(25);

/// The shared scheduler state of one run.
pub(crate) struct Scheduler {
    /// One deque per worker. Owners push/pop at the back; thieves drain
    /// from the front.
    deques: Vec<Mutex<VecDeque<Region>>>,
    /// Regions sitting in some deque (not in flight). Parking checks.
    queued: AtomicUsize,
    /// Queued + in-flight regions. Zero means the worklist is drained:
    /// children are pushed *before* the parent completes.
    tasks: AtomicUsize,
    /// Workers currently inside a park (or committing to one).
    parked: AtomicUsize,
    /// Guards the condvar; holds no data — all state is atomic.
    gate: StdMutex<()>,
    /// Signalled on push, on drain, and on stop.
    work: Condvar,
}

impl Scheduler {
    /// Builds a scheduler for `workers` workers seeded with `initial`
    /// `(bounds, depth)` regions (distributed round-robin so workers start
    /// on disjoint work). Initial regions carry no incumbent.
    pub(crate) fn new(workers: usize, initial: Vec<(Bounds, usize)>) -> Self {
        let slots = workers.max(1);
        let mut deques: Vec<VecDeque<Region>> = (0..slots).map(|_| VecDeque::new()).collect();
        let count = initial.len();
        for (i, (bounds, depth)) in initial.into_iter().enumerate() {
            deques[i % slots].push_back(Region {
                bounds,
                depth,
                incumbent: None,
            });
        }
        Scheduler {
            deques: deques.into_iter().map(Mutex::new).collect(),
            queued: AtomicUsize::new(count),
            tasks: AtomicUsize::new(count),
            parked: AtomicUsize::new(0),
            gate: StdMutex::new(()),
            work: Condvar::new(),
        }
    }

    /// Pops a region for `worker`: its own deque first (LIFO), then a
    /// steal-half pass over the other deques. Steal counts land in the
    /// worker's [`Metrics`] so scheduler behaviour shows up in run
    /// reports. Returns `None` only if every deque was empty at the time
    /// it was inspected.
    pub(crate) fn try_pop(&self, worker: usize, metrics: &mut Metrics) -> Option<Region> {
        let slots = self.deques.len();
        let me = worker % slots;
        if let Some(region) = self.deques[me].lock().pop_back() {
            self.queued.fetch_sub(1, SeqCst);
            return Some(region);
        }
        if slots == 1 {
            return None;
        }
        for offset in 1..slots {
            let victim = (me + offset) % slots;
            let mut loot: VecDeque<Region> = {
                let mut deque = self.deques[victim].lock();
                let take = deque.len().div_ceil(2);
                if take == 0 {
                    continue;
                }
                deque.drain(..take).collect()
            };
            self.queued.fetch_sub(loot.len(), SeqCst);
            metrics.record_steal(loot.len() as u64);
            let first = loot.pop_front().expect("steal takes at least one region");
            if !loot.is_empty() {
                let surplus = loot.len();
                self.deques[me].lock().append(&mut loot);
                self.queued.fetch_add(surplus, SeqCst);
                // The surplus transiently vanished from `queued`; a
                // worker that parked during the dip needs a nudge.
                self.notify_if_parked();
            }
            return Some(first);
        }
        None
    }

    /// Pushes the two children of a split so that the owner pops `left`
    /// first, whatever the worker count. The task counter grows before
    /// the regions become visible, so `tasks` never under-counts; the
    /// caller completes the parent *afterwards* (see
    /// [`Scheduler::complete_one`]).
    pub(crate) fn push_split(&self, worker: usize, left: Region, right: Region) {
        self.tasks.fetch_add(2, SeqCst);
        let me = worker % self.deques.len();
        {
            let mut deque = self.deques[me].lock();
            deque.push_back(right);
            deque.push_back(left);
        }
        self.queued.fetch_add(2, SeqCst);
        self.notify_if_parked();
    }

    /// Returns a popped region to the worklist *without* growing the task
    /// counter: the region was never completed, it just needs to be in
    /// the deques when the checkpoint drains them (cancellation faults,
    /// unsplittable regions, lapsed budgets).
    pub(crate) fn requeue(&self, worker: usize, region: Region) {
        let me = worker % self.deques.len();
        self.deques[me].lock().push_back(region);
        self.queued.fetch_add(1, SeqCst);
        self.notify_if_parked();
    }

    /// Marks one popped region as fully processed (verified, refuted, or
    /// errored — anything that does not re-queue it). On the last region
    /// every parked worker is woken so the run can finish.
    pub(crate) fn complete_one(&self) {
        if self.tasks.fetch_sub(1, SeqCst) == 1 {
            self.wake_all();
        }
    }

    /// True once every region has been completed (none queued, none in
    /// flight). Stable: `tasks` never dips to zero transiently.
    pub(crate) fn drained(&self) -> bool {
        self.tasks.load(SeqCst) == 0
    }

    /// Parks the calling worker until work arrives, the run drains, the
    /// `abort` condition holds, or `limit` elapses — whichever is first.
    /// The park (if it happens) is timed into the worker's [`Metrics`].
    pub(crate) fn park(&self, limit: Duration, metrics: &mut Metrics, abort: impl Fn() -> bool) {
        let limit = limit.min(PARK_SLICE);
        let guard = self.gate.lock().unwrap_or_else(|e| e.into_inner());
        // Advertise before re-checking: a pusher increments `queued`
        // before reading `parked` (both SeqCst), so either we see its
        // work here or it sees us and notifies under the gate.
        self.parked.fetch_add(1, SeqCst);
        if self.queued.load(SeqCst) > 0 || self.drained() || abort() {
            self.parked.fetch_sub(1, SeqCst);
            return;
        }
        let start = Instant::now();
        let _ = self.work.wait_timeout(guard, limit);
        self.parked.fetch_sub(1, SeqCst);
        metrics.record_park(start.elapsed().as_secs_f64());
    }

    /// Wakes every parked worker (stop, error, or drained worklist).
    pub(crate) fn wake_all(&self) {
        let _gate = self.gate.lock().unwrap_or_else(|e| e.into_inner());
        self.work.notify_all();
    }

    fn notify_if_parked(&self) {
        if self.parked.load(SeqCst) > 0 {
            // Taking the gate orders the notify after any in-progress
            // parker has reached its wait.
            let _gate = self.gate.lock().unwrap_or_else(|e| e.into_inner());
            self.work.notify_all();
        }
    }

    /// Consumes the scheduler, returning every region still queued as
    /// `(bounds, depth)` (for checkpointing a budget-limited run;
    /// incumbents are dropped). Deque order is preserved deque by deque,
    /// so a one-worker run checkpoints its stack bottom first; checkpoint
    /// consumers treat pending sets as unordered.
    pub(crate) fn into_pending(self) -> Vec<(Bounds, usize)> {
        let mut pending = Vec::new();
        for deque in self.deques {
            pending.extend(deque.into_inner().into_iter().map(|r| (r.bounds, r.depth)));
        }
        pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn root(tag: usize) -> (Bounds, usize) {
        (Bounds::new(vec![0.0], vec![tag as f64 + 1.0]), tag)
    }

    fn region(tag: usize) -> Region {
        let (bounds, depth) = root(tag);
        Region {
            bounds,
            depth,
            incumbent: Some(Arc::from(vec![0.5])),
        }
    }

    #[test]
    fn seeds_round_robin_and_drains_in_lifo_order_per_deque() {
        let sched = Scheduler::new(2, vec![root(0), root(1)]);
        let mut m = Metrics::new();
        // Worker 0's own deque holds region 0; worker 1's holds region 1.
        assert_eq!(sched.try_pop(0, &mut m).unwrap().depth, 0);
        assert_eq!(sched.try_pop(1, &mut m).unwrap().depth, 1);
        assert!(sched.try_pop(0, &mut m).is_none());
        assert_eq!(m.steals, 0);
    }

    #[test]
    fn steal_takes_half_from_the_front() {
        let sched = Scheduler::new(2, vec![]);
        // Worker 0 splits twice: each split pushes right then left, so
        // its deque is [11, 10, 13, 12] back-most newest. tasks
        // bookkeeping: fake two outstanding parents.
        sched.push_split(0, region(10), region(11));
        sched.push_split(0, region(12), region(13));
        let mut m = Metrics::new();
        // Worker 1 steals ceil(4/2) = 2 oldest (11, 10), keeps the first,
        // deposits the second in its own deque.
        let got = sched.try_pop(1, &mut m).unwrap();
        assert_eq!(got.depth, 11);
        assert_eq!(m.steals, 1);
        assert_eq!(m.stolen_regions, 2);
        assert_eq!(sched.try_pop(1, &mut m).unwrap().depth, 10);
        // Worker 0 still owns its newest work, left child first.
        assert_eq!(sched.try_pop(0, &mut m).unwrap().depth, 12);
        assert_eq!(sched.try_pop(0, &mut m).unwrap().depth, 13);
    }

    #[test]
    fn tasks_counter_tracks_split_and_complete() {
        let sched = Scheduler::new(1, vec![root(0)]);
        let mut m = Metrics::new();
        let parent = sched.try_pop(0, &mut m).unwrap();
        assert!(!sched.drained());
        sched.push_split(0, region(1), region(2));
        sched.complete_one(); // parent
        assert!(!sched.drained());
        let _ = sched.try_pop(0, &mut m).unwrap();
        sched.complete_one();
        let _ = sched.try_pop(0, &mut m).unwrap();
        sched.complete_one();
        assert!(sched.drained());
        drop(parent);
    }

    #[test]
    fn requeue_preserves_task_count_and_checkpoint_contents() {
        let sched = Scheduler::new(2, vec![root(0), root(1)]);
        let mut m = Metrics::new();
        let mut popped = sched.try_pop(0, &mut m).unwrap();
        assert!(
            popped.incumbent.is_none(),
            "initial regions carry no incumbent"
        );
        popped.incumbent = Some(Arc::from(vec![0.5]));
        sched.requeue(0, popped);
        assert!(!sched.drained());
        let mut pending: Vec<usize> = sched.into_pending().into_iter().map(|(_, d)| d).collect();
        pending.sort_unstable();
        assert_eq!(pending, vec![0, 1]);
    }

    #[test]
    fn park_aborts_immediately_when_work_is_queued_or_drained() {
        let mut m = Metrics::new();
        // Queued work: park must return without waiting or counting.
        let busy = Scheduler::new(1, vec![root(0)]);
        busy.park(Duration::from_secs(5), &mut m, || false);
        assert_eq!(m.parks, 0);
        // Drained: same.
        let done = Scheduler::new(1, vec![]);
        done.park(Duration::from_secs(5), &mut m, || false);
        assert_eq!(m.parks, 0);
    }

    #[test]
    fn park_times_out_within_the_slice() {
        let sched = Scheduler::new(2, vec![root(0)]);
        let mut m = Metrics::new();
        let _held = sched.try_pop(0, &mut m).unwrap(); // in flight, nothing queued
        let start = Instant::now();
        sched.park(Duration::from_secs(60), &mut m, || false);
        assert!(start.elapsed() < Duration::from_secs(5), "park overslept");
        assert_eq!(m.parks, 1);
        assert!(m.idle_seconds > 0.0);
    }

    #[test]
    fn pusher_wakes_a_parked_worker() {
        let sched = Arc::new(Scheduler::new(2, vec![root(0)]));
        let mut m = Metrics::new();
        let parent = sched.try_pop(0, &mut m).unwrap();
        let thief = {
            let sched = Arc::clone(&sched);
            std::thread::spawn(move || {
                let mut m = Metrics::new();
                // Park (possibly several slices), then pop what arrives.
                while sched.queued.load(SeqCst) == 0 {
                    sched.park(Duration::from_secs(1), &mut m, || false);
                }
                sched.try_pop(1, &mut m).map(|r| r.depth)
            })
        };
        std::thread::sleep(Duration::from_millis(20));
        sched.push_split(0, region(7), region(8));
        sched.complete_one();
        let got = thief.join().expect("thief thread panicked");
        assert!(got == Some(7) || got == Some(8), "thief got {got:?}");
        drop(parent);
    }
}
