//! The `PlanService` front end: worker pool, bounded submission queue,
//! tickets, drain and stats.
//!
//! See the [module docs](crate::service) for the architecture; this file
//! holds the moving parts. Locking is deliberately simple: the
//! submission queue is one mutex + condvar, and the cache's shard locks
//! are only ever taken *while holding* the queue lock on the submit path
//! (never the other way around), so the lock order is acyclic. Workers
//! take the queue lock to pop a batch, release it to solve, and touch
//! only cache/ticket locks to publish results. That acyclic order is
//! executable, not just documented: every lock here is a
//! [`crate::sync::RankedMutex`] (queue 10 < cache-shard 20 < ticket 30 <
//! timing 40), and under `debug_assertions` an out-of-rank acquisition
//! panics with both sites — see the [`crate::sync`] module docs.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::error::{DaeDvfsError, RegistryError, ServiceError};
use crate::obs::{self, PathStamp, Receipt, ServePath};
use crate::pipeline::DeploymentPlan;
use crate::planner::Planner;
use crate::registry::PlanRegistry;
use crate::request::{PlanRequest, Solver};
use crate::service::cache::{CacheStats, Lookup, PlanCache, PlanKey, ServedPlan};
use crate::service::coalesce::{canonicalize, solve_batch, GroupKey};
use crate::service::ServiceConfig;
use crate::sync::{lock, rank, wait, wait_timeout, RankedCondvar, RankedGuard, RankedMutex};

/// Handle to a planner registered with a [`PlanService`]; cheap to copy
/// and required by [`PlanService::submit`].
///
/// Keys index into the service they came from — a key from one service
/// is rejected by another (unless it happens to be in range, in which
/// case it addresses that service's planner at the same position).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannerKey(pub(crate) usize);

/// One admitted request waiting in the queue (always a cache-miss
/// *leader*; hits and joiners never occupy queue slots).
#[derive(Debug)]
struct Pending {
    planner: usize,
    group: GroupKey,
    key: PlanKey,
    window_secs: f64,
    ticket: Arc<TicketInner>,
}

#[derive(Debug)]
struct TicketInner {
    slot: RankedMutex<Option<(Result<ServedPlan, ServiceError>, PathStamp)>>,
    ready: RankedCondvar,
}

impl TicketInner {
    fn new() -> Arc<Self> {
        Arc::new(TicketInner {
            slot: RankedMutex::new(rank::TICKET, None),
            ready: RankedCondvar::new(),
        })
    }

    fn fulfill(&self, result: Result<ServedPlan, ServiceError>, stamp: PathStamp) {
        *lock(&self.slot) = Some((result, stamp));
        self.ready.notify_all();
    }

    fn wait_stamped(&self) -> (Result<ServedPlan, ServiceError>, PathStamp) {
        let mut slot = lock(&self.slot);
        loop {
            if let Some((result, stamp)) = slot.as_ref() {
                return (result.clone(), *stamp);
            }
            slot = wait(&self.ready, slot);
        }
    }

    fn ready(&self) -> bool {
        lock(&self.slot).is_some()
    }
}

/// A ticket's backing state: inline hits are answered at submit time and
/// carry their result by value — no shared slot, no condvar, no heap
/// allocation on the hot path.
#[derive(Debug)]
enum TicketState {
    /// Answered inline (cache-hit fast path): the result travelled back
    /// on the submitting thread's stack, stamped with its serving path.
    Ready(Result<ServedPlan, ServiceError>, PathStamp),
    /// Waiting on a worker or an in-flight leader.
    Pending(Arc<TicketInner>),
}

/// A submitted request's result handle. Obtained from
/// [`PlanService::submit`]; every admitted ticket is fulfilled before
/// [`PlanService::run`] returns (graceful drain), so [`PlanTicket::wait`]
/// never blocks past the serving scope. Cache-hit submissions come back
/// already answered ([`PlanTicket::ready`] is immediately true) without
/// touching the queue or a worker.
#[derive(Debug)]
pub struct PlanTicket {
    state: TicketState,
}

impl PlanTicket {
    /// Blocks until the request is answered and returns the shared plan
    /// (an `Arc` clone of the cached entry) or the request's typed error.
    pub fn wait(self) -> Result<Arc<DeploymentPlan>, ServiceError> {
        self.wait_served().map(ServedPlan::into_plan)
    }

    /// Like [`PlanTicket::wait`], but keeps the plan paired with its
    /// canonical artifact serialization ([`ServedPlan`]) — the
    /// zero-serialization handle the HTTP layer answers with.
    pub fn wait_served(self) -> Result<ServedPlan, ServiceError> {
        self.wait_stamped().0
    }

    /// Like [`PlanTicket::wait_served`], but also reports *how* the
    /// request was answered (the [`crate::obs::ServePath`] stamp every
    /// fulfillment carries) — the building block of
    /// [`PlanService::plan_receipted`].
    pub(crate) fn wait_stamped(self) -> (Result<ServedPlan, ServiceError>, PathStamp) {
        match self.state {
            TicketState::Ready(result, stamp) => (result, stamp),
            TicketState::Pending(inner) => inner.wait_stamped(),
        }
    }

    /// Whether the result is already available ([`PlanTicket::wait`]
    /// would return without blocking).
    pub fn ready(&self) -> bool {
        match &self.state {
            TicketState::Ready(..) => true,
            TicketState::Pending(inner) => inner.ready(),
        }
    }
}

#[derive(Debug)]
struct Queue {
    items: VecDeque<Pending>,
    /// Workers are running (inside [`PlanService::run`]).
    serving: bool,
    /// Drain has begun: no new admissions, workers exit on empty.
    draining: bool,
    max_depth: usize,
}

#[derive(Debug, Default)]
struct Counters {
    submitted: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    batches: AtomicU64,
    batched_requests: AtomicU64,
    max_batch: AtomicU64,
    inline_hits: AtomicU64,
    bytes_served: AtomicU64,
    enqueued: AtomicU64,
}

#[derive(Debug, Default)]
struct Timing {
    accumulated: Duration,
    current: Option<Instant>,
}

/// Point-in-time service counters ([`PlanService::stats`]).
///
/// Consistency invariant: once the service has drained,
/// `cache.hits + cache.misses == submitted == completed` — every
/// admitted request performed exactly one cache lookup and was fulfilled
/// exactly once (`rejected` submissions never reach the cache), and
/// `inline_hits <= cache.hits` — inline answers are the subset of hits
/// served on the lock-free fast path. With a registry attached the
/// invariant extends across the cold tier:
/// `cache.inserted == registry_hits + registry_writes` — every plan that
/// entered the LRU either came off disk or was written through to it
/// (modulo advisory store failures, which leave the plan memory-only).
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub struct ServiceStats {
    /// Requests admitted (ticket handed out).
    pub submitted: u64,
    /// Tickets fulfilled (including failures).
    pub completed: u64,
    /// Submissions rejected before admission (backpressure, invalid
    /// request, unknown planner, not serving).
    pub rejected: u64,
    /// Tickets fulfilled with an error.
    pub failed: u64,
    /// Coalesced batches solved by workers.
    pub batches: u64,
    /// Leader requests answered across all batches.
    pub batched_requests: u64,
    /// Largest single batch.
    pub max_batch: u64,
    /// Cache hits answered inline on the submit fast path: no queue
    /// slot, no ticket allocation, no worker handoff. Always
    /// `<= cache.hits` (hits observed under the queue lock — a
    /// startup/drain race — are fulfilled through a ticket instead).
    pub inline_hits: u64,
    /// Cumulative payload bytes of successfully answered requests (the
    /// shared canonical artifact serialization; failed requests
    /// contribute nothing).
    pub bytes_served: u64,
    /// Leaders pushed onto the submission queue. Hits, joiners and
    /// rejected submissions never enqueue, so a fully warm trace adds
    /// zero.
    pub enqueued: u64,
    /// Current submission-queue depth.
    pub queue_depth: u64,
    /// High-water mark of the submission queue.
    pub max_queue_depth: u64,
    /// Cumulative wall-clock time spent serving (across
    /// [`PlanService::run`] scopes).
    pub elapsed_secs: f64,
    /// Cache misses answered from the on-disk registry without a solve
    /// (0 when no registry is attached).
    pub registry_hits: u64,
    /// Fresh solves written through to the on-disk registry (0 when no
    /// registry is attached).
    pub registry_writes: u64,
    /// Registry entries quarantined as corrupt or mismatched (0 when no
    /// registry is attached).
    pub quarantined: u64,
    /// Plan-cache counters.
    pub cache: CacheStats,
    /// Per-path end-to-end latency histograms, recorded for requests
    /// served through [`PlanService::plan_receipted`] (the HTTP serving
    /// path). Power-of-two nanosecond buckets, one lane per
    /// [`crate::obs::ServePath`].
    pub paths: obs::PathStats,
}

impl ServiceStats {
    /// Fraction of admitted requests answered from the cache.
    pub fn hit_rate(&self) -> f64 {
        self.cache.hit_rate()
    }

    /// Completed requests per serving second (0 before any serving).
    pub fn throughput_rps(&self) -> f64 {
        if self.elapsed_secs > 0.0 {
            self.completed as f64 / self.elapsed_secs
        } else {
            0.0
        }
    }

    /// Fraction of admitted requests answered inline on the submit fast
    /// path (0 before any submission).
    pub fn inline_hit_rate(&self) -> f64 {
        if self.submitted > 0 {
            self.inline_hits as f64 / self.submitted as f64
        } else {
            0.0
        }
    }

    /// Mean batch size across coalesced solves (0 before any batch).
    pub fn mean_batch(&self) -> f64 {
        if self.batches > 0 {
            self.batched_requests as f64 / self.batches as f64
        } else {
            0.0
        }
    }
}

/// The concurrent plan-serving front end: a fingerprint-keyed plan cache
/// plus a request coalescer behind a worker pool.
///
/// Construct with [`PlanService::new`], [`PlanService::register`] one or
/// more planners, then enter the serving scope with
/// [`PlanService::run`] — workers live on `std::thread::scope`, so the
/// service borrows its planners instead of demanding `'static`
/// ownership. Inside the scope, any thread holding `&PlanService` may
/// [`PlanService::submit`] (non-blocking, typed backpressure) or
/// [`PlanService::plan`] (submit + wait).
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use dae_dvfs::{PlanRequest, Planner, PlanService, ServiceConfig};
/// use tinynn::models::vww_sized;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let planner = Arc::new(Planner::new(&vww_sized(32), &Default::default())?);
/// let mut service = PlanService::new(ServiceConfig::default())?;
/// let key = service.register(planner);
/// let plan = service.run(|svc| svc.plan(key, &PlanRequest::slack(0.3)))?;
/// assert!(plan.predicted_latency_secs <= plan.qos_secs);
/// assert_eq!(service.stats().completed, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct PlanService {
    config: ServiceConfig,
    planners: Vec<Arc<Planner>>,
    cache: PlanCache<Arc<TicketInner>>,
    /// The persistent cold tier, when attached: consulted once per
    /// cache-miss leader by the worker that claims it — before any batch
    /// linger, outside the queue lock — and written through after every
    /// fresh solve ([`PlanService::attach_registry`]).
    registry: Option<PlanRegistry>,
    queue: RankedMutex<Queue>,
    arrived: RankedCondvar,
    counters: Counters,
    /// Lock-free per-path latency histograms, fed by
    /// [`PlanService::plan_receipted`].
    paths: obs::PathHistograms,
    timing: RankedMutex<Timing>,
    /// Lock-free mirrors of the queue's `serving`/`draining` flags: the
    /// submit fast path serves cache hits without touching the queue
    /// mutex, so hot-key traffic contends only on the cache shards. The
    /// queue's own flags stay authoritative for admission and workers.
    serving_hint: AtomicBool,
    draining_hint: AtomicBool,
}

/// Guarantees the drain begins even when the serving closure panics:
/// without it, workers would wait on `arrived` forever and
/// `std::thread::scope`'s implicit join would deadlock the unwind.
struct DrainOnDrop<'a>(&'a PlanService);

impl Drop for DrainOnDrop<'_> {
    fn drop(&mut self) {
        lock(&self.0.queue).draining = true;
        self.0.draining_hint.store(true, Ordering::Release);
        self.0.arrived.notify_all();
    }
}

/// Runs [`PlanService::run`]'s post-scope cleanup (stop serving, settle
/// the timing clock) on both the normal path and an unwinding one, so a
/// panicked serving closure leaves the service stopped but reusable.
struct StopServingOnDrop<'a>(&'a PlanService);

impl Drop for StopServingOnDrop<'_> {
    fn drop(&mut self) {
        self.0.serving_hint.store(false, Ordering::Release);
        lock(&self.0.queue).serving = false;
        let mut timing = lock(&self.0.timing);
        if let Some(started) = timing.current.take() {
            timing.accumulated += started.elapsed();
        }
    }
}

impl PlanService {
    /// A service with no planners yet; [`PlanService::register`] at least
    /// one before serving.
    ///
    /// # Errors
    ///
    /// [`DaeDvfsError::InvalidRequest`] naming the offending
    /// [`ServiceConfig`] field for degenerate configurations.
    pub fn new(config: ServiceConfig) -> Result<Self, DaeDvfsError> {
        config.validate()?;
        Ok(PlanService {
            cache: PlanCache::new(config.cache_capacity, config.cache_shards),
            config,
            planners: Vec::new(),
            registry: None,
            queue: RankedMutex::new(
                rank::QUEUE,
                Queue {
                    items: VecDeque::new(),
                    serving: false,
                    draining: false,
                    max_depth: 0,
                },
            ),
            arrived: RankedCondvar::new(),
            counters: Counters::default(),
            paths: obs::PathHistograms::new(),
            timing: RankedMutex::new(rank::TIMING, Timing::default()),
            serving_hint: AtomicBool::new(false),
            draining_hint: AtomicBool::new(false),
        })
    }

    /// Registers a planner and returns its submission key. Requests are
    /// keyed by the planner's stored fingerprints, so two planners built
    /// from the same model and board configuration share cache entries
    /// and coalesced batches.
    pub fn register(&mut self, planner: Arc<Planner>) -> PlannerKey {
        self.planners.push(planner);
        PlannerKey(self.planners.len() - 1)
    }

    /// The planner a key addresses, if it belongs to this service.
    pub fn planner(&self, key: PlannerKey) -> Option<&Arc<Planner>> {
        self.planners.get(key.0)
    }

    /// Attaches a persistent on-disk registry as the cold tier below the
    /// LRU. Register every planner **first**: attaching re-validates each
    /// stored entry against the currently registered planners (replaying
    /// it through [`DeploymentPlan::from_artifact`]) and quarantines
    /// corrupt or mismatched files before the registry serves its first
    /// hit. Once attached, workers consult the registry on every cache
    /// miss before lingering or solving and write every fresh solve
    /// through.
    ///
    /// # Errors
    ///
    /// [`RegistryError::Io`] when the registry directory cannot be
    /// scanned; individual bad entries are quarantined, not errors.
    pub fn attach_registry(&mut self, registry: PlanRegistry) -> Result<(), RegistryError> {
        registry.revalidate(&self.planners)?;
        self.registry = Some(registry);
        Ok(())
    }

    /// The attached registry, if any.
    pub fn registry(&self) -> Option<&PlanRegistry> {
        self.registry.as_ref()
    }

    /// The service's configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Runs the worker pool for the duration of `f`: workers spawn on a
    /// `std::thread::scope`, `f` receives `&self` to submit against (from
    /// as many threads as it likes), and on return the service **drains**
    /// — no new admissions, every queued request is still answered — and
    /// joins its workers before handing back `f`'s result.
    ///
    /// # Panics
    ///
    /// Panics when called re-entrantly (the service is already serving),
    /// or if a worker thread panics.
    pub fn run<R: Send>(&self, f: impl FnOnce(&Self) -> R + Send) -> R {
        {
            let mut queue = lock(&self.queue);
            assert!(!queue.serving, "PlanService::run is not re-entrant");
            queue.serving = true;
            queue.draining = false;
        }
        self.draining_hint.store(false, Ordering::Release);
        self.serving_hint.store(true, Ordering::Release);
        lock(&self.timing).current = Some(Instant::now());
        let _stop_serving = StopServingOnDrop(self);
        // Sized once per serving scope: `available_parallelism` re-reads
        // procfs and cgroup files on every call.
        let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
        let workers = match self.config.workers {
            0 => parallelism,
            n => n,
        }
        .max(1);
        // Each worker gets its share of the machine for the swept path's
        // extraction striping; the workers themselves already provide
        // batch-level parallelism, so this avoids oversubscription.
        let sweep_threads = (parallelism / workers).max(1);
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| self.worker_loop(sweep_threads));
            }
            // The guard drains on unwind too: a panic in `f` must still
            // release the workers or the scope's join would deadlock.
            let drain = DrainOnDrop(self);
            let out = f(self);
            drop(drain);
            out
        })
    }

    /// Submits a request; never blocks. On success the returned ticket
    /// will be fulfilled by a worker (or was already fulfilled from the
    /// cache). Identical in-flight requests are deduplicated: only a
    /// cache-miss *leader* occupies a queue slot, so backpressure applies
    /// to distinct work, not to raw request volume.
    ///
    /// # Errors
    ///
    /// [`ServiceError::UnknownPlanner`] for a foreign key;
    /// [`ServiceError::NotServing`] outside [`PlanService::run`] or
    /// after the drain began; [`ServiceError::Plan`] for requests that
    /// fail validation/canonicalization; [`ServiceError::QueueFull`]
    /// when the bounded queue cannot admit a new leader.
    pub fn submit(
        &self,
        key: PlannerKey,
        request: &PlanRequest,
    ) -> Result<PlanTicket, ServiceError> {
        self.submit_keyed(key, request).map(|(ticket, _)| ticket)
    }

    /// [`PlanService::submit`] plus the request's canonical cache
    /// identity — the [`PlanKey`] the receipt fingerprints.
    fn submit_keyed(
        &self,
        key: PlannerKey,
        request: &PlanRequest,
    ) -> Result<(PlanTicket, PlanKey), ServiceError> {
        let Some(planner) = self.planners.get(key.0) else {
            self.counters.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(ServiceError::UnknownPlanner { key: key.0 });
        };
        let canonical =
            canonicalize(planner, request, self.config.qos_quantum_secs).map_err(|e| {
                self.counters.rejected.fetch_add(1, Ordering::Relaxed);
                ServiceError::Plan(e)
            })?;

        // Fast path: completed hits are answered inline, without the
        // queue mutex, a ticket allocation, or a worker handoff — the
        // result rides back on the submitting thread's stack and
        // hot-key traffic contends only on the cache shards. The hints
        // are a conservative snapshot — a stale `true` can at most
        // serve one more hit while the drain begins (harmless: no queue
        // slot, the request is already answered); when stale-`false`,
        // the locked path below re-checks authoritatively.
        if self.serving_hint.load(Ordering::Acquire) && !self.draining_hint.load(Ordering::Acquire)
        {
            if let Some(served) = self.cache.get(canonical.key) {
                self.counters.submitted.fetch_add(1, Ordering::Relaxed);
                self.counters.inline_hits.fetch_add(1, Ordering::Relaxed);
                self.counters
                    .bytes_served
                    .fetch_add(served.bytes().len() as u64, Ordering::Relaxed);
                self.counters.completed.fetch_add(1, Ordering::Relaxed);
                return Ok((
                    PlanTicket {
                        state: TicketState::Ready(
                            Ok(served),
                            PathStamp::instant(ServePath::InlineHit),
                        ),
                    },
                    canonical.key,
                ));
            }
        }

        let ticket = TicketInner::new();
        // For misses, the cache lookup happens under the queue lock:
        // admission and leadership are decided together, so a leader
        // that cannot be queued rolls its flight back immediately.
        let mut queue = lock(&self.queue);
        if !queue.serving || queue.draining {
            drop(queue);
            self.counters.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(ServiceError::NotServing);
        }
        match self.cache.lookup_or_join(canonical.key, ticket.clone()) {
            Lookup::Hit(served, waiter) => {
                drop(queue);
                self.counters.submitted.fetch_add(1, Ordering::Relaxed);
                self.fulfill(
                    &waiter,
                    &Ok(served),
                    PathStamp::instant(ServePath::CacheHit),
                );
                Ok((
                    PlanTicket {
                        state: TicketState::Pending(ticket),
                    },
                    canonical.key,
                ))
            }
            Lookup::Joined => {
                drop(queue);
                self.counters.submitted.fetch_add(1, Ordering::Relaxed);
                Ok((
                    PlanTicket {
                        state: TicketState::Pending(ticket),
                    },
                    canonical.key,
                ))
            }
            Lookup::Lead(waiter) => {
                if queue.items.len() >= self.config.queue_capacity {
                    drop(queue);
                    // The queue lock is released, so a concurrent submit
                    // may join the doomed flight before `abort` removes
                    // it; those stray waiters are failed here (their
                    // misses were counted, so completing them with the
                    // error keeps hits + misses == admitted; `abort`
                    // un-counts only the lead's own lookup).
                    let full = Err(ServiceError::QueueFull {
                        capacity: self.config.queue_capacity,
                    });
                    for stray in self.cache.abort(canonical.key) {
                        self.fulfill(&stray, &full, PathStamp::instant(ServePath::FlightJoin));
                    }
                    self.counters.rejected.fetch_add(1, Ordering::Relaxed);
                    return Err(ServiceError::QueueFull {
                        capacity: self.config.queue_capacity,
                    });
                }
                queue.items.push_back(Pending {
                    planner: key.0,
                    group: canonical.group,
                    key: canonical.key,
                    window_secs: canonical.window_secs,
                    ticket: waiter,
                });
                queue.max_depth = queue.max_depth.max(queue.items.len());
                drop(queue);
                self.counters.submitted.fetch_add(1, Ordering::Relaxed);
                self.counters.enqueued.fetch_add(1, Ordering::Relaxed);
                // notify_all, not notify_one: a worker lingering for
                // same-group stragglers also sleeps on this condvar, and
                // a single wakeup aimed at an idle worker could be
                // swallowed by a lingerer that takes nothing from the
                // queue, stalling a different-group request.
                self.arrived.notify_all();
                Ok((
                    PlanTicket {
                        state: TicketState::Pending(ticket),
                    },
                    canonical.key,
                ))
            }
        }
    }

    /// Fulfills one ticket and keeps the completion counters exact:
    /// every fulfillment counts `completed`, errors count `failed`, and
    /// successes accumulate their shared payload into `bytes_served`.
    /// The `stamp` records *how* the ticket was answered, for receipts.
    fn fulfill(
        &self,
        ticket: &TicketInner,
        result: &Result<ServedPlan, ServiceError>,
        stamp: PathStamp,
    ) {
        ticket.fulfill(result.clone(), stamp);
        self.counters.completed.fetch_add(1, Ordering::Relaxed);
        match result {
            Ok(served) => {
                self.counters
                    .bytes_served
                    .fetch_add(served.bytes().len() as u64, Ordering::Relaxed);
            }
            Err(_) => {
                self.counters.failed.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Submit and wait: the blocking convenience for callers that want
    /// the plan inline.
    ///
    /// # Errors
    ///
    /// Same conditions as [`PlanService::submit`], plus the request's own
    /// planning error.
    pub fn plan(
        &self,
        key: PlannerKey,
        request: &PlanRequest,
    ) -> Result<Arc<DeploymentPlan>, ServiceError> {
        self.submit(key, request)?.wait()
    }

    /// Like [`PlanService::plan`], but returns the plan paired with its
    /// canonical artifact serialization ([`ServedPlan`]): the
    /// zero-serialization handle — cache hits hand back the bytes
    /// rendered once at insert, never a fresh serialization.
    ///
    /// # Errors
    ///
    /// Same conditions as [`PlanService::plan`].
    pub fn plan_served(
        &self,
        key: PlannerKey,
        request: &PlanRequest,
    ) -> Result<ServedPlan, ServiceError> {
        self.submit(key, request)?.wait_served()
    }

    /// Like [`PlanService::plan_served`], but pairs the answer with its
    /// audit [`Receipt`]: the request's full canonical identity, the
    /// serving path that answered it, the FNV-1a hash of the exact bytes
    /// served, and per-stage timing. Also records the request's
    /// end-to-end latency on the path's histogram lane
    /// ([`ServiceStats::paths`]). The receipt's `plan_hash` is a
    /// bit-identity pin: for a given key it must agree across paths,
    /// restarts and machines.
    ///
    /// # Errors
    ///
    /// Same conditions as [`PlanService::plan_served`] (failed requests
    /// produce no receipt).
    pub fn plan_receipted(
        &self,
        key: PlannerKey,
        request: &PlanRequest,
    ) -> Result<(ServedPlan, Receipt), ServiceError> {
        let start = obs::monotonic_nanos();
        let (ticket, plan_key) = self.submit_keyed(key, request)?;
        let (result, stamp) = ticket.wait_stamped();
        let served = result?;
        let total_nanos = obs::monotonic_nanos().saturating_sub(start);
        self.paths.record(stamp.path, total_nanos);
        let receipt = Receipt {
            key: plan_key,
            path: stamp.path,
            solver: crate::registry::solver_tag(plan_key.solver),
            artifact_schema_version: crate::artifact::PLAN_ARTIFACT_SCHEMA_VERSION,
            plan_hash: served.bytes_hash(),
            solve_nanos: stamp.solve_nanos,
            total_nanos,
        };
        Ok((served, receipt))
    }

    /// A point-in-time counters snapshot.
    pub fn stats(&self) -> ServiceStats {
        let registry = self
            .registry
            .as_ref()
            .map(|r| r.stats())
            .unwrap_or_default();
        let (queue_depth, max_queue_depth) = {
            let queue = lock(&self.queue);
            (queue.items.len() as u64, queue.max_depth as u64)
        };
        let elapsed = {
            let timing = lock(&self.timing);
            timing.accumulated
                + timing
                    .current
                    .map(|started| started.elapsed())
                    .unwrap_or_default()
        };
        ServiceStats {
            submitted: self.counters.submitted.load(Ordering::Relaxed),
            completed: self.counters.completed.load(Ordering::Relaxed),
            rejected: self.counters.rejected.load(Ordering::Relaxed),
            failed: self.counters.failed.load(Ordering::Relaxed),
            batches: self.counters.batches.load(Ordering::Relaxed),
            batched_requests: self.counters.batched_requests.load(Ordering::Relaxed),
            max_batch: self.counters.max_batch.load(Ordering::Relaxed),
            inline_hits: self.counters.inline_hits.load(Ordering::Relaxed),
            bytes_served: self.counters.bytes_served.load(Ordering::Relaxed),
            enqueued: self.counters.enqueued.load(Ordering::Relaxed),
            queue_depth,
            max_queue_depth,
            elapsed_secs: elapsed.as_secs_f64(),
            registry_hits: registry.hits,
            registry_writes: registry.writes,
            quarantined: registry.quarantined,
            cache: self.cache.stats(),
            paths: self.paths.snapshot(),
        }
    }

    fn worker_loop(&self, sweep_threads: usize) {
        while let Some(batch) = self.next_batch() {
            self.solve(batch, sweep_threads);
        }
    }

    /// Claims the next solve batch: the oldest queued leader plus every
    /// queued leader of the same group, bounded by `max_batch`, taken
    /// together under the queue lock so no other worker can split the
    /// group. With a registry attached, the claimed leaders are then
    /// looked up on disk *outside* the lock and hits are published at
    /// once; if every leader hit, the worker returns to the queue
    /// without lingering. Only a batch that still has to be solved waits
    /// (a non-zero `batch_linger`) for same-group stragglers, which are
    /// looked up in turn. Every leader of the returned batch has
    /// therefore missed the registry exactly once. Returns `None` when
    /// the queue is drained and the worker should exit.
    fn next_batch(&self) -> Option<Vec<Pending>> {
        loop {
            let mut queue = lock(&self.queue);
            let first = loop {
                if let Some(pending) = queue.items.pop_front() {
                    break pending;
                }
                if queue.draining {
                    return None;
                }
                queue = wait(&self.arrived, queue);
            };
            let group = first.group;
            let mut batch = vec![first];
            Self::extract_group(&mut queue.items, group, self.config.max_batch, &mut batch);
            if self.registry.is_some() {
                drop(queue);
                self.serve_registry_hits(&mut batch);
                if batch.is_empty() {
                    continue;
                }
                queue = lock(&self.queue);
            }
            let looked_up = batch.len();
            self.linger(queue, group, &mut batch);
            let mut stragglers = batch.split_off(looked_up);
            self.serve_registry_hits(&mut stragglers);
            batch.append(&mut stragglers);
            return Some(batch);
        }
    }

    /// With a non-zero `batch_linger`, waits up to that long for
    /// same-group stragglers, moving them into `batch` as they arrive
    /// (up to `max_batch`); consumes the queue guard.
    fn linger(&self, mut queue: RankedGuard<'_, Queue>, group: GroupKey, batch: &mut Vec<Pending>) {
        if self.config.batch_linger.is_zero() {
            return;
        }
        let deadline = Instant::now() + self.config.batch_linger;
        while batch.len() < self.config.max_batch && !queue.draining {
            let Some(remaining) = deadline
                .checked_duration_since(Instant::now())
                .filter(|d| !d.is_zero())
            else {
                break;
            };
            let (guard, timeout) = wait_timeout(&self.arrived, queue, remaining);
            queue = guard;
            Self::extract_group(&mut queue.items, group, self.config.max_batch, batch);
            if timeout.timed_out() {
                break;
            }
        }
    }

    /// Looks every leader of `batch` up in the attached registry (a
    /// no-op without one) and publishes the hits — the leader stamped
    /// [`ServePath::RegistryHit`], since it paid for the disk load, and
    /// its joiners [`ServePath::FlightJoin`] — leaving only the misses in
    /// `batch`. Hits never count toward the batch counters: `batches`
    /// counts *solves*. Must be called without the queue lock held.
    fn serve_registry_hits(&self, batch: &mut Vec<Pending>) {
        let Some(registry) = &self.registry else {
            return;
        };
        batch.retain(|pending| {
            let planner = &self.planners[pending.planner];
            let Some(served) = registry.load(pending.key, planner) else {
                return true;
            };
            let waiters = self.cache.complete(pending.key, Some(served.clone()));
            let outcome = Ok(served);
            self.fulfill(
                &pending.ticket,
                &outcome,
                PathStamp::instant(ServePath::RegistryHit),
            );
            for ticket in waiters {
                self.fulfill(&ticket, &outcome, PathStamp::instant(ServePath::FlightJoin));
            }
            false
        });
    }

    /// Moves queued requests matching `group` into `batch` (up to `cap`
    /// total), preserving the relative order of everything left behind.
    fn extract_group(
        items: &mut VecDeque<Pending>,
        group: GroupKey,
        cap: usize,
        batch: &mut Vec<Pending>,
    ) {
        let mut i = 0;
        while i < items.len() && batch.len() < cap {
            if items[i].group == group {
                match items.remove(i) {
                    Some(pending) => batch.push(pending),
                    // `i < items.len()` makes this unreachable; an empty
                    // removal simply ends the scan rather than panicking
                    // a worker (panic hygiene: no unwrap/expect here).
                    None => break,
                }
            } else {
                i += 1;
            }
        }
    }

    /// Solves one coalesced batch and publishes every result: the cache
    /// is completed first (releasing joined waiters), then all tickets
    /// are fulfilled.
    ///
    /// Every leader has already missed the registry ([`Self::next_batch`]
    /// consults the cold tier before lingering), so the whole batch pays
    /// for the coalesced solve; with a registry attached its fresh plans
    /// are then written through to disk. `sweep_threads` is the swept
    /// path's extraction striping, sized once by [`PlanService::run`].
    fn solve(&self, batch: Vec<Pending>, sweep_threads: usize) {
        let planner = &self.planners[batch[0].planner];
        self.counters.batches.fetch_add(1, Ordering::Relaxed);
        self.counters
            .batched_requests
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        self.counters
            .max_batch
            .fetch_max(batch.len() as u64, Ordering::Relaxed);
        let group = batch[0].group;
        let windows: Vec<f64> = batch.iter().map(|p| p.window_secs).collect();
        // A panicking solve must still release the batch's tickets (and
        // any joined waiters) before the panic unwinds the worker —
        // otherwise a submitter blocked in `PlanTicket::wait` inside the
        // serving closure would deadlock the scope's join.
        let solve_start = obs::monotonic_nanos();
        let results = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            solve_batch(
                planner,
                group.solver,
                group.dp_resolution,
                &windows,
                sweep_threads,
            )
        }));
        let solve_nanos = obs::monotonic_nanos().saturating_sub(solve_start);
        // Leaders of a shared-grid solve are stamped with the batch they
        // rode in (each paid the whole shared solve, so each carries its
        // full duration); a singleton batch, and a sequence-DP batch that
        // was solved one request at a time, is a plain solve.
        let leader_stamp = PathStamp {
            path: if group.solver == Solver::ReserveGrid && batch.len() > 1 {
                ServePath::Coalesced {
                    batch: batch.len() as u32,
                }
            } else {
                ServePath::Solved
            },
            solve_nanos,
        };
        let results = match results {
            Ok(results) => results,
            Err(payload) => {
                let panicked = Err(ServiceError::WorkerPanicked);
                for pending in batch {
                    let waiters = self.cache.complete(pending.key, None);
                    self.fulfill(&pending.ticket, &panicked, leader_stamp);
                    for ticket in waiters {
                        self.fulfill(
                            &ticket,
                            &panicked,
                            PathStamp::instant(ServePath::FlightJoin),
                        );
                    }
                }
                std::panic::resume_unwind(payload);
            }
        };
        for (pending, result) in batch.into_iter().zip(results) {
            let outcome: Result<ServedPlan, ServiceError> = match result {
                Ok(plan) => {
                    // The one serialization this plan will ever get: the
                    // rendered JSON becomes the registry entry's embedded
                    // artifact *and* the cached response bytes, so disk,
                    // LRU and the wire all serve the same bytes.
                    let plan = Arc::new(plan);
                    let artifact_json = plan.to_artifact(planner).to_json();
                    if let Some(registry) = &self.registry {
                        // Write-through: a failed store is advisory (the
                        // plan is still served from memory);
                        // `registry_writes` counts successes only, so the
                        // cold-tier invariant
                        // `inserted == registry_hits + registry_writes`
                        // can lag by exactly the failed stores, never
                        // silently drift.
                        let _ = registry.store_json(pending.key, &artifact_json);
                    }
                    let bytes: Arc<[u8]> = artifact_json.into_bytes().into();
                    Ok(ServedPlan::new(plan, bytes))
                }
                Err(e) => Err(ServiceError::Plan(e)),
            };
            let waiters = self
                .cache
                .complete(pending.key, outcome.as_ref().ok().cloned());
            self.fulfill(&pending.ticket, &outcome, leader_stamp);
            for ticket in waiters {
                self.fulfill(&ticket, &outcome, PathStamp::instant(ServePath::FlightJoin));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dse::DseConfig;
    use tinynn::models::vww_sized;

    fn small_planner() -> Arc<Planner> {
        Arc::new(Planner::new(&vww_sized(32), &DseConfig::paper()).expect("planner builds"))
    }

    fn two_workers() -> ServiceConfig {
        ServiceConfig::default().with_workers(2)
    }

    #[test]
    fn submit_outside_run_is_not_serving() {
        let mut service = PlanService::new(ServiceConfig::default()).unwrap();
        let key = service.register(small_planner());
        assert_eq!(
            service.submit(key, &PlanRequest::slack(0.3)).unwrap_err(),
            ServiceError::NotServing
        );
        assert_eq!(service.stats().rejected, 1);
        assert_eq!(service.stats().submitted, 0);
    }

    #[test]
    fn foreign_keys_and_invalid_requests_are_rejected_before_admission() {
        let mut service = PlanService::new(ServiceConfig::default()).unwrap();
        let key = service.register(small_planner());
        service.run(|svc| {
            assert_eq!(
                svc.submit(PlannerKey(7), &PlanRequest::slack(0.3))
                    .unwrap_err(),
                ServiceError::UnknownPlanner { key: 7 }
            );
            assert!(matches!(
                svc.submit(key, &PlanRequest::qos(f64::NAN)).unwrap_err(),
                ServiceError::Plan(DaeDvfsError::InvalidRequest { .. })
            ));
        });
        let stats = service.stats();
        assert_eq!(stats.rejected, 2);
        assert_eq!(stats.submitted, 0);
        assert_eq!(stats.cache.lookups(), 0);
    }

    #[test]
    fn queue_full_is_typed_backpressure_and_rolls_the_flight_back() {
        let mut service =
            PlanService::new(ServiceConfig::default().with_queue_capacity(1)).unwrap();
        let key = service.register(small_planner());
        // Mark the service as serving without spawning workers, so queued
        // leaders stay queued and the capacity bound is observable.
        lock(&service.queue).serving = true;
        let first = service.submit(key, &PlanRequest::slack(0.3)).unwrap();
        assert!(!first.ready());
        // A duplicate joins the in-flight leader: no queue slot needed.
        let joined = service.submit(key, &PlanRequest::slack(0.3)).unwrap();
        assert!(!joined.ready());
        // A distinct request needs a slot and the queue is full.
        assert_eq!(
            service.submit(key, &PlanRequest::slack(0.5)).unwrap_err(),
            ServiceError::QueueFull { capacity: 1 }
        );
        let stats = service.stats();
        assert_eq!(stats.submitted, 2);
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.queue_depth, 1);
        // The aborted leader's lookup was rolled back: accounting stays
        // hits + misses == submitted.
        assert_eq!(stats.cache.lookups(), 2);
        // The rejected window can be admitted once capacity frees up; a
        // fresh leader is nominated (no stale flight left behind).
        lock(&service.queue).items.clear();
        let retried = service.submit(key, &PlanRequest::slack(0.5)).unwrap();
        assert!(!retried.ready());
        lock(&service.queue).serving = false;
    }

    #[test]
    fn duplicate_requests_compute_once_and_share_the_plan() {
        let mut service = PlanService::new(two_workers()).unwrap();
        let key = service.register(small_planner());
        let request = PlanRequest::slack(0.3);
        let plans = service.run(|svc| {
            let tickets: Vec<_> = (0..6)
                .map(|_| svc.submit(key, &request).expect("admitted"))
                .collect();
            tickets
                .into_iter()
                .map(|t| t.wait().expect("planned"))
                .collect::<Vec<_>>()
        });
        for plan in &plans {
            assert_eq!(&**plan, &*plans[0]);
        }
        let stats = service.stats();
        assert_eq!(stats.submitted, 6);
        assert_eq!(stats.completed, 6);
        assert_eq!(stats.cache.lookups(), 6);
        // Exactly one solve: everything else hit the cache or joined the
        // in-flight leader.
        assert_eq!(stats.cache.inserted, 1);
        assert_eq!(stats.cache.hits + stats.cache.misses, 6);
        assert_eq!(stats.failed, 0);
    }

    #[test]
    fn slack_and_equivalent_window_share_one_cache_entry() {
        let mut service = PlanService::new(two_workers()).unwrap();
        let planner = small_planner();
        let baseline = planner.baseline_latency().unwrap();
        let key = service.register(planner);
        let window = tinyengine::qos_window(baseline, 0.3);
        service.run(|svc| {
            let a = svc.plan(key, &PlanRequest::slack(0.3)).unwrap();
            let b = svc.plan(key, &PlanRequest::qos(window)).unwrap();
            assert_eq!(&*a, &*b);
        });
        let stats = service.stats();
        assert_eq!(stats.cache.inserted, 1);
        assert_eq!(stats.cache.hits, 1);
    }

    #[test]
    fn equal_fingerprint_planners_share_the_cache() {
        let mut service = PlanService::new(two_workers()).unwrap();
        let key_a = service.register(small_planner());
        let key_b = service.register(small_planner());
        service.run(|svc| {
            let a = svc.plan(key_a, &PlanRequest::slack(0.3)).unwrap();
            let b = svc.plan(key_b, &PlanRequest::slack(0.3)).unwrap();
            assert_eq!(&*a, &*b);
        });
        let stats = service.stats();
        assert_eq!(stats.cache.inserted, 1);
        assert_eq!(stats.cache.hits, 1);
    }

    #[test]
    fn quantized_windows_coalesce_onto_one_entry_and_stay_feasible() {
        let quantum = 1e-4;
        let mut service = PlanService::new(two_workers().with_qos_quantum_secs(quantum)).unwrap();
        let planner = small_planner();
        let baseline = planner.baseline_latency().unwrap();
        let key = service.register(planner);
        // Anchor mid-quantum so the jitter cannot straddle a boundary.
        let base =
            (tinyengine::qos_window(baseline, 0.4) / quantum).floor() * quantum + quantum / 2.0;
        let jittered: Vec<f64> = (0..4).map(|i| base + i as f64 * 1e-6).collect();
        let plans = service.run(|svc| {
            jittered
                .iter()
                .map(|&w| svc.plan(key, &PlanRequest::qos(w)).unwrap())
                .collect::<Vec<_>>()
        });
        for (plan, &requested) in plans.iter().zip(&jittered) {
            // The canonical window never exceeds the requested one, so
            // the shared plan is feasible for every jittered request.
            assert!(plan.qos_secs <= requested);
            assert!(plan.predicted_latency_secs <= requested);
            assert_eq!(&**plan, &*plans[0]);
        }
        assert_eq!(service.stats().cache.inserted, 1);
    }

    #[test]
    fn infeasible_requests_fail_typed_and_are_not_cached() {
        let mut service = PlanService::new(two_workers()).unwrap();
        let key = service.register(small_planner());
        service.run(|svc| {
            for _ in 0..2 {
                let err = svc.plan(key, &PlanRequest::qos(1e-9)).unwrap_err();
                assert!(matches!(err, ServiceError::Plan(DaeDvfsError::Qos(_))));
            }
        });
        let stats = service.stats();
        assert_eq!(stats.failed, 2);
        assert_eq!(stats.completed, 2);
        // Failures are never cached: both requests missed.
        assert_eq!(stats.cache.inserted, 0);
        assert_eq!(stats.cache.hits, 0);
    }

    #[test]
    fn swept_mode_coalesces_a_burst_into_few_batches() {
        let mut service = PlanService::new(
            ServiceConfig::default()
                .with_workers(1)
                .with_batch_linger(Duration::from_millis(20)),
        )
        .unwrap();
        let planner = small_planner();
        let baseline = planner.baseline_latency().unwrap();
        let key = service.register(planner.clone());
        let windows: Vec<f64> = (0..6)
            .map(|i| tinyengine::qos_window(baseline, 0.15 + 0.1 * i as f64))
            .collect();
        let plans = service.run(|svc| {
            let tickets: Vec<_> = windows
                .iter()
                .map(|&w| svc.submit(key, &PlanRequest::qos(w)).expect("admitted"))
                .collect();
            tickets
                .into_iter()
                .map(|t| t.wait().expect("planned"))
                .collect::<Vec<_>>()
        });
        // Batch-invariance: each coalesced answer equals its singleton
        // sweep, bit for bit.
        for (plan, &w) in plans.iter().zip(&windows) {
            let solo = planner.sweep([w]).unwrap().remove(0);
            assert_eq!(&**plan, &solo);
        }
        let stats = service.stats();
        assert!(stats.batches < 6, "burst was not coalesced: {stats:?}");
        assert!(stats.max_batch >= 2);
        assert_eq!(stats.batched_requests, 6);
    }

    #[test]
    fn sequence_dp_batches_are_stamped_as_plain_solves() {
        // One worker lingering long enough to catch both leaders in one
        // batch: the batch is answered one request at a time, so neither
        // leader may claim a shared-grid solve.
        let mut service = PlanService::new(
            ServiceConfig::default()
                .with_workers(1)
                .with_batch_linger(Duration::from_millis(50)),
        )
        .unwrap();
        let key = service.register(small_planner());
        let paths = service.run(|svc| {
            let tickets = [0.3, 0.5].map(|slack| {
                let request = PlanRequest::slack(slack).with_solver(Solver::SequenceDp);
                svc.submit(key, &request).expect("admitted")
            });
            tickets.map(|ticket| {
                let (result, stamp) = ticket.wait_stamped();
                result.expect("planned");
                stamp.path
            })
        });
        let stats = service.stats();
        assert_eq!(stats.batches, 1, "both leaders rode one batch: {stats:?}");
        assert_eq!(paths, [ServePath::Solved, ServePath::Solved]);
    }

    #[test]
    fn run_drains_every_admitted_ticket() {
        let mut service = PlanService::new(two_workers()).unwrap();
        let key = service.register(small_planner());
        let tickets = service.run(|svc| {
            (0..4)
                .map(|i| {
                    svc.submit(key, &PlanRequest::slack(0.2 + 0.1 * i as f64))
                        .expect("admitted")
                })
                .collect::<Vec<_>>()
        });
        // `run` returned: the drain has fulfilled every ticket already.
        for ticket in &tickets {
            assert!(ticket.ready());
        }
        for ticket in tickets {
            ticket.wait().expect("planned during drain");
        }
        assert_eq!(service.stats().completed, 4);
        // And submissions after the scope are rejected again.
        assert_eq!(
            service.submit(key, &PlanRequest::slack(0.3)).unwrap_err(),
            ServiceError::NotServing
        );
    }

    #[test]
    fn panicking_serving_closure_drains_and_leaves_the_service_reusable() {
        let mut service = PlanService::new(two_workers()).unwrap();
        let key = service.register(small_planner());
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            service.run(|svc| {
                svc.plan(key, &PlanRequest::slack(0.3)).unwrap();
                panic!("serving closure exploded");
            })
        }));
        // The panic propagated (no deadlock on the worker join) and the
        // service stopped cleanly.
        assert!(unwound.is_err());
        assert_eq!(
            service.submit(key, &PlanRequest::slack(0.3)).unwrap_err(),
            ServiceError::NotServing
        );
        // A later run serves again (and hits the still-warm cache).
        let plan = service
            .run(|svc| svc.plan(key, &PlanRequest::slack(0.3)))
            .unwrap();
        assert!(plan.predicted_latency_secs <= plan.qos_secs);
        assert_eq!(service.stats().cache.hits, 1);
    }

    #[test]
    fn hit_fast_path_counts_like_the_locked_path() {
        let mut service = PlanService::new(two_workers()).unwrap();
        let key = service.register(small_planner());
        let served = service.run(|svc| {
            svc.plan(key, &PlanRequest::slack(0.3)).unwrap();
            for _ in 0..4 {
                svc.plan(key, &PlanRequest::slack(0.3)).unwrap();
            }
            svc.plan_served(key, &PlanRequest::slack(0.3)).unwrap()
        });
        let stats = service.stats();
        assert_eq!(stats.submitted, 6);
        assert_eq!(stats.completed, 6);
        assert_eq!(stats.cache.hits, 5);
        assert_eq!(stats.cache.misses, 1);
        // All five hits were answered inline: no ticket, no queue slot.
        assert_eq!(stats.inline_hits, 5);
        assert!(stats.inline_hits <= stats.cache.hits);
        assert_eq!(stats.enqueued, 1);
        assert!((stats.inline_hit_rate() - 5.0 / 6.0).abs() < 1e-12);
        // Every fulfillment accumulated the same shared payload.
        assert_eq!(stats.bytes_served, 6 * served.bytes().len() as u64);
    }

    #[test]
    fn locked_path_hit_serves_the_same_bytes_without_an_inline_count() {
        let mut service = PlanService::new(two_workers()).unwrap();
        let planner = small_planner();
        let key = service.register(planner.clone());
        // Warm the cache with one solve.
        let warm = service
            .run(|svc| svc.plan_served(key, &PlanRequest::slack(0.3)))
            .unwrap();
        // Mark the queue as serving without raising the lock-free hints:
        // the fast path is skipped and the hit happens under the queue
        // lock (the startup-race path).
        {
            let mut queue = lock(&service.queue);
            queue.serving = true;
            queue.draining = false;
        }
        let served = service
            .submit(key, &PlanRequest::slack(0.3))
            .unwrap()
            .wait_served()
            .unwrap();
        lock(&service.queue).serving = false;
        assert_eq!(served.bytes(), warm.bytes());
        // Byte-identical to a fresh serialization of the same plan.
        assert_eq!(
            &**served.bytes(),
            served.plan().to_artifact(&planner).to_json().as_bytes()
        );
        let stats = service.stats();
        assert_eq!(stats.cache.hits, 1);
        assert_eq!(stats.inline_hits, 0, "locked-path hits are not inline");
        assert_eq!(stats.completed, 2);
    }

    #[test]
    fn stats_snapshot_reports_throughput_and_batches() {
        let stats = ServiceStats {
            submitted: 10,
            completed: 10,
            rejected: 1,
            failed: 0,
            batches: 2,
            batched_requests: 6,
            max_batch: 4,
            inline_hits: 7,
            bytes_served: 0,
            enqueued: 3,
            queue_depth: 0,
            max_queue_depth: 5,
            elapsed_secs: 2.0,
            registry_hits: 0,
            registry_writes: 0,
            quarantined: 0,
            cache: CacheStats::default(),
            paths: obs::PathStats::empty(),
        };
        assert!((stats.throughput_rps() - 5.0).abs() < 1e-12);
        assert!((stats.mean_batch() - 3.0).abs() < 1e-12);
        assert!((stats.inline_hit_rate() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn receipts_stamp_the_serving_path_and_pin_the_served_bytes() {
        let mut service = PlanService::new(two_workers()).unwrap();
        let key = service.register(small_planner());
        let (cold, warm) = service.run(|svc| {
            let cold = svc.plan_receipted(key, &PlanRequest::slack(0.3)).unwrap();
            let warm = svc.plan_receipted(key, &PlanRequest::slack(0.3)).unwrap();
            (cold, warm)
        });
        let (cold_served, cold_receipt) = cold;
        let (warm_served, warm_receipt) = warm;
        assert_eq!(cold_receipt.path, ServePath::Solved);
        assert_eq!(warm_receipt.path, ServePath::InlineHit);
        // Same key, same bytes, same hash — across different paths.
        assert_eq!(cold_receipt.key, warm_receipt.key);
        assert_eq!(cold_receipt.plan_hash, warm_receipt.plan_hash);
        assert_eq!(cold_served.bytes(), warm_served.bytes());
        assert_eq!(cold_receipt.plan_hash, obs::plan_hash(cold_served.bytes()));
        assert_eq!(cold_receipt.solver, "reserve-grid");
        assert_eq!(
            cold_receipt.artifact_schema_version,
            crate::artifact::PLAN_ARTIFACT_SCHEMA_VERSION
        );
        // The solve stage was timed for the leader, not for the hit.
        assert_eq!(warm_receipt.solve_nanos, 0);
        // Both requests landed on their path's histogram lane.
        let stats = service.stats();
        assert_eq!(stats.paths.histograms[ServePath::Solved.index()].count(), 1);
        assert_eq!(
            stats.paths.histograms[ServePath::InlineHit.index()].count(),
            1
        );
        assert_eq!(stats.paths.total_count(), 2);
    }

    fn fresh_registry_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("dae-dvfs-front-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Solves `windows` once through a registry-backed service, so the
    /// registry at `dir` holds each of them on return.
    fn populate_registry(dir: &std::path::Path, planner: &Arc<Planner>, windows: &[f64]) {
        let mut service = PlanService::new(ServiceConfig::default().with_workers(1)).unwrap();
        let key = service.register(planner.clone());
        service
            .attach_registry(PlanRegistry::open(dir).unwrap())
            .unwrap();
        service.run(|svc| {
            for &w in windows {
                svc.plan(key, &PlanRequest::qos(w)).expect("planned");
            }
        });
        assert_eq!(service.stats().registry_writes, windows.len() as u64);
    }

    #[test]
    fn registry_hits_do_not_wait_for_the_batch_linger() {
        let dir = fresh_registry_dir("no-linger");
        let planner = small_planner();
        let window = tinyengine::qos_window(planner.baseline_latency().unwrap(), 0.3);
        populate_registry(&dir, &planner, &[window]);

        let linger = Duration::from_millis(200);
        let mut service = PlanService::new(
            ServiceConfig::default()
                .with_workers(1)
                .with_batch_linger(linger),
        )
        .unwrap();
        let key = service.register(planner);
        service
            .attach_registry(PlanRegistry::open(&dir).unwrap())
            .unwrap();
        let (_, receipt) = service
            .run(|svc| svc.plan_receipted(key, &PlanRequest::qos(window)))
            .unwrap();
        assert_eq!(receipt.path, ServePath::RegistryHit);
        assert!(
            u128::from(receipt.total_nanos) < linger.as_nanos() / 2,
            "a registry hit sat out the linger: {} ns",
            receipt.total_nanos
        );
        let stats = service.stats();
        assert_eq!(stats.batches, 0);
        assert_eq!(stats.registry_hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_half_stored_burst_serves_hits_from_disk_and_coalesces_the_misses() {
        let dir = fresh_registry_dir("half-stored");
        let planner = small_planner();
        let baseline = planner.baseline_latency().unwrap();
        let windows: Vec<f64> = (0..8)
            .map(|i| tinyengine::qos_window(baseline, 0.15 + 0.1 * i as f64))
            .collect();
        let stored: Vec<f64> = windows.iter().copied().step_by(2).collect();
        populate_registry(&dir, &planner, &stored);

        let mut service = PlanService::new(
            ServiceConfig::default()
                .with_workers(1)
                .with_batch_linger(Duration::from_millis(20)),
        )
        .unwrap();
        let key = service.register(planner.clone());
        service
            .attach_registry(PlanRegistry::open(&dir).unwrap())
            .unwrap();
        let answers = service.run(|svc| {
            let tickets: Vec<_> = windows
                .iter()
                .map(|&w| svc.submit(key, &PlanRequest::qos(w)).expect("admitted"))
                .collect();
            tickets
                .into_iter()
                .map(|t| {
                    let (result, stamp) = t.wait_stamped();
                    (result.expect("planned"), stamp.path)
                })
                .collect::<Vec<_>>()
        });
        let misses = windows.len() - stored.len();
        for ((served, path), &w) in answers.iter().zip(&windows) {
            if stored.contains(&w) {
                assert_eq!(*path, ServePath::RegistryHit, "window {w}");
            } else {
                assert_ne!(*path, ServePath::RegistryHit, "window {w}");
            }
            // Disk hit or coalesced solve, every body equals the
            // singleton sweep's artifact, byte for byte.
            let solo = planner.sweep([w]).unwrap().remove(0);
            assert_eq!(&**served.plan(), &solo);
            assert_eq!(
                &**served.bytes(),
                solo.to_artifact(&planner).to_json().as_bytes()
            );
        }
        let stats = service.stats();
        assert!(
            stats.batches < misses as u64,
            "misses were not coalesced: {stats:?}"
        );
        assert_eq!(stats.batched_requests, misses as u64);
        assert_eq!(stats.registry_hits, stored.len() as u64);
        assert_eq!(stats.registry_writes, misses as u64);
        assert_eq!(
            stats.cache.inserted,
            stats.registry_hits + stats.registry_writes
        );
        assert_eq!(stats.quarantined, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
