//! The concurrent plan-serving subsystem: a fingerprint-keyed plan cache
//! plus request coalescing over shared-grid sweeps, behind a worker-pool
//! front end.
//!
//! The planning stack below this module is batch-friendly but
//! request-oblivious: a [`crate::Planner`] answers one
//! [`crate::PlanRequest`] at a time, and [`crate::Planner::sweep`]
//! answers many windows from one DP table — but something still has to
//! turn a *stream* of independent requests (many tenants, mixed models
//! and targets, skewed QoS distributions) into cache hits and coalesced
//! batch solves instead of N cold end-to-end plans. That is
//! [`PlanService`]:
//!
//! 1. **Plan cache** (`cache`): sharded, capacity-bounded LRU keyed by
//!    `(model_fingerprint, config_fingerprint, solver, canonical window,
//!    dp_resolution)` — the artifact-module FNV fingerprints, so two
//!    planners built from the same model/board share entries. Misses are
//!    **single-flight**: concurrent identical requests elect one leader;
//!    everyone else joins its in-flight entry and shares the one solve.
//! 2. **Request coalescer** (`coalesce`): queued leaders are grouped by
//!    `(model, config, solver, resolution)` and each reserve-grid group
//!    is answered with **one** shared-grid DP ([`crate::Planner::sweep`]'s
//!    engine) instead of per-request `plan()` calls, inside a bounded batching
//!    window (`max_batch` requests, optional `batch_linger` wait).
//!    Coalesced answers are *batch-invariant*: bit-identical to a
//!    singleton sweep of the same window, no matter what else was in the
//!    batch. Sequence-DP groups are answered one request at a time via
//!    [`crate::Planner::plan`], bit-identical to a serial call.
//!    With a registry attached ([`PlanService::attach_registry`]), the
//!    worker that claims a group looks its leaders up on disk *before*
//!    the batching window: registry hits are answered at once, and only
//!    the misses linger for stragglers and pay for the coalesced solve.
//! 3. **Front end** (`front`): a worker pool on `std::thread::scope`
//!    ([`PlanService::run`]), a bounded submission queue with typed
//!    backpressure ([`crate::ServiceError::QueueFull`]), graceful drain
//!    (every admitted ticket is answered before `run` returns), and a
//!    [`ServiceStats`] snapshot (throughput, hit rate, batch sizes,
//!    queue depth).
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use dae_dvfs::{PlanRequest, Planner, PlanService, ServiceConfig};
//! use tinynn::models::vww_sized;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let planner = Arc::new(Planner::new(&vww_sized(32), &Default::default())?);
//! let mut service = PlanService::new(ServiceConfig::default().with_workers(2))?;
//! let key = service.register(planner);
//! let (hot, cold) = service.run(|svc| {
//!     let hot = svc.plan(key, &PlanRequest::slack(0.3))?;
//!     // Identical request: answered from the cache, same shared plan.
//!     let again = svc.plan(key, &PlanRequest::slack(0.3))?;
//!     assert!(Arc::ptr_eq(&hot, &again));
//!     let cold = svc.plan(key, &PlanRequest::slack(0.5))?;
//!     Ok::<_, dae_dvfs::ServiceError>((hot, cold))
//! })?;
//! assert!(hot.predicted_latency_secs <= hot.qos_secs);
//! assert!(cold.predicted_latency_secs <= cold.qos_secs);
//! assert_eq!(service.stats().cache.hits, 1);
//! # Ok(())
//! # }
//! ```

use std::time::Duration;

use crate::error::DaeDvfsError;
use crate::request::validate_positive_time;

mod cache;
mod coalesce;
mod front;

pub use cache::{CacheStats, PlanKey, ServedPlan};
pub use front::{PlanService, PlanTicket, PlannerKey, ServiceStats};

/// Tuning knobs of a [`PlanService`]; start from `Default` and adjust
/// builder-style.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct ServiceConfig {
    /// Worker threads; `0` (the default) uses the machine's available
    /// parallelism.
    pub workers: usize,
    /// Bound of the submission queue (distinct in-flight leaders, not
    /// raw request volume); submissions past it are rejected with
    /// [`crate::ServiceError::QueueFull`].
    pub queue_capacity: usize,
    /// Completed plans retained across all cache shards (LRU past this).
    pub cache_capacity: usize,
    /// Independently locked cache shards.
    pub cache_shards: usize,
    /// Most leaders one coalesced batch may answer.
    pub max_batch: usize,
    /// How long a worker holding a non-full batch waits for same-group
    /// stragglers before solving (zero: solve immediately). The linger
    /// delays solves only: registry hits are answered before it and
    /// never wait.
    pub batch_linger: Duration,
    /// QoS windows are snapped *down* onto this grid before keying the
    /// cache, so jittered near-identical deadlines share one entry; the
    /// snapped window never exceeds the requested one, so shared plans
    /// stay feasible for every caller. Zero (the default) keys exact
    /// windows.
    pub qos_quantum_secs: f64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 0,
            queue_capacity: 1024,
            cache_capacity: 4096,
            cache_shards: 16,
            max_batch: 64,
            batch_linger: Duration::ZERO,
            qos_quantum_secs: 0.0,
        }
    }
}

impl ServiceConfig {
    /// Replaces the worker-thread count (builder style; `0` = available
    /// parallelism).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Replaces the submission-queue bound (builder style).
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Replaces the plan-cache capacity (builder style).
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        self.cache_capacity = capacity;
        self
    }

    /// Replaces the cache shard count (builder style).
    pub fn with_cache_shards(mut self, shards: usize) -> Self {
        self.cache_shards = shards;
        self
    }

    /// Replaces the batch-size bound (builder style).
    pub fn with_max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch;
        self
    }

    /// Replaces the batching linger window (builder style).
    pub fn with_batch_linger(mut self, linger: Duration) -> Self {
        self.batch_linger = linger;
        self
    }

    /// Replaces the cache-key QoS quantum (builder style; `0` disables
    /// quantization).
    pub fn with_qos_quantum_secs(mut self, quantum_secs: f64) -> Self {
        self.qos_quantum_secs = quantum_secs;
        self
    }

    /// Checks every knob for degenerate values.
    ///
    /// # Errors
    ///
    /// [`DaeDvfsError::InvalidRequest`] naming the offending field for a
    /// zero queue/cache/shard/batch bound, or a non-finite / negative
    /// QoS quantum.
    pub fn validate(&self) -> Result<(), DaeDvfsError> {
        for (field, value) in [
            ("queue_capacity", self.queue_capacity),
            ("cache_capacity", self.cache_capacity),
            ("cache_shards", self.cache_shards),
            ("max_batch", self.max_batch),
        ] {
            if value == 0 {
                return Err(DaeDvfsError::InvalidRequest {
                    field,
                    reason: "must be non-zero".into(),
                });
            }
        }
        if self.qos_quantum_secs != 0.0 {
            validate_positive_time("qos_quantum_secs", self.qos_quantum_secs)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_validates() {
        assert!(ServiceConfig::default().validate().is_ok());
    }

    #[test]
    fn zero_bounds_are_rejected_by_field() {
        let cases: [(ServiceConfig, &str); 4] = [
            (
                ServiceConfig::default().with_queue_capacity(0),
                "queue_capacity",
            ),
            (
                ServiceConfig::default().with_cache_capacity(0),
                "cache_capacity",
            ),
            (
                ServiceConfig::default().with_cache_shards(0),
                "cache_shards",
            ),
            (ServiceConfig::default().with_max_batch(0), "max_batch"),
        ];
        for (config, expected) in cases {
            match config.validate().unwrap_err() {
                DaeDvfsError::InvalidRequest { field, .. } => assert_eq!(field, expected),
                other => panic!("expected InvalidRequest, got {other:?}"),
            }
        }
    }

    #[test]
    fn degenerate_quantum_rejected_but_zero_allowed() {
        assert!(ServiceConfig::default()
            .with_qos_quantum_secs(0.0)
            .validate()
            .is_ok());
        for bad in [f64::NAN, f64::INFINITY, -0.5] {
            assert!(matches!(
                ServiceConfig::default()
                    .with_qos_quantum_secs(bad)
                    .validate(),
                Err(DaeDvfsError::InvalidRequest {
                    field: "qos_quantum_secs",
                    ..
                })
            ));
        }
    }
}
