//! The fingerprint-keyed plan cache: sharded, capacity-bounded LRU with
//! single-flight miss deduplication.
//!
//! A plan is a pure function of `(lowered model, board configuration,
//! solver, QoS window, DP resolution)` — everything else the planner
//! holds is derived from those. [`PlanKey`] captures exactly that tuple,
//! reusing the FNV-1a fingerprints plan artifacts already use for
//! cross-process invalidation ([`crate::model_fingerprint`],
//! [`crate::config_fingerprint`]), so two [`crate::Planner`]s built from
//! the same model and board description share cache entries even though
//! they are distinct objects (and distinct
//! [`crate::service::PlannerKey`]s).
//!
//! The cache is split into shards, each an independently locked
//! `HashMap` + lazy-stamped LRU queue, so concurrent lookups on
//! different keys rarely contend. Every shard also carries the
//! **single-flight table**: the first miss for a key becomes the
//! *leader* ([`Lookup::Lead`]) and computes the plan; concurrent misses
//! for the same key *join* the in-flight entry ([`Lookup::Joined`]) and
//! are fulfilled by the leader when it [`PlanCache::complete`]s — N
//! identical cold requests cost one solve, and only the leader occupies
//! a submission-queue slot.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use crate::sync::{lock, rank, RankedGuard, RankedMutex};

use crate::pipeline::DeploymentPlan;
use crate::request::Solver;

/// The cache identity of one canonical plan request.
///
/// Two requests with equal keys receive the same [`DeploymentPlan`] (the
/// solve is deterministic in these five fields). The window is stored as
/// the bit pattern of the *canonical* window — slack already resolved
/// against the baseline and snapped to the service's QoS quantum — so
/// `PlanRequest::slack(0.3)` and the equivalent absolute window hit the
/// same entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub struct PlanKey {
    /// Fingerprint of the lowered model ([`crate::model_fingerprint`]).
    pub model_fingerprint: u64,
    /// Fingerprint of the board configuration
    /// ([`crate::config_fingerprint`]).
    pub config_fingerprint: u64,
    /// The solver answering the request.
    pub solver: Solver,
    /// Bit pattern of the canonical QoS window in seconds.
    pub window_bits: u64,
    /// DP time-axis resolution the request solves at.
    pub dp_resolution: usize,
}

impl PlanKey {
    /// Stable FNV-1a mix of the key's fields — the same primitive the
    /// artifact fingerprints use ([`crate::artifact::fnv1a`]); used for
    /// shard selection (the map inside a shard uses the standard
    /// hasher) and as the registry's on-disk content address
    /// (`crate::registry`).
    pub(crate) fn fnv(&self) -> u64 {
        let solver_tag = match self.solver {
            Solver::ReserveGrid => 0u64,
            Solver::SequenceDp => 1u64,
            // `Solver` is non-exhaustive for future growth; new solvers
            // must extend this tag table.
            #[allow(unreachable_patterns)]
            _ => u64::MAX,
        };
        let mut bytes = [0u8; 40];
        for (slot, word) in [
            self.model_fingerprint,
            self.config_fingerprint,
            solver_tag,
            self.window_bits,
            self.dp_resolution as u64,
        ]
        .into_iter()
        .enumerate()
        {
            bytes[slot * 8..(slot + 1) * 8].copy_from_slice(&word.to_le_bytes());
        }
        crate::artifact::fnv1a(&bytes)
    }
}

/// A completed plan paired with its canonical serialized artifact — the
/// exact bytes [`crate::PlanArtifact::to_json`] produced when the plan
/// entered the cache. The serving hot path answers with the shared
/// bytes, so a cache hit never re-serializes; cloning is two `Arc`
/// reference bumps.
#[derive(Debug, Clone)]
pub struct ServedPlan {
    plan: Arc<DeploymentPlan>,
    bytes: Arc<[u8]>,
    /// FNV-1a of `bytes`, computed once here so receipts can pin the
    /// served payload without re-hashing tens of kilobytes per request.
    bytes_hash: u64,
}

impl ServedPlan {
    /// Pairs a plan with its canonical artifact serialization. The bytes
    /// must be exactly what `plan.to_artifact(..).to_json()` renders —
    /// the byte-identity proptests pin this pairing on every answer
    /// path. Hashes the bytes once, at construction: every entry is
    /// built exactly once (solve completion or registry load) and then
    /// served arbitrarily many times.
    pub(crate) fn new(plan: Arc<DeploymentPlan>, bytes: Arc<[u8]>) -> Self {
        let bytes_hash = crate::artifact::fnv1a(&bytes);
        ServedPlan {
            plan,
            bytes,
            bytes_hash,
        }
    }

    /// The shared plan.
    pub fn plan(&self) -> &Arc<DeploymentPlan> {
        &self.plan
    }

    /// The canonical artifact JSON (the bytes
    /// [`crate::PlanArtifact::to_json`] rendered once, at insert).
    pub fn bytes(&self) -> &Arc<[u8]> {
        &self.bytes
    }

    /// FNV-1a of [`ServedPlan::bytes`] ([`crate::obs::plan_hash`]),
    /// precomputed at construction — the receipt's `plan_hash`, free on
    /// the serving hot path.
    pub fn bytes_hash(&self) -> u64 {
        self.bytes_hash
    }

    /// Consumes the pair, keeping the plan.
    pub fn into_plan(self) -> Arc<DeploymentPlan> {
        self.plan
    }

    /// Consumes the pair, keeping the serialized bytes.
    pub fn into_bytes(self) -> Arc<[u8]> {
        self.bytes
    }
}

/// Outcome of [`PlanCache::lookup_or_join`].
#[derive(Debug)]
pub(crate) enum Lookup<W> {
    /// A completed plan was resident; the waiter is handed back for the
    /// caller to fulfill immediately.
    Hit(ServedPlan, W),
    /// Another caller is already computing this key; the waiter was
    /// attached to the in-flight entry and will be fulfilled when the
    /// leader completes.
    Joined,
    /// The caller is now this key's leader: it must compute the plan and
    /// call [`PlanCache::complete`] (or [`PlanCache::abort`] if the
    /// request never starts).
    Lead(W),
}

/// Point-in-time cache counters, aggregated over every shard.
///
/// `hits + misses` equals the number of lookups; `joined` (a subset of
/// `misses`) counts lookups deduplicated onto an in-flight leader.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
#[non_exhaustive]
pub struct CacheStats {
    /// Lookups answered from a resident completed plan.
    pub hits: u64,
    /// Lookups that found no completed plan (leaders + joiners).
    pub misses: u64,
    /// Misses deduplicated onto an already-in-flight computation.
    pub joined: u64,
    /// Completed plans inserted.
    pub inserted: u64,
    /// Resident plans evicted by the LRU capacity bound.
    pub evicted: u64,
    /// Completed plans currently resident.
    pub entries: u64,
}

impl CacheStats {
    /// Total lookups observed.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of lookups answered from a resident plan (0 when no
    /// lookups happened yet).
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.lookups();
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }
}

#[derive(Debug)]
struct Entry {
    served: ServedPlan,
    /// Stamp of this entry's most recent touch; recency-queue records
    /// with older stamps are stale and skipped lazily.
    stamp: u64,
}

#[derive(Debug)]
struct Shard<W> {
    map: HashMap<PlanKey, Entry>,
    /// Lazy LRU order: `(key, stamp)` pushed on every touch; a record is
    /// live only while its stamp matches the entry's current stamp.
    recency: VecDeque<(PlanKey, u64)>,
    tick: u64,
    /// Single-flight table: key → waiters attached to the in-flight
    /// leader (the leader itself is not in the list).
    flights: HashMap<PlanKey, Vec<W>>,
    hits: u64,
    misses: u64,
    joined: u64,
    inserted: u64,
    evicted: u64,
}

impl<W> Shard<W> {
    fn new() -> Self {
        Shard {
            map: HashMap::new(),
            recency: VecDeque::new(),
            tick: 0,
            flights: HashMap::new(),
            hits: 0,
            misses: 0,
            joined: 0,
            inserted: 0,
            evicted: 0,
        }
    }

    /// Records a touch of `key` and compacts the recency queue when the
    /// lazy stamps have let it grow well past the live entry count.
    fn touch(&mut self, key: PlanKey, capacity: usize) {
        self.tick += 1;
        let tick = self.tick;
        if let Some(entry) = self.map.get_mut(&key) {
            entry.stamp = tick;
        }
        self.recency.push_back((key, tick));
        if self.recency.len() > capacity.max(4) * 8 {
            let map = &self.map;
            self.recency
                .retain(|(k, s)| map.get(k).is_some_and(|e| e.stamp == *s));
        }
    }

    /// Evicts the least-recently-used live entry (skipping stale lazy
    /// records).
    fn evict_lru(&mut self) {
        while let Some((key, stamp)) = self.recency.pop_front() {
            if self.map.get(&key).is_some_and(|e| e.stamp == stamp) {
                self.map.remove(&key);
                self.evicted += 1;
                return;
            }
        }
    }
}

/// The sharded plan cache. `W` is the waiter token attached to in-flight
/// entries (the service uses its ticket handle); the cache never
/// inspects it.
#[derive(Debug)]
pub(crate) struct PlanCache<W> {
    /// Shard locks carry [`rank::CACHE_SHARD`]: above the submission
    /// queue (taken while holding it on the submit path), below tickets.
    shards: Vec<RankedMutex<Shard<W>>>,
    /// Completed-entry capacity per shard (the configured total split
    /// evenly, floored at one).
    shard_capacity: usize,
}

impl<W> PlanCache<W> {
    /// A cache holding at most ~`capacity` completed plans across
    /// `shards` independently locked shards.
    pub fn new(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        PlanCache {
            shard_capacity: capacity.div_ceil(shards).max(1),
            shards: (0..shards)
                .map(|_| RankedMutex::new(rank::CACHE_SHARD, Shard::new()))
                .collect(),
        }
    }

    fn shard(&self, key: &PlanKey) -> RankedGuard<'_, Shard<W>> {
        let index = (key.fnv() % self.shards.len() as u64) as usize;
        lock(&self.shards[index])
    }

    /// Looks `key` up without any single-flight side effects: returns the
    /// resident plan-plus-bytes pair (counting a hit and touching the
    /// LRU) or `None` — in which case **nothing** was counted, so a
    /// follow-up [`PlanCache::lookup_or_join`] still accounts the
    /// request exactly once.
    pub fn get(&self, key: PlanKey) -> Option<ServedPlan> {
        let mut shard = self.shard(&key);
        let served = shard.map.get(&key).map(|e| e.served.clone())?;
        shard.hits += 1;
        shard.touch(key, self.shard_capacity);
        Some(served)
    }

    /// Looks `key` up; on a miss, either joins the in-flight leader or
    /// nominates the caller as leader (see [`Lookup`]).
    pub fn lookup_or_join(&self, key: PlanKey, waiter: W) -> Lookup<W> {
        let mut shard = self.shard(&key);
        if let Some(served) = shard.map.get(&key).map(|e| e.served.clone()) {
            shard.hits += 1;
            shard.touch(key, self.shard_capacity);
            return Lookup::Hit(served, waiter);
        }
        shard.misses += 1;
        if let Some(waiters) = shard.flights.get_mut(&key) {
            waiters.push(waiter);
            shard.joined += 1;
            return Lookup::Joined;
        }
        shard.flights.insert(key, Vec::new());
        Lookup::Lead(waiter)
    }

    /// Completes `key`'s in-flight computation: caches the plan and its
    /// canonical serialization (when `Some`, evicting LRU entries past
    /// capacity) and returns every waiter that joined, for the leader to
    /// fulfill. On `None` (the solve failed) nothing is cached — the
    /// next request for the key leads a fresh attempt.
    pub fn complete(&self, key: PlanKey, served: Option<ServedPlan>) -> Vec<W> {
        let mut shard = self.shard(&key);
        let waiters = shard.flights.remove(&key).unwrap_or_default();
        if let Some(served) = served {
            if shard.map.len() >= self.shard_capacity && !shard.map.contains_key(&key) {
                shard.evict_lru();
            }
            shard.map.insert(key, Entry { served, stamp: 0 });
            shard.inserted += 1;
            shard.touch(key, self.shard_capacity);
        }
        waiters
    }

    /// Rolls back a [`Lookup::Lead`] whose request was never admitted
    /// (e.g. the submission queue was full): removes the flight, undoes
    /// the lead's miss count, and returns any waiters that managed to
    /// join, for the caller to fail.
    pub fn abort(&self, key: PlanKey) -> Vec<W> {
        let mut shard = self.shard(&key);
        let waiters = shard.flights.remove(&key).unwrap_or_default();
        shard.misses = shard.misses.saturating_sub(1);
        waiters
    }

    /// Aggregated counters across every shard.
    pub fn stats(&self) -> CacheStats {
        let mut stats = CacheStats::default();
        for shard in &self.shards {
            let shard = lock(shard);
            stats.hits += shard.hits;
            stats.misses += shard.misses;
            stats.joined += shard.joined;
            stats.inserted += shard.inserted;
            stats.evicted += shard.evicted;
            stats.entries += shard.map.len() as u64;
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stm32_power::Joules;

    fn key(window_bits: u64) -> PlanKey {
        PlanKey {
            model_fingerprint: 0x1111,
            config_fingerprint: 0x2222,
            solver: Solver::ReserveGrid,
            window_bits,
            dp_resolution: 2000,
        }
    }

    fn plan(qos: f64) -> ServedPlan {
        ServedPlan::new(
            Arc::new(DeploymentPlan {
                model: "m".into(),
                qos_secs: qos,
                decisions: Vec::new(),
                predicted_latency_secs: qos * 0.9,
                predicted_energy: Joules::new(1.0),
            }),
            Arc::from({
                let mut body = String::new();
                crate::artifact::json::compact(&mut body, |o| {
                    o.f64("qos", qos);
                });
                body.into_bytes().into_boxed_slice()
            }),
        )
    }

    /// A miss that leads, completes, and is then hit.
    #[test]
    fn miss_complete_hit_roundtrip() {
        let cache: PlanCache<u32> = PlanCache::new(8, 2);
        match cache.lookup_or_join(key(1), 7) {
            Lookup::Lead(w) => assert_eq!(w, 7),
            other => panic!("expected Lead, got {other:?}"),
        }
        assert!(cache.complete(key(1), Some(plan(0.5))).is_empty());
        match cache.lookup_or_join(key(1), 8) {
            Lookup::Hit(served, w) => {
                assert_eq!(served.plan().qos_secs, 0.5);
                // The hit hands back the bytes the insert provided,
                // byte-for-byte (shared, never re-rendered).
                assert_eq!(&**served.bytes(), b"{\"qos\": 0.5}");
                assert_eq!(w, 8);
            }
            other => panic!("expected Hit, got {other:?}"),
        }
        // `get` (the lock-free fast path's lookup) answers the same pair.
        let got = cache.get(key(1)).expect("resident");
        assert_eq!(&**got.bytes(), b"{\"qos\": 0.5}");
        // The precomputed hash is the FNV-1a of exactly those bytes —
        // what receipts report without re-hashing per request.
        assert_eq!(got.bytes_hash(), crate::artifact::fnv1a(got.bytes()));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (2, 1, 1));
        assert_eq!(stats.lookups(), 3);
        assert!((stats.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn concurrent_misses_join_the_leader() {
        let cache: PlanCache<u32> = PlanCache::new(8, 1);
        assert!(matches!(cache.lookup_or_join(key(1), 1), Lookup::Lead(1)));
        assert!(matches!(cache.lookup_or_join(key(1), 2), Lookup::Joined));
        assert!(matches!(cache.lookup_or_join(key(1), 3), Lookup::Joined));
        let waiters = cache.complete(key(1), Some(plan(0.5)));
        assert_eq!(waiters, vec![2, 3]);
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.joined), (3, 2));
        // The plan is now resident for later lookups.
        assert!(matches!(cache.lookup_or_join(key(1), 4), Lookup::Hit(..)));
    }

    #[test]
    fn failed_completion_caches_nothing() {
        let cache: PlanCache<u32> = PlanCache::new(8, 1);
        assert!(matches!(cache.lookup_or_join(key(1), 1), Lookup::Lead(_)));
        assert!(matches!(cache.lookup_or_join(key(1), 2), Lookup::Joined));
        assert_eq!(cache.complete(key(1), None), vec![2]);
        // The next request leads a fresh attempt.
        assert!(matches!(cache.lookup_or_join(key(1), 3), Lookup::Lead(_)));
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let cache: PlanCache<u32> = PlanCache::new(2, 1);
        for bits in [1, 2] {
            assert!(matches!(
                cache.lookup_or_join(key(bits), 0),
                Lookup::Lead(_)
            ));
            cache.complete(key(bits), Some(plan(bits as f64)));
        }
        // Touch key 1 so key 2 is the LRU victim.
        assert!(matches!(cache.lookup_or_join(key(1), 0), Lookup::Hit(..)));
        assert!(matches!(cache.lookup_or_join(key(3), 0), Lookup::Lead(_)));
        cache.complete(key(3), Some(plan(3.0)));
        assert!(matches!(cache.lookup_or_join(key(1), 0), Lookup::Hit(..)));
        assert!(matches!(cache.lookup_or_join(key(3), 0), Lookup::Hit(..)));
        assert!(matches!(cache.lookup_or_join(key(2), 0), Lookup::Lead(_)));
        let stats = cache.stats();
        assert_eq!(stats.evicted, 1);
        assert_eq!(stats.entries, 2);
        cache.abort(key(2));
    }

    #[test]
    fn abort_rolls_back_a_lead() {
        let cache: PlanCache<u32> = PlanCache::new(8, 1);
        assert!(matches!(cache.lookup_or_join(key(1), 1), Lookup::Lead(_)));
        assert!(cache.abort(key(1)).is_empty());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (0, 0));
        // A later request leads again.
        assert!(matches!(cache.lookup_or_join(key(1), 2), Lookup::Lead(_)));
    }

    #[test]
    fn recency_queue_stays_bounded_under_repeated_hits() {
        let cache: PlanCache<u32> = PlanCache::new(4, 1);
        assert!(matches!(cache.lookup_or_join(key(1), 0), Lookup::Lead(_)));
        cache.complete(key(1), Some(plan(1.0)));
        for _ in 0..10_000 {
            assert!(matches!(cache.lookup_or_join(key(1), 0), Lookup::Hit(..)));
        }
        let shard = lock(&cache.shards[0]);
        assert!(
            shard.recency.len() <= 4 * 8 + 1,
            "recency queue grew unbounded: {}",
            shard.recency.len()
        );
    }

    #[test]
    fn distinct_solvers_and_resolutions_do_not_collide() {
        let cache: PlanCache<u32> = PlanCache::new(8, 4);
        let a = key(1);
        let mut b = key(1);
        b.solver = Solver::SequenceDp;
        let mut c = key(1);
        c.dp_resolution = 500;
        for k in [a, b, c] {
            assert!(matches!(cache.lookup_or_join(k, 0), Lookup::Lead(_)));
            cache.complete(k, Some(plan(1.0)));
        }
        assert_eq!(cache.stats().entries, 3);
    }
}
