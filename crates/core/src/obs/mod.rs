//! Dependency-free observability for the serving stack: **receipts**,
//! **per-path latency histograms**, and the primitives behind the
//! deterministic trace record/replay harness.
//!
//! Every answer the service hands back can carry a [`Receipt`]: the
//! request's full cache identity ([`crate::service::PlanKey`]), the serving path
//! that answered it ([`ServePath`]), the solver and artifact schema
//! versions, an FNV-1a hash of the exact bytes served ([`plan_hash`]),
//! and per-stage timing. Receipts are what turn the test-only
//! bit-identity pins into an *operational* property: two runs that
//! served the same request must report the same `plan_hash`, no matter
//! which path (inline hit, coalesced solve, registry load, …) answered,
//! and the `plan_server --replay` harness asserts exactly that over
//! recorded traces.
//!
//! Latency is recorded into fixed-size power-of-two histograms
//! (snapshots: [`HistogramSnapshot`]) — one per serving path, lock-free
//! atomics, no allocation — folded into [`crate::ServiceStats`] and
//! rendered by the HTTP server's `GET /metrics` endpoint.
//!
//! This module sits inside repro-lint's determinism perimeter. The one
//! wall-clock read lives in `monotonic_nanos` (waivered): timing is
//! *observability output only* — it never feeds a cache key, a solver,
//! or any served byte, so plan bits stay a pure function of the request.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use crate::artifact::json;
use crate::service::PlanKey;

/// Nanoseconds since an arbitrary process-local epoch (the first call).
///
/// The single wall-clock site of the observability subsystem: every
/// receipt timestamp and histogram sample derives from differences of
/// this monotonic counter. Using one epoch keeps the perimeter tight —
/// repro-lint sees exactly one waivered `Instant::now` in `obs/`.
pub(crate) fn monotonic_nanos() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    // Saturate past ~584 years of uptime rather than wrapping.
    u64::try_from(EPOCH.get_or_init(Instant::now).elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// FNV-1a hash of served response bytes — the receipt's `plan_hash`.
///
/// This is the same primitive the artifact fingerprints and the
/// registry's content addresses use, re-exported so replay harnesses
/// outside this crate can recompute the hash of a body they received
/// and compare it against a recorded receipt.
pub fn plan_hash(bytes: &[u8]) -> u64 {
    crate::artifact::fnv1a(bytes)
}

/// Which path answered a request. Paths are mutually exclusive per
/// answer and cover every way a [`crate::PlanService`] can fulfill a
/// ticket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServePath {
    /// Lock-free fast path: cache hit answered inline at submit, no
    /// queue, no worker (`ServiceStats::inline_hits` counts these).
    InlineHit,
    /// Cache hit discovered on the locked submit path (hint race or
    /// registry-warmed entry served under the queue lock).
    CacheHit,
    /// Joined another request's in-flight solve and shared its answer
    /// (single-flight dedup, including queue-full stray fulfillment).
    FlightJoin,
    /// Led a coalesced batch: one shared-grid DP answered `batch`
    /// distinct leaders, this request among them.
    Coalesced {
        /// Distinct leaders the shared solve answered (≥ 2).
        batch: u32,
    },
    /// Answered from the on-disk registry (cold tier), no solve.
    RegistryHit,
    /// Led its own solve: a batch of one, or a sequence-DP batch, whose
    /// requests are solved one at a time.
    Solved,
}

impl ServePath {
    /// Number of distinct path kinds (histogram lanes).
    pub const COUNT: usize = 6;

    /// Stable labels, indexed by [`ServePath::index`]; the vocabulary
    /// the receipt header, `/metrics` and trace records share.
    pub const LABELS: [&'static str; ServePath::COUNT] = [
        "inline-hit",
        "cache-hit",
        "flight-join",
        "coalesced",
        "registry-hit",
        "solved",
    ];

    /// Histogram lane of this path.
    pub fn index(self) -> usize {
        match self {
            ServePath::InlineHit => 0,
            ServePath::CacheHit => 1,
            ServePath::FlightJoin => 2,
            ServePath::Coalesced { .. } => 3,
            ServePath::RegistryHit => 4,
            ServePath::Solved => 5,
        }
    }

    /// The path's stable label (see [`ServePath::LABELS`]).
    pub fn label(self) -> &'static str {
        ServePath::LABELS[self.index()]
    }

    /// Coalesced batch size; 1 for every non-coalesced path.
    pub fn batch(self) -> u32 {
        match self {
            ServePath::Coalesced { batch } => batch,
            _ => 1,
        }
    }
}

/// How a fulfilled ticket was answered, stamped by the service at
/// fulfillment time and carried to the receipt.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PathStamp {
    /// The answering path.
    pub path: ServePath,
    /// Nanoseconds the solve stage took (0 for solve-free paths).
    pub solve_nanos: u64,
}

impl PathStamp {
    /// A solve-free stamp (hits, joins, registry loads).
    pub(crate) fn instant(path: ServePath) -> Self {
        PathStamp {
            path,
            solve_nanos: 0,
        }
    }
}

/// One served answer's audit record.
///
/// The receipt pins everything an auditor needs to re-derive the
/// answer: the full request identity, the path that produced it, the
/// schema versions in play, and the FNV-1a hash of the exact bytes
/// served. Two receipts for the same [`crate::service::PlanKey`] must agree on
/// `plan_hash` — across paths, across restarts, across machines — or
/// the serving stack broke its bit-identity contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct Receipt {
    /// Full canonical request identity (the cache key).
    pub key: PlanKey,
    /// The path that answered.
    pub path: ServePath,
    /// Solver tag (registry envelope vocabulary: `reserve-grid` /
    /// `sequence-dp`).
    pub solver: &'static str,
    /// `PLAN_ARTIFACT_SCHEMA_VERSION` of the served artifact bytes.
    pub artifact_schema_version: u32,
    /// FNV-1a hash of the served bytes ([`plan_hash`]).
    pub plan_hash: u64,
    /// Nanoseconds spent in the solve stage (0 on solve-free paths).
    pub solve_nanos: u64,
    /// End-to-end nanoseconds from admission to fulfillment.
    pub total_nanos: u64,
}

impl Receipt {
    /// The request fingerprint: the FNV-1a mix of the full key — the
    /// same 64 bits the registry uses as a content address, rendered as
    /// 16 hex digits in headers, trace records and `/v1/receipt/<fp>`.
    pub fn fingerprint(&self) -> u64 {
        self.key.fnv()
    }

    /// Compact single-line rendering for the `X-Plan-Receipt` response
    /// header: `fp=…;path=…;batch=…;solver=…;artifact=v…;hash=…;
    /// solve_ns=…;total_ns=…` (semicolon-separated `k=v`, no spaces).
    pub fn to_header_value(&self) -> String {
        format!(
            "fp={:016x};path={};batch={};solver={};artifact=v{};hash={:016x};solve_ns={};total_ns={}",
            self.fingerprint(),
            self.path.label(),
            self.path.batch(),
            self.solver,
            self.artifact_schema_version,
            self.plan_hash,
            self.solve_nanos,
            self.total_nanos,
        )
    }

    /// JSON rendering for `GET /v1/receipt/<fp>` (one compact object).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(384);
        json::compact(&mut out, |o| {
            o.hex64("fingerprint", self.fingerprint())
                .str("path", self.path.label())
                .u64("batch", self.path.batch().into())
                .str("solver", self.solver)
                .u64(
                    "artifact_schema_version",
                    self.artifact_schema_version.into(),
                )
                .hex64("plan_hash", self.plan_hash)
                .hex64("model_fingerprint", self.key.model_fingerprint)
                .hex64("config_fingerprint", self.key.config_fingerprint)
                .hex64("window_bits", self.key.window_bits)
                .u64("dp_resolution", self.key.dp_resolution as u64)
                .u64("solve_ns", self.solve_nanos)
                .u64("total_ns", self.total_nanos);
        });
        out
    }
}

/// Histogram lanes: power-of-two buckets over `u64` nanoseconds.
pub const HISTOGRAM_BUCKETS: usize = 40;

/// Lane a value lands in: `0` for 0–1 ns, otherwise `⌊log₂ v⌋`, capped
/// at the overflow lane (everything ≥ 2³⁹ ns ≈ 9 minutes).
fn bucket_index(nanos: u64) -> usize {
    if nanos == 0 {
        0
    } else {
        ((63 - nanos.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

/// Inclusive upper bound of a lane, in nanoseconds (`u64::MAX` for the
/// overflow lane).
pub fn bucket_upper_nanos(index: usize) -> u64 {
    if index >= HISTOGRAM_BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << (index + 1)) - 1
    }
}

/// A fixed-size, lock-free latency histogram: 40 power-of-two buckets
/// over nanoseconds, recorded with relaxed atomics (counters only;
/// no ordering is needed because snapshots are advisory).
#[derive(Debug)]
pub(crate) struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Histogram {
    /// An empty histogram.
    pub(crate) const fn new() -> Self {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
        }
    }

    /// Records one sample.
    pub(crate) fn record(&self, nanos: u64) {
        self.buckets[bucket_index(nanos)].fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of the bucket counts.
    pub(crate) fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        for (slot, bucket) in buckets.iter_mut().zip(&self.buckets) {
            *slot = bucket.load(Ordering::Relaxed);
        }
        HistogramSnapshot { buckets }
    }
}

/// An immutable copy of a `Histogram`'s counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-lane sample counts (lane `i` holds values in
    /// `[2^i, 2^(i+1))` ns; lane 0 additionally holds 0 and 1 ns; the
    /// last lane absorbs everything larger).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
}

impl HistogramSnapshot {
    /// An empty snapshot.
    pub const fn empty() -> Self {
        HistogramSnapshot {
            buckets: [0; HISTOGRAM_BUCKETS],
        }
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Nearest-rank `q`-quantile (0…1), reported as the **upper bound**
    /// of the bucket the ranked sample fell in — a conservative (never
    /// under-reported) latency. Returns 0 for an empty histogram.
    pub fn percentile_upper_nanos(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * (count - 1) as f64).round() as u64).min(count - 1);
        let mut seen = 0u64;
        for (index, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen > rank {
                return bucket_upper_nanos(index);
            }
        }
        bucket_upper_nanos(HISTOGRAM_BUCKETS - 1)
    }
}

/// One latency histogram per serving path, lock-free.
#[derive(Debug)]
pub(crate) struct PathHistograms {
    lanes: [Histogram; ServePath::COUNT],
}

impl PathHistograms {
    /// All-empty histograms.
    pub(crate) const fn new() -> Self {
        PathHistograms {
            lanes: [
                Histogram::new(),
                Histogram::new(),
                Histogram::new(),
                Histogram::new(),
                Histogram::new(),
                Histogram::new(),
            ],
        }
    }

    /// Records one end-to-end sample on `path`'s lane.
    pub(crate) fn record(&self, path: ServePath, total_nanos: u64) {
        self.lanes[path.index()].record(total_nanos);
    }

    /// A point-in-time copy of every lane.
    pub(crate) fn snapshot(&self) -> PathStats {
        let mut histograms = [HistogramSnapshot::empty(); ServePath::COUNT];
        for (slot, lane) in histograms.iter_mut().zip(&self.lanes) {
            *slot = lane.snapshot();
        }
        PathStats { histograms }
    }
}

/// Per-path latency snapshots, folded into [`crate::ServiceStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathStats {
    /// One snapshot per [`ServePath`] lane (indexed by
    /// [`ServePath::index`]; labels in [`ServePath::LABELS`]).
    pub histograms: [HistogramSnapshot; ServePath::COUNT],
}

impl PathStats {
    /// All-empty snapshots.
    pub const fn empty() -> Self {
        PathStats {
            histograms: [HistogramSnapshot::empty(); ServePath::COUNT],
        }
    }

    /// Iterates `(label, snapshot)` pairs in lane order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &HistogramSnapshot)> {
        ServePath::LABELS.iter().copied().zip(&self.histograms)
    }

    /// Total samples across every lane.
    pub fn total_count(&self) -> u64 {
        self.histograms.iter().map(HistogramSnapshot::count).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Solver;

    fn key() -> PlanKey {
        PlanKey {
            model_fingerprint: 0x1111_2222_3333_4444,
            config_fingerprint: 0x5555_6666_7777_8888,
            solver: Solver::ReserveGrid,
            window_bits: 0.25f64.to_bits(),
            dp_resolution: 2000,
        }
    }

    #[test]
    fn bucket_boundaries_are_exact_powers_of_two() {
        // 0 and 1 share lane 0; each boundary 2^i opens lane i.
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        for i in 1..HISTOGRAM_BUCKETS - 1 {
            let boundary = 1u64 << i;
            assert_eq!(bucket_index(boundary - 1), i - 1, "below 2^{i}");
            assert_eq!(bucket_index(boundary), i, "at 2^{i}");
            assert_eq!(bucket_index(boundary + 1), i, "above 2^{i}");
        }
    }

    #[test]
    fn oversized_samples_land_in_the_overflow_lane() {
        for v in [1u64 << 39, 1 << 40, 1 << 63, u64::MAX] {
            assert_eq!(bucket_index(v), HISTOGRAM_BUCKETS - 1, "{v}");
        }
        assert_eq!(bucket_upper_nanos(HISTOGRAM_BUCKETS - 1), u64::MAX);
        assert_eq!(bucket_upper_nanos(HISTOGRAM_BUCKETS), u64::MAX);
        assert_eq!(bucket_upper_nanos(0), 1);
        assert_eq!(bucket_upper_nanos(3), 15);
    }

    #[test]
    fn histogram_percentiles_use_nearest_rank_upper_bounds() {
        let h = Histogram::new();
        for v in [0u64, 1, 2, 3, 100, 1000, 1_000_000] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count(), 7);
        // Ranked samples: lanes [0,0,1,1,6,9,19]; the median (rank 3)
        // sits in lane 1 → upper bound 3 ns.
        assert_eq!(snap.percentile_upper_nanos(0.5), 3);
        assert_eq!(snap.percentile_upper_nanos(0.0), 1);
        assert_eq!(snap.percentile_upper_nanos(1.0), bucket_upper_nanos(19));
        assert_eq!(HistogramSnapshot::empty().percentile_upper_nanos(0.5), 0);
    }

    #[test]
    fn path_lanes_and_labels_agree() {
        let paths = [
            ServePath::InlineHit,
            ServePath::CacheHit,
            ServePath::FlightJoin,
            ServePath::Coalesced { batch: 4 },
            ServePath::RegistryHit,
            ServePath::Solved,
        ];
        let mut seen = [false; ServePath::COUNT];
        for p in paths {
            assert!(!seen[p.index()], "duplicate lane {}", p.index());
            seen[p.index()] = true;
            assert_eq!(ServePath::LABELS[p.index()], p.label());
        }
        assert!(seen.iter().all(|&s| s));
        assert_eq!(ServePath::Coalesced { batch: 4 }.batch(), 4);
        assert_eq!(ServePath::InlineHit.batch(), 1);
    }

    #[test]
    fn path_histograms_record_on_the_right_lane() {
        let metrics = PathHistograms::new();
        metrics.record(ServePath::InlineHit, 100);
        metrics.record(ServePath::InlineHit, 200);
        metrics.record(ServePath::Coalesced { batch: 2 }, 5_000);
        let stats = metrics.snapshot();
        assert_eq!(stats.total_count(), 3);
        assert_eq!(stats.histograms[0].count(), 2);
        assert_eq!(stats.histograms[3].count(), 1);
        let labels: Vec<&str> = stats.iter().map(|(label, _)| label).collect();
        assert_eq!(labels, ServePath::LABELS);
    }

    #[test]
    fn receipt_header_and_json_render_the_full_identity() {
        let receipt = Receipt {
            key: key(),
            path: ServePath::Coalesced { batch: 3 },
            solver: "reserve-grid",
            artifact_schema_version: 1,
            plan_hash: 0xdead_beef_0123_4567,
            solve_nanos: 42_000,
            total_nanos: 99_000,
        };
        let header = receipt.to_header_value();
        assert!(header.starts_with(&format!("fp={:016x};", receipt.fingerprint())));
        assert!(header.contains(";path=coalesced;batch=3;"));
        assert!(header.contains(";solver=reserve-grid;artifact=v1;"));
        assert!(header.contains(";hash=deadbeef01234567;"));
        assert!(header.contains(";solve_ns=42000;total_ns=99000"));
        assert!(!header.contains(' '), "header values must be space-free");
        let json = receipt.to_json();
        assert!(json.contains("\"plan_hash\": \"deadbeef01234567\""));
        assert!(json.contains("\"path\": \"coalesced\""));
        assert!(json.contains("\"dp_resolution\": 2000"));
        assert_eq!(receipt.fingerprint(), receipt.key.fnv());
    }

    #[test]
    fn monotonic_nanos_is_nondecreasing() {
        let a = monotonic_nanos();
        let b = monotonic_nanos();
        assert!(b >= a);
    }

    #[test]
    fn plan_hash_is_fnv1a_of_the_bytes() {
        // FNV-1a offset basis: the hash of the empty input.
        assert_eq!(plan_hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(plan_hash(b"a"), plan_hash(b"b"));
    }

    #[test]
    fn receipt_json_bytes_are_pinned() {
        let receipt = Receipt {
            key: key(),
            path: ServePath::Coalesced { batch: 3 },
            solver: "reserve-grid",
            artifact_schema_version: 1,
            plan_hash: 0xdead_beef_0123_4567,
            solve_nanos: 42_000,
            total_nanos: 99_000,
        };
        let expected = "{\"fingerprint\": \"9e7b673118e0ec15\", \"path\": \"coalesced\", \"batch\": 3, \"solver\": \"reserve-grid\", \"artifact_schema_version\": 1, \"plan_hash\": \"deadbeef01234567\", \"model_fingerprint\": \"1111222233334444\", \"config_fingerprint\": \"5555666677778888\", \"window_bits\": \"3fd0000000000000\", \"dp_resolution\": 2000, \"solve_ns\": 42000, \"total_ns\": 99000}";
        assert_eq!(receipt.to_json(), expected);
    }
}
