//! The four workloads, the checks each makes, and the metrics each
//! derives from its samples.
//!
//! * `hot-http` — closed loop, Zipf over 32 pre-warmed keys: every
//!   request is an inline cache hit, so the server's parse/route/write
//!   and the service's inline path do all the work.
//! * `restart-warm` — repeated restarts over a registry that already
//!   holds every key, each key asked once per restart: registry reads,
//!   decode/validate and the linger in front of them.
//! * `plan-build` — one thread building a planner, its baseline and a
//!   10-point sweep for each paper-sized (model, board): DSE, Pareto
//!   reduction, baseline lowering.
//! * `cold-solve` — open loop at [`COLD_RATE`], every key new: solver,
//!   coalescing and linger, artifact render and registry writes. Not in
//!   `BENCHMARK.json`: its write-through `fsync` ties its latency to a
//!   shared disk (see `perfbench/README.md`).

use std::collections::{BTreeMap, HashSet};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dae_dvfs::service::PlanKey;
use dae_dvfs::{
    DeploymentPlan, PlanRegistry, PlanServer, PlanService, PlannerKey, ServiceStats, Solver,
};
use tinyengine::qos_window;
use tinynn::models::synth::SplitMix64;
use tinynn::Model;

use crate::client::{plan_request, Client};
use crate::fixture::{
    build_tenants, distinct_specs, hot_specs, references, server_config, service_config, shuffle,
    tenant_models, unit, Board, Budget, Reference, Spec, Tenant, Zipf,
};
use crate::loadgen::{closed_loop, open_loop, poisson_schedule, Load, Outcome, Sample};
use crate::probes::{self, Construction, LayerProbes};
use crate::report::Report;
use crate::stats::{median, overhead_frac, residual_frac, sliced_pct, time_slices, Dist};
use crate::trace::{self, Tracer};
use crate::{alloc, Args, Res};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 11;
/// Offered rate of the `cold-solve` open loop, requests per second:
/// below the rate at which two connections saturate (each request waits
/// out the 2 ms batch linger, then solves).
pub const COLD_RATE: f64 = 100.0;
/// Keys in the `restart-warm` fixture registry.
const RESTART_KEYS: usize = 200;
/// Construction replays per tenant in a traced HTTP run.
const CONSTRUCTION_REPS: usize = 3;
/// One `hot-http` slice, served by its own client threads.
const HOT_SLICE: Duration = Duration::from_secs(1);
/// Most requests of a traced phase turned into spans (evenly strided),
/// which bounds the trace file.
const MAX_SPANNED: usize = 20_000;
/// Head start of an open-loop phase, so its first request is not born late.
const OPEN_LEAD: Duration = Duration::from_millis(5);

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Inline cache hits over HTTP.
    HotHttp,
    /// Never-seen keys at a fixed arrival rate.
    ColdSolve,
    /// Registry-warm requests after restarts.
    RestartWarm,
    /// Planner construction for the paper-sized models.
    PlanBuild,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::HotHttp,
        Workload::ColdSolve,
        Workload::RestartWarm,
        Workload::PlanBuild,
    ];

    /// The name runs and issues cite.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HotHttp => "hot-http",
            Workload::ColdSolve => "cold-solve",
            Workload::RestartWarm => "restart-warm",
            Workload::PlanBuild => "plan-build",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// A scratch directory for registries, removed when the run ends.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(root: &Path) -> Res<Self> {
        let dir = root.join(format!("run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs one workload and reports it.
pub fn run(args: &Args) -> Res<Report> {
    let root = PathBuf::from(".perfbench");
    let work = WorkDir::create(&root)?;
    let epoch = Instant::now();
    let mut run = Run {
        args,
        work: &work.0,
        epoch,
        report: Report::default(),
        tracer: Tracer::new(epoch),
        next_id: 0,
        clients: std::thread::available_parallelism().map_or(1, |n| n.get()),
    };
    match args.workload {
        Workload::HotHttp => run.hot_http()?,
        Workload::ColdSolve => run.cold_solve()?,
        Workload::RestartWarm => run.restart_warm()?,
        Workload::PlanBuild => run.plan_build()?,
    }
    let mut report = run.report;
    host_facts(&mut report, args);
    if args.trace {
        let path = root
            .join("traces")
            .join(format!("{}.jsonl", args.workload.name()));
        trace::write_jsonl(&path, run.tracer.spans())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        report.fact("trace_file", format!("\"{}\"", path.display()));
        report.fact("spans", run.tracer.spans().len().to_string());
    }
    report.set("peak_rss_mb", peak_rss_mb()?);
    Ok(report)
}

/// State shared by a run's phases.
struct Run<'a> {
    args: &'a Args,
    work: &'a Path,
    epoch: Instant,
    report: Report,
    tracer: Tracer,
    next_id: u64,
    clients: usize,
}

/// Service counters over one phase.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    batches: u64,
    batched_requests: u64,
    rejected: u64,
    failed: u64,
    registry_hits: u64,
    registry_writes: u64,
    quarantined: u64,
    max_queue_depth: u64,
}

impl Counters {
    fn of(s: &ServiceStats) -> Self {
        Counters {
            batches: s.batches,
            batched_requests: s.batched_requests,
            rejected: s.rejected,
            failed: s.failed,
            registry_hits: s.registry_hits,
            registry_writes: s.registry_writes,
            quarantined: s.quarantined,
            max_queue_depth: s.max_queue_depth,
        }
    }

    /// The change from `before` to `self` (the queue high-water mark is
    /// not a counter and is kept as is).
    fn since(self, before: Counters) -> Counters {
        Counters {
            batches: self.batches - before.batches,
            batched_requests: self.batched_requests - before.batched_requests,
            rejected: self.rejected - before.rejected,
            failed: self.failed - before.failed,
            registry_hits: self.registry_hits - before.registry_hits,
            registry_writes: self.registry_writes - before.registry_writes,
            quarantined: self.quarantined - before.quarantined,
            max_queue_depth: self.max_queue_depth,
        }
    }

    fn add(&mut self, o: Counters) {
        self.batches += o.batches;
        self.batched_requests += o.batched_requests;
        self.rejected += o.rejected;
        self.failed += o.failed;
        self.registry_hits += o.registry_hits;
        self.registry_writes += o.registry_writes;
        self.quarantined += o.quarantined;
        self.max_queue_depth = self.max_queue_depth.max(o.max_queue_depth);
    }
}

/// One measured HTTP phase.
#[derive(Debug, Default)]
struct Phase {
    load: Load,
    secs: f64,
    counters: Counters,
    allocs: u64,
}

impl Phase {
    fn absorb(&mut self, other: Phase) {
        self.load.absorb(other.load);
        self.secs += other.secs;
        self.counters.add(other.counters);
        self.allocs += other.allocs;
    }
}

/// A service stack as a process start builds it.
struct Stack {
    tenants: Vec<Tenant>,
    service: PlanService,
    keys: Vec<PlannerKey>,
    /// Each planner construction, seconds.
    build_secs: Vec<f64>,
    /// `attach_registry`, seconds.
    attach_secs: f64,
    /// Planners, service and registry attach, seconds (bind comes later).
    setup_secs: f64,
}

/// Builds the tenants' planners, a service over them and attaches the
/// registry at `dir` (re-validating what it holds).
fn stack(models: &[(Model, Board)], dir: &Path) -> Res<Stack> {
    let start = Instant::now();
    let (tenants, build_secs) = build_tenants(models)?;
    let mut service = PlanService::new(service_config()).map_err(|e| e.to_string())?;
    let keys = tenants
        .iter()
        .map(|t| service.register(t.planner.clone()))
        .collect();
    let registry = PlanRegistry::open(dir).map_err(|e| e.to_string())?;
    let t = Instant::now();
    service
        .attach_registry(registry)
        .map_err(|e| e.to_string())?;
    let attach_secs = t.elapsed().as_secs_f64();
    Ok(Stack {
        tenants,
        service,
        keys,
        build_secs,
        attach_secs,
        setup_secs: start.elapsed().as_secs_f64(),
    })
}

/// Serves `stack` over loopback HTTP while `f` runs; returns `f`'s
/// result and the seconds from starting the service to a bound server.
fn serve<R: Send>(
    stack: &Stack,
    f: impl FnOnce(&PlanService, SocketAddr) -> R + Send,
) -> Res<(R, f64)> {
    let start = Instant::now();
    stack.service.run(|svc| {
        let mut server = PlanServer::new(svc, server_config()).map_err(|e| e.to_string())?;
        for (tenant, key) in stack.tenants.iter().zip(&stack.keys) {
            server = server
                .route(&tenant.name, *key)
                .map_err(|e| e.to_string())?;
        }
        server
            .serve(|handle| {
                let bind = start.elapsed().as_secs_f64();
                (f(svc, handle.addr()), bind)
            })
            .map_err(|e| e.to_string())
    })
}

/// One exchange on a keep-alive connection, checked against the key's
/// reference: status 200, the exact reference bytes, a receipt claiming
/// their hash, and a plan that fits the requested window.
fn http_send<'a>(
    requests: &'a [Vec<u8>],
    refs: &'a [Reference],
) -> impl Fn(&mut Client, usize) -> Outcome + Sync + 'a {
    move |client, key| match client.send(&requests[key]) {
        Ok(resp) => {
            let reference = &refs[key];
            Outcome {
                receipt: resp.receipt,
                wire_bytes: (requests[key].len() + resp.wire_bytes) as u32,
                ok: resp.status == 200
                    && reference.feasible
                    && resp.body == &reference.bytes[..]
                    && resp.receipt.is_some_and(|r| r.hash == reference.hash),
            }
        }
        Err(_) => Outcome::default(),
    }
}

fn connect(addr: SocketAddr) -> impl Fn(usize) -> Res<Client> + Sync {
    move |_| Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))
}

/// How many time slices a run of `args` is cut into. A run's latency
/// percentiles are the median over its slices of each slice's own, so
/// every slice must hold ten samples beyond its median (and beyond its
/// p90, for the p90 the record line reports).
fn slices(args: &Args) -> usize {
    let secs_per_slice = match args.workload {
        Workload::HotHttp => HOT_SLICE.as_secs(),
        Workload::ColdSolve => 2,
        Workload::RestartWarm => 1,
        Workload::PlanBuild => 7,
    };
    (args.seconds / secs_per_slice).max(1) as usize
}

/// The phase lengths: the whole run, or an untraced and a traced half.
fn phase_secs(args: &Args) -> Vec<f64> {
    let secs = args.seconds as f64;
    if args.trace {
        vec![secs / 2.0, secs / 2.0]
    } else {
        vec![secs]
    }
}

impl Run<'_> {
    fn id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    /// Runs `f` with allocation counting on when `traced`, returning the
    /// phase with its wall time and service counters filled in.
    fn phase(svc: &PlanService, traced: bool, f: impl FnOnce() -> Res<Load>) -> Res<Phase> {
        let before = Counters::of(&svc.stats());
        let allocs = alloc::counting(traced);
        let start = Instant::now();
        let load = f()?;
        let secs = start.elapsed().as_secs_f64();
        let allocs = alloc::counting(false) - allocs;
        Ok(Phase {
            load,
            secs,
            counters: Counters::of(&svc.stats()).since(before),
            allocs,
        })
    }

    /// End-to-end metrics of the HTTP workloads, over every measured
    /// sample, with latency percentiles taken per time slice.
    fn http_end_to_end(
        &mut self,
        setups: &[f64],
        phases: &[&Phase],
        refs: &[Reference],
        slices: usize,
    ) {
        let samples: Vec<&Sample> = phases.iter().flat_map(|p| &p.load.samples).collect();
        let sent: u64 = phases.iter().map(|p| p.load.sent).sum();
        let failed: u64 = phases.iter().map(|p| p.load.failed).sum();
        self.report.ops(sent as usize, failed as usize);
        let timed: Vec<(u64, f64)> = samples
            .iter()
            .map(|s| (s.due_ns, s.latency_ns() as f64 / 1e6))
            .collect();
        let secs: f64 = phases.iter().map(|p| p.secs).sum();
        let served: HashSet<u32> = samples.iter().map(|s| s.key).collect();
        let energy = served
            .iter()
            .map(|&k| refs[k as usize].plan.predicted_energy.as_f64())
            .sum::<f64>()
            / served.len().max(1) as f64;
        let lag = Dist::new(samples.iter().map(|s| s.lag_ns() as f64 / 1e6).collect());
        self.report.fact(
            "generator_lag_ms_p99",
            lag.pct(0.99).map_or("null".into(), |v| v.to_string()),
        );
        self.latency_metrics(
            setups,
            &time_slices(&timed, slices),
            sent as f64 / secs,
            energy * 1e3,
        );
    }

    /// The end-to-end metrics every workload reports, and the latency
    /// tails for the record line; latency percentiles are the median over
    /// `slices` of each slice's own.
    fn latency_metrics(
        &mut self,
        setups: &[f64],
        slices: &[Dist],
        throughput: f64,
        energy_mj: f64,
    ) {
        self.report.set("setup_s", median(setups));
        self.report.fact("setup_reps", setups.len().to_string());
        let sizes: Vec<String> = slices.iter().map(|d| d.n().to_string()).collect();
        self.report
            .fact("latency_slice_samples", format!("[{}]", sizes.join(", ")));
        match sliced_pct(slices, 0.5) {
            Some(v) => self.report.set("latency_p50_ms", v),
            None => self.report.check(self.args.trace, || {
                format!("latency_p50_ms: a slice has fewer than ten samples beyond it ({sizes:?})")
            }),
        }
        for (name, q) in [("latency_p90_ms", 0.9), ("latency_p99_ms", 0.99)] {
            let value = sliced_pct(slices, q).map_or("null".into(), |v| v.to_string());
            self.report.fact(name, value);
        }
        self.report.set("throughput_ops", throughput);
        self.report.set("plan_energy_mj", energy_mj);
    }

    /// Per-layer metrics of an HTTP workload from its untraced phase `a`
    /// and traced phase `b`.
    #[allow(clippy::too_many_arguments)]
    fn http_layers(
        &mut self,
        a: &Phase,
        b: &Phase,
        open: bool,
        build_secs: &[f64],
        revalidate_us_per_entry: f64,
        probes: &LayerProbes,
        constructions: &[Construction],
    ) {
        let first = self.next_id;
        let spanned: Vec<&Sample> = probes::stride(b.load.samples.len(), MAX_SPANNED)
            .into_iter()
            .map(|i| &b.load.samples[i])
            .collect();
        for (i, s) in spanned.iter().enumerate() {
            let req = first + i as u64;
            let parent = open.then(|| {
                let root = self
                    .tracer
                    .span_ns("request", s.due_ns, s.done_ns, None, req);
                self.tracer
                    .span_ns("loadgen.wait", s.due_ns, s.sent_ns, Some(root), req);
                root
            });
            let server = self
                .tracer
                .span_ns("server", s.sent_ns, s.done_ns, parent, req);
            if let Some(r) = s.outcome.receipt {
                let service = self.tracer.derived("service", server, r.total_ns);
                if r.solve_ns > 0 {
                    self.tracer.derived("solver", service, r.solve_ns);
                }
            }
        }
        self.next_id += spanned.len() as u64;

        let receipts: Vec<_> = b
            .load
            .samples
            .iter()
            .filter_map(|s| s.outcome.receipt.map(|r| (s, r)))
            .collect();
        let us = |f: &dyn Fn(&Sample, &crate::client::ReceiptFields) -> Option<u64>| {
            Dist::new(
                receipts
                    .iter()
                    .filter_map(|(s, r)| f(s, r))
                    .map(|ns| ns as f64 / 1e3)
                    .collect(),
            )
            .p50_or_zero()
        };
        let n = b.load.samples.len().max(1) as f64;
        let sent = b.load.sent.max(1) as f64;
        let r = &mut self.report;
        r.set(
            "server.self_us_p50",
            us(&|s, r| Some(s.rtt_ns().saturating_sub(r.total_ns))),
        );
        r.set(
            "server.bytes_per_req",
            b.load
                .samples
                .iter()
                .map(|s| s.outcome.wire_bytes as f64)
                .sum::<f64>()
                / n,
        );
        r.set(
            "service.inline_us_p50",
            us(&|_, r| (r.path == 0).then_some(r.total_ns)),
        );
        r.set(
            "service.wait_us_p50",
            us(&|_, r| (r.path != 0).then_some(r.total_ns - r.solve_ns.min(r.total_ns))),
        );
        r.set(
            "registry.hit_us_p50",
            us(&|_, r| (r.path == 4).then_some(r.total_ns)),
        );
        r.set(
            "solver.solve_us_p50",
            us(&|_, r| (r.solve_ns > 0).then_some(r.solve_ns)),
        );
        for (label, name) in dae_dvfs::ServePath::LABELS.iter().zip([
            "service.path_frac.inline-hit",
            "service.path_frac.cache-hit",
            "service.path_frac.flight-join",
            "service.path_frac.coalesced",
            "service.path_frac.registry-hit",
            "service.path_frac.solved",
        ]) {
            r.set(name, b.load.path(label) as f64 / sent);
        }
        let c = b.counters;
        r.set(
            "service.mean_batch",
            if c.batches > 0 {
                c.batched_requests as f64 / c.batches as f64
            } else {
                0.0
            },
        );
        r.set("service.max_queue_depth", c.max_queue_depth as f64);
        r.set("service.rejected", c.rejected as f64);
        r.set("service.failed", c.failed as f64);
        r.set("service.allocs_per_req", b.allocs as f64 / sent);
        r.set("registry.hits", c.registry_hits as f64);
        r.set("registry.writes", c.registry_writes as f64);
        r.set("registry.quarantined", c.quarantined as f64);
        r.set("registry.revalidate_us_per_entry", revalidate_us_per_entry);
        let lag = Dist::new(
            a.load
                .samples
                .iter()
                .chain(&b.load.samples)
                .map(|s| s.lag_ns() as f64 / 1e6)
                .collect(),
        );
        r.set("loadgen.lag_ms_p99", lag.pct(0.99).unwrap_or(0.0));
        let p50 = |samples: &mut dyn Iterator<Item = &Sample>| {
            Dist::new(samples.map(|s| s.latency_ns() as f64 / 1e3).collect()).p50_or_zero()
        };
        r.set(
            "trace.overhead_frac",
            overhead_frac(
                p50(&mut a.load.samples.iter()),
                p50(&mut b.load.samples.iter()),
            ),
        );
        let by_name = trace::self_us_by_name(self.tracer.spans());
        let layers: Vec<f64> = ["request", "loadgen.wait", "server", "service", "solver"]
            .iter()
            .map(|name| {
                let mut v = by_name.get(name).cloned().unwrap_or_default();
                v.resize(spanned.len().max(v.len()), 0.0);
                Dist::new(v).p50_or_zero()
            })
            .collect();
        let e2e = p50(&mut spanned.iter().copied());
        r.set("trace.residual_frac", residual_frac(e2e, &layers));
        self.probe_metrics(probes);
        self.construction_metrics(
            &build_secs.iter().map(|s| s * 1e3).collect::<Vec<_>>(),
            constructions,
        );
    }

    fn probe_metrics(&mut self, p: &LayerProbes) {
        let p50 = |v: &[f64]| Dist::new(v.to_vec()).p50_or_zero();
        let r = &mut self.report;
        r.set("registry.store_us_p50", p50(&p.store_us));
        r.set("artifact.render_us_p50", p50(&p.render_us));
        r.set("artifact.decode_us_p50", p50(&p.decode_us));
        r.set("artifact.fingerprint_us_p50", p50(&p.fingerprint_us));
        r.set("obs.plan_hash_us_p50", p50(&p.plan_hash_us));
        r.set("solver.plan_us_p50", p50(&p.plan_us));
        r.set("solver.sweep_us_per_window", p.sweep_us_per_window);
        r.set("solver.fill_us", p50(&p.fill_us));
        r.set("solver.extract_us", p50(&p.extract_us));
    }

    fn construction_metrics(&mut self, build_ms: &[f64], cs: &[Construction]) {
        let n = cs.len().max(1) as f64;
        let mean = |f: &dyn Fn(&Construction) -> f64| cs.iter().map(f).sum::<f64>() / n;
        let points: usize = cs.iter().map(|c| c.points).sum();
        let kept: usize = cs.iter().map(|c| c.kept).sum();
        let r = &mut self.report;
        r.set(
            "planner.build_ms_p50",
            Dist::new(build_ms.to_vec()).p50_or_zero(),
        );
        r.set("dse.explore_ms", mean(&|c| c.explore_ms));
        r.set("dse.points", points as f64 / n);
        r.set("pareto.kept_frac", kept as f64 / points.max(1) as f64);
        r.set("pareto.reduce_us", mean(&|c| c.reduce_us));
        r.set("tinyengine.lower_ms", mean(&|c| c.lower_ms + c.baseline_ms));
    }

    /// The traced HTTP run's probes: layer calls on `specs`, the
    /// registry store under the service's own keys, and planner
    /// constructions for every tenant.
    fn http_probes(
        &mut self,
        fixture: &[Tenant],
        specs: &[Spec],
        refs: &[Reference],
        keys: &[PlanKey],
    ) -> Res<(LayerProbes, Vec<Construction>)> {
        let store = PlanRegistry::open(self.work.join("store-probe")).map_err(|e| e.to_string())?;
        let mut id = self.next_id;
        let p = probes::layer_probes(
            &mut self.tracer,
            &mut id,
            fixture,
            specs,
            refs,
            Some((&store, keys)),
        )?;
        self.next_id = id;
        let mut cs = Vec::new();
        for _ in 0..CONSTRUCTION_REPS {
            for (model, board) in tenant_models() {
                let req = self.id();
                cs.push(probes::construction(
                    &mut self.tracer,
                    None,
                    req,
                    &model,
                    board,
                )?);
            }
        }
        Ok((p, cs))
    }

    /// Times `attach_registry` of a fresh service over `dir` and returns
    /// microseconds per stored entry.
    fn revalidate_probe(&mut self, fixture: &[Tenant], dir: &Path) -> Res<f64> {
        let entries = PlanRegistry::open(dir)
            .and_then(|r| r.entries())
            .map_err(|e| e.to_string())?;
        let mut service = PlanService::new(service_config()).map_err(|e| e.to_string())?;
        for t in fixture {
            service.register(t.planner.clone());
        }
        let registry = PlanRegistry::open(dir).map_err(|e| e.to_string())?;
        let (attached, us) = probes::timed(
            &mut self.tracer,
            "registry.revalidate",
            &mut self.next_id,
            || service.attach_registry(registry),
        );
        attached.map_err(|e| e.to_string())?;
        Ok(us / entries.max(1) as f64)
    }

    /// Service keys of the probe sample, from in-process receipts.
    fn probe_keys(
        svc: &PlanService,
        stack_keys: &[PlannerKey],
        specs: &[Spec],
    ) -> Res<Vec<PlanKey>> {
        probes::stride(specs.len(), probes::MAX_KEYS)
            .into_iter()
            .map(|i| {
                svc.plan_receipted(stack_keys[specs[i].tenant], &specs[i].request())
                    .map(|(_, receipt)| receipt.key)
                    .map_err(|e| e.to_string())
            })
            .collect()
    }

    /// Set-ups that end as soon as the server is bound, each over a fresh
    /// registry directory; returns their seconds and planner builds.
    fn throwaway_setups(
        &self,
        models: &[(Model, Board)],
        reps: usize,
    ) -> Res<(Vec<f64>, Vec<f64>)> {
        let (mut setups, mut builds) = (Vec::new(), Vec::new());
        for rep in 0..reps {
            let st = stack(models, &self.work.join(format!("setup-{rep}")))?;
            let ((), bind) = serve(&st, |_, _| ())?;
            setups.push(st.setup_secs + bind);
            builds.extend(&st.build_secs);
        }
        Ok((setups, builds))
    }

    fn hot_http(&mut self) -> Res<()> {
        let args = self.args;
        let models = tenant_models();
        let (fixture, _) = build_tenants(&models)?;
        let specs = hot_specs(&fixture);
        let refs = references(&fixture, &specs)?;
        let requests: Vec<Vec<u8>> = specs
            .iter()
            .map(|s| plan_request(&s.body(&fixture)))
            .collect();
        let mut rng = SplitMix64::new(args.seed);
        // Slack-form keys take the even Zipf ranks, window-form keys the
        // odd ones: the two forms cost differently to canonicalize, so
        // their traffic shares are fixed rather than left to the seed.
        let (slack, window): (Vec<usize>, Vec<usize>) =
            (0..specs.len()).partition(|&i| matches!(specs[i].budget, Budget::Slack(_)));
        let zipf = Zipf::new(slack, window, &mut rng);
        let seqs: Vec<Vec<usize>> = (0..self.clients)
            .map(|_| {
                let mut r = SplitMix64::new(rng.next_u64());
                (0..1 << 17).map(|_| zipf.sample(&mut r)).collect()
            })
            .collect();

        let (mut setups, mut builds) = self.throwaway_setups(&models, SETUP_REPS - 1)?;
        let dir = self.work.join("registry");
        let st = stack(&models, &dir)?;
        let send = http_send(&requests, &refs);
        let (clients, epoch, phases) = (self.clients, self.epoch, phase_secs(args));
        let (served, bind) = serve(&st, |svc, addr| -> Res<_> {
            let warm = closed_loop(
                1,
                epoch,
                None,
                connect(addr),
                |_, j| (j < specs.len() as u64).then_some(j as usize),
                &send,
            )?;
            let mut measured = Vec::new();
            for (k, secs) in phases.iter().enumerate() {
                let traced = k == 1;
                measured.push(Self::phase(svc, traced, || {
                    // Fresh client threads and connections every slice:
                    // where the scheduler places client and server
                    // threads sticks for a connection's life and moves
                    // its latency by up to a fifth, so each slice draws
                    // anew.
                    let end = Instant::now() + Duration::from_secs_f64(*secs);
                    let mut load = Load::default();
                    let mut slice = 0;
                    while Instant::now() < end {
                        let until = (Instant::now() + HOT_SLICE).min(end);
                        let offset = slice * (1 << 12);
                        load.absorb(closed_loop(
                            clients,
                            epoch,
                            Some(until),
                            connect(addr),
                            |c, j| Some(seqs[c][(offset + j as usize) % seqs[c].len()]),
                            &send,
                        )?);
                        slice += 1;
                    }
                    Ok(load)
                })?);
            }
            let keys = if args.trace {
                Self::probe_keys(svc, &st.keys, &specs)?
            } else {
                Vec::new()
            };
            Ok((warm, measured, keys))
        })?;
        let (warm, phases, keys) = served?;
        setups.push(st.setup_secs + bind);
        builds.extend(&st.build_secs);
        drop(st);

        self.report
            .check(warm.failed == 0 && warm.sent == specs.len() as u64, || {
                "pre-warm: a response differed from its reference".into()
            });
        for p in &phases {
            let (inline, sent) = (p.load.path("inline-hit"), p.load.sent);
            self.report.check(inline == sent, || {
                format!("hot-http must be 100% inline-hit: {inline} of {sent}")
            });
        }
        self.http_end_to_end(
            &setups,
            &phases.iter().collect::<Vec<_>>(),
            &refs,
            slices(args),
        );
        if args.trace {
            let (probes, cs) = self.http_probes(&fixture, &specs, &refs, &keys)?;
            let revalidate = self.revalidate_probe(&fixture, &dir)?;
            self.http_layers(
                &phases[0], &phases[1], false, &builds, revalidate, &probes, &cs,
            );
        }
        self.report.fact("clients", self.clients.to_string());
        self.report.fact("offered_rate", "\"closed loop\"");
        self.report.fact("keys", specs.len().to_string());
        Ok(())
    }

    fn cold_solve(&mut self) -> Res<()> {
        let args = self.args;
        let models = tenant_models();
        let (fixture, _) = build_tenants(&models)?;
        let mut rng = SplitMix64::new(args.seed);
        let schedules: Vec<Vec<u64>> = phase_secs(args)
            .iter()
            .map(|&secs| {
                poisson_schedule(COLD_RATE, Duration::from_secs_f64(secs), || unit(&mut rng))
            })
            .collect();
        let total: usize = schedules.iter().map(Vec::len).sum();
        let specs = distinct_specs(&fixture, total, &mut rng);
        let canonical: HashSet<(usize, bool, u64)> = specs
            .iter()
            .map(|s| {
                (
                    s.tenant,
                    s.solver == Solver::SequenceDp,
                    s.canonical_window(&fixture).to_bits(),
                )
            })
            .collect();
        self.report.check(canonical.len() == specs.len(), || {
            format!(
                "cold-solve keys must be distinct: {} of {}",
                canonical.len(),
                specs.len()
            )
        });
        let refs = references(&fixture, &specs)?;
        let requests: Vec<Vec<u8>> = specs
            .iter()
            .map(|s| plan_request(&s.body(&fixture)))
            .collect();

        let (mut setups, mut builds) = self.throwaway_setups(&models, SETUP_REPS - 1)?;
        let dir = self.work.join("registry");
        let st = stack(&models, &dir)?;
        let send = http_send(&requests, &refs);
        let (clients, epoch) = (self.clients, self.epoch);
        let (served, bind) = serve(&st, |svc, addr| -> Res<_> {
            let mut measured = Vec::new();
            let mut offset = 0;
            for (k, schedule) in schedules.iter().enumerate() {
                let start = (Instant::now() + OPEN_LEAD).saturating_duration_since(epoch);
                let due: Vec<u64> = schedule
                    .iter()
                    .map(|d| d + start.as_nanos() as u64)
                    .collect();
                let mut phase = Self::phase(svc, k == 1, || {
                    open_loop(clients, epoch, &due, connect(addr), |c, i| {
                        send(c, offset + i)
                    })
                })?;
                for s in &mut phase.load.samples {
                    s.key += offset as u32;
                }
                offset += schedule.len();
                measured.push(phase);
            }
            let keys = if args.trace {
                Self::probe_keys(svc, &st.keys, &specs)?
            } else {
                Vec::new()
            };
            Ok((measured, keys))
        })?;
        let (phases, keys) = served?;
        setups.push(st.setup_secs + bind);
        builds.extend(&st.build_secs);
        drop(st);

        for p in &phases {
            let c = p.counters;
            self.report.check(c.registry_hits == 0, || {
                format!(
                    "cold-solve must have zero registry hits, saw {}",
                    c.registry_hits
                )
            });
            let hits: u64 = ["inline-hit", "cache-hit", "flight-join"]
                .iter()
                .map(|l| p.load.path(l))
                .sum();
            self.report.check(hits == 0, || {
                format!("cold-solve answered {hits} requests from memory: a key repeated")
            });
        }
        self.http_end_to_end(
            &setups,
            &phases.iter().collect::<Vec<_>>(),
            &refs,
            slices(args),
        );
        if args.trace {
            let (probes, cs) = self.http_probes(&fixture, &specs, &refs, &keys)?;
            let revalidate = self.revalidate_probe(&fixture, &dir)?;
            self.http_layers(
                &phases[0], &phases[1], true, &builds, revalidate, &probes, &cs,
            );
        }
        self.report.fact("clients", self.clients.to_string());
        self.report.fact("offered_rate", COLD_RATE.to_string());
        self.report.fact("keys", specs.len().to_string());
        Ok(())
    }

    /// Fills `dir` with every spec's plan through a service over the
    /// fixture planners; returns how many answers differed from their
    /// reference.
    fn populate(fixture: &[Tenant], specs: &[Spec], refs: &[Reference], dir: &Path) -> Res<usize> {
        let mut service = PlanService::new(service_config()).map_err(|e| e.to_string())?;
        let keys: Vec<PlannerKey> = fixture
            .iter()
            .map(|t| service.register(t.planner.clone()))
            .collect();
        service
            .attach_registry(PlanRegistry::open(dir).map_err(|e| e.to_string())?)
            .map_err(|e| e.to_string())?;
        service.run(|svc| {
            let tickets = specs
                .iter()
                .map(|s| svc.submit(keys[s.tenant], &s.request()))
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| e.to_string())?;
            let mut wrong = 0;
            for (ticket, reference) in tickets.into_iter().zip(refs) {
                let served = ticket.wait_served().map_err(|e| e.to_string())?;
                wrong += usize::from(served.bytes()[..] != reference.bytes[..]);
            }
            Ok(wrong)
        })
    }

    fn restart_warm(&mut self) -> Res<()> {
        let args = self.args;
        let models = tenant_models();
        let (fixture, _) = build_tenants(&models)?;
        let mut rng = SplitMix64::new(args.seed);
        let specs = distinct_specs(&fixture, RESTART_KEYS, &mut rng);
        let refs = references(&fixture, &specs)?;
        let requests: Vec<Vec<u8>> = specs
            .iter()
            .map(|s| plan_request(&s.body(&fixture)))
            .collect();
        let dir = self.work.join("registry");
        let wrong = Self::populate(&fixture, &specs, &refs, &dir)?;
        self.report.check(wrong == 0, || {
            format!("fixture population: {wrong} answers differ")
        });
        let entries = PlanRegistry::open(&dir)
            .and_then(|r| r.entries())
            .map_err(|e| e.to_string())?;
        self.report.check(entries == specs.len(), || {
            format!(
                "fixture registry holds {entries} entries, want {}",
                specs.len()
            )
        });

        let send = http_send(&requests, &refs);
        // One client: with two, about one request in eight shares its
        // group's batch with the other client's and waits out its load as
        // well, a second mode that sits right on the p90.
        let (clients, epoch) = (1, self.epoch);
        let (mut setups, mut builds, mut revalidate, mut rounds) = (vec![], vec![], vec![], 0);
        let mut phases: Vec<Phase> = Vec::new();
        let mut keys = Vec::new();
        let mut end = Instant::now();
        for (k, secs) in phase_secs(args).into_iter().enumerate() {
            end += Duration::from_secs_f64(secs);
            let traced = k == 1;
            let mut phase = Phase::default();
            // Whole restarts only: a phase ends at the first restart
            // boundary past its deadline (at least one restart).
            while phase.load.sent == 0 || Instant::now() < end {
                let mut order: Vec<usize> = (0..specs.len()).collect();
                shuffle(&mut order, &mut rng);
                let st = stack(&models, &dir)?;
                let next = AtomicUsize::new(0);
                let (served, bind) = serve(&st, |svc, addr| -> Res<_> {
                    let p = Self::phase(svc, traced, || {
                        closed_loop(
                            clients,
                            epoch,
                            None,
                            connect(addr),
                            |_, _| order.get(next.fetch_add(1, Ordering::Relaxed)).copied(),
                            &send,
                        )
                    })?;
                    let keys = if traced {
                        Self::probe_keys(svc, &st.keys, &specs)?
                    } else {
                        Vec::new()
                    };
                    Ok((p, keys))
                })?;
                let (p, round_keys) = served?;
                if !round_keys.is_empty() {
                    keys = round_keys;
                }
                let stats = st.service.stats();
                let c = p.counters;
                let (registry_hits, sent) = (p.load.path("registry-hit"), p.load.sent);
                self.report.check(
                    c.batches == 0 && c.registry_writes == 0 && c.quarantined == 0,
                    || format!("restart-warm must not solve, write or quarantine: {c:?}"),
                );
                self.report.check(
                    registry_hits == sent && stats.registry_hits == specs.len() as u64,
                    || format!("restart-warm must be 100% registry-hit: {registry_hits} of {sent}"),
                );
                setups.push(st.setup_secs + bind);
                builds.extend(&st.build_secs);
                if traced {
                    revalidate.push(st.attach_secs * 1e6 / entries.max(1) as f64);
                }
                rounds += 1;
                phase.absorb(p);
            }
            phases.push(phase);
        }
        self.http_end_to_end(
            &setups,
            &phases.iter().collect::<Vec<_>>(),
            &refs,
            slices(args),
        );
        if args.trace {
            let (probes, cs) = self.http_probes(&fixture, &specs, &refs, &keys)?;
            let revalidate = median(&revalidate);
            self.http_layers(
                &phases[0], &phases[1], false, &builds, revalidate, &probes, &cs,
            );
        }
        self.report.fact("clients", clients.to_string());
        self.report.fact("offered_rate", "\"closed loop\"");
        self.report.fact("keys", specs.len().to_string());
        self.report.fact("restarts", rounds.to_string());
        Ok(())
    }

    fn plan_build(&mut self) -> Res<()> {
        let args = self.args;
        let mut rng = SplitMix64::new(args.seed);
        // Set-up (the models and boards) takes milliseconds; it is
        // repeated once per cycle of builds, so its median samples the
        // whole run rather than the process's first moments.
        let mut setups = Vec::new();
        let mut setup = || -> Res<Vec<Model>> {
            let t = Instant::now();
            let models = tinynn::models::paper_models();
            for board in [Board::F767, Board::Lean] {
                board.target()?;
            }
            setups.push(t.elapsed().as_secs_f64());
            Ok(models)
        };
        let models = setup()?;
        let pairs: Vec<(usize, Board)> = (0..models.len())
            .flat_map(|m| [(m, Board::F767), (m, Board::Lean)])
            .collect();
        // Every pair once and MobileNetV2 on the paper's F767 — the
        // headline configuration and the costliest build — twice: an odd
        // cycle puts the median inside one pair's distribution rather
        // than on the boundary between two.
        let mut cycle: Vec<usize> = (0..pairs.len()).collect();
        let headline = pairs
            .iter()
            .position(|&(m, b)| models[m].name == "mobilenet-v2" && b == Board::F767)
            .ok_or("paper models lack MobileNetV2")?;
        cycle.push(headline);
        shuffle(&mut cycle, &mut rng);
        let slacks: Vec<f64> = (0..10)
            .map(|i| 0.05 + 0.1 * i as f64 + 0.01 * unit(&mut rng))
            .collect();

        let mut tenants = Vec::new();
        let mut expected: Vec<(u64, Vec<DeploymentPlan>)> = Vec::new();
        for &(m, board) in &pairs {
            let planner = board.planner(&models[m])?;
            let baseline = planner.baseline_latency().map_err(|e| e.to_string())?;
            let windows: Vec<f64> = slacks.iter().map(|&s| qos_window(baseline, s)).collect();
            let plans = planner
                .sweep(windows.iter().copied())
                .map_err(|e| e.to_string())?;
            let fits = plans
                .iter()
                .zip(&windows)
                .all(|(p, &w)| p.predicted_latency_secs <= w);
            self.report.check(fits, || {
                format!("a {} plan overruns its window", models[m].name)
            });
            expected.push((baseline.to_bits(), plans));
            tenants.push(Tenant {
                name: format!("{}@{}", models[m].name, planner.target().id()),
                planner: Arc::new(planner),
                baseline,
            });
        }

        let op = |m: usize, board: Board| -> Res<(f64, Vec<DeploymentPlan>, Instant, Instant)> {
            let planner = board.planner(&models[m])?;
            let t1 = Instant::now();
            let baseline = planner.baseline_latency().map_err(|e| e.to_string())?;
            let t2 = Instant::now();
            let plans = planner
                .sweep(slacks.iter().map(|&s| qos_window(baseline, s)))
                .map_err(|e| e.to_string())?;
            Ok((baseline, plans, t1, t2))
        };
        let (mut latency, mut p50s, mut failed, mut secs) = (Vec::new(), Vec::new(), 0, 0.0);
        let (mut energy, mut plans_swept) = (0.0, 0usize);
        let (mut build_ms, mut sweep_us, mut cs) = (Vec::new(), Vec::new(), Vec::new());
        let mut stage_ms: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for (k, phase) in phase_secs(args).into_iter().enumerate() {
            let traced = k == 1;
            let start = Instant::now();
            let deadline = start + Duration::from_secs_f64(phase);
            let mut lat = Vec::new();
            while Instant::now() < deadline {
                setup()?;
                for &slot in &cycle {
                    let (m, board) = pairs[slot];
                    let t0 = Instant::now();
                    let result = op(m, board);
                    let t3 = Instant::now();
                    lat.push((
                        t0.duration_since(self.epoch).as_nanos() as u64,
                        (t3 - t0).as_secs_f64() * 1e3,
                    ));
                    let Ok((baseline, plans, t1, t2)) = result else {
                        failed += 1;
                        continue;
                    };
                    let (base_bits, want) = &expected[slot];
                    failed += usize::from(baseline.to_bits() != *base_bits || plans != *want);
                    energy += plans
                        .iter()
                        .map(|p| p.predicted_energy.as_f64())
                        .sum::<f64>();
                    plans_swept += plans.len();
                    if traced {
                        let id = self.id();
                        let root = self.tracer.span("plan-build.op", t0, t3, None, id);
                        self.tracer.span("planner.build", t0, t1, Some(root), id);
                        self.tracer.span("planner.baseline", t1, t2, Some(root), id);
                        self.tracer.span("solver.sweep", t2, t3, Some(root), id);
                        build_ms.push((t1 - t0).as_secs_f64() * 1e3);
                        sweep_us.push((t3 - t2).as_secs_f64() * 1e6 / slacks.len() as f64);
                        let c =
                            probes::construction(&mut self.tracer, None, id, &models[m], board)?;
                        for (stage, ms) in [
                            ("lower", c.lower_ms),
                            ("compile", c.compile_ms),
                            ("explore", c.explore_ms),
                            ("reduce", c.reduce_us / 1e3),
                        ] {
                            stage_ms.entry(stage).or_default().push(ms);
                        }
                        cs.push(c);
                    }
                }
            }
            secs += start.elapsed().as_secs_f64();
            p50s.push(Dist::new(lat.iter().map(|&(_, ms)| ms).collect()).p50_or_zero());
            latency.extend(lat);
        }
        self.report.ops(latency.len(), failed);
        let ops = latency.len() as f64;
        self.latency_metrics(
            &setups,
            &time_slices(&latency, slices(args)),
            ops / secs,
            energy / plans_swept.max(1) as f64 * 1e3,
        );
        if args.trace {
            let specs: Vec<Spec> = tenants
                .iter()
                .enumerate()
                .flat_map(|(t, tenant)| {
                    slacks.iter().map(move |&s| Spec {
                        tenant: t,
                        budget: Budget::Window(qos_window(tenant.baseline, s)),
                        solver: Solver::ReserveGrid,
                    })
                })
                .collect();
            let refs = references(&tenants, &specs)?;
            let mut id = self.next_id;
            let probes =
                probes::layer_probes(&mut self.tracer, &mut id, &tenants, &specs, &refs, None)?;
            self.next_id = id;
            self.probe_metrics(&probes);
            self.construction_metrics(&build_ms, &cs);
            self.report
                .set("solver.sweep_us_per_window", Dist::new(sweep_us).mean());
            self.report
                .set("trace.overhead_frac", overhead_frac(p50s[0], p50s[1]));
            let stages: Vec<f64> = stage_ms
                .values()
                .map(|v| Dist::new(v.clone()).p50_or_zero())
                .collect();
            self.report.set(
                "trace.residual_frac",
                residual_frac(Dist::new(build_ms).p50_or_zero(), &stages),
            );
        }
        self.report.fact("clients", "1");
        self.report.fact("offered_rate", "\"closed loop\"");
        self.report.fact("cycle", cycle.len().to_string());
        Ok(())
    }
}

/// `nproc`, commit and build profile.
fn host_facts(report: &mut Report, args: &Args) {
    report.fact("workload", format!("\"{}\"", args.workload.name()));
    report.fact("seed", args.seed.to_string());
    report.fact("seconds", args.seconds.to_string());
    report.fact("trace", args.trace.to_string());
    report.fact(
        "nproc",
        std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .to_string(),
    );
    report.fact("commit", format!("\"{}\"", commit()));
    report.fact(
        "profile",
        if cfg!(debug_assertions) {
            "\"debug\""
        } else {
            "\"release\""
        },
    );
}

/// The checked-out commit, read from `.git` when there is one.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let id = match head.strip_prefix("ref: ") {
        Some(name) => std::fs::read_to_string(Path::new(".git").join(name))
            .ok()
            .or_else(|| {
                std::fs::read_to_string(".git/packed-refs")
                    .ok()
                    .and_then(|packed| {
                        packed
                            .lines()
                            .find(|l| l.ends_with(name))
                            .map(|l| l[..l.find(' ').unwrap_or(0)].to_string())
                    })
            })
            .unwrap_or_default(),
        None => head.to_string(),
    };
    let id = id.trim();
    if id.len() >= 12 && id.chars().all(|c| c.is_ascii_hexdigit()) {
        id[..12].to_string()
    } else {
        "unknown".to_string()
    }
}

/// The process's peak resident set, in megabytes.
fn peak_rss_mb() -> Res<f64> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}
