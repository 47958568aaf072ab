//! The content-addressed on-disk plan registry: a persistent cold tier
//! below the [`crate::service::PlanService`] LRU.
//!
//! The in-memory plan cache is volatile — a process restart cold-solves
//! the world. This module gives artifacts a durable home: every
//! completed solve is written through to disk, and a cache miss consults
//! the registry before paying for a solve, so a restarted service warms
//! itself from the artifacts the previous process left behind.
//!
//! # Content addressing
//!
//! An entry's filename is the FNV-1a mix of its full
//! [`crate::service::PlanKey`] — `(model_fingerprint,
//! config_fingerprint, solver, window_bits, dp_resolution)` — rendered
//! as 16 hex digits plus `.json`. The key's window is the *canonical*
//! window (slack resolved against the baseline and snapped onto the
//! service's `qos_quantum_secs` grid, exactly like the in-memory path),
//! so a disk-warmed hit answers the same canonicalized requests the LRU
//! entry did, bit-identically.
//!
//! # Entry format
//!
//! Each file is a JSON envelope around the ordinary
//! [`crate::PlanArtifact`] schema: a discriminator, the envelope schema
//! version, the key fields the artifact itself does not carry (solver,
//! window bits, DP resolution), and the artifact object verbatim. The
//! fingerprints are *not* duplicated in the envelope — they are read
//! from the artifact, which [`crate::DeploymentPlan::from_artifact`]
//! re-validates against the serving planner on every load.
//!
//! # Atomicity & quarantine
//!
//! Writes go to a process-unique temp file in the registry directory and
//! are published with `rename`, so readers never observe a torn entry;
//! the directory is synced after the rename, so a published entry
//! survives power loss.
//! Corruption is still possible (truncation by a dying writer on another
//! filesystem, bit rot, manual tampering); any entry that fails to
//! decode, disagrees with its own content address, or mismatches the
//! serving planner is **quarantined** — moved into the `quarantine/`
//! subdirectory and counted — never served and never trusted again.
//! [`PlanRegistry::open`] performs no scan by itself;
//! [`crate::service::PlanService::attach_registry`] replays every stored
//! entry through [`crate::DeploymentPlan::from_artifact`] before the
//! registry serves its first hit (startup re-validation).

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::artifact::{json, PlanArtifact};
use crate::error::RegistryError;
use crate::pipeline::DeploymentPlan;
use crate::planner::Planner;
use crate::request::Solver;
use crate::service::{PlanKey, ServedPlan};

/// Version of the registry envelope schema this build writes and accepts.
pub const REGISTRY_SCHEMA_VERSION: u32 = 1;

/// The envelope's `"registry"` discriminator value.
const REGISTRY_KIND: &str = "dae-dvfs-plan-registry-entry";

/// Name of the quarantine subdirectory.
const QUARANTINE_DIR: &str = "quarantine";

/// Serializes a solver to its envelope tag. Shared with the receipt
/// surface (`crate::obs`), whose `solver` field uses the same tags.
pub(crate) fn solver_tag(solver: Solver) -> &'static str {
    match solver {
        Solver::ReserveGrid => "reserve-grid",
        Solver::SequenceDp => "sequence-dp",
    }
}

/// Parses an envelope solver tag back; `None` for unknown tags (which
/// quarantine the entry rather than erroring). Shared with the HTTP
/// handler, whose `"solver"` request field uses the same tags.
pub(crate) fn parse_solver(tag: &str) -> Option<Solver> {
    match tag {
        "reserve-grid" => Some(Solver::ReserveGrid),
        "sequence-dp" => Some(Solver::SequenceDp),
        _ => None,
    }
}

/// Point-in-time registry counters ([`PlanRegistry::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct RegistryStats {
    /// Cache misses answered from a stored artifact (no solve ran).
    pub hits: u64,
    /// Artifacts written through to disk after a solve.
    pub writes: u64,
    /// Entries moved to `quarantine/` (undecodable, address mismatch, or
    /// planner mismatch) — at startup re-validation or on a load.
    pub quarantined: u64,
}

/// The persistent cold tier: a directory of content-addressed
/// [`PlanArtifact`] files (see the [module docs](self)).
///
/// Attach one to a service with
/// [`crate::service::PlanService::attach_registry`]; the service then
/// consults it on every cache miss before solving and writes every fresh
/// solve through. All methods take `&self` — the registry is shared
/// across worker threads without extra locking (the filesystem's atomic
/// rename is the only synchronization the entries need).
#[derive(Debug)]
pub struct PlanRegistry {
    dir: PathBuf,
    hits: AtomicU64,
    writes: AtomicU64,
    quarantined: AtomicU64,
    /// Per-process temp-name discriminator; combined with the process id
    /// so concurrent writers (threads or processes) never collide.
    temp_seq: AtomicU64,
}

impl PlanRegistry {
    /// Opens (creating if absent) a registry rooted at `dir`, including
    /// its `quarantine/` subdirectory.
    ///
    /// # Errors
    ///
    /// [`RegistryError::Io`] when either directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, RegistryError> {
        let dir = dir.into();
        let io = |op: &'static str, path: &Path| {
            let path = path.display().to_string();
            move |e: std::io::Error| RegistryError::Io {
                op,
                path,
                reason: e.to_string(),
            }
        };
        fs::create_dir_all(&dir).map_err(io("create-dir", &dir))?;
        let quarantine = dir.join(QUARANTINE_DIR);
        fs::create_dir_all(&quarantine).map_err(io("create-dir", &quarantine))?;
        Ok(PlanRegistry {
            dir,
            hits: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            temp_seq: AtomicU64::new(0),
        })
    }

    /// The registry's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// A point-in-time counters snapshot.
    pub fn stats(&self) -> RegistryStats {
        RegistryStats {
            hits: self.hits.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
        }
    }

    /// Number of live (non-quarantined) entries currently on disk.
    ///
    /// # Errors
    ///
    /// [`RegistryError::Io`] when the registry directory cannot be read.
    pub fn entries(&self) -> Result<usize, RegistryError> {
        Ok(self.entry_paths()?.len())
    }

    /// The content-addressed path of `key`'s entry.
    fn entry_path(&self, key: PlanKey) -> PathBuf {
        self.dir.join(format!("{:016x}.json", key.fnv()))
    }

    /// Renders the envelope for `key` around pre-rendered artifact JSON.
    /// The artifact JSON is embedded verbatim — the envelope parser
    /// hands the nested object straight to [`PlanArtifact::from_value`],
    /// so the artifact bytes a load reproduces are exactly the bytes a
    /// store was given (and exactly the response bytes the service's
    /// byte cache serves).
    fn render_envelope(key: PlanKey, artifact_json: &str) -> String {
        let artifact_json = artifact_json.trim_end();
        let mut out = String::with_capacity(192 + artifact_json.len());
        json::lines(&mut out, |o| {
            o.str("registry", REGISTRY_KIND)
                .u64("registry_schema_version", REGISTRY_SCHEMA_VERSION.into())
                .str("solver", solver_tag(key.solver))
                .hex64("window_bits", key.window_bits)
                .u64("dp_resolution", key.dp_resolution as u64)
                .raw("artifact", artifact_json);
        });
        out.push('\n');
        out
    }

    /// Writes `artifact` under `key`'s content address: temp file in the
    /// same directory (synced), then an atomic rename, so a concurrent
    /// reader (or a crash) never observes a torn entry, then a sync of
    /// the directory, so the published name survives power loss.
    ///
    /// # Errors
    ///
    /// [`RegistryError::Io`] when the temp file cannot be written, the
    /// rename fails, or the directory cannot be synced (`"fsync-dir"`;
    /// the entry is then in place but not counted as a write). The
    /// caller may treat a failed store as advisory — the in-memory tier
    /// still holds the plan.
    pub fn store(&self, key: PlanKey, artifact: &PlanArtifact) -> Result<(), RegistryError> {
        self.store_json(key, &artifact.to_json())
    }

    /// [`PlanRegistry::store`] over artifact JSON the caller already
    /// rendered: the write-through path hands in the service's cached
    /// response bytes, so a solve is serialized exactly once — the same
    /// bytes land on disk, in the LRU, and on the wire.
    pub(crate) fn store_json(
        &self,
        key: PlanKey,
        artifact_json: &str,
    ) -> Result<(), RegistryError> {
        let final_path = self.entry_path(key);
        let temp_path = self.dir.join(format!(
            "tmp-{}-{}.part",
            std::process::id(),
            self.temp_seq.fetch_add(1, Ordering::Relaxed)
        ));
        let io = |op: &'static str, path: &Path| {
            let path = path.display().to_string();
            move |e: std::io::Error| RegistryError::Io {
                op,
                path,
                reason: e.to_string(),
            }
        };
        let text = Self::render_envelope(key, artifact_json);
        let write_all = |path: &Path| -> std::io::Result<()> {
            let mut f = fs::File::create(path)?;
            f.write_all(text.as_bytes())?;
            f.sync_all()
        };
        if let Err(e) = write_all(&temp_path).map_err(io("write", &temp_path)) {
            let _ = fs::remove_file(&temp_path);
            return Err(e);
        }
        if let Err(e) = fs::rename(&temp_path, &final_path).map_err(io("rename", &final_path)) {
            let _ = fs::remove_file(&temp_path);
            return Err(e);
        }
        // The rename lives in the directory, not the file: without
        // syncing the directory a published entry can vanish on power
        // loss. Until it is durable the write is not counted.
        fs::File::open(&self.dir)
            .and_then(|d| d.sync_all())
            .map_err(io("fsync-dir", &self.dir))?;
        self.writes.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Looks `key` up against the planner that will serve the plan:
    /// reads, decodes and fully validates the stored entry (envelope
    /// fields against the key, the content address, the canonical-window
    /// bits, and [`DeploymentPlan::from_artifact`] against `planner`).
    /// Any validation failure quarantines the file and reports a miss —
    /// a corrupt entry costs one extra solve, never a bad plan.
    ///
    /// The returned [`ServedPlan`] carries the canonical artifact bytes
    /// alongside the plan, rendered once here (a disk hit is a cold-tier
    /// event: it happens at most once per key per process; the LRU then
    /// serves the pair by `Arc` clone). Because the stored envelope
    /// embeds `to_json` output verbatim and the parser round-trips it
    /// bit-identically (pinned by the registry tests), these bytes equal
    /// the bytes the original store was given.
    pub(crate) fn load(&self, key: PlanKey, planner: &Planner) -> Option<ServedPlan> {
        let path = self.entry_path(key);
        let text = fs::read_to_string(&path).ok()?;
        match Self::decode_entry(&text, key, planner) {
            Ok((plan, artifact)) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                let bytes: Arc<[u8]> = artifact.to_json().into_bytes().into();
                Some(ServedPlan::new(Arc::new(plan), bytes))
            }
            Err(_) => {
                self.quarantine(&path);
                None
            }
        }
    }

    /// Decodes and validates one envelope, which must match `expected`
    /// exactly. Returns the validated plan together with the decoded
    /// artifact (so a load can render the canonical bytes without
    /// re-reading the file) and never panics — every failure is a typed
    /// reason used only to decide quarantine.
    fn decode_entry(
        text: &str,
        expected: PlanKey,
        planner: &Planner,
    ) -> Result<(DeploymentPlan, PlanArtifact), String> {
        let (key, artifact) = Self::decode_envelope(text)?;
        if key != expected {
            return Err("envelope key does not match the lookup key".into());
        }
        Self::validate(key, artifact, planner)
    }

    /// Validates a decoded envelope against the planner that serves it:
    /// the artifact must carry the key's canonical window bits and pass
    /// [`DeploymentPlan::from_artifact`].
    fn validate(
        key: PlanKey,
        artifact: PlanArtifact,
        planner: &Planner,
    ) -> Result<(DeploymentPlan, PlanArtifact), String> {
        if artifact.qos_secs.to_bits() != key.window_bits {
            // The stored plan must carry the *canonical* window — the
            // same slack-resolution + quantum snapping the in-memory hit
            // path serves — or a disk-warmed hit would not be
            // bit-identical to the originally served artifact.
            return Err("artifact qos_secs does not match the canonical window bits".into());
        }
        DeploymentPlan::from_artifact(&artifact, planner)
            .map(|plan| (plan, artifact))
            .map_err(|e| e.to_string())
    }

    /// Parses the envelope into its reconstructed key and artifact.
    fn decode_envelope(text: &str) -> Result<(PlanKey, PlanArtifact), String> {
        let value = json::parse(text).map_err(|e| e.to_string())?;
        let obj = value
            .as_object("registry entry")
            .map_err(|e| e.to_string())?;
        let kind = obj.get_str("registry").map_err(|e| e.to_string())?;
        if kind != REGISTRY_KIND {
            return Err(format!("not a registry entry: {kind:?}"));
        }
        let version = obj
            .get_u64("registry_schema_version")
            .map_err(|e| e.to_string())?;
        if version != u64::from(REGISTRY_SCHEMA_VERSION) {
            return Err(format!("unsupported registry schema version {version}"));
        }
        let solver = parse_solver(obj.get_str("solver").map_err(|e| e.to_string())?)
            .ok_or_else(|| "unknown solver tag".to_string())?;
        let window_bits = obj.get_hex64("window_bits").map_err(|e| e.to_string())?;
        let dp_resolution =
            usize::try_from(obj.get_u64("dp_resolution").map_err(|e| e.to_string())?)
                .map_err(|_| "dp_resolution out of range".to_string())?;
        let artifact = PlanArtifact::from_value(obj.get("artifact").map_err(|e| e.to_string())?)
            .map_err(|e| e.to_string())?;
        let key = PlanKey {
            model_fingerprint: artifact.model_fingerprint,
            config_fingerprint: artifact.config_fingerprint,
            solver,
            window_bits,
            dp_resolution,
        };
        Ok((key, artifact))
    }

    /// Moves a failed entry into `quarantine/` (overwriting any previous
    /// occupant of the name) and counts it. If even the move fails the
    /// file is deleted; either way it is never served again.
    fn quarantine(&self, path: &Path) {
        let dest = match path.file_name() {
            Some(name) => self.dir.join(QUARANTINE_DIR).join(name),
            None => return,
        };
        if fs::rename(path, &dest).is_err() {
            let _ = fs::remove_file(path);
        }
        self.quarantined.fetch_add(1, Ordering::Relaxed);
    }

    /// The live entry files, sorted by name so every scan order is
    /// deterministic.
    fn entry_paths(&self) -> Result<Vec<PathBuf>, RegistryError> {
        let read = fs::read_dir(&self.dir).map_err(|e| RegistryError::Io {
            op: "read-dir",
            path: self.dir.display().to_string(),
            reason: e.to_string(),
        })?;
        let mut paths: Vec<PathBuf> = read
            .filter_map(|entry| entry.ok())
            .map(|entry| entry.path())
            .filter(|p| p.is_file() && p.extension().and_then(|e| e.to_str()) == Some("json"))
            .collect();
        paths.sort();
        Ok(paths)
    }

    /// Startup re-validation: replays every stored entry through
    /// [`DeploymentPlan::from_artifact`] against the registered planners,
    /// matched by their stored fingerprints. Each entry is parsed once.
    ///
    /// Entries that fail to decode, whose filename disagrees with their
    /// recomputed content address, whose artifact window disagrees with
    /// the envelope's canonical bits, or that mismatch their fingerprint-
    /// matched planner are quarantined. Entries whose fingerprints match
    /// *no* registered planner are left in place untouched — they may
    /// belong to a planner a later process registers — but are never
    /// served to this one (loads are keyed, so a foreign key is never
    /// looked up).
    ///
    /// # Errors
    ///
    /// [`RegistryError::Io`] when the registry directory cannot be read;
    /// individual bad entries quarantine instead of erroring.
    pub(crate) fn revalidate(&self, planners: &[Arc<Planner>]) -> Result<(), RegistryError> {
        for path in self.entry_paths()? {
            let Ok(text) = fs::read_to_string(&path) else {
                self.quarantine(&path);
                continue;
            };
            let (key, artifact) = match Self::decode_envelope(&text) {
                Ok(decoded) => decoded,
                Err(_) => {
                    self.quarantine(&path);
                    continue;
                }
            };
            let expected_name = format!("{:016x}.json", key.fnv());
            if path.file_name().and_then(|n| n.to_str()) != Some(expected_name.as_str()) {
                self.quarantine(&path);
                continue;
            }
            let served_by = planners.iter().find(|p| {
                p.model_fingerprint() == key.model_fingerprint
                    && p.config_fingerprint() == key.config_fingerprint
            });
            if let Some(planner) = served_by {
                if Self::validate(key, artifact, planner).is_err() {
                    self.quarantine(&path);
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dse::DseConfig;
    use crate::request::PlanRequest;
    use tinynn::models::vww_sized;

    fn unique_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("dae-dvfs-registry-{}-{tag}", std::process::id()))
    }

    fn planner() -> Arc<Planner> {
        Arc::new(Planner::new(&vww_sized(32), &DseConfig::paper()).expect("planner builds"))
    }

    fn key_for(planner: &Planner, plan: &DeploymentPlan) -> PlanKey {
        PlanKey {
            model_fingerprint: planner.model_fingerprint(),
            config_fingerprint: planner.config_fingerprint(),
            solver: Solver::ReserveGrid,
            window_bits: plan.qos_secs.to_bits(),
            dp_resolution: planner.config().dp_resolution,
        }
    }

    #[test]
    fn store_load_roundtrip_is_bit_identical() {
        let dir = unique_dir("roundtrip");
        let _ = fs::remove_dir_all(&dir);
        let registry = PlanRegistry::open(&dir).expect("opens");
        let planner = planner();
        let plan = planner.plan(&PlanRequest::slack(0.3)).expect("plans");
        let key = key_for(&planner, &plan);
        let artifact = plan.to_artifact(&planner);
        registry.store(key, &artifact).expect("stores");
        assert_eq!(registry.entries().expect("counts"), 1);

        let loaded = registry.load(key, &planner).expect("loads");
        assert_eq!(
            loaded.plan().to_artifact(&planner).to_json(),
            artifact.to_json(),
            "disk-warmed artifact must be byte-identical"
        );
        assert_eq!(
            &**loaded.bytes(),
            artifact.to_json().as_bytes(),
            "cached response bytes must equal the stored artifact JSON"
        );
        let stats = registry.stats();
        assert_eq!((stats.hits, stats.writes, stats.quarantined), (1, 1, 0));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopened_registry_serves_the_same_bytes() {
        let dir = unique_dir("reopen");
        let _ = fs::remove_dir_all(&dir);
        let planner = planner();
        let plan = planner.plan(&PlanRequest::slack(0.3)).expect("plans");
        let key = key_for(&planner, &plan);
        let artifact = plan.to_artifact(&planner);
        {
            let registry = PlanRegistry::open(&dir).expect("opens");
            registry.store(key, &artifact).expect("stores");
        }
        let reopened = PlanRegistry::open(&dir).expect("reopens");
        reopened
            .revalidate(std::slice::from_ref(&planner))
            .expect("revalidates");
        assert_eq!(reopened.stats().quarantined, 0);
        let loaded = reopened.load(key, &planner).expect("loads");
        assert_eq!(
            loaded.plan().to_artifact(&planner).to_json(),
            artifact.to_json()
        );
        assert_eq!(&**loaded.bytes(), artifact.to_json().as_bytes());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_window_bits_are_quarantined_not_served() {
        let dir = unique_dir("window-bits");
        let _ = fs::remove_dir_all(&dir);
        let registry = PlanRegistry::open(&dir).expect("opens");
        let planner = planner();
        let plan = planner.plan(&PlanRequest::slack(0.3)).expect("plans");
        let mut key = key_for(&planner, &plan);
        // Store under a key whose canonical window disagrees with the
        // artifact's qos — the bugfix pin: such an entry must never be
        // served as a warm hit.
        key.window_bits = (plan.qos_secs * 2.0).to_bits();
        registry
            .store(key, &plan.to_artifact(&planner))
            .expect("stores");
        assert!(registry.load(key, &planner).is_none());
        let stats = registry.stats();
        assert_eq!((stats.hits, stats.quarantined), (0, 1));
        assert_eq!(registry.entries().expect("counts"), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn revalidate_quarantines_address_mismatches() {
        let dir = unique_dir("address");
        let _ = fs::remove_dir_all(&dir);
        let registry = PlanRegistry::open(&dir).expect("opens");
        let planner = planner();
        let plan = planner.plan(&PlanRequest::slack(0.3)).expect("plans");
        let key = key_for(&planner, &plan);
        registry
            .store(key, &plan.to_artifact(&planner))
            .expect("stores");
        // Rename the entry to a wrong address: the content no longer
        // matches the filename hash.
        let paths = registry.entry_paths().expect("lists");
        let wrong = dir.join("0000000000000000.json");
        fs::rename(&paths[0], &wrong).expect("renames");
        registry
            .revalidate(std::slice::from_ref(&planner))
            .expect("revalidates");
        assert_eq!(registry.stats().quarantined, 1);
        assert_eq!(registry.entries().expect("counts"), 0);
        assert!(dir
            .join(QUARANTINE_DIR)
            .join("0000000000000000.json")
            .exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_entries_survive_revalidation_unserved() {
        let dir = unique_dir("foreign");
        let _ = fs::remove_dir_all(&dir);
        let registry = PlanRegistry::open(&dir).expect("opens");
        let planner = planner();
        let plan = planner.plan(&PlanRequest::slack(0.3)).expect("plans");
        let key = key_for(&planner, &plan);
        registry
            .store(key, &plan.to_artifact(&planner))
            .expect("stores");
        // Revalidate against a planner set that does not include this
        // entry's fingerprints: the entry is kept, not quarantined.
        registry.revalidate(&[]).expect("revalidates");
        assert_eq!(registry.stats().quarantined, 0);
        assert_eq!(registry.entries().expect("counts"), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unknown_solver_tag_is_quarantined() {
        let dir = unique_dir("solver-tag");
        let _ = fs::remove_dir_all(&dir);
        let registry = PlanRegistry::open(&dir).expect("opens");
        let planner = planner();
        let plan = planner.plan(&PlanRequest::slack(0.3)).expect("plans");
        let key = key_for(&planner, &plan);
        registry
            .store(key, &plan.to_artifact(&planner))
            .expect("stores");
        let path = registry.entry_paths().expect("lists").remove(0);
        let text = fs::read_to_string(&path)
            .expect("reads")
            .replace("\"reserve-grid\"", "\"warp-drive\"");
        fs::write(&path, text).expect("writes");
        assert!(registry.load(key, &planner).is_none());
        assert_eq!(registry.stats().quarantined, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn envelope_bytes_are_pinned() {
        let key = PlanKey {
            model_fingerprint: 0x1588_4ffb_a99f_6c42,
            config_fingerprint: 0x384d_419b_0a84_7872,
            solver: Solver::SequenceDp,
            window_bits: 0.25f64.to_bits(),
            dp_resolution: 2000,
        };
        // The artifact is embedded verbatim, minus its trailing newline.
        let envelope = PlanRegistry::render_envelope(key, "{\n  \"artifact\": \"x\"\n}\n");
        let expected = concat!(
            "{\n",
            "  \"registry\": \"dae-dvfs-plan-registry-entry\",\n",
            "  \"registry_schema_version\": 1,\n",
            "  \"solver\": \"sequence-dp\",\n",
            "  \"window_bits\": \"3fd0000000000000\",\n",
            "  \"dp_resolution\": 2000,\n",
            "  \"artifact\": {\n",
            "  \"artifact\": \"x\"\n",
            "}\n",
            "}\n",
        );
        assert_eq!(envelope, expected);
    }
}
