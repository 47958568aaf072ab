//! Versioned, serializable deployment-plan artifacts.
//!
//! A [`crate::DeploymentPlan`] is the output of an expensive optimization
//! (DSE sweep + solver); this module makes it *portable*: a plan optimized
//! in one process can be written to JSON, shipped, validated against the
//! receiving planner and [`crate::Planner::deploy`]-ed in another process
//! — the compile-once / replay-many posture of the compiled schedules,
//! lifted to the whole plan.
//!
//! # Schema
//!
//! The artifact is a single JSON object, written and read by this
//! module's [`json`] writer and parser — the workspace's only JSON code
//! (it is offline, so no serde):
//!
//! ```json
//! {
//!   "artifact": "dae-dvfs-deployment-plan",
//!   "schema_version": 1,
//!   "target": "stm32f767",
//!   "model": "vww",
//!   "model_fingerprint": "9f86d081884c7d65",
//!   "config_fingerprint": "2c26b46b68ffc68f",
//!   "qos_secs": 0.0123,
//!   "predicted_latency_secs": 0.0119,
//!   "predicted_energy_j": 0.0009,
//!   "decisions": [
//!     {"layer": "pw3", "kind": "pointwise", "granularity": 8,
//!      "source": "hse", "source_hz": 50000000,
//!      "pllm": 25, "plln": 150, "pllp": 2,
//!      "latency_secs": 0.0004, "energy_j": 0.00003,
//!      "switches": 12, "first_stage_secs": 0.00002}
//!   ]
//! }
//! ```
//!
//! Floating-point values are emitted with Rust's shortest-round-trip
//! formatting and parsed with `str::parse::<f64>`, so a round trip is
//! bit-identical for every finite value (pinned by property tests).
//!
//! # Fingerprints & invalidation
//!
//! `model_fingerprint` hashes the lowered layer profiles,
//! `config_fingerprint` hashes the full [`DseConfig`] (modes, costs,
//! power/CPU/memory models, DP resolution). An import
//! ([`crate::DeploymentPlan::from_artifact`]) is rejected with
//! [`DaeDvfsError::ArtifactMismatch`] unless schema version, target id,
//! model name, both fingerprints *and* the decision count agree with the
//! receiving planner — the same invalidation rule compiled schedules
//! follow (any change to the model or the board description invalidates),
//! enforced across process boundaries.

use std::fmt::Write as _;

use stm32_power::Joules;
use stm32_rcc::{ClockSource, Hertz, PllConfig};
use tinynn::LayerKind;

use crate::dse::DseConfig;
use crate::error::DaeDvfsError;
use crate::pipeline::{DeploymentPlan, LayerDecision};
use crate::planner::Planner;
use crate::schedule::CompiledLayer;

/// Version of the artifact JSON schema this build writes and accepts.
pub const PLAN_ARTIFACT_SCHEMA_VERSION: u32 = 1;

/// The `"artifact"` discriminator value.
const ARTIFACT_KIND: &str = "dae-dvfs-deployment-plan";

// ---- fingerprints -------------------------------------------------------

/// 64-bit FNV-1a over a byte string (also the service cache's shard
/// mixer — one primitive, one set of constants).
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Fingerprint of a lowered model: the model name plus every compiled
/// layer profile. Any change to shapes, quantization-derived op counts or
/// layer order changes the fingerprint.
pub fn model_fingerprint(model_name: &str, layers: &[CompiledLayer]) -> u64 {
    let mut repr = String::from(model_name);
    for layer in layers {
        let _ = write!(repr, "|{:?}", layer.profile());
    }
    fnv1a(repr.as_bytes())
}

/// Fingerprint of a full exploration configuration (the board
/// description): modes, granularities, cache, switch costs, power, CPU
/// and memory models, DP resolution.
pub fn config_fingerprint(config: &DseConfig) -> u64 {
    fnv1a(format!("{config:?}").as_bytes())
}

// ---- the artifact type --------------------------------------------------

/// One serialized per-layer decision.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct ArtifactDecision {
    /// Layer name.
    pub layer: String,
    /// Layer kind (`depthwise` / `pointwise` / `rest`).
    pub kind: LayerKind,
    /// Chosen decoupling granularity.
    pub granularity: u8,
    /// The chosen HFO PLL configuration.
    pub hfo: PllConfig,
    /// Layer latency under this decision, seconds.
    pub latency_secs: f64,
    /// Layer energy under this decision, joules.
    pub energy_j: f64,
    /// Clock switches the layer performs.
    pub switches: u64,
    /// Duration of the layer's first staging segment, seconds.
    pub first_stage_secs: f64,
}

/// A versioned, serializable deployment plan.
///
/// Produce one with [`DeploymentPlan::to_artifact`], serialize with
/// [`PlanArtifact::to_json`], and on the receiving side parse with
/// [`PlanArtifact::from_json`] and validate + decode with
/// [`DeploymentPlan::from_artifact`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct PlanArtifact {
    /// Schema version the artifact was written with.
    pub schema_version: u32,
    /// Identifier of the target platform the plan was optimized for.
    pub target: String,
    /// Model name.
    pub model: String,
    /// Fingerprint of the lowered model (see [`model_fingerprint`]).
    pub model_fingerprint: u64,
    /// Fingerprint of the board configuration (see
    /// [`config_fingerprint`]).
    pub config_fingerprint: u64,
    /// The QoS window the plan was optimized for, seconds.
    pub qos_secs: f64,
    /// Predicted inference latency, seconds.
    pub predicted_latency_secs: f64,
    /// Predicted inference energy, joules.
    pub predicted_energy_j: f64,
    /// Per-layer decisions in execution order.
    pub decisions: Vec<ArtifactDecision>,
}

impl PlanArtifact {
    /// Packages a plan under explicit provenance (target id and
    /// fingerprints). [`DeploymentPlan::to_artifact`] is the planner-aware
    /// convenience over this.
    pub fn from_plan(
        plan: &DeploymentPlan,
        target: impl Into<String>,
        model_fingerprint: u64,
        config_fingerprint: u64,
    ) -> Self {
        PlanArtifact {
            schema_version: PLAN_ARTIFACT_SCHEMA_VERSION,
            target: target.into(),
            model: plan.model.clone(),
            model_fingerprint,
            config_fingerprint,
            qos_secs: plan.qos_secs,
            predicted_latency_secs: plan.predicted_latency_secs,
            predicted_energy_j: plan.predicted_energy.as_f64(),
            decisions: plan
                .decisions
                .iter()
                .map(|d| ArtifactDecision {
                    layer: d.name.clone(),
                    kind: d.kind,
                    granularity: d.point.granularity.0,
                    hfo: d.point.hfo,
                    latency_secs: d.point.latency_secs,
                    energy_j: d.point.energy.as_f64(),
                    switches: d.point.switches,
                    first_stage_secs: d.point.first_stage_secs,
                })
                .collect(),
        }
    }

    /// Decodes the artifact back into a [`DeploymentPlan`] *without*
    /// provenance validation — the raw inverse of
    /// [`PlanArtifact::from_plan`]. Use [`DeploymentPlan::from_artifact`]
    /// for the validated import path.
    ///
    /// # Errors
    ///
    /// [`DaeDvfsError::ArtifactParse`] if a decision's PLL parameters are
    /// outside the datasheet windows, or any time/energy value is
    /// negative or non-finite (JSON numbers like `1e999` parse to
    /// infinity; letting them through would produce plans the writer
    /// cannot re-serialize).
    pub fn to_plan_unchecked(&self) -> Result<DeploymentPlan, DaeDvfsError> {
        let finite = |what: &str, unit: &str, v: f64| {
            if v.is_finite() && v >= 0.0 {
                Ok(v)
            } else {
                Err(parse_err(format!(
                    "{what}: {unit} must be non-negative and finite, got {v}"
                )))
            }
        };
        let energy = |what: &str, j: f64| finite(what, "energy", j).map(Joules::new);
        let time = |what: &str, secs: f64| finite(what, "time", secs);
        let decisions = self
            .decisions
            .iter()
            .map(|d| {
                d.hfo.validate().map_err(|e| DaeDvfsError::ArtifactParse {
                    reason: format!("layer {:?}: invalid PLL configuration: {e}", d.layer),
                })?;
                Ok(LayerDecision {
                    name: d.layer.clone(),
                    kind: d.kind,
                    point: crate::dse::DsePoint {
                        granularity: crate::dae::Granularity(d.granularity),
                        hfo: d.hfo,
                        latency_secs: time(&d.layer, d.latency_secs)?,
                        energy: energy(&d.layer, d.energy_j)?,
                        switches: d.switches,
                        first_stage_secs: time(&d.layer, d.first_stage_secs)?,
                    },
                })
            })
            .collect::<Result<Vec<_>, DaeDvfsError>>()?;
        Ok(DeploymentPlan {
            model: self.model.clone(),
            qos_secs: time("qos_secs", self.qos_secs)?,
            decisions,
            predicted_latency_secs: time("predicted_latency_secs", self.predicted_latency_secs)?,
            predicted_energy: energy("predicted_energy_j", self.predicted_energy_j)?,
        })
    }

    /// Serializes the artifact to its JSON schema (the [`json::lines`]
    /// layout, newline-terminated).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + 256 * self.decisions.len());
        json::lines(&mut out, |o| {
            o.str("artifact", ARTIFACT_KIND)
                .u64("schema_version", self.schema_version.into())
                .str("target", &self.target)
                .str("model", &self.model)
                .hex64("model_fingerprint", self.model_fingerprint)
                .hex64("config_fingerprint", self.config_fingerprint)
                .f64("qos_secs", self.qos_secs)
                .f64("predicted_latency_secs", self.predicted_latency_secs)
                .f64("predicted_energy_j", self.predicted_energy_j)
                .array("decisions", &self.decisions, |out, d| {
                    let (source, source_hz) = match d.hfo.source() {
                        ClockSource::Hsi => ("hsi", 0),
                        ClockSource::Hse(f) => ("hse", f.as_u64()),
                    };
                    json::compact(out, |o| {
                        o.str("layer", &d.layer)
                            .str("kind", d.kind.as_str())
                            .u64("granularity", d.granularity.into())
                            .str("source", source)
                            .u64("source_hz", source_hz)
                            .u64("pllm", d.hfo.pllm().into())
                            .u64("plln", d.hfo.plln().into())
                            .u64("pllp", d.hfo.pllp().into())
                            .f64("latency_secs", d.latency_secs)
                            .f64("energy_j", d.energy_j)
                            .u64("switches", d.switches)
                            .f64("first_stage_secs", d.first_stage_secs);
                    });
                });
        });
        out.push('\n');
        out
    }

    /// Parses an artifact from its JSON schema.
    ///
    /// # Errors
    ///
    /// [`DaeDvfsError::ArtifactParse`] for malformed JSON, a wrong
    /// `"artifact"` discriminator, missing fields or out-of-range values.
    pub fn from_json(text: &str) -> Result<Self, DaeDvfsError> {
        Self::from_value(&json::parse(text)?)
    }

    /// Parses an artifact from an already-parsed [`json::Value`] — the
    /// same decoding as [`PlanArtifact::from_json`], for callers that
    /// embed an artifact inside a larger JSON document (e.g. the on-disk
    /// registry's envelope, `crate::registry`).
    ///
    /// # Errors
    ///
    /// [`DaeDvfsError::ArtifactParse`] under the same conditions as
    /// [`PlanArtifact::from_json`].
    pub fn from_value(value: &json::Value<'_>) -> Result<Self, DaeDvfsError> {
        let obj = value.as_object("artifact root")?;
        let kind = obj.get_str("artifact")?;
        if kind != ARTIFACT_KIND {
            return Err(parse_err(format!(
                "not a deployment-plan artifact: {kind:?}"
            )));
        }
        let decisions_value = obj.get("decisions")?;
        let decisions = decisions_value
            .as_array("decisions")?
            .iter()
            .map(|v| {
                let d = v.as_object("decision")?;
                let source = match d.get_str("source")? {
                    "hsi" => ClockSource::Hsi,
                    "hse" => ClockSource::hse(Hertz::new(d.get_u64("source_hz")?)),
                    other => return Err(parse_err(format!("unknown clock source {other:?}"))),
                };
                let kind = match d.get_str("kind")? {
                    "depthwise" => LayerKind::Depthwise,
                    "pointwise" => LayerKind::Pointwise,
                    "rest" => LayerKind::Rest,
                    other => return Err(parse_err(format!("unknown layer kind {other:?}"))),
                };
                let granularity = u8::try_from(d.get_u64("granularity")?)
                    .map_err(|_| parse_err("granularity out of range".into()))?;
                Ok(ArtifactDecision {
                    layer: d.get_str("layer")?.to_string(),
                    kind,
                    granularity,
                    hfo: PllConfig::new_unchecked(
                        source,
                        u32::try_from(d.get_u64("pllm")?)
                            .map_err(|_| parse_err("pllm out of range".into()))?,
                        u32::try_from(d.get_u64("plln")?)
                            .map_err(|_| parse_err("plln out of range".into()))?,
                        u32::try_from(d.get_u64("pllp")?)
                            .map_err(|_| parse_err("pllp out of range".into()))?,
                    ),
                    latency_secs: d.get_f64("latency_secs")?,
                    energy_j: d.get_f64("energy_j")?,
                    switches: d.get_u64("switches")?,
                    first_stage_secs: d.get_f64("first_stage_secs")?,
                })
            })
            .collect::<Result<Vec<_>, DaeDvfsError>>()?;
        Ok(PlanArtifact {
            schema_version: u32::try_from(obj.get_u64("schema_version")?)
                .map_err(|_| parse_err("schema_version out of range".into()))?,
            target: obj.get_str("target")?.to_string(),
            model: obj.get_str("model")?.to_string(),
            model_fingerprint: obj.get_hex64("model_fingerprint")?,
            config_fingerprint: obj.get_hex64("config_fingerprint")?,
            qos_secs: obj.get_f64("qos_secs")?,
            predicted_latency_secs: obj.get_f64("predicted_latency_secs")?,
            predicted_energy_j: obj.get_f64("predicted_energy_j")?,
            decisions,
        })
    }
}

impl DeploymentPlan {
    /// Packages this plan as a versioned artifact carrying the planner's
    /// target id and model/configuration fingerprints.
    pub fn to_artifact(&self, planner: &Planner) -> PlanArtifact {
        PlanArtifact::from_plan(
            self,
            planner.target().id(),
            planner.model_fingerprint(),
            planner.config_fingerprint(),
        )
    }

    /// Validates an artifact against `planner` and decodes it back into a
    /// deployable plan.
    ///
    /// # Errors
    ///
    /// [`DaeDvfsError::ArtifactMismatch`] if the schema version, target
    /// id, model name, either fingerprint or the decision count disagree
    /// with the planner; [`DaeDvfsError::ArtifactParse`] if a decision is
    /// undecodable.
    pub fn from_artifact(
        artifact: &PlanArtifact,
        planner: &Planner,
    ) -> Result<DeploymentPlan, DaeDvfsError> {
        let mismatch = |field: &'static str, expected: String, found: String| {
            Err(DaeDvfsError::ArtifactMismatch {
                field,
                expected,
                found,
            })
        };
        if artifact.schema_version != PLAN_ARTIFACT_SCHEMA_VERSION {
            return mismatch(
                "schema_version",
                PLAN_ARTIFACT_SCHEMA_VERSION.to_string(),
                artifact.schema_version.to_string(),
            );
        }
        if artifact.target != planner.target().id() {
            return mismatch(
                "target",
                planner.target().id().to_string(),
                artifact.target.clone(),
            );
        }
        if artifact.model != planner.model().name {
            return mismatch(
                "model",
                planner.model().name.clone(),
                artifact.model.clone(),
            );
        }
        let expected_model = planner.model_fingerprint();
        if artifact.model_fingerprint != expected_model {
            return mismatch(
                "model_fingerprint",
                format!("{expected_model:016x}"),
                format!("{:016x}", artifact.model_fingerprint),
            );
        }
        let expected_config = planner.config_fingerprint();
        if artifact.config_fingerprint != expected_config {
            return mismatch(
                "config_fingerprint",
                format!("{expected_config:016x}"),
                format!("{:016x}", artifact.config_fingerprint),
            );
        }
        if artifact.decisions.len() != planner.layers().len() {
            return mismatch(
                "decisions",
                planner.layers().len().to_string(),
                artifact.decisions.len().to_string(),
            );
        }
        artifact.to_plan_unchecked()
    }
}

// ---- JSON primitives ----------------------------------------------------

fn parse_err(reason: String) -> DaeDvfsError {
    DaeDvfsError::ArtifactParse { reason }
}

pub mod json {
    //! The workspace's one JSON writer and one JSON parser.
    //!
    //! The parser ([`parse`]) reads the subset every document here uses:
    //! objects, arrays, strings (with escapes), numbers, booleans and null,
    //! nested at most [`MAX_DEPTH`] deep. Its [`Value`] tree borrows from
    //! the parsed text: numbers are borrowed raw text (so `f64` parsing is
    //! exact), and strings and keys are borrowed unless they contain
    //! escapes, so a parse allocates only for arrays, objects and escaped
    //! strings.
    //!
    //! The writer streams fields straight into a `String` in one of two
    //! layouts, picked by the kind of document: [`compact`] (receipts, trace
    //! lines, error and request bodies) or [`lines`] (plan artifacts,
    //! registry envelopes, `/stats` and the report files). Every emitter in
    //! the workspace goes through it, so escaping and number formatting
    //! cannot diverge, and every document it writes reads back with
    //! [`parse`].

    use std::borrow::Cow;
    use std::fmt::Write as _;

    use super::parse_err;
    use crate::error::DaeDvfsError;

    /// Deepest `[`/`{` nesting [`parse`] accepts. Real documents nest at
    /// most 4 deep (registry envelope → artifact → decisions → decision);
    /// the bound keeps a hostile request body from exhausting the stack
    /// (RFC 8259 §9 permits the limit).
    pub const MAX_DEPTH: usize = 128;

    /// Writes one compact JSON object into `out`: `{"a": 1, "b": 2}`.
    /// `fields` adds the members in order.
    pub fn compact(out: &mut String, fields: impl FnOnce(&mut Writer<'_>)) {
        out.push('{');
        let mut writer = Writer {
            out,
            lines: false,
            empty: true,
        };
        fields(&mut writer);
        writer.out.push('}');
    }

    /// Writes one JSON object into `out` with each top-level field on its
    /// own line and each array element on its own line; nested values are
    /// compact. The diff-friendly layout of documents people read.
    pub fn lines(out: &mut String, fields: impl FnOnce(&mut Writer<'_>)) {
        out.push_str("{\n");
        let mut writer = Writer {
            out,
            lines: true,
            empty: true,
        };
        fields(&mut writer);
        writer.out.push_str(if writer.empty { "}" } else { "\n}" });
    }

    /// The members of one object being written by [`compact`] or
    /// [`lines`]. Each method appends one field and returns the writer.
    pub struct Writer<'a> {
        out: &'a mut String,
        lines: bool,
        empty: bool,
    }

    impl Writer<'_> {
        /// Starts the next field (separator, indent, quoted key) and
        /// returns the buffer its value goes into.
        fn key(&mut self, key: &str) -> &mut String {
            if !self.empty {
                self.out.push_str(if self.lines { ",\n" } else { ", " });
            }
            if self.lines {
                self.out.push_str("  ");
            }
            self.empty = false;
            escape(self.out, key);
            self.out.push_str(": ");
            self.out
        }

        /// A string, escaped and quoted.
        pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
            escape(self.key(key), value);
            self
        }

        /// An integer.
        pub fn u64(&mut self, key: &str, value: u64) -> &mut Self {
            let _ = write!(self.key(key), "{value}");
            self
        }

        /// A finite `f64` in Rust's shortest round-trip form, so parsing
        /// the text recovers the exact bits (`3` for integral values,
        /// `-0` for negative zero).
        pub fn f64(&mut self, key: &str, value: f64) -> &mut Self {
            debug_assert!(value.is_finite(), "JSON has no non-finite numbers");
            let _ = write!(self.key(key), "{value}");
            self
        }

        /// An `f64` with exactly `decimals` fractional digits, for reports.
        pub fn fixed(&mut self, key: &str, value: f64, decimals: usize) -> &mut Self {
            let _ = write!(self.key(key), "{value:.decimals$}");
            self
        }

        /// A 64-bit fingerprint as a quoted 16-digit hex string (read back
        /// with [`Object::get_hex64`]).
        pub fn hex64(&mut self, key: &str, value: u64) -> &mut Self {
            let _ = write!(self.key(key), "\"{value:016x}\"");
            self
        }

        /// An already-rendered JSON value, embedded verbatim.
        pub fn raw(&mut self, key: &str, json: &str) -> &mut Self {
            self.key(key).push_str(json);
            self
        }

        /// A nested object, always compact.
        pub fn object(&mut self, key: &str, fields: impl FnOnce(&mut Writer<'_>)) -> &mut Self {
            compact(self.key(key), fields);
            self
        }

        /// An array; `element` writes each item's value into the buffer
        /// (objects with [`compact`]). In a [`lines`] document every
        /// element gets its own line. An empty array is `[]`.
        pub fn array<T>(
            &mut self,
            key: &str,
            items: impl IntoIterator<Item = T>,
            mut element: impl FnMut(&mut String, T),
        ) -> &mut Self {
            let (open, separator, close) = if self.lines {
                ("[\n    ", ",\n    ", "\n  ]")
            } else {
                ("[", ", ", "]")
            };
            let out = self.key(key);
            let mut empty = true;
            for item in items {
                out.push_str(if empty { open } else { separator });
                empty = false;
                element(out, item);
            }
            out.push_str(if empty { "[]" } else { close });
            self
        }
    }

    /// The one JSON string escaper: quotes `s`, escaping `"`, `\` and
    /// the control characters (`\n`, `\r`, `\t`, else `\u00XX`).
    fn escape(out: &mut String, s: &str) {
        out.push('"');
        let mut run = 0;
        for (i, b) in s.bytes().enumerate() {
            if !matches!(b, b'"' | b'\\' | 0..=0x1f) {
                continue;
            }
            // Escapable bytes are ASCII, so `i` is a char boundary.
            out.push_str(&s[run..i]);
            run = i + 1;
            match b {
                b'"' => out.push_str("\\\""),
                b'\\' => out.push_str("\\\\"),
                b'\n' => out.push_str("\\n"),
                b'\r' => out.push_str("\\r"),
                b'\t' => out.push_str("\\t"),
                _ => {
                    let _ = write!(out, "\\u{b:04x}");
                }
            }
        }
        out.push_str(&s[run..]);
        out.push('"');
    }

    /// A parsed JSON value, borrowing from the text it was parsed from.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Value<'a> {
        Null,
        Bool(bool),
        Num(&'a str),
        Str(Cow<'a, str>),
        Arr(Vec<Value<'a>>),
        Obj(Vec<(Cow<'a, str>, Value<'a>)>),
    }

    impl<'a> Value<'a> {
        pub fn as_object(&self, what: &str) -> Result<Object<'_, 'a>, DaeDvfsError> {
            match self {
                Value::Obj(fields) => Ok(Object { fields }),
                other => Err(parse_err(format!("{what}: expected object, got {other:?}"))),
            }
        }

        pub fn as_array(&self, what: &str) -> Result<&[Value<'a>], DaeDvfsError> {
            match self {
                Value::Arr(items) => Ok(items),
                other => Err(parse_err(format!("{what}: expected array, got {other:?}"))),
            }
        }
    }

    /// Field access over a parsed object (`'v` is the borrow of the
    /// tree, `'a` of the parsed text). The first field with a key wins.
    pub struct Object<'v, 'a> {
        fields: &'v [(Cow<'a, str>, Value<'a>)],
    }

    impl<'v, 'a> Object<'v, 'a> {
        pub fn get(&self, key: &'static str) -> Result<&'v Value<'a>, DaeDvfsError> {
            self.fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| parse_err(format!("missing field {key:?}")))
        }

        /// A string field as parsed: borrowed from the text unless it
        /// had escapes, so it can outlive the tree.
        pub fn get_cow(&self, key: &'static str) -> Result<Cow<'a, str>, DaeDvfsError> {
            match self.get(key)? {
                Value::Str(s) => Ok(s.clone()),
                other => Err(parse_err(format!("{key}: expected string, got {other:?}"))),
            }
        }

        pub fn get_str(&self, key: &'static str) -> Result<&'v str, DaeDvfsError> {
            match self.get(key)? {
                Value::Str(s) => Ok(s),
                other => Err(parse_err(format!("{key}: expected string, got {other:?}"))),
            }
        }

        pub fn get_f64(&self, key: &'static str) -> Result<f64, DaeDvfsError> {
            match self.get(key)? {
                Value::Num(raw) => raw
                    .parse::<f64>()
                    .map_err(|e| parse_err(format!("{key}: bad number {raw:?}: {e}"))),
                other => Err(parse_err(format!("{key}: expected number, got {other:?}"))),
            }
        }

        pub fn get_u64(&self, key: &'static str) -> Result<u64, DaeDvfsError> {
            match self.get(key)? {
                Value::Num(raw) => raw
                    .parse::<u64>()
                    .map_err(|e| parse_err(format!("{key}: bad integer {raw:?}: {e}"))),
                other => Err(parse_err(format!("{key}: expected integer, got {other:?}"))),
            }
        }

        /// A 64-bit fingerprint serialized as a 16-digit hex string.
        pub fn get_hex64(&self, key: &'static str) -> Result<u64, DaeDvfsError> {
            let s = self.get_str(key)?;
            u64::from_str_radix(s, 16)
                .map_err(|e| parse_err(format!("{key}: bad fingerprint {s:?}: {e}")))
        }
    }

    /// Parses a complete JSON document (one value plus whitespace). The
    /// returned tree borrows from `text`.
    pub fn parse(text: &str) -> Result<Value<'_>, DaeDvfsError> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(parse_err(format!("trailing characters at byte {}", p.pos)));
        }
        Ok(value)
    }

    struct Parser<'a> {
        text: &'a str,
        bytes: &'a [u8],
        pos: usize,
        /// Arrays and objects currently open around `pos`.
        depth: usize,
    }

    impl<'a> Parser<'a> {
        fn skip_ws(&mut self) {
            while let Some(&b) = self.bytes.get(self.pos) {
                if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                    self.pos += 1;
                } else {
                    break;
                }
            }
        }

        fn peek(&self) -> Result<u8, DaeDvfsError> {
            self.bytes
                .get(self.pos)
                .copied()
                .ok_or_else(|| parse_err("unexpected end of input".into()))
        }

        fn expect(&mut self, b: u8) -> Result<(), DaeDvfsError> {
            if self.peek()? == b {
                self.pos += 1;
                Ok(())
            } else {
                Err(parse_err(format!(
                    "expected {:?} at byte {}",
                    b as char, self.pos
                )))
            }
        }

        fn expect_literal(&mut self, lit: &str) -> Result<(), DaeDvfsError> {
            if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
                self.pos += lit.len();
                Ok(())
            } else {
                Err(parse_err(format!("expected {lit:?} at byte {}", self.pos)))
            }
        }

        fn value(&mut self) -> Result<Value<'a>, DaeDvfsError> {
            match self.peek()? {
                open @ (b'{' | b'[') => {
                    if self.depth == MAX_DEPTH {
                        return Err(parse_err(format!(
                            "nesting deeper than {MAX_DEPTH} levels at byte {}",
                            self.pos
                        )));
                    }
                    self.depth += 1;
                    let value = if open == b'{' {
                        self.object()
                    } else {
                        self.array()
                    };
                    self.depth -= 1;
                    value
                }
                b'"' => Ok(Value::Str(self.string()?)),
                b't' => self.expect_literal("true").map(|()| Value::Bool(true)),
                b'f' => self.expect_literal("false").map(|()| Value::Bool(false)),
                b'n' => self.expect_literal("null").map(|()| Value::Null),
                b'-' | b'0'..=b'9' => self.number(),
                other => Err(parse_err(format!(
                    "unexpected character {:?} at byte {}",
                    other as char, self.pos
                ))),
            }
        }

        fn object(&mut self) -> Result<Value<'a>, DaeDvfsError> {
            self.expect(b'{')?;
            let mut fields = Vec::new();
            self.skip_ws();
            if self.peek()? == b'}' {
                self.pos += 1;
                return Ok(Value::Obj(fields));
            }
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.expect(b':')?;
                self.skip_ws();
                let value = self.value()?;
                fields.push((key, value));
                self.skip_ws();
                match self.peek()? {
                    b',' => self.pos += 1,
                    b'}' => {
                        self.pos += 1;
                        return Ok(Value::Obj(fields));
                    }
                    other => {
                        return Err(parse_err(format!(
                            "expected ',' or '}}', got {:?} at byte {}",
                            other as char, self.pos
                        )))
                    }
                }
            }
        }

        fn array(&mut self) -> Result<Value<'a>, DaeDvfsError> {
            self.expect(b'[')?;
            let mut items = Vec::new();
            self.skip_ws();
            if self.peek()? == b']' {
                self.pos += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                self.skip_ws();
                items.push(self.value()?);
                self.skip_ws();
                match self.peek()? {
                    b',' => self.pos += 1,
                    b']' => {
                        self.pos += 1;
                        return Ok(Value::Arr(items));
                    }
                    other => {
                        return Err(parse_err(format!(
                            "expected ',' or ']', got {:?} at byte {}",
                            other as char, self.pos
                        )))
                    }
                }
            }
        }

        /// A string: a slice of the text unless it has escapes, which
        /// switch it to an owned copy.
        fn string(&mut self) -> Result<Cow<'a, str>, DaeDvfsError> {
            self.expect(b'"')?;
            let mut owned: Option<String> = None;
            loop {
                let start = self.pos;
                // Fast-forward over the unescaped run.
                while let Some(&b) = self.bytes.get(self.pos) {
                    if b == b'"' || b == b'\\' {
                        break;
                    }
                    self.pos += 1;
                }
                // The run starts and ends next to ASCII (a quote, an
                // escape or the end of the text), so it is a whole-char
                // slice of the `&str` being parsed.
                let run = &self.text[start..self.pos];
                match self.peek()? {
                    b'"' => {
                        self.pos += 1;
                        return Ok(match owned {
                            None => Cow::Borrowed(run),
                            Some(mut out) => {
                                out.push_str(run);
                                Cow::Owned(out)
                            }
                        });
                    }
                    b'\\' => {
                        let out = owned.get_or_insert_with(String::new);
                        out.push_str(run);
                        self.pos += 1;
                        match self.peek()? {
                            b'"' => out.push('"'),
                            b'\\' => out.push('\\'),
                            b'/' => out.push('/'),
                            b'n' => out.push('\n'),
                            b'r' => out.push('\r'),
                            b't' => out.push('\t'),
                            b'b' => out.push('\u{8}'),
                            b'f' => out.push('\u{c}'),
                            b'u' => {
                                self.pos += 1;
                                let code = self.hex4()?;
                                let c = if (0xD800..0xDC00).contains(&code) {
                                    // Surrogate pair: expect \uDC00-\uDFFF.
                                    self.expect(b'\\')?;
                                    self.expect(b'u')?;
                                    let low = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&low) {
                                        return Err(parse_err("invalid low surrogate".into()));
                                    }
                                    let combined =
                                        0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                    char::from_u32(combined)
                                } else {
                                    char::from_u32(code)
                                };
                                out.push(
                                    c.ok_or_else(|| parse_err("invalid unicode escape".into()))?,
                                );
                                continue;
                            }
                            other => {
                                return Err(parse_err(format!(
                                    "unknown escape \\{:?}",
                                    other as char
                                )))
                            }
                        }
                        self.pos += 1;
                    }
                    _ => unreachable!("loop exits only on quote or backslash"),
                }
            }
        }

        /// Parses exactly four hex digits (after `\u`), leaving `pos` on
        /// the next character.
        fn hex4(&mut self) -> Result<u32, DaeDvfsError> {
            if self.pos + 4 > self.bytes.len() {
                return Err(parse_err("truncated unicode escape".into()));
            }
            let digits = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                .map_err(|_| parse_err("invalid unicode escape".into()))?;
            let code = u32::from_str_radix(digits, 16)
                .map_err(|_| parse_err(format!("invalid unicode escape \\u{digits}")))?;
            self.pos += 4;
            Ok(code)
        }

        fn number(&mut self) -> Result<Value<'a>, DaeDvfsError> {
            let start = self.pos;
            if self.peek()? == b'-' {
                self.pos += 1;
            }
            while let Some(&b) = self.bytes.get(self.pos) {
                if matches!(b, b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
                    self.pos += 1;
                } else {
                    break;
                }
            }
            if self.pos == start {
                return Err(parse_err(format!("empty number at byte {start}")));
            }
            Ok(Value::Num(&self.text[start..self.pos]))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dae::Granularity;
    use crate::dse::DsePoint;
    use stm32_rcc::PllConfig;

    fn pll(mhz_n: u32) -> PllConfig {
        PllConfig::new(ClockSource::hse(Hertz::mhz(50)), 25, mhz_n, 2).expect("valid")
    }

    fn sample_plan() -> DeploymentPlan {
        DeploymentPlan {
            model: "unit \"quoted\"\nmodel".into(),
            qos_secs: 0.1 + 0.2, // deliberately non-representable: 0.30000000000000004
            decisions: vec![
                LayerDecision {
                    name: "pw0".into(),
                    kind: LayerKind::Pointwise,
                    point: DsePoint {
                        granularity: Granularity(8),
                        hfo: pll(150),
                        latency_secs: 1.2345678901234567e-3,
                        energy: Joules::new(7.0e-5),
                        switches: 17,
                        first_stage_secs: 3.3e-6,
                    },
                },
                LayerDecision {
                    name: "rest1".into(),
                    kind: LayerKind::Rest,
                    point: DsePoint {
                        granularity: Granularity(0),
                        hfo: pll(216),
                        latency_secs: 0.25,
                        energy: Joules::new(-0.0),
                        switches: 0,
                        first_stage_secs: 0.0,
                    },
                },
            ],
            predicted_latency_secs: f64::MIN_POSITIVE,
            predicted_energy: Joules::new(1e300),
        }
    }

    #[test]
    fn json_round_trip_is_bit_identical() {
        let plan = sample_plan();
        let artifact = PlanArtifact::from_plan(&plan, "stm32f767", 0xdead_beef, 0x1234);
        let text = artifact.to_json();
        let parsed = PlanArtifact::from_json(&text).expect("parses");
        assert_eq!(parsed, artifact);
        let back = parsed.to_plan_unchecked().expect("decodes");
        assert_eq!(back.model, plan.model);
        assert_eq!(back.qos_secs.to_bits(), plan.qos_secs.to_bits());
        assert_eq!(
            back.predicted_latency_secs.to_bits(),
            plan.predicted_latency_secs.to_bits()
        );
        assert_eq!(
            back.predicted_energy.as_f64().to_bits(),
            plan.predicted_energy.as_f64().to_bits()
        );
        assert_eq!(back.decisions, plan.decisions);
    }

    #[test]
    fn malformed_json_is_a_parse_error() {
        for bad in [
            "",
            "{",
            "{\"artifact\": \"dae-dvfs-deployment-plan\"",
            "[1,2,3]",
            "{\"artifact\": \"something-else\"}",
            "{\"artifact\": \"dae-dvfs-deployment-plan\", \"schema_version\": \"x\"}",
        ] {
            assert!(
                matches!(
                    PlanArtifact::from_json(bad),
                    Err(DaeDvfsError::ArtifactParse { .. })
                ),
                "{bad:?} should fail to parse"
            );
        }
    }

    #[test]
    fn missing_field_names_the_field() {
        let err = PlanArtifact::from_json(
            "{\"artifact\": \"dae-dvfs-deployment-plan\", \"model\": \"m\"}",
        )
        .unwrap_err();
        assert!(err.to_string().contains("decisions") || err.to_string().contains("schema"));
    }

    #[test]
    fn non_finite_times_rejected_at_decode() {
        // JSON numbers like 1e999 lex fine and parse to infinity; the
        // decoder must refuse them so imported plans stay serializable.
        let plan = sample_plan();
        for field in 0..3 {
            let mut artifact = PlanArtifact::from_plan(&plan, "t", 1, 2);
            match field {
                0 => artifact.qos_secs = f64::INFINITY,
                1 => artifact.predicted_latency_secs = f64::NAN,
                _ => artifact.decisions[0].latency_secs = f64::INFINITY,
            }
            assert!(
                matches!(
                    artifact.to_plan_unchecked(),
                    Err(DaeDvfsError::ArtifactParse { .. })
                ),
                "field {field} should be rejected"
            );
        }
        // End to end: an overflowing literal parses to infinity and is
        // refused at decode, not silently accepted.
        let mut artifact = PlanArtifact::from_plan(&plan, "t", 1, 2);
        artifact.qos_secs = 1.0;
        let json = artifact
            .to_json()
            .replace("\"qos_secs\": 1", "\"qos_secs\": 1e999");
        let parsed = PlanArtifact::from_json(&json).expect("overflowing literal still parses");
        assert!(parsed.qos_secs.is_infinite());
        assert!(matches!(
            parsed.to_plan_unchecked(),
            Err(DaeDvfsError::ArtifactParse { .. })
        ));
    }

    #[test]
    fn invalid_pll_rejected_at_decode() {
        let plan = sample_plan();
        let mut artifact = PlanArtifact::from_plan(&plan, "t", 1, 2);
        artifact.decisions[0].hfo =
            PllConfig::new_unchecked(ClockSource::hse(Hertz::mhz(50)), 20, 100, 2);
        assert!(matches!(
            artifact.to_plan_unchecked(),
            Err(DaeDvfsError::ArtifactParse { .. })
        ));
    }

    #[test]
    fn fingerprints_are_stable_and_sensitive() {
        let a = config_fingerprint(&DseConfig::paper());
        let b = config_fingerprint(&DseConfig::paper());
        assert_eq!(a, b, "fingerprint must be deterministic");
        let c = config_fingerprint(&DseConfig::paper().with_dp_resolution(999));
        assert_ne!(a, c, "config changes must change the fingerprint");
    }

    #[test]
    fn golden_fingerprints_pin_the_registry_addresses() {
        // Fingerprints key the plan cache and name every registry file.
        // A `Debug` derive or field-order change anywhere under a profile
        // or a `DseConfig` would silently re-key them, so a change here
        // must be deliberate.
        use crate::modes::OperatingModes;
        use crate::target::{GenericCortexMTarget, Stm32F767Target};
        let lean = GenericCortexMTarget::new("cortex-m-lean").with_modes(
            OperatingModes::from_sysclks(
                Hertz::mhz(50),
                Hertz::mhz(50),
                &[Hertz::mhz(80), Hertz::mhz(120), Hertz::mhz(160)],
            )
            .expect("lean ladder reachable"),
        );
        let cases = [
            (
                Planner::for_target(Stm32F767Target::paper(), &tinynn::models::vww()),
                (0x1588_4ffb_a99f_6c42, 0x384d_419b_0a84_7872),
            ),
            (
                Planner::for_target(lean, &tinynn::models::person_detection()),
                (0xbd9c_f43e_fd92_3393, 0xe6a8_e498_02d7_94c7),
            ),
        ];
        for (planner, (model_fp, config_fp)) in cases {
            let planner = planner.expect("planner builds");
            let name = &planner.model().name;
            let model_free = model_fingerprint(name, planner.layers());
            let config_free = config_fingerprint(planner.config());
            assert_eq!(
                (model_free, config_free),
                (model_fp, config_fp),
                "{name}@{}: {model_free:#018x} {config_free:#018x}",
                planner.target().id()
            );
            // The planner's stored identity is the free functions' value.
            assert_eq!(
                (planner.model_fingerprint(), planner.config_fingerprint()),
                (model_free, config_free),
                "{name}: stored fingerprints diverge from the free functions"
            );
        }
    }

    #[test]
    fn string_escapes_round_trip() {
        for s in [
            "plain",
            "with \"quotes\" and \\backslashes\\",
            "control\tchars\nnewline\r",
            "unicode: Ωμέγα 漢字 🎛",
            "\u{1}\u{1f}\u{7f}",
        ] {
            let mut text = String::new();
            json::compact(&mut text, |o| {
                o.str(s, s);
            });
            // Keys and values share the escaper.
            let expected = json::Value::Obj(vec![(s.into(), json::Value::Str(s.into()))]);
            assert_eq!(json::parse(&text).expect("parses"), expected, "{text}");
        }
    }

    #[test]
    fn nesting_past_the_depth_limit_is_an_error_not_a_stack_overflow() {
        let deep = "[".repeat(100_000);
        assert!(matches!(
            json::parse(&deep),
            Err(DaeDvfsError::ArtifactParse { .. })
        ));
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(json::parse(&nested(json::MAX_DEPTH)).is_ok());
        assert!(json::parse(&nested(json::MAX_DEPTH + 1)).is_err());
    }

    #[test]
    fn unicode_escapes_parse() {
        match json::parse("\"\\u00e9\\ud83c\\udf9b\"").expect("parses") {
            json::Value::Str(s) => assert_eq!(s, "é🎛"),
            other => panic!("expected string, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_keys_parse_and_the_first_wins() {
        let parsed = json::parse(r#"{"k": 1, "k": 2, "k": 3}"#).expect("parses");
        let obj = parsed.as_object("doc").expect("object");
        assert_eq!(obj.get_u64("k").expect("u64"), 1);
    }

    #[test]
    fn artifact_json_bytes_are_pinned() {
        // The artifact bytes are the HTTP response, the registry payload
        // and the input to every receipt's plan hash: quotes, a newline,
        // an inexact sum, `-0`, `1e300` and `f64::MIN_POSITIVE` render
        // exactly as below.
        let artifact = PlanArtifact::from_plan(&sample_plan(), "stm32f767", 0xdead_beef, 0x1234);
        let expected = concat!(
            "{\n",
            "  \"artifact\": \"dae-dvfs-deployment-plan\",\n",
            "  \"schema_version\": 1,\n",
            "  \"target\": \"stm32f767\",\n",
            "  \"model\": \"unit \\\"quoted\\\"\\nmodel\",\n",
            "  \"model_fingerprint\": \"00000000deadbeef\",\n",
            "  \"config_fingerprint\": \"0000000000001234\",\n",
            "  \"qos_secs\": 0.30000000000000004,\n",
            "  \"predicted_latency_secs\": 0.000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000022250738585072014,\n",
            "  \"predicted_energy_j\": 1000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000,\n",
            "  \"decisions\": [\n",
            "    {\"layer\": \"pw0\", \"kind\": \"pointwise\", \"granularity\": 8, \"source\": \"hse\", \"source_hz\": 50000000, \"pllm\": 25, \"plln\": 150, \"pllp\": 2, \"latency_secs\": 0.0012345678901234567, \"energy_j\": 0.00007, \"switches\": 17, \"first_stage_secs\": 0.0000033},\n",
            "    {\"layer\": \"rest1\", \"kind\": \"rest\", \"granularity\": 0, \"source\": \"hse\", \"source_hz\": 50000000, \"pllm\": 25, \"plln\": 216, \"pllp\": 2, \"latency_secs\": 0.25, \"energy_j\": -0, \"switches\": 0, \"first_stage_secs\": 0}\n",
            "  ]\n",
            "}\n",
        );
        assert_eq!(artifact.to_json(), expected);
    }
}
