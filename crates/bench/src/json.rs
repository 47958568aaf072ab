//! A tiny JSON string builder for the machine-readable outputs.
//!
//! The workspace is offline (no serde), so the benchmark and example
//! binaries hand-roll their JSON. This module centralizes the
//! string-building that used to live inline in `bench_summary.rs` —
//! escaping, field assembly, array joining — so every emitter (the bench
//! summary, the cross-target example's plan index, future reports)
//! produces consistent, parseable output.

use std::fmt::Write as _;

/// Schema version of the `BENCH_SUMMARY.json` document. This constant is
/// the single source of truth: `repro-lint`'s consistency rule checks
/// that the committed `BENCH_SUMMARY.json` and every `schema v<N>`
/// mention in `DESIGN.md` agree with it.
pub const BENCH_SUMMARY_SCHEMA_VERSION: u64 = 8;

/// Escapes and quotes a string for JSON.
///
/// Delegates to the single escaper the plan-artifact writer uses
/// ([`dae_dvfs::artifact::json_quote`]) so escaping rules cannot diverge
/// between emitters.
pub fn quote(s: &str) -> String {
    dae_dvfs::artifact::json_quote(s)
}

/// An ordered JSON object under construction. Values are raw JSON
/// fragments; use the typed `*_field` methods for scalars.
#[derive(Debug, Clone, Default)]
pub struct Object {
    fields: Vec<(String, String)>,
}

impl Object {
    /// An empty object.
    pub fn new() -> Self {
        Object::default()
    }

    /// Appends a raw JSON fragment (an already-rendered object, array or
    /// scalar).
    pub fn raw_field(mut self, key: &str, raw: impl Into<String>) -> Self {
        self.fields.push((key.to_string(), raw.into()));
        self
    }

    /// Appends a string field (escaped and quoted).
    pub fn str_field(self, key: &str, value: &str) -> Self {
        let quoted = quote(value);
        self.raw_field(key, quoted)
    }

    /// Appends an integer field.
    pub fn u64_field(self, key: &str, value: u64) -> Self {
        self.raw_field(key, value.to_string())
    }

    /// Appends a floating-point field with `decimals` fractional digits.
    pub fn f64_field(self, key: &str, value: f64, decimals: usize) -> Self {
        self.raw_field(key, format!("{value:.decimals$}"))
    }

    /// Appends an array field from already-rendered element fragments.
    pub fn array_field(self, key: &str, elements: &[String]) -> Self {
        let rendered = render_array(elements);
        self.raw_field(key, rendered)
    }

    /// Renders the object compactly (single line).
    pub fn render(&self) -> String {
        let mut out = String::from("{");
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{}: {v}", quote(k));
        }
        out.push('}');
        out
    }

    /// Renders the object with each top-level field on its own line —
    /// the diff-friendly layout the committed `BENCH_SUMMARY.json` uses.
    /// Array fields additionally get one line per element.
    pub fn render_pretty(&self) -> String {
        let mut out = String::from("{\n");
        for (i, (k, v)) in self.fields.iter().enumerate() {
            let _ = write!(out, "  {}: ", quote(k));
            if v == "[]" {
                out.push_str("[]");
            } else if v.starts_with('[') && v.ends_with(']') {
                // Re-indent array elements (top-level commas only).
                let inner = &v[1..v.len() - 1];
                out.push_str("[\n");
                for element in split_top_level(inner) {
                    let _ = write!(out, "    {element}");
                    out.push_str(",\n");
                }
                // Drop the trailing comma of the last element.
                out.truncate(out.len() - 2);
                out.push('\n');
                out.push_str("  ]");
            } else {
                out.push_str(v);
            }
            out.push_str(if i + 1 < self.fields.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push('}');
        out
    }
}

/// Validates a rendered `BENCH_SUMMARY.json` document against the current
/// schema ([`BENCH_SUMMARY_SCHEMA_VERSION`]). It must parse under the
/// workspace's own JSON parser (the one plan artifacts use, so emitter and
/// reader cannot diverge) and carry every current field:
///
/// * at least one `models` row with the planning timings
///   (`planner_construction_secs`, `planner_sweep_secs`,
///   `percall_loop_secs`, `sweep_speedup`) and the quantized-kernel
///   timings (`kernel_fill_secs`, `kernel_extract_secs`,
///   `incremental_speedup`);
/// * a `service` section: `cache_hit_speedup`, `coalescing_speedup`,
///   `hit_rate`, `throughput_rps` and `allocs_per_hit`;
/// * a `server` section — the HTTP replay over loopback sockets:
///   `http_requests`, `http_p50_ms`, `http_p99_ms`, the warm-vs-cold
///   split (`cold_solves`, `warm_solves`, `warm_registry_hits`), the hot
///   replay (`warm_p50_ms`, `warm_p99_ms`, `inline_hit_rate`), the
///   receipt cost (`warm_noreceipt_p50_ms`, `receipt_overhead_frac`) and
///   a non-empty `path_histograms` array whose rows carry `path`,
///   `count`, `p50_us` and `p99_us`.
///
/// # Errors
///
/// A human-readable description of the first violation.
pub fn validate_summary(document: &str) -> Result<(), String> {
    let text = |e: dae_dvfs::DaeDvfsError| e.to_string();
    let value = dae_dvfs::artifact::json::parse(document)
        .map_err(|e| format!("summary does not parse: {e}"))?;
    let object = value.as_object("bench summary").map_err(text)?;
    let schema = object.get_u64("schema_version").map_err(text)?;
    if schema != BENCH_SUMMARY_SCHEMA_VERSION {
        return Err(format!(
            "schema_version {schema} != current {BENCH_SUMMARY_SCHEMA_VERSION}"
        ));
    }
    let models = object
        .get("models")
        .and_then(|m| m.as_array("models"))
        .map_err(text)?;
    if models.is_empty() {
        return Err("models array is empty".into());
    }
    for row in models {
        let row = row.as_object("model row").map_err(text)?;
        for field in [
            "planner_construction_secs",
            "planner_sweep_secs",
            "percall_loop_secs",
            "sweep_speedup",
            "kernel_fill_secs",
            "kernel_extract_secs",
            "incremental_speedup",
        ] {
            row.get_f64(field).map_err(text)?;
        }
    }
    let service = object
        .get("service")
        .and_then(|s| s.as_object("service section"))
        .map_err(text)?;
    for field in [
        "cache_hit_speedup",
        "coalescing_speedup",
        "hit_rate",
        "throughput_rps",
        "allocs_per_hit",
    ] {
        service.get_f64(field).map_err(text)?;
    }
    let server = object
        .get("server")
        .and_then(|s| s.as_object("server section"))
        .map_err(text)?;
    for field in [
        "http_requests",
        "cold_solves",
        "warm_solves",
        "warm_registry_hits",
    ] {
        server.get_u64(field).map_err(text)?;
    }
    for field in [
        "http_p50_ms",
        "http_p99_ms",
        "warm_p50_ms",
        "warm_p99_ms",
        "inline_hit_rate",
        "warm_noreceipt_p50_ms",
        "receipt_overhead_frac",
    ] {
        server.get_f64(field).map_err(text)?;
    }
    let histograms = server
        .get("path_histograms")
        .and_then(|h| h.as_array("path_histograms"))
        .map_err(text)?;
    if histograms.is_empty() {
        return Err("path_histograms array is empty".into());
    }
    for row in histograms {
        let row = row.as_object("path histogram row").map_err(text)?;
        row.get_str("path").map_err(text)?;
        row.get_u64("count").map_err(text)?;
        for field in ["p50_us", "p99_us"] {
            row.get_f64(field).map_err(text)?;
        }
    }
    Ok(())
}

/// Renders an array from already-rendered element fragments.
pub fn render_array(elements: &[String]) -> String {
    let mut out = String::from("[");
    for (i, e) in elements.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(e);
    }
    out.push(']');
    out
}

/// Splits a comma-joined fragment list at top level (commas inside
/// nested brackets, braces or strings do not split).
fn split_top_level(s: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let (mut depth, mut start, mut in_str, mut escaped) = (0i32, 0usize, false, false);
    for (i, b) in s.bytes().enumerate() {
        if in_str {
            match b {
                _ if escaped => escaped = false,
                b'\\' => escaped = true,
                b'"' => in_str = false,
                _ => {}
            }
            continue;
        }
        match b {
            b'"' => in_str = true,
            b'[' | b'{' => depth += 1,
            b']' | b'}' => depth -= 1,
            b',' if depth == 0 => {
                out.push(s[start..i].trim());
                start = i + 1;
            }
            _ => {}
        }
    }
    let tail = s[start..].trim();
    if !tail.is_empty() {
        out.push(tail);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quote_escapes_specials() {
        assert_eq!(quote("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(quote("plain"), "\"plain\"");
    }

    #[test]
    fn object_renders_in_insertion_order() {
        let obj = Object::new()
            .str_field("name", "vww")
            .u64_field("layers", 19)
            .f64_field("speedup", 3.844, 2);
        assert_eq!(
            obj.render(),
            "{\"name\": \"vww\", \"layers\": 19, \"speedup\": 3.84}"
        );
    }

    #[test]
    fn pretty_rendering_expands_arrays() {
        let rows = vec![
            Object::new().str_field("m", "a").render(),
            Object::new().str_field("m", "b").render(),
        ];
        let out = Object::new()
            .u64_field("v", 1)
            .array_field("models", &rows)
            .render_pretty();
        assert_eq!(
            out,
            "{\n  \"v\": 1,\n  \"models\": [\n    {\"m\": \"a\"},\n    {\"m\": \"b\"}\n  ]\n}"
        );
    }

    #[test]
    fn empty_array_field_renders_inline() {
        let out = Object::new().array_field("models", &[]).render_pretty();
        assert_eq!(out, "{\n  \"models\": []\n}");
    }

    #[test]
    fn nested_arrays_survive_pretty_rendering() {
        let out = Object::new()
            .array_field("grid", &["[1, 2]".to_string(), "[3, 4]".to_string()])
            .render_pretty();
        assert_eq!(out, "{\n  \"grid\": [\n    [1, 2],\n    [3, 4]\n  ]\n}");
    }

    /// Every field the current schema requires, grouped by where it lives.
    const MODEL_ROW: &[(&str, &str)] = &[
        ("planner_construction_secs", "1.0"),
        ("planner_sweep_secs", "1.0"),
        ("percall_loop_secs", "1.0"),
        ("sweep_speedup", "2.0"),
        ("kernel_fill_secs", "0.5"),
        ("kernel_extract_secs", "0.01"),
        ("incremental_speedup", "8.0"),
    ];
    const SERVICE: &[(&str, &str)] = &[
        ("cache_hit_speedup", "100.0"),
        ("coalescing_speedup", "3.0"),
        ("hit_rate", "0.9"),
        ("throughput_rps", "5000.0"),
        ("allocs_per_hit", "0.0"),
    ];
    const SERVER: &[(&str, &str)] = &[
        ("http_requests", "96"),
        ("http_p50_ms", "0.4"),
        ("http_p99_ms", "2.5"),
        ("warm_p50_ms", "0.1"),
        ("warm_p99_ms", "0.5"),
        ("warm_noreceipt_p50_ms", "0.095"),
        ("receipt_overhead_frac", "0.05"),
        ("inline_hit_rate", "1.0"),
        ("cold_solves", "8"),
        ("warm_solves", "0"),
        ("warm_registry_hits", "8"),
    ];
    const HISTOGRAM_ROW: &[(&str, &str)] = &[
        ("path", "\"inline-hit\""),
        ("count", "96"),
        ("p50_us", "63.0"),
        ("p99_us", "255.0"),
    ];

    /// `fields` as an object, leaving out the field named `skip`.
    fn object_without(fields: &[(&str, &str)], skip: &str) -> Object {
        fields
            .iter()
            .filter(|(key, _)| *key != skip)
            .fold(Object::new(), |obj, (key, raw)| obj.raw_field(key, *raw))
    }

    /// A complete current-schema summary with the field `skip` removed
    /// (wherever it lives) and the array field `empty` left empty.
    fn summary_without(skip: &str, empty: &str) -> String {
        let rows = |name: &str, row: &[(&str, &str)]| -> Vec<String> {
            if name == empty {
                Vec::new()
            } else {
                vec![object_without(row, skip).render()]
            }
        };
        let mut server = object_without(SERVER, skip);
        if skip != "path_histograms" {
            server = server.array_field("path_histograms", &rows("path_histograms", HISTOGRAM_ROW));
        }
        let models = render_array(&rows("models", MODEL_ROW));
        [
            ("schema_version", BENCH_SUMMARY_SCHEMA_VERSION.to_string()),
            ("models", models),
            ("service", object_without(SERVICE, skip).render()),
            ("server", server.render()),
        ]
        .into_iter()
        .filter(|(key, _)| *key != skip)
        .fold(Object::new(), |obj, (key, raw)| obj.raw_field(key, raw))
        .render_pretty()
    }

    /// Asserts that a complete summary validates and that removing any one
    /// of `fields` makes it fail with an error naming that field.
    fn assert_required(fields: &[&str]) {
        let complete = summary_without("", "");
        assert_eq!(validate_summary(&complete), Ok(()), "{complete}");
        for field in fields {
            let err = validate_summary(&summary_without(field, ""))
                .expect_err(&format!("a summary without {field} must fail"));
            assert!(err.contains(field), "error for {field} names it: {err}");
        }
    }

    /// Asserts that a complete summary with the array `array` left empty
    /// fails with an error naming it.
    fn assert_non_empty(array: &str) {
        let err = validate_summary(&summary_without("", array)).unwrap_err();
        assert!(err.contains(array), "empty {array}: {err}");
    }

    #[test]
    fn summaries_require_the_current_version_and_model_timings() {
        assert_required(&[
            "schema_version",
            "models",
            "planner_construction_secs",
            "planner_sweep_secs",
            "percall_loop_secs",
            "sweep_speedup",
        ]);
        assert_non_empty("models");
        let stale = summary_without("", "").replace(
            &format!("\"schema_version\": {BENCH_SUMMARY_SCHEMA_VERSION}"),
            "\"schema_version\": 7",
        );
        assert!(validate_summary(&stale)
            .unwrap_err()
            .contains("schema_version"));
    }

    #[test]
    fn v4_summaries_require_the_service_section() {
        assert_required(&[
            "service",
            "cache_hit_speedup",
            "coalescing_speedup",
            "hit_rate",
            "throughput_rps",
        ]);
    }

    #[test]
    fn v5_summaries_require_the_kernel_fields_per_model() {
        assert_required(&[
            "kernel_fill_secs",
            "kernel_extract_secs",
            "incremental_speedup",
        ]);
    }

    #[test]
    fn v6_summaries_require_the_server_section() {
        assert_required(&[
            "server",
            "http_requests",
            "http_p50_ms",
            "http_p99_ms",
            "cold_solves",
            "warm_solves",
            "warm_registry_hits",
        ]);
    }

    #[test]
    fn v7_summaries_require_the_hot_path_fields() {
        assert_required(&[
            "allocs_per_hit",
            "warm_p50_ms",
            "warm_p99_ms",
            "inline_hit_rate",
        ]);
    }

    #[test]
    fn v8_summaries_require_the_observability_fields() {
        assert_required(&[
            "warm_noreceipt_p50_ms",
            "receipt_overhead_frac",
            "path_histograms",
            "path",
            "count",
            "p50_us",
            "p99_us",
        ]);
        assert_non_empty("path_histograms");
    }

    #[test]
    fn top_level_split_ignores_nested_commas() {
        assert_eq!(
            split_top_level("{\"a\": [1, 2]}, {\"b\": \"x,y\"}, 3"),
            vec!["{\"a\": [1, 2]}", "{\"b\": \"x,y\"}", "3"]
        );
    }
}
