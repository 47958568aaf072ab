//! The `BENCH_SUMMARY.json` schema: its version and its validator.
//!
//! The bench and example binaries write their JSON with the workspace's
//! one writer, [`dae_dvfs::artifact::json`], and this module checks the
//! summary they emit against the same crate's parser.

/// Schema version of the `BENCH_SUMMARY.json` document. This constant is
/// the single source of truth: `repro-lint`'s consistency rule checks
/// that the committed `BENCH_SUMMARY.json` and every `schema v<N>`
/// mention in `DESIGN.md` agree with it.
pub const BENCH_SUMMARY_SCHEMA_VERSION: u64 = 8;

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

#[cfg(test)]
mod tests {
    use super::*;
    use dae_dvfs::artifact::json;

    // The layouts the report documents (`BENCH_SUMMARY.json`,
    // `CROSS_TARGET.json`) are written in, pinned byte for byte.

    #[test]
    fn quote_escapes_specials() {
        let mut out = String::new();
        json::compact(&mut out, |o| {
            o.str("q", "a\"b\\c\nd").str("p", "plain");
        });
        assert_eq!(out, "{\"q\": \"a\\\"b\\\\c\\nd\", \"p\": \"plain\"}");
    }

    #[test]
    fn object_renders_in_insertion_order() {
        let mut out = String::new();
        json::compact(&mut out, |o| {
            o.str("name", "vww")
                .u64("layers", 19)
                .fixed("speedup", 3.844, 2);
        });
        assert_eq!(
            out,
            "{\"name\": \"vww\", \"layers\": 19, \"speedup\": 3.84}"
        );
    }

    #[test]
    fn pretty_rendering_expands_arrays() {
        let mut out = String::new();
        json::lines(&mut out, |o| {
            o.u64("v", 1).array("models", ["a", "b"], |out, m| {
                json::compact(out, |o| {
                    o.str("m", m);
                })
            });
        });
        assert_eq!(
            out,
            "{\n  \"v\": 1,\n  \"models\": [\n    {\"m\": \"a\"},\n    {\"m\": \"b\"}\n  ]\n}"
        );
    }

    #[test]
    fn empty_array_field_renders_inline() {
        let mut out = String::new();
        json::lines(&mut out, |o| {
            o.array("models", [(); 0], |_, ()| {});
        });
        assert_eq!(out, "{\n  \"models\": []\n}");
    }

    #[test]
    fn nested_arrays_survive_pretty_rendering() {
        let mut out = String::new();
        json::lines(&mut out, |o| {
            o.array("grid", ["[1, 2]", "[3, 4]"], |out, row| out.push_str(row));
        });
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

    /// A complete current-schema summary with the field `skip` removed
    /// (wherever it lives) and the array field `empty` left empty.
    fn summary_without(skip: &str, empty: &str) -> String {
        let fields = |o: &mut json::Writer<'_>, fields: &[(&str, &str)]| {
            for (key, raw) in fields.iter().filter(|(key, _)| *key != skip) {
                o.raw(key, raw);
            }
        };
        let rows = |name: &str, row| if name == empty { None } else { Some(row) };
        let mut out = String::new();
        json::lines(&mut out, |o| {
            if skip != "schema_version" {
                o.u64("schema_version", BENCH_SUMMARY_SCHEMA_VERSION);
            }
            if skip != "models" {
                o.array("models", rows("models", MODEL_ROW), |out, row| {
                    json::compact(out, |o| fields(o, row))
                });
            }
            if skip != "service" {
                o.object("service", |o| fields(o, SERVICE));
            }
            if skip != "server" {
                o.object("server", |o| {
                    fields(o, SERVER);
                    if skip != "path_histograms" {
                        let histograms = rows("path_histograms", HISTOGRAM_ROW);
                        o.array("path_histograms", histograms, |out, row| {
                            json::compact(out, |o| fields(o, row))
                        });
                    }
                });
            }
        });
        out
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
}
