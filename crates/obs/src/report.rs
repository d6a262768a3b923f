//! `RunReport`: the stable JSON document every instrumented run emits.
//!
//! Schema `wfc-obs/v1` — a single object:
//!
//! ```json
//! {
//!   "schema": "wfc-obs/v1",
//!   "name": "access_bounds",
//!   "counters": {"explorer.interner.hits": 12, ...},
//!   "gauges": {"explorer.bfs.max_level": 5, ...},
//!   "histograms": {
//!     "explorer.bfs.frontier": {"count": 6, "total": 90, "buckets": [[1,1],[3,2],[31,3]]}
//!   },
//!   "spans": [
//!     {"name": "bfs_level", "label": "level=0", "count": 2,
//!      "total_ns": 1234, "min_ns": 400, "max_ns": 834}
//!   ],
//!   "sections": {"access_bounds": {...domain-specific...}}
//! }
//! ```
//!
//! `counters`/`gauges`/`histograms` keys are sorted by name and `spans`
//! entries by `(name, label)`, so a report's rendering is deterministic
//! given the same measurements. `sections` holds domain payloads (paper
//! quantities like `D`, per-register `r_b`/`w_b`; loadgen latencies) in
//! whatever insertion order the producer chose.

use std::path::PathBuf;

use crate::json::Json;
use crate::metrics::{Registry, Snapshot};
use crate::span::{self, SpanStat};

/// The schema identifier stamped into every report.
pub const SCHEMA: &str = "wfc-obs/v1";

/// One run's worth of measurements, ready to serialize.
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    /// Report name; becomes the file stem under `WFC_OBS_JSON`.
    pub name: String,
    /// Metrics snapshot (counters, gauges, histograms).
    pub snapshot: Snapshot,
    /// Merged span aggregates, sorted by `(name, label)`.
    pub spans: Vec<SpanStat>,
    /// Domain-specific payloads keyed by section name.
    pub sections: Vec<(String, Json)>,
}

impl RunReport {
    /// A new, empty report named `name`.
    pub fn new(name: &str) -> RunReport {
        RunReport {
            name: name.to_owned(),
            ..RunReport::default()
        }
    }

    /// Collects the global registry snapshot and drains all spans into a
    /// report named `name`. The registry is reset afterwards so
    /// consecutive runs in one process do not bleed into each other.
    pub fn collect(name: &str) -> RunReport {
        let registry = Registry::global();
        let snapshot = registry.snapshot();
        registry.reset();
        RunReport {
            name: name.to_owned(),
            snapshot,
            spans: span::drain(),
            sections: Vec::new(),
        }
    }

    /// Attaches (or replaces) a domain-specific section.
    pub fn section(&mut self, key: &str, value: Json) -> &mut Self {
        if let Some(slot) = self.sections.iter_mut().find(|(k, _)| k == key) {
            slot.1 = value;
        } else {
            self.sections.push((key.to_owned(), value));
        }
        self
    }

    /// The report as a schema-`wfc-obs/v1` JSON value.
    pub fn to_json(&self) -> Json {
        let counters = self
            .snapshot
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), Json::U64(*v)))
            .collect();
        let gauges = self
            .snapshot
            .gauges
            .iter()
            .map(|(k, v)| (k.clone(), Json::I64(*v)))
            .collect();
        let histograms = self
            .snapshot
            .histograms
            .iter()
            .map(|(k, h)| {
                let buckets = h
                    .buckets
                    .iter()
                    .map(|(ub, n)| Json::Arr(vec![Json::U64(*ub), Json::U64(*n)]))
                    .collect();
                (
                    k.clone(),
                    Json::obj(vec![
                        ("count", Json::U64(h.count)),
                        ("total", Json::U64(h.total)),
                        ("buckets", Json::Arr(buckets)),
                    ]),
                )
            })
            .collect();
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::obj(vec![
                    ("name", Json::Str(s.name.clone())),
                    ("label", Json::Str(s.label.clone())),
                    ("count", Json::U64(s.count)),
                    ("total_ns", Json::U64(s.total_ns)),
                    ("min_ns", Json::U64(s.min_ns)),
                    ("max_ns", Json::U64(s.max_ns)),
                ])
            })
            .collect();
        Json::obj(vec![
            ("schema", Json::Str(SCHEMA.to_owned())),
            ("name", Json::Str(self.name.clone())),
            ("counters", Json::Obj(counters)),
            ("gauges", Json::Obj(gauges)),
            ("histograms", Json::Obj(histograms)),
            ("spans", Json::Arr(spans)),
            ("sections", Json::Obj(self.sections.clone())),
        ])
    }

    /// The serialized report (compact JSON plus a trailing newline).
    pub fn render(&self) -> String {
        let mut text = self.to_json().render();
        text.push('\n');
        text
    }

    /// Emits the report: if `WFC_OBS_JSON` names a directory, writes
    /// `<dir>/<name>.json` (creating the directory, overwriting the
    /// file); otherwise prints to stderr. Returns the path written, if
    /// any. IO errors are reported on stderr rather than panicking —
    /// observability must never take down the run it watches.
    pub fn emit(&self) -> Option<PathBuf> {
        match std::env::var_os("WFC_OBS_JSON") {
            Some(dir) if !dir.is_empty() => {
                let dir = PathBuf::from(dir);
                let path = dir.join(format!("{}.json", sanitize_name(&self.name)));
                let write = std::fs::create_dir_all(&dir)
                    .and_then(|()| std::fs::write(&path, self.render()));
                match write {
                    Ok(()) => Some(path),
                    Err(e) => {
                        eprintln!("wfc-obs: cannot write {}: {e}", path.display());
                        None
                    }
                }
            }
            _ => {
                eprint!("{}", self.render());
                None
            }
        }
    }
}

/// Maps a report name to a safe file stem: alphanumerics, `-`, `_`, `.`
/// pass through; everything else becomes `_`.
fn sanitize_name(name: &str) -> String {
    let mapped: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.') {
                c
            } else {
                '_'
            }
        })
        .collect();
    if mapped.is_empty() {
        "report".to_owned()
    } else {
        mapped
    }
}

/// Validates a parsed JSON document against the `wfc-obs/v1` schema.
/// Returns a description of the first problem found.
pub fn validate(doc: &Json) -> Result<(), String> {
    let schema = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or("missing `schema` string")?;
    if schema != SCHEMA {
        return Err(format!("schema is `{schema}`, expected `{SCHEMA}`"));
    }
    doc.get("name")
        .and_then(Json::as_str)
        .ok_or("missing `name` string")?;
    let counters = doc
        .get("counters")
        .and_then(Json::as_obj)
        .ok_or("missing `counters` object")?;
    for (k, v) in counters {
        v.as_u64()
            .ok_or_else(|| format!("counter `{k}` is not a non-negative integer"))?;
    }
    let gauges = doc
        .get("gauges")
        .and_then(Json::as_obj)
        .ok_or("missing `gauges` object")?;
    for (k, v) in gauges {
        if v.as_f64().is_none() {
            return Err(format!("gauge `{k}` is not a number"));
        }
    }
    let histograms = doc
        .get("histograms")
        .and_then(Json::as_obj)
        .ok_or("missing `histograms` object")?;
    for (k, h) in histograms {
        let count = h
            .get("count")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("histogram `{k}` missing `count`"))?;
        h.get("total")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("histogram `{k}` missing `total`"))?;
        let buckets = h
            .get("buckets")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("histogram `{k}` missing `buckets`"))?;
        let mut bucket_sum = 0u64;
        let mut last_ub = None;
        for b in buckets {
            let pair = b
                .as_arr()
                .filter(|p| p.len() == 2)
                .ok_or_else(|| format!("histogram `{k}` bucket is not a pair"))?;
            let ub = pair[0]
                .as_u64()
                .ok_or_else(|| format!("histogram `{k}` bucket bound is not an integer"))?;
            let n = pair[1]
                .as_u64()
                .ok_or_else(|| format!("histogram `{k}` bucket count is not an integer"))?;
            if last_ub.is_some_and(|prev| ub <= prev) {
                return Err(format!("histogram `{k}` bucket bounds not increasing"));
            }
            last_ub = Some(ub);
            bucket_sum += n;
        }
        if bucket_sum != count {
            return Err(format!(
                "histogram `{k}` bucket counts sum to {bucket_sum}, `count` says {count}"
            ));
        }
    }
    let spans = doc
        .get("spans")
        .and_then(Json::as_arr)
        .ok_or("missing `spans` array")?;
    for s in spans {
        s.get("name")
            .and_then(Json::as_str)
            .ok_or("span missing `name`")?;
        s.get("label")
            .and_then(Json::as_str)
            .ok_or("span missing `label`")?;
        for field in ["count", "total_ns", "min_ns", "max_ns"] {
            s.get(field)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("span missing `{field}`"))?;
        }
    }
    doc.get("sections")
        .and_then(Json::as_obj)
        .ok_or("missing `sections` object")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn collected_report_round_trips_and_validates() {
        let _l = crate::tests::test_lock();
        crate::set_enabled(true);
        Registry::global().reset();
        span::reset();
        crate::counter!("t.report.configs", 17);
        crate::gauge_max!("t.report.depth", 5);
        crate::histogram!("t.report.frontier", 12);
        {
            let _g = crate::span!("t.report.level", level = 0);
        }
        crate::set_enabled(false);

        let mut report = RunReport::collect("unit test: report");
        report.section(
            "paper",
            Json::obj(vec![("D", Json::U64(3)), ("n", Json::U64(2))]),
        );
        let text = report.render();
        let doc = json::parse(&text).unwrap();
        validate(&doc).unwrap_or_else(|e| panic!("{e}\n{text}"));
        assert_eq!(doc.get("name").unwrap().as_str(), Some("unit test: report"));
        assert_eq!(
            doc.get("counters")
                .unwrap()
                .get("t.report.configs")
                .unwrap()
                .as_u64(),
            Some(17)
        );
        assert_eq!(
            doc.get("sections")
                .unwrap()
                .get("paper")
                .unwrap()
                .get("D")
                .unwrap()
                .as_u64(),
            Some(3)
        );
        let spans = doc.get("spans").unwrap().as_arr().unwrap();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].get("label").unwrap().as_str(), Some("level=0"));

        // collect() resets the registry: a second collect is empty.
        let again = RunReport::collect("again");
        assert!(again.snapshot.counters.is_empty());
        assert!(again.spans.is_empty());
    }

    #[test]
    fn validate_rejects_broken_documents() {
        let ok = RunReport::new("x").to_json();
        validate(&ok).unwrap();

        let cases = [
            ("{}", "missing `schema`"),
            (
                "{\"schema\":\"wfc-obs/v0\",\"name\":\"x\"}",
                "wrong schema version",
            ),
            (
                "{\"schema\":\"wfc-obs/v1\",\"counters\":{}}",
                "missing name",
            ),
        ];
        for (text, why) in cases {
            let doc = json::parse(text).unwrap();
            assert!(validate(&doc).is_err(), "{why}");
        }

        // Histogram whose bucket counts disagree with `count`.
        let bad = json::parse(
            r#"{"schema":"wfc-obs/v1","name":"x","counters":{},"gauges":{},
                "histograms":{"h":{"count":5,"total":9,"buckets":[[1,1],[3,2]]}},
                "spans":[],"sections":{}}"#,
        )
        .unwrap();
        let err = validate(&bad).unwrap_err();
        assert!(err.contains("sum to 3"), "{err}");
    }

    #[test]
    fn sanitize_keeps_reports_on_disk_friendly() {
        assert_eq!(sanitize_name("BENCH_explore/tas"), "BENCH_explore_tas");
        assert_eq!(sanitize_name("access_bounds"), "access_bounds");
        assert_eq!(sanitize_name(""), "report");
    }
}
