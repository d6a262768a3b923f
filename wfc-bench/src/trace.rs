//! Traced-run plumbing: collecting `wfc-obs` metrics and spans, the
//! bench's own layer-call spans, and the `BENCH_<workload>.json` report.
//!
//! The registry cannot simply be read once at the end. `access_bounds`
//! (and through it `check_theorem5` and `verify_entry`) emits its own
//! run report when observability is on, and emitting *collects*: it
//! resets the global registry and drains every span. A traced run
//! therefore points `WFC_OBS_JSON` at a private directory, and
//! [`Harvest::absorb`] folds both sources into one accumulator — the
//! registry (snapshot, reset, drain) and any report file an engine
//! emitted since the last absorb. Callers absorb after every engine
//! call, so each emission is read before the next can overwrite it.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use wfc_obs::json::Json;
use wfc_obs::metrics::{HistogramSnapshot, Registry, Snapshot};
use wfc_obs::report::RunReport;
use wfc_obs::span::{self, SpanGuard, SpanStat};

/// Name of the span that wraps each bench call into a layer.
const CALL_SPAN: &str = "bench.call";
/// Name of the span that wraps one pass or one measured window.
const PHASE_SPAN: &str = "bench.phase";

/// Switches `wfc-obs` and the counting allocator together.
pub fn set_tracing(on: bool) {
    wfc_obs::set_enabled(on);
    crate::alloc::set_counting(on);
}

/// Opens a span around a call the bench makes into a layer's public
/// function; `label` is `layer::function`. Inert when `traced` is off.
pub(crate) fn call_span(traced: bool, label: &'static str) -> SpanGuard {
    span::enter_if(traced, CALL_SPAN, label.to_owned())
}

/// Opens a span around one pass or measured window.
pub(crate) fn phase_span(traced: bool, label: &'static str) -> SpanGuard {
    span::enter_if(traced, PHASE_SPAN, label.to_owned())
}

/// A merged power-of-two histogram.
#[derive(Clone, Debug, Default)]
pub(crate) struct Hist {
    /// Observations.
    pub(crate) count: u64,
    /// Sum of observed values.
    pub(crate) total: u64,
    buckets: BTreeMap<u64, u64>,
}

impl Hist {
    fn add(&mut self, h: &HistogramSnapshot) {
        self.count += h.count;
        self.total += h.total;
        for &(bound, n) in &h.buckets {
            *self.buckets.entry(bound).or_default() += n;
        }
    }

    /// Upper bound of the bucket holding the `q`-quantile (0 when empty).
    pub(crate) fn quantile(&self, q: f64) -> f64 {
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (&bound, &n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return bound as f64;
            }
        }
        0.0
    }

    /// Mean observation (0 when empty).
    pub(crate) fn mean(&self) -> f64 {
        self.total as f64 / self.count.max(1) as f64
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count,
            total: self.total,
            buckets: self.buckets.iter().map(|(&b, &n)| (b, n)).collect(),
        }
    }
}

/// Everything `wfc-obs` recorded over the absorbed intervals.
#[derive(Clone, Debug, Default)]
pub(crate) struct Harvest {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    histograms: BTreeMap<String, Hist>,
    spans: BTreeMap<(String, String), SpanStat>,
}

/// The directory engines emit run reports into during a traced run.
fn emit_dir() -> Option<PathBuf> {
    std::env::var_os("WFC_OBS_JSON")
        .filter(|d| !d.is_empty())
        .map(PathBuf::from)
}

/// Parses an emitted report back into a snapshot and span list.
fn read_report(path: &Path) -> Option<(Snapshot, Vec<SpanStat>)> {
    let text = std::fs::read_to_string(path).ok()?;
    let doc = wfc_obs::json::parse(&text).ok()?;
    let obj = |key: &str| doc.get(key).and_then(Json::as_obj).unwrap_or(&[]);
    let num = |v: &Json, key: &str| v.get(key).and_then(Json::as_u64).unwrap_or(0);
    let snapshot = Snapshot {
        counters: obj("counters")
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.as_u64()?)))
            .collect(),
        gauges: obj("gauges")
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.as_f64()? as i64)))
            .collect(),
        histograms: obj("histograms")
            .iter()
            .map(|(k, h)| {
                let buckets = h
                    .get("buckets")
                    .and_then(Json::as_arr)
                    .unwrap_or(&[])
                    .iter()
                    .filter_map(|pair| {
                        let pair = pair.as_arr()?;
                        Some((pair.first()?.as_u64()?, pair.get(1)?.as_u64()?))
                    })
                    .collect();
                (
                    k.clone(),
                    HistogramSnapshot {
                        count: num(h, "count"),
                        total: num(h, "total"),
                        buckets,
                    },
                )
            })
            .collect(),
    };
    let spans = doc
        .get("spans")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .map(|s| SpanStat {
            name: s
                .get("name")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_owned(),
            label: s
                .get("label")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_owned(),
            count: num(s, "count"),
            total_ns: num(s, "total_ns"),
            min_ns: num(s, "min_ns"),
            max_ns: num(s, "max_ns"),
        })
        .collect();
    Some((snapshot, spans))
}

/// Reports engines emitted since the last call, removed once read.
fn take_emitted() -> Vec<(Snapshot, Vec<SpanStat>)> {
    let Some(dir) = emit_dir() else {
        return Vec::new();
    };
    let Ok(entries) = std::fs::read_dir(&dir) else {
        return Vec::new();
    };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| Some(e.ok()?.path())).collect();
    paths.sort();
    paths
        .iter()
        .filter_map(|p| {
            let report = read_report(p);
            let _ = std::fs::remove_file(p);
            report
        })
        .collect()
}

/// Empties the registry, the span buffers and the emit directory, so
/// the next [`Harvest::absorb`] sees only what follows.
pub(crate) fn discard() {
    Registry::global().reset();
    let _ = span::drain();
    let _ = take_emitted();
}

impl Harvest {
    fn merge(&mut self, snapshot: Snapshot, spans: Vec<SpanStat>) {
        for (k, v) in snapshot.counters {
            *self.counters.entry(k).or_default() += v;
        }
        for (k, v) in snapshot.gauges {
            let g = self.gauges.entry(k).or_insert(v);
            *g = (*g).max(v);
        }
        for (k, h) in snapshot.histograms {
            self.histograms.entry(k).or_default().add(&h);
        }
        for s in spans {
            self.spans
                .entry((s.name.clone(), s.label.clone()))
                .and_modify(|acc| {
                    acc.count += s.count;
                    acc.total_ns += s.total_ns;
                    acc.min_ns = acc.min_ns.min(s.min_ns);
                    acc.max_ns = acc.max_ns.max(s.max_ns);
                })
                .or_insert(s);
        }
    }

    /// Moves everything recorded since the last absorb (or
    /// [`discard`]) into this accumulator.
    pub(crate) fn absorb(&mut self) {
        let registry = Registry::global();
        let snapshot = registry.snapshot();
        registry.reset();
        let spans = span::drain();
        for (s, sp) in take_emitted() {
            self.merge(s, sp);
        }
        self.merge(snapshot, spans);
    }

    /// A counter's accumulated value (0 if never recorded).
    pub(crate) fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A histogram's accumulated observations (empty if never recorded).
    pub(crate) fn hist(&self, name: &str) -> Hist {
        self.histograms.get(name).cloned().unwrap_or_default()
    }

    /// Self time of the bench's own spans: a phase's total minus the
    /// layer calls made inside it, and each layer call's total (its
    /// children are the engine's spans, listed as-is in the report).
    fn self_times(&self) -> Json {
        let calls_ns: u64 = self
            .spans
            .values()
            .filter(|s| s.name == CALL_SPAN)
            .map(|s| s.total_ns)
            .sum();
        let rows = self
            .spans
            .values()
            .filter(|s| s.name == CALL_SPAN || s.name == PHASE_SPAN)
            .map(|s| {
                let self_ns = if s.name == PHASE_SPAN {
                    s.total_ns.saturating_sub(calls_ns)
                } else {
                    s.total_ns
                };
                Json::obj(vec![
                    ("name", Json::Str(s.name.clone())),
                    ("label", Json::Str(s.label.clone())),
                    ("count", Json::U64(s.count)),
                    ("total_ns", Json::U64(s.total_ns)),
                    ("self_ns", Json::U64(self_ns)),
                ])
            })
            .collect();
        Json::Arr(rows)
    }

    /// The `wfc-obs/v1` report for a traced run: the accumulated
    /// registry and spans, plus `sections`.
    pub(crate) fn report(&self, name: &str, sections: Vec<(&str, Json)>) -> RunReport {
        let mut report = RunReport::new(name);
        report.snapshot = Snapshot {
            counters: self.counters.iter().map(|(k, &v)| (k.clone(), v)).collect(),
            gauges: self.gauges.iter().map(|(k, &v)| (k.clone(), v)).collect(),
            histograms: self
                .histograms
                .iter()
                .map(|(k, h)| (k.clone(), h.snapshot()))
                .collect(),
        };
        report.spans = self.spans.values().cloned().collect();
        for (key, value) in sections {
            report.section(key, value);
        }
        report.section("span_self_ns", self.self_times());
        report
    }
}
