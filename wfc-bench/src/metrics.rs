//! The metric table, run outcomes, and the statistics behind them.
//!
//! Names, units and bounds come from the repository's `BENCHMARK.json`,
//! embedded at build time, so the benchmark and its description cannot
//! drift apart: a run that fails to produce every metric the file names
//! is reported as incorrect. (The file's `better` directions matter only
//! when two commits are compared, which this binary does not do.)

use std::collections::BTreeMap;
use std::sync::OnceLock;

use wfc_obs::json::Json;

/// One metric as `BENCHMARK.json` declares it.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricSpec {
    /// Metric name, e.g. `latency_p99_ms` or `stage.queue_us_p50`.
    pub name: String,
    /// Unit, e.g. `ms`.
    pub unit: String,
    /// Regression bound as a share of the baseline median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the benchmark itself reads.
#[derive(Clone, Debug)]
pub struct BenchSpec {
    /// Workload names, in file order.
    pub workloads: Vec<String>,
    /// Window length the benchmark contract runs with, in seconds.
    pub run_seconds: u64,
    /// Metrics reported by untraced runs.
    pub end_to_end: Vec<MetricSpec>,
    /// Metrics reported by traced runs.
    pub per_layer: Vec<MetricSpec>,
}

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

fn parse_metrics(doc: &Json, key: &str) -> Vec<MetricSpec> {
    let entries = doc
        .get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks a `{key}` array"));
    entries
        .iter()
        .map(|m| {
            let text = |field: &str| {
                m.get(field)
                    .and_then(Json::as_str)
                    .unwrap_or_else(|| panic!("a `{key}` entry lacks `{field}`"))
                    .to_owned()
            };
            MetricSpec {
                name: text("name"),
                unit: text("unit"),
                bound: m.get("bound").and_then(Json::as_f64),
            }
        })
        .collect()
}

/// The embedded `BENCHMARK.json`, parsed once.
///
/// # Panics
///
/// Panics if the embedded file is malformed — a build-time artifact of
/// this repository, not outside input.
pub fn spec() -> &'static BenchSpec {
    static SPEC: OnceLock<BenchSpec> = OnceLock::new();
    SPEC.get_or_init(|| {
        let doc = wfc_obs::json::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON");
        BenchSpec {
            workloads: doc
                .get("workloads")
                .and_then(Json::as_arr)
                .expect("BENCHMARK.json lists workloads")
                .iter()
                .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_owned))
                .collect(),
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_u64)
                .expect("BENCHMARK.json sets run_seconds"),
            end_to_end: parse_metrics(&doc, "end_to_end"),
            per_layer: parse_metrics(&doc, "per_layer"),
        }
    })
}

/// One measured value and the number of samples behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Measurement {
    /// The value, in the metric's unit.
    pub value: f64,
    /// Samples the value summarizes (1 for a single reading).
    pub samples: u64,
}

/// Everything one workload run reports.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Operations attempted: requests sent, or jobs run.
    pub attempted: u64,
    /// Operations that failed: busy, error, transport failure, wrong
    /// answer, or no answer at all.
    pub failed: u64,
    /// Every measured metric, end-to-end or per-layer, by name.
    pub metrics: BTreeMap<String, Measurement>,
    /// Extra human-readable lines (pass counts, maxima, validity notes).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a metric.
    pub fn set(&mut self, name: &str, value: f64, samples: u64) {
        self.metrics
            .insert(name.to_owned(), Measurement { value, samples });
    }

    /// Records a failure with its reason on stderr.
    pub fn fail(&mut self, why: impl AsRef<str>) {
        self.failed += 1;
        // Keep the log readable when a systematic bug fails every
        // request: the count is in the summary either way.
        if self.failed <= 20 {
            eprintln!("wfc-bench: FAILED: {}", why.as_ref());
        }
    }

    /// `failed / attempted`.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The metrics a run of this kind must report: the end-to-end set
    /// for untraced runs, the per-layer set for traced ones.
    pub fn required(traced: bool) -> &'static [MetricSpec] {
        if traced {
            &spec().per_layer
        } else {
            &spec().end_to_end
        }
    }

    /// Names of required metrics that are missing or not finite.
    pub fn missing(&self, traced: bool) -> Vec<String> {
        Self::required(traced)
            .iter()
            .filter(|m| {
                !self
                    .metrics
                    .get(&m.name)
                    .is_some_and(|v| v.value.is_finite())
            })
            .map(|m| m.name.clone())
            .collect()
    }

    /// `true` when no operation failed and every required metric exists.
    pub fn correct(&self, traced: bool) -> bool {
        self.failed == 0 && self.attempted > 0 && self.missing(traced).is_empty()
    }

    /// The human-readable lines: one `name value unit (n=samples)` per
    /// required metric, `error_rate`, then the notes.
    pub fn human_lines(&self, traced: bool) -> Vec<String> {
        let mut out: Vec<String> = Self::required(traced)
            .iter()
            .filter_map(|m| {
                self.metrics
                    .get(&m.name)
                    .map(|v| format!("{} {} {} (n={})", m.name, v.value, m.unit, v.samples))
            })
            .collect();
        out.push(format!(
            "error_rate {} fraction (n={})",
            self.error_rate(),
            self.attempted
        ));
        out.extend(self.notes.iter().cloned());
        out
    }

    /// The one-line JSON summary: `correct`, `attempted`, `failed`, and
    /// every required metric as `{"value", "unit"}`.
    pub fn json_line(&self, traced: bool) -> String {
        let metrics = Self::required(traced)
            .iter()
            .filter_map(|m| {
                let v = self.metrics.get(&m.name)?;
                v.value.is_finite().then(|| {
                    (
                        m.name.clone(),
                        Json::obj(vec![
                            ("value", Json::F64(v.value)),
                            ("unit", Json::Str(m.unit.clone())),
                        ]),
                    )
                })
            })
            .collect();
        Json::obj(vec![
            ("correct", Json::Bool(self.correct(traced))),
            ("attempted", Json::U64(self.attempted)),
            ("failed", Json::U64(self.failed)),
            ("metrics", Json::Obj(metrics)),
        ])
        .render()
    }
}

/// Sub-buckets per power of two in a [`LatencyHist`]: each bucket spans
/// 1/256 of its value, so percentiles are resolved to within 0.4 %.
const SUB_BITS: u32 = 8;

/// A fixed-size log-linear histogram of nanosecond latencies.
///
/// Memory stays constant however many requests a window completes, so
/// the bench's own bookkeeping cannot move `peak_rss_mb` with the
/// throughput it measures.
#[derive(Clone, Debug)]
pub struct LatencyHist {
    counts: Vec<u64>,
    n: u64,
    sum_ns: f64,
}

impl Default for LatencyHist {
    fn default() -> Self {
        LatencyHist {
            // Covers everything below 2^40 ns (about 18 minutes).
            counts: vec![0; ((40 - SUB_BITS as usize) + 1) << SUB_BITS],
            n: 0,
            sum_ns: 0.0,
        }
    }
}

impl LatencyHist {
    fn index(ns: u64) -> usize {
        if ns < 1 << SUB_BITS {
            return ns as usize;
        }
        let shift = 63 - ns.leading_zeros() - SUB_BITS;
        let mantissa = (ns >> shift) as usize - (1 << SUB_BITS);
        ((shift as usize + 1) << SUB_BITS) + mantissa
    }

    /// The lowest value bucket `i` holds and the bucket's width.
    fn bounds(i: usize) -> (f64, f64) {
        if i < 1 << SUB_BITS {
            return (i as f64, 1.0);
        }
        let shift = (i >> SUB_BITS) - 1;
        let mantissa = (i & ((1 << SUB_BITS) - 1)) + (1 << SUB_BITS);
        ((mantissa << shift) as f64, (1u64 << shift) as f64)
    }

    /// Records one latency.
    pub fn record(&mut self, d: std::time::Duration) {
        let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        let i = Self::index(ns).min(self.counts.len() - 1);
        self.counts[i] += 1;
        self.n += 1;
        self.sum_ns += ns as f64;
    }

    /// Samples recorded.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Mean latency in microseconds (0 when empty).
    pub fn mean_us(&self) -> f64 {
        self.sum_ns / self.n.max(1) as f64 / 1000.0
    }

    /// Nearest-rank percentile in microseconds, interpolated by rank
    /// inside its bucket (0 when empty).
    pub fn percentile_us(&self, p: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = ((p / 100.0) * self.n as f64)
            .ceil()
            .clamp(1.0, self.n as f64) as u64;
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 && seen + c >= rank {
                let (low, width) = Self::bounds(i);
                let within = (rank - seen) as f64 - 0.5;
                return (low + width * within / c as f64) / 1000.0;
            }
            seen += c;
        }
        0.0
    }
}

/// Nearest-rank percentile (`p` in `0..=100`) of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of unsorted values (mean of the middle pair for even
/// counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles exactly as Python's
/// `statistics.quantiles(values, n=4)` computes them (the default
/// `exclusive` method), so spreads printed here match the ones the
/// benchmark's acceptance check computes.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld < 2 {
        let only = v.first().copied().unwrap_or(f64::NAN);
        return (only, only);
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn latency_hist_resolves_percentiles_within_half_a_percent() {
        let mut h = LatencyHist::default();
        for us in 1..=1000u64 {
            h.record(std::time::Duration::from_micros(us));
        }
        assert_eq!(h.len(), 1000);
        for (p, want) in [(50.0, 500.0), (99.0, 990.0), (100.0, 1000.0)] {
            let got = h.percentile_us(p);
            assert!((got - want).abs() / want < 0.005, "p{p}: {got} vs {want}");
        }
        assert!((h.mean_us() - 500.5).abs() < 1e-9);
        for ns in [0, 1, 255, 256, 257, 1 << 20, (1 << 20) + 12345, 1 << 39] {
            let (low, width) = LatencyHist::bounds(LatencyHist::index(ns));
            assert!(low <= ns as f64 && (ns as f64) < low + width, "{ns}");
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn embedded_spec_names_four_workloads_and_setup_time() {
        let spec = spec();
        assert_eq!(spec.workloads.len(), 4);
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is an end-to-end metric");
        assert_eq!(setup.unit, "s");
        assert!(BENCHMARK_JSON
            .contains(r#"{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}"#));
        let widest = spec
            .end_to_end
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(widest),
            "setup_s carries the largest bound"
        );
    }
}
