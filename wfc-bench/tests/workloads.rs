//! Smoke test of the end-to-end benchmark: every workload in `--smoke`
//! mode (small inputs, one-second windows), untraced and traced.

use std::path::{Path, PathBuf};
use std::process::Command;

use wfc_bench_e2e::metrics::{spec, Outcome};
use wfc_bench_e2e::workloads::check::{self, Call};
use wfc_bench_e2e::workloads::Workload;
use wfc_obs::json::Json;

/// Runs the benchmark binary on one workload; returns its exit status,
/// its stdout, and the parsed summary (its last stdout line).
fn run(workload: &str, traced: bool, dir: &Path) -> (bool, String, Json) {
    let output = Command::new(env!("CARGO_BIN_EXE_wfc-bench"))
        .args(["run", "--workload", workload, "--seed", "7", "--smoke"])
        .args(["--seconds", "1", "--trace", if traced { "1" } else { "0" }])
        .current_dir(dir)
        .output()
        .expect("wfc-bench runs");
    let stdout = String::from_utf8(output.stdout).expect("stdout is UTF-8");
    let summary = stdout
        .lines()
        .last()
        .and_then(|l| wfc_obs::json::parse(l).ok())
        .unwrap_or_else(|| panic!("{workload}: no JSON summary line in\n{stdout}"));
    (output.status.success(), stdout, summary)
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

#[test]
fn every_workload_reports_every_metric_with_no_errors() {
    let dir = scratch_dir("wfc-bench-smoke");
    for name in &spec().workloads {
        assert!(
            Workload::parse(name).is_some(),
            "{name} is a known workload"
        );
        for traced in [false, true] {
            let (ok, stdout, summary) = run(name, traced, &dir);
            let what = format!("{name} (traced: {traced}):\n{stdout}");
            assert!(ok, "run failed: {what}");
            assert_eq!(summary.get("correct"), Some(&Json::Bool(true)), "{what}");
            assert_eq!(
                summary.get("failed").and_then(Json::as_u64),
                Some(0),
                "{what}"
            );
            assert!(summary.get("attempted").and_then(Json::as_u64) >= Some(1));
            assert!(stdout.contains("error_rate 0 fraction"), "{what}");

            let required = Outcome::required(traced);
            let metrics = summary
                .get("metrics")
                .and_then(Json::as_obj)
                .expect("a metrics object");
            assert_eq!(metrics.len(), required.len(), "{what}");
            for m in required {
                let entry = summary.get("metrics").and_then(|ms| ms.get(&m.name));
                let entry = entry.unwrap_or_else(|| panic!("{} missing: {what}", m.name));
                assert_eq!(entry.get("unit").and_then(Json::as_str), Some(&*m.unit));
                let value = entry.get("value").and_then(Json::as_f64).expect("a number");
                assert!(value.is_finite(), "{}: {what}", m.name);
                if !traced {
                    assert!(value > 0.0, "end-to-end {} must not be 0: {what}", m.name);
                }
                let line = format!("{} {} {} (n=", m.name, value, m.unit);
                assert!(stdout.contains(&line), "no line {line:?}: {what}");
            }

            if traced {
                let path = dir.join(format!("BENCH_{name}.json"));
                let text = std::fs::read_to_string(&path).expect("the trace report exists");
                let doc = wfc_obs::json::parse(&text).expect("the trace report is JSON");
                wfc_obs::report::validate(&doc).expect("the trace report is wfc-obs/v1");
                let layers = doc.get("sections").and_then(|s| s.get("layers"));
                let layers = layers.and_then(Json::as_obj).expect("a layers section");
                assert_eq!(layers.len(), spec().per_layer.len(), "{what}");
            }
        }
    }
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .expect("scratch dir")
        .filter_map(|e| e.ok())
        .filter(|e| {
            e.file_name()
                .to_string_lossy()
                .starts_with(".wfc-bench-obs")
        })
        .collect();
    assert!(
        leftovers.is_empty(),
        "traced runs remove their emit directory"
    );
}

/// Flips the pinned expectation of a job, if it has a pinned value.
fn plant(call: &mut Call) -> bool {
    match call {
        Call::Sweep { candidates, .. } => *candidates += 1,
        Call::AccessBounds { configs, .. } => *configs += 1,
        Call::Sched { violation, .. } => *violation = !*violation,
        Call::VerifyEntry { .. } | Call::Theorem5 { .. } => return false,
    }
    true
}

#[test]
fn a_planted_wrong_expectation_fails_the_run() {
    let catalog = wfc_hierarchy::catalog();
    for workload in [Workload::CheckSweep, Workload::CheckSched] {
        let jobs = check::jobs(workload, &catalog, 7, true);

        let mut out = Outcome::default();
        check::run_passes(&jobs, &catalog, 0.0, &mut out);
        assert_eq!(out.failed, 0, "the pinned smoke list passes as shipped");

        for (i, job) in jobs.iter().enumerate() {
            let mut planted = job.clone();
            if !plant(&mut planted.call) {
                continue;
            }
            let mut out = Outcome::default();
            check::run_passes(&[planted], &catalog, 0.0, &mut out);
            assert_eq!(out.failed, 1, "planted job {i} ({}) must fail", job.name);
            assert!(!out.correct(false));
        }
    }
}
