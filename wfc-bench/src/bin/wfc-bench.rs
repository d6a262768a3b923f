//! `wfc-bench` — the end-to-end benchmark's command line.
//!
//! ```text
//! wfc-bench run --workload NAME [--seed S] [--seconds N] [--trace [0|1]] [--out FILE] [--smoke]
//! wfc-bench run --all [--seed S] [--seconds N] [--trace [0|1]] [--smoke]
//! wfc-bench run (--all | --workload NAME) --repeat N [--seed S] [--seconds N] [--smoke]
//! ```
//!
//! A single-workload run prints one `name value unit (n=samples)` line
//! per metric and then, as its last line, a JSON summary
//! (`correct`, `attempted`, `failed`, `metrics`); it exits non-zero
//! when any answer was wrong or missing. `--all` re-executes this binary
//! once per workload, so `setup_s` and `peak_rss_mb` are per process.
//! `--repeat N` does that N times with seeds S, S+1, … and prints each
//! end-to-end metric's median and quartiles, flagging any whose spread
//! exceeds its bound in `BENCHMARK.json`.

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use wfc_bench_e2e::metrics::{median, quartiles, spec};
use wfc_bench_e2e::trace;
use wfc_bench_e2e::workloads::{self, Params, Workload};
use wfc_obs::json::Json;

const USAGE: &str = "usage:
  wfc-bench run --workload NAME [--seed S] [--seconds N] [--trace [0|1]] [--out FILE] [--smoke]
  wfc-bench run --all [--seed S] [--seconds N] [--trace [0|1]] [--smoke]
  wfc-bench run (--all | --workload NAME) --repeat N [--seed S] [--seconds N] [--smoke]
    (NAME: serve-hot | serve-mixed | check-sweep | check-sched)";

#[derive(Debug, Default)]
struct Args {
    workload: Option<Workload>,
    all: bool,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    out: Option<PathBuf>,
    smoke: bool,
    repeat: Option<usize>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let Some((cmd, rest)) = args.split_first() else {
        return Err("missing command".to_owned());
    };
    if cmd != "run" {
        return Err(format!("unknown command {cmd:?}"));
    }
    let mut a = Args {
        seed: 1,
        ..Args::default()
    };
    let mut it = rest.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                a.workload = Some(
                    Workload::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--all" => a.all = true,
            "--seed" => {
                a.seed = value("a number")?
                    .parse()
                    .map_err(|_| "--seed needs a whole number".to_owned())?;
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|_| "--seconds needs a number".to_owned())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.traced = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--out" => a.out = Some(PathBuf::from(value("a file")?)),
            "--smoke" => a.smoke = true,
            "--repeat" => {
                let n: usize = value("a count")?
                    .parse()
                    .map_err(|_| "--repeat needs a whole number".to_owned())?;
                if n < 2 {
                    return Err("--repeat needs at least 2 runs".to_owned());
                }
                a.repeat = Some(n);
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if a.all == a.workload.is_some() {
        return Err("give exactly one of --all and --workload".to_owned());
    }
    if a.repeat.is_some() && a.traced {
        return Err("--repeat measures end-to-end metrics; drop --trace".to_owned());
    }
    Ok(a)
}

fn seconds(a: &Args) -> f64 {
    a.seconds.unwrap_or(if a.smoke {
        1.0
    } else {
        spec().run_seconds as f64
    })
}

/// Runs one workload in this process.
fn run_one(workload: Workload, a: &Args) -> ExitCode {
    let params = Params {
        seed: a.seed,
        seconds: seconds(a),
        traced: a.traced,
        smoke: a.smoke,
    };
    // Engines that emit their own run reports while traced write them
    // here, inside the working directory, for the harvest to fold in.
    let emit_dir = PathBuf::from(format!(".wfc-bench-obs-{}", std::process::id()));
    if a.traced {
        if let Err(e) = std::fs::create_dir_all(&emit_dir) {
            eprintln!("wfc-bench: cannot create {}: {e}", emit_dir.display());
            return ExitCode::FAILURE;
        }
        std::env::set_var("WFC_OBS_JSON", &emit_dir);
        trace::set_tracing(true);
    }
    let (mut out, report) = workloads::run(workload, &params);
    if a.traced {
        let _ = std::fs::remove_dir_all(&emit_dir);
    }
    if let Some(report) = report {
        let path = a
            .out
            .clone()
            .unwrap_or_else(|| PathBuf::from(format!("BENCH_{}.json", workload.name())));
        let text = report.render();
        let checked = wfc_obs::json::parse(&text)
            .map_err(|e| e.to_string())
            .and_then(|doc| wfc_obs::report::validate(&doc));
        match checked.and_then(|()| std::fs::write(&path, &text).map_err(|e| e.to_string())) {
            Ok(()) => out.notes.push(format!("trace report {}", path.display())),
            Err(e) => {
                out.attempted += 1;
                out.fail(format!("trace report {}: {e}", path.display()));
            }
        }
    }
    for missing in out.missing(a.traced) {
        eprintln!("wfc-bench: metric {missing} was not measured");
    }
    for line in out.human_lines(a.traced) {
        println!("{line}");
    }
    println!("{}", out.json_line(a.traced));
    if out.correct(a.traced) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs one workload in a fresh child process; returns its stdout
/// lines and whether it succeeded.
fn run_child(workload: Workload, seed: u64, a: &Args) -> Result<(Vec<String>, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds(a).to_string()])
        .args(["--trace", if a.traced { "1" } else { "0" }])
        .stderr(Stdio::inherit());
    if a.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd
        .output()
        .map_err(|e| format!("cannot run {}: {e}", workload.name()))?;
    let text = String::from_utf8_lossy(&output.stdout);
    Ok((
        text.lines().map(str::to_owned).collect(),
        output.status.success(),
    ))
}

/// `--all`: every workload once, each in its own process.
fn run_all(a: &Args) -> ExitCode {
    let mut ok = true;
    for w in Workload::ALL {
        println!("== {} (seed {})", w.name(), a.seed);
        match run_child(w, a.seed, a) {
            Ok((lines, success)) => {
                for line in lines.iter().take(lines.len().saturating_sub(1)) {
                    println!("  {line}");
                }
                if !success {
                    println!("  FAILED: {}", lines.last().map_or("", String::as_str));
                }
                ok &= success;
            }
            Err(e) => {
                println!("  FAILED: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--repeat N`: N runs per workload with consecutive seeds; prints
/// each end-to-end metric's median, quartiles and spread against its
/// bound.
fn repeat(a: &Args, n: usize) -> ExitCode {
    let workloads: Vec<Workload> = match a.workload {
        Some(w) => vec![w],
        None => Workload::ALL.to_vec(),
    };
    let mut ok = true;
    for w in workloads {
        let mut values: Vec<Vec<f64>> = vec![Vec::new(); spec().end_to_end.len()];
        for r in 0..n {
            let seed = a.seed + r as u64;
            let (lines, success) = match run_child(w, seed, a) {
                Ok(result) => result,
                Err(e) => {
                    eprintln!("wfc-bench: {e}");
                    return ExitCode::FAILURE;
                }
            };
            ok &= success;
            let doc = lines
                .last()
                .and_then(|l| wfc_obs::json::parse(l).ok())
                .unwrap_or(Json::Null);
            for (i, m) in spec().end_to_end.iter().enumerate() {
                if let Some(v) = doc
                    .get("metrics")
                    .and_then(|ms| ms.get(&m.name))
                    .and_then(|v| v.get("value"))
                    .and_then(Json::as_f64)
                {
                    values[i].push(v);
                }
            }
            eprintln!(
                "wfc-bench: {} run {}/{n} (seed {seed}) done",
                w.name(),
                r + 1
            );
        }
        println!(
            "== {} ({n} runs, seeds {}..={})",
            w.name(),
            a.seed,
            a.seed + n as u64 - 1
        );
        println!(
            "  {:<18} {:>12} {:>12} {:>12} {:>8} {:>6}",
            "metric", "median", "q1", "q3", "spread", "bound"
        );
        for (m, v) in spec().end_to_end.iter().zip(&values) {
            let med = median(v);
            let (q1, q3) = quartiles(v);
            let spread = (q3 - q1) / med;
            let bound = m.bound.unwrap_or(f64::INFINITY);
            let flag = if spread > bound {
                "  SPREAD>BOUND"
            } else if spread > bound / 3.0 {
                "  spread>bound/3"
            } else {
                ""
            };
            println!(
                "  {:<18} {:>12.4} {:>12.4} {:>12.4} {:>8.4} {:>6}{flag}",
                m.name, med, q1, q3, spread, bound
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let a = match parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wfc-bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match (a.repeat, a.workload) {
        (Some(n), _) => repeat(&a, n),
        (None, Some(w)) => run_one(w, &a),
        (None, None) => run_all(&a),
    }
}
