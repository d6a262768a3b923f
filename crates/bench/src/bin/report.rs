//! `report` — regenerate every experiment table in EXPERIMENTS.md.
//!
//! The paper is pure theory (no measured tables of its own); this report
//! is the quantitative record of its constructions: execution-tree
//! depths, access bounds, one-use-bit costs, witness lengths, transform
//! blow-ups, hierarchy values and valency statistics. It checks and
//! prints the *functional* numbers; the end-to-end benchmark
//! (`wfc-bench/` at the repository root) measures performance.
//!
//! Run with: `cargo run --release -p wfc-bench --bin report`
//!
//! Modes:
//! - no arguments — regenerate the tables and re-check their
//!   invariants. With `WFC_OBS=1 WFC_OBS_JSON=dir` the run also writes
//!   one run report of everything the traced engine calls recorded,
//!   `dir/report.json`.
//! - `--check [dir]` — validate every `.json` file in `dir` (default
//!   `WFC_OBS_JSON`, else `obs-reports`) against its schema and exit
//!   non-zero if any is invalid. Used by CI after the smoke runs that
//!   record reports.

use std::error::Error;
use std::path::{Path, PathBuf};
use std::time::Instant;

use wfc_bench::{register_protocols, substrates, witness_types};
use wfc_consensus as consensus;
use wfc_core as core;
use wfc_explorer::bivalence::analyze_valency;
use wfc_explorer::ExploreOptions;
use wfc_hierarchy as hierarchy;
use wfc_spec::witness::find_witness;
use wfc_spec::{canonical, triviality};

/// Where run reports are read from: `WFC_OBS_JSON` if set, else the
/// conventional `obs-reports` directory.
fn obs_reports_dir() -> PathBuf {
    std::env::var_os("WFC_OBS_JSON")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("obs-reports"))
}

/// The `.json` files under `dir`, sorted for deterministic output.
/// Missing or unreadable directories yield an empty list — callers
/// decide whether that is an error.
fn json_files(dir: &Path) -> Vec<PathBuf> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut files: Vec<PathBuf> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .collect();
    files.sort();
    files
}

/// Parses and schema-validates one JSON artifact, dispatching on its
/// `schema`/`proto` field: `wfc-svc-cache/v1` files (the service's disk
/// cache entries and `cache-meta.json`) go to the cache validator,
/// `wfc-stats/v1` snapshots (scraped from a live server's `stats`
/// query) go to the stats validator,
/// `wfc-repl/v1` status frames (captured by the cluster smoke script)
/// go to the replication status validator,
/// `wfc-scenario/v1` documents (produced by `wfc scenario run` and the
/// served `scenario` query) go to the scenario validator,
/// `wfc-svc/v1` frames (responses captured by smoke scripts — notably
/// `deadline-exceeded` errors, whose `budget`/`used`/`resource`/
/// `partial` shape the wire validator enforces) go to the response
/// validator, anything else must be a `wfc-obs/v1` run report.
fn validate_report(path: &Path) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read failed: {e}"))?;
    let doc = wfc_obs::json::parse(&text).map_err(|e| e.to_string())?;
    if doc.get("schema").and_then(|s| s.as_str()) == Some(wfc_service::CACHE_SCHEMA) {
        wfc_service::validate_cache_json(&doc)?;
    } else if doc.get("schema").and_then(|s| s.as_str()) == Some(wfc_service::STATS_SCHEMA) {
        wfc_service::validate_stats_json(&doc)?;
    } else if doc.get("schema").and_then(|s| s.as_str()) == Some(wfc_scenario::SCHEMA) {
        wfc_scenario::validate_scenario_json(&doc)?;
    } else if doc.get("proto").and_then(|s| s.as_str()) == Some(wfc_repl::PROTO) {
        wfc_repl::msg::validate_status_json(&doc)?;
    } else if doc.get("proto").and_then(|s| s.as_str()) == Some(wfc_service::PROTO) {
        wfc_service::validate_response_json(&doc)?;
    } else {
        wfc_obs::report::validate(&doc)?;
    }
    Ok(())
}

/// `--check [dir]`: every `.json` file in `dir` must be a valid
/// `wfc-obs/v1` run report, `wfc-svc-cache/v1` cache document,
/// `wfc-stats/v1` introspection snapshot, `wfc-scenario/v1` scenario
/// document, `wfc-repl/v1` status frame, or `wfc-svc/v1` response
/// frame.
fn check_reports(dir: &Path) -> Result<(), Box<dyn Error>> {
    if !dir.is_dir() {
        return Err(format!(
            "--check: report directory {} does not exist (run with WFC_OBS_JSON={} first)",
            dir.display(),
            dir.display()
        )
        .into());
    }
    let files = json_files(dir);
    if files.is_empty() {
        return Err(format!("--check: no .json reports in {}", dir.display()).into());
    }
    let mut invalid = 0usize;
    for path in &files {
        match validate_report(path) {
            Ok(()) => println!("ok      {}", path.display()),
            Err(e) => {
                eprintln!("INVALID {}: {e}", path.display());
                invalid += 1;
            }
        }
    }
    if invalid > 0 {
        return Err(format!("{invalid} of {} report(s) invalid", files.len()).into());
    }
    println!("{} report(s) valid", files.len());
    Ok(())
}

fn main() -> Result<(), Box<dyn Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("--check") => {
            let dir = args
                .get(1)
                .map(PathBuf::from)
                .unwrap_or_else(obs_reports_dir);
            return check_reports(&dir);
        }
        Some(other) => {
            return Err(
                format!("unknown argument {other:?}; usage: report [--check [dir]]").into(),
            );
        }
        None => {}
    }

    let opts = ExploreOptions::default();

    println!("==================================================================");
    println!(" E1 — one-use bit implementations (paper §3, §5)");
    println!("==================================================================");
    println!(
        "{:<22} {:>12} {:>12} {:>14}",
        "implementation", "write cost", "read cost", "objects used"
    );
    println!(
        "{:<22} {:>12} {:>12} {:>14}",
        "atomic (native)", "1 store", "1 load", "1 AtomicBool"
    );
    for ty in [
        wfc_spec::canonical::test_and_set(2),
        wfc_spec::canonical::boolean_register(2),
        wfc_spec::canonical::queue(1, 1, 2),
        wfc_spec::canonical::marked_ring(4),
    ] {
        let ty = std::sync::Arc::new(ty);
        let recipe = core::OneUseRecipe::from_type(&ty)?;
        println!(
            "{:<22} {:>12} {:>12} {:>14}",
            format!("derived/{}", ty.name()),
            "1 invocation",
            format!("{} invocations", recipe.read_cost()),
            format!("1 × {}", ty.name()),
        );
    }
    println!(
        "{:<22} {:>12} {:>12} {:>14}",
        "consensus (§5.3)", "1 propose", "1 propose", "1 consensus"
    );

    println!();
    println!("==================================================================");
    println!(" E2 — register chain layer costs (paper §4.1), 4 readers");
    println!("==================================================================");
    println!(
        "{:<28} {:>22} {:>22}",
        "layer", "base cells / write", "base cells / read"
    );
    let n = 4usize;
    for (layer, wr, rd) in [
        ("L0 srsw atomic cell", 1, 1),
        ("L1 mrsw regular bit", n, 1),
        ("L2 unary regular (8 vals)", 8 * n, 8), // worst case scan/clear
        ("L3 mrsw atomic (matrix)", n, 2 * n - 1),
        ("L4 mrmw (2 writers)", 2 * n + 1, 2 * n), // scan both + write own
    ] {
        println!("{:<28} {:>22} {:>22}", layer, wr, rd);
    }
    println!("(worst-case counts)");

    println!();
    println!("==================================================================");
    println!(" E3 — access bounds in wait-free consensus (paper §4.2)");
    println!("==================================================================");
    println!(
        "{:<16} {:>3} {:>16} {:>4} {:>9} {:>14}",
        "protocol", "n", "d per tree", "D", "configs", "(r_b, w_b)/reg"
    );
    for (label, build) in register_protocols() {
        let b = core::access_bounds(2, build, &opts)?;
        println!(
            "{:<16} {:>3} {:>16} {:>4} {:>9} {:>14}",
            label,
            2,
            format!("{:?}", b.depth_per_tree),
            b.d_max,
            b.total_configs,
            format!(
                "{:?}",
                b.registers
                    .iter()
                    .map(|r| (r.reads, r.writes))
                    .collect::<Vec<_>>()
            ),
        );
    }
    for n in 2..=3 {
        let b = core::access_bounds(n, consensus::cas_consensus_system, &opts)?;
        println!(
            "{:<16} {:>3} {:>16} {:>4} {:>9} {:>14}",
            "cas (reg-free)",
            n,
            format!("{:?}", b.depth_per_tree),
            b.d_max,
            b.total_configs,
            "[]",
        );
    }
    for n in 2..=3 {
        let b = core::access_bounds(n, consensus::cas_announce_consensus_system, &opts)?;
        println!(
            "{:<16} {:>3} {:>16} {:>4} {:>9} {:>14}",
            "cas+announce",
            n,
            format!(
                "(min d {}, max d {})",
                b.depth_per_tree.iter().min().unwrap(),
                b.depth_per_tree.iter().max().unwrap()
            ),
            b.d_max,
            b.total_configs,
            format!("{} regs, all (1,1)", b.registers.len()),
        );
    }
    // Per-process wait-freedom bounds (the "finite number of own steps").
    {
        let cs = consensus::tas_consensus_system([false, true]);
        let e = wfc_explorer::explore(&cs.system, &opts)?;
        println!(
            "per-process step bounds, tas+regs (0,1): {:?} (wait-freedom constants)",
            e.per_process_steps
        );
    }

    println!();
    println!("==================================================================");
    println!(" E4 — one-use bits required: r_b · (w_b + 1) (paper §4.3)");
    println!("==================================================================");
    print!("{:>8}", "r\\w");
    for w in 0..6 {
        print!("{:>6}", w);
    }
    println!();
    for r in 1..6 {
        print!("{:>8}", r);
        for w in 0..6 {
            print!("{:>6}", core::cost(r, w));
        }
        println!();
    }

    println!();
    println!("==================================================================");
    println!(" E5/E6 — one-use bits from non-trivial types (paper §5.1–5.2)");
    println!("==================================================================");
    println!(
        "{:<16} {:>7} {:>7} {:>5} {:>6} {:>12}",
        "type", "|Q|", "obliv", "k", "|H1|+|H2|", "search µs"
    );
    for ty in witness_types() {
        let t0 = Instant::now();
        let w = find_witness(&ty)?.expect("non-trivial");
        let micros = t0.elapsed().as_micros();
        println!(
            "{:<16} {:>7} {:>7} {:>5} {:>6} {:>12}",
            ty.name(),
            ty.state_count(),
            ty.is_oblivious(),
            w.k(),
            w.total_len(),
            micros,
        );
        assert!(w.verify(&ty));
    }
    // Triviality deciders agree (Lemmas 2–4 cross-check) on the zoo.
    for ty in canonical::deterministic_zoo(2) {
        let trivial = triviality::is_trivial(&ty)?;
        let witness = find_witness(&ty)?.is_some();
        assert_eq!(trivial, !witness, "{}", ty.name());
    }
    println!("(cross-check: closure decider ≡ normal-form search on the whole zoo ✓)");

    println!();
    println!("==================================================================");
    println!(" E8 — Theorem 5 register elimination grid");
    println!("==================================================================");
    println!(
        "{:<16} {:<16} {:>5} {:>9} {:>9} {:>8} {:>8}",
        "protocol", "substrate", "bits", "D before", "D after", "correct", "objects"
    );
    for (plabel, build) in register_protocols() {
        for (slabel, source) in substrates() {
            let cert = core::check_theorem5(2, build, &source, &opts)?;
            let sample = build(&[true, false]);
            let elim = core::eliminate_registers(&sample, &cert.bounds.registers, &source)?;
            println!(
                "{:<16} {:<16} {:>5} {:>9} {:>9} {:>8} {:>8}",
                plabel,
                slabel,
                cert.one_use_bits,
                cert.before.d_max,
                cert.after.d_max,
                cert.holds(),
                elim.system.objects().len(),
            );
            assert!(cert.holds());
        }
    }

    // Ablation: paper-uniform sizing (r_b = w_b = D) vs exact bounds.
    {
        let build = |i: &[bool]| consensus::tas_consensus_system([i[0], i[1]]);
        let bounds = core::access_bounds(2, build, &opts)?;
        let cs = build(&[true, false]);
        let exact =
            core::eliminate_registers(&cs, &bounds.registers, &core::OneUseSource::OneUseBits)?;
        let uniform = core::eliminate_registers(
            &cs,
            &bounds.paper_uniform(),
            &core::OneUseSource::OneUseBits,
        )?;
        println!(
            "ablation (tas+regs): exact bounds → {} bits; paper-uniform r=w=D → {} bits",
            exact.one_use_bits, uniform.one_use_bits
        );
    }
    // Scale: the 3-process CAS+announce protocol (6 registers).
    {
        let cert = core::check_theorem5(
            3,
            consensus::cas_announce_consensus_system,
            &core::OneUseSource::OneUseBits,
            &opts,
        )?;
        println!(
            "{:<16} {:<16} {:>5} {:>9} {:>9} {:>8} {:>8}",
            "cas+announce n=3",
            "T_1u",
            cert.one_use_bits,
            cert.before.d_max,
            cert.after.d_max,
            cert.holds(),
            "-",
        );
        assert!(cert.holds());
    }

    println!();
    println!("==================================================================");
    println!(" E7 — consensus protocols at runtime (paper §5.3 substrate)");
    println!("==================================================================");
    for _ in 0..1 {
        use wfc_consensus::Proposer;
        use wfc_runtime::run_threads;
        let decisions = run_threads(
            wfc_consensus::cas_consensus(4)
                .into_iter()
                .enumerate()
                .map(|(k, h)| move || h.propose(k as u64))
                .collect::<Vec<_>>(),
        );
        println!(
            "cas_consensus(4) live race: decisions {:?} (agreement ✓)",
            decisions
        );
        assert!(decisions.windows(2).all(|w| w[0] == w[1]));
    }

    println!();
    println!("==================================================================");
    println!(" E9 — hierarchy catalog (paper §2.3, §6)");
    println!("==================================================================");
    println!(
        "{:<22} {:>6} {:>6} {:>6} {:>6}  {:>9} {:>8}",
        "type", "h_1", "h_1^r", "h_m", "h_m^r", "det?", "verified"
    );
    let rows = hierarchy::catalog();
    for row in &rows {
        let ok = hierarchy::verify_entry(row);
        println!(
            "{:<22} {:>6} {:>6} {:>6} {:>6}  {:>9} {:>8}",
            row.ty.name(),
            row.value(hierarchy::Hierarchy::H1).to_string(),
            row.value(hierarchy::Hierarchy::H1R).to_string(),
            row.value(hierarchy::Hierarchy::HM).to_string(),
            row.value(hierarchy::Hierarchy::HMR).to_string(),
            row.ty.is_deterministic(),
            ok,
        );
        assert!(ok);
    }
    let violations = hierarchy::robustness::check_no_weak_to_strong(
        &rows,
        &hierarchy::robustness::implementation_facts(),
    );
    println!("robustness audit violations: {}", violations.len());
    assert!(violations.is_empty());

    println!();
    println!("==================================================================");
    println!(" E10 — valency analysis of consensus systems (FLP structure)");
    println!("==================================================================");
    println!(
        "{:<28} {:>8} {:>9} {:>9} {:>9} {:>6}",
        "system", "configs", "bivalent", "univalent", "critical", "cycle"
    );
    for (label, build) in register_protocols() {
        let cs = build(&[false, true]);
        let a = analyze_valency(&cs.system, &opts)?;
        println!(
            "{:<28} {:>8} {:>9} {:>9} {:>9} {:>6}",
            format!("{label} (0,1)"),
            a.configs,
            a.bivalent,
            a.univalent,
            a.critical,
            a.has_cycle,
        );
        assert!(a.initially_bivalent(), "mixed inputs race: bivalent start");
        assert!(a.critical >= 1, "a decision point exists");
    }

    // Crash tolerance (paper §1): every scenario of the TAS protocol,
    // before and after elimination.
    {
        use wfc_explorer::crash::check_crash_tolerance;
        let cs = consensus::tas_consensus_system([false, true]);
        let before = check_crash_tolerance(&cs.system, &[0, 1], &opts)?;
        let bounds =
            core::access_bounds(2, |i| consensus::tas_consensus_system([i[0], i[1]]), &opts)?;
        let elim =
            core::eliminate_registers(&cs, &bounds.registers, &core::OneUseSource::OneUseBits)?;
        let after = check_crash_tolerance(&elim.system, &[0, 1], &opts)?;
        println!(
            "crash tolerance (tas+regs 0,1): before {} scenarios / {} bad; after {} scenarios / {} bad",
            before.scenarios,
            before.stuck_scenarios + before.disagreements + before.invalid,
            after.scenarios,
            after.stuck_scenarios + after.disagreements + after.invalid,
        );
        assert!(before.holds() && after.holds());
    }

    // The largest exhaustive consensus check: 4-process CAS+announce,
    // every one of its 16 input vectors explored in full.
    {
        let v = consensus::verify_consensus_protocol(
            4,
            consensus::cas_announce_consensus_system,
            &opts,
        )?;
        println!(
            "exhaustive (cas+announce n=4, all inputs): {} trees, {} configs, D {}, agreement {}, validity {}",
            v.depth_per_tree.len(),
            v.total_configs,
            v.d_max,
            v.agreement,
            v.validity,
        );
        assert_eq!(v.depth_per_tree.len(), 16);
        assert!(v.holds());
    }

    // The bounded exhaustive impossibility: no one-round register-only
    // protocol solves 2-process consensus.
    let outcome = hierarchy::impossibility::search_one_round_protocols(&opts)?;
    println!(
        "one-round register protocols: {} candidates ({} checked up to swapping the processes), \
         {} explorations, {} survivors \
         (classical impossibility, exhaustively verified on this family)",
        outcome.candidates,
        outcome.representatives,
        outcome.explorations,
        outcome.survivors.len(),
    );
    assert!(outcome.survivors.is_empty());

    println!();
    println!("all experiment tables regenerated and their invariants re-checked");
    if wfc_obs::emission_requested() {
        wfc_obs::report::RunReport::collect("report").emit();
    }
    Ok(())
}
