//! Integration tests for the `wfc` command-line tool.

use std::io::Write;
use std::process::Command;

fn wfc(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_wfc"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn write_temp(name: &str, contents: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("wfc-test-{name}-{}.wfc", std::process::id()));
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(contents.as_bytes()).unwrap();
    path
}

const BIT: &str = "
type bit ports 2
states zero one
invocations read set
responses r0 r1 ok
delta zero * read -> zero r0
delta one * read -> one r1
delta zero * set -> one ok
delta one * set -> one ok
";

const MUTE: &str = "
type mute ports 2
states a
invocations poke
responses ok
delta a * poke -> a ok
";

#[test]
fn classify_identifies_non_trivial_types() {
    let path = write_temp("bit", BIT);
    let out = wfc(&["classify", path.to_str().unwrap()]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("case 2: non-trivial"), "{text}");
    assert!(text.contains("one-use bit recipe"), "{text}");
    std::fs::remove_file(path).ok();
}

#[test]
fn classify_identifies_trivial_types() {
    let path = write_temp("mute", MUTE);
    let out = wfc(&["classify", path.to_str().unwrap()]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("case 1: trivial"), "{text}");
    std::fs::remove_file(path).ok();
}

#[test]
fn witness_prints_the_normal_form() {
    let path = write_temp("bit-w", BIT);
    let out = wfc(&["witness", path.to_str().unwrap()]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("Lemma 4 normal form"), "{text}");
    assert!(text.contains("k = 1"), "{text}");
    std::fs::remove_file(path).ok();
}

#[test]
fn catalog_prints_the_table() {
    let out = wfc(&["catalog"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("test_and_set"));
    assert!(text.contains("h_m^r"));
}

#[test]
fn zoo_round_trips_through_show() {
    let out = wfc(&["zoo"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    // Feed the first type back through `show`.
    let first: String = text
        .lines()
        .take_while(|l| !l.trim().is_empty())
        .collect::<Vec<_>>()
        .join("\n");
    let path = write_temp("roundtrip", &first);
    let out = wfc(&["show", path.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_file(path).ok();
}

#[test]
fn type_prints_canonical_text_that_round_trips() {
    let out = wfc(&["type", "test_and_set"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("type test_and_set"), "{text}");
    let path = write_temp("type-rt", &text);
    let out = wfc(&["show", path.to_str().unwrap()]);
    assert!(out.status.success());
    std::fs::remove_file(path).ok();

    let out = wfc(&["type", "no_such_type"]);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("known:"), "{err}");
}

#[test]
fn access_bounds_subcommand_emits_the_canonical_document() {
    let out = wfc(&["type", "test_and_set"]);
    let path = write_temp("ab", &String::from_utf8(out.stdout).unwrap());
    let out = wfc(&["access-bounds", path.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).unwrap();
    // Same document the library produces, byte for byte.
    let direct = wfc_service::run_query_text(
        wfc_service::QueryKind::AccessBounds,
        &std::fs::read_to_string(&path).unwrap(),
        &wfc_service::QueryOptions::default(),
    )
    .unwrap()
    .render();
    assert_eq!(text.trim_end(), direct, "CLI bytes differ from library");
    std::fs::remove_file(path).ok();
}

#[test]
fn theorem5_subcommand_reports_a_holding_certificate() {
    let out = wfc(&["type", "test_and_set"]);
    let path = write_temp("t5", &String::from_utf8(out.stdout).unwrap());
    let out = wfc(&["theorem5", path.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = wfc_obs::json::parse(String::from_utf8(out.stdout).unwrap().trim()).unwrap();
    assert_eq!(doc.get("holds"), Some(&wfc_obs::json::Json::Bool(true)));
    assert!(doc.get("one_use_bits").is_some());
    std::fs::remove_file(path).ok();
}

#[test]
fn query_without_addr_is_an_error() {
    let path = write_temp("noaddr", BIT);
    let out = wfc(&["query", "classify", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("--addr"), "{err}");
    std::fs::remove_file(path).ok();
}

#[test]
fn bad_usage_exits_with_two() {
    let out = wfc(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn missing_file_reports_error() {
    let out = wfc(&["classify", "/nonexistent/definitely-not-here.wfc"]);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("cannot read"), "{err}");
}

#[test]
fn parse_errors_carry_line_numbers() {
    let path = write_temp("bad", "type t ports 1\nwhatever");
    let out = wfc(&["show", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("line 2"), "{err}");
    std::fs::remove_file(path).ok();
}

#[test]
fn unknown_flags_fail_instead_of_being_ignored() {
    let out = wfc(&["type", "test_and_set"]);
    let path = write_temp("flags", &String::from_utf8(out.stdout).unwrap());
    let path = path.to_str().unwrap();

    // A misspelled budget must not run unbounded.
    let out = wfc(&["access-bounds", path, "--budget-confgs", "1"]);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("unknown flag `--budget-confgs`"), "{err}");
    assert!(out.stdout.is_empty(), "nothing may run");

    // The correct spelling reaches the engine and trips the budget.
    let out = wfc(&["access-bounds", path, "--budget-configs", "1"]);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("budget of 1"), "{err}");

    // A budget the query kind cannot carry fails too, direct or served,
    // and before anything is sent (nothing listens on port 1).
    for (args, flag, kind) in [
        (
            vec!["access-bounds", path, "--budget-schedules", "1"],
            "--budget-schedules",
            "access-bounds",
        ),
        (
            vec![
                "query",
                "classify",
                path,
                "--budget-steps",
                "1",
                "--addr",
                "127.0.0.1:1",
            ],
            "--budget-steps",
            "classify",
        ),
        (
            vec!["sched", "srsw", "--budget-configs", "1"],
            "--budget-configs",
            "sched",
        ),
    ] {
        let out = wfc(&args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(
            err.contains(&format!("`{flag}` does not apply to `{kind}` queries")),
            "{args:?}: {err}"
        );
        assert!(out.stdout.is_empty(), "{args:?}: nothing may run");
    }
    std::fs::remove_file(path).ok();
}

/// Budget flags bind the same way direct and served: a scenario takes
/// them into its `budget` directive, a sched spec into its words.
#[test]
fn budget_flags_bind_alike_direct_and_served() {
    let handle = wfc_service::serve(wfc_service::ServeConfig::default()).unwrap();
    let addr = handle.addr().to_string();
    let spec = write_temp("budget-sched", "srsw mode=pct runs=16\n");
    let spec = spec.to_str().unwrap();
    let scenario = "scenarios/cas-announce.scn";
    let cases = [
        (
            "10 configurations",
            vec!["scenario", "run", scenario, "--budget-configs", "10"],
        ),
        (
            "10 configurations",
            vec![
                "scenario",
                "run",
                scenario,
                "--budget-configs",
                "10",
                "--addr",
                &addr,
            ],
        ),
        (
            "1 schedules",
            vec!["sched", "srsw", "--budget-schedules", "1"],
        ),
        (
            "1 schedules",
            vec!["sched", "srsw", "--budget-schedules", "1", "--addr", &addr],
        ),
        (
            "1 schedules",
            vec![
                "query",
                "sched",
                spec,
                "--budget-schedules",
                "1",
                "--addr",
                &addr,
            ],
        ),
    ];
    for (budget, args) in cases {
        let out = wfc(&args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(
            err.contains(&format!("exceeded the budget of {budget}")),
            "{args:?}: {err}"
        );
        if args.contains(&"--addr") {
            let frame = String::from_utf8(out.stdout).unwrap();
            assert!(
                frame.contains(r#""code":"budget-exceeded""#),
                "{args:?}: {frame}"
            );
        }
    }
    std::fs::remove_file(spec).ok();
    handle.shutdown();
}

#[test]
fn serve_rejects_an_unknown_flag_before_binding() {
    // Hold the address: a server that tried to bind first would fail
    // with "address in use" instead of naming the flag.
    let held = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = held.local_addr().unwrap().to_string();
    let out = wfc(&["serve", "--addr", &addr, "--batch-size", "16"]);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("unknown flag `--batch-size`"), "{err}");
    assert!(out.stdout.is_empty(), "the server must not start: {err}");
}
