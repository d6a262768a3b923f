//! Golden table for the scenario runner.
//!
//! Every scenario of the checked-in corpus (`scenarios/*.scn`, in file
//! name order) is run through `run_scenario_text` with explorer threads
//! 1 and 4, and its rendered `wfc-scenario/v1` document is pinned byte
//! for byte in `tests/golden/scenarios.txt`.
//!
//! Two variants of `cas-announce` add a `budget configs=N` line that
//! binds, and pin the error each one ends in:
//!
//! * `N = 50` binds on the protocol's own execution trees (each has 102
//!   configurations), so the first exploration query fails;
//! * `N = 120` clears every original tree but binds on a tree after
//!   register elimination (those range from 28 to 135 configurations),
//!   so only `theorem5` fails.
//!
//! A change that moves a line here changes what a scenario reports and
//! must say why.

use std::fmt::Write as _;
use std::path::Path;

use wfc_service::{run_scenario_text, QueryOptions};

const GOLDEN: &str = include_str!("golden/scenarios.txt");

const THREADS: [usize; 2] = [1, 4];

/// The corpus's `cas-announce` scenario with `budget configs=N` added.
fn cas_announce_with_budget(configs: u64) -> (String, String) {
    let text = std::fs::read_to_string("scenarios/cas-announce.scn").expect("corpus scenario");
    let budgeted = text.replacen(
        "protocol cas_announce\n",
        &format!("protocol cas_announce\nbudget configs={configs}\n"),
        1,
    );
    assert_ne!(text, budgeted, "the budget line must land in the scenario");
    (format!("cas-announce+configs={configs}"), budgeted)
}

fn table() -> String {
    let mut files: Vec<_> = std::fs::read_dir(Path::new("scenarios"))
        .expect("scenarios/ is checked in")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "scn"))
        .collect();
    files.sort();
    let mut cases: Vec<(String, String)> = files
        .iter()
        .map(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read_to_string(p).expect("readable scenario"))
        })
        .collect();
    cases.push(cas_announce_with_budget(50));
    cases.push(cas_announce_with_budget(120));

    let mut out = String::new();
    for (name, text) in &cases {
        for threads in THREADS {
            let options = QueryOptions::default().with_threads(threads);
            let _ = writeln!(out, "case {name} threads={threads}");
            match run_scenario_text(text, &options) {
                Ok(doc) => {
                    let _ = writeln!(out, "  {}", doc.render());
                }
                Err(e) => {
                    let _ = writeln!(out, "  error {}: {e}", e.code());
                }
            }
        }
    }
    out
}

#[test]
fn scenario_documents_match_the_golden_table() {
    let actual = table();
    for (k, (want, got)) in GOLDEN.lines().zip(actual.lines()).enumerate() {
        assert_eq!(want, got, "golden line {} differs", k + 1);
    }
    assert_eq!(
        GOLDEN.lines().count(),
        actual.lines().count(),
        "golden table length differs; actual table:\n{actual}"
    );
}
