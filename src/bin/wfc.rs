//! `wfc` — command-line front end to the PODC'94 reproduction.
//!
//! ```text
//! wfc classify <TYPE-FILE>        classify a type per Theorem 5 and derive its one-use bit
//! wfc witness  <TYPE-FILE>        print the minimal non-trivial pair (Lemmas 2–4)
//! wfc show     <TYPE-FILE>        parse, validate and pretty-print a type
//! wfc catalog                     print the certified hierarchy catalog
//! wfc zoo                         dump the canonical zoo in the text format
//! wfc type <NAME>                 print one canonical type in the text format
//! wfc access-bounds <TYPE-FILE>   Section 4.2 bounds (D, r_b, w_b) as JSON
//! wfc theorem5 <TYPE-FILE>        full Theorem 5 certificate as JSON
//! wfc sched <TARGET> [key=value…] model-check a register fixture (wfc-sched)
//! wfc scenario run <FILE>         run one scenario file (direct or --addr)
//! wfc scenario check <PATH>…      run scenarios, assert every expectation
//! wfc scenario list <PATH>…       parse scenarios and print their shape
//! wfc serve [flags]               run the analysis server
//! wfc query <KIND> <TYPE-FILE> --addr HOST:PORT
//!                                 ask a running server for any analysis
//! wfc loadgen --addr HOST:PORT [flags]
//!                                 drive a server with open/closed-loop
//!                                 traffic and report latency percentiles
//! wfc stats --addr HOST:PORT [--json]
//!                                 one-shot live-introspection snapshot
//! wfc top --addr HOST:PORT [flags]
//!                                 live refreshing view of a server
//! wfc cluster-status --addr HOST:PORT
//!                                 one node's wfc-repl/v1 replication status
//! ```
//!
//! `query`, `stats`, `sched --addr`, and `cluster-status` accept
//! `--addr` more than once plus `--retries N`: the client rotates
//! through the addresses and backs off between passes, so a cluster
//! answers as long as any one node is up.
//!
//! Type files use the `wfc-spec::text` format; see `wfc zoo` for
//! examples. The JSON-producing subcommands (`access-bounds`,
//! `theorem5`, `sched`, `scenario`, and `query` with any kind) run the
//! server workers' `wfc_service::Query`, so direct and served results
//! are byte-identical.
//!
//! With `WFC_OBS=1` or `WFC_OBS_JSON=DIR`, the analysis subcommands
//! (`classify`, `witness`, `access-bounds`, `theorem5`, `sched`,
//! `scenario`) emit one `wfc-obs/v1` run report, `wfc-<subcommand>`,
//! when they finish; `serve` and `loadgen` emit their own.
//!
//! Exit codes: 0 success, 1 error, 2 usage, 3 server busy.

use std::error::Error;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use wait_free_consensus::prelude::*;
use wfc_obs::json::Json;
use wfc_service::{
    Client, Query, QueryError, QueryKind, QueryOptions, ReplConfig, Response, ServeConfig, PROTO,
};
use wfc_spec::control::{CancelToken, Wall};
use wfc_spec::text::{format_type, parse_type};
use wfc_spec::FiniteType;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  wfc classify <TYPE-FILE>\n  wfc witness <TYPE-FILE>\n  wfc show <TYPE-FILE>\n  wfc catalog\n  wfc zoo\n  wfc type <NAME>\n  wfc access-bounds <TYPE-FILE> [CONTROL-FLAGS]\n  wfc theorem5 <TYPE-FILE> [CONTROL-FLAGS]\n  wfc sched <TARGET> [mode=dfs|preempt|pct] [seed=N] [runs=N] [depth=N]\n            [preemptions=N] [budget=N] [steps=N] [sleep=on|off]\n            [replay=SCHEDULE] [CONTROL-FLAGS] [--addr HOST:PORT]\n    (TARGET: srsw | seqlock | t4 | mrsw | repl | regular | broken | repl_broken)\n  wfc scenario run <FILE> [--addr HOST:PORT] [CONTROL-FLAGS]\n  wfc scenario check <FILE-OR-DIR>... [CONTROL-FLAGS]\n  wfc scenario list <FILE-OR-DIR>...\n    (scenario files use the wfc-scenario language; directories are\n     swept for *.scn, sorted by name)\n  wfc serve [--addr HOST:PORT] [--workers N] [--cache-dir DIR]\n            [--queue-capacity N] [--cache-capacity N] [--timeout-ms N]\n            [--max-connections N] [--flight-capacity N]\n            [--anomaly-threshold-ms N]\n            [--node-id N --data-dir DIR [--peer ID=HOST:PORT ...]\n             [--compact-threshold N]]\n  wfc query <KIND> <TYPE-FILE> --addr HOST:PORT [CONTROL-FLAGS]\n    (KIND: classify | witness | access-bounds | theorem5 | verify-consensus | sched | scenario)\n  wfc loadgen --addr HOST:PORT [--connections N] [--pipeline N]\n              [--duration-ms N] [--rate N] [--mode closed|open|both]\n              [--out FILE]\n  wfc stats --addr HOST:PORT [--json]\n  wfc top --addr HOST:PORT [--interval-ms N] [--iterations N]\n  wfc cluster-status --addr HOST:PORT [--json]\n\n  `query`, `stats`, `sched --addr`, and `cluster-status` accept --addr\n  repeatedly plus --retries N: addresses are tried in rotation with a\n  capped exponential backoff between passes.\n\n  CONTROL-FLAGS (uniform across analysis subcommands):\n    --budget-configs N    explorer configuration budget (alias: --max-configs)\n                          type queries; scenarios (`budget configs=N`)\n    --budget-depth N      explorer depth budget (alias: --max-depth)\n                          type queries; scenarios (`budget depth=N`)\n    --budget-schedules N  sched schedule budget (= spec `budget=N`)\n                          sched; scenarios (`budget schedules=N`)\n    --budget-steps N      sched per-execution step cap (= spec `steps=N`)\n                          sched; scenarios (`budget steps=N`)\n    --timeout-ms N        wall-clock deadline for direct runs (not --addr)\n    --threads N           workers for independent explorations\n\n  A budget flag overrides the same budget in a sched spec or a\n  scenario's `budget` directive, direct and served alike. A budget flag\n  the query kind cannot carry is an error, and so is any flag a\n  subcommand does not list."
    );
    ExitCode::from(2)
}

fn load(path: &str) -> Result<FiniteType, Box<dyn Error>> {
    Ok(parse_type(&read(path)?)?)
}

fn cmd_show(path: &str) -> Result<(), Box<dyn Error>> {
    let ty = load(path)?;
    println!("{ty}");
    println!("  deterministic: {}", ty.is_deterministic());
    println!("  oblivious:     {}", ty.is_oblivious());
    print!("{}", format_type(&ty));
    Ok(())
}

fn cmd_classify(path: &str) -> Result<(), Box<dyn Error>> {
    let ty = Arc::new(load(path)?);
    println!("{ty}");
    if !ty.is_deterministic() {
        println!(
            "nondeterministic: Theorem 5 case 3 applies only if h_m ≥ 2 \
             (supply a 2-consensus implementation; see wfc_core::one_use_from_consensus)"
        );
        return Ok(());
    }
    match core::classify_deterministic(&ty)? {
        core::Theorem5Classification::Trivial => {
            println!("Theorem 5 case 1: trivial — locally simulable, h_m = h_m^r = 1");
        }
        core::Theorem5Classification::NonTrivial(recipe) => {
            println!("Theorem 5 case 2: non-trivial — registers add nothing (h_m = h_m^r)");
            println!("one-use bit recipe:");
            println!("  object init:  {}", ty.state_name(recipe.init()));
            println!(
                "  writer (port {}): invoke `{}`",
                recipe.writer_port().index(),
                ty.invocation_name(recipe.writer_inv())
            );
            let probes: Vec<&str> = recipe
                .reader_seq()
                .iter()
                .map(|&i| ty.invocation_name(i))
                .collect();
            println!(
                "  reader (port {}): invoke {:?}; bit = 1 iff last response ≠ `{}`",
                recipe.reader_port().index(),
                probes,
                ty.response_name(recipe.unwritten_last())
            );
            println!("  read cost: {} invocation(s)", recipe.read_cost());
        }
    }
    Ok(())
}

fn cmd_witness(path: &str) -> Result<(), Box<dyn Error>> {
    let ty = Arc::new(load(path)?);
    match spec::witness::find_witness(&ty)? {
        None => println!("{}: trivial — no non-trivial pair exists", ty.name()),
        Some(w) => {
            println!(
                "{}: minimal non-trivial pair (Lemma 4 normal form)",
                ty.name()
            );
            println!("  start state q = {}", ty.state_name(w.start));
            println!(
                "  H1 (unwritten): {:?} on port {} → responses {:?}",
                w.reader_seq
                    .iter()
                    .map(|&i| ty.invocation_name(i))
                    .collect::<Vec<_>>(),
                w.reader_port.index(),
                w.unwritten_resps
                    .iter()
                    .map(|&r| ty.response_name(r))
                    .collect::<Vec<_>>(),
            );
            println!(
                "  H2 (written):   `{}` on port {} first → responses {:?}",
                ty.invocation_name(w.writer_inv),
                w.writer_port.index(),
                w.written_resps
                    .iter()
                    .map(|&r| ty.response_name(r))
                    .collect::<Vec<_>>(),
            );
            println!("  k = {}, |H1| + |H2| = {}", w.k(), w.total_len());
            assert!(w.verify(&ty));
        }
    }
    Ok(())
}

fn cmd_catalog() {
    println!(
        "{:<22} {:>6} {:>6} {:>6} {:>6}  det?",
        "type", "h_1", "h_1^r", "h_m", "h_m^r"
    );
    for row in hierarchy::catalog() {
        println!(
            "{:<22} {:>6} {:>6} {:>6} {:>6}  {}",
            row.ty.name(),
            row.value(hierarchy::Hierarchy::H1).to_string(),
            row.value(hierarchy::Hierarchy::H1R).to_string(),
            row.value(hierarchy::Hierarchy::HM).to_string(),
            row.value(hierarchy::Hierarchy::HMR).to_string(),
            if row.ty.is_deterministic() {
                "yes"
            } else {
                "no"
            },
        );
    }
}

fn cmd_zoo() {
    for ty in spec::canonical::deterministic_zoo(2) {
        println!("{}", format_type(&ty));
    }
    println!("{}", format_type(&spec::canonical::one_use_bit()));
}

fn cmd_type(name: &str) -> Result<(), Box<dyn Error>> {
    let all: Vec<FiniteType> = spec::canonical::deterministic_zoo(2)
        .into_iter()
        .chain(std::iter::once(spec::canonical::one_use_bit()))
        .collect();
    match all.iter().find(|t| t.name() == name) {
        Some(ty) => {
            print!("{}", format_type(ty));
            Ok(())
        }
        None => {
            let known: Vec<&str> = all.iter().map(|t| t.name()).collect();
            Err(format!(
                "unknown canonical type `{name}`; known: {}",
                known.join(", ")
            )
            .into())
        }
    }
}

/// The control-plane flags every analysis subcommand accepts (see
/// [`ControlFlags`]).
const CONTROL: &[&str] = &[
    "--budget-configs",
    "--max-configs",
    "--budget-depth",
    "--max-depth",
    "--budget-schedules",
    "--budget-steps",
    "--timeout-ms",
    "--threads",
];

/// The server-address flags of the subcommands that talk to a server
/// with failover (see [`connect_cluster`]).
const CLIENT: &[&str] = &["--addr", "--retries"];

const SERVE: &[&str] = &[
    "--addr",
    "--workers",
    "--queue-capacity",
    "--cache-capacity",
    "--cache-dir",
    "--timeout-ms",
    "--max-connections",
    "--flight-capacity",
    "--anomaly-threshold-ms",
    "--node-id",
    "--data-dir",
    "--peer",
    "--compact-threshold",
];

const LOADGEN: &[&str] = &[
    "--addr",
    "--connections",
    "--pipeline",
    "--duration-ms",
    "--rate",
    "--mode",
    "--out",
];

const TOP: &[&str] = &["--addr", "--interval-ms", "--iterations"];

/// Pulls `--flag VALUE` pairs out of `args`, erroring on strays and on
/// any flag outside the `accepted` groups — a misspelled budget must
/// fail, not run unbounded.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String], accepted: &[&[&str]]) -> Result<Flags, Box<dyn Error>> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if !flag.starts_with("--") {
                return Err(format!("unexpected argument `{flag}`").into());
            }
            if !accepted.iter().any(|group| group.contains(&flag.as_str())) {
                return Err(format!("unknown flag `{flag}`").into());
            }
            let value = it
                .next()
                .ok_or_else(|| format!("flag `{flag}` needs a value"))?;
            pairs.push((flag.clone(), value.clone()));
        }
        Ok(Flags(pairs))
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(f, _)| f == name)
            .map(|(_, v)| v.as_str())
    }

    /// Every occurrence of a repeatable flag (`--peer`, `--addr`), in
    /// order.
    fn get_all(&self, name: &str) -> Vec<&str> {
        self.0
            .iter()
            .filter(|(f, _)| f == name)
            .map(|(_, v)| v.as_str())
            .collect()
    }

    fn get_usize(&self, name: &str, default: usize) -> Result<usize, Box<dyn Error>> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("flag `{name}` wants an integer, got `{v}`").into()),
        }
    }

    fn get_u64_opt(&self, name: &str) -> Result<Option<u64>, Box<dyn Error>> {
        match self.get(name) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("flag `{name}` wants an integer, got `{v}`").into()),
        }
    }
}

/// The uniform control-plane flags shared by every analysis subcommand
/// (`access-bounds`, `theorem5`, `query`, `sched`, `scenario`):
/// explorer budgets `--budget-configs` / `--budget-depth` (with
/// `--max-configs` / `--max-depth` kept as aliases), sched budgets
/// `--budget-schedules` / `--budget-steps`, a wall-clock `--timeout-ms`
/// for direct runs, and `--threads`. One parser, so every subcommand
/// spells its limits the same way.
struct ControlFlags {
    configs: Option<u64>,
    depth: Option<u64>,
    schedules: Option<u64>,
    steps: Option<u64>,
    threads: usize,
    timeout: Option<Duration>,
}

impl ControlFlags {
    fn parse(flags: &Flags) -> Result<ControlFlags, Box<dyn Error>> {
        let aliased = |new: &str, old: &str| match flags.get(new) {
            Some(_) => flags.get_u64_opt(new),
            None => flags.get_u64_opt(old),
        };
        Ok(ControlFlags {
            configs: aliased("--budget-configs", "--max-configs")?,
            depth: aliased("--budget-depth", "--max-depth")?,
            schedules: flags.get_u64_opt("--budget-schedules")?,
            steps: flags.get_u64_opt("--budget-steps")?,
            threads: flags.get_usize("--threads", QueryOptions::default().threads)?,
            timeout: flags
                .get_u64_opt("--timeout-ms")?
                .map(Duration::from_millis),
        })
    }

    /// The request for `text` as a `kind` query, with the budget flags
    /// folded in where that kind carries its budgets: a type query's
    /// options, a sched spec's words (appended, and the spec grammar
    /// resolves later keys last, so flags win over in-line spellings),
    /// a scenario's `budget` directive (flags win over the file's keys;
    /// without a flag the text is sent unchanged). A budget flag the
    /// kind cannot carry is an error, never silently dropped.
    fn request(
        &self,
        kind: QueryKind,
        mut text: String,
    ) -> Result<(String, QueryOptions), Box<dyn Error>> {
        let (explorer, sched) = match kind {
            QueryKind::Sched => (false, true),
            QueryKind::Scenario => (true, true),
            QueryKind::Stats => (false, false),
            _ => (true, false),
        };
        for (flag, value, carried) in [
            ("--budget-configs", self.configs, explorer),
            ("--budget-depth", self.depth, explorer),
            ("--budget-schedules", self.schedules, sched),
            ("--budget-steps", self.steps, sched),
        ] {
            if value.is_some() && !carried {
                return Err(format!("`{flag}` does not apply to `{kind}` queries").into());
            }
        }
        let mut options = QueryOptions::default().with_threads(self.threads);
        let budgets = [self.configs, self.depth, self.schedules, self.steps];
        match kind {
            QueryKind::Sched => {
                for (key, value) in [("budget", self.schedules), ("steps", self.steps)] {
                    if let Some(n) = value {
                        text.push_str(&format!(" {key}={n}"));
                    }
                }
            }
            QueryKind::Scenario if budgets.iter().any(Option::is_some) => {
                let mut sc = wfc_scenario::parse_scenario(&text)
                    .map_err(|e| QueryError::Parse(e.to_string()))?;
                let b = &mut sc.budget;
                b.configs = self.configs.or(b.configs);
                b.depth = self.depth.or(b.depth);
                b.schedules = self.schedules.or(b.schedules);
                b.steps = self.steps.or(b.steps);
                text = sc.canonical_text();
            }
            _ => {
                let bound =
                    |v: Option<u64>, d| v.map_or(d, |v| usize::try_from(v).unwrap_or(usize::MAX));
                options.max_configs = bound(self.configs, options.max_configs);
                options.max_depth = bound(self.depth, options.max_depth);
            }
        }
        Ok((text, options))
    }

    /// Runs `text` as a `kind` query right here: the same [`Query`] the
    /// server workers run, under `--timeout-ms`.
    fn run(&self, kind: QueryKind, text: String) -> Result<Json, Box<dyn Error>> {
        let (text, options) = self.request(kind, text)?;
        let wall = self.timeout.map(Wall::expires_in);
        Ok(Query::parse(kind, &text, &options)?.run(CancelToken::NONE, wall)?)
    }
}

/// Reads a query's input file.
fn read(path: impl AsRef<std::path::Path>) -> Result<String, String> {
    let path = path.as_ref();
    std::fs::read_to_string(path).map_err(|e| format!("cannot read `{}`: {e}", path.display()))
}

/// `access-bounds` / `theorem5`: the same engine the server workers
/// run, printed as the canonical JSON document.
fn cmd_direct_query(kind: QueryKind, path: &str, rest: &[String]) -> Result<(), Box<dyn Error>> {
    let flags = Flags::parse(rest, &[CONTROL])?;
    let doc = ControlFlags::parse(&flags)?.run(kind, read(path)?)?;
    println!("{}", doc.render());
    Ok(())
}

#[cfg(unix)]
mod sig {
    //! SIGTERM/SIGINT → a flag, with nothing but the C library's
    //! `signal(2)`. Registering a handler is all the smoke test needs to
    //! assert clean shutdown on `kill -TERM`.
    use std::sync::atomic::{AtomicBool, Ordering};

    pub static STOP: AtomicBool = AtomicBool::new(false);

    type Handler = extern "C" fn(i32);

    extern "C" {
        fn signal(signum: i32, handler: Handler) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        STOP.store(true, Ordering::SeqCst);
    }

    pub fn install() {
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }

    pub fn stopped() -> bool {
        STOP.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod sig {
    pub fn install() {}
    pub fn stopped() -> bool {
        false
    }
}

fn cmd_serve(rest: &[String]) -> Result<(), Box<dyn Error>> {
    let flags = Flags::parse(rest, &[SERVE])?;
    let defaults = ServeConfig::default();
    let config = ServeConfig {
        addr: flags.get("--addr").unwrap_or("127.0.0.1:7414").to_owned(),
        workers: flags.get_usize("--workers", defaults.workers)?,
        queue_capacity: flags.get_usize("--queue-capacity", defaults.queue_capacity)?,
        cache_capacity: flags.get_usize("--cache-capacity", defaults.cache_capacity)?,
        cache_dir: flags.get("--cache-dir").map(Into::into),
        request_timeout: match flags.get_usize("--timeout-ms", 0)? {
            0 => None,
            ms => Some(Duration::from_millis(ms as u64)),
        },
        max_connections: flags.get_usize("--max-connections", defaults.max_connections)?,
        flight_capacity: flags.get_usize("--flight-capacity", defaults.flight_capacity)?,
        anomaly_threshold: match flags.get_usize("--anomaly-threshold-ms", 0)? {
            0 => None,
            ms => Some(Duration::from_millis(ms as u64)),
        },
        repl: parse_repl_flags(&flags)?,
        ..defaults
    };
    let clustered = config.repl.is_some();
    let handle = wfc_service::serve(config)?;
    match clustered {
        true => println!(
            "listening on {} ({PROTO}, {})",
            handle.addr(),
            wfc_repl::PROTO
        ),
        false => println!("listening on {} ({PROTO})", handle.addr()),
    }
    use std::io::Write as _;
    std::io::stdout().flush().ok();
    sig::install();
    while !sig::stopped() {
        std::thread::sleep(Duration::from_millis(50));
    }
    handle.shutdown();
    if wfc_obs::emission_requested() {
        wfc_obs::report::RunReport::collect("wfc-serve").emit();
    }
    Ok(())
}

/// Replication flags for `wfc serve`: `--node-id N --data-dir DIR`
/// turn clustering on, `--peer ID=HOST:PORT` (repeatable) names the
/// other members. A solo node (no peers) is a valid one-member cluster
/// — it still gets the WAL and crash recovery.
fn parse_repl_flags(flags: &Flags) -> Result<Option<ReplConfig>, Box<dyn Error>> {
    let node_id = flags.get_u64_opt("--node-id")?;
    let data_dir = flags.get("--data-dir");
    let peer_args = flags.get_all("--peer");
    let (Some(node_id), Some(data_dir)) = (node_id, data_dir) else {
        if node_id.is_some() || data_dir.is_some() || !peer_args.is_empty() {
            return Err("clustered serve needs both --node-id N and --data-dir DIR".into());
        }
        return Ok(None);
    };
    let mut peers = Vec::new();
    for spec in peer_args {
        let (id, addr) = spec
            .split_once('=')
            .ok_or_else(|| format!("--peer wants ID=HOST:PORT, got `{spec}`"))?;
        let id: u64 = id
            .parse()
            .map_err(|_| format!("--peer member id must be an integer, got `{id}`"))?;
        if id == node_id {
            return Err(format!("--peer {spec} names this node's own id").into());
        }
        peers.push((id, addr.to_owned()));
    }
    Ok(Some(ReplConfig {
        node_id,
        peers,
        data_dir: data_dir.into(),
        compact_threshold: flags.get_usize("--compact-threshold", 1024)? as u64,
    }))
}

/// Connects to the first reachable `--addr` (repeatable), retrying
/// `--retries` extra passes with capped exponential backoff — the
/// client half of cluster failover.
fn connect_cluster(flags: &Flags, who: &str) -> Result<Client, Box<dyn Error>> {
    let addrs: Vec<String> = flags
        .get_all("--addr")
        .into_iter()
        .map(str::to_owned)
        .collect();
    if addrs.is_empty() {
        return Err(format!("`{who}` needs --addr HOST:PORT").into());
    }
    // The default rides out a freshly spawned server's bind (the old
    // 10-second connect_retry contract): 12 passes back off
    // 2,4,…,1024 ms (capped), about five seconds in total.
    let retries = flags.get_usize("--retries", 12)? as u32;
    Client::connect_failover(&addrs, retries)
        .map_err(|e| format!("cannot connect to {}: {e}", addrs.join(", ")).into())
}

/// `cluster-status`: ask one node (with failover) for its `wfc-repl/v1`
/// status frame, validate it, and print it.
fn cmd_cluster_status(rest: &[String]) -> Result<ExitCode, Box<dyn Error>> {
    let mut rest: Vec<String> = rest.to_vec();
    let json = match rest.iter().position(|a| a == "--json") {
        Some(i) => {
            rest.remove(i);
            true
        }
        None => false,
    };
    let flags = Flags::parse(&rest, &[CLIENT])?;
    let mut client = connect_cluster(&flags, "wfc cluster-status")?;
    client.send_doc(&wfc_repl::msg::status_request(1))?;
    let reply = client.recv_doc()?;
    wfc_repl::msg::validate_status_json(&reply)
        .map_err(|e| format!("malformed status reply: {e}"))?;
    if json {
        println!("{}", reply.render());
        return Ok(ExitCode::SUCCESS);
    }
    if !matches!(reply.get("enabled"), Some(Json::Bool(true))) {
        println!("replication: disabled");
        return Ok(ExitCode::SUCCESS);
    }
    let u = |key: &str| reply.get(key).and_then(Json::as_u64).unwrap_or(0);
    let members = reply
        .get("members")
        .and_then(Json::as_arr)
        .map(|m| {
            m.iter()
                .filter_map(Json::as_u64)
                .map(|id| id.to_string())
                .collect::<Vec<_>>()
                .join(",")
        })
        .unwrap_or_default();
    println!(
        "node {} of [{}]  sequencer {}{}",
        u("node_id"),
        members,
        u("sequencer"),
        if u("node_id") == u("sequencer") {
            " (this node)"
        } else {
            ""
        }
    );
    println!(
        "log: last index {}  committed {}  applied {}",
        u("last_index"),
        u("committed"),
        u("applied")
    );
    println!(
        "peers connected: {}  wal records: {}",
        u("peers_connected"),
        u("wal_records")
    );
    Ok(ExitCode::SUCCESS)
}

/// `loadgen`: drive a running server with the built-in traffic mixes
/// and emit the `BENCH_service` run report (`service_loadgen` section).
fn cmd_loadgen(rest: &[String]) -> Result<ExitCode, Box<dyn Error>> {
    use wfc_service::loadgen::{self, Mode};

    let flags = Flags::parse(rest, &[LOADGEN])?;
    let addr = flags
        .get("--addr")
        .ok_or("`wfc loadgen` needs --addr HOST:PORT")?
        .to_owned();
    let rate = flags.get_usize("--rate", 200)? as u64;
    let mut mixes = loadgen::default_mixes(rate);
    match flags.get("--mode").unwrap_or("both") {
        "both" => {}
        "closed" => mixes.retain(|m| m.mode == Mode::Closed),
        "open" => mixes.retain(|m| m.mode != Mode::Closed),
        other => return Err(format!("--mode wants closed|open|both, got `{other}`").into()),
    }
    let opts = loadgen::LoadgenOptions {
        addr,
        connections: flags.get_usize("--connections", 4)?,
        pipeline: flags.get_usize("--pipeline", 4)?,
        duration: Duration::from_millis(flags.get_usize("--duration-ms", 2000)? as u64),
        mixes,
    };
    let reports = loadgen::run(&opts)?;
    loadgen::print_summary(&reports);
    let report = loadgen::to_report(&reports);
    if let Some(path) = flags.get("--out") {
        std::fs::write(path, report.render()).map_err(|e| format!("cannot write `{path}`: {e}"))?;
        eprintln!("# report written to {path}");
    }
    if wfc_obs::emission_requested() {
        report.emit();
    }
    let completed: u64 = reports.iter().map(|r| r.ok).sum();
    if completed == 0 {
        return Err("loadgen completed zero successful requests".into());
    }
    Ok(ExitCode::SUCCESS)
}

/// Fetches and validates one `wfc-stats/v1` snapshot from a server.
fn fetch_stats(client: &mut Client) -> Result<Json, Box<dyn Error>> {
    match client.query(QueryKind::Stats, "", &QueryOptions::default())? {
        Response::Ok { result, .. } => {
            wfc_service::validate_stats_json(&result)
                .map_err(|e| format!("malformed stats snapshot: {e}"))?;
            Ok(result)
        }
        other => Err(format!("unexpected stats reply: {other:?}").into()),
    }
}

/// Renders a `wfc-stats/v1` snapshot as the human-readable view shared
/// by `wfc stats` (one shot) and `wfc top` (refreshing).
fn render_stats(doc: &Json) -> String {
    use std::fmt::Write as _;
    fn u(doc: &Json, key: &str) -> u64 {
        doc.get(key).and_then(Json::as_u64).unwrap_or(0)
    }
    let mut out = String::new();
    let null = Json::Null;
    let server = doc.get("server").unwrap_or(&null);
    let obs_on = matches!(server.get("obs_enabled"), Some(Json::Bool(true)));
    let _ = writeln!(
        out,
        "uptime {:.1}s   observability {}",
        u(doc, "uptime_us") as f64 / 1e6,
        if obs_on {
            "on"
        } else {
            "off (run the server with WFC_OBS=1 for stage data)"
        },
    );
    let _ = writeln!(
        out,
        "workers {}   conns {}/{}   queue {}/{}   inflight {}   accepted {}",
        u(server, "workers"),
        u(server, "connections"),
        u(server, "max_connections"),
        u(server, "queue_depth"),
        u(server, "queue_capacity"),
        u(server, "inflight"),
        u(server, "requests_accepted"),
    );
    if let Some(stages) = doc.get("stages").and_then(Json::as_obj) {
        if !stages.is_empty() {
            let _ = writeln!(
                out,
                "\n{:<8} {:>10} {:>10} {:>10} {:>10} {:>10}",
                "stage", "count", "mean_us", "p50_us", "p95_us", "p99_us"
            );
            for (name, hist) in stages {
                let _ = writeln!(
                    out,
                    "{:<8} {:>10} {:>10} {:>10} {:>10} {:>10}",
                    name,
                    u(hist, "count"),
                    u(hist, "mean"),
                    u(hist, "p50"),
                    u(hist, "p95"),
                    u(hist, "p99"),
                );
            }
        }
    }
    if let Some(counters) = doc.get("counters").and_then(Json::as_obj) {
        let mut service: Vec<&(String, Json)> = counters
            .iter()
            .filter(|(name, _)| name.starts_with("service."))
            .collect();
        service.sort_by(|a, b| a.0.cmp(&b.0));
        if !service.is_empty() {
            let _ = writeln!(out);
            for (name, value) in service {
                let _ = writeln!(out, "{:<36} {}", name, value.render());
            }
        }
    }
    if let Some(flight) = doc.get("flight") {
        let records = flight.get("records").and_then(Json::as_arr).unwrap_or(&[]);
        let _ = writeln!(
            out,
            "\nflight recorder: {} recorded (ring capacity {}), last {}:",
            u(flight, "recorded"),
            u(flight, "capacity"),
            records.len(),
        );
        for record in records.iter().rev().take(8) {
            let anomalies: Vec<&str> = record
                .get("anomaly")
                .and_then(Json::as_arr)
                .unwrap_or(&[])
                .iter()
                .filter_map(Json::as_str)
                .collect();
            let _ = writeln!(
                out,
                "  #{:<8} {:<14} {:<9} {:<6} {:>8}us{}{}",
                u(record, "id"),
                record.get("kind").and_then(Json::as_str).unwrap_or("?"),
                record
                    .get("disposition")
                    .and_then(Json::as_str)
                    .unwrap_or("?"),
                record.get("outcome").and_then(Json::as_str).unwrap_or("?"),
                u(record, "total_us"),
                if anomalies.is_empty() { "" } else { "  ! " },
                anomalies.join(","),
            );
        }
    }
    out
}

/// `stats`: one snapshot from a running server, human-readable by
/// default, raw validated JSON with `--json`.
fn cmd_stats(rest: &[String]) -> Result<ExitCode, Box<dyn Error>> {
    // `--json` is the one valueless switch in the CLI; peel it off
    // before the uniform `--flag value` parser sees the rest.
    let mut rest: Vec<String> = rest.to_vec();
    let json = match rest.iter().position(|a| a == "--json") {
        Some(i) => {
            rest.remove(i);
            true
        }
        None => false,
    };
    let flags = Flags::parse(&rest, &[CLIENT])?;
    let mut client = connect_cluster(&flags, "wfc stats")?;
    let doc = fetch_stats(&mut client)?;
    if json {
        println!("{}", doc.render());
    } else {
        print!("{}", render_stats(&doc));
    }
    Ok(ExitCode::SUCCESS)
}

/// `top`: refresh the `wfc stats` view in place until interrupted (or
/// for `--iterations N` rounds, which is what CI uses).
fn cmd_top(rest: &[String]) -> Result<ExitCode, Box<dyn Error>> {
    let flags = Flags::parse(rest, &[TOP])?;
    let addr = flags
        .get("--addr")
        .ok_or("`wfc top` needs --addr HOST:PORT")?;
    let interval = Duration::from_millis(flags.get_usize("--interval-ms", 1000)? as u64);
    let iterations = flags.get_usize("--iterations", 0)?; // 0 = until ^C
    let mut client = Client::connect_retry(addr, Duration::from_secs(10))
        .map_err(|e| format!("cannot connect to `{addr}`: {e}"))?;
    sig::install();
    let mut round = 0usize;
    while !sig::stopped() {
        let doc = fetch_stats(&mut client)?;
        // ANSI clear-screen + home; a plain separator when piped would
        // be nicer, but std has no isatty, and `top` is interactive.
        let frame = format!(
            "\x1b[2J\x1b[Hwfc top — {addr}   (^C to quit)\n\n{}",
            render_stats(&doc)
        );
        use std::io::Write as _;
        let mut stdout = std::io::stdout();
        if stdout
            .write_all(frame.as_bytes())
            .and_then(|()| stdout.flush())
            .is_err()
        {
            break; // stdout closed (e.g. piped to a finished reader)
        }
        round += 1;
        if iterations != 0 && round >= iterations {
            break;
        }
        let mut waited = Duration::ZERO;
        while waited < interval && !sig::stopped() {
            let step = Duration::from_millis(50).min(interval - waited);
            std::thread::sleep(step);
            waited += step;
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_query(kind_name: &str, path: &str, rest: &[String]) -> Result<ExitCode, Box<dyn Error>> {
    let kind =
        QueryKind::parse(kind_name).ok_or_else(|| format!("unknown query kind `{kind_name}`"))?;
    let flags = Flags::parse(rest, &[CONTROL, CLIENT])?;
    let control = ControlFlags::parse(&flags)?;
    served_query(kind, read(path)?, &control, &flags, "wfc query")
}

/// Sends one query to a server (with address failover) and prints the
/// response; shared by `wfc query`, `wfc sched --addr` and
/// `wfc scenario run --addr`. The control flags are folded into the
/// request before anything is sent.
fn served_query(
    kind: QueryKind,
    text: String,
    control: &ControlFlags,
    flags: &Flags,
    who: &str,
) -> Result<ExitCode, Box<dyn Error>> {
    if control.timeout.is_some() {
        return Err(
            "`--timeout-ms` bounds direct runs; a served query's deadline is \
                    the server's own `--timeout-ms`"
                .into(),
        );
    }
    let (text, options) = control.request(kind, text)?;
    let mut client = connect_cluster(flags, who)?;
    let response = client.query(kind, &text, &options)?;
    match &response {
        Response::Ok { result, cached, .. } => {
            eprintln!("# cached: {cached}");
            println!("{}", result.render());
            Ok(ExitCode::SUCCESS)
        }
        Response::Error {
            code,
            message,
            budget,
            used,
            ..
        } => {
            // The full structured error — code, quantities, resource,
            // partial progress — goes to stdout so scripts can capture
            // and validate it (`wfc-report --check`); the summary goes
            // to stderr for humans.
            println!("{}", response.to_json().render());
            match (budget, used) {
                (Some(b), Some(u)) => eprintln!("error [{code}]: {message} (budget {b}, used {u})"),
                _ => eprintln!("error [{code}]: {message}"),
            }
            Ok(ExitCode::FAILURE)
        }
        Response::Busy { used, budget, .. } => {
            eprintln!("busy: request queue at {used}/{budget}; retry later");
            Ok(ExitCode::from(3))
        }
    }
}

/// `sched`: run the `wfc-sched` model checker on a named register
/// fixture. The spec words (`target key=value …`) form the query text
/// verbatim, and both paths — direct and `--addr` — go through the one
/// `QueryKind::Sched` engine, so their result bytes are identical.
fn cmd_sched(rest: &[String]) -> Result<ExitCode, Box<dyn Error>> {
    let split = rest
        .iter()
        .position(|a| a.starts_with("--"))
        .unwrap_or(rest.len());
    let (spec_words, flag_args) = rest.split_at(split);
    if spec_words.is_empty() {
        return Err("`wfc sched` needs a target; try `wfc sched srsw` or see `wfc` usage".into());
    }
    let flags = Flags::parse(flag_args, &[CONTROL, CLIENT])?;
    let control = ControlFlags::parse(&flags)?;
    let text = spec_words.join(" ");
    if flags.get("--addr").is_some() {
        return served_query(QueryKind::Sched, text, &control, &flags, "wfc sched");
    }
    println!("{}", control.run(QueryKind::Sched, text)?.render());
    Ok(ExitCode::SUCCESS)
}

/// Expands a `wfc scenario` path argument: a file stands for itself, a
/// directory for its `*.scn` files sorted by name (so `check` output is
/// deterministic across filesystems).
fn scenario_files(path: &str) -> Result<Vec<std::path::PathBuf>, Box<dyn Error>> {
    let meta = std::fs::metadata(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    if !meta.is_dir() {
        return Ok(vec![path.into()]);
    }
    let mut files: Vec<std::path::PathBuf> = std::fs::read_dir(path)
        .map_err(|e| format!("cannot read `{path}`: {e}"))?
        .filter_map(Result::ok)
        .map(|entry| entry.path())
        .filter(|p| p.extension().is_some_and(|e| e == "scn"))
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(format!("`{path}` contains no .scn scenario files").into());
    }
    Ok(files)
}

/// `scenario run`: one file to its `wfc-scenario/v1` document, direct
/// (the same engine the server workers run) or served with `--addr`.
/// The exit code reflects the document's `pass` verdict.
fn cmd_scenario_run(path: &str, flags: &Flags) -> Result<ExitCode, Box<dyn Error>> {
    let control = ControlFlags::parse(flags)?;
    let src = read(path)?;
    if flags.get("--addr").is_some() {
        return served_query(
            QueryKind::Scenario,
            src,
            &control,
            flags,
            "wfc scenario run",
        );
    }
    let doc = control.run(QueryKind::Scenario, src)?;
    println!("{}", doc.render());
    Ok(match doc.get("pass") {
        Some(Json::Bool(true)) => ExitCode::SUCCESS,
        _ => ExitCode::FAILURE,
    })
}

/// `scenario check`: run every scenario and assert every expectation —
/// one line per scenario, non-zero exit if anything failed. This is the
/// one-command paper-claims regression over `scenarios/`.
fn cmd_scenario_check(paths: &[String], flags: &Flags) -> Result<ExitCode, Box<dyn Error>> {
    let control = ControlFlags::parse(flags)?;
    let mut total = 0usize;
    let mut failed = 0usize;
    for arg in paths {
        for file in scenario_files(arg)? {
            total += 1;
            let shown = file.display();
            let doc = match control.run(QueryKind::Scenario, read(&file)?) {
                Ok(doc) => doc,
                Err(e) => {
                    failed += 1;
                    println!("FAIL {shown}: {e}");
                    continue;
                }
            };
            let name = doc.get("scenario").and_then(Json::as_str).unwrap_or("?");
            let queries = doc.get("queries").and_then(Json::as_arr).unwrap_or(&[]);
            if doc.get("pass") == Some(&Json::Bool(true)) {
                println!("ok   {name} ({} queries) — {shown}", queries.len());
                continue;
            }
            failed += 1;
            println!("FAIL {name} — {shown}");
            for q in queries {
                if q.get("pass") != Some(&Json::Bool(true)) {
                    println!(
                        "     query {} expected {}, result disagrees",
                        q.get("kind").and_then(Json::as_str).unwrap_or("?"),
                        q.get("expect").and_then(Json::as_str).unwrap_or("(none)"),
                    );
                }
            }
        }
    }
    println!("{total} scenario(s), {failed} failed");
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `scenario list`: parse (but do not run) scenarios and print their
/// shape — name, resolved type, protocol, query kinds.
fn cmd_scenario_list(paths: &[String]) -> Result<ExitCode, Box<dyn Error>> {
    for arg in paths {
        for file in scenario_files(arg)? {
            let shown = file.display();
            let sc =
                wfc_scenario::parse_scenario(&read(&file)?).map_err(|e| format!("{shown}: {e}"))?;
            let kinds: Vec<&str> = sc.queries.iter().map(|q| q.kind.as_str()).collect();
            println!(
                "{:<20} type={:<18} protocol={:<14} queries={}",
                sc.name,
                sc.resolved.name(),
                sc.protocol.as_deref().unwrap_or("-"),
                kinds.join(","),
            );
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_scenario(rest: &[String]) -> Result<ExitCode, Box<dyn Error>> {
    let usage = "`wfc scenario` wants run|check|list; see `wfc` usage";
    let (sub, rest) = rest.split_first().ok_or(usage)?;
    let split = rest
        .iter()
        .position(|a| a.starts_with("--"))
        .unwrap_or(rest.len());
    let (paths, flag_args) = rest.split_at(split);
    let accepted: &[&[&str]] = match sub.as_str() {
        "run" => &[CONTROL, CLIENT],
        "check" => &[CONTROL],
        _ => &[],
    };
    let flags = Flags::parse(flag_args, accepted)?;
    match sub.as_str() {
        "run" => match paths {
            [path] => cmd_scenario_run(path, &flags),
            _ => Err("`wfc scenario run` wants exactly one FILE".into()),
        },
        "check" if !paths.is_empty() => cmd_scenario_check(paths, &flags),
        "check" => Err("`wfc scenario check` wants at least one FILE or DIR".into()),
        "list" if !paths.is_empty() => cmd_scenario_list(paths),
        "list" => Err("`wfc scenario list` wants at least one FILE or DIR".into()),
        _ => Err(usage.into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result: Result<ExitCode, Box<dyn Error>> = match args.as_slice() {
        [cmd, path] if cmd == "classify" => cmd_classify(path).map(|()| ExitCode::SUCCESS),
        [cmd, path] if cmd == "witness" => cmd_witness(path).map(|()| ExitCode::SUCCESS),
        [cmd, path] if cmd == "show" => cmd_show(path).map(|()| ExitCode::SUCCESS),
        [cmd] if cmd == "catalog" => {
            cmd_catalog();
            Ok(ExitCode::SUCCESS)
        }
        [cmd] if cmd == "zoo" => {
            cmd_zoo();
            Ok(ExitCode::SUCCESS)
        }
        [cmd, name] if cmd == "type" => cmd_type(name).map(|()| ExitCode::SUCCESS),
        [cmd, path, rest @ ..] if cmd == "access-bounds" => {
            cmd_direct_query(QueryKind::AccessBounds, path, rest).map(|()| ExitCode::SUCCESS)
        }
        [cmd, path, rest @ ..] if cmd == "theorem5" => {
            cmd_direct_query(QueryKind::Theorem5, path, rest).map(|()| ExitCode::SUCCESS)
        }
        [cmd, rest @ ..] if cmd == "sched" => cmd_sched(rest),
        [cmd, rest @ ..] if cmd == "scenario" => cmd_scenario(rest),
        [cmd, rest @ ..] if cmd == "serve" => cmd_serve(rest).map(|()| ExitCode::SUCCESS),
        [cmd, rest @ ..] if cmd == "loadgen" => cmd_loadgen(rest),
        [cmd, rest @ ..] if cmd == "stats" => cmd_stats(rest),
        [cmd, rest @ ..] if cmd == "top" => cmd_top(rest),
        [cmd, rest @ ..] if cmd == "cluster-status" => cmd_cluster_status(rest),
        [cmd, kind, path, rest @ ..] if cmd == "query" => cmd_query(kind, path, rest),
        _ => return usage(),
    };
    let analysis = matches!(
        args[0].as_str(),
        "classify" | "witness" | "access-bounds" | "theorem5" | "sched" | "scenario"
    );
    if analysis && wfc_obs::emission_requested() {
        wfc_obs::report::RunReport::collect(&format!("wfc-{}", args[0])).emit();
    }
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
