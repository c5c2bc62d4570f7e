//! Benchmark entry point.
//!
//! ```text
//! bankbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs fixed-size, seeded rounds of one workload until `--seconds` have
//! passed, each on a freshly built and pre-funded database, and checks
//! every round. With `--trace 0` every round is measured untraced; with
//! `--trace 1` untraced and traced rounds alternate, and the traced ones
//! give the per-layer metrics and the ledger. The last line of standard
//! output is the result object; the line before it is the full report.
//! `--workload all` runs every workload, untraced then traced, each in
//! its own process.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use mdts_bankbench::bank::{
    run_round, time_fetches, twin_store, Round, Spec, GATED_WORKLOADS, WORKLOADS,
};
use mdts_bankbench::ledger::Ledger;
use mdts_bankbench::report::{self, Metrics, END_TO_END, PER_LAYER};
use mdts_bankbench::stats::{cpu_model, git_commit, peak_rss_mb};
use mdts_engine::DurabilityConfig;
use mdts_trace::Json;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: bankbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = |v: &str| v.parse::<u64>().map_err(|_| format!("{flag}: not a number: {v}"));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(num(&value)?),
            "--seconds" => seconds = Some(num(&value)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && Spec::named(&workload).is_none() {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?} or all"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(1..=600).contains(&seconds) {
        return Err(format!("--seconds must lie in 1..=600, not {seconds}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    match run_workload(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bankbench {}: FAILED: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}

/// Runs every workload, untraced then traced, each in a child process so
/// that each one's peak memory is its own.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot locate this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for name in WORKLOADS {
        for trace in ["0", "1"] {
            let status = std::process::Command::new(&exe)
                .args(["--workload", name, "--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string(), "--trace", trace])
                .status();
            if !matches!(status, Ok(s) if s.success()) {
                eprintln!("bankbench {name} --trace {trace}: failed ({status:?})");
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

/// Where the durable workload writes its logs: a directory beside this
/// package's sources, inside the checkout.
fn wal_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("work")
}

fn run_workload(args: &Args) -> Result<(), String> {
    let spec = Spec::named(&args.workload).expect("workload validated by parse_args");
    let inputs = spec.inputs(args.seed);
    let dir = wal_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let budget = Duration::from_secs(args.seconds);
    let min_rounds = if args.trace { 4 } else { 3 };
    // Traced rounds also time the storage layer's lookups on a twin of
    // the engine's store, built once and only read.
    let twin = args.trace.then(|| twin_store(&spec));
    let start = Instant::now();
    let mut rounds: Vec<(Round, bool)> = Vec::new();
    while rounds.len() < min_rounds || start.elapsed() < budget {
        let traced = args.trace && rounds.len() % 2 == 1;
        let mut round = run_round(&spec, &inputs, traced, &dir)
            .map_err(|e| format!("round {}: I/O error: {e}", rounds.len()))?;
        if let Some(e) = round.errors.first() {
            return Err(format!("round {}: correctness check failed: {e}", rounds.len()));
        }
        if let Some(twin) = twin.as_ref().filter(|_| traced) {
            round.fetch = time_fetches(twin, &inputs);
            if round.fetch.is_none() {
                return Err(format!("round {}: a funded account is missing", rounds.len()));
            }
        }
        for (c, l) in round.ledgers.iter().enumerate() {
            l.check().map_err(|e| format!("round {}, client {c}: {e}", rounds.len()))?;
        }
        round.summarize();
        rounds.push((round, traced));
    }
    let _ = std::fs::remove_dir(&dir);
    let peak = peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
    let measured: Vec<&Round> = rounds.iter().filter(|(_, t)| !t).map(|(r, _)| r).collect();
    let traced: Vec<&Round> = rounds.iter().filter(|(_, t)| *t).map(|(r, _)| r).collect();
    let e2e = report::end_to_end(&spec, &measured, peak);
    let layers =
        if args.trace { report::per_layer(&spec, &traced, &measured) } else { Metrics::default() };
    let ledger = args.trace.then(|| report::ledger(&traced));
    let (source, names): (&Metrics, &[&str]) =
        if args.trace { (&layers, &PER_LAYER) } else { (&e2e, &END_TO_END) };
    // A workload BENCHMARK.json lists must yield every metric it names;
    // the others print whichever of those apply to them.
    if GATED_WORKLOADS.contains(&spec.name) {
        for name in names {
            if !source.get(name).is_some_and(|m| m.value.is_finite()) {
                return Err(format!("metric {name} was not measured"));
            }
        }
    }
    if let Some(l) = &ledger {
        l.check().map_err(|e| format!("summed ledger: {e}"))?;
        print_ledger(&spec, l, &traced, &layers);
    }

    let all: Vec<&Round> = rounds.iter().map(|(r, _)| r).collect();
    let attempted: u64 = all.iter().map(|r| r.attempted).sum();
    let failed: u64 = all.iter().map(|r| r.retries_exhausted + r.durability_unknown).sum();
    let report = Json::obj(vec![(
        "bankbench",
        Json::obj(vec![
            ("workload", Json::str(spec.name)),
            ("trace", Json::Bool(args.trace)),
            ("provenance", provenance(args, &spec, measured.len(), traced.len())),
            ("checks", Json::str("passed")),
            ("retries_exhausted", Json::U64(all.iter().map(|r| r.retries_exhausted).sum())),
            ("durability_unknown", Json::U64(all.iter().map(|r| r.durability_unknown).sum())),
            ("per_round", rounds_json(&measured)),
            ("end_to_end", metrics_json(&e2e, |_| true, true)),
            ("per_layer", metrics_json(&layers, |_| true, true)),
            ("ledger", ledger.as_ref().map_or(Json::Null, |l| ledger_json(l, &traced))),
        ]),
    )]);
    println!("{}", report.render());

    let result = Json::obj(vec![
        ("correct", Json::Bool(true)),
        ("attempted", Json::U64(attempted)),
        ("failed", Json::U64(failed)),
        ("metrics", metrics_json(source, |n| names.contains(&n), false)),
    ]);
    println!("{}", result.render());
    Ok(())
}

/// The metrics `keep` selects, each as `{value, unit}`, plus the sample
/// count behind a percentile when `samples` is set. The result line
/// carries `value` and `unit` only; the report line carries the counts.
fn metrics_json(m: &Metrics, keep: impl Fn(&str) -> bool, samples: bool) -> Json {
    Json::Obj(
        m.0.iter()
            .filter(|x| keep(x.name))
            .map(|x| {
                let mut fields = vec![("value", Json::F64(x.value)), ("unit", Json::str(x.unit))];
                if let Some(n) = x.samples.filter(|_| samples) {
                    fields.push(("samples", Json::U64(n as u64)));
                }
                (x.name.to_string(), Json::obj(fields))
            })
            .collect(),
    )
}

fn provenance(args: &Args, spec: &Spec, measured: usize, traced: usize) -> Json {
    let wal = DurabilityConfig::new("unused");
    let env = |k: &str| Json::str(std::env::var(k).unwrap_or_else(|_| "unset".into()));
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    Json::obj(vec![
        (
            "available_parallelism",
            Json::U64(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
        ),
        ("cpu_model", Json::str(cpu_model())),
        ("git_commit", Json::str(git_commit(&repo))),
        ("seed", Json::U64(args.seed)),
        ("seconds", Json::U64(args.seconds)),
        ("clients", Json::U64(spec.clients as u64)),
        ("txns_per_round", Json::U64((spec.round_txns / spec.clients * spec.clients) as u64)),
        ("accounts", Json::U64(u64::from(spec.mix.accounts))),
        ("zipf_theta", Json::F64(spec.mix.theta)),
        ("audit_frac", Json::F64(spec.mix.audit_frac)),
        ("audit_scan", Json::U64(spec.mix.scan as u64)),
        ("k", Json::U64(mdts_bankbench::bank::K as u64)),
        ("measured_rounds", Json::U64(measured as u64)),
        ("traced_rounds", Json::U64(traced as u64)),
        (
            "wal_flush_policy",
            Json::obj(vec![
                ("epoch_interval_us", Json::U64(wal.interval.as_micros() as u64)),
                ("fsyncs_per_epoch", Json::U64(1)),
                ("checkpoint_every_epochs", Json::U64(wal.checkpoint_every)),
            ]),
        ),
        ("replay_threads", Json::U64(mdts_storage::replay_threads() as u64)),
        ("MDTS_ADMIT_MODE", env("MDTS_ADMIT_MODE")),
        ("MDTS_SIMD", env("MDTS_SIMD")),
    ])
}

/// Each measured round's own figures, so the spread behind every median
/// can be read off the report.
fn rounds_json(rounds: &[&Round]) -> Json {
    let col =
        |f: &dyn Fn(&Round) -> f64| Json::Arr(rounds.iter().map(|r| Json::F64(f(r))).collect());
    let lat = |i: usize| move |r: &Round| r.latency[i].map_or(0.0, |p| p.value / 1e3);
    Json::obj(vec![
        ("setup_s", col(&|r| r.setup_s)),
        ("window_s", col(&|r| r.window_s)),
        ("commits_per_s", col(&|r| r.commits() as f64 / r.window_s)),
        ("commits_per_cpu_s", col(&|r| r.commits() as f64 / r.cpu_s)),
        ("transfer_p99_us", col(&lat(1))),
        ("audit_p99_us", col(&lat(3))),
    ])
}

fn commits(rounds: &[&Round]) -> u64 {
    rounds.iter().map(|r| r.commits()).sum()
}

fn ledger_json(l: &Ledger, traced: &[&Round]) -> Json {
    let c = commits(traced).max(1) as f64;
    let mut parts = vec![
        ("wall_ns", Json::I64(l.wall)),
        ("commits", Json::U64(commits(traced))),
        ("clients", Json::U64(traced.iter().map(|r| r.ledgers.len() as u64).sum())),
        ("closes", Json::Bool(l.check().is_ok())),
    ];
    let per: Vec<(String, Json)> = l
        .parts()
        .iter()
        .map(|(name, ns)| {
            let o = Json::obj(vec![
                ("ns_per_commit", Json::F64(*ns as f64 / c)),
                ("frac_of_wall", Json::F64(*ns as f64 / l.wall.max(1) as f64)),
            ]);
            (name.to_string(), o)
        })
        .collect();
    parts.push(("parts", Json::Obj(per)));
    Json::obj(parts)
}

fn print_ledger(spec: &Spec, l: &Ledger, traced: &[&Round], layers: &Metrics) {
    let c = commits(traced).max(1) as f64;
    eprintln!(
        "ledger {} ({} traced rounds, {} client ledgers, {:.0} ns wall per commit):",
        spec.name,
        traced.len(),
        traced.iter().map(|r| r.ledgers.len()).sum::<usize>(),
        l.wall as f64 / c
    );
    for (name, ns) in l.parts() {
        eprintln!(
            "  {name:<13} {:>10.1} ns/commit {:>6.2}%",
            ns as f64 / c,
            100.0 * ns as f64 / l.wall.max(1) as f64
        );
    }
    eprintln!("  parts sum to wall time on every client: yes");
    for name in ["engine.unattributed_frac", "engine.trace_overhead_frac"] {
        if let Some(m) = layers.get(name) {
            eprintln!("  {name} = {:.4}", m.value);
        }
    }
}
