//! Feisu's end-to-end benchmark: four workloads, two clocks, per-layer
//! probes. See `benchmark/README.md`.
//!
//! Two ways in:
//!
//! * `--workload W --seed N --seconds S --trace 0|1` — one pass of one
//!   workload sized for `S` seconds, the result as one JSON object on the
//!   last line of standard output (the `BENCHMARK.json` contract);
//! * anything else — every workload (or `--workload W`), the untraced
//!   pass then the traced pass, each in a child process of this program,
//!   each timed phase the workload's whole statement list; prints every
//!   metric by name with its unit, `--out FILE` writes them as JSON,
//!   `--repeat K` runs K sets and holds the later ones to the first.
//!
//! Either way the untraced pass runs its timed phase `untraced::PHASES`
//! times and takes each step at its fastest.

mod check;
mod json;
mod metrics;
mod probes;
mod run;
mod setup;
mod shadow;
mod spans;
mod stats;
mod traced;
mod untraced;
mod workloads;

use feisu_format::json::{parse, Json as Parsed};
use json::Json;
use metrics::{per_layer, Better, Values, END_TO_END};
use run::Limit;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;
use traced::Traced;
use untraced::Untraced;
use workloads::{Plan, Workload};

/// Spans are written here, relative to the directory the benchmark is
/// started from (the repository root, for `run.sh` and the driver alike).
const TRACE_DIR: &str = "benchmark/out";

const USAGE: &str = "usage: feisu-benchmark [--workload NAME] [--seed N] [--seconds S] \
[--trace 0|1] [--smoke] [--no-check] [--repeat K] [--out FILE]";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<u64>,
    trace: Option<bool>,
    smoke: bool,
    check: bool,
    repeat: usize,
    out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 0xACE,
        seconds: None,
        trace: None,
        smoke: false,
        check: true,
        repeat: 1,
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let number = |v: String| {
            let parsed = match v.strip_prefix("0x") {
                Some(hex) => u64::from_str_radix(hex, 16),
                None => v.parse(),
            };
            parsed.map_err(|_| format!("`{v}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => args.seed = number(value()?)?,
            "--seconds" => args.seconds = Some(number(value()?)?.max(1)),
            "--trace" => args.trace = Some(number(value()?)? != 0),
            "--repeat" => args.repeat = number(value()?)?.max(1) as usize,
            "--out" => args.out = Some(value()?.into()),
            "--smoke" => args.smoke = true,
            "--no-check" => args.check = false,
            "--check" => args.check = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match (args.trace, args.workload) {
        (Some(trace), Some(workload)) => one_pass(&args, workload, trace),
        (Some(_), None) => Err("--trace needs --workload".into()),
        (None, _) => full_run(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `--seconds S` sizes the pass to `S` seconds of the reference machine's
/// time in all — `share` of it per timed phase — and stops a phase after
/// twice that whatever the machine; without it a phase is the plan's
/// whole statement list.
fn limit(args: &Args, plan: &Plan, share: f64) -> Limit {
    match args.seconds {
        Some(s) => {
            let seconds = s as f64 * share;
            Limit {
                steps: ((plan.steps_per_second as f64 * seconds) as usize).max(1),
                wall: Some(Duration::from_secs_f64(2.0 * seconds)),
            }
        }
        None => Limit::ALL,
    }
}

/// Every phase of the untraced pass gets an equal share of the seconds.
fn untraced_limit(args: &Args, plan: &Plan) -> Limit {
    limit(args, plan, 1.0 / untraced::PHASES as f64)
}

/// The traced pass sets up two clusters and answers every step twice, so
/// it covers half the seconds' steps, or the first quarter of the whole
/// list.
fn traced_limit(args: &Args, plan: &Plan) -> Limit {
    match args.seconds {
        Some(_) => limit(args, plan, 0.5),
        None => Limit {
            steps: (plan.clients.iter().map(Vec::len).max().unwrap_or(1) / 4).max(1),
            wall: None,
        },
    }
}

// ------------------------------------------------------------ one pass

/// `{"name": {"value": v, "unit": "u"}, ...}`
fn values_json(values: &Values) -> Json {
    let layers = per_layer();
    let unit_of = |name: &str| {
        let e2e = END_TO_END.iter().map(|m| (m.name, m.unit));
        let layer = layers.iter().map(|m| (m.name.as_str(), m.unit));
        e2e.chain(layer)
            .find(|(n, _)| *n == name)
            .map_or("", |(_, unit)| unit)
    };
    let cell = |(name, value): &(String, f64)| {
        let cell = Json::obj([
            ("value", Json::Num(*value)),
            ("unit", Json::str(unit_of(name))),
        ]);
        (name.clone(), cell)
    };
    Json::Obj(values.0.iter().map(cell).collect())
}

/// Runs one pass of one workload and prints: the metrics by name for a
/// reader, then two lines for a program — `detail {...}` (sample counts,
/// checksum, sizes) and, last, the result object with exactly the keys
/// `correct`, `attempted`, `failed` and `metrics`.
fn one_pass(args: &Args, workload: Workload, trace: bool) -> Result<bool, String> {
    let plan = workload.plan(args.seed, args.smoke);
    println!(
        "\n== {} ({} pass): {} nodes, {} client(s), {} execution thread(s), seed {:#x} ==",
        workload.name(),
        if trace { "traced" } else { "untraced" },
        plan.spec.node_count(),
        plan.clients.len(),
        plan.spec.config.execution_threads,
        args.seed,
    );
    let (correct, attempted, failed, values, detail) = if trace {
        let t = traced::run(&plan, traced_limit(args, &plan), Some(Path::new(TRACE_DIR)))
            .map_err(|e| e.to_string())?;
        print_traced(&t);
        complain(workload, t.first_error.as_deref(), &t.mismatches);
        let detail = Json::obj([
            ("spans", Json::Int(t.spans as u64)),
            ("shadow_answers_wrong", Json::Int(t.mismatches.len() as u64)),
        ]);
        (t.correct(), t.attempted, t.failed, t.values, detail)
    } else {
        // Under `--seconds` two checked answers per family keep the
        // oracle inside the run's time budget; the whole list checks eight.
        let per_family = match (args.check, args.seconds) {
            (false, _) => 0,
            (true, Some(_)) => 2,
            (true, None) => 8,
        };
        let u = untraced::run(&plan, untraced_limit(args, &plan), per_family)
            .map_err(|e| e.to_string())?;
        print_untraced(&u);
        complain(workload, u.first_error.as_deref(), &u.check.mismatches);
        let detail = Json::obj([
            ("query_samples", Json::Int(u.query_samples as u64)),
            ("tail_rank", Json::Num(u.tail_rank)),
            ("failed_share", Json::Num(failed_share(&u))),
            ("sim_p50_ms", Json::Num(u.sim_p50_ms)),
            ("answers_checked", Json::Int(u.check.compared as u64)),
            ("answers_wrong", Json::Int(u.check.mismatches.len() as u64)),
            ("checksum", Json::str(format!("{:016x}", u.checksum))),
            ("stored_bytes", Json::Int(u.stored_bytes)),
            ("cache_bytes", Json::Int(u.cache_bytes)),
        ]);
        (u.correct(), u.attempted, u.failed, u.values, detail)
    };
    println!("detail {}", detail.render());
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(attempted as u64)),
        ("failed", Json::Int(failed as u64)),
        ("metrics", values_json(&values)),
    ]);
    println!("{}", result.render());
    Ok(correct)
}

fn complain(workload: Workload, first_error: Option<&str>, mismatches: &[String]) {
    if let Some(e) = first_error {
        eprintln!("{}: a statement failed: {e}", workload.name());
    }
    for m in mismatches.iter().take(5) {
        eprintln!("{}: wrong answer: {m}", workload.name());
    }
}

fn failed_share(u: &Untraced) -> f64 {
    u.failed as f64 / u.attempted.max(1) as f64
}

fn print_untraced(u: &Untraced) {
    println!(
        "steps attempted {} over {} phases (failed {})  answers checked {} (wrong {})  checksum {:016x}",
        u.attempted,
        untraced::PHASES,
        u.failed,
        u.check.compared,
        u.check.mismatches.len(),
        u.checksum
    );
    println!(
        "stored {} B  block cache {} B  percentiles over {} query samples, p90 read at p{:.1}",
        u.stored_bytes,
        u.cache_bytes,
        u.query_samples,
        u.tail_rank * 100.0
    );
    for m in &END_TO_END {
        println!(
            "  {:<28} {:>16.6} {:<6} {} is better, may worsen {}%",
            m.name,
            u.values.get(m.name).unwrap_or(f64::NAN),
            m.unit,
            m.better.as_str(),
            m.bound * 100.0
        );
    }
    // ISSUE 11's other two: reported, but `BENCHMARK.json` cannot hold them
    // (one always reads 0, the other the same on every seed).
    println!(
        "  {:<28} {:>16.6} {:<6} lower is better, any failure fails the run",
        "failed_share",
        failed_share(u),
        "ratio"
    );
    println!(
        "  {:<28} {:>16.6} {:<6} lower is better, per-layer as cluster.sim.p50_ms",
        "sim_p50_ms", u.sim_p50_ms, "sim_ms"
    );
}

fn print_traced(t: &Traced) {
    println!(
        "steps traced {} (failed {})  spans {}  shadow answers wrong {}",
        t.attempted,
        t.failed,
        t.spans,
        t.mismatches.len()
    );
    for m in per_layer() {
        println!(
            "  {:<34} {:>16.6} {:<6} {} is better",
            m.name,
            t.values.get(&m.name).unwrap_or(f64::NAN),
            m.unit,
            m.better.as_str()
        );
    }
}

// ------------------------------------------------------------ full run

/// One pass as its own process reported it.
struct Pass {
    correct: bool,
    values: Values,
    detail: Parsed,
    result: Parsed,
}

/// Runs one pass in a child process of this same program, so that every
/// pass starts from a fresh heap (peak memory is per pass, and an earlier
/// workload's allocations cannot speed up or slow down a later one).
/// The child's report is passed through; its last two lines are parsed.
fn run_child(args: &Args, workload: Workload, trace: bool) -> Result<Pass, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if let Some(s) = args.seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    if args.smoke {
        cmd.arg("--smoke");
    }
    if !args.check {
        cmd.arg("--no-check");
    }
    let out = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("start {} pass: {e}", workload.name()))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = text.lines().collect();
    let [report @ .., detail, result] = lines.as_slice() else {
        return Err(format!("{}: the pass printed no result", workload.name()));
    };
    for line in report {
        println!("{line}");
    }
    let bad = |what: &str| format!("{}: unreadable {what} line", workload.name());
    let detail = detail
        .strip_prefix("detail ")
        .and_then(|d| parse(d).ok())
        .ok_or_else(|| bad("detail"))?;
    let result = parse(result).map_err(|_| bad("result"))?;
    let mut values = Values::default();
    if let Some(Parsed::Object(metrics)) = result.get("metrics") {
        for (name, cell) in metrics {
            if let Some(Parsed::Number(v)) = cell.get("value") {
                values.set(name.clone(), *v);
            }
        }
    }
    Ok(Pass {
        correct: out.status.success() && result.get("correct") == Some(&Parsed::Bool(true)),
        values,
        detail,
        result,
    })
}

struct WorkloadReport {
    workload: Workload,
    untraced: Pass,
    traced: Pass,
}

/// Holds set `k` to set 1: end-to-end metrics within their bounds, exact
/// metrics and checksums identical on single-client workloads. With a
/// time limit instead of a statement count nothing is exact. A wall-clock
/// metric outside its bound is printed but is no failure: on a shared host
/// one pair of runs cannot tell a slow minute from a change (README,
/// "Wall clock on a shared host").
fn compare_sets(args: &Args, first: &[WorkloadReport], later: &[WorkloadReport]) -> Vec<String> {
    let mut problems = Vec::new();
    for (a, b) in first.iter().zip(later) {
        let name = a.workload.name();
        for m in &END_TO_END {
            let (x, y) = (a.untraced.values.get(m.name), b.untraced.values.get(m.name));
            let (Some(x), Some(y)) = (x, y) else { continue };
            let worse = match m.better {
                Better::Lower => (y - x) / x,
                Better::Higher => (x - y) / x,
            };
            if worse > m.bound {
                let line = format!(
                    "{name}: {} went from {x} to {y}, {:.1}% worse (bound {}%)",
                    m.name,
                    worse * 100.0,
                    m.bound * 100.0
                );
                if m.wall_clock() {
                    println!("REPEAT UNRESOLVED (wall clock, one pair): {line}");
                } else {
                    problems.push(line);
                }
            }
        }
        let one_client = a.workload != Workload::ConcurrentReplay;
        if !one_client || args.seconds.is_some() {
            continue;
        }
        if a.untraced.detail.get("checksum") != b.untraced.detail.get("checksum") {
            problems.push(format!("{name}: answer checksum changed between sets"));
        }
        for exact in ["sim_p90_ms", "sim_mean_ms", "stored_bytes_per_raw_byte"] {
            if a.untraced.values.get(exact) != b.untraced.values.get(exact) {
                problems.push(format!("{name}: {exact} is not identical between sets"));
            }
        }
        for m in per_layer().iter().filter(|m| m.exact) {
            if a.traced.values.get(&m.name) != b.traced.values.get(&m.name) {
                problems.push(format!("{name}: {} is not identical between sets", m.name));
            }
        }
    }
    problems
}

fn report_json(args: &Args, sets: &[Vec<WorkloadReport>]) -> Json {
    let pass = |p: &Pass| {
        Json::obj([
            ("detail", Json::from(&p.detail)),
            ("result", Json::from(&p.result)),
        ])
    };
    let set_json = |set: &Vec<WorkloadReport>| {
        Json::Arr(
            set.iter()
                .map(|r| {
                    Json::obj([
                        ("workload", Json::str(r.workload.name())),
                        ("untraced", pass(&r.untraced)),
                        ("traced", pass(&r.traced)),
                    ])
                })
                .collect(),
        )
    };
    Json::obj([
        ("seed", Json::Int(args.seed)),
        ("smoke", Json::Bool(args.smoke)),
        (
            "threads_available",
            Json::Int(std::thread::available_parallelism().map_or(1, |n| n.get()) as u64),
        ),
        ("sets", Json::Arr(sets.iter().map(set_json).collect())),
    ])
}

fn full_run(args: &Args) -> Result<bool, String> {
    let workloads: Vec<Workload> = match args.workload {
        Some(w) => vec![w],
        None => Workload::ALL.to_vec(),
    };
    println!(
        "feisu benchmark: seed {:#x}{}, {} hardware threads",
        args.seed,
        if args.smoke { ", smoke sizes" } else { "" },
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let mut sets: Vec<Vec<WorkloadReport>> = Vec::new();
    let mut ok = true;
    for k in 0..args.repeat {
        if args.repeat > 1 {
            println!("\n#### set {} of {}", k + 1, args.repeat);
        }
        let mut set = Vec::new();
        for &workload in &workloads {
            let report = WorkloadReport {
                workload,
                untraced: run_child(args, workload, false)?,
                traced: run_child(args, workload, true)?,
            };
            ok &= report.untraced.correct && report.traced.correct;
            set.push(report);
        }
        if let Some(first) = sets.first() {
            for problem in compare_sets(args, first, &set) {
                println!("REPEAT MISMATCH: {problem}");
                ok = false;
            }
        }
        sets.push(set);
    }
    if let Some(path) = &args.out {
        std::fs::write(path, report_json(args, &sets).render() + "\n")
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("\nresults -> {}", path.display());
    }
    println!("\n{}", if ok { "OK" } else { "FAILED" });
    Ok(ok)
}
