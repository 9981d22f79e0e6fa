//! The repo's benchmark: four workloads on the threaded engine
//! (`cblog_rt::ThreadCluster`, driven through the public `Runtime`
//! trait), end-to-end metrics with tracing off, and a traced run that
//! gives per-layer metrics and a cost ledger. README.md has the why.
//!
//! ```text
//! run.sh --workload W --seed N --seconds S --trace 0|1   one run, as the driver makes it
//! run.sh [--seed N] [--trials K]                         all workloads, round-robin, then layers
//! run.sh --agree                                         two interleaved sets, compared with the bounds
//! run.sh --quick                                         smoke: small sizes, structure checks
//! run.sh --self-test                                     must fail: falsified oracle
//! ```

mod env;
mod metrics;
mod probes;
mod spans;
mod trial;
mod workload;

use cblog_common::jsonv::{self, JsonValue};
use metrics::{median, summarize, Metric, END_TO_END, END_TO_END_UNGATED, LAYER_STATS};
use spans::Recorder;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trial::{run_trial, Trial, TrialCfg};
use workload::{Spec, FULL_DIV, QUICK_DIV, SPECS};

/// Fewest measured trials (or trial pairs) a timed run reports on.
const MIN_TRIALS: usize = 3;
const DEFAULT_SEED: u64 = 0xCB_1996;

struct Args {
    workload: Option<&'static Spec>,
    seed: u64,
    seconds: f64,
    trace: bool,
    dir: PathBuf,
    trials: Option<usize>,
    quick: bool,
    agree: bool,
    self_test: bool,
}

impl Args {
    /// Measured trials per workload (and set) when all workloads run.
    /// `setup_s` is a few milliseconds of allocation and file creation;
    /// two sets of 8 trials disagree on it by a quarter now and then,
    /// two sets of 16 do not.
    fn trials(&self) -> usize {
        self.trials.unwrap_or(match (self.quick, self.agree) {
            (true, _) => 2,
            (false, true) => 16,
            (false, false) => 8,
        })
    }
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 15.0,
        trace: false,
        dir: PathBuf::from("perf"),
        trials: None,
        quick: false,
        agree: false,
        self_test: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                a.workload = Some(workload::spec(&name).ok_or(format!(
                    "unknown workload {name}; one of {}",
                    SPECS.map(|s| s.name).join(", ")
                ))?);
            }
            "--seed" => a.seed = value("N")?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value("S")?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                a.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: 0 or 1")),
                }
            }
            "--dir" => a.dir = PathBuf::from(value("the benchmark's directory")?),
            "--trials" => {
                a.trials = Some(value("K")?.parse().map_err(|e| format!("--trials: {e}"))?)
            }
            "--quick" => a.quick = true,
            "--agree" => a.agree = true,
            "--self-test" => a.self_test = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if a.trials == Some(0) {
        return Err("--trials: at least 1".into());
    }
    Ok(a)
}

/// A reported value.
struct Value {
    value: f64,
    unit: &'static str,
    higher_is_better: bool,
}

type Values = BTreeMap<String, Value>;

fn put(out: &mut Values, name: &str, unit: &'static str, higher_is_better: bool, value: f64) {
    out.insert(
        name.to_string(),
        Value {
            value,
            unit,
            higher_is_better,
        },
    );
}

/// The trials of one workload in one process.
struct Session<'a> {
    cfg: TrialCfg<'a>,
    rec: Recorder,
    started: u32,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    /// Measured trials, tracing off.
    trials: Vec<Trial>,
    /// Their traced partners (layer runs only).
    traced: Vec<Trial>,
}

impl<'a> Session<'a> {
    fn new(spec: &'static Spec, args: &'a Args, div: usize) -> Self {
        Session {
            cfg: TrialCfg {
                spec,
                seed: args.seed,
                div,
                dir: &args.dir,
                tracing: false,
                corrupt_oracle: args.self_test,
            },
            rec: Recorder::new(spec.name, args.trace || args.workload.is_none()),
            started: 0,
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            trials: Vec::new(),
            traced: Vec::new(),
        }
    }

    /// Runs one trial and counts what it attempted and failed. An
    /// engine error fails every transaction of the trial.
    fn trial(&mut self, tracing: bool) -> Option<Trial> {
        self.started += 1;
        self.rec.set_trial(self.started);
        match run_trial(
            TrialCfg {
                tracing,
                ..self.cfg
            },
            &mut self.rec,
        ) {
            Ok(t) => {
                self.attempted += t.attempted;
                self.failed += t.failed;
                Some(t)
            }
            Err(e) => {
                eprintln!("{}: trial {}: {}", self.cfg.spec.name, self.started, e.what);
                self.attempted += e.attempted;
                self.failed += e.attempted;
                self.errors.push(e.what);
                None
            }
        }
    }

    /// The first trial fills the page cache and the allocator and is
    /// thrown away; its correctness still counts.
    fn warm_up(&mut self) {
        self.trial(false);
    }

    fn measure(&mut self) {
        if let Some(t) = self.trial(false) {
            println!("{}", trial_line(self.cfg.spec, self.trials.len(), &t));
            self.trials.push(t);
        }
    }

    /// An untraced trial and, right after it, the same trial traced.
    fn measure_pair(&mut self) {
        let before = self.trials.len();
        self.measure();
        if self.trials.len() > before {
            match self.trial(true) {
                Some(t) => self.traced.push(t),
                None => {
                    self.trials.pop();
                }
            }
        }
    }

    /// The paper's zero-message commit: a workload whose plans touch no
    /// remote page must not send a single message.
    fn stray_msgs(&self) -> u64 {
        if self.cfg.spec.remote_reads() {
            return 0;
        }
        self.trials
            .iter()
            .chain(&self.traced)
            .map(|t| t.stats.msgs)
            .sum()
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty() && self.stray_msgs() == 0
    }

    fn end_to_end(&self) -> Values {
        let mut out = Values::new();
        for m in END_TO_END {
            put(
                &mut out,
                m.name,
                m.unit,
                m.higher_is_better,
                m.headline(&self.trials),
            );
        }
        out
    }
}

fn trial_line(spec: &Spec, index: usize, t: &Trial) -> String {
    let mut line = format!("trial {:<14} {index:>3}", spec.name);
    for m in END_TO_END.iter().chain(END_TO_END_UNGATED) {
        let _ = write!(line, "  {} {:.6}", m.name, (m.of)(t));
    }
    line
}

fn print_summary(title: &str, metrics: &[&[Metric]], trials: &[Trial]) {
    println!(
        "## {title}: headline (timed: favourable quartile, else median), then median [q1 q3] min over {} trials",
        trials.len()
    );
    for m in metrics.iter().flat_map(|m| m.iter()) {
        let v: Vec<f64> = trials.iter().map(m.of).collect();
        let s = summarize(&v);
        println!(
            "{:<24} {:>16.6} {:<6} median {:.6} [{:.6} {:.6}] min {:.6}  ({} is better)",
            m.name,
            m.headline(trials),
            m.unit,
            s.median,
            s.q1,
            s.q3,
            s.min,
            if m.higher_is_better {
                "higher"
            } else {
                "lower"
            },
        );
    }
}

fn print_values(title: &str, values: &Values) {
    println!("## {title}");
    for (name, v) in values {
        println!("{name:<34} {:>16.6} {}", v.value, v.unit);
    }
}

/// The per-layer metrics of one workload: statistics of the untraced
/// trials, what their traced partners add, the layer probes, and the
/// ledger that sets the probes against the whole. Also writes the
/// benchmark's spans to `<dir>/out/trace-<workload>.json`.
fn layers(s: &mut Session, probe_shrink: u64) -> Values {
    let spec = s.cfg.spec;
    let mut out = Values::new();
    for m in LAYER_STATS {
        put(
            &mut out,
            m.name,
            m.unit,
            m.higher_is_better,
            m.headline(&s.trials),
        );
    }

    // Tracing overhead from adjacent pairs, on the engine's own wall
    // time, which leaves out the watchdog's replay of the trace at join.
    let ratios: Vec<f64> = s
        .trials
        .iter()
        .zip(&s.traced)
        .map(|(off, on)| on.stats.wall_us as f64 / off.stats.wall_us as f64)
        .collect();
    let traced = |of: fn(&Trial) -> f64| median(&s.traced.iter().map(of).collect::<Vec<_>>());
    put(
        &mut out,
        "rt.trace_overhead_pct",
        "%",
        false,
        (median(&ratios) - 1.0) * 100.0,
    );
    put(
        &mut out,
        "rt.trace_check_ms",
        "ms",
        false,
        traced(|t| t.trace_check_ms),
    );
    put(
        &mut out,
        "rt.spans_per_commit",
        "count",
        false,
        traced(|t| t.stats.spans as f64 / t.commits.max(1) as f64),
    );
    put(
        &mut out,
        "rt.spans_dropped",
        "count",
        false,
        traced(|t| t.spans_dropped as f64),
    );

    let plans = spec.plans(s.cfg.seed, s.cfg.div).plans;
    s.rec.set_trial(0);
    let probes = s.rec.span("probes", |rec| {
        probes::run_all(spec, &plans, s.cfg.dir, probe_shrink, rec)
    });
    for (&name, &value) in &probes {
        put(&mut out, name, probes::unit(name), false, value);
    }

    // The ledger: what the probed calls of one commit add up to, beside
    // the CPU time the worker threads themselves report per commit.
    let shape = spec.txn_shape();
    let sum_ns = probes["locks.acquire_release_ns"]
        + probes["core.log_update_ns"] * shape.writes as f64
        + probes["core.commit_begin_ns"]
        + probes["core.sched_ns"]
        + probes["common.reservoir_record_ns"]
        + probes["common.histogram_record_ns"];
    let cpu = out["rt.cpu_us_per_commit"].value;
    put(
        &mut out,
        "ledger.cpu_sum_us_per_commit",
        "us",
        false,
        sum_ns / 1e3,
    );
    put(
        &mut out,
        "ledger.cpu_coverage",
        "share",
        true,
        sum_ns / 1e3 / cpu,
    );
    let covered: Vec<f64> = s
        .trials
        .iter()
        .map(|t| metrics::recovery_phases_s(t) / t.recover_s)
        .collect();
    put(
        &mut out,
        "ledger.recover_coverage",
        "share",
        true,
        median(&covered),
    );

    let path = s
        .cfg
        .dir
        .join("out")
        .join(format!("trace-{}.json", spec.name));
    match std::fs::create_dir_all(path.parent().expect("out dir"))
        .and_then(|()| std::fs::write(&path, s.rec.chrome_json()))
    {
        Ok(()) => println!("# wrote {} spans to {}", s.rec.len(), path.display()),
        Err(e) => s.errors.push(format!("write {}: {e}", path.display())),
    }
    out
}

fn explain_ledger(spec: &Spec) {
    println!(
        "# ledger.cpu_sum_us_per_commit = locks.acquire_release_ns + {} x core.log_update_ns + core.commit_begin_ns\n\
         #   + core.sched_ns + common.reservoir_record_ns + common.histogram_record_ns\n\
         # ledger.cpu_coverage = that / rt.cpu_us_per_commit; the rest is the worker loop, lane bookkeeping,\n\
         #   page reads and plan cloning, which no probe reaches from outside\n\
         # ledger.recover_coverage = (analysis + psn_lists + replay + undo phases) / recover_s",
        spec.txn_shape().writes
    );
}

fn json_line(s: &Session, metrics: &Values) -> String {
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        s.correct(),
        s.attempted.max(1),
        s.failed
    );
    for (i, (name, v)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if v.value.is_finite() { v.value } else { 0.0 };
        let _ = write!(
            line,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            v.unit
        );
    }
    line.push_str("}}");
    line
}

/// One run as the driver makes it: one workload, measured for
/// `--seconds`, one JSON object as the last line.
fn driver(spec: &'static Spec, args: &Args) -> ExitCode {
    let clock = Instant::now();
    print!(
        "{}",
        env::block(
            &trial::wal_dir(&args.dir),
            args.seed,
            &format!(
                "{}: {}, trials for {} s",
                spec.name,
                spec.sizes(FULL_DIV),
                args.seconds
            ),
        )
    );
    let mut s = Session::new(spec, args, FULL_DIV);
    s.warm_up();
    let metrics = if args.trace {
        // Pairs for the first four fifths, the probes take the rest.
        while s.errors.is_empty()
            && (s.traced.len() < MIN_TRIALS || clock.elapsed().as_secs_f64() < args.seconds * 0.8)
        {
            s.measure_pair();
        }
        if s.traced.is_empty() {
            return ExitCode::FAILURE;
        }
        let values = layers(&mut s, 1);
        print_values(&format!("{}: per-layer", spec.name), &values);
        explain_ledger(spec);
        values
    } else {
        while s.errors.is_empty()
            && (s.trials.len() < MIN_TRIALS || clock.elapsed().as_secs_f64() < args.seconds)
        {
            s.measure();
        }
        if s.trials.is_empty() {
            return ExitCode::FAILURE;
        }
        print_summary(
            &format!("{}: end-to-end", spec.name),
            &[END_TO_END, END_TO_END_UNGATED],
            &s.trials,
        );
        s.end_to_end()
    };
    if s.stray_msgs() > 0 {
        println!(
            "# INCORRECT: {} messages on a workload without remote reads",
            s.stray_msgs()
        );
    }
    println!("{}", json_line(&s, &metrics));
    ExitCode::SUCCESS
}

/// `sets` sets of end-to-end trials of every workload. Trials go
/// round-robin over workloads and sets, so that a slow minute of the
/// host, and the state this process builds up, land on all of them.
fn suite_end_to_end<'a>(
    args: &'a Args,
    div: usize,
    warm_up: bool,
    sets: usize,
) -> Vec<Vec<Session<'a>>> {
    let mut sessions: Vec<Vec<Session>> = SPECS
        .iter()
        .map(|s| (0..sets).map(|_| Session::new(s, args, div)).collect())
        .collect();
    if warm_up {
        sessions.iter_mut().flatten().for_each(Session::warm_up);
    }
    for _ in 0..args.trials() {
        sessions.iter_mut().flatten().for_each(Session::measure);
    }
    sessions
}

fn suite_block(args: &Args, div: usize) -> String {
    let sizes: Vec<String> = SPECS
        .iter()
        .map(|s| format!("{}: {}", s.name, s.sizes(div)))
        .collect();
    env::block(
        &trial::wal_dir(&args.dir),
        args.seed,
        &format!(
            "{} trials per workload\n#   {}",
            args.trials(),
            sizes.join("\n#   ")
        ),
    )
}

/// Everything, for a person: end-to-end, then layers, per workload.
/// With `--quick`, small and with structure checks.
fn suite(args: &Args) -> ExitCode {
    let (div, probe_shrink) = if args.quick {
        (QUICK_DIV, 10)
    } else {
        (FULL_DIV, 1)
    };
    print!("{}", suite_block(args, div));
    let mut problems = Vec::new();
    let mut emitted: BTreeMap<&str, Values> = BTreeMap::new();
    for mut s in suite_end_to_end(args, div, !args.quick, 1)
        .into_iter()
        .flatten()
    {
        let name = s.cfg.spec.name;
        print_summary(
            &format!("{name}: end-to-end"),
            &[END_TO_END, END_TO_END_UNGATED],
            &s.trials,
        );
        let mut values = s.end_to_end();
        if let (true, Some(batch)) = (args.quick, s.cfg.spec.full_batches()) {
            let forces = values["forces_per_commit"].value;
            if forces != 1.0 / batch as f64 {
                problems.push(format!(
                    "{name}: forces_per_commit {forces}, expected 1/{batch}"
                ));
            }
        }
        s.trials.clear();
        for _ in 0..args.trials() {
            s.measure_pair();
        }
        if s.traced.is_empty() {
            problems.push(format!("{name}: no traced trial completed"));
            continue;
        }
        let layer_values = layers(&mut s, probe_shrink);
        print_values(&format!("{name}: per-layer"), &layer_values);
        explain_ledger(s.cfg.spec);
        if !s.correct() {
            problems.push(format!(
                "{name}: failed {} of {}, {} errors, {} stray messages",
                s.failed,
                s.attempted,
                s.errors.len(),
                s.stray_msgs()
            ));
        }
        values.extend(layer_values);
        emitted.insert(name, values);
    }
    if args.quick {
        problems.extend(manifest_problems(args, &emitted));
    }
    problems.sort();
    problems.dedup();
    for p in &problems {
        println!("PROBLEM {p}");
    }
    if problems.is_empty() {
        println!("OK");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn manifest(args: &Args) -> Result<JsonValue, String> {
    let path = args.dir.join("..").join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    jsonv::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// One entry of a list in the manifest; a workload has only a name.
struct Listed {
    name: String,
    unit: String,
    better: String,
    bound: f64,
}

fn manifest_list(m: &JsonValue, list: &str) -> Vec<Listed> {
    let text = |e: &JsonValue, key: &str| {
        e.get(key)
            .and_then(JsonValue::as_str)
            .unwrap_or("")
            .to_string()
    };
    m.get(list)
        .and_then(JsonValue::as_arr)
        .unwrap_or(&[])
        .iter()
        .map(|e| Listed {
            name: text(e, "name"),
            unit: text(e, "unit"),
            better: text(e, "better"),
            bound: e.get("bound").and_then(JsonValue::as_f64).unwrap_or(0.0),
        })
        .collect()
}

/// Differences between `BENCHMARK.json` and what the program emits.
fn manifest_problems(args: &Args, emitted: &BTreeMap<&str, Values>) -> Vec<String> {
    let m = match manifest(args) {
        Ok(m) => m,
        Err(e) => return vec![e],
    };
    let mut problems = Vec::new();
    let mut listed: BTreeMap<String, (String, String)> = BTreeMap::new();
    for list in ["end_to_end", "per_layer"] {
        for e in manifest_list(&m, list) {
            listed.insert(e.name, (e.unit, e.better));
        }
    }
    let workloads: Vec<String> = manifest_list(&m, "workloads")
        .into_iter()
        .map(|w| w.name)
        .collect();
    if workloads != SPECS.map(|s| s.name) {
        problems.push(format!(
            "BENCHMARK.json workloads {workloads:?} differ from the program's"
        ));
    }
    for (workload, values) in emitted {
        for (name, v) in values {
            let better = if v.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            match listed.get(name) {
                None => problems.push(format!("{workload}: {name} is not in BENCHMARK.json")),
                Some((unit, b)) if unit != v.unit || b != better => problems.push(format!(
                    "{name}: BENCHMARK.json says {unit}, {b}; the program says {}, {better}",
                    v.unit
                )),
                Some(_) => {}
            }
        }
        for name in listed.keys().filter(|n| !values.contains_key(*n)) {
            problems.push(format!(
                "{workload}: {name} is in BENCHMARK.json but not emitted"
            ));
        }
    }
    problems
}

/// Two full sets of end-to-end trials of the same program, alternating
/// as a comparison of two programs would, must agree within the bounds
/// `BENCHMARK.json` sets: the benchmark's own test that it can resolve
/// what it gates.
fn agree(args: &Args) -> ExitCode {
    let bounds: BTreeMap<String, f64> = match manifest(args) {
        Ok(m) => manifest_list(&m, "end_to_end")
            .into_iter()
            .map(|e| (e.name, e.bound))
            .collect(),
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    print!("{}", suite_block(args, FULL_DIV));
    let sets = suite_end_to_end(args, FULL_DIV, true, 2);
    println!(
        "## agreement of two sets of {} trials (how much worse B is than A, as a share of A)",
        args.trials()
    );
    let mut breaches = 0;
    for pair in &sets {
        let (a, b) = (&pair[0], &pair[1]);
        let (va, vb) = (a.end_to_end(), b.end_to_end());
        for m in END_TO_END {
            let (x, y) = (va[m.name].value, vb[m.name].value);
            let worse = if m.higher_is_better {
                (x - y) / x
            } else {
                (y - x) / x
            };
            let bound = bounds.get(m.name).copied().unwrap_or(0.0);
            let breach = worse.abs() > bound;
            breaches += usize::from(breach);
            println!(
                "{:<14} {:<22} A {:>14.6}  B {:>14.6}  {:>+8.4}  bound {:.2}{}",
                a.cfg.spec.name,
                m.name,
                x,
                y,
                worse,
                bound,
                if breach { "  BREACH" } else { "" }
            );
        }
        if !(a.correct() && b.correct()) {
            println!("{:<14} INCORRECT", a.cfg.spec.name);
            breaches += 1;
        }
    }
    if breaches == 0 {
        println!("OK");
        ExitCode::SUCCESS
    } else {
        println!("{breaches} BREACHES");
        ExitCode::FAILURE
    }
}

/// Must fail: one expectation of the oracle is falsified, so a
/// read-back that checks anything reports a failed transaction.
fn self_test(args: &Args) -> ExitCode {
    let spec = workload::spec("grouped-mem").expect("grouped-mem exists");
    let mut s = Session::new(spec, args, QUICK_DIV);
    s.measure();
    if s.failed > 0 {
        println!(
            "self-test: planted corruption caught ({} of {} failed)",
            s.failed, s.attempted
        );
        ExitCode::FAILURE
    } else {
        println!("self-test: planted corruption NOT caught: the oracle checks nothing");
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cblog-perf: {e}");
            return ExitCode::from(2);
        }
    };
    if args.self_test {
        self_test(&args)
    } else if args.agree {
        agree(&args)
    } else if let Some(spec) = args.workload {
        driver(spec, &args)
    } else {
        suite(&args)
    }
}
