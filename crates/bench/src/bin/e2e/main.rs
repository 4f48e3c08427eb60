//! `e2e`: one benchmark from SQL text to PREDICT rows — six workloads, seven
//! end-to-end metrics every workload reports, and per-layer attribution from a
//! separate traced run. See `README.md` beside this file.
//!
//! ```text
//! e2e --workload <name> --seed <u64> --seconds <n> --trace <0|1>   one run
//! e2e --workload all --seed <u64> [--seconds <n>] --out <file>     a result set
//! e2e --compare A.json B.json                                      do two sets agree
//! ```

use std::path::PathBuf;
use std::process::{Command, ExitCode};

mod compare;
mod data;
mod harness;
mod json;
mod probes;
mod spec;
mod stats;
mod trace;
mod workloads;

use harness::{Outcome, RunConfig};
use spec::{Metric, END_TO_END, PER_LAYER, WORKLOADS};

const USAGE: &str = "usage:
  e2e --workload <name|all> --seed <u64> [--seconds <n>] [--trace [0|1]] [--quick]
      [--out <file>]
  e2e --compare <A.json> <B.json>
workloads: row_shuffle_dense col_clustered_dense paged_clustered_dense
           par_nolock_sparse serve_during_train durable_ingest_reopen";

/// Seconds one run measures when `--seconds` is not given; `BENCHMARK.json`'s
/// `run_seconds`.
const DEFAULT_SECONDS: f64 = 10.0;

/// Parsed command line.
#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

impl Args {
    fn sizes(&self) -> spec::Sizes {
        if self.quick {
            spec::QUICK
        } else {
            spec::FULL
        }
    }

    fn seconds(&self) -> f64 {
        self.seconds
            .unwrap_or(if self.quick { 0.2 } else { DEFAULT_SECONDS })
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let seconds: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds.is_finite() && seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
                args.seconds = Some(seconds);
            }
            "--trace" => {
                // `--trace` alone switches tracing on; the driver passes 0 or 1.
                args.trace = match it.peek().map(|s| s.as_str()) {
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
            "--quick" => args.quick = true,
            "--out" => args.out = Some(PathBuf::from(value("a path")?)),
            "--compare" => {
                let a = PathBuf::from(value("two result files")?);
                let b = PathBuf::from(value("two result files")?);
                args.compare = Some((a, b));
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if args.compare.is_none() && args.workload.is_none() {
        return Err("one of --workload or --compare is required".into());
    }
    Ok(args)
}

/// The metrics of one run as a JSON object, in the published order; a metric
/// the workload did not measure reads 0.
fn metrics_json(specs: &[Metric], outcome: &Outcome) -> String {
    let members: Vec<String> = specs
        .iter()
        .map(|m| {
            let value = outcome.metrics.get(m.name).copied().unwrap_or(0.0);
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::quote(m.name),
                json::number(value),
                json::quote(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", members.join(", "))
}

/// End-to-end metrics must be measured and never 0: a missing, zero or
/// non-finite one makes the run incorrect.
fn unmeasured_end_to_end(outcome: &Outcome) -> Vec<&'static str> {
    END_TO_END
        .iter()
        .filter(|m| {
            !outcome
                .metrics
                .get(m.name)
                .is_some_and(|v| v.is_finite() && *v > 0.0)
        })
        .map(|m| m.name)
        .collect()
}

/// `HEAD` of the checkout the benchmark runs in, read from `.git` without
/// starting a process; the driver's checkout is not a repository.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(0, |n| n.get())
}

/// Run one workload once and print its report; the last line of standard
/// output is the result object.
fn run_one(args: &Args, workload: &str) -> ExitCode {
    let sizes = args.sizes();
    let cfg = RunConfig {
        workload: workload.to_string(),
        seed: args.seed,
        seconds: args.seconds(),
        trace: args.trace,
        sizes,
        scratch_root: harness::default_scratch_root(),
    };
    println!(
        "e2e workload={} seed={} seconds={} trace={} nproc={} rustc=\"{}\" commit={}",
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        nproc(),
        rustc_version(),
        commit()
    );
    println!("sizes: {}", sizes.describe());

    let (mut outcome, tracer) = match workloads::run(&cfg) {
        Ok(done) => done,
        Err(message) => {
            eprintln!("e2e: {message}");
            return ExitCode::from(2);
        }
    };
    for note in &outcome.notes {
        println!("  {note}");
    }
    let specs = if cfg.trace { PER_LAYER } else { END_TO_END };
    for m in specs {
        if let Some(value) = outcome.metrics.get(m.name) {
            println!("{:<44} {:>18.6} {}", m.name, value, m.unit);
        }
    }
    if !cfg.trace {
        for name in unmeasured_end_to_end(&outcome) {
            outcome.failed += 1;
            outcome
                .failures
                .push(format!("end-to-end metric {name} was not measured"));
        }
    }
    for failure in &outcome.failures {
        println!("FAILED: {failure}");
    }
    if cfg.trace {
        let path = cfg
            .scratch_root
            .join(format!("trace-{}.json", cfg.workload));
        match tracer.write_json(&path) {
            Ok(()) => println!(
                "trace: {} spans in {}",
                tracer.spans().len(),
                path.display()
            ),
            Err(e) => eprintln!("e2e: cannot write {}: {e}", path.display()),
        }
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed,
        metrics_json(specs, &outcome)
    );
    ExitCode::SUCCESS
}

/// Re-execute this binary for one workload and trace mode, so each run has
/// its own process (and its own peak RSS), and return the parsed last line.
fn run_child(args: &Args, workload: &str, trace: bool) -> Result<json::Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate this executable: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if let Some(seconds) = args.seconds {
        command.args(["--seconds", &seconds.to_string()]);
    }
    if args.quick {
        command.arg("--quick");
    }
    let output = command
        .output()
        .map_err(|e| format!("start {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!(
            "{workload} exited with {}\n{stdout}",
            output.status
        ));
    }
    let last = stdout.lines().last().unwrap_or_default();
    json::parse(last).map_err(|e| format!("{workload}: {e}"))
}

/// `--workload all`: every workload untraced then traced, merged into one
/// result set on standard output or in `--out`.
fn run_all(args: &Args) -> ExitCode {
    let mut members = Vec::new();
    let mut all_correct = true;
    for (workload, _) in WORKLOADS {
        let runs = run_child(args, workload, false)
            .and_then(|plain| Ok((plain, run_child(args, workload, true)?)));
        let (plain, traced) = match runs {
            Ok(runs) => runs,
            Err(message) => {
                eprintln!("e2e: {message}");
                return ExitCode::from(2);
            }
        };
        let correct = [&plain, &traced]
            .iter()
            .all(|r| r.get("correct").and_then(json::Json::as_bool) == Some(true));
        all_correct &= correct;
        let field =
            |run: &json::Json, key: &str| run.get(key).and_then(json::Json::as_f64).unwrap_or(0.0);
        let metrics = |run: &json::Json| {
            let members: Vec<String> = run
                .get("metrics")
                .map_or(&[][..], json::Json::members)
                .iter()
                .map(|(name, m)| {
                    format!(
                        "      {}: {{\"value\": {}, \"unit\": {}}}",
                        json::quote(name),
                        json::number(field(m, "value")),
                        json::quote(m.get("unit").and_then(json::Json::as_str).unwrap_or(""))
                    )
                })
                .collect();
            format!("{{\n{}\n    }}", members.join(",\n"))
        };
        eprintln!(
            "e2e: {workload}: correct={correct} attempted={} failed={}",
            field(&plain, "attempted") + field(&traced, "attempted"),
            field(&plain, "failed") + field(&traced, "failed")
        );
        members.push(format!(
            "  {}: {{\n    \"correct\": {correct},\n    \"attempted\": {},\n    \"failed\": {},\n    \
             \"end_to_end\": {},\n    \"per_layer\": {}\n  }}",
            json::quote(workload),
            field(&plain, "attempted") + field(&traced, "attempted"),
            field(&plain, "failed") + field(&traced, "failed"),
            metrics(&plain),
            metrics(&traced)
        ));
    }
    let document = format!(
        "{{\n\"seed\": {},\n\"seconds\": {},\n\"nproc\": {},\n\"rustc\": {},\n\"commit\": {},\n\
         \"sizes\": {},\n\"workloads\": {{\n{}\n}}\n}}\n",
        args.seed,
        json::number(args.seconds()),
        nproc(),
        json::quote(&rustc_version()),
        json::quote(&commit()),
        json::quote(&args.sizes().describe()),
        members.join(",\n")
    );
    match &args.out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &document) {
                eprintln!("e2e: cannot write {}: {e}", path.display());
                return ExitCode::from(2);
            }
        }
        None => print!("{document}"),
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn run_compare(a: &PathBuf, b: &PathBuf) -> ExitCode {
    let load = |path: &PathBuf| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("read {}: {e}", path.display()))
            .and_then(|text| json::parse(&text).map_err(|e| format!("{}: {e}", path.display())))
    };
    let rows = load(a)
        .and_then(|a| Ok((a, load(b)?)))
        .and_then(|(a, b)| compare::compare(&a, &b));
    match rows {
        Ok(rows) if rows.is_empty() => {
            println!("the two sets agree within every end-to-end metric's bound");
            ExitCode::SUCCESS
        }
        Ok(rows) => {
            for row in &rows {
                println!("{row}");
            }
            ExitCode::from(1)
        }
        Err(message) => {
            eprintln!("e2e: {message}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("e2e: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &args.compare {
        return run_compare(a, b);
    }
    if cfg!(debug_assertions) {
        eprintln!("e2e: refusing to measure a build with debug assertions; use --release");
        return ExitCode::from(2);
    }
    match args.workload.as_deref() {
        Some("all") => run_all(&args),
        Some(workload) => run_one(&args, workload),
        None => unreachable!("parse_args requires --workload or --compare"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn strings(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn driver_command_line_parses() {
        let args = parse_args(&strings(&[
            "--workload",
            "row_shuffle_dense",
            "--seed",
            "7",
            "--seconds",
            "8",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(args.workload.as_deref(), Some("row_shuffle_dense"));
        assert_eq!((args.seed, args.seconds, args.trace), (7, Some(8.0), true));
        let args = parse_args(&strings(&["--workload", "all", "--trace", "0", "--quick"])).unwrap();
        assert!(!args.trace && args.quick);
        // A bare --trace switches tracing on.
        let args = parse_args(&strings(&["--trace", "--workload", "all"])).unwrap();
        assert!(args.trace);
        assert!(parse_args(&strings(&["--seed", "1"])).is_err());
        assert!(parse_args(&strings(&["--workload", "x", "--seed", "-1"])).is_err());
        assert!(parse_args(&strings(&["--workload", "x", "--bogus"])).is_err());
        assert!(parse_args(&strings(&["--compare", "a.json"])).is_err());
    }

    /// `BENCHMARK.json` is the published copy of the tables in `spec.rs`.
    #[test]
    fn benchmark_json_matches_the_spec() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCHMARK.json");
        let candidates = [
            PathBuf::from(path),
            // As the standalone package, five levels below the root.
            PathBuf::from(concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/../../../../../BENCHMARK.json"
            )),
            // As `bismarck-bench`'s binary, two levels below it.
            PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json")),
        ];
        let text = candidates
            .iter()
            .find_map(|p| std::fs::read_to_string(p).ok())
            .expect("BENCHMARK.json at the repository root");
        let doc = json::parse(&text).unwrap();

        let keys: Vec<&str> = doc.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        assert_eq!(
            doc.get("run_seconds").and_then(json::Json::as_f64),
            Some(DEFAULT_SECONDS)
        );

        let workloads = doc.get("workloads").unwrap().as_array().unwrap();
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (published, (name, why)) in workloads.iter().zip(WORKLOADS) {
            assert_eq!(published.get("name").unwrap().as_str(), Some(*name));
            assert_eq!(published.get("why").unwrap().as_str(), Some(*why));
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{name}: why too long"
            );
        }

        for (key, specs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let published = doc.get(key).unwrap().as_array().unwrap();
            assert_eq!(published.len(), specs.len(), "{key}");
            for (p, m) in published.iter().zip(specs) {
                assert_eq!(p.get("name").unwrap().as_str(), Some(m.name));
                assert_eq!(p.get("unit").unwrap().as_str(), Some(m.unit));
                assert_eq!(p.get("better").unwrap().as_str(), Some(m.better.label()));
                if key == "end_to_end" {
                    assert_eq!(p.get("bound").unwrap().as_f64(), Some(m.bound));
                    assert!(m.bound <= 0.25);
                } else {
                    assert!(p.get("bound").is_none());
                }
                assert!(m.name.len() <= 64 && m.unit.len() <= 16);
            }
        }
        let names: BTreeSet<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        assert_eq!(
            names.len(),
            END_TO_END.len() + PER_LAYER.len(),
            "names are unique"
        );
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    /// All six workloads at smoke size, untraced and traced: every operation
    /// succeeds, every end-to-end metric is measured, and every per-layer
    /// name a workload files is a published one.
    #[test]
    fn quick_smoke_of_all_six_workloads() {
        let started = std::time::Instant::now();
        for (workload, _) in WORKLOADS {
            for trace in [false, true] {
                let cfg = RunConfig {
                    workload: workload.to_string(),
                    seed: 11,
                    seconds: 0.05,
                    trace,
                    sizes: spec::QUICK,
                    scratch_root: harness::default_scratch_root(),
                };
                let (outcome, tracer) = workloads::run(&cfg).unwrap();
                assert_eq!(outcome.failed, 0, "{workload}: {:?}", outcome.failures);
                assert!(outcome.attempted > 0);
                assert_eq!(
                    unmeasured_end_to_end(&outcome),
                    Vec::<&str>::new(),
                    "{workload}"
                );
                assert_eq!(tracer.spans().is_empty(), !trace, "{workload}");
                for name in outcome.metrics.keys() {
                    assert!(
                        END_TO_END.iter().chain(PER_LAYER).any(|m| m.name == *name),
                        "{workload} files unpublished metric {name}"
                    );
                }
                if trace {
                    assert!(outcome.metrics.contains_key("bench.trace_overhead_frac"));
                }
                let line = metrics_json(if trace { PER_LAYER } else { END_TO_END }, &outcome);
                let parsed = json::parse(&line).unwrap();
                assert_eq!(
                    parsed.members().len(),
                    if trace {
                        PER_LAYER.len()
                    } else {
                        END_TO_END.len()
                    }
                );
            }
        }
        // The scratch directories are gone again.
        let left: Vec<_> = std::fs::read_dir(harness::default_scratch_root())
            .map(|d| d.flatten().collect())
            .unwrap_or_default();
        let mine = format!("{}-", std::process::id());
        assert!(!left.iter().any(|e: &std::fs::DirEntry| e
            .file_name()
            .to_string_lossy()
            .starts_with(&mine)
            && !e.file_name().to_string_lossy().contains("harness-test")));
        if !cfg!(debug_assertions) {
            assert!(started.elapsed().as_secs_f64() < 5.0, "smoke took too long");
        }
    }
}
