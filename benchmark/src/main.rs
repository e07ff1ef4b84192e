//! The canonical LightTraffic performance harness. See `README.md`.
//!
//! ```text
//! lt-benchmark run     [--seed N] [--workload NAME] [--seconds S] [--smoke]
//! lt-benchmark trace   [--seed N] [--workload NAME] [--seconds S] [--smoke]
//! lt-benchmark compare A.json B.json
//! lt-benchmark --workload NAME --seed N --seconds S --trace 0|1     (driver form)
//! ```
//!
//! The parent process generates inputs, then re-executes itself once per
//! workload (`--child`), one child at a time, so set-up time and peak
//! memory are measured in a process that has done nothing else.

mod compare;
mod inputs;
mod library;
mod probes;
mod result;
mod scan;
mod serve;
mod spec;
mod stats;
mod trace;

use inputs::InputDir;
use result::{Check, EnvStamp, ResultSet, WorkloadResult};
use spec::{
    Sizes, Workload, BUDGET_TERMS, END_TO_END, HARNESS_VERSION, PER_LAYER, RUN_SECONDS, WORKLOADS,
};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

/// What a child process needs to know.
pub struct ChildCtx {
    pub workload: &'static Workload,
    /// Directory holding the generated inputs.
    pub dir: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub sizes: Sizes,
}

#[derive(Debug, Default)]
struct Args {
    command: Option<String>,
    files: Vec<String>,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    child: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        seed: 42,
        ..Default::default()
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().cloned().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => a.workload = Some(value("--workload")?),
            "--seed" => {
                a.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed needs an unsigned integer")?
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|_| "--seconds needs a number")?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                }
            }
            "--smoke" => a.smoke = true,
            "--child" => a.child = Some(PathBuf::from(value("--child")?)),
            "run" | "trace" | "compare" if a.command.is_none() => a.command = Some(arg.clone()),
            f if f.starts_with("--") => return Err(format!("unknown flag {f}")),
            _ if a.command.as_deref() == Some("compare") => a.files.push(arg.clone()),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    Ok(a)
}

/// `LT_TEST_*` and `LT_OOC_NO_MMAP` silently change what the engine
/// does (fault drills, forced strategies, pread instead of mmap): a
/// number measured under them is not a number of this benchmark.
fn dirty_env() -> Vec<String> {
    std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("LT_TEST_") || k == "LT_OOC_NO_MMAP")
        .collect()
}

fn crate_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")))
}

fn command_line(program: &str, args: &[&str], cwd: &Path) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(cwd)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn host_cpus() -> u64 {
    std::thread::available_parallelism().map_or(1, |n| n.get() as u64)
}

fn env_stamp(seed: u64, seconds: f64) -> EnvStamp {
    let dir = crate_dir();
    EnvStamp {
        git_commit: command_line("git", &["rev-parse", "HEAD"], &dir).unwrap_or_else(|| "unknown".into()),
        rustc: command_line("rustc", &["-V"], &dir).unwrap_or_else(|| "unknown".into()),
        host_cpus: host_cpus(),
        kernel_threads: host_cpus(),
        cpufreq_governor: std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor")
            .map_or_else(|_| "unreadable".into(), |s| s.trim().to_string()),
        seed,
        seconds,
        harness_version: HARNESS_VERSION,
        page_cache: "warm: inputs are written just before they are read, so deepwalk_ooc measures decode CPU, not disk".into(),
    }
}

// --- child side -------------------------------------------------------------

fn child_main(args: &Args, dir: &Path) -> Result<(), String> {
    let name = args.workload.as_deref().ok_or("--child needs --workload")?;
    let ctx = ChildCtx {
        workload: spec::workload(name).ok_or(format!("unknown workload {name:?}"))?,
        dir: dir.to_path_buf(),
        seed: args.seed,
        seconds: args.seconds.unwrap_or(RUN_SECONDS as f64),
        traced: args.trace,
        sizes: Sizes::for_run(args.smoke),
    };
    let (result, spans) = if ctx.workload.kind.is_library() {
        library::run(&ctx)?
    } else {
        serve::run(&ctx)?
    };
    if ctx.traced {
        let results_dir = dir.parent().ok_or("inputs directory has no parent")?;
        let dump = serde_json::json!({ "workload": name, "seed": ctx.seed, "spans": spans });
        let path = results_dir.join(format!("trace-{name}.json"));
        std::fs::write(
            &path,
            serde_json::to_string(&dump).map_err(|e| e.to_string())? + "\n",
        )
        .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!(
        "{}",
        serde_json::to_string(&result).map_err(|e| e.to_string())?
    );
    Ok(())
}

// --- parent side ------------------------------------------------------------

struct Parent<'a> {
    args: &'a Args,
    seconds: f64,
    inputs: InputDir,
}

impl Parent<'_> {
    /// Run one workload in a fresh child process and read its result line.
    fn spawn_child(&self, w: &Workload, traced: bool) -> Result<WorkloadResult, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut cmd = Command::new(exe);
        cmd.arg("--child")
            .arg(self.inputs.path())
            .args(["--workload", w.name])
            .args(["--seed", &self.args.seed.to_string()])
            .args(["--seconds", &self.seconds.to_string()])
            .args(["--trace", if traced { "1" } else { "0" }])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if self.args.smoke {
            cmd.arg("--smoke");
        }
        let out = cmd.output().map_err(|e| format!("spawn child: {e}"))?;
        if !out.status.success() {
            return Err(format!("{} child failed: {}", w.name, out.status));
        }
        let stdout = String::from_utf8_lossy(&out.stdout);
        let line = stdout.lines().last().ok_or("child printed no result")?;
        serde_json::from_str(line).map_err(|e| format!("child result does not parse: {e}"))
    }

    /// Prepare inputs, run the untraced pass and, in trace mode, the
    /// traced pass; merge them into one result.
    fn measure(&self, w: &'static Workload, trace_mode: bool) -> Result<WorkloadResult, String> {
        let sizes = Sizes::for_run(self.args.smoke);
        let prep = self.inputs.prepare(w.kind, sizes)?;
        let mut result = self.spawn_child(w, false)?;
        if trace_mode {
            let traced = self.spawn_child(w, true)?;
            if w.kind.is_library() {
                // A host-side observer must leave the simulation alone.
                let diff =
                    result::first_difference(&result.deterministic, &traced.deterministic, &[]);
                result.checks.push(Check::new(
                    "traced_equals_untraced",
                    diff.is_none() && !traced.deterministic.is_empty(),
                    diff.unwrap_or_else(|| {
                        format!(
                            "{} deterministic counters equal in both passes",
                            traced.deterministic.len()
                        )
                    }),
                ));
            }
            let per_round = |r: &WorkloadResult| r.run_wall_s / r.rounds.max(1) as f64;
            let overhead = per_round(&traced) / per_round(&result) - 1.0;
            result.per_layer = traced.per_layer;
            // The exact end-to-end metrics reach the driver through the
            // per-layer list (see `EndToEnd::gated`).
            for m in END_TO_END.iter().filter(|m| !m.gated) {
                let v = result.end_to_end.get(m.name).copied().unwrap_or(0.0);
                result.per_layer.insert(m.name.into(), v);
            }
            result
                .per_layer
                .insert("trace.overhead_frac".into(), overhead);
            result
                .per_layer
                .insert("oocore.write_s".into(), prep.oocore_write_s);
            result.traced = true;
            result.attempted += traced.attempted;
            result.failed += traced.failed;
            result
                .checks
                .extend(traced.checks.into_iter().map(|c| Check {
                    name: format!("traced.{}", c.name),
                    ..c
                }));
        }
        result.prepare_s = prep.prepare_s;
        Ok(result)
    }
}

/// The paper's two stores must be indistinguishable on the simulated
/// clock; with both workloads in one set the parent can see that too.
fn cross_checks(results: &mut [WorkloadResult]) {
    let find = |rs: &[WorkloadResult], n: &str| rs.iter().position(|r| r.workload == n);
    if let (Some(ram), Some(ooc)) = (find(results, "deepwalk_ram"), find(results, "deepwalk_ooc")) {
        let exact = ["sim_steps_per_s", "link_bytes_per_step"];
        let same = exact.iter().all(|k| {
            results[ram].end_to_end.get(*k).map(|v| v.to_bits())
                == results[ooc].end_to_end.get(*k).map(|v| v.to_bits())
        });
        results[ooc].checks.push(Check::new(
            "ooc_sim_metrics_equal_ram_workload",
            same,
            "sim_steps_per_s and link_bytes_per_step equal deepwalk_ram's to the last digit",
        ));
    }
}

fn print_result(r: &WorkloadResult) {
    println!(
        "\n== {}: {} rounds in {:.2} s measured, {} attempted, {} failed, prepare {:.2} s",
        r.workload, r.rounds, r.run_wall_s, r.attempted, r.failed, r.prepare_s
    );
    for m in &END_TO_END {
        let v = r.end_to_end.get(m.name).copied().unwrap_or(0.0);
        let tail = if m.name == "job_p95_ms" && r.tail_percentile < 95.0 {
            format!("  (p{} is the highest supported tail)", r.tail_percentile)
        } else {
            String::new()
        };
        println!(
            "  {:<22} {:>18.6} {:<7} [{} clock]{tail}",
            m.name, v, m.unit, m.clock
        );
    }
    if r.traced {
        let get = |k: &str| r.per_layer.get(k).copied().unwrap_or(0.0);
        let wall = get("run.wall_s");
        let share = |v: f64| if wall > 0.0 { 100.0 * v / wall } else { 0.0 };
        let terms: Vec<String> = BUDGET_TERMS
            .iter()
            .chain(["engine.unattributed_s"].iter())
            .map(|k| format!("{k} {:.3} ({:.1}%)", get(k), share(get(k))))
            .collect();
        if spec::workload(&r.workload).is_some_and(|w| w.kind.is_library()) {
            println!(
                "  budget (host clock, per round): run wall {wall:.3} s = {}",
                terms.join(" + ")
            );
        } else {
            println!("  budget: not split here, the engine runs on the server's scheduler thread; read server.* and wire.*");
        }
        println!("  trace.overhead_frac {:+.4}", get("trace.overhead_frac"));
        for m in &PER_LAYER {
            if let Some(v) = r.per_layer.get(m.name).filter(|v| **v != 0.0) {
                println!("    {:<36} {:>20.6} {}", m.name, v, m.unit);
            }
        }
    }
    for c in &r.checks {
        println!(
            "  check {:<36} {}  {}",
            c.name,
            if c.ok { "ok  " } else { "FAIL" },
            c.detail
        );
    }
}

/// The last line the driver reads: `correct`, `attempted`, `failed` and
/// the metrics `BENCHMARK.json` lists for this pass.
fn contract_line(r: &WorkloadResult, trace_mode: bool) -> String {
    let metric = |value: f64, unit: &str| serde_json::json!({ "value": value, "unit": unit });
    let mut metrics = serde_json::Map::new();
    if trace_mode {
        for m in &PER_LAYER {
            let v = r.per_layer.get(m.name).copied().unwrap_or(0.0);
            metrics.insert(m.name.into(), metric(v, m.unit));
        }
    } else {
        for m in END_TO_END.iter().filter(|m| m.gated) {
            let v = r.end_to_end.get(m.name).copied().unwrap_or(0.0);
            metrics.insert(m.name.into(), metric(v, m.unit));
        }
    }
    let metrics = serde_json::Value::Object(metrics);
    let (correct, attempted) = (r.correct(), r.attempted.max(1));
    let line = serde_json::json!({
        "correct": correct,
        "attempted": attempted,
        "failed": r.failed,
        "metrics": metrics,
    });
    serde_json::to_string(&line).expect("a Value always serializes")
}

fn parent_main(args: &Args) -> Result<bool, String> {
    let dirty = dirty_env();
    if !dirty.is_empty() {
        return Err(format!("refusing to measure with {} set", dirty.join(", ")));
    }
    let driver_form = args.command.is_none();
    let trace_mode = args.command.as_deref() == Some("trace") || (driver_form && args.trace);
    let workloads: Vec<&'static Workload> = match &args.workload {
        Some(name) => vec![spec::workload(name).ok_or(format!("unknown workload {name:?}"))?],
        None if driver_form => {
            return Err("name a command (run, trace, compare) or a --workload".into())
        }
        None => WORKLOADS.iter().collect(),
    };
    let seconds = args
        .seconds
        .unwrap_or(if args.smoke { 1.0 } else { RUN_SECONDS as f64 });
    let results_dir = crate_dir().join("results");
    std::fs::create_dir_all(&results_dir).map_err(|e| format!("{}: {e}", results_dir.display()))?;

    let stamp = env_stamp(args.seed, seconds);
    let single_cpu = stamp.host_cpus == 1;
    if single_cpu {
        println!("WARNING: host_cpus is 1: thread fan-out cannot be measured, this result set does not count");
    }
    println!(
        "lt-benchmark v{HARNESS_VERSION}: seed {} seconds {seconds} cpus {} commit {} {}{}",
        stamp.seed,
        stamp.host_cpus,
        stamp.git_commit,
        stamp.rustc,
        if args.smoke { " [smoke sizes]" } else { "" }
    );
    println!("page cache: {}", stamp.page_cache);

    let parent = Parent {
        args,
        seconds,
        inputs: InputDir::open(&results_dir, args.smoke)?,
    };
    let mut results = Vec::new();
    for w in workloads {
        results.push(parent.measure(w, trace_mode)?);
    }
    cross_checks(&mut results);
    for r in &results {
        print_result(r);
    }
    let correct = results.iter().all(WorkloadResult::correct);
    let set = ResultSet {
        mode: if trace_mode { "trace" } else { "run" }.into(),
        smoke: args.smoke,
        counts: !single_cpu && !args.smoke,
        stamp,
        workloads: results,
    };
    let file = results_dir.join(if trace_mode {
        "latest-trace.json"
    } else {
        "latest.json"
    });
    set.save(&file)?;
    println!(
        "\n{} -> {}",
        if correct {
            "all checks passed"
        } else {
            "CHECKS FAILED"
        },
        file.display()
    );
    if driver_form {
        println!("{}", contract_line(&set.workloads[0], trace_mode));
    }
    Ok(correct)
}

fn compare_main(files: &[String]) -> Result<bool, String> {
    let [a, b] = files else {
        return Err("compare needs exactly two result files".into());
    };
    let (text, ok) = compare::compare(
        &ResultSet::load(Path::new(a))?,
        &ResultSet::load(Path::new(b))?,
    );
    print!("{text}");
    Ok(ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&argv).and_then(|args| match (&args.child, args.command.as_deref()) {
        (Some(dir), _) => child_main(&args, dir).map(|()| true),
        (None, Some("compare")) => compare_main(&args.files),
        (None, _) => parent_main(&args),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("lt-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn driver_form_and_subcommands_parse() {
        let a = args("--workload serve_tcp --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.command, a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (None, Some("serve_tcp"), 7, Some(10.0), true)
        );
        let a = args("run --smoke").unwrap();
        assert_eq!(
            (a.command.as_deref(), a.smoke, a.seed, a.trace),
            (Some("run"), true, 42, false)
        );
        let a = args("compare a.json b.json").unwrap();
        assert_eq!(a.files, ["a.json", "b.json"]);
        for bad in [
            "--seed",
            "--seed x",
            "--trace 2",
            "--seconds 0",
            "--frobnicate",
            "stray",
            "run run",
        ] {
            assert!(args(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn contract_line_lists_exactly_the_declared_metrics() {
        let mut r = WorkloadResult {
            workload: "deepwalk_ram".into(),
            attempted: 10,
            ..Default::default()
        };
        r.end_to_end.insert("steps_per_s".into(), 1234.5);
        r.per_layer.insert("kernel.share".into(), 0.25);
        for (trace, want) in [
            (false, END_TO_END.iter().filter(|m| m.gated).count()),
            (true, PER_LAYER.len()),
        ] {
            let v: serde_json::Value = serde_json::from_str(&contract_line(&r, trace)).unwrap();
            let keys: Vec<&String> = v.as_object().unwrap().keys().collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            assert_eq!(v["metrics"].as_object().unwrap().len(), want);
            assert_eq!(v["correct"], true);
        }
        let v: serde_json::Value = serde_json::from_str(&contract_line(&r, false)).unwrap();
        assert_eq!(v["metrics"]["steps_per_s"]["value"].as_f64(), Some(1234.5));
        assert_eq!(v["metrics"]["steps_per_s"]["unit"], "1/s");
        assert!(v["metrics"].get("sim_steps_per_s").is_none());
    }
}
