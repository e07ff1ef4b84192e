//! Runs the paper's evaluation, every table and figure in paper order,
//! then the two analyses beyond it; or only the ones named
//! (`run_all fig13 table3`). Each experiment's rows are written to
//! `results/<name>.json`. Accepts `--scale N` (extra shrink shift) and
//! `--seed N`; an unknown name exits with the list of valid ones.
#![forbid(unsafe_code)]
use lt_bench::experiments as exp;
use std::path::Path;

type Experiment = fn(u32, u64) -> serde_json::Value;

const ALL: [(&str, Experiment); 16] = [
    ("table2", exp::table2),
    ("fig03", exp::motivation::fig03),
    ("table1", exp::motivation::table1),
    ("fig09", exp::overall::fig09),
    ("fig10", exp::overall::fig10),
    ("fig11", exp::overall::fig11),
    ("fig12", exp::techniques::fig12),
    ("fig13", exp::techniques::fig13),
    ("table3", exp::techniques::table3),
    ("fig14", exp::techniques::fig14),
    ("fig15", exp::sensitivity::fig15),
    ("fig16", exp::techniques::fig16),
    ("fig17", exp::sensitivity::fig17),
    ("fig18", exp::sensitivity::fig18),
    ("ablations", exp::sensitivity::ablations),
    ("straggler_analysis", exp::techniques::stragglers),
];

/// Experiment names, `--scale N` (default 0) and `--seed N` (default 42)
/// from argv. A malformed flag panics so a typo never silently runs the
/// default experiment.
fn parse_args() -> (Vec<String>, u32, u64) {
    let mut args = std::env::args().skip(1);
    let (mut names, mut shift, mut seed) = (Vec::new(), 0u32, 42u64);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--scale" => {
                shift = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--scale takes an integer shrink shift");
            }
            "--seed" => {
                seed = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--seed takes an integer");
            }
            flag if flag.starts_with('-') => {
                panic!("unknown argument {flag} (supported: --scale N, --seed N)")
            }
            _ => names.push(arg),
        }
    }
    (names, shift, seed)
}

fn main() {
    let (names, shift, seed) = parse_args();
    if let Some(bad) = names.iter().find(|n| ALL.iter().all(|(name, _)| name != n)) {
        let valid: Vec<&str> = ALL.iter().map(|(name, _)| *name).collect();
        eprintln!("unknown experiment {bad}; valid names: {}", valid.join(" "));
        std::process::exit(2);
    }
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    std::fs::create_dir_all(&dir).expect("create results dir");
    for (name, f) in ALL {
        if !names.is_empty() && !names.iter().any(|n| n == name) {
            continue;
        }
        println!("\n================ {name} ================\n");
        let start = std::time::Instant::now();
        let rows = f(shift, seed);
        let path = dir.join(format!("{name}.json"));
        let text = serde_json::to_string_pretty(&rows).expect("serialize");
        std::fs::write(&path, text).expect("write results json");
        println!("\n[saved {}]", path.display());
        println!("[{name} took {:.1}s wall]", start.elapsed().as_secs_f64());
    }
}
