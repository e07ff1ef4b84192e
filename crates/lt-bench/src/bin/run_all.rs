//! Runs the paper's evaluation: every table and figure in paper order, or
//! only the ones named (`run_all fig13 table3`). Accepts `--scale N` and
//! `--seed N`; an unknown name exits with the list of valid ones.
#![forbid(unsafe_code)]
use lt_bench::experiments as exp;

type Experiment = fn(u32, u64) -> serde_json::Value;

fn main() {
    let (names, shift, seed) = lt_bench::parse_named_args();
    let all: [(&str, Experiment); 14] = [
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
    ];
    if let Some(bad) = names.iter().find(|n| all.iter().all(|(name, _)| name != n)) {
        let valid: Vec<&str> = all.iter().map(|(name, _)| *name).collect();
        eprintln!("unknown experiment {bad}; valid names: {}", valid.join(" "));
        std::process::exit(2);
    }
    for (name, f) in all {
        if !names.is_empty() && !names.iter().any(|n| n == name) {
            continue;
        }
        println!("\n================ {name} ================\n");
        let start = std::time::Instant::now();
        let rows = f(shift, seed);
        lt_bench::save_json(name, &rows);
        println!("[{name} took {:.1}s wall]", start.elapsed().as_secs_f64());
    }
}
