//! `reproduce` — regenerate the paper's tables and figures from the command
//! line.
//!
//! Usage:
//!
//! ```text
//! reproduce [--experiment <id>] [--scale small|full]
//! ```
//!
//! `<id>` names a table or a figure panel (`table1`, `fig7a`, …; `--help`
//! lists them) or is `all`, the default.
//!
//! Each experiment prints the rows / series of the corresponding paper
//! artefact. Absolute numbers differ from the paper (different hardware and
//! substrate); the qualitative shape is what is being reproduced — see
//! README, "Build, test, bench".

use bismarck_bench::experiments::table2_3_overheads::UdaVariant;
use bismarck_bench::experiments::{
    fig10_mrs, fig5_catx, fig7_benchmark, fig8_ordering, fig9_parallel, table1_datasets,
    table2_3_overheads, table4_scalability,
};
use bismarck_bench::Scale;

/// The ids that select an experiment (a figure's panels come from one run,
/// so either id prints the whole result) and what it prints.
type Experiment = (&'static [&'static str], fn(Scale) -> String);

/// Every experiment once; `all` runs each entry.
const EXPERIMENTS: &[Experiment] = &[
    (&["table1"], |s| table1_datasets::run(s).to_string()),
    (&["table2"], |s| {
        table2_3_overheads::run(s, UdaVariant::Pure).to_string()
    }),
    (&["table3"], |s| {
        table2_3_overheads::run(s, UdaVariant::SharedMemory).to_string()
    }),
    (&["table4"], |s| table4_scalability::run(s).to_string()),
    (&["fig5"], |s| fig5_catx::run(s).to_string()),
    (&["fig7a", "fig7b"], |s| fig7_benchmark::run(s).to_string()),
    (&["fig8"], |s| fig8_ordering::run(s).to_string()),
    (&["fig9a", "fig9b"], |s| fig9_parallel::run(s).to_string()),
    (&["fig10a", "fig10b"], |s| fig10_mrs::run(s).to_string()),
];

fn print_usage() {
    let ids: Vec<&str> = EXPERIMENTS
        .iter()
        .flat_map(|(ids, _)| *ids)
        .copied()
        .collect();
    eprintln!("usage: reproduce [--experiment <id>] [--scale small|full]");
    eprintln!("  ids: {} or 'all' (default)", ids.join(", "));
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut experiment = "all".to_string();
    let mut scale = Scale::Small;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--experiment" | "-e" => {
                i += 1;
                let Some(value) = args.get(i) else {
                    print_usage();
                    std::process::exit(2);
                };
                experiment = value.clone();
            }
            "--scale" | "-s" => {
                i += 1;
                let Some(value) = args.get(i).and_then(|v| Scale::parse(v)) else {
                    print_usage();
                    std::process::exit(2);
                };
                scale = value;
            }
            "--help" | "-h" => {
                print_usage();
                return;
            }
            other => {
                eprintln!("unknown argument '{other}'");
                print_usage();
                std::process::exit(2);
            }
        }
        i += 1;
    }

    println!(
        "Bismarck reproduction harness — scale: {:?}; experiment: {}",
        scale, experiment
    );
    let selected: Vec<_> = EXPERIMENTS
        .iter()
        .filter(|(ids, _)| experiment == "all" || ids.contains(&experiment.as_str()))
        .collect();
    if selected.is_empty() {
        eprintln!("unknown experiment '{experiment}'");
        print_usage();
        std::process::exit(2);
    }
    for (_, run) in selected {
        println!("==================================================================");
        println!("{}", run(scale));
    }
}
