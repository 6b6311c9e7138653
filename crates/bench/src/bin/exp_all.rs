//! Runs every experiment (E1–E12, ET, EB, EF), or one of them, and prints
//! the tables; used to regenerate the measured numbers in EXPERIMENTS.md.
//!
//! Usage: `cargo run -p dcme_bench --release --bin exp_all [-- --only ID]
//! [-- --full] [-- --jsonl out.jsonl]` — `--only E6` runs just the
//! experiment whose table is E6 (an unknown id is a usage error, exit 2);
//! `--full` uses the sizes recorded in EXPERIMENTS.md; with `--jsonl`,
//! every table row is also appended to the given file as a
//! machine-readable JSON-lines record.

use std::process::ExitCode;

use dcme_bench::experiments::{self, EXPERIMENTS};

fn main() -> ExitCode {
    let scale = experiments::scale_from_args();
    let jsonl = experiments::jsonl_path_from_args();
    let args: Vec<String> = std::env::args().collect();
    let tables = match args.iter().position(|a| a == "--only") {
        None => experiments::run_all(scale),
        Some(i) => {
            let id = args.get(i + 1).map(String::as_str);
            match EXPERIMENTS.iter().find(|(e, _)| Some(*e) == id) {
                Some((_, run)) => vec![run(scale)],
                None => {
                    let ids: Vec<&str> = EXPERIMENTS.iter().map(|(e, _)| *e).collect();
                    eprintln!("exp_all: --only takes one of {}", ids.join(", "));
                    return ExitCode::from(2);
                }
            }
        }
    };
    for table in &tables {
        println!("{}", table.to_markdown());
    }
    if let Some(path) = jsonl {
        experiments::append_tables_jsonl(&path, &tables).expect("append --jsonl rows");
        eprintln!("appended {} tables to {}", tables.len(), path.display());
    }
    ExitCode::SUCCESS
}
