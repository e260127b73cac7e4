//! Regenerates the paper's tables and keeps EXPERIMENTS.md equal to them.
//!
//! ```text
//! experiments [name…]          print the named (default: all) generated blocks
//! experiments --write [name…]  splice them into EXPERIMENTS.md
//! experiments --check [name…]  exit 1, with a diff, if EXPERIMENTS.md differs
//! ```
//!
//! An experiment that lost its paper shape is an error in every mode.
//! Standard output is a function of the code alone; per-experiment wall
//! time goes to standard error.

use feisu_bench::experiments::{Experiment, ALL};
use feisu_bench::report::{self, close_marker, open_marker};
use feisu_common::{FeisuError, Result};
use std::process::ExitCode;
use std::time::Instant;

const DOCUMENT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");

fn selected(names: &[&str]) -> Result<Vec<&'static Experiment>> {
    if names.is_empty() {
        return Ok(ALL.iter().collect());
    }
    names
        .iter()
        .map(|name| {
            ALL.iter().find(|(known, _)| known == name).ok_or_else(|| {
                let known: Vec<&str> = ALL.iter().map(|(known, _)| *known).collect();
                FeisuError::Config(format!(
                    "no experiment `{name}`; known: {}",
                    known.join(", ")
                ))
            })
        })
        .collect()
}

/// Runs the experiments; `Ok(false)` when `--check` found a difference.
fn run(args: &[&str]) -> Result<bool> {
    let (flags, names): (Vec<&str>, Vec<&str>) = args.iter().partition(|a| a.starts_with("--"));
    let mode = match flags[..] {
        [] => None,
        [mode @ ("--write" | "--check")] => Some(mode),
        _ => {
            return Err(FeisuError::Config(
                "usage: experiments [--write | --check] [name…]".into(),
            ))
        }
    };
    let io = |e: std::io::Error| FeisuError::Storage(format!("{DOCUMENT}: {e}"));
    let mut document = match mode {
        Some(_) => std::fs::read_to_string(DOCUMENT).map_err(io)?,
        None => String::new(),
    };
    let mut up_to_date = true;
    let started = Instant::now();
    for (name, experiment) in selected(&names)? {
        let clock = Instant::now();
        let body = experiment()?.markdown();
        eprintln!("experiments: {name} {:.1} s", clock.elapsed().as_secs_f64());
        match mode {
            None => println!("{}{body}{}\n", open_marker(name), close_marker(name)),
            Some("--write") => document = report::splice(&document, name, &body)?,
            Some(_) => {
                if let Some(diff) = report::check(&document, name, &body)? {
                    print!("{diff}");
                    up_to_date = false;
                }
            }
        }
    }
    eprintln!(
        "experiments: total {:.1} s",
        started.elapsed().as_secs_f64()
    );
    if mode == Some("--write") {
        std::fs::write(DOCUMENT, document).map_err(io)?;
    }
    if !up_to_date {
        eprintln!("experiments: EXPERIMENTS.md is stale; run `experiments --write`");
    }
    Ok(up_to_date)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("experiments: {e}");
            ExitCode::FAILURE
        }
    }
}
