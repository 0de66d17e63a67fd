//! Regenerates every table and figure of the paper's evaluation, and the
//! extension studies, into `results/`: one `<name>.txt` per figure plus
//! the SVG charts. It first simulates every run the selected figures read,
//! on `--jobs` threads (default: one per available CPU); runs that several
//! figures share simulate once, and runs that warm up to the same caches
//! warm up once. Then it renders the figures, which simulate nothing.
//!
//! ```bash
//! cargo run -p bench --release --bin figures -- [--only table1,fig12,...] [--jobs N] [instructions] [seed]
//! ```

use std::fs;
use std::path::Path;
use std::process::ExitCode;

use bench::{parse_args, Args, ReportStore};

const USAGE: &str = "usage: figures [--only NAME,NAME,...] [--jobs N] [instructions] [seed]";

fn write(path: &Path, contents: &str) -> Result<(), String> {
    fs::write(path, contents).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

/// Runs the selected figures; returns the simulations and warm-ups done.
fn run(args: &[String]) -> Result<(usize, usize), String> {
    let Args { cfg, figures, jobs } = parse_args(args).map_err(|e| format!("{e}\n{USAGE}"))?;
    let dir = Path::new("results");
    fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let runs: Vec<_> = figures.iter().flat_map(|f| (f.runs)(&cfg)).collect();
    eprintln!(
        "simulating the runs of {} figures ({} instructions/core)...",
        figures.len(),
        cfg.instructions
    );
    let mut store = ReportStore::new();
    store.run_all(&runs, jobs);
    let simulated = store.simulations();
    for figure in figures {
        let files =
            (figure.render)(&mut store, &cfg).map_err(|e| format!("{}: {e}", figure.name))?;
        if store.simulations() != simulated {
            return Err(format!("{} reads runs it does not declare", figure.name));
        }
        for (file, contents) in files {
            write(&dir.join(file), &contents)?;
        }
    }
    Ok((store.simulations(), store.warmups()))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok((simulations, warmups)) => {
            println!("{simulations} simulations, {warmups} warm-ups");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("figures: {e}");
            ExitCode::from(2)
        }
    }
}
