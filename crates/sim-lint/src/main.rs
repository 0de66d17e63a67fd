//! CLI driver: `cargo run -p sim-lint -- --workspace [--json] [--sarif
//! PATH] [--root PATH]`.
//!
//! Exit codes: 0 clean, 1 violations found, 2 internal error (usage, I/O,
//! or an unreadable/empty workspace). CI keys on the distinction: 1 means
//! the code is wrong, 2 means the lint run itself is broken.

use std::env;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut json = false;
    let mut workspace = false;
    let mut root: Option<PathBuf> = None;
    let mut sarif: Option<PathBuf> = None;

    let mut args = env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workspace" => workspace = true,
            "--json" => json = true,
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => {
                    eprintln!("sim-lint: --root requires a path argument");
                    return ExitCode::from(2);
                }
            },
            "--sarif" => match args.next() {
                Some(p) => sarif = Some(PathBuf::from(p)),
                None => {
                    eprintln!("sim-lint: --sarif requires an output path argument");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                print_usage();
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("sim-lint: unknown argument `{other}`");
                print_usage();
                return ExitCode::from(2);
            }
        }
    }

    if !workspace {
        print_usage();
        return ExitCode::from(2);
    }

    let root = match root.or_else(find_workspace_root) {
        Some(r) => r,
        None => {
            eprintln!(
                "sim-lint: cannot locate the workspace root (no Cargo.toml with a crates/ \
                 directory above the current directory); pass --root PATH"
            );
            return ExitCode::from(2);
        }
    };

    match sim_lint::lint_workspace(&root) {
        Ok(diags) => {
            if let Some(path) = &sarif {
                let log = sim_lint::sarif::to_sarif(&diags);
                if let Err(e) = std::fs::write(path, log) {
                    eprintln!("sim-lint: cannot write {}: {e}", path.display());
                    return ExitCode::from(2);
                }
            }
            if json {
                println!("{}", sim_lint::to_json_report(&diags));
            } else {
                for d in &diags {
                    println!("{d}");
                }
                if diags.is_empty() {
                    eprintln!("sim-lint: workspace clean");
                } else {
                    eprintln!("sim-lint: {} violation(s)", diags.len());
                }
            }
            if diags.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("sim-lint: {e}");
            ExitCode::from(2)
        }
    }
}

/// Walks up from the current directory to the first directory holding both
/// a `Cargo.toml` and a `crates/` directory.
fn find_workspace_root() -> Option<PathBuf> {
    let mut dir = env::current_dir().ok()?;
    loop {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn print_usage() {
    eprintln!(
        "usage: sim-lint --workspace [--json] [--sarif PATH] [--root PATH]\n\
         \n\
         Statically enforces the simulator contracts rustc and clippy cannot:\n\
         panic-reachability, checker-parity, metric-registry, cycle-arith.\n\
         See docs/lints.md for the catalog and the toolchain lint table.\n\
         Exit 0 = clean, 1 = violations, 2 = internal error."
    );
}
