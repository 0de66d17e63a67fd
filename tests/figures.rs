//! The `figures` driver: the figures that need no simulation render
//! byte-identical to the committed `results/` files, and bad command lines
//! are rejected with a message instead of silently falling back to
//! defaults.

use std::fs;

use bench::{parse_args, ExperimentConfig, ReportStore, FIGURES};

fn committed(file: &str) -> String {
    let path = format!("{}/results/{file}", env!("CARGO_MANIFEST_DIR"));
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|a| a.to_string()).collect()
}

#[test]
fn static_figures_match_the_committed_results() {
    let (mut store, cfg) = (ReportStore::new(), ExperimentConfig::quick());
    let mut files = Vec::new();
    for name in ["table2", "table3", "fig07", "fig09"] {
        let figure = FIGURES.iter().find(|f| f.name == name).unwrap();
        assert!((figure.runs)(&cfg).is_empty(), "{name} declares no runs");
        files.extend((figure.render)(&mut store, &cfg).unwrap());
    }
    let names: Vec<&str> = files.iter().map(|(file, _)| *file).collect();
    assert_eq!(
        names.join(" "),
        "table2.txt table3.txt fig07.txt fig09.txt fig09.svg"
    );
    for (file, contents) in &files {
        assert!(
            *contents == committed(file),
            "results/{file} is stale; regenerate it with the figures driver"
        );
    }
    assert_eq!(store.simulations(), 0, "static figures simulate nothing");
}

#[test]
fn default_and_selected_figures() {
    let defaults = parse_args(&[]).unwrap();
    assert_eq!(
        defaults.cfg.instructions,
        ExperimentConfig::figure().instructions
    );
    assert_eq!(defaults.figures.len(), FIGURES.len());
    assert_eq!(defaults.jobs, 0, "one thread per available CPU");
    let selected = parse_args(&args(&[
        "--only",
        "fig13,table1",
        "--jobs",
        "3",
        "50000",
        "7",
    ]))
    .unwrap();
    assert_eq!((selected.cfg.instructions, selected.cfg.seed), (50_000, 7));
    assert_eq!(selected.jobs, 3);
    let names: Vec<&str> = selected.figures.iter().map(|f| f.name).collect();
    assert_eq!(
        names,
        ["table1", "fig13"],
        "selection keeps the suite's order"
    );
}

#[test]
fn malformed_job_count_is_rejected() {
    for bad in [&["--jobs"][..], &["--jobs", "0"], &["--jobs", "two"]] {
        let err = parse_args(&args(bad)).unwrap_err();
        assert!(
            err.contains("--jobs needs a positive number"),
            "{bad:?}: {err}"
        );
    }
}

#[test]
fn malformed_instruction_count_is_rejected() {
    for bad in ["20k", "-1", "0"] {
        let err = parse_args(&args(&[bad])).unwrap_err();
        assert!(err.contains("invalid instruction count"), "{bad}: {err}");
    }
}

#[test]
fn malformed_seed_is_rejected() {
    let err = parse_args(&args(&["200000", "seven"])).unwrap_err();
    assert!(err.contains("invalid seed \"seven\""), "{err}");
    let err = parse_args(&args(&["200000", "7", "8"])).unwrap_err();
    assert!(err.contains("unexpected argument \"8\""), "{err}");
}

#[test]
fn unknown_figure_name_is_rejected_with_the_valid_names() {
    let err = parse_args(&args(&["--only", "fig12,fig99"])).unwrap_err();
    assert!(err.contains("unknown figure \"fig99\""), "{err}");
    assert!(err.contains("valid: table1, table2"), "{err}");
    assert!(
        parse_args(&args(&["--only"])).is_err(),
        "--only needs a list"
    );
}
