//! End-to-end campaign demo: a 26-run matrix with one panicking and one
//! hanging fixture, journaled resume, and corrupt-tail tolerance.

use std::path::PathBuf;

use sim_harness::{load_journal, run_campaign, Campaign, CampaignOptions, RunStatus};

const DEMO_MATRIX: &str = r#"
    [campaign]
    schemes = ["baseline", "pra"]
    workloads = ["GUPS", "lbm", "libquantum"]
    seeds = [1, 2, 3, 4]
    instructions = 300
    warmup = 1000
    determinism_sample = 8
    include_panic_fixture = true
    include_hang_fixture = true
"#;

fn temp_journal(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("sim_harness_campaign_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    let _ = std::fs::remove_file(&path);
    path
}

#[test]
fn demo_campaign_survives_fixtures_and_resumes_idempotently() {
    let campaign = Campaign::from_toml_str(DEMO_MATRIX).unwrap();
    let journal = temp_journal("demo.jsonl");
    let options = CampaignOptions {
        jobs: 0,
        journal: journal.clone(),
        resume: false,
    };

    // 2 schemes x 3 workloads x 4 seeds + panic fixture + hang fixture.
    let summary = run_campaign(&campaign, &options).unwrap();
    assert_eq!(summary.total, 26);
    assert_eq!(summary.ok, 24);
    assert_eq!(
        summary.failed, 1,
        "the panic fixture must journal as failed"
    );
    assert_eq!(summary.hung, 1, "the hang fixture must journal as hung");
    assert_eq!(summary.skipped, 0);
    assert!(summary.determinism_checked >= 2);
    assert_eq!(summary.determinism_mismatches, 0);
    assert!(summary.has_failures());

    // Both failures carry a repro line; the hung one names its victim.
    assert_eq!(summary.failures.len(), 2);
    let hung = summary
        .failures
        .iter()
        .find(|f| f.status == RunStatus::Hung)
        .unwrap();
    assert!(
        hung.detail.contains("liveness violation"),
        "{}",
        hung.detail
    );
    assert!(hung.detail.contains("oldest pending"), "{}", hung.detail);
    assert!(
        hung.repro.contains("--watchdog-no-retire 20"),
        "{}",
        hung.repro
    );
    let failed = summary
        .failures
        .iter()
        .find(|f| f.status == RunStatus::Failed)
        .unwrap();
    assert!(
        failed.detail.contains("synthetic panic fixture"),
        "{}",
        failed.detail
    );

    // Metrics mirror the counters.
    assert_eq!(summary.metrics.counter_value("campaign.runs_ok"), Some(24));
    assert_eq!(
        summary.metrics.counter_value("campaign.runs_failed"),
        Some(1)
    );
    assert_eq!(summary.metrics.counter_value("campaign.runs_hung"), Some(1));
    assert_eq!(
        summary.metrics.counter_value("campaign.runs_skipped"),
        Some(0)
    );
    let hist = summary
        .metrics
        .histogram_value("campaign.run_cycles")
        .unwrap();
    assert_eq!(hist.count(), 24);

    // Every run — including both failures — is journaled exactly once.
    let loaded = load_journal(&journal).unwrap();
    assert_eq!(loaded.records.len(), 26);
    assert_eq!(loaded.dropped_lines, 0);
    assert_eq!(
        loaded.completed_keys().len(),
        26,
        "every run has its own key"
    );
    let render = summary.render();
    assert!(render.contains("26 runs"), "{render}");
    assert!(render.contains("repro:"), "{render}");

    // Resume skips everything (failed runs are not silently retried) and
    // leaves the journal byte-identical: resuming twice is idempotent.
    let before = std::fs::metadata(&journal).unwrap().len();
    let resume_options = CampaignOptions {
        jobs: 2,
        journal: journal.clone(),
        resume: true,
    };
    let resumed = run_campaign(&campaign, &resume_options).unwrap();
    assert_eq!(resumed.skipped, 26);
    assert_eq!(resumed.ok + resumed.failed + resumed.hung, 0);
    assert_eq!(
        resumed.metrics.counter_value("campaign.runs_skipped"),
        Some(26)
    );
    let second = run_campaign(&campaign, &resume_options).unwrap();
    assert_eq!(second.skipped, 26);
    assert_eq!(std::fs::metadata(&journal).unwrap().len(), before);

    std::fs::remove_file(&journal).unwrap();
}

#[test]
fn resume_reexecutes_only_the_truncated_tail() {
    let matrix = r#"
        schemes = ["baseline"]
        workloads = ["GUPS"]
        seeds = [1, 2, 3]
        instructions = 300
        warmup = 1000
    "#;
    let campaign = Campaign::from_toml_str(matrix).unwrap();
    let journal = temp_journal("truncated.jsonl");
    let options = CampaignOptions {
        jobs: 1,
        journal: journal.clone(),
        resume: false,
    };
    let first = run_campaign(&campaign, &options).unwrap();
    assert_eq!(first.ok, 3);

    // Chop the final line in half — the kill-mid-write artifact.
    let text = std::fs::read_to_string(&journal).unwrap();
    let keep: Vec<&str> = text.lines().collect();
    let truncated = format!(
        "{}\n{}\n{}",
        keep[0],
        keep[1],
        &keep[2][..keep[2].len() / 2]
    );
    std::fs::write(&journal, truncated).unwrap();

    let resume_options = CampaignOptions {
        jobs: 1,
        journal: journal.clone(),
        resume: true,
    };
    let resumed = run_campaign(&campaign, &resume_options).unwrap();
    assert_eq!(resumed.skipped, 2, "intact records must be skipped");
    assert_eq!(resumed.ok, 1, "the truncated run must re-execute");

    // The journal is whole again: 2 intact + 1 garbage tail + 1 re-run.
    let loaded = load_journal(&journal).unwrap();
    assert_eq!(loaded.records.len(), 3);
    assert_eq!(loaded.dropped_lines, 1);
    std::fs::remove_file(&journal).unwrap();
}
