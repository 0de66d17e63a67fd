//! Golden state digests: short MIX2 runs of every scheme under every page
//! policy, plus the chaos fault plan with recovery for the PRA variants,
//! must reproduce the pinned `Report::state_digest` values exactly.
//!
//! A digest covers every statistic the report carries (DRAM command and
//! hit counts, energy, per-core IPC, cache, fault and recovery counters),
//! so a changed scheduling decision moves at least one of them. A change
//! meant to alter behaviour must re-pin the table; the failure message
//! prints the full table of observed values.

use pra_repro::{FaultPlan, PagePolicy, Scheme, SimBuilder};

const INSTRUCTIONS: u64 = 10_000;
const WARMUP_MEM_OPS: u64 = 20_000;

const POLICIES: [PagePolicy; 3] = [
    PagePolicy::RelaxedClosePage,
    PagePolicy::RestrictedClosePage,
    PagePolicy::OpenPage,
];

/// `(scheme, policy, chaos, digest)`.
const GOLDEN: &[(&str, &str, bool, u64)] = &[
    ("baseline", "relaxed", false, 0xcb167f0aa5772b2f),
    ("baseline", "restricted", false, 0x82015d4c422dad4b),
    ("baseline", "open", false, 0x4239157f355d6ea8),
    ("fga", "relaxed", false, 0x1f9e0b6b7b2f0fbc),
    ("fga", "restricted", false, 0xe0e3dc34f1a1040b),
    ("fga", "open", false, 0x351cd6300ff6caca),
    ("half-dram", "relaxed", false, 0x54f15368864f7524),
    ("half-dram", "restricted", false, 0xd7a3a742fa27766f),
    ("half-dram", "open", false, 0xeb292bb5dba85869),
    ("pra", "relaxed", false, 0xb7e26b3eac0df019),
    ("pra", "restricted", false, 0x10ca1988bd4f704a),
    ("pra", "open", false, 0x09ec5ba1d9a24ede),
    ("half-dram-pra", "relaxed", false, 0x31a0e9161b31e4b9),
    ("half-dram-pra", "restricted", false, 0x7f74cd0046c7e9c3),
    ("half-dram-pra", "open", false, 0xc0bd5f6f7bd08b39),
    ("dbi", "relaxed", false, 0xdfbef59557d4ac18),
    ("dbi", "restricted", false, 0x1b131e3af2e95665),
    ("dbi", "open", false, 0x926eebbbf31d3e45),
    ("dbi-pra", "relaxed", false, 0xe58b38801269977a),
    ("dbi-pra", "restricted", false, 0x8ddbc46159629ada),
    ("dbi-pra", "open", false, 0x96e79c815092683a),
    ("pra", "relaxed", true, 0xd0238965f99141ac),
    ("dbi-pra", "relaxed", true, 0x9a6dc5d32f793276),
];

fn mix2() -> SimBuilder {
    let mix = workloads::all_mixes()
        .into_iter()
        .find(|m| m.name == "MIX2")
        .expect("MIX2 is a Table 4 mix");
    SimBuilder::new()
        .mix(mix.apps)
        .instructions(INSTRUCTIONS)
        .warmup_mem_ops(WARMUP_MEM_OPS)
        .seed(1)
}

fn chaos_plan() -> FaultPlan {
    FaultPlan::from_toml_str(include_str!("../docs/faults/chaos.toml")).expect("chaos plan parses")
}

#[test]
fn state_digests_match_the_pinned_table() {
    let mut observed: Vec<(&str, &str, bool, u64)> = Vec::new();
    for scheme in Scheme::ALL {
        for policy in POLICIES {
            let report = mix2().scheme(scheme).policy(policy).run();
            observed.push((
                scheme.cli_name(),
                policy.cli_name(),
                false,
                report.state_digest(),
            ));
        }
    }
    for scheme in [Scheme::Pra, Scheme::DbiPra] {
        let report = mix2()
            .scheme(scheme)
            .faults(chaos_plan())
            .recovery(pra_repro::dram_sim::RecoveryConfig::default())
            .run();
        assert!(
            report.recovery.engaged(),
            "{}: chaos plan must raise alerts",
            scheme.cli_name()
        );
        observed.push((
            scheme.cli_name(),
            PagePolicy::RelaxedClosePage.cli_name(),
            true,
            report.state_digest(),
        ));
    }
    let table: String = observed
        .iter()
        .map(|(s, p, c, d)| format!("    ({s:?}, {p:?}, {c}, 0x{d:016x}),\n"))
        .collect();
    assert_eq!(
        observed.as_slice(),
        GOLDEN,
        "state digests moved; observed table:\n{table}"
    );
}

/// FNV-1a over the checkpoints a chaos PRA run leaves behind, in cycle
/// order, without and with the protocol checker (whose state is part of
/// the snapshot). Pinned so that the snapshot format, and with it the
/// restorability of checkpoints written by earlier builds, cannot drift
/// unnoticed.
const GOLDEN_CHECKPOINT_BYTES: [u64; 2] = [0x5ec8cbee5c5da681, 0xb6f683744e6897e2];

#[test]
fn checkpoint_bytes_match_the_pinned_hash() {
    let dir = std::env::temp_dir().join(format!("pra-golden-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let report = mix2()
        .scheme(Scheme::Pra)
        .faults(chaos_plan())
        .recovery(pra_repro::dram_sim::RecoveryConfig::default())
        .checkpoint_every(5_000)
        .checkpoint_dir(&dir)
        .run();
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("checkpoint dir exists")
        .map(|e| e.expect("readable entry").path())
        .collect();
    files.sort();
    assert!(!files.is_empty(), "the run must write a checkpoint");
    let mut bytes = Vec::new();
    for f in &files {
        bytes.extend(std::fs::read(f).expect("readable checkpoint"));
    }
    let _ = std::fs::remove_dir_all(&dir);
    let hash = sim_snap::codec::fnv1a_64(&bytes);
    assert_eq!(
        (report.state_digest(), hash),
        (
            0xd0238965f99141ac,
            GOLDEN_CHECKPOINT_BYTES[usize::from(pra_repro::dram_sim::verify_protocol_default())]
        ),
        "checkpoint bytes moved: {} files, hash 0x{hash:016x}",
        files.len()
    );
}
