//! Microbenchmarks of the power and energy models: per-event accounting
//! cost and the analytic activation-energy model.
//!
//! Manual harness (no criterion -- the workspace builds offline); run with
//! `cargo bench -p bench --bench power_model`.

use bench::timing::bench;
use dram_power::{ActivationEnergyModel, EnergyAccounting, PowerParams, RankPowerState};

fn bench_energy_accounting() {
    bench("energy_accounting/mixed_events", 100_000, 2, 20, || {
        let mut acc = EnergyAccounting::new(PowerParams::paper_table3(), 4);
        for i in 0..100_000u64 {
            match i % 5 {
                0 => acc.activation(((i % 8) + 1) as u32),
                1 => acc.read_line(),
                2 => acc.write_line(((i % 8) as f64 + 1.0) / 8.0),
                // Rank 0 changes state every ten cycles, charging the run
                // of background cycles before each change.
                3 if i % 10 == 3 => acc.set_rank_state(0, RankPowerState::ActiveStandby, i),
                3 => acc.set_rank_state(0, RankPowerState::PrechargeStandby, i),
                _ => acc.set_rank_state(1, RankPowerState::PowerDown, i),
            }
        }
        acc.breakdown_at(100_000).total()
    });
}

fn bench_activation_energy_model() {
    let model = ActivationEnergyModel::paper_table2();
    bench("activation_energy_model/figure9_series", 16, 5, 20, || {
        model.figure9_series()
    });
}

fn main() {
    bench_energy_accounting();
    bench_activation_energy_model();
}
