//! DDR3 power, energy and area models for the PRA reproduction.
//!
//! Three models live here, mirroring Section 5.1.1 of the paper:
//!
//! * [`PowerParams`] / [`IddParams`] — the Micron-calculator-style component
//!   power parameters of Table 3, including the per-granularity row
//!   activation power array and the Eq. (1)/(2) derivation of `P_ACT` from
//!   IDD currents.
//! * [`ActivationEnergyModel`] — the CACTI-3DD-style activation energy
//!   breakdown of Table 2, from which Figure 9's energy-vs-MATs curve and the
//!   granularity scaling factors follow.
//! * [`EnergyAccounting`] — the event-driven accumulator the simulator feeds
//!   (activations by granularity, read/write line transfers, per-cycle
//!   background state, refreshes) and that produces the
//!   [`EnergyBreakdown`]/[`PowerBreakdown`] used by Figures 2 and 12.
//!
//! Hardware overhead estimates from Section 4.2 (PRA latches, FGD bits,
//! wordline gates) are in [`overheads`].
//!
//! Unit conventions: power in **milliwatts**, time in **nanoseconds**, energy
//! in **picojoules** (conveniently, `1 mW x 1 ns = 1 pJ`).
//!
//! # Example
//!
//! ```
//! use dram_power::{EnergyAccounting, PowerParams, RankPowerState};
//!
//! let params = PowerParams::paper_table3();
//! let mut acc = EnergyAccounting::new(params, 4); // 4 ranks in the system
//! acc.activation(8); // one full-row activation+precharge pair
//! acc.activation(1); // one 1/8-row PRA activation
//! acc.read_line();
//! acc.write_line(0.25); // PRA write transferring 2 of 8 words
//! acc.set_rank_state(0, RankPowerState::ActiveStandby, 0); // rank 0 active from cycle 0
//! acc.refresh();
//! let breakdown = acc.breakdown_at(100); // background charged for cycles 0..100
//! assert!(breakdown.act_pre > 0.0 && breakdown.total() > breakdown.act_pre);
//! ```

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]
#![warn(missing_docs)]

mod accounting;
mod activation_energy;
mod breakdown;
pub mod overheads;
mod params;
mod telemetry;

pub use accounting::{EnergyAccounting, RankPowerState, MAT_GRANULARITIES};
pub use activation_energy::{ActivationEnergyModel, Figure9Point};
pub use breakdown::{EnergyBreakdown, PowerBreakdown};
pub use params::{DevicePowerTimings, IddParams, PowerParams};
pub use telemetry::{PowerRail, RankResidency, ResidencyLedger, MAX_BANKS};
