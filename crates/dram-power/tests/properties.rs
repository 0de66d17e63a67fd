//! Randomized property tests of the power models: accounting linearity,
//! monotonicity of the activation-energy curve, and breakdown consistency.
//!
//! Formerly driven by proptest; now deterministic seeded sweeps over the
//! in-repo [`mem_model::rng`] PRNG so the suite builds and runs offline.

use dram_power::{
    ActivationEnergyModel, EnergyAccounting, EnergyBreakdown, PowerParams, RankPowerState,
};
use mem_model::rng::Rng;

#[derive(Debug, Clone, Copy)]
enum Event {
    Act(u32),
    ActMats(u32),
    Read,
    Write(u8),
    Bg(u8),
    Refresh,
}

fn random_event(rng: &mut Rng) -> Event {
    match rng.random_range(0u8..6) {
        0 => Event::Act(rng.random_range(1u32..9)),
        1 => Event::ActMats(rng.random_range(1u32..17)),
        2 => Event::Read,
        3 => Event::Write(rng.random_range(1u8..9)),
        4 => Event::Bg(rng.random_range(0u8..3)),
        _ => Event::Refresh,
    }
}

fn random_events(rng: &mut Rng, max_len: usize) -> Vec<Event> {
    let len = rng.random_range(0usize..max_len);
    (0..len).map(|_| random_event(rng)).collect()
}

/// Applies `e` at cycle `*now`; a background event advances the clock by
/// one cycle with rank 0 in the given state.
fn apply(acc: &mut EnergyAccounting, e: Event, now: &mut u64) {
    match e {
        Event::Act(g) => acc.activation(g),
        Event::ActMats(m) => acc.activation_mats(m),
        Event::Read => acc.read_line(),
        Event::Write(words) => acc.write_line(f64::from(words) / 8.0),
        Event::Bg(state) => {
            let state = match state {
                0 => RankPowerState::ActiveStandby,
                1 => RankPowerState::PrechargeStandby,
                _ => RankPowerState::PowerDown,
            };
            acc.set_rank_state(0, state, *now);
            *now += 1;
            acc.settle(*now);
        }
        Event::Refresh => acc.refresh(),
    }
}

fn total(events: &[Event]) -> EnergyBreakdown {
    let mut acc = EnergyAccounting::new(PowerParams::paper_table3(), 4);
    let mut now = 0;
    for &e in events {
        apply(&mut acc, e, &mut now);
    }
    acc.breakdown()
}

/// Energy accounting is additive: processing a concatenated stream equals
/// the sum of processing its halves separately.
#[test]
fn accounting_is_additive() {
    let mut rng = Rng::seed_from_u64(0x6164_6431);
    for _ in 0..64 {
        let a = random_events(&mut rng, 50);
        let b = random_events(&mut rng, 50);
        let joint = total(&a.iter().chain(&b).copied().collect::<Vec<_>>());
        let split = total(&a) + total(&b);
        for (x, y) in joint
            .to_power(1.0)
            .components()
            .iter()
            .zip(split.to_power(1.0).components())
        {
            assert!((x - y).abs() < 1e-6, "{x} vs {y}");
        }
    }
}

/// Event order never matters (each event contributes independently).
#[test]
fn accounting_is_order_invariant() {
    let mut rng = Rng::seed_from_u64(0x6f72_6465);
    for _ in 0..64 {
        let events = random_events(&mut rng, 60);
        let forward = total(&events);
        let mut reversed = events.clone();
        reversed.reverse();
        let backward = total(&reversed);
        assert!((forward.total() - backward.total()).abs() < 1e-6);
        assert!((forward.act_pre - backward.act_pre).abs() < 1e-6);
        assert!((forward.io() - backward.io()).abs() < 1e-6);
    }
}

/// Activation energy is strictly monotone in MATs and bounded by the
/// full-row value. Exhaustive over the MAT range.
#[test]
fn activation_energy_monotone() {
    for m in 1u32..16 {
        let mut lo = EnergyAccounting::new(PowerParams::paper_table3(), 2);
        lo.activation_mats(m);
        let mut hi = EnergyAccounting::new(PowerParams::paper_table3(), 2);
        hi.activation_mats(m + 1);
        assert!(lo.breakdown().act_pre < hi.breakdown().act_pre);
        let mut full = EnergyAccounting::new(PowerParams::paper_table3(), 2);
        full.activation_mats(16);
        assert!(hi.breakdown().act_pre <= full.breakdown().act_pre + 1e-12);
    }
}

/// Write I/O energy scales exactly linearly in the transferred words.
/// Exhaustive over the word count.
#[test]
fn write_io_linear_in_words() {
    for words in 1u8..=8 {
        let mut one = EnergyAccounting::new(PowerParams::paper_table3(), 2);
        one.write_line(1.0 / 8.0);
        let mut many = EnergyAccounting::new(PowerParams::paper_table3(), 2);
        many.write_line(f64::from(words) / 8.0);
        let ratio = many.breakdown().wr_io / one.breakdown().wr_io;
        assert!((ratio - f64::from(words)).abs() < 1e-9);
        // Core write energy is flat.
        assert!((many.breakdown().wr - one.breakdown().wr).abs() < 1e-12);
    }
}

/// The CACTI scaling factor is within (0, 1] and increasing. Exhaustive.
#[test]
fn cacti_scaling_behaves() {
    let model = ActivationEnergyModel::paper_table2();
    for m in 1u32..=16 {
        let s = model.scaling_factor(m);
        assert!(s > 0.0 && s <= 1.0);
        if m < 16 {
            assert!(s < model.scaling_factor(m + 1));
        }
        // Shared energy puts a floor under the curve.
        assert!(s > model.shared_energy_pj() / model.full_row_energy_pj());
    }
}

/// Power conversion and energy agree for any elapsed time.
#[test]
fn power_times_time_is_energy() {
    let mut rng = Rng::seed_from_u64(0x7077_7274);
    for _ in 0..64 {
        let events = {
            let mut ev = random_events(&mut rng, 40);
            if ev.is_empty() {
                ev.push(Event::Read);
            }
            ev
        };
        let elapsed = 1.0 + rng.random_f64() * (1e9 - 1.0);
        let e = total(&events);
        let p = e.to_power(elapsed);
        assert!((p.total() * elapsed - e.total()).abs() / e.total().max(1.0) < 1e-9);
    }
}
