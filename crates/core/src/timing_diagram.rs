//! Reproduction of the paper's **Figure 7**: the command/cycle timing of a
//! partial row activation versus a conventional full activation.
//!
//! The diagram is derived analytically from [`TimingParams`] so it can be
//! cross-checked against what the cycle-level simulator actually does (the
//! `timing_edges` integration tests assert the same cycle counts).

use dram_sim::TimingParams;

/// One labelled event on the command/data timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimingEvent {
    /// Cycle relative to the activation command.
    pub cycle: u64,
    /// Bus the event occupies.
    pub bus: Bus,
    /// Label (e.g. `ACT`, `PRA mask`, `WR`, `data x8`, `PRE`).
    pub label: String,
}

/// Which bus an event appears on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bus {
    /// Command/address bus.
    Command,
    /// Data bus (DQ).
    Data,
}

/// The Figure 7 timeline for a write, either partial (7a) or full (7b).
pub fn write_timeline(t: &TimingParams, partial: bool) -> Vec<TimingEvent> {
    let mut events = Vec::new();
    let mut push = |cycle: u64, bus: Bus, label: &str| {
        events.push(TimingEvent {
            cycle,
            bus,
            label: label.to_string(),
        });
    };
    push(
        0,
        Bus::Command,
        if partial {
            "ACT (PRA# low)"
        } else {
            "ACT (PRA# high)"
        },
    );
    let extra = if partial {
        push(1, Bus::Command, "PRA mask on address bus");
        1
    } else {
        0
    };
    let write_at = t.trcd + extra;
    push(write_at, Bus::Command, "WR");
    let burst_start = write_at + t.wl;
    for beat in 0..t.burst_cycles {
        push(burst_start + beat, Bus::Data, "data");
    }
    let burst_end = burst_start.saturating_add(t.burst_cycles);
    let pre_at = (burst_end + t.twr).max(t.tras);
    push(pre_at, Bus::Command, "PRE");
    events
}

/// The Figure 7(b)-style timeline for a read (always a full activation).
pub fn read_timeline(t: &TimingParams) -> Vec<TimingEvent> {
    let mut events = Vec::new();
    let mut push = |cycle: u64, bus: Bus, label: &str| {
        events.push(TimingEvent {
            cycle,
            bus,
            label: label.to_string(),
        });
    };
    push(0, Bus::Command, "ACT (PRA# high)");
    push(t.trcd, Bus::Command, "RD");
    let burst_start = t.trcd + t.tcas;
    for beat in 0..t.burst_cycles {
        push(burst_start + beat, Bus::Data, "data");
    }
    events
}

/// Renders a timeline as an ASCII diagram (one row per bus).
pub fn render(events: &[TimingEvent]) -> String {
    let last = events.iter().map(|e| e.cycle).max().unwrap_or(0);
    let width = (last + 1) as usize;
    let mut cmd = vec!['.'; width];
    let mut data = vec!['.'; width];
    let mut labels = Vec::new();
    for event in events {
        let row = match event.bus {
            Bus::Command => &mut cmd,
            Bus::Data => &mut data,
        };
        let marker = event.label.chars().next().unwrap_or('?');
        row[event.cycle as usize] = if event.label == "data" { '#' } else { marker };
        if event.label != "data" {
            labels.push(format!("  cycle {:>3}: {}", event.cycle, event.label));
        }
    }
    let mut out = String::new();
    out.push_str("CMD  ");
    out.extend(cmd);
    out.push('\n');
    out.push_str("DQ   ");
    out.extend(data);
    out.push('\n');
    for label in labels {
        out.push_str(&label);
        out.push('\n');
    }
    out
}

/// Cycle of the first `label` event. `write_timeline` emits WR, data and
/// PRE events unconditionally, so a miss here is a construction bug.
#[expect(
    clippy::panic,
    reason = "write_timeline emits every label this is called with; absence is a construction bug worth aborting on"
)]
fn cycle_of(timeline: &[TimingEvent], label: &str) -> u64 {
    timeline
        .iter()
        .find(|e| e.label == label)
        .unwrap_or_else(|| panic!("timeline is missing a {label} event"))
        .cycle
}

/// Key latencies of the Figure 7 cases, for tests and the bin's summary:
/// `(write_cmd_at, data_start, precharge_at)`.
pub fn write_latencies(t: &TimingParams, partial: bool) -> (u64, u64, u64) {
    let timeline = write_timeline(t, partial);
    (
        cycle_of(&timeline, "WR"),
        cycle_of(&timeline, "data"),
        cycle_of(&timeline, "PRE"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> TimingParams {
        TimingParams::ddr3_1600_table3()
    }

    #[test]
    fn partial_write_is_delayed_by_one_cycle() {
        // Fig. 7(a): column command at tRCD + tCK, not tRCD.
        let (wr_partial, data_partial, _) = write_latencies(&t(), true);
        let (wr_full, data_full, _) = write_latencies(&t(), false);
        assert_eq!(wr_partial, t().trcd + 1);
        assert_eq!(wr_full, t().trcd);
        assert_eq!(data_partial, wr_partial + t().wl);
        assert_eq!(data_full, wr_full + t().wl);
    }

    #[test]
    fn precharge_respects_twr_and_tras() {
        let (_, data, pre) = write_latencies(&t(), true);
        let burst_end = data + t().burst_cycles;
        assert_eq!(pre, (burst_end + t().twr).max(t().tras));
        assert!(pre >= t().tras, "tRAS lower-bounds the precharge");
    }

    #[test]
    fn read_timeline_matches_simulator_latency() {
        // The simulator's lone-read completion (tRCD + CL + burst, asserted
        // in dram-sim's tests as cycle 26) equals this timeline's data end.
        let timeline = read_timeline(&t());
        let data_end = timeline
            .iter()
            .filter(|e| e.label == "data")
            .map(|e| e.cycle)
            .max();
        assert_eq!(data_end, Some(t().trcd + t().tcas + t().burst_cycles - 1));
    }

    #[test]
    fn mask_event_only_on_partial() {
        let partial = write_timeline(&t(), true);
        let full = write_timeline(&t(), false);
        assert!(partial.iter().any(|e| e.label.contains("mask")));
        assert!(!full.iter().any(|e| e.label.contains("mask")));
    }

    #[test]
    fn render_produces_two_rows() {
        let text = render(&write_timeline(&t(), true));
        assert!(text.starts_with("CMD  "));
        assert!(text.contains("\nDQ   "));
        assert!(text.contains("PRA mask"));
        assert!(text.contains('#'), "data beats are drawn");
    }
}
