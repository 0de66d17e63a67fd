//! Every simulation is one operation. It fails when it errs or times out,
//! when its report breaks an invariant the simulator keeps, or when its
//! state digest differs from an earlier repetition of the same simulation
//! in this process.

use std::collections::HashMap;

use pra_core::Report;

/// Counts operations and failures across one benchmark process.
#[derive(Debug, Default)]
pub struct Checker {
    pub attempted: u64,
    pub failed: u64,
    digests: HashMap<String, u64>,
}

impl Checker {
    /// Checks one finished simulation. `key` names the simulation (the
    /// same key on a later repetition must give the same digest); `cores`
    /// is how many cores it ran.
    pub fn check(&mut self, key: &str, cores: usize, outcome: Result<&Report, String>) {
        let verdict = outcome.and_then(|report| {
            invariants(report, cores)?;
            let digest = report.state_digest();
            match self.digests.get(key) {
                Some(&first) if first != digest => Err(format!(
                    "state digest {digest:#018x} differs from the earlier repetition's {first:#018x}"
                )),
                Some(_) => Ok(()),
                None => {
                    self.digests.insert(key.to_string(), digest);
                    Ok(())
                }
            }
        });
        self.attempted += 1;
        if let Err(why) = verdict {
            self.failed += 1;
            eprintln!("perfbench: FAILED {key}: {why}");
        }
    }
}

/// The report invariants that hold for every simulation this benchmark
/// runs. A run that does not time out has retired every core's target
/// (the run loop only ends early on its cycle cap).
fn invariants(report: &Report, cores: usize) -> Result<(), String> {
    if report.timed_out {
        return Err("hit its cycle cap before every core retired its target".into());
    }
    if report.ipc.len() != cores || report.ipc.iter().any(|&ipc| !positive(ipc)) {
        return Err(format!("per-core IPC {:?} for {cores} cores", report.ipc));
    }
    let histogram: u64 = report.dram.act_histogram.iter().sum();
    if histogram != report.dram.activations {
        return Err(format!(
            "activation histogram sums to {histogram}, activations = {}",
            report.dram.activations
        ));
    }
    let e = &report.energy;
    let total = e.total();
    let components = [e.act_pre, e.rd, e.wr, e.rd_io, e.wr_io, e.bg, e.refresh];
    let sum: f64 = components.iter().sum();
    let from_power = report.power.total() * report.runtime_ns;
    let close = |x: f64| (x - total).abs() <= 1e-9 * total;
    if !positive(total) || components.iter().any(|&c| c < 0.0) || !close(sum) || !close(from_power)
    {
        return Err(format!(
            "energy components {components:?} sum to {sum} pJ and power x time to \
             {from_power} pJ, total {total} pJ"
        ));
    }
    Ok(())
}

/// `x > 0` and finite (a NaN IPC or energy fails it).
fn positive(x: f64) -> bool {
    x.is_finite() && x > 0.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use pra_core::{Scheme, SimBuilder};

    fn tiny_report() -> Report {
        SimBuilder::new()
            .app(workloads::gups())
            .scheme(Scheme::Pra)
            .instructions(2_000)
            .warmup_mem_ops(2_000)
            .run()
    }

    #[test]
    fn a_failing_check_is_a_failed_operation_not_a_crash() {
        let good = tiny_report();
        let mut checker = Checker::default();
        checker.check("gups", 1, Ok(&good));
        assert_eq!((checker.attempted, checker.failed), (1, 0));

        let mut broken = good.clone();
        broken.dram.act_histogram[0] += 1;
        checker.check("broken-histogram", 1, Ok(&broken));

        let mut drifted = good.clone();
        drifted.cpu_cycles += 1;
        checker.check("gups", 1, Ok(&drifted));

        let mut slow = good.clone();
        slow.timed_out = true;
        checker.check("slow", 1, Ok(&slow));

        let mut leaky = good.clone();
        leaky.energy.bg *= 2.0;
        checker.check("leaky", 1, Ok(&leaky));

        checker.check("wrong-core-count", 4, Ok(&good));
        checker.check("error", 1, Err("no applications".into()));
        assert_eq!((checker.attempted, checker.failed), (7, 6));
    }
}
