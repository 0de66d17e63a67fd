//! A minimal manual-timing harness for the `benches/` binaries.
//!
//! The workspace builds offline, so instead of criterion the benchmarks
//! use this: warm up, run a fixed number of timed iterations, report the
//! median wall-clock per iteration and derived element throughput. Results
//! are printed as aligned text, one line per benchmark. The repository's
//! end-to-end and per-layer host-performance benchmark is `perfbench/`.

use std::hint::black_box;
use std::time::Instant;

/// Runs `f` `iters` times after `warmup` untimed runs and reports the
/// median iteration time (upper median for even counts); `elements` is the
/// per-iteration work unit count used for the throughput column. The
/// closure's return value is [`black_box`]ed so the work is not optimised
/// away.
pub fn bench<T>(name: &str, elements: u64, warmup: u32, iters: u32, mut f: impl FnMut() -> T) {
    assert!(iters > 0, "need at least one timed iteration");
    for _ in 0..warmup {
        black_box(f());
    }
    let mut ns: Vec<u128> = (0..iters)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed().as_nanos()
        })
        .collect();
    ns.sort_unstable();
    let median = ns[ns.len() / 2];
    let per_elem = median as f64 / elements as f64;
    let throughput = if median > 0 {
        elements as f64 * 1e9 / median as f64
    } else {
        f64::NAN
    };
    println!(
        "{name:<44} {:>10.3} ms/iter {per_elem:>9.1} ns/elem {:>12.0} elem/s",
        median as f64 / 1e6,
        throughput
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_runs_closure_expected_times() {
        let mut calls = 0u32;
        bench("noop", 1, 2, 3, || calls += 1);
        assert_eq!(calls, 5);
    }
}
