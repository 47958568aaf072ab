//! The repository benchmark: one seeded workload per run against the
//! public planning and serving API (`Planner`, `PlanService`,
//! `PlanRegistry`, `PlanServer` over loopback HTTP).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <hot-http|cold-solve|restart-warm|plan-build> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! An untraced run (`--trace 0`) prints the end-to-end metrics; a traced
//! run (`--trace 1`) measures the same workload untraced and then traced
//! (half the time each), probes each layer's public functions on the
//! workload's own inputs, writes its spans to
//! `.perfbench/traces/<workload>.jsonl`, and prints the
//! per-layer metrics. Every response is checked against a reference
//! rendered from a direct `Planner` call; the last stdout line is the
//! JSON result, and any failed check makes the exit code non-zero.
//! `perfbench/README.md` gives the workloads and the layer → metric →
//! workload map.

mod alloc;
mod client;
mod fixture;
mod loadgen;
mod probes;
mod report;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Errors that end a run before it can report (setup or I/O failures).
pub type Res<T> = Result<T, String>;

/// The command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Which workload.
    pub workload: workloads::Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: u64,
    /// Per-layer (traced) run instead of end-to-end.
    pub trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Res<Args> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workloads::Workload::parse(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    alloc::exclude_this_thread();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match workloads::run(&args) {
        Ok(report) => {
            for v in &report.violations {
                eprintln!("perfbench: check failed: {v}");
            }
            let (facts, result, correct) = report.render(args.trace);
            println!("{facts}");
            println!("{result}");
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Res<Args> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn flags_parse_and_bad_ones_are_refused() {
        let a = args("--workload cold-solve --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3, true));
        assert!(args("--workload nope --seed 1").is_err());
        assert!(args("--workload hot-http").is_err());
        assert!(args("--workload hot-http --seed x").is_err());
        assert!(args("--workload hot-http --seed 1 --bogus 2").is_err());
    }
}
