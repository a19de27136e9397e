//! The stq benchmark: one command runs a named workload against the public
//! API of `stq-runtime`, checks every answer from outside, and prints each
//! metric by name with its unit.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload read-hot --seed 1 --seconds 10 --trace 0
//! ```
//!
//! With `--trace 0` the last line of standard output carries the end-to-end
//! metrics; with `--trace 1` it carries the per-layer metrics, measured by
//! timing the benchmark's own calls into each layer (and replays of them),
//! and the spans with a self-time table go to
//! `.perfbench/trace-<workload>-<seed>.tsv`. Earlier `#` lines carry the
//! provenance block, raw-sample summaries and the gate's findings. The
//! exit code is 0 only when every answer, digest and bracket matched.

mod fixture;
mod gate;
mod openloop;
mod replay;
mod stats;
mod sys;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;

use workloads::{Metric, TempDirs, Workload};

/// Where runs write their temporary directories and traces, relative to the
/// working directory (the checkout root).
const OUT_DIR: &str = ".perfbench";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: stq-perfbench --workload <{}> --seed <n> [--seconds <1..600>] [--trace <0|1>]",
        names.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, 10u64, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s| (1..=600).contains(s))
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

fn metrics_json(metrics: &[Metric]) -> String {
    let mut out = String::new();
    for (i, m) in metrics.iter().enumerate() {
        // Non-finite values are not JSON; the gate treats them as a failure.
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            out,
            "{}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            m.name,
            value,
            m.unit
        );
    }
    out
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let mut temp = TempDirs::new(Path::new(OUT_DIR));
    let out = workloads::run(args.workload, args.seed, args.seconds, args.trace, &mut temp);
    let provenance =
        sys::provenance(args.workload.name(), args.seed, args.seconds, args.trace, &out.params);
    println!("# provenance {provenance}");
    println!("# samples {{{}}}", out.samples.join(", "));
    for f in &out.findings {
        println!("# gate {f}");
    }
    let metrics = if args.trace { &out.layers } else { &out.e2e };
    let finite = metrics.iter().all(|m| m.value.is_finite());
    if args.trace {
        let path = temp.root().join(format!("trace-{}-{}.tsv", args.workload.name(), args.seed));
        match out.trace.write(&path, &format!("provenance {provenance}")) {
            Ok(()) => println!("# trace {}", path.display()),
            Err(e) => eprintln!("could not write the trace: {e}"),
        }
        eprint!("{}", out.trace.table_text());
    }
    let correct = out.tally.correct() && finite;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.tally.attempted,
        out.tally.failed,
        metrics_json(metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn arguments_parse_strictly() {
        let a = parse_args(&argv("--workload read-cold --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!((a.workload, a.seed, a.seconds, a.trace), (Workload::ReadCold, 7, 3, true));
        assert!(parse_args(&argv("--workload nope --seed 1")).is_err());
        assert!(parse_args(&argv("--workload read-hot")).is_err());
        assert!(parse_args(&argv("--workload read-hot --seed 1 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload read-hot --seed 1 --seconds 0")).is_err());
        assert!(parse_args(&argv("--workload read-hot --seed 1 --bogus 1")).is_err());
        assert!(parse_args(&argv("--workload read-hot --seed")).is_err());
    }

    #[test]
    fn metric_values_keep_all_their_digits() {
        let m = [Metric { name: "op_p50_us", value: 61.234_567_891_2, unit: "us" }];
        assert_eq!(metrics_json(&m), "\"op_p50_us\": {\"value\": 61.2345678912, \"unit\": \"us\"}");
    }
}
