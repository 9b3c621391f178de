//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Run from the repository root. Prints a human-readable report, then, as
//! the last line of standard output, one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::metrics::{self, END_TO_END};
use perfbench::{hermetic_env, result_line, run, Ctx, RunResult};

const USAGE: &str =
    "usage: perfbench --workload <sim_1core|sim_4core_event|llc_replay|rl_train|serving_tiers> \
                     [--seed N] [--seconds S] [--trace 0|1]";

fn parse(args: &[String]) -> Result<Ctx, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (0u64, 10.0f64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("bad seconds `{value}`"))?;
                if !(seconds.is_finite() && seconds > 0.0) {
                    return Err(format!("seconds must be positive, got `{value}`"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got `{value}`")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !metrics::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    let scratch = PathBuf::from(".bench_scratch").join(&workload);
    Ok(Ctx {
        workload,
        seed,
        seconds,
        trace,
        scratch,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ctx = match parse(&args) {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    hermetic_env(&ctx);
    let _ = std::fs::remove_dir_all(&ctx.scratch);
    if let Err(e) = std::fs::create_dir_all(&ctx.scratch) {
        eprintln!("cannot create {}: {e}", ctx.scratch.display());
        return ExitCode::from(1);
    }
    let result: RunResult = match ctx.workload.as_str() {
        "sim_1core" => run(&perfbench::wl_sim::Sim1Core, &ctx),
        "sim_4core_event" => run(&perfbench::wl_sim::Sim4CoreEvent, &ctx),
        "llc_replay" => run(&perfbench::wl_replay::LlcReplay, &ctx),
        "rl_train" => run(&perfbench::wl_rl::RlTrain, &ctx),
        "serving_tiers" => run(&perfbench::wl_serving::ServingTiers, &ctx),
        _ => unreachable!("validated in parse"),
    };
    let names: Vec<&'static str> = if ctx.trace {
        metrics::per_layer_names()
    } else {
        END_TO_END.iter().map(|d| d.name).collect()
    };
    print!("{}", result.report);
    for failure in &result.failures {
        println!("FAILED cell {failure}");
    }
    for &name in &names {
        let def = metrics::def(name).expect("declared");
        println!(
            "  {name:<40} {:>16.6} {}",
            result.metrics.get(name).unwrap_or(f64::NAN),
            def.unit
        );
    }
    println!("{}", result_line(&result, &names));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_the_documented_command_line() {
        let ctx = parse(&args(
            "--workload llc_replay --seed 7 --seconds 10 --trace 1",
        ))
        .expect("valid");
        assert_eq!(
            (ctx.workload.as_str(), ctx.seed, ctx.seconds, ctx.trace),
            ("llc_replay", 7, 10.0, true)
        );
        let ctx = parse(&args("--workload rl_train")).expect("defaults");
        assert_eq!((ctx.seed, ctx.trace), (0, false));
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "",
            "--workload nope",
            "--workload rl_train --seed -1",
            "--workload rl_train --seconds 0",
            "--workload rl_train --trace 2",
            "--workload rl_train --bogus 1",
            "--workload",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad}");
        }
    }
}
