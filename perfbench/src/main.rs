//! The agentnet benchmark: one workload per process.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <step-100k|paper-smoke|serve-10k-live> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints one `name = value unit (n=samples)` line per metric, then, as
//! the last line, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. `--trace 0` reports the end-to-end metrics; `--trace 1`
//! reports the per-layer metrics and writes the run's spans to
//! `perfbench/out/`. Exits 1 when any correctness check fails and 2 on
//! bad arguments. See `perfbench/README.md`.

mod loadgen;
mod lockstep;
mod machine;
mod micro;
mod out;
mod serve_live;
mod smoke;
mod spans;
mod stats;
mod step100k;

use out::Out;
use spans::{Tracer, ROOT};
use std::path::PathBuf;
use std::process::ExitCode;

/// The workloads, by name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Step100k,
    PaperSmoke,
    Serve10kLive,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::Step100k, Workload::PaperSmoke, Workload::Serve10kLive];

    fn name(self) -> &'static str {
        match self {
            Workload::Step100k => "step-100k",
            Workload::PaperSmoke => "paper-smoke",
            Workload::Serve10kLive => "serve-10k-live",
        }
    }
}

/// Parsed command line.
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let found = Workload::ALL.into_iter().find(|w| w.name() == value);
                workload = Some(found.ok_or_else(|| format!("unknown workload {value:?}"))?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Runs the workload and, in a traced run, the per-layer probes every
/// workload shares.
fn run(args: &Args, out: &mut Out, tracer: &Tracer) -> Result<(), String> {
    match args.workload {
        Workload::Step100k => step100k::run(args, out, tracer)?,
        Workload::PaperSmoke => smoke::run(args, out, tracer)?,
        Workload::Serve10kLive => serve_live::run(args, out, tracer)?,
    }
    if !tracer.on() {
        return Ok(());
    }
    // The radio/core split comes from the workload's own protocol:
    // step-100k measured it above; the other two take the lockstep
    // window of the replica they stand for.
    let paper = micro::run(args.seed, out, tracer, ROOT)?;
    let replica = serve_live::replica(args.seed, out, tracer)?;
    match args.workload {
        Workload::Step100k => {}
        Workload::PaperSmoke => paper.emit(out, "paper-scale agents arm"),
        Workload::Serve10kLive => replica.emit(out, "serve replica"),
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <step-100k|paper-smoke|serve-10k-live> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let name = args.workload.name();
    let run_id =
        format!("{name}-seed{}-trace{}-pid{}", args.seed, u8::from(args.trace), std::process::id());
    let tracer = Tracer::new(args.trace, run_id.clone());
    let mut out = Out::default();
    let nproc = machine::nproc();
    let speedup = machine::two_thread_speedup();
    out.note(format!(
        "# perfbench workload={name} seed={} seconds={} trace={} run={run_id}",
        args.seed, args.seconds, args.trace
    ));
    out.note(format!("machine.nproc = {nproc} count, machine.two_thread_speedup = {speedup} x"));
    if let Err(e) = run(&args, &mut out, &tracer) {
        // A workload that could not run is a failed check, not a crash.
        out.check(false, || format!("{name}: {e}"));
    }
    match machine::peak_rss_mb() {
        Ok(mb) => out.set("peak_rss_mb", mb),
        Err(e) => out.check(false, || e),
    }
    out.set("machine.nproc", nproc as f64);
    out.set("machine.two_thread_speedup", speedup);
    let wanted: Vec<(String, &'static str)> = if args.trace {
        out::per_layer_names()
    } else {
        out::END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)).collect()
    };
    if args.trace {
        // Set last, so it counts every check of the run.
        out.set("failed_frac", out.failed_frac());
        let path =
            PathBuf::from("perfbench/out").join(format!("spans-{name}-seed{}.jsonl", args.seed));
        match tracer.write_jsonl(&path) {
            Ok(()) => out.note(format!("spans: {} written to {}", tracer.len(), path.display())),
            Err(e) => out.check(false, || format!("cannot write {}: {e}", path.display())),
        }
    } else {
        out.note(format!("failed_frac = {} share", out.failed_frac()));
    }
    let text = out.render(&wanted, args.trace);
    print!("{text}");
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse("--workload serve-10k-live --seed 7 --seconds 20 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::Serve10kLive);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 20.0, true));
        assert_eq!(a.workload.name(), "serve-10k-live");
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(parse("--workload nope").is_err());
        assert!(parse("--seed 1").is_err());
        assert!(parse("--workload step-100k --trace 2").is_err());
        assert!(parse("--workload step-100k --seconds -1").is_err());
        assert!(parse("--workload step-100k --seed").is_err());
    }
}
