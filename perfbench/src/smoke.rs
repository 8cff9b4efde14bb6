//! `paper-smoke`: the registry's experiments in `Mode::Smoke`, run the
//! way `repro --smoke --no-cache` runs them — one shared `Executor` of
//! the program's default width, one thread per experiment, no result
//! cache.
//!
//! Every experiment fixes its own inputs through the program's stream
//! seeds (`MASTER_SEED`, `TOPOLOGY_SEED`), so `--seed` selects nothing
//! here; it only seeds the traced run's microtimings.

use crate::out::{exp_metric, Out};
use crate::spans::{Tracer, ROOT};
use crate::stats::Dist;
use crate::Args;
use agentnet_engine::{Executor, RunEvent};
use agentnet_experiments::registry::{self, Experiment};
use agentnet_experiments::report::ExperimentReport;
use agentnet_experiments::{paper_mapping_graph, paper_routing_network, Ctx, Mode, TOPOLOGY_SEED};
use crossbeam::channel;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 21;

/// FNV-1a digest of a report's rendered bytes (what `repro` prints).
pub fn digest(report: &ExperimentReport) -> u64 {
    report.to_markdown().bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One suite: each experiment's report (or its panic message), in
/// registry order, and the suite's wall time.
struct Suite {
    reports: Vec<Result<ExperimentReport, String>>,
    wall: Duration,
}

fn run_suite(
    exps: &[Experiment],
    exec: &Executor,
    check: bool,
    tracer: &Tracer,
    parent: u64,
) -> Suite {
    let span = tracer.begin("experiments.suite", parent);
    let started = Instant::now();
    let reports = std::thread::scope(|scope| {
        let handles: Vec<_> = exps
            .iter()
            .map(|exp| {
                let span_id = span.id;
                scope.spawn(move || {
                    let (report, _) =
                        tracer.time(&format!("experiments.{}", exp.id), span_id, || {
                            catch_unwind(AssertUnwindSafe(|| {
                                (exp.run)(&Ctx::new(exec, exp.id, Mode::Smoke).checked(check))
                            }))
                        });
                    report.map_err(|_| format!("experiment {} panicked", exp.id))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("experiment thread died".to_string())))
            .collect()
    });
    let wall = started.elapsed();
    tracer.end(span);
    Suite { reports, wall }
}

/// Checks a suite and returns its digests (0 for a missing report).
fn check_suite(out: &mut Out, exps: &[Experiment], suite: &Suite) -> Vec<u64> {
    exps.iter()
        .zip(&suite.reports)
        .map(|(exp, report)| {
            out.check(matches!(report, Ok(r) if r.id == exp.id), || match report {
                Ok(r) => format!("{} returned the report of {}", exp.id, r.id),
                Err(e) => e.clone(),
            });
            report.as_ref().map(digest).unwrap_or(0)
        })
        .collect()
}

/// The ids of the experiments with a failing shape claim, once per
/// failing claim.
fn claims_failed(suite: &Suite) -> Vec<&str> {
    suite
        .reports
        .iter()
        .filter_map(|r| r.as_ref().ok())
        .flat_map(|r| r.claims.iter().filter(|c| !c.holds).map(|_| r.id.as_str()))
        .collect()
}

pub fn run(args: &Args, out: &mut Out, tracer: &Tracer) -> Result<(), String> {
    // Set-up: resolve the registry, generate the paper's two shared
    // inputs, and create the executor.
    let mut setup = Vec::new();
    let mut built = None;
    for _ in 0..SETUPS {
        let (b, d) = tracer.time("setup", ROOT, || -> Result<_, String> {
            let exps = registry::all();
            let graph = paper_mapping_graph();
            let net = paper_routing_network().build(TOPOLOGY_SEED).map_err(|e| e.to_string())?;
            Ok((exps, graph.edge_count() + net.links().edge_count(), Executor::new(0)))
        });
        setup.push(d.as_secs_f64());
        built = Some(b?);
    }
    out.setup(setup);
    let (exps, input_edges, exec) = built.ok_or("no set-up ran")?;
    out.check(input_edges > 0, || "paper inputs have no edges".to_string());
    out.note(format!("paper-smoke: {} experiments, executor width {}", exps.len(), exec.jobs()));

    // End-to-end: whole suites, as many as fill the time best — another
    // suite starts only if it would end less than half a suite past
    // the time (so the suite count is stable from run to run).
    let off = Tracer::new(false, String::new());
    let seconds = if tracer.on() { args.seconds / 2.0 } else { args.seconds };
    let started = Instant::now();
    let mut suites: Vec<f64> = Vec::new();
    let mut reference: Option<Vec<u64>> = None;
    while suites.last().is_none_or(|&last_ms| {
        started.elapsed().as_secs_f64() + last_ms / 1e3 <= seconds + last_ms / 2e3
    }) {
        let suite = run_suite(&exps, &exec, false, &off, ROOT);
        let digests = check_suite(out, &exps, &suite);
        if let Some(first) = &reference {
            out.check(first == &digests, || {
                "paper-smoke: reports differ between suites of one run".to_string()
            });
        } else {
            let failing = claims_failed(&suite);
            out.note(format!(
                "paper-smoke: paper.claims_failed = {} {failing:?} (shape claims; not operation \
                 failures)",
                failing.len()
            ));
            reference = Some(digests);
        }
        suites.push(suite.wall.as_secs_f64() * 1e3);
    }
    let suite_ms = Dist::new(suites);
    out.set_n("op_p50_ms", suite_ms.p(50.0), suite_ms.n());
    out.set_n("op_tail_ms", suite_ms.p(90.0), suite_ms.n());
    out.note(format!("paper-smoke: suite_s = {} s (n={})", suite_ms.p(50.0) / 1e3, suite_ms.n()));
    if !tracer.on() {
        return Ok(());
    }
    let reference = reference.ok_or("no suite ran")?;

    // Traced suite: the executor's event sink feeds the exec.* metrics.
    let (tx, rx) = channel::unbounded::<RunEvent>();
    let traced_exec = Executor::new(0).with_event_sink(tx);
    let jobs = traced_exec.jobs();
    let suite = run_suite(&exps, &traced_exec, false, tracer, ROOT);
    drop(traced_exec);
    let digests = check_suite(out, &exps, &suite);
    out.check(digests == reference, || "paper-smoke: traced suite reports differ".to_string());
    out.set("paper.claims_failed", claims_failed(&suite).len() as f64);
    out.set("trace.overhead_frac", suite.wall.as_secs_f64() * 1e3 / suite_ms.p(50.0) - 1.0);
    let mut cell_ms = Vec::new();
    let mut wait_us = 0u64;
    let mut busy_us = 0u64;
    for RunEvent::CellFinished { cached, micros, wait_micros, .. } in rx.iter() {
        out.check(!cached, || "paper-smoke: a cell was served from a cache".to_string());
        cell_ms.push(micros as f64 / 1e3);
        wait_us += wait_micros;
        busy_us += micros - wait_micros;
    }
    let cells = Dist::new(cell_ms);
    out.set("exec.cells", cells.n() as f64);
    out.set_n("exec.cell_ms_p50", cells.p(50.0), cells.n());
    out.set("exec.queue_wait_s", wait_us as f64 / 1e6);
    out.set("exec.busy_frac", busy_us as f64 / 1e6 / (suite.wall.as_secs_f64() * jobs as f64));

    // Each experiment alone on a fresh executor of the default width.
    for exp in &exps {
        let alone = Executor::new(0);
        let suite = run_suite(std::slice::from_ref(exp), &alone, false, tracer, ROOT);
        check_suite(out, std::slice::from_ref(exp), &suite);
        out.set(&exp_metric(exp.id), suite.wall.as_secs_f64());
    }

    // Every report must match a run under per-step invariant checks.
    let checked = run_suite(&exps, &exec, true, tracer, ROOT);
    let checked_digests = check_suite(out, &exps, &checked);
    for ((exp, a), b) in exps.iter().zip(&reference).zip(&checked_digests) {
        out.check(a == b, || {
            format!("paper-smoke: {} report differs under Ctx::checked(true)", exp.id)
        });
    }
    Ok(())
}
