//! The workloads: set-up, the timed closed loop, the output checks, and
//! the traced pass.

use std::collections::HashSet;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use gcomm_core::Strategy;
use gcomm_serve::SimSpec;

use crate::inputs::{self, Corpus};
use crate::library::{self, OpOut, WORK_COUNTERS};
use crate::stats::{best_per_op, median, percentile};
use crate::trace::Tracer;
use crate::{serve, Args, Report};

pub const NAMES: [&str; 2] = ["compile-corpus", "serve-mixed"];

/// Set-up is repeated this many times per run and its median reported.
pub const SETUPS: usize = 41;

pub fn run(args: &Args) -> Result<Report, String> {
    // Span dumps and scratch stores go under `perfbench/out`, so the run
    // must start at the root of the checkout.
    if !std::path::Path::new("perfbench/Cargo.toml").is_file() {
        return Err("run from the repository root (no perfbench/Cargo.toml here)".into());
    }
    let mut report = Report::default();
    let mut tracer = Tracer::new(Instant::now());
    match args.workload.as_str() {
        "compile-corpus" => compile_corpus(args, &mut report, &mut tracer)?,
        "serve-mixed" => serve::serve_mixed(args, &mut report, &mut tracer)?,
        w => return Err(format!("unknown workload `{w}`")),
    }
    if args.trace {
        // The traced pass prints the per-layer metrics only; set-up time
        // is an end-to-end metric.
        report.metrics.retain(|(name, _, _)| name != "setup_s");
        report.metric(
            "failed_frac",
            report.failed as f64 / report.attempted.max(1) as f64,
            "ratio",
        );
        report.metric("peak_rss_mb", peak_rss_mb()?, "MB");
        write_trace(args, &tracer)?;
    }
    Ok(report)
}

/// Output directory of the run's span dumps and scratch state.
pub fn out_dir() -> PathBuf {
    PathBuf::from("perfbench/out")
}

fn write_trace(args: &Args, t: &Tracer) -> Result<(), String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{}.json", args.workload));
    std::fs::write(&path, t.to_json(&crate::env_json()))
        .map_err(|e| format!("writing {}: {e}", path.display()))
}

/// The process's peak resident set (`VmHWM`), in MiB. It is a per-layer
/// metric of the traced pass: with the server's threads in-process, how
/// many allocator arenas a run creates depends on lock contention, which
/// makes the peak of equal work differ by one arena (about 60 MB) from run
/// to run — too unsteady to carry an end-to-end bound.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Runs `setup` [`SETUPS`] times, reporting the median as `setup_s`, and
/// returns the last result; `teardown` ends each earlier one.
pub fn timed_setups<T>(
    report: &mut Report,
    mut setup: impl FnMut() -> Result<T, String>,
    mut teardown: impl FnMut(T) -> Result<(), String>,
) -> Result<T, String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUPS {
        if let Some(prev) = last.take() {
            teardown(prev)?;
        }
        let t0 = Instant::now();
        last = Some(setup()?);
        times.push(t0.elapsed().as_secs_f64());
    }
    report.metric("setup_s", median(&times), "s");
    Ok(last.expect("SETUPS > 0"))
}

/// One library op of a workload's input set.
#[derive(Debug, Clone)]
pub struct LibOp {
    pub src: String,
    pub strategy: Strategy,
    pub sim: SimSpec,
    /// One of the six paper kernels.
    pub kernel: bool,
}

pub fn corpus_ops(c: &Corpus) -> Vec<LibOp> {
    c.ops
        .iter()
        .map(|op| LibOp {
            src: c.programs[op.prog].1.clone(),
            strategy: op.strategy,
            sim: op.sim.clone(),
            kernel: op.prog < c.kernels,
        })
        .collect()
}

/// The reference pass: every op's outputs, with every schedule checked
/// by `check_schedule` and each distinct (program, strategy) replayed once
/// by the independent interpreter. Runs outside any timed window, on
/// `nproc` threads. Returns each op's outputs (`None` if it did not
/// compile) and whether it passed every check.
pub fn reference(report: &mut Report, ops: &[LibOp]) -> (Vec<Option<OpOut>>, Vec<bool>) {
    let mut seen = HashSet::new();
    let first: Vec<bool> = ops
        .iter()
        .map(|op| seen.insert((op.src.as_str(), op.strategy)))
        .collect();
    let results = par_map(ops.len(), |i| {
        let op = &ops[i];
        let (out, c) = library::run_op(&op.src, op.strategy, &op.sim)?;
        let checked = library::check(&c).and_then(|()| match first[i] {
            true => library::verify(&c),
            false => Ok(()),
        });
        Ok((out, checked))
    });
    report.attempted += ops.len() as u64;
    results
        .into_iter()
        .map(|r: Result<(OpOut, Result<(), String>), String>| match r {
            Ok((out, checked)) => (Some(out), report.check(checked).is_some()),
            Err(e) => {
                report.fail(e);
                (None, false)
            }
        })
        .unzip()
}

/// The machine's available parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `f(0..n)` on `nproc` scoped threads, results in index order.
pub fn par_map<T: Send>(n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let threads = nproc().min(n).max(1);
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                s.spawn(move || {
                    (t..n)
                        .step_by(threads)
                        .map(|i| (i, f(i)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            for (i, v) in h.join().expect("reference worker panicked") {
                out[i] = Some(v);
            }
        }
    });
    out.into_iter()
        .map(|v| v.expect("every index computed"))
        .collect()
}

/// The exact sums. `sim_comm_ms` is the simulated communication time of
/// the paper kernels' ops in `refs`, one pass; the generated programs'
/// simulated times span eight orders of magnitude with their loop depth,
/// so a sum over them would measure the seed rather than the compiler.
/// `static_messages` is summed over every program of the fixed corpus of
/// [`inputs::COUNT_SEED`] under every strategy.
pub fn exact_metrics(report: &mut Report, ops: &[LibOp], refs: &[Option<OpOut>]) {
    let comm_us: f64 = ops
        .iter()
        .zip(refs)
        .filter(|(op, _)| op.kernel)
        .filter_map(|(_, r)| r.map(|o| o.comm_us))
        .sum();
    report.metric("sim_comm_ms", comm_us / 1e3, "ms");
    let programs = inputs::corpus(inputs::COUNT_SEED).programs;
    let strategies = inputs::STRATEGIES;
    let counts = par_map(programs.len() * strategies.len(), |i| {
        let src = &programs[i / strategies.len()].1;
        gcomm_core::compile(src, strategies[i % strategies.len()])
            .map(|c| c.static_messages())
            .map_err(|e| e.to_string())
    });
    let msgs: usize = counts.into_iter().filter_map(|c| report.check(c)).sum();
    report.metric("static_messages", msgs as f64, "count");
}

fn compile_corpus(args: &Args, report: &mut Report, tracer: &mut Tracer) -> Result<(), String> {
    let first = inputs::corpus(args.seed);
    let corpus = timed_setups(report, || Ok(inputs::corpus(args.seed)), |_| Ok(()))?;
    if corpus != first {
        report.fail("the corpus differs between two generations from one seed");
    }
    report.check(library::check_kernel_table());
    let ops = corpus_ops(&corpus);
    let (refs, passed) = reference(report, &ops);
    if args.trace {
        serve::corpus_service_layers(args, report, tracer)?;
        return library_layers(report, tracer, &ops, &refs, args.seconds * 0.5);
    }
    exact_metrics(report, &ops, &refs);

    // Whole passes over the ops until the measured time reaches the run
    // length. Only compile + simulate is timed; each op's schedule is then
    // checked and its outputs compared with the reference pass, which
    // also checks that they repeat exactly. An op whose schedule failed a
    // reference check fails again on every execution. Other tenants of a
    // shared host slow stretches of seconds of a run, some passes to half
    // speed, and never speed one up, so the times are each op's best over
    // the passes: the latencies are percentiles over the ops of those, and
    // the throughput is one pass at those times.
    let budget = Duration::from_secs_f64(args.seconds);
    let mut measured = Duration::ZERO;
    let mut lat_ms = Vec::new();
    while measured < budget {
        for ((op, want), &ok) in ops.iter().zip(&refs).zip(&passed) {
            report.attempted += 1;
            let t0 = Instant::now();
            let r = library::run_op(&op.src, op.strategy, &op.sim);
            let dt = t0.elapsed();
            measured += dt;
            lat_ms.push(dt.as_secs_f64() * 1e3);
            let Some((out, c)) = report.check(r) else {
                continue;
            };
            if report.check(library::check(&c)).is_none() {
                continue;
            }
            if Some(out) != *want {
                report.fail(format!(
                    "op output {out:?} differs from the reference {want:?}"
                ));
            } else if !ok {
                report.failed += 1;
            }
        }
    }
    let best_ms = best_per_op(&lat_ms, ops.len());
    eprintln!(
        "compile-corpus: {} passes of {} ops",
        lat_ms.len() / ops.len(),
        ops.len()
    );
    report.metric(
        "ops_per_s",
        ops.len() as f64 * 1e3 / best_ms.iter().sum::<f64>(),
        "1/s",
    );
    report.metric("latency_p50_ms", median(&best_ms), "ms");
    report.metric("latency_p99_ms", percentile(&best_ms, 99.0), "ms");
    Ok(())
}

/// The library part of the traced pass, on any workload's compile inputs:
/// alternating untraced and traced passes for `seconds`, the stage
/// medians and self times, the tracing overhead, the work counts of a
/// `compile_stats` pass (taken twice, to check they repeat exactly), and
/// the cost of stats collection.
pub fn library_layers(
    report: &mut Report,
    tracer: &mut Tracer,
    ops: &[LibOp],
    refs: &[Option<OpOut>],
    seconds: f64,
) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut untraced_ms = Vec::new();
    let mut lib = Tracer::new(Instant::now());
    let mut op_id = 0u64;
    while untraced_ms.is_empty() || Instant::now() < deadline {
        for (op, want) in ops.iter().zip(refs) {
            let t0 = Instant::now();
            let r = library::run_op(&op.src, op.strategy, &op.sim);
            untraced_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            if let Some((out, _)) = report.check(r) {
                if want.is_some_and(|w| w != out) {
                    report.fail(format!("untraced op output {out:?} differs from {want:?}"));
                }
            }
        }
        for (op, want) in ops.iter().zip(refs) {
            op_id += 1;
            lib.set_op(op_id);
            if let Some(out) =
                report.check(library::traced_op(&mut lib, &op.src, op.strategy, &op.sim))
            {
                if want.is_some_and(|w| w != out) {
                    report.fail(format!("traced op output {out:?} differs from {want:?}"));
                }
            }
            report.check(library::traced_analysis_parts(&mut lib, &op.src));
        }
    }
    let by = lib.by_name();
    for (span, metric) in [
        ("lang.parse", "lang.parse_us"),
        ("ir.lower", "ir.lower_us"),
        ("ir.dom", "ir.dom_us"),
        ("ssa.build", "ssa.build_us"),
        ("core.analysis", "core.analysis_us"),
        ("core.commgen", "core.commgen_us"),
        ("core.candidates", "core.candidates_us"),
        ("core.subset", "core.subset_us"),
        ("core.redundancy", "core.redundancy_us"),
        ("core.greedy", "core.greedy_us"),
        ("core.place", "core.place_us"),
        ("core.codegen", "core.codegen_us"),
        ("machine.sim", "machine.sim_us"),
        ("core.compile", "core.compile_us"),
    ] {
        // A stage no input reached (say, `core.place` on a comb-only set)
        // reads 0.
        let d = by.get(span).map_or(0.0, |d| median(&d.total_us));
        report.metric(metric, d, "us");
    }
    let compile_self = &by["core.compile"].self_us;
    report.metric("core.compile.self_us", median(compile_self), "us");
    let coverage = lib.coverage("core.compile");
    report.metric("core.stage_coverage", coverage, "ratio");
    if coverage < 0.9 {
        report.fail(format!(
            "stage spans cover only {coverage:.3} of core.compile"
        ));
    }
    // Tracing overhead: the traced op (root span) against the same op
    // untraced, per op on average.
    let traced_mean = by["op"].total_us.iter().sum::<f64>() / by["op"].total_us.len() as f64;
    let untraced_mean = untraced_ms.iter().sum::<f64>() * 1e3 / untraced_ms.len() as f64;
    report.metric("trace.overhead_us", traced_mean - untraced_mean, "us");

    let distinct: Vec<(&str, Strategy)> = {
        let mut seen = HashSet::new();
        ops.iter()
            .filter(|op| seen.insert((op.src.as_str(), op.strategy)))
            .map(|op| (op.src.as_str(), op.strategy))
            .collect()
    };
    let (counts, on_s, off_s) = library::work_counts(&distinct)?;
    let (again, _, _) = library::work_counts(&distinct)?;
    if counts != again {
        report.fail("work counts differ between two compile_stats passes");
    }
    for k in WORK_COUNTERS {
        report.metric(k, counts[k] as f64, "count");
    }
    let checks = counts["sections.subsume_checks"];
    report.metric(
        "sections.memo_hit_ratio",
        counts["sections.subsume_memo_hits"] as f64 / checks.max(1) as f64,
        "ratio",
    );
    report.metric("obs.overhead_ratio", on_s / off_s, "ratio");
    tracer.absorb(lib);
    Ok(())
}
