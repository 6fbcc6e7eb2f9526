//! The compiler library as the `compile-corpus` workload drives it, and
//! the stage-by-stage replay the traced pass uses on every workload.

use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

use gcomm_core::commgen;
use gcomm_core::greedy::{choose, CombinePolicy};
use gcomm_core::subset::{subset_eliminate, CandidateTable};
use gcomm_core::{
    candidates::candidates, check_schedule, earliest::earliest_pos, latest::latest, redundancy,
    strategy, AnalysisCtx, CommKind, Compiled, Schedule, Strategy,
};
use gcomm_ir::DomTree;
use gcomm_machine::{simulate, ProcGrid};
use gcomm_serve::SimSpec;
use gcomm_ssa::SsaForm;

use crate::inputs::{grid_rank, lower_for, simulate_on, STRATEGIES};
use crate::trace::Tracer;

/// The exact, deterministic outputs of one op.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpOut {
    pub static_messages: usize,
    pub comm_us: f64,
}

/// One `compile-corpus` op: compile, then lower and simulate. The
/// schedule is returned for the output checks, which run outside the
/// timed window.
pub fn run_op(src: &str, strategy: Strategy, sim: &SimSpec) -> Result<(OpOut, Compiled), String> {
    let c = gcomm_core::compile(src, strategy).map_err(|e| e.to_string())?;
    let r = simulate_on(&c, sim);
    let out = OpOut {
        static_messages: c.static_messages(),
        comm_us: r.comm_us,
    };
    Ok((out, c))
}

/// `gcomm_core::check_schedule`, as an error message on failure.
pub fn check(c: &Compiled) -> Result<(), String> {
    let rep = check_schedule(c);
    if rep.ok() {
        Ok(())
    } else {
        Err(rep.to_string())
    }
}

/// The independent interpreter replay (`gcomm_exec::verify_schedule`) at
/// a small size on a 4-processor grid.
pub fn verify(c: &Compiled) -> Result<(), String> {
    let grid = ProcGrid::balanced(4, grid_rank(c));
    let mut params: HashMap<String, i64> = c.prog.params.iter().map(|p| (p.clone(), 8)).collect();
    params.insert("nsteps".into(), 2);
    let rep = gcomm_exec::verify_schedule(c, &grid, &params).map_err(|e| e.to_string())?;
    match rep.errors.first() {
        None => Ok(()),
        Some(e) => Err(format!(
            "{} verify violation(s), first: {}",
            rep.errors.len(),
            e.message
        )),
    }
}

/// Checks the six kernels' static message counts against the committed
/// paper table (`results/table_static_counts.txt`).
pub fn check_kernel_table() -> Result<(), String> {
    let table = include_str!("../../results/table_static_counts.txt");
    let mut want: BTreeMap<(String, String, String), [usize; 3]> = BTreeMap::new();
    for line in table.lines().skip(1) {
        let f: Vec<&str> = line.split_whitespace().collect();
        if f.len() != 6 {
            return Err(format!("malformed table row `{line}`"));
        }
        let n = |s: &str| {
            s.parse::<usize>()
                .map_err(|_| format!("bad count in `{line}`"))
        };
        want.insert(
            (f[0].into(), f[1].into(), f[2].into()),
            [n(f[3])?, n(f[4])?, n(f[5])?],
        );
    }
    let mut got = BTreeMap::new();
    for (bench, routine, src) in gcomm_kernels::all_kernels() {
        let compiled: Vec<Compiled> = STRATEGIES
            .iter()
            .map(|&s| gcomm_core::compile(src, s).map_err(|e| e.to_string()))
            .collect::<Result<_, _>>()?;
        for (ty, kind) in [
            ("NNC", CommKind::Nnc),
            ("SUM", CommKind::Reduction),
            ("GEN", CommKind::General),
        ] {
            let counts = [0, 1, 2].map(|i| compiled[i].schedule.count_kind(kind));
            if counts[0] > 0 {
                got.insert((bench.into(), routine.into(), ty.into()), counts);
            }
        }
    }
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "kernel static counts {got:?} differ from the table {want:?}"
        ))
    }
}

/// Compiles like `gcomm_core::compile` + lower + simulate, calling each
/// stage from here with a span around it. The `core.compile` span covers
/// exactly what `gcomm_core::compile` does; `core.codegen` and
/// `machine.sim` follow it under the same `op` root.
pub fn traced_op(
    t: &mut Tracer,
    src: &str,
    strategy: Strategy,
    sim: &SimSpec,
) -> Result<OpOut, String> {
    let root = t.enter("op");
    let out = traced_stages(t, src, strategy, sim);
    t.exit(root);
    out
}

fn traced_stages(
    t: &mut Tracer,
    src: &str,
    strategy: Strategy,
    sim: &SimSpec,
) -> Result<OpOut, String> {
    let compile = t.enter("core.compile");
    let compiled = traced_compile(t, src, strategy);
    t.exit(compile);
    let c = compiled?;
    let (prog, net) = t.span("core.codegen", || lower_for(&c, sim));
    let r = t.span("machine.sim", || simulate(&prog, &net));
    Ok(OpOut {
        static_messages: c.static_messages(),
        comm_us: r.comm_us,
    })
}

fn traced_compile(t: &mut Tracer, src: &str, strategy: Strategy) -> Result<Compiled, String> {
    let ast = t
        .span("lang.parse", || gcomm_lang::parse_program(src))
        .map_err(|e| e.to_string())?;
    let prog = t
        .span("ir.lower", || gcomm_ir::lower(&ast))
        .map_err(|e| e.to_string())?;
    let schedule = {
        // Dominators and SSA, built together by the analysis context.
        let ctx = t.span("core.analysis", || AnalysisCtx::new(&prog));
        let entries = t.span("core.commgen", || commgen::number(commgen::generate(&prog)));
        match strategy {
            Strategy::Global => traced_global(t, &ctx, entries),
            s => t.span("core.place", || strategy::run(&ctx, entries, s)),
        }
    };
    Ok(Compiled {
        prog,
        schedule,
        stats: Default::default(),
    })
}

/// The paper's global algorithm (`comb`), stage by stage, as
/// `gcomm_core::strategy` runs it.
fn traced_global(
    t: &mut Tracer,
    ctx: &AnalysisCtx<'_>,
    entries: Vec<gcomm_core::CommEntry>,
) -> Schedule {
    let mut table = CandidateTable::default();
    t.span("core.candidates", || {
        for e in &entries {
            let lp = latest(ctx, e);
            let ep = earliest_pos(ctx, e);
            table.cands.insert(e.id, candidates(ctx, e, ep, lp));
        }
    });
    t.span("core.subset", || {
        subset_eliminate(&mut table, &ctx.dt, &ctx.budget)
    });
    let absorptions = t.span("core.redundancy", || {
        redundancy::eliminate(ctx, &entries, &mut table)
    });
    let groups = t.span("core.greedy", || {
        choose(ctx, &entries, &mut table, &CombinePolicy::default())
    });
    Schedule {
        strategy: Strategy::Global,
        entries,
        groups,
        absorptions,
        section_overrides: Vec::new(),
        search: None,
    }
}

/// Dominator tree and SSA construction timed on their own, under an
/// `analysis` root: `AnalysisCtx::new` builds both in one call, so the
/// `core.analysis` stage cannot be split from outside.
pub fn traced_analysis_parts(t: &mut Tracer, src: &str) -> Result<(), String> {
    let ast = gcomm_lang::parse_program(src).map_err(|e| e.to_string())?;
    let prog = gcomm_ir::lower(&ast).map_err(|e| e.to_string())?;
    let root = t.enter("analysis");
    let dt = t.span("ir.dom", || DomTree::compute(&prog.cfg));
    t.span("ssa.build", || SsaForm::build_with(&prog, &dt));
    t.exit(root);
    Ok(())
}

/// The deterministic work counters the traced pass reports, summed over
/// one `compile_stats` pass.
pub const WORK_COUNTERS: [&str; 11] = [
    "lang.tokens",
    "dep.queries",
    "core.entries.candidates",
    "core.candidate_positions",
    "core.redundancy.checks",
    "core.asd_cache_hits",
    "sections.subsume_checks",
    "sections.subsume_memo_hits",
    "core.entries.placed",
    "core.entries.redundant",
    "core.entries.combined_away",
];

/// Work counters summed over `inputs` under `compile_stats`, plus the
/// stats-on and stats-off compile times of the same inputs (interleaved
/// per input, so drift hits both alike).
pub fn work_counts(
    inputs: &[(&str, Strategy)],
) -> Result<(BTreeMap<&'static str, u64>, f64, f64), String> {
    let mut sums: BTreeMap<&'static str, u64> = WORK_COUNTERS.iter().map(|&k| (k, 0)).collect();
    let (mut on_s, mut off_s) = (0.0, 0.0);
    for &(src, strategy) in inputs {
        let t0 = Instant::now();
        let plain = gcomm_core::compile(src, strategy).map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        let stats = gcomm_core::compile_stats(src, strategy).map_err(|e| e.to_string())?;
        let t2 = Instant::now();
        off_s += (t1 - t0).as_secs_f64();
        on_s += (t2 - t1).as_secs_f64();
        if plain != stats {
            return Err("stats-on compile changed the schedule".into());
        }
        for (k, v) in sums.iter_mut() {
            *v += stats.stats.counter(k);
        }
    }
    Ok((sums, on_s, off_s))
}
