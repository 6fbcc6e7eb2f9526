//! Every input a run uses, generated from its `--seed`.

use gcomm_coll::{CollChoice, CollConfig, Topology};
use gcomm_core::{lower_to_sim, Compiled, SimConfig, Strategy};
use gcomm_machine::{simulate, CommProgram, NetworkModel, ProcGrid, SimResult};
use gcomm_serve::SimSpec;
use proptest::hpf::{self, GenConfig};
use proptest::test_runner::TestRng;

/// The strategies every program is compiled under: the paper's three
/// code versions (§5).
pub const STRATEGIES: [Strategy; 3] = [Strategy::Original, Strategy::EarliestRE, Strategy::Global];

/// Size strata of the generated programs as `(min lines, max lines,
/// quota)`. Compile cost grows with program size and simulated time with
/// loop depth, both heavy-tailed: drawing a fixed number of programs per
/// size band gives every seed the same size profile, so seeds change the
/// programs but not what a run costs. The small bands follow the default
/// generator's own size distribution.
pub const SMALL_STRATA: [(usize, usize, usize); 5] = [
    (0, 10, 50),
    (10, 16, 50),
    (16, 22, 50),
    (22, 30, 30),
    (30, 60, 20),
];
/// The large programs make up the latency tail.
pub const LARGE_STRATA: [(usize, usize, usize); 3] = [(30, 60, 10), (60, 90, 15), (90, 120, 15)];
/// Simulations per (kernel, strategy), on each machine kind in turn at a
/// problem size drawn from [`KERNEL_SIZES`].
pub const KERNEL_DRAWS: usize = 8;
/// Problem sizes of the kernel simulations. The range is narrow so that
/// their summed simulated time (`sim_comm_ms`) moves with the seed by
/// about a percent, and a change in the compiler's placement shows.
pub const KERNEL_SIZES: std::ops::RangeInclusive<i64> = 62..=66;
/// The seed of the corpus whose static messages are summed
/// (`static_messages`): one program set for every run, so the sum moves
/// only when the compiler's placement does, never with `--seed`.
pub const COUNT_SEED: u64 = 0;

/// The size of the large generated programs.
pub fn large_config() -> GenConfig {
    GenConfig {
        max_arrays: 6,
        max_block_stmts: 8,
        max_depth: 4,
    }
}

/// Seeded programs from `cfg`, `quota` of them per line-count band,
/// drawn in generator order.
pub fn stratified(
    seed: u64,
    label: u64,
    cfg: &GenConfig,
    strata: &[(usize, usize, usize)],
) -> Vec<String> {
    let mut fill = vec![0usize; strata.len()];
    let mut out = Vec::new();
    let want: usize = strata.iter().map(|s| s.2).sum();
    // Every band fills within a few thousand draws; the cap only bounds a
    // generator change that empties a band.
    for i in 0..200_000u64 {
        if out.len() == want {
            break;
        }
        let src = hpf::generate_with(subseed(seed, label + i), cfg);
        let lines = src.lines().count();
        if let Some(k) = strata
            .iter()
            .position(|&(lo, hi, _)| (lo..hi).contains(&lines))
        {
            if fill[k] < strata[k].2 {
                fill[k] += 1;
                out.push(src);
            }
        }
    }
    out
}

/// Derives an independent stream seed from the run seed and a label.
pub fn subseed(seed: u64, label: u64) -> u64 {
    let mut rng = TestRng::new(seed ^ label.wrapping_mul(0xA076_1D64_78BD_642F));
    rng.next_u64()
}

/// One compile op: a program, a strategy, and the machine it is
/// simulated on.
#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    pub prog: usize,
    pub strategy: Strategy,
    pub sim: SimSpec,
}

/// The `compile-corpus` input set, which its traced pass also sends to a
/// server, renamed.
#[derive(Debug, Clone, PartialEq)]
pub struct Corpus {
    /// `(label, source)`; the six paper kernels come first.
    pub programs: Vec<(String, String)>,
    /// Every program under every strategy, in a seeded order.
    pub ops: Vec<Op>,
    /// How many leading programs are paper kernels.
    pub kernels: usize,
}

/// The machine of `kind`: 0 and 1 are the paper's flat network models
/// (SP2 with P=25, NOW with P=8), 2 and 3 a torus and a fat-tree with
/// automatic collective selection, so the collective layer is on the
/// path.
pub fn machine(kind: u64, n: i64) -> SimSpec {
    match kind {
        0 => SimSpec::flat("sp2", n),
        1 => SimSpec::flat("now", n),
        2 => SimSpec {
            machine: "torus:5x5".into(),
            coll: "auto".into(),
            ..SimSpec::flat("sp2", n)
        },
        _ => SimSpec {
            machine: "fat-tree:2x4".into(),
            coll: "auto".into(),
            ..SimSpec::flat("now", n)
        },
    }
}

/// A drawn machine: two thirds of the draws are flat, one third torus or
/// fat-tree; the problem size is drawn from 32..=96.
pub fn sim_spec(rng: &mut TestRng) -> SimSpec {
    let n = 32 + rng.below(65) as i64;
    let kind = [0, 0, 1, 1, 2, 3][rng.below(6) as usize];
    machine(kind, n)
}

pub fn corpus(seed: u64) -> Corpus {
    let mut programs: Vec<(String, String)> = gcomm_kernels::all_kernels()
        .into_iter()
        .map(|(b, r, src)| (format!("{b}:{r}"), src.to_string()))
        .collect();
    let kernels = programs.len();
    let small = stratified(seed, 1 << 20, &GenConfig::default(), &SMALL_STRATA);
    let large = stratified(seed, 2 << 20, &large_config(), &LARGE_STRATA);
    for (i, src) in small.into_iter().enumerate() {
        programs.push((format!("small:{i}"), src));
    }
    for (i, src) in large.into_iter().enumerate() {
        programs.push((format!("large:{i}"), src));
    }
    let mut rng = TestRng::new(subseed(seed, 3));
    let mut ops = Vec::new();
    for prog in 0..programs.len() {
        for strategy in STRATEGIES {
            if prog >= kernels {
                let sim = sim_spec(&mut rng);
                ops.push(Op {
                    prog,
                    strategy,
                    sim,
                });
                continue;
            }
            // Each kernel runs on every machine kind equally often, so
            // their summed simulated time does not move with which
            // machines were drawn.
            let sizes = KERNEL_SIZES.end() - KERNEL_SIZES.start() + 1;
            for d in 0..KERNEL_DRAWS {
                let n = KERNEL_SIZES.start() + rng.below(sizes as u64) as i64;
                let sim = machine(d as u64 % 4, n);
                ops.push(Op {
                    prog,
                    strategy,
                    sim,
                });
            }
        }
    }
    shuffle(&mut ops, &mut rng);
    Corpus {
        programs,
        ops,
        kernels,
    }
}

/// Fisher–Yates with the seeded generator.
pub fn shuffle<T>(v: &mut [T], rng: &mut TestRng) {
    for i in (1..v.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        v.swap(i, j);
    }
}

/// Appends `suffix` to the name of every routine in `src` (the word after
/// each line-leading `program`), so the result is a distinct compile
/// input for every cache and memo while compiling to the same schedule.
pub fn rename(src: &str, suffix: &str) -> String {
    let mut out = String::with_capacity(src.len() + 16);
    for line in src.split_inclusive('\n') {
        let trimmed = line.trim_start();
        let lead = &line[..line.len() - trimmed.len()];
        match trimmed.strip_prefix("program ") {
            Some(rest) => {
                let name_len = rest
                    .bytes()
                    .take_while(|b| b.is_ascii_alphanumeric() || *b == b'_')
                    .count();
                out.push_str(lead);
                out.push_str("program ");
                out.push_str(&rest[..name_len]);
                out.push_str(suffix);
                out.push_str(&rest[name_len..]);
            }
            None => out.push_str(line),
        }
    }
    out
}

/// The network model and lowered program for simulating `c` on `sim` —
/// the same machine set-up the compile service uses for a request's
/// `sim` field, so library and service numbers are comparable.
pub fn lower_for(c: &Compiled, sim: &SimSpec) -> (CommProgram, NetworkModel) {
    let (p, net) = match sim.profile.as_str() {
        "sp2" => (25u32, NetworkModel::sp2()),
        _ => (8u32, NetworkModel::now_myrinet()),
    };
    let mut cfg =
        SimConfig::uniform(c, ProcGrid::balanced(p, grid_rank(c)), sim.n).with("nsteps", 10);
    if !(sim.machine == "flat" && sim.coll == "p2p") {
        let topo = Topology::parse(&sim.machine).expect("benchmark topologies parse");
        let choice = CollChoice::parse(&sim.coll).expect("benchmark collective choices parse");
        cfg = cfg.with_coll(CollConfig::new(topo, choice, net.clone()));
    }
    (lower_to_sim(c, &cfg), net)
}

/// The processor-grid rank a program needs: the most distributed
/// dimensions of any of its arrays.
pub fn grid_rank(c: &Compiled) -> usize {
    c.prog
        .arrays
        .iter()
        .map(|a| a.distributed_dims().len())
        .max()
        .unwrap_or(1)
        .max(1)
}

/// Lowers and simulates in one call.
pub fn simulate_on(c: &Compiled, sim: &SimSpec) -> SimResult {
    let (prog, net) = lower_for(c, sim);
    simulate(&prog, &net)
}

/// A compile request of the service workloads.
#[derive(Debug, Clone, PartialEq)]
pub struct Req {
    pub source: String,
    pub strategy: Strategy,
    pub sim: SimSpec,
}

/// How a service request relates to the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// A repeat of the warm set.
    Warm,
    /// A single-routine edit of a warm module.
    Edit,
    /// A program no one has sent before (sent on both connections).
    New,
    /// A renamed corpus op (the traced pass of `compile-corpus`): misses
    /// every cache.
    Cold,
}

impl Class {
    pub fn name(self) -> &'static str {
        match self {
            Class::Warm => "warm",
            Class::Edit => "edit",
            Class::New => "new",
            Class::Cold => "cold",
        }
    }
}

// The warm set of `serve-mixed` has 64 keys, the size of the log that
// `bench_serve --mode restart` fills. No workload in the repository fixes
// its split into programs and modules, the routines per module or the
// Zipf exponent; the values below are assumptions.

/// Warm single-routine programs of `serve-mixed`.
pub const WARM_PROGRAMS: usize = 48;
/// Warm multi-routine modules (the targets of edits).
pub const WARM_MODULES: usize = 16;
// Every fourth popularity rank of the warm set is a module.
const _: () = assert!(WARM_PROGRAMS == 3 * WARM_MODULES);
/// Routines per warm module.
pub const MODULE_ROUTINES: usize = 4;
/// Size strata of the warm programs and module routines (112 in all),
/// in the default generator's proportions.
const WARM_STRATA: [(usize, usize, usize); 5] = [
    (0, 10, 28),
    (10, 16, 28),
    (16, 22, 28),
    (22, 30, 17),
    (30, 60, 11),
];
/// Seed of the one order in which the size-sorted warm routines are
/// dealt to popularity ranks, the same for every run seed.
const WARM_DEAL_SEED: u64 = 0x5EED;
/// Zipf exponent of warm-set popularity: 1, the classic Zipf law.
pub const ZIPF_S: f64 = 1.0;
/// Requests per client per round: one new program (sent by both clients
/// at once), edits at the [`EDIT_SLOTS`], and warm repeats in the other
/// slots. 20 is the smallest round that makes the 5% / 15% / 80% mix
/// exactly; the edits are spread evenly over it. Both clients do the same
/// kinds of work in a round, so neither idles long at the round barrier.
pub const ROUND: usize = 20;
pub const EDIT_SLOTS: [usize; 3] = [4, 10, 16];

/// The warm set of `serve-mixed`: single-routine programs and
/// multi-routine modules (concatenated generated routines, the shape
/// `proptest::hpf::generate_module` makes), in Zipf popularity order.
///
/// A hit's cost follows the size of its payload, and the few most popular
/// keys take most hits, so every seed gets the same profile per
/// popularity rank: every fourth rank is a module, the strategies cycle
/// with the rank, and the routines, sorted by size, are dealt to the
/// ranks in one fixed order. Seeds change the routines, not that profile.
pub fn warm_set(seed: u64) -> Vec<Req> {
    let mut routines = stratified(seed, 3 << 20, &GenConfig::default(), &WARM_STRATA);
    routines.sort_by_key(|r| r.lines().count());
    let mut deal: Vec<usize> = (0..routines.len()).collect();
    shuffle(&mut deal, &mut TestRng::new(WARM_DEAL_SEED));
    let mut dealt = deal.into_iter().map(|i| std::mem::take(&mut routines[i]));
    let mut rng = TestRng::new(subseed(seed, 4));
    let keys = WARM_PROGRAMS + WARM_MODULES;
    (0..keys)
        .map(|rank| {
            let n = if rank % 4 == 3 { MODULE_ROUTINES } else { 1 };
            Req {
                source: dealt.by_ref().take(n).collect(),
                strategy: STRATEGIES[rank % STRATEGIES.len()],
                sim: sim_spec(&mut rng),
            }
        })
        .collect()
}

/// The `round`-th new program, from the middle size bands; both clients
/// send the same one.
pub fn new_program(seed: u64, round: u64) -> Req {
    let s = subseed(seed, 1 << 40 | round);
    let mut rng = TestRng::new(s);
    let source = stratified(s, 0, &GenConfig::default(), &[(10, 30, 1)]).remove(0);
    Req {
        source,
        strategy: Strategy::Global,
        sim: sim_spec(&mut rng),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rename_changes_only_routine_names() {
        let src = "\nprogram shallow\nparam n\nend\n  program two\nend";
        assert_eq!(
            rename(src, "_x1"),
            "\nprogram shallow_x1\nparam n\nend\n  program two_x1\nend"
        );
    }

    #[test]
    fn renamed_kernels_compile_to_the_same_counts() {
        for (_, _, src) in gcomm_kernels::all_kernels() {
            let a = gcomm_core::compile(src, Strategy::Global).unwrap();
            let b = gcomm_core::compile(&rename(src, "_r9"), Strategy::Global).unwrap();
            assert_eq!(a.static_messages(), b.static_messages());
            assert_ne!(a.prog.name, b.prog.name);
        }
    }

    #[test]
    fn inputs_repeat_per_seed() {
        assert_eq!(corpus(5), corpus(5));
        assert_ne!(corpus(5).ops, corpus(6).ops);
        assert_eq!(warm_set(5), warm_set(5));
        assert_ne!(warm_set(5), warm_set(6));
        assert_eq!(new_program(5, 3), new_program(5, 3));
    }
}
