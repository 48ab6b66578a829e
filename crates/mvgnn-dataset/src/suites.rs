//! Benchmark-suite composition reproducing the paper's Table II.
//!
//! Each application is a module whose loop count matches the paper
//! exactly (BT 184 … nqueens 4, total 840). Kernel mixes follow the
//! paper's characterisation (§IV-D): NPB is DoALL-heavy with simple
//! parallelism, PolyBench is polyhedral loop nests with strong structure,
//! BOTS is recursive task parallelism.

use crate::kernels::{build_kernel, KernelKind, PatternKind};
use mvgnn_ir::module::{FuncId, LoopId, Module};
use mvgnn_ir::FunctionBuilder;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Benchmark suite identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Suite {
    /// NAS Parallel Benchmarks.
    Npb,
    /// PolyBench.
    PolyBench,
    /// Barcelona OpenMP Tasks Suite.
    Bots,
    /// Adversarial stress suite (not in the paper): indirect access,
    /// pointer chasing, skewed iteration spaces and long-distance
    /// carried dependences, built to break static provers and learned
    /// models alike. Opt-in only: `generate_suite(None, …)` and the
    /// historic corpora exclude it.
    Stress,
}

impl std::fmt::Display for Suite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Suite::Npb => write!(f, "NPB"),
            Suite::PolyBench => write!(f, "PolyBench"),
            Suite::Bots => write!(f, "BOTS"),
            Suite::Stress => write!(f, "Stress"),
        }
    }
}

/// One application's spec (a row of Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppSpec {
    /// Application name as the paper prints it.
    pub name: &'static str,
    /// Owning suite.
    pub suite: Suite,
    /// Number of for-loops (Table II).
    pub loops: usize,
}

/// The paper's Table II, verbatim.
pub const TABLE2: [AppSpec; 14] = [
    AppSpec { name: "BT", suite: Suite::Npb, loops: 184 },
    AppSpec { name: "SP", suite: Suite::Npb, loops: 252 },
    AppSpec { name: "LU", suite: Suite::Npb, loops: 173 },
    AppSpec { name: "IS", suite: Suite::Npb, loops: 25 },
    AppSpec { name: "EP", suite: Suite::Npb, loops: 10 },
    AppSpec { name: "CG", suite: Suite::Npb, loops: 32 },
    AppSpec { name: "MG", suite: Suite::Npb, loops: 74 },
    AppSpec { name: "FT", suite: Suite::Npb, loops: 37 },
    AppSpec { name: "2mm", suite: Suite::PolyBench, loops: 17 },
    AppSpec { name: "jacobi-2d", suite: Suite::PolyBench, loops: 10 },
    AppSpec { name: "syr2k", suite: Suite::PolyBench, loops: 11 },
    AppSpec { name: "trmm", suite: Suite::PolyBench, loops: 9 },
    AppSpec { name: "fib", suite: Suite::Bots, loops: 2 },
    AppSpec { name: "nqueens", suite: Suite::Bots, loops: 4 },
];

/// The adversarial stress applications ([`Suite::Stress`]). Kept apart
/// from [`TABLE2`] so every historic corpus (suite `None` or a paper
/// suite) is byte-identical to before the stress suite existed.
pub const STRESS: [AppSpec; 4] = [
    AppSpec { name: "gather-x", suite: Suite::Stress, loops: 24 },
    AppSpec { name: "chase-x", suite: Suite::Stress, loops: 18 },
    AppSpec { name: "skew-x", suite: Suite::Stress, loops: 20 },
    AppSpec { name: "pipe-x", suite: Suite::Stress, loops: 18 },
];

/// Weighted kernel menu for a suite: `(template, weight)`.
fn menu(suite: Suite) -> Vec<(KernelKind, u32)> {
    use KernelKind::*;
    match suite {
        // NPB: DoALL-dominated solver/spectral/sorting kernels with some
        // reductions and occasional serial recurrences (Table IV shows
        // ~93% of its loops are parallelisable).
        Suite::Npb => vec![
            (VectorMap, 20),
            (Triad, 16),
            (Stencil3, 12),
            (Jacobi2d, 8),
            (MatVec, 8),
            (Transpose, 6),
            (FirFilter, 6),
            (SumReduction, 8),
            (DotProduct, 6),
            (MaxReduction, 4),
            (Histogram, 3),
            (IndirectGather, 3),
            (PrefixSum, 2),
            (Recurrence, 2),
            (ScatterConflict, 1),
            (CallDoAll, 5),
            (TinyDoAll, 3),
            (ScalarSumReduction, 5),
            (NonCommutativeScalar, 4),
            (DistanceRecurrence, 2),
            (GuardedReduction, 3),
            (ScatterPermutation, 3),
            (GuardedScatter, 3),
        ],
        // PolyBench: polyhedral nests — dense linear algebra and stencils,
        // stronger structural signal, more serial nests (Pluto's home turf).
        Suite::PolyBench => vec![
            (MatMul, 14),
            (MatVec, 8),
            (Jacobi2d, 12),
            (Transpose, 8),
            (TriangularSolve, 5),
            (GaussSeidel, 4),
            (Stencil3, 6),
            (TinyDoAll, 3),
            (Stencil3InPlace, 3),
            (DotProduct, 2),
            (DistanceRecurrence, 3),
            (GuardedReduction, 1),
            (ScalarSumReduction, 1),
            (NonCommutativeScalar, 2),
            (GuardedScatter, 2),
        ],
        // BOTS: recursive task parallelism plus small helper loops.
        Suite::Bots => vec![
            (TaskSpawn, 6),
            (CallDoAll, 3),
            (VectorMap, 4),
            (TinyDoAll, 2),
            (ScalarSumReduction, 3),
            (NonCommutativeScalar, 2),
            (Recurrence, 2),
        ],
        // Stress: the four adversarial families dominate, with a thin
        // slice of regular kernels so both binary labels stay populated.
        Suite::Stress => vec![
            (IndirectGatherReduction, 6),
            (PointerChase, 5),
            (TriangularCopy, 6),
            (MultiDistanceRecurrence, 5),
            (IndirectGather, 3),
            (ScatterConflict, 2),
            (ScatterPermutation, 2),
            (GuardedScatter, 2),
            (Histogram, 3),
            (TriangularSolve, 3),
            (DistanceRecurrence, 3),
            (VectorMap, 4),
            (SumReduction, 3),
            (Stencil3InPlace, 2),
        ],
    }
}

/// One generated application with ground truth per loop.
#[derive(Debug)]
pub struct GeneratedApp {
    /// Spec used to generate it.
    pub spec: AppSpec,
    /// The generated module (one function per kernel + `main` driver).
    pub module: Module,
    /// Driver entry point calling every kernel once.
    pub entry: FuncId,
    /// Every loop with its ground-truth pattern.
    pub loops: Vec<(FuncId, LoopId, PatternKind)>,
    /// The template that generated each loop (parallel to `loops`);
    /// `KernelKind::trace_limited` marks loops whose profiled verdict
    /// legitimately disagrees with the expert label.
    pub loop_kinds: Vec<KernelKind>,
}

/// Generate one application matching `spec.loops` exactly.
pub fn generate_app(spec: AppSpec, seed: u64) -> GeneratedApp {
    let mut rng = StdRng::seed_from_u64(seed ^ fxhash(spec.name));
    let menu = menu(spec.suite);
    let total_weight: u32 = menu.iter().map(|&(_, w)| w).sum();
    let mut module = Module::new(spec.name);
    let mut loops: Vec<(FuncId, LoopId, PatternKind)> = Vec::new();
    let mut loop_kinds: Vec<KernelKind> = Vec::new();
    let mut kernel_funcs: Vec<FuncId> = Vec::new();
    let mut idx = 0usize;

    while loops.len() < spec.loops {
        let remaining = spec.loops - loops.len();
        // BOTS apps always lead with a task-spawning loop — the defining
        // trait of the suite.
        if spec.suite == Suite::Bots && loops.is_empty() {
            let (func, ls) = build_kernel(&mut module, KernelKind::TaskSpawn, idx, 12, &mut rng);
            idx += 1;
            kernel_funcs.push(func);
            for (l, p) in ls {
                loops.push((func, l, p));
                loop_kinds.push(KernelKind::TaskSpawn);
            }
            continue;
        }
        // Draw until the template fits in the remaining budget.
        let kind = loop {
            let mut roll = rng.random_range(0..total_weight);
            let mut picked = menu[0].0;
            for &(k, w) in &menu {
                if roll < w {
                    picked = k;
                    break;
                }
                roll -= w;
            }
            if picked.loop_count() <= remaining {
                break picked;
            }
            // Budget nearly exhausted: force a single-loop template.
            if remaining == 1 {
                break KernelKind::VectorMap;
            }
        };
        let size = rng.random_range(8..=24);
        let (func, ls) = build_kernel(&mut module, kind, idx, size, &mut rng);
        idx += 1;
        kernel_funcs.push(func);
        for (l, p) in ls {
            loops.push((func, l, p));
            loop_kinds.push(kind);
        }
    }
    debug_assert_eq!(loops.len(), spec.loops);
    debug_assert_eq!(loops.len(), loop_kinds.len());

    // Driver calling every kernel so one profiled run covers all loops.
    let entry = {
        let mut b = FunctionBuilder::new(&mut module, "main", 0);
        for f in &kernel_funcs {
            b.call_void(*f, &[]);
            b.next_line();
        }
        b.ret(None);
        b.finish()
    };
    GeneratedApp { spec, module, entry, loops, loop_kinds }
}

/// Generate every application of a suite. `None` means "the paper's
/// corpus": all of [`TABLE2`], *excluding* the opt-in [`STRESS`] apps,
/// so historic corpora are unchanged by the stress suite's existence.
pub fn generate_suite(suite: Option<Suite>, seed: u64) -> Vec<GeneratedApp> {
    TABLE2
        .iter()
        .chain(STRESS.iter())
        .filter(|s| match suite {
            None => s.suite != Suite::Stress,
            Some(want) => s.suite == want,
        })
        .map(|&s| generate_app(s, seed))
        .collect()
}

/// Tiny deterministic string hash (per-app seed derivation).
fn fxhash(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvgnn_ir::verify::verify_module;
    use mvgnn_profiler::profile_module;

    #[test]
    fn table2_totals_840() {
        let total: usize = TABLE2.iter().map(|s| s.loops).sum();
        assert_eq!(total, 840);
        assert_eq!(TABLE2.iter().filter(|s| s.suite == Suite::Npb).count(), 8);
        assert_eq!(TABLE2.iter().filter(|s| s.suite == Suite::PolyBench).count(), 4);
        assert_eq!(TABLE2.iter().filter(|s| s.suite == Suite::Bots).count(), 2);
    }

    #[test]
    fn stress_suite_is_opt_in_and_covers_every_family() {
        use crate::kernels::KernelFamily;
        // `None` (the historic corpus) must not pick up stress apps.
        let default = generate_suite(None, 7);
        assert_eq!(default.len(), TABLE2.len());
        assert!(default.iter().all(|a| a.spec.suite != Suite::Stress));
        // The stress suite itself covers all five families.
        let stress = generate_suite(Some(Suite::Stress), 7);
        assert_eq!(stress.len(), STRESS.len());
        let families: std::collections::HashSet<KernelFamily> = stress
            .iter()
            .flat_map(|a| a.loop_kinds.iter().map(|k| k.family()))
            .collect();
        for fam in KernelFamily::ALL {
            assert!(families.contains(&fam), "{fam}: missing from stress corpus");
        }
    }

    #[test]
    fn stress_apps_profile_end_to_end() {
        for spec in STRESS {
            let app = generate_app(spec, 5);
            assert_eq!(app.loops.len(), spec.loops, "{}", spec.name);
            verify_module(&app.module).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            let res = profile_module(&app.module, app.entry, &[]).unwrap();
            for (f, l, _) in &app.loops {
                let rt = res
                    .loops
                    .get(&(*f, *l))
                    .unwrap_or_else(|| panic!("{}: loop {l:?} of f{} never ran", spec.name, f.0));
                assert!(rt.iterations > 0);
            }
        }
    }

    #[test]
    fn generated_apps_match_loop_counts() {
        for spec in [TABLE2[3], TABLE2[4], TABLE2[8], TABLE2[12], TABLE2[13]] {
            let app = generate_app(spec, 7);
            assert_eq!(app.loops.len(), spec.loops, "{}", spec.name);
            assert_eq!(app.module.loop_count(), spec.loops, "{}", spec.name);
            verify_module(&app.module).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        }
    }

    #[test]
    fn generated_app_profiles_end_to_end() {
        // EP is the smallest NPB app (10 loops): run the whole driver.
        let spec = TABLE2[4];
        let app = generate_app(spec, 11);
        let res = profile_module(&app.module, app.entry, &[]).unwrap();
        // Every generated loop must have executed at least one iteration.
        for (f, l, _) in &app.loops {
            let rt = res
                .loops
                .get(&(*f, *l))
                .unwrap_or_else(|| panic!("loop {l:?} of f{} never ran", f.0));
            assert!(rt.iterations > 0);
        }
    }

    #[test]
    fn npb_is_mostly_parallelizable() {
        let app = generate_app(TABLE2[3], 3); // IS, 25 loops
        let parallel = app.loops.iter().filter(|(_, _, p)| p.is_parallelizable()).count();
        let frac = parallel as f64 / app.loops.len() as f64;
        assert!(frac > 0.75, "NPB-like app should be DoALL-heavy, got {frac}");
    }

    #[test]
    fn bots_apps_contain_task_loops() {
        let app = generate_app(TABLE2[12], 3); // fib, 2 loops
        assert_eq!(app.loops.len(), 2);
        let has_task = app.loops.iter().any(|(_, _, p)| *p == PatternKind::Task);
        assert!(has_task, "BOTS app should contain a task loop: {:?}", app.loops);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate_app(TABLE2[5], 42);
        let b = generate_app(TABLE2[5], 42);
        assert_eq!(a.loops.len(), b.loops.len());
        let pa: Vec<_> = a.loops.iter().map(|(_, _, p)| *p).collect();
        let pb: Vec<_> = b.loops.iter().map(|(_, _, p)| *p).collect();
        assert_eq!(pa, pb);
        assert_eq!(a.module.inst_count(), b.module.inst_count());
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate_app(TABLE2[5], 1);
        let b = generate_app(TABLE2[5], 2);
        let pa: Vec<_> = a.loops.iter().map(|(_, _, p)| *p).collect();
        let pb: Vec<_> = b.loops.iter().map(|(_, _, p)| *p).collect();
        assert!(pa != pb || a.module.inst_count() != b.module.inst_count());
    }
}
