//! Golden pins for tier 0: the static oracle's report and the planner's
//! plan for every loop of a fixed set of generated modules.
//!
//! `cascade_parity.rs` and the soundness proptests check that tier-0
//! verdicts agree with the profiler; these tests compare the full
//! tier-0 output with fixed FNV-1a hashes, so a rewrite of the oracle
//! or the planner that moves one fact, one excused instruction, one
//! private scalar or one pragma character fails here even when the
//! verdict does not change.
//!
//! Inputs: every loop of `generate_suite(None, s)` for the held-out
//! seeds 3 and 7, and of `generate_suite(Some(Suite::Stress), s)` for
//! seeds 1 and 2, each at all six optimisation levels. The hashes were
//! recorded with one `analyze_loop` call per loop; running every loop
//! of a function through one shared `FuncAnalysis`, as the cascade
//! does, must reproduce them.

use mvgnn::analyze::{analyze_loop, plan_from_report, FuncAnalysis, LoopPlan, OracleReport};
use mvgnn::dataset::{generate_suite, Suite};
use mvgnn::ir::module::FuncId;
use mvgnn::ir::transform::{optimize, OptLevel};

/// FNV-1a (64-bit) over a byte stream.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn text(&mut self, s: &str) {
        for b in s.bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// One loop's tier-0 output: the report's fields (its sets are sorted
/// vectors, so their order is pinned too) and the plan derived from it.
fn hash_loop(h: &mut Fnv, report: &OracleReport, plan: &LoopPlan) {
    h.text(&format!(
        "{:?}|{:?}|{:?}|{:?}|{}|{}|{:?}\n",
        report.verdict,
        report.facts,
        report.excused,
        report.sections,
        report.n_accesses,
        report.n_pairs_tested,
        report.bounds
    ));
    h.text(&format!("{:?}|{:?}|{:?}|{}\n", plan.plan, plan.verdict, plan.facts, plan.pragma));
}

/// `(loops, hash)` over every loop of one suite seed at all six levels,
/// with one `FuncAnalysis` per function when `shared`.
fn tier0_hash(suite: Option<Suite>, seed: u64, shared: bool) -> (usize, u64) {
    let apps = generate_suite(suite, seed);
    let mut h = Fnv::new();
    let mut loops = 0;
    for level in OptLevel::ALL {
        for app in &apps {
            let m = optimize(&app.module, level);
            for (fi, f) in m.funcs.iter().enumerate() {
                let func = FuncId(fi as u32);
                let analysis = FuncAnalysis::new(&m, func);
                for info in &f.loops {
                    let report = if shared {
                        analysis.analyze_loop(info.id)
                    } else {
                        analyze_loop(&m, func, info.id)
                    };
                    let plan = plan_from_report(&m, func, info.id, &report);
                    hash_loop(&mut h, &report, &plan);
                    loops += 1;
                }
            }
        }
    }
    (loops, h.0)
}

fn check(shared: bool) {
    let got = [
        tier0_hash(None, 3, shared),
        tier0_hash(None, 7, shared),
        tier0_hash(Some(Suite::Stress), 1, shared),
        tier0_hash(Some(Suite::Stress), 2, shared),
    ];
    let show: Vec<String> = got.iter().map(|(n, h)| format!("({n}, {h:#018x})")).collect();
    assert_eq!(got, GOLDEN_TIER0, "got [{}]", show.join(", "));
}

#[test]
fn tier0_reports_and_plans_match_the_recorded_hashes() {
    check(false);
}

#[test]
fn a_shared_function_analysis_reproduces_the_recorded_hashes() {
    check(true);
}

/// `(loops, FNV-1a)` for suite seeds 3 and 7, then stress seeds 1 and 2.
const GOLDEN_TIER0: [(usize, u64); 4] = [
    (5040, 0x9cee_5acb_d2f8_a1e3),
    (5040, 0x34ed_1bd3_4df3_36db),
    (480, 0x5c10_7acf_9497_3c8d),
    (480, 0x60c0_d865_5bbb_31ad),
];
