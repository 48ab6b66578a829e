//! Parallelization planner: from the dependence oracle's facts to a
//! typed, pragma-grade plan.
//!
//! The oracle ([`crate::oracle::analyze_loop`]) collapses its evidence
//! into a three-point [`Verdict`]; this pass keeps the evidence apart
//! and emits the *structured* decision a parallelizing front-end needs:
//!
//! - [`Plan::DoAll`] — iterations provably independent; body scalars
//!   whose value never crosses an iteration and dies at the loop exit
//!   are listed as `private(...)` candidates rather than dependences.
//! - [`Plan::Reduction`] — provably parallel modulo commutative update
//!   chains on a loop-invariant cell (or a scalar accumulator live into
//!   the header); each chain becomes a `reduction(op:var)` clause.
//! - [`Plan::Doacross`] — every carried dependence is proved with a
//!   known distance ≥ 1, so a pipeline with a `depend(sink: i-d)`
//!   ordering is valid; `min_distance` is the tightest such distance.
//! - [`Plan::Serial`] — the blockers that rule the above out, typed.
//!
//! The planner reads only the oracle's report: the facts, and the
//! privatizable scalars and reduction clauses the oracle derives from
//! the same per-function analysis ([`crate::oracle::FuncAnalysis`]), so
//! planning a loop never re-walks its function.
//!
//! A plan is a *proof* exactly when the backing verdict is decided
//! ([`LoopPlan::proved`]): `DoAll`/`Reduction` ride on
//! `ProvablyParallel`, `Doacross` on `ProvablyDependent`, and a
//! `Serial` plan is only a proof of serial execution when the verdict
//! is `ProvablyDependent` (an `Unknown` verdict plans `Serial`
//! conservatively without claiming anything). Soundness against the
//! interpreting profiler is property-tested in
//! `tests/planner_soundness.rs`.

use crate::oracle::{analyze_loop, Fact, OracleReport, Verdict};
use mvgnn_ir::inst::BinOp;
use mvgnn_ir::module::{FuncId, LoopId, Module};
use mvgnn_ir::types::VReg;
use std::fmt;

/// Commutative operator of a `reduction(...)` clause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReductionOp {
    /// `+`
    Add,
    /// `*`
    Mul,
    /// `min`
    Min,
    /// `max`
    Max,
}

impl ReductionOp {
    /// OpenMP clause spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            ReductionOp::Add => "+",
            ReductionOp::Mul => "*",
            ReductionOp::Min => "min",
            ReductionOp::Max => "max",
        }
    }

    /// The clause operator of a commutative binary op (`None` for any
    /// other op).
    pub fn of_bin(op: BinOp) -> Option<ReductionOp> {
        match op {
            BinOp::Add => Some(ReductionOp::Add),
            BinOp::Mul => Some(ReductionOp::Mul),
            BinOp::Min => Some(ReductionOp::Min),
            BinOp::Max => Some(ReductionOp::Max),
            _ => None,
        }
    }
}

/// One variable of a `reduction(...)` clause: the array name for memory
/// chains, `%N` for scalar accumulators.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReductionTarget {
    /// Clause-ready variable name.
    pub var: String,
    /// Clause operator.
    pub op: ReductionOp,
}

/// A typed reason why a loop could not be planned parallel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Blocker {
    /// A proved loop-carried dependence (`None` = same cell every
    /// iteration, i.e. every distance at once).
    Carried {
        /// Carried distance when the deciding test produced one.
        distance: Option<i64>,
    },
    /// An access pair that may conflict but was not proved either way.
    MayConflict,
    /// A non-commutative scalar recurrence whose value crosses
    /// iterations.
    ScalarRecurrence {
        /// The recurrence register.
        reg: VReg,
    },
    /// An access whose index is not affine in the induction registers.
    NonAffineAccess,
    /// The body contains a call the analysis does not look through.
    OpaqueCall,
    /// The loop is not a counted `for`.
    NonCountedLoop,
}

impl fmt::Display for Blocker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Blocker::Carried { distance: Some(d) } => write!(f, "carried dep (distance {d})"),
            Blocker::Carried { distance: None } => write!(f, "carried dep (same cell)"),
            Blocker::MayConflict => write!(f, "unproven access pair"),
            Blocker::ScalarRecurrence { reg } => write!(f, "scalar recurrence on %{}", reg.0),
            Blocker::NonAffineAccess => write!(f, "non-affine access"),
            Blocker::OpaqueCall => write!(f, "opaque call"),
            Blocker::NonCountedLoop => write!(f, "non-counted loop"),
        }
    }
}

/// The planner's typed decision for one loop.
#[derive(Debug, Clone, PartialEq)]
pub enum Plan {
    /// Iterations are provably independent.
    DoAll {
        /// `private(...)` scalars (names `%N`).
        private: Vec<String>,
    },
    /// Provably parallel modulo commutative reduction clauses.
    Reduction {
        /// The `reduction(op:var)` clauses, in deterministic order.
        targets: Vec<ReductionTarget>,
        /// `private(...)` scalars (names `%N`).
        private: Vec<String>,
    },
    /// Every carried dependence has a proved distance ≥ 1: a pipeline
    /// (`ordered` / `depend(sink: ...)`) schedule is valid.
    Doacross {
        /// Tightest proved carried distance.
        min_distance: i64,
    },
    /// Not parallelizable as analysed; `blockers` say why.
    Serial {
        /// Typed reasons, deduplicated, in fact order.
        blockers: Vec<Blocker>,
    },
}

/// Pattern a *proved* plan commits to, in the four-class taxonomy the
/// GNN pattern head predicts over (`Task` is never proved statically —
/// task loops contain opaque calls).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlannedPattern {
    /// Proved DOALL.
    DoAll,
    /// Proved reduction.
    Reduction,
    /// Proved not-parallel (including provable pipelines: a `Doacross`
    /// loop is serial in the binary taxonomy).
    Serial,
}

/// A loop's plan with its provenance: the typed decision, the verdict
/// it rides on, the oracle facts backing every claim, and the rendered
/// OpenMP-style pragma.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopPlan {
    /// The typed decision.
    pub plan: Plan,
    /// The oracle verdict the plan is derived from. `Serial` with an
    /// `Unknown` verdict is a conservative default, not a proof.
    pub verdict: Verdict,
    /// Per-claim provenance (the oracle's fact list).
    pub facts: Vec<Fact>,
    /// OpenMP-style rendering.
    pub pragma: String,
}

impl LoopPlan {
    /// Whether this plan is a static proof (decided verdict) rather
    /// than a conservative default.
    pub fn proved(&self) -> bool {
        self.verdict != Verdict::Unknown
    }

    /// The pattern class this plan proves, if any. Used by the
    /// prover-checked evaluation path of the GNN pattern head and by
    /// the lint auditor's rule C.
    pub fn proved_pattern(&self) -> Option<PlannedPattern> {
        match (&self.plan, self.verdict) {
            (Plan::DoAll { .. }, Verdict::ProvablyParallel) => Some(PlannedPattern::DoAll),
            (Plan::Reduction { .. }, Verdict::ProvablyParallel) => {
                Some(PlannedPattern::Reduction)
            }
            (Plan::Doacross { .. }, Verdict::ProvablyDependent) => Some(PlannedPattern::Serial),
            (Plan::Serial { .. }, Verdict::ProvablyDependent) => Some(PlannedPattern::Serial),
            _ => None,
        }
    }

    /// Binary parallel/not-parallel of a proved plan (`None` when
    /// nothing is proved). Matches the corpus label convention
    /// (1 = parallelizable).
    pub fn proved_binary(&self) -> Option<usize> {
        self.proved_pattern().map(|p| match p {
            PlannedPattern::DoAll | PlannedPattern::Reduction => 1,
            PlannedPattern::Serial => 0,
        })
    }
}

fn render_private(out: &mut String, private: &[String]) {
    for (i, p) in private.iter().enumerate() {
        out.push_str(if i == 0 { " private(" } else { ", " });
        out.push_str(p);
    }
    if !private.is_empty() {
        out.push(')');
    }
}

/// The OpenMP-style rendering of a plan, written into one buffer.
fn render_pragma(plan: &Plan, verdict: Verdict) -> String {
    use std::fmt::Write;
    let mut s = String::with_capacity(64);
    match plan {
        Plan::DoAll { private } => {
            s.push_str("#pragma omp parallel for");
            render_private(&mut s, private);
        }
        Plan::Reduction { targets, private } => {
            s.push_str("#pragma omp parallel for");
            for t in targets {
                let _ = write!(s, " reduction({}:{})", t.op.as_str(), t.var);
            }
            render_private(&mut s, private);
        }
        Plan::Doacross { min_distance } => {
            let _ =
                write!(s, "#pragma omp parallel for ordered(1) depend(sink: i-{min_distance})");
        }
        Plan::Serial { blockers } => {
            s.push_str(if verdict == Verdict::ProvablyDependent {
                "// serial: "
            } else {
                "// undecided: "
            });
            if blockers.is_empty() {
                s.push_str("no evidence");
            }
            for (i, b) in blockers.iter().enumerate() {
                let _ = write!(s, "{}{b}", if i == 0 { "" } else { "; " });
            }
        }
    }
    s
}

/// Derive the plan for loop `l` from an already-computed oracle report.
///
/// Everything the plan needs is on the report — the verdict, the facts,
/// the privatizable scalars and the reduction clauses — so planning
/// never re-walks the function; the loop's location is part of the
/// signature for callers that plan by position.
pub fn plan_from_report(
    _module: &Module,
    _func: FuncId,
    _l: LoopId,
    report: &OracleReport,
) -> LoopPlan {
    let mut private: Vec<String> = report.private.iter().map(|r| format!("%{}", r.0)).collect();
    private.sort();
    private.dedup();

    let plan = match report.verdict {
        Verdict::ProvablyParallel if report.reductions.is_empty() => Plan::DoAll { private },
        Verdict::ProvablyParallel => {
            Plan::Reduction { targets: report.reductions.clone(), private }
        }
        Verdict::ProvablyDependent | Verdict::Unknown => {
            // A provable pipeline needs *every* pair accounted for: each
            // proved dependence carries a known distance ≥ 1 and nothing
            // is left undecided or carried by a scalar chain.
            let mut min_distance: Option<i64> = None;
            let mut pipeline_ok = report.verdict == Verdict::ProvablyDependent;
            let mut blockers: Vec<Blocker> = Vec::new();
            for fact in &report.facts {
                let blocker = match fact {
                    Fact::PairDependent { distance, .. } => {
                        match distance {
                            Some(d) if *d >= 1 => {
                                min_distance =
                                    Some(min_distance.map_or(*d, |m: i64| m.min(*d)));
                            }
                            _ => pipeline_ok = false,
                        }
                        Some(Blocker::Carried { distance: *distance })
                    }
                    Fact::PairMayConflict { .. } => {
                        pipeline_ok = false;
                        Some(Blocker::MayConflict)
                    }
                    Fact::NonCommutativeRecurrence { reg } => {
                        pipeline_ok = false;
                        Some(Blocker::ScalarRecurrence { reg: *reg })
                    }
                    Fact::NonAffineAccess { .. } => {
                        pipeline_ok = false;
                        Some(Blocker::NonAffineAccess)
                    }
                    Fact::OpaqueCall => {
                        pipeline_ok = false;
                        Some(Blocker::OpaqueCall)
                    }
                    Fact::NonCountedLoop => {
                        pipeline_ok = false;
                        Some(Blocker::NonCountedLoop)
                    }
                    _ => None,
                };
                if let Some(b) = blocker {
                    if !blockers.contains(&b) {
                        blockers.push(b);
                    }
                }
            }
            match min_distance {
                Some(d) if pipeline_ok => Plan::Doacross { min_distance: d },
                _ => Plan::Serial { blockers },
            }
        }
    };

    let pragma = render_pragma(&plan, report.verdict);
    LoopPlan { plan, verdict: report.verdict, facts: report.facts.clone(), pragma }
}

/// Run the oracle and plan loop `l` of `func` in one step.
pub fn plan_loop(module: &Module, func: FuncId, l: LoopId) -> LoopPlan {
    let report = analyze_loop(module, func, l);
    plan_from_report(module, func, l, &report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvgnn_ir::types::Ty;
    use mvgnn_ir::FunctionBuilder;

    #[test]
    fn map_loop_plans_doall() {
        let mut m = Module::new("t");
        let a = m.add_array("a", Ty::F64, 16);
        let out = m.add_array("b", Ty::F64, 16);
        let mut b = FunctionBuilder::new(&mut m, "main", 0);
        let (lo, hi, st) = (b.const_i64(0), b.const_i64(16), b.const_i64(1));
        let l = b.for_loop(lo, hi, st, |b, iv| {
            let x = b.load(a, iv);
            let y = b.bin(BinOp::Mul, x, x);
            b.store(out, iv, y);
        });
        let f = b.finish();
        let p = plan_loop(&m, f, l);
        assert!(matches!(p.plan, Plan::DoAll { .. }), "{:?}", p.plan);
        assert!(p.proved());
        assert_eq!(p.proved_pattern(), Some(PlannedPattern::DoAll));
        assert_eq!(p.pragma, "#pragma omp parallel for");
    }

    #[test]
    fn privatizable_scalar_joins_the_private_clause() {
        // t = t * x each iteration with t reinitialised first: dead at
        // the header and at the exit, so it privatizes.
        let mut m = Module::new("t");
        let a = m.add_array("a", Ty::F64, 16);
        let out = m.add_array("b", Ty::F64, 16);
        let mut b = FunctionBuilder::new(&mut m, "main", 0);
        let (lo, hi, st) = (b.const_i64(0), b.const_i64(16), b.const_i64(1));
        let l = b.for_loop(lo, hi, st, |b, iv| {
            let x = b.load(a, iv);
            let t = b.bin(BinOp::Add, x, x);
            b.bin_to(t, BinOp::Sub, t, x);
            b.store(out, iv, t);
        });
        let f = b.finish();
        let p = plan_loop(&m, f, l);
        match &p.plan {
            Plan::DoAll { private } => assert_eq!(private.len(), 1, "{private:?}"),
            other => panic!("expected DoAll, got {other:?}"),
        }
        assert!(p.pragma.contains("private("), "{}", p.pragma);
    }

    #[test]
    fn memory_reduction_plans_reduction_clause() {
        let mut m = Module::new("t");
        let a = m.add_array("a", Ty::F64, 16);
        let s = m.add_array("s", Ty::F64, 1);
        let mut b = FunctionBuilder::new(&mut m, "main", 0);
        let (lo, hi, st) = (b.const_i64(0), b.const_i64(16), b.const_i64(1));
        let zero = b.const_i64(0);
        let l = b.for_loop(lo, hi, st, |b, iv| {
            let x = b.load(a, iv);
            let cur = b.load(s, zero);
            let nxt = b.bin(BinOp::Add, cur, x);
            b.store(s, zero, nxt);
        });
        let f = b.finish();
        let p = plan_loop(&m, f, l);
        match &p.plan {
            Plan::Reduction { targets, .. } => {
                assert_eq!(targets, &[ReductionTarget { var: "s".into(), op: ReductionOp::Add }]);
            }
            other => panic!("expected Reduction, got {other:?}"),
        }
        assert_eq!(p.proved_pattern(), Some(PlannedPattern::Reduction));
        assert_eq!(p.pragma, "#pragma omp parallel for reduction(+:s)");
    }

    #[test]
    fn scalar_accumulator_plans_reduction_clause() {
        let mut m = Module::new("t");
        let a = m.add_array("a", Ty::F64, 16);
        let mut b = FunctionBuilder::new(&mut m, "main", 0);
        let (lo, hi, st) = (b.const_i64(0), b.const_i64(16), b.const_i64(1));
        let acc = b.const_f64(0.0);
        let l = b.for_loop(lo, hi, st, |b, iv| {
            let x = b.load(a, iv);
            b.bin_to(acc, BinOp::Add, acc, x);
        });
        b.ret(Some(acc));
        let f = b.finish();
        let p = plan_loop(&m, f, l);
        match &p.plan {
            Plan::Reduction { targets, .. } => {
                assert_eq!(targets.len(), 1);
                assert_eq!(targets[0].op, ReductionOp::Add);
                assert!(targets[0].var.starts_with('%'), "{}", targets[0].var);
            }
            other => panic!("expected Reduction, got {other:?}"),
        }
    }

    #[test]
    fn chain_on_a_moving_cell_is_not_a_reduction_clause() {
        // out[i] = out[i] + a[i]: a commutative chain, but the cell moves
        // with the induction — an iteration-local update, planned DoAll.
        let mut m = Module::new("t");
        let a = m.add_array("a", Ty::F64, 16);
        let out = m.add_array("out", Ty::F64, 16);
        let mut b = FunctionBuilder::new(&mut m, "main", 0);
        let (lo, hi, st) = (b.const_i64(0), b.const_i64(16), b.const_i64(1));
        let l = b.for_loop(lo, hi, st, |b, iv| {
            let x = b.load(a, iv);
            let cur = b.load(out, iv);
            let nxt = b.bin(BinOp::Add, cur, x);
            b.store(out, iv, nxt);
        });
        let f = b.finish();
        let p = plan_loop(&m, f, l);
        assert!(matches!(p.plan, Plan::DoAll { .. }), "{:?}", p.plan);
    }

    #[test]
    fn distance_recurrence_plans_doacross() {
        // a[i] = a[i-3] + 1: one carried dep, distance 3.
        let mut m = Module::new("t");
        let a = m.add_array("a", Ty::I64, 16);
        let mut b = FunctionBuilder::new(&mut m, "main", 0);
        let (lo, hi, st) = (b.const_i64(3), b.const_i64(16), b.const_i64(1));
        let three = b.const_i64(3);
        let one = b.const_i64(1);
        let l = b.for_loop(lo, hi, st, |b, iv| {
            let p = b.bin(BinOp::Sub, iv, three);
            let x = b.load(a, p);
            let y = b.bin(BinOp::Add, x, one);
            b.store(a, iv, y);
        });
        let f = b.finish();
        let p = plan_loop(&m, f, l);
        assert_eq!(p.plan, Plan::Doacross { min_distance: 3 }, "{:?}", p.facts);
        assert!(p.proved());
        assert_eq!(p.proved_pattern(), Some(PlannedPattern::Serial));
        assert!(p.pragma.contains("depend(sink: i-3)"), "{}", p.pragma);
    }

    #[test]
    fn same_cell_recurrence_is_serial_not_doacross() {
        // a[0] = a[0] - x: ZIV same-cell, distance unknown -> Serial.
        let mut m = Module::new("t");
        let a = m.add_array("a", Ty::F64, 4);
        let src = m.add_array("s", Ty::F64, 16);
        let mut b = FunctionBuilder::new(&mut m, "main", 0);
        let (lo, hi, st) = (b.const_i64(0), b.const_i64(16), b.const_i64(1));
        let zero = b.const_i64(0);
        let l = b.for_loop(lo, hi, st, |b, iv| {
            let x = b.load(src, iv);
            let cur = b.load(a, zero);
            let nxt = b.bin(BinOp::Sub, cur, x);
            b.store(a, zero, nxt);
        });
        let f = b.finish();
        let p = plan_loop(&m, f, l);
        match &p.plan {
            Plan::Serial { blockers } => {
                assert!(
                    blockers.iter().any(|b| matches!(b, Blocker::Carried { distance: None })),
                    "{blockers:?}"
                );
            }
            other => panic!("expected Serial, got {other:?}"),
        }
        assert!(p.proved());
        assert!(p.pragma.starts_with("// serial:"), "{}", p.pragma);
    }

    #[test]
    fn non_counted_loop_plans_unproved_serial() {
        let mut m = Module::new("t");
        let mut b = FunctionBuilder::new(&mut m, "main", 0);
        let one = b.const_i64(1);
        let l = b.while_loop(|b| b.copy(one), |_b| {});
        let f = b.finish();
        let p = plan_loop(&m, f, l);
        match &p.plan {
            Plan::Serial { blockers } => {
                assert_eq!(blockers, &[Blocker::NonCountedLoop]);
            }
            other => panic!("expected Serial, got {other:?}"),
        }
        assert!(!p.proved(), "an Unknown verdict must not claim a proof");
        assert_eq!(p.proved_pattern(), None);
        assert!(p.pragma.starts_with("// undecided:"), "{}", p.pragma);
    }
}
