//! Corpus label auditor: cross-checks the static dependence oracle
//! (`mvgnn_analyze::analyze_loop`) against the profiler's observed
//! dependence graph and the dataset's labels over the full generated
//! corpus.
//!
//! Since the sharded-pipeline refactor the audit runs *per shard*: the
//! corpus work units are dealt across shards by the same
//! [`mvgnn_dataset::ShardPlan`] the generator uses, each shard is
//! audited independently (one after another), and the per-shard reports are
//! merged into one. Merge semantics: counters sum, row lists
//! concatenate and re-sort into the canonical `(seed, app, level,
//! loop)` order — so the merged report is byte-identical for every
//! shard count, and a violation found by any shard is fatal for the
//! whole audit.
//!
//! Three soundness rules are *fatal* (non-zero exit):
//!
//! - **Rule A** — a loop the oracle marks `ProvablyParallel` must not
//!   exhibit an observed loop-carried dependence outside the oracle's
//!   excused reduction chains. A violation means the static proof is
//!   wrong.
//! - **Rule B** — a loop the oracle marks `ProvablyDependent` must not
//!   carry a parallelisable ground-truth pattern. A violation means the
//!   dependence "proof" claimed a dependence the generator knows is not
//!   there.
//! - **Rule C** — a *proved* parallelization plan
//!   ([`mvgnn_analyze::plan_from_report`]) must not contradict the
//!   clean (pre-noise) ground-truth label. Templates the generator
//!   marks trace-limited are excused, mirroring rules A/B's excuse
//!   surface; disagreements with the *noise-injected* dataset label and
//!   pattern-granularity disagreements (proved `Reduction` on a `DoAll`
//!   truth, both parallel) are counted, not enforced.
//!
//! Everything else is reported, not enforced: disagreements with the
//! dynamic classifier, mismatches against the (noise-injected) dataset
//! label, and the oracle's `Unknown` coverage. The full run audits the
//! paper corpus *and* the opt-in adversarial `Stress` suite (so rule C
//! covers every kernel family) and writes `LINT_report.json` with
//! per-family counters; `--smoke` audits a single seed at `-O0` split
//! across two shards and writes nothing (the CI wiring check, covering
//! the shard merge). `--shards N` overrides the shard count.

use mvgnn_analyze::{analyze_loop, plan_from_report, PlannedPattern, Verdict};
use mvgnn_dataset::{
    base_key, generate_app, noisy_label, CorpusConfig, KernelFamily, PatternKind, ShardPlan,
    Suite,
};
use mvgnn_ir::transform::{optimize, OptLevel};
use mvgnn_profiler::{classify_loop, profile_module};

/// One audited loop (a base loop under one optimisation level).
struct Audited {
    app: &'static str,
    seed: u64,
    level: OptLevel,
    kind: String,
    loop_id: String,
    verdict: Verdict,
    /// Dynamic classifier agrees with the oracle's definite verdict.
    dynamic_agrees: bool,
    /// Noise-injected dataset label (what the model trains on).
    dataset_label: usize,
    /// Ground-truth (pre-noise) label.
    truth_label: usize,
    /// The generator marks this template as invisible to tracing.
    trace_limited: bool,
    /// Kernel family of the loop's template.
    family: KernelFamily,
    /// Binary claim of a proved plan (`None` when nothing is proved).
    plan_binary: Option<usize>,
    /// Proved plan disagrees with the noise-flipped dataset label while
    /// agreeing with the truth (counted, not fatal).
    plan_noisy_disagree: bool,
    /// Proved plan agrees at binary granularity but names a different
    /// pattern than the generator's (counted, not fatal).
    plan_pattern_disagree: bool,
}

struct Violation {
    rule: &'static str,
    detail: String,
}

/// What one shard's audit observed; merged across shards below.
struct ShardAudit {
    shard_id: usize,
    audited: Vec<Audited>,
    violations: Vec<Violation>,
    profile_failures: usize,
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Audit the work units one shard of the plan owns.
fn audit_shard(
    plan: &ShardPlan,
    shard_id: usize,
    levels: &[OptLevel],
    noise_cfg: &CorpusConfig,
) -> ShardAudit {
    let mut audited: Vec<Audited> = Vec::new();
    let mut violations: Vec<Violation> = Vec::new();
    let mut profile_failures = 0usize;

    for &(seed, spec) in plan.units_of(shard_id) {
        let app = generate_app(spec, seed);
        for &level in levels {
            let module = optimize(&app.module, level);
            let res = match profile_module(&module, app.entry, &[]) {
                Ok(r) => r,
                Err(e) => {
                    profile_failures += 1;
                    eprintln!(
                        "[lint] shard {shard_id}: profile failed: {} seed {seed} {level:?}: {e}",
                        app.spec.name
                    );
                    continue;
                }
            };
            for (i, &(f, l, pattern)) in app.loops.iter().enumerate() {
                if !res.loops.contains_key(&(f, l)) {
                    continue; // never executed under this input
                }
                let kind = app.loop_kinds[i];
                let report = analyze_loop(&module, f, l);
                let truth = usize::from(pattern.is_parallelizable());
                let key = base_key(app.spec.name, seed, f, l);
                let label = noisy_label(key, noise_cfg.seed, noise_cfg.label_noise, truth);
                let carried = res.deps.carried_by(f, l);

                // Rule A: a parallel proof excuses only its own
                // reduction chains; any other observed carried
                // dependence falsifies it.
                if report.verdict == Verdict::ProvablyParallel {
                    for d in &carried {
                        if !(report.excused.contains(&d.src)
                            && report.excused.contains(&d.dst))
                        {
                            violations.push(Violation {
                                rule: "A",
                                detail: format!(
                                    "{} seed {seed} {level:?} {kind:?} loop f{}:l{}: \
                                     proved parallel but observed carried {} {} -> {}",
                                    app.spec.name, f.0, l.0, d.kind, d.src, d.dst
                                ),
                            });
                        }
                    }
                }
                // Rule B: a dependence proof on a loop the generator
                // built to be parallelisable is a false proof.
                if report.verdict == Verdict::ProvablyDependent && truth == 1 {
                    violations.push(Violation {
                        rule: "B",
                        detail: format!(
                            "{} seed {seed} {level:?} {kind:?} loop f{}:l{}: \
                             proved dependent but pattern {pattern:?} is parallelisable",
                            app.spec.name, f.0, l.0
                        ),
                    });
                }

                // Rule C: a proved plan must restate the clean truth.
                let plan = plan_from_report(&module, f, l, &report);
                let plan_binary = plan.proved_binary();
                let mut plan_noisy_disagree = false;
                let mut plan_pattern_disagree = false;
                if let Some(pb) = plan_binary {
                    if pb != truth && !kind.trace_limited() {
                        violations.push(Violation {
                            rule: "C",
                            detail: format!(
                                "{} seed {seed} {level:?} {kind:?} loop f{}:l{}: \
                                 proved plan `{}` contradicts clean truth {truth} \
                                 (pattern {pattern:?})",
                                app.spec.name, f.0, l.0, plan.pragma
                            ),
                        });
                    }
                    plan_noisy_disagree = pb == truth && pb != label;
                    let planned_kind = plan.proved_pattern().map(|p| match p {
                        PlannedPattern::DoAll => PatternKind::DoAll,
                        PlannedPattern::Reduction => PatternKind::Reduction,
                        PlannedPattern::Serial => PatternKind::Serial,
                    });
                    plan_pattern_disagree = pb == truth && planned_kind != Some(pattern);
                }

                let dynamic = classify_loop(&module, f, l, &res.deps).is_parallelizable();
                let dynamic_agrees = match report.verdict {
                    Verdict::ProvablyParallel => dynamic,
                    Verdict::ProvablyDependent => !dynamic,
                    Verdict::Unknown => true,
                };
                audited.push(Audited {
                    app: app.spec.name,
                    seed,
                    level,
                    kind: format!("{kind:?}"),
                    loop_id: format!("f{}:l{}", f.0, l.0),
                    verdict: report.verdict,
                    dynamic_agrees,
                    dataset_label: label,
                    truth_label: truth,
                    trace_limited: kind.trace_limited(),
                    family: kind.family(),
                    plan_binary,
                    plan_noisy_disagree,
                    plan_pattern_disagree,
                });
            }
        }
    }
    ShardAudit { shard_id, audited, violations, profile_failures }
}

/// Merge per-shard audits into one report: counters sum, rows re-sort
/// into the canonical order so the result is shard-count invariant.
fn merge(mut shards: Vec<ShardAudit>) -> (Vec<Audited>, Vec<Violation>, usize) {
    shards.sort_by_key(|s| s.shard_id);
    let mut audited: Vec<Audited> = Vec::new();
    let mut violations: Vec<Violation> = Vec::new();
    let mut profile_failures = 0usize;
    for s in shards {
        audited.extend(s.audited);
        violations.extend(s.violations);
        profile_failures += s.profile_failures;
    }
    audited.sort_by(|a, b| {
        (a.seed, a.app, a.level, &a.loop_id).cmp(&(b.seed, b.app, b.level, &b.loop_id))
    });
    violations.sort_by(|a, b| (a.rule, &a.detail).cmp(&(b.rule, &b.detail)));
    (audited, violations, profile_failures)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let num_shards = args
        .iter()
        .position(|a| a == "--shards")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(if smoke { 2 } else { 4 })
        .max(1);
    // The default matches the Default-scale corpus of `pipeline_config`
    // (seeds 1..=2, all six optimisation variants); smoke is one seed at
    // -O0 split over two shards, seconds-scale.
    let (seeds, levels): (Vec<u64>, Vec<OptLevel>) = if smoke {
        (vec![1], vec![OptLevel::O0])
    } else {
        (vec![1, 2], OptLevel::ALL.to_vec())
    };
    let noise_cfg = CorpusConfig::default();
    let plan_cfg = CorpusConfig { seeds: seeds.clone(), suite: None, ..CorpusConfig::default() };
    let plan = ShardPlan::new(&plan_cfg, num_shards);
    // The full audit also covers the opt-in adversarial stress suite, so
    // rule C is exercised on every kernel family, not just the paper
    // corpus' regular-dominated mix.
    let stress_plan = (!smoke).then(|| {
        let cfg = CorpusConfig { seeds, suite: Some(Suite::Stress), ..CorpusConfig::default() };
        ShardPlan::new(&cfg, num_shards)
    });

    let shard_audits: Vec<ShardAudit> = (0..num_shards)
        .map(|s| {
            let mut a = audit_shard(&plan, s, &levels, &noise_cfg);
            if let Some(sp) = &stress_plan {
                let b = audit_shard(sp, s, &levels, &noise_cfg);
                a.audited.extend(b.audited);
                a.violations.extend(b.violations);
                a.profile_failures += b.profile_failures;
            }
            a
        })
        .collect();
    for s in &shard_audits {
        println!(
            "shard {}/{num_shards}: {} loops audited, {} violations, {} profile failures",
            s.shard_id,
            s.audited.len(),
            s.violations.len(),
            s.profile_failures
        );
    }
    let (audited, violations, profile_failures) = merge(shard_audits);

    let total = audited.len();
    let count = |v: Verdict| audited.iter().filter(|a| a.verdict == v).count();
    let (n_par, n_dep, n_unk) = (
        count(Verdict::ProvablyParallel),
        count(Verdict::ProvablyDependent),
        count(Verdict::Unknown),
    );
    let dyn_disagree: Vec<&Audited> = audited.iter().filter(|a| !a.dynamic_agrees).collect();
    let label_mismatch: Vec<&Audited> = audited
        .iter()
        .filter(|a| match a.verdict {
            Verdict::ProvablyParallel => a.dataset_label == 0,
            Verdict::ProvablyDependent => a.dataset_label == 1,
            Verdict::Unknown => false,
        })
        .collect();
    let noise_only = label_mismatch
        .iter()
        .filter(|a| a.dataset_label != a.truth_label)
        .count();
    let plans_proved = audited.iter().filter(|a| a.plan_binary.is_some()).count();
    let plan_noisy = audited.iter().filter(|a| a.plan_noisy_disagree).count();
    let plan_pattern = audited.iter().filter(|a| a.plan_pattern_disagree).count();
    let rule_c_fatals = violations.iter().filter(|v| v.rule == "C").count();

    println!("audited loops:          {total} (merged from {num_shards} shards)");
    println!("  provably parallel:    {n_par}");
    println!("  provably dependent:   {n_dep}");
    println!(
        "  unknown:              {n_unk} ({:.1}% coverage gap)",
        if total == 0 { 0.0 } else { 100.0 * n_unk as f64 / total as f64 }
    );
    println!("dynamic disagreements:  {}", dyn_disagree.len());
    println!("label mismatches:       {} ({noise_only} from injected noise)", label_mismatch.len());
    println!(
        "proved plans:           {plans_proved} ({plan_noisy} vs noisy label, \
         {plan_pattern} pattern-granularity, {rule_c_fatals} rule-C fatal)"
    );
    println!("profile failures:       {profile_failures}");
    println!("soundness violations:   {}", violations.len());
    for v in &violations {
        eprintln!("VIOLATION rule {}: {}", v.rule, v.detail);
    }

    if !smoke {
        let row = |a: &Audited| {
            format!(
                "    {{\"app\": \"{}\", \"seed\": {}, \"level\": \"{:?}\", \"kind\": \"{}\", \
                 \"loop\": \"{}\", \"verdict\": \"{}\", \"dataset_label\": {}, \
                 \"truth_label\": {}, \"trace_limited\": {}}}",
                json_escape(a.app),
                a.seed,
                a.level,
                json_escape(&a.kind),
                a.loop_id,
                a.verdict.as_str(),
                a.dataset_label,
                a.truth_label,
                a.trace_limited
            )
        };
        let viol_rows: Vec<String> = violations
            .iter()
            .map(|v| {
                format!(
                    "    {{\"rule\": \"{}\", \"detail\": \"{}\"}}",
                    v.rule,
                    json_escape(&v.detail)
                )
            })
            .collect();
        let dyn_rows: Vec<String> = dyn_disagree.iter().map(|a| row(a)).collect();
        let label_rows: Vec<String> = label_mismatch.iter().map(|a| row(a)).collect();
        let family_rows: Vec<String> = KernelFamily::ALL
            .iter()
            .map(|fam| {
                let in_family: Vec<&Audited> =
                    audited.iter().filter(|a| a.family == *fam).collect();
                let proved = in_family.iter().filter(|a| a.plan_binary.is_some()).count();
                format!(
                    "    \"{}\": {{\"audited\": {}, \"plans_proved\": {}}}",
                    fam.as_str(),
                    in_family.len(),
                    proved
                )
            })
            .collect();
        let json = format!(
            "{{\n  \"audited\": {total},\n  \"shards\": {num_shards},\n  \
             \"verdicts\": {{\"parallel\": {n_par}, \
             \"dependent\": {n_dep}, \"unknown\": {n_unk}}},\n  \
             \"unknown_rate\": {:.4},\n  \"profile_failures\": {profile_failures},\n  \
             \"plans\": {{\"proved\": {plans_proved}, \
             \"noisy_label_disagreements\": {plan_noisy}, \
             \"pattern_granularity_disagreements\": {plan_pattern}, \
             \"rule_c_fatals\": {rule_c_fatals}}},\n  \
             \"families\": {{\n{}\n  }},\n  \
             \"violations\": [\n{}\n  ],\n  \
             \"dynamic_disagreements\": [\n{}\n  ],\n  \
             \"label_mismatches\": [\n{}\n  ],\n  \
             \"label_mismatches_from_noise\": {noise_only}\n}}\n",
            if total == 0 { 0.0 } else { n_unk as f64 / total as f64 },
            family_rows.join(",\n"),
            viol_rows.join(",\n"),
            dyn_rows.join(",\n"),
            label_rows.join(",\n"),
        );
        mvgnn_bench::or_die(std::fs::write("LINT_report.json", json));
        eprintln!("[lint] wrote LINT_report.json");
    }

    if total == 0 {
        eprintln!("fatal: audited zero loops");
        std::process::exit(1);
    }
    if !violations.is_empty() {
        eprintln!("fatal: {} soundness violation(s)", violations.len());
        std::process::exit(1);
    }
}
