//! # mvgnn-bench — experiment regeneration harness
//!
//! One binary per table/figure of the paper (see DESIGN.md §4), plus the
//! corpus auditors:
//!
//! | target | regenerates |
//! |---|---|
//! | `table1` | Table I — dynamic feature definitions + live values |
//! | `table2` | Table II — per-application loop counts |
//! | `table3` | Table III — accuracy of every model and tool per suite |
//! | `table4` | Table IV — NPB per-app identified parallelisable loops |
//! | `fig7`   | Fig. 7 — training loss/accuracy curves |
//! | `fig8`   | Fig. 8 — view importance per suite |
//! | `ablations` | design-choice ablations from DESIGN.md §6 |
//! | `lint` | corpus label audit: static oracle vs profiler vs labels |
//! | `patterns` | planner and pattern head per adversarial kernel family |
//!
//! Run binaries with `cargo run -p mvgnn-bench --release --bin <name>`;
//! all accept `--paper-scale` (full sizes) and `--quick` (CI sizes)
//! where relevant. Speed is measured by the one gated benchmark,
//! `perfbench/`; the allocation budgets and the cascade's routing gate
//! are tests of this crate (`tests/`).

#![forbid(unsafe_code)]

use mvgnn_core::{PipelineConfig, TrainConfig};
use mvgnn_dataset::CorpusConfig;
use mvgnn_embed::Inst2VecConfig;
use mvgnn_ir::transform::OptLevel;

/// Shared experiment scale selected by CLI flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-scale smoke configuration.
    Quick,
    /// Minutes-scale default (the shape-faithful reproduction).
    Default,
    /// Paper-sized model and dataset (3100 + 3100 target, k = 135).
    Paper,
}

impl Scale {
    /// Parse from argv: `--quick` / `--paper-scale` / default.
    pub fn from_args() -> Scale {
        let args: Vec<String> = std::env::args().collect();
        if args.iter().any(|a| a == "--paper-scale") {
            Scale::Paper
        } else if args.iter().any(|a| a == "--quick") {
            Scale::Quick
        } else {
            Scale::Default
        }
    }
}

/// The pipeline configuration for a scale.
pub fn pipeline_config(scale: Scale) -> PipelineConfig {
    let (seeds, levels, per_class, i2v_dim, epochs): (Vec<u64>, Vec<OptLevel>, usize, usize, usize) =
        match scale {
            Scale::Quick => (vec![1], vec![OptLevel::O0], 60, 16, 8),
            Scale::Default => (vec![1, 2], OptLevel::ALL.to_vec(), 500, 48, 70),
            Scale::Paper => (vec![1, 2, 3, 4, 5, 6], OptLevel::ALL.to_vec(), 3100, 200, 90),
        };
    PipelineConfig {
        corpus: CorpusConfig {
            seeds,
            opt_levels: levels,
            per_class: Some(per_class),
            test_fraction: 0.25,
            suite: None,
            inst2vec: Inst2VecConfig {
                dim: i2v_dim,
                epochs: if scale == Scale::Quick { 1 } else { 3 },
                negatives: 4,
                lr: 0.05,
                seed: 0x1257,
            },
            sample: Default::default(),
            seed: 0xda7a,
            label_noise: 0.03,
            static_features: false,
        },
        train: TrainConfig { epochs, batch_size: 16, ..Default::default() },
        paper_scale: scale == Scale::Paper,
        ncc: Default::default(),
        run_ncc: true,
        restarts: if scale == Scale::Quick { 1 } else { 3 },
    }
}

/// Unwrap a fallible pipeline/training step or exit the benchmark binary
/// with the error on stderr (benchmarks have no recovery path to offer).
pub fn or_die<T, E: std::fmt::Display>(result: Result<T, E>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("fatal: {e}");
        std::process::exit(1);
    })
}

/// Print a Markdown-ish table row.
pub fn print_row(cols: &[String], widths: &[usize]) {
    let cells: Vec<String> =
        cols.iter().zip(widths).map(|(c, &w)| format!("{c:<w$}")).collect();
    println!("| {} |", cells.join(" | "));
}

/// Print a rule matching the widths.
pub fn print_rule(widths: &[usize]) {
    let cells: Vec<String> = widths.iter().map(|&w| "-".repeat(w)).collect();
    println!("|-{}-|", cells.join("-|-"));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_build_configs() {
        for scale in [Scale::Quick, Scale::Default, Scale::Paper] {
            let cfg = pipeline_config(scale);
            assert!(!cfg.corpus.seeds.is_empty());
            assert!(cfg.train.epochs > 0);
        }
        assert!(pipeline_config(Scale::Paper).paper_scale);
        assert_eq!(pipeline_config(Scale::Paper).corpus.per_class, Some(3100));
    }
}
