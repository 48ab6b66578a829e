//! Fig. 1 narrative: stencil vs reduction parallelisation patterns are
//! separable from graph structure alone. We build both, extract their
//! sub-PEGs, and show that their anonymous-walk distributions disagree
//! exactly where the paper says they should.
//!
//! ```sh
//! cargo run --example stencil_discovery
//! ```

use mvgnn::graph::{AwVocab, Csr, WalkConfig, WalkSampler};
use mvgnn::ir::inst::BinOp;
use mvgnn::ir::types::Ty;
use mvgnn::ir::{FunctionBuilder, Module};
use mvgnn::peg::{build_peg, loop_subpeg};
use mvgnn::profiler::{build_cus, classify_loop, profile_module};

fn main() {
    let mut module = Module::new("fig1");
    let a = module.add_array("a", Ty::F64, 34);
    let out = module.add_array("out", Ty::F64, 34);
    let s = module.add_array("s", Ty::F64, 1);

    let mut b = FunctionBuilder::new(&mut module, "main", 0);
    let lo = b.const_i64(1);
    let hi = b.const_i64(33);
    let st = b.const_i64(1);
    let one = b.const_i64(1);

    // Stencil: out[i] = a[i-1] + a[i] + a[i+1].
    let stencil = b.for_loop(lo, hi, st, |b, i| {
        let im = b.bin(BinOp::Sub, i, one);
        let ip = b.bin(BinOp::Add, i, one);
        let l = b.load(a, im);
        let m = b.load(a, i);
        let r = b.load(a, ip);
        let s1 = b.bin(BinOp::Add, l, m);
        let s2 = b.bin(BinOp::Add, s1, r);
        b.store(out, i, s2);
    });

    // Reduction: s[0] += a[i].
    let zero = b.const_i64(0);
    let reduction = b.for_loop(lo, hi, st, |b, i| {
        let x = b.load(a, i);
        let cur = b.load(s, zero);
        let nxt = b.bin(BinOp::Add, cur, x);
        b.store(s, zero, nxt);
    });
    let entry = b.finish();

    let res = profile_module(&module, entry, &[]).expect("runs");
    let cus = build_cus(&module);
    let peg = build_peg(&module, &cus, &res.deps);

    let vocab = AwVocab::new(4);
    let sampler = WalkSampler::new(WalkConfig { walk_len: 4, walks_per_node: 200, seed: 9 });

    for (name, l) in [("stencil", stencil), ("reduction", reduction)] {
        let class = classify_loop(&module, entry, l, &res.deps);
        let sub = loop_subpeg(&peg, &module, &cus, entry, l);
        let csr = Csr::undirected_from_digraph(&sub.graph);
        let dist = sampler.graph_distribution(&csr, &vocab);
        println!("{name}: {class:?} — {} PEG nodes", sub.graph.node_count());
        println!(
            "    anonymous-walk distribution (l=4): {:?}",
            dist.iter().map(|v| (v * 100.0).round() / 100.0).collect::<Vec<_>>()
        );
    }
    println!("\nThe reduction's carried RAW closes a cycle through its single");
    println!("accumulator cell; the stencil fans three loads into one store.");
    println!("Those are the two shapes in the paper's Fig. 1.");
}
