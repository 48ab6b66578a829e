//! Property-based tests over the core data structures and invariants.

use mvgnn::graph::{algo, anonymous_walk, Csr};
use mvgnn::ir::inst::BinOp;
use mvgnn::ir::interp::{Interpreter, NoTracer};
use mvgnn::ir::text::{parse_module, print_module};
use mvgnn::ir::transform::{optimize, OptLevel};
use mvgnn::ir::types::{Ty, Value};
use mvgnn::ir::verify::verify_module;
use mvgnn::ir::{FunctionBuilder, Module};
use proptest::prelude::*;

/// Arbitrary edge list over `n` nodes.
fn edges_strategy(max_n: usize) -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (2usize..max_n).prop_flat_map(|n| {
        let edge = (0..n as u32, 0..n as u32);
        (Just(n), proptest::collection::vec(edge, 0..n * 3))
    })
}

proptest! {
    /// Every edge is visible from the forward CSR.
    #[test]
    fn csr_edge_membership((n, edges) in edges_strategy(32)) {
        let csr = Csr::from_edges(n, &edges);
        for &(s, d) in &edges {
            prop_assert!(csr.contains_edge(s, d));
        }
    }

    /// Anonymous walks are valid restricted-growth strings.
    #[test]
    fn anonymous_walks_are_restricted_growth(walk in proptest::collection::vec(0u32..16, 1..12)) {
        let aw = anonymous_walk(&walk);
        prop_assert_eq!(aw.len(), walk.len());
        prop_assert_eq!(aw[0], 0);
        let mut max = 0u8;
        for &x in &aw[1..] {
            prop_assert!(x <= max + 1);
            max = max.max(x);
        }
        // Re-anonymising an anonymous walk is the identity.
        let back: Vec<u32> = aw.iter().map(|&x| x as u32).collect();
        prop_assert_eq!(anonymous_walk(&back), aw);
    }

    /// The critical path of a DAG is bounded by node count − 1 and the
    /// topological order exists exactly when Tarjan finds no cycles.
    #[test]
    fn critical_path_and_scc_agree((n, edges) in edges_strategy(24)) {
        // Drop self-loops to test the pure-DAG relationship too.
        let csr = Csr::from_edges(n, &edges);
        let scc = algo::tarjan_scc(&csr);
        let has_cycle = scc.component_count < n
            || edges.iter().any(|&(s, d)| s == d);
        let topo = algo::topological_order(&csr);
        if !has_cycle {
            prop_assert!(topo.is_some(), "acyclic graph must have a topo order");
            prop_assert!(algo::critical_path_len(&csr) <= (n as u32).saturating_sub(1));
        } else if edges.iter().all(|&(s, d)| s != d) && scc.component_count < n {
            prop_assert!(topo.is_none(), "cyclic graph must not have a topo order");
        }
    }
}

/// A random straight-line + single-loop program for differential tests.
fn random_program(ops: &[u8], n: i64) -> (Module, mvgnn::ir::module::FuncId) {
    let mut m = Module::new("prop");
    let a = m.add_array("a", Ty::F64, n as usize);
    let out = m.add_array("b", Ty::F64, n as usize);
    let mut b = FunctionBuilder::new(&mut m, "main", 0);
    let lo = b.const_i64(0);
    let hi = b.const_i64(n);
    let st = b.const_i64(1);
    let seedv = b.const_f64(1.5);
    b.store(a, lo, seedv);
    b.for_loop(lo, hi, st, |b, iv| {
        let mut x = b.load(a, iv);
        for &op in ops {
            let o = match op % 4 {
                0 => BinOp::Add,
                1 => BinOp::Mul,
                2 => BinOp::Sub,
                _ => BinOp::Max,
            };
            x = b.bin(o, x, x);
        }
        b.store(out, iv, x);
    });
    let v = b.load(out, lo);
    b.ret(Some(v));
    let f = b.finish();
    (m, f)
}

fn run(m: &Module, f: mvgnn::ir::module::FuncId) -> Option<Value> {
    Interpreter::new(m).run(f, &[], &mut NoTracer).expect("runs").0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Textual round-trip preserves observable behaviour.
    #[test]
    fn text_roundtrip_preserves_behaviour(ops in proptest::collection::vec(any::<u8>(), 1..8), n in 4i64..24) {
        let (m, f) = random_program(&ops, n);
        verify_module(&m).unwrap();
        let m2 = parse_module(&print_module(&m)).expect("parses");
        verify_module(&m2).unwrap();
        prop_assert_eq!(run(&m, f), run(&m2, f));
    }

    /// Every optimisation level preserves observable behaviour.
    #[test]
    fn optimisation_preserves_behaviour(ops in proptest::collection::vec(any::<u8>(), 1..8), n in 4i64..24) {
        let (m, f) = random_program(&ops, n);
        let expect = run(&m, f);
        for level in OptLevel::ALL {
            let opt = optimize(&m, level);
            verify_module(&opt).unwrap();
            prop_assert_eq!(run(&opt, f), expect, "{:?} changed behaviour", level);
        }
    }
}
