//! Source-language → IR → profiler → suggestion pipeline, end to end.

use mvgnn::core::suggest::{annotate_function, Suggestion};
use mvgnn::ir::interp::{Interpreter, NoTracer};
use mvgnn::ir::types::Value;
use mvgnn::lang::{compile, print_program, parse, tokenize};
use mvgnn::profiler::profile_module;

const KERNELS: &str = r#"
array a[64]: f64;
array b[64]: f64;
array c[64]: f64;
array sum[1]: f64;
array hist[8]: i64;
array key[64]: i64;

fn saxpy() {
    for i in 0..64 {
        c[i] = 2.5 * a[i] + b[i];
    }
}

fn total() {
    for i in 0..64 {
        sum[0] = sum[0] + c[i];
    }
}

fn histogram() {
    for i in 0..64 {
        key[i] = i % 8;
    }
    for i in 0..64 {
        hist[key[i]] = hist[key[i]] + 1;
    }
}

fn smooth_in_place() {
    for i in 1..63 {
        a[i] = a[i - 1] * 0.5 + a[i + 1] * 0.5;
    }
}

fn main() {
    saxpy();
    total();
    histogram();
    smooth_in_place();
}
"#;

#[test]
fn mini_language_kernels_get_correct_suggestions() {
    let module = compile(KERNELS).expect("compiles");
    let entry = module.func_by_name("main").unwrap();
    let result = profile_module(&module, entry, &[]).expect("runs");

    let expect: &[(&str, &[&str])] = &[
        ("saxpy", &["#pragma omp parallel for"]),
        ("total", &["reduction(+:sum)"]),
        ("histogram", &["#pragma omp parallel for", "reduction(+:hist)"]),
        ("smooth_in_place", &[""]), // sequential
    ];
    for (fname, wants) in expect {
        let f = module.func_by_name(fname).unwrap();
        let anns = annotate_function(&module, f, &result.deps);
        assert_eq!(anns.len(), wants.len(), "{fname}: loop count");
        for ((_, l, suggestion), want) in anns.iter().zip(*wants) {
            match suggestion {
                Suggestion::Sequential(_) => {
                    assert!(want.is_empty(), "{fname} loop {l:?} should be parallel")
                }
                s => assert!(
                    s.pragma().contains(want),
                    "{fname} loop {l:?}: `{}` should contain `{want}`",
                    s.pragma()
                ),
            }
        }
    }
}

#[test]
fn compiled_program_executes_correctly() {
    let src = "array a[10]: i64;
        fn main() {
            let acc = 0;
            for i in 0..10 { a[i] = i * i; }
            for i in 0..10 { acc = acc + a[i]; }
            return acc;
        }";
    let m = compile(src).unwrap();
    let f = m.func_by_name("main").unwrap();
    let (ret, stats) = Interpreter::new(&m).run(f, &[], &mut NoTracer).unwrap();
    assert_eq!(ret, Some(Value::I64(285))); // Σ i² for i in 0..10
    assert!(stats.loads >= 10 && stats.stores >= 10);
}

#[test]
fn printer_output_recompiles_to_same_behaviour() {
    let module1 = compile(KERNELS).unwrap();
    let ast = parse(&tokenize(KERNELS).unwrap()).unwrap();
    let printed = print_program(&ast);
    let module2 = compile(&printed).expect("printed source recompiles");
    let f1 = module1.func_by_name("main").unwrap();
    let f2 = module2.func_by_name("main").unwrap();
    let r1 = Interpreter::new(&module1).run(f1, &[], &mut NoTracer).unwrap();
    let r2 = Interpreter::new(&module2).run(f2, &[], &mut NoTracer).unwrap();
    assert_eq!(r1.0, r2.0);
    assert_eq!(r1.1.loads, r2.1.loads);
    assert_eq!(r1.1.stores, r2.1.stores);
}

#[test]
fn frontend_loops_feed_the_model_sample_path() {
    use mvgnn::embed::{build_sample, Inst2Vec, Inst2VecConfig, SampleConfig};
    use mvgnn::ir::module::{FuncId, LoopId};
    use mvgnn::peg::{build_peg, loop_subpeg};
    use mvgnn::profiler::{build_cus, loop_features};

    let module = compile(KERNELS).unwrap();
    let entry = module.func_by_name("main").unwrap();
    let result = profile_module(&module, entry, &[]).unwrap();
    let cus = build_cus(&module);
    let peg = build_peg(&module, &cus, &result.deps);
    let i2v = Inst2Vec::train(
        &[&module],
        &Inst2VecConfig { dim: 12, epochs: 1, negatives: 2, lr: 0.05, seed: 1 },
    );
    let mut samples = 0;
    let all_loops = module.funcs.iter().enumerate().flat_map(|(f, fun)| {
        (0..fun.loops.len()).map(move |l| (FuncId(f as u32), LoopId(l as u32)))
    });
    for (func, l) in all_loops {
        let sub = loop_subpeg(&peg, &module, &cus, func, l);
        let runtime = result.loops.get(&(func, l)).copied().unwrap_or_default();
        let feats = loop_features(&module, func, l, &result.deps, &runtime);
        let s = build_sample(&sub, &i2v, &feats, &SampleConfig::default(), None);
        assert!(s.n > 0);
        assert_eq!(s.node_feats.len(), s.n * s.node_dim);
        samples += 1;
    }
    assert_eq!(samples, 5, "five loops across the kernels");
}
