//! Dynamic loop features — the paper's Table I vector.
//!
//! | feature        | description                                      |
//! |----------------|--------------------------------------------------|
//! | `n_inst`       | static IR instructions within the loop           |
//! | `exec_times`   | total iterations observed                        |
//! | `cfl`          | critical path length of the loop dep graph      |
//! | `esp`          | estimated speedup (work/span with width cap)     |
//! | `incoming_dep` | dependences entering the loop from outside       |
//! | `internal_dep` | dependences between loop instructions            |
//! | `outgoing_dep` | dependences leaving the loop                     |

use crate::deps::DepGraph;
use crate::profiler::LoopRuntime;
use mvgnn_graph::{algo, Csr};
use mvgnn_ir::inst::InstRef;
use mvgnn_ir::module::{BlockId, FuncId, LoopId, Module};
use serde::{Deserialize, Serialize};

/// The Table I feature vector for one loop.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DynamicFeatures {
    /// Number of IR instructions within the loop (static).
    pub n_inst: u32,
    /// Total number of times the loop body executed.
    pub exec_times: u64,
    /// Critical path length over the loop's dependence graph (register
    /// def-use + observed memory dependences; carried edges close cycles,
    /// which serialise through SCC contraction).
    pub cfl: u32,
    /// Estimated speedup: dynamic work divided by the Brent bound
    /// `max(span, work / width)`.
    pub esp: f64,
    /// Dependences with the source outside the loop and the sink inside.
    pub incoming_dep: u32,
    /// Dependences with both endpoints inside the loop.
    pub internal_dep: u32,
    /// Dependences with the source inside the loop and the sink outside.
    pub outgoing_dep: u32,
}

impl DynamicFeatures {
    /// Flatten into the fixed-order f32 vector consumed by the model
    /// (log-scaled counters so magnitudes stay comparable).
    pub fn to_vec(&self) -> [f32; 7] {
        [
            (self.n_inst as f32).ln_1p(),
            (self.exec_times as f32).ln_1p(),
            (self.cfl as f32).ln_1p(),
            (self.esp as f32).ln_1p(),
            (self.incoming_dep as f32).ln_1p(),
            (self.internal_dep as f32).ln_1p(),
            (self.outgoing_dep as f32).ln_1p(),
        ]
    }

    /// Number of features (dimension of [`Self::to_vec`]).
    pub const DIM: usize = 7;
}

/// Marks an instruction outside the loop in `loop_features`' dense map.
const OUTSIDE: u32 = u32::MAX;

/// Compute the Table I features for one loop.
pub fn loop_features(
    module: &Module,
    func: FuncId,
    l: LoopId,
    deps: &DepGraph,
    runtime: &LoopRuntime,
) -> DynamicFeatures {
    let f = &module.funcs[func.index()];
    // Dense per-function instruction indices are offsets into the
    // function's flat code, so ascending dense index is ascending
    // `InstRef` order. `node[i]` is the loop dependence graph node of
    // instruction i — nodes are numbered in that same order — or OUTSIDE.
    let mut node = vec![OUTSIDE; f.inst_count()];
    // Each loop block with the node number of its first instruction.
    let mut blocks: Vec<(BlockId, u32)> = Vec::new();
    let mut n_nodes = 0u32;
    for b in f.loop_blocks(l).into_iter().filter(|b| b.index() < f.num_blocks()) {
        blocks.push((b, n_nodes));
        for slot in &mut node[f.block_range(b)] {
            *slot = n_nodes;
            n_nodes += 1;
        }
    }
    let node_of = |r: InstRef| -> Option<u32> {
        if r.func != func || r.block.index() >= f.num_blocks() {
            return None;
        }
        let range = f.block_range(r.block);
        let i = range.start + r.idx as usize;
        (i < range.end && node[i] != OUTSIDE).then(|| node[i])
    };
    let loop_insts = || blocks.iter().flat_map(|&(b, first)| (first..).zip(f.block(b).insts));

    // Loop dependence graph: nodes = static insts inside the loop; edges =
    // register def-use + observed memory deps.
    let mut edges: Vec<(u32, u32)> = Vec::new();
    // Register def-use inside the loop (flow-insensitive): every def of a
    // register reaches every use of it. `defs` holds (register, node).
    let mut defs: Vec<(u32, u32)> =
        loop_insts().filter_map(|(i, inst)| Some((inst.def()?.0, i))).collect();
    defs.sort_unstable();
    for (ui, inst) in loop_insts() {
        for u in f.uses(inst) {
            let lo = defs.partition_point(|&(reg, _)| reg < u.0);
            for &(_, di) in defs[lo..].iter().take_while(|&&(reg, _)| reg == u.0) {
                if di != ui {
                    edges.push((di, ui));
                }
            }
        }
    }
    // One pass over the dependences: the census, the memory edges
    // observed inside the loop, and whether the loop carries any.
    let mut incoming = 0u32;
    let mut internal = 0u32;
    let mut outgoing = 0u32;
    let mut carried = false;
    for d in deps.iter() {
        match (node_of(d.src), node_of(d.dst)) {
            (Some(s), Some(t)) => {
                internal += 1;
                if s != t {
                    edges.push((s, t));
                }
            }
            (None, Some(_)) => incoming += 1,
            (Some(_), None) => outgoing += 1,
            (None, None) => {}
        }
        carried = carried || d.carried_by.contains(&(func, l));
    }
    edges.sort_unstable();
    edges.dedup();
    let csr = Csr::from_edges(n_nodes as usize, &edges);
    let cfl = algo::critical_path_len(&csr);
    let width = algo::max_level_width(&csr).max(1);

    // Work/span estimate. A loop whose dependence graph is carried
    // (cyclic) serialises across iterations; otherwise iterations overlap
    // and the span is one iteration's critical path.
    let iterations = runtime.iterations.max(1);
    let work = runtime.dyn_insts.max(1) as f64;
    // Parallel width: a carried loop only exposes its intra-iteration
    // width; an independent loop multiplies that by the iteration count.
    let (span, eff_width) = if carried {
        ((iterations as f64) * (cfl.max(1) as f64), width as f64)
    } else {
        (cfl.max(1) as f64, (width as f64) * (iterations as f64))
    };
    let brent = span.max(work / eff_width);
    let esp = (work / brent).clamp(1.0, 1.0e6);

    DynamicFeatures {
        n_inst: n_nodes,
        exec_times: runtime.iterations,
        cfl,
        esp,
        incoming_dep: incoming,
        internal_dep: internal,
        outgoing_dep: outgoing,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiler::profile_module;
    use std::collections::{HashMap, HashSet};
    use mvgnn_ir::inst::BinOp;
    use mvgnn_ir::types::Ty;
    use mvgnn_ir::{FunctionBuilder, Module};

    fn doall(n: i64) -> (Module, FuncId, LoopId) {
        let mut m = Module::new("doall");
        let a = m.add_array("a", Ty::F64, n as usize);
        let out = m.add_array("b", Ty::F64, n as usize);
        let mut b = FunctionBuilder::new(&mut m, "main", 0);
        let lo = b.const_i64(0);
        let hi = b.const_i64(n);
        let st = b.const_i64(1);
        let l = b.for_loop(lo, hi, st, |b, iv| {
            let x = b.load(a, iv);
            let y = b.bin(BinOp::Mul, x, x);
            b.store(out, iv, y);
        });
        let f = b.finish();
        (m, f, l)
    }

    fn recurrence(n: i64) -> (Module, FuncId, LoopId) {
        let mut m = Module::new("rec");
        let a = m.add_array("a", Ty::I64, n as usize);
        let mut b = FunctionBuilder::new(&mut m, "main", 0);
        let lo = b.const_i64(1);
        let hi = b.const_i64(n);
        let st = b.const_i64(1);
        let one = b.const_i64(1);
        let l = b.for_loop(lo, hi, st, |b, iv| {
            let p = b.bin(BinOp::Sub, iv, one);
            let x = b.load(a, p);
            let y = b.bin(BinOp::Add, x, one);
            b.store(a, iv, y);
        });
        let f = b.finish();
        (m, f, l)
    }

    /// The set of static instructions inside loop `l` of function `func`
    /// (header, body and latch blocks).
    fn loop_inst_set(module: &Module, func: FuncId, l: LoopId) -> HashSet<InstRef> {
        let f = &module.funcs[func.index()];
        let blocks: HashSet<_> = f.loop_blocks(l).into_iter().collect();
        f.insts_with_refs(func)
            .filter(|(r, _, _)| blocks.contains(&r.block))
            .map(|(r, _, _)| r)
            .collect()
    }

    /// The HashSet/HashMap version of [`loop_features`] that sorted the
    /// whole dependence set per call, kept as its bitwise reference.
    fn loop_features_reference(
        module: &Module,
        func: FuncId,
        l: LoopId,
        deps: &DepGraph,
        runtime: &LoopRuntime,
    ) -> DynamicFeatures {
        let f = &module.funcs[func.index()];
        let inside = loop_inst_set(module, func, l);
        let (mut incoming, mut internal, mut outgoing) = (0u32, 0u32, 0u32);
        for d in deps.iter() {
            match (inside.contains(&d.src), inside.contains(&d.dst)) {
                (true, true) => internal += 1,
                (false, true) => incoming += 1,
                (true, false) => outgoing += 1,
                (false, false) => {}
            }
        }
        let mut nodes: Vec<InstRef> = inside.iter().copied().collect();
        nodes.sort_unstable();
        let index: HashMap<InstRef, u32> =
            nodes.iter().enumerate().map(|(i, r)| (*r, i as u32)).collect();
        let mut edges: Vec<(u32, u32)> = Vec::new();
        let mut defs: HashMap<u32, Vec<u32>> = HashMap::new();
        let inst_at: HashMap<InstRef, &mvgnn_ir::Inst> = f
            .insts_with_refs(func)
            .filter(|(r, _, _)| inside.contains(r))
            .map(|(r, inst, _)| (r, inst))
            .collect();
        for (r, inst) in &inst_at {
            if let Some(d) = inst.def() {
                defs.entry(d.0).or_default().push(index[r]);
            }
        }
        for (r, inst) in &inst_at {
            let ui = index[r];
            for u in f.uses(inst) {
                for &di in defs.get(&u.0).into_iter().flatten() {
                    if di != ui {
                        edges.push((di, ui));
                    }
                }
            }
        }
        for d in deps.iter() {
            if let (Some(&s), Some(&t)) = (index.get(&d.src), index.get(&d.dst)) {
                if s != t {
                    edges.push((s, t));
                }
            }
        }
        edges.sort_unstable();
        edges.dedup();
        let csr = Csr::from_edges(nodes.len(), &edges);
        let cfl = algo::critical_path_len(&csr);
        let width = algo::max_level_width(&csr).max(1);
        let iterations = runtime.iterations.max(1);
        let carried = !deps.carried_by(func, l).is_empty();
        let work = runtime.dyn_insts.max(1) as f64;
        let (span, eff_width) = if carried {
            ((iterations as f64) * (cfl.max(1) as f64), width as f64)
        } else {
            (cfl.max(1) as f64, (width as f64) * (iterations as f64))
        };
        let brent = span.max(work / eff_width);
        DynamicFeatures {
            n_inst: inside.len() as u32,
            exec_times: runtime.iterations,
            cfl,
            esp: (work / brent).clamp(1.0, 1.0e6),
            incoming_dep: incoming,
            internal_dep: internal,
            outgoing_dep: outgoing,
        }
    }

    /// A module with nested loops, a guarded in-place stencil, a
    /// reduction, a DOALL sibling, pre- and post-loop accesses and a
    /// callee that touches the same array — dependences inside, into,
    /// out of and across functions.
    fn mixed_module(n: i64) -> Module {
        let mut m = Module::new("mixed");
        let a = m.add_array("a", Ty::I64, (n + 2) as usize);
        let s = m.add_array("s", Ty::I64, 1);
        let out = m.add_array("out", Ty::I64, n as usize);
        let bump = {
            let mut b = FunctionBuilder::new(&mut m, "bump", 1);
            let i = b.param(0);
            let x = b.load(a, i);
            let one = b.const_i64(1);
            let y = b.bin(BinOp::Add, x, one);
            b.store(a, i, y);
            b.ret(None);
            b.finish()
        };
        let mut b = FunctionBuilder::new(&mut m, "main", 0);
        let z = b.const_i64(0);
        let seven = b.const_i64(7);
        b.store(a, z, seven);
        let (lo, hi, st) = (b.const_i64(1), b.const_i64(n), b.const_i64(1));
        b.for_loop(lo, hi, st, |b, i| {
            let one = b.const_i64(1);
            let p = b.bin(BinOp::Sub, i, one);
            let x = b.load(a, p);
            let c = b.bin(BinOp::CmpLt, x, i);
            b.if_then(c, |b| b.store(a, i, x));
            let (lo2, hi2, st2) = (b.const_i64(0), b.const_i64(3), b.const_i64(1));
            b.for_loop(lo2, hi2, st2, |b, j| {
                let acc = b.load(s, z);
                let t = b.bin(BinOp::Add, acc, j);
                b.store(s, z, t);
            });
            b.call_void(bump, &[i]);
        });
        // A DOALL sibling after the carried nest: its own features must
        // not see the nest's carried dependences.
        let (lo, hi, st) = (b.const_i64(0), b.const_i64(n), b.const_i64(1));
        b.for_loop(lo, hi, st, |b, i| {
            let x = b.load(a, i);
            let y = b.bin(BinOp::Mul, x, x);
            b.store(out, i, y);
        });
        let v = b.load(a, z);
        b.ret(Some(v));
        b.finish();
        m
    }

    #[test]
    fn loop_features_match_the_reference_bitwise() {
        use mvgnn_ir::transform::{optimize, OptLevel};
        let mut modules = vec![mixed_module(9), mixed_module(2)];
        for n in [1, 5, 13] {
            modules.push(doall(n).0);
            modules.push(recurrence(n + 1).0);
        }
        let mut checked = 0;
        for base in &modules {
            for level in OptLevel::ALL {
                let m = optimize(base, level);
                let entry = FuncId(m.funcs.len() as u32 - 1);
                let res = profile_module(&m, entry, &[]).unwrap();
                for (fi, func) in m.funcs.iter().enumerate() {
                    for info in &func.loops {
                        let f = FuncId(fi as u32);
                        let Some(rt) = res.loops.get(&(f, info.id)) else { continue };
                        let got = loop_features(&m, f, info.id, &res.deps, rt);
                        let want = loop_features_reference(&m, f, info.id, &res.deps, rt);
                        assert_eq!(got, want, "{} {level:?} loop {:?}", m.name, info.id);
                        assert_eq!(got.esp.to_bits(), want.esp.to_bits());
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked >= 72, "only {checked} loops checked");
    }

    #[test]
    fn feature_vector_dim_matches() {
        let (m, f, l) = doall(8);
        let res = profile_module(&m, f, &[]).unwrap();
        let feats = loop_features(&m, f, l, &res.deps, &res.loops[&(f, l)]);
        assert_eq!(feats.to_vec().len(), DynamicFeatures::DIM);
        assert!(feats.to_vec().iter().all(|x| x.is_finite()));
    }

    #[test]
    fn exec_times_matches_trip_count() {
        let (m, f, l) = doall(23);
        let res = profile_module(&m, f, &[]).unwrap();
        let feats = loop_features(&m, f, l, &res.deps, &res.loops[&(f, l)]);
        assert_eq!(feats.exec_times, 23);
        assert!(feats.n_inst >= 5, "loop should contain several insts: {feats:?}");
    }

    #[test]
    fn doall_esp_far_exceeds_serial_esp() {
        let n = 64;
        let (md, fd, ld) = doall(n);
        let (ms, fs, ls) = recurrence(n);
        let rd = profile_module(&md, fd, &[]).unwrap();
        let rs = profile_module(&ms, fs, &[]).unwrap();
        let fd_feats = loop_features(&md, fd, ld, &rd.deps, &rd.loops[&(fd, ld)]);
        let fs_feats = loop_features(&ms, fs, ls, &rs.deps, &rs.loops[&(fs, ls)]);
        assert!(
            fd_feats.esp > 4.0 * fs_feats.esp,
            "DOALL esp {} vs serial esp {}",
            fd_feats.esp,
            fs_feats.esp
        );
        assert!(fs_feats.esp < 4.0, "serial chain should not predict speedup");
    }

    #[test]
    fn internal_deps_counted_for_recurrence() {
        let (m, f, l) = recurrence(16);
        let res = profile_module(&m, f, &[]).unwrap();
        let feats = loop_features(&m, f, l, &res.deps, &res.loops[&(f, l)]);
        assert!(feats.internal_dep >= 1, "{feats:?}");
    }

    #[test]
    fn incoming_and_outgoing_deps() {
        // init a[0..n] before loop; read a inside; write b inside; read b after.
        let n = 8i64;
        let mut m = Module::new("t");
        let a = m.add_array("a", Ty::F64, n as usize);
        let out = m.add_array("b", Ty::F64, n as usize);
        let mut b = FunctionBuilder::new(&mut m, "main", 0);
        let z = b.const_i64(0);
        let one_f = b.const_f64(1.0);
        b.store(a, z, one_f); // pre-loop write (source of incoming RAW)
        let lo = b.const_i64(0);
        let hi = b.const_i64(n);
        let st = b.const_i64(1);
        let l = b.for_loop(lo, hi, st, |b, iv| {
            let x = b.load(a, iv);
            b.store(out, iv, x);
        });
        let v = b.load(out, z); // post-loop read (sink of outgoing RAW)
        b.ret(Some(v));
        let f = b.finish();
        let res = profile_module(&m, f, &[]).unwrap();
        let feats = loop_features(&m, f, l, &res.deps, &res.loops[&(f, l)]);
        assert!(feats.incoming_dep >= 1, "{feats:?}");
        assert!(feats.outgoing_dep >= 1, "{feats:?}");
    }

    #[test]
    fn cfl_longer_for_serial_chain() {
        let (md, fd, ld) = doall(32);
        let (ms, fs, ls) = recurrence(32);
        let rd = profile_module(&md, fd, &[]).unwrap();
        let rs = profile_module(&ms, fs, &[]).unwrap();
        let c_doall = loop_features(&md, fd, ld, &rd.deps, &rd.loops[&(fd, ld)]).cfl;
        let c_serial = loop_features(&ms, fs, ls, &rs.deps, &rs.loops[&(fs, ls)]).cfl;
        assert!(
            c_serial > c_doall,
            "serial cfl {c_serial} should exceed doall cfl {c_doall}"
        );
    }
}
