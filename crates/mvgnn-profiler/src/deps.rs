//! Data-dependence records and the dependence graph.

use mvgnn_ir::module::{FuncId, LoopId};
use mvgnn_ir::InstRef;
use serde::{Deserialize, Serialize};
use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::OnceLock;

/// Kind of a data dependence between two memory accesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum DepKind {
    /// Read-after-write (true/flow dependence).
    Raw,
    /// Write-after-read (anti dependence).
    War,
    /// Write-after-write (output dependence).
    Waw,
}

impl std::fmt::Display for DepKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DepKind::Raw => write!(f, "RAW"),
            DepKind::War => write!(f, "WAR"),
            DepKind::Waw => write!(f, "WAW"),
        }
    }
}

/// A static dependence edge aggregated over the whole execution.
///
/// `src` is the *earlier* access (the source of the constraint), `dst` the
/// later one, matching DiscoPoP's `⟨SINK, TYPE, SOURCE⟩` triples read
/// right-to-left.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Dependence {
    /// Earlier access instruction.
    pub src: InstRef,
    /// Later access instruction.
    pub dst: InstRef,
    /// Dependence kind.
    pub kind: DepKind,
    /// How many dynamic instances were observed.
    pub count: u64,
    /// Loops (innermost set) that carried at least one instance: source and
    /// sink sat in different iterations of that loop.
    pub carried_by: BTreeSet<(FuncId, LoopId)>,
    /// True if at least one instance was loop-independent (same iteration
    /// of every common enclosing loop).
    pub loop_independent: bool,
}

/// FxHash-style hasher for the edge index: one rotate, xor and multiply
/// per word. The keys are a few small integers from the profiled
/// program, so SipHash's resistance to chosen keys buys nothing on a
/// path the profiler takes for every recorded dependence. No output
/// depends on hash order: [`DepGraph::iter`] sorts.
#[derive(Debug, Clone, Copy, Default)]
struct EdgeHasher(u64);

impl EdgeHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for EdgeHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // The table indexes buckets by the low bits; the multiply leaves
        // its best-mixed bits at the top.
        self.0.rotate_left(26)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.add(u64::from(x));
    }

    #[inline]
    fn write_usize(&mut self, x: usize) {
        self.add(x as u64);
    }
}

/// Aggregated dependence graph for one profiled execution.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct DepGraph {
    /// Every distinct edge, in first-recorded order.
    deps: Vec<Dependence>,
    /// Position in `deps` of each `(src, dst, kind)` edge.
    index: HashMap<(InstRef, InstRef, DepKind), u32, BuildHasherDefault<EdgeHasher>>,
    /// Positions in `deps` in ascending `(src, dst, kind)` order, sorted
    /// by the first iteration after the last [`DepGraph::record`], so a
    /// finished profile is sorted once however often it is iterated.
    order: OnceLock<Vec<u32>>,
}

impl DepGraph {
    /// Create an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one dynamic dependence instance.
    pub fn record(
        &mut self,
        src: InstRef,
        dst: InstRef,
        kind: DepKind,
        carried: Option<(FuncId, LoopId)>,
    ) {
        let pos = match self.index.entry((src, dst, kind)) {
            Entry::Occupied(e) => *e.get() as usize,
            Entry::Vacant(e) => {
                e.insert(self.deps.len() as u32);
                self.deps.push(Dependence {
                    src,
                    dst,
                    kind,
                    count: 0,
                    carried_by: BTreeSet::new(),
                    loop_independent: false,
                });
                self.order.take();
                self.deps.len() - 1
            }
        };
        let entry = &mut self.deps[pos];
        entry.count += 1;
        match carried {
            Some(l) => {
                entry.carried_by.insert(l);
            }
            None => entry.loop_independent = true,
        }
    }

    /// Number of distinct static dependence edges.
    pub fn len(&self) -> usize {
        self.deps.len()
    }

    /// True when no dependence was observed.
    pub fn is_empty(&self) -> bool {
        self.deps.is_empty()
    }

    /// Iterate all dependences in ascending `(src, dst, kind)` order.
    pub fn iter(&self) -> impl Iterator<Item = &Dependence> {
        let order = self.order.get_or_init(|| {
            let mut order: Vec<u32> = (0..self.deps.len() as u32).collect();
            order.sort_unstable_by_key(|&i| {
                let d = &self.deps[i as usize];
                (d.src, d.dst, d.kind)
            });
            order
        });
        order.iter().map(|&i| &self.deps[i as usize])
    }

    /// All dependences carried by the given loop.
    pub fn carried_by(&self, func: FuncId, l: LoopId) -> Vec<&Dependence> {
        self.iter().filter(|d| d.carried_by.contains(&(func, l))).collect()
    }

    /// Look up one edge.
    pub fn get(&self, src: InstRef, dst: InstRef, kind: DepKind) -> Option<&Dependence> {
        self.index.get(&(src, dst, kind)).map(|&i| &self.deps[i as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvgnn_ir::module::BlockId;

    fn r(i: u32) -> InstRef {
        InstRef { func: FuncId(0), block: BlockId(0), idx: i }
    }

    #[test]
    fn record_aggregates_counts() {
        let mut g = DepGraph::new();
        g.record(r(0), r(1), DepKind::Raw, None);
        g.record(r(0), r(1), DepKind::Raw, Some((FuncId(0), LoopId(0))));
        g.record(r(0), r(1), DepKind::War, None);
        assert_eq!(g.len(), 2);
        let d = g.get(r(0), r(1), DepKind::Raw).unwrap();
        assert_eq!(d.count, 2);
        assert!(d.loop_independent);
        assert!(d.carried_by.contains(&(FuncId(0), LoopId(0))));
    }

    #[test]
    fn carried_by_filters() {
        let mut g = DepGraph::new();
        g.record(r(0), r(1), DepKind::Raw, Some((FuncId(0), LoopId(0))));
        g.record(r(2), r(3), DepKind::Waw, Some((FuncId(0), LoopId(1))));
        g.record(r(4), r(5), DepKind::War, None);
        assert_eq!(g.carried_by(FuncId(0), LoopId(0)).len(), 1);
        assert_eq!(g.carried_by(FuncId(0), LoopId(1)).len(), 1);
        assert_eq!(g.carried_by(FuncId(1), LoopId(0)).len(), 0);
    }

    #[test]
    fn iteration_is_deterministic() {
        let mut g = DepGraph::new();
        g.record(r(5), r(6), DepKind::Raw, None);
        g.record(r(1), r(2), DepKind::Raw, None);
        g.record(r(3), r(4), DepKind::Waw, None);
        let order: Vec<u32> = g.iter().map(|d| d.src.idx).collect();
        assert_eq!(order, vec![1, 3, 5]);
    }

    #[test]
    fn cached_order_matches_a_fresh_sort_across_records() {
        // The collect-and-sort every `iter` call used to do, as the
        // reference order.
        fn reference(g: &DepGraph) -> Vec<(InstRef, InstRef, DepKind)> {
            let mut v: Vec<_> = g.deps.iter().map(|d| (d.src, d.dst, d.kind)).collect();
            v.sort();
            v
        }
        let kinds = [DepKind::Raw, DepKind::War, DepKind::Waw];
        let at = |f: u32, b: u32, i: u32| InstRef { func: FuncId(f), block: BlockId(b), idx: i };
        let mut g = DepGraph::new();
        let mut z = 0x9e37_79b9_7f4a_7c15u64;
        for round in 0..6 {
            for _ in 0..40 {
                z ^= z << 13;
                z ^= z >> 7;
                z ^= z << 17;
                let v = |shift: u32, m: u64| ((z >> shift) % m) as u32;
                let carried = z.is_multiple_of(3).then_some((FuncId(v(3, 2)), LoopId(v(5, 3))));
                g.record(
                    at(v(7, 2), v(9, 3), v(11, 5)),
                    at(v(13, 2), v(15, 3), v(17, 5)),
                    kinds[v(19, 3) as usize],
                    carried,
                );
            }
            let got: Vec<_> = g.iter().map(|d| (d.src, d.dst, d.kind)).collect();
            assert_eq!(got, reference(&g), "round {round}");
            // A second pass reuses the cached order.
            assert_eq!(g.iter().count(), g.len());
            for d in g.iter() {
                assert_eq!(g.get(d.src, d.dst, d.kind), Some(d));
            }
        }
    }

    #[test]
    fn kind_display() {
        assert_eq!(DepKind::Raw.to_string(), "RAW");
        assert_eq!(DepKind::War.to_string(), "WAR");
        assert_eq!(DepKind::Waw.to_string(), "WAW");
    }
}
