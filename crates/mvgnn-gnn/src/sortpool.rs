//! SortPooling row ordering (Zhang et al., AAAI'18).
//!
//! Nodes are ranked by their final graph-convolution channel — a
//! continuous Weisfeiler-Lehman colour — so graphs of arbitrary size map
//! to a fixed k-row tensor. Ties break by node index for determinism.

/// Compute the SortPooling row order: indices of the rows of `keys`
/// sorted descending, truncated to `k`. `keys` is one value per node (the
/// last channel of the final GCN layer). NaN keys (a damaged model) get a
/// deterministic total order rather than a panic — the non-finite logits
/// they produce are rejected downstream.
pub fn sort_order(keys: &[f32], k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..keys.len()).collect();
    idx.sort_by(|&a, &b| keys[b].total_cmp(&keys[a]).then(a.cmp(&b)));
    idx.truncate(k);
    idx
}

/// Batched SortPooling orders over a packed key vector, written into
/// caller-provided buffers so pooled hot paths allocate nothing.
/// `offsets` (length `batch + 1`) delimits each graph's rows; within a
/// segment the ranking is exactly [`sort_order`] on that segment's keys
/// (ties break by *local* node index, so a graph's order is independent
/// of where it sits in the batch). `pairs` is cleared and filled with
/// `(dst, src)` row pairs addressing a `batch · k` row output: graph
/// `g`'s rank-`r` node lands on row `g·k + r`; rows of graphs with fewer
/// than `k` nodes are simply absent (zero padding). `scratch` holds the
/// per-segment index permutation (cleared and reused per segment).
pub fn sort_order_segments_into(
    keys: &[f32],
    offsets: &[usize],
    k: usize,
    scratch: &mut Vec<usize>,
    pairs: &mut Vec<(usize, usize)>,
) {
    assert!(offsets.len() >= 2, "offsets needs at least one segment");
    assert_eq!(offsets[offsets.len() - 1], keys.len(), "offsets must cover keys");
    let batch = offsets.len() - 1;
    pairs.clear();
    for g in 0..batch {
        let (lo, hi) = (offsets[g], offsets[g + 1]);
        let seg = &keys[lo..hi];
        scratch.clear();
        scratch.extend(0..seg.len());
        // Unstable sort allocates nothing; the index tie-break makes the
        // comparator injective, so the order is identical to a stable
        // sort anyway.
        scratch.sort_unstable_by(|&a, &b| seg[b].total_cmp(&seg[a]).then(a.cmp(&b)));
        for (rank, &local) in scratch.iter().take(k).enumerate() {
            pairs.push((g * k + rank, lo + local));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`sort_order_segments_into`] over fresh buffers.
    fn sort_order_segments(keys: &[f32], offsets: &[usize], k: usize) -> Vec<(usize, usize)> {
        let mut pairs = Vec::new();
        sort_order_segments_into(keys, offsets, k, &mut Vec::new(), &mut pairs);
        pairs
    }

    #[test]
    fn sorts_descending() {
        assert_eq!(sort_order(&[0.1, 0.9, 0.5], 3), vec![1, 2, 0]);
    }

    #[test]
    fn truncates_to_k() {
        assert_eq!(sort_order(&[0.1, 0.9, 0.5, 0.7], 2), vec![1, 3]);
    }

    #[test]
    fn fewer_nodes_than_k_keeps_all() {
        assert_eq!(sort_order(&[0.3, 0.2], 5), vec![0, 1]);
    }

    #[test]
    fn ties_break_by_index() {
        assert_eq!(sort_order(&[0.5, 0.5, 0.5], 3), vec![0, 1, 2]);
    }

    #[test]
    fn empty_input_is_fine() {
        assert!(sort_order(&[], 4).is_empty());
    }

    #[test]
    fn nan_keys_do_not_panic_and_stay_deterministic() {
        let keys = [0.5, f32::NAN, 0.7, f32::NAN];
        assert_eq!(sort_order(&keys, 4), sort_order(&keys, 4));
        assert_eq!(sort_order(&keys, 4).len(), 4);
    }

    #[test]
    fn reused_buffers_match_fresh_ones() {
        let keys = [0.1, 0.9, 0.5, 0.7, 0.2];
        let offsets = [0usize, 3, 5];
        let mut scratch = vec![7, 7, 7, 7, 7, 7];
        let mut pairs = vec![(9, 9)];
        sort_order_segments_into(&keys, &offsets, 2, &mut scratch, &mut pairs);
        assert_eq!(pairs, sort_order_segments(&keys, &offsets, 2));
        // Reused buffers are cleared per call; stale contents never leak.
        sort_order_segments_into(&[0.3, 0.1], &[0, 2], 1, &mut scratch, &mut pairs);
        assert_eq!(pairs, vec![(0, 0)]);
    }

    #[test]
    fn segments_match_per_graph_sort_order() {
        let keys = [0.1, 0.9, 0.5, /* | */ 0.7, 0.2];
        let offsets = [0usize, 3, 5];
        let pairs = sort_order_segments(&keys, &offsets, 2);
        // graph 0: sort_order([0.1,0.9,0.5],2) = [1,2] -> dst 0,1
        // graph 1: sort_order([0.7,0.2],2) = [0,1] -> dst 2,3 src 3,4
        assert_eq!(pairs, vec![(0, 1), (1, 2), (2, 3), (3, 4)]);
    }

    #[test]
    fn short_segments_leave_padding_rows_unassigned() {
        let keys = [0.4, /* | */ 0.8, 0.6, 0.1];
        let offsets = [0usize, 1, 4];
        let pairs = sort_order_segments(&keys, &offsets, 3);
        // graph 0 has 1 node -> only dst row 0; rows 1,2 stay zero-padded.
        assert_eq!(pairs, vec![(0, 0), (3, 1), (4, 2), (5, 3)]);
    }

    #[test]
    fn ties_break_by_local_index_regardless_of_position() {
        // The same all-tied graph placed first or second must produce the
        // same local ranking — batch position cannot leak into the order.
        let solo = sort_order(&[0.5, 0.5, 0.5], 3);
        let pairs = sort_order_segments(&[1.0, 0.5, 0.5, 0.5], &[0, 1, 4], 3);
        let locals: Vec<usize> =
            pairs.iter().filter(|(d, _)| *d >= 3).map(|(_, s)| s - 1).collect();
        assert_eq!(locals, solo);
    }
}
