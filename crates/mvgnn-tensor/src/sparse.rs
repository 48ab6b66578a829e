//! CSR sparse matrices — the GCN propagation operators `Â`.

use crate::workspace::Workspace;
use serde::{Deserialize, Serialize};

/// An immutable CSR sparse matrix of f32 values.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SparseMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<u32>,
    col_idx: Vec<u32>,
    values: Vec<f32>,
}

impl SparseMatrix {
    /// Build from COO triplets `(row, col, value)`; duplicates are summed.
    pub fn from_triplets(rows: usize, cols: usize, triplets: &[(u32, u32, f32)]) -> Self {
        let mut sorted: Vec<(u32, u32, f32)> = triplets.to_vec();
        sorted.sort_by_key(|&(r, c, _)| (r, c));
        // Merge duplicates.
        let mut merged: Vec<(u32, u32, f32)> = Vec::with_capacity(sorted.len());
        for (r, c, v) in sorted {
            assert!((r as usize) < rows && (c as usize) < cols, "triplet out of bounds");
            match merged.last_mut() {
                Some(last) if last.0 == r && last.1 == c => last.2 += v,
                _ => merged.push((r, c, v)),
            }
        }
        let mut row_ptr = Vec::with_capacity(rows + 1);
        let mut col_idx = Vec::with_capacity(merged.len());
        let mut values = Vec::with_capacity(merged.len());
        row_ptr.push(0u32);
        let mut cur_row = 0u32;
        for (r, c, v) in merged {
            while cur_row < r {
                row_ptr.push(col_idx.len() as u32);
                cur_row += 1;
            }
            col_idx.push(c);
            values.push(v);
        }
        while row_ptr.len() < rows + 1 {
            row_ptr.push(col_idx.len() as u32);
        }
        Self { rows, cols, row_ptr, col_idx, values }
    }

    /// Direct sum of matrices: a block-diagonal matrix with the given
    /// blocks on the diagonal, in order. Applying it to a row-packed dense
    /// batch is exactly the per-block products — the batched GCN
    /// propagation operator over packed graphs. The CSR buffers come from
    /// a workspace pool; hand the matrix back with
    /// [`SparseMatrix::recycle`] when the batch is done.
    pub fn block_diag_in(ws: &mut Workspace, blocks: &[&SparseMatrix]) -> Self {
        let nnz: usize = blocks.iter().map(|b| b.nnz()).sum();
        let rows: usize = blocks.iter().map(|b| b.rows).sum();
        let cols: usize = blocks.iter().map(|b| b.cols).sum();
        let mut row_ptr = ws.acquire_u32(rows + 1);
        let mut col_idx = ws.acquire_u32(nnz);
        let mut values = ws.acquire_f32(nnz);
        row_ptr.clear();
        col_idx.clear();
        values.clear();
        row_ptr.push(0u32);
        let mut col_off = 0u32;
        let mut nnz_off = 0u32;
        for b in blocks {
            for &p in &b.row_ptr[1..] {
                row_ptr.push(p + nnz_off);
            }
            for &c in &b.col_idx {
                col_idx.push(c + col_off);
            }
            values.extend_from_slice(&b.values);
            col_off += b.cols as u32;
            nnz_off += b.nnz() as u32;
        }
        Self { rows, cols, row_ptr, col_idx, values }
    }

    /// [`SparseMatrix::block_diag_in`] over a fresh workspace.
    pub fn block_diag(blocks: &[&SparseMatrix]) -> Self {
        Self::block_diag_in(&mut Workspace::new(), blocks)
    }

    /// Release the CSR buffers back into a workspace pool (the partner
    /// of [`SparseMatrix::block_diag_in`]).
    pub fn recycle(self, ws: &mut Workspace) {
        ws.release_u32(self.row_ptr);
        ws.release_u32(self.col_idx);
        ws.release_f32(self.values);
    }

    /// Borrow the raw CSR arrays `(row_ptr, col_idx, values)` — the
    /// exact internal representation, for callers that hash or compare
    /// the matrix bit for bit.
    pub fn csr_parts(&self) -> (&[u32], &[u32], &[f32]) {
        (&self.row_ptr, &self.col_idx, &self.values)
    }

    /// Identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let triplets: Vec<(u32, u32, f32)> = (0..n as u32).map(|i| (i, i, 1.0)).collect();
        Self::from_triplets(n, n, &triplets)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Non-zero `(col, value)` pairs of one row.
    pub fn row(&self, r: usize) -> impl Iterator<Item = (u32, f32)> + '_ {
        let lo = self.row_ptr[r] as usize;
        let hi = self.row_ptr[r + 1] as usize;
        self.col_idx[lo..hi].iter().copied().zip(self.values[lo..hi].iter().copied())
    }

    /// `out[rows×n] = self[rows×cols] · dense[cols×n]` (out overwritten).
    /// Each output row accumulates its non-zeros in stored order.
    pub fn spmm(&self, dense: &[f32], out: &mut [f32], n: usize) {
        assert_eq!(dense.len(), self.cols * n, "dense operand shape");
        assert_eq!(out.len(), self.rows * n, "output shape");
        if n == 0 {
            return;
        }
        for (r, orow) in out.chunks_mut(n).enumerate() {
            orow.fill(0.0);
            for (c, v) in self.row(r) {
                let drow = &dense[c as usize * n..(c as usize + 1) * n];
                for (o, &d) in orow.iter_mut().zip(drow) {
                    *o += v * d;
                }
            }
        }
    }

    /// `out[cols×n] += selfᵀ · dense[rows×n]` — the backward pass of
    /// [`Self::spmm`] (accumulating).
    pub fn spmm_transpose_accum(&self, dense: &[f32], out: &mut [f32], n: usize) {
        assert_eq!(dense.len(), self.rows * n);
        assert_eq!(out.len(), self.cols * n);
        for r in 0..self.rows {
            let drow = &dense[r * n..(r + 1) * n];
            for (c, v) in self.row(r) {
                let orow = &mut out[c as usize * n..(c as usize + 1) * n];
                for (o, &d) in orow.iter_mut().zip(drow) {
                    *o += v * d;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense;

    #[test]
    fn from_triplets_sums_duplicates() {
        let m = SparseMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (0, 0, 2.0), (1, 1, 5.0)]);
        assert_eq!(m.nnz(), 2);
        let row0: Vec<_> = m.row(0).collect();
        assert_eq!(row0, vec![(0, 3.0)]);
    }

    #[test]
    fn identity_spmm_is_noop() {
        let id = SparseMatrix::identity(3);
        let x: Vec<f32> = (0..6).map(|i| i as f32).collect();
        let mut out = vec![0.0f32; 6];
        id.spmm(&x, &mut out, 2);
        assert_eq!(out, x);
    }

    #[test]
    fn spmm_matches_dense_matmul() {
        // Sparse 3×3 with a few entries vs its dense form.
        let triplets = [(0u32, 1u32, 2.0f32), (1, 0, -1.0), (2, 2, 0.5), (0, 2, 1.0)];
        let sp = SparseMatrix::from_triplets(3, 3, &triplets);
        let mut dense_a = vec![0.0f32; 9];
        for &(r, c, v) in &triplets {
            dense_a[r as usize * 3 + c as usize] = v;
        }
        let b: Vec<f32> = (0..6).map(|i| (i as f32) - 2.0).collect(); // 3×2
        let mut out_sp = vec![0.0f32; 6];
        sp.spmm(&b, &mut out_sp, 2);
        let mut out_d = vec![0.0f32; 6];
        dense::matmul(&dense_a, &b, &mut out_d, 3, 3, 2);
        for (x, y) in out_sp.iter().zip(&out_d) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn transpose_spmm_matches_dense() {
        let triplets = [(0u32, 1u32, 2.0f32), (2, 0, 3.0)];
        let sp = SparseMatrix::from_triplets(3, 2, &triplets);
        let g: Vec<f32> = vec![1.0, 0.0, 0.5, -1.0, 2.0, 2.0]; // 3×2 dense
        let mut out = vec![0.0f32; 4]; // 2×2
        sp.spmm_transpose_accum(&g, &mut out, 2);
        // dense Aᵀ (2×3) · g (3×2)
        let mut at = vec![0.0f32; 6];
        at[3] = 2.0; // A[0][1] -> At[1][0]
        at[2] = 3.0; // A[2][0] -> At[0][2]
        let mut expect = vec![0.0f32; 4];
        dense::matmul(&at, &g, &mut expect, 2, 3, 2);
        for (x, y) in out.iter().zip(&expect) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn empty_rows_are_fine() {
        let sp = SparseMatrix::from_triplets(4, 4, &[(3, 0, 1.0)]);
        assert_eq!(sp.row(0).count(), 0);
        assert_eq!(sp.row(3).count(), 1);
        let x = vec![1.0f32; 4];
        let mut out = vec![9.0f32; 4];
        sp.spmm(&x, &mut out, 1);
        assert_eq!(out, vec![0.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_triplet_panics() {
        SparseMatrix::from_triplets(2, 2, &[(2, 0, 1.0)]);
    }

    #[test]
    fn block_diag_spmm_equals_per_block_spmm() {
        let a = SparseMatrix::from_triplets(2, 2, &[(0, 1, 2.0), (1, 0, -1.0)]);
        let b = SparseMatrix::from_triplets(3, 3, &[(0, 2, 0.5), (2, 1, 3.0)]);
        let bd = SparseMatrix::block_diag_in(&mut Workspace::new(), &[&a, &b]);
        assert_eq!(bd.rows(), 5);
        assert_eq!(bd.cols(), 5);
        assert_eq!(bd.nnz(), 4);
        let xa: Vec<f32> = vec![1.0, 2.0, 3.0, 4.0]; // 2×2
        let xb: Vec<f32> = vec![5.0, 6.0, 7.0, 8.0, 9.0, 10.0]; // 3×2
        let packed: Vec<f32> = xa.iter().chain(&xb).copied().collect();
        let mut out = vec![0.0f32; 10];
        bd.spmm(&packed, &mut out, 2);
        let mut oa = vec![0.0f32; 4];
        a.spmm(&xa, &mut oa, 2);
        let mut ob = vec![0.0f32; 6];
        b.spmm(&xb, &mut ob, 2);
        assert_eq!(&out[..4], &oa[..]);
        assert_eq!(&out[4..], &ob[..]);
    }

    #[test]
    fn block_diag_of_empty_block_keeps_alignment() {
        let a = SparseMatrix::from_triplets(2, 2, &[(1, 1, 4.0)]);
        let empty = SparseMatrix::from_triplets(0, 0, &[]);
        let bd = SparseMatrix::block_diag_in(&mut Workspace::new(), &[&empty, &a, &empty]);
        assert_eq!(bd.rows(), 2);
        let row1: Vec<_> = bd.row(1).collect();
        assert_eq!(row1, vec![(1, 4.0)]);
    }
}
