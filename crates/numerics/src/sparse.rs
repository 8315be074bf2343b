//! Sparse LU factorization on a frozen symbolic plan.
//!
//! The MNA systems the circuit solver factors are tiny but extremely
//! repetitive: a compiled netlist fixes the sparsity pattern once, and the
//! campaign then factors matrices with that exact pattern thousands of
//! times per die. [`LuSymbolic::analyze`] runs the symbolic elimination a
//! single time and records, per pivot step, which rows can carry a nonzero
//! in the pivot column (the pivot candidates) and which columns of the
//! pivot row can be nonzero (the update set). [`SparseLu`] then performs
//! the numeric factorization touching only those positions.
//!
//! # Bit-compatibility with the dense path
//!
//! The numeric kernel is the dense [`LuFactors`](crate::lu::LuFactors)
//! kernel *restricted to the plan*: the pivot scan visits candidate rows in
//! the same ascending order with the same strict `>` comparison, rows are
//! swapped wholesale in the same dense storage, and elimination updates run
//! over the update columns in ascending order with the identical
//! `lu[(i, j)] -= factor * u` expression. Every position the plan skips is
//! an exact zero in both the input and (inductively) in every dense
//! intermediate, so the skipped dense updates are `x -= 0.0 * u` and
//! `0.0 / pivot` no-ops and both paths produce the same bits. Off-pattern
//! zeros also cannot win a strict-`>` pivot scan, so the pivot sequence —
//! and with it the permutation — is identical too. This is asserted
//! bitwise by the tests below and by the spice-level golden fixtures.
//!
//! The one caveat is the caller contract: the factored matrix must be
//! exactly zero (`±0.0`) at every position outside the analyzed pattern.
//! Debug builds verify this; release builds trust the stamping code.
//!
//! # Pivoting vs. a static pattern
//!
//! Partial pivoting permutes rows at numeric time, which a naive static
//! pattern cannot anticipate. The plan therefore tracks *positions*, not
//! rows: at step `k` every candidate position adopts the union of all
//! candidates' row patterns (and L-prefix patterns). Since swaps only ever
//! exchange rows between candidate positions of the current step, each
//! position's recorded pattern is a superset of whatever row actually ends
//! up there, for every pivot sequence the numeric phase can choose. The
//! union is exact fill for one candidate and padding for the others;
//! padding positions hold exact zeros and cost a multiply-by-zero each.

use std::sync::Arc;

use crate::lu::PIVOT_TOLERANCE;
use crate::{Matrix, NumericsError};

/// Bits per bitset word in the symbolic analysis.
const WORD: usize = 64;

/// A frozen symbolic factorization plan for a fixed sparsity pattern.
///
/// Built once per compiled netlist with [`LuSymbolic::analyze`] and shared
/// (via [`Arc`]) by every [`SparseLu`] workspace that factors matrices with
/// that pattern. All plan storage is CSR-style flat arrays; the numeric
/// phase never allocates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LuSymbolic {
    /// Matrix dimension.
    n: usize,
    /// Number of entries in the *input* pattern (diagonal forced), before
    /// fill-in.
    pattern_nnz: usize,
    /// Pivot candidates per step: rows `p >= k` that can hold a nonzero in
    /// column `k` when step `k` begins. Ascending; the first entry is `k`.
    cand_ptr: Vec<usize>,
    /// Flat candidate row indices, indexed by `cand_ptr`.
    cand_idx: Vec<usize>,
    /// Update columns per step: columns `j > k` that can be nonzero in the
    /// pivot row at step `k` (equivalently, the strict-upper pattern of
    /// final row `k` of `U`). Ascending.
    ucol_ptr: Vec<usize>,
    /// Flat update column indices, indexed by `ucol_ptr`.
    ucol_idx: Vec<usize>,
    /// `L` columns per row: columns `j < i` that can hold a multiplier in
    /// final row `i`. Ascending.
    lcol_ptr: Vec<usize>,
    /// Flat `L` column indices, indexed by `lcol_ptr`.
    lcol_idx: Vec<usize>,
    /// Input pattern (diagonal forced) as row-major bitset words, kept for
    /// the debug-build caller-contract check in `factor_from`.
    row_pattern: Vec<u64>,
}

impl LuSymbolic {
    /// Analyzes the sparsity pattern given by `entries` (row, column pairs,
    /// duplicates allowed) for an `n x n` matrix. The diagonal is always
    /// included: MNA systems keep it structurally nonzero (gmin), and a
    /// structurally zero diagonal would only add pessimistic fill anyway.
    ///
    /// # Errors
    ///
    /// [`NumericsError::InvalidInput`] if `n == 0` or an entry lies outside
    /// the matrix.
    pub fn analyze(n: usize, entries: &[(usize, usize)]) -> Result<Self, NumericsError> {
        if n == 0 {
            return Err(NumericsError::invalid("symbolic analysis of a 0x0 matrix"));
        }
        let words = n.div_ceil(WORD);
        // Per-position row patterns; `pat[p]` starts as the input pattern of
        // row p and evolves into the remaining (column > current step)
        // pattern of whatever row can sit at position p.
        let mut pat = vec![0u64; n * words];
        for &(r, c) in entries {
            if r >= n || c >= n {
                return Err(NumericsError::invalid(format!(
                    "pattern entry ({r}, {c}) outside {n}x{n} matrix"
                )));
            }
            pat[r * words + c / WORD] |= 1u64 << (c % WORD);
        }
        for i in 0..n {
            pat[i * words + i / WORD] |= 1u64 << (i % WORD);
        }
        let row_pattern = pat.clone();
        let pattern_nnz = pat.iter().map(|w| w.count_ones() as usize).sum();

        // Per-position L patterns: columns where the row at position p can
        // already hold an eliminated multiplier.
        let mut lpat = vec![0u64; n * words];
        // Union scratch for the current step.
        let mut v = vec![0u64; words];
        let mut lv = vec![0u64; words];
        // Bitmask of columns strictly above the current step.
        let mut above = vec![0u64; words];

        let mut cand_ptr = Vec::with_capacity(n + 1);
        let mut ucol_ptr = Vec::with_capacity(n + 1);
        let mut lcol_ptr = Vec::with_capacity(n + 1);
        cand_ptr.push(0);
        ucol_ptr.push(0);
        lcol_ptr.push(0);
        let mut cand_idx = Vec::new();
        let mut ucol_idx = Vec::new();
        let mut lcol_idx = Vec::new();

        for k in 0..n {
            v.fill(0);
            lv.fill(0);
            let cand_start = cand_idx.len();
            for p in k..n {
                if pat[p * words + k / WORD] >> (k % WORD) & 1 == 1 {
                    cand_idx.push(p);
                    for w in 0..words {
                        v[w] |= pat[p * words + w];
                        lv[w] |= lpat[p * words + w];
                    }
                }
            }
            // The diagonal is forced and unions only ever grow patterns, so
            // position k is always its own first candidate.
            debug_assert_eq!(cand_idx.get(cand_start), Some(&k));
            cand_ptr.push(cand_idx.len());

            // Columns strictly above k, as a mask.
            for (w, slot) in above.iter_mut().enumerate() {
                let lo = w * WORD;
                *slot = if lo + WORD <= k + 1 {
                    0
                } else if lo > k {
                    !0
                } else {
                    !0u64 << (k + 1 - lo)
                };
            }

            // Update columns of step k = union pattern restricted to > k.
            for j in (k + 1)..n {
                if v[j / WORD] >> (j % WORD) & 1 == 1 {
                    ucol_idx.push(j);
                }
            }
            ucol_ptr.push(ucol_idx.len());

            // L columns of final row k: whatever multipliers the row that
            // pivots into position k can already carry. All are < k.
            for j in 0..k {
                if lv[j / WORD] >> (j % WORD) & 1 == 1 {
                    lcol_idx.push(j);
                }
            }
            lcol_ptr.push(lcol_idx.len());

            // Candidate positions adopt the unions: any of them may receive
            // any candidate row through the numeric pivot swap, and rows
            // below the pivot gain fill in the update columns plus a
            // multiplier in column k.
            for &p in &cand_idx[cand_start..] {
                for w in 0..words {
                    pat[p * words + w] = v[w] & above[w];
                    lpat[p * words + w] = lv[w];
                }
                if p > k {
                    lpat[p * words + k / WORD] |= 1u64 << (k % WORD);
                }
            }
        }

        Ok(LuSymbolic {
            n,
            pattern_nnz,
            cand_ptr,
            cand_idx,
            ucol_ptr,
            ucol_idx,
            lcol_ptr,
            lcol_idx,
            row_pattern,
        })
    }

    /// Matrix dimension the plan was analyzed for.
    #[must_use]
    pub fn dimension(&self) -> usize {
        self.n
    }

    /// Number of entries in the analyzed input pattern (diagonal included).
    #[must_use]
    pub fn pattern_nnz(&self) -> usize {
        self.pattern_nnz
    }

    /// Number of stored positions in the factored form (`L` multipliers +
    /// `U` entries including the diagonal). `factor_nnz - pattern_nnz` is
    /// the predicted worst-case fill-in across all pivot sequences.
    #[must_use]
    pub fn factor_nnz(&self) -> usize {
        self.lcol_idx.len() + self.ucol_idx.len() + self.n
    }

    /// Whether `(r, c)` is inside the analyzed input pattern.
    #[must_use]
    pub fn in_pattern(&self, r: usize, c: usize) -> bool {
        let words = self.n.div_ceil(WORD);
        r < self.n && c < self.n && self.row_pattern[r * words + c / WORD] >> (c % WORD) & 1 == 1
    }

    /// Pivot candidate rows for step `k` (ascending, first entry is `k`).
    fn cand(&self, k: usize) -> &[usize] {
        &self.cand_idx[self.cand_ptr[k]..self.cand_ptr[k + 1]]
    }

    /// Update columns for step `k` / strict-upper `U` pattern of row `k`.
    fn ucols(&self, k: usize) -> &[usize] {
        &self.ucol_idx[self.ucol_ptr[k]..self.ucol_ptr[k + 1]]
    }

    /// `L` multiplier columns of final row `i` (ascending, all `< i`).
    fn lcols(&self, i: usize) -> &[usize] {
        &self.lcol_idx[self.lcol_ptr[i]..self.lcol_ptr[i + 1]]
    }
}

/// A reusable sparse LU workspace bound to a frozen [`LuSymbolic`] plan.
///
/// Mirrors [`LuFactors`](crate::lu::LuFactors): `factor_from` reuses the
/// stored buffers (no allocation after the first factor of a given
/// dimension) and `solve_into` writes into caller storage. The arithmetic
/// is bit-identical to the dense workspace for any matrix honoring the
/// plan's pattern — see the module docs for the argument.
#[derive(Debug, Clone)]
pub struct SparseLu {
    /// The shared symbolic plan.
    plan: Arc<LuSymbolic>,
    /// Dense value storage for the packed factors; only plan positions are
    /// ever read or written past the initial copy.
    lu: Option<Matrix>,
    /// Row permutation: row `i` of the factored matrix came from `perm[i]`.
    perm: Vec<usize>,
}

impl SparseLu {
    /// A workspace bound to `plan`; buffers are sized lazily by
    /// [`SparseLu::factor_from`].
    #[must_use]
    pub fn new(plan: Arc<LuSymbolic>) -> Self {
        SparseLu {
            plan,
            lu: None,
            perm: Vec::new(),
        }
    }

    /// The symbolic plan this workspace factors against. Callers use
    /// pointer identity ([`Arc::ptr_eq`]) to skip rebinding a workspace
    /// that already carries the right plan.
    #[must_use]
    pub fn plan(&self) -> &Arc<LuSymbolic> {
        &self.plan
    }

    /// Factors `a` into the reused storage, touching only plan positions.
    ///
    /// `a` must be exactly zero outside the analyzed pattern (checked in
    /// debug builds).
    ///
    /// # Errors
    ///
    /// - [`NumericsError::DimensionMismatch`] if `a` is not square or its
    ///   dimension differs from the plan's.
    /// - [`NumericsError::SingularMatrix`] if a pivot is (numerically)
    ///   zero.
    /// - [`NumericsError::InvalidInput`] if `a` contains non-finite
    ///   entries.
    pub fn factor_from(&mut self, a: &Matrix) -> Result<(), NumericsError> {
        let n = self.plan.n;
        if a.rows() != n || a.cols() != n {
            return Err(NumericsError::dims(format!(
                "sparse LU plan is {n}x{n}, matrix is {}x{}",
                a.rows(),
                a.cols()
            )));
        }
        if !a.is_finite() {
            return Err(NumericsError::invalid(
                "LU input contains non-finite entries",
            ));
        }
        #[cfg(debug_assertions)]
        for i in 0..n {
            for j in 0..n {
                debug_assert!(
                    self.plan.in_pattern(i, j) || a[(i, j)] == 0.0,
                    "off-pattern entry ({i}, {j}) = {} breaks the sparse-LU caller contract",
                    a[(i, j)]
                );
            }
        }
        let lu = match &mut self.lu {
            Some(m) if m.rows() == n && m.cols() == n => {
                m.copy_from(a)?;
                m
            }
            slot => slot.insert(a.clone()),
        };
        self.perm.clear();
        self.perm.extend(0..n);

        for k in 0..n {
            let cands = self.plan.cand(k);
            // Same scan as the dense kernel, skipping rows whose column-k
            // entry is an exact zero (those can never win a strict `>`).
            let mut pivot_row = k;
            let mut pivot_val = lu[(k, k)].abs();
            for &p in cands {
                if p == k {
                    continue;
                }
                let v = lu[(p, k)].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = p;
                }
            }
            if pivot_val < PIVOT_TOLERANCE {
                return Err(NumericsError::SingularMatrix { pivot: k });
            }
            if pivot_row != k {
                lu.swap_rows(pivot_row, k);
                self.perm.swap(pivot_row, k);
            }
            let pivot = lu[(k, k)];
            for &p in cands {
                if p == k {
                    continue;
                }
                let factor = lu[(p, k)] / pivot;
                lu[(p, k)] = factor;
                for &j in self.plan.ucols(k) {
                    let u = lu[(k, j)];
                    lu[(p, j)] -= factor * u;
                }
            }
        }
        Ok(())
    }

    /// Solves `A x = b` into `x` using the stored factorization, visiting
    /// only plan positions during the substitutions.
    ///
    /// # Errors
    ///
    /// [`NumericsError::DimensionMismatch`] if no factorization is stored
    /// or the slice lengths differ from the factored dimension.
    pub fn solve_into(&self, b: &[f64], x: &mut [f64]) -> Result<(), NumericsError> {
        let lu = self
            .lu
            .as_ref()
            .ok_or_else(|| NumericsError::dims("solve_into before factor_from".to_string()))?;
        let n = lu.rows();
        if b.len() != n || x.len() != n {
            return Err(NumericsError::dims(format!(
                "solve_into: matrix is {n}x{n}, rhs has {} entries, out has {}",
                b.len(),
                x.len()
            )));
        }
        for (xi, &p) in x.iter_mut().zip(&self.perm) {
            *xi = b[p];
        }
        for i in 1..n {
            let mut s = x[i];
            for &j in self.plan.lcols(i) {
                s -= lu[(i, j)] * x[j];
            }
            x[i] = s;
        }
        for i in (0..n).rev() {
            let mut s = x[i];
            for &j in self.plan.ucols(i) {
                s -= lu[(i, j)] * x[j];
            }
            x[i] = s / lu[(i, i)];
        }
        Ok(())
    }

    /// Dimension of the stored factorization (0 before the first factor).
    #[must_use]
    pub fn dim(&self) -> usize {
        self.lu.as_ref().map_or(0, Matrix::rows)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::lu::LuFactors;
    use crate::rng::Xoshiro256PlusPlus;

    /// Builds a matrix with the given pattern, values drawn from the rng
    /// (bounded away from zero so the pattern is exercised for real).
    fn pattern_matrix(
        n: usize,
        entries: &[(usize, usize)],
        rng: &mut Xoshiro256PlusPlus,
    ) -> Matrix {
        let mut a = Matrix::zeros(n, n);
        for &(r, c) in entries {
            let magnitude = rng.uniform(0.25, 2.0);
            let sign = if rng.next_u64() & 1 == 0 { 1.0 } else { -1.0 };
            a[(r, c)] = sign * magnitude;
        }
        a
    }

    /// Asserts that sparse factor+solve matches the dense workspace bit
    /// for bit on `a`, for a couple of right-hand sides.
    fn assert_bitwise_match(plan: &Arc<LuSymbolic>, a: &Matrix, rng: &mut Xoshiro256PlusPlus) {
        let n = a.rows();
        let mut dense = LuFactors::new();
        let mut sparse = SparseLu::new(Arc::clone(plan));
        dense.factor_from(a).unwrap();
        sparse.factor_from(a).unwrap();
        let mut xd = vec![0.0; n];
        let mut xs = vec![0.0; n];
        for _ in 0..3 {
            let b: Vec<f64> = (0..n).map(|_| rng.uniform(-1.0, 1.0)).collect();
            dense.solve_into(&b, &mut xd).unwrap();
            sparse.solve_into(&b, &mut xs).unwrap();
            assert_eq!(
                xd.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                xs.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "sparse and dense solves diverged"
            );
        }
    }

    /// The MNA-like pattern of the paper's pair cell: dense 2x2.
    #[test]
    fn dense_2x2_pattern_matches_dense_lu_bitwise() {
        let entries = [(0, 0), (0, 1), (1, 0), (1, 1)];
        let plan = Arc::new(LuSymbolic::analyze(2, &entries).unwrap());
        let mut rng = Xoshiro256PlusPlus::seeded(0x5EED_0001);
        for _ in 0..50 {
            let a = pattern_matrix(2, &entries, &mut rng);
            assert_bitwise_match(&plan, &a, &mut rng);
        }
    }

    /// Arrow pattern: elimination of column 0 fills the whole matrix, the
    /// classic worst case for symbolic fill prediction.
    #[test]
    fn arrow_pattern_with_fill_matches_dense_lu_bitwise() {
        let n = 6;
        let mut entries = vec![];
        for i in 0..n {
            entries.push((i, i));
            entries.push((0, i));
            entries.push((i, 0));
        }
        let plan = Arc::new(LuSymbolic::analyze(n, &entries).unwrap());
        assert!(plan.factor_nnz() > plan.pattern_nnz());
        let mut rng = Xoshiro256PlusPlus::seeded(0x5EED_0002);
        for _ in 0..50 {
            let a = pattern_matrix(n, &entries, &mut rng);
            assert_bitwise_match(&plan, &a, &mut rng);
        }
    }

    /// Tridiagonal: U must stay banded (bandwidth 2 — adjacent-row
    /// pivoting can push one extra superdiagonal into U, nothing beyond).
    /// The L side densifies under worst-case pivoting — a displaced row
    /// migrates one position per step, accumulating multipliers — so only
    /// the U bound is structural.
    #[test]
    fn tridiagonal_pattern_keeps_u_banded() {
        let n = 8;
        let mut entries = vec![];
        for i in 0..n {
            entries.push((i, i));
            if i + 1 < n {
                entries.push((i, i + 1));
                entries.push((i + 1, i));
            }
        }
        let plan = Arc::new(LuSymbolic::analyze(n, &entries).unwrap());
        for k in 0..n {
            assert!(plan.ucols(k).len() <= 2, "U row {k} left the band");
            assert!(plan.ucols(k).iter().all(|&j| j <= k + 2));
            assert!(plan.cand(k).len() <= 2, "pivot candidates stay adjacent");
        }
        let mut rng = Xoshiro256PlusPlus::seeded(0x5EED_0003);
        for _ in 0..50 {
            let a = pattern_matrix(n, &entries, &mut rng);
            assert_bitwise_match(&plan, &a, &mut rng);
        }
    }

    /// A structurally zero leading diagonal forces a pivot swap on the very
    /// first step; the position-based plan must survive it.
    #[test]
    fn zero_diagonal_forces_pivoting_and_still_matches() {
        let entries = [(0, 1), (1, 0), (1, 1), (2, 2), (0, 2)];
        let plan = Arc::new(LuSymbolic::analyze(3, &entries).unwrap());
        let mut rng = Xoshiro256PlusPlus::seeded(0x5EED_0004);
        for _ in 0..50 {
            let a = pattern_matrix(3, &entries, &mut rng);
            assert_bitwise_match(&plan, &a, &mut rng);
        }
    }

    /// Random sprinkled patterns across sizes, including ones that trigger
    /// pivot swaps mid-elimination.
    #[test]
    fn random_patterns_match_dense_lu_bitwise() {
        let mut rng = Xoshiro256PlusPlus::seeded(0x5EED_0005);
        for n in 2..=10usize {
            for round in 0..8 {
                let mut entries: Vec<(usize, usize)> = (0..n).map(|i| (i, i)).collect();
                let extra = n + round;
                for _ in 0..extra {
                    let r = rng.below(n as u64) as usize;
                    let c = rng.below(n as u64) as usize;
                    entries.push((r, c));
                }
                let plan = Arc::new(LuSymbolic::analyze(n, &entries).unwrap());
                let a = pattern_matrix(n, &entries, &mut rng);
                if LuFactors::new().factor_from(&a).is_err() {
                    continue; // singular draw; covered by the test below
                }
                assert_bitwise_match(&plan, &a, &mut rng);
            }
        }
    }

    /// Singularity is detected at the same pivot index as the dense path.
    #[test]
    fn singular_matrix_detected_at_same_pivot() {
        let entries = [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2)];
        let plan = Arc::new(LuSymbolic::analyze(3, &entries).unwrap());
        let mut a = Matrix::zeros(3, 3);
        a[(0, 0)] = 1.0;
        a[(0, 1)] = 2.0;
        a[(1, 0)] = 2.0;
        a[(1, 1)] = 4.0;
        a[(2, 2)] = 1.0;
        let dense_err = LuFactors::new().factor_from(&a).unwrap_err();
        let sparse_err = SparseLu::new(plan).factor_from(&a).unwrap_err();
        assert_eq!(dense_err, sparse_err);
        assert!(matches!(
            sparse_err,
            NumericsError::SingularMatrix { pivot: 1 }
        ));
    }

    #[test]
    fn reuse_across_factorizations_has_no_stale_state() {
        let entries = [(0, 0), (0, 1), (1, 0), (1, 1)];
        let plan = Arc::new(LuSymbolic::analyze(2, &entries).unwrap());
        let mut sparse = SparseLu::new(Arc::clone(&plan));
        let mut rng = Xoshiro256PlusPlus::seeded(0x5EED_0006);
        let a1 = pattern_matrix(2, &entries, &mut rng);
        let a2 = pattern_matrix(2, &entries, &mut rng);
        sparse.factor_from(&a1).unwrap();
        sparse.factor_from(&a2).unwrap();
        let mut dense = LuFactors::new();
        dense.factor_from(&a2).unwrap();
        let mut xd = vec![0.0; 2];
        let mut xs = vec![0.0; 2];
        dense.solve_into(&[1.0, -1.0], &mut xd).unwrap();
        sparse.solve_into(&[1.0, -1.0], &mut xs).unwrap();
        assert_eq!(xd, xs);
        assert_eq!(sparse.dim(), 2);
    }

    #[test]
    fn analyze_rejects_bad_input() {
        assert!(LuSymbolic::analyze(0, &[]).is_err());
        assert!(LuSymbolic::analyze(2, &[(0, 2)]).is_err());
        assert!(LuSymbolic::analyze(2, &[(2, 0)]).is_err());
    }

    #[test]
    fn workspace_reports_errors() {
        let plan = Arc::new(LuSymbolic::analyze(2, &[(0, 1), (1, 0)]).unwrap());
        let mut ws = SparseLu::new(plan);
        let mut x = vec![0.0; 2];
        assert!(ws.solve_into(&[1.0, 2.0], &mut x).is_err());
        assert!(ws.factor_from(&Matrix::zeros(3, 3)).is_err());
        let mut nan = Matrix::zeros(2, 2);
        nan[(0, 1)] = f64::NAN;
        nan[(1, 0)] = 1.0;
        assert!(ws.factor_from(&nan).is_err());
        assert_eq!(ws.dim(), 0);
    }

    #[test]
    fn plan_accessors_are_consistent() {
        let entries = [(0, 0), (0, 1), (1, 0), (1, 1)];
        let plan = LuSymbolic::analyze(2, &entries).unwrap();
        assert_eq!(plan.dimension(), 2);
        assert_eq!(plan.pattern_nnz(), 4);
        assert_eq!(plan.factor_nnz(), 4);
        assert!(plan.in_pattern(0, 1));
        assert!(!plan.in_pattern(0, 2));
        // Diagonal is forced even when not listed.
        let diagless = LuSymbolic::analyze(2, &[(0, 1), (1, 0)]).unwrap();
        assert!(diagless.in_pattern(0, 0));
        assert!(diagless.in_pattern(1, 1));
    }
}
