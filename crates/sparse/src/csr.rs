//! CSR / COO sparse matrix types and structural operations.

use std::sync::OnceLock;

/// A matrix in coordinate form — the natural output of graph generators and
/// edge-list loaders. Duplicate entries are summed on conversion to CSR.
#[derive(Clone, Debug, Default)]
pub struct Coo {
    pub rows: usize,
    pub cols: usize,
    pub entries: Vec<(u32, u32, f32)>,
}

impl Coo {
    /// Empty COO of the given shape.
    pub fn new(rows: usize, cols: usize) -> Self {
        Coo {
            rows,
            cols,
            entries: Vec::new(),
        }
    }

    /// Append one entry.
    ///
    /// # Panics
    /// If the position is out of bounds.
    pub fn push(&mut self, r: u32, c: u32, v: f32) {
        assert!((r as usize) < self.rows && (c as usize) < self.cols);
        self.entries.push((r, c, v));
    }

    /// Convert to CSR, summing duplicates.
    pub fn to_csr(&self) -> Csr {
        let mut counts = vec![0usize; self.rows + 1];
        for &(r, _, _) in &self.entries {
            counts[r as usize + 1] += 1;
        }
        for i in 0..self.rows {
            counts[i + 1] += counts[i];
        }
        let mut cols = vec![0u32; self.entries.len()];
        let mut vals = vec![0f32; self.entries.len()];
        let mut cursor = counts.clone();
        for &(r, c, v) in &self.entries {
            let slot = cursor[r as usize];
            cols[slot] = c;
            vals[slot] = v;
            cursor[r as usize] += 1;
        }
        // Sort within each row (through one reused row buffer) and coalesce
        // duplicates.
        let mut out_indptr = vec![0usize; self.rows + 1];
        let mut out_cols = Vec::with_capacity(cols.len());
        let mut out_vals = Vec::with_capacity(vals.len());
        let mut row: Vec<(u32, f32)> = Vec::new();
        for r in 0..self.rows {
            let (s, e) = (counts[r], counts[r + 1]);
            row.clear();
            row.extend(cols[s..e].iter().copied().zip(vals[s..e].iter().copied()));
            row.sort_unstable_by_key(|&(c, _)| c);
            let mut last: Option<usize> = None;
            for &(c, v) in &row {
                match last {
                    Some(idx) if out_cols[idx] == c => out_vals[idx] += v,
                    _ => {
                        out_cols.push(c);
                        out_vals.push(v);
                        last = Some(out_cols.len() - 1);
                    }
                }
            }
            out_indptr[r + 1] = out_cols.len();
        }
        Csr::assemble(self.rows, self.cols, out_indptr, out_cols, out_vals)
    }
}

/// Compressed sparse row matrix with `f32` values and `u32` column indices.
///
/// Invariants (checked by [`Csr::validate`], exercised by property tests):
/// `indptr` is monotone with `indptr[0] == 0` and
/// `indptr[rows] == indices.len() == vals.len()`; within each row the
/// column indices are strictly increasing and `< cols`.
#[derive(Clone, Debug)]
pub struct Csr {
    rows: usize,
    cols: usize,
    indptr: Vec<usize>,
    indices: Vec<u32>,
    vals: Vec<f32>,
    /// Lazily computed nonzero-balanced row-panel boundaries, one per task
    /// count asked for (see [`Csr::nnz_partition`]). Not part of the matrix
    /// value: ignored by equality, cloned along for free reuse on copies.
    panels: Memo<Vec<usize>>,
    /// Lazily computed per-destination remote-row support, one per part
    /// count asked for (see [`Csr::col_support`]). Cached exactly like
    /// `panels`: the adjacency is static across epochs, so each scan runs
    /// once per matrix.
    support: Memo<Vec<Vec<u32>>>,
    /// Lazily computed per-row column-block boundaries, one table per
    /// block width asked for (see [`Csr::col_segments`]). Cached exactly
    /// like `panels`.
    segments: Memo<Vec<u32>>,
}

/// An append-only, thread-safe memo of values derived from a matrix, one
/// per `usize` key: a chain of write-once cells, so a lookup hands out a
/// reference that lives as long as the matrix. Ranks that share one
/// matrix, each asking for its own key, each get their own value.
#[derive(Clone, Debug)]
struct Memo<T>(OnceLock<Box<(usize, T, Memo<T>)>>);

impl<T> Memo<T> {
    fn new() -> Self {
        Memo(OnceLock::new())
    }

    /// The value for `key`, computed by `make` on first request.
    fn get(&self, key: usize, make: impl Fn() -> T) -> &T {
        let mut at = self;
        loop {
            let (k, v, next) = &**at.0.get_or_init(|| Box::new((key, make(), Memo::new())));
            if *k == key {
                return v;
            }
            at = next;
        }
    }
}

/// Structural + value equality; the cached scheduling partition is not part
/// of the matrix value.
impl PartialEq for Csr {
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self.indptr == other.indptr
            && self.indices == other.indices
            && self.vals == other.vals
    }
}

/// Reusable working memory of submatrix induction ([`Csr::induced`],
/// [`crate::gcn_normalize_induced`]). A caller that induces many subgraphs
/// of one matrix — a serving rank per batch, a GraphSAINT trainer per step
/// — keeps one and pays no fill and no allocation per call once it has
/// seen its largest matrix and row.
#[derive(Debug, Default)]
pub struct InduceScratch {
    /// Old vertex → new index, `u32::MAX` for a vertex not kept. All
    /// `u32::MAX` between calls: a call stamps its `keep` entries before
    /// the pass and clears exactly those after it, so no call pays an
    /// `O(N)` fill.
    remap: Vec<u32>,
    /// One row's kept entries packed as `column << 32 | value bits`, to
    /// sort them by column when `keep` is not increasing (a non-monotone
    /// remap scrambles column order). Unused on the increasing path.
    sort: Vec<u64>,
    /// Per-row value sums of the last induced matrix, in column order as
    /// [`Csr::row_sums`] adds them; [`crate::gcn_normalize_induced`] turns
    /// them into `D̃^{-1/2}` in place.
    pub(crate) degree: Vec<f32>,
}

impl InduceScratch {
    /// Whether the remap holds no vertex — the between-calls invariant,
    /// which also holds after a call that panicked on a bad `keep`.
    pub fn is_clear(&self) -> bool {
        self.remap.iter().all(|&m| m == u32::MAX)
    }
}

/// Row-panel boundaries splitting `indptr`'s rows into at most `tasks`
/// panels of roughly equal nonzero count. Returns `tasks + 1` boundaries
/// (clamped to the row count) — panel `i` covers rows
/// `bounds[i]..bounds[i + 1]`, always at least one row, so regrouping rows
/// into panels never changes any row's accumulation order.
///
/// Boundary `t` is the first row whose nonzero prefix reaches
/// `t · nnz / tasks`, found by binary search — panels overshoot the target
/// by at most one row's nonzeros, so the max/mean panel ratio stays bounded
/// by `1 + max_row_nnz · tasks / nnz` even on power-law graphs.
pub fn balanced_panels(indptr: &[usize], tasks: usize) -> Vec<usize> {
    let rows = indptr.len().saturating_sub(1);
    if rows == 0 {
        return vec![0];
    }
    let tasks = tasks.clamp(1, rows);
    let nnz = indptr[rows];
    let mut bounds = Vec::with_capacity(tasks + 1);
    bounds.push(0usize);
    for t in 1..tasks {
        let target = nnz * t / tasks;
        let prev = *bounds.last().unwrap();
        let b = indptr
            .partition_point(|&x| x < target)
            // Keep boundaries strictly increasing and leave ≥ 1 row for
            // each remaining panel.
            .clamp(prev + 1, rows - (tasks - t));
        bounds.push(b);
    }
    bounds.push(rows);
    bounds
}

impl Csr {
    /// Internal constructor; invariants are the caller's responsibility
    /// (public construction goes through [`Csr::from_parts`], which
    /// validates).
    fn assemble(
        rows: usize,
        cols: usize,
        indptr: Vec<usize>,
        indices: Vec<u32>,
        vals: Vec<f32>,
    ) -> Self {
        Csr {
            rows,
            cols,
            indptr,
            indices,
            vals,
            panels: Memo::new(),
            support: Memo::new(),
            segments: Memo::new(),
        }
    }

    /// Empty `rows × cols` matrix.
    pub fn empty(rows: usize, cols: usize) -> Self {
        Csr::assemble(rows, cols, vec![0; rows + 1], Vec::new(), Vec::new())
    }

    /// Build from raw parts.
    ///
    /// # Panics
    /// If the CSR invariants are violated.
    pub fn from_parts(
        rows: usize,
        cols: usize,
        indptr: Vec<usize>,
        indices: Vec<u32>,
        vals: Vec<f32>,
    ) -> Self {
        let m = Csr::assemble(rows, cols, indptr, indices, vals);
        m.validate().expect("invalid CSR");
        m
    }

    /// Check all structural invariants; returns a description of the first
    /// violation.
    pub fn validate(&self) -> Result<(), String> {
        if self.indptr.len() != self.rows + 1 {
            return Err(format!(
                "indptr length {} != rows+1 {}",
                self.indptr.len(),
                self.rows + 1
            ));
        }
        if self.indptr[0] != 0 {
            return Err("indptr[0] != 0".into());
        }
        if *self.indptr.last().unwrap() != self.indices.len() {
            return Err("indptr[rows] != nnz".into());
        }
        if self.indices.len() != self.vals.len() {
            return Err("indices/vals length mismatch".into());
        }
        for r in 0..self.rows {
            if self.indptr[r] > self.indptr[r + 1] {
                return Err(format!("indptr not monotone at row {r}"));
            }
            let row = &self.indices[self.indptr[r]..self.indptr[r + 1]];
            for w in row.windows(2) {
                if w[0] >= w[1] {
                    return Err(format!("row {r} columns not strictly increasing"));
                }
            }
            if let Some(&c) = row.last() {
                if c as usize >= self.cols {
                    return Err(format!("row {r} column {c} out of bounds"));
                }
            }
        }
        Ok(())
    }

    /// The identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        Csr::assemble(
            n,
            n,
            (0..=n).collect(),
            (0..n as u32).collect(),
            vec![1.0; n],
        )
    }

    /// Nonzero-balanced row-panel boundaries for parallel SpMM into
    /// `tasks` panels, `balanced_panels(indptr, tasks)`, computed on first
    /// use and cached per task count (the adjacency matrix is reused every
    /// epoch, so the partition is too — and ranks sharing one matrix on
    /// different core shares each get the partition for their own count).
    pub fn nnz_partition(&self, tasks: usize) -> &[usize] {
        self.panels
            .get(tasks, || balanced_panels(&self.indptr, tasks))
    }

    /// Per-destination remote-row support of this panel under a balanced
    /// `parts`-way partition of the column dimension: entry `j` lists, in
    /// increasing order, the columns owned by partition member `j`
    /// (`part_range(cols, parts, j)`) that appear in at least one row of
    /// the panel. An SpMM over this panel reads **only** those rows of its
    /// dense operand, so entry `j` is exactly the set of rows member `j`
    /// must ship here — the basis of sparsity-aware redistribution.
    ///
    /// Computed by one `indices` scan on first use and cached per `parts`,
    /// like [`Csr::nnz_partition`] (the adjacency is static across
    /// epochs).
    pub fn col_support(&self, parts: usize) -> &[Vec<u32>] {
        self.support.get(parts, || {
            let parts = parts.max(1);
            let mut present = vec![false; self.cols];
            for &c in &self.indices {
                present[c as usize] = true;
            }
            (0..parts)
                .map(|j| {
                    let r = rdm_dense::part_range(self.cols, parts, j);
                    (r.start..r.end)
                        .filter(|&c| present[c])
                        .map(|c| c as u32)
                        .collect()
                })
                .collect()
        })
    }

    /// Where each row's nonzeros cross into the next block of `block`
    /// columns: with `nb = ⌈cols / block⌉` blocks, row `r`'s nonzeros in
    /// block `q` are `indptr[r] + s[q - 1] .. indptr[r] + s[q]`, where `s`
    /// is the row's slice `[r·(nb−1), (r+1)·(nb−1))` of the returned table
    /// and `s[−1] = 0`, `s[nb − 1]` is the row's length. Only the `nb − 1`
    /// interior boundaries are stored, as `u32` offsets from the row start,
    /// so the table holds `rows · (nb − 1)` entries.
    ///
    /// Computed on first use and cached per `block`, like
    /// [`Csr::nnz_partition`] (the adjacency is static across epochs).
    ///
    /// # Panics
    /// If `block == 0`.
    pub fn col_segments(&self, block: usize) -> &[u32] {
        assert!(block > 0, "column blocks must be non-empty");
        self.segments.get(block, || {
            let inner = self.cols.div_ceil(block).saturating_sub(1);
            let mut table = Vec::with_capacity(self.rows * inner);
            for r in 0..self.rows {
                let cols = self.row(r).0;
                table.extend(
                    (1..=inner).map(|q| cols.partition_point(|&c| (c as usize) < q * block) as u32),
                );
            }
            table
        })
    }

    /// Fraction of rows with no stored nonzeros. For an aggregation matrix
    /// `Â` this is the fraction of vertices whose aggregated output is
    /// exactly zero — rows the sparsity-aware redistribution never ships.
    pub fn empty_row_fraction(&self) -> f64 {
        if self.rows == 0 {
            return 0.0;
        }
        let empty = (0..self.rows)
            .filter(|&r| self.indptr[r] == self.indptr[r + 1])
            .count();
        empty as f64 / self.rows as f64
    }

    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored nonzeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// `(column_indices, values)` of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> (&[u32], &[f32]) {
        let (s, e) = (self.indptr[r], self.indptr[r + 1]);
        (&self.indices[s..e], &self.vals[s..e])
    }

    /// The row-pointer array.
    #[inline]
    pub fn indptr(&self) -> &[usize] {
        &self.indptr
    }

    /// All column indices.
    #[inline]
    pub fn indices(&self) -> &[u32] {
        &self.indices
    }

    /// All values.
    #[inline]
    pub fn vals(&self) -> &[f32] {
        &self.vals
    }

    /// Mutable values (structure stays fixed).
    #[inline]
    pub fn vals_mut(&mut self) -> &mut [f32] {
        &mut self.vals
    }

    /// Number of nonzeros in each row.
    pub fn row_degrees(&self) -> Vec<usize> {
        (0..self.rows)
            .map(|r| self.indptr[r + 1] - self.indptr[r])
            .collect()
    }

    /// Sum of values in each row (weighted out-degree).
    pub fn row_sums(&self) -> Vec<f32> {
        (0..self.rows).map(|r| self.row(r).1.iter().sum()).collect()
    }

    /// Payload bytes: values + indices + row pointers. Used by the space
    /// model (Table X).
    pub fn nbytes(&self) -> usize {
        self.vals.len() * 4 + self.indices.len() * 4 + self.indptr.len() * 8
    }

    /// Out-of-place transpose (CSR → CSR of the transposed matrix); also the
    /// CSR↔CSC conversion.
    pub fn transpose(&self) -> Csr {
        let mut counts = vec![0usize; self.cols + 1];
        for &c in &self.indices {
            counts[c as usize + 1] += 1;
        }
        for i in 0..self.cols {
            counts[i + 1] += counts[i];
        }
        let mut indices = vec![0u32; self.nnz()];
        let mut vals = vec![0f32; self.nnz()];
        let mut cursor = counts.clone();
        for r in 0..self.rows {
            let (cs, vs) = self.row(r);
            for (&c, &v) in cs.iter().zip(vs) {
                let slot = cursor[c as usize];
                indices[slot] = r as u32;
                vals[slot] = v;
                cursor[c as usize] += 1;
            }
        }
        // Rows were visited in increasing order, so each output row is
        // already sorted by column.
        Csr::assemble(self.cols, self.rows, counts, indices, vals)
    }

    /// Extract the row panel `r0..r1` (all columns).
    pub fn row_panel(&self, r0: usize, r1: usize) -> Csr {
        assert!(r0 <= r1 && r1 <= self.rows);
        let (s, e) = (self.indptr[r0], self.indptr[r1]);
        let indptr = self.indptr[r0..=r1].iter().map(|p| p - s).collect();
        Csr::assemble(
            r1 - r0,
            self.cols,
            indptr,
            self.indices[s..e].to_vec(),
            self.vals[s..e].to_vec(),
        )
    }

    /// Extract the column block `c0..c1` (all rows); column indices are
    /// shifted so the result has `c1-c0` columns.
    pub fn col_block(&self, c0: usize, c1: usize) -> Csr {
        assert!(c0 <= c1 && c1 <= self.cols);
        let (c0u, c1u) = (c0 as u32, c1 as u32);
        let mut indptr = vec![0usize; self.rows + 1];
        let mut indices = Vec::new();
        let mut vals = Vec::new();
        for r in 0..self.rows {
            let (cs, vs) = self.row(r);
            // Columns are sorted: binary search the window.
            let lo = cs.partition_point(|&c| c < c0u);
            let hi = cs.partition_point(|&c| c < c1u);
            for (&c, &v) in cs[lo..hi].iter().zip(&vs[lo..hi]) {
                indices.push(c - c0u);
                vals.push(v);
            }
            indptr[r + 1] = indices.len();
        }
        Csr::assemble(self.rows, c1 - c0, indptr, indices, vals)
    }

    /// Induced submatrix on `keep` (relabels both rows and columns to
    /// `0..keep.len()` in the given order). Used by GraphSAINT subgraphs and
    /// by the DGCL baseline's local partitions.
    ///
    /// # Panics
    /// If `keep` contains an out-of-range or duplicate vertex.
    pub fn induced(&self, keep: &[u32]) -> Csr {
        let mut out = Csr::empty(0, 0);
        self.induce_into(keep, false, &mut InduceScratch::default(), &mut out);
        out
    }

    /// `A[keep, keep]`, plus `I` when `self_loops`, into `out`, whose
    /// buffers are reused (and whose cached partitions, supports and
    /// column segments are dropped); each row's value sum lands in
    /// `scratch.degree`.
    ///
    /// One branchless pass per kept row: every entry of the source row is
    /// written at the output cursor as `(remap[c], v)`, and the cursor
    /// advances only past kept ones, so the scan runs at memory speed
    /// whatever fraction it keeps. The written slice is already in column
    /// order when `keep` is increasing (the remap is then monotone) and is
    /// sorted in place otherwise. The self-loop is placed by a binary
    /// search of the compacted row — added to an existing diagonal entry,
    /// else inserted with weight 1 by shifting the tail one slot (every
    /// row has a slot reserved for it). The row's sum is taken while the
    /// row is hot, left to right as [`Csr::row_sums`] does.
    ///
    /// Allocates nothing once `scratch` and `out` have served a superset
    /// of `keep`'s vertices from the same matrix, in any order.
    ///
    /// # Panics
    /// If `keep` contains an out-of-range or duplicate vertex; `scratch`
    /// is left clear.
    pub(crate) fn induce_into(
        &self,
        keep: &[u32],
        self_loops: bool,
        scratch: &mut InduceScratch,
        out: &mut Csr,
    ) {
        let InduceScratch {
            remap,
            sort,
            degree,
        } = scratch;
        let span = self.rows.max(self.cols);
        if remap.len() < span {
            remap.resize(span, u32::MAX);
        }
        for (new, &old) in keep.iter().enumerate() {
            let o = old as usize;
            let in_range = o < self.rows && o < self.cols;
            if !in_range || remap[o] != u32::MAX {
                keep[..new]
                    .iter()
                    .for_each(|&k| remap[k as usize] = u32::MAX);
                assert!(
                    in_range,
                    "vertex {old} outside a {}x{} matrix",
                    self.rows, self.cols
                );
                panic!("duplicate vertex {old}");
            }
            remap[o] = new as u32;
        }
        let increasing = keep.windows(2).all(|w| w[0] < w[1]);
        let n = keep.len();
        // Every kept row's full degree (plus its self-loop's slot) bounds
        // what it writes, so the arrays are sized once per call.
        let bound = keep
            .iter()
            .map(|&k| self.row(k as usize).0.len())
            .sum::<usize>()
            + if self_loops { n } else { 0 };
        out.rows = n;
        out.cols = n;
        out.panels = Memo::new();
        out.support = Memo::new();
        out.segments = Memo::new();
        let Csr {
            indptr,
            indices,
            vals,
            ..
        } = out;
        indptr.clear();
        indptr.push(0);
        indices.resize(bound, 0);
        vals.resize(bound, 0.0);
        degree.clear();
        let mut end = 0;
        for (new_r, &old_r) in keep.iter().enumerate() {
            let (cs, vs) = self.row(old_r as usize);
            let start = end;
            for (&c, &v) in cs.iter().zip(vs) {
                let nc = remap[c as usize];
                indices[end] = nc;
                vals[end] = v;
                end += usize::from(nc != u32::MAX);
            }
            if !increasing {
                sort_by_column(&mut indices[start..end], &mut vals[start..end], sort);
            }
            if self_loops {
                let diag = new_r as u32;
                let at = start + indices[start..end].partition_point(|&c| c < diag);
                if at < end && indices[at] == diag {
                    vals[at] += 1.0;
                } else {
                    indices.copy_within(at..end, at + 1);
                    vals.copy_within(at..end, at + 1);
                    indices[at] = diag;
                    vals[at] = 1.0;
                    end += 1;
                }
            }
            degree.push(vals[start..end].iter().sum());
            indptr.push(end);
        }
        indices.truncate(end);
        vals.truncate(end);
        keep.iter().for_each(|&k| remap[k as usize] = u32::MAX);
    }

    /// Row pointers and column indices beside mutable values — for
    /// in-place rescaling that reads the structure as it goes.
    pub(crate) fn parts_mut(&mut self) -> (&[usize], &[u32], &mut [f32]) {
        (&self.indptr, &self.indices, &mut self.vals)
    }

    /// Apply the same permutation to rows and columns:
    /// `B[i][j] = A[perm[i]][perm[j]]`. Used to relabel vertices so that a
    /// partition becomes a contiguous range (the DGCL baseline).
    pub fn permute_symmetric(&self, perm: &[u32]) -> Csr {
        assert_eq!(self.rows, self.cols, "symmetric permute needs square");
        assert_eq!(perm.len(), self.rows);
        self.induced(perm)
    }

    /// Dense representation (tests only — O(rows·cols) memory).
    pub fn to_dense(&self) -> rdm_dense::Mat {
        let mut m = rdm_dense::Mat::zeros(self.rows, self.cols);
        for r in 0..self.rows {
            let (cs, vs) = self.row(r);
            for (&c, &v) in cs.iter().zip(vs) {
                m.set(r, c as usize, v);
            }
        }
        m
    }

    /// True if the matrix equals its transpose (structure and values).
    pub fn is_symmetric(&self) -> bool {
        self.rows == self.cols && *self == self.transpose()
    }
}

/// Sort one row's entries by column through `packed`, as
/// `column << 32 | value bits`: a row's columns are distinct, so ordering
/// the packed words orders the columns and carries each value along.
fn sort_by_column(cols: &mut [u32], vals: &mut [f32], packed: &mut Vec<u64>) {
    packed.clear();
    packed.extend(
        cols.iter()
            .zip(vals.iter())
            .map(|(&c, &v)| u64::from(c) << 32 | u64::from(v.to_bits())),
    );
    packed.sort_unstable();
    for ((c, v), &p) in cols.iter_mut().zip(vals.iter_mut()).zip(packed.iter()) {
        *c = (p >> 32) as u32;
        *v = f32::from_bits(p as u32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csr {
        // [[1, 0, 2],
        //  [0, 0, 0],
        //  [3, 4, 0],
        //  [0, 5, 6]]
        let mut coo = Coo::new(4, 3);
        coo.push(0, 0, 1.0);
        coo.push(0, 2, 2.0);
        coo.push(2, 0, 3.0);
        coo.push(2, 1, 4.0);
        coo.push(3, 1, 5.0);
        coo.push(3, 2, 6.0);
        coo.to_csr()
    }

    #[test]
    fn coo_to_csr_basic() {
        let m = sample();
        assert_eq!(m.nnz(), 6);
        assert_eq!(m.row(0), (&[0u32, 2][..], &[1.0f32, 2.0][..]));
        assert_eq!(m.row(1).0.len(), 0);
        m.validate().unwrap();
    }

    #[test]
    fn coo_duplicates_are_summed() {
        let mut coo = Coo::new(2, 2);
        coo.push(0, 1, 1.0);
        coo.push(0, 1, 2.5);
        coo.push(1, 0, 1.0);
        let m = coo.to_csr();
        assert_eq!(m.nnz(), 2);
        assert_eq!(m.row(0), (&[1u32][..], &[3.5f32][..]));
    }

    #[test]
    fn coo_unsorted_input_gets_sorted() {
        let mut coo = Coo::new(1, 5);
        coo.push(0, 4, 4.0);
        coo.push(0, 0, 0.5);
        coo.push(0, 2, 2.0);
        let m = coo.to_csr();
        assert_eq!(m.row(0).0, &[0, 2, 4]);
        m.validate().unwrap();
    }

    #[test]
    fn transpose_matches_dense_transpose() {
        let m = sample();
        let t = m.transpose();
        t.validate().unwrap();
        assert_eq!(t.to_dense(), m.to_dense().transpose());
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn identity_spmm_like_behavior() {
        let id = Csr::identity(5);
        assert_eq!(id.nnz(), 5);
        assert!(id.is_symmetric());
        id.validate().unwrap();
    }

    #[test]
    fn row_panel_extraction() {
        let m = sample();
        let p = m.row_panel(1, 3);
        p.validate().unwrap();
        assert_eq!(p.rows(), 2);
        assert_eq!(p.row(1), (&[0u32, 1][..], &[3.0f32, 4.0][..]));
        assert_eq!(p.to_dense(), m.to_dense().row_block(1, 3));
    }

    #[test]
    fn col_block_extraction() {
        let m = sample();
        let b = m.col_block(1, 3);
        b.validate().unwrap();
        assert_eq!(b.cols(), 2);
        assert_eq!(b.to_dense(), m.to_dense().col_block(1, 3));
    }

    #[test]
    fn induced_subgraph() {
        // Square 4x4 version.
        let mut coo = Coo::new(4, 4);
        for (r, c) in [(0, 1), (1, 0), (1, 2), (2, 3), (3, 0)] {
            coo.push(r, c, 1.0);
        }
        let m = coo.to_csr();
        let sub = m.induced(&[1, 3]);
        sub.validate().unwrap();
        assert_eq!(sub.rows(), 2);
        // Edges among {1,3}: none of (0,1),(1,0),(1,2),(2,3),(3,0) connect
        // 1<->3, so the induced matrix is empty.
        assert_eq!(sub.nnz(), 0);
        let sub2 = m.induced(&[0, 1]);
        assert_eq!(sub2.nnz(), 2); // (0,1) and (1,0)
    }

    #[test]
    fn induced_respects_ordering() {
        let mut coo = Coo::new(3, 3);
        coo.push(0, 1, 7.0);
        let m = coo.to_csr();
        // keep = [1, 0]: old 0 -> new 1, old 1 -> new 0
        let sub = m.induced(&[1, 0]);
        assert_eq!(sub.row(1), (&[0u32][..], &[7.0f32][..]));
    }

    #[test]
    fn permute_symmetric_roundtrip() {
        let mut coo = Coo::new(4, 4);
        for (r, c, v) in [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0), (3, 0, 4.0)] {
            coo.push(r, c, v);
        }
        let m = coo.to_csr();
        let perm: Vec<u32> = vec![2, 0, 3, 1];
        let pm = m.permute_symmetric(&perm);
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(
                    pm.to_dense().get(i, j),
                    m.to_dense().get(perm[i] as usize, perm[j] as usize)
                );
            }
        }
    }

    #[test]
    fn validate_rejects_bad_structure() {
        let m = Csr::assemble(2, 2, vec![0, 1, 1], vec![5], vec![1.0]);
        assert!(m.validate().is_err());
    }

    #[test]
    fn balanced_panels_bound_skewed_rows() {
        // Power-law-ish: a few rows carry almost all nonzeros.
        let mut coo = Coo::new(512, 512);
        for r in 0..8u32 {
            for c in 0..256u32 {
                if r != c {
                    coo.push(r, c, 1.0);
                }
            }
        }
        for r in 8..512u32 {
            coo.push(r, (r - 1) % 512, 1.0);
        }
        let m = coo.to_csr();
        let tasks = 16;
        let bounds = balanced_panels(m.indptr(), tasks);
        assert_eq!(bounds.len(), tasks + 1);
        assert_eq!(*bounds.last().unwrap(), 512);
        assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        let panel_nnz: Vec<usize> = bounds
            .windows(2)
            .map(|w| m.indptr()[w[1]] - m.indptr()[w[0]])
            .collect();
        let max = *panel_nnz.iter().max().unwrap() as f64;
        let mean = m.nnz() as f64 / tasks as f64;
        // Each panel overshoots its target by at most one row (≤ 255 nnz).
        assert!(
            max / mean < 2.0,
            "balanced partition still skewed: max {max} vs mean {mean}"
        );
        // Uniform row chunking puts all eight hub rows in its first chunk.
        let chunk = 512 / tasks;
        let uniform = (0..tasks)
            .map(|t| m.indptr()[(t + 1) * chunk] - m.indptr()[t * chunk])
            .max()
            .unwrap() as f64;
        assert!(
            max < 0.8 * uniform,
            "balanced makespan {max} must clearly beat uniform chunking's {uniform}"
        );
    }

    #[test]
    fn balanced_panels_edge_cases() {
        // Empty matrix, one row, more tasks than rows, zero nnz.
        assert_eq!(balanced_panels(&[0], 4), vec![0]);
        assert_eq!(balanced_panels(&[0, 3], 4), vec![0, 1]);
        assert_eq!(balanced_panels(&[0, 0, 0, 0], 8), vec![0, 1, 2, 3]);
        let uniform = balanced_panels(&[0, 2, 4, 6, 8], 2);
        assert_eq!(uniform, vec![0, 2, 4]);
    }

    #[test]
    fn nnz_partition_is_cached_per_task_count_and_survives_clone() {
        let m = sample();
        let a = m.nnz_partition(2);
        assert_eq!(a, &balanced_panels(m.indptr(), 2)[..]);
        // Each task count gets its own partition; the first stays cached.
        assert_eq!(m.nnz_partition(3), &balanced_panels(m.indptr(), 3)[..]);
        assert!(std::ptr::eq(m.nnz_partition(2), a));
        let c = m.clone();
        assert_eq!(c.nnz_partition(2), a);
        assert_eq!(m, c);
    }

    #[test]
    fn nbytes_counts_all_arrays() {
        let m = sample();
        assert_eq!(m.nbytes(), 6 * 4 + 6 * 4 + 5 * 8);
    }

    #[test]
    fn col_support_buckets_present_columns_by_owner() {
        // sample() touches all three columns; under a 2-way split of 3
        // columns, member 0 owns {0, 1} and member 1 owns {2}.
        let m = sample();
        let s = m.col_support(2);
        assert_eq!(s.len(), 2);
        assert_eq!(s[0], vec![0, 1]);
        assert_eq!(s[1], vec![2]);
    }

    #[test]
    fn col_support_omits_untouched_columns() {
        // Only column 3 of 6 is referenced.
        let mut coo = Coo::new(2, 6);
        coo.push(0, 3, 1.0);
        coo.push(1, 3, 2.0);
        let m = coo.to_csr();
        let s = m.col_support(3);
        assert_eq!(s[0], Vec::<u32>::new()); // owns cols 0..2
        assert_eq!(s[1], vec![3]); // owns cols 2..4
        assert_eq!(s[2], Vec::<u32>::new()); // owns cols 4..6
    }

    #[test]
    fn col_support_is_cached_and_survives_clone() {
        let m = sample();
        let a: Vec<Vec<u32>> = m.col_support(2).to_vec();
        // Each part count gets its own support; the first stays cached.
        assert_eq!(m.col_support(3).len(), 3);
        assert_eq!(m.col_support(2), &a[..]);
        let c = m.clone();
        assert_eq!(c.col_support(2), &a[..]);
        assert_eq!(m, c);
    }

    #[test]
    fn col_segments_split_each_row_at_block_boundaries_and_are_cached() {
        let m = sample();
        // Blocks of 2 columns: {0, 1} and {2}; one interior boundary a row.
        assert_eq!(m.col_segments(2), &[1, 0, 2, 1][..]);
        // Blocks of 1 column: two interior boundaries a row.
        assert_eq!(m.col_segments(1), &[1, 1, 0, 0, 1, 2, 0, 1][..]);
        // One block: nothing to store.
        assert!(m.col_segments(3).is_empty() && m.col_segments(8).is_empty());
        let first = m.col_segments(2).as_ptr();
        assert_eq!(m.col_segments(2).as_ptr(), first, "cached per block");
        assert_eq!(m.clone().col_segments(2), m.col_segments(2));
    }

    #[test]
    fn empty_row_fraction_counts_structural_zeros() {
        let m = sample(); // row 1 empty
        assert!((m.empty_row_fraction() - 0.25).abs() < 1e-12);
        let e = Csr::empty(3, 4);
        assert_eq!(e.empty_row_fraction(), 1.0);
        assert_eq!(Csr::empty(0, 0).empty_row_fraction(), 0.0);
    }
}
