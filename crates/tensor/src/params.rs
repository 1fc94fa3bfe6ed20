//! Trainable parameter storage shared by the autodiff graph and the
//! optimizers. Parameters live outside the per-step [`crate::Graph`] so a
//! fresh graph can be built for every forward pass without copying
//! weights.

use std::ops::Range;

use rand::Rng;

use crate::matrix::Matrix;

/// Whether `indices` is a consecutive ascending run (`i, i+1, ...`),
/// letting gather/scatter paths move one contiguous block instead of
/// one row at a time.
pub(crate) fn is_consecutive(indices: &[u32]) -> bool {
    indices.windows(2).all(|w| w[1] == w[0].wrapping_add(1))
}

/// Handle to one parameter matrix inside a [`ParamSet`].
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct ParamId(pub(crate) usize);

impl ParamId {
    /// Index of the parameter within its [`ParamSet`].
    pub fn index(self) -> usize {
        self.0
    }
}

/// A named collection of trainable matrices.
#[derive(Clone, Debug, Default)]
pub struct ParamSet {
    entries: Vec<Matrix>,
    names: Vec<String>,
}

impl ParamSet {
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a parameter with an explicit initial value.
    pub fn add(&mut self, name: impl Into<String>, value: Matrix) -> ParamId {
        self.entries.push(value);
        self.names.push(name.into());
        ParamId(self.entries.len() - 1)
    }

    /// Registers a Xavier-initialized `fan_in x fan_out` weight.
    pub fn add_xavier(
        &mut self,
        name: impl Into<String>,
        fan_in: usize,
        fan_out: usize,
        rng: &mut impl Rng,
    ) -> ParamId {
        self.add(name, Matrix::xavier(fan_in, fan_out, rng))
    }

    /// Registers a zero-initialized `1 x n` bias row.
    pub fn add_bias(&mut self, name: impl Into<String>, n: usize) -> ParamId {
        self.add(name, Matrix::zeros(1, n))
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn get(&self, id: ParamId) -> &Matrix {
        &self.entries[id.0]
    }

    pub fn get_mut(&mut self, id: ParamId) -> &mut Matrix {
        &mut self.entries[id.0]
    }

    pub fn name(&self, id: ParamId) -> &str {
        &self.names[id.0]
    }

    /// Iterates `(id, matrix)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &Matrix)> {
        self.entries
            .iter()
            .enumerate()
            .map(|(i, m)| (ParamId(i), m))
    }

    /// Total number of scalar parameters.
    pub fn num_scalars(&self) -> usize {
        self.entries.iter().map(Matrix::len).sum()
    }

    /// True if any parameter contains NaN/inf (training-loop guard).
    pub fn has_non_finite(&self) -> bool {
        self.entries.iter().any(Matrix::has_non_finite)
    }
}

/// Gradient accumulator aligned with a [`ParamSet`].
#[derive(Clone, Debug)]
pub struct GradStore {
    grads: Vec<Matrix>,
}

impl GradStore {
    /// Zero gradients with the same shapes as `params`.
    pub fn zeros_like(params: &ParamSet) -> Self {
        Self {
            grads: params
                .entries
                .iter()
                .map(|m| Matrix::zeros(m.rows(), m.cols()))
                .collect(),
        }
    }

    pub fn get(&self, id: ParamId) -> &Matrix {
        &self.grads[id.0]
    }

    pub fn get_mut(&mut self, id: ParamId) -> &mut Matrix {
        &mut self.grads[id.0]
    }

    /// Resets every gradient to zero, keeping allocations.
    pub fn zero(&mut self) {
        for g in &mut self.grads {
            g.fill_zero();
        }
    }

    /// Global L2 norm across all gradients.
    pub fn l2_norm(&self) -> f32 {
        self.grads.iter().map(Matrix::sq_norm).sum::<f32>().sqrt()
    }

    /// Scales all gradients so the global norm is at most `max_norm`.
    /// Returns the pre-clip norm.
    pub fn clip_global_norm(&mut self, max_norm: f32) -> f32 {
        let norm = self.l2_norm();
        if norm > max_norm && norm > 0.0 {
            let s = max_norm / norm;
            for g in &mut self.grads {
                g.scale_inplace(s);
            }
        }
        norm
    }

    pub fn len(&self) -> usize {
        self.grads.len()
    }

    pub fn is_empty(&self) -> bool {
        self.grads.is_empty()
    }
}

/// Where a backward sweep sends its parameter-gradient adds. Every add
/// is one of three shapes, applied elementwise as `dst += src`: a whole
/// matrix, rows scattered into a table, or scaled rows of another
/// matrix scattered into a table.
pub trait GradSink {
    /// `grad[id] += g`.
    fn add(&mut self, id: ParamId, g: &Matrix);
    /// `grad[id].row(rows[r]) += g.row(r)` for every `r`, in order.
    fn add_rows(&mut self, id: ParamId, rows: &[u32], g: &Matrix);
    /// `grad[id].row(rows[r]) += scale[r] * src.row(src_rows[r])` for
    /// every `r`, in order, each product rounded before its add — the
    /// same bits as `add_rows` of the materialized products, without
    /// materializing them.
    fn add_scaled_rows(
        &mut self,
        id: ParamId,
        rows: &[u32],
        scale: &[f32],
        src: &Matrix,
        src_rows: &[u32],
    );
}

impl GradStore {
    /// `grad[id] += data`, with `Matrix::axpy`'s expression.
    fn add_flat(&mut self, id: ParamId, data: &[f32]) {
        let dst = self.grads[id.0].data_mut();
        assert_eq!(dst.len(), data.len(), "gradient shape mismatch");
        for (d, &s) in dst.iter_mut().zip(data) {
            *d += 1.0 * s;
        }
    }

    /// Scatters row `r` of the row-major `data` into row `rows[r]`.
    fn add_rows_flat(&mut self, id: ParamId, rows: &[u32], data: &[f32]) {
        let table = &mut self.grads[id.0];
        let cols = table.cols();
        assert_eq!(rows.len() * cols, data.len(), "gradient shape mismatch");
        // A consecutive run scatters as one block pass: the same
        // element order as the row loop, so the same bits land.
        if let Some(&start) = rows.first().filter(|_| is_consecutive(rows)) {
            let start = start as usize * cols;
            let dst = &mut table.data_mut()[start..start + data.len()];
            for (d, &s) in dst.iter_mut().zip(data) {
                *d += s;
            }
        } else {
            for (&idx, src) in rows.iter().zip(data.chunks_exact(cols)) {
                let dst = table.row_slice_mut(idx as usize);
                for (d, &s) in dst.iter_mut().zip(src) {
                    *d += s;
                }
            }
        }
    }

    /// [`GradSink::add_scaled_rows`] with `src` as a row-major slice as
    /// wide as the gradient.
    fn add_scaled_rows_flat(
        &mut self,
        id: ParamId,
        rows: &[u32],
        scale: &[f32],
        src: &[f32],
        src_rows: &[u32],
    ) {
        assert!(
            rows.len() == scale.len() && rows.len() == src_rows.len(),
            "scaled-rows length mismatch"
        );
        let table = &mut self.grads[id.0];
        let cols = table.cols();
        for ((&dst, &s), &from) in rows.iter().zip(scale).zip(src_rows) {
            let from = from as usize * cols;
            let dst = table.row_slice_mut(dst as usize);
            for (d, &x) in dst.iter_mut().zip(&src[from..from + cols]) {
                *d += s * x;
            }
        }
    }
}

impl GradSink for GradStore {
    fn add(&mut self, id: ParamId, g: &Matrix) {
        self.add_flat(id, g.data());
    }

    fn add_rows(&mut self, id: ParamId, rows: &[u32], g: &Matrix) {
        self.add_rows_flat(id, rows, g.data());
    }

    fn add_scaled_rows(
        &mut self,
        id: ParamId,
        rows: &[u32],
        scale: &[f32],
        src: &Matrix,
        src_rows: &[u32],
    ) {
        self.add_scaled_rows_flat(id, rows, scale, src.data(), src_rows);
    }
}

/// One logged gradient add (see [`GradSink`]): its target, and ranges
/// of the journal's flat value and index buffers.
#[derive(Clone, Debug)]
enum JournalEntry {
    Add {
        id: ParamId,
        values: Range<usize>,
    },
    Rows {
        id: ParamId,
        rows: Range<usize>,
        values: Range<usize>,
    },
    /// `src_rows` directly follows `rows` in the index buffer.
    ScaledRows {
        id: ParamId,
        rows: Range<usize>,
        scale: Range<usize>,
        src: Range<usize>,
    },
}

/// An ordered log of the adds backward sweeps would have made to a
/// [`GradStore`]. A sweep into a journal reads nothing from it, so
/// sweeps that share frozen parameters can run concurrently, each
/// into its own journal; [`GradJournal::apply`] then replays the log
/// into a store. Replaying journals in a fixed order performs exactly
/// the `+=` calls that sweeping straight into the store in that order
/// would, so the summed gradients are bit-identical.
///
/// Values are copied into two flat buffers that `apply` empties but
/// keeps, so a reused journal logs without allocating, and the sweep
/// recycles its own gradient buffers as it would for a store.
#[derive(Debug, Default)]
pub struct GradJournal {
    entries: Vec<JournalEntry>,
    values: Vec<f32>,
    rows: Vec<u32>,
}

impl GradJournal {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Replays every logged add into `grads`, in log order, leaving the
    /// journal empty (its buffers keep their capacity).
    pub fn apply(&mut self, grads: &mut GradStore) {
        for entry in &self.entries {
            match entry {
                JournalEntry::Add { id, values } => {
                    grads.add_flat(*id, &self.values[values.clone()]);
                }
                JournalEntry::Rows { id, rows, values } => {
                    let values = &self.values[values.clone()];
                    grads.add_rows_flat(*id, &self.rows[rows.clone()], values);
                }
                JournalEntry::ScaledRows {
                    id,
                    rows,
                    scale,
                    src,
                } => {
                    let k = rows.len();
                    let (dst_rows, src_rows) = self.rows[rows.start..rows.end + k].split_at(k);
                    let scale = &self.values[scale.clone()];
                    let src = &self.values[src.clone()];
                    grads.add_scaled_rows_flat(*id, dst_rows, scale, src, src_rows);
                }
            }
        }
        self.entries.clear();
        self.values.clear();
        self.rows.clear();
    }

    fn log_values(&mut self, values: &[f32]) -> Range<usize> {
        let start = self.values.len();
        self.values.extend_from_slice(values);
        start..self.values.len()
    }

    fn log_rows(&mut self, rows: &[u32]) -> Range<usize> {
        let start = self.rows.len();
        self.rows.extend_from_slice(rows);
        start..self.rows.len()
    }
}

impl GradSink for GradJournal {
    fn add(&mut self, id: ParamId, g: &Matrix) {
        let values = self.log_values(g.data());
        self.entries.push(JournalEntry::Add { id, values });
    }

    fn add_rows(&mut self, id: ParamId, rows: &[u32], g: &Matrix) {
        let values = self.log_values(g.data());
        let rows = self.log_rows(rows);
        self.entries.push(JournalEntry::Rows { id, rows, values });
    }

    fn add_scaled_rows(
        &mut self,
        id: ParamId,
        rows: &[u32],
        scale: &[f32],
        src: &Matrix,
        src_rows: &[u32],
    ) {
        assert!(
            rows.len() == scale.len() && rows.len() == src_rows.len(),
            "scaled-rows length mismatch"
        );
        let scale = self.log_values(scale);
        let src_range = self.log_values(src.data());
        let rows = self.log_rows(rows);
        self.log_rows(src_rows);
        self.entries.push(JournalEntry::ScaledRows {
            id,
            rows,
            scale,
            src: src_range,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn add_and_lookup() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut ps = ParamSet::new();
        let w = ps.add_xavier("w", 4, 3, &mut rng);
        let b = ps.add_bias("b", 3);
        assert_eq!(ps.len(), 2);
        assert_eq!(ps.get(w).shape(), (4, 3));
        assert_eq!(ps.get(b).shape(), (1, 3));
        assert_eq!(ps.name(w), "w");
        assert_eq!(ps.num_scalars(), 15);
    }

    #[test]
    fn grad_clip() {
        let mut ps = ParamSet::new();
        let w = ps.add("w", Matrix::zeros(1, 2));
        let mut gs = GradStore::zeros_like(&ps);
        gs.get_mut(w).data_mut().copy_from_slice(&[3.0, 4.0]);
        let pre = gs.clip_global_norm(1.0);
        assert!((pre - 5.0).abs() < 1e-6);
        assert!((gs.l2_norm() - 1.0).abs() < 1e-5);
        // Below the threshold nothing changes.
        let pre2 = gs.clip_global_norm(10.0);
        assert!((pre2 - 1.0).abs() < 1e-5);
    }
}
