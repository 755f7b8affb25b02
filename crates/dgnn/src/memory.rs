//! Node memory `M` (paper §III-B).
//!
//! Each node has a state vector `s_i^t` compressing its temporal evolution
//! over `[0, t]`, initialised to zero for newly encountered nodes (§V-C) and
//! updated by the Message → Aggregate → Update pipeline. Values here are
//! *plain* matrices: within a training batch the updated states live on the
//! autodiff tape, and [`Memory::write_row`] persists them (detached) after
//! the optimiser step — the standard TGN cross-batch detachment.
//!
//! [`Memory::snapshot`] captures checkpoints for the paper's Evolution
//! Information Enhanced fine-tuning (Eq. 18).

use cpdg_graph::{NodeId, Timestamp};
use cpdg_tensor::matrix::refit;
use cpdg_tensor::Matrix;

/// Per-node state store.
#[derive(Debug, Clone)]
pub struct Memory {
    states: Matrix,
    last_update: Vec<Timestamp>,
}

/// An immutable copy of all states at some point in training — one entry of
/// the EIE checkpoint sequence `[S^1, …, S^l]`.
#[derive(Debug, Clone)]
pub struct MemorySnapshot {
    /// `num_nodes × dim` state matrix.
    pub states: Matrix,
    /// Training progress (fraction of pre-training events consumed) when
    /// the snapshot was taken.
    pub progress: f64,
}

impl Memory {
    /// Zero-initialised memory for `num_nodes` nodes of width `dim`.
    pub fn new(num_nodes: usize, dim: usize) -> Self {
        Self {
            states: Matrix::zeros(num_nodes, dim),
            last_update: vec![0.0; num_nodes],
        }
    }

    /// Memory holding `states` (one row per node), each row last updated
    /// at the matching entry of `last_update`.
    pub fn from_parts(states: Matrix, last_update: Vec<Timestamp>) -> Result<Self, String> {
        if last_update.len() != states.rows() {
            return Err(format!(
                "memory has {} state rows but {} update times",
                states.rows(),
                last_update.len()
            ));
        }
        Ok(Self {
            states,
            last_update,
        })
    }

    /// Every node's last update time, by node id.
    pub fn last_updates(&self) -> &[Timestamp] {
        &self.last_update
    }

    /// State width.
    pub fn dim(&self) -> usize {
        self.states.cols()
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.states.rows()
    }

    /// Read-only full state matrix.
    pub fn states(&self) -> &Matrix {
        &self.states
    }

    /// One node's state row.
    pub fn state_row(&self, node: NodeId) -> &[f32] {
        self.states.row(node as usize)
    }

    /// Gathers the states of `nodes` into an `m × dim` matrix, copying each
    /// row straight into it.
    pub fn gather(&self, nodes: &[NodeId]) -> Matrix {
        self.gather_into(nodes, Vec::new())
    }

    /// [`Memory::gather`] written into `data`, refit to the result's length.
    pub fn gather_into(&self, nodes: &[NodeId], mut data: Vec<f32>) -> Matrix {
        refit(&mut data, nodes.len() * self.dim());
        for &n in nodes {
            data.extend_from_slice(self.state_row(n));
        }
        Matrix::from_vec(nodes.len(), self.dim(), data)
    }

    /// Last time each node's state was updated (0 before first update).
    pub fn last_update(&self, node: NodeId) -> Timestamp {
        self.last_update[node as usize]
    }

    /// Writes `node`'s new state row and stamps its update time.
    ///
    /// # Panics
    /// Panics when `values` is not `dim` wide.
    pub fn write_row(&mut self, node: NodeId, values: &[f32], t: Timestamp) {
        cpdg_obs::counter!("memory.updates").inc();
        self.states.set_row(node as usize, values);
        self.last_update[node as usize] = t;
    }

    /// Resets all states to zero and clears update times (fresh encoder).
    pub fn reset(&mut self) {
        cpdg_obs::counter!("memory.resets").inc();
        self.states.data_mut().fill(0.0);
        self.last_update.fill(0.0);
    }

    /// Takes an EIE checkpoint.
    pub fn snapshot(&self, progress: f64) -> MemorySnapshot {
        MemorySnapshot {
            states: self.states.clone(),
            progress,
        }
    }

    /// Root-mean-square of all state entries — a cheap health metric used
    /// by tests and the bench harness to confirm memory is actually
    /// evolving. Squares are accumulated in `f64`: an f32 running sum
    /// stalls once it grows ~2^24× larger than the next addend (so
    /// multi-million-node memories with a few large rows silently drop the
    /// small ones) and saturates to `inf` near 3.4e38 even when the final
    /// RMS is representable.
    pub fn rms(&self) -> f32 {
        let n = self.states.len().max(1);
        let sum: f64 = self
            .states
            .data()
            .iter()
            .map(|&x| f64::from(x) * f64::from(x))
            .sum();
        (sum / n as f64).sqrt() as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_zeroed() {
        let m = Memory::new(4, 3);
        assert_eq!(m.num_nodes(), 4);
        assert_eq!(m.dim(), 3);
        assert_eq!(m.rms(), 0.0);
        assert_eq!(m.last_update(2), 0.0);
    }

    #[test]
    fn rms_accumulates_in_f64_where_f32_visibly_diverges() {
        // One huge entry (1e4² = 1e8) followed by many 1.0 entries: in an
        // f32 running sum the 1.0s vanish (1e8 has a ulp of 8), so the f32
        // result collapses to sqrt(1e8 / n). The f64 path keeps them. At
        // 1024×63 entries the lost ones move the RMS by ≈1.3e-2.
        let dim = 63;
        let nodes = 1024;
        let mut m = Memory::new(nodes, dim);
        let big = 1.0e4f32;
        let mut rows = Matrix::zeros(nodes, dim);
        for r in 0..nodes {
            for c in 0..dim {
                rows.set(r, c, if r == 0 && c == 0 { big } else { 1.0 });
            }
        }
        for node in 0..nodes {
            m.write_row(node as NodeId, rows.row(node), 1.0);
        }

        let n = (nodes * dim) as f64;
        let exact = ((f64::from(big) * f64::from(big) + (n - 1.0)) / n).sqrt() as f32;
        let f32_summed = {
            let mut s = 0.0f32;
            s += big * big;
            for _ in 0..(nodes * dim - 1) {
                s += 1.0;
            }
            (s / n as f32).sqrt()
        };
        assert_eq!(m.rms(), exact, "rms matches the f64-accumulated value");
        assert!(
            (f32_summed - exact).abs() > 1e-2,
            "the f32 sum must visibly diverge for this test to mean anything \
             (f32={f32_summed} exact={exact})"
        );

        // Saturation: entries of ~2e19 square to 4e38 > f32::MAX, so an f32
        // sum is `inf` after the first addend even though the RMS itself is
        // a perfectly representable 2e19.
        let mut m = Memory::new(2, 2);
        let huge = 2.0e19f32;
        m.write_row(0, &[huge, huge], 1.0);
        m.write_row(1, &[huge, huge], 1.0);
        let f32_squares: f32 = m.states.data().iter().map(|&x| x * x).sum();
        assert_eq!(f32_squares, f32::INFINITY, "f32 squares saturate");
        assert!(
            m.rms().is_finite(),
            "f64 accumulation survives squares beyond f32::MAX"
        );
        assert_eq!(m.rms(), huge);
    }

    #[test]
    fn write_and_gather() {
        let mut m = Memory::new(4, 2);
        m.write_row(1, &[1.0, 2.0], 5.0);
        m.write_row(3, &[3.0, 4.0], 5.0);
        assert_eq!(m.state_row(1), &[1.0, 2.0]);
        assert_eq!(m.state_row(3), &[3.0, 4.0]);
        assert_eq!(m.state_row(0), &[0.0, 0.0]);
        assert_eq!(m.last_update(1), 5.0);
        assert_eq!(m.last_update(0), 0.0);
        let g = m.gather(&[3, 0]);
        assert_eq!(g, Matrix::from_rows(&[&[3.0, 4.0], &[0.0, 0.0]]));
    }

    #[test]
    fn snapshot_is_decoupled() {
        let mut m = Memory::new(2, 2);
        m.write_row(0, &[1.0, 1.0], 1.0);
        let snap = m.snapshot(0.5);
        m.write_row(0, &[9.0, 9.0], 2.0);
        assert_eq!(
            snap.states.row(0),
            &[1.0, 1.0],
            "snapshot unaffected by later writes"
        );
        assert_eq!(snap.progress, 0.5);
    }

    #[test]
    fn reset_clears_everything() {
        let mut m = Memory::new(2, 2);
        m.write_row(0, &[1.0, 1.0], 3.0);
        m.write_row(1, &[1.0, 1.0], 3.0);
        assert!(m.rms() > 0.0);
        m.reset();
        assert_eq!(m.rms(), 0.0);
        assert_eq!(m.last_update(1), 0.0);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn write_rejects_bad_width() {
        let mut m = Memory::new(2, 3);
        m.write_row(0, &[1.0, 1.0], 1.0);
    }
}
