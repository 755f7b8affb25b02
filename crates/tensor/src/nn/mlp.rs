//! Multi-layer perceptron with a configurable activation.

use crate::nn::linear::Linear;
use crate::param::ParamStore;
use crate::tape::Var;
use crate::Forward;
use rand::Rng;

/// Hidden-layer activation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Activation {
    /// Rectified linear unit (default).
    #[default]
    Relu,
    /// Hyperbolic tangent.
    Tanh,
    /// Logistic sigmoid.
    Sigmoid,
    /// No activation (affine stack).
    Identity,
}

impl Activation {
    /// Applies the activation in place: `x` is a layer output no one else
    /// reads.
    fn apply<'s>(self, ev: &mut impl Forward<'s>, x: Var) -> Var {
        match self {
            Activation::Relu => ev.relu_in_place(x),
            Activation::Tanh => ev.tanh_in_place(x),
            Activation::Sigmoid => ev.sigmoid_in_place(x),
            Activation::Identity => x,
        }
    }
}

/// An MLP: `dims = [in, h1, …, out]` with `activation` between layers and no
/// activation after the last layer (callers add their own heads).
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Linear>,
    activation: Activation,
}

impl Mlp {
    /// Registers a new MLP under `name`; layers are `{name}.0`, `{name}.1`, …
    ///
    /// # Panics
    /// Panics when fewer than two dims are given.
    pub fn new(
        store: &mut ParamStore,
        rng: &mut (impl Rng + ?Sized),
        name: &str,
        dims: &[usize],
        activation: Activation,
    ) -> Self {
        assert!(dims.len() >= 2, "Mlp::new: need at least [in, out] dims");
        let layers = dims
            .windows(2)
            .enumerate()
            .map(|(i, w)| Linear::new(store, rng, &format!("{name}.{i}"), w[0], w[1], true))
            .collect();
        Self { layers, activation }
    }

    /// Forward pass over `m × in` input.
    pub fn forward<'s>(&self, ev: &mut impl Forward<'s>, store: &'s ParamStore, mut x: Var) -> Var {
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            x = layer.forward(ev, store, x);
            if i != last {
                x = self.activation.apply(ev, x);
            }
        }
        x
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.layers[0].in_dim()
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.layers[self.layers.len() - 1].out_dim()
    }

    /// Number of affine layers.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Eval, Matrix, Tape};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn shapes_through_stack() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let mlp = Mlp::new(&mut store, &mut rng, "m", &[4, 8, 3], Activation::Relu);
        assert_eq!(mlp.depth(), 2);
        assert_eq!(mlp.in_dim(), 4);
        assert_eq!(mlp.out_dim(), 3);
        let mut tape = Tape::new();
        let x = tape.constant(Matrix::ones(5, 4));
        let y = mlp.forward(&mut tape, &store, x);
        assert_eq!(tape.value(y).shape(), (5, 3));
    }

    #[test]
    fn eval_is_bit_identical_to_the_tape_forward() {
        for activation in [
            Activation::Relu,
            Activation::Tanh,
            Activation::Sigmoid,
            Activation::Identity,
        ] {
            let mut store = ParamStore::new();
            let mut rng = StdRng::seed_from_u64(3);
            let mlp = Mlp::new(&mut store, &mut rng, "m", &[3, 6, 4, 2], activation);
            let x = Matrix::from_rows(&[&[0.5, -1.5, 2.0], &[0.0, 3.0, -0.25]]);
            let mut tape = Tape::new();
            let xv = tape.constant(x.clone());
            let y = mlp.forward(&mut tape, &store, xv);
            let mut ev = Eval::new();
            let xe = ev.constant(x);
            let ye = mlp.forward(&mut ev, &store, xe);
            assert_eq!(tape.value(y), ev.value(ye), "{activation:?}");
        }
    }

    #[test]
    fn single_layer_is_affine() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(1);
        let mlp = Mlp::new(&mut store, &mut rng, "aff", &[2, 2], Activation::Relu);
        // One layer → no activation applied, outputs may be negative.
        let mut tape = Tape::new();
        let x = tape.constant(Matrix::from_rows(&[&[-10.0, -10.0]]));
        let y = mlp.forward(&mut tape, &store, x);
        assert_eq!(tape.value(y).shape(), (1, 2));
    }

    #[test]
    fn all_params_trainable() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(2);
        let mlp = Mlp::new(&mut store, &mut rng, "t", &[3, 5, 1], Activation::Tanh);
        let mut tape = Tape::new();
        let x = tape.constant(Matrix::ones(2, 3));
        let y = mlp.forward(&mut tape, &store, x);
        let loss = tape.mean_all(y);
        let grads = tape.backward(loss);
        // 2 layers × (weight + bias) = 4 gradient entries.
        assert_eq!(tape.param_grads(&grads).len(), 4);
    }

    #[test]
    #[should_panic(expected = "need at least")]
    fn rejects_empty_dims() {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        Mlp::new(&mut store, &mut rng, "bad", &[3], Activation::Relu);
    }
}
