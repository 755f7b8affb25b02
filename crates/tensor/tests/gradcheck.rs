//! Finite-difference verification of every backward rule.
//!
//! For each op (and for the composite NN modules) we build a scalar loss
//! from a perturbable input, compare the autodiff gradient against central
//! differences, and require agreement within f32-appropriate tolerances.

mod common;

use common::{for_each_case, Lcg};
use cpdg_tensor::nn::{Activation, GruCell, Mlp, NeighborAttention, RnnCell, TimeEncoder};
use cpdg_tensor::{loss, Forward, Matrix, ParamStore, Tape, Var};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Central-difference step. f32 arithmetic means we want a fairly large h.
const H: f32 = 1e-2;
/// Accepted absolute + relative error between autodiff and numeric grads.
const TOL_ABS: f32 = 2e-2;
const TOL_REL: f32 = 5e-2;

/// Checks autodiff gradient of `f` at `x0` against central differences.
/// `f` must rebuild the whole computation from a fresh tape each call.
fn gradcheck(x0: &Matrix, f: impl Fn(&mut Tape, Var) -> Var) {
    // Autodiff gradient.
    let mut tape = Tape::new();
    let x = tape.constant(x0.clone());
    let l = f(&mut tape, x);
    assert_eq!(
        tape.value(l).shape(),
        (1, 1),
        "gradcheck: loss must be scalar"
    );
    let grads = tape.backward(l);
    let auto = grads
        .get(x)
        .cloned()
        .unwrap_or_else(|| Matrix::zeros(x0.rows(), x0.cols()));

    // Numeric gradient, element by element.
    let eval = |m: &Matrix| -> f32 {
        let mut t = Tape::new();
        let v = t.constant(m.clone());
        let l = f(&mut t, v);
        t.value(l).get(0, 0)
    };
    for i in 0..x0.len() {
        let mut plus = x0.clone();
        plus.data_mut()[i] += H;
        let mut minus = x0.clone();
        minus.data_mut()[i] -= H;
        let numeric = (eval(&plus) - eval(&minus)) / (2.0 * H);
        let a = auto.data()[i];
        let err = (a - numeric).abs();
        let scale = a.abs().max(numeric.abs()).max(1.0);
        assert!(
            err <= TOL_ABS + TOL_REL * scale,
            "gradcheck mismatch at flat index {i}: autodiff={a}, numeric={numeric}"
        );
    }
}

/// Seeded cases per property test.
const CASES: u64 = 16;

fn smooth_matrix(rng: &mut Lcg, rows: usize, cols: usize) -> Matrix {
    rng.matrix(rows, cols, -1.5, 1.5)
}

#[test]
fn matmul_grad() {
    for_each_case(CASES, |rng| {
        let x = smooth_matrix(rng, 3, 4);
        let w = Matrix::from_vec(4, 2, (0..8).map(|i| 0.1 * i as f32 - 0.3).collect());
        gradcheck(&x, |t, v| {
            let wv = t.constant(w.clone());
            let y = t.matmul(v, wv);
            t.mean_all(y)
        });
    });
}

#[test]
fn affine_grad() {
    for_each_case(CASES, |rng| {
        let [x, w, b] = [(3, 4), (4, 2), (1, 2)].map(|(r, c)| smooth_matrix(rng, r, c));
        // tanh makes each operand's gradient depend on the others.
        let loss = |t: &mut Tape, [x, w, b]: [Var; 3]| {
            let y = t.affine(x, w, b);
            let h = t.tanh(y);
            t.sum_all(h)
        };
        let operands = [&x, &w, &b];
        for slot in 0..3 {
            gradcheck(operands[slot], |t, v| {
                let mut vars = operands.map(|m| t.constant(m.clone()));
                vars[slot] = v;
                loss(t, vars)
            });
        }
    });
}

#[test]
fn sigmoid_tanh_relu_chain_grad() {
    for_each_case(CASES, |rng| {
        let x = smooth_matrix(rng, 2, 3);
        gradcheck(&x, |t, v| {
            let s = t.sigmoid(v);
            let h = t.tanh(s);
            // relu kinks at 0; shift away from it so central differences
            // stay valid.
            let shifted = t.add_scalar(h, 2.0);
            let r = t.relu(shifted);
            t.mean_all(r)
        });
    });
}

#[test]
fn cos_grad() {
    for_each_case(CASES, |rng| {
        let x = smooth_matrix(rng, 2, 2);
        gradcheck(&x, |t, v| {
            let c = t.cos_in_place(v);
            t.mean_all(c)
        });
    });
}

#[test]
fn mul_add_sub_scale_grad() {
    for_each_case(CASES, |rng| {
        let x = smooth_matrix(rng, 2, 3);
        gradcheck(&x, |t, v| {
            let a = t.scale(v, 1.7);
            let b = t.add(a, v);
            let c = t.mul(b, v);
            let d = t.sub(c, v);
            let e = t.add_scalar(d, 0.3);
            t.sum_all(e)
        });
    });
}

#[test]
fn concat_and_gather_grad() {
    for_each_case(CASES, |rng| {
        let x = smooth_matrix(rng, 3, 2);
        gradcheck(&x, |t, v| {
            let g = t.gather_rows(v, &[0, 2, 2, 1]);
            let c = t.concat_cols(g, g);
            t.mean_all(c)
        });
    });
}

#[test]
fn repeated_gathers_into_populated_slot_grad() {
    for_each_case(CASES, |rng| {
        let x = smooth_matrix(rng, 3, 2);
        // The reverse pass reaches `tanh` before either gather, so both
        // gathers scatter-add (with repeated rows) into a populated slot.
        gradcheck(&x, |t, v| {
            let a = t.gather_rows(v, &[2, 0, 2]);
            let b = t.gather_rows(v, &[1, 1, 0]);
            let w = t.tanh(v);
            let ab = t.mul(a, b);
            let all_rows = 0..3;
            let wm = t.mean_rows(w, &[all_rows]);
            let y = t.add_broadcast_row_in_place(ab, wm);
            t.sum_all(y)
        });
    });
}

#[test]
fn mean_rows_and_broadcast_grad() {
    for_each_case(CASES, |rng| {
        let x = smooth_matrix(rng, 4, 3);
        let weights = Matrix::from_vec(5, 3, (0..15).map(|i| 0.3 * (i % 7) as f32 - 0.8).collect());
        gradcheck(&x, |t, v| {
            let all_rows = 0..4;
            let mu = t.mean_rows(v, &[all_rows]);
            let y = t.add_broadcast_row_in_place(v, mu);
            let sq = t.mul(y, v);
            // Ragged and overlapping segments, one of them empty.
            let m = t.mean_rows(sq, &[0..1, 1..4, 2..4, 3..3, 0..4]);
            let w = t.constant(weights.clone());
            let p = t.mul(m, w);
            t.sum_all(p)
        });
    });
}

#[test]
fn euclidean_distance_grad() {
    for_each_case(CASES, |rng| {
        let x = smooth_matrix(rng, 3, 4);
        // Fixed second operand far away so sqrt stays smooth.
        let other = Matrix::full(3, 4, 3.0);
        gradcheck(&x, |t, v| {
            let o = t.constant(other.clone());
            let d = t.euclidean_rows(v, o);
            t.mean_all(d)
        });
    });
}

#[test]
fn bce_with_logits_grad() {
    for_each_case(CASES, |rng| {
        let x = smooth_matrix(rng, 4, 1);
        let targets = Matrix::from_vec(4, 1, vec![1.0, 0.0, 1.0, 0.0]);
        gradcheck(&x, |t, v| t.bce_with_logits(v, targets.clone()));
    });
}

#[test]
fn exp_ln_grad() {
    for_each_case(CASES, |rng| {
        let x = smooth_matrix(rng, 2, 3);
        gradcheck(&x, |t, v| {
            let e = t.exp(v);
            // shift well above the ln clamp so central differences are valid
            let shifted = t.add_scalar(e, 0.5);
            let l = t.ln(shifted);
            t.mean_all(l)
        });
    });
}

#[test]
fn mul_broadcast_row_grad() {
    for_each_case(CASES, |rng| {
        let x = smooth_matrix(rng, 3, 4);
        let gain = Matrix::row_vec(vec![0.5, -1.0, 2.0, 0.25]);
        gradcheck(&x, |t, v| {
            let g = t.constant(gain.clone());
            let y = t.mul_broadcast_row(v, g);
            t.sum_all(y)
        });
    });
}

#[test]
fn normalize_rows_grad() {
    for_each_case(CASES, |rng| {
        let x = smooth_matrix(rng, 2, 4);
        // Rows with some spread so sigma is well away from 0.
        let mut x = x;
        x.data_mut()[0] += 3.0;
        x.data_mut()[7] -= 3.0;
        let mask = Matrix::from_vec(2, 4, vec![1.0, 0.0, 2.0, -1.0, 0.5, 1.5, 0.0, 1.0]);
        gradcheck(&x, |t, v| {
            let n = t.normalize_rows(v, 1e-5);
            let m = t.constant(mask.clone());
            let p = t.mul(n, m);
            t.sum_all(p)
        });
    });
}

#[test]
fn stack_grad() {
    for_each_case(CASES, |rng| {
        let x = smooth_matrix(rng, 1, 3);
        gradcheck(&x, |t, v| {
            let s = t.stack_rows(&[v, v]);
            let p = t.mul(s, s);
            t.mean_all(p)
        });
    });
}

#[test]
fn stack_rows_multi_row_grad() {
    for_each_case(CASES, |rng| {
        let x = smooth_matrix(rng, 3, 2);
        let weights = Matrix::from_vec(5, 2, (0..10).map(|i| 0.3 * i as f32 - 1.2).collect());
        gradcheck(&x, |t, v| {
            let a = t.tanh(v);
            let b = t.gather_rows(v, &[2, 0]);
            let c = t.stack_rows(&[a, b]);
            let w = t.constant(weights.clone());
            let p = t.mul(c, w);
            t.sum_all(p)
        });
    });
}

#[test]
fn segment_attention_grad() {
    for_each_case(CASES, |rng| {
        let x = smooth_matrix(rng, 14, 3);
        // Rows 0..4 are the queries, 4..9 the keys, 9..14 the values.
        // Overlapping segments, a one-row segment and one spanning all.
        let segments = [0..3, 1..4, 4..5, 0..5];
        let weights = Matrix::from_vec(4, 3, (0..12).map(|i| 0.2 * (i % 5) as f32 - 0.4).collect());
        gradcheck(&x, |t, v| {
            let q = t.gather_rows(v, &[0, 1, 2, 3]);
            let k = t.gather_rows(v, &[4, 5, 6, 7, 8]);
            let val = t.gather_rows(v, &[9, 10, 11, 12, 13]);
            let o = t.segment_attention(q, k, val, &segments, 0.8);
            let w = t.constant(weights.clone());
            let p = t.mul(o, w);
            t.sum_all(p)
        });
    });
}

#[test]
fn sqrt_grad() {
    for_each_case(CASES, |rng| {
        let x = smooth_matrix(rng, 2, 3);
        // sqrt clamps negatives to 0 in forward; shift the input well above
        // 0 so both the clamp and the 1/(2√x) blow-up stay out of reach.
        gradcheck(&x, |t, v| {
            let shifted = t.add_scalar(v, 2.5);
            let s = t.sqrt(shifted);
            t.mean_all(s)
        });
    });
}

#[test]
fn sq_dist_rows_grad() {
    for_each_case(CASES, |rng| {
        let x = smooth_matrix(rng, 3, 4);
        // Squared distance is a polynomial — smooth everywhere, including
        // at zero distance (unlike euclidean_rows).
        let other = Matrix::full(3, 4, 0.8);
        gradcheck(&x, |t, v| {
            let o = t.constant(other.clone());
            let d = t.sq_dist_rows(v, o);
            t.mean_all(d)
        });
    });
}

#[test]
fn link_prediction_loss_grad() {
    for_each_case(CASES, |rng| {
        let x = smooth_matrix(rng, 4, 1);
        // Perturb the positive logits; fixed negatives keep the BCE halves
        // coupled only through the final add.
        let neg = Matrix::from_vec(3, 1, vec![-0.5, 0.3, 1.2]);
        gradcheck(&x, |t, v| {
            let n = t.constant(neg.clone());
            loss::link_prediction_loss(t, v, n)
        });
    });
}

#[test]
fn triplet_margin_grad() {
    for_each_case(CASES, |rng| {
        let x = smooth_matrix(rng, 2, 3);
        // Positive/negative chosen so the hinge is strictly active
        // (loss > 0) and distances stay away from 0, keeping f smooth.
        let pos = Matrix::full(2, 3, 4.0);
        let neg = Matrix::full(2, 3, -4.0);
        gradcheck(&x, |t, v| {
            let p = t.constant(pos.clone());
            let n = t.constant(neg.clone());
            loss::triplet_margin(t, v, p, n, 50.0)
        });
    });
}

#[test]
fn wide_matmul_grad() {
    // 8×64 · 64×256: the forward and the backward (transposed) products
    // run whole 4×16 register tiles over a 64-deep walk. Gradients must
    // match central differences; bit-equality with the skipping reference
    // is covered by the kernel oracle in matrix.rs.
    let mut rng = Lcg::new(0x5EED);
    let x0 = rng.matrix(8, 64, -0.5, 0.5);
    let w = rng.matrix(64, 256, -0.1, 0.1);
    gradcheck(&x0, |t, v| {
        let wv = t.constant(w.clone());
        let y = t.matmul(v, wv);
        t.mean_all(y)
    });
}

#[test]
fn max_rows_grad_routes_to_argmax() {
    // Distinct entries so the argmax is stable under the FD perturbation.
    let x0 = Matrix::from_rows(&[&[1.0, 5.0], &[3.0, 2.0]]);
    gradcheck(&x0, |t, v| {
        let m = t.max_rows(v);
        t.sum_all(m)
    });
}

#[test]
fn lstm_cell_grad() {
    use cpdg_tensor::nn::LstmCell;
    let mut store = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(21);
    let cell = LstmCell::new(&mut store, &mut rng, "l", 3, 4);
    let x0 = Matrix::from_vec(2, 3, vec![0.4, -0.2, 0.7, 0.1, 0.5, -0.6]);
    gradcheck(&x0, |t, v| {
        let h = t.constant(Matrix::full(2, 4, 0.2));
        let c = t.constant(Matrix::full(2, 4, -0.3));
        let (h2, c2) = cell.forward(t, &store, v, h, c);
        let s = t.add(h2, c2);
        t.mean_all(s)
    });
}

#[test]
fn layernorm_grad() {
    use cpdg_tensor::nn::LayerNorm;
    let mut store = ParamStore::new();
    let ln = LayerNorm::new(&mut store, "ln", 4);
    let x0 = Matrix::from_vec(2, 4, vec![1.0, -2.0, 0.5, 3.0, -1.0, 0.2, 2.5, -0.7]);
    gradcheck(&x0, |t, v| {
        let y = ln.forward(t, &store, v);
        let mask = t.constant(Matrix::from_vec(
            2,
            4,
            vec![1.0, 0.5, -1.0, 2.0, 0.0, 1.0, 1.0, -0.5],
        ));
        let p = t.mul(y, mask);
        t.sum_all(p)
    });
}

#[test]
fn gru_cell_grad_wrt_input_and_state() {
    let mut store = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(11);
    let cell = GruCell::new(&mut store, &mut rng, "g", 3, 4);
    let x0 = Matrix::from_vec(2, 3, vec![0.5, -0.2, 0.8, -0.6, 0.1, 0.4]);
    gradcheck(&x0, |t, v| {
        let h = t.constant(Matrix::full(2, 4, 0.25));
        let h2 = cell.forward(t, &store, v, h);
        t.mean_all(h2)
    });
    let h0 = Matrix::from_vec(2, 4, vec![0.1; 8]);
    gradcheck(&h0, |t, v| {
        let x = t.constant(Matrix::full(2, 3, 0.3));
        let h2 = cell.forward(t, &store, x, v);
        t.mean_all(h2)
    });
}

#[test]
fn rnn_cell_grad() {
    let mut store = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(5);
    let cell = RnnCell::new(&mut store, &mut rng, "r", 2, 3);
    let x0 = Matrix::from_vec(2, 2, vec![0.4, -0.7, 0.2, 0.9]);
    gradcheck(&x0, |t, v| {
        let h = t.constant(Matrix::full(2, 3, -0.1));
        let h2 = cell.forward(t, &store, v, h);
        t.mean_all(h2)
    });
}

#[test]
fn mlp_grad() {
    let mut store = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(3);
    let mlp = Mlp::new(&mut store, &mut rng, "m", &[3, 5, 1], Activation::Tanh);
    let x0 = Matrix::from_vec(2, 3, vec![0.3, -0.4, 0.5, 0.7, -0.1, 0.2]);
    gradcheck(&x0, |t, v| {
        let y = mlp.forward(t, &store, v);
        t.mean_all(y)
    });
}

#[test]
fn attention_grad_wrt_neighbors() {
    let mut store = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(8);
    let att = NeighborAttention::new(&mut store, &mut rng, "a", 3, 3, 4, 3);
    let kv0 = Matrix::from_vec(3, 3, vec![0.5, -0.1, 0.2, 0.3, 0.8, -0.4, -0.2, 0.1, 0.6]);
    gradcheck(&kv0, |t, v| {
        let q = t.constant(Matrix::row_vec(vec![0.2, -0.3, 0.5]));
        let all_rows = 0..3;
        let o = att.forward_rows(t, &store, q, v, &[all_rows]);
        t.mean_all(o)
    });
}

#[test]
fn attention_forward_rows_grad_wrt_neighbors() {
    let mut store = ParamStore::new();
    let mut rng = StdRng::seed_from_u64(9);
    let att = NeighborAttention::new(&mut store, &mut rng, "a", 3, 3, 4, 3);
    let kv0 = Matrix::from_vec(
        4,
        3,
        vec![
            0.5, -0.1, 0.2, 0.3, 0.8, -0.4, -0.2, 0.1, 0.6, 0.9, -0.7, 0.0,
        ],
    );
    gradcheck(&kv0, |t, v| {
        let q = t.gather_rows(v, &[0, 2]);
        let o = att.forward_rows(t, &store, q, v, &[0..3, 2..4]);
        t.mean_all(o)
    });
}

#[test]
fn time_encoder_grad_wrt_dt() {
    let mut store = ParamStore::new();
    let enc = TimeEncoder::new(&mut store, "te", 6);
    let dt0 = Matrix::col_vec(vec![0.5, 1.5, 2.5]);
    gradcheck(&dt0, |t, v| {
        let e = enc.forward(t, &store, v);
        t.mean_all(e)
    });
}

#[test]
fn param_gradients_match_numeric() {
    // End-to-end: perturb a *parameter* in the store and compare the
    // harvested param gradient against finite differences on the stored
    // value — this exercises the mount/harvest path.
    let mut store = ParamStore::new();
    let w = store.register("w", Matrix::from_vec(2, 2, vec![0.3, -0.2, 0.5, 0.1]));

    let run = |store: &ParamStore| -> f32 {
        let mut tape = Tape::new();
        let x = tape.constant(Matrix::from_rows(&[&[1.0, 2.0]]));
        let wv = tape.param(store, w);
        let y = tape.matmul(x, wv);
        let s = tape.sigmoid(y);
        let l = tape.mean_all(s);
        tape.value(l).get(0, 0)
    };

    let mut tape = Tape::new();
    let x = tape.constant(Matrix::from_rows(&[&[1.0, 2.0]]));
    let wv = tape.param(&store, w);
    let y = tape.matmul(x, wv);
    let s = tape.sigmoid(y);
    let l = tape.mean_all(s);
    let grads = tape.backward(l);
    let pg = tape.param_grads(&grads);
    assert_eq!(pg.len(), 1);
    let auto = &pg[0].1;

    for i in 0..4 {
        let orig = store.value(w).data()[i];
        store.value_mut(w).data_mut()[i] = orig + H;
        let plus = run(&store);
        store.value_mut(w).data_mut()[i] = orig - H;
        let minus = run(&store);
        store.value_mut(w).data_mut()[i] = orig;
        let numeric = (plus - minus) / (2.0 * H);
        assert!(
            (auto.data()[i] - numeric).abs() < TOL_ABS,
            "param grad {i}: auto={} numeric={}",
            auto.data()[i],
            numeric
        );
    }
}
