//! Finite-difference verification of every autodiff operation.
//!
//! For each op we build a small scalar-valued graph over random
//! parameters and compare the analytic gradient with central finite
//! differences. An op only enters the library once it passes here.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use tensor::nn::{Activation, GruCell, LstmCell, Mlp};
use tensor::sparse::Csr;
use tensor::{GateAct, GradStore, Graph, Matrix, ParamSet, Var};

const EPS: f32 = 1e-3;
/// Relative tolerance: f32 finite differences are noisy, so we accept
/// 2% relative error with a small absolute floor.
const REL_TOL: f32 = 2e-2;
const ABS_TOL: f32 = 2e-4;

/// Checks d(loss)/d(param) for every parameter against central
/// finite differences.
fn gradcheck(params: &mut ParamSet, build: impl Fn(&mut Graph<'_>) -> Var) {
    // Analytic gradients.
    let mut grads = GradStore::zeros_like(params);
    {
        let mut g = Graph::new(params);
        let loss = build(&mut g);
        assert_eq!(g.value(loss).shape(), (1, 1), "loss must be scalar");
        g.backward(loss, &mut grads);
    }

    let eval = |params: &ParamSet| -> f32 {
        let mut g = Graph::new(params);
        let loss = build(&mut g);
        g.value(loss).at(0, 0)
    };

    for i in 0..params.len() {
        let id = params.iter().nth(i).expect("in range").0;
        let n_entries = params.get(id).len();
        for e in 0..n_entries {
            let orig = params.get(id).data()[e];
            params.get_mut(id).data_mut()[e] = orig + EPS;
            let up = eval(params);
            params.get_mut(id).data_mut()[e] = orig - EPS;
            let down = eval(params);
            params.get_mut(id).data_mut()[e] = orig;
            let numeric = (up - down) / (2.0 * EPS);
            let analytic = grads.get(id).data()[e];
            let denom = numeric.abs().max(analytic.abs()).max(1.0);
            assert!(
                (numeric - analytic).abs() <= REL_TOL * denom + ABS_TOL,
                "param {} entry {e}: analytic {analytic} vs numeric {numeric}",
                params.name(id),
            );
        }
    }
}

fn rng() -> StdRng {
    StdRng::seed_from_u64(0xD15EA5E)
}

#[test]
fn matmul_chain() {
    let mut rng = rng();
    let mut params = ParamSet::new();
    let a = params.add("a", Matrix::uniform(2, 3, 0.8, &mut rng));
    let b = params.add("b", Matrix::uniform(3, 4, 0.8, &mut rng));
    gradcheck(&mut params, |g| {
        let av = g.param(a);
        let bv = g.param(b);
        let y = g.matmul(av, bv);
        g.sq_sum(y)
    });
}

#[test]
fn matmul_t_against_table() {
    let mut rng = rng();
    let mut params = ParamSet::new();
    let h = params.add("h", Matrix::uniform(2, 4, 0.8, &mut rng));
    let table = params.add("table", Matrix::uniform(5, 4, 0.8, &mut rng));
    gradcheck(&mut params, |g| {
        let hv = g.param(h);
        let tv = g.param(table);
        let logits = g.matmul_t(hv, tv); // 2 x 5
        let lp = g.log_softmax_rows(logits);
        let picked = g.pick_per_row(lp, &[3, 0]);
        let s = g.sum_all(picked);
        g.scale(s, -1.0)
    });
}

#[test]
fn add_broadcast_and_sub() {
    let mut rng = rng();
    let mut params = ParamSet::new();
    let x = params.add("x", Matrix::uniform(3, 4, 0.8, &mut rng));
    let bias = params.add("bias", Matrix::uniform(1, 4, 0.8, &mut rng));
    let y = params.add("y", Matrix::uniform(3, 4, 0.8, &mut rng));
    gradcheck(&mut params, |g| {
        let xv = g.param(x);
        let bv = g.param(bias);
        let yv = g.param(y);
        let xb = g.add(xv, bv);
        let d = g.sub(xb, yv);
        g.sq_sum(d)
    });
}

#[test]
fn elementwise_mul_scale_addscalar() {
    let mut rng = rng();
    let mut params = ParamSet::new();
    let x = params.add("x", Matrix::uniform(2, 3, 0.8, &mut rng));
    let y = params.add("y", Matrix::uniform(2, 3, 0.8, &mut rng));
    gradcheck(&mut params, |g| {
        let xv = g.param(x);
        let yv = g.param(y);
        let m = g.mul(xv, yv);
        let s = g.scale(m, 1.7);
        let a = g.add_scalar(s, 0.3);
        g.sq_sum(a)
    });
}

#[test]
fn activations() {
    let mut rng = rng();
    let mut params = ParamSet::new();
    // Keep values away from the ReLU kink where finite differences lie.
    let x = params.add(
        "x",
        Matrix::from_fn(2, 4, |r, c| 0.35 + 0.2 * (r as f32) - 0.45 * (c as f32)),
    );
    let _ = &mut rng;
    gradcheck(&mut params, |g| {
        let xv = g.param(x);
        let r = g.relu(xv);
        let l = g.leaky_relu(r, 0.2);
        let sgm = g.sigmoid(l);
        let t = g.tanh(sgm);
        let sp = g.softplus(t);
        g.sum_all(sp)
    });
}

#[test]
fn concat_ops() {
    let mut rng = rng();
    let mut params = ParamSet::new();
    let a = params.add("a", Matrix::uniform(2, 3, 0.8, &mut rng));
    let b = params.add("b", Matrix::uniform(2, 2, 0.8, &mut rng));
    let c = params.add("c", Matrix::uniform(1, 5, 0.8, &mut rng));
    gradcheck(&mut params, |g| {
        let av = g.param(a);
        let bv = g.param(b);
        let cv = g.param(c);
        let ab = g.concat_cols(av, bv); // 2 x 5
        let abc = g.concat_rows(ab, cv); // 3 x 5
        let t = g.tanh(abc);
        g.sq_sum(t)
    });
}

#[test]
fn reductions_mean_and_sqsum() {
    let mut rng = rng();
    let mut params = ParamSet::new();
    let x = params.add("x", Matrix::uniform(3, 3, 0.8, &mut rng));
    gradcheck(&mut params, |g| {
        let xv = g.param(x);
        let m = g.mean_all(xv);
        let sq = g.sq_sum(xv);
        let sum = g.add(m, sq);
        g.sum_all(sum)
    });
}

#[test]
fn gather_embeddings() {
    let mut rng = rng();
    let mut params = ParamSet::new();
    let table = params.add("emb", Matrix::uniform(6, 4, 0.8, &mut rng));
    gradcheck(&mut params, |g| {
        // Repeated index 2 exercises gradient accumulation in scatter.
        let e = g.gather(table, &[2, 5, 2, 0]);
        let t = g.tanh(e);
        g.sq_sum(t)
    });
}

#[test]
fn spmm_dense_gradient() {
    let mut rng = rng();
    let mut params = ParamSet::new();
    let x = params.add("x", Matrix::uniform(4, 3, 0.8, &mut rng));
    let sp = Arc::new(Csr::from_triples(
        5,
        4,
        &[
            (0, 1, 0.5),
            (1, 0, -1.0),
            (2, 3, 2.0),
            (4, 2, 0.7),
            (4, 0, 0.1),
        ],
    ));
    gradcheck(&mut params, |g| {
        let xv = g.param(x);
        let y = g.spmm(Arc::clone(&sp), xv);
        let t = g.leaky_relu(y, 0.2);
        g.sq_sum(t)
    });
}

#[test]
fn bce_with_logits_loss() {
    let mut rng = rng();
    let mut params = ParamSet::new();
    let x = params.add("logits", Matrix::uniform(3, 4, 1.5, &mut rng));
    let targets = Matrix::from_fn(3, 4, |r, c| ((r + c) % 2) as f32);
    let mask = Matrix::from_fn(3, 4, |r, c| if (r * 4 + c) % 3 == 0 { 0.0 } else { 1.0 });
    gradcheck(&mut params, move |g| {
        let xv = g.param(x);
        g.bce_with_logits(xv, targets.clone(), mask.clone())
    });
}

#[test]
fn mse_masked_loss() {
    let mut rng = rng();
    let mut params = ParamSet::new();
    let x = params.add("pred", Matrix::uniform(3, 4, 1.0, &mut rng));
    let targets = Matrix::from_fn(3, 4, |r, c| (r as f32) * 0.3 - (c as f32) * 0.1);
    let mask = Matrix::from_fn(3, 4, |r, c| if (r + c) % 2 == 0 { 1.0 } else { 0.0 });
    gradcheck(&mut params, move |g| {
        let xv = g.param(x);
        g.mse_masked(xv, targets.clone(), mask.clone())
    });
}

#[test]
fn mlp_end_to_end() {
    let mut rng = rng();
    let mut params = ParamSet::new();
    let mlp = Mlp::new(
        &mut params,
        "mlp",
        &[3, 5, 2],
        Activation::Tanh,
        Activation::Identity,
        &mut rng,
    );
    let x_in = Matrix::uniform(2, 3, 0.8, &mut rng);
    gradcheck(&mut params, move |g| {
        let x = g.input(x_in.clone());
        let y = mlp.forward(g, x);
        g.sq_sum(y)
    });
}

#[test]
fn lstm_two_steps() {
    let mut rng = rng();
    let mut params = ParamSet::new();
    let cell = LstmCell::new(&mut params, "lstm", 3, 4, &mut rng);
    let x1 = Matrix::uniform(2, 3, 0.8, &mut rng);
    let x2 = Matrix::uniform(2, 3, 0.8, &mut rng);
    gradcheck(&mut params, move |g| {
        let state = cell.zero_state(g, 2);
        let x1v = g.input(x1.clone());
        let s1 = cell.step(g, x1v, state);
        let x2v = g.input(x2.clone());
        let s2 = cell.step(g, x2v, s1);
        g.sq_sum(s2.h)
    });
}

#[test]
fn gru_two_steps() {
    let mut rng = rng();
    let mut params = ParamSet::new();
    let cell = GruCell::new(&mut params, "gru", 3, 4, &mut rng);
    let x1 = Matrix::uniform(2, 3, 0.8, &mut rng);
    let x2 = Matrix::uniform(2, 3, 0.8, &mut rng);
    gradcheck(&mut params, move |g| {
        let h0 = cell.zero_state(g, 2);
        let x1v = g.input(x1.clone());
        let h1 = cell.step(g, x1v, h0);
        let x2v = g.input(x2.clone());
        let h2 = cell.step(g, x2v, h1);
        g.sq_sum(h2)
    });
}

#[test]
fn backward_accumulates_across_calls() {
    let mut rng = rng();
    let mut params = ParamSet::new();
    let w = params.add("w", Matrix::uniform(2, 2, 0.8, &mut rng));
    let mut grads = GradStore::zeros_like(&params);
    let mut g = Graph::new(&params);
    let wv = g.param(w);
    let loss = g.sq_sum(wv);
    g.backward(loss, &mut grads);
    let first = grads.get(w).clone();
    g.backward(loss, &mut grads);
    // Second sweep doubles the gradient.
    for (a, b) in grads.get(w).data().iter().zip(first.data()) {
        assert!((a - 2.0 * b).abs() < 1e-5);
    }
}

#[test]
fn backward_weighted_scales_gradient() {
    let mut rng = rng();
    let mut params = ParamSet::new();
    let w = params.add("w", Matrix::uniform(2, 2, 0.8, &mut rng));
    let mut g1 = GradStore::zeros_like(&params);
    let mut g2 = GradStore::zeros_like(&params);
    let mut g = Graph::new(&params);
    let wv = g.param(w);
    let loss = g.sq_sum(wv);
    g.backward(loss, &mut g1);
    g.backward_weighted(loss, -2.5, &mut g2);
    for (a, b) in g1.get(w).data().iter().zip(g2.get(w).data()) {
        assert!((b + 2.5 * a).abs() < 1e-5);
    }
}

#[test]
fn gather_var_rows() {
    let mut rng = rng();
    let mut params = ParamSet::new();
    let table = params.add("emb", Matrix::uniform(6, 4, 0.8, &mut rng));
    gradcheck(&mut params, |g| {
        let e = g.param(table);
        let t = g.tanh(e);
        // Repeated index exercises scatter-add.
        let picked = g.gather_var(t, &[1, 4, 1]);
        g.sq_sum(picked)
    });
}

#[test]
fn fused_param_matmuls() {
    let mut rng = rng();
    let mut params = ParamSet::new();
    let x = params.add("x", Matrix::uniform(3, 4, 0.8, &mut rng));
    let w = params.add("w", Matrix::uniform(4, 5, 0.8, &mut rng));
    let b = params.add("b", Matrix::uniform(1, 5, 0.8, &mut rng));
    let table = params.add("table", Matrix::uniform(6, 5, 0.8, &mut rng));
    gradcheck(&mut params, |g| {
        let xv = g.param(x);
        let xw = g.matmul_param(xv, w);
        let pre = g.add_row_param(xw, b);
        let h = g.tanh(pre);
        let logits = g.matmul_t_param(h, table); // 3 x 6
        g.sq_sum(logits)
    });
}

/// The fused param ops must be *bit-identical* to the
/// `param` + `matmul`/`add` compositions they replace — the fusion is
/// a pure tape/copy elimination, not a numeric change.
#[test]
fn fused_param_matmuls_are_bit_identical_to_unfused() {
    let mut rng = rng();
    let mut params = ParamSet::new();
    let x = params.add("x", Matrix::uniform(7, 4, 0.8, &mut rng));
    let w = params.add("w", Matrix::uniform(4, 5, 0.8, &mut rng));
    let b = params.add("b", Matrix::uniform(1, 5, 0.8, &mut rng));
    let table = params.add("table", Matrix::uniform(6, 5, 0.8, &mut rng));

    let run = |fused: bool| {
        let mut grads = GradStore::zeros_like(&params);
        let mut g = Graph::new(&params);
        let xv = g.param(x);
        let logits = if fused {
            let xw = g.matmul_param(xv, w);
            let pre = g.add_row_param(xw, b);
            let h = g.tanh(pre);
            g.matmul_t_param(h, table)
        } else {
            let wv = g.param(w);
            let bv = g.param(b);
            let tv = g.param(table);
            let xw = g.matmul(xv, wv);
            let pre = g.add(xw, bv);
            let h = g.tanh(pre);
            g.matmul_t(h, tv)
        };
        let loss = g.sq_sum(logits);
        g.backward(loss, &mut grads);
        let value: Vec<u32> = g.value(logits).data().iter().map(|v| v.to_bits()).collect();
        let gbits: Vec<Vec<u32>> = [x, w, b, table]
            .iter()
            .map(|&p| grads.get(p).data().iter().map(|v| v.to_bits()).collect())
            .collect();
        (value, gbits)
    };

    assert_eq!(run(true), run(false));
}

#[test]
fn log_softmax_pick_fused() {
    let mut rng = rng();
    let mut params = ParamSet::new();
    let x = params.add("x", Matrix::uniform(4, 6, 0.8, &mut rng));
    gradcheck(&mut params, |g| {
        let xv = g.param(x);
        let picked = g.log_softmax_pick(xv, &[2, 0, 5, 2]);
        let s = g.sum_all(picked);
        g.scale(s, -1.0)
    });
}

/// The fused pick must match `pick_per_row(log_softmax_rows(x))`
/// bit-for-bit in both the picked values and the input gradient.
#[test]
fn log_softmax_pick_is_bit_identical_to_composition() {
    let mut rng = rng();
    let mut params = ParamSet::new();
    let x = params.add("x", Matrix::uniform(5, 7, 3.0, &mut rng));
    let idx = [6u32, 0, 3, 3, 1];

    let run = |fused: bool| {
        let mut grads = GradStore::zeros_like(&params);
        let mut g = Graph::new(&params);
        let xv = g.param(x);
        let picked = if fused {
            g.log_softmax_pick(xv, &idx)
        } else {
            let lp = g.log_softmax_rows(xv);
            g.pick_per_row(lp, &idx)
        };
        let s = g.sum_all(picked);
        let loss = g.scale(s, -0.75);
        g.backward(loss, &mut grads);
        let value: Vec<u32> = g.value(picked).data().iter().map(|v| v.to_bits()).collect();
        let gx: Vec<u32> = grads.get(x).data().iter().map(|v| v.to_bits()).collect();
        (value, gx)
    };

    assert_eq!(run(true), run(false));
}

/// Bit patterns for exact comparison, with every NaN mapped to one
/// canonical pattern: IEEE 754 leaves NaN sign/payload to the
/// implementation, so only NaN-ness has to agree.
fn canon_bits(values: &[f32]) -> Vec<u32> {
    values
        .iter()
        .map(|v| {
            if v.is_nan() {
                f32::NAN.to_bits()
            } else {
                v.to_bits()
            }
        })
        .collect()
}

#[test]
fn stack_rows_gradient() {
    let mut rng = rng();
    let mut params = ParamSet::new();
    let a = params.add("a", Matrix::uniform(2, 3, 0.8, &mut rng));
    let b = params.add("b", Matrix::uniform(1, 3, 0.8, &mut rng));
    let c = params.add("c", Matrix::uniform(3, 3, 0.8, &mut rng));
    gradcheck(&mut params, |g| {
        let av = g.param(a);
        let ta = g.tanh(av);
        let bv = g.param(b);
        let cv = g.param(c);
        // A part stacked twice sums both slices' gradients.
        let s = g.stack_rows(&[ta, bv, cv, ta]);
        let t = g.tanh(s);
        g.sq_sum(t)
    });
}

/// `stack_rows` must reproduce the chain of pairwise `concat_rows` it
/// replaces bit for bit: values, and the gradients of parts that are
/// stacked more than once and also consumed elsewhere (so the order
/// in which slices reach each part's adjoint matters).
#[test]
fn stack_rows_is_bit_identical_to_concat_chain() {
    let mut rng = rng();
    let mut params = ParamSet::new();
    let ids: Vec<_> = (0..3)
        .map(|i| params.add(format!("p{i}"), Matrix::uniform(2, 4, 2.0, &mut rng)))
        .collect();
    let weights = Matrix::uniform(12, 4, 3.0, &mut rng);

    let run = |fused: bool| {
        let mut grads = GradStore::zeros_like(&params);
        let mut g = Graph::new(&params);
        let parts: Vec<Var> = ids
            .iter()
            .map(|&id| {
                let p = g.param(id);
                g.tanh(p)
            })
            .collect();
        let order = [parts[0], parts[1], parts[0], parts[2], parts[0], parts[1]];
        let stacked = if fused {
            g.stack_rows(&order)
        } else {
            let mut acc = order[0];
            for &p in &order[1..] {
                acc = g.concat_rows(acc, p);
            }
            acc
        };
        let w = g.input(weights.clone());
        let weighted = g.mul(stacked, w);
        let obj = g.sum_all(weighted);
        let extra = g.sq_sum(parts[0]);
        let loss = g.add(obj, extra);
        g.backward_weighted(loss, -0.37, &mut grads);
        let value = canon_bits(g.value(stacked).data());
        let gbits: Vec<Vec<u32>> = ids
            .iter()
            .map(|&id| canon_bits(grads.get(id).data()))
            .collect();
        (value, gbits)
    };

    assert_eq!(run(true), run(false));
}

#[test]
fn pair_logits_gradient() {
    let mut rng = rng();
    let mut params = ParamSet::new();
    let d = params.add("d", Matrix::uniform(5, 4, 0.8, &mut rng));
    let table = params.add("table", Matrix::uniform(6, 4, 0.8, &mut rng));
    gradcheck(&mut params, |g| {
        let dv = g.param(d);
        let src = g.tanh(dv);
        // Repeated rows, a row whose children coincide, and a table
        // row used as both a left and a right child.
        let logits = g.pair_logits(src, &[0, 3, 3, 4], table, &[1, 2, 5, 2], &[2, 2, 0, 1]);
        let picked = g.log_softmax_pick(logits, &[0, 1, 1, 0]);
        let s = g.sum_all(picked);
        g.scale(s, -1.0)
    });
}

/// Runs the BCBT pair block either fused or as the seven-op
/// composition it replaces, and returns the logits plus every
/// gradient, as canonical bits. `upstream` weights each logit before
/// the sum, so zero and `-0.0` upstream gradients can be injected.
fn pair_block(
    params: &ParamSet,
    src_id: tensor::ParamId,
    table: tensor::ParamId,
    idx: (&[u32], &[u32], &[u32]),
    upstream: &Matrix,
    fused: bool,
) -> (Vec<u32>, Vec<Vec<u32>>) {
    let (rows, left, right) = idx;
    let mut grads = GradStore::zeros_like(params);
    let mut g = Graph::new(params);
    let dv = g.param(src_id);
    let src = g.tanh(dv);
    let logits = if fused {
        g.pair_logits(src, rows, table, left, right)
    } else {
        let dk = g.gather_var(src, rows);
        let el = g.gather(table, left);
        let er = g.gather(table, right);
        let pl = g.mul(dk, el);
        let pr = g.mul(dk, er);
        let ones = g.input(Matrix::full(params.get(table).cols(), 1, 1.0));
        let ll = g.matmul(pl, ones);
        let lr = g.matmul(pr, ones);
        g.concat_cols(ll, lr)
    };
    let w = g.input(upstream.clone());
    let weighted = g.mul(logits, w);
    let obj = g.sum_all(weighted);
    // A second consumer of `src`, so the pair block's gradient lands
    // on an adjoint that already holds one.
    let extra = g.sq_sum(src);
    let loss = g.add(obj, extra);
    g.backward_weighted(loss, -0.75, &mut grads);
    let value = canon_bits(g.value(logits).data());
    let gbits = [src_id, table]
        .iter()
        .map(|&id| canon_bits(grads.get(id).data()))
        .collect();
    (value, gbits)
}

/// The fused pair block must match the unfused composition bit for
/// bit in its logits and in every `GradStore` entry: with repeated
/// `rows`/`left`/`right` indices, with `-0.0` and `0.0` upstream
/// gradients, and with a NaN row (NaN-ness must agree).
#[test]
fn pair_logits_is_bit_identical_to_unfused_block() {
    let mut rng = rng();
    let mut params = ParamSet::new();
    let src = params.add("src", Matrix::uniform(6, 5, 2.0, &mut rng));
    let table = params.add("table", Matrix::uniform(7, 5, 2.0, &mut rng));
    let rows = [0u32, 2, 2, 5, 1, 0, 3];
    let left = [1u32, 3, 3, 6, 0, 4, 2];
    let right = [2u32, 4, 3, 1, 0, 6, 6];
    let idx = (&rows[..], &left[..], &right[..]);

    let mut upstream = Matrix::uniform(rows.len(), 2, 3.0, &mut rng);
    upstream.set(1, 0, -0.0);
    upstream.set(3, 1, -0.0);
    upstream.set(4, 1, 0.0);
    let fused = pair_block(&params, src, table, idx, &upstream, true);
    assert_eq!(
        fused,
        pair_block(&params, src, table, idx, &upstream, false)
    );

    // A NaN in one source row poisons exactly the logits and gradient
    // entries it reaches, identically in both forms.
    params.get_mut(src).set(2, 3, f32::NAN);
    let fused = pair_block(&params, src, table, idx, &upstream, true);
    assert!(
        fused.0.contains(&f32::NAN.to_bits()),
        "NaN row did not propagate"
    );
    assert_eq!(
        fused,
        pair_block(&params, src, table, idx, &upstream, false)
    );
}

#[test]
fn gate_gradient() {
    let mut rng = rng();
    let mut params = ParamSet::new();
    let x = params.add("x", Matrix::uniform(3, 4, 0.8, &mut rng));
    let h = params.add("h", Matrix::uniform(3, 5, 0.8, &mut rng));
    let w = params.add("w", Matrix::uniform(4, 5, 0.8, &mut rng));
    let b = params.add("b", Matrix::uniform(1, 5, 0.8, &mut rng));
    let u = params.add("u", Matrix::uniform(5, 5, 0.8, &mut rng));
    for act in [GateAct::Sigmoid, GateAct::Tanh] {
        gradcheck(&mut params, |g| {
            let xv = g.param(x);
            let hv = g.param(h);
            let y = g.gate(xv, w, b, hv, u, act);
            g.sq_sum(y)
        });
    }
}

/// The fused gate must match `act(add(add_row_param(matmul_param(x,
/// W), b), matmul_param(h, U)))` bit for bit: its output and every
/// gradient, with `x` and `h` also consumed elsewhere (so the order in
/// which the gate's contributions reach their adjoints matters), for
/// a one-row batch (the bias add's uncollapsed path) and a taller one.
#[test]
fn gate_is_bit_identical_to_unfused_composition() {
    let mut rng = rng();
    for rows in [1, 4] {
        let mut params = ParamSet::new();
        let x = params.add("x", Matrix::uniform(rows, 3, 2.0, &mut rng));
        let h = params.add("h", Matrix::uniform(rows, 5, 2.0, &mut rng));
        let w = params.add("w", Matrix::uniform(3, 5, 0.8, &mut rng));
        let b = params.add("b", Matrix::uniform(1, 5, 0.8, &mut rng));
        let u = params.add("u", Matrix::uniform(5, 5, 0.8, &mut rng));
        let run = |act: GateAct, fused: bool| {
            let mut grads = GradStore::zeros_like(&params);
            let mut g = Graph::new(&params);
            let xp = g.param(x);
            let xv = g.tanh(xp);
            let hp = g.param(h);
            let hv = g.sigmoid(hp);
            let y = if fused {
                g.gate(xv, w, b, hv, u, act)
            } else {
                let xw = g.matmul_param(xv, w);
                let pre = g.add_row_param(xw, b);
                let hu = g.matmul_param(hv, u);
                let s = g.add(pre, hu);
                match act {
                    GateAct::Sigmoid => g.sigmoid(s),
                    GateAct::Tanh => g.tanh(s),
                }
            };
            let y2 = g.gate(xv, w, b, hv, u, GateAct::Tanh);
            let prod = g.mul(y, y2);
            let s1 = g.sum_all(prod);
            let s2 = g.sq_sum(xv);
            let s3 = g.sq_sum(hv);
            let s12 = g.add(s1, s2);
            let loss = g.add(s12, s3);
            g.backward_weighted(loss, -1.3, &mut grads);
            let value = canon_bits(g.value(y).data());
            let gbits: Vec<Vec<u32>> = [x, h, w, b, u]
                .iter()
                .map(|&id| canon_bits(grads.get(id).data()))
                .collect();
            (value, gbits)
        };
        for act in [GateAct::Sigmoid, GateAct::Tanh] {
            assert_eq!(run(act, true), run(act, false), "rows={rows} {act:?}");
        }
    }
}
