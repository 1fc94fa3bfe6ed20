//! Property-based tests of the autodiff substrate: algebraic identities
//! that must hold for arbitrary shapes and values.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tensor::{GradJournal, GradStore, Graph, Matrix, ParamSet};

fn mat(rows: usize, cols: usize, seed: u64, scale: f32) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    Matrix::uniform(rows, cols, scale, &mut rng)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// (A B) C == A (B C) within f32 tolerance.
    #[test]
    fn matmul_is_associative(
        m in 1usize..6, k in 1usize..6, n in 1usize..6, p in 1usize..6, seed in 0u64..1000
    ) {
        let a = mat(m, k, seed, 1.0);
        let b = mat(k, n, seed + 1, 1.0);
        let c = mat(n, p, seed + 2, 1.0);
        let left = a.matmul(&b).matmul(&c);
        let right = a.matmul(&b.matmul(&c));
        for (x, y) in left.data().iter().zip(right.data()) {
            prop_assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    /// (A B)^T == B^T A^T.
    #[test]
    fn transpose_reverses_products(
        m in 1usize..6, k in 1usize..6, n in 1usize..6, seed in 0u64..1000
    ) {
        let a = mat(m, k, seed, 1.0);
        let b = mat(k, n, seed + 9, 1.0);
        let left = a.matmul(&b).transpose();
        let right = b.transpose().matmul(&a.transpose());
        for (x, y) in left.data().iter().zip(right.data()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    /// Gradient of sum(A ⊙ B) w.r.t. A equals B exactly.
    #[test]
    fn mul_gradient_is_the_other_operand(
        r in 1usize..6, c in 1usize..6, seed in 0u64..1000
    ) {
        let mut params = ParamSet::new();
        let a = params.add("a", mat(r, c, seed, 1.0));
        let b_val = mat(r, c, seed + 3, 1.0);
        let mut grads = GradStore::zeros_like(&params);
        let mut g = Graph::new(&params);
        let av = g.param(a);
        let bv = g.input(b_val.clone());
        let prod = g.mul(av, bv);
        let loss = g.sum_all(prod);
        g.backward(loss, &mut grads);
        for (x, y) in grads.get(a).data().iter().zip(b_val.data()) {
            prop_assert!((x - y).abs() < 1e-5);
        }
    }

    /// Backward of a linear chain is itself linear: doubling the seed
    /// weight doubles every parameter gradient.
    #[test]
    fn backward_weighted_is_linear(
        r in 1usize..5, c in 1usize..5, seed in 0u64..1000, w in 0.1f32..4.0
    ) {
        let mut params = ParamSet::new();
        let a = params.add("a", mat(r, c, seed, 1.0));
        let mut g1 = GradStore::zeros_like(&params);
        let mut g2 = GradStore::zeros_like(&params);
        let mut g = Graph::new(&params);
        let av = g.param(a);
        let t = g.tanh(av);
        let loss = g.sq_sum(t);
        g.backward(loss, &mut g1);
        g.backward_weighted(loss, w, &mut g2);
        for (x, y) in g1.get(a).data().iter().zip(g2.get(a).data()) {
            prop_assert!((w * x - y).abs() < 1e-4 * (1.0 + x.abs()));
        }
    }

    /// Sweeping into a `GradJournal` and then applying it performs the
    /// same `+=` calls as sweeping straight into the store: every
    /// gradient matches bit for bit, on a store that already holds
    /// gradients, over every op that writes parameter gradients.
    #[test]
    fn journal_then_apply_equals_direct_backward(
        r in 1usize..5, c in 1usize..5, n in 1usize..5, m in 2usize..7,
        seed in 0u64..1000,
        gather_idx in prop::collection::vec(0u32..6, 1..6),
        pairs in prop::collection::vec(0u32..10_000, 1..6),
        w1 in -3.0f32..3.0, w2 in -3.0f32..3.0,
    ) {
        let mut params = ParamSet::new();
        let x = params.add("x", mat(r, c, seed, 1.0));
        let w = params.add("w", mat(c, n, seed + 1, 1.0));
        let b = params.add("b", mat(1, n, seed + 2, 1.0));
        let table = params.add("table", mat(m, n, seed + 3, 1.0));
        let clamp = |i: u32, len: usize| i % len as u32;
        let gather_idx: Vec<u32> = gather_idx.iter().map(|&i| clamp(i, m)).collect();
        // Each draw picks a source row and both children of one pair.
        let rows: Vec<u32> = pairs.iter().map(|&p| clamp(p, r)).collect();
        let left: Vec<u32> = pairs.iter().map(|&p| clamp(p / 7, m)).collect();
        let right: Vec<u32> = pairs.iter().map(|&p| clamp(p / 49, m)).collect();
        let prior = |seed: u64| {
            let mut store = GradStore::zeros_like(&params);
            for (id, v) in params.iter() {
                *store.get_mut(id) = mat(v.rows(), v.cols(), seed + id.index() as u64, 0.5);
            }
            store
        };
        let mut direct = prior(seed + 7);
        let mut journaled = prior(seed + 7);
        let mut journal = GradJournal::new();
        let mut g = Graph::new(&params);
        let xv = g.param(x);
        let h = g.matmul_param(xv, w);
        let pre = g.add_row_param(h, b);
        let t = g.tanh(pre);
        let lg = g.matmul_t_param(t, table);
        let first = g.sq_sum(lg);
        let e = g.gather(table, &gather_idx);
        let pl = g.pair_logits(t, &rows, table, &left, &right);
        let s1 = g.sq_sum(e);
        let s2 = g.sq_sum(pl);
        let second = g.add(s1, s2);
        // Two sweeps, as the PPO update makes one per decision group.
        g.backward_weighted(first, w1, &mut direct);
        g.backward_weighted(second, w2, &mut direct);
        g.backward_weighted(first, w1, &mut journal);
        g.backward_weighted(second, w2, &mut journal);
        prop_assert!(!journal.is_empty());
        journal.apply(&mut journaled);
        for (id, _) in params.iter() {
            let bits = |s: &GradStore| -> Vec<u32> {
                s.get(id).data().iter().map(|v| v.to_bits()).collect()
            };
            prop_assert!(bits(&direct) == bits(&journaled), "{} differs", params.name(id));
        }
    }

    /// Row-softmax of log_softmax output sums to 1 per row.
    #[test]
    fn log_softmax_rows_normalizes(
        r in 1usize..6, c in 1usize..8, seed in 0u64..1000
    ) {
        let params = ParamSet::new();
        let mut g = Graph::new(&params);
        let x = g.input(mat(r, c, seed, 3.0));
        let lp = g.log_softmax_rows(x);
        let v = g.value(lp);
        for row in 0..r {
            let total: f32 = v.row_slice(row).iter().map(|&l| l.exp()).sum();
            prop_assert!((total - 1.0).abs() < 1e-4, "row {row} sums to {total}");
        }
    }

    /// softmax + sample_categorical never panics and respects support.
    #[test]
    fn categorical_sampling_in_range(
        logits in prop::collection::vec(-20.0f32..20.0, 1..40),
        seed in 0u64..500,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (idx, lp) = tensor::util::sample_categorical(&logits, &mut rng);
        prop_assert!(idx < logits.len());
        prop_assert!(lp <= 1e-6 && lp.is_finite());
    }
}
