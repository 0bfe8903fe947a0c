//! Property-based verification of the autograd engine: every op family is
//! gradient-checked on random shapes and values, and algebraic identities
//! of the tensor type hold on arbitrary data.

use proptest::prelude::*;

use ccsa_tensor::{grad_check, Adjacency, Tape, TapeScalar, Tensor};

fn arb_vec(len: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-2.0f32..2.0, len)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 40, ..ProptestConfig::default() })]

    #[test]
    fn elementwise_chain_gradcheck(data_a in arb_vec(6), data_b in arb_vec(6)) {
        let a = Tensor::from_vec(data_a, [6]);
        let b = Tensor::from_vec(data_b, [6]);
        let report = grad_check(&[a, b], 1e-2, |_tape, vars| {
            TapeScalar(
                vars[0]
                    .sigmoid()
                    .mul(vars[1].tanh())
                    .add(vars[0].sub(vars[1]).scale(0.5))
                    .sum(),
            )
        });
        prop_assert!(report.passes(3e-2), "{report:?}");
    }

    #[test]
    fn matmul_gradcheck(
        data_a in arb_vec(6),
        data_b in arb_vec(8),
    ) {
        let a = Tensor::from_vec(data_a, [3, 2]);
        let b = Tensor::from_vec(data_b, [2, 4]);
        let report = grad_check(&[a, b], 1e-2, |_tape, vars| {
            TapeScalar(vars[0].matmul(vars[1]).tanh().sum())
        });
        prop_assert!(report.passes(3e-2), "{report:?}");
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose(
        data_a in arb_vec(6),
        data_b in arb_vec(8),
    ) {
        let a = Tensor::from_vec(data_a, [3, 2]);
        let b = Tensor::from_vec(data_b, [4, 2]);
        let direct = a.matmul(&b.t());
        let tape = Tape::new();
        let va = tape.leaf(a);
        let vb = tape.leaf(b);
        let nt = va.matmul_nt(vb).value();
        prop_assert!(direct.max_abs_diff(&nt) < 1e-5);
    }

    #[test]
    fn mean_rows_and_broadcast_gradcheck(
        m in arb_vec(12),
        v in arb_vec(4),
    ) {
        let m = Tensor::from_vec(m, [3, 4]);
        let v = Tensor::from_vec(v, [4]);
        let report = grad_check(&[m, v], 1e-2, |_tape, vars| {
            TapeScalar(vars[0].add_row_broadcast(vars[1]).tanh().mean_rows().sum())
        });
        prop_assert!(report.passes(3e-2), "{report:?}");
    }

    #[test]
    fn gather_concat_stack_gradcheck(table in arb_vec(12)) {
        let table = Tensor::from_vec(table, [4, 3]);
        let report = grad_check(&[table], 1e-2, |tape, vars| {
            let rows = tape.gather(vars[0], vec![0usize, 2, 2, 3]);
            let r0 = rows.row(0);
            let r2 = rows.row(1);
            let cat = tape.concat(&[r0, r2]);
            let st = tape.stack(&[r0, r2]);
            TapeScalar(cat.sum().add(st.tanh().sum()))
        });
        prop_assert!(report.passes(3e-2), "{report:?}");
    }

    #[test]
    fn spmm_gradcheck(h in arb_vec(8), extra_edge in 0u32..3) {
        let h = Tensor::from_vec(h, [4, 2]);
        let adj = std::sync::Arc::new(Adjacency::normalized_from_edges(
            4,
            &[(0, 1), (1, 2), (2, 3), (0, extra_edge.min(3))],
        ));
        let report = grad_check(&[h], 1e-2, move |tape, vars| {
            TapeScalar(tape.spmm(std::sync::Arc::clone(&adj), vars[0]).tanh().sum())
        });
        prop_assert!(report.passes(3e-2), "{report:?}");
    }

    #[test]
    fn bce_gradcheck(z in -3.0f32..3.0, label in prop::bool::ANY) {
        let z = Tensor::from_vec(vec![z], [1]);
        let target = label as i32 as f32;
        let report = grad_check(&[z], 1e-3, move |_tape, vars| {
            TapeScalar(vars[0].sum().bce_with_logits(target))
        });
        prop_assert!(report.passes(2e-2), "{report:?}");
    }

    #[test]
    fn stack_rows_index_rows_gradcheck(a in arb_vec(6), b in arb_vec(3)) {
        let a = Tensor::from_vec(a, [2, 3]);
        let b = Tensor::from_vec(b, [1, 3]);
        let report = grad_check(&[a, b], 1e-2, |tape, vars| {
            let stacked = tape.stack_rows(&[vars[0], vars[1], vars[0]]);
            let picked = stacked.index_rows(vec![4usize, 0, 2, 0]);
            TapeScalar(picked.tanh().sum())
        });
        prop_assert!(report.passes(3e-2), "{report:?}");
    }

    #[test]
    fn segment_sum_gradcheck(m in arb_vec(8)) {
        let m = Tensor::from_vec(m, [4, 2]);
        let report = grad_check(&[m], 1e-2, |tape, vars| {
            // Uneven segments. The fold-from-init variant is a test
            // oracle inside the crate, checked in `tape::tests`.
            let plain = tape.segment_sum(vars[0], vec![0usize, 1, 4]);
            TapeScalar(plain.tanh().sum())
        });
        prop_assert!(report.passes(3e-2), "{report:?}");
    }

    #[test]
    fn slice_cols_gradcheck(m in arb_vec(12), v in arb_vec(5)) {
        let m = Tensor::from_vec(m, [3, 4]);
        let v = Tensor::from_vec(v, [5]);
        let report = grad_check(&[m, v], 1e-2, |_tape, vars| {
            // Matrix slice, overlapping matrix slice, and a vector slice.
            let a = vars[0].slice_cols(1, 2).tanh().sum();
            let b = vars[0].slice_cols(0, 3).sigmoid().sum();
            let c = vars[1].slice_cols(2, 3).tanh().sum();
            TapeScalar(a.add(b).add(c))
        });
        prop_assert!(report.passes(3e-2), "{report:?}");
    }

    #[test]
    fn gather_rows_multi_gradcheck(a in arb_vec(6), b in arb_vec(3), c in arb_vec(6)) {
        let a = Tensor::from_vec(a, [2, 3]);
        let b = Tensor::from_vec(b, [1, 3]);
        let c = Tensor::from_vec(c, [2, 3]);
        let report = grad_check(&[a, b, c], 1e-2, |tape, vars| {
            // Repeated rows across sources; source c partly untouched.
            let picked = tape.gather_rows_multi(
                &[vars[0], vars[1], vars[2]],
                vec![3usize, 0, 2, 3, 1],
            );
            TapeScalar(picked.tanh().sum())
        });
        prop_assert!(report.passes(3e-2), "{report:?}");
    }

    #[test]
    fn gather_rows_multi_matches_stack_then_index(a in arb_vec(8), b in arb_vec(4)) {
        // The incremental gather must equal the materialised
        // stack_rows + index_rows path bit-for-bit, forward and backward.
        let a = Tensor::from_vec(a, [2, 4]);
        let b = Tensor::from_vec(b, [1, 4]);
        let indices = vec![2usize, 0, 2, 1];
        let tape = Tape::new();
        let (va, vb) = (tape.leaf(a.clone()), tape.leaf(b.clone()));
        let multi = tape.gather_rows_multi(&[va, vb], indices.clone());
        let gm = tape.backward(multi.tanh().sum());
        let tape2 = Tape::new();
        let (wa, wb) = (tape2.leaf(a), tape2.leaf(b));
        let stacked = tape2.stack_rows(&[wa, wb]).index_rows(indices);
        let gs = tape2.backward(stacked.tanh().sum());
        prop_assert!(multi.value().max_abs_diff(&stacked.value()) == 0.0);
        prop_assert!(gm.get(va).max_abs_diff(&gs.get(wa)) == 0.0);
        prop_assert!(gm.get(vb).max_abs_diff(&gs.get(wb)) == 0.0);
    }

    #[test]
    fn concat_cols_gradcheck(a in arb_vec(6), b in arb_vec(9)) {
        let a = Tensor::from_vec(a, [3, 2]);
        let b = Tensor::from_vec(b, [3, 3]);
        let report = grad_check(&[a, b], 1e-2, |_tape, vars| {
            TapeScalar(vars[0].concat_cols(vars[1]).tanh().sum())
        });
        prop_assert!(report.passes(3e-2), "{report:?}");
    }

    #[test]
    fn segment_sum_matches_add_n(rows in arb_vec(12)) {
        // The fused child-sum must agree with the sequential add_n path.
        let m = Tensor::from_vec(rows, [4, 3]);
        let tape = Tape::new();
        let vm = tape.leaf(m.clone());
        let fused = tape.segment_sum(vm, vec![0usize, 4]).value();
        let parts: Vec<_> = (0..4).map(|r| tape.leaf(m.row(r))).collect();
        let seq = tape.add_n(&parts).value();
        prop_assert!(fused.reshape([3]).max_abs_diff(&seq) < 1e-6);
    }

    // ── Tensor algebra ───────────────────────────────────────────────

    #[test]
    fn add_commutes(a in arb_vec(10), b in arb_vec(10)) {
        let ta = Tensor::from_vec(a, [10]);
        let tb = Tensor::from_vec(b, [10]);
        let ab = ta.add(&tb);
        let ba = tb.add(&ta);
        prop_assert_eq!(ab.as_slice(), ba.as_slice());
    }

    #[test]
    fn matmul_associates_with_identity(a in arb_vec(12)) {
        let t = Tensor::from_vec(a, [3, 4]);
        prop_assert!(t.matmul(&Tensor::eye(4)).max_abs_diff(&t) < 1e-6);
        prop_assert!(Tensor::eye(3).matmul(&t).max_abs_diff(&t) < 1e-6);
    }

    #[test]
    fn transpose_is_involution(a in arb_vec(15)) {
        let t = Tensor::from_vec(a, [5, 3]);
        let tt = t.t().t();
        prop_assert_eq!(tt.as_slice(), t.as_slice());
    }

    #[test]
    fn dot_matches_mul_sum(a in arb_vec(9), b in arb_vec(9)) {
        let ta = Tensor::from_vec(a, [9]);
        let tb = Tensor::from_vec(b, [9]);
        prop_assert!((ta.dot(&tb) - ta.mul(&tb).sum()).abs() < 1e-4);
    }

    #[test]
    fn outer_matches_matmul(a in arb_vec(3), b in arb_vec(4)) {
        let ta = Tensor::from_vec(a, [3]);
        let tb = Tensor::from_vec(b, [4]);
        let outer = ta.outer(&tb);
        let mm = ta.reshape([3, 1]).matmul(&tb.reshape([1, 4]));
        prop_assert!(outer.max_abs_diff(&mm) < 1e-6);
    }
}
