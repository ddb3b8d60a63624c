import math

import numpy as np
import pytest

from trafficflow.catalog import make_entry
from trafficflow.lie import (AdjointParams, InfinitesimalParams, LieCoeffs,
                             ad_matrix, adjoint_apply, adjoint_composite_matrix,
                             adjoint_exp_matrix, adjoint_series_check, basis,
                             classify_optimal, commutator, group_transform,
                             infinitesimals, invariant_ic, invariant_tuple, killing_form)
from trafficflow.model import DomainError, ModelParams, pde_residual

# Full commutation table: TABLE[i][j] = coefficients of [S_{i+1}, S_{j+1}].
COMMUTATION_TABLE = {
    (1, 2): (0, -1, 0, 0),
    (2, 1): (0, 1, 0, 0),
    (1, 4): (0, 0, 0, -1),
    (4, 1): (0, 0, 0, 1),
    (2, 3): (0, 0, 0, 1),
    (3, 2): (0, 0, 0, -1),
}


def test_commutation_table_all_16():
    for i in range(1, 5):
        for j in range(1, 5):
            expect = np.array(COMMUTATION_TABLE.get((i, j), (0, 0, 0, 0)), dtype=float)
            got = commutator(basis(i), basis(j)).as_array()
            assert np.array_equal(got, expect), (i, j, got)


def test_commutator_spec_examples():
    assert np.array_equal(commutator(basis(2), basis(1)).as_array(), [0, 1, 0, 0])
    assert np.array_equal(commutator(basis(3), basis(2)).as_array(), [0, 0, 0, -1])
    w = LieCoeffs(0.3, -1.2, 4.0, 2.5)
    assert np.array_equal(commutator(w, w).as_array(), np.zeros(4))


def test_antisymmetry_random():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        a = LieCoeffs(*rng.uniform(-5, 5, 4))
        b = LieCoeffs(*rng.uniform(-5, 5, 4))
        lhs = commutator(a, b).as_array()
        rhs = -commutator(b, a).as_array()
        assert np.max(np.abs(lhs - rhs)) <= 1e-14


def test_jacobi_identity_all_basis_triples():
    for i in range(1, 5):
        for j in range(1, 5):
            for k in range(1, 5):
                X, Y, Z = basis(i), basis(j), basis(k)
                total = (commutator(X, commutator(Y, Z)).as_array()
                         + commutator(Y, commutator(Z, X)).as_array()
                         + commutator(Z, commutator(X, Y)).as_array())
                assert np.array_equal(total, np.zeros(4)), (i, j, k)


def test_bracket_closure_in_derived_span():
    # every basis bracket lies in span{S2, S4}: the algebra is solvable
    for i in range(1, 5):
        for j in range(1, 5):
            br = commutator(basis(i), basis(j)).as_array()
            assert br[0] == 0.0 and br[2] == 0.0


def test_killing_diagonal_lemma():
    rng = np.random.default_rng(5)
    for _ in range(100):
        w = LieCoeffs(*rng.uniform(-3, 3, 4))
        assert abs(killing_form(w, w) - 2.0 * w.w1 ** 2) <= 1e-12


def test_killing_examples():
    assert killing_form(LieCoeffs(1, 5, 7, 9), LieCoeffs(1, 5, 7, 9)) == pytest.approx(2.0)
    assert killing_form(LieCoeffs(0, 2, -1, 3), LieCoeffs(0, 2, -1, 3)) == 0.0
    assert killing_form(LieCoeffs(2, 0, 0, 0), LieCoeffs(3, 1, 1, 1)) == pytest.approx(12.0)


def test_killing_brute_force_oracle():
    # independent route: build ad matrices column-by-column from commutators
    rng = np.random.default_rng(17)
    for _ in range(50):
        a = LieCoeffs(*rng.uniform(-2, 2, 4))
        b = LieCoeffs(*rng.uniform(-2, 2, 4))
        Ma = np.column_stack([commutator(a, basis(j)).as_array() for j in range(1, 5)])
        Mb = np.column_stack([commutator(b, basis(j)).as_array() for j in range(1, 5)])
        assert killing_form(a, b) == pytest.approx(float(np.trace(Ma @ Mb)), abs=1e-12)


def test_adjoint_exp_matrix_examples():
    assert np.array_equal(adjoint_exp_matrix(1, 0.0), np.eye(4))
    K3 = adjoint_exp_matrix(3, 0.5)
    expect = np.eye(4)
    expect[1, 3] = 0.5
    assert np.array_equal(K3, expect)
    with pytest.raises(ValueError):
        adjoint_exp_matrix(5, 0.1)


def test_adjoint_row_action_matches_representation_table():
    # row S2 of the adjoint table: (w1, w2 - eps w1, w3, w4 - eps w3)
    eps = 0.37
    w = np.array([1.5, -2.0, 0.5, 3.0])
    got = w @ adjoint_exp_matrix(2, eps)
    assert np.allclose(got, [1.5, -2.0 - eps * 1.5, 0.5, 3.0 - eps * 0.5])
    # row S1: exponential scaling of w2, w4
    got = w @ adjoint_exp_matrix(1, eps)
    assert np.allclose(got, [1.5, -2.0 * math.exp(eps), 0.5, 3.0 * math.exp(eps)])
    # row S3: w4 + eps w2
    got = w @ adjoint_exp_matrix(3, eps)
    assert np.allclose(got, [1.5, -2.0, 0.5, 3.0 + eps * (-2.0)])
    # row S4: w4 - eps w1
    got = w @ adjoint_exp_matrix(4, eps)
    assert np.allclose(got, [1.5, -2.0, 0.5, 3.0 - eps * 1.5])


def test_adjoint_actions_first_order_all_16():
    eps = 1e-4
    for i in range(1, 5):
        for j in range(1, 5):
            exact = basis(j).as_array() @ adjoint_exp_matrix(i, eps)
            first = basis(j).as_array() - eps * commutator(basis(i), basis(j)).as_array()
            assert np.max(np.abs(exact - first)) <= 2.0 * eps ** 2, (i, j)


def test_adjoint_series_terminates_except_dilation_scalings():
    # brackets [S_i,[S_i,S_j]] vanish except for (i,j) in {(1,2),(1,4)}
    for i in range(1, 5):
        for j in range(1, 5):
            gap = adjoint_series_check(i, j, 0.3)
            if (i, j) in ((1, 2), (1, 4)):
                assert gap > 1e-3
            else:
                assert gap <= 1e-15, (i, j)


def test_adjoint_series_check_examples():
    assert adjoint_series_check(2, 2, 0.05) == 0.0
    assert adjoint_series_check(1, 2, 0.01) <= 2e-7
    assert adjoint_series_check(2, 3, 0.01) == 0.0


def test_adjoint_apply_examples():
    out = adjoint_apply(AdjointParams(eps2=0.7), LieCoeffs(0, 0, 1, 0.7))
    assert np.allclose(out.as_array(), [0, 0, 1, 0])
    out = adjoint_apply(AdjointParams(), LieCoeffs(1.1, -0.2, 0.3, 0.4))
    assert np.array_equal(out.as_array(), [1.1, -0.2, 0.3, 0.4])
    out = adjoint_apply(AdjointParams(math.log(2), 1, 1, 1), LieCoeffs(1, 1, 1, 1))
    assert np.allclose(out.as_array(), [1, 0, 1, 0], atol=1e-15)


def test_adjoint_apply_equals_matrix_product():
    rng = np.random.default_rng(23)
    for _ in range(1000):
        e = AdjointParams(*rng.uniform(-1.5, 1.5, 4))
        w = LieCoeffs(*rng.uniform(-3, 3, 4))
        closed = adjoint_apply(e, w).as_array()
        via_matrix = w.as_array() @ adjoint_composite_matrix(e)
        assert np.max(np.abs(closed - via_matrix)) <= 1e-12 * max(1.0, np.max(np.abs(closed)))


def test_invariant_tuple_examples():
    iv = invariant_tuple(LieCoeffs(0, 0, 1, 0.6))
    assert (iv.killing, iv.M, iv.N, iv.P, iv.Q, iv.R) == (0.0, 0.0, 1.0, 1, 0, 0)
    iv = invariant_tuple(LieCoeffs(1, 0, 1, -1))
    assert (iv.killing, iv.M, iv.N, iv.P, iv.Q, iv.R) == (2.0, 1.0, 1.0, 1, 0, 0)
    iv = invariant_tuple(LieCoeffs(0, 0, 0, -3))
    assert (iv.killing, iv.M, iv.N, iv.P, iv.Q, iv.R) == (0.0, 0.0, 0.0, 0, 0, -1)


def test_adjoint_invariance_of_tuple():
    rng = np.random.default_rng(31)
    for k in range(1000):
        w = rng.uniform(-3, 3, 4)
        # exercise the degenerate branches too
        if k % 5 == 0:
            w[0] = 0.0
        if k % 7 == 0:
            w[0] = w[1] = w[2] = 0.0
        wc = LieCoeffs(*w)
        e = AdjointParams(*rng.uniform(-1, 1, 4))
        before = invariant_tuple(wc)
        after = invariant_tuple(adjoint_apply(e, wc))
        assert (before.M, before.N, before.P, before.Q, before.R) == \
            (after.M, after.N, after.P, after.Q, after.R)
        assert before.killing == pytest.approx(after.killing, abs=1e-12)


def test_classify_examples():
    cls, e, scale = classify_optimal(LieCoeffs(0, 0, 1, 0.7))
    assert cls.family == "T1" and cls.b == 1 and scale == 1.0
    assert np.allclose(adjoint_apply(e, LieCoeffs(0, 0, 1, 0.7)).as_array() / scale,
                       [0, 0, 1, 1])

    cls, e, scale = classify_optimal(LieCoeffs(1, 0, 0, 0))
    assert cls.family == "T2" and cls.b == 0 and e.as_tuple() == (0, 0, 0, 0)

    cls, e, scale = classify_optimal(LieCoeffs(2, 0, 3, 0))
    assert cls.family == "T3" and cls.l1 == 2 and cls.l2 == 3 and cls.b == 0

    cls, e, scale = classify_optimal(LieCoeffs(0, 0, 1, -0.7))
    assert cls.family == "T1" and cls.b == -1


def test_classify_unreduced_pure_translation():
    cls, e, scale = classify_optimal(LieCoeffs(0, 0, 0, -3))
    assert cls.family == "UNREDUCED" and cls.b == -1
    assert np.allclose(cls.residue, [0, 0, 0, -1])
    assert scale == 3.0


def test_classify_reports_boost_residue():
    # w1 = 0, w3 != 0 with a surviving S2 component: the adjoint action can
    # only rescale it, so it must come back as a flagged residue.
    w = LieCoeffs(0, 5, 1, 0.7)
    cls, e, scale = classify_optimal(w)
    assert cls.family == "T1" and cls.b == 1
    assert cls.residue[1] != 0.0
    reduced = adjoint_apply(e, w).as_array() / scale
    assert np.allclose(reduced, cls.representative() + cls.residue, atol=1e-12)


def test_classify_roundtrip_random():
    rng = np.random.default_rng(41)
    masks = [(1, 1, 1, 1), (1, 1, 0, 1), (0, 1, 1, 1), (0, 1, 0, 1), (0, 0, 0, 1)]
    for k in range(1000):
        m = masks[k % len(masks)]
        w = rng.uniform(-3, 3, 4) * np.array(m)
        if not np.any(w != 0.0):
            continue
        wc = LieCoeffs(*w)
        cls, e, scale = classify_optimal(wc)
        reduced = adjoint_apply(e, wc).as_array() / scale
        target = cls.representative() + cls.residue
        assert np.max(np.abs(reduced - target)) <= 1e-12 * max(1.0, np.max(np.abs(target)))


def test_classify_rejects_zero():
    with pytest.raises(ValueError):
        classify_optimal(LieCoeffs(0, 0, 0, 0))


def test_infinitesimals_examples():
    assert infinitesimals(InfinitesimalParams(1, 0, 0, 0), 2, 3, 5, 7) == (2, 3, -5, 0)
    assert infinitesimals(InfinitesimalParams(0, 1, 0, 0), 9, 4, 2, 1) == (0, 1, 0, 0)
    assert infinitesimals(InfinitesimalParams(0, 0, 1, 0), 9, 4, 2, 1) == (4, 0, 0, 1)


MP = ModelParams(A=1.0)


def _t1_sampler():
    return make_entry("T1", p1=1, p2=2, b=1).sampler(MP)


def test_group_transform_translation_example():
    s = _t1_sampler()
    ts = group_transform(4, 1.0, s)
    st = ts.eval(2.0, 1.0)
    ref = s.eval(1.0, 1.0)
    assert st.rho == ref.rho and st.u == ref.u


def test_group_transform_boost_on_constants():
    s = make_entry("T4", p1=1, b=0).sampler(MP)
    ts = group_transform(3, 0.4, s)
    st = ts.eval(5.0, 2.0)
    assert st.rho == pytest.approx(1.0) and st.u == pytest.approx(1.4)


def test_group_transform_identity():
    s = _t1_sampler()
    ts = group_transform(1, 0.0, s)
    for (x, t) in ((0.3, 1.0), (-1.0, 2.0)):
        a, b = ts.eval(x, t), s.eval(x, t)
        assert a.rho == b.rho and a.u == b.u


def test_group_transform_composition_law():
    s = _t1_sampler()
    for i in (1, 2, 3, 4):
        once = group_transform(i, 0.5, group_transform(i, -0.2, s))
        joint = group_transform(i, 0.3, s)
        for (x, t) in ((0.5, 1.2), (-0.7, 2.0), (1.5, 1.6)):
            a, b = once.eval(x, t), joint.eval(x, t)
            assert abs(a.rho - b.rho) <= 1e-12 * max(1.0, abs(b.rho))
            assert abs(a.u - b.u) <= 1e-12 * max(1.0, abs(b.u))


def test_group_transform_preserves_solutions_with_viscosity():
    # the dilation action compensates the viscous term through the density scaling
    mp = ModelParams(A=1.0, D=0.8)
    s = make_entry("T1", p1=1, p2=2, b=1).sampler(mp)
    for i in (1, 2, 3, 4):
        ts = group_transform(i, 0.25, s)
        r1, r2 = pde_residual(mp, ts, 0.4, 1.5)
        assert abs(r1) < 1e-12 and abs(r2) < 1e-12


def test_group_transform_domain_pullback():
    s = _t1_sampler()  # domain: t + 1 > 0 (rho > 0)
    ts = group_transform(2, 1.0, s)  # evaluates base at t - 1
    assert not ts.domain(0.0, -0.5)
    assert ts.domain(0.0, 0.5)


def test_invariant_ic_examples():
    e = InfinitesimalParams(1, 0, 2, 0)
    assert invariant_ic(e, 3.0, 2.0, "power") == pytest.approx(12.0)
    e = InfinitesimalParams(1, 0, 0.5, 4)
    assert invariant_ic(e, 1.0, 0.0, "reciprocal") == pytest.approx(0.25)
    e = InfinitesimalParams(2, 0, 0, 1)
    assert invariant_ic(e, 7.5, 123.0, "power") == 7.5


def test_invariant_ic_errors():
    with pytest.raises(ValueError):
        invariant_ic(InfinitesimalParams(1, 1, 0, 0), 1.0, 0.0, "power")
    with pytest.raises(ValueError):
        invariant_ic(InfinitesimalParams(0, 0, 1, 1), 1.0, 0.0, "power")
    with pytest.raises(DomainError):
        invariant_ic(InfinitesimalParams(1, 0, 1, 0), 1.0, 0.0, "reciprocal")
    with pytest.raises(DomainError):
        invariant_ic(InfinitesimalParams(1, 0, 0.5, 0), 1.0, -2.0, "power")
    # negative base with integer exponent is fine
    assert invariant_ic(InfinitesimalParams(1, 0, 2, 0), 1.0, -2.0, "power") == 4.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_parameters_reject_non_finite_values(bad):
    for cls, what in ((LieCoeffs, "coefficient w3"), (AdjointParams, "group parameter eps3"),
                      (InfinitesimalParams, "symmetry constant e3")):
        with pytest.raises(ValueError, match=f"non-finite {what}"):
            cls(0.5, 1.0, bad, 2.0)
    e = InfinitesimalParams(1, 0, 2, 0)
    for delta, x in ((bad, 2.0), (1.0, bad)):
        with pytest.raises(ValueError, match="delta and x must be finite"):
            invariant_ic(e, delta, x, "power")


def test_ad_matrix_structure():
    # ad of a general element, column j = [w, S_j]
    w = LieCoeffs(1.0, 2.0, 3.0, 4.0)
    M = ad_matrix(w)
    for j in range(1, 5):
        assert np.array_equal(M[:, j - 1], commutator(w, basis(j)).as_array())
