import math
import re

import numpy as np
import pytest

from trafficflow.catalog import make_entry
from trafficflow.lie import (STRUCTURE_CONSTANTS, AdjointParams, InfinitesimalParams,
                             LieCoeffs, ad_matrix, adjoint_apply, adjoint_composite_matrix,
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
            got = np.array(commutator(basis(i), basis(j)).as_tuple())
            assert np.array_equal(got, expect), (i, j, got)


def test_commutator_spec_examples():
    assert np.array_equal(commutator(basis(2), basis(1)).as_tuple(), [0, 1, 0, 0])
    assert np.array_equal(commutator(basis(3), basis(2)).as_tuple(), [0, 0, 0, -1])
    w = LieCoeffs(0.3, -1.2, 4.0, 2.5)
    assert np.array_equal(commutator(w, w).as_tuple(), np.zeros(4))


def test_antisymmetry_random():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        a = LieCoeffs(*rng.uniform(-5, 5, 4))
        b = LieCoeffs(*rng.uniform(-5, 5, 4))
        lhs = np.array(commutator(a, b).as_tuple())
        rhs = -np.array(commutator(b, a).as_tuple())
        assert np.max(np.abs(lhs - rhs)) <= 1e-14


def test_jacobi_identity_all_basis_triples():
    for i in range(1, 5):
        for j in range(1, 5):
            for k in range(1, 5):
                X, Y, Z = basis(i), basis(j), basis(k)
                total = (np.array(commutator(X, commutator(Y, Z)).as_tuple())
                         + np.array(commutator(Y, commutator(Z, X)).as_tuple())
                         + np.array(commutator(Z, commutator(X, Y)).as_tuple()))
                assert np.array_equal(total, np.zeros(4)), (i, j, k)


def test_bracket_closure_in_derived_span():
    # every basis bracket lies in span{S2, S4}: the algebra is solvable
    for i in range(1, 5):
        for j in range(1, 5):
            br = np.array(commutator(basis(i), basis(j)).as_tuple())
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
        Ma = np.column_stack([commutator(a, basis(j)).as_tuple() for j in range(1, 5)])
        Mb = np.column_stack([commutator(b, basis(j)).as_tuple() for j in range(1, 5)])
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
            exact = np.array(basis(j).as_tuple()) @ adjoint_exp_matrix(i, eps)
            first = (np.array(basis(j).as_tuple())
                     - eps * np.array(commutator(basis(i), basis(j)).as_tuple()))
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
    assert np.allclose(out.as_tuple(), [0, 0, 1, 0])
    out = adjoint_apply(AdjointParams(), LieCoeffs(1.1, -0.2, 0.3, 0.4))
    assert np.array_equal(out.as_tuple(), [1.1, -0.2, 0.3, 0.4])
    out = adjoint_apply(AdjointParams(math.log(2), 1, 1, 1), LieCoeffs(1, 1, 1, 1))
    assert np.allclose(out.as_tuple(), [1, 0, 1, 0], atol=1e-15)


def test_adjoint_apply_equals_matrix_product():
    rng = np.random.default_rng(23)
    for _ in range(1000):
        e = AdjointParams(*rng.uniform(-1.5, 1.5, 4))
        w = LieCoeffs(*rng.uniform(-3, 3, 4))
        closed = np.array(adjoint_apply(e, w).as_tuple())
        via_matrix = np.array(w.as_tuple()) @ adjoint_composite_matrix(e)
        assert np.max(np.abs(closed - via_matrix)) <= 1e-12 * max(1.0, np.max(np.abs(closed)))


def test_composite_matrix_is_the_product_of_its_four_factors_bit_for_bit():
    rng = np.random.default_rng(29)
    for _ in range(500):
        e = AdjointParams(*np.where(rng.random(4) < 0.2, rng.choice([0.0, -0.0], 4),
                                    rng.uniform(-5, 5, 4)).tolist())
        K = [np.array(adjoint_exp_matrix(i, eps)) for i, eps in zip((1, 2, 3, 4), e.as_tuple())]
        assert _bits(adjoint_composite_matrix(e)) == _bits(K[3] @ K[2] @ K[1] @ K[0])


def test_invariant_tuple_examples():
    iv = invariant_tuple(LieCoeffs(0, 0, 1, 0.6))
    assert (iv.killing, iv.M, iv.N, iv.P, iv.Q, iv.R) == (0.0, 0.0, 1.0, 1, 0, 0)
    iv = invariant_tuple(LieCoeffs(1, 0, 1, -1))
    assert (iv.killing, iv.M, iv.N, iv.P, iv.Q, iv.R) == (2.0, 1.0, 1.0, 1, 0, 0)
    iv = invariant_tuple(LieCoeffs(0, 0, 0, -3))
    assert (iv.killing, iv.M, iv.N, iv.P, iv.Q, iv.R) == (0.0, 0.0, 0.0, 0, 0, -1)


def test_invariant_p_flag_tests_the_coefficients_not_their_squares():
    # 1e-200 ** 2 underflows to 0; 1e200 ** 2 overflows.
    assert invariant_tuple(LieCoeffs(1e-200, 0, 0, 0)).P == 1
    assert invariant_tuple(LieCoeffs(0, 0, -1e-200, 7)).P == 1
    with pytest.raises(ValueError, match="^Killing form is not finite"):
        invariant_tuple(LieCoeffs(1e200, 0, 0, 0))


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
    assert np.allclose(np.array(adjoint_apply(e, LieCoeffs(0, 0, 1, 0.7)).as_tuple()) / scale,
                       [0, 0, 1, 1])

    cls, e, scale = classify_optimal(LieCoeffs(1, 0, 0, 0))
    assert cls.family == "T2" and cls.b == 0 and e.as_tuple() == (0, 0, 0, 0)

    cls, e, scale = classify_optimal(LieCoeffs(2, 0, 3, 0))
    assert cls.family == "T3" and cls.l1 == 2 and cls.l2 == 3 and cls.b == 0

    cls, e, scale = classify_optimal(LieCoeffs(0, 0, 1, -0.7))
    assert cls.family == "T1" and cls.b == -1


@pytest.mark.parametrize("w,why", [
    ((1e-310, 1e10, 1.0, 0.0), "its leading coefficient w1=1e-310 is too small"),
    ((1e-310, 1e10, 0.0, 0.0), "its leading coefficient w1=1e-310 is too small"),
    ((0.0, 1.0, 1e-310, 1e10), "its leading coefficient w3=1e-310 is too small"),
    ((0.0, 1e-310, 0.0, 1e10), "its leading coefficient w2=1e-310 is too small"),
    ((0.0, 1.0, 1.0, 1e-320), "w4=1e-320 is too small against w2=1.0 and w3=1.0"),
])
def test_classify_rejects_vectors_whose_classification_overflows(w, why):
    with pytest.raises(ValueError) as exc:
        classify_optimal(LieCoeffs(*w))
    assert str(exc.value) == f"cannot classify w={list(w)}: {why}"


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
    reduced = np.array(adjoint_apply(e, w).as_tuple()) / scale
    assert np.allclose(reduced, np.add(cls.representative(), cls.residue), atol=1e-12)


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
        reduced = np.array(adjoint_apply(e, wc).as_tuple()) / scale
        target = np.add(cls.representative(), cls.residue)
        assert np.max(np.abs(reduced - target)) <= 1e-12 * max(1.0, np.max(np.abs(target)))


def test_optimal_classes_compare_and_hash():
    for w in ((0, 5, 1, 0.7), (0, 0, 0, -3), (2, 0, 3, 0)):
        cls, _, _ = classify_optimal(LieCoeffs(*w))
        again, _, _ = classify_optimal(LieCoeffs(*w))
        assert cls == again and hash(cls) == hash(again)
    assert len({classify_optimal(LieCoeffs(*w))[0] for w in ((1, 0, 0, 0), (2, 0, 0, 0))}) == 1


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


@pytest.mark.parametrize("e,delta,x,branch", [
    ((1, 0, 1000, 0), 1.0, 1e10, "power"),          # base ** q overflows
    ((1, 0, 300, 0), 1e10, 10.0, "power"),          # delta * base ** q overflows
    ((1, 0, 0, 0), 1.0, 1e-310, "reciprocal"),      # delta / base overflows
])
def test_invariant_ic_rejects_a_theta_that_is_not_finite(e, delta, x, branch):
    e = InfinitesimalParams(*e)
    with pytest.raises(DomainError, match=rf"^{branch} branch: Theta is not finite at "
                       rf"e=\({e.e1}, {e.e2}, {e.e3}, {e.e4}\), delta={delta}, x={x}$"):
        invariant_ic(e, delta, x, branch)


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
    M = np.array(ad_matrix(w))
    for j in range(1, 5):
        assert np.array_equal(M[:, j - 1], commutator(w, basis(j)).as_tuple())


def _bits(a) -> bytes:
    return np.asarray(a, dtype=float).tobytes()


def test_plain_float_algebra_matches_its_einsum_reference_bit_for_bit():
    # Reference: the einsum/trace formulas over the structure-constant table,
    # on vectors with signed zeros and with products that overflow.
    C = np.array(STRUCTURE_CONSTANTS)
    rng = np.random.default_rng(7)
    for _ in range(2000):
        a, b = (np.where(rng.random(4) < 0.3, rng.choice([0.0, -0.0], 4),
                         rng.uniform(-3, 3, 4) * 10.0 ** rng.choice([0, 0, 0, 200], 4))
                for _ in range(2))
        A, B = np.einsum("i,ijk->kj", a, C), np.einsum("i,ijk->kj", b, C)
        wa, wb = LieCoeffs(*a.tolist()), LieCoeffs(*b.tolist())
        assert _bits(ad_matrix(wa)) == _bits(A)
        with np.errstate(all="ignore"):
            bracket = np.einsum("i,j,ijk->k", a, b, C)
            trace = np.trace(A @ B)
        if np.isfinite(trace):
            assert _bits(killing_form(wa, wb)) == _bits(trace)
        else:
            with pytest.raises(ValueError, match="^Killing form is not finite at a="):
                killing_form(wa, wb)
        if np.isfinite(bracket).all():
            assert _bits(commutator(wa, wb).as_tuple()) == _bits(bracket)
        else:
            with pytest.raises(ValueError, match="non-finite coefficient"):
                commutator(wa, wb)


def test_structure_constants_are_the_published_brackets():
    assert np.array(STRUCTURE_CONSTANTS).shape == (4, 4, 4)
    for i in range(4):
        for j in range(4):
            expect = COMMUTATION_TABLE.get((i + 1, j + 1), (0, 0, 0, 0))
            assert list(STRUCTURE_CONSTANTS[i][j]) == list(expect)
    assert LieCoeffs(1, -0.0, 3, 4).as_tuple() == (1, -0.0, 3, 4)


@pytest.mark.parametrize("i,eps,match", [
    (1, math.nan, "G1: eps must be finite, got eps=nan"),
    (3, math.inf, "G3: eps must be finite, got eps=inf"),
    (4, -math.inf, "G4: eps must be finite, got eps=-inf"),
    (1, -1000.0, r"G1: e\^-eps overflows at eps=-1000.0"),
    (1, 1000.0, r"G1: e\^-eps underflows to 0 at eps=1000.0"),
])
def test_group_transform_rejects_a_non_finite_or_overflowing_eps(i, eps, match):
    s = make_entry("T1", p1=1.0, p2=2.0, b=1.0).sampler(ModelParams(A=1.0, D=0.0))
    with pytest.raises(ValueError, match=f"^{match}$"):
        group_transform(i, eps, s)


def test_group_transform_shifts_take_an_eps_whose_exponential_overflows():
    s = make_entry("T4", p1=1.0, b=0.0).sampler(ModelParams(A=1.0, D=0.0))
    assert group_transform(2, -1000.0, s).eval(0.5, 1.0) == s.eval(0.5, 1001.0)


def test_adjoint_rejects_an_eps1_whose_exponential_overflows():
    w = LieCoeffs(1.0, 2.0, 3.0, 4.0)
    with pytest.raises(ValueError, match=r"^eps1=1000.0 is too large: e\^eps1 overflows$"):
        adjoint_apply(AdjointParams(eps1=1000.0), w)
    with pytest.raises(ValueError, match=r"^eps=710.0 is too large: e\^eps overflows$"):
        adjoint_exp_matrix(1, 710.0)
    # An eps1 just below the overflow threshold still maps a vector.
    assert adjoint_apply(AdjointParams(eps1=709.0), basis(2)).w2 == math.exp(709.0)


@pytest.mark.parametrize("i", [1, 2, 3, 4])
@pytest.mark.parametrize("eps", [math.nan, math.inf, -math.inf])
def test_adjoint_exp_matrix_rejects_a_non_finite_eps(i, eps):
    with pytest.raises(ValueError, match=rf"^eps={eps} is not finite: K_{i}\(eps\) would hold it$"):
        adjoint_exp_matrix(i, eps)


@pytest.mark.parametrize("eps", [1e200, -1.4e154, math.inf, -math.inf, math.nan])
def test_adjoint_series_check_rejects_an_eps_whose_square_overflows(eps):
    # The series term eps ** 2 / 2 would overflow, or the gap would be NaN.
    for i in (1, 2):
        with pytest.raises(ValueError, match="^" + re.escape(
                f"eps must be finite with a finite square, got eps={eps}") + "$"):
            adjoint_series_check(i, 1, eps)
    # An eps whose square is just finite still gives a finite gap.
    assert math.isfinite(adjoint_series_check(2, 1, -1.3e154))
