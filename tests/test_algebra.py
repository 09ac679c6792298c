import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ladderlab import (
    build_h1_rep,
    build_su2_rep,
    build_su11_rep,
    check_algebra_relations,
)
from ladderlab import algebra
from ladderlab.algebra import Heisenberg, Su2, Su11, _l1, _l2
from ladderlab.operators import Bands, OperatorMatrix
from oracles import Bounded, dense, dense_cartesian, hermiticity_residual


def cartesian(rep) -> tuple[OperatorMatrix, OperatorMatrix]:
    """L1 and L2 of `rep`, as the library forms them."""
    lp, lm = rep.Lplus.bands, rep.Lminus.bands
    return OperatorMatrix("L1", _l1(lp, lm)), OperatorMatrix("L2", _l2(lp, lm))


# Pauli-matrix oracle written in the |n> ordering (n=0 is m=-1/2, so the
# textbook sigma2 and sigma3 pick up the basis flip).
SIGMA1 = np.array([[0.0, 1.0], [1.0, 0.0]])
SIGMA2 = np.array([[0.0, 1.0j], [-1.0j, 0.0]])
SIGMA3 = np.array([[-1.0, 0.0], [0.0, 1.0]])


class TestKindValidation:
    @pytest.mark.parametrize("bad", [0, -1, 0.3, 1.2, -0.5])
    def test_su2_rejects_bad_labels(self, bad):
        with pytest.raises(ValueError):
            Su2(bad)

    @pytest.mark.parametrize("bad", [0, 0.2, 0.4, -3])
    def test_su11_rejects_bad_weights(self, bad):
        with pytest.raises(ValueError, match="half-integer"):
            Su11(bad)

    # 2 * 1e308 overflows to inf, whose round() once raised OverflowError
    @pytest.mark.parametrize("kind", [Su2, Su11])
    @pytest.mark.parametrize("bad", [1e308, float("inf"), -float("inf")])
    def test_overflowing_label_rejected(self, kind, bad):
        with pytest.raises(ValueError, match="finite"):
            kind(bad)

    def test_largest_finite_double_accepted(self):
        assert Su11(8e307).k == 8e307

    def test_half_integers_accepted(self):
        assert Su2(0.5).l == 0.5
        assert Su2(3).l == 3.0
        assert Su11(2.5).k == 2.5

    @pytest.mark.parametrize("bad_dim", [0, 1, -4])
    def test_truncations_need_two_states(self, bad_dim):
        with pytest.raises(ValueError):
            build_su11_rep(0.5, bad_dim)
        with pytest.raises(ValueError):
            build_h1_rep(bad_dim)


class TestSu2Builder:
    def test_element_formula_l3_n0(self):
        # <1|L+|0> = sqrt((2l - 0)(0 + 1)) at l=3
        rep = build_su2_rep(3)
        assert rep.dim == 7
        assert abs(dense(rep.Lplus)[1, 0] - math.sqrt(6.0)) < 1e-12
        assert abs(dense(rep.Lplus)[1, 0] - 2.449489743) < 1e-9

    def test_top_state_annihilated(self):
        rep = build_su2_rep(3)
        top = np.zeros(rep.dim)
        top[-1] = 1.0
        assert np.linalg.norm(dense(rep.Lplus) @ top) == 0.0

    def test_spin_half_matches_pauli(self):
        rep = build_su2_rep(0.5)
        assert np.array_equal(dense(rep.L3), np.diag([-0.5, 0.5]).astype(complex))
        assert np.array_equal(dense(rep.Lplus), np.array([[0, 0], [1, 0]], dtype=complex))
        l1, l2 = cartesian(rep)
        assert np.max(np.abs(dense(l1) - SIGMA1 / 2)) < 1e-15
        assert np.max(np.abs(dense(l2) - SIGMA2 / 2)) < 1e-15
        assert np.max(np.abs(dense(rep.L3) - SIGMA3 / 2)) < 1e-15

    def test_l3_eigenvalues_run_m(self):
        rep = build_su2_rep(2)
        assert np.array_equal(np.diag(dense(rep.L3)).real, [-2, -1, 0, 1, 2])

    @pytest.mark.parametrize("l", [0.5, 1, 3.5, 10, 27.5, 50])
    def test_relations_exact_up_to_l_50(self, l):
        rep = build_su2_rep(l)
        assert check_algebra_relations(rep, rep.dim)["relations_residual"] < 1e-12

    def test_lowering_element_formula(self):
        # <n-1|L-|n> = sqrt((2l - n + 1) n) via the adjoint pairing
        rep = build_su2_rep(2.5)
        n = 3
        assert abs(dense(rep.Lminus)[n - 1, n] - math.sqrt((5 - n + 1) * n)) < 1e-12


class TestSu11Builder:
    def test_fundamental_elements_are_integers(self):
        # k=1/2: <n+1|L+|n> = sqrt((n+1)^2) = n + 1
        rep = build_su11_rep(0.5, 10)
        assert abs(dense(rep.Lplus)[4, 3] - 4.0) < 1e-12
        assert np.allclose(np.diag(dense(rep.Lplus), -1).real, np.arange(1, 10))

    def test_k1_element(self):
        rep = build_su11_rep(1, 6)
        assert abs(dense(rep.Lplus)[1, 0] - math.sqrt(2.0)) < 1e-15

    def test_lowest_weight_annihilated(self):
        for k in (0.5, 1.5, 4):
            rep = build_su11_rep(k, 8)
            e0 = np.zeros(8)
            e0[0] = 1.0
            assert np.linalg.norm(dense(rep.Lminus) @ e0) == 0.0

    def test_l3_spectrum_is_k_ladder(self):
        rep = build_su11_rep(1.5, 12)
        assert np.array_equal(np.diag(dense(rep.L3)).real, 1.5 + np.arange(12))

    def test_interior_relations_exact_top_row_contaminated(self):
        rep = build_su11_rep(0.5, 40)
        assert check_algebra_relations(rep, 39)["relations_residual"] < 1e-12
        full = check_algebra_relations(rep, 40)["relations_residual"]
        # the broken entry is the top diagonal of [L+, L-], of order of the
        # squared top ladder element
        assert full > 100.0

    def test_cartesian_commutator_closes_with_noncompact_sign(self):
        rep = build_su11_rep(0.5, 30)
        l1, l2 = (dense(op) for op in cartesian(rep))
        resid = l1 @ l2 - l2 @ l1 + 1j * dense(rep.L3)
        assert np.max(np.abs(resid[:29, :29])) < 1e-12


class TestH1Builder:
    def test_creation_elements(self):
        rep = build_h1_rep(5)
        assert abs(dense(rep.Lplus)[3, 2] - math.sqrt(3.0)) < 1e-15

    def test_vacuum_annihilated(self):
        rep = build_h1_rep(5)
        e0 = np.zeros(5)
        e0[0] = 1.0
        assert np.linalg.norm(dense(rep.Lminus) @ e0) == 0.0

    def test_canonical_commutator_on_interior_states(self):
        rep = build_h1_rep(6)
        comm = dense(rep.Lminus) @ dense(rep.Lplus) - dense(rep.Lplus) @ dense(rep.Lminus)
        for n in range(5):  # n <= dim - 2
            e = np.zeros(6)
            e[n] = 1.0
            assert np.linalg.norm(comm @ e - e) < 1e-14

    def test_l3_slot_is_shifted_number_operator(self):
        rep = build_h1_rep(4)
        assert np.array_equal(np.diag(dense(rep.L3)).real, [0.5, 1.5, 2.5, 3.5])

    def test_truncation_locality(self):
        rep = build_h1_rep(30)
        assert check_algebra_relations(rep, 29)["relations_residual"] < 1e-12
        assert check_algebra_relations(rep, 30)["relations_residual"] > 1.0


class TestSharedContracts:
    @pytest.mark.parametrize(
        "rep",
        [build_su2_rep(7.5), build_su11_rep(2, 20), build_h1_rep(20)],
        ids=["su2", "su11", "h1"],
    )
    def test_hermiticity_pairing_exact(self, rep):
        assert np.array_equal(dense(rep.Lminus), dense(rep.Lplus).conj().T)

    @pytest.mark.parametrize(
        "rep",
        [build_su2_rep(4), build_su11_rep(1, 15), build_h1_rep(15)],
        ids=["su2", "su11", "h1"],
    )
    def test_structure(self, rep):
        l3 = dense(rep.L3)
        assert np.max(np.abs(l3 - np.diag(np.diag(l3)))) == 0.0
        assert np.max(np.abs(np.diag(l3).imag.reshape(1, -1))) == 0.0
        lp = dense(rep.Lplus)
        assert np.max(np.abs(lp - np.diag(np.diag(lp, -1), -1))) == 0.0
        assert np.all(np.diag(lp, -1).real >= 0)

    def test_cartesian_generators_hermitian(self):
        rep = build_su11_rep(1.5, 10)
        l1, l2 = cartesian(rep)
        assert hermiticity_residual(l1) == 0.0
        assert hermiticity_residual(l2) == 0.0

    @pytest.mark.parametrize("rep", [build_su2_rep(3.5), build_su11_rep(1.5, 10)],
                             ids=["su2", "su11"])
    def test_cartesian_matches_dense_combinations(self, rep):
        for got, want in zip(cartesian(rep), dense_cartesian(rep)):
            assert np.array_equal(dense(got), want)

    def test_interior_out_of_range(self):
        rep = build_su2_rep(1)
        with pytest.raises(ValueError):
            check_algebra_relations(rep, 0)
        with pytest.raises(ValueError):
            check_algebra_relations(rep, rep.dim + 1)

    def test_kind_flags(self):
        assert isinstance(build_h1_rep(3).kind, Heisenberg)
        assert build_su11_rep(1, 4).kind == Su11(1)
        assert build_su2_rep(1).kind == Su2(1)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(kind=st.sampled_from(["su2", "su11"]), twice=st.integers(1, 24), dim=st.integers(2, 12),
       exponent=st.integers(0, 120))
def test_envelopes_bound_every_operator_the_relations_form(kind, twice, dim, exponent):
    # su(2) at l = twice/2; the discrete series at k = (twice/2) 10^exponent on dim states
    if kind == "su2":
        rep = build_su2_rep(twice / 2)
    else:
        rep = build_su11_rep(twice / 2 * 10.0**exponent, dim)
    operators = (rep.L3.bands, rep.Lplus.bands, rep.Lminus.bands, Bands.identity(rep.dim))
    envelopes = algebra._ladder_envelopes(rep.kind, rep.dim)
    for identity in algebra._relations(rep.kind, *map(Bounded, operators, envelopes)):
        identity.residual()


def test_a_table_over_bounded_operators_checks_both_products_of_each_commutator(monkeypatch):
    # `commutator` over Bounded forms each product by `@`, which checks its partial sums
    products = []
    matmul = Bounded.__matmul__

    def recorded(self, other):
        products.append((self, other))
        return matmul(self, other)

    monkeypatch.setattr(Bounded, "__matmul__", recorded)
    rep = build_su2_rep(2)
    operators = (rep.L3.bands, rep.Lplus.bands, rep.Lminus.bands, Bands.identity(rep.dim))
    for identity in algebra._relations(
            rep.kind, *map(Bounded, operators, algebra._ladder_envelopes(rep.kind))):
        del products[:]
        identity.residual()
        (a, b), (c, d) = products
        assert (c, d) == (b, a)
