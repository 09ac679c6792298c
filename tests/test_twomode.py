import math
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ladderlab import (
    DissipativeParams,
    build_h1_rep,
    build_su11_rep,
    casimir_interior_residual,
    check_algebra_relations,
    dissipative_residuals,
    holstein_primakoff,
    l2_relation_check,
    sector_match_residual,
    sector_operators,
)
from ladderlab import twomode
from ladderlab.algebra import Su11
from ladderlab.operators import OperatorMatrix, evaluate
import oracles
from oracles import (
    Bounded,
    bands_from_entries,
    build_two_mode,
    casimir,
    csr,
    dense,
    dense_l2_finite_ratios,
    dense_l2_finite_residual,
    dense_two_mode,
    dissipative_hamiltonian,
    from_dense,
    in_sector_order,
    interior_indices,
    l2_finite_residual,
    nonnegative_exponential,
    sector_order,
    whole_run,
)


def basis_vector(dim, n):
    e = np.zeros(dim)
    e[n] = 1.0
    return e


class TestBuildTwoMode:
    def test_dimensions_and_index_map(self):
        space = build_two_mode(4)
        assert space.dim == 25
        # sectors j = -2, -3/2, -1 hold 1 + 2 + 3 states; j = -1/2 then runs |0,1>, |1,2>, |2,3>
        assert space.index(2, 3) == 8
        assert space.occupations(8) == (2, 3)
        with pytest.raises(ValueError):
            space.index(5, 0)

    @pytest.mark.parametrize("check", [casimir_interior_residual, sector_match_residual,
                                       lambda n_max: dissipative_residuals(
                                           n_max, DissipativeParams(1.0, 0.5))])
    def test_checks_refuse_a_cutoff_below_one(self, check):
        with pytest.raises(ValueError, match="n_max must be >= 1"):
            check(0)

    def test_mode_commutators_on_interior(self):
        space, ops = build_two_mode(5), dense_two_mode(5)
        keep = interior_indices(space)
        for lower, raiser in (("A", "Adag"), ("B", "Bdag")):
            comm = in_sector_order(ops[lower] @ ops[raiser] - ops[raiser] @ ops[lower], 5)
            assert np.max(np.abs((comm - np.eye(space.dim))[np.ix_(keep, keep)])) < 1e-13

    def test_cross_mode_commutator_vanishes_exactly(self):
        ops = dense_two_mode(4)
        assert np.max(np.abs(ops["A"] @ ops["Bdag"] - ops["Bdag"] @ ops["A"])) == 0.0

    def test_raising_vacuum(self):
        # L+|0,0> = |1,1> with coefficient 1
        space = build_two_mode(3)
        out = dense(space.Lplus) @ basis_vector(space.dim, space.index(0, 0))
        expected = basis_vector(space.dim, space.index(1, 1))
        assert np.max(np.abs((out - expected).reshape(1, -1))) < 1e-15

    def test_l3_vacuum_eigenvalue_is_half(self):
        space = build_two_mode(3)
        vac = space.index(0, 0)
        assert abs(dense(space.L3)[vac, vac] - 0.5) < 1e-15

    def test_ladders_built_from_modes(self):
        space, ops = build_two_mode(3), dense_two_mode(3)
        raising = in_sector_order(ops["Adag"] @ ops["Bdag"], 3)
        lowering = in_sector_order(ops["A"] @ ops["B"], 3)
        assert np.max(np.abs(dense(space.Lplus) - raising)) == 0.0
        assert np.max(np.abs(dense(space.Lminus) - lowering)) == 0.0


class TestSectorOrder:
    """The basis order, ascending j and then ascending n_A: tridiagonal operators, and the
    index maps against a scan of the flat basis."""

    @pytest.mark.parametrize("n_max", [1, 2, 7, 30])
    def test_every_two_mode_diagonal_is_tridiagonal(self, n_max):
        space = build_two_mode(n_max)
        h0, hi = dissipative_hamiltonian(space, DissipativeParams(Omega=1.3, Gamma=0.7))
        stored = [space.Lplus.bands, space.Lminus.bands, space.L3.bands,
                  twomode._casimir_root(space.n_a, space.n_b), casimir(space).bands,
                  h0.bands, hi.bands]
        for bands in stored:
            assert set(bands.diagonals) <= {-1, 0, 1}

    @pytest.mark.parametrize("n_max", [1, 4, 9])
    def test_index_and_occupations_are_inverses(self, n_max):
        space = build_two_mode(n_max)
        scanned = [divmod(flat, n_max + 1) for flat in sector_order(n_max).tolist()]
        assert [space.occupations(i) for i in range(space.dim)] == scanned
        assert [space.index(*pair) for pair in scanned] == list(range(space.dim))
        for outside in (-1, space.dim):
            with pytest.raises(ValueError):
                space.occupations(outside)


class TestRuns:
    """Each check sweeps runs of whole sectors; every value equals the one-run value, bit for bit."""

    PARAMS = DissipativeParams(Omega=1.3, Gamma=0.7)

    @pytest.mark.parametrize("n_max,run_states", [(1, 1), (3, 1), (3, 10), (8, 40), (17, 40),
                                                  (17, 65536)])
    def test_runs_tile_the_basis_in_whole_sectors(self, n_max, run_states, monkeypatch):
        space, runs, occupations = build_two_mode(n_max), [], twomode._occupations

        def recorded(n, first, stop):
            runs.append((first, stop, *occupations(n, first, stop)))
            return runs[-1][2:]

        monkeypatch.setattr(twomode, "RUN_STATES", run_states)
        monkeypatch.setattr(twomode, "_occupations", recorded)
        casimir_interior_residual(n_max)
        assert [first for first, *_ in runs] == [-n_max, *(stop for _, stop, *_ in runs[:-1])]
        assert runs[-1][1] == n_max + 1
        for first, stop, n_a, _ in runs:
            assert len(n_a) <= run_states or stop == first + 1
        assert np.array_equal(np.concatenate([n_a for _, _, n_a, _ in runs]), space.n_a)
        assert np.array_equal(np.concatenate([n_b for _, _, _, n_b in runs]), space.n_b)

    @pytest.mark.parametrize("n_max", [2, 3, 8, 17])
    @pytest.mark.parametrize("run_states", [1, 10, 40, 65536])
    def test_each_check_equals_its_one_run_value(self, n_max, run_states, monkeypatch):
        space = build_two_mode(n_max)
        monkeypatch.setattr(twomode, "RUN_STATES", run_states)
        assert casimir_interior_residual(n_max) == whole_run(twomode._casimir_identities, space)
        assert sector_match_residual(n_max) == whole_run(twomode._sector_match_identities, space)
        assert dissipative_residuals(n_max, self.PARAMS) == whole_run(
            twomode._dissipative_run, space, self.PARAMS)
        assert l2_relation_check(n_max) == whole_run(twomode._l2_identities, space)

    def test_each_table_drops_the_occupations_before_its_first_identity(self, monkeypatch):
        # at each identity a table yields, no run's n_A is alive: one run's
        # operators and masks are all a check holds
        alive = []
        occupations = twomode._occupations

        def tracked(*args):
            n_a, n_b = occupations(*args)
            alive.append(weakref.ref(n_a))
            return n_a, n_b

        seen = []
        monkeypatch.setattr(twomode, "RUN_STATES", 1)
        monkeypatch.setattr(twomode, "_occupations", tracked)
        monkeypatch.setattr(twomode, "evaluate", lambda identities: evaluate(
            seen.append(sum(ref() is not None for ref in alive)) or identity
            for identity in identities))
        for check in (casimir_interior_residual, sector_match_residual, l2_relation_check,
                      lambda n_max: dissipative_residuals(n_max, self.PARAMS)):
            alive.clear()
            check(4)
        assert seen and set(seen) == {0}


class TestCasimir:
    def test_two_forms_agree_on_interior(self):
        for n_max in (2, 6, 12):
            assert casimir_interior_residual(n_max)["casimir_interior"] < 1e-12

    def test_casimir_returns_ladder_form(self):
        space = build_two_mode(4)
        c2 = casimir(space)
        l3 = dense(space.L3)
        lp, lm = dense(space.Lplus), dense(space.Lminus)
        direct = 0.25 * np.eye(space.dim) + l3 @ l3 - 0.5 * (lp @ lm + lm @ lp)
        assert np.max(np.abs(dense(c2) - direct)) == 0.0

    def test_diagonal_in_occupation_basis(self):
        space = build_two_mode(5)
        c2 = dense(casimir(space))
        assert np.max(np.abs(c2 - np.diag(np.diag(c2)))) < 1e-12

    def test_eigenvalues_are_half_occupation_differences(self):
        space = build_two_mode(5)
        c = dense(twomode._casimir_root(space.n_a, space.n_b))
        idx = space.index(3, 1)
        assert abs(c[idx, idx] - 1.0) < 1e-15  # j = (3-1)/2
        for n in range(6):
            balanced = space.index(n, n)
            assert abs(c[balanced, balanced]) < 1e-15

    def test_mode_form_oracle_brute_force(self):
        space = build_two_mode(4)
        c2 = dense(casimir(space))
        keep = interior_indices(space)
        for index in keep:
            n_a, n_b = space.occupations(index)
            assert abs(c2[index, index].real - ((n_a - n_b) / 2.0) ** 2) < 1e-12


class TestSectors:
    @staticmethod
    def sectors(n_max):
        """Every sector label j = -n_max/2 .. n_max/2 of a cutoff, ascending."""
        return [shift / 2.0 for shift in range(-n_max, n_max + 1)]

    def test_sector_sizes(self):
        n_max = 6
        reps = [sector_operators(n_max, j) for j in self.sectors(n_max)]
        for j, rep in zip(self.sectors(n_max), reps):
            assert rep.dim == n_max + 1 - int(2 * abs(j))
            assert rep.L3.dim == rep.Lplus.dim == rep.Lminus.dim == rep.dim
        assert sum(rep.dim for rep in reps) == (n_max + 1) ** 2

    def test_induced_weights(self):
        assert sector_operators(4, 0.0).kind == Su11(0.5)
        assert sector_operators(4, -1.5).kind.k == 2.0
        assert [sector_operators(4, j).kind.k for j in self.sectors(4)] == [
            abs(j) + 0.5 for j in self.sectors(4)]

    def test_m_ascends_within_sector(self):
        # L3 = m + 1/2 with m = (n_A + n_B)/2 = n + |j| at level n of sector j
        for j in self.sectors(5):
            levels = sector_operators(5, j).L3.bands.diagonal()
            assert np.all(np.diff(levels) > 0)
            assert np.max(np.abs(levels - (np.arange(len(levels)) + abs(j) + 0.5))) <= 1e-14

    @pytest.mark.parametrize("j", [0.0, 0.5, -0.5, 1.0, 2.5, -3.0])
    def test_sector_restriction_matches_direct_build(self, j):
        rep = sector_operators(10, j)
        # the sector is the weight-(|j| + 1/2) series, truncated at its size
        direct = build_su11_rep(abs(j) + 0.5, rep.dim)
        for name in ("L3", "Lplus", "Lminus"):
            assert np.max(np.abs(dense(getattr(rep, name)) - dense(getattr(direct, name)))) < 1e-12
        assert sector_match_residual(10)["sector_match"] < 1e-12

    def test_zero_sector_ladder_is_square_root_free(self):
        lminus = sector_operators(8, 0.0).Lminus
        # L-|n> = n|n-1> on the balanced sector: integer elements
        assert np.allclose(np.diag(dense(lminus), 1).real, np.arange(1, 9), atol=1e-12)

    # Each defect goes into one run that holds every sector, read by the table
    # the check sweeps.
    def test_in_block_defect_is_caught(self):
        space = build_two_mode(6)
        defect = 2.0**-10
        lplus = csr(space.Lplus).tolil()
        # <1,1|L+|0,0> = 1 exactly in the j = 0 block
        lplus[space.index(1, 1), space.index(0, 0)] += defect
        broken = replace(space, Lplus=from_dense("L+", lplus.toarray()))
        assert whole_run(twomode._sector_match_identities, space)["sector_match"] < 1e-12
        assert whole_run(twomode._sector_match_identities, broken)["sector_match"] >= defect

    def test_leak_between_sectors_is_caught(self):
        space = build_two_mode(6)
        defect = 1e-3
        l3 = csr(space.L3).tolil()
        # |1,0> has j = 1/2 and |0,0> has j = 0
        l3[space.index(1, 0), space.index(0, 0)] = defect
        broken = replace(space, L3=from_dense("L3", l3.toarray()))
        assert whole_run(twomode._sector_match_identities, broken)["sector_match"] >= defect

    def test_half_sector_matches_weight_one_elements(self):
        lplus = sector_operators(8, 0.5).Lplus
        n = np.arange(7, dtype=float)
        expected = np.sqrt((n + 2.0) * (n + 1.0))
        assert np.allclose(np.diag(dense(lplus), -1).real, expected, atol=1e-12)


class TestSectorsAsSu11Reps:
    """Each sector is the su(1,1) rep D+ of weight |j| + 1/2, read as a `LadderRep`."""

    def test_every_sector_satisfies_the_su11_relations(self):
        for j in TestSectors.sectors(8):
            rep = sector_operators(8, j)
            if rep.dim >= 2:
                assert check_algebra_relations(rep, rep.dim - 1)["relations_residual"] <= 1e-12

    def test_zero_sector_carries_the_zero_point_energy(self):
        # L3 on the j = 0 sector is the oscillator spectrum n + 1/2
        rep = sector_operators(8, 0)
        assert np.max(np.abs(rep.L3.bands.diagonal() - (np.arange(9) + 0.5))) <= 1e-14

    def test_zero_sector_maps_onto_the_oscillator(self):
        rep = sector_operators(8, 0.0)
        a, adag = holstein_primakoff(rep)
        oscillator = build_h1_rep(rep.dim)
        assert np.max(np.abs(dense(a) - dense(oscillator.Lminus))) <= 1e-14
        assert np.max(np.abs(dense(adag) - dense(oscillator.Lplus))) <= 1e-14

    @pytest.mark.parametrize("j", [0.3, 3.0, -3.0, math.nan, math.inf])
    def test_refuses_a_sector_the_cutoff_does_not_hold(self, j):
        # nmax 4 holds j = -2 .. 2 in steps of 1/2; 3 = nmax/2 + 1
        with pytest.raises(ValueError, match="no sector"):
            sector_operators(4, j)

    def test_one_state_sectors_have_empty_ladders(self):
        for j in (-2.0, 2.0):
            rep = sector_operators(4, j)
            assert rep.dim == 1
            # the dump reads no entry of either ladder
            for ladder in (rep.Lplus, rep.Lminus):
                assert all(part.size == 0 for part in ladder.bands.nonzero())
            assert rep.L3.bands.diagonal().tolist() == [abs(j) + 0.5]


class TestDissipativeHamiltonian:
    def test_identities_and_hermiticity(self):
        residuals = dissipative_residuals(8, DissipativeParams(Omega=1.3, Gamma=0.4))
        assert residuals["h0_vs_casimir"] < 1e-12
        assert residuals["hi_vs_l2"] < 1e-12
        assert residuals["h0_hermiticity"] < 1e-13
        assert residuals["hi_hermiticity"] < 1e-13
        assert residuals["h0_hi_commutator"] < 1e-10

    def test_balanced_states_are_h0_kernel(self):
        space = build_two_mode(5)
        h0, _ = dissipative_hamiltonian(space, DissipativeParams(Omega=2.0, Gamma=1.0))
        for n in range(6):
            v = basis_vector(space.dim, space.index(n, n))
            assert np.linalg.norm(dense(h0) @ v) < 1e-13

    def test_unbalanced_state_eigenvalue(self):
        # H0|3,1> = Omega (3 - 1)|3,1> = 2 Omega |3,1>
        space = build_two_mode(5)
        omega_split = 1.7
        h0, _ = dissipative_hamiltonian(space, DissipativeParams(Omega=omega_split, Gamma=1.0))
        idx = space.index(3, 1)
        v = basis_vector(space.dim, idx)
        assert np.linalg.norm(dense(h0) @ v - 2 * omega_split * v) < 1e-12

    def test_interaction_matrix_elements(self):
        # <n+1, m+1|HI|n, m> = i Gamma sqrt((n+1)(m+1))
        space = build_two_mode(6)
        gamma = 0.9
        _, hi = dissipative_hamiltonian(space, DissipativeParams(Omega=1.0, Gamma=gamma))
        for n, m in ((0, 0), (2, 4), (5, 1)):
            row, col = space.index(n + 1, m + 1), space.index(n, m)
            expected = 1j * gamma * math.sqrt((n + 1) * (m + 1))
            assert abs(dense(hi)[row, col] - expected) < 1e-12

    def test_gamma_must_be_positive(self):
        with pytest.raises(ValueError):
            DissipativeParams(Omega=1.0, Gamma=0.0)


class TestRotationRelation:
    def test_two_mode_commutator_residuals(self):
        residuals = l2_relation_check(8)
        assert residuals["l2_commutator"] < 1e-12
        assert residuals["l2_double_commutator"] < 1e-12

    def test_full_space_double_commutator_contaminated(self):
        # the cutoff's top states break the double commutator, so the check
        # reads only the interior; no mask reads every state
        space = build_two_mode(20)
        full = evaluate(twomode._l2_identities(space.n_a, space.n_b, None, space.L3.bands,
                                               space.Lplus.bands, space.Lminus.bands))
        assert full["l2_double_commutator"] > 1.0

    def test_brute_force_oracle(self):
        # independent expansion against the defining ladder relations
        rep = build_su11_rep(1.0, 25)
        lp, lm, l3 = dense(rep.Lplus), dense(rep.Lminus), dense(rep.L3)
        l1 = (lp + lm) / 2.0
        l2 = (lp - lm) / 2.0j
        first = l1 @ l3 - l3 @ l1
        assert np.max(np.abs((first + 1j * l2)[:23, :23])) < 1e-12
        second = l1 @ first - first @ l1
        assert np.max(np.abs((second + l3)[:23, :23])) < 1e-12

    def test_interior_validation(self):
        # nmax 1 has no interior on which both commutators are read
        with pytest.raises(ValueError, match="n_max >= 2"):
            l2_relation_check(1)

    def test_finite_form_truncation_dominated(self):
        # small cutoff: the non-unitary conjugation residual sits orders of
        # magnitude above the commutator residuals and decays with the cutoff
        small = l2_finite_residual(build_two_mode(6), 3)
        assert 1e-3 < small < 1.0
        larger = l2_finite_residual(build_two_mode(10), 3)
        assert larger < 1e-2
        assert larger < small
        assert l2_finite_residual(build_su11_rep(0.5, 20), 3) < 1e-7

    def test_finite_form_matches_taylor_exponential_oracle(self):
        # same diagnostic with an independent series exponential
        rep = build_su11_rep(0.5, 12)
        lp, lm, l3 = dense(rep.Lplus), dense(rep.Lminus), dense(rep.L3)
        l1 = (lp + lm) / 2.0
        l2 = (lp - lm) / 2.0j
        arg = (math.pi / 2) * l1
        series = np.eye(12, dtype=complex)
        term = np.eye(12, dtype=complex)
        for order in range(1, 120):
            term = term @ arg / order
            series = series + term
        interior = 3
        worst = 0.0
        for n in range(interior):
            phi = series[:, n]
            mism = l2 @ phi - 1j * l3[n, n] * phi
            worst = max(
                worst,
                float(np.linalg.norm(mism[:interior]) / np.linalg.norm(phi[:interior])),
            )
        assert abs(worst - l2_finite_residual(rep, interior)) < 1e-9


class TestFiniteRotationBySector:
    """`l2_finite_residual` per su(1,1) block against one dense `expm` of the whole space."""

    @staticmethod
    def assert_matches_oracle(target, interior):
        got, want = l2_finite_residual(target, interior), dense_l2_finite_residual(target, interior)
        assert abs(got - want) <= 1e-12 + 1e-9 * want

    @pytest.mark.parametrize("n_max,interior", [(6, 3), (6, 7), (10, 3), (10, 11), (20, 3),
                                                (20, 10), (30, 3)])
    def test_two_mode_matches_dense_expm(self, n_max, interior):
        # interior n_max + 1 reaches the one-state sectors j = +-n_max/2
        self.assert_matches_oracle(build_two_mode(n_max), interior)

    @pytest.mark.parametrize("k,dim,interior", [(0.5, 12, 3), (1.5, 12, 12), (0.5, 20, 3),
                                                (2.0, 20, 11)])
    def test_su11_matches_dense_expm(self, k, dim, interior):
        self.assert_matches_oracle(build_su11_rep(k, dim), interior)

    @pytest.mark.parametrize("n_max,interior", [(6, 7), (10, 5)])
    def test_each_sector_matches_dense_expm(self, n_max, interior, monkeypatch):
        # The j = 0 block sets the total here, so compare block by block: the
        # block of shift n_A - n_B = 2j, in ascending j, against the dense
        # ratios of the states with that shift.
        blocks = []
        block = oracles.rotation_block_residual
        monkeypatch.setattr(oracles, "rotation_block_residual",
                            lambda *args: blocks.append(block(*args)) or blocks[-1])
        space = build_two_mode(n_max)
        l2_finite_residual(space, interior)
        ratios = dense_l2_finite_ratios(space, interior)
        shifts = range(1 - interior, interior)
        assert len(blocks) == len(shifts)
        for shift, got in zip(shifts, blocks):
            want = max(ratio for index, ratio in ratios.items()
                       if np.subtract(*space.occupations(index)) == shift)
            assert abs(got - want) <= 1e-12 + 1e-9 * want

    @pytest.mark.parametrize("occupations", [((1, 1), (0, 0)), ((3, 2), (2, 1)),
                                             ((1, 3), (0, 2)), ((1, 0), (0, 0))])
    def test_reads_the_space_operators(self, occupations):
        # A defect in one L+ element inside a sector (L- kept as its adjoint)
        # moves the diagnostic as the dense oracle sees it, in a j > 0 and a
        # j < 0 sector alike; an element between two sectors is not read.
        space = build_two_mode(6)
        (row, col), defect = (space.index(*n) for n in occupations), 2.0
        lplus = space.Lplus.bands + bands_from_entries(space.dim, [row], [col], [defect])
        broken = replace(space, Lplus=OperatorMatrix("L+", lplus),
                         Lminus=OperatorMatrix("L-", lplus.adjoint()))
        intact, got = l2_finite_residual(space, 4), l2_finite_residual(broken, 4)
        in_sector = np.subtract(*occupations[0]) == np.subtract(*occupations[1])
        assert (abs(got - intact) > 1e-3) == in_sector
        if in_sector:
            want = dense_l2_finite_residual(broken, 4)
            assert abs(got - want) <= 1e-12 + 1e-9 * want

    def test_reach_past_the_dense_ceiling(self):
        # dim 40 401: one dense complex matrix would take 26 GB
        tracemalloc.start()
        try:
            value = l2_finite_residual(build_two_mode(200), 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value < 1e-10
        assert peak < 32e6

    def test_taylor_exponential_refuses_a_negative_entry(self):
        with pytest.raises(ValueError, match="no negative entry"):
            nonnegative_exponential(np.array([[0.0, 1.0], [-1e-300, 0.0]]))

    def test_taylor_exponential_of_a_nonnegative_block(self):
        # e^{t [[0, 1], [1, 0]]} = [[cosh t, sinh t], [sinh t, cosh t]]
        t = 3.0
        got = nonnegative_exponential(np.array([[0.0, t], [t, 0.0]]))
        want = np.array([[math.cosh(t), math.sinh(t)], [math.sinh(t), math.cosh(t)]])
        assert np.all(np.abs(got - want) <= 4 * np.finfo(float).eps * want)


def test_raising_wrappers_refuse_a_nan_residual(monkeypatch):
    # the gates read `not residual <= tol`; `residual > tol` lets a nan through
    from ladderlab import twomode

    space = build_two_mode(3)
    monkeypatch.setattr(twomode, "casimir_interior_residual",
                        lambda *args: {"casimir_interior": math.nan})
    with pytest.raises(ValueError, match="Casimir"):
        casimir(space)
    # a nan after a finite residual: max(0.0, nan) would be 0.0
    monkeypatch.setattr(twomode, "dissipative_residuals",
                        lambda *args: {"h0_vs_casimir": 0.0, "hi_vs_l2": math.nan})
    with pytest.raises(ValueError, match="dissipative"):
        dissipative_hamiltonian(space, DissipativeParams(Omega=1.0, Gamma=0.5))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(n_max=st.integers(1, 6), omega=st.floats(-1e150, 1e150),
       exponent=st.floats(-100.0, 150.0))
def test_envelopes_bound_every_operator_the_dissipative_table_forms(n_max, omega, exponent):
    space, p = build_two_mode(n_max), DissipativeParams(omega, 10.0**exponent)
    *operators, upper = twomode._mode_operators(space.n_a, space.n_b)
    bounded = map(Bounded, (space.Lplus.bands, space.Lminus.bands, *operators),
                  twomode._mode_envelopes(n_max))
    for identity in twomode._dissipative_identities(p, *bounded, upper, space.interior):
        identity.residual()
