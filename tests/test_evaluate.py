"""The one evaluator of gated identities, `operators.evaluate`, and the tables that use it.

Every record a command evaluates is seen here by routing each module's
`evaluate` through a wrapper that logs the value of each record, or puts a
nan into one record's residual.  Through the CLI this checks that a nan in
any record trips the exit-3 gate, that a defect in one operator moves
exactly the records that read it, and that the record names are the check
and report names the commands write.
"""

import math
import weakref

import numpy as np
import pytest

from ladderlab import algebra, cli, contraction, operators, twomode, writer
from ladderlab.operators import Bands, Identity, evaluate, max_entry

# the two-mode records in order; the three sector matches compare L3, L+ and L- in turn
SCHWINGER_LABELS = [
    "casimir_interior", "sector_match:L3", "sector_match:L+", "sector_match:L-",
    "h0_vs_casimir", "hi_vs_l2", "h0_hermiticity", "hi_hermiticity", "h0_hi_commutator",
    "l2_commutator", "l2_double_commutator",
]
SCHWINGER_RECORDS = [label.partition(":")[0] for label in SCHWINGER_LABELS]

# each gated command, at a small size, and the name of every record it evaluates, in
# order; the names, each once, are the checks the command wrote before the evaluator
RECORDS = {
    ("rep", "--algebra", "su2", "--l", "2"): ["relations_residual"] * 3,
    ("rep", "--algebra", "su11", "--k", "1.5", "--dim", "8"): ["relations_residual"] * 3,
    ("rep", "--algebra", "h1", "--dim", "8"): ["relations_residual"] * 3,
    ("contract", "--hp", "--dim", "8"): ["hp_max_deviation"] * 2,
    ("contract", "--identities", "--l", "2"): ["deformed_commutator",
                                              "hamiltonian_decomposition"],
    ("schwinger", "--nmax", "4"): SCHWINGER_RECORDS,
}


def kept_row(mask) -> int:
    """A basis state whose diagonal entry a record with this mask counts."""
    return 0 if mask is None else int(np.flatnonzero(mask)[0])


def with_nan(bands: Bands, row: int) -> Bands:
    """`bands` with nan added to its diagonal entry (row, row)."""
    spike = np.zeros(bands.dim)
    spike[row] = np.nan
    return bands + Bands(bands.dim, {0: spike})


def route_evaluate(monkeypatch, poison: int | None = None) -> list[tuple[str, float]]:
    """Route every module's `evaluate` through a logging wrapper; returns the log.

    The log gets (name, value) for each record as it is evaluated.  With
    `poison`, the record of that index, counted over all calls, has nan
    added at an entry its mask counts.  The records are wrapped one at a time
    as the table yields them, so a table's drops still happen.
    """
    log = []

    def wrapped(identities):
        def each():
            for identity in identities:
                index = len(log)
                log.append((identity.name, None))

                def residual(identity=identity, index=index):
                    bands = identity.residual()
                    if index == poison:
                        bands = with_nan(bands, kept_row(identity.mask))
                    log[index] = (identity.name, max_entry(bands, identity.mask))
                    return bands

                yield Identity(identity.name, residual, identity.mask)

        return evaluate(each())

    for module in (algebra, twomode, contraction):
        monkeypatch.setattr(module, "evaluate", wrapped)
    return log


def command(argv) -> writer.CommandResult:
    args = cli.build_parser().parse_args(list(argv))
    return cli.COMMANDS[args.command](args)


class TestEvaluate:
    def test_each_record_is_read_on_its_own_mask(self):
        residual = Bands.diag([1.0, 2.0, 4.0])
        first, last = np.array([True, False, False]), np.array([False, False, True])
        values = evaluate([Identity("own", lambda: residual, last),
                           Identity("shared", lambda: residual, first)])
        assert values == {"own": 4.0, "shared": 1.0}
        assert evaluate([Identity("all", lambda: residual)]) == {"all": 4.0}

    @pytest.mark.parametrize("at", [0, 1, 2])
    def test_a_nan_anywhere_in_a_shared_name_gives_nan(self, at):
        # Python's max(1.0, nan) is 1.0: the order of the records must not matter
        records = [Identity("r", lambda value=value: Bands.diag([value]))
                   for value in (1.0, 3.0, 2.0)]
        records[at] = Identity("r", lambda: Bands.diag([math.nan]))
        assert math.isnan(evaluate(records)["r"])

    def test_a_nan_outside_the_mask_does_not_count(self):
        residual = Bands.diag([1.0, math.nan])
        assert evaluate([Identity("r", lambda: residual, np.array([True, False]))]) == {"r": 1.0}

    def test_names_keep_their_first_order(self):
        records = [Identity(name, lambda: Bands.diag([1.0])) for name in "bab"]
        assert list(evaluate(records)) == ["b", "a"]

    def test_each_residual_is_reduced_and_dropped_before_the_next_record_is_taken(self):
        formed = []

        def table():
            for step in range(3):
                # the record before this one has formed its residual, and it is gone
                assert len(formed) == step
                assert step == 0 or formed[-1]() is None

                def residual(step=step):
                    values = np.full(2, float(step))
                    formed.append(weakref.ref(values))
                    return Bands(2, {0: values})

                yield Identity("r", residual)

        assert evaluate(table()) == {"r": 2.0}
        assert len(formed) == 3


# each library check at a small size; every one returns the table `evaluate` gives
LIBRARY_CHECKS = {
    "check_algebra_relations": lambda: algebra.check_algebra_relations(
        algebra.build_su11_rep(1.5, 8), 7),
    "casimir_interior_residual": lambda: twomode.casimir_interior_residual(4),
    "sector_match_residual": lambda: twomode.sector_match_residual(4),
    "dissipative_residuals": lambda: twomode.dissipative_residuals(
        4, twomode.DissipativeParams(1.0, 0.5)),
    "l2_relation_check": lambda: twomode.l2_relation_check(4),
    "deformed_identity_residuals": lambda: contraction.deformed_identity_residuals(
        algebra.build_su2_rep(2), 1.0),
    "holstein_primakoff_deviation": lambda: contraction.holstein_primakoff_deviation(
        *contraction.holstein_primakoff(algebra.build_su11_rep(0.5, 8)), algebra.build_h1_rep(8)),
}


@pytest.mark.parametrize("check", LIBRARY_CHECKS.values(), ids=LIBRARY_CHECKS)
def test_each_library_check_returns_the_table_of_its_records(check, monkeypatch):
    log = route_evaluate(monkeypatch)
    result = check()
    assert log
    assert list(result) == list(dict.fromkeys(name for name, _ in log))
    assert result == {name: max(value for logged, value in log if logged == name)
                      for name in result}


@pytest.mark.parametrize("argv", RECORDS, ids=" ".join)
def test_every_gated_value_comes_from_the_records(argv, monkeypatch):
    log = route_evaluate(monkeypatch)
    result = command(argv)
    assert [name for name, _ in log] == RECORDS[argv]
    by_name = {}
    for name, value in log:
        by_name[name] = max(by_name.get(name, 0.0), value)
    assert result.gated == by_name
    assert list(result.gated) == list(dict.fromkeys(RECORDS[argv]))


@pytest.mark.parametrize("argv,poison", [(argv, index) for argv, names in RECORDS.items()
                                         for index in range(len(names))],
                         ids=lambda value: " ".join(value) if isinstance(value, tuple)
                         else str(value))
def test_a_nan_in_any_record_trips_the_gate(argv, poison, tmp_path, capsys, monkeypatch):
    log = route_evaluate(monkeypatch, poison)
    code = cli.main([*argv, "--out", str(tmp_path / "out.csv")])
    name, value = log[poison]
    assert math.isnan(value)
    assert code == 3
    assert f"tolerance breach in check {name!r}" in capsys.readouterr().err


def inject_nan(monkeypatch, module, builder: str, operator, index) -> None:
    """Make `module.<builder>` put a nan into one stored entry of one operator it returns.

    The commands import each builder from its module when they run.
    `operator` names an operator of the built rep, or is its place in the
    tuple of `Bands` the builder returns.  `index` is (offset, row), or a
    function of the builder's arguments that gives it.
    """
    build = getattr(module, builder)

    def built(*args):
        made = build(*args)
        offset, row = index(*args) if callable(index) else index
        bands = made[operator] if isinstance(operator, int) else getattr(made, operator).bands
        bands.diagonals[offset][row] = math.nan
        return made

    monkeypatch.setattr(module, builder, built)


def moved_records(argv, monkeypatch, *defect) -> set[int]:
    """The indices of the records whose value a defect changes; the others keep their bits.

    The operators a record derives (L1, x, the mapped a) are `OperatorMatrix`
    too, whose constructor refuses a nan entry, so both runs store every
    operator as it is built: the nan reaches each record that reads it.
    """
    monkeypatch.setattr(operators.OperatorMatrix, "__post_init__", lambda self: None)
    clean = route_evaluate(monkeypatch)
    command(argv)
    inject_nan(monkeypatch, *defect)
    broken = route_evaluate(monkeypatch)
    command(argv)
    assert [name for name, _ in broken] == [name for name, _ in clean]
    moved = {i for i, ((_, before), (_, after)) in enumerate(zip(clean, broken))
             if not after == before}
    assert all(math.isnan(broken[i][1]) for i in moved)
    return moved


SU11 = ("rep", "--algebra", "su11", "--k", "1.5", "--dim", "8")
HP = ("contract", "--hp", "--dim", "8")
IDENTITIES = ("contract", "--identities", "--l", "2")
SCHWINGER = ("schwinger", "--nmax", "4")


def balanced(offset: int):
    """(offset, row of |1,1>), an interior state of sector j = 0, in a run of two-mode sectors."""
    return lambda n_a, n_b: (offset, int(np.flatnonzero((n_a == 1) & (n_b == 1))[0]))


def records(*labels: str) -> set[int]:
    """The indices of these two-mode records, by their SCHWINGER_LABELS."""
    return {SCHWINGER_LABELS.index(label) for label in labels}


HI_READERS = ("hi_vs_l2", "hi_hermiticity", "h0_hi_commutator")
L2_READERS = ("l2_commutator", "l2_double_commutator")

# A nan entry cannot cancel, where a finite defect can: HI = -2 Gamma L2 holds
# for any L+ and L-, so only a nan in them moves hi_vs_l2.
DEFECTS = [
    # [L3, L+] = L+, [L3, L-] = -L- and [L+, L-] = -2 L3, in that order
    (SU11, (algebra, "build_su11_rep", "L3", (0, 3)), {0, 1, 2}),
    (SU11, (algebra, "build_su11_rep", "Lplus", (-1, 3)), {0, 2}),
    (SU11, (algebra, "build_su11_rep", "Lminus", (1, 3)), {1, 2}),
    # the mapped a reads L-, and a† reads L+, each compared with h(1)'s; both read L3
    (HP, (algebra, "build_su11_rep", "Lminus", (1, 3)), {0}),
    (HP, (algebra, "build_su11_rep", "Lplus", (-1, 3)), {1}),
    (HP, (algebra, "build_h1_rep", "Lplus", (-1, 3)), {1}),
    (HP, (algebra, "build_su11_rep", "L3", (0, 3)), {0, 1}),
    # x and p read L+ and L-, and H reads L3; both identities read all three
    (IDENTITIES, (algebra, "build_su2_rep", "Lplus", (-1, 2)), {0, 1}),
    (IDENTITIES, (algebra, "build_su2_rep", "L3", (0, 2)), {0, 1}),
    # H0 is read from the occupations, HI from L+ and L-; `_ladders` returns L3, L+ and L-
    # of each run, and each check builds its own
    (SCHWINGER, (twomode, "_ladders", 0, balanced(0)),
     records("casimir_interior", "sector_match:L3", *L2_READERS)),
    (SCHWINGER, (twomode, "_ladders", 1, balanced(-1)),
     records("casimir_interior", "sector_match:L+", *HI_READERS, *L2_READERS)),
    (SCHWINGER, (twomode, "_ladders", 2, balanced(1)),
     records("casimir_interior", "sector_match:L-", *HI_READERS, *L2_READERS)),
]


@pytest.mark.parametrize("argv,defect,moved", DEFECTS,
                         ids=[f"{' '.join(argv)}: {builder} {operator}"
                              for argv, (_, builder, operator, _), _ in DEFECTS])
def test_a_defect_moves_exactly_the_records_that_read_it(argv, defect, moved, monkeypatch):
    assert moved_records(argv, monkeypatch, *defect) == moved
