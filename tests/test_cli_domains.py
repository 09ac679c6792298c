"""Every flag whose parse type states a domain refuses the values just outside it.

The flags are read from the parser itself (`cli._parser_tree()`), so a flag
typed with `cli.Count` or `cli._positive` is covered here as soon as it is
declared.  Each value must be refused while argparse reads it: exit 2, the
flag named on stderr, nothing built and no file written.
"""

import argparse

import pytest

from ladderlab import algebra, cli, contraction, evolution, operators, orbits, twomode

# zero of either sign, the negative subnormal, and the non-finite values
POSITIVE_OUTSIDE = ("0", "-0.0", "-5e-324", "-1", "nan", "inf", "-inf")


def typed_flags():
    """(command, flag, out-of-domain value) for every flag typed with `Count` or `_positive`."""
    (commands,) = [action for action in cli._parser_tree()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    for command, parser in commands.choices.items():
        for action in parser._actions:
            flag = "/".join(action.option_strings)
            if isinstance(action.type, cli.Count):
                domain = action.type
                values = (str(domain.least - 1), str(domain.most + 1), str(10**18))
            elif action.type is cli._positive:
                values = POSITIVE_OUTSIDE
            else:
                continue
            for value in values:
                yield command, flag, value


CASES = list(typed_flags())


def test_the_walk_finds_the_typed_flags():
    found = {(command, flag) for command, flag, _ in CASES}
    assert {(command, "--tolerance") for command in cli.COMMANDS} <= found
    assert {("orbit", "--steps"), ("orbit", "--thooft-N"), ("orbit", "--curve-samples"),
            ("orbit", "--alpha"), ("evolve", "--N"), ("evolve", "--tau"), ("rep", "--l"),
            ("rep", "--dim"), ("contract", "--n"), ("contract", "--dim"), ("contract", "--l"),
            ("contract", "--tau"), ("schwinger", "--nmax"), ("schwinger", "--Gamma")} <= found


@pytest.fixture
def refuse_builders(monkeypatch):
    """Every function and class of the library raises if it is called.

    The commands import the library names they call from these modules when
    they run, so each stub is set on the module, not on `cli`.
    """
    def refuse(*args, **kwargs):
        raise AssertionError("the library was called for a value refused at parse time")

    for module in (algebra, contraction, evolution, operators, orbits, twomode):
        for name, value in list(vars(module).items()):
            owner = getattr(value, "__module__", None) or ""
            if callable(value) and owner.startswith("ladderlab."):
                monkeypatch.setattr(module, name, refuse)


@pytest.mark.parametrize("command,flag,value", CASES, ids=lambda v: v)
def test_out_of_domain_value_exits_2(command, flag, value, refuse_builders, tmp_path, capsys):
    out = tmp_path / "out.csv"
    # --flag=value, since argparse reads a separate "-1" or "-inf" as an option
    code = cli.main([command, f"{flag}={value}", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert f"argument {flag}: " in captured.err, captured.err
    assert captured.out == "" and not out.exists()
