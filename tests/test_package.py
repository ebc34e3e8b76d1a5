"""Package-level properties: what a cold process imports, and no asserts.

Each import check runs in a fresh interpreter, since this one has long
since imported the whole package.  The child records ``sys.modules``
before and after, so modules its own start-up loaded never count.
"""

import ast
import functools
import io
import pathlib
import subprocess
import sys

import pytest

import loopchar

SRC = pathlib.Path(loopchar.__file__).parent

# Runs ``python -m loopchar <argv>`` in-process, then prints the modules
# the run added to sys.modules, one per line, on stderr.
CLI_CHILD = """
import runpy, sys
before = set(sys.modules)
sys.argv = ["loopchar"] + sys.argv[1:]
code = 0
try:
    runpy.run_module("loopchar", run_name="__main__", alter_sys=True)
except SystemExit as err:
    code = err.code
sys.stderr.write("\\n".join(sorted(set(sys.modules) - before)))
sys.exit(code)
"""


def loaded_by(*argv):
    result = subprocess.run(
        [sys.executable, "-c", CLI_CHILD, *argv], capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    return result.stdout, set(result.stderr.split())


def test_bare_import_loads_no_submodule():
    code = (
        "import sys; before = set(sys.modules); import loopchar; "
        "print(sorted(set(sys.modules) - before))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "['loopchar']"


def test_alpha_loads_only_what_it_runs():
    stdout, loaded = loaded_by("alpha", "--type", "A2", "--node", "1")
    assert stdout == "w[1;a,0]*w[1;a,2]*w[2;a,1]^-1\n"
    assert "loopchar.braid" in loaded
    skipped = {
        "loopchar.blocks", "loopchar.intlattice", "loopchar.qchar", "loopchar.verify",
        "dataclasses", "fractions", "json",
    }
    assert not loaded & skipped


def test_dominance_diff_loads_no_rationals():
    code = (
        "import sys; before = set(sys.modules); "
        "from loopchar import cartan_data, dominance_diff; "
        "print(dominance_diff(cartan_data('B3'), (1, 0, 0), (0, 0, 0))); "
        "print(sorted(set(sys.modules) - before))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    diff, loaded = out.stdout.splitlines()
    assert diff == "(1, 1, 1)"
    assert "'loopchar.intlattice'" in loaded
    assert "'fractions'" not in loaded


def test_a_table_descent_loads_no_fractions():
    # Each level below the top takes its height from one integer solve.
    stdout, loaded = loaded_by(
        "qchar-fund", "--type", "B3", "--node", "1", "--table", '{"1,0,0":1,"0,0,0":1}'
    )
    assert stdout
    assert "loopchar.intlattice" in loaded
    assert "fractions" not in loaded


def test_a_minuscule_descent_loads_no_solver():
    # A minuscule top is the only level: nothing below it needs a height.
    stdout, loaded = loaded_by("qchar-fund", "--type", "D5", "--node", "5")
    assert len(stdout.splitlines()) == 16
    assert "loopchar.braid" in loaded
    assert not loaded & {"loopchar.intlattice", "fractions"}


def test_block_loads_no_qchar_or_verify():
    stdout, loaded = loaded_by("block", "--type", "B2", "w[1;a,0]")
    assert stdout == "x[a,1] - x[a,5]\n"
    assert "loopchar.blocks" in loaded
    assert not loaded & {"loopchar.qchar", "loopchar.verify"}


# A well-formed call of each verb, and the loopchar modules it must not load.
WELL_FORMED = {
    "alpha": (["--type", "A2", "--node", "1"], {"weyl"}),
    "act": (["--type", "A2", "--word", "1,2", "w[1;a,0]"], set()),
    "twist-w0": (["--type", "A2", "w[1;a,0]"], set()),
    "decompose": (["--type", "A2", "w[1;a,0]*w[1;a,2]*w[2;a,1]^-1"], {"weyl"}),
    "cone": (["--type", "A2", "w[1;a,0]", "w[1;a,0]"], {"weyl", "blocks", "intlattice"}),
    "block": (["--type", "B2", "w[1;a,0]"], {"weyl", "braid"}),
    "linked": (["--type", "A2", "w[1;a,0]", "w[1;a,6]"], {"weyl", "braid"}),
    "trivial-sets": (["--type", "A2"], {"weyl", "braid"}),
    "qchar-fund": (["--type", "A2", "--node", "1"], set()),
    "qchar-sl2": (["--length", "2", "--exp", "-1"], {"weyl", "braid"}),
    "qchar-tensor": (["--length", "1", "--length2", "1"], {"weyl", "braid"}),
    # sl2 checks that a string's terms share one block class, so it loads
    # blocks and intlattice; the other suites' sets are checked below.
    "verify": (["--suite", "sl2"], {"braid", "weyl"}),
}
ARGPARSE = {"argparse", "gettext", "locale"}


def test_every_verb_has_a_well_formed_call():
    from loopchar import cli

    assert sorted(WELL_FORMED) == sorted(cli._VERBS)


@functools.lru_cache(maxsize=None)
def well_formed_run(verb):
    argv, _ = WELL_FORMED[verb]
    stdout, loaded = loaded_by(verb, *argv)
    assert stdout
    return loaded


@pytest.mark.parametrize("verb", sorted(WELL_FORMED))
def test_a_well_formed_call_loads_no_argparse(verb):
    assert not well_formed_run(verb) & ARGPARSE


@pytest.mark.parametrize("verb", sorted(v for v, (_, skipped) in WELL_FORMED.items() if skipped))
def test_a_well_formed_call_loads_no_braid_or_weyl_it_skips(verb):
    _, skipped = WELL_FORMED[verb]
    assert not well_formed_run(verb) & {f"loopchar.{name}" for name in skipped}



class _NoWrites(io.TextIOBase):
    """A stdout that fails the test on any write."""

    def write(self, text):
        raise AssertionError(f"a handler wrote {text!r} to stdout")


@pytest.mark.parametrize("verb", sorted(WELL_FORMED))
def test_a_handler_returns_what_main_prints(verb, monkeypatch, capsys):
    from loopchar import cli

    argv = [verb, *WELL_FORMED[verb][0]]
    args = cli._parse(argv)
    with monkeypatch.context() as patch:
        patch.setattr(sys, "stdout", _NoWrites())
        out = args.handler(args)
    # verify alone returns its exit code beside its text.
    text, code = out if verb == "verify" else (out, 0)
    assert cli.main(argv) == code
    assert capsys.readouterr().out == text + "\n"


# The loopchar modules each verify suite other than sl2 must not load.
SUITE_SKIPS = {
    "alpha-lists": {"blocks", "intlattice", "qchar", "weyl"},
    "ellfund": {"blocks", "intlattice", "qchar", "weyl"},
    "braid-relations": {"blocks", "intlattice", "qchar"},
    "w0-twist": {"blocks", "intlattice", "qchar"},
    "xi-oracle": {"qchar", "weyl"},
    "trivial-sets": {"qchar", "weyl"},
}


@pytest.mark.parametrize("suite", sorted(SUITE_SKIPS))
def test_a_verify_suite_loads_only_what_it_checks(suite):
    stdout, loaded = loaded_by("verify", "--suite", suite)
    assert stdout
    assert not loaded & {f"loopchar.{name}" for name in SUITE_SKIPS[suite]}


def test_help_still_loads_argparse():
    stdout, loaded = loaded_by("--help")
    assert stdout.startswith("usage: loopchar")
    assert "argparse" in loaded


def test_every_public_name_resolves():
    code = """
import importlib, loopchar
for name in loopchar.__all__:
    value = getattr(loopchar, name)
    home = importlib.import_module("loopchar." + loopchar._SOURCES[name])
    assert getattr(home, name) is value, name
namespace = {}
exec("from loopchar import *", namespace)
assert set(loopchar.__all__) <= set(namespace), "star import"
assert set(loopchar.__all__) <= set(dir(loopchar)), "dir"
try:
    loopchar.no_such_name
except AttributeError:
    pass
else:
    raise SystemExit("unknown name resolved")
print(len(loopchar.__all__))
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert int(out.stdout) == len(set(loopchar.__all__)) == 53


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_statements(path):
    # ``python -O`` strips asserts, so no check may rest on one.
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} asserts on lines {lines}"
