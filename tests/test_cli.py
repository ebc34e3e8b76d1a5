"""End-to-end tests for the command line interface."""

import json
import pathlib
import random
import subprocess
import sys

import pytest

from loopchar import cli
from loopchar import (
    SUITE_NAMES,
    EllipticCharacter,
    LCharacter,
    LWeight,
    cartan_data,
    elliptic_class,
    parse_elliptic,
    parse_lweight,
    simple_lroot,
)

GOLDEN = pathlib.Path(__file__).parent / "golden"
MANIFEST = json.loads((GOLDEN / "manifest.json").read_text())


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "loopchar", *args], capture_output=True, text=True
    )


@pytest.mark.parametrize("name", sorted(MANIFEST))
def test_golden_output(name):
    result = run_cli(*MANIFEST[name])
    assert result.returncode == 0
    assert result.stderr == ""
    assert result.stdout == (GOLDEN / f"{name}.txt").read_text()


def test_repeated_runs_are_identical():
    args = MANIFEST["qchar-fund-d4-node2"]
    assert run_cli(*args).stdout == run_cli(*args).stdout


def test_unreduced_word_warns_on_stderr():
    result = run_cli("act", "--type", "A2", "--word", "1,1", "w[1;a,0]")
    assert result.returncode == 0
    assert "warning: word is not reduced" in result.stderr
    assert result.stdout == "w[1;a,4]*w[2;a,1]*w[2;a,3]^-1\n"


def test_parse_errors_exit_2():
    result = run_cli("act", "--type", "A2", "--word", "1,2", "not-a-weight")
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error:")

    # Multiplicities must be JSON integers: no truncated floats, no booleans.
    for table in ('{"1,0":1.9,"0,0":1}', '{"1,0":1,"0,0":true}', '{"1,0":"1","0,0":1}'):
        result = run_cli("qchar-fund", "--type", "B2", "--node", "1", "--table", table)
        assert result.returncode == 2, table
        assert result.stdout == ""
        assert result.stderr.startswith("error:")


def test_domain_errors_exit_3():
    result = run_cli("alpha", "--type", "A2", "--node", "5")
    assert result.returncode == 3
    assert result.stderr.startswith("error:")

    result = run_cli("qchar-fund", "--type", "B3", "--node", "2")
    assert result.returncode == 3
    assert "node 2 of B3 needs an explicit multiplicity table" in result.stderr


def test_internal_errors_exit_4(monkeypatch, capsys):
    def broken(args):
        raise ArithmeticError("no class map")

    monkeypatch.setattr(cli, "_cmd_block", broken)
    assert cli.main(["block", "--type", "A2", "w[1;a,0]"]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "internal error: ArithmeticError('no class map')\n"


def test_suite_choices_match_the_verify_module():
    assert cli.SUITES == SUITE_NAMES


def test_usage_errors_exit_2():
    assert run_cli("verify", "--suite", "nope").returncode == 2
    assert run_cli("alpha", "--type", "A2").returncode == 2
    assert run_cli().returncode == 2


def test_verify_json_rows_carry_suite_names():
    result = run_cli("verify", "--suite", "sl2", "--format", "json")
    assert result.returncode == 0
    rows = json.loads(result.stdout)
    assert rows and all(r["suite"] == "sl2" for r in rows)
    assert all(r["status"] == "pass" for r in rows)


def _random_lweight(rng, rank=5):
    n = rng.randint(0, 5)
    powers = {}
    for _ in range(n):
        key = (rng.randint(1, rank), rng.choice(["a", "b"]), rng.randint(-6, 6))
        powers[key] = rng.choice([-3, -2, -1, 1, 2, 3])
    return LWeight.from_dict(powers)


def test_seeded_lweight_round_trips():
    rng = random.Random(2026)
    for _ in range(100):
        pi = _random_lweight(rng)
        assert parse_lweight(str(pi)) == pi
        assert LWeight.from_json(pi.to_json()) == pi


def test_seeded_character_round_trips():
    rng = random.Random(7)
    for _ in range(50):
        c = LCharacter.from_dict(
            {_random_lweight(rng): rng.randint(1, 4) for _ in range(rng.randint(1, 4))}
        )
        assert LCharacter.from_json(c.to_json()) == c


def test_seeded_elliptic_round_trips():
    rng = random.Random(11)
    cd = cartan_data("D4")
    for _ in range(50):
        chi = elliptic_class(cd, _random_lweight(rng, rank=4))
        assert parse_elliptic(cd.type, str(chi)) == chi
        assert EllipticCharacter.from_json(chi.to_json()) == chi


@pytest.mark.parametrize(
    "label,node", [("A3", 1), ("B2", 2), ("C3", 3), ("D4", 2), ("F4", 4), ("G2", 1)]
)
def test_cli_alpha_output_parses_back(label, node):
    for exp in (-1, 0, 2):
        result = run_cli(
            "alpha", "--type", label, "--node", str(node), "--exp", str(exp)
        )
        assert result.returncode == 0
        cd = cartan_data(label)
        assert parse_lweight(result.stdout.strip()) == simple_lroot(cd, node, "a", exp)


def test_cli_act_output_parses_back():
    cases = [
        ("A3", "2,1,3", "w[2;a,0]"),
        ("B3", "3,2", "w[2;a,1]*w[3;a,0]"),
    ]
    for label, word, weight in cases:
        result = run_cli("act", "--type", label, "--word", word, weight)
        assert result.returncode == 0
        echoed = run_cli("act", "--type", label, "--word", word, weight)
        assert parse_lweight(result.stdout.strip()) == parse_lweight(
            echoed.stdout.strip()
        )
