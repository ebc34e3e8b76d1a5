"""End-to-end tests for the command line interface."""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopchar import cli
from loopchar.errors import ECHO_CAP, number, quote
from loopchar import (
    SUITE_NAMES,
    DomainError,
    EllipticCharacter,
    LCharacter,
    LWeight,
    LieType,
    ParseError,
    cartan_data,
    elliptic_class,
    parse_elliptic,
    parse_lweight,
    simple_lroot,
)

GOLDEN = pathlib.Path(__file__).parent / "golden"
MANIFEST = json.loads((GOLDEN / "manifest.json").read_text())
POOL = pathlib.Path(__file__).parent.parent / "loopbench" / "cli_pool.json"


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


def test_recorded_cli_pool_replays_byte_identically():
    """Every benchmark request gives its recorded exit code and stdout digest."""
    requests = json.loads(POOL.read_text())["requests"]
    mismatches = []
    for req in requests:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                rc = cli.main(list(req["args"]))
            except SystemExit as exc:
                rc = exc.code
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        if (rc, digest) != (req["exit"], req["sha256"]):
            mismatches.append((req["args"], rc))
    assert len(requests) == 1320
    assert mismatches == []


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


@pytest.mark.parametrize(
    "table,key",
    [('{"1,0":1,"0,0":1,"0,0":5}', "0,0"), ('{"1,0":1,"0,0":1,"0, 0":5}', "0, 0")],
)
def test_a_weight_given_twice_in_a_table_exits_2(capsys, table, key):
    # A repeated JSON key, or a second spelling of one tuple: no spelling wins.
    assert cli.main(["qchar-fund", "--type", "B2", "--node", "1", "--table", table]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: weight {key!r} is given twice in the multiplicity table\n"


# One digit more than Python converts; 0 where it sets no limit.
_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
_LONG = "9" * (_LIMIT + 1)
_needs_limit = pytest.mark.skipif(not _LIMIT, reason="no limit on integer literals")

_LONG_LITERAL_READERS = {
    "node": lambda: parse_lweight(f"w[{_LONG};a,0]"),
    "exponent": lambda: parse_lweight(f"w[1;a,-{_LONG}]"),
    "power": lambda: parse_lweight(f"w[1;a,0]^{_LONG}"),
    "class coefficient": lambda: parse_elliptic(LieType.parse("A2"), f"{_LONG} x[a,1]"),
    "class exponent": lambda: parse_elliptic(LieType.parse("A2"), f"x[a,{_LONG}]"),
    "rank": lambda: LieType.parse(f"A{_LONG}"),
    "table value": lambda: cli._parse_table(f'{{"1,0":{_LONG}}}', 2),
}


@_needs_limit
@pytest.mark.parametrize("reader", sorted(_LONG_LITERAL_READERS))
def test_over_long_integer_literals_are_parse_errors(reader):
    with pytest.raises(ParseError, match="is too long to convert"):
        _LONG_LITERAL_READERS[reader]()


_LONG_LITERAL_CALLS = {
    "exponent": ["block", "--type", "A2", "w[1;a,{}]"],
    "power": ["decompose", "--type", "A2", "w[1;a,0]^{}"],
    "rank": ["block", "--type", "A{}", "w[1;a,0]"],
    "table value": ["qchar-fund", "--type", "B3", "--node", "1", "--table", '{{"1,0,0":{}}}'],
}


@_needs_limit
@pytest.mark.parametrize("call", sorted(_LONG_LITERAL_CALLS))
def test_over_long_integer_literals_exit_2(call, capsys):
    argv = [arg.format(_LONG) for arg in _LONG_LITERAL_CALLS[call]]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: integer literal of")


def test_quote_cuts_user_text_past_the_cap():
    exact = "x" * ECHO_CAP
    assert quote(exact) == repr(exact)
    assert quote(exact + "y") == f"{exact!r}… ({ECHO_CAP + 1} characters)"
    assert quote(["a"] * 5000).endswith(f"… ({len(repr(['a'] * 5000))} characters)")
    assert quote(7) == "7"


_JUNK = "x" * 5000
_DIGITS = "1," * 2500 + "1"
_NINES = "9" * 2000
# Each call echoes user text into its error message: the argv with a
# placeholder, a short and a 5000-character fill for it.
_ECHO_CALLS = {
    "act word": (["act", "--type", "A2", "--word", "1,{}", "w[1;a,0]"], "y", _JUNK),
    "table entry": (["qchar-fund", "--type", "B3", "--node", "1", "--table", '{{"{}":1}}'], "y", _JUNK),
    "table multiplicity": (
        ["qchar-fund", "--type", "B3", "--node", "1", "--table", '{{"1,0,0":"{}"}}'], "y", _JUNK
    ),
    "table coordinates": (["qchar-fund", "--type", "B3", "--node", "1", "--table", '{{"{}":1}}'], "1,1", _DIGITS),
    "unexpected star": (["block", "--type", "A2", "*{}"], "w[1;a,0]", "w[1;a,0]*" * 600),
    "expected factor": (["block", "--type", "A2", "w[1;a,0]*{}"], "y", _JUNK),
    "node index": (["block", "--type", "A2", "w[0;a,0]{}"], "*w[1;a,0]", "*w[1;a,0]" * 600),
    "dangling star": (["block", "--type", "A2", "{}*"], "w[1;a,0]", "w[1;a,0]*" * 600 + "w[1;a,0]"),
    "lie type": (["block", "--type", "A{}", "w[1;a,0]"], "y", _JUNK),
    "orbit": (["alpha", "--type", "A2", "--node", "1", "--orbit", "1{}"], "y", _JUNK),
    "node range": (["alpha", "--type", "A2", "--node", "{}"], "3", "9" * 4000),
    "word node range": (["act", "--type", "A2", "--word", "1,{}", "w[1;a,0]"], "3", "9" * 4000),
    "string length": (["qchar-sl2", "--length", "-{}"], "9", _NINES),
    "lie rank": (["alpha", "--type", "E{}", "--node", "1"], "9", _NINES),
    "table value": (["qchar-fund", "--type", "B2", "--node", "1", "--table", '{{"1,0":1,"0,0":-{}}}'], "9", _NINES),
    "table split": (
        ["qchar-fund", "--type", "B3", "--node", "2", "--table", '{{"0,1,0":1,"1,0,0":1,"0,0,0":-{}}}'], "9", _NINES
    ),
    "table mismatch": (
        ["qchar-fund", "--type", "B2", "--node", "1", "--table", '{{"1,0":1,"0,0":1,"{},0":1}}'], "9", _NINES
    ),
}


@pytest.mark.parametrize("call", sorted(_ECHO_CALLS))
def test_error_messages_echo_at_most_a_capped_prefix(call, capsys):
    template, short, long = _ECHO_CALLS[call]
    codes, errs = [], []
    for fill in (short, long):
        codes.append(cli.main([arg.format(fill) for arg in template]))
        out, err = capsys.readouterr()
        assert out == ""
        errs.append(err)
    assert codes[0] == codes[1] and codes[0] in (2, 3)
    assert short in errs[0] and "characters)" not in errs[0]
    assert len(errs[1].encode()) < 400
    assert " characters)" in errs[1]


# Usage errors that argparse reports, echoing the bad value: the argv with
# a placeholder, and the text before the value in argparse's message.
_USAGE_ECHO_CALLS = {
    "suite choice": (["verify", "--suite", "{}"], "argument --suite: invalid choice: "),
    "node int": (["alpha", "--type", "A2", "--node", "{}"], "argument --node: invalid int value: "),
    "format choice": (
        ["block", "--type", "A2", "--format", "{}", "w[1;a,0]"], "argument --format: invalid choice: "
    ),
    "verb choice": (["{}", "--type", "A2"], "argument verb: invalid choice: "),
}


@pytest.mark.parametrize("call", sorted(_USAGE_ECHO_CALLS))
def test_usage_errors_echo_at_most_a_capped_prefix(call, capsys):
    template, lead = _USAGE_ECHO_CALLS[call]

    def usage_error(fill):
        with pytest.raises(SystemExit) as stop:
            cli.main([arg.format(fill) for arg in template])
        assert stop.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        return err

    # Up to the cap the value reads as argparse's own repr; past it, cut.
    exact = "x" * ECHO_CAP
    assert lead + repr(exact) in usage_error(exact)
    assert lead + repr("nope") in usage_error("nope")
    err = usage_error(_JUNK)
    assert lead + quote(_JUNK) in err
    assert len(err.encode()) < 600


def test_unrecognized_arguments_echo_at_most_a_capped_prefix(capsys):
    def usage_error(*extra):
        with pytest.raises(SystemExit) as stop:
            cli.main(["alpha", "--type", "A2", "--node", "1", *extra])
        assert stop.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        return err

    # Up to the cap the arguments read as argparse prints them, unquoted.
    lead = "loopchar: error: unrecognized arguments: "
    assert usage_error("foo", "bar").endswith(lead + "foo bar\n")
    exact = "x" * ECHO_CAP
    assert usage_error(exact).endswith(lead + exact + "\n")
    err = usage_error("foo", _JUNK)
    assert err.endswith(lead + quote("foo " + _JUNK) + "\n")
    assert len(err.encode()) < 600


def test_domain_errors_exit_3():
    result = run_cli("alpha", "--type", "A2", "--node", "5")
    assert result.returncode == 3
    assert result.stderr.startswith("error:")

    result = run_cli("qchar-fund", "--type", "B3", "--node", "2")
    assert result.returncode == 3
    assert "node 2 of B3 needs an explicit multiplicity table" in result.stderr


def test_number_prints_a_count_past_the_cap_as_its_digit_count():
    assert number(0) == "0"
    assert number(10**ECHO_CAP - 1) == "9" * ECHO_CAP
    # str() refuses past 4300 digits, so the counts there come from powers of ten.
    for digits in (ECHO_CAP + 1, 4300, 4301, 20000):
        assert number(10 ** (digits - 1)) == number(10**digits - 1) == f"<{digits} digits>"
    for bits in range(333, 14000, 997):
        assert number(2**bits) == f"<{len(str(2**bits))} digits>"


def test_quote_prints_an_int_past_the_str_limit_by_its_digit_count():
    # repr() refuses an int past 4300 digits; quote reads it as number does.
    assert quote(-10**5000) == "-<5001 digits>"
    assert quote(10**5000) == "<5001 digits>"
    assert quote(-(10**2000)).endswith("… (2002 characters)")
    with pytest.raises(DomainError, match=r"^node <5001 digits> out of range for type A2$"):
        cartan_data("A2").check_node(10**5000)


# Calls whose predicted sizes run past str()'s 4300 digits, or whose rank
# is refused by the floor before any factorial.
_OVERSIZED_CALLS = {
    "sl2": (
        ["qchar-sl2", "--length", "9" * 2200],
        "string of length <2200 digits> would number <4400 digits>, more than the size cap",
    ),
    "tensor": (
        ["qchar-tensor", "--length", "9" * 1500, "--length2", "9" * 1500],
        "character product would number <4501 digits>, more than the size cap",
    ),
    **{
        f"{label}-{node}": (
            ["qchar-fund", "--type", label, "--node", node],
            f"the coordinates of 20001 weights, the fewest a nonzero Weyl orbit of {label} holds, would number 400020000,",
        )
        for label, node in (("A20000", "10000"), ("D20000", "20000"), ("B20000", "20000"))
    },
}


@pytest.mark.parametrize("call", sorted(_OVERSIZED_CALLS))
def test_a_size_too_long_to_print_is_refused_with_exit_3(call, capsys):
    argv, fragment = _OVERSIZED_CALLS[call]
    assert cli.main(argv) == 3
    out, err = capsys.readouterr()
    assert out == "" and fragment in err
    assert len(err.encode()) < 400


def test_a_million_rank_character_is_refused_by_the_floor():
    result = run_cli("qchar-fund", "--type", "A1000000", "--node", "500000")
    assert (result.returncode, result.stdout) == (3, "")
    assert "the coordinates of 1000001 weights, the fewest" in result.stderr


@pytest.mark.parametrize(
    "node,table,missing",
    [
        ("1", '{"1,0,0":1}', "[0, 0, 0]"),
        ("2", '{"0,1,0":1,"0,0,0":4}', "[1, 0, 0]"),
        ("2", '{"0,1,0":1,"1,0,0":1}', "[0, 0, 0]"),
    ],
)
def test_a_table_missing_a_dominant_weight_of_the_character_exits_3(node, table, missing):
    # Every dominant weight of the character is a level of the descent, and
    # a level without a table entry is refused when the descent reaches it.
    result = run_cli("qchar-fund", "--type", "B3", "--node", node, "--table", table)
    assert result.returncode == 3
    assert result.stdout == ""
    assert result.stderr == f"error: descent reached dominant weight {missing} missing from the table\n"


@pytest.mark.parametrize("orbit", ["x]*w[2", "1a", ""])
def test_alpha_refuses_an_orbit_that_would_not_parse_back(orbit):
    result = run_cli("alpha", "--type", "A2", "--node", "1", "--orbit", orbit)
    assert result.returncode == 3
    assert result.stdout == ""
    assert result.stderr.startswith("error: invalid orbit name")


# Runs whose output passes through hashed values: class maps and block
# normal forms keyed on Lie types, characters keyed on loop weights.
HASH_SEED_RUNS = [
    ["verify", "--suite", "all", "--format", "json"],
    MANIFEST["block-d4-json"],
    MANIFEST["qchar-fund-b2-table"],
    MANIFEST["trivial-f4"],
]


@pytest.mark.parametrize("args", HASH_SEED_RUNS, ids=lambda args: " ".join(args[:3]))
def test_output_does_not_depend_on_the_hash_seed(args):
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=seed)
        result = subprocess.run(
            [sys.executable, "-m", "loopchar", *args], capture_output=True, env=env
        )
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]


def test_internal_errors_exit_4(monkeypatch, capsys):
    def broken(args):
        raise ArithmeticError("no class map")

    monkeypatch.setattr(cli, "_cmd_block", broken)
    assert cli.main(["block", "--type", "A2", "w[1;a,0]"]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "internal error: ArithmeticError('no class map')\n"



def test_a_plain_value_error_is_still_internal(monkeypatch, capsys):
    def broken(args):
        raise ValueError("x")

    monkeypatch.setattr(cli, "_cmd_alpha", broken)
    assert cli.main(["alpha", "--type", "A2", "--node", "1"]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "internal error: ValueError('x')\n"


# The most digits an integer literal may have: each result below holds an
# integer with more, which str() and json.dumps refuse.
_N = "9" * _LIMIT
_UNPRINTABLE_CALLS = {
    "alpha": ["alpha", "--type", "A2", "--node", "1", "--exp", _N],
    "alpha-json": ["alpha", "--type", "A2", "--node", "1", "--exp", _N, "--format", "json"],
    "act": ["act", "--type", "A2", "--word", "1", f"w[1;a,{_N}]"],
    "twist-w0": ["twist-w0", "--type", "A2", f"w[1;a,{_N}]"],
    "trivial-sets": ["trivial-sets", "--type", "A2", "--exp", _N],
    "qchar-fund": ["qchar-fund", "--type", "A3", "--node", "1", "--exp", _N],
    "qchar-sl2": ["qchar-sl2", "--length", "2", "--exp", _N],
    "qchar-tensor": ["qchar-tensor", "--length", "1", "--length2", "1", "--exp", _N],
    "block": ["block", "--type", "A2", f"w[1;a,0]^{_N}*w[1;a,6]^{_N}"],
    "decompose": [
        "decompose", "--type", "A2",
        "*".join([f"w[1;a,0]^{_N}"] * 2 + [f"w[1;a,2]^{_N}"] * 2 + [f"w[2;a,1]^-{_N}"] * 2),
    ],
}


@_needs_limit
@pytest.mark.parametrize("call", sorted(_UNPRINTABLE_CALLS))
def test_a_result_too_long_to_print_exits_3_with_nothing_on_stdout(call, capsys):
    # The whole output is built before any of it is written.
    assert cli.main(_UNPRINTABLE_CALLS[call]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: the result holds an integer of more than {_LIMIT} digits\n"
    assert len(err.encode()) < 400


class _ClosedPipe(io.TextIOBase):
    """A stdout whose reader has gone: every write fails."""

    def __init__(self, fd):
        self._fd = fd

    def fileno(self):
        return self._fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_a_closed_stdout_exits_141_quietly(monkeypatch, tmp_path):
    err = io.StringIO()
    monkeypatch.setattr(sys, "stderr", err)
    with open(tmp_path / "out", "wb") as sink:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(sink.fileno()))
        assert cli.main(["alpha", "--type", "A2", "--node", "1"]) == 141
        # The descriptor now points at devnull, so the flush at exit cannot fail.
        os.write(sink.fileno(), b"lost")
    assert (tmp_path / "out").read_bytes() == b""
    assert err.getvalue() == ""


def test_a_reader_that_closes_the_pipe_gets_exit_141():
    # About 550 kB of output, several times what a pipe buffers.
    proc = subprocess.Popen(
        [sys.executable, "-m", "loopchar", "qchar-fund", "--type", "A14", "--node", "7"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 141
    assert first.startswith(b"1 * w[1;a,")
    assert err == b""


def test_suite_choices_match_the_verify_module():
    assert cli.SUITES == SUITE_NAMES


def test_usage_errors_exit_2():
    assert run_cli("verify", "--suite", "nope").returncode == 2
    assert run_cli("alpha", "--type", "A2").returncode == 2
    assert run_cli().returncode == 2


# Values a flag or positional may take: good and bad ints, negative
# numbers, and strings that start with "-".
INT_VALUES = ["0", "1", "3", "-2", "-0", " 4", "+5", "1_0"]
STR_VALUES = ["A2", "a", "w[1;a,0]", "", "-7", "a=b"]
NOISE_VALUES = ["x", "1.5", "-1.5", "-1e3", "-x", "-", "- a", "--", "json", "nope", "alpha"]


@st.composite
def argvs(draw):
    """A well-formed argv for a verb of the table, then up to three edits."""
    verb = draw(st.sampled_from(sorted(cli._VERBS)))
    _, _, options, positionals = cli._VERBS[verb]
    chunks = []
    for flag, kind, _, required, choices, _ in options:
        if required or draw(st.booleans()):
            values = choices or (INT_VALUES if kind is int else STR_VALUES)
            chunks.append([flag, draw(st.sampled_from(values))])
    chunks += [[draw(st.sampled_from(STR_VALUES))] for _ in positionals]
    argv = [verb] + [token for chunk in draw(st.permutations(chunks)) for token in chunk]
    flags = [opt[0] for opt in options]
    noise = st.one_of(
        st.sampled_from(flags),
        st.sampled_from(flags).flatmap(lambda f: st.sampled_from([f[:k] for k in range(3, len(f))])),
        st.tuples(st.sampled_from(flags), st.sampled_from(INT_VALUES + STR_VALUES)).map("=".join),
        st.sampled_from(["-h", "--help", "--he", "--bogus", "-t", "--"]),
        st.sampled_from(INT_VALUES + STR_VALUES + NOISE_VALUES),
    )
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(["insert", "replace", "delete"]))
        if edit == "insert":
            argv.insert(draw(st.integers(0, len(argv))), draw(noise))
        elif argv:
            i = draw(st.integers(0, len(argv) - 1))
            if edit == "replace":
                argv[i] = draw(noise)
            else:
                del argv[i]
    return argv


@settings(deadline=None, max_examples=400)
@given(argvs())
def test_the_exact_parse_agrees_with_argparse(argv):
    args = cli._parse(argv)
    if args is not None:
        assert vars(args) == vars(cli._build_parser().parse_args(argv))


# One argv per reason the exact parse leaves argv to argparse.
DECLINED = {
    "help": ["alpha", "--type", "A2", "--node", "1", "-h"],
    "top-level help": ["--help"],
    "no verb": [],
    "unknown verb": ["alph", "--type", "A2", "--node", "1"],
    "unknown flag": ["alpha", "--type", "A2", "--node", "1", "--bogus", "x"],
    "abbreviated flag": ["alpha", "--typ", "A2", "--node", "1"],
    "flag=value": ["alpha", "--type=A2", "--node", "1"],
    "double dash": ["block", "--type", "A2", "--", "w[1;a,0]"],
    "repeated flag": ["alpha", "--type", "A2", "--node", "1", "--node", "2"],
    "value that reads as a flag": ["alpha", "--type", "A2", "--node", "1", "--orbit", "-b"],
    "missing value": ["alpha", "--type", "A2", "--node"],
    "bad int": ["alpha", "--type", "A2", "--node", "one"],
    "value outside its choices": ["verify", "--suite", "nope"],
    "missing required flag": ["alpha", "--type", "A2"],
    "too few positionals": ["cone", "--type", "A2", "w[1;a,0]"],
    "too many positionals": ["block", "--type", "A2", "w[1;a,0]", "w[2;a,0]"],
}


@pytest.mark.parametrize("reason", sorted(DECLINED))
def test_the_exact_parse_declines(reason):
    assert cli._parse(DECLINED[reason]) is None


@pytest.mark.parametrize(
    "argv",
    [
        ["alpha", "--node", "1", "--exp", "-3", "--type", "A2"],
        ["block", "--type", "A2", "-5"],
        ["cone", "w[1;a,0]", "--type", "A2", "w[1;a,2]"],
        ["alpha", "--type", "A2", "--node", " 1"],
        ["qchar-sl2", "--length", "2", "--orbit", ""],
        ["decompose", "--type", "A2", "--sign", "-", "w[1;a,0]"],
    ],
    ids=" ".join,
)
def test_the_exact_parse_accepts_what_argparse_reads_alike(argv):
    args = cli._parse(argv)
    assert args is not None
    assert vars(args) == vars(cli._build_parser().parse_args(argv))


@pytest.mark.parametrize("argv", [["--type", "A2", "--node=1"], ["--typ", "A2", "--nod", "1"]])
def test_spellings_left_to_argparse_print_the_same(argv, capsys):
    assert cli._parse(["alpha", *argv]) is None
    assert cli.main(["alpha", *argv]) == 0
    assert capsys.readouterr().out == "w[1;a,0]*w[1;a,2]*w[2;a,1]^-1\n"


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
