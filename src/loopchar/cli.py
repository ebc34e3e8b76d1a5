"""Command-line front end.

One verb per library operation, plus a ``verify`` verb that runs the
self-check suites.  Output is deterministic for a fixed argument list;
``--format json`` switches every verb to a machine-readable encoding.
Each handler returns its whole output as a string (``verify`` with its
exit code), and ``main`` writes it to stdout once, so a call that fails
writes nothing to stdout.
Exit codes: 0 on success (predicates report their answer and still exit
0), 1 when verification finds a failing check, 2 on bad input syntax,
3 when the request is well formed but outside an operation's domain,
a result holding an integer too long to print included,
4 on an internal error, reported as one line on stderr, and 141 when the
reader of stdout closed it before the output was written (as in
``| head -1``), with nothing on stderr.

The verbs, their options and their positionals are one table,
``_VERBS``.  ``main`` reads a well-formed argv against it directly and
builds the argparse parser from the same table only when that read
declines: for ``--help``, for a usage error, and for spellings such as
``--flag=value`` or an abbreviated flag.  So a call that runs a verb
never imports argparse, and help and usage errors keep argparse's bytes.
"""

import os
import sys
from types import SimpleNamespace
from typing import Dict, List, Optional, Tuple

# Every verb loads cartan and lweight.  Each handler imports the rest of
# the library itself, argparse is imported only to print help or a usage
# error, and json only where JSON is read or written, so a cold process
# compiles and runs only what its verb needs.
from .cartan import CartanData, cartan_data
from .errors import ECHO_CAP, DomainError, ParseError, check_size, quote, read_int
from .lweight import LCharacter, LWeight, check_lweight, parse_lweight

# The choices of ``verify --suite``, kept equal to verify.SUITE_NAMES by a
# test, so that building the parser does not import the verify module.
SUITES = (
    "alpha-lists",
    "braid-relations",
    "w0-twist",
    "ellfund",
    "xi-oracle",
    "trivial-sets",
    "dn-adjoint",
    "sl2",
)


def _dump(obj: object) -> str:
    import json

    return json.dumps(obj, separators=(",", ":"))


def _parse_word(text: str) -> Tuple[int, ...]:
    try:
        word = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ParseError(f"cannot read generator word {quote(text)}")
    if not word:
        raise ParseError("empty generator word")
    return word


class _JSONObject(dict):
    """A decoded JSON object that also keeps its (key, value) pairs in
    order, a repeated key included, which the dict alone would drop."""

    def __init__(self, pairs: List[Tuple[str, object]]):
        super().__init__(pairs)
        self.pairs = pairs


def _parse_table(text: str, rank: int) -> Dict[Tuple[int, ...], int]:
    import json

    try:
        data = json.loads(text, parse_int=read_int, object_pairs_hook=_JSONObject)
    except json.JSONDecodeError as err:
        raise ParseError(f"bad multiplicity table: {err}")
    if not isinstance(data, dict):
        raise ParseError("multiplicity table must be a JSON object")
    table: Dict[Tuple[int, ...], int] = {}
    for key, value in data.pairs:
        try:
            coords = tuple(int(part) for part in str(key).split(","))
        except ValueError:
            raise ParseError(f"bad table entry {quote(key)}: {quote(value)}")
        # bool is an int subclass; int() would truncate floats and coerce strings.
        if type(value) is not int:
            raise ParseError(f"multiplicity of {quote(key)} is not an integer: {quote(value)}")
        if len(coords) != rank:
            raise ParseError(f"weight {quote(key)} does not have {rank} coordinates")
        # A repeated key, or a second spelling such as "0, 0" of "0,0".
        if coords in table:
            raise ParseError(f"weight {quote(key)} is given twice in the multiplicity table")
        table[coords] = value
    return table


def _weights(cd: CartanData, texts: List[str]) -> List[LWeight]:
    return [check_lweight(cd, parse_lweight(text)) for text in texts]


def _render(value: object, fmt: str) -> str:
    """A verb's answer in fmt: a predicate's truth value, or a loop weight,
    class or character by its ``to_json`` or its text."""
    if isinstance(value, bool):
        return _dump({"result": value}) if fmt == "json" else str(value).lower()
    if fmt == "json":
        return _dump(value.to_json())
    return value.text() if isinstance(value, LCharacter) else str(value)


def _cmd_alpha(args: SimpleNamespace) -> str:
    from .braid import simple_lroot

    cd = cartan_data(args.type)
    return _render(simple_lroot(cd, args.node, args.orbit, args.exp), args.format)


def _cmd_act(args: SimpleNamespace) -> str:
    from .braid import braid_act_word
    from .weyl import is_reduced_word

    cd = cartan_data(args.type)
    word = _parse_word(args.word)
    if not is_reduced_word(cd, word):
        print("warning: word is not reduced", file=sys.stderr)
    (pi,) = _weights(cd, [args.weight])
    return _render(braid_act_word(cd, word, pi), args.format)


def _cmd_twist(args: SimpleNamespace) -> str:
    from .braid import twist_by_w0

    cd = cartan_data(args.type)
    (pi,) = _weights(cd, [args.weight])
    return _render(twist_by_w0(cd, pi), args.format)


def _coeff_sign(values: List[int]) -> str:
    if not values:
        return "0"
    if all(c > 0 for c in values):
        return "+"
    if all(c < 0 for c in values):
        return "-"
    return "mixed"


def _cmd_decompose(args: SimpleNamespace) -> str:
    from .braid import lroot_decompose

    cd = cartan_data(args.type)
    (pi,) = _weights(cd, [args.weight])
    coeffs = lroot_decompose(cd, pi, args.sign)
    if coeffs is None:
        return _dump({"in_lattice": False}) if args.format == "json" else "in_lattice: false"
    items = sorted(coeffs.items())
    sign = _coeff_sign([c for _, c in items])
    if args.format == "json":
        return _dump(
            {
                "in_lattice": True,
                "sign": sign,
                "coeffs": [
                    {"node": node, "orbit": orbit, "exp": exp, "c": c}
                    for (node, orbit, exp), c in items
                ],
            }
        )
    lines = [f"alpha[{node};{orbit},{exp}] {c}" for (node, orbit, exp), c in items]
    return "\n".join(["in_lattice: true", f"sign: {sign}", *lines])


def _cmd_cone(args: SimpleNamespace) -> str:
    from .braid import cone_check

    cd = cartan_data(args.type)
    omega, pi = _weights(cd, [args.highest, args.weight])
    return _render(cone_check(cd, omega, pi), args.format)


def _cmd_block(args: SimpleNamespace) -> str:
    from .blocks import elliptic_class

    cd = cartan_data(args.type)
    (pi,) = _weights(cd, [args.weight])
    return _render(elliptic_class(cd, pi), args.format)


def _cmd_linked(args: SimpleNamespace) -> str:
    from .blocks import blocks_linked

    cd = cartan_data(args.type)
    w1, w2 = _weights(cd, [args.first, args.second])
    return _render(blocks_linked(cd, w1, w2), args.format)


def _cmd_trivial(args: SimpleNamespace) -> str:
    from .blocks import trivial_sets

    cd = cartan_data(args.type)
    sets = trivial_sets(cd, args.orbit, args.exp)
    if args.format == "json":
        return _dump([{"label": label, "weight": w.to_json()} for label, w in sets])
    return "\n".join(f"{label} {w}" for label, w in sets)


def _cmd_qchar_fund(args: SimpleNamespace) -> str:
    from .qchar import dn_node2_char, fundamental_char, is_minuscule, minuscule_char

    cd = cartan_data(args.type)
    cd.check_node(args.node)
    p = (args.orbit, args.exp)
    if args.table is not None:
        c = fundamental_char(cd, args.node, p, _parse_table(args.table, cd.rank))
    elif is_minuscule(cd, args.node):
        c = minuscule_char(cd, args.node, p)
    elif cd.type.series == "D" and args.node == 2:
        c = dn_node2_char(cd.rank, p)
    else:
        raise DomainError(
            f"node {args.node} of {cd.type} needs an explicit multiplicity table"
        )
    return _render(c, args.format)


def _cmd_qchar_sl2(args: SimpleNamespace) -> str:
    from .qchar import sl2_eval_char

    if args.type is not None and args.type.strip() != "A1":
        raise DomainError("string characters live in type A1")
    return _render(sl2_eval_char((args.orbit, args.exp), args.length), args.format)


def _cmd_qchar_tensor(args: SimpleNamespace) -> str:
    from .qchar import Sl2String, sl2_eval_char, sl2_tensor_irreducible, tensor_char

    s1 = Sl2String((args.orbit, args.exp), args.length)
    s2 = Sl2String((args.orbit2, args.exp2), args.length2)
    # The product's own bound, checked before the strings are built: the
    # character of a string of length m has m+1 terms of m factors each.
    check_size((s1.m + 1) * (s2.m + 1) * (s1.m + s2.m), "the factors of a character product")
    product = tensor_char(sl2_eval_char(s1.a, s1.m), sl2_eval_char(s2.a, s2.m))
    irr = sl2_tensor_irreducible([s1, s2])
    if args.format == "json":
        return _dump({"irreducible": irr, "char": product.to_json()})
    return f"irreducible: {'true' if irr else 'false'}\n{product.text()}"


def _cmd_verify(args: SimpleNamespace) -> Tuple[str, int]:
    """The report and the exit code: 1 when a check fails, else 0."""
    from .verify import SUITE_NAMES, run_suite

    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
    results = [(name, run_suite(name, args.seed)) for name in names]
    failing = sum(r["status"] != "pass" for _, rows in results for r in rows)
    code = 1 if failing else 0
    if args.format == "json":
        flat = [{"suite": name, **r} for name, rows in results for r in rows]
        return _dump(flat), code
    lines = []
    for name, rows in results:
        bad = [r for r in rows if r["status"] != "pass"]
        verdict = "PASS" if not bad else f"FAIL ({len(bad)}/{len(rows)})"
        lines.append(f"{name:16s} {verdict:12s} {len(rows)} checks")
        for r in bad:
            lines.append(f"  FAIL {r['check']}")
            lines.append(f"    expected: {r['expected']}")
            lines.append(f"    actual:   {r['actual']}")
    lines.append(f"{failing} failing checks" if failing else "all checks pass")
    return "\n".join(lines), code


def _opt(flag: str, kind=None, default=None, required=False, choices=None, help=None) -> tuple:
    return (flag, kind, default, required, choices, help)


# The verb table: verb -> (handler, help, options, positionals), in the
# order of ``--help``.  An option is (flag, type, default, required,
# choices, help).  Handlers are named, not bound, and looked up when argv
# is parsed, so a handler replaced on the module is the one that runs.
_TYPE = _opt("--type", required=True, help="Lie type, e.g. D5")
_FORMAT = _opt("--format", default="text", choices=("text", "json"), help="output encoding")
_NODE = _opt("--node", int, required=True)
_ORBIT = _opt("--orbit", default="a")
_EXP = _opt("--exp", int, default=0)
_LENGTH = _opt("--length", int, required=True)
_TABLE_HELP = 'classical multiplicities as JSON, e.g. {"0,1,0,0":1,"0,0,0,0":5}'

_VERBS = {
    "alpha": ("_cmd_alpha", "print one simple loop root", (_TYPE, _FORMAT, _NODE, _ORBIT, _EXP), ()),
    "act": (
        "_cmd_act",
        "apply a braid word to a loop weight",
        (_TYPE, _FORMAT, _opt("--word", required=True, help="comma-separated nodes; last acts first")),
        ("weight",),
    ),
    "twist-w0": ("_cmd_twist", "twist by the longest braid element", (_TYPE, _FORMAT), ("weight",)),
    "decompose": (
        "_cmd_decompose",
        "write a loop weight over simple loop roots",
        (_TYPE, _FORMAT, _opt("--sign", default="any", choices=("any", "+", "-"))),
        ("weight",),
    ),
    "cone": (
        "_cmd_cone",
        "test membership in a highest weight's cone",
        (_TYPE, _FORMAT),
        ("highest", "weight"),
    ),
    "block": ("_cmd_block", "elliptic class of a loop weight", (_TYPE, _FORMAT), ("weight",)),
    "linked": (
        "_cmd_linked",
        "test whether two dominant weights share a block",
        (_TYPE, _FORMAT),
        ("first", "second"),
    ),
    "trivial-sets": (
        "_cmd_trivial",
        "generator products in the trivial block",
        (_TYPE, _FORMAT, _ORBIT, _EXP),
        (),
    ),
    "qchar-fund": (
        "_cmd_qchar_fund",
        "q-character of a fundamental module",
        (_TYPE, _FORMAT, _NODE, _ORBIT, _EXP, _opt("--table", help=_TABLE_HELP)),
        (),
    ),
    "qchar-sl2": (
        "_cmd_qchar_sl2",
        "q-character of one evaluation string",
        (_FORMAT, _opt("--type", help="optional; must be A1 when given"), _ORBIT, _EXP, _LENGTH),
        (),
    ),
    "qchar-tensor": (
        "_cmd_qchar_tensor",
        "tensor two strings",
        (
            _FORMAT,
            _ORBIT,
            _EXP,
            _LENGTH,
            _opt("--orbit2", default="a"),
            _opt("--exp2", int, default=0),
            _opt("--length2", int, required=True),
        ),
        (),
    ),
    "verify": (
        "_cmd_verify",
        "run the self-check suites",
        (
            _FORMAT,
            _opt("--suite", default="all", choices=SUITES + ("all",)),
            _opt("--seed", int, default=0),
        ),
        (),
    ),
}


def _is_flag(token: str) -> bool:
    """Whether argparse may read token as a flag: it starts with "-" and is
    neither "-" alone nor a negative integer in ASCII digits, which
    argparse reads as values."""
    rest = token[1:]
    return token[:1] == "-" and rest != "" and not (rest.isdigit() and rest.isascii())


def _parse(argv: List[str]) -> Optional[SimpleNamespace]:
    """argv read against the verb table, or None where argparse must decide.

    Accepts only what argparse reads the same way: the verb first, each of
    its flags at most once, spelt in full and followed by a value of the
    flag's type and choices, every required flag, and exactly the verb's
    positionals, in any order.  Anything else (-h, --, an unknown,
    abbreviated or --flag=value flag, a value that reads as a flag) is
    left to argparse, for its help text or its usage error.
    """
    if not argv or argv[0] not in _VERBS:
        return None
    handler, _, options, positionals = _VERBS[argv[0]]
    spec = {opt[0]: opt for opt in options}
    given: Dict[str, object] = {}
    free: List[str] = []
    tokens = iter(argv[1:])
    for token in tokens:
        if not _is_flag(token):
            free.append(token)
            continue
        opt = spec.get(token)
        value = next(tokens, None)
        if opt is None or token in given or value is None or _is_flag(value):
            return None
        _, kind, _, _, choices, _ = opt
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                return None
        if choices is not None and value not in choices:
            return None
        given[token] = value
    if len(free) != len(positionals):
        return None
    args = SimpleNamespace(verb=argv[0], handler=globals()[handler])
    for flag, _, default, required, _, _ in options:
        if required and flag not in given:
            return None
        setattr(args, flag[2:].replace("-", "_"), given.get(flag, default))
    for name, value in zip(positionals, free):
        setattr(args, name, value)
    return args


class _Quoted(str):
    """A value outside its option's choices, or an unknown verb.
    argparse's usage error echoes it by ``repr``, which here is ``quote``'s."""

    __slots__ = ()

    def __repr__(self) -> str:
        return quote(str(self))


def _int_arg(text: str) -> int:
    """argparse's ``int`` type, with a bad value echoed through ``quote``."""
    try:
        return int(text)
    except ValueError:
        import argparse

        raise argparse.ArgumentTypeError(f"invalid int value: {quote(text)}")


def _arg_type(kind, choices):
    """The argparse type of an option of the verb table.  argparse echoes
    a bad value whole; these read as argparse does and echo it through
    ``quote``, so a value within ``ECHO_CAP`` characters reads as before
    and a longer one is cut."""
    if kind is int:
        return _int_arg
    if choices is not None:
        return lambda text: text if text in choices else _Quoted(text)
    return kind


def _build_parser() -> "argparse.ArgumentParser":
    """The argparse parser of the verb table, for help and usage errors."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="loopchar",
        description="Symbolic loop weights, braid twists, blocks, and q-characters.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, (handler, help_text, options, positionals) in _VERBS.items():
        p = sub.add_parser(verb, help=help_text)
        for flag, kind, default, required, choices, text in options:
            p.add_argument(
                flag,
                type=_arg_type(kind, choices),
                default=default,
                required=required,
                choices=choices,
                help=text,
            )
        for name in positionals:
            p.add_argument(name)
        p.set_defaults(handler=globals()[handler])
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse(argv)
    if args is None:
        # argparse prints the help (exit 0) or a usage error (exit 2), or
        # reads what _parse declined, such as --flag=value or an abbreviation.
        # It echoes an unknown verb by repr, which _Quoted makes quote's,
        # and unrecognized arguments as typed, cut here past ECHO_CAP.
        if argv and argv[0] not in _VERBS:
            argv[0] = _Quoted(argv[0])
        parser = _build_parser()
        namespace, extra = parser.parse_known_args(argv)
        if extra:
            text = " ".join(extra)
            parser.error(f"unrecognized arguments: {text if len(text) <= ECHO_CAP else quote(text)}")
        args = SimpleNamespace(**vars(namespace))
    try:
        out = args.handler(args)
        text, code = out if isinstance(out, tuple) else (out, 0)
        # The one write to stdout.  print writes the newline as a second
        # write: a large first write can end short, without an error, at a
        # reader that has gone, and the second one then raises.
        print(text)
        # Output still buffered would otherwise meet a closed pipe at exit.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The recipe of the signal module's docs: point stdout at devnull,
        # so that the flush at exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except ParseError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except DomainError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except Exception as err:
        # str() and json.dumps refuse an int past sys.get_int_max_str_digits()
        # digits with a plain ValueError: a result too long to print.
        if type(err) is ValueError and "integer string conversion" in str(err):
            limit = sys.get_int_max_str_digits()
            print(f"error: the result holds an integer of more than {limit} digits", file=sys.stderr)
            return 3
        # A failed internal identity must not pass for exit 1 ("verify failed").
        print(f"internal error: {err!r}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
