"""Command-line front end.

One verb per library operation, plus a ``verify`` verb that runs the
self-check suites.  Output is deterministic for a fixed argument list;
``--format json`` switches every verb to a machine-readable encoding.
Exit codes: 0 on success (predicates report their answer and still exit
0), 1 when verification finds a failing check, 2 on bad input syntax,
3 when the request is well formed but outside an operation's domain,
4 on an internal error, reported as one line on stderr.
"""

import argparse
import sys
from typing import Dict, List, Optional, Tuple

# Every verb loads cartan and lweight.  Each handler imports the rest of
# the library itself, and json is imported where JSON is read or written,
# so a cold process compiles and runs only what its verb needs.
from .cartan import CartanData, cartan_data
from .errors import DomainError, ParseError
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
        raise ParseError(f"cannot read generator word {text!r}")
    if not word:
        raise ParseError("empty generator word")
    return word


def _parse_table(text: str, rank: int) -> Dict[Tuple[int, ...], int]:
    import json

    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise ParseError(f"bad multiplicity table: {err}")
    if not isinstance(data, dict):
        raise ParseError("multiplicity table must be a JSON object")
    table: Dict[Tuple[int, ...], int] = {}
    for key, value in data.items():
        try:
            coords = tuple(int(part) for part in str(key).split(","))
        except ValueError:
            raise ParseError(f"bad table entry {key!r}: {value!r}")
        # bool is an int subclass; int() would truncate floats and coerce strings.
        if type(value) is not int:
            raise ParseError(f"multiplicity of {key!r} is not an integer: {value!r}")
        if len(coords) != rank:
            raise ParseError(f"weight {key!r} does not have {rank} coordinates")
        table[coords] = value
    return table


def _weights(cd: CartanData, texts: List[str]) -> List[LWeight]:
    return [check_lweight(cd, parse_lweight(text)) for text in texts]


def _print_lweight(pi: LWeight, fmt: str) -> None:
    print(_dump(pi.to_json()) if fmt == "json" else str(pi))


def _print_char(c: LCharacter, fmt: str) -> None:
    print(_dump(c.to_json()) if fmt == "json" else c.text())


def _print_bool(value: bool, fmt: str) -> None:
    print(_dump({"result": value}) if fmt == "json" else ("true" if value else "false"))


def _cmd_alpha(args: argparse.Namespace) -> int:
    from .braid import simple_lroot

    cd = cartan_data(args.type)
    _print_lweight(simple_lroot(cd, args.node, args.orbit, args.exp), args.format)
    return 0


def _cmd_act(args: argparse.Namespace) -> int:
    from .braid import braid_act_word
    from .weyl import is_reduced_word

    cd = cartan_data(args.type)
    word = _parse_word(args.word)
    for i in word:
        cd.check_node(i)
    if not is_reduced_word(cd, word):
        print("warning: word is not reduced", file=sys.stderr)
    (pi,) = _weights(cd, [args.weight])
    _print_lweight(braid_act_word(cd, word, pi), args.format)
    return 0


def _cmd_twist(args: argparse.Namespace) -> int:
    from .braid import twist_by_w0

    cd = cartan_data(args.type)
    (pi,) = _weights(cd, [args.weight])
    _print_lweight(twist_by_w0(cd, pi), args.format)
    return 0


def _coeff_sign(values: List[int]) -> str:
    if not values:
        return "0"
    if all(c > 0 for c in values):
        return "+"
    if all(c < 0 for c in values):
        return "-"
    return "mixed"


def _cmd_decompose(args: argparse.Namespace) -> int:
    from .braid import lroot_decompose

    cd = cartan_data(args.type)
    (pi,) = _weights(cd, [args.weight])
    coeffs = lroot_decompose(cd, pi, args.sign)
    if coeffs is None:
        print(_dump({"in_lattice": False}) if args.format == "json" else "in_lattice: false")
        return 0
    items = sorted(coeffs.items())
    sign = _coeff_sign([c for _, c in items])
    if args.format == "json":
        print(
            _dump(
                {
                    "in_lattice": True,
                    "sign": sign,
                    "coeffs": [
                        {"node": node, "orbit": orbit, "exp": exp, "c": c}
                        for (node, orbit, exp), c in items
                    ],
                }
            )
        )
    else:
        print("in_lattice: true")
        print(f"sign: {sign}")
        for (node, orbit, exp), c in items:
            print(f"alpha[{node};{orbit},{exp}] {c}")
    return 0


def _cmd_cone(args: argparse.Namespace) -> int:
    from .braid import cone_check

    cd = cartan_data(args.type)
    omega, pi = _weights(cd, [args.highest, args.weight])
    _print_bool(cone_check(cd, omega, pi), args.format)
    return 0


def _cmd_block(args: argparse.Namespace) -> int:
    from .blocks import elliptic_class

    cd = cartan_data(args.type)
    (pi,) = _weights(cd, [args.weight])
    chi = elliptic_class(cd, pi)
    print(_dump(chi.to_json()) if args.format == "json" else str(chi))
    return 0


def _cmd_linked(args: argparse.Namespace) -> int:
    from .blocks import blocks_linked

    cd = cartan_data(args.type)
    w1, w2 = _weights(cd, [args.first, args.second])
    _print_bool(blocks_linked(cd, w1, w2), args.format)
    return 0


def _cmd_trivial(args: argparse.Namespace) -> int:
    from .blocks import trivial_sets

    cd = cartan_data(args.type)
    sets = trivial_sets(cd, args.orbit, args.exp)
    if args.format == "json":
        print(_dump([{"label": label, "weight": w.to_json()} for label, w in sets]))
    else:
        for label, w in sets:
            print(f"{label} {w}")
    return 0


def _cmd_qchar_fund(args: argparse.Namespace) -> int:
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
    _print_char(c, args.format)
    return 0


def _cmd_qchar_sl2(args: argparse.Namespace) -> int:
    from .qchar import sl2_eval_char

    if args.type is not None and args.type.strip() != "A1":
        raise DomainError("string characters live in type A1")
    _print_char(sl2_eval_char((args.orbit, args.exp), args.length), args.format)
    return 0


def _cmd_qchar_tensor(args: argparse.Namespace) -> int:
    from .qchar import Sl2String, sl2_eval_char, sl2_tensor_irreducible, tensor_char

    s1 = Sl2String((args.orbit, args.exp), args.length)
    s2 = Sl2String((args.orbit2, args.exp2), args.length2)
    product = tensor_char(sl2_eval_char(s1.a, s1.m), sl2_eval_char(s2.a, s2.m))
    irr = sl2_tensor_irreducible([s1, s2])
    if args.format == "json":
        print(_dump({"irreducible": irr, "char": product.to_json()}))
    else:
        print(f"irreducible: {'true' if irr else 'false'}")
        print(product.text())
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .verify import SUITE_NAMES, run_suite

    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
    failing = 0
    flat: List[Dict[str, str]] = []
    for name in names:
        rows = run_suite(name, args.seed)
        bad = [r for r in rows if r["status"] != "pass"]
        failing += len(bad)
        if args.format == "json":
            for r in rows:
                flat.append({"suite": name, **r})
        else:
            verdict = "PASS" if not bad else f"FAIL ({len(bad)}/{len(rows)})"
            print(f"{name:16s} {verdict:12s} {len(rows)} checks")
            for r in bad:
                print(f"  FAIL {r['check']}")
                print(f"    expected: {r['expected']}")
                print(f"    actual:   {r['actual']}")
    if args.format == "json":
        print(_dump(flat))
    elif failing == 0:
        print("all checks pass")
    else:
        print(f"{failing} failing checks")
    return 1 if failing else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loopchar",
        description="Symbolic loop weights, braid twists, blocks, and q-characters.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name: str, handler, help_text: str, typed: bool = True):
        p = sub.add_parser(name, help=help_text)
        if typed:
            p.add_argument("--type", required=True, help="Lie type, e.g. D5")
        p.add_argument(
            "--format", choices=("text", "json"), default="text", help="output encoding"
        )
        p.set_defaults(handler=handler)
        return p

    p = add("alpha", _cmd_alpha, "print one simple loop root")
    p.add_argument("--node", type=int, required=True)
    p.add_argument("--orbit", default="a")
    p.add_argument("--exp", type=int, default=0)

    p = add("act", _cmd_act, "apply a braid word to a loop weight")
    p.add_argument("--word", required=True, help="comma-separated nodes; last acts first")
    p.add_argument("weight")

    p = add("twist-w0", _cmd_twist, "twist by the longest braid element")
    p.add_argument("weight")

    p = add("decompose", _cmd_decompose, "write a loop weight over simple loop roots")
    p.add_argument("--sign", choices=("any", "+", "-"), default="any")
    p.add_argument("weight")

    p = add("cone", _cmd_cone, "test membership in a highest weight's cone")
    p.add_argument("highest")
    p.add_argument("weight")

    p = add("block", _cmd_block, "elliptic class of a loop weight")
    p.add_argument("weight")

    p = add("linked", _cmd_linked, "test whether two dominant weights share a block")
    p.add_argument("first")
    p.add_argument("second")

    p = add("trivial-sets", _cmd_trivial, "generator products in the trivial block")
    p.add_argument("--orbit", default="a")
    p.add_argument("--exp", type=int, default=0)

    p = add("qchar-fund", _cmd_qchar_fund, "q-character of a fundamental module")
    p.add_argument("--node", type=int, required=True)
    p.add_argument("--orbit", default="a")
    p.add_argument("--exp", type=int, default=0)
    p.add_argument(
        "--table",
        help='classical multiplicities as JSON, e.g. {"0,1,0,0":1,"0,0,0,0":5}',
    )

    p = add("qchar-sl2", _cmd_qchar_sl2, "q-character of one evaluation string", typed=False)
    p.add_argument("--type", help="optional; must be A1 when given")
    p.add_argument("--orbit", default="a")
    p.add_argument("--exp", type=int, default=0)
    p.add_argument("--length", type=int, required=True)

    p = add("qchar-tensor", _cmd_qchar_tensor, "tensor two strings", typed=False)
    p.add_argument("--orbit", default="a")
    p.add_argument("--exp", type=int, default=0)
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--orbit2", default="a")
    p.add_argument("--exp2", type=int, default=0)
    p.add_argument("--length2", type=int, required=True)

    p = add("verify", _cmd_verify, "run the self-check suites", typed=False)
    p.add_argument("--suite", choices=SUITES + ("all",), default="all")
    p.add_argument("--seed", type=int, default=0)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ParseError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except DomainError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except Exception as err:
        # A failed internal identity must not pass for exit 1 ("verify failed").
        print(f"internal error: {err!r}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
