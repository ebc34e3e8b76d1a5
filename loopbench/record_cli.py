#!/usr/bin/env python3
"""Build ``cli_pool.json``: the cli-cold request pool and its expected output.

    PYTHONPATH=src python3 loopbench/record_cli.py

The pool is drawn from a fixed seed (0) and holds three kinds of
request: ``light`` (all 12 verbs on A1-A8, B2-B8, C2-C8, D4-D8, E6, F4,
G2, exponents |k| <= 12, text and JSON), ``heavy`` (``block``/``linked``
on one E7 or E8 non-seed node, the cold generator-class path) and ``error``
(malformed or out-of-domain requests that exit 2 or 3).  For each it
records the exit code and the SHA-256 of stdout, computed through
``loopchar.cli.main`` in this process, and ``cost_ms``, the time that
call took with every cache emptied first.  The benchmark compares every
cold run against the exit codes and digests, so regenerate the file only
when stdout is meant to change; ``cost_ms`` only orders each verb's
requests into the size strata of a round.
"""

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import time

from loopchar import LWeight, cartan_data, fundamental_weight, is_minuscule, simple_lroot, zero_weight
from loopchar.cli import main as cli_main
from tracer import clear_caches

HERE = os.path.dirname(os.path.abspath(__file__))
POOL_SEED = 0
N_LIGHT, N_HEAVY, N_ERROR = 1200, 60, 60
LIGHT_TYPES = (
    [f"A{n}" for n in range(1, 9)] + [f"B{n}" for n in range(2, 9)]
    + [f"C{n}" for n in range(2, 9)] + [f"D{n}" for n in range(4, 9)] + ["E6", "F4", "G2"]
)
VERBS = (
    "alpha", "act", "twist-w0", "decompose", "cone", "block", "linked",
    "trivial-sets", "qchar-fund", "qchar-sl2", "qchar-tensor", "verify",
)
LIGHT_SUITES = (
    "alpha-lists", "braid-relations", "w0-twist", "ellfund", "trivial-sets", "dn-adjoint", "sl2",
)


def weight(rng, cd, dominant, nodes=None, parts=(1, 3)):
    powers = {}
    for _ in range(rng.randint(*parts)):
        key = (rng.choice(nodes or list(cd.nodes)), "a", rng.randint(-12, 12))
        p = rng.randint(1, 2) if dominant else rng.choice((-2, -1, 1, 2))
        powers[key] = powers.get(key, 0) + p
    return LWeight.from_dict(powers)


def lroots(rng, cd, sign):
    acc = LWeight.identity()
    for _ in range(rng.randint(1, 3)):
        c = rng.randint(1, 2) * (sign or rng.choice((-1, 1)))
        acc = acc * simple_lroot(cd, rng.randint(1, cd.rank), "a", rng.randint(-12, 12)) ** c
    return acc


def linked_pair(rng, cd):
    w1 = weight(rng, cd, True)
    w2 = w1 * lroots(rng, cd, 0) if rng.random() < 0.5 else weight(rng, cd, True)
    lift = LWeight.from_dict({k: -p for k, p in w2.factors if p < 0})
    return str(w1 * lift), str(w2 * lift)


def light(rng):
    verb = rng.choice(VERBS)
    name = rng.choice(LIGHT_TYPES)
    cd = cartan_data(name)
    t = ["--type", name]
    exp = str(rng.randint(-12, 12))
    if verb == "alpha":
        args = ["alpha", *t, "--node", str(rng.randint(1, cd.rank)), "--orbit", rng.choice("ab"), "--exp", exp]
    elif verb == "act":
        word = ",".join(str(rng.randint(1, cd.rank)) for _ in range(rng.randint(1, 8)))
        args = ["act", *t, "--word", word, str(weight(rng, cd, False))]
    elif verb == "twist-w0":
        args = ["twist-w0", *t, str(weight(rng, cd, True))]
    elif verb == "decompose":
        sign = rng.choice(("any", "+", "-"))
        if rng.random() < 0.5:
            pi = lroots(rng, cd, {"any": 0, "+": 1, "-": -1}[sign])
        else:
            pi = weight(rng, cd, False)
        args = ["decompose", *t, "--sign", sign, str(pi)]
    elif verb == "cone":
        omega = weight(rng, cd, True)
        pi = omega * lroots(rng, cd, -1) if rng.random() < 0.5 else weight(rng, cd, False)
        args = ["cone", *t, str(omega), str(pi)]
    elif verb == "block":
        args = ["block", *t, str(weight(rng, cd, False))]
    elif verb == "linked":
        args = ["linked", *t, *linked_pair(rng, cd)]
    elif verb == "trivial-sets":
        args = ["trivial-sets", *t, "--orbit", rng.choice("ab"), "--exp", exp]
    elif verb == "qchar-fund":
        # F4 and G2 have no minuscule node and no closed form here.
        name = rng.choice([n for n in LIGHT_TYPES if n not in ("F4", "G2")])
        cd, t = cartan_data(name), ["--type", name]
        nodes = [i for i in cd.nodes if is_minuscule(cd, i)]
        if cd.type.series == "D":
            nodes.append(2)
        args = ["qchar-fund", *t, "--node", str(rng.choice(nodes)), "--exp", exp]
        if cd.type.series == "B" and rng.random() < 0.3:
            table = {
                ",".join(map(str, fundamental_weight(cd, 1))): 1,
                ",".join(map(str, zero_weight(cd))): 1,
            }
            args = ["qchar-fund", *t, "--node", "1", "--exp", exp, "--table", json.dumps(table)]
    elif verb == "qchar-sl2":
        args = ["qchar-sl2", "--length", str(rng.randint(0, 12)), "--exp", exp]
        if rng.random() < 0.3:
            args += ["--type", "A1"]
    elif verb == "qchar-tensor":
        args = [
            "qchar-tensor", "--length", str(rng.randint(1, 6)), "--exp", exp,
            "--length2", str(rng.randint(1, 6)), "--exp2", str(rng.randint(-12, 12)),
            "--orbit2", rng.choice("aab"),
        ]
    else:
        args = ["verify", "--suite", rng.choice(LIGHT_SUITES), "--seed", str(rng.randint(0, 9))]
    if rng.random() < 0.5:
        args += ["--format", "json"]
    return args


def heavy(rng, name):
    """One non-seed node, so each request pays exactly one cold generator-class solve."""
    cd = cartan_data(name)
    node = [rng.choice([i for i in cd.nodes if i not in cd.seed_nodes])]
    if rng.random() < 0.5:
        args = ["block", "--type", name, str(weight(rng, cd, False, node, (1, 2)))]
    else:
        # Not built from loop roots: their neighbour nodes would add solves.
        args = ["linked", "--type", name, str(weight(rng, cd, True, node)), str(weight(rng, cd, True, node))]
    return args + (["--format", "json"] if rng.random() < 0.5 else [])


def error(rng):
    name = rng.choice(LIGHT_TYPES)
    cd = cartan_data(name)
    t = ["--type", name]
    return rng.choice((
        ["act", *t, "--word", "1", "w[1;a,0]**w[1;a,2]"],
        ["block", *t, "w[1,a,0]"],
        ["block", "--type", rng.choice(("Q3", "E", "A-1")), "w[1;a,0]"],
        ["alpha", *t, "--node", str(cd.rank + rng.randint(1, 3))],
        ["linked", *t, "w[1;a,0]^-1", "w[1;a,2]"],
        ["twist-w0", *t, "w[1;a,0]^-1*w[1;a,4]"],
        ["cone", *t, "w[1;a,0]^-1", "w[1;a,0]"],
        ["qchar-fund", "--type", rng.choice(("B3", "C4", "F4", "G2")), "--node", "2"],
        ["qchar-fund", "--type", "B2", "--node", "1", "--table", "{bad"],
        ["qchar-sl2", "--type", rng.choice(("A2", "B2")), "--length", "2"],
        ["qchar-sl2", "--length", str(-rng.randint(1, 5))],
        ["verify", "--suite", "nope"],
        ["decompose", *t, "--sign", "?", "w[1;a,0]"],
        ["act", *t, "--word", "1,x", "w[1;a,0]"],
    ))


def record(args):
    out, err = io.StringIO(), io.StringIO()
    clear_caches()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli_main(list(args))
        except SystemExit as exc:
            rc = exc.code
    cost_ms = (time.perf_counter() - t0) * 1e3
    return rc, hashlib.sha256(out.getvalue().encode()).hexdigest(), round(cost_ms, 3)


def main() -> int:
    rng = random.Random(POOL_SEED)
    entries = []
    kinds = (
        ("light", light, N_LIGHT),
        ("heavy", lambda rng: heavy(rng, "E7"), N_HEAVY // 2),
        ("heavy", lambda rng: heavy(rng, "E8"), N_HEAVY // 2),
        ("error", error, N_ERROR),
    )
    for kind, make, n in kinds:
        for _ in range(n):
            args = make(rng)
            rc, digest, cost_ms = record(args)
            ok = rc in (2, 3) if kind == "error" else rc == 0
            if not ok:
                print(f"unexpected exit {rc} for {kind} request {args}", file=sys.stderr)
                return 1
            entries.append({"kind": kind, "args": args, "exit": rc, "sha256": digest, "cost_ms": cost_ms})
    with open(os.path.join(HERE, "cli_pool.json"), "w") as fh:
        fh.write('{"pool_seed": %d, "requests": [\n' % POOL_SEED)
        fh.write(",\n".join(json.dumps(e) for e in entries))
        fh.write("\n]}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
