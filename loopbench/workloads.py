"""The four loopchar workloads: inputs from a seed, one timed op, one check.

Every workload is a closed loop with one client: the next request goes
out only after the previous one returned.  ``run`` is the timed span;
``check`` runs outside it and a failed check counts as a failed op.

- ``cli-cold``: seeded ``python -m loopchar <verb>`` processes, one at a
  time, drawn from a recorded pool (``cli_pool.json``) whose stdout
  digests and exit codes were recorded at the seed commit.
- ``block-stream``: warm in-process block queries whose exponent spread
  is drawn log-uniformly from 1 to 2048.
- ``qchar-build``: warm in-process q-character constructions and braid
  orbit walks.
- ``verify-all``: one cold ``python -m loopchar verify --suite all``.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
import os
import random
import resource
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from typing import Callable, Dict, Iterator, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
POOL_PATH = os.path.join(HERE, "cli_pool.json")
CHILD_TIMEOUT_S = 120

CLASS_TYPES = (
    "A1", "A2", "A3", "A4", "A5", "B2", "B3", "B4", "B5", "C2", "C3", "C4", "C5",
    "D4", "D5", "D6", "E6", "E7", "E8", "F4", "G2",
)
MAX_SPREAD = 2048
MINUSCULE_TYPES = tuple(
    [f"{s}{n}" for s in "ABCD" for n in range(4, 9)] + ["E6", "E7"]
)
ORBIT_WALKS = (("E6", 2), ("E7", 6), ("E7", 7), ("E8", 1))
DESCENTS = tuple([("D", n) for n in range(4, 9)] + [("B", n) for n in range(2, 9)])
SL2_PER_ROUND = 16
STRING_PAIRS = 8  # length strata of width 5 cover 1..40
VERIFY_ROWS = 760
LIGHT_STRATA = 12  # per verb and cli-cold round: 12 verbs x 12 = 144 = 8 blocks x 18


def log_uniform(rng: random.Random, hi: int, stratum: int = 0, strata: int = 1) -> int:
    """A draw from the log-uniform law on [1, hi], inside one of ``strata``
    equal-probability slices.  A round that takes one draw per slice has
    the same spread of sizes as every other round."""
    u = (stratum + rng.random()) / strata
    return max(1, int(round(math.exp(u * math.log(hi)))))


class Workload:
    """Interface shared by the four workloads."""

    name = ""
    tail_pct = 90          # the reported tail percentile
    floor = 100            # samples needed for ten beyond the tail
    min_rounds = 1
    setup_reps = 15
    work_unit = "ops"

    def reset(self, rep: int) -> None:
        """Undo the previous setup so the next one starts cold."""

    def setup(self) -> None:
        for step in self.setup_steps():
            step()

    def setup_steps(self) -> List[Callable[[], None]]:
        """The set-up cut into steps, each short next to the host's slow
        stretches, so that reference timings between steps follow them."""
        raise NotImplementedError

    def rounds(self, seed: int) -> Iterator[list]:
        """Endless rounds of requests, each round of the same composition."""
        raise NotImplementedError

    def run(self, req) -> Tuple[object, int]:
        """The timed op: returns (output, work units)."""
        raise NotImplementedError

    def check(self, req, out) -> bool:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- cold processes ---------------------------------------------------------

class ColdProcess(Workload):
    """Runs the CLI as fresh processes from a private copy of the source.

    Each setup copies ``src/loopchar`` to a new directory and runs one
    untimed invocation there, so bytecode compilation lands in
    ``setup_s`` and never in a sample.
    """

    warmup_args = ("alpha", "--type", "A2", "--node", "1")

    def __init__(self, root: str, out: str):
        self.root = root
        self.out = out
        self.prefix = ""
        self.tracer = None
        self._dumps = 0

    def reset(self, rep: int) -> None:
        self.prefix = os.path.join(self.out, f"src-{self.name}-{rep}")
        shutil.rmtree(self.prefix, ignore_errors=True)
        shutil.copytree(
            os.path.join(self.root, "src", "loopchar"),
            os.path.join(self.prefix, "loopchar"),
            ignore=shutil.ignore_patterns("__pycache__"),
        )

    def setup_steps(self) -> List[Callable[[], None]]:
        """One step: the first invocation, which compiles the bytecode."""
        return [functools.partial(self.invoke, list(self.warmup_args), traced=False)]

    def invoke(self, args: List[str], traced: Optional[bool] = None) -> Tuple[int, bytes]:
        traced = self.tracer is not None if traced is None else traced
        env = dict(os.environ, PYTHONPATH=self.prefix)
        if traced:
            self._dumps += 1
            dump = os.path.join(self.out, f"child-{os.getpid()}-{self._dumps}.json")
            cmd = [sys.executable, os.path.join(HERE, "cli_child.py"), dump, *args]
            env["LOOPBENCH_T0"] = str(time.monotonic_ns())
        else:
            cmd = [sys.executable, "-m", "loopchar", *args]
        proc = subprocess.run(
            cmd, cwd=self.prefix, env=env, capture_output=True, timeout=CHILD_TIMEOUT_S
        )
        if traced:
            with open(dump) as fh:
                self.tracer.merge(json.load(fh))
            os.remove(dump)
        return proc.returncode, proc.stdout

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def load_pool(path: str = POOL_PATH) -> Dict[str, List[dict]]:
    with open(path) as fh:
        entries = json.load(fh)["requests"]
    pool: Dict[str, List[dict]] = {"light": [], "heavy": [], "error": []}
    for e in entries:
        pool[e["kind"]].append(e)
    return pool


class CliCold(ColdProcess):
    """Cold CLI invocations: per 20 requests, 1 heavy, 1 error, 18 light.

    A round is 8 blocks of 20 (160 requests, about 30 s).  Heavy requests
    alternate between E7 and E8 from one block to the next, and the
    round's 144 light requests hold each verb 12 times, one from each
    twelfth of its requests ordered by recorded cost, so every round
    carries the same cost mix; the seed picks the requests.
    """

    name = "cli-cold"
    work_unit = "invocations"

    def __init__(self, root: str, out: str, pool: Optional[Dict[str, List[dict]]] = None):
        super().__init__(root, out)
        self.pool = pool or load_pool()

    def rounds(self, seed: int) -> Iterator[List[dict]]:
        rng = random.Random(seed)
        heavy = [[e for e in self.pool["heavy"] if e["args"][2] == t] for t in ("E7", "E8")]
        light: Dict[str, List[dict]] = {}
        for e in self.pool["light"]:
            light.setdefault(e["args"][0], []).append(e)
        # Each verb's requests, ordered by their recorded cold cost, fall
        # into LIGHT_STRATA equal strata; a round takes one from each.
        strata = []
        for verb in sorted(light):
            entries = sorted(light[verb], key=lambda e: e["cost_ms"])
            strata += [entries[len(entries) * j // LIGHT_STRATA:len(entries) * (j + 1) // LIGHT_STRATA] or entries
                       for j in range(LIGHT_STRATA)]
        blocks = -(-len(strata) // 18)
        while True:
            picks = [rng.choice(stratum) for stratum in strata]
            rng.shuffle(picks)
            round_: List[dict] = []
            for b in range(blocks):
                block = [rng.choice(heavy[b % 2] or self.pool["heavy"]), rng.choice(self.pool["error"])]
                block += picks[18 * b:18 * b + 18]
                rng.shuffle(block)
                round_ += block
            yield round_

    def run(self, req: dict) -> Tuple[object, int]:
        return self.invoke(req["args"]), 1

    def check(self, req: dict, out) -> bool:
        rc, stdout = out
        return rc == req["exit"] and hashlib.sha256(stdout).hexdigest() == req["sha256"]


class VerifyAll(ColdProcess):
    """One cold ``verify --suite all`` per sample, with a seeded suite seed."""

    name = "verify-all"
    floor = 1
    min_rounds = 3
    work_unit = "rows"

    def rounds(self, seed: int) -> Iterator[List[List[str]]]:
        rng = random.Random(seed)
        while True:
            yield [["verify", "--suite", "all", "--seed", str(rng.randrange(10**6))]]

    def run(self, req: List[str]) -> Tuple[object, int]:
        rc, stdout = self.invoke(req)
        return (rc, stdout), _verify_rows(stdout)

    def check(self, req, out) -> bool:
        rc, stdout = out
        lines = stdout.decode().splitlines()
        return (
            rc == 0
            and _verify_rows(stdout) == VERIFY_ROWS
            and bool(lines)
            and lines[-1] == "all checks pass"
        )


def _verify_rows(stdout: bytes) -> int:
    rows = 0
    for line in stdout.decode().splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[1] == "PASS" and parts[3] == "checks":
            rows += int(parts[2])
    return rows


# -- warm in-process workloads ----------------------------------------------

class InProcess(Workload):
    def reset(self, rep: int) -> None:
        from tracer import clear_caches

        clear_caches()


class BlockStream(InProcess):
    """Warm block queries over all 21 class types.

    Mix: 40% elliptic_class, 30% blocks_linked, 20% lroot_decompose,
    10% cone_check.  Half the linked, decompose and cone inputs are
    built from loop roots, so both answers occur.
    """

    name = "block-stream"
    tail_pct = 99
    floor = 1000
    setup_reps = 3    # each set-up is a 6-s solve
    work_unit = "queries"
    MIX = (("class", 4), ("linked", 3), ("decompose", 2), ("cone", 1))

    def __init__(self, types: Tuple[str, ...] = CLASS_TYPES):
        import loopchar as lc

        self.lc = lc
        self.types = types

    def setup_steps(self) -> List[Callable[[], None]]:
        """One step per node: the cold class of its fundamental weight
        (at most 0.8 s, on E8)."""
        return [functools.partial(self._node_class, name, i)
                for name in self.types for i in range(1, int(name[1:]) + 1)]

    def _node_class(self, name: str, i: int) -> None:
        cd = self.lc.cartan_data(name)
        self.lc.elliptic_class(cd, self.lc.fundamental_lweight(cd, i))

    # Inputs.  Exponents lie in [base, base + spread), so both the spread
    # and the largest |exponent| follow the drawn spread.

    def _weight(self, rng, cd, size: int, dominant: bool):
        base = rng.randint(-4, 4)
        exps = [base, base + size - 1] + [
            rng.randint(base, base + size - 1) for _ in range(rng.randint(0, 2))
        ]
        powers: Dict[tuple, int] = {}
        for k in exps:
            key = (rng.randint(1, cd.rank), "a", k)
            p = rng.randint(1, 3) if dominant else rng.choice((-3, -2, -1, 1, 2, 3))
            powers[key] = powers.get(key, 0) + p
        return self.lc.LWeight.from_dict(powers)

    def _lroots(self, rng, cd, size: int, sign: int):
        base = rng.randint(-4, 4)
        acc = self.lc.LWeight.identity()
        for _ in range(rng.randint(1, 3)):
            c = rng.randint(1, 2) * (sign or rng.choice((-1, 1)))
            k = rng.randint(base, base + size - 1)
            acc = acc * self.lc.simple_lroot(cd, rng.randint(1, cd.rank), "a", k) ** c
        return acc

    def rounds(self, seed: int) -> Iterator[List[tuple]]:
        """Rounds of 10 queries per type: 4 class, 3 linked, 2 decompose,
        1 cone.  Each kind's spreads take one draw per log-uniform stratum;
        stratum j goes to type ``perm[(j + r) % len(types)]`` in round r, so
        every stratum meets every type once per ``len(types)`` rounds.  Half
        of each kind's queries are built from loop roots."""
        rng = random.Random(seed)
        perm = list(self.types)
        rng.shuffle(perm)
        for r in itertools.count():
            round_: List[tuple] = []
            for kind, per_type in self.MIX:
                n = per_type * len(perm)
                for j in range(n):
                    t = perm[(j + r) % len(perm)]
                    round_.append((kind, t, log_uniform(rng, MAX_SPREAD, j, n), j % 2 == 0))
            rng.shuffle(round_)
            yield [self._query(rng, kind, self.lc.cartan_data(t), size, built)
                   for kind, t, size, built in round_]

    def _query(self, rng, kind: str, cd, size: int, built: bool) -> tuple:
        if kind == "class":
            return ("class", cd, self._weight(rng, cd, size, False), None, None)
        if kind == "linked":
            w1 = self._weight(rng, cd, size, True)
            w2 = w1 * self._lroots(rng, cd, size, 0) if built else self._weight(rng, cd, size, True)
            lift = self.lc.LWeight.from_dict({k: -p for k, p in w2.factors if p < 0})
            return ("linked", cd, w1 * lift, w2 * lift, built)
        if kind == "decompose":
            sign = rng.choice(("any", "+", "-"))
            if built:
                pi = self._lroots(rng, cd, size, {"any": 0, "+": 1, "-": -1}[sign])
            else:
                pi, sign = self._weight(rng, cd, size, False), "any"
            return ("decompose", cd, pi, sign, built)
        omega = self._weight(rng, cd, size, True)
        pi = omega * self._lroots(rng, cd, size, -1) if built else self._weight(rng, cd, size, False)
        return ("cone", cd, omega, pi, built)

    def run(self, req: tuple) -> Tuple[object, int]:
        kind, cd, a, b, _ = req
        lc = self.lc
        if kind == "class":
            return lc.elliptic_class(cd, a), 1
        if kind == "linked":
            return lc.blocks_linked(cd, a, b), 1
        if kind == "decompose":
            return lc.lroot_decompose(cd, a, b), 1
        return lc.cone_check(cd, a, b), 1

    def check(self, req: tuple, out) -> bool:
        kind, cd, a, b, built = req
        lc = self.lc
        if kind == "class":
            # Classes are additive and every loop root has class zero.
            rng = random.Random(str(a))
            shifted = lc.elliptic_class(cd, a * self._lroots(rng, cd, 8, 0))
            return shifted == out and lc.parse_elliptic(cd.type, str(out)) == out
        if kind == "linked":
            member = lc.lroot_decompose(cd, a * b.inverse()) is not None
            return out == member and (out or not built)
        if kind == "decompose":
            if out is None:
                return not built and not lc.elliptic_class(cd, a).is_zero
            signs_ok = {"any": True, "+": all(c >= 0 for c in out.values()),
                        "-": all(c <= 0 for c in out.values())}[b]
            return signs_ok and lc.expand_lroots(cd, out) == a
        ratio = b * a.inverse()
        cert = lc.lroot_decompose(cd, ratio)
        below = cert is not None and all(c <= 0 for c in cert.values())
        if below and lc.expand_lroots(cd, cert) != ratio:
            return False
        return out == below and (out or not built)


class QcharBuild(InProcess):
    """Warm q-character constructions; work is counted in output terms."""

    name = "qchar-build"
    work_unit = "terms"

    def __init__(self, small: bool = False):
        import loopchar as lc

        self.lc = lc
        self.orbits = ORBIT_WALKS[:1] if small else ORBIT_WALKS
        self._dims: Dict[tuple, int] = {}

    def setup_steps(self) -> List[Callable[[], None]]:
        """One step per type or table, each at most 30 ms."""
        self.minuscule: List[Tuple[str, int]] = []
        self.d_tables: Dict[int, dict] = {}
        self.b_tables: Dict[int, dict] = {}
        return ([functools.partial(self._minuscule_nodes, name) for name in MINUSCULE_TYPES]
                + [functools.partial(self._d_table, n) for n in range(4, 9)]
                + [functools.partial(self._b_table, n) for n in range(2, 9)]
                + [functools.partial(self._longest, name) for name, _ in ORBIT_WALKS])

    def _minuscule_nodes(self, name: str) -> None:
        cd = self.lc.cartan_data(name)
        self.minuscule += [(name, i) for i in cd.nodes if self.lc.is_minuscule(cd, i)]

    def _d_table(self, n: int) -> None:
        lc = self.lc
        self.d_tables[n] = lc.weight_projection(lc.cartan_data(f"D{n}"), lc.dn_node2_char(n, ("a", 0)))

    def _b_table(self, n: int) -> None:
        cd = self.lc.cartan_data(f"B{n}")
        self.b_tables[n] = {self.lc.fundamental_weight(cd, 1): 1, self.lc.zero_weight(cd): 1}

    def _longest(self, name: str) -> None:
        self.lc.longest_element(self.lc.cartan_data(name))

    def rounds(self, seed: int) -> Iterator[List[tuple]]:
        """Rounds holding every catalog entry once, in shuffled order; only
        spectral parameters and sizes come from the seed."""
        rng = random.Random(seed)

        def param():
            return (rng.choice(("a", "b")), rng.randint(-12, 12))

        for r in itertools.count():
            ops = [("minuscule", tn, param()) for tn in self.minuscule]
            ops += [("dn_node2", n, param()) for n in range(4, 9)]
            ops += [("descent", sn, param()) for sn in DESCENTS]
            ops += [("sl2", log_uniform(rng, 256, j, SL2_PER_ROUND), param()) for j in range(SL2_PER_ROUND)]
            for j in range(STRING_PAIRS):
                # Both lengths in strata of width 5; the pairing of strata
                # rotates so that every pair occurs once per 8 rounds.
                k = (j + r) % STRING_PAIRS
                m1 = rng.randint(5 * j + 1, 5 * j + 5)
                m2 = rng.randint(5 * k + 1, 5 * k + 5)
                e1 = rng.randint(-12, 12)
                e2 = e1 + rng.randint(-(m1 + m2 + 2), m1 + m2 + 2)
                ops.append(("tensor", "strings", ((("a", e1), m1), (("a", e2), m2))))
            ops += [("tensor", "E6", ((rng.choice((1, 5)), param()), (rng.choice((1, 5)), param())))
                    for _ in range(STRING_PAIRS)]
            ops += [("orbit", ow, param()) for ow in self.orbits]
            rng.shuffle(ops)
            yield ops

    def run(self, req: tuple) -> Tuple[object, int]:
        lc = self.lc
        kind, what, p = req
        if kind == "minuscule":
            out = lc.minuscule_char(lc.cartan_data(what[0]), what[1], p)
        elif kind == "dn_node2":
            out = lc.dn_node2_char(what, p)
        elif kind == "descent":
            series, n = what
            cd = lc.cartan_data(f"{series}{n}")
            if series == "D":
                out = lc.fundamental_char(cd, 2, p, self.d_tables[n])
            else:
                out = lc.fundamental_char(cd, 1, p, self.b_tables[n])
        elif kind == "sl2":
            out = lc.sl2_eval_char(p, what)
        elif kind == "tensor" and what == "strings":
            (a1, m1), (a2, m2) = p
            product = lc.tensor_char(lc.sl2_eval_char(a1, m1), lc.sl2_eval_char(a2, m2))
            irr = lc.sl2_tensor_irreducible([lc.Sl2String(a1, m1), lc.Sl2String(a2, m2)])
            return (product, irr), len(product.terms)
        elif kind == "tensor":
            cd = lc.cartan_data("E6")
            (i, p1), (j, p2) = p
            out = lc.tensor_char(lc.minuscule_char(cd, i, p1), lc.minuscule_char(cd, j, p2))
        else:
            name, node = what
            cd = lc.cartan_data(name)
            top = lc.fundamental_lweight(cd, node, *p)
            reps = lc.min_coset_reps(cd, lc.fundamental_weight(cd, node))
            images = [lc.braid_act_word(cd, w.word, top) for w in reps]
            return (reps, images), len(images)
        return out, len(out.terms)

    def check(self, req: tuple, out) -> bool:
        lc = self.lc
        kind, what, p = req
        if kind == "minuscule":
            cd = lc.cartan_data(what[0])
            proj = lc.weight_projection(cd, out)
            dim = self._weyl_dim(cd, what[1])
            return out.dimension == dim == len(proj) and set(proj.values()) == {1}
        if kind == "dn_node2":
            n = what
            proj = lc.weight_projection(lc.cartan_data(f"D{n}"), out)
            return out.dimension == n * (2 * n - 1) + 1 and proj == self.d_tables[n]
        if kind == "descent":
            series, n = what
            if series == "D":
                return out == lc.dn_node2_char(n, p) and out.dimension == n * (2 * n - 1) + 1
            return out == _bn_vector_char(lc, n, p) and out.dimension == 2 * n + 1
        if kind == "sl2":
            m = what
            proj = lc.weight_projection(lc.cartan_data("A1"), out)
            return out.dimension == m + 1 and proj == {(m - 2 * r,): 1 for r in range(m + 1)}
        if kind == "tensor" and what == "strings":
            product, irr = out
            (a1, m1), (a2, m2) = p
            return product.dimension == (m1 + 1) * (m2 + 1) and irr == _strings_irreducible(a1, m1, a2, m2)
        if kind == "tensor":
            cd = lc.cartan_data("E6")
            (i, p1), (j, p2) = p
            f1 = lc.weight_projection(cd, lc.minuscule_char(cd, i, p1))
            f2 = lc.weight_projection(cd, lc.minuscule_char(cd, j, p2))
            want: Dict[tuple, int] = {}
            for l1, c1 in f1.items():
                for l2, c2 in f2.items():
                    key = tuple(x + y for x, y in zip(l1, l2))
                    want[key] = want.get(key, 0) + c1 * c2
            return out.dimension == 27 * 27 and lc.weight_projection(cd, out) == want
        reps, images = out
        cd = lc.cartan_data(what[0])
        lam = lc.fundamental_weight(cd, what[1])
        return len(set(images)) == len(reps) and all(
            lc.weight_of(cd, img) == w.apply(lam) for w, img in zip(reps, images)
        )

    def _weyl_dim(self, cd, node: int) -> int:
        """Weyl's dimension formula, prod over positive roots of <lam+rho, b>/<rho, b>."""
        key = (str(cd.type), node)
        if key not in self._dims:
            lc = self.lc
            lam = lc.fundamental_weight(cd, node)
            shifted = tuple(c + 1 for c in lam)
            rho = (1,) * cd.rank
            dim = Fraction(1)
            for beta in lc.positive_roots(cd):
                dim *= Fraction(lc.coroot_pairing(cd, shifted, beta), lc.coroot_pairing(cd, rho, beta))
            self._dims[key] = int(dim)
        return self._dims[key]


def _bn_vector_char(lc, n: int, p: Tuple[str, int]):
    """Closed form of the B_n vector representation: 2n+1 tableau boxes."""
    orbit, e = p

    def box(*factors):
        return lc.LWeight.from_dict({(i, orbit, e + k): s for i, k, s in factors if i >= 1})

    boxes = [box((i - 1, 2 * i, -1), (i, 2 * i - 2, 1)) for i in range(1, n)]
    boxes.append(box((n - 1, 2 * n, -1), (n, 2 * n - 3, 1), (n, 2 * n - 1, 1)))
    boxes.append(box((n, 2 * n - 3, 1), (n, 2 * n + 1, -1)))
    boxes.append(box((n - 1, 2 * n - 2, 1), (n, 2 * n - 1, -1), (n, 2 * n + 1, -1)))
    boxes += [box((i - 1, 4 * n - 2 * i - 2, 1), (i, 4 * n - 2 * i, -1)) for i in range(n - 1, 0, -1)]
    return lc.LCharacter.from_dict({b: 1 for b in boxes})


def _strings_irreducible(a1, m1: int, a2, m2: int) -> bool:
    """Segment rule: reducible iff the two q-segments are in special position,
    i.e. their union is a longer segment and neither contains the other."""
    (o1, e1), (o2, e2) = a1, a2
    if o1 != o2 or not m1 or not m2:
        return True
    lo1, hi1, lo2, hi2 = e1 - m1 + 1, e1 + m1 - 1, e2 - m2 + 1, e2 + m2 - 1
    if (lo1 - lo2) % 2:
        return True
    joined = lo2 <= hi1 + 2 and lo1 <= hi2 + 2
    nested = (lo1 <= lo2 and hi2 <= hi1) or (lo2 <= lo1 and hi1 <= hi2)
    return not joined or nested


def make(name: str, root: str, out: str, smoke: bool) -> Workload:
    if name == "cli-cold":
        wl: Workload = CliCold(root, out)
    elif name == "verify-all":
        wl = VerifyAll(root, out)
    elif name == "block-stream":
        wl = BlockStream(tuple(t for t in CLASS_TYPES if t not in ("E7", "E8")) if smoke else CLASS_TYPES)
    elif name == "qchar-build":
        wl = QcharBuild(small=smoke)
    else:
        raise ValueError(f"unknown workload {name!r}")
    if smoke:
        wl.setup_reps = 1
        wl.floor = wl.min_rounds = 1
    return wl


# verify-all is not in BENCHMARK.json: its samples are single 6-8 s
# processes, too long for the reference timing to follow the host's
# slowdowns, so its spread stays above any allowed bound.  Run it by hand
# (``--trace 1``) for the xi-oracle breakdown.
WORKLOADS = ("cli-cold", "block-stream", "qchar-build", "verify-all")
