"""Outside-in layer trace for loopchar.

``Tracer.install`` replaces every public function that a ``loopchar``
module binds, on every module that binds it, with a timing wrapper, and
patches a fixed list of class methods on their classes.  Nothing under
``src/`` is edited: the wrappers live only in the traced process.

Each wrapped call becomes a span with an id, its parent's id and the
request it served.  Self time is the span's duration minus the time its
child spans cover.  Aggregates are kept for every call; raw spans are
kept up to ``SPAN_CAP`` and written out by ``dump``.
"""

from __future__ import annotations

import importlib
import inspect
import math
import pkgutil
import statistics
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

LAYERS = ("cartan", "weyl", "lweight", "braid", "blocks", "intlattice", "qchar", "verify", "cli")
SUITES = (
    "alpha-lists", "braid-relations", "w0-twist", "ellfund",
    "xi-oracle", "trivial-sets", "dn-adjoint", "sl2",
)
SPAN_CAP = 50_000
SAMPLE_CAP = 20_000
# Calls below this spread sit in the constant-overhead regime, so the
# log-log slope that tests "cost grows linearly" uses only larger ones.
SLOPE_MIN_SPREAD = 64

# Class methods patched on their classes: (module, class, method).
METHODS = (
    ("intlattice", "SparseIntSolver", "add_column"),
    ("intlattice", "SparseIntSolver", "solve"),
    ("intlattice", "IntRowLattice", "add"),
    ("intlattice", "IntRowLattice", "residue"),
    ("intlattice", "IntRowLattice", "__contains__"),
    ("blocks", "EllipticCharacter", "make"),
    ("blocks", "EllipticCharacter", "__add__"),
    ("lweight", "LWeight", "__mul__"),
    ("lweight", "LWeight", "inverse"),
    ("lweight", "LCharacter", "__mul__"),
    ("lweight", "LCharacter", "__add__"),
)


def loopchar_modules() -> List[object]:
    import loopchar

    mods = [loopchar]
    for info in pkgutil.iter_modules(loopchar.__path__):
        if info.name != "__main__":
            mods.append(importlib.import_module(f"loopchar.{info.name}"))
    return mods


def clear_caches() -> None:
    """Empty every functools cache in the package, public or private."""
    for mod in loopchar_modules():
        for value in list(vars(mod).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def cache_counts(module: str, name: str) -> Tuple[int, int]:
    """Hits and misses so far of a cached function, or (0, 0) if it does not exist."""
    fn = getattr(importlib.import_module(f"loopchar.{module}"), name, None)
    info = getattr(fn, "cache_info", None)
    if info is None:
        return 0, 0
    ci = info()
    return ci.hits, ci.misses


def spread(pi) -> int:
    """Exponent spread of a loop weight: max minus min exponent, plus one."""
    exps = [k for (_, _, k), _ in pi.factors]
    return max(exps) - min(exps) + 1 if exps else 1


class Tracer:
    def __init__(self):
        self.stack: List[list] = []
        self.calls: Dict[str, int] = {}
        self.incl: Dict[str, float] = {}
        self.self_s: Dict[str, float] = {}
        self.layer_self: Dict[Tuple[str, str], float] = {}
        self.tag_self: Dict[Tuple[str, str], float] = {}
        self.counts: Dict[str, float] = {}
        self.samples: Dict[str, List[Tuple[int, float]]] = {}
        self.timings: Dict[str, List[float]] = {}
        self.spans: List[tuple] = []
        self.phase = "setup"
        self.active = False
        self.tag: Optional[str] = None
        self.request = -1
        self._next_id = 0
        self._hooks = _hooks(self)

    # -- recording ------------------------------------------------------

    def count(self, key: str, value: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def sample(self, key: str, size: int, seconds: float) -> None:
        bucket = self.samples.setdefault(key, [])
        if len(bucket) < SAMPLE_CAP:
            bucket.append((size, seconds))

    def timing(self, key: str, ms: float) -> None:
        self.timings.setdefault(key, []).append(ms)

    def wrap(self, name: str, fn: Callable) -> Callable:
        layer = name.split(".", 1)[0]
        hook = self._hooks.get(name)
        stack = self.stack

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            token = hook[0](args) if hook else None
            self._next_id += 1
            frame = [self._next_id, 0.0]
            parent = stack[-1][0] if stack else 0
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                own = dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                self.calls[name] = self.calls.get(name, 0) + 1
                self.incl[name] = self.incl.get(name, 0.0) + dur
                self.self_s[name] = self.self_s.get(name, 0.0) + own
                key = (self.phase, layer)
                self.layer_self[key] = self.layer_self.get(key, 0.0) + own
                if self.tag is not None:
                    tkey = (self.tag, name)
                    self.tag_self[tkey] = self.tag_self.get(tkey, 0.0) + own
                if len(self.spans) < SPAN_CAP:
                    self.spans.append((frame[0], parent, self.request, name, t0, t1))
            if hook:
                hook[1](token, args, result, dur)
            return result

        traced.__wrapped__ = fn
        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(traced, attr, getattr(fn, attr))
        return traced

    def install(self) -> None:
        """Wrap every public loopchar function on every module binding it."""
        mods = loopchar_modules()
        wrapped: Dict[int, Callable] = {}
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                fn = getattr(value, "__wrapped__", value)
                if not inspect.isfunction(fn) or not fn.__module__.startswith("loopchar."):
                    continue
                if id(value) not in wrapped:
                    name = f"{fn.__module__.rsplit('.', 1)[1]}.{fn.__qualname__}"
                    wrapped[id(value)] = self.wrap(name, value)
                setattr(mod, attr, wrapped[id(value)])
        for modname, clsname, meth in METHODS:
            cls = getattr(importlib.import_module(f"loopchar.{modname}"), clsname, None)
            if cls is None or meth not in vars(cls):
                continue
            raw = vars(cls)[meth]
            name = f"{modname}.{clsname}.{meth.strip('_')}"
            if isinstance(raw, staticmethod):
                setattr(cls, meth, staticmethod(self.wrap(name, raw.__func__)))
            else:
                setattr(cls, meth, self.wrap(name, raw))

    # -- output ---------------------------------------------------------

    def dump(self) -> dict:
        return {
            "calls": self.calls,
            "incl": self.incl,
            "self_s": self.self_s,
            "layer_self": [[p, l, s] for (p, l), s in self.layer_self.items()],
            "tag_self": [[t, n, s] for (t, n), s in self.tag_self.items()],
            "counts": self.counts,
            "samples": self.samples,
            "timings": self.timings,
            "spans": self.spans,
        }

    def merge(self, d: dict) -> None:
        """Fold in the dump of another traced process."""
        for field in ("calls", "incl", "self_s", "counts"):
            mine = getattr(self, field)
            for k, v in d[field].items():
                mine[k] = mine.get(k, 0) + v
        for p, l, s in d["layer_self"]:
            self.layer_self[(p, l)] = self.layer_self.get((p, l), 0.0) + s
        for t, n, s in d["tag_self"]:
            self.tag_self[(t, n)] = self.tag_self.get((t, n), 0.0) + s
        for k, v in d["samples"].items():
            for size, secs in v:
                self.sample(k, size, secs)
        for k, v in d["timings"].items():
            self.timings.setdefault(k, []).extend(v)
        room = SPAN_CAP - len(self.spans)
        self.spans.extend(tuple(s) for s in d["spans"][: max(room, 0)])


def _hooks(tr: Tracer) -> Dict[str, Tuple[Callable, Callable]]:
    """Per-function work counters, read around each wrapped call."""

    def none(args):
        return None

    def gen_before(args):
        return cache_counts("blocks", "_generator_class")

    def gen_after(token, args, result, dur):
        hits, misses = cache_counts("blocks", "_generator_class")
        dm = misses - token[1]
        tr.count("blocks.generator_class.misses", dm)
        tr.count("blocks.generator_class.hits", hits - token[0])
        if dm:
            tr.count("blocks.generator_class.cold_s", dur)
        else:
            size = spread(args[1])
            tr.count("blocks.elliptic_class.warm_s", dur)
            tr.count("blocks.elliptic_class.warm_spread", size)
            tr.sample("blocks.elliptic_class", size, dur)

    def decompose_after(token, args, result, dur):
        size = spread(args[1])
        tr.count("braid.lroot_decompose.spread", size)
        tr.count("braid.lroot_decompose.hits", result is not None)
        tr.sample("braid.lroot_decompose", size, dur)

    def letters_after(token, args, result, dur):
        tr.count("braid.braid_act_word.letters", len(args[1]))

    def solve_after(token, args, result, dur):
        tr.count("intlattice.SparseIntSolver.solve.hits", result is not None)

    def linked_after(token, args, result, dur):
        tr.count("blocks.blocks_linked.true", bool(result))

    def reps_after(token, args, result, dur):
        tr.count("weyl.min_coset_reps.elements", len(result))

    def terms_after(name):
        def after(token, args, result, dur):
            tr.count(name, len(result.terms))

        return after

    def suite_before(args):
        prev = tr.tag
        tr.tag = str(args[0])
        return prev

    def suite_after(token, args, result, dur):
        tr.tag = token
        tr.count(f"verify.run_suite.{args[0]}.s", dur)
        tr.count(f"verify.run_suite.{args[0]}.calls")
        tr.count("verify.rows", len(result))

    hooks = {
        "blocks.elliptic_class": (gen_before, gen_after),
        "braid.lroot_decompose": (none, decompose_after),
        "braid.braid_act_word": (none, letters_after),
        "intlattice.SparseIntSolver.solve": (none, solve_after),
        "blocks.blocks_linked": (none, linked_after),
        "weyl.min_coset_reps": (none, reps_after),
        "lweight.LCharacter.mul": (none, terms_after("lweight.LCharacter.mul.terms_out")),
        "verify.run_suite": (suite_before, suite_after),
    }
    for fn in ("minuscule_char", "dn_node2_char", "fundamental_char", "sl2_eval_char", "tensor_char"):
        hooks[f"qchar.{fn}"] = (none, terms_after(f"qchar.{fn}.terms"))
    return hooks


# -- per-layer metrics ------------------------------------------------------

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _median(xs: List[float]) -> float:
    return statistics.median(xs) if xs else 0.0


def loglog_slope(points: List[Tuple[int, float]]) -> float:
    """Least-squares slope of log(seconds) on log(size); 1 means linear."""
    pts = [(math.log(s), math.log(t)) for s, t in points if s >= SLOPE_MIN_SPREAD and t > 0]
    if len(pts) < 3:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    sxy = sum((x - mx) * (y - my) for x, y in pts)
    return _ratio(sxy, sxx)


def per_layer_specs() -> List[Tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better)."""
    out = [
        ("cli.spawn_ms", "ms", "lower"),
        ("cli.import_ms", "ms", "lower"),
        ("cli.main_ms", "ms", "lower"),
        ("cartan.cartan_data.calls", "count", "lower"),
        ("cartan.cartan_data.self_s", "s", "lower"),
        ("cartan._build.misses", "count", "lower"),
        ("intlattice.SparseIntSolver.add_column.calls", "count", "lower"),
        ("intlattice.SparseIntSolver.add_column.self_s", "s", "lower"),
        ("intlattice.SparseIntSolver.solve.calls", "count", "lower"),
        ("intlattice.SparseIntSolver.solve.self_s", "s", "lower"),
        ("intlattice.SparseIntSolver.solve.hit_ratio", "ratio", "higher"),
        ("intlattice.IntRowLattice.residue.calls", "count", "lower"),
        ("intlattice.IntRowLattice.residue.self_s", "s", "lower"),
        ("blocks.generator_class.misses", "count", "lower"),
        ("blocks.generator_class.hits", "count", "higher"),
        ("blocks.generator_class.cold_s", "s", "lower"),
        ("blocks.elliptic_class.calls", "count", "lower"),
        ("blocks.elliptic_class.self_s", "s", "lower"),
        ("blocks.elliptic_class.us_per_spread", "us", "lower"),
        ("blocks.elliptic_class.spread_exponent", "ratio", "lower"),
        ("blocks.EllipticCharacter.make.self_s", "s", "lower"),
        ("blocks.blocks_linked.calls", "count", "lower"),
        ("blocks.blocks_linked.self_s", "s", "lower"),
        ("blocks.blocks_linked.true_ratio", "ratio", "higher"),
        ("braid.lroot_decompose.calls", "count", "lower"),
        ("braid.lroot_decompose.self_s", "s", "lower"),
        ("braid.lroot_decompose.us_per_spread", "us", "lower"),
        ("braid.lroot_decompose.spread_exponent", "ratio", "lower"),
        ("braid.lroot_decompose.hit_ratio", "ratio", "higher"),
        ("braid.braid_act_word.calls", "count", "lower"),
        ("braid.braid_act_word.self_s", "s", "lower"),
        ("braid.braid_act_word.letters", "count", "lower"),
        ("braid.braid_act_word.us_per_letter", "us", "lower"),
        ("braid.braid_act.calls", "count", "lower"),
        ("braid.cone_check.self_s", "s", "lower"),
        ("braid.twist_by_w0.self_s", "s", "lower"),
        ("weyl.min_coset_reps.calls", "count", "lower"),
        ("weyl.min_coset_reps.self_s", "s", "lower"),
        ("weyl.min_coset_reps.elements", "count", "lower"),
        ("weyl.min_coset_reps.us_per_element", "us", "lower"),
        ("weyl.dominance_diff.calls", "count", "lower"),
        ("weyl.dominance_diff.self_s", "s", "lower"),
        ("weyl.longest_element.self_s", "s", "lower"),
        ("lweight.parse_lweight.self_s", "s", "lower"),
        ("lweight.LWeight.mul.calls", "count", "lower"),
        ("lweight.LWeight.mul.self_s", "s", "lower"),
        ("lweight.LCharacter.mul.calls", "count", "lower"),
        ("lweight.LCharacter.mul.self_s", "s", "lower"),
        ("lweight.LCharacter.mul.terms_out", "count", "higher"),
    ]
    for fn in ("minuscule_char", "dn_node2_char", "fundamental_char", "sl2_eval_char", "tensor_char"):
        out += [
            (f"qchar.{fn}.calls", "count", "lower"),
            (f"qchar.{fn}.self_s", "s", "lower"),
            (f"qchar.{fn}.terms", "count", "higher"),
        ]
    out += [(f"verify.run_suite.{s}.s", "s", "lower") for s in SUITES]
    out += [
        ("verify.rows", "count", "higher"),
        ("verify.run_suite.xi-oracle.solver_share", "ratio", "lower"),
    ]
    for phase in ("setup", "busy"):
        out += [(f"share.{phase}.{layer}", "ratio", "lower") for layer in LAYERS]
    out += [
        ("trace.p50_overhead_ref", "ref", "lower"),
        ("trace.busy_overhead_ratio", "ratio", "lower"),
    ]
    return out


def layer_metrics(tr: Tracer, setup_s: float, busy_s: float) -> Dict[str, float]:
    """Per-layer metric values from a finished trace.

    ``setup_s`` and ``busy_s`` are the traced phases' wall times, the
    denominators of the layer shares.
    """
    calls, selfs, counts = tr.calls, tr.self_s, tr.counts

    def c(name):
        return float(calls.get(name, 0))

    def s(name):
        return selfs.get(name, 0.0)

    def n(name):
        return float(counts.get(name, 0))

    m: Dict[str, float] = {
        "cli.spawn_ms": _median(tr.timings.get("cli.spawn_ms", [])),
        "cli.import_ms": _median(tr.timings.get("cli.import_ms", [])),
        "cli.main_ms": _median(tr.timings.get("cli.main_ms", [])),
        "cartan._build.misses": n("cartan._build.misses"),
        "intlattice.SparseIntSolver.solve.hit_ratio": _ratio(
            n("intlattice.SparseIntSolver.solve.hits"), c("intlattice.SparseIntSolver.solve")
        ),
        "blocks.generator_class.misses": n("blocks.generator_class.misses"),
        "blocks.generator_class.hits": n("blocks.generator_class.hits"),
        "blocks.generator_class.cold_s": n("blocks.generator_class.cold_s"),
        "blocks.elliptic_class.us_per_spread": 1e6 * _ratio(
            n("blocks.elliptic_class.warm_s"), n("blocks.elliptic_class.warm_spread")
        ),
        "blocks.elliptic_class.spread_exponent": loglog_slope(tr.samples.get("blocks.elliptic_class", [])),
        "blocks.blocks_linked.true_ratio": _ratio(n("blocks.blocks_linked.true"), c("blocks.blocks_linked")),
        "braid.lroot_decompose.us_per_spread": 1e6 * _ratio(
            tr.incl.get("braid.lroot_decompose", 0.0), n("braid.lroot_decompose.spread")
        ),
        "braid.lroot_decompose.spread_exponent": loglog_slope(tr.samples.get("braid.lroot_decompose", [])),
        "braid.lroot_decompose.hit_ratio": _ratio(n("braid.lroot_decompose.hits"), c("braid.lroot_decompose")),
        "braid.braid_act_word.letters": n("braid.braid_act_word.letters"),
        "braid.braid_act_word.us_per_letter": 1e6 * _ratio(
            tr.incl.get("braid.braid_act_word", 0.0), n("braid.braid_act_word.letters")
        ),
        "weyl.min_coset_reps.elements": n("weyl.min_coset_reps.elements"),
        "weyl.min_coset_reps.us_per_element": 1e6 * _ratio(
            tr.incl.get("weyl.min_coset_reps", 0.0), n("weyl.min_coset_reps.elements")
        ),
        "lweight.LCharacter.mul.terms_out": n("lweight.LCharacter.mul.terms_out"),
        "verify.rows": n("verify.rows"),
        "verify.run_suite.xi-oracle.solver_share": _ratio(
            sum(v for (t, name), v in tr.tag_self.items()
                if t == "xi-oracle" and name.startswith("intlattice.SparseIntSolver.")),
            n("verify.run_suite.xi-oracle.s"),
        ),
    }
    for name, unit, _ in per_layer_specs():
        if name in m:
            continue
        if name.startswith("verify.run_suite."):
            suite = name[len("verify.run_suite."):-2]
            m[name] = _ratio(n(f"verify.run_suite.{suite}.s"), n(f"verify.run_suite.{suite}.calls"))
        elif name.startswith("share."):
            _, phase, layer = name.split(".")
            den = setup_s if phase == "setup" else busy_s
            m[name] = _ratio(tr.layer_self.get((phase, layer), 0.0), den)
        elif name.startswith("trace."):
            m[name] = n(name)
        elif name.endswith(".calls"):
            m[name] = c(name[: -len(".calls")])
        elif name.endswith(".self_s"):
            m[name] = s(name[: -len(".self_s")])
        elif name.endswith(".terms"):
            m[name] = n(name)
        else:
            raise KeyError(name)
    return m
