"""Runs one workload in this (fresh) process; the last stdout line is the result.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's
``src`` and ``PYTHONHASHSEED`` pinned.  Untraced runs report the
end-to-end metrics.  Traced runs first repeat the untraced measurement,
then undo the setup, install the layer wrappers, set up again and
replay the same requests, and report the per-layer metrics plus the
difference between the two passes (the tracing overhead).
"""

import argparse
import json
import os
import shutil
import statistics
import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import List, Optional

import workloads
from tracer import (
    LAYERS, SLOPE_MIN_SPREAD, SPAN_CAP, SUITES, Tracer, cache_counts, layer_metrics, per_layer_specs,
)

# A measurement loop stops at this wall time even below its sample floor,
# which keeps a whole traced run inside its time limit.
LOOP_CAP_S = 60.0
CLI_TOTAL_N = 100
# The reference computation is timed whenever this much wall time has
# passed since its last timing, i.e. before every cold invocation and
# about every 100 ms of warm queries.
REF_EVERY_S = 0.1
# setup_s is the set-up's time in reference units converted to seconds at
# this fixed reference time, the reference computation's time on a 2-vCPU
# x86-64 VM at its calm speed, so that a host slowdown does not read as a
# slower set-up.  The raw seconds are reported as ``setup_raw_s``.
REF_NOMINAL_S = 1.3e-3


def _reference_work() -> int:
    """A fixed stdlib-only mix of the interpreter work loopchar does:
    tuple-keyed dict updates, integer arithmetic and a sort."""
    d: dict = {}
    for i in range(1500):
        k = ((i * 7919) % 1009, i & 7)
        d[k] = d.get(k, 0) + i
    return len(sorted(d.items()))


def reference_s() -> float:
    """Current time of the reference computation (median of 3)."""
    times = []
    for _ in range(3):
        t0 = perf_counter()
        _reference_work()
        times.append(perf_counter() - t0)
    return statistics.median(times)


@dataclass
class Loop:
    latencies: List[float] = field(default_factory=list)
    refs: List[float] = field(default_factory=list)   # reference time around each op
    work: int = 0
    failed: int = 0

    @property
    def busy(self) -> float:
        return sum(self.latencies)

    @property
    def normalized(self) -> List[float]:
        """Each latency in units of the reference computation's time."""
        return [t / r for t, r in zip(self.latencies, self.refs)]


def closed_loop(wl, rounds, seconds: float, limit: Optional[int] = None, tracer=None) -> Loop:
    """One client: send a request, wait for it, check it, send the next.

    Without ``limit`` the loop stops at the end of the first round that
    finishes after ``seconds`` with at least ``wl.floor`` samples and
    ``wl.min_rounds`` rounds, so a run holds whole rounds only.  With
    ``limit`` it replays exactly that many requests.  Each op is paired
    with the mean of the reference timings just before and just after it.
    """
    loop = Loop()
    start = perf_counter()
    marks: List[int] = []          # index of the reference timing before each op
    ref_times: List[float] = []
    last_ref = float("-inf")
    n = rounds_done = 0
    for round_ in rounds:
        for req in round_:
            if limit is not None and n >= limit:
                break
            if perf_counter() - last_ref >= REF_EVERY_S:
                ref_times.append(reference_s())
                last_ref = perf_counter()
            marks.append(len(ref_times) - 1)
            if tracer is not None:
                tracer.request = n
                tracer.active = True
            t0 = perf_counter()
            try:
                out, units = wl.run(req)
                ok = True
            except Exception:
                out, units, ok = None, 0, False
            dt = perf_counter() - t0
            if tracer is not None:
                tracer.active = False
            if ok:
                try:
                    ok = bool(wl.check(req, out))
                except Exception:
                    ok = False
            loop.latencies.append(dt)
            n += 1
            if ok:
                loop.work += units
            else:
                loop.failed += 1
        rounds_done += 1
        elapsed = perf_counter() - start
        enough = elapsed >= seconds and n >= wl.floor and rounds_done >= wl.min_rounds
        if (limit is not None and n >= limit) or (limit is None and (enough or elapsed >= LOOP_CAP_S)):
            break
    ref_times.append(reference_s())
    loop.refs = [(ref_times[m] + ref_times[m + 1]) / 2 for m in marks]
    return loop


def percentile(xs: List[float], pct: int) -> float:
    """Nearest-rank percentile: n - ceil(pct * n / 100) samples lie above it."""
    s = sorted(xs)
    return s[max(0, -(-pct * len(s) // 100) - 1)]


def tail_percentile(n: int, wanted: int) -> int:
    """The workload's tail percentile, or the highest lower one that still
    has ten samples beyond it; the median when none has."""
    for pct in (wanted, 99, 90):
        if pct <= wanted and n - -(-pct * n // 100) >= 10:
            return pct
    return 50


@dataclass
class Setups:
    seconds: List[float] = field(default_factory=list)    # wall time of each set-up
    ref_units: List[float] = field(default_factory=list)  # the same in reference units


def timed_setups(wl, reps: int, tracer=None) -> Setups:
    """Times ``reps`` set-ups, each from cold.  The reference computation
    is timed before the first step of a set-up and after every step, and
    each step's time is divided by the mean of the two timings around it."""
    out = Setups()
    for rep in range(reps):
        wl.reset(rep)
        before = reference_s()
        seconds = units = 0.0
        for step in wl.setup_steps():
            if tracer is not None:
                tracer.phase, tracer.active = "setup", True
            t0 = perf_counter()
            step()
            dt = perf_counter() - t0
            if tracer is not None:
                tracer.phase, tracer.active = "busy", False
            after = reference_s()
            seconds += dt
            units += dt / ((before + after) / 2)
            before = after
        out.seconds.append(seconds)
        out.ref_units.append(units)
    return out


def plain(wl, seed: int, seconds: float) -> dict:
    setups = timed_setups(wl, wl.setup_reps)
    loop = closed_loop(wl, wl.rounds(seed), seconds)
    lat, norm = loop.latencies, loop.normalized
    setup_s = statistics.median(setups.ref_units) * REF_NOMINAL_S
    pct = tail_percentile(len(lat), wl.tail_pct)

    def p50_tail(xs):
        mid = statistics.median(xs)
        return mid, mid if pct == 50 else percentile(xs, pct)

    p50_ref, tail_ref = p50_tail(norm)
    p50_ms, tail_ms = (v * 1e3 for v in p50_tail(lat))
    metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (wl.peak_rss_mb(), "MB"),
        "p50_ref": (p50_ref, "ref"),
        "tail_ref": (tail_ref, "ref"),
        "work_per_ref": (loop.work / sum(norm), "1/ref"),
    }
    rate = loop.work / loop.busy
    named = {"setup_s": (metrics["setup_s"][0], "s"),
             "peak_rss_mb": (metrics["peak_rss_mb"][0], "MB"),
             "fail_ratio": (loop.failed / len(lat), "ratio")}
    if wl.name == "cli-cold":
        named["cli_p50_ms"] = (p50_ms, "ms")
        named["cli_p90_ms"] = (tail_ms, "ms")
        named["cli_total_s"] = (sum(lat[:CLI_TOTAL_N]), "s")
    elif wl.name == "block-stream":
        named["block_qps"] = (rate, "1/s")
        named["block_p50_ms"] = (p50_ms, "ms")
        named["block_p99_ms"] = (tail_ms, "ms")
    elif wl.name == "qchar-build":
        named["qchar_terms_per_s"] = (rate, "1/s")
        named["qchar_p50_ms"] = (p50_ms, "ms")
        named["qchar_p90_ms"] = (tail_ms, "ms")
    else:
        named["verify_s"] = (p50_ms / 1e3, "s")
    info = {
        "workload": wl.name,
        "samples": len(lat),
        "tail_percentile": f"p{pct}",
        "setup_samples": len(setups.seconds),
        "setup_raw_s": statistics.median(setups.seconds),
        "work_unit": wl.work_unit,
        "ref_ms": statistics.median(loop.refs) * 1e3,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
    }
    return {
        "info": info,
        "attempted": len(lat),
        "failed": loop.failed,
        "metrics": metrics,
    }


def traced(wl, seed: int, seconds: float, out_dir: str) -> dict:
    timed_setups(wl, 1)
    base = closed_loop(wl, wl.rounds(seed), seconds)
    n = len(base.latencies)

    # cli.* timings come only from the traced CLI children of cold runs.
    tr = Tracer()
    if isinstance(wl, workloads.ColdProcess):
        wl.tracer = tr
    else:
        tr.install()
    (setup_s,) = timed_setups(wl, 1, tracer=tr).seconds
    again = closed_loop(wl, wl.rounds(seed), seconds, limit=n, tracer=tr)
    if not isinstance(wl, workloads.ColdProcess):
        tr.count("cartan._build.misses", cache_counts("cartan", "_build")[1])

    metrics = layer_metrics(tr, setup_s, again.busy)
    k = min(n, len(again.latencies))
    traced_norm, base_norm = again.normalized[:k], base.normalized[:k]
    metrics["trace.p50_overhead_ref"] = statistics.median(traced_norm) - statistics.median(base_norm)
    metrics["trace.busy_overhead_ratio"] = sum(traced_norm) / sum(base_norm) - 1
    spans_path = os.path.join(out_dir, f"spans-{wl.name}-{seed}.jsonl")
    with open(spans_path, "w") as fh:
        for span in tr.spans[:SPAN_CAP]:
            fh.write(json.dumps(span) + "\n")
    units = {name: unit for name, unit, _ in per_layer_specs()}
    info = {
        "workload": wl.name,
        "samples": n,
        "replayed": k,
        "spans_file": spans_path,
        "findings": findings(metrics),
    }
    return {
        "info": info,
        "attempted": n + len(again.latencies),
        "failed": base.failed + again.failed,
        "metrics": {name: (value, units[name]) for name, value in metrics.items()},
    }


def findings(m: dict) -> List[str]:
    """Plain statements about where the traced time went."""
    out = []

    def pct(name):
        return f"{100 * m[name]:.0f}%"

    if m["share.setup.intlattice"]:
        out.append(f"intlattice holds {pct('share.setup.intlattice')} of the traced set-up")
    busy = sorted(((m[f"share.busy.{layer}"], layer) for layer in LAYERS), reverse=True)
    out.append("busy time by layer: " + ", ".join(f"{layer} {100 * v:.0f}%" for v, layer in busy if v >= 0.005))
    for fn in ("blocks.elliptic_class", "braid.lroot_decompose"):
        slope = m[f"{fn}.spread_exponent"]
        if slope:
            verdict = "linear" if 0.8 <= slope <= 1.2 else "not linear"
            out.append(f"{fn}: time grows as spread^{slope:.2f} above spread {SLOPE_MIN_SPREAD} ({verdict})")
    xi = m["verify.run_suite.xi-oracle.s"]
    if xi:
        suites = sum(m[f"verify.run_suite.{s}.s"] for s in SUITES)
        share = m["verify.run_suite.xi-oracle.solver_share"]
        out.append(
            f"xi-oracle is {100 * xi / suites:.0f}% of the suites' time and SparseIntSolver holds "
            f"{100 * share:.0f}% of it: most xi-oracle time "
            + ("is" if share > 0.5 else "is not") + " in SparseIntSolver"
        )
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--root", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    # The worker and its CLI children share one CPU, so the reference
    # computation sees the same interference as the ops it normalizes.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    out_dir = os.path.join(args.out, str(os.getpid()))
    os.makedirs(out_dir, exist_ok=True)
    try:
        wl = workloads.make(args.workload, args.root, out_dir, args.smoke)
        if args.trace:
            res = traced(wl, args.seed, args.seconds, args.out)
        else:
            res = plain(wl, args.seed, args.seconds)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    print(json.dumps({"info": res["info"]}))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
