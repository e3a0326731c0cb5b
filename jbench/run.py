"""Benchmark of the jorder library: seeded job lists, timed and checked.

    python3 jbench/run.py --workload lrproj-gf101 --seed 0 --seconds 30 --trace 0

Runs from the root of a checkout and imports jorder from its src/, in one
process and one thread.  Set-up (import, catalog builds, primitive
idempotents, input generation) is timed SETUP_REPEATS times, the import
once, and setup_s is the import plus the median set-up.  Then the job list
runs in whole passes: another pass starts while the next one is expected
to end within --seconds, and at least MIN_PASSES[workload] passes run.

Every time reported is a wall time scaled by a reference kernel timed
between jobs (see reference()): seconds on a host where reference() takes
REF_NOMINAL_S.  The raw wall times are printed too.

--trace 0 prints the end-to-end metrics.  --trace 1 runs a warm-up pass and
an untraced pass, then traced passes within --seconds, and prints the
per-layer metrics per traced pass (see tracer.py) and the tracing overhead:
the median traced pass minus the untraced pass, both scaled.

Every job output is reduced to a digest.  All passes of a run must agree,
and at the default seed every job digest must equal the one recorded in
expected.json.  A job that raises, fails its check or gives another digest
counts as failed.  The last stdout line is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

import argparse
import hashlib
import json
import math
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

T_START = perf_counter()

import numpy as np  # noqa: E402  (counted in the import time)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"
DEFAULT_SEED = 0
SETUP_REPEATS = 3
# At least this many passes run, so the tail percentile below has
# TAIL_BEYOND samples beyond it in every run.  These counts put the tail
# among the samples of the slowest few jobs rather than at the edge between
# them and the next ones (see NOTES.md).
MIN_PASSES = {"lrproj-gf101": 4, "verify-gf101": 3, "verify-q": 8}
TAIL_BEYOND = 10
REFERENCE_KIND = {"lrproj-gf101": "gf", "verify-gf101": "gf", "verify-q": "q"}
REF_NOMINAL_S = 0.015  # reported seconds are seconds at this reference() time

# (metric, stat name, stat key, unit, better); "ratio" keys divide by calls
PER_LAYER = [
    ("linalg.rref.calls", "linalg.rref", "calls", "count", "lower"),
    ("linalg.rref.self_s", "linalg.rref", "self_s", "s", "lower"),
    ("linalg.rref.cells", "linalg.rref", "cells", "count", "lower"),
    ("linalg.rref.max_cols", "linalg.rref", "max_cols", "count", "lower"),
    ("fields.matmul.calls", "fields.matmul", "calls", "count", "lower"),
    ("fields.matmul.self_s", "fields.matmul", "self_s", "s", "lower"),
    ("fields.canon.calls", "fields.canon", "calls", "count", "lower"),
    ("fields.canon.self_s", "fields.canon", "self_s", "s", "lower"),
    ("modules.hom_space.calls", "modules.hom_space", "calls", "count", "lower"),
    ("modules.hom_space.self_s", "modules.hom_space", "self_s", "s", "lower"),
    ("modules.hom_space.total_s", "modules.hom_space", "total_s", "s", "lower"),
    ("modules.hom_space.unknowns", "modules.hom_space", "unknowns", "count", "lower"),
    ("modules.tensor_over.calls", "modules.tensor_over", "calls", "count", "lower"),
    ("modules.tensor_over.total_s", "modules.tensor_over", "total_s", "s", "lower"),
    ("modules.tensor_over.unknowns", "modules.tensor_over", "unknowns", "count", "lower"),
    ("modules.projective_cover.calls", "modules.projective_cover", "calls", "count", "lower"),
    ("modules.projective_cover.total_s", "modules.projective_cover", "total_s", "s", "lower"),
    ("decomp.decompose.calls", "decomp.decompose", "calls", "count", "lower"),
    ("decomp.decompose.total_s", "decomp.decompose", "total_s", "s", "lower"),
    ("decomp.decompose.leaves", "decomp.decompose", "leaves", "count", "lower"),
    ("decomp.endomorphism_algebra.calls", "decomp.endomorphism_algebra", "calls", "count", "lower"),
    ("decomp.endomorphism_algebra.self_s", "decomp.endomorphism_algebra", "self_s", "s", "lower"),
    ("decomp.endomorphism_algebra.dim_sum", "decomp.endomorphism_algebra", "dim_sum", "count", "lower"),
    ("decomp.are_isomorphic.calls", "decomp.are_isomorphic", "calls", "count", "lower"),
    ("decomp.are_isomorphic.total_s", "decomp.are_isomorphic", "total_s", "s", "lower"),
    ("decomp.summand_isomorphism.calls", "decomp.summand_isomorphism", "calls", "count", "lower"),
    ("decomp.summand_isomorphism.total_s", "decomp.summand_isomorphism", "total_s", "s", "lower"),
    ("decomp.summand_isomorphism.hit_ratio", "decomp.summand_isomorphism", "ratio:hits", "ratio", "higher"),
    ("decomp.find_nontrivial_idempotent.calls", "decomp.find_nontrivial_idempotent", "calls", "count", "lower"),
    ("decomp.find_nontrivial_idempotent.self_s", "decomp.find_nontrivial_idempotent", "self_s", "s", "lower"),
    ("decomp.find_nontrivial_idempotent.split_ratio", "decomp.find_nontrivial_idempotent", "ratio:splits", "ratio", "higher"),
    ("algebras.Algebra.__init__.calls", "algebras.Algebra.__init__", "calls", "count", "lower"),
    ("algebras.Algebra.__init__.self_s", "algebras.Algebra.__init__", "self_s", "s", "lower"),
    ("algebras.matrix_algebra_radical.calls", "algebras.matrix_algebra_radical", "calls", "count", "lower"),
    ("algebras.matrix_algebra_radical.self_s", "algebras.matrix_algebra_radical", "self_s", "s", "lower"),
    ("polynomials.factor_poly.calls", "polynomials.factor_poly", "calls", "count", "lower"),
    ("polynomials.factor_poly.self_s", "polynomials.factor_poly", "self_s", "s", "lower"),
    ("witnesses.verify_j_geq.calls", "witnesses.verify_j_geq", "calls", "count", "lower"),
    ("witnesses.verify_j_geq.total_s", "witnesses.verify_j_geq", "total_s", "s", "lower"),
    ("witnesses.verify_j_geq.not_summand", "witnesses.verify_j_geq", "not_summand", "count", "lower"),
    ("witnesses.replay_certificate.calls", "witnesses.replay_certificate", "calls", "count", "lower"),
    ("witnesses.replay_certificate.total_s", "witnesses.replay_certificate", "total_s", "s", "lower"),
    ("serialize.canon_json.calls", "serialize.canon_json", "calls", "count", "lower"),
    ("serialize.canon_json.self_s", "serialize.canon_json", "self_s", "s", "lower"),
    ("serialize.canon_json.bytes", "serialize.canon_json", "bytes", "B", "lower"),
    ("cli.main.calls", "cli.main", "calls", "count", "lower"),
    ("cli.main.total_s", "cli.main", "total_s", "s", "lower"),
]
TRACE_OVERHEAD = ("bench.trace_overhead_s", "s", "lower")

# Per-layer metrics that must be non-zero on the workload built to exercise
# them, and the ones that must stay zero there.
EXERCISED = {
    "lrproj-gf101": [
        "linalg.rref.calls", "fields.canon.calls", "modules.hom_space.calls",
        "decomp.decompose.calls", "decomp.decompose.leaves", "decomp.endomorphism_algebra.calls",
        "decomp.are_isomorphic.calls", "decomp.summand_isomorphism.calls",
        "decomp.summand_isomorphism.hit_ratio", "decomp.find_nontrivial_idempotent.calls",
        "decomp.find_nontrivial_idempotent.split_ratio", "algebras.Algebra.__init__.calls",
        "algebras.matrix_algebra_radical.calls", "polynomials.factor_poly.calls",
    ],
    "verify-gf101": [
        "linalg.rref.calls", "modules.tensor_over.calls", "modules.tensor_over.unknowns",
        "modules.projective_cover.calls", "decomp.summand_isomorphism.calls",
        "algebras.Algebra.__init__.calls", "algebras.matrix_algebra_radical.calls",
        "witnesses.verify_j_geq.calls", "witnesses.verify_j_geq.not_summand",
        "witnesses.replay_certificate.calls", "serialize.canon_json.calls",
        "serialize.canon_json.bytes", "cli.main.calls",
    ],
    "verify-q": [
        "fields.matmul.calls", "modules.hom_space.calls", "modules.hom_space.unknowns",
        "modules.tensor_over.calls", "witnesses.verify_j_geq.calls",
        "witnesses.replay_certificate.calls", "serialize.canon_json.calls", "cli.main.calls",
    ],
}
UNEXERCISED = {"lrproj-gf101": ["modules.tensor_over.calls"]}


def _log(msg):
    print(msg, file=sys.stderr, flush=True)


def _digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def reference(kind):
    """Wall time of fixed interpreter work plus numpy int64 ("gf") or Fraction ("q") work.

    About REF_NOMINAL_S on an idle core.  It runs between jobs, and every
    measured time is scaled by REF_NOMINAL_S over the mean of the reference
    times around it, because this kind of shared host changes speed by up
    to 2x within seconds, and slows interpreter, numpy and Fraction code by
    different factors; see NOTES.md.
    """
    t0 = perf_counter()
    s = 0
    for i in range(64000):
        s += i * i % 7
    if kind == "gf":
        a = np.arange(1600, dtype=np.int64).reshape(40, 40) % 101
        for _ in range(220):
            a = np.dot(a, a) % 101
    else:
        x = Fraction(1, 3)
        for i in range(2500):
            x = x * Fraction(i + 1, i + 2) + Fraction(1, 7)
    return perf_counter() - t0


def timed(fn, kind, ref_before):
    """(result, scaled seconds, reference after) for one call of fn, as for set-up."""
    t0 = perf_counter()
    result = fn()
    wall = perf_counter() - t0
    ref_after = reference(kind)
    return result, wall * REF_NOMINAL_S * 2 / (ref_before + ref_after), ref_after


@dataclass
class Pass:
    wall: float  # unscaled, reference calls included
    latencies: list  # scaled seconds per job, in job order
    digests: dict  # job name -> digest, None when the job raised
    failed: int

    @property
    def seconds(self):
        return sum(self.latencies)


def _prepare(job):
    """(input, None) from job.prepare(), or (None, traceback) when it raises."""
    try:
        return job.prepare(), None
    except Exception:  # counted as a failure of the job
        return None, traceback.format_exc()


def run_pass(jobs, kind, recorded, tracer=None):
    """Run every job once; a job fails if it raises or its digest is not the recorded one.

    The jobs' inputs are prepared first, untimed and untraced.  reference()
    runs before the first job and after each one.  A job's time is scaled by
    the mean of the two references around it and the nearest one on either
    side: one 15 ms sample is a noisy estimate of the host speed during a
    job of a second.  With a tracer, it is installed for the jobs only.
    """
    t_pass = perf_counter()
    ready = [_prepare(job) for job in jobs]
    out = Pass(0.0, [], {}, 0)
    walls, refs = [], [reference(kind)]
    if tracer is not None:
        tracer.install()
    try:
        for job, (arg, error) in zip(jobs, ready):
            t0 = perf_counter()
            if error is None:
                try:
                    digest = _digest(job.run(arg))
                except Exception:  # a failed job is counted and the run goes on
                    error = traceback.format_exc()
            walls.append(perf_counter() - t0)
            refs.append(reference(kind))
            if error is not None:
                digest = None
                _log(f"job {job.name!r} failed:\n{error}")
            out.digests[job.name] = digest
            if digest is None or (recorded is not None and recorded.get(job.name) != digest):
                out.failed += 1
                if digest is not None:
                    _log(f"job {job.name!r}: digest {digest} != recorded {recorded.get(job.name)}")
    finally:
        if tracer is not None:
            tracer.uninstall()
    for j, wall in enumerate(walls):
        out.latencies.append(wall * REF_NOMINAL_S / statistics.mean(refs[max(0, j - 1):j + 3]))
    out.wall = perf_counter() - t_pass
    return out


def run_passes(jobs, kind, recorded, seconds, min_passes, tracer=None):
    """Whole passes until the next one would end after `seconds` of wall time.

    Without recorded digests, the first pass's digests are the ones the
    later passes must give.
    """
    passes = []
    start = perf_counter()
    while True:
        passes.append(run_pass(jobs, kind, recorded, tracer))
        recorded = recorded or passes[0].digests
        elapsed = perf_counter() - start
        if len(passes) >= min_passes and elapsed + passes[-1].wall > seconds:
            return passes


def tail_percentile(jobs_a_pass, min_passes):
    """The highest percentile with TAIL_BEYOND samples beyond it in the shortest run.

    It is fixed per workload, so that a run with more passes reports the
    same percentile rather than a higher one.
    """
    n = jobs_a_pass * min_passes
    return 100.0 * (n - TAIL_BEYOND) / n


def nearest_rank(values, pct):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_metrics(stats, passes):
    """PER_LAYER values a traced pass: sums over passes divided by passes, maxima as they are."""
    out = {}
    for metric, name, key, unit, _ in PER_LAYER:
        st = stats.get(name, {})
        if key.startswith("ratio:"):
            calls = st.get("calls", 0)
            value = st.get(key[len("ratio:"):], 0) / calls if calls else 0.0
        elif key.startswith("max_"):
            value = st.get(key, 0)
        else:
            value = st.get(key, 0) / passes
        out[metric] = {"value": value, "unit": unit}
    return out


def coverage_problems(workload, metrics):
    """Names of per-layer metrics that are zero where they must not be, or the reverse."""
    bad = [m for m in EXERCISED.get(workload, []) if not metrics[m]["value"] > 0]
    bad += [m for m in UNEXERCISED.get(workload, []) if metrics[m]["value"] != 0]
    return bad


def measure_traced(jobs, kind, recorded, seconds):
    """A warm-up pass and an untraced pass, then traced passes.

    Returns (passes, traced, stats, overhead): every pass, the traced ones,
    the tracer's totals, and the median traced pass minus the untraced one.
    The warm-up pass keeps one-time work (first imports, the untimed checks
    of the first prepare()) out of the comparison.
    """
    from tracer import Tracer

    start = perf_counter()
    warm = run_pass(jobs, kind, recorded)
    recorded = recorded or warm.digests
    plain = run_pass(jobs, kind, recorded)
    tracer = Tracer()
    traced = run_passes(jobs, kind, recorded, seconds - (perf_counter() - start), 1, tracer)
    overhead = statistics.median(p.seconds for p in traced) - plain.seconds
    return [warm, plain] + traced, traced, tracer.stats, overhead


def import_workloads():
    """The workloads module, with jorder imported from this checkout's src/, or None."""
    if not (ROOT / "src" / "jorder" / "__init__.py").is_file():
        _log(f"jbench: no jorder sources under {ROOT / 'src'}; run from a full checkout")
        return None
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # imports jorder and numpy

    if Path(workloads.catalog.__file__).resolve().parents[2] != ROOT:
        _log("jbench: imported jorder from outside this checkout")
        return None
    return workloads


def load_expected():
    return json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {"seed": DEFAULT_SEED, "workloads": {}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["lrproj-gf101", "verify-gf101", "verify-q"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help=f"write this workload's digests at seed {DEFAULT_SEED} to expected.json")
    args = parser.parse_args(argv)

    if not 0 <= args.seed < 2**63:
        parser.error("--seed must be in [0, 2**63)")
    if args.record and args.seed != DEFAULT_SEED:
        parser.error(f"--record needs --seed {DEFAULT_SEED}")
    workloads = import_workloads()
    if workloads is None:
        return 2
    import_wall = perf_counter() - T_START
    kind = REFERENCE_KIND[args.workload]
    ref = reference(kind)
    import_s = import_wall * REF_NOMINAL_S / ref

    expected = load_expected()
    wl_expected = expected["workloads"].get(args.workload)
    compare = args.seed == expected["seed"] and wl_expected is not None and not args.record
    recorded = wl_expected["jobs"] if compare else None
    build = workloads.WORKLOADS[args.workload]

    recorded_invariants = {} if args.record else (wl_expected or {}).get("invariants", {})
    setup_times = []
    for _ in range(SETUP_REPEATS):
        invariants = dict(recorded_invariants)
        jobs, seconds, ref = timed(lambda: build(args.seed, invariants), kind, ref)
        setup_times.append(seconds)
    setup_s = import_s + statistics.median(setup_times)

    if args.trace:
        passes, traced, stats, overhead = measure_traced(jobs, kind, recorded, args.seconds)
    else:
        passes = run_passes(jobs, kind, recorded, args.seconds, MIN_PASSES[args.workload])

    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(p.failed for p in passes)
    first = passes[0].digests
    workload_digest = _digest("".join(f"{name} {d}\n" for name, d in first.items()))
    note = (("matches the recorded one" if first == recorded else "MISMATCH") if compare
            else "not compared: only the recorded seed has recorded digests")
    print(f"workload {args.workload} seed {args.seed}: {len(jobs)} jobs a pass, "
          f"{len(passes)} passes, {attempted} jobs, {failed} failed")
    print("pass times " + " ".join(f"{p.seconds:.3f}" for p in passes) + " s scaled, "
          + " ".join(f"{p.wall:.3f}" for p in passes) + " s wall")
    print(f"setup_s = import {import_s:.4f} s ({import_wall:.3f} s wall) + median of "
          + ", ".join(f"{t:.4f}" for t in setup_times) + " s")
    print(f"digest {args.workload} {workload_digest} ({note})")
    correct = failed == 0

    if args.trace:
        metrics = layer_metrics(stats, len(traced))
        metrics[TRACE_OVERHEAD[0]] = {"value": overhead, "unit": TRACE_OVERHEAD[1]}
        problems = coverage_problems(args.workload, metrics)
        if problems:
            _log(f"jbench: per-layer coverage problems: {problems}")
            correct = False
        print(f"trace overhead {overhead:.4f} s a pass "
              f"(untraced pass {passes[1].seconds:.4f} s, {len(traced)} traced passes)")
        for name, m in metrics.items():
            print(f"{name} {m['value']:.6g} {m['unit']}")
    else:
        latencies = [x for p in passes for x in p.latencies]
        pct = tail_percentile(len(jobs), MIN_PASSES[args.workload])
        tail_s = nearest_rank(latencies, pct)
        metrics = {
            "jobs_per_s": {"value": attempted / sum(p.seconds for p in passes), "unit": "1/s"},
            "job_p50_s": {"value": statistics.median(latencies), "unit": "s"},
            "job_tail_s": {"value": tail_s, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MiB"},
        }
        for name, m in metrics.items():
            print(f"{name} {m['value']:.6g} {m['unit']}")
        print(f"job_tail_s is p{pct:.1f} of {len(latencies)} job latencies")
        print(f"fail_ratio {failed / attempted:.6g} ({failed}/{attempted} jobs)")

    if args.record:
        expected["workloads"][args.workload] = {
            "digest": workload_digest, "jobs": first, "invariants": invariants}
        EXPECTED.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")
        _log(f"jbench: recorded {args.workload} in {EXPECTED}")

    print(json.dumps({"correct": bool(correct), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
