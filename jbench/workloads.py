"""Seeded job lists for the three benchmark workloads.

Each WORKLOADS function takes the workload seed, does all set-up (catalog
builds, primitive idempotents and radicals of every algebra involved, input
generation) and returns the job list.  A job runs one user-level operation
through the public jorder API and returns its output as canonical text; it
raises WrongAnswer when a seed-independent check fails.  Library calls go
through module attributes (``decomp.decompose``) so that the tracer's
wrappers are seen.

A job's prepare() runs untimed before every run and hands it fresh copies
of its modules, so that no memoised per-module state carries over from one
pass to the next: the suite runs each of these jobs once.  Algebras are
shared across jobs and passes, as in the suite, and their cached
attributes are all filled during set-up.

lrproj-gf101  lrproj_projectivity_check on conjugated left-right projective
              (A_3, k[x]/x^2)-bimodules over GF(101): large dense
              eliminations and the decomposition inside the check.
verify-gf101  verify_j_geq(quality=True) with the certificate document,
              replay_certificate, and in-process CLI jobs, over GF(101):
              many small eliminations, tensor_over, projective covers,
              serialize and cli.
verify-q      the same jobs over Q without quality flags, where Fraction
              object arrays dominate.
"""

import contextlib
import io
import itertools
import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

from jorder import catalog, cli, decomp, groups, linalg, modules, serialize, witnesses
from jorder.fields import field_from_name


class WrongAnswer(Exception):
    """A job returned, but its output fails a seed-independent check."""


@dataclass
class Job:
    name: str
    run: Callable[[object], str]  # timed; takes what prepare returned
    prepare: Callable[[], object] = lambda: None  # untimed


def _fresh(m):
    """A copy of module m that shares only its algebras."""
    f = m.field
    return modules.Module(m.left_algebra, m.right_algebra, f.copy(m.left_mats),
                          f.copy(m.right_mats), m.label, check=False)


def _warm(alg, seed=0):
    """Fill every cached attribute of alg and of its opposite."""
    for x in (alg, alg.opposite()):
        decomp.complete_primitive_idempotents(x, seed=seed)
        x.radical_rows()
        x.radical_powers()


def _derive(seed, index):
    return (int(seed) * 1_000_003 + index) % (2**63)


def _canon(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# ---- lrproj-gf101 -------------------------------------------------------------

# Every multiplicity vector of the three projectives P_i (x) k[x]/x^2 whose
# bimodule has dimension at most 16: 24 modules of dimension 2 to 16.  The
# two larger vectors (dimension 18 and 20) are left out because together
# they cost about as much as the other 24: the dimension-20 check alone
# takes 3.2-3.5 s, the dimension-16 ones 0.8-1.1 s (raw, shared 2-vCPU host).
LRPROJ_MAX_DIM = 16


def build_lrproj(seed, invariants):
    a3 = catalog.build("A_n", n=3)
    field = a3.field
    d = catalog.build("trunc_poly", field=field, k=2)
    for alg in (a3, d):
        _warm(alg)
    left_projs = [p for p, _, _ in modules.projective_indecomposables(a3)]
    right_proj = modules.right_regular_module(d)
    gen = np.random.default_rng(seed)
    jobs = []
    for mults in itertools.product(range(3), repeat=len(left_projs)):
        dims = [2 * p.dim for p, m in zip(left_projs, mults) for _ in range(m)]
        if not dims or sum(dims) > LRPROJ_MAX_DIM:
            continue
        pieces = [modules.outer_tensor(p, right_proj)
                  for p, m in zip(left_projs, mults) for _ in range(m)]
        big, _, _ = modules.direct_sum(pieces)
        t = linalg.random_invertible(field, gen, big.dim)
        ti = linalg.invert(field, t)
        lm = field.canon(np.stack([field.matmul(t, field.matmul(x, ti)) for x in big.left_mats]))
        rm = field.canon(np.stack([field.matmul(t, field.matmul(x, ti)) for x in big.right_mats]))
        mod = modules.Module(a3, d, lm, rm, f"lrproj{list(mults)}", check=False)
        classes = sorted((2 * p.dim, m) for p, m in zip(left_projs, mults) if m)
        jobs.append(_lrproj_job(f"lrproj {list(mults)}", a3, d, mod, sorted(dims), classes,
                                _derive(seed, len(jobs))))
    return jobs


def _lrproj_job(name, a3, d, mod, dims, classes, job_seed):
    """The check-8 job; the decomposition's dims and classes are checked once, untimed."""
    known = {}

    def prepare():
        if not known:
            dec = decomp.decompose(_fresh(mod), seed=job_seed)
            got = {"dims": dec.dims(), "classes": [list(c) for c in dec.class_summary()]}
            want = {"dims": dims, "classes": [list(c) for c in classes]}
            if got != want:
                raise WrongAnswer(f"decomposition {_canon(got)}, expected {_canon(want)}")
            known.update(got)
        return _fresh(mod)

    def run(m):
        held, info = witnesses.lrproj_projectivity_check(a3, d, m, seed=job_seed)
        out = {"held": bool(held), "info": info}
        want = {"held": True, "info": {"vacuous": False, "summands": len(dims)}}
        if out != want:
            raise WrongAnswer(f"got {_canon(out)}, expected {_canon(want)}")
        return _canon({**known, **out})

    return Job(name, run, prepare)


# ---- verify-gf101 and verify-q -------------------------------------------------


def _dual_numbers_sign_action(field):
    tp = catalog.build("trunc_poly", field=field, k=2)
    sign = field.canon(np.array([[1, 0], [0, -1]], dtype=object))
    return groups.AlgebraAction(groups.FiniteGroup.cyclic(2), tp, [field.eye(2), sign])


def _skew_pairs(action):
    skew, emb = groups.skew_group_algebra(action)
    return witnesses.embedding_witness_pairs(action.algebra, skew, rows=emb)


def _invariant_pairs(action):
    sub, rows = groups.invariant_subalgebra(action)
    return witnesses.embedding_witness_pairs(sub, action.algebra, rows=rows)


def _family(field, family):
    """The two witnesses of a family, as (name, witness) pairs.

    For the embedding families "base>=ext" witnesses the smaller algebra
    (the base of a skew extension, or the invariants) above the larger one
    and "ext>=base" the reverse.
    """
    if family == "kronecker":
        w = catalog.build("kronecker_witness", field=field)
        return [("kronecker", w), ("kronecker^op", witnesses.transport_opposite(w))]
    if family == "dual*C2":
        pair = _skew_pairs(_dual_numbers_sign_action(field))
    elif family == "zigzag*C2":
        pair = _skew_pairs(catalog.build("zigzag_c2", field=field))
    else:  # lambda_rot(n,k)
        n, k = (int(x) for x in family[len("lambda_rot("):-1].split(","))
        pair = _invariant_pairs(catalog.build("lambda_rot", field=field, n=n, k=k))
    return [(f"{family} base>=ext", pair[0]), (f"{family} ext>=base", pair[1])]


def _invariants(cert):
    """Seed-independent facts about a certificate, as plain JSON data."""
    return json.loads(_canon({
        "tensor_dim": cert.tensor_dim,
        "quality_flags": cert.quality_flags,
        "decomposition_ref": cert.decomposition_ref,
    }))


def _verify_job(w, certs, name, invariants, quality):
    def prepare():
        return witnesses.JWitnessPair(w.a, w.b, _fresh(w.m), _fresh(w.n), seed=w.seed)

    def run(pair):
        cert = witnesses.verify_j_geq(pair, quality=quality)
        certs[name] = cert
        text = serialize.canon_json(serialize.certificate_doc(cert))
        got = _invariants(cert)
        want = invariants.setdefault(name, got)
        if got != want:
            raise WrongAnswer(f"certificate invariants {_canon(got)} != recorded {_canon(want)}")
        return text

    return Job(f"verify {name}", run, prepare)


def _replay_job(certs, name):
    def run(_):
        if not witnesses.replay_certificate(certs.pop(name)):
            raise WrongAnswer("certificate does not replay")
        return "replays"

    return Job(f"replay {name}", run)


def _cli_job(argv, exit_code, key, value):
    def run(_):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(argv))
        text = out.getvalue()
        if code != exit_code:
            raise WrongAnswer(f"exit code {code}, expected {exit_code}: {text[:200]}")
        if json.loads(text)["results"].get(key) != value:
            raise WrongAnswer(f"report results.{key} is not {value}")
        return f"exit {code}\n{text}"

    return Job("cli " + " ".join(argv), run)


def _verify_workload(seed, field_name, selected, quality, cli_jobs, invariants):
    """Verify and replay jobs for the selected witnesses, then the CLI jobs.

    invariants maps a witness name to its recorded _invariants; a witness
    without an entry records the first one it produces.
    """
    field = field_from_name(field_name)
    certs = {}
    jobs = []
    for family, directions in selected.items():
        named = _family(field, family)
        for direction in directions:
            name, w = named[direction]
            w = witnesses.JWitnessPair(w.a, w.b, w.m, w.n, seed=_derive(seed, len(jobs)))
            for alg in (w.a, w.b):
                _warm(alg, seed=w.seed)
            jobs.append(_verify_job(w, certs, name, invariants, quality))
            jobs.append(_replay_job(certs, name))
    for argv, exit_code, key, value in cli_jobs(seed):
        jobs.append(_cli_job(argv, exit_code, key, value))
    return jobs


# family -> directions verified (indices into _family's pair)
VERIFY_GF101_PAIRS = {
    "kronecker": (0, 1),
    "dual*C2": (0, 1),
    "zigzag*C2": (0, 1),
    "lambda_rot(2,2)": (0, 1),
    "lambda_rot(3,2)": (0, 1),
    "lambda_rot(2,3)": (0, 1),
}

# Over Q the ext>=base directions cost 5 to 7 s each and zigzag*C2 minutes,
# and the quality flags add 1.5 to 2 s to every witness, so verify-q checks
# the cheap directions without quality flags (as verify-jgeq --no-quality
# does); see NOTES.md.
VERIFY_Q_PAIRS = {"kronecker": (0, 1), "dual*C2": (0,), "lambda_rot(2,2)": (0,)}


def _gf101_cli_jobs(seed):
    # witness-search runs at a fixed search seed: its cost swings between
    # 0.25 s and 1.5 s with the search seed, which would make the pass time
    # depend on the workload seed.  Both searches give up (exit 3).
    search = ["--budget", "20", "--format", "json", "--seed", "0"]
    return [
        (["verify-jgeq", "catalog:kronecker_witness", "--format", "json", "--seed", str(seed)],
         0, "verified", True),
        (["witness-search", "catalog:trunc_poly?k=2", "catalog:kronecker", *search],
         3, "found", False),
        (["witness-search", "catalog:trunc_poly?k=3", "catalog:trunc_poly?k=2", *search],
         3, "found", False),
    ]


def _q_cli_jobs(seed):
    return [
        (["verify-jgeq", "catalog:kronecker_witness", "--field", "Q", "--no-quality",
          "--format", "json", "--seed", str(seed)], 0, "verified", True),
    ]


def build_verify_gf101(seed, invariants):
    return _verify_workload(seed, "GF(101)", VERIFY_GF101_PAIRS, True, _gf101_cli_jobs, invariants)


def build_verify_q(seed, invariants):
    return _verify_workload(seed, "Q", VERIFY_Q_PAIRS, False, _q_cli_jobs, invariants)


WORKLOADS = {
    "lrproj-gf101": build_lrproj,
    "verify-gf101": build_verify_gf101,
    "verify-q": build_verify_q,
}
