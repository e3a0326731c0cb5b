"""Validation runs where objects enter the library, not on what it builds.

A J-order certificate is sound because it replays by multiplication, so
objects the library builds from objects it already holds are not validated
again. With every internal validator made to raise, the Kronecker witness
still decomposes, verifies with its quality flags, and replays, with the
same results as an unpatched run.
"""

from jorder import catalog, modules
from jorder.algebras import Algebra
from jorder.decomp import decompose
from jorder.witnesses import replay_certificate, verify_j_geq


def _run(w):
    dec = decompose(w.m, seed=0)
    cert = verify_j_geq(w, quality=True)
    return dec.class_summary(), cert, replay_certificate(cert)


def test_internal_builds_run_no_validator(monkeypatch):
    want_classes, want, _ = _run(catalog.build("kronecker_witness"))
    w = catalog.build("kronecker_witness")  # the catalog build is a trust boundary

    def refuse(*args, **kwargs):
        raise AssertionError("a validator ran on an internally built object")

    for name in ("_check_associativity", "_check_generators", "_verify_radical"):
        monkeypatch.setattr(Algebra, name, refuse)
    monkeypatch.setattr(modules.Module, "_validate", refuse)
    classes, cert, replays = _run(w)
    assert replays
    assert classes == want_classes
    f = w.a.field
    assert f.eq(cert.section, want.section) and f.eq(cert.retraction, want.retraction)
    assert cert.quality_flags == want.quality_flags
