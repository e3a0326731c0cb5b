"""The invariant fingerprint of an algebra that tests pin catalog-like entries with.

catalog.fingerprint is the one the library uses; this richer dictionary only
serves the tests that freeze it.
"""

from jorder.decomp import block_count, decompose
from jorder.modules import left_regular_module, top_of

from oracles import center


def fingerprint(a, seed=0):
    """Deterministic JSON-ready invariants used to pin down catalog entries."""
    dec = decompose(left_regular_module(a), seed=seed)
    projectives = []
    for cls in dec.classes:
        rep = dec.summands[cls[0]].module
        top, _ = top_of(rep)
        projectives.append([rep.dim, top.dim, len(cls)])
    projectives.sort()
    return {
        "dim": a.dim,
        "field": a.field.name,
        "commutative": a.is_commutative(),
        "loewy_layers": a.loewy_layer_dims(),
        "center_dim": center(a).dim,
        "blocks": block_count(a, seed=seed + 7),
        "projectives": projectives,
    }
