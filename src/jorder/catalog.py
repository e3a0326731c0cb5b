"""Named builders for the worked example algebras, actions, and witness pairs.

Every entry records an expected fingerprint: dimension, radical layer
dimensions, number of simple modules, and Loewy length.  A builder recomputes
the fingerprint of whatever it constructed and refuses to return an object
that disagrees, so hand-entered structure constants and matrices are guarded
against transcription slips.

Entries are addressable as ``catalog:`` URIs with query-string parameters,
for example ``catalog:trunc_poly?k=3`` or ``catalog:lambda?n=2&k=2``.
"""

from dataclasses import dataclass
from urllib.parse import parse_qsl

from .algebras import algebra_from_quiver
from .decomp import decompose
from .errors import BadCharacteristic, BadParams, FingerprintMismatch, UnknownEntry
from .fields import GF, _is_prime, field_from_name
from .groups import AlgebraAction, FiniteGroup, skew_group_algebra
from .modules import Module, left_regular_module, top_of
from .quivers import Quiver, QuiverPresentation, path_from_arrow_labels
from .witnesses import JWitnessPair

URI_SCHEME = "catalog:"


def fingerprint(algebra):
    """(dim, radical layer dims down to 0, number of simples, Loewy length)."""
    layers = tuple(algebra.loewy_layer_dims())
    prov = algebra.provenance
    if prov is not None and prov.kind == "quiver":
        n_simples = len(prov.data["vertex_index"])
    else:
        # decompose groups the top's summands into certified isomorphism classes
        top, _ = top_of(left_regular_module(algebra))
        n_simples = len(decompose(top, seed=0).classes)
    return (algebra.dim, layers, n_simples, algebra.loewy_length())


@dataclass(frozen=True)
class CatalogEntry:
    id: str
    kind: str  # "algebra" | "action" | "witness"
    params: tuple  # ((name, lo, hi), ...) for integer parameters
    description: str
    builder: object
    expected: object  # params dict -> expectation for the check
    group_order: object = None  # params dict -> |G|, for entries carrying actions
    validate: object = None  # custom parameter validation, overrides the ranges


# ---- quiver builders ---------------------------------------------------------


def _linear_mod_rk(field, n, k):
    quiver = Quiver(
        [str(i) for i in range(1, n + 1)],
        [(f"a{i}", str(i), str(i + 1)) for i in range(1, n)],
    )
    rels = []
    for start in range(1, n - k + 1):
        labels = [f"a{start + t}" for t in range(k)]
        rels.append([(field.one, path_from_arrow_labels(quiver, labels))])
    pres = QuiverPresentation(quiver, rels)
    return algebra_from_quiver(pres, field, label=f"kA{n}/R{k}")


def _linear_mod_rk_fp(n, k):
    depth = min(n, k)
    layer = lambda j: sum(n - t for t in range(j, depth))
    return (layer(0), tuple(layer(j) for j in range(depth)) + (0,), n, depth)


def _trunc_poly(field, k):
    if k == 1:
        quiver = Quiver(["1"], [])
        pres = QuiverPresentation(quiver, [])
    else:
        quiver = Quiver(["1"], [("x", "1", "1")])
        rel = [(field.one, path_from_arrow_labels(quiver, ["x"] * k))]
        pres = QuiverPresentation(quiver, [rel], max_path_length=k + 1)
    return algebra_from_quiver(pres, field, label=f"k[x]/x^{k}")


def _cycle_quiver(n):
    return Quiver(
        [str(i) for i in range(1, n + 1)],
        [(f"a{i}", str(i), str(i % n + 1)) for i in range(1, n + 1)],
    )


def _lambda(field, n, k):
    quiver = _cycle_quiver(n)
    rels = []
    for v in range(1, n + 1):
        labels = [f"a{(v - 1 + t) % n + 1}" for t in range(k)]
        rels.append([(field.one, path_from_arrow_labels(quiver, labels))])
    pres = QuiverPresentation(quiver, rels, max_path_length=k + 1)
    return algebra_from_quiver(pres, field, label=f"Lambda_{n}^({k})")


def _lambda_fp(n, k):
    return (n * k, tuple(n * (k - j) for j in range(k)) + (0,), n, k)


def _kronecker(field):
    quiver = Quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2")])
    return algebra_from_quiver(QuiverPresentation(quiver, []), field, label="Theta")


def _a3prime(field):
    quiver = Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "3", "2")])
    return algebra_from_quiver(QuiverPresentation(quiver, []), field, label="A3prime")


def _c4_algebra(field):
    quiver = Quiver(
        ["1", "2", "3", "4"],
        [("a1", "1", "2"), ("a2", "2", "3"), ("a3", "3", "4")],
    )
    rel = [(field.one, path_from_arrow_labels(quiver, ["a2", "a3"]))]
    return algebra_from_quiver(QuiverPresentation(quiver, [rel]), field, label="C4")


def _qprime(field, n):
    # odd vertices are sources, even vertices sinks, around a length-2n cycle
    verts = [str(i) for i in range(1, 2 * n + 1)]
    arrows = [("a1", "1", "2"), ("b1", "1", str(2 * n))]
    for i in range(2, n + 1):
        arrows.append((f"a{i}", str(2 * i - 1), str(2 * i)))
        arrows.append((f"b{i}", str(2 * i - 1), str(2 * i - 2)))
    quiver = Quiver(verts, arrows)
    return algebra_from_quiver(QuiverPresentation(quiver, []), field, label=f"Qprime_{n}")


def _zigzag(field):
    quiver = Quiver(["1", "2"], [("a", "1", "2"), ("b", "2", "1")])
    rels = [
        [(field.one, path_from_arrow_labels(quiver, ["a", "b"]))],
        [(field.one, path_from_arrow_labels(quiver, ["b", "a"]))],
    ]
    return algebra_from_quiver(QuiverPresentation(quiver, rels), field, label="zigzag")


# ---- quiver symmetries as algebra automorphisms ------------------------------


def _relabel_matrix(algebra, vertex_map, arrow_map):
    """Permutation matrix of the automorphism induced by a quiver symmetry."""
    field = algebra.field
    order = {lab: i for i, lab in enumerate(algebra.labels)}
    mat = field.zeros((algebra.dim, algebra.dim))
    for lab, i in order.items():
        if lab.startswith("e_"):
            image = f"e_{vertex_map[lab[2:]]}"
        else:
            image = "*".join(arrow_map[piece] for piece in lab.split("*"))
        mat[order[image], i] = field.one
    return mat


def _zigzag_c2(field):
    alg = _zigzag(field)
    swap = _relabel_matrix(alg, {"1": "2", "2": "1"}, {"a": "b", "b": "a"})
    return AlgebraAction(FiniteGroup.cyclic(2), alg, [field.eye(alg.dim), swap])


def _lambda_rot(field, n, k):
    alg = _lambda(field, n, k)
    vmap = {str(i): str(i % n + 1) for i in range(1, n + 1)}
    amap = {f"a{i}": f"a{i % n + 1}" for i in range(1, n + 1)}
    rot = _relabel_matrix(alg, vmap, amap)
    mats = [field.eye(alg.dim)]
    for _ in range(n - 1):
        mats.append(field.canon(field.matmul(rot, mats[-1])))
    return AlgebraAction(FiniteGroup.cyclic(n), alg, mats)


# ---- the explicit witness pair -----------------------------------------------


def _kronecker_witness(field):
    """Bimodule pair (M, N) over (dual numbers, Kronecker algebra).

    M has vertex components of dimension (2, 2); the first arrow acts from
    the second component to the first by the identity block, the second
    arrow by [[1, 0], [1, 1]], and x acts on each component by the nilpotent
    Jordan block.  N carries the transposed data with the sides exchanged.
    """
    d = _trunc_poly(field, 2)
    th = _kronecker(field)
    lm = field.zeros((2, 4, 4))
    rm = field.zeros((4, 4, 4))
    lm[0] = field.eye(4)
    lm[1][1, 0] = field.one
    lm[1][3, 2] = field.one
    for i in (0, 1):
        rm[0][i, i] = field.one
    for i in (2, 3):
        rm[1][i, i] = field.one
    rm[2][0, 2] = field.one
    rm[2][1, 3] = field.one
    rm[3][0, 2] = field.one
    rm[3][1, 2] = field.one
    rm[3][1, 3] = field.one
    m = Module(d, th, lm, rm, "M", check=True)
    ln = field.zeros((4, 4, 4))
    rn = field.zeros((2, 4, 4))
    for i in (0, 1):
        ln[0][i, i] = field.one
    for i in (2, 3):
        ln[1][i, i] = field.one
    ln[2][2, 0] = field.one
    ln[2][3, 1] = field.one
    ln[3][2, 0] = field.one
    ln[3][3, 0] = field.one
    ln[3][3, 1] = field.one
    rn[0] = field.eye(4)
    rn[1][1, 0] = field.one
    rn[1][3, 2] = field.one
    n = Module(th, d, ln, rn, "N", check=True)
    return JWitnessPair(d, th, m, n)


# ---- skew entries ------------------------------------------------------------

_ACTION_ENTRIES = ("zigzag_c2", "lambda_rot")


def _skew_validate(entry, params):
    if "of" not in params:
        raise BadParams("skew: missing parameter 'of' naming an action entry")
    of = params["of"]
    if of not in _ACTION_ENTRIES:
        raise BadParams(f"skew: 'of' must be one of {_ACTION_ENTRIES}, got {of!r}")
    rest = {k: v for k, v in params.items() if k != "of"}
    _validate_params(CATALOG[of], rest)


def _skew_builder(field, of, **rest):
    action = build(of, field=field, **rest)
    g = action.group.order
    if field.char and g % field.char == 0:
        raise BadCharacteristic(
            f"skew: the group order {g} is not invertible over {field}; "
            "the recorded fingerprint assumes a semisimple group algebra"
        )
    skew, _ = skew_group_algebra(action)
    return skew


def _skew_expected(params):
    of = params["of"]
    rest = {k: v for k, v in params.items() if k != "of"}
    inner = CATALOG[of]
    dim, layers, _, loewy = inner.expected(rest)
    g = inner.group_order(rest)
    # both supported actions permute the vertices freely and transitively,
    # so the skew algebra has a single simple module
    return (dim * g, tuple(l * g for l in layers), 1, loewy)


# ---- registry ----------------------------------------------------------------


CATALOG = {}

for e in [
    CatalogEntry(
        "A_n",
        "algebra",
        (("n", 1, 50),),
        "radical-square-zero quotient of the linear quiver algebra on n vertices",
        lambda field, n: _linear_mod_rk(field, n, 2),
        lambda p: _linear_mod_rk_fp(p["n"], 2),
    ),
    CatalogEntry(
        "kA_n_mod_Rk",
        "algebra",
        (("n", 1, 50), ("k", 2, 50)),
        "linear quiver algebra on n vertices modulo all paths of length k",
        _linear_mod_rk,
        lambda p: _linear_mod_rk_fp(p["n"], p["k"]),
    ),
    CatalogEntry(
        "trunc_poly",
        "algebra",
        (("k", 1, 50),),
        "truncated polynomial algebra k[x]/(x^k)",
        _trunc_poly,
        lambda p: (p["k"], tuple(range(p["k"], -1, -1)), 1, p["k"]),
    ),
    CatalogEntry(
        "lambda",
        "algebra",
        (("n", 1, 50), ("k", 2, 50)),
        "oriented n-cycle algebra modulo all paths of length k",
        _lambda,
        lambda p: _lambda_fp(p["n"], p["k"]),
    ),
    CatalogEntry(
        "kronecker",
        "algebra",
        (),
        "path algebra of the two-arrow Kronecker quiver",
        _kronecker,
        lambda p: (4, (4, 2, 0), 2, 2),
    ),
    CatalogEntry(
        "A3prime",
        "algebra",
        (),
        "hereditary algebra of the quiver 1 -> 2 <- 3",
        _a3prime,
        lambda p: (5, (5, 2, 0), 3, 2),
    ),
    CatalogEntry(
        "C4_algebra",
        "algebra",
        (),
        "linear quiver algebra on four vertices modulo the path from vertex 2 to vertex 4",
        _c4_algebra,
        lambda p: (8, (8, 4, 1, 0), 4, 3),
    ),
    CatalogEntry(
        "Qprime",
        "algebra",
        (("n", 2, 50),),
        "hereditary algebra on 2n vertices whose odd sources feed both even neighbours on a cycle",
        _qprime,
        lambda p: (4 * p["n"], (4 * p["n"], 2 * p["n"], 0), 2 * p["n"], 2),
    ),
    CatalogEntry(
        "zigzag_c2",
        "action",
        (),
        "order-two action on the zigzag algebra swapping the vertices and the arrows",
        _zigzag_c2,
        lambda p: (4, (4, 2, 0), 2, 2),
        group_order=lambda p: 2,
    ),
    CatalogEntry(
        "lambda_rot",
        "action",
        (("n", 2, 50), ("k", 2, 50)),
        "cyclic rotation action on the oriented n-cycle algebra modulo paths of length k",
        _lambda_rot,
        lambda p: _lambda_fp(p["n"], p["k"]),
        group_order=lambda p: p["n"],
    ),
    CatalogEntry(
        "kronecker_witness",
        "witness",
        (),
        "explicit bimodule pair over the dual numbers and the Kronecker algebra "
        "whose tensor product collapses onto the dual numbers",
        _kronecker_witness,
        lambda p: {
            "a": (2, (2, 1, 0), 1, 2),
            "b": (4, (4, 2, 0), 2, 2),
            "m_dim": 4,
            "n_dim": 4,
        },
    ),
    CatalogEntry(
        "skew",
        "algebra",
        (),
        "skew group algebra of a catalog action entry, named by the 'of' parameter",
        _skew_builder,
        _skew_expected,
        group_order=lambda p: CATALOG[p["of"]].group_order(
            {k: v for k, v in p.items() if k != "of"}
        ),
        validate=_skew_validate,
    ),
]:
    CATALOG[e.id] = e


def entries():
    """All catalog entries in id order."""
    return [CATALOG[key] for key in sorted(CATALOG)]


def _validate_params(entry, params):
    if entry.validate is not None:
        entry.validate(entry, params)
        return
    want = {name: (lo, hi) for name, lo, hi in entry.params}
    unknown = sorted(set(params) - set(want))
    if unknown:
        raise BadParams(f"{entry.id}: unknown parameters {unknown}; expected {sorted(want)}")
    missing = sorted(set(want) - set(params))
    if missing:
        raise BadParams(f"{entry.id}: missing parameters {missing}")
    for name, value in params.items():
        lo, hi = want[name]
        if not isinstance(value, int) or isinstance(value, bool):
            raise BadParams(f"{entry.id}: parameter {name}={value!r} is not an integer")
        if not lo <= value <= hi:
            raise BadParams(f"{entry.id}: parameter {name}={value!r} outside [{lo}, {hi}]")


def _default_field(group_order=None):
    p = 101
    while group_order and group_order % p == 0:
        p += 1
        while not _is_prime(p):
            p += 1
    return GF(p)


def _check_fingerprint(entry, params, obj):
    expected = entry.expected(params)
    if entry.kind == "witness":
        got = {
            "a": fingerprint(obj.a),
            "b": fingerprint(obj.b),
            "m_dim": obj.m.dim,
            "n_dim": obj.n.dim,
        }
    elif entry.kind == "action":
        got = fingerprint(obj.algebra)
    else:
        got = fingerprint(obj)
    if got != expected:
        raise FingerprintMismatch(
            f"{entry.id} with {params}: built fingerprint {got} != recorded {expected}"
        )


def build(entry_id, field=None, **params):
    """Build a catalog entry; raises FingerprintMismatch if the result is off.

    The field defaults to GF(101), moving to the next prime not dividing the
    group order for entries that carry a group action.
    """
    entry = CATALOG.get(entry_id)
    if entry is None:
        raise UnknownEntry(f"unknown catalog entry {entry_id!r}; known: {sorted(CATALOG)}")
    _validate_params(entry, params)
    if field is None:
        order = entry.group_order(params) if entry.group_order else None
        field = _default_field(order)
    elif isinstance(field, str):
        field = field_from_name(field)
    obj = entry.builder(field, **params)
    _check_fingerprint(entry, params, obj)
    return obj


def resolve(uri, field=None):
    """Build a ``catalog:entry?name=value&...`` URI.

    Integer-looking values are parsed as parameters; a ``field`` key
    overrides the default field, as does the ``field`` argument. A key
    given twice, or a ``field`` key naming another field than the ``field``
    argument, is BadParams.
    """
    if not uri.startswith(URI_SCHEME):
        raise UnknownEntry(f"not a catalog URI: {uri!r}")
    rest = uri[len(URI_SCHEME):]
    entry_id, _, query = rest.partition("?")
    params = {}
    pairs = parse_qsl(query, keep_blank_values=True)
    keys = [key for key, _ in pairs]
    repeated = sorted({key for key in keys if keys.count(key) > 1})
    if repeated:
        raise BadParams(f"{entry_id}: repeated parameters {repeated}")
    for key, value in pairs:
        if key == "field":
            if field is None:
                field = value
            elif (field_from_name(field) if isinstance(field, str) else field) != field_from_name(value):
                raise BadParams(f"{entry_id}: the URI names field {value}, the caller field {field}")
            continue
        stripped = value.lstrip("-")
        params[key] = int(value) if stripped.isdigit() and stripped else value
    return build(entry_id, field=field, **params)


SELF_TEST_GRID = [
    ("A_n", {"n": 2}),
    ("A_n", {"n": 4}),
    ("kA_n_mod_Rk", {"n": 4, "k": 3}),
    ("trunc_poly", {"k": 2}),
    ("trunc_poly", {"k": 3}),
    ("lambda", {"n": 3, "k": 2}),
    ("kronecker", {}),
    ("A3prime", {}),
    ("C4_algebra", {}),
    ("Qprime", {"n": 2}),
    ("zigzag_c2", {}),
    ("lambda_rot", {"n": 3, "k": 2}),
    ("kronecker_witness", {}),
    ("skew", {"of": "zigzag_c2"}),
]


def self_test():
    """Build the representative grid; every row re-checks its fingerprint."""
    report = []
    for entry_id, params in SELF_TEST_GRID:
        build(entry_id, **params)
        report.append({"entry": entry_id, "params": dict(params), "ok": True})
    return report
