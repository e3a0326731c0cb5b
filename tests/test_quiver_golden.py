"""Golden digests of algebra_from_quiver.

Each case builds one presentation, either a catalog quiver builder or a
seeded random homogeneous presentation, and digests everything the builder
outputs: the algebra document (table, unit, labels, idempotents), the
entry types of the table, the generators, the radical rows, the presentation
text and the provenance. A case that raises digests its error type and
message instead. The digests were taken from the degree-by-degree builder
before its rewrite around one coordinate reader, so any change of basis
order, scalar type or error shows here.
"""

import hashlib
import random

import pytest

from jorder import catalog
from jorder.algebras import algebra_from_quiver
from jorder.fields import GF, QQ
from jorder.quivers import Path, Quiver, QuiverPresentation
from jorder.serialize import algebra_doc, canon_json, matrix_out, presentation_text

FIELDS = {"GF(2)": GF(2), "GF(3)": GF(3), "GF(101)": GF(101), "Q": QQ}

BUILDERS = {
    "A_3": lambda f: catalog._linear_mod_rk(f, 3, 2),
    "kA_4_mod_R3": lambda f: catalog._linear_mod_rk(f, 4, 3),
    "trunc_poly_1": lambda f: catalog._trunc_poly(f, 1),
    "trunc_poly_4": lambda f: catalog._trunc_poly(f, 4),
    "lambda_3_2": lambda f: catalog._lambda(f, 3, 2),
    "lambda_2_3": lambda f: catalog._lambda(f, 2, 3),
    "kronecker": catalog._kronecker,
    "A3prime": catalog._a3prime,
    "C4_algebra": catalog._c4_algebra,
    "Qprime_2": lambda f: catalog._qprime(f, 2),
    "zigzag": catalog._zigzag,
}

RANDOM_SEEDS = range(48)


def _paths(quiver, length):
    paths = [Path(a.source, a.target, (i,)) for i, a in enumerate(quiver.arrows)]
    for _ in range(length - 1):
        paths = [
            Path(p.source, quiver.arrows[i].target, p.arrows + (i,))
            for p in paths
            for i in quiver.arrows_from(p.target)
        ]
    return paths


def random_presentation(seed, field):
    """A small homogeneous presentation; some persist past max_path_length."""
    rng = random.Random(seed)
    acyclic = rng.random() < 0.5
    nv = rng.randint(3, 4) if acyclic else rng.randint(1, 2)
    vertices = [str(v) for v in range(1, nv + 1)]
    arrows = []
    for i in range(rng.randint(3, 6) if acyclic else rng.randint(2, 3)):
        s = rng.randrange(nv - 1) if acyclic else rng.randrange(nv)
        t = s + 1 if acyclic else rng.randrange(nv)
        arrows.append((f"x{i}", vertices[s], vertices[t]))
    quiver = Quiver(vertices, arrows)
    relations = []
    for _ in range(rng.randint(0, 5)):
        paths = _paths(quiver, rng.choice([2, 2, 3]))
        if not paths:
            continue
        ends = rng.choice(paths)
        same = [p for p in paths if (p.source, p.target) == (ends.source, ends.target)]
        terms = rng.sample(same, min(len(same), rng.randint(1, 3)))
        relations.append([(field.scalar(rng.choice([1, -1, 2, 3, -5])) or field.one, p) for p in terms])
    return QuiverPresentation(quiver, relations, max_path_length=rng.randint(3, 6))


def cases():
    keys = [f"{name}/{f}" for name in BUILDERS for f in FIELDS]
    return keys + [f"random-{s:02d}/{list(FIELDS)[s % 4]}" for s in RANDOM_SEEDS]


def build(key):
    name, field_name = key.split("/")
    field = FIELDS[field_name]
    if name in BUILDERS:
        return BUILDERS[name](field)
    return algebra_from_quiver(random_presentation(int(name.split("-")[1]), field), field)


def digest(key):
    try:
        a = build(key)
    except Exception as exc:  # the error itself is the output being pinned
        text = f"{type(exc).__name__}: {exc}"
    else:
        field, prov = a.field, a.provenance.data
        text = canon_json(
            {
                "doc": algebra_doc(a),
                "types": [str(a.table.dtype), sorted({type(x).__name__ for x in a.table.flat})],
                "generators": matrix_out(field, a.generators) if len(a.generators) else [],
                "radical": matrix_out(field, a.radical_rows()) if len(a.radical_rows()) else [],
                "text": presentation_text(a),
                "acyclic": prov["acyclic"],
                "vertex_index": prov["vertex_index"],
                "degrees": [[d, p.source, p.target, list(p.arrows)] for d, p in prov["degrees"]],
            }
        )
    return hashlib.sha256(text.encode()).hexdigest()[:16]


GOLDEN = {
    'A_3/GF(2)': '413ebcdf346177b2',
    'A_3/GF(3)': 'bdb803c3df0e0535',
    'A_3/GF(101)': '72a91b43cc80446f',
    'A_3/Q': 'a5a3508fdacf763a',
    'kA_4_mod_R3/GF(2)': 'c3f5f2d8b4b2546b',
    'kA_4_mod_R3/GF(3)': '2aeaa9c258613f89',
    'kA_4_mod_R3/GF(101)': '4a9781b3cb86813e',
    'kA_4_mod_R3/Q': '8655deb452a88884',
    'trunc_poly_1/GF(2)': 'fd6839660966bc35',
    'trunc_poly_1/GF(3)': '68409d687b9f95fa',
    'trunc_poly_1/GF(101)': '80975721149da472',
    'trunc_poly_1/Q': '13406ec3ff6f29ab',
    'trunc_poly_4/GF(2)': '740d8787fa62960f',
    'trunc_poly_4/GF(3)': '514045364c244c18',
    'trunc_poly_4/GF(101)': '2f7917a851036fa4',
    'trunc_poly_4/Q': '434020faeb959ffd',
    'lambda_3_2/GF(2)': '34602f02fbbaa38f',
    'lambda_3_2/GF(3)': '98d59a1141e7deba',
    'lambda_3_2/GF(101)': '0d049d45b9a0432c',
    'lambda_3_2/Q': '1d0d9a3c16eb2f0d',
    'lambda_2_3/GF(2)': 'bd1678187eba5e6f',
    'lambda_2_3/GF(3)': '7737b9f5d647d77a',
    'lambda_2_3/GF(101)': 'da0ea237ab56acae',
    'lambda_2_3/Q': 'ca6c1b4ed1b72e13',
    'kronecker/GF(2)': 'aae11bd7e82bc2b6',
    'kronecker/GF(3)': 'f46cb8b42a8bfd43',
    'kronecker/GF(101)': '6fff8da7b8fd0098',
    'kronecker/Q': 'd9a0ed04c04a072b',
    'A3prime/GF(2)': '21ccceaf1a0e35a8',
    'A3prime/GF(3)': '676a85c6e7639c1f',
    'A3prime/GF(101)': 'ba2df7534ceff950',
    'A3prime/Q': 'c293105efcefb50b',
    'C4_algebra/GF(2)': 'af1684d1e737dceb',
    'C4_algebra/GF(3)': '7790f93878b6c451',
    'C4_algebra/GF(101)': '4ff8302b23c734fc',
    'C4_algebra/Q': '1ea1137a8cc96ace',
    'Qprime_2/GF(2)': 'e4e95dc97a0df927',
    'Qprime_2/GF(3)': '62c3187d462f0035',
    'Qprime_2/GF(101)': '86e072d55bc13f3a',
    'Qprime_2/Q': 'f758f3f10a6f6830',
    'zigzag/GF(2)': '479efa6cc46a4bd9',
    'zigzag/GF(3)': '0d9046ec87092a9b',
    'zigzag/GF(101)': '16ae97c6fd7208c0',
    'zigzag/Q': '3f5ba89729118da7',
    'random-00/GF(2)': '48dd9191f7093bda',
    'random-01/GF(3)': 'e0fd19b3587f5297',
    'random-02/GF(101)': '7070244b921f6101',
    'random-03/Q': 'b48718a32c9ae228',
    'random-04/GF(2)': '67ea00862095259f',
    'random-05/GF(3)': 'cbb55326641dd865',
    'random-06/GF(101)': 'cbb55326641dd865',
    'random-07/Q': '8d45f9abc43fb0f1',
    'random-08/GF(2)': '47428462891346d7',
    'random-09/GF(3)': '61da7714fab2f102',
    'random-10/GF(101)': '7070244b921f6101',
    'random-11/Q': 'cf63be141af58039',
    'random-12/GF(2)': '416b1aa2689dfae0',
    'random-13/GF(3)': '12118d6fa2273676',
    'random-14/GF(101)': 'd020f0f9e994dad3',
    'random-15/Q': '626b33d121f33b5d',
    'random-16/GF(2)': '33d1990ed46ec021',
    'random-17/GF(3)': 'f4cdcf36459d8c8c',
    'random-18/GF(101)': '07a2e054f45df814',
    'random-19/Q': 'd40f67908de11139',
    'random-20/GF(2)': '9bc591162d640e87',
    'random-21/GF(3)': 'eb438a0b96a68ea7',
    'random-22/GF(101)': '9bc591162d640e87',
    'random-23/Q': '2880cc40b5d85c26',
    'random-24/GF(2)': '5ce20ca48f4c97b2',
    'random-25/GF(3)': '81c5940974252142',
    'random-26/GF(101)': 'f69926ad37e9c0b8',
    'random-27/Q': '9bc591162d640e87',
    'random-28/GF(2)': 'b8fcfeb9cb024270',
    'random-29/GF(3)': '7070244b921f6101',
    'random-30/GF(101)': '30de4aa2a409aadb',
    'random-31/Q': '5f74ee65c20e32ee',
    'random-32/GF(2)': '5a70e5e360127e86',
    'random-33/GF(3)': '7070244b921f6101',
    'random-34/GF(101)': '34a0a384e7268667',
    'random-35/Q': '7070244b921f6101',
    'random-36/GF(2)': '0da188189733fbe0',
    'random-37/GF(3)': '7cc26744bce82800',
    'random-38/GF(101)': 'f69926ad37e9c0b8',
    'random-39/Q': '75217d17d3e7847e',
    'random-40/GF(2)': '106cf591fec5ff42',
    'random-41/GF(3)': 'a947b997ddd1fd68',
    'random-42/GF(101)': '9bc591162d640e87',
    'random-43/Q': '0c7e9b1f23926850',
    'random-44/GF(2)': '187409103a7fb9e2',
    'random-45/GF(3)': '9cc0c11e01495ba4',
    'random-46/GF(101)': 'cbb55326641dd865',
    'random-47/Q': '4826e32653b9a79f',
}


@pytest.mark.parametrize("key", cases())
def test_quiver_build_matches_golden_digest(key):
    assert digest(key) == GOLDEN[key]
