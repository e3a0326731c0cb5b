"""The canonical JSON text as json.dumps writes it: the oracle for serialize.canon_json.

_jsonable is the library's former pre-pass, kept verbatim: it copies the
document with str keys, lists for tuples, and Python ints and bools for
numpy scalars, which json.dumps then writes with sorted keys and a
two-space indent.
"""

import json

import numpy as np


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def oracle_canon_json(doc):
    return json.dumps(_jsonable(doc), sort_keys=True, indent=2, ensure_ascii=True) + "\n"
