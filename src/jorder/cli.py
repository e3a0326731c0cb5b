"""Command line driver: build, inspect, verify, and reproduce.

Every command emits one report, rendered as text or as canonical JSON.
Reports are deterministic for fixed inputs and seed: the timing field is
always null and wall-clock time goes to stderr, never into the report.

Exit codes: 0 every asserted check passed; 2 a check failed and the report
carries the evidence, or an internal invariant check failed; 3 a bounded
search or decomposition gave up without an answer; 4 malformed input.
Errors are emitted as machine-readable JSON objects on stdout.
"""

import argparse
import json
import os
import sys
import time
from pathlib import Path

from . import catalog, serialize, suite
from .algebras import algebra_from_quiver
from .decomp import decompose, is_connected, is_symmetric
from .errors import (
    BadCharacteristic,
    BadParams,
    Inconclusive,
    InvalidInput,
    JorderError,
    NotAdmissible,
    NotASummand,
    NotFiniteDimensional,
    UnknownEntry,
    UnsupportedField,
)
from .fields import field_from_name
from .groups import AlgebraAction
from .modules import is_self_injective, tensor_over
from .quivers import parse_presentation
from .witnesses import (
    JWitnessPair,
    replay_certificate,
    verify_j_geq,
    witness_search,
)

CATALOG_SCHEME = "catalog:"


# ---- input plumbing -----------------------------------------------------------


def _read_text(path):
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise InvalidInput(f"cannot read {path}: {exc.strerror or exc}") from exc


def _load_json(path):
    text = _read_text(path)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise InvalidInput(f"{path}: the document is not a JSON object")
    return doc, text


def _algebra_from_file(path):
    text = _read_text(path)
    field, pres = parse_presentation(text)
    return algebra_from_quiver(pres, field, label=Path(path).stem), text


def _resolve_ref(ref, field=None, base_dir=None):
    """(object, content) for a catalog URI or a presentation file path.

    content is the exact text whose hash pins the input: the file bytes, or
    a canonical dump for catalog entries.
    """
    if ref.startswith(CATALOG_SCHEME):
        obj = catalog.resolve(ref, field=field)
        return obj, _canonical_dump(obj)
    path = Path(ref)
    if base_dir is not None and not path.is_absolute():
        path = Path(base_dir) / path
    alg, text = _algebra_from_file(path)
    return alg, text


def _canonical_dump(obj):
    if isinstance(obj, JWitnessPair):
        return serialize.canon_json(serialize.witness_doc(obj))
    if isinstance(obj, AlgebraAction):
        field = obj.algebra.field
        bundle = {
            "format": "action-bundle",
            "algebra": serialize.algebra_doc(obj.algebra),
            "group_order": obj.group.order,
            "matrices": [serialize.matrix_out(field, m) for m in obj.matrices],
        }
        return serialize.canon_json(bundle)
    return serialize.presentation_text(obj) if (
        obj.provenance is not None and obj.provenance.kind == "quiver"
    ) else serialize.canon_json(serialize.algebra_doc(obj))


def _algebra_resolver(field=None, base_dir=None):
    def resolver(ref):
        obj, _ = _resolve_ref(ref, field=field, base_dir=base_dir)
        if isinstance(obj, (JWitnessPair, AlgebraAction)):
            raise InvalidInput(f"{ref!r} does not name an algebra")
        return obj

    return resolver


def _bimodule_from_file(path, field=None):
    """(module, file text, (left_ref, right_ref)) for a bimodule document."""
    doc, text = _load_json(path)
    if doc.get("format") != "bimodule":
        raise InvalidInput(f"{path}: not a bimodule document")
    resolver = _algebra_resolver(field=field, base_dir=Path(path).parent)
    left_ref = serialize._doc_value(doc, "left_algebra_ref", required=False)
    right_ref = serialize._doc_value(doc, "right_algebra_ref", required=False)
    if not left_ref or not right_ref:
        raise InvalidInput(f"{path}: bimodule document needs left_algebra_ref and right_algebra_ref")
    left = resolver(left_ref)
    right = resolver(right_ref)
    return serialize.bimodule_from_doc(doc, left, right), text, (left_ref, right_ref)


def _rebase_ref(ref, doc_path, out):
    """An algebra ref read beside doc_path, made relative to the report's directory.

    The report's directory is the parent of out, or the working directory
    when the report goes to stdout. Catalog and absolute refs are unchanged.
    """
    if ref.startswith(CATALOG_SCHEME) or Path(ref).is_absolute():
        return ref
    report_dir = Path(out).parent if out else Path.cwd()
    return os.path.relpath(Path(doc_path).parent / ref, report_dir)


def _input_entry(ref, content):
    return {"ref": str(ref), "sha256": serialize.hash_text(content)}


# ---- report plumbing ------------------------------------------------------------


def _report(command, inputs, results, certificates=None, seed=None):
    return {
        "format": "jorder-report",
        "version": serialize.FORMAT_VERSION,
        "command": command,
        "inputs": inputs,
        "seed": seed,
        "results": results,
        "certificates": certificates or [],
        "timing": None,
    }


def _render_value(value, indent):
    pad = "  " * indent
    lines = []
    if isinstance(value, dict):
        for key in value:
            v = value[key]
            if isinstance(v, (dict, list)) and v:
                lines.append(f"{pad}{key}:")
                lines.extend(_render_value(v, indent + 1))
            else:
                lines.append(f"{pad}{key}: {_scalar_text(v)}")
    elif isinstance(value, list):
        for item in value:
            if isinstance(item, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(_render_value(item, indent + 1))
            else:
                lines.append(f"{pad}- {_scalar_text(item)}")
    else:
        lines.append(f"{pad}{_scalar_text(value)}")
    return lines


def _scalar_text(v):
    if v is None:
        return "null"
    if v is True:
        return "true"
    if v is False:
        return "false"
    return str(v)


def _render_text(report):
    lines = [f"# jorder {report['command']}"]
    for entry in report["inputs"]:
        lines.append(f"input: {entry['ref']} sha256={entry['sha256']}")
    if report["seed"] is not None:
        lines.append(f"seed: {report['seed']}")
    if report["command"] == "paper-suite":
        lines.extend(_render_suite_table(report["results"]))
    else:
        lines.extend(_render_value(report["results"], 0))
    n = len(report["certificates"])
    if n:
        lines.append(f"certificates: {n} embedded (use --format json to export)")
    return "\n".join(lines) + "\n"


def _render_suite_table(results):
    lines = [f"catalog self-test: ok ({results['catalog_self_test_entries']} entries)"]
    for row in results["checks"]:
        mark = "PASS" if row["passed"] else "FAIL"
        lines.append(f"{row['id']:>2} {row['name']:<38} {mark}")
    lines.append(
        "all checks passed" if results["all_passed"] else "SOME CHECKS FAILED"
    )
    return lines


def _emit(payload, out):
    if out:
        Path(out).write_text(payload)
        print(f"report written to {out}", file=sys.stderr)
    else:
        sys.stdout.write(payload)


def _finish(report, args, exit_code=0):
    payload = (
        serialize.canon_json(report)
        if args.format == "json"
        else _render_text(report)
    )
    _emit(payload, args.out)
    return exit_code


# ---- commands -------------------------------------------------------------------


def _cmd_algebra_info(args):
    obj, content = _resolve_ref(args.ref, field=args.field)
    results = {}
    if isinstance(obj, JWitnessPair):
        raise InvalidInput(f"{args.ref!r} names a witness pair, not an algebra")
    if isinstance(obj, AlgebraAction):
        results["group"] = {"label": obj.group.label, "order": obj.group.order}
        alg = obj.algebra
    else:
        alg = obj
    dim, layers, simples, loewy = catalog.fingerprint(alg)
    results.update(
        {
            "label": alg.label,
            "field": str(alg.field),
            "dim": dim,
            "simples": simples,
            "radical_layer_dims": list(layers),
            "loewy_length": loewy,
            "connected": bool(is_connected(alg)),
            "self_injective": bool(is_self_injective(alg)),
            "symmetric": bool(is_symmetric(alg)),
        }
    )
    report = _report("algebra-info", [_input_entry(args.ref, content)], results)
    return _finish(report, args)


def _cmd_tensor(args):
    m, m_text, (left_ref, _) = _bimodule_from_file(args.m_file, field=args.field)
    n, n_text, (_, right_ref) = _bimodule_from_file(args.n_file, field=args.field)
    t = tensor_over(m, n)
    left_ref = _rebase_ref(left_ref, args.m_file, args.out)
    right_ref = _rebase_ref(right_ref, args.n_file, args.out)
    results = {
        "m": {"label": m.label, "dim": m.dim},
        "n": {"label": n.label, "dim": n.dim},
        "tensor_dim": t.module.dim,
        "tensor": serialize.bimodule_doc(t.module, left_ref, right_ref),
    }
    inputs = [_input_entry(args.m_file, m_text), _input_entry(args.n_file, n_text)]
    return _finish(_report("tensor", inputs, results), args)


def _cmd_decompose(args):
    m, text, _ = _bimodule_from_file(args.module_file, field=args.field)
    dec = decompose(m, seed=args.seed)
    results = {
        "module_dim": m.dim,
        "summand_dims": sorted(s.module.dim for s in dec.summands),
        "classes": [[d, mult] for d, mult in dec.class_summary()],
    }
    report = _report(
        "decompose",
        [_input_entry(args.module_file, text)],
        results,
        certificates=[{"kind": "decomposition", "certificate": serialize.decomposition_doc(dec)}],
        seed=args.seed,
    )
    return _finish(report, args)


def _load_witness(ref, field, seed):
    if ref.startswith(CATALOG_SCHEME):
        obj = catalog.resolve(ref, field=field)
        if not isinstance(obj, JWitnessPair):
            raise InvalidInput(f"{ref!r} does not name a witness entry")
        content = _canonical_dump(obj)
    else:
        doc, content = _load_json(ref)
        obj = serialize.witness_from_doc(
            doc, resolver=_algebra_resolver(field=field, base_dir=Path(ref).parent)
        )
    if seed is not None and seed != obj.seed:
        obj = JWitnessPair(obj.a, obj.b, obj.m, obj.n, seed=seed)
    return obj, content


def _cmd_verify_jgeq(args):
    w, content = _load_witness(args.witness, args.field, args.seed)
    inputs = [_input_entry(args.witness, content)]
    try:
        cert = verify_j_geq(w, quality=not args.no_quality)
    except NotASummand as exc:
        results = {
            "verified": False,
            "a": w.a.label,
            "b": w.b.label,
            "failure": {"message": str(exc), "evidence": exc.evidence},
        }
        report = _report("verify-jgeq", inputs, results, seed=args.seed)
        return _finish(report, args, exit_code=2)
    results = {
        "verified": True,
        "a": w.a.label,
        "b": w.b.label,
        "tensor_dim": cert.tensor_dim,
        "quality_flags": cert.quality_flags,
        "decomposition_ref": cert.decomposition_ref,
    }
    cert_entry = {
        "kind": "j_geq",
        "certificate": serialize.certificate_doc(cert, witness_ref=args.witness),
    }
    report = _report("verify-jgeq", inputs, results, [cert_entry], seed=args.seed)
    return _finish(report, args)


def _cmd_verify_cert(args):
    doc, text = _load_json(args.cert_file)
    cert = serialize.certificate_from_doc(
        doc, resolver=_algebra_resolver(base_dir=Path(args.cert_file).parent)
    )
    ok = replay_certificate(cert)
    results = {
        "replays": bool(ok),
        "kind": doc.get("kind"),
        "a": cert.witness.a.label,
        "b": cert.witness.b.label,
        "tensor_dim": cert.tensor_dim,
    }
    if not ok:
        t = tensor_over(cert.witness.m, cert.witness.n)
        results["failure"] = {
            "message": (
                "tensor dimension mismatch"
                if t.module.dim != cert.tensor_dim
                else "the split equations do not hold for the recomputed tensor"
            )
        }
    report = _report(
        "verify-cert", [_input_entry(args.cert_file, text)], results
    )
    return _finish(report, args, exit_code=0 if ok else 2)


def _cmd_witness_search(args):
    resolver = _algebra_resolver(field=args.field)
    a = resolver(args.a_ref)
    b = resolver(args.b_ref)
    inputs = [
        _input_entry(args.a_ref, _canonical_dump(a)),
        _input_entry(args.b_ref, _canonical_dump(b)),
    ]
    cert = witness_search(
        a, b, seed=args.seed, budget=args.budget, max_dim=args.max_dim
    )
    if cert is None:
        results = {"found": False, "budget": args.budget}
        report = _report("witness-search", inputs, results, seed=args.seed)
        return _finish(report, args, exit_code=3)
    results = {
        "found": True,
        "tensor_dim": cert.tensor_dim,
        "m_dim": cert.witness.m.dim,
        "n_dim": cert.witness.n.dim,
    }
    cert_entry = {"kind": "j_geq", "certificate": serialize.certificate_doc(cert)}
    report = _report("witness-search", inputs, results, [cert_entry], seed=args.seed)
    return _finish(report, args)


def _cmd_paper_suite(args):
    self_test = catalog.self_test()
    outcome = suite.run_all(seed=args.seed)
    checks = [
        {k: v for k, v in row.items() if not k.startswith("_")}
        for row in outcome["checks"]
    ]
    certificates = []
    for row in outcome["checks"]:
        for w, cert, label in row.get("_certificates", ()):
            certificates.append(
                {
                    "check": row["id"],
                    "label": label,
                    "kind": "j_geq",
                    "certificate": serialize.certificate_doc(cert),
                }
            )
    results = {
        "catalog_self_test_entries": len(self_test),
        "all_passed": outcome["all_passed"],
        "checks": checks,
    }
    elapsed = sum(row["_elapsed"] for row in outcome["checks"])
    print(f"[timing] suite total {elapsed:.2f}s", file=sys.stderr)
    report = _report("paper-suite", [], results, certificates, seed=args.seed)
    return _finish(report, args, exit_code=0 if outcome["all_passed"] else 2)


def _cmd_catalog_list(args):
    rows = []
    for e in catalog.entries():
        params = ", ".join(f"{name}={lo}..{hi}" for name, lo, hi in e.params)
        rows.append(
            {
                "id": e.id,
                "kind": e.kind,
                "params": params,
                "description": e.description,
            }
        )
    report = _report("catalog-list", [], {"entries": rows})
    return _finish(report, args)


def _cmd_catalog_dump(args):
    ref = args.entry if args.entry.startswith(CATALOG_SCHEME) else CATALOG_SCHEME + args.entry
    obj = catalog.resolve(ref, field=args.field)
    if args.format == "json" and not isinstance(obj, (JWitnessPair, AlgebraAction)):
        payload = serialize.canon_json(serialize.algebra_doc(obj))
    else:
        payload = _canonical_dump(obj)
    _emit(payload, args.out)
    return 0


# ---- argument parsing -------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage; the contract reserves 4."""

    def error(self, message):
        self.exit(4, f"{self.prog}: error: {message}\n")


def _add_common(sp, *, field=False, seed=False):
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.add_argument("--out", default=None, help="write the report to this path")
    if field:
        sp.add_argument("--field", default=None, help="ground field: GF(p) or Q")
    if seed:
        sp.add_argument("--seed", type=int, default=0, help="deterministic seed")


def build_parser():
    p = _Parser(prog="jorder", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("algebra-info", help="dimensions, layers, and flags of an algebra")
    sp.add_argument("ref", help="catalog:entry?params URI or a presentation file")
    _add_common(sp, field=True)
    sp.set_defaults(fn=_cmd_algebra_info)

    sp = sub.add_parser("tensor", help="tensor two bimodule files over the shared algebra")
    sp.add_argument("m_file")
    sp.add_argument("n_file")
    _add_common(sp, field=True)
    sp.set_defaults(fn=_cmd_tensor)

    sp = sub.add_parser("decompose", help="indecomposable decomposition of a bimodule file")
    sp.add_argument("module_file")
    _add_common(sp, field=True, seed=True)
    sp.set_defaults(fn=_cmd_decompose)

    sp = sub.add_parser("verify-jgeq", help="verify a witness pair and emit its certificate")
    sp.add_argument("witness", help="catalog witness URI or a witness JSON file")
    sp.add_argument(
        "--no-quality", action="store_true", help="skip the quality flag computations"
    )
    _add_common(sp, field=True, seed=True)
    sp.set_defaults(fn=_cmd_verify_jgeq)

    sp = sub.add_parser("verify-cert", help="replay a certificate file by multiplication only")
    sp.add_argument("cert_file")
    _add_common(sp)
    sp.set_defaults(fn=_cmd_verify_cert)

    sp = sub.add_parser("witness-search", help="bounded random search for a witness pair")
    sp.add_argument("a_ref")
    sp.add_argument("b_ref")
    sp.add_argument("--budget", type=int, default=20, help="number of random attempts")
    sp.add_argument("--max-dim", type=int, default=None, help="skip candidates above this dim")
    _add_common(sp, field=True, seed=True)
    sp.set_defaults(fn=_cmd_witness_search)

    sp = sub.add_parser("paper-suite", help="run the full reproduction suite")
    _add_common(sp, seed=True)
    sp.set_defaults(fn=_cmd_paper_suite)

    sp = sub.add_parser("catalog", help="list or dump catalog entries")
    csub = sp.add_subparsers(dest="catalog_command", required=True)
    sp_list = csub.add_parser("list", help="all entries with parameter ranges")
    _add_common(sp_list)
    sp_list.set_defaults(fn=_cmd_catalog_list)
    sp_dump = csub.add_parser("dump", help="emit one entry in its exchange format")
    sp_dump.add_argument("entry", help="entry id, optionally with ?params")
    _add_common(sp_dump, field=True)
    sp_dump.set_defaults(fn=_cmd_catalog_dump)

    return p


# malformed input: a document or text that does not parse, and a field,
# presentation or catalog build the library does not support
_EXIT_INPUT = (
    InvalidInput, UnknownEntry, BadParams,
    UnsupportedField, NotAdmissible, NotFiniteDimensional, BadCharacteristic,
)


def _error_exit_code(exc):
    if isinstance(exc, Inconclusive):
        return 3
    if isinstance(exc, _EXIT_INPUT) or isinstance(exc, (ValueError, OSError)):
        return 4
    return 2


def main(argv=None):
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        if getattr(args, "seed", None) is not None and not 0 <= args.seed < 2**64:
            raise InvalidInput(f"seed must fit in an unsigned 64-bit word, got {args.seed}")
        for flag, value in (("--budget", getattr(args, "budget", None)), ("--max-dim", getattr(args, "max_dim", None))):
            if value is not None and value < 0:
                raise InvalidInput(f"{flag} must not be negative, got {value}")
        args.field = field_from_name(args.field) if getattr(args, "field", None) else None
        code = args.fn(args)
    except (JorderError, ValueError, OSError, AssertionError) as exc:
        error = {
            "error": {
                "type": type(exc).__name__,
                "message": str(exc),
            }
        }
        if isinstance(exc, NotASummand) and exc.evidence is not None:
            error["error"]["evidence"] = exc.evidence
        sys.stdout.write(serialize.canon_json(error))
        return _error_exit_code(exc)
    finally:
        print(f"[timing] {time.perf_counter() - t0:.2f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
