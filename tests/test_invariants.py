"""Invariant checks in the library must survive python -O.

A bare assert statement is compiled away under -O, so the library raises
AssertionError explicitly instead; this test keeps it that way.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import jorder

SRC = Path(jorder.__file__).resolve().parent


def _calls(node, names):
    return [
        n for n in ast.walk(node)
        if isinstance(n, ast.Call) and getattr(n.func, "attr", getattr(n.func, "id", None)) in names
    ]


def test_library_has_no_assert_statements():
    sources = sorted(SRC.rglob("*.py"))
    assert sources, "no library sources found"
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_tensor_and_subquotients_build_no_kronecker_matrix():
    """tensor_over reads its projection off one reversed elimination of the
    Hom rows _hom_rows solves, and it, submodule, _submodule_on and _quotient
    induce actions by batched products: none of them may fall back to a
    Kronecker matrix."""
    names = ("tensor_over", "submodule", "_submodule_on", "_quotient")
    tree = ast.parse((SRC / "modules.py").read_text())
    functions = {
        node.name: node for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name in names
    }
    assert set(functions) == set(names)
    found = [f"{name}:{node.lineno}" for name, fn in functions.items() for node in _calls(fn, ("kron",))]
    assert found == []


def test_echelon_bases_are_read_without_a_second_elimination():
    """row_basis, radical_rows, radical_sub_rows and hom_space return reduced echelon bases:
    vectors are read against them with linalg.coords_in_row_basis and
    linalg.complement_projection, never by eliminating them again, and
    linalg.quotient_projection, which eliminates its rows, takes the
    unreduced _hom_rows in tensor_over, never an echelon basis. The
    solve-based span helpers stay deleted."""
    echelon_sources = ("row_basis", "radical_rows", "radical_sub_rows", "hom_space")
    removed = {"in_row_span", "span_dim_after_adding", "kronecker_product", "_complement_projection"}
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}: {name}"
            for node in ast.walk(tree)
            for name in [getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None)]
            if name in removed
        ]
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            echelon = {
                target.id
                for assign in ast.walk(fn) if isinstance(assign, ast.Assign) and _calls(assign.value, echelon_sources)
                for target in ast.walk(assign.targets[0]) if isinstance(target, ast.Name)
            }
            for call in _calls(fn, ("solve", "rref", "rank", "quotient_projection")):
                for arg in call.args:
                    if _calls(arg, echelon_sources) or any(
                        isinstance(n, ast.Name) and n.id in echelon for n in ast.walk(arg)
                    ):
                        found.append(f"{path.name}:{call.lineno}: {fn.name} eliminates an echelon basis again")
    assert found == []
    tree = ast.parse((SRC / "modules.py").read_text())
    (tensor,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "tensor_over"]
    (call,) = _calls(tensor, ("quotient_projection",))
    assert [getattr(arg.func, "id", None) for arg in call.args[1:]] == ["_hom_rows"]


# GF(p)-only code that needs an unreduced integer product and reduces mod p
# itself: the integer trace of a square in the chain radical's Gram matrix
_RAW_PRODUCTS_ALLOWED = {
    ("algebras.py", "_chain_gram"),
}


def _raw_products(tree):
    """(enclosing function, line) of each np.dot/np.matmul/np.tensordot-like call, .dot call and @."""
    found = []

    def visit(node, fn):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node.name
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and (
            node.func.attr == "dot"
            or (node.func.attr in ("matmul", "tensordot", "einsum", "inner", "vdot")
                and isinstance(node.func.value, ast.Name) and node.func.value.id in ("np", "numpy"))
        ):
            found.append((fn, node.lineno))
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((fn, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, fn)

    visit(tree, None)
    return found


def test_every_product_goes_through_the_field():
    """Products of field data go through field.matmul or field.tensordot,
    which reduce mod p or multiply integer numerators over Q; fields.py alone
    holds the raw numpy products, apart from the GF(p)-only functions above."""
    found, used = [], set()
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "fields.py":
            continue
        for fn, line in _raw_products(ast.parse(path.read_text(), filename=str(path))):
            if (path.name, fn) in _RAW_PRODUCTS_ALLOWED:
                used.add((path.name, fn))
            else:
                found.append(f"{path.name}:{line}: {fn}")
    assert found == []
    assert used == _RAW_PRODUCTS_ALLOWED  # no stale entries


_BANNED_CALLS = {("tensordot", "np"), ("kron", "np"), ("dumps", "json")}


def test_products_and_documents_go_through_the_lean_kernels():
    """Every product goes through a field kernel and every document through
    canon_json: src/jorder calls no np.tensordot, np.kron or json.dumps and
    imports none of them by name, and the _jsonable pre-pass stays deleted.
    At the library's sizes their argument handling costs more than the
    arithmetic (see the fields and serialize headers)."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and isinstance(node.func.value, ast.Name):
                module = "np" if node.func.value.id == "numpy" else node.func.value.id
                if (node.func.attr, module) in _BANNED_CALLS:
                    found.append(f"{where}: {module}.{node.func.attr}")
            if isinstance(node, ast.ImportFrom) and node.module in ("numpy", "json"):
                module = "np" if node.module == "numpy" else "json"
                found += [f"{where}: imports {alias.name}" for alias in node.names if (alias.name, module) in _BANNED_CALLS]
            if "_jsonable" in {getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None)}:
                found.append(f"{where}: _jsonable")
    assert found == []


# Callers that compare two modules by decomposing both: the lrproj check waits
# for the benchmark to stop counting are_isomorphic on lrproj-gf101, and the
# others compare modules for which no certified leaf is held. Every other
# isomorphism question goes through the leaf test summand_isomorphism.
_ARE_ISOMORPHIC_CALLERS = {
    ("witnesses.py", "lrproj_projectivity_check"),
    ("witnesses.py", "is_adjoint_pair_witness"),
    ("suite.py", "check_kronecker_certificate"),
    ("suite.py", "check_zigzag_duality"),
    ("decomp.py", "is_symmetric"),
}


def _calls_by_function(tree, names):
    """(innermost enclosing function, line) of each call to one of names."""
    found = []

    def visit(node, fn):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node.name
        if node in calls:
            found.append((fn, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, fn)

    calls = set(_calls(tree, names))
    visit(tree, None)
    return found


def test_isomorphism_questions_go_through_the_leaf_test():
    """are_isomorphic is called only from the allowlist above, and the
    two-summand wrapper _summands_isomorphic stays deleted."""
    found, used, removed = [], set(), []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn, line in _calls_by_function(tree, ("are_isomorphic",)):
            if (path.name, fn) in _ARE_ISOMORPHIC_CALLERS:
                used.add((path.name, fn))
            else:
                found.append(f"{path.name}:{line}: {fn}")
        removed += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if "_summands_isomorphic" in (getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None))
        ]
    assert found == []
    assert removed == []
    assert used == _ARE_ISOMORPHIC_CALLERS  # no stale entries


# the marks of a signed-term pattern: a sign class or a rational coefficient
_SIGNED_TERM_MARKS = ("[+-]", "[^+-]", r"\d+(?:/\d+)?")
# the replaced text readers and writer
_REPLACED_TEXT_CODE = {"emit_presentation", "parse_action", "_parse_combo", "_parse_combination", "action_algebra_ref"}


def test_one_lexer_for_every_text_format():
    """quivers holds the one signed-term pattern and the one directive-line
    loop (the only place a `#` comment is cut), and the replaced readers and
    writer stay deleted."""
    patterns, comment_cuts, replaced = [], [], []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                if any(mark in node.value for mark in _SIGNED_TERM_MARKS):
                    patterns.append(where)
            if isinstance(node, ast.Call) and any(
                isinstance(arg, ast.Constant) and arg.value == "#" for arg in node.args
            ):
                comment_cuts.append(where)
            if _REPLACED_TEXT_CODE & {getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None)}:
                replaced.append(where)
    assert len(patterns) == 1 and patterns[0].startswith("quivers.py:"), patterns
    assert len(comment_cuts) == 1 and comment_cuts[0].startswith("quivers.py:"), comment_cuts
    assert replaced == []


# the replaced per-factor helpers of the change of rings
_REPLACED_CHANGE_OF_RINGS = {"_factor_restriction", "_tensor_with_regular", "_with_primitive_idempotents"}


def test_change_of_rings_goes_through_kron_and_one_restriction():
    """Tensor vectors, tables and action stacks are field.kron, whose axis
    order is the basis order of tensor_algebra, so no np.multiply.outer
    spells that order out again; restrictions are one tensordot along an
    algebra map, so the per-factor helpers stay deleted. _hom_rows, the Hom
    solve behind hom_space and tensor_over, solves every generator through
    the residual, with no Kronecker start: one nullspace call."""
    outers, replaced = [], []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.Attribute) and node.attr == "outer" and getattr(node.value, "attr", None) == "multiply":
                outers.append(where)
            if _REPLACED_CHANGE_OF_RINGS & {getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None)}:
                replaced.append(where)
    assert outers == []
    assert replaced == []
    tree = ast.parse((SRC / "modules.py").read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert len(_calls(functions["_hom_rows"], ("nullspace",))) == 1
    for name in ("hom_space", "tensor_over"):
        assert _calls(functions[name], ("_hom_rows",)) and not _calls(functions[name], ("nullspace",)), name


# the split wrapper and three members nothing referenced; decomp.fingerprint and
# AlgebraAction.apply are checked as definitions below
_REMOVED_MEMBERS = {"divides_indecomposable", "label_of", "element_to_str", "iter_scalars"}


def test_per_algebra_structure_is_built_in_one_place():
    """Projectives and simples are built once per algebra and held on it:
    is_projective reads their dimensions without building a cover, neither
    builder takes a caller's idempotent family, and the only End(S) of a
    simple is taken in simple_modules, next to decompose's End(M). The
    removed wrappers and dead members stay deleted."""
    tree = ast.parse((SRC / "modules.py").read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert _calls(functions["is_projective"], ("projective_cover",)) == []
    for name in ("projective_indecomposables", "simple_modules"):
        args = functions[name].args
        assert [a.arg for a in args.args + args.kwonlyargs] == ["a"], name
    endomorphisms, removed = [], []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        endomorphisms += [
            (path.name, fn.name)
            for fn in tree.body if isinstance(fn, ast.FunctionDef)
            for call in _calls(fn, ("hom_space",))
            if len(call.args) == 2 and ast.dump(call.args[0]) == ast.dump(call.args[1])
        ]
        for node in ast.walk(tree):
            names = {getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None)}
            if _REMOVED_MEMBERS & names:
                removed.append(f"{path.name}:{node.lineno}")
            if isinstance(node, ast.FunctionDef) and node.name == "fingerprint" and path.name != "catalog.py":
                removed.append(f"{path.name}:{node.lineno}: fingerprint")
            if isinstance(node, ast.ClassDef) and node.name == "AlgebraAction":
                removed += [f"{path.name}:{fn.lineno}: apply" for fn in node.body if getattr(fn, "name", None) == "apply"]
    assert sorted(endomorphisms) == [("decomp.py", "endomorphism_algebra"), ("modules.py", "simple_modules")]
    assert removed == []


def test_endomorphism_algebras_are_solved_only_by_decompose():
    """End(M) is solved at a decomposition's root and nowhere else: a split or
    isomorphism question reads the End of a certified leaf, and an algebra
    holds one leaf per projective."""
    callers = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        callers += [(path.name, fn) for fn, _ in _calls_by_function(tree, ("endomorphism_algebra",))]
    assert callers == [("decomp.py", "decompose")]


def _mentions_by_function(tree, names):
    """(innermost enclosing function, name) of each name or attribute read or written."""
    found = []

    def visit(node, fn):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node.name
        name = getattr(node, "id", None) if isinstance(node, ast.Name) else getattr(node, "attr", None)
        if isinstance(node, (ast.Name, ast.Attribute)) and name in names:
            found.append((fn, name))
        for child in ast.iter_child_nodes(node):
            visit(child, fn)

    visit(tree, None)
    return found


def test_one_rref_entry_chooses_its_loop_by_the_input():
    """linalg.rref is the only way into the three elimination loops:
    _rref_sparse, _rref_rows and _rref_array are named nowhere else, and rref
    takes no option. The row-loop threshold _ROW_KERNEL_NNZ is a literal
    module constant, read only by rref, and the sparse rule's bounds are
    literal ints in rref: rref reads no name but its input, its loops, that
    constant and what it computes, so no environment variable, argument or
    caller can set them."""
    loops = {"_rref_sparse", "_rref_rows", "_rref_array"}
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [
            (path.name, fn, name)
            for fn, name in _mentions_by_function(tree, loops | {"_ROW_KERNEL_NNZ"})
            # the one module-level mention allowed is the constant's own assignment
            if fn is not None or name != "_ROW_KERNEL_NNZ" or path.name != "linalg.py"
        ]
        found += [
            (path.name, node.name, arg.arg)
            for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            for arg in ast.walk(node.args) if isinstance(arg, ast.arg) and arg.arg == "_ROW_KERNEL_NNZ"
        ]
    assert sorted(found) == [
        ("linalg.py", "rref", "_ROW_KERNEL_NNZ"), ("linalg.py", "rref", "_rref_array"),
        ("linalg.py", "rref", "_rref_rows"), ("linalg.py", "rref", "_rref_sparse"),
    ]
    tree = ast.parse((SRC / "linalg.py").read_text())
    (rref,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "rref"]
    assert [arg.arg for arg in rref.args.args] == ["field", "a"] and not rref.args.kwonlyargs
    assert rref.args.vararg is None and rref.args.kwarg is None and not rref.args.defaults
    body = rref.body[1:]  # after the docstring
    read = {node.id for stmt in body for node in ast.walk(stmt) if isinstance(node, ast.Name)}
    assert read <= {"field", "a", "np", "max", "r", "nrows", "ncols", "nnz", "_ROW_KERNEL_NNZ", *loops}, read
    constants = [node.value for stmt in body for node in ast.walk(stmt) if isinstance(node, ast.Constant)]
    assert constants and all(type(c) is int for c in constants), constants
    (threshold,) = [
        node for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign))
        and "_ROW_KERNEL_NNZ" in [getattr(t, "id", None) for t in getattr(node, "targets", [getattr(node, "target", None)])]
    ]
    assert isinstance(threshold.value, ast.Constant) and type(threshold.value.value) is int


def test_one_polynomial_arithmetic_on_coefficient_lists():
    """polynomials.py has one arithmetic, on coefficient lists mod m or over Q:
    no function named poly_* is defined in the library, no private helper of
    polynomials.py takes a field (except _hessenberg, which reduces a matrix),
    and only factor_poly asks whether the field is GF(p), to pick its algorithm."""
    found = [
        (path.name, node.name)
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name.startswith("poly_")
    ]
    assert found == []
    tree = ast.parse((SRC / "polynomials.py").read_text())
    takes_field = [
        node.name
        for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        if node.name.startswith("_") and "field" in [arg.arg for arg in ast.walk(node.args) if isinstance(arg, ast.arg)]
    ]
    assert takes_field == ["_hessenberg"]
    assert sorted({fn for fn, _ in _mentions_by_function(tree, {"GFField"}) if fn is not None}) == ["factor_poly"]


# The functions that may install a primitive idempotent family. Every reader of
# projectives reaches the family through projective_indecomposables, which
# installs it on first use; the enveloping-algebra builders install the
# factors' families so that tensor_algebra copies them instead of decomposing
# the larger regular module.
_PRIMITIVE_FAMILY_INSTALLERS = {
    ("modules.py", "projective_indecomposables"),
    ("witnesses.py", "bimodule_as_env_module"),
    ("witnesses.py", "witness_search"),
}


def test_primitive_families_are_installed_in_one_place():
    """complete_primitive_idempotents is called only from the allowlist above,
    and the reader that raised before a caller installed the family,
    modules._primitive_idempotents, stays deleted."""
    found, used, removed = [], set(), []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn, line in _calls_by_function(tree, ("complete_primitive_idempotents",)):
            if (path.name, fn) in _PRIMITIVE_FAMILY_INSTALLERS:
                used.add((path.name, fn))
            else:
                found.append(f"{path.name}:{line}: {fn}")
        removed += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if "_primitive_idempotents" in (getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None))
        ]
    assert found == []
    assert used == _PRIMITIVE_FAMILY_INSTALLERS  # no stale entries
    assert removed == []


# The two callers of intertwines: is_module_map checks every module map and,
# through is_split, every split; Module._validate checks that the two actions
# of a bimodule commute.
_INTERTWINES_CALLERS = {
    ("modules.py", "is_module_map"),
    ("modules.py", "_validate"),
}
# the split assembly and check that split_maps and is_split replace
_REPLACED_SPLIT_CODE = {"_pair_summands", "_verify_split"}


def test_module_maps_and_splits_are_checked_in_one_place():
    """intertwines is called only from the allowlist above, the replaced split
    code stays deleted, and nothing outside modules.py imports the generator
    actions to check a map by hand."""
    found, used, removed, imports = [], set(), [], []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn, line in _calls_by_function(tree, ("intertwines",)):
            if (path.name, fn) in _INTERTWINES_CALLERS:
                used.add((path.name, fn))
            else:
                found.append(f"{path.name}:{line}: {fn}")
        for node in ast.walk(tree):
            if _REPLACED_SPLIT_CODE & {getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None)}:
                removed.append(f"{path.name}:{node.lineno}")
            if path.name != "modules.py" and isinstance(node, ast.ImportFrom) and any(
                alias.name == "_all_generator_actions" for alias in node.names
            ):
                imports.append(f"{path.name}:{node.lineno}")
    assert found == []
    assert removed == []
    assert imports == []
    assert used == _INTERTWINES_CALLERS  # no stale entries


# The callers of the one-element reads of the table. Every other reader takes
# it in one of two shapes, algebras.pair_products or the regular stacks:
# Module._validate checks one generator at a time (all at once would hold
# G dim d^2 entries), and projective_indecomposables spans A e from R(e).
_ONE_ELEMENT_READERS = {
    ("modules.py", "_validate"),
    ("modules.py", "projective_indecomposables"),
}


def test_the_table_is_read_in_two_shapes():
    """left_mult_matrix, right_mult_matrix and basis_vector are called only
    from the allowlist above."""
    found, used = [], set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn, line in _calls_by_function(tree, ("left_mult_matrix", "right_mult_matrix", "basis_vector")):
            if (path.name, fn) in _ONE_ELEMENT_READERS:
                used.add((path.name, fn))
            else:
                found.append(f"{path.name}:{line}: {fn}")
    assert found == []
    assert used == _ONE_ELEMENT_READERS  # no stale entries


# random sources: the field's sampler, numpy's generators, and "random" for np.random and the stdlib module
_RANDOMNESS = {"rand_mat", "default_rng", "SeedSequence", "Generator", "random"}


def test_algebra_validation_draws_no_randomness():
    """algebras.py names no random source: every check on an algebra is exact, none is sampled."""
    found = []
    for node in ast.walk(ast.parse((SRC / "algebras.py").read_text())):
        name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
        if isinstance(node, (ast.Name, ast.Attribute, ast.alias)) and name.split(".")[-1] in _RANDOMNESS:
            found.append(f"algebras.py:{node.lineno}: {name}")
    assert found == []


def test_no_library_module_imports_sympy():
    """The library factors polynomials itself; sympy is a test oracle only."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for name in names if name.split(".")[0] == "sympy"]
    assert found == []


def test_importing_the_cli_loads_no_sympy():
    code = "import sys, jorder.cli, jorder.catalog, jorder.witnesses, jorder.serialize; print('sympy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


# builder -> the one held reader that may call it
_HELD_READERS = {"_pieces": "_graded"}


def test_module_structure_is_read_through_the_held_readers():
    """A module's graded pieces are built only by their held reader in
    modules.py; _hom_rows, the Hom solve behind hom_space and tensor_over,
    reads them held, through the frame and the generator matrices in piece
    coordinates, and takes no action of a single element and no Kronecker
    product. The generators' action matrices are
    not held: Module._validate, _piece_actions and _all_generator_actions,
    which submodule reads, take them from _generator_actions, and the
    generator-stack slot stays deleted."""
    found, used = [], set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn, line in _calls_by_function(tree, tuple(_HELD_READERS)):
            if path.name == "modules.py" and fn in _HELD_READERS.values():
                used.add(fn)
            else:
                found.append(f"{path.name}:{line}: {fn}")
        for node in ast.walk(tree):
            names = {getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None)}
            if names & {"_generator_stack", "_generator_stacks"}:
                found.append(f"{path.name}:{node.lineno}: a held generator stack")
    assert found == []
    assert used == set(_HELD_READERS.values())
    tree = ast.parse((SRC / "modules.py").read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    (module,) = [node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "Module"]
    functions["_validate"] = next(fn for fn in module.body if getattr(fn, "name", None) == "_validate")
    hom = functions["_hom_rows"]
    assert _calls(functions["hom_space"], ("_hom_rows",))
    assert _calls(hom, ("_frame",)) and _calls(hom, ("_piece_actions",))
    assert _calls(functions["_frame"], ("_graded",))
    assert _calls(hom, ("left_action", "right_action", "kron")) == []
    assert _calls(functions["submodule"], ("_all_generator_actions",))
    for name in ("_validate", "_piece_actions", "_all_generator_actions"):
        assert _calls(functions[name], ("_generator_actions",)), name


# top-level public functions and public methods (as "Class.method") with no
# caller in src/jorder yet, each kept for the ROADMAP item that will call it
_UNCALLED_ALLOWED = {
    ("algebras.py", "quotient_algebra"),  # item 2: A/J >_J A from the quotient map
    ("witnesses.py", "compose_witnesses"),  # item 10: the J-order atlas composes witnesses
    ("witnesses.py", "verify_j_equiv"),  # item 10: the atlas certifies J-equivalences
    ("serialize.py", "verify_decomposition_doc"),  # item 11: replayable Krull-Schmidt certificates
}


def _uncalled_public_functions(trees):
    """(module, name) of every top-level public function, and (module,
    "Class.method") of every public method of a top-level class, in trees
    ({module: parsed source}) that no code in trees names outside its own
    body."""
    referenced = {}  # name -> {(module, enclosing function or "Class.method")}
    defined = []  # (module, name read by callers, owner)
    for name, tree in trees.items():
        for top in tree.body:
            classdef = isinstance(top, ast.ClassDef)
            members = top.body + top.decorator_list + top.bases + top.keywords if classdef else [top]
            for member in members:
                owner = getattr(member, "name", None)
                if classdef:
                    owner = f"{top.name}.{owner}" if isinstance(member, ast.FunctionDef) else top.name
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                    defined.append((name, member.name, owner))
                for node in ast.walk(member):
                    ref = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
                    if ref is not None:
                        referenced.setdefault(ref, set()).add((name, owner))
    return {(name, owner) for name, fn, owner in defined if not referenced.get(fn, set()) - {(name, owner)}}


def _unused_imports(tree):
    """(line, name) of every name the parsed module imports and never reads."""
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [
        (node.lineno, alias.asname or alias.name.split(".")[0])
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
        if (alias.asname or alias.name.split(".")[0]) not in read
    ]


def test_every_public_function_has_a_caller_in_the_library():
    """Every top-level public function and every public method under
    src/jorder is named in src/jorder outside its own body, or is on the
    allowlist above; code that only tests reach belongs in the tests. A stale
    allowlist entry fails, as the product allowlist does."""
    trees = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.rglob("*.py"))}
    uncalled = _uncalled_public_functions(trees)
    assert uncalled - _UNCALLED_ALLOWED == set()
    assert _UNCALLED_ALLOWED - uncalled == set()  # no stale entries


def test_the_caller_scan_finds_a_function_only_its_own_body_names():
    """The scan behind the caller guard: a function or a method that only
    calls itself is uncalled; a call from another module, a read as an
    attribute, a class decorator, a call from another method of the class, a
    read in a class or module body, a private name and a dunder method are
    not reported."""
    trees = {
        "a.py": ast.parse(
            "def used():\n    return 1\n\n\n"
            "def as_attribute():\n    return 2\n\n\n"
            "def dead(n):\n    return dead(n - 1) if n else 0\n\n\n"
            "def _private():\n    return 3\n\n\n"
            "def register(cls):\n    return cls\n"
        ),
        "b.py": ast.parse(
            "from . import a\nfrom .a import used\n\n\n"
            "@a.register\n"
            "class C:\n"
            "    def method(self):\n        return used() + a.as_attribute() + self.helper()\n\n"
            "    def helper(self):\n        return 4\n\n"
            "    def loop(self, n):\n        return self.loop(n - 1) if n else 0\n\n"
            "    def in_class_body(self):\n        return 5\n\n"
            "    default = in_class_body\n\n"
            "    def _private(self):\n        return 6\n\n"
            "    def __len__(self):\n        return 7\n\n\n"
            "VALUE = C().method()\n"
        ),
    }
    assert _uncalled_public_functions(trees) == {("a.py", "dead"), ("b.py", "C.loop")}


def test_no_library_module_imports_a_name_it_never_uses():
    """Outside __init__.py, which re-exports, every name a module imports is
    read in that module."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{line}: {name}" for line, name in _unused_imports(tree)]
    assert found == []


def test_the_import_scan_finds_names_read_nowhere():
    """The scan behind the import guard: an unread plain, dotted, aliased or
    from-import is reported under the name it binds; a read one, one read
    only as the head of an attribute chain, and a __future__ import are not."""
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as osp\n"
        "import numpy as np\n"
        "import xml.dom\n"
        "from .fields import GF, QQ as rationals\n"
        "from . import linalg\n"
        "\n"
        "ZERO = np.zeros(GF(2).p)\n"
        "\n\n"
        "def f(x):\n"
        "    return linalg.rank(x)\n"
    )
    assert _unused_imports(tree) == [(2, "os"), (3, "osp"), (5, "xml"), (6, "rationals")]


def test_witnesses_build_an_enveloping_algebra_in_one_place():
    """witnesses.py builds A (x) B^op only in _enveloping_algebra, which holds
    it on A; its one other tensor_algebra caller, transport_tensor, builds
    A (x) C and B (x) C."""
    tree = ast.parse((SRC / "witnesses.py").read_text())
    callers = sorted({fn for fn, _ in _calls_by_function(tree, ("tensor_algebra",))})
    assert callers == ["_enveloping_algebra", "transport_tensor"]
    # _enveloping_algebra takes B^op from its caller, so no call spells it out
    assert [call.lineno for call in _calls(tree, ("tensor_algebra",)) if _calls(call, ("opposite",))] == []
    users = sorted({fn for fn, _ in _calls_by_function(tree, ("_enveloping_algebra",))})
    assert users == ["bimodule_as_env_module", "witness_search"]
    imported = [
        alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names
    ]
    assert "enveloping_algebra" not in imported


def test_witness_search_decomposes_the_regular_bimodule_once_and_verifies_by_name():
    """witness_search calls decompose once, outside its loop, and verifies each
    new tensor through the module-level verify_j_geq: the benchmark counts
    witnesses.verify_j_geq.not_summand there, so a search routed around it
    would leave that counter unexercised."""
    tree = ast.parse((SRC / "witnesses.py").read_text())
    (search,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "witness_search"]
    loops = [node for node in ast.walk(search) if isinstance(node, (ast.For, ast.While))]
    in_loops = {id(call) for loop in loops for call in ast.walk(loop) if isinstance(call, ast.Call)}
    decomposes = _calls(search, ("decompose",))
    assert len(decomposes) == 1 and id(decomposes[0]) not in in_loops
    verifies = _calls(search, ("verify_j_geq",))
    assert verifies and all(isinstance(call.func, ast.Name) for call in verifies)
    assert all(id(call) in in_loops for call in verifies)


_FIELD_IDS = ("GF(2)", "GF(3)", "GF(101)", "Q")
# the held-structure differential tests, by node id in tests/test_held_structure.py
_UNDER_O = [
    f"{name}[{field}]"
    for name in (
        "test_held_pieces_and_stacks_equal_fresh_builds",
        "test_piece_filter_matches_the_unfiltered_leaf_test",
        "test_held_leaf_decomposes_as_a_fresh_copy",
        "test_a_dropped_decomposition_is_solved_again",
        "test_a_dropped_decomposition_dies_without_the_cycle_collector",
        "test_a_held_decomposition_answers_its_own_seed_only",
        "test_a_dropped_held_decomposition_dies_without_the_cycle_collector",
    )
    for field in _FIELD_IDS
] + [
    "test_hom_space_takes_the_stack_of_n_against_the_generators_of_m",
    "test_submodule_on_raises_on_a_basis_that_is_not_stable",
    "test_the_regular_bimodule_is_held_only_while_a_search_runs",
    "test_a_disconnected_search_solves_the_regular_bimodule_once",
]


def test_held_structure_differential_tests_pass_under_python_O():
    """The held-structure keys and the stability check of _submodule_on are
    if tests, not asserts: the differential tests pass with assert
    statements compiled away in the library."""
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")]))
    path = tests / "test_held_structure.py"
    cmd = [
        sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
        *(f"{path}::{node}" for node in _UNDER_O),
    ]
    out = subprocess.run(cmd, env=env, cwd=tests, capture_output=True, text=True)
    assert out.returncode == 0, out.stdout[-2000:]
    assert f"{len(_UNDER_O)} passed" in out.stdout, out.stdout[-2000:]
