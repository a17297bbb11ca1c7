"""AST scans: every imported name is used, in the package and the tests;
every name the package defines is used by the package or is public; every
method of a package class is used by the package.

``siegel/__init__.py`` is left out of the import scan, its imports are the
public re-exports.
"""

import ast
from pathlib import Path

import pytest

import siegel

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "siegel"
SOURCES = sorted(
    p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"
) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_scan_flags_an_unused_import():
    assert unused_imports("import os\nimport sys\nfrom math import pi, tau\nsys.exit(pi)\n") == [
        "line 1: os",
        "line 3: tau",
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def defined_names(stmt: ast.stmt) -> list[str]:
    """Names a module-level statement defines (imports excluded)."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        return [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return [stmt.target.id]
    return []


def referenced_names(node: ast.AST) -> set[str]:
    refs = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            refs.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            refs.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            refs.update(alias.name for alias in sub.names)
    return refs


def unreferenced_names(modules: dict[str, str], public: set[str]) -> list[str]:
    """``module.name`` for each module-level definition outside ``__init__``
    that no other statement of any module references and that is not public."""
    stmts = [(module, stmt) for module, text in modules.items() for stmt in ast.parse(text).body]
    refs = [referenced_names(stmt) for _, stmt in stmts]
    return [
        f"{module}.{name}"
        for idx, (module, stmt) in enumerate(stmts)
        if module != "__init__"
        for name in defined_names(stmt)
        if name not in public and not any(name in r for j, r in enumerate(refs) if j != idx)
    ]


def test_scan_flags_an_unreferenced_name():
    modules = {
        "__init__": "from .a import api\n",
        "a": "LIMIT = 3\n\ndef api():\n    return helper() + LIMIT\n\n"
             "def helper():\n    return 1\n\ndef loop():\n    return loop()\n",
        "b": "class Unused:\n    pass\n",
    }
    assert unreferenced_names(modules, {"api"}) == ["a.loop", "b.Unused"]


def package_modules() -> dict[str, str]:
    return {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}


def test_every_package_name_is_used_or_public():
    assert unreferenced_names(package_modules(), set(siegel.__all__)) == []


def unreferenced_members(modules: dict[str, str]) -> list[str]:
    """``Class.name`` for each non-dunder method, property or classmethod of
    a module-level class whose name no attribute reference of any module
    makes outside the member's own body."""
    trees = [ast.parse(text) for text in modules.values()]
    attrs = [node for tree in trees for node in ast.walk(tree) if isinstance(node, ast.Attribute)]
    flagged = []
    for tree in trees:
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for fn in cls.body:
                if not isinstance(fn, ast.FunctionDef) or (
                    fn.name.startswith("__") and fn.name.endswith("__")
                ):
                    continue
                own = {id(node) for node in ast.walk(fn)}
                if not any(a.attr == fn.name and id(a) not in own for a in attrs):
                    flagged.append(f"{cls.name}.{fn.name}")
    return flagged


def test_member_scan_flags_an_unreferenced_member():
    modules = {
        "a": "class A:\n    def used(self):\n        return self.helper()\n\n"
             "    @property\n    def helper(self):\n        return 1\n\n"
             "    @classmethod\n    def loop(cls):\n        return cls.loop()\n\n"
             "    def __repr__(self):\n        return ''\n",
        "b": "def f(x):\n    return x.used()\n",
    }
    assert unreferenced_members(modules) == ["A.loop"]


def test_every_class_member_is_used_by_the_package():
    assert unreferenced_members(package_modules()) == []


def sqrt3_computations(source: str) -> list[int]:
    """Lines that compute sqrt(3): a call of any ``sqrt`` on the constant 3,
    or the constant 3 raised to a float constant."""

    def three(node):
        return isinstance(node, ast.Constant) and node.value == 3

    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            hit = name == "sqrt" and node.args and three(node.args[0])
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            right = node.right
            hit = three(node.left) and isinstance(right, ast.Constant) and isinstance(right.value, float)
        else:
            hit = False
        if hit:
            lines.append(node.lineno)
    return sorted(lines)


def test_scan_flags_a_square_root_of_three():
    source = "import math\nx = 2 / math.sqrt(3.0)\ny = sqrt(3)\nz = 3 ** 0.5\nw = math.sqrt(2.0) * 3 ** 2\n"
    assert sqrt3_computations(source) == [2, 3, 4]


@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "iwasawa.py"), ids=lambda p: p.name
)
def test_only_iwasawa_states_the_canonical_t(path):
    # the canonical set is t^2 = 4/3 in iwasawa.MINIMAL_PARAMS; no other
    # module derives its own float of 2/sqrt(3)
    assert sqrt3_computations(path.read_text(encoding="utf-8")) == []


def diagonal_products(source: str) -> list[str]:
    """Qualified names of the functions that form ``x @ (d[..., None] * y)``:
    a matrix product with a diagonal, broadcast by a ``None`` axis, scaling
    the rows of the right factor."""

    def scaled_rows(node):
        if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)):
            return False
        index = getattr(node.left, "slice", None)
        parts = index.elts if isinstance(index, ast.Tuple) else [index]
        return any(isinstance(p, ast.Constant) and p.value is None for p in parts)

    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.BinOp) and isinstance(child.op, ast.MatMult):
                if scaled_rows(child.right):
                    found.append(".".join(scope) or "<module>")
            visit(child, scope)

    visit(ast.parse(source), [])
    return found


def test_scan_flags_a_diagonal_product():
    source = (
        "x = k @ (a[..., None] * u)\n"
        "def f(k, a, u):\n    return k @ (a[:, None] * u)\n"
        "def g(k, a, u):\n    return k @ (a * u) + (a[:, None] * u) @ k\n"
    )
    assert diagonal_products(source) == ["<module>", "f"]


def test_only_iwasawa_forms_k_diag_a_u():
    # g = k @ diag(a) @ u is formed in one place, iwasawa._group_elements_from_a;
    # the factors' reconstruction and haar's coordinate points call it
    found = {
        f"{module}.{name}"
        for module, text in package_modules().items()
        for name in diagonal_products(text)
    }
    assert found == {"iwasawa._group_elements_from_a"}
    assert {"iwasawa.IwasawaFactors.reconstruct", "haar.group_elements"} <= package_callers(
        "_group_elements_from_a"
    )


def small_case_comparisons(source: str) -> list[int]:
    """Lines that compare the bare name ``n`` or ``M`` with an integer
    literal, as a builder does when it special-cases a small dimension."""

    def bare(node):
        return isinstance(node, ast.Name) and node.id in ("n", "M")

    def literal(node):
        return isinstance(node, ast.Constant) and type(node.value) is int

    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            pairs = zip(operands, operands[1:])
            if any(bare(x) and literal(y) or literal(x) and bare(y) for x, y in pairs):
                lines.append(node.lineno)
    return sorted(lines)


def test_scan_flags_a_small_case_comparison():
    source = "a = n == 3\nb = 2 < M\nc = n % 2 == 1\nd = m > 2\ne = 0 < n < k\nf = n > 2.0\n"
    assert small_case_comparisons(source) == [1, 2, 5]


def callers(source: str, callee: str) -> set[str]:
    """Qualified names (``function`` or ``Class.method``) of the functions
    that call ``callee``, by its bare name or as an attribute."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name == callee:
                    found.add(".".join(scope) or "<module>")
            visit(child, scope)

    visit(ast.parse(source), [])
    return found


def test_scan_names_the_callers():
    source = (
        "x = f()\n"
        "def g():\n    return [f(y) for y in h()]\n"
        "class A:\n    def m(self):\n        return A.f(self.f)\n"
        "    def k(self):\n        return f\n"
    )
    assert callers(source, "f") == {"<module>", "g", "A.m"}


def test_volumes_states_the_small_factorial_rule_once():
    # 0!, 1! and 2! fold in volumes._fold_small_factorials: the constructor,
    # the Gamma(i/2) product and the builders' one wrapper call it, and no
    # builder special-cases a small n or M by hand or wraps its own fields
    source = (PACKAGE / "volumes.py").read_text(encoding="utf-8")
    assert small_case_comparisons(source) == []
    assert callers(source, "_fold_small_factorials") == {
        "SymbolicVolume.__post_init__",
        "_inverse_gamma_half_product",
        "_formula",
    }
    assert callers(source, "_trusted") == {
        "SymbolicVolume._combine",
        "SymbolicVolume.__pow__",
        "_formula",
    }


def package_callers(callee: str) -> set[str]:
    """``module.function`` (or ``module.Class.method``) for each function of
    the package that calls ``callee``."""
    return {
        f"{module}.{name}"
        for module, text in package_modules().items()
        for name in callers(text, callee)
    }


def test_every_unchecked_constructor_call_has_a_stated_proof():
    # _trusted skips the validation of its class: SymbolicVolume's three
    # callers keep canonical form, and UnimodularIntMatrix's two prove
    # det = +1, by a product of det +1 moves and by a cofactor expansion
    # equal to 1; a new caller must state what proves its determinant
    assert package_callers("_trusted") == {
        "volumes.SymbolicVolume._combine",
        "volumes.SymbolicVolume.__pow__",
        "volumes._formula",
        "reduction.siegel_reduce",
        "intersections.sl_candidates",
    }


def test_one_path_each_from_log_space_and_from_exact_integers_into_floats():
    # a log-space result becomes a float only through iwasawa._finite_exp,
    # and an exact integer matrix only through iwasawa._exact_floats
    assert package_callers("_finite_exp") == {
        "haar.conjugation_jacobian",
        "haar.siegel_density",
        "intersections.height_bound",
        "intersections.height_bound_variants",
        "intersections.enumerate_intersections",
    }
    assert package_callers("_exact_floats") == {
        "iwasawa.UnimodularIntMatrix.to_array",
        "reduction._exact_float",
    }
    # and the two kernels form no product of floats that could leave the range
    haar = (PACKAGE / "haar.py").read_text(encoding="utf-8")
    for callee in ("prod", "errstate"):
        assert not callers(haar, callee) & {"conjugation_jacobian", "siegel_density"}


def stream_readers(source: str) -> dict[str, bool]:
    """For each function other than ``_as_stream`` itself with a parameter
    named ``rng``, whether it passes that name to ``_as_stream``."""
    found = {}
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name != "_as_stream":
            params = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
            if any(a.arg == "rng" for a in params):
                found[node.name] = any(
                    isinstance(call, ast.Call)
                    and getattr(call.func, "id", None) == "_as_stream"
                    and [getattr(arg, "id", None) for arg in call.args] == ["rng"]
                    for call in ast.walk(node)
                )
    return found


def test_scan_flags_an_rng_not_read_as_a_stream():
    source = (
        "def good(n, rng):\n    return _as_stream(rng).generator()\n"
        "def bad(n, *, rng=None):\n    return rng.generator()\n"
        "def other(gen):\n    return _as_stream(gen)\n"
        "def _as_stream(rng):\n    return rng\n"
    )
    assert stream_readers(source) == {"good": True, "bad": False}


def test_every_rng_is_read_through_as_stream():
    # RngStream is the one random input: a sampler, estimate or search reads
    # its rng through haar._as_stream, which refuses a bare generator
    readers = {
        f"{module}.{name}": screened
        for module, text in package_modules().items()
        for name, screened in stream_readers(text).items()
    }
    assert readers == {
        "haar.sample_haar_so_batch": True,
        "haar.sample_siegel_block": True,
        "haar.a_integral_mc": True,
        "intersections.find_witness": True,
        "intersections.enumerate_intersections": True,
    }
