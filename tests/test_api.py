"""Static guard on the package's names, read with ``ast`` (nothing is imported).

* No module imports a name it never uses (the package ``__init__`` excepted:
  its imports are the public API).
* Every ``__all__`` entry is defined in its module.
* Every name the package ``__init__`` imports from a module is in that
  module's ``__all__``, where the module has one.
* The certificate modules multiply and divide 3-vector grids by scalar grids
  through ``grids.mul3``/``div3``, never through a ``s[..., None]`` operand,
  which makes numpy loop over the length-3 axis.  ``_march_strip`` is
  exempt: it runs on a component-major strip, where such an operand
  broadcasts a per-vertex coefficient over the components of a vertex pair.
* Outside ``grids.py`` no module allocates an array of 3-vectors itself
  (``np.empty``/``zeros``/``ones``/``full`` with a shape ending in 3) or
  sums over the component axis with ``np.einsum("...k...")``: 3-vector
  arrays come from ``grids.empty3`` and the grid kernels, so they are stored
  as component planes and summed in one order.
* Each ``Grid.memo`` key has one call, in the function that derives its
  quantity: no function reads another function's stored result.
* No function takes a parameter named ``tol`` or ``tol_*``: each certificate
  and gate holds its quantity to its module's fixed ``TOL_*`` constant.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "affmin"
MODULES = sorted(PACKAGE.glob("*.py"))


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def imported_names(tree: ast.Module) -> dict:
    """Name bound by each import statement of the module -> its line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.Module) -> set:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def dunder_all(tree: ast.Module):
    """The literal ``__all__`` list of a module, or None if it has none."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return ast.literal_eval(node.value)
    return None


def top_level_names(tree: ast.Module) -> set:
    names = set(imported_names(tree))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return names


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.stem)
def test_no_unused_imports(path):
    tree = parse(path)
    exported = set(dunder_all(tree) or ())
    unused = {name: line for name, line in imported_names(tree).items()
              if name not in used_names(tree) and name not in exported}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_all_entries_are_defined(path):
    tree = parse(path)
    missing = sorted(set(dunder_all(tree) or ()) - top_level_names(tree))
    assert not missing, f"{path.name} lists undefined names in __all__: {missing}"


def test_package_imports_only_public_names():
    strays = []
    for node in parse(PACKAGE / "__init__.py").body:
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            public = dunder_all(parse(PACKAGE / f"{node.module}.py"))
            if public is not None:
                strays += [f"{node.module}.{a.name}" for a in node.names if a.name not in public]
    assert not strays, f"affmin/__init__.py imports names outside __all__: {strays}"


def test_each_memo_key_has_one_call():
    keys = [node.args[0].value for path in MODULES for node in ast.walk(parse(path))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "memo"]
    assert sorted(keys) == ["affine_normal", "cubic_coefficients", "face_volumes"]


def tolerance_parameters(tree: ast.AST) -> list:
    """(function, parameter) for each parameter named ``tol`` or ``tol_*``."""
    return [(node.name, arg.arg) for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            for arg in ast.walk(node.args) if isinstance(arg, ast.arg)
            and (arg.arg == "tol" or arg.arg.startswith("tol_"))]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_function_takes_a_tolerance(path):
    knobs = tolerance_parameters(parse(path))
    assert not knobs, f"{path.name} has settable tolerances: {knobs}"


def test_guard_sees_a_tolerance_parameter():
    tree = ast.parse("def f(q, tol=1e-8): pass\n"
                     "def g(q, *, tol_forms): pass\n"
                     "def h(q, tolerance, total, atol): pass\n")
    assert tolerance_parameters(tree) == [("f", "tol"), ("g", "tol_forms")]


def new_axis_operands(tree: ast.AST, exempt=()) -> list:
    """Lines where ``*`` or ``/`` takes an operand indexed with None (or np.newaxis),
    outside the functions named in ``exempt``."""
    skip = {id(n) for f in ast.walk(tree)
            if isinstance(f, ast.FunctionDef) and f.name in exempt for n in ast.walk(f)}

    def adds_axis(node):
        if not isinstance(node, ast.Subscript):
            return False
        index = node.slice.elts if isinstance(node.slice, ast.Tuple) else [node.slice]
        return any((isinstance(i, ast.Constant) and i.value is None)
                   or (isinstance(i, ast.Attribute) and i.attr == "newaxis") for i in index)

    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Mult, ast.Div))
                  and id(node) not in skip and (adds_axis(node.left) or adds_axis(node.right)))


@pytest.mark.parametrize("name, exempt", [
    ("forms", ()), ("geometry", ()), ("variational", ()), ("compatibility", ("_march_strip",)),
])
def test_scalar_vector_products_use_the_kernels(name, exempt):
    lines = new_axis_operands(parse(PACKAGE / f"{name}.py"), exempt)
    assert not lines, f"{name}.py broadcasts a scalar grid over 3-vectors on lines {lines}"


def test_guard_sees_a_broadcast_product():
    tree = ast.parse("def f(s, v, w):\n"
                     "    a = s[..., None] * v\n"
                     "    b = v / s[:, :, np.newaxis]\n"
                     "    c = (s - w)[..., None] * v + s[None]\n"
                     "def _march_strip(s, v):\n"
                     "    return s[:, None] * v\n")
    assert new_axis_operands(tree, ("_march_strip",)) == [2, 3, 4]
    assert new_axis_operands(tree) == [2, 3, 4, 6]


def test_guard_sees_an_unused_import():
    tree = ast.parse("from .errors import DomainMismatch, DomainTooSmall\n"
                     "raise DomainMismatch('x')\n")
    assert set(imported_names(tree)) - used_names(tree) == {"DomainTooSmall"}


def vector_layout_breaches(tree: ast.AST) -> list:
    """Lines that allocate an array of 3-vectors with np.empty, zeros, ones or full
    (a shape tuple ending in 3, or ``shape + (..., 3)``), or call np.einsum with
    subscripts over ``...``."""
    def ends_in_three(shape):
        if isinstance(shape, ast.BinOp) and isinstance(shape.op, ast.Add):
            shape = shape.right
        elif not (isinstance(shape, ast.Tuple) and len(shape.elts) >= 2):
            return False
        return (isinstance(shape, ast.Tuple) and isinstance(shape.elts[-1], ast.Constant)
                and shape.elts[-1].value == 3)

    lines = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name) and node.func.value.id == "np"
                and node.args):
            continue
        first, attr = node.args[0], node.func.attr
        if ((attr in ("empty", "zeros", "ones", "full") and ends_in_three(first))
                or (attr == "einsum" and isinstance(first, ast.Constant)
                    and "..." in str(first.value))):
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "grids.py"],
                         ids=lambda p: p.stem)
def test_vector_arrays_come_from_the_kernels(path):
    lines = vector_layout_breaches(parse(path))
    assert not lines, (f"{path.name} allocates 3-vectors or sums them with einsum "
                       f"outside grids.py on lines {lines}")


def test_guard_sees_an_interleaved_allocation():
    tree = ast.parse("q = np.empty((nu, nv, 3))\n"
                     "xi = np.zeros(f.shape + (3,))\n"
                     "lo = np.full((n, 3), np.inf)\n"
                     "d = np.einsum('...k,...k->...', a, b)\n"
                     "ok = np.empty((3, nv, nu)), np.zeros(3), np.ones(f.shape)\n"
                     "ok = np.einsum('i,j,ij->', w, w, e), empty3((nu, nv, 3))\n")
    assert vector_layout_breaches(tree) == [1, 2, 3, 4]
