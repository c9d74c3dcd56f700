"""Every name a graphdm module imports is used in that module, no module
imports another's _private names, no module builds an object array, one
function reads the channel landing tolerance, one reads the reconstruction
tolerance, the CLI reaches separable decompositions through one route
chooser, and no module brings back an inexact matrix mode."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "graphdm"
# perfbench's tracer test reads the private one-labeling kernel front
# through cli, so cli keeps importing it without calling it; it is also the
# one private name a module imports from another
KEPT = {("cli.py", "_min_eig_for_assignment")}


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in bound - used if (path.name, name) not in KEPT)


def private_imports(path: Path) -> list[str]:
    """_private names the module imports from sibling modules."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return sorted(a.name for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and node.level
                  for a in node.names
                  if a.name.startswith("_") and (path.name, a.name) not in KEPT)


def object_arrays(path: Path) -> list[str]:
    """Each use of frompyfunc, dtype=object or astype(object), by line.

    Exact matrices are int64 numerators over one denominator; an object
    array of Fractions or big ints is the representation they replaced.
    """
    def is_object(node) -> bool:
        return isinstance(node, ast.Name) and node.id == "object"

    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if (isinstance(node, ast.Attribute) and node.attr == "frompyfunc"
                or isinstance(node, ast.Name) and node.id == "frompyfunc"):
            found.append(f"{node.lineno}: frompyfunc")
        elif isinstance(node, ast.Call):
            if any(k.arg == "dtype" and is_object(k.value) for k in node.keywords):
                found.append(f"{node.lineno}: dtype=object")
            if (isinstance(node.func, ast.Attribute) and node.func.attr == "astype"
                    and node.args and is_object(node.args[0])):
                found.append(f"{node.lineno}: astype(object)")
    return found


def mentions(path: Path, name: str) -> list[int]:
    """Lines that name `name`: a bare name, an attribute, a definition or an
    imported name."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if (isinstance(node, ast.Name) and node.id == name
                or isinstance(node, ast.Attribute) and node.attr == name
                or isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name):
            found.append(node.lineno)
        elif isinstance(node, ast.ImportFrom):
            found += [node.lineno for a in node.names if a.name == name]
    return sorted(found)


def readers(path: Path, name: str) -> list[str]:
    """The innermost function around each read of name (as a bare name or an
    attribute), or "<module>" for a read outside every function."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            named = (isinstance(child, ast.Name) and child.id == name
                     or isinstance(child, ast.Attribute) and child.attr == name)
            if named and isinstance(child.ctx, ast.Load):
                found.append(f"{path.name}:{owner}")
            visit(child, owner)

    visit(ast.parse(path.read_text(encoding="utf-8")), "<module>")
    return found


def test_no_unused_imports():
    # __init__.py imports are the package's public names, not uses
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert {"cli.py", "density.py", "linalg.py"} <= {p.name for p in modules}
    found = {p.name: unused_imports(p) for p in modules}
    assert {name: names for name, names in found.items() if names} == {}


def test_no_cross_module_private_imports():
    modules = sorted(SRC.glob("*.py"))
    assert {"__init__.py", "cli.py", "graphs.py"} <= {p.name for p in modules}
    found = {p.name: private_imports(p) for p in modules}
    assert {name: names for name, names in found.items() if names} == {}


def test_no_object_arrays():
    modules = sorted(SRC.glob("*.py"))
    assert {"linalg.py", "density.py"} <= {p.name for p in modules}
    found = {p.name: object_arrays(p) for p in modules}
    assert {name: uses for name, uses in found.items() if uses} == {}


def test_object_scan_sees_each_form(tmp_path):
    probe = tmp_path / "linalg.py"
    probe.write_text("import numpy as np\n"
                     "from numpy import frompyfunc\n"
                     "a = np.empty(2, dtype=object)\n"
                     "b = a.astype(object)\n"
                     "c = np.frompyfunc(int, 1, 1)\n"
                     "d = np.zeros(2, dtype=np.int64).astype(float)\n")
    assert object_arrays(probe) == ["3: dtype=object", "4: astype(object)", "5: frompyfunc"]


def test_scan_sees_unused_and_kept_names(tmp_path):
    probe = tmp_path / "cli.py"
    probe.write_text("import os\nimport os.path as osp\n"
                     "from fractions import Fraction\n"
                     "from os import _exit\n"
                     "from .x import _min_eig_for_assignment, used\n"
                     "from ..y import _helper\n"
                     "print(used, osp, _exit, _helper)\n")
    assert unused_imports(probe) == ["Fraction", "os"]
    assert private_imports(probe) == ["_helper"]


def test_one_function_checks_a_channel_landing():
    found = sorted({r for p in SRC.glob("*.py") for r in readers(p, "LANDING_TOL")})
    assert found == ["channels.py:check_landing"]


def test_reader_scan_sees_each_form(tmp_path):
    probe = tmp_path / "cli.py"
    probe.write_text("from .channels import LANDING_TOL\n"
                     "import graphdm.channels as ch\n"
                     "LANDING_TOL = 1e-8\n"
                     "X = LANDING_TOL\n"
                     "def a(err):\n"
                     "    return err > LANDING_TOL\n"
                     "def b(err):\n"
                     "    def inner():\n"
                     "        return ch.LANDING_TOL\n"
                     "    return inner\n")
    assert readers(probe, "LANDING_TOL") == ["cli.py:<module>", "cli.py:a", "cli.py:inner"]


def test_one_function_checks_a_decomposition():
    found = sorted({r for p in SRC.glob("*.py") for r in readers(p, "RECONSTRUCTION_TOL")})
    assert found == ["separability.py:verify_separable_decomposition"]


def test_cli_leaves_the_route_choice_to_separability():
    cli = SRC / "cli.py"
    assert readers(cli, "separable_decomposition") == ["cli.py:cmd_analyze",
                                                        "cli.py:cmd_search"]
    for name in ("verify_separable_decomposition", "pe_matching_separability",
                 "complete_graph_decomposition"):
        assert readers(cli, name) == []


def test_reader_scan_sees_route_names(tmp_path):
    probe = tmp_path / "cli.py"
    probe.write_text("from .separability import pe_matching_separability\n"
                     "import graphdm.separability as sep\n"
                     "def route(g, lab):\n"
                     "    return pe_matching_separability(g, lab)\n"
                     "def check(rho, states):\n"
                     "    return sep.verify_separable_decomposition(rho, states)\n")
    assert readers(probe, "pe_matching_separability") == ["cli.py:route"]
    assert readers(probe, "verify_separable_decomposition") == ["cli.py:check"]


def test_one_matrix_mode():
    # HermitianMatrix is exact only: exact_real is a constant that only
    # linalg may read, and the float view and root of the inexact mode are gone
    modules = sorted(SRC.glob("*.py"))
    assert {"linalg.py", "density.py", "concurrence.py"} <= {p.name for p in modules}
    found = sorted({r for p in modules if p.name != "linalg.py" for r in readers(p, "exact_real")})
    assert found == []
    found = {f"{p.name}:{name}": lines for p in modules for name in ("to_complex", "psd_sqrt")
             if (lines := mentions(p, name))}
    assert found == {}


def test_mention_scan_sees_each_form(tmp_path):
    probe = tmp_path / "density.py"
    probe.write_text("from .linalg import psd_sqrt\n"
                     "def to_complex(rho):\n"
                     "    return rho.mat.to_complex()\n"
                     "root = psd_sqrt\n"
                     "name = 'psd_sqrt'\n")
    assert mentions(probe, "psd_sqrt") == [1, 4]
    assert mentions(probe, "to_complex") == [2, 3]
