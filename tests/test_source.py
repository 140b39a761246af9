"""Static checks on the library source, and what importing it loads."""

import ast
import importlib
import os
import subprocess
import sys
import typing
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "spectral_affine"


def _imported_roots(tree):
    roots = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


@pytest.mark.parametrize("module", ["linalg", "zeros", "conjugacy", "ortho", "hadamard"])
def test_exact_modules_import_no_numpy(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    assert "numpy" not in _imported_roots(tree)


def test_no_module_imports_numpy_at_module_level():
    # numpy is most of a cold start; fourier imports it inside its array
    # paths, so importing every module of the package must not load it
    code = (
        "import importlib, pkgutil, sys, spectral_affine\n"
        "for m in pkgutil.iter_modules(spectral_affine.__path__):\n"
        "    importlib.import_module('spectral_affine.' + m.name)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout == "[]\n"


def test_no_module_imports_dataclasses():
    # building a dataclass compiles its generated methods with exec;
    # with bytecode, that was two thirds of importing the package
    importers = [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if "dataclasses" in _imported_roots(ast.parse(path.read_text()))
    ]
    assert importers == []


def test_importing_the_cli_loads_no_dataclasses():
    code = "import sys, spectral_affine.cli\nprint('dataclasses' in sys.modules)\n"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout == "False\n"


@pytest.mark.parametrize("flag, loaded", [("--input", False), ("--inp", True)])
def test_a_documented_call_loads_no_argparse(tmp_path, flag, loaded):
    # argparse and gettext were about 1.9 ms of a cold start; a call in the
    # documented form reads its argv directly, an abbreviation needs the parser
    path = tmp_path / "problem.json"
    path.write_text('{"M": [[3, 1], [1, 4]], "D": [[0, 0], [1, 0], [0, 1]]}')
    code = (
        "import sys, spectral_affine.cli\n"
        f"code = spectral_affine.cli.main(['classify', {flag!r}, {str(path)!r}, '--format', 'json'])\n"
        "print(code, 'argparse' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.splitlines()[-1] == f"0 {loaded}"


RECORDS = {
    ("conjugacy", "SpectralityVerdict"): ("verdict", "A", "B", "Mt"),
    ("conjugacy", "Conjugacy"): ("M", "D", "p", "A", "B", "mode", "Mt", "Dt"),
    ("fourier", "AttractorSample"): ("points", "eps", "mode", "detail"),
    ("fourier", "SpectrumCandidate"): (
        "base", "levels", "frequencies", "orthogonal", "failing_pair",
    ),
    ("fourier", "EtaSuggestion"): ("eta", "distance", "sampling_error"),
    ("fourier", "QScanResult"): (
        "eta", "resolution", "depth", "axis", "values", "min_q", "max_q",
    ),
    ("hadamard", "HadamardSearch"): ("status", "S", "search_space", "examined"),
    ("ortho", "NStarBounds"): (
        "lower", "witness", "upper", "method", "search_nodes", "search_complete",
    ),
    ("ortho", "TransportReport"): (
        "c1", "c2", "forward_hits", "backward_hits", "ok",
        "conjugate_matrix", "conjugate_digits",
    ),
    ("ortho", "NonSpectralCertificate"): (
        "L", "j0", "difference_closure", "window_empty", "tail_integral", "valid", "verdict",
    ),
}


@pytest.mark.parametrize("module, name", sorted(RECORDS))
def test_records_keep_their_fields_and_refuse_assignment(module, name):
    # results are named tuples: a field moved or renamed changes what
    # unpacking or indexing a result gives
    record = getattr(importlib.import_module(f"spectral_affine.{module}"), name)
    assert record._fields == RECORDS[module, name]
    value = record._make(range(len(record._fields)))
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(value, field, None)


def test_no_assert_statements():
    # python -O strips assert, so a check that must hold raises explicitly
    offenders = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert offenders == []


def test_no_module_imports_a_private_name():
    # a name shared between modules is public; a leading underscore
    # promises that only its own module relies on it
    offenders = [
        f"{path.relative_to(SRC)}:{node.lineno}: {alias.name}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
    ]
    assert offenders == []


def _layertrace_tables():
    # read as literals, so the benchmark's file is neither imported nor
    # compiled into a cache next to it
    path = SRC.parent / "perfbench" / "layertrace.py"
    tables = {}
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in ("TRACED", "CALL_SITES", "METHODS", "ROOT"):
                tables[name] = ast.literal_eval(node.value)
    return tables


def test_layer_trace_names_resolve():
    # perfbench --trace 1 wraps these by name; a rename must not leave a
    # layer untraced or the run broken
    tables = _layertrace_tables()
    assert set(tables) == {"TRACED", "CALL_SITES", "METHODS", "ROOT"}

    def module(name):
        return importlib.import_module(f"spectral_affine.{name}")

    for mod, fn, _hot, field in tables["TRACED"]:
        func = getattr(module(mod), fn)
        assert callable(func), f"{mod}.{fn}"
        if field is not None:
            returned = typing.get_type_hints(func)["return"]
            assert field in returned._fields
    for mod, fn in tables["CALL_SITES"]:
        assert callable(getattr(module(mod), fn)), f"{mod}.{fn}"
    for mod, cls, meth in tables["METHODS"]:
        assert callable(getattr(getattr(module(mod), cls), meth)), f"{mod}.{cls}.{meth}"
    mod, fn = tables["ROOT"].split(".")
    assert callable(getattr(module(mod), fn))


@pytest.mark.parametrize("module", ["hadamard", "conjugacy", "ortho", "fourier"])
def test_exact_layers_read_the_digit_system_not_zero_set(module):
    # zeros.DigitSystem builds and caches the zero set of (M, D); the CLI
    # keeps zero_set for its zero-set command
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    names = [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id == "zero_set")
        or (isinstance(node, ast.Attribute) and node.attr == "zero_set")
        or (isinstance(node, ast.alias) and node.name == "zero_set")
    ]
    assert names == []


@pytest.mark.parametrize("module", ["hadamard", "ortho"])
def test_exact_layers_take_inverse_and_orbit_from_the_digit_system(module):
    # zeros.DigitSystem holds M^{-T} as adjT over absdet, and the orbit of
    # the zeros mod q
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    names = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.alias) and node.name in {"det_and_adjugate", "order_mod"}
    ]
    assert names == []


def test_only_fourier_imports_power_norms():
    # the membership walk ends on the lattice and needs no growth constant;
    # the norms of M^{-T} powers bound only fourier's truncation tails
    importers = {
        path.stem
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name == "power_norms"
    }
    assert importers == {"fourier"}


def test_only_zeros_and_hadamard_import_sign_canonical():
    # DigitSystem.first_failing_pair walks each pair difference once up to
    # sign to re-verify the nstar_bounds witness (spectrum_candidate reads
    # the orthogonality graph instead); the Hadamard search keeps its own
    # cache on the mask test
    importers = {
        path.stem
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name == "sign_canonical"
    }
    assert importers == {"zeros", "hadamard"}


def test_coset_transversal_is_enumerated_for_incomplete_zero_sets_only():
    # zero sets come from a gcd box, and a listed zero set hands the
    # search its classes; only the cyclotomic test of an incomplete one, or
    # of a singular digit frame, walks every representative
    importers = {
        path.stem
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name == "coset_transversal"
    }
    assert importers == {"hadamard", "__init__"}
    tree = ast.parse((PACKAGE / "hadamard.py").read_text())
    calls = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "coset_transversal"
    ]
    (branch,) = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.If) and ast.unparse(node.test) == "ds.listed"
    ]
    incomplete = {id(node) for stmt in branch.orelse for node in ast.walk(stmt)}
    assert len(calls) == 1 and id(calls[0]) in incomplete


def test_ortho_takes_the_zero_images_from_the_digit_system():
    # DigitSystem.orbit, shells and window give every image of the mask
    # zeros under powers of M^T: ortho keeps no running matrix product, no
    # offset box and no step cap of its own
    tree = ast.parse((PACKAGE / "ortho.py").read_text())
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert imported.isdisjoint({"identity", "mat_mul", "product", "itertools"})
    (suggest,) = [
        node
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "suggest_certificate"
    ]
    assert [arg.arg for arg in suggest.args.args + suggest.args.kwonlyargs] == ["M", "D"]


def test_digit_system_lives_for_one_call():
    # no module-level cache keeps a DigitSystem alive, and an instance
    # stores only the data of (M, D) fixed in __init__: no shell or orbit
    # store grows with the questions asked of it
    tree = ast.parse((PACKAGE / "zeros.py").read_text())
    functions = {
        node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)
    }
    assert "digit_system" not in functions
    cached = [
        name
        for name, node in functions.items()
        for deco in node.decorator_list
        if "lru_cache" in ast.unparse(deco)
    ]
    assert cached == ["cyclotomic"]
    (cls,) = [
        node
        for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "DigitSystem"
    ]
    stored = {
        (method.name, target.attr)
        for method in cls.body
        if isinstance(method, ast.FunctionDef)
        for node in ast.walk(method)
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Attribute)
        and isinstance(target.value, ast.Name)
        and target.value.id == "self"
    }
    assert {method for method, _ in stored} == {"__init__"}
    assert {attr for _, attr in stored} == {"M", "D", "n", "det", "adjT", "absdet"}


def test_only_the_digit_system_refuses_an_incomplete_zero_set():
    # DigitSystem.walkable is the one gate of every question about the
    # measure; zero_set_in_punctured_grid keeps its own refusal for the
    # conjugacy hypothesis. No other module names IncompleteZeroSet
    naming = {
        path.stem
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem not in ("errors", "__init__")
        for node in ast.walk(ast.parse(path.read_text()))
        if (isinstance(node, ast.Name) and node.id == "IncompleteZeroSet")
        or (isinstance(node, ast.alias) and node.name == "IncompleteZeroSet")
    }
    assert naming == {"zeros"}
    tree = ast.parse((PACKAGE / "zeros.py").read_text())
    raising = {
        func.name
        for func in ast.walk(tree)
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Raise) and "IncompleteZeroSet" in ast.unparse(node)
    }
    assert raising == {"walkable", "zero_set_in_punctured_grid"}


def test_ortho_leaves_the_expansion_test_to_the_gate():
    # the expansion test and the singular refusal are written in zeros
    # alone: the gate, require_expanding and DigitSystem.invertible
    for module in ("ortho", "hadamard", "fourier", "conjugacy"):
        tree = ast.parse((PACKAGE / f"{module}.py").read_text())
        imported = {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
        }
        assert "is_expanding" not in imported, module
        assert "SingularMatrix" not in imported, module


def test_console_script_resolves():
    # pyproject's [project.scripts] entry, and the package under the
    # directory its package discovery searches
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    config = tomllib.loads((SRC.parent / "pyproject.toml").read_text())
    (where,) = config["tool"]["setuptools"]["packages"]["find"]["where"]
    assert (SRC.parent / where / "spectral_affine" / "__init__.py").is_file()
    target = config["project"]["scripts"]["spectral-affine"]
    module, _, attr = target.partition(":")
    assert target == "spectral_affine.cli:main"
    assert callable(getattr(importlib.import_module(module), attr))
