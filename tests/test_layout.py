"""Source layout rules of the package."""

import ast
import importlib
import re
from pathlib import Path

import perimax


def test_no_imports_inside_functions():
    """Every import of ``src/perimax`` sits at module level, so an import
    cycle between modules shows at import time instead of hiding in a
    function body."""
    found = []
    for path in sorted(Path(perimax.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                found += ["%s:%d" % (path.name, node.lineno) for node in ast.walk(func)
                          if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not found, found


def test_no_unused_imports():
    """Every name that a module of ``src/perimax`` other than ``__init__``
    imports is read in that module or listed in its ``__all__``, so a
    deleted reader leaves no stale import behind (no linter runs here)."""
    unused = []
    for path in sorted(Path(perimax.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        imported, read, exported = {}, set(), set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(
                    node, "module", None) != "__future__":
                for alias in node.names:
                    imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Assign) and any(
                    getattr(target, "id", None) == "__all__" for target in node.targets):
                exported.update(ast.literal_eval(node.value))
        unused += ["%s:%d %s" % (path.name, line, name) for name, line in imported.items()
                   if name not in read | exported]
    assert not unused, unused


def test_direction_angles_in_one_place():
    """Every direction angle of the package comes from one ``arctan2`` call
    in ``topology``, so faces, pointedness and the path margin read corner
    angles with the same rounding."""
    found = []
    for path in sorted(Path(perimax.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "attr", getattr(node.func, "id", None))
                if name in ("arctan2", "atan2"):
                    found.append("%s:%d" % (path.name, node.lineno))
    assert len(found) == 1 and found[0].startswith("topology.py:"), found


def _call_sites(*names):
    """{name: ["file:line", ...]} of every call of each function name in
    ``src/perimax``."""
    found = {name: [] for name in names}
    for path in sorted(Path(perimax.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "attr", getattr(node.func, "id", None))
                if name in found:
                    found[name].append("%s:%d" % (path.name, node.lineno))
    return found


def test_one_edge_vector_rule():
    """``core._edge_vectors`` forms every edge vector p_head + Lambda c -
    p_tail of the package: it is called in ``validate_geometry`` (so every
    framework stores its rounding), the candidate orbits of
    ``_orbit_crossing_rows``, the Newton residual of ``_constraints`` and
    ``_length_derivatives`` (placement and rate); no second rounding ``_edge_vector_rows``
    remains, and the row dot products ``_dots`` are defined once, in
    ``core``, so a kernel-independent or exact rule has one place to go."""
    assert _callers("_edge_vectors", "_edge_vector_rows") == {
        "_edge_vectors": ["core.py:validate_geometry", "deform.py:_constraints",
                          "pseudotri.py:_length_derivatives", "pseudotri.py:_length_derivatives",
                          "topology.py:_orbit_crossing_rows"],
        "_edge_vector_rows": []}
    named, defined = [], []
    for path in sorted(Path(perimax.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        named += [path.name for node in ast.walk(tree) if "_edge_vector_rows" in (
            getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None))]
        defined += [path.name for node in ast.walk(tree)
                    if isinstance(node, ast.FunctionDef) and node.name == "_dots"]
    assert named == [] and defined == ["core.py"], (named, defined)


def test_one_crossing_broad_phase():
    """``_cell_candidates`` and ``_exact_crossings`` each have one call
    site in the package, so every crossing decision goes through the one
    lattice-cell grid and a second broad phase cannot return unnoticed."""
    found = _call_sites("_cell_candidates", "_exact_crossings")
    assert all(len(sites) == 1 for sites in found.values()), found


def test_one_character_table():
    """``_characters`` and ``_character_ranks`` each have one call site in
    the package, so the probe and the block ranks list characters and pair
    each with its conjugate in one place, and a second pairing rule cannot
    return unnoticed.  The class table ``_character_classes`` serves the
    rank path alone: one call, in ``rigidity._sublattice_ranks``, and no
    other module names it.  Relaxation connectivity has one rule,
    ``PeriodicFramework._joined_index``, called by ``stress_persists`` and
    ``ultrarigidity_probe`` only."""
    found = _call_sites("_characters", "_character_ranks", "_character_classes")
    assert all(len(sites) == 1 for sites in found.values()), found
    assert _callers("_character_classes", "_joined_index") == {
        "_character_classes": ["rigidity.py:_sublattice_ranks"],
        "_joined_index": ["relax.py:stress_persists", "relax.py:ultrarigidity_probe"],
    }
    named = []
    for path in sorted(Path(perimax.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        named += [path.name for node in ast.walk(tree) if "_character_classes" in (
            getattr(node, "id", None), getattr(node, "attr", None), getattr(node, "name", None))]
    assert named and set(named) == {"rigidity.py"}, named


def test_one_stress_residual():
    """``STRESS_RTOL`` is read only in ``rigidity``, and ``_stress_terms``
    and ``_stress_check`` are called only from ``check_periodic_stress``
    and ``relax.stress_persists``, so the direct check and the sweep share
    one copy of the residual arithmetic and its tolerance."""
    tolerance, callers = [], {"_stress_terms": [], "_stress_check": []}
    for path in sorted(Path(perimax.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        tolerance += [path.name for node in ast.walk(tree)
                      if "STRESS_RTOL" in (getattr(node, "id", None), getattr(node, "attr", None),
                                           getattr(node, "name", None))]
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef):
                for node in ast.walk(func):
                    name = getattr(getattr(node, "func", None), "id", None)
                    if isinstance(node, ast.Call) and name in callers:
                        callers[name].append("%s:%s" % (path.name, func.name))
    assert tolerance and set(tolerance) == {"rigidity.py"}, tolerance
    for sites in callers.values():
        assert sorted(sites) == ["relax.py:stress_persists",
                                 "rigidity.py:check_periodic_stress"], callers


def _callers(*names):
    """{name: sorted ["file:function", ...]} of every call of each function
    name in ``src/perimax``, by the top-level function that holds it."""
    found = {name: [] for name in names}
    for path in sorted(Path(perimax.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for func in tree.body:
            for node in ast.walk(func):
                name = getattr(getattr(node, "func", None), "attr",
                               getattr(getattr(node, "func", None), "id", None))
                if isinstance(node, ast.Call) and name in found:
                    found[name].append("%s:%s" % (path.name, getattr(func, "name", "<module>")))
    return {name: sorted(sites) for name, sites in found.items()}


def test_certificate_has_one_factorization():
    """``np.linalg.cholesky`` has no call site in ``src/perimax``, and the
    stacked gufunc ``rigidity._cholesky_lower`` one, in ``_full_rank``:
    every rank certificate reads its verdicts from the one factorization."""
    assert _callers("cholesky", "_cholesky_lower") == {
        "cholesky": [], "_cholesky_lower": ["rigidity.py:_full_rank"]}


def test_private_numpy_bindings_have_one_call_site():
    """numpy's LAPACK gufuncs are bound once each, in ``rigidity``, and
    each binding has one call site: the Cholesky factor of the rank
    certificate in ``_full_rank``, the Newton step's least-squares solve in
    ``deform._newton_correct`` and the one full SVD in ``_kernel``, the
    guarded kernel helper.  ``tests/test_deform.py`` checks that they return
    their public wrappers' results bit for bit, so a numpy that changes them
    fails there."""
    bound = []
    for path in sorted(Path(perimax.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        bound += ["%s:%s" % (path.name, node.attr) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and getattr(node.value, "attr", None) == "_umath_linalg"]
    assert sorted(bound) == ["rigidity.py:cholesky_lo", "rigidity.py:lstsq",
                             "rigidity.py:svd_f"], bound
    assert _callers("_cholesky_lower", "_lstsq", "_svd") == {
        "_cholesky_lower": ["rigidity.py:_full_rank"], "_lstsq": ["deform.py:_newton_correct"],
        "_svd": ["rigidity.py:_kernel"]}


def test_one_corner_rule():
    """Convex, flat and reflex corners are told apart in one place,
    ``topology._corner_kinds``, the one reader of ``CORNER_ANGLE_TOL``:
    face corner counts, pointedness in the certificate and the path's
    corner table call it.  ``certify_ppt`` reads pointedness off the faces
    it traced, with no second star table, and no pointedness tolerance of
    its own is defined."""
    readers, defined = [], []
    for path in sorted(Path(perimax.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for func in tree.body:
            for node in ast.walk(func):
                name = getattr(node, "id", getattr(node, "attr", None))
                if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                    if name == "CORNER_ANGLE_TOL":
                        readers.append("%s:%s" % (path.name, getattr(func, "name", "<module>")))
                elif isinstance(node, (ast.Name, ast.Attribute)) and name == "POINTED_TOL":
                    defined.append("%s:%d" % (path.name, node.lineno))
    assert set(readers) == {"topology.py:_corner_kinds"}, readers
    assert not defined, defined
    found = _callers("_corner_kinds", "_star_table", "_pointedness_margins")
    assert found["_corner_kinds"] == ["deform.py:_corner_table", "pseudotri.py:certify_ppt",
                                      "topology.py:corner_count"], found
    assert "pseudotri.py:certify_ppt" not in found["_star_table"] + found[
        "_pointedness_margins"], found


def test_numpy_floor_covers_the_api_read():
    """``ndarray.mT`` exists from NumPy 2.0, so while ``src/perimax`` reads
    it the NumPy floor of ``pyproject.toml`` is at least 2.0.  The file is
    read as text: ``tomllib`` needs Python 3.11, and the package supports
    3.10."""
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    floor = re.search(r'^dependencies = \[.*"numpy>=(\d+)\.(\d+)', text, re.MULTILINE)
    assert floor, "no numpy floor in the dependencies of pyproject.toml"
    reads = []
    for path in sorted(Path(perimax.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        reads += ["%s:%d" % (path.name, node.lineno) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "mT"]
    assert not reads or tuple(map(int, floor.groups())) >= (2, 0), (floor.group(0), reads)


def test_one_report_writer():
    """No module calls ``json.dump`` or ``json.dumps``: every report goes
    through ``cli._write_report``, the one caller of the encoder
    ``_json_text`` besides itself, so a report cannot leave in other bytes."""
    found = _callers("dump", "dumps", "_json_text", "_write_report")
    assert not found["dump"] and not found["dumps"], found
    assert set(found["_json_text"]) == {"cli.py:_json_text", "cli.py:_write_report"}, found
    assert found["_json_text"].count("cli.py:_write_report") == 1, found
    assert found["_write_report"] == ["cli.py:_emit", "cli.py:cmd_deform"], found


def test_one_request_cycle():
    """``cli.main`` alone reads FILE and prints the report: ``_load`` is
    called once and ``_emit`` three times (the report and each error kind),
    all in ``main``.  Every ``cmd_*`` takes ``(args, fw)`` and returns its
    report, never an exit code, so no subcommand reads, prints or exits on
    its own."""
    assert _callers("_load", "_emit") == {"_load": ["cli.py:main"],
                                          "_emit": ["cli.py:main"] * 3}
    path = Path(perimax.__file__).parent / "cli.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    commands = [func for func in tree.body
                if isinstance(func, ast.FunctionDef) and func.name.startswith("cmd_")]
    assert len(commands) == 10, [func.name for func in commands]
    for func in commands:
        assert [arg.arg for arg in func.args.args] == ["args", "fw"], func.name
        returned = [node.value for node in ast.walk(func) if isinstance(node, ast.Return)]
        assert returned and not any(isinstance(value, ast.Constant) and type(value.value) is int
                                    for value in returned), func.name


def _scoped_callers(*names):
    """{name: sorted ["file:function.inner", ...]} of every call of each
    function name in ``src/perimax``, by the chain of functions (lambdas
    included) that holds it."""
    found = {name: [] for name in names}

    def visit(node, path, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.Lambda)):
                inner = scope + [getattr(child, "name", "<lambda>")]
            elif isinstance(child, ast.Call):
                name = getattr(child.func, "attr", getattr(child.func, "id", None))
                if name in found:
                    found[name].append("%s:%s" % (path.name, ".".join(scope) or "<module>"))
            visit(child, path, inner)

    for path in sorted(Path(perimax.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), path, [])
    return {name: sorted(sites) for name, sites in found.items()}


def test_path_arrays_built_once():
    """The row scatter tables (``_row_assembly``) and the gauge rows are
    built only by ``rigidity_matrix`` and ``_flex_system``.  ``deform``
    reaches them only through ``_flex_system``: once per tangent in
    ``flex_tangent``, and once per path in the body of ``_constraints``,
    outside the residual and Jacobian functions it returns, so a change
    cannot put them back into the continuation step loop."""
    found = _scoped_callers("_row_assembly", "gauge_rows", "_flex_system")
    assert found == {
        "_row_assembly": ["rigidity.py:_flex_system", "rigidity.py:rigidity_matrix"],
        "gauge_rows": ["rigidity.py:_flex_system"],
        "_flex_system": ["deform.py:_constraints", "deform.py:flex_tangent",
                         "pseudotri.py:_flex_derivatives", "rigidity.py:gauge_reduced_kernel"],
    }, found


def test_pair_rates_read_by_the_expansive_verdicts_only():
    """Squared-distance rates over the pair table are read by a path's
    stacked verdict pass, once per chunk of samples, and once per
    ``expansive_check``: the flex is oriented by its cell-area rate, with
    no pair table."""
    assert _scoped_callers("_pair_rates") == {
        "_pair_rates": ["deform.py:_judged", "deform.py:expansive_check"]}


def _is_tolerance(name):
    return name in ("tol", "rtol", "atol", "eps_rel") or name.endswith("_tol")


def _literal_factors(node):
    """The numeric literals that scale an expression: the expression
    itself, or a factor of a product or quotient, under any sign."""
    if isinstance(node, ast.UnaryOp):
        return _literal_factors(node.operand)
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Mult, ast.Div)):
        return _literal_factors(node.left) + _literal_factors(node.right)
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return [node.value]
    return []


def test_thresholds_are_constants():
    """No function of the package takes a tolerance (``tol``, ``rtol``,
    ``eps_rel`` or ``*_tol``), and no call passes one scaled by a numeric
    literal (``tol=1e-9 * x``), so every verdict is read across its module
    constant, under the gap guard tuned for it; and ``_fix_signs`` has one
    call site, so every kernel basis comes from the one guarded helper."""
    tolerances, literals, fix_signs = [], [], []
    for path in sorted(Path(perimax.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                names = [arg.arg for arg in a.posonlyargs + a.args + a.kwonlyargs
                         + [a.vararg, a.kwarg] if arg is not None]
                tolerances += ["%s:%d %s" % (path.name, node.lineno, name) for name in names
                               if _is_tolerance(name)]
            elif isinstance(node, ast.Call):
                name = getattr(node.func, "attr", getattr(node.func, "id", None))
                if name == "_fix_signs":
                    fix_signs.append("%s:%d" % (path.name, node.lineno))
                literals += ["%s:%d %s" % (path.name, node.lineno, kw.arg) for kw in node.keywords
                             if _is_tolerance(kw.arg or "") and _literal_factors(kw.value)]
    assert not tolerances, tolerances
    assert not literals, literals
    assert len(fix_signs) == 1, fix_signs


def test_exports_name_module_attributes():
    """Every ``__all__`` entry of ``src/perimax`` names an attribute of its
    module, so a deleted function leaves no stale export behind."""
    exported, stale = [], []
    for path in sorted(Path(perimax.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                    getattr(t, "id", None) == "__all__" for t in node.targets):
                module = importlib.import_module("perimax." + path.stem)
                exported += ast.literal_eval(node.value)
                stale += ["%s: %s" % (path.name, name) for name in ast.literal_eval(node.value)
                          if not hasattr(module, name)]
    assert exported and not stale, stale


# Exports that no module, CLI command or bench file reads, each kept for
# what it computes in the paper's terms.
_UNREAD_EXPORTS = {
    "contraction_check": "the finite lattice-contraction test of auxetic motion "
                         "(Borcea & Streinu, \"Geometric auxetics\", Proc. R. Soc. A 2015)",
    "vertex_heights": "the Maxwell lifting read at the vertices",
}


def test_exports_have_readers():
    """Every ``__all__`` name of ``src/perimax`` is read: it appears as a
    word in ``src/perimax`` outside its own top-level definition and the
    export lines (``__all__`` and the imports of ``__init__``), or in a
    ``bench/*.py`` file.  ``_UNREAD_EXPORTS`` lists the exceptions."""
    exported, lines = [], []      # lines: (text, name of the definition holding it)
    for path in sorted(Path(perimax.__file__).parent.glob("*.py")):
        text = path.read_text(encoding="utf-8").splitlines()
        owner = [None] * (len(text) + 1)
        for node in ast.parse("\n".join(text), filename=str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                held = node.name
            elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                held = getattr(node.targets[0], "id", None)
                if held == "__all__":
                    exported += ast.literal_eval(node.value)
            elif isinstance(node, ast.ImportFrom) and path.name == "__init__.py":
                held = "__all__"
            else:
                continue
            owner[node.lineno:node.end_lineno + 1] = [held] * (node.end_lineno + 1 - node.lineno)
        lines += [(line, owner[at]) for at, line in enumerate(text, 1) if owner[at] != "__all__"]
    bench = "\n".join(path.read_text(encoding="utf-8") for path in
                      sorted((Path(__file__).resolve().parents[1] / "bench").glob("*.py")))
    unread = []
    for name in exported:
        word = re.compile(r"\b%s\b" % re.escape(name))
        if not (word.search(bench) or any(word.search(line) for line, held in lines
                                           if held != name)):
            unread.append(name)
    assert sorted(unread) == sorted(_UNREAD_EXPORTS), unread
