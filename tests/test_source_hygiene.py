"""Static checks on the package source, using only the standard `ast`
module.

Invariants must be explicit raises, because `python -O` strips `assert`
statements.  A name imported with `from .x import` that its module never
uses is dead weight and hides which module really depends on which, and
so is a function, class or method that no module refers to.  The
benchmark in `perfbench/` times and counts package functions by name, so
each name it lists must stay a public function of its module.  Exact
verdicts never rest on factoring, so `squarefree_split` is for printing
only.  The gauge has one hat, so `GaugedMatrix.hat` is the only caller of
`linalg.diag_mul_right`.  Every verdict is exact, so no module imports
numpy or touches floating point, and the dense oracle, the independent
check of the reduction, imports nothing from the 6-j route.  The package
root re-exports nothing, so no function shadows the submodule it lives in.
The CLI declares `--json` and the family options once each.  Each
acceptance criterion records its checks through `CriterionResult` alone.
"""
import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "sl2ybe").glob("*.py"))


def test_sources_found():
    assert any(p.name == "ybe.py" for p in SOURCES)


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    lines = [node.lineno for node in ast.walk(_tree(path)) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert statements at lines {lines}"


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_no_unused_relative_imports(path):
    tree = _tree(path)
    imported = {alias.asname or alias.name
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level > 0
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == [], f"{path.name}: unused imports"


def _referenced_names():
    names = set()
    for path in SOURCES:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def _definitions(tree):
    """(qualified name, name) of every module-level function and class and
    of every method that is not a dunder."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{item.name}", item.name) for item in node.body
                        if isinstance(item, defs) and not item.name.startswith("__"))


def test_no_unreferenced_definitions():
    """A function, class or method, public or private, that nothing under
    the package refers to is dead code: tests do not count as users, and
    neither does an `__all__` entry.  The match is by name alone."""
    used = _referenced_names()
    dead = [f"{path.name}:{qualname}" for path in SOURCES
            for qualname, name in _definitions(_tree(path)) if name not in used]
    assert dead == [], f"unreferenced definitions: {dead}"


def _is_floating_point(node):
    return ((isinstance(node, ast.Name) and node.id == "float")
            or (isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)))
            or (isinstance(node, ast.FunctionDef) and node.name == "__float__"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_floating_point(path):
    """Every verdict is exact, so no module names `float`, holds a float
    literal or defines `__float__`."""
    found = sorted({node.lineno for node in ast.walk(_tree(path)) if _is_floating_point(node)})
    assert found == [], f"{path.name}: floating point at lines {found}"



def _module_level_names(tree):
    """Names a module binds at top level: functions, classes, assignments
    and imports."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
    return names


def _declared_all(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def test_all_names_defined():
    """Every `__all__` entry is bound in its module: a stale `__all__`
    string fails no import, so a deleted name could linger there."""
    trees = {path.stem: _tree(path) for path in SOURCES}
    missing = [f"{name}.{entry}" for name, tree in trees.items()
               for entry in _declared_all(tree)
               if entry not in _module_level_names(tree)]
    assert missing == [], f"__all__ entries never defined: {missing}"


def test_package_root_binds_only_version():
    """Each function is imported from its module, so the package root binds
    `__version__` alone and `from sl2ybe import sixj` is the module, not a
    function of the same name shadowing it."""
    tree = _tree(ROOT / "src" / "sl2ybe" / "__init__.py")
    assert _module_level_names(tree) == {"__version__"}
    from sl2ybe import sixj
    assert inspect.ismodule(sixj)


def test_cli_declares_each_shared_option_once():
    """`--json` and the family options live in one parent parser each, so
    no command can drift to its own spelling of them."""
    calls = [node.args[0].value for node in ast.walk(_tree(ROOT / "src" / "sl2ybe" / "cli.py"))
             if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "add_argument"
             and node.args and isinstance(node.args[0], ast.Constant)]
    counts = {opt: calls.count(opt) for opt in ("--json", "--family", "--family-file",
                                                  "--tag", "--file")}
    assert counts == {"--json": 1, "--family": 1, "--family-file": 1, "--tag": 0,
                      "--file": 0}


def _writes_outside(tree, cls, attrs):
    """(line, attribute) of every write to one of `attrs` outside the body
    of class `cls`: an assignment or deletion of the attribute, an item of
    it, or a method called on it."""
    owner = next(node for node in tree.body
                 if isinstance(node, ast.ClassDef) and node.name == cls)
    inside = {id(node) for node in ast.walk(owner)}
    found = []
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, (ast.Attribute, ast.Subscript)) and not isinstance(
                node.ctx, ast.Load):
            target = node if isinstance(node, ast.Attribute) else node.value
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            target = node.func.value
        else:
            continue
        if isinstance(target, ast.Attribute) and target.attr in attrs:
            found.append((node.lineno, target.attr))
    return found


def test_criteria_record_checks_through_the_result():
    """A criterion records a check only through `CriterionResult.check` or
    `.claim`, so no criterion can print a success line for a check that
    failed: each result is built from its number and title alone, and
    nothing else writes its `passed` or `details`."""
    tree = _tree(ROOT / "src" / "sl2ybe" / "acceptance.py")
    arities = [len(node.args) + len(node.keywords) for node in ast.walk(tree)
               if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
               and node.func.id == "CriterionResult"]
    assert len(arities) == 11 and set(arities) == {2}, arities
    assert _writes_outside(tree, "CriterionResult", {"passed", "details"}) == []


def _names_imported_from(tree, module):
    """Every name a module takes with `from .module import`, at any depth."""
    return sorted(alias.name for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and node.level == 1
                  and node.module == module for alias in node.names)


def test_four_matrix_system_boundary():
    """`classify` owns the four-matrix system F, G, H, H~ and its ansatz
    crosscheck, and reads only the reduced-equation residual from `ybe`;
    `ybe` reads nothing from `classify`."""
    trees = {path.stem: _tree(path) for path in SOURCES}
    assert _names_imported_from(trees["ybe"], "classify") == []
    assert _names_imported_from(trees["classify"], "ybe") == ["braid_residual"]


# The functions that may factor a radicand: they print values.
DISPLAY_FUNCTIONS = {"__str__", "display_discriminant"}


def _calls_outside(tree, callee, allowed):
    """(line, enclosing function) of every call to `callee` that is not
    inside a function named in `allowed` (the innermost function counts)."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == callee and owner not in allowed:
                    found.append((child.lineno, owner))
            visit(child, owner)

    visit(tree, None)
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_factoring_only_prints(path):
    """Equality, field membership and arithmetic are decided by squaring and
    isqrt; only printing may call squarefree_split."""
    found = _calls_outside(_tree(path), "squarefree_split", DISPLAY_FUNCTIONS)
    assert found == [], f"{path.name}: squarefree_split called at {found}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_sandwich_only_in_the_hat(path):
    """Every hat of a diagonal, the sandwich N diag(e) N, goes through
    GaugedMatrix.hat, the one method named `hat` in amatrix: it scales the
    columns of N by e before the one product, and nothing else calls
    linalg.diag_mul_right.  The one exception is the sign hat N D0 N, which
    the GaugedMatrix constructor takes in the same pass over N as N N."""
    found = _calls_outside(_tree(path), "diag_mul_right", set())
    owners = {"hat"} if path.name == "amatrix.py" else set()
    assert {owner for _, owner in found} == owners, (
        f"{path.name}: diag_mul_right called at {found}")


def _module_value(path, name):
    """The value assigned to `name` at module level in path, evaluated with
    only `tuple` and `range` available; the module itself is not imported."""
    for node in _tree(path).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            code = compile(ast.Expression(node.value), str(path), "eval")
            return eval(code, {"__builtins__": {"tuple": tuple, "range": range}})
    raise LookupError(f"{path.name} assigns no {name}")


def _benchmarked_functions():
    metrics = _module_value(ROOT / "perfbench" / "run.py", "FUNCTION_METRICS")
    distinct = _module_value(ROOT / "perfbench" / "child.py", "DISTINCT")
    return sorted({name for name, _ in metrics} | set(distinct))


@pytest.mark.parametrize("name", _benchmarked_functions())
def test_benchmarked_function_is_public(name):
    """The traced benchmark run wraps the public functions defined in each
    module; a metric whose function is renamed, made private or moved reads
    0 without any error."""
    module, attr = name.split(".")
    mod = importlib.import_module(f"sl2ybe.{module}")
    fn = getattr(mod, attr, None)
    assert not attr.startswith("_") and inspect.isfunction(fn), name
    assert fn.__module__ == mod.__name__, f"{name} is defined in {fn.__module__}"


def _exact_counts():
    return _module_value(ROOT / "perfbench" / "child.py", "EXACT_COUNTS")


def _counted_exact_functions():
    return [name.split(".")[1] for name in _exact_counts()
            if name.startswith("exact.") and name.endswith(".calls")]


@pytest.mark.parametrize("name", _counted_exact_functions())
def test_counted_exact_function_is_public(name):
    """The benchmark's `count` mode reads `exact.<name>` for each
    `exact.<name>.calls` entry; a missing name fails that run with an
    AttributeError."""
    exact = importlib.import_module("sl2ybe.exact")
    fn = getattr(exact, name, None)
    assert not name.startswith("_") and inspect.isfunction(fn), name
    assert fn.__module__ == exact.__name__, f"{name} is defined in {fn.__module__}"


def test_counted_quadext_constructor():
    """`exact.quadext_new` counts calls of QuadExt.__init__; without its own
    __init__ the count reads 0 without any error."""
    exact = importlib.import_module("sl2ybe.exact")
    assert "exact.quadext_new" in _exact_counts()
    assert inspect.isfunction(vars(exact.QuadExt).get("__init__"))


def _imported_words(tree):
    """Each dotted part of every module and name an import statement names,
    at any depth."""
    names = [name for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
             for name in [a.name for a in node.names] + [getattr(node, "module", None) or ""]]
    return {part for name in names for part in name.split(".")}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_numpy_import(path):
    assert "numpy" not in _imported_words(_tree(path)), path.name


def test_oracle_independent_of_the_six_j_route():
    """The dense oracle is the independent check of the reduction, so it
    reads nothing from the 6-j symbols or the four-matrix system."""
    words = _imported_words(_tree(ROOT / "src" / "sl2ybe" / "oracle.py"))
    assert words & {"sixj", "classify"} == set()


def _run_fresh(code):
    """Run `code` in a fresh interpreter with the package's `src` on its
    path; it fails the test by raising."""
    path = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_exact_verify_never_imports_numpy():
    """Neither a reduced check, the whole battery nor the dense oracle
    loads numpy."""
    _run_fresh("import sys, sl2ybe.cli\n"
               "runs = (['verify', '--family', 'yang', '--s', '2'],\n"
               "        ['suite', '--max-2s', '6'],\n"
               "        ['oracle', '--family', 'yang', '--s', '1', '--lambda', '1/2',\n"
               "         '--mu', '1/3'])\n"
               "codes = [sl2ybe.cli.main(argv + ['--json']) for argv in runs]\n"
               "assert codes == [0, 1, 0] and 'numpy' not in sys.modules, sorted(sys.modules)\n")


def test_cold_start_loads_only_what_the_command_runs():
    """`verify`, `family show`, `amat` and `eta` load none of the modules
    only other commands call, and no command loads `dataclasses`, which
    pulls in `inspect`: each would add its import to every fresh run."""
    family_file = str(ROOT / "perfbench" / "perturbed_spin_half.json")
    _run_fresh("import sys, sl2ybe.cli\n"
               "def run(*argvs):\n"
               "    return [sl2ybe.cli.main(argv + ['--json']) for argv in argvs]\n"
               "def loaded(*names):\n"
               "    return sorted(set(names) & set(sys.modules))\n"
               "codes = run(['verify', '--family', 'baxter-tl', '--s', '2', '--grid', 'dense'],\n"
               f"           ['verify', '--family-file', {family_file!r}],\n"
               "           ['family', 'show', '--family', 'zamolodchikov', '--s', '2',\n"
               "            '--m', '4'],\n"
               "           ['amat', '--s', '3/2', '--n', '3'],\n"
               "           ['eta', '--s', '5/2', '--m', '3', '--n', '4'])\n"
               "assert codes == [0, 1, 0, 0, 0], codes\n"
               "unused = loaded('sl2ybe.acceptance', 'sl2ybe.classify', 'sl2ybe.oracle',\n"
               "                'sl2ybe.sixj', 'dataclasses')\n"
               "assert unused == [], unused\n"
               "codes = run(['suite', '--max-2s', '6'],\n"
               "           ['oracle', '--family', 'yang', '--s', '1', '--lambda', '1/2',\n"
               "            '--mu', '1/3'],\n"
               "           ['scan-degeneracy'], ['sixj', '1/2', '1/2', '1', '1/2', '1/2', '1'])\n"
               "assert codes == [1, 0, 0, 0], codes\n"
               "assert loaded('dataclasses') == [], sorted(sys.modules)\n")


def _slots(cls):
    """The names a class declares in `__slots__`, or None without one."""
    for node in cls.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets):
            return ast.literal_eval(node.value)
    return None


def test_dataclass_fields_are_read():
    """Every package class but an exception declares its fields in
    `__slots__`, and each field is read as an attribute somewhere under the
    package (tests do not count as readers): a field nothing reads repeats
    an input or a result held elsewhere.  The match is by name alone, so an
    attribute of the same name on another object hides an unread field;
    `args.lam` in the CLI would mask a field `lam`."""
    read = {node.attr for path in SOURCES for node in ast.walk(_tree(path))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    classes = [(path.name, cls) for path in SOURCES for cls in ast.walk(_tree(path))
               if isinstance(cls, ast.ClassDef)]
    unslotted = [f"{name}:{cls.name}" for name, cls in classes if _slots(cls) is None
                 and not any(getattr(b, "id", "").endswith("Error") for b in cls.bases)]
    assert unslotted == [], f"classes without __slots__: {unslotted}"
    unread = [f"{name}:{cls.name}.{slot}" for name, cls in classes
              for slot in _slots(cls) or () if slot not in read]
    assert unread == [], f"slots never read: {unread}"
