"""Static rules on the package source."""

import ast
import inspect
import pathlib

import speclab
from speclab import cli, potentials

SRC = pathlib.Path(speclab.__file__).parent

#: Arguments a function may leave unread: the scenario runner's pipelines
#: share one signature, (cfg, grid, V, rng, out_dir), and not every pipeline
#: draws random probes or writes files.
PIPELINE_ARGS = {"rng", "out_dir"}


def _allowed(module, func, arg):
    return module == "cli" and func.startswith("run_") and arg in PIPELINE_ARGS


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _parameters(node):
    """The names of the parameters of a function or lambda node."""
    a = node.args
    params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
    return [p.arg for p in params if p is not None]


def _ignored_arguments(tree):
    """(function, argument) for every argument its function never reads."""
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, FUNCTIONS):
            continue
        names = set(_parameters(node)) - {"self", "cls"}
        body = node.body if isinstance(node.body, list) else [node.body]
        used = {
            n.id
            for stmt in body
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        name = getattr(node, "name", "<lambda>")
        out.extend((name, arg) for arg in sorted(names - used))
    return out


def test_no_function_ignores_its_arguments():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for func, arg in _ignored_arguments(tree):
            if not _allowed(path.stem, func, arg):
                offenders.append(f"{path.stem}.{func}: {arg}")
    assert offenders == []


def _name(node):
    """The name a Name or Attribute node refers to, else None."""
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def _tests_format(node):
    """Whether the node tests a potential's format: isinstance(...,
    PotentialSpec), a bandwidth(...) of an operator, or a comparison of V
    or *.V with None (the free operator is zero samples, not None)."""
    if isinstance(node, ast.Compare):
        operands = [node.left, *node.comparators]
        return any(_name(x) == "V" for x in operands) and any(
            isinstance(x, ast.Constant) and x.value is None for x in operands
        )
    if not isinstance(node, ast.Call):
        return False
    name = _name(node.func)
    if name == "isinstance" and len(node.args) == 2:
        kinds = node.args[1]
        kinds = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
        return any(_name(kind) == "PotentialSpec" for kind in kinds)
    return name == "bandwidth"


def _callers(tree, match, kind=ast.Call):
    """(innermost enclosing function, node) for every node of the kind that
    match accepts."""
    out = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, kind) and match(node):
            out.append((func, node))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, "<module>")
    return out


def test_only_samples_tests_the_potential_format():
    # every path choice reads the potential through birman._samples
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found.extend(
            f"{path.stem}.{func}" for func, _ in _callers(tree, _tests_format, ast.AST)
        )
    assert found == ["birman._samples"]


def test_no_function_takes_unsymmetric_bands():
    # every tridiagonal is symmetric and travels as its bands (d, e)
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, FUNCTIONS):
                found.extend(
                    f"{path.stem}.{getattr(node, 'name', '<lambda>')}: {arg}"
                    for arg in _parameters(node)
                    if arg in ("dl", "du")
                )
    assert found == []


#: The LAPACK routines that factor and solve tridiagonals: LU (gttrf, gttrs)
#: and LDL^T (pttrf, pttrs).
BAND_ROUTINES = ("gttrf", "gttrs", "pttrf", "pttrs")


def _names_lapack_band_routine(node):
    """Whether a name, attribute or string (a docstring too) names one of
    BAND_ROUTINES."""
    text = node.value if isinstance(node, ast.Constant) else _name(node)
    return isinstance(text, str) and any(r in text for r in BAND_ROUTINES)


def test_only_the_tridiagonal_solver_names_the_band_routines():
    # one place chooses the kernel and factors and solves tridiagonals; the
    # rest go through it
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(), filename=str(path)).body:
            if any(_names_lapack_band_routine(node) for node in ast.walk(top)):
                found.add(f"{path.stem}.{getattr(top, 'name', '<module>')}")
    assert found == {"birman._tridiagonal_solver"}


#: The dense realization of I + V R0(lambda^2) and who may call it: the
#: fallback of `bs_solve` where lambda h is near a nonzero multiple of pi.
DENSE_CALLERS = {
    "build_R0": {"birman.bs_solve"},
    "direct_inverse": {"birman.bs_solve"},
}


def test_only_bs_solve_reaches_the_dense_realization():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for func, call in _callers(tree, lambda call: _name(call.func) in DENSE_CALLERS):
            name = _name(call.func)
            if f"{path.stem}.{func}" not in DENSE_CALLERS[name]:
                offenders.append(f"{path.stem}.{func} calls {name}")
    assert offenders == []


#: Where the callers of the package live.
CALLER_DIRS = (SRC, pathlib.Path(__file__).parent, SRC.parents[1] / "demos")


def _options(tree):
    """(function, parameter, position) for every parameter with a default;
    position counts the arguments a call passes before it, None for a
    keyword-only parameter.  An __init__ goes by its class's name."""
    out = []

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                positional = [*a.posonlyargs, *a.args]
                skip = 1 if positional and positional[0].arg in ("self", "cls") else 0
                name = cls if child.name == "__init__" else child.name
                defaulted = positional[len(positional) - len(a.defaults):]
                for p in defaulted:
                    out.append((name, p.arg, positional.index(p) - skip))
                for p, d in zip(a.kwonlyargs, a.kw_defaults):
                    if d is not None:
                        out.append((name, p.arg, None))
                visit(child, None)

    visit(tree, None)
    return out


def _passes(call, param, position):
    """Whether the call passes the parameter, by keyword, by position or
    through *args / **kwargs."""
    if any(kw.arg in (param, None) for kw in call.keywords):
        return True
    if position is None:
        return False
    starred = any(isinstance(arg, ast.Starred) for arg in call.args)
    return starred or len(call.args) > position


def test_every_option_has_a_caller():
    calls = {}
    for folder in CALLER_DIRS:
        for path in sorted(folder.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Call):
                    calls.setdefault(_name(node.func), []).append(node)
    unset = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for func, param, position in _options(tree):
            if path.stem == "cli" and func.startswith("run_") and param == "out_dir":
                continue  # dispatched through cli._PIPELINES
            if path.stem == "potentials" and param in cli._BUILTINS.get(func, ()):
                continue  # a scenario's params, passed through cli._BUILTINS
            if not any(_passes(c, param, position) for c in calls.get(func, [])):
                unset.append(f"{path.stem}.{func}: {param}")
    assert unset == []


def _imported_modules(tree):
    """The dotted name of every module an import statement loads, at any
    level of the tree (function-local imports included)."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            out.append(node.module)
            out.extend(f"{node.module}.{alias.name}" for alias in node.names)
    return out


def test_no_module_imports_scipy_sparse():
    # scipy.sparse costs a pass's peak RSS; no step of the package needs it
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found.extend(
            f"{path.stem}: {name}"
            for name in _imported_modules(tree)
            if name == "scipy.sparse" or name.startswith("scipy.sparse.")
        )
    assert found == []


def test_every_scenario_key_is_read():
    # a key of the scenario schema that no code reads would be accepted and
    # then ignored: each is named by some function of cli.py, and a builtin
    # family's params are the keyword arguments of potentials.<family>
    tree = ast.parse((SRC / "cli.py").read_text())
    named = {
        node.value
        for top in tree.body
        if isinstance(top, ast.FunctionDef)
        for node in ast.walk(top)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }
    keys = {key for section in cli._SCHEMA.values() for key in section}
    assert sorted(keys - named) == []
    assert sorted(set(cli._BASE) - named) == []
    for family, params in cli._BUILTINS.items():
        accepted = inspect.signature(getattr(potentials, family)).parameters
        assert sorted(set(params) - set(accepted)) == [], family


#: Functions that no pipeline reaches yet but that stay in the package, each
#: with the ROADMAP item that will run it from a pipeline (or the demo that
#: reads it).  What they call counts as reached; an entry leaves the list
#: once a pipeline reaches it.
ALLOWLIST = {
    "birman.high_energy_norm_scan": "item 11: the Born step",
    "birman.uniform_inverse_scan": "item 11: uniform invertibility",
    "birman.local_neumann_inverse": "item 11: the local Neumann series",
    "ftdiag.k2_bound_check": "item 11: the K2 bounds",
    "ftdiag.vb_hat_bound_check": "item 11: the V B-hat bound",
    "evolution.stone_check": "item 9(b): the Stone formula",
    "lowenergy.inverse_via_formula": "criterion 3: the S(lambda) formula",
    "potentials.threshold_moment": "item 7(a): the threshold report",
    "birman.PotentialSpec.composite_norm": "item 7(a): the threshold report",
    "jordan.expected_gram": "demos/threshold_classification.py",
}

FUNCS = FUNCTIONS[:2]  # the named ones


def _uses(node):
    """The parts of a definition whose names count as its uses: all of a
    function, and of a class all but its methods."""
    if isinstance(node, ast.ClassDef):
        return [*node.decorator_list, *node.bases, *node.keywords,
                *(stmt for stmt in node.body if not isinstance(stmt, FUNCS))]
    return [node]


def _unreached(sources, roots):
    """The qualified names (module.function, module.Class, module.Class.method)
    of the definitions in `sources`, {module: source text}, that no chain of
    names leads to from `roots` and the module top levels.

    A name counts where it is loaded: a bare name through its module's
    definitions and relative imports, module.name through the module, and
    any other .name reaches the methods of that name of every reached
    class (a dunder method is reached with its class).  An import is no
    use, nor is a string constant; a nested function belongs to the
    function around it.
    """
    defs, namespace, todo = {}, {}, []
    for module, text in sources.items():
        tree = ast.parse(text)
        ns = namespace[module] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                for alias in node.names:
                    target = f"{node.module}.{alias.name}" if node.module else alias.name
                    ns[alias.asname or alias.name] = target
        for stmt in tree.body:
            if not isinstance(stmt, (*FUNCS, ast.ClassDef)):
                todo.append((module, stmt))
                continue
            name = ns[stmt.name] = f"{module}.{stmt.name}"
            defs[name] = (module, stmt, None)
            for method in stmt.body if isinstance(stmt, ast.ClassDef) else ():
                if isinstance(method, FUNCS):
                    defs[f"{name}.{method.name}"] = (module, method, name)
    reached, named, attributes = set(roots), set(), set()
    todo += [defs[name][:2] for name in roots]
    while todo:
        for module, node in todo:
            ns = namespace[module]
            for part in _uses(node):
                for n in ast.walk(part):
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                        named.add(ns.get(n.id))
                    elif isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
                        base = ns.get(n.value.id) if isinstance(n.value, ast.Name) else None
                        if base in sources:
                            named.add(f"{base}.{n.attr}")
                        else:
                            attributes.add(n.attr)
        new = {
            name for name, (_, node, cls) in defs.items()
            if name not in reached and (
                name in named if cls is None else cls in reached
                and (node.name.startswith("__") or node.name in attributes)
            )
        }
        reached |= new
        todo = [defs[name][:2] for name in new]
    return sorted(set(defs) - reached)


def _pipeline_roots():
    """The entry point, the pipelines of cli._PIPELINES and the builtin
    families of cli._BUILTINS, which cli.builtin_potential looks up by name."""
    pipelines = {f"cli.{run.__name__}" for run in cli._PIPELINES.values()}
    return {"cli.main", *pipelines, *(f"potentials.{name}" for name in cli._BUILTINS)}


def test_every_function_is_reached():
    # every function, class and method of the package runs from a pipeline
    # or is the root of a check on ALLOWLIST; the rest belongs in tests/
    sources = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    assert _unreached(sources, _pipeline_roots() | set(ALLOWLIST)) == []
    assert set(ALLOWLIST) <= set(_unreached(sources, _pipeline_roots()))


#: A package with one dead function and one dead method: a string that
#: names a function and an import of one are no use of it.
DEAD_CODE = {
    "core": """
from . import util
from .util import used


class Spec:
    def __init__(self):
        self.value = used()

    def read(self):
        return util.helper(self.value)

    def unread(self):
        return self.value


def main():
    return Spec().read()


def dead():
    return used()
""",
    "util": """
from .core import dead


def used():
    return 1


def helper(x):
    return "dead" if x else None
""",
}


def test_the_reachability_walk_reports_planted_dead_code():
    assert _unreached(DEAD_CODE, {"core.main"}) == ["core.Spec.unread", "core.dead"]
