"""Static rules on the package source."""

import ast
import pathlib

import speclab

SRC = pathlib.Path(speclab.__file__).parent

#: Arguments a function may leave unread: the scenario runner's pipelines
#: share one signature, (cfg, grid, V, rng, out_dir), and not every pipeline
#: draws random probes or writes files.
PIPELINE_ARGS = {"rng", "out_dir"}


def _allowed(module, func, arg):
    return module == "cli" and func.startswith("run_") and arg in PIPELINE_ARGS


def _ignored_arguments(tree):
    """(function, argument) for every argument its function never reads."""
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
        names = {p.arg for p in params if p is not None} - {"self", "cls"}
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
