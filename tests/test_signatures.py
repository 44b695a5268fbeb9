"""Every defaulted parameter of a function in src/fracrel or in
tests/oracles.py (the oracles and checks only the tests call) is set by a
call.

A default that no call overrides is a constant dressed as a parameter: the
signature offers a choice that nobody makes.  The package offers only the
choices its own code and the benchmark make, so a default of src/fracrel
counts calls in src/ and perfbench/; a default of tests/oracles.py counts
calls in tests/ as well.  Calls are matched to definitions by the callee's
name.  A call that passes a parameter only by forwarding a defaulted
parameter of its own enclosing function (``f(step=step)``) counts only
when that parameter is itself set somewhere.  A ``*args`` argument counts
as setting the positional parameters from its position on, and a
``**kwargs`` argument as setting every parameter.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ORACLES = "tests/oracles.py"

# 'module.function(parameter)' -> why a test-only choice stays a parameter
EXEMPT = {
    "symbols.default_xi_grid(nodes)":
        "the argmin-refinement test sweeps the xi grid at 200 and 800 "
        "nodes around the package's 400",
}


def _sources():
    """Relative path -> text of every Python file the guard reads."""
    paths = sorted((ROOT / "src" / "fracrel").glob("*.py"))
    for folder in ("tests", "perfbench"):
        paths += sorted((ROOT / folder).rglob("*.py"))
    return {path.relative_to(ROOT).as_posix(): path.read_text()
            for path in paths}


def _defaulted(fn):
    """(name, positional index or None) of each defaulted parameter; the
    index counts from the first argument a caller passes, past self/cls."""
    args = fn.args
    pos = args.posonlyargs + args.args
    skip = 1 if pos and pos[0].arg in ("self", "cls") else 0
    first = len(pos) - len(args.defaults)
    out = [(a.arg, i - skip) for i, a in enumerate(pos) if i >= first]
    out += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
            if d is not None]
    return out


def _calls(tree):
    """(callee name, call node, enclosing def or None) for every call."""
    stack = [(tree, None)]
    while stack:
        node, owner = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node
        if isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name is not None:
                yield name, node, owner
        stack.extend((child, owner) for child in ast.iter_child_nodes(node))


def _passed(call, param, index):
    """The expression ``call`` passes for the parameter, True when a star
    argument may reach it, or None when it is left at its default."""
    for kw in call.keywords:
        if kw.arg is None:
            return True
        if kw.arg == param:
            return kw.value
    for i, arg in enumerate(call.args):
        if index is None or i > index:
            break
        if isinstance(arg, ast.Starred):
            return True
        if i == index:
            return arg
    return None


def unset_defaults(sources, exempt=True):
    """Defaulted parameters of src/fracrel and tests/oracles.py that no
    counted call sets, as 'path:line function(parameter)' strings; the
    ``sources`` map relative paths to text."""
    trees = {path: ast.parse(text) for path, text in sources.items()}
    defs = {}  # function name -> [(parameter, index, where, qualified)]
    for path, tree in trees.items():
        if not (path.startswith("src/fracrel/") or path == ORACLES):
            continue
        module = Path(path).stem
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs.setdefault(node.name, []).extend(
                    (param, index, f"{path}:{node.lineno}",
                     f"{module}.{node.name}({param})")
                    for param, index in _defaulted(node))
    # (where, parameter) -> the (where, parameter) pairs whose being set
    # would set it; None stands for a call that sets it outright
    sources_of = {(where, param): [] for params in defs.values()
                  for param, _, where, _ in params}
    for path, tree in trees.items():
        from_tests = path.startswith("tests/")
        for name, call, owner in _calls(tree):
            for param, index, where, _ in defs.get(name, ()):
                if from_tests and not where.startswith(ORACLES):
                    continue
                value = _passed(call, param, index)
                if value is None:
                    continue
                forwarded = (isinstance(value, ast.Name)
                             and owner is not None
                             and value.id in dict(_defaulted(owner)))
                sources_of[where, param].append(
                    (f"{path}:{owner.lineno}", value.id) if forwarded
                    else None)
    unset = set(sources_of)
    changed = True
    while changed:
        changed = False
        for key in sorted(unset):
            if any(src is None or src not in unset
                   for src in sources_of[key]):
                unset.discard(key)
                changed = True
    return sorted(f"{where} {fn}({param})" for fn, params in defs.items()
                  for param, _, where, qualified in params
                  if (where, param) in unset
                  and not (exempt and qualified in EXEMPT))


def overridden_defaults(sources):
    """Defaulted parameters of src/fracrel that every call sets, as
    'path:line function(parameter)' strings; the ``sources`` map relative
    paths to text.  Calls in src/, tests/ and perfbench/ count.  A call
    leaves a parameter at its default unless it passes the parameter by
    name or position; a star argument that may reach it counts as leaving
    it, since it may not."""
    trees = {path: ast.parse(text) for path, text in sources.items()}
    defs = {}  # function name -> [(parameter, index, where)]
    for path, tree in trees.items():
        if not path.startswith("src/fracrel/"):
            continue
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs.setdefault(node.name, []).extend(
                    (param, index, f"{path}:{node.lineno}")
                    for param, index in _defaulted(node))
    read = set()
    for tree in trees.values():
        for name, call, _ in _calls(tree):
            for param, index, where in defs.get(name, ()):
                if _passed(call, param, index) in (None, True):
                    read.add((where, param))
    return sorted(f"{where} {fn}({param})" for fn, params in defs.items()
                  for param, _, where in params if (where, param) not in read)


def _line(sources, module, name):
    tree = ast.parse(sources[f"src/fracrel/{module}.py"])
    return next(node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == name)


def test_every_default_is_set_by_some_call():
    unset = unset_defaults(_sources())
    assert not unset, (
        "defaulted parameters that no counted call sets (src/ and "
        "perfbench/ for the package, tests/ too for the oracles); make "
        "each a module constant or a literal at its one use:\n  "
        + "\n  ".join(unset))


def test_every_exemption_is_needed():
    # without the exemption exactly the exempt parameter comes back
    sources = _sources()
    line = _line(sources, "symbols", "default_xi_grid")
    assert unset_defaults(sources, exempt=False) == [
        f"src/fracrel/symbols.py:{line} default_xi_grid(nodes)"]


def test_negative_control_unset_defaults_fail():
    probe = ("\n\ndef _probe(values, spread=1.0, *, scale=1.0):\n"
             "    return values * spread * scale\n")
    # a test call does not set a package default
    sources = _sources()
    sources["src/fracrel/grid.py"] += probe
    sources["src/fracrel/cli.py"] += "\n\n_probe(1.0, 2.0)\n"
    sources["tests/test_grid.py"] += "\n\n_probe(1.0, scale=2.0)\n"
    unset = [f"src/fracrel/grid.py:{_line(sources, 'grid', '_probe')} "
             "_probe(scale)"]
    assert unset_defaults(sources) == unset
    # *args may fill values and spread, but never the keyword-only scale
    sources = _sources()
    sources["src/fracrel/grid.py"] += probe
    sources["src/fracrel/cli.py"] += "\n\n_probe(*(1.0, 2.0))\n"
    assert unset_defaults(sources) == unset
    # **kwargs still reaches every parameter
    sources["src/fracrel/cli.py"] += "\n\n_probe(1.0, **{'scale': 2.0})\n"
    assert unset_defaults(sources) == []


def test_every_default_is_left_in_place_by_some_call():
    overridden = overridden_defaults(_sources())
    assert not overridden, (
        "defaulted parameters of src/fracrel that every call in src/, "
        "tests/ and perfbench/ sets; a default nobody reads is a value "
        "nobody chose, so make each parameter required:\n  "
        + "\n  ".join(overridden))


def test_negative_control_overridden_defaults_fail():
    probe = ("\n\ndef _probe(values, spread=1.0, *, scale=1.0):\n"
             "    return values * spread * scale\n")
    # calls that set both parameters leave neither default in place, test
    # calls included
    sources = _sources()
    sources["src/fracrel/grid.py"] += probe
    line = _line(sources, "grid", "_probe")
    sources["src/fracrel/cli.py"] += "\n\n_probe(1.0, 2.0, scale=3.0)\n"
    sources["tests/test_grid.py"] += "\n\n_probe(1.0, spread=2.0, scale=3.0)\n"
    assert overridden_defaults(sources) == [
        f"src/fracrel/grid.py:{line} _probe(scale)",
        f"src/fracrel/grid.py:{line} _probe(spread)"]
    # one test call that leaves scale in place reads its default
    sources["tests/test_grid.py"] += "\n\n_probe(1.0, 2.0)\n"
    assert overridden_defaults(sources) == [
        f"src/fracrel/grid.py:{line} _probe(spread)"]
    # *args may stop short of spread, so it may leave it in place
    sources["perfbench/run.py"] += "\n\n_probe(*(1.0,), scale=2.0)\n"
    assert overridden_defaults(sources) == []
