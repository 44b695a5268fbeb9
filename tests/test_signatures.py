"""Every defaulted parameter of a function in src/fracrel or in
tests/oracles.py (the oracles and checks only the tests call) is set by a
call.

A default that no call in src/, tests/ or perfbench/ overrides is a
constant dressed as a parameter: the signature offers a choice that nobody
makes.  Calls are matched to definitions by the callee's name.  A call that
passes a parameter only by forwarding a defaulted parameter of its own
enclosing function (``f(step=step)``) counts only when that parameter is
itself set somewhere.  A call with ``*args`` or ``**kwargs`` counts as
setting everything it could reach.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


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
        if isinstance(arg, ast.Starred):
            return True
        if index is not None and i == index:
            return arg
    return None


def unset_defaults():
    """Defaulted parameters of src/fracrel and tests/oracles.py that no
    call sets, as 'module:line function(parameter)' strings."""
    defs = {}  # function name -> [(parameter, index, "module:line")]
    paths = sorted((ROOT / "src" / "fracrel").glob("*.py"))
    for path in paths + [ROOT / "tests" / "oracles.py"]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs.setdefault(node.name, []).extend(
                    (param, index, f"{path.name}:{node.lineno}")
                    for param, index in _defaulted(node))
    # (function, parameter) -> the (function, parameter) pairs whose being
    # set would set it; None stands for a call that sets it outright
    sources = {(fn, param): [] for fn, params in defs.items()
               for param, _, _ in params}
    for folder in ("src", "tests", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            for name, call, owner in _calls(ast.parse(path.read_text())):
                for param, index, _ in defs.get(name, ()):
                    value = _passed(call, param, index)
                    if value is None:
                        continue
                    forwarded = (isinstance(value, ast.Name)
                                 and owner is not None
                                 and value.id in dict(_defaulted(owner)))
                    sources[name, param].append(
                        (owner.name, value.id) if forwarded else None)
    unset = set(sources)
    changed = True
    while changed:
        changed = False
        for key in sorted(unset):
            if any(src is None or src not in unset for src in sources[key]):
                unset.discard(key)
                changed = True
    return sorted(f"{where} {fn}({param})" for fn, params in defs.items()
                  for param, _, where in params if (fn, param) in unset)


def test_every_default_is_set_by_some_call():
    unset = unset_defaults()
    assert not unset, (
        "defaulted parameters that no call in src/, tests/ or perfbench/ "
        "sets; make each a module constant or a literal at its one use:\n  "
        + "\n  ".join(unset))
