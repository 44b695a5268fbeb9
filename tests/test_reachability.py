"""Every function and method in src/fracrel is reachable from the CLI.

The package holds what ``fracrel run`` and ``fracrel calibrate`` execute;
the oracles and checks that only the tests call live in tests/oracles.py.
The walk starts at cli.main, at the code each module runs on import
(module and class bodies, decorators, default values) and at the dunder
methods, which Python calls (``__post_init__``, ``__str__``).  It follows
names: a function is reached once a reached body mentions its name, bare
or as an attribute, and a method once a reached body mentions it as an
attribute, since a bare name never calls a method (``slice(1, -1)`` is the
builtin).  Imports alone reach nothing.  Matching by name
over-approximates the call graph, so the guard can miss a dead function
that shares its name with a live one, but it never flags a live one.

Nothing is exempt, exported names included: every function
fracrel/__init__.py exports, and every method of an exported class, is one
a CLI path calls.

The layers the benchmark's traced runs must see called (the ``layers`` of
each workload in perfbench/run.py) are held to the same walk: each must be
a public function or a public method of a public class, the spans the
tracer wraps, and reached from cli.main.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "fracrel"
BENCH = ROOT / "perfbench" / "run.py"


def _sources():
    return {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}


def _names(nodes):
    """The (bare, attribute) names the subtrees mention."""
    bare, attrs = set(), set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                bare.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                attrs.add(sub.attr)
    return bare, attrs


def _import_time(fn):
    """What a def evaluates when it runs: decorators and default values."""
    return fn.decorator_list + fn.args.defaults + [
        d for d in fn.args.kw_defaults if d is not None]


def unreachable(sources):
    """Qualified names of the functions and methods of ``sources`` (module
    name -> text) that cli.main and the import-time code never reach."""
    units = []        # (qualified name, bare name, def node, is a method)
    roots = []        # import-time code
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    for module, text in sources.items():
        for node in ast.parse(text).body:
            if isinstance(node, defs):
                units.append((f"{module}.{node.name}", node.name, node,
                              False))
                roots += _import_time(node)
            elif isinstance(node, ast.ClassDef):
                roots += node.decorator_list + node.bases
                for item in node.body:
                    if isinstance(item, defs):
                        units.append((f"{module}.{node.name}.{item.name}",
                                      item.name, item, True))
                        roots += _import_time(item)
                    else:
                        roots.append(item)
            else:
                roots.append(node)
    bare, attrs = _names(roots)
    bare.add("main")
    dunders = {name for _, name, _, _ in units
               if name.startswith("__") and name.endswith("__")}
    done = set()
    while True:
        fresh = [(q, node) for q, name, node, method in units
                 if q not in done and (name in attrs or name in dunders
                                       or not method and name in bare)]
        if not fresh:
            break
        for q, node in fresh:
            done.add(q)
            more_bare, more_attrs = _names([node])
            bare |= more_bare
            attrs |= more_attrs
    return sorted(q for q, _, _, _ in units if q not in done)


def _public_defs(sources):
    """Qualified names of the public functions and of the public methods of
    public classes of ``sources``: the spans the tracer wraps."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef)
    names = set()
    for module, text in sources.items():
        for node in ast.parse(text).body:
            if not isinstance(node, defs + (ast.ClassDef,)) or \
                    node.name.startswith("_"):
                continue
            if isinstance(node, defs):
                names.add(f"{module}.{node.name}")
            else:
                names |= {f"{module}.{node.name}.{item.name}"
                          for item in node.body if isinstance(item, defs)
                          and not item.name.startswith("_")}
    return names


def untraceable(sources, layers):
    """The names among ``layers`` that are not a public function or method
    of ``sources`` that cli.main reaches."""
    public = _public_defs(sources)
    dead = set(unreachable(sources))
    return sorted(name for name in layers
                  if name not in public or name in dead)


def _benchmark_layers():
    """Workload name -> the layers its traced run must see called, read
    from the WORKLOADS table of perfbench/run.py, whose entries are
    Workload(command, config, layers)."""
    tree = ast.parse(BENCH.read_text())
    table = next(node.value for node in tree.body
                 if isinstance(node, ast.Assign)
                 and any(isinstance(t, ast.Name) and t.id == "WORKLOADS"
                         for t in node.targets))
    return {ast.literal_eval(key): ast.literal_eval(call.args[2])
            for key, call in zip(table.keys, table.values)}


def test_every_function_is_reachable_from_the_cli():
    dead = unreachable(_sources())
    assert not dead, (
        "functions that neither fracrel run nor fracrel calibrate can "
        "reach; delete them, or move test-only code to tests/oracles.py:\n  "
        + "\n  ".join(dead))


def test_negative_control_uncalled_code_fails():
    sources = _sources()
    sources["grid"] += (
        "\n\ndef _orphan(values):\n    return _orphan_helper(values)\n"
        "\n\ndef _orphan_helper(values):\n    return values\n"
        "\n\nclass _Box:\n    def unused(self):\n        return 0\n")
    assert unreachable(sources) == ["grid._Box.unused", "grid._orphan",
                                    "grid._orphan_helper"]
    # exporting a function does not reach it; only a CLI path does
    sources = _sources()
    sources["special"] += "\n\ndef exported_orphan(z):\n    return z\n"
    sources["__init__"] += "from .special import exported_orphan\n"
    assert unreachable(sources) == ["special.exported_orphan"]
    # nor does a method of an exported class
    sources = _sources()
    sources["report"] = sources["report"].replace(
        "    def to_dict(self)",
        "    def to_text(self):\n        return str(self)\n\n"
        "    def to_dict(self)")
    assert unreachable(sources) == ["report.CheckReport.to_text"]
    # a method named like a builtin is not reached by the builtin's calls
    # (slice(...) runs in special and linear_carleman)
    sources = _sources()
    sources["grid"] += (
        "\n\nclass _Rows:\n    def slice(self, i):\n        return i\n")
    assert unreachable(sources) == ["grid._Rows.slice"]


def test_benchmark_layers_are_traced_and_reached():
    # a layer the tracer does not wrap, or that no CLI path calls, has no
    # traced calls, and the traced run reads incorrect
    workloads = _benchmark_layers()
    assert sorted(workloads) == ["calibrate_all", "equivalence_cold",
                                 "linear_ledger"]
    assert all(workloads.values())
    layers = set().union(*workloads.values())
    assert untraceable(_sources(), layers) == []


def test_negative_control_private_or_dead_layer_fails():
    layers = set().union(*_benchmark_layers().values())
    # a renamed-away method is no longer a traced span
    sources = _sources()
    sources["heat"] = sources["heat"].replace("def sample(", "def _sample(")
    assert untraceable(sources, layers) == ["heat.PotentialField.sample"]
    # a public function that no CLI path reaches
    sources = _sources()
    sources["grid"] += "\n\ndef orphan_layer(values):\n    return values\n"
    assert untraceable(sources, layers | {"grid.orphan_layer"}) == [
        "grid.orphan_layer"]
