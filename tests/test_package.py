"""The package's export list: every listed name exists, once; no module
imports a name it never uses; and importing the package loads only what
a caller needs."""

import ast
import copy
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

import graftkit
from graftkit import complex_graph, grid_oracle, suites, surface, torus

# __init__.py imports names to export them, so it is left out
MODULES = sorted(path for path in Path(graftkit.__file__).parent.glob("*.py")
                 if path.name != "__init__.py")


class TestExportList:
    def test_every_name_resolves(self):
        missing = [name for name in graftkit.__all__
                   if not hasattr(graftkit, name)]
        assert missing == []

    def test_no_duplicates(self):
        assert len(set(graftkit.__all__)) == len(graftkit.__all__)

    def test_star_import(self):
        namespace = {}
        exec("from graftkit import *", namespace)
        assert set(graftkit.__all__) <= set(namespace)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((alias.asname or alias.name).split(".")[0]
                            for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


def test_oracle_imports_no_closed_form():
    """grid_oracle is an independent check: from the package it imports
    only the error classes and torus's Mode and TorusClass, never a
    closed form of torus, nor surface or complex_graph."""
    path = Path(graftkit.__file__).parent / "grid_oracle.py"
    package = {}
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            assert not any(alias.name.split(".")[0] == "graftkit"
                           for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                assert node.module.split(".")[0] != "graftkit"
            else:
                package.setdefault(node.module, set()).update(
                    alias.name for alias in node.names)
    assert set(package) <= {"errors", "torus"}
    assert package.get("torus", set()) <= {"Mode", "TorusClass"}


def test_suites_apart_from_the_graph():
    """The checks live in suites.py and the graph in complex_graph.py:
    within the package only suites imports grid_oracle, complex_graph
    imports neither random nor suites, and only complex_graph names
    _Edges or _Vertices, so it alone writes the edge-row format."""
    oracle_importers, graph_imports, row_writers = set(), set(), set()
    for path in Path(graftkit.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            imports = isinstance(node, (ast.Import, ast.ImportFrom))
            if imports:
                names = {part for alias in node.names
                         for part in alias.name.split(".")}
                names.update((getattr(node, "module", None) or "").split("."))
            else:
                names = {getattr(node, "id", None),
                         getattr(node, "attr", None)}
            if names & {"_Edges", "_Vertices"}:
                row_writers.add(path.name)
            if imports and "grid_oracle" in names:
                oracle_importers.add(path.name)
            if imports and path.name == "complex_graph.py":
                graph_imports |= names
    assert oracle_importers == {"suites.py"}
    assert not {"random", "suites"} & graph_imports
    assert row_writers == {"complex_graph.py"}


def _run(code: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports graftkit from here."""
    src = str(Path(graftkit.__file__).parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path
                                              else "")}
    env.pop("GRAFTKIT_LOG", None)
    return subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60, check=True)


class TestColdImport:
    def test_import_loads_no_logging_hashlib_dataclasses_or_inspect(self):
        proc = _run("import sys\n"
                    "before = set(sys.modules)\n"
                    "import graftkit\n"
                    "print(sorted(set(sys.modules) - before))\n")
        loaded = ast.literal_eval(proc.stdout)
        assert "graftkit.complex_graph" in loaded
        assert not {"logging", "hashlib", "dataclasses", "inspect"} & \
            set(loaded)

    def test_import_compiles_no_forward_references(self):
        """The records are built on collections.namedtuple, so defining
        them turns no field annotation into a typing.ForwardRef."""
        proc = _run("import typing\n"
                    "made = []\n"
                    "init = typing.ForwardRef.__init__\n"
                    "def counted(self, *args, **kwargs):\n"
                    "    made.append(args)\n"
                    "    init(self, *args, **kwargs)\n"
                    "typing.ForwardRef.__init__ = counted\n"
                    "import graftkit\n"
                    "print(len(made))\n")
        assert proc.stdout.split() == ["0"]

    def test_debug_turned_on_after_import_logs_skips(self):
        # the skipping build of test_complex's TestFusedPass
        proc = _run(
            "import graftkit, logging\n"
            "logging.basicConfig(level=logging.DEBUG)\n"
            "from graftkit import surface\n"
            "model = surface.SurfaceModel(2, 'rho', ('a', 'b'))\n"
            "config = surface.Configuration(model, surface.component(\n"
            "    'lambda', {'a': (2, 0), 'b': (2, 0)}), surface.component(\n"
            "    'g', {'a': (1, 0), 'b': (2, 1)}))\n"
            "seed = surface.structure(model, [\n"
            "    surface.component('x', {'a': (1, 2), 'b': (2, 0)}),\n"
            "    surface.component('y', {'a': (1, -2)})])\n"
            "graftkit.build_complex(config, 1, 2, seed=seed)\n")
        assert re.search(r"skipping .* no spiral direction", proc.stderr)


def test_no_dataclasses_and_no_logging_import():
    """No class of the package is a dataclass, and no module imports
    logging or dataclasses when it is imported."""
    decorated = []
    for path in MODULES:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and any(
                    "dataclass" in ast.unparse(d)
                    for d in node.decorator_list):
                decorated.append(node.name)
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [node.module or ""] if isinstance(
                    node, ast.ImportFrom) else [a.name for a in node.names]
                assert not {"logging", "dataclasses"} & set(names), path.name
    assert decorated == []
    classes = [value for module in sys.modules.values()
               if module.__name__.startswith("graftkit")
               for value in vars(module).values() if isinstance(value, type)]
    assert not [cls for cls in classes if hasattr(cls, "__dataclass_fields__")]


def _value_types():
    model = graftkit.SurfaceModel(2, "rho", ("a", "b"))
    comp = graftkit.component("x", {"b": (1, 2), "a": (-2, 0)}, 3)
    struct = graftkit.structure(model, [comp, graftkit.component(
        "y", {"a": (1, -2)})])
    graph = graftkit.build_complex(graftkit.standard_configuration(2), 2, 2)
    return [
        (model, "genus",
         "SurfaceModel(genus=2, holonomy_tag='rho', charts=('a', 'b'))"),
        (comp, "multiplicity",
         "Component(content=(('x', 1),), charts=(('a', TorusClass(p=-2, "
         "q=0)), ('b', TorusClass(p=1, q=2))), multiplicity=3)"),
        (struct, "real_curves",
         "Structure(model=SurfaceModel(genus=2, holonomy_tag='rho', "
         "charts=('a', 'b')), real_curves=(Component(content=(('x', 1),), "
         "charts=(('a', TorusClass(p=2, q=0)), ('b', TorusClass(p=-1, "
         "q=-2))), multiplicity=3), Component(content=(('y', 1),), "
         "charts=(('a', TorusClass(p=1, q=-2)),), multiplicity=1)))"),
        (graph, "edges", None),
    ]


@pytest.mark.parametrize("index", range(4), ids=[
    "SurfaceModel", "Component", "Structure", "ComplexGraph"])
def test_value_type_contract(index):
    """The value types pickle and deep-copy to equal values, refuse
    assignment and deletion, and keep their reprs; all but ComplexGraph,
    whose vertex map is a mapping, hash equal when equal."""
    value, name, text = _value_types()[index]
    for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert type(twin) is type(value)
        assert twin == value and not twin != value
        if text is None:
            assert twin.to_json_bytes() == value.to_json_bytes()
            with pytest.raises(TypeError, match="unhashable"):
                hash(twin)
        else:
            assert hash(twin) == hash(value)
            assert repr(twin) == text
    with pytest.raises(AttributeError):
        setattr(value, name, getattr(value, name))
    with pytest.raises(AttributeError):
        delattr(value, name)
    if text is not None:
        assert repr(value) == text


def test_records_are_not_typing_namedtuples():
    """No module of the package imports typing.NamedTuple or derives a
    class from it: the records are built on collections.namedtuple."""
    found = []
    for path in Path(graftkit.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "typing":
                found += [(path.name, alias.name) for alias in node.names
                          if alias.name == "NamedTuple"]
            elif isinstance(node, ast.ClassDef):
                found += [(path.name, node.name) for base in node.bases
                          if ast.unparse(base).endswith("NamedTuple")]
    assert found == []


def _records():
    """One instance of each record, with its pinned repr."""
    model = graftkit.SurfaceModel(2, "rho", ("a",))
    lam = graftkit.component("lambda", {"a": (2, 0)})
    gamma = graftkit.component("gamma", {"a": (1, 0)})
    pair = grid_oracle.probe_pair((1, 0), 1, (0, 1), 1)
    first = "GridCurve(direction=TorusClass(p=1, q=0), offsets=((1, 2),))"
    crossing = "Crossing(first_at=(0, 623), second_at=(0, 7372))"
    forward = (f"CrossingList(crossings=({crossing},), denominator=8633, "
               f"index=1)")
    return [
        (torus.TorusClass(1, -2), "TorusClass(p=1, q=-2)"),
        (torus.TorusMulticurve(2, torus.TorusClass(1, 0)),
         "TorusMulticurve(multiplicity=2, primitive=TorusClass(p=1, q=0))"),
        (pair.first, first),
        (pair.forward.crossings[0], crossing),
        (pair.forward, forward),
        (pair, f"ProbedPair(first={first}, second=GridCurve(direction="
               f"TorusClass(p=0, q=1), offsets=((8, 15),)), "
               f"forward={forward})"),
        (surface.Configuration(model, lam, gamma),
         "Configuration(model=SurfaceModel(genus=2, holonomy_tag='rho', "
         "charts=('a',)), lam=Component(content=(('lambda', 1),), "
         "charts=(('a', TorusClass(p=2, q=0)),), multiplicity=1), "
         "gamma=Component(content=(('gamma', 1),), charts=(('a', "
         "TorusClass(p=1, q=0)),), multiplicity=1))"),
        (surface.Admissibility(None, "no spiral direction"),
         "Admissibility(route=None, reason='no spiral direction', "
         "source=None, curve=None, crossed=(), totals=(), fused=())"),
        (complex_graph.Edge("graft", "a", -1, "k0", "k1"),
         "Edge(kind='graft', chart='a', n=-1, src='k0', dst='k1')"),
        (suites.Witness(1, 1, 1, "k"),
         "Witness(m=1, k=1, l=1, key='k')"),
    ]


RECORDS = ["TorusClass", "TorusMulticurve", "GridCurve", "Crossing",
           "CrossingList", "ProbedPair", "Configuration", "Admissibility",
           "Edge", "Witness"]


@pytest.mark.parametrize("index", range(len(RECORDS)), ids=RECORDS)
def test_record_contract(index):
    """Each record keeps its type, repr, equality and hash through
    pickling, deep copies, _replace and the tuple.__new__ builds of torus
    and grid_oracle; carries no __dict__; and refuses assignment. Only
    Admissibility has field defaults."""
    value, text = _records()[index]
    cls = type(value)
    assert cls.__name__ == RECORDS[index]
    assert repr(value) == text
    twins = [cls(*value), pickle.loads(pickle.dumps(value)),
             copy.deepcopy(value), value._replace(), cls._make(list(value))]
    twins += [new(cls, tuple(value)) for new in (torus._new,
                                                 grid_oracle._new)]
    for twin in twins:
        assert type(twin) is cls
        assert twin == value and not twin != value
        assert hash(twin) == hash(value)
        assert repr(twin) == text
    fields = cls._fields
    assert value._asdict() == dict(zip(fields, value))
    assert value._replace(**{fields[0]: None}) == (None, *value[1:])
    defaults = {"reason": "", "source": None, "curve": None,
                "crossed": (), "totals": (), "fused": ()} \
        if cls is surface.Admissibility else {}
    assert cls._field_defaults == defaults
    assert not hasattr(value, "__dict__")
    with pytest.raises(AttributeError):
        setattr(value, fields[0], value[0])
    with pytest.raises(AttributeError):
        value.extra = 1


def test_unchecked_constructors_stay_in_surface():
    """surface builds a Component copied from a normal one, the fused
    component a graft assembles in normal form, and a Structure of curves
    already canonical, without checking them again. Only surface, which
    knows when that holds, names those builders, and it calls both."""
    unchecked = {"_normal_component", "_canonical_structure"}
    named, called = {}, set()
    for path in Path(graftkit.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            names = [getattr(node, "id", None), getattr(node, "attr", None)]
            if isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            for name in unchecked.intersection(names):
                named.setdefault(name, set()).add(path.name)
            if isinstance(node, ast.Call) and path.name == "surface.py":
                called.add(getattr(node.func, "id", None))
    assert named == {name: {"surface.py"} for name in unchecked}
    assert unchecked <= called


def test_one_smoothing_rule():
    """surface picks a graft's smoothing in one place: resolve,
    _spiral_sign and _FLAT are each named inside one function, the
    same one, which every decision calls."""
    rule = {"resolve", "_spiral_sign", "_FLAT"}
    naming = {}
    path = Path(graftkit.__file__).parent / "surface.py"
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.FunctionDef):
            for inner in ast.walk(node):
                if isinstance(inner, ast.Name) and inner.id in rule:
                    naming.setdefault(inner.id, set()).add(node.name)
    assert set(naming) == rule
    assert len(set.union(*naming.values())) == 1


def test_content_summed_without_counter():
    """Content totals are summed in plain dicts: no module of the
    package names collections.Counter."""
    naming = set()
    for path in Path(graftkit.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            names = [getattr(node, "id", None), getattr(node, "attr", None)]
            if isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            if "Counter" in names:
                naming.add(path.name)
    assert naming == set()


def test_one_writer_of_the_skip_log():
    """A refused graft is logged in one place: the "skipping " message
    is written once in the package, inside complex_graph's _expand, which
    a build with the log on runs for every vertex, mapping none."""
    written, writers = 0, set()
    for path in Path(graftkit.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        written += sum(isinstance(node, ast.Constant)
                       and str(node.value).startswith("skipping ")
                       for node in ast.walk(tree))
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and any(
                    isinstance(inner, ast.Constant)
                    and str(inner.value).startswith("skipping ")
                    for inner in ast.walk(node)):
                writers.add((path.name, node.name))
    assert (written, writers) == (1, {("complex_graph.py", "_expand")})


def test_one_oracle_trace_walk():
    """The oracle traces its smoothings in one place: each of the trace's
    two assertion messages is written once in the package, both inside
    grid_oracle's _trace, which walks both smoothings of a layout."""
    messages = ("trace closed on a foreign arc",
                "non-integral component displacement")
    written = {message: [] for message in messages}
    for path in Path(graftkit.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef):
                for inner in ast.walk(node):
                    if isinstance(inner, ast.Constant) and \
                            inner.value in written:
                        written[inner.value].append((path.name, node.name))
    assert written == {message: [("grid_oracle.py", "_trace")]
                       for message in messages}


def test_one_route_to_the_oracle_smoothings():
    """ProbedPair.smoothings is the one route from a probed pair to its
    smoothings: _layout and _trace are named in the package only in
    their own definitions and in smoothings."""
    helpers = ("_layout", "_trace")
    named = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{owner}.{child.name}".lstrip("."))
            else:
                name = getattr(child, "id", getattr(child, "attr", None))
                if name in helpers:
                    named.add((path.name, owner, name))
                visit(child, owner)

    for path in Path(graftkit.__file__).parent.glob("*.py"):
        visit(ast.parse(path.read_text()), "")
    assert named == {("grid_oracle.py", "ProbedPair.smoothings", helper)
                     for helper in helpers}


def test_no_unreferenced_private_helpers():
    """Every private module-level function or class of the package is
    named somewhere in the package outside its own definition."""
    defined, named = set(), set()
    for path in Path(graftkit.__file__).parent.glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            own = getattr(top, "name", None)
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and \
                    own.startswith("_") and not own.endswith("__"):
                defined.add((path.name, own))
            for node in ast.walk(top):
                names = [getattr(node, "id", None),
                         getattr(node, "attr", None)]
                if isinstance(node, ast.ImportFrom):
                    names = [alias.name for alias in node.names]
                named.update((path.name, own, name) for name in names
                             if name is not None)
    unreferenced = [(module, name) for module, name in sorted(defined)
                    if not any(used == name and (where, inside) !=
                               (module, name)
                               for where, inside, used in named)]
    assert unreferenced == []


def test_object_setattr_only_in_memo_setters():
    """Only the memo setters write past _Frozen's refusal: object.__setattr__
    is named once in each of Structure.key, Structure._keep and
    ComplexGraph.rank_by_kind, and nowhere else in the package."""
    named = []
    for path in Path(graftkit.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        owner = {node: f"{cls.name}.{method.name}"
                 for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                 for method in cls.body
                 if isinstance(method, ast.FunctionDef)
                 for node in ast.walk(method)}
        named += [owner.get(node, path.name) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and node.attr == "__setattr__"
                  and getattr(node.value, "id", None) == "object"]
    assert sorted(named) == ["ComplexGraph.rank_by_kind", "Structure._keep",
                             "Structure.key"]


def test_components_carry_only_their_fields(monkeypatch):
    """Every Component made by the complex builds at the benchmark's
    sizes and by the identity suites, the fan and the witness graph at
    theirs keeps its three fields and nothing else."""
    made = []
    new, init = surface._new, surface.Component.__init__

    def making(cls):
        obj = new(cls)
        if cls is surface.Component:
            made.append(obj)
        return obj

    def initialising(self, *args):
        init(self, *args)
        made.append(self)

    monkeypatch.setattr(surface, "_new", making)
    monkeypatch.setattr(surface.Component, "__init__", initialising)
    for charts, bound, depth in ((1, 8, 4), (2, 4, 3), (3, 2, 3)):
        graph = graftkit.build_complex(
            graftkit.standard_configuration(charts), bound, depth)
        list(graph.vertices.values())  # builds every deferred structure
    for name, params in (("goldman", {"trials": 400, "seed": 7}),
                         ("iterated", {"l0": 1, "twist_bound": 30}),
                         ("two_meridian", {"k_max": 10}),
                         ("dehn_twist", {"k_max": 30})):
        assert graftkit.verify_suite(name, **params).passed
    config = graftkit.standard_configuration()
    assert graftkit.standard_fan(config, "a", 30, 7).passed
    graftkit.witness_graph(config, 1, 30).to_json_bytes()
    assert len(made) > 1000
    assert {tuple(vars(comp)) for comp in made} == \
        {surface.Component._fields}
