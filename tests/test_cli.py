"""Command-line contract: pinned output strings and the exit-code table."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graftkit import BadConfiguration, GraftError, Report, UnknownChart, \
    UnknownSuite, cli, parse_configuration, suite_names


CONFIG = {
    "schema": 1,
    "genus": 2,
    "charts": ["a"],
    "curves": [{"label": "lambda", "charts": {"a": [2, 0]},
                "multiplicity": 1}],
    "gamma": {"label": "gamma", "charts": {"a": [1, 0]}, "multiplicity": 1},
}


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "graftkit", *args],
                          capture_output=True, text=True)


def assert_input_error(tmp_path, config):
    """`complex` on the config exits 2 with one `error:` line."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(config))
    proc = run_cli("complex", str(path), "--depth", "1",
                   "--twist-bound", "1")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error:")
    assert len(proc.stderr.splitlines()) == 1


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(CONFIG))
    return str(path)


class TestTorusCommands:
    def test_resolve_flat(self):
        proc = run_cli("torus", "resolve", "--mode", "flat", "0,2", "2,-2")
        assert proc.returncode == 0
        assert proc.stdout.strip() == "2,0"

    def test_twist(self):
        proc = run_cli("torus", "twist", "--about", "0,1", "-k", "2", "1,0")
        assert proc.returncode == 0
        assert proc.stdout.strip() == "1,2"

    def test_intersect(self):
        proc = run_cli("torus", "intersect", "1,0", "0,1")
        assert proc.returncode == 0
        assert proc.stdout.strip() == "geometric=1 algebraic=1"

    def test_parse_error_gives_usage(self):
        proc = run_cli("torus", "intersect", "1;0", "0,1")
        assert proc.returncode == 2
        assert "usage" in proc.stderr.lower()

    def test_zero_twister_is_domain_error(self):
        proc = run_cli("torus", "twist", "--about", "0,0", "1,0")
        assert proc.returncode == 1


class TestNegativeClasses:
    """A class whose first entry is negative is a value, not an option,
    both as a positional and after --about."""

    @pytest.mark.parametrize("argv, out", [
        (["intersect", "-1,2", "1,0"], "geometric=2 algebraic=-2"),
        (["intersect", "1,0", "-1,-2"], "geometric=2 algebraic=-2"),
        (["resolve", "--mode", "sharp", "-1,2", "-1,-3"], "-2,-1"),
        (["resolve", "-1,2", "--mode", "flat", "1,0"], "0,2"),
        (["twist", "--about", "-1,2", "1,0"], "-1,4"),
        (["twist", "--about", "0,1", "-1,0"], "-1,-1"),
        (["twist", "-k", "-3", "--about", "-1,2", "-1,0"], "-7,12"),
    ])
    def test_negative_first_entry(self, capsys, argv, out):
        assert cli.main(["torus", *argv]) == 0
        assert capsys.readouterr().out.strip() == out


class TestErrorKinds:
    """Exit codes follow the error class: GraftError is 1, ValueError 2."""

    @pytest.mark.parametrize("kind", [UnknownChart, UnknownSuite,
                                      BadConfiguration])
    def test_unknown_name_is_input_error(self, kind):
        assert issubclass(kind, ValueError)
        assert not issubclass(kind, GraftError)


class TestGraftCommand:
    def test_disjoint_graft_emits_union(self, config_path):
        proc = run_cli("graft", config_path, "--curve", "gamma@a=1,0")
        assert proc.returncode == 0
        data = json.loads(proc.stdout)
        assert data["key"] == ('{"charts":{"a":[4,0]},'
                               '"content":[["gamma",2],["lambda",1]]}')
        mults = sorted((c["multiplicity"] for c in data["curves"]))
        assert mults == [1, 2]

    def test_spiraling_graft_realizes_twist(self, config_path):
        proc = run_cli("graft", config_path, "--curve", "gamma@a=1,1")
        assert proc.returncode == 0
        data = json.loads(proc.stdout)
        assert json.loads(data["key"])["charts"]["a"] == [4, 2]

    def test_inadmissible_is_domain_error(self, config_path):
        proc = run_cli("graft", config_path, "--curve", "wide@a=2,1")
        assert proc.returncode == 1
        assert "error" in proc.stderr

    def test_malformed_json_is_input_error(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{nope")
        proc = run_cli("graft", str(bad), "--curve", "g@a=1,0")
        assert proc.returncode == 2

    def test_unknown_chart_is_input_error(self, config_path):
        proc = run_cli("graft", config_path, "--curve", "g@z=1,0")
        assert proc.returncode == 2

    @pytest.mark.parametrize("spec", ["g@a=0,0", "g@a=1,0@z=0,0"],
                             ids=["zero-class", "unknown-zero-class"])
    def test_zero_class_spec_is_input_error(self, config_path, spec):
        proc = run_cli("graft", config_path, "--curve", spec)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
        assert len(proc.stderr.splitlines()) == 1

    @pytest.mark.parametrize("charts, spec", [
        (["a"], "gamma@a=1,0"),
        (["a"], "gamma@a=1,1:2"),
        (["b", "a"], "gamma@a=-1,-1@b=0,0"),
        (["b", "a"], "gamma@b=0,1"),
    ], ids=["disjoint", "spiraling", "two-charts", "two-charts-disjoint"])
    def test_output_reads_back(self, tmp_path, capsys, charts, spec):
        config = json.loads(json.dumps(CONFIG))
        config["charts"] = charts
        config["curves"][0]["charts"] = {"a": [2, 0], "b": [0, 0]} \
            if "b" in charts else {"a": [2, 0]}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert cli.main(["graft", str(path), "--curve", spec]) == 0
        written = json.loads(capsys.readouterr().out)
        _, struct, _ = parse_configuration(written)
        assert struct.key() == written["key"]
        assert all([0, 0] not in c["charts"].values()
                   for c in written["curves"])

    def test_multiplicity_suffix(self, config_path):
        proc = run_cli("graft", config_path, "--curve", "gamma@a=1,0:3")
        assert proc.returncode == 0
        data = json.loads(proc.stdout)
        assert json.loads(data["key"])["charts"]["a"] == [8, 0]

    def test_output_file(self, config_path, tmp_path):
        out = tmp_path / "result.json"
        proc = run_cli("graft", config_path, "--curve", "gamma@a=1,0",
                       "--output", str(out))
        assert proc.returncode == 0
        assert json.loads(out.read_text())["schema"] == 1


class TestComplexCommand:
    def test_depth_zero_stats(self, config_path):
        proc = run_cli("complex", config_path, "--depth", "0",
                       "--twist-bound", "3")
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == \
            "vertices=1 edges=0 cycle_rank=0"

    def test_json_export(self, config_path, tmp_path):
        out = tmp_path / "graph.json"
        proc = run_cli("complex", config_path, "--depth", "2",
                       "--twist-bound", "2", "--output", str(out))
        assert proc.returncode == 0
        data = json.loads(out.read_text())
        line = proc.stdout.splitlines()[0]
        assert f"vertices={data['stats']['vertices']}" in line
        assert f"cycle_rank={data['stats']['cycle_rank']}" in line

    def test_dot_export(self, config_path, tmp_path):
        out = tmp_path / "graph.dot"
        proc = run_cli("complex", config_path, "--depth", "1",
                       "--twist-bound", "1", "--format", "dot",
                       "--output", str(out))
        assert proc.returncode == 0
        text = out.read_text()
        assert text.startswith("graph complex {")
        assert text.rstrip().endswith("}")
        assert text.count("{") == text.count("}")

    def test_rank_printed_per_edge_kind(self, config_path):
        proc = run_cli("complex", config_path, "--depth", "2",
                       "--twist-bound", "2")
        second = proc.stdout.splitlines()[1]
        assert second.startswith("rank[all]=")
        assert "rank[graft]=" in second and "rank[elementary]=" in second

    def test_negative_flag_is_input_error(self, config_path):
        proc = run_cli("complex", config_path, "--depth", "-2",
                       "--twist-bound", "3")
        assert proc.returncode == 2

    def test_missing_gamma_is_input_error(self, tmp_path):
        stripped = {k: v for k, v in CONFIG.items() if k != "gamma"}
        path = tmp_path / "nogamma.json"
        path.write_text(json.dumps(stripped))
        proc = run_cli("complex", str(path), "--depth", "1",
                       "--twist-bound", "1")
        assert proc.returncode == 2

    def test_reversed_gamma_same_export(self, tmp_path):
        # the grafting curve is unoriented: [-1,0] names [1,0]
        outs = []
        for p in (1, -1):
            config = json.loads(json.dumps(CONFIG))
            config["gamma"]["charts"]["a"] = [p, 0]
            path = tmp_path / f"config{p}.json"
            path.write_text(json.dumps(config))
            out = tmp_path / f"graph{p}.json"
            proc = run_cli("complex", str(path), "--depth", "2",
                           "--twist-bound", "2", "--output", str(out))
            assert proc.returncode == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestInputContract:
    @pytest.mark.parametrize("field", ["curves", "gamma"])
    @pytest.mark.parametrize("value", [5, [1], [1, 2, 3], None, [True, 0]],
                             ids=["int", "short", "long", "null", "bool"])
    def test_malformed_chart_value_is_input_error(self, tmp_path, field,
                                                  value):
        config = json.loads(json.dumps(CONFIG))
        entry = config["gamma"] if field == "gamma" else config["curves"][0]
        entry["charts"]["a"] = value
        assert_input_error(tmp_path, config)

    @pytest.mark.parametrize("path,value", [
        (("curves", 0), 5),
        (("gamma",), 5),
        (("curves", 0, "label"), [5]),
        (("curves", 0, "label"), [["lambda", "1"]]),
        (("gamma", "label"), [["gamma", 1.5]]),
        (("curves", 0, "multiplicity"), None),
        (("gamma", "multiplicity"), "2"),
        (("schema",), True),
        (("genus",), True),
        (("curves", 0, "label"), [["lambda", True]]),
        (("curves", 0, "multiplicity"), True),
        (("holonomy",), None),
        (("holonomy",), False),
        (("holonomy",), {"x": [1]}),
        (("curves", 0, "label"), [["lambda", 1], ["lambda", 2]]),
        (("curves", 0, "charts"), {"a": [0, 0]}),
        (("gamma", "charts"), {"a": [0, 0]}),
    ], ids=["curve-int", "gamma-int", "label-short", "label-count-str",
            "label-count-float", "multiplicity-null", "multiplicity-str",
            "schema-bool", "genus-bool", "label-count-bool",
            "multiplicity-bool", "holonomy-null", "holonomy-bool",
            "holonomy-object", "label-repeated", "curve-zero-class",
            "gamma-zero-class"])
    def test_malformed_curve_entry_is_input_error(self, tmp_path, path,
                                                  value):
        config = json.loads(json.dumps(CONFIG))
        target = config
        for step in path[:-1]:
            target = target[step]
        target[path[-1]] = value
        assert_input_error(tmp_path, config)

    def test_zero_workers_is_usage_error(self, config_path):
        # the BFS is serial: --workers is no longer a flag, for any count
        for workers in ("0", "1"):
            proc = run_cli("complex", config_path, "--depth", "1",
                           "--twist-bound", "1", "--workers", workers)
            assert proc.returncode == 2
            assert "usage" in proc.stderr.lower()

    @pytest.mark.parametrize("command", [
        ("complex", "--depth", "2", "--twist-bound", "2", "--format", "json"),
        ("complex", "--depth", "2", "--twist-bound", "2", "--format", "dot"),
        # an inadmissible curve: the output path fails before the graft
        ("graft", "--curve", "g@a=3,1"),
    ], ids=["json", "dot", "graft"])
    def test_unwritable_graph_output_fails_before_work(self, config_path,
                                                       tmp_path, command):
        out = tmp_path / "missing_dir" / "g.out"
        proc = run_cli(command[0], config_path, *command[1:],
                       "--output", str(out))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr

    def test_failed_run_keeps_existing_output(self, config_path, tmp_path):
        # an inadmissible curve: exit 1, and the old bytes stay
        out = tmp_path / "keep.json"
        out.write_bytes(b"keep")
        proc = run_cli("graft", config_path, "--curve", "g@a=3,1",
                       "--output", str(out))
        assert proc.returncode == 1
        assert out.read_bytes() == b"keep"
        # a run that succeeds replaces them
        proc = run_cli("graft", config_path, "--curve", "gamma@a=1,0",
                       "--output", str(out))
        assert proc.returncode == 0
        assert json.loads(out.read_text())["schema"] == 1

    def test_failed_run_leaves_no_new_output(self, config_path, tmp_path):
        # an inadmissible curve: exit 1, and no file appears
        out = tmp_path / "new.json"
        proc = run_cli("graft", config_path, "--curve", "g@a=3,1",
                       "--output", str(out))
        assert proc.returncode == 1
        assert not out.exists()

    def test_unwritable_report_path_fails_before_work(self, tmp_path):
        out = tmp_path / "missing_dir" / "r.json"
        proc = run_cli("verify", "--suite", "flatsharp", "--json", str(out))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr


class TestVerifyCommand:
    def test_flatsharp_passes(self):
        proc = run_cli("verify", "--suite", "flatsharp")
        assert proc.returncode == 0
        assert proc.stdout.strip().splitlines()[-1] == \
            "suite flatsharp: pass (10 instances)"

    def test_goldman_seeded(self, tmp_path):
        report_path = tmp_path / "report.json"
        proc = run_cli("verify", "--suite", "goldman", "--trials", "10",
                       "--seed", "7", "--json", str(report_path))
        assert proc.returncode == 0
        data = json.loads(report_path.read_text())
        assert data["passed"] is True and len(data["instances"]) == 11

    def test_unknown_suite_is_input_error(self):
        proc = run_cli("verify", "--suite", "bogus")
        assert proc.returncode == 2

    def test_flag_rejected_by_suite(self):
        proc = run_cli("verify", "--suite", "flatsharp", "--trials", "3")
        assert proc.returncode == 2

    def test_failure_exits_three(self, monkeypatch, capsys):
        # exit code 3 is reserved for genuine identity failures; none of
        # the shipped suites fail, so substitute a canned failing report
        failing = Report("flatsharp")
        failing.add("forced counterexample", False, "detail")
        monkeypatch.setattr(cli, "verify_suite",
                            lambda name, **kw: failing)
        code = cli.main(["verify", "--suite", "flatsharp"])
        assert code == 3
        assert "FAIL" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# Fuzzed exit-code contract: main(argv) in-process, small sizes only.

SMALL = st.integers(-3, 3)
ODD_VALUES = st.sampled_from([None, True, False, 0, -1, 5, 1.5, "", "x",
                              [], {}, [1], [True, 0], [1, 2, 3], ["a"],
                              [["x", 1]], {"a": [1, 0]}])


def _mostly(likely, rarely):
    """Draws from `likely` 19 times in 20, else from `rarely`."""
    return st.integers(0, 19).flatmap(
        lambda roll: rarely if roll == 10 else likely)


CHART_SETS = _mostly(st.sampled_from(["a", "ab", "abc"]).map(list),
                     st.lists(st.sampled_from(["a", "b", ""]), max_size=3))
LABELS = _mostly(st.sampled_from(["lambda", "x", "y"]),
                 st.one_of(st.just(""),
                           st.lists(st.tuples(st.sampled_from(["x", "y"]),
                                              st.integers(-1, 2)).map(list),
                                    max_size=2)))
MULTIPLICITIES = _mostly(st.integers(1, 2), st.integers(-1, 3))


def _chart_values(real):
    """A chart class: the shape `complex` accepts (|p| = 2 for a real
    curve, 1 for gamma, meridian-twisted), or any small pair."""
    shaped = st.tuples(st.sampled_from([2, -2] if real else [1, -1]),
                       SMALL).map(lambda pq: [pq[0], pq[0] * pq[1]])
    return _mostly(shaped, st.tuples(SMALL, SMALL).map(list))


def _curve_entry(charts, real):
    names = st.sampled_from(charts + ["z"]) if charts else st.just("z")
    return st.fixed_dictionaries(
        {"label": LABELS if real else st.just("gamma"),
         "charts": st.dictionaries(_mostly(st.sampled_from(charts), names)
                                   if charts else names,
                                   _chart_values(real), min_size=1,
                                   max_size=3)},
        optional={"multiplicity": MULTIPLICITIES})


def _slots(value):
    """Every (container, key) that holds a value inside a JSON value."""
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield value, key
        yield from _slots(child)


@st.composite
def config_texts(draw):
    """A configuration file's text: a valid shape, one with a value
    replaced or dropped, or text that is not a JSON object."""
    if draw(st.integers(0, 19)) == 10:
        return draw(st.sampled_from(["", "{", "[1, 2]", "null", "7"]))
    charts = draw(CHART_SETS)
    config = {"schema": 1, "genus": draw(_mostly(st.integers(2, 3),
                                                 st.integers(0, 1))),
              "charts": charts}
    if draw(st.booleans()):
        # the standard shape: one real curve and gamma, twisted alike
        twists = [draw(SMALL) for _ in charts]
        config["curves"] = [{"label": "lambda", "charts": {
            name: [2, 2 * k] for name, k in zip(charts, twists)}}]
        config["gamma"] = {"label": "gamma", "charts": {
            name: [1, k] for name, k in zip(charts, twists)}}
    else:
        config["curves"] = draw(st.lists(_curve_entry(charts, True),
                                         max_size=2))
        if draw(_mostly(st.just(True), st.just(False))):
            config["gamma"] = draw(_curve_entry(charts, False))
    if draw(st.booleans()):
        config["holonomy"] = "rho"
    if draw(st.integers(0, 3)) == 2:
        container, key = draw(st.sampled_from(list(_slots(config))))
        if draw(st.booleans()):
            container[key] = draw(ODD_VALUES)
        else:
            del container[key]
    return json.dumps(config)


INTS = _mostly(SMALL.map(str), st.sampled_from(["", "x", "1.5", "9" * 30]))
CLASS_TEXTS = _mostly(st.tuples(SMALL, SMALL).map("{0[0]},{0[1]}".format),
                      st.text("0123456789,-x ", max_size=6))
CURVE_SPECS = _mostly(
    st.builds("{}@{}={},{}{}".format,
              st.sampled_from(["g", "gamma"]), st.sampled_from(["a", "b"]),
              st.sampled_from([1, -1]), SMALL,
              _mostly(st.sampled_from(["", ":1", ":2"]),
                      st.sampled_from([":0", ":x", ":"]))),
    st.one_of(st.builds("g@a={},{}@b={},{}".format, SMALL, SMALL, SMALL,
                        SMALL),
              st.text("ga@=,:-01bz", max_size=12)))


def _optional(flag, values):
    """The flag with a drawn value, or nothing."""
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


def _required(flag, values):
    """The flag with a drawn value, left out one time in 20."""
    return _mostly(values.map(lambda v: [flag, v]), st.just([]))


@st.composite
def invocations(draw):
    """argv for one of the four subcommands, with {config} and {out}
    standing for file paths the test fills in."""
    command = draw(st.sampled_from(["torus", "graft", "complex", "verify"]))
    if command == "torus":
        op = draw(st.sampled_from(["intersect", "resolve", "twist"]))
        argv = ["torus", op, draw(CLASS_TEXTS)]
        if op == "resolve":
            argv += draw(_required("--mode", _mostly(
                st.sampled_from(["sharp", "flat"]), st.just("round"))))
        if op == "twist":
            argv += draw(_required("--about", CLASS_TEXTS))
            argv += draw(_optional("-k", INTS))
        else:
            argv.append(draw(CLASS_TEXTS))
        return argv
    out = draw(_optional("--output" if command != "verify" else "--json",
                         st.just("{out}")))
    if command == "graft":
        return (["graft", "{config}"] + draw(_required("--curve",
                                                       CURVE_SPECS)) + out)
    if command == "complex":
        sizes = _mostly(st.integers(0, 2).map(str),
                        st.sampled_from(["-1", "x"]))
        return (["complex", "{config}"] + draw(_required("--depth", sizes))
                + draw(_required("--twist-bound", sizes))
                + draw(_optional("--format", _mostly(
                    st.sampled_from(["json", "dot"]), st.just("png"))))
                + out)
    suite = draw(_mostly(st.sampled_from(suite_names()), st.just("bogus")))
    argv = ["verify", "--suite", suite] + out
    # the size flags a suite takes are always given small values, so no
    # suite runs at its (large) default size
    sizes = {"--k-max": ("k_max", 3), "--range": ("sweep", 1),
             "--trials": ("trials", 3), "--twist-bound": ("twist_bound", 2)}
    taken = (cli.suite_parameters(suite) if suite in suite_names()
             else set())
    for flag, (name, top) in sizes.items():
        value = st.integers(0, top).map(str)
        if name in taken:
            argv += [flag, draw(value)]
        elif draw(st.integers(0, 9)) == 0:
            argv += [flag, draw(value)]
    for flag, name in (("--seed", "seed"), ("--l0", "l0")):
        if name in taken or draw(st.integers(0, 9)) == 0:
            argv += draw(_optional(flag, INTS))
    return argv


class TestFuzzedContract:
    """Any input exits 0, 1 or 2 (argparse's usage errors included) with
    no traceback; exit 2 prints one `error:` line or a usage error, and a
    failed run leaves no new output file and an existing one as it was."""

    @given(argv=invocations(), config=config_texts(),
           output=st.sampled_from(["new", "existing", "missing_dir"]))
    @settings(max_examples=150, deadline=None)
    def test_exit_code_contract(self, argv, config, output):
        with tempfile.TemporaryDirectory() as tmp:
            config_path = os.path.join(tmp, "config.json")
            with open(config_path, "w", encoding="utf-8") as handle:
                handle.write(config)
            out = os.path.join(tmp, {"new": "new.out",
                                     "existing": "keep.out",
                                     "missing_dir": "missing/x.out"}[output])
            if output == "existing":
                with open(out, "w", encoding="utf-8") as handle:
                    handle.write("keep")
            argv = [arg.format(config=config_path, out=out) for arg in argv]
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                try:
                    code = cli.main(argv)
                    usage_error = False
                except SystemExit as exc:
                    code = exc.code
                    usage_error = True
            errors = stderr.getvalue()
            if usage_error:
                assert code == 2
                assert "usage:" in errors and "error:" in errors
            else:
                assert code in (0, 1, 2)
                if code == 2:
                    assert errors.startswith("error:")
                    assert len(errors.splitlines()) == 1
            if code != 0 and output == "new":
                assert not os.path.exists(out)
            if code != 0 and output == "existing":
                with open(out, encoding="utf-8") as handle:
                    assert handle.read() == "keep"
