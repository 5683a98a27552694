"""Command-line contract: pinned output strings and the exit-code table."""

import json
import subprocess
import sys

import pytest

from graftkit import Report, cli


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
    ], ids=["curve-int", "gamma-int", "label-short", "label-count-str",
            "label-count-float", "multiplicity-null", "multiplicity-str",
            "schema-bool", "genus-bool", "label-count-bool",
            "multiplicity-bool"])
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
