import json
import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from outerfan.cli import main
from outerfan.graph import (
    MAX_FILE_VERTICES,
    complete_graph,
    cycle_graph,
    format_edge_list,
    path_graph,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


@pytest.fixture
def k5_file(tmp_path):
    p = tmp_path / "k5.txt"
    p.write_text(format_edge_list(complete_graph(5)))
    return str(p)


class TestRecognizeCommand:
    def test_k5_accepted(self, capsys, k5_file):
        code, report = run(capsys, ["recognize", k5_file])
        assert code == 0
        assert report["verdict"] == "accepted"
        assert report["embeddings"] == [[0, 1, 2, 3, 4]]

    def test_p3_rejected(self, capsys, tmp_path):
        p = tmp_path / "p3.txt"
        p.write_text(format_edge_list(path_graph(3)))
        code, report = run(capsys, ["recognize", str(p)])
        assert code == 1
        assert report["verdict"] == "rejected_not_biconnected"

    def test_malformed_line(self, capsys, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("3 1\na b c\n")
        code = main(["recognize", str(p)])
        err = capsys.readouterr().err
        assert code == 2
        assert "line 2" in err

    def test_oracle_agreement(self, capsys, k5_file):
        code, report = run(capsys, ["recognize", k5_file, "--oracle"])
        assert code == 0
        assert report["agreement"] is True

    def test_svg_written(self, capsys, tmp_path, k5_file):
        out = tmp_path / "k5.svg"
        code, report = run(capsys, ["recognize", k5_file, "--svg", str(out)])
        assert code == 0
        assert out.read_text().count("<line") == 10

    def test_outer_edges_flag(self, capsys, tmp_path):
        p = tmp_path / "k4.txt"
        p.write_text(format_edge_list(complete_graph(4)))
        code, report = run(capsys, ["recognize", str(p), "--outer-edges", "0-2"])
        assert code == 0

    def test_missing_file(self, capsys):
        assert main(["recognize", "/nonexistent/file"]) == 2


class TestOracleCommand:
    def test_k6(self, capsys, tmp_path):
        p = tmp_path / "k6.txt"
        p.write_text(format_edge_list(complete_graph(6)))
        code, report = run(capsys, ["oracle", str(p)])
        assert code == 0
        assert report["outer_fan_planar"] is False
        assert report["maximal"] is False

    def test_c7(self, capsys, tmp_path):
        p = tmp_path / "c7.txt"
        p.write_text(format_edge_list(cycle_graph(7)))
        code, report = run(capsys, ["oracle", str(p)])
        assert report["outer_fan_planar"] is True
        assert report["maximal"] is False

    def test_size_cap(self, capsys, tmp_path):
        p = tmp_path / "c13.txt"
        p.write_text(format_edge_list(cycle_graph(13)))
        assert main(["oracle", str(p)]) == 2


class TestReductionCommands:
    def test_end_to_end(self, capsys, tmp_path):
        inst = tmp_path / "inst.json"
        wit = tmp_path / "wit.json"
        code, report = run(
            capsys,
            ["gen-3p", "--m", "3", "--B", "24", "--A", "7,7,7,8,8,8,8,9,10", "-o", str(inst)],
        )
        assert code == 0 and report["K"] == 13
        code, report = run(
            capsys,
            ["route-witness", "--instance", str(inst), "--triples", "0,1,8;2,3,7;4,5,6", "-o", str(wit)],
        )
        assert code == 0
        assert report["vertical_crossings_per_path"] == [102, 102, 102]
        code, report = run(
            capsys, ["verify-witness", "--instance", str(inst), "--witness", str(wit)]
        )
        assert code == 0 and report["valid"] is True

        # tamper: force a barrier 2-hop crossing, expect exit 1 and a report
        payload = json.loads(wit.read_text())
        instd = json.loads(inst.read_text())
        barrier = next(
            k for k, r in instd["roles"]["edges"].items() if r["kind"] == "two_hop"
        )
        bset = set(map(int, barrier.split(",")))
        foreign = next(
            k
            for k, r in instd["roles"]["edges"].items()
            if r["kind"] == "path" and not bset & set(map(int, k.split(",")))
        )
        payload.setdefault(barrier, []).append(foreign)
        payload.setdefault(foreign, []).append(barrier)
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(payload))
        code, report = run(
            capsys, ["verify-witness", "--instance", str(inst), "--witness", str(tampered)]
        )
        assert code == 1
        assert report["valid"] is False
        assert any(v["kind"] == "barrier_crossed" for v in report["violations"])

    def test_gen_rejects_bad_input(self, capsys, tmp_path):
        code = main(
            ["gen-3p", "--m", "3", "--B", "24", "--A", "7,7,7,8,8,8,8,9,12", "-o", str(tmp_path / "x.json")]
        )
        assert code == 2

    @pytest.mark.parametrize("target, values", [("3", "1,1,1,1,1,1"), ("6", "2,2,2,2,2,2")])
    def test_gen_refuses_floors_below_barrier_size(self, capsys, tmp_path, target, values):
        out = tmp_path / "x.json"
        code = main(["gen-3p", "--m", "2", "--B", target, "--A", values, "-o", str(out)])
        assert code == 2
        assert "a barrier needs at least 5" in json.loads(capsys.readouterr().err)["error"]
        assert not out.exists()


class TestMalformedInput:
    """Malformed flags and files exit 2 with a JSON error on stderr."""

    def error_of(self, capsys, argv):
        code = main(argv)
        err = capsys.readouterr().err
        return code, json.loads(err)["error"]

    def test_non_integer_outer_edge(self, capsys, k5_file):
        code, error = self.error_of(capsys, ["recognize", k5_file, "--outer-edges", "a-b"])
        assert code == 2
        assert "a-b" in error

    def test_non_integer_value(self, capsys, tmp_path):
        argv = ["gen-3p", "--m", "3", "--B", "24", "--A", "7,x,9", "-o", str(tmp_path / "x.json")]
        code, error = self.error_of(capsys, argv)
        assert code == 2
        assert "7,x,9" in error

    def test_non_integer_triple(self, capsys, tmp_path):
        inst = tmp_path / "inst.json"
        main(["gen-3p", "--m", "3", "--B", "24", "--A", "7,7,7,8,8,8,8,9,10", "-o", str(inst)])
        capsys.readouterr()
        argv = ["route-witness", "--instance", str(inst), "--triples", "0,1,x;2,3,7;4,5,6",
                "-o", str(tmp_path / "w.json")]
        code, error = self.error_of(capsys, argv)
        assert code == 2
        assert "0,1,x" in error

    def test_instance_without_n(self, capsys, tmp_path):
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps({"edges": [], "roles": {}}))
        argv = ["route-witness", "--instance", str(inst), "--triples", "0,1,2",
                "-o", str(tmp_path / "w.json")]
        code, error = self.error_of(capsys, argv)
        assert code == 2
        assert "KeyError" in error

    def test_instance_not_json(self, capsys, tmp_path):
        inst = tmp_path / "inst.json"
        inst.write_text("{not json")
        wit = tmp_path / "w.json"
        wit.write_text("{}")
        argv = ["verify-witness", "--instance", str(inst), "--witness", str(wit)]
        code, error = self.error_of(capsys, argv)
        assert code == 2
        assert "malformed instance JSON" in error

    @pytest.mark.parametrize("command", ["recognize", "oracle"])
    def test_graph_file_not_utf8(self, capsys, tmp_path, command):
        bad = tmp_path / "g.txt"
        bad.write_bytes(b"\xff\xfe 2\n")
        code, error = self.error_of(capsys, [command, str(bad)])
        assert code == 2
        assert "not UTF-8" in error

    @pytest.mark.parametrize("n", [100_000_000, MAX_FILE_VERTICES + 1])
    def test_vertex_count_above_the_cap(self, capsys, tmp_path, n):
        big = tmp_path / "big.txt"
        big.write_text(f"{n} 0\n")
        code, error = self.error_of(capsys, ["recognize", str(big)])
        assert code == 2
        assert f"{n} vertices" in error

    def test_instance_not_utf8(self, capsys, tmp_path):
        inst = tmp_path / "inst.json"
        inst.write_bytes(b'{"n": \xff}')
        wit = tmp_path / "w.json"
        wit.write_text("{}")
        argv = ["verify-witness", "--instance", str(inst), "--witness", str(wit)]
        code, error = self.error_of(capsys, argv)
        assert code == 2
        assert "not UTF-8" in error

    def test_gen_3p_target_too_large_for_a_float(self, capsys, tmp_path):
        # validation and K are integer arithmetic, so the vertex cap answers
        target = 10**400
        a = target // 3 + 1
        argv = ["gen-3p", "--m", "1", "--B", str(target), "--A", f"{a},{a},{target - 2 * a}",
                "-o", str(tmp_path / "x.json")]
        code, error = self.error_of(capsys, argv)
        assert code == 2
        assert "above the cap" in error

    def test_deeply_nested_json(self, capsys, tmp_path):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200_000 + "]" * 200_000)
        inst = tmp_path / "inst.json"
        main(["gen-3p", "--m", "1", "--B", "9", "--A", "3,3,3", "-o", str(inst)])
        capsys.readouterr()
        for argv, what in [
            (["route-witness", "--instance", str(deep), "--triples", "0,1,2",
              "-o", str(tmp_path / "w.json")], "instance"),
            (["verify-witness", "--instance", str(inst), "--witness", str(deep)], "witness"),
        ]:
            code, error = self.error_of(capsys, argv)
            assert code == 2
            assert f"malformed {what} JSON: RecursionError" in error


class TestInstanceFuzz:
    """Instance files mutated in their structure, through ``cli.main``: each
    run exits 0, 1 or 2 and raises nothing, and a file that is not exactly
    the instance its params generate exits 2."""

    @pytest.fixture
    def files(self, capsys, tmp_path):
        inst, wit = tmp_path / "inst.json", tmp_path / "wit.json"
        assert main(["gen-3p", "--m", "2", "--B", "10", "--A", "3,3,4,3,3,4",
                     "-o", str(inst)]) == 0
        assert main(["route-witness", "--instance", str(inst), "--triples", "0,1,2;3,4,5",
                     "-o", str(wit)]) == 0
        capsys.readouterr()
        return json.loads(inst.read_text()), wit, tmp_path / "mutant.json"

    @staticmethod
    def codes(capsys, files, payload):
        _, wit, mutant = files
        mutant.write_text(json.dumps(payload))
        out = []
        for argv in (["verify-witness", "--instance", str(mutant), "--witness", str(wit)],
                     ["route-witness", "--instance", str(mutant), "--triples", "0,1,2;3,4,5",
                      "-o", str(mutant.with_suffix(".out"))]):
            code = main(argv)
            err = capsys.readouterr().err
            if code == 2:
                assert "error" in json.loads(err)
            out.append(code)
        return out

    def test_seeded_structural_mutations(self, capsys, files):
        payload = files[0]
        text = json.dumps(payload)
        rng = random.Random(26)
        others = [None, True, 1.5, -1, "x", [], {}, [[]], {"0": 1}]
        for _ in range(100):
            doc = json.loads(text)
            node = doc
            while True:  # a random place, shallow ones more likely
                keys = list(node) if isinstance(node, dict) else range(len(node))
                key = rng.choice(keys)
                child = node[key]
                if not (isinstance(child, (dict, list)) and child and rng.random() < 0.6):
                    break
                node = child
            kind = rng.choice(["drop", "retype", "rename"])
            if kind == "drop":
                del node[key]
            elif kind == "retype":
                node[key] = rng.choice([v for v in others if type(v) is not type(node[key])])
            elif isinstance(node, dict):
                node[key + "_"] = node.pop(key)
            else:  # a list item has no key to rename: move it to the front
                node.insert(0, node.pop(key))
            assert set(self.codes(capsys, files, doc)) <= {0, 1, 2}
        assert self.codes(capsys, files, payload) == [0, 0]

    def test_mutants_that_crashed_or_passed_exit_2(self, capsys, files):
        payload = files[0]
        text = json.dumps(payload)

        def mutant(change):
            doc = json.loads(text)
            change(doc)
            return doc

        def first_edge_role(doc):
            doc["roles"]["edges"][next(iter(doc["roles"]["edges"]))] = []

        def rename_cell(doc):
            cells = doc["roles"]["cells"]
            cells["0,9"] = cells.pop("0,0")

        for change in (
            lambda doc: doc.update(params=[]),
            first_edge_role,
            rename_cell,
            lambda doc: doc["rotation"]["0"].reverse(),
            lambda doc: doc["params"].update(A=[4, 3, 3, 4, 3, 3]),
        ):
            assert self.codes(capsys, files, mutant(change)) == [2, 2]


def limited_run(tmp_path, argv):
    """Run the CLI in a fresh interpreter whose address space is capped at
    1.5 GB, so that an unbounded allocation fails at once instead of taking
    the machine's memory; returns the exit code and stderr."""

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, 1_500_000_000))

    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-m", "outerfan.cli", *argv],
        capture_output=True, text=True, env=env, cwd=tmp_path, preexec_fn=cap,
    )
    return proc.returncode, proc.stderr


@pytest.mark.parametrize("command", ["verify-witness", "route-witness"])
def test_instance_vertex_count_above_the_cap(tmp_path, command):
    (tmp_path / "big.json").write_text(json.dumps({"n": 100_000_000, "edges": [], "roles": {}}))
    (tmp_path / "w.json").write_text("{}")
    extra = ["--witness", "w.json"] if command == "verify-witness" else [
        "--triples", "0,1,2", "-o", "out.json"]
    code, err = limited_run(tmp_path, [command, "--instance", "big.json", *extra])
    assert code == 2, err
    assert "100000000 vertices" in json.loads(err)["error"]


def test_gen_3p_vertex_count_above_the_cap(tmp_path):
    argv = ["gen-3p", "--m", "1", "--B", "1000000000",
            "--A", "300000000,300000000,400000000", "-o", "x.json"]
    code, err = limited_run(tmp_path, argv)
    assert code == 2, err
    assert "above the cap" in json.loads(err)["error"]
    assert not (tmp_path / "x.json").exists()


# Run in a fresh interpreter: the package, the CLI and a recognition leave
# numpy unloaded, and the oracle's first scan loads it.
NUMPY_PROBE = """
import contextlib, io, json, sys
import outerfan, outerfan.cli, outerfan.sweep
from outerfan import oracle
from outerfan.graph import complete_graph
with contextlib.redirect_stdout(io.StringIO()):
    code = outerfan.cli.main(["recognize", sys.argv[1]])
before = "numpy" in sys.modules
maximal = oracle.scan(complete_graph(5)).maximal
print(json.dumps([code, before, maximal, "numpy" in sys.modules]))
"""


def test_numpy_loads_only_with_the_oracle(k5_file):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    run = subprocess.run(
        [sys.executable, "-c", NUMPY_PROBE, k5_file],
        capture_output=True, text=True, env=env, check=True,
    )
    code, numpy_before_scan, maximal, numpy_after_scan = json.loads(run.stdout)
    assert code == 0
    assert not numpy_before_scan
    assert maximal and numpy_after_scan
