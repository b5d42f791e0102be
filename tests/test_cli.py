import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import pytest
from test_blocks import count_sweeps

import glauberlab as gl
from glauberlab import cli as gl_cli
from glauberlab import exact as gl_exact
from glauberlab import graphs as gl_graphs
from glauberlab.cli import main


SRC = Path(__file__).resolve().parents[1] / "src"


def payload_digest(path):
    doc = json.loads(path.read_text())
    blob = json.dumps(doc["payload"], sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


@pytest.fixture()
def er_graph(tmp_path):
    p = tmp_path / "g.edges"
    assert main(["gen", "--n", "1000", "--d", "2.0", "--seed", "3",
                 "--out", str(p)]) == 0
    return p


@pytest.fixture()
def triangle_files(tmp_path):
    gp = tmp_path / "tri.edges"
    gl.write_edge_list(gl.Graph(3, [(0, 1), (0, 2), (1, 2)]), gp)
    mp = tmp_path / "q4.json"
    gl.write_model(gl.coloring_model(4), mp)
    return gp, mp


class TestGen:
    def test_writes_pinned_graph(self, er_graph):
        assert er_graph.read_text().splitlines()[0] == "1000 1025"

    def test_runs_as_module_from_source(self, tmp_path):
        out = tmp_path / "g.edges"
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        done = subprocess.run(
            [sys.executable, "-m", "glauberlab", "gen", "--n", "1000",
             "--d", "2.0", "--seed", "3", "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert out.read_text().splitlines()[0] == "1000 1025"

    def test_round_trip(self, er_graph):
        g = gl.read_edge_list(er_graph)
        assert g.edges == gl.generate_er(1000, 2.0, 3).edges

    def test_requires_out(self):
        assert main(["gen", "--n", "10", "--d", "1.0"]) == 3


class TestCheck:
    def test_pinned_outcome(self, er_graph, tmp_path):
        # regression pin: this instance violates the excess bound at t=1
        # but satisfies the path-weight clause
        out = tmp_path / "check.json"
        code = main(["check", str(er_graph), "--a", "0.2", "--alpha",
                     "0.25", "--t", "1", "--delta", "1.6", "--out",
                     str(out)])
        assert code == 1
        payload = json.loads(out.read_text())["payload"]
        checks = {r["check"]: r["pass"] for r in payload["records"]}
        assert checks == {"tree-excess": False, "path-weight": True}
        assert payload_digest(out) == "0a787b0e87e313c3"

    def test_tree_passes_at_t0(self, tmp_path):
        gp = tmp_path / "tree.edges"
        gl.write_edge_list(gl.random_tree(50, seed=2), gp)
        code = main(["check", str(gp), "--a", "1.0", "--alpha", "0.5",
                     "--t", "0", "--delta", "10.0"])
        assert code == 0

    def test_k4_fails(self, tmp_path):
        gp = tmp_path / "k4.edges"
        gl.write_edge_list(gl.Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2),
                                        (1, 3), (2, 3)]), gp)
        code = main(["check", str(gp), "--a", "1.0", "--alpha", "0.5",
                     "--t", "1", "--delta", "10.0"])
        assert code == 1

    def test_long_path_reaches_a_verdict(self, tmp_path):
        # the path-weight search descends all 3000 vertices, deeper than
        # the interpreter's recursion limit
        n = 3000
        gp = tmp_path / "path.edges"
        gl.write_edge_list(gl.Graph(n, [(i, i + 1) for i in range(n - 1)]),
                           gp)
        out = tmp_path / "check.json"
        code = main(["check", str(gp), "--a", "400", "--alpha", "0.25",
                     "--t", "1", "--delta", "2", "--out", str(out)])
        assert code == 1
        payload = json.loads(out.read_text())["payload"]
        checks = {r["check"]: r for r in payload["records"]}
        assert checks["tree-excess"]["pass"]
        assert not checks["path-weight"]["pass"]
        assert sorted(checks["path-weight"]["witness"]["path"]) == \
            list(range(n))

    def test_meta_reports_sweep_and_nodes(self, er_graph, tmp_path):
        out = tmp_path / "check.json"
        main(["check", str(er_graph), "--a", "0.2", "--alpha", "0.25",
              "--t", "1", "--delta", "1.6", "--out", str(out)])
        assert payload_digest(out) == "0a787b0e87e313c3"
        doc = json.loads(out.read_text())
        assert 1 <= doc["meta"]["phi_swept"] <= 1000
        assert 1 <= doc["meta"]["path_nodes"]
        # clause 1's work: sparse sources, MS-BFS chunks, keys per block
        clause_one = {"ball_sources", "bfs_chunks", "ball_keys_peak"}
        assert clause_one <= set(doc["meta"])
        assert (doc["meta"]["ball_sources"]
                + 256 * doc["meta"]["bfs_chunks"] >= 1000)
        assert not ({"phi_swept", "path_nodes"} | clause_one) & set(
            doc["payload"])

    def test_paper_constants_sweep_one_chunk(self, tmp_path, monkeypatch):
        # clause 1 builds every radius-2 ball sparsely, so no capped
        # MS-BFS chunk runs; of full-depth sweeps, one chunk of candidates
        # for the heaviest path
        gp = tmp_path / "g.edges"
        gl.write_edge_list(gl.generate_er(3500, 2.0, 1), gp)
        chunks = count_chunks(monkeypatch)
        out = tmp_path / "check.json"
        assert main(["check", str(gp), "--a", "0.2", "--alpha", "0.25",
                     "--t", "1", "--delta", "2.07", "--budget", "1000",
                     "--out", str(out)]) in (0, 1)
        meta = json.loads(out.read_text())["meta"]
        full = [k for cap, k in chunks if cap is None]
        assert all(cap is None for cap, _ in chunks)
        assert len(full) == 1 and full[0] == meta["phi_swept"] <= 256
        assert meta["path_nodes"] <= 1000

    def test_small_components_sweep_only_candidates(self, tmp_path,
                                                    monkeypatch):
        # every radius-9 ball is its whole component, yet clause 1 builds
        # them sparsely and hands over no phi: the only full-depth sweeps
        # are the path search's candidates
        gp = tmp_path / "g.edges"
        assert main(["gen", "--n", "5000", "--d", "0.5", "--seed", "1",
                     "--out", str(gp)]) == 0
        chunks = count_chunks(monkeypatch)
        out = tmp_path / "check.json"
        assert main(["check", str(gp), "--a", "1", "--alpha", "0.25",
                     "--t", "1", "--delta", "2.07", "--out",
                     str(out)]) in (0, 1)
        assert payload_digest(out) == "172fd680db6c445e"
        assert chunks == [(None, 64), (None, 256), (None, 10)]
        meta = json.loads(out.read_text())["meta"]
        assert meta["bfs_chunks"] == 0 and meta["phi_swept"] == 330

    def test_short_path_sweeps_everything_once(self, tmp_path, monkeypatch):
        # the capped sweep runs out before the radius, so it gives every
        # phi and no full-depth sweep follows
        gp = tmp_path / "path.edges"
        gl.write_edge_list(gl.Graph(300, [(i, i + 1) for i in range(299)]),
                           gp)
        chunks = count_chunks(monkeypatch)
        out = tmp_path / "check.json"
        assert main(["check", str(gp), "--a", "60", "--alpha", "0.25",
                     "--t", "1", "--delta", "2", "--out", str(out)]) == 1
        assert json.loads(out.read_text())["meta"]["phi_swept"] == 300
        assert [cap for cap, _ in chunks] == [343, 343]

    def test_missing_file_is_invalid_input(self, tmp_path):
        code = main(["check", str(tmp_path / "nope.edges"), "--a", "1",
                     "--alpha", "0.5", "--t", "1", "--delta", "1"])
        assert code == 3


def count_chunks(monkeypatch):
    """Record each MS-BFS chunk as (depth cap, sources)."""
    chunks = []
    sweep = gl_graphs._distance_chunks

    def counted(g, sources=None, cap=None):
        for sel, code, far in sweep(g, sources, cap):
            chunks.append((cap, len(sel)))
            yield sel, code, far

    monkeypatch.setattr(gl_graphs, "_distance_chunks", counted)
    return chunks


class TestDecompose:
    def test_pipeline_digest(self, er_graph, tmp_path):
        out = tmp_path / "dec.json"
        part = tmp_path / "part.json"
        code = main(["decompose", str(er_graph), "--a", "0.2", "--alpha",
                     "0.25", "--t", "1", "--delta", "1.6", "--out",
                     str(out), "--partition-out", str(part)])
        assert code == 0
        assert payload_digest(out) == "b8ab4efb63b8caa0"
        back = gl.read_partition(part)
        assert sorted(back.owner_map()) == list(range(1000))

    def test_paper_constants_sweep_no_vertex(self, er_graph, tmp_path):
        out = tmp_path / "dec.json"
        assert main(["decompose", str(er_graph), "--a", "0.2", "--alpha",
                     "0.25", "--t", "1", "--delta", "2.07", "--out",
                     str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["meta"]["phi_swept"] == 0
        assert "phi_swept" not in doc["payload"]

    # Criterion 6's regime on G(400, 2.5/400), seed 3, where rule (i)
    # runs and the skeleton grows to a fixed point (the pin above is at
    # the paper's constants, where the rule cap is below 3 and no rule
    # fires): both scan orders reach the same partition, byte for byte.
    SKELETON_ARGS = ["--a", "1", "--alpha", "0.5", "--t", "1000",
                     "--delta", "100",
                     "--length-scale", str(2 / math.log(400))]

    @pytest.fixture()
    def skeleton_graph(self, tmp_path):
        gp = tmp_path / "g.edges"
        gl.write_edge_list(gl.generate_er(400, 2.5, 3), gp)
        return gp

    @pytest.mark.parametrize("order", ["low", "high"])
    def test_skeleton_regime_pinned(self, skeleton_graph, tmp_path, order):
        out = tmp_path / "dec.json"
        part = tmp_path / "part.json"
        assert main(["decompose", str(skeleton_graph)] + self.SKELETON_ARGS
                    + ["--scan-order", order, "--out", str(out),
                       "--partition-out", str(part)]) == 0
        assert payload_digest(out) == "a0f3855bd6cfe072"
        digest = hashlib.sha256(part.read_bytes()).hexdigest()
        assert digest[:16] == "f863432cc011dc26"

    def test_skeleton_search_budget_exit_code(self, skeleton_graph,
                                              tmp_path):
        assert main(["decompose", str(skeleton_graph)] + self.SKELETON_ARGS
                    + ["--budget", "10",
                       "--out", str(tmp_path / "dec.json")]) == 2

    def test_validation_failures_reported(self, tmp_path):
        gp = tmp_path / "tree.edges"
        gl.write_edge_list(gl.random_tree(30, seed=1), gp)
        out = tmp_path / "dec.json"
        code = main(["decompose", str(gp), "--a", "2.0", "--alpha", "0.3",
                     "--t", "1", "--delta", "2.0", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())["payload"]
        assert all(r["pass"] for r in payload["records"])


class TestDecomposeWithBadVertices:
    # gen --n N --d 2 --seed 1 at a = 0.3, alpha = 0.25, t = 1,
    # delta = 0.15, L = 0.12.  N = 5000 has 9 bad vertices in 6 classes;
    # N = 2000 has 7 in 2 classes, two skeleton blocks and one tree block,
    # and a 7-deep piece fails skeleton-structure (exit 1).
    @pytest.mark.parametrize("n, code, digest, bad, classes", [
        (5000, 0, "8862d7f9a32e917b", 9, 6),
        (2000, 1, "83022342f7cd9048", 7, 2)])
    def test_pinned_digest(self, tmp_path, n, code, digest, bad, classes):
        gp = tmp_path / "g.edges"
        assert main(["gen", "--n", str(n), "--d", "2", "--seed", "1",
                     "--out", str(gp)]) == 0
        out = tmp_path / "dec.json"
        part = tmp_path / "part.json"
        assert main(["decompose", str(gp), "--a", "0.3", "--alpha", "0.25",
                     "--t", "1", "--delta", "0.15", "--length-scale",
                     "0.12", "--out", str(out), "--partition-out",
                     str(part)]) == code
        assert payload_digest(out) == digest
        hp = gl.HypothesisParams(a=0.3, alpha=0.25, t=1, delta=0.15)
        g = gl.read_edge_list(gp)
        expect = gl.decompose(g, hp, L=0.12)
        assert gl.read_partition(part).blocks == expect.blocks
        assert len(expect.labeling.bad_vertices) == bad
        assert len(gl.bad_classes(g, expect.labeling)) == classes

    def test_sweeps_only_open_vertices(self, tmp_path, monkeypatch):
        # The bounds leave open exactly the 9 bad vertices (phi above
        # eps = 3.75, degree within c): one chunk sweeps them, and
        # meta reports the count.
        gp = tmp_path / "g.edges"
        assert main(["gen", "--n", "5000", "--d", "2", "--seed", "1",
                     "--out", str(gp)]) == 0
        hp = gl.HypothesisParams(a=0.3, alpha=0.25, t=1, delta=0.15)
        bad = gl.decompose(gl.read_edge_list(gp), hp,
                           L=0.12).labeling.bad_vertices
        calls = count_sweeps(monkeypatch)
        out = tmp_path / "dec.json"
        assert main(["decompose", str(gp), "--a", "0.3", "--alpha", "0.25",
                     "--t", "1", "--delta", "0.15", "--length-scale",
                     "0.12", "--out", str(out)]) == 0
        assert payload_digest(out) == "8862d7f9a32e917b"
        assert calls == [[bad]]
        assert json.loads(out.read_text())["meta"]["phi_swept"] == 9


class TestLogBase:
    params = ["--a", "0.2", "--alpha", "0.25", "--t", "1", "--delta", "1.6"]

    @pytest.mark.parametrize("base", ["1", "0.5"])
    def test_flag_at_most_one_is_invalid(self, triangle_files, tmp_path,
                                         base):
        gp, _ = triangle_files
        out = tmp_path / "dec.json"
        assert main(["decompose", str(gp)] + self.params +
                    ["--log-base", base, "--out", str(out)]) == 3
        assert not out.exists()

    def test_config_at_most_one_is_invalid(self, triangle_files, tmp_path):
        gp, _ = triangle_files
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"log_base": 1}))
        out = tmp_path / "dec.json"
        assert main(["decompose", str(gp)] + self.params +
                    ["--config", str(cfg), "--out", str(out)]) == 3
        assert not out.exists()

    @pytest.mark.parametrize("command", ["check", "decompose"])
    @pytest.mark.parametrize("base", ["inf", "nan"])
    def test_flag_not_finite_is_invalid(self, triangle_files, tmp_path,
                                        command, base):
        # a base of inf would make every radius and bound 0 and still
        # give a verdict
        gp, _ = triangle_files
        out = tmp_path / "out.json"
        assert main([command, str(gp)] + self.params +
                    ["--log-base", base, "--out", str(out)]) == 3
        assert not out.exists()

    @pytest.mark.parametrize("command", ["check", "decompose"])
    def test_config_infinite_is_invalid(self, triangle_files, tmp_path,
                                        command):
        # json reads Infinity as a float, so the type check alone passes it
        gp, _ = triangle_files
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"log_base": float("inf")}))
        out = tmp_path / "out.json"
        assert main([command, str(gp)] + self.params +
                    ["--config", str(cfg), "--out", str(out)]) == 3
        assert not out.exists()


class TestSample:
    def test_pinned_digest_and_artifacts(self, er_graph, tmp_path):
        mp = tmp_path / "hc.json"
        gl.write_model(gl.hardcore_model(0.5), mp)
        out = tmp_path / "run"
        code = main(["sample", "--model", str(mp), "--graph",
                     str(er_graph), "--steps", "5000", "--seed", "3",
                     "--out", str(out)])
        assert code == 0
        assert payload_digest(out) == "f21c170495c90adc"
        trace = (tmp_path / "run.trace.csv").read_text().splitlines()
        assert trace[0] == "step,hamming,active"
        ck = gl.read_checkpoint(tmp_path / "run.ckpt")
        assert ck.step == 5000

    def test_zero_steps_identity(self, triangle_files, tmp_path):
        gp, mp = triangle_files
        out = tmp_path / "run0"
        code = main(["sample", "--model", str(mp), "--graph", str(gp),
                     "--steps", "0", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())["payload"]
        assert payload["steps"] == 0

    def test_csv_keeps_scalar_fields(self, triangle_files, tmp_path):
        gp, mp = triangle_files
        out = tmp_path / "run"
        code = main(["sample", "--model", str(mp), "--graph", str(gp),
                     "--steps", "10", "--format", "csv", "--out", str(out)])
        assert code == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert [r["steps"] for r in rows] == ["10"]
        assert "final" not in rows[0]
        assert (tmp_path / "run.trace.csv").exists()

    def test_infeasible_graph_rejected(self, tmp_path):
        # the triangle has no proper 2-coloring to start from
        gp = tmp_path / "tri.edges"
        gl.write_edge_list(gl.Graph(3, [(0, 1), (0, 2), (1, 2)]), gp)
        mp = tmp_path / "q2.json"
        gl.write_model(gl.coloring_model(2), mp)
        code = main(["sample", "--model", str(mp), "--graph", str(gp),
                     "--steps", "10", "--out", str(tmp_path / "r")])
        assert code == 3

    # giant components whose 2-core is neither a tree nor unicyclic
    @pytest.mark.parametrize("n,seed,q", [(5000, 1, 3), (5000, 1, 5),
                                          (5000, 1, 20), (200, 5, 5)])
    def test_supercritical_coloring_starts(self, tmp_path, n, seed, q):
        gp = tmp_path / "g.edges"
        assert main(["gen", "--n", str(n), "--d", "2", "--seed", str(seed),
                     "--out", str(gp)]) == 0
        mp = tmp_path / "m.json"
        gl.write_model(gl.coloring_model(q), mp)
        out = tmp_path / "r"
        code = main(["sample", "--model", str(mp), "--graph", str(gp),
                     "--steps", "2000", "--out", str(out)])
        assert code == 0
        final = json.loads(out.read_text())["payload"]["final"]
        assert gl.is_feasible(gl.coloring_model(q), gl.read_edge_list(gp),
                              final)

    def test_unknown_model_kind_is_invalid(self, triangle_files, tmp_path):
        gp, _ = triangle_files
        mp = tmp_path / "m.json"
        mp.write_text(json.dumps({"kind": "colouring", "q": 3,
                                  "h": [0, 0, 0],
                                  "g": [[0, 1, 1], [1, 0, 1], [1, 1, 0]]}))
        out = tmp_path / "r"
        assert main(["sample", "--model", str(mp), "--graph", str(gp),
                     "--steps", "10", "--out", str(out)]) == 3
        assert not out.exists()

    # a chain on no vertices holds at every step, whatever its lazy coins
    @pytest.mark.parametrize("seed", range(1, 7))
    def test_empty_graph_holds(self, triangle_files, tmp_path, seed):
        _, mp = triangle_files
        gp = tmp_path / "empty.edges"
        gp.write_text("0 0\n")
        out = tmp_path / "r"
        assert main(["sample", "--model", str(mp), "--graph", str(gp),
                     "--steps", "1", "--seed", str(seed),
                     "--out", str(out)]) == 0
        payload = json.loads(out.read_text())["payload"]
        assert (payload["final"], payload["trace_rows"]) == ([], 2)
        rows = list(csv.DictReader(
            (tmp_path / "r.trace.csv").read_text().splitlines()))
        assert [tuple(map(int, r.values())) for r in rows] == [
            (0, 0, 0), (1, 0, 0)]
        assert gl.read_checkpoint(tmp_path / "r.ckpt").config == ()

    @pytest.mark.parametrize("flags, lazy, stride", [
        ([], True, None), (["--no-lazy"], False, None),
        (["--stride", "7"], True, 7)])
    def test_trace_csv_equals_dict_rows(self, er_graph, tmp_path, flags,
                                        lazy, stride):
        # the trace is written from its tuples; the bytes are those of
        # the generic writer on the same rows as dicts
        mp = tmp_path / "hc.json"
        model = gl.hardcore_model(0.5)
        gl.write_model(model, mp)
        out = tmp_path / "run"
        assert main(["sample", "--model", str(mp), "--graph", str(er_graph),
                     "--steps", "3000", "--seed", "4", "--out", str(out)]
                    + flags) == 0
        g = gl.read_edge_list(er_graph)
        _, trace = gl.run_chain(model, g, gl.initial_configuration(model, g),
                                3000, seed=4, lazy=lazy, stride=stride)
        want = gl_cli._rows_to_csv([{"step": s, "hamming": h, "active": a}
                                    for s, h, a in trace])
        assert (tmp_path / "run.trace.csv").read_bytes() == want.encode()

    @pytest.mark.parametrize("flag", [["--stride", "0"], ["--steps", "-5"]])
    def test_bad_chain_length_is_invalid(self, triangle_files, tmp_path,
                                         flag):
        gp, mp = triangle_files
        args = ["sample", "--model", str(mp), "--graph", str(gp),
                "--steps", "10", "--out", str(tmp_path / "r")]
        assert main(args + flag) == 3
        assert not (tmp_path / "r.ckpt").exists()


class TestExact:
    def test_triangle_q4_payload(self, triangle_files, tmp_path):
        gp, mp = triangle_files
        out = tmp_path / "ex.json"
        code = main(["exact", "--model", str(mp), "--graph", str(gp),
                     "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())["payload"]
        assert payload["states"] == 24
        assert payload["mixing"] == 20
        assert payload["relaxation"] == pytest.approx(12.0, abs=1e-8)

    def test_relaxation_and_mixing_computed_once(self, triangle_files,
                                                 tmp_path, monkeypatch):
        calls = {"relaxation_time": 0, "mixing_time": 0}

        def counted(name):
            fn = getattr(gl_exact, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            wrapped = counted(name)
            monkeypatch.setattr(gl_exact, name, wrapped)
            monkeypatch.setattr(gl_cli, name, wrapped)
        gp, mp = triangle_files
        out = tmp_path / "ex.json"
        assert main(["exact", "--model", str(mp), "--graph", str(gp),
                     "--out", str(out)]) == 0
        assert calls == {"relaxation_time": 1, "mixing_time": 1}
        payload = json.loads(out.read_text())["payload"]
        monkeypatch.undo()
        chain = gl.transition_matrix(
            gl.enumerate_states(gl.read_model(mp), gl.read_edge_list(gp)))
        recs = gl.sandwich_check(chain, instance=f"{mp}:{gp}")
        assert payload["records"] == [r.to_json_dict() for r in recs]

    def test_budget_exhaustion_exit_code(self, triangle_files, tmp_path):
        gp, mp = triangle_files
        code = main(["exact", "--model", str(mp), "--graph", str(gp),
                     "--budget", "5", "--out", str(tmp_path / "x.json")])
        assert code == 2

    def test_degenerate_chain_reported(self, tmp_path):
        gp = tmp_path / "tri.edges"
        gl.write_edge_list(gl.Graph(3, [(0, 1), (0, 2), (1, 2)]), gp)
        mp = tmp_path / "q3.json"
        gl.write_model(gl.coloring_model(3), mp)
        out = tmp_path / "ex.json"
        code = main(["exact", "--model", str(mp), "--graph", str(gp),
                     "--out", str(out)])
        assert code == 1
        payload = json.loads(out.read_text())["payload"]
        assert payload["degenerate"]

    def test_degenerate_chain_as_csv(self, tmp_path):
        # no records: the scalar fields come out as one row, and the
        # check's own exit code survives the csv output
        gp = tmp_path / "tri.edges"
        gl.write_edge_list(gl.Graph(3, [(0, 1), (0, 2), (1, 2)]), gp)
        mp = tmp_path / "q3.json"
        gl.write_model(gl.coloring_model(3), mp)
        out = tmp_path / "ex.csv"
        code = main(["exact", "--model", str(mp), "--graph", str(gp),
                     "--format", "csv", "--out", str(out)])
        assert code == 1
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == 1
        assert rows[0]["states"] == "6"
        assert "reducible" in rows[0]["degenerate"]

    def test_underflowing_mass_is_degenerate(self, tmp_path):
        # pi(0, 0) = exp(-800) / Z rounds to 0: a valid model whose
        # symmetrized kernel is undefined, reported like a reducible one
        gp = tmp_path / "edge.edges"
        gl.write_edge_list(gl.Graph(2, [(0, 1)]), gp)
        mp = tmp_path / "steep.json"
        mp.write_text(json.dumps({"kind": "soft", "q": 2, "h": [0.0, 400.0],
                                  "g": [[0, 0], [0, 0]]}))
        out = tmp_path / "ex.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["exact", "--model", str(mp), "--graph", str(gp),
                         "--out", str(out)])
        assert code == 1
        payload = json.loads(out.read_text())["payload"]
        assert payload["min_pi"] == 0.0
        assert "underflows to 0 at 1 states" in payload["degenerate"]

    def test_out_of_memory_is_budget_exhaustion(self, triangle_files,
                                                tmp_path, monkeypatch,
                                                capsys):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(gl_cli, "enumerate_states", exhausted)
        gp, mp = triangle_files
        out = tmp_path / "ex.json"
        code = main(["exact", "--model", str(mp), "--graph", str(gp),
                     "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            "exact: budget exhausted: out of memory\n")
        assert not out.exists()

    def test_one_state_chain_passes(self, tmp_path):
        # one state mixes in 0 steps and relaxes in 0 steps
        gp = tmp_path / "p3.edges"
        gl.write_edge_list(gl.Graph(3, [(0, 1), (1, 2)]), gp)
        mp = tmp_path / "s1.json"
        mp.write_text(json.dumps(
            {"kind": "soft", "q": 1, "h": [0.0], "g": [[0.0]]}))
        out = tmp_path / "ex.json"
        assert main(["exact", "--model", str(mp), "--graph", str(gp),
                     "--out", str(out)]) == 0
        payload = json.loads(out.read_text())["payload"]
        assert (payload["states"], payload["mixing"]) == (1, 0)
        assert [(r["exact_value"], r["bound_value"], r["pass"])
                for r in payload["records"]] == [(0.0, 0.0, True)] * 2

    @pytest.mark.parametrize("lazy", [[], ["--no-lazy"]])
    def test_empty_graph_has_one_state(self, triangle_files, tmp_path,
                                       lazy):
        _, mp = triangle_files
        gp = tmp_path / "empty.edges"
        gp.write_text("0 0\n")
        out = tmp_path / "ex.json"
        assert main(["exact", "--model", str(mp), "--graph", str(gp),
                     "--out", str(out)] + lazy) == 0
        payload = json.loads(out.read_text())["payload"]
        assert (payload["states"], payload["mixing"]) == (1, 0)
        assert payload["detailed_balance_gap"] == 0.0
        assert all(r["pass"] for r in payload["records"])

    @pytest.mark.parametrize("flags, digest", [
        ([], "3305eaa3f1e7d9cb"), (["--no-lazy"], "b73605a853c38a2b")])
    def test_path_payload_and_dump_are_pinned(self, tmp_path, monkeypatch,
                                              flags, digest):
        # 3-colourings of the 9-vertex path, 768 states; relative file
        # names, since every record's instance carries them
        monkeypatch.chdir(tmp_path)
        gl.write_model(gl.coloring_model(3), "model.json")
        gl.write_edge_list(gl.Graph(9, [(i, i + 1) for i in range(8)]),
                           "graph.txt")
        assert main(["exact", "--model", "model.json", "--graph",
                     "graph.txt", "--out", "ex.json",
                     "--dump", "chain.txt"] + flags) == 0
        assert json.loads(Path("ex.json").read_text())["payload"][
            "states"] == 768
        assert payload_digest(Path("ex.json")) == digest
        if not flags:  # the lazy chain's dump
            dump = hashlib.sha256(Path("chain.txt").read_bytes()).hexdigest()
            assert dump[:16] == "8c9529b7cf141f14"


def long_path_files(tmp_path, q):
    n = 1500
    gp = tmp_path / "path.edges"
    gl.write_edge_list(gl.Graph(n, [(i, i + 1) for i in range(n - 1)]), gp)
    mp = tmp_path / f"q{q}.json"
    gl.write_model(gl.coloring_model(q), mp)
    return gp, mp


class TestExactLongPath:
    # 1500 positions: deeper than the interpreter's recursion limit

    def test_frozen_two_colouring_is_degenerate(self, tmp_path):
        gp, mp = long_path_files(tmp_path, 2)
        out = tmp_path / "ex.json"
        code = main(["exact", "--model", str(mp), "--graph", str(gp),
                     "--out", str(out)])
        assert code == 1
        payload = json.loads(out.read_text())["payload"]
        assert payload["states"] == 2
        assert payload["degenerate"]

    def test_three_colourings_exceed_the_budget(self, tmp_path):
        # the sweep's tenth level holds 3 * 2^9 > 1000 partial colourings
        gp, mp = long_path_files(tmp_path, 3)
        code = main(["exact", "--model", str(mp), "--graph", str(gp),
                     "--budget", "1000", "--out", str(tmp_path / "x.json")])
        assert code == 2

    def test_three_colourings_trip_the_default_budget_quickly(self, tmp_path):
        # partial colourings count against the budget, so the sweep stops
        # at its 18th level, 3 * 2^17 rows, long before 3 * 2^1499 states
        gp, mp = long_path_files(tmp_path, 3)
        tracemalloc.start()
        start = time.perf_counter()
        try:
            code = main(["exact", "--model", str(mp), "--graph", str(gp),
                         "--out", str(tmp_path / "x.json")])
            took = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert took < 20.0
        assert peak < 200 * 2 ** 20


class TestVerify:
    def test_skeleton_joint_counts(self, tmp_path):
        out = tmp_path / "v.json"
        code = main(["verify", "--suite", "skeleton-joint", "--out",
                     str(out)])
        assert code == 0
        payload = json.loads(out.read_text())["payload"]
        assert payload["counts"] == {"passed": 10, "failed": 0,
                                     "skipped": 0}

    def test_all_suites_payload_is_pinned(self, tmp_path):
        out = tmp_path / "v.json"
        assert main(["verify", "--suite", "all", "--out", str(out)]) == 0
        assert payload_digest(out) == "b433d1797b15ba71"
        payload = json.loads(out.read_text())["payload"]
        assert payload["counts"] == {"passed": 459, "failed": 0,
                                     "skipped": 205}

    def test_zoo_chains_follow_the_budget(self, tmp_path):
        # the zoo chains are built once per budget: a smaller budget in
        # the same process neither reads nor spoils the default's chains
        small = [tmp_path / f"small-{i}.json" for i in range(2)]
        full = tmp_path / "full.json"
        small_args = ["verify", "--suite", "sandwich", "--budget", "50"]
        assert main(small_args + ["--out", str(small[0])]) == 0
        assert main(["verify", "--suite", "all", "--out", str(full)]) == 0
        assert main(small_args + ["--out", str(small[1])]) == 0
        assert payload_digest(full) == "b433d1797b15ba71"
        fresh = tmp_path / "fresh.json"
        done = subprocess.run(
            [sys.executable, "-m", "glauberlab"] + small_args
            + ["--out", str(fresh)],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert payload_digest(small[0]) == payload_digest(fresh)
        assert payload_digest(small[1]) == payload_digest(fresh)
        # budget 50 skips chains that the default budget builds
        records = json.loads(full.read_text())["payload"]["records"]
        counts = json.loads(fresh.read_text())["payload"]["counts"]
        assert counts["skipped"] > sum(
            1 for r in records
            if r["suite"] == "sandwich" and r.get("check") == "skipped")

    def test_unknown_suite_is_invalid(self):
        assert main(["verify", "--suite", "bogus"]) == 3

    def test_csv_emission(self, tmp_path):
        out = tmp_path / "v.csv"
        code = main(["verify", "--suite", "skeleton-joint", "--format",
                     "csv", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("check,")
        assert len(lines) == 11


class TestCouple:
    def test_triangle_coalesces(self, triangle_files, tmp_path):
        gp, mp = triangle_files
        out = tmp_path / "c.json"
        code = main(["couple", "--model", str(mp), "--graph", str(gp),
                     "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())["payload"]
        assert payload["coalesced"]
        assert payload["steps"] > 0

    def test_frozen_chain_exits_horizon(self, tmp_path):
        gp = tmp_path / "tri.edges"
        gl.write_edge_list(gl.Graph(3, [(0, 1), (0, 2), (1, 2)]), gp)
        mp = tmp_path / "q3.json"
        gl.write_model(gl.coloring_model(3), mp)
        code = main(["couple", "--model", str(mp), "--graph", str(gp),
                     "--horizon", "1000", "--out", str(tmp_path / "c")])
        assert code == 2

    def test_csv_is_one_row(self, triangle_files, tmp_path):
        gp, mp = triangle_files
        out = tmp_path / "c.csv"
        code = main(["couple", "--model", str(mp), "--graph", str(gp),
                     "--format", "csv", "--out", str(out)])
        assert code == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == 1
        assert rows[0]["coalesced"] == "True"
        assert int(rows[0]["steps"]) > 0

    def test_meta_reports_wall_and_rate(self, triangle_files, tmp_path):
        gp, mp = triangle_files
        out = tmp_path / "c.json"
        assert main(["couple", "--model", str(mp), "--graph", str(gp),
                     "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["meta"]["wall_s"] >= 0.0
        assert doc["meta"]["steps_per_s"] > 0
        assert not {"wall_s", "steps_per_s"} & set(doc["payload"])

    @pytest.mark.parametrize("q", [3, 4])
    def test_small_q_starts(self, tmp_path, q):
        # index-order greedy runs out of colors on this graph at q = 3, 4;
        # the smallest-last pair starts wherever q exceeds the degeneracy
        gp = tmp_path / "g.edges"
        assert main(["gen", "--n", "5000", "--d", "2", "--seed", "1",
                     "--out", str(gp)]) == 0
        with pytest.raises(gl.PaletteExhaustedError):
            gl.greedy_coloring(gl.read_edge_list(gp), q)
        mp = tmp_path / "c.json"
        gl.write_model(gl.coloring_model(q), mp)
        out = tmp_path / "c.out"
        code = main(["couple", "--model", str(mp), "--graph", str(gp),
                     "--horizon", "1000", "--out", str(out)])
        assert code in (0, 2)
        payload = json.loads(out.read_text())["payload"]
        assert payload["initial_hamming"] > 0

    @pytest.mark.parametrize("horizon", ["0", "-3"])
    def test_bad_horizon_is_invalid(self, triangle_files, tmp_path,
                                    horizon):
        gp, mp = triangle_files
        assert main(["couple", "--model", str(mp), "--graph", str(gp),
                     "--horizon", horizon]) == 3
        assert main(["scaling", "--d", "1.0", "--sizes", "50", "--seeds",
                     "1", "--horizon", horizon]) == 3


class TestScaling:
    def test_single_size_slope_undefined(self, tmp_path):
        out = tmp_path / "s.json"
        code = main(["scaling", "--d", "2.0", "--q", "20", "--sizes",
                     "100", "--seeds", "2", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())["payload"]
        assert payload["slope"] is None
        assert "undefined" in payload["slope_note"]

    def test_near_linear_regime(self, tmp_path):
        out = tmp_path / "s.json"
        code = main(["scaling", "--d", "2.0", "--q", "20", "--sizes",
                     "100", "200", "400", "--seeds", "2", "--out",
                     str(out)])
        assert code == 0
        payload = json.loads(out.read_text())["payload"]
        assert payload["non_coalesced_fraction"] == 0.0
        assert 0.5 < payload["slope"] < 2.0

    def test_rows_in_deterministic_order(self, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            main(["scaling", "--d", "2.0", "--q", "20", "--sizes", "100",
                  "200", "--seeds", "2", "--out", str(out)])
            outs.append(payload_digest(out))
        assert outs[0] == outs[1]


class TestConfig:
    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        assert main(["verify", "--suite", "skeleton-joint", "--config",
                     str(cfg)]) == 3

    def test_retired_boundary_cap_rejected(self, tmp_path):
        # no command reads it, so setting it would do nothing
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"boundary_cap": 100}))
        assert main(["verify", "--suite", "skeleton-joint", "--config",
                     str(cfg)]) == 3

    def test_config_supplies_seed(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 9}))
        gp = tmp_path / "g.edges"
        code = main(["gen", "--n", "50", "--d", "1.5", "--config",
                     str(cfg), "--out", str(gp)])
        assert code == 0
        assert gl.read_edge_list(gp).edges == gl.generate_er(
            50, 1.5, 9).edges

    def test_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 9}))
        gp = tmp_path / "g.edges"
        main(["gen", "--n", "50", "--d", "1.5", "--seed", "4",
              "--config", str(cfg), "--out", str(gp)])
        assert gl.read_edge_list(gp).edges == gl.generate_er(
            50, 1.5, 4).edges


class TestOutputEnvelope:
    def test_meta_separated_from_payload(self, triangle_files, tmp_path):
        gp, mp = triangle_files
        out = tmp_path / "ex.json"
        main(["exact", "--model", str(mp), "--graph", str(gp), "--out",
              str(out)])
        doc = json.loads(out.read_text())
        assert set(doc) == {"meta", "payload"}
        assert "generated_at" in doc["meta"]
        assert "generated_at" not in json.dumps(doc["payload"])

    def test_byte_deterministic_payload(self, triangle_files, tmp_path):
        gp, mp = triangle_files
        digests = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            main(["exact", "--model", str(mp), "--graph", str(gp),
                  "--out", str(out)])
            digests.append(payload_digest(out))
        assert digests[0] == digests[1]


class TestParserReuse:
    def test_one_parser_per_process(self, er_graph, tmp_path, monkeypatch):
        built = []
        build = gl_cli.build_parser

        def counted():
            built.append(1)
            return build()

        monkeypatch.setattr(gl_cli, "build_parser", counted)
        gl_cli._parser.cache_clear()
        flags = ["--a", "0.2", "--alpha", "0.25", "--t", "1", "--delta",
                 "2.07"]
        commands = [["check", str(er_graph)] + flags,
                    ["decompose", str(er_graph)] + flags
                    + ["--scan-order", "high"]]
        here = [tmp_path / "check.json", tmp_path / "decompose.json"]
        codes = [main(argv + ["--out", str(out)])
                 for argv, out in zip(commands, here)]
        assert built == [1]
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        for argv, out, code in zip(commands, here, codes):
            fresh = out.with_suffix(".fresh")
            done = subprocess.run(
                [sys.executable, "-m", "glauberlab"] + argv
                + ["--out", str(fresh)],
                env=env, capture_output=True, text=True, timeout=120)
            assert done.returncode == code, done.stderr
            assert payload_digest(out) == payload_digest(fresh)


class TestBudgetFlag:
    @pytest.mark.parametrize("budget", ["0", "-1"])
    @pytest.mark.parametrize("command", ["check", "decompose", "exact",
                                         "verify"])
    def test_below_one_is_invalid(self, triangle_files, tmp_path, command,
                                  budget):
        gp, mp = triangle_files
        params = ["--a", "0.2", "--alpha", "0.25", "--t", "1", "--delta",
                  "1.6"]
        args = {"check": ["check", str(gp)] + params,
                "decompose": ["decompose", str(gp)] + params,
                "exact": ["exact", "--model", str(mp), "--graph", str(gp)],
                "verify": ["verify", "--suite", "skeleton-joint"]}[command]
        out = tmp_path / "o.json"
        assert main(args + ["--budget", budget, "--out", str(out)]) == 3
        assert not out.exists()


class TestMalformedJson:
    def test_model_not_an_object(self, triangle_files, tmp_path):
        gp, _ = triangle_files
        mp = tmp_path / "m.json"
        mp.write_text("[]")
        assert main(["exact", "--model", str(mp), "--graph", str(gp)]) == 3

    def test_non_numeric_activity(self, triangle_files, tmp_path):
        gp, _ = triangle_files
        mp = tmp_path / "m.json"
        data = gl.model_to_json_dict(gl.hardcore_model(1.0))
        data["beta"] = "x"
        mp.write_text(json.dumps(data))
        assert main(["exact", "--model", str(mp), "--graph", str(gp)]) == 3

    def test_non_numeric_config_value(self, triangle_files, tmp_path):
        gp, mp = triangle_files
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"state_budget": "big"}))
        assert main(["exact", "--model", str(mp), "--graph", str(gp),
                     "--config", str(cfg)]) == 3


class TestConfigChoices:
    def test_unknown_format_is_invalid(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"format": "xml"}))
        out = tmp_path / "v.out"
        assert main(["verify", "--suite", "skeleton-joint", "--config",
                     str(cfg), "--out", str(out)]) == 3
        assert not out.exists()

    def test_unknown_scan_order_is_invalid(self, triangle_files, tmp_path):
        gp, _ = triangle_files
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scan_order": "sideways"}))
        assert main(["check", str(gp), "--a", "0.2", "--alpha", "0.25",
                     "--t", "1", "--delta", "1.6", "--config", str(cfg),
                     "--out", str(tmp_path / "c.json")]) == 3


class TestScalingFlags:
    def test_q_with_beta_is_invalid(self, tmp_path):
        out = tmp_path / "s.json"
        assert main(["scaling", "--d", "1.0", "--q", "5", "--beta", "1.0",
                     "--sizes", "50", "--seeds", "1", "--out",
                     str(out)]) == 3
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--seeds", "--workers"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_below_one_is_invalid(self, tmp_path, flag, value):
        out = tmp_path / "s.json"
        assert main(["scaling", "--d", "1.0", "--sizes", "50", flag, value,
                     "--out", str(out)]) == 3
        assert not out.exists()

    def test_beta_alone_runs_hardcore(self, tmp_path):
        out = tmp_path / "s.json"
        assert main(["scaling", "--d", "1.0", "--beta", "1.0", "--sizes",
                     "50", "--seeds", "1", "--out", str(out)]) == 0
        rows = json.loads(out.read_text())["payload"]["rows"]
        assert [(r["q"], r["beta"]) for r in rows] == [(None, 1.0)]


class TestConfigTypes:
    @pytest.mark.parametrize("data", [{"state_budget": "big"},
                                      {"node_budget": True},
                                      {"seed": 1.5},
                                      {"log_base": "e"},
                                      {"scan_order": 1}])
    def test_wrong_type_rejected(self, tmp_path, data):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(data))
        with pytest.raises(ValueError):
            gl_cli.load_config(cfg)

    def test_int_log_base_accepted(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"log_base": 2, "seed": 4}))
        got = gl_cli.load_config(cfg)
        assert got["log_base"] == 2 and got["seed"] == 4


class TestConfigCounts:
    # Counts read from the config are checked like the flags that carry
    # them: below one is invalid input, and nothing is written.
    @pytest.mark.parametrize("value", [0, -1])
    def test_exact_mixing_horizon_below_one(self, triangle_files, tmp_path,
                                            value):
        gp, mp = triangle_files
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mixing_horizon": value}))
        out = tmp_path / "ex.json"
        assert main(["exact", "--model", str(mp), "--graph", str(gp),
                     "--config", str(cfg), "--out", str(out)]) == 3
        assert not out.exists()

    @pytest.mark.parametrize("value", [0, -1])
    def test_verify_mixing_horizon_below_one(self, tmp_path, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mixing_horizon": value}))
        out = tmp_path / "v.json"
        assert main(["verify", "--suite", "sandwich", "--config", str(cfg),
                     "--out", str(out)]) == 3
        assert not out.exists()

    @pytest.mark.parametrize("value", [0, -5])
    def test_verify_decay_boundary_samples_below_one(self, tmp_path, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"decay_boundary_samples": value}))
        out = tmp_path / "v.json"
        assert main(["verify", "--suite", "decay", "--config", str(cfg),
                     "--out", str(out)]) == 3
        assert not out.exists()


def _base_args(command, triangle_files):
    """A command line that runs; every dropped flag is added to it."""
    gp, mp = triangle_files
    params = ["--a", "0.2", "--alpha", "0.25", "--t", "1", "--delta", "1.6"]
    chain = ["--model", str(mp), "--graph", str(gp)]
    return {"gen": ["gen", "--n", "10", "--d", "1.0"],
            "check": ["check", str(gp)] + params,
            "decompose": ["decompose", str(gp)] + params,
            "sample": ["sample"] + chain + ["--steps", "10"],
            "scaling": ["scaling", "--d", "1.0", "--sizes", "20",
                        "--seeds", "1"],
            "couple": ["couple"] + chain,
            "exact": ["exact"] + chain,
            "verify": ["verify", "--suite", "skeleton-joint"]}[command]


class TestUnreadFlags:
    # Each command takes only the shared flags it reads; the rest are
    # invalid input, even with a value that would be valid elsewhere.
    @pytest.mark.parametrize("command, flag", [
        ("gen", ["--budget", "100"]),
        ("gen", ["--log-base", "2"]),
        ("gen", ["--format", "json"]),
        ("check", ["--seed", "1"]),
        ("decompose", ["--seed", "1"]),
        ("sample", ["--budget", "100"]),
        ("sample", ["--log-base", "2"]),
        ("scaling", ["--budget", "100"]),
        ("scaling", ["--log-base", "2"]),
        ("couple", ["--budget", "100"]),
        ("couple", ["--log-base", "2"]),
        ("exact", ["--seed", "1"]),
        ("exact", ["--log-base", "2"]),
        ("verify", ["--seed", "1"]),
        ("verify", ["--log-base", "2"])])
    def test_flag_is_invalid(self, triangle_files, tmp_path, command, flag):
        args = _base_args(command, triangle_files)
        out = tmp_path / "o.out"
        assert main(args + ["--out", str(out)]) == 0
        out.unlink()
        assert main(args + flag + ["--out", str(out)]) == 3
        assert not out.exists()


class TestConfigChecksEveryCommand:
    # load_config checks every key it loads, whether or not the command
    # reads it
    @pytest.mark.parametrize("data", [
        {"log_base": float("inf")},
        {"log_base": 1},
        {"decay_boundary_samples": 0},
        {"decay_boundary_samples": 0, "node_budget": -3},
        {"chain_horizon": 0}])
    def test_sample_rejects_bad_values(self, triangle_files, tmp_path,
                                       data):
        gp, mp = triangle_files
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(data))
        out = tmp_path / "run"
        assert main(["sample", "--model", str(mp), "--graph", str(gp),
                     "--steps", "10", "--config", str(cfg),
                     "--out", str(out)]) == 3
        assert not out.exists()

    @pytest.mark.parametrize("key", ["node_budget", "state_budget",
                                     "mixing_horizon", "chain_horizon",
                                     "decay_boundary_samples"])
    def test_counts_below_one_rejected(self, tmp_path, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: 0}))
        with pytest.raises(ValueError, match=key):
            gl_cli.load_config(cfg)


class TestDecayDefaults:
    def test_library_and_verify_agree(self, tmp_path):
        # one default boundary sample count, so the two reports match
        out = tmp_path / "v.json"
        assert main(["verify", "--suite", "decay", "--out", str(out)]) == 0
        records = json.loads(out.read_text())["payload"]["records"]
        for rec in records:
            assert rec.pop("suite") == "decay"
        report = gl.run_suite("decay")
        assert records == json.loads(json.dumps(
            [r.to_json_dict() for r in report.records]))


class TestCoupleSoft:
    @staticmethod
    def files(tmp_path, model, graph):
        gp = tmp_path / "g.edges"
        gl.write_edge_list(graph, gp)
        mp = tmp_path / "soft.json"
        gl.write_model(model, mp)
        return gp, mp

    def test_one_state_starts_coalesced(self, tmp_path):
        gp, mp = self.files(tmp_path, gl.soft_model([0.0], [[0.0]]),
                            gl.Graph(3, [(0, 1), (1, 2)]))
        out = tmp_path / "c.json"
        assert main(["couple", "--model", str(mp), "--graph", str(gp),
                     "--out", str(out)]) == 0
        payload = json.loads(out.read_text())["payload"]
        assert payload["steps"] == 0
        assert payload["initial_hamming"] == 0

    def test_three_states_on_the_triangle(self, tmp_path):
        g = [[0.3, -0.2, 0.1], [-0.2, 0.0, 0.4], [0.1, 0.4, -0.5]]
        gp, mp = self.files(tmp_path, gl.soft_model([0.0, 0.2, -0.1], g),
                            gl.Graph(3, [(0, 1), (0, 2), (1, 2)]))
        out = tmp_path / "c.json"
        code = main(["couple", "--model", str(mp), "--graph", str(gp),
                     "--horizon", "100000", "--out", str(out)])
        assert code in (0, 2)
        payload = json.loads(out.read_text())["payload"]
        assert payload["initial_hamming"] == 3
