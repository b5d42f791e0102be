import hashlib
import json

import pytest

import glauberlab as gl
from glauberlab import cli as gl_cli
from glauberlab import exact as gl_exact
from glauberlab.cli import main


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

    def test_missing_file_is_invalid_input(self, tmp_path):
        code = main(["check", str(tmp_path / "nope.edges"), "--a", "1",
                     "--alpha", "0.5", "--t", "1", "--delta", "1"])
        assert code == 3


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

    def test_validation_failures_reported(self, tmp_path):
        gp = tmp_path / "tree.edges"
        gl.write_edge_list(gl.random_tree(30, seed=1), gp)
        out = tmp_path / "dec.json"
        code = main(["decompose", str(gp), "--a", "2.0", "--alpha", "0.3",
                     "--t", "1", "--delta", "2.0", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())["payload"]
        assert all(r["pass"] for r in payload["records"])


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


class TestVerify:
    def test_skeleton_joint_counts(self, tmp_path):
        out = tmp_path / "v.json"
        code = main(["verify", "--suite", "skeleton-joint", "--out",
                     str(out)])
        assert code == 0
        payload = json.loads(out.read_text())["payload"]
        assert payload["counts"] == {"passed": 10, "failed": 0,
                                     "skipped": 0}

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
