import json
import os
import pathlib
import subprocess
import sys

import pytest

import conftest
from conftest import witness_missing_edge, within_seconds
from twlab import kernels
from twlab import reductions as rd
from twlab import solvers as sv
from twlab.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_kpartite_file(self, capsys, tmp_path):
        out = tmp_path / "pg.json"
        code, _, err = run(
            capsys, "gen", "--kind", "kpartite", "-k", "2", "-n", "2",
            "-p", "1.0", "--seed", "3", "-o", str(out),
        )
        assert code == 0
        obj = json.loads(out.read_text())
        assert obj["n"] == 4 and len(obj["parts"]) == 2
        assert "config:" in err

    def test_weighted_file(self, capsys, tmp_path):
        out = tmp_path / "w.json"
        code, *_ = run(
            capsys, "gen", "--kind", "weighted", "-n", "5", "-p", "0.8",
            "--seed", "3", "-o", str(out),
        )
        assert code == 0
        obj = json.loads(out.read_text())
        assert len(obj["weights"]) == len(obj["edges"])

    def test_max_weight_zero_exit_2(self, capsys, tmp_path):
        out = tmp_path / "x.json"
        code, stdout, err = run(
            capsys, "gen", "--kind", "weighted", "-n", "5", "--max-weight", "0", "-o", str(out),
        )
        assert code == 2 and stdout == "" and not out.exists()
        assert err.splitlines()[-1] == "error: max weight must be at least 1, got 0"

    @pytest.mark.parametrize(
        "argv, message",
        [(("--kind", "weighted", "-p", "1.5"), "p must lie in [0, 1]"),
         (("--kind", "weighted", "-p", "-0.1"), "p must lie in [0, 1]"),
         (("--kind", "kpartite", "-p", "1.5"), "p must lie in [0, 1]"),
         (("--kind", "kpartite", "-p", "-0.1"), "p must lie in [0, 1]"),
         (("--kind", "weighted", "-n", "-1"), "vertex count must be non-negative, got -1"),
         (("--kind", "kpartite", "-k", "2", "-n", "-1"), "n must be non-negative, got -1"),
         (("--kind", "kpartite", "-k", "-1", "-n", "2"), "k must be non-negative, got -1")],
        ids=["weighted-p-1.5", "weighted-p-minus", "kpartite-p-1.5", "kpartite-p-minus",
             "weighted-n-minus-1", "kpartite-n-minus-1", "kpartite-k-minus-1"],
    )
    def test_bad_parameter_exit_2(self, capsys, tmp_path, argv, message):
        out = tmp_path / "x.json"
        code, stdout, err = run(capsys, "gen", *argv, "-o", str(out))
        assert code == 2 and stdout == "" and not out.exists()
        assert err.splitlines()[-1] == f"error: {message}"

    def test_same_seed_same_file(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "gen", "--kind", "weighted", "-n", "6", "--seed", "9", "-o", str(a))
        run(capsys, "gen", "--kind", "weighted", "-n", "6", "--seed", "9", "-o", str(b))
        assert a.read_text() == b.read_text()


class TestTw:
    def test_exact_p4(self, capsys, tmp_path):
        f = tmp_path / "p4.json"
        f.write_text('{"n": 4, "edges": [[0,1],[1,2],[2,3]]}')
        code, out, _ = run(capsys, "tw", "--method", "exact", str(f))
        assert code == 0 and out.splitlines()[0] == "1"

    def test_heuristic_writes_decomposition(self, capsys, tmp_path):
        f = tmp_path / "c4.json"
        f.write_text('{"n": 4, "edges": [[0,1],[1,2],[2,3],[0,3]]}')
        td_file = tmp_path / "td.json"
        code, out, _ = run(capsys, "tw", "--method", "minfill", "-o", str(td_file), str(f))
        assert code == 0 and out.splitlines()[0] == "2"
        obj = json.loads(td_file.read_text())
        assert len(obj["bags"]) == obj["nodes"]

    def test_malformed_json_exit_2(self, capsys, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text("{nope")
        code, _, err = run(capsys, "tw", str(f))
        assert code == 2 and "error:" in err

    def test_exact_past_kernel_cap_exit_2(self, capsys, tmp_path):
        # --limit lifts the CLI gate; the kernel's 26-vertex cap still refuses
        f = tmp_path / "p27.json"
        f.write_text(json.dumps({"n": 27, "edges": [[i, i + 1] for i in range(26)]}))
        code, _, err = run(capsys, "tw", "--method", "exact", "--limit", "30", str(f))
        assert code == 2 and "error:" in err and "26 vertices" in err


class TestReduceSolve:
    def test_pc_chosen_round_trip(self, capsys, tmp_path):
        pg = tmp_path / "pg.json"
        run(capsys, "gen", "--kind", "kpartite", "-k", "2", "-n", "1",
            "-p", "1.0", "--seed", "1", "-o", str(pg))
        red = tmp_path / "red.json"
        wit = tmp_path / "wit.json"
        code, out, _ = run(
            capsys, "reduce", "--pipeline", "pc-chosen", str(pg),
            "-o", str(red), "--witness", str(wit),
        )
        assert code == 0 and "claimed width bound 3" in out
        code, out, _ = run(capsys, "solve", "--solver", "bf", str(red))
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "yes"
        assert "admissible orientation (checked: True)" in lines[1]

    def test_reduction_outputs_chain(self, capsys, tmp_path):
        # a reduce output file is read as its instance by reduce, solve and tw
        pg, ch, mm = (tmp_path / f for f in ("pg.json", "ch.json", "mm.json"))
        run(capsys, "gen", "--kind", "kpartite", "-k", "3", "-n", "2", "-p", "0.5",
            "--plant", "--seed", "1", "-o", str(pg))
        assert run(capsys, "reduce", "--pipeline", "pc-chosen", str(pg), "-o", str(ch))[0] == 0
        code, _, err = run(capsys, "reduce", "--pipeline", "chosen-minmax", str(ch), "-o", str(mm))
        assert code == 0, err
        code, out, _ = run(capsys, "solve", "--solver", "dp", str(mm))
        assert code == 0 and out.splitlines()[:2] == [
            "yes", "witness: admissible orientation (checked: True)"
        ]
        code, out, err = run(capsys, "tw", str(ch))
        assert code == 0 and int(out) > 0, err

    def test_solve_dp_with_td_file(self, capsys, tmp_path):
        inst = tmp_path / "inst.json"
        inst.write_text(
            json.dumps(
                {
                    "type": "list_coloring",
                    "n": 3,
                    "edges": [[0, 1], [1, 2]],
                    "lists": [[1], [1, 2], [1]],
                }
            )
        )
        code, out, _ = run(capsys, "solve", "--solver", "dp", str(inst))
        assert code == 0 and out.splitlines()[0] == "yes"

    def test_solve_flow(self, capsys, tmp_path):
        inst = tmp_path / "mm.json"
        inst.write_text(
            json.dumps(
                {
                    "type": "minmax_outdegree",
                    "n": 4,
                    "edges": [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]],
                    "weights": [1, 1, 1, 1, 1, 1],
                    "r": 2,
                }
            )
        )
        code, out, _ = run(capsys, "solve", "--solver", "flow", str(inst))
        assert code == 0
        assert out.splitlines()[0] == "yes"
        assert "minimum max outgoing weight: 2" in out

    def test_solve_flow_witness_out(self, capsys, tmp_path):
        inst = tmp_path / "mm.json"
        inst.write_text(
            json.dumps(
                {
                    "type": "minmax_outdegree",
                    "n": 4,
                    "edges": [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]],
                    "weights": [3, 3, 3, 3, 3, 3],
                    "r": 6,
                }
            )
        )
        wit = tmp_path / "wit.json"
        code, out, _ = run(capsys, "solve", "--solver", "flow", "--witness-out", str(wit), str(inst))
        assert code == 0
        assert out.splitlines() == [
            "yes",
            "minimum max outgoing weight: 6 (instance allows 6)",
            "witness: admissible orientation (checked: True)",
        ]
        obj = json.loads(wit.read_text())
        assert set(obj) == {"n", "edges", "orientation"}
        assert obj["edges"] == [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]
        tails = [t for t, _ in obj["orientation"]]
        assert max(tails.count(v) for v in range(4)) == 2
        # below the minimum there is no witness to write
        inst.write_text(inst.read_text().replace('"r": 6', '"r": 5'))
        wit.unlink()
        code, out, _ = run(capsys, "solve", "--solver", "flow", "--witness-out", str(wit), str(inst))
        assert code == 0 and out.splitlines()[0] == "no" and not wit.exists()

    @pytest.mark.parametrize(
        "obj, message",
        [
            (
                {"type": "list_coloring", "n": 2, "edges": [[0, 1]], "lists": [[1], [2]]},
                "flow expects a minmax_outdegree instance",
            ),
            (
                {"type": "minmax_outdegree", "n": 3, "edges": [[0, 1], [1, 2]],
                 "weights": [1, 2], "r": 2},
                "flow requires a uniform weighting",
            ),
        ],
    )
    def test_solve_flow_rejects_exit_2(self, capsys, tmp_path, obj, message):
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps(obj))
        code, out, err = run(capsys, "solve", "--solver", "flow", str(inst))
        assert code == 2 and out == "" and f"error: {message}" in err

    def test_solve_equitable_and_general_factor(self, capsys, tmp_path):
        eq = tmp_path / "eq.json"
        eq.write_text(
            json.dumps({"type": "equitable", "n": 4, "edges": [[0, 1], [0, 2], [0, 3]], "r": 2})
        )
        code, out, _ = run(capsys, "solve", "--solver", "bf", str(eq))
        assert code == 0 and out.splitlines()[0] == "no"
        gf = tmp_path / "gf.json"
        gf.write_text(
            json.dumps(
                {
                    "type": "general_factor",
                    "n": 4,
                    "edges": [[0, 1], [1, 2], [2, 3], [0, 3]],
                    "cardinality_sets": [[1], [1], [1], [1]],
                }
            )
        )
        code, out, _ = run(capsys, "solve", "--solver", "bf", str(gf))
        assert code == 0 and out.splitlines()[0] == "yes"
        assert "edge subset of size 2 (checked: True)" in out

    def test_witness_out_file(self, capsys, tmp_path):
        inst = tmp_path / "inst.json"
        inst.write_text(
            json.dumps(
                {
                    "type": "chosen_outdegree",
                    "n": 2,
                    "edges": [[0, 1]],
                    "weights": [1],
                    "rho": [1, 0],
                }
            )
        )
        wout = tmp_path / "wit.json"
        code, out, _ = run(capsys, "solve", "--solver", "bf", "--witness-out", str(wout), str(inst))
        assert code == 0 and out.splitlines()[0] == "yes"
        obj = json.loads(wout.read_text())
        assert obj["orientation"] == [[0, 1]]

    def test_clique_gensat_requires_k(self, capsys, tmp_path):
        g = tmp_path / "g.json"
        g.write_text('{"n": 3, "edges": [[0,1],[0,2],[1,2]]}')
        code, _, err = run(capsys, "reduce", "--pipeline", "clique-gensat",
                           str(g), "-o", str(tmp_path / "o.json"))
        assert code == 2 and "requires -k" in err


    def test_solve_dp_on_gensat_exit_2(self, capsys, tmp_path):
        g = tmp_path / "g.json"
        g.write_text('{"n": 3, "edges": [[0,1],[0,2],[1,2]]}')
        gs = tmp_path / "gs.json"
        run(capsys, "reduce", "--pipeline", "clique-gensat", "-k", "2", str(g), "-o", str(gs))
        td = tmp_path / "td.json"
        run(capsys, "tw", "-o", str(td), str(g))
        for extra in ([], ["--td", str(td)]):
            code, out, err = run(capsys, "solve", "--solver", "dp", *extra, str(gs))
            assert code == 2 and out == ""
            assert "error: no DP solver for GensatInstance" in err


HUGE = 10**18
FLOAT_CAP = {"type": "chosen_outdegree", "n": 2, "edges": [[0, 1]], "weights": [1],
             "rho": [0, 1.5]}


class TestMalformedInput:
    """Wrong-shaped JSON exits 2 with an error line, not a traceback."""

    @pytest.mark.parametrize(
        "command, content",
        [
            ("solve", 5),
            ("solve", "instance"),
            ("solve", {"type": "precoloring", "n": 2, "edges": [], "precolor": [[0, 1, 9]],
                       "r": 2}),
            ("solve", {"type": "gensat", "variables": 2,
                       "relations": [{"arity": 2, "tuples": [[0, 1]]}],
                       "constraints": [{"scope": [0, 1], "relation": -1}]}),
            ("solve", {"type": ["list_coloring"]}),
            ("tw", {"n": 3, "edges": [[0, 1, 2]]}),
            ("tw", [1, 2]),
            ("solve", {"type": "equitable", "n": 3, "edges": [], "r": True}),
            ("solve", {"type": "equitable", "n": True, "edges": [], "r": 2}),
            ("solve", {"type": "minmax_outdegree", "n": 2, "edges": [[0, 1]],
                       "weights": [True], "r": 1}),
            ("tw", {"n": 2, "edges": [[False, True]]}),
            ("solve", FLOAT_CAP),
            ("solve", {"type": "equitable", "n": 3, "edges": [], "r": 1.5}),
            ("solve", {"type": "precoloring", "n": 3, "edges": [], "precolor": [], "r": 2.5}),
            ("solve", {"type": "gensat", "variables": 2.5, "relations": [], "constraints": []}),
            ("solve", {"type": "precoloring", "n": 3, "edges": [], "precolor": [[0, 1.5]],
                       "r": 2}),
            ("solve", {"type": "precoloring", "n": 3, "edges": [], "precolor": [[0.5, 1]],
                       "r": 2}),
            ("solve", {"type": "general_factor", "n": 2, "edges": [[0, 1]],
                       "cardinality_sets": [[0.5], [1]]}),
            ("solve", {"type": "minmax_outdegree", "n": 2, "edges": [[0, 1]], "weights": [1],
                       "r": 1.5}),
            ("solve", {"type": "gensat", "variables": 1,
                       "relations": [{"arity": 1, "tuples": [[1.0]]}],
                       "constraints": [{"scope": [0], "relation": 0}]}),
            ("solve", {"type": "gensat", "variables": 1,
                       "relations": [{"arity": 1, "tuples": [[1]]}],
                       "constraints": [{"scope": [0.5], "relation": 0}]}),
            ("solve", {"type": "equitable", "n": 3, "edges": [], "r": HUGE}),
            ("solve", {"type": "equitable", "n": HUGE, "edges": [], "r": 2}),
            ("solve", {"type": "precoloring", "n": 3, "edges": [], "precolor": [], "r": HUGE}),
            ("solve", {"type": "gensat", "variables": HUGE, "relations": [], "constraints": []}),
            ("solve", {"type": "gensat", "variables": 1,
                       "relations": [{"arity": HUGE, "tuples": []}], "constraints": []}),
            ("tw", {"n": HUGE, "edges": []}),
        ],
        ids=["number", "string", "precolor-triple", "relation-minus-1", "list-tag",
             "edge-triple", "graph-list", "bool-r", "bool-n", "bool-weight", "bool-edge",
             "float-rho", "float-equitable-r", "float-precoloring-r", "float-variables",
             "float-precolor-colour", "float-precolor-vertex", "float-cardinality",
             "float-minmax-r", "float-tuple-entry", "float-scope-variable",
             "ceiling-equitable-r", "ceiling-equitable-n", "ceiling-precoloring-r",
             "ceiling-gensat-variables", "ceiling-gensat-arity", "ceiling-tw-n"],
    )
    def test_exit_2(self, capsys, tmp_path, command, content):
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(content))
        extra = ["--solver", "bf"] if command == "solve" else []
        with within_seconds(5, f"{command} on {content}"):
            code, out, err = run(capsys, command, *extra, str(f))
        assert code == 2 and out == ""
        assert err.splitlines()[-1].startswith("error: ")

    def test_vertex_precolored_twice_exit_2(self, capsys, tmp_path):
        f = tmp_path / "twice.json"
        f.write_text(json.dumps({"type": "precoloring", "n": 2, "edges": [],
                                 "precolor": [[0, 1], [0, 2]], "r": 2}))
        code, out, err = run(capsys, "solve", "--solver", "bf", str(f))
        assert code == 2 and out == ""
        assert err.splitlines()[-1] == "error: vertex 0 is precolored more than once"

    @pytest.mark.parametrize(
        "argv, content, message",
        [
            (["solve", "--solver", "dp"], {"type": "list_coloring", "n": HUGE, "edges": [], "lists": []},
             f"vertex count {HUGE} exceeds the ceiling 100000"),
            (["solve", "--solver", "dp"], {"type": "minmax_outdegree", "n": 2, "edges": [[0, 1]],
                                           "weights": [1], "r": HUGE},
             f"r {HUGE} exceeds the ceiling 1000000"),
            (["solve", "--solver", "flow"], {"type": "minmax_outdegree", "n": HUGE, "edges": [],
                                             "weights": [], "r": 1},
             f"vertex count {HUGE} exceeds the ceiling 100000"),
            (["solve", "--solver", "flow"], {"type": "minmax_outdegree", "n": 2, "edges": [[0, 1]],
                                             "weights": [1], "r": HUGE},
             f"r {HUGE} exceeds the ceiling 1000000"),
            (["reduce", "--pipeline", "pc-chosen", "-o", "{tmp}/out.json"],
             {"n": HUGE, "edges": [], "parts": [[0], [1]]},
             f"vertex count {HUGE} exceeds the ceiling 100000"),
            (["reduce", "--pipeline", "pc-minmax", "-o", "{tmp}/out.json"],
             {"n": HUGE, "edges": [], "parts": [[0], [1]]},
             f"vertex count {HUGE} exceeds the ceiling 100000"),
            # gen takes the file as its -o: past a ceiling nothing is drawn or written
            (["gen", "--kind", "kpartite", "-k", str(HUGE), "-n", "0", "-o"], {},
             f"part count {HUGE} exceeds the ceiling 100000"),
            (["gen", "--kind", "kpartite", "-k", "2", "-n", str(HUGE), "-o"], {},
             f"vertex count {2 * HUGE} exceeds the ceiling 100000"),
            (["gen", "--kind", "kpartite", "-k", "100", "-n", "1000", "-o"], {},
             "pair count 4950000000 exceeds the ceiling 10000000"),
            (["gen", "--kind", "weighted", "-n", "1000000000", "-p", "0", "-o"], {},
             "vertex count 1000000000 exceeds the ceiling 100000"),
            (["gen", "--kind", "weighted", "-n", "100000", "-p", "0", "-o"], {},
             "pair count 4999950000 exceeds the ceiling 10000000"),
        ],
        ids=["dp-n", "dp-minmax-r", "flow-n", "flow-r", "reduce-pc-chosen-n", "reduce-pc-minmax-n",
             "gen-kpartite-k", "gen-kpartite-n", "gen-kpartite-pairs", "gen-weighted-n",
             "gen-weighted-pairs"],
    )
    def test_past_a_ceiling_exit_2(self, capsys, tmp_path, argv, content, message):
        f = tmp_path / "huge.json"
        f.write_text(json.dumps(content))
        argv = [a.format(tmp=tmp_path) for a in argv]
        with within_seconds(5, f"{' '.join(argv[:3])} past a ceiling"):
            code, out, err = run(capsys, *argv, str(f))
        assert code == 2 and out == ""
        assert err.splitlines()[-1] == f"error: {message}"

    def test_td_past_the_vertex_ceiling_exit_2(self, capsys, tmp_path):
        inst, td = tmp_path / "lc.json", tmp_path / "td.json"
        inst.write_text(json.dumps({"type": "list_coloring", "n": 1, "edges": [], "lists": [[1]]}))
        td.write_text(json.dumps({"nodes": HUGE, "tree_edges": [], "bags": []}))
        with within_seconds(5, "solve --td with a 10^18-node tree"):
            code, out, err = run(capsys, "solve", "--solver", "dp", "--td", str(td), str(inst))
        assert code == 2 and out == ""
        assert err.splitlines()[-1] == f"error: tree node count {HUGE} exceeds the ceiling 100000"

    @staticmethod
    def gensat_files(capsys, tmp_path):
        """A clique-gensat reduction output and its bare instance."""
        g8, gs8 = tmp_path / "g8.json", tmp_path / "gs8.json"
        run(capsys, "gen", "--kind", "weighted", "-n", "8", "-p", "0.6", "--seed", "1", "-o", str(g8))
        code, *_ = run(capsys, "reduce", "--pipeline", "clique-gensat", "-k", "4", str(g8), "-o", str(gs8))
        assert code == 0
        bare = tmp_path / "gs.json"
        bare.write_text(json.dumps(json.loads(gs8.read_text())["instance"]))
        return gs8, bare

    def test_tw_on_gensat_names_the_type(self, capsys, tmp_path):
        for f in self.gensat_files(capsys, tmp_path):
            code, out, err = run(capsys, "tw", str(f))
            assert code == 2 and out == ""
            assert err.splitlines()[-1].startswith("error: a gensat instance has no graph of its own")

    def test_clique_gensat_on_its_own_output_names_the_type(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        for f in self.gensat_files(capsys, tmp_path):
            code, out, err = run(capsys, "reduce", "--pipeline", "clique-gensat", "-k", "3", str(f),
                                 "-o", str(bad))
            assert code == 2 and out == "" and not bad.exists()
            assert err.splitlines()[-1].startswith("error: a gensat instance has no graph of its own")

    def test_float_cap_dp_exit_2(self, capsys, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(FLOAT_CAP))
        code, out, err = run(capsys, "solve", "--solver", "dp", str(f))
        assert code == 2 and out == ""
        assert err.splitlines()[-1] == "error: cap must be an integer, got 1.5"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["solve", "--solver", "flow"], "flow expects a minmax_outdegree instance"),
            (["solve", "--solver", "dp"], "no DP solver for EquitableColoringInstance"),
            (["reduce", "--pipeline", "lc-pce", "-o", "{tmp}/out.json"],
             "lc-pce expects a list_coloring instance file"),
        ],
        ids=["flow", "dp", "reduce-lc-pce"],
    )
    def test_refused_kind_is_never_decoded(self, capsys, tmp_path, argv, message):
        # decoding this file would allocate a set per vertex for 10^18 vertices
        f = tmp_path / "huge.json"
        f.write_text(json.dumps({"type": "equitable", "n": 10**18, "edges": [], "r": 2}))
        argv = [a.format(tmp=tmp_path) for a in argv]
        with within_seconds(5, f"{' '.join(argv[:3])} on an equitable file with n = 10^18"):
            code, out, err = run(capsys, *argv, str(f))
        assert code == 2 and out == ""
        assert err.splitlines()[-1] == f"error: {message}"

    def test_negative_relation_index_named(self, capsys, tmp_path):
        f = tmp_path / "gs.json"
        f.write_text(json.dumps({"type": "gensat", "variables": 1,
                                 "relations": [{"arity": 1, "tuples": [[1]]}],
                                 "constraints": [{"scope": [0], "relation": -1}]}))
        code, _, err = run(capsys, "solve", "--solver", "bf", str(f))
        assert code == 2 and "relation index -1 outside 0..0" in err


class TestVerify:
    def test_chosen_minmax_passes(self, capsys, tmp_path):
        rep = tmp_path / "rep.json"
        code, out, _ = run(
            capsys, "verify", "--pipeline", "chosen-minmax", "-n", "5",
            "--cases", "10", "--seed", "1", "--report", str(rep),
        )
        assert code == 0 and "10/10 agree" in out
        assert json.loads(rep.read_text())["summary"]["pass"] is True

    def test_summary_reports_source_balance(self, capsys, tmp_path):
        rep = tmp_path / "rep.json"
        code, out, _ = run(
            capsys, "verify", "--pipeline", "chosen-minmax", "--cases", "100",
            "--seed", "1", "--report", str(rep),
        )
        assert code == 0
        assert out.strip().endswith(", pass, sources yes/no 92/8")
        summary = json.loads(rep.read_text())["summary"]
        assert (summary["yes_source"], summary["no_source"]) == (92, 8)

    def test_csv_report(self, capsys, tmp_path):
        rep = tmp_path / "rep.csv"
        code, _, _ = run(
            capsys, "verify", "--pipeline", "pc-lc", "-k", "3", "-n", "2",
            "--cases", "5", "--seed", "2", "--report", str(rep),
        )
        assert code == 0
        assert len(rep.read_text().splitlines()) == 6

    def test_guard_violation_exit_2(self, capsys):
        code, _, err = run(
            capsys, "verify", "--pipeline", "pc-chosen", "-k", "4", "-n", "3",
            "--cases", "1",
        )
        assert code == 2 and "guarded" in err

    @pytest.mark.parametrize(
        "flag, value, message",
        [("--max-weight", "0", "max weight must be at least 1, got 0"),
         ("--rho-max", "-1", "largest cap must be non-negative, got -1")],
        ids=["max-weight-0", "rho-max-minus-1"],
    )
    def test_bad_generator_parameter_exit_2(self, capsys, flag, value, message):
        code, out, err = run(
            capsys, "verify", "--pipeline", "chosen-minmax", "-n", "3", flag, value,
            "--cases", "1",
        )
        assert code == 2 and out == ""
        assert err.splitlines()[-1] == f"error: {message}"

    def test_negative_part_size_named(self, capsys):
        code, out, err = run(
            capsys, "verify", "--pipeline", "pc-lc", "-k", "2", "-n", "-1", "--cases", "1",
        )
        assert code == 2 and out == ""
        assert err.splitlines()[-1] == "error: n must be non-negative, got -1"

    def test_unknown_flag_exit_2(self, capsys):
        code, *_ = run(capsys, "verify", "--pipeline", "pc-lc", "--bogus")
        assert code == 2


class TestCertification:
    """A reduction whose witness misses an edge fails certification: verify
    records bound_ok false and exits 1, reduce exits 1 and writes nothing,
    with no traceback, and the same under python -O (no assert involved)."""

    VERIFY = ("verify", "--pipeline", "pc-lc", "-k", "2", "-n", "2", "--cases", "3", "--seed", "1")

    @pytest.fixture
    def broken(self, monkeypatch):
        monkeypatch.setattr(rd, "pc_to_list_coloring", witness_missing_edge(rd.pc_to_list_coloring))

    def test_verify_fails_the_case(self, capsys, tmp_path, broken):
        report = tmp_path / "r.json"
        code, out, _ = run(capsys, *self.VERIFY, "--report", str(report))
        assert code == 1 and "3/3 agree" in out and "FAIL" in out
        rep = json.loads(report.read_text())
        assert [r["bound_ok"] for r in rep["records"]] == [False] * 3
        assert rep["summary"]["pass"] is False

    def test_reduce_writes_nothing(self, capsys, tmp_path, broken):
        src = tmp_path / "pg.json"
        src.write_text(json.dumps(REDUCE_PINS["pc-lc"][0]))
        red = tmp_path / "red.json"
        code, out, err = run(capsys, "reduce", "--pipeline", "pc-lc", "-o", str(red), str(src))
        assert code == 1 and out == "" and not red.exists()
        assert err.splitlines()[-1] == (
            "error: the reduction's witness fails certification: "
            "witness: edge (0,2) is contained in no bag"
        )

    def test_optimized_interpreter(self, tmp_path):
        src = tmp_path / "pg.json"
        src.write_text(json.dumps(REDUCE_PINS["pc-lc"][0]))
        red = tmp_path / "red.json"
        script = (
            "import sys, conftest; from twlab import reductions as rd; from twlab.cli import main; "
            "rd.pc_to_list_coloring = conftest.witness_missing_edge(rd.pc_to_list_coloring); "
            "sys.exit(main(sys.argv[1:]))"
        )
        paths = [pathlib.Path(rd.__file__).parents[1], pathlib.Path(__file__).parent]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(map(str, paths))}
        verify, reduce = (
            subprocess.run(
                [sys.executable, "-O", "-c", script, *argv], capture_output=True, text=True, env=env
            )
            for argv in (self.VERIFY, ("reduce", "--pipeline", "pc-lc", "-o", str(red), str(src)))
        )
        for proc in (verify, reduce):
            assert proc.returncode == 1 and "Traceback" not in proc.stderr, proc.stderr
        assert "FAIL" in verify.stdout and "fails certification" in reduce.stderr
        assert not red.exists()


class TestWitnessCheck:
    """A yes-witness that fails its check fails the case or the solve:
    verify records witness_ok_<solver> false, pass false and exits 1, and
    solve prints checked: False and exits 1, with no traceback, and the
    same under python -O (the check is no assert)."""

    LC_VERIFY = ("verify", "--pipeline", "pc-lc", "-k", "3", "-n", "3", "--cases", "20", "--seed", "1")
    DP_VERIFY = ("verify", "--pipeline", "pc-chosen", "--solver", "dp",
                 "-k", "2", "-n", "3", "--cases", "5", "--seed", "1")
    # (module, attribute, conftest wrapper): one mutant per solver family
    COLORING = (kernels, "list_color_search", "adjacency_ignored")
    ORIENTATION = (sv, "dp_chosen_outdegree", "first_edge_reversed")

    @staticmethod
    def patch(monkeypatch, mutant):
        module, name, wrapper = mutant
        monkeypatch.setattr(module, name, getattr(conftest, wrapper)(getattr(module, name)))

    @staticmethod
    def witness_checks(report, solver):
        rep = json.loads(report.read_text())
        assert rep["summary"]["pass"] is False
        return [r["checks"][f"witness_ok_{solver}"] for r in rep["records"] if r["target_answer"] == "yes"]

    def test_verify_records_an_improper_coloring(self, capsys, tmp_path, monkeypatch):
        self.patch(monkeypatch, self.COLORING)
        report = tmp_path / "r.json"
        code, out, _ = run(capsys, *self.LC_VERIFY, "--report", str(report))
        assert code == 1 and "FAIL" in out
        assert self.witness_checks(report, "bf") == [False] * 20

    def test_verify_records_an_inadmissible_orientation(self, capsys, tmp_path, monkeypatch):
        self.patch(monkeypatch, self.ORIENTATION)
        report = tmp_path / "r.json"
        code, out, _ = run(capsys, *self.DP_VERIFY, "--report", str(report))
        assert code == 1 and "5/5 agree" in out and "FAIL" in out
        assert self.witness_checks(report, "dp") == [False] * 5

    def test_solve_exits_1_and_writes_no_witness(self, capsys, tmp_path, monkeypatch):
        self.patch(monkeypatch, self.COLORING)
        f = tmp_path / "inst.json"
        f.write_text(json.dumps(SOLVE_PINS["list_coloring"][0]))
        wout = tmp_path / "wit.json"
        code, out, _ = run(capsys, "solve", "--solver", "bf", "--witness-out", str(wout), str(f))
        assert code == 1 and not wout.exists()
        assert out.splitlines() == ["yes", "witness: proper coloring of 3 vertices (checked: False)"]

    def test_optimized_interpreter(self, tmp_path):
        f = tmp_path / "inst.json"
        f.write_text(json.dumps(SOLVE_PINS["list_coloring"][0]))
        paths = [pathlib.Path(rd.__file__).parents[1], pathlib.Path(__file__).parent]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(map(str, paths))}
        runs = {
            "bf": (self.COLORING, (*self.LC_VERIFY, "--report", str(tmp_path / "bf.json"))),
            "dp": (self.ORIENTATION, (*self.DP_VERIFY, "--report", str(tmp_path / "dp.json"))),
            "solve": (self.COLORING, ("solve", "--solver", "bf", str(f))),
        }
        procs = {}
        for name, ((module, attr, wrapper), argv) in runs.items():
            script = (
                f"import sys, conftest; from twlab import {module.__name__.split('.')[-1]} as m; "
                f"from twlab.cli import main; m.{attr} = conftest.{wrapper}(m.{attr}); "
                "sys.exit(main(sys.argv[1:]))"
            )
            procs[name] = subprocess.run(
                [sys.executable, "-O", "-c", script, *argv], capture_output=True, text=True, env=env
            )
        for proc in procs.values():
            assert proc.returncode == 1 and "Traceback" not in proc.stderr, proc.stderr
        assert "FAIL" in procs["bf"].stdout and "FAIL" in procs["dp"].stdout
        assert self.witness_checks(tmp_path / "bf.json", "bf") == [False] * 20
        assert self.witness_checks(tmp_path / "dp.json", "dp") == [False] * 5
        assert "(checked: False)" in procs["solve"].stdout


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "twlab", "verify", "--pipeline", "chosen-minmax",
             "-n", "4", "--cases", "3", "--seed", "7"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "3/3 agree" in proc.stdout


GOLDEN = pathlib.Path(__file__).parent / "golden"

# one yes-instance of each problem kind, the summary line `solve --solver bf`
# prints for it, and the witness file it writes
SOLVE_PINS = {
    "list_coloring": (
        {"type": "list_coloring", "n": 3, "edges": [[0, 1], [1, 2]], "lists": [[1], [1, 2], [1]]},
        "witness: proper coloring of 3 vertices (checked: True)",
        {"coloring": [1, 2, 1]},
    ),
    "precoloring": (
        {"type": "precoloring", "n": 4, "edges": [[0, 1], [1, 2], [2, 3], [0, 3]],
         "precolor": [[2, 2]], "r": 2},
        "witness: proper coloring of 4 vertices (checked: True)",
        {"coloring": [2, 1, 2, 1]},
    ),
    "equitable": (
        {"type": "equitable", "n": 5, "edges": [[0, 1], [1, 2], [2, 3], [3, 4]], "r": 2},
        "witness: proper coloring of 5 vertices (checked: True)",
        {"coloring": [1, 2, 1, 2, 1]},
    ),
    "general_factor": (
        {"type": "general_factor", "n": 4, "edges": [[0, 1], [1, 2], [2, 3], [0, 3]],
         "cardinality_sets": [[1], [1], [1], [1]]},
        "witness: edge subset of size 2 (checked: True)",
        {"edges": [[0, 3], [1, 2]]},
    ),
    "gensat": (
        {"type": "gensat", "variables": 3,
         "relations": [{"arity": 2, "tuples": [[0, 1], [1, 0]]}],
         "constraints": [{"scope": [0, 1], "relation": 0}, {"scope": [1, 2], "relation": 0}]},
        "witness: satisfying assignment (checked: True)",
        {"assignment": [0, 1, 0]},
    ),
    "chosen_outdegree": (
        {"type": "chosen_outdegree", "n": 3, "edges": [[0, 1], [1, 2]], "weights": [2, 1],
         "rho": [2, 0, 1]},
        "witness: admissible orientation (checked: True)",
        {"n": 3, "edges": [[0, 1], [1, 2]], "orientation": [[0, 1], [2, 1]]},
    ),
    "minmax_outdegree": (
        {"type": "minmax_outdegree", "n": 4, "edges": [[0, 1], [1, 2], [2, 3], [0, 3]],
         "weights": [1, 2, 1, 2], "r": 2},
        "witness: admissible orientation (checked: True)",
        {"n": 4, "edges": [[0, 1], [0, 3], [1, 2], [2, 3]],
         "orientation": [[1, 0], [0, 3], [1, 2], [2, 3]]},
    ),
}

# `reduce` input, extra flags and claimed bound per pipeline; the output file
# must equal tests/golden/reduce-<pipeline>.json byte for byte
REDUCE_PINS = {
    "pc-lc": ({"n": 4, "edges": [[0, 2], [1, 3]], "parts": [[0, 1], [2, 3]]}, [], 3),
    "lc-pce": (SOLVE_PINS["list_coloring"][0] | {"lists": [[1], [1, 2], [2, 3]]}, [], 1),
    "clique-gensat": ({"n": 3, "edges": [[0, 1], [0, 2], [1, 2]]}, ["-k", "3"], 2),
    "pc-chosen": ({"n": 2, "edges": [[0, 1]], "parts": [[0], [1]]}, [], 3),
    "chosen-minmax": (SOLVE_PINS["chosen_outdegree"][0], [], 2),
    "pc-minmax": ({"n": 2, "edges": [[0, 1]], "parts": [[0], [1]]}, [], 3),
}


class TestPinnedOutputs:
    @pytest.mark.parametrize("kind", sorted(SOLVE_PINS))
    def test_solve_bf_summary_and_witness(self, capsys, tmp_path, kind):
        instance, summary, witness = SOLVE_PINS[kind]
        f = tmp_path / "inst.json"
        f.write_text(json.dumps(instance))
        wout = tmp_path / "wit.json"
        code, out, _ = run(capsys, "solve", "--solver", "bf", "--witness-out", str(wout), str(f))
        assert code == 0
        assert out.splitlines() == ["yes", summary]
        assert json.loads(wout.read_text()) == witness

    @pytest.mark.parametrize("pipeline", sorted(REDUCE_PINS))
    def test_reduce_matches_golden(self, capsys, tmp_path, pipeline):
        source, extra, bound = REDUCE_PINS[pipeline]
        f = tmp_path / "source.json"
        f.write_text(json.dumps(source))
        red = tmp_path / "red.json"
        code, out, _ = run(capsys, "reduce", "--pipeline", pipeline, *extra, "-o", str(red), str(f))
        assert code == 0
        assert out == f"wrote {red} (claimed width bound {bound})\n"
        assert red.read_text() == (GOLDEN / f"reduce-{pipeline}.json").read_text()
