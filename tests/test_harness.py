import json

import pytest

from conftest import within_seconds
from twlab.errors import GuardError, InputError
from twlab.harness import (
    CSV_COLUMNS,
    ExperimentConfig,
    VerificationReport,
    emit_report,
    gen_list_instance,
    gen_partitioned,
    gen_rho,
    gen_weighted,
    mix,
    report_to_json,
    solve_dp,
    strip_timings,
    verify_reduction,
)


class TestGenerators:
    def test_full_density_is_complete_multipartite(self):
        pg = gen_partitioned(3, 2, 1.0, False, 1)
        assert len(pg.graph.edges) == 3 * 4  # all cross pairs

    def test_zero_density_edgeless(self):
        assert gen_partitioned(3, 2, 0.0, False, 1).graph.edges == ()

    def test_planted_only_edges_form_one_clique(self):
        pg = gen_partitioned(3, 2, 0.0, True, 5)
        assert len(pg.graph.edges) == 3  # exactly C(3,2)

    def test_determinism(self):
        assert gen_partitioned(3, 3, 0.4, True, 9) == gen_partitioned(3, 3, 0.4, True, 9)
        assert gen_weighted(6, 0.5, 4, 77) == gen_weighted(6, 0.5, 4, 77)
        assert gen_rho(5, 6, 3) == gen_rho(5, 6, 3)
        assert gen_list_instance(6, 4, 0.5, 8) == gen_list_instance(6, 4, 0.5, 8)

    def test_weight_bounds(self):
        _, w = gen_weighted(8, 0.9, 1, 4)
        assert set(w) <= {1}

    def test_bad_bounds_are_input_errors(self):
        with pytest.raises(InputError, match="max weight"):
            gen_weighted(5, 0.5, 0, 1)
        with pytest.raises(InputError, match="largest cap"):
            gen_rho(5, -1, 1)
        assert gen_rho(3, 0, 1) == (0, 0, 0)

    def test_mix_is_stable(self):
        assert mix(0, 0) == mix(0, 0)
        assert mix(0, 0) != mix(0, 1) != mix(1, 1)


class TestConfig:
    def test_unknown_pipeline(self):
        with pytest.raises(InputError):
            ExperimentConfig(pipeline="nope")

    def test_dp_refused_where_unsupported(self):
        with pytest.raises(InputError):
            ExperimentConfig(pipeline="lc-pce", solver="dp")

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_must_be_positive(self, jobs):
        with pytest.raises(InputError):
            ExperimentConfig(pipeline="pc-lc", jobs=jobs)

    def test_guards(self):
        cfg = ExperimentConfig(pipeline="pc-chosen", k=3, n=3, cases=1)
        cfg.check_guards()
        with pytest.raises(GuardError):
            ExperimentConfig(pipeline="pc-chosen", k=4, n=3, cases=1).check_guards()

    def test_unsafe_lifts_the_guard(self):
        ExperimentConfig(pipeline="pc-chosen", k=4, n=3, cases=1, unsafe=True).check_guards()


class TestVerify:
    def test_pc_lc_complete_always_agrees(self):
        rep = verify_reduction(
            ExperimentConfig(pipeline="pc-lc", k=3, n=2, p=1.0, cases=10, seed=1)
        )
        assert rep.summary == {
            "total": 10,
            "agreements": 10,
            "disagreements": 0,
            "max_width_seen": rep.summary["max_width_seen"],
            "yes_source": 10,
            "no_source": 0,
            "pass": True,
        }

    @pytest.mark.parametrize(
        "pipeline,kwargs",
        [
            ("pc-lc", dict(k=3, n=2, p=0.5)),
            ("lc-pce", dict(k=4, n=6, p=0.4)),
            ("clique-gensat", dict(k=3, n=5, p=0.5)),
            ("pc-chosen", dict(k=2, n=2, p=0.5)),
            ("chosen-minmax", dict(n=5, p=0.5)),
            ("pc-minmax", dict(k=2, n=2, p=0.5)),
        ],
    )
    def test_each_pipeline_passes(self, pipeline, kwargs):
        rep = verify_reduction(
            ExperimentConfig(pipeline=pipeline, cases=8, seed=3, **kwargs)
        )
        assert rep.summary["pass"], rep.records

    def test_planted_sources_always_yes(self):
        rep = verify_reduction(
            ExperimentConfig(pipeline="pc-chosen", k=2, n=3, p=0.2, plant=True, cases=10, seed=8)
        )
        assert all(r["source_answer"] == "yes" for r in rep.records)

    def test_solver_both_records_dp_answer(self):
        rep = verify_reduction(
            ExperimentConfig(pipeline="pc-chosen", k=2, n=2, cases=5, seed=2, solver="both")
        )
        assert all("dp_answer" in r for r in rep.records)
        assert all(r["dp_answer"] == r["target_answer"] for r in rep.records)

    def test_pc_chosen_records_clique_checks(self):
        rep = verify_reduction(
            ExperimentConfig(pipeline="pc-chosen", k=2, n=2, p=0.9, cases=6, seed=4)
        )
        yes_records = [r for r in rep.records if r["target_answer"] == "yes"]
        assert yes_records
        assert all(r["checks"]["clique_ok_bf"] for r in yes_records)
        assert all(
            r["checks"]["constructive_ok"]
            for r in yes_records
            if r["source_answer"] == "yes"
        )

    def test_determinism_modulo_timings(self):
        cfg = ExperimentConfig(pipeline="chosen-minmax", n=5, cases=10, seed=123)
        a = strip_timings(report_to_json(verify_reduction(cfg)))
        b = strip_timings(report_to_json(verify_reduction(cfg)))
        assert a == b

    def test_parallel_matches_serial(self):
        base = ExperimentConfig(pipeline="pc-lc", k=3, n=2, p=0.5, cases=8, seed=5)
        par = ExperimentConfig(pipeline="pc-lc", k=3, n=2, p=0.5, cases=8, seed=5, jobs=2)
        a = strip_timings(report_to_json(verify_reduction(base)))
        b = strip_timings(report_to_json(verify_reduction(par)))
        assert a["records"] == b["records"] and a["summary"] == b["summary"]

    @pytest.mark.parametrize("jobs,cases,cpus,workers", [
        (5000, 2, 4, 2),  # never more workers than cases
        (5000, 10, 4, 4),  # nor than CPUs
        (3, 10, 4, 3),
        (5000, 10, 1, None),  # one worker: no pool at all
    ])
    def test_jobs_clamped(self, monkeypatch, jobs, cases, cpus, workers):
        import twlab.harness as hn

        started = []

        class FakePool:
            """Records max_workers and runs the cases in this process."""

            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(hn, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(hn.os, "cpu_count", lambda: cpus)
        rep = verify_reduction(
            ExperimentConfig(pipeline="chosen-minmax", n=4, cases=cases, seed=3, jobs=jobs)
        )
        assert started == ([] if workers is None else [workers])
        assert rep.summary["total"] == cases

    def test_pc_chosen_k3_n3_dp_within_budget(self):
        """The largest guarded pc-chosen setting finishes under the DP and
        agrees with brute force."""
        with within_seconds(30, "pc-chosen k=3 n=3 with solver=both"):
            rep = verify_reduction(
                ExperimentConfig(pipeline="pc-chosen", k=3, n=3, cases=6, seed=1, solver="both")
            )
        assert rep.summary["agreements"] == 6 and rep.summary["pass"]

    def test_pc_lc_k4_n6_bf_within_budget(self):
        """pc-lc k=4 n=6 is inside the guard, so the brute-force sweep must
        finish; at p=0.3 it must also test both the yes and the no side."""
        reps = {}
        with within_seconds(10, "pc-lc k=4 n=6 with solver=bf"):
            for p in (0.5, 0.3):
                reps[p] = verify_reduction(
                    ExperimentConfig(pipeline="pc-lc", k=4, n=6, p=p, cases=50, seed=1)
                )
        assert all(rep.summary["pass"] for rep in reps.values())
        assert reps[0.3].summary["yes_source"] > 0 and reps[0.3].summary["no_source"] > 0

    def test_guard_violation_refused(self):
        with pytest.raises(GuardError):
            verify_reduction(ExperimentConfig(pipeline="pc-chosen", k=4, n=3, cases=1))

    def test_disagreement_is_recorded_with_replay(self, monkeypatch):
        import twlab.harness as hn
        from twlab.problems import bf_list_coloring, instance_from_json

        monkeypatch.setattr(hn, "solve_bf", lambda inst: None)  # lie about the target
        rep = verify_reduction(
            ExperimentConfig(pipeline="pc-lc", k=2, n=1, p=1.0, cases=2, seed=1)
        )
        assert rep.summary["disagreements"] == 2
        assert rep.summary["pass"] is False
        for r in rep.records:
            assert not r["agree"]
            # the serialized pair can be re-parsed and re-solved standalone
            inst = instance_from_json(r["replay"]["target"])
            assert bf_list_coloring(inst) is not None  # true verdict: yes
            assert r["replay"]["source"]["parts"]

    def test_broken_pick_cap_is_a_failed_read_back(self, monkeypatch):
        """A gadget whose pick vertices may each pick two members (their cap
        raised from 1 to 2) is admissible where it should not be; reading a
        clique back from such an orientation gives clique_ok false, not an
        exception, and the sweep fails."""
        import dataclasses

        import twlab.reductions as rd
        from twlab.problems import ChosenOutdegreeInstance

        build = rd.pc_to_chosen_outdegree

        def raised_picks(pg):
            out = build(pg)
            vid = out.meta.get("gadget")
            if not vid:
                return out
            rho = list(out.instance.rho)
            for i in range(pg.k):
                rho[vid["a", i]] = 2
            inst = ChosenOutdegreeInstance(out.instance.graph, out.instance.weights, rho)
            return dataclasses.replace(out, instance=inst)

        monkeypatch.setattr(rd, "pc_to_chosen_outdegree", raised_picks)
        rep = verify_reduction(
            ExperimentConfig(pipeline="pc-chosen", k=2, n=3, solver="both", cases=20, seed=1)
        )
        assert rep.summary["pass"] is False
        checks = [r.get("checks", {}) for r in rep.records]
        assert any(c.get(f"clique_ok_{s}") is False for c in checks for s in ("bf", "dp"))


class TestPipelineTable:
    def test_each_source_reads_exactly_its_fields(self):
        # changing a field outside a source's reads leaves every generated
        # source as it is (so ExperimentConfig refuses it), and changing a
        # field inside it changes some source
        import twlab.harness as hn

        changed = {"k": 3, "n": 7, "p": 0.9, "plant": True, "max_weight": 9, "rho_max": 20}
        assert changed.keys() == hn.GENERATOR_FIELDS.keys()
        for name, pipeline in hn.PIPELINES.items():
            base = ExperimentConfig(pipeline=name, n=6)
            for field, value in changed.items():
                cfg = ExperimentConfig(pipeline=name, n=6)
                object.__setattr__(cfg, field, value)  # past the refusal
                same = all(pipeline.source.generate(cfg, seed) == pipeline.source.generate(base, seed)
                           for seed in range(5))
                assert same == (field not in pipeline.source.reads), (name, field)
                if not same:
                    continue
                with pytest.raises(InputError, match=f"{name}'s generator does not read -"):
                    ExperimentConfig(pipeline=name, **{field: value})

    def test_target_tag_is_the_reduced_kind(self):
        import twlab.harness as hn
        from twlab.problems import kind_of

        assert sorted(hn.PIPELINES) == sorted(
            ["pc-lc", "lc-pce", "clique-gensat", "pc-chosen", "chosen-minmax", "pc-minmax"]
        )
        for name, pipeline in hn.PIPELINES.items():
            cfg = ExperimentConfig(pipeline=name, k=2, n=2, p=1.0)
            out = pipeline.reduce(pipeline.source.generate(cfg, 1))
            assert pipeline.name == name and kind_of(out.instance).tag == pipeline.target

    def test_cli_choices_are_the_table(self):
        import argparse

        import twlab.harness as hn
        from twlab.cli import build_parser

        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        for command in ("reduce", "verify"):
            pipeline = next(
                a for a in sub.choices[command]._actions if "--pipeline" in a.option_strings
            )
            assert list(pipeline.choices) == list(hn.PIPELINES)


class TestSolveDp:
    def test_no_dp_solver_refused_before_decomposing(self, monkeypatch):
        import twlab.harness as hn
        from twlab.graphs import Graph
        from twlab.reductions import clique_to_gensat

        def no_decomposition(graph):
            raise AssertionError("decomposition built for an instance with no DP solver")

        monkeypatch.setattr(hn, "_target_ntd", no_decomposition)
        gensat = clique_to_gensat(Graph(3, [(0, 1), (0, 2), (1, 2)]), 2).instance
        with pytest.raises(InputError, match="no DP solver for GensatInstance"):
            solve_dp(gensat)

    def test_without_a_tree_no_tree_decomposition_is_built(self, monkeypatch):
        # the DP's own tree comes straight from the min-fill elimination:
        # no host tree, no _fill_in and no to_nice
        import twlab.harness as hn
        from twlab import treewidth as tw
        from twlab.graphs import Graph
        from twlab.problems import ChosenOutdegreeInstance, ListColoringInstance

        def refuse(*args):
            raise AssertionError("the DP path built a TreeDecomposition")

        for name in ("to_nice", "heuristic_decomposition", "_fill_in"):
            monkeypatch.setattr(tw, name, refuse)
        lc = gen_list_instance(12, 3, 0.3, 5)
        chosen = ChosenOutdegreeInstance(*gen_weighted(10, 0.4, 3, 6), gen_rho(10, 6, 7))
        for inst in (lc, chosen, ListColoringInstance(Graph(0), [])):
            assert hn._target_ntd(inst.graph) == tw.heuristic_nice(inst.graph, "min-fill")
            witness = solve_dp(inst)
            assert witness is None or hn.pr.kind_of(inst).check(inst, witness)


class TestReports:
    def make_report(self):
        return verify_reduction(
            ExperimentConfig(pipeline="chosen-minmax", n=4, cases=5, seed=6)
        )

    def test_json_round_trip(self, tmp_path):
        rep = self.make_report()
        out = tmp_path / "rep.json"
        emit_report(rep, str(out), "json")
        loaded = json.loads(out.read_text())
        assert loaded == report_to_json(rep)

    def test_csv_row_count_and_header(self, tmp_path):
        rep = self.make_report()
        out = tmp_path / "rep.csv"
        emit_report(rep, str(out), "csv")
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 5 + 1

    @pytest.mark.parametrize("solver", ["bf", "both"])
    def test_csv_row_cells_follow_the_record(self, tmp_path, solver):
        rep = verify_reduction(
            ExperimentConfig(pipeline="chosen-minmax", n=4, cases=2, seed=6, solver=solver)
        )
        out = tmp_path / "rep.csv"
        emit_report(rep, str(out), "csv")
        r = rep.records[1]
        t = r["timings_ms"]
        assert ("dp_answer" in r) == (solver == "both")
        assert out.read_text().splitlines()[2].split(",") == [
            str(r["case"]),
            str(r["case_seed"]),
            r["source_answer"],
            r["target_answer"],
            str(r["agree"]),
            str(r["witness_width"]),
            str(r["claimed_bound"]),
            str(r["bound_ok"]),
            f"{t['source']:.3f}",
            f"{t['reduce']:.3f}",
            f"{t['target']:.3f}",
            r["dp_answer"] if solver == "both" else "",
        ]

    def test_empty_report_headers_only(self, tmp_path):
        rep = VerificationReport.build(
            ExperimentConfig(pipeline="pc-lc", cases=1), []
        )
        out = tmp_path / "empty.csv"
        emit_report(rep, str(out), "csv")
        assert out.read_text().splitlines() == [",".join(CSV_COLUMNS)]

    def test_unknown_format(self, tmp_path):
        with pytest.raises(InputError):
            emit_report(self.make_report(), str(tmp_path / "x"), "xml")

    def test_no_temp_file_left_behind(self, tmp_path):
        rep = self.make_report()
        emit_report(rep, str(tmp_path / "rep.json"), "json")
        assert [p.name for p in tmp_path.iterdir()] == ["rep.json"]
