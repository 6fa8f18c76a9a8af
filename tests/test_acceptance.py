"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run verbosely to see the lines:  pytest tests/test_acceptance.py -v -s
Every criterion is exact (verdict equality and integer bounds); the stated
wall-clock budgets are asserted where the criterion carries one.
"""

import json
import random
import time

from conftest import complete, cycle
from twlab.graphs import EdgeWeighting, Graph
from twlab.harness import (
    PIPELINES,
    ExperimentConfig,
    gen_graph,
    gen_list_instance,
    gen_partitioned,
    mix,
    report_to_json,
    strip_timings,
    verify_reduction,
)
from twlab.problems import (
    ChosenOutdegreeInstance,
    ListColoringInstance,
    bf_chosen_outdegree,
    bf_clique,
    bf_gensat,
    bf_list_coloring,
    bf_min_max_outdegree,
    bf_min_max_value,
    bf_partitioned_clique,
    bf_precoloring,
)
from twlab.reductions import (
    certify,
    chosen_to_minmax,
    clique_to_gensat,
    lc_to_precoloring,
    pc_to_chosen_outdegree,
    pc_to_list_coloring,
)
from twlab.solvers import dp_chosen_outdegree, dp_list_coloring, flow_min_max_uniform
from twlab.treewidth import (
    exact_treewidth,
    heuristic_decomposition,
    to_nice,
    validate,
    width,
)

SEED = 20311


def conclude(number, name, detail, t0, budget=None):
    elapsed = time.time() - t0
    print(f"[criterion {number:02d}] {name}: {detail} PASS ({elapsed:.1f}s)")
    if budget is not None:
        assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


def test_c01_partitioned_clique_to_list_coloring():
    t0 = time.time()
    combos = [(n, p) for n in (2, 3, 4) for p in (0.2, 0.5, 0.9)]
    agree = 0
    for case in range(200):
        n, p = combos[case % len(combos)]
        pg = gen_partitioned(3, n, p, False, mix(SEED, case))
        out = pc_to_list_coloring(pg)
        src = bf_partitioned_clique(pg)
        dst = bf_list_coloring(out.instance)
        assert (src is None) == (dst is None)
        agree += 1
        assert validate(out.witness, out.instance.graph).ok
        assert width(out.witness) <= 4
    conclude(1, "partitioned-clique -> list-coloring equivalence", f"{agree}/200 agree, widths <= 4", t0, 60)


def test_c02_list_coloring_to_precoloring():
    t0 = time.time()
    agree = 0
    for case in range(200):
        seed = mix(SEED + 1, case)
        rng = random.Random(seed)
        inst = gen_list_instance(rng.randint(1, 8), 4, rng.uniform(0.2, 0.7), seed)
        out = lc_to_precoloring(inst)
        assert (bf_list_coloring(inst) is None) == (bf_precoloring(out.instance) is None)
        agree += 1
    conclude(2, "list-coloring -> precoloring-extension equivalence", f"{agree}/200 agree", t0, 30)


def test_c03_clique_to_gensat():
    t0 = time.time()
    sizes = (3, 4, 5, 6)
    densities = (0.3, 0.5, 0.8)
    agree = 0
    for case in range(200):
        n = sizes[case % len(sizes)]
        p = densities[case % len(densities)]
        g = gen_graph(n, p, mix(SEED + 2, case))
        out = clique_to_gensat(g, 3)
        assert (bf_clique(g, 3) is None) == (bf_gensat(out.instance) is None)
        agree += 1
        dual = out.meta["dual_graph"]
        assert dual.n == 3
        assert exact_treewidth(dual)[0] <= 2
        assert validate(out.witness, dual).ok and width(out.witness) <= 2
        inc = out.meta["incidence_graph"]
        assert validate(out.meta["incidence_witness"], inc).ok
        assert width(out.meta["incidence_witness"]) <= 3
        if inc.n <= 14:
            assert exact_treewidth(inc)[0] <= 3
    conclude(3, "clique -> generalized-satisfiability equivalence", f"{agree}/200 agree, dual tw <= 2", t0, 60)


def _orientation_sweeps():
    configs = []
    for n in (1, 2, 3):
        for p in (0.3, 0.7):
            for plant in (False, True):
                configs.append((2, n, p, plant, 100))
    for p in (0.3, 0.7):
        for plant in (False, True):
            configs.append((3, 2, p, plant, 50))
    return configs


def test_c04_c05_partitioned_clique_to_capped_orientation():
    t0 = time.time()
    total = 0
    yes_cases = 0
    for k, n, p, plant, cases in _orientation_sweeps():
        rep = verify_reduction(
            ExperimentConfig(
                pipeline="pc-chosen", k=k, n=n, p=p, plant=plant,
                cases=cases, seed=mix(SEED + 3, hash((k, n, p, plant)) & 0xFFFF),
            )
        )
        assert rep.summary["disagreements"] == 0, rep.records
        bound = 2 * (k * (k - 1) // 2) + 1
        for r in rep.records:
            total += 1
            # bound_ok covers witness validity, the width bound, extracted
            # cliques on yes cases, and the constructive orientation check
            assert r["bound_ok"], r
            assert r["claimed_bound"] <= bound
            assert r["witness_width"] <= bound
            if r["target_answer"] == "yes":
                yes_cases += 1
                assert r["checks"]["clique_ok_bf"]
            if plant:
                assert r["source_answer"] == "yes"
                assert r["checks"]["constructive_ok"]
    conclude(4, "partitioned-clique -> capped-orientation equivalence",
             f"{total}/{total} agree, {yes_cases} cliques extracted", t0, 600)
    conclude(5, "selection-gadget width bound",
             f"all {total} witnesses within 2*C(k,2)+1", t0)


def test_c06_capped_to_uniform_cap():
    t0 = time.time()
    agree = 0
    for case in range(300):
        seed = mix(SEED + 4, case)
        rng = random.Random(seed)
        n = rng.randint(1, 6)
        edges = [
            (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5
        ][:12]
        g = Graph(n, edges)
        w = EdgeWeighting(g, [rng.randint(1, 4) for _ in edges])
        inst = ChosenOutdegreeInstance(g, w, tuple(rng.randint(0, 6) for _ in range(n)))
        out = chosen_to_minmax(inst)
        assert (bf_chosen_outdegree(inst) is None) == (
            bf_min_max_outdegree(out.instance) is None
        )
        agree += 1
        assert validate(out.witness, out.instance.graph).ok
        assert width(out.witness) <= out.claimed_width_bound
    conclude(6, "capped-orientation -> uniform-cap equivalence", f"{agree}/300 agree", t0, 60)


def test_c07_dp_solvers_match_oracles():
    t0 = time.time()
    lc_agree = 0
    for case in range(300):
        seed = mix(SEED + 5, case)
        rng = random.Random(seed)
        n = rng.randint(1, 10)
        g = gen_graph(n, rng.uniform(0.2, 0.6), mix(seed, 1))
        lists = [
            frozenset(rng.sample(range(1, n + 1), rng.randint(0, min(4, n))))
            for _ in range(n)
        ]
        inst = ListColoringInstance(g, lists)
        ntd = to_nice(heuristic_decomposition(g), g)
        assert (dp_list_coloring(inst, ntd) is None) == (bf_list_coloring(inst) is None)
        lc_agree += 1
    co_agree = 0
    case = 0
    while co_agree < 200:
        case += 1
        seed = mix(SEED + 6, case)
        rng = random.Random(seed)
        n = rng.randint(1, 8)
        g = gen_graph(n, 0.35, mix(seed, 1))
        w = EdgeWeighting(g, [rng.randint(1, 3) for _ in g.edges])
        if w.total_weight > 24:
            continue
        inst = ChosenOutdegreeInstance(g, w, tuple(rng.randint(0, 5) for _ in range(n)))
        ntd = to_nice(heuristic_decomposition(g), g)
        assert (dp_chosen_outdegree(inst, ntd) is None) == (
            bf_chosen_outdegree(inst) is None
        )
        co_agree += 1
    conclude(7, "decomposition DP vs oracles",
             f"{lc_agree}/300 coloring + {co_agree}/200 orientation agree", t0, 300)


def test_c08_flow_matches_oracle():
    t0 = time.time()
    assert flow_min_max_uniform(complete(4), 1) == 2
    assert flow_min_max_uniform(cycle(4), 1) == 1
    agree = 0
    for case in range(200):
        seed = mix(SEED + 7, case)
        rng = random.Random(seed)
        n = rng.randint(1, 10)
        g = gen_graph(n, rng.uniform(0.2, 0.7), mix(seed, 1))
        w = EdgeWeighting(g, [1] * len(g.edges))
        assert flow_min_max_uniform(g, 1) == bf_min_max_value(g, w)
        agree += 1
    conclude(8, "flow solver vs brute-force minimum", f"{agree}/200 agree (incl. K4=2, C4=1)", t0, 60)


def test_c09_bag_augmentation_bound():
    """The program's own augmented witnesses: pc-chosen's (the gadget minus
    its hubs is a forest, and every bag holds every hub) and pc-minmax's (the
    slack triangles hung on it) certify the paper's bounds."""
    t0 = time.time()
    gadgets = 0
    for case in range(100):
        seed = mix(SEED + 8, case)
        rng = random.Random(seed)
        k, n = rng.randint(2, 4), rng.randint(1, 3)
        pg = gen_partitioned(k, n, rng.uniform(0.3, 0.9), case % 2 == 0, mix(seed, 1))
        chosen = pc_to_chosen_outdegree(pg)
        assert certify(chosen) == ()
        assert width(chosen.witness) <= chosen.claimed_width_bound == 2 * (k * (k - 1) // 2) + 1
        minmax = PIPELINES["pc-minmax"].reduce(pg)
        assert certify(minmax) == ()
        assert width(minmax.witness) <= max(k * (k - 1) + 1, 2)
        gadgets += "gadget" in chosen.meta
    assert gadgets >= 80  # the rest are degenerate: a part pair without cross edges
    conclude(9, "bag augmentation width bound", f"100/100 certified, {gadgets} gadgets", t0)


def test_c10_treewidth_sanity():
    t0 = time.time()
    rng = random.Random(SEED + 9)
    for trial in range(10):
        n = rng.randint(2, 10)
        order = list(range(1, n))
        rng.shuffle(order)
        edges = [(rng.randrange(0, v), v) for v in order]  # random tree shape
        tree = Graph(n, [(min(a, b), max(a, b)) for a, b in edges])
        assert exact_treewidth(tree)[0] == 1
    for n in range(2, 9):
        assert exact_treewidth(complete(n))[0] == n - 1
    for n in range(4, 11):
        assert exact_treewidth(cycle(n))[0] == 2
    for trial in range(30):
        g = gen_graph(rng.randint(1, 9), rng.uniform(0.2, 0.7), mix(SEED + 10, trial))
        exact, _ = exact_treewidth(g)
        for method in ("min-fill", "min-degree"):
            assert width(heuristic_decomposition(g, method)) >= exact
    conclude(10, "exact treewidth sanity", "trees=1, K_n=n-1, C_n=2, heuristics >= exact", t0, 120)


def test_c11_verification_is_deterministic():
    t0 = time.time()
    for cfg in (
        ExperimentConfig(pipeline="pc-chosen", k=2, n=2, p=0.5, cases=20, seed=99),
        ExperimentConfig(pipeline="chosen-minmax", n=5, p=0.5, cases=20, seed=100),
        ExperimentConfig(pipeline="pc-lc", k=3, n=2, p=0.4, cases=20, seed=101),
    ):
        first = json.dumps(strip_timings(report_to_json(verify_reduction(cfg))), sort_keys=True)
        second = json.dumps(strip_timings(report_to_json(verify_reduction(cfg))), sort_keys=True)
        assert first.encode() == second.encode()
    conclude(11, "seeded verification determinism", "byte-identical reports modulo timings", t0)
