"""Seeded fuzzing of the CLI: small valid files of every problem kind, a
partitioned graph and a decomposition, each mutated once, must make
`twlab` exit 0, 1 or 2 without an exception escaping."""

import copy
import json
import random

import pytest

from conftest import within_seconds
from twlab.cli import main

EDGES = [[0, 1], [1, 2], [2, 3], [0, 2]]
BASES = {
    "list_coloring": {"type": "list_coloring", "n": 4, "edges": EDGES,
                      "lists": [[1, 2], [2, 3], [1, 3], [1, 2, 3]]},
    "precoloring": {"type": "precoloring", "n": 4, "edges": EDGES, "precolor": [[0, 1]], "r": 3},
    "equitable": {"type": "equitable", "n": 4, "edges": EDGES, "r": 3},
    "general_factor": {"type": "general_factor", "n": 4, "edges": EDGES,
                       "cardinality_sets": [[1, 2], [0, 1], [1, 3], [1]]},
    "gensat": {"type": "gensat", "variables": 3,
               "relations": [{"arity": 2, "tuples": [[0, 1], [1, 0]]}],
               "constraints": [{"scope": [0, 1], "relation": 0}, {"scope": [1, 2], "relation": 0}]},
    "chosen_outdegree": {"type": "chosen_outdegree", "n": 4, "edges": EDGES,
                         "weights": [1, 2, 1, 3], "rho": [3, 2, 1, 2]},
    "minmax_outdegree": {"type": "minmax_outdegree", "n": 4, "edges": EDGES,
                         "weights": [1, 2, 1, 3], "r": 3},
    "partitioned": {"n": 4, "edges": [[0, 2], [0, 3], [1, 3]], "parts": [[0, 1], [2, 3]]},
    # a decomposition of EDGES, read by `solve --td` for the list_coloring base
    "decomposition": {"nodes": 2, "tree_edges": [[0, 1]], "bags": [[0, 1, 2], [2, 3]]},
}
GRAPH_KINDS = ("list_coloring", "precoloring", "equitable", "general_factor",
               "chosen_outdegree", "minmax_outdegree", "partitioned")
COMMANDS = (
    [(kind, ["solve", "--solver", "bf"]) for kind in BASES if kind not in ("partitioned", "decomposition")]
    + [(kind, ["solve", "--solver", "dp"]) for kind in ("list_coloring", "chosen_outdegree", "minmax_outdegree")]
    + [("minmax_outdegree", ["solve", "--solver", "flow"])]
    + [(kind, ["tw"]) for kind in GRAPH_KINDS + ("gensat",)]
    + [("list_coloring", ["reduce", "--pipeline", "lc-pce", "-o", "{out}"]),
       ("chosen_outdegree", ["reduce", "--pipeline", "chosen-minmax", "-o", "{out}"]),
       ("partitioned", ["reduce", "--pipeline", "clique-gensat", "-k", "2", "-o", "{out}"])]
    + [("partitioned", ["reduce", "--pipeline", p, "-o", "{out}"]) for p in ("pc-lc", "pc-chosen", "pc-minmax")]
    + [("decomposition", ["solve", "--solver", "dp", "--td", "{file}", "{base}"])]
)
VALUES = (0, -1, 10**18, 1.5, "x", None, [], {})
MUTANTS = 2000


def places(obj, path=()):
    """The path of every value inside obj, obj itself excluded."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from places(value, path + (key,))


def mutate(obj, rng: random.Random):
    """A copy of obj with one value swapped for one of VALUES, one key
    dropped or one list entry duplicated, and a description of the change."""
    obj = copy.deepcopy(obj)
    *head, last = rng.choice(list(places(obj)))
    parent = obj
    for key in head:
        parent = parent[key]
    op = rng.choice(("swap", "drop" if isinstance(parent, dict) else "duplicate"))
    if op == "swap":
        parent[last] = rng.choice(VALUES)
        return obj, f"{[*head, last]} = {parent[last]!r}"
    if op == "drop":
        del parent[last]
    else:
        parent.insert(last, copy.deepcopy(parent[last]))
    return obj, f"{op} {[*head, last]}"


def test_mutated_files_exit_0_1_or_2(tmp_path, capsys):
    rng = random.Random(20)
    base = tmp_path / "base.json"
    base.write_text(json.dumps(BASES["list_coloring"]))
    file, out = tmp_path / "mutant.json", tmp_path / "out.json"
    codes = {0: 0, 1: 0, 2: 0}
    for m in range(MUTANTS):
        kind, command = COMMANDS[m % len(COMMANDS)]
        mutant, change = mutate(BASES[kind], rng)
        file.write_text(json.dumps(mutant))
        argv = [a.format(out=out, file=file, base=base) for a in command]
        if "{file}" not in command:
            argv.append(str(file))
        what = f"twlab {' '.join(command)} on {kind} with {change}"
        try:
            with within_seconds(5, what):  # each mutant, so a hang names its mutant
                code = main(argv)
        except Exception as exc:  # noqa: BLE001 - any escape is the failure
            pytest.fail(f"{what}: {exc!r}")
        capsys.readouterr()
        assert code in codes, f"{what}: exit {code}"
        codes[code] += 1
    # the values left as they were keep some mutants valid, and most are refused
    assert codes[0] > 0 and codes[2] > MUTANTS // 2
