"""Seeded matrix-path resampling trajectories pinned bit for bit.

Valid instances almost never resample, so the ``solve_matrix`` grid of
``golden_trajectories.json`` runs 0 rounds through ``moser_tardos``.  This
grid, stored under ``moser_tardos_tightened`` in the same file, tightens
the threshold of every bucket with two or more entries just below the
bucket sum (as ``test_resampling_runs_on_the_graph_thresholds`` does), so
a bucket whose signs all agree fires and the matrix path really resamples.
Every run is capped at ``MAX_ROUNDS``; some certify and some run out of
rounds and return the best assignment seen.  The instances come from
``reference_random_reduced``, the dense generator the grid was recorded
with.

Regenerate (only for an intended change of trajectory) with
``PYTHONPATH=src python tests/test_golden_matrix_resampling.py`` or
``tests/test_golden_trajectories.py``: both rewrite all three grids.
"""

import dataclasses
import json

import numpy as np

from lowdisc.certify import build_event_graph, verify_lll_condition
from lowdisc.model import compute_parameters, stratify
from lowdisc.solver import moser_tardos

from test_golden_trajectories import GOLDEN, _fingerprint, write_golden
from test_instance_reference import reference_random_reduced

KIND = "moser_tardos_tightened"
MAX_ROUNDS = 500

# (n, m, density, level_spread) x instance seed x solve seed
GRID = [(shape, inst, seed)
        for shape in ((8, 30, 0.3, 4), (20, 120, 0.3, 4), (12, 40, 0.4, 8),
                      (20, 60, 0.4, 8))
        for inst in range(3) for seed in range(2)]


def tightened_run(shape, inst, seed):
    n, m, density, spread = shape
    A = reference_random_reduced(n, m, 2.0**-6, 2.0**-2, density=density, seed=inst,
                                 level_spread=spread)
    params = compute_parameters(A.beta, A.delta)
    graph = build_event_graph(stratify(A, params), params)
    report = verify_lll_condition(graph, params, instance=A)
    s = graph.strata
    tight = np.where(np.diff(s.ptr) > 1, np.nextafter(s.sums, 0.0), s.sums)
    return moser_tardos(A, dataclasses.replace(graph, threshold=tight), params,
                        seed=seed, max_rounds=MAX_ROUNDS, certificate=report)


def tightened_trajectories() -> dict:
    return {f"{shape}/{inst}/{seed}": _fingerprint(tightened_run(shape, inst, seed))
            for shape, inst, seed in GRID}


def test_tightened_matrix_trajectories_match_golden():
    got = tightened_trajectories()
    assert got == json.loads(GOLDEN.read_text())[KIND]
    # the grid resamples on the matrix path, both to certification and to exhaustion
    assert sum(f["rounds"] for f in got.values()) > 1000
    assert any(f["certified"] and f["rounds"] > 0 for f in got.values())
    assert not all(f["certified"] for f in got.values())


if __name__ == "__main__":
    write_golden()
