"""Seeded solver trajectories pinned bit for bit.

``golden_trajectories.json`` holds, for two seed grids, the digest of the
terminal sign vector, the round count, the digest of the per-event
resample counts and the certified flag:

* ``solve_matrix`` on small random matrices.  Valid instances almost never
  resample, so this grid pins the terminal ``y`` and the wiring from
  stratification through the event graph into the solver.  The matrices
  come from ``reference_random_matrix``, the dense generator the grid was
  recorded with, so a change of the library's sampler leaves it as it is.
* ``solve_hypergraph_direct`` with a forced imbalance bound, which takes
  hundreds of rounds through the shared resampling loop; the last entries
  run out of rounds and pin the best-seen fallback.  The hypergraphs come
  from ``reference_random_hypergraph``, the per-edge generator the grid was
  recorded with.

The third grid, ``moser_tardos_tightened``, is defined in
``test_golden_matrix_resampling.py``.  Any refactor of the certificate or
the resampler must reproduce all three exactly.  Regenerate every grid
(only for an intended change of trajectory) with
``PYTHONPATH=src python tests/test_golden_trajectories.py``.
"""

import hashlib
import json
import pathlib

import numpy as np

from lowdisc.pipeline import solve_matrix
from lowdisc.solver import solve_hypergraph_direct

from test_instance_reference import reference_random_hypergraph, reference_random_matrix

GOLDEN = pathlib.Path(__file__).with_name("golden_trajectories.json")

# (n, m, R, Delta, density) x instance seed x solve seed
MATRIX_GRID = [(shape, inst, seed)
               for shape in ((40, 400, 16.0, 4.0, 0.15), (30, 120, 8.0, 4.0, 0.3))
               for inst in range(4) for seed in range(3)]

# (vertices, R, Delta) x instance seed x solve seed x (bound, max_rounds)
HYPER_GRID = [(shape, inst, seed, 4.0, 10**6)
              for shape in ((300, 16, 4), (500, 16, 4))
              for inst in range(3) for seed in range(3)]
HYPER_GRID += [((500, 16, 4), inst, 0, 3.0, 200) for inst in range(2)]


def _digest(a) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()[:16]


def _fingerprint(result) -> dict:
    return {"y": _digest(result.y.values), "rounds": int(result.rounds),
            "counts": _digest(np.asarray(result.resample_counts, dtype="<i8")),
            "certified": bool(result.certified)}


def matrix_trajectories() -> dict:
    out = {}
    for shape, inst, seed in MATRIX_GRID:
        V = reference_random_matrix(*shape, seed=inst)
        out[f"{shape}/{inst}/{seed}"] = _fingerprint(solve_matrix(V, seed=seed).result)
    return out


def hypergraph_trajectories() -> dict:
    out = {}
    for shape, inst, seed, bound, max_rounds in HYPER_GRID:
        H = reference_random_hypergraph(*shape, seed=inst)
        res = solve_hypergraph_direct(H, seed=seed, imbalance_bound=bound,
                                      max_rounds=max_rounds)
        out[f"{shape}/{inst}/{seed}/{bound}/{max_rounds}"] = _fingerprint(res)
    return out


def _golden(kind: str) -> dict:
    return json.loads(GOLDEN.read_text())[kind]


def test_solve_matrix_trajectories_match_golden():
    assert matrix_trajectories() == _golden("solve_matrix")


def test_forced_hypergraph_trajectories_match_golden():
    got = hypergraph_trajectories()
    assert got == _golden("solve_hypergraph_direct")
    # the grid really exercises the resampling loop
    assert sum(f["rounds"] for f in got.values()) > 1000
    assert not all(f["certified"] for f in got.values())


def golden_grids() -> dict:
    """Every grid of ``golden_trajectories.json``, by its key, as a function computing it."""
    # imported here: that module imports this one
    from test_golden_matrix_resampling import KIND, tightened_trajectories
    return {"solve_matrix": matrix_trajectories,
            "solve_hypergraph_direct": hypergraph_trajectories,
            KIND: tightened_trajectories}


def write_golden() -> None:
    """Regenerate every grid: the one entry point, so none is silently dropped."""
    data = {kind: compute() for kind, compute in golden_grids().items()}
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {', '.join(data)} to {GOLDEN}")


def test_regeneration_writes_every_stored_grid():
    assert set(golden_grids()) == set(json.loads(GOLDEN.read_text()))


if __name__ == "__main__":
    write_golden()
