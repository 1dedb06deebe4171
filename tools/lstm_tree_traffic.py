"""Time the prefix-tree LSTM scoring path against the per-step path on blocks
where the tree saves nothing: every row's prefix becomes distinct within a few
steps (random ids over a 50-id vocabulary).

    python tools/lstm_tree_traffic.py [--repeats N]

Two shapes, each one 1,024-row block (``PREDICT_BLOCK``) with the hidden
width of the default configs: the forecasting LSTM's (index inputs of width
16, 10 steps, last step's state) and the BiLSTM's forward direction
(semantic-width inputs of 32, 30 steps, every step's state). Each repeat times
both paths once, in alternating order, under ``no_grad`` as ``predict`` runs
them; the result is the median seconds of each path, their ratio, the states
each computed and whether their hidden states are equal bit for bit. Prints
JSON. BLAS is pinned to one thread before numpy loads.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from loglens.autodiff import (  # noqa: E402
    ParamSet,
    embedding_lookup,
    lstm_params,
    no_grad,
    run_lstm,
    run_lstm_tree,
)
from loglens.detectors.base import PREDICT_BLOCK  # noqa: E402

VOCAB = 50
HIDDEN = 64
SHAPES = {"lstm_forecast": {"dim": 16, "steps": 10, "all_steps": False},
          "bilstm_attention": {"dim": 32, "steps": 30, "all_steps": True}}


def per_step(table, ids, ps, all_steps):
    hs = run_lstm(embedding_lookup(table, ids.T), ps, "l0", HIDDEN).data
    return hs if all_steps else hs[-1]


def by_tree(table, ids, ps, all_steps):
    tree, states = run_lstm_tree(table, ids, ps, ["l0"], HIDDEN)
    steps = range(ids.shape[1]) if all_steps else [ids.shape[1] - 1]
    rows = np.stack([tree.rows(states, t) for t in steps])
    return (rows if all_steps else rows[0]), tree.states


def measure(shape: dict, repeats: int) -> dict:
    rng = np.random.default_rng(0)
    ids = rng.integers(0, VOCAB, (PREDICT_BLOCK, shape["steps"]))
    ps = ParamSet(1)
    table = ps.uniform("input_table", (VOCAB, shape["dim"]), fan_in=shape["dim"])
    lstm_params(ps, "l0", shape["dim"], HIDDEN)
    seconds = {"per_step": [], "tree": []}
    with no_grad():
        expected = per_step(table, ids, ps, shape["all_steps"])
        got, states = by_tree(table, ids, ps, shape["all_steps"])
        for i in range(repeats):
            order = ("per_step", "tree") if i % 2 == 0 else ("tree", "per_step")
            for path in order:
                start = time.perf_counter()
                if path == "tree":
                    by_tree(table, ids, ps, shape["all_steps"])
                else:
                    per_step(table, ids, ps, shape["all_steps"])
                seconds[path].append(time.perf_counter() - start)
    medians = {path: statistics.median(s) for path, s in seconds.items()}
    return {
        "rows": PREDICT_BLOCK, "steps": shape["steps"], "input_dim": shape["dim"],
        "hidden": HIDDEN, "vocab": VOCAB, "repeats": repeats,
        "states_per_step_path": ids.size, "states_tree_path": states,
        "per_step_median_s": round(medians["per_step"], 6),
        "tree_median_s": round(medians["tree"], 6),
        "tree_over_per_step": round(medians["tree"] / medians["per_step"], 4),
        "bit_identical": got.tobytes() == expected.tobytes(),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=60)
    args = parser.parse_args()
    print(json.dumps({name: measure(shape, args.repeats)
                      for name, shape in SHAPES.items()}, indent=1))


if __name__ == "__main__":
    main()
