"""The rank-2 gate: 760 certified solves and what the linear program spent.

Six sets of 30 random rank-2 states (``_random_rank2`` of rngs 2026, 7, 11
and 12 and ``_random_rank2_gram`` of rngs 2026 and 7, the generators of
``tests/test_roof.py``) and 200 ``freeze.biseparable`` states of rng 4242,
each solved by ``roof_minimize`` with default options for both functionals.
Prints per set and in total:

- ``solves``, ``certified`` (``converged``) and ``searched``
  (``restarts_used > 0``);
- ``passes``: pricing passes, the ``_Range.lowest`` calls;
- ``refused``: the rounds whose second simplex solve did not start from a
  basis holding a refined point, of the rounds that proposed one;
- ``pivots2``: the iterations of each program's second simplex solve in
  its first round, the solve that starts from the refined support: one
  basis inverse each, so a solve that starts optimal makes one;
- ``seconds``: the wall time spent in the linear program (``_lp_roof``).

Exits 1 if any solve is uncertified or ran the search.

    python tools/rank2_gate.py [--save FILE] [--compare FILE]

``--save`` writes each solve's value and bound, whether it reached the
program, and a SHA-256 of its members' weights and amplitudes, as JSON.
``--compare`` reads such a file, of another tree or run, and prints the
largest difference of value and bound, and how many solves that reached no
program on either side differ in any bit.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(_ROOT / "src"), str(_ROOT / "tests")]

import numpy as np  # noqa: E402

import rtangle as rt  # noqa: E402
from rtangle import lp, roof  # noqa: E402
from freeze import biseparable  # noqa: E402
from test_roof import _random_rank2, _random_rank2_gram  # noqa: E402

SETS = [(_random_rank2, 2026, 30), (_random_rank2, 7, 30), (_random_rank2, 11, 30),
        (_random_rank2, 12, 30), (_random_rank2_gram, 2026, 30), (_random_rank2_gram, 7, 30),
        (biseparable, 4242, 200)]
COUNTS = ("solves", "certified", "searched", "passes", "refused", "decided", "pivots2")


class _Probe:
    """Wraps the program's entry, its simplex and its pricing, and records
    per program the rounds: each a list of simplex solves (columns, start
    basis, iterations), closed by a pricing pass."""

    def __init__(self):
        self.rounds = None  # the rounds of the running program, or None outside one
        self.seconds = 0.0
        lp_roof, simplex, lowest = lp._lp_roof, lp._simplex, lp._Range.lowest

        def timed_lp_roof(sphere):
            self.rounds = [[]]
            start = time.perf_counter()
            try:
                return lp_roof(sphere)
            finally:
                self.seconds += time.perf_counter() - start

        def counted_simplex(cost, rows, b, basis):
            if self.rounds is None:  # the zero fit's phase one
                return simplex(cost, rows, b, basis)
            inv, calls = np.linalg.inv, []
            np.linalg.inv = lambda A: calls.append(1) or inv(A)
            start = basis.copy()
            try:
                return simplex(cost, rows, b, basis)
            finally:
                np.linalg.inv = inv
                self.rounds[-1].append((len(cost), start, len(calls)))

        def counted_lowest(sphere, *args):
            self.rounds.append([])
            return lowest(sphere, *args)

        lp._lp_roof, lp._simplex, lp._Range.lowest = timed_lp_roof, counted_simplex, counted_lowest

    def take(self):
        """The rounds of the last program (None if none ran), and reset."""
        rounds, self.rounds = self.rounds, None
        return rounds


def _digest(res) -> str:
    h = hashlib.sha256()
    for w, psi in res.ensemble.members:
        h.update(np.float64(w).tobytes())
        h.update(np.ascontiguousarray(psi.amp).tobytes())
    return h.hexdigest()[:16]


def run():
    """Solve the gate; returns the per-set counts, seconds and solve records."""
    probe, table, solves = _Probe(), [], []
    for draw, seed, n in SETS:
        rng = np.random.default_rng(seed)
        states = [draw(rng) for _ in range(n)]
        counts = dict.fromkeys(COUNTS, 0)
        probe.seconds = 0.0
        for k, rho in enumerate(states):
            for functional in roof.FUNCTIONALS:
                res = rt.roof_minimize(rho, functional)
                rounds = probe.take()
                counts["solves"] += 1
                counts["certified"] += bool(res.converged)
                counts["searched"] += res.restarts_used > 0
                for i, solves_of_round in enumerate(rounds or ()):
                    if len(solves_of_round) < 2:
                        continue
                    (n_cols, _, _), (_, start, iterations) = solves_of_round[:2]
                    counts["decided"] += 1
                    counts["refused"] += not (start >= n_cols).any()
                    counts["pivots2"] += iterations if i == 0 else 0
                # every round but the last open one ends in a pricing pass
                counts["passes"] += len(rounds) - 1 if rounds else 0
                solves.append({"set": f"{draw.__name__}-{seed}", "index": k,
                               "functional": functional, "value": res.value,
                               "bound": res.lower_bound, "program": rounds is not None,
                               "digest": _digest(res)})
        table.append((f"{draw.__name__}-{seed}", counts, probe.seconds))
    return table, solves


def _compare(solves, path):
    with open(path) as fh:
        saved = {(s["set"], s["index"], s["functional"]): s for s in json.load(fh)["solves"]}
    d_value = d_bound = 0.0
    fixed = differ = 0
    for s in solves:
        t = saved[s["set"], s["index"], s["functional"]]
        d_value = max(d_value, abs(s["value"] - t["value"]))
        if (s["bound"] is None) != (t["bound"] is None):
            d_bound = float("inf")
        elif s["bound"] is not None:
            d_bound = max(d_bound, abs(s["bound"] - t["bound"]))
        if not s["program"] and not t["program"]:
            fixed += 1
            differ += (s["value"], s["bound"], s["digest"]) != (t["value"], t["bound"], t["digest"])
    print(f"against {path}: largest |d value| {d_value:.3g}, largest |d bound| {d_bound:.3g}; "
          f"{differ} of {fixed} solves that reached no program differ")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--save", metavar="FILE", help="write each solve's value and bound as JSON")
    ap.add_argument("--compare", metavar="FILE", help="compare with a file written by --save")
    args = ap.parse_args(argv)
    table, solves = run()
    header = f"{'set':<24}" + "".join(f"{c:>10}" for c in COUNTS) + f"{'seconds':>10}"
    print(header)
    total = dict.fromkeys(COUNTS, 0)
    for name, counts, seconds in table + [("total", total, sum(t[2] for t in table))]:
        if name != "total":
            for c in COUNTS:
                total[c] += counts[c]
        print(f"{name:<24}" + "".join(f"{counts[c]:>10}" for c in COUNTS) + f"{seconds:>10.3f}")
    if args.save:
        with open(args.save, "w") as fh:
            json.dump({"solves": solves}, fh)
    if args.compare:
        _compare(solves, args.compare)
    return 0 if total["certified"] == total["solves"] and total["searched"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
