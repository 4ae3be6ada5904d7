"""Alternating A/B pairs of one ``perfbench`` workload: a parent checkout
against a change checkout.

    python3 scripts/ab_pairs.py --parent ../parent --change . \
        --workload search_tail --seeds 41-50 --seconds 10

Each seed is one pair: ``perfbench/run.py --trace 0`` runs once in each
checkout, one run at a time, with the parent first on even pairs and the
change first on odd ones (a host that drifts between speed regimes then
favours neither side).  Each checkout's runs use its own work directory
(``<checkout>/.perfbench``).  The script prints every pair, then per
end-to-end metric of ``BENCHMARK.json`` each side's median and quartiles,
how many pairs the change won, whether the gain rule holds (the change
wins at least 9 in 10 pairs and the medians differ by more than the
parent's interquartile range) and the no-regression verdict under the
metric's ``bound``, a fraction of the parent's median:

* ``worse`` — the change's median is worse than the parent's by more than
  the bound;
* ``unresolved`` — either side's interquartile range exceeds the bound
  (relative to its median), unless every change run beats every parent
  run: the runs spread too widely to tell;
* ``ok`` — otherwise.

It also prints each side's total of failed operations.  ``--json PATH``
also writes the runs and the summary.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import numpy as np

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds(spec: str) -> list[int]:
    """``41-50`` or ``7,31,32`` (or a mix) → the seeds in order."""
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One untraced run in ``checkout`` → its result line (``metrics``,
    ``attempted``, ``failed``)."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{checkout}: {' '.join(cmd)} exited {proc.returncode}\n"
            f"{proc.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def value(run: dict, name: str) -> float:
    return float(run["metrics"][name]["value"])


def spread(q: np.ndarray) -> float:
    """Interquartile range over the median of quartiles ``q``."""
    if q[1]:
        return float((q[2] - q[0]) / abs(q[1]))
    return 0.0 if q[2] == q[0] else float("inf")


def verdict(a: np.ndarray, b: np.ndarray, lower: bool, bound: float) -> str:
    """The no-regression verdict of change runs ``b`` against parent runs
    ``a`` under ``bound`` (see the module docstring)."""
    q_a, q_b = np.percentile(a, [25, 50, 75]), np.percentile(b, [25, 50, 75])
    loss = (q_b[1] - q_a[1]) if lower else (q_a[1] - q_b[1])
    if loss > bound * abs(q_a[1]):
        return "worse"
    beats_all = b.max() < a.min() if lower else b.min() > a.max()
    if max(spread(q_a), spread(q_b)) > bound and not beats_all:
        return "unresolved"
    return "ok"


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per metric: each side's median and quartiles, the change's wins,
    whether the gain rule holds and the no-regression verdict."""
    out = {}
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        a = np.array([value(r["parent"], name) for r in runs])
        b = np.array([value(r["change"], name) for r in runs])
        q_a, q_b = np.percentile(a, [25, 50, 75]), np.percentile(b, [25, 50, 75])
        wins = int(np.sum(b < a if lower else b > a))
        gain = (q_a[1] - q_b[1]) if lower else (q_b[1] - q_a[1])
        out[name] = {
            "parent": q_a.tolist(), "change": q_b.tolist(),
            "wins": wins, "pairs": len(runs),
            "gain_rule": bool(wins >= 0.9 * len(runs) and gain > q_a[2] - q_a[0]),
            "verdict": verdict(a, b, lower, m["bound"]),
        }
    return out


def failed_totals(runs: list[dict]) -> dict[str, int]:
    """Each side's failed operations, summed over the runs."""
    return {side: sum(int(r[side]["failed"]) for r in runs)
            for side in ("parent", "change")}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="parent checkout")
    ap.add_argument("--change", required=True, help="change checkout")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="e.g. 41-50 or 7,31,32")
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--json", help="also write runs and summary here")
    args = ap.parse_args()
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]
    sides = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    runs = []
    for i, seed in enumerate(seeds(args.seeds)):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_once(sides[side], args.workload, seed, args.seconds)
        runs.append(pair)
        # the metrics both sides report
        metrics = [m for m in metrics if m["name"] in pair["parent"]["metrics"]
                   and m["name"] in pair["change"]["metrics"]]
        cells = "  ".join(
            f"{m['name']} {value(pair['parent'], m['name']):.4g}"
            f"→{value(pair['change'], m['name']):.4g}"
            for m in metrics
        )
        fails = pair["parent"]["failed"], pair["change"]["failed"]
        print(f"seed {seed} ({order[0]} first): {cells}  failed {fails}",
              flush=True)
    summary = summarize(runs, metrics)
    failed = failed_totals(runs)
    print(f"\n{args.workload}, {len(runs)} pairs: metric  parent q1/median/q3"
          "  change q1/median/q3  wins  gain rule  verdict")
    for name, s in summary.items():
        p, c = ("/".join(f"{v:.4g}" for v in s[k]) for k in ("parent", "change"))
        print(f"{name}  {p}  {c}  {s['wins']}/{s['pairs']}  "
              f"{'holds' if s['gain_rule'] else 'misses'}  {s['verdict']}")
    print(f"failed: parent {failed['parent']}, change {failed['change']}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"workload": args.workload, "seconds": args.seconds,
                       "runs": runs, "summary": summary, "failed": failed},
                      f, indent=1)


if __name__ == "__main__":
    main()
