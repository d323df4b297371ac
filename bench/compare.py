"""Noise and agreement between two sets of benchmark runs.

    python bench/compare.py A.json [A.json ...] -- B.json [B.json ...]

Each file is a ``run.py --out`` result; side A is the reference (the
parent commit), side B the candidate.  For every workload x metric the
report lists each side's median and quartiles, A's spread (interquartile
distance over median) and a verdict:

- ``unresolved``: A's own spread exceeds the metric's bound, and not
  every B run reads better than every A run;
- ``worse``: B's median is worse than A's by more than the bound that
  ``BENCHMARK.json`` declares;
- ``better``: B wins at least 9 of every 10 (A_i, B_i) pairs, ties
  counting for neither, and the medians differ by more than A's
  interquartile distance;
- ``within-bound``: none of these.

Per-layer metrics have no bound: they are ``better``, ``worse`` (the
same pair rule, mirrored) or ``no-change``.  The simulated outcome
(``model``) and ``outputs_digest`` are compared between runs of the same
seed and reported as identical or differing.  Exit status 1 when a
metric is worse or an outcome differs, and 2 when the files were not
all run with the same ``--trace`` and ``--seconds``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
WIN_SHARE = 0.9


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: list[float], b: list[float], better: str, bound: float | None) -> str:
    sign = 1.0 if better == "higher" else -1.0
    qa, qb = quartiles(a), quartiles(b)
    med_a, med_b = qa[1], qb[1]
    iqr_a = qa[2] - qa[0]
    gain = sign * (med_b - med_a)
    wins = sum(sign * (y - x) > 0 for x, y in zip(a, b))
    losses = sum(sign * (y - x) < 0 for x, y in zip(a, b))
    pairs = min(len(a), len(b))
    if bound is None:
        if wins >= WIN_SHARE * pairs and gain > iqr_a:
            return "better"
        if losses >= WIN_SHARE * pairs and -gain > iqr_a:
            return "worse"
        return "no-change"
    scale = abs(med_a) or 1.0
    all_better = min(sign * y for y in b) > max(sign * x for x in a)
    if iqr_a / scale > bound and not all_better:
        return "unresolved"
    if -gain / scale > bound:
        return "worse"
    if wins >= WIN_SHARE * pairs and gain > iqr_a:
        return "better"
    return "within-bound"


def load(paths: list[str]) -> list[dict]:
    return [json.loads(Path(p).read_text()) for p in paths]


def compare(side_a: list[dict], side_b: list[dict], spec: dict) -> tuple[list[str], bool]:
    """The report lines, and whether A and B agree."""
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    lines, agree = [], True
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        runs_a = [r["workloads"][workload] for r in side_a if workload in r["workloads"]]
        runs_b = [r["workloads"][workload] for r in side_b if workload in r["workloads"]]
        if not runs_a or not runs_b:
            continue
        lines.append(f"== {workload}: {len(runs_a)} run(s) vs {len(runs_b)} run(s)")
        for key in ("metrics", "layers"):
            names = [n for n in runs_a[0].get(key, {}) if all(n in r.get(key, {}) for r in runs_b)]
            for name in names:
                a = [r[key][name]["value"] for r in runs_a]
                b = [r[key][name]["value"] for r in runs_b]
                meta = declared[name]
                v = verdict(a, b, meta["better"], meta.get("bound"))
                agree &= v != "worse"
                qa, qb = quartiles(a), quartiles(b)
                spread = (qa[2] - qa[0]) / abs(qa[1]) if qa[1] else 0.0
                bound = f"{meta['bound']:.0%}" if "bound" in meta else "-"
                lines.append(
                    f"  {name:<28} A {qa[1]:>12.4f} [{qa[0]:.4f}, {qa[2]:.4f}]  "
                    f"B {qb[1]:>12.4f} [{qb[0]:.4f}, {qb[2]:.4f}]  {meta['unit']:<8} "
                    f"spread {spread:6.2%} bound {bound:>4}  {v}"
                )
        outcome = outcome_agreement(side_a, side_b, workload)
        agree &= outcome != "differing"
        lines.append(f"  model + outputs_digest: {outcome}")
    return lines, agree


def outcome_agreement(side_a: list[dict], side_b: list[dict], workload: str) -> str:
    """``identical`` when every run of a seed, on either side, has the
    same simulated outcome and digest; ``differing`` otherwise."""
    by_seed: dict[int, set[str]] = {}
    for result in side_a + side_b:
        run = result["workloads"].get(workload)
        if run is not None:
            key = json.dumps([run["model"], run["outputs_digest"]], sort_keys=True)
            by_seed.setdefault(result["seed"], set()).add(key)
    if not by_seed:
        return "no runs"
    seeds_a = {r["seed"] for r in side_a if workload in r["workloads"]}
    seeds_b = {r["seed"] for r in side_b if workload in r["workloads"]}
    if not seeds_a & seeds_b:
        return "no seed in common"
    return "identical" if all(len(keys) == 1 for keys in by_seed.values()) else "differing"


def run_modes(results: list[dict]) -> set[tuple[int, float]]:
    """The distinct ``(trace, seconds)`` settings the results were run with."""
    return {(int(r["trace"]), float(r["seconds"])) for r in results}


def main(argv: list[str]) -> int:
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    cut = argv.index("--")
    side_a, side_b = load(argv[:cut]), load(argv[cut + 1:])
    if not side_a or not side_b:
        print("compare: each side needs at least one result file", file=sys.stderr)
        return 2
    modes = run_modes(side_a + side_b)
    if len(modes) > 1:
        print("compare: the results were not run the same way "
              f"((trace, seconds) settings {sorted(modes)})", file=sys.stderr)
        return 2
    lines, agree = compare(side_a, side_b, json.loads(SPEC_PATH.read_text()))
    print("\n".join(lines))
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
