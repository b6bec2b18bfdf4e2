"""Compare two sets of layered-benchmark runs: A is the base, B the candidate.

    python benchmarks/layered/compare.py A.json B.json
    python benchmarks/layered/compare.py AB.json        # a file holding two sets

Each file is what ``run.py --all --json PATH`` wrote. Per workload and
end-to-end metric it prints both values, how much worse B is as a share of A,
and the bound from BENCHMARK.json. Simulated results must be *equal*:
``sim_seconds`` and ``sim_digest`` of every run, and — where both sets hold a
traced run — every per-layer metric that is not a host timing (call counts,
modelled counters, ratios of either). Exits 1 if B is worse than a bound or
anything simulated differs.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def is_host_timing(name: str) -> bool:
    return name.endswith(".self_s") or name.startswith("harness.")


def report(base: dict, candidate: dict) -> int:
    """Print the comparison of two sets; return 1 on any violation."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = 0
    print("#### compare: A = base, B = candidate; worse = how far B is on the "
          "wrong side of A")
    for workload in base:
        if workload not in candidate:
            continue
        a_runs, b_runs = base[workload], candidate[workload]
        if "untraced" in a_runs and "untraced" in b_runs:
            a, b = a_runs["untraced"]["metrics"], b_runs["untraced"]["metrics"]
            for metric in spec["end_to_end"]:
                name = metric["name"]
                va, vb = a[name]["value"], b[name]["value"]
                worse = (vb - va) / va if metric["better"] == "lower" else (va - vb) / va
                bad = worse > metric["bound"]
                problems += bad
                print(
                    f"   {workload:16s} {name:18s} A {va:>12.6g}  B {vb:>12.6g} "
                    f"{metric['unit']:9s} worse {worse:+7.2%}  bound "
                    f"{metric['bound']:.0%}  {'REGRESSION' if bad else 'ok'}"
                )
        for kind in ("untraced", "traced"):
            if kind not in a_runs or kind not in b_runs:
                continue
            a, b = a_runs[kind], b_runs[kind]
            different = [
                key for key in ("sim_seconds", "sim_digest") if a[key] != b[key]
            ]
            if kind == "traced":
                different += [
                    name for name, metric in a["metrics"].items()
                    if not is_host_timing(name)
                    and metric["value"] != b["metrics"][name]["value"]
                ]
            problems += len(different)
            print(
                f"   {workload:16s} {kind + ' sim results':18s} "
                + ("identical" if not different
                   else "DIFFER: " + ", ".join(different))
            )
    print("#### compare:", "FAILED" if problems else "within every bound")
    return 1 if problems else 0


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    files = [json.loads(Path(path).read_text())["sets"] for path in argv]
    sets = files[0][:2] if len(files) == 1 else [files[0][0], files[1][0]]
    if len(sets) < 2:
        print("compare.py: need two sets to compare", file=sys.stderr)
        return 2
    return report(sets[0], sets[1])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
