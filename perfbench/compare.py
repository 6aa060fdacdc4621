"""Compare the end-to-end results of two commits.

    python3 perfbench/compare.py BEFORE_DIR AFTER_DIR

Each directory holds the saved stdout of `run.py --trace 0` runs, one file
per run.  For every workload and end-to-end metric this prints each side's
median and quartiles over runs, the change of the medians as a share of the
before median, how many same-seed pairs the after side won, and a verdict
against the metric's bound in BENCHMARK.json.  Results from different
machines, or runs that failed verification, are refused.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MACHINE = ("python", "numpy", "nproc", "cpu_model", "machine")


def load(directory: str) -> dict:
    """{(workload, seed): (meta, result)} for every run file in a directory."""
    runs = {}
    for path in sorted(Path(directory).iterdir()):
        lines = path.read_text().splitlines()
        meta, result = json.loads(lines[-2])["meta"], json.loads(lines[-1])
        if not result["correct"]:
            sys.exit(f"{path}: the run failed verification")
        runs[(meta["workload"], meta["seed"])] = (meta, result)
    return runs


def main(before_dir: str, after_dir: str) -> int:
    before, after = load(before_dir), load(after_dir)
    machines = {tuple(meta[k] for k in MACHINE) for meta, _ in [*before.values(), *after.values()]}
    if len(machines) != 1:
        sys.exit(f"results come from different machines: {sorted(machines)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    for workload in sorted({w for w, _ in before} | {w for w, _ in after}):
        print(workload)
        for metric in spec:
            name, lower = metric["name"], metric["better"] == "lower"
            side = {
                label: {seed: r["metrics"][name]["value"] for (w, seed), (_, r) in runs.items()
                        if w == workload}
                for label, runs in (("before", before), ("after", after))
            }
            if len(side["before"]) < 2 or len(side["after"]) < 2:
                print(f"  {name}: needs at least two runs per side")
                continue
            q = {label: statistics.quantiles(v.values(), n=4) for label, v in side.items()}
            med = {label: statistics.median(v.values()) for label, v in side.items()}
            change = (med["after"] - med["before"]) / med["before"]
            worse = change if lower else -change
            spread = (q["before"][2] - q["before"][0]) / med["before"]
            pairs = sorted(side["before"].keys() & side["after"].keys())
            wins = sum((side["after"][s] < side["before"][s]) == lower
                       and side["after"][s] != side["before"][s] for s in pairs)
            if spread > metric["bound"]:
                verdict = "unresolved: spread wider than the bound"
            elif worse > metric["bound"]:
                verdict = "REGRESSION beyond the bound"
            elif -worse > spread and pairs and wins >= 0.9 * len(pairs):
                verdict = "better"
            else:
                verdict = "no change beyond noise"
            print(f"  {name:13s} before {med['before']:.4g} [{q['before'][0]:.4g}, "
                  f"{q['before'][2]:.4g}]  after {med['after']:.4g} [{q['after'][0]:.4g}, "
                  f"{q['after'][2]:.4g}]  {change:+.1%}  wins {wins}/{len(pairs)}  "
                  f"bound {metric['bound']:.0%}  {verdict}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(*sys.argv[1:]))
