"""Show that the verifier rejects corrupted results.

    python3 perfbench/selftest.py

Runs small requests of each kind in-process, checks that their real
outputs pass, then corrupts each output in one place and checks that the
verifier rejects every corruption.  Nothing under src/ is touched.  Exits
1 if a clean output is rejected or a corruption is accepted.
"""

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import bellsim.cli  # noqa: E402

import checks  # noqa: E402
from workloads import OUT, Request  # noqa: E402

SEED = 7
MC = Request(("mc-run", "--phi", "60deg", "--trials", "20000", "--workers", "2"))
BALL = Request(("ball-protocol", "--all-stages", "--trials", "20000", "--workers", "1"))
MC_CSV = Request(("mc-run", "--phi", "60deg", "--trials", "2000", "--csv-out", OUT),
                 output="csv")
BALL_CSV = Request(("ball-protocol", "--stage", "1", "--trials", "2000", "--csv-out", OUT),
                   output="csv")
SWEEP = Request(("spin-correlation", "--sweep", "0:180:1deg", "--sweep-out", OUT),
                output="sweep", sweep_rows=181)


def execute(request: Request, out: Path) -> tuple[int, str]:
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        rc = bellsim.cli.main(request.command(SEED, str(out)))
    return rc, text.getvalue()


def problems(request, rc, text, out, reference=None) -> list[str]:
    d = checks.digest(request, rc, None, text, out, deep=True)
    return d["problems"] + (checks.compare(reference, d) if reference else [])


def edit_report(text: str, edit) -> str:
    report = json.loads(text)
    edit(report["results"])
    return json.dumps(report)


def bump_mc(results):
    counts = results["stats"]["counts"]
    counts["++"] += 1
    counts["+-"] -= 1


def swap_mc(results):
    counts = results["stats"]["counts"]
    counts["++"], counts["+-"] = counts["+-"], counts["++"]


def bump_ball(results):
    alg = results["stages"][0]["algorithms"][0]
    n = alg["registered"]
    alg["joint_freq"]["++"] = (round(alg["joint_freq"]["++"] * n) + 1) / n
    alg["joint_freq"]["+-"] = (round(alg["joint_freq"]["+-"] * n) - 1) / n


def flip_field(row: str, i: int) -> str:
    fields = row.rstrip("\n").split(",")
    fields[i] = str(-int(fields[i]))
    return ",".join(fields) + "\n"


def edit_file(path: Path, line: int, edit) -> None:
    lines = path.read_text().splitlines(keepends=True)
    lines[line] = edit(lines[line])
    path.write_text("".join(lines))


def main() -> int:
    work = HERE / ".work" / "selftest"
    work.mkdir(parents=True, exist_ok=True)
    failures = 0

    def expect(label: str, found: list[str], rejected: bool) -> None:
        nonlocal failures
        ok = bool(found) == rejected
        failures += not ok
        verdict = "rejected" if found else "accepted"
        print(f"{'ok  ' if ok else 'FAIL'} {label}: {verdict} {found[:1]}")

    try:
        reqs = {"mc": MC, "ball": BALL, "mc_csv": MC_CSV, "ball_csv": BALL_CSV, "sweep": SWEEP}
        outs = {name: work / f"{name}.out" for name in reqs}
        runs = {name: execute(req, outs[name]) for name, req in reqs.items()}
        refs = {}
        for name, (rc, text) in runs.items():
            refs[name] = checks.digest(reqs[name], rc, None, text, outs[name], deep=True)
            expect(f"clean {name}", refs[name]["problems"], False)

        rc, text = execute(MC.with_workers(1), work / "mc1.out")
        expect("mc at --workers 1 against --workers 2",
               problems(MC, rc, text, outs["mc"], refs["mc"]), False)

        rc, text = runs["mc"]
        expect("mc cell off by one", problems(MC, rc, edit_report(text, bump_mc), outs["mc"],
                                              refs["mc"]), True)
        bumped = checks.digest(MC, rc, None, edit_report(text, bump_mc), outs["mc"], deep=True)
        expect("mc cell off by one against pins",
               checks.check_pins([bumped], [{"hist": refs["mc"]["hist"]}])[0], True)
        expect("mc cells swapped (any seed, no reference)",
               problems(MC, rc, edit_report(text, swap_mc), outs["mc"]), True)
        expect("exit code 1 for a passing report", problems(MC, 1, text, outs["mc"]), True)
        rc, text = runs["ball"]
        expect("ball cell off by one", problems(BALL, rc, edit_report(text, bump_ball),
                                                outs["ball"], refs["ball"]), True)

        rc, text = runs["mc_csv"]
        edit_file(outs["mc_csv"], 1, lambda row: flip_field(row, 3))
        expect("mc CSV outcome flipped", problems(MC_CSV, rc, text, outs["mc_csv"]), True)
        rc, text = runs["ball_csv"]
        edit_file(outs["ball_csv"], 5, lambda row: flip_field(row, 3))
        expect("ball CSV sign flipped", problems(BALL_CSV, rc, text, outs["ball_csv"]), True)
        rc, text = runs["sweep"]
        edit_file(outs["sweep"], 60, lambda row: f"{row.split()[0]} {float(row.split()[1]) + 1e-9!r}\n")
        expect("sweep row off by 1e-9", problems(SWEEP, rc, text, outs["sweep"]), True)
        edit_file(outs["sweep"], 60, lambda row: "")
        expect("sweep row missing", problems(SWEEP, rc, text, outs["sweep"]), True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
