"""Report-only mutation testing: the one-token changes to src/bellsim that Tier-1 misses.

Each site in src/bellsim/*.py gives mutants made with the stdlib ``ast`` and
``tokenize`` modules: a comparison flipped (``<`` and ``<=``, ``>`` and ``>=``,
``==`` and ``!=``), or an integer literal, never a bool, plus 1 and minus 1.
Each mutant is written into a temporary copy of ``src/``, and Tier-1 runs with
``-x -q -p no:cacheprovider`` and ``PYTHONPATH`` pointing at that copy.  A mutant
is killed when Tier-1 fails, survives when it passes, and times out after three
times the unmutated run's time, at least 60 s.  The report gives those counts and
each survivor's ``file:line`` and change.  The script never edits the checkout,
needs nothing outside the standard library and Tier-1's own packages, and always
exits 0.

    python .github/mutants.py                          # every site
    python .github/mutants.py --base main --limit 30   # lines changed against main

Progress goes to stderr, the report to stdout.
"""

import argparse
import ast
import glob
import io
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import tokenize
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FLIPPED = (ast.Lt, ast.LtE, ast.Gt, ast.GtE, ast.Eq, ast.NotEq)
FLIP = {"<": "<=", "<=": "<", ">": ">=", ">=": ">", "==": "!=", "!=": "=="}


class Mutant(NamedTuple):
    path: str  # relative to the checkout
    line: int
    start: int  # character offsets of the replaced text in the module's source
    end: int
    old: str
    new: str


def mutants(path: str, source: str) -> list[Mutant]:
    """Every mutant of one module, in source order."""
    lines = source.splitlines(keepends=True)
    line_starts = [0]
    for text in lines:
        line_starts.append(line_starts[-1] + len(text))

    def offset(line: int, byte_col: int) -> int:  # ast columns count UTF-8 bytes
        return line_starts[line - 1] + len(lines[line - 1].encode()[:byte_col].decode())

    ops = []  # (start, end, line, text) of each comparison operator's token
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.OP and tok.string in FLIP:
            (row, col), text = tok.start, tok.string  # tokenize columns count characters
            ops.append((line_starts[row - 1] + col, line_starts[row - 1] + col + len(text), row,
                        text))
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            for left, op, right in zip([node.left, *node.comparators], node.ops, node.comparators):
                if not isinstance(op, FLIPPED):
                    continue
                span = offset(left.end_lineno, left.end_col_offset), offset(right.lineno,
                                                                            right.col_offset)
                start, end, line, old = next(t for t in ops if span[0] <= t[0] and t[1] <= span[1])
                found.append(Mutant(path, line, start, end, old, FLIP[old]))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            start, end = (offset(node.lineno, node.col_offset),
                          offset(node.end_lineno, node.end_col_offset))
            old = source[start:end]
            if ast.literal_eval(old) == node.value:  # the text at its position is the literal
                found.extend(Mutant(path, node.lineno, start, end, old, str(node.value + step))
                             for step in (1, -1))
    return sorted(found, key=lambda m: (m.start, m.new))


def changed_lines(base: str) -> dict[str, set[int]]:
    """The lines of each src/bellsim file that differ from ``base``, by ``git diff``."""
    diff = subprocess.run(["git", "diff", "--unified=0", base, "--", "src/bellsim"], cwd=ROOT,
                          capture_output=True, text=True, check=True).stdout
    changed: dict[str, set[int]] = {}
    path = None
    for text in diff.splitlines():
        if text.startswith("+++ "):
            path = text[6:] if text.startswith("+++ b/") else None
        elif text.startswith("@@") and path is not None:
            first, count = re.match(r"@@ -\S+ \+(\d+)(?:,(\d+))? @@", text).groups()
            changed.setdefault(path, set()).update(range(int(first), int(first) + int(count or 1)))
    return changed


def copy_env(copy: str) -> dict:
    """The environment that imports bellsim from the copy and writes no bytecode anywhere."""
    return dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
                PYTHONPATH=os.pathsep.join(filter(None, [os.path.join(copy, "src"),
                                                         os.environ.get("PYTHONPATH")])))


def tier1(copy: str, timeout: float | None) -> str:
    """``passed``, ``failed`` or ``timed out``: Tier-1 against the copy's ``src``."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--rootdir", ROOT,
         "-c", os.path.join(ROOT, "pyproject.toml"), os.path.join(ROOT, "tests")],
        cwd=copy, env=copy_env(copy), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True)  # its own process group, so a timeout ends its children too
    try:
        return "passed" if proc.wait(timeout) == 0 else "failed"
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return "timed out"


def run(base: str | None, limit: int | None) -> None:
    changed = None if base is None else changed_lines(base)
    sources = {}
    for path in sorted(glob.glob("src/bellsim/*.py", root_dir=ROOT)):
        with open(os.path.join(ROOT, path), encoding="utf-8") as fh:
            sources[path] = fh.read()
    todo = [m for path, source in sources.items() for m in mutants(path, source)
            if changed is None or m.line in changed.get(path, ())]
    limit = len(todo) if limit is None else limit
    todo, skipped = todo[:limit], todo[limit:]
    scope = "every site" if base is None else f"lines changed against {base}"
    print(f"Mutants of src/bellsim, {scope}: {len(todo)} to run, {len(skipped)} skipped over "
          f"the limit.\n")
    if not todo:
        return
    with tempfile.TemporaryDirectory(prefix="bellsim-mutants-") as copy:
        shutil.copytree(os.path.join(ROOT, "src"), os.path.join(copy, "src"),
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        imported = subprocess.run([sys.executable, "-c", "import bellsim; print(bellsim.__file__)"],
                                  cwd=copy, env=copy_env(copy), capture_output=True, text=True)
        if not imported.stdout.startswith(os.path.join(copy, "src")):
            print(f"bellsim is not imported from the copy: {imported.stdout or imported.stderr}")
            return
        start = time.perf_counter()
        if tier1(copy, None) != "passed":
            print("Tier-1 fails on the unmutated copy, so no mutant was judged.")
            return
        timeout = max(60.0, 3 * (time.perf_counter() - start))
        verdicts = {"failed": [], "passed": [], "timed out": []}
        for i, m in enumerate(todo, 1):
            target = os.path.join(copy, m.path)
            source = sources[m.path]
            with open(target, "w", encoding="utf-8") as fh:
                fh.write(source[:m.start] + m.new + source[m.end:])
            began = time.perf_counter()
            verdict = tier1(copy, timeout)
            with open(target, "w", encoding="utf-8") as fh:
                fh.write(source)
            verdicts[verdict].append(m)
            print(f"[{i}/{len(todo)}] {verdict}: {m.path}:{m.line} `{m.old}` -> `{m.new}` "
                  f"({time.perf_counter() - began:.1f} s)", file=sys.stderr, flush=True)
    print(f"Killed {len(verdicts['failed'])}, survived {len(verdicts['passed'])}, "
          f"timed out {len(verdicts['timed out'])} (limit {timeout:.0f} s).\n")
    for label, key in (("Survivors", "passed"), ("Timed out", "timed out")):
        if verdicts[key]:
            print(f"{label}:\n")
            print("\n".join(f"- {m.path}:{m.line}: `{m.old}` -> `{m.new}`" for m in verdicts[key]))
            print()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--base", help="mutate only the lines changed against this git revision")
    parser.add_argument("--limit", type=int, help="run at most this many mutants")
    args = parser.parse_args()
    try:
        run(args.base, args.limit)
    except Exception as exc:  # report-only: a broken run is reported, never a failed step
        print(f"The mutation run stopped: {type(exc).__name__}: {exc}")


if __name__ == "__main__":
    main()
