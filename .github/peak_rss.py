"""Run the bellsim CLI once and report the process's peak memory.

Usage: ``PYTHONPATH=src python .github/peak_rss.py <subcommand> [flags ...]``

Runs ``bellsim.cli.main`` on the arguments, prints the peak resident set size
in kB as the last line of stderr and exits with ``main``'s code.  The peak is
VmHWM from /proc/self/status, or ``ru_maxrss`` where there is none.
"""

import resource
import sys

from bellsim.cli import main

code = main(sys.argv[1:])
try:  # a child started by vfork and exec inherits its parent's ru_maxrss
    with open("/proc/self/status", encoding="ascii") as fh:
        peak_kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
except (OSError, StopIteration):
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(peak_kb, file=sys.stderr)
sys.exit(code)
