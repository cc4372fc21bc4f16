#!/usr/bin/env bash
# What each command of tools/cli_session.sh costs in a fresh process.
#
#   tools/command_cost.sh TREE OUT MODE [RUNS]      (MODE is event or qa)
#
# Runs the session's commands in order from the source tree TREE, each RUNS
# times (default 5) in its own `python3 -m salign.cli` process, writing under
# OUT as cli_session.sh does. For each command it prints one line: the median
# over the runs of the process's peak RSS (MB), minor page faults, and user
# and system CPU seconds, taken from getrusage of the finished child. The
# table also goes to OUT/cost.txt; the commands' own output goes to
# OUT/log.txt. Run it for two trees to compare what a change costs each
# command.
set -eu
if [ $# -ne 3 ] && [ $# -ne 4 ]; then
    echo "usage: $0 TREE OUT MODE [RUNS]" >&2
    exit 1
fi
here=$(cd "$(dirname "$0")" && pwd)
runs=${4:-5}
mkdir -p "$2"
table=$(cd "$2" && pwd)/cost.txt
printf '%-24s %8s %8s %7s %7s\n' command rss_mb minflt user_s sys_s | tee "$table"

salign() {
    echo "\$ salign $*" >> log.txt
    python3 - "$runs" "$@" <<'PY' 2>> log.txt | tee -a "$table"
import os
import statistics
import subprocess
import sys

runs, argv = int(sys.argv[1]), sys.argv[2:]
rows = []
for _ in range(runs):
    with open("log.txt", "a") as log:
        child = subprocess.Popen([sys.executable, "-m", "salign.cli", *argv],
                                 stdin=subprocess.DEVNULL, stdout=log, stderr=log)
    _, status, usage = os.wait4(child.pid, 0)  # this child's own figures
    if os.waitstatus_to_exitcode(status):
        print(f"exit {os.waitstatus_to_exitcode(status)}", file=sys.stderr)
    rows.append((usage.ru_maxrss / 1024.0, usage.ru_minflt, usage.ru_utime, usage.ru_stime))
rss, flt, user, system = (statistics.median(col) for col in zip(*rows))
name = argv[0]
if name in ("synth", "train", "eval", "verify"):  # which file or run it makes
    name += " " + argv[argv.index("--out") + 1].split("/")[0]
print(f"{name:<24} {rss:8.1f} {flt:8.0f} {user:7.3f} {system:7.3f}")
PY
}
. "$here/cli_session.sh" "$1" "$2" "$3"
