"""Each command's Python heap peak over one cli_session.sh session.

    python3 tools/heap_peaks.py TREE MODE [OUT]      (MODE is event or qa)

Runs the commands of tools/cli_session.sh, in its order and with its
arguments, from the source tree TREE, all in this one process as
benchmark/run.py does: each command starts from a collected heap and runs
through salign.cli.main. For each command it prints the tracemalloc peak
of what the command allocated (MB), and last the command with the highest
peak: in a one-process run such as the benchmark's, that command sets the
process's peak RSS. The session's files and the commands' output
(OUT/log.txt) go under OUT, by default a temporary directory removed at the
end. It only reports: there is no threshold. Tracing slows every command
down, so the tool gives no timings.
"""

from __future__ import annotations

import contextlib
import gc
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

# cli_session.sh's salign, replaced: send the arguments to this process and
# wait for the exit code, so that the session's own steps (awk) run between
SESSION = r"""
salign() {
    printf '%s\0' "$@" >&"$SALIGN_REQUEST"
    printf '\n' >&"$SALIGN_REQUEST"
    read -r code <&"$SALIGN_REPLY"
}
. "$0" "$@"
"""


def label(argv):
    """The command, and for those cli_session.sh runs twice, what it makes."""
    name = argv[0]
    if name in ("synth", "train", "eval", "verify"):
        name += " " + argv[argv.index("--out") + 1].split("/")[0]
    return name


def run_session(tree, mode, out):
    """(label, peak bytes) per command of one session written under out."""
    sys.path.insert(0, str(tree / "src"))
    from salign import cli

    out.mkdir(parents=True, exist_ok=True)
    request_r, request_w = os.pipe()
    reply_r, reply_w = os.pipe()
    env = dict(os.environ, SALIGN_REQUEST=str(request_w), SALIGN_REPLY=str(reply_r))
    session = Path(__file__).resolve().parent / "cli_session.sh"
    shell = subprocess.Popen(
        ["bash", "-c", SESSION, str(session), str(tree), str(out), mode],
        env=env,
        pass_fds=(request_w, reply_r),
    )
    os.close(request_w)
    os.close(reply_r)
    os.chdir(out)  # where cli_session.sh runs its commands
    peaks = []
    with os.fdopen(request_r, "rb") as requests, os.fdopen(reply_w, "w") as replies:
        for line in requests:
            argv = [a.decode() for a in line.rstrip(b"\n").split(b"\0")[:-1]]
            with open("log.txt", "a", encoding="utf-8") as log:
                print("$ salign " + " ".join(argv), file=log, flush=True)
                with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                    gc.collect()
                    tracemalloc.start()
                    try:
                        code = cli.main(argv)
                        peak = tracemalloc.get_traced_memory()[1]
                    finally:
                        tracemalloc.stop()
                if code:
                    print(f"exit {code}", file=log)
            peaks.append((label(argv), peak))
            print(f"{label(argv):<24} {peak / 2**20:8.2f}", flush=True)
            print(code, file=replies, flush=True)
    if shell.wait():
        raise SystemExit(f"cli_session.sh exited {shell.returncode}")
    return peaks


def main(argv):
    if len(argv) not in (2, 3) or argv[1] not in ("event", "qa"):
        print("usage: heap_peaks.py TREE MODE [OUT]", file=sys.stderr)
        return 1
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # as cli_session.sh sets them, before numpy loads
    os.environ.pop("SF_SEED", None)
    sys.dont_write_bytecode = True
    tree = Path(argv[0]).resolve()
    print(f"{'command':<24} {'heap_mb':>8}")
    with contextlib.ExitStack() as stack:
        if len(argv) == 3:
            out = Path(argv[2]).resolve()
        else:
            out = Path(stack.enter_context(tempfile.TemporaryDirectory(prefix="heap_peaks-")))
        peaks = run_session(tree, argv[1], out)
        os.chdir(tree)  # leave out before a temporary one is removed
    name, peak = max(peaks, key=lambda p: p[1])
    print(f"highest: {name} at {peak / 2**20:.2f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
