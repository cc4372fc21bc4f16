"""How far apart the checkpoints of two cli_session.sh runs are.

    python3 tools/checkpoint_diff.py OUT_A OUT_B

For each checkpoint.bin under OUT_A, in path order, prints its path, the
largest over its tensors of max |a - b| / max |a| against the file at the
same path under OUT_B, and, if that is not 0, the tensor that gives it. A
file missing from OUT_B, or one whose mode, vocabulary, tensor names or
shapes differ, is reported as such. It only reports: where `diff -r` can
say only that two checkpoints differ, this says by how much.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from salign.model import load_checkpoint  # noqa: E402


def relative_gap(a, b):
    """max |a - b| / max |a|; 0 for equal arrays, inf if only a is all zero."""
    gap, scale = np.abs(a - b).max(initial=0.0), np.abs(a).max(initial=0.0)
    return 0.0 if gap == 0.0 else gap / scale if scale else np.inf


def main(argv):
    if len(argv) != 2:
        print("usage: checkpoint_diff.py OUT_A OUT_B", file=sys.stderr)
        return 1
    root_a, root_b = map(Path, argv)
    for path_a in sorted(root_a.rglob("checkpoint.bin")):
        rel = path_a.relative_to(root_a)
        path_b = root_b / rel
        if not path_b.is_file():
            print(f"{rel}  missing under {root_b}")
            continue
        (mode_a, tokens_a, a), (mode_b, tokens_b, b) = map(load_checkpoint, (path_a, path_b))
        if (mode_a, tokens_a) != (mode_b, tokens_b):
            print(f"{rel}  mode or vocabulary differs")
            continue
        if {k: v.shape for k, v in a.items()} != {k: v.shape for k, v in b.items()}:
            print(f"{rel}  tensor names or shapes differ")
            continue
        gap, name = max((relative_gap(a[name], b[name]), name) for name in a)
        print(f"{rel}  {gap:.3g}" + (f"  ({name})" if gap else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
