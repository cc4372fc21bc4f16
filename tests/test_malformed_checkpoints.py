"""Randomized malformed-checkpoint suite, runnable standalone:

    pytest tests/test_malformed_checkpoints.py

Breaks one small checkpoint in seeded random ways (truncation, byte flips,
deleted, repeated or reordered header lines, bad modes, bad vocabularies)
and runs each through ``salign eval``: every broken header exits 1 with one
stderr line naming the file. A flip in the data section may also load, but
no case raises out of ``main``.
"""

import contextlib
import io
import json

import numpy as np
import pytest

from salign.cli import main
from salign.data import SynthConfig, gen_synthetic, save_jsonl
from salign.model import ModelConfig, ModelParams

TRIALS_TRUNCATE = 60
TRIALS_HEADER_FLIP = 300
TRIALS_LINES = 60
TRIALS_MODE = 30
TRIALS_VOCAB = 60
TRIALS_DATA_FLIP = 60


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """An untrained event checkpoint over a small corpus's vocabulary, its
    bytes, and the corpus."""
    root = tmp_path_factory.mktemp("fuzz")
    corpus = gen_synthetic(SynthConfig(count=8, vocab_size=20, trigger_count=2, min_len=3,
                                       max_len=6, seed=0))
    save_jsonl(corpus, root / "data.jsonl")
    config = ModelConfig(vocab_size=len(corpus.vocab), embed_dim=4, max_len=6)
    ModelParams(config, seed=0).save(root / "good.bin", config, corpus.vocab)
    return root, (root / "good.bin").read_bytes()


def run_eval(root, raw):
    """Exit code and stderr lines of ``eval`` on a checkpoint of these bytes."""
    path = root / "case.bin"
    path.write_bytes(raw)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["eval", "--checkpoint", str(path), "--data", str(root / "data.jsonl")])
    return code, err.getvalue().splitlines()


def assert_refused(root, raw, case):
    code, lines = run_eval(root, raw)
    assert code == 1 and len(lines) == 1, (case, code, lines)
    assert lines[0].startswith(f"error: checkpoint {root / 'case.bin'}: "), (case, lines)


def split(raw):
    head, _, blob = raw.partition(b"\n\n")
    return head.decode("ascii").split("\n"), blob


def join(lines, blob):
    return "\n".join(lines).encode("ascii") + b"\n\n" + blob


def token_bytes(raw):
    """Offsets of the characters of every non-reserved token in the vocab
    line: a flip there may leave a valid, renamed token."""
    lines, _ = split(raw)
    start = len(lines[0]) + len(lines[1]) + 2 + len("vocab ")
    offsets, pos = set(), start + 1  # past the opening bracket
    for i, token in enumerate(json.loads(lines[2][len("vocab "):])):
        width = len(json.dumps(token))
        if i >= 3:
            offsets.update(range(pos + 1, pos + width - 1))
        pos += width + 1  # the token and its comma
    return offsets


def test_truncation_at_random_offsets(files):
    root, raw = files
    rng = np.random.default_rng(500)
    for k in rng.integers(0, len(raw), size=TRIALS_TRUNCATE):
        assert_refused(root, raw[:k], f"truncated at {k}")


def test_header_byte_flips(files):
    root, raw = files
    rng = np.random.default_rng(600)
    header_end = raw.index(b"\n\n") + 2
    renames = token_bytes(raw)
    for _ in range(TRIALS_HEADER_FLIP):
        flipped = bytearray(raw)
        pos = int(rng.integers(0, header_end))
        flipped[pos] ^= int(rng.integers(1, 256))
        if pos in renames:
            code, lines = run_eval(root, bytes(flipped))
            assert code == 0 or (code == 1 and len(lines) == 1), (pos, code, lines)
        else:
            assert_refused(root, bytes(flipped), f"flip at {pos}")


def test_other_whitespace_in_place_of_each_header_separator(files):
    # a random flip seldom turns a space into a tab, so every such swap runs
    root, raw = files
    header = raw[: raw.index(b"\n\n")]
    for pos in (p for p, byte in enumerate(header) if byte in b" \n"):
        for other in b" \n\t\r\x0b\x0c\x1c\x1d\x1e\x1f":
            if other != header[pos]:
                swapped = raw[:pos] + bytes([other]) + raw[pos + 1:]
                assert_refused(root, swapped, f"{other!r} at {pos}")


def test_deleted_repeated_or_reordered_header_lines(files):
    root, raw = files
    lines, blob = split(raw)
    rng = np.random.default_rng(700)
    for _ in range(TRIALS_LINES):
        edited = list(lines)
        i, j = rng.choice(len(lines), size=2, replace=False)
        action = ("delete", "repeat", "move")[int(rng.integers(0, 3))]
        if action == "delete":
            del edited[i]
        elif action == "repeat":
            edited.insert(j, edited[i])
        else:
            edited.insert(j, edited.pop(i))
        assert_refused(root, join(edited, blob), f"{action} line {i} at {j}")


def test_bad_or_missing_mode(files):
    root, raw = files
    lines, blob = split(raw)
    rng = np.random.default_rng(800)
    fixed = ["mode", "mode ", "mode  event", "mode event ", "mode\tevent", "mode Event",
             "mode span", "event", "modes event", None]
    for trial in range(TRIALS_MODE):
        if trial < len(fixed):
            line = fixed[trial]
        else:
            letters = rng.choice(list("abcdeqtv "), size=int(rng.integers(1, 8)))
            line = "mode " + "".join(letters)
            if line[5:] in ("event", "qa"):
                continue
        edited = list(lines)
        if line is None:
            del edited[1]
        else:
            edited[1] = line
        assert_refused(root, join(edited, blob), f"mode line {line!r}")


def test_bad_vocabulary_lines(files):
    root, raw = files
    lines, blob = split(raw)
    tokens = json.loads(lines[2][len("vocab "):])
    rng = np.random.default_rng(900)
    for trial in range(TRIALS_VOCAB):
        edited = list(tokens)
        case = ("duplicate", "reserved", "non_string", "count", "not_a_list")[trial % 5]
        i = int(rng.integers(3, len(edited)))
        if case == "duplicate":  # same count, one token twice
            edited[i] = edited[int(rng.choice([k for k in range(len(edited)) if k != i]))]
        elif case == "reserved":  # a reserved token dropped, moved past the prefix or renamed
            r, how = int(rng.integers(0, 3)), int(rng.integers(0, 3))
            if how == 0:
                del edited[r]
            elif how == 1:
                edited.insert(i, edited.pop(r))
            else:
                edited[r] = edited[r].upper()
        elif case == "non_string":
            edited[i] = [3, None, True, 2.5, ["w"], {"w": 1}][int(rng.integers(0, 6))]
        elif case == "count":  # one token too few, or some too many
            if rng.random() < 0.5:
                del edited[i]
            else:
                edited += [f"new{k}" for k in range(int(rng.integers(1, 4)))]
        else:
            edited = {"tokens": edited} if rng.random() < 0.5 else len(edited)
        assert_refused(root, join([*lines[:2], "vocab " + json.dumps(edited), *lines[3:]], blob),
                       f"{case} {edited!r}")


def test_data_section_flips_never_raise(files):
    root, raw = files
    rng = np.random.default_rng(1000)
    start = raw.index(b"\n\n") + 2
    loaded = 0
    for _ in range(TRIALS_DATA_FLIP):
        flipped = bytearray(raw)
        pos = int(rng.integers(start, len(raw)))
        flipped[pos] ^= int(rng.integers(1, 256))
        code, lines = run_eval(root, bytes(flipped))
        assert code == 0 or (code == 1 and len(lines) == 1), (pos, code, lines)
        loaded += code == 0
    assert loaded > 0  # most flips leave finite values


def test_trial_budget():
    assert (TRIALS_TRUNCATE + TRIALS_HEADER_FLIP + TRIALS_LINES + TRIALS_MODE + TRIALS_VOCAB
            + TRIALS_DATA_FLIP) >= 350
