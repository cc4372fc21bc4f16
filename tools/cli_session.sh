#!/usr/bin/env bash
# One fixed salign command-line session, run from the source tree TREE.
#
#   tools/cli_session.sh TREE OUT MODE        (MODE is event or qa)
#
# Writes everything under OUT: the three synthetic splits, a lambda 0 and a
# lambda 0.5 (all levels) checkpoint with their train logs, eval metrics and
# verification reports for both, the compare report, the heatmaps of
# `saliency --baseline-checkpoint`, a second lambda 0.5 checkpoint in OUT/emb
# whose training starts from OUT/vectors.txt (16 values, written by awk, for
# every other token of the training vocabulary in its first-seen order:
# the reserved tokens, then each train.jsonl record's tokens and then its
# query), and in OUT/log.txt every command with
# its printed text and any nonzero exit code. Runs at one BLAS thread and writes
# no bytecode into TREE. Run it for two trees and `diff -r` the two OUT
# directories to check that a change leaves the CLI's results byte-identical.
set -eu
if [ $# -ne 3 ]; then
    echo "usage: $0 TREE OUT MODE" >&2
    exit 1
fi
tree=$(cd "$1" && pwd)
mode=$3
mkdir -p "$2"
cd "$2"
export PYTHONPATH="$tree/src" PYTHONDONTWRITEBYTECODE=1
export OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 MKL_NUM_THREADS=1
unset SF_SEED
: > log.txt

# tools/command_cost.sh sources this file with its own salign defined
if ! declare -F salign > /dev/null; then
    salign() {
        echo "\$ salign $*" >> log.txt
        python3 -m salign.cli "$@" >> log.txt 2>&1 || echo "exit $?" >> log.txt
    }
fi

corpus="--mode $mode --vocab-size 100 --triggers 5 --min-len 6 --max-len 14"
salign synth $corpus --count 600 --seed 1 --out train.jsonl
salign synth $corpus --count 200 --seed 2 --out dev.jsonl
salign synth $corpus --count 300 --seed 3 --out test.jsonl
train="train --train train.jsonl --dev dev.jsonl --max-len 12 --embed-dim 16 --epochs 8"
salign $train --lr 0.005 --seed 4 --lambda 0 --out base
salign $train --lr 0.005 --seed 4 --lambda 0.5 --levels word,intermediate,decision --out sal
python3 -c 'from salign.data import load_jsonl
print("\n".join(load_jsonl("train.jsonl").vocab.tokens))' |
awk 'NR % 2 { printf "%s", $1
    for (i = 1; i <= 16; i++) printf " %.4f", (NR * 7 + i * 13) % 97 / 97 - 0.5
    print "" }' > vectors.txt
salign $train --lr 0.005 --seed 4 --lambda 0.5 --levels word,intermediate,decision \
    --embeddings vectors.txt --out emb
for run in base sal; do
    salign eval --checkpoint $run/checkpoint.bin --data test.jsonl --out $run/metrics.txt
    salign verify --checkpoint $run/checkpoint.bin --data test.jsonl --out $run/verification.txt
done
salign compare --checkpoint-a base/checkpoint.bin --checkpoint-b sal/checkpoint.bin \
    --data test.jsonl --out compare.txt
salign saliency --checkpoint sal/checkpoint.bin --baseline-checkpoint base/checkpoint.bin \
    --data test.jsonl --limit 300 --out heatmaps
salign gradcheck --examples 2
salign gradcheck --n 40 --examples 1
