#!/bin/sh
# The whole toolkit through the installed `focusface` command.
#
# Uses a reduced corpus and budget so the walkthrough stays under two
# minutes; drop the --set overrides for the real defaults.
set -e

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
echo "working in $WORK"

echo; echo "== exact parameter accounting for the full-scale architecture =="
focusface paramcount --scale paper --freeze

echo; echo "== finite-difference verification of every op and loss =="
focusface gradcheck --seed 1 | tail -3

echo; echo "== generate a corpus (deterministic in --dataset-seed) =="
focusface gen-data --out "$WORK/corpus" --dataset-seed 5 \
    --set num_identities=20 --set samples_per_identity=8

echo; echo "== train (reduced budget for the demo) =="
focusface train --data "$WORK/corpus" --out "$WORK/run" --seed 0 \
    --set max_iterations=150 --set milestones=75,120 --set eval_interval=50

echo; echo "== the echoed config reproduces the run =="
head -4 "$WORK/run/config.txt"

echo; echo "== evaluate the best checkpoint in both verification settings =="
focusface eval --checkpoint "$WORK/run/best.ckpt" --data "$WORK/corpus" \
    --mode um --split test --out "$WORK/reports"
focusface eval --checkpoint "$WORK/run/best.ckpt" --data "$WORK/corpus" \
    --mode mm --split test --out "$WORK/reports"

echo; echo "== mask-detection ROC =="
focusface eval --checkpoint "$WORK/run/best.ckpt" --data "$WORK/corpus" \
    --mode mask-roc --split test --out "$WORK/reports"

echo; echo "== export the full ROC sweep as CSV =="
focusface roc-export --checkpoint "$WORK/run/best.ckpt" --data "$WORK/corpus" \
    --mode um --out "$WORK/roc.csv"
head -4 "$WORK/roc.csv"

echo; echo "== baseline training for comparison (margin losses only) =="
focusface train --data "$WORK/corpus" --out "$WORK/baseline" --seed 0 --baseline \
    --set max_iterations=150 --set milestones=75,120 --set eval_interval=50 \
    | tail -2

echo; echo "== frozen-backbone fine-tuning from the trained checkpoint =="
focusface train --data "$WORK/corpus" --out "$WORK/frozen" --seed 1 \
    --freeze-backbone --init-checkpoint "$WORK/run/best.ckpt" \
    --set max_iterations=60 --set milestones=30,48 --set eval_interval=30 \
    | head -1

echo; echo "walkthrough done"
