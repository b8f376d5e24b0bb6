#!/usr/bin/env bash
# Smoke runs of the scripts in scripts/, each checked for the claim it
# prints, not only for its exit code: each exits 0 when its claim fails.
# CI runs it as `bash -eo pipefail tests/smoke_scripts.sh` with
# PYTHONPATH=src and RUNNER_TEMP set; tests/test_console_checks.py runs it
# the same way.

scripts="$(dirname "$0")/../scripts"
out="$RUNNER_TEMP/smoke.out"
python "$scripts/blur_trend.py" --trials 2 | tee "$out"
grep -qx "strictly decreasing in every trial: True" "$out"
python "$scripts/noise_trend.py" --trials 2 | tee "$out"
grep -qx "strictly increasing across levels in every trial: True" "$out"
python "$scripts/fold_sweep.py" | tee "$out"
grep -qx "mismatches: 0" "$out"
maps="$RUNNER_TEMP/response_maps"
python "$scripts/filter_responses.py" --grid 16 --out-dir "$maps"
for name in binomial3.npy binomial5.npy binomial7.npy ideal_lowpass.npy profiles.csv; do
  test -s "$maps/$name"
done
