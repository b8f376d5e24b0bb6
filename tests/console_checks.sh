#!/usr/bin/env bash
# Exit-code and output checks of the installed `alias-scope` console
# script, run by CI as `bash -eo pipefail tests/console_checks.sh` with
# RUNNER_TEMP set; tests/test_console_checks.py runs it with `alias-scope`
# as a shell function around `python -m alias_scope`.

# each rejected run exits 2 with one stderr line and no stdout
rejects() {
  status=0
  alias-scope "$@" > "$RUNNER_TEMP/rejected.out" 2> "$RUNNER_TEMP/rejected.err" || status=$?
  test "$status" -eq 2
  test ! -s "$RUNNER_TEMP/rejected.out"
  test "$(wc -l < "$RUNNER_TEMP/rejected.err")" -eq 1
}
alias-scope fold --freq 0.4 --stride 2
# a 10^7 x 10^7 grid (728 TiB) cannot be allocated: no traceback
rejects response --builtin binomial3 --grid 10000000
# noise that overflows float64 names sigma in its one stderr line;
# outside pytest a numpy RuntimeWarning would add lines
python -c "import numpy as np; np.save('$RUNNER_TEMP/ones.npy', np.ones((2, 8, 8)))"
rejects noise "$RUNNER_TEMP/ones.npy" --sigma 1e308 --out "$RUNNER_TEMP/noisy.npy"
grep -q sigma "$RUNNER_TEMP/rejected.err"
# features with NaN in their last row, read one band of rows at a
# time, are still rejected
python -c "import numpy as np; x = np.ones((2, 40, 40)); x[:, -1] = np.nan; np.save('$RUNNER_TEMP/nan.npy', x)"
rejects analyze --features "$RUNNER_TEMP/nan.npy" --cutoff 0.25
# a NaN in a row that no window covers (rows 8-11 at w8/s12) is
# still read and rejected
python -c "import numpy as np; x = np.ones((2, 40, 40)); x[1, 9, 5] = np.nan; np.save('$RUNNER_TEMP/nangap.npy', x)"
rejects analyze --features "$RUNNER_TEMP/nangap.npy" --cutoff 0.25 --window 8 --stride-px 12
# finite features whose transform overflows float64: one line, and
# no numpy warning, also from the map's pool threads
python -c "import numpy as np; r = np.random.default_rng(0); [np.save('$RUNNER_TEMP/edge%d.npy' % n, 1.7e308 * r.choice([-1.0, 1.0], (2, n, n))) for n in (16, 40)]"
rejects score "$RUNNER_TEMP/edge16.npy" --cutoff 0.25
rejects analyze --features "$RUNNER_TEMP/edge40.npy" --cutoff 0.25 --window 8 --stride-px 4
# probabilities that break the simplex only in their last row, which
# is read in the second of two blocks of rows, are still rejected
python -c "import numpy as np; p = np.full((2, 256, 256), 0.5); p[:, -1] = 0.7; np.save('$RUNNER_TEMP/probs.npy', p); np.save('$RUNNER_TEMP/map.npy', np.full((256, 256), 0.5)); g = np.zeros((256, 256), np.uint8); g[64:192, 64:192] = 1; np.save('$RUNNER_TEMP/labels.npy', g)"
rejects analyze --score "$RUNNER_TEMP/map.npy" --probs "$RUNNER_TEMP/probs.npy" \
  --pred "$RUNNER_TEMP/labels.npy" --gt "$RUNNER_TEMP/labels.npy"
# an external score map whose only NaN is its last value, read four
# leaves of 65536 values for its mean, is still rejected
python -c "import numpy as np; s = np.full((512, 512), 0.5); s[-1, -1] = np.nan; np.save('$RUNNER_TEMP/nanmap.npy', s)"
rejects analyze --score "$RUNNER_TEMP/nanmap.npy"
# config keys a command does not read, even with bad values, change
# nothing and stay out of the report's config
printf '[score]\nmode = bogus\n\n[analysis]\nwindow = abc\n' > "$RUNNER_TEMP/bad.cfg"
alias-scope fold --freq 0.4 --stride 2 --config "$RUNNER_TEMP/bad.cfg" \
  > "$RUNNER_TEMP/fold.json"
python -c "import json, sys; c = json.load(open(sys.argv[1]))['config']; assert c == {'out_format': 'json'}, c" \
  "$RUNNER_TEMP/fold.json"
# analyze --score rejects a flag that only --features reads
rejects analyze --score "$RUNNER_TEMP/map.npy" --cutoff 0.25
# --stride names the downsampler as the cutoff source, beside --cutoff
rejects score "$RUNNER_TEMP/ones.npy" --cutoff 0.25 --stride 2
# a config file may set only one of the two cutoff keys
printf '[cutoff]\nvalue = 0.25\nflc_stride = 4\n' > "$RUNNER_TEMP/both.cfg"
rejects score "$RUNNER_TEMP/ones.npy" --config "$RUNNER_TEMP/both.cfg"
# a response map and its report cannot share a file
rejects response --builtin binomial3 --map-out "$RUNNER_TEMP/x" --out "$RUNNER_TEMP/x"
test ! -e "$RUNNER_TEMP/x"
# a label mask given as features is rejected from its header, and
# daf writes no output
rejects analyze --features "$RUNNER_TEMP/labels.npy" --cutoff 0.25
rejects daf "$RUNNER_TEMP/labels.npy" --cutoff 0.25 --out "$RUNNER_TEMP/daf.npy"
test ! -e "$RUNNER_TEMP/daf.npy"
# daf streams one 256 x 256 channel at a time: a NaN in the last
# channel fails after two blocks are written, and leaves no output
python -c "import numpy as np; x = np.ones((3, 256, 256)); x[-1, -1, -1] = np.nan; np.save('$RUNNER_TEMP/nanlast.npy', x)"
rejects daf "$RUNNER_TEMP/nanlast.npy" --cutoff 0.25 --out "$RUNNER_TEMP/daf.npy"
test ! -e "$RUNNER_TEMP/daf.npy"
# daf run twice onto one --out: the second run moves the old output
# aside and unlinks it, so only the input and the output are left
mkdir "$RUNNER_TEMP/twice"
cp "$RUNNER_TEMP/ones.npy" "$RUNNER_TEMP/twice/in.npy"
for run in 1 2; do
  alias-scope daf "$RUNNER_TEMP/twice/in.npy" --cutoff 0.25 --out "$RUNNER_TEMP/twice/out.npy"
done
test "$(ls -A "$RUNNER_TEMP/twice" | tr '\n' ' ')" = "in.npy out.npy "
# a NaN in --probs is named by the probabilities' path, not blamed
# on the features
python -c "import numpy as np; p = np.full((2, 8, 8), 0.5); p[1, 5, 3] = np.nan; np.save('$RUNNER_TEMP/nanprobs.npy', p); np.save('$RUNNER_TEMP/gt8.npy', np.zeros((8, 8), np.uint8))"
rejects analyze --features "$RUNNER_TEMP/ones.npy" --probs "$RUNNER_TEMP/nanprobs.npy" \
  --gt "$RUNNER_TEMP/gt8.npy" --cutoff 0.25 --window 4 --stride-px 2
grep -qF "$RUNNER_TEMP/nanprobs.npy: " "$RUNNER_TEMP/rejected.err"
# a float file given as a label mask is rejected from its header,
# whatever its values
rejects metrics "$RUNNER_TEMP/nan.npy" "$RUNNER_TEMP/labels.npy"
grep -q "expected an integer label mask" "$RUNNER_TEMP/rejected.err"
# an empty conv kernel in a FreqMix head, or an empty kernel to
# response, is an input error, and freqmix writes no output
mkdir "$RUNNER_TEMP/params"
python -c "import numpy as np; d = '$RUNNER_TEMP/params/'; [np.save(d + n + '.npy', np.zeros(s)) for n, s in [('fc_low_weight', (2, 2)), ('fc_low_bias', 2), ('fc_high_weight', (2, 2)), ('fc_high_bias', 2), ('conv_low_kernel', (3, 3)), ('conv_low_bias', ()), ('conv_high_kernel', (0, 3)), ('conv_high_bias', ())]]; np.save('$RUNNER_TEMP/empty.npy', np.zeros((0, 3)))"
rejects freqmix "$RUNNER_TEMP/ones.npy" --params-dir "$RUNNER_TEMP/params" --out "$RUNNER_TEMP/mixed.npy"
test ! -e "$RUNNER_TEMP/mixed.npy"
rejects response --kernel-file "$RUNNER_TEMP/empty.npy"
# analyze --features keeps its map as the window grid: on 2 x 40 x 72
# at w8/s12 the last window row and column are clamped and rows
# 8-11 and 20-23 are in no window; the report is strict JSON with
# a finite map mean
python -c "import numpy as np; np.save('$RUNNER_TEMP/feat4072.npy', np.random.default_rng(0).standard_normal((2, 40, 72)))"
alias-scope analyze --features "$RUNNER_TEMP/feat4072.npy" --cutoff 0.25 --window 8 --stride-px 12 \
  > "$RUNNER_TEMP/features.json"
python -c "import json, math, sys; r = json.load(open(sys.argv[1]), parse_constant=lambda c: sys.exit('not strict JSON: ' + c)); m = r['result']['score_map']['mean']; assert math.isfinite(m), m" \
  "$RUNNER_TEMP/features.json"
# analyze --score writes its report's score_map block itself: the
# constants of an external map, and the map's finite mean
alias-scope analyze --score "$RUNNER_TEMP/map.npy" > "$RUNNER_TEMP/external.json"
python -c "import json, math, sys; s = json.load(open(sys.argv[1]))['result']['score_map']; m = s.pop('mean'); assert math.isfinite(m), m; assert s == {'window': 0, 'stride': 0, 'cutoff': 0.0, 'mode': 'external'} and type(s['cutoff']) is float, s" \
  "$RUNNER_TEMP/external.json"
# the --probs band is the union of every gt class's band whether or
# not --pred is given: on a valid simplex, a ramp map and gt with an
# ignore strip, both reports are strict JSON with equal curves
python -c "import numpy as np; p = np.full((2, 256, 256), 0.25); p[1, 64:192, 64:192] = 0.75; p[0] = 1 - p[1]; np.save('$RUNNER_TEMP/simplex.npy', p); np.save('$RUNNER_TEMP/ramp.npy', np.linspace(0, 1, 65536).reshape(256, 256)); g = np.load('$RUNNER_TEMP/labels.npy'); g[:8] = 255; np.save('$RUNNER_TEMP/gtignore.npy', g); np.save('$RUNNER_TEMP/predshift.npy', np.roll(g, 5, axis=1))"
for pred in "" "$RUNNER_TEMP/predshift.npy"; do
  alias-scope analyze --score "$RUNNER_TEMP/ramp.npy" --probs "$RUNNER_TEMP/simplex.npy" \
    --gt "$RUNNER_TEMP/gtignore.npy" ${pred:+--pred "$pred"} > "$RUNNER_TEMP/ce${pred:+pred}.json"
done
python -c "import json, sys; a, b = (json.load(open(f), parse_constant=lambda c: sys.exit('not strict JSON: ' + c))['result']['curves']['boundary_cross_entropy'] for f in sys.argv[1:]); assert a == b, (a, b)" \
  "$RUNNER_TEMP/ce.json" "$RUNNER_TEMP/cepred.json"
rejects analyze --score "$RUNNER_TEMP/map.npy" --probs "$RUNNER_TEMP/simplex.npy"
