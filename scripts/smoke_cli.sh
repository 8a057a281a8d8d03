#!/usr/bin/env bash
# Run every CLI command on the configs in configs/ and check the exit codes:
# both solves, and two solve-j at n = 3 from configs written here, must
# converge to a final residual of at most 1e-13 (a path endpoint left at the
# tolerance instead of rounding level fails) in no more Newton steps (the
# sum of the path_history iterations) and no more Newton solves (the
# path_history entries) than they take now, the analysis
# commands must exit 0, the flags a command does not take must be refused,
# a second solve-j and a second solve-dhym must write the same report.json
# and residual_history.csv, a second functionals the same functionals.json
# and coercivity.csv, and malformed, oversized or non-integrable configs and
# unwritable output paths must exit with their code, without a traceback or
# any output.
#
#     bash scripts/smoke_cli.sh [output-dir]
#
# Run from the repository root with jdhym importable (installed, or
# PYTHONPATH=src).  Artifacts go under output-dir (a new temporary directory
# by default).
set -euo pipefail

out="${1:-$(mktemp -d)}"
jdhym() { python -m jdhym.cli "$@"; }

# Newton steps and Newton solves of each solve's whole path on its config
# (a march that stops doubling its step, or a constant-f last stage marched
# over every target, exceeds the solves)
declare -A max_steps=([solve-j]=18 [solve-dhym]=12)
declare -A max_solves=([solve-j]=8 [solve-dhym]=10)
# check_solve REPORT NAME STEPS SOLVES: converged, at rounding level, within the caps
check_solve() {
  python -c "import json, sys; r = json.load(open(sys.argv[1])); sys.exit(r['status'] != 'converged' or r['final_residual'] > 1e-13)" \
    "$1"
  python -c "import json, sys; h = json.load(open(sys.argv[1]))['path_history']; steps = sum(e['iterations'] for e in h); sys.exit(f'{sys.argv[2]}: {steps} Newton steps in {len(h)} solves, more than {sys.argv[3]} in {sys.argv[4]}' if steps > int(sys.argv[3]) or len(h) > int(sys.argv[4]) else 0)" \
    "$@"
}
for cmd in solve-j solve-dhym; do
  jdhym "$cmd" --config "configs/$(echo "$cmd" | tr - _).json" --out "$out/$cmd"
  check_solve "$out/$cmd/report.json" "$cmd" "${max_steps[$cmd]}" "${max_solves[$cmd]}"
done
# n = 3, N = 8: chi = diag(1, 1.5, 2) plus one mode, omega0 = I, c = c0, f = 0
cat > "$out/solve_j_n3.json" <<'JSON'
{"geometry": {"n": 3, "N": 8},
 "chi": {"base": [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
                  [[0.0, 0.0], [1.5, 0.0], [0.0, 0.0]],
                  [[0.0, 0.0], [0.0, 0.0], [2.0, 0.0]]],
         "potential": [{"freq": [1, 0, 0, 0, 0, 0], "amp": 0.01}]},
 "omega0": {"base": [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
                     [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]],
                     [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]]},
 "c": "c0", "f": null, "solver": {"path_steps": 4}}
JSON
jdhym solve-j --config "$out/solve_j_n3.json" --out "$out/solve-j-n3"
check_solve "$out/solve-j-n3/report.json" "solve-j at n = 3" 9 5
# n = 3, N = 8: a constant chi = diag(1, 1.5, 2), omega0 = I plus one mode
cat > "$out/solve_j_n3_constant_chi.json" <<'JSON'
{"geometry": {"n": 3, "N": 8},
 "chi": {"base": [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
                  [[0.0, 0.0], [1.5, 0.0], [0.0, 0.0]],
                  [[0.0, 0.0], [0.0, 0.0], [2.0, 0.0]]]},
 "omega0": {"base": [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
                     [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]],
                     [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]],
            "potential": [{"freq": [0, 1, 0, 0, 0, 0], "amp": 0.01}]},
 "c": "c0", "f": null, "solver": {"path_steps": 4}}
JSON
jdhym solve-j --config "$out/solve_j_n3_constant_chi.json" --out "$out/solve-j-n3-constant-chi"
check_solve "$out/solve-j-n3-constant-chi/report.json" "solve-j at n = 3, constant chi" 5 4
# a second solve writes the same report and CSV, byte for byte
for cmd in solve-j solve-dhym; do
  jdhym "$cmd" --config "configs/$(echo "$cmd" | tr - _).json" --out "$out/$cmd-again"
  for artifact in report.json residual_history.csv; do
    cmp "$out/$cmd/$artifact" "$out/$cmd-again/$artifact"
  done
done
for mode in slope angle; do
  jdhym check-stability --config "configs/check_stability_$mode.json" \
    --out "$out/check-stability-$mode"
done
jdhym functionals --config configs/functionals.json --out "$out/functionals"
jdhym functionals --config configs/functionals.json --out "$out/functionals-again"
for artifact in functionals.json coercivity.csv; do
  cmp "$out/functionals/$artifact" "$out/functionals-again/$artifact"
done
jdhym verify-lemmas --trials 10000 --seed 1 --out "$out/verify-lemmas"
# one trial leaves most size groups of a pass empty
jdhym verify-lemmas --trials 1 --out "$out/one-trial"

# expect_exit CODE ARGS...: the command must exit with exactly CODE, and say
# why in a diagnostic, not in a Python traceback
expect_exit() {
  local want=$1 got=0 err
  shift
  err=$(jdhym "$@" 2>&1 >/dev/null) || got=$?
  if [ "$got" -ne "$want" ]; then
    echo "expected exit $want, got $got: jdhym $*" >&2
    exit 1
  fi
  if [[ "$err" == *Traceback* ]]; then
    printf 'traceback from jdhym %s:\n%s\n' "$*" "$err" >&2
    exit 1
  fi
}
# only verify-lemmas takes --trials and --seed (argparse refuses with 2)
expect_exit 2 solve-j --config configs/solve_j.json --out "$out/refused" --trials 3
# a verification that draws no trial is a usage error
expect_exit 1 verify-lemmas --trials 0 --out "$out/no-trials"
test ! -e "$out/no-trials/lemmas.json"
# an out-of-range analysis value is a malformed config: exit 1, no output directory
# with_value CONFIG KEY VALUE: a copy of CONFIG with KEY set to VALUE, under $out
with_value() {
  python -c "import json, sys; c = json.load(open(sys.argv[1])); c[sys.argv[2]] = json.loads(sys.argv[3]); json.dump(c, open(sys.argv[4], 'w'))" \
    "$1" "$2" "$3" "$out/$2.json"
  echo "$out/$2.json"
}
expect_exit 1 check-stability --config "$(with_value configs/check_stability_angle.json samples 4)" \
  --out "$out/few-samples"
test ! -e "$out/few-samples"
for mode in slope angle; do
  expect_exit 1 check-stability --config "$(with_value "configs/check_stability_$mode.json" datasets '[]')" \
    --out "$out/no-datasets-$mode"
  test ! -e "$out/no-datasets-$mode"
done
# datasets that disagree on n
expect_exit 1 check-stability --config "$(with_value configs/check_stability_angle.json datasets \
  '[{"p": 1, "n": 2, "a": [3.0776835371752527, 1.0], "label": "V[1]"},
    {"p": 2, "n": 2, "a": [18.944271909999156, 6.1553670743505054, 2.0], "label": "V=M"},
    {"p": 1, "n": 3, "a": [3.0776835371752527, 1.0], "label": "W[1]"}]')" --out "$out/mixed-n"
test ! -e "$out/mixed-n"
expect_exit 1 functionals --config "$(with_value configs/functionals.json t_steps 7)" \
  --out "$out/odd-t-steps"
test ! -e "$out/odd-t-steps"
# so is a count past what one run can do, before anything is allocated
expect_exit 1 check-stability --config "$(with_value configs/check_stability_angle.json samples 1e300)" \
  --out "$out/many-samples"
test ! -e "$out/many-samples"
expect_exit 1 solve-j --config "$(with_value configs/solve_j.json solver '{"path_steps": 1099511627776}')" \
  --out "$out/many-path-steps"
test ! -e "$out/many-path-steps"
expect_exit 1 functionals --config "$(with_value configs/functionals.json t_steps 1099511627776)" \
  --out "$out/many-t-steps"
test ! -e "$out/many-t-steps"
expect_exit 1 verify-lemmas --trials 1000000000000 --out "$out/many-trials"
test ! -e "$out/many-trials/lemmas.json"
# so is a config value of the wrong type
expect_exit 1 functionals --config "$(with_value configs/functionals.json phi_samples 5)" \
  --out "$out/samples-not-a-list"
test ! -e "$out/samples-not-a-list"
expect_exit 1 functionals --config "$(with_value configs/functionals.json phi_samples '[null]')" \
  --out "$out/null-sample"
test ! -e "$out/null-sample"
# a grid beyond physical memory is refused before any field is built (exit 2, nothing written)
expect_exit 2 functionals --config "$(with_value configs/functionals.json geometry '{"n": 2, "N": 1024}')" \
  --out "$out/huge-grid"
test ! -e "$out/huge-grid"
# a chi that is not Kahler on the grid is refused (exit 2, nothing written),
# also when c is a number and no c0 is computed
expect_exit 2 solve-j --config "$(with_value "$(with_value configs/solve_j.json c 3)" chi \
  '{"base": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]]],
    "potential": [{"freq": [1, 0, 0, 0], "amp": 0.2}]}')" --out "$out/non-kahler-chi"
test ! -e "$out/non-kahler-chi"
# data that break the integrability hypotheses are refused (exit 2, nothing
# written): the identity with a wrong mean of f, the sign with c below c0
expect_exit 2 solve-j --config "$(with_value configs/solve_j.json f 0.25)" --out "$out/j-identity"
test ! -e "$out/j-identity"
expect_exit 2 solve-j --config "$(with_value configs/solve_j.json c 2.5)" --out "$out/j-sign"
test ! -e "$out/j-sign"
expect_exit 2 solve-dhym --config "$(with_value configs/solve_dhym.json f -0.004)" \
  --out "$out/dhym-identity"
test ! -e "$out/dhym-identity"
# an output path that is a file or lies below one (exit 1, the file kept)
echo kept > "$out/a-file"
expect_exit 1 check-stability --config configs/check_stability_slope.json --out "$out/a-file"
expect_exit 1 check-stability --config configs/check_stability_slope.json --out "$out/a-file/below"
test "$(cat "$out/a-file")" = kept
# without --out, where output_dir would name the directory
expect_exit 1 solve-j --config "$(with_value configs/solve_j.json output_dir 5)"
test ! -e 5
echo "CLI smoke test passed: $out"
