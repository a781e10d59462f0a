#!/usr/bin/env bash
# End-to-end command-line session: simulate a dataset, fit it, test terms,
# export residual diagnostics, and run a small coverage study.
set -euo pipefail

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
echo "working in $work"

# 1. one simulated dataset from the reference design
zitpo simulate --n 1500 --xi 0.25 --trunc 0.125 --seed 42 --out "$work/data.csv"

# 2. fit both model parts with all five covariates
zitpo fit \
  --data "$work/data.csv" --response y --trunc 0.125 \
  --pi-formula "normal, poisson, bernoulli1, bernoulli2, exponential" \
  --mu-formula "normal, poisson, bernoulli1, bernoulli2, exponential" \
  --out "$work/fit.json"

# 2b. the same fit with the shape frozen at 0.2, keeping the Newton trace
zitpo fit \
  --data "$work/data.csv" --response y --trunc 0.125 \
  --pi-formula "normal, poisson, bernoulli1, bernoulli2, exponential" \
  --mu-formula "normal, poisson, bernoulli1, bernoulli2, exponential" \
  --fix-xi 0.2 --trace --out "$work/fit_fixed.json"

# 3. marginal likelihood-ratio tests for two terms
zitpo lrt \
  --data "$work/data.csv" --response y --trunc 0.125 \
  --pi-formula "normal, poisson, bernoulli1, bernoulli2, exponential" \
  --mu-formula "normal, poisson, bernoulli1, bernoulli2, exponential" \
  --drop "poisson,exponential" --out "$work/lrt.json"

# 4. residual QQ export, reusing the stored fit (no refit)
zitpo diagnose --report "$work/fit.json" --data "$work/data.csv" \
  --out-csv "$work/qq.csv"
head -3 "$work/qq.csv"

# 5. a quick coverage study (the full battery is --preset reference-grid)
zitpo coverage --preset reference --n 400 --reps 10 --xi 0.25 --seed 1 \
  --out "$work/coverage.json"

echo "artifacts:"
ls -l "$work"
