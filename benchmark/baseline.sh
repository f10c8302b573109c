#!/bin/bash
# Records a full result set: for each workload one file holding the
# end-to-end and the traced run of both seeds, plus the per-layer table of
# the development seed. With no argument it re-records benchmark/baseline/;
# give another directory to record a set to `compare` against it.
# Takes about seven minutes on two cores.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
out="${1:-$here/baseline}"
# The stamp names the commit of the system measured, not of this package.
commit="$(git -C "$here" rev-parse --short=12 HEAD)"
if [ -n "$(git -C "$here" status --porcelain -- ../crates ../src ../Cargo.toml ../Cargo.lock)" ]; then
  commit="$commit+dirty"
fi
run() { cargo run --release --quiet --manifest-path "$here/Cargo.toml" -- "$@"; }
mkdir -p "$out"
rm -f "$out"/*.json
for workload in paper dedup fleet churn; do
  for seed in 20220405 20220406; do
    for trace in 0 1; do
      run run --workload "$workload" --seed "$seed" --trace "$trace" \
        --out "$out/$workload.json" --commit "$commit" > /dev/null
    done
  done
done
run layers --seed 20220405 "$out"/{paper,dedup,fleet,churn}.json > "$out/layers.md"
