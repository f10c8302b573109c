#!/bin/bash
# Alternating-pair benchmark of the working tree against a base revision.
#
#   scripts/bench-pairs.sh <base-rev> [pairs] [out.json]
#
# Builds the repository benchmark (benchmark/) of <base-rev> and of the
# working tree, each in its own git worktree and target directory. The
# working tree enters as `git stash create`'s commit, so changes to
# tracked files, staged or not, are measured without touching the
# checkout (stage new files first). Then runs [pairs] (default 10)
# alternating pairs of `run --workload W --seed 20220405` on every
# workload, one pair on the held-out seed 20220406, and one `--trace 1`
# run per side on fleet for obs.overhead_frac. Writes out.json (default
# bench-pairs.json): per workload and end-to-end metric the base and
# change median with q1..q3, the per-pair change/base ratio's median
# with q1..q3 and the change's wins, plus the core count, the date,
# both revisions and each side's digests.
#
# Exits 1 when a run fails its own checks, a simulated metric's ratio
# is not exactly 1 or a digest differs, so a change that claims to move
# no simulated number is held to it. benchmark/ is only read: every
# build and every file a run writes stays in a temporary directory.
set -euo pipefail
[ $# -ge 1 ] || { sed -n '2,22p' "$0" >&2; exit 2; }
base_rev=$(git rev-parse --verify "$1^{commit}")
pairs=${2:-10}
out=$(realpath -m "${3:-bench-pairs.json}")
repo=$(git rev-parse --show-toplevel)
change_rev=$(git -C "$repo" stash create)
change_rev=${change_rev:-$(git -C "$repo" rev-parse HEAD)}
workloads=(paper dedup fleet churn)
seed=20220405
held_out=20220406

tmp=$(mktemp -d)
cleanup() {
  for side in base change; do
    git -C "$repo" worktree remove --force "$tmp/$side" 2>/dev/null || true
  done
  git -C "$repo" worktree prune
  rm -rf "$tmp"
}
trap cleanup EXIT

for side in base change; do
  rev=$base_rev
  [ "$side" = change ] && rev=$change_rev
  git -C "$repo" worktree add --quiet --detach "$tmp/$side" "$rev"
  cargo build --release --quiet --offline --locked \
    --manifest-path "$tmp/$side/benchmark/Cargo.toml" --target-dir "$tmp/target-$side"
done

# run <side> <tag> <args...>: one benchmark run, its output kept.
run() {
  local side=$1 tag=$2
  shift 2
  (cd "$tmp/$side" && "$tmp/target-$side/release/medes-benchmark" run "$@") \
    > "$tmp/runs/$side.$tag.out"
}
mkdir -p "$tmp/runs"
for w in "${workloads[@]}"; do
  for ((i = 0; i < pairs; i++)); do
    order=(base change)
    ((i % 2)) && order=(change base)
    for side in "${order[@]}"; do
      echo "pair $i $w $side" >&2
      run "$side" "$w.$i" --workload "$w" --seed "$seed"
    done
  done
  for side in base change; do
    run "$side" "$w.held" --workload "$w" --seed "$held_out"
  done
done
for side in base change; do
  run "$side" fleet.traced --workload fleet --seed "$seed" --trace 1
done

python3 - "$tmp/runs" "$out" "$pairs" "$base_rev" "$change_rev" "$(nproc)" \
  "${workloads[@]}" <<'PY'
import json, os, sys, time
runs, out, pairs, base_rev, change_rev, cores = sys.argv[1:7]
pairs, workloads = int(pairs), sys.argv[7:]
SIMULATED = {"startup_mean_ms", "slowdown_p999", "cold_start_frac", "mem_mean_gib"}
failures = []

def read(side, tag):
    text = open(os.path.join(runs, f"{side}.{tag}.out")).read().splitlines()
    if not json.loads(text[-1])["correct"]:
        failures.append(f"{side} {tag}: the run failed its checks")
    return {
        "metrics": {k: v["value"] for k, v in json.loads(text[-1])["metrics"].items()},
        "digests": [l.split(": ")[1] for l in text if l.startswith("digest sub-run")],
        "table": {r[0]: r[1] for r in map(str.split, text) if len(r) > 1 and r[0][0] != "#"},
    }

def quartiles(xs):
    xs = sorted(xs)
    def q(p):
        pos = p * (len(xs) - 1)
        lo, frac = int(pos), pos - int(pos)
        return xs[lo] if frac == 0 else xs[lo] * (1 - frac) + xs[lo + 1] * frac
    return {"median": q(0.5), "q1": q(0.25), "q3": q(0.75)}

result = {}
for w in workloads:
    base = [read("base", f"{w}.{i}") for i in range(pairs)]
    change = [read("change", f"{w}.{i}") for i in range(pairs)]
    held = [read(side, f"{w}.held") for side in ("base", "change")]
    metrics = {}
    for m in base[0]["metrics"]:
        b = [r["metrics"][m] for r in base]
        c = [r["metrics"][m] for r in change]
        ratios = [y / x if x else float(y == x) for x, y in zip(b, c)]
        held_ratio = held[1]["metrics"][m] / held[0]["metrics"][m] if held[0]["metrics"][m] else 1.0
        simulated = m in SIMULATED
        if simulated and any(r != 1.0 for r in ratios + [held_ratio]):
            failures.append(f"{w} {m}: simulated ratio != 1")
        metrics[m] = {
            "kind": "simulated" if simulated else "host",
            "base": quartiles(b),
            "change": quartiles(c),
            "ratio": quartiles(ratios),
            "wins": sum(y < x for x, y in zip(b, c)),
            "held_out_ratio": held_ratio,
        }
    digests = {"base": base[0]["digests"], "change": change[0]["digests"],
               "held_out_base": held[0]["digests"], "held_out_change": held[1]["digests"]}
    runs_digests = [r["digests"] for r in base + change]
    if any(d != digests["base"] for d in runs_digests) or held[0]["digests"] != held[1]["digests"]:
        failures.append(f"{w}: digests differ")
    result[w] = {"metrics": metrics, "digests": digests}

overhead = {side: float(read(side, "fleet.traced")["table"]["obs.overhead_frac"])
            for side in ("base", "change")}
doc = {
    "base_rev": base_rev,
    "change_rev": change_rev,
    "date": time.strftime("%Y-%m-%d", time.gmtime()),
    "cores": int(cores),
    "pairs": pairs,
    "seed": 20220405,
    "held_out_seed": 20220406,
    "workloads": result,
    "obs_overhead_frac": {"workload": "fleet", **overhead},
    "failures": failures,
}
with open(out, "w") as f:
    json.dump(doc, f, indent=1)
    f.write("\n")
for w in workloads:
    row = " ".join(f"{m}={v['ratio']['median']:.3f}" for m, v in result[w]["metrics"].items())
    print(f"{w}: {row}")
print("obs.overhead_frac on fleet:", overhead)
for msg in failures:
    print("FAIL", msg, file=sys.stderr)
sys.exit(1 if failures else 0)
PY
