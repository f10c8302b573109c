#!/bin/bash
# Alternating-pair benchmark of the working tree against a base revision.
#
#   scripts/bench-pairs.sh [--moves] <base-rev> [pairs] [out.json]
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
# no simulated number is held to it. With --moves, a change that is
# meant to move simulated numbers records them instead of failing:
# out.json gains "moves", per workload and simulated metric the base
# and change value on the main and the held-out seed, and whether the
# digests moved; the script prints them as a table. A run that fails
# its own checks, or whose digests differ between repeats of one side,
# still exits 1. benchmark/ is only read: every build and every file a
# run writes stays in a temporary directory.
set -euo pipefail
moves=0
[ "${1:-}" = --moves ] && { moves=1; shift; }
[ $# -ge 1 ] || { sed -n '2,28p' "$0" >&2; exit 2; }
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

python3 - "$tmp/runs" "$out" "$pairs" "$base_rev" "$change_rev" "$(nproc)" "$moves" \
  "${workloads[@]}" <<'PY'
import json, os, sys, time
runs, out, pairs, base_rev, change_rev, cores, moves = sys.argv[1:8]
pairs, workloads, moves = int(pairs), sys.argv[8:], moves == "1"
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

result, moved = {}, {}
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
        if simulated and moves:
            moved.setdefault(w, {"metrics": {}})["metrics"][m] = {
                "base": b[0], "change": c[0],
                "held_out_base": held[0]["metrics"][m], "held_out_change": held[1]["metrics"][m],
            }
            if len(set(b)) > 1 or len(set(c)) > 1:
                failures.append(f"{w} {m}: a side's simulated value differs between repeats")
        elif simulated and any(r != 1.0 for r in ratios + [held_ratio]):
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
    if moves:
        if any(r["digests"] != digests["base"] for r in base) or any(
                r["digests"] != digests["change"] for r in change):
            failures.append(f"{w}: a side's digests differ between repeats")
        moved[w]["digests_moved"] = (digests["base"] != digests["change"]
                                     or held[0]["digests"] != held[1]["digests"])
    elif any(r["digests"] != digests["base"] for r in base + change) \
            or held[0]["digests"] != held[1]["digests"]:
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
if moves:
    doc["moves"] = moved
with open(out, "w") as f:
    json.dump(doc, f, indent=1)
    f.write("\n")
for w in workloads:
    row = " ".join(f"{m}={v['ratio']['median']:.3f}" for m, v in result[w]["metrics"].items())
    print(f"{w}: {row}")
print("obs.overhead_frac on fleet:", overhead)
if moves:
    print("\n| workload | metric | base | change | ratio | held-out base | held-out change | ratio |")
    print("|---|---|---|---|---|---|---|---|")
    ratio = lambda x, y: f"{y / x:.4f}" if x else ("1.0000" if y == x else "inf")
    for w, entry in moved.items():
        for m, v in entry["metrics"].items():
            hb, hc = v["held_out_base"], v["held_out_change"]
            print(f"| {w} | {m} | {v['base']:.6g} | {v['change']:.6g} | {ratio(v['base'], v['change'])} "
                  f"| {hb:.6g} | {hc:.6g} | {ratio(hb, hc)} |")
        print(f"| {w} | digests | | {'moved' if entry['digests_moved'] else 'equal'} | | | | |")
for msg in failures:
    print("FAIL", msg, file=sys.stderr)
sys.exit(1 if failures else 0)
PY
