#!/usr/bin/env bash
# Paired parent/change runs of the unmodified benchmark — the protocol of
# benchmark/README.md "How a later issue states a claim".
#
#   scripts/pair-bench.sh <parent-checkout> <change-checkout> \
#       [--pairs 10] [--seconds 15] [--seed 1] [workload…]
#
# Builds each checkout's benchmark/ once (offline, release) into its own
# target dir, then runs the two prebuilt kvd-benchmark binaries alternately
# — odd pairs parent first, even pairs change first — and prints, per
# workload and end-to-end metric, both medians, both quartile spreads and
# how many pairs the change won. Reads benchmark/ and edits nothing there
# (cargo may refresh a stale benchmark/Cargo.lock in either checkout).
# Target dirs and the per-run JSON lines go to $PAIR_BENCH_OUT (default
# ${TMPDIR:-/tmp}/pair-bench); the JSON lines are kept for the write-up.
set -euo pipefail

usage() {
    sed -n '2,8p' "$0" >&2
    exit 2
}

[[ $# -ge 2 ]] || usage
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
shift 2
pairs=10 seconds=15 seed=1
workloads=()
while [[ $# -gt 0 ]]; do
    case $1 in
    --pairs) pairs=$2 && shift 2 ;;
    --seconds) seconds=$2 && shift 2 ;;
    --seed) seed=$2 && shift 2 ;;
    -*) usage ;;
    *) workloads+=("$1") && shift ;;
    esac
done
spec="$change/BENCHMARK.json"
if [[ ${#workloads[@]} -eq 0 ]]; then
    mapfile -t workloads < <(grep -o '{"name": "[a-z_0-9]*", "why"' "$spec" | cut -d'"' -f4)
fi

out="${PAIR_BENCH_OUT:-${TMPDIR:-/tmp}/pair-bench}"
mkdir -p "$out/runs"
for side in parent change; do
    echo "building $side (${!side})" >&2
    CARGO_TARGET_DIR="$out/$side" cargo build --release --offline --quiet \
        --manifest-path "${!side}/benchmark/Cargo.toml" --bin kvd-benchmark >&2
done

# One run: the benchmark's last stdout line is its JSON result.
run() { # side workload pair
    (cd "${!1}" && "$out/$1/release/kvd-benchmark" \
        --workload "$2" --seed "$seed" --seconds "$seconds" --trace 0) |
        tail -n 1 >"$out/runs/$2.seed$seed.$1.$3.json"
}

for w in "${workloads[@]}"; do
    for p in $(seq 1 "$pairs"); do
        if ((p % 2)); then order=(parent change); else order=(change parent); fi
        for side in "${order[@]}"; do
            echo "$w pair $p/$pairs: $side" >&2
            run "$side" "$w" "$p"
        done
    done
done

# name<TAB>better, from the end_to_end section of BENCHMARK.json.
metrics=$(sed -n '/"end_to_end"/,/\]/p' "$spec" |
    grep -o '"name": "[a-z_0-9]*".*"better": "[a-z]*"' |
    sed 's/"name": "\([a-z_0-9]*\)".*"better": "\([a-z]*\)"/\1\t\2/')

value() { # file metric
    grep -o "\"$2\": {\"value\": [-0-9.e+]*" "$1" | sed 's/.*: //'
}

printf '%-18s %-22s %12s %10s %12s %10s %6s\n' \
    workload metric parent_med parent_iqr change_med change_iqr wins
for w in "${workloads[@]}"; do
    bad=$(grep -L '"correct": true, "attempted": [0-9]*, "failed": 0,' \
        "$out/runs/$w.seed$seed".*.json || true)
    [[ -z $bad ]] || echo "INCORRECT OR FAILED OPERATIONS in: $bad"
    while IFS=$'\t' read -r m better; do
        for p in $(seq 1 "$pairs"); do
            echo "$(value "$out/runs/$w.seed$seed.parent.$p.json" "$m")" \
                "$(value "$out/runs/$w.seed$seed.change.$p.json" "$m")"
        done | awk -v w="$w" -v m="$m" -v better="$better" '
            function sorted(a, n,    i, j, t) {
                for (i = 2; i <= n; i++)
                    for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
            }
            function med(a, n) { return n % 2 ? a[(n + 1) / 2] : (a[n / 2] + a[n / 2 + 1]) / 2 }
            # Nearest-rank quartiles of the sorted runs.
            function iqr(a, n) { return a[int((3 * n + 3) / 4)] - a[int((n + 3) / 4)] }
            {
                n++; P[n] = $1; C[n] = $2
                if (better == "higher" ? $2 > $1 : $2 < $1) wins++
            }
            END {
                sorted(P, n); sorted(C, n)
                printf "%-18s %-22s %12.6g %10.3g %12.6g %10.3g %3d/%d\n",
                    w, m, med(P, n), iqr(P, n), med(C, n), iqr(C, n), wins, n
            }'
    done <<<"$metrics"
done
