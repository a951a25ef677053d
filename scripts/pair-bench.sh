#!/usr/bin/env bash
# Paired parent/change runs of the unmodified benchmark — the protocol of
# benchmark/README.md "How a later issue states a claim".
#
#   scripts/pair-bench.sh <parent-checkout> <change-checkout> \
#       [--pairs 10] [--seconds 15] [--seed 1] [--record FILE] [workload…]
#
# Builds each checkout's benchmark/ once (offline, release) into its own
# target dir, then runs the two prebuilt kvd-benchmark binaries alternately
# — odd pairs parent first, even pairs change first — and prints, per
# workload and end-to-end metric, both medians, both quartile spreads and
# how many pairs the change won. Reads benchmark/ and edits nothing there
# (cargo may refresh a stale benchmark/Cargo.lock in either checkout).
# Target dirs and the per-run JSON lines go to $PAIR_BENCH_OUT (default
# ${TMPDIR:-/tmp}/pair-bench); the JSON lines are kept for the write-up.
# --record FILE appends the run to FILE, a JSON array with one record per
# line (BENCH_trajectory.json at the repo root): both commits, the host
# fingerprint, and per workload and metric both medians and quartile
# spreads and the wins, with the sim_* metrics in a field of their own.
set -euo pipefail

usage() {
    sed -n '2,8p' "$0" >&2
    exit 2
}

[[ $# -ge 2 ]] || usage
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
shift 2
pairs=10 seconds=15 seed=1 record=
workloads=()
while [[ $# -gt 0 ]]; do
    case $1 in
    --pairs) pairs=$2 && shift 2 ;;
    --seconds) seconds=$2 && shift 2 ;;
    --seed) seed=$2 && shift 2 ;;
    --record) record=$(realpath "$2") && shift 2 ;;
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
all_correct=true
: >"$out/summary.tsv"
for w in "${workloads[@]}"; do
    bad=$(grep -L '"correct": true, "attempted": [0-9]*, "failed": 0,' \
        "$out/runs/$w.seed$seed".*.json || true)
    [[ -z $bad ]] || { echo "INCORRECT OR FAILED OPERATIONS in: $bad" && all_correct=false; }
    while IFS=$'\t' read -r m better; do
        for p in $(seq 1 "$pairs"); do
            echo "$(value "$out/runs/$w.seed$seed.parent.$p.json" "$m")" \
                "$(value "$out/runs/$w.seed$seed.change.$p.json" "$m")"
        done | awk -v w="$w" -v m="$m" -v better="$better" -v tsv="$out/summary.tsv" '
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
                printf "%s\t%s\t%.9g\t%.9g\t%.9g\t%.9g\t%d\n",
                    w, m, med(P, n), iqr(P, n), med(C, n), iqr(C, n), wins >>tsv
            }'
    done <<<"$metrics"
done

[[ -n $record ]] || exit 0
commit() { git -C "$1" rev-parse --short=12 HEAD 2>/dev/null || echo uncommitted; }
cpu=$(sed -n 's/^model name[[:space:]]*: //p' /proc/cpuinfo | head -n 1 | sed 's/"/\\"/g')
entry=$(awk -F '\t' -v commit="$(commit "$change")" -v parent="$(commit "$parent")" \
    -v nproc="$(nproc)" -v cpu="$cpu" -v kernel="$(uname -r)" -v date="$(date -u +%F)" \
    -v pairs="$pairs" -v seconds="$seconds" -v seed="$seed" -v correct="$all_correct" '
    function add(field, w, text) {
        if (!(field SUBSEP w in body)) order[field, ++n[field]] = w
        else text = ", " text
        body[field, w] = body[field, w] text
    }
    function section(field,    i, w, s) {
        for (i = 1; i <= n[field]; i++) {
            w = order[field, i]
            s = s (i > 1 ? ", " : "") "\"" w "\": {" body[field, w] "}"
        }
        return "{" s "}"
    }
    {
        add($2 ~ /^sim_/ ? "sim" : "end_to_end", $1, sprintf("\"%s\": {\"parent_median\": %s, " \
            "\"parent_iqr\": %s, \"change_median\": %s, \"change_iqr\": %s, \"wins\": %d}",
            $2, $3, $4, $5, $6, $7))
    }
    END {
        printf "{\"commit\": \"%s\", \"parent\": \"%s\", \"date\": \"%s\", \"transcribed\": false, ", commit, parent, date
        printf "\"host\": {\"nproc\": %d, \"cpu\": \"%s\", \"kernel\": \"%s\"}, ", nproc, cpu, kernel
        printf "\"protocol\": {\"pairs\": %d, \"seconds\": %d, \"seed\": %d}, \"all_correct\": %s, ", pairs, seconds, seed, correct
        printf "\"end_to_end\": %s, \"sim\": %s}\n", section("end_to_end"), section("sim")
    }' "$out/summary.tsv")
# One record per line inside the array: drop the closing bracket, then
# append a comma, the record and the bracket again.
if [[ -s $record ]]; then
    { sed '$d' "$record" | sed '$s/$/,/'; echo "$entry"; echo ']'; } >"$record.tmp"
else
    printf '[\n%s\n]\n' "$entry" >"$record.tmp"
fi
mv "$record.tmp" "$record"
echo "recorded in $record" >&2
