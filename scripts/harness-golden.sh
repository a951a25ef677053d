#!/usr/bin/env bash
# Runs every [[bench]] of crates/bench/Cargo.toml and reports two separate
# verdicts:
#   golden: each harness's stdout equals crates/bench/golden/<name>.txt.
#           Harnesses print wall-clock and host-sized lines on stderr, so
#           stdout is a pure function of the code. A mismatch names the
#           harness and the line; a harness without a golden, or a golden
#           without a harness, fails too.
#   shape:  every harness exits 0 and prints no "shape FAIL" line on
#           stdout or stderr.
# Exits 1 if either verdict fails. With --bless, writes each stdout to its
# golden instead of comparing (the shape verdict still runs).
#
#   scripts/harness-golden.sh [--bless]
set -uo pipefail
cd "$(dirname "$0")/.."
case "${1:-}" in
    --bless) bless=1 ;;
    '') bless=0 ;;
    *) sed -n '2,14p' "$0" >&2; exit 2 ;;
esac

golden=crates/bench/golden
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
benches=$(sed -n '/^\[\[bench\]\]/,/^name/s/^name = "\(.*\)"/\1/p' crates/bench/Cargo.toml)

errors=0
for b in $benches; do
    cargo bench -q -p kvd-bench --bench "$b" >"$out/$b.txt" 2>"$out/$b.err"
    status=$?
    cat "$out/$b.txt" "$out/$b.err"
    if [[ $status -ne 0 ]]; then
        echo "$b: exit $status"
        errors=$((errors + 1))
    fi
done

echo
moved=()
if [[ $bless -eq 1 ]]; then
    mkdir -p "$golden"
    rm -f "$golden"/*.txt
    for b in $benches; do cp "$out/$b.txt" "$golden/$b.txt"; done
    echo "harness-golden: golden: blessed $(wc -w <<<"$benches") harnesses into $golden"
else
    for b in $benches; do
        if [[ ! -f $golden/$b.txt ]]; then
            echo "$b: no golden ($golden/$b.txt); run with --bless"
            moved+=("$b")
        elif ! cmp -s "$golden/$b.txt" "$out/$b.txt"; then
            diff --unchanged-line-format= \
                --old-line-format="$b: golden line %dn: %L" \
                --new-line-format="$b: stdout line %dn: %L" \
                "$golden/$b.txt" "$out/$b.txt"
            moved+=("$b")
        fi
    done
    for g in "$golden"/*.txt; do
        name=$(basename "$g" .txt)
        if ! grep -qx "$name" <<<"$benches"; then
            echo "$name: golden without a [[bench]] target"
            moved+=("$name")
        fi
    done
    if [[ ${#moved[@]} -eq 0 ]]; then
        echo "harness-golden: golden: all $(wc -w <<<"$benches") harnesses match"
    else
        echo "harness-golden: golden: FAIL in ${moved[*]}"
    fi
fi

fails=$(cd "$out" && grep -H "shape FAIL" ./*.txt ./*.err | sed 's|^\./||')
if [[ -n $fails ]]; then echo "$fails"; fi
echo "harness-golden: shape: $(grep -c . <<<"$fails") FAIL lines, $errors harnesses exited non-zero"

[[ ${#moved[@]} -eq 0 && -z $fails && $errors -eq 0 ]]
