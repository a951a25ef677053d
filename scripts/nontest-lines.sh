#!/usr/bin/env bash
# Non-test product lines, by ROADMAP's counting rule: the lines before the
# first `#[cfg(test)]` of every .rs under crates/*/src and
# crates/bench/benches. Prints the total; with -v, one line per file first.
set -euo pipefail
cd "$(dirname "$0")/.."
find crates/*/src crates/bench/benches -name '*.rs' | sort | xargs awk -v verbose="${1:-}" '
    FNR == 1 { counting = 1 }
    counting && /#\[cfg\(test\)\]/ { counting = 0 }
    counting { n[FILENAME]++; total++ }
    END {
        if (verbose == "-v") for (f in n) print n[f], f | "sort -k2"
        close("sort -k2")
        print total
    }'
