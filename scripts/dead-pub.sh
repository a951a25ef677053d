#!/usr/bin/env bash
# Dead public surface: every `pub fn` / `pub const` declared before the first
# `#[cfg(test)]` of a crates/*/src file must be named, as a whole word, on
# some non-comment line of the code that can call it: the non-test part of
# crates/*/src (bins included), crates/bench/benches, examples and
# benchmark/src. Its own declaration does not count, nor does another `pub`
# declaration of the same name, nor does a `use` / `pub use` declaration
# (single- or multi-line): a re-export is not a caller, and counting it
# would let a re-exported item with no caller pass.
#
# An item that only tests outside its crate, or an open ROADMAP item, call is
# listed in scripts/dead-pub.allow as `path name  # reason`. The script fails
# on a hit that is not listed, and on a listed line whose item no longer
# exists, has gained a caller, or gives no reason.
#
# Known limit: names are matched, not resolved. A dead item that shares its
# name with a live one (two types' `new`, a trait method) is not reported.
set -euo pipefail
cd "$(dirname "$0")/.."
allow=scripts/dead-pub.allow

{
    find crates/*/src -name '*.rs' | sort | sed 's/^/D /'
    find crates/bench/benches examples benchmark/src -name '*.rs' | sort | sed 's/^/C /'
    echo "A $allow"
} | awk '
    BEGIN { decl_re = "^[ \t]*pub[ \t]+((const|unsafe|async)[ \t]+)*fn[ \t]+[A-Za-z_][A-Za-z0-9_]*|^[ \t]*pub[ \t]+const[ \t]+[A-Za-z_][A-Za-z0-9_]*[ \t]*:" }
    function decl_name(line,   m) {
        if (!match(line, decl_re)) return ""
        m = substr(line, RSTART, RLENGTH)
        sub(/[ \t]*:$/, "", m)
        sub(/.*[ \t]/, "", m)
        return m
    }
    {
        kind = $1; file = $2
        if (kind == "A") { read_allow(file); next }
        declaring = (kind == "D"); in_use = 0
        while ((getline line < file) > 0) {
            if (line ~ /#\[cfg\(test\)\]/) break
            if (line ~ /^[ \t]*\/\//) continue
            if (in_use) { if (line ~ /;/) in_use = 0; continue }
            if (line ~ /^[ \t]*(pub(\([^)]*\))?[ \t]+)?use[ \t]/) { in_use = (line !~ /;/); continue }
            own = decl_name(line)
            if (own != "" && declaring) { decl[file " " own] = 1 }
            n = split(line, w, /[^A-Za-z0-9_]+/)
            delete seen
            for (i = 1; i <= n; i++) {
                if (w[i] == "" || w[i] == own || (w[i] in seen)) continue
                seen[w[i]] = 1
                used[w[i]]++
            }
        }
        close(file)
    }
    function read_allow(file,   line, key, reason) {
        while ((getline line < file) > 0) {
            if (line ~ /^[ \t]*(#|$)/) continue
            reason = line; sub(/^[^#]*#?[ \t]*/, "", reason)
            key = line; sub(/[ \t]*#.*/, "", key); gsub(/[ \t]+/, " ", key)
            allowed[key] = 1
            if (reason == "") { print "dead-pub: allowlist line gives no reason: " line; bad++ }
        }
        close(file)
    }
    END {
        for (key in decl) {
            split(key, p, " ")
            if ((p[2] in used) || (key in allowed)) continue
            print "dead-pub: no caller: " key | "sort"
            bad++
        }
        for (key in allowed) {
            split(key, p, " ")
            if (!(key in decl)) { print "dead-pub: allowlisted item no longer exists: " key | "sort"; bad++ }
            else if (p[2] in used) { print "dead-pub: allowlisted item has a caller now: " key | "sort"; bad++ }
        }
        close("sort")
        exit bad > 0
    }'
