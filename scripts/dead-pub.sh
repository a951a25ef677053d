#!/usr/bin/env bash
# Dead public surface: every `pub fn` / `pub const` declared before the first
# `#[cfg(test)]` of a crates/*/src file must have a caller in product code,
# as the compiler resolves it: the workspace's libs, bins and examples, the
# kvd-bench benches, and benchmark/'s lib and bins. Tests, and the kvd-model
# crate they share, do not count.
#
# The script copies the tree to a temporary directory and works only there.
# In the copy it marks each such item with a `#[deprecated]` whose note names
# its file and line, then runs three offline `cargo check`s of those targets
# into a target dir inside the copy (6-8 s cold). Every deprecation
# warning is a use the compiler resolved to that very item, so two types'
# `new`, or a method that shares its name with a live one, are told apart. A
# warning on a `use` / `pub use` declaration is not a caller: a re-export
# does not keep an item alive.
#
# An item that only tests, or an open ROADMAP item, need is listed in
# scripts/dead-pub.allow as `path name  # reason`; the line covers every item
# of that name in that file. The script fails on an item with no caller
# that is not listed, and on a listed line whose items no longer exist, all
# have a caller now, or that gives no reason. It exits 2 if a check does not
# compile.
set -euo pipefail
cd "$(dirname "$0")/.."
allow=$PWD/scripts/dead-pub.allow
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/tree"
tar -cf - --exclude=./.git --exclude=./target --exclude=./benchmark/target \
    --exclude=./benchmark/out . | tar -xf - -C "$tmp/tree"
cd "$tmp/tree"

# Mark the items; $tmp/items gets one `id path line name` row per item.
find crates/*/src -name '*.rs' | sort | while read -r f; do
    awk -v file="$f" -v items="$tmp/items" '
        BEGIN { decl_re = "^[ \t]*pub[ \t]+((const|unsafe|async)[ \t]+)*fn[ \t]+[A-Za-z_][A-Za-z0-9_]*|^[ \t]*pub[ \t]+const[ \t]+[A-Za-z_][A-Za-z0-9_]*[ \t]*:" }
        /#\[cfg\(test\)\]/ { done = 1 }
        !done && match($0, decl_re) {
            name = substr($0, RSTART, RLENGTH)
            sub(/[ \t]*:$/, "", name); sub(/.*[ \t]/, "", name)
            indent = $0; sub(/[^ \t].*/, "", indent)
            id = file ":" FNR
            print id, file, FNR, name >> items
            print indent "#[deprecated(note = \"dead-pub " id "\")]"
        }
        { print }' "$f" >"$f.marked"
    mv "$f.marked" "$f"
done

# The product targets; kvd-model is the tests' reference model, so its calls
# do not count. A warning's path is relative to the checked package's
# workspace root, or absolute for a path dependency outside it.
export CARGO_TARGET_DIR=$tmp/target RUSTFLAGS=--cap-lints=warn
check() { # prefix, cargo check arguments…
    local prefix=$1
    shift
    if ! cargo check --offline --quiet --message-format=short "$@" >"$tmp/log" 2>&1; then
        cat "$tmp/log" >&2
        echo "dead-pub: cargo check $* failed" >&2
        exit 2
    fi
    sed -n "s|^\([^:]*\):\([0-9]*\):[0-9]*: warning: use of deprecated .*: dead-pub \([^ ]*\)\$|\1 \2 \3|p" "$tmp/log" |
        sed "s|^$tmp/tree/||; t; s|^|$prefix|" >>"$tmp/uses"
}
: >"$tmp/uses"
check "" --workspace --exclude kvd-model --lib --bins --examples
check "" -p kvd-bench --bench '*'
check benchmark/ --manifest-path benchmark/Cargo.toml --lib --bins

# `uses` rows are `site line id`; a site line inside a `use` declaration
# (single- or multi-line) is dropped before an item counts as called.
sort -u "$tmp/uses" | awk -v items="$tmp/items" -v allow="$allow" '
    function use_lines(file,   line, n, in_use) {
        while ((getline line < file) > 0) {
            n++
            if (in_use || line ~ /^[ \t]*(pub(\([^)]*\))?[ \t]+)?use[ \t]/) {
                in_use = (line !~ /;/)
                is_use[file ":" n] = 1
            }
        }
        close(file)
        scanned[file] = 1
    }
    {
        if (!($1 in scanned)) use_lines($1)
        if (!(($1 ":" $2) in is_use)) called[$3] = 1
    }
    END {
        while ((getline line < items) > 0) {
            split(line, f, " ")
            key = f[2] " " f[4]
            decl[key] = 1
            if (!(f[1] in called)) dead[key] = dead[key] " " f[2] ":" f[3]
        }
        while ((getline line < allow) > 0) {
            if (line ~ /^[ \t]*(#|$)/) continue
            reason = line; sub(/^[^#]*#?[ \t]*/, "", reason)
            key = line; sub(/[ \t]*#.*/, "", key); gsub(/[ \t]+/, " ", key)
            allowed[key] = 1
            if (reason == "") { print "dead-pub: allowlist line gives no reason: " line; bad++ }
        }
        for (key in dead) {
            if (key in allowed) continue
            split(key, p, " ")
            print "dead-pub: no caller: " p[2] " at" dead[key] | "sort"
            bad++
        }
        for (key in allowed) {
            if (!(key in decl)) { print "dead-pub: allowlisted item no longer exists: " key | "sort"; bad++ }
            else if (!(key in dead)) { print "dead-pub: allowlisted item has a caller now: " key | "sort"; bad++ }
        }
        close("sort")
        exit bad > 0
    }'
