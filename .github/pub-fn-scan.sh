#!/usr/bin/env bash
# Lists every `pub fn` under crates/*/src that no other .rs file names,
# and fails if there is any. A plain `//` comment line is not a
# consumer; `///` and `//!` lines are, since doc examples are doc
# tests. Run from the repository root.
set -uo pipefail

scan() {
    for f in crates/*/src/*.rs crates/*/src/*/*.rs; do
        grep -oE "pub fn [a-z_0-9]+" "$f" | awk '{print $3}' | sort -u | while read -r n; do
            # Count with -c: a `grep -q` ending the pipeline would close
            # it early, and under pipefail the SIGPIPE of the greps
            # before it would make the result nondeterministic.
            c=$(grep -rw --include=*.rs "$n" crates examples tests src perfbench/src |
                grep -v "^$f:" | grep -cvE '^[^:]*:[[:space:]]*//([^/!]|$)')
            if [ "$c" = 0 ]; then echo "$f $n"; fi
        done
    done
}

hits=$(scan)
if [ -n "$hits" ]; then
    echo "$hits"
    echo "pub fn scan: no other file names the pub fns above (give each a consumer," \
        "narrow or delete it)"
    exit 1
fi
echo "pub fn scan: every pub fn has a consumer"
