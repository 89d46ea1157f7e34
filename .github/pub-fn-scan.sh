#!/usr/bin/env bash
# Lists every `pub fn` under crates/*/src that no other .rs file names,
# and fails unless that list is exactly the exceptions kept in
# .github/pub-fn-exceptions.txt. Run from the repository root.
set -uo pipefail

scan() {
    for f in crates/*/src/*.rs crates/*/src/*/*.rs; do
        grep -oE "pub fn [a-z_0-9]+" "$f" | awk '{print $3}' | sort -u | while read -r n; do
            c=$(grep -rlw --include=*.rs "$n" crates examples tests src perfbench/src | grep -v "^$f$" | wc -l)
            if [ "$c" = 0 ]; then echo "$f $n"; fi
        done
    done
}

exceptions=.github/pub-fn-exceptions.txt
if ! diff <(scan) <(grep -v '^#' "$exceptions" | awk 'NF {print $1, $2}'); then
    echo "pub fn scan: '<' is a pub fn no other file names (give it a consumer," \
        "narrow or delete it); '>' is a stale line of $exceptions"
    exit 1
fi
echo "pub fn scan: only the $(grep -vc '^#' "$exceptions") listed exceptions"
