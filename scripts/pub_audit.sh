#!/usr/bin/env bash
# Lists every `pub` fn/struct/enum/trait/const/type of the library sources
# of crates/core, crates/trinity-sim, crates/bench, crates/graph-gen and
# crates/baselines whose name appears nowhere outside that library: not in
# another crate's sources, tests/, crates/*/tests/, examples/,
# benchmark/src, nor in the crate's own binaries (src/bin, such as bench's
# `experiments`). Such an item is `pub` by habit, which hides it from
# rustc's `dead_code` lint; narrow it to `pub(crate)` (or delete it).
#
# A type a public signature exposes (as a return, argument, bound or field
# type) must stay `pub` although no caller names it: those are listed, one
# a line, in scripts/pub_allowlist.txt. Exits 1 if any other name is found,
# or if an allowlist line names no `pub` item of the five libraries any more
# (a stale entry, left behind by a deletion).
#
#   scripts/pub_audit.sh
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."

allow="$(grep -v '^#' scripts/pub_allowlist.txt | grep -v '^$' || true)"
found=0
every=""
for crate in core trinity-sim bench graph-gen baselines; do
    lib="crates/$crate/src"
    names="$(grep -rhoE --include='*.rs' --exclude-dir=bin \
        '^\s*pub (const |unsafe )?(fn|struct|enum|trait|const|type) [A-Za-z_][A-Za-z0-9_]*' "$lib" \
        | awk '{ print $NF }' | sort -u)"
    every+="$names"$'\n'
    # Every source outside the library is a caller, its binaries included.
    mapfile -t callers < <(
        find crates src tests examples benchmark/src -name '*.rs' -not -path "$lib/*"
        find "$lib" -path "$lib/bin/*" -name '*.rs'
    )
    for name in $names; do
        if grep -qw -e "$name" "${callers[@]}" || grep -qx "$name" <<<"$allow"; then
            continue
        fi
        echo "$lib: pub $name is named nowhere outside the library"
        found=1
    done
done
for name in $allow; do
    if ! grep -qx "$name" <<<"$every"; then
        echo "scripts/pub_allowlist.txt: $name names no pub item of the libraries"
        found=1
    fi
done
exit "$found"
