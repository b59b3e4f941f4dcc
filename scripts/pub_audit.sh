#!/usr/bin/env bash
# Lists every `pub` fn/struct/enum/trait/const/type of crates/core/src and
# crates/trinity-sim/src whose name appears nowhere outside its own crate:
# not in another crate's sources, tests/, crates/*/tests/, examples/ or
# benchmark/src. Such an item is `pub` by habit, which hides it from rustc's
# `dead_code` lint; narrow it to `pub(crate)` (or delete it).
#
# A type a public signature exposes (as a return, argument, bound or field
# type) must stay `pub` although no caller names it: those are listed, one
# a line, in scripts/pub_allowlist.txt. Exits 1 if any other name is found.
#
#   scripts/pub_audit.sh
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."

allow="$(grep -v '^#' scripts/pub_allowlist.txt | grep -v '^$' || true)"
callers=(crates src tests examples benchmark/src)
found=0
for crate in core trinity-sim; do
    names="$(grep -rhoE '^\s*pub (const |unsafe )?(fn|struct|enum|trait|const|type) [A-Za-z_][A-Za-z0-9_]*' "crates/$crate/src" \
        | awk '{ print $NF }' | sort -u)"
    for name in $names; do
        if grep -rqw --include='*.rs' --exclude-dir="$crate" -e "$name" "${callers[@]}" 2>/dev/null \
            || grep -rqw --include='*.rs' -e "$name" "crates/$crate/tests" 2>/dev/null; then
            continue
        fi
        if grep -qx "$name" <<<"$allow"; then
            continue
        fi
        echo "crates/$crate/src: pub $name is named nowhere outside the crate"
        found=1
    done
done
exit "$found"
