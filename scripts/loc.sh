#!/usr/bin/env bash
# Counts the library's non-test lines: every line of the `.rs` files under
# crates/core/src and crates/trinity-sim/src, less each file's
# `#[cfg(test)] mod tests { ... }` block (attribute, body and closing brace).
# Test-only items outside such a block still count.
#
# The `compat.rs` files hold only what the frozen repo benchmark still
# calls; they get a line of their own, and the last line is the total
# without them.
#
#   scripts/loc.sh            # compat lines, the total, the total less compat
#   scripts/loc.sh --files    # per file first
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."

count() {
    # A `#[cfg(test)]` line followed by a top-level `mod tests {` opens the
    # block; the first column-0 `}` after it closes it.
    awk '
        skip && /^}$/ { skip = 0; next }
        skip { next }
        pending {
            pending = 0
            if ($0 ~ /^mod tests \{$/) { skip = 1; next }
            n++
        }
        /^#\[cfg\(test\)\]$/ { pending = 1; next }
        { n++ }
        END { print n + 0 }
    ' "$1"
}

total=0
compat=0
while IFS= read -r file; do
    lines="$(count "$file")"
    total=$((total + lines))
    if [ "$(basename "$file")" = compat.rs ]; then
        compat=$((compat + lines))
    fi
    if [ "${1:-}" = --files ]; then
        printf '%6d %s\n' "$lines" "$file"
    fi
done < <(find crates/core/src crates/trinity-sim/src -name '*.rs' | sort)
echo "compat.rs $compat"
echo "total $total"
echo "without compat.rs $((total - compat))"
