#!/usr/bin/env bash
# Production Rust lines per crate: non-blank, non-comment lines of each
# crate's src/ tree, not counting `#[cfg(test)]` modules (by this repo's
# convention the last item of a file, so counting stops at the attribute).
# Integration tests, benches and examples are test code and are left out,
# as is benchmark/ (its own workspace). crates/compat/ (vendored stand-ins)
# is counted the same way but shown as its own row, outside the total.
#
#   scripts/loc.sh            # the table
#   scripts/loc.sh --check    # the table; fails if the total exceeds
#                             # scripts/loc.ceiling or compat exceeds
#                             # scripts/loc.compat.ceiling (CI's ratchets: a
#                             # PR that shrinks the code lowers its ceiling)
#   scripts/loc.sh FILE...    # the same count for the given files only
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

count() { # files... -> production lines
    [ $# -gt 0 ] || { echo 0; return; }
    awk '
        FNR == 1                        { in_tests = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
        in_tests                        { next }
        /^[[:space:]]*$/                { next }
        /^[[:space:]]*\/\//             { next }
                                        { n++ }
        END                             { print n + 0 }
    ' "$@"
}

if [ $# -gt 0 ] && [ "$1" != --check ]; then
    count "$@"
    exit
fi

total=0
printf '%-16s %8s\n' crate lines
for dir in src crates/*/src; do
    case "$dir" in crates/compat/*) continue ;; esac
    name=saql
    [ "$dir" = src ] || name=$(basename "$(dirname "$dir")")
    mapfile -t files < <(find "$dir" -name '*.rs' | sort)
    lines=$(count "${files[@]}")
    printf '%-16s %8d\n' "$name" "$lines"
    total=$((total + lines))
done
printf '%-16s %8d\n' total "$total"
mapfile -t files < <(find crates/compat -path '*/src/*' -name '*.rs' | sort)
compat=$(count "${files[@]}")
printf '%-16s %8d\n' compat "$compat"

if [ "${1:-}" = --check ]; then
    status=0
    ceiling=$(cat scripts/loc.ceiling)
    if [ "$total" -gt "$ceiling" ]; then
        echo "production line count $total exceeds scripts/loc.ceiling ($ceiling)" >&2
        status=1
    fi
    ceiling=$(cat scripts/loc.compat.ceiling)
    if [ "$compat" -gt "$ceiling" ]; then
        echo "compat line count $compat exceeds scripts/loc.compat.ceiling ($ceiling)" >&2
        status=1
    fi
    exit "$status"
fi
