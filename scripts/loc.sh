#!/usr/bin/env bash
# Production Rust lines per crate: non-blank, non-comment lines of each
# crate's src/ tree, not counting `#[cfg(test)]` modules (by this repo's
# convention the last item of a file, so counting stops at the attribute).
# Integration tests, benches and examples are test code and are left out,
# as are benchmark/ (its own workspace) and crates/compat/ (vendored
# stand-ins).
#
#   scripts/loc.sh            # the table
#   scripts/loc.sh --check    # the table; fails if the total exceeds
#                             # scripts/loc.ceiling (CI's ratchet: a PR that
#                             # shrinks the code lowers the ceiling with it)
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

if [ "${1:-}" = --check ]; then
    ceiling=$(cat scripts/loc.ceiling)
    if [ "$total" -gt "$ceiling" ]; then
        echo "production line count $total exceeds scripts/loc.ceiling ($ceiling)" >&2
        exit 1
    fi
fi
