#!/usr/bin/env bash
# Panic-site ratchet: counts potential panic sites (panic!, unwrap,
# expect, unreachable!, todo!, unimplemented!, assert on user input) in
# non-test code and fails if the count grows past the committed baseline.
#
# Test code is excluded: everything under a `#[cfg(test)]` module (counted
# from the attribute to end-of-file, since test modules sit last by
# convention here), files under tests/, and doc comments.
#
# Usage:
#   scripts/panic_audit.sh           # audit against the baseline
#   scripts/panic_audit.sh --count   # just print the current count
#
# Lower the baseline when you remove panic sites; never raise it.

set -euo pipefail
cd "$(dirname "$0")/.."

BASELINE=2

count_file() {
    # Strip everything from the first `#[cfg(test)]` line onward, drop
    # comment-only lines and `.expect(..)?` (a Result-returning cursor
    # method, not Option::expect), then count panic-prone call sites.
    awk '/#\[cfg\(test\)\]/{exit} {print}' "$1" |
        grep -v '^\s*//' |
        sed -E 's/\.expect\([^()]*\)\?//g' |
        grep -cE '\.unwrap\(\)|\.expect\(|panic!|unreachable!|todo!|unimplemented!' || true
}

total=0
while IFS= read -r f; do
    n=$(count_file "$f")
    total=$((total + n))
    if [[ "${VERBOSE:-0}" == "1" && "$n" -gt 0 ]]; then
        printf '%4d %s\n' "$n" "$f"
    fi
done < <(find crates src -name '*.rs' -not -path '*/target/*' -not -path '*/tests/*' | sort)

if [[ "${1:-}" == "--count" ]]; then
    echo "$total"
    exit 0
fi

echo "panic sites (non-test): $total (baseline $BASELINE)"
if (( total > BASELINE )); then
    echo "FAIL: panic-site count grew past the baseline." >&2
    echo "Convert new panics to typed errors (mvgnn_core::MvGnnError) or" >&2
    echo "move them under #[cfg(test)]; only lower the baseline." >&2
    exit 1
fi
echo "OK"
