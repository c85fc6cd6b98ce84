#!/usr/bin/env bash
# Runs `cargo test` with the given arguments and fails unless some test
# binary reports at least one passed test. A name filter that matches
# nothing (after a rename, say) otherwise passes green with every binary
# at "0 passed".
#
#   .github/scripts/cargo-test-nonempty.sh --release -p press-core record
set -euo pipefail
log=$(mktemp)
trap 'rm -f "$log"' EXIT
cargo test "$@" 2>&1 | tee "$log"
if ! grep -qE '^test result: ok\. [1-9][0-9]* passed' "$log"; then
    echo "error: \`cargo test $*\` ran no test; does its name filter still match?" >&2
    exit 1
fi
