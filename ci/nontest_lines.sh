#!/usr/bin/env bash
# Count non-test source lines: every line of every `.rs` file under
# `crates/*/src` and `crates/bench/benches`, minus each `#[cfg(test)]`
# module block (the attribute line through the `}` that closes the
# module at its own indentation). Blank and comment lines count.
#
# Usage: ci/nontest_lines.sh [repo-root]    # prints one number
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"
find crates/*/src crates/bench/benches -name '*.rs' | LC_ALL=C sort | xargs awk '
  function flush() { if (held) n++; held = 0 }
  FNR == 1 { flush(); skip = 0 }
  skip { if ($0 == endl) skip = 0; next }
  held {
    held = 0
    if ($0 ~ /^[ \t]*(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+ \{[ \t]*$/) {
      match($0, /^[ \t]*/)
      endl = substr($0, 1, RLENGTH) "}"
      skip = 1
      next
    }
    n++
  }
  /^[ \t]*#\[cfg\(test\)\][ \t]*$/ { held = 1; next }
  { n++ }
  END { flush(); print n + 0 }
' | awk '{ s += $1 } END { print s }'
