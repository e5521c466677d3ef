#!/usr/bin/env bash
# Lints the Prometheus text expositions the smoke jobs scrape or export:
# each file must hold at least one sample, every non-comment line must be
# `name{labels} value` with a numeric value, and every family must declare
# its # TYPE exactly once. The in-repo counterpart, run over the same
# surfaces by the tests, is internal/telemetry/promtest.
#
# usage: promlint.sh file.prom [file.prom ...]
set -euo pipefail
[ "$#" -gt 0 ] || { echo "usage: $0 file.prom [file.prom ...]" >&2; exit 2; }
for f in "$@"; do
  awk -v f="$f" '
    BEGIN {
      # name{k="v",...} value — label values escape " and \ with a backslash.
      label = "[a-zA-Z_][a-zA-Z0-9_]*=\"([^\"\\\\]|\\\\.)*\""
      sample = "^[a-zA-Z_:][a-zA-Z0-9_:]*([{]" label "(," label ")*[}])? [^ ]+$"
    }
    /^# TYPE / {
      if (NF != 4) { print f ": malformed TYPE line: " $0; bad = 1 }
      else if (typed[$3]++) { print f ": family " $3 " declares # TYPE twice"; bad = 1 }
      next
    }
    /^#/ || !NF { next }
    { samples++ }
    $0 !~ sample || $NF !~ /^[-+]?[0-9.]+([eE][-+]?[0-9]+)?$/ {
      print f ": bad sample line: " $0; bad = 1
    }
    END {
      if (!samples) { print f ": no samples"; bad = 1 }
      exit bad
    }
  ' "$f"
done
