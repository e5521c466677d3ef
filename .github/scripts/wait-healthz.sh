#!/usr/bin/env bash
# Waits until the service on each given local port answers /healthz,
# polling every 0.2 s for up to 10 s per port, and fails naming the first
# port that never does. The smoke jobs run it after starting each racedsvc.
#
# usage: wait-healthz.sh PORT [PORT ...]
set -euo pipefail
[ "$#" -gt 0 ] || { echo "usage: $0 PORT [PORT ...]" >&2; exit 2; }
for port in "$@"; do
  for _ in $(seq 1 50); do
    curl -sf "http://127.0.0.1:$port/healthz" > /dev/null && continue 2
    sleep 0.2
  done
  echo "wait-healthz: no /healthz on 127.0.0.1:$port after 10 s" >&2
  exit 1
done
