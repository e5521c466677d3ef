#!/usr/bin/env bash
# Starts ./racedsvc in the background with the given flags, its output
# appended to LOG, waits until it answers /healthz on the port of its -addr
# flag, and prints its pid for the caller to kill. The smoke jobs start
# every node through it.
#
# usage: SVC=$(start-racedsvc.sh LOG -addr 127.0.0.1:PORT [FLAG ...])
set -euo pipefail
[ "$#" -ge 3 ] || { echo "usage: $0 LOG -addr HOST:PORT [FLAG ...]" >&2; exit 2; }
log=$1
shift
port=
prev=
for arg in "$@"; do
  [ "$prev" = -addr ] && port=${arg##*:}
  prev=$arg
done
[ -n "$port" ] || { echo "start-racedsvc: no -addr HOST:PORT flag" >&2; exit 2; }
./racedsvc "$@" >> "$log" 2>&1 &
pid=$!
if ! bash "$(dirname "$0")/wait-healthz.sh" "$port" >&2; then
  kill "$pid" 2>/dev/null || true
  exit 1
fi
echo "$pid"
