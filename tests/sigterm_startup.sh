#!/usr/bin/env bash
# bagcq_server must drain, not die, on a SIGTERM sent the moment it prints
# its listening line: a supervisor that starts a server and stops it at once
# relies on that. Starts the server RUNS times, alternating fork and thread
# mode, sends SIGTERM as soon as the line is read, and requires exit 0 every
# time.
#
# Usage: sigterm_startup.sh BAGCQ_SERVER [RUNS]
set -u
SERVER="${1:?usage: sigterm_startup.sh BAGCQ_SERVER [RUNS]}"
RUNS="${2:-50}"

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

failures=0
for ((i = 0; i < RUNS; i++)); do
  if ((i % 2)); then mode=(--engine-threads 2); else mode=(--workers 2); fi
  mkfifo "$TMP/out$i"
  "$SERVER" --socket "$TMP/s$i.sock" "${mode[@]}" \
    >"$TMP/out$i" 2>"$TMP/err$i" &
  pid=$!
  exec {out}<"$TMP/out$i"
  line=""
  if ! read -r line <&"$out"; then
    echo "run $i (${mode[*]}): no listening line" >&2
  fi
  kill -TERM "$pid" 2>/dev/null
  wait "$pid"
  status=$?
  exec {out}<&-
  if ((status != 0)); then
    echo "run $i (${mode[*]}): exit $status after '$line'" >&2
    cat "$TMP/err$i" >&2
    failures=$((failures + 1))
  fi
done
echo "$((RUNS - failures)) of $RUNS SIGTERMs at start-up drained with exit 0"
((failures == 0))
