#!/usr/bin/env bash
# bagcq_server must refuse a worker count it cannot serve: a nonzero exit
# and no listening line for each of --engine-threads 0, abc and -3, for
# --engine-threads 0 next to --workers 3 (two modes asked for at once), and
# for --workers 0. It must also refuse --threads 4: engines start no
# threads of their own, so the flag is unknown (usage text, exit 2). A
# server that starts anyway is stopped after a timeout and counted as a
# failure.
#
# Usage: server_flags.sh BAGCQ_SERVER
set -u
SERVER="${1:?usage: server_flags.sh BAGCQ_SERVER}"

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

failures=0
run=0
expect_refused() {
  run=$((run + 1))
  local out status
  out="$(timeout 20 "$SERVER" --socket "$TMP/s$run.sock" "$@" 2>"$TMP/err")"
  status=$?
  if ((status == 0)) || [[ "$out" == *listening* ]]; then
    echo "bagcq_server $*: exit $status, stdout: $out" >&2
    failures=$((failures + 1))
  fi
}

expect_refused --engine-threads 0
expect_refused --engine-threads abc
expect_refused --engine-threads -3
expect_refused --engine-threads 0 --workers 3
expect_refused --workers 0
expect_refused --threads 4

echo "$((run - failures)) of $run bad flags refused"
((failures == 0))
