#!/bin/sh
# usage: cli_sigint.sh STATS_JSON COMMAND [ARGS...]
#
# Runs COMMAND --stats-json STATS_JSON in the foreground (an asynchronous
# command would start with SIGINT ignored), sends it SIGINT two seconds
# after it started, and prints "stats-written" if STATS_JSON is non-empty
# afterwards, then "exit=<status>".  A command that ignores SIGINT is
# killed 20 s later, so nothing outlives the test.
out="$1"
shift
rm -f "$out" "$out.pid"
(
  while [ ! -s "$out.pid" ]; do sleep 0.1; done
  sleep 2
  pid="$(cat "$out.pid")"
  kill -INT "$pid"
  i=0
  while kill -0 "$pid" 2>/dev/null && [ "$i" -lt 200 ]; do
    sleep 0.1
    i=$((i + 1))
  done
  kill -KILL "$pid" 2>/dev/null
) >/dev/null 2>&1 &
sh -c 'echo $$ > "$0"; exec "$@"' "$out.pid" "$@" --stats-json "$out" \
  >/dev/null 2>&1
rc=$?
wait
test -s "$out" && echo stats-written
echo "exit=$rc"
