#!/bin/sh
# coverage.sh (make coverage-served) lists every function of the module
# that no program runs, and fails when one appears that the allowlist
# does not explain.
#
# It builds geoselserver, benchrunner, geosel, datagen and the examples
# with -cover -coverpkg=geosel/..., runs each of them the way a user
# would, merges their counters with go tool covdata, and prints every
# function at 0 %. The drive:
#
#   - go run ./bench -quick -seed 7 over all four workloads. The bench
#     binary itself is built without coverage: its audit and traced
#     re-run call the engine in process, and counting those calls would
#     hide what the server never ran. The server it spawns gets the
#     flags through GOFLAGS on the go build that bench runs.
#   - geoselserver -live -tilecache driven by tools/served/requests.sh.
#   - benchrunner -list, and every exhibit at 2 000 objects (CSV once).
#   - datagen in all three formats, each read back by geosel; geosel
#     on a generated set with -sample and -map.
#   - each example under examples/.
#
# Every server is stopped with SIGTERM, so it drains and writes its
# counters. The 0 % list is compared with tools/served/allow.txt, whose
# entries are "<file> <function> <reason>", keyed by file and function
# name (never by line number). The script exits non-zero when a 0 %
# function is missing from the allowlist or an entry names a function
# that no longer exists. An allowlisted function that this run covered
# is printed as one that can leave the list, and is not a failure:
# timing-dependent paths may run one time and not the next.
#
# SERVED_PORT (default 18791) is the loopback port of the server it
# starts; SERVED_WORK, if set, keeps the binaries, counters and outputs
# there instead of in a temporary directory that is removed at exit.
set -eu
export LC_ALL=C # one collation for sort and comm

cd "$(dirname "$0")/../.."
allow=tools/served/allow.txt
port=${SERVED_PORT:-18791}
covflags='-cover -coverpkg=geosel/...'
if [ -n "${SERVED_WORK:-}" ]; then
	work=$SERVED_WORK
	mkdir -p "$work"
else
	work=$(mktemp -d)
fi
bin=$work/bin
cov=$work/cov
rm -rf "$cov"
mkdir -p "$bin" "$cov"

pid=
cleanup() {
	if [ -n "$pid" ]; then
		kill -TERM "$pid" 2>/dev/null || true
		wait "$pid" 2>/dev/null || true
	fi
	if [ -z "${SERVED_WORK:-}" ]; then
		rm -rf "$work"
	fi
}
trap cleanup EXIT
trap 'exit 130' INT TERM

say() { echo "coverage-served: $*" >&2; }

say "building (instrumented: server, CLIs, examples; plain: bench)"
GOFLAGS= go build -o "$bin/bench" ./bench
# shellcheck disable=SC2086 # covflags is two flags
go build $covflags -o "$bin/" ./cmd/geoselserver ./cmd/benchrunner ./cmd/geosel ./cmd/datagen ./examples/...

export GOCOVERDIR="$cov"

say "bench -quick -seed 7"
if ! GOFLAGS="$covflags" "$bin/bench" -quick -seed 7 >"$work/bench.out" 2>&1; then
	# Its checks are bench's own (TestQuickSmoke runs them); what
	# counts here is which functions ran, and a run that stopped
	# early shows as functions at 0 %.
	tail -n 20 "$work/bench.out" >&2
	say "bench reported problems (above); its coverage still counts"
fi

say "geoselserver -live -tilecache + requests.sh"
"$bin/geoselserver" -live -tilecache -preset poi -n 20000 -seed 1 -addr "127.0.0.1:$port" 2>"$work/server.log" &
pid=$!
tries=0
until curl -sf "http://127.0.0.1:$port/healthz" >/dev/null 2>&1; do
	tries=$((tries + 1))
	if [ "$tries" -gt 300 ] || ! kill -0 "$pid" 2>/dev/null; then
		cat "$work/server.log" >&2
		say "server did not come up on port $port"
		exit 1
	fi
	sleep 0.2
done
tools/served/requests.sh "http://127.0.0.1:$port" "$work/responses"
kill -TERM "$pid"
wait "$pid" || {
	cat "$work/server.log" >&2
	say "server did not exit cleanly"
	exit 1
}
pid=

say "benchrunner"
"$bin/benchrunner" -list >/dev/null
"$bin/benchrunner" -exp all -uk 2000 -us 2000 -poi 2000 -queries 1 >/dev/null 2>&1
"$bin/benchrunner" -exp table3 -uk 2000 -us 2000 -poi 2000 -queries 1 -csv >/dev/null 2>&1

say "datagen + geosel"
for f in csv jsonl binary; do
	"$bin/datagen" -preset uk -n 3000 -seed 2 -format "$f" -o "$work/data.$f"
	"$bin/geosel" -data "$work/data.$f" -k 10 >/dev/null
done
"$bin/geosel" -preset poi -n 3000 -k 10 -sample -map >/dev/null

say "examples"
# From the work directory: methodgallery writes its SVGs to ./gallery.
for d in examples/*/; do
	(cd "$work" && "$bin/$(basename "$d")" >/dev/null)
done

go tool covdata func -i="$cov" >"$work/func.txt"

# Keys are "<file> <function>": the module prefix and the line number
# go, so moving a function inside its file does not change its key.
awk '$1 ~ /:[0-9]+:$/ { f = $1; sub(/:[0-9]+:$/, "", f); sub(/^geosel\//, "", f); print f, $2 }' \
	"$work/func.txt" | sort -u >"$work/all.txt"
awk '$1 ~ /:[0-9]+:$/ && $3 == "0.0%" { f = $1; sub(/:[0-9]+:$/, "", f); sub(/^geosel\//, "", f); print f, $2 }' \
	"$work/func.txt" | sort -u >"$work/zero.txt"
awk '!/^[ \t]*(#|$)/ {
	if (NF < 3) { print "coverage-served: allow.txt:" NR ": no reason given" > "/dev/stderr"; bad = 1 }
	print $1, $2
} END { exit bad }' "$allow" >"$work/allow.unsorted"
sort "$work/allow.unsorted" >"$work/allow.txt"
if [ -n "$(uniq -d "$work/allow.txt")" ]; then
	say "allow.txt lists these twice:"
	uniq -d "$work/allow.txt" >&2
	exit 1
fi

echo "functions at 0 % across every program:"
sed 's/^/  /' "$work/zero.txt"
comm -23 "$work/zero.txt" "$work/allow.txt" >"$work/unexplained.txt"
comm -13 "$work/all.txt" "$work/allow.txt" >"$work/stale.txt"
comm -12 "$work/allow.txt" "$work/all.txt" | comm -23 - "$work/zero.txt" >"$work/covered.txt"
echo "$(wc -l <"$work/zero.txt") functions at 0 % of $(wc -l <"$work/all.txt"); $(wc -l <"$work/allow.txt") allowlisted"
if [ -s "$work/covered.txt" ]; then
	echo "allowlisted but covered by this run (can leave the list):"
	sed 's/^/  /' "$work/covered.txt"
fi
status=0
if [ -s "$work/unexplained.txt" ]; then
	echo "FAIL: at 0 % and not on $allow (delete it with its tests, or add an entry with a reason):"
	sed 's/^/  /' "$work/unexplained.txt"
	status=1
fi
if [ -s "$work/stale.txt" ]; then
	echo "FAIL: on $allow but no such function exists any more (remove the entry):"
	sed 's/^/  /' "$work/stale.txt"
	status=1
fi
exit $status
