#!/bin/sh
# requests.sh drives a running geoselserver through one fixed request
# script and records every answer, so two builds can be compared byte
# for byte:
#
#	geoselserver -live -tilecache -preset poi -n 20000 -addr 127.0.0.1:8791 &
#	tools/served/requests.sh http://127.0.0.1:8791 out-a
#	# ... the same against the other build into out-b ...
#	diff -r out-a out-b
#
# Start each server fresh: session ids, versions and cache counters
# depend on what the server has seen. The script names objects by the
# ids a generated dataset gives (0 to n-1) and expects n = 20000: its
# last requests delete a quarter of them and then insert past the
# store's capacity, which compacts it. Each request writes one file,
# NN-name, holding the status line, the ETag (or "-") and the body.
# The only masked bytes are the timings that differ run to run: the
# "responseMs" field, /store/stats "uptimeSeconds", and the /cache/stats
# latency histograms' "sumNs" and "buckets" (the "count"s and the fixed
# bucket bounds "upperNs" stay). Exits non-zero if a
# request gets no HTTP answer at all; statuses are recorded, not judged.
set -eu

if [ $# -ne 2 ]; then
	echo "usage: $0 BASE_URL OUT_DIR" >&2
	exit 2
fi
base=$1
out=$2
mkdir -p "$out"
hdr=$(mktemp)
body=$(mktemp)
batch=$(mktemp)
trap 'rm -f "$hdr" "$body" "$batch"' EXIT

n=0

# req NAME METHOD PATH [BODY [CURL_ARGS...]] sends one request and
# writes OUT/NN-NAME. A BODY of @FILE sends the file's bytes.
req() {
	name=$1 method=$2 path=$3
	shift 3
	data=
	if [ $# -gt 0 ]; then
		data=$1
		shift
	fi
	n=$((n + 1))
	if [ -n "$data" ]; then
		set -- --data-binary "$data" -H 'Content-Type: application/json' "$@"
	fi
	: >"$body"
	curl -sS -X "$method" -D "$hdr" -o "$body" "$@" "$base$path"
	status=$(sed -n '1s/^HTTP\/[0-9.]* \([0-9]*\).*/\1/p' "$hdr")
	etag=$(sed -n 's/^[Ee][Tt][Aa][Gg]: *//p' "$hdr" | tr -d '\r')
	f=$(printf '%s/%02d-%s' "$out" "$n" "$name")
	{
		printf 'status %s\netag %s\n' "$status" "${etag:--}"
		sed -e 's/,"responseMs":[-+.0-9eE]*//g' \
			-e 's/"uptimeSeconds":[-+.0-9eE]*/"uptimeSeconds":0/g' \
			-e 's/"sumNs":[0-9]*/"sumNs":0/g' \
			-e 's/"buckets":\[[0-9,]*\]/"buckets":[]/g' "$body"
	} >"$f"
	last_etag=$etag
}

region='{"minX":0.40,"minY":0.40,"maxX":0.60,"maxY":0.60}'
inner='{"minX":0.45,"minY":0.45,"maxX":0.55,"maxY":0.55}'

req healthz GET /healthz
req select-cold POST /select "{\"region\":$region,\"k\":12,\"thetaFrac\":0.003}"
req select-warm POST /select "{\"region\":$region,\"k\":12,\"thetaFrac\":0.003}"
req session-create POST /sessions '{"k":10,"thetaFrac":0.003}'
req session-start POST /sessions/1/start "{\"region\":$region}"
req session-prefetch POST /sessions/1/prefetch '{"ops":["zoomin","pan"]}'
req session-zoomin POST /sessions/1/zoomin "{\"region\":$inner}"
req session-pan POST /sessions/1/pan '{"dx":0.02,"dy":-0.01}'
req session-zoomout POST /sessions/1/zoomout "{\"region\":$region}"
req session-back POST /sessions/1/back
req tile-200 GET '/tiles/3/3/3?k=20'
tile_etag=$last_etag
req tile-304 GET '/tiles/3/3/3?k=20' '' -H "If-None-Match: $tile_etag"
req ingest POST /ingest '{"mutations":[{"op":"insert","id":9000001,"x":0.5,"y":0.5,"weight":0.8,"text":"harbour \"old\" pier"},{"op":"update","id":7,"x":0.41,"y":0.42,"weight":0.3,"text":"cafe"}]}'
req select-after-ingest POST /select "{\"region\":$region,\"k\":12,\"thetaFrac\":0.003}"
req tile-after-ingest GET '/tiles/3/3/3?k=20' '' -H "If-None-Match: $tile_etag"
req delete-object DELETE /objects/9000001
req session-delete DELETE /sessions/1
req bad-request POST /select '{"region":{"minX":0,"minY":0,"maxX":0,"maxY":0},"k":5}'
req not-found POST /sessions/99/pan '{"dx":0.1,"dy":0}'
req store-stats GET /store/stats
req cache-stats GET /cache/stats

# A compaction. The first ingest grew the array to 30 000 slots; one
# batch deletes a quarter of the objects (ids 10000-14999), and the next
# inserts more than the array holds, so the store compacts instead of
# growing it again (/store/stats "compactions": 1). The inserts lie
# outside the unit square, where no tile reaches: a /select there is
# declined by the stitch and answered by the direct path.
awk 'BEGIN {
	printf "{\"mutations\":["
	for (i = 10000; i < 15000; i++)
		printf "%s{\"op\":\"delete\",\"id\":%d}", (i > 10000 ? "," : ""), i
	print "]}"
}' >"$batch"
req ingest-delete-quarter POST /ingest "@$batch"
awk 'BEGIN {
	split("pier cafe harbour market", words, " ")
	printf "{\"mutations\":["
	for (i = 0; i < 10000; i++)
		printf "%s{\"op\":\"insert\",\"id\":%d,\"x\":%.3f,\"y\":%.3f,\"weight\":%.2f,\"text\":\"%s %s\"}",
			(i > 0 ? "," : ""), 9100000 + i, 1.2 + (i % 100) * 0.006, 1.2 + int(i / 100) * 0.006,
			0.1 + (i % 9) * 0.1, words[i % 4 + 1], words[int(i / 7) % 4 + 1]
	print "]}"
}' >"$batch"
req ingest-past-capacity POST /ingest "@$batch"
req store-stats-after-compaction GET /store/stats
req select-outside-world POST /select '{"region":{"minX":1.1,"minY":1.1,"maxX":1.9,"maxY":1.9},"k":12,"thetaFrac":0.003}'
