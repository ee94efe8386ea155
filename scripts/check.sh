#!/bin/sh
# Full verification pass: format, build, vet, tests (including soak),
# race detector across every package, fuzz seed corpora, benchmarks
# (one iteration), and the randomized end-to-end verifier.
set -eu

cd "$(dirname "$0")/.."

echo '== gofmt'
fmt=$(gofmt -l .)
if [ -n "$fmt" ]; then
	echo "needs gofmt:" "$fmt"
	exit 1
fi

echo '== go build'
go build ./...

echo '== go vet'
go vet ./...

echo '== go test'
go test ./...

echo '== go test -race'
go test -race ./...

echo '== perfbench (own module: vet + tests)'
# perfbench builds against this module's internal APIs through a replace
# directive but is a separate module, so ./... never compiles it.
GOWORK=off go -C perfbench vet ./...
GOWORK=off go -C perfbench test .

echo '== fuzz seed corpora'
go test -run Fuzz . ./internal/chain/ ./internal/collective/ ./internal/core/ ./internal/event/ ./internal/lazyrand/ ./internal/ncube/

echo '== fuzz (bounded): calendar order, bulk seeded draws, collective timing'
# A few seconds of fresh inputs each for the calendar's lane/heap filing,
# lazyrand's bulk Intn draw, both checked against exact oracles, and the
# data collectives' timing against their timing-only twins.
go test -run '^$' -fuzz '^FuzzCalendarOrder$' -fuzztime 5s ./internal/event/
go test -run '^$' -fuzz '^FuzzFillIntnMatchesMathRand$' -fuzztime 5s ./internal/lazyrand/
go test -run '^$' -fuzz '^FuzzCollectiveTimingMatches$' -fuzztime 5s ./internal/collective/

echo '== benchmarks (smoke)'
go test -run xxx -bench . -benchtime 1x .

echo '== bench regression gate'
# Re-runs the pinned gate benchmarks (Fig09 stepwise, Fig11 delay, 10-cube
# broadcast, four traffic scenarios incl. the payload-verified allreduce
# stream) and compares ns/op and allocs/op against the newest committed
# results/BENCH_*.json baseline. Tolerances are generous — shared CI boxes
# are noisy — so only a real regression (or an allocation leak on the hot
# path) trips it. After an intentional change, refresh the baseline per
# EXPERIMENTS.md and commit it alongside the code.
go run ./cmd/bench -gate -tol-ns 0.60 -tol-allocs 0.25

echo '== randomized verifier'
go run ./cmd/verify -n 5 -trials 100

echo '== command-line drivers (smoke)'
go run ./cmd/stepwise -n 5 -trials 5 -points 8 > /dev/null
go run ./cmd/delay -n 4 -trials 3 -stat max > /dev/null
go run ./cmd/delay -n 4 -trials 3 -sweep 6 -csv > /dev/null
go run ./cmd/simlarge -n 6 -trials 2 -points 4 -plot > /dev/null
go run ./cmd/mcast -n 4 -alg w-sort -src 0 -dests 1,3,5,7,11,12,14,15 -trace > /dev/null
go run ./cmd/mcast -n 4 -alg u-cube -dests 1,2,3 -dot > /dev/null
go run ./cmd/compare -n 5 -m 8 -trials 5 > /dev/null
go run ./cmd/compare -n 5 -m 8 -trials 3 -machine ncube3 > /dev/null
go run ./cmd/faultsweep -n 4 -trials 3 -points 4 > /dev/null
go run ./cmd/faultsweep -n 4 -trials 3 -points 4 -mode drop -csv > /dev/null
go run ./cmd/figures -quick -dir "$(mktemp -d)" > /dev/null

echo '== parallel kernel (smoke + determinism)'
# The differential wall proper runs under `go test` above; this smoke pins
# the end-to-end CLI surface: a sparse-backend 16-cube sweep must emit
# byte-identical output at workers 1 and 8.
pardir="$(mktemp -d)"
go run ./cmd/simlarge -n 16 -trials 2 -points 3 -workers 1 -csv > "$pardir/w1.csv"
go run ./cmd/simlarge -n 16 -trials 2 -points 3 -workers 8 -csv > "$pardir/w8.csv"
cmp "$pardir/w1.csv" "$pardir/w8.csv"

echo '== traffic engine (smoke + determinism)'
# One explicit scenario from stdin, then the same reduced sweep twice:
# fixed spec + seed must render byte-identical files across runs.
trafdir=$(mktemp -d)
printf '%s' '{"dim":4,"ops":[{"kind":"scatter","src":0},{"kind":"multicast","src":2,"dest_count":6,"seed":9,"after":["op000"]}]}' |
	go run ./cmd/traffic -spec - > /dev/null
# A payload-carrying allreduce: the result must report end-to-end data
# verification on every op.
printf '%s' '{"dim":4,"seed":3,"ops":[{"kind":"allreduce","bytes":256},{"kind":"allreduce","algorithm":"ring","bytes":256,"after":["op000"]}]}' |
	go run ./cmd/traffic -spec - > "$trafdir/allreduce.json"
[ "$(grep -c '"data_verified": true' "$trafdir/allreduce.json")" = 2 ]
go run ./cmd/traffic -n 5 -ops 12 -rates 0.5,4 -dir "$trafdir/run1" > /dev/null
go run ./cmd/traffic -n 5 -ops 12 -rates 0.5,4 -dir "$trafdir/run2" > /dev/null
for f in traffic_mean traffic_p95 traffic_util; do
	cmp "$trafdir/run1/$f.txt" "$trafdir/run2/$f.txt"
	cmp "$trafdir/run1/$f.csv" "$trafdir/run2/$f.csv"
done

echo '== chaos harness (smoke + determinism)'
# The degradation sweep twice at one seed: the fault draw, the arrival
# trace, and the retry protocol are all deterministic, so the surfaces
# must render byte-identically.
chaosdir=$(mktemp -d)
go run ./cmd/chaos -n 4 -ops 8 -rates 0.25,0.5 -faults 0,2 -dir "$chaosdir/run1" > /dev/null
go run ./cmd/chaos -n 4 -ops 8 -rates 0.25,0.5 -faults 0,2 -dir "$chaosdir/run2" > /dev/null
for f in chaos_delivered chaos_inflation chaos_retry; do
	cmp "$chaosdir/run1/$f.txt" "$chaosdir/run2/$f.txt"
	cmp "$chaosdir/run1/$f.csv" "$chaosdir/run2/$f.csv"
done

echo '== lane spectrum (smoke + determinism)'
# The port×lane sweeper twice at one seed: the shared Poisson trace and
# the lane-allocation policies are deterministic, so the spectrum
# surfaces must render byte-identically.
lanedir=$(mktemp -d)
go run ./cmd/lanespec -n 4 -ops 8 -lanes 1,2 -rates 0.5,4 -dir "$lanedir/run1" > /dev/null
go run ./cmd/lanespec -n 4 -ops 8 -lanes 1,2 -rates 0.5,4 -dir "$lanedir/run2" > /dev/null
for f in lanes_blocked lanes_sojourn lanes_util; do
	cmp "$lanedir/run1/$f.txt" "$lanedir/run2/$f.txt"
	cmp "$lanedir/run1/$f.csv" "$lanedir/run2/$f.csv"
done
go run ./cmd/lanespec -n 4 -ops 6 -lanes 1,2 -rates 1 -policy escape -csv > /dev/null

echo '== bench harness + metrics JSON (smoke)'
obsdir=$(mktemp -d)
go run ./cmd/bench -smoke -date 1993-01-01 -dir "$obsdir" > /dev/null
go run ./cmd/bench -check "$obsdir/BENCH_1993-01-01.json"
go run ./cmd/delay -n 4 -trials 3 -metrics-json "$obsdir/delay.metrics.json" > /dev/null
go run ./cmd/bench -check "$obsdir/delay.metrics.json"
go run ./cmd/faultsweep -n 4 -trials 2 -points 3 -metrics-json "$obsdir/faultsweep.metrics.json" > /dev/null
go run ./cmd/bench -check "$obsdir/faultsweep.metrics.json"
for f in results/BENCH_*.json; do
	[ -e "$f" ] || continue
	go run ./cmd/bench -check "$f"
done

echo '== serving subsystem (smoke)'
srvdir=$(mktemp -d)
go build -o "$srvdir/serve" ./cmd/serve
go build -o "$srvdir/loadgen" ./cmd/loadgen
"$srvdir/serve" -addr 127.0.0.1:0 -port-file "$srvdir/addr" > "$srvdir/serve.log" 2>&1 &
srvpid=$!
i=0
while [ ! -s "$srvdir/addr" ]; do
	i=$((i + 1))
	if [ "$i" -gt 100 ]; then
		echo 'serve never wrote -port-file'
		cat "$srvdir/serve.log"
		exit 1
	fi
	sleep 0.1
done
addr=$(cat "$srvdir/addr")
curl -sf "http://$addr/healthz" | grep -q '"status": "ok"'
req='{"dim":5,"algorithm":"w-sort","src":0,"dests":[1,3,5,7,12],"bytes":4096}'
curl -sf -X POST "http://$addr/v1/simulate" -d "$req" -D "$srvdir/h1" -o "$srvdir/b1"
curl -sf -X POST "http://$addr/v1/simulate" -d "$req" -D "$srvdir/h2" -o "$srvdir/b2"
cmp "$srvdir/b1" "$srvdir/b2"   # cached re-request must be byte-identical
grep -qi 'x-cache: miss' "$srvdir/h1"
grep -qi 'x-cache: hit' "$srvdir/h2"
traf='{"dim":4,"seed":3,"arrivals":{"kind":"poisson","count":5,"rate_per_ms":2,"op":{"kind":"multicast","dest_count":4}}}'
curl -sf -X POST "http://$addr/v1/traffic" -d "$traf" -D "$srvdir/t1" -o "$srvdir/tb1"
curl -sf -X POST "http://$addr/v1/traffic" -d "$traf" -D "$srvdir/t2" -o "$srvdir/tb2"
cmp "$srvdir/tb1" "$srvdir/tb2"
grep -qi 'x-cache: hit' "$srvdir/t2"
# A data-carrying trace: reduce-scatter payloads verify end to end, and
# repeated requests serve the identical bytes from cache.
dtraf='{"dim":3,"seed":5,"ops":[{"kind":"reduce-scatter","bytes":64,"seed":1}]}'
curl -sf -X POST "http://$addr/v1/traffic" -d "$dtraf" -o "$srvdir/db1"
curl -sf -X POST "http://$addr/v1/traffic" -d "$dtraf" -D "$srvdir/d2" -o "$srvdir/db2"
cmp "$srvdir/db1" "$srvdir/db2"
grep -qi 'x-cache: hit' "$srvdir/d2"
grep -q '"data_verified": true' "$srvdir/db1"
# A fault-free data collective request on /v1/collective, verified.
curl -sf -X POST "http://$addr/v1/collective" -d '{"op":"allreduce","variant":"hd","dim":4,"bytes":64,"seed":7}' -o "$srvdir/cb1"
grep -q '"data_verified": true' "$srvdir/cb1"
# A faulted scenario: accepted, and its response carries delivery accounting.
ftraf='{"dim":4,"ops":[{"kind":"fault-tolerant-multicast","src":0,"dest_count":3,"seed":4}],"faults":[{"kind":"link","count":2,"seed":9}]}'
curl -sf -X POST "http://$addr/v1/traffic" -d "$ftraf" -o "$srvdir/fb1"
grep -q '"delivery"' "$srvdir/fb1"
curl -sf "http://$addr/metrics" | grep -q '# TYPE server_requests counter'
curl -sf "http://$addr/metrics/json" | grep -q '"schema": "hypercube-metrics/v1"'
"$srvdir/loadgen" -url "http://$addr" -c 4 -n 100 -keys 10 > /dev/null
kill -TERM "$srvpid"
wait "$srvpid"                  # graceful drain must exit 0

echo '== cluster serving tier (smoke)'
# Router + 2 shard processes with disk tiers, subprocess-composed via
# -route. Checks: byte-identity vs a single-process server, failover when
# a shard is SIGKILLed mid-run, and disk-tier cache hits after the dead
# shard restarts cold on the same port and disk directory.
cldir=$(mktemp -d)
start_shard() { # $1 = index, $2 = listen address
	"$srvdir/serve" -addr "$2" -port-file "$cldir/addr$1" \
		-disk-dir "$cldir/disk$1" >> "$cldir/shard$1.log" 2>&1 &
	eval "spid$1=\$!"
}
wait_file() { # $1 = file that must become non-empty
	i=0
	while [ ! -s "$1" ]; do
		i=$((i + 1))
		if [ "$i" -gt 100 ]; then
			echo "timed out waiting for $1"
			cat "$cldir"/*.log 2> /dev/null || true
			exit 1
		fi
		sleep 0.1
	done
}
start_shard 0 127.0.0.1:0
start_shard 1 127.0.0.1:0
wait_file "$cldir/addr0"
wait_file "$cldir/addr1"
a0=$(cat "$cldir/addr0")
a1=$(cat "$cldir/addr1")
"$srvdir/serve" -addr 127.0.0.1:0 -port-file "$cldir/raddr" -probe 100ms \
	-route "http://$a0,http://$a1" > "$cldir/router.log" 2>&1 &
rpid=$!
# Solo baseline: the same requests against one plain server must produce
# byte-identical responses to the routed cluster.
"$srvdir/serve" -addr 127.0.0.1:0 -port-file "$cldir/saddr" > "$cldir/solo.log" 2>&1 &
solopid=$!
wait_file "$cldir/raddr"
wait_file "$cldir/saddr"
raddr=$(cat "$cldir/raddr")
saddr=$(cat "$cldir/saddr")
curl -sf "http://$raddr/healthz" | grep -q '"shards_alive": 2'
for m in 1 2 3 4 5 6 7 8; do
	body="{\"dim\":5,\"algorithm\":\"w-sort\",\"src\":0,\"dest_count\":$m,\"seed\":7,\"bytes\":2048}"
	curl -sf -X POST "http://$raddr/v1/simulate" -d "$body" -D "$cldir/ch$m" -o "$cldir/cb$m"
	curl -sf -X POST "http://$saddr/v1/simulate" -d "$body" -o "$cldir/sb$m"
	cmp "$cldir/cb$m" "$cldir/sb$m" # routed == single-process, byte for byte
	grep -qi 'x-shard:' "$cldir/ch$m"
done
# Kill the shard that owns key m=1, then re-request it: the router must
# fail over to the survivor and still answer 200 with identical bytes.
victim=$(sed -n 's/^[Xx]-[Ss]hard: *s\([01]\).*/\1/p' "$cldir/ch1")
eval "vpid=\$spid$victim"
eval "vaddr=\$a$victim"
kill -9 "$vpid"
body='{"dim":5,"algorithm":"w-sort","src":0,"dest_count":1,"seed":7,"bytes":2048}'
curl -sf -X POST "http://$raddr/v1/simulate" -d "$body" -o "$cldir/fb1"
cmp "$cldir/cb1" "$cldir/fb1"
i=0
until curl -sf "http://$raddr/healthz" | grep -q '"shards_alive": 1'; do
	i=$((i + 1))
	[ "$i" -gt 100 ] && { echo 'router never noticed the dead shard'; exit 1; }
	sleep 0.1
done
# Restart the victim cold on the same port and disk directory; once the
# router's probe restores it, its keys route home and are answered from
# the disk tier without re-simulating.
start_shard "$victim" "$vaddr"
i=0
until curl -sf "http://$raddr/healthz" | grep -q '"status": "ok"'; do
	i=$((i + 1))
	[ "$i" -gt 100 ] && { echo 'router never restored the restarted shard'; exit 1; }
	sleep 0.1
done
curl -sf -X POST "http://$raddr/v1/simulate" -d "$body" -D "$cldir/rh1" -o "$cldir/rb1"
cmp "$cldir/cb1" "$cldir/rb1"
grep -qi "x-shard: s$victim" "$cldir/rh1"
grep -qi 'x-cache: disk' "$cldir/rh1"
curl -sf "http://$raddr/metrics" | grep -q '# TYPE cluster_requests counter'
"$srvdir/loadgen" -url "http://$raddr" -c 4 -n 60 -keys 8 > "$cldir/loadgen.out"
grep -q 'shard s' "$cldir/loadgen.out" # per-shard breakdown present
kill -TERM "$rpid" "$solopid"
eval "kill -TERM \$spid0 \$spid1"
wait "$rpid" "$solopid" || true

# In-process cluster: one flag, same router surface.
"$srvdir/serve" -addr 127.0.0.1:0 -port-file "$cldir/ipaddr" -cluster 2 \
	> "$cldir/inproc.log" 2>&1 &
ippid=$!
wait_file "$cldir/ipaddr"
ipaddr=$(cat "$cldir/ipaddr")
curl -sf "http://$ipaddr/healthz" | grep -q '"shards_alive": 2'
curl -sf -X POST "http://$ipaddr/v1/simulate" -d "$body" -D "$cldir/iph" -o /dev/null
grep -qi 'x-shard:' "$cldir/iph"
kill -TERM "$ippid"
wait "$ippid"

echo '== examples (smoke)'
for e in quickstart broadcast datapar collectives protocol; do
	go run "./examples/$e" > /dev/null
done

echo 'ALL CHECKS PASSED'
