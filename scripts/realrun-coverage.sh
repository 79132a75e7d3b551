#!/usr/bin/env bash
# Real-run coverage gate. Builds every command, example and the
# end-to-end benchmark harness with coverage over the whole module,
# runs each once (the traffic: what a user, a figure or a benchmark
# workload executes), and lists the functions no run executed in
# real-run-uncovered.txt. It fails when that list differs from the
# committed allowlist, testdata/realrun-allowlist.txt: a function that
# no run executes and the allowlist does not name is new unexecuted
# code; an allowlisted function that now runs, or no longer exists, is
# a stale row. Rows are keyed by package and function, not by line.
# benchguard and the harness itself are not the simulator and are left
# out.
#
#   bash scripts/realrun-coverage.sh [WORKDIR]
#
# Run it from the repository root. WORKDIR (default: a fresh temporary
# directory) receives the binaries, coverage data and run outputs.
# About two minutes on two cores.
set -euo pipefail
export LC_ALL=C # sort and comm must agree on the key order

root=$(pwd)
cov=${1:-$(mktemp -d)}
bin="$cov/bin"
rm -rf "$cov/data" "$cov/out"
mkdir -p "$bin" "$cov/data" "$cov/out"

for c in figures minkowski explain chaosearch; do
  go build -cover -coverpkg=minkowski/... -o "$bin/$c" "./cmd/$c"
done
for e in quickstart kenya disaster manetlab; do
  go build -cover -coverpkg=minkowski/... -o "$bin/$e" "./examples/$e"
done
go build -C bench -cover -coverpkg=minkowski/... -o "$bin/e2e" ./e2e

export GOCOVERDIR="$cov/data"
(
  cd "$cov/out"
  "$bin/figures" -fig all -csv csv
  "$bin/figures" -fig ablations
  "$bin/figures" -fig chaosavail
  "$bin/figures" -obs obs.json
  "$bin/minkowski" -hours 26
  "$bin/explain" -whynot-a hbal-001/xcvr-0 -whynot-b hbal-002/xcvr-0
  # chaosearch exits non-zero when it finds violations, which -prefix
  # is meant to. The first two -kinds runs are the nightly profiles at
  # a few trials; the third draws the mesh partitions the default
  # seed's blind trials miss.
  "$bin/chaosearch" -out blind.json || true
  "$bin/chaosearch" -prefix -out prefix.json || true
  "$bin/chaosearch" -trials 3 -kinds controller-failover,controller-partition -out replication.json || true
  "$bin/chaosearch" -trials 3 -kinds lease-flap,replica-partition -obs flight-dumps -out newkinds.json || true
  "$bin/chaosearch" -trials 2 -kinds manet-partition,partial-partition -out partitions.json || true
  for e in quickstart kenya disaster manetlab; do "$bin/$e"; done
  "$bin/e2e" --workload all --seconds 3 --trace 0
  "$bin/e2e" --workload all --seconds 3 --trace 1
) > "$cov/out/stdout.txt" 2>&1

go tool covdata func -i="$cov/data" | awk '$NF == "0.0%"' |
  grep -vE '^minkowski/(cmd/benchguard|bench)/' > "$root/real-run-uncovered.txt" || true
wc -l < "$root/real-run-uncovered.txt" | xargs echo "functions no real run executes:"

# "minkowski/internal/manet/fabricnet.go:101: *FabricNet.Adjacent 0.0%"
# → "minkowski/internal/manet FabricNet.Adjacent"
awk '{ split($1, loc, ":"); pkg = loc[1]; sub(/\/[^\/]*$/, "", pkg); fn = $2; sub(/^\*/, "", fn); print pkg " " fn }' \
  "$root/real-run-uncovered.txt" | sort -u > "$cov/uncovered.keys"
awk -F'\t' '!/^#/ && NF { print $1 " " $2 }' "$root/testdata/realrun-allowlist.txt" | sort -u > "$cov/allowed.keys"

status=0
if new=$(comm -23 "$cov/uncovered.keys" "$cov/allowed.keys") && [ -n "$new" ]; then
  echo "no real run executes these functions, and testdata/realrun-allowlist.txt does not name them:" >&2
  echo "$new" | sed 's/^/  /' >&2
  status=1
fi
if stale=$(comm -13 "$cov/uncovered.keys" "$cov/allowed.keys") && [ -n "$stale" ]; then
  echo "allowlisted functions that a real run now executes, or that no longer exist:" >&2
  echo "$stale" | sed 's/^/  /' >&2
  status=1
fi
exit $status
