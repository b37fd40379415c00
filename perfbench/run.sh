#!/usr/bin/env bash
# Builds the benchmark and the litmusd daemon from this checkout's
# sources, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload explore-large --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Everything it builds or writes,
# including Go's build cache and the engine's spill files, stays under
# .bench_build/perfbench.
set -euo pipefail
if [[ ! -f go.mod || ! -d cmd/litmusd ]]; then
	echo "perfbench: run from the repository root; go.mod or cmd/litmusd is missing" >&2
	exit 2
fi
out=.bench_build/perfbench
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$PWD/$out/gocache" GOPATH="$PWD/$out/gopath" GOTMPDIR="$PWD/$out/tmp" TMPDIR="$PWD/$out/tmp"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off GOWORK=off
# The go command keeps telemetry counters under the user's config
# directory; point that inside the checkout too.
export XDG_CONFIG_HOME="$PWD/$out/config"
# With telemetry on, every go command forks a detached upload process
# that outlives the build; "go telemetry off" is the one invocation that
# starts none.
go telemetry off
go build -o "$out/bin/litmusd" ./cmd/litmusd >&2
(cd perfbench && go build -o "../$out/bin/perfbench" .) >&2
# Flush what the builds wrote, so its writeback does not run during the
# measurement.
sync
exec "$out/bin/perfbench" --litmusd "$out/bin/litmusd" --work "$out" "$@"
