#!/usr/bin/env bash
# Builds the system binaries and the load generator from the checkout's
# sources, then runs one benchmark workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload mlp_dealer --seed 1 --seconds 30 --trace 0
#
# Every build product, the Go build cache and all temporary files stay
# under .bench_build/ in the checkout.
set -euo pipefail

root="$(pwd)"
[ -f "$root/go.mod" ] && [ -d "$root/cmd/psml-server" ] || {
  echo "perfbench: run from the repository root (go.mod and cmd/ not found)" >&2
  exit 2
}
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local CGO_ENABLED=0

go build -o "$out/bin/" ./cmd/psml-server ./cmd/psml-router ./cmd/psml-dealer >&2
go -C perfbench build -o "$out/bin/perfbench" . >&2
exec "$out/bin/perfbench" "$@"
