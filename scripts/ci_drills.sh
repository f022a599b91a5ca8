#!/usr/bin/env bash
# Named CI drills: every adversarial serving-stack exercise the ci
# workflow runs, one subcommand per matrix leg, so the job list in
# ci.yml stays a name list instead of seven inline shell recipes and
# the same drills run identically from a laptop.
#
# Usage: scripts/ci_drills.sh <drill>
#   concurrent   concurrent sessions survive a client kill, bit-identical
#   batching     cross-session batching: stacked == per-session, mid-batch kill, dealer-fed
#   chaos-link   peer link killed mid-flight; supervised reconnect + replay
#   codec        wire codec negotiation, mixed versions, FP16/CSR identity
#   checkpoint   kill-and-resume training: resumed run byte-identical
#   fleet        multi-process router+dealer fleet, one pair SIGKILLed
#   transformer  secure attention block: wire path vs plaintext, batched+codec
#   dealer-chaos dealer SIGKILLed mid-run and restarted; resumed streams bit-identical
#
# PSML_DRILL_SCALE (default 1) multiplies the stress: go-test drills run
# -count=$SCALE, the fleet drill runs 64*$SCALE sessions. Nightly sets 4.
set -euo pipefail
cd "$(dirname "$0")/.."

SCALE="${PSML_DRILL_SCALE:-1}"

drill_test() { # drill_test PKG 'TestA|TestB'
  go test -race -count="$SCALE" -timeout 15m -run "$2" -v "$1"
}

case "${1:-}" in
concurrent)
  # Several clients in flight while one is killed mid-request; survivors
  # must stay bit-identical to the serial reference.
  drill_test ./internal/mpc/ 'TestConcurrentSessionsSurviveClientKill|TestConcurrentSessionsBitIdentical'
  ;;
batching)
  # Same-shape clients coalesced into stacked exchanges must stay
  # bit-identical to the per-session path, keep distinct shapes apart,
  # and survive a client dying mid-batch; dealer-fed clients batch too,
  # bit-identical to a client-dealt reference on the dealer's stream.
  drill_test ./internal/mpc/ 'TestBatchedBitIdentical|TestBatchedMixedShapes|TestBatchedSurvivesClientKill'
  drill_test ./internal/mpc/tripletpool/ 'TestDealerFedBatchedBitIdentical'
  ;;
chaos-link)
  # The inter-server link dies twice at deterministic frame boundaries
  # under 8 concurrent sessions; the supervised link must reconnect and
  # replay so every result stays bit-identical.
  drill_test ./internal/mpc/ 'TestConcurrentSessionsSurviveLinkDrops|TestSupervisePeerStartupOrder'
  ;;
codec)
  # Capability negotiation upgrades matching servers, mixed-version pairs
  # stay raw forever, and both lossless CSR identity and the FP16 error
  # bound hold on the wire.
  drill_test ./internal/mpc/ 'TestServeCodecNegotiationUpgrades|TestServeCodecMixedVersion|TestWireMulCodecCSRBitIdentical|TestWireMulCodecFP16Tolerance'
  ;;
checkpoint)
  # An interrupted training run (-die-after-epoch exits with code 3 after
  # the epoch-2 checkpoint) resumed from its checkpoint must save a model
  # byte-identical to an uninterrupted run.
  go build -o /tmp/psml-train ./cmd/psml-train/
  cd "$(mktemp -d)"
  args="-model logistic -dataset SYNTHETIC -samples 64 -batch 32 -epochs 4"
  /tmp/psml-train $args -checkpoint-dir A -save a.bin
  /tmp/psml-train $args -checkpoint-dir B -die-after-epoch 2 && exit 1 || test $? -eq 3
  /tmp/psml-train $args -checkpoint-dir B -resume -save b.bin
  cmp a.bin b.bin
  ;;
fleet)
  # Router + dealer + two dealer-fed server pairs as separate processes;
  # one pair SIGKILLed mid-run; surviving and re-routed sessions must
  # stay bit-identical to the in-process reference.
  SESSIONS=$((64 * SCALE)) scripts/fleet_drill.sh -race
  ;;
transformer)
  # Secure multi-head attention end to end: the wire-path block must
  # match plaintext within the documented tolerance, stay bit-stable
  # across runs, and hold up through cross-session batching plus the
  # negotiated FP16/CSR codecs; the simtime path must track plaintext
  # training and survive a checkpoint round trip.
  drill_test ./internal/mpc/ 'TestWireTransformerMatchesPlain|TestWireAttentionOnlyMatchesPlain|TestWireTransformerBatchedCodecStable'
  drill_test ./internal/secureml/ 'TestSecureTransformer|TestSecureAttentionForwardMatchesPlaintext|TestTransformerCheckpointRoundTrip'
  ;;
dealer-chaos)
  # The trusted dealer is SIGKILLed while 64 sessions consume its
  # triplet streams, then restarted with the same seed; the replicas'
  # RESUME cursors must re-position the deterministic streams so every
  # session stays bit-identical to the uninterrupted reference.
  SESSIONS=$((64 * SCALE)) scripts/dealer_chaos_drill.sh -race
  ;;
*)
  echo "usage: $0 {concurrent|batching|chaos-link|codec|checkpoint|fleet|transformer|dealer-chaos}" >&2
  exit 2
  ;;
esac
