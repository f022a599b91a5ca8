package mpc

import (
	"encoding/binary"
	"fmt"

	"parsecureml/internal/comm"
)

// Dealer-fed serving: the SecureML trusted-dealer mapping of the
// paper's offline phase. A standalone dealer (cmd/psml-dealer) runs the
// triplet generation of §2.2 and streams each party ITS half of every
// triplet — party 0 never sees U₁/V₁/Z₁ and vice versa, so unlike the
// client-as-dealer deployment the precompute tier can sit server-side
// without ever assembling both shares in one process. The serving loop
// consumes the stream through this interface; tripletpool.DealerClient
// is the wire-backed implementation, and tests substitute in-process
// feeds.

// TripletFeed supplies one party's halves of ready Beaver triplets,
// keyed by GEMM shape. Triplets of one shape form a numbered stream the
// dealer emits identically to both parties; the sequence number is how
// the two serving loops agree on WHICH triplet a request consumes when
// concurrent sessions interleave their draws. Implementations must be
// safe for concurrent use.
type TripletFeed interface {
	// Next pops this party's share of the next ready triplet for the
	// shape and returns its stream sequence number. The leading party
	// (party 0) calls this.
	Next(m, k, n int) (seq uint64, t TripletShares, err error)
	// Take returns this party's share of triplet seq of the shape's
	// stream, blocking until the dealer delivers it. The following party
	// (party 1) calls this with the sequence number party 0 announced.
	Take(m, k, n int, seq uint64) (TripletShares, error)
}

// feedTriplet runs one request's triplet agreement over the request's
// mux session, ahead of the Beaver exchange: party 0 draws the next
// ready triplet from its feed and announces the sequence number; party
// 1 reads the announcement and takes the matching triplet from its own
// feed. The announcement frame is the session's first, so the banded
// exchange starts cleanly after it.
func feedTriplet(party int, feed TripletFeed, sess comm.Framer, m, k, n int) (TripletShares, error) {
	if party == 0 {
		seq, t, err := feed.Next(m, k, n)
		if err != nil {
			return TripletShares{}, fmt.Errorf("mpc: triplet feed: %w", err)
		}
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], seq)
		if err := sess.WriteFrame(buf[:]); err != nil {
			return TripletShares{}, fmt.Errorf("mpc: triplet seq announce: %w", err)
		}
		return t, nil
	}
	f, err := sess.ReadFrame()
	if err != nil {
		return TripletShares{}, fmt.Errorf("mpc: triplet seq announce: %w", err)
	}
	if len(f) != 8 {
		return TripletShares{}, fmt.Errorf("mpc: triplet seq announce frame is %d bytes, want 8", len(f))
	}
	t, err := feed.Take(m, k, n, binary.LittleEndian.Uint64(f))
	if err != nil {
		return TripletShares{}, fmt.Errorf("mpc: triplet feed: %w", err)
	}
	return t, nil
}
