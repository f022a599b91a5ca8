package mpc

import (
	"encoding/binary"
	"errors"
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

// feedTriplet is the one place an exchange's triplets are resolved: the
// first step on the mux session that carries the exchange, a single
// request's own session or a batch's. The members share one request form
// (a batch is keyed by it). Client-dealt members (the five-matrix form)
// bring their triplets and need nothing — no frame is sent. For dealer-fed
// members (T zero) party 0 draws the next ready triplet of the shape from
// its feed, one per member in member order, and announces their stream
// seqs in one frame of 8 bytes per member; party 1 takes each announced
// seq from its own feed. Both parties so hold complementary halves of the
// same triplets however concurrent sessions interleave their draws, and
// because a batch draws only for the members both parties accepted, a
// member dropped from a proposal never strands a drawn seq. The resolved
// triplets are written into members.
func feedTriplet(party int, feed TripletFeed, sess comm.Framer, members []Shares) error {
	if members[0].T.U != nil {
		return nil
	}
	if feed == nil {
		return errors.New("mpc: dealer-fed request on a party with no triplet feed")
	}
	span := metrics.phaseTriplet.Start()
	defer span.Stop()
	m, k, n := members[0].A.Rows, members[0].A.Cols, members[0].B.Cols
	if party == 0 {
		announce := make([]byte, 0, 8*len(members))
		for j := range members {
			seq, t, err := feed.Next(m, k, n)
			if err != nil {
				return fmt.Errorf("mpc: triplet feed: %w", err)
			}
			members[j].T = t
			announce = binary.LittleEndian.AppendUint64(announce, seq)
		}
		if err := sess.WriteFrame(announce); err != nil {
			return fmt.Errorf("mpc: triplet seq announce: %w", err)
		}
		return nil
	}
	f, err := sess.ReadFrame()
	if err != nil {
		return fmt.Errorf("mpc: triplet seq announce: %w", err)
	}
	seqs, err := parseAnnounce(f)
	if err != nil {
		return err
	}
	if len(seqs) != len(members) {
		return fmt.Errorf("mpc: triplet seq announce names %d triplets, want %d", len(seqs), len(members))
	}
	for j, seq := range seqs {
		t, err := feed.Take(m, k, n, seq)
		if err != nil {
			return fmt.Errorf("mpc: triplet feed: %w", err)
		}
		members[j].T = t
	}
	return nil
}

// parseAnnounce decodes a triplet seq announcement: one little-endian
// u64 stream seq per dealer-fed member, at most a batch's worth.
func parseAnnounce(frame []byte) ([]uint64, error) {
	if len(frame) == 0 || len(frame)%8 != 0 || len(frame) > 8*maxBatchCtlIDs {
		return nil, fmt.Errorf("mpc: triplet seq announce frame is %d bytes, want 8 per triplet", len(frame))
	}
	seqs := make([]uint64, len(frame)/8)
	for i := range seqs {
		seqs[i] = binary.LittleEndian.Uint64(frame[8*i:])
	}
	return seqs, nil
}
