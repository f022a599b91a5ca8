package tripletpool

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"parsecureml/internal/comm"
	"parsecureml/internal/mpc"
	"parsecureml/internal/tensor"
)

// startDealer runs a Dealer on a loopback listener, cleaned up with the
// test.
func startDealer(t *testing.T, cfg DealerConfig) (addr string, d *Dealer) {
	t.Helper()
	ln, err := comm.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	d = NewDealer(cfg)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- d.Serve(ctx, ln) }()
	t.Cleanup(func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("dealer serve: %v", err)
		}
	})
	return ln.Addr().String(), d
}

// feedConnect returns the dial func a test DealerClient runs under: a
// plain dial with a bounded write deadline (the supervised link owns
// retry and the read side).
func feedConnect(addr string) func() (*comm.Conn, error) {
	return func() (*comm.Conn, error) {
		conn, err := comm.Dial(addr)
		if err != nil {
			return nil, err
		}
		conn.SetTimeouts(0, 5*time.Second)
		return conn, nil
	}
}

// dialFeed connects one party's DealerClient.
func dialFeed(t *testing.T, addr string, party int, pairID uint64, cfg FeedConfig) *DealerClient {
	t.Helper()
	if cfg.Supervisor.ReconnectBase == 0 {
		cfg.Supervisor.ReconnectBase = 10 * time.Millisecond
	}
	c, err := NewDealerClient(feedConnect(addr), party, pairID, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// TestDealerStreamsMatchReference checks the dealer's wire-fed triplets
// against NewStreamSource with the same base: triplet j of a shape must
// be bit-identical on both paths (the property bit-identity drills rest
// on), the two halves must reconstruct a valid triplet, and neither
// half alone may be one (share separation has to mean something).
func TestDealerStreamsMatchReference(t *testing.T) {
	const seed = 42
	addr, _ := startDealer(t, DealerConfig{Seed: seed})
	f0 := dialFeed(t, addr, 0, 1, FeedConfig{})
	f1 := dialFeed(t, addr, 1, 1, FeedConfig{})
	ref := NewStreamSource(seed)
	for j := 0; j < 5; j++ {
		seq, t0, err := f0.Next(3, 4, 5)
		if err != nil {
			t.Fatalf("Next %d: %v", j, err)
		}
		if seq != uint64(j) {
			t.Fatalf("Next %d returned seq %d", j, seq)
		}
		t1, err := f1.Take(3, 4, 5, seq)
		if err != nil {
			t.Fatalf("Take %d: %v", j, err)
		}
		checkTriplet(t, t0, t1, 3, 4, 5)
		r0, r1 := ref.Gen(3, 4, 5)
		for _, m := range [][2]*tensor.Matrix{
			{t0.U, r0.U}, {t0.V, r0.V}, {t0.Z, r0.Z},
			{t1.U, r1.U}, {t1.V, r1.V}, {t1.Z, r1.Z},
		} {
			if !m[0].Equal(m[1]) {
				t.Fatalf("triplet %d differs from the StreamSource reference", j)
			}
		}
		// One half alone is not a triplet: Z₀ ≠ U₀×V₀ (each half is a
		// uniform share; equality would mean the dealer leaked structure).
		half := tensor.MulTo(t0.U, t0.V)
		alone := true
		for i := range half.Data {
			if math.Abs(float64(half.Data[i]-t0.Z.Data[i])) > 1e-3 {
				alone = false
				break
			}
		}
		if alone {
			t.Fatal("one party's half satisfies the triplet identity on its own")
		}
	}
}

// TestDealerShapesAreIndependentStreams checks interleaving shapes does
// not perturb a shape's stream, and that distinct pairs get identical
// streams from one seeded dealer (pair isolation is by connection, the
// determinism is per (seed, shape)).
func TestDealerShapesAreIndependentStreams(t *testing.T) {
	const seed = 7
	addr, _ := startDealer(t, DealerConfig{Seed: seed})
	f0 := dialFeed(t, addr, 0, 1, FeedConfig{})
	f1 := dialFeed(t, addr, 1, 1, FeedConfig{})
	take := func(m, k, n int) (mpc.TripletShares, mpc.TripletShares) {
		t.Helper()
		seq, t0, err := f0.Next(m, k, n)
		if err != nil {
			t.Fatal(err)
		}
		t1, err := f1.Take(m, k, n, seq)
		if err != nil {
			t.Fatal(err)
		}
		return t0, t1
	}
	take(2, 2, 2)
	a0, a1 := take(3, 3, 3)
	take(2, 2, 2)
	// A second pair draws (3,3,3) first: same stream position 0.
	g0 := dialFeed(t, addr, 0, 2, FeedConfig{})
	g1 := dialFeed(t, addr, 1, 2, FeedConfig{})
	seq, b0, err := g0.Next(3, 3, 3)
	if err != nil || seq != 0 {
		t.Fatalf("pair 2 Next: seq %d err %v", seq, err)
	}
	b1, err := g1.Take(3, 3, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !a0.U.Equal(b0.U) || !a1.Z.Equal(b1.Z) {
		t.Fatal("(seed, shape) streams differ across pairs or draw orders")
	}
}

// TestDealerBackpressure checks MaxInflight bounds how far the faster
// party runs ahead: with the slower party idle, the dealer stops
// generating at the bound and the fast party's Next blocks until the
// slow one consumes.
func TestDealerBackpressure(t *testing.T) {
	const inflight = 4
	addr, _ := startDealer(t, DealerConfig{Seed: 1, MaxInflight: inflight})
	f0 := dialFeed(t, addr, 0, 1, FeedConfig{Depth: 16})
	f1 := dialFeed(t, addr, 1, 1, FeedConfig{Depth: 16})
	for j := 0; j < inflight; j++ {
		if _, _, err := f0.Next(4, 4, 4); err != nil {
			t.Fatalf("Next %d within the in-flight bound: %v", j, err)
		}
	}
	blocked := make(chan mpc.TripletShares, 1)
	go func() {
		_, tr, err := f0.Next(4, 4, 4)
		if err != nil {
			t.Errorf("Next past the bound: %v", err)
		}
		blocked <- tr
	}()
	select {
	case <-blocked:
		t.Fatalf("Next %d returned with the peer %d behind: MaxInflight not enforced", inflight, inflight)
	case <-time.After(300 * time.Millisecond):
	}
	// The slower party consumes one triplet; that retires seq 0 and frees
	// one generation slot, unblocking the fast party.
	if _, err := f1.Take(4, 4, 4, 0); err != nil {
		t.Fatal(err)
	}
	select {
	case tr := <-blocked:
		if tr.U == nil {
			t.Fatal("unblocked Next returned a zero triplet")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("fast party still blocked after the slow party consumed")
	}
}

// TestDealerFeedFailsOnDeadDealer checks the advertised failure mode: a
// feed whose reconnect budget is exhausted (the dealer is gone for
// good, not just restarting) fails blocked and future calls instead of
// wedging them.
func TestDealerFeedFailsOnDeadDealer(t *testing.T) {
	addr, _ := startDealer(t, DealerConfig{Seed: 3})
	var conn *comm.Conn
	dials := 0
	f0, err := NewDealerClient(func() (*comm.Conn, error) {
		dials++
		if dials > 1 {
			return nil, errors.New("dealer gone for good")
		}
		c, err := feedConnect(addr)()
		if err != nil {
			return nil, err
		}
		conn = c
		return c, nil
	}, 0, 9, FeedConfig{Supervisor: comm.SupervisorConfig{
		ReconnectAttempts: 2,
		ReconnectBase:     time.Millisecond,
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f0.Close)
	if _, _, err := f0.Next(2, 3, 2); err != nil {
		t.Fatal(err)
	}
	conn.Close() // the transport dies under the feed; every re-dial fails
	// A fresh shape has nothing prefetched, so this Next must block until
	// the reconnect budget is exhausted and then fail — not wedge.
	errc := make(chan error, 1)
	go func() {
		_, _, err := f0.Next(3, 3, 3)
		errc <- err
	}()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("Next on a dead feed returned nil error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Next wedged on a dead dealer connection")
	}
	if _, err := f0.Take(2, 3, 2, 100); err == nil {
		t.Fatal("Take on a dead feed returned nil error")
	}
}

// TestDealerFeedRejectsReusedSeq checks invariant (ii), no Beaver
// triplet used twice, at the feed: a Take of a seq this party already
// consumed — below the consumption floor, or an out-of-order hole above
// it — fails at once with a *seqReusedError instead of waiting forever
// for a re-delivery the feed would drop as a duplicate.
func TestDealerFeedRejectsReusedSeq(t *testing.T) {
	addr, _ := startDealer(t, DealerConfig{Seed: 11})
	f1 := dialFeed(t, addr, 1, 1, FeedConfig{})
	take := func(seq uint64) error {
		errc := make(chan error, 1)
		go func() {
			_, err := f1.Take(2, 3, 4, seq)
			errc <- err
		}()
		select {
		case err := <-errc:
			return err
		case <-time.After(5 * time.Second):
			t.Fatalf("Take(%d) blocked", seq)
			return nil
		}
	}
	for _, seq := range []uint64{0, 1, 4} { // floor 2, hole {4}
		if err := take(seq); err != nil {
			t.Fatalf("first Take(%d): %v", seq, err)
		}
	}
	for _, seq := range []uint64{0, 1, 4} {
		var reused *seqReusedError
		if err := take(seq); !errors.As(err, &reused) || reused.seq != seq {
			t.Fatalf("second Take(%d) = %v, want a *seqReusedError", seq, err)
		}
	}
	// The rejections leave the stream intact: the unconsumed seqs still
	// arrive.
	for _, seq := range []uint64{2, 3, 5} {
		if err := take(seq); err != nil {
			t.Fatalf("Take(%d) after the rejections: %v", seq, err)
		}
	}
}

func TestDealerProtoCodecs(t *testing.T) {
	party, pairID, err := decodeDealerHello(encodeDealerHello(1, 77))
	if err != nil || party != 1 || pairID != 77 {
		t.Fatalf("hello round trip: party %d pair %d err %v", party, pairID, err)
	}
	if _, _, err := decodeDealerHello([]byte{1, 2}); err == nil {
		t.Fatal("short hello accepted")
	}
	s, count, err := decodeWant(encodeWant(shape{3, 4, 5}, 6))
	if err != nil || s != (shape{3, 4, 5}) || count != 6 {
		t.Fatalf("WANT round trip: %+v %d %v", s, count, err)
	}
	if _, _, err := decodeWant(encodeWant(shape{0, 4, 5}, 6)); err == nil {
		t.Fatal("degenerate WANT accepted")
	}
	rs, from, rcount, err := decodeResume(encodeResume(shape{3, 4, 5}, 1<<40, 7))
	if err != nil || rs != (shape{3, 4, 5}) || from != 1<<40 || rcount != 7 {
		t.Fatalf("RESUME round trip: %+v %d %d %v", rs, from, rcount, err)
	}
	if _, _, _, err := decodeResume(encodeResume(shape{3, 0, 5}, 0, 1)); err == nil {
		t.Fatal("degenerate RESUME accepted")
	}
	// The two ctl kinds must reject each other's frames.
	if _, _, err := decodeWant(encodeResume(shape{3, 4, 5}, 0, 1)); err == nil {
		t.Fatal("RESUME frame accepted as WANT")
	}
	if _, _, _, err := decodeResume(encodeWant(shape{3, 4, 5}, 1)); err == nil {
		t.Fatal("WANT frame accepted as RESUME")
	}
	src := NewStreamSource(2)
	p0, _ := src.Gen(2, 3, 4)
	gs, seq, tr, err := decodeFeedFrame(appendFeedFrame(nil, shape{2, 3, 4}, 9, p0))
	if err != nil || gs != (shape{2, 3, 4}) || seq != 9 {
		t.Fatalf("FEED round trip: %+v %d %v", gs, seq, err)
	}
	if !tr.U.Equal(p0.U) || !tr.V.Equal(p0.V) || !tr.Z.Equal(p0.Z) {
		t.Fatal("FEED round trip corrupted the triplet")
	}
	// Geometry mismatch between header and payload is rejected.
	if _, _, _, err := decodeFeedFrame(appendFeedFrame(nil, shape{3, 3, 4}, 9, p0)); err == nil {
		t.Fatal("FEED frame with mismatched header geometry accepted")
	}
}
