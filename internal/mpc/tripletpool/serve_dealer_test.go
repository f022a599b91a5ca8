package tripletpool

import (
	"context"
	"sync"
	"testing"
	"time"

	"parsecureml/internal/comm"
	"parsecureml/internal/mpc"
	"parsecureml/internal/obs"
	"parsecureml/internal/rng"
	"parsecureml/internal/tensor"
)

// startFedPair runs a ServeClients pair whose parties draw triplets
// from feeds instead of client uploads, over a real TCP peer link.
func startFedPair(t *testing.T, cfg0, cfg1 mpc.ServeConfig) (addr0, addr1 string, shutdown func()) {
	t.Helper()
	peerLn, err := comm.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln0, err := comm.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln1, err := comm.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		peer, err := comm.Accept(peerLn)
		peerLn.Close()
		if err != nil {
			t.Errorf("peer accept: %v", err)
			return
		}
		defer peer.Close()
		if err := mpc.ServeClients(ctx, 0, ln0, peer, cfg0); err != nil {
			t.Errorf("server 0: %v", err)
		}
	}()
	go func() {
		defer wg.Done()
		peer, err := comm.DialRetry(peerLn.Addr().String(), comm.RetryConfig{Attempts: 10, BaseDelay: 10 * time.Millisecond})
		if err != nil {
			t.Errorf("peer dial: %v", err)
			return
		}
		defer peer.Close()
		if err := mpc.ServeClients(ctx, 1, ln1, peer, cfg1); err != nil {
			t.Errorf("server 1: %v", err)
		}
	}()
	return ln0.Addr().String(), ln1.Addr().String(), func() {
		cancel()
		wg.Wait()
	}
}

func dialBoth(t *testing.T, addr0, addr1 string) (c0, c1 *comm.Conn) {
	t.Helper()
	c0, err := comm.DialRetry(addr0, comm.RetryConfig{Attempts: 20, BaseDelay: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	c1, err = comm.DialRetry(addr1, comm.RetryConfig{Attempts: 20, BaseDelay: 10 * time.Millisecond})
	if err != nil {
		c0.Close()
		t.Fatal(err)
	}
	c0.SetTimeouts(20*time.Second, 20*time.Second)
	c1.SetTimeouts(20*time.Second, 20*time.Second)
	return c0, c1
}

// TestDealerFedServingBitIdentical is the deviation-retirement proof:
// a pair fed by cmd/psml-dealer's protocol serves requests whose
// results are BIT-identical to the classic client-as-dealer path given
// the same splits and the same (seeded) triplet stream — floating-point
// rounding makes anything weaker meaningless. Requests upload only A/B
// shares (the 2-matrix wire form); the parties agree on the triplet via
// the seq announcement and pull complementary halves from the dealer.
func TestDealerFedServingBitIdentical(t *testing.T) {
	const dealerSeed = 777
	addr, _ := startDealer(t, DealerConfig{Seed: dealerSeed})

	serveCfg := mpc.ServeConfig{
		ClientTimeout: 10 * time.Second,
		PeerTimeout:   10 * time.Second,
	}
	cfg0, cfg1 := serveCfg, serveCfg
	feed0, err := NewDealerClient(feedConnect(addr), 0, 1, FeedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer feed0.Close()
	feed1, err := NewDealerClient(feedConnect(addr), 1, 1, FeedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer feed1.Close()
	cfg0.Feed, cfg1.Feed = feed0, feed1

	fedAddr0, fedAddr1, stopFed := startFedPair(t, cfg0, cfg1)
	defer stopFed()
	refAddr0, refAddr1, stopRef := startFedPair(t, serveCfg, serveCfg)
	defer stopRef()

	fed0c, fed1c := dialBoth(t, fedAddr0, fedAddr1)
	defer fed0c.Close()
	defer fed1c.Close()
	ref0c, ref1c := dialBoth(t, refAddr0, refAddr1)
	defer ref0c.Close()
	defer ref1c.Close()

	// The reference client deals triplets itself from the dealer's
	// stream: same base seed, same per-shape sequence.
	refSrc := NewStreamSource(dealerSeed)
	split := rng.NewPool(4)
	for round := 0; round < 4; round++ {
		m, k, n := 5+round, 7, 6
		a := split.NewUniform(m, k, -1, 1)
		b := split.NewUniform(k, n, -1, 1)
		a0, a1 := mpc.SplitRand(split, a)
		b0, b1 := mpc.SplitRand(split, b)
		id := uint64(0x1000 + round)

		// Dealer-fed: T stays zero; the pair pulls stream seq `round`
		// of this round's shape (each round uses a fresh shape, so the
		// per-shape seq is 0 — matching the reference's first Gen).
		got, err := mpc.RequestMulID(id, fed0c, fed1c,
			mpc.Shares{A: a0, B: b0}, mpc.Shares{A: a1, B: b1})
		if err != nil {
			t.Fatalf("round %d dealer-fed request: %v", round, err)
		}

		t0, t1 := refSrc.Gen(m, k, n)
		want, err := mpc.RequestMulID(id, ref0c, ref1c,
			mpc.Shares{A: a0, B: b0, T: t0}, mpc.Shares{A: a1, B: b1, T: t1})
		if err != nil {
			t.Fatalf("round %d reference request: %v", round, err)
		}
		if !got.Equal(want) {
			t.Fatalf("round %d: dealer-fed result differs from the client-dealt reference by %v",
				round, got.MaxAbsDiff(want))
		}
		if !got.ApproxEqual(tensor.MulNaive(a, b), 1e-3) {
			t.Fatalf("round %d: served product off the plaintext by %v",
				round, got.MaxAbsDiff(tensor.MulNaive(a, b)))
		}
	}
}

// TestDealerFedServingConcurrentSessions hammers one dealer-fed pair
// with concurrent clients on one shape: the seq announcement must keep
// every request's two halves complementary no matter how draws
// interleave, which plaintext correctness on every result verifies
// (mismatched halves yield garbage, not small error).
func TestDealerFedServingConcurrentSessions(t *testing.T) {
	addr, _ := startDealer(t, DealerConfig{Seed: 5})
	serveCfg := mpc.ServeConfig{
		ClientTimeout: 20 * time.Second,
		PeerTimeout:   20 * time.Second,
	}
	cfg0, cfg1 := serveCfg, serveCfg
	for party, into := range []*mpc.ServeConfig{&cfg0, &cfg1} {
		feed, err := NewDealerClient(feedConnect(addr), party, 1, FeedConfig{Depth: 32})
		if err != nil {
			t.Fatal(err)
		}
		defer feed.Close()
		into.Feed = feed
	}
	addr0, addr1, stop := startFedPair(t, cfg0, cfg1)
	defer stop()

	const clients = 6
	const rounds = 5
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			c0, c1 := dialBoth(t, addr0, addr1)
			defer c0.Close()
			defer c1.Close()
			p := rng.NewPool(uint64(100 + c))
			for r := 0; r < rounds; r++ {
				a := p.NewUniform(6, 8, -1, 1)
				b := p.NewUniform(8, 4, -1, 1)
				a0, a1 := mpc.SplitRand(p, a)
				b0, b1 := mpc.SplitRand(p, b)
				id := uint64(c)<<32 | uint64(r) | 1<<60
				got, err := mpc.RequestMulID(id, c0, c1,
					mpc.Shares{A: a0, B: b0}, mpc.Shares{A: a1, B: b1})
				if err != nil {
					t.Errorf("client %d round %d: %v", c, r, err)
					return
				}
				if !got.ApproxEqual(tensor.MulNaive(a, b), 1e-3) {
					t.Errorf("client %d round %d: product off by %v — triplet halves disagreed",
						c, r, got.MaxAbsDiff(tensor.MulNaive(a, b)))
					return
				}
			}
		}(c)
	}
	wg.Wait()
}

// TestDealerFedBatchedBitIdentical is the dealer-fed batching drill:
// concurrent dealer-fed clients on one shape share cross-session
// batches — one seq announcement per batch, one stacked exchange — next
// to client-dealt clients of the same geometry, which batch separately.
// Every dealer-fed result must be bit-identical to a client-dealt
// reference pair fed the dealer stream triplet its batch consumed, each
// stream seq consumed exactly once; every client-dealt result must be
// bit-identical to the reference pair on its own triplet. A request that
// ships a triplet to party 0 only keys different batches on the two
// parties: it must fail alone, its co-tenants unharmed.
func TestDealerFedBatchedBitIdentical(t *testing.T) {
	const (
		dealerSeed = 4242
		fedClients = 4
		dealt      = 2
		rounds     = 3
		m, k, n    = 6, 8, 5
	)
	addr, _ := startDealer(t, DealerConfig{Seed: dealerSeed})
	serveCfg := mpc.ServeConfig{ClientTimeout: 20 * time.Second, PeerTimeout: 20 * time.Second}
	cfg0, cfg1 := serveCfg, serveCfg
	for party, into := range []*mpc.ServeConfig{&cfg0, &cfg1} {
		feed, err := NewDealerClient(feedConnect(addr), party, 1, FeedConfig{Depth: 16})
		if err != nil {
			t.Fatal(err)
		}
		defer feed.Close()
		into.Feed = feed
		into.Batch = &mpc.BatchConfig{Window: 20 * time.Millisecond, MaxBatch: fedClients}
	}
	addr0, addr1, stop := startFedPair(t, cfg0, cfg1)
	defer stop()
	refAddr0, refAddr1, stopRef := startFedPair(t, serveCfg, serveCfg)
	defer stopRef()

	batched := obs.Default.Counter("psml_batch_requests_total", "")
	batches := obs.Default.Counter("psml_batch_batches_total", "")
	batched0, batches0, dups0 := batched.Value(), batches.Value(), feedDups.Load()

	type call struct {
		a, b   *tensor.Matrix
		s0, s1 mpc.Shares
		got    *tensor.Matrix
	}
	calls := make([][]call, fedClients+dealt)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for c := range calls {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			c0, c1 := dialBoth(t, addr0, addr1)
			defer c0.Close()
			defer c1.Close()
			p := rng.NewPool(uint64(300 + c))
			<-start
			for r := 0; r < rounds; r++ {
				a := p.NewUniform(m, k, -1, 1)
				b := p.NewUniform(k, n, -1, 1)
				a0, a1 := mpc.SplitRand(p, a)
				b0, b1 := mpc.SplitRand(p, b)
				cl := call{a: a, b: b, s0: mpc.Shares{A: a0, B: b0}, s1: mpc.Shares{A: a1, B: b1}}
				if c >= fedClients {
					cl.s0.T, cl.s1.T = mpc.GenGemmTripletShares(p, m, k, n)
				}
				got, err := mpc.RequestMulID(uint64(c)<<32|uint64(r)|1<<61, c0, c1, cl.s0, cl.s1)
				if err != nil {
					t.Errorf("client %d round %d: %v", c, r, err)
					return
				}
				cl.got = got
				calls[c] = append(calls[c], cl)
			}
		}(c)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		c0, c1 := dialBoth(t, addr0, addr1)
		defer c0.Close()
		defer c1.Close()
		p := rng.NewPool(299)
		a0, a1 := mpc.SplitRand(p, p.NewUniform(m, k, -1, 1))
		b0, b1 := mpc.SplitRand(p, p.NewUniform(k, n, -1, 1))
		t0, _ := mpc.GenGemmTripletShares(p, m, k, n)
		<-start
		if _, err := mpc.RequestMulID(1<<61|1<<31, c0, c1,
			mpc.Shares{A: a0, B: b0, T: t0}, mpc.Shares{A: a1, B: b1}); err == nil {
			t.Error("a request with a triplet for party 0 only succeeded")
		}
	}()
	close(start)
	wg.Wait()
	if t.Failed() {
		return
	}

	// Dealer-fed requests batched: each request counts at most once per
	// party, so more batched requests than twice the others (client-dealt
	// and the mixed one) means dealer-fed members rode batches, and more
	// than batches means some batch held several members.
	gotBatched, gotBatches := batched.Value()-batched0, batches.Value()-batches0
	t.Logf("%d requests batched in %d batches (both parties)", gotBatched, gotBatches)
	if gotBatched <= 2*(dealt*rounds+1) {
		t.Fatalf("%d batched requests: dealer-fed requests did not batch", gotBatched)
	}
	if gotBatched <= gotBatches {
		t.Fatalf("%d batched requests in %d batches: no batch held two members", gotBatched, gotBatches)
	}
	if d := feedDups.Load() - dups0; d != 0 {
		t.Fatalf("%d duplicate triplet deliveries", d)
	}

	ref0c, ref1c := dialBoth(t, refAddr0, refAddr1)
	defer ref0c.Close()
	defer ref1c.Close()
	refID := uint64(1 << 62)
	reference := func(cl call, t0, t1 mpc.TripletShares) *tensor.Matrix {
		refID++
		s0, s1 := cl.s0, cl.s1
		s0.T, s1.T = t0, t1
		want, err := mpc.RequestMulID(refID, ref0c, ref1c, s0, s1)
		if err != nil {
			t.Fatalf("reference request: %v", err)
		}
		return want
	}
	// The fed requests consumed seqs 0..fedClients·rounds−1 of the shape's
	// stream in some interleaving: match each result to the one unused
	// seq whose reference result it equals bit for bit.
	src := NewStreamSource(dealerSeed)
	stream := make([][2]mpc.TripletShares, fedClients*rounds)
	for s := range stream {
		stream[s][0], stream[s][1] = src.Gen(m, k, n)
	}
	used := make([]bool, len(stream))
	for c, cs := range calls {
		for r, cl := range cs {
			if !cl.got.ApproxEqual(tensor.MulNaive(cl.a, cl.b), 1e-3) {
				t.Fatalf("client %d round %d: product off the plaintext by %v",
					c, r, cl.got.MaxAbsDiff(tensor.MulNaive(cl.a, cl.b)))
			}
			if c >= fedClients {
				if want := reference(cl, cl.s0.T, cl.s1.T); !cl.got.Equal(want) {
					t.Fatalf("client-dealt client %d round %d differs from the reference by %v", c, r, cl.got.MaxAbsDiff(want))
				}
				continue
			}
			matched := false
			for s := range stream {
				if !used[s] && cl.got.Equal(reference(cl, stream[s][0], stream[s][1])) {
					used[s], matched = true, true
					break
				}
			}
			if !matched {
				t.Fatalf("dealer-fed client %d round %d matches no unused stream triplet bit for bit", c, r)
			}
		}
	}
}
