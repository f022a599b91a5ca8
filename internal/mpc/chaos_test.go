package mpc

import (
	"context"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"parsecureml/internal/comm"
	"parsecureml/internal/rng"
	"parsecureml/internal/tensor"
)

// Chaos drill: the peer link is hard-dropped (at deterministic frame
// boundaries, via FaultConn.DropAfterFrames) while 8 concurrent sessions
// exchange E/F legs over it. The supervised link must detect each loss,
// reconnect, resync, and replay the in-flight frames — every session
// finishes with results bit-identical to its reference product and no
// session ever observes an error. This is the PR's headline guarantee:
// a link failure is visible to RequestMul callers only as latency.
func TestConcurrentSessionsSurviveLinkDrops(t *testing.T) {
	const clients, rounds = 8, 4
	reconnectsBefore := comm.SupervisorTotals().Reconnects

	p := rng.NewPool(777)
	type job struct {
		in0, in1 Shares
		want     *tensor.Matrix
	}
	jobs := make([]job, clients)
	for i := range jobs {
		m, k, n := 16+i, 12, 8+i
		a := p.NewUniform(m, k, -1, 1)
		b := p.NewUniform(k, n, -1, 1)
		t0, t1 := GenGemmTripletShares(p, m, k, n)
		a0, a1 := SplitRand(p, a)
		b0, b1 := SplitRand(p, b)
		jobs[i] = job{in0: Shares{A: a0, B: b0, T: t0}, in1: Shares{A: a1, B: b1, T: t1}}
		jobs[i].want = referenceProduct(t, jobs[i].in0, jobs[i].in1)
	}

	peerLn, err := comm.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer peerLn.Close()
	ln0, err := comm.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln1, err := comm.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	supCfg := comm.SupervisorConfig{
		HeartbeatInterval: 20 * time.Millisecond,
		MissBudget:        5,
		ReconnectAttempts: 200,
		ReconnectBase:     5 * time.Millisecond,
		ReconnectMax:      100 * time.Millisecond,
		ResyncTimeout:     5 * time.Second,
	}
	serveCfg := ServeConfig{
		ClientTimeout: 60 * time.Second,
		// Must cover detect + reconnect + resync + replay, which the
		// supCfg above completes in well under a second per drop.
		PeerTimeout: 30 * time.Second,
		MaxSessions: clients + 2,
	}
	// Party 1's outgoing stream is cut at a frame boundary on its first
	// two connections: 25 frames into the first (mid-exchange for the
	// early sessions) and 55 into the second (which includes the replay
	// of whatever the first drop stranded).
	drops := map[int]int{0: 25, 1: 55}

	ctx, cancel := context.WithCancel(context.Background())
	var serveWg sync.WaitGroup
	serveWg.Add(2)
	go func() {
		defer serveWg.Done()
		peer, err := SupervisePeer(0, func() (*comm.Conn, error) {
			c, err := comm.Accept(peerLn)
			if err != nil {
				return nil, err
			}
			c.SetTimeouts(0, 10*time.Second)
			return c, nil
		}, supCfg)
		if err != nil {
			t.Errorf("party 0 link: %v", err)
			return
		}
		if err := ServeClients(ctx, 0, ln0, peer, serveCfg); err != nil {
			t.Errorf("server 0: %v", err)
		}
	}()
	go func() {
		defer serveWg.Done()
		// connect calls are serialized by the supervisor, so a plain
		// counter is safe here.
		incarnation := 0
		peer, err := SupervisePeer(1, func() (*comm.Conn, error) {
			raw, err := net.Dial("tcp", peerLn.Addr().String())
			if err != nil {
				return nil, err
			}
			fc := comm.NewFaultConn(raw)
			if n, ok := drops[incarnation]; ok {
				fc.DropAfterFrames(n)
			}
			incarnation++
			c := comm.Wrap(fc)
			c.SetTimeouts(0, 10*time.Second)
			return c, nil
		}, supCfg)
		if err != nil {
			t.Errorf("party 1 link: %v", err)
			return
		}
		if err := ServeClients(ctx, 1, ln1, peer, serveCfg); err != nil {
			t.Errorf("server 1: %v", err)
		}
	}()
	defer func() {
		cancel()
		peerLn.Close() // unblock a pending re-accept in party 0's connect
		serveWg.Wait()
	}()
	addr0, addr1 := ln0.Addr().String(), ln1.Addr().String()

	var clientWg sync.WaitGroup
	var failed atomic.Bool
	for i := range jobs {
		clientWg.Add(1)
		go func(j job) {
			defer clientWg.Done()
			c0, c1 := dialPair(t, addr0, addr1)
			defer c0.Close()
			defer c1.Close()
			c0.SetTimeouts(60*time.Second, 60*time.Second)
			c1.SetTimeouts(60*time.Second, 60*time.Second)
			for r := 0; r < rounds; r++ {
				got, err := RequestMul(c0, c1, j.in0, j.in1)
				if err != nil {
					t.Errorf("request during link chaos: %v", err)
					failed.Store(true)
					return
				}
				if !got.Equal(j.want) {
					t.Errorf("result differs from the reference by %v", got.MaxAbsDiff(j.want))
					failed.Store(true)
					return
				}
			}
		}(jobs[i])
	}
	clientWg.Wait()
	if failed.Load() {
		return
	}

	// Both drops must actually have fired. If the main wave outran the
	// second drop, keep traffic flowing (each result still verified)
	// until the supervisor has reconnected twice.
	reconnected := func() int64 { return comm.SupervisorTotals().Reconnects - reconnectsBefore }
	if reconnected() < 2 {
		c0, c1 := dialPair(t, addr0, addr1)
		defer c0.Close()
		defer c1.Close()
		c0.SetTimeouts(60*time.Second, 60*time.Second)
		c1.SetTimeouts(60*time.Second, 60*time.Second)
		deadline := time.Now().Add(60 * time.Second)
		for reconnected() < 2 {
			if time.Now().After(deadline) {
				t.Fatalf("only %d reconnects observed, want >= 2", reconnected())
			}
			got, err := RequestMul(c0, c1, jobs[0].in0, jobs[0].in1)
			if err != nil {
				t.Fatalf("tail request during link chaos: %v", err)
			}
			if !got.Equal(jobs[0].want) {
				t.Fatalf("tail result differs from the reference by %v", got.MaxAbsDiff(jobs[0].want))
			}
		}
	}
}

// A supervised pair must also come up when the dial side starts first
// (the listener's accept supervisor not yet running) — the reconnect
// loop inside NewSupervisedLink absorbs the startup race the same way
// DialRetry does for bare conns.
func TestSupervisePeerStartupOrder(t *testing.T) {
	peerLn, err := comm.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer peerLn.Close()
	supCfg := comm.SupervisorConfig{
		HeartbeatInterval: 20 * time.Millisecond,
		ReconnectAttempts: 100,
		ReconnectBase:     5 * time.Millisecond,
		ResyncTimeout:     5 * time.Second,
	}
	type res struct {
		l   *comm.SupervisedLink
		err error
	}
	dialed := make(chan res, 1)
	go func() {
		l, err := SupervisePeer(1, func() (*comm.Conn, error) {
			return comm.Dial(peerLn.Addr().String())
		}, supCfg)
		dialed <- res{l, err}
	}()
	// Give the dialer a head start so its first attempts race the
	// accept side coming up.
	time.Sleep(50 * time.Millisecond)
	l0, err := SupervisePeer(0, func() (*comm.Conn, error) {
		return comm.Accept(peerLn)
	}, supCfg)
	if err != nil {
		t.Fatalf("accept side: %v", err)
	}
	defer l0.Close()
	r := <-dialed
	if r.err != nil {
		t.Fatalf("dial side: %v", r.err)
	}
	defer r.l.Close()
	if err := l0.WriteFrame([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	f, err := r.l.ReadFrame()
	if err != nil || string(f) != "ping" {
		t.Fatalf("got %q, %v", f, err)
	}
}
