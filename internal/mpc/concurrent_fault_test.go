package mpc_test

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"parsecureml/internal/comm"
	"parsecureml/internal/mpc"
	"parsecureml/internal/mpc/tripletpool"
	"parsecureml/internal/rng"
	"parsecureml/internal/tensor"
)

// External-package view of the concurrent serving stack: the full client
// flow (offline triplet pool -> input split -> RequestMul) against
// ServeClients through exported API only, with fault injection.

// startPair boots both parties as concurrent accept loops over a real
// TCP peer link.
func startPair(t *testing.T, cfg mpc.ServeConfig) (addr0, addr1 string, shutdown func()) {
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
		if err := mpc.ServeClients(ctx, 0, ln0, peer, cfg); err != nil {
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
		if err := mpc.ServeClients(ctx, 1, ln1, peer, cfg); err != nil {
			t.Errorf("server 1: %v", err)
		}
	}()
	return ln0.Addr().String(), ln1.Addr().String(), func() {
		cancel()
		wg.Wait()
	}
}

// TestConcurrentSessionsSurviveClientKill is the satellite fault drill:
// 8 clients run concurrently; one is killed mid-RequestMul (its upload
// to server 0 dies partway through a frame via comm.FaultConn), and the
// surviving 7 sessions must all complete with correct results. Run under
// -race in CI.
func TestConcurrentSessionsSurviveClientKill(t *testing.T) {
	const honest = 7
	addr0, addr1, shutdown := startPair(t, mpc.ServeConfig{
		ClientTimeout: 10 * time.Second,
		PeerTimeout:   700 * time.Millisecond,
		MaxSessions:   honest + 1,
	})
	defer shutdown()

	pool := tripletpool.New(tripletpool.Config{Depth: 2, Workers: 2, Seed: 77})
	defer pool.Close()
	p := rng.NewPool(88)

	var mu sync.Mutex // rng.Pool fills are thread-safe; plaintext draws stay ordered for determinism
	draw := func(rows, cols int) *tensor.Matrix {
		mu.Lock()
		defer mu.Unlock()
		return p.NewUniform(rows, cols, -1, 1)
	}

	start := make(chan struct{})
	var wg sync.WaitGroup

	// The rogue: dials server 0 through a FaultConn whose write budget
	// dies mid-frame, so its request upload truncates while its server 1
	// leg completes — the exact half-uploaded state that used to wedge
	// the peer link.
	wg.Add(1)
	go func() {
		defer wg.Done()
		raw0, err := net.Dial("tcp", addr0)
		if err != nil {
			t.Errorf("rogue dial 0: %v", err)
			return
		}
		fc := comm.NewFaultConn(raw0)
		fc.FailWriteAfter = 256 // dies 256 bytes into the upload
		c0 := comm.Wrap(fc)
		defer c0.Close()
		c1, err := comm.Dial(addr1)
		if err != nil {
			t.Errorf("rogue dial 1: %v", err)
			return
		}
		defer c1.Close()
		c0.SetTimeouts(3*time.Second, 3*time.Second)
		c1.SetTimeouts(3*time.Second, 3*time.Second)
		a := draw(16, 12)
		b := draw(12, 16)
		in0, in1 := pool.Split(a, b)
		<-start
		if _, err := mpc.RequestMul(c0, c1, in0, in1); err == nil {
			t.Error("rogue RequestMul succeeded despite injected write failure")
		}
	}()

	// Seven honest clients, three verified requests each.
	for i := 0; i < honest; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c0, err := comm.DialRetry(addr0, comm.RetryConfig{Attempts: 10, BaseDelay: 10 * time.Millisecond})
			if err != nil {
				t.Errorf("client %d dial 0: %v", i, err)
				return
			}
			defer c0.Close()
			c1, err := comm.DialRetry(addr1, comm.RetryConfig{Attempts: 10, BaseDelay: 10 * time.Millisecond})
			if err != nil {
				t.Errorf("client %d dial 1: %v", i, err)
				return
			}
			defer c1.Close()
			c0.SetTimeouts(10*time.Second, 10*time.Second)
			c1.SetTimeouts(10*time.Second, 10*time.Second)
			m, k, n := 14+i, 10, 12 // distinct geometry per client
			<-start
			for r := 0; r < 3; r++ {
				a := draw(m, k)
				b := draw(k, n)
				in0, in1 := pool.Split(a, b)
				got, err := mpc.RequestMul(c0, c1, in0, in1)
				if err != nil {
					t.Errorf("honest client %d round %d: %v", i, r, err)
					return
				}
				want := tensor.MulNaive(a, b)
				if !got.ApproxEqual(want, 1e-3) {
					t.Errorf("honest client %d round %d off by %v", i, r, got.MaxAbsDiff(want))
					return
				}
			}
		}(i)
	}

	close(start)
	wg.Wait()
}
