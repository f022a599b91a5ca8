package mpc

import (
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"parsecureml/internal/comm"
	"parsecureml/internal/obs"
	"parsecureml/internal/rng"
	"parsecureml/internal/tensor"
)

// Regression tests for the connection-lifecycle sweep: orphaned result
// frames on the client<->server conns, the unbounded-shutdown path in
// ServeClients, and the unbounded role handshake.

// startServeConns boots a ServeClients pair and returns one client's
// connections to it.
func startServeConns(t *testing.T) (c0, c1 *comm.Conn, shutdown func()) {
	t.Helper()
	addr0, addr1, stop := startServePair(t, ServeConfig{ClientTimeout: 10 * time.Second, PeerTimeout: 10 * time.Second})
	c0, c1 = dialPair(t, addr0, addr1)
	return c0, c1, func() {
		c0.Close()
		c1.Close()
		stop()
	}
}

// stalePrefixFramer returns queued frames ahead of the real stream — the
// shape of a socket buffer still holding result frames of an earlier
// request that died before reading them.
type stalePrefixFramer struct {
	comm.Framer
	pending [][]byte
}

func (s *stalePrefixFramer) ReadFrame() ([]byte, error) {
	if len(s.pending) > 0 {
		f := s.pending[0]
		s.pending = s.pending[1:]
		return f, nil
	}
	return s.Framer.ReadFrame()
}

func staleResultFrames(n int) [][]byte {
	frames := make([][]byte, n)
	for i := range frames {
		f := binary.LittleEndian.AppendUint64(nil, 0xABAD1DEA+uint64(i))
		frames[i] = append(f, "orphaned result"...)
	}
	return frames
}

// A result frame orphaned by an aborted earlier call must be shed on the
// next RequestMul over the same connections, not decoded as its answer.
func TestRequestMulShedsOrphanedResults(t *testing.T) {
	c0, c1, shutdown := startServeConns(t)
	defer shutdown()

	p := rng.NewPool(21)
	client := newRemoteClient()
	a := p.NewUniform(6, 6, -1, 1)
	b := p.NewUniform(6, 6, -1, 1)
	in0, in1 := RemoteClientSplit(a, b, client)

	got, err := RequestMul(
		&stalePrefixFramer{Framer: c0, pending: staleResultFrames(3)},
		&stalePrefixFramer{Framer: c1, pending: staleResultFrames(1)},
		in0, in1)
	if err != nil {
		t.Fatal(err)
	}
	want := tensor.MulTo(a, b)
	if !got.ApproxEqual(want, 1e-3) {
		t.Fatalf("product off by %v after shedding orphaned results", got.MaxAbsDiff(want))
	}
}

// A connection delivering nothing but orphaned results must fail with
// ErrPeerDesync after a bounded number of discards, not spin forever.
func TestRequestMulResultDesyncBound(t *testing.T) {
	c0, c1, shutdown := startServeConns(t)
	defer shutdown()

	p := rng.NewPool(22)
	client := newRemoteClient()
	a := p.NewUniform(4, 4, -1, 1)
	b := p.NewUniform(4, 4, -1, 1)
	in0, in1 := RemoteClientSplit(a, b, client)

	_, err := RequestMul(
		&stalePrefixFramer{Framer: c0, pending: staleResultFrames(maxStaleFrames)},
		c1, in0, in1)
	if !errors.Is(err, ErrPeerDesync) {
		t.Fatalf("got %v, want ErrPeerDesync", err)
	}
	var se *ServerError
	if !errors.As(err, &se) || se.Server != 0 {
		t.Fatalf("desync not blamed on server 0's conn: %v", err)
	}
}

// When both uploads die on a faulty fabric, the joined error must carry a
// typed *ServerError for each leg — neither failure shadows the other.
func TestRequestMulSurfacesBothLegFailures(t *testing.T) {
	mkFaulty := func() (*comm.Conn, func()) {
		raw, peerRaw := net.Pipe()
		go io.Copy(io.Discard, peerRaw) // absorb the bytes that do get out
		fc := comm.NewFaultConn(raw)
		fc.FailWriteAfter = 4 // dies mid-frame, right after the length prefix
		return comm.Wrap(fc), func() { raw.Close(); peerRaw.Close() }
	}
	c0, close0 := mkFaulty()
	defer close0()
	c1, close1 := mkFaulty()
	defer close1()

	p := rng.NewPool(23)
	client := newRemoteClient()
	a := p.NewUniform(4, 4, -1, 1)
	b := p.NewUniform(4, 4, -1, 1)
	in0, in1 := RemoteClientSplit(a, b, client)

	_, err := RequestMul(c0, c1, in0, in1)
	if err == nil {
		t.Fatal("RequestMul with both uploads failing must error")
	}
	if !errors.Is(err, comm.ErrInjected) {
		t.Fatalf("joined error %v does not surface the injected fault", err)
	}
	legs := []error{err}
	if joined, ok := err.(interface{ Unwrap() []error }); ok {
		legs = joined.Unwrap()
	}
	blamed := map[int]bool{}
	for _, leg := range legs {
		var se *ServerError
		if errors.As(leg, &se) {
			if se.Op != "upload" {
				t.Errorf("server %d blamed for %q, want upload", se.Server, se.Op)
			}
			blamed[se.Server] = true
		}
	}
	if !blamed[0] || !blamed[1] {
		t.Fatalf("joined error %v does not blame both servers (got %v)", err, blamed)
	}
}

// Cancelling ServeClients' context must end the loop promptly even when
// ClientTimeout is 0 and an idle client is connected: the shutdown hook
// closes the active conn, so the session's frame read cannot pin the
// loop until a deadline that never comes.
func TestServeClientsBoundedShutdown(t *testing.T) {
	ln, err := comm.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p0, p1 := comm.Pipe()
	defer p0.Close()
	defer p1.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		done <- ServeClients(ctx, 0, ln, p0, ServeConfig{Log: obs.LogfLogger(t.Logf)})
	}()

	client, err := comm.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	// Give the accept loop a beat to pick the session up (if cancellation
	// wins the race instead, the loop must still exit promptly), then
	// cancel while the client sits idle mid-session.
	time.Sleep(50 * time.Millisecond)
	cancel()

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve after cancel: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("ServeClients did not return within 2s of cancellation")
	}
}

// The role handshake must bound itself on a silent or non-reading peer
// and put the caller's own deadlines back afterwards.
func TestHelloBoundedAndRestoresTimeouts(t *testing.T) {
	old := helloTimeout
	helloTimeout = 150 * time.Millisecond
	defer func() { helloTimeout = old }()

	a, b := comm.Pipe()
	defer a.Close()
	defer b.Close()
	a.SetTimeouts(5*time.Second, 7*time.Second)

	checkRestored := func(op string) {
		t.Helper()
		if r, w := a.Timeouts(); r != 5*time.Second || w != 7*time.Second {
			t.Fatalf("%s left timeouts read=%v write=%v, want 5s/7s", op, r, w)
		}
	}

	start := time.Now()
	if _, err := ReadHello(a); err == nil { // b never speaks
		t.Fatal("ReadHello from a silent peer must fail")
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("ReadHello blocked %v with a %v hello timeout", el, helloTimeout)
	}
	checkRestored("ReadHello")

	start = time.Now()
	if err := WriteHello(a, 0); err == nil { // b never reads
		t.Fatal("WriteHello to a non-reading peer must fail")
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("WriteHello blocked %v with a %v hello timeout", el, helloTimeout)
	}
	checkRestored("WriteHello")
}
