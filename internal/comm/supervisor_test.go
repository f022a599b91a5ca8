package comm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fastSupCfg is a supervisor tuning tight enough for tests: 10ms
// heartbeats, quick reconnects, generous budgets elsewhere.
func fastSupCfg() SupervisorConfig {
	return SupervisorConfig{
		HeartbeatInterval: 10 * time.Millisecond,
		MissBudget:        3,
		ReconnectAttempts: 50,
		ReconnectBase:     5 * time.Millisecond,
		ReconnectMax:      50 * time.Millisecond,
		ResyncTimeout:     2 * time.Second,
	}
}

// supPair builds two supervised links over real TCP. faultFor, when non
// nil, wraps the dialer's raw connection per incarnation (incarnation 0
// is the first connect) — the hook DropAfterFrames tests use. Cleanup
// closes both links and the listener.
func supPair(t *testing.T, cfgA, cfgB SupervisorConfig, faultFor func(incarnation int, raw net.Conn) net.Conn) (accept, dial *SupervisedLink) {
	t.Helper()
	ln, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { ln.Close() })
	acceptConnect := func() (Framer, error) {
		c, err := Accept(ln)
		if err != nil {
			return nil, err
		}
		return c, nil
	}
	var incarnation atomic.Int64
	dialConnect := func() (Framer, error) {
		raw, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			return nil, err
		}
		n := int(incarnation.Add(1)) - 1
		if faultFor != nil {
			raw = faultFor(n, raw)
		}
		return Wrap(raw), nil
	}
	// Both ends connect concurrently: the accept side blocks in Accept
	// until the dialer arrives.
	type res struct {
		s   *SupervisedLink
		err error
	}
	ch := make(chan res, 1)
	go func() {
		s, err := NewSupervisedLink(acceptConnect, cfgA)
		ch <- res{s, err}
	}()
	dial, err = NewSupervisedLink(dialConnect, cfgB)
	if err != nil {
		t.Fatalf("dial side: %v", err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatalf("accept side: %v", r.err)
	}
	accept = r.s
	t.Cleanup(func() { accept.Close(); dial.Close() })
	return accept, dial
}

func payload(i int) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, uint64(i))
	return b
}

func TestSupervisedLinkRoundTrip(t *testing.T) {
	a, b := supPair(t, fastSupCfg(), fastSupCfg(), nil)
	const n = 100
	errc := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			if err := a.WriteFrame(payload(i)); err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	for i := 0; i < n; i++ {
		f, err := b.ReadFrame()
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if got := int(binary.LittleEndian.Uint64(f)); got != i {
			t.Fatalf("frame %d: got payload %d", i, got)
		}
	}
	if err := <-errc; err != nil {
		t.Fatalf("write: %v", err)
	}
	// And the other direction, with the vectored write path.
	if err := b.WriteFrameVec([]byte("hel"), []byte("lo")); err != nil {
		t.Fatalf("write vec: %v", err)
	}
	f, err := a.ReadFrame()
	if err != nil {
		t.Fatalf("read back: %v", err)
	}
	if string(f) != "hello" {
		t.Fatalf("got %q", f)
	}
}

func TestSupervisedLinkSurvivesFrameBoundaryDrops(t *testing.T) {
	before := SupervisorTotals()
	// Drop the dialer's outgoing stream at a frame boundary twice: once
	// 7 frames into the first connection, once 11 frames into the second.
	drops := map[int]int{0: 7, 1: 11}
	a, b := supPair(t, fastSupCfg(), fastSupCfg(), func(inc int, raw net.Conn) net.Conn {
		fc := NewFaultConn(raw)
		if n, ok := drops[inc]; ok {
			fc.DropAfterFrames(n)
		}
		return fc
	})
	const n = 200
	errc := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			if err := b.WriteFrame(payload(i)); err != nil {
				errc <- fmt.Errorf("write %d: %w", i, err)
				return
			}
		}
		errc <- nil
	}()
	for i := 0; i < n; i++ {
		f, err := a.ReadFrame()
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if got := int(binary.LittleEndian.Uint64(f)); got != i {
			t.Fatalf("frame %d: got payload %d (reorder or loss across reconnect)", i, got)
		}
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if d := SupervisorTotals().Reconnects - before.Reconnects; d < 2 {
		t.Fatalf("expected >= 2 reconnects, got %d", d)
	}
}

func TestSupervisedLinkBidirectionalUnderDrop(t *testing.T) {
	a, b := supPair(t, fastSupCfg(), fastSupCfg(), func(inc int, raw net.Conn) net.Conn {
		fc := NewFaultConn(raw)
		if inc == 0 {
			fc.DropAfterFrames(13)
		}
		return fc
	})
	const n = 60
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	send := func(s *SupervisedLink) {
		defer wg.Done()
		for i := 0; i < n; i++ {
			if err := s.WriteFrame(payload(i)); err != nil {
				errs <- err
				return
			}
		}
	}
	recv := func(s *SupervisedLink) {
		defer wg.Done()
		for i := 0; i < n; i++ {
			f, err := s.ReadFrame()
			if err != nil {
				errs <- err
				return
			}
			if got := int(binary.LittleEndian.Uint64(f)); got != i {
				errs <- fmt.Errorf("frame %d: got %d", i, got)
				return
			}
		}
	}
	wg.Add(4)
	go send(a)
	go send(b)
	go recv(a)
	go recv(b)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}

func TestSupervisedLinkDetectsPeerRestart(t *testing.T) {
	ln, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	cfg := fastSupCfg()
	cfg.ReconnectAttempts = 3

	// The "peer" is scripted by hand: first incarnation speaks the
	// protocol and delivers one data frame; the restarted incarnation
	// answers the resync with zeroed state, as a fresh process would.
	peerDone := make(chan error, 1)
	go func() {
		peerDone <- func() error {
			c, err := Accept(ln)
			if err != nil {
				return err
			}
			f, err := c.ReadFrame() // link's RESYNC
			if err != nil {
				return err
			}
			if f[0] != supKindResync {
				return fmt.Errorf("expected resync, got kind 0x%02x", f[0])
			}
			var hdr [supHeaderBytes]byte
			putSupHeader(hdr[:], supKindResync, 0, 0)
			if err := c.WriteFrame(hdr[:]); err != nil {
				return err
			}
			// Deliver data frame seq 1, then die.
			putSupHeader(hdr[:], supKindData, 1, 0)
			if err := c.WriteFrameVec(hdr[:], []byte("x")); err != nil {
				return err
			}
			time.Sleep(50 * time.Millisecond)
			c.Close()

			// Restarted peer: resync claiming nothing sent, nothing
			// delivered — while the link already delivered seq 1.
			c2, err := Accept(ln)
			if err != nil {
				return err
			}
			defer c2.Close()
			if _, err := c2.ReadFrame(); err != nil {
				return err
			}
			putSupHeader(hdr[:], supKindResync, 0, 0)
			if err := c2.WriteFrame(hdr[:]); err != nil {
				return err
			}
			// The link should give up rather than resync; absorb reads
			// until it closes.
			for {
				if _, err := c2.ReadFrame(); err != nil {
					return nil
				}
			}
		}()
	}()

	s, err := NewSupervisedLink(func() (Framer, error) {
		return Dial(ln.Addr().String())
	}, cfg)
	if err != nil {
		t.Fatalf("connect: %v", err)
	}
	defer s.Close()
	if f, err := s.ReadFrame(); err != nil || string(f) != "x" {
		t.Fatalf("first frame: %q, %v", f, err)
	}
	// The next read outlives the first connection; it must fail with
	// ErrPeerStateLost once the restarted peer's resync is rejected.
	if _, err := s.ReadFrame(); !errors.Is(err, ErrPeerStateLost) {
		t.Fatalf("expected ErrPeerStateLost, got %v", err)
	}
	if err := <-peerDone; err != nil {
		t.Fatalf("scripted peer: %v", err)
	}
}

func TestSupervisedLinkHeartbeatDetectsSilentPeer(t *testing.T) {
	ln, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()

	var connects atomic.Int64
	secondConnect := make(chan struct{})
	// Scripted peer: completes the resync handshake, then goes silent
	// without closing — the TCP blackhole case keepalive takes minutes to
	// notice. Runs for each incarnation so the reconnect also lands here.
	go func() {
		for {
			c, err := Accept(ln)
			if err != nil {
				return
			}
			go func(c *Conn) {
				if _, err := c.ReadFrame(); err != nil {
					return
				}
				var hdr [supHeaderBytes]byte
				putSupHeader(hdr[:], supKindResync, 0, 0)
				c.WriteFrame(hdr[:])
				// Silent: never read or write again, never close.
			}(c)
		}
	}()

	cfg := fastSupCfg()
	cfg.ReconnectAttempts = 5
	s, err := NewSupervisedLink(func() (Framer, error) {
		if connects.Add(1) == 2 {
			close(secondConnect)
		}
		return Dial(ln.Addr().String())
	}, cfg)
	if err != nil {
		t.Fatalf("connect: %v", err)
	}
	defer s.Close()

	// With a 10ms interval and miss budget 3 the silent peer must be
	// declared dead and a second connect attempted well within a second.
	select {
	case <-secondConnect:
	case <-time.After(5 * time.Second):
		t.Fatalf("heartbeat expiry never triggered a reconnect (connects=%d)", connects.Load())
	}
}

func TestSupervisedLinkCloseShedsBufferedFrames(t *testing.T) {
	ln, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	// Handshake-only peer: acknowledges the resync and then ignores the
	// link (never acks), so written frames stay buffered.
	go func() {
		c, err := Accept(ln)
		if err != nil {
			return
		}
		if _, err := c.ReadFrame(); err != nil {
			return
		}
		var hdr [supHeaderBytes]byte
		putSupHeader(hdr[:], supKindResync, 0, 0)
		c.WriteFrame(hdr[:])
		for {
			if _, err := c.ReadFrame(); err != nil {
				return
			}
		}
	}()
	cfg := fastSupCfg()
	cfg.HeartbeatInterval = -1 // no heartbeats: nothing inbound would reset the clock
	s, err := NewSupervisedLink(func() (Framer, error) {
		return Dial(ln.Addr().String())
	}, cfg)
	if err != nil {
		t.Fatalf("connect: %v", err)
	}
	before := SupervisorTotals()
	for i := 0; i < 5; i++ {
		if err := s.WriteFrame(payload(i)); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	s.Close()
	after := SupervisorTotals()
	if d := after.ShedFrames - before.ShedFrames; d != 5 {
		t.Fatalf("expected 5 shed frames, got %d", d)
	}
	if err := s.WriteFrame([]byte("late")); !errors.Is(err, ErrLinkClosed) {
		t.Fatalf("write after close: %v", err)
	}
	if _, err := s.ReadFrame(); !errors.Is(err, ErrLinkClosed) {
		t.Fatalf("read after close: %v", err)
	}
}

func TestSupervisedLinkWriterBackpressure(t *testing.T) {
	ln, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	release := make(chan struct{})
	// Peer that completes the handshake but only starts acking (by
	// reading; acks ride its heartbeats) after release. Until then the
	// link's replay buffer can only drain via acks — which never come.
	go func() {
		c, err := Accept(ln)
		if err != nil {
			return
		}
		if _, err := c.ReadFrame(); err != nil {
			return
		}
		var hdr [supHeaderBytes]byte
		putSupHeader(hdr[:], supKindResync, 0, 0)
		c.WriteFrame(hdr[:])
		var delivered uint64
		<-release
		for {
			f, err := c.ReadFrame()
			if err != nil {
				return
			}
			kind, a, _, _, err := parseSupFrame(f)
			if err != nil {
				return
			}
			if kind == supKindData && a == delivered+1 {
				delivered = a
				putSupHeader(hdr[:], supKindHB, 1, delivered)
				if err := c.WriteFrame(hdr[:]); err != nil {
					return
				}
			}
		}
	}()
	cfg := fastSupCfg()
	cfg.HeartbeatInterval = -1
	cfg.ReplayFrames = 4
	s, err := NewSupervisedLink(func() (Framer, error) {
		return Dial(ln.Addr().String())
	}, cfg)
	if err != nil {
		t.Fatalf("connect: %v", err)
	}
	defer s.Close()
	wrote := make(chan struct{})
	go func() {
		for i := 0; i < 10; i++ {
			if err := s.WriteFrame(payload(i)); err != nil {
				t.Errorf("write %d: %v", i, err)
				return
			}
		}
		close(wrote)
	}()
	// The 5th write must park on the full replay buffer.
	select {
	case <-wrote:
		t.Fatalf("writes finished with no acks and ReplayFrames=4")
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	select {
	case <-wrote:
	case <-time.After(5 * time.Second):
		t.Fatalf("writer still parked after acks resumed")
	}
}

func TestJitterDurationBounds(t *testing.T) {
	const d = time.Second
	seen := map[time.Duration]bool{}
	for i := 0; i < 200; i++ {
		j := jitterDuration(d, 0.2)
		if j < 800*time.Millisecond || j > 1200*time.Millisecond {
			t.Fatalf("jitter %v outside +-20%% of %v", j, d)
		}
		seen[j] = true
	}
	if len(seen) < 10 {
		t.Fatalf("jitter looks constant: %d distinct values in 200 draws", len(seen))
	}
	if got := jitterDuration(d, 0); got != d {
		t.Fatalf("zero jitter changed the duration: %v", got)
	}
	if got := jitterDuration(d, -1); got != d {
		t.Fatalf("negative jitter changed the duration: %v", got)
	}
}

func TestFaultConnDropAfterFrames(t *testing.T) {
	left, right := net.Pipe()
	fc := NewFaultConn(left)
	fc.DropAfterFrames(2)
	w := Wrap(fc)
	r := Wrap(right)

	read := make(chan []byte, 3)
	readErr := make(chan error, 1)
	go func() {
		for {
			f, err := r.ReadFrame()
			if err != nil {
				readErr <- err
				return
			}
			read <- append([]byte(nil), f...)
		}
	}()

	if err := w.WriteFrame([]byte("first")); err != nil {
		t.Fatalf("frame 1: %v", err)
	}
	if err := w.WriteFrame([]byte("second")); err != nil {
		// The cut lands exactly at this frame's end; a nil error is also
		// acceptable if the close raced after the full write.
		if !errors.Is(err, ErrInjected) && !isClosedErr(err) {
			t.Fatalf("frame 2: %v", err)
		}
	}
	if err := w.WriteFrame([]byte("third")); err == nil {
		t.Fatalf("frame 3 succeeded after the armed drop")
	}
	for i, want := range []string{"first", "second"} {
		select {
		case f := <-read:
			if string(f) != want {
				t.Fatalf("frame %d: got %q want %q", i, f, want)
			}
		case err := <-readErr:
			t.Fatalf("reader failed before frame %d: %v", i, err)
		case <-time.After(2 * time.Second):
			t.Fatalf("frame %d never arrived", i)
		}
	}
	select {
	case err := <-readErr:
		if err == nil {
			t.Fatalf("reader got nil error after the drop")
		}
	case f := <-read:
		t.Fatalf("unexpected frame after the drop: %q", f)
	case <-time.After(2 * time.Second):
		t.Fatalf("reader never observed the drop")
	}
	if fc.Stats().Injected == 0 {
		t.Fatalf("drop not counted as injected")
	}
}

// TestFaultConnDropAfterFramesFragmented checks the cut still lands on a
// frame boundary when the writer fragments its writes mid-frame.
func TestFaultConnDropAfterFramesFragmented(t *testing.T) {
	left, right := net.Pipe()
	fc := NewFaultConn(left)
	fc.WriteChunk = 3
	fc.DropAfterFrames(1)
	w := Wrap(fc)
	r := Wrap(right)

	got := make(chan []byte, 1)
	readErr := make(chan error, 1)
	go func() {
		f, err := r.ReadFrame()
		if err != nil {
			readErr <- err
			return
		}
		got <- append([]byte(nil), f...)
		_, err = r.ReadFrame()
		readErr <- err
	}()

	if err := w.WriteFrame([]byte("only frame")); err != nil && !errors.Is(err, ErrInjected) && !isClosedErr(err) {
		t.Fatalf("frame 1: %v", err)
	}
	select {
	case f := <-got:
		if string(f) != "only frame" {
			t.Fatalf("got %q", f)
		}
	case err := <-readErr:
		t.Fatalf("read: %v", err)
	case <-time.After(2 * time.Second):
		t.Fatalf("frame never arrived")
	}
	if err := <-readErr; err == nil {
		t.Fatalf("second read succeeded after the drop")
	}
}

func isClosedErr(err error) bool {
	return err != nil && (errors.Is(err, net.ErrClosed) || errors.Is(err, ErrInjected))
}

// TestSupervisedLinkOnReconnectHook checks registered callbacks fire on
// every successful reconnect — the hook stale-rate-estimate consumers
// (the wire codec's bandwidth EWMA) use to reset per-link state when
// the underlying connection is replaced. The hook runs after the new
// connection is installed, so the reader may drain every frame first:
// the test waits for the hook itself, under a bounded deadline.
func TestSupervisedLinkOnReconnectHook(t *testing.T) {
	fired := make(chan struct{}, 1)
	a, b := supPair(t, fastSupCfg(), fastSupCfg(), func(inc int, raw net.Conn) net.Conn {
		fc := NewFaultConn(raw)
		if inc == 0 {
			fc.DropAfterFrames(5)
		}
		return fc
	})
	b.OnReconnect(func() {
		select {
		case fired <- struct{}{}:
		default:
		}
	})
	const n = 50
	errc := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			if err := b.WriteFrame(payload(i)); err != nil {
				errc <- fmt.Errorf("write %d: %w", i, err)
				return
			}
		}
		errc <- nil
	}()
	for i := 0; i < n; i++ {
		if _, err := a.ReadFrame(); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	select {
	case <-fired:
	case <-time.After(10 * time.Second):
		t.Fatal("OnReconnect callback did not fire across a reconnect")
	}
}

// TestSupervisedLinkAllowsPeerRestart checks the tolerant resync mode:
// under AllowPeerRestart a peer that answers the resync with zeroed
// state (a restarted process) resets the stream instead of failing the
// link with ErrPeerStateLost — unacked buffered frames are shed with
// accounting, sequence numbering restarts at 1, and the OnPeerReset
// hooks fire before traffic resumes, so protocol layers can re-state
// their per-link conversation (the dealer feed's RESUME).
func TestSupervisedLinkAllowsPeerRestart(t *testing.T) {
	ln, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	cfg := fastSupCfg()
	cfg.AllowPeerRestart = true

	peerDone := make(chan error, 1)
	go func() {
		peerDone <- func() error {
			// First incarnation: handshake, deliver data seq 1, absorb
			// whatever the link writes without acking, then die.
			c, err := Accept(ln)
			if err != nil {
				return err
			}
			if _, err := c.ReadFrame(); err != nil {
				return err
			}
			var hdr [supHeaderBytes]byte
			putSupHeader(hdr[:], supKindResync, 0, 0)
			if err := c.WriteFrame(hdr[:]); err != nil {
				return err
			}
			putSupHeader(hdr[:], supKindData, 1, 0)
			if err := c.WriteFrameVec(hdr[:], []byte("x")); err != nil {
				return err
			}
			time.Sleep(50 * time.Millisecond)
			c.Close()

			// Restarted incarnation: resyncs claiming nothing sent and
			// nothing delivered, while the link has delivered seq 1 and
			// holds an unacked write — detectable state loss on both axes.
			c2, err := Accept(ln)
			if err != nil {
				return err
			}
			defer c2.Close()
			if _, err := c2.ReadFrame(); err != nil {
				return err
			}
			putSupHeader(hdr[:], supKindResync, 0, 0)
			if err := c2.WriteFrame(hdr[:]); err != nil {
				return err
			}
			// The post-reset conversation restarts at seq 1: the shed "w"
			// is gone, the next app write is the first frame of the new
			// stream.
			for {
				f, err := c2.ReadFrame()
				if err != nil {
					return err
				}
				kind, seq, _, payload, err := parseSupFrame(f)
				if err != nil {
					return err
				}
				if kind != supKindData {
					continue
				}
				if seq != 1 || string(payload) != "z" {
					return fmt.Errorf("post-reset frame: seq %d payload %q, want seq 1 %q", seq, payload, "z")
				}
				putSupHeader(hdr[:], supKindData, 1, 1)
				return c2.WriteFrameVec(hdr[:], []byte("y"))
			}
		}()
	}()

	resetsBefore := SupervisorTotals().PeerResets
	s, err := NewSupervisedLink(func() (Framer, error) {
		return Dial(ln.Addr().String())
	}, cfg)
	if err != nil {
		t.Fatalf("connect: %v", err)
	}
	defer s.Close()
	resets := make(chan struct{}, 4)
	s.OnPeerReset(func() { resets <- struct{}{} })

	if f, err := s.ReadFrame(); err != nil || string(f) != "x" {
		t.Fatalf("first frame: %q, %v", f, err)
	}
	if err := s.WriteFrame([]byte("w")); err != nil {
		t.Fatalf("pre-restart write: %v", err)
	}
	select {
	case <-resets:
	case <-time.After(5 * time.Second):
		t.Fatal("OnPeerReset hook did not fire across the peer restart")
	}
	// Writes after the reset ride the fresh stream from seq 1.
	if err := s.WriteFrame([]byte("z")); err != nil {
		t.Fatalf("post-reset write: %v", err)
	}
	if f, err := s.ReadFrame(); err != nil || string(f) != "y" {
		t.Fatalf("post-reset read: %q, %v", f, err)
	}
	if err := <-peerDone; err != nil {
		t.Fatalf("scripted peer: %v", err)
	}
	if SupervisorTotals().PeerResets <= resetsBefore {
		t.Fatal("PeerResets not accounted")
	}
}
