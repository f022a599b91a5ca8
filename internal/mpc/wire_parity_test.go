package mpc

import (
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"parsecureml/internal/comm"
	"parsecureml/internal/rng"
	"parsecureml/internal/tensor"
)

// The wire double pipeline must be a pure transport optimization: every
// share it produces is bit-identical to the reference exchange's
// (remoteParty), over in-memory pipes, real TCP, and a fault-injected
// link, whatever band heights the two parties pick.

// runPipelinedPair executes both pipelined parties concurrently, party 0
// under cfg0 and party 1 under cfg1, and returns their shares.
func runPipelinedPair(t *testing.T, c0, c1 comm.Framer, in0, in1 Shares, cfg0, cfg1 WireConfig) (*tensor.Matrix, *tensor.Matrix) {
	t.Helper()
	w0, w1 := newWireMul(0, cfg0), newWireMul(1, cfg1)
	defer w0.close()
	defer w1.close()
	var wg sync.WaitGroup
	var r0, r1 *tensor.Matrix
	var e0, e1 error
	wg.Add(2)
	go func() {
		defer wg.Done()
		r0, e0 = w0.mul(c0, []Shares{in0}, w0.cfg.ChunkRows)
	}()
	go func() {
		defer wg.Done()
		r1, e1 = w1.mul(c1, []Shares{in1}, w1.cfg.ChunkRows)
	}()
	wg.Wait()
	if e0 != nil || e1 != nil {
		t.Fatalf("pipelined parties failed: %v / %v", e0, e1)
	}
	return r0, r1
}

func TestWirePipelineParityOverPipe(t *testing.T) {
	p := rng.NewPool(41)
	a := p.NewUniform(13, 21, -1, 1)
	b := p.NewUniform(21, 9, -1, 1)
	client := newRemoteClient()
	in0, in1 := RemoteClientSplit(a, b, client)
	want0, want1 := referenceShares(t, in0, in1)

	// Band heights below, at, and above the row count, the whole-matrix
	// default, and heights the parties pick independently (band height is
	// sender-local: each band's height rides its frame header).
	for _, rows := range [][2]int{{0, 0}, {1, 1}, {4, 4}, {5, 5}, {13, 13}, {64, 64}, {3, 8}, {8, 3}, {0, 5}} {
		c0, c1 := comm.Pipe()
		got0, got1 := runPipelinedPair(t, c0, c1, in0, in1,
			WireConfig{ChunkRows: rows[0]}, WireConfig{ChunkRows: rows[1]})
		c0.Close()
		c1.Close()
		if !got0.Equal(want0) || !got1.Equal(want1) {
			t.Fatalf("bands %d/%d: pipelined shares differ from the reference", rows[0], rows[1])
		}
	}
}

// A peer band whose header claims no rows, more rows than are still
// expected, or the wrong width is refused instead of mis-fused.
func TestWirePipelineRejectsBadBandHeader(t *testing.T) {
	const m, k, n = 6, 4, 3
	p := rng.NewPool(47)
	in0, _ := RemoteClientSplit(p.NewUniform(m, k, -1, 1), p.NewUniform(k, n, -1, 1), newRemoteClient())
	for _, tc := range []struct {
		name  string
		bands []*tensor.Matrix
	}{
		{"empty", []*tensor.Matrix{tensor.New(0, k)}},
		{"too tall", []*tensor.Matrix{tensor.New(4, k), tensor.New(3, k)}},
		{"wrong width", []*tensor.Matrix{tensor.New(m, k+1)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c0, c1 := comm.Pipe()
			defer c0.Close()
			defer c1.Close()
			// The fake peer drains what party 0 sends and answers with a
			// valid F frame followed by the bad bands.
			go func() {
				for {
					if _, err := c1.ReadFrame(); err != nil {
						return
					}
				}
			}()
			go func() {
				c1.WriteFrame(tensor.EncodeMatrix(nil, tensor.New(k, n)))
				for _, band := range tc.bands {
					if c1.WriteFrame(tensor.EncodeMatrix(nil, band)) != nil {
						return
					}
				}
			}()
			w := newWireMul(0, WireConfig{})
			defer w.close()
			_, err := w.mul(c0, []Shares{in0}, w.cfg.ChunkRows)
			if err == nil || !strings.Contains(err.Error(), "E band") {
				t.Fatalf("bad band header accepted: %v", err)
			}
		})
	}
}

func TestWirePipelineParityOverTCP(t *testing.T) {
	p := rng.NewPool(42)
	a := p.NewUniform(37, 24, -1, 1)
	b := p.NewUniform(24, 17, -1, 1)
	client := newRemoteClient()
	in0, in1 := RemoteClientSplit(a, b, client)
	want0, want1 := referenceShares(t, in0, in1)

	c0, c1 := tcpPeerLink(t, nil)
	defer c0.Close()
	defer c1.Close()
	cfg := WireConfig{ChunkRows: 8}
	got0, got1 := runPipelinedPair(t, c0, c1, in0, in1, cfg, cfg)
	if !got0.Equal(want0) || !got1.Equal(want1) {
		t.Fatal("TCP pipelined shares differ from the reference")
	}
}

func TestWirePipelineParityUnderFaultDelays(t *testing.T) {
	p := rng.NewPool(43)
	a := p.NewUniform(19, 11, -1, 1)
	b := p.NewUniform(11, 7, -1, 1)
	client := newRemoteClient()
	in0, in1 := RemoteClientSplit(a, b, client)
	want0, want1 := referenceShares(t, in0, in1)

	raw0, raw1 := net.Pipe()
	f0 := comm.NewFaultConn(raw0)
	f1 := comm.NewFaultConn(raw1)
	f0.WriteDelay = 200 * time.Microsecond
	f1.ReadDelay = 200 * time.Microsecond
	f1.WriteChunk = 64 // fragment writes: the reader must reassemble
	c0, c1 := comm.Wrap(f0), comm.Wrap(f1)
	defer c0.Close()
	defer c1.Close()

	cfg := WireConfig{ChunkRows: 3}
	got0, got1 := runPipelinedPair(t, c0, c1, in0, in1, cfg, cfg)
	if !got0.Equal(want0) || !got1.Equal(want1) {
		t.Fatal("pipelined shares differ from the reference under injected faults")
	}
}

// The pipelined multiplication must also hold its own on request-tagged
// mux sub-streams plus pooled reuse across sequential requests — the
// serving loop's steady-state shape.
func TestWirePipelineTaggedPooledReuse(t *testing.T) {
	client := newRemoteClient()
	p := rng.NewPool(44)
	peer0, peer1 := comm.Pipe()
	mux0 := comm.NewMux(peer0, comm.MuxConfig{ReadTimeout: 10 * time.Second})
	mux1 := comm.NewMux(peer1, comm.MuxConfig{ReadTimeout: 10 * time.Second})
	defer mux0.Close()
	defer mux1.Close()
	w0 := newWireMul(0, WireConfig{ChunkRows: 4})
	w1 := newWireMul(1, WireConfig{ChunkRows: 4})
	defer w0.close()
	defer w1.close()

	for round := 0; round < 4; round++ {
		a := p.NewUniform(9+round, 6, -1, 1)
		b := p.NewUniform(6, 5, -1, 1)
		in0, in1 := RemoteClientSplit(a, b, client)
		want0, want1 := referenceShares(t, in0, in1)
		id := uint64(round + 100)
		s0, err := mux0.Open(id)
		if err != nil {
			t.Fatal(err)
		}
		s1, err := mux1.Open(id)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		var r0, r1 *tensor.Matrix
		var e0, e1 error
		wg.Add(2)
		go func() {
			defer wg.Done()
			r0, e0 = w0.mul(s0, []Shares{in0}, w0.cfg.ChunkRows)
		}()
		go func() {
			defer wg.Done()
			r1, e1 = w1.mul(s1, []Shares{in1}, w1.cfg.ChunkRows)
		}()
		wg.Wait()
		s0.Close()
		s1.Close()
		if e0 != nil || e1 != nil {
			t.Fatalf("round %d: %v / %v", round, e0, e1)
		}
		if !r0.Equal(want0) || !r1.Equal(want1) {
			t.Fatalf("round %d: tagged pooled shares differ from the reference", round)
		}
		w0.put(r0)
		w1.put(r1)
	}
}
