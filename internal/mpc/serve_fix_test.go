package mpc

import (
	"strings"
	"testing"
	"time"

	"parsecureml/internal/comm"
	"parsecureml/internal/rng"
	"parsecureml/internal/tensor"
)

// Regression tests for the serving-path correctness sweep: leaked latency
// spans on error paths, unvalidated share geometry, and scratch buffers
// pinned at their high-water mark.

// TestErroredRequestStillObservesLatency: a request that fails
// mid-protocol must still land a sample in the request-latency histogram
// — incident-time scrapes must not under-report exactly the failing
// traffic. Both failure kinds leave serveMuxLoop through its one error
// exit: a malformed request (decode) and a request whose peer half never
// arrives (the exchange times out). Checked with whole-matrix bands (the
// serial case) and with 8-row bands.
func TestErroredRequestStillObservesLatency(t *testing.T) {
	in0, _ := RemoteClientSplit(tensor.New(2, 3), tensor.New(3, 4), newRemoteClient())
	for _, tc := range []struct {
		name string
		wire WireConfig
	}{
		{"serial", WireConfig{}},
		{"wire", WireConfig{ChunkRows: 8}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addr0, _, shutdown := startServePair(t, ServeConfig{
				ClientTimeout: 10 * time.Second,
				PeerTimeout:   300 * time.Millisecond,
				Wire:          tc.wire,
			})
			defer shutdown()
			for _, frame := range [][]byte{
				append(make([]byte, requestIDBytes), "not a shares payload"...),
				EncodeRequest(newRequestID(), in0),
			} {
				c, err := comm.DialRetry(addr0, comm.RetryConfig{Attempts: 10, BaseDelay: 10 * time.Millisecond})
				if err != nil {
					t.Fatal(err)
				}
				c.SetTimeouts(10*time.Second, 10*time.Second)
				before, errsBefore := metrics.reqWire.Count(), metrics.requestErrors.Value()
				if err := c.WriteFrame(frame); err != nil {
					t.Fatal(err)
				}
				// The failed request ends the session: the server closes
				// the connection after observing the request.
				_, err = c.ReadFrame()
				c.Close()
				if err == nil {
					t.Fatal("failed request was answered")
				}
				if got := metrics.reqWire.Count(); got != before+1 {
					t.Fatalf("reqWire samples %d, want %d: failed request left no latency sample", got, before+1)
				}
				if got := metrics.requestErrors.Value(); got != errsBefore+1 {
					t.Fatalf("request errors %d, want %d", got, errsBefore+1)
				}
			}
		})
	}
}

// validGeomShares builds a mutually consistent shares payload:
// A 2×3 · B 3×4 with matching triplet geometry.
func validGeomShares() Shares {
	return Shares{
		A: tensor.New(2, 3), B: tensor.New(3, 4),
		T: TripletShares{U: tensor.New(2, 3), V: tensor.New(3, 4), Z: tensor.New(2, 4)},
	}
}

// TestDecodeSharesValidatesGeometry: every way the five matrices can
// disagree must fail the decode with a geometry error instead of reaching
// the kernels (which index by A and B's dimensions and panic).
func TestDecodeSharesValidatesGeometry(t *testing.T) {
	if _, err := DecodeShares(EncodeShares(validGeomShares())); err != nil {
		t.Fatalf("valid geometry rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Shares)
	}{
		{"B rows", func(s *Shares) { s.B = tensor.New(2, 4) }},
		{"U shape", func(s *Shares) { s.T.U = tensor.New(3, 3) }},
		{"V shape", func(s *Shares) { s.T.V = tensor.New(3, 5) }},
		{"Z shape", func(s *Shares) { s.T.Z = tensor.New(4, 2) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bad := validGeomShares()
			tc.mutate(&bad)
			_, err := DecodeShares(EncodeShares(bad))
			if err == nil {
				t.Fatal("mismatched geometry decoded cleanly")
			}
			if !strings.Contains(err.Error(), "geometry") {
				t.Fatalf("want a geometry error, got: %v", err)
			}
			// The request codec must reject it the same way.
			if _, _, err := DecodeRequest(EncodeRequest(1, bad)); err == nil {
				t.Fatal("DecodeRequest accepted mismatched geometry")
			}
		})
	}
}

// FuzzDecodeShares: any payload that decodes cleanly must be safe to
// multiply. The committed corpus entry (testdata/fuzz/FuzzDecodeShares)
// is the pre-fix panic reproducer: five individually well-formed matrices
// whose U disagrees with A.
func FuzzDecodeShares(f *testing.F) {
	f.Add(EncodeShares(validGeomShares()))
	bad := validGeomShares()
	bad.T.U = tensor.New(3, 3)
	f.Add(EncodeShares(bad))
	f.Fuzz(func(t *testing.T, data []byte) {
		in, err := DecodeShares(data)
		if err != nil {
			return
		}
		// Re-run the Eq. (8) index arithmetic the serving path performs;
		// pre-fix this panicked on geometry that decoded fine.
		m, k, n := in.A.Rows, in.A.Cols, in.B.Cols
		e := tensor.New(m, k)
		tensor.Sub(e, in.A, in.T.U)
		fm := tensor.New(k, n)
		tensor.Sub(fm, in.B, in.T.V)
		c := tensor.New(m, n)
		tensor.Gemm(c, in.A, fm, 1, 0)
		tensor.Gemm(c, e, in.B, 1, 1)
		tensor.AXPY(c, 1, in.T.Z)
	})
}

// TestShrinkScratch pins the release policy: only buffers past the
// high-water cap whose latest request used less than half of them are
// dropped, and each drop is counted.
func TestShrinkScratch(t *testing.T) {
	before := metrics.bufShrinks.Value()
	small := make([]byte, 1024)
	if shrinkScratch(small, 0) == nil {
		t.Error("released a buffer under the cap")
	}
	hot := make([]byte, 2*bufShrinkCap)
	if shrinkScratch(hot, cap(hot)) == nil {
		t.Error("released a buffer the current request still fills")
	}
	if metrics.bufShrinks.Value() != before {
		t.Error("kept buffers were counted as shrinks")
	}
	if shrinkScratch(hot, 100) != nil {
		t.Error("kept an oversized cold buffer")
	}
	if got := metrics.bufShrinks.Value(); got != before+1 {
		t.Errorf("psml_buf_shrinks_total moved by %d, want 1", got-before)
	}
}

// TestServingLoopShedsOversizedScratch drives the full serving stack: one
// request whose frame dwarfs the high-water cap, then a small one. The
// session must survive (results exact) and release the grown buffers at
// the small request's boundary.
func TestServingLoopShedsOversizedScratch(t *testing.T) {
	before := metrics.bufShrinks.Value()
	addr0, addr1, shutdown := startServePair(t, ServeConfig{
		ClientTimeout: 20 * time.Second,
		PeerTimeout:   20 * time.Second,
		MaxSessions:   2,
	})
	defer shutdown()
	c0, c1 := dialPair(t, addr0, addr1)
	defer c0.Close()
	defer c1.Close()

	p := rng.NewPool(424)
	// ~2.4 MB request frame: well past bufShrinkCap.
	big := makeBatchJobs(t, p, 1, 600, 500, 1)[0]
	got, err := RequestMul(c0, c1, big.in0, big.in1)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(big.want) {
		t.Fatalf("oversized request off by %v", got.MaxAbsDiff(big.want))
	}
	small := makeBatchJobs(t, p, 1, 4, 4, 4)[0]
	got, err = RequestMul(c0, c1, small.in0, small.in1)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(small.want) {
		t.Fatalf("follow-up request off by %v", got.MaxAbsDiff(small.want))
	}
	if metrics.bufShrinks.Value() == before {
		t.Error("psml_buf_shrinks_total did not move: serving loop pinned its high-water scratch")
	}
}
