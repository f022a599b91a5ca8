package mpc

import (
	"fmt"
	"time"

	"parsecureml/internal/comm"
	"parsecureml/internal/tensor"
)

// Wire double pipeline: the paper's intra-op transfer/compute overlap
// (Fig. 5) carried onto the real networked path, and the only peer
// framing the serving stack speaks. The virtual-time scheduler in
// internal/pipeline models the overlap; this file makes it happen on the
// wall clock between two genuinely concurrent parties. One exchange — a
// single request, or a row-stacked cross-session batch — ships the F share
// as one frame, then splits the E exchange into row bands. A dedicated
// sender goroutine streams this party's frames to the peer while the main
// goroutine folds each arriving peer band into the fused Eq. 8 GEMM — the
// network transfer of band k overlaps the compute of band k−1, and the
// two directions of the duplex link run simultaneously instead of in a
// fixed send-then-receive order.
//
// Band height is a sender-local choice: every band is a self-describing
// tensor frame, and the receiver takes each band's row count from its
// header. All per-request matrices come from a tensor.Pool and all frame
// buffers are session-scoped scratch, so the steady-state serving path
// does near-zero allocations per request.

// WireConfig tunes the networked double pipeline. The zero value selects
// whole-matrix bands (full-duplex exchange, no intra-op banding), the raw
// codec, and one pool shared by every session of a serving loop.
type WireConfig struct {
	// ChunkRows is the row-band height this party streams a single
	// request's E share in: it ships band k while fusing the peer's band
	// k−1 into the GEMM. <= 0 uses one whole-matrix band. The peer need not
	// agree — it reads each band's height from the frame. Batched
	// exchanges stream in the band height their proposal carries.
	ChunkRows int
	// Pool recycles per-request matrices. nil lets ServeClients create one
	// for all its sessions.
	Pool *tensor.Pool
	// Codec, when non-nil, adaptively compresses the revealed E/F tensors
	// on the wire (FP16/CSR, see wirecodec.go) when the link byte budget
	// makes it pay. Frames are self-describing, so receivers need no
	// matching setting. nil sends everything raw.
	Codec *WireCodec
}

// readFrameInto reads a frame, reusing buf when the transport supports it.
func readFrameInto(conn comm.Framer, buf []byte) ([]byte, error) {
	if ri, ok := conn.(comm.FramerInto); ok {
		return ri.ReadFrameInto(buf)
	}
	return conn.ReadFrame()
}

// bandHeight validates an E band frame's header against the exchange:
// 1 ≤ rows ≤ left (the rows still expected) and cols == k.
func bandHeight(frame []byte, left, k int) (int, error) {
	rows, cols, err := tensor.FrameShape(frame)
	if err != nil {
		return 0, err
	}
	if rows < 1 || rows > left || cols != k {
		return 0, fmt.Errorf("mpc: E band is %dx%d, want 1..%d rows of %d", rows, cols, left, k)
	}
	return rows, nil
}

// wireMul is the reusable state for pipelined exchanges over one peer
// link: encode/decode scratch, pooled band buffers, and the sender
// goroutine's arguments. One wireMul serves a whole client session (or
// one batch); it is not safe for concurrent use, and after any method
// returns an error it is poisoned — the sender goroutine may still hold
// its scratch until the connection closes — so its owner must abort the
// connection and close it, not reuse it.
type wireMul struct {
	party int
	cfg   WireConfig

	sendBuf []byte        // sender-goroutine encode scratch
	recvBuf []byte        // main-goroutine frame scratch
	kick    chan struct{} // arms the persistent sender goroutine; closed by close()
	done    chan error    // sender completion, buffered so senders never leak

	// Sender arguments, set before the kick: sF goes out first as one
	// whole frame, sE follows as row bands of sBand rows. The per-tensor
	// codec kinds are picked by the main goroutine before the kick (any
	// FP16 rounding of the retained share happens there too, so both
	// parties use what they ship). sentBytes is written by the sender and
	// read by the main goroutine only after draining done.
	sconn     comm.Framer
	sF, sE    *tensor.Matrix
	sBand     int
	sFKind    wireCodecKind
	sEKind    wireCodecKind
	sentBytes int
	sView     tensor.Matrix // sender-side band view (sender goroutine only)

	// Persistent band-view headers (main goroutine only): retargeted with
	// SliceRowsInto each band instead of allocating a header per band.
	pbView, eView, dView, cView, aView, eiView, fView, zView tensor.Matrix
}

func newWireMul(party int, cfg WireConfig) *wireMul {
	if cfg.Pool == nil {
		cfg.Pool = tensor.NewPool()
	}
	w := &wireMul{party: party, cfg: cfg, kick: make(chan struct{}, 1), done: make(chan error, 1)}
	// One persistent sender goroutine per session: spawning one per
	// exchange costs a stack and scheduler churn on the per-request path.
	go w.senderLoop()
	return w
}

// close retires the sender goroutine. Safe while a poisoned sender is
// still blocked on a dead connection — it exits once that write fails.
func (w *wireMul) close() { close(w.kick) }

func (w *wireMul) get(rows, cols int) *tensor.Matrix { return w.cfg.Pool.Get(rows, cols) }
func (w *wireMul) put(m *tensor.Matrix)              { w.cfg.Pool.Put(m) }

// senderLoop runs on its own goroutine so the outgoing stream overlaps
// the reader's band compute (and the peer's symmetric stream).
func (w *wireMul) senderLoop() {
	for range w.kick {
		w.done <- w.runSender()
	}
}

func (w *wireMul) runSender() error {
	w.sendBuf = appendWireTensor(w.sendBuf[:0], w.sF, w.sFKind)
	w.sentBytes = len(w.sendBuf)
	if err := w.sconn.WriteFrame(w.sendBuf); err != nil {
		return err
	}
	rows := w.sE.Rows
	for lo := 0; lo < rows; lo += w.sBand {
		hi := min(lo+w.sBand, rows)
		w.sendBuf = appendWireTensor(w.sendBuf[:0], w.sE.SliceRowsInto(&w.sView, lo, hi), w.sEKind)
		w.sentBytes += len(w.sendBuf)
		if err := w.sconn.WriteFrame(w.sendBuf); err != nil {
			return err
		}
	}
	return nil
}

// mul executes this party's side of one banded Beaver exchange over conn
// for a row-stack of 1..B members of identical m×k × k×n geometry, and
// returns the pooled (B·m)×n stack of result shares, member j's
// C_i = ((−i)·E + A_i)×F + E×B_i + Z_i in rows j·m..(j+1)·m. A request
// served alone is B = 1; a cross-session batch (batch.go) passes its
// accepted members. Every member's triplet must already be resolved
// (feedTriplet). Callers give the result back with put or keep it.
//
// The stacked F share goes out as one head frame and the stacked E share
// streams in bands of band rows (<= 0: one whole-stack band), while the
// peer's arriving bands — each band's height read from its frame header —
// are fused into the Eq. 8 GEMM: transfer and compute overlap inside one
// exchange. Each public tensor is reconstructed in place into the buffer
// its peer share was decoded into, and party 0 multiplies its A rows
// directly (its D is A_0), so the working set is the local E/F stacks, one
// peer band, and C. Each member's rows run the single-request op sequence
// and every dst row of the GEMM accumulates independently (tensor.Gemm),
// so a batched member's result is bit-identical to serving it alone.
//
// With cfg.Codec nil (or picking raw) the result is bit-identical to the
// textbook two-party Beaver exchange. A lossy (FP16) pick perturbs only
// the REVEALED E/F difference shares — the retained stack is rounded in
// place before the sender starts (rounding is elementwise, so a stacked
// round equals rounding each member alone), both parties reconstruct the
// same public tensors, and the result carries the documented reveal-only
// tolerance instead of a protocol desync.
func (w *wireMul) mul(conn comm.Framer, members []Shares, band int) (*tensor.Matrix, error) {
	m, k, n := members[0].A.Rows, members[0].A.Cols, members[0].B.Cols
	B := len(members)
	rows := B * m
	if band <= 0 || band > rows {
		band = rows
	}

	// Local shares (Eq. 4): E_j = A_j − U_j, F_j = B_j − V_j, stacked.
	ei := w.get(rows, k)
	fi := w.get(B*k, n)
	for j, in := range members {
		tensor.Sub(ei.SliceRowsInto(&w.eiView, j*m, (j+1)*m), in.A, in.T.U)
		tensor.Sub(fi.SliceRowsInto(&w.fView, j*k, (j+1)*k), in.B, in.T.V)
	}
	// Codec election, then use-what-you-ship: an FP16 pick rounds the
	// retained share in place BEFORE the sender goroutine starts, so the
	// local reconstruction sees exactly the values the peer receives (and
	// the concurrent encoder never races a mutation).
	eKind, fKind := codecRaw, codecRaw
	if wc := w.cfg.Codec; wc != nil {
		eKind = wc.pick(ei, tensorE)
		if eKind == codecFP16 {
			tensor.RoundMatrixFloat16InPlace(ei)
		}
		fKind = wc.pick(fi, tensorF)
		if fKind == codecFP16 {
			tensor.RoundMatrixFloat16InPlace(fi)
		}
	}
	w.sconn, w.sF, w.sE, w.sBand = conn, fi, ei, band
	w.sFKind, w.sEKind = fKind, eKind
	w.kick <- struct{}{}

	// Per-phase accumulators: the banded loop interleaves transfer waits,
	// Eq. 5 reconstruction, and Eq. 8 compute, so each is summed across
	// bands and observed once per exchange (cheap monotonic-clock reads, no
	// allocation).
	var exchDur, reconDur, gemmDur time.Duration

	// Public F (Eq. 5), the head frame of each stream. Tag-dispatched: the
	// peer's codec choice is sender-local, the frame says what it is.
	t0 := time.Now()
	frame, err := readFrameInto(conn, w.recvBuf)
	exchDur += time.Since(t0)
	if err != nil {
		return nil, fmt.Errorf("mpc: recv F: %w", err)
	}
	w.recvBuf = frame
	f := w.get(B*k, n)
	if _, err := tensor.DecodeAnyInto(f, frame); err != nil {
		return nil, fmt.Errorf("mpc: decode peer F: %w", err)
	}
	t0 = time.Now()
	tensor.Add(f, fi, f)
	reconDur += time.Since(t0)

	c := w.get(rows, n)
	// The peer band buffer (and party 1's D band) grow to the tallest band
	// the peer sends; pooled, so the steady state reuses one of each.
	var peerBand, dBuf *tensor.Matrix
	for lo, bandNo := 0, 0; lo < rows; bandNo++ {
		t0 := time.Now()
		frame, err := readFrameInto(conn, w.recvBuf)
		exchDur += time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("mpc: recv E band %d: %w", bandNo, err)
		}
		w.recvBuf = frame
		h, err := bandHeight(frame, rows-lo, k)
		if err != nil {
			return nil, fmt.Errorf("mpc: E band %d: %w", bandNo, err)
		}
		if peerBand == nil || h > peerBand.Rows {
			w.put(peerBand)
			peerBand = w.get(h, k)
			if w.party == 1 {
				w.put(dBuf)
				dBuf = w.get(h, k)
			}
		}
		hi := lo + h
		eBand := peerBand.SliceRowsInto(&w.pbView, 0, h)
		if _, err := tensor.DecodeAnyInto(eBand, frame); err != nil {
			return nil, fmt.Errorf("mpc: decode E band %d: %w", bandNo, err)
		}
		// Reconstruct the band of the public E in place, then fuse each
		// member's overlap with it (Eqs. 5, 8).
		t0 = time.Now()
		tensor.Add(eBand, ei.SliceRowsInto(&w.eiView, lo, hi), eBand)
		t1 := time.Now()
		reconDur += t1.Sub(t0)
		for j := lo / m; j < B && j*m < hi; j++ {
			in := members[j]
			ov0, ov1 := max(j*m, lo), min((j+1)*m, hi) // stack rows
			lr0, lr1 := ov0-j*m, ov1-j*m               // member rows
			eSl := eBand.SliceRowsInto(&w.eView, ov0-lo, ov1-lo)
			dSl := in.A.SliceRowsInto(&w.aView, lr0, lr1) // party 0: D = A_0
			if w.party == 1 {
				dSl = dBuf.SliceRowsInto(&w.dView, ov0-lo, ov1-lo)
				tensor.Sub(dSl, &w.aView, eSl) // D = A_1 − E
			}
			cSl := c.SliceRowsInto(&w.cView, ov0, ov1)
			tensor.Gemm(cSl, dSl, f.SliceRowsInto(&w.fView, j*k, (j+1)*k), 1, 0) // D×F
			tensor.Gemm(cSl, eSl, in.B, 1, 1)                                    // += E×B_i
			tensor.AXPY(cSl, 1, in.T.Z.SliceRowsInto(&w.zView, lr0, lr1))        // += Z_i
		}
		gemmDur += time.Since(t1)
		lo = hi
	}
	// The peer's reader consumes our bands symmetrically, so the sender
	// drains; a peer that died instead surfaces here as its write error
	// (bounded by the connection's deadlines).
	t0 = time.Now()
	sendErr := <-w.done
	exchDur += time.Since(t0)
	w.put(peerBand)
	w.put(dBuf)
	w.put(ei)
	w.put(fi)
	w.put(f)
	if sendErr != nil {
		w.put(c)
		return nil, fmt.Errorf("mpc: send E/F: %w", sendErr)
	}
	// Feed the measured link rate back into the codec's byte budget: what
	// we shipped over the summed transfer waits of this exchange.
	w.cfg.Codec.ObserveLink(w.sentBytes, exchDur)
	metrics.phaseExchange.Observe(exchDur)
	metrics.phaseReconstruct.Observe(reconDur)
	metrics.phaseGemm.Observe(gemmDur)
	return c, nil
}
