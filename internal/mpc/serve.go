package mpc

import (
	"context"
	cryptorand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"parsecureml/internal/comm"
	"parsecureml/internal/obs"
	"parsecureml/internal/tensor"
)

// Wire service: a long-running computation server speaking the framed
// protocol. A client uploads its shares (A_i, B_i, U_i, V_i, Z_i) to each
// server; the servers run the Beaver exchange between themselves and
// return C_i. cmd/psml-server wraps this in a binary, so the two parties
// can be separate processes (or machines) — the deployment shape of
// Fig. 1b with TCP standing in for MPI.
//
// Failure awareness: every request carries a client-chosen 64-bit id. The
// servers key each request's peer exchange by it (one comm.Mux sub-stream
// per request), and every reply echoes it, so a client whose earlier
// request died mid-read recognizes the orphaned result and sheds it
// instead of silently desyncing.

// sharesSize is the exact wire size of a shares payload, so encode
// buffers never append-grow through multi-MB reallocations.
func sharesSize(in Shares) int {
	n := tensor.EncodedSize(in.A) + tensor.EncodedSize(in.B)
	if in.T.U != nil {
		n += tensor.EncodedSize(in.T.U) + tensor.EncodedSize(in.T.V) + tensor.EncodedSize(in.T.Z)
	}
	return n
}

// EncodeShares serializes one party's multiplication inputs as a single
// payload: A, B, U, V, Z in order. A nil-triplet Shares (in.T.U == nil)
// encodes as the short A, B form — the dealer-fed request shape, where
// the servers draw the triplet from their TripletFeed instead of the
// client shipping it.
func EncodeShares(in Shares) []byte {
	return appendShares(make([]byte, 0, sharesSize(in)), in)
}

func appendShares(frame []byte, in Shares) []byte {
	frame = tensor.EncodeMatrix(frame, in.A)
	frame = tensor.EncodeMatrix(frame, in.B)
	if in.T.U == nil {
		return frame
	}
	frame = tensor.EncodeMatrix(frame, in.T.U)
	frame = tensor.EncodeMatrix(frame, in.T.V)
	return tensor.EncodeMatrix(frame, in.T.Z)
}

// DecodeShares parses a payload produced by EncodeShares: either the
// full five-matrix form (A, B, U, V, Z) or the two-matrix dealer-fed
// form (A, B with out.T zero) — the payload length after B decides.
func DecodeShares(frame []byte) (Shares, error) {
	var out Shares
	var mats [5]*tensor.Matrix
	off, count := 0, 0
	for count < len(mats) && off < len(frame) {
		m, n, err := tensor.DecodeMatrix(frame[off:])
		if err != nil {
			return out, fmt.Errorf("mpc: shares frame matrix %d: %w", count, err)
		}
		mats[count] = m
		count++
		off += n
	}
	if off != len(frame) || (count != 2 && count != 5) {
		return out, fmt.Errorf("mpc: shares frame holds %d matrices with %d trailing bytes, want 2 (dealer-fed) or 5", count, len(frame)-off)
	}
	out.A, out.B = mats[0], mats[1]
	if count == 5 {
		out.T = TripletShares{U: mats[2], V: mats[3], Z: mats[4]}
	}
	if err := validateShares(out); err != nil {
		return Shares{}, err
	}
	return out, nil
}

// validateShares rejects geometry the multiplication cannot run: the
// kernels index by A and B's dimensions, so a malformed request whose
// matrices decoded fine individually but disagree with each other would
// otherwise panic the serving goroutine mid-GEMM instead of failing the
// decode.
func validateShares(in Shares) error {
	m, k := in.A.Rows, in.A.Cols
	n := in.B.Cols
	if in.B.Rows != k {
		return fmt.Errorf("mpc: shares geometry: A is %dx%d but B is %dx%d", m, k, in.B.Rows, n)
	}
	if in.T.U == nil {
		return nil // dealer-fed form: the triplet geometry is the feed's to honor
	}
	switch {
	case in.T.U.Rows != m || in.T.U.Cols != k:
		return fmt.Errorf("mpc: shares geometry: U is %dx%d, want %dx%d", in.T.U.Rows, in.T.U.Cols, m, k)
	case in.T.V.Rows != k || in.T.V.Cols != n:
		return fmt.Errorf("mpc: shares geometry: V is %dx%d, want %dx%d", in.T.V.Rows, in.T.V.Cols, k, n)
	case in.T.Z.Rows != m || in.T.Z.Cols != n:
		return fmt.Errorf("mpc: shares geometry: Z is %dx%d, want %dx%d", in.T.Z.Rows, in.T.Z.Cols, m, n)
	}
	return nil
}

// requestIDBytes prefixes every client request and every peer-exchange
// frame of the session protocol.
const requestIDBytes = 8

// EncodeRequest serializes one multiplication request: the request id
// followed by the shares payload.
func EncodeRequest(id uint64, in Shares) []byte {
	frame := make([]byte, 0, requestIDBytes+sharesSize(in))
	frame = binary.LittleEndian.AppendUint64(frame, id)
	return appendShares(frame, in)
}

// DecodeRequest parses a frame produced by EncodeRequest or
// EncodeRequestBudget — a deadline envelope, when present, is skipped
// transparently (read it with PeekBudget).
func DecodeRequest(frame []byte) (uint64, Shares, error) {
	if len(frame) < requestIDBytes {
		return 0, Shares{}, fmt.Errorf("mpc: request frame of %d bytes has no id", len(frame))
	}
	id := binary.LittleEndian.Uint64(frame)
	in, err := DecodeShares(stripEnvelope(frame))
	return id, in, err
}

// reqCounter hands out process-unique request ids, starting from a
// random base so ids from a restarted client don't collide with frames a
// previous incarnation left on the servers' peer link.
var reqCounter atomic.Uint64

func init() {
	var seed [requestIDBytes]byte
	cryptorand.Read(seed[:]) // a zero base on error is merely less unique
	reqCounter.Store(binary.LittleEndian.Uint64(seed[:]))
}

func newRequestID() uint64 { return reqCounter.Add(1) }

// maxStaleFrames bounds how many orphaned result frames one read will
// discard before declaring the connection desynchronized.
const maxStaleFrames = 32

// ErrPeerDesync reports a connection delivering nothing but frames from
// other requests.
var ErrPeerDesync = errors.New("mpc: peer link desynchronized")

// bufShrinkCap is the high-water mark for serving-loop scratch buffers:
// scratch grown past it by one oversized frame is released at the next
// request boundary where the current usage no longer justifies it,
// instead of staying resident for the session lifetime.
const bufShrinkCap = 1 << 20

// shrinkScratch decides whether a scratch buffer earned its keep: buffers
// over the cap whose latest use filled less than half their capacity are
// dropped (the next request re-allocates to its own size), counted on
// psml_buf_shrinks_total. Everything else is kept as-is.
func shrinkScratch(buf []byte, used int) []byte {
	if cap(buf) > bufShrinkCap && used <= cap(buf)/2 {
		metrics.bufShrinks.Inc()
		return nil
	}
	return buf
}

// isSessionEnd reports an error that means "client done", not a failure.
func isSessionEnd(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrClosedPipe) || errors.Is(err, net.ErrClosed)
}

// ServerError is RequestMul's typed failure: which server, which step.
type ServerError struct {
	Server int    // 0 or 1
	Op     string // "upload", "result", "decode"
	Err    error
}

func (e *ServerError) Error() string {
	return fmt.Sprintf("mpc: server %d %s: %v", e.Server, e.Op, e.Err)
}

func (e *ServerError) Unwrap() error { return e.Err }

// RequestMul is the client side of one remote multiplication: ship the
// pre-split shares to both servers concurrently, collect and merge the
// result shares. Deadlines come from the connections (comm.Conn
// SetTimeouts); failures identify the server and step via *ServerError.
//
// Failure containment: when one leg fails, the other leg is always
// drained to completion before RequestMul returns — a surviving server's
// goroutine is never left mid-protocol on a shared connection — and
// every leg error is surfaced via errors.Join (errors.As still finds
// each *ServerError). Result frames echo the request id, so a result
// orphaned by an earlier failed call (e.g. a read deadline that expired
// just before the server replied) is recognized as stale on the next
// call and discarded instead of silently desyncing the connection.
func RequestMul(s0, s1 comm.Framer, in0, in1 Shares) (*tensor.Matrix, error) {
	return RequestMulID(newRequestID(), s0, s1, in0, in1)
}

// RequestMulID is RequestMul under a caller-chosen request id. The id
// must be unique across every in-flight request of the server pair (it
// keys the peer-link mux sub-stream); callers that route through a
// session router also rely on it as the routing key, so both legs of
// one call must carry the same id — which this guarantees.
func RequestMulID(id uint64, s0, s1 comm.Framer, in0, in1 Shares) (*tensor.Matrix, error) {
	return requestMulFrames(id, s0, s1, EncodeRequest(id, in0), EncodeRequest(id, in1))
}

// requestMulFrames runs both legs of one multiplication with prebuilt
// request frames (EncodeRequest or EncodeRequestBudget output; both must
// carry id).
func requestMulFrames(id uint64, s0, s1 comm.Framer, f0, f1 []byte) (*tensor.Matrix, error) {
	results := make(chan *ServerError, 2)
	shares := [2]*tensor.Matrix{}
	leg := func(server int, c comm.Framer, req []byte) *ServerError {
		if err := c.WriteFrame(req); err != nil {
			return &ServerError{Server: server, Op: "upload", Err: err}
		}
		for tries := 0; tries < maxStaleFrames; tries++ {
			f, err := c.ReadFrame()
			if err != nil {
				return &ServerError{Server: server, Op: "result", Err: err}
			}
			if len(f) < requestIDBytes {
				return &ServerError{Server: server, Op: "decode",
					Err: fmt.Errorf("mpc: result frame of %d bytes has no request id", len(f))}
			}
			if binary.LittleEndian.Uint64(f) != id {
				// Orphaned result of an aborted earlier request: shed it,
				// like the peer link sheds stale exchange frames.
				metrics.staleFrames.Inc()
				continue
			}
			// A typed error frame instead of a result: the fleet refused or
			// failed this request in-band. Surface it through the usual
			// ServerError wrapper (errors.As finds the *RouteError).
			if _, re, ok := DecodeRouteError(f); ok {
				return &ServerError{Server: server, Op: "route", Err: re}
			}
			m, _, err := tensor.DecodeMatrix(f[requestIDBytes:])
			if err != nil {
				return &ServerError{Server: server, Op: "decode", Err: err}
			}
			shares[server] = m
			return nil
		}
		metrics.desyncs.Inc()
		return &ServerError{Server: server, Op: "result", Err: ErrPeerDesync}
	}
	go func() { results <- leg(0, s0, f0) }()
	go func() { results <- leg(1, s1, f1) }()
	// Always collect both legs — returning on the first failure would
	// leave the survivor mid-protocol on a connection the caller may
	// reuse.
	var legErrs [2]error
	for i := 0; i < 2; i++ {
		if se := <-results; se != nil {
			legErrs[se.Server] = se
		}
	}
	if err := errors.Join(legErrs[0], legErrs[1]); err != nil {
		return nil, err
	}
	return RemoteCombine(shares[0], shares[1]), nil
}

// RetryConfig tunes RequestMulRetry.
type RetryConfig struct {
	// Attempts bounds the total tries, the first included. <= 0 selects 3.
	Attempts int
	// Budget, when positive, rides a deadline envelope on every request
	// frame: the end-to-end time remaining, decremented by the client's
	// own elapsed time across retries, so routers and replicas can shed
	// work that can no longer make it.
	Budget time.Duration
	// MaxRetryAfter caps how long one retry sleeps on the fleet's
	// retry-after hint. <= 0 selects 250ms.
	MaxRetryAfter time.Duration
}

// RequestMulRetry is the session-level retry ladder on top of
// RequestMulID: when every leg failure of an attempt is a retryable
// RouteError (no replicas, a draining backend, an exhausted router
// ladder — conditions where no backend ran the request), the SAME
// request id is re-sent after the fleet's retry-after hint. The retried
// multiplication is idempotent — the result is a deterministic function
// of the input shares — so a duplicate execution is merely wasted work,
// never a wrong answer. Non-retryable failures (transport errors,
// decode failures, an exceeded deadline) surface immediately.
func RequestMulRetry(s0, s1 comm.Framer, in0, in1 Shares, cfg RetryConfig) (*tensor.Matrix, error) {
	attempts := cfg.Attempts
	if attempts <= 0 {
		attempts = 3
	}
	maxWait := cfg.MaxRetryAfter
	if maxWait <= 0 {
		maxWait = 250 * time.Millisecond
	}
	id := newRequestID()
	start := time.Now()
	encode := func(in Shares) []byte {
		if cfg.Budget > 0 {
			return EncodeRequestBudget(id, cfg.Budget-time.Since(start), in)
		}
		return EncodeRequest(id, in)
	}
	for attempt := 1; ; attempt++ {
		if cfg.Budget > 0 && time.Since(start) >= cfg.Budget {
			return nil, &ServerError{Server: 0, Op: "route",
				Err: &RouteError{Code: RouteDeadlineExceeded}}
		}
		m, err := requestMulFrames(id, s0, s1, encode(in0), encode(in1))
		if err == nil {
			return m, nil
		}
		wait, retryable := retryHint(err)
		if !retryable || attempt >= attempts {
			return nil, err
		}
		metrics.clientRetries.Inc()
		if wait > maxWait {
			wait = maxWait
		}
		if wait > 0 {
			time.Sleep(wait)
		}
	}
}

// retryHint reports whether EVERY leg failure inside err is a retryable
// RouteError — the only condition under which re-sending the same id is
// known safe and useful — and the largest retry-after hint among them.
func retryHint(err error) (time.Duration, bool) {
	legs := []error{err}
	if j, ok := err.(interface{ Unwrap() []error }); ok {
		legs = j.Unwrap()
	}
	var wait time.Duration
	for _, e := range legs {
		var re *RouteError
		if !errors.As(e, &re) || !re.Retryable() {
			return 0, false
		}
		if re.RetryAfter > wait {
			wait = re.RetryAfter
		}
	}
	return wait, len(legs) > 0
}

// ServeConfig tunes a serving accept loop.
type ServeConfig struct {
	// ClientTimeout is the per-frame deadline on client connections; it
	// doubles as the session idle timeout (a client that goes quiet for
	// longer is disconnected). 0 disables.
	ClientTimeout time.Duration
	// PeerTimeout is the per-frame deadline on the inter-server link —
	// the bound on how long a party blocks when the complementary request
	// never arrives at its peer. 0 disables (and restores the wedge).
	PeerTimeout time.Duration
	// Wire tunes the banded peer exchange (wireMul.mul): band height,
	// matrix pool and codec. The zero value streams whole-matrix bands
	// raw, from one pool shared by every session. Band height and codec
	// are sender-local, so the parties need not agree on either.
	Wire WireConfig
	// Batch, when non-nil, coalesces compatible same-shape requests across
	// sessions into single stacked exchanges (see batch.go) — bit-identical
	// results, one peer round per batch instead of one per request. Both
	// parties must enable it together: a peer without batching never
	// answers proposals, and every batch pays the ack timeout before
	// falling back.
	Batch *BatchConfig
	// Log receives structured serving events (session lifecycle, accept
	// failures); nil silences them. Metrics are recorded regardless — the
	// event stream and /metrics share the same call sites.
	Log *obs.Logger
	// MaxSessions bounds the client sessions served concurrently; accepts
	// beyond the bound are shed (connection closed immediately, counted on
	// psml_sessions_shed_total) rather than queued, so overload degrades
	// loudly instead of stacking invisible latency. <= 0 selects
	// DefaultMaxSessions.
	MaxSessions int
	// Feed, when non-nil, serves dealer-fed requests (the two-matrix A, B
	// form): the triplet comes from this party's feed instead of the
	// client. Party 0 draws the next ready triplet for the request's shape
	// and tells party 1 its stream sequence number over the request's mux
	// session (the first frame, ahead of the Beaver exchange), so both
	// parties always hold complementary halves of the same triplet no
	// matter how concurrent sessions interleave. Full five-matrix requests
	// are still honored — a pair can serve classic and dealer-fed clients
	// at once. Both parties must configure a Feed together.
	Feed TripletFeed
}

// DefaultMaxSessions is the concurrent-session bound when
// ServeConfig.MaxSessions is unset.
const DefaultMaxSessions = 16

// maxAcceptFailures bounds consecutive listener failures before
// ServeClients gives up (a closed or broken listener, not a bad client).
const maxAcceptFailures = 5

// ServeClients is the failure-contained accept loop of one computation
// party: serve up to cfg.MaxSessions client sessions concurrently over
// the single peer link until ctx is cancelled or the listener dies. The
// peer link is multiplexed (comm.Mux) with one sub-stream per in-flight
// request, keyed by the request id both parties already share — the
// paper's one MPI edge carrying every concurrent Beaver exchange.
// Accepts beyond MaxSessions are shed immediately. A session that fails —
// malformed frames, a client killed mid-protocol, a peer-exchange
// timeout — is logged and torn down alone; its mux sub-streams are
// aborted (notifying the peer's half) and its sibling sessions keep
// running. Returns nil on graceful shutdown.
//
// The peer connection is owned by the mux for the duration of the call
// and is closed on return. Shutdown is bounded: cancelling ctx closes
// the listener AND every tracked client connection, so in-flight
// sessions unblock immediately instead of running until ClientTimeout
// (or forever when it is 0).
//
// peer is any Framer: a *comm.Conn for the classic single-connection
// deployment, or a *comm.SupervisedLink (see SupervisePeer) when the
// link should survive connection loss — sessions then see a reconnect
// only as latency. Note PeerTimeout still bounds each session's peer
// reads via the mux, so it must comfortably exceed the supervisor's
// worst-case detect+reconnect+resync time.
func ServeClients(ctx context.Context, party int, ln net.Listener, peer comm.Framer, cfg ServeConfig) error {
	if cfg.PeerTimeout > 0 {
		// The peer's read side belongs to the demux reader, which must
		// idle freely between requests: per-session reads are bounded by
		// the mux's ReadTimeout instead of a connection deadline. A
		// supervised link has no deadline surface — its reads block until
		// delivery or permanent link death, which preserves the same
		// contract.
		if d, ok := peer.(interface {
			SetTimeouts(read, write time.Duration)
		}); ok {
			d.SetTimeouts(0, cfg.PeerTimeout)
		}
	}
	maxSessions := cfg.MaxSessions
	if maxSessions <= 0 {
		maxSessions = DefaultMaxSessions
	}
	// Size the stale-id tombstone ring to the session churn this loop can
	// generate: with many concurrent sessions each retiring a mux id per
	// request, the default ring can wrap within one slow request's
	// lifetime, and a frame for a wrapped-out id would be taken for a new
	// session's. 64 retired ids of headroom per concurrent session keeps
	// recognition comfortably ahead of churn.
	tombstones := maxSessions * 64
	if tombstones < comm.DefaultTombstoneIDs {
		tombstones = comm.DefaultTombstoneIDs
	}
	mux := comm.NewMux(peer, comm.MuxConfig{ReadTimeout: cfg.PeerTimeout, TombstoneIDs: tombstones})
	// Concurrent sessions share one result-matrix pool (a private pool
	// per session would defeat recycling across requests).
	if cfg.Wire.Pool == nil {
		cfg.Wire.Pool = tensor.NewPool()
	}
	codec := cfg.Wire.Codec
	// A reconnected supervised link is a different network path: the
	// bandwidth EWMA measured on the dead incarnation must not keep the
	// codec selector pinned to a throttle (or a fast path) that no longer
	// exists. Reset it; fresh exchanges re-measure within a few requests.
	if codec != nil {
		if sl, ok := peer.(*comm.SupervisedLink); ok {
			sl.OnReconnect(codec.ResetLink)
		}
	}
	// Codec capability handshake: advertise once on the reserved control
	// session and upgrade when the peer's advertisement arrives. Until
	// then (or forever, against an old peer that never answers) every
	// send stays raw — no timeout in the startup path.
	if codec != nil && codec.Negotiate {
		ctl, err := mux.Open(wireCtlID)
		if err != nil {
			mux.Close()
			return fmt.Errorf("mpc: party %d: codec control session: %w", party, err)
		}
		go runCodecNegotiation(ctl, codec, cfg.Log)
	}
	var bt batcher
	if cfg.Batch != nil {
		b, err := newBatcher(party, mux, *cfg.Batch, cfg.Wire.Pool, codec)
		if err != nil {
			mux.Close()
			return fmt.Errorf("mpc: party %d: %w", party, err)
		}
		bt = b
	}

	// Cancelling ctx closes the listener (unblocking Accept) and every
	// tracked session conn (unblocking their frame reads). The mutex
	// closes the race where ctx fires between Accept returning a conn and
	// the loop recording it: whichever side runs second sees the other's
	// state and closes the conn.
	var mu sync.Mutex
	active := make(map[*comm.Conn]struct{})
	stopping := false
	stop := context.AfterFunc(ctx, func() {
		mu.Lock()
		defer mu.Unlock()
		stopping = true
		ln.Close()
		for c := range active {
			c.Close()
		}
		if bt != nil {
			// Unpark collecting batches immediately: their members fall
			// back and then fail on their (now closing) client conns.
			bt.close()
		}
	})
	defer stop()

	var wg sync.WaitGroup
	defer func() {
		wg.Wait()
		if bt != nil {
			bt.close() // idempotent: the AfterFunc may have run already
		}
		mux.Close()
	}()

	sem := make(chan struct{}, maxSessions)
	failures := 0
	for {
		client, err := comm.Accept(ln)
		if err != nil {
			if ctx.Err() != nil || errors.Is(err, net.ErrClosed) {
				return nil
			}
			failures++
			if failures >= maxAcceptFailures {
				return fmt.Errorf("mpc: party %d accept: %w", party, err)
			}
			cfg.Log.Error("accept", err, "party", party, "failures", failures, "max", maxAcceptFailures)
			// Backoff, but never outlive a cancelled context.
			select {
			case <-ctx.Done():
				return nil
			case <-time.After(time.Duration(failures) * 10 * time.Millisecond):
			}
			continue
		}
		failures = 0
		select {
		case sem <- struct{}{}:
		default:
			// Overload: shed the connection instead of queueing it behind
			// an unbounded backlog.
			metrics.sessionsShed.Inc()
			cfg.Log.Event("session_shed", "party", party, "max_sessions", maxSessions)
			client.Close()
			continue
		}
		mu.Lock()
		if stopping {
			mu.Unlock()
			client.Close()
			<-sem
			return nil
		}
		active[client] = struct{}{}
		mu.Unlock()
		wg.Add(1)
		go func(client *comm.Conn) {
			defer wg.Done()
			serveMuxSession(party, client, mux, bt, cfg)
			mu.Lock()
			delete(active, client)
			mu.Unlock()
			client.Close()
			<-sem
		}(client)
	}
}

// serveMuxSession runs one client session's request loop with its
// lifecycle metrics and logging.
func serveMuxSession(party int, client *comm.Conn, mux *comm.Mux, bt batcher, cfg ServeConfig) {
	if cfg.ClientTimeout > 0 {
		client.SetTimeouts(cfg.ClientTimeout, cfg.ClientTimeout)
	}
	metrics.sessions.Inc()
	metrics.sessionsActive.Add(1)
	cfg.Log.Event("session_start", "party", party)
	err := serveMuxLoop(party, client, mux, bt, cfg)
	if err != nil && !isSessionEnd(err) {
		metrics.sessionErrors.Inc()
		cfg.Log.Error("session", err, "party", party)
	} else {
		cfg.Log.Event("session_done", "party", party)
	}
	metrics.sessionsActive.Add(-1)
}

// serveMuxLoop serves one client's requests until it disconnects. Each
// request's peer exchange is the banded double pipeline (wireMul.mul) on
// its own mux sub-stream keyed by the request id. With bt non-nil each
// client-dealt request is first offered to the batch scheduler; requests
// it cannot place (degenerate shapes, members dropped by the peer) run
// the individual path unchanged.
//
// Every request leaves through one exit: a failure is counted, and the
// latency histogram of the path taken is observed on success and failure
// alike (an explicit start time instead of a Span, so failures record
// too); a failed request ends the session.
func serveMuxLoop(party int, client *comm.Conn, mux *comm.Mux, bt batcher, cfg ServeConfig) error {
	s := &sessionServer{party: party, mux: mux, bt: bt, feed: cfg.Feed, w: newWireMul(party, cfg.Wire)}
	defer s.w.close()
	var reqBuf, outBuf []byte
	for {
		frame, err := readFrameInto(client, reqBuf)
		if err != nil {
			return err // including io.EOF: client done
		}
		reqBuf = frame
		start := time.Now()
		metrics.requests.Inc()
		var h *obs.Histogram
		outBuf, h, err = s.serve(frame, outBuf[:0])
		if err == nil {
			err = client.WriteFrame(outBuf)
		}
		if err != nil {
			metrics.requestErrors.Inc()
		}
		h.ObserveSince(start)
		if err != nil {
			return err
		}
		reqBuf = shrinkScratch(reqBuf, len(frame))
		outBuf = shrinkScratch(outBuf, len(outBuf))
	}
}

// sessionServer is one client session's serving state.
type sessionServer struct {
	party int
	mux   *comm.Mux
	bt    batcher
	feed  TripletFeed
	w     *wireMul
}

// serve runs one request frame and appends the reply frame to out: the
// request id ahead of the result share, or an in-band route error when
// deadline admission refuses it. It also returns the latency histogram
// of the path the request took.
func (s *sessionServer) serve(frame, out []byte) ([]byte, *obs.Histogram, error) {
	id, in, err := DecodeRequest(frame)
	if err != nil {
		return out, metrics.reqWire, err
	}
	// Deadline admission: a budget-enveloped request whose remaining time
	// cannot cover the cost model's exchange floor is refused in-band and
	// the session continues — the refusal is deterministic in (budget,
	// shape), so both parties of a pair decide identically.
	if budget, ok := PeekBudget(frame); ok && budget < DeadlineEstimate(in.A.Rows, in.A.Cols, in.B.Cols) {
		metrics.deadlineShed.Inc()
		return append(out, EncodeRouteError(id, RouteDeadlineExceeded, 0)...), metrics.reqWire, nil
	}
	// Dealer-fed requests (nil triplet) skip the batcher: the stacked
	// exchange ships member triplets inside the proposal, which the short
	// request form deliberately does not carry.
	if s.bt != nil && in.T.U != nil {
		ci, release, handled, err := s.bt.do(id, in)
		if handled {
			if err != nil {
				return out, metrics.reqBatched, fmt.Errorf("mpc: request %016x: %w", id, err)
			}
			out = appendResult(out, id, ci)
			release() // last member out returns the stacked result
			return out, metrics.reqBatched, nil
		}
	}
	ci, err := s.exchange(id, in)
	if err != nil {
		return out, metrics.reqWire, fmt.Errorf("mpc: request %016x: %w", id, err)
	}
	out = appendResult(out, id, ci)
	s.w.put(ci)
	return out, metrics.reqWire, nil
}

// exchange runs one request's Beaver exchange on its own mux sub-stream,
// drawing the triplet from the feed first when the request is dealer-fed.
// A failed exchange aborts the sub-stream, which notifies the peer's half
// so it fails fast instead of waiting out its read deadline on frames
// that will never come.
func (s *sessionServer) exchange(id uint64, in Shares) (*tensor.Matrix, error) {
	sess, err := s.mux.Open(id)
	if err != nil {
		return nil, err
	}
	if in.T.U == nil {
		if s.feed == nil {
			err = errors.New("dealer-fed request on a party with no triplet feed")
		} else {
			tspan := metrics.phaseTriplet.Start()
			in.T, err = feedTriplet(s.party, s.feed, sess, in.A.Rows, in.A.Cols, in.B.Cols)
			tspan.Stop()
		}
	}
	var ci *tensor.Matrix
	if err == nil {
		ci, err = s.w.mul(sess, in.A, in.B, in.T)
	}
	if err != nil {
		sess.Abort()
		return nil, err
	}
	sess.Close()
	return ci, nil
}

// appendResult appends a result frame: the request id, then the share.
func appendResult(out []byte, id uint64, ci *tensor.Matrix) []byte {
	out = binary.LittleEndian.AppendUint64(out, id)
	return tensor.EncodeMatrix(out, ci)
}

// handshake tags so two psml-server processes can agree on who they are.
const (
	helloMagic = 0x50534d4c // "PSML"
)

// helloTimeout bounds each half of the role handshake. Without it the
// hello runs with whatever deadlines the connection already has — often
// none on a freshly dialed conn — and a silent or wedged peer blocks
// server startup indefinitely. A var so tests can shrink it.
var helloTimeout = 10 * time.Second

// WriteHello sends a role handshake (party index) on a fresh connection.
// The write runs under a bounded deadline (helloTimeout) regardless of
// the connection's configured timeouts, which are restored afterwards.
func WriteHello(c *comm.Conn, party int) error {
	r0, w0 := c.Timeouts()
	c.SetTimeouts(r0, helloTimeout)
	defer c.SetTimeouts(r0, w0)
	var buf [8]byte
	binary.LittleEndian.PutUint32(buf[:4], helloMagic)
	binary.LittleEndian.PutUint32(buf[4:], uint32(party))
	if err := c.WriteFrame(buf[:]); err != nil {
		return fmt.Errorf("mpc: hello: %w", err)
	}
	return nil
}

// ReadHello validates the handshake and returns the peer's party index.
// The read runs under a bounded deadline (helloTimeout) regardless of
// the connection's configured timeouts, which are restored afterwards —
// a silent peer fails the handshake instead of hanging startup.
func ReadHello(c *comm.Conn) (int, error) {
	r0, w0 := c.Timeouts()
	c.SetTimeouts(helloTimeout, w0)
	defer c.SetTimeouts(r0, w0)
	frame, err := c.ReadFrame()
	if err != nil {
		return 0, fmt.Errorf("mpc: hello: %w", err)
	}
	if len(frame) != 8 || binary.LittleEndian.Uint32(frame[:4]) != helloMagic {
		return 0, fmt.Errorf("mpc: bad hello frame")
	}
	return int(binary.LittleEndian.Uint32(frame[4:])), nil
}
