package mpc

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"parsecureml/internal/comm"
	"parsecureml/internal/tensor"
)

// Cross-session request batching: the serving-side half of the paper's
// contribution 1. N concurrent tenants issuing same-geometry multiplications
// each pay a full Beaver exchange — 2 mux frames per direction of fixed
// per-round overhead — while the GEMMs themselves are small. A per-shape
// collector holds compatible requests for a short window (static, or the
// planner's computed crossover) and executes the whole group as ONE
// row-stacked exchange: the E shares concatenate to a (B·m)×k stack, the F
// shares to a (B·k)×n stack, one frame sequence moves each way, and each
// member's slice of the fused banded GEMM is computed with exactly the
// per-session op sequence — so results are bit-identical to serving the
// requests one by one (every dst row of the GEMM accumulates independently;
// see tensor.Gemm).
//
// Coordination: the two parties see the same request ids but not in the
// same order or at the same time, so batch membership must be agreed, not
// assumed. Party 0 leads: it collects, then sends a proposal (batch id,
// shape, band height, member ids) on a reserved mux control session. Party
// 1 claims each proposed id from its own arrivals — waiting JoinWait for
// stragglers still in flight — and acks the subset it holds. Both sides
// execute the acked subset in proposal order over a fresh mux session keyed
// by the batch id; members that missed the batch on either side fall back
// to the ordinary per-request path on BOTH sides (the leader omits them
// from the exec, the follower remembers them as dropped), so one slow or
// dead client never wedges its co-tenants.
//
// Both parties must enable batching together (ServeConfig.Batch), like the
// wire pipeline: a leader whose peer never opens the control session sees
// every proposal go unanswered and pays the ack timeout per batch.

// batchCtlID is the reserved mux session carrying batch proposals and
// acks ("psmlbch1"). Request ids start from a random 64-bit base, so a
// collision with a live request id is as likely as any other id reuse.
const batchCtlID uint64 = 0x70736d6c62636831

// Batch control frame layout (little-endian):
//
//	propose: ver kind=1 | u64 batchID | u32 m k n stackBand | u32 count | count × u64 ids
//	ack:     ver kind=2 | u64 batchID | u32 count | count × u64 ids (subset, proposal order)
const (
	batchCtlVersion  byte = 1
	batchKindPropose byte = 1
	batchKindAck     byte = 2
)

// maxBatchCtlIDs bounds the member count a control frame may carry, so a
// hostile frame cannot force a huge allocation.
const maxBatchCtlIDs = 1 << 12

// BatchConfig enables and tunes cross-session request batching on
// ServeClients. Both parties must configure it together.
type BatchConfig struct {
	// Window is how long the collector holds the first request of a batch
	// for more same-shape arrivals. <= 0 selects the default (500µs) unless
	// Planner is set, in which case the planner computes the window per
	// shape from the hw cost models and measured exchange costs.
	Window time.Duration
	// MaxBatch caps the members of one batch; a full batch dispatches
	// immediately. <= 0 selects 16.
	MaxBatch int
	// MaxRows caps the stacked E rows of one batch (members × m); reaching
	// it dispatches immediately. <= 0 selects 4096.
	MaxRows int
	// JoinWait is how long the follower waits for a proposed member whose
	// request has not reached it yet before dropping that member from the
	// batch. <= 0 selects 150ms.
	JoinWait time.Duration
	// Planner, when non-nil, computes the batch window and band height per
	// shape instead of the static Window / whole-stack defaults.
	Planner *Planner
}

const (
	defaultBatchWindow  = 500 * time.Microsecond
	defaultBatchMax     = 16
	defaultBatchMaxRows = 4096
	defaultJoinWait     = 150 * time.Millisecond
)

func (c BatchConfig) withDefaults() BatchConfig {
	if c.Window <= 0 {
		c.Window = defaultBatchWindow
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = defaultBatchMax
	}
	if c.MaxRows <= 0 {
		c.MaxRows = defaultBatchMaxRows
	}
	if c.JoinWait <= 0 {
		c.JoinWait = defaultJoinWait
	}
	return c
}

// batcher is what a serving loop offers each request to. handled=false
// means "not batched, serve it on the ordinary per-request path" —
// degenerate shapes, duplicate ids, members dropped by the peer, and
// anything arriving after close. handled=true with err!=nil is a failed
// batch exchange: the request failed, like a per-request exchange error.
// On success, ci is a row view into the shared stacked result; release
// returns the backing store to the pool once the caller has encoded it.
type batcher interface {
	do(id uint64, in Shares) (ci *tensor.Matrix, release func(), handled bool, err error)
	close()
}

// newBatcher wires the party's side of the batch protocol onto the mux.
// codec, when non-nil, compresses the stacked E/F exchanges exactly like
// the per-request wire path (rounding is elementwise, so a stacked FP16
// round equals rounding each member individually).
func newBatcher(party int, mux *comm.Mux, cfg BatchConfig, pool *tensor.Pool, codec *WireCodec) (batcher, error) {
	ctl, err := mux.Open(batchCtlID)
	if err != nil {
		return nil, fmt.Errorf("mpc: batch control session: %w", err)
	}
	cfg = cfg.withDefaults()
	if pool == nil {
		pool = tensor.NewPool()
	}
	if party == 0 {
		l := &batchLeader{
			cfg:     cfg,
			mux:     mux,
			ctl:     ctl,
			pool:    pool,
			codec:   codec,
			pending: make(map[batchShape]*pendingBatch),
			acks:    make(map[uint64]chan batchAck),
			done:    make(chan struct{}),
		}
		go l.ackLoop()
		return l, nil
	}
	f := &batchFollower{
		cfg:     cfg,
		mux:     mux,
		ctl:     ctl,
		pool:    pool,
		codec:   codec,
		waiting: make(map[uint64]*batchMember),
		expect:  make(map[uint64]chan *batchMember),
		dropped: make(map[uint64]struct{}),
		done:    make(chan struct{}),
	}
	// Upper bound on leader-side collection before a proposal can reach us:
	// its window plus control-frame latency, padded generously — a expired
	// wait only costs falling back to the individual path.
	maxWindow := cfg.Window
	if cfg.Planner != nil && defaultMaxWindow > maxWindow {
		maxWindow = defaultMaxWindow
	}
	f.proposalWait = 2*cfg.JoinWait + maxWindow + 250*time.Millisecond
	go f.proposalLoop()
	return f, nil
}

// batchOutcome is the collector's answer to one parked request.
type batchOutcome struct {
	ci       *tensor.Matrix
	release  func()
	err      error
	fallback bool // not batched after all: serve individually
}

// batchMember is one request parked in a forming batch.
type batchMember struct {
	id    uint64
	in    Shares
	shape batchShape
	out   chan batchOutcome // buffered 1: delivery never blocks
}

// shapeOf returns the request's batch key; ok=false for degenerate
// geometry the stacking math cannot handle (batchExec divides by m).
func shapeOf(in Shares) (batchShape, bool) {
	s := batchShape{m: in.A.Rows, k: in.A.Cols, n: in.B.Cols}
	return s, s.m > 0 && s.k > 0 && s.n > 0
}

func fallbackMember(mem *batchMember) {
	metrics.batchFallbacks.Inc()
	mem.out <- batchOutcome{fallback: true}
}

func fallbackAll(members []*batchMember) {
	for _, mem := range members {
		fallbackMember(mem)
	}
}

func errAll(members []*batchMember, err error) {
	for _, mem := range members {
		mem.out <- batchOutcome{err: err}
	}
}

// distributeBatch hands each member its row view of the stacked result.
// The backing store returns to the pool when the last member releases.
func distributeBatch(members []*batchMember, cstack *tensor.Matrix, m int, pool *tensor.Pool) {
	refs := new(atomic.Int32)
	refs.Store(int32(len(members)))
	release := func() {
		if refs.Add(-1) == 0 {
			pool.Put(cstack)
		}
	}
	for j, mem := range members {
		mem.out <- batchOutcome{ci: cstack.SliceRows(j*m, (j+1)*m), release: release}
	}
}

// ---- leader (party 0) ----

// pendingBatch is one shape's forming batch on the leader.
type pendingBatch struct {
	shape      batchShape
	created    time.Time
	members    []*batchMember
	ids        map[uint64]struct{}
	timer      *time.Timer
	dispatched bool
}

type batchLeader struct {
	cfg   BatchConfig
	mux   *comm.Mux
	ctl   *comm.MuxSession
	pool  *tensor.Pool
	codec *WireCodec

	mu      sync.Mutex
	closed  bool
	pending map[batchShape]*pendingBatch
	acks    map[uint64]chan batchAck

	closeOnce sync.Once
	done      chan struct{}
}

func (l *batchLeader) window(s batchShape) time.Duration {
	if p := l.cfg.Planner; p != nil {
		return p.Plan(s.m, s.k, s.n, s.m).window
	}
	return l.cfg.Window
}

func (l *batchLeader) stackBand(s batchShape, stackRows int) int {
	if p := l.cfg.Planner; p != nil {
		return p.Plan(s.m, s.k, s.n, stackRows).stackBand
	}
	return 0 // whole stack: one E frame, minimal fixed cost
}

func (l *batchLeader) do(id uint64, in Shares) (*tensor.Matrix, func(), bool, error) {
	shape, ok := shapeOf(in)
	if !ok {
		return nil, nil, false, nil
	}
	if p := l.cfg.Planner; p != nil {
		p.Observe(shape.m, shape.k, shape.n, time.Now())
	}
	mem := &batchMember{id: id, in: in, shape: shape, out: make(chan batchOutcome, 1)}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil, nil, false, nil
	}
	pb := l.pending[shape]
	if pb != nil {
		if _, dup := pb.ids[id]; dup {
			// Two in-flight requests under one id cannot share a batch —
			// the ack and the result distribution key by id.
			l.mu.Unlock()
			return nil, nil, false, nil
		}
		pb.members = append(pb.members, mem)
		pb.ids[id] = struct{}{}
		full := len(pb.members) >= l.cfg.MaxBatch || len(pb.members)*shape.m >= l.cfg.MaxRows
		l.mu.Unlock()
		if full {
			l.dispatch(shape, pb)
		}
	} else {
		pb = &pendingBatch{
			shape:   shape,
			created: time.Now(),
			members: []*batchMember{mem},
			ids:     map[uint64]struct{}{id: {}},
		}
		// The leader batches EVERY request while batching is on — a window
		// of 0 just dispatches a singleton immediately. The follower's half
		// of any request therefore always sees a proposal promptly; it
		// never has to guess whether the leader is collecting.
		if window := l.window(shape); window > 0 {
			l.pending[shape] = pb
			pb.timer = time.AfterFunc(window, func() { l.dispatch(shape, pb) })
			l.mu.Unlock()
		} else {
			l.mu.Unlock()
			l.dispatch(shape, pb)
		}
	}
	out := <-mem.out
	if out.fallback {
		return nil, nil, false, nil
	}
	return out.ci, out.release, true, out.err
}

// dispatch seals pb (idempotent: the window timer and the full-batch check
// race benignly) and runs its exchange on a fresh goroutine.
func (l *batchLeader) dispatch(shape batchShape, pb *pendingBatch) {
	l.mu.Lock()
	if pb.dispatched {
		l.mu.Unlock()
		return
	}
	pb.dispatched = true
	if l.pending[shape] == pb {
		delete(l.pending, shape)
	}
	l.mu.Unlock()
	if pb.timer != nil {
		pb.timer.Stop()
	}
	metrics.batchWait.ObserveSince(pb.created)
	go l.run(pb)
}

// ackWait bounds the leader's wait for the follower's ack: the follower
// may hold the proposal for JoinWait collecting stragglers, plus slack for
// the control round trip.
func (l *batchLeader) ackWait() time.Duration { return l.cfg.JoinWait + 2*time.Second }

func (l *batchLeader) run(pb *pendingBatch) {
	members := pb.members
	metrics.batches.Inc()
	metrics.batchRequests.Add(uint64(len(members)))

	batchID := newRequestID()
	ackCh := make(chan batchAck, 1)
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		fallbackAll(members)
		return
	}
	l.acks[batchID] = ackCh
	l.mu.Unlock()
	defer func() {
		l.mu.Lock()
		delete(l.acks, batchID)
		l.mu.Unlock()
	}()

	ids := make([]uint64, len(members))
	for i, mem := range members {
		ids[i] = mem.id
	}
	prop := batchProposal{id: batchID, shape: pb.shape, stackBand: l.stackBand(pb.shape, len(members)*pb.shape.m), ids: ids}
	if err := l.ctl.WriteFrame(appendProposal(nil, prop)); err != nil {
		fallbackAll(members)
		return
	}

	var ack batchAck
	timer := time.NewTimer(l.ackWait())
	defer timer.Stop()
	select {
	case ack = <-ackCh:
	case <-timer.C:
		fallbackAll(members)
		return
	case <-l.done:
		fallbackAll(members)
		return
	}

	acked := make(map[uint64]struct{}, len(ack.ids))
	for _, id := range ack.ids {
		acked[id] = struct{}{}
	}
	accepted := make([]*batchMember, 0, len(members))
	for _, mem := range members {
		if _, ok := acked[mem.id]; ok {
			accepted = append(accepted, mem)
		} else {
			// The follower never saw this member's half: it runs on the
			// ordinary per-request path on both sides.
			metrics.batchDropped.Inc()
			fallbackMember(mem)
		}
	}
	if len(accepted) == 0 {
		return
	}

	sess, err := l.mux.Open(batchID)
	if err != nil {
		errAll(accepted, fmt.Errorf("mpc: batch %016x: %w", batchID, err))
		return
	}
	start := time.Now()
	cstack, err := batchExec(0, sess, pb.shape, accepted, prop.stackBand, l.pool, l.codec)
	metrics.batchExec.ObserveSince(start)
	if err != nil {
		sess.Abort()
		errAll(accepted, fmt.Errorf("mpc: batch %016x: %w", batchID, err))
		return
	}
	sess.Close()
	distributeBatch(accepted, cstack, pb.shape.m, l.pool)
}

// ackLoop owns the control session's read side on the leader.
func (l *batchLeader) ackLoop() {
	var buf []byte
	for {
		frame, err := readFrameInto(l.ctl, buf)
		if err != nil {
			if comm.IsTimeout(err) {
				continue // idle control session; keep listening
			}
			return // mux dead or batcher closed
		}
		buf = frame
		ack, err := parseAck(frame)
		if err != nil {
			continue
		}
		l.mu.Lock()
		ch := l.acks[ack.id]
		delete(l.acks, ack.id)
		l.mu.Unlock()
		if ch != nil {
			ch <- ack
		}
	}
}

func (l *batchLeader) close() {
	l.closeOnce.Do(func() {
		l.mu.Lock()
		l.closed = true
		pend := l.pending
		l.pending = map[batchShape]*pendingBatch{}
		l.mu.Unlock()
		close(l.done)
		l.ctl.Close()
		for _, pb := range pend {
			if pb.timer != nil {
				pb.timer.Stop()
			}
			l.mu.Lock()
			already := pb.dispatched
			pb.dispatched = true
			l.mu.Unlock()
			if !already {
				fallbackAll(pb.members)
			}
		}
	})
}

// ---- follower (party 1) ----

// droppedRing bounds how many proposed-but-missed ids the follower
// remembers; a remembered id's late arrival skips the batch wait entirely.
const droppedRing = 1024

type batchFollower struct {
	cfg          BatchConfig
	mux          *comm.Mux
	ctl          *comm.MuxSession
	pool         *tensor.Pool
	codec        *WireCodec
	proposalWait time.Duration

	mu       sync.Mutex
	closed   bool
	waiting  map[uint64]*batchMember      // parked in do(), awaiting a proposal
	expect   map[uint64]chan *batchMember // proposals awaiting a straggler id
	dropped  map[uint64]struct{}          // proposed ids we never received
	dropRing [droppedRing]uint64
	dropNext int
	dropFull bool

	closeOnce sync.Once
	done      chan struct{}
}

// addDroppedLocked remembers id as dropped from a batch (caller holds mu).
func (f *batchFollower) addDroppedLocked(id uint64) {
	if _, ok := f.dropped[id]; ok {
		return
	}
	if f.dropFull {
		delete(f.dropped, f.dropRing[f.dropNext])
	}
	f.dropRing[f.dropNext] = id
	f.dropped[id] = struct{}{}
	f.dropNext++
	if f.dropNext == droppedRing {
		f.dropNext = 0
		f.dropFull = true
	}
}

func (f *batchFollower) do(id uint64, in Shares) (*tensor.Matrix, func(), bool, error) {
	shape, ok := shapeOf(in)
	if !ok {
		return nil, nil, false, nil
	}
	mem := &batchMember{id: id, in: in, shape: shape, out: make(chan batchOutcome, 1)}
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil, nil, false, nil
	}
	if _, drop := f.dropped[id]; drop {
		// The leader already gave up on this member and fell back; match it.
		delete(f.dropped, id)
		f.mu.Unlock()
		metrics.batchFallbacks.Inc()
		return nil, nil, false, nil
	}
	if ch, ok := f.expect[id]; ok {
		// A proposal is already waiting for exactly this request.
		delete(f.expect, id)
		f.mu.Unlock()
		ch <- mem
		return f.await(mem)
	}
	f.waiting[id] = mem
	f.mu.Unlock()

	timer := time.NewTimer(f.proposalWait)
	defer timer.Stop()
	select {
	case out := <-mem.out:
		return f.resolve(out)
	case <-timer.C:
	case <-f.done:
	}
	f.mu.Lock()
	if _, still := f.waiting[id]; still {
		// No proposal claimed us in time (the leader may not be batching,
		// or its half never arrived): withdraw to the individual path.
		delete(f.waiting, id)
		f.mu.Unlock()
		metrics.batchFallbacks.Inc()
		return nil, nil, false, nil
	}
	f.mu.Unlock()
	// A batch claimed us just as the timer fired; its outcome is guaranteed.
	return f.await(mem)
}

// await blocks for a claimed member's outcome (delivery is guaranteed once
// a batch has claimed the member, on every batch exit path).
func (f *batchFollower) await(mem *batchMember) (*tensor.Matrix, func(), bool, error) {
	return f.resolve(<-mem.out)
}

func (f *batchFollower) resolve(out batchOutcome) (*tensor.Matrix, func(), bool, error) {
	if out.fallback {
		return nil, nil, false, nil
	}
	return out.ci, out.release, true, out.err
}

// proposalLoop owns the control session's read side on the follower.
func (f *batchFollower) proposalLoop() {
	var buf []byte
	for {
		frame, err := readFrameInto(f.ctl, buf)
		if err != nil {
			if comm.IsTimeout(err) {
				continue
			}
			return
		}
		buf = frame
		prop, err := parseProposal(frame)
		if err != nil {
			continue
		}
		go f.runBatch(prop)
	}
}

// runBatch claims the proposed members from the follower's own arrivals,
// acks the subset it holds, and executes the batch. Every member claimed
// here receives exactly one outcome on every exit path.
func (f *batchFollower) runBatch(prop batchProposal) {
	deadline := time.NewTimer(f.cfg.JoinWait)
	defer deadline.Stop()
	expired := false
	members := make([]*batchMember, 0, len(prop.ids))
	ackIDs := make([]uint64, 0, len(prop.ids))
	for _, id := range prop.ids {
		var mem *batchMember
		f.mu.Lock()
		if f.closed {
			f.mu.Unlock()
			break
		}
		if w, ok := f.waiting[id]; ok {
			delete(f.waiting, id)
			f.mu.Unlock()
			mem = w
		} else if expired {
			f.addDroppedLocked(id)
			f.mu.Unlock()
			continue
		} else {
			// Not here yet — its upload may still be in flight. Hold the
			// batch for it under the shared JoinWait budget.
			ch := make(chan *batchMember, 1)
			f.expect[id] = ch
			f.mu.Unlock()
			select {
			case mem = <-ch:
			case <-deadline.C:
				expired = true
			case <-f.done:
				expired = true
			}
			if mem == nil {
				f.mu.Lock()
				if _, still := f.expect[id]; still {
					delete(f.expect, id)
					f.addDroppedLocked(id)
					f.mu.Unlock()
					continue
				}
				f.mu.Unlock()
				// do() claimed the channel in the same instant the timer
				// fired; its send is imminent.
				mem = <-ch
			}
		}
		if mem.shape != prop.shape {
			// The client sent different geometry to the two parties; no
			// batch can hold it. Individual path on both sides (the leader
			// sees the missing ack entry).
			fallbackMember(mem)
			continue
		}
		members = append(members, mem)
		ackIDs = append(ackIDs, id)
	}

	// Always ack, even an empty set: the leader converts the missing
	// members to fallbacks instead of waiting out its ack timeout.
	if err := f.ctl.WriteFrame(appendAck(nil, batchAck{id: prop.id, ids: ackIDs})); err != nil {
		fallbackAll(members)
		return
	}
	if len(members) == 0 {
		return
	}
	metrics.batches.Inc()
	metrics.batchRequests.Add(uint64(len(members)))

	sess, err := f.mux.Open(prop.id)
	if err != nil {
		errAll(members, fmt.Errorf("mpc: batch %016x: %w", prop.id, err))
		return
	}
	start := time.Now()
	cstack, err := batchExec(1, sess, prop.shape, members, prop.stackBand, f.pool, f.codec)
	metrics.batchExec.ObserveSince(start)
	if err != nil {
		sess.Abort()
		errAll(members, fmt.Errorf("mpc: batch %016x: %w", prop.id, err))
		return
	}
	sess.Close()
	distributeBatch(members, cstack, prop.shape.m, f.pool)
}

func (f *batchFollower) close() {
	f.closeOnce.Do(func() {
		f.mu.Lock()
		f.closed = true
		f.mu.Unlock()
		close(f.done)
		f.ctl.Close()
		// Members parked in do() observe f.done and withdraw themselves;
		// members claimed by in-flight batches get their outcome from the
		// batch goroutine, whose mux reads are deadline-bounded.
	})
}

// ---- stacked execution ----

// sendStacked streams this party's half of a batch exchange: the stacked F
// share as one head frame (encoded under fKind), then the stacked E share
// in bands (encoded under eKind; locally dense CSR bands fall back to raw
// per band). Returns the total bytes shipped for the codec's bandwidth
// feedback.
func sendStacked(conn comm.Framer, fstack, estack *tensor.Matrix, band int, fKind, eKind wireCodecKind) (int, error) {
	var view tensor.Matrix
	sent := 0
	buf := appendWireTensor(nil, fstack, fKind)
	sent += len(buf)
	if err := conn.WriteFrame(buf); err != nil {
		return sent, err
	}
	for lo := 0; lo < estack.Rows; lo += band {
		hi := min(lo+band, estack.Rows)
		buf = appendWireTensor(buf[:0], estack.SliceRowsInto(&view, lo, hi), eKind)
		sent += len(buf)
		if err := conn.WriteFrame(buf); err != nil {
			return sent, err
		}
	}
	return sent, nil
}

// batchExec runs this party's side of one batched exchange over sess: B
// members of identical m×k × k×n geometry, row-stacked. The wire protocol
// is the pipelined exchange's, applied to the stacks: one (B·k)×n F frame,
// then the (B·m)×k E stack in bands of stackBand rows, full duplex. It
// mirrors wireMul.mul op for op — in-place E/F reconstruction, party 0's
// A rows used directly as D, band heights read from the peer's frame
// headers — and each member's rows run exactly the per-session op
// sequence (Eqs. 4, 5, 8) —
// every dst row of the fused GEMM accumulates independently, so the
// result is bit-identical to B individual exchanges (under codec, to B
// individual exchanges with the same picks: FP16 rounding is elementwise
// and the retained stack is rounded in place before use, like wireMul).
// Returns the pooled (B·m)×n stacked result; the caller distributes row
// views and releases.
func batchExec(party int, sess *comm.MuxSession, shape batchShape, members []*batchMember, stackBand int, pool *tensor.Pool, codec *WireCodec) (*tensor.Matrix, error) {
	m, k, n := shape.m, shape.k, shape.n
	B := len(members)
	stackRows := B * m
	if stackBand <= 0 || stackBand > stackRows {
		stackBand = stackRows
	}

	// Local stacked shares (Eq. 4): E = A − U, F = B − V, member by member.
	estack := pool.Get(stackRows, k)
	fstack := pool.Get(B*k, n)
	var jView tensor.Matrix
	for j, mem := range members {
		tensor.Sub(estack.SliceRowsInto(&jView, j*m, (j+1)*m), mem.in.A, mem.in.T.U)
	}
	for j, mem := range members {
		tensor.Sub(fstack.SliceRowsInto(&jView, j*k, (j+1)*k), mem.in.B, mem.in.T.V)
	}
	eKind, fKind := codecRaw, codecRaw
	if codec != nil {
		eKind = codec.pick(estack, tensorE)
		if eKind == codecFP16 {
			tensor.RoundMatrixFloat16InPlace(estack)
		}
		fKind = codec.pick(fstack, tensorF)
		if fKind == codecFP16 {
			tensor.RoundMatrixFloat16InPlace(fstack)
		}
	}

	sendDone := make(chan error, 1)
	sentBytes := make(chan int, 1)
	go func() {
		sent, err := sendStacked(sess, fstack, estack, stackBand, fKind, eKind)
		sentBytes <- sent
		sendDone <- err
	}()
	drained := false
	defer func() {
		if !drained {
			// The reader failed first: kill the session so the sender's
			// writes unblock before its buffers go back to the pool.
			sess.Abort()
			<-sendDone
		}
		pool.Put(estack)
		pool.Put(fstack)
	}()

	var exchDur, reconDur, gemmDur time.Duration
	var recvBuf []byte

	// Public stacked F (Eq. 5), reconstructed in place into the decoded
	// peer share.
	t0 := time.Now()
	frame, err := readFrameInto(sess, recvBuf)
	exchDur += time.Since(t0)
	if err != nil {
		return nil, fmt.Errorf("mpc: batch recv F: %w", err)
	}
	recvBuf = frame
	fpub := pool.Get(B*k, n)
	defer pool.Put(fpub)
	if _, err := tensor.DecodeAnyInto(fpub, frame); err != nil {
		return nil, fmt.Errorf("mpc: batch decode F: %w", err)
	}
	t0 = time.Now()
	tensor.Add(fpub, fstack, fpub)
	reconDur += time.Since(t0)

	cstack := pool.Get(stackRows, n)
	ok := false
	defer func() {
		if !ok {
			pool.Put(cstack)
		}
	}()

	// Band heights come from the peer's frame headers, as in wireMul.mul.
	var peerBand, dBuf *tensor.Matrix
	defer func() {
		pool.Put(peerBand)
		pool.Put(dBuf)
	}()

	var pbView, esView, eSlice, dSlice, aView, cView, fView, zView tensor.Matrix
	for lo, band := 0, 0; lo < stackRows; band++ {
		t0 := time.Now()
		frame, err := readFrameInto(sess, recvBuf)
		exchDur += time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("mpc: batch recv E band %d: %w", band, err)
		}
		recvBuf = frame
		rows, err := bandHeight(frame, stackRows-lo, k)
		if err != nil {
			return nil, fmt.Errorf("mpc: batch E band %d: %w", band, err)
		}
		if peerBand == nil || rows > peerBand.Rows {
			pool.Put(peerBand)
			peerBand = pool.Get(rows, k)
			if party == 1 {
				pool.Put(dBuf)
				dBuf = pool.Get(rows, k)
			}
		}
		hi := lo + rows
		eBand := peerBand.SliceRowsInto(&pbView, 0, rows)
		if _, err := tensor.DecodeAnyInto(eBand, frame); err != nil {
			return nil, fmt.Errorf("mpc: batch decode E band %d: %w", band, err)
		}
		// Reconstruct the stacked public E band in place, then fuse each
		// member's overlap with the per-session op sequence (Eqs. 5, 8).
		t0 = time.Now()
		tensor.Add(eBand, estack.SliceRowsInto(&esView, lo, hi), eBand)
		t1 := time.Now()
		reconDur += t1.Sub(t0)
		for j := lo / m; j < B && j*m < hi; j++ {
			ov0, ov1 := max(j*m, lo), min((j+1)*m, hi)
			if ov0 >= ov1 {
				continue
			}
			in := members[j].in
			lr0, lr1 := ov0-j*m, ov1-j*m
			eSl := eBand.SliceRowsInto(&eSlice, ov0-lo, ov1-lo)
			dSl := in.A.SliceRowsInto(&aView, lr0, lr1) // party 0: D = A_0
			if party == 1 {
				dSl = dBuf.SliceRowsInto(&dSlice, ov0-lo, ov1-lo)
				tensor.Sub(dSl, &aView, eSl) // D = A_1 − E
			}
			cSl := cstack.SliceRowsInto(&cView, ov0, ov1)
			fj := fpub.SliceRowsInto(&fView, j*k, (j+1)*k)
			tensor.Gemm(cSl, dSl, fj, 1, 0)                             // D×F
			tensor.Gemm(cSl, eSl, in.B, 1, 1)                           // += E×B_i
			tensor.AXPY(cSl, 1, in.T.Z.SliceRowsInto(&zView, lr0, lr1)) // += Z_i
		}
		gemmDur += time.Since(t1)
		lo = hi
	}
	t0 = time.Now()
	sendErr := <-sendDone
	drained = true
	exchDur += time.Since(t0)
	if sendErr != nil {
		return nil, fmt.Errorf("mpc: batch send E/F: %w", sendErr)
	}
	codec.ObserveLink(<-sentBytes, exchDur)
	metrics.phaseExchange.Observe(exchDur)
	metrics.phaseReconstruct.Observe(reconDur)
	metrics.phaseGemm.Observe(gemmDur)
	ok = true
	return cstack, nil
}

// ---- control frame codec ----

type batchProposal struct {
	id        uint64
	shape     batchShape
	stackBand int
	ids       []uint64
}

type batchAck struct {
	id  uint64
	ids []uint64
}

func appendProposal(buf []byte, p batchProposal) []byte {
	buf = append(buf, batchCtlVersion, batchKindPropose)
	buf = binary.LittleEndian.AppendUint64(buf, p.id)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(p.shape.m))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(p.shape.k))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(p.shape.n))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(p.stackBand))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(p.ids)))
	for _, id := range p.ids {
		buf = binary.LittleEndian.AppendUint64(buf, id)
	}
	return buf
}

func parseProposal(frame []byte) (batchProposal, error) {
	var p batchProposal
	if len(frame) < 30 || frame[0] != batchCtlVersion || frame[1] != batchKindPropose {
		return p, fmt.Errorf("mpc: bad batch proposal frame")
	}
	p.id = binary.LittleEndian.Uint64(frame[2:])
	p.shape.m = int(binary.LittleEndian.Uint32(frame[10:]))
	p.shape.k = int(binary.LittleEndian.Uint32(frame[14:]))
	p.shape.n = int(binary.LittleEndian.Uint32(frame[18:]))
	p.stackBand = int(binary.LittleEndian.Uint32(frame[22:]))
	count := int(binary.LittleEndian.Uint32(frame[26:]))
	if count > maxBatchCtlIDs || len(frame) != 30+8*count {
		return p, fmt.Errorf("mpc: batch proposal length mismatch")
	}
	p.ids = make([]uint64, count) // copy: the frame buffer is reused
	for i := range p.ids {
		p.ids[i] = binary.LittleEndian.Uint64(frame[30+8*i:])
	}
	return p, nil
}

func appendAck(buf []byte, a batchAck) []byte {
	buf = append(buf, batchCtlVersion, batchKindAck)
	buf = binary.LittleEndian.AppendUint64(buf, a.id)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(a.ids)))
	for _, id := range a.ids {
		buf = binary.LittleEndian.AppendUint64(buf, id)
	}
	return buf
}

func parseAck(frame []byte) (batchAck, error) {
	var a batchAck
	if len(frame) < 14 || frame[0] != batchCtlVersion || frame[1] != batchKindAck {
		return a, fmt.Errorf("mpc: bad batch ack frame")
	}
	a.id = binary.LittleEndian.Uint64(frame[2:])
	count := int(binary.LittleEndian.Uint32(frame[10:]))
	if count > maxBatchCtlIDs || len(frame) != 14+8*count {
		return a, fmt.Errorf("mpc: batch ack length mismatch")
	}
	a.ids = make([]uint64, count)
	for i := range a.ids {
		a.ids[i] = binary.LittleEndian.Uint64(frame[14+8*i:])
	}
	return a, nil
}
