package tripletpool

import (
	"fmt"
	"sync"
	"sync/atomic"

	"parsecureml/internal/comm"
	"parsecureml/internal/mpc"
	"parsecureml/internal/obs"
)

// DealerClient is a computation party's end of the dealer feed: an
// mpc.TripletFeed backed by one supervised connection to
// cmd/psml-dealer. It receives only THIS party's triplet halves — the
// share-separation invariant holds on the wire, not just in process
// memory. Credits (WANT frames) are issued lazily per shape, keeping
// Depth triplets of headroom beyond what has been consumed, so the
// dealer's generation follows observed demand instead of guessing
// shapes up front.
//
// The connection runs under comm.SupervisedLink with AllowPeerRestart:
// a dealer crash (or standby takeover) is an outage, not a failure.
// The client tracks a per-shape consumption floor (the lowest seq no
// session has consumed yet); when the link reconnects to a dealer with
// fresh state, every shape's stream is re-opened with a RESUME frame
// carrying that floor, and the deterministic
// (seed, shape, seq) streams make the resumed triplets bit-identical
// to the ones the dead dealer would have sent. Only exhausting the
// link's reconnect budget fails the feed permanently.
type DealerClient struct {
	party int
	depth int
	link  *comm.SupervisedLink
	mux   *comm.Mux
	ctl   *comm.MuxSession

	mu     sync.Mutex
	cond   *sync.Cond
	shapes map[shape]*feedShape
	err    error
}

// feedShape is one shape's slice of the feed: delivered-but-unconsumed
// triplets keyed by stream seq, the allocation and consumption cursors,
// and the credit high-water.
//
// Consumption is out of order: concurrent sessions Take announced seqs
// in whatever order their exchanges land. floor is the lowest seq not
// yet consumed and done records the holes above it, so floor — the
// stream position a RESUME re-opens from — never skips a seq some
// session still needs.
type feedShape struct {
	buf       map[uint64]mpc.TripletShares
	next      uint64              // next seq Next will allocate
	floor     uint64              // lowest seq not yet consumed
	done      map[uint64]struct{} // consumed seqs above floor (out-of-order holes)
	requested uint64              // credit high-water: seqs below this are covered
	resumed   bool                // RESUME sent on the current link incarnation
}

// consume marks seq consumed and slides floor over any contiguous run
// of done seqs. Caller holds c.mu.
func (fs *feedShape) consume(seq uint64) {
	if seq != fs.floor {
		fs.done[seq] = struct{}{}
		return
	}
	fs.floor++
	for {
		if _, ok := fs.done[fs.floor]; !ok {
			return
		}
		delete(fs.done, fs.floor)
		fs.floor++
	}
}

// FeedConfig tunes a DealerClient. The zero value selects the defaults.
type FeedConfig struct {
	// Depth is the per-shape credit headroom kept beyond consumption —
	// the feed-side analogue of Config.Depth. Default 8.
	Depth int
	// Supervisor tunes the underlying supervised link (reconnect budget,
	// heartbeat cadence). AllowPeerRestart is forced on — dealer
	// crash-resume is the point of this client.
	Supervisor comm.SupervisorConfig
}

// Feed accounting, exposed as psml_triplet_feed_* metrics.
var (
	feedReceived atomic.Int64
	feedBuffered atomic.Int64
	feedDups     atomic.Int64
	feedResumes  atomic.Int64
	feedWaits    = obs.Default.Histogram("psml_triplet_feed_wait_seconds", "Time requests block waiting for a dealer-fed triplet to arrive.")
)

func init() {
	obs.Default.FuncCounter("psml_triplet_feed_received_total", "Triplet share halves received from the dealer.", func() float64 {
		return float64(feedReceived.Load())
	})
	obs.Default.FuncGauge("psml_triplet_feed_buffered", "Dealer-fed triplet halves delivered but not yet consumed.", func() float64 {
		return float64(feedBuffered.Load())
	})
	obs.Default.FuncCounter("psml_triplet_feed_duplicates_total", "Duplicate or stale triplet deliveries dropped (resume overlap).", func() float64 {
		return float64(feedDups.Load())
	})
	obs.Default.FuncCounter("psml_dealer_resume_sent_total", "RESUME frames sent to the dealer (stream opens and post-restart re-opens).", func() float64 {
		return float64(feedResumes.Load())
	})
}

// NewDealerClient establishes party's feed under pairID. connect dials
// the dealer and is owned by the client for its lifetime: it is called
// for the initial connection and again after every link failure, so a
// restarted dealer is re-reached automatically (use a plain dial — the
// supervised link owns the retry/backoff policy). The hello frame is
// sent on each fresh connection before the link's resync handshake.
func NewDealerClient(connect func() (*comm.Conn, error), party int, pairID uint64, cfg FeedConfig) (*DealerClient, error) {
	if cfg.Depth <= 0 {
		cfg.Depth = 8
	}
	scfg := cfg.Supervisor
	scfg.AllowPeerRestart = true
	link, err := comm.NewSupervisedLink(func() (comm.Framer, error) {
		conn, err := connect()
		if err != nil {
			return nil, err
		}
		if err := conn.WriteFrame(encodeDealerHello(party, pairID)); err != nil {
			conn.Close()
			return nil, fmt.Errorf("tripletpool: dealer hello: %w", err)
		}
		return conn, nil
	}, scfg)
	if err != nil {
		return nil, err
	}
	mux := comm.NewMux(link, comm.MuxConfig{})
	ctl, err := mux.Open(dealerCtlID)
	if err != nil {
		mux.Close()
		return nil, err
	}
	feed, err := mux.Open(dealerFeedID)
	if err != nil {
		mux.Close()
		return nil, err
	}
	c := &DealerClient{
		party:  party,
		depth:  cfg.Depth,
		link:   link,
		mux:    mux,
		ctl:    ctl,
		shapes: make(map[shape]*feedShape),
	}
	c.cond = sync.NewCond(&c.mu)
	link.OnPeerReset(c.onPeerReset)
	go c.readLoop(feed)
	return c, nil
}

// Close tears the feed down; blocked Next/Take calls fail.
func (c *DealerClient) Close() {
	c.mux.Close()
	c.link.Close()
	c.failLocked(fmt.Errorf("tripletpool: dealer feed closed"))
}

func (c *DealerClient) failLocked(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	c.cond.Broadcast()
	c.mu.Unlock()
}

// onPeerReset runs on the supervisor goroutine after a resync that
// found a restarted dealer: every WANT in flight was shed with the old
// conversation, so mark every stream un-resumed and wake the waiters —
// each re-derives its credit through ensureCredit, which re-opens the
// stream with a RESUME from the earliest seq still needed.
func (c *DealerClient) onPeerReset() {
	c.mu.Lock()
	for _, fs := range c.shapes {
		fs.resumed = false
	}
	c.cond.Broadcast()
	c.mu.Unlock()
}

// readLoop dispatches FEED frames into per-shape buffers. A resumed
// stream re-delivers from the consumption floor, overlapping what the
// old dealer already handed out, so already-buffered and
// already-consumed seqs are dropped as duplicates.
func (c *DealerClient) readLoop(feed *comm.MuxSession) {
	for {
		f, err := feed.ReadFrame()
		if err != nil {
			c.failLocked(fmt.Errorf("tripletpool: dealer feed: %w", err))
			return
		}
		s, seq, t, err := decodeFeedFrame(f)
		if err != nil {
			c.failLocked(err)
			return
		}
		feedReceived.Add(1)
		c.mu.Lock()
		fs := c.shape(s)
		_, dup := fs.buf[seq]
		_, consumed := fs.done[seq]
		if dup || consumed || seq < fs.floor {
			feedDups.Add(1)
		} else {
			fs.buf[seq] = t
			feedBuffered.Add(1)
			c.cond.Broadcast()
		}
		c.mu.Unlock()
	}
}

// shape returns s's state, creating it. Caller holds c.mu.
func (c *DealerClient) shape(s shape) *feedShape {
	fs, ok := c.shapes[s]
	if !ok {
		fs = &feedShape{
			buf:  make(map[uint64]mpc.TripletShares),
			done: make(map[uint64]struct{}),
		}
		c.shapes[s] = fs
	}
	return fs
}

// ensureCredit tops the shape's outstanding credits up to cover seq
// `need` plus the configured headroom. On a stream the current link
// incarnation has not opened yet (first use, or after a dealer restart)
// it sends a RESUME carrying the consume cursor instead of a plain
// WANT. Caller holds c.mu; the writes happen without dropping it (mux
// writes only enqueue, and the supervised link buffers while down).
func (c *DealerClient) ensureCredit(s shape, fs *feedShape, need uint64) error {
	target := need + 1 + uint64(c.depth)
	if !fs.resumed {
		from := fs.floor
		if target < fs.requested {
			// Keep the pre-restart high-water: other waiters' seqs up to it
			// are covered by this one RESUME instead of one WANT each.
			target = fs.requested
		}
		if target < from {
			target = from
		}
		if err := c.ctl.WriteFrame(encodeResume(s, from, int(target-from))); err != nil {
			return fmt.Errorf("tripletpool: dealer RESUME: %w", err)
		}
		feedResumes.Add(1)
		fs.resumed = true
		fs.requested = target
		return nil
	}
	if fs.requested >= target {
		return nil
	}
	grant := target - fs.requested
	if err := c.ctl.WriteFrame(encodeWant(s, int(grant))); err != nil {
		return fmt.Errorf("tripletpool: dealer WANT: %w", err)
	}
	fs.requested = target
	return nil
}

// Next implements mpc.TripletFeed: pop this party's share of the next
// unconsumed triplet in s's stream, waiting for the dealer if none has
// arrived yet.
func (c *DealerClient) Next(m, k, n int) (uint64, mpc.TripletShares, error) {
	s := shape{M: m, K: k, N: n}
	span := feedWaits.Start()
	defer span.Stop()
	c.mu.Lock()
	defer c.mu.Unlock()
	fs := c.shape(s)
	seq := fs.next
	fs.next++
	t, err := c.waitLocked(s, fs, seq)
	return seq, t, err
}

// Take implements mpc.TripletFeed: the share of triplet seq of s's
// stream, waiting for delivery. A seq this party has already consumed
// fails with a *seqReusedError instead of waiting for a delivery that
// readLoop would drop as a duplicate: the peer announced a triplet twice.
func (c *DealerClient) Take(m, k, n int, seq uint64) (mpc.TripletShares, error) {
	s := shape{M: m, K: k, N: n}
	span := feedWaits.Start()
	defer span.Stop()
	c.mu.Lock()
	defer c.mu.Unlock()
	fs := c.shape(s)
	if seq >= fs.next {
		fs.next = seq + 1
	}
	return c.waitLocked(s, fs, seq)
}

// seqReusedError reports a request for a triplet this party has already
// consumed — a second use of one Beaver triplet, which would leak the
// inputs it masks, so it fails the request instead of blocking it.
type seqReusedError struct {
	shape shape
	seq   uint64
}

func (e *seqReusedError) Error() string {
	return fmt.Sprintf("tripletpool: triplet %d of shape %dx%dx%d already consumed", e.seq, e.shape.M, e.shape.K, e.shape.N)
}

// waitLocked blocks until triplet seq of shape s arrives (issuing
// credits to cover it) and pops it. An unconsumed seq pins the shape's
// consumption floor at or below it, so a dealer restart mid-wait
// re-delivers exactly this seq via the RESUME. A seq already consumed
// fails with a *seqReusedError; a feed failure is recorded in c.err and
// returned.
func (c *DealerClient) waitLocked(s shape, fs *feedShape, seq uint64) (mpc.TripletShares, error) {
	for {
		if c.err != nil {
			return mpc.TripletShares{}, c.err
		}
		if _, done := fs.done[seq]; done || seq < fs.floor {
			return mpc.TripletShares{}, &seqReusedError{shape: s, seq: seq}
		}
		if err := c.ensureCredit(s, fs, seq); err != nil {
			c.err = err
			return mpc.TripletShares{}, err
		}
		if t, ok := fs.buf[seq]; ok {
			delete(fs.buf, seq)
			feedBuffered.Add(-1)
			fs.consume(seq)
			return t, nil
		}
		c.cond.Wait()
	}
}
