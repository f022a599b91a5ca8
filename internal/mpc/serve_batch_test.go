package mpc

import (
	"net"
	"sync"
	"testing"
	"time"

	"parsecureml/internal/comm"
	"parsecureml/internal/rng"
	"parsecureml/internal/tensor"
)

// batchJob is one client's inputs plus its reference ground truth.
type batchJob struct {
	in0, in1 Shares
	want     *tensor.Matrix
}

// makeBatchJobs builds `clients` independent requests of one shared
// geometry, each with its reference product.
func makeBatchJobs(t *testing.T, p *rng.Pool, clients, m, k, n int) []batchJob {
	t.Helper()
	jobs := make([]batchJob, clients)
	for i := range jobs {
		a := p.NewUniform(m, k, -1, 1)
		b := p.NewUniform(k, n, -1, 1)
		t0, t1 := GenGemmTripletShares(p, m, k, n)
		a0, a1 := SplitRand(p, a)
		b0, b1 := SplitRand(p, b)
		jobs[i] = batchJob{in0: Shares{A: a0, B: b0, T: t0}, in1: Shares{A: a1, B: b1, T: t1}}
		jobs[i].want = referenceProduct(t, jobs[i].in0, jobs[i].in1)
	}
	return jobs
}

// TestBatchedBitIdentical is the tentpole's correctness drill: B clients
// of identical geometry fired concurrently through the batching scheduler
// produce results byte-identical to their own reference products, and the
// batch counters show the requests actually travelled the stacked path.
func TestBatchedBitIdentical(t *testing.T) {
	const clients = 6
	p := rng.NewPool(777)
	jobs := makeBatchJobs(t, p, clients, 24, 16, 20)

	batchesBefore := metrics.batches.Value()
	reqsBefore := metrics.batchRequests.Value()

	addr0, addr1, shutdown := startServePair(t, ServeConfig{
		ClientTimeout: 10 * time.Second,
		PeerTimeout:   10 * time.Second,
		MaxSessions:   clients,
		Batch: &BatchConfig{
			Window:   50 * time.Millisecond, // wide: collect all concurrent clients
			MaxBatch: clients,
			JoinWait: 2 * time.Second,
		},
	})
	defer shutdown()

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := range jobs {
		wg.Add(1)
		go func(j batchJob) {
			defer wg.Done()
			c0, c1 := dialPair(t, addr0, addr1)
			defer c0.Close()
			defer c1.Close()
			got, err := RequestMul(c0, c1, j.in0, j.in1)
			if err != nil {
				errs <- err
				return
			}
			if !got.Equal(j.want) {
				t.Errorf("batched result differs from the reference by %v", got.MaxAbsDiff(j.want))
			}
		}(jobs[i])
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Both parties run in this process, so each counts its own side.
	if got := metrics.batchRequests.Value() - reqsBefore; got < clients {
		t.Errorf("psml_batch_requests_total moved by %d, want >= %d (requests bypassed the batch path)", got, clients)
	}
	if metrics.batches.Value() == batchesBefore {
		t.Error("psml_batch_batches_total did not move")
	}
}

// TestBatchedMixedShapes checks the per-shape collectors keep distinct
// geometries apart while batching within each: two shape groups fired
// together, every result exact.
func TestBatchedMixedShapes(t *testing.T) {
	p := rng.NewPool(778)
	jobsA := makeBatchJobs(t, p, 3, 24, 16, 20)
	jobsB := makeBatchJobs(t, p, 3, 10, 8, 6)
	jobs := append(append([]batchJob{}, jobsA...), jobsB...)

	addr0, addr1, shutdown := startServePair(t, ServeConfig{
		ClientTimeout: 10 * time.Second,
		PeerTimeout:   10 * time.Second,
		MaxSessions:   len(jobs),
		Batch: &BatchConfig{
			Window:   50 * time.Millisecond,
			JoinWait: 2 * time.Second,
		},
	})
	defer shutdown()

	var wg sync.WaitGroup
	errs := make(chan error, len(jobs))
	for i := range jobs {
		wg.Add(1)
		go func(j batchJob) {
			defer wg.Done()
			c0, c1 := dialPair(t, addr0, addr1)
			defer c0.Close()
			defer c1.Close()
			got, err := RequestMul(c0, c1, j.in0, j.in1)
			if err != nil {
				errs <- err
				return
			}
			if !got.Equal(j.want) {
				t.Errorf("mixed-shape batched result differs by %v", got.MaxAbsDiff(j.want))
			}
		}(jobs[i])
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestBatchedSurvivesClientKill kills one client's party-1 connection
// before its upload gets through, so the leader proposes a member the
// follower never receives: the follower must drop exactly that member and
// the survivors' batched results must stay bit-identical, while the dead
// client's request fails instead of wedging anyone.
func TestBatchedSurvivesClientKill(t *testing.T) {
	const clients = 5 // index clients-1 is the victim
	p := rng.NewPool(779)
	jobs := makeBatchJobs(t, p, clients, 24, 16, 20)

	droppedBefore := metrics.batchDropped.Value()

	addr0, addr1, shutdown := startServePair(t, ServeConfig{
		ClientTimeout: 10 * time.Second,
		PeerTimeout:   2 * time.Second,
		MaxSessions:   clients,
		Batch: &BatchConfig{
			Window:   100 * time.Millisecond,
			MaxBatch: clients,
			JoinWait: 300 * time.Millisecond,
		},
	})
	defer shutdown()

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := range jobs {
		wg.Add(1)
		go func(i int, j batchJob) {
			defer wg.Done()
			victim := i == clients-1
			c0, err := comm.DialRetry(addr0, comm.RetryConfig{Attempts: 10, BaseDelay: 10 * time.Millisecond})
			if err != nil {
				errs <- err
				return
			}
			defer c0.Close()
			var c1 *comm.Conn
			if victim {
				// The party-1 link dies before the first frame leaves: the
				// upload reaches party 0 only.
				raw, err := net.Dial("tcp", addr1)
				if err != nil {
					errs <- err
					return
				}
				fc := comm.NewFaultConn(raw)
				fc.DropAfterFrames(0)
				c1 = comm.Wrap(fc)
			} else {
				c1, err = comm.DialRetry(addr1, comm.RetryConfig{Attempts: 10, BaseDelay: 10 * time.Millisecond})
				if err != nil {
					errs <- err
					return
				}
			}
			defer c1.Close()
			c0.SetTimeouts(20*time.Second, 20*time.Second)
			c1.SetTimeouts(20*time.Second, 20*time.Second)
			got, err := RequestMul(c0, c1, j.in0, j.in1)
			if victim {
				if err == nil {
					t.Error("killed client's request succeeded, want error")
				}
				return
			}
			if err != nil {
				errs <- err
				return
			}
			if !got.Equal(j.want) {
				t.Errorf("survivor result differs from the reference by %v", got.MaxAbsDiff(j.want))
			}
		}(i, jobs[i])
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// The victim's half reached the leader, so the leader proposed it and
	// the follower must have dropped it (whether it shared the survivors'
	// batch or got its own proposal).
	if metrics.batchDropped.Value() == droppedBefore {
		t.Error("psml_batch_dropped_members_total did not move")
	}
}

// TestBatchCtlCodecRoundTrip pins the control frame format both parties
// must agree on, and that hostile frames fail cleanly.
func TestBatchCtlCodecRoundTrip(t *testing.T) {
	prop := batchProposal{
		id:        0xdeadbeefcafef00d,
		shape:     batchShape{m: 24, k: 16, n: 20},
		stackBand: 48,
		ids:       []uint64{1, 2, 3},
	}
	got, err := parseProposal(appendProposal(nil, prop))
	if err != nil {
		t.Fatal(err)
	}
	if got.id != prop.id || got.shape != prop.shape || got.stackBand != prop.stackBand || len(got.ids) != 3 || got.ids[2] != 3 {
		t.Fatalf("proposal round trip: %+v", got)
	}

	ack := batchAck{id: 7, ids: []uint64{2, 3}}
	gotAck, err := parseAck(appendAck(nil, ack))
	if err != nil {
		t.Fatal(err)
	}
	if gotAck.id != 7 || len(gotAck.ids) != 2 || gotAck.ids[0] != 2 {
		t.Fatalf("ack round trip: %+v", gotAck)
	}

	for _, bad := range [][]byte{
		nil,
		{batchCtlVersion},
		appendProposal(nil, prop)[:20],            // truncated
		append(appendAck(nil, ack), 0xff),         // trailing garbage
		{9, batchKindPropose, 0, 0, 0, 0, 0, 0},   // wrong version
		{batchCtlVersion, 7, 0, 0, 0, 0, 0, 0, 0}, // unknown kind
	} {
		if _, err := parseProposal(bad); err == nil {
			t.Errorf("parseProposal accepted %x", bad)
		}
		if _, err := parseAck(bad); err == nil {
			t.Errorf("parseAck accepted %x", bad)
		}
	}
}
