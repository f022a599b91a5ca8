package main

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"parsecureml/internal/comm"
	"parsecureml/internal/ml"
	"parsecureml/internal/mpc"
	"parsecureml/internal/rng"
	"parsecureml/internal/tensor"
)

// Transformer geometry: one causal block, d_model 32, 4 heads, ff 48,
// over 16-token sequences (examples/transformer's defaults).
const (
	xfTokens = 16
	xfDModel = 32
	xfHeads  = 4
	xfFF     = 48
	xfSeqs   = 8 // distinct input sequences the sessions cycle through

	// DESIGN.md's wire tolerances: FP32 share noise alone stays within
	// xfRawTol; once the negotiated codec sends FP16 the ceiling is
	// xfFP16Tol.
	xfRawTol  = 0.02
	xfFP16Tol = 0.25
)

// xfServerFlags are the full stack examples/transformer serves with:
// pipelined framing, adaptive codecs and planner-driven batching.
var xfServerFlags = append(append([]string(nil), drillServerFlags...),
	"-wire-pipeline", "-wire-codec", "auto", "-planner")

// xfClient runs one causal sequence per op through mpc.WireTransformer:
// 14 client-dealt (five-matrix) requests, softmax on the client.
type xfClient struct {
	blk   *ml.TransformerBlock
	seqs  []*tensor.Matrix
	wants []*tensor.Matrix
	wts   []*mpc.WireTransformer // per session
	// rawViolations counts ops within the FP16 ceiling but beyond the
	// raw tolerance; they fail if no tensor was sent compressed.
	rawViolations atomic.Int64
}

func runXFBatched(o *options) (*report, error) {
	r := rng.NewRand(o.seed)
	c := &xfClient{blk: ml.NewTransformerBlock(xfDModel, xfHeads, xfFF, ml.ReLU, true, r)}
	for i := 0; i < xfSeqs; i++ {
		x := tensor.New(xfTokens, xfDModel)
		for j := range x.Data {
			x.Data[j] = r.Float32() - 0.5
		}
		c.seqs = append(c.seqs, x)
		c.wants = append(c.wants, c.blk.Forward(x))
	}
	spec := &servingSpec{
		serverFlags: xfServerFlags,
		sessions:    runtime.NumCPU(),
		tailPct:     99,
		client:      c,
	}
	for s := 0; s < spec.sessions; s++ {
		c.wts = append(c.wts, mpc.NewWireTransformer(c.blk, o.seed*1000003+uint64(s)+1))
	}
	return runServing(o, spec)
}

func (c *xfClient) op(s int, seq uint64, f0, f1 comm.Framer, tr *opTrace) error {
	i := (seq &^ corruptBit) % uint64(len(c.seqs))
	got, err := c.wts[s].Infer(f0, f1, c.seqs[i])
	if err != nil {
		return err
	}
	if seq&corruptBit != 0 {
		got.Data[0] += 1
	}
	diff := got.MaxAbsDiff(c.wants[i])
	if !(diff <= xfFP16Tol) {
		return fmt.Errorf("output off ml.TransformerBlock.Forward by %g: %w", diff, errWrong)
	}
	if diff > xfRawTol {
		c.rawViolations.Add(1)
	}
	return nil
}

// finish fails the ops beyond the raw tolerance when the servers never
// sent a compressed tensor, since only FP16 earns the wider ceiling.
func (c *xfClient) finish(d snap) (int, []string) {
	v := int(c.rawViolations.Load())
	if v == 0 || codecNonRaw(d) > 0 {
		return 0, nil
	}
	return v, []string{fmt.Sprintf("%d ops beyond the raw tolerance %g with no compressed tensor sent", v, xfRawTol)}
}

// splitPerOp covers what the spans cannot see inside WireTransformer:
// triplet generation comes from this process's own
// psml_phase_seconds{phase="triplet_gen"} histogram, the A/B share
// splits from a probe of mpc.SplitRand at the op's 14 input shapes.
func (c *xfClient) splitPerOp(d snap, ops int) time.Duration {
	if ops == 0 {
		return 0
	}
	trip := time.Duration(d[`client:psml_phase_seconds_sum{phase="triplet_gen"}`] * float64(time.Second) / float64(ops))
	return trip + c.splitProbe()
}

// xfShapes lists the (m, k, n) of the 14 multiplications of one op.
func xfShapes() [][3]int {
	dh := xfDModel / xfHeads
	var s [][3]int
	for i := 0; i < 3; i++ { // Q, K, V projections
		s = append(s, [3]int{xfTokens, xfDModel, xfDModel})
	}
	for h := 0; h < xfHeads; h++ {
		s = append(s, [3]int{xfTokens, dh, xfTokens}, [3]int{xfTokens, xfTokens, dh})
	}
	s = append(s, [3]int{xfTokens, xfDModel, xfDModel}) // output projection
	s = append(s, [3]int{xfTokens, xfDModel, xfFF}, [3]int{xfTokens, xfFF, xfDModel})
	return s
}

// splitProbe times mpc.SplitRand over the A and B inputs of one op.
func (c *xfClient) splitProbe() time.Duration {
	pool := rng.NewPool(99)
	var ins []*tensor.Matrix
	for _, sh := range xfShapes() {
		ins = append(ins, tensor.New(sh[0], sh[1]), tensor.New(sh[1], sh[2]))
	}
	ns, _ := measure(probeTime, 10, func() {
		for _, m := range ins {
			mpc.SplitRand(pool, m)
		}
	})
	return time.Duration(ns)
}

func (c *xfClient) requestFrame() []byte {
	pool := rng.NewPool(1)
	x := c.seqs[0]
	a0, _ := mpc.SplitRand(pool, x)
	w0, _ := mpc.SplitRand(pool, c.blk.Att.Wq)
	t0, _ := mpc.GenGemmTripletShares(pool, xfTokens, xfDModel, xfDModel)
	return reqFrame(mpc.Shares{A: a0, B: w0, T: t0})
}
