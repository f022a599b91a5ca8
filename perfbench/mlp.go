package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"parsecureml/internal/comm"
	"parsecureml/internal/dataset"
	"parsecureml/internal/ml"
	"parsecureml/internal/mpc"
	"parsecureml/internal/rng"
	"parsecureml/internal/tensor"
)

// mlpBatch is one 64-sample input batch with its plaintext reference:
// the product of every layer and the network's output.
type mlpBatch struct {
	x     *tensor.Matrix
	prods [3]*tensor.Matrix
}

const (
	mlpBatchRows = 64
	mlpBatches   = 8 // distinct input batches the sessions cycle through
	mlpTol       = 1e-2
	// mlpSessions is one: with two sessions the five processes contend
	// for the 2-core reference host and the run-to-run spread of every
	// timing widens by half or more. The servers never batch dealer-fed
	// requests, so a second session would add no server-side work.
	mlpSessions = 1
)

// mlpInputs builds the paper's MLP (784→128→64→10) and its input batches
// from the seed, with the plaintext forward pass of each batch.
func mlpInputs(seed uint64) (*ml.Model, []mlpBatch, error) {
	model := ml.NewMLP(784, rng.NewRand(seed))
	x, _ := dataset.Classification(dataset.MNIST, mlpBatchRows*mlpBatches, seed)
	batches := make([]mlpBatch, mlpBatches)
	for i := range batches {
		b := &batches[i]
		b.x = x.SliceRows(i*mlpBatchRows, (i+1)*mlpBatchRows)
		h := b.x
		for l, layer := range model.Layers {
			d := layer.(*ml.Dense)
			b.prods[l] = tensor.MulTo(h, d.W)
			h = mlpActivate(b.prods[l], d)
		}
		if got := model.Predict(b.x); !got.ApproxEqual(h, 1e-5) {
			return nil, nil, fmt.Errorf("client-side forward pass differs from ml.Model.Predict by %g", got.MaxAbsDiff(h))
		}
	}
	return model, batches, nil
}

// mlpActivate is the client's share of a layer: bias and activation on
// the recombined product.
func mlpActivate(prod *tensor.Matrix, d *ml.Dense) *tensor.Matrix {
	out := tensor.New(prod.Rows, prod.Cols)
	for r := 0; r < prod.Rows; r++ {
		src, dst := prod.Row(r), out.Row(r)
		for c, v := range src {
			dst[c] = d.Act.Apply(v + d.B.Data[c])
		}
	}
	return out
}

// mlpClient runs secure forward passes as three dealer-fed (two-matrix)
// requests: the client splits the activations and the layer weight,
// the servers take their Beaver triplets from the dealer.
type mlpClient struct {
	dense   []*ml.Dense
	batches []mlpBatch
	pools   []*rng.Pool // per session: share-split randomness
	idBase  uint64
	nextID  atomic.Uint64
}

func runMLPDealer(o *options) (*report, error) {
	model, batches, err := mlpInputs(o.seed)
	if err != nil {
		return nil, err
	}
	c := &mlpClient{batches: batches, idBase: (o.seed & 0xffffff) << 40}
	for _, l := range model.Layers {
		c.dense = append(c.dense, l.(*ml.Dense))
	}
	spec := &servingSpec{
		serverFlags: drillServerFlags,
		sessions:    mlpSessions,
		tailPct:     90,
		client:      c,
	}
	for s := 0; s < spec.sessions; s++ {
		c.pools = append(c.pools, rng.NewPool(o.seed*1000003+uint64(s)+1))
	}
	return runServing(o, spec)
}

func (c *mlpClient) op(s int, seq uint64, f0, f1 comm.Framer, tr *opTrace) error {
	b := &c.batches[(seq&^corruptBit)%uint64(len(c.batches))]
	pool := c.pools[s]
	h := b.x
	for l, d := range c.dense {
		t0 := time.Now()
		a0, a1 := mpc.SplitRand(pool, h)
		w0, w1 := mpc.SplitRand(pool, d.W)
		if tr != nil {
			tr.add("mpc.client_split", t0, time.Now())
		}
		id := c.idBase | c.nextID.Add(1)
		prod, err := mpc.RequestMulID(id, f0, f1, mpc.Shares{A: a0, B: w0}, mpc.Shares{A: a1, B: w1})
		if err != nil {
			return fmt.Errorf("layer %d: %w", l, err)
		}
		if seq&corruptBit != 0 && l == len(c.dense)-1 {
			prod.Data[0] += 1
		}
		if diff := prod.MaxAbsDiff(b.prods[l]); !(diff <= mlpTol) {
			return fmt.Errorf("layer %d product off the plaintext GEMM by %g: %w", l, diff, errWrong)
		}
		h = mlpActivate(prod, d)
	}
	return nil
}

func (c *mlpClient) finish(snap) (int, []string) { return 0, nil }

func (c *mlpClient) splitPerOp(snap, int) time.Duration { return 0 }

func (c *mlpClient) requestFrame() []byte {
	a := c.batches[0].x
	w := c.dense[0].W
	return reqFrame(mpc.Shares{A: a, B: w})
}
