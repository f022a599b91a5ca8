package main

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"parsecureml"

	"parsecureml/internal/dataset"
	"parsecureml/internal/ml"
	"parsecureml/internal/tensor"
)

const (
	trainLR = 0.5
	// trainHeldOut samples score the accuracy check next to the
	// 64-sample training batch.
	trainHeldOut = 512
	// trainAccMargin is how far the securely trained model's accuracy
	// may stray from plaintext training over the same steps.
	trainAccMargin = 0.05
)

// trainRun is one secure-training setup: framework, secret-shared MLP
// and its prepared batch.
type trainRun struct {
	fw    *parsecureml.Framework
	model *parsecureml.SecureModel
}

func newTrainRun(seed uint64, xb, yb *tensor.Matrix) *trainRun {
	cfg := parsecureml.DefaultConfig()
	cfg.Seed = seed
	// Tensor-core mode rounds GEMM inputs to FP16, which moves training
	// off the plaintext trajectory (0.34 against 0.80 accuracy after 100
	// steps on seed 1), so the parity check needs FP32 GEMMs, as
	// examples/mnist_mlp uses.
	cfg.TensorCores = false
	fw := parsecureml.New(cfg)
	model := fw.Secure(parsecureml.NewMLP(784, parsecureml.NewRand(seed)), parsecureml.MSE)
	model.Prepare([]*tensor.Matrix{xb}, []*tensor.Matrix{yb})
	return &trainRun{fw: fw, model: model}
}

// trainSnap reads the engine-side counters of a training run.
func (t *trainRun) snap() (snap, error) {
	cpu, err := procCPU(0)
	if err != nil {
		return nil, err
	}
	wire, _, _ := t.fw.TrafficStats()
	return snap{"cpu.client": cpu, "wire": float64(wire), "modeled_online": t.model.Phases().Online}, nil
}

func runTrainMLP(o *options) (*report, error) {
	x, labels := dataset.Classification(dataset.MNIST, mlpBatchRows+trainHeldOut, o.seed)
	y := parsecureml.OneHot(labels, 10)
	xb, yb := x.SliceRows(0, mlpBatchRows), y.SliceRows(0, mlpBatchRows)

	rep := &report{}
	var setupTimes []float64
	var run *trainRun
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		run = newTrainRun(o.seed, xb, yb)
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
	}

	// One op is one secure SGD step (the prepared model holds a single
	// batch, so an epoch is a step). Each step's revealed weights are
	// checked finite; accuracy is checked against plaintext training
	// once the run is over.
	var seq atomic.Uint64
	revealed := parsecureml.NewMLP(784, parsecureml.NewRand(o.seed))
	op := func(_ int, seq uint64, tr *opTrace) error {
		t0 := time.Now()
		run.model.TrainEpochs(1, trainLR)
		if tr != nil {
			tr.add("secureml.step", t0, time.Now())
		}
		run.model.RevealInto(revealed)
		if markCorrupt(o, seq)&corruptBit != 0 {
			revealed.Layers[0].(*ml.Dense).W.Data[0] = float32(math.NaN())
		}
		return finiteParams(revealed)
	}
	rep.count(closedLoop(1, warmup, false, &seq, op))

	// The end-to-end window: the whole run untraced, or on a traced run
	// its first half, which is also the baseline of the tracing overhead.
	dur := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		dur /= 2
	}
	rssPeaks, err := sampleRSS([]int{0})
	if err != nil {
		return nil, err
	}
	start, err := run.snap()
	if err != nil {
		return nil, err
	}
	plain := closedLoop(1, dur, false, &seq, op)
	rep.count(plain)
	mid, err := run.snap()
	if err != nil {
		return nil, err
	}
	rss, err := rssPeaks.finish()
	if err != nil {
		return nil, err
	}
	d := mid.delta(start)
	ops := float64(plain.ops)
	rep.addE2E("setup_s", "s", median(setupTimes), fmt.Sprintf("(median of %d setups)", len(setupTimes)))
	rep.addE2E("throughput_per_s", "ops/s", plain.throughput(), "(sessions=1, closed loop)")
	rep.addLatency(plain, 90)
	rep.addE2E("wire_bytes_per_op", "B/op", d["wire"]/ops, "(engine inter-server bytes)")
	rep.addE2E("cpu_s_per_op", "s/op", d["cpu.client"]/ops, "")
	rep.addE2E("rss_peak_mb", "MB", rss, "(benchmark process running the engine)")

	end, traced := mid, window{}
	if o.trace {
		traced = closedLoop(1, dur, true, &seq, op)
		rep.count(traced)
		if end, err = run.snap(); err != nil {
			return nil, err
		}
	}
	if err := trainAccuracy(o.seed, run, x, y, xb, yb, int(seq.Load())); err != nil {
		rep.failed = rep.attempted
		rep.notes = append(rep.notes, err.Error())
	}
	if !o.trace {
		return rep, nil
	}

	if err := rep.writeSpans(o, traced.spans); err != nil {
		return nil, err
	}
	d = end.delta(mid)
	ops = float64(traced.ops)
	vals := map[string]float64{
		"secureml.step_ms":          ms(traced.spans.op) / float64(max(traced.spans.ops, 1)),
		"secureml.modeled_online_s": d["modeled_online"] / ops,
		"proc.client_cpu_s_per_op":  d["cpu.client"] / ops,
		"trace.overhead_ratio":      traced.throughput() / plain.throughput(),
	}
	if err := runProbes(o, nil, vals); err != nil {
		return nil, err
	}
	addLayers(rep, vals)
	return rep, nil
}

// finiteParams reports the first non-finite weight of m.
func finiteParams(m *parsecureml.Model) error {
	for l, layer := range m.Layers {
		d := layer.(*ml.Dense)
		for _, p := range []*tensor.Matrix{d.W, d.B} {
			for _, v := range p.Data {
				if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
					return fmt.Errorf("layer %d: revealed weight %v: %w", l, v, errWrong)
				}
			}
		}
	}
	return nil
}

// trainAccuracy trains a plaintext twin for the same number of steps and
// requires the secure model's accuracy, on the training batch and on
// held-out samples, to stay within trainAccMargin of it.
func trainAccuracy(seed uint64, run *trainRun, x, y, xb, yb *tensor.Matrix, steps int) error {
	plain := parsecureml.NewMLP(784, parsecureml.NewRand(seed))
	for i := 0; i < steps; i++ {
		plain.TrainBatch(xb, yb, trainLR)
	}
	secure := parsecureml.NewMLP(784, parsecureml.NewRand(seed))
	run.model.RevealInto(secure)
	for _, set := range []struct {
		name string
		x, y *tensor.Matrix
	}{
		{"training batch", xb, yb},
		{"held-out", x.SliceRows(mlpBatchRows, x.Rows), y.SliceRows(mlpBatchRows, y.Rows)},
	} {
		as := parsecureml.Accuracy(secure.Predict(set.x), set.y)
		ap := parsecureml.Accuracy(plain.Predict(set.x), set.y)
		if math.Abs(as-ap) > trainAccMargin {
			return fmt.Errorf("%s accuracy %.3f after %d secure steps, plaintext %.3f (margin %.2f)", set.name, as, steps, ap, trainAccMargin)
		}
	}
	return nil
}
