package mpc

import (
	"sync"
	"time"

	"parsecureml/internal/hw"
)

// Planner is the runtime side of the paper's contribution 1: the offline
// profiling tables (hw.Platform's cost models) promoted to a live
// controller for the serving layer's cross-session batching. For each
// request shape it answers "dispatch now or hold for more tenants", and
// for a chosen batch it answers "how tall should the streamed bands be" —
// both as computed crossovers, not tuned constants.
//
// Two signal sources blend:
//
//   - The analytic model. hw.Platform.BatchWindow() is the fixed per-round
//     exchange overhead a merge recovers (the most a request should ever
//     wait on an idle link), and hw.Platform.BatchBandRows sizes the
//     stacked exchange's bands so compute hides transfer.
//
//   - Measurement. The serving stack's psml_phase_seconds{phase="exchange"}
//     histogram records what exchanges actually cost on this deployment;
//     its median minus the model's size-dependent transfer term estimates
//     the real fixed overhead, which on loaded or slow fabrics dwarfs the
//     2 µs the paper's InfiniBand tables predict. The planner takes the
//     larger of the two, clamped to [MinWindow, MaxWindow].
//
// Per-shape inter-arrival gaps (EWMA) gate the whole mechanism: when a
// shape's requests arrive much further apart than the largest window could
// bridge, waiting is pure loss and the planner dispatches immediately.
//
// A Planner is safe for concurrent use and is shared by both serving
// parties' batch schedulers.
//
// WireCodec (wirecodec.go) is the same model-plus-measurement pattern
// applied to the per-tensor encoding decision: hw.Platform.CodecWorthwhile
// is the analytic crossover, and a live bandwidth EWMA (ObserveLink)
// stands in for the exchange histogram.
type Planner struct {
	// HW is the analytic platform model. The zero value is not useful;
	// use NewPlanner or fill in hw.Paper().
	HW hw.Platform
	// MinWindow..MaxWindow clamp the computed batch window (ISSUE range:
	// 200µs–2ms). NewPlanner sets the defaults.
	MinWindow time.Duration
	MaxWindow time.Duration

	mu     sync.Mutex
	shapes map[batchShape]*shapeArrivals
}

// Planner defaults: the adaptive window's clamp range.
const (
	defaultMinWindow = 200 * time.Microsecond
	defaultMaxWindow = 2 * time.Millisecond
)

// gapDispatchFactor: a shape whose EWMA inter-arrival gap exceeds this
// multiple of the maximum window cannot plausibly collect a second member
// in time — dispatch immediately.
const gapDispatchFactor = 4

// ewmaAlpha weighs the newest inter-arrival gap; ~16-sample memory.
const ewmaAlpha = 1.0 / 16

// batchShape keys batchable work: only requests with identical GEMM
// geometry and the same triplet source (dealer-fed or client-dealt) can
// row-stack. The planner keys by geometry alone.
type batchShape struct {
	m, k, n int
	fed     bool
}

// shapeArrivals tracks one shape's request arrival process.
type shapeArrivals struct {
	last    time.Time
	ewmaGap float64 // seconds; 0 until two arrivals seen
}

// batchPlan is one shape's current batching decision.
type batchPlan struct {
	// window is how long the collector holds the first request of a batch
	// for more same-shape arrivals. 0 means dispatch immediately.
	window time.Duration
	// stackBand is the row-band height for streaming the stacked E matrix
	// of stackRows total rows (as passed to Plan via waiting×m); bands of
	// this height keep the fused GEMM pipelined behind the transfer.
	stackBand int
}

// NewPlanner returns a planner over the given platform model with the
// default window clamp.
func NewPlanner(p hw.Platform) *Planner {
	return &Planner{HW: p, MinWindow: defaultMinWindow, MaxWindow: defaultMaxWindow}
}

// Observe records one request arrival of the given shape. now is explicit
// so tests can replay arrival processes deterministically.
func (p *Planner) Observe(m, k, n int, now time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.shapes == nil {
		p.shapes = make(map[batchShape]*shapeArrivals)
	}
	s := p.shapes[batchShape{m: m, k: k, n: n}]
	if s == nil {
		s = &shapeArrivals{}
		p.shapes[batchShape{m: m, k: k, n: n}] = s
	}
	if !s.last.IsZero() {
		gap := now.Sub(s.last).Seconds()
		if gap < 0 {
			gap = 0
		}
		if s.ewmaGap == 0 {
			s.ewmaGap = gap
		} else {
			s.ewmaGap += ewmaAlpha * (gap - s.ewmaGap)
		}
	}
	s.last = now
}

// gap returns the shape's EWMA inter-arrival gap in seconds (0 = unknown).
func (p *Planner) gap(m, k, n int) float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if s := p.shapes[batchShape{m: m, k: k, n: n}]; s != nil {
		return s.ewmaGap
	}
	return 0
}

// Plan returns the current batching decision for one m×k × k×n request
// shape with stackRows rows already committed to the forming batch.
func (p *Planner) Plan(m, k, n, stackRows int) batchPlan {
	minW, maxW := p.MinWindow, p.MaxWindow
	if minW <= 0 {
		minW = defaultMinWindow
	}
	if maxW < minW {
		maxW = minW
	}

	// Fixed exchange overhead: the analytic floor, raised by measurement
	// when this deployment's exchanges cost more than the model's fabric.
	fixed := p.HW.BatchWindow()
	if metrics.phaseExchange.Count() >= plannerMinSamples {
		measured := metrics.phaseExchange.Quantile(0.5).Seconds() - p.HW.ExchangeTransferTime(m, k, n)
		if measured > fixed {
			fixed = measured
		}
	}
	window := time.Duration(fixed * float64(time.Second))
	if window < minW {
		window = minW
	}
	if window > maxW {
		window = maxW
	}

	// Sparse arrivals: no second tenant will show up inside any window we
	// would tolerate — dispatch now.
	if g := p.gap(m, k, n); g > gapDispatchFactor*maxW.Seconds() {
		window = 0
	}

	band := p.HW.BatchBandRows(stackRows, k, n)
	if band < 1 {
		band = 1
	}
	return batchPlan{window: window, stackBand: band}
}

// plannerMinSamples gates the measured-overhead estimate: below this many
// recorded exchanges the histogram median is noise and the analytic model
// rules alone.
const plannerMinSamples = 32
