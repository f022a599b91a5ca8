package mpc

import (
	"testing"
	"time"

	"parsecureml/internal/hw"
)

// TestPlannerWindowClamp: whatever the cost models and measured exchange
// medians say, the hold window stays inside [MinWindow, MaxWindow] for
// shapes with batchable arrival rates.
func TestPlannerWindowClamp(t *testing.T) {
	for name, p := range map[string]hw.Platform{"paper": hw.Paper(), "slownet": hw.SlowNet()} {
		pl := NewPlanner(p)
		for _, s := range []batchShape{{1, 1, 1, false}, {32, 32, 32, false}, {4096, 512, 512, false}} {
			plan := pl.Plan(s.m, s.k, s.n, 4*s.m)
			if plan.window < pl.MinWindow || plan.window > pl.MaxWindow {
				t.Errorf("%s %v: window %v outside [%v, %v]", name, s, plan.window, pl.MinWindow, pl.MaxWindow)
			}
			if plan.stackBand < 1 || plan.stackBand > 4*s.m {
				t.Errorf("%s %v: stackBand %d outside [1, %d]", name, s, plan.stackBand, 4*s.m)
			}
		}
	}
}

// TestPlannerGapGate: a shape whose requests arrive far slower than the
// largest window could bridge dispatches immediately (window 0), while a
// dense arrival process keeps a positive hold window — and the processes
// are tracked per shape.
func TestPlannerGapGate(t *testing.T) {
	pl := NewPlanner(hw.Paper())
	base := time.Now()

	// Sparse shape: one request a second, EWMA gap ≫ 4×MaxWindow.
	for i := 0; i < 40; i++ {
		pl.Observe(8, 8, 8, base.Add(time.Duration(i)*time.Second))
	}
	if w := pl.Plan(8, 8, 8, 8).window; w != 0 {
		t.Errorf("sparse shape: window %v, want immediate dispatch", w)
	}

	// Dense shape: arrivals every 100µs keep the window open.
	for i := 0; i < 40; i++ {
		pl.Observe(9, 9, 9, base.Add(time.Duration(i)*100*time.Microsecond))
	}
	if w := pl.Plan(9, 9, 9, 9).window; w == 0 {
		t.Error("dense shape: window collapsed to immediate dispatch")
	}

	// A shape never observed has no gap evidence: keep the window open.
	if w := pl.Plan(10, 10, 10, 10).window; w == 0 {
		t.Error("unobserved shape: window collapsed to immediate dispatch")
	}

	// The sparse shape recovers once its arrival process densifies.
	at := base.Add(40 * time.Second)
	for i := 0; i < 200; i++ {
		pl.Observe(8, 8, 8, at.Add(time.Duration(i)*50*time.Microsecond))
	}
	if w := pl.Plan(8, 8, 8, 8).window; w == 0 {
		t.Error("densified shape: window stayed collapsed")
	}
}

// TestPlannerBandTracksPlatform: the paper's fabric keeps cheap GEMMs
// whole (compute never catches transfer), a slow fabric bands a
// compute-heavy stack so the fused GEMM can hide behind it.
func TestPlannerBandTracksPlatform(t *testing.T) {
	if got := NewPlanner(hw.Paper()).Plan(8, 8, 2, 4096).stackBand; got != 4096 {
		t.Errorf("paper platform banded a transfer-bound stack: %d", got)
	}
	if got := NewPlanner(hw.SlowNet()).Plan(512, 512, 512, 4096).stackBand; got >= 4096 {
		t.Errorf("slow fabric kept a compute-bound stack whole: %d", got)
	}
}
