package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"parsecureml/internal/comm"
)

// opFunc runs one op on session s. seq numbers ops across all sessions
// (it picks inputs and drives the corruption hook). tr is non-nil on
// traced runs and receives the op's spans.
type opFunc func(s int, seq uint64, tr *opTrace) error

// opTrace accumulates one op's spans: time in the client's share split
// and time waiting on the servers (upload until both shares are back).
type opTrace struct {
	epoch       time.Time // window start: span offsets count from here
	start       time.Time // op start
	split, wait time.Duration
	muls        int
	spans       []span
}

// span is one traced interval, in nanoseconds since its window started.
// An op's child spans carry the op's sequence number.
type span struct {
	Op    uint64 `json:"op"`
	Name  string `json:"name"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

func (t *opTrace) add(name string, start, end time.Time) {
	d := end.Sub(start)
	switch name {
	case "mpc.client_split":
		t.split += d
	case "mpc.client_wait":
		t.wait += d
		t.muls++
	}
	t.spans = append(t.spans, span{Name: name, Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
}

// spanTotals sums the traced spans of a window's ops and keeps them for
// the trace file.
type spanTotals struct {
	ops             int
	op, split, wait time.Duration
	muls            int
	recorded        []span
}

func (t *spanTotals) addOp(seq uint64, tr *opTrace, lat time.Duration) {
	t.ops++
	t.op += lat
	t.split += tr.split
	t.wait += tr.wait
	t.muls += tr.muls
	t0 := tr.start.Sub(tr.epoch)
	t.recorded = append(t.recorded, span{Op: seq, Name: "op", Start: t0.Nanoseconds(), End: (t0 + lat).Nanoseconds()})
	for _, s := range tr.spans {
		s.Op = seq
		t.recorded = append(t.recorded, s)
	}
}

// closedLoop runs n sessions, each issuing its next op only after the
// previous one returned, until dur has passed; ops started before the
// deadline run to completion and count. Only successful ops contribute
// latency samples; every op counts toward attempted.
func closedLoop(n int, dur time.Duration, traced bool, seq *atomic.Uint64, op opFunc) window {
	type sessOut struct {
		ops, failed int
		lat         []time.Duration
		spans       spanTotals
		firstErr    error
	}
	outs := make([]sessOut, n)
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for s := 0; s < n; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			o := &outs[s]
			for time.Now().Before(deadline) {
				k := seq.Add(1) - 1
				var tr *opTrace
				t0 := time.Now()
				if traced {
					tr = &opTrace{epoch: start, start: t0}
				}
				err := op(s, k, tr)
				lat := time.Since(t0)
				o.ops++
				if err != nil {
					o.failed++
					if o.firstErr == nil {
						o.firstErr = err
					}
					continue
				}
				o.lat = append(o.lat, lat)
				if tr != nil {
					o.spans.addOp(k, tr, lat)
				}
			}
		}(s)
	}
	wg.Wait()
	w := window{elapsed: time.Since(start)}
	for _, o := range outs {
		w.ops += o.ops
		w.failed += o.failed
		w.lat = append(w.lat, o.lat...)
		w.spans.ops += o.spans.ops
		w.spans.op += o.spans.op
		w.spans.split += o.spans.split
		w.spans.wait += o.spans.wait
		w.spans.muls += o.spans.muls
		w.spans.recorded = append(w.spans.recorded, o.spans.recorded...)
		if o.firstErr != nil && w.firstErr == nil {
			w.firstErr = o.firstErr
		}
	}
	return w
}

// writeSpans writes the traced window's spans, one JSON object a line.
func writeSpans(workload string, seed uint64, t spanTotals) (string, error) {
	dir := filepath.Join(buildDir, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.recorded {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// waitTracker turns one session's two face connections into
// mpc.client_wait spans: a span opens at the first upload of a
// multiplication and closes when both result frames are back.
type waitTracker struct {
	mu    sync.Mutex
	tr    *opTrace
	open  bool
	start time.Time
	reads int
}

func (w *waitTracker) begin() {
	w.mu.Lock()
	if !w.open {
		w.open, w.start, w.reads = true, time.Now(), 0
	}
	w.mu.Unlock()
}

func (w *waitTracker) end() {
	w.mu.Lock()
	w.reads++
	if w.open && w.reads == 2 {
		w.open = false
		if w.tr != nil {
			w.tr.add("mpc.client_wait", w.start, time.Now())
		}
	}
	w.mu.Unlock()
}

// reset points the tracker at a new op's trace.
func (w *waitTracker) reset(tr *opTrace) {
	w.mu.Lock()
	w.tr, w.open, w.reads = tr, false, 0
	w.mu.Unlock()
}

// tracedFramer reports a face connection's frame traffic to a
// waitTracker; the request path sees an ordinary comm.Framer.
type tracedFramer struct {
	comm.Framer
	w *waitTracker
}

func (f tracedFramer) WriteFrame(frame []byte) error {
	f.w.begin()
	return f.Framer.WriteFrame(frame)
}

func (f tracedFramer) ReadFrame() ([]byte, error) {
	b, err := f.Framer.ReadFrame()
	f.w.end()
	return b, err
}
