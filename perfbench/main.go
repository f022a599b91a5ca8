// Command perfbench is the repository benchmark: it runs one named
// workload against the shipped binaries (psml-dealer, psml-router,
// psml-server) or the in-process secure-training engine, checks every
// op's output, and prints the end-to-end metrics (--trace 0) or the
// per-layer metrics (--trace 1). The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Run it from the repository root through run.sh, which builds
// everything from the checkout first:
//
//	bash perfbench/run.sh --workload xf_batched --seed 7 --seconds 30 --trace 0
//
// README.md in this directory records why each workload exists, the
// server flags and request form of each, and which end-to-end metric
// every per-layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's machine-readable last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the command-line settings shared by every workload.
type options struct {
	workload     string
	seed         uint64
	seconds      float64
	trace        bool
	corruptEvery int
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed: every input is derived from it")
	flag.Float64Var(&o.seconds, "seconds", 30, "length of the measured window")
	flag.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.IntVar(&o.corruptEvery, "corrupt-every", 0, "self-test hook: corrupt every n-th op's result before its check (0 disables)")
	flag.Parse()
	o.trace = traceFlag == 1
	if traceFlag != 0 && traceFlag != 1 {
		fatalf("--trace must be 0 or 1")
	}
	if o.seconds <= 0 || o.seed == 0 {
		fatalf("--seconds must be positive and --seed nonzero")
	}
	run, ok := workloads[o.workload]
	if !ok {
		fatalf("unknown --workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	}

	h, err := newHygiene()
	if err != nil {
		fatalf("%v", err)
	}
	stopOnSignal()
	fmt.Printf("perfbench workload=%s seed=%d seconds=%g trace=%d\n", o.workload, o.seed, o.seconds, traceFlag)
	fmt.Printf("host %s\n", fingerprint())
	rep, err := run(&o)
	if herr := h.check(); herr != nil {
		fatalf("hygiene: %v", herr)
	}
	if err != nil {
		fatalf("%s: %v", o.workload, err)
	}
	rep.print(os.Stdout)
	out, err := json.Marshal(rep.result(o.trace))
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(out))
}

// setups is how many times a run sets the system up; setup_s is their
// median.
const setups = 15

// buildDir holds everything run.sh and the benchmark write, relative to
// the repository root the benchmark runs from.
const buildDir = ".bench_build"

// stopOnSignal kills every child before exiting when the benchmark is
// interrupted, so no system process outlives it.
func stopOnSignal() {
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigs
		tracker.mu.Lock()
		procs := append([]*proc(nil), tracker.procs...)
		tracker.mu.Unlock()
		for _, p := range procs {
			p.stop()
		}
		fatalf("interrupted by %v", sig)
	}()
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// report gathers one run's figures before they are printed.
type report struct {
	attempted, failed int
	e2e               []named // end-to-end metrics, fixed order
	layer             []named // per-layer metrics, fixed order
	notes             []string
}

type named struct {
	name string
	metric
	note string
}

func (r *report) addE2E(name, unit string, v float64, note string) {
	r.e2e = append(r.e2e, named{name, metric{v, unit}, note})
}

// count adds a window's ops to attempted and failed.
func (r *report) count(w window) {
	r.attempted += w.ops
	r.failed += w.failed
	if w.firstErr != nil {
		r.notes = append(r.notes, fmt.Sprintf("first failure: %v", w.firstErr))
	}
}

// writeSpans writes a traced window's spans and notes where they went.
func (r *report) writeSpans(o *options, t spanTotals) error {
	path, err := writeSpans(o.workload, o.seed, t)
	if err != nil {
		return err
	}
	r.notes = append(r.notes, "spans written to "+path)
	return nil
}

func (r *report) addLayer(name, unit string, v float64) {
	r.layer = append(r.layer, named{name: name, metric: metric{v, unit}})
}

func (r *report) print(w *os.File) {
	for _, n := range r.notes {
		fmt.Fprintf(w, "note %s\n", n)
	}
	ratio := float64(r.failed) / float64(max(r.attempted, 1))
	fmt.Fprintf(w, "metric %-24s %.6g ratio (%d failed of %d attempted)\n", "fail_ratio", ratio, r.failed, r.attempted)
	for _, m := range r.e2e {
		fmt.Fprintf(w, "metric %-24s %.6g %s %s\n", m.name, m.Value, m.Unit, m.note)
	}
	for _, m := range r.layer {
		fmt.Fprintf(w, "layer  %-40s %.6g %s\n", m.name, m.Value, m.Unit)
	}
}

// result keeps the end-to-end metrics on an untraced run and the
// per-layer metrics on a traced one. fail_ratio is carried by
// attempted/failed rather than as a metric: it is 0 on a healthy run.
func (r *report) result(trace bool) result {
	src := r.e2e
	if trace {
		src = r.layer
	}
	ms := make(map[string]metric, len(src))
	for _, m := range src {
		ms[m.name] = m.metric
	}
	return result{Correct: r.failed == 0 && r.attempted > 0, Attempted: r.attempted, Failed: r.failed, Metrics: ms}
}

// workloads maps each workload name to the function that runs it.
// README.md records why each exists.
var workloads = map[string]func(o *options) (*report, error){
	"mlp_dealer": runMLPDealer,
	"xf_batched": runXFBatched,
	"train_mlp":  runTrainMLP,
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// window is the outcome of one closed-loop measurement.
type window struct {
	ops, failed int
	elapsed     time.Duration
	lat         []time.Duration // latency of every successful op in the window
	spans       spanTotals
	firstErr    error
}

func (w window) throughput() float64 {
	return float64(w.ops-w.failed) / w.elapsed.Seconds()
}

// addLatency reports the median and the fixed tail percentile of w.
func (r *report) addLatency(w window, tailPct float64) {
	n := len(w.lat)
	p50 := percentile(w.lat, 50)
	tail := percentile(w.lat, tailPct)
	beyond := n - int(float64(n)*tailPct/100)
	r.addE2E("latency_p50_ms", "ms", ms(p50), fmt.Sprintf("(n=%d)", n))
	r.addE2E("latency_tail_ms", "ms", ms(tail), fmt.Sprintf("(p%g, n=%d, %d beyond)", tailPct, n, beyond))
	if beyond < 10 {
		r.notes = append(r.notes, fmt.Sprintf("latency_tail_ms: only %d samples beyond p%g; lengthen --seconds", beyond, tailPct))
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func percentile(lat []time.Duration, p float64) time.Duration {
	if len(lat) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(float64(len(s))*p/100+0.5) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
