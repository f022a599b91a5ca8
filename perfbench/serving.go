package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"parsecureml/internal/comm"
	"parsecureml/internal/mpc"
)

// errWrong marks an op whose output failed its correctness check (as
// opposed to a transport or protocol error).
var errWrong = errors.New("output failed the correctness check")

// servingClient is the workload-specific half of a serving run.
type servingClient interface {
	// op runs one op on session s over its two face framers and checks
	// the output, returning an error wrapping errWrong when it is off.
	op(s int, seq uint64, f0, f1 comm.Framer, tr *opTrace) error
	// finish applies checks that need the whole run's counters and
	// returns how many more ops they fail.
	finish(d snap) (failed int, notes []string)
	// splitPerOp is the client split time per op that no span measures
	// (zero when spans cover it).
	splitPerOp(d snap, ops int) time.Duration
	// requestFrame is one request frame of the workload, for the
	// framing and relay probes.
	requestFrame() []byte
}

// servingSpec describes one serving workload.
type servingSpec struct {
	serverFlags []string
	sessions    int // client sessions in the closed loop
	tailPct     float64
	client      servingClient
}

// session is one client's pair of face connections through the router.
type session struct {
	c0, c1 *comm.Conn
	wt     waitTracker
}

func (s *session) close() {
	if s.c0 != nil {
		s.c0.Close()
		s.c1.Close()
		s.c0, s.c1 = nil, nil
	}
}

// servingRun owns one live topology and its sessions.
type servingRun struct {
	spec  *servingSpec
	o     *options
	fl    *topology
	sess  []*session
	seq   atomic.Uint64
	faces [2]string
}

// op runs one op on session s, redialling a session whose connections a
// transport error has left unusable.
func (r *servingRun) op(s int, seq uint64, tr *opTrace) error {
	ss := r.sess[s]
	if ss.c0 == nil {
		c0, c1, err := dialSession(r.faces[0], r.faces[1])
		if err != nil {
			return err
		}
		ss.c0, ss.c1 = c0, c1
	}
	var f0, f1 comm.Framer = ss.c0, ss.c1
	if tr != nil {
		ss.wt.reset(tr)
		f0, f1 = tracedFramer{ss.c0, &ss.wt}, tracedFramer{ss.c1, &ss.wt}
	}
	err := r.spec.client.op(s, seq, f0, f1, tr)
	if err != nil && !errors.Is(err, errWrong) {
		ss.close()
	}
	return err
}

// loopOp is op as the measurement loops run it: the self-test hook
// marks every corruptEvery-th op for corruption.
func (r *servingRun) loopOp(s int, seq uint64, tr *opTrace) error {
	return r.op(s, markCorrupt(r.o, seq), tr)
}

// corruptBit on an op's sequence number tells the workload to perturb
// that op's result before checking it (the self-test hook).
const corruptBit = 1 << 63

func markCorrupt(o *options, seq uint64) uint64 {
	if n := uint64(o.corruptEvery); n > 0 && seq%n == n-1 {
		return seq | corruptBit
	}
	return seq
}

func (r *servingRun) close() {
	for _, s := range r.sess {
		s.close()
	}
	if r.fl != nil {
		r.fl.stop()
	}
}

// setUp starts a topology and runs one verified op on every session.
// The returned duration runs from the first process spawn until the
// last session's first result checked out.
func (r *servingRun) setUp(dealerSeed uint64) (time.Duration, error) {
	t0 := time.Now()
	fl, err := startFleet(dealerSeed, r.spec.serverFlags)
	if err != nil {
		return 0, err
	}
	r.fl, r.faces = fl, [2]string{fl.face0, fl.face1}
	r.sess = make([]*session, r.spec.sessions)
	for i := range r.sess {
		r.sess[i] = &session{}
	}
	errs := make([]error, len(r.sess))
	var wg sync.WaitGroup
	for i := range r.sess {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = r.op(i, r.seq.Add(1)-1, nil)
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return 0, fmt.Errorf("first op: %w\n%s", err, fl.logs())
	}
	return time.Since(t0), nil
}

// runServing runs either serving workload.
func runServing(o *options, spec *servingSpec) (*report, error) {
	rep := &report{}
	var setupTimes []float64
	var run *servingRun
	defer func() {
		if run != nil {
			run.close()
		}
	}()
	for i := 0; i < setups; i++ {
		if run != nil {
			run.close()
		}
		run = &servingRun{spec: spec, o: o}
		d, err := run.setUp(o.seed)
		if err != nil {
			return nil, fmt.Errorf("setup %d: %w", i+1, err)
		}
		setupTimes = append(setupTimes, d.Seconds())
	}
	n := len(run.sess)
	first, err := run.fl.snapshot()
	if err != nil {
		return nil, err
	}
	rep.count(closedLoop(n, warmup, false, &run.seq, run.loopOp))

	// The end-to-end window: the whole run untraced, or on a traced run
	// its first half, which is also the baseline of the tracing overhead.
	dur := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		dur /= 2
	}
	rssPeaks, err := sampleRSS(run.fl.pids())
	if err != nil {
		return nil, err
	}
	start, err := run.fl.snapshot()
	if err != nil {
		return nil, err
	}
	plain := closedLoop(n, dur, false, &run.seq, run.loopOp)
	rep.count(plain)
	mid, err := run.fl.snapshot()
	if err != nil {
		return nil, err
	}
	rss, err := rssPeaks.finish()
	if err != nil {
		return nil, err
	}
	d := mid.delta(start)
	cpu := d["cpu.client"] + d["cpu.router"] + d["cpu.server"] + d["cpu.dealer"]
	rep.addE2E("setup_s", "s", median(setupTimes), fmt.Sprintf("(median of %d setups)", len(setupTimes)))
	rep.addE2E("throughput_per_s", "ops/s", plain.throughput(), fmt.Sprintf("(sessions=%d, closed loop)", n))
	rep.addLatency(plain, spec.tailPct)
	rep.addE2E("wire_bytes_per_op", "B/op", d["psml_conn_bytes_out_total"]/float64(plain.ops), "")
	rep.addE2E("cpu_s_per_op", "s/op", cpu/float64(plain.ops), "")
	rep.addE2E("rss_peak_mb", "MB", rss, "(dealer+router+2 servers)")

	end, traced := mid, window{}
	if o.trace {
		traced = closedLoop(n, dur, true, &run.seq, run.loopOp)
		rep.count(traced)
		if end, err = run.fl.snapshot(); err != nil {
			return nil, err
		}
	}
	failed, notes := spec.client.finish(end.delta(first))
	rep.failed += failed
	rep.notes = append(rep.notes, notes...)
	run.close()
	run = nil
	if !o.trace {
		return rep, nil
	}

	if err := rep.writeSpans(o, traced.spans); err != nil {
		return nil, err
	}
	d = end.delta(mid)
	vals := servingLayers(d, traced, spec.client.splitPerOp(d, traced.ops))
	vals["trace.overhead_ratio"] = traced.throughput() / plain.throughput()
	if err := runProbes(o, spec.client.requestFrame(), vals); err != nil {
		return nil, err
	}
	addLayers(rep, vals)
	return rep, nil
}

// warmup runs before any window so connections, pools and the planner
// settle; its ops are checked and counted but not timed.
const warmup = 1500 * time.Millisecond

// servingLayers derives the per-layer metrics of a traced serving
// window from its spans and /metrics deltas. Times are per op. The
// request and its feed/exchange/gemm/reconstruct phases are the mean
// over the two parties, each of which runs every request; triplet
// generation is summed over the processes that generate (the client
// when it deals, the dealer when it feeds).
func servingLayers(d snap, w window, extraSplit time.Duration) map[string]float64 {
	ops := float64(w.ops)
	perOpMs := func(sec float64) float64 { return sec * 1000 / ops }
	v := map[string]float64{}
	split := w.spans.split + extraSplit*time.Duration(w.spans.ops)
	if w.spans.ops > 0 {
		so := float64(w.spans.ops)
		v["mpc.op_ms"] = ms(w.spans.op) / so
		v["mpc.client_split_ms"] = ms(split) / so
		v["mpc.client_wait_ms"] = ms(w.spans.wait) / so
		v["mpc.client_other_ms"] = ms(w.spans.op-split-w.spans.wait) / so
		v["mpc.muls_per_op"] = float64(w.spans.muls) / so
	}
	phase := func(role, label string) float64 {
		return perOpMs(d[role+`:psml_phase_seconds_sum{phase="`+label+`"}`])
	}
	v["mpc.phase_triplet_ms"] = phase("dealer", "triplet_gen") + phase("client", "triplet_gen")
	served := 0.0
	for _, ph := range []struct{ metric, label string }{
		// A dealer-fed server records its wait for the fed triplet as
		// its own triplet_gen phase.
		{"mpc.phase_feed_ms", "triplet_gen"},
		{"mpc.phase_exchange_ms", "exchange"},
		{"mpc.phase_gemm_ms", "gemm"},
		{"mpc.phase_reconstruct_ms", "reconstruct"},
	} {
		v[ph.metric] = phase("server", ph.label) / 2
		served += v[ph.metric]
	}
	reqSec := 0.0
	for _, path := range []string{"mul_serial", "mul_wire", "mul_batched"} {
		reqSec += d[`psml_request_seconds_sum{path="`+path+`"}`]
	}
	v["mpc.request_server_ms"] = perOpMs(reqSec) / 2
	v["mpc.request_unattributed_ms"] = v["mpc.request_server_ms"] - served
	v["mpc.wait_unattributed_ms"] = v["mpc.client_wait_ms"] - v["mpc.request_server_ms"]
	if b := d["psml_batch_batches_total"]; b > 0 {
		v["mpc.batch_members_per_batch"] = d["psml_batch_requests_total"] / b
	}
	if c := d["psml_batch_wait_seconds_count"]; c > 0 {
		v["mpc.batch_wait_ms"] = d["psml_batch_wait_seconds_sum"] * 1000 / c
	}
	if offered := d["psml_batch_requests_total"] + d["psml_batch_fallbacks_total"]; offered > 0 {
		v["mpc.batch_fallback_ratio"] = d["psml_batch_fallbacks_total"] / offered
	}
	v["mpc.codec_nonraw_ratio"] = codecNonRaw(d)
	v["comm.peer_frames_per_op"] = d["psml_mux_frames_out_total"] / ops
	v["comm.peer_bytes_per_op"] = d["psml_mux_bytes_out_total"] / ops
	v["fleet.retries_per_op"] = d["psml_router_retries_total"] / ops
	v["fleet.error_frames"] = d["psml_router_error_frames_total"]
	v["tripletpool.feed_wait_ms"] = perOpMs(d["psml_triplet_feed_wait_seconds_sum"])
	v["tripletpool.generated_per_op"] = d["psml_dealer_generated_total"] / ops
	for _, role := range []string{"client", "router", "server", "dealer"} {
		v["proc."+role+"_cpu_s_per_op"] = d["cpu."+role] / ops
	}
	return v
}

// codecNonRaw is the share of E/F tensors the wire codec sent as FP16
// or CSR rather than raw.
func codecNonRaw(d snap) float64 {
	var raw, other float64
	for _, t := range []string{"e", "f"} {
		raw += d[`psml_wire_codec_total{tensor="`+t+`",codec="raw"}`]
		other += d[`psml_wire_codec_total{tensor="`+t+`",codec="fp16"}`] + d[`psml_wire_codec_total{tensor="`+t+`",codec="csr"}`]
	}
	if raw+other == 0 {
		return 0
	}
	return other / (raw + other)
}

// reqFrame encodes one request of shape a×b, as the probes send it.
func reqFrame(in mpc.Shares) []byte { return mpc.EncodeRequest(1, in) }
