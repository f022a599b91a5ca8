package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"parsecureml/internal/comm"
	"parsecureml/internal/fleet"
	"parsecureml/internal/mpc"
	"parsecureml/internal/mpc/tripletpool"
	"parsecureml/internal/rng"
	"parsecureml/internal/tensor"
)

// layerCatalog is every per-layer metric, in report order. Each traced
// run emits all of them; a layer the workload does not exercise reads 0.
var layerCatalog = []struct{ name, unit string }{
	{"tensor.gemm_gflops.64x784x128", "GFLOP/s"},
	{"tensor.gemm_gflops.64x128x64", "GFLOP/s"},
	{"tensor.gemm_gflops.64x64x10", "GFLOP/s"},
	{"tensor.gemm_gflops.16x32x32", "GFLOP/s"},
	{"tensor.gemm_gflops.16x8x16", "GFLOP/s"},
	{"tensor.gemm_gflops.16x16x8", "GFLOP/s"},
	{"tensor.gemm_gflops.16x32x48", "GFLOP/s"},
	{"tensor.gemm_gflops.16x48x32", "GFLOP/s"},
	{"tensor.gemm_allocs_per_op", "allocs/op"},
	{"tensor.fp16_encode_mbps", "MB/s"},
	{"tensor.fp16_decode_mbps", "MB/s"},
	{"tensor.csr_encode_mbps", "MB/s"},
	{"tensor.csr_decode_mbps", "MB/s"},
	{"tensor.fp16_encode_allocs_per_op", "allocs/op"},
	{"tensor.fp16_decode_allocs_per_op", "allocs/op"},
	{"tensor.csr_encode_allocs_per_op", "allocs/op"},
	{"tensor.csr_decode_allocs_per_op", "allocs/op"},
	{"rng.split_mbps", "MB/s"},
	{"rng.split_allocs_per_op", "allocs/op"},
	{"mpc.op_ms", "ms"},
	{"mpc.client_split_ms", "ms"},
	{"mpc.client_wait_ms", "ms"},
	{"mpc.client_other_ms", "ms"},
	{"mpc.muls_per_op", "count"},
	{"mpc.phase_triplet_ms", "ms"},
	{"mpc.phase_feed_ms", "ms"},
	{"mpc.phase_exchange_ms", "ms"},
	{"mpc.phase_gemm_ms", "ms"},
	{"mpc.phase_reconstruct_ms", "ms"},
	{"mpc.request_server_ms", "ms"},
	{"mpc.request_unattributed_ms", "ms"},
	{"mpc.wait_unattributed_ms", "ms"},
	{"mpc.batch_members_per_batch", "count"},
	{"mpc.batch_wait_ms", "ms"},
	{"mpc.batch_fallback_ratio", "ratio"},
	{"mpc.codec_nonraw_ratio", "ratio"},
	{"comm.conn_rtt_us", "us"},
	{"comm.mux_rtt_us", "us"},
	{"comm.supervised_rtt_us", "us"},
	{"comm.conn_allocs_per_frame", "allocs/frame"},
	{"comm.mux_allocs_per_frame", "allocs/frame"},
	{"comm.supervised_allocs_per_frame", "allocs/frame"},
	{"comm.peer_frames_per_op", "count"},
	{"comm.peer_bytes_per_op", "B/op"},
	{"fleet.relay_us", "us"},
	{"fleet.retries_per_op", "count"},
	{"fleet.error_frames", "count"},
	{"tripletpool.gen_per_s.64x784x128", "1/s"},
	{"tripletpool.gen_per_s.64x128x64", "1/s"},
	{"tripletpool.gen_per_s.64x64x10", "1/s"},
	{"tripletpool.feed_per_s", "1/s"},
	{"tripletpool.feed_wait_ms", "ms"},
	{"tripletpool.generated_per_op", "count"},
	{"proc.client_cpu_s_per_op", "s/op"},
	{"proc.router_cpu_s_per_op", "s/op"},
	{"proc.server_cpu_s_per_op", "s/op"},
	{"proc.dealer_cpu_s_per_op", "s/op"},
	{"secureml.step_ms", "ms"},
	{"secureml.modeled_online_s", "modeled-s/op"},
	{"trace.overhead_ratio", "ratio"},
}

// addLayers reports vals in catalog order, 0 for a metric not set.
func addLayers(rep *report, vals map[string]float64) {
	for _, m := range layerCatalog {
		rep.addLayer(m.name, m.unit, vals[m.name])
	}
}

// Probe shapes: the MLP's three layer GEMMs and the transformer's five
// distinct multiplication geometries.
var (
	mlpShapes = [][3]int{{64, 784, 128}, {64, 128, 64}, {64, 64, 10}}
	xfGemms   = [][3]int{{16, 32, 32}, {16, 8, 16}, {16, 16, 8}, {16, 32, 48}, {16, 48, 32}}
)

const probeTime = 200 * time.Millisecond

// measure runs fn for at least d and minIters calls and returns its
// mean time and allocations per call.
func measure(d time.Duration, minIters int, fn func()) (nsPerOp, allocsPerOp float64) {
	fn() // first-use buffer growth is not steady state
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	n := 0
	for n < minIters || time.Since(t0) < d {
		fn()
		n++
	}
	el := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return float64(el.Nanoseconds()) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// runProbes measures, each on its own, the layers the workload
// exercises, through the module's public functions and on inputs
// derived from the workload seed; the metrics of the other layers stay
// 0. frame is one request frame of a serving workload, sent by the
// framing and relay probes; nil on train_mlp, which has no network.
func runProbes(o *options, frame []byte, vals map[string]float64) error {
	pool := rng.NewPool(o.seed ^ 0x9e3779b97f4a7c15)
	xf := o.workload == "xf_batched"
	if xf {
		gemmProbe(pool, xfGemms, vals)
		if err := codecProbe(pool, vals); err != nil {
			return err
		}
	} else {
		gemmProbe(pool, mlpShapes, vals)
		// rng: the client's share split of the 784×128 weight.
		w := pool.NewUniform(784, 128, -0.1, 0.1)
		ns, allocs := measure(probeTime, 5, func() { mpc.SplitRand(pool, w) })
		vals["rng.split_mbps"] = float64(w.Bytes()) / ns * 1e3
		vals["rng.split_allocs_per_op"] = allocs
	}
	if frame == nil {
		return nil
	}

	// comm: one request frame's round trip over each framing layer.
	for _, p := range []struct {
		name string
		pair func() (client comm.Framer, echo comm.Framer, closeAll func(), err error)
	}{
		{"conn", connPair},
		{"mux", muxPair},
		{"supervised", supervisedPair},
	} {
		us, allocs, err := echoRTT(frame, p.pair)
		if err != nil {
			return fmt.Errorf("%s probe: %w", p.name, err)
		}
		vals["comm."+p.name+"_rtt_us"] = us
		vals["comm."+p.name+"_allocs_per_frame"] = allocs
	}

	// fleet: the router's relay cost over a direct round trip.
	relay, err := relayProbe(frame)
	if err != nil {
		return fmt.Errorf("relay probe: %w", err)
	}
	vals["fleet.relay_us"] = relay
	if xf {
		return nil
	}

	// tripletpool: stream generation and the dealer feed at MLP shapes.
	src := tripletpool.NewStreamSource(o.seed)
	for _, sh := range mlpShapes {
		ns, _ := measure(probeTime, 3, func() { src.Gen(sh[0], sh[1], sh[2]) })
		vals[fmt.Sprintf("tripletpool.gen_per_s.%dx%dx%d", sh[0], sh[1], sh[2])] = 1e9 / ns
	}
	rate, err := feedProbe(o.seed)
	if err != nil {
		return fmt.Errorf("feed probe: %w", err)
	}
	vals["tripletpool.feed_per_s"] = rate
	return nil
}

// gemmProbe measures tensor.Mul at each shape, with the worst
// allocations per call over the shapes.
func gemmProbe(pool *rng.Pool, shapes [][3]int, vals map[string]float64) {
	worstAllocs := 0.0
	for _, sh := range shapes {
		a := pool.NewUniform(sh[0], sh[1], -1, 1)
		b := pool.NewUniform(sh[1], sh[2], -1, 1)
		dst := tensor.New(sh[0], sh[2])
		ns, allocs := measure(probeTime, 5, func() { tensor.Mul(dst, a, b) })
		vals[fmt.Sprintf("tensor.gemm_gflops.%dx%dx%d", sh[0], sh[1], sh[2])] = tensor.GemmFLOPs(sh[0], sh[1], sh[2]) / ns
		worstAllocs = max(worstAllocs, allocs)
	}
	vals["tensor.gemm_allocs_per_op"] = worstAllocs
}

// codecProbe measures the FP16 and CSR wire codecs over the revealed E
// and F tensors of one transformer op, masked values as the exchange
// sends them.
func codecProbe(pool *rng.Pool, vals map[string]float64) error {
	var efs []*tensor.Matrix
	rawBytes := 0
	for _, sh := range xfShapes() {
		e := pool.NewUniform(sh[0], sh[1], -1.5, 1.5)
		f := pool.NewUniform(sh[1], sh[2], -1.5, 1.5)
		efs = append(efs, e, f)
		rawBytes += e.Bytes() + f.Bytes()
	}
	mbps := func(ns float64) float64 { return float64(rawBytes) / ns * 1e3 }
	bufs := make([][]byte, len(efs))
	dsts := make([]*tensor.Matrix, len(efs))
	for i, m := range efs {
		dsts[i] = tensor.New(m.Rows, m.Cols)
	}
	for _, c := range []struct {
		name   string
		encode func(buf []byte, m *tensor.Matrix) []byte
		decode func(dst *tensor.Matrix, buf []byte) (int, error)
	}{
		{"fp16", tensor.EncodeMatrixFP16, tensor.DecodeMatrixFP16Into},
		{"csr", tensor.AppendMatrixCSR, tensor.DecodeCSRInto},
	} {
		ns, allocs := measure(probeTime, 5, func() {
			for i, m := range efs {
				bufs[i] = c.encode(bufs[i][:0], m)
			}
		})
		vals["tensor."+c.name+"_encode_mbps"] = mbps(ns)
		vals["tensor."+c.name+"_encode_allocs_per_op"] = allocs / float64(len(efs))
		var decErr error
		ns, allocs = measure(probeTime, 5, func() {
			for i := range efs {
				if _, err := c.decode(dsts[i], bufs[i]); err != nil && decErr == nil {
					decErr = err
				}
			}
		})
		if decErr != nil {
			return fmt.Errorf("%s decode probe: %w", c.name, decErr)
		}
		vals["tensor."+c.name+"_decode_mbps"] = mbps(ns)
		vals["tensor."+c.name+"_decode_allocs_per_op"] = allocs / float64(len(efs))
	}
	return nil
}

// echoRTT times frame's round trip through a client framer to an echo
// goroutine on the far end, in µs, with allocations per round trip
// (both ends are in this process).
func echoRTT(frame []byte, pair func() (comm.Framer, comm.Framer, func(), error)) (us, allocs float64, err error) {
	client, echo, closeAll, err := pair()
	if err != nil {
		return 0, 0, err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			f, err := echo.ReadFrame()
			if err != nil {
				return
			}
			if err := echo.WriteFrame(f); err != nil {
				return
			}
		}
	}()
	us, allocs, err = roundTrip(client, frame)
	closeAll()
	<-done
	return us, allocs, err
}

// roundTrip times frame's round trip over c in µs, with allocations per
// round trip.
func roundTrip(c comm.Framer, frame []byte) (us, allocs float64, err error) {
	ns, allocs := measure(probeTime, 20, func() {
		if err != nil {
			return
		}
		if err = c.WriteFrame(frame); err == nil {
			_, err = c.ReadFrame()
		}
	})
	return ns / 1e3, allocs, err
}

// tcpPair returns both ends of one loopback TCP connection.
func tcpPair() (a, b *comm.Conn, err error) {
	ln, err := comm.Listen("127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	trackListener(ln)
	defer ln.Close()
	type res struct {
		c   *comm.Conn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		c, err := comm.Accept(ln)
		ch <- res{c, err}
	}()
	a, err = comm.Dial(ln.Addr().String())
	r := <-ch
	if err != nil || r.err != nil {
		if a != nil {
			a.Close()
		}
		if r.c != nil {
			r.c.Close()
		}
		return nil, nil, errors.Join(err, r.err)
	}
	return a, r.c, nil
}

func connPair() (comm.Framer, comm.Framer, func(), error) {
	a, b, err := tcpPair()
	if err != nil {
		return nil, nil, nil, err
	}
	return a, b, func() { a.Close(); b.Close() }, nil
}

func muxPair() (comm.Framer, comm.Framer, func(), error) {
	a, b, err := tcpPair()
	if err != nil {
		return nil, nil, nil, err
	}
	ma, mb := comm.NewMux(a, comm.MuxConfig{}), comm.NewMux(b, comm.MuxConfig{})
	closeAll := func() { ma.Close(); mb.Close() }
	sa, err := ma.Open(1)
	if err != nil {
		closeAll()
		return nil, nil, nil, err
	}
	sb, err := mb.Open(1)
	if err != nil {
		closeAll()
		return nil, nil, nil, err
	}
	return sa, sb, closeAll, nil
}

func supervisedPair() (comm.Framer, comm.Framer, func(), error) {
	ln, err := comm.Listen("127.0.0.1:0")
	if err != nil {
		return nil, nil, nil, err
	}
	trackListener(ln)
	cfg := comm.SupervisorConfig{ReconnectAttempts: 1}
	type res struct {
		s   *comm.SupervisedLink
		err error
	}
	ch := make(chan res, 1)
	go func() {
		s, err := comm.NewSupervisedLink(func() (comm.Framer, error) { return comm.Accept(ln) }, cfg)
		ch <- res{s, err}
	}()
	dial, err := comm.NewSupervisedLink(func() (comm.Framer, error) { return comm.Dial(ln.Addr().String()) }, cfg)
	r := <-ch
	if err != nil || r.err != nil {
		ln.Close()
		if dial != nil {
			dial.Close()
		}
		if r.s != nil {
			r.s.Close()
		}
		return nil, nil, nil, errors.Join(err, r.err)
	}
	return dial, r.s, func() { dial.Close(); r.s.Close(); ln.Close() }, nil
}

// relayProbe serves an echo backend behind fleet.Router.ServeFace and
// returns the router round trip minus the direct one, in µs.
func relayProbe(frame []byte) (float64, error) {
	backend, err := comm.Listen("127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	trackListener(backend)
	var echoWG sync.WaitGroup
	var connsMu sync.Mutex
	var conns []*comm.Conn
	echoWG.Add(1)
	go func() {
		defer echoWG.Done()
		for {
			c, err := comm.Accept(backend)
			if err != nil {
				return
			}
			connsMu.Lock()
			conns = append(conns, c)
			connsMu.Unlock()
			echoWG.Add(1)
			go func() {
				defer echoWG.Done()
				for {
					f, err := c.ReadFrame()
					if err != nil {
						return
					}
					if c.WriteFrame(f) != nil {
						return
					}
				}
			}()
		}
	}()
	defer func() {
		backend.Close()
		connsMu.Lock()
		for _, c := range conns {
			c.Close()
		}
		connsMu.Unlock()
		echoWG.Wait()
	}()

	reg := fleet.NewRegistry(fleet.DefaultVnodes)
	if err := reg.Join(fleet.Replica{Name: "echo", Addr: [2]string{backend.Addr().String(), backend.Addr().String()}}); err != nil {
		return 0, err
	}
	face, err := comm.Listen("127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	trackListener(face)
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- fleet.NewRouter(fleet.RouterConfig{Registry: reg}).ServeFace(ctx, face, 0) }()
	defer func() {
		cancel()
		<-served
	}()

	rtt := func(target string) (float64, error) {
		c, err := comm.Dial(target)
		if err != nil {
			return 0, err
		}
		defer c.Close()
		c.SetTimeouts(10*time.Second, 10*time.Second)
		us, _, err := roundTrip(c, frame)
		return us, err
	}
	direct, err := rtt(backend.Addr().String())
	if err != nil {
		return 0, err
	}
	routed, err := rtt(face.Addr().String())
	if err != nil {
		return 0, err
	}
	return routed - direct, nil
}

// feedProbe serves a dealer on loopback and returns how many MLP-shape
// triplets per second both parties of one pair receive through
// tripletpool.DealerClient. Both parties take the same triplets in
// lockstep rounds, so neither can run ahead of the dealer's window.
func feedProbe(seed uint64) (float64, error) {
	ln, err := comm.Listen("127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	trackListener(ln)
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- tripletpool.NewDealer(tripletpool.DealerConfig{Seed: seed}).Serve(ctx, ln) }()
	defer func() {
		cancel()
		<-served
	}()
	var clients [2]*tripletpool.DealerClient
	for p := range clients {
		c, err := tripletpool.NewDealerClient(func() (*comm.Conn, error) { return comm.Dial(ln.Addr().String()) },
			p, 1, tripletpool.FeedConfig{})
		if err != nil {
			return 0, err
		}
		defer c.Close()
		clients[p] = c
	}
	round := func() error {
		errs := make([]error, 2)
		var wg sync.WaitGroup
		for p, c := range clients {
			wg.Add(1)
			go func(p int, c *tripletpool.DealerClient) {
				defer wg.Done()
				for _, sh := range mlpShapes {
					if _, _, err := c.Next(sh[0], sh[1], sh[2]); err != nil {
						errs[p] = err
						return
					}
				}
			}(p, c)
		}
		wg.Wait()
		return errors.Join(errs...)
	}
	if err := round(); err != nil {
		return 0, err
	}
	t0 := time.Now()
	n := 0
	for time.Since(t0) < 2*probeTime {
		if err := round(); err != nil {
			return 0, err
		}
		n += len(mlpShapes)
	}
	return float64(n) / time.Since(t0).Seconds(), nil
}
