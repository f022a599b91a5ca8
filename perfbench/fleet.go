package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"parsecureml/internal/comm"
	"parsecureml/internal/obs"
)

// topology is one serving deployment on loopback: a dealer, a router and one
// replica pair, each a separate process built from the checkout.
type topology struct {
	dealer, router, s0, s1 *proc
	face0, face1           string
}

// drillServerFlags are the fleet drill's deployment flags
// (scripts/fleet_drill.sh): default framing, no batching, raw codec.
var drillServerFlags = []string{"-peer-heartbeat", "100ms", "-max-sessions", "256", "-triplet-feed-depth", "2"}

// binDir is where run.sh puts the binaries it builds.
var binDir = filepath.Join(buildDir, "bin")

// startFleet brings the topology up in dependency order, waiting on each
// process's own readiness line rather than sleeping, and returns once
// the router has the pair on its ring and both parties accept clients.
func startFleet(dealerSeed uint64, serverFlags []string) (f *topology, err error) {
	ports, err := freePorts(11)
	if err != nil {
		return nil, err
	}
	dealerAddr, face0, face1, health := addr(ports[0]), addr(ports[1]), addr(ports[2]), addr(ports[3])
	a0, a1, peer := addr(ports[4]), addr(ports[5]), addr(ports[6])
	dbg := func(i int) string { return addr(ports[7+i]) }
	bin := func(name string) string { return filepath.Join(binDir, name) }

	f = &topology{face0: face0, face1: face1}
	defer func() {
		if err != nil {
			f.stop()
		}
	}()
	const ready = 30 * time.Second
	if f.dealer, err = spawn("dealer", bin("psml-dealer"), dbg(0),
		"-listen", dealerAddr, "-seed", strconv.FormatUint(dealerSeed, 10), "-debug-addr", dbg(0)); err != nil {
		return f, err
	}
	if err = f.dealer.waitLine("psml-dealer serving", ready); err != nil {
		return f, err
	}
	if f.router, err = spawn("router", bin("psml-router"), dbg(1),
		"-listen0", face0, "-listen1", face1, "-health-listen", health,
		"-health-heartbeat", "100ms", "-backend-timeout", "20s", "-debug-addr", dbg(1)); err != nil {
		return f, err
	}
	if err = f.router.waitLine("psml-router faces on", ready); err != nil {
		return f, err
	}
	common := []string{"-dealer-dial", dealerAddr, "-pair-id", "1"}
	common = append(common, serverFlags...)
	args0 := append([]string{"-party", "0", "-listen", a0, "-peer-listen", peer, "-debug-addr", dbg(2),
		"-router-register", health, "-replica-name", "pair-a", "-advertise-party0", a0, "-advertise-party1", a1}, common...)
	if f.s0, err = spawn("server0", bin("psml-server"), dbg(2), args0...); err != nil {
		return f, err
	}
	if err = f.s0.waitLine("waiting for peer on", ready); err != nil {
		return f, err
	}
	args1 := append([]string{"-party", "1", "-listen", a1, "-peer-dial", peer, "-debug-addr", dbg(3)}, common...)
	if f.s1, err = spawn("server1", bin("psml-server"), dbg(3), args1...); err != nil {
		return f, err
	}
	for _, w := range []struct {
		p    *proc
		line string
	}{
		{f.s0, "serving clients on"},
		{f.s1, "serving clients on"},
		{f.router, "replica_joined"},
	} {
		if err = w.p.waitLine(w.line, ready); err != nil {
			return f, err
		}
	}
	return f, nil
}

func (f *topology) procs() []*proc {
	var ps []*proc
	for _, p := range []*proc{f.dealer, f.router, f.s0, f.s1} {
		if p != nil {
			ps = append(ps, p)
		}
	}
	return ps
}

func (f *topology) stop() {
	for _, p := range f.procs() {
		p.stop()
	}
}

// logs returns the tail of every process's log, for error reports.
func (f *topology) logs() string {
	var b strings.Builder
	for _, p := range f.procs() {
		fmt.Fprintf(&b, "--- %s\n%s\n", p.name, p.tail(15))
	}
	return b.String()
}

// snapshot reads the cumulative counters of the whole serving path:
// every /metrics sample summed over the four processes and the load
// generator, the same samples again summed per process role under a
// "client:", "dealer:", "router:" or "server:" prefix (the two servers
// share one), and the CPU seconds of each role.
func (f *topology) snapshot() (snap, error) {
	s := snap{}
	add := func(role string, own snap) {
		for k, v := range own {
			s[k] += v
			s[role+":"+k] += v
		}
	}
	var buf bytes.Buffer
	obs.Default.WritePrometheus(&buf)
	self := snap{}
	if err := parseMetrics(&buf, self); err != nil {
		return nil, err
	}
	add("client", self)
	c, err := procCPU(0)
	if err != nil {
		return nil, err
	}
	s["cpu.client"] = c
	for _, p := range f.procs() {
		own := snap{}
		if err := scrape(p.debug, own); err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		role := strings.TrimRight(p.name, "01")
		add(role, own)
		c, err := procCPU(p.pid())
		if err != nil {
			return nil, err
		}
		s["cpu."+role] += c
	}
	return s, nil
}

// pids lists the four system processes' ids.
func (f *topology) pids() []int {
	var ids []int
	for _, p := range f.procs() {
		ids = append(ids, p.pid())
	}
	return ids
}

// snap maps a metric sample ("name{labels}") or a derived counter to its
// cumulative value.
type snap map[string]float64

// delta returns later-minus-earlier for every key of later.
func (s snap) delta(earlier snap) snap {
	d := snap{}
	for k, v := range s {
		d[k] = v - earlier[k]
	}
	return d
}

var httpClient = &http.Client{Timeout: 5 * time.Second, Transport: &http.Transport{DisableKeepAlives: true}}

func scrape(debugAddr string, into snap) error {
	resp, err := httpClient.Get("http://" + debugAddr + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return parseMetrics(resp.Body, into)
}

// parseMetrics adds every sample of a Prometheus text exposition to into.
func parseMetrics(r io.Reader, into snap) error {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return fmt.Errorf("malformed metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return fmt.Errorf("malformed metrics line %q", line)
		}
		into[line[:i]] += v
	}
	return sc.Err()
}

// dialSession opens one client session: the protocol's pair of face
// connections through the router.
func dialSession(face0, face1 string) (c0, c1 *comm.Conn, err error) {
	if c0, err = comm.Dial(face0); err != nil {
		return nil, nil, err
	}
	if c1, err = comm.Dial(face1); err != nil {
		c0.Close()
		return nil, nil, err
	}
	c0.SetTimeouts(60*time.Second, 60*time.Second)
	c1.SetTimeouts(60*time.Second, 60*time.Second)
	return c0, c1, nil
}
