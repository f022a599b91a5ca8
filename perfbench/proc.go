package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// tracker remembers every child process and loopback port the run
// used, so the hygiene check can prove none outlived it.
var tracker struct {
	mu    sync.Mutex
	procs []*proc
	ports []int
}

// freePorts takes n distinct loopback ports from the kernel. All n
// listeners are held open until every port is known, so the ports are
// distinct; they are released just before returning.
func freePorts(n int) ([]int, error) {
	lns := make([]net.Listener, 0, n)
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	ports := make([]int, 0, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("free port: %w", err)
		}
		lns = append(lns, ln)
		ports = append(ports, ln.Addr().(*net.TCPAddr).Port)
	}
	tracker.mu.Lock()
	tracker.ports = append(tracker.ports, ports...)
	tracker.mu.Unlock()
	return ports, nil
}

// trackListener records a listener the benchmark opens in-process.
func trackListener(ln net.Listener) {
	tracker.mu.Lock()
	tracker.ports = append(tracker.ports, ln.Addr().(*net.TCPAddr).Port)
	tracker.mu.Unlock()
}

func addr(port int) string { return "127.0.0.1:" + strconv.Itoa(port) }

// proc is one spawned system process. Its merged stdout/stderr is kept
// in memory so the benchmark can wait on readiness lines and print the
// log tail when something goes wrong.
type proc struct {
	name  string
	cmd   *exec.Cmd
	debug string // -debug-addr

	mu      sync.Mutex
	lines   []string
	changed chan struct{} // closed and replaced on every new line
	exited  chan struct{} // closed once the process has been reaped
}

// spawn starts bin with args. Output is scanned line by line.
func spawn(name, bin, debug string, args ...string) (*proc, error) {
	p := &proc{name: name, debug: debug, changed: make(chan struct{}), exited: make(chan struct{})}
	p.cmd = exec.Command(bin, args...)
	// A child must not outlive the benchmark even if it is killed.
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	r, w, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	p.cmd.Stdout, p.cmd.Stderr = w, w
	if err := p.cmd.Start(); err != nil {
		r.Close()
		w.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	w.Close()
	tracker.mu.Lock()
	tracker.procs = append(tracker.procs, p)
	tracker.mu.Unlock()
	go func() {
		defer r.Close()
		sc := bufio.NewScanner(r)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			p.mu.Lock()
			if len(p.lines) < 10000 {
				p.lines = append(p.lines, sc.Text())
			}
			close(p.changed)
			p.changed = make(chan struct{})
			p.mu.Unlock()
		}
		_, _ = io.Copy(io.Discard, r) // an over-long line: keep draining so the child never blocks
		_ = p.cmd.Wait()              // killed on purpose: the exit status carries nothing
		close(p.exited)
	}()
	return p, nil
}

// waitLine blocks until a line containing substr appears, the process
// exits, or the timeout passes.
func (p *proc) waitLine(substr string, timeout time.Duration) error {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	seen := 0
	for {
		p.mu.Lock()
		for ; seen < len(p.lines); seen++ {
			if strings.Contains(p.lines[seen], substr) {
				p.mu.Unlock()
				return nil
			}
		}
		ch := p.changed
		p.mu.Unlock()
		select {
		case <-ch:
		case <-p.exited:
			return fmt.Errorf("%s exited before logging %q:\n%s", p.name, substr, p.tail(20))
		case <-deadline.C:
			return fmt.Errorf("%s did not log %q within %v:\n%s", p.name, substr, timeout, p.tail(20))
		}
	}
}

func (p *proc) tail(n int) string {
	p.mu.Lock()
	defer p.mu.Unlock()
	lo := max(0, len(p.lines)-n)
	return "  " + strings.Join(p.lines[lo:], "\n  ")
}

// stop kills the process and waits until it has been reaped.
func (p *proc) stop() {
	select {
	case <-p.exited:
		return
	default:
	}
	_ = p.cmd.Process.Signal(syscall.SIGKILL) // already exiting is fine: exited closes either way
	<-p.exited
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

// procCPU returns the user+system CPU seconds pid has used so far.
func procCPU(pid int) (float64, error) {
	path := "/proc/self/stat"
	if pid > 0 {
		path = fmt.Sprintf("/proc/%d/stat", pid)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("%s: malformed", path)
	}
	f := strings.Fields(s[i+1:])
	// Fields after the command: state is [0], utime [11], stime [12].
	if len(f) < 13 {
		return 0, fmt.Errorf("%s: malformed", path)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("%s: malformed", path)
	}
	return (ut + st) / clockTicks, nil
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat times; Linux
// fixes it at 100 on every architecture Go supports.
const clockTicks = 100

// procPeakRSSMB returns pid's peak resident set (VmHWM) in MB.
func procPeakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid > 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("%s: VmHWM: %w", path, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("%s: no VmHWM", path)
}

// resetPeakRSS restarts pid's VmHWM from its current RSS, so a later
// read gives the peak of the measured window alone (Linux clear_refs).
func resetPeakRSS(pid int) error {
	path := "/proc/self/clear_refs"
	if pid > 0 {
		path = fmt.Sprintf("/proc/%d/clear_refs", pid)
	}
	return os.WriteFile(path, []byte("5"), 0)
}

// rssSlice is the length of the slices a window's peak RSS is taken
// over. The peak of one Go process over a whole window depends on the
// single largest overshoot of its garbage collector, which varies from
// run to run by up to a fifth; the median over slices does not.
const rssSlice = 3 * time.Second

// rssSampler takes the summed peak RSS (VmHWM) of a set of processes
// over consecutive slices of a window.
type rssSampler struct {
	pids  []int
	stop  chan struct{}
	done  chan struct{}
	peaks []float64
	err   error
}

// sampleRSS resets the processes' peaks and starts slicing; pid 0 is
// this process.
func sampleRSS(pids []int) (*rssSampler, error) {
	s := &rssSampler{pids: pids, stop: make(chan struct{}), done: make(chan struct{})}
	if err := s.reset(); err != nil {
		return nil, err
	}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssSlice)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				if err := s.slice(); err != nil {
					s.err = err
					return
				}
			}
		}
	}()
	return s, nil
}

func (s *rssSampler) reset() error {
	for _, pid := range s.pids {
		if err := resetPeakRSS(pid); err != nil {
			return err
		}
	}
	return nil
}

// slice records the summed peak since the last reset and resets.
func (s *rssSampler) slice() error {
	total := 0.0
	for _, pid := range s.pids {
		v, err := procPeakRSSMB(pid)
		if err != nil {
			return err
		}
		total += v
	}
	s.peaks = append(s.peaks, total)
	return s.reset()
}

// finish ends the window and returns the median of its whole slices'
// peaks; the partial slice at the end counts only in a window shorter
// than one slice.
func (s *rssSampler) finish() (float64, error) {
	close(s.stop)
	<-s.done
	if s.err != nil {
		return 0, s.err
	}
	if len(s.peaks) == 0 {
		if err := s.slice(); err != nil {
			return 0, err
		}
	}
	return median(s.peaks), nil
}

// hygiene proves a run left nothing behind: every child reaped, every
// port it used free again, no new entry in the checkout's temp dir.
type hygiene struct {
	tmp    string
	before map[string]bool
}

func newHygiene() (*hygiene, error) {
	h := &hygiene{tmp: filepath.Join(buildDir, "tmp"), before: map[string]bool{}}
	if err := os.MkdirAll(h.tmp, 0o755); err != nil {
		return nil, err
	}
	ents, err := os.ReadDir(h.tmp)
	if err != nil {
		return nil, err
	}
	for _, e := range ents {
		h.before[e.Name()] = true
	}
	return h, nil
}

func (h *hygiene) check() error {
	tracker.mu.Lock()
	procs := append([]*proc(nil), tracker.procs...)
	ports := append([]int(nil), tracker.ports...)
	tracker.mu.Unlock()
	var errs []error
	for _, p := range procs {
		select {
		case <-p.exited:
		default:
			errs = append(errs, fmt.Errorf("%s (pid %d) left running", p.name, p.pid()))
			p.stop()
		}
		if _, err := os.Stat(fmt.Sprintf("/proc/%d", p.pid())); err == nil {
			errs = append(errs, fmt.Errorf("%s (pid %d) still present after reaping", p.name, p.pid()))
		}
	}
	for _, port := range ports {
		ln, err := net.Listen("tcp", addr(port))
		if err != nil {
			errs = append(errs, fmt.Errorf("port %d still held: %w", port, err))
			continue
		}
		ln.Close()
	}
	ents, err := os.ReadDir(h.tmp)
	if err != nil {
		errs = append(errs, err)
	}
	for _, e := range ents {
		if !h.before[e.Name()] {
			errs = append(errs, fmt.Errorf("temp entry %s left behind", filepath.Join(h.tmp, e.Name())))
		}
	}
	return errors.Join(errs...)
}

// fingerprint names the host and the source the run measured.
func fingerprint() string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d GOARCH=%s go=%s commit=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.GOARCH, runtime.Version(), sourceID())
}

// sourceID is the git commit when the checkout is a repository, else a
// digest of every Go source and module file (a benchmark checkout
// carries no .git).
func sourceID() string {
	if b, err := os.ReadFile(filepath.Join(".git", "HEAD")); err == nil {
		head := strings.TrimSpace(string(b))
		if ref, ok := strings.CutPrefix(head, "ref: "); ok {
			if c, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
				return strings.TrimSpace(string(c))
			}
		} else {
			return head
		}
	}
	var files []string
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are left out of the digest
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sum := sha256.New() // WalkDir visits in lexical order, so the digest is stable
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(sum, "%s %d\n", f, len(b))
		sum.Write(b)
	}
	return "src-sha256:" + hex.EncodeToString(sum.Sum(nil))[:16]
}
