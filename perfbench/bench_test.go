package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// benchSpec is the part of BENCHMARK.json the self-test checks against.
type benchSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

// benchRun is one benchmark invocation's output.
type benchRun struct {
	result     result
	metricRows []string // names on the human-readable "metric" lines
}

// runBench runs the benchmark the way its command does, from the
// repository root, briefly.
func runBench(t *testing.T, workload, trace string, extra ...string) benchRun {
	t.Helper()
	args := append([]string{"perfbench/run.sh", "--workload", workload, "--seed", "3",
		"--seconds", "2", "--trace", trace}, extra...)
	cmd := exec.Command("bash", args...)
	cmd.Dir = ".."
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("%s --trace %s: %v\n%s", workload, trace, err, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var raw map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
		t.Fatalf("%s: last line is not JSON: %v", workload, err)
	}
	var keys []string
	for k := range raw {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if want := []string{"attempted", "correct", "failed", "metrics"}; !reflect.DeepEqual(keys, want) {
		t.Fatalf("%s: result keys %v, want %v", workload, keys, want)
	}
	var r benchRun
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r.result); err != nil {
		t.Fatal(err)
	}
	for _, l := range lines {
		if f := strings.Fields(l); len(f) >= 3 && f[0] == "metric" {
			r.metricRows = append(r.metricRows, f[1])
		}
	}
	if r.result.Attempted < 1 {
		t.Fatalf("%s: attempted %d", workload, r.result.Attempted)
	}
	return r
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// checkMetrics requires exactly the named metrics, each with its unit.
func checkMetrics(t *testing.T, label string, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics, want %d", label, len(got), len(want))
	}
	for _, w := range want {
		m, ok := got[w.Name]
		if !ok {
			t.Errorf("%s: metric %s missing", label, w.Name)
			continue
		}
		if m.Unit != w.Unit {
			t.Errorf("%s: metric %s unit %q, want %q", label, w.Name, m.Unit, w.Unit)
		}
	}
}

func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			plain := runBench(t, w.Name, "0")
			if !plain.result.Correct || plain.result.Failed != 0 {
				t.Errorf("untraced run: correct=%v failed=%d", plain.result.Correct, plain.result.Failed)
			}
			checkMetrics(t, "untraced", plain.result.Metrics, spec.EndToEnd)
			for _, m := range plain.result.Metrics {
				if m.Value == 0 {
					t.Errorf("untraced run reported a zero end-to-end metric: %+v", plain.result.Metrics)
					break
				}
			}

			traced := runBench(t, w.Name, "1")
			if !traced.result.Correct {
				t.Errorf("traced run: correct=false, failed=%d", traced.result.Failed)
			}
			checkMetrics(t, "traced", traced.result.Metrics, spec.PerLayer)
			if !reflect.DeepEqual(plain.metricRows, traced.metricRows) {
				t.Errorf("end-to-end lines differ: untraced %v, traced %v", plain.metricRows, traced.metricRows)
			}
		})
	}
}

func TestCorruptedResultsRaiseFailRatio(t *testing.T) {
	for _, w := range loadSpec(t).Workloads {
		t.Run(w.Name, func(t *testing.T) {
			r := runBench(t, w.Name, "0", "--corrupt-every", "3")
			if r.result.Failed == 0 || r.result.Correct {
				t.Errorf("corrupting every 3rd op left failed=%d correct=%v", r.result.Failed, r.result.Correct)
			}
		})
	}
}

func TestSetupFailsOutsideACheckout(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "perfbench"), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"run.sh", "go.mod"} {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "perfbench", f), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cmd := exec.Command("bash", "perfbench/run.sh", "--workload", "mlp_dealer", "--seconds", "1")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err == nil {
		t.Fatalf("run outside a checkout succeeded:\n%s", out)
	}
	if strings.Contains(string(out), `"metrics"`) {
		t.Fatalf("run outside a checkout printed a result:\n%s", out)
	}
}
