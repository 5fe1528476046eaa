package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// smokeScale is each workload's tiny scale; perfbench/refs holds their
// references for seed 1.
var smokeScale = map[string]string{"fig8": "0.01", "rc-contention": "0.01", "oracle": "0.05"}

type benchSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// runBench runs the built benchmark and returns its parsed result line and
// standard error.
func runBench(t *testing.T, bin string, args ...string) (result, string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("perfbench %v: %v\n%s", args, err, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("perfbench %v: last line is not a result: %v", args, err)
	}
	return res, stderr.String()
}

// TestSmoke runs every workload of BENCHMARK.json at a tiny scale, traced
// and untraced, and checks that each run is correct, checked against a
// stored reference, and emits exactly the metrics BENCHMARK.json names,
// with their units.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the benchmark")
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(t.TempDir(), "perfbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	work := t.TempDir()

	for _, w := range spec.Workloads {
		scale, ok := smokeScale[w.Name]
		if !ok {
			t.Fatalf("workload %s has no smoke scale", w.Name)
		}
		for trace, want := range map[string][]struct{ Name, Unit string }{"0": spec.EndToEnd, "1": spec.PerLayer} {
			res, stderr := runBench(t, bin, "-workload", w.Name, "-scale", scale, "-seconds", "1",
				"-trace", trace, "-refs", "refs", "-workdir", work)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %s: correct=%v attempted=%d failed=%d\n%s", w.Name, trace, res.Correct, res.Attempted, res.Failed, stderr)
			}
			if strings.Contains(stderr, "no reference") {
				t.Errorf("%s trace %s: ran without a reference: %s", w.Name, trace, stderr)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %s: %d metrics, BENCHMARK.json names %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace %s: metric %s missing", w.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace %s: metric %s unit %q, want %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				case trace == "0" && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestReferenceMismatchFails checks that an output differing from its
// stored reference makes the run incorrect.
func TestReferenceMismatchFails(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the benchmark")
	}
	bin := filepath.Join(t.TempDir(), "perfbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	refs := t.TempDir()
	ref, err := os.ReadFile(filepath.Join("refs", "oracle-scale0.05.txt"))
	if err != nil {
		t.Fatal(err)
	}
	bad := strings.Replace(string(ref), " match,", " matches,", 1)
	if err := os.WriteFile(filepath.Join(refs, "oracle-scale0.05.txt"), []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	res, _ := runBench(t, bin, "-workload", "oracle", "-scale", "0.05", "-seconds", "1",
		"-trace", "0", "-refs", refs, "-workdir", t.TempDir())
	if res.Correct || res.Failed == 0 {
		t.Errorf("mismatching reference: correct=%v failed=%d, want an incorrect run", res.Correct, res.Failed)
	}
}
