package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"testing"
)

// TestMain lets the determinism test run the benchmark in a fresh process:
// the test binary re-executes itself with PERFBENCH_MAIN=1.
func TestMain(m *testing.M) {
	if os.Getenv("PERFBENCH_MAIN") == "1" {
		os.Exit(run())
	}
	os.Exit(m.Run())
}

type result struct {
	Correct   bool      `json:"correct"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// runShort runs a short benchmark of workload in a fresh process.
func runShort(t *testing.T, workload string) result {
	t.Helper()
	cmd := exec.Command(os.Args[0], "--workload", workload, "--seed", "7",
		"--seconds", "1", "--ops", "6000", "--trace", "0", "--out", t.TempDir())
	cmd.Env = append(os.Environ(), "PERFBENCH_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("%s: %v\n%s", workload, err, stderr.String())
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		t.Fatalf("%s: last line is not a result: %v", workload, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d", workload, res.Correct, res.Attempted, res.Failed)
	}
	return res
}

// TestDeterminism runs every workload twice with one seed: virtual time
// and copies must repeat exactly, the live heap to 0.1% (hash-seeded
// runtime structures such as sync.Map's trie vary by a few KiB per
// process) and allocations to 1%.
func TestDeterminism(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a, b := runShort(t, w.name), runShort(t, w.name)
			for _, name := range []string{"virt_us_per_op", "copies_per_op"} {
				if x, y := a.Metrics[name].Value, b.Metrics[name].Value; x != y {
					t.Errorf("%s differs between runs: %v vs %v", name, x, y)
				}
			}
			for name, tol := range map[string]float64{"heap_live_mib": 0.001, "allocs_per_op": 0.01} {
				x, y := a.Metrics[name].Value, b.Metrics[name].Value
				if math.Abs(x-y) > tol*math.Max(x, y) {
					t.Errorf("%s differs by more than %g%%: %v vs %v", name, 100*tol, x, y)
				}
			}
		})
	}
}

// TestModelCatchesMismatch checks that the payload check rejects a stale
// version, the wrong object and a corrupted byte.
func TestModelCatchesMismatch(t *testing.T) {
	b := make([]byte, blockSize)
	stamp(b, 42, 3)
	if !stamped(b, 42, 3) {
		t.Fatal("fresh payload rejected")
	}
	if stamped(b, 42, 2) || stamped(b, 41, 3) {
		t.Fatal("payload accepted for the wrong version or object")
	}
	b[blockSize-1] ^= 1
	if stamped(b, 42, 3) {
		t.Fatal("corrupted payload accepted")
	}
}

// TestStreamsRepeat checks that a seed fixes the generated inputs.
func TestStreamsRepeat(t *testing.T) {
	for _, w := range workloads {
		a, b, c := w.stream(3, 5000), w.stream(3, 5000), w.stream(4, 5000)
		same := func(x, y []op) bool {
			for i := range x {
				if x[i] != y[i] {
					return false
				}
			}
			return true
		}
		if !same(a, b) {
			t.Errorf("%s: one seed gave two streams", w.name)
		}
		if same(a, c) {
			t.Errorf("%s: two seeds gave one stream", w.name)
		}
	}
}
