package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"softwatt"
)

var (
	buildOnce sync.Once
	binPath   string
	buildErr  error
	binDir    string
)

// benchBinary builds the benchmark once per test process.
func benchBinary(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		binDir, buildErr = os.MkdirTemp("", "swbench-test")
		if buildErr != nil {
			return
		}
		binPath = filepath.Join(binDir, "swbench")
		if out, err := exec.Command("go", "build", "-o", binPath, ".").CombinedOutput(); err != nil {
			buildErr = fmt.Errorf("%v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatalf("building the benchmark: %v", buildErr)
	}
	return binPath
}

func TestMain(m *testing.M) {
	code := m.Run()
	if binDir != "" {
		os.RemoveAll(binDir)
	}
	os.Exit(code)
}

// runBench runs the benchmark binary from the repository root, with the
// benchmark directory dir, and returns its final result line.
func runBench(t *testing.T, dir string, args ...string) result {
	t.Helper()
	abs, err := filepath.Abs(dir)
	if err != nil {
		t.Fatal(err)
	}
	args = append([]string{"-dir", abs, "-build", t.TempDir()}, args...)
	cmd := exec.Command(benchBinary(t), args...)
	cmd.Dir = ".."
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("swbench %v: %v\n%s", args, err, stderr.String())
	}
	var res result
	dec := json.NewDecoder(bytes.NewReader(lastLine(out)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("last line %q: %v", lastLine(out), err)
	}
	return res
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestWorkloadMetrics runs each workload at the smallest size the command
// allows (one repetition) untraced and traced, and checks that it reports
// exactly its metric set, each with a valid name and a unit, and that every
// output was correct.
func TestWorkloadMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloadNames {
		for _, trace := range []string{"0", "1"} {
			res := runBench(t, ".", "-workload", w, "-seed", "7", "-seconds", "1", "-trace", trace)
			want := endToEnd
			if trace == "1" {
				want = layerMetrics()
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%s: %d metrics, want %d", w, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				v, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%s: metric %s missing", w, trace, m.Name)
				case !nameRE.MatchString(m.Name) || v.Unit == "" || v.Unit != m.Unit:
					t.Errorf("%s trace=%s: metric %q has unit %q", w, trace, m.Name, v.Unit)
				}
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
		}
	}
}

// benchmarkFile is BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Seconds   int      `json:"run_seconds"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metric `json:"per_layer"`
}

// TestBenchmarkFile checks BENCHMARK.json against the metric tables: the
// same workloads and metrics, and every per-layer metric naming the
// end-to-end metric and workload it should move.
func TestBenchmarkFile(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	workloads := map[string]bool{}
	for i, w := range bf.Workloads {
		if i >= len(workloadNames) || w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q, the benchmark runs %v", i, w.Name, workloadNames)
		}
		workloads[w.Name] = true
	}
	if len(bf.Workloads) != len(workloadNames) {
		t.Errorf("%d workloads, the benchmark runs %d", len(bf.Workloads), len(workloadNames))
	}
	e2e := map[string]bool{"none": true}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Errorf("%d end-to-end metrics, the benchmark reports %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		if i < len(endToEnd) && (metric{m.Name, m.Unit, m.Better}) != endToEnd[i] {
			t.Errorf("end_to_end[%d] = %+v, the benchmark reports %+v", i, m, endToEnd[i])
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		e2e[m.Name] = true
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Errorf("%d per-layer metrics, the traced run reports %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		if i >= len(perLayer) || m != perLayer[i].metric {
			t.Errorf("per_layer[%d] = %+v does not match the traced run's table", i, m)
			continue
		}
		if len(perLayer[i].Moves) == 0 {
			t.Errorf("%s names no end-to-end metric it moves", m.Name)
		}
		for _, mv := range perLayer[i].Moves {
			if !e2e[mv.Metric] || !workloads[mv.Workload] {
				t.Errorf("%s moves %s on %s, which BENCHMARK.json does not define", m.Name, mv.Metric, mv.Workload)
			}
		}
	}
}

// TestCorruptReferenceFailsOperation corrupts one reference hash and checks
// that the run completes and reports the affected operation as failed.
func TestCorruptReferenceFailsOperation(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload")
	}
	rf, err := loadRefs("refs.json")
	if err != nil {
		t.Fatal(err)
	}
	p := rf.Power["mipsy/jess"]
	p.SampledSHA256 = strings.Repeat("0", 64)
	rf.Power["mipsy/jess"] = p
	dir := t.TempDir()
	data, err := json.Marshal(rf)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "refs.json"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	// One second of measuring makes minReps repetitions; each one's cold
	// jess check fails, and nothing else does.
	res := runBench(t, dir, "-workload", "sampled-mipsy", "-seconds", "1")
	if res.Correct || res.Failed != minReps || res.Attempted <= minReps {
		t.Errorf("correct=%v attempted=%d failed=%d, want %d failed operations", res.Correct, res.Attempted, res.Failed, minReps)
	}
}

// TestGoldenReferences checks that the compress references agree with the
// repository's golden run logs.
func TestGoldenReferences(t *testing.T) {
	rf, err := loadRefs("refs.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []string{"mipsy", "mxs"} {
		digest, err := os.ReadFile("../testdata/golden/compress-" + c + ".digest")
		if err != nil {
			t.Fatal(err)
		}
		log, err := os.ReadFile("../testdata/golden/compress-" + c + ".swlog")
		if err != nil {
			t.Fatal(err)
		}
		key := cellKey(softwatt.RunSpec{Benchmark: "compress", Options: softwatt.Options{Core: c}})
		got := rf.Logs[key]
		if got.Config != strings.TrimSpace(string(digest)) || got.SHA256 != sha256Hex(log) {
			t.Errorf("%s reference %+v does not match testdata/golden", key, got)
		}
	}
}
