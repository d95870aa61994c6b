// Command swbench is SoftWatt's benchmark: three workloads that run the
// paper pipeline end to end on the detailed out-of-order core (paper-mxs),
// the in-order core (fig9-mipsy) and the fast-forward tier behind sampling
// (sampled-mipsy). See README.md in this directory.
//
//	bash swbench/run.sh --workload fig9-mipsy --seed 3 --seconds 40 --trace 0
//
// The command measures for the given number of seconds. Each repetition of
// the workload runs in a fresh child process, driven from one goroutine;
// extra set-up-only processes make the set-up figure a median over many
// fresh processes. The last line of standard output is one JSON object
// with the operations attempted and failed, whether every output matched
// its reference, and the metrics: the end-to-end ones, or with --trace 1
// the per-layer ones of a traced run.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// setupProcesses is how many set-up-only processes each untraced run
// starts. Set-up time is bimodal (the first 128 MiB RAM allocation is
// sometimes several times slower), so its median needs many samples.
const setupProcesses = 24

// minReps is the fewest repetitions a run makes, even past its measuring
// time, so that the per-part medians and the peak-RSS minimum have
// samples to choose from.
const minReps = 3

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	dir      string // the benchmark's directory (refs.json)
	build    string // scratch directory for logs, caches and spans
	rev      string
}

func main() {
	var o options
	var traceN int
	flag.StringVar(&o.workload, "workload", "", "workload: paper-mxs, fig9-mipsy or sampled-mipsy")
	flag.Int64Var(&o.seed, "seed", 0, "input seed; 0 runs the paper's cell order")
	flag.IntVar(&o.seconds, "seconds", 10, "how long to measure")
	flag.IntVar(&traceN, "trace", 0, "1 runs the traced run and reports per-layer metrics")
	flag.StringVar(&o.dir, "dir", "swbench", "the benchmark's directory")
	flag.StringVar(&o.build, "build", filepath.Join(".bench_build", "swbench"), "scratch directory for run logs, caches and spans")
	flag.StringVar(&o.rev, "rev", "", "source revision recorded in the provenance")
	child := flag.String("child", "", "run one workload process: rep, setup or traced (used by the benchmark itself)")
	work := flag.String("work", "", "a child's scratch directory")
	writeRefsFlag := flag.Bool("write-refs", false, "simulate every reference output and rewrite refs.json")
	flag.Parse()
	o.trace = traceN == 1

	var err error
	switch {
	case *writeRefsFlag:
		err = writeRefs(filepath.Join(o.dir, "refs.json"), o.build)
	case *child != "":
		err = runChild(*child, o, *work)
	default:
		err = runParent(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "swbench:", err)
		os.Exit(1)
	}
}

func knownWorkload(name string) bool {
	for _, w := range workloadNames {
		if w == name {
			return true
		}
	}
	return false
}

// runChild is one workload process: it prints its repResult as one JSON
// line.
func runChild(mode string, o options, work string) error {
	res, err := child(mode, o, work)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

func child(mode string, o options, work string) (*repResult, error) {
	if mode == "setup" {
		if err := setup(nil, o.workload, firstBenchmark(o.workload, o.seed)); err != nil {
			return nil, err
		}
		return &repResult{SetupDoneNs: time.Now().UnixNano()}, nil
	}
	rf, err := loadRefs(filepath.Join(o.dir, "refs.json"))
	if err != nil {
		return nil, err
	}
	switch mode {
	case "rep":
		return runRep(o.workload, o.seed, work, rf)
	case "traced":
		spans := filepath.Join(o.build, fmt.Sprintf("spans-%s-%d.json", o.workload, o.seed))
		return runTraced(o.workload, o.seed, work, spans, rf)
	}
	return nil, fmt.Errorf("unknown child mode %q", mode)
}

// childRun is one finished child process.
type childRun struct {
	res    *repResult
	setupS float64 // process start to end of set-up
	rssMB  float64 // peak resident set
}

// spawn runs one child process of this binary and collects its report.
func spawn(o options, mode string, n int) (*childRun, error) {
	work := filepath.Join(o.build, "work", fmt.Sprintf("%d-%d", os.Getpid(), n))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-child", mode, "-workload", o.workload,
		"-seed", strconv.FormatInt(o.seed, 10), "-dir", o.dir, "-build", o.build, "-work", work)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	// A child must not outlive the benchmark if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s process: %w", mode, err)
	}
	var res repResult
	if err := json.Unmarshal(lastLine(out.Bytes()), &res); err != nil {
		return nil, fmt.Errorf("%s process output: %w", mode, err)
	}
	cr := &childRun{res: &res, setupS: float64(res.SetupDoneNs-t0.UnixNano()) / 1e9}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		cr.rssMB = float64(ru.Maxrss) / 1024 // Linux reports kilobytes
	}
	return cr, nil
}

func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		return b[i+1:]
	}
	return b
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func runParent(o options) error {
	if !knownWorkload(o.workload) {
		return fmt.Errorf("unknown workload %q (valid: %v)", o.workload, workloadNames)
	}
	if _, err := os.Stat(filepath.Join(o.dir, "refs.json")); err != nil {
		return err
	}
	if err := os.MkdirAll(o.build, 0o755); err != nil {
		return err
	}
	prov, err := provenance(o)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	line, _ := json.Marshal(map[string]any{"provenance": prov})
	fmt.Fprintf(w, "%s\n", line)

	var res result
	account := func(c *childRun) {
		res.Attempted += c.res.Attempted
		res.Failed += c.res.Failed
		for _, e := range c.res.Errors {
			fmt.Fprintln(os.Stderr, "swbench: failed:", e)
		}
	}
	if o.trace {
		res.Metrics, err = tracedMetrics(o, account)
	} else {
		res.Metrics, err = untracedMetrics(o, account)
	}
	if err != nil {
		return err
	}
	if res.Attempted == 0 {
		return errors.New("no operations ran")
	}
	res.Correct = res.Failed == 0
	for _, m := range append(append([]metric{}, endToEnd...), layerMetrics()...) {
		if v, ok := res.Metrics[m.Name]; ok {
			fmt.Fprintf(w, "%-20s %14.6g %s\n", m.Name, v.Value, v.Unit)
		}
	}
	fmt.Fprintf(w, "operations: %d attempted, %d failed\n", res.Attempted, res.Failed)
	line, err = json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", line)
	return nil
}

func layerMetrics() []metric {
	ms := make([]metric, len(perLayer))
	for i, lm := range perLayer {
		ms[i] = lm.metric
	}
	return ms
}

// untracedMetrics runs the set-up-only processes and then repetitions while
// another one fits in the measuring time (at least minReps), and reports
// the end-to-end metrics.
func untracedMetrics(o options, account func(*childRun)) (map[string]value, error) {
	start := time.Now()
	var setups, rss, errPct []float64
	var coldParts, warmParts [][]float64 // [part][sample]
	var insts uint64
	// add appends a repetition's samples, given part by part, to parts.
	add := func(parts, samples [][]float64) [][]float64 {
		for len(parts) < len(samples) {
			parts = append(parts, nil)
		}
		for p, xs := range samples {
			parts[p] = append(parts[p], xs...)
		}
		return parts
	}
	n := 0
	for ; n < setupProcesses; n++ {
		c, err := spawn(o, "setup", n)
		if err != nil {
			return nil, err
		}
		setups = append(setups, c.setupS)
	}
	budget := time.Duration(o.seconds) * time.Second
	var repTime time.Duration
	for reps := 0; reps < minReps || time.Since(start)+repTime/time.Duration(reps) <= budget; reps++ {
		t := time.Now()
		c, err := spawn(o, "rep", n)
		n++
		if err != nil {
			return nil, err
		}
		repTime += time.Since(t)
		account(c)
		r := c.res
		setups = append(setups, c.setupS)
		cold := make([][]float64, len(r.ColdParts))
		for p, x := range r.ColdParts {
			cold[p] = []float64{x}
		}
		coldParts = add(coldParts, cold)
		warmParts = add(warmParts, r.WarmParts)
		insts = r.Insts
		rss = append(rss, c.rssMB)
		errPct = append(errPct, r.ErrPct)
	}
	for _, q := range []float64{0.1, 0.5, 0.9} {
		fmt.Fprintf(os.Stderr, "swbench: part quantile %.1f: cold %.6g s, warm %.6g s\n", q, sumQuantile(coldParts, q), sumQuantile(warmParts, q))
	}
	cold := sumQuantile(coldParts, 0.5)
	figures := map[string]float64{
		"sim_minst_per_s": float64(insts) / cold / 1e6,
		"cold_s":          cold,
		"warm_s":          sumQuantile(warmParts, 0.5),
		"setup_s":         quantile(setups, 0.5),
		"peak_rss_mb":     quantile(rss, 0),
		"sampled_err_pct": quantile(errPct, 0.5),
	}
	fmt.Fprintf(os.Stderr, "swbench: %s: %d repetitions, %d set-up samples (median %.4g s, max %.4g s), peak RSS %.4g-%.4g MB\n",
		o.workload, len(rss), len(setups), quantile(setups, 0.5), quantile(setups, 1), quantile(rss, 0), quantile(rss, 1))
	out := map[string]value{}
	for _, m := range endToEnd {
		out[m.Name] = value{figures[m.Name], m.Unit}
	}
	return out, nil
}

// sumQuantile sums, over the parts of a pass, the q-quantile of each part's
// times. A part that never completed (after a failed operation) has none.
func sumQuantile(parts [][]float64, q float64) float64 {
	var total float64
	for _, xs := range parts {
		if len(xs) > 0 {
			total += quantile(xs, q)
		}
	}
	return total
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// quantile is the q-quantile of xs (which it sorts), interpolating
// linearly between order statistics.
func quantile(xs []float64, q float64) float64 {
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

// tracedMetrics runs one untraced and one traced repetition and reports the
// traced run's per-layer figures.
func tracedMetrics(o options, account func(*childRun)) (map[string]value, error) {
	plain, err := spawn(o, "rep", 0)
	if err != nil {
		return nil, err
	}
	account(plain)
	tr, err := spawn(o, "traced", 1)
	if err != nil {
		return nil, err
	}
	account(tr)
	fmt.Fprintf(os.Stderr, "swbench: spans written to %s\n", tr.res.Spans)
	tr.res.Layers["tracing.overhead_s"] = sum(tr.res.ColdParts) - sum(plain.res.ColdParts)
	out := map[string]value{}
	for _, lm := range perLayer {
		out[lm.Name] = value{tr.res.Layers[lm.Name], lm.Unit}
	}
	return out, nil
}
