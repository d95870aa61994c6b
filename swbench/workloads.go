package main

// The three workloads, untraced. Each runs in a fresh child process: set-up
// (workload and kernel build, first machine.New), a cold pass and a warm
// pass, then the output checks. The seed permutes the order in which cells
// and benchmarks run; every workload simulates the paper's calibrated
// programs, so each output has a fixed reference in refs.json.

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"softwatt"
	"softwatt/internal/kern"
	"softwatt/internal/machine"
	"softwatt/internal/obs"
	"softwatt/internal/workload"
)

const (
	// warmShare is how long the cell workloads replay a cell, as a share
	// of the time its cold simulation took. One replay takes well under a
	// millisecond, too little to time once, so each cell is replayed many
	// times right after it is simulated.
	warmShare = 0.1
	// minWarmReplays is the fewest replays of each cell and of the render.
	minWarmReplays = 5
	// sampledWarmRuns is how many warm sampled runs follow each cold one.
	sampledWarmRuns = 2
)

// paperSpecs are paper-mxs's cells: every benchmark on MXS with the
// conventional disk, in the paper's order.
func paperSpecs() []softwatt.RunSpec {
	specs := make([]softwatt.RunSpec, len(softwatt.Benchmarks))
	for i, b := range softwatt.Benchmarks {
		specs[i] = softwatt.RunSpec{Benchmark: b, Options: softwatt.Options{Core: "mxs", DiskPolicy: "conventional"}, Label: b + "/mxs"}
	}
	return specs
}

// fig9Specs are fig9-mipsy's cells: every benchmark under each of the
// paper's four disk policies on Mipsy.
func fig9Specs() []softwatt.RunSpec {
	var specs []softwatt.RunSpec
	for _, b := range softwatt.Benchmarks {
		for _, pol := range softwatt.DiskPolicies {
			specs = append(specs, softwatt.RunSpec{
				Benchmark: b,
				Options:   softwatt.Options{Core: "mipsy", DiskPolicy: pol},
				Label:     b + "/" + pol,
			})
		}
	}
	return specs
}

// sampleOptions are sampled-mipsy's sampling parameters: the defaults, one
// window worker, and a fast-forward cache in dir.
func sampleOptions(dir string) softwatt.SampleOptions {
	return softwatt.SampleOptions{Workers: 1, FFCacheDir: dir}
}

// order is the seed's run order over n cells; seed 0 keeps the paper's.
func order(seed int64, n int) []int {
	if seed == 0 {
		p := make([]int, n)
		for i := range p {
			p[i] = i
		}
		return p
	}
	return rand.New(rand.NewSource(seed)).Perm(n)
}

// renderPaper renders Tables 2-5 and Figures 5, 6 and 8 from the six MXS
// runs. (Figure 7 needs the idle-capable disk, which paper-mxs does not
// run.)
func renderPaper(runs []*softwatt.RunResult) string {
	est := softwatt.NewEstimator()
	return est.RenderTable2(runs) + est.RenderTable3(runs) + est.RenderTable4(runs) +
		est.RenderTable5(runs) + est.RenderBudget(runs, "Overall Average Power with Conventional Disk") +
		est.RenderFig6(runs) + est.RenderFig8(runs)
}

// renderFig9 renders Figure 9 from the sweep's cells.
func renderFig9(specs []softwatt.RunSpec, runs []*softwatt.RunResult) string {
	rows := make([]softwatt.Fig9Row, len(runs))
	for i, r := range runs {
		rows[i] = softwatt.Fig9Row{
			Benchmark:  specs[i].Benchmark,
			Policy:     specs[i].Options.DiskPolicy,
			DiskJ:      r.DiskEnergyJ,
			IdleCycles: r.IdleCycles,
			Spinups:    r.DiskStats.Spinups,
			Spindowns:  r.DiskStats.Spindowns,
			Cycles:     r.TotalCycles,
		}
	}
	return softwatt.RenderFig9(rows)
}

// cellsOf returns a cell workload's specs in canonical order and its
// renderer.
func cellsOf(name string) ([]softwatt.RunSpec, func([]*softwatt.RunResult) string) {
	if name == "paper-mxs" {
		return paperSpecs(), renderPaper
	}
	specs := fig9Specs()
	return specs, func(runs []*softwatt.RunResult) string { return renderFig9(specs, runs) }
}

// repResult is what one workload process reports to the parent.
type repResult struct {
	SetupDoneNs int64 `json:"setup_done_ns"` // wall clock when set-up ended
	// ColdParts times the cold pass part by part: each cell or sampled
	// benchmark in canonical order, then the render for cell workloads.
	ColdParts []float64 `json:"cold_parts"`
	// WarmParts holds, for each part of the warm pass (the same parts as
	// ColdParts), the times of its replays.
	WarmParts [][]float64 `json:"warm_parts"`
	Insts     uint64      `json:"insts"` // guest instructions of the cold pass
	ErrPct    float64     `json:"sampled_err_pct"`
	Attempted int         `json:"attempted"`
	Failed    int         `json:"failed"`
	Errors    []string    `json:"errors,omitempty"`
	// Layers holds the traced run's per-layer figures (traced runs only).
	Layers map[string]float64 `json:"layers,omitempty"`
	// Spans is where the traced run wrote its spans.
	Spans string `json:"spans,omitempty"`
}

// op records one operation's outcome.
func (r *repResult) op(err error) {
	r.Attempted++
	if err != nil {
		r.Failed++
		if len(r.Errors) < 20 {
			r.Errors = append(r.Errors, err.Error())
		}
	}
}

// firstMachineConfig is the configuration of the first machine a workload
// builds: the detailed core of the cell workloads, swift for sampled runs.
func firstMachineConfig(name string) (machine.Config, error) {
	opt := softwatt.Options{Core: "swift"}
	switch name {
	case "paper-mxs":
		opt.Core = "mxs"
	case "fig9-mipsy":
		opt.Core = "mipsy"
	}
	return opt.MachineConfig()
}

// setup builds the six programs and the kernel and constructs the first
// machine of the seed's run order, which it then returns to the RAM pool.
// With a tracer, each layer call is a span.
func setup(t *tracer, name string, first string) error {
	t.begin("setup")
	defer t.end(nil)
	for _, b := range softwatt.Benchmarks {
		if err := t.do("workload.build", func() error { _, err := workload.Build(b); return err }); err != nil {
			return err
		}
	}
	if err := t.do("kern.build", func() error { _, err := kern.Build(); return err }); err != nil {
		return err
	}
	cfg, err := firstMachineConfig(name)
	if err != nil {
		return err
	}
	w, err := workload.Build(first)
	if err != nil {
		return err
	}
	var m *machine.Machine
	if err := t.do("machine.new", func() (err error) { m, err = machine.New(cfg, w); return err }); err != nil {
		return err
	}
	m.Release()
	return nil
}

// firstBenchmark is the benchmark of the first cell in the seed's order.
func firstBenchmark(name string, seed int64) string {
	if name == "sampled-mipsy" {
		return softwatt.Benchmarks[order(seed, len(softwatt.Benchmarks))[0]]
	}
	specs, _ := cellsOf(name)
	return specs[order(seed, len(specs))[0]].Benchmark
}

// runRep runs one untraced repetition of a workload in this process.
func runRep(name string, seed int64, work string, rf *refs) (*repResult, error) {
	if err := setup(nil, name, firstBenchmark(name, seed)); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	res := &repResult{SetupDoneNs: time.Now().UnixNano()}
	if name == "sampled-mipsy" {
		runSampledRep(res, seed, work, rf)
	} else {
		runCellRep(res, name, seed, work, rf)
	}
	return res, nil
}

// cacheMisses reads the process-wide run-log cache miss counter.
func cacheMisses() uint64 { return obs.Batch().LogCacheMisses.Value() }

// runCellRep is a cell workload's cold and warm passes, cell by cell in
// the seed's order. Each cell is simulated into an empty log directory
// (the swreport -logs path: simulate, encode, save) and then replayed from
// it with zero simulations (load, decode, digest check) for warmShare of
// its cold time. After the last cell the render is timed once on the cold
// results and then repeatedly on the replayed ones. Timing each part's
// replays right after its cold run spreads them over the whole run, so
// the host's speed swings reach the cold and the warm pass alike.
func runCellRep(res *repResult, name string, seed int64, work string, rf *refs) {
	specs, render := cellsOf(name)
	dir := filepath.Join(work, "logs")
	batch := softwatt.BatchOptions{Workers: 1}
	cold := make([]*softwatt.RunResult, len(specs))
	warm := make([]*softwatt.RunResult, len(specs))
	res.ColdParts = make([]float64, len(specs)+1)
	res.WarmParts = make([][]float64, len(specs)+1)
	complete := true
	for _, i := range order(seed, len(specs)) {
		s := specs[i]
		t := time.Now()
		got, err := softwatt.RunBatchCached([]softwatt.RunSpec{s}, dir, batch)
		res.ColdParts[i] = time.Since(t).Seconds()
		if err != nil {
			res.op(err)
			complete = false
			continue
		}
		cold[i] = got[0]
		res.Insts += cold[i].Committed
		res.op(checkCell(s, cold[i], dir, rf))
		budget := time.Duration(warmShare * res.ColdParts[i] * float64(time.Second))
		start := time.Now()
		for n := 0; n < minWarmReplays || time.Since(start) < budget; n++ {
			misses := cacheMisses()
			t := time.Now()
			got, err := softwatt.RunBatchCached([]softwatt.RunSpec{s}, dir, batch)
			res.WarmParts[i] = append(res.WarmParts[i], time.Since(t).Seconds())
			switch {
			case err != nil:
			case cacheMisses() != misses:
				err = fmt.Errorf("%s: warm replay %d simulated", cellKey(s), n)
			case !reflect.DeepEqual(got[0], cold[i]):
				err = fmt.Errorf("%s: warm replay %d differs from the cold run", cellKey(s), n)
			}
			if err != nil {
				complete = false
			} else {
				warm[i] = got[0]
			}
			res.op(err)
		}
	}
	if !complete {
		return
	}
	r := len(specs)
	t := time.Now()
	_ = render(cold)
	res.ColdParts[r] = time.Since(t).Seconds()
	budget := time.Duration(warmShare * res.ColdParts[r] * float64(time.Second))
	start := time.Now()
	for n := 0; n < minWarmReplays || time.Since(start) < budget; n++ {
		t := time.Now()
		_ = render(warm)
		res.WarmParts[r] = append(res.WarmParts[r], time.Since(t).Seconds())
	}
	res.ErrPct = coldErrPct(specs, cold, rf)
}

// checkCell checks one cold cell: it ran, its configuration digest is the
// reference's, and the log it saved hashes to the reference.
func checkCell(s softwatt.RunSpec, r *softwatt.RunResult, dir string, rf *refs) error {
	key := cellKey(s)
	if r == nil {
		return fmt.Errorf("%s: no result", key)
	}
	want, ok := rf.Logs[key]
	if !ok {
		return fmt.Errorf("%s: no reference", key)
	}
	if got := softwatt.ResultDigest(r); got != want.Config {
		return fmt.Errorf("%s: config digest %s, reference %s", key, got, want.Config)
	}
	name, err := softwatt.CacheFileName(s)
	if err != nil {
		return err
	}
	data, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		return fmt.Errorf("%s: %w", key, err)
	}
	if got := sha256Hex(data); got != want.SHA256 {
		return fmt.Errorf("%s: log sha256 %s, reference %s", key, got, want.SHA256)
	}
	return nil
}

// meanErrPct is the mean over benchmarks of |sampled - exact| / exact, in
// percent.
func meanErrPct(sampled, exact []float64) float64 {
	var total float64
	for i := range sampled {
		total += math.Abs(sampled[i]-exact[i]) / exact[i]
	}
	return 100 * total / float64(len(sampled))
}

// coldErrPct is a cell workload's sampled-estimate error: the sampled CPU
// power of its detailed core from refs.json against the exact power of the
// conventional-disk cells it just simulated.
func coldErrPct(specs []softwatt.RunSpec, cold []*softwatt.RunResult, rf *refs) float64 {
	var sampled, exact []float64
	for i, s := range specs {
		if s.Options.DiskPolicy != "conventional" {
			continue
		}
		sampled = append(sampled, rf.Power[s.Options.Core+"/"+s.Benchmark].SampledW)
		exact = append(exact, exactPowerW(cold[i]))
	}
	return meanErrPct(sampled, exact)
}

// runSampledRep is sampled-mipsy's passes, benchmark by benchmark in the
// seed's order: a cold sampled run with an empty fast-forward cache, then
// sampledWarmRuns warm runs that hit it. Each cold run is checked against
// the reference and each warm result against the cold one.
func runSampledRep(res *repResult, seed int64, work string, rf *refs) {
	so := sampleOptions(filepath.Join(work, "ff"))
	opt := softwatt.Options{Core: "mipsy"}
	run := func(i int) (*softwatt.SampledResult, float64, error) {
		t := time.Now()
		r, err := softwatt.RunSampled(softwatt.Benchmarks[i], opt, so)
		if err == nil {
			_ = softwatt.RenderSampled(r)
		}
		return r, time.Since(t).Seconds(), err
	}

	n := len(softwatt.Benchmarks)
	res.ColdParts = make([]float64, n)
	res.WarmParts = make([][]float64, n)
	var sampled, exact []float64
	for _, i := range order(seed, n) {
		b := softwatt.Benchmarks[i]
		cold, sec, err := run(i)
		res.ColdParts[i] = sec
		if err != nil {
			res.op(err)
			continue
		}
		res.Insts += cold.Committed
		res.op(checkSampled(cold, work, rf))
		if w := rf.Power["mipsy/"+b].ExactW; w > 0 {
			sampled = append(sampled, cold.MeanPowerW)
			exact = append(exact, w)
		}
		for p := 0; p < sampledWarmRuns; p++ {
			hits := obs.Batch().FFCacheHits.Value()
			warm, sec, err := run(i)
			res.WarmParts[i] = append(res.WarmParts[i], sec)
			switch {
			case err != nil:
			case obs.Batch().FFCacheHits.Value() != hits+1:
				err = fmt.Errorf("%s: warm run %d missed the fast-forward cache", b, p)
			case !reflect.DeepEqual(warm, cold):
				err = fmt.Errorf("%s: warm sampled result differs from the cold one", b)
			}
			res.op(err)
		}
	}
	if len(sampled) == n {
		res.ErrPct = meanErrPct(sampled, exact)
	}
}

// checkSampled checks a cold sampled result against its reference hash.
func checkSampled(r *softwatt.SampledResult, work string, rf *refs) error {
	key := r.Core + "/" + r.Benchmark
	want, ok := rf.Power[key]
	if !ok {
		return fmt.Errorf("sampled %s: no reference", key)
	}
	got, err := sampledHash(work, r)
	if err != nil {
		return err
	}
	if got != want.SampledSHA256 {
		return fmt.Errorf("sampled %s: sha256 %s, reference %s", key, got, want.SampledSHA256)
	}
	return nil
}
