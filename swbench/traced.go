package main

// The traced run. It re-runs a workload's passes from the public calls the
// pipeline is built from, with a span (name, start, end, parent) around
// each call into a layer and the layer's counts recorded at the same
// boundary. Spans stay in memory and are written out when the run ends;
// each layer's figure is its spans' self time (duration minus the part of
// it covered by child spans).
//
// Cell workloads replay RunBatchCached's single-worker path call by call.
// Sampled runs are opaque from outside the facade, so sampled-mipsy times
// RunSampled whole and then replays the sampling phases from the machine,
// checkpoint and ffstore calls they are built from, on the same benchmarks
// and checkpoint counts; the replay must reproduce RunSampled's result
// exactly, and what it does not account for is sampling.other_s.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"time"

	"softwatt"
	"softwatt/internal/core"
	"softwatt/internal/ffstore"
	"softwatt/internal/machine"
	"softwatt/internal/obs"
	"softwatt/internal/power"
	"softwatt/internal/stats"
	"softwatt/internal/trace"
	"softwatt/internal/workload"
)

// tracedWarmReplays is how many warm replays a traced cell workload makes.
const tracedWarmReplays = 10

type counts map[string]float64

type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Counts counts `json:"counts,omitempty"`
}

func (s *span) dur() float64 { return float64(s.End-s.Start) / 1e9 }

// tracer records nested spans from a single goroutine. A nil *tracer
// records nothing, so untraced code can share a traced path.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.open = append(t.open, len(t.spans))
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name, Start: int64(time.Since(t.t0))})
}

// end closes the innermost open span and returns it.
func (t *tracer) end(c counts) *span {
	if t == nil {
		return nil
	}
	id := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	s := &t.spans[id]
	s.End = int64(time.Since(t.t0))
	s.Counts = c
	return s
}

// do runs f inside a span.
func (t *tracer) do(name string, f func() error) error {
	t.begin(name)
	err := f()
	t.end(nil)
	return err
}

// machStats are the machine counters a run span records as deltas.
type machStats struct {
	insts, cycles, skipped uint64
	cc                     obs.CoreCounters
	l1i, l1d, l2           [2]uint64 // hits, misses
	diskReq, spinups       uint64
}

func snap(m *machine.Machine) machStats {
	h := m.Hierarchy()
	ds := m.Disk().Stats()
	return machStats{
		insts: m.Committed, cycles: m.Cycle(), skipped: m.SkippedCycles(), cc: m.CoreCounters(),
		l1i: [2]uint64{h.L1I.Hits, h.L1I.Misses}, l1d: [2]uint64{h.L1D.Hits, h.L1D.Misses}, l2: [2]uint64{h.L2.Hits, h.L2.Misses},
		diskReq: ds.Reads + ds.Writes, spinups: ds.Spinups,
	}
}

// run times f, which advances m, as a span with the counters it moved.
func (t *tracer) run(name string, m *machine.Machine, f func() error) error {
	b := snap(m)
	t.begin(name)
	err := f()
	s := t.end(nil)
	a := snap(m)
	d := func(x, y uint64) float64 { return float64(x - y) }
	s.Counts = counts{
		"insts": d(a.insts, b.insts), "cycles": d(a.cycles, b.cycles), "skipped": d(a.skipped, b.skipped),
		"mispredicts": d(a.cc.Mispredicts, b.cc.Mispredicts), "wrong_path": d(a.cc.WrongPath, b.cc.WrongPath),
		"sb.hits": d(a.cc.SBHits, b.cc.SBHits), "sb.misses": d(a.cc.SBMisses, b.cc.SBMisses),
		"l1i.hits": d(a.l1i[0], b.l1i[0]), "l1i.misses": d(a.l1i[1], b.l1i[1]),
		"l1d.hits": d(a.l1d[0], b.l1d[0]), "l1d.misses": d(a.l1d[1], b.l1d[1]),
		"l2.hits": d(a.l2[0], b.l2[0]), "l2.misses": d(a.l2[1], b.l2[1]),
		"disk.requests": d(a.diskReq, b.diskReq), "disk.spinups": d(a.spinups, b.spinups),
	}
	return err
}

// runTraced runs one traced repetition of a workload in this process and
// writes its spans to spansPath.
func runTraced(name string, seed int64, work, spansPath string, rf *refs) (*repResult, error) {
	t := newTracer()
	if err := setup(t, name, firstBenchmark(name, seed)); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	res := &repResult{SetupDoneNs: time.Now().UnixNano()}
	if name == "sampled-mipsy" {
		t.sampled(res, seed, work, rf)
	} else {
		t.cells(res, name, seed, work, rf)
	}
	res.Layers = layerFigures(t.spans)
	data, err := json.Marshal(t.spans)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(spansPath, data, 0o644); err != nil {
		return nil, err
	}
	res.Spans = spansPath
	return res, nil
}

// cells is the traced cold and warm passes of a cell workload.
func (t *tracer) cells(res *repResult, name string, seed int64, work string, rf *refs) {
	specs, render := cellsOf(name)
	ord := order(seed, len(specs))
	dir := filepath.Join(work, "logs")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		res.op(err)
		return
	}
	paths := make([]string, len(specs))
	for i, s := range specs {
		file, err := softwatt.CacheFileName(s)
		if err != nil {
			res.op(err)
			return
		}
		paths[i] = filepath.Join(dir, file)
	}

	cold := make([]*softwatt.RunResult, len(specs))
	errs := make([]error, len(specs))
	t.begin("cold")
	for _, i := range ord {
		t.begin("cell")
		cold[i], errs[i] = t.cell(specs[i], paths[i])
		t.end(nil)
	}
	if errors.Join(errs...) == nil {
		t.do("core.render", func() error { _ = render(cold); return nil })
	}
	res.ColdParts = []float64{t.end(nil).dur()}
	for i, s := range specs {
		if errs[i] == nil {
			errs[i] = checkCell(s, cold[i], dir, rf)
			res.Insts += cold[i].Committed
		}
		res.op(errs[i])
	}

	var replays []float64
	t.begin("warm")
	for n := 0; n < tracedWarmReplays; n++ {
		warm := make([]*softwatt.RunResult, len(specs))
		var err error
		t.begin("replay")
		for _, i := range ord {
			if warm[i], err = t.load(specs[i], paths[i]); err != nil {
				break
			}
		}
		if err == nil {
			t.do("core.render", func() error { _ = render(warm); return nil })
		}
		replays = append(replays, t.end(nil).dur())
		if err == nil && !reflect.DeepEqual(warm, cold) {
			err = fmt.Errorf("warm replay %d differs from the cold pass", n)
		}
		res.op(err)
	}
	t.end(nil)
	res.WarmParts = [][]float64{replays}
}

// cell is one cold cell: a cache miss, then RunBatchCached's simulate,
// collect and save steps.
func (t *tracer) cell(s softwatt.RunSpec, path string) (*softwatt.RunResult, error) {
	t.begin("runlog.load")
	_, err := os.Stat(path)
	t.end(counts{"misses": 1})
	if !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("%s: cold cell found a log: %v", cellKey(s), err)
	}
	cfg, err := s.Options.MachineConfig()
	if err != nil {
		return nil, err
	}
	var w machine.Workload
	if err := t.do("workload.build", func() (err error) { w, err = workload.Build(s.Benchmark); return err }); err != nil {
		return nil, err
	}
	var m *machine.Machine
	if err := t.do("machine.new", func() (err error) { m, err = machine.New(cfg, w); return err }); err != nil {
		return nil, err
	}
	defer m.Release()
	m.Collector().SetEnergyFn(power.Default().InvocationEnergy)
	if err := t.run(cfg.Core.String()+".run", m, func() error { return m.Run(0) }); err != nil {
		return nil, err
	}
	if m.ExitCode() != 0 {
		return nil, fmt.Errorf("%s exited with code %d", cellKey(s), m.ExitCode())
	}
	var r *softwatt.RunResult
	t.do("core.collect", func() error { r = core.Collect(m, s.Benchmark, cfg.Core.String()); return nil })

	t.begin("runlog.save")
	defer t.end(nil)
	var buf bytes.Buffer
	t.begin("trace.encode")
	err = core.SaveResult(&buf, r)
	t.end(counts{"bytes": float64(buf.Len())})
	if err != nil {
		return nil, err
	}
	return r, writeAtomic(path, buf.Bytes())
}

// writeAtomic writes data to path by temp file and rename, as the run-log
// cache does.
func writeAtomic(path string, data []byte) error {
	dir, base := filepath.Split(path)
	f, err := os.CreateTemp(dir, base+".tmp*")
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(f.Name())
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(f.Name())
		return err
	}
	if err := os.Rename(f.Name(), path); err != nil {
		os.Remove(f.Name())
		return err
	}
	return nil
}

// load is one warm cell: read the log, decode it, check its digest.
func (t *tracer) load(s softwatt.RunSpec, path string) (*softwatt.RunResult, error) {
	t.begin("runlog.load")
	c := counts{"hits": 0}
	defer func() { t.end(c) }()
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r *softwatt.RunResult
	if err := t.do("trace.decode", func() (err error) { r, err = core.LoadResult(bytes.NewReader(data)); return err }); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	want, err := softwatt.SpecDigest(s)
	if err != nil {
		return nil, err
	}
	if softwatt.ResultDigest(r) != want {
		return nil, fmt.Errorf("%s: digest mismatch", path)
	}
	c["hits"] = 1
	return r, nil
}

// Sampling parameters RunSampled resolves from sampleOptions: the replay
// mirrors them.
const (
	replayWindows      = 10
	replayWindowCycles = 200_000
	replayWarmup       = replayWindowCycles / 2
	replayCapacity     = 2 * replayWindows
)

// sampled is sampled-mipsy traced: the cold and warm RunSampled passes,
// then the replay of their phases.
func (t *tracer) sampled(res *repResult, seed int64, work string, rf *refs) {
	ord := order(seed, len(softwatt.Benchmarks))
	so := sampleOptions(filepath.Join(work, "ff"))
	opt := softwatt.Options{Core: "mipsy"}
	pass := func(name string) []*softwatt.SampledResult {
		out := make([]*softwatt.SampledResult, len(ord))
		t.begin(name)
		for _, i := range ord {
			hits := obs.Batch().FFCacheHits.Value()
			t.begin("sampling.run")
			r, err := softwatt.RunSampled(softwatt.Benchmarks[i], opt, so)
			t.end(counts{"ffstore.hits": float64(obs.Batch().FFCacheHits.Value() - hits)})
			if err != nil {
				res.op(err)
				continue
			}
			out[i] = r
		}
		if sec := t.end(nil).dur(); name == "cold" {
			res.ColdParts = []float64{sec}
		} else {
			res.WarmParts = [][]float64{{sec}}
		}
		return out
	}
	cold := pass("cold")
	for _, r := range cold {
		if r != nil {
			res.Insts += r.Committed
			res.op(checkSampled(r, work, rf))
		}
	}
	warm := pass("warm")
	for i, r := range warm {
		if r != nil && cold[i] != nil {
			var err error
			if !reflect.DeepEqual(r, cold[i]) {
				err = fmt.Errorf("%s: warm sampled result differs from the cold one", r.Benchmark)
			}
			res.op(err)
		}
	}

	t.begin("sampling.replay")
	defer t.end(nil)
	for _, i := range ord {
		if cold[i] != nil {
			res.op(t.replaySampled(softwatt.Benchmarks[i], filepath.Join(work, "replay"), cold[i]))
		}
	}
}

// replaySampled replays one sampled run's phases: the swift fast-forward
// with its decimating checkpoint reservoir, the reservoir's save and load,
// and the detailed windows once for each pass. want is RunSampled's result,
// which the replay must reproduce.
func (t *tracer) replaySampled(bench, dir string, want *softwatt.SampledResult) error {
	w, err := workload.Build(bench)
	if err != nil {
		return err
	}
	ffCfg, err := softwatt.Options{Core: "swift"}.MachineConfig()
	if err != nil {
		return err
	}
	var ff *machine.Machine
	if err := t.do("machine.new", func() (err error) { ff, err = machine.New(ffCfg, w); return err }); err != nil {
		return err
	}
	var entries []ffstore.Entry
	interval := uint64(1) << 16
	for !ff.Halted() {
		if ff.Cycle() >= ffCfg.MaxCycles {
			ff.Release()
			return fmt.Errorf("%s: fast-forward did not halt", bench)
		}
		t.run("swift.run", ff, func() error { ff.StepCycles(interval - ff.Cycle()%interval); return nil })
		if ff.Halted() {
			break
		}
		t.begin("ckpt.encode")
		p := ff.Checkpoint()
		t.end(counts{"bytes": float64(len(p))})
		entries = append(entries, ffstore.Entry{Cycle: ff.Cycle(), Payload: p})
		if len(entries) == replayCapacity {
			kept := entries[:0]
			for _, c := range entries {
				if c.Cycle%(interval*2) == 0 {
					kept = append(kept, c)
				}
			}
			entries = kept
			interval *= 2
		}
	}
	rsv := &ffstore.Reservoir{
		Benchmark: bench, Digest: "replay", TotalCycles: ff.Cycle(), Committed: ff.Committed,
		DiskEnergyJ: ff.Disk().EnergyJ(ff.Cycle()), DiskStats: ff.Disk().Stats(),
		IdleCycles: ff.Collector().ModeTotals()[trace.ModeIdle].Cycles, Entries: entries,
	}
	ff.Release()
	if rsv.TotalCycles != want.TotalCycles || rsv.Committed != want.Committed {
		return fmt.Errorf("%s: replayed fast-forward ran %d cycles, RunSampled %d", bench, rsv.TotalCycles, want.TotalCycles)
	}
	st := ffstore.Store{Dir: dir}
	if err := t.do("ffstore.save", func() error { return st.Save(rsv) }); err != nil {
		return err
	}
	if err := t.do("ffstore.load", func() (err error) { rsv, err = st.Load(bench, "replay"); return err }); err != nil {
		return err
	}
	cfg, err := softwatt.Options{Core: "mipsy"}.MachineConfig()
	if err != nil {
		return err
	}
	sel := selectWindows(rsv.Entries, rsv.TotalCycles)
	for pass := 0; pass < 2; pass++ {
		mean, err := t.windows(cfg, w, sel)
		if err != nil {
			return err
		}
		if mean != want.MeanPowerW {
			return fmt.Errorf("%s: replayed windows measure %v W, RunSampled %v W", bench, mean, want.MeanPowerW)
		}
	}
	return nil
}

// selectWindows picks RunSampled's fixed-mode windows: the reservoir's
// tail trimmed of entries too late to fill a window, then evenly spaced
// picks.
func selectWindows(cps []ffstore.Entry, total uint64) []ffstore.Entry {
	eligible := cps
	if total > replayWarmup+replayWindowCycles {
		bound := total - (replayWarmup + replayWindowCycles)
		n := len(cps)
		for n > replayWindows && cps[n-1].Cycle > bound {
			n--
		}
		eligible = cps[:n]
	}
	if len(eligible) <= replayWindows {
		return eligible
	}
	sel := make([]ffstore.Entry, replayWindows)
	for i := range sel {
		sel[i] = eligible[(i*(len(eligible)-1))/(replayWindows-1)]
	}
	return sel
}

// windows runs the detailed windows on one recycled machine and returns
// their mean CPU power.
func (t *tracer) windows(cfg machine.Config, w machine.Workload, sel []ffstore.Entry) (float64, error) {
	model := power.Default()
	var m *machine.Machine
	defer func() {
		if m != nil {
			m.Release()
		}
	}()
	var pw stats.Welford
	for _, e := range sel {
		if m == nil {
			if err := t.do("machine.new", func() (err error) { m, err = machine.New(cfg, w); return err }); err != nil {
				return 0, err
			}
		} else {
			t.do("machine.recycle", func() error { m.Recycle(); return nil })
		}
		if err := t.do("ckpt.decode", func() error { return m.RestoreState(e.Payload) }); err != nil {
			return 0, err
		}
		var before, after [trace.NumModes]trace.Bucket
		var start uint64
		t.run("mipsy.run", m, func() error {
			m.StepCycles(replayWarmup)
			start = m.Cycle()
			before = m.Collector().ModeTotals()
			m.StepCycles(replayWindowCycles)
			after = m.Collector().ModeTotals()
			return nil
		})
		cycles := m.Cycle() - start
		if cycles == 0 {
			continue
		}
		var e float64
		for i := range after {
			d := after[i]
			for u := range d.Units {
				d.Units[u] -= before[i].Units[u]
			}
			d.Cycles -= before[i].Cycles
			d.Insts -= before[i].Insts
			e += model.BucketEnergy(&d).Total
		}
		pw.Add(e / (float64(cycles) / cfg.ClockHz))
	}
	return pw.Mean(), nil
}

// layerFigures derives every per-layer metric from the spans.
func layerFigures(spans []span) map[string]float64 {
	self := map[string]float64{}
	sum := map[string]float64{} // "span/count" totals
	for i := range spans {
		s := &spans[i]
		self[s.Name] += s.dur()
		if s.Parent >= 0 {
			self[spans[s.Parent].Name] -= s.dur()
		}
		for k, v := range s.Counts {
			sum[s.Name+"/"+k] += v
		}
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	runs := []string{"mipsy.run", "mxs.run", "swift.run"}
	total := func(key string) float64 {
		var v float64
		for _, r := range runs {
			v += sum[r+"/"+key]
		}
		return v
	}
	missRatio := func(c string) float64 {
		return ratio(total(c+".misses"), total(c+".hits")+total(c+".misses"))
	}
	out := map[string]float64{
		"mxs.ns_per_inst":    ratio(1e9*self["mxs.run"], sum["mxs.run/insts"]),
		"mxs.skip_ratio":     ratio(sum["mxs.run/skipped"], sum["mxs.run/cycles"]),
		"mxs.mispredicts":    sum["mxs.run/mispredicts"],
		"mxs.wrong_path":     sum["mxs.run/wrong_path"],
		"mipsy.ns_per_inst":  ratio(1e9*self["mipsy.run"], sum["mipsy.run/insts"]),
		"swift.ns_per_inst":  ratio(1e9*self["swift.run"], sum["swift.run/insts"]),
		"swift.sb_hit_ratio": ratio(sum["swift.run/sb.hits"], sum["swift.run/sb.hits"]+sum["swift.run/sb.misses"]),
		"mem.l1i.miss_ratio": missRatio("l1i"),
		"mem.l1d.miss_ratio": missRatio("l1d"),
		"mem.l2.miss_ratio":  missRatio("l2"),
		"disk.requests":      total("disk.requests"),
		"disk.spinups":       total("disk.spinups"),
		"trace.log_bytes":    sum["trace.encode/bytes"],
		"runlog.hits":        sum["runlog.load/hits"],
		"runlog.misses":      sum["runlog.load/misses"],
		"ckpt.bytes":         sum["ckpt.encode/bytes"],
		"ffstore.hits":       sum["sampling.run/ffstore.hits"],
	}
	if self["sampling.run"] > 0 {
		var replay float64
		for i := range spans {
			if spans[i].Name == "sampling.replay" {
				replay += spans[i].dur()
			}
		}
		out["sampling.other_s"] = self["sampling.run"] - replay
	}
	// Every other "<span>_s" metric is that span's self time.
	for _, lm := range perLayer {
		name, isTime := strings.CutSuffix(lm.Name, "_s")
		if _, done := out[lm.Name]; done || !isTime {
			continue
		}
		if v, ok := self[name]; ok {
			out[lm.Name] = v
		}
	}
	return out
}
