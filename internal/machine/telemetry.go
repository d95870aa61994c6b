package machine

// Live telemetry publication. A machine constructed while metrics are
// enabled (obs.SetMetricsEnabled, normally via a CLI's -http flag) carries
// a telemetry block and publishes counter deltas into the process registry
// every obsIntervalCycles simulated cycles and once more when the run
// ends. Everything published is read from counters the simulator already
// maintains — the caches' hit/miss counts, the CPU's host-cache
// effectiveness stats, the collector's totals and flushed sample windows,
// the disk's activity statistics — so publication never perturbs
// architected state and the golden byte-identity contract (DESIGN.md §9)
// holds with telemetry on. With metrics disabled the only residue is one
// always-false comparison per core call in Run (obsNext stays at MaxUint64).

import (
	"softwatt/internal/disk"
	"softwatt/internal/mem"
	"softwatt/internal/obs"
	"softwatt/internal/trace"
)

// obsIntervalCycles is the publication period: ~0.5 s of wall time at the
// current ~18 Mcycles/s Mipsy throughput, frequent enough for a 1 Hz
// scrape, rare enough to be free.
const obsIntervalCycles = 8 << 20

// cacheLevels orders the published cache labels; indices match telemetry's
// per-cache arrays.
var cacheLevels = [3]string{"l1i", "l1d", "l2"}

// telemetry holds the registry handles and the last-published snapshot
// used to turn the simulator's monotonic counters into deltas.
type telemetry struct {
	sim *obs.SimMetrics

	cacheHits   [3]*obs.Counter
	cacheMisses [3]*obs.Counter
	cacheWB     [3]*obs.Counter
	utlbHits    [2]*obs.Counter // i, d
	utlbMisses  [2]*obs.Counter
	pdHits      *obs.Counter
	pdMisses    *obs.Counter

	modeCycles [trace.NumModes]*obs.Counter

	mispredicts *obs.Counter
	coreFlushes *obs.Counter
	wrongPath   *obs.Counter

	// Superblock cache observability (swift fast-forward core).
	sbHits    *obs.Counter
	sbMisses  *obs.Counter
	sbInval   *obs.Counter
	slowSteps *obs.Counter

	// Event-driven scheduler observability (MXS; DESIGN.md §11). The
	// histograms record instantaneous occupancy samples taken at each
	// publication, cheap and frequent enough to sketch the distribution.
	skipCycles *obs.Counter
	windowOcc  *obs.Histogram
	readyDepth *obs.Histogram
	oooCore    bool // observe occupancy only for out-of-order cores

	diskReads   *obs.Counter
	diskWrites  *obs.Counter
	dmaBytes    *obs.Counter
	spinups     *obs.Counter
	spindowns   *obs.Counter
	diskStateCy []*obs.Counter

	// Last-published snapshots.
	lastCycles uint64
	lastInsts  uint64
	lastCache  [3]mem.CacheSnapshot
	lastFast   struct {
		pdH, pdM uint64
		tlbH     [2]uint64
		tlbM     [2]uint64
	}
	lastCore    obs.CoreCounters
	lastSkipped uint64
	lastDisk    disk.Stats
	sampleIdx   int // collector samples already folded into modeCycles
}

// newTelemetry resolves every instrument from the default registry once.
func newTelemetry() *telemetry {
	r := obs.Default()
	t := &telemetry{sim: obs.Sim()}
	for i, lv := range cacheLevels {
		lbl := obs.Label("cache", lv)
		t.cacheHits[i] = r.Counter("softwatt_cache_hits_total", "Simulated cache hits.", lbl)
		t.cacheMisses[i] = r.Counter("softwatt_cache_misses_total", "Simulated cache misses.", lbl)
		t.cacheWB[i] = r.Counter("softwatt_cache_writebacks_total", "Simulated cache writebacks.", lbl)
	}
	for i, side := range [2]string{"i", "d"} {
		lbl := obs.Label("side", side)
		t.utlbHits[i] = r.Counter("softwatt_microtlb_hits_total",
			"Host micro-TLB hits (translation fast path).", lbl)
		t.utlbMisses[i] = r.Counter("softwatt_microtlb_misses_total",
			"Host micro-TLB misses (full TLB scans).", lbl)
	}
	t.pdHits = r.Counter("softwatt_predecode_hits_total", "Predecoded I-cache hits.", "")
	t.pdMisses = r.Counter("softwatt_predecode_misses_total", "Predecode line fills.", "")
	for m := trace.Mode(0); m < trace.NumModes; m++ {
		t.modeCycles[m] = r.Counter("softwatt_mode_cycles_total",
			"Simulated cycles attributed per software mode (from flushed sample windows).",
			obs.Label("mode", m.String()))
	}
	t.mispredicts = r.Counter("softwatt_bpred_mispredicts_total", "Branch mispredictions (MXS).", "")
	t.coreFlushes = r.Counter("softwatt_core_flushes_total", "Serializing/exception pipeline flushes (MXS).", "")
	t.wrongPath = r.Counter("softwatt_wrongpath_insts_total", "Wrong-path instructions fetched (MXS).", "")
	t.sbHits = r.Counter("softwatt_swift_superblock_hits_total",
		"Superblock cache hits (swift fast-forward core).", "")
	t.sbMisses = r.Counter("softwatt_swift_superblock_misses_total",
		"Superblock builds/rebuilds (swift fast-forward core).", "")
	t.sbInval = r.Counter("softwatt_swift_superblock_invalidations_total",
		"Code-page invalidations from stores or DMA (swift core).", "")
	t.slowSteps = r.Counter("softwatt_swift_slow_steps_total",
		"Instructions delegated to the exact interpreter (swift core).", "")
	t.skipCycles = r.Counter("softwatt_mxs_skip_cycles_total",
		"Cycles elided by the next-event clock skip (MXS event-driven scheduler).", "")
	t.windowOcc = r.Histogram("softwatt_mxs_window_occupancy",
		"Instruction-window occupancy sampled at each telemetry publication (MXS).", "",
		[]float64{0, 4, 8, 16, 24, 32, 40, 48, 56, 64})
	t.readyDepth = r.Histogram("softwatt_mxs_ready_queue_depth",
		"Issue-ready queue depth sampled at each telemetry publication (MXS).", "",
		[]float64{0, 1, 2, 4, 8, 16, 32})
	t.diskReads = r.Counter("softwatt_disk_reads_total", "Disk read requests completed.", "")
	t.diskWrites = r.Counter("softwatt_disk_writes_total", "Disk write requests completed.", "")
	t.dmaBytes = r.Counter("softwatt_dma_bytes_total", "Bytes moved by disk DMA.", "")
	t.spinups = r.Counter("softwatt_disk_spinups_total", "Disk spin-up transitions.", "")
	t.spindowns = r.Counter("softwatt_disk_spindowns_total", "Disk spin-down transitions.", "")
	t.diskStateCy = make([]*obs.Counter, disk.NumStates)
	for i := range t.diskStateCy {
		t.diskStateCy[i] = r.Counter("softwatt_disk_state_cycles_total",
			"Cycles the disk spent in each power mode.", obs.Label("state", disk.State(i).String()))
	}
	return t
}

// publishObs pushes the delta since the last publication into the
// registry. Called from the run loop every obsIntervalCycles and once at
// run end; always on the simulation goroutine, so reading the simulator's
// plain counters is race-free while the registry side is atomic.
func (m *Machine) publishObs() {
	t := m.tele
	if t == nil {
		return
	}
	m.obsNext = m.cycle + obsIntervalCycles

	cyc, inst := m.col.TotalCycles(), m.col.TotalInsts()
	t.sim.Cycles.Add(cyc - t.lastCycles)
	t.sim.Insts.Add(inst - t.lastInsts)
	t.lastCycles, t.lastInsts = cyc, inst

	for i, c := range [3]*mem.Cache{m.hier.L1I, m.hier.L1D, m.hier.L2} {
		s := c.Snapshot()
		t.cacheHits[i].Add(s.Hits - t.lastCache[i].Hits)
		t.cacheMisses[i].Add(s.Misses - t.lastCache[i].Misses)
		t.cacheWB[i].Add(s.Writebacks - t.lastCache[i].Writebacks)
		t.lastCache[i] = s
	}

	fs := m.cpu.FastStats()
	t.pdHits.Add(fs.PredecodeHits - t.lastFast.pdH)
	t.pdMisses.Add(fs.PredecodeMisses - t.lastFast.pdM)
	for i, hm := range [2][2]uint64{{fs.ITLBHits, fs.ITLBMisses}, {fs.DTLBHits, fs.DTLBMisses}} {
		t.utlbHits[i].Add(hm[0] - t.lastFast.tlbH[i])
		t.utlbMisses[i].Add(hm[1] - t.lastFast.tlbM[i])
		t.lastFast.tlbH[i], t.lastFast.tlbM[i] = hm[0], hm[1]
	}
	t.lastFast.pdH, t.lastFast.pdM = fs.PredecodeHits, fs.PredecodeMisses

	cc := m.core.Counters()
	t.mispredicts.Add(cc.Mispredicts - t.lastCore.Mispredicts)
	t.coreFlushes.Add(cc.Flushes - t.lastCore.Flushes)
	t.wrongPath.Add(cc.WrongPath - t.lastCore.WrongPath)
	t.sbHits.Add(cc.SBHits - t.lastCore.SBHits)
	t.sbMisses.Add(cc.SBMisses - t.lastCore.SBMisses)
	t.sbInval.Add(cc.SBInvalidations - t.lastCore.SBInvalidations)
	t.slowSteps.Add(cc.SlowSteps - t.lastCore.SlowSteps)
	t.lastCore = cc
	skipped := m.SkippedCycles()
	t.skipCycles.Add(skipped - t.lastSkipped)
	t.lastSkipped = skipped
	if t.oooCore {
		t.windowOcc.Observe(float64(cc.WindowOcc))
		t.readyDepth.Observe(float64(cc.ReadyDepth))
	}

	ds := m.dsk.Stats()
	t.diskReads.Add(ds.Reads - t.lastDisk.Reads)
	t.diskWrites.Add(ds.Writes - t.lastDisk.Writes)
	t.dmaBytes.Add(ds.BytesMoved - t.lastDisk.BytesMoved)
	t.spinups.Add(ds.Spinups - t.lastDisk.Spinups)
	t.spindowns.Add(ds.Spindowns - t.lastDisk.Spindowns)
	for i := range t.diskStateCy {
		t.diskStateCy[i].Add(ds.StateCycles[i] - t.lastDisk.StateCycles[i])
	}
	t.lastDisk = ds

	// Mode attribution, from the sample windows flushed since last time:
	// O(new windows), never O(whole run), and lags live time by at most
	// one window (20k cycles by default).
	samples := m.col.Samples()
	for ; t.sampleIdx < len(samples); t.sampleIdx++ {
		s := &samples[t.sampleIdx]
		for md := trace.Mode(0); md < trace.NumModes; md++ {
			if c := s.Mode[md].Cycles; c > 0 {
				t.modeCycles[md].Add(c)
			}
		}
	}
}
