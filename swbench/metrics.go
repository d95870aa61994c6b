package main

// The benchmark's metric tables. BENCHMARK.json at the repository root
// lists the same names, units and directions; the tests keep the two in
// step and check that every per-layer metric names what it should move.

// workloadNames are the benchmark's workloads, in BENCHMARK.json order.
var workloadNames = []string{"paper-mxs", "fig9-mipsy", "sampled-mipsy"}

// metric is one reported figure.
type metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd are the figures a user of the simulator sees, reported by every
// untraced run of every workload.
var endToEnd = []metric{
	{"sim_minst_per_s", "Minst/s", "higher"},
	{"cold_s", "s", "lower"},
	{"warm_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"sampled_err_pct", "%", "lower"},
}

// move is one (end-to-end metric, workload) pair a layer metric should
// shift. Metric "none" marks a simulated count that no host-only change may
// move at all.
type move struct {
	Metric   string
	Workload string
}

// layerMetric is one per-layer figure of the traced run and the
// end-to-end figures it should move.
type layerMetric struct {
	metric
	Moves []move
}

func onAll(metric string) []move {
	m := make([]move, len(workloadNames))
	for i, w := range workloadNames {
		m[i] = move{metric, w}
	}
	return m
}

// perLayer are the traced run's figures. Every traced run reports all of
// them; a layer a workload does not exercise reads 0 there.
var perLayer = []layerMetric{
	{metric{"workload.build_s", "s", "lower"}, onAll("setup_s")},
	{metric{"kern.build_s", "s", "lower"}, onAll("setup_s")},
	{metric{"machine.new_s", "s", "lower"}, onAll("setup_s")},

	{metric{"mxs.run_s", "s", "lower"}, []move{{"cold_s", "paper-mxs"}, {"sim_minst_per_s", "paper-mxs"}}},
	{metric{"mxs.ns_per_inst", "ns", "lower"}, []move{{"sim_minst_per_s", "paper-mxs"}}},
	{metric{"mxs.skip_ratio", "ratio", "higher"}, []move{{"cold_s", "paper-mxs"}}},
	{metric{"mxs.mispredicts", "count", "lower"}, []move{{"none", "paper-mxs"}}},
	{metric{"mxs.wrong_path", "count", "lower"}, []move{{"none", "paper-mxs"}}},

	{metric{"mipsy.run_s", "s", "lower"}, []move{{"cold_s", "fig9-mipsy"}, {"sim_minst_per_s", "fig9-mipsy"}, {"warm_s", "sampled-mipsy"}}},
	{metric{"mipsy.ns_per_inst", "ns", "lower"}, []move{{"sim_minst_per_s", "fig9-mipsy"}}},

	{metric{"swift.run_s", "s", "lower"}, []move{{"cold_s", "sampled-mipsy"}}},
	{metric{"swift.ns_per_inst", "ns", "lower"}, []move{{"cold_s", "sampled-mipsy"}}},
	{metric{"swift.sb_hit_ratio", "ratio", "higher"}, []move{{"cold_s", "sampled-mipsy"}}},

	{metric{"mem.l1i.miss_ratio", "ratio", "lower"}, onAll("none")},
	{metric{"mem.l1d.miss_ratio", "ratio", "lower"}, onAll("none")},
	{metric{"mem.l2.miss_ratio", "ratio", "lower"}, onAll("none")},
	{metric{"disk.requests", "count", "lower"}, onAll("none")},
	{metric{"disk.spinups", "count", "lower"}, onAll("none")},

	{metric{"trace.encode_s", "s", "lower"}, []move{{"cold_s", "fig9-mipsy"}}},
	{metric{"trace.decode_s", "s", "lower"}, []move{{"warm_s", "fig9-mipsy"}, {"warm_s", "paper-mxs"}}},
	{metric{"trace.log_bytes", "bytes", "lower"}, []move{{"cold_s", "fig9-mipsy"}, {"warm_s", "fig9-mipsy"}}},
	{metric{"runlog.save_s", "s", "lower"}, []move{{"cold_s", "fig9-mipsy"}}},
	{metric{"runlog.load_s", "s", "lower"}, []move{{"warm_s", "fig9-mipsy"}, {"warm_s", "paper-mxs"}}},
	{metric{"runlog.hits", "count", "higher"}, []move{{"warm_s", "fig9-mipsy"}}},
	{metric{"runlog.misses", "count", "lower"}, []move{{"cold_s", "fig9-mipsy"}}},

	{metric{"core.collect_s", "s", "lower"}, []move{{"cold_s", "fig9-mipsy"}, {"cold_s", "paper-mxs"}}},
	{metric{"core.render_s", "s", "lower"}, []move{{"warm_s", "fig9-mipsy"}, {"warm_s", "paper-mxs"}}},

	{metric{"ckpt.encode_s", "s", "lower"}, []move{{"cold_s", "sampled-mipsy"}}},
	{metric{"ckpt.decode_s", "s", "lower"}, []move{{"warm_s", "sampled-mipsy"}}},
	{metric{"ckpt.bytes", "bytes", "lower"}, []move{{"cold_s", "sampled-mipsy"}}},
	{metric{"machine.recycle_s", "s", "lower"}, []move{{"warm_s", "sampled-mipsy"}}},

	{metric{"ffstore.save_s", "s", "lower"}, []move{{"cold_s", "sampled-mipsy"}}},
	{metric{"ffstore.load_s", "s", "lower"}, []move{{"warm_s", "sampled-mipsy"}}},
	{metric{"ffstore.hits", "count", "higher"}, []move{{"warm_s", "sampled-mipsy"}}},
	{metric{"sampling.other_s", "s", "lower"}, []move{{"cold_s", "sampled-mipsy"}, {"warm_s", "sampled-mipsy"}}},

	// The traced cold pass minus an untraced one in the same run: what the
	// spans (and the traced pipeline's stand-alone encode) cost.
	{metric{"tracing.overhead_s", "s", "lower"}, onAll("none")},
}
