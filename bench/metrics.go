package main

import "strconv"

// metricDef names one reported metric.
type metricDef struct {
	name, unit string
	higher     bool // higher is better
}

// e2eMetrics are reported by every workload in an untraced run, so their
// names are workload-neutral and each workload gives them its own meaning
// (bench/README.md has the table).
var e2eMetrics = []metricDef{
	{name: "setup_s", unit: "s"},
	{name: "work_s", unit: "s"},
	{name: "p50_ms", unit: "ms"},
	{name: "p99_ms", unit: "ms"},
	{name: "f1", unit: "ratio", higher: true},
}

// profiledPkgs are the packages CPU profiles are summed into.
var profiledPkgs = []string{"tensor", "nn", "svm", "knn", "joc", "graph", "core", "runtime"}

// layerMetrics are reported by every workload in a traced run; a layer
// the workload does not exercise reads 0.
var layerMetrics = func() []metricDef {
	defs := []metricDef{
		{name: "attack.train_s", unit: "s"},
		{name: "attack.infer_s", unit: "s"},
	}
	for _, p := range profiledPkgs {
		defs = append(defs, metricDef{name: "cpu." + p + "_s", unit: "s"})
	}
	defs = append(defs,
		metricDef{name: "cpu_util", unit: "ratio", higher: true},
		metricDef{name: "alloc_mb", unit: "MB"},
		metricDef{name: "gc_cycles", unit: "count"},
		metricDef{name: "mem.peak_rss_mb", unit: "MB"},
		metricDef{name: "train.input_dim", unit: "count"},
		metricDef{name: "train.phase2_iterations", unit: "count"},
		metricDef{name: "infer.iterations", unit: "count"},
		metricDef{name: "infer.pairs", unit: "count"},

		metricDef{name: "serve.server_ms_mean", unit: "ms"},
		metricDef{name: "serve.server_ms_p99", unit: "ms"},
		metricDef{name: "serve.client_minus_server_ms", unit: "ms"},
		metricDef{name: "serve.coalesce_wait_ms_mean", unit: "ms"},
		metricDef{name: "serve.batch_pairs_mean", unit: "count", higher: true},
		metricDef{name: "serve.batch_fill", unit: "ratio", higher: true},
		metricDef{name: "serve.rejected_429", unit: "count"},
		metricDef{name: "serve.timeout_504", unit: "count"},
		metricDef{name: "serve.knee_per_s", unit: "1/s", higher: true},
		metricDef{name: "gen.late", unit: "count"},
		metricDef{name: "gen.max_lag_ms", unit: "ms"},
		metricDef{name: "setup.load_s", unit: "s"},
		metricDef{name: "setup.warm_s", unit: "s"},
	)
	for _, b := range scoreBatches {
		defs = append(defs, metricDef{name: "score.decide_us_per_pair.b" + strconv.Itoa(b), unit: "us"})
	}
	defs = append(defs,
		metricDef{name: "score.bfs_us_per_pair", unit: "us"},
		metricDef{name: "score.khop_us_per_pair", unit: "us"},
	)
	for _, p := range profiledPkgs {
		defs = append(defs, metricDef{name: "score.cpu." + p + "_s", unit: "s"})
	}
	defs = append(defs,
		metricDef{name: "ingest.write_p50_ms", unit: "ms"},
		metricDef{name: "ingest.write_p99_ms", unit: "ms"},
		metricDef{name: "ingest.apply_ms_mean", unit: "ms"},
		metricDef{name: "ingest.apply_ms_p99", unit: "ms"},
		metricDef{name: "ingest.checkin_ms_mean", unit: "ms"},
		metricDef{name: "ingest.records", unit: "count", higher: true},
		metricDef{name: "ingest.rejected", unit: "count"},
		metricDef{name: "ingest.open_s", unit: "s"},
		metricDef{name: "ingest.direct_us_per_batch", unit: "us"},
		metricDef{name: "trace.overhead_frac", unit: "ratio"},
	)
	return defs
}()

// scoreBatches are the PairScorer.Decide batch sizes probed: one pair, the
// 4-pair reads of serve-ingest, and up to the coalescer's 64-pair flush.
var scoreBatches = []int{1, 4, 16, 64}

// values holds one run's metric values by name.
type values map[string]float64

// result is one run of one workload.
type result struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Trace     bool     `json:"trace"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Metrics   values   `json:"metrics"`
	Notes     []string `json:"notes,omitempty"`
}

// defsFor returns the metrics a run reports.
func defsFor(trace bool) []metricDef {
	if trace {
		return layerMetrics
	}
	return e2eMetrics
}
