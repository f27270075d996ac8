package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"

	"github.com/friendseeker/friendseeker/internal/checkin"
	"github.com/friendseeker/friendseeker/internal/core"
	"github.com/friendseeker/friendseeker/internal/graph"
	"github.com/friendseeker/friendseeker/internal/ingest"
)

const (
	scoreProbePairs    = 2048 // pairs per scoring probe
	ingestProbeBatches = 200  // batches ingested directly
)

// probeInProcess times the layers under the server in this process, on
// the same model file and CSV: model load and scorer warm-up, batched
// decisions at each scoreBatches size, k-hop reachability and subgraph
// extraction against the frozen graph, and (when the workload writes)
// opening and appending to an ingest log. It runs before the server
// starts so nothing competes for the CPU.
func (r *serveRun) probeInProcess(ctx context.Context, sl *spanLog, m values, seed int64) error {
	raw, err := os.ReadFile(r.fx.model)
	if err != nil {
		return err
	}
	t := time.Now()
	model, err := core.Load(bytes.NewReader(raw))
	if err != nil {
		return err
	}
	m["setup.load_s"] = sl.record("setup.load", "", t).Seconds()
	t = time.Now()
	scorer, err := model.NewPairScorer(ctx, r.fx.ds, r.fx.pairs)
	if err != nil {
		return err
	}
	m["setup.warm_s"] = sl.record("setup.warm", "", t).Seconds()

	order := rand.New(rand.NewSource(seed + 3)).Perm(len(r.fx.pairs))[:scoreProbePairs]
	pairs := make([]checkin.Pair, len(order))
	for i, j := range order {
		pairs[i] = r.fx.pairs[j]
	}
	profile := r.env.tracePath(fmt.Sprintf("%s-seed%d.score.cpu.pprof", r.res.Workload, seed))
	f, err := os.Create(profile)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := pprof.StartCPUProfile(f); err != nil {
		return err
	}
	score := time.Now()
	wrong := 0
	for _, b := range scoreBatches {
		t := time.Now()
		for i := 0; i < len(pairs); i += b {
			got, err := scorer.Decide(ctx, pairs[i:i+b])
			if err != nil {
				pprof.StopCPUProfile()
				return err
			}
			for k, d := range got {
				if d != r.fx.want[order[i+k]] {
					wrong++
				}
			}
		}
		m[fmt.Sprintf("score.decide_us_per_pair.b%d", b)] = perItemUs(sl.record(fmt.Sprintf("score.decide.b%d", b), "score", t), len(pairs))
	}
	if wrong > 0 {
		r.problem("%d in-process Decide answers differ from Infer", wrong)
	}
	cfg := model.Config()
	frozen := scorer.FrozenGraph()
	t = time.Now()
	for _, p := range pairs {
		frozen.BFSDistances(p.A, cfg.K)
	}
	m["score.bfs_us_per_pair"] = perItemUs(sl.record("score.bfs", "score", t), len(pairs))
	t = time.Now()
	kh := graph.NewKhopper(frozen)
	for _, p := range pairs {
		if _, err := kh.Subgraph(p.A, p.B, cfg.K, graph.WithMaxPathsPerLength(cfg.MaxPathsPerLength)); err != nil {
			pprof.StopCPUProfile()
			return err
		}
	}
	m["score.khop_us_per_pair"] = perItemUs(sl.record("score.khop", "score", t), len(pairs))
	sl.record("score", "", score)
	pprof.StopCPUProfile()
	cpu, err := profileByPackage(ctx, profile)
	if err != nil {
		return err
	}
	for _, p := range profiledPkgs {
		m["score.cpu."+p+"_s"] = cpu[p]
	}

	if r.spec.writeRate == 0 {
		return nil
	}
	dir := filepath.Join(r.env.runDir, "ingest-direct")
	t = time.Now()
	ing, err := ingest.Open(ingest.Options{Dir: dir, Base: r.fx.ds, Sigma: cfg.Sigma, Tau: cfg.Tau})
	if err != nil {
		return err
	}
	m["ingest.open_s"] = sl.record("ingest.open", "", t).Seconds()
	ws := newWriteStream(r.fx.ds, seed)
	t = time.Now()
	for i := 0; i < ingestProbeBatches; i++ {
		if _, _, err := ing.Ingest(ctx, ws.batch()); err != nil {
			ing.Close()
			return fmt.Errorf("direct ingest: %w", err)
		}
	}
	m["ingest.direct_us_per_batch"] = perItemUs(sl.record("ingest.direct", "", t), ingestProbeBatches)
	if err := ing.Close(); err != nil {
		return err
	}
	return os.RemoveAll(dir)
}

func perItemUs(d time.Duration, n int) float64 {
	return float64(d) / float64(time.Microsecond) / float64(n)
}

// traced is a serving workload's traced run: the in-process probes, then
// one server start and the reference phase twice, untraced and then
// between two /metrics scrapes, whose difference gives the server-side
// layer metrics, and last the knee search.
func (r *serveRun) traced(ctx context.Context, name string, seed int64) (*result, error) {
	m := r.res.Metrics
	for _, d := range layerMetrics {
		m[d.name] = 0
	}
	sl := newSpanLog()
	if err := r.probeInProcess(ctx, sl, m, seed); err != nil {
		return nil, err
	}
	t := time.Now()
	srv, err := startServer(ctx, r.env, r.fx, r.ingestDir(0))
	if err != nil {
		return nil, err
	}
	sl.record("serve.start", "", t)
	r.srv = srv
	defer srv.stop()

	r.phase(ctx, r.spec.readRate, r.spec.writeRate, r.env.scaled(warmupLen))
	plain, _, _, err := r.reference(ctx, "untraced reference phase")
	if err != nil {
		return nil, err
	}
	before, err := srv.scrape()
	if err != nil {
		return nil, err
	}
	t = time.Now()
	traced, _, _, err := r.reference(ctx, "traced reference phase")
	if err != nil {
		return nil, err
	}
	sl.record("serve.reference", "", t)
	after, err := srv.scrape()
	if err != nil {
		return nil, err
	}
	d := after.since(before)

	reads := traced.reads.latencies()
	serverMs := 1000 * d.mean("fs_serve_request_seconds")
	m["serve.server_ms_mean"] = serverMs
	m["serve.server_ms_p99"] = 1000 * d.quantile("fs_serve_request_seconds", 0.99)
	m["serve.client_minus_server_ms"] = mean(reads) - serverMs
	m["serve.coalesce_wait_ms_mean"] = 1000 * d.mean("fs_serve_coalesce_wait_seconds")
	m["serve.batch_pairs_mean"] = d.mean("fs_serve_batch_pairs")
	m["serve.batch_fill"] = d.mean("fs_serve_batch_pairs") / servedBatch
	m["serve.rejected_429"] = d.values["fs_serve_rejected_inflight_total"] + d.values["fs_serve_rejected_queue_total"]
	m["serve.timeout_504"] = d.values["fs_serve_timeout_total"]
	for _, p := range []*phase{traced.reads, traced.writes} {
		if p != nil {
			m["gen.late"] += float64(p.late)
			m["gen.max_lag_ms"] = max(m["gen.max_lag_ms"], ms(p.maxLag))
		}
	}
	if traced.writes != nil {
		writes := traced.writes.latencies()
		m["ingest.write_p50_ms"] = nearestRank(writes, 0.5)
		m["ingest.write_p99_ms"], _, _ = tailPercentile(writes, 0.99)
		m["ingest.apply_ms_mean"] = 1000 * d.mean("fs_ingest_apply_seconds")
		m["ingest.apply_ms_p99"] = 1000 * d.quantile("fs_ingest_apply_seconds", 0.99)
		m["ingest.checkin_ms_mean"] = 1000 * d.mean("fs_serve_checkin_seconds")
		m["ingest.records"] = d.values["fs_ingest_checkins_total"]
		m["ingest.rejected"] = d.values["fs_ingest_rejected_total"]
	}
	base := nearestRank(plain.reads.latencies(), 0.5)
	m["trace.overhead_frac"] = (nearestRank(reads, 0.5) - base) / base

	t = time.Now()
	k, err := r.knee(ctx, traced.reads)
	if err != nil {
		return nil, err
	}
	sl.record("serve.knee", "", t)
	m["serve.knee_per_s"] = k.rate

	if _, err := r.check(ctx, seed); err != nil {
		return nil, err
	}
	if m["mem.peak_rss_mb"], err = srv.stop(); err != nil {
		return nil, err
	}
	return r.res, r.env.writeSpans(fmt.Sprintf("%s-seed%d.spans.json", name, seed), sl.spans)
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}
