package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"sort"
	"time"

	"github.com/friendseeker/friendseeker/internal/checkin"
	"github.com/friendseeker/friendseeker/internal/metrics"
)

// serveSpec is one serving workload; rates are per second. Every
// end-to-end metric is taken on the reads. A workload that writes keeps
// its writes at writeRate throughout, so its metrics show what the writes
// cost the reads; the write path's own latency is a per-layer metric,
// because its tail (tens of milliseconds against a median near 1 ms)
// varies from run to run far beyond any bound.
type serveSpec struct {
	perReq    int     // pairs per infer request
	readRate  float64 // reference infer rate
	writeRate float64 // check-in batch rate; 0 sends no writes
	burst     int     // infer requests one work_s burst sends at once
}

// The reference rates are about half the knee rate, so the reference
// latencies measure service time more than queueing, which magnifies every
// change in the machine's speed.
var serveSpecs = map[string]serveSpec{
	"serve-bulk":   {perReq: 64, readRate: 60, burst: 150},
	"serve-ingest": {perReq: 4, readRate: 200, writeRate: 200, burst: 400},
}

// Phase lengths are for a 20 s run and scale with -seconds.
const (
	setupStarts = 3           // server starts per run; setup_s is their median
	warmupLen   = time.Second // untimed traffic before the reference phase
	refWindows  = 5           // the reference phase is this many back-to-back windows
	windowLen   = 2 * time.Second
	burstCount  = 5 // work_s is the median of this many bursts
	// burstWrites is how long writes run beside each burst.
	burstWrites  = time.Second
	probeLen     = 1200 * time.Millisecond // one knee probe, in a traced run
	checkedPairs = 512                     // sample pairs whose served answer is checked
	servedBatch  = 64                      // the server's default coalescer flush size
	// startGap lets one set-up start's exit settle before the next start.
	startGap = 50 * time.Millisecond
)

// serveRun is the state of one serving workload run.
type serveRun struct {
	env  *benchEnv
	spec serveSpec
	fx   *fixture
	srv  *server
	// reader and writer are the two traffic classes' connection pools, so
	// reads never queue for a connection behind writes or the reverse.
	reader, writer *http.Client
	reads          *readStream
	writes         *writeStream
	res            *result
	// recordsOK counts check-ins in batches the server accepted.
	recordsOK int
}

// mix is one phase's read and write results; writes is nil without writes.
type mix struct {
	reads, writes *phase
}

// phase runs reads at readRate and writes at writeRate side by side for
// length.
func (r *serveRun) phase(ctx context.Context, readRate, writeRate float64, length time.Duration) mix {
	return r.send(ctx, evenDues(readRate, length), evenDues(writeRate, length))
}

// send runs reads and writes (if any) on the given schedules side by side,
// each open loop from the same start instant.
func (r *serveRun) send(ctx context.Context, rdues, wdues []time.Duration) mix {
	rp := &poster{client: r.reader, url: r.srv.base + "/v1/infer", bodies: r.reads.bodies(len(rdues))}
	wp := &poster{client: r.writer, url: r.srv.base + "/v1/checkins", bodies: r.writes.bodies(len(wdues))}
	start := time.Now().Add(5 * time.Millisecond)
	var m mix
	done := make(chan struct{})
	go func() {
		defer close(done)
		m.reads = runOpenLoop(ctx, start, rdues, 0, rp.do)
	}()
	if len(wdues) > 0 {
		m.writes = runOpenLoop(ctx, start, wdues, writeLanes, wp.do)
		r.countAccepted(m.writes)
	}
	<-done
	return m
}

// countAccepted adds the records of a write phase's accepted batches.
func (r *serveRun) countAccepted(writes *phase) {
	for _, s := range writes.samples {
		if s.ok {
			r.recordsOK += recordsPerBatch
		}
	}
}

// account adds a phase to the run's attempted and failed counts and
// checks that every scheduled request was sent.
func (r *serveRun) account(what string, m mix) {
	for _, p := range []*phase{m.reads, m.writes} {
		if p == nil {
			continue
		}
		r.res.Attempted += p.scheduled
		r.res.Failed += p.failed()
		r.checkSent(what, p)
	}
}

func (r *serveRun) checkSent(what string, p *phase) {
	if p.sent != p.scheduled {
		r.problem("%s: sent %d of %d scheduled requests", what, p.sent, p.scheduled)
	}
}

func (r *serveRun) problem(format string, args ...any) {
	r.res.Correct = false
	r.res.Notes = append(r.res.Notes, fmt.Sprintf(format, args...))
}

// reference runs the reference phase as refWindows back-to-back windows
// and returns the windows merged, the median of the windows' read tail
// percentiles, and the quantile those are taken at. One stall in one
// window moves that window's tail, not the median.
func (r *serveRun) reference(ctx context.Context, what string) (mix, float64, float64, error) {
	var reads, writes []*phase
	var tails []float64
	var q float64
	for w := 0; w < refWindows; w++ {
		m := r.phase(ctx, r.spec.readRate, r.spec.writeRate, r.env.scaled(windowLen))
		r.account(what, m)
		tail, wq, ok := tailPercentile(m.reads.latencies(), 0.99)
		if !ok {
			return mix{}, 0, 0, fmt.Errorf("%d reads in a window are too few for a tail percentile", m.reads.sent)
		}
		reads, tails, q = append(reads, m.reads), append(tails, tail), wq
		if m.writes != nil {
			writes = append(writes, m.writes)
		}
	}
	merged := mix{reads: mergePhases(reads)}
	if writes != nil {
		merged.writes = mergePhases(writes)
	}
	return merged, median(tails), q, nil
}

// mergePhases joins consecutive phases into one, shifting due instants
// so they follow each other.
func mergePhases(ps []*phase) *phase {
	out := &phase{}
	var offset time.Duration
	for _, p := range ps {
		out.scheduled += p.scheduled
		out.sent += p.sent
		out.late += p.late
		out.maxLag = max(out.maxLag, p.maxLag)
		for _, s := range p.samples {
			s.due += offset
			out.samples = append(out.samples, s)
		}
		offset += p.length + time.Second/time.Duration(max(1, p.scheduled))
	}
	out.length = offset
	return out
}

// runServe runs one serving workload.
func runServe(ctx context.Context, env *benchEnv, name string, seed int64, trace bool) (*result, error) {
	fx, err := env.fixture(ctx)
	if err != nil {
		return nil, err
	}
	spec := serveSpecs[name]
	r := &serveRun{
		env: env, spec: spec, fx: fx,
		reader: newClient(env.nproc),
		writer: newClient(writeLanes),
		reads:  newReadStream(fx.pairs, spec.perReq, seed),
		writes: newWriteStream(fx.ds, seed),
		res:    &result{Workload: name, Seed: seed, Trace: trace, Correct: true, Metrics: values{}},
	}
	if trace {
		return r.traced(ctx, name, seed)
	}

	var readies, rss []float64
	for k := 0; k < setupStarts; k++ {
		srv, err := startServer(ctx, env, fx, r.ingestDir(k))
		if err != nil {
			return nil, err
		}
		readies = append(readies, srv.ready.Seconds())
		if k == setupStarts-1 {
			r.srv = srv
			break
		}
		peak, err := srv.stop()
		if err != nil {
			return nil, err
		}
		rss = append(rss, peak)
		time.Sleep(startGap)
	}
	defer r.srv.stop()

	before, err := r.srv.scrape()
	if err != nil {
		return nil, err
	}
	r.phase(ctx, r.spec.readRate, r.spec.writeRate, env.scaled(warmupLen))
	ref, p99, q, err := r.reference(ctx, "reference phase")
	if err != nil {
		return nil, err
	}
	if q != 0.99 {
		r.res.Notes = append(r.res.Notes, fmt.Sprintf("p99_ms is p%.2f, the highest with %d reads beyond it in a window of %d", 100*q, minTail, ref.reads.scheduled/refWindows))
	}
	work, err := r.bursts(ctx)
	if err != nil {
		return nil, err
	}

	f1, err := r.check(ctx, seed)
	if err != nil {
		return nil, err
	}
	after, err := r.srv.scrape()
	if err != nil {
		return nil, err
	}
	r.checkIngest(after.since(before))
	peak, err := r.srv.stop()
	if err != nil {
		return nil, err
	}
	rss = append(rss, peak)

	m := r.res.Metrics
	m["setup_s"] = median(readies)
	m["work_s"] = work
	m["p50_ms"] = nearestRank(ref.reads.latencies(), 0.5)
	m["p99_ms"] = p99
	m["f1"] = f1
	r.res.Notes = append(r.res.Notes, fmt.Sprintf("server peak memory %.0f MB (median of %d processes)", median(rss), len(rss)))
	return r.res, nil
}

// ingestDir returns a fresh segment-log directory for start k, or "" when
// the workload sends no writes.
func (r *serveRun) ingestDir(k int) string {
	if r.spec.writeRate == 0 {
		return ""
	}
	return filepath.Join(r.env.runDir, fmt.Sprintf("ingest-%d", k))
}

// bursts sends burstCount bursts of spec.burst infer requests, each burst
// all due at once and started on an idle server, with the workload's
// writes running beside each for burstWrites. It returns the median time
// from a burst's start to its last answer. An untimed burst goes first:
// the first burst after steady traffic runs up to a third slower than the
// ones after it.
func (r *serveRun) bursts(ctx context.Context) (float64, error) {
	var drains []float64
	for i := -1; i < burstCount; i++ {
		if err := r.srv.waitIdle(ctx); err != nil {
			return 0, err
		}
		m := r.send(ctx, make([]time.Duration, r.spec.burst), evenDues(r.spec.writeRate, r.env.scaled(burstWrites)))
		r.account("burst", m)
		var longest time.Duration
		for _, s := range m.reads.samples {
			longest = max(longest, s.latency)
		}
		if i >= 0 {
			drains = append(drains, longest.Seconds())
		}
	}
	r.res.Notes = append(r.res.Notes, fmt.Sprintf("bursts took %.3g s", drains))
	return median(drains), nil
}

// knee searches the highest read rate that meets the objective, starting
// from the reference phase's verdict, with the workload's writes running
// beside every probe.
func (r *serveRun) knee(ctx context.Context, ref *phase) (knee, error) {
	k, err := searchKnee(judge(ref, r.spec.readRate), func(rate float64) (verdict, error) {
		if err := r.srv.waitIdle(ctx); err != nil {
			return verdict{}, err
		}
		m := r.phase(ctx, rate, r.spec.writeRate, r.env.scaled(probeLen))
		r.checkSent(fmt.Sprintf("probe at %.1f/s", rate), m.reads)
		if m.writes != nil {
			r.checkSent(fmt.Sprintf("writes beside the probe at %.1f/s", rate), m.writes)
		}
		return judge(m.reads, rate), nil
	})
	if err != nil {
		return k, err
	}
	for _, v := range k.probes {
		r.res.Notes = append(r.res.Notes, "probe "+v.String())
	}
	if k.capped {
		r.res.Notes = append(r.res.Notes, fmt.Sprintf("knee search reached its cap of %.0fx the reference rate", kneeCapFactor))
	}
	return k, nil
}

// check asks the server for checkedPairs seeded sample pairs and for the
// model's held-out pairs, requires every answer to equal in-process Infer
// and none to be flagged degraded, and returns F1 on the held-out pairs.
func (r *serveRun) check(ctx context.Context, seed int64) (float64, error) {
	idx := make(map[checkin.Pair]int, len(r.fx.pairs))
	for i, p := range r.fx.pairs {
		idx[p] = i
	}
	rng := rand.New(rand.NewSource(seed + 2))
	sample := rng.Perm(len(r.fx.pairs))[:checkedPairs]
	sort.Ints(sample)
	asked := make([]checkin.Pair, 0, checkedPairs+len(r.fx.evalPairs))
	for _, i := range sample {
		asked = append(asked, r.fx.pairs[i])
	}
	asked = append(asked, r.fx.evalPairs...)
	got, err := askServer(ctx, r.reader, r.srv.base, asked)
	r.res.Attempted += (len(asked) + servedBatch - 1) / servedBatch
	if err != nil {
		r.res.Failed++
		r.problem("correctness check: %v", err)
		return 0, nil
	}
	wrong := 0
	for i, p := range asked {
		j, ok := idx[p]
		if !ok || got[i] != r.fx.want[j] {
			wrong++
		}
	}
	if wrong > 0 {
		r.problem("%d of %d served decisions differ from in-process Infer", wrong, len(asked))
	}
	conf, err := metrics.Evaluate(got[checkedPairs:], r.fx.evalLabels)
	if err != nil {
		return 0, err
	}
	return conf.F1(), nil
}

// checkIngest requires the server to have applied every record of every
// accepted batch and rejected none.
func (r *serveRun) checkIngest(d *scrape) {
	if r.spec.writeRate == 0 {
		return
	}
	if got := int(d.values["fs_ingest_checkins_total"]); got != r.recordsOK {
		r.problem("server applied %d check-ins, %d were accepted", got, r.recordsOK)
	}
	if rej := d.values["fs_ingest_rejected_total"]; rej != 0 {
		r.problem("server rejected %.0f check-ins", rej)
	}
}
