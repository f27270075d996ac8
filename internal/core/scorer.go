package core

import (
	"context"
	"errors"

	"github.com/friendseeker/friendseeker/internal/checkin"
	"github.com/friendseeker/friendseeker/internal/graph"
)

// InferContext is Infer with cooperative cancellation: the context is
// checked between the batched pipeline stages (view construction, each
// refinement round), so a cancelled or expired context stops the run at
// the next stage boundary and returns ctx.Err(). Like Infer it never
// mutates the model.
func (fs *FriendSeeker) InferContext(ctx context.Context, ds *checkin.Dataset, pairs []checkin.Pair) ([]bool, *InferReport, error) {
	decisions, rep, _, err := fs.infer(ctx, ds, pairs, inferOpts{
		maxIterations:     fs.cfg.MaxIterations,
		convergeThreshold: fs.cfg.ConvergeThreshold,
	})
	return decisions, rep, err
}

// PairScorer answers friendship decisions for arbitrary pairs of one
// dataset, repeatedly and concurrently, without re-running the iterative
// refinement loop per request. Unlike a table of reference decisions it
// also answers pairs outside the reference universe; the serving
// subsystem (internal/serve), whose universe is every user pair, looks
// answers up in such a table instead.
//
// Construction runs one full reference inference over refPairs (normally
// the dataset's whole candidate universe) and freezes the social graph
// that entered the final refinement round. Decide then reproduces exactly
// that final round for any requested pair: candidate check against the
// spatial-cell index, k-hop reachability against the frozen graph,
// composite feature against the frozen graph, batched SVM score,
// hysteresis decision. For every pair covered by the reference inference
// the decision is therefore byte-identical to what Infer returned, and —
// because the graph is frozen — the decision for a pair never depends on
// which other pairs happen to share its batch.
//
// Concurrency: a PairScorer is read-only after construction except for
// its embedding cache, which is internally synchronised (singleflight);
// Decide is safe to call from any number of goroutines.
type PairScorer struct {
	fs    *FriendSeeker
	state *inferState
	fp    featureParams
	rep   *InferReport
	// refDecisions aligns with refPairs: the reference inference's output,
	// exposed for callers that want the converged view without re-scoring.
	refPairs     []checkin.Pair
	refDecisions []bool
}

// NewPairScorer runs the reference inference over refPairs on ds and
// returns a scorer pinned to its converged state. The model must be
// trained; refPairs must be non-empty. The context cancels the reference
// inference at stage boundaries.
func (fs *FriendSeeker) NewPairScorer(ctx context.Context, ds *checkin.Dataset, refPairs []checkin.Pair) (*PairScorer, error) {
	decisions, rep, state, err := fs.infer(ctx, ds, refPairs, inferOpts{
		maxIterations:     fs.cfg.MaxIterations,
		convergeThreshold: fs.cfg.ConvergeThreshold,
	})
	if err != nil {
		return nil, err
	}
	pairs := make([]checkin.Pair, len(refPairs))
	copy(pairs, refPairs)
	return &PairScorer{
		fs:           fs,
		state:        state,
		fp:           fs.featureParams(),
		rep:          rep,
		refPairs:     pairs,
		refDecisions: decisions,
	}, nil
}

// Report returns the reference inference's report (iterations, graphs).
func (ps *PairScorer) Report() *InferReport { return ps.rep }

// RefDecisions returns the reference pairs and their converged decisions,
// aligned. Callers must not modify the returned slices.
func (ps *PairScorer) RefDecisions() ([]checkin.Pair, []bool) {
	return ps.refPairs, ps.refDecisions
}

// Decide scores pairs against the frozen reference state and returns the
// decision per pair, aligned with pairs. Pairs whose users the dataset has
// never seen are decided false (they can be neither spatial candidates nor
// reachable in the frozen graph). The context is checked at batch-stage
// boundaries. Safe for concurrent use.
func (ps *PairScorer) Decide(ctx context.Context, pairs []checkin.Pair) ([]bool, error) {
	if len(pairs) == 0 {
		return nil, errors.New("core: no pairs to decide")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	decisions := make([]bool, len(pairs))
	if ps.state.rounds == 0 {
		// The reference inference ran zero refinement rounds (iteration
		// budget 0), so decisions are the phase-1 presence decisions.
		return ps.decidePhase1(pairs, decisions)
	}

	// Reproduce the final refinement round: a pair is evaluated iff it is
	// a spatial candidate or has a <=K-hop path in the frozen graph;
	// everything else is a negative without an SVM call.
	reach := make(map[checkin.UserID]map[checkin.UserID]int)
	within := func(a, b checkin.UserID) bool {
		d, ok := reach[a]
		if !ok {
			d = ps.state.frozen.BFSDistances(a, ps.fs.cfg.K)
			reach[a] = d
		}
		_, ok = d[b]
		return ok
	}
	evaluate := make([]bool, len(pairs))
	any := false
	for i, p := range pairs {
		evaluate[i] = ps.state.idx.shares(p.A, p.B) || within(p.A, p.B)
		any = any || evaluate[i]
	}
	if !any {
		return decisions, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	feats, err := phase2Features(pairs, evaluate, ps.state.frozen, ps.state.cache, ps.fp)
	if err != nil {
		return nil, err
	}
	scores, err := svmScores(ps.fs.phase2, feats)
	if err != nil {
		return nil, err
	}
	for i, p := range pairs {
		if evaluate[i] {
			decisions[i] = ps.fs.edgeDecision(scores[i], ps.state.frozen.HasEdge(p.A, p.B))
		}
	}
	return decisions, nil
}

// decidePhase1 is Decide for a scorer whose reference inference ran no
// refinement rounds: candidate pairs go through the batched encode + KNN
// path, everything else is negative.
func (ps *PairScorer) decidePhase1(pairs []checkin.Pair, decisions []bool) ([]bool, error) {
	candPairs := make([]checkin.Pair, 0, len(pairs))
	candIdx := make([]int, 0, len(pairs))
	for i, p := range pairs {
		if ps.state.idx.shares(p.A, p.B) {
			candPairs = append(candPairs, p)
			candIdx = append(candIdx, i)
		}
	}
	if len(candPairs) == 0 {
		return decisions, nil
	}
	if err := ps.state.cache.encodeMissing(candPairs); err != nil {
		return nil, err
	}
	embeds, err := ps.state.cache.getAll(candPairs)
	if err != nil {
		return nil, err
	}
	scores, err := ps.fs.phase1.PredictProbaBatch(embeds)
	if err != nil {
		return nil, err
	}
	for j, i := range candIdx {
		decisions[i] = scores[j] >= ps.fs.cfg.Phase1Threshold
	}
	return decisions, nil
}

// FrozenGraph returns the graph Decide scores against (the input graph of
// the reference inference's final refinement round). Read-only.
func (ps *PairScorer) FrozenGraph() *graph.Graph { return ps.state.frozen }
