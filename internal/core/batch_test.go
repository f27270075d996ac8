package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/friendseeker/friendseeker/internal/checkin"
	"github.com/friendseeker/friendseeker/internal/graph"
	"github.com/friendseeker/friendseeker/internal/svm"
)

// ringWorld builds a ring graph over n users with unit-ish random edge
// embeddings of width d, seeded into a stub cache.
func ringWorld(n, d int, seed int64) (*graph.Graph, *embeddingCache, []checkin.Pair) {
	r := rand.New(rand.NewSource(seed))
	g := graph.NewGraph()
	vecs := make(map[checkin.Pair][]float64)
	randVec := func() []float64 {
		v := make([]float64, d)
		for j := range v {
			v[j] = r.NormFloat64()
		}
		return v
	}
	var pairs []checkin.Pair
	for i := 0; i < n; i++ {
		a := checkin.UserID(i + 1)
		b := checkin.UserID((i+1)%n + 1)
		if err := g.AddEdge(a, b); err != nil {
			panic(err)
		}
		vecs[checkin.MakePair(a, b)] = randVec()
	}
	// Query pairs: every user against user 1 (mixed adjacency/reach).
	for i := 1; i < n; i++ {
		p := checkin.MakePair(1, checkin.UserID(i+1))
		pairs = append(pairs, p)
		if _, ok := vecs[p]; !ok {
			vecs[p] = randVec()
		}
	}
	return g, stubCache(d, vecs), pairs
}

// TestPhase2FeaturesMatchesScalarPath verifies the batched subgraph +
// prefetch + assemble pipeline reproduces the per-pair compositeFeature
// exactly.
func TestPhase2FeaturesMatchesScalarPath(t *testing.T) {
	const d = 4
	g, cache, pairs := ringWorld(10, d, 5)
	fp := featureParams{K: 3, Dim: d, MaxPathsPerLength: 16, UsePathCounts: true}

	feats, err := phase2Features(pairs, nil, g, cache, fp)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pairs {
		want, err := compositeFeature(p, g, cache, fp)
		if err != nil {
			t.Fatal(err)
		}
		if len(feats[i]) != len(want) {
			t.Fatalf("pair %v: batch width %d vs scalar %d", p, len(feats[i]), len(want))
		}
		for j := range want {
			if math.Abs(feats[i][j]-want[j]) > 1e-12 {
				t.Errorf("pair %v dim %d: batch %g vs scalar %g", p, j, feats[i][j], want[j])
			}
		}
	}

	// With an eval mask, skipped entries stay nil and evaluated ones match.
	eval := make([]bool, len(pairs))
	for i := range eval {
		eval[i] = i%2 == 0
	}
	masked, err := phase2Features(pairs, eval, g, cache, fp)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pairs {
		if !eval[i] {
			if masked[i] != nil {
				t.Errorf("pair %d: masked-out feature is non-nil", i)
			}
			continue
		}
		for j := range feats[i] {
			if masked[i][j] != feats[i][j] {
				t.Errorf("pair %d dim %d: masked run differs", i, j)
			}
		}
	}
}

func TestSvmScoresAlignsSparseFeatures(t *testing.T) {
	// Fit a tiny SVM, then score a feature list with nil holes.
	r := rand.New(rand.NewSource(8))
	x := make([][]float64, 30)
	y := make([]int, 30)
	for i := range x {
		c := -1.0
		if i%2 == 0 {
			c, y[i] = 1, 1
		}
		x[i] = []float64{c + r.NormFloat64(), c + r.NormFloat64()}
	}
	m := svm.New(svm.Config{Seed: 2})
	if err := m.Fit(x, y); err != nil {
		t.Fatal(err)
	}
	feats := [][]float64{nil, {1, 1}, nil, {-1, -1}, nil}
	scores, err := svmScores(m, feats)
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != len(feats) {
		t.Fatalf("got %d scores for %d features", len(scores), len(feats))
	}
	for _, i := range []int{0, 2, 4} {
		if scores[i] != 0 {
			t.Errorf("nil feature %d scored %g, want 0", i, scores[i])
		}
	}
	for _, i := range []int{1, 3} {
		want, err := m.PredictProba(feats[i])
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(scores[i]-want) > 1e-12 {
			t.Errorf("feature %d: aligned score %g vs scalar %g", i, scores[i], want)
		}
	}
}

// countingCache wraps compute to count how many times each pair is built.
func TestEmbeddingCacheSingleflight(t *testing.T) {
	// A cache whose compute path is intercepted by pre-seeding nothing and
	// racing get() through the singleflight: the stub has no view, so
	// exercise the flight bookkeeping with a manual flight instead.
	cache := stubCache(2, nil)
	p := checkin.MakePair(1, 2)

	// Simulate a slow in-flight computation.
	f := &flight{done: make(chan struct{})}
	cache.mu.Lock()
	cache.inflight[p] = f
	cache.mu.Unlock()

	var got atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h, err := cache.get(p)
			if err != nil {
				t.Error(err)
				return
			}
			if len(h) == 2 {
				got.Add(1)
			}
		}()
	}
	// Publish the result the way the owning flight does.
	f.h = []float64{1, 2}
	cache.mu.Lock()
	cache.mem[p] = f.h
	delete(cache.inflight, p)
	cache.mu.Unlock()
	close(f.done)
	wg.Wait()
	if got.Load() != 8 {
		t.Errorf("%d/8 waiters saw the singleflighted value", got.Load())
	}

	// Cached now: has() and get() agree.
	if !cache.has(p) {
		t.Error("pair not cached after flight completed")
	}
	if _, err := cache.get(p); err != nil {
		t.Error(err)
	}
}

// TestEncodeMissingDedups verifies the bulk encoder skips cached and
// duplicate pairs (by observing it never needs the nil view).
func TestEncodeMissingDedups(t *testing.T) {
	p := checkin.MakePair(1, 2)
	cache := stubCache(2, map[checkin.Pair][]float64{p: {0.5, 0.5}})
	// All listed pairs are cached or duplicates of cached ones, so the
	// encoder must return without touching its (nil) view/autoencoder.
	if err := cache.encodeMissing([]checkin.Pair{p, p, p}); err != nil {
		t.Fatal(err)
	}
	if err := cache.encodeMissing(nil); err != nil {
		t.Fatal(err)
	}
}

// pairSubgraph extracts the k-hop reachable subgraph of one pair (the
// cheap graph half of a composite feature, separable from the embedding
// half so a prefetch pass can batch the latter).
func pairSubgraph(pair checkin.Pair, g *graph.Graph, fp featureParams) (*graph.ReachableSubgraph, error) {
	sub, err := graph.KHopReachableSubgraph(g, pair.A, pair.B, fp.K,
		graph.WithMaxPathsPerLength(fp.MaxPathsPerLength))
	if err != nil {
		return nil, fmt.Errorf("core: subgraph for pair (%d,%d): %w", pair.A, pair.B, err)
	}
	return sub, nil
}

// compositeFeature computes the subgraph and composite feature in one
// step (the unbatched path, kept for callers outside the hot loops).
func compositeFeature(pair checkin.Pair, g *graph.Graph, cache *embeddingCache, fp featureParams) ([]float64, error) {
	sub, err := pairSubgraph(pair, g, fp)
	if err != nil {
		return nil, err
	}
	return compositeFromSub(pair, sub, cache, fp)
}
