package core

import (
	"fmt"
	"math"
	"sync"

	"github.com/friendseeker/friendseeker/internal/checkin"
	"github.com/friendseeker/friendseeker/internal/graph"
	"github.com/friendseeker/friendseeker/internal/joc"
	"github.com/friendseeker/friendseeker/internal/nn"
	"github.com/friendseeker/friendseeker/internal/tensor"
)

// embeddingCache memoises presence-proximity features per pair for one
// dataset view: phase 2 needs h for every edge of every reachable
// subgraph, and edges recur across subgraphs and iterations. The cache is
// per inference call; the view, autoencoder and scaler it reads are all
// read-only, so a trained model is never written through it.
//
// Misses are singleflighted: when several goroutines miss on the same pair
// concurrently, one computes and the rest wait on its result, so a JOC is
// never built or encoded twice. The bulk paths (encodeMissing) bypass the
// per-pair flights and batch whole frontiers through one forward pass.
type embeddingCache struct {
	view   *joc.DatasetView
	ae     *nn.SupervisedAutoencoder
	scaler *featureScaler

	mu       sync.Mutex
	mem      map[checkin.Pair][]float64
	inflight map[checkin.Pair]*flight
}

// flight is one in-progress embedding computation other goroutines can
// wait on.
type flight struct {
	done chan struct{}
	h    []float64
	err  error
}

func newEmbeddingCache(view *joc.DatasetView, ae *nn.SupervisedAutoencoder, scaler *featureScaler) *embeddingCache {
	return &embeddingCache{
		view: view, ae: ae, scaler: scaler,
		mem:      make(map[checkin.Pair][]float64),
		inflight: make(map[checkin.Pair]*flight),
	}
}

// get returns the d-dimensional presence feature of a pair, computing and
// caching it on demand. Safe for concurrent use; concurrent misses on the
// same pair compute once (singleflight) and share the result.
func (c *embeddingCache) get(p checkin.Pair) ([]float64, error) {
	c.mu.Lock()
	if h, ok := c.mem[p]; ok {
		c.mu.Unlock()
		return h, nil
	}
	if f, ok := c.inflight[p]; ok {
		c.mu.Unlock()
		<-f.done
		return f.h, f.err
	}
	f := &flight{done: make(chan struct{})}
	c.inflight[p] = f
	c.mu.Unlock()

	f.h, f.err = c.compute(p)
	c.mu.Lock()
	if f.err == nil {
		c.mem[p] = f.h
	}
	// Failed flights are forgotten so a later call can retry.
	delete(c.inflight, p)
	c.mu.Unlock()
	close(f.done)
	return f.h, f.err
}

// compute builds, scales and encodes one pair's JOC (the scalar miss path).
func (c *embeddingCache) compute(p checkin.Pair) ([]float64, error) {
	v, err := c.view.BuildFlattened(p.A, p.B)
	if err != nil {
		return nil, fmt.Errorf("core: joc for pair (%d,%d): %w", p.A, p.B, err)
	}
	c.scaler.apply(v)
	h, err := c.ae.EncodeOne(v)
	if err != nil {
		return nil, fmt.Errorf("core: encode pair (%d,%d): %w", p.A, p.B, err)
	}
	return h, nil
}

// has reports whether p is cached (without computing it).
func (c *embeddingCache) has(p checkin.Pair) bool {
	c.mu.Lock()
	_, ok := c.mem[p]
	c.mu.Unlock()
	return ok
}

// seed pre-populates the cache (batch-encoded embeddings land here).
func (c *embeddingCache) seed(p checkin.Pair, h []float64) {
	c.mu.Lock()
	c.mem[p] = h
	c.mu.Unlock()
}

// encodeChunkRows bounds the transient JOC matrix of one batched encode
// pass: chunking keeps peak memory at chunk x InputDim regardless of how
// many pairs a round prefetches, and a fixed chunk size lets EncodeInto
// reuse its forward buffers across chunks with zero steady-state
// allocation.
const encodeChunkRows = 256

// encodeMissing computes and caches the presence embeddings of every
// listed pair not already cached: JOC rows are built in parallel into one
// chunk matrix, the chunk is encoded with a single batched forward pass
// through reused buffers, and the bottleneck rows are copied out into the
// cache. Duplicate list entries are deduplicated, so callers can append
// frontiers without bookkeeping.
func (c *embeddingCache) encodeMissing(pairs []checkin.Pair) error {
	seen := make(map[checkin.Pair]struct{}, len(pairs))
	todo := make([]checkin.Pair, 0, len(pairs))
	for _, p := range pairs {
		if _, dup := seen[p]; dup {
			continue
		}
		seen[p] = struct{}{}
		if !c.has(p) {
			todo = append(todo, p)
		}
	}
	if len(todo) == 0 {
		return nil
	}
	dim := c.view.InputDim()
	rows := encodeChunkRows
	if rows > len(todo) {
		rows = len(todo)
	}
	x := tensor.New(rows, dim)
	var buf nn.EncodeBuffers
	for start := 0; start < len(todo); start += encodeChunkRows {
		end := start + encodeChunkRows
		if end > len(todo) {
			end = len(todo)
		}
		chunk := todo[start:end]
		if x.Rows != len(chunk) {
			x = tensor.New(len(chunk), dim)
		}
		if err := parallelFor(len(chunk), func(i int) error {
			p := chunk[i]
			v, err := c.view.BuildFlattened(p.A, p.B)
			if err != nil {
				return fmt.Errorf("core: joc for pair (%d,%d): %w", p.A, p.B, err)
			}
			c.scaler.apply(v)
			copy(x.Row(i), v)
			return nil
		}); err != nil {
			return err
		}
		h, err := c.ae.EncodeInto(x, &buf)
		if err != nil {
			return fmt.Errorf("core: batch encode: %w", err)
		}
		for i, p := range chunk {
			row := make([]float64, h.Cols)
			copy(row, h.Row(i))
			c.seed(p, row)
		}
	}
	return nil
}

// getAll assembles the cached embeddings of pairs (all of which must have
// been prefetched) into one slice-of-rows, ready for a batched classifier.
func (c *embeddingCache) getAll(pairs []checkin.Pair) ([][]float64, error) {
	out := make([][]float64, len(pairs))
	for i, p := range pairs {
		h, err := c.get(p)
		if err != nil {
			return nil, err
		}
		out[i] = h
	}
	return out, nil
}

// socialFeatureWidth returns the width of the social-proximity feature
// vector: (k-1) summed path blocks of d dims each, plus (k-1) path counts
// when enabled.
func socialFeatureWidth(k, d int, usePathCounts bool) int {
	w := (k - 1) * d
	if usePathCounts {
		w += k - 1
	}
	return w
}

// socialProximityFeature encodes the k-hop reachable subgraph between a
// pair following Fig. 6: each path's vector is the sum of the presence
// features of its edges; vectors of same-length paths are added; the
// per-length blocks (l = 2..k) are concatenated. Optionally the per-length
// path counts are appended so multiplicity survives feature cancellation.
func socialProximityFeature(sub *graph.ReachableSubgraph, cache *embeddingCache, k, d int, usePathCounts bool) ([]float64, error) {
	out := make([]float64, 0, socialFeatureWidth(k, d, usePathCounts))
	counts := make([]float64, 0, k-1)
	for l := 2; l <= k; l++ {
		block := make([]float64, d)
		paths := sub.PathsByLen[l]
		edges := 0
		for _, p := range paths {
			for ei := 0; ei+1 < len(p); ei++ {
				h, err := cache.get(checkin.MakePair(p[ei], p[ei+1]))
				if err != nil {
					return nil, err
				}
				if len(h) != d {
					return nil, fmt.Errorf("core: edge embedding width %d, want %d", len(h), d)
				}
				for i, v := range h {
					block[i] += v
				}
				edges++
			}
		}
		// Normalise the block to the mean edge feature so the social
		// feature shares the scale of the presence feature regardless of
		// path multiplicity; multiplicity itself is carried by the count
		// channel. Unnormalised sums make RBF distances between
		// many-path and few-path pairs explode.
		if edges > 0 {
			for i := range block {
				block[i] /= float64(edges)
			}
		}
		out = append(out, block...)
		counts = append(counts, math.Log1p(float64(len(paths))))
	}
	if usePathCounts {
		out = append(out, counts...)
	}
	return out, nil
}

// featureParams carries the knobs of phase-2 feature extraction. Dim is
// the *effective* bottleneck width of the trained autoencoder, which may
// be smaller than the configured FeatureDim when a tiny STD undercuts it;
// keeping it separate lets Config stay exactly what the caller set.
type featureParams struct {
	K, Dim, MaxPathsPerLength int
	UsePathCounts             bool
}

// subgraphEdgePairs appends to dst the pair itself plus every edge of the
// subgraph's retained paths — exactly the embeddings a composite feature
// will ask the cache for. Duplicates are fine; the batch encoder dedups.
func subgraphEdgePairs(dst []checkin.Pair, pair checkin.Pair, sub *graph.ReachableSubgraph) []checkin.Pair {
	dst = append(dst, pair)
	for _, paths := range sub.PathsByLen {
		for _, p := range paths {
			for ei := 0; ei+1 < len(p); ei++ {
				dst = append(dst, checkin.MakePair(p[ei], p[ei+1]))
			}
		}
	}
	return dst
}

// compositeFromSub concatenates the pair's own presence feature with the
// social proximity feature of its precomputed subgraph, the input of
// classifier C'. When the subgraph's edge embeddings were prefetched, this
// is pure cache-hit assembly.
func compositeFromSub(pair checkin.Pair, sub *graph.ReachableSubgraph, cache *embeddingCache, fp featureParams) ([]float64, error) {
	h, err := cache.get(pair)
	if err != nil {
		return nil, err
	}
	s, err := socialProximityFeature(sub, cache, fp.K, fp.Dim, fp.UsePathCounts)
	if err != nil {
		return nil, err
	}
	out := make([]float64, 0, len(h)+len(s))
	out = append(out, h...)
	out = append(out, s...)
	return out, nil
}
