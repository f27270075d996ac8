package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/friendseeker/friendseeker/internal/checkin"
	"github.com/friendseeker/friendseeker/internal/core"
	"github.com/friendseeker/friendseeker/internal/synth"
)

// The serving tests train real (tiny) models once and share them: the
// subsystem's core contract — served decisions byte-identical to a direct
// Infer — is only meaningful against the real pipeline.

type serveFixture struct {
	world            *synth.World
	pairs            []checkin.Pair
	modelA, modelB   *core.FriendSeeker
	directA, directB []bool
	err              error
}

var (
	fxOnce sync.Once
	fx     *serveFixture
)

func quickCfg(seed int64) core.Config {
	return core.Config{
		Sigma:         60,
		Tau:           7 * 24 * time.Hour,
		FeatureDim:    32,
		K:             3,
		Epochs:        10,
		Alpha:         10,
		LearningRate:  0.05,
		KNNNeighbors:  9,
		MaxIterations: 4,
		UsePathCounts: true,
		Seed:          seed,
	}
}

func getFixture(t *testing.T) *serveFixture {
	t.Helper()
	if testing.Short() {
		t.Skip("trains models; skipped in -short")
	}
	fxOnce.Do(func() {
		fx = buildFixture()
	})
	if fx.err != nil {
		t.Fatal(fx.err)
	}
	return fx
}

func buildFixture() *serveFixture {
	f := &serveFixture{}
	fail := func(err error) *serveFixture { f.err = err; return f }
	w, err := synth.Generate(synth.Tiny(501))
	if err != nil {
		return fail(err)
	}
	f.world = w
	split, err := w.FullView().SplitPairs(0.7, 2, 502)
	if err != nil {
		return fail(err)
	}
	train := func(seed int64) (*core.FriendSeeker, []bool, error) {
		m, err := core.New(quickCfg(seed))
		if err != nil {
			return nil, nil, err
		}
		if err := m.Train(w.Dataset, split.TrainPairs, split.TrainLabels); err != nil {
			return nil, nil, err
		}
		dec, _, err := m.Infer(w.Dataset, f.pairs)
		return m, dec, err
	}
	f.pairs = AllUserPairs(w.Dataset)
	if f.modelA, f.directA, err = train(503); err != nil {
		return fail(err)
	}
	if f.modelB, f.directB, err = train(701); err != nil {
		return fail(err)
	}
	return f
}

// newTestServer serves model A over the fixture world. Its decision table
// comes from the fixture's own Infer over every user pair, which is the
// table New builds (TestServeEndToEndIdentity checks that through New), so
// tests of the HTTP and swap surfaces do not each pay for a reference
// inference.
func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	f := getFixture(t)
	table, err := newDecisionTable(f.world.Dataset.Users(), f.directA)
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(cfg)
	s.state.Store(&modelState{fs: f.modelA, id: "model-a", ds: map[string]*dsState{
		"tiny": {data: f.world.Dataset, table: table},
	}})
	return s
}

func postInferJSON(client *http.Client, url string, body any) (int, inferResponse, string, error) {
	payload, err := json.Marshal(body)
	if err != nil {
		return 0, inferResponse{}, "", err
	}
	resp, err := client.Post(url+"/v1/infer", "application/json", bytes.NewReader(payload))
	if err != nil {
		return 0, inferResponse{}, "", err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, inferResponse{}, "", err
	}
	var ir inferResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &ir); err != nil {
			return 0, inferResponse{}, "", fmt.Errorf("decode 200 body %q: %w", raw, err)
		}
	}
	return resp.StatusCode, ir, string(raw), nil
}

// mustPostInfer is postInferJSON for call sites on the test goroutine.
func mustPostInfer(t *testing.T, client *http.Client, url string, body any) (int, inferResponse, string) {
	t.Helper()
	code, ir, raw, err := postInferJSON(client, url, body)
	if err != nil {
		t.Fatal(err)
	}
	return code, ir, raw
}

// TestServeEndToEndIdentity is the subsystem's acceptance contract: many
// concurrent HTTP clients must each get decisions byte-identical to a
// direct Infer call, pairs with a user outside the dataset decide false —
// plus the surrounding HTTP semantics (healthz, metrics, malformed
// requests, drain rejection). Run under -race via the serve race target.
func TestServeEndToEndIdentity(t *testing.T) {
	f := getFixture(t)
	s, err := New(Config{}, f.modelA, "model-a", []Dataset{{Name: "tiny", Data: f.world.Dataset}})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	client := hs.Client()

	// Concurrent clients split the pair universe into chunked requests.
	const workers = 6
	const chunk = 32
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(offset int) {
			defer wg.Done()
			for start := offset * chunk; start < len(f.pairs); start += workers * chunk {
				end := start + chunk
				if end > len(f.pairs) {
					end = len(f.pairs)
				}
				body := [][2]int64{}
				for _, p := range f.pairs[start:end] {
					body = append(body, [2]int64{int64(p.A), int64(p.B)})
				}
				code, ir, raw, err := postInferJSON(client, hs.URL,
					inferRequest{Dataset: "tiny", Pairs: body})
				if err != nil {
					errCh <- err
					return
				}
				if code != http.StatusOK {
					errCh <- fmt.Errorf("chunk at %d: status %d: %s", start, code, raw)
					return
				}
				if ir.Model != "model-a" || ir.Dataset != "tiny" {
					errCh <- fmt.Errorf("chunk at %d: response identity %q/%q", start, ir.Model, ir.Dataset)
					return
				}
				for j, dec := range ir.Decisions {
					if dec != f.directA[start+j] {
						errCh <- fmt.Errorf("pair %v: served %v, Infer %v",
							f.pairs[start+j], dec, f.directA[start+j])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// Users outside the dataset decide false, in either argument order.
	users := f.world.Dataset.Users()
	known, absent := int64(users[0]), int64(users[len(users)-1])+1
	code, ir, body := mustPostInfer(t, client, hs.URL, inferRequest{Dataset: "tiny",
		Pairs: [][2]int64{{known, absent}, {absent, known}, {absent, absent + 1}, {-1, known}}})
	if code != http.StatusOK {
		t.Fatalf("absent users: status %d (%s)", code, body)
	}
	for i, dec := range ir.Decisions {
		if dec {
			t.Errorf("absent-user pair %d decided true", i)
		}
	}

	// Malformed requests.
	tooMany := make([][2]int64, s.cfg.MaxPairsPerRequest+1)
	for i := range tooMany {
		tooMany[i] = [2]int64{1, int64(i + 2)}
	}
	for _, tc := range []struct {
		name string
		body any
		want int
	}{
		{"unknown dataset", inferRequest{Dataset: "nope", Pairs: [][2]int64{{1, 2}}}, http.StatusNotFound},
		{"no pairs", inferRequest{Dataset: "tiny"}, http.StatusBadRequest},
		{"identical users", inferRequest{Dataset: "tiny", Pairs: [][2]int64{{7, 7}}}, http.StatusBadRequest},
		{"not json", "not json", http.StatusBadRequest},
		{"too many pairs", inferRequest{Dataset: "tiny", Pairs: tooMany}, http.StatusBadRequest},
	} {
		code, _, raw := mustPostInfer(t, client, hs.URL, tc.body)
		if code != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, code, tc.want, raw)
		}
	}

	// Healthz.
	resp, err := client.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status   string   `json:"status"`
		Model    string   `json:"model"`
		Datasets []string `json:"datasets"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Status != "ok" || health.Model != "model-a" ||
		len(health.Datasets) != 1 || health.Datasets[0] != "tiny" {
		t.Errorf("healthz = %+v", health)
	}

	// Metrics: request counts and latency histograms must be reported.
	resp, err = client.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	metrics := string(raw)
	for _, want := range []string{
		"fs_serve_requests_total",
		"fs_serve_ok_total",
		"fs_serve_pairs_total",
		"fs_serve_request_seconds_bucket{le=",
		"fs_serve_request_seconds_count",
		"fs_serve_inflight",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if s.met.okTotal.Value() == 0 || s.met.pairsTotal.Value() == 0 {
		t.Errorf("ok=%d pairs=%d, want both > 0", s.met.okTotal.Value(), s.met.pairsTotal.Value())
	}

	// Drain: after Shutdown, new requests are refused and healthz degrades.
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	code, _, _ = mustPostInfer(t, client, hs.URL, inferRequest{Dataset: "tiny", Pairs: [][2]int64{{1, 2}}})
	if code != http.StatusServiceUnavailable {
		t.Errorf("post-drain status = %d, want 503", code)
	}
	if s.met.rejectedDrainTotal.Value() == 0 {
		t.Error("rejectedDrainTotal not incremented")
	}
}

// TestServeHotSwapUnderLoad swaps the model through the admin endpoint
// while clients hammer /v1/infer: every answer must match one of the two
// models' direct Infer, no request may fail, and after the swap the server
// must answer exactly as model B.
func TestServeHotSwapUnderLoad(t *testing.T) {
	f := getFixture(t)
	reload := func() (*core.FriendSeeker, string, error) { return f.modelB, "model-b", nil }
	s := newTestServer(t, Config{Reload: reload})
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	client := hs.Client()

	stop := make(chan struct{})
	const workers = 4
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := w; ; n += workers {
				select {
				case <-stop:
					return
				default:
				}
				i := n % len(f.pairs)
				p := f.pairs[i]
				code, ir, raw, err := postInferJSON(client, hs.URL,
					inferRequest{Dataset: "tiny", Pairs: [][2]int64{{int64(p.A), int64(p.B)}}})
				if err != nil {
					errCh <- err
					return
				}
				if code != http.StatusOK {
					errCh <- fmt.Errorf("status %d during swap: %s", code, raw)
					return
				}
				// During the swap window an answer may come from either
				// model, but never from anything else.
				if ir.Decisions[0] != f.directA[i] && ir.Decisions[0] != f.directB[i] {
					errCh <- fmt.Errorf("pair %v: decision %v matches neither model", p, ir.Decisions[0])
					return
				}
			}
		}(w)
	}

	// Swap via the admin endpoint mid-load (builds model B's table, then
	// flips).
	resp, err := client.Post(hs.URL+"/v1/admin/swap", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("admin swap status %d: %s", resp.StatusCode, raw)
	}
	close(stop)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	if got := s.ModelID(); got != "model-b" {
		t.Fatalf("post-swap model id = %q, want model-b", got)
	}
	if s.met.swapsTotal.Value() != 1 {
		t.Errorf("swapsTotal = %d, want 1", s.met.swapsTotal.Value())
	}
	// Post-swap, the whole universe must answer exactly as model B.
	for start := 0; start < len(f.pairs); start += 64 {
		end := start + 64
		if end > len(f.pairs) {
			end = len(f.pairs)
		}
		body := [][2]int64{}
		for _, p := range f.pairs[start:end] {
			body = append(body, [2]int64{int64(p.A), int64(p.B)})
		}
		code, ir, raw := mustPostInfer(t, client, hs.URL, inferRequest{Dataset: "tiny", Pairs: body})
		if code != http.StatusOK {
			t.Fatalf("post-swap status %d: %s", code, raw)
		}
		if ir.Model != "model-b" {
			t.Fatalf("post-swap response model %q", ir.Model)
		}
		for j, dec := range ir.Decisions {
			if dec != f.directB[start+j] {
				t.Fatalf("post-swap pair %v: served %v, model B Infer %v",
					f.pairs[start+j], dec, f.directB[start+j])
			}
		}
	}
}

// TestServeSwapWithoutReloader: the admin endpoint without a configured
// reloader answers 501.
func TestServeSwapWithoutReloader(t *testing.T) {
	s := newTestServer(t, Config{})
	defer s.Shutdown(context.Background())
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	resp, err := hs.Client().Post(hs.URL+"/v1/admin/swap", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("status = %d, want 501", resp.StatusCode)
	}
}

// TestServeAdmissionInFlight: with the in-flight bound exhausted, requests
// are rejected 429 immediately.
func TestServeAdmissionInFlight(t *testing.T) {
	s := newTestServer(t, Config{MaxInFlight: 2})
	defer s.Shutdown(context.Background())
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	// Occupy both in-flight slots as stalled handlers would.
	s.inflight <- struct{}{}
	s.inflight <- struct{}{}
	code, _, raw := mustPostInfer(t, hs.Client(), hs.URL,
		inferRequest{Dataset: "tiny", Pairs: [][2]int64{{1, 2}}})
	if code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 (%s)", code, raw)
	}
	if s.met.rejectedInflightTotal.Value() != 1 {
		t.Errorf("rejectedInflightTotal = %d, want 1", s.met.rejectedInflightTotal.Value())
	}
	<-s.inflight
	<-s.inflight
}

// TestServeShutdownDrainsAcceptedWork: a request already admitted when
// Shutdown begins still completes with a correct answer; Shutdown waits
// for it. The request is held in JSON decode by a body that arrives in two
// halves, the second only after Shutdown has started.
func TestServeShutdownDrainsAcceptedWork(t *testing.T) {
	f := getFixture(t)
	s := newTestServer(t, Config{})
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	p := f.pairs[0]
	body, bodyW := io.Pipe()
	type result struct {
		code int
		ir   inferResponse
		err  error
	}
	resCh := make(chan result, 1)
	go func() {
		resp, err := hs.Client().Post(hs.URL+"/v1/infer", "application/json", body)
		if err != nil {
			resCh <- result{err: err}
			return
		}
		defer resp.Body.Close()
		var ir inferResponse
		err = json.NewDecoder(resp.Body).Decode(&ir)
		resCh <- result{code: resp.StatusCode, ir: ir, err: err}
	}()
	if _, err := io.WriteString(bodyW, `{"dataset":"tiny","pairs":[[`); err != nil {
		t.Fatal(err)
	}
	// Wait until the request is admitted: it now blocks in decode.
	deadline := time.Now().Add(5 * time.Second)
	for len(s.inflight) == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if len(s.inflight) == 0 {
		t.Fatal("request never admitted")
	}

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		drained <- s.Shutdown(ctx)
	}()
	// Shutdown must wait for the admitted request.
	for !s.draining.Load() {
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-drained:
		t.Fatalf("Shutdown returned (%v) before the admitted request finished", err)
	case <-time.After(50 * time.Millisecond):
	}
	if _, err := fmt.Fprintf(bodyW, "%d,%d]]}", p.A, p.B); err != nil {
		t.Fatal(err)
	}
	bodyW.Close()

	res := <-resCh
	if res.err != nil {
		t.Fatal(res.err)
	}
	if res.code != http.StatusOK {
		t.Fatalf("drained request status = %d, want 200", res.code)
	}
	if len(res.ir.Decisions) != 1 || res.ir.Decisions[0] != f.directA[0] {
		t.Fatalf("drained decisions %v, Infer %v", res.ir.Decisions, f.directA[0])
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestServeShutdownBoundedByContext: Shutdown gives up waiting for a
// straggler when its context expires, reporting the drain error.
func TestServeShutdownBoundedByContext(t *testing.T) {
	s := newTestServer(t, Config{})
	s.reqWG.Add(1) // a handler that never finishes
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	err := s.Shutdown(ctx)
	s.reqWG.Done()
	if err == nil || !strings.Contains(err.Error(), "drain") {
		t.Fatalf("Shutdown error = %v, want drain timeout", err)
	}
}
