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
	"github.com/friendseeker/friendseeker/internal/ingest"
)

// newTestIngestor opens an ingestor over the fixture world's corpus with
// the same division parameters the quickCfg models were trained with.
func newTestIngestor(t *testing.T, drift ingest.DriftConfig) *ingest.Ingestor {
	t.Helper()
	f := getFixture(t)
	g, err := ingest.Open(ingest.Options{
		Dir:   t.TempDir(),
		Base:  f.world.Dataset,
		Sigma: 60,
		Tau:   7 * 24 * time.Hour,
		Drift: drift,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	return g
}

// futureRecords derives n valid check-ins after the fixture corpus span:
// existing users revisiting existing POIs, so no new users or POIs appear
// (which keeps AllUserPairs-based identity checks stable).
func futureRecords(f *serveFixture, n, offset int) []ingest.Record {
	users := f.world.Dataset.Users()
	pois := f.world.Dataset.POIs()
	_, last := f.world.Dataset.Span()
	out := make([]ingest.Record, n)
	for i := range out {
		p := pois[(offset+i*7)%len(pois)]
		out[i] = ingest.Record{
			User: int64(users[(offset+i)%len(users)]),
			POI:  int64(p.ID), Lat: p.Center.Lat, Lng: p.Center.Lng,
			Time: last.Add(time.Duration(offset+i+1) * time.Minute),
		}
	}
	return out
}

func postCheckins(t *testing.T, client *http.Client, url string, body any) (int, string) {
	t.Helper()
	payload, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url+"/v1/checkins", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(raw)
}

// TestServeCheckinsEndpoint covers the write-path HTTP surface: accepted
// batches return their sequence range, validation failures map to typed
// 400s locating the record, limits and drain are enforced, and the
// ingest/retrain state shows up on /healthz and /metrics.
func TestServeCheckinsEndpoint(t *testing.T) {
	f := getFixture(t)
	g := newTestIngestor(t, ingest.DriftConfig{})
	s := newTestServer(t, Config{Ingest: g, MaxCheckInsPerRequest: 8})
	defer s.Shutdown(context.Background())
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	// Accepted batch: 200 with the assigned sequence range.
	code, raw := postCheckins(t, hs.Client(), hs.URL,
		checkinsRequest{Records: futureRecords(f, 3, 0)})
	if code != http.StatusOK {
		t.Fatalf("status = %d (%s), want 200", code, raw)
	}
	var ok checkinsResponse
	if err := json.Unmarshal([]byte(raw), &ok); err != nil {
		t.Fatal(err)
	}
	if ok.Accepted != 3 || ok.FirstSeq != 1 || ok.LastSeq != 3 {
		t.Fatalf("response = %+v", ok)
	}

	// Validation failure: typed 400 locating the bad record, nothing
	// applied. (NaN is unrepresentable in JSON, so the HTTP boundary sees
	// out-of-range coordinates; the NaN path is covered at the ingest
	// layer.)
	bad := futureRecords(f, 2, 100)
	bad[1].Lat = 95
	code, raw = postCheckins(t, hs.Client(), hs.URL, checkinsRequest{Records: bad})
	if code != http.StatusBadRequest {
		t.Fatalf("status = %d (%s), want 400", code, raw)
	}
	var ce checkinErrorResponse
	if err := json.Unmarshal([]byte(raw), &ce); err != nil {
		t.Fatal(err)
	}
	if ce.Index != 1 || ce.Field != "lat" {
		t.Fatalf("error body = %+v", ce)
	}
	if st := g.Stats(); st.Streamed != 3 {
		t.Fatalf("streamed = %d after rejected batch, want 3", st.Streamed)
	}

	// Limits: empty and oversized batches are 400s.
	if code, raw = postCheckins(t, hs.Client(), hs.URL, checkinsRequest{}); code != http.StatusBadRequest {
		t.Fatalf("empty batch status = %d (%s)", code, raw)
	}
	if code, raw = postCheckins(t, hs.Client(), hs.URL,
		checkinsRequest{Records: futureRecords(f, 9, 200)}); code != http.StatusBadRequest {
		t.Fatalf("oversized batch status = %d (%s)", code, raw)
	}

	// Observability: /healthz carries the ingest block, /metrics the
	// fs_ingest_* and fs_serve_checkin_* families.
	resp, err := hs.Client().Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hraw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var health struct {
		Ingest *ingest.Stats `json:"ingest"`
	}
	if err := json.Unmarshal(hraw, &health); err != nil {
		t.Fatal(err)
	}
	if health.Ingest == nil || health.Ingest.Streamed != 3 || health.Ingest.LastSeq != 3 {
		t.Fatalf("healthz ingest block = %+v (%s)", health.Ingest, hraw)
	}
	resp, err = hs.Client().Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mraw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"fs_ingest_checkins_total 3",
		"fs_serve_checkin_ok_total 1",
		"fs_serve_checkin_bad_request_total 3",
		"fs_ingest_drift_score",
	} {
		if !strings.Contains(string(mraw), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// Drain: checkins are refused 503 while shutting down.
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if code, raw = postCheckins(t, hs.Client(), hs.URL,
		checkinsRequest{Records: futureRecords(f, 1, 300)}); code != http.StatusServiceUnavailable {
		t.Fatalf("draining status = %d (%s), want 503", code, raw)
	}
}

// TestServeCheckinsNotConfigured: without an ingestor the endpoint is 501.
func TestServeCheckinsNotConfigured(t *testing.T) {
	f := getFixture(t)
	s := newTestServer(t, Config{})
	defer s.Shutdown(context.Background())
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	code, raw := postCheckins(t, hs.Client(), hs.URL,
		checkinsRequest{Records: futureRecords(f, 1, 0)})
	if code != http.StatusNotImplemented {
		t.Fatalf("status = %d (%s), want 501", code, raw)
	}
}

// TestSwapWithDataset: the retrain landing path — a new model published
// together with the ingest snapshot it was trained on — must retarget
// serving atomically: post-swap decisions are byte-identical to a direct
// scorer over the new (model, dataset) pair, and a failed candidate keeps
// the previous model AND dataset serving.
func TestSwapWithDataset(t *testing.T) {
	f := getFixture(t)
	g := newTestIngestor(t, ingest.DriftConfig{})
	s := newTestServer(t, Config{Ingest: g})
	defer s.Shutdown(context.Background())

	ctx := context.Background()
	if _, _, err := g.Ingest(ctx, futureRecords(f, 40, 0)); err != nil {
		t.Fatal(err)
	}
	snap, err := g.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	refPairs := AllUserPairs(snap)

	// Unknown dataset and untrained model are rejected without unseating
	// the serving state.
	if err := s.SwapWithDataset(ctx, f.modelB, "model-b", "nope", snap); err == nil {
		t.Fatal("swap to unknown dataset succeeded")
	}
	if err := s.SwapWithDataset(ctx, nil, "nil", "tiny", snap); err == nil {
		t.Fatal("swap of nil model succeeded")
	}
	if got := s.ModelID(); got != "model-a" {
		t.Fatalf("model after failed swaps = %q", got)
	}

	if err := s.SwapWithDataset(ctx, f.modelB, "model-b", "tiny", snap); err != nil {
		t.Fatal(err)
	}
	if got := s.ModelID(); got != "model-b" {
		t.Fatalf("model after swap = %q", got)
	}

	// Identity against a direct scorer over the swapped-in state.
	sc, err := f.modelB.NewPairScorer(ctx, snap, refPairs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sc.Decide(ctx, f.pairs)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	reqPairs := make([][2]int64, len(f.pairs))
	for i, p := range f.pairs {
		reqPairs[i] = [2]int64{int64(p.A), int64(p.B)}
	}
	for lo := 0; lo < len(reqPairs); lo += 64 {
		hi := lo + 64
		if hi > len(reqPairs) {
			hi = len(reqPairs)
		}
		code, ir, raw := mustPostInfer(t, hs.Client(), hs.URL,
			inferRequest{Dataset: "tiny", Pairs: reqPairs[lo:hi]})
		if code != http.StatusOK {
			t.Fatalf("status = %d (%s)", code, raw)
		}
		if ir.Model != "model-b" {
			t.Fatalf("response model %q", ir.Model)
		}
		for i, d := range ir.Decisions {
			if d != want[lo+i] {
				t.Fatalf("pair %d: served %v != direct %v", lo+i, d, want[lo+i])
			}
		}
	}
}

// TestConcurrentIngestInferSwap runs the full online loop under -race:
// one writer streams check-in batches, many readers infer, and the "re-
// train" path swaps model+dataset mid-flight. No request may be dropped
// (every infer is 200; every write is 200), and after the last swap
// settles, served decisions match a direct scorer over the final state.
func TestConcurrentIngestInferSwap(t *testing.T) {
	f := getFixture(t)
	g := newTestIngestor(t, ingest.DriftConfig{})
	s := newTestServer(t, Config{MaxInFlight: 256, Ingest: g})
	defer s.Shutdown(context.Background())
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	ctx := context.Background()
	reqPairs := make([][2]int64, 0, 8)
	for _, p := range f.pairs[:8] {
		reqPairs = append(reqPairs, [2]int64{int64(p.A), int64(p.B)})
	}

	var readers, work sync.WaitGroup
	errCh := make(chan error, 64)
	stopInfer := make(chan struct{})

	// Readers: hammer /v1/infer until the writer and swapper are done.
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stopInfer:
					return
				default:
				}
				code, _, raw, err := postInferJSON(hs.Client(), hs.URL,
					inferRequest{Dataset: "tiny", Pairs: reqPairs})
				if err != nil {
					errCh <- err
					return
				}
				if code != http.StatusOK {
					errCh <- fmt.Errorf("infer dropped: %d (%s)", code, raw)
					return
				}
			}
		}()
	}

	// Writer: stream check-in batches over HTTP (single writer keeps
	// per-user timestamps monotonic across batches).
	work.Add(1)
	go func() {
		defer work.Done()
		for i := 0; i < 30; i++ {
			code, raw := postCheckins(t, hs.Client(), hs.URL,
				checkinsRequest{Records: futureRecords(f, 5, i*5)})
			if code != http.StatusOK {
				errCh <- fmt.Errorf("write dropped: %d (%s)", code, raw)
				return
			}
		}
	}()

	// Swapper: the retrain landing path, three times while traffic flows —
	// each swap publishes an alternate model against a fresh snapshot of
	// whatever has been ingested so far.
	finalModel := f.modelA
	finalID := "model-a"
	finalData := f.world.Dataset
	work.Add(1)
	go func() {
		defer work.Done()
		for i := 0; i < 3; i++ {
			snap, err := g.Snapshot()
			if err != nil {
				errCh <- err
				return
			}
			m, id := f.modelB, fmt.Sprintf("swap-%d-b", i)
			if i%2 == 1 {
				m, id = f.modelA, fmt.Sprintf("swap-%d-a", i)
			}
			if err := s.SwapWithDataset(ctx, m, id, "tiny", snap); err != nil {
				errCh <- err
				return
			}
			finalModel, finalID, finalData = m, id, snap
			time.Sleep(20 * time.Millisecond)
		}
	}()

	work.Wait()
	close(stopInfer)
	readers.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// Settle check: served decisions match a direct scorer over the final
	// (model, dataset) state.
	sc, err := finalModel.NewPairScorer(ctx, finalData, AllUserPairs(finalData))
	if err != nil {
		t.Fatal(err)
	}
	pairs := make([]checkin.Pair, len(reqPairs))
	for i, ab := range reqPairs {
		pairs[i] = checkin.MakePair(checkin.UserID(ab[0]), checkin.UserID(ab[1]))
	}
	want, err := sc.Decide(ctx, pairs)
	if err != nil {
		t.Fatal(err)
	}
	code, ir, raw := mustPostInfer(t, hs.Client(), hs.URL,
		inferRequest{Dataset: "tiny", Pairs: reqPairs})
	if code != http.StatusOK {
		t.Fatalf("settle infer status = %d (%s)", code, raw)
	}
	if ir.Model != finalID {
		t.Fatalf("settled model = %q, want %q", ir.Model, finalID)
	}
	for i, d := range ir.Decisions {
		if d != want[i] {
			t.Fatalf("settled pair %d: served %v != direct %v", i, d, want[i])
		}
	}
}
