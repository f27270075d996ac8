package serve

// Chaos acceptance suite (`make chaos`): replays a deterministic
// open-loop read schedule against a server with a seeded fault-injection
// schedule active — corrupted model artifacts and failed table builds on
// the swap path, failed writes on the check-in path — and asserts the
// failure-hardening invariants:
//
//  1. Correctness under faults: every 200 is byte-identical to a direct
//     Infer of the model the response names.
//  2. Last-known-good: swap attempts that hit a corrupt artifact (422) or
//     a failed table build (500) are rejected and counted, and the old
//     model keeps serving.
//  3. Write faults stay on the write path: a faulted check-in batch is
//     answered 500 and applies nothing; every other batch is applied.
//  4. No request is dropped on the floor: every scheduled read gets a 200
//     (no connection errors, no panics).
//
// Everything is seeded — the synth world, the fault schedule, the load
// schedule — so a violation reproduces exactly.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"github.com/friendseeker/friendseeker/internal/core"
	"github.com/friendseeker/friendseeker/internal/faultinject"
	"github.com/friendseeker/friendseeker/internal/ingest"
	"github.com/friendseeker/friendseeker/internal/loadsched"
)

const chaosPairsPerRequest = 4

// chaosResult records one replayed request for post-hoc verification.
type chaosResult struct {
	code   int
	offset int
	model  string
	dec    []bool
	body   string
}

// chaosSend returns a loadsched.SendFunc posting rotating pair chunks and
// recording each response into results[i].
func chaosSend(f *serveFixture, client *http.Client, url string, results []chaosResult) loadsched.SendFunc {
	return func(i int) (int, error) {
		offset := (i * 3) % (len(f.pairs) - chaosPairsPerRequest)
		body := make([][2]int64, chaosPairsPerRequest)
		for j, p := range f.pairs[offset : offset+chaosPairsPerRequest] {
			body[j] = [2]int64{int64(p.A), int64(p.B)}
		}
		payload, err := json.Marshal(inferRequest{Dataset: "tiny", Pairs: body})
		if err != nil {
			return 0, err
		}
		resp, err := client.Post(url+"/v1/infer", "application/json", bytes.NewReader(payload))
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			return 0, err
		}
		r := chaosResult{code: resp.StatusCode, offset: offset, body: string(raw)}
		if resp.StatusCode == http.StatusOK {
			var ir inferResponse
			if err := json.Unmarshal(raw, &ir); err != nil {
				return 0, err
			}
			r.model = ir.Model
			r.dec = ir.Decisions
		}
		results[i] = r
		return resp.StatusCode, nil
	}
}

// verifyChaosResults checks invariants 1 and 4 and returns how many
// answers each model gave.
func verifyChaosResults(t *testing.T, f *serveFixture, results []chaosResult) map[string]int {
	t.Helper()
	truth := map[string][]bool{"model-a": f.directA, "model-b": f.directB}
	served := map[string]int{}
	for i, r := range results {
		if r.code != http.StatusOK {
			t.Fatalf("request %d: status %d (%s)", i, r.code, r.body)
		}
		direct, ok := truth[r.model]
		if !ok {
			t.Fatalf("request %d: unknown model %q", i, r.model)
		}
		served[r.model]++
		want := direct[r.offset : r.offset+chaosPairsPerRequest]
		for j := range r.dec {
			if r.dec[j] != want[j] {
				t.Fatalf("request %d (offset %d, %s) pair %d: served %v, Infer %v",
					i, r.offset, r.model, j, r.dec[j], want[j])
			}
		}
	}
	return served
}

// post sends one JSON body and returns the status code; it is safe off
// the test goroutine.
func post(client *http.Client, url string, body any) (int, error) {
	var payload []byte
	if body != nil {
		var err error
		if payload, err = json.Marshal(body); err != nil {
			return 0, err
		}
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(payload))
	if err != nil {
		return 0, err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, nil
}

func TestChaosAcceptance(t *testing.T) {
	f := getFixture(t)

	// The seeded fault schedule: the first two model reloads read a
	// corrupted artifact; the table builds of the next two swaps fail
	// (warm invocation 0 is New's own build); every third check-in batch
	// from the second on fails its write.
	inj, err := faultinject.Parse("load:corrupt@0-1;warm:err@1-2;ingest:err@1-*/3")
	if err != nil {
		t.Fatal(err)
	}

	var modelBRaw bytes.Buffer
	if err := f.modelB.Save(&modelBRaw); err != nil {
		t.Fatal(err)
	}
	reload := func() (*core.FriendSeeker, string, error) {
		raw := inj.Corrupt("load", modelBRaw.Bytes())
		m, err := core.Load(bytes.NewReader(raw))
		if err != nil {
			return nil, "", err
		}
		return m, "model-b", nil
	}
	g, err := ingest.Open(ingest.Options{
		Dir:    t.TempDir(),
		Base:   f.world.Dataset,
		Sigma:  60,
		Tau:    7 * 24 * time.Hour,
		Faults: inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	s, err := New(Config{Reload: reload, Ingest: g, Faults: inj},
		f.modelA, "model-a", []Dataset{{Name: "tiny", Data: f.world.Dataset}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	client := &http.Client{Timeout: 15 * time.Second}
	// A swap that lands builds a decision table, a full reference
	// inference, which under -race can outlast any read's timeout.
	admin := hs.Client()

	// --- Phase A: replay reads while four faulted swap attempts and a
	// stream of partly faulted check-in batches run beside them.
	sched := &loadsched.Schedule{
		Mode: loadsched.ModeBurst, Seed: 42,
		Slot:        150 * time.Millisecond,
		Invocations: []int{40, 40, 40, 40},
	}
	results := make([]chaosResult, 160)

	const batches, perBatch = 12, 5
	var (
		side      sync.WaitGroup
		swapCodes []int
		ckCodes   []int
		sideErrs  = make(chan error, 2)
	)
	side.Add(2)
	go func() {
		defer side.Done()
		for i := 0; i < 4; i++ {
			time.Sleep(100 * time.Millisecond)
			code, err := post(admin, hs.URL+"/v1/admin/swap", nil)
			if err != nil {
				sideErrs <- err
				return
			}
			swapCodes = append(swapCodes, code)
		}
	}()
	go func() {
		defer side.Done()
		for i := 0; i < batches; i++ {
			code, err := post(client, hs.URL+"/v1/checkins",
				checkinsRequest{Records: futureRecords(f, perBatch, i*perBatch)})
			if err != nil {
				sideErrs <- err
				return
			}
			ckCodes = append(ckCodes, code)
			time.Sleep(20 * time.Millisecond)
		}
	}()

	rep := loadsched.Replay(context.Background(), sched, chaosSend(f, client, hs.URL, results))
	side.Wait()
	close(sideErrs)
	for err := range sideErrs {
		t.Fatal(err)
	}

	// Invariant 4: every scheduled request was sent and answered 200.
	if rep.Sent != rep.Scheduled || rep.Scheduled != 160 {
		t.Fatalf("sent %d / scheduled %d: replay under faults dropped requests", rep.Sent, rep.Scheduled)
	}
	if rep.OK != rep.Sent {
		t.Fatalf("ok %d != sent %d (429=%d conn=%d failed=%d): every read must be answered 200",
			rep.OK, rep.Sent, rep.Rejected, rep.ConnError, rep.Failed)
	}
	// Invariant 1, and every answer came from model A.
	if served := verifyChaosResults(t, f, results); served["model-a"] != 160 {
		t.Fatalf("phase A answers by model = %v, want all 160 from model-a", served)
	}

	// Invariant 2: two corrupt artifacts (422), then two failed builds
	// (500); all counted, and model A kept serving.
	if want := []int{422, 422, 500, 500}; fmt.Sprint(swapCodes) != fmt.Sprint(want) {
		t.Fatalf("swap codes = %v, want %v", swapCodes, want)
	}
	if got := s.met.swapFailuresTotal.Value(); got != 4 {
		t.Errorf("swapFailuresTotal = %d, want 4", got)
	}
	if got := s.ModelID(); got != "model-a" {
		t.Fatalf("model id after failed swaps = %q, want model-a", got)
	}

	// Invariant 3: batches 1, 4, 7 and 10 were faulted, the rest applied.
	applied := 0
	for i, code := range ckCodes {
		want := http.StatusOK
		if i%3 == 1 {
			want = http.StatusInternalServerError
		} else {
			applied++
		}
		if code != want {
			t.Fatalf("check-in batch %d: status %d, want %d", i, code, want)
		}
	}
	if len(ckCodes) != batches {
		t.Fatalf("check-in batches answered = %d, want %d", len(ckCodes), batches)
	}
	if got := g.Stats().Streamed; got != applied*perBatch {
		t.Fatalf("streamed check-ins = %d, want %d", got, applied*perBatch)
	}

	// --- Phase B: the swap faults are exhausted; a clean reload now swaps
	// to model B with zero downtime, and the full replay answers exactly as
	// model B.
	if code, err := post(admin, hs.URL+"/v1/admin/swap", nil); err != nil || code != http.StatusOK {
		t.Fatalf("clean swap: status %d err %v", code, err)
	}
	if got := s.ModelID(); got != "model-b" {
		t.Fatalf("model id after clean swap = %q, want model-b", got)
	}
	schedB := &loadsched.Schedule{
		Mode: loadsched.ModeBurst, Seed: 43,
		Slot:        150 * time.Millisecond,
		Invocations: []int{30, 30},
	}
	resultsB := make([]chaosResult, 60)
	repB := loadsched.Replay(context.Background(), schedB, chaosSend(f, client, hs.URL, resultsB))
	if repB.OK != repB.Sent || repB.Sent != 60 {
		t.Fatalf("phase B: ok %d sent %d", repB.OK, repB.Sent)
	}
	if served := verifyChaosResults(t, f, resultsB); served["model-b"] != 60 {
		t.Fatalf("phase B answers by model = %v, want all 60 from model-b", served)
	}
	t.Logf("chaos: phase A swaps rejected=4 check-ins faulted=%d, phase B clean on %s",
		batches-applied, s.ModelID())
}
