package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"github.com/friendseeker/friendseeker/internal/core"
	"github.com/friendseeker/friendseeker/internal/faultinject"
)

// mustFaults parses a fault schedule or fails the test.
func mustFaults(t *testing.T, spec string) *faultinject.Injector {
	t.Helper()
	inj, err := faultinject.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	return inj
}

func getHealth(t *testing.T, client *http.Client, url string) (int, struct {
	Status       string `json:"status"`
	Model        string `json:"model"`
	SwapFailures int64  `json:"swap_failures"`
}) {
	t.Helper()
	var h struct {
		Status       string `json:"status"`
		Model        string `json:"model"`
		SwapFailures int64  `json:"swap_failures"`
	}
	resp, err := client.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, h
}

func adminSwap(t *testing.T, client *http.Client, url string) (int, string) {
	t.Helper()
	resp, err := client.Post(url+"/v1/admin/swap", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.String()
}

// TestSwapRejectsUntrained: an untrained (or nil) swap candidate is
// refused with 422, counted, and the last-known-good model keeps serving
// the exact same decisions.
func TestSwapRejectsUntrained(t *testing.T) {
	f := getFixture(t)
	untrained, err := core.New(quickCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	reload := func() (*core.FriendSeeker, string, error) { return untrained, "bad", nil }
	s := newTestServer(t, Config{Reload: reload})
	defer s.Shutdown(context.Background())
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	code, body := adminSwap(t, hs.Client(), hs.URL)
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("swap status = %d, want 422 (%s)", code, body)
	}
	if got := s.met.swapFailuresTotal.Value(); got != 1 {
		t.Errorf("swapFailuresTotal = %d, want 1", got)
	}
	if got := s.ModelID(); got != "model-a" {
		t.Fatalf("model id after rejected swap = %q, want model-a", got)
	}
	p := f.pairs[3]
	codeI, ir, raw := mustPostInfer(t, hs.Client(), hs.URL,
		inferRequest{Dataset: "tiny", Pairs: [][2]int64{{int64(p.A), int64(p.B)}}})
	if codeI != http.StatusOK || ir.Decisions[0] != f.directA[3] {
		t.Fatalf("post-rejection serving broke: %d %s", codeI, raw)
	}
	if _, h := getHealth(t, hs.Client(), hs.URL); h.SwapFailures != 1 {
		t.Errorf("healthz swap_failures = %d, want 1", h.SwapFailures)
	}

	// Direct API posture matches the endpoint.
	if err := s.Swap(context.Background(), nil, "nil"); err == nil {
		t.Fatal("Swap(nil) succeeded")
	}
}

// TestSwapRejectsCorruptArtifact: a reloader that hits a corrupt model
// file yields 422 (not 500), and the previous model keeps serving.
func TestSwapRejectsCorruptArtifact(t *testing.T) {
	f := getFixture(t)
	var buf bytes.Buffer
	if err := f.modelB.Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[len(raw)/2] ^= 0x01 // bit-flip mid-payload: checksum must catch it
	reload := func() (*core.FriendSeeker, string, error) {
		fs, err := core.Load(bytes.NewReader(raw))
		if err != nil {
			return nil, "", err
		}
		return fs, "model-b", nil
	}
	s := newTestServer(t, Config{Reload: reload})
	defer s.Shutdown(context.Background())
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	code, body := adminSwap(t, hs.Client(), hs.URL)
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("swap status = %d, want 422 (%s)", code, body)
	}
	if !strings.Contains(body, "corrupt") {
		t.Errorf("422 body should name the corruption: %s", body)
	}
	if got := s.ModelID(); got != "model-a" {
		t.Fatalf("model id after corrupt swap = %q, want model-a", got)
	}
	if got := s.met.swapFailuresTotal.Value(); got != 1 {
		t.Errorf("swapFailuresTotal = %d, want 1", got)
	}
}

// TestSwapRaceWithReload races direct Swap calls against the SIGHUP
// reload path (ReloadAndSwap): both contend on swapMu, so under -race
// this must be clean, every attempt must succeed, and the final state
// must be internally consistent (id matches the model the state holds).
func TestSwapRaceWithReload(t *testing.T) {
	f := getFixture(t)
	reload := func() (*core.FriendSeeker, string, error) { return f.modelA, "model-a", nil }
	s := newTestServer(t, Config{Reload: reload})
	defer s.Shutdown(context.Background())

	// Each successful swap builds a fresh decision table (a full reference
	// inference), so keep the round count modest; the point is lock
	// contention, not volume.
	const rounds = 3
	var wg sync.WaitGroup
	errs := make(chan error, 2*rounds)
	for i := 0; i < rounds; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			if err := s.Swap(context.Background(), f.modelB, "model-b"); err != nil {
				errs <- fmt.Errorf("swap: %w", err)
			}
		}()
		go func() {
			defer wg.Done()
			if _, err := s.ReloadAndSwap(context.Background()); err != nil {
				errs <- fmt.Errorf("reload: %w", err)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := s.met.swapsTotal.Value(); got != 2*rounds {
		t.Errorf("swapsTotal = %d, want %d (every serialized swap succeeds)", got, 2*rounds)
	}
	st := s.state.Load()
	switch st.id {
	case "model-a":
		if st.fs != f.modelA {
			t.Fatal("final state id model-a but holds a different model")
		}
	case "model-b":
		if st.fs != f.modelB {
			t.Fatal("final state id model-b but holds a different model")
		}
	default:
		t.Fatalf("final model id = %q", st.id)
	}
}

// TestSwapRetryAfterWarmFailure: a failed table build is not sticky. The
// faulted swap is rejected and the last-known-good model keeps serving its
// exact answers; the next swap of the same candidate builds again and
// lands.
func TestSwapRetryAfterWarmFailure(t *testing.T) {
	f := getFixture(t)
	s := newTestServer(t, Config{Faults: mustFaults(t, "warm:err@0")})
	defer s.Shutdown(context.Background())
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	ctx := context.Background()
	if err := s.Swap(ctx, f.modelB, "model-b"); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("faulted swap error = %v, want an injected fault", err)
	}
	if got := s.met.swapFailuresTotal.Value(); got != 1 {
		t.Errorf("swapFailuresTotal = %d, want 1", got)
	}
	p := f.pairs[2]
	req := inferRequest{Dataset: "tiny", Pairs: [][2]int64{{int64(p.A), int64(p.B)}}}
	code, ir, raw := mustPostInfer(t, hs.Client(), hs.URL, req)
	if code != http.StatusOK || ir.Model != "model-a" || ir.Decisions[0] != f.directA[2] {
		t.Fatalf("after failed swap: status %d (%s), want model-a deciding %v", code, raw, f.directA[2])
	}

	if err := s.Swap(ctx, f.modelB, "model-b"); err != nil {
		t.Fatalf("retried swap: %v", err)
	}
	code, ir, raw = mustPostInfer(t, hs.Client(), hs.URL, req)
	if code != http.StatusOK || ir.Model != "model-b" || ir.Decisions[0] != f.directB[2] {
		t.Fatalf("after retried swap: status %d (%s), want model-b deciding %v", code, raw, f.directB[2])
	}
}
