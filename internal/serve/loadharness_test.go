package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/friendseeker/friendseeker/internal/loadsched"
)

// TestSaturatingScheduleHonestAccounting drives the real serving stack
// with a deliberately saturating open-loop schedule: admission control
// must push back visibly (non-zero 429s) while the replayer holds the
// full schedule (sent == scheduled, no masked under-sending). Both
// in-flight slots are held, as stalled handlers would hold them, for the
// schedule's first slot, so a tiny world saturates deterministically.
func TestSaturatingScheduleHonestAccounting(t *testing.T) {
	f := getFixture(t)
	s := newTestServer(t, Config{MaxInFlight: 2})
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()

	const slot = 250 * time.Millisecond
	s.inflight <- struct{}{}
	s.inflight <- struct{}{}
	release := time.AfterFunc(slot, func() {
		<-s.inflight
		<-s.inflight
	})
	defer release.Stop()

	// 3 slots × 100 requests per 250ms slot = 400 rps offered against a
	// server whose admission is full for the whole first slot.
	sched := &loadsched.Schedule{
		Mode: loadsched.ModeBurst, Seed: 1,
		Slot:        slot,
		Invocations: []int{100, 100, 100},
	}
	client := &http.Client{Timeout: 5 * time.Second}
	pair := [][2]int64{{int64(f.pairs[0].A), int64(f.pairs[0].B)}}
	payload, err := json.Marshal(map[string]any{"dataset": "tiny", "pairs": pair})
	if err != nil {
		t.Fatal(err)
	}
	rep := loadsched.Replay(context.Background(), sched, func(i int) (int, error) {
		resp, err := client.Post(hs.URL+"/v1/infer", "application/json", bytes.NewReader(payload))
		if err != nil {
			return 0, err
		}
		resp.Body.Close()
		return resp.StatusCode, nil
	})

	if rep.Sent != rep.Scheduled || rep.Scheduled != 300 {
		t.Errorf("sent %d / scheduled %d: the open-loop replayer must hold a saturating schedule",
			rep.Sent, rep.Scheduled)
	}
	if rep.Rejected == 0 {
		t.Error("429s = 0: a schedule against a full in-flight bound must trip admission control")
	}
	if rep.OK == 0 {
		t.Error("ok = 0: admission control should shed load, not starve it entirely")
	}
	if got := rep.OK + rep.Rejected + rep.GatewayTimeout + rep.ClientTimeout + rep.ConnError + rep.Failed; got != rep.Sent {
		t.Errorf("outcomes %d != sent %d: every request must be accounted", got, rep.Sent)
	}
}
