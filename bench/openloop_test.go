package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// A server that stalls its first request must show up in the latency of
// every request queued behind it for the client's only connection, timed
// from their due instants, while the generator itself stays on schedule.
func TestOpenLoopTimesFromDueInstantIncludingConnectionWait(t *testing.T) {
	const stall = 150 * time.Millisecond
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()
	client := newClient(1)
	p := &poster{client: client, url: srv.URL, bodies: make([][]byte, 4)}
	dues := []time.Duration{0, 10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond}

	ph := runOpenLoop(context.Background(), time.Now(), dues, 0, p.do)

	if ph.sent != len(dues) || ph.failed() != 0 {
		t.Fatalf("sent %d failed %d, want %d sent and none failed", ph.sent, ph.failed(), len(dues))
	}
	for i, s := range ph.samples {
		// Request i could not start before the stalled one finished at
		// `stall`, and is timed from its own due instant.
		if min := stall - dues[i]; s.latency < min {
			t.Errorf("request %d latency %v, want at least %v", i, s.latency, min)
		}
	}
	if ph.late != 0 {
		t.Errorf("generator late %d times (max %v) while only the server stalled", ph.late, ph.maxLag)
	}
}

// A generator that falls behind its schedule reports how late it ran, and
// the requests it fired late are still timed from when they were due.
func TestOpenLoopReportsLateGenerator(t *testing.T) {
	const behind = 100 * time.Millisecond
	dues := []time.Duration{0, 50 * time.Millisecond, 200 * time.Millisecond}
	ph := runOpenLoop(context.Background(), time.Now().Add(-behind), dues, 0,
		func(context.Context, int) bool { return true })

	if ph.late != 2 {
		t.Errorf("late = %d, want 2 (the two requests already due at start)", ph.late)
	}
	if ph.maxLag < behind {
		t.Errorf("max lag %v, want at least %v", ph.maxLag, behind)
	}
	if ph.samples[0].latency < behind {
		t.Errorf("first request latency %v, want at least %v from its due instant", ph.samples[0].latency, behind)
	}
}

// Lanes send their requests one at a time and in schedule order.
func TestOpenLoopLanesKeepOrder(t *testing.T) {
	const lanes = 2
	dues := make([]time.Duration, 40) // all due at once
	var mu sync.Mutex
	var inFlight [lanes]int
	var last [lanes]int
	for l := range last {
		last[l] = -1
	}
	ph := runOpenLoop(context.Background(), time.Now(), dues, lanes, func(_ context.Context, i int) bool {
		l := i % lanes
		mu.Lock()
		inFlight[l]++
		ok := inFlight[l] == 1 && i > last[l]
		last[l] = i
		mu.Unlock()
		time.Sleep(time.Millisecond)
		mu.Lock()
		inFlight[l]--
		mu.Unlock()
		return ok
	})
	if ph.failed() != 0 {
		t.Fatalf("%d requests overlapped within a lane or ran out of order", ph.failed())
	}
}

func TestOpenLoopCancelStopsDispatch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	dues := []time.Duration{0, time.Hour}
	ph := runOpenLoop(ctx, time.Now(), dues, 0, func(context.Context, int) bool {
		cancel()
		return true
	})
	if ph.sent != 1 || ph.failed() != 1 {
		t.Fatalf("sent %d failed %d, want 1 sent and the unsent one failed", ph.sent, ph.failed())
	}
}
