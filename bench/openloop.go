package main

import (
	"context"
	"net/http"
	"sort"
	"sync"
	"time"
)

// lateThreshold is how far past its due instant a request may be handed
// off before the generator counts itself late. Latency is timed from the
// due instant either way; lateness only says the generator, not the
// server, fell behind.
const lateThreshold = 2 * time.Millisecond

// sample is the outcome of one scheduled request.
type sample struct {
	due     time.Duration // due instant, as an offset from the phase start
	latency time.Duration // completion minus the due instant
	ok      bool
}

// phase is the result of one open-loop run over a schedule.
type phase struct {
	scheduled int
	sent      int
	samples   []sample // sent requests, in schedule order
	late      int
	maxLag    time.Duration
	length    time.Duration // nominal schedule length
}

// failed counts requests that were scheduled but did not succeed,
// including any the generator never sent.
func (p *phase) failed() int {
	n := p.scheduled - p.sent
	for _, s := range p.samples {
		if !s.ok {
			n++
		}
	}
	return n
}

// latencies returns the latencies of successful requests in ms, ascending.
func (p *phase) latencies() []float64 {
	out := make([]float64, 0, len(p.samples))
	for _, s := range p.samples {
		if s.ok {
			out = append(out, ms(s.latency))
		}
	}
	sort.Float64s(out)
	return out
}

// evenDues spaces rate·length requests evenly across length; a zero rate
// schedules none.
func evenDues(rate float64, length time.Duration) []time.Duration {
	n := int(rate*length.Seconds() + 0.5)
	dues := make([]time.Duration, n)
	for i := range dues {
		dues[i] = time.Duration(float64(i) / rate * float64(time.Second))
	}
	return dues
}

// runOpenLoop issues request i at start+dues[i] whatever earlier requests
// are doing, and times each from that due instant, so time spent queued
// for one of the client's pooled connections or behind a stalled request
// counts against the system, not against the schedule.
//
// With lanes == 0 each request runs on its own goroutine and the
// transport's connection limit is the only bound on concurrency. With
// lanes > 0 request i joins lane i%lanes and each lane sends its requests
// one after another, which keeps per-lane ordering (the check-in writer
// needs it for monotonic timestamps); a lane that falls behind shows as
// latency, not as generator lag.
//
// Cancelling ctx stops dispatch; the phase then reports sent < scheduled.
func runOpenLoop(ctx context.Context, start time.Time, dues []time.Duration, lanes int, do func(ctx context.Context, i int) bool) *phase {
	p := &phase{scheduled: len(dues)}
	if len(dues) > 0 {
		p.length = dues[len(dues)-1]
	}
	results := make([]sample, len(dues))
	var wg sync.WaitGroup
	finish := func(i int) {
		ok := do(ctx, i)
		results[i] = sample{due: dues[i], latency: time.Since(start) - dues[i], ok: ok}
	}

	var laneCh []chan int
	for l := 0; l < lanes; l++ {
		// Sized to every request the lane can be given, so dispatch never
		// blocks on a lane that is behind.
		ch := make(chan int, len(dues)/lanes+1)
		laneCh = append(laneCh, ch)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ch {
				finish(i)
			}
		}()
	}

dispatch:
	for i, due := range dues {
		if wait := time.Until(start.Add(due)); wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				break dispatch
			}
		} else if ctx.Err() != nil {
			break
		}
		if lag := time.Since(start) - due; lag > lateThreshold {
			p.late++
			if lag > p.maxLag {
				p.maxLag = lag
			}
		}
		p.sent++
		if lanes > 0 {
			laneCh[i%lanes] <- i
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			finish(i)
		}(i)
	}
	for _, ch := range laneCh {
		close(ch)
	}
	wg.Wait()
	p.samples = results[:p.sent]
	return p
}

// newClient returns an HTTP client whose transport keeps at most conns
// connections to the server, as a generator with one connection per core
// would.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		IdleConnTimeout:     time.Minute,
		DisableCompression:  true,
	}}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
