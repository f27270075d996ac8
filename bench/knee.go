package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// The service-level objective a knee probe must meet.
const (
	sloP99Ms      = 25.0 // p99 latency from the due instant
	sloMaxFailed  = 0.01 // share of scheduled requests that may fail
	sloBacklogMax = 2.0  // last-quarter p50 over first-quarter p50

	probeWindows = 3 // a probe's p99 is the median of this many windows' p99

	kneeStep       = 1.25 // rate multiplier while stepping up
	kneeResolution = 1.03 // bisect until the bracket is this narrow
	kneeCapFactor  = 8.0  // never probe beyond this multiple of the reference rate
)

// verdict is one probe judged against the objective.
type verdict struct {
	rate     float64
	n        int
	failFrac float64
	p99Ms    float64
	firstP50 float64
	lastP50  float64
	pass     bool
	reason   string
}

func (v verdict) String() string {
	s := fmt.Sprintf("%8.1f/s n=%d p99=%.2fms fail=%.4f p50 first/last=%.2f/%.2fms", v.rate, v.n, v.p99Ms, v.failFrac, v.firstP50, v.lastP50)
	if v.pass {
		return s + " pass"
	}
	return s + " FAIL " + v.reason
}

// judge applies the objective to a phase run at rate. A failed or unsent
// request counts as missing the latency limit. The p99 is taken in each
// of probeWindows consecutive windows and the median kept, so one stall
// fails one window, not the probe; a rate the server cannot sustain fails
// every window.
func judge(p *phase, rate float64) verdict {
	v := verdict{rate: rate, n: p.scheduled}
	if p.scheduled == 0 {
		v.reason = "empty schedule"
		return v
	}
	windows := make([][]float64, probeWindows)
	var first, last []float64
	add := func(due time.Duration, l float64) {
		w := probeWindows - 1
		if p.length > 0 {
			w = min(w, int(int64(due)*probeWindows/int64(p.length+1)))
		}
		windows[w] = append(windows[w], l)
		switch {
		case due < p.length/4:
			first = append(first, l)
		case due >= p.length*3/4:
			last = append(last, l)
		}
	}
	for _, s := range p.samples {
		l := math.Inf(1)
		if s.ok {
			l = ms(s.latency)
		}
		add(s.due, l)
	}
	for i := p.sent; i < p.scheduled; i++ {
		add(p.length, math.Inf(1))
	}
	var tails []float64
	for _, w := range windows {
		if len(w) > 0 {
			sort.Float64s(w)
			tails = append(tails, nearestRank(w, 0.99))
		}
	}
	sort.Float64s(first)
	sort.Float64s(last)
	v.p99Ms = median(tails)
	v.failFrac = float64(p.failed()) / float64(p.scheduled)
	v.firstP50 = nearestRank(first, 0.5)
	v.lastP50 = nearestRank(last, 0.5)
	switch {
	case v.failFrac > sloMaxFailed:
		v.reason = "failures"
	case v.p99Ms > sloP99Ms:
		v.reason = "p99"
	case len(first) > 0 && len(last) > 0 && v.lastP50 > sloBacklogMax*v.firstP50:
		v.reason = "growing backlog"
	default:
		v.pass = true
	}
	return v
}

// knee is the outcome of a knee search.
type knee struct {
	rate   float64 // highest rate that met the objective
	capped bool    // the search stopped at the cap without a failing probe
	probes []verdict
}

// searchKnee finds the highest rate meeting the objective. It starts from
// the reference rate, whose verdict the caller already has, steps up by
// kneeStep until a probe fails (or down until one passes), then bisects
// the bracket geometrically until it is within kneeResolution.
func searchKnee(ref verdict, probe func(rate float64) (verdict, error)) (knee, error) {
	k := knee{probes: []verdict{ref}}
	run := func(rate float64) (bool, error) {
		v, err := probe(rate)
		if err != nil {
			return false, err
		}
		k.probes = append(k.probes, v)
		return v.pass, nil
	}
	limit := ref.rate * kneeCapFactor
	floor := ref.rate / kneeCapFactor
	var lo, hi float64
	if ref.pass {
		lo = ref.rate
		for {
			r := math.Min(lo*kneeStep, limit)
			pass, err := run(r)
			if err != nil {
				return k, err
			}
			if !pass {
				hi = r
				break
			}
			lo = r
			if r >= limit {
				k.rate, k.capped = lo, true
				return k, nil
			}
		}
	} else {
		hi = ref.rate
		for {
			r := hi / kneeStep
			if r < floor {
				return k, fmt.Errorf("knee below %.1f/s: every probe failed", floor)
			}
			pass, err := run(r)
			if err != nil {
				return k, err
			}
			if pass {
				lo = r
				break
			}
			hi = r
		}
	}
	for hi/lo > kneeResolution {
		mid := math.Sqrt(lo * hi)
		pass, err := run(mid)
		if err != nil {
			return k, err
		}
		if pass {
			lo = mid
		} else {
			hi = mid
		}
	}
	k.rate = lo
	return k, nil
}
