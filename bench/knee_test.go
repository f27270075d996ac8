package main

import (
	"math"
	"testing"
	"time"
)

// serviceCurve is a synthetic server that meets the objective up to knee.
func serviceCurve(knee float64) func(float64) (verdict, error) {
	return func(rate float64) (verdict, error) {
		return verdict{rate: rate, pass: rate <= knee}, nil
	}
}

func TestSearchKneeFindsServiceCurveKnee(t *testing.T) {
	for _, tc := range []struct {
		name      string
		ref, knee float64
	}{
		{"knee above reference", 300, 653},
		{"knee just above reference", 120, 130},
		{"knee below reference", 1000, 410},
	} {
		t.Run(tc.name, func(t *testing.T) {
			probe := serviceCurve(tc.knee)
			ref, _ := probe(tc.ref)
			k, err := searchKnee(ref, probe)
			if err != nil {
				t.Fatal(err)
			}
			if k.capped || k.rate > tc.knee || k.rate < tc.knee/1.03 {
				t.Fatalf("knee %.1f (capped %v), want within 3%% below %.1f", k.rate, k.capped, tc.knee)
			}
			if len(k.probes) > 12 {
				t.Errorf("%d probes, want a handful", len(k.probes))
			}
		})
	}
}

func TestSearchKneeFlagsCap(t *testing.T) {
	probe := serviceCurve(math.Inf(1))
	ref, _ := probe(100)
	k, err := searchKnee(ref, probe)
	if err != nil {
		t.Fatal(err)
	}
	if !k.capped || k.rate != 800 {
		t.Fatalf("knee %.1f capped %v, want 800 flagged as capped", k.rate, k.capped)
	}
}

func TestSearchKneeGivesUpBelowFloor(t *testing.T) {
	probe := serviceCurve(0)
	ref, _ := probe(100)
	if _, err := searchKnee(ref, probe); err == nil {
		t.Fatal("want an error when no rate passes")
	}
}

// synthPhase builds a phase of n requests over length whose latency at
// due instant d is lat(d).
func synthPhase(n int, length time.Duration, lat func(d time.Duration) time.Duration) *phase {
	p := &phase{scheduled: n, sent: n, length: length}
	for i := 0; i < n; i++ {
		d := length * time.Duration(i) / time.Duration(n)
		p.samples = append(p.samples, sample{due: d, latency: lat(d), ok: true})
	}
	return p
}

func TestJudge(t *testing.T) {
	const length = 2 * time.Second
	flat := func(time.Duration) time.Duration { return 3 * time.Millisecond }
	// A queue that grows through the probe: every latency stays inside the
	// p99 limit, but the last quarter waits far longer than the first.
	growing := func(d time.Duration) time.Duration { return time.Millisecond + 10*d/length*time.Millisecond }
	// 2% of the requests in a window are slow: in one window only (a
	// stall), or in every window.
	slowIn := func(windows ...int) func(time.Duration) time.Duration {
		return func(d time.Duration) time.Duration {
			w := int(d * probeWindows / length)
			for _, s := range windows {
				if w == s && d%(length/probeWindows) > length/probeWindows*98/100 {
					return 40 * time.Millisecond
				}
			}
			return 3 * time.Millisecond
		}
	}
	failing := synthPhase(1000, length, flat)
	for i := 0; i < 20; i++ {
		failing.samples[i*50].ok = false
	}
	unsent := synthPhase(1000, length, flat)
	unsent.scheduled = 1020

	for _, tc := range []struct {
		name   string
		p      *phase
		pass   bool
		reason string
	}{
		{"flat", synthPhase(1000, length, flat), true, ""},
		{"growing backlog", synthPhase(1000, length, growing), false, "growing backlog"},
		{"stall in one window", synthPhase(1500, length, slowIn(1)), true, ""},
		{"slow tail throughout", synthPhase(1500, length, slowIn(0, 1, 2)), false, "p99"},
		{"failures", failing, false, "failures"},
		{"unsent", unsent, false, "failures"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			v := judge(tc.p, 500)
			if v.pass != tc.pass || v.reason != tc.reason {
				t.Fatalf("judge = pass %v reason %q (%s), want pass %v reason %q", v.pass, v.reason, v, tc.pass, tc.reason)
			}
		})
	}
}
