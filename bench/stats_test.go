package main

import (
	"math"
	"strings"
	"testing"
)

func ascending(n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = float64(i + 1)
	}
	return v
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n      int
		wantQ  float64
		wantOK bool
	}{
		{n: 1000, wantQ: 0.99, wantOK: true},
		{n: 5000, wantQ: 0.99, wantOK: true},
		{n: 500, wantQ: 0.98, wantOK: true}, // p99 would rest on 5 samples
		{n: 999, wantQ: 1 - 10.0/999, wantOK: true},
		{n: 15, wantOK: false},
	} {
		v, q, ok := tailPercentile(ascending(tc.n), 0.99)
		if ok != tc.wantOK {
			t.Fatalf("n=%d: ok=%v, want %v", tc.n, ok, tc.wantOK)
		}
		if !ok {
			continue
		}
		if math.Abs(q-tc.wantQ) > 1e-12 {
			t.Errorf("n=%d: reported quantile %v, want %v", tc.n, q, tc.wantQ)
		}
		if beyond := tc.n - int(v); beyond < minTail {
			t.Errorf("n=%d: %d samples beyond the reported value %v, want at least %d", tc.n, beyond, v, minTail)
		}
	}
}

// The quartiles match Python's statistics.quantiles(values, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{ascending(10), 2.75, 8.25},             // quantiles(range(1,11), n=4)
		{[]float64{3, 1, 2}, 1, 3},              // quantiles([1,2,3], n=4)
		{[]float64{5, 7}, 4.5, 7.5},             // quantiles([5,7], n=4)
		{[]float64{10, 20, 30, 40}, 12.5, 37.5}, // quantiles([10,20,30,40], n=4)
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9}, 2.5, 7.5},
	} {
		q1, q3 := quartiles(tc.v)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.v, q1, q3, tc.q1, tc.q3)
		}
	}
	if got := spread(ascending(10)); math.Abs(got-5.5/5.5) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median = %v, want 2", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

const scrapeBefore = `# HELP fs_serve_request_seconds infer request latency (seconds)
# TYPE fs_serve_request_seconds histogram
fs_serve_request_seconds_bucket{le="0.001"} 10
fs_serve_request_seconds_bucket{le="0.0025"} 20
fs_serve_request_seconds_bucket{le="0.005"} 20
fs_serve_request_seconds_bucket{le="+Inf"} 20
fs_serve_request_seconds_sum 0.03
fs_serve_request_seconds_count 20
# TYPE fs_serve_timeout_total counter
fs_serve_timeout_total 1
# TYPE fs_serve_inflight gauge
fs_serve_inflight 3
`

const scrapeAfter = `fs_serve_request_seconds_bucket{le="0.001"} 10
fs_serve_request_seconds_bucket{le="0.0025"} 70
fs_serve_request_seconds_bucket{le="0.005"} 119
fs_serve_request_seconds_bucket{le="+Inf"} 120
fs_serve_request_seconds_sum 0.33
fs_serve_request_seconds_count 120
fs_serve_timeout_total 4
fs_serve_inflight 0
`

func TestScrapeDelta(t *testing.T) {
	before, err := parseProm(strings.NewReader(scrapeBefore))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseProm(strings.NewReader(scrapeAfter))
	if err != nil {
		t.Fatal(err)
	}
	d := after.since(before)
	// 100 new requests: 50 in (1ms, 2.5ms], 49 in (2.5ms, 5ms], 1 beyond.
	if got := d.values["fs_serve_timeout_total"]; got != 3 {
		t.Errorf("counter delta = %v, want 3", got)
	}
	if got := d.mean("fs_serve_request_seconds"); math.Abs(got-0.003) > 1e-12 {
		t.Errorf("mean = %v, want 0.003", got)
	}
	// Rank 50 of 100 is the last of the (1ms, 2.5ms] bucket.
	if got := d.quantile("fs_serve_request_seconds", 0.5); math.Abs(got-0.0025) > 1e-12 {
		t.Errorf("p50 = %v, want 0.0025", got)
	}
	// Rank 75 lies 25/49 of the way through (2.5ms, 5ms].
	if got, want := d.quantile("fs_serve_request_seconds", 0.75), 0.0025+0.0025*25/49; math.Abs(got-want) > 1e-12 {
		t.Errorf("p75 = %v, want %v", got, want)
	}
	// Rank 99.5 falls in the +Inf bucket: the highest finite bound.
	if got := d.quantile("fs_serve_request_seconds", 0.999); got != 0.005 {
		t.Errorf("p99.9 = %v, want 0.005", got)
	}
	if got := d.quantile("missing", 0.5); got != 0 {
		t.Errorf("quantile of a missing histogram = %v, want 0", got)
	}
}

func TestParsePromRejectsUnknownLabels(t *testing.T) {
	if _, err := parseProm(strings.NewReader(`fs_x{dataset="w"} 1` + "\n")); err == nil {
		t.Fatal("want an error for labels the server does not write")
	}
}
