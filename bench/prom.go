package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// scrape is one parsed /metrics page: plain series (counters, gauges and
// the _sum/_count lines of histograms) and histogram buckets.
type scrape struct {
	values map[string]float64
	hists  map[string]*histogram
}

// histogram holds cumulative bucket counts in ascending bound order; the
// last bound is +Inf.
type histogram struct {
	bounds []float64
	cum    []float64
}

// parseProm reads the Prometheus text exposition format the server writes.
// Labels other than a bucket's le are not used by the server and are
// rejected, so a format change fails loudly instead of mis-parsing.
func parseProm(r io.Reader) (*scrape, error) {
	s := &scrape{values: make(map[string]float64), hists: make(map[string]*histogram)}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		series, valStr, ok := strings.Cut(line, " ")
		if !ok {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(valStr), 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: bad value in %q: %w", line, err)
		}
		name, labels, hasLabels := strings.Cut(series, "{")
		if !hasLabels {
			s.values[name] = v
			continue
		}
		base, isBucket := strings.CutSuffix(name, "_bucket")
		le, ok := strings.CutPrefix(strings.TrimSuffix(labels, "}"), `le="`)
		if !isBucket || !ok || !strings.HasSuffix(le, `"`) {
			return nil, fmt.Errorf("metrics: unsupported labels in %q", line)
		}
		bound, err := strconv.ParseFloat(strings.TrimSuffix(le, `"`), 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: bad bucket bound in %q: %w", line, err)
		}
		h := s.hists[base]
		if h == nil {
			h = &histogram{}
			s.hists[base] = h
		}
		h.bounds = append(h.bounds, bound)
		h.cum = append(h.cum, v)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for name, h := range s.hists {
		if !sort.Float64sAreSorted(h.bounds) || !math.IsInf(h.bounds[len(h.bounds)-1], 1) {
			return nil, fmt.Errorf("metrics: histogram %s buckets out of order or missing +Inf", name)
		}
	}
	return s, nil
}

// since returns the change from an earlier scrape of the same process.
func (s *scrape) since(before *scrape) *scrape {
	d := &scrape{values: make(map[string]float64, len(s.values)), hists: make(map[string]*histogram, len(s.hists))}
	for k, v := range s.values {
		d.values[k] = v - before.values[k]
	}
	for k, h := range s.hists {
		dh := &histogram{bounds: h.bounds, cum: append([]float64(nil), h.cum...)}
		if b := before.hists[k]; b != nil && len(b.cum) == len(h.cum) {
			for i := range dh.cum {
				dh.cum[i] -= b.cum[i]
			}
		}
		d.hists[k] = dh
	}
	return d
}

// mean is a histogram's _sum over its _count, 0 with no observations.
func (s *scrape) mean(name string) float64 {
	n := s.values[name+"_count"]
	if n == 0 {
		return 0
	}
	return s.values[name+"_sum"] / n
}

// quantile estimates a histogram's q-quantile by linear interpolation
// inside the bucket holding it, as Prometheus' histogram_quantile does.
// A quantile in the +Inf bucket reads as the highest finite bound.
func (s *scrape) quantile(name string, q float64) float64 {
	h := s.hists[name]
	if h == nil || len(h.cum) == 0 || h.cum[len(h.cum)-1] == 0 {
		return 0
	}
	rank := q * h.cum[len(h.cum)-1]
	lower, below := 0.0, 0.0
	for i, c := range h.cum {
		if c >= rank {
			if math.IsInf(h.bounds[i], 1) {
				return lower
			}
			if c == below {
				return h.bounds[i]
			}
			return lower + (h.bounds[i]-lower)*(rank-below)/(c-below)
		}
		lower, below = h.bounds[i], c
	}
	return lower
}
