package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchmarkFile is the part of BENCHMARK.json -compare reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// verdict names for one (metric, workload) comparison.
const (
	better     = "better"
	same       = "same"
	worse      = "worse"
	unresolved = "unresolved"
)

// judgeChange compares runs of a base (a) and a candidate (b). The change
// is the candidate median's gain over the base median as a share of the
// base median, positive when better. Where either side's spread is wider
// than the bound the comparison is unresolved, unless every candidate run
// beats every base run.
func judgeChange(a, b []float64, higherBetter bool, bound float64) (change float64, v string) {
	ma, mb := median(a), median(b)
	change = (mb - ma) / ma
	if !higherBetter {
		change = -change
	}
	beats := func(x, y float64) bool {
		if higherBetter {
			return x > y
		}
		return x < y
	}
	if spread(a) > bound || spread(b) > bound {
		for _, x := range b {
			for _, y := range a {
				if !beats(x, y) {
					return change, unresolved
				}
			}
		}
		return change, better
	}
	switch {
	case change < -bound:
		return change, worse
	case change > bound:
		return change, better
	}
	return change, same
}

// compareFiles prints one line per (metric, workload) present in both
// result files, judged against the bounds in the benchmark file.
func compareFiles(benchPath, aPath, bPath string, out io.Writer) error {
	raw, err := os.ReadFile(benchPath)
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("%s: %w", benchPath, err)
	}
	a, err := readResults(aPath)
	if err != nil {
		return err
	}
	b, err := readResults(bPath)
	if err != nil {
		return err
	}
	collect := func(rf *resultsFile, w, m string) []float64 {
		var v []float64
		for _, r := range rf.Results {
			if r.Workload == w && !r.Trace {
				if x, ok := r.Metrics[m]; ok {
					v = append(v, x)
				}
			}
		}
		return v
	}
	fmt.Fprintf(out, "%-14s %-16s %12s %12s %8s %6s  %s\n", "workload", "metric", "A median", "B median", "change", "bound", "verdict")
	for _, w := range workloads {
		for _, m := range bf.EndToEnd {
			va, vb := collect(a, w, m.Name), collect(b, w, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			change, v := judgeChange(va, vb, m.Better == "higher", m.Bound)
			fmt.Fprintf(out, "%-14s %-16s %12.6g %12.6g %+7.1f%% %5.0f%%  %s\n",
				w, m.Name, median(va), median(vb), 100*change, 100*m.Bound, v)
		}
	}
	return nil
}
