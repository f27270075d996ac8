package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestJudgeChange(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102}
	for _, tc := range []struct {
		name   string
		b      []float64
		higher bool
		want   string
	}{
		{"same", []float64{101, 100, 102, 99, 101}, false, same},
		{"slower beyond bound", []float64{115, 116, 114, 115, 117}, false, worse},
		{"faster beyond bound", []float64{80, 81, 79, 80, 82}, false, better},
		{"higher is better", []float64{115, 116, 114, 115, 117}, true, better},
		{"spread wider than bound", []float64{60, 140, 100, 70, 130}, false, unresolved},
		{"wide but every run better", []float64{50, 90, 70, 55, 85}, false, better},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, got := judgeChange(base, tc.b, tc.higher, 0.10); got != tc.want {
				t.Fatalf("verdict %q, want %q", got, tc.want)
			}
		})
	}
}

// BENCHMARK.json must name exactly the workloads and metrics the
// benchmark reports, with the same units and directions.
func TestBenchmarkFileMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark runs %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d is %q, want %q", i, w.Name, workloads[i])
		}
	}
	check := func(kind string, defs []metricDef, names, units, betters []string) {
		if len(names) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the benchmark reports %d", kind, len(names), len(defs))
		}
		for i, d := range defs {
			dir := "lower"
			if d.higher {
				dir = "higher"
			}
			if names[i] != d.name || units[i] != d.unit || betters[i] != dir {
				t.Errorf("%s %d: file has %s %s %s, benchmark reports %s %s %s",
					kind, i, names[i], units[i], betters[i], d.name, d.unit, dir)
			}
		}
	}
	var n, u, b []string
	for _, m := range bf.EndToEnd {
		n, u, b = append(n, m.Name), append(u, m.Unit), append(b, m.Better)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	check("end_to_end", e2eMetrics, n, u, b)
	n, u, b = nil, nil, nil
	for _, m := range bf.PerLayer {
		n, u, b = append(n, m.Name), append(u, m.Unit), append(b, m.Better)
	}
	check("per_layer", layerMetrics, n, u, b)
}

const pprofTop = `File: bench
Type: cpu
Showing nodes accounting for 10.50s, 95.45% of 11s total
      flat  flat%   sum%        cum   cum%
     6.20s 56.36% 56.36%      6.20s 56.36%  github.com/friendseeker/friendseeker/internal/tensor.MatMulInto
     1.50s 13.64% 70.00%      2.00s 18.18%  runtime.mallocgc
     800ms  7.27% 77.27%      1.10s 10.00%  github.com/friendseeker/friendseeker/internal/core.(*FriendSeeker).Train.func1
     500ms  4.55% 81.82%      500ms  4.55%  internal/runtime/maps.(*Map).getWithKeySmall
     1.20mins 9.09% 90.91%    1.20mins 9.09%  github.com/friendseeker/friendseeker/internal/graph.(*Khopper).Subgraph
      50ms  0.45% 91.36%       50ms  0.45%  math.Exp
`

func TestSumTop(t *testing.T) {
	got, err := sumTop([]byte(pprofTop))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"tensor": 6.2, "runtime": 2.0, "core": 0.8, "graph": 72}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for k, v := range want {
		if d := got[k] - v; d > 1e-9 || d < -1e-9 {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
	if !strings.Contains(pprofTop, "math.Exp") || got["math"] != 0 {
		t.Error("packages outside the profiled set must be dropped")
	}
}
