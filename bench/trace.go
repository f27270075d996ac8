package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"
)

// span is one timed call the benchmark made into a layer of the program.
// Start and end are offsets in seconds from the start of the run that
// recorded it; parent names the span that caused it.
type span struct {
	Name   string  `json:"name"`
	Parent string  `json:"parent,omitempty"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// spanLog keeps a run's spans in memory until the run ends.
type spanLog struct {
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// record closes a span that began at from and returns its duration.
func (l *spanLog) record(name, parent string, from time.Time) time.Duration {
	now := time.Now()
	l.spans = append(l.spans, span{
		Name: name, Parent: parent,
		Start: from.Sub(l.t0).Seconds(), End: now.Sub(l.t0).Seconds(),
	})
	return now.Sub(from)
}

// writeSpans writes a traced run's spans as JSON under the trace directory.
func (e *benchEnv) writeSpans(name string, spans []span) error {
	b, err := json.MarshalIndent(spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(e.tracePath(name), append(b, '\n'), 0o644)
}

// profileByPackage sums a CPU profile's self time by package with
// `go tool pprof -top`. Runtime internals (runtime, internal/runtime/...)
// count as runtime; packages outside profiledPkgs are dropped.
func profileByPackage(ctx context.Context, profile string) (map[string]float64, error) {
	out, err := exec.CommandContext(ctx, "go", "tool", "pprof", "-top", "-nodecount=1000000", profile).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof %s: %w", profile, err)
	}
	return sumTop(out)
}

// sumTop parses `pprof -top` output: flat, flat%, sum%, cum, cum%, name.
func sumTop(out []byte) (map[string]float64, error) {
	sums := make(map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 6 || !strings.HasSuffix(f[1], "%") {
			continue
		}
		flat, ok := parsePprofDuration(f[0])
		if !ok {
			continue
		}
		pkg := packageOf(strings.Join(f[5:], " "))
		for _, p := range profiledPkgs {
			if p == pkg {
				sums[pkg] += flat
			}
		}
	}
	return sums, sc.Err()
}

// parsePprofDuration reads pprof's scaled durations ("870ms", "1.25s",
// "2.50mins") as seconds.
func parsePprofDuration(s string) (float64, bool) {
	for _, u := range []struct {
		suffix string
		scale  float64
	}{{"mins", 60}, {"hrs", 3600}, {"ms", 1e-3}, {"us", 1e-6}, {"ns", 1e-9}, {"s", 1}} {
		if v, ok := strings.CutSuffix(s, u.suffix); ok {
			x, err := strconv.ParseFloat(v, 64)
			return x * u.scale, err == nil
		}
	}
	return 0, false
}

// packageOf maps a symbol such as
// "github.com/friendseeker/friendseeker/internal/tensor.MatMulInto" to its
// last package element, folding the runtime's internal packages into
// "runtime".
func packageOf(fn string) string {
	if strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") || strings.HasPrefix(fn, "internal/runtime/") {
		return "runtime"
	}
	if i := strings.IndexAny(fn, "(["); i >= 0 {
		fn = fn[:i]
	}
	if i := strings.LastIndex(fn, "/"); i >= 0 {
		fn = fn[i+1:]
	}
	pkg, _, _ := strings.Cut(fn, ".")
	return pkg
}
