package main

import (
	"strings"
	"testing"
	"time"
)

func TestParseServeFlags(t *testing.T) {
	sf, err := parseServeFlags([]string{
		"-model", "m.bin",
		"-data", "tiny=tiny.csv",
		"-data", "big=big.csv",
		"-max-inflight", "16",
		"-max-pairs", "32",
		"-drain-timeout", "2s",
	})
	if err != nil {
		t.Fatal(err)
	}
	if sf.modelPath != "m.bin" || sf.maxInFlight != 16 || sf.maxPairs != 32 || sf.drainTimeout != 2*time.Second {
		t.Errorf("parsed flags = %+v", sf)
	}
	if len(sf.datasets) != 2 || sf.datasets["tiny"] != "tiny.csv" || sf.datasets["big"] != "big.csv" {
		t.Errorf("datasets = %v", sf.datasets)
	}
}

func TestParseServeFlagsErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"missing model", []string{"-data", "a=b.csv"}, "-model is required"},
		{"missing data", []string{"-model", "m.bin"}, "at least one -data"},
		{"malformed data", []string{"-model", "m.bin", "-data", "nopath"}, "name=path"},
		{"empty name", []string{"-model", "m.bin", "-data", "=b.csv"}, "name=path"},
		{"duplicate data", []string{"-model", "m.bin", "-data", "a=1.csv", "-data", "a=2.csv"}, "duplicate dataset"},
	} {
		_, err := parseServeFlags(tc.args)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
}
