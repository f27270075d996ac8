package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"

	"github.com/friendseeker/friendseeker/internal/checkin"
	"github.com/friendseeker/friendseeker/internal/core"
	"github.com/friendseeker/friendseeker/internal/dataset"
	"github.com/friendseeker/friendseeker/internal/graph"
	"github.com/friendseeker/friendseeker/internal/serve"
	"github.com/friendseeker/friendseeker/internal/synth"
)

// The world every workload runs on: the gowalla-like preset at 160 users.
// It is fixed rather than drawn from -seed because its shape decides the
// cost of training: across world seeds 1-7 the visited POIs give an STD
// input width of 420 to 672 and Train takes 23 s to 49 s, which would
// swamp every other source of variation. Seed 40 has the narrowest STD of
// seeds 1-40 (294), which keeps a full set of runs within the benchmark's
// time budget. -seed drives the request streams, the check-in batches,
// the pairs checked for correctness and the attack's queries.
const (
	worldSeed  = 40
	worldUsers = 160

	// The serving model is trained once per build directory by the CLI
	// with its default settings; its split seed is the CLI default.
	modelSeed = 1
	trainFrac = 0.7
	negRatio  = 3.0
)

// world is the fixed trace as the program under test sees it: two CSVs.
type world struct {
	checkins, edges string
}

// ensureWorld writes the world's CSVs under dir unless they exist, the
// same way cmd/synthgen writes them.
func ensureWorld(dir string) (*world, error) {
	wdir := filepath.Join(dir, fmt.Sprintf("world-%d", worldSeed))
	w := &world{checkins: filepath.Join(wdir, "checkins.csv"), edges: filepath.Join(wdir, "edges.csv")}
	if _, err := os.Stat(w.edges); err == nil {
		return w, nil
	}
	cfg := synth.GowallaLike(worldSeed)
	cfg.NumUsers = worldUsers
	gen, err := synth.Generate(cfg)
	if err != nil {
		return nil, fmt.Errorf("generate world: %w", err)
	}
	tmp, err := os.MkdirTemp(dir, "world-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	var cb, eb bytes.Buffer
	if err := dataset.WriteCheckInsCSV(&cb, gen.Dataset); err != nil {
		return nil, err
	}
	if err := dataset.WriteEdgesCSV(&eb, gen.Truth); err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(tmp, "checkins.csv"), cb.Bytes(), 0o644); err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(tmp, "edges.csv"), eb.Bytes(), 0o644); err != nil {
		return nil, err
	}
	if err := os.Rename(tmp, wdir); err != nil {
		return nil, fmt.Errorf("publish world: %w", err)
	}
	return w, nil
}

// loadWorld reads the CSVs the way the CLI does before training.
func loadWorld(w *world) (*checkin.Dataset, *graph.Graph, error) {
	ds, err := readCheckIns(w.checkins)
	if err != nil {
		return nil, nil, err
	}
	ds, err = ds.FilterMinCheckIns(2)
	if err != nil {
		return nil, nil, err
	}
	ef, err := os.Open(w.edges)
	if err != nil {
		return nil, nil, err
	}
	defer ef.Close()
	truth, err := dataset.ReadEdgesCSV(ef)
	if err != nil {
		return nil, nil, fmt.Errorf("read %s: %w", w.edges, err)
	}
	return ds, truth, nil
}

// readCheckIns reads a check-in CSV the way the server does.
func readCheckIns(path string) (*checkin.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	ds, err := dataset.ReadCheckInsCSV(f)
	if err != nil {
		return nil, fmt.Errorf("read %s: %w", path, err)
	}
	return ds, nil
}

// fixture is what the serving workloads need besides the world: a trained
// model file and what in-process Infer decides with it.
type fixture struct {
	world *world
	model string
	ds    *checkin.Dataset // as the server loads it
	pairs []checkin.Pair   // every user pair, the server's reference universe
	// want holds in-process Infer's decision per pair, aligned with pairs.
	want []bool
	// evalPairs and evalLabels are the held-out pairs of the model's split.
	evalPairs  []checkin.Pair
	evalLabels []bool
}

// ensureFixture trains the serving model with the CLI unless a model file
// exists, then loads it in-process and runs Infer over every user pair on
// the same CSV the server reads. The decisions are cached next to the
// model, keyed by the model file's hash.
func ensureFixture(ctx context.Context, dir, cli string, w *world) (*fixture, error) {
	fdir := filepath.Join(dir, fmt.Sprintf("fixture-%d", worldSeed))
	if err := os.MkdirAll(fdir, 0o755); err != nil {
		return nil, err
	}
	fx := &fixture{world: w, model: filepath.Join(fdir, "model.bin")}
	if _, err := os.Stat(fx.model); err != nil {
		cmd := exec.CommandContext(ctx, cli, "-checkins", w.checkins, "-edges", w.edges,
			"-seed", fmt.Sprint(modelSeed), "-save-model", fx.model)
		if out, err := cmd.CombinedOutput(); err != nil {
			return nil, fmt.Errorf("train serving model: %v\n%s", err, out)
		}
	}
	raw, err := os.ReadFile(fx.model)
	if err != nil {
		return nil, err
	}
	if fx.ds, err = readCheckIns(w.checkins); err != nil {
		return nil, err
	}
	fx.pairs = serve.AllUserPairs(fx.ds)

	sum := sha256.Sum256(raw)
	cache := filepath.Join(fdir, fmt.Sprintf("infer-%x.bin", sum[:8]))
	if b, err := os.ReadFile(cache); err == nil && len(b) == len(fx.pairs) {
		fx.want = make([]bool, len(b))
		for i, v := range b {
			fx.want[i] = v == 1
		}
	} else {
		model, err := core.Load(bytes.NewReader(raw))
		if err != nil {
			return nil, fmt.Errorf("load serving model: %w", err)
		}
		if fx.want, _, err = model.Infer(fx.ds, fx.pairs); err != nil {
			return nil, fmt.Errorf("reference infer: %w", err)
		}
		b := make([]byte, len(fx.want))
		for i, d := range fx.want {
			if d {
				b[i] = 1
			}
		}
		if err := writeAtomic(cache, b); err != nil {
			return nil, err
		}
	}

	ds, truth, err := loadWorld(w)
	if err != nil {
		return nil, err
	}
	split, err := (&synth.View{Dataset: ds, Truth: truth}).SplitPairs(trainFrac, negRatio, modelSeed)
	if err != nil {
		return nil, err
	}
	fx.evalPairs, fx.evalLabels = split.EvalPairs, split.EvalLabels
	return fx, nil
}

func writeAtomic(path string, b []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
