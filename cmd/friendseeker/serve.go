// The serve subcommand: a long-running HTTP inference server over a model
// previously written with -save-model. See internal/serve for the
// subsystem (per-dataset decision tables, admission control, hot model
// swap) and DESIGN.md "Serving architecture" for the design.
//
// Usage:
//
//	friendseeker serve -model model.bin -data tiny=trace.csv -listen :8470
//
// The model hot-swaps with zero downtime on SIGHUP (re-reading -model) or
// POST /v1/admin/swap. SIGINT/SIGTERM drain gracefully.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/friendseeker/friendseeker/internal/checkin"
	"github.com/friendseeker/friendseeker/internal/core"
	"github.com/friendseeker/friendseeker/internal/dataset"
	"github.com/friendseeker/friendseeker/internal/faultinject"
	"github.com/friendseeker/friendseeker/internal/ingest"
	"github.com/friendseeker/friendseeker/internal/metrics"
	"github.com/friendseeker/friendseeker/internal/resilience"
	"github.com/friendseeker/friendseeker/internal/serve"
	"github.com/friendseeker/friendseeker/internal/synth"
)

// serveFlags holds the parsed serve subcommand configuration.
type serveFlags struct {
	listen       string
	modelPath    string
	datasets     map[string]string // name -> check-in CSV path
	maxInFlight  int
	maxPairs     int
	drainTimeout time.Duration
	faults       string

	ingestDir       string
	ingestData      string
	maxCheckIns     int
	truthPath       string
	driftThreshold  float64
	driftWindow     int
	driftMin        int
	retrainInterval time.Duration
	retrainCooldown time.Duration
	retrainMinF1    float64
	retrainSeed     int64
}

func parseServeFlags(args []string) (*serveFlags, error) {
	fs := flag.NewFlagSet("friendseeker serve", flag.ContinueOnError)
	sf := &serveFlags{datasets: make(map[string]string)}
	fs.StringVar(&sf.listen, "listen", ":8470", "listen address")
	fs.StringVar(&sf.modelPath, "model", "", "trained model file (from -save-model); re-read on SIGHUP / admin swap")
	fs.Func("data", "dataset as name=checkins.csv (repeatable)", func(v string) error {
		name, path, ok := strings.Cut(v, "=")
		if !ok || name == "" || path == "" {
			return fmt.Errorf("want name=path, got %q", v)
		}
		if _, dup := sf.datasets[name]; dup {
			return fmt.Errorf("duplicate dataset %q", name)
		}
		sf.datasets[name] = path
		return nil
	})
	fs.IntVar(&sf.maxInFlight, "max-inflight", 64, "max concurrently admitted requests")
	fs.IntVar(&sf.maxPairs, "max-pairs", 256, "max pairs per request")
	fs.DurationVar(&sf.drainTimeout, "drain-timeout", 30*time.Second, "graceful shutdown drain budget")
	fs.StringVar(&sf.faults, "faults", "", "seeded fault-injection schedule, e.g. 'warm:err@1-2;ingest:delay=50ms@0' (chaos-test hook; keep empty in production)")
	fs.StringVar(&sf.ingestDir, "ingest-dir", "", "segment-log directory; enables POST /v1/checkins streaming ingestion")
	fs.StringVar(&sf.ingestData, "ingest-data", "", "dataset name the ingestor feeds (default: the sole -data)")
	fs.IntVar(&sf.maxCheckIns, "max-checkins", 1024, "max check-in records per POST /v1/checkins batch")
	fs.StringVar(&sf.truthPath, "truth", "", "ground-truth edges CSV for the ingest dataset; enables drift-triggered retraining")
	fs.Float64Var(&sf.driftThreshold, "drift-threshold", 0.5, "drift score that triggers a background retrain")
	fs.IntVar(&sf.driftWindow, "drift-window", 256, "drift detector window (check-ins)")
	fs.IntVar(&sf.driftMin, "drift-min-checkins", 50, "streamed check-ins before the drift score can be nonzero")
	fs.DurationVar(&sf.retrainInterval, "retrain-interval", 30*time.Second, "drift polling cadence of the retrain worker")
	fs.DurationVar(&sf.retrainCooldown, "retrain-cooldown", 5*time.Minute, "minimum gap between retrain attempts")
	fs.Float64Var(&sf.retrainMinF1, "retrain-min-f1", 0, "reject retrained candidates below this held-out F1 (0 disables the gate)")
	fs.Int64Var(&sf.retrainSeed, "retrain-seed", 1, "seed for the retrain train/eval pair split")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if sf.modelPath == "" {
		return nil, fmt.Errorf("-model is required")
	}
	if len(sf.datasets) == 0 {
		return nil, fmt.Errorf("at least one -data name=path is required")
	}
	if sf.ingestDir == "" {
		if sf.ingestData != "" {
			return nil, fmt.Errorf("-ingest-data requires -ingest-dir")
		}
		if sf.truthPath != "" {
			return nil, fmt.Errorf("-truth requires -ingest-dir")
		}
	} else {
		if sf.ingestData == "" {
			if len(sf.datasets) != 1 {
				return nil, fmt.Errorf("-ingest-data is required when more than one -data is given")
			}
			for name := range sf.datasets {
				sf.ingestData = name
			}
		}
		if _, ok := sf.datasets[sf.ingestData]; !ok {
			return nil, fmt.Errorf("-ingest-data %q does not name a -data dataset", sf.ingestData)
		}
	}
	return sf, nil
}

func loadCheckInsCSV(path string) (*checkin.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return dataset.ReadCheckInsCSV(f)
}

func runServe(args []string, out io.Writer) error {
	sf, err := parseServeFlags(args)
	if err != nil {
		return err
	}
	logger := slog.New(slog.NewJSONHandler(os.Stderr, nil))

	model, modelID, err := serve.LoadModelFile(sf.modelPath)
	if err != nil {
		return err
	}
	var datasets []serve.Dataset
	loaded := make(map[string]*checkin.Dataset, len(sf.datasets))
	for name, path := range sf.datasets {
		ds, err := loadCheckInsCSV(path)
		if err != nil {
			return fmt.Errorf("dataset %q: %w", name, err)
		}
		loaded[name] = ds
		datasets = append(datasets, serve.Dataset{Name: name, Data: ds})
		fmt.Fprintf(out, "dataset %q: %d users, %d POIs, %d check-ins\n",
			name, ds.NumUsers(), ds.NumPOIs(), ds.NumCheckIns())
	}

	var faults *faultinject.Injector
	if sf.faults != "" {
		faults, err = faultinject.Parse(sf.faults)
		if err != nil {
			return err
		}
		logger.Warn("fault injection active", "schedule", sf.faults)
	}

	// The ingestor shares the serving model's division parameters so the
	// incrementally maintained JOC state matches what the model was trained
	// against; its segment log replays on open, so a restart resumes from
	// the last durable check-in.
	var ing *ingest.Ingestor
	if sf.ingestDir != "" {
		mcfg := model.Config()
		ing, err = ingest.Open(ingest.Options{
			Dir:   sf.ingestDir,
			Base:  loaded[sf.ingestData],
			Sigma: mcfg.Sigma,
			Tau:   mcfg.Tau,
			Drift: ingest.DriftConfig{
				Window:      sf.driftWindow,
				MinCheckIns: sf.driftMin,
			},
			Faults: faults,
			Logger: logger,
		})
		if err != nil {
			return fmt.Errorf("open ingest log: %w", err)
		}
		defer ing.Close()
		st := ing.Stats()
		fmt.Fprintf(out, "ingest log %s: %d streamed check-in(s) replayed (last seq %d)\n",
			sf.ingestDir, st.Streamed, st.LastSeq)
	}

	// New builds every dataset's decision table (one reference inference
	// per dataset) before the server accepts traffic.
	start := time.Now()
	srv, err := serve.New(serve.Config{
		MaxInFlight:           sf.maxInFlight,
		MaxPairsPerRequest:    sf.maxPairs,
		Faults:                faults,
		Ingest:                ing,
		MaxCheckInsPerRequest: sf.maxCheckIns,
		Reload:                func() (*core.FriendSeeker, string, error) { return serve.LoadModelFile(sf.modelPath) },
		Logger:                logger,
	}, model, modelID, datasets)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "built %d dataset decision table(s) in %.1fs\n", len(datasets), time.Since(start).Seconds())

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	if ing != nil {
		if sf.truthPath == "" {
			logger.Info("ingestion enabled without -truth; drift is reported but retraining is disabled")
		} else {
			rt, err := newRetrainer(sf, ing, srv, model.Config(), logger)
			if err != nil {
				return err
			}
			srv.SetRetrainer(rt)
			go rt.Run(ctx)
			fmt.Fprintf(out, "retrain worker armed: threshold %.2f, interval %s, cooldown %s\n",
				sf.driftThreshold, sf.retrainInterval, sf.retrainCooldown)
		}
	}

	// SIGHUP hot-swaps the model. Reload races the trainer publishing a
	// new artifact (atomic rename, but the file may briefly be mid-write
	// by an uncooperative producer, or the first load may catch a corrupt
	// artifact), so failed reloads retry with exponential backoff and full
	// jitter before giving up; the last-known-good model serves throughout.
	// SIGINT/SIGTERM drain and exit.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		reloadPolicy := resilience.Policy{
			MaxAttempts: 5,
			BaseDelay:   200 * time.Millisecond,
			MaxDelay:    5 * time.Second,
		}
		for range hup {
			logger.Info("SIGHUP: reloading model", "path", sf.modelPath)
			err := resilience.Retry(ctx, reloadPolicy, func() error {
				_, err := srv.ReloadAndSwap(ctx)
				return err
			})
			if err != nil {
				logger.Error("SIGHUP reload gave up; previous model keeps serving", "err", err)
			}
		}
	}()
	term := make(chan os.Signal, 1)
	signal.Notify(term, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-term
		cancel()
	}()

	fmt.Fprintf(out, "serving model %s on %s (%d dataset(s))\n", modelID, sf.listen, len(datasets))
	return srv.ListenAndServe(ctx, sf.listen, sf.drainTimeout)
}

// newRetrainer wires the drift-triggered retrain loop: train a candidate
// with the serving model's hyperparameters on a consistent ingest
// snapshot, optionally gate it on held-out F1, then publish through the
// server's zero-downtime SwapWithDataset so model and corpus flip
// together. The truth graph supplies supervised labels, as in the offline
// pipeline.
func newRetrainer(sf *serveFlags, ing *ingest.Ingestor, srv *serve.Server, mcfg core.Config, logger *slog.Logger) (*ingest.Retrainer, error) {
	f, err := os.Open(sf.truthPath)
	if err != nil {
		return nil, fmt.Errorf("truth edges: %w", err)
	}
	truth, err := dataset.ReadEdgesCSV(f)
	f.Close()
	if err != nil {
		return nil, fmt.Errorf("truth edges %q: %w", sf.truthPath, err)
	}

	// Same split posture as the offline trainer; the fixed seed makes
	// Train and Verify agree on which pairs are held out for a given
	// snapshot.
	const trainFrac, negRatio = 0.7, 3.0
	split := func(snap *checkin.Dataset) (*synth.PairSplit, error) {
		v := &synth.View{Dataset: snap, Truth: truth}
		return v.SplitPairs(trainFrac, negRatio, sf.retrainSeed)
	}

	cfg := ingest.RetrainConfig{
		Threshold: sf.driftThreshold,
		Interval:  sf.retrainInterval,
		Cooldown:  sf.retrainCooldown,
		Logger:    logger,
		Train: func(ctx context.Context, snap *checkin.Dataset) (*core.FriendSeeker, error) {
			sp, err := split(snap)
			if err != nil {
				return nil, err
			}
			cand, err := core.New(mcfg)
			if err != nil {
				return nil, err
			}
			if err := cand.Train(snap, sp.TrainPairs, sp.TrainLabels); err != nil {
				return nil, err
			}
			return cand, nil
		},
		Publish: func(ctx context.Context, cand *core.FriendSeeker, id string, snap *checkin.Dataset) error {
			if err := srv.SwapWithDataset(ctx, cand, id, sf.ingestData, snap); err != nil {
				return err
			}
			// The swap already landed: a persistence failure is logged, not
			// fatal — the new model serves either way, and the segment log
			// replays the stream into the next restart's snapshot.
			if err := cand.SaveFile(sf.modelPath); err != nil {
				logger.Error("retrained model swapped but artifact not persisted", "path", sf.modelPath, "err", err)
			}
			return nil
		},
	}
	if sf.retrainMinF1 > 0 {
		cfg.Verify = func(ctx context.Context, cand *core.FriendSeeker, snap *checkin.Dataset) error {
			sp, err := split(snap)
			if err != nil {
				return err
			}
			decisions, _, err := cand.InferContext(ctx, snap, sp.EvalPairs)
			if err != nil {
				return err
			}
			conf, err := metrics.Evaluate(decisions, sp.EvalLabels)
			if err != nil {
				return err
			}
			if f1 := conf.F1(); f1 < sf.retrainMinF1 {
				return fmt.Errorf("candidate F1 %.3f below gate %.3f", f1, sf.retrainMinF1)
			}
			return nil
		}
	}
	return ingest.NewRetrainer(ing, cfg)
}
