// Package serve is the model-serving subsystem: a long-running HTTP/JSON
// inference server over a trained FriendSeeker model.
//
// Architecture (see DESIGN.md, "Serving architecture"):
//
//   - Publishing a model (New, Swap, SwapWithDataset) runs one reference
//     inference per served dataset over every user pair — the paper's
//     phase 2 iterated to convergence — and packs the decision vector into
//     a bitset, the dataset's decision table.
//   - The model, its datasets and their tables sit behind one atomic
//     pointer; a swap builds the new tables first (the old model keeps
//     serving meanwhile) and then flips the pointer. A failed build keeps
//     the last-known-good state.
//   - POST /v1/infer decodes the body, looks each pair up in the table and
//     encodes the answer. Request-time work cannot fail or wait on a
//     queue, so the only overload control is a bound on in-flight
//     requests, rejected fast with 429.
//   - Shutdown drains: accepted requests complete, new ones get 503.
package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/friendseeker/friendseeker/internal/checkin"
	"github.com/friendseeker/friendseeker/internal/core"
	"github.com/friendseeker/friendseeker/internal/faultinject"
	"github.com/friendseeker/friendseeker/internal/ingest"
	"github.com/friendseeker/friendseeker/internal/telemetry"
)

// Config parameterises the server. The zero value gets sensible defaults
// from fillDefaults.
type Config struct {
	// MaxInFlight bounds concurrently admitted /v1/infer requests; further
	// requests are rejected with 429 immediately.
	MaxInFlight int
	// MaxPairsPerRequest bounds the pair list of one request.
	MaxPairsPerRequest int
	// Reload, when set, backs POST /v1/admin/swap and ReloadAndSwap: it
	// loads a fresh model (typically by re-reading the model file) whose
	// decision tables the server then builds and publishes. Without it the
	// endpoint answers 501. A reload or build failure never unseats the
	// last-known-good model: the previous state keeps serving and the
	// attempt is counted in fs_serve_swap_failures_total.
	Reload func() (*core.FriendSeeker, string, error)
	// Ingest, when set, backs POST /v1/checkins: submitted check-ins are
	// validated, durably logged and folded into the incremental JOC state.
	// Without it the endpoint answers 501. The ingestor's metrics are
	// registered on the server's /metrics registry.
	Ingest *ingest.Ingestor
	// MaxCheckInsPerRequest bounds one POST /v1/checkins batch (default
	// 1024).
	MaxCheckInsPerRequest int
	// Faults is the deterministic chaos-test fault injector; its "warm"
	// site fires before each dataset's table build. Nil (the production
	// default) makes every hook a no-op.
	Faults *faultinject.Injector
	// Logger receives structured request logs; nil discards them.
	Logger *slog.Logger
}

func (c Config) fillDefaults() Config {
	if c.MaxInFlight == 0 {
		c.MaxInFlight = 64
	}
	if c.MaxPairsPerRequest == 0 {
		c.MaxPairsPerRequest = 256
	}
	if c.MaxCheckInsPerRequest == 0 {
		c.MaxCheckInsPerRequest = 1024
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return c
}

// Dataset names one check-in dataset the server answers queries against.
type Dataset struct {
	Name string
	Data *checkin.Dataset
}

// dsState is one served dataset version and the model's decision table
// over it.
type dsState struct {
	data  *checkin.Dataset
	table *decisionTable
}

// modelState is one loaded model plus the dataset versions it serves and
// their decision tables. Swapping publishes a whole new state with one
// atomic store, so a table can never pair an old model with a new corpus
// or vice versa; a request answers wholly from the state it loaded.
type modelState struct {
	fs *core.FriendSeeker
	id string
	ds map[string]*dsState
}

// Server serves friendship-inference decisions over HTTP.
type Server struct {
	cfg     Config
	log     *slog.Logger
	state   atomic.Pointer[modelState]
	ing     *ingest.Ingestor
	retrain atomic.Pointer[ingest.Retrainer]

	inflight chan struct{}
	draining atomic.Bool
	reqWG    sync.WaitGroup // in-flight request handlers
	swapMu   sync.Mutex     // serialises Swap calls
	drainMu  sync.Mutex     // orders reqWG.Add before Shutdown's Wait

	mux *http.ServeMux
	met *serverMetrics
}

// New builds a server over a trained (or loaded) model and at least one
// dataset, building every dataset's decision table before it returns.
// modelID is an opaque identity string reported by /healthz and responses
// (Hash gives one).
func New(cfg Config, model *core.FriendSeeker, modelID string, datasets []Dataset) (*Server, error) {
	if model == nil || !model.Trained() {
		return nil, errors.New("serve: model must be trained")
	}
	if len(datasets) == 0 {
		return nil, errors.New("serve: at least one dataset required")
	}
	data := make(map[string]*checkin.Dataset, len(datasets))
	for _, d := range datasets {
		if d.Name == "" || d.Data == nil {
			return nil, errors.New("serve: dataset needs a name and data")
		}
		if _, dup := data[d.Name]; dup {
			return nil, fmt.Errorf("serve: duplicate dataset %q", d.Name)
		}
		data[d.Name] = d.Data
	}
	s := newServer(cfg)
	ms, err := s.buildState(context.Background(), model, modelID, data)
	if err != nil {
		return nil, err
	}
	s.state.Store(ms)
	return s, nil
}

// newServer builds a server that has no model state published yet.
func newServer(cfg Config) *Server {
	cfg = cfg.fillDefaults()
	s := &Server{
		cfg:      cfg,
		log:      cfg.Logger,
		inflight: make(chan struct{}, cfg.MaxInFlight),
		met:      newServerMetrics(),
	}
	if cfg.Ingest != nil {
		s.ing = cfg.Ingest
		s.ing.RegisterMetrics(s.met.registry)
	}
	s.met.registerGauges(s)
	s.buildMux()
	return s
}

// buildState runs one reference inference per dataset, over every user
// pair and in parallel, and packs each decision vector into the dataset's
// decision table. The "warm" fault site fires before each inference.
func (s *Server) buildState(ctx context.Context, model *core.FriendSeeker, id string, data map[string]*checkin.Dataset) (*modelState, error) {
	ms := &modelState{fs: model, id: id, ds: make(map[string]*dsState, len(data))}
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		errs []error
	)
	for name, d := range data {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, err := s.buildTable(ctx, model, d)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				errs = append(errs, fmt.Errorf("serve: warm %q: %w", name, err))
				return
			}
			ms.ds[name] = st
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return ms, nil
}

func (s *Server) buildTable(ctx context.Context, model *core.FriendSeeker, d *checkin.Dataset) (*dsState, error) {
	if err := s.cfg.Faults.Fire("warm"); err != nil {
		return nil, err
	}
	decisions, _, err := model.InferContext(ctx, d, AllUserPairs(d))
	if err != nil {
		return nil, err
	}
	table, err := newDecisionTable(d.Users(), decisions)
	if err != nil {
		return nil, err
	}
	return &dsState{data: d, table: table}, nil
}

// errUntrainedModel rejects a swap candidate that is nil or has never
// been trained; like a corrupt artifact it is the candidate's fault, not
// the server's, so the admin endpoint maps it to 422.
var errUntrainedModel = errors.New("serve: swap model must be trained")

// ErrNoReloader is returned by ReloadAndSwap when no Config.Reload was
// provided.
var ErrNoReloader = errors.New("serve: no model reloader configured")

// Swap publishes a new model with zero downtime: the decision table of
// every served dataset is built for the new model first (the old model
// keeps serving meanwhile), then the state pointer flips. A request in
// flight answers wholly from the state it loaded.
//
// Swap never unseats the last-known-good state on failure: an untrained
// candidate or a failed table build leaves the previous model serving,
// counts the attempt in fs_serve_swap_failures_total, and returns the
// error.
func (s *Server) Swap(ctx context.Context, model *core.FriendSeeker, modelID string) error {
	if model == nil || !model.Trained() {
		s.met.swapFailuresTotal.Inc()
		return errUntrainedModel
	}
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	return s.swapLocked(ctx, model, modelID, s.servedData())
}

// SwapWithDataset publishes a new model together with a new version of one
// served dataset — the retrain loop's landing: the candidate was trained
// on an ingest snapshot, so it must serve against that snapshot, not the
// corpus the previous model saw. Both move in one atomic state flip;
// failure semantics match Swap (last-known-good model and dataset keep
// serving).
func (s *Server) SwapWithDataset(ctx context.Context, model *core.FriendSeeker, modelID, dsName string, data *checkin.Dataset) error {
	if model == nil || !model.Trained() {
		s.met.swapFailuresTotal.Inc()
		return errUntrainedModel
	}
	if data == nil {
		s.met.swapFailuresTotal.Inc()
		return fmt.Errorf("serve: swap %s: nil dataset", modelID)
	}
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	served := s.servedData()
	if _, ok := served[dsName]; !ok {
		s.met.swapFailuresTotal.Inc()
		return fmt.Errorf("serve: swap %s: unknown dataset %q", modelID, dsName)
	}
	served[dsName] = data
	return s.swapLocked(ctx, model, modelID, served)
}

// servedData returns the dataset versions of the current state by name.
func (s *Server) servedData() map[string]*checkin.Dataset {
	cur := s.state.Load()
	data := make(map[string]*checkin.Dataset, len(cur.ds))
	for name, st := range cur.ds {
		data[name] = st.data
	}
	return data
}

func (s *Server) swapLocked(ctx context.Context, model *core.FriendSeeker, modelID string, data map[string]*checkin.Dataset) error {
	ms, err := s.buildState(ctx, model, modelID, data)
	if err != nil {
		s.met.swapFailuresTotal.Inc()
		s.log.Error("swap rejected; previous model keeps serving",
			"candidate", modelID, "serving", s.state.Load().id, "err", err)
		return fmt.Errorf("serve: swap %s: %w", modelID, err)
	}
	s.state.Store(ms)
	s.met.swapsTotal.Inc()
	s.log.Info("model swapped", "model", modelID)
	return nil
}

// ReloadAndSwap loads a fresh model via Config.Reload and publishes it.
// It is the shared implementation behind POST /v1/admin/swap and the
// CLI's SIGHUP handler. A reload error (missing file, corrupt artifact)
// is a swap failure: it is counted, the last-known-good model keeps
// serving, and the error is returned for the caller to classify.
func (s *Server) ReloadAndSwap(ctx context.Context) (string, error) {
	if s.cfg.Reload == nil {
		return "", ErrNoReloader
	}
	model, id, err := s.cfg.Reload()
	if err != nil {
		s.met.swapFailuresTotal.Inc()
		s.log.Error("model reload failed; previous model keeps serving",
			"serving", s.state.Load().id, "err", err)
		return "", fmt.Errorf("serve: reload model: %w", err)
	}
	if err := s.Swap(ctx, model, id); err != nil {
		return "", err
	}
	return id, nil
}

// ModelID returns the identity of the currently served model.
func (s *Server) ModelID() string { return s.state.Load().id }

// Handler returns the server's HTTP handler (for tests and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// MetricsRegistry exposes the /metrics registry so embedders (the CLI's
// retrain worker, tests) can register additional collectors on the same
// scrape surface.
func (s *Server) MetricsRegistry() *telemetry.Registry { return s.met.registry }

// SetRetrainer attaches the background retrain worker for /healthz
// reporting and registers its metrics. Call once, after NewRetrainer
// (the worker's Publish closure typically points back at this server's
// SwapWithDataset, so it cannot exist before New returns).
func (s *Server) SetRetrainer(rt *ingest.Retrainer) {
	s.retrain.Store(rt)
	rt.RegisterMetrics(s.met.registry)
}

// Shutdown drains the server: new requests are refused with 503 and
// in-flight requests run to completion, bounded by ctx. Callers using
// ListenAndServe do not call this directly; it is exposed for embedders
// driving their own listener.
func (s *Server) Shutdown(ctx context.Context) error {
	s.drainMu.Lock()
	s.draining.Store(true)
	s.drainMu.Unlock()
	done := make(chan struct{})
	go func() {
		s.reqWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: shutdown drain: %w", ctx.Err())
	}
}

// ListenAndServe serves on addr until ctx is cancelled, then shuts down
// gracefully within drainTimeout.
func (s *Server) ListenAndServe(ctx context.Context, addr string, drainTimeout time.Duration) error {
	hs := &http.Server{Addr: addr, Handler: s.mux}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	s.log.Info("shutting down", "drain_timeout", drainTimeout)
	dctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	httpErr := hs.Shutdown(dctx)
	drainErr := s.Shutdown(dctx)
	return errors.Join(httpErr, drainErr)
}

// AllUserPairs enumerates every unordered user pair of a dataset in
// ascending rank order — the universe each decision table covers, matching
// the CLI's all-pairs attack posture. Quadratic in users; serving-scale
// datasets are expected to be the modest evaluation slices, not raw SNAP
// dumps.
func AllUserPairs(ds *checkin.Dataset) []checkin.Pair {
	users := ds.Users()
	pairs := make([]checkin.Pair, 0, len(users)*(len(users)-1)/2)
	for i := 0; i < len(users); i++ {
		for j := i + 1; j < len(users); j++ {
			pairs = append(pairs, checkin.MakePair(users[i], users[j]))
		}
	}
	return pairs
}

// LoadModelFile reads a model written by Save and returns it with its
// content hash (the first 12 hex digits of SHA-256), which serves as the
// model identity in responses and logs.
func LoadModelFile(path string) (*core.FriendSeeker, string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, "", fmt.Errorf("serve: read model: %w", err)
	}
	fs, err := core.Load(bytes.NewReader(raw))
	if err != nil {
		return nil, "", err
	}
	return fs, Hash(raw), nil
}

// Hash returns the short content hash used as a model identity.
func Hash(raw []byte) string {
	sum := sha256.Sum256(raw)
	return fmt.Sprintf("%x", sum[:6])
}

// --- HTTP layer ---

// inferRequest is the body of POST /v1/infer.
type inferRequest struct {
	// Dataset names a dataset registered at startup.
	Dataset string `json:"dataset"`
	// Pairs is a list of [a, b] user-ID pairs to decide.
	Pairs [][2]int64 `json:"pairs"`
}

// inferResponse is the body of a successful POST /v1/infer.
type inferResponse struct {
	Model     string `json:"model"`
	Dataset   string `json:"dataset"`
	Decisions []bool `json:"decisions"`
}

// errorResponse is the body of every non-2xx response.
type errorResponse struct {
	Error string `json:"error"`
}

func (s *Server) buildMux() {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/infer", s.handleInfer)
	mux.HandleFunc("POST /v1/checkins", s.handleCheckins)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("POST /v1/admin/swap", s.handleSwap)
	s.mux = mux
}

// enter counts a request into reqWG unless the server is draining. The
// check and the Add happen under drainMu, so Shutdown's Wait never races
// an Add and never misses a request that passed the check.
func (s *Server) enter() bool {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	if s.draining.Load() {
		return false
	}
	s.reqWG.Add(1)
	return true
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func (s *Server) reject(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, errorResponse{Error: msg})
}

func (s *Server) handleInfer(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.met.requestsTotal.Inc()
	if !s.enter() {
		s.met.rejectedDrainTotal.Inc()
		s.reject(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	}
	defer s.reqWG.Done()
	// Admission: bounded in-flight requests, fast rejection.
	select {
	case s.inflight <- struct{}{}:
	default:
		s.met.rejectedInflightTotal.Inc()
		s.reject(w, http.StatusTooManyRequests, "too many in-flight requests")
		return
	}
	defer func() { <-s.inflight }()

	var req inferRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&req); err != nil {
		s.met.badRequestTotal.Inc()
		s.reject(w, http.StatusBadRequest, "invalid JSON body: "+err.Error())
		return
	}
	state := s.state.Load()
	ds, ok := state.ds[req.Dataset]
	if !ok {
		s.met.badRequestTotal.Inc()
		s.reject(w, http.StatusNotFound, fmt.Sprintf("unknown dataset %q", req.Dataset))
		return
	}
	if len(req.Pairs) == 0 {
		s.met.badRequestTotal.Inc()
		s.reject(w, http.StatusBadRequest, "no pairs")
		return
	}
	if len(req.Pairs) > s.cfg.MaxPairsPerRequest {
		s.met.badRequestTotal.Inc()
		s.reject(w, http.StatusBadRequest,
			fmt.Sprintf("%d pairs exceeds the per-request limit %d", len(req.Pairs), s.cfg.MaxPairsPerRequest))
		return
	}
	decisions := make([]bool, len(req.Pairs))
	for i, ab := range req.Pairs {
		if ab[0] == ab[1] {
			s.met.badRequestTotal.Inc()
			s.reject(w, http.StatusBadRequest, fmt.Sprintf("pair %d: identical users %d", i, ab[0]))
			return
		}
		decisions[i] = ds.table.decide(checkin.UserID(ab[0]), checkin.UserID(ab[1]))
	}

	s.met.okTotal.Inc()
	s.met.pairsTotal.Add(int64(len(decisions)))
	s.met.requestSeconds.Observe(time.Since(start).Seconds())
	s.log.Info("infer", "dataset", req.Dataset, "pairs", len(decisions),
		"model", state.id, "dur_ms", time.Since(start).Milliseconds())
	writeJSON(w, http.StatusOK, inferResponse{
		Model:     state.id,
		Dataset:   req.Dataset,
		Decisions: decisions,
	})
}

// checkinsRequest is the body of POST /v1/checkins.
type checkinsRequest struct {
	Records []ingest.Record `json:"records"`
}

// checkinsResponse is the body of a successful POST /v1/checkins: the
// batch is durable and applied, holding the given log sequence range.
type checkinsResponse struct {
	Accepted int    `json:"accepted"`
	FirstSeq uint64 `json:"first_seq"`
	LastSeq  uint64 `json:"last_seq"`
}

// checkinErrorResponse is the body of a 400 from POST /v1/checkins: the
// typed validation rejection, locating the offending record.
type checkinErrorResponse struct {
	Error  string `json:"error"`
	Index  int    `json:"index"`
	Field  string `json:"field"`
	Reason string `json:"reason"`
}

func (s *Server) handleCheckins(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if s.ing == nil {
		s.reject(w, http.StatusNotImplemented, "no ingestor configured")
		return
	}
	s.met.checkinRequestsTotal.Inc()
	if !s.enter() {
		s.met.rejectedDrainTotal.Inc()
		s.reject(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	}
	defer s.reqWG.Done()

	var req checkinsRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 8<<20)).Decode(&req); err != nil {
		s.met.checkinBadRequestTotal.Inc()
		s.reject(w, http.StatusBadRequest, "invalid JSON body: "+err.Error())
		return
	}
	if len(req.Records) == 0 {
		s.met.checkinBadRequestTotal.Inc()
		s.reject(w, http.StatusBadRequest, "no records")
		return
	}
	if len(req.Records) > s.cfg.MaxCheckInsPerRequest {
		s.met.checkinBadRequestTotal.Inc()
		s.reject(w, http.StatusBadRequest,
			fmt.Sprintf("%d records exceeds the per-request limit %d", len(req.Records), s.cfg.MaxCheckInsPerRequest))
		return
	}

	first, last, err := s.ing.Ingest(r.Context(), req.Records)
	var verr *ingest.ValidationError
	switch {
	case errors.As(err, &verr):
		s.met.checkinBadRequestTotal.Inc()
		writeJSON(w, http.StatusBadRequest, checkinErrorResponse{
			Error: verr.Error(), Index: verr.Index, Field: verr.Field, Reason: verr.Reason,
		})
		return
	case err != nil:
		s.met.checkinErrorTotal.Inc()
		s.log.Error("checkin ingest failed", "records", len(req.Records), "err", err)
		s.reject(w, http.StatusInternalServerError, err.Error())
		return
	}
	s.met.checkinOKTotal.Inc()
	s.met.checkinSeconds.Observe(time.Since(start).Seconds())
	s.log.Info("checkins ingested", "records", len(req.Records),
		"first_seq", first, "last_seq", last, "dur_ms", time.Since(start).Milliseconds())
	writeJSON(w, http.StatusOK, checkinsResponse{
		Accepted: len(req.Records), FirstSeq: first, LastSeq: last,
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	state := s.state.Load()
	names := make([]string, 0, len(state.ds))
	for name := range state.ds {
		names = append(names, name)
	}
	sort.Strings(names)
	status := "ok"
	code := http.StatusOK
	if s.draining.Load() {
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	body := map[string]any{
		"status":        status,
		"model":         state.id,
		"datasets":      names,
		"swap_failures": s.met.swapFailuresTotal.Value(),
	}
	if s.ing != nil {
		body["ingest"] = s.ing.Stats()
	}
	if rt := s.retrain.Load(); rt != nil {
		body["retrain"] = rt.Outcome()
	}
	writeJSON(w, code, body)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.met.registry.WritePrometheus(w)
}

func (s *Server) handleSwap(w http.ResponseWriter, r *http.Request) {
	id, err := s.ReloadAndSwap(r.Context())
	switch {
	case errors.Is(err, ErrNoReloader):
		s.reject(w, http.StatusNotImplemented, "no model reloader configured")
	case errors.Is(err, core.ErrCorruptModel), errors.Is(err, errUntrainedModel):
		// The candidate artifact is bad — unprocessable — and the previous
		// model keeps serving; 422 tells the operator to fix the artifact,
		// not retry the server.
		s.reject(w, http.StatusUnprocessableEntity, "swap model: "+err.Error())
	case err != nil:
		s.reject(w, http.StatusInternalServerError, "swap model: "+err.Error())
	default:
		writeJSON(w, http.StatusOK, map[string]string{"model": id})
	}
}
