package serve

import "github.com/friendseeker/friendseeker/internal/telemetry"

// serverMetrics is the /metrics surface: request counters broken out by
// outcome and the request latency histograms — enough to read throughput
// and tail latency off one scrape.
type serverMetrics struct {
	registry *telemetry.Registry

	requestsTotal         *telemetry.Counter
	okTotal               *telemetry.Counter
	badRequestTotal       *telemetry.Counter
	rejectedInflightTotal *telemetry.Counter
	rejectedDrainTotal    *telemetry.Counter
	pairsTotal            *telemetry.Counter
	swapsTotal            *telemetry.Counter
	swapFailuresTotal     *telemetry.Counter

	checkinRequestsTotal   *telemetry.Counter
	checkinOKTotal         *telemetry.Counter
	checkinBadRequestTotal *telemetry.Counter
	checkinErrorTotal      *telemetry.Counter

	requestSeconds *telemetry.Histogram
	checkinSeconds *telemetry.Histogram
}

func newServerMetrics() *serverMetrics {
	r := telemetry.NewRegistry()
	return &serverMetrics{
		registry: r,

		requestsTotal:         r.Counter("fs_serve_requests_total", "infer requests received"),
		okTotal:               r.Counter("fs_serve_ok_total", "infer requests answered 200"),
		badRequestTotal:       r.Counter("fs_serve_bad_request_total", "infer requests rejected as malformed"),
		rejectedInflightTotal: r.Counter("fs_serve_rejected_inflight_total", "requests rejected 429 at the in-flight bound"),
		rejectedDrainTotal:    r.Counter("fs_serve_rejected_drain_total", "requests rejected 503 during shutdown drain"),
		pairsTotal:            r.Counter("fs_serve_pairs_total", "pair decisions returned"),
		swapsTotal:            r.Counter("fs_serve_model_swaps_total", "successful hot model swaps"),
		swapFailuresTotal:     r.Counter("fs_serve_swap_failures_total", "rejected model swaps (corrupt, untrained, or failed warm); the previous model kept serving"),

		checkinRequestsTotal:   r.Counter("fs_serve_checkin_requests_total", "POST /v1/checkins requests received"),
		checkinOKTotal:         r.Counter("fs_serve_checkin_ok_total", "check-in batches accepted 200"),
		checkinBadRequestTotal: r.Counter("fs_serve_checkin_bad_request_total", "check-in batches rejected 400 (malformed body or validation failure)"),
		checkinErrorTotal:      r.Counter("fs_serve_checkin_error_total", "check-in batches answered 500"),

		// Fine buckets: the trace-driven load harness reads p99.9 off these
		// histograms, which needs sub-decade bucket resolution.
		requestSeconds: r.Histogram("fs_serve_request_seconds",
			"infer request latency (seconds)", telemetry.FineLatencyBuckets()),
		checkinSeconds: r.Histogram("fs_serve_checkin_seconds",
			"POST /v1/checkins request latency (seconds)", telemetry.FineLatencyBuckets()),
	}
}

// registerGauges wires the gauges that sample live server state.
func (m *serverMetrics) registerGauges(s *Server) {
	m.registry.Gauge("fs_serve_inflight", "infer requests currently admitted", func() float64 {
		return float64(len(s.inflight))
	})
}
