package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"rhhh"
	"rhhh/internal/resilience"
	"rhhh/internal/telemetry"
)

// server holds the daemon's query surfaces. The monitor's query methods
// return reused aggregator buffers, so qmu serializes every handler that
// reads one (queries render their JSON while holding it).
type server struct {
	reg   *telemetry.Registry
	mon   *rhhh.Sharded
	theta float64 // default query threshold
	start time.Time

	qmu     sync.Mutex
	snapBuf []byte // reused /snapshot encode target

	// Resilience surfaces. The gate bounds concurrent /query + /snapshot
	// work (excess sheds with 503 + Retry-After), health backs /healthz,
	// the degrader is driven by main's control loop, and resPolicy
	// supervises every daemon-owned background goroutine (feeders, watch
	// driver, degrade controller, checkpoint loop).
	gate       *resilience.Gate
	health     *resilience.Health
	degrader   *resilience.Degrader
	resStats   resilience.Stats
	resPolicy  *resilience.Policy
	reqTimeout time.Duration
	watchWrite time.Duration
	retryAfter time.Duration
	shutdown   chan struct{}  // closed by beginDrain: ends every /watch stream
	sseDrops   telemetry.Cell // /watch clients dropped on a failed or timed-out write

	ckpt      *rhhh.Checkpointer    // nil when checkpointing is disabled
	ckptStats resilience.StoreStats // placeholder registered when ckpt == nil
}

// serverOptions tunes the resilience surfaces; zero values pick the
// defaults noted per field.
type serverOptions struct {
	queryLimit int                // concurrent /query + /snapshot admissions (16)
	reqTimeout time.Duration      // per-request deadline (10s)
	watchWrite time.Duration      // per-SSE-write deadline (5s)
	retryAfter time.Duration      // Retry-After hint on shed (1s)
	ckpt       *rhhh.Checkpointer // optional checkpoint store to instrument
}

// catalogueEntry documents one exposed metric family: the golden test
// asserts the live /metrics output matches this list, and the README's
// observability table is generated from the same data.
type catalogueEntry struct {
	Name  string
	Type  string // counter | gauge | histogram
	Layer string // which subsystem owns the publication
	Help  string
}

// metricCatalogue is every family a fully instrumented Sharded monitor plus
// the daemon itself exposes. Keep it in sync with the Register methods in
// internal/telemetry/stats.go and newServer below.
var metricCatalogue = []catalogueEntry{
	{"rhhh_engine_packets_total", "counter", "engine", "Packets ingested by the update path."},
	{"rhhh_engine_weight_total", "counter", "engine", "Total weight ingested by the update path."},
	{"rhhh_engine_samples_total", "counter", "engine", "Sampled updates forwarded to a lattice node."},
	{"rhhh_engine_batches_total", "counter", "engine", "Batch kernel invocations."},
	{"rhhh_counter_evictions_total", "counter", "backend", "Space Saving minimum-counter takeovers."},
	{"rhhh_counter_decays_total", "counter", "backend", "CHK probabilistic decay decrements."},
	{"rhhh_counter_takeovers_total", "counter", "backend", "CHK decayed-slot takeovers."},
	{"rhhh_counter_occupied", "gauge", "backend", "Monitored keys across all lattice nodes."},
	{"rhhh_counter_slots", "gauge", "backend", "Counter slots across all lattice nodes."},
	{"rhhh_counter_stash_depth", "gauge", "backend", "Cuckoo stash entries across all lattice nodes."},
	{"rhhh_worker_publications_total", "counter", "sharded", "Snapshots published by the worker."},
	{"rhhh_worker_syncs_total", "counter", "sharded", "Explicit worker Sync barriers."},
	{"rhhh_worker_epoch", "gauge", "sharded", "Epoch of the worker's last published snapshot."},
	{"rhhh_pubring_slots", "gauge", "sharded", "Publication-ring slots currently allocated."},
	{"rhhh_worker_publish_age_seconds", "gauge", "sharded", "Seconds since the worker's last snapshot publication."},
	{"rhhh_queries_total", "counter", "query", "Heavy-hitter query and snapshot evaluations."},
	{"rhhh_query_pin_retries_total", "counter", "query", "Publication-pin retries against racing publications."},
	{"rhhh_query_node_merges_total", "counter", "query", "Lattice nodes a query or watch tick merged in full because the read went past the node's head."},
	{"rhhh_query_hits", "gauge", "query", "Result size of the last heavy-hitters query."},
	{"rhhh_query_seconds", "histogram", "query", "Wall time of a heavy-hitters query."},
	{"rhhh_watch_ticks_total", "counter", "watch", "Standing-query delta-computation ticks."},
	{"rhhh_watch_deliveries_total", "counter", "watch", "Watch deltas delivered to subscribers."},
	{"rhhh_watch_drops_total", "counter", "watch", "Watch deltas dropped on full subscriber buffers."},
	{"rhhh_watch_subscriptions", "gauge", "watch", "Live watch subscriptions."},
	{"rhhh_watch_differ_entries", "gauge", "watch", "Tracked entries across subscription differs."},
	{"rhhh_watch_tick_seconds", "histogram", "watch", "Wall time of a standing-query tick's capture, extraction and diff."},
	{"hhhd_uptime_seconds", "gauge", "daemon", "Seconds since the daemon started."},
	{"hhhd_published_packets", "gauge", "daemon", "Combined published stream weight (N)."},
	{"hhhd_converged", "gauge", "daemon", "Whether the published N passed the psi convergence bound."},
	{"hhhd_watch_client_drops_total", "counter", "daemon", "Slow or gone /watch clients dropped on a failed or timed-out write."},
	{"hhh_resilience_panics_total", "counter", "resilience", "Panics captured in supervised goroutines."},
	{"hhh_resilience_restarts_total", "counter", "resilience", "Supervised goroutine restarts after a captured panic."},
	{"hhh_resilience_giveups_total", "counter", "resilience", "Supervised goroutines abandoned after exhausting restarts."},
	{"hhh_resilience_supervised", "gauge", "resilience", "Supervised goroutines currently running."},
	{"hhh_resilience_admitted_total", "counter", "resilience", "Requests admitted by the gate."},
	{"hhh_resilience_shed_total", "counter", "resilience", "Requests shed by the admission gate (503)."},
	{"hhh_resilience_inflight", "gauge", "resilience", "Requests currently admitted by the gate."},
	{"hhh_resilience_health_state", "gauge", "resilience", "Health state: 0 ok, 1 degraded, 2 failing, 3 draining."},
	{"hhh_resilience_degrade_level", "gauge", "resilience", "Current adaptive-degrade level (0 = full fidelity)."},
	{"hhh_resilience_degrade_steps_total", "counter", "resilience", "Degrade-ladder step-ups."},
	{"hhh_resilience_checkpoint_fulls_total", "counter", "resilience", "Full checkpoints durably written."},
	{"hhh_resilience_checkpoint_segments_total", "counter", "resilience", "Incremental journal segments durably written."},
	{"hhh_resilience_checkpoint_failures_total", "counter", "resilience", "Checkpoint writes that failed without corrupting state."},
	{"hhh_resilience_checkpoint_bytes_total", "counter", "resilience", "Checkpoint payload bytes durably written."},
	{"hhh_resilience_checkpoint_generation", "gauge", "resilience", "Current checkpoint generation."},
}

// newServer instruments mon with a fresh registry, adds the daemon-level
// gauges and the resilience surfaces, and returns the server. The monitor's
// background goroutines are re-pointed at the server's supervision policy.
func newServer(mon *rhhh.Sharded, theta float64, o serverOptions) *server {
	if o.queryLimit <= 0 {
		o.queryLimit = 16
	}
	if o.reqTimeout <= 0 {
		o.reqTimeout = 10 * time.Second
	}
	if o.watchWrite <= 0 {
		o.watchWrite = 5 * time.Second
	}
	if o.retryAfter <= 0 {
		o.retryAfter = time.Second
	}
	s := &server{
		reg:        telemetry.NewRegistry(),
		mon:        mon,
		theta:      theta,
		start:      time.Now(),
		gate:       resilience.NewGate(o.queryLimit),
		health:     &resilience.Health{},
		degrader:   &resilience.Degrader{},
		reqTimeout: o.reqTimeout,
		watchWrite: o.watchWrite,
		retryAfter: o.retryAfter,
		shutdown:   make(chan struct{}),
		ckpt:       o.ckpt,
	}
	s.resPolicy = &resilience.Policy{
		Stats: &s.resStats,
		OnGiveUp: func(name string, v any) {
			// A goroutine the supervisor abandoned is an unrecoverable loss
			// of function: surface it on /healthz instead of limping silently.
			s.health.Set(resilience.HealthFailing, fmt.Sprintf("supervised goroutine %s gave up: %v", name, v))
		},
	}
	mon.SetResiliencePolicy(s.resPolicy)
	mon.Instrument(s.reg)
	s.resStats.Register(s.reg, "")
	s.gate.Register(s.reg, "")
	s.health.Register(s.reg, "")
	s.degrader.Register(s.reg, "")
	if s.ckpt != nil {
		s.ckpt.Instrument(s.reg)
	} else {
		// Register a zeroed block so the exposition (and its golden test)
		// is identical whether or not checkpointing is enabled.
		s.ckptStats.Register(s.reg, "")
	}
	s.reg.Counter("hhhd_watch_client_drops_total", "", "Slow or gone /watch clients dropped on a failed or timed-out write.", &s.sseDrops)
	s.reg.GaugeFunc("hhhd_uptime_seconds", "", "Seconds since the daemon started.", func() float64 {
		return time.Since(s.start).Seconds()
	})
	s.reg.GaugeFunc("hhhd_published_packets", "", "Combined published stream weight (N).", func() float64 {
		return float64(mon.N())
	})
	s.reg.GaugeFunc("hhhd_converged", "", "Whether the published N passed the psi convergence bound.", func() float64 {
		if mon.Converged() {
			return 1
		}
		return 0
	})
	return s
}

// newMux wires the operational endpoints. The query surfaces sit behind the
// shared admission gate and a per-request deadline; /metrics and /healthz
// stay ungated so overload never blinds the operator.
func newMux(s *server) *http.ServeMux {
	guard := func(h http.HandlerFunc) http.Handler {
		return s.gate.Limit(s.retryAfter, resilience.WithDeadline(s.reqTimeout, h))
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.Handle("GET /query", guard(s.handleQuery))
	mux.Handle("GET /snapshot", guard(s.handleSnapshot))
	mux.HandleFunc("GET /watch", s.handleWatch)
	return mux
}

// beginDrain flips /healthz to the terminal draining state and ends every
// live /watch stream so HTTP shutdown is not held open by SSE clients.
func (s *server) beginDrain() {
	s.health.Set(resilience.HealthDraining, "shutdown in progress")
	close(s.shutdown)
}

func (s *server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = s.reg.WritePrometheus(w)
}

// healthResponse is the /healthz JSON shape: the resilience state machine
// (ok → degraded → failing, draining once shutdown starts) plus the
// operational numbers the old plaintext form carried.
type healthResponse struct {
	State         string  `json:"state"`
	Reason        string  `json:"reason,omitempty"`
	N             uint64  `json:"n"`
	Psi           float64 `json:"psi"`
	Converged     bool    `json:"converged"`
	Workers       int     `json:"workers"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	DegradeLevel  int     `json:"degrade_level"`
	ShedTotal     uint64  `json:"shed_total"`
	PanicsTotal   uint64  `json:"panics_total"`
	CheckpointGen uint64  `json:"checkpoint_generation,omitempty"`
	CheckpointSeq uint32  `json:"checkpoint_segments,omitempty"`
}

func (s *server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	state, reason := s.health.Get()
	resp := healthResponse{
		State:         state.String(),
		Reason:        reason,
		N:             s.mon.N(),
		Psi:           s.mon.Psi(),
		Converged:     s.mon.Converged(),
		Workers:       s.mon.Workers(),
		UptimeSeconds: time.Since(s.start).Seconds(),
		DegradeLevel:  s.degrader.Level(),
		ShedTotal:     s.gate.Sheds(),
		PanicsTotal:   s.resStats.Panics.Load(),
	}
	if s.ckpt != nil {
		resp.CheckpointGen, resp.CheckpointSeq = s.ckpt.Generation()
	}
	w.Header().Set("Content-Type", "application/json")
	// ok and degraded still serve traffic; failing and draining tell the
	// load balancer to stop sending it.
	if state == resilience.HealthFailing || state == resilience.HealthDraining {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(resp)
}

// queryResponse is the /query JSON shape.
type queryResponse struct {
	Theta     float64       `json:"theta"`
	N         uint64        `json:"n"`
	Threshold float64       `json:"threshold"`
	Converged bool          `json:"converged"`
	Count     int           `json:"count"`
	Hits      []queryResult `json:"hits"`
}

type queryResult struct {
	Src   string  `json:"src"`
	Dst   string  `json:"dst,omitempty"`
	Text  string  `json:"text"`
	Lower float64 `json:"lower"`
	Upper float64 `json:"upper"`
	Cond  float64 `json:"cond"`
	Level int     `json:"level"`
}

func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	theta := s.theta
	if q := r.URL.Query().Get("theta"); q != "" {
		v, err := strconv.ParseFloat(q, 64)
		if err != nil || !(v > 0 && v <= 1) {
			http.Error(w, "theta must be a number in (0, 1]", http.StatusBadRequest)
			return
		}
		theta = v
	}
	s.qmu.Lock()
	defer s.qmu.Unlock()
	// The gate bounds how many requests queue on qmu; the deadline bounds
	// how long one waits there. A request whose deadline expired while
	// queued is answered without doing the (already too late) query work.
	if r.Context().Err() != nil {
		http.Error(w, "request deadline exceeded while queued", http.StatusServiceUnavailable)
		return
	}
	hits := s.mon.HeavyHitters(theta)
	n := s.mon.N()
	resp := queryResponse{
		Theta:     theta,
		N:         n,
		Threshold: theta * float64(n),
		Converged: s.mon.Converged(),
		Count:     len(hits),
		Hits:      make([]queryResult, len(hits)),
	}
	for i, h := range hits {
		qr := queryResult{
			Src: h.Src.String(), Text: h.Text,
			Lower: h.Lower, Upper: h.Upper, Cond: h.Cond, Level: h.Level,
		}
		if h.Dst.IsValid() {
			qr.Dst = h.Dst.String()
		}
		resp.Hits[i] = qr
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(resp)
}

func (s *server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	s.qmu.Lock()
	if r.Context().Err() != nil {
		s.qmu.Unlock()
		http.Error(w, "request deadline exceeded while queued", http.StatusServiceUnavailable)
		return
	}
	snap := s.mon.Snapshot()
	data, err := snap.MarshalBinary()
	if err == nil {
		s.snapBuf = append(s.snapBuf[:0], data...)
		data = s.snapBuf
	}
	s.qmu.Unlock()
	if err != nil {
		http.Error(w, "snapshot: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition", `attachment; filename="hhh.snapshot"`)
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	_, _ = w.Write(data)
}

// watchEvent is the /watch SSE data payload: one standing-query delta.
type watchEvent struct {
	Seq      uint64   `json:"seq"`
	N        uint64   `json:"n"`
	Theta    float64  `json:"theta"`
	Dropped  uint64   `json:"dropped,omitempty"`
	Admitted []string `json:"admitted,omitempty"`
	Retired  []string `json:"retired,omitempty"`
	Updated  []string `json:"updated,omitempty"`
}

// handleWatch streams standing-query deltas as server-sent events. Query
// parameters: theta (default: the daemon's -theta), k (auto-tune to top-k,
// overrides theta), min_delta (update hysteresis, stream units), interval
// (tick interval, Go duration). The stream ends when the client disconnects.
func (s *server) handleWatch(w http.ResponseWriter, r *http.Request) {
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	opts := rhhh.WatchOptions{Theta: s.theta}
	q := r.URL.Query()
	if v := q.Get("theta"); v != "" {
		t, err := strconv.ParseFloat(v, 64)
		if err != nil || !(t > 0 && t <= 1) {
			http.Error(w, "theta must be a number in (0, 1]", http.StatusBadRequest)
			return
		}
		opts.Theta = t
	}
	if v := q.Get("k"); v != "" {
		k, err := strconv.Atoi(v)
		if err != nil || k <= 0 {
			http.Error(w, "k must be a positive integer", http.StatusBadRequest)
			return
		}
		opts.Theta, opts.AutoThetaK = 0, k
	}
	if v := q.Get("min_delta"); v != "" {
		md, err := strconv.ParseFloat(v, 64)
		if err != nil || !(md >= 0) {
			http.Error(w, "min_delta must be a non-negative number", http.StatusBadRequest)
			return
		}
		opts.MinDelta = md
	}
	if v := q.Get("interval"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			http.Error(w, "interval must be a positive duration", http.StatusBadRequest)
			return
		}
		opts.Interval = d
	}
	sub, err := s.mon.Watch(opts)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	defer sub.Close()
	rc := http.NewResponseController(w)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	enc := json.NewEncoder(w)
	// drop disconnects a client that cannot keep up (or is gone): without
	// the per-write deadline a stalled TCP peer would park this handler in
	// Write forever, holding the subscription and its differ state alive.
	drop := func() {
		s.sseDrops.Add(1)
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case <-s.shutdown:
			// Draining: end the stream so server shutdown can finish.
			return
		case d, ok := <-sub.Events():
			if !ok {
				return
			}
			ev := watchEvent{Seq: d.Seq, N: d.N, Theta: d.Theta, Dropped: d.Dropped}
			for _, h := range d.Admitted {
				ev.Admitted = append(ev.Admitted, h.Text)
			}
			for _, h := range d.Retired {
				ev.Retired = append(ev.Retired, h.Text)
			}
			for _, h := range d.Updated {
				ev.Updated = append(ev.Updated, h.Text)
			}
			_ = rc.SetWriteDeadline(time.Now().Add(s.watchWrite))
			if _, err := fmt.Fprintf(w, "event: delta\ndata: "); err != nil {
				drop()
				return
			}
			if err := enc.Encode(ev); err != nil { // Encode appends the \n
				drop()
				return
			}
			if _, err := fmt.Fprintf(w, "\n"); err != nil {
				drop()
				return
			}
			if err := rc.Flush(); err != nil {
				drop()
				return
			}
			_ = rc.SetWriteDeadline(time.Time{})
		}
	}
}
