package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"time"

	"gorder"
	"gorder/internal/core"
	"gorder/internal/fair"
	"gorder/internal/order"
	"gorder/internal/query"
	"gorder/internal/registry"
	"gorder/internal/store"
)

// Config configures a Server. The zero value is usable: one worker, a
// 64-deep queue, 5-minute default deadline, 32 MiB upload cap, no
// persistence.
type Config struct {
	Pool      PoolConfig
	MaxUpload int64 // bytes accepted on POST /graphs; <= 0 means 32 MiB
	Logger    *slog.Logger
	// Store, when set, persists graphs and ordering artifacts: the
	// registry is backed by it (catalog restored on construction, LRU
	// residency under its byte budget), ordering jobs consult the
	// artifact cache before computing and persist results after, and
	// the store_* metrics are exported.
	Store *store.Store

	// Query-tier knobs. Queries run on the HTTP goroutines behind
	// their own gate — never in the compute worker pool — so these are
	// independent of Pool.Workers.
	QueryConcurrency  int           // concurrent queries; <= 0 means 8
	QueryWaitCap      int           // queued waiters per tenant before 429; <= 0 means 64
	QueryTimeout      time.Duration // default per-query deadline; <= 0 means 30s
	QueryResultBudget int64         // result-cache LRU bytes; <= 0 means 64 MiB
	QueryGraphBudget  int64         // relabeled-graph LRU bytes; <= 0 means 256 MiB
	KernelWorkers     int           // goroutines per internal/exec kernel query; <= 0 means 1

	// Traffic-tier knobs. TenantRate is the per-tenant request rate in
	// requests/second (<= 0 disables rate limiting entirely);
	// TenantBurst is the bucket size (<= 0 means one second of rate).
	// TenantWeights are the fair-queueing weights shared by the job
	// queue and the query read gate (nil = all tenants equal). Tenants
	// are named by the X-Tenant request header.
	TenantRate    float64
	TenantBurst   int
	TenantWeights fair.Weights

	// Mutation-tier knobs (POST /graphs/{name}/edges; store required).
	// DecayThreshold is the quality ratio below which a repair job is
	// enqueued (<= 0 means 0.93); RepairFullBelow the ratio below which
	// the repair recomputes from scratch instead of re-placing the
	// suffix (<= 0 means 0.85); MaxRepairs how many incremental repairs
	// may run between full recomputes (<= 0 means 3). DisableAutoRepair
	// stops mutations from enqueueing repair jobs — the quality record
	// still updates, and repairs can be submitted manually via POST
	// /jobs {"kind":"repair"}.
	DecayThreshold    float64
	RepairFullBelow   float64
	MaxRepairs        int
	DisableAutoRepair bool
}

// Server glues the registry, the pool, and the metrics into the HTTP
// JSON API gorderd serves. Construct with New, then Start the workers
// and mount Handler on an http.Server.
type Server struct {
	cfg     Config
	log     *slog.Logger
	Metrics *Metrics
	Reg     *Registry
	Pool    *Pool
	Query   *query.Executor
	mux     *http.ServeMux

	// mutMu serializes lineage mutations: versions form a chain, so
	// two edits must not both extend the same tip.
	mutMu sync.Mutex

	httpRequests *Counter
	httpErrors   *Counter

	// Traffic-tier plumbing: the per-tenant rate limiter (nil when
	// disabled) and the admission counters.
	limiter     *fair.Limiter
	rateLimited *Counter
	jobsShed    *Counter
	queryShed   *Counter

	// Query-tier plumbing: the weighted-fair read gate, the service
	// EWMA its shedder forecasts with, and the counters (the executor's
	// own counters are exported as Func metrics).
	qgate         *fair.Gate
	queryConc     int
	querySvc      *fair.EWMA
	queryRequests *Counter
	queryErrors   *Counter
	queryRejected *Counter
	queryBatches  *Counter
	queryMS       *Counter
	queryKernel   map[string]*Counter

	// Per-ordering instrumentation, fed by the registry's observation
	// hook: runs, cumulative wall milliseconds, and cancellations,
	// keyed by lowercase ordering name.
	orderingRuns     map[string]*Counter
	orderingMS       map[string]*Counter
	orderingCanceled map[string]*Counter

	// Aggregate greedy-work counters across all methods, from the
	// core.OrderStats carrier the registry threads through every
	// computation.
	orderingHeapOps    *Counter
	orderingPlacements *Counter
}

// New builds a Server (workers not yet started; call Start).
func New(cfg Config) *Server {
	if cfg.MaxUpload <= 0 {
		cfg.MaxUpload = 32 << 20
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if cfg.Pool.Weights == nil {
		cfg.Pool.Weights = cfg.TenantWeights
	}
	m := NewMetrics()
	s := &Server{
		cfg:          cfg,
		log:          cfg.Logger,
		Metrics:      m,
		Reg:          NewRegistry(m),
		httpRequests: m.Counter("http_requests_total"),
		httpErrors:   m.Counter("http_errors_total"),

		orderingRuns:     make(map[string]*Counter),
		orderingMS:       make(map[string]*Counter),
		orderingCanceled: make(map[string]*Counter),

		orderingHeapOps:    m.Counter("ordering_heap_ops_total"),
		orderingPlacements: m.Counter("ordering_placements_total"),
	}
	if st := cfg.Store; st != nil {
		s.Reg.AttachStore(st)
		m.Func("store_hits_total", st.Hits)
		m.Func("store_misses_total", st.Misses)
		m.Func("store_evictions_total", st.Evictions)
		m.Func("store_resident_bytes", st.ResidentBytes)
		m.Func("store_graph_reloads_total", st.Reloads)
		m.Func("store_graphs", st.GraphCount)
		m.Func("store_orders", st.OrderCount)
		m.Func("store_results", st.ResultCount)
		m.Func("store_result_hits_total", st.ResultHits)
		m.Func("store_result_misses_total", st.ResultMisses)
	}
	s.initQuery(m)
	s.initTraffic(m)
	// Pre-register one counter triple per catalog ordering so /metrics
	// exposes every method from startup (zeros included) and the
	// observation hook never registers metrics concurrently.
	for _, desc := range registry.Orderings() {
		key := strings.ToLower(desc.Name)
		s.orderingRuns[key] = m.Counter("ordering_runs_" + key)
		s.orderingMS[key] = m.Counter("ordering_ms_" + key)
		s.orderingCanceled[key] = m.Counter("ordering_canceled_" + key)
	}
	s.Pool = NewPool(cfg.Pool, m, cfg.Logger, s.execute)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/methods", s.handleMethods)
	s.mux.HandleFunc("/graphs", s.handleGraphs)
	s.mux.HandleFunc("/graphs/", s.handleGraphByID)
	s.mux.HandleFunc("/jobs", s.handleJobs)
	s.mux.HandleFunc("/jobs/", s.handleJobByID)
	s.mux.HandleFunc("/query", s.handleQuery)
	s.mux.HandleFunc("/query/batch", s.handleQueryBatch)
	return s
}

// Start launches the worker pool.
func (s *Server) Start() { s.Pool.Start() }

// Shutdown drains the pool; see Pool.Shutdown.
func (s *Server) Shutdown(ctx context.Context) []JobRequest {
	return s.Pool.Shutdown(ctx)
}

// Handler returns the daemon's HTTP handler: request counting, then
// per-tenant rate limiting, then the route mux.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.httpRequests.Inc()
		if !s.admit(w, r) {
			return
		}
		s.mux.ServeHTTP(w, r)
	})
}

// ---- response envelopes -------------------------------------------------

// apiError is the uniform error envelope every endpoint returns:
// {"error":{"code":"not_found","message":"..."}}.
type apiError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

func (s *Server) writeError(w http.ResponseWriter, status int, code, format string, args ...any) {
	s.httpErrors.Inc()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]apiError{
		"error": {Code: code, Message: fmt.Sprintf(format, args...)},
	})
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// methodNotAllowed writes the envelope and the Allow header the RFC
// asks for.
func (s *Server) methodNotAllowed(w http.ResponseWriter, r *http.Request, allowed ...string) {
	w.Header().Set("Allow", strings.Join(allowed, ", "))
	s.writeError(w, http.StatusMethodNotAllowed, "method_not_allowed",
		"%s is not allowed on %s (allowed: %s)", r.Method, r.URL.Path, strings.Join(allowed, ", "))
}

// ---- endpoints ----------------------------------------------------------

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.methodNotAllowed(w, r, http.MethodGet)
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"status": "ok"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.methodNotAllowed(w, r, http.MethodGet)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	s.Metrics.WriteJSON(w)
}

// methodInfo is the /methods view of one registry ordering: the
// canonical name plus the capability metadata a client needs to pick
// a method and set expectations (can it be canceled mid-run? does the
// seed matter? roughly how expensive is it?).
type methodInfo struct {
	Name        string   `json:"name"`
	Aliases     []string `json:"aliases,omitempty"`
	Stochastic  bool     `json:"stochastic"`
	Cancellable bool     `json:"cancellable"`
	Cost        string   `json:"cost"`
}

// handleMethods serves GET /methods: the ordering and kernel catalogs
// the daemon accepts, straight from the registry.
func (s *Server) handleMethods(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.methodNotAllowed(w, r, http.MethodGet)
		return
	}
	descs := registry.Orderings()
	infos := make([]methodInfo, len(descs))
	for i, d := range descs {
		infos[i] = methodInfo{
			Name:        d.Name,
			Aliases:     d.Aliases,
			Stochastic:  d.Stochastic,
			Cancellable: d.Cancellable,
			Cost:        string(d.Cost),
		}
	}
	s.writeJSON(w, http.StatusOK, map[string]any{
		"orderings": infos,
		"kernels":   registry.KernelNames(),
	})
}

// handleGraphs serves GET /graphs (list) and POST /graphs (streaming
// upload; see upload.go). Uploads send the raw graph bytes (binary
// CSR or text edge list) as the body with the name in the ?name=
// query parameter.
func (s *Server) handleGraphs(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		s.writeJSON(w, http.StatusOK, map[string]any{"graphs": s.Reg.List()})
	case http.MethodPost:
		s.handleGraphUpload(w, r)
	default:
		s.methodNotAllowed(w, r, http.MethodGet, http.MethodPost)
	}
}

// handleGraphByID routes /graphs/{ref} and its subresources. The ref
// may be a digest, a name, or a version reference (name@vN,
// name@latest); the subresources address lineages by name.
func (s *Server) handleGraphByID(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/graphs/")
	ref, sub, hasSub := strings.Cut(rest, "/")
	switch {
	case ref == "" || (hasSub && sub != "edges" && sub != "lineage"):
		s.writeError(w, http.StatusNotFound, "not_found", "no such route %s", r.URL.Path)
	case sub == "edges":
		s.handleGraphEdges(w, r, ref)
	case sub == "lineage":
		s.handleGraphLineage(w, r, ref)
	default:
		if r.Method != http.MethodGet {
			s.methodNotAllowed(w, r, http.MethodGet)
			return
		}
		info, ok := s.Reg.Stat(ref)
		if !ok {
			s.writeError(w, http.StatusNotFound, "graph_not_found", "no graph %q", ref)
			return
		}
		s.writeJSON(w, http.StatusOK, info)
	}
}

// maxJobBody caps POST /jobs bodies; job descriptions are tiny.
const maxJobBody = 64 << 10

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		s.writeJSON(w, http.StatusOK, map[string]any{"jobs": s.Pool.List()})
	case http.MethodPost:
		var req JobRequest
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxJobBody))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			s.writeError(w, http.StatusBadRequest, "bad_request", "decoding job: %v", err)
			return
		}
		if code, msg := s.validateJob(&req); code != "" {
			s.writeError(w, http.StatusBadRequest, code, "%s", msg)
			return
		}
		// The header is the tenant identity; a body-supplied tenant only
		// survives for headerless submissions (manifest replay goes
		// through Submit directly and keeps its recorded tenant).
		if t := tenantOf(r); t != fair.DefaultTenant || req.Tenant == "" {
			req.Tenant = t
		}
		if s.shedJob(w, &req) {
			return
		}
		status, err := s.Pool.Submit(req)
		switch {
		case errors.Is(err, ErrQueueFull):
			s.writeRetryError(w, http.StatusTooManyRequests, "queue_full",
				s.Pool.EstimatedWait(),
				"the job queue is at its depth limit; retry later")
			return
		case errors.Is(err, ErrTenantQueueFull):
			s.writeRetryError(w, http.StatusTooManyRequests, "tenant_queue_full",
				s.Pool.EstimatedWait(),
				"tenant %q is at its queued-job cap; retry later", req.Tenant)
			return
		case errors.Is(err, ErrShuttingDown):
			s.writeError(w, http.StatusServiceUnavailable, "shutting_down",
				"the server is draining; submit to another replica")
			return
		case err != nil:
			s.writeError(w, http.StatusBadRequest, "bad_request", "%v", err)
			return
		}
		s.log.Info("job submitted", "job", status.ID, "kind", req.Kind,
			"graph", req.Graph, "method", req.Method)
		s.writeJSON(w, http.StatusAccepted, status)
	default:
		s.methodNotAllowed(w, r, http.MethodGet, http.MethodPost)
	}
}

// validateJob rejects requests that could never run, so mistakes fail
// at submit time with a message instead of queueing up a doomed job.
func (s *Server) validateJob(req *JobRequest) (code, msg string) {
	switch req.Kind {
	case KindOrder:
		if req.Method == "" {
			req.Method = "gorder"
		}
		if _, ok := registry.Lookup(req.Method); !ok {
			return "unknown_method", fmt.Sprintf("unknown ordering %q (known: %s)",
				req.Method, strings.Join(registry.MethodNames(), " "))
		}
	case KindEval:
		if req.Kernel != "" {
			if _, ok := registry.LookupKernel(req.Kernel); !ok {
				return "unknown_kernel", fmt.Sprintf("unknown kernel %q (known: %s)",
					req.Kernel, strings.Join(registry.KernelNames(), " "))
			}
		}
	case KindRepair:
		if s.cfg.Store == nil {
			return "no_store", "repair jobs require the daemon to run with a persistent store (-data-dir)"
		}
		if req.Graph != "" {
			if _, ok := s.cfg.Store.Lineage(req.Graph); !ok {
				return "unknown_lineage", fmt.Sprintf("no graph lineage %q to repair", req.Graph)
			}
		}
	default:
		return "unknown_kind", fmt.Sprintf("unknown job kind %q (known: %s, %s, %s)",
			req.Kind, KindOrder, KindEval, KindRepair)
	}
	if req.Graph == "" {
		return "missing_graph", "job requires a graph ID or name"
	}
	// Stat, not Get: validation must not pull an evicted graph back
	// into memory just to check it exists.
	if _, ok := s.Reg.Stat(req.Graph); !ok {
		return "graph_not_found", fmt.Sprintf("no graph %q registered", req.Graph)
	}
	if req.TimeoutMs < 0 {
		return "bad_timeout", "timeout_ms must be >= 0"
	}
	return "", ""
}

func (s *Server) handleJobByID(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.methodNotAllowed(w, r, http.MethodGet)
		return
	}
	rest := strings.TrimPrefix(r.URL.Path, "/jobs/")
	id, sub, _ := strings.Cut(rest, "/")
	switch {
	case id == "":
		s.writeError(w, http.StatusNotFound, "not_found", "no such route %s", r.URL.Path)
	case sub == "":
		status, ok := s.Pool.Get(id)
		if !ok {
			s.writeError(w, http.StatusNotFound, "job_not_found", "no job %q", id)
			return
		}
		s.writeJSON(w, http.StatusOK, status)
	case sub == "permutation":
		perm, status, ok := s.Pool.Permutation(id)
		if !ok {
			s.writeError(w, http.StatusNotFound, "job_not_found", "no job %q", id)
			return
		}
		if status.State != StateDone || perm == nil {
			s.writeError(w, http.StatusConflict, "not_ready",
				"job %s is %s; a permutation is only available from a done order job",
				id, status.State)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if err := order.WritePermutation(w, perm); err != nil {
			s.log.Warn("permutation download aborted", "job", id, "err", err)
		}
	default:
		s.writeError(w, http.StatusNotFound, "not_found", "no such route %s", r.URL.Path)
	}
}

// ---- job execution ------------------------------------------------------

// observeOrdering folds one registry observation into the per-method
// counters. Observations for unknown methods (a failed lookup leaves
// Ordering empty) are dropped.
func (s *Server) observeOrdering(obs registry.Observation) {
	key := strings.ToLower(obs.Ordering)
	if c, ok := s.orderingRuns[key]; ok {
		c.Inc()
	} else {
		return
	}
	s.orderingMS[key].Add(obs.Duration.Milliseconds())
	if obs.Canceled {
		s.orderingCanceled[key].Inc()
	}
	s.orderingHeapOps.Add(obs.HeapOps)
	s.orderingPlacements.Add(obs.Placements)
}

// execute is the pool's executor: it resolves the graph, runs the
// ordering or evaluation with the job's context, and returns the
// metrics that end up in the job status.
func (s *Server) execute(ctx context.Context, req JobRequest, found func(order.Permutation)) (map[string]float64, error) {
	g, info, ok := s.Reg.Get(req.Graph)
	if !ok {
		// The graph was known at submit time but may since have been
		// deregistered (a store-backed graph whose blob went corrupt).
		return nil, fmt.Errorf("graph %q is no longer registered", req.Graph)
	}
	w := req.Window
	if w <= 0 {
		w = core.DefaultWindow
	}
	switch req.Kind {
	case KindOrder:
		opts := registry.Options{
			Window: req.Window, HubThreshold: req.Hub, Seed: req.Seed, LDGBins: req.LDGBins,
			Workers: req.Workers, Partitions: req.Partitions,
		}
		// The artifact cache keys on graph digest + canonical method +
		// canonicalized options, so every spelling of the same job maps
		// to one artifact. A hit skips the ordering computation entirely
		// — the amortization the store exists for.
		var method, optKey string
		var copts registry.Options
		if st := s.cfg.Store; st != nil {
			if desc, ok := registry.Lookup(req.Method); ok {
				if c, key, err := registry.OptionsKey(req.Method, opts); err == nil {
					method, optKey, copts = strings.ToLower(desc.Name), key, c
				}
			}
			if optKey != "" {
				if perm, ok := st.GetOrder(info.ID, method, optKey, g.NumNodes()); ok {
					found(perm)
					f := order.Score(g, perm, w)
					s.recordOrderingQuality(info.ID, g, method, optKey, copts, perm, w, f, false)
					return map[string]float64{
						"score_F":   float64(f),
						"bandwidth": float64(order.Bandwidth(g, perm)),
						"cache_hit": 1,
					}, nil
				}
			}
		}
		perm, obs, err := registry.ComputeObserved(ctx, g, req.Method, opts)
		s.observeOrdering(obs)
		if err != nil {
			return nil, err
		}
		found(perm)
		f := order.Score(g, perm, w)
		if optKey != "" {
			if err := s.cfg.Store.PutOrder(info.ID, method, optKey, perm); err != nil {
				s.log.Warn("persisting ordering artifact failed", "graph", info.ID,
					"method", method, "err", err)
			} else {
				// A fresh full computation is the quality monitor's ground
				// truth: (re-)baseline any lineage this graph tips.
				s.recordOrderingQuality(info.ID, g, method, optKey, copts, perm, w, f, true)
			}
		}
		return map[string]float64{
			"score_F":   float64(f),
			"bandwidth": float64(order.Bandwidth(g, perm)),
		}, nil
	case KindEval:
		perm := order.Identity(g.NumNodes())
		if req.OfJob != "" {
			p, status, ok := s.Pool.Permutation(req.OfJob)
			if !ok {
				return nil, fmt.Errorf("of_job %q does not exist", req.OfJob)
			}
			if status.State != StateDone || p == nil {
				return nil, fmt.Errorf("of_job %q is %s, not a done order job", req.OfJob, status.State)
			}
			perm = p
		}
		if len(perm) != g.NumNodes() {
			return nil, fmt.Errorf("permutation from %q covers %d vertices, graph has %d",
				req.OfJob, len(perm), g.NumNodes())
		}
		metrics := map[string]float64{
			"score_F":     float64(order.Score(g, perm, w)),
			"bandwidth":   float64(order.Bandwidth(g, perm)),
			"linear_cost": order.LinearCost(g, perm),
			"log_cost":    order.LogCost(g, perm),
		}
		if req.Kernel != "" {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			rep, err := gorder.SimulateCache(gorder.Apply(g, perm), req.Kernel, gorder.SmallCache())
			if err != nil {
				return nil, err
			}
			metrics["l1_miss_rate"] = rep.L1MissRate()
			metrics["cache_miss_rate"] = rep.MissRate()
			metrics["llc_ratio"] = rep.LLCRatio()
			metrics["sim_cycles"] = float64(rep.Cycles)
		}
		return metrics, nil
	case KindRepair:
		return s.executeRepair(ctx, g, info, found)
	default:
		return nil, fmt.Errorf("unknown job kind %q", req.Kind)
	}
}

// DrainAndPersist performs the daemon's graceful-exit sequence: drain
// the pool within the grace period and persist any still-queued jobs
// to manifestPath so the next start can replay them.
func (s *Server) DrainAndPersist(grace time.Duration, manifestPath string) error {
	ctx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	queued := s.Shutdown(ctx)
	if manifestPath == "" {
		return nil
	}
	if err := WriteManifest(manifestPath, queued); err != nil {
		return fmt.Errorf("persisting job manifest: %w", err)
	}
	if len(queued) > 0 {
		s.log.Info("queued jobs persisted", "count", len(queued), "path", manifestPath)
	}
	return nil
}

// Replay submits previously persisted job requests (from a shutdown
// manifest), logging and skipping any that no longer validate — e.g.
// jobs naming graphs that are not registered this run.
func (s *Server) Replay(reqs []JobRequest) int {
	n := 0
	for _, req := range reqs {
		if code, msg := s.validateJob(&req); code != "" {
			s.log.Warn("skipping manifest job", "code", code, "reason", msg)
			continue
		}
		if _, err := s.Pool.Submit(req); err != nil {
			s.log.Warn("skipping manifest job", "err", err)
			continue
		}
		n++
	}
	return n
}
