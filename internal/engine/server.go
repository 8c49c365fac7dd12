package engine

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"snap1/internal/fault"
	"snap1/internal/isa"
	"snap1/internal/machine"
)

// QueryRequest is the JSON body of POST /v1/query. A text/plain body is
// accepted too: the raw bytes are the assembly source.
type QueryRequest struct {
	// Program is SNAP assembly text (internal/isa Assembler syntax);
	// names resolve against the engine's knowledge base.
	Program string `json:"program"`
	// TimeoutMillis bounds the query's total residence (queue + run);
	// 0 means no per-query deadline beyond the server's. A negative
	// count, or one past what a time.Duration holds, is a bad request.
	TimeoutMillis int `json:"timeout_ms,omitempty"`
}

// QueryItem is one retrieved row with names resolved.
type QueryItem struct {
	Node   string  `json:"node"`
	Value  float32 `json:"value,omitempty"`
	Origin string  `json:"origin,omitempty"`
	Rel    string  `json:"rel,omitempty"`
	Weight float32 `json:"weight,omitempty"`
	To     string  `json:"to,omitempty"`
	Color  string  `json:"color,omitempty"`
}

// QueryCollection is one retrieval instruction's rows.
type QueryCollection struct {
	Instr int         `json:"instr"`
	Op    string      `json:"op"`
	Items []QueryItem `json:"items"`
}

// QueryResponse is the JSON body answering POST /v1/query.
type QueryResponse struct {
	VirtualTime  string            `json:"virtual_time"`
	VirtualPicos int64             `json:"virtual_ps"`
	WallMicros   int64             `json:"wall_us"`
	Collections  []QueryCollection `json:"collections"`
	ProgramHash  string            `json:"program_hash"`
	Instructions int               `json:"instructions"`
	// KBGeneration is the knowledge-base generation snapshot the run
	// observed — after its own mutations, for a /v1/mutate response.
	KBGeneration  uint64 `json:"kb_generation,omitempty"`
	ServerMessage string `json:"message,omitempty"`
}

// BatchQueryRequest is the JSON body of POST /v1/query/batch: up to
// MaxBatchPrograms independent read-only queries submitted together
// (Engine.SubmitBatch): each member is answered as its own /v1/query
// would be, and the members run on whichever replicas are free.
type BatchQueryRequest struct {
	// Programs are SNAP assembly texts; element order is preserved in
	// the response.
	Programs []string `json:"programs"`
	// TimeoutMillis bounds the whole batch's residence (queue + runs);
	// 0 means no deadline beyond the server's; its range is
	// QueryRequest.TimeoutMillis's.
	TimeoutMillis int `json:"timeout_ms,omitempty"`
}

// MaxBatchPrograms bounds one /v1/query/batch request.
const MaxBatchPrograms = 64

// BatchElement is one positional outcome in a batch response: exactly
// one of Result and Error is set. Error carries the same typed envelope
// body a solo /v1/query request would have received for that program.
type BatchElement struct {
	Result *QueryResponse `json:"result,omitempty"`
	Error  *ErrorBody     `json:"error,omitempty"`
}

// BatchQueryResponse is the JSON body answering POST /v1/query/batch.
// The HTTP status is 200 whenever the batch itself was well-formed;
// per-program failures are reported in their elements.
type BatchQueryResponse struct {
	Results []BatchElement `json:"results"`
}

// ErrorBody is the versioned error payload carried by every non-2xx
// /v1/* response. Code is a stable machine-readable string; clients
// branch on it (and on Retryable) rather than matching Message text.
type ErrorBody struct {
	Code      string `json:"code"`
	Message   string `json:"message"`
	Retryable bool   `json:"retryable"`
}

// ErrorEnvelope wraps ErrorBody as the response document:
//
//	{"error":{"code":"overloaded","message":"...","retryable":true}}
type ErrorEnvelope struct {
	Error ErrorBody `json:"error"`
}

// NewServer returns the engine's HTTP serving surface:
//
//	POST /v1/query       — run one SNAP assembly query (JSON or text/plain)
//	POST /v1/query/batch — run up to MaxBatchPrograms queries together
//	POST /v1/mutate      — run one topology-mutating program (Config.Writes)
//	GET  /v1/stats       — serving counters, per-stage latency, monitor state
//	GET  /v1/health      — per-replica quarantine state and overall status
func NewServer(e *Engine) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/query", e.handleQuery)
	mux.HandleFunc("/v1/query/batch", e.handleQueryBatch)
	mux.HandleFunc("/v1/mutate", e.handleMutate)
	mux.HandleFunc("/v1/stats", e.handleStats)
	mux.HandleFunc("/v1/health", e.handleHealth)
	return mux
}

// Request body limits. A longer body is refused with 413 too_large,
// never truncated and run.
const (
	maxQueryBody = 1 << 20
	maxBatchBody = 8 << 20
)

func (e *Engine) handleQuery(w http.ResponseWriter, r *http.Request) {
	e.handleProgram(w, r, false)
}

// handleMutate answers POST /v1/mutate: one topology-mutating SNAP
// program (same request shape as /v1/query), executed through the
// serialized write path. The response is a QueryResponse whose
// KBGeneration is the epoch the write published; by the time it is
// written, every subsequently admitted read observes the mutation.
// Engines without Config.Writes answer 403 writes_disabled, before the
// program is looked at.
func (e *Engine) handleMutate(w http.ResponseWriter, r *http.Request) {
	e.handleProgram(w, r, true)
}

// handleProgram is /v1/query and /v1/mutate: one program in (JSON or
// text/plain), one QueryResponse out; the two differ in the assembler —
// only a write's may add a name to the KB — and in the submit door.
func (e *Engine) handleProgram(w http.ResponseWriter, r *http.Request, write bool) {
	if r.Method != http.MethodPost {
		writeErrorCode(w, http.StatusMethodNotAllowed, "method_not_allowed", false, errors.New("POST required"))
		return
	}
	buf := bufPool.Get().(*[]byte)
	defer putBuf(buf)
	if !readBody(w, r, maxQueryBody, buf) {
		return
	}
	var req QueryRequest
	if ct := r.Header.Get("Content-Type"); strings.HasPrefix(ct, "application/json") {
		if err := decodeQueryRequest(*buf, &req); err != nil {
			writeErrorCode(w, http.StatusBadRequest, "bad_request", false, err)
			return
		}
	} else {
		req.Program = string(*buf)
	}
	if strings.TrimSpace(req.Program) == "" {
		writeErrorCode(w, http.StatusBadRequest, "bad_request", false, errors.New("empty program"))
		return
	}

	ctx, cancel, err := requestContext(r, req.TimeoutMillis)
	if err != nil {
		writeErrorCode(w, http.StatusBadRequest, "bad_request", false, err)
		return
	}
	defer cancel()

	asm := e.readAsm
	if write {
		if e.writer == nil {
			e.st.add(&e.st.Rejected, 1)
			e.writeError(w, ErrWritesDisabled)
			return
		}
		asm = e.asm
	}
	prog, err := e.compile(asm, req.Program)
	if err != nil {
		e.writeError(w, err)
		return
	}
	start := time.Now()
	q := query{prog: prog}
	if write {
		q.res, q.err = e.SubmitWrite(ctx, prog)
	} else {
		q.hit, q.res, q.err = e.submit(ctx, prog)
	}
	if q.err != nil {
		e.writeError(w, q.err)
		return
	}
	// The body is decoded (req holds copies), so the answer reuses buf.
	*buf, err = e.appendAnswer((*buf)[:0], &q, time.Since(start))
	if err != nil {
		e.writeError(w, err)
		return
	}
	*buf = append(*buf, '\n')
	writeBody(w, *buf)
}

func (e *Engine) handleQueryBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErrorCode(w, http.StatusMethodNotAllowed, "method_not_allowed", false, errors.New("POST required"))
		return
	}
	buf := bufPool.Get().(*[]byte)
	defer putBuf(buf)
	if !readBody(w, r, maxBatchBody, buf) {
		return
	}
	var req BatchQueryRequest
	if err := decodeBatchRequest(*buf, &req); err != nil {
		writeErrorCode(w, http.StatusBadRequest, "bad_request", false, err)
		return
	}
	if len(req.Programs) == 0 {
		writeErrorCode(w, http.StatusBadRequest, "bad_request", false, errors.New("empty batch"))
		return
	}
	if len(req.Programs) > MaxBatchPrograms {
		writeErrorCode(w, http.StatusBadRequest, "bad_request", false,
			fmt.Errorf("batch of %d exceeds the %d-program bound", len(req.Programs), MaxBatchPrograms))
		return
	}

	ctx, cancel, err := requestContext(r, req.TimeoutMillis)
	if err != nil {
		writeErrorCode(w, http.StatusBadRequest, "bad_request", false, err)
		return
	}
	defer cancel()

	// progs holds the programs that compiled, in request order; a nil
	// compileErrs[i] says element i is answered by the next of them.
	compileErrs := make([]error, len(req.Programs))
	progs := make([]*isa.Program, 0, len(req.Programs))
	for i, src := range req.Programs {
		prog, err := e.compile(e.readAsm, src)
		if err != nil {
			compileErrs[i] = err
			continue
		}
		progs = append(progs, prog)
	}

	start := time.Now()
	qs := e.submitBatch(ctx, progs)
	wall := time.Since(start)

	*buf = e.appendBatchResponse((*buf)[:0], compileErrs, qs, wall)
	writeBody(w, *buf)
}

// maxTimeoutMillis is the largest timeout_ms a time.Duration holds
// (≈ 292 years); a larger count would wrap negative.
const maxTimeoutMillis = math.MaxInt64 / int64(time.Millisecond)

// requestContext is r's context bounded by a request's timeout_ms: 0
// adds no deadline, and a count below 0 or above maxTimeoutMillis is an
// error, answered 400 before anything is compiled.
func requestContext(r *http.Request, ms int) (context.Context, context.CancelFunc, error) {
	if ms < 0 || int64(ms) > maxTimeoutMillis {
		return nil, nil, fmt.Errorf("timeout_ms %d out of range [0, %d]", ms, maxTimeoutMillis)
	}
	if ms == 0 {
		return r.Context(), func() {}, nil
	}
	ctx, cancel := context.WithTimeout(r.Context(), time.Duration(ms)*time.Millisecond)
	return ctx, cancel, nil
}

// readBody reads the request body into *buf, sized up front from
// Content-Length. On failure it has written the error answer — 413
// too_large for a body over limit — and returns false.
func readBody(w http.ResponseWriter, r *http.Request, limit int64, buf *[]byte) bool {
	b := (*buf)[:0]
	if n := r.ContentLength; n <= limit && int64(cap(b)) <= n {
		b = make([]byte, 0, n+1) // +1: the read that reports EOF needs room too
	}
	body := http.MaxBytesReader(w, r.Body, limit)
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := body.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == nil {
			continue
		}
		*buf = b
		if err == io.EOF {
			return true
		}
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeErrorCode(w, http.StatusRequestEntityTooLarge, "too_large", false,
				fmt.Errorf("request body exceeds %d bytes", limit))
		} else {
			writeErrorCode(w, http.StatusBadRequest, "bad_request", false, err)
		}
		return false
	}
}

// StatsResponse is the JSON body answering GET /v1/stats.
type StatsResponse struct {
	Stats   Stats         `json:"stats"`
	Monitor *MonitorStats `json:"monitor,omitempty"`
}

// MonitorStats summarizes the perfmon collection board's state.
type MonitorStats struct {
	Buffered int   `json:"buffered"`
	Dropped  int64 `json:"dropped"`
}

func (e *Engine) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErrorCode(w, http.StatusMethodNotAllowed, "method_not_allowed", false, errors.New("GET required"))
		return
	}
	resp := StatsResponse{Stats: e.Stats()}
	if e.mon != nil {
		resp.Monitor = &MonitorStats{Buffered: e.mon.Len(), Dropped: e.mon.Dropped()}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleHealth answers GET /v1/health with the per-replica quarantine
// report. A fully dark engine (every replica quarantined) answers 503 so
// load balancers fail the instance over without parsing the body.
func (e *Engine) handleHealth(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErrorCode(w, http.StatusMethodNotAllowed, "method_not_allowed", false, errors.New("GET required"))
		return
	}
	rep := e.Health()
	status := http.StatusOK
	if rep.Status == "unavailable" {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, rep)
}

// classify maps an error from the compile/submit path onto its HTTP
// status, stable envelope code, and retryability. Every sentinel the
// engine can surface appears here; anything unrecognized is an opaque
// internal error.
func classify(err error) (status int, code string, retryable bool) {
	switch {
	case errors.Is(err, isa.ErrBadProgram):
		return http.StatusBadRequest, "bad_program", false
	case errors.Is(err, machine.ErrNoKB):
		return http.StatusConflict, "kb_not_loaded", false
	case errors.Is(err, ErrWritesDisabled):
		return http.StatusForbidden, "writes_disabled", false
	case errors.Is(err, ErrWriteConflict):
		return http.StatusConflict, "conflict", false
	case errors.Is(err, ErrWriteFailed):
		return http.StatusInternalServerError, "write_failed", false
	case errors.Is(err, ErrOverloaded):
		return http.StatusServiceUnavailable, "overloaded", true
	case errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable, "shutting_down", false
	case errors.Is(err, fault.ErrInjected):
		return http.StatusServiceUnavailable, "fault_injected", true
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, "timeout", true
	case errors.Is(err, context.Canceled):
		return 499, "canceled", false // client closed request
	default:
		return http.StatusInternalServerError, "internal", false
	}
}

// envelopeCodes is every stable code the typed error envelope can carry
// — the classify sentinels plus the request-shape rejections written via
// writeErrorCode. The envelope tests assert this list against the
// documentation table (docs/RESILIENCE.md), so a new code cannot ship
// undocumented.
var envelopeCodes = []string{
	"bad_program",
	"bad_request",
	"canceled",
	"conflict",
	"fault_injected",
	"internal",
	"kb_not_loaded",
	"method_not_allowed",
	"overloaded",
	"shutting_down",
	"timeout",
	"too_large",
	"write_failed",
	"writes_disabled",
}

// retryAfterSeconds estimates when a shed client should come back: the
// callers waiting for a replica over the engine's lifetime drain rate,
// clamped to [1, 60] seconds. A cold engine (nothing completed yet)
// answers 1.
func (e *Engine) retryAfterSeconds() int {
	done := e.st.completedCount()
	elapsed := time.Since(e.start).Seconds()
	if done == 0 || elapsed <= 0 {
		return 1
	}
	rate := float64(done) / elapsed // queries per second
	_, waiting := e.pool.gauges()
	secs := int(math.Ceil(float64(waiting) / rate))
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return secs
}

// writeBody answers 200 with an encoded body in one Write of known
// length, so net/http neither chunks it nor copies it twice.
func writeBody(w http.ResponseWriter, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body) // a failed write means the client is gone; nobody is left to tell
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError classifies err and writes the typed envelope. Overload
// sheds additionally carry a Retry-After estimated from the callers
// waiting for a replica and the drain rate, so well-behaved clients back
// off just long enough instead of hammering a full line.
func (e *Engine) writeError(w http.ResponseWriter, err error) {
	status, code, retryable := classify(err)
	if code == "overloaded" {
		w.Header().Set("Retry-After", strconv.Itoa(e.retryAfterSeconds()))
	}
	writeErrorCode(w, status, code, retryable, err)
}

// writeErrorCode writes the typed envelope for paths with no engine
// sentinel to classify (malformed requests, wrong methods).
func writeErrorCode(w http.ResponseWriter, status int, code string, retryable bool, err error) {
	writeJSON(w, status, ErrorEnvelope{Error: ErrorBody{Code: code, Message: err.Error(), Retryable: retryable}})
}
