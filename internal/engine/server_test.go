package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"snap1/internal/fault"
	"snap1/internal/isa"
	"snap1/internal/kbgen"
	"snap1/internal/machine"
	"snap1/internal/perfmon"
	"snap1/internal/semnet"
)

func newTestServer(t *testing.T, nodes int) (*kbgen.Generated, *httptest.Server) {
	t.Helper()
	g := fig15KB(t, nodes)
	e, err := New(g.KB,
		WithReplicas(2),
		WithMonitor(perfmon.NewCollector(1024)))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(e))
	t.Cleanup(func() { srv.Close(); e.Close() })
	return g, srv
}

func postQuery(t *testing.T, url, program string) QueryResponse {
	t.Helper()
	body, _ := json.Marshal(QueryRequest{Program: program})
	resp, err := http.Post(url+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e ErrorEnvelope
		_ = json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("query status %d: %s: %s", resp.StatusCode, e.Error.Code, e.Error.Message)
	}
	var out QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestServerQueryAndStats exercises the full HTTP path: concurrent
// queries, then a stats snapshot that must report non-zero batch counts.
func TestServerQueryAndStats(t *testing.T) {
	g, srv := newTestServer(t, 800)
	concepts := queryConcepts(g, 8)

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			out := postQuery(t, srv.URL, inheritanceQuery(g, concepts[w%len(concepts)]))
			if len(out.Collections) != 1 {
				t.Errorf("worker %d: %d collections, want 1", w, len(out.Collections))
				return
			}
			// Every leaf's is-a ancestry must include the hierarchy root.
			found := false
			for _, it := range out.Collections[0].Items {
				if it.Node == "thing" {
					found = true
				}
			}
			if !found {
				t.Errorf("worker %d: root missing from ancestry %v", w, out.Collections[0].Items)
			}
		}(w)
	}
	wg.Wait()

	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Stats.Batches == 0 {
		t.Error("stats report zero batches")
	}
	if st.Stats.Completed != 8 {
		t.Errorf("completed = %d, want 8", st.Stats.Completed)
	}
	if st.Stats.Run.Count == 0 {
		t.Error("run latency histogram empty")
	}
	if st.Monitor == nil {
		t.Error("monitor stats missing")
	}
}

// TestServerRejectsBadProgram maps assembly errors to 400.
func TestServerRejectsBadProgram(t *testing.T) {
	_, srv := newTestServer(t, 400)
	resp, err := http.Post(srv.URL+"/v1/query", "text/plain",
		strings.NewReader("frobnicate node=thing"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad program status = %d, want 400", resp.StatusCode)
	}
}

// TestErrorEnvelopeGolden pins the wire format of the versioned error
// envelope byte-for-byte: key set, key order, and field types must not
// drift, because clients branch on code/retryable rather than message.
func TestErrorEnvelopeGolden(t *testing.T) {
	rec := httptest.NewRecorder()
	writeErrorCode(rec, http.StatusBadRequest, "bad_program", false, errors.New("boom"))
	const want = `{"error":{"code":"bad_program","message":"boom","retryable":false}}` + "\n"
	if got := rec.Body.String(); got != want {
		t.Fatalf("envelope drifted:\n got  %q\n want %q", got, want)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
}

// TestClassifySentinels pins the sentinel→(status, code, retryable)
// mapping the whole error surface rests on.
func TestClassifySentinels(t *testing.T) {
	cases := []struct {
		err       error
		status    int
		code      string
		retryable bool
	}{
		{isa.ErrBadProgram, http.StatusBadRequest, "bad_program", false},
		{machine.ErrNoKB, http.StatusConflict, "kb_not_loaded", false},
		{ErrOverloaded, http.StatusServiceUnavailable, "overloaded", true},
		{ErrClosed, http.StatusServiceUnavailable, "shutting_down", false},
		{fault.ErrInjected, http.StatusServiceUnavailable, "fault_injected", true},
		{context.DeadlineExceeded, http.StatusGatewayTimeout, "timeout", true},
		{context.Canceled, 499, "canceled", false},
		{errors.New("mystery"), http.StatusInternalServerError, "internal", false},
		// Wrapped sentinels must classify like the sentinel itself.
		{fmt.Errorf("replica 2: %w", fault.ErrInjected), http.StatusServiceUnavailable, "fault_injected", true},
	}
	for _, c := range cases {
		status, code, retryable := classify(c.err)
		if status != c.status || code != c.code || retryable != c.retryable {
			t.Errorf("classify(%v) = (%d, %q, %v), want (%d, %q, %v)",
				c.err, status, code, retryable, c.status, c.code, c.retryable)
		}
	}
}

// TestRetryAfterComputed checks the overload Retry-After is derived from
// the callers waiting for a replica and the drain rate, not hardcoded.
func TestRetryAfterComputed(t *testing.T) {
	engineWithQueued := func(start time.Time, depth int) *Engine {
		p := newPool(0, depth)
		p.line = make([]chan int, depth)
		return &Engine{start: start, pool: p}
	}
	// 10 completed over ~10s ≈ 1 q/s; 30 queued => ~30s to drain
	// (ceil of the true elapsed time may round one second up).
	e := engineWithQueued(time.Now().Add(-10*time.Second), 30)
	e.st.Completed = 10
	if got := e.retryAfterSeconds(); got < 30 || got > 31 {
		t.Errorf("retryAfterSeconds = %d, want ~30", got)
	}
	// Clamped to 60 with a backlog that would take longer.
	e = engineWithQueued(e.start, 500)
	e.st.Completed = 10
	if got := e.retryAfterSeconds(); got != 60 {
		t.Errorf("clamp high: %d, want 60", got)
	}
	// Cold engine: nothing completed yet, fall back to 1.
	cold := engineWithQueued(time.Now(), 5)
	if got := cold.retryAfterSeconds(); got != 1 {
		t.Errorf("cold engine: %d, want 1", got)
	}
	// Overload responses must carry the header.
	rec := httptest.NewRecorder()
	e.writeError(rec, ErrOverloaded)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("overload status = %d", rec.Code)
	}
	if ra := rec.Header().Get("Retry-After"); ra != "60" {
		t.Errorf("Retry-After = %q, want \"60\"", ra)
	}
}

// TestServerHealthEndpoint exercises GET /v1/health on a healthy engine.
func TestServerHealthEndpoint(t *testing.T) {
	_, srv := newTestServer(t, 400)
	resp, err := http.Get(srv.URL + "/v1/health")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("health status = %d, want 200", resp.StatusCode)
	}
	var rep HealthReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.Status != "ok" {
		t.Errorf("status = %q, want ok", rep.Status)
	}
	if len(rep.Replicas) != 2 {
		t.Fatalf("replicas = %d, want 2", len(rep.Replicas))
	}
	for _, r := range rep.Replicas {
		if r.State != "healthy" {
			t.Errorf("replica %d state = %q", r.Rank, r.State)
		}
	}
}

// TestServerPlainTextBody accepts raw assembly without JSON framing.
func TestServerPlainTextBody(t *testing.T) {
	g, srv := newTestServer(t, 400)
	concept := queryConcepts(g, 1)[0]
	resp, err := http.Post(srv.URL+"/v1/query", "text/plain",
		strings.NewReader(inheritanceQuery(g, concept)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plain-text query status = %d, want 200", resp.StatusCode)
	}
	var out QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.ProgramHash) != 16 {
		t.Errorf("program hash %q malformed", out.ProgramHash)
	}
	if out.Instructions != 3 {
		t.Errorf("instructions = %d, want 3", out.Instructions)
	}
}

// TestServerQueryBatch exercises POST /v1/query/batch: per-element
// envelopes, order preservation, typed per-element errors, and members
// memoized like solo queries — /v1/stats shows the solo repeats as hits.
func TestServerQueryBatch(t *testing.T) {
	g, srv := newTestServer(t, 800)
	concepts := queryConcepts(g, 4)

	req := BatchQueryRequest{Programs: []string{
		inheritanceQuery(g, concepts[0]),
		"this is not snap assembly",
		inheritanceQuery(g, concepts[1]),
		inheritanceQuery(g, concepts[2]),
		inheritanceQuery(g, concepts[3]),
	}}
	body, _ := json.Marshal(req)
	resp, err := http.Post(srv.URL+"/v1/query/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	var out BatchQueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != len(req.Programs) {
		t.Fatalf("%d elements, want %d", len(out.Results), len(req.Programs))
	}
	for i, el := range out.Results {
		if i == 1 {
			if el.Error == nil || el.Error.Code == "" {
				t.Errorf("element 1: want typed error envelope, got %+v", el)
			}
			if el.Result != nil {
				t.Error("element 1: both result and error set")
			}
			continue
		}
		if el.Error != nil {
			t.Errorf("element %d: %s: %s", i, el.Error.Code, el.Error.Message)
			continue
		}
		if el.Result == nil || len(el.Result.Collections) != 1 {
			t.Errorf("element %d: missing collections", i)
		}
		solo := postQuery(t, srv.URL, req.Programs[i])
		if fmt.Sprint(el.Result.Collections) != fmt.Sprint(solo.Collections) {
			t.Errorf("element %d: batch collections diverge from solo query", i)
		}
	}

	sresp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Stats.Completed != 4 || st.Stats.ResultHits != 4 {
		t.Errorf("completed %d, result hits %d; want the 4 members run once and their solo repeats hit",
			st.Stats.Completed, st.Stats.ResultHits)
	}
}

// TestServerQueryBatchRejectsMalformed pins the whole-batch error
// envelopes: wrong method, bad JSON, empty and oversized batches.
func TestServerQueryBatchRejectsMalformed(t *testing.T) {
	_, srv := newTestServer(t, 400)
	post := func(body string) (int, ErrorEnvelope) {
		resp, err := http.Post(srv.URL+"/v1/query/batch", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e ErrorEnvelope
		_ = json.NewDecoder(resp.Body).Decode(&e)
		return resp.StatusCode, e
	}
	if code, env := post("{not json"); code != http.StatusBadRequest || env.Error.Code != "bad_request" {
		t.Errorf("bad JSON: %d/%s", code, env.Error.Code)
	}
	if code, _ := post(`{"programs":[]}`); code != http.StatusBadRequest {
		t.Errorf("empty batch: %d", code)
	}
	big, _ := json.Marshal(BatchQueryRequest{Programs: make([]string, MaxBatchPrograms+1)})
	if code, _ := post(string(big)); code != http.StatusBadRequest {
		t.Errorf("oversized batch: %d", code)
	}
	resp, err := http.Get(srv.URL + "/v1/query/batch")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET: %d", resp.StatusCode)
	}
}

// TestServerMutateEndpoint exercises POST /v1/mutate end to end: a
// writes-enabled server commits a CREATE, reports the published
// generation, and every later query observes the link; a read-only
// server refuses with 403 writes_disabled.
func TestServerMutateEndpoint(t *testing.T) {
	kb, _ := writeTestKB(t)
	e, err := New(kb, WithReplicas(2), WithWrites(true))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(e))
	defer func() { srv.Close(); e.Close() }()

	const readProg = "search-node node=a marker=c1 value=0\n" +
		"propagate m1=c1 m2=c2 rule=path(is-a) fn=add\n" +
		"collect-node marker=c2\n"
	before := postQuery(t, srv.URL, readProg)
	if n := len(before.Collections[0].Items); n != 2 {
		t.Fatalf("pre-mutate ancestry has %d nodes, want 2", n)
	}

	resp, err := http.Post(srv.URL+"/v1/mutate", "text/plain",
		strings.NewReader("create src=c rel=is-a w=1 dst=d\n"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var env ErrorEnvelope
		_ = json.NewDecoder(resp.Body).Decode(&env)
		t.Fatalf("mutate status %d: %s: %s", resp.StatusCode, env.Error.Code, env.Error.Message)
	}
	var mut QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&mut); err != nil {
		t.Fatal(err)
	}
	if mut.KBGeneration == 0 {
		t.Error("mutate response carries no published generation")
	}

	after := postQuery(t, srv.URL, readProg)
	found := false
	for _, it := range after.Collections[0].Items {
		if it.Node == "d" {
			found = true
		}
	}
	if !found {
		t.Errorf("post-mutate query misses the committed link: %+v", after.Collections[0].Items)
	}
	if after.KBGeneration < mut.KBGeneration {
		t.Errorf("read observed generation %d, want >= %d (read-your-writes)",
			after.KBGeneration, mut.KBGeneration)
	}

	var st StatsResponse
	sresp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Stats.Writes != 1 || st.Stats.WriteCommits == 0 {
		t.Errorf("stats writes=%d commits=%d, want 1 and >0", st.Stats.Writes, st.Stats.WriteCommits)
	}

	// GET is not a mutate verb.
	if gresp, err := http.Get(srv.URL + "/v1/mutate"); err != nil {
		t.Fatal(err)
	} else {
		gresp.Body.Close()
		if gresp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET /v1/mutate: %d, want 405", gresp.StatusCode)
		}
	}

	// A read-only engine answers 403 with the typed code.
	kb2, _ := writeTestKB(t)
	ro, err := New(kb2, WithReplicas(1))
	if err != nil {
		t.Fatal(err)
	}
	rosrv := httptest.NewServer(NewServer(ro))
	defer func() { rosrv.Close(); ro.Close() }()
	roresp, err := http.Post(rosrv.URL+"/v1/mutate", "text/plain",
		strings.NewReader("create src=c rel=is-a w=1 dst=d\n"))
	if err != nil {
		t.Fatal(err)
	}
	defer roresp.Body.Close()
	var env ErrorEnvelope
	if err := json.NewDecoder(roresp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if roresp.StatusCode != http.StatusForbidden || env.Error.Code != "writes_disabled" {
		t.Errorf("read-only mutate: %d/%s, want 403/writes_disabled", roresp.StatusCode, env.Error.Code)
	}
}

// TestTimeoutMillisOutOfRange: a timeout_ms below 0, or one whose
// time.Duration would wrap negative (10^13 ms is past ≈ 292 years), is a
// 400 bad_request on every POST door, answered before anything is
// admitted or written; 0 (no deadline) and an ordinary bound serve.
func TestTimeoutMillisOutOfRange(t *testing.T) {
	kb, _ := writeTestKB(t)
	e, err := New(kb, WithReplicas(1), WithWrites(true))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(e))
	defer func() { srv.Close(); e.Close() }()

	const read = `search-node node=a marker=c1 value=0\ncollect-node marker=c1\n` // JSON-escaped
	writes := map[string]string{
		"0":    `create src=c rel=is-a w=1 dst=d\n`,
		"5000": `create src=a rel=is-a w=1 dst=d\n`,
	}
	post := func(path, body string) (int, ErrorEnvelope) {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var env ErrorEnvelope
		if resp.StatusCode != http.StatusOK {
			_ = json.NewDecoder(resp.Body).Decode(&env)
		}
		return resp.StatusCode, env
	}
	for _, ms := range []string{"-1", "10000000000000", "0", "5000"} {
		write := writes[ms]
		if write == "" {
			write = `create src=d rel=is-a w=1 dst=a\n`
		}
		for _, c := range []struct{ path, body string }{
			{"/v1/query", `{"program":"` + read + `","timeout_ms":` + ms + `}`},
			{"/v1/query/batch", `{"programs":["` + read + `","` + read + `"],"timeout_ms":` + ms + `}`},
			{"/v1/mutate", `{"program":"` + write + `","timeout_ms":` + ms + `}`},
		} {
			before := e.Stats()
			status, env := post(c.path, c.body)
			after := e.Stats()
			if _, ok := writes[ms]; ok {
				if status != http.StatusOK {
					t.Errorf("%s timeout_ms %s: %d %s: %s, want 200", c.path, ms, status, env.Error.Code, env.Error.Message)
				}
				continue
			}
			if status != http.StatusBadRequest || env.Error.Code != "bad_request" || !strings.Contains(env.Error.Message, "timeout_ms") {
				t.Errorf("%s timeout_ms %s: %d %s: %s, want 400 bad_request on timeout_ms", c.path, ms, status, env.Error.Code, env.Error.Message)
			}
			if after.Submitted != before.Submitted || after.Writes+after.WriteFailures != before.Writes+before.WriteFailures ||
				after.KBGeneration != before.KBGeneration {
				t.Errorf("%s timeout_ms %s: submitted %d -> %d, writes run %d -> %d, generation %d -> %d; want each unchanged",
					c.path, ms, before.Submitted, after.Submitted,
					before.Writes+before.WriteFailures, after.Writes+after.WriteFailures, before.KBGeneration, after.KBGeneration)
			}
		}
	}
}

// TestEnvelopeCodesDocumented asserts every stable envelope code —
// classify sentinels and request-shape rejections alike — has a row in
// docs/RESILIENCE.md, so a new code cannot ship undocumented.
func TestEnvelopeCodesDocumented(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "docs", "RESILIENCE.md"))
	if err != nil {
		t.Fatalf("envelope documentation missing: %v", err)
	}
	for _, code := range envelopeCodes {
		if !bytes.Contains(doc, []byte("`"+code+"`")) {
			t.Errorf("envelope code %q undocumented in docs/RESILIENCE.md", code)
		}
	}
	// The classify mapping must not surface codes missing from the list.
	for _, err := range []error{
		isa.ErrBadProgram, machine.ErrNoKB, ErrOverloaded, ErrClosed,
		fault.ErrInjected, context.DeadlineExceeded, context.Canceled,
		ErrWritesDisabled, ErrWriteConflict, ErrWriteFailed,
		errors.New("mystery"),
	} {
		_, code, _ := classify(err)
		found := false
		for _, c := range envelopeCodes {
			if c == code {
				found = true
			}
		}
		if !found {
			t.Errorf("classify surfaces %q, absent from envelopeCodes", code)
		}
	}
}

// TestHostileNamesAnswerTyped: a client inventing names on /v1/query —
// in operands that only read the network, and in the writing operands of
// create and set-color, which that door refuses anyway — gets a typed 400
// naming the unknown name, every time, and the KB's name tables do not
// grow. Before, each invented name was interned under the KB write lock,
// the 255-color space ran out after ~250 requests, and from there every
// request panicked the handler (the connection dropped with no envelope)
// for every client.
func TestHostileNamesAnswerTyped(t *testing.T) {
	g, srv := newTestServer(t, 200)
	rels, colors := nameTableSizes(g.KB)
	shapes := []string{
		"search-color color=%s marker=c1 value=0",
		"search-relation rel=%s marker=c1 value=0",
		"set-marker marker=c1 value=0\ncollect-relation marker=c1 rel=%s",
		"set-marker marker=c1 value=0\npropagate m1=c1 m2=c2 rule=path(%s) fn=add",
		"set-marker marker=c1 value=0\npropagate m1=c1 m2=c2 rule=spread(is-a,%s) fn=add",
		"delete src=thing rel=%s dst=thing",
		"create src=thing rel=%s w=1 dst=thing",
		"set-color node=thing color=%s",
	}
	post := func(i int, path, body string, status int, code string) ErrorBody {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "text/plain", strings.NewReader(body))
		if err != nil {
			t.Fatalf("request %d: no answer: %v", i, err)
		}
		var env ErrorEnvelope
		err = json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if err != nil || resp.StatusCode != status || env.Error.Code != code || env.Error.Retryable {
			t.Fatalf("request %d: %s: status %d, envelope %+v (%v); want %d %s", i, path, resp.StatusCode, env.Error, err, status, code)
		}
		return env.Error
	}
	requests := 300 * len(shapes) // 300 of each: more than the colour space holds
	for i := 0; i < requests; i++ {
		name := fmt.Sprintf("junk%d", i)
		body := fmt.Sprintf(shapes[i%len(shapes)], name)
		if msg := post(i, "/v1/query", body, http.StatusBadRequest, "bad_program").Message; !strings.Contains(msg, name) {
			t.Fatalf("request %d: message %q does not name %q", i, msg, name)
		}
		// This engine has no write path: the write door refuses the two
		// writing shapes before it would assemble them.
		if strings.HasPrefix(body, "create") || strings.HasPrefix(body, "set-color") {
			post(i, "/v1/mutate", body, http.StatusForbidden, "writes_disabled")
		}
	}
	for i := 0; i < requests; i++ {
		name := fmt.Sprintf("junk%d", i)
		if _, ok := g.KB.LookupColor(name); ok {
			t.Fatalf("color %q was interned by a read", name)
		}
		if _, ok := g.KB.LookupRelation(name); ok {
			t.Fatalf("relation %q was interned by a read", name)
		}
	}
	if r2, c2 := nameTableSizes(g.KB); r2 != rels || c2 != colors {
		t.Fatalf("name tables grew: relations %d -> %d, colours %d -> %d", rels, r2, colors, c2)
	}
	// The spaces are as roomy as before, and the engine still answers.
	if _, err := g.KB.InternColor("a-new-color"); err != nil {
		t.Fatal(err)
	}
	concept := queryConcepts(g, 1)[0]
	if out := postQuery(t, srv.URL, inheritanceQuery(g, concept)); len(out.Collections) != 1 {
		t.Fatalf("engine unhealthy after the hostile sweep: %+v", out)
	}
}

// nameTableSizes counts the KB's relation and colour names: ids are
// handed out in order, and RelationName/ColorName answer a numeric
// placeholder for one not handed out yet.
func nameTableSizes(kb *semnet.KB) (rels, colors int) {
	for kb.RelationName(semnet.RelType(rels)) != fmt.Sprintf("rel#%d", rels) {
		rels++
	}
	for kb.ColorName(semnet.Color(colors)) != fmt.Sprintf("color#%d", colors) {
		colors++
	}
	return rels, colors
}

// FuzzHTTPBody: whatever bytes arrive on a POST endpoint, the handler
// answers 200 with a decodable body or the typed error envelope with a
// documented code — it never panics (the handler runs on the fuzz
// goroutine) and never writes an untyped 5xx. Names enter the KB only on
// a door that can commit: whatever /v1/query and /v1/query/batch answer,
// and whenever /v1/mutate answers 403 (the engines of endpoints 3..5 have
// no write path), the KB's name tables are what they were.
func FuzzHTTPBody(f *testing.F) {
	const read = "search-node node=a marker=c1 value=0\npropagate m1=c1 m2=c2 rule=path(is-a) fn=add\ncollect-node marker=c2\n"
	quoted, _ := json.Marshal(read)
	for endpoint := uint8(0); endpoint < 6; endpoint++ {
		f.Add(endpoint, false, []byte(read))
		f.Add(endpoint, true, []byte(`{"program":`+string(quoted)+`,"timeout_ms":50}`))
		f.Add(endpoint, true, []byte(`{"programs":[`+string(quoted)+`,"search-color color=nope marker=c1 value=0",""]}`))
		f.Add(endpoint, false, []byte("create src=c rel=is-a w=1 dst=d\n"))
		f.Add(endpoint, false, []byte("create src=c rel=brand-new w=1 dst=d\nset-color node=a color=another\n"))
		f.Add(endpoint, false, []byte("search-relation rel=nope marker=c1 value=NaN\ncollect-node marker=c1 value=3"))
		f.Add(endpoint, true, []byte(`{"program":7,"programs":{"a":[]},"timeout_ms":"soon"}`))
		f.Add(endpoint, true, []byte(`{"program":"set-marker marker=c1 value=1e39","timeout_ms":-9223372036854775808}`))
		f.Add(endpoint, true, []byte(`{"programs":[`+strings.Repeat(`"x",`, MaxBatchPrograms)+`"x"]}`))
		f.Add(endpoint, true, []byte("[[[[[[[[\x00\xff"))
		f.Add(endpoint, false, []byte{})
	}
	typed := func(t *testing.T, what string, b ErrorBody) {
		t.Helper()
		if !slices.Contains(envelopeCodes, b.Code) || b.Message == "" {
			t.Errorf("%s: error body %+v is not a documented envelope", what, b)
		}
	}
	f.Fuzz(func(t *testing.T, endpoint uint8, asJSON bool, body []byte) {
		kb, _ := writeTestKB(t)
		e, err := New(kb, WithReplicas(1), WithWrites(endpoint/3%2 == 0))
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		rels, colors := nameTableSizes(kb)

		path := []string{"/v1/query", "/v1/query/batch", "/v1/mutate"}[endpoint%3]
		r := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		r.Header.Set("Content-Type", "text/plain")
		if asJSON {
			r.Header.Set("Content-Type", "application/json")
		}
		w := httptest.NewRecorder()
		NewServer(e).ServeHTTP(w, r)

		if r2, c2 := nameTableSizes(kb); (path != "/v1/mutate" || w.Code == http.StatusForbidden) && (r2 != rels || c2 != colors) {
			t.Errorf("%s: status %d grew the name tables: relations %d -> %d, colours %d -> %d", path, w.Code, rels, r2, colors, c2)
		}
		if w.Code != http.StatusOK {
			var env ErrorEnvelope
			if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil {
				t.Fatalf("%s: status %d with an untyped body %q: %v", path, w.Code, w.Body, err)
			}
			typed(t, fmt.Sprintf("%s: status %d", path, w.Code), env.Error)
			return
		}
		if path != "/v1/query/batch" {
			var out QueryResponse
			if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil || out.ProgramHash == "" {
				t.Fatalf("%s: 200 with an undecodable answer %q: %v", path, w.Body, err)
			}
			return
		}
		var out BatchQueryResponse
		if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil || len(out.Results) == 0 {
			t.Fatalf("batch: 200 with an undecodable answer %q: %v", w.Body, err)
		}
		for i, el := range out.Results {
			if (el.Result == nil) == (el.Error == nil) {
				t.Errorf("batch element %d carries both or neither of result and error", i)
			} else if el.Error != nil {
				typed(t, fmt.Sprintf("batch element %d", i), *el.Error)
			}
		}
	})
}
