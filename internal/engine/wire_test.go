package engine

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"snap1/internal/isa"
	"snap1/internal/machine"
	"snap1/internal/rules"
	"snap1/internal/semnet"
	"snap1/internal/timing"
)

// queryResponse is the struct-building response path the wire encoder
// replaced: names resolved row by row into the exported schema structs,
// which encoding/json then walks. It is the oracle the encoder's bytes
// are held to.
func (e *Engine) queryResponse(prog *isa.Program, res *machine.Result, wall time.Duration) QueryResponse {
	kb := e.kb
	out := QueryResponse{
		VirtualTime:  res.Time.String(),
		VirtualPicos: int64(res.Time),
		WallMicros:   wall.Microseconds(),
		ProgramHash:  fmt.Sprintf("%016x", prog.Hash()),
		Instructions: prog.Len(),
		KBGeneration: res.KBGen,
	}
	for _, coll := range res.Collections {
		qc := QueryCollection{Instr: coll.Instr, Op: coll.Op.String()}
		for _, it := range coll.Items {
			qi := QueryItem{Node: kb.Name(kb.Canonical(it.Node))}
			switch coll.Op {
			case isa.OpCollectRelation:
				qi.Rel = kb.RelationName(it.Rel)
				qi.Weight = it.Weight
				qi.To = kb.Name(kb.Canonical(it.To))
			case isa.OpCollectColor:
				qi.Color = kb.ColorName(it.Color)
			default:
				qi.Value = it.Value
				qi.Origin = kb.Name(kb.Canonical(it.Origin))
			}
			qc.Items = append(qc.Items, qi)
		}
		out.Collections = append(out.Collections, qc)
	}
	return out
}

// errorBody classifies err into the typed per-element envelope body.
func errorBody(err error) *ErrorBody {
	_, code, retryable := classify(err)
	return &ErrorBody{Code: code, Message: err.Error(), Retryable: retryable}
}

// encodingJSON is what the handlers wrote before the wire encoder.
func encodingJSON(t testing.TB, v any) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// wireNames are node names that exercise every escaping rule: quotes,
// backslashes, the HTML-unsafe three, named and unnamed control bytes,
// DEL (not escaped), invalid UTF-8 mid-string and truncated at the end,
// the two JSONP separators, plain multi-byte runes, and the empty name
// (which makes the omitempty origin/to fields vanish).
var wireNames = []string{
	"plain", `quo"te`, `back\slash`, "<tag>&amp;", "ctl\x01\n\t\b\f\r\x1f\x7f",
	"bad\xffutf\xc3", "line\u2028sep\u2029end", "µ-é-世界", "",
}

// wireWeights cover the float32 rule: omitted zero, whole numbers on
// the integer fast path and just past it, fractions, negatives, and
// both ends of the exponent form.
var wireWeights = []float32{
	0, 1, -3, 0.5, -2.5, 0.1, 16777215, 16777216, 3e9, 1e-6, 9.5e-7, 1e-7, 1e21, 3.4e38, 1.1754944e-38, 123456.79,
}

// wireTestKB builds a network over wireNames: "plain" links to every
// other name (one weight each, relations alternating between a tame and
// a hostile name), and "hub" fans out past the slot budget so Preprocess
// splits it and results carry subnode ids that must resolve to "hub".
func wireTestKB(t testing.TB) (*semnet.KB, map[string]semnet.NodeID) {
	t.Helper()
	kb := semnet.NewKB()
	colors := []semnet.Color{kb.ColorFor("class"), kb.ColorFor(`col<&>"or`)}
	rels := []semnet.RelType{kb.Relation("is-a"), kb.Relation(`rel"<x>`)}
	ids := map[string]semnet.NodeID{}
	for i, n := range wireNames {
		ids[n] = kb.MustAddNode(n, colors[i%2])
	}
	w := 0
	for _, rel := range rels {
		for _, n := range wireNames[1:] {
			kb.MustAddLink(ids["plain"], rel, wireWeights[w%len(wireWeights)], ids[n])
			w++
		}
	}
	ids["hub"] = kb.MustAddNode("hub", colors[0])
	for i := 0; i < semnet.RelationSlots+4; i++ {
		leaf := kb.MustAddNode(fmt.Sprintf("leaf%d", i), colors[1])
		kb.MustAddLink(ids["hub"], rels[0], float32(i)+0.25, leaf)
		kb.MustAddLink(leaf, rels[0], 1, ids["plain"])
	}
	return kb, ids
}

type wireCase struct {
	name string
	prog *isa.Program
	res  *machine.Result
}

// wireCorpus runs real programs through a writes-enabled engine over
// wireTestKB — all three collect ops, no collect at all, a collect on an
// unset marker, a scratch-plane prologue, a batch, a commit —
// and adds hand-built results for what no run produces on demand.
func wireCorpus(t *testing.T) (*Engine, []wireCase) {
	t.Helper()
	kb, ids := wireTestKB(t)
	e, err := New(kb, WithReplicas(1), WithWrites(true))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	isA, hostile := kb.Relation("is-a"), kb.Relation(`rel"<x>`)
	ctx := context.Background()

	var cases []wireCase
	submit := func(name string, p *isa.Program) *machine.Result {
		t.Helper()
		res, err := e.Submit(ctx, p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cases = append(cases, wireCase{name, p, res})
		return res
	}

	descend := func(from string, v float32) *isa.Program {
		return isa.NewProgram().SearchNode(ids[from], 1, v).
			Propagate(1, 2, rules.Path(isA), semnet.FuncAdd).Barrier()
	}
	submit("collect-node", descend("plain", 0).CollectNode(2))
	submit("collect-node through subnodes", descend("hub", 0.5).CollectNode(2))
	submit("collect-relation", isa.NewProgram().SearchNode(ids["plain"], 1, 1).CollectRelation(1, isA))
	submit("collect-relation, hostile relation name", isa.NewProgram().SearchNode(ids["plain"], 1, 1).CollectRelation(1, hostile))
	submit("collect-color", descend("hub", 0).CollectColor(2))
	if res := submit("no collect", descend("plain", 0)); len(res.Collections) != 0 {
		t.Fatalf("no collect: %d collections", len(res.Collections))
	}
	if res := submit("empty items", isa.NewProgram().SearchNode(ids["plain"], 1, 0).CollectNode(5)); len(res.Collections) != 1 || len(res.Collections[0].Items) != 0 {
		t.Fatalf("empty items: %+v", res.Collections)
	}
	submit("three collections", descend("plain", 2).CollectNode(2).CollectColor(2).CollectRelation(1, hostile))

	prologue := isa.NewProgram().Set(3, 0).Func(3, semnet.FuncAdd, 1).SearchNode(ids["hub"], 1, 0).
		Propagate(1, 2, rules.Path(isA), semnet.FuncAdd).Barrier().CollectNode(2)
	submit("scratch-plane prologue", prologue)

	batch := make([]*isa.Program, 4)
	for i := range batch {
		batch[i] = descend("hub", float32(i+1)).CollectNode(2)
	}
	results, errs := e.SubmitBatch(ctx, batch)
	for i, res := range results {
		if errs[i] != nil {
			t.Fatalf("batch member %d: %v", i, errs[i])
		}
		cases = append(cases, wireCase{fmt.Sprintf("batch member %d", i), batch[i], res})
	}

	write := isa.NewProgram().Create(ids["quo\"te"], isA, 1.5, ids["plain"])
	wres, err := e.SubmitWrite(ctx, write)
	if err != nil {
		t.Fatal(err)
	}
	if wres.KBGen == 0 {
		t.Fatal("the commit reports no generation")
	}
	cases = append(cases, wireCase{"mutate answer", write, wres})

	// Ids past the tables resolve to placeholders ("node#7000000"); an
	// unknown opcode falls to the default (value, origin) row shape.
	far := semnet.NodeID(7_000_000)
	cases = append(cases, wireCase{"hand-built", prologue, &machine.Result{
		Time: 987_654_321_000, KBGen: math.MaxUint64,
		Collections: []machine.Collection{
			{Instr: 3, Op: isa.OpCollectNode, Items: []machine.Item{
				{Node: far, Value: float32(math.Copysign(0, -1)), Origin: ids[""]},
				{Node: ids[""], Value: 1e-7, Origin: far},
			}},
			{Instr: 1 << 40, Op: isa.OpCollectRelation, Items: []machine.Item{
				{Node: ids["plain"], Rel: semnet.RelCont, Weight: -1e21, To: ids[""]},
				{Node: ids["plain"], Rel: 60000, Weight: 0, To: far},
			}},
			{Instr: 0, Op: isa.OpCollectColor, Items: []machine.Item{
				{Node: ids["plain"], Color: semnet.ColorSubnode}, {Node: ids["plain"], Color: 200},
			}},
			{Instr: -1, Op: isa.Opcode(250), Items: []machine.Item{{Node: ids["plain"], Value: 2, Origin: ids["plain"]}}},
			{Instr: 9, Op: isa.OpCollectNode, Items: []machine.Item{}},
		},
	}})
	for _, ps := range []int64{0, 999, 80_000, 250_850_000, 3_000_000_000, 2_500_000_000_000, -80_000} {
		cases = append(cases, wireCase{fmt.Sprintf("virtual time %d ps", ps), write, &machine.Result{Time: timing.Time(ps)}})
	}
	return e, cases
}

// TestWireMatchesEncodingJSON pins the encoder to encoding/json byte for
// byte: every corpus answer alone, then all of them as one batch answer
// with error elements at the front, in the middle and at the end.
func TestWireMatchesEncodingJSON(t *testing.T) {
	e, cases := wireCorpus(t)
	const wall = 1234567 * time.Nanosecond

	for _, c := range cases {
		got, err := e.appendQueryResponse(nil, c.prog, c.res, wall)
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		got = append(got, '\n')
		if want := encodingJSON(t, e.queryResponse(c.prog, c.res, wall)); !bytes.Equal(got, want) {
			t.Errorf("%s:\n wire %s\n json %s", c.name, got, want)
		}
	}

	// A batch: compile errors (no program) and submit errors (a program,
	// no result) interleaved with every corpus answer.
	compileErr := fmt.Errorf("%w: line 1: unknown opcode %q", isa.ErrBadProgram, "<frob>&\xff")
	var (
		want        BatchQueryResponse
		compileErrs []error
		qs          []query
	)
	failCompile := func() {
		compileErrs = append(compileErrs, compileErr)
		want.Results = append(want.Results, BatchElement{Error: errorBody(compileErr)})
	}
	failSubmit := func(err error) {
		compileErrs = append(compileErrs, nil)
		qs = append(qs, query{prog: cases[0].prog, err: err})
		want.Results = append(want.Results, BatchElement{Error: errorBody(err)})
	}
	failCompile()
	for i, c := range cases {
		if i == len(cases)/2 {
			failSubmit(ErrOverloaded)
			failCompile()
			failSubmit(fmt.Errorf("replica 0: %w", context.DeadlineExceeded))
		}
		compileErrs = append(compileErrs, nil)
		qs = append(qs, query{prog: c.prog, res: c.res})
		resp := e.queryResponse(c.prog, c.res, wall)
		want.Results = append(want.Results, BatchElement{Result: &resp})
	}
	failSubmit(ErrClosed)
	got := e.appendBatchResponse(nil, compileErrs, qs, wall)
	if wantBytes := encodingJSON(t, want); !bytes.Equal(got, wantBytes) {
		t.Errorf("batch:\n wire %s\n json %s", got, wantBytes)
	}

	// One element only, of either kind: no stray separators.
	got = e.appendBatchResponse(nil, []error{compileErr}, nil, wall)
	if w := encodingJSON(t, BatchQueryResponse{Results: []BatchElement{{Error: errorBody(compileErr)}}}); !bytes.Equal(got, w) {
		t.Errorf("single error element:\n wire %s\n json %s", got, w)
	}
}

// TestWireNonFinite: JSON has no NaN or infinity and encoding/json
// refuses them (the old path answered 200 with an empty body). The
// encoder reports them; a batch answers that member with a typed error
// and keeps its neighbours.
func TestWireNonFinite(t *testing.T) {
	e, cases := wireCorpus(t)
	good := cases[0]
	for _, v := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
		bad := &machine.Result{Collections: []machine.Collection{
			{Op: isa.OpCollectNode, Items: []machine.Item{{Value: 1}, {Value: v}}}}}
		if _, err := json.Marshal(e.queryResponse(good.prog, bad, 0)); err == nil {
			t.Fatalf("encoding/json accepts %v", v)
		}
		if _, err := e.appendQueryResponse(nil, good.prog, bad, 0); !errors.Is(err, errNonFinite) {
			t.Errorf("%v: err = %v, want errNonFinite", v, err)
		}
		bad.Collections[0] = machine.Collection{Op: isa.OpCollectRelation, Items: []machine.Item{{Weight: v}}}
		if _, err := e.appendQueryResponse(nil, good.prog, bad, 0); !errors.Is(err, errNonFinite) {
			t.Errorf("weight %v: err = %v, want errNonFinite", v, err)
		}

		got := e.appendBatchResponse(nil, make([]error, 3),
			[]query{{prog: good.prog, res: good.res}, {prog: good.prog, res: bad}, {prog: good.prog, res: good.res}}, 0)
		resp := e.queryResponse(good.prog, good.res, 0)
		want := encodingJSON(t, BatchQueryResponse{Results: []BatchElement{
			{Result: &resp}, {Error: errorBody(errNonFinite)}, {Result: &resp}}})
		if !bytes.Equal(got, want) {
			t.Errorf("%v inside a batch:\n wire %s\n json %s", v, got, want)
		}
	}
	if status, code, _ := classify(errNonFinite); status != http.StatusInternalServerError || code != "internal" {
		t.Errorf("errNonFinite classifies as %d/%s, want 500/internal", status, code)
	}
}

func FuzzWireString(f *testing.F) {
	for _, s := range wireNames {
		f.Add(s)
	}
	f.Add("\u2027\u2028\u2029\u202a\ufffd\xe2\x80") // neighbours of the separators, a real U+FFFD, a cut-off rune
	f.Add("\x00\x7f\x80\xbf\xc0\xf8\U0010ffff\xf4\x90\x80\x80\xed\xa0\x80")
	f.Fuzz(func(t *testing.T, s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendString(nil, s); !bytes.Equal(got, want) {
			t.Errorf("%q: wire %s, json %s", s, got, want)
		}
	})
}

func FuzzWireFloat32(f *testing.F) {
	for _, w := range wireWeights {
		f.Add(math.Float32bits(w))
		f.Add(math.Float32bits(-w))
	}
	for _, v := range []float32{
		1e-5, 9.999999e-7, 9.9999994e20, 1e20, 1e22, 16777217, 2147483648, -2147483648, 4294967296,
		math.SmallestNonzeroFloat32, math.MaxFloat32, float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
	} {
		f.Add(math.Float32bits(v))
	}
	f.Fuzz(func(t *testing.T, bits uint32) {
		v := math.Float32frombits(bits)
		got, ok := appendFloat32([]byte("x"), v)
		want, err := json.Marshal(v)
		if err != nil {
			if ok || string(got) != "x" {
				t.Errorf("%v: encoding/json refuses it (%v), wire wrote %q ok=%v", v, err, got, ok)
			}
			return
		}
		if !ok || string(got) != "x"+string(want) {
			t.Errorf("%v (%#08x): wire %q ok=%v, json %s", v, bits, got[1:], ok, want)
		}
	})
}

// TestSourceHashIsFNV1a: the compile cache's inlined hash must keep the
// keys hash/fnv produced.
func TestSourceHashIsFNV1a(t *testing.T) {
	for _, s := range append([]string{sampleSource}, wireNames...) {
		h := fnv.New64a()
		h.Write([]byte(s))
		if got, want := sourceHash(s), h.Sum64(); got != want {
			t.Errorf("sourceHash(%q) = %#x, hash/fnv gives %#x", s, got, want)
		}
	}
}

const sampleSource = "search-node node=thing marker=c1 value=0\n" +
	"propagate m1=c1 m2=c2 rule=path(is-a) fn=add\n" +
	"collect-node marker=c2\n"

// TestAnswersCarryContentLength: every 200 from the three POST endpoints
// is one write of declared length — never chunked, however large — and
// its bytes survive a decode into the exported structs and a re-encode
// by encoding/json unchanged.
func TestAnswersCarryContentLength(t *testing.T) {
	kb, _ := writeTestKB(t)
	// One wide node makes an answer far past net/http's 2 KiB
	// chunking threshold.
	hub := kb.MustAddNode("hub", kb.ColorFor("concept"))
	for i := 0; i < 400; i++ {
		kb.MustAddLink(hub, kb.Relation("is-a"), 1, kb.MustAddNode(fmt.Sprintf("wide-leaf-%03d", i), kb.ColorFor("concept")))
	}
	e, err := New(kb, WithReplicas(2), WithWrites(true))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(e))
	defer func() { srv.Close(); e.Close() }()

	small := "search-node node=a marker=c1 value=0\npropagate m1=c1 m2=c2 rule=path(is-a) fn=add\ncollect-node marker=c2\n"
	wide := strings.Replace(small, "node=a", "node=hub", 1)
	batch, _ := json.Marshal(BatchQueryRequest{Programs: []string{small, "not assembly", wide, small}})
	jsonBody, _ := json.Marshal(QueryRequest{Program: wide})

	cases := []struct {
		name, path, ctype string
		body              []byte
		into              func() any
		minLen            int
	}{
		{"query text", "/v1/query", "text/plain", []byte(small), func() any { return new(QueryResponse) }, 0},
		{"query json, wide", "/v1/query", "application/json", jsonBody, func() any { return new(QueryResponse) }, 8 << 10},
		{"mutate", "/v1/mutate", "text/plain", []byte("create src=c rel=is-a w=1 dst=d\n"), func() any { return new(QueryResponse) }, 0},
		{"batch", "/v1/query/batch", "application/json", batch, func() any { return new(BatchQueryResponse) }, 8 << 10},
	}
	for _, c := range cases {
		resp, err := http.Post(srv.URL+c.path, c.ctype, bytes.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		var raw bytes.Buffer
		_, err = raw.ReadFrom(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", c.name, resp.StatusCode, raw.Bytes())
		}
		if len(resp.TransferEncoding) != 0 {
			t.Errorf("%s: Transfer-Encoding %v, want none", c.name, resp.TransferEncoding)
		}
		if resp.ContentLength != int64(raw.Len()) || resp.Header.Get("Content-Length") == "" {
			t.Errorf("%s: Content-Length %d (header %q), body is %d bytes",
				c.name, resp.ContentLength, resp.Header.Get("Content-Length"), raw.Len())
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type %q", c.name, ct)
		}
		if raw.Len() < c.minLen {
			t.Errorf("%s: answer is %d bytes, the case needs more than %d to mean anything", c.name, raw.Len(), c.minLen)
		}
		v := c.into()
		if err := json.Unmarshal(raw.Bytes(), v); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if again := encodingJSON(t, v); !bytes.Equal(again, raw.Bytes()) {
			t.Errorf("%s: body is not what encoding/json writes for its own decoding:\n body %s\n json %s", c.name, raw.Bytes(), again)
		}
	}
}

// TestOversizeBodyRefused: a body over the limit used to be cut at the
// limit and the surviving prefix run — 200 for a program the client
// never sent. All three POST endpoints now answer 413 too_large, for
// JSON and for text/plain, with or without a declared length.
func TestOversizeBodyRefused(t *testing.T) {
	_, srv := newTestServer(t, 400)

	// A valid one-instruction prefix, comment padding past the limit,
	// then lines that would change or fail the program.
	program := func(size int) string {
		var b strings.Builder
		b.WriteString("search-node node=thing marker=c1 value=0\n")
		for b.Len() < size {
			b.WriteString("# padding padding padding padding padding padding\n")
		}
		b.WriteString("collect-node marker=c1\nthis line is not assembly\n")
		return b.String()
	}
	asJSON := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	cases := []struct {
		name, path, ctype, body string
	}{
		{"query text", "/v1/query", "text/plain", program(maxQueryBody + maxQueryBody/2)},
		{"query json", "/v1/query", "application/json", asJSON(QueryRequest{Program: program(maxQueryBody)})},
		{"mutate text", "/v1/mutate", "text/plain", program(maxQueryBody + 1)},
		{"mutate json", "/v1/mutate", "application/json", asJSON(QueryRequest{Program: program(maxQueryBody)})},
		{"batch json", "/v1/query/batch", "application/json", asJSON(BatchQueryRequest{Programs: []string{program(maxBatchBody)}})},
		{"batch text", "/v1/query/batch", "text/plain", program(maxBatchBody + 1)},
	}
	for _, c := range cases {
		for _, declared := range []bool{true, false} {
			var body interface{ Read([]byte) (int, error) } = strings.NewReader(c.body)
			if !declared {
				body = struct{ *strings.Reader }{strings.NewReader(c.body)} // an opaque reader: sent chunked
			}
			resp, err := http.Post(srv.URL+c.path, c.ctype, body)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			var env ErrorEnvelope
			err = json.NewDecoder(resp.Body).Decode(&env)
			resp.Body.Close()
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if resp.StatusCode != http.StatusRequestEntityTooLarge || env.Error.Code != "too_large" || env.Error.Retryable {
				t.Errorf("%s (length declared: %v): %d %+v, want 413 too_large, not retryable",
					c.name, declared, resp.StatusCode, env.Error)
			}
		}
	}

	// A body of exactly the limit is read whole (and here, rejected for
	// what it says, not for its size).
	resp, err := http.Post(srv.URL+"/v1/query", "text/plain", strings.NewReader(program(maxQueryBody)[:maxQueryBody]))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusRequestEntityTooLarge {
		t.Error("a body of exactly the limit was refused as too large")
	}
}

// TestWireAllocations fences the costs the encoder and the answer memo
// exist to remove: encoding into a buffer with room allocates nothing,
// answering a result-cache hit from its memo allocates nothing, and a
// whole hit request through the handler stays at the count measured when
// the memo and the request decoder went in (25; the reflection encoder
// path read 40 and json.Unmarshal 31), with 2 of slack.
func TestWireAllocations(t *testing.T) {
	e, cases := wireCorpus(t)
	buf := make([]byte, 0, 64<<10)
	for _, c := range cases {
		if c.name == "hand-built" {
			continue // its out-of-table ids get placeholder names, formatted on demand
		}
		if n := testing.AllocsPerRun(20, func() {
			if _, err := e.appendQueryResponse(buf, c.prog, c.res, time.Millisecond); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s: encoding into a buffer with room allocates %v times, want 0", c.name, n)
		}
		a := &answer{prog: c.prog, res: c.res}
		if _, err := e.appendHit(buf, a, 0); err != nil || a.wire.Load() == nil {
			t.Fatalf("%s: first hit: %v", c.name, err)
		}
		if n := testing.AllocsPerRun(20, func() {
			if _, err := e.appendHit(buf, a, time.Millisecond); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s: a memo hit into a buffer with room allocates %v times, want 0", c.name, n)
		}
	}

	g := fig15KB(t, 400)
	hot, err := New(g.KB, WithReplicas(2))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(hot.Close)
	h := NewServer(hot)
	body, _ := json.Marshal(QueryRequest{Program: inheritanceQuery(g, queryConcepts(g, 1)[0])})
	serve := func() {
		r := httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body))
		r.Header.Set("Content-Type", "application/json")
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		if w.Code != http.StatusOK {
			t.Fatalf("status %d: %s", w.Code, w.Body)
		}
	}
	serve() // compile, run, fill the result cache
	serve() // the first hit fills the memo
	const hitHandleAllocs = 25 + 2
	if n := testing.AllocsPerRun(50, serve); n > hitHandleAllocs {
		t.Errorf("a result-cache hit through ServeHTTP allocates %v times, want at most %d", n, hitHandleAllocs)
	} else {
		t.Logf("result-cache hit through ServeHTTP: %v allocations (fence: %d)", n, hitHandleAllocs)
	}
}
