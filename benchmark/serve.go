package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"snap1/internal/engine"
)

// sampleEvery is the fixed share of measured responses decoded in full
// and compared with the oracle; every warm-up response is compared.
const sampleEvery = 16

// wanted holds the oracle's rows for every pool text.
type wanted struct {
	cold, hot [][][]row
}

// serveTarget is a running snapd seen through one serve-* workload.
type serveTarget struct {
	name string
	c    *child
	n    int // connections
	p    *pools
	want *wanted

	workers []serveWorker

	// serve-churn: hot and cold reads advance shared cursors, so the
	// connections together sweep each pool cyclically.
	hotCursor, coldCursor atomic.Int64
}

// serveWorker is one connection's private state.
type serveWorker struct {
	buf bytes.Buffer

	// serve-churn
	k        int64 // operations issued on this connection
	linked   bool  // the connection's bench-churn link currently exists
	creates  int   // committed creates
	readback bool  // the next operation reads the fresh link back
}

func newServeTarget(name string, c *child, conns int, p *pools, want *wanted) *serveTarget {
	return &serveTarget{name: name, c: c, n: conns, p: p, want: want, workers: make([]serveWorker, conns)}
}

func (t *serveTarget) conns() int { return t.n }
func (t *serveTarget) pid() int   { return t.c.cmd.Process.Pid }

func (t *serveTarget) period() int64 {
	switch t.name {
	case "serve-cold":
		return int64(len(t.p.cold))
	case "serve-hot":
		return int64(len(t.p.hot))
	case "serve-batch":
		return int64(len(t.p.batches))
	}
	return 0 // serve-churn interleaves three schedules; it never repeats exactly
}

// post sends body and returns the response body, valid until the
// worker's next call. ok is false on a transport error or a non-200.
func (t *serveTarget) post(w int, path string, body []byte) (resp []byte, ok bool) {
	r, err := t.c.http.Post(t.c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, false
	}
	defer r.Body.Close()
	buf := &t.workers[w].buf
	buf.Reset()
	if _, err := buf.ReadFrom(r.Body); err != nil {
		return nil, false
	}
	return buf.Bytes(), r.StatusCode == http.StatusOK
}

var virtualKey = []byte(`"virtual_ps":`)

// scanVirtual sums every virtual_ps in a response without decoding the
// rows: on most responses that number is all the client needs, and a
// full decode of a 300-row answer would make the client, which shares
// the cores, the thing being measured.
func scanVirtual(resp []byte) (sum int64, n int) {
	for {
		i := bytes.Index(resp, virtualKey)
		if i < 0 {
			return sum, n
		}
		resp = resp[i+len(virtualKey):]
		j := 0
		for j < len(resp) && resp[j] >= '0' && resp[j] <= '9' {
			j++
		}
		v, err := strconv.ParseInt(string(resp[:j]), 10, 64)
		if err != nil {
			return sum, n
		}
		sum += v
		n++
	}
}

// query sends one pool text to /v1/query. When check is set the answer
// is decoded and compared with the oracle.
func (t *serveTarget) query(w int, e *entry, want [][]row, check bool) outcome {
	resp, ok := t.post(w, "/v1/query", e.body)
	if !ok {
		return outcome{ops: 1, failed: 1}
	}
	vps, n := scanVirtual(resp)
	if n != 1 {
		return outcome{ops: 1, failed: 1}
	}
	if check {
		var qr engine.QueryResponse
		if json.Unmarshal(resp, &qr) != nil || !matches(&qr, want) {
			return outcome{ops: 1, failed: 1}
		}
	}
	return outcome{ops: 1, vps: vps}
}

// batch sends cold entries [8i, 8i+8) to /v1/query/batch.
func (t *serveTarget) batch(w, i int, check bool) outcome {
	o := outcome{ops: batchMembers}
	resp, ok := t.post(w, "/v1/query/batch", t.p.batches[i])
	if !ok {
		o.failed = o.ops
		return o
	}
	vps, n := scanVirtual(resp)
	if n != batchMembers {
		// A member answered with an error element. Decode to count them.
		check = true
	}
	o.vps = vps
	if check {
		var br engine.BatchQueryResponse
		if json.Unmarshal(resp, &br) != nil || len(br.Results) != batchMembers {
			o.failed, o.vps = o.ops, 0
			return o
		}
		for j, el := range br.Results {
			if el.Result == nil || !matches(el.Result, t.want.cold[i*batchMembers+j]) {
				o.failed++
				if el.Result != nil {
					o.vps -= el.Result.VirtualPicos
				}
			}
		}
	}
	return o
}

// churn issues connection w's next operation: reads alternating the hot
// and the cold pool, every churnPeriod-th operation a write toggling the
// connection's own link, and after one committed create in readbackEvery
// a read that must see the new link.
func (t *serveTarget) churn(w int) outcome {
	ws := &t.workers[w]
	link := &t.p.churn[w]
	if ws.readback {
		ws.readback = false
		return t.query(w, &link.readback, [][]row{{{node: link.to, value: 1, origin: link.from}}}, true)
	}
	ws.k++
	if ws.k%churnPeriod == 0 {
		body := link.create
		if ws.linked {
			body = link.delete
		}
		resp, ok := t.post(w, "/v1/mutate", body)
		vps, n := scanVirtual(resp)
		if !ok || n != 1 {
			return outcome{ops: 1, failed: 1, write: true}
		}
		ws.linked = !ws.linked
		if ws.linked {
			ws.creates++
			ws.readback = ws.creates%readbackEvery == 0
		}
		return outcome{ops: 1, vps: vps, write: true}
	}
	check := ws.k%sampleEvery == 0
	if ws.k%2 == 1 {
		i := int(t.hotCursor.Add(1)-1) % churnHotSize
		return t.query(w, &t.p.hot[i], t.want.hot[i], check)
	}
	i := int(t.coldCursor.Add(1)-1) % len(t.p.cold)
	return t.query(w, &t.p.cold[i], t.want.cold[i], check)
}

func (t *serveTarget) do(w int, seq int64) outcome {
	check := seq%sampleEvery == 0
	switch t.name {
	case "serve-cold":
		i := int(seq % int64(len(t.p.cold)))
		return t.query(w, &t.p.cold[i], t.want.cold[i], check)
	case "serve-hot":
		i := int(seq % int64(len(t.p.hot)))
		return t.query(w, &t.p.hot[i], t.want.hot[i], check)
	case "serve-batch":
		return t.batch(w, int(seq%int64(len(t.p.batches))), check)
	default:
		return t.churn(w)
	}
}

// warm sweeps the pools the workload reads, checking every answer. The
// cold pool is swept from all connections; a hot pool is swept from one,
// so each text is executed solo and its result memoized (a fused result
// is served but never cached).
func (t *serveTarget) warm() (attempted, failed int) {
	var mu sync.Mutex
	add := func(o outcome) {
		mu.Lock()
		attempted += o.ops
		failed += o.failed
		mu.Unlock()
	}
	sweep := func(n int, f func(w, i int) outcome) {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < t.n; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
					add(f(w, i))
				}
			}(w)
		}
		wg.Wait()
	}
	coldSweep := func() {
		sweep(len(t.p.cold), func(w, i int) outcome { return t.query(w, &t.p.cold[i], t.want.cold[i], true) })
	}
	hotSweep := func(n int) {
		for i := 0; i < n; i++ {
			add(t.query(0, &t.p.hot[i], t.want.hot[i], true))
		}
	}
	switch t.name {
	case "serve-cold":
		coldSweep()
	case "serve-hot":
		hotSweep(len(t.p.hot))
	case "serve-batch":
		sweep(len(t.p.batches), func(w, i int) outcome { return t.batch(w, i, true) })
	default:
		coldSweep()
		hotSweep(churnHotSize)
	}
	return attempted, failed
}

// stats fetches GET /v1/stats.
func (t *serveTarget) stats() (engine.Stats, error) {
	r, err := t.c.http.Get(t.c.base + "/v1/stats")
	if err != nil {
		return engine.Stats{}, err
	}
	defer r.Body.Close()
	var sr engine.StatsResponse
	if err := json.NewDecoder(r.Body).Decode(&sr); err != nil {
		return engine.Stats{}, fmt.Errorf("decode /v1/stats: %w", err)
	}
	return sr.Stats, nil
}

// soloPass sends n requests of the workload from one connection and
// returns their median round trip: the closed loop at one caller, which
// beside the in-process traced request shows what crossing the process
// boundary costs. Cold texts are rendered afresh so that they miss.
func (t *serveTarget) soloPass(n int) (p50 float64, failed int) {
	const soloBase = variantBase + 1<<19
	lat := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		var send func() outcome
		switch t.name {
		case "serve-cold":
			e := newEntry(t.p.cold[i%len(t.p.cold)].q, soloBase+i)
			send = func() outcome { return t.query(0, &e, nil, false) }
		case "serve-hot":
			send = func() outcome { return t.do(0, int64(i)) }
		case "serve-batch":
			texts := make([]string, batchMembers)
			for j := range texts {
				texts[j] = t.p.cold[(i*batchMembers+j)%len(t.p.cold)].q.render(soloBase + i*batchMembers + j)
			}
			body := batchBody(texts)
			send = func() outcome {
				resp, ok := t.post(0, "/v1/query/batch", body)
				if _, n := scanVirtual(resp); !ok || n != batchMembers {
					return outcome{ops: batchMembers, failed: batchMembers}
				}
				return outcome{ops: batchMembers}
			}
		default:
			send = func() outcome { return t.churn(0) }
		}
		start := time.Now()
		o := send()
		lat = append(lat, float64(time.Since(start).Nanoseconds())/1e3)
		failed += o.failed
	}
	return median(lat), failed
}
