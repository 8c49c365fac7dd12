package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"snap1/internal/kbgen"
	"snap1/internal/semnet"
)

// kbNodes is the generated network's size: the paper's 12K-node
// MUC-4-style knowledge base. snapd is started with the same -gen,
// -domain and -seed, so the benchmark and the server build the same
// network independently and only generated query text crosses the wire.
const kbNodes = 12000

// Pool sizes. The cold pool must exceed snapd's compile cache (128) and
// result cache (1024) so a cyclic sweep misses every LRU, and it is
// finite so the engine's unbounded validation memo saturates during
// warm-up and the measured phase is stationary. The hot pool fits both
// caches. The churn hot pool is smaller than the ~25 operations between
// two commits at two connections, so that a text is read again before
// the next commit sweeps the result cache and the workload's hit ratio
// sits between hot's 1 and cold's 0 (a 32-text pool cycled slower than
// the commit interval and never hit).
const (
	coldPoolSize  = 4096
	hotPoolSize   = 64
	churnHotSize  = 8
	batchMembers  = 8
	churnPeriod   = 50 // every 50th operation of a connection is a write
	readbackEvery = 8  // 1-in-8 committed creates is read back
	churnRelation = "bench-churn"
)

// template names a query shape; all instances of one template cost the
// same on the machine.
type template int

const (
	tInherit  template = iota // leaf → path(is-a) → collect: 5 rows
	tSubsume                  // depth-1 or depth-2 class → path(subsumes) → collect: 340 or 84 rows
	tClassify                 // two leaves, two independent is-a spreads, and-marker, collect
)

func (t template) String() string { return [...]string{"inherit", "subsume", "classify"}[t] }

// query is one pool entry before rendering: a template and the node
// names it is instantiated with. Rendering with different values gives
// texts that hash differently (compile cache, result cache) at equal
// machine cost, which is how the traced run replays a cold request
// through each layer without hitting the caches the first call filled.
type query struct {
	tmpl template
	a, b string
}

func (q query) render(value int) string {
	switch q.tmpl {
	case tInherit:
		return fmt.Sprintf("search-node node=%s marker=c1 value=%d\n"+
			"propagate m1=c1 m2=c2 rule=path(is-a) fn=add\n"+
			"collect-node marker=c2\n", q.a, value)
	case tSubsume:
		return fmt.Sprintf("search-node node=%s marker=c1 value=%d\n"+
			"propagate m1=c1 m2=c2 rule=path(subsumes) fn=add\n"+
			"collect-node marker=c2\n", q.a, value)
	default:
		return fmt.Sprintf("search-node node=%s marker=c1 value=%d\n"+
			"search-node node=%s marker=c3 value=%d\n"+
			"propagate m1=c1 m2=c2 rule=path(is-a) fn=add\n"+
			"propagate m1=c3 m2=c4 rule=path(is-a) fn=add\n"+
			"and-marker m1=c2 m2=c4 m3=c5 fn=add\n"+
			"collect-node marker=c5\n", q.a, value, q.b, value)
	}
}

// entry is one rendered pool text with its pre-encoded request body.
type entry struct {
	q    query
	text string
	body []byte // {"program": text}
}

// pools is everything a workload sends, derived from the seed alone.
type pools struct {
	cold, hot []entry
	// batches[i] is the body of the batch request carrying cold entries
	// [8i, 8i+8).
	batches [][]byte
	// churn[w] is connection w's private link: two leaves no query
	// starts from, toggled by create/delete on churnRelation.
	churn []churnLink
}

type churnLink struct {
	from, to         string
	create, delete   []byte // /v1/mutate bodies
	readback         entry  // step(bench-churn) from `from`: one row, `to`
	createT, deleteT string
}

// drawer hands out nodes of one stratum in a seed-shuffled cyclic order,
// so every node of the stratum is used equally often and the pool's
// machine cost does not depend on which nodes the seed happened to draw.
type drawer struct {
	names []string
	next  int
}

func newDrawer(rng *rand.Rand, kb *semnet.KB, ids []semnet.NodeID) *drawer {
	names := make([]string, len(ids))
	for i, id := range ids {
		names[i] = kb.Name(id)
	}
	rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	return &drawer{names: names}
}

func (d *drawer) draw() string {
	s := d.names[d.next%len(d.names)]
	d.next++
	return s
}

// generateKB builds the seeded network exactly as snapd -gen does.
func generateKB(seed int64) (*kbgen.Generated, error) {
	return kbgen.Generate(kbgen.Params{Nodes: kbNodes, Seed: seed, WithDomain: true})
}

func bodyOf(text string) []byte {
	b, err := json.Marshal(struct {
		Program string `json:"program"`
	}{text})
	if err != nil {
		panic(err) // a string always marshals
	}
	return b
}

func newEntry(q query, value int) entry {
	t := q.render(value)
	return entry{q: q, text: t, body: bodyOf(t)}
}

// buildPools derives every request text from the seed. Templates are
// mixed inherit:subsume:classify = 2:1:1 in a fixed I,S,I,C pattern, so
// any eight consecutive cold entries (one batch) hold the same mix.
// conns is the number of churn links to draw; coldSize shrinks the cold
// pool for -smoke.
func buildPools(g *kbgen.Generated, seed int64, conns, coldSize int) *pools {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	kb := g.KB
	leaves := newDrawer(rng, kb, g.Leaves)
	// Classes is breadth-first: [0] the root, [1,5) depth 1, [5,21) depth
	// 2. The last level of the hierarchy is only partly filled, so the
	// subtrees of the last depth-1 class are smaller than the others; the
	// strata keep to the complete ones, [1,4) with 341 descendants each
	// and [5,17) with 85, so that a subsume's row count, and with it its
	// cost on both clocks, does not depend on which class the seed drew.
	// Every fifth subsume takes a depth-1 class, the rest depth-2: the
	// strata in the 3:12 proportion of their sizes.
	wide, narrow := newDrawer(rng, kb, g.Classes[1:4]), newDrawer(rng, kb, g.Classes[5:17])
	subsumes := 0

	// The last 2*conns shuffled leaves are reserved for churn links and
	// never used as a query source, so a toggled link cannot change a
	// read's simulated time.
	reserved := leaves.names[len(leaves.names)-2*conns:]
	leaves.names = leaves.names[:len(leaves.names)-2*conns]

	pattern := [4]template{tInherit, tSubsume, tInherit, tClassify}
	draw := func(i int) query {
		switch t := pattern[i%4]; t {
		case tSubsume:
			d := narrow
			if subsumes%5 == 0 {
				d = wide
			}
			subsumes++
			return query{tmpl: t, a: d.draw()}
		case tClassify:
			return query{tmpl: t, a: leaves.draw(), b: leaves.draw()}
		default:
			return query{tmpl: t, a: leaves.draw()}
		}
	}

	p := &pools{}
	for i := 0; i < coldSize; i++ {
		p.cold = append(p.cold, newEntry(draw(i), i))
	}
	for i := 0; i < hotPoolSize; i++ {
		p.hot = append(p.hot, newEntry(draw(i), coldSize+i))
	}
	for i := 0; i+batchMembers <= len(p.cold); i += batchMembers {
		texts := make([]string, batchMembers)
		for j := range texts {
			texts[j] = p.cold[i+j].text
		}
		p.batches = append(p.batches, batchBody(texts))
	}
	for w := 0; w < conns; w++ {
		from, to := reserved[2*w], reserved[2*w+1]
		l := churnLink{
			from: from, to: to,
			createT: fmt.Sprintf("create src=%s rel=%s w=1 dst=%s\n", from, churnRelation, to),
			deleteT: fmt.Sprintf("delete src=%s rel=%s dst=%s\n", from, churnRelation, to),
		}
		l.create, l.delete = bodyOf(l.createT), bodyOf(l.deleteT)
		rb := fmt.Sprintf("search-node node=%s marker=c1 value=0\n"+
			"propagate m1=c1 m2=c2 rule=step(%s) fn=add\n"+
			"collect-node marker=c2\n", from, churnRelation)
		l.readback = entry{text: rb, body: bodyOf(rb)}
		p.churn = append(p.churn, l)
	}
	return p
}

func batchBody(texts []string) []byte {
	b, err := json.Marshal(struct {
		Programs []string `json:"programs"`
	}{texts})
	if err != nil {
		panic(err)
	}
	return b
}

// variantBase is the first value the traced run renders replays with;
// pool values stay below coldPoolSize+hotPoolSize, so variants never
// collide with a pool text.
const variantBase = 1 << 20
