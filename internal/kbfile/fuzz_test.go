package kbfile

import (
	"math"
	"strings"
	"testing"

	"snap1/internal/semnet"
)

// FuzzParse holds Parse to two promises: whatever the input, it answers
// with a network or an error and never panics; and a network it accepts
// writes out and parses back to the same nodes, colors, functions and
// links.
func FuzzParse(f *testing.F) {
	for _, src := range exampleKBs(f) {
		f.Add(string(src))
	}
	f.Add(sample)
	f.Add(manyColors(int(semnet.ColorSubnode) + 1))
	f.Add("node a c nop\nnode b c max\nlink b r NaN a\nlink a s -0 b\nlink a r +Inf a # self\n")
	f.Fuzz(func(t *testing.T, src string) {
		kb, err := Parse(strings.NewReader(src))
		if err != nil {
			return
		}
		var out strings.Builder
		if err := Write(&out, kb); err != nil {
			t.Fatal(err)
		}
		back, err := Parse(strings.NewReader(out.String()))
		if err != nil {
			t.Fatalf("written network does not parse: %v\n%s", err, out.String())
		}
		if kb.NumNodes() != back.NumNodes() || kb.NumLinks() != back.NumLinks() {
			t.Fatalf("%d nodes and %d links came back as %d and %d",
				kb.NumNodes(), kb.NumLinks(), back.NumNodes(), back.NumLinks())
		}
		for id := semnet.NodeID(0); int(id) < kb.NumNodes(); id++ {
			x, _ := kb.Node(id)
			y, _ := back.Node(id)
			if x.Name != y.Name || kb.ColorName(x.Color) != back.ColorName(y.Color) || x.Fn != y.Fn || len(kb.Links(id)) != len(back.Links(id)) {
				t.Fatalf("node %d: %s %s %s came back as %s %s %s",
					id, x.Name, kb.ColorName(x.Color), x.Fn, y.Name, back.ColorName(y.Color), y.Fn)
			}
			for i, l := range kb.Links(id) {
				m := back.Links(id)[i]
				if kb.RelationName(l.Rel) != back.RelationName(m.Rel) || l.To != m.To ||
					math.Float32bits(l.Weight) != math.Float32bits(m.Weight) {
					t.Fatalf("node %s link %d: %+v came back as %+v", x.Name, i, l, m)
				}
			}
		}
	})
}
