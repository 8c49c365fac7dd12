package kbfile

import (
	"strings"
	"testing"

	"snap1/internal/semnet"
)

const sample = `
# a small hierarchy
node thing class
node animal class add
node dog class
link animal is-a 1 thing
link dog is-a 0.5 animal
`

func TestParse(t *testing.T) {
	kb, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if kb.NumNodes() != 3 || kb.NumLinks() != 2 {
		t.Fatalf("parsed %d nodes, %d links", kb.NumNodes(), kb.NumLinks())
	}
	animal, ok := kb.Lookup("animal")
	if !ok {
		t.Fatal("animal missing")
	}
	n, _ := kb.Node(animal)
	if n.Fn != semnet.FuncAdd {
		t.Error("node fn")
	}
	dog, _ := kb.Lookup("dog")
	if links := kb.Links(dog); len(links) != 1 || links[0].Weight != 0.5 {
		t.Fatalf("dog links %+v", links)
	}
	if err := kb.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"node onlyname",
		"node a b c d e",
		"node a col bogusfn",
		"link a r 1 b",                 // unknown nodes
		"node a c\nlink a r 1 missing", // unknown target
		"node a c\nlink a r weight a",  // bad weight
		"node a c\nlink a r 1",         // arity
		"frobnicate x",                 // unknown directive
		"node dup c\nnode dup c",       // duplicate
	}
	for _, src := range cases {
		if _, err := Parse(strings.NewReader(src)); err == nil {
			t.Errorf("%q should fail", src)
		}
	}
}

func TestWriteParseRoundTrip(t *testing.T) {
	kb, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := Write(&out, kb); err != nil {
		t.Fatal(err)
	}
	kb2, err := Parse(strings.NewReader(out.String()))
	if err != nil {
		t.Fatalf("reparse:\n%s\n%v", out.String(), err)
	}
	if kb2.NumNodes() != kb.NumNodes() || kb2.NumLinks() != kb.NumLinks() {
		t.Fatalf("round trip changed counts: %d/%d -> %d/%d",
			kb.NumNodes(), kb.NumLinks(), kb2.NumNodes(), kb2.NumLinks())
	}
}

// A preprocessed network with subnodes must write back as the logical
// network (subnodes flattened) and reload equivalently.
func TestWriteFlattensSubnodes(t *testing.T) {
	kb := semnet.NewKB()
	col := kb.ColorFor("c")
	rel := kb.Relation("r")
	hub := kb.MustAddNode("hub", col)
	for i := 0; i < 40; i++ {
		id := kb.MustAddNode("leaf"+string(rune('A'+i%26))+string(rune('0'+i/26)), col)
		kb.MustAddLink(hub, rel, 1, id)
	}
	kb.Preprocess()

	var out strings.Builder
	if err := Write(&out, kb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "~") {
		t.Fatal("subnode names leaked into the file")
	}
	kb2, err := Parse(strings.NewReader(out.String()))
	if err != nil {
		t.Fatal(err)
	}
	if kb2.NumNodes() != 41 {
		t.Fatalf("reloaded %d nodes, want 41 logical", kb2.NumNodes())
	}
	h2, _ := kb2.Lookup("hub")
	if n := len(kb2.Links(h2)); n != 40 {
		t.Fatalf("hub reloaded with %d links", n)
	}
	_ = hub
}
