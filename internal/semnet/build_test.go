package semnet

import (
	"errors"
	"math/rand"
	"strconv"
	"testing"
)

// A Builder applies every rule the locked per-element calls apply: the
// same sequence of calls, failures included, must leave the same network
// and the same generation behind either way.
func TestBuilderMatchesPerElementCalls(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		b, kb := NewBuilder(64, 0), NewKB()
		same := func(what string, x, y error) {
			t.Helper()
			if (x == nil) != (y == nil) || (x != nil && x.Error() != y.Error()) {
				t.Fatalf("seed %d: %s: builder %v, KB %v", seed, what, x, y)
			}
		}
		for op := 0; op < 500; op++ {
			// Ids and names run a little past what exists, so every
			// unknown-endpoint and duplicate-name rule is exercised.
			id := NodeID(rng.Intn(80))
			name := "n" + strconv.Itoa(rng.Intn(80))
			switch rng.Intn(6) {
			case 0, 1:
				c := Color(rng.Intn(4))
				x, errX := b.AddNode(name, c)
				y, errY := kb.AddNode(name, c)
				same("AddNode", errX, errY)
				if x != y {
					t.Fatalf("seed %d: AddNode(%q) = %d, %d", seed, name, x, y)
				}
			case 2, 3:
				rel, w, to := RelType(rng.Intn(3)), rng.Float32(), NodeID(rng.Intn(80))
				same("AddLink", b.AddLink(id, rel, w, to), kb.AddLink(id, rel, w, to))
			case 4:
				fn := FuncCode(rng.Intn(int(numFuncCodes)))
				same("SetFn", b.SetFn(id, fn), kb.SetFn(id, fn))
			case 5:
				r1, errX := b.InternRelation(name)
				r2, errY := kb.InternRelation(name)
				same("InternRelation", errX, errY)
				c1, errX := b.InternColor(name)
				c2, errY := kb.InternColor(name)
				same("InternColor", errX, errY)
				if r1 != r2 || c1 != c2 {
					t.Fatalf("seed %d: interned %q as %d/%d and %d/%d", seed, name, r1, c1, r2, c2)
				}
			}
			x, okX := b.Lookup(name)
			y, okY := kb.Lookup(name)
			if x != y || okX != okY {
				t.Fatalf("seed %d: Lookup(%q) = %d %v, %d %v", seed, name, x, okX, y, okY)
			}
		}
		if err := Diff(b.KB(), kb); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestDiffFindsEachDifference(t *testing.T) {
	build := func(edit func(*KB)) *KB {
		kb := NewKB()
		c := kb.ColorFor("c")
		r := kb.Relation("r")
		a := kb.MustAddNode("a", c)
		kb.MustAddLink(a, r, 0.5, kb.MustAddNode("b", c))
		if edit != nil {
			edit(kb)
		}
		return kb
	}
	base := build(nil)
	if err := Diff(base, build(nil)); err != nil {
		t.Fatalf("equal networks: %v", err)
	}
	for name, edit := range map[string]func(*KB){
		"node":     func(kb *KB) { kb.MustAddNode("z", 0) },
		"color":    func(kb *KB) { kb.color[0] = 7 },
		"function": func(kb *KB) { kb.fn[0] = FuncAdd },
		"parent":   func(kb *KB) { kb.parent[1] = 0 },
		"weight":   func(kb *KB) { kb.links.row(0)[0].Weight = 0.25 },
		"index":    func(kb *KB) { clear(kb.index.slots) },
		"relation": func(kb *KB) { kb.Relation("s") },
		"colors":   func(kb *KB) { kb.ColorFor("d") },
		"gen":      func(kb *KB) { kb.gen.Add(1) },
	} {
		if err := Diff(base, build(edit)); err == nil {
			t.Errorf("%s: no difference reported", name)
		}
	}
}

// Capacity errors come back through the Builder as they do through the
// KB, so a reader of untrusted input can answer them.
func TestBuilderCapacityErrors(t *testing.T) {
	b := NewBuilder(0, 0)
	for i := 0; i < int(ColorSubnode); i++ {
		if _, err := b.InternColor("c" + strconv.Itoa(i)); err != nil {
			t.Fatalf("color %d: %v", i, err)
		}
	}
	if _, err := b.InternColor("one-too-many"); !errors.Is(err, ErrCapacity) {
		t.Fatalf("color 256: %v", err)
	}
}
