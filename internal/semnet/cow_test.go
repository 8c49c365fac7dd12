package semnet

import (
	"sync"
	"testing"
)

// cowFixture builds a table of one small populated store: 40 nodes, a
// link chain, alternating colors.
func cowFixture(t *testing.T) *Table {
	t.Helper()
	tab := NewTable(1, 64)
	s := tab.Store(0)
	for i := 0; i < 40; i++ {
		local, err := s.AddNode(NodeID(i), Color(i%3), FuncAdd)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			if err := s.setLinks(local, []Link{{Rel: 1, Weight: 1, To: NodeID(i - 1)}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return tab
}

// deepCopy returns a store alone in a fresh table holding a private copy
// of s's node and relation tables, built through the public mutators: the
// independent snapshot the copy-on-write tests compare against.
func deepCopy(t *testing.T, s *Store) *Table {
	t.Helper()
	tab := NewTable(1, s.capacity)
	c := tab.Store(0)
	for i := 0; i < s.NumNodes(); i++ {
		if _, err := c.AddNode(s.Global(i), s.Color(i), s.Fn(i)); err != nil {
			t.Fatal(err)
		}
		if err := c.setLinks(i, s.Links(i)); err != nil {
			t.Fatal(err)
		}
	}
	return tab
}

// topoEqual compares the full node and relation tables of two stores.
func topoEqual(a, b *Store) bool {
	if a.NumNodes() != b.NumNodes() {
		return false
	}
	for i := 0; i < a.NumNodes(); i++ {
		if a.Global(i) != b.Global(i) || a.Color(i) != b.Color(i) || a.Fn(i) != b.Fn(i) {
			return false
		}
		la, lb := a.Links(i), b.Links(i)
		if len(la) != len(lb) {
			return false
		}
		for j := range la {
			if la[j] != lb[j] {
				return false
			}
		}
	}
	return true
}

// TestCloneTopologySharedEquivalent verifies the zero-copy clone is
// observationally identical to the deep clone: same tables, fresh
// marker state.
func TestCloneTopologySharedEquivalent(t *testing.T) {
	src := cowFixture(t)
	s := src.Store(0)
	s.Set(3, 0)
	s.SetValue(3, 4, 2.5, 9)

	shared := NewSharedTable(src.Share()).Store(0)
	deep := deepCopy(t, s).Store(0)
	if !topoEqual(shared, deep) {
		t.Fatal("shared clone's topology differs from deep clone")
	}
	if shared.Test(3, 0) || shared.Value(3, 4) != 0 {
		t.Error("shared clone inherited marker state")
	}
	// Marker state is private: setting on the clone must not leak back.
	shared.Set(5, 1)
	if s.Test(5, 1) {
		t.Error("clone marker write visible in source store")
	}
}

// TestCloneTopologySharedCopyOnWrite mutates topology on each side of a
// shared clone and requires the other side to be unaffected.
func TestCloneTopologySharedCopyOnWrite(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(t *testing.T, s *Store)
	}{
		{"set-color", func(t *testing.T, s *Store) {
			if err := s.SetColor(2, 7); err != nil {
				t.Fatal(err)
			}
		}},
		{"add-link", func(t *testing.T, s *Store) {
			if err := s.AddLink(0, Link{Rel: 2, Weight: 3, To: 99}); err != nil {
				t.Fatal(err)
			}
		}},
		{"remove-link", func(t *testing.T, s *Store) {
			if !s.RemoveLink(1, 1, 0) {
				t.Fatal("link to remove not found")
			}
		}},
		{"set-links", func(t *testing.T, s *Store) {
			if err := s.setLinks(4, []Link{{Rel: 5, Weight: 2, To: 11}}); err != nil {
				t.Fatal(err)
			}
		}},
		{"add-node", func(t *testing.T, s *Store) {
			if _, err := s.AddNode(1000, 1, FuncMin); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, mutateClone := range []bool{true, false} {
		for _, m := range mutations {
			name := m.name + "/on-source"
			if mutateClone {
				name = m.name + "/on-clone"
			}
			t.Run(name, func(t *testing.T) {
				tab := cowFixture(t)
				src, clone := tab.Store(0), NewSharedTable(tab.Share()).Store(0)
				before := deepCopy(t, src).Store(0)

				target, other := src, clone
				if mutateClone {
					target, other = clone, src
				}
				m.mut(t, target)
				if !topoEqual(other, before) {
					t.Error("mutation leaked across the shared-topology boundary")
				}
				if topoEqual(target, before) {
					t.Error("mutation had no observable effect on its own store")
				}
			})
		}
	}
}

// TestCloneTopologySharedConcurrent stamps out clones of one prototype
// concurrently — the pool bring-up pattern — while each clone then
// mutates its own copy. Run under -race this pins the atomicity of the
// shared-topology flag.
func TestCloneTopologySharedConcurrent(t *testing.T) {
	tab := cowFixture(t)
	src := tab.Store(0)
	before := deepCopy(t, src).Store(0)

	const clones = 8
	var wg sync.WaitGroup
	for i := 0; i < clones; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := NewSharedTable(tab.Share()).Store(0)
			if err := c.SetColor(i%src.NumNodes(), Color(20+i)); err != nil {
				t.Error(err)
				return
			}
			if c.Color(i%src.NumNodes()) != Color(20+i) {
				t.Errorf("clone %d lost its own mutation", i)
			}
		}(i)
	}
	wg.Wait()
	if !topoEqual(src, before) {
		t.Error("clone mutations leaked into the prototype")
	}
}

// TestKBGeneration pins the structural-generation counter the engine's
// result cache keys on: every topology mutation must bump it, and reads
// must not.
func TestKBGeneration(t *testing.T) {
	kb := NewKB()
	g0 := kb.Generation()
	a := kb.MustAddNode("a", 0)
	b := kb.MustAddNode("b", 0)
	if kb.Generation() == g0 {
		t.Error("AddNode did not bump the generation")
	}
	g1 := kb.Generation()
	kb.MustAddLink(a, 1, 1, b)
	if kb.Generation() == g1 {
		t.Error("AddLink did not bump the generation")
	}
	g2 := kb.Generation()
	if err := kb.SetFn(a, FuncAdd); err != nil {
		t.Fatal(err)
	}
	if kb.Generation() == g2 {
		t.Error("SetFn did not bump the generation")
	}
	g3 := kb.Generation()
	_, _ = kb.Lookup("a")
	_ = kb.NumNodes()
	if kb.Generation() != g3 {
		t.Error("read-only accessors bumped the generation")
	}
	kb.Preprocess()
	gp := kb.Generation()
	kb.Preprocess()
	if kb.Generation() != gp {
		t.Error("idempotent re-preprocess bumped the generation")
	}
}
