package machine

import (
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"snap1/internal/kbgen"
	"snap1/internal/semnet"
)

// TestDownloadCopiesNoLinks fences LoadKB's download on the network the
// serving benchmark's snapd loads (12K nodes with the newswire domain, 16
// clusters): a store indexes the knowledge base's frozen base slab
// instead of copying it. Every store row that lives in the base — every
// row but Preprocess's continuation blocks, which the KB keeps in its
// private slab — is the KB's row, at the same first-element address, and
// LoadKB allocates less than one link slab beyond the empty array (marker
// table and store columns) that it builds afresh, as New does. A download
// that copies its members' links fails both.
func TestDownloadCopiesNoLinks(t *testing.T) {
	g, err := kbgen.Generate(kbgen.Params{Nodes: 12000, Seed: 42, WithDomain: true})
	if err != nil {
		t.Fatal(err)
	}
	kb := g.KB
	kb.Preprocess()
	cfg := PaperConfig()
	cfg.MUsPerCluster, cfg.ExtraMUClusters = 2, 0
	var before, built, loaded runtime.MemStats
	runtime.ReadMemStats(&before)
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&built)
	if err := m.LoadKB(kb); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&loaded)
	array := int64(built.TotalAlloc - before.TotalAlloc)
	download := int64(loaded.TotalAlloc-built.TotalAlloc) - array
	slab := int64(kb.NumLinks()) * int64(unsafe.Sizeof(semnet.Link{}))
	t.Logf("LoadKB allocates %d KB beyond an empty array of %d KB, against a link slab of %d KB", download>>10, array>>10, slab>>10)
	if !raceEnabled && download >= slab {
		t.Errorf("LoadKB allocates %d B beyond an empty array, want less than the %d B of one link slab", download, slab)
	}
	indexed := 0
	for id := semnet.NodeID(0); int(id) < kb.NumNodes(); id++ {
		want := kb.Links(id)
		got := m.clusters[m.assign[id]].store.Links(int(m.localIdx[id]))
		if !slices.Equal(got, want) {
			t.Fatalf("node %d: store row %v, KB row %v", id, got, want)
		}
		if len(want) == 0 || want[0].Rel == semnet.RelCont {
			continue
		}
		if &got[0] != &want[0] {
			t.Fatalf("node %d: the store holds a copy of the KB's row", id)
		}
		indexed++
	}
	if indexed == 0 {
		t.Fatal("no row was checked")
	}
}
