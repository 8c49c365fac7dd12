package engine

import (
	"runtime"
	"testing"
	"time"

	"snap1/internal/kbgen"
	"snap1/internal/machine"
	"snap1/internal/perfmon"
)

// TestBringUpLiveBytes fences what a snapd-shaped bring-up keeps: the
// generated 12 000-node network (seed 42, domain on) and an engine over
// it with snapd's options, at one P, as snapd serves by default. The
// knowledge base holds its node table in columns, its links in one CSR
// arena and its names in an open-addressed index, and the cluster stores
// index the KB's frozen base slab of links instead of copying it, so the
// live heap read 2.48 MB when measured. With every store holding a copy
// of its members' links it read 3.06 MB, and with a 56-byte Node per
// node, a heap slice of links per node and a map for the names 3.83 MB.
// The bound is the measured figure plus ≈ 11 %.
func TestBringUpLiveBytes(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	liveHeap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := liveHeap()
	g, err := kbgen.Generate(kbgen.Params{Nodes: 12000, Seed: 42, WithDomain: true})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(g.KB,
		WithQueueCap(256), WithCacheCap(128), WithResultCache(1024),
		WithQueryTimeout(10*time.Second), WithRetryPolicy(RetryPolicy{MaxAttempts: 3}), WithWrites(true),
		WithMachineOptions(machine.WithClusters(16), machine.WithMarkerUnits(2, 0), machine.WithPartition("semantic")),
		WithMonitor(perfmon.NewCollector(4096)))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	live := liveHeap() - before
	runtime.KeepAlive(g)
	t.Logf("bring-up keeps %d B of live heap", live)
	const bound = 2_750_000
	if live > bound {
		t.Errorf("bring-up keeps %d B of live heap, want <= %d", live, bound)
	}
}
