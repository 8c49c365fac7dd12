package snap1_test

import (
	"os"
	"path/filepath"
	"testing"

	"snap1/internal/isa"
	"snap1/internal/kbfile"
	"snap1/internal/machine"
	"snap1/internal/semnet"
)

// loadSample parses a shipped knowledge-base / assembly-program pair from
// examples/data.
func loadSample(t *testing.T, kbName, progName string) (*semnet.KB, *isa.Program) {
	t.Helper()
	kbf, err := os.Open(filepath.Join("examples", "data", kbName))
	if err != nil {
		t.Fatal(err)
	}
	defer kbf.Close()
	kb, err := kbfile.Parse(kbf)
	if err != nil {
		t.Fatal(err)
	}
	kb.Preprocess()

	progf, err := os.Open(filepath.Join("examples", "data", progName))
	if err != nil {
		t.Fatal(err)
	}
	defer progf.Close()
	prog, err := isa.NewAssembler(kb).Assemble(progf)
	if err != nil {
		t.Fatal(err)
	}
	return kb, prog
}

func runSample(t *testing.T, kb *semnet.KB, prog *isa.Program, clusters int) (*machine.Machine, *machine.Result) {
	t.Helper()
	cfg := machine.DefaultConfig()
	cfg.Clusters = clusters
	cfg.NodesPerCluster = 16
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.LoadKB(kb); err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	return m, res
}

// TestShippedSampleFiles exercises the exact files cmd/snapsim's
// documentation points at: the animals knowledge base and the ancestors
// program must keep producing the documented result.
func TestShippedSampleFiles(t *testing.T) {
	kb, prog := loadSample(t, "animals.kb", "ancestors.snap")
	_, res := runSample(t, kb, prog, 4)

	// dog's ancestors plus the has-fur property reached through the
	// spread(is-a, has) switch; can-fly must stay unreached (it hangs off
	// bird, not off dog's chain).
	got := make(map[string]float32)
	for _, it := range res.Collected(0) {
		got[kb.Name(kb.Canonical(it.Node))] = it.Value
	}
	want := map[string]float32{"mammal": 1, "animal": 2, "thing": 3, "has-fur": 2}
	if len(got) != len(want) {
		t.Fatalf("collected %v, want %v", got, want)
	}
	for name, v := range want {
		if got[name] != v {
			t.Errorf("%s = %v, want %v", name, got[name], v)
		}
	}
	if _, bad := got["can-fly"]; bad {
		t.Error("can-fly leaked across the hierarchy")
	}
}

// TestShippedExceptionsProgram checks the hand-written SNAP assembly
// rendition of inheritance-with-exceptions against its documented result:
// bird and sparrow fly, penguins do not, the magic penguin flies again.
func TestShippedExceptionsProgram(t *testing.T) {
	kb, prog := loadSample(t, "inheritance.kb", "exceptions.snap")
	_, res := runSample(t, kb, prog, 2)

	got := make(map[string]bool)
	for _, it := range res.Collected(0) {
		got[kb.Name(kb.Canonical(it.Node))] = true
	}
	for _, want := range []string{"bird", "sparrow", "magic-penguin"} {
		if !got[want] {
			t.Errorf("%s should fly (got %v)", want, got)
		}
	}
	for _, blocked := range []string{"penguin", "rockhopper", "animal"} {
		if got[blocked] {
			t.Errorf("%s must not fly", blocked)
		}
	}
}
