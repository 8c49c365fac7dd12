package kbfile

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"snap1/internal/semnet"
)

// exampleKBs returns every knowledge base under examples/data.
func exampleKBs(t testing.TB) map[string][]byte {
	paths, err := filepath.Glob("../../examples/data/*.kb")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no example knowledge bases: %v", err)
	}
	out := make(map[string][]byte, len(paths))
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(p)] = b
	}
	return out
}

// Parse builds through a semnet.Builder; the locked per-element calls of
// semnet.KB must build the same network from the same file.
func TestBuiltKBMatchesPerElementKB(t *testing.T) {
	for name, src := range exampleKBs(t) {
		built, err := Parse(bytes.NewReader(src))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		kb := semnet.NewKB()
		if err := parse(bytes.NewReader(src), kb); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := semnet.Diff(built, kb); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// manyColors declares n nodes, each with a color of its own.
func manyColors(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteString("node n" + strconv.Itoa(i) + " c" + strconv.Itoa(i) + "\n")
	}
	return b.String()
}

// manyRelations declares one node and n links from it to itself, each
// of a relation of its own.
func manyRelations(n int) string {
	var b strings.Builder
	b.WriteString("node a c\n")
	for i := 0; i < n; i++ {
		b.WriteString("link a r" + strconv.Itoa(i) + " 1 a\n")
	}
	return b.String()
}

// A file may name every color and relation type the machine has (255
// colors and 65 535 relations: the last of each is reserved), and one
// more is an error naming its line, not a panic.
func TestParseNameSpaceExhausted(t *testing.T) {
	for _, tc := range []struct {
		what     string
		src      func(int) string
		fit      int
		overLine int
	}{
		{"colors", manyColors, int(semnet.ColorSubnode), int(semnet.ColorSubnode) + 1},
		{"relations", manyRelations, int(semnet.RelCont), int(semnet.RelCont) + 2},
	} {
		if _, err := Parse(strings.NewReader(tc.src(tc.fit))); err != nil {
			t.Errorf("%d %s: %v", tc.fit, tc.what, err)
		}
		_, err := Parse(strings.NewReader(tc.src(tc.fit + 1)))
		if !errors.Is(err, semnet.ErrCapacity) {
			t.Errorf("%d %s: got %v, want a capacity error", tc.fit+1, tc.what, err)
			continue
		}
		if want := "line " + strconv.Itoa(tc.overLine) + ": "; !strings.HasPrefix(err.Error(), want) {
			t.Errorf("%d %s: %q does not start with %q", tc.fit+1, tc.what, err, want)
		}
	}
}
