package main

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

func poolsFor(t *testing.T, seed int64) *pools {
	t.Helper()
	g, err := generateKB(seed)
	if err != nil {
		t.Fatal(err)
	}
	return buildPools(g, seed, 2, 512)
}

func flatten(p *pools) []byte {
	var b bytes.Buffer
	for _, es := range [][]entry{p.cold, p.hot} {
		for _, e := range es {
			b.WriteString(e.text)
			b.Write(e.body)
		}
	}
	for _, body := range p.batches {
		b.Write(body)
	}
	for _, l := range p.churn {
		b.Write(l.create)
		b.Write(l.delete)
		b.Write(l.readback.body)
	}
	return b.Bytes()
}

func TestSameSeedSameBytes(t *testing.T) {
	a, b := flatten(poolsFor(t, 42)), flatten(poolsFor(t, 42))
	if !bytes.Equal(a, b) {
		t.Fatal("two builds from seed 42 differ")
	}
	if bytes.Equal(a, flatten(poolsFor(t, 7))) {
		t.Fatal("seeds 42 and 7 give the same pools")
	}
}

func TestPoolShape(t *testing.T) {
	p := poolsFor(t, 42)
	if len(p.cold) != 512 || len(p.hot) != hotPoolSize || len(p.batches) != 512/batchMembers || len(p.churn) != 2 {
		t.Fatalf("sizes: cold %d hot %d batches %d churn %d", len(p.cold), len(p.hot), len(p.batches), len(p.churn))
	}
	// Any eight consecutive entries (one batch) hold inherit:subsume:classify = 4:2:2.
	for i := 0; i+batchMembers <= len(p.cold); i += batchMembers {
		var n [3]int
		for _, e := range p.cold[i : i+batchMembers] {
			n[e.q.tmpl]++
		}
		if n != [3]int{4, 2, 2} {
			t.Fatalf("batch %d mixes templates %v, want [4 2 2]", i/batchMembers, n)
		}
	}
	// Every text is distinct, so every cache keyed on text or program misses.
	seen := make(map[string]bool)
	for _, e := range append(append([]entry(nil), p.cold...), p.hot...) {
		if seen[e.text] {
			t.Fatalf("text appears twice:\n%s", e.text)
		}
		seen[e.text] = true
	}
	// No query starts from a churn leaf, so a toggled link cannot change a read.
	for _, l := range p.churn {
		for text := range seen {
			if strings.Contains(text, "node="+l.from+" ") || strings.Contains(text, "node="+l.to+" ") {
				t.Fatalf("churn leaf of %s -> %s is a query source:\n%s", l.from, l.to, text)
			}
		}
	}
}

func TestVariantsDifferOnlyInValue(t *testing.T) {
	q := poolsFor(t, 42).cold[3].q // a classify
	a, b := q.render(1), q.render(2)
	if a == b {
		t.Fatal("two values render the same text")
	}
	if strings.ReplaceAll(a, "value=1", "value=2") != b {
		t.Fatalf("variants differ in more than the value:\n%s\n%s", a, b)
	}
}

// A template's row count is its cost on both clocks. It must not depend
// on the seed, or ten seeds measure ten workloads.
func TestRowCountsAreSeedIndependent(t *testing.T) {
	counts := func(seed int64) map[template]map[int]bool {
		o, err := newOracle(seed)
		if err != nil {
			t.Fatal(err)
		}
		defer o.m.Close()
		p := buildPools(o.g, seed, 2, 64)
		got := map[template]map[int]bool{tInherit: {}, tSubsume: {}, tClassify: {}}
		for _, e := range p.cold {
			rows, err := o.answer(e.text)
			if err != nil {
				t.Fatal(err)
			}
			if e.q.tmpl != tClassify { // common ancestors of two leaves: 1 to 5
				got[e.q.tmpl][len(rows[0])] = true
			}
		}
		return got
	}
	a, b := counts(42), counts(7)
	for _, tmpl := range []template{tInherit, tSubsume} {
		if len(a[tmpl]) == 0 || len(a[tmpl]) > 2 || len(a[tmpl]) != len(b[tmpl]) {
			t.Fatalf("%s: row counts %v at seed 42, %v at seed 7", tmpl, a[tmpl], b[tmpl])
		}
		for n := range a[tmpl] {
			if !b[tmpl][n] {
				t.Errorf("%s: %d rows at seed 42 but never at seed 7 (%v)", tmpl, n, b[tmpl])
			}
		}
	}
	if len(a[tInherit]) != 1 || len(a[tSubsume]) != 2 {
		t.Errorf("inherit has row counts %v (want one), subsume %v (want two: depth 1 and depth 2)", a[tInherit], a[tSubsume])
	}
}

// Seed 99 generates a network on which sentence S1 parses to a filler
// sequence; sim-parse must step past it, the same way every time, and
// leave a well-posed seed alone.
func TestWellPosedSeed(t *testing.T) {
	if _, err := newSimTarget(99); !errors.Is(err, errIllPosed) {
		t.Fatalf("seed 99 was the example of an ill-posed network; newSimTarget now says %v", err)
	}
	for seed, want := range map[int64]int64{99: 99 + seedStride, 42: 42} {
		for i := 0; i < 2; i++ {
			got, err := wellPosedSeed(seed)
			if err != nil || got != want {
				t.Fatalf("wellPosedSeed(%d) = %d, %v; want %d", seed, got, err, want)
			}
		}
	}
}
