package isa

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"snap1/internal/rules"
	"snap1/internal/semnet"
)

// FuzzAssemble holds the HTTP-facing assembler to its contract on any
// text: it never panics, every rejection wraps ErrBadProgram, and a
// program it accepts validates and survives Disassemble → re-assemble
// with the same content hash. The checked-in corpus
// (testdata/fuzz/FuzzAssemble) seeds the line-splitting and operand
// edge cases.
func FuzzAssemble(f *testing.F) {
	f.Add(sampleAsm)
	f.Fuzz(func(t *testing.T, src string) {
		kb := asmKB(t)
		asm := NewAssembler(kb)
		p, err := asm.AssembleString(src)
		if err != nil {
			if !errors.Is(err, ErrBadProgram) {
				t.Fatalf("rejection does not wrap ErrBadProgram: %v", err)
			}
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("assembled program fails Validate: %v", err)
		}
		viaReader, err := asm.Assemble(strings.NewReader(src))
		if err != nil || viaReader.Hash() != p.Hash() {
			t.Fatalf("Assemble(reader) disagrees with AssembleString: %v", err)
		}
		var text strings.Builder
		for i := range p.Instrs {
			text.WriteString(Disassemble(&p.Instrs[i], kb, p.Rules))
			text.WriteByte('\n')
		}
		again, err := asm.AssembleString(text.String())
		if err != nil {
			t.Fatalf("disassembly does not re-assemble: %v\n%s", err, text.String())
		}
		if again.Hash() != p.Hash() {
			t.Fatalf("hash %016x became %016x through\n%s", p.Hash(), again.Hash(), text.String())
		}
	})
}

// TestAssembleLineLimit: a line may be 64 KB less one byte (a carriage
// return counts); a longer one is a bad program, wherever the line ends.
// bufio.Scanner's limit used to surface as an untyped error.
func TestAssembleLineLimit(t *testing.T) {
	asm := NewAssembler(asmKB(t))
	pad := func(n int) string { return "comm-end #" + strings.Repeat("x", n-len("comm-end #")) }
	for _, tail := range []string{"", "\n", "\ncomm-end\n"} {
		if _, err := asm.AssembleString(pad(maxLineBytes-1) + tail); err != nil {
			t.Errorf("a %d-byte line (tail %q): %v", maxLineBytes-1, tail, err)
		}
		_, err := asm.AssembleString("comm-end\n" + pad(maxLineBytes) + tail)
		if !errors.Is(err, ErrBadProgram) || !strings.Contains(err.Error(), "line 2") {
			t.Errorf("a %d-byte line (tail %q): %v, want ErrBadProgram naming line 2", maxLineBytes, tail, err)
		}
	}
}

// TestAssembleResolvesNamesWithoutInterning: only an operand that writes
// a relation or color into the network may bring a new name into the KB.
func TestAssembleResolvesNamesWithoutInterning(t *testing.T) {
	kb := asmKB(t)
	asm := NewAssembler(kb)
	for _, src := range []string{
		"search-relation rel=nope marker=c1 value=0",
		"search-color color=nope marker=c1 value=0",
		"collect-relation marker=c1 rel=nope",
		"delete src=we rel=nope dst=animate",
		"marker-delete marker=c1 rel=nope dst=animate",
		"marker-delete marker=c1 rel=is-a dst=animate rev=nope",
		"propagate m1=c1 m2=c2 rule=path(nope) fn=add",
		"propagate m1=c1 m2=c2 rule=seq(is-a,nope) fn=add",
	} {
		_, err := asm.AssembleString(src)
		if !errors.Is(err, ErrBadProgram) || !strings.Contains(err.Error(), `"nope"`) {
			t.Errorf("%s: %v, want ErrBadProgram naming the unknown name", src, err)
		}
	}
	if _, ok := kb.LookupRelation("nope"); ok {
		t.Error("a reading operand interned a relation")
	}
	if _, ok := kb.LookupColor("nope"); ok {
		t.Error("a reading operand interned a color")
	}

	p, err := asm.AssembleString("create src=we rel=made w=1 dst=animate\n" +
		"marker-create marker=c1 rel=made2 dst=animate rev=made3\n" +
		"set-color node=we color=tint\nmarker-set-color marker=c1 color=tint2\n" +
		"propagate m1=c1 m2=c2 rule=step(made) fn=nop")
	if err != nil {
		t.Fatal(err)
	}
	made, ok := kb.LookupRelation("made")
	if !ok || p.Instrs[0].Rel != made {
		t.Error("create did not intern its relation")
	}
	for _, name := range []string{"made2", "made3"} {
		if _, ok := kb.LookupRelation(name); !ok {
			t.Errorf("marker-create did not intern %q", name)
		}
	}
	for _, name := range []string{"tint", "tint2"} {
		if _, ok := kb.LookupColor(name); !ok {
			t.Errorf("color %q not interned", name)
		}
	}
}

// TestAssembleFullNameSpaceIsAnError: once the color space is full, a
// creating operand reports it — ErrBadProgram for the caller, ErrCapacity
// for whoever wants the cause — where KB.ColorFor panics.
func TestAssembleFullNameSpaceIsAnError(t *testing.T) {
	kb := asmKB(t)
	asm := NewAssembler(kb)
	var err error
	n := 0
	for ; err == nil && n < 512; n++ { // twice the 256 colors a semnet.Color holds
		_, err = asm.AssembleString(fmt.Sprintf("set-color node=we color=tint%d", n))
	}
	if !errors.Is(err, ErrBadProgram) || !errors.Is(err, semnet.ErrCapacity) {
		t.Fatalf("after %d colors: %v, want ErrBadProgram wrapping ErrCapacity", n, err)
	}
	if _, err := asm.AssembleString("search-color color=class marker=c1 value=0"); err != nil {
		t.Errorf("a known color no longer resolves: %v", err)
	}
}

// TestAssembleRejectsStrayOperands: an operand the opcode does not take
// is refused, not carried into the hash where no disassembly shows it.
func TestAssembleRejectsStrayOperands(t *testing.T) {
	asm := NewAssembler(asmKB(t))
	for _, src := range []string{
		"comm-end marker=c1",
		"collect-node marker=c1 value=3",
		"search-node node=we marker=c1 value=0 rel=is-a",
		"propagate m1=c1 m2=c2 rule=path(is-a) fn=add weight=2",
		"search-node node=7 marker=c1 value=0", // a numeric node the KB does not hold
	} {
		if _, err := asm.AssembleString(src); !errors.Is(err, ErrBadProgram) {
			t.Errorf("%s: %v, want ErrBadProgram", src, err)
		}
	}
}

// TestSealedHashCannotGoStale: Hash of an unsealed program follows its
// content; Seal keeps the value and closes the program to Add, through
// every builder method.
func TestSealedHashCannotGoStale(t *testing.T) {
	kb := asmKB(t)
	isA, _ := kb.LookupRelation("is-a")
	p := NewProgram().SearchNode(0, 1, 0)
	h1 := p.Hash()
	p.Propagate(1, 2, rules.Path(isA), semnet.FuncAdd)
	h2 := p.Hash()
	if h1 == h2 {
		t.Fatal("an unsealed program's hash did not follow an Add")
	}
	p.Seal()
	if p.Hash() != h2 {
		t.Fatal("Seal changed the hash")
	}
	err := p.Add(Instruction{Op: OpCommEnd})
	if !errors.Is(err, ErrBadProgram) || p.Len() != 2 {
		t.Fatalf("Add on a sealed program: %v, len %d", err, p.Len())
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("a builder method extended a sealed program")
			}
		}()
		p.CollectNode(2)
	}()
	if p.Hash() != h2 || p.Len() != 2 {
		t.Fatal("a refused Add moved the sealed program")
	}
	// The same content, never sealed, hashes the same.
	q := NewProgram().SearchNode(0, 1, 0).Propagate(1, 2, rules.Path(isA), semnet.FuncAdd)
	if q.Hash() != h2 {
		t.Fatal("sealed and unsealed hashes of equal programs differ")
	}
}
