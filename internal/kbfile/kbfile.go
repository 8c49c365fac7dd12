// Package kbfile reads and writes semantic networks in a plain text
// format, the host-side interchange for cmd/snapsim:
//
//	# comment
//	node <name> <color-name> [fn]
//	link <from> <relation-name> <weight> <to>
//
// Node and color names are free-form words; relations and colors are
// interned in declaration order, so a network round-trips exactly.
package kbfile

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"snap1/internal/semnet"
)

// Parse reads a knowledge base from r. Nothing else can see the network
// while it is read, so it is built through a semnet.Builder.
func Parse(r io.Reader) (*semnet.KB, error) {
	b := semnet.NewBuilder(0, 0)
	if err := parse(r, b); err != nil {
		return nil, err
	}
	return b.KB(), nil
}

// network is what Parse needs of the knowledge base it fills: a
// semnet.Builder, or the per-element locked calls of *semnet.KB, which
// must build the same network.
type network interface {
	AddNode(name string, color semnet.Color) (semnet.NodeID, error)
	SetFn(id semnet.NodeID, fn semnet.FuncCode) error
	AddLink(from semnet.NodeID, rel semnet.RelType, weight float32, to semnet.NodeID) error
	Lookup(name string) (semnet.NodeID, bool)
	InternRelation(name string) (semnet.RelType, error)
	InternColor(name string) (semnet.Color, error)
}

// parse reads the text format from r into kb.
func parse(r io.Reader, kb network) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if err := parseLine(kb, fields); err != nil {
			return fmt.Errorf("line %d: %w", lineNo, err)
		}
	}
	return sc.Err()
}

func parseLine(kb network, fields []string) error {
	switch fields[0] {
	case "node":
		if len(fields) < 3 || len(fields) > 4 {
			return fmt.Errorf("node wants <name> <color> [fn], got %d operands", len(fields)-1)
		}
		color, err := kb.InternColor(fields[2])
		if err != nil {
			return err
		}
		id, err := kb.AddNode(fields[1], color)
		if err != nil {
			return err
		}
		if len(fields) == 4 {
			fn, err := parseFn(fields[3])
			if err != nil {
				return err
			}
			if err := kb.SetFn(id, fn); err != nil {
				return err
			}
		}
		return nil
	case "link":
		if len(fields) != 5 {
			return fmt.Errorf("link wants <from> <rel> <weight> <to>, got %d operands", len(fields)-1)
		}
		from, ok := kb.Lookup(fields[1])
		if !ok {
			return fmt.Errorf("unknown node %q", fields[1])
		}
		to, ok := kb.Lookup(fields[4])
		if !ok {
			return fmt.Errorf("unknown node %q", fields[4])
		}
		w, err := strconv.ParseFloat(fields[3], 32)
		if err != nil {
			return fmt.Errorf("bad weight %q", fields[3])
		}
		rel, err := kb.InternRelation(fields[2])
		if err != nil {
			return err
		}
		return kb.AddLink(from, rel, float32(w), to)
	default:
		return fmt.Errorf("unknown directive %q", fields[0])
	}
}

func parseFn(s string) (semnet.FuncCode, error) {
	switch s {
	case "nop":
		return semnet.FuncNop, nil
	case "add":
		return semnet.FuncAdd, nil
	case "min":
		return semnet.FuncMin, nil
	case "max":
		return semnet.FuncMax, nil
	case "mul":
		return semnet.FuncMul, nil
	case "dec":
		return semnet.FuncDec, nil
	}
	return 0, fmt.Errorf("unknown function %q", s)
}

// Write renders kb in the text format, nodes before links, in ID order.
// Preprocessor subnodes are skipped: they are regenerated on load.
func Write(w io.Writer, kb *semnet.KB) error {
	bw := bufio.NewWriter(w)
	for id := 0; id < kb.NumNodes(); id++ {
		n, err := kb.Node(semnet.NodeID(id))
		if err != nil {
			return err
		}
		if n.IsSubnode() {
			continue
		}
		if n.Fn != semnet.FuncNop {
			fmt.Fprintf(bw, "node %s %s %s\n", n.Name, kb.ColorName(n.Color), n.Fn)
		} else {
			fmt.Fprintf(bw, "node %s %s\n", n.Name, kb.ColorName(n.Color))
		}
	}
	for id := 0; id < kb.NumNodes(); id++ {
		n, err := kb.Node(semnet.NodeID(id))
		if err != nil {
			return err
		}
		if n.IsSubnode() {
			continue
		}
		if err := writeLinks(bw, kb, semnet.NodeID(id), kb.Links(semnet.NodeID(id))); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// writeLinks emits owner's links, flattening continuation subnodes back
// into direct links so the file holds the logical network.
func writeLinks(w io.Writer, kb *semnet.KB, owner semnet.NodeID, links []semnet.Link) error {
	for _, l := range links {
		if l.Rel == semnet.RelCont {
			if _, err := kb.Node(l.To); err != nil {
				return err
			}
			if err := writeLinks(w, kb, owner, kb.Links(l.To)); err != nil {
				return err
			}
			continue
		}
		fmt.Fprintf(w, "link %s %s %s %s\n",
			kb.Name(owner), kb.RelationName(l.Rel),
			strconv.FormatFloat(float64(l.Weight), 'g', -1, 32),
			kb.Name(kb.Canonical(l.To)))
	}
	return nil
}
