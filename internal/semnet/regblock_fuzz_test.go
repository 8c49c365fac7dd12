package semnet

import (
	"math"
	"math/bits"
	"testing"
)

// FuzzRegBlock drives one complex marker's registers at the 64 locals of
// one host status word, through the store's register writers, and a
// dense [64]register model with the same tape of writes, reads, resets,
// fills and FUNC-MARKER updates. After every step it holds the packed
// block to the model: every lane reads the model's registers (bit for
// bit), the block holds exactly the lanes written since its last reset,
// and its entries are as many as its mask has lanes.
//
// Tape: the first byte%65 is the store's initial node count; then each
// step is an opcode byte followed by its operands, and a step that runs
// out of tape ends the run.
//
//	0 b v o        SetValue at local b%64: value int8(v), origin o
//	1 b            Value and Origin at local b%64 read the model's
//	2              zeroRegisters: every lane absent
//	3 v            fillRegisters: every node's lane takes int8(v), origin 0
//	4 fn x m0..m7  FuncAll of FuncCode(fn%numFuncCodes) with operand
//	               int8(x), on the nodes of the little-endian mask m
//	5              AddNode, up to the word's 64 nodes
func FuzzRegBlock(f *testing.F) {
	f.Add([]byte{64, 0, 0, 1, 2, 0, 63, 3, 4, 0, 31, 5, 6, 1, 31, 1, 63})
	f.Add([]byte{20, 3, 9, 0, 40, 7, 7, 3, 2, 2, 0, 10, 9, 9, 5, 5, 3, 1, 1, 10})
	f.Add([]byte{64, 4, 1, 3, 0xff, 0, 0, 0, 0, 0, 0, 0x80, 0, 63, 5, 6, 4, 2, 3, 1, 0, 0, 0, 0, 0, 0, 0x80, 2, 1, 63})
	f.Add([]byte{0, 0, 63, 1, 2, 5, 5, 5, 3, 4, 0, 5, 1, 2, 0, 1, 0, 63})
	// Lanes inserted below present ones, by a write and by FuncAll.
	f.Add([]byte{64, 0, 10, 5, 1, 0, 20, 6, 2, 0, 5, 7, 3, 4, 1, 1, 0x08, 0x80, 0, 0, 0, 0, 0, 0, 1, 3})
	f.Fuzz(func(t *testing.T, tape []byte) {
		if len(tape) == 0 {
			return
		}
		const m = MarkerID(5)
		tab := NewTable(1, HostWordBits)
		s := tab.Store(0)
		addNode := func() {
			if _, err := s.AddNode(NodeID(s.NumNodes()), 0, FuncNop); err != nil {
				t.Fatal(err)
			}
		}
		for range int(tape[0]) % (HostWordBits + 1) {
			addNode()
		}
		tape = tape[1:]
		var (
			model   [HostWordBits]register
			written uint64
		)
		next := func(k int) ([]byte, bool) {
			if len(tape) < k {
				return nil, false
			}
			b := tape[:k]
			tape = tape[k:]
			return b, true
		}
		for step := 0; ; step++ {
			op, ok := next(1)
			if !ok {
				return
			}
			switch op[0] % 6 {
			case 0:
				a, ok := next(3)
				if !ok {
					return
				}
				b := int(a[0] % HostWordBits)
				reg := register{float32(int8(a[1])), NodeID(a[2])}
				s.SetValue(b, m, reg.v, reg.o)
				model[b] = reg
				written |= 1 << uint(b)
			case 1:
				a, ok := next(1)
				if !ok {
					return
				}
				b := int(a[0] % HostWordBits)
				if math.Float32bits(s.Value(b, m)) != math.Float32bits(model[b].v) || s.Origin(b, m) != model[b].o {
					t.Fatalf("step %d: read lane %d: %v/%d, want %v/%d", step, b, s.Value(b, m), s.Origin(b, m), model[b].v, model[b].o)
				}
			case 2:
				s.zeroRegisters(m)
				model, written = [HostWordBits]register{}, 0
			case 3:
				a, ok := next(1)
				if !ok {
					return
				}
				v := float32(int8(a[0]))
				s.fillRegisters(m, v)
				for b := range s.NumNodes() {
					model[b] = register{v, 0}
				}
				written |= s.valid[0]
			case 4:
				a, ok := next(10)
				if !ok {
					return
				}
				fn, x := FuncCode(a[0]%uint8(numFuncCodes)), float32(int8(a[1]))
				var set uint64
				for i, c := range a[2:] {
					set |= uint64(c) << (8 * uint(i))
				}
				set &= s.valid[0]
				s.status[m][0] = set
				s.FuncAll(m, fn, x)
				for w := set; w != 0; w &= w - 1 {
					b := bits.TrailingZeros64(w)
					model[b].v = fn.Apply(model[b].v, x)
				}
				written |= set
			case 5:
				if s.NumNodes() < HostWordBits {
					addNode()
				}
			}
			var mask uint64
			entries := 0
			if blk := s.Registers(m, 0); blk != nil {
				mask, entries = blk.mask, len(blk.r)
			}
			if mask != written || entries != bits.OnesCount64(mask) {
				t.Fatalf("step %d: block holds mask %#x with %d entries, want the written lanes %#x", step, mask, entries, written)
			}
			for b := range HostWordBits {
				if math.Float32bits(s.Value(b, m)) != math.Float32bits(model[b].v) || s.Origin(b, m) != model[b].o {
					t.Fatalf("step %d: lane %d reads %v/%d, want %v/%d", step, b, s.Value(b, m), s.Origin(b, m), model[b].v, model[b].o)
				}
			}
		}
	})
}
