package perfmon

import (
	"testing"

	"snap1/internal/timing"
)

func TestEmitTimestampsSerialOccupancy(t *testing.T) {
	c := NewCollector(16)
	// Two back-to-back events from the same PE: the second record's
	// timestamp must trail by one 32-bit shift at 2 Mb/s (16 µs).
	c.Emit(3, EvMsgSend, 7, 0)
	c.Emit(3, EvMsgSend, 8, 0)
	recs := c.Drain()
	if len(recs) != 2 {
		t.Fatalf("drained %d records", len(recs))
	}
	want := timing.Time(32) * timing.Second / LinkRate
	if recs[0].Timestamp != want {
		t.Errorf("first arrival %v, want %v", recs[0].Timestamp, want)
	}
	if recs[1].Timestamp != 2*want {
		t.Errorf("second arrival %v, want %v (serial link occupancy)", recs[1].Timestamp, 2*want)
	}
}

func TestEmitIndependentLinks(t *testing.T) {
	c := NewCollector(16)
	c.Emit(0, EvInstrStart, 1, 0)
	c.Emit(1, EvInstrStart, 2, 0)
	recs := c.Drain()
	if recs[0].Timestamp != recs[1].Timestamp {
		t.Error("distinct PEs have independent serial links")
	}
}

func TestStatusMaskedTo24Bits(t *testing.T) {
	c := NewCollector(4)
	c.Emit(0, EvCollect, 0xFFFFFFFF, 0)
	if got := c.Drain()[0].Status; got != 0xFFFFFF {
		t.Errorf("status = %#x, want 24-bit mask", got)
	}
}

func TestFIFOOverflowDrops(t *testing.T) {
	c := NewCollector(2)
	for i := 0; i < 5; i++ {
		c.Emit(0, EvMsgSend, uint32(i), 0)
	}
	if c.Len() != 2 {
		t.Fatalf("FIFO holds %d", c.Len())
	}
	if c.Dropped() != 3 {
		t.Fatalf("dropped = %d", c.Dropped())
	}
}

func TestEventCodeNames(t *testing.T) {
	codes := []EventCode{
		EvInstrStart, EvInstrEnd, EvPropTaskRun, EvMsgSend, EvMsgRecv,
		EvBarrierEnter, EvBarrierDone, EvCollect, EvQueueFull,
	}
	seen := make(map[string]bool)
	for _, ec := range codes {
		name := ec.String()
		if name == "none" || seen[name] {
			t.Errorf("event %d name %q", ec, name)
		}
		seen[name] = true
	}
	if EvNone.String() != "none" {
		t.Error("EvNone name")
	}
}
