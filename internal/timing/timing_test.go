package timing

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"
)

func TestUnitsExact(t *testing.T) {
	if Second != 1_000_000_000_000*Picosecond {
		t.Fatalf("Second = %d ps", int64(Second))
	}
	if got := (2500 * Picosecond).Nanoseconds(); got != 2.5 {
		t.Errorf("2500ps = %vns, want 2.5", got)
	}
	if got := (3 * Millisecond).Seconds(); got != 0.003 {
		t.Errorf("3ms = %vs", got)
	}
	if got := (Second + 500*Millisecond).Duration(); got != 1500*time.Millisecond {
		t.Errorf("Duration = %v", got)
	}
}

func TestClockDomainPeriodsExact(t *testing.T) {
	// The 25 MHz PE clock has a 40 ns period and the 32 MHz controller
	// clock 31.25 ns; both must be integral in picoseconds.
	if got := PEClock.Period(); got != 40*Nanosecond {
		t.Errorf("PE period = %v", got)
	}
	if got := ControllerClock.Period(); got != 31250*Picosecond {
		t.Errorf("controller period = %v", got)
	}
	if got := PEClock.Cycles(25_000_000); got != Second {
		t.Errorf("25M PE cycles = %v, want 1s", got)
	}
	if Hz(0).Period() != 0 {
		t.Error("zero frequency must have zero period")
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500 * Picosecond, "500ps"},
		{80 * Nanosecond, "80.00ns"},
		{50 * Microsecond, "50.00µs"},
		{3 * Millisecond, "3.00ms"},
		{2 * Second, "2.000s"},
		{-80 * Nanosecond, "-80.00ns"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("%d ps → %q, want %q", int64(c.t), got, c.want)
		}
	}
}

// sprintfString is the fmt-based format String had before AppendTo; it
// stays here as the reference the strconv path is held to.
func sprintfString(t Time) string {
	switch {
	case t < 0:
		return "-" + sprintfString(-t)
	case t < Nanosecond:
		return fmt.Sprintf("%dps", int64(t))
	case t < Microsecond:
		return fmt.Sprintf("%.2fns", t.Nanoseconds())
	case t < Millisecond:
		return fmt.Sprintf("%.2fµs", t.Microseconds())
	case t < Second:
		return fmt.Sprintf("%.2fms", t.Milliseconds())
	default:
		return fmt.Sprintf("%.3fs", t.Seconds())
	}
}

func TestAppendToMatchesSprintf(t *testing.T) {
	cases := []Time{
		0, 1, 999, // ps
		Nanosecond, 1005, 80 * Nanosecond, 999_994, 999_995, 999_999, // ns, and rounding up to "1000.00ns"
		Microsecond, 250_850_000, 999_999_999, // µs
		Millisecond, 3 * Millisecond, 12_345_678_901, 999_999_999_999, // ms
		Second, 2 * Second, 1_234_567_890_123, 106 * 24 * 3600 * Second, // s
	}
	for _, c := range cases {
		for _, v := range []Time{c, -c} {
			want := sprintfString(v)
			if got := v.String(); got != want {
				t.Errorf("%d ps: String %q, fmt reference %q", int64(v), got, want)
			}
			if got := string(v.AppendTo([]byte("t="))); got != "t="+want {
				t.Errorf("%d ps: AppendTo %q, want %q appended to the prefix", int64(v), got, want)
			}
		}
	}
	same := func(ps int64) bool {
		if ps == -1<<63 { // has no positive counterpart; the reference recurses forever on it
			return true
		}
		return Time(ps).String() == sprintfString(Time(ps))
	}
	if err := quick.Check(same, nil); err != nil {
		t.Error(err)
	}
	var buf [32]byte
	if n := testing.AllocsPerRun(100, func() { _ = Time(250_850_000).AppendTo(buf[:0]) }); n != 0 {
		t.Errorf("AppendTo into a buffer with room allocates %v times", n)
	}
}

func TestClockMonotone(t *testing.T) {
	c := NewClock(PEClock)
	c.Tick(10)
	if c.Now() != 400*Nanosecond {
		t.Fatalf("10 PE cycles = %v", c.Now())
	}
	c.Advance(-time50())
	if c.Now() != 400*Nanosecond {
		t.Error("negative Advance must be ignored")
	}
	c.Sync(100 * Nanosecond)
	if c.Now() != 400*Nanosecond {
		t.Error("Sync to the past must be ignored")
	}
	c.Sync(1 * Microsecond)
	if c.Now() != Microsecond {
		t.Errorf("Sync forward failed: %v", c.Now())
	}
	c.Reset()
	if c.Now() != 0 {
		t.Error("Reset must rewind to zero")
	}
	if c.Freq() != PEClock {
		t.Error("Freq mismatch")
	}
}

func time50() Time { return 50 * Nanosecond }

func TestMaxProperty(t *testing.T) {
	f := func(a, b int64) bool {
		m := Max(Time(a), Time(b))
		return m >= Time(a) && m >= Time(b) && (m == Time(a) || m == Time(b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCostModelConversions(t *testing.T) {
	m := DefaultCostModel()
	// SET/CLEAR calibration: decode + 32 status words on a full
	// 1024-node cluster should land near the paper's 50 µs.
	cycles := m.DecodeCycles + m.EnqueueCycles + 32*m.StatusWordCycles
	got := m.PECost(cycles)
	if got < 40*Microsecond || got > 60*Microsecond {
		t.Errorf("SET-MARKER over 1K nodes = %v, want ≈50µs", got)
	}
	if m.HopLatency != 80*Nanosecond {
		t.Errorf("hop latency = %v, want 80ns", m.HopLatency)
	}
	if m.CtrlCost(32) != 32*ControllerClock.Period() {
		t.Error("CtrlCost mismatch")
	}
}

func TestClockSyncQuick(t *testing.T) {
	// A clock is monotone under any interleaving of operations.
	f := func(ops []int64) bool {
		c := NewClock(PEClock)
		prev := Time(0)
		for _, op := range ops {
			switch {
			case op%3 == 0:
				c.Advance(Time(op))
			case op%3 == 1:
				c.Sync(Time(op))
			default:
				c.Tick(op % 1000)
			}
			if c.Now() < prev {
				return false
			}
			prev = c.Now()
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
