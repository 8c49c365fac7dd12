package fault

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func intp(v int) *int { return &v }

func TestParseSiteRoundTrip(t *testing.T) {
	for _, s := range []Site{ICNDrop, ICNDup, ICNDelay, MachineWedge, MachineSlow} {
		got, err := ParseSite(s.String())
		if err != nil || got != s {
			t.Errorf("round trip %v: got %v, %v", s, got, err)
		}
	}
	for _, name := range []string{"bogus", "", "site-3"} {
		if _, err := ParseSite(name); err == nil {
			t.Errorf("unknown site %q accepted", name)
		}
	}
}

// arb-stall was a site until the arbiter lost its injection point; a plan
// that still names it must be refused, not armed and never fired.
func TestParseRefusesRetiredSite(t *testing.T) {
	_, err := Parse(strings.NewReader(`{"seed": 1, "rules": [{"site": "arb-stall", "rate": 0.05}]}`))
	if err == nil || !strings.Contains(err.Error(), `unknown site "arb-stall"`) {
		t.Fatalf("plan naming arb-stall: %v", err)
	}
}

// The five sites' decision streams are seeded from (seed, numeric site,
// replica), so they are pinned to what the tree drew while site 3 was
// still assigned: bit i of each word is decision i at rate 0.5, seed 42,
// replica 3.
func TestDecisionStreamsPinned(t *testing.T) {
	want := []struct {
		site string
		num  Site
		bits uint32
	}{
		{"icn-drop", 0, 0xd4d8ca72},
		{"icn-dup", 1, 0x6591aa90},
		{"icn-delay", 2, 0x8fa12574},
		{"machine-wedge", 4, 0x245af39c},
		{"machine-slow", 5, 0x2998b037},
	}
	plan := &Plan{Seed: 42}
	for _, w := range want {
		plan.Rules = append(plan.Rules, Rule{Site: w.site, Rate: 0.5})
	}
	in := plan.Injector(3)
	draw := map[string]func() bool{
		"icn-drop":      in.DropICN,
		"icn-dup":       in.DupICN,
		"icn-delay":     func() bool { _, ok := in.DelayICN(); return ok },
		"machine-wedge": in.WedgeRun,
		"machine-slow":  func() bool { return in.SlowRun() > 0 },
	}
	for _, w := range want {
		if got, _ := ParseSite(w.site); got != w.num {
			t.Errorf("%s is site %d, want %d", w.site, got, w.num)
		}
		var bits uint32
		for i := 0; i < 32; i++ {
			if draw[w.site]() {
				bits |= 1 << i
			}
		}
		if bits != w.bits {
			t.Errorf("%s: decisions %#08x, want %#08x", w.site, bits, w.bits)
		}
	}
}

func TestParsePlan(t *testing.T) {
	src := `{"seed": 42, "rules": [
		{"site": "icn-drop", "rate": 0.01},
		{"site": "machine-wedge", "rate": 1, "replica": 2, "count": 3}
	]}`
	p, err := Parse(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 42 || len(p.Rules) != 2 {
		t.Fatalf("parsed %+v", p)
	}
	if p.Rules[1].Replica == nil || *p.Rules[1].Replica != 2 {
		t.Fatalf("replica rule: %+v", p.Rules[1])
	}
}

func TestParseRejectsUnknownFields(t *testing.T) {
	if _, err := Parse(strings.NewReader(`{"seed": 1, "frequency": 2}`)); err == nil {
		t.Error("unknown field accepted")
	}
}

func TestPlanValidateReportsAllErrors(t *testing.T) {
	p := &Plan{Rules: []Rule{
		{Site: "bogus", Rate: 0.5},
		{Site: "icn-drop", Rate: 1.5},
		{Site: "icn-dup", Rate: 0.1, After: -1},
		{Site: "icn-delay", Rate: 0.1, Replica: intp(-3)},
	}}
	err := p.Validate()
	if err == nil {
		t.Fatal("invalid plan accepted")
	}
	for _, want := range []string{"unknown site", "outside [0, 1]", "after -1", "replica -3"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}

func TestInjectorDeterminism(t *testing.T) {
	plan := &Plan{Seed: 7, Rules: []Rule{{Site: "icn-drop", Rate: 0.1}}}
	draw := func(replica int) []bool {
		in := plan.Injector(replica)
		out := make([]bool, 5000)
		for i := range out {
			out[i] = in.DropICN()
		}
		return out
	}
	a, b := draw(0), draw(0)
	fires := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs between identical injectors", i)
		}
		if a[i] {
			fires++
		}
	}
	if fires < 300 || fires > 700 {
		t.Errorf("rate 0.1 over 5000 draws fired %d times", fires)
	}
	c := draw(1)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("replica streams are not independent")
	}
}

func TestAfterAndCountSchedule(t *testing.T) {
	plan := &Plan{Seed: 1, Rules: []Rule{{Site: "machine-wedge", Rate: 1, After: 10, Count: 2}}}
	in := plan.Injector(0)
	for i := 0; i < 10; i++ {
		if in.WedgeRun() {
			t.Fatalf("fired during the after window (decision %d)", i)
		}
	}
	if !in.WedgeRun() || !in.WedgeRun() {
		t.Fatal("count budget not honored")
	}
	for i := 0; i < 20; i++ {
		if in.WedgeRun() {
			t.Fatal("fired past the count budget")
		}
	}
	if in.Total() != 2 {
		t.Errorf("total = %d", in.Total())
	}
}

func TestReplicaFilter(t *testing.T) {
	plan := &Plan{Seed: 1, Rules: []Rule{{Site: "icn-drop", Rate: 1, Replica: intp(1)}}}
	if plan.Injector(0).DropICN() {
		t.Error("rule fired on wrong replica")
	}
	if !plan.Injector(1).DropICN() {
		t.Error("rule did not fire on its replica")
	}
}

func TestDelayAndStallMagnitudes(t *testing.T) {
	plan := &Plan{Seed: 1, Rules: []Rule{
		{Site: "icn-delay", Rate: 1, DelayPs: 123},
		{Site: "machine-slow", Rate: 1, StallUs: 5},
	}}
	in := plan.Injector(0)
	if d, ok := in.DelayICN(); !ok || d != 123 {
		t.Errorf("delay = %d, %v", d, ok)
	}
	if d := in.SlowRun(); d != 5*time.Microsecond {
		t.Errorf("stall = %v", d)
	}
	slow := (&Plan{Seed: 1, Rules: []Rule{{Site: "machine-slow", Rate: 1}}}).Injector(0)
	if d := slow.SlowRun(); d != DefaultStall {
		t.Errorf("default slow = %v", d)
	}
	if in.Corrupting() != 1 {
		t.Errorf("corrupting = %d (stalls must not poison)", in.Corrupting())
	}
}

func TestHookFiresPerInjection(t *testing.T) {
	plan := &Plan{Seed: 3, Rules: []Rule{{Site: "icn-drop", Rate: 1, Count: 4}}}
	in := plan.Injector(0)
	var got []Site
	in.SetHook(func(s Site) { got = append(got, s) })
	for i := 0; i < 10; i++ {
		in.DropICN()
	}
	if len(got) != 4 {
		t.Fatalf("hook fired %d times", len(got))
	}
	for _, s := range got {
		if s != ICNDrop {
			t.Errorf("hook site %v", s)
		}
	}
}

func TestNilInjectorIsInert(t *testing.T) {
	var p *Plan
	in := p.Injector(0)
	if in != nil {
		t.Fatal("nil plan must yield nil injector")
	}
	if in.DropICN() || in.DupICN() || in.WedgeRun() {
		t.Error("nil injector fired")
	}
	if d, ok := in.DelayICN(); ok || d != 0 {
		t.Error("nil injector delayed")
	}
	if in.SlowRun() != 0 || in.Corrupting() != 0 || in.Total() != 0 {
		t.Error("nil injector counted")
	}
	in.SetHook(func(Site) {})
	if in.Stats() != nil {
		t.Error("nil injector stats")
	}
}

func TestStatsSnapshot(t *testing.T) {
	plan := &Plan{Seed: 1, Rules: []Rule{{Site: "icn-dup", Rate: 0.5}}}
	in := plan.Injector(0)
	for i := 0; i < 100; i++ {
		in.DupICN()
	}
	st := in.Stats()
	if len(st) != 1 || st[0].Site != "icn-dup" || st[0].Decisions != 100 {
		t.Fatalf("stats = %+v", st)
	}
	if st[0].Injected <= 0 || st[0].Injected >= 100 {
		t.Errorf("injected = %d", st[0].Injected)
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load("/nonexistent/plan.json"); err == nil {
		t.Error("missing file accepted")
	}
}

func TestErrInjectedWraps(t *testing.T) {
	err := errorsJoin()
	if !errors.Is(err, ErrInjected) {
		t.Fatal("wrapped ErrInjected not detected")
	}
}

func errorsJoin() error {
	return errors.Join(errors.New("run poisoned"), ErrInjected)
}
