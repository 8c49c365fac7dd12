package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// TestSmoke runs the whole program once in -smoke form — every workload,
// untraced and traced, against a really built and exec'd snapd — and
// checks that every metric BENCHMARK.json names is printed with its unit
// for every workload, that the checks pass, and that no snapd is left
// behind.
func TestSmoke(t *testing.T) {
	if err := os.Chdir(".."); err != nil { // the program runs from the checkout's root
		t.Fatal(err)
	}
	defer func() {
		if err := os.Chdir("benchmark"); err != nil {
			t.Fatal(err)
		}
	}()
	mf, err := loadManifest(".")
	if err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-smoke", "-out", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s\n%s", code, stderr.String(), stdout.String())
	}

	// Table rows: two spaces, name, value, unit.
	rows := regexp.MustCompile(`(?m)^  (\S+)\s+-?[0-9.]+ (\S+)$`)
	sections := bytes.Split(stdout.Bytes(), []byte("\n== "))[1:]
	if len(sections) != len(workloads) {
		t.Fatalf("printed %d workloads, want %d\n%s", len(sections), len(workloads), stdout.String())
	}
	for i, sec := range sections {
		if !bytes.HasPrefix(sec, []byte(workloads[i].name+" ")) {
			t.Fatalf("section %d is not %s:\n%s", i, workloads[i].name, sec)
		}
		units := make(map[string]string)
		for _, m := range rows.FindAllSubmatch(sec, -1) {
			units[string(m[1])] = string(m[2])
		}
		for _, want := range append(append([]manifestMetric(nil), mf.EndToEnd...), mf.PerLayer...) {
			if got, ok := units[want.Name]; !ok {
				t.Errorf("%s: %s not printed", workloads[i].name, want.Name)
			} else if got != want.Unit {
				t.Errorf("%s: %s printed in %s, BENCHMARK.json says %s", workloads[i].name, want.Name, got, want.Unit)
			}
		}
	}

	var rep report
	b, err := os.ReadFile(filepath.Join(out, "report.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Sets) != 1 || len(rep.Sets[0]) != len(workloads) {
		t.Fatalf("report.json holds %d sets", len(rep.Sets))
	}
	for _, r := range rep.Sets[0] {
		if r.Failed != 0 || len(r.Problems) != 0 || r.Attempted == 0 {
			t.Errorf("%s: attempted %d, failed %d, problems %v", r.Name, r.Attempted, r.Failed, r.Problems)
		}
		for _, m := range mf.EndToEnd {
			if r.Metrics[m.Name] <= 0 {
				t.Errorf("%s: end-to-end metric %s is %g; a gated metric is never zero", r.Name, m.Name, r.Metrics[m.Name])
			}
		}
	}
	var spans []span
	if b, err = os.ReadFile(filepath.Join(out, "trace.json")); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &spans); err != nil || len(spans) == 0 {
		t.Fatalf("trace.json: %d spans, %v", len(spans), err)
	}

	children.Lock()
	defer children.Unlock()
	if n := len(children.live); n != 0 {
		t.Errorf("%d snapd processes still alive after the run", n)
	}
}
