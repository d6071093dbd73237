package main

import (
	"encoding/json"
	"errors"
	"io"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"github.com/gitcite/gitcite/internal/core"
	"github.com/gitcite/gitcite/internal/hosting"
	"github.com/gitcite/gitcite/internal/vcs/object"
)

func tinyConfig(t *testing.T, workload string) *config {
	return &config{workload: workload, seed: 7, seconds: 2, workdir: t.TempDir(), clients: 2, tiny: true}
}

// benchmarkFile is the benchmark's declaration, one directory up.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// checkMetrics asserts a result reports exactly the declared metrics, with
// their declared units.
func checkMetrics(t *testing.T, res *result, want []struct{ Name, Unit string }) {
	t.Helper()
	var got, names []string
	for name, m := range res.Metrics {
		got = append(got, name+" "+m.Unit)
	}
	for _, m := range want {
		names = append(names, m.Name+" "+m.Unit)
	}
	sort.Strings(got)
	sort.Strings(names)
	if !reflect.DeepEqual(got, names) {
		t.Errorf("metrics %v, declared %v", got, names)
	}
}

// Every workload passes its oracles at a tiny size, untraced and traced,
// and reports exactly the metrics BENCHMARK.json declares.
func TestWorkloadsPassTiny(t *testing.T) {
	b := readBenchmarkFile(t)
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(b.Workloads), len(workloads))
	}
	for _, wl := range b.Workloads {
		for _, trace := range []bool{false, true} {
			cfg := tinyConfig(t, wl.Name)
			cfg.trace = trace
			res, err := run(cfg, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", wl.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if trace {
				checkMetrics(t, res, b.PerLayer)
			} else {
				checkMetrics(t, res, b.EndToEnd)
			}
		}
	}
}

// An oracle that expects every citation one cited path over must make
// every workload's run incorrect: the checks bite.
func TestWrongOracleFailsRun(t *testing.T) {
	for name := range workloads {
		cfg := tinyConfig(t, name)
		cfg.shift = true
		res, err := run(cfg, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Correct {
			t.Errorf("%s: run with a shifted oracle reported correct", name)
		}
	}
}

// Every kind of check accepts the right answer and rejects it under the
// shifted oracle, so none of them passes whatever it is given.
func TestEachCheckBites(t *testing.T) {
	rng := newRNG(7, 1)
	tr := genTree(rng, shape{fanout: []int{2, 2}, files: 2})
	m := citeMap{"/": genCite(rng, "o", "root")}
	for _, i := range pick(rng, len(tr.entries), 3) {
		m[tr.entries[i].path] = genCite(rng, "o", tr.entries[i].path)
	}
	entries := map[string]core.Citation{}
	for p, c := range m {
		entries[p] = c.citation("o")
	}
	fn, err := core.FromEntries(entries)
	if err != nil {
		t.Fatal(err)
	}
	var page hosting.TreePage
	for _, e := range tr.entries {
		_, cited := m[e.path]
		page.Entries = append(page.Entries, hosting.TreeEntryResponse{Path: e.path, IsDir: e.isDir, Cited: cited})
	}
	commit := object.ID{7}
	for _, e := range tr.entries {
		path := e.path
		from, want := closest(m, path)
		var links []core.PathCitation
		for _, p := range chain(m, path) {
			links = append(links, core.PathCitation{Path: p, Citation: m[p].citation("o")})
		}
		text := strings.Join(append([]string{want.Title, want.Version}, want.Authors...), " ")
		checks := map[string]func(expect) error{
			"genCite":  func(e expect) error { return e.genCite(m, path, want.citation("o"), from) },
			"chain":    func(e expect) error { return e.chain(m, path, links) },
			"rendered": func(e expect) error { return e.rendered(m, path, text) },
			"treePage": func(e expect) error { return e.treePage(tr, m, 0, 0, page) },
			"function": func(e expect) error { return e.function(m, fn) },
			"tip": func(e expect) error {
				if e.tip(commit) != commit {
					return errMismatch
				}
				return nil
			},
		}
		for name, check := range checks {
			if err := check(expect{}); err != nil {
				t.Errorf("%s at %s rejects the right answer: %v", name, path, err)
			}
			if check(expect{shift: true}) == nil {
				t.Errorf("%s at %s accepts the right answer under the shifted oracle", name, path)
			}
		}
	}
}

var errMismatch = errors.New("mismatch")

// Each client's operation sequence is a pure function of the seed.
func TestPlanIsPureFunctionOfSeed(t *testing.T) {
	for name, mk := range workloads {
		plans := map[uint64][][]op{}
		for _, seed := range []uint64{7, 7, 8} {
			cfg := tinyConfig(t, name)
			cfg.seed = seed
			w, err := newWorld(cfg, t.TempDir(), nil)
			if err != nil {
				t.Fatal(err)
			}
			wl := mk(cfg)
			if err := wl.setup(w); err != nil {
				w.close()
				t.Fatalf("%s: %v", name, err)
			}
			var got [][]op
			for _, c := range w.clients {
				for r := 0; r < 3; r++ {
					got = append(got, wl.plan(c, r))
				}
			}
			w.close()
			if prev, ok := plans[seed]; ok && !reflect.DeepEqual(prev, got) {
				t.Errorf("%s: seed %d planned two different sequences", name, seed)
			}
			plans[seed] = got
		}
		if reflect.DeepEqual(plans[7], plans[8]) {
			t.Errorf("%s: seeds 7 and 8 planned the same sequence", name)
		}
	}
}

// The oracle's prefix logic on a small hand-made function.
func TestOracleClosestAndChain(t *testing.T) {
	m := citeMap{"/": {Title: "root"}, "/a": {Title: "a"}, "/a/b/c.go": {Title: "c"}}
	for path, want := range map[string]string{"/": "/", "/a/b": "/a", "/a/b/c.go": "/a/b/c.go", "/ab": "/", "/a/bc.go": "/a"} {
		if got, _ := closest(m, path); got != want {
			t.Errorf("closest(%s) = %s, want %s", path, got, want)
		}
	}
	if got := chain(m, "/a/b/c.go"); !reflect.DeepEqual(got, []string{"/", "/a", "/a/b/c.go"}) {
		t.Errorf("chain = %v", got)
	}
}
