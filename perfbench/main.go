// Command perfbench is GitCite's end-to-end benchmark. It builds the
// production shape of the system — a pack-backed hosting.OpenPlatform with
// gitcite-server's default options, served over loopback HTTP and driven
// through extension.Client by a closed loop of nproc clients, with local
// clones pack-backed on disk — runs one workload's fixed amount of work
// against it, checks every answer against an oracle computed from the
// benchmark's own inputs, and prints one JSON result as its last line.
//
//	perfbench -workload cite-read|registry-cold|push-sync -seed N -seconds S -trace 0|1
//
// -seconds sets the work, not a deadline: a run makes S measured rounds of
// a fixed operation count per client, one round being about a second of
// work on a 2-vCPU machine. -trace 1 reports per-layer metrics instead of
// the end-to-end ones (see README.md).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// setupReps is how many times a run builds its world; setup_s is the
// median, and the last world is the one measured. More set-ups would not
// steady it: set-up times within a run agree, and between runs they move
// with how busy the file system still is with the files the previous run
// removed, which more set-ups only add to.
const setupReps = 3

type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	workdir  string
	clients  int
	tiny     bool // self-test sizes
	shift    bool // self-test: expect every citation one cited path over
}

// workload is one traffic mix. Operations of a round are planned from the
// seed before the round runs; do performs one and checks its answer.
type workload interface {
	setup(w *world) error
	plan(c *client, round int) []op
	do(ctx context.Context, c *client, o op) error
	settle(w *world) error // end of every round
	finish(w *world) error // end-state checks after the measured phase
	focus(w *world) replayFocus
}

var workloads = map[string]func(*config) workload{
	"cite-read":     newCiteRead,
	"registry-cold": newRegistry,
	"push-sync":     newPushSync,
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "cite-read, registry-cold or push-sync")
	flag.Uint64Var(&cfg.seed, "seed", 1, "input seed")
	flag.IntVar(&cfg.seconds, "seconds", 12, "measured rounds (about one second of work each)")
	flag.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build/work", "scratch directory for platforms and clones")
	flag.Parse()
	cfg.trace = trace == 1
	cfg.clients = runtime.NumCPU()
	if workloads[cfg.workload] == nil || cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench -workload cite-read|registry-cold|push-sync -seed N -seconds S -trace 0|1")
		os.Exit(2)
	}
	res, err := run(&cfg, os.Stdout)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// phase is what one stretch of measured rounds did.
type phase struct {
	attempted, failed, ok int
	roundRates            []float64 // completed operations per second, per round
	wireBytes             int64
	genNS, checkNS        int64
	lat                   map[string][]int64
}

// run sets up, measures and checks one workload, writing reference lines
// to out; the caller prints the result.
func run(cfg *config, out io.Writer) (*result, error) {
	fmt.Fprintf(out, "env: workload=%s seed=%d nproc=%d gomaxprocs=%d go=%s clients=%d trace=%v\n",
		cfg.workload, cfg.seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cfg.clients, cfg.trace)
	dir, err := filepath.Abs(filepath.Join(cfg.workdir, fmt.Sprintf("%s-%d-%d", cfg.workload, cfg.seed, os.Getpid())))
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	began := time.Now()
	var t *tracer
	if cfg.trace {
		t = newTracer()
	}
	var w *world
	var wl workload
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if w != nil {
			w.close()
		}
		runtime.GC() // the closed world's garbage is not the next set-up's
		start := time.Now()
		wl = workloads[cfg.workload](cfg)
		w, err = newWorld(cfg, filepath.Join(dir, fmt.Sprintf("setup%d", i)), t)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		if err := wl.setup(w); err != nil {
			w.close()
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer w.close()

	// One unmeasured round lets caches fill and lazy set-up finish.
	if _, err := rounds(w, wl, 0, 1); err != nil {
		return nil, err
	}
	if cfg.trace {
		return tracedRun(cfg, w, wl, out)
	}

	measured := time.Now()
	ph, err := rounds(w, wl, 1, cfg.seconds)
	if err != nil {
		return nil, err
	}
	checked := time.Now()
	printReference(out, ph)
	fmt.Fprintf(out, "rounds: ops/s %s\n", fmtFloats(ph.roundRates, 0))
	// The harness's own latency samples are not the system's heap.
	ph.lat = nil
	for _, c := range w.clients {
		c.lat = nil
	}
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if err := wl.finish(w); err != nil {
		w.noteMismatch(fmt.Errorf("end state: %w", err))
	}
	fmt.Fprintf(out, "set-ups: %s s\n", fmtFloats(setups, 3))
	fmt.Fprintf(out, "phases: set-up %.1fs (%d times, then a warm-up round), measured %.1fs, end checks %.1fs\n",
		measured.Sub(began).Seconds(), setupReps, checked.Sub(measured).Seconds(), time.Since(checked).Seconds())
	res := &result{
		Correct:   w.mismatch == nil,
		Attempted: ph.attempted,
		Failed:    ph.failed,
		Metrics: map[string]metric{
			"setup_s":        {median(setups), "s"},
			"ops_per_s":      {median(ph.roundRates), "ops/s"},
			"live_heap_mb":   {float64(ms.HeapAlloc) / 1e6, "MB"},
			"wire_kb_per_op": {float64(ph.wireBytes) / 1e3 / float64(max(ph.attempted, 1)), "KB"},
		},
	}
	if w.mismatch != nil {
		fmt.Fprintf(os.Stderr, "perfbench: oracle: %v\n", w.mismatch)
	}
	return res, nil
}

// rounds runs rounds first..first+n-1: every client plans its operations
// from the seed and performs them in a closed loop; a round ends when all
// clients are done and the workload settled.
func rounds(w *world, wl workload, first, n int) (*phase, error) {
	ph := &phase{lat: map[string][]int64{}}
	bytes0 := w.meter.bytes.Load()
	for _, c := range w.clients {
		c.reset()
	}
	for r := first; r < first+n; r++ {
		before := make([]int, len(w.clients))
		for i, c := range w.clients {
			before[i] = c.attempted - c.failed
		}
		start := time.Now()
		done := make(chan struct{}, len(w.clients))
		for _, c := range w.clients {
			go func(c *client) {
				defer func() { done <- struct{}{} }()
				g := time.Now()
				ops := wl.plan(c, r)
				c.genNS += int64(time.Since(g))
				c.run(ops, wl.do)
			}(c)
		}
		for range w.clients {
			<-done
		}
		if err := wl.settle(w); err != nil {
			return nil, err
		}
		el := time.Since(start).Seconds()
		ok := 0
		for i, c := range w.clients {
			ok += c.attempted - c.failed - before[i]
		}
		ph.roundRates = append(ph.roundRates, float64(ok)/el)
	}
	for _, c := range w.clients {
		ph.attempted += c.attempted
		ph.failed += c.failed
		ph.genNS += c.genNS
		ph.checkNS += c.checkNS
		for k, v := range c.lat {
			ph.lat[k] = append(ph.lat[k], v...)
		}
	}
	ph.ok = ph.attempted - ph.failed
	ph.wireBytes = w.meter.bytes.Load() - bytes0
	return ph, nil
}

// printReference prints each operation kind's latency percentiles: the
// median, and the highest of p90/p99 with at least ten samples beyond it.
// They are reference figures, not gated metrics.
func printReference(out io.Writer, ph *phase) {
	kinds := make([]string, 0, len(ph.lat))
	for k := range ph.lat {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		v := ph.lat[k]
		sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
		line := fmt.Sprintf("ref: %-14s n=%-6d p50=%.1fus", k, len(v), us(v[len(v)/2]))
		switch {
		case len(v) >= 1000:
			line += fmt.Sprintf(" p99=%.1fus", us(v[len(v)*99/100]))
		case len(v) >= 100:
			line += fmt.Sprintf(" p90=%.1fus", us(v[len(v)*90/100]))
		}
		fmt.Fprintln(out, line)
	}
}

func fmtFloats(v []float64, prec int) string {
	parts := make([]string, len(v))
	for i, r := range v {
		parts[i] = strconv.FormatFloat(r, 'f', prec, 64)
	}
	return strings.Join(parts, " ")
}

func us(ns int64) float64 { return float64(ns) / 1e3 }

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
