package main

import (
	"context"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/gitcite/gitcite/internal/citefile"
	"github.com/gitcite/gitcite/internal/core"
	"github.com/gitcite/gitcite/internal/format"
	"github.com/gitcite/gitcite/internal/gitcite"
	"github.com/gitcite/gitcite/internal/hosting"
	"github.com/gitcite/gitcite/internal/vcs/object"
	"github.com/gitcite/gitcite/internal/vcs/store"
)

// replayFocus names the data a workload's traced replay calls the layers
// on directly.
type replayFocus struct {
	repos  []string                   // hosted "owner/name" keys the workload uses
	commit func(key string) object.ID // the version replayed on
	paths  []string                   // paths of repos[0] to resolve
	locals []localRepo                // local clones to reopen cold
	pushes []pushRecord               // pushes whose negotiation is replayed
}

// localRepo is a repository directory the replay reopens cold: a local
// clone (whose open handle, if any, is closed first) or a hosted
// repository, which is copied first so the platform's own handle is never
// shared.
type localRepo struct {
	repo   *gitcite.Repo
	hosted bool
	dir    string
	meta   gitcite.Meta
	commit object.ID
}

// counters is a snapshot of the counting layers.
type counters struct {
	ms                   runtime.MemStats
	hits, misses         uint64
	idxBytes, diskBytes  int64
	repBytes, repFetched int64
	repTrips             agg
	writes               int64
}

func snap(w *world) counters {
	var c counters
	runtime.ReadMemStats(&c.ms)
	c.hits, c.misses, c.idxBytes = w.opens.totals()
	c.diskBytes = dirBytes(filepath.Join(w.dir, "primary"))
	if w.rep != nil {
		c.repBytes = w.rep.meter.bytes.Load()
		c.repFetched = w.rep.rep.Status().ObjectsFetched
	}
	c.repTrips = w.t.get("replica.roundtrip")
	c.writes = w.t.get("bench.write").n
	return c
}

// copyDir copies a directory tree of regular files.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, p)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), data, 0o644)
	})
}

func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil // files vanish under concurrent repacks
	})
	return n
}

// tracedRun measures half the rounds untraced and half traced on the same
// world, then runs the replay, and reports per-layer metrics. The ratio of
// the two halves' throughput is the tracing overhead. A metric of a layer
// the workload does not reach reads 0: no push on the read workloads, no
// replica outside push-sync, no read classes on push-sync.
func tracedRun(cfg *config, w *world, wl workload, out io.Writer) (*result, error) {
	half := max(cfg.seconds/2, 1)
	plain, err := rounds(w, wl, 1, half)
	if err != nil {
		return nil, err
	}
	t := w.t
	c0 := snap(w)
	t.on.Store(true)
	ph, err := rounds(w, wl, 1+half, half)
	if err != nil {
		return nil, err
	}
	t.on.Store(false)
	c1 := snap(w)
	openRepos := w.platform.Status(context.Background()).OpenRepos
	if err := wl.finish(w); err != nil {
		w.noteMismatch(fmt.Errorf("end state: %w", err))
	}
	rp, err := replay(w, wl.focus(w))
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	if err := t.write(filepath.Join(cfg.workdir, "spans-"+cfg.workload+".jsonl")); err != nil {
		return nil, err
	}

	ops := float64(max(ph.ok, 1))
	m := map[string]metric{}
	set := func(name, unit string, v float64) { m[name] = metric{v, unit} }

	call, trip := t.get("extension.call"), t.get("extension.roundtrip")
	set("extension.call_us", "us", perN(call.ns, call.n)/1e3)
	set("extension.roundtrip_us", "us", perN(trip.ns, trip.n)/1e3)
	set("extension.roundtrips_per_op", "count", float64(trip.n)/ops)
	set("extension.self_us", "us", perN(call.ns-trip.ns, call.n)/1e3)
	for _, class := range handlerClasses {
		set("hosting.handler_us."+class, "us", t.meanUS("hosting.handler."+class))
	}
	set("hosting.net_us", "us", perN(trip.ns-t.get("hosting.handler_under_client").ns, trip.n)/1e3)
	set("hosting.repo_opens_per_op", "count", float64(t.get("vcs.repo_open").n)/ops)
	set("hosting.open_repos", "count", float64(openRepos))
	set("hosting.acquire_us", "us", rp.acquireUS)
	set("hosting.missing_objects_us", "us", rp.missingUS)
	set("hosting.missing_objects_per_push", "count", rp.missingPerPush)

	writes := float64(max(c1.writes-c0.writes, 1))
	set("replica.fetch_us_per_push", "us", float64(c1.repTrips.ns-c0.repTrips.ns)/writes/1e3)
	set("replica.wire_kb_per_push", "KB", float64(c1.repBytes-c0.repBytes)/writes/1e3)
	set("replica.objects_fetched_per_push", "count", float64(c1.repFetched-c0.repFetched)/writes)
	var resyncs int64
	if w.rep != nil {
		resyncs = w.rep.rep.Status().FullResyncs
	}
	set("replica.full_resyncs", "count", float64(resyncs))
	set("replica.catchup_ms", "ms", t.meanUS("replica.catchup")/1e3)

	set("gitcite.commit_us", "us", t.meanUS("gitcite.commit"))
	set("gitcite.merge_us", "us", t.meanUS("gitcite.merge"))
	set("gitcite.function_at_us.warm", "us", rp.fnWarmUS)
	set("gitcite.function_at_us.cold", "us", rp.fnColdUS)
	set("core.resolve_ns", "ns", rp.resolveNS)
	set("core.chain_ns", "ns", rp.chainNS)
	set("core.function_entries", "count", rp.entries)
	set("citefile.encode_us", "us", rp.encodeUS)
	set("citefile.decode_us", "us", rp.decodeUS)
	set("citefile.bytes", "bytes", rp.citeBytes)
	set("format.render_us", "us", rp.renderUS)
	set("vcs.repo_open_us", "us", t.meanUS("vcs.repo_open"))

	hits, misses := c1.hits-c0.hits, c1.misses-c0.misses
	set("store.cache_hit_ratio", "ratio", float64(hits)/float64(max(hits+misses, 1)))
	set("store.cache_lookups_per_op", "count", float64(hits+misses)/ops)
	set("store.cache_misses_per_op", "count", float64(misses)/ops)
	set("store.get_cold_us", "us", rp.getColdUS)
	set("store.packs_per_repo", "count", rp.packs)
	set("store.idx_bytes_per_push", "bytes", float64(c1.idxBytes-c0.idxBytes)/writes)
	set("store.disk_kb_per_push", "KB", float64(c1.diskBytes-c0.diskBytes)/writes/1e3)

	set("runtime.alloc_kb_per_op", "KB", float64(c1.ms.TotalAlloc-c0.ms.TotalAlloc)/ops/1e3)
	set("runtime.gc_cycles_per_kop", "count", float64(c1.ms.NumGC-c0.ms.NumGC)*1e3/ops)
	set("bench.gen_us", "us", float64(ph.genNS)/ops/1e3)
	set("bench.check_us", "us", float64(ph.checkNS)/ops/1e3)
	untraced, traced := median(plain.roundRates), median(ph.roundRates)
	set("bench.untraced_ops_per_s", "ops/s", untraced)
	set("bench.traced_ops_per_s", "ops/s", traced)
	fmt.Fprintf(out, "trace: overhead %.1f%% (untraced %.0f ops/s, traced %.0f ops/s), %d spans kept, %d dropped\n",
		100*(untraced-traced)/untraced, untraced, traced, len(t.spans), t.dropped)

	res := &result{
		Correct:   w.mismatch == nil,
		Attempted: plain.attempted + ph.attempted,
		Failed:    plain.failed + ph.failed,
		Metrics:   m,
	}
	if w.mismatch != nil {
		fmt.Fprintf(os.Stderr, "perfbench: oracle: %v\n", w.mismatch)
	}
	return res, nil
}

func perN(total, n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(total) / float64(n)
}

// replayed holds the figures of direct calls into the layers.
type replayed struct {
	acquireUS, missingUS, missingPerPush float64
	fnWarmUS, fnColdUS, getColdUS        float64
	resolveNS, chainNS, entries          float64
	encodeUS, decodeUS, citeBytes        float64
	renderUS, packs                      float64
}

// replay calls each layer's public functions directly on the workload's
// own data and times them.
func replay(w *world, f replayFocus) (*replayed, error) {
	ctx := context.Background()
	rp := &replayed{}
	rng := newRNG(w.cfg.seed, 10)

	// hosting: acquire (with eviction when the population exceeds the
	// open-repository limit) in the workload's access pattern.
	const acquires = 256
	start := time.Now()
	for i := 0; i < acquires; i++ {
		owner, name := splitKey(f.repos[rng.IntN(len(f.repos))])
		_, release, err := w.platform.AcquireRepo(ctx, owner, name)
		if err != nil {
			return nil, err
		}
		release()
	}
	rp.acquireUS = us(int64(time.Since(start))) / acquires

	// hosting: the negotiation of the recorded pushes.
	if pushes := f.pushes[max(0, len(f.pushes)-200):]; len(pushes) > 0 {
		var missing int
		start = time.Now()
		for _, p := range pushes {
			ids, err := hosting.MissingObjects(p.local.VCS.Objects, p.tip, []object.ID{p.have})
			if err != nil {
				return nil, err
			}
			missing += len(ids)
		}
		rp.missingUS = us(int64(time.Since(start))) / float64(len(pushes))
		rp.missingPerPush = float64(missing) / float64(len(pushes))
	}

	// gitcite, core, citefile, format: the first repository's version.
	key := f.repos[0]
	owner, name := splitKey(key)
	repo, release, err := w.platform.AcquireRepo(ctx, owner, name)
	if err != nil {
		return nil, err
	}
	defer release()
	commit := f.commit(key)
	fn, err := repo.ResolvedFunctionAt(commit)
	if err != nil {
		return nil, err
	}
	const warm = 2000
	start = time.Now()
	for i := 0; i < warm; i++ {
		if _, err := repo.ResolvedFunctionAt(commit); err != nil {
			return nil, err
		}
	}
	rp.fnWarmUS = us(int64(time.Since(start))) / warm

	keys := make([]*core.PathKey, len(f.paths))
	for i, p := range f.paths {
		if keys[i], err = repo.Paths().Intern(p); err != nil {
			return nil, err
		}
	}
	const passes = 20
	start = time.Now()
	for i := 0; i < passes; i++ {
		for _, k := range keys {
			if _, _, err := fn.ResolveKey(k); err != nil {
				return nil, err
			}
		}
	}
	rp.resolveNS = float64(time.Since(start)) / float64(passes*len(keys))
	start = time.Now()
	for i := 0; i < passes; i++ {
		for _, p := range f.paths {
			if _, err := fn.ResolveChain(p); err != nil {
				return nil, err
			}
		}
	}
	rp.chainNS = float64(time.Since(start)) / float64(passes*len(f.paths))
	rp.entries = float64(fn.Len())

	tr, err := repo.TreeAt(commit)
	if err != nil {
		return nil, err
	}
	const codec = 20
	var data []byte
	start = time.Now()
	for i := 0; i < codec; i++ {
		if data, err = citefile.Encode(fn, tr.IsDir); err != nil {
			return nil, err
		}
	}
	rp.encodeUS = us(int64(time.Since(start))) / codec
	rp.citeBytes = float64(len(data))
	start = time.Now()
	for i := 0; i < codec; i++ {
		if _, err := citefile.Decode(data); err != nil {
			return nil, err
		}
	}
	rp.decodeUS = us(int64(time.Since(start))) / codec

	renders := 0
	start = time.Now()
	for _, p := range f.paths {
		c, _, err := fn.Resolve(p)
		if err != nil {
			return nil, err
		}
		for _, ft := range []format.Format{format.FormatBibTeX, format.FormatCFF} {
			if _, err := format.Render(c, ft); err != nil {
				return nil, err
			}
			renders++
		}
	}
	rp.renderUS = us(int64(time.Since(start))) / float64(max(renders, 1))

	// store: pack counts of the workload's repositories.
	sample := f.repos[:min(len(f.repos), 64)]
	for _, k := range sample {
		o, n := splitKey(k)
		r, rel, err := w.platform.AcquireRepo(ctx, o, n)
		if err != nil {
			return nil, err
		}
		if cs, ok := r.VCS.Objects.(*store.CachedStore); ok {
			if ps, ok := cs.Backend().(*store.PackStore); ok {
				rp.packs += float64(ps.Stats().Packs)
			}
		}
		rel()
	}
	rp.packs /= float64(len(sample))

	// gitcite and vcs/store cold: reopen local clones from disk.
	var coldNS, getNS int64
	samples := 0
	for i, l := range f.locals {
		if l.repo != nil {
			if err := l.repo.Close(); err != nil {
				return nil, err
			}
		}
		if l.hosted {
			cp := filepath.Join(w.dir, "cold", l.meta.Owner, l.meta.Name)
			if err := copyDir(l.dir, cp); err != nil {
				return nil, err
			}
			f.locals[i].dir = cp
		}
	}
	for samples < 32 {
		for _, l := range f.locals {
			r, err := gitcite.OpenPackedFileRepo(l.dir, l.meta)
			if err != nil {
				return nil, err
			}
			start := time.Now()
			_, err = r.ResolvedFunctionAt(l.commit)
			coldNS += int64(time.Since(start))
			if cerr := r.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return nil, err
			}
			ps, err := store.NewPackStore(filepath.Join(l.dir, "objects"))
			if err != nil {
				return nil, err
			}
			start = time.Now()
			_, err = ps.Get(l.commit)
			getNS += int64(time.Since(start))
			if cerr := ps.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return nil, err
			}
			samples++
		}
	}
	rp.fnColdUS = us(coldNS) / float64(samples)
	rp.getColdUS = us(getNS) / float64(samples)
	return rp, nil
}
