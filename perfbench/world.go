package main

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/gitcite/gitcite/internal/core"
	"github.com/gitcite/gitcite/internal/extension"
	"github.com/gitcite/gitcite/internal/gitcite"
	"github.com/gitcite/gitcite/internal/hosting"
	"github.com/gitcite/gitcite/internal/hosting/replica"
	"github.com/gitcite/gitcite/internal/vcs"
	"github.com/gitcite/gitcite/internal/vcs/object"
	"github.com/gitcite/gitcite/internal/vcs/store"
)

// gitcite-server's default options.
const (
	openRepoLimit   = 64
	autoRepackPacks = 8
	autoRepackLoose = 512
)

const adminToken = "perfbench-admin-token"

// world is one set-up of a workload: a pack-backed platform under a fresh
// directory, served over loopback HTTP, with its clients and local clones.
type world struct {
	cfg   *config
	dir   string
	t     *tracer // nil when untraced
	exp   expect
	clock atomic.Int64 // commit timestamps, seconds past epochBase

	platform *hosting.Platform
	ts       *httptest.Server
	meter    *meter
	clients  []*client
	opens    *openTracker // traced runs: every repository the platform opens
	rep      *replicaRig  // nil unless the workload runs a replica

	mu       sync.Mutex
	closers  []func() error
	mismatch error // first oracle disagreement; the run is incorrect
}

var epochBase = time.Date(2020, 4, 20, 9, 0, 0, 0, time.UTC)

func newWorld(cfg *config, dir string, t *tracer) (*world, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	w := &world{cfg: cfg, dir: dir, t: t, exp: expect{shift: cfg.shift}}
	primaryDir := filepath.Join(dir, "primary") // see hostedDir
	opts := []hosting.PlatformOption{
		hosting.WithOpenRepoLimit(openRepoLimit),
		hosting.WithAutoRepack(autoRepackPacks, autoRepackLoose),
	}
	if t != nil {
		w.opens = &openTracker{dir: primaryDir, t: t, byKey: map[string]*gitcite.Repo{}}
		opts = append(opts, hosting.WithRepoFactory(w.opens.open))
	}
	p, err := hosting.OpenPlatform(primaryDir, opts...)
	if err != nil {
		return nil, err
	}
	w.platform = p
	var h http.Handler = hosting.NewServer(p, hosting.WithAllowedOrigin("*"), hosting.WithAdminToken(adminToken))
	if t != nil {
		h = tracedHandler{next: h, t: t}
	}
	w.ts = httptest.NewServer(h)
	w.meter = newMeter("extension.roundtrip", true, t)
	anon := extension.New(w.ts.URL, "").WithRetryPolicy(0, 0).WithTransport(w.meter)
	for i := 0; i < cfg.clients; i++ {
		name := fmt.Sprintf("client%d", i)
		tok, err := anon.CreateUser(name)
		if err != nil {
			w.close()
			return nil, fmt.Errorf("create user: %w", err)
		}
		w.clients = append(w.clients, &client{id: i, user: name, api: anon.WithToken(tok), w: w, lat: map[string][]int64{}})
	}
	return w, nil
}

// close stops everything the world started. Its directory stays until the
// run ends: removing thousands of files slows the file creation of a
// set-up timed right after it.
func (w *world) close() {
	if w.rep != nil {
		w.rep.stop()
	}
	if w.platform != nil {
		w.platform.InterruptEventWaiters()
	}
	if w.ts != nil {
		w.ts.Close()
	}
	if w.meter != nil {
		w.meter.base.(*http.Transport).CloseIdleConnections()
	}
	// Teardown errors change nothing: the directory is removed next, and
	// every check that matters ran before.
	for _, c := range w.closers {
		_ = c()
	}
	if w.platform != nil {
		_ = w.platform.Close()
	}
}

// now returns a deterministic commit time, one second later per call.
func (w *world) now() time.Time {
	return epochBase.Add(time.Duration(w.clock.Add(1)) * time.Second)
}

func (w *world) sig(who string) vcs.CommitOptions {
	return vcs.CommitOptions{Author: vcs.Sig(who, who+"@bench.example", w.now()), Message: "bench"}
}

// noteMismatch records an oracle disagreement; the run reports
// correct=false.
func (w *world) noteMismatch(err error) {
	w.mu.Lock()
	if w.mismatch == nil {
		w.mismatch = err
	}
	w.mu.Unlock()
}

// openLocal opens (creating) a pack-backed local clone, as the gitcite CLI
// keeps one, closed with the world.
func (w *world) openLocal(owner, name string) (*gitcite.Repo, error) {
	r, err := gitcite.OpenPackedFileRepo(w.localDir(owner, name), meta(owner, name))
	if err != nil {
		return nil, err
	}
	w.mu.Lock()
	w.closers = append(w.closers, r.Close)
	w.mu.Unlock()
	return r, nil
}

func (w *world) localDir(owner, name string) string {
	return filepath.Join(w.dir, "local", owner, name)
}

// hostedDir is where the primary keeps a hosted repository (the platform's
// OWNER/NAME layout under its data directory).
func (w *world) hostedDir(owner, name string) string {
	return filepath.Join(w.dir, "primary", owner, name)
}

func meta(owner, name string) gitcite.Meta {
	return gitcite.Meta{Owner: owner, Name: name, URL: "https://git.example/" + owner + "/" + name, License: "MIT"}
}

func (c cite) citation(owner string) core.Citation {
	return core.Citation{RepoName: c.Title, Owner: owner, URL: c.URL, Version: c.Version, AuthorList: c.Authors}
}

// commit writes files and makes the branch's explicit citations exactly
// cites, in one local commit.
func (w *world) commit(local *gitcite.Repo, branch, who string, files map[string][]byte, cites citeMap) (object.ID, error) {
	wt, err := local.Checkout(branch)
	if err != nil {
		return object.ZeroID, err
	}
	paths := make([]string, 0, len(files))
	for p := range files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if err := wt.WriteFile(p, files[p]); err != nil {
			return object.ZeroID, err
		}
	}
	if err := applyCites(wt, local.Meta.Owner, cites); err != nil {
		return object.ZeroID, err
	}
	return wt.Commit(w.sig(who))
}

// applyCites edits a worktree's citation function to equal cites.
func applyCites(wt *gitcite.Worktree, owner string, cites citeMap) error {
	fn := wt.Function()
	for _, p := range fn.Paths() {
		if _, keep := cites[p]; !keep && p != "/" {
			if err := wt.DelCite(p); err != nil {
				return err
			}
		}
	}
	for _, p := range cites.paths() {
		c := cites[p].citation(owner)
		var err error
		switch {
		case p == "/":
			err = wt.SetRootCitation(c)
		case fn.Has(p):
			err = wt.ModifyCite(p, c)
		default:
			err = wt.AddCite(p, c)
		}
		if err != nil {
			return fmt.Errorf("cite %s: %w", p, err)
		}
	}
	return nil
}

// tipOf reads a hosted repository's branch tip straight from a platform.
func tipOf(p *hosting.Platform, owner, name, branch string) (object.ID, error) {
	repo, release, err := p.AcquireRepo(context.Background(), owner, name)
	if err != nil {
		return object.ZeroID, err
	}
	defer release()
	return repo.VCS.BranchTip(branch)
}

// functionOf reads a hosted version's citation function straight from a
// platform.
func functionOf(p *hosting.Platform, owner, name string, commit object.ID) (*core.Function, error) {
	repo, release, err := p.AcquireRepo(context.Background(), owner, name)
	if err != nil {
		return nil, err
	}
	defer release()
	return repo.ResolvedFunctionAt(commit)
}

// openTracker is the traced runs' repository factory: it opens hosted
// repositories exactly as the platform's default does, counting and timing
// every open, and keeps each repository's latest handle so the decoded-
// object cache and pack-index counters of every handle can be summed.
type openTracker struct {
	dir string
	t   *tracer

	mu       sync.Mutex
	byKey    map[string]*gitcite.Repo
	hits     uint64 // folded in from replaced (closed) handles
	misses   uint64
	idxBytes int64
}

func (o *openTracker) open(m gitcite.Meta) (*gitcite.Repo, error) {
	start := time.Now()
	r, err := gitcite.OpenPackedFileRepo(filepath.Join(o.dir, m.Owner, m.Name), m)
	if o.t.recording() {
		o.t.record("vcs.repo_open", o.t.newID(), 0, 0, start, time.Now())
	}
	if err != nil {
		return nil, err
	}
	key := m.Owner + "/" + m.Name
	o.mu.Lock()
	if old := o.byKey[key]; old != nil {
		h, mi, idx := handleStats(old)
		o.hits, o.misses, o.idxBytes = o.hits+h, o.misses+mi, o.idxBytes+idx
	}
	o.byKey[key] = r
	o.mu.Unlock()
	return r, nil
}

// totals sums cache hits, misses and index bytes over every handle opened.
func (o *openTracker) totals() (hits, misses uint64, idxBytes int64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	hits, misses, idxBytes = o.hits, o.misses, o.idxBytes
	for _, r := range o.byKey {
		h, m, idx := handleStats(r)
		hits, misses, idxBytes = hits+h, misses+m, idxBytes+idx
	}
	return hits, misses, idxBytes
}

func handleStats(r *gitcite.Repo) (hits, misses uint64, idxBytes int64) {
	cs, ok := r.VCS.Objects.(*store.CachedStore)
	if !ok {
		return 0, 0, 0
	}
	hits, misses = cs.Stats()
	if ps, ok := cs.Backend().(*store.PackStore); ok {
		idxBytes = ps.IdxBytesWritten()
	}
	return hits, misses, idxBytes
}

// replicaRig is a pack-backed read replica following the primary over its
// events feed, served over its own loopback server.
type replicaRig struct {
	platform *hosting.Platform
	rep      *replica.Replicator
	ts       *httptest.Server
	meter    *meter
	cancel   context.CancelFunc
	done     chan struct{}
}

func (w *world) startReplica() error {
	dir := filepath.Join(w.dir, "replica")
	p, err := hosting.OpenPlatform(dir, hosting.WithOpenRepoLimit(openRepoLimit), hosting.WithAutoRepack(autoRepackPacks, autoRepackLoose))
	if err != nil {
		return err
	}
	m := newMeter("replica.roundtrip", false, w.t)
	rep, err := replica.New(replica.Config{
		Primary: w.ts.URL, Token: adminToken, Platform: p, StateDir: dir,
		PollInterval: 50 * time.Millisecond, ReplicaID: "perfbench-replica", Transport: m,
	})
	if err != nil {
		_ = p.Close()
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	rig := &replicaRig{platform: p, rep: rep, meter: m, cancel: cancel, done: make(chan struct{})}
	rig.ts = httptest.NewServer(hosting.NewServer(p, hosting.WithReplicaMode(w.ts.URL, rep.Status)))
	go func() {
		defer close(rig.done)
		_ = rep.Run(ctx) // returns only once ctx is cancelled
	}()
	w.rep = rig
	return nil
}

func (r *replicaRig) stop() {
	r.cancel()
	<-r.done
	r.ts.Close()
	r.meter.base.(*http.Transport).CloseIdleConnections()
	_ = r.platform.Close()
}

// waitReplica blocks until the replica's branch tips equal want
// ("owner/name" → main tip).
func (w *world) waitReplica(want map[string]object.ID) error {
	deadline := time.Now().Add(60 * time.Second)
	for key, tip := range want {
		owner, name := splitKey(key)
		for {
			got, err := tipOf(w.rep.platform, owner, name, "main")
			if err == nil && got == tip {
				break
			}
			if time.Now().After(deadline) {
				st := w.rep.rep.Status()
				return fmt.Errorf("replica did not catch up on %s (cursor %d/%d, last error %q)", key, st.Cursor, st.Head, st.LastError)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
	return nil
}

func splitKey(key string) (owner, name string) {
	owner, name, _ = strings.Cut(key, "/")
	return owner, name
}

// verifyClosure re-hashes every object reachable from tip in a store.
func verifyClosure(s store.Store, tip object.ID) (int, error) {
	n := 0
	err := store.WalkClosure(s, func(id object.ID, o object.Object) error {
		n++
		if object.Hash(o) != id {
			return fmt.Errorf("object %s hashes to %s", id.Short(), object.Hash(o).Short())
		}
		return nil
	}, tip)
	return n, err
}
