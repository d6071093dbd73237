package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"github.com/gitcite/gitcite/internal/core"
	"github.com/gitcite/gitcite/internal/extension"
	"github.com/gitcite/gitcite/internal/gitcite"
	"github.com/gitcite/gitcite/internal/vcs/object"
	"github.com/gitcite/gitcite/internal/vcs/refs"
)

// pushSync is the maintainers' write path. Every client commits to
// repositories it alone pushes (local pack-backed clones, Worktree.Commit,
// then Client.Sync); a fixed share of operations are instead a local merge
// of a side branch, a server-side fork of a published upstream repository
// (whose history stays fixed, so every fork copies the same closure), or a
// hosted citation edit through the API. A pack-backed replica follows the
// primary over the events feed, and every round ends only when the replica
// serves every tip the round wrote.
type pushSync struct {
	cfg    *config
	shape  shape
	cites  int
	repos  int // pushed repositories per client
	perRnd int

	mine      [][]*pushRepo // per client
	upstreams []*pushRepo   // per client: published once, then only forked
	edits     []*editRepo   // per client

	mu    sync.Mutex
	tips  map[string]object.ID // every hosted repository's expected main tip
	moved map[string]object.ID // the tips written since the last settle
}

type pushRepo struct {
	owner, name string
	local       *gitcite.Repo
	tr          *tree
	cited       []string // explicitly cited paths besides the root
	cur         citeMap
	tip         object.ID
	rev         int
	forks       int
	pushes      []pushRecord
}

// pushRecord is one push's negotiation input, replayed by the traced run.
type pushRecord struct {
	local     *gitcite.Repo
	tip, have object.ID
}

type editRepo struct {
	owner, name string
	tr          *tree
	slots       []string // uncited files the add → modify → delete cycle walks
	cur         citeMap
	n           int
}

// The commit share is the push share of gitcite-load's push-storm scenario
// and the fork share that of its classroom scenario
// (internal/load/scenario.go). No load scenario merges or edits citations
// through the API; those two shares are the benchmark's own choice, not
// taken from a measured mix.
var pushKinds = []string{"commit", "fork", "merge", "cite_edit"}
var pushWeights = []int{80, 5, 5, 10}

func newPushSync(cfg *config) workload {
	if cfg.tiny {
		return &pushSync{cfg: cfg, shape: shape{fanout: []int{2, 2}, files: 2}, cites: 6, repos: 1, perRnd: 20}
	}
	return &pushSync{cfg: cfg, shape: shape{fanout: []int{5, 4}, files: 5}, cites: 60, repos: 2, perRnd: 80}
}

func (wl *pushSync) setup(w *world) error {
	wl.tips, wl.moved = map[string]object.ID{}, map[string]object.ID{}
	wl.mine = make([][]*pushRepo, len(w.clients))
	wl.upstreams = make([]*pushRepo, len(w.clients))
	wl.edits = make([]*editRepo, len(w.clients))
	for ci, c := range w.clients {
		for j := 0; j < wl.repos; j++ {
			r, err := wl.newPushRepo(w, c, fmt.Sprintf("lib-%d", j), newRNG(wl.cfg.seed, 1, uint64(ci), uint64(j)), wl.shape, wl.cites)
			if err != nil {
				return err
			}
			wl.mine[ci] = append(wl.mine[ci], r)
		}
		u, err := wl.newPushRepo(w, c, "upstream", newRNG(wl.cfg.seed, 4, uint64(ci)), wl.shape, wl.cites)
		if err != nil {
			return err
		}
		wl.upstreams[ci] = u
		e, err := wl.newEditRepo(w, c, "notes", newRNG(wl.cfg.seed, 3, uint64(ci)))
		if err != nil {
			return err
		}
		wl.edits[ci] = e
	}
	if err := w.startReplica(); err != nil {
		return err
	}
	return w.waitReplica(wl.tips)
}

// newPushRepo generates a repository, commits it in a local clone and
// publishes it.
func (wl *pushSync) newPushRepo(w *world, c *client, name string, rng *rand.Rand, sh shape, cites int) (*pushRepo, error) {
	r := &pushRepo{owner: c.user, name: name, tr: genTree(rng, sh)}
	r.cur = citeMap{"/": genCite(rng, r.owner, r.name)}
	for _, i := range pick(rng, len(r.tr.entries), cites) {
		p := r.tr.entries[i].path
		r.cur[p] = genCite(rng, r.owner, fmt.Sprintf("%s-%d", r.name, i))
		r.cited = append(r.cited, p)
	}
	local, err := w.openLocal(r.owner, r.name)
	if err != nil {
		return nil, err
	}
	r.local = local
	files := map[string][]byte{}
	for _, f := range r.tr.files {
		files[f] = content(f, 0)
	}
	if r.tip, err = w.commit(local, "main", r.owner, files, r.cur); err != nil {
		return nil, err
	}
	if err := c.api.CreateRepo(r.name, meta(r.owner, r.name).URL, "MIT"); err != nil {
		return nil, err
	}
	if _, err := c.api.Sync(local, r.owner, r.name, "main"); err != nil {
		return nil, err
	}
	wl.setTip(r.owner+"/"+r.name, r.tip)
	return r, nil
}

// newEditRepo creates the repository a client edits only through the
// hosted API: pushed once, with half its files cited.
func (wl *pushSync) newEditRepo(w *world, c *client, name string, rng *rand.Rand) (*editRepo, error) {
	e := &editRepo{owner: c.user, name: name, tr: genTree(rng, shape{fanout: []int{3}, files: 4})}
	e.cur = citeMap{"/": genCite(rng, e.owner, e.name)}
	cited := map[int]bool{}
	for _, i := range pick(rng, len(e.tr.files), len(e.tr.files)/2) {
		e.cur[e.tr.files[i]] = genCite(rng, e.owner, fmt.Sprintf("note-%d", i))
		cited[i] = true
	}
	for i, f := range e.tr.files {
		if !cited[i] {
			e.slots = append(e.slots, f)
		}
	}
	local, err := w.openLocal(e.owner, e.name)
	if err != nil {
		return nil, err
	}
	files := map[string][]byte{}
	for _, f := range e.tr.files {
		files[f] = content(f, 0)
	}
	tip, err := w.commit(local, "main", e.owner, files, e.cur)
	if err != nil {
		return nil, err
	}
	if err := c.api.CreateRepo(e.name, meta(e.owner, e.name).URL, "MIT"); err != nil {
		return nil, err
	}
	if _, err := c.api.Sync(local, e.owner, e.name, "main"); err != nil {
		return nil, err
	}
	wl.setTip(e.owner+"/"+e.name, tip)
	return e, nil
}

func (wl *pushSync) plan(c *client, round int) []op {
	rng := newRNG(wl.cfg.seed, 2, uint64(c.id), uint64(round))
	ops := make([]op, wl.perRnd)
	for i, kind := range deck(rng, pushKinds, pushWeights, wl.perRnd) {
		o := op{kind: kind, a: rng.IntN(wl.repos)}
		switch o.kind {
		case "commit":
			o.list = append(pick(rng, wl.shape.fileCount(), 2), pick(rng, wl.cites, 2)...)
		case "merge":
			o.list = pick(rng, wl.cites, 4)
		case "cite_edit":
			o.b = rng.IntN(len(people))
		}
		ops[i] = o
	}
	return ops
}

func (wl *pushSync) setTip(key string, tip object.ID) {
	wl.mu.Lock()
	wl.tips[key] = tip
	wl.moved[key] = tip
	wl.mu.Unlock()
}

func (wl *pushSync) do(ctx context.Context, c *client, o op) error {
	switch o.kind {
	case "commit":
		return wl.commit(ctx, c, wl.mine[c.id][o.a], o.list[:2], o.list[2:])
	case "merge":
		return wl.merge(ctx, c, wl.mine[c.id][o.a], o.list[:2], o.list[2:])
	case "fork":
		return wl.fork(ctx, c, wl.upstreams[c.id])
	case "cite_edit":
		return wl.edit(ctx, c, wl.edits[c.id], o.b)
	}
	return fmt.Errorf("unknown operation %q", o.kind)
}

// commitOn commits file rewrites and citation re-versions on a branch of
// r's clone, timed as gitcite.commit.
func (wl *pushSync) commitOn(ctx context.Context, c *client, r *pushRepo, branch string, files, cites []int, cur citeMap) (object.ID, error) {
	r.rev++
	wt, err := r.local.Checkout(branch)
	if err != nil {
		return object.ZeroID, err
	}
	for _, i := range files {
		f := r.tr.files[i]
		if err := wt.WriteFile(f, content(f, r.rev)); err != nil {
			return object.ZeroID, err
		}
	}
	for _, i := range cites {
		p := r.cited[i]
		cur[p] = bump(cur[p], fmt.Sprintf("%d.%d.%d", c.id, r.rev, i))
		if err := wt.ModifyCite(p, cur[p].citation(r.owner)); err != nil {
			return object.ZeroID, err
		}
	}
	var id object.ID
	err = c.timed(ctx, "gitcite.commit", func() (err error) {
		id, err = wt.Commit(c.w.sig(c.user))
		return err
	})
	return id, err
}

// push syncs main and checks the primary took the client's tip.
func (wl *pushSync) push(ctx context.Context, c *client, r *pushRepo, tip object.ID) error {
	err := c.call(ctx, func(api *extension.Client) error {
		_, err := api.Sync(r.local, r.owner, r.name, "main")
		return err
	})
	if err != nil {
		return err
	}
	c.count("bench.write")
	r.pushes = append(r.pushes, pushRecord{local: r.local, tip: tip, have: r.tip})
	r.tip = tip
	wl.setTip(r.owner+"/"+r.name, tip)
	c.check(func() error {
		got, err := tipOf(c.w.platform, r.owner, r.name, "main")
		if err != nil {
			return err
		}
		if got != c.w.exp.tip(tip) {
			return fmt.Errorf("push %s: server tip %s, client tip %s", r.name, got.Short(), tip.Short())
		}
		return nil
	})
	return nil
}

func (wl *pushSync) commit(ctx context.Context, c *client, r *pushRepo, files, cites []int) error {
	next := r.cur.clone()
	tip, err := wl.commitOn(ctx, c, r, "main", files, cites, next)
	if err != nil {
		return err
	}
	r.cur = next
	return wl.push(ctx, c, r, tip)
}

// merge edits disjoint citations on a side branch and on main, merges the
// side branch into main and pushes the merge.
func (wl *pushSync) merge(ctx context.Context, c *client, r *pushRepo, side, mine []int) error {
	if err := r.local.VCS.Refs.Set(refs.BranchRef("side"), r.tip); err != nil {
		return err
	}
	sideMap, mainMap := r.cur.clone(), r.cur.clone()
	if _, err := wl.commitOn(ctx, c, r, "side", nil, side, sideMap); err != nil {
		return err
	}
	if _, err := wl.commitOn(ctx, c, r, "main", nil, mine, mainMap); err != nil {
		return err
	}
	var res gitcite.MergeResult
	err := c.timed(ctx, "gitcite.merge", func() (err error) {
		res, err = r.local.MergeBranches("main", "side", gitcite.MergeOptions{
			Citations: core.MergeOptions{Strategy: core.StrategyThreeWay},
			Commit:    c.w.sig(c.user),
		})
		return err
	})
	if err != nil {
		return err
	}
	if len(res.FileConflicts) > 0 {
		return fmt.Errorf("merge %s: %d file conflicts on citation-only edits", r.name, len(res.FileConflicts))
	}
	union := mainMap
	for _, i := range side {
		union[r.cited[i]] = sideMap[r.cited[i]]
	}
	c.check(func() error {
		fn, err := r.local.ResolvedFunctionAt(res.CommitID)
		if err != nil {
			return err
		}
		return c.w.exp.function(union, fn)
	})
	r.cur = union
	return wl.push(ctx, c, r, res.CommitID)
}

// fork forks r on the server and checks the fork equals r at fork time.
func (wl *pushSync) fork(ctx context.Context, c *client, r *pushRepo) error {
	r.forks++
	name := fmt.Sprintf("%s-fork%d", r.name, r.forks)
	err := c.call(ctx, func(api *extension.Client) error {
		_, err := api.Fork(r.owner, r.name, name)
		return err
	})
	if err != nil {
		return err
	}
	c.count("bench.write")
	wl.setTip(c.user+"/"+name, r.tip)
	c.check(func() error {
		tip, err := tipOf(c.w.platform, c.user, name, "main")
		if err != nil {
			return err
		}
		if tip != c.w.exp.tip(r.tip) {
			return fmt.Errorf("fork %s: tip %s, source tip %s", name, tip.Short(), r.tip.Short())
		}
		fn, err := functionOf(c.w.platform, c.user, name, tip)
		if err != nil {
			return err
		}
		return c.w.exp.function(r.cur, fn)
	})
	return nil
}

// edit takes one step of the add → modify → delete cycle over the edit
// repository's slots through the hosted API, and reads the result back.
func (wl *pushSync) edit(ctx context.Context, c *client, e *editRepo, author int) error {
	slot := e.slots[(e.n/3)%len(e.slots)]
	step := e.n % 3
	e.n++
	next := e.cur.clone()
	var commit string
	err := c.call(ctx, func(api *extension.Client) (err error) {
		switch step {
		case 0:
			next[slot] = cite{Title: fmt.Sprintf("note-%d", e.n), Version: "1.0", Authors: []string{people[author]}, URL: "https://git.example/" + e.owner + "/note"}
			commit, err = api.AddCite(e.owner, e.name, "main", slot, next[slot].citation(e.owner))
		case 1:
			next[slot] = bump(next[slot], fmt.Sprintf("1.%d", e.n))
			commit, err = api.ModifyCite(e.owner, e.name, "main", slot, next[slot].citation(e.owner))
		default:
			delete(next, slot)
			commit, err = api.DelCite(e.owner, e.name, "main", slot)
		}
		return err
	})
	if err != nil {
		return err
	}
	id, err := object.ParseID(commit)
	if err != nil {
		return fmt.Errorf("cite edit: bad commit %q: %w", commit, err)
	}
	e.cur = next
	c.count("bench.write")
	wl.setTip(e.owner+"/"+e.name, id)
	c.check(func() error {
		fn, err := functionOf(c.w.platform, e.owner, e.name, id)
		if err != nil {
			return err
		}
		return c.w.exp.function(next, fn)
	})
	return nil
}

// settle ends a round once the replica serves every tip the round wrote.
// Forks add a repository every time, so waiting on all tips would make
// each round do more work than the last.
func (wl *pushSync) settle(w *world) error {
	start := time.Now()
	wl.mu.Lock()
	want := wl.moved
	wl.moved = map[string]object.ID{}
	wl.mu.Unlock()
	if err := w.waitReplica(want); err != nil {
		return err
	}
	if w.t.recording() {
		w.t.record("replica.catchup", w.t.newID(), 0, 0, start, time.Now())
	}
	return nil
}

// finish checks the end state: the primary holds every client's tip, and
// the replica serves the same tips and citation files as the primary,
// every object of which re-hashes to its ID.
func (wl *pushSync) finish(w *world) error {
	for _, rs := range wl.mine {
		for _, r := range rs {
			tip, err := tipOf(w.platform, r.owner, r.name, "main")
			if err != nil {
				return err
			}
			if tip != w.exp.tip(r.tip) {
				return fmt.Errorf("%s/%s: primary tip %s, client tip %s", r.owner, r.name, tip.Short(), r.tip.Short())
			}
		}
	}
	return replicaMatches(w, wl.tips)
}

// replicaMatches compares the replica's answers with the primary's for
// every repository in tips.
func replicaMatches(w *world, tips map[string]object.ID) error {
	rc := extension.New(w.rep.ts.URL, "").WithRetryPolicy(0, 0)
	pc := extension.New(w.ts.URL, "").WithRetryPolicy(0, 0)
	for key, tip := range tips {
		owner, name := splitKey(key)
		meta, err := rc.GetRepo(owner, name)
		if err != nil {
			return fmt.Errorf("replica %s: %w", key, err)
		}
		if meta.Tips["main"] != w.exp.tip(tip).String() {
			return fmt.Errorf("replica %s: tip %s, want %s", key, meta.Tips["main"], tip.Short())
		}
		a, err := rc.CiteFile(owner, name, tip.String())
		if err != nil {
			return fmt.Errorf("replica %s: %w", key, err)
		}
		b, err := pc.CiteFile(owner, name, tip.String())
		if err != nil {
			return fmt.Errorf("primary %s: %w", key, err)
		}
		if string(a) != string(b) {
			return fmt.Errorf("replica %s: citation file differs from the primary's", key)
		}
		repo, release, err := w.rep.platform.AcquireRepo(context.Background(), owner, name)
		if err != nil {
			return err
		}
		_, err = verifyClosure(repo.VCS.Objects, tip)
		release()
		if err != nil {
			return fmt.Errorf("replica %s: %w", key, err)
		}
	}
	return nil
}

func (wl *pushSync) focus(w *world) replayFocus {
	f := replayFocus{commit: func(key string) object.ID {
		wl.mu.Lock()
		defer wl.mu.Unlock()
		return wl.tips[key]
	}}
	for _, rs := range wl.mine {
		for _, r := range rs {
			key := r.owner + "/" + r.name
			f.repos = append(f.repos, key)
			f.locals = append(f.locals, localRepo{repo: r.local, dir: w.localDir(r.owner, r.name), meta: r.local.Meta, commit: r.tip})
			f.pushes = append(f.pushes, r.pushes...)
		}
	}
	f.paths = append(append([]string{}, wl.mine[0][0].tr.files...), wl.mine[0][0].tr.dirs...)
	return f
}
