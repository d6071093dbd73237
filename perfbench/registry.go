package main

import (
	"context"
	"fmt"
	"sync"

	"github.com/gitcite/gitcite/internal/extension"
	"github.com/gitcite/gitcite/internal/gitcite"
	"github.com/gitcite/gitcite/internal/hosting"
	"github.com/gitcite/gitcite/internal/vcs/object"
)

// registry is the Software Citation Station shape: many tiny repositories,
// each read rarely. Reads spread uniformly over the population and over
// each repository's history; with the population many times the platform's
// open-repository limit, almost every read reopens a pack store and decodes
// a citation file, so read caches are bypassed.
type registry struct {
	cfg    *config
	n      int // hosted repositories
	shape  shape
	cites  int
	hist   int
	perRnd int

	repos []*regRepo
}

type regRepo struct {
	owner, name string
	tr          *tree
	nodes       []string
	commits     []object.ID
	maps        []citeMap
}

// The kinds and shares are those of gitcite-load's registry scenario
// (internal/load/scenario.go), spread here over each repository's history
// instead of its tip.
var registryKinds = []string{"repo_meta", "tree", "cite", "citefile", "citefile_304"}
var registryWeights = []int{25, 20, 25, 10, 20}

func newRegistry(cfg *config) workload {
	if cfg.tiny {
		return &registry{cfg: cfg, n: 6, shape: shape{fanout: []int{2}, files: 2}, cites: 2, hist: 2, perRnd: 30}
	}
	return &registry{cfg: cfg, n: 8 * openRepoLimit, shape: shape{fanout: []int{2, 1}, files: 2}, cites: 3, hist: 3, perRnd: 2000}
}

func (wl *registry) setup(w *world) error {
	wl.repos = make([]*regRepo, wl.n)
	for i := range wl.repos {
		rng := newRNG(wl.cfg.seed, 1, uint64(i))
		r := &regRepo{owner: w.clients[i%len(w.clients)].user, name: fmt.Sprintf("pkg-%03d", i)}
		r.tr = genTree(rng, wl.shape)
		for _, e := range r.tr.entries {
			r.nodes = append(r.nodes, e.path)
		}
		r.nodes = append(r.nodes, "/")
		m := citeMap{"/": genCite(rng, r.owner, r.name)}
		for _, j := range pick(rng, len(r.tr.entries), wl.cites) {
			m[r.tr.entries[j].path] = genCite(rng, r.owner, fmt.Sprintf("%s-%d", r.name, j))
		}
		for k := 0; k < wl.hist; k++ {
			if k > 0 {
				m = m.clone()
				for _, p := range m.paths() {
					m[p] = bump(m[p], fmt.Sprintf("%d.%d", k+1, rng.IntN(100)))
				}
			}
			r.maps = append(r.maps, m)
		}
		wl.repos[i] = r
	}
	// Each client publishes the repositories it owns, in parallel.
	var wg sync.WaitGroup
	errs := make([]error, len(w.clients))
	for ci, c := range w.clients {
		wg.Add(1)
		go func(ci int, c *client) {
			defer wg.Done()
			for i := ci; i < len(wl.repos); i += len(w.clients) {
				if err := wl.publish(w, c, wl.repos[i]); err != nil {
					errs[ci] = fmt.Errorf("publish %s: %w", wl.repos[i].name, err)
					return
				}
			}
		}(ci, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// publish commits a repository's history in an in-memory source and
// pushes it. Registry clients only read, so they keep no clones; the
// hosted state is what the workload measures.
func (wl *registry) publish(w *world, c *client, r *regRepo) error {
	local, err := gitcite.NewMemoryRepo(meta(r.owner, r.name))
	if err != nil {
		return err
	}
	for k, m := range r.maps {
		files := map[string][]byte{}
		for j, f := range r.tr.files {
			if k == 0 || j == k%len(r.tr.files) {
				files[f] = content(f, k)
			}
		}
		id, err := w.commit(local, "main", r.owner, files, m)
		if err != nil {
			return err
		}
		r.commits = append(r.commits, id)
	}
	if err := c.api.CreateRepo(r.name, meta(r.owner, r.name).URL, "MIT"); err != nil {
		return err
	}
	_, err = c.api.Sync(local, r.owner, r.name, "main")
	return err
}

func (wl *registry) plan(c *client, round int) []op {
	rng := newRNG(wl.cfg.seed, 2, uint64(c.id), uint64(round))
	ops := make([]op, wl.perRnd)
	for i, kind := range deck(rng, registryKinds, registryWeights, wl.perRnd) {
		r := rng.IntN(len(wl.repos))
		ops[i] = op{
			kind: kind,
			a:    r,
			b:    rng.IntN(wl.hist),
			list: []int{rng.IntN(len(wl.repos[r].nodes))},
		}
	}
	return ops
}

func (wl *registry) do(ctx context.Context, c *client, o op) error {
	r := wl.repos[o.a]
	path := r.nodes[o.list[0]]
	rev, m := r.commits[o.b].String(), r.maps[o.b]
	switch o.kind {
	case "repo_meta":
		return repoMetaRead(ctx, c, r.owner, r.name, r.commits[len(r.commits)-1])
	case "tree":
		return treeRead(ctx, c, r.owner, r.name, rev, r.tr, m, 0, 0)
	case "cite":
		return genCiteRead(ctx, c, r.owner, r.name, rev, path, m)
	case "citefile":
		return citeFileRead(ctx, c, r.owner, r.name, rev, m)
	case "citefile_304":
		return conditionalRead(ctx, c, r.owner, r.name, rev, r.commits[o.b])
	}
	return fmt.Errorf("unknown operation %q", o.kind)
}

// repoMetaRead reads a repository's metadata: its name and its main tip.
func repoMetaRead(ctx context.Context, c *client, owner, name string, tip object.ID) error {
	var got hosting.RepoResponse
	err := c.call(ctx, func(api *extension.Client) (err error) {
		got, err = api.GetRepo(owner, name)
		return err
	})
	if err != nil {
		return err
	}
	c.check(func() error {
		if got.Owner != owner || got.Name != name || got.Tips["main"] != c.w.exp.tip(tip).String() {
			return fmt.Errorf("repo %s/%s: got %s/%s at %s, want main at %s", owner, name, got.Owner, got.Name, got.Tips["main"], tip.Short())
		}
		return nil
	})
	return nil
}

func (wl *registry) settle(*world) error { return nil }

func (wl *registry) finish(w *world) error {
	for _, r := range wl.repos {
		tip, err := tipOf(w.platform, r.owner, r.name, "main")
		if err != nil {
			return err
		}
		if want := w.exp.tip(r.commits[len(r.commits)-1]); tip != want {
			return fmt.Errorf("%s/%s: hosted tip %s, want %s", r.owner, r.name, tip.Short(), want.Short())
		}
	}
	return nil
}

func (wl *registry) focus(w *world) replayFocus {
	f := replayFocus{commit: func(key string) object.ID {
		for _, r := range wl.repos {
			if r.owner+"/"+r.name == key {
				return r.commits[len(r.commits)-1]
			}
		}
		return object.ZeroID
	}}
	for _, r := range wl.repos {
		f.repos = append(f.repos, r.owner+"/"+r.name)
	}
	f.paths = wl.repos[0].nodes
	for _, r := range wl.repos[:min(len(wl.repos), 32)] {
		f.locals = append(f.locals, localRepo{hosted: true, dir: w.hostedDir(r.owner, r.name), meta: meta(r.owner, r.name), commit: r.commits[len(r.commits)-1]})
	}
	return f
}
