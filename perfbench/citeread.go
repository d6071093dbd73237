package main

import (
	"context"
	"fmt"
	"strconv"

	"github.com/gitcite/gitcite/internal/citefile"
	"github.com/gitcite/gitcite/internal/core"
	"github.com/gitcite/gitcite/internal/extension"
	"github.com/gitcite/gitcite/internal/gitcite"
	"github.com/gitcite/gitcite/internal/hosting"
	"github.com/gitcite/gitcite/internal/vcs/object"
)

// citeRead is the extension's warm read path: one large, deep repository
// with hundreds of explicit citations and a short history, read by every
// client through GenCite (branch, full and abbreviated commit revs), Chain,
// rendered BibTeX/CFF, tree pages, whole citation files and conditional
// citation-file GETs.
type citeRead struct {
	cfg    *config
	shape  shape
	cites  int // explicit citations besides the root
	hist   int // commits
	edits  int // citations re-versioned per later commit
	perRnd int // operations per client per round
	limit  int // tree page size

	owner, name string
	tr          *tree
	nodes       []string // every path a read may name, "/" last
	commits     []object.ID
	maps        []citeMap
	local       *gitcite.Repo
}

// The shares are those of gitcite-load's monorepo scenario
// (internal/load/scenario.go: cite 30, cite_deep 20, chain 10, tree 20,
// citefile 5, cond_cite 15), with its commit-addressed cite_deep split
// evenly between full and abbreviated commit IDs. That scenario issues no
// rendered reads; the BibTeX and CFF shares are the benchmark's own choice,
// not taken from a measured mix.
var citeReadKinds = []string{"cite_branch", "cite_commit", "cite_abbrev", "chain", "tree", "citefile", "citefile_304", "bibtex", "cff"}
var citeReadWeights = []int{30, 10, 10, 10, 20, 5, 15, 5, 5}

func newCiteRead(cfg *config) workload {
	if cfg.tiny {
		return &citeRead{cfg: cfg, shape: shape{fanout: []int{2, 2}, files: 2}, cites: 6, hist: 3, edits: 2, perRnd: 30, limit: 5}
	}
	return &citeRead{cfg: cfg, shape: shape{fanout: []int{6, 4, 3, 2, 2}, files: 3}, cites: 300, hist: 4, edits: 25, perRnd: 2200, limit: 100}
}

func (wl *citeRead) setup(w *world) error {
	rng := newRNG(wl.cfg.seed, 1)
	c0 := w.clients[0]
	wl.owner, wl.name = c0.user, "atlas"
	wl.tr = genTree(rng, wl.shape)
	for _, e := range wl.tr.entries {
		wl.nodes = append(wl.nodes, e.path)
	}
	wl.nodes = append(wl.nodes, "/")

	m := citeMap{"/": genCite(rng, wl.owner, "root")}
	for _, i := range pick(rng, len(wl.tr.entries), wl.cites) {
		p := wl.tr.entries[i].path
		m[p] = genCite(rng, wl.owner, strconv.Itoa(i))
	}
	files := map[string][]byte{}
	for _, f := range wl.tr.files {
		files[f] = content(f, 0)
	}
	local, err := w.openLocal(wl.owner, wl.name)
	if err != nil {
		return err
	}
	wl.local = local
	for k := 0; k < wl.hist; k++ {
		if k > 0 {
			m = m.clone()
			ps := m.paths()[1:] // without the root
			for j, i := range pick(rng, len(ps), wl.edits) {
				m[ps[i]] = bump(m[ps[i]], fmt.Sprintf("%d.%d", k+1, j))
			}
			for _, i := range pick(rng, len(ps), 2) {
				delete(m, ps[i])
			}
			for _, i := range pick(rng, len(wl.tr.entries), 3) {
				p := wl.tr.entries[i].path
				m[p] = genCite(rng, wl.owner, fmt.Sprintf("%d-%d", k, i))
			}
			m["/"] = bump(m["/"], fmt.Sprintf("%d.0", k+1))
			files = map[string][]byte{}
			for _, i := range pick(rng, len(wl.tr.files), 5) {
				files[wl.tr.files[i]] = content(wl.tr.files[i], k)
			}
		}
		id, err := w.commit(local, "main", wl.owner, files, m)
		if err != nil {
			return err
		}
		wl.commits = append(wl.commits, id)
		wl.maps = append(wl.maps, m)
	}
	if err := c0.api.CreateRepo(wl.name, meta(wl.owner, wl.name).URL, "MIT"); err != nil {
		return err
	}
	_, err = c0.api.Sync(local, wl.owner, wl.name, "main")
	return err
}

func (wl *citeRead) plan(c *client, round int) []op {
	rng := newRNG(wl.cfg.seed, 2, uint64(c.id), uint64(round))
	ops := make([]op, wl.perRnd)
	pages := (len(wl.tr.entries) + wl.limit - 1) / wl.limit
	for i, kind := range deck(rng, citeReadKinds, citeReadWeights, wl.perRnd) {
		o := op{kind: kind, a: rng.IntN(len(wl.nodes)), b: rng.IntN(wl.hist)}
		if o.kind == "tree" {
			o.a = rng.IntN(pages)
		}
		ops[i] = o
	}
	return ops
}

func (wl *citeRead) do(ctx context.Context, c *client, o op) error {
	last := len(wl.commits) - 1
	path := wl.nodes[o.a]
	rev, m := wl.commits[o.b].String(), wl.maps[o.b]
	switch o.kind {
	case "cite_branch":
		return genCiteRead(ctx, c, wl.owner, wl.name, "main", path, wl.maps[last])
	case "cite_commit":
		return genCiteRead(ctx, c, wl.owner, wl.name, rev, path, m)
	case "cite_abbrev":
		return genCiteRead(ctx, c, wl.owner, wl.name, rev[:8], path, m)
	case "chain":
		return chainRead(ctx, c, wl.owner, wl.name, rev, path, m)
	case "bibtex", "cff":
		return renderRead(ctx, c, wl.owner, wl.name, rev, path, o.kind, m)
	case "tree":
		return treeRead(ctx, c, wl.owner, wl.name, rev, wl.tr, m, o.a*wl.limit, wl.limit)
	case "citefile":
		return citeFileRead(ctx, c, wl.owner, wl.name, "main", wl.maps[last])
	case "citefile_304":
		commit := wl.commits[o.b]
		if o.b%2 == 0 {
			rev, commit = "main", wl.commits[last]
		}
		return conditionalRead(ctx, c, wl.owner, wl.name, rev, commit)
	}
	return fmt.Errorf("unknown operation %q", o.kind)
}

// The reads below issue one extension call each and check its answer
// against the version's citeMap m.

func genCiteRead(ctx context.Context, c *client, owner, name, rev, path string, m citeMap) error {
	var got core.Citation
	var from string
	err := c.call(ctx, func(api *extension.Client) (err error) {
		got, from, err = api.GenCite(owner, name, rev, path)
		return err
	})
	if err != nil {
		return err
	}
	c.check(func() error { return c.w.exp.genCite(m, path, got, from) })
	return nil
}

func chainRead(ctx context.Context, c *client, owner, name, rev, path string, m citeMap) error {
	var got []core.PathCitation
	err := c.call(ctx, func(api *extension.Client) (err error) {
		got, err = api.Chain(owner, name, rev, path)
		return err
	})
	if err != nil {
		return err
	}
	c.check(func() error { return c.w.exp.chain(m, path, got) })
	return nil
}

func renderRead(ctx context.Context, c *client, owner, name, rev, path, format string, m citeMap) error {
	var text string
	err := c.call(ctx, func(api *extension.Client) (err error) {
		text, err = api.GenCiteRendered(owner, name, rev, path, format)
		return err
	})
	if err != nil {
		return err
	}
	c.check(func() error { return c.w.exp.rendered(m, path, text) })
	return nil
}

// citeFileRead downloads a version's citation file and checks the whole
// decoded function.
func citeFileRead(ctx context.Context, c *client, owner, name, rev string, m citeMap) error {
	var data []byte
	err := c.call(ctx, func(api *extension.Client) (err error) {
		data, err = api.CiteFile(owner, name, rev)
		return err
	})
	if err != nil {
		return err
	}
	c.check(func() error {
		fn, err := citefile.Decode(data)
		if err != nil {
			return err
		}
		return c.w.exp.function(m, fn)
	})
	return nil
}

// treeRead fetches one tree page and checks it.
func treeRead(ctx context.Context, c *client, owner, name, rev string, tr *tree, m citeMap, offset, limit int) error {
	cursor := ""
	if offset > 0 {
		cursor = strconv.Itoa(offset)
	}
	var page hosting.TreePage
	err := c.call(ctx, func(api *extension.Client) (err error) {
		page, err = api.TreePage(owner, name, rev, cursor, limit)
		return err
	})
	if err != nil {
		return err
	}
	c.check(func() error { return c.w.exp.treePage(tr, m, offset, limit, page) })
	return nil
}

// conditionalRead revalidates a citation file the client already holds:
// the answer must be 304 with the commit's ID as its ETag.
func conditionalRead(ctx context.Context, c *client, owner, name, rev string, commit object.ID) error {
	etag := `"` + commit.String() + `"`
	var got string
	var notModified bool
	err := c.call(ctx, func(api *extension.Client) (err error) {
		_, got, notModified, err = api.CiteFileIfChanged(owner, name, rev, etag)
		return err
	})
	if err != nil {
		return err
	}
	c.check(func() error {
		want := `"` + c.w.exp.tip(commit).String() + `"`
		if !notModified || got != want {
			return fmt.Errorf("citefile %s: notModified=%v etag %s, want 304 with %s", rev, notModified, got, want)
		}
		return nil
	})
	return nil
}

func (wl *citeRead) settle(*world) error { return nil }

func (wl *citeRead) finish(w *world) error {
	tip, err := tipOf(w.platform, wl.owner, wl.name, "main")
	if err != nil {
		return err
	}
	if tip != w.exp.tip(wl.commits[len(wl.commits)-1]) {
		return fmt.Errorf("hosted tip %s, want %s", tip.Short(), wl.commits[len(wl.commits)-1].Short())
	}
	return nil
}

// focus names what the traced replay measures on this workload.
func (wl *citeRead) focus(w *world) replayFocus {
	tip := wl.commits[len(wl.commits)-1]
	return replayFocus{
		repos:  []string{wl.owner + "/" + wl.name},
		commit: func(string) object.ID { return tip },
		paths:  wl.nodes,
		locals: []localRepo{{repo: wl.local, dir: w.localDir(wl.owner, wl.name), meta: wl.local.Meta, commit: tip}},
	}
}
