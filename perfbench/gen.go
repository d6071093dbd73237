package main

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"strings"
)

// newRNG returns the generator for one stream of a run: every input the
// benchmark makes comes from (seed, stream), so the same seed always gives
// the same repositories, citations and operation sequences.
func newRNG(seed uint64, stream ...uint64) *rand.Rand {
	s2 := uint64(0x9e3779b97f4a7c15)
	for _, v := range stream {
		s2 = s2*0x100000001b3 ^ (v + 1)
	}
	return rand.New(rand.NewPCG(seed, s2))
}

var words = []string{
	"alpha", "delta", "sigma", "kappa", "omega", "lumen", "ferro", "quark",
	"vireo", "nimbus", "cobalt", "tundra", "fjord", "basalt", "cedar", "ember",
}

var people = []string{
	"Ada Byron", "Alan Turing", "Grace Hopper", "Edsger Dijkstra", "Barbara Liskov",
	"Donald Knuth", "Frances Allen", "John Backus", "Leslie Lamport", "Radia Perlman",
	"Ken Thompson", "Margaret Hamilton", "Niklaus Wirth", "Tony Hoare",
}

// cite is the benchmark's own record of a citation: the fields the oracle
// checks every answer against.
type cite struct {
	Title   string
	Version string
	Authors []string
	URL     string
}

// citeMap is a version's citation function as the benchmark assigned it:
// explicit path → citation, root "/" included.
type citeMap map[string]cite

func (m citeMap) clone() citeMap {
	out := make(citeMap, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// paths returns the explicitly cited paths in sorted order.
func (m citeMap) paths() []string {
	out := make([]string, 0, len(m))
	for p := range m {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

func genCite(rng *rand.Rand, owner, tag string) cite {
	n := 1 + rng.IntN(3)
	authors := make([]string, n)
	for i := range authors {
		authors[i] = people[rng.IntN(len(people))]
	}
	title := fmt.Sprintf("%s-%s", words[rng.IntN(len(words))], tag)
	return cite{
		Title:   title,
		Version: fmt.Sprintf("%d.%d", 1+rng.IntN(9), rng.IntN(40)),
		Authors: authors,
		URL:     "https://git.example/" + owner + "/" + title,
	}
}

// bump returns c at a new version (a maintainer's release of the cited
// component).
func bump(c cite, version string) cite {
	c.Version = version
	return c
}

// shape describes a generated source tree: fanout[d] subdirectories under
// each directory at depth d, and files files in every directory.
type shape struct {
	fanout []int
	files  int
}

// fileCount is how many files a tree of this shape holds.
func (s shape) fileCount() int {
	dirs, level := 1, 1
	for _, f := range s.fanout {
		level *= f
		dirs += level
	}
	return dirs * s.files
}

// tree is a generated source tree. entries lists every directory and file
// in the order a tree listing walks them (depth first, names sorted).
type tree struct {
	files   []string
	dirs    []string
	entries []treeEntry
}

type treeEntry struct {
	path  string
	isDir bool
}

func genTree(rng *rand.Rand, s shape) *tree {
	t := &tree{}
	var walk func(dir string, depth int)
	walk = func(dir string, depth int) {
		type child struct {
			name  string
			isDir bool
		}
		var kids []child
		for i := 0; i < s.files; i++ {
			ext := []string{".go", ".py", ".csv", ".md"}[rng.IntN(4)]
			kids = append(kids, child{fmt.Sprintf("%s%d%s", words[rng.IntN(len(words))], i, ext), false})
		}
		if depth < len(s.fanout) {
			for i := 0; i < s.fanout[depth]; i++ {
				kids = append(kids, child{fmt.Sprintf("%s_%d", words[rng.IntN(len(words))], i), true})
			}
		}
		sort.Slice(kids, func(i, j int) bool { return kids[i].name < kids[j].name })
		for _, k := range kids {
			p := join(dir, k.name)
			t.entries = append(t.entries, treeEntry{p, k.isDir})
			if k.isDir {
				t.dirs = append(t.dirs, p)
				walk(p, depth+1)
			} else {
				t.files = append(t.files, p)
			}
		}
	}
	walk("/", 0)
	return t
}

func join(dir, name string) string {
	if dir == "/" {
		return "/" + name
	}
	return dir + "/" + name
}

// parent is the plain-prefix parent of a clean rooted path.
func parent(p string) string {
	i := strings.LastIndexByte(p, '/')
	if i <= 0 {
		return "/"
	}
	return p[:i]
}

// content is a file body: deterministic in its arguments, distinct per
// revision.
func content(path string, rev int) []byte {
	return []byte(fmt.Sprintf("// %s, revision %d\n%s\n", path, rev, strings.Repeat("x", 40+len(path)%48)))
}

// pick returns k distinct indices below n.
func pick(rng *rand.Rand, n, k int) []int {
	if k > n {
		k = n
	}
	seen := make(map[int]bool, k)
	out := make([]int, 0, k)
	for len(out) < k {
		i := rng.IntN(n)
		if !seen[i] {
			seen[i] = true
			out = append(out, i)
		}
	}
	return out
}

// deck returns n operation kinds in shares proportional to weights, in a
// seeded order. Every round of every seed holds the same count of each
// kind, so a seed changes which items are read or written and in what
// order, never how much of each kind of work a round does.
func deck(rng *rand.Rand, kinds []string, weights []int, n int) []string {
	total := 0
	for _, w := range weights {
		total += w
	}
	out := make([]string, 0, n)
	for i, k := range kinds {
		c := n * weights[i] / total
		if i == len(kinds)-1 {
			c = n - len(out)
		}
		for j := 0; j < c; j++ {
			out = append(out, k)
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
