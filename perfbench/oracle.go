package main

import (
	"fmt"
	"slices"
	"strings"

	"github.com/gitcite/gitcite/internal/core"
	"github.com/gitcite/gitcite/internal/hosting"
	"github.com/gitcite/gitcite/internal/vcs/object"
)

// The oracle answers every read from the benchmark's own citeMap with
// plain prefix logic, never through the program's resolution code.

// closest returns the closest cited ancestor of path (itself included) —
// the paper's GenCite semantics.
func closest(m citeMap, path string) (string, cite) {
	for p := path; ; p = parent(p) {
		if c, ok := m[p]; ok {
			return p, c
		}
		if p == "/" {
			return "/", m["/"]
		}
	}
}

// chain returns every cited path from the root down to path.
func chain(m citeMap, path string) []string {
	var rev []string
	for p := path; ; p = parent(p) {
		if _, ok := m[p]; ok {
			rev = append(rev, p)
		}
		if p == "/" {
			break
		}
	}
	slices.Reverse(rev)
	return rev
}

// expect is where the oracle is consulted. shift, when set, makes every
// expectation name the next cited path, and every expected commit another
// one, instead — a deliberately wrong oracle the self-test uses to show the
// checks catch a wrong answer.
type expect struct{ shift bool }

// tip is the commit a ref, or a conditional GET's ETag, must name when the
// benchmark's own history says id.
func (e expect) tip(id object.ID) object.ID {
	if e.shift {
		id[0] ^= 1
	}
	return id
}

func (e expect) closest(m citeMap, path string) (string, cite) {
	from, c := closest(m, path)
	if !e.shift {
		return from, c
	}
	ps := m.paths()
	i, _ := slices.BinarySearch(ps, from)
	next := ps[(i+1)%len(ps)]
	return next, m[next]
}

func sameCite(got core.Citation, want cite) error {
	if got.RepoName != want.Title || got.Version != want.Version || got.URL != want.URL ||
		!slices.Equal(got.AuthorList, want.Authors) {
		return fmt.Errorf("got %q v%q %v, want %q v%q %v",
			got.RepoName, got.Version, got.AuthorList, want.Title, want.Version, want.Authors)
	}
	return nil
}

func (e expect) genCite(m citeMap, path string, got core.Citation, from string) error {
	wantFrom, want := e.closest(m, path)
	if from != wantFrom {
		return fmt.Errorf("cite %s: from %s, want %s", path, from, wantFrom)
	}
	if err := sameCite(got, want); err != nil {
		return fmt.Errorf("cite %s: %w", path, err)
	}
	return nil
}

func (e expect) chain(m citeMap, path string, got []core.PathCitation) error {
	want := chain(m, path)
	if e.shift {
		want = append(want, "/")
	}
	if len(got) != len(want) {
		return fmt.Errorf("chain %s: %d links, want %d", path, len(got), len(want))
	}
	for i, pc := range got {
		if pc.Path != want[i] {
			return fmt.Errorf("chain %s: link %d is %s, want %s", path, i, pc.Path, want[i])
		}
		if err := sameCite(pc.Citation, m[want[i]]); err != nil {
			return fmt.Errorf("chain %s at %s: %w", path, pc.Path, err)
		}
	}
	return nil
}

// rendered checks that a rendered citation carries its title, every
// author and its version.
func (e expect) rendered(m citeMap, path, text string) error {
	_, want := e.closest(m, path)
	for _, s := range append([]string{want.Title, want.Version}, want.Authors...) {
		if !strings.Contains(text, s) {
			return fmt.Errorf("render %s: %q missing from %q", path, s, text)
		}
	}
	return nil
}

// treePage checks one page of a tree listing against the generated tree:
// the same paths in walk order, directories flagged, and the cited flag set
// exactly on explicitly cited paths.
func (e expect) treePage(t *tree, m citeMap, offset, limit int, got hosting.TreePage) error {
	end := len(t.entries)
	if limit > 0 && offset+limit < end {
		end = offset + limit
	}
	want := t.entries[offset:end]
	if len(got.Entries) != len(want) {
		return fmt.Errorf("tree page @%d: %d entries, want %d", offset, len(got.Entries), len(want))
	}
	for i, g := range got.Entries {
		w := want[i]
		_, cited := m[w.path]
		if e.shift {
			cited = !cited
		}
		if g.Path != w.path || g.IsDir != w.isDir || g.Cited != cited {
			return fmt.Errorf("tree page @%d: entry %d is %+v, want {%s dir=%v cited=%v}", offset, i, g, w.path, w.isDir, cited)
		}
	}
	if (end < len(t.entries)) != (got.NextCursor != "") {
		return fmt.Errorf("tree page @%d: next cursor %q with %d of %d entries listed", offset, got.NextCursor, end, len(t.entries))
	}
	return nil
}

// function checks a whole decoded citation function against m.
func (e expect) function(m citeMap, fn *core.Function) error {
	if fn.Len() != len(m) {
		return fmt.Errorf("function has %d entries, want %d", fn.Len(), len(m))
	}
	for p, want := range m {
		if e.shift {
			_, want = e.closest(m, p)
		}
		got, err := fn.Get(p)
		if err != nil {
			return fmt.Errorf("function: %s: %w", p, err)
		}
		if err := sameCite(got, want); err != nil {
			return fmt.Errorf("function at %s: %w", p, err)
		}
	}
	return nil
}
