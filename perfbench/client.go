package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"github.com/gitcite/gitcite/internal/extension"
)

// op is one operation of a workload's mix. Its fields are drawn from the
// seed when the round is planned; each workload gives them its own meaning.
type op struct {
	kind string
	a, b int
	list []int
}

// client is one closed-loop caller: it sends its next operation only after
// the previous one completed.
type client struct {
	id   int
	user string
	api  *extension.Client
	w    *world

	attempted, failed int
	genNS, checkNS    int64
	lat               map[string][]int64 // untraced latency per kind, ns
	firstErr          error
}

// phase counters, reset at the start of each measured phase.
func (c *client) reset() {
	c.attempted, c.failed, c.genNS, c.checkNS = 0, 0, 0, 0
	c.lat = map[string][]int64{}
}

// run performs a round's operations in order.
func (c *client) run(ops []op, do func(ctx context.Context, c *client, o op) error) {
	t := c.w.t
	for _, o := range ops {
		ctx := context.Background()
		rec := t.recording()
		var id uint64
		if rec {
			id = t.newID()
			ctx = withSpan(ctx, id, id)
		}
		start := time.Now()
		err := do(ctx, c, o)
		end := time.Now()
		if rec {
			t.record("op", id, 0, id, start, end)
		}
		c.attempted++
		if err != nil {
			c.failed++
			if c.firstErr == nil {
				c.firstErr = fmt.Errorf("%s: %w", o.kind, err)
				fmt.Fprintf(os.Stderr, "perfbench: client %d: operation %s failed: %v\n", c.id, o.kind, err)
			}
			continue
		}
		if !rec {
			c.lat[o.kind] = append(c.lat[o.kind], int64(end.Sub(start)))
		}
	}
}

// call runs one public client method of an operation, timed as an
// extension call when tracing.
func (c *client) call(ctx context.Context, f func(api *extension.Client) error) error {
	t := c.w.t
	if !t.recording() {
		return f(c.api)
	}
	sc := spanFrom(ctx)
	id := t.newID()
	start := time.Now()
	err := f(c.api.WithContext(withSpan(ctx, sc.op, id)))
	t.record("extension.call", id, sc.op, sc.op, start, time.Now())
	return err
}

// timed runs a local step of an operation under a span name when tracing.
func (c *client) timed(ctx context.Context, name string, f func() error) error {
	t := c.w.t
	if !t.recording() {
		return f()
	}
	sc := spanFrom(ctx)
	id := t.newID()
	start := time.Now()
	err := f()
	t.record(name, id, sc.op, sc.op, start, time.Now())
	return err
}

// check runs an oracle comparison, charging its time to the harness. A
// disagreement marks the run incorrect; it does not fail the operation.
func (c *client) check(f func() error) {
	start := time.Now()
	err := f()
	c.checkNS += int64(time.Since(start))
	if err != nil {
		c.w.noteMismatch(fmt.Errorf("client %d: %w", c.id, err))
	}
}

// count adds one event to a traced counter.
func (c *client) count(name string) {
	if c.w.t.recording() {
		c.w.t.add(name, 1, 0)
	}
}
