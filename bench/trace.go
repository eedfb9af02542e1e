package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// Outside-in tracing: spans are recorded from this package, around the
// calls into each layer, kept in memory, and written once when the pass
// ends. Nothing in the served program is instrumented (that is a later
// change, to be validated against these numbers).

// span is one timed interval. Spans of one request share the root's id as
// a prefix; parent is "" on a root.
type span struct {
	Name   string `json:"name"`
	ID     string `json:"id"`
	Parent string `json:"parent"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// root records a request's root span and returns its id.
func (t *tracer) root(kind string, seq int, start, end time.Time) string {
	id := fmt.Sprintf("%s-%d", kind, seq)
	t.add("volume", id, "", start, end)
	return id
}

// child records one layer's span under the root id.
func (t *tracer) child(root, name string, start, end time.Time) {
	t.add(name, root+"/"+name, root, start, end)
}

func (t *tracer) add(name, id, parent string, start, end time.Time) {
	t.mu.Lock()
	t.spans = append(t.spans, span{name, id, parent, int64(start.Sub(t.epoch)), int64(end.Sub(t.epoch))})
	t.mu.Unlock()
}

// live records the client-side spans of one traced reply.
func (t *tracer) live(r reply) {
	if r.first.Before(r.wrote) { // the two are stamped on different goroutines
		r.first = r.wrote
	}
	id := t.root("live", r.seq, r.sent, r.recv)
	t.child(id, "client.write", r.sent, r.wrote)
	t.child(id, "client.wait", r.wrote, r.first)
	t.child(id, "client.read_volume", r.first, r.recv)
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readTrace parses a trace file back and checks it is a forest of
// well-formed span trees: unique ids, every parent present, every span
// non-negative and inside its parent's interval. It returns the spans
// grouped under their roots' ids.
func readTrace(path string) (roots []span, children map[string][]span, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	byID := map[string]span{}
	var all []span
	dec := json.NewDecoder(f)
	for dec.More() {
		var s span
		if err := dec.Decode(&s); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", path, err)
		}
		if _, dup := byID[s.ID]; dup {
			return nil, nil, fmt.Errorf("%s: span id %q appears twice", path, s.ID)
		}
		if s.End < s.Start {
			return nil, nil, fmt.Errorf("%s: span %q ends before it starts", path, s.ID)
		}
		byID[s.ID] = s
		all = append(all, s)
	}
	children = map[string][]span{}
	for _, s := range all {
		if s.Parent == "" {
			roots = append(roots, s)
			continue
		}
		p, ok := byID[s.Parent]
		if !ok {
			return nil, nil, fmt.Errorf("%s: span %q names a missing parent %q", path, s.ID, s.Parent)
		}
		if s.Start < p.Start || s.End > p.End {
			return nil, nil, fmt.Errorf("%s: span %q [%d,%d] leaves its parent %q [%d,%d]",
				path, s.ID, s.Start, s.End, p.ID, p.Start, p.End)
		}
		children[s.Parent] = append(children[s.Parent], s)
	}
	if len(roots) == 0 {
		return nil, nil, fmt.Errorf("%s: no spans", path)
	}
	return roots, children, nil
}

// layerTimes reduces a checked trace to per-name durations in ms: each
// child span under its own name, and a root's self time — its duration
// minus its children — under "volume.self". kind selects roots by id
// prefix ("live", "replay").
func layerTimes(roots []span, children map[string][]span, kind string) map[string][]float64 {
	out := map[string][]float64{}
	for _, r := range roots {
		if !strings.HasPrefix(r.ID, kind+"-") {
			continue
		}
		self := r.End - r.Start
		for _, c := range children[r.ID] {
			out[c.Name] = append(out[c.Name], float64(c.End-c.Start)/1e6)
			self -= c.End - c.Start
		}
		out["volume"] = append(out["volume"], float64(r.End-r.Start)/1e6)
		out["volume.self"] = append(out["volume.self"], float64(self)/1e6)
	}
	return out
}
