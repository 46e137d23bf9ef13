package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Span names. Each layer span wraps one call into that layer's public API;
// spanRequest wraps one client request to a proxy's HTTP front end.
const (
	spanRequest         = "httpproxy.request"
	spanSiblingFetch    = "httpproxy.sibling_fetch"
	spanOriginFetch     = "httpproxy.origin_fetch"
	spanIndexes         = "hashing.indexes"
	spanBloomTest       = "bloom.test"
	spanCountingAdd     = "bloom.counting_add"
	spanCountingRemove  = "bloom.counting_remove"
	spanLRUGet          = "lru.get"
	spanLRUPut          = "lru.put"
	spanCandidates      = "core.candidates"
	spanLookup          = "core.lookup"
	spanDirectoryChange = "core.directory_change"
	spanPublish         = "core.publish"
	spanApplyUpdate     = "core.apply_update"
	spanQueryEncode     = "icp.query_encode"
	spanQueryDecode     = "icp.query_decode"
	spanQueryRTT        = "icp.query_rtt"
	spanDirUpdateEncode = "icp.dirupdate_encode"
	spanDirUpdateDecode = "icp.dirupdate_decode"
	spanSimRun          = "sim.run"
)

// span is one recorded interval, in nanoseconds since the recorder's base.
type span struct {
	name       string
	parent     int32 // index of the enclosing span, -1 for a root
	calls      int32 // layer calls the span wraps: 1, or a batch of identical calls
	start, end int64
}

// recorder keeps one goroutine's spans in memory. A span begun while
// another is open becomes its child.
type recorder struct {
	base  time.Time
	spans []span
	open  int32 // innermost open span, -1 when none
}

func newRecorder(base time.Time) *recorder {
	return &recorder{base: base, spans: make([]span, 0, 1<<16), open: -1}
}

func (r *recorder) begin(name string) int32 { return r.beginN(name, 1) }

// beginN opens a span around a batch of n identical calls, such as one
// probe of every peer summary.
func (r *recorder) beginN(name string, n int32) int32 {
	r.spans = append(r.spans, span{name: name, parent: r.open, calls: n})
	id := int32(len(r.spans) - 1)
	r.open = id
	// Read the clock last, so growing the slice is not charged to the span.
	r.spans[id].start = time.Since(r.base).Nanoseconds()
	return id
}

func (r *recorder) end(id int32) {
	s := &r.spans[id]
	s.end = time.Since(r.base).Nanoseconds()
	r.open = s.parent
}

// layerTime is the aggregate of one span name.
type layerTime struct {
	calls  int64
	selfNS int64 // total duration minus the time covered by child spans
}

func (t layerTime) meanNS() float64 { return float64(t.selfNS) / float64(t.calls) }

// aggregate totals the self time of every span name across recorders.
func aggregate(recs ...*recorder) map[string]layerTime {
	out := make(map[string]layerTime)
	for _, r := range recs {
		child := make([]int64, len(r.spans))
		for _, s := range r.spans {
			if s.parent >= 0 {
				child[s.parent] += s.end - s.start
			}
		}
		for i, s := range r.spans {
			t := out[s.name]
			t.calls += int64(s.calls)
			t.selfNS += s.end - s.start - child[i]
			out[s.name] = t
		}
	}
	return out
}

// writeSpans writes every span as a tab-separated line — recorder,
// index, parent, name, calls, start ns, end ns — to dir/<file>.
func writeSpans(dir, file string, recs ...*recorder) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, file))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "recorder\tspan\tparent\tname\tcalls\tstart_ns\tend_ns")
	for ri, r := range recs {
		off := r.base.UnixNano() - recs[0].base.UnixNano()
		for i, s := range r.spans {
			fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\t%d\n", ri, i, s.parent, s.name, s.calls, s.start+off, s.end+off)
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close() // the flush error is the one worth reporting
		return err
	}
	return f.Close()
}
