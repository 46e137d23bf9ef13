package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"summarycache/internal/core"
	"summarycache/internal/httpproxy"
	"summarycache/internal/origin"
)

// convergeTimeout bounds the wait for every published DIRUPDATE to be
// applied. Convergence normally takes about a millisecond; hitting this
// bound means a datagram was lost, which fails set-up.
const convergeTimeout = 5 * time.Second

// meshSpec configures the proxies of one mesh workload.
type meshSpec struct {
	cacheBytes int64
	singleCopy bool
}

// directory sizes the summaries the way internal/bench does: one expected
// document per 8 KB of cache, 16 bits per expected document, 1% threshold.
func (s meshSpec) directory() core.DirectoryConfig {
	return core.DirectoryConfig{
		ExpectedDocs:    uint64(s.cacheBytes / 8192),
		LoadFactor:      16,
		UpdateThreshold: 0.01,
	}
}

// originPattern is the byte sequence every origin body follows: the origin
// streams a 32 KiB block filled with 'a'+i%26, restarting it each block.
var originPattern = func() []byte {
	b := make([]byte, int(docSizes.Max))
	for i := range b {
		b[i] = byte('a' + (i%(32<<10))%26)
	}
	return b
}()

// mesh is a running origin plus SC-ICP proxies, every proxy peered with
// every other. Clients send absolute-form requests (GET http://origin/...)
// to a proxy, as a browser configured with that proxy does.
type mesh struct {
	spec    meshSpec
	in      *meshInputs
	origin  *origin.Server
	proxies []*httpproxy.Proxy
	via     []*http.Client // via[i] sends every request through proxy i
	direct  *http.Client   // for the layer ladder's sibling and origin hops
	base    string         // the origin's URL
}

func startMesh(spec meshSpec, in *meshInputs) (*mesh, error) {
	org, err := origin.Start(origin.Config{})
	if err != nil {
		return nil, fmt.Errorf("start origin: %w", err)
	}
	m := &mesh{spec: spec, in: in, origin: org, direct: newClient(nil)}
	for i := 0; i < meshProxies; i++ {
		p, err := httpproxy.Start(httpproxy.Config{
			Mode:         httpproxy.ModeSCICP,
			CacheBytes:   spec.cacheBytes,
			Summary:      spec.directory(),
			SingleCopy:   spec.singleCopy,
			QueryTimeout: 2 * time.Second,
		})
		if err != nil {
			m.close()
			return nil, fmt.Errorf("start proxy %d: %w", i, err)
		}
		m.proxies = append(m.proxies, p)
		u, err := url.Parse(p.URL())
		if err != nil {
			m.close()
			return nil, err
		}
		m.via = append(m.via, newClient(u))
	}
	for i, p := range m.proxies {
		for j, q := range m.proxies {
			if i == j {
				continue
			}
			if err := p.AddPeer(q.ICPAddr(), q.URL()); err != nil {
				m.close()
				return nil, fmt.Errorf("peer %d with %d: %w", i, j, err)
			}
		}
	}
	m.base = org.URL()
	return m, nil
}

// target renders document id's origin URL — the form origin.DocURL
// builds, which is also the proxies' cache key. The request lists hold
// compact document ids; a client renders each URL just before it sends the
// request, outside the request's timed latency.
func (m *mesh) target(id uint32) string {
	d := m.in.Docs[id]
	b := make([]byte, 0, len(m.base)+64)
	b = append(b, m.base...)
	b = append(b, '/')
	b = d.appendPath(b)
	b = append(b, '?')
	b = append(b, origin.SizeParam...)
	b = append(b, '=')
	b = strconv.AppendInt(b, d.Size, 10)
	b = append(b, '&')
	b = append(b, origin.VersionParam...)
	b = append(b, "=0"...)
	return string(b)
}

// newClient returns a keep-alive HTTP client, sending through proxy when it
// is not nil.
func newClient(proxy *url.URL) *http.Client {
	tr := &http.Transport{MaxIdleConnsPerHost: 2 * clients, DisableCompression: true}
	if proxy != nil {
		tr.Proxy = http.ProxyURL(proxy)
	}
	return &http.Client{Transport: tr}
}

// close tears the mesh down. Close errors are dropped: every measurement
// has been taken by then.
func (m *mesh) close() {
	for _, p := range m.proxies {
		_ = p.Close()
	}
	_ = m.origin.Close()
	for _, c := range append(m.via, m.direct) {
		c.CloseIdleConnections()
	}
}

func (m *mesh) stats() []httpproxy.Stats {
	out := make([]httpproxy.Stats, len(m.proxies))
	for i, p := range m.proxies {
		out[i] = p.Stats()
	}
	return out
}

// converge publishes every proxy's pending summary changes and waits until
// the mesh has applied every DIRUPDATE it sent.
func (m *mesh) converge() error {
	for _, p := range m.proxies {
		p.FlushSummary()
	}
	start := time.Now()
	for {
		var sent, applied uint64
		for _, p := range m.proxies {
			st := p.Stats().Node
			sent += st.UpdatesSent
			applied += st.UpdatesReceived
		}
		if sent == applied {
			return nil
		}
		if time.Since(start) > convergeTimeout {
			return fmt.Errorf("summaries did not converge: %d DIRUPDATEs sent, %d applied", sent, applied)
		}
		time.Sleep(20 * time.Microsecond)
	}
}

// fetcher issues requests and checks every body against the origin.
type fetcher struct {
	buf []byte
}

func newFetcher() *fetcher {
	return &fetcher{buf: make([]byte, int(docSizes.Max)+1)}
}

// get fetches u with c and verifies that the body has exactly size bytes of
// the origin's pattern.
func (f *fetcher) get(c *http.Client, u string, size int64) error {
	resp, err := c.Get(u)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	// buf is one byte longer than any document, so a complete body always
	// ends in a short read.
	n, err := io.ReadFull(resp.Body, f.buf)
	if err != nil && err != io.ErrUnexpectedEOF && err != io.EOF {
		return fmt.Errorf("read body: %w", err)
	}
	if int64(n) != size {
		_, _ = io.Copy(io.Discard, resp.Body)
		return fmt.Errorf("body is %d bytes, want %d", n, size)
	}
	if !bytes.Equal(f.buf[:n], originPattern[:n]) {
		return errors.New("body differs from the origin's bytes")
	}
	return nil
}

// sendAll issues reqs through the mesh from the closed-loop clients,
// untimed, failing on the first bad response.
func (m *mesh) sendAll(reqs []meshReq) error {
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			f := newFetcher()
			for {
				i := next.Add(1) - 1
				if i >= int64(len(reqs)) {
					return
				}
				r := reqs[i]
				u := m.target(r.Doc)
				if err := f.get(m.via[r.Proxy], u, m.in.Docs[r.Doc].Size); err != nil {
					errs[c] = fmt.Errorf("%s: %w", u, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// setUp loads every proxy's fill set through its HTTP front end, waits for
// the summaries to converge, and sends the warm-up requests.
func (m *mesh) setUp() error {
	var fill []meshReq
	for k := 0; ; k++ {
		added := false
		for p, docs := range m.in.Fill {
			if k < len(docs) {
				fill = append(fill, meshReq{Proxy: uint8(p), Doc: docs[k]})
				added = true
			}
		}
		if !added {
			break
		}
	}
	if err := m.sendAll(fill); err != nil {
		return fmt.Errorf("fill: %w", err)
	}
	if err := m.converge(); err != nil {
		return err
	}
	if err := m.sendAll(m.in.Warm); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	return m.converge()
}

// window is one timed interval of a phase.
type window struct {
	requests int64
	wall     time.Duration
	cpu      time.Duration
}

// phase is the outcome of one timed closed-loop run over the mesh.
type phase struct {
	samples  []samples // per client
	legs     [2]int64  // completed requests per leg: [0] local, [1] the rest
	issued   int64
	failed   int64
	firstErr error
	windows  []window
	before   []httpproxy.Stats
	after    []httpproxy.Stats
	mem      memDelta
	spans    []*recorder // per client; nil when untraced
}

// samples is one client's successful requests in completion order.
type samples struct {
	lat    latencies
	leg    []uint8 // 0: a local hit by the request list, 1: any other request
	winEnd []int   // winEnd[w]: how many samples completed by the end of window w
}

// gather appends to dst the latencies of window w (every window when w < 0)
// whose leg is leg (any leg when leg < 0).
func (ph *phase) gather(dst latencies, w, leg int) latencies {
	for _, s := range ph.samples {
		lo, hi := 0, len(s.lat)
		if w >= 0 {
			hi = s.winEnd[w]
			if w > 0 {
				lo = s.winEnd[w-1]
			}
		}
		for i := lo; i < hi; i++ {
			if leg < 0 || int(s.leg[i]) == leg {
				dst = append(dst, s.lat[i])
			}
		}
	}
	return dst
}

// run drives reqs from the closed-loop clients for the given number of
// one-second windows, starting at list position from. With cycle the list
// wraps around; without it, running out of requests is an error. When
// traced, each request is recorded as a span.
func (m *mesh) run(reqs []meshReq, from int64, cycle bool, windows int, traced bool) (*phase, int64, error) {
	runtime.GC()
	ph := &phase{before: m.stats()}
	var next, done, curWindow atomic.Int64
	var stop, exhausted atomic.Bool
	next.Store(from)
	type clientOut struct {
		samples
		failed int64
		err    error
		rec    *recorder
	}
	outs := make([]clientOut, clients)
	var wg sync.WaitGroup
	memBefore := readMem()
	start := sampleUsage()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(out *clientOut) {
			defer wg.Done()
			f := newFetcher()
			out.lat = make(latencies, 0, 1<<18)
			out.leg = make([]uint8, 0, 1<<18)
			if traced {
				out.rec = newRecorder(start.wall)
			}
			for !stop.Load() {
				i := next.Add(1) - 1
				if i >= int64(len(reqs)) {
					if !cycle {
						exhausted.Store(true)
						break
					}
					i %= int64(len(reqs))
				}
				r := reqs[i]
				u := m.target(r.Doc)
				var sp int32
				if out.rec != nil {
					sp = out.rec.begin(spanRequest)
				}
				t0 := time.Now()
				err := f.get(m.via[r.Proxy], u, m.in.Docs[r.Doc].Size)
				d := time.Since(t0).Nanoseconds()
				if out.rec != nil {
					out.rec.end(sp)
				}
				done.Add(1)
				if err != nil {
					out.failed++
					if out.err == nil {
						out.err = fmt.Errorf("%s via proxy %d: %w", u, r.Proxy, err)
					}
					continue
				}
				for w := int(curWindow.Load()); len(out.winEnd) < w; {
					out.winEnd = append(out.winEnd, len(out.lat))
				}
				leg := uint8(1)
				if m.in.local(r) {
					leg = 0
				}
				out.lat = append(out.lat, d)
				out.leg = append(out.leg, leg)
			}
			for len(out.winEnd) < windows {
				out.winEnd = append(out.winEnd, len(out.lat))
			}
		}(&outs[c])
	}
	prev, prevDone := start, int64(0)
	for w := 1; w <= windows && !exhausted.Load(); w++ {
		time.Sleep(time.Until(start.wall.Add(time.Duration(w) * time.Second)))
		now, n := sampleUsage(), done.Load()
		ph.windows = append(ph.windows, window{requests: n - prevDone, wall: now.wall.Sub(prev.wall), cpu: now.cpu - prev.cpu})
		prev, prevDone = now, n
		curWindow.Store(int64(w))
	}
	stop.Store(true)
	wg.Wait()
	ph.mem = readMem().sub(memBefore)
	ph.after = m.stats()
	for i := range outs {
		o := &outs[i]
		ph.samples = append(ph.samples, o.samples)
		for _, l := range o.leg {
			ph.legs[l]++
		}
		ph.failed += o.failed
		if ph.firstErr == nil {
			ph.firstErr = o.err
		}
		if o.rec != nil {
			ph.spans = append(ph.spans, o.rec)
		}
	}
	ph.issued = done.Load()
	if exhausted.Load() {
		return ph, next.Load(), fmt.Errorf("request list of %d ran out before %d windows", len(reqs), windows)
	}
	return ph, next.Load(), nil
}

// meshTotals sums the per-proxy counter deltas of a phase.
type meshTotals struct {
	requests, localHits, remoteHits, misses, falseHits uint64
	originFetches, peerFetches, retries, httpMessages  uint64
	udpSent, udpSentBytes, udpDropped, udpSendErrors   uint64
	queriesSent, nodeRemoteHits, nodeFalseHits         uint64
	updatesSent                                        uint64
}

func (ph *phase) totals() meshTotals {
	var t meshTotals
	for i := range ph.after {
		a, b := ph.after[i], ph.before[i]
		t.requests += a.ClientRequests - b.ClientRequests
		t.localHits += a.LocalHits - b.LocalHits
		t.remoteHits += a.RemoteHits - b.RemoteHits
		t.misses += a.Misses - b.Misses
		t.falseHits += a.FalseHits - b.FalseHits
		t.originFetches += a.OriginFetches - b.OriginFetches
		t.peerFetches += a.PeerFetches - b.PeerFetches
		t.retries += a.Retries - b.Retries
		t.httpMessages += a.HTTPMessages - b.HTTPMessages
		t.udpSent += a.UDP.Sent - b.UDP.Sent
		t.udpSentBytes += a.UDP.SentBytes - b.UDP.SentBytes
		t.udpDropped += a.UDP.Dropped - b.UDP.Dropped
		t.udpSendErrors += a.UDP.SendErrors - b.UDP.SendErrors
		t.queriesSent += a.Node.QueriesSent - b.Node.QueriesSent
		t.nodeRemoteHits += a.Node.RemoteHits - b.Node.RemoteHits
		t.nodeFalseHits += a.Node.FalseHits - b.Node.FalseHits
		t.updatesSent += a.Node.UpdatesSent - b.Node.UpdatesSent
	}
	return t
}

// memDelta is the allocation activity of a phase.
type memDelta struct {
	allocBytes uint64
	gcCycles   uint32
}

func readMem() memDelta {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memDelta{allocBytes: ms.TotalAlloc, gcCycles: ms.NumGC}
}

func (a memDelta) sub(b memDelta) memDelta {
	return memDelta{allocBytes: a.allocBytes - b.allocBytes, gcCycles: a.gcCycles - b.gcCycles}
}
